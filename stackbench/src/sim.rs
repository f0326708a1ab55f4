//! `sim-1m` and `sim-gray`: the heterogeneous `sim_bench` task mix on
//! Amarel-shaped nodes, driven straight through the sharded engine in
//! serial drive.
//!
//! The mix: 70% 1–4-core tasks, 20% 2-core + 1-GPU tasks, 10% 14-core
//! tasks; durations 100–3000 s; priorities −2..2. `sim-1m` runs it healthy
//! at the north-star scale (10,000 nodes, 1,000,000 tasks, telemetry off);
//! `sim-gray` runs it on 1,000 nodes under transient failures with a
//! retry budget, node slowdowns with k=2 hedging, a lossy control plane
//! with heartbeat detection, and telemetry recorded to a ring sink and
//! exported as a Chrome trace before the drive ends.

use crate::trace::{self, Layer, TimedBackend, TimedSink};
use crate::{median, per_layer, set_up, tail, Budget, Extras, Gen, Outcome};
use impress_json::Json;
use impress_pilot::{
    Completion, ExecutionBackend, FaultConfig, FaultPlan, HedgePolicy, NodeSpec, PilotConfig,
    ResourceRequest, RetryPolicy, RuntimeConfig, TaskDescription,
};
use impress_sim::SimDuration;
use impress_telemetry::{RingSink, SpanId, Telemetry, TelemetryEvent, TelemetrySink, TraceClock};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Size and environment of one round.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Amarel-shaped nodes.
    pub nodes: u32,
    /// Tasks submitted in the burst.
    pub tasks: usize,
    /// Faults, hedging, lossy control plane and telemetry on.
    pub gray: bool,
}

impl Params {
    /// `sim-1m`.
    pub fn healthy() -> Params {
        Params {
            nodes: 10_000,
            tasks: 1_000_000,
            gray: false,
        }
    }

    /// `sim-gray`.
    pub fn gray() -> Params {
        Params {
            nodes: 1_000,
            tasks: 60_000,
            gray: true,
        }
    }

    /// A seconds-scale setting of either, with the same checks.
    pub fn smoke(gray: bool) -> Params {
        Params {
            nodes: 50,
            tasks: 5_000,
            gray,
        }
    }
}

/// The generated mix: one request and duration per task.
struct Mix {
    tasks: Vec<(ResourceRequest, u64, i32)>,
}

fn mix(p: &Params, seed: u64) -> Mix {
    let mut g = Gen::new(seed, 3);
    let tasks = (0..p.tasks)
        .map(|_| {
            let class = g.below(100);
            let request = if class < 70 {
                ResourceRequest::cores(1 + g.below(4) as u32)
            } else if class < 90 {
                ResourceRequest::with_gpus(2, 1)
            } else {
                ResourceRequest::cores(14)
            };
            let secs = 100 + g.below(2_901);
            let priority = g.below(5) as i32 - 2;
            (request, secs, priority)
        })
        .collect();
    Mix { tasks }
}

fn pilot(p: &Params, seed: u64) -> PilotConfig {
    PilotConfig {
        node: NodeSpec::amarel(),
        nodes: p.nodes,
        bootstrap: SimDuration::from_secs(60),
        exec_setup_per_task: SimDuration::from_secs(5),
        ..PilotConfig::with_seed(seed)
    }
}

/// The gray environment. Every rate is far below what could exhaust a
/// retry budget of 10: a task fails for good only after 11 faulted
/// attempts in a row.
fn gray_runtime(config: PilotConfig, seed: u64) -> RuntimeConfig {
    let mut fc = FaultConfig::none();
    fc.task_failure_rate = 0.02;
    fc.node_slowdown_mtbf = Some(SimDuration::from_hours(24));
    fc.slowdown_duration = SimDuration::from_mins(30);
    fc.slowdown_factor = 6.0;
    fc.link.drop_rate = 0.01;
    fc.link.duplicate_rate = 0.01;
    fc.link.reorder_rate = 0.01;
    fc.link.delay = SimDuration::from_millis(50);
    fc.link.jitter = SimDuration::from_millis(200);
    fc.link.retransmit_timeout = SimDuration::from_secs(1);
    fc.link.heartbeat_interval = Some(SimDuration::from_secs(30));
    fc.link.heartbeat_timeout = Some(SimDuration::from_secs(300));
    RuntimeConfig::new(config)
        .faults(FaultPlan::new(fc, seed ^ 0x6ea7), RetryPolicy::retries(10))
        .hedge(HedgePolicy::k(2.0))
}

/// One round's inputs, built in set-up.
struct Inputs<B> {
    backend: B,
    descs: Vec<TaskDescription>,
}

/// One delivered completion.
#[derive(Clone, Copy)]
struct Done {
    task: u64,
    ok: bool,
    started: u64,
    finished: u64,
}

impl From<Completion> for Done {
    fn from(c: Completion) -> Done {
        Done {
            task: c.task.0,
            ok: c.result.is_ok(),
            started: c.started.as_micros(),
            finished: c.finished.as_micros(),
        }
    }
}

/// What the drive saw.
struct Drive {
    done: Vec<Done>,
    latencies: Vec<f64>,
    seconds: f64,
    trace: Option<String>,
}

/// Tasks whose host latency is timed: every task whose id is a multiple of
/// the stride, so the clock is read for about this many tasks per round.
const LATENCY_SAMPLE: usize = 10_000;

/// Submit every task in one burst and drain the engine; with a ring sink,
/// export its Chrome trace before the clock stops.
fn drive<B: ExecutionBackend>(inputs: &mut Inputs<B>, ring: Option<&RingSink>) -> Drive {
    let n = inputs.descs.len();
    let stride = (n / LATENCY_SAMPLE).max(1) as u64;
    let d0 = Instant::now();
    let mut submitted = vec![0u64; n / stride as usize + 1];
    for (i, desc) in inputs.descs.drain(..).enumerate() {
        if (i as u64).is_multiple_of(stride) {
            submitted[i / stride as usize] = d0.elapsed().as_nanos() as u64;
        }
        inputs.backend.submit(desc);
    }
    let mut done = Vec::with_capacity(n);
    let mut latencies = Vec::with_capacity(submitted.len());
    // Each completion is reduced to what the checks need and released
    // inside the engine's layer: taking a completion from the engine
    // includes releasing the owned task name and tag it carries.
    while let Some(c) = trace::timed(Layer::Backend, || {
        inputs.backend.next_completion().map(Done::from)
    }) {
        if c.task.is_multiple_of(stride) {
            if let Some(&since) = submitted.get((c.task / stride) as usize) {
                latencies.push((d0.elapsed().as_nanos() as u64 - since) as f64 * 1e-9);
            }
        }
        done.push(c);
    }
    let trace = ring.map(|ring| {
        trace::timed(Layer::Export, || {
            let mut doc = String::new();
            impress_telemetry::write_chrome_trace(&mut doc, &ring.events(), TraceClock::Virtual);
            doc
        })
    });
    Drive {
        done,
        latencies,
        seconds: d0.elapsed().as_secs_f64(),
        trace,
    }
}

/// Check the drive against the generated tasks.
fn check(out: &mut Outcome, p: &Params, mix: &Mix, d: &Drive) {
    let n = mix.tasks.len();
    let mut seen = vec![false; n];
    let mut failed = 0u64;
    for c in &d.done {
        let Some(slot) = seen.get_mut(c.task as usize) else {
            out.errors
                .push(format!("completion for unknown task {}", c.task));
            continue;
        };
        out.check(!*slot, || format!("task {} completed twice", c.task));
        *slot = true;
        if !c.ok {
            failed += 1;
        }
    }
    let missing = seen.iter().filter(|s| !**s).count() as u64;
    out.tasks += n as u64;
    out.failed_tasks += failed + missing;
    out.check(failed == 0 && missing == 0, || {
        format!("{failed} tasks failed, {missing} never completed")
    });

    // Occupancy sweep: ends before starts at the same instant.
    let node = NodeSpec::amarel();
    let (cores, gpus) = (
        i64::from(node.cores) * i64::from(p.nodes),
        i64::from(node.gpus) * i64::from(p.nodes),
    );
    let mut events: Vec<(u64, i64, i64)> = Vec::with_capacity(2 * d.done.len());
    for c in &d.done {
        let Some((req, _, _)) = mix.tasks.get(c.task as usize) else {
            continue;
        };
        let (rc, rg) = (i64::from(req.cores), i64::from(req.gpus));
        events.push((c.started, rc, rg));
        events.push((c.finished, -rc, -rg));
    }
    events.sort_unstable_by_key(|&(t, dc, _)| (t, dc > 0));
    let (mut held_c, mut held_g) = (0i64, 0i64);
    for (t, dc, dg) in events {
        held_c += dc;
        held_g += dg;
        if held_c > cores || held_g > gpus {
            out.errors.push(format!(
                "{held_c} cores / {held_g} GPUs held at t={t}us on a {cores}/{gpus} cluster"
            ));
            break;
        }
    }

    let makespan = d.done.iter().map(|c| c.finished).max().unwrap_or(0) as f64 * 1e-6;
    let core_s: f64 = mix
        .tasks
        .iter()
        .map(|(r, s, _)| f64::from(r.cores) * *s as f64)
        .sum();
    let gpu_s: f64 = mix
        .tasks
        .iter()
        .map(|(r, s, _)| f64::from(r.gpus) * *s as f64)
        .sum();
    let longest = mix.tasks.iter().map(|(_, s, _)| *s).max().unwrap_or(0) as f64;
    let bound = (core_s / cores as f64)
        .max(gpu_s / gpus as f64)
        .max(longest);
    out.check(makespan >= bound, || {
        format!("makespan {makespan} s under the lower bound {bound} s")
    });
}

/// Check the recorded stream and the exported trace.
fn check_trace(out: &mut Outcome, events: &[TelemetryEvent], dropped: u64, doc: &str) {
    out.check(dropped == 0, || {
        format!("ring sink dropped {dropped} events")
    });
    let mut open: HashSet<SpanId> = HashSet::new();
    let mut spans = 0usize;
    for e in events {
        match e {
            TelemetryEvent::Begin { id, .. } => {
                spans += 1;
                open.insert(*id);
            }
            TelemetryEvent::End { id, .. } => {
                out.check(open.remove(id), || {
                    format!("span {id:?} ended without a begin")
                });
            }
            TelemetryEvent::Instant { .. } => {}
        }
    }
    out.check(open.is_empty(), || {
        format!("{} spans never ended", open.len())
    });
    match impress_json::parse(doc) {
        Ok(json) => {
            let rows = match json.get("traceEvents") {
                Some(Json::Array(rows)) => rows.as_slice(),
                _ => &[],
            };
            let complete = rows
                .iter()
                .filter(|r| {
                    r.get("ph").and_then(Json::as_str) == Some("X") && r.get("dur").is_some()
                })
                .count();
            out.check(complete == spans, || {
                format!("trace exports {complete} complete spans of {spans} recorded")
            });
        }
        Err(e) => out
            .errors
            .push(format!("exported trace does not parse: {e}")),
    }
}

fn build(
    p: &Params,
    seed: u64,
    mix: &Mix,
    telemetry: Option<Telemetry>,
) -> (RuntimeConfig, Vec<TaskDescription>) {
    let config = pilot(p, seed);
    let mut rt = if p.gray {
        gray_runtime(config, seed)
    } else {
        RuntimeConfig::new(config)
    };
    if let Some(t) = telemetry {
        rt = rt.telemetry(t);
    }
    let descs = mix
        .tasks
        .iter()
        .map(|&(req, secs, prio)| {
            TaskDescription::new("t", req, SimDuration::from_secs(secs)).with_priority(prio)
        })
        .collect();
    (rt, descs)
}

/// Run the workload for `budget`; traced runs report the per-layer set.
pub fn run(p: &Params, seed: u64, budget: Budget, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut setups, mut rates, mut p50s, mut tails, mut drives, mut traced_drives) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut tally = trace::Tally::default();
    let mut x = Extras::default();
    let ring_capacity = p.tasks * 16;
    let began = Instant::now();
    while budget.more(began, out.rounds) {
        let (mix, ring, mut inputs) = set_up(&mut setups, || {
            let mix = mix(p, seed);
            let ring = p.gray.then(|| Arc::new(RingSink::new(ring_capacity)));
            let telemetry = ring
                .clone()
                .map(|r| Telemetry::with_sink(r as Arc<dyn TelemetrySink>));
            let (rt, descs) = build(p, seed, &mix, telemetry);
            let inputs = Inputs {
                backend: rt.sharded(),
                descs,
            };
            (mix, ring, inputs)
        });
        let d = drive(&mut inputs, ring.as_deref());
        drives.push(d.seconds);
        rates.push(p.tasks as f64 / d.seconds);
        p50s.push(median(&d.latencies));
        tails.push(tail(&d.latencies));
        check(&mut out, p, &mix, &d);
        if let (Some(ring), Some(doc)) = (&ring, &d.trace) {
            check_trace(&mut out, &ring.events(), ring.dropped(), doc);
        }
        drop((inputs, d, ring));

        if traced {
            let ring = p
                .gray
                .then(|| Arc::new(TimedSink(RingSink::new(ring_capacity))));
            let telemetry = ring
                .clone()
                .map(|r| Telemetry::with_sink(r as Arc<dyn TelemetrySink>));
            let (rt, descs) = build(p, seed, &mix, telemetry);
            let mut twin = Inputs {
                backend: TimedBackend::new(rt.sharded()),
                descs,
            };
            trace::start();
            let d = drive(&mut twin, ring.as_deref().map(|r| &r.0));
            let t = trace::stop();
            traced_drives.push(d.seconds);
            tally += &t;
            let util = twin.backend.utilization();
            let control = twin.backend.control_stats();
            x = Extras {
                retries: util.retries as f64,
                hedges: util.hedges as f64,
                wasted_core_s: util.wasted_core_seconds,
                hedge_wasted_core_s: util.hedge_wasted_core_seconds,
                messages: control.messages as f64,
                retransmits: control.retransmits as f64,
                heartbeats: control.heartbeats_sent as f64,
                export_bytes: d.trace.as_ref().map_or(0.0, |doc| doc.len() as f64),
                ..Extras::default()
            };
            let mut shadow = Outcome::default();
            check(&mut shadow, p, &mix, &d);
            if let (Some(ring), Some(doc)) = (&ring, &d.trace) {
                check_trace(&mut shadow, &ring.0.events(), ring.0.dropped(), doc);
            }
            out.errors
                .extend(shadow.errors.into_iter().map(|e| format!("traced: {e}")));
        }
        out.rounds += 1;
    }
    if traced {
        per_layer(&mut out, &tally, &x, &traced_drives, &drives);
    } else {
        out.metric("setup_s", median(&setups), "s");
        out.metric("tasks_per_s", median(&rates), "1/s");
        out.metric("result_p50_s", median(&p50s), "s");
        out.metric("result_tail_s", median(&tails), "s");
        out.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    }
    out
}
