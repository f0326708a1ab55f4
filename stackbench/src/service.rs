//! `service-10k`: 10,000 campaigns from 25 equal-weight tenants, submitted
//! in one burst to one `CampaignService` over a shared cluster of 1,000
//! four-core nodes. Each campaign runs 2 pipelines of 3 single-core stages
//! whose work is a no-op; every other tenant journals its campaigns to
//! in-memory stores. Only middleware runs: service stepping, lease
//! pumping, coordinators, journal framing and the engine.

use crate::trace::{self, Layer, TimedBackend, TimedPipeline, TimedStore};
use crate::{jain, median, per_layer, set_up, tail, Budget, Extras, Gen, Outcome};
use impress_pilot::{
    Completion, ExecutionBackend, NodeSpec, PilotConfig, ResourceRequest, RuntimeConfig,
    TaskDescription,
};
use impress_sim::SimDuration;
use impress_workflow::decision::Spawn;
use impress_workflow::journal::{load_plan, Journal, JournalStore, MemoryJournal, TerminalRecord};
use impress_workflow::service::{
    CampaignHandle, CampaignService, CampaignSpec, CampaignStatus, TenantId, TenantQuota,
};
use impress_workflow::{CoordinatorView, DecisionEngine, PipelineId, PipelineLogic, Step};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Size of one round.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Campaigns submitted in the burst.
    pub campaigns: usize,
    /// Tenants, equal weight; campaign `c` belongs to tenant `c % tenants`.
    pub tenants: usize,
    /// Pipelines per campaign.
    pub pipelines: usize,
    /// Stages per pipeline, one single-core task each.
    pub stages: usize,
    /// Cluster nodes.
    pub nodes: u32,
    /// Cores per node.
    pub cores: u32,
}

impl Params {
    /// The measured setting.
    pub fn full() -> Params {
        Params {
            campaigns: 10_000,
            tenants: 25,
            pipelines: 2,
            stages: 3,
            nodes: 1_000,
            cores: 4,
        }
    }

    /// A seconds-scale setting with the same checks.
    pub fn smoke() -> Params {
        Params {
            campaigns: 200,
            tenants: 5,
            pipelines: 2,
            stages: 3,
            nodes: 20,
            cores: 4,
        }
    }
}

/// A pipeline of single-core stages with pre-generated durations; its
/// outcome is its campaign's id.
struct Stages {
    campaign: u64,
    secs: Vec<u64>,
    next: usize,
}

impl Stages {
    fn step(&mut self) -> Step<u64> {
        match self.secs.get(self.next) {
            Some(&s) => {
                self.next += 1;
                Step::run(TaskDescription::new(
                    "serve",
                    ResourceRequest::cores(1),
                    SimDuration::from_secs(s),
                ))
            }
            None => Step::Complete(self.campaign),
        }
    }
}

impl PipelineLogic<u64> for Stages {
    fn name(&self) -> String {
        format!("c{}", self.campaign)
    }

    fn begin(&mut self) -> Step<u64> {
        self.step()
    }

    fn stage_done(&mut self, _: Vec<Completion>) -> Step<u64> {
        self.step()
    }
}

/// Spawns nothing; notes which campaign last went idle, which is the
/// campaign a service step retires.
struct MarkIdle {
    campaign: u64,
    last: Rc<Cell<u64>>,
}

impl DecisionEngine<u64> for MarkIdle {
    fn on_pipeline_complete(
        &mut self,
        _: PipelineId,
        _: &u64,
        _: &CoordinatorView<'_>,
    ) -> Vec<Spawn<u64>> {
        Vec::new()
    }

    fn on_all_idle(&mut self, _: &CoordinatorView<'_>) -> Vec<Spawn<u64>> {
        self.last.set(self.campaign);
        Vec::new()
    }
}

/// The generated durations, `secs[c][p][s]`, and per-tenant core-seconds.
struct Plan {
    secs: Vec<Vec<Vec<u64>>>,
    tenant_core_s: Vec<f64>,
}

fn plan(p: &Params, seed: u64) -> Plan {
    let mut g = Gen::new(seed, 2);
    let mut tenant_core_s = vec![0.0; p.tenants];
    let secs = (0..p.campaigns)
        .map(|c| {
            (0..p.pipelines)
                .map(|_| {
                    let s: Vec<u64> = (0..p.stages).map(|_| 30 + g.below(90)).collect();
                    tenant_core_s[c % p.tenants] += s.iter().sum::<u64>() as f64;
                    s
                })
                .collect()
        })
        .collect();
    Plan {
        secs,
        tenant_core_s,
    }
}

struct Inputs<B: ExecutionBackend> {
    service: CampaignService<u64, B>,
    specs: Vec<(TenantId, CampaignSpec<u64>)>,
    journals: Vec<Option<MemoryJournal>>,
    last_idle: Rc<Cell<u64>>,
}

fn setup<B: ExecutionBackend>(
    p: &Params,
    seed: u64,
    plan: &Plan,
    backend: B,
    timed: bool,
) -> Inputs<B> {
    let mut service = CampaignService::new(backend);
    let tenants: Vec<TenantId> = (0..p.tenants)
        .map(|t| TenantId::new(format!("tenant-{t}")))
        .collect();
    for t in &tenants {
        service.register_tenant(t.clone(), TenantQuota::unmetered(p.campaigns));
    }
    let last_idle = Rc::new(Cell::new(u64::MAX));
    let mut journals = Vec::with_capacity(p.campaigns);
    let specs = (0..p.campaigns)
        .map(|c| {
            let tenant = c % p.tenants;
            let mut spec = CampaignSpec::new(format!("c{c}")).decision(Box::new(MarkIdle {
                campaign: c as u64,
                last: last_idle.clone(),
            }));
            for secs in &plan.secs[c] {
                let stages = Stages {
                    campaign: c as u64,
                    secs: secs.clone(),
                    next: 0,
                };
                spec = spec.root(if timed {
                    Box::new(TimedPipeline(Box::new(stages)))
                } else {
                    Box::new(stages)
                });
            }
            if tenant % 2 == 1 {
                let mem = MemoryJournal::new();
                let store: Box<dyn JournalStore> = if timed {
                    Box::new(TimedStore(mem.clone()))
                } else {
                    Box::new(mem.clone())
                };
                let journal =
                    Journal::new(store, "serve", seed ^ c as u64).expect("memory journal opens");
                spec = spec.journal(journal);
                journals.push(Some(mem));
            } else {
                journals.push(None);
            }
            (tenants[tenant].clone(), spec)
        })
        .collect();
    Inputs {
        service,
        specs,
        journals,
        last_idle,
    }
}

fn pilot(p: &Params, seed: u64) -> PilotConfig {
    PilotConfig {
        node: NodeSpec::new(p.cores, 0, 16),
        nodes: p.nodes,
        exec_setup_per_task: SimDuration::ZERO,
        ..PilotConfig::with_seed(seed)
    }
}

/// Submit the burst and run the service dry. Returns the handles, each
/// campaign's host seconds from submission to result, and the drive.
fn drive<B: ExecutionBackend>(inputs: &mut Inputs<B>) -> (Vec<CampaignHandle>, Vec<f64>, f64) {
    let d0 = Instant::now();
    let mut submitted = Vec::with_capacity(inputs.specs.len());
    let mut handles = Vec::with_capacity(inputs.specs.len());
    let service = &mut inputs.service;
    for (tenant, spec) in inputs.specs.drain(..) {
        submitted.push(Instant::now());
        let h = trace::timed(Layer::Service, || service.submit(&tenant, spec))
            .expect("unmetered tenants admit every campaign");
        handles.push(h);
    }
    let mut done = vec![0.0; handles.len()];
    let mut finished = service.campaigns_finished();
    loop {
        let alive = trace::timed(Layer::Service, || service.step());
        let now = service.campaigns_finished();
        if now != finished {
            finished = now;
            let c = inputs.last_idle.get() as usize;
            done[c] = submitted[c].elapsed().as_secs_f64();
        }
        if !alive {
            break;
        }
    }
    (handles, done, d0.elapsed().as_secs_f64())
}

fn check<B: ExecutionBackend>(
    out: &mut Outcome,
    p: &Params,
    plan: &Plan,
    inputs: &mut Inputs<B>,
    handles: &[CampaignHandle],
) {
    let service = &mut inputs.service;
    let mut completions = 0u64;
    for (c, h) in handles.iter().enumerate() {
        out.campaigns += 1;
        let Some(r) = service.take_result(h) else {
            out.failed_campaigns += 1;
            out.errors.push(format!("campaign {c} left no result"));
            continue;
        };
        let own = r.outcomes.len() == p.pipelines
            && r.outcomes
                .iter()
                .all(|(_, o)| *o == c as u64 && *o == h.id());
        let ok = r.status == CampaignStatus::Completed && r.aborts.is_empty() && own;
        if !ok {
            out.failed_campaigns += 1;
            out.errors.push(format!(
                "campaign {c} ended {:?} with outcomes {:?}",
                r.status, r.outcomes
            ));
        }
        completions += r.usage.completions;
    }
    let expected = (p.campaigns * p.pipelines * p.stages) as u64;
    out.tasks += expected;
    out.failed_tasks += expected.saturating_sub(completions);
    out.check(completions == expected, || {
        format!("{completions} tasks completed, {expected} expected")
    });
    let mut shares = Vec::with_capacity(p.tenants);
    for t in 0..p.tenants {
        let usage = service
            .tenant_usage(&TenantId::new(format!("tenant-{t}")))
            .unwrap_or_default();
        let want = plan.tenant_core_s[t];
        out.check(
            (usage.core_seconds - want).abs() <= 1e-9 * want.max(1.0),
            || {
                format!(
                    "tenant-{t} was delivered {} core-s, its tasks need {want}",
                    usage.core_seconds
                )
            },
        );
        shares.push(usage.core_seconds);
    }
    let j = jain(&shares);
    out.check(j >= 0.9, || format!("Jain index {j} below 0.9"));
    for (c, mem) in inputs.journals.iter().enumerate() {
        let Some(mem) = mem else { continue };
        match load_plan(mem) {
            Ok(loaded) => {
                let done = loaded
                    .plan
                    .pipelines
                    .iter()
                    .filter(|s| matches!(s.terminal, Some(TerminalRecord::Completed(_))))
                    .count();
                out.check(
                    done == p.pipelines && loaded.plan.pipelines.len() == p.pipelines,
                    || {
                        format!(
                            "campaign {c}: journal shows {done} of {} pipelines completed",
                            p.pipelines
                        )
                    },
                );
            }
            Err(e) => out
                .errors
                .push(format!("campaign {c}: journal reload failed: {e}")),
        }
    }
}

/// Run the workload for `budget`; traced runs report the per-layer set.
pub fn run(p: &Params, seed: u64, budget: Budget, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut setups, mut rates, mut p50s, mut tails, mut drives, mut traced_drives) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut tally = trace::Tally::default();
    let mut x = Extras::default();
    let began = Instant::now();
    while budget.more(began, out.rounds) {
        let (plan, mut inputs) = set_up(&mut setups, || {
            let plan = plan(p, seed);
            let inputs = setup(
                p,
                seed,
                &plan,
                RuntimeConfig::new(pilot(p, seed)).simulated(),
                false,
            );
            (plan, inputs)
        });
        let (handles, latencies, drive_s) = drive(&mut inputs);
        drives.push(drive_s);
        rates.push((p.campaigns * p.pipelines * p.stages) as f64 / drive_s);
        p50s.push(median(&latencies));
        tails.push(tail(&latencies));
        check(&mut out, p, &plan, &mut inputs, &handles);
        drop(inputs);
        if traced {
            let backend = TimedBackend::new(RuntimeConfig::new(pilot(p, seed)).simulated());
            let mut twin = setup(p, seed, &plan, backend, true);
            trace::start();
            let (handles, _, drive_s) = drive(&mut twin);
            let t = trace::stop();
            traced_drives.push(drive_s);
            tally += &t;
            let util = twin.service.utilization();
            x.retries = util.retries as f64;
            x.hedges = util.hedges as f64;
            x.wasted_core_s = util.wasted_core_seconds;
            x.hedge_wasted_core_s = util.hedge_wasted_core_seconds;
            let mut shadow = Outcome::default();
            check(&mut shadow, p, &plan, &mut twin, &handles);
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
    out.info
        .push(("campaigns_per_s", p.campaigns as f64 / median(&drives)));
    out
}
