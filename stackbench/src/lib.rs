//! The repository's stack benchmark: four workloads, from the surrogate
//! kernels of one IM-RP campaign to a 10,000-campaign service and a
//! million-task simulation, each timed end to end and, in a separate traced
//! run, layer by layer. See `README.md` for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.
//!
//! The benchmark drives the program only through public APIs and checks
//! every workload's outputs against computations of its own or properties
//! the method must have.

pub mod imrp;
pub mod service;
pub mod sim;
mod trace;

use std::time::Instant;

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Tasks attempted across all measured rounds.
    pub tasks: u64,
    /// Tasks that failed.
    pub failed_tasks: u64,
    /// Campaigns attempted (0 on the simulation workloads).
    pub campaigns: u64,
    /// Campaigns that failed.
    pub failed_campaigns: u64,
    /// Measured rounds.
    pub rounds: usize,
    /// Metrics: the end-to-end set untraced, the per-layer set traced.
    pub metrics: Vec<Metric>,
    /// Figures printed next to the metrics but not gated.
    pub info: Vec<(&'static str, f64)>,
    /// Every failed output check, in the order found.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record `value` under `name`.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Run length: rounds repeat until `seconds` have passed and at least
/// `min_rounds` rounds ran. Every round runs the same operations.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Rounds to run however long they take.
    pub min_rounds: usize,
}

impl Budget {
    /// Keep looping while this returns true.
    pub fn more(&self, began: Instant, rounds: usize) -> bool {
        rounds < self.min_rounds || began.elapsed().as_secs_f64() < self.seconds
    }
}

/// Set-ups timed per round; the median of all of them is `setup_s`.
pub(crate) const SETUPS_PER_ROUND: usize = 5;

/// Build a round's inputs [`SETUPS_PER_ROUND`] times, timing each build
/// into `setups`, and keep the last.
pub(crate) fn set_up<T>(setups: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
    loop {
        let t0 = Instant::now();
        let inputs = build();
        setups.push(t0.elapsed().as_secs_f64());
        if setups.len().is_multiple_of(SETUPS_PER_ROUND) {
            return inputs;
        }
    }
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNG.
#[derive(Debug, Clone)]
pub(crate) struct Gen(u64);

impl Gen {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Gen {
        let mut g = Gen(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Median of `xs` (0 for an empty slice).
pub(crate) fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value at the highest percentile with at least ten samples beyond
/// it (p99.9 of 10,000 samples); the maximum when there are fewer than
/// eleven.
pub(crate) fn tail(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n < 11 => v[n - 1],
        n => v[n - 11],
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Per-round figures that do not come from the layer clock.
#[derive(Debug, Clone, Default)]
pub(crate) struct Extras {
    /// Accepted designs ÷ AF2 evaluations (IM-RP only).
    pub accept_ratio: f64,
    /// Attempts resubmitted after a fault.
    pub retries: f64,
    /// Hedged duplicate attempts placed.
    pub hedges: f64,
    /// Core-seconds burned by failed attempts.
    pub wasted_core_s: f64,
    /// Core-seconds burned by hedge-race losers.
    pub hedge_wasted_core_s: f64,
    /// Control-plane messages routed.
    pub messages: f64,
    /// Control-plane retransmissions.
    pub retransmits: f64,
    /// Heartbeats sent.
    pub heartbeats: f64,
    /// Bytes of exported Chrome trace.
    pub export_bytes: f64,
}

/// Emit the per-layer metric set from `t`, the layer clock summed over the
/// traced drives whose seconds are `traced`, and `x`, the matching
/// per-round extras. Times and counts are means per round, so the layers
/// and `trace.unattributed_s` add up to `trace.drive_s`. `untraced` holds
/// the untraced drives of the same inputs; the overhead ratio compares
/// medians.
pub(crate) fn per_layer(
    out: &mut Outcome,
    t: &trace::Tally,
    x: &Extras,
    traced: &[f64],
    untraced: &[f64],
) {
    use trace::Layer as L;
    let r = traced.len().max(1) as f64;
    let drive = traced.iter().sum::<f64>() / r;
    let s = |l: L| t.secs(l) / r;
    let c = |l: L| t.calls(l) as f64 / r;
    let n = |v: u64| v as f64 / r;
    let useful = t.useful_core_s / r;
    let spent = useful + x.wasted_core_s + x.hedge_wasted_core_s;
    out.metric("proteins.mpnn.busy_s", s(L::Mpnn), "s");
    out.metric("proteins.mpnn.calls", c(L::Mpnn), "count");
    out.metric("proteins.alphafold.busy_s", s(L::AlphaFold), "s");
    out.metric("proteins.alphafold.calls", c(L::AlphaFold), "count");
    out.metric("core.toolkit.busy_s", s(L::Toolkit), "s");
    out.metric("core.stages.busy_s", s(L::Stages), "s");
    out.metric("core.decision.busy_s", s(L::Decision), "s");
    out.metric("core.decision.calls", c(L::Decision), "count");
    out.metric("core.decision.spawns", n(t.spawns), "count");
    out.metric("core.protocol.accept_ratio", x.accept_ratio, "ratio");
    out.metric("workflow.pipeline.busy_s", s(L::Pipeline), "s");
    out.metric("workflow.pipeline.calls", c(L::Pipeline), "count");
    out.metric("workflow.coordinator.self_s", s(L::Coordinator), "s");
    out.metric("workflow.coordinator.steps", c(L::Coordinator), "count");
    out.metric("workflow.service.self_s", s(L::Service), "s");
    out.metric("workflow.service.steps", c(L::Service), "count");
    out.metric("workflow.journal.busy_s", s(L::Journal), "s");
    out.metric("workflow.journal.appends", n(t.journal_writes), "count");
    out.metric("workflow.journal.bytes", n(t.journal_bytes), "bytes");
    out.metric("pilot.backend.self_s", s(L::Backend), "s");
    out.metric("pilot.backend.submits", n(t.submits), "count");
    out.metric("pilot.backend.completions", n(t.completions), "count");
    out.metric("pilot.work.busy_s", s(L::OtherWork), "s");
    out.metric("pilot.retries", x.retries, "count");
    out.metric("pilot.hedges", x.hedges, "count");
    out.metric(
        "pilot.useful_ratio",
        if spent > 0.0 { useful / spent } else { 0.0 },
        "ratio",
    );
    out.metric("pilot.control.messages", x.messages, "count");
    out.metric("pilot.control.retransmits", x.retransmits, "count");
    out.metric("pilot.control.heartbeats", x.heartbeats, "count");
    out.metric("telemetry.sink_s", s(L::Sink), "s");
    out.metric("telemetry.events", n(t.events), "count");
    out.metric("telemetry.export_s", s(L::Export), "s");
    out.metric("telemetry.export_bytes", x.export_bytes, "bytes");
    out.metric("trace.drive_s", drive, "s");
    out.metric(
        "trace.unattributed_s",
        (drive - t.attributed_secs() / r).max(0.0),
        "s",
    );
    let base = median(untraced);
    out.metric(
        "trace.overhead_ratio",
        if base > 0.0 {
            median(traced) / base
        } else {
            0.0
        },
        "ratio",
    );
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`.
pub(crate) fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Scratch directory for journal files, inside the package directory.
pub(crate) fn work_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&xs), 9_989.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(tail(&[1.0, 5.0]), 5.0);
    }

    #[test]
    fn jain_is_one_for_equal_shares() {
        assert!((jain(&[2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }
}
