//! Host-time attribution from outside the program.
//!
//! Every seam the benchmark can reach through a public API is wrapped in a
//! type that times its calls with [`timed`]: [`TimedBackend`] around an
//! [`ExecutionBackend`] (and, through it, each task's work closure, keyed
//! by task name), [`TimedPipeline`], [`TimedDecision`], [`TimedStore`] and
//! [`TimedSink`]. `Coordinator::step` and `CampaignService::submit`/`step`
//! are wrapped where the workload drives them.
//!
//! A layer's *self* time is the time spent inside its calls minus the time
//! of the wrapped calls nested inside them, so the self times of all
//! layers plus the unattributed remainder add up to the traced drive.
//! Timers live in one thread-local clock; every workload is
//! single-threaded, and the simulated engines run work closures on the
//! driving thread. The untraced runs install no wrapper types; the few
//! [`timed`] calls in the drive loops cost one thread-local check there.

use impress_pilot::control::ControlStats;
use impress_pilot::task::TaskWork;
use impress_pilot::{
    Completion, ExecutionBackend, PhaseBreakdown, TaskDescription, TaskId, UtilizationReport,
};
use impress_sim::SimTime;
use impress_telemetry::{Stamp, Telemetry, TelemetryEvent, TelemetrySink};
use impress_workflow::decision::Spawn;
use impress_workflow::journal::{JournalError, JournalStore};
use impress_workflow::{
    BoxedPipeline, CoordinatorView, DecisionEngine, PipelineId, PipelineLogic, Step,
};
use std::cell::RefCell;
use std::time::Instant;

/// The layers host time is attributed to, named after the modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `mpnn-generate` work closures (the ProteinMPNN surrogate).
    Mpnn,
    /// `af2-msa` and `af2-inference` work closures (the AlphaFold surrogate).
    AlphaFold,
    /// `select-compile` and `assess` work closures (core stages).
    Stages,
    /// Work closures of any other task name.
    OtherWork,
    /// `DecisionEngine` callbacks.
    Decision,
    /// `PipelineLogic` calls.
    Pipeline,
    /// `Coordinator::step`, minus everything nested.
    Coordinator,
    /// `CampaignService::submit` and `step`, minus everything nested:
    /// coordinator routing and the cluster lease pump included.
    Service,
    /// `JournalStore` calls.
    Journal,
    /// `ExecutionBackend` calls minus task work: scheduler, engine, event
    /// queue, fault and control model.
    Backend,
    /// `TelemetrySink::record`.
    Sink,
    /// Chrome-trace export at the end of a telemetry run.
    Export,
    /// Toolkit construction for the IM-RP targets (landscapes and MSA
    /// databases), which `CampaignSpec::run` performs before its first
    /// submission.
    Toolkit,
}

const LAYERS: usize = 13;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }

    /// The layer a task's work closure belongs to, by task name.
    pub fn of_task(name: &str) -> Layer {
        match name {
            "mpnn-generate" => Layer::Mpnn,
            "af2-msa" | "af2-inference" => Layer::AlphaFold,
            "select-compile" | "assess" => Layer::Stages,
            _ => Layer::OtherWork,
        }
    }
}

/// What one traced stretch recorded: self nanoseconds and calls per layer,
/// plus the counters the wrappers keep.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Self time per layer, nanoseconds.
    pub self_ns: [u64; LAYERS],
    /// Calls per layer.
    pub calls: [u64; LAYERS],
    /// `af2-inference` closures run (one per AF2 evaluation).
    pub af2_inferences: u64,
    /// Sub-pipelines the decision engine spawned.
    pub spawns: u64,
    /// Backend submissions.
    pub submits: u64,
    /// Completions the backend delivered.
    pub completions: u64,
    /// Core-seconds of successful completions (slot occupancy).
    pub useful_core_s: f64,
    /// Journal store writes (appends, block appends, rewrites).
    pub journal_writes: u64,
    /// Bytes handed to the journal store.
    pub journal_bytes: u64,
    /// Telemetry events recorded.
    pub events: u64,
}

impl Tally {
    /// Self seconds of `layer`.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 * 1e-9
    }

    /// Calls of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Seconds claimed by all layers together.
    pub fn attributed_secs(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

impl std::ops::AddAssign<&Tally> for Tally {
    fn add_assign(&mut self, t: &Tally) {
        for i in 0..LAYERS {
            self.self_ns[i] += t.self_ns[i];
            self.calls[i] += t.calls[i];
        }
        self.af2_inferences += t.af2_inferences;
        self.spawns += t.spawns;
        self.submits += t.submits;
        self.completions += t.completions;
        self.useful_core_s += t.useful_core_s;
        self.journal_writes += t.journal_writes;
        self.journal_bytes += t.journal_bytes;
        self.events += t.events;
    }
}

#[derive(Default)]
struct Clock {
    on: bool,
    /// One entry per open wrapped call: nanoseconds of its wrapped children.
    stack: Vec<u64>,
    tally: Tally,
}

thread_local! {
    static CLOCK: RefCell<Clock> = RefCell::new(Clock::default());
}

/// Reset the clock and start attributing.
pub fn start() {
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        assert!(c.stack.is_empty(), "trace restarted inside a timed call");
        *c = Clock {
            on: true,
            ..Clock::default()
        };
    });
}

/// Stop attributing and return what was recorded since [`start`].
pub fn stop() -> Tally {
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        c.on = false;
        std::mem::take(&mut c.tally)
    })
}

/// Add to the clock's counters (a no-op while the clock is off).
pub fn count(f: impl FnOnce(&mut Tally)) {
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        if c.on {
            f(&mut c.tally);
        }
    });
}

/// Run `f` as one call of `layer`, booking its self time.
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    // The clock's own bookkeeping falls inside the measured window, so it
    // is booked to the layer rather than left unattributed.
    let begin = Instant::now();
    let on = CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        if c.on {
            c.stack.push(0);
        }
        c.on
    });
    if !on {
        return f();
    }
    let out = f();
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        let children = c.stack.pop().expect("timed call has a frame");
        let total = begin.elapsed().as_nanos() as u64;
        c.tally.self_ns[layer.index()] += total.saturating_sub(children);
        c.tally.calls[layer.index()] += 1;
        if let Some(parent) = c.stack.last_mut() {
            *parent += total;
        }
    });
    out
}

/// An [`ExecutionBackend`] whose calls are timed as [`Layer::Backend`] and
/// whose tasks' work closures are timed by task name.
pub struct TimedBackend<B> {
    inner: B,
    /// Cores of each submitted task, by backend task id.
    cores: Vec<u32>,
}

impl<B: ExecutionBackend> TimedBackend<B> {
    /// Wrap `inner`.
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            cores: Vec::new(),
        }
    }

    fn delivered(&mut self, c: Option<Completion>) -> Option<Completion> {
        if let Some(c) = &c {
            let cores = self.cores.get(c.task.0 as usize).copied().unwrap_or(0);
            let ok = c.result.is_ok();
            let span = (c.finished - c.started).as_secs_f64();
            count(|t| {
                t.completions += 1;
                if ok {
                    t.useful_core_s += span * f64::from(cores);
                }
            });
        }
        c
    }
}

fn timed_work(name: &str, work: TaskWork) -> TaskWork {
    let layer = Layer::of_task(name);
    let inference = name == "af2-inference";
    Box::new(move || {
        if inference {
            count(|t| t.af2_inferences += 1);
        }
        timed(layer, work)
    })
}

impl<B: ExecutionBackend> ExecutionBackend for TimedBackend<B> {
    fn submit(&mut self, mut desc: TaskDescription) -> TaskId {
        if let Some(work) = desc.work.take() {
            desc.work = Some(timed_work(&desc.name, work));
        }
        let cores = desc.request.cores;
        timed(Layer::Backend, || {
            let id = self.inner.submit(desc);
            let at = id.0 as usize;
            if self.cores.len() <= at {
                self.cores.resize(at + 1, 0);
            }
            self.cores[at] = cores;
            count(|t| t.submits += 1);
            id
        })
    }

    fn next_completion(&mut self) -> Option<Completion> {
        timed(Layer::Backend, || {
            let c = self.inner.next_completion();
            self.delivered(c)
        })
    }

    fn poll_completion(&mut self) -> Option<Completion> {
        timed(Layer::Backend, || {
            let c = self.inner.poll_completion();
            self.delivered(c)
        })
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn utilization(&self) -> UtilizationReport {
        self.inner.utilization()
    }

    fn phase_breakdown(&self) -> PhaseBreakdown {
        self.inner.phase_breakdown()
    }

    fn cancel(&mut self, id: TaskId) -> bool {
        timed(Layer::Backend, || self.inner.cancel(id))
    }

    fn preempt(&mut self, id: TaskId) -> bool {
        timed(Layer::Backend, || self.inner.preempt(id))
    }

    fn held_tasks(&self) -> usize {
        self.inner.held_tasks()
    }

    fn telemetry(&self) -> &Telemetry {
        self.inner.telemetry()
    }

    fn virtual_now(&self) -> SimTime {
        self.inner.virtual_now()
    }

    fn stamp(&self) -> Stamp {
        self.inner.stamp()
    }

    fn control_stats(&self) -> ControlStats {
        self.inner.control_stats()
    }
}

/// A [`PipelineLogic`] whose calls are timed as [`Layer::Pipeline`].
pub struct TimedPipeline<O>(pub BoxedPipeline<O>);

impl<O> PipelineLogic<O> for TimedPipeline<O> {
    fn name(&self) -> String {
        timed(Layer::Pipeline, || self.0.name())
    }

    fn begin(&mut self) -> Step<O> {
        timed(Layer::Pipeline, || self.0.begin())
    }

    fn stage_done(&mut self, completions: Vec<Completion>) -> Step<O> {
        timed(Layer::Pipeline, || self.0.stage_done(completions))
    }
}

/// Box `pipeline` behind a [`TimedPipeline`].
pub fn timed_pipeline<O: 'static>(pipeline: BoxedPipeline<O>) -> BoxedPipeline<O> {
    Box::new(TimedPipeline(pipeline))
}

/// A [`DecisionEngine`] whose callbacks are timed as [`Layer::Decision`];
/// the pipelines it spawns are wrapped in [`TimedPipeline`] too.
pub struct TimedDecision<D>(pub D);

fn wrap_spawns<O: 'static>(spawns: Vec<Spawn<O>>) -> Vec<Spawn<O>> {
    let n = spawns.len() as u64;
    count(|t| t.spawns += n);
    spawns
        .into_iter()
        .map(|s| Spawn {
            parent: s.parent,
            pipeline: timed_pipeline(s.pipeline),
        })
        .collect()
}

impl<O: 'static, D: DecisionEngine<O>> DecisionEngine<O> for TimedDecision<D> {
    fn on_pipeline_complete(
        &mut self,
        id: PipelineId,
        outcome: &O,
        view: &CoordinatorView<'_>,
    ) -> Vec<Spawn<O>> {
        wrap_spawns(timed(Layer::Decision, || {
            self.0.on_pipeline_complete(id, outcome, view)
        }))
    }

    fn on_pipeline_aborted(
        &mut self,
        id: PipelineId,
        reason: &str,
        view: &CoordinatorView<'_>,
    ) -> Vec<Spawn<O>> {
        wrap_spawns(timed(Layer::Decision, || {
            self.0.on_pipeline_aborted(id, reason, view)
        }))
    }

    fn on_all_idle(&mut self, view: &CoordinatorView<'_>) -> Vec<Spawn<O>> {
        wrap_spawns(timed(Layer::Decision, || self.0.on_all_idle(view)))
    }

    fn on_task_poisoned(
        &mut self,
        id: PipelineId,
        task: u64,
        distinct_nodes: u32,
        view: &CoordinatorView<'_>,
    ) -> Vec<Spawn<O>> {
        wrap_spawns(timed(Layer::Decision, || {
            self.0.on_task_poisoned(id, task, distinct_nodes, view)
        }))
    }
}

/// A [`JournalStore`] whose calls are timed as [`Layer::Journal`].
pub struct TimedStore<S>(pub S);

impl<S: JournalStore> TimedStore<S> {
    fn wrote(&self, bytes: usize) {
        count(|t| {
            t.journal_writes += 1;
            t.journal_bytes += bytes as u64;
        });
    }
}

impl<S: JournalStore> JournalStore for TimedStore<S> {
    fn append(&self, line: &str) -> Result<(), JournalError> {
        self.wrote(line.len() + 1);
        timed(Layer::Journal, || self.0.append(line))
    }

    fn append_block(&self, block: &str) -> Result<(), JournalError> {
        self.wrote(block.len());
        timed(Layer::Journal, || self.0.append_block(block))
    }

    fn lines(&self) -> Result<Vec<String>, JournalError> {
        timed(Layer::Journal, || self.0.lines())
    }

    fn read_all(&self) -> Result<String, JournalError> {
        timed(Layer::Journal, || self.0.read_all())
    }

    fn rewrite(&self, lines: &[String]) -> Result<(), JournalError> {
        self.wrote(lines.iter().map(|l| l.len() + 1).sum());
        timed(Layer::Journal, || self.0.rewrite(lines))
    }
}

/// A [`TelemetrySink`] whose `record` calls are timed as [`Layer::Sink`].
pub struct TimedSink<S>(pub S);

impl<S: TelemetrySink> TelemetrySink for TimedSink<S> {
    fn is_enabled(&self) -> bool {
        self.0.is_enabled()
    }

    fn record(&self, event: TelemetryEvent) {
        count(|t| t.events += 1);
        timed(Layer::Sink, || self.0.record(event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_time_excludes_nested_calls() {
        start();
        let outer = Instant::now();
        timed(Layer::Service, || {
            spin(4);
            timed(Layer::Backend, || spin(6));
        });
        let total = outer.elapsed().as_secs_f64();
        let t = stop();
        let (service, backend) = (t.secs(Layer::Service), t.secs(Layer::Backend));
        assert!(backend >= 0.006 && service >= 0.004);
        // Counting the nested call in the parent too would overshoot the
        // wall time by the nested call's 6 ms.
        assert!(
            service + backend <= total + 0.001,
            "nested time leaked into the parent"
        );
        assert_eq!(t.calls(Layer::Service), 1);
        assert_eq!(t.calls(Layer::Backend), 1);
    }

    #[test]
    fn clock_off_records_nothing() {
        let _ = stop();
        timed(Layer::Journal, || spin(1));
        count(|t| t.events += 1);
        start();
        let t = stop();
        assert_eq!(t.calls(Layer::Journal), 0);
        assert_eq!(t.events, 0);
    }
}
