//! `imrp-24`: the paper's adaptive IM-RP protocol on the 24 mined PDZ–peptide
//! complexes, run as several campaigns with distinct seeds through
//! `CampaignSpec::run`, each with a file-backed write-ahead journal.
//!
//! The traced run assembles the same campaign by hand from `toolkits`,
//! `ImpressDecision::new`, `DesignPipeline::root` and `Coordinator`, with a
//! timer around every seam, and checks that it gives the same outcomes and
//! run report as the untraced `CampaignSpec` run.

use crate::trace::{self, Layer, TimedBackend, TimedDecision, TimedStore};
use crate::{median, per_layer, set_up, tail, Budget, Extras, Gen, Outcome};
use impress_core::adaptive::{AdaptivePolicy, ImpressDecision};
use impress_core::experiment::{imrp_journal, toolkits};
use impress_core::protocol::{DesignOutcome, DesignPipeline};
use impress_core::spec::{CampaignRun, CampaignSpec};
use impress_core::ProtocolConfig;
use impress_pilot::{PilotConfig, RuntimeConfig};
use impress_proteins::datasets::{mined_pdz_complexes, DesignTarget};
use impress_proteins::ConfidenceReport;
use impress_workflow::journal::{load_plan, FileJournal, Journal, JournalStore, TerminalRecord};
use impress_workflow::{Coordinator, RunReport};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Size of one round.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Mined complexes per campaign.
    pub targets: usize,
    /// Campaigns per round, each with its own protocol seed.
    pub campaigns: usize,
    /// Sub-pipeline budget of the adaptive policy.
    pub sub_budget: usize,
}

impl Params {
    /// The measured setting. Forty campaigns per round put the round's
    /// latency tail (ten results beyond it) at p75, and average out how
    /// much one protocol seed's campaign costs.
    pub fn full() -> Params {
        Params {
            targets: 24,
            campaigns: 40,
            sub_budget: 8,
        }
    }

    /// A seconds-scale setting with the same checks.
    pub fn smoke() -> Params {
        Params {
            targets: 3,
            campaigns: 2,
            sub_budget: 2,
        }
    }

    fn policy(&self) -> AdaptivePolicy {
        AdaptivePolicy {
            sub_budget: self.sub_budget,
            ..AdaptivePolicy::default()
        }
    }
}

/// One round's inputs: the targets and one protocol config per campaign.
struct Inputs {
    targets: Vec<DesignTarget>,
    configs: Vec<ProtocolConfig>,
}

fn setup(p: &Params, seed: u64) -> Inputs {
    let targets = mined_pdz_complexes(seed, p.targets);
    let mut g = Gen::new(seed, 1);
    let configs = (0..p.campaigns)
        .map(|_| ProtocolConfig::imrp(g.next_u64() >> 16))
        .collect();
    Inputs { targets, configs }
}

/// Open campaign `config`'s journal at `path`. Each campaign opens its
/// journal when it is launched, inside the drive; traced campaigns journal
/// through a [`TimedStore`].
fn journal(path: &Path, config: &ProtocolConfig, timed: bool) -> Journal {
    let store: Box<dyn JournalStore> = if timed {
        Box::new(TimedStore(FileJournal::new(path)))
    } else {
        Box::new(FileJournal::new(path))
    };
    imrp_journal(store, config).expect("open the campaign journal")
}

/// What the untraced path reports for one campaign.
struct Ran {
    outcomes: Vec<DesignOutcome>,
    run: RunReport,
    evaluations: u32,
    trajectories: u32,
    drained: bool,
}

impl From<CampaignRun> for Ran {
    fn from(run: CampaignRun) -> Ran {
        Ran {
            outcomes: run.result.outcomes,
            run: run.result.run,
            evaluations: run.result.evaluations,
            trajectories: run.result.trajectories,
            drained: run.drained,
        }
    }
}

/// Majority vote of Stage 6, recomputed from the reported values: at
/// least two of pLDDT (higher), pTM (higher), inter-chain pAE (lower).
fn beats(new: &ConfidenceReport, old: &ConfidenceReport) -> bool {
    let votes = [
        new.plddt > old.plddt,
        new.ptm > old.ptm,
        new.inter_chain_pae < old.inter_chain_pae,
    ];
    votes.iter().filter(|&&v| v).count() >= 2
}

/// Check one campaign's outcomes against properties of the method.
fn check(out: &mut Outcome, who: &str, ran: &Ran, journal: &Path) {
    out.check(!ran.drained, || {
        format!("{who}: drained without a deadline")
    });
    out.check(ran.run.aborted_pipelines == 0, || {
        format!("{who}: {} pipelines aborted", ran.run.aborted_pipelines)
    });
    out.check(!ran.outcomes.is_empty(), || format!("{who}: no outcomes"));
    let by_label: HashMap<&str, &DesignOutcome> =
        ran.outcomes.iter().map(|o| (o.label.as_str(), o)).collect();
    let mut accepted = 0u32;
    let mut evaluated = 0u32;
    for o in &ran.outcomes {
        // A sub-pipeline continues its parent's lineage: its first
        // acceptance must beat the parent's last accepted report.
        let mut prev = match o.label.rfind("/sub") {
            Some(cut) => match by_label.get(&o.label[..cut]) {
                Some(parent) => parent.final_report().copied(),
                None => {
                    out.errors
                        .push(format!("{who}: {} has no finished parent", o.label));
                    None
                }
            },
            None => None,
        };
        for rec in &o.iterations {
            if let Some(before) = prev {
                out.check(beats(&rec.report, &before), || {
                    format!(
                        "{who}: {} iteration {} accepted without beating its predecessor",
                        o.label, rec.iteration
                    )
                });
            }
            out.check(rec.evaluations == rec.accepted_rank + 1, || {
                format!(
                    "{who}: {} iteration {} evaluation count",
                    o.label, rec.iteration
                )
            });
            prev = Some(rec.report);
        }
        let spent: u32 = o.iterations.iter().map(|r| r.evaluations).sum();
        out.check(spent <= o.total_evaluations, || {
            format!("{who}: {} spent more evaluations than it reports", o.label)
        });
        accepted += o.iterations.len() as u32;
        evaluated += o.total_evaluations;
    }
    let declined = evaluated - accepted.min(evaluated);
    out.check(
        ran.evaluations == accepted + declined && accepted <= evaluated,
        || {
            format!(
            "{who}: {} AF2 evaluations reported, {accepted} accepted + {declined} declined counted",
            ran.evaluations
        )
        },
    );
    out.check(ran.trajectories == accepted, || {
        format!(
            "{who}: {} trajectories reported, {accepted} counted",
            ran.trajectories
        )
    });
    let finished = ran.run.root_pipelines + ran.run.sub_pipelines;
    out.check(finished == ran.outcomes.len(), || {
        format!(
            "{who}: {finished} pipelines ran, {} outcomes",
            ran.outcomes.len()
        )
    });
    match load_plan(&FileJournal::new(journal)) {
        Ok(loaded) => {
            let mut journaled: HashMap<&str, usize> = HashMap::new();
            for p in &loaded.plan.pipelines {
                if matches!(p.terminal, Some(TerminalRecord::Completed(_))) {
                    *journaled.entry(p.name.as_str()).or_default() += 1;
                }
            }
            for o in &ran.outcomes {
                let left = journaled.entry(o.label.as_str()).or_default();
                out.check(*left > 0, || {
                    format!("{who}: journal does not name finished pipeline {}", o.label)
                });
                *left = left.saturating_sub(1);
            }
        }
        Err(e) => out
            .errors
            .push(format!("{who}: journal reload failed: {e}")),
    }
}

/// The traced campaign, assembled by hand.
fn run_traced(
    targets: &[DesignTarget],
    config: ProtocolConfig,
    policy: AdaptivePolicy,
    journal: Journal,
) -> Ran {
    // Each layer's construction is booked to that layer.
    let tks = trace::timed(Layer::Toolkit, || toolkits(targets, config.seed));
    let backend = trace::timed(Layer::Backend, || {
        TimedBackend::new(RuntimeConfig::new(PilotConfig::with_seed(config.seed)).simulated())
    });
    let decision = trace::timed(Layer::Decision, || {
        TimedDecision(ImpressDecision::new(config.clone(), policy, tks.clone()))
    });
    let mut coordinator = trace::timed(Layer::Coordinator, || {
        Coordinator::new(backend, decision).with_journal(journal)
    });
    for (i, tk) in tks.iter().enumerate() {
        let root = trace::timed(Layer::Pipeline, || {
            DesignPipeline::root(tk.clone(), config.clone(), i as u64)
        });
        coordinator.add_pipeline(trace::timed_pipeline(Box::new(root)));
    }
    while trace::timed(Layer::Coordinator, || coordinator.step()) {}
    let run = trace::timed(Layer::Coordinator, || coordinator.report());
    let outcomes: Vec<DesignOutcome> = coordinator
        .outcomes()
        .iter()
        .map(|(_, o)| o.clone())
        .collect();
    Ran {
        evaluations: outcomes.iter().map(|o| o.total_evaluations).sum(),
        trajectories: outcomes.iter().map(|o| o.iterations.len() as u32).sum(),
        drained: coordinator.drained(),
        outcomes,
        run,
    }
}

/// Run the workload for `budget`; traced runs report the per-layer set.
pub fn run(p: &Params, seed: u64, budget: Budget, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let dir = crate::work_dir(if traced { "imrp-traced" } else { "imrp" });
    let (mut setups, mut rates, mut p50s, mut tails) = (vec![], vec![], vec![], vec![]);
    let (mut drives, mut traced_drives, mut design_rates) = (vec![], vec![], vec![]);
    let mut tally = trace::Tally::default();
    let (mut designs, mut accepted, mut wasted) = (0u64, 0u64, 0.0);
    let began = Instant::now();
    while budget.more(began, out.rounds) {
        let inputs = set_up(&mut setups, || setup(p, seed));

        let mut latencies = Vec::with_capacity(p.campaigns);
        let mut results = Vec::with_capacity(p.campaigns);
        let d0 = Instant::now();
        for (i, config) in inputs.configs.iter().enumerate() {
            let c0 = Instant::now();
            let journal = journal(&dir.join(format!("c{i}.wal")), config, false);
            let run = CampaignSpec::imrp(&inputs.targets, config.clone())
                .policy(p.policy())
                .journal(journal)
                .run();
            latencies.push(c0.elapsed().as_secs_f64());
            results.push(run);
        }
        let drive = d0.elapsed().as_secs_f64();
        drives.push(drive);

        let mut tasks = 0u64;
        let mut evaluations = 0u64;
        let mut ran_all = Vec::with_capacity(p.campaigns);
        for (i, run) in results.into_iter().enumerate() {
            out.campaigns += 1;
            match run {
                Ok(run) => {
                    let ran = Ran::from(run);
                    tasks += ran.run.total_tasks as u64;
                    out.failed_tasks += ran.run.aborted_pipelines as u64;
                    evaluations += u64::from(ran.evaluations);
                    if out.rounds == 0 {
                        designs += u64::from(ran.evaluations);
                        accepted += u64::from(ran.trajectories);
                        wasted += ran.run.wasted_core_seconds + ran.run.hedge_wasted_core_seconds;
                    }
                    ran_all.push(Some(ran));
                }
                Err(e) => {
                    out.failed_campaigns += 1;
                    out.errors.push(format!("campaign {i}: {e}"));
                    ran_all.push(None);
                }
            }
        }
        out.tasks += tasks;
        rates.push(tasks as f64 / drive);
        p50s.push(median(&latencies));
        tails.push(tail(&latencies));
        design_rates.push(evaluations as f64 / drive);

        if traced {
            trace::start();
            let t0 = Instant::now();
            let mut twin_runs = Vec::with_capacity(p.campaigns);
            for (i, config) in inputs.configs.iter().enumerate() {
                let journal = journal(&dir.join(format!("t{i}.wal")), config, true);
                twin_runs.push(run_traced(
                    &inputs.targets,
                    config.clone(),
                    p.policy(),
                    journal,
                ));
            }
            traced_drives.push(t0.elapsed().as_secs_f64());
            let t = trace::stop();
            let mut inferences = 0u64;
            for (i, (twin, ran)) in twin_runs.iter().zip(&ran_all).enumerate() {
                inferences += u64::from(twin.evaluations);
                check(
                    &mut out,
                    &format!("traced campaign {i}"),
                    twin,
                    &dir.join(format!("t{i}.wal")),
                );
                if let Some(ran) = ran {
                    out.check(
                        impress_json::to_string(&twin.outcomes)
                            == impress_json::to_string(&ran.outcomes)
                            && impress_json::to_string(&twin.run)
                                == impress_json::to_string(&ran.run),
                        || format!("campaign {i}: traced run differs from the CampaignSpec run"),
                    );
                }
            }
            out.check(t.af2_inferences == inferences, || {
                format!(
                    "{} af2-inference closures ran for {inferences} AF2 evaluations",
                    t.af2_inferences
                )
            });
            tally += &t;
        }
        for (i, ran) in ran_all.iter().enumerate() {
            if let Some(ran) = ran {
                check(
                    &mut out,
                    &format!("campaign {i}"),
                    ran,
                    &dir.join(format!("c{i}.wal")),
                );
            }
        }
        out.rounds += 1;
    }
    if traced {
        let x = Extras {
            accept_ratio: accepted as f64 / designs.max(1) as f64,
            wasted_core_s: wasted,
            ..Extras::default()
        };
        per_layer(&mut out, &tally, &x, &traced_drives, &drives);
    } else {
        out.metric("setup_s", median(&setups), "s");
        out.metric("tasks_per_s", median(&rates), "1/s");
        out.metric("result_p50_s", median(&p50s), "s");
        out.metric("result_tail_s", median(&tails), "s");
        out.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    }
    out.info.push(("designs_per_s", median(&design_rates)));
    out.info
        .push(("campaigns_per_s", p.campaigns as f64 / median(&drives)));
    out
}
