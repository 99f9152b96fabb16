//! One launch path: journal + stored spec → lanes, target and driver
//! call.
//!
//! A result tree describes itself. The first record of its journal —
//! `CampaignStarted` or `DagStarted` — names the kind of tree and the
//! identity it ran under (seed, testbed and, for a DAG, the execution
//! target), and the tree stores the specs it ran. [`Tree::open`] reads
//! that identity and [`Tree::resume`] rebuilds the lanes and the target
//! from it and hands the tree to its driver. `pos resume`, `pos dag
//! resume` and the `pos serve` daemon all resume through here.

use crate::{resume_dag, DagError, DagOptions, DagOutcome, DagSpec, ExecutionTarget};
use crate::{InProcessTarget, SimBatchTarget};
use pos_core::commands::{case_study_lanes, case_study_testbed};
use pos_core::controller::{Controller, Progress, RunOptions};
use pos_core::experiment::ExperimentSpec;
use pos_core::journal::{Journal, JournalRecord, JOURNAL_FILE};
use pos_sched::{resume_campaign, LaneFlavor, ParallelOutcome};
use std::path::{Path, PathBuf};

/// The execution target a `--target` label names (`in-process` or
/// `inprocess`, `sim-batch` or `batch`), running every lane from
/// `seed`; `None` for any other label. `site_replicas` bounds the
/// in-process target's replica sets, `partition` the lanes the batch
/// target grants a job.
pub fn target(
    label: &str,
    seed: u64,
    site_replicas: usize,
    partition: usize,
) -> Option<Box<dyn ExecutionTarget>> {
    match label {
        "in-process" | "inprocess" => Some(Box::new(InProcessTarget::new(seed, site_replicas))),
        "sim-batch" | "batch" => Some(Box::new(SimBatchTarget::new(seed, partition))),
        _ => None,
    }
}

/// The canonical name of the target a label names.
fn target_name(label: &str) -> Result<&'static str, DagError> {
    target(label, 0, 1, 1)
        .map(|t| t.name())
        .ok_or_else(|| unknown_target(label))
}

fn unknown_target(label: &str) -> DagError {
    refused(format!(
        "unknown execution target `{label}` (expected in-process or sim-batch)"
    ))
}

/// Whether a testbed label names the virtualized testbed.
fn virtualized(testbed: &str) -> Result<bool, DagError> {
    LaneFlavor::parse(testbed)
        .map(|f| f == LaneFlavor::Virtual)
        .ok_or_else(|| {
            refused(format!(
                "unknown testbed `{testbed}` (expected pos or vpos)"
            ))
        })
}

fn refused(reason: String) -> DagError {
    DagError::Resume { reason }
}

/// Which driver a tree belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// A campaign tree (`CampaignStarted`).
    Campaign {
        /// Runs the campaign planned.
        total_runs: usize,
    },
    /// A DAG tree (`DagStarted`).
    Dag {
        /// The execution target it ran on.
        target: &'static str,
    },
}

/// A result tree and the identity its journal records.
#[derive(Debug, Clone)]
pub struct Tree {
    /// The tree's root directory.
    pub dir: PathBuf,
    /// Campaign or DAG.
    pub kind: Kind,
    /// Testbed root seed.
    pub seed: u64,
    /// Testbed label, `pos` or `vpos`.
    pub testbed: String,
    /// True once the journal seals the tree (`CampaignFinished` or
    /// `DagFinished`).
    pub finished: bool,
}

impl Tree {
    /// Reads the identity of the tree at `dir` from its journal.
    ///
    /// `flag` looks up a `--seed`, `--testbed` or `--target` the caller
    /// repeated; each one given must equal the journal's value, or the
    /// resume is refused. Only a DAG that died before `DagStarted` was
    /// durable has no recorded identity: nothing of it ran, so the flags
    /// (or their defaults) name the identity it restarts under.
    pub fn open<'f>(dir: &Path, flag: impl Fn(&str) -> Option<&'f str>) -> Result<Tree, DagError> {
        let replay = Journal::replay(&dir.join(JOURNAL_FILE))?;
        let (kind, seed, testbed, finished) = match replay.records.first() {
            Some(JournalRecord::CampaignStarted {
                seed,
                total_runs,
                testbed,
                ..
            }) => (
                Kind::Campaign {
                    total_runs: *total_runs,
                },
                *seed,
                testbed.clone(),
                replay.finished(),
            ),
            Some(JournalRecord::DagStarted {
                seed,
                testbed,
                target,
                ..
            }) => (
                Kind::Dag {
                    target: target_name(target)?,
                },
                *seed,
                testbed.clone(),
                replay.dag_finished(),
            ),
            None if DagSpec::present_in(dir) => {
                let seed = match flag("seed") {
                    Some(s) => s.parse().map_err(|_| refused(format!("bad --seed {s}")))?,
                    None => 0x707,
                };
                let target = target_name(flag("target").unwrap_or("in-process"))?;
                let testbed = flag("testbed").unwrap_or("pos").to_string();
                (Kind::Dag { target }, seed, testbed, false)
            }
            _ => {
                return Err(refused(format!(
                    "{}: journal has no CampaignStarted or DagStarted record",
                    dir.display()
                )))
            }
        };
        virtualized(&testbed)?;
        let tree = Tree {
            dir: dir.to_path_buf(),
            kind,
            seed,
            testbed,
            finished,
        };
        tree.check_flags(flag)?;
        Ok(tree)
    }

    /// Refuses a repeated flag that differs from the recorded identity.
    fn check_flags<'f>(&self, flag: impl Fn(&str) -> Option<&'f str>) -> Result<(), DagError> {
        let noun = match self.kind {
            Kind::Campaign { .. } => "campaign",
            Kind::Dag { .. } => "DAG",
        };
        let mismatch = |name: &str, ran: String, value: &str| {
            Err(refused(format!(
                "{noun} ran on {ran}; drop --{name} or pass --{name} {value}"
            )))
        };
        if let Some(s) = flag("seed") {
            if s.parse::<u64>().ok() != Some(self.seed) {
                return mismatch(
                    "seed",
                    format!("seed {}", self.seed),
                    &self.seed.to_string(),
                );
            }
        }
        if let Some(t) = flag("testbed") {
            if t != self.testbed {
                let ran = format!("the `{}` testbed", self.testbed);
                return mismatch("testbed", ran, &self.testbed);
            }
        }
        if let Some(label) = flag("target") {
            let Kind::Dag { target: recorded } = &self.kind else {
                return Err(refused(
                    "a campaign has no execution target; drop --target".into(),
                ));
            };
            if target_name(label)? != *recorded {
                return mismatch("target", format!("the `{recorded}` target"), recorded);
            }
        }
        Ok(())
    }

    /// Completes the tree through its driver, on the recorded identity.
    ///
    /// A campaign resumes on its journaled lane plan, from its stored
    /// spec, with lane 0 reporting to `progress`. A DAG resumes on the
    /// journaled target with `lanes` lanes per scatter group;
    /// `site_replicas` and `partition` size that target, since the
    /// journal does not record them.
    pub fn resume(
        &self,
        opts: &RunOptions,
        lanes: usize,
        site_replicas: usize,
        partition: usize,
        progress: impl FnMut(&Progress) + 'static,
    ) -> Result<Launched, DagError> {
        let mut opts = opts.clone();
        opts.testbed_flavor = self.testbed.clone();
        match &self.kind {
            Kind::Campaign { .. } => {
                let spec = ExperimentSpec::from_dir(&self.dir.join("experiment"))
                    .map_err(|e| refused(format!("stored experiment unloadable: {e}")))?;
                let tb = case_study_testbed(&spec, self.seed, virtualized(&self.testbed)?, true)?;
                let mut lane0 = Controller::owning(tb).with_progress(progress);
                let mut make_lane = case_study_lanes(&spec, self.seed);
                let out = resume_campaign(&mut lane0, &self.dir, &spec, &opts, &mut make_lane)?;
                Ok(Launched::Campaign(out))
            }
            Kind::Dag { target: label } => {
                let mut target = target(label, self.seed, site_replicas, partition)
                    .ok_or_else(|| unknown_target(label))?;
                let dopts = DagOptions::new(lanes, self.seed);
                resume_dag(&self.dir, &opts, &dopts, target.as_mut()).map(Launched::Dag)
            }
        }
    }
}

/// What a launch produced.
#[derive(Debug)]
pub enum Launched {
    /// A campaign's outcome.
    Campaign(ParallelOutcome),
    /// A DAG's outcome.
    Dag(DagOutcome),
}

impl Launched {
    /// The root of the result tree.
    pub fn result_dir(&self) -> &Path {
        match self {
            Launched::Campaign(out) => &out.outcome.result_dir,
            Launched::Dag(out) => &out.dag_dir,
        }
    }

    /// True when the tree completed with failed or quarantined runs.
    pub fn is_degraded(&self) -> bool {
        match self {
            Launched::Campaign(out) => {
                !out.outcome.failed_runs.is_empty() || !out.outcome.quarantined_runs.is_empty()
            }
            Launched::Dag(out) => out.failed_runs > 0,
        }
    }
}
