//! The campaign driver.
//!
//! A campaign's expanded cross product is dispatched over `N` *worker
//! lanes* — the caller's controller as lane 0 plus same-seed replica
//! testbeds, each running the full setup phase — using the greedy
//! list-scheduling discipline of [`pos_simkernel::LaneSet`]: the next run
//! always goes to the lane that frees up earliest. Because that choice
//! depends only on the schedule so far, the whole dispatch is a pure
//! function of (spec, seed, lane count, fault plan). One lane is the
//! paper's controller: [`Controller::run_experiment`] and
//! [`Controller::resume_experiment`] are one-lane calls of this driver.
//!
//! # The determinism argument
//!
//! Measurement artifacts in this reproduction depend on exactly two
//! inputs: the campaign seed and the *virtual instant* a run starts (the
//! packet simulators derive their streams from
//! `seed ⊕ label ⊕ start_ns`). The driver therefore executes runs in
//! strict cross-product order and, before dispatching run *i* to its
//! lane, pins that lane's clock to the run's **canonical start** — the
//! instant run *i* begins in a one-lane execution (run 0 starts at lane
//! 0's setup end; run *i* starts where run *i−1* canonically finished).
//! Each lane is a same-seed replica, so every byte a run writes is
//! identical to what one lane would have written, for *any* lane count.
//! Parallelism lives purely in the [`pos_simkernel::LaneSet`] occupancy
//! model, whose makespan yields the reported (virtual) speedup; wall-clock
//! overlap comes from the [`crate::measure`] pool at any lane count.
//!
//! Lane 0 keeps the default `"testbed"` management-RNG stream; lanes
//! `k > 0` re-derive theirs under `"testbed/lane{k}"` so replica boot
//! timings are independent draws of the same distribution.
//!
//! Dispatch runs under the [`super::supervisor::LaneSupervisor`]: lanes
//! can die (watchdog overrun, injected fault, every host quarantined) and
//! are then retired, their work redistributed or handed to a replacement
//! lane, with poison runs quarantined — all without perturbing the
//! canonical timeline (see [`super::supervisor`] for the argument).
//!
//! # The journal
//!
//! Every record goes to the result tree's one `journal.log`, write-ahead:
//! `CampaignStarted`, `LanePlan` and `SupervisorPlan`; per run, in run
//! order, `RunStarted`, any `HostQuarantined` and `RunCompleted`; failover
//! records (`LaneRetired`, `RunRetry`, `RunQuarantined`, `LaneReplanned`)
//! between runs; `CampaignFinished` last. Runs commit on one thread in
//! run order whichever lane ran them, so the journal needs no merge.
//! [`resume_campaign`] replays it — failover records included, so a
//! resume lands mid-failover with the same retired lanes, ladder
//! positions, and replacement lanes — re-verifies every journaled run
//! against its digest, fast-forwards the lanes past the verified ones,
//! and re-executes only what fails, at the same canonical starts. The
//! repaired tree is byte-identical to an uninterrupted execution (the
//! journal excepted: it *is* the record of the interruption).

use super::plan::{plan_lanes, site_host_sets, LaneFlavor};
use super::supervisor::{
    replica, FailoverState, Lane, LaneSupervisor, SupervisorOptions, VerifiedRun,
};
use crate::controller::{Controller, ControllerError, ExperimentOutcome, RunOptions};
use crate::experiment::ExperimentSpec;
use crate::journal::{Journal, JournalRecord, JOURNAL_FILE};
use crate::resultstore::ResultStore;
use pos_simkernel::{SimDuration, SimTime};
use pos_testbed::{Calendar, ReservationId, Testbed};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Builds lane `k`'s replica testbed: the same hosts, wiring, images, and
/// **root seed** as lane 0, on the campaign's testbed — the
/// [`LaneFlavor`] the driver passes is always the one
/// [`RunOptions::testbed_flavor`] names. The driver re-derives the
/// replica's management RNG stream itself. [`run_campaign`] calls it for
/// lanes `k ≥ 1` — lane 0 is the caller's controller — and again
/// mid-campaign for replacement lanes; [`run_parallel`] for lane 0 too.
pub type MakeLane<'m> = dyn FnMut(usize, LaneFlavor) -> Result<Testbed, ControllerError> + 'm;

/// How to parallelize one campaign.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Worker lanes (≥ 1). One lane is exactly the controller.
    pub lanes: usize,
    /// Replica host sets the site owns (including the primary set). A
    /// campaign plans at most this many lanes, replacements included.
    pub site_replicas: usize,
    /// Lane supervision: watchdog, retry ladder, quarantine, recovery
    /// policy. Journaled so a resume replays the same failover.
    pub supervisor: SupervisorOptions,
}

impl ParallelOptions {
    /// `lanes` lanes, each backed by its own replica set, with default
    /// supervision.
    pub fn new(lanes: usize) -> ParallelOptions {
        ParallelOptions {
            lanes,
            site_replicas: lanes,
            supervisor: SupervisorOptions::default(),
        }
    }
}

/// The `SupervisorPlan` journal payload: everything a resume needs to
/// replay failover decisions without any CLI flags.
#[derive(Debug, Serialize, Deserialize)]
struct SupervisorPlanConfig {
    /// Replica sets the site owns (no replacement lane is planned
    /// beyond them).
    site_replicas: usize,
    /// The supervision options proper.
    options: SupervisorOptions,
}

/// What a campaign execution produced, beyond the canonical
/// [`ExperimentOutcome`].
#[derive(Debug)]
pub struct ParallelOutcome {
    /// The canonical outcome — identical in content for every lane
    /// count of the same seed (and fault plan).
    pub outcome: ExperimentOutcome,
    /// Number of worker lanes, replacement lanes included.
    pub lanes: usize,
    /// Run indices executed (or verified-skipped) per lane.
    pub lane_runs: Vec<Vec<usize>>,
    /// Virtual time of the canonical (one-lane) timeline: campaign start
    /// to last run's canonical finish.
    pub sequential_elapsed: SimDuration,
    /// Virtual time of the modeled parallel timeline: campaign start to
    /// the last lane's makespan end.
    pub parallel_elapsed: SimDuration,
    /// Wall-clock seconds the final merge step took (trace render,
    /// controller.log write, journal finalization).
    pub merge_wall_secs: f64,
    /// Lanes the supervisor retired this session, with reasons.
    pub retired_lanes: Vec<(usize, String)>,
    /// Replacement lanes replanned over the campaign's whole life.
    pub replanned_lanes: usize,
    /// Virtual time spent failing over: retry-ladder delays plus
    /// replacement-lane setup. Charged to lane occupancy, never to the
    /// canonical timeline.
    pub failover_time: SimDuration,
    /// Retry-ladder steps taken this session.
    pub ladder_retries: u32,
}

impl ParallelOutcome {
    /// Virtual-time speedup over a one-lane execution.
    pub fn speedup(&self) -> f64 {
        let par = self.parallel_elapsed.as_nanos();
        if par == 0 {
            return 1.0;
        }
        self.sequential_elapsed.as_nanos() as f64 / par as f64
    }
}

/// The flavor of every lane: the campaign's own testbed.
pub(crate) fn campaign_flavor(opts: &RunOptions) -> Result<LaneFlavor, ControllerError> {
    LaneFlavor::parse(&opts.testbed_flavor).ok_or_else(|| ControllerError::Topology {
        reason: format!(
            "unknown testbed `{}` (expected pos or vpos)",
            opts.testbed_flavor
        ),
    })
}

/// The campaign's private site calendar over `replicas` replica sets,
/// with up to `lanes` lanes planned on it.
fn plan_site(
    spec: &ExperimentSpec,
    lanes: usize,
    replicas: usize,
) -> Result<(Calendar, Vec<ReservationId>), ControllerError> {
    let mut site = Calendar::new();
    let sets = site_host_sets(&spec.hosts(), replicas);
    let reservations = plan_lanes(
        &mut site,
        &spec.user,
        &sets,
        lanes,
        SimTime::ZERO,
        SimDuration::from_secs(spec.planned_duration_secs),
    )
    .map_err(ControllerError::Allocation)?;
    Ok((site, reservations))
}

/// Runs a complete campaign on `popts.lanes` worker lanes: `lane0` —
/// the caller's controller, with its testbed, chaos plan and progress
/// callback — plus replicas from `make_lane`. Setup phase, every
/// measurement run, and wrap-up; the result tree is left on disk for the
/// evaluation and publication phases.
///
/// Every lifecycle transition is journaled write-ahead into the result
/// tree's `journal.log`; [`resume_campaign`] picks an interrupted
/// campaign up. Lane 0's progress callback sees its own lifecycle events
/// plus one `RunDone` per run, in run order, whichever lane ran it.
/// Construction failures are typed errors and abort the campaign before
/// any state is touched (fresh run) or at the replanning boundary
/// (replacement lane).
pub fn run_campaign(
    lane0: &mut Controller<'_>,
    spec: &ExperimentSpec,
    opts: &RunOptions,
    popts: &ParallelOptions,
    make_lane: &mut MakeLane<'_>,
) -> Result<ParallelOutcome, ControllerError> {
    assert!(popts.lanes >= 1, "a campaign needs at least one lane");
    let (spec, runs) = lane0.prepare_campaign(spec, opts)?;

    // One lane per replica set the site calendar grants, as an atomic
    // batch; all of them run the campaign's testbed.
    let (site, reservations) = plan_site(&spec, popts.lanes, popts.site_replicas)?;
    let lanes = build_lanes(lane0, reservations.len(), opts, make_lane)?;

    let started = lanes[0].testbed().now();
    let store = ResultStore::create(&opts.result_root, &spec.user, &spec.name, started)?
        .with_vfs(opts.vfs.clone());
    let mut journal = Journal::create_with(store.dir().join(JOURNAL_FILE), opts.vfs.clone())?;
    journal.arm_crash(opts.journal_crash_after, opts.journal_torn_write);
    journal.append(&JournalRecord::CampaignStarted {
        seed: lanes[0].testbed().seed(),
        spec_digest: spec.digest(),
        total_runs: runs.len(),
        testbed: opts.testbed_flavor.clone(),
        started_ns: started.as_nanos(),
    })?;
    let plan = [
        JournalRecord::LanePlan {
            lanes: lanes.len(),
            flavors: vec![opts.testbed_flavor.clone(); lanes.len()],
        },
        JournalRecord::SupervisorPlan {
            config: serde_json::to_string(&SupervisorPlanConfig {
                site_replicas: popts.site_replicas,
                options: popts.supervisor.clone(),
            })
            .expect("supervisor options serialize"),
        },
    ];

    LaneSupervisor::new(
        &spec,
        opts,
        popts.supervisor.clone(),
        popts.site_replicas,
        runs.len(),
        store,
        journal,
        &plan,
        make_lane,
        lanes,
        site,
        reservations,
        FailoverState::default(),
    )?
    .run(&runs, &BTreeMap::new())
}

/// Resumes an interrupted campaign from its result tree, with `lane0` as
/// lane 0 and replicas from `make_lane`.
///
/// The journal is replayed (a torn tail from a crash mid-append is
/// tolerated; corruption is not) and the campaign's identity checked —
/// same testbed flavor and seed, same spec digest, same cross-product
/// size. Its lane plan, supervisor plan and failover history (retired
/// lanes, retry ladders, quarantines, replacement lanes) are replayed,
/// every journaled-complete run is verified on disk against its recorded
/// digest, and only the runs that fail verification are re-executed,
/// each at its canonical start. A resume that lands mid-failover
/// finishes the failover.
///
/// Determinism contract: resuming on fresh testbeds with the original
/// seed replays the setup phase identically, fast-forwards each lane's
/// virtual clock and management RNG stream over the verified runs it
/// lands (discarding chaos events the original session already
/// consumed), and therefore produces a result tree byte-identical to an
/// uninterrupted execution.
///
/// `spec` should be the stored effective spec, e.g. loaded via
/// [`ExperimentSpec::from_dir`] from `<result-dir>/experiment/`.
pub fn resume_campaign(
    lane0: &mut Controller<'_>,
    result_dir: &Path,
    spec: &ExperimentSpec,
    opts: &RunOptions,
    make_lane: &mut MakeLane<'_>,
) -> Result<ParallelOutcome, ControllerError> {
    let refuse = |reason: String| Err(ControllerError::Resume { reason });
    let (spec, runs) = lane0.prepare_campaign(spec, opts)?;
    let store = ResultStore::open(result_dir).with_vfs(opts.vfs.clone());
    let journal_path = store.dir().join(JOURNAL_FILE);
    let replay = Journal::replay(&journal_path).map_err(ControllerError::Journal)?;
    let Some(JournalRecord::CampaignStarted {
        seed,
        spec_digest,
        total_runs,
        testbed,
        ..
    }) = replay.campaign_start()
    else {
        return refuse("journal has no CampaignStarted record".into());
    };
    if *testbed != opts.testbed_flavor {
        return refuse(format!(
            "campaign ran on the `{testbed}` testbed, resume is using `{}`",
            opts.testbed_flavor
        ));
    }
    if *seed != lane0.testbed().seed() {
        return refuse(format!(
            "campaign ran on testbed seed {seed:#x}, this testbed uses {:#x}",
            lane0.testbed().seed()
        ));
    }
    if *spec_digest != spec.digest() {
        return refuse(
            "experiment spec changed since the campaign started (digest mismatch)".into(),
        );
    }
    if *total_runs != runs.len() {
        return refuse(format!(
            "campaign planned {total_runs} runs, spec now expands to {}",
            runs.len()
        ));
    }
    if let Some(finding) = replay.mixed_testbeds() {
        return refuse(finding);
    }

    // The lane plan, the supervision configuration and the failover
    // history: which lanes died, how many lanes each run killed, how far
    // each retry ladder got, which replacement lanes exist. A journal
    // without a lane plan was interrupted during setup (or predates the
    // plan records): it resumes on one lane with default supervision.
    let mut lane_count = 1;
    let mut site_replicas = 1;
    let mut sopts = SupervisorOptions::default();
    let mut fstate = FailoverState::default();
    for rec in &replay.records {
        match rec {
            JournalRecord::LanePlan { lanes, .. } => {
                lane_count = *lanes;
                site_replicas = *lanes;
            }
            JournalRecord::SupervisorPlan { config } => {
                let cfg: SupervisorPlanConfig =
                    serde_json::from_str(config).map_err(|e| ControllerError::Resume {
                        reason: format!("unreadable SupervisorPlan record: {e}"),
                    })?;
                site_replicas = cfg.site_replicas;
                sopts = cfg.options;
            }
            JournalRecord::LaneRetired {
                lane, reason, run, ..
            } => {
                fstate.retired.insert(*lane, reason.clone());
                if let Some(i) = run {
                    *fstate.kills.entry(*i).or_insert(0) += 1;
                }
            }
            JournalRecord::RunRetry { index, attempt, .. } => {
                let a = fstate.ladder.entry(*index).or_insert(0);
                *a = (*a).max(*attempt);
            }
            JournalRecord::LaneReplanned { .. } => {
                lane_count += 1;
                fstate.replanned += 1;
            }
            _ => {}
        }
    }
    let verified = verified_runs(&store, &replay.records);

    // Pin the journaled lanes back onto a fresh site calendar —
    // replacement lanes included, at the replica set their index names.
    let (site, reservations) = plan_site(&spec, lane_count, lane_count.max(site_replicas))?;
    let lanes = build_lanes(lane0, lane_count, opts, make_lane)?;

    let mut journal = Journal::open_append_with(&journal_path, opts.vfs.clone())?;
    journal.arm_crash(opts.journal_crash_after, opts.journal_torn_write);
    journal.append(&JournalRecord::CampaignResumed {
        resumed_ns: lanes[0].testbed().now().as_nanos(),
        verified_runs: verified.len(),
    })?;

    LaneSupervisor::new(
        &spec,
        opts,
        sopts,
        site_replicas,
        runs.len(),
        store,
        journal,
        &[],
        make_lane,
        lanes,
        site,
        reservations,
        fstate,
    )?
    .run(&runs, &verified)
}

/// [`run_campaign`] with lane 0 built by `make_lane` too.
pub fn run_parallel(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    popts: &ParallelOptions,
    make_lane: &mut MakeLane<'_>,
) -> Result<ParallelOutcome, ControllerError> {
    let mut lane0 = Controller::owning(make_lane(0, campaign_flavor(opts)?)?);
    run_campaign(&mut lane0, spec, opts, popts, make_lane)
}

/// [`resume_campaign`] with lane 0 built by `make_lane` too.
pub fn resume_parallel(
    result_dir: &Path,
    spec: &ExperimentSpec,
    opts: &RunOptions,
    make_lane: &mut MakeLane<'_>,
) -> Result<ParallelOutcome, ControllerError> {
    let mut lane0 = Controller::owning(make_lane(0, campaign_flavor(opts)?)?);
    resume_campaign(&mut lane0, result_dir, spec, opts, make_lane)
}

/// The campaign's `count` lanes: `lane0` under the campaign's command
/// watchdog, then replicas.
fn build_lanes<'a, 't>(
    lane0: &'a mut Controller<'t>,
    count: usize,
    opts: &RunOptions,
    make_lane: &mut MakeLane<'_>,
) -> Result<Vec<Lane<'a, 't>>, ControllerError> {
    lane0
        .testbed_mut()
        .set_command_timeout(opts.command_timeout);
    let mut lanes = vec![Lane::Caller(lane0)];
    for k in 1..count {
        lanes.push(replica(k, opts, make_lane)?);
    }
    Ok(lanes)
}

/// The journal's verified-complete runs: the last `RunCompleted` record
/// per index whose artifacts still match its digest (two-level check:
/// journaled digest → manifest bytes → per-file hashes). Anything else is
/// re-executed from scratch.
fn verified_runs(store: &ResultStore, records: &[JournalRecord]) -> BTreeMap<usize, VerifiedRun> {
    let mut verified = BTreeMap::new();
    // Hosts quarantined by the run being committed.
    let mut quarantined = Vec::new();
    for rec in records {
        match rec {
            JournalRecord::RunStarted { .. } | JournalRecord::CampaignResumed { .. } => {
                quarantined.clear()
            }
            JournalRecord::HostQuarantined { host, .. } => quarantined.push(host.clone()),
            JournalRecord::RunCompleted {
                index,
                success,
                attempts,
                recoveries,
                recovery_time_ns,
                started_ns,
                finished_ns,
                rng_cursor,
                digest,
                fault_trace,
            } => {
                let run_dir = store.dir().join(format!("run-{index:04}"));
                let intact = ResultStore::run_digest(&run_dir).is_ok_and(|d| &d == digest)
                    && ResultStore::verify_run(&run_dir).is_ok_and(|v| v.is_clean());
                let quarantined = std::mem::take(&mut quarantined);
                if intact {
                    verified.insert(
                        *index,
                        VerifiedRun {
                            success: *success,
                            attempts: *attempts,
                            recoveries: *recoveries,
                            recovery_time_ns: *recovery_time_ns,
                            started_ns: *started_ns,
                            finished_ns: *finished_ns,
                            rng_cursor: *rng_cursor,
                            fault_trace: fault_trace.clone(),
                            quarantined,
                        },
                    );
                } else {
                    verified.remove(index);
                }
            }
            _ => {}
        }
    }
    verified
}
