//! Lane supervision: deterministic failover for campaigns.
//!
//! The driver in [`super::scheduler`] treats worker lanes as immortal.
//! Real replica testbeds are not: hosts wedge, management planes die,
//! and occasionally a single pathological run reliably takes its machine
//! down with it. This module adds a [`LaneSupervisor`] that drives the
//! dispatch loop under failure:
//!
//! * **Watchdog** — each completed run is checked against a deadline of
//!   `grace_factor ×` the campaign's per-run estimate (the first
//!   completed run's virtual duration). A lane whose run overruns the
//!   budget is declared wedged and retired; the overrunning run's
//!   artifacts are still accepted (it *did* finish — the lane is merely
//!   no longer trusted). A run the controller's host ladder acted on (a
//!   retried attempt, an out-of-band recovery, a quarantine) is not
//!   charged: that time is the controller's business, not a wedged lane.
//!   Neither the watchdog nor a lane's fully quarantined host set retires
//!   the last live lane — alone, it is the controller.
//! * **Lane retirement** — a dead lane is journaled as `LaneRetired` and
//!   never selected again; its occupancy history keeps contributing to
//!   the makespan. Unstarted runs flow to the surviving lanes through
//!   the ordinary earliest-free-lane queue, or onto a **replacement
//!   lane** on a replica set the site calendar still has free under
//!   [`LaneRecovery::Replacement`]. A replacement runs the campaign's own
//!   testbed; with no free set there is none, and the work flows to the
//!   surviving lanes as under [`LaneRecovery::Redistribute`]. When the
//!   last live lane dies, a replacement is forced regardless of policy,
//!   and the campaign fails if the site has no set left for it.
//! * **Retry ladder** — a run whose lane died under it is retried on the
//!   next lane after a deterministic backoff drawn from the
//!   `testbed/lane{k}/retry{run}` stream ([`pos_simkernel::lane_retry_rng`]).
//!   Every ladder step is journaled as `RunRetry` so a resume replays
//!   the exact ladder.
//! * **Poison-run quarantine** — a run that kills
//!   [`SupervisorOptions::poison_threshold`] lanes is quarantined: it is
//!   sealed as a failed, zero-width run (canonical start == finish) with
//!   a forensic bundle under `quarantine/run-NNNN/`, and the campaign
//!   carries on. The campaign then finishes *degraded* rather than dead.
//!
//! # Why failover preserves byte-identity
//!
//! Measurement artifacts depend only on (seed, run label, canonical
//! start instant) — never on which lane executes a run. The supervisor
//! is careful to keep every failover decision on the *occupancy* side of
//! that line:
//!
//! * retiring a lane changes only which replica executes later runs;
//! * ladder delays are charged to lane occupancy (`LaneSet::occupy`),
//!   never to the canonical cursor, and their jitter comes from
//!   dedicated `testbed/lane{k}/retry{run}` streams that no other
//!   component reads;
//! * a quarantined run occupies zero canonical width, so every
//!   subsequent run keeps the canonical start it would have had in a
//!   one-lane execution with the same fault plan;
//! * replacement-lane setup time is modeled on the replacement's own
//!   clock and its lane joins the queue at `cursor + setup`, leaving
//!   the canonical timeline untouched.
//!
//! Hence the result tree stays byte-identical to `--lanes 1` under the
//! same fault plan — the journal excepted, since it *is* the record of
//! the failover.

use super::plan::site_host_sets;
use super::scheduler::{campaign_flavor, MakeLane, ParallelOutcome};
use crate::controller::{
    CampaignSetup, Controller, ControllerError, HostHealth, PendingRun, Progress, RunOptions,
    RunRecord,
};
use crate::experiment::ExperimentSpec;
use crate::journal::{Journal, JournalRecord, JOURNAL_FILE};
use crate::loopvars::RunParams;
use crate::resultstore::{run_metadata, ResultStore};
use pos_simkernel::{
    lane_retry_rng, lane_stream_label, Backoff, LaneSet, SimDuration, SimTime, TraceLevel,
};
use pos_testbed::{Calendar, ReservationError, ReservationId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::{Deref, DerefMut};

/// What to do with a retired lane's share of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum LaneRecovery {
    /// Fold the dead lane's work back into the surviving lanes through
    /// the earliest-free-lane queue. A replacement is still replanned
    /// when the *last* live lane dies.
    Redistribute,
    /// Replan a replacement lane on a free replica set of the site
    /// calendar after every retirement; with no free set, redistribute.
    Replacement,
}

/// A deterministic injected lane death: lane `lane` dies at the run
/// boundary after it has dispatched `after_dispatches` runs. Like the
/// chaos plans, the fault is data — the same plan reproduces the same
/// failover on every execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneDeath {
    /// The lane to kill.
    pub lane: usize,
    /// Number of runs the lane dispatches before dying (0 = dies before
    /// its first run).
    pub after_dispatches: usize,
}

/// The supervisor's injected-fault plan.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneFaultPlan {
    /// Lane deaths at run boundaries.
    #[serde(default)]
    pub lane_deaths: Vec<LaneDeath>,
    /// Runs that kill every lane they are dispatched to (until the
    /// poison threshold quarantines them).
    #[serde(default)]
    pub poison_runs: Vec<usize>,
}

impl LaneFaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.lane_deaths.is_empty() && self.poison_runs.is_empty()
    }
}

/// Lane-supervision configuration, journaled as `SupervisorPlan` so a
/// resume replays the exact same failover decisions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SupervisorOptions {
    /// Watchdog budget as a multiple of the per-run estimate (the first
    /// completed run's virtual duration). A completed run longer than
    /// `grace_factor × estimate` retires its lane.
    pub grace_factor: f64,
    /// Number of lanes one run may kill before it is quarantined.
    pub poison_threshold: u32,
    /// What to do with a retired lane's share of the campaign.
    pub recovery: LaneRecovery,
    /// Injected lane faults (empty in production).
    #[serde(default)]
    pub fault_plan: LaneFaultPlan,
}

impl Default for SupervisorOptions {
    fn default() -> SupervisorOptions {
        SupervisorOptions {
            grace_factor: 8.0,
            poison_threshold: 2,
            recovery: LaneRecovery::Redistribute,
            fault_plan: LaneFaultPlan::default(),
        }
    }
}

/// Failover state reconstructed from journal records during a resume:
/// which lanes were already retired, how many lanes each run killed,
/// and how far each retry ladder got.
#[derive(Debug, Default)]
pub(crate) struct FailoverState {
    /// Lane → retirement reason, from `LaneRetired` records.
    pub retired: BTreeMap<usize, String>,
    /// Run → lanes it killed, from `LaneRetired { run: Some(_) }`.
    pub kills: BTreeMap<usize, u32>,
    /// Run → highest journaled ladder attempt, from `RunRetry`.
    pub ladder: BTreeMap<usize, u32>,
    /// Replacement lanes replanned before the resume, from
    /// `LaneReplanned`.
    pub replanned: usize,
}

/// A run completion recovered from the journal during resume, its
/// artifacts verified against the journaled digest.
#[derive(Debug)]
pub(crate) struct VerifiedRun {
    pub success: bool,
    pub attempts: u32,
    pub recoveries: u32,
    pub recovery_time_ns: u64,
    pub started_ns: u64,
    pub finished_ns: u64,
    /// Management-RNG cursor of the lane that ran it, at run end.
    pub rng_cursor: u64,
    pub fault_trace: Vec<String>,
    /// Hosts the run quarantined (`HostQuarantined` records journaled
    /// between its `RunStarted` and `RunCompleted`).
    pub quarantined: Vec<String>,
}

impl VerifiedRun {
    /// Whether the controller's host ladder acted on the run (see
    /// [`PendingRun::host_ladder_acted`]).
    fn host_ladder_acted(&self) -> bool {
        self.attempts > 1 || self.recoveries > 0 || !self.quarantined.is_empty()
    }
}

/// A worker lane's controller: the caller's own for lane 0, an owned
/// same-seed replica for every other lane.
pub(crate) enum Lane<'a, 't> {
    Caller(&'a mut Controller<'t>),
    Replica(Controller<'t>),
}

impl<'t> Deref for Lane<'_, 't> {
    type Target = Controller<'t>;
    fn deref(&self) -> &Controller<'t> {
        match self {
            Lane::Caller(c) => c,
            Lane::Replica(c) => c,
        }
    }
}

impl<'t> DerefMut for Lane<'_, 't> {
    fn deref_mut(&mut self) -> &mut Controller<'t> {
        match self {
            Lane::Caller(c) => c,
            Lane::Replica(c) => c,
        }
    }
}

/// The committed runs so far, in run order, and what they add up to.
#[derive(Default)]
struct Landed {
    records: Vec<RunRecord>,
    failed_runs: Vec<usize>,
    quarantined_hosts: Vec<String>,
    quarantined_runs: Vec<usize>,
    recoveries: u32,
    recovery_time: SimDuration,
}

/// Drives the dispatch loop of a campaign under lane failure.
///
/// Owns the lane controllers (lane 0 borrowed from the caller), the
/// campaign's result store and journal, and the site calendar (so it can
/// replan replacement lanes mid-campaign). [`LaneSupervisor::new`] runs
/// every lane's setup phase; [`LaneSupervisor::run`] dispatches and
/// commits every run, seals the campaign, and releases every reservation.
pub(crate) struct LaneSupervisor<'a, 't> {
    spec: &'a ExperimentSpec,
    opts: &'a RunOptions,
    sopts: SupervisorOptions,
    /// Replica sets the site owns; replacement lane `k` is planned only
    /// while `k < site_replicas`.
    site_replicas: usize,
    total: usize,
    store: ResultStore,
    journal: Journal,
    /// Builds replacement lanes' testbeds.
    make_lane: &'a mut MakeLane<'a>,
    lanes: Vec<Lane<'a, 't>>,
    setups: Vec<CampaignSetup>,
    site: Calendar,
    site_reservations: Vec<ReservationId>,
    laneset: LaneSet,
    /// Runs dispatched per lane (boundary-death trigger counts).
    dispatched: Vec<usize>,
    /// Run indices executed (or verified-skipped) per lane.
    lane_assignments: Vec<Vec<usize>>,
    /// Run → lanes it has killed so far.
    kills: BTreeMap<usize, u32>,
    /// Run → ladder attempts taken so far.
    ladder: BTreeMap<usize, u32>,
    /// Which fault-plan lane deaths have fired.
    fired: Vec<bool>,
    /// (lane, reason) in retirement order.
    retired: Vec<(usize, String)>,
    /// Replacement lanes replanned (this session + resumed).
    replanned: usize,
    /// Virtual time spent failing over: ladder delays plus
    /// replacement-lane setup.
    failover_time: SimDuration,
    /// Ladder steps taken (this session).
    ladder_retries: u32,
    /// First completed run's duration: the watchdog's budget unit.
    estimate: Option<SimDuration>,
    /// Runs whose control plane ran ahead of their commit, oldest first,
    /// with the lane that executed them.
    window: VecDeque<(usize, PendingRun)>,
    landed: Landed,
}

impl<'a, 't> LaneSupervisor<'a, 't> {
    /// Takes over the campaign's lanes and runs every lane's setup phase
    /// (allocation, boots, tool deployment, setup scripts); only lane 0
    /// persists the shared inputs into the result tree. `plan` is then
    /// journaled: a fresh campaign's `LanePlan` and `SupervisorPlan`
    /// land once the inputs are on disk, so every journal that holds
    /// more than `CampaignStarted` belongs to a resumable tree.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: &'a ExperimentSpec,
        opts: &'a RunOptions,
        sopts: SupervisorOptions,
        site_replicas: usize,
        total: usize,
        store: ResultStore,
        mut journal: Journal,
        plan: &[JournalRecord],
        make_lane: &'a mut MakeLane<'a>,
        mut lanes: Vec<Lane<'a, 't>>,
        site: Calendar,
        site_reservations: Vec<ReservationId>,
        prior: FailoverState,
    ) -> Result<LaneSupervisor<'a, 't>, ControllerError> {
        let mut setups = Vec::with_capacity(lanes.len());
        for (k, lane) in lanes.iter_mut().enumerate() {
            setups.push(lane.setup_campaign(spec, opts, (k == 0).then_some(&store), total)?);
        }
        for rec in plan {
            journal.append(rec)?;
        }
        let laneset = LaneSet::new(lanes.iter().map(|c| c.testbed().now()).collect());
        let fired = vec![false; sopts.fault_plan.lane_deaths.len()];
        let mut sup = LaneSupervisor {
            spec,
            opts,
            sopts,
            site_replicas,
            total,
            store,
            journal,
            make_lane,
            dispatched: vec![0; lanes.len()],
            lane_assignments: vec![Vec::new(); lanes.len()],
            lanes,
            setups,
            site,
            site_reservations,
            laneset,
            kills: prior.kills,
            ladder: prior.ladder,
            fired,
            retired: Vec::new(),
            replanned: prior.replanned,
            failover_time: SimDuration::ZERO,
            ladder_retries: 0,
            estimate: None,
            window: VecDeque::new(),
            landed: Landed::default(),
        };
        // Journaled retirements replay before any dispatching: a dead
        // lane stays dead across a resume. An injected death whose lane
        // is already retired can never fire again.
        for (lane, reason) in prior.retired {
            sup.laneset.retire(lane);
            for (j, death) in sup.sopts.fault_plan.lane_deaths.iter().enumerate() {
                if death.lane == lane {
                    sup.fired[j] = true;
                }
            }
            sup.retired.push((lane, reason));
        }
        Ok(sup)
    }

    /// Dispatches and commits every run, then seals the campaign: lane
    /// 0's Info-level trace becomes `controller.log` (lane 0 is the
    /// caller's controller, and the supervisor never logs above Debug),
    /// `CampaignFinished` is journaled, and every reservation released.
    pub fn run(
        mut self,
        runs: &[RunParams],
        verified: &BTreeMap<usize, VerifiedRun>,
    ) -> Result<ParallelOutcome, ControllerError> {
        let finished = self.dispatch(runs, verified)?;

        let merge_t0 = std::time::Instant::now();
        self.store.write(
            "controller.log",
            self.lanes[0]
                .testbed()
                .trace
                .render_min_level(TraceLevel::Info),
        )?;
        let landed = std::mem::take(&mut self.landed);
        self.journal.append(&JournalRecord::CampaignFinished {
            finished_ns: finished.as_nanos(),
            succeeded: landed.records.iter().filter(|r| r.success).count(),
            failed: landed.failed_runs.len(),
        })?;
        let merge_wall_secs = merge_t0.elapsed().as_secs_f64();

        for (lane, setup) in self.lanes.iter_mut().zip(&self.setups) {
            lane.testbed_mut().calendar.release(setup.reservation);
        }
        for id in self.site_reservations.drain(..) {
            self.site.release(id);
        }
        let started = self.setups[0].started;
        let mut lane_runs = self.lane_assignments;
        lane_runs.resize(self.lanes.len(), Vec::new());
        Ok(ParallelOutcome {
            outcome: crate::controller::ExperimentOutcome {
                result_dir: self.store.dir().to_path_buf(),
                runs: landed.records,
                started,
                finished,
                recoveries: landed.recoveries,
                failed_runs: landed.failed_runs,
                quarantined_hosts: landed.quarantined_hosts,
                quarantined_runs: landed.quarantined_runs,
                total_recovery_time: landed.recovery_time,
            },
            lanes: self.lanes.len(),
            lane_runs,
            sequential_elapsed: finished - started,
            parallel_elapsed: self.laneset.makespan_end() - started,
            merge_wall_secs,
            retired_lanes: self.retired,
            replanned_lanes: self.replanned,
            failover_time: self.failover_time,
            ladder_retries: self.ladder_retries,
        })
    }

    /// The supervised dispatch loop: every run in cross-product order,
    /// each to the earliest-free live lane, with retirement, retry
    /// ladders, quarantine, and replacement replanning along the way.
    /// Returns the canonical finish: the last run's end instant.
    ///
    /// Lane control planes run up to [`crate::measure::parallelism`]
    /// runs ahead of the commits, so their packet simulations overlap;
    /// runs commit strictly in run order, and every failover record is
    /// preceded by committing whatever is in flight, so the sequence of
    /// durable writes is the unpipelined one.
    fn dispatch(
        &mut self,
        runs: &[RunParams],
        verified: &BTreeMap<usize, VerifiedRun>,
    ) -> Result<SimTime, ControllerError> {
        let mut cursor = self.lanes[0].testbed().now();
        let poison: BTreeSet<usize> = self.sopts.fault_plan.poison_runs.iter().copied().collect();
        let depth = crate::measure::parallelism();

        for run in runs {
            if let Some(done) = verified.get(&run.index) {
                // Verified complete by an earlier session: account its
                // canonical interval to the lane it deterministically
                // lands on, fast-forward that lane past it, and move the
                // cursor — exactly the bookkeeping executing it would
                // have done, retirement decisions included. It lands at
                // once, after what is in flight.
                self.drain()?;
                let lane = self.select_lane(cursor)?;
                let fin = SimTime::from_nanos(done.finished_ns);
                let dur = fin - SimTime::from_nanos(done.started_ns);
                self.laneset.occupy(lane, dur);
                self.dispatched[lane] += 1;
                cursor = fin;
                self.lane_run(lane, run.index);
                self.lanes[lane].skip_verified_run(run.index, done);
                self.landed.recoveries += done.recoveries;
                self.landed.recovery_time += SimDuration::from_nanos(done.recovery_time_ns);
                self.landed
                    .quarantined_hosts
                    .extend(done.quarantined.iter().cloned());
                if !done.success {
                    self.landed.failed_runs.push(run.index);
                    if self.kills.get(&run.index).copied().unwrap_or(0)
                        >= self.sopts.poison_threshold
                    {
                        self.landed.quarantined_runs.push(run.index);
                    }
                }
                if !done.host_ladder_acted() {
                    self.watchdog(lane, run.index, dur, cursor)?;
                }
                let run_dir = self.store.run_dir(run.index)?;
                let outputs = Controller::reload_run_outputs(self.spec, &run_dir)?;
                self.land(
                    RunRecord {
                        params: run.clone(),
                        outputs,
                        attempts: done.attempts,
                        success: done.success,
                        recoveries: done.recoveries,
                        fault_trace: done.fault_trace.clone(),
                    },
                    true,
                )?;
                continue;
            }
            // The cancel checkpoint: no further control plane starts,
            // and the runs in flight are discarded.
            if self.opts.cancel.is_canceled() {
                return Err(self.canceled());
            }

            // Live dispatch, possibly across several lane deaths.
            loop {
                let lane = self.select_lane(cursor)?;

                if poison.contains(&run.index) {
                    // A resumed campaign may already have this run's
                    // kills journaled; quarantine without killing again
                    // so the forensic record matches an uninterrupted
                    // execution.
                    if self.kills.get(&run.index).copied().unwrap_or(0)
                        >= self.sopts.poison_threshold
                    {
                        self.quarantine(run, cursor)?;
                        break;
                    }
                    let kills = {
                        let k = self.kills.entry(run.index).or_insert(0);
                        *k += 1;
                        *k
                    };
                    self.retire_lane(
                        lane,
                        format!("poison run {:04} wedged the lane", run.index),
                        Some(run.index),
                        cursor,
                    )?;
                    self.maybe_replan(cursor)?;
                    if kills >= self.sopts.poison_threshold {
                        self.quarantine(run, cursor)?;
                        break;
                    }
                    // Retry ladder: charge a deterministic backoff to the
                    // next victim's occupancy clock before it attempts
                    // the run. The canonical cursor does not move.
                    let to = self.select_lane(cursor)?;
                    let attempt = {
                        let a = self.ladder.entry(run.index).or_insert(0);
                        *a += 1;
                        *a
                    };
                    let seed = self.lanes[0].testbed().seed();
                    let delay = ladder_delay(self.opts, seed, to, run.index, attempt);
                    self.laneset.occupy(to, delay);
                    self.failover_time += delay;
                    self.ladder_retries += 1;
                    self.drain()?;
                    self.journal.append(&JournalRecord::RunRetry {
                        index: run.index,
                        attempt,
                        lane: to,
                        delay_ns: delay.as_nanos(),
                        at_ns: cursor.as_nanos(),
                    })?;
                    continue;
                }

                while self.window.len() >= depth {
                    self.commit_oldest()?;
                }
                // Pin the lane's clock to the run's canonical start:
                // artifacts derive from (seed, start instant), so this
                // makes every byte match the one-lane timeline
                // regardless of lane count or failover history.
                let controller = &mut self.lanes[lane];
                controller.testbed_mut().set_now(cursor);
                let pending = controller.run_control_plane(self.spec, self.opts, run);
                let dur = pending.finished() - pending.started();
                let aborts = pending.aborts(self.opts);
                let ladder_acted = pending.host_ladder_acted();
                self.laneset.occupy(lane, dur);
                self.dispatched[lane] += 1;
                cursor = pending.finished();
                self.lane_run(lane, run.index);
                self.window.push_back((lane, pending));
                if aborts {
                    // The run's commit ends the campaign with its error.
                    self.drain()?;
                }
                // A lane whose every experiment host is quarantined can
                // never produce another healthy run: its share goes to
                // the other lanes. The last live lane carries on — alone,
                // it is the controller, whose host ladder fails the runs
                // that depend on a quarantined host.
                let all_quarantined = self
                    .spec
                    .hosts()
                    .iter()
                    .all(|h| self.lanes[lane].host_health(h) == HostHealth::Quarantined);
                if all_quarantined
                    && self.laneset.live_lanes() > 1
                    && !self.laneset.is_retired(lane)
                {
                    self.retire_lane(
                        lane,
                        "every experiment host quarantined".to_string(),
                        None,
                        cursor,
                    )?;
                    self.maybe_replan(cursor)?;
                }
                // Time the controller's host ladder spent on the run
                // (retries, recoveries, quarantines) is its business, not
                // a sign of a wedged lane.
                if !ladder_acted {
                    self.watchdog(lane, run.index, dur, cursor)?;
                }
                break;
            }
        }
        self.drain()?;
        Ok(cursor)
    }

    // ------------------------------------------------------------------
    // The commit window

    /// Commits the oldest run in flight on the lane that executed it.
    /// Each commit is a cooperative checkpoint: once the cancel token is
    /// tripped the campaign stops there, between durable runs.
    fn commit_oldest(&mut self) -> Result<(), ControllerError> {
        if self.opts.cancel.is_canceled() {
            return Err(self.canceled());
        }
        let (lane, pending) = self.window.pop_front().expect("window is not empty");
        let step = self.lanes[lane].commit_run(
            pending,
            self.spec,
            self.opts,
            &self.store,
            &mut self.journal,
        )?;
        self.landed.recoveries += step.record.recoveries;
        self.landed.recovery_time += step.recovery_time;
        self.landed.quarantined_hosts.extend(step.quarantined);
        let (index, attempts) = (step.record.params.index, step.record.attempts);
        let failed = !step.record.success;
        if failed {
            self.landed.failed_runs.push(index);
        }
        self.land(step.record, false)?;
        if failed && !self.opts.continue_on_run_failure {
            // An aborting failure: the run stays journaled as
            // started-only, so a resume retries it.
            self.store.write(
                "controller.log",
                self.lanes[lane]
                    .testbed()
                    .trace
                    .render_min_level(TraceLevel::Info),
            )?;
            return Err(ControllerError::RunFailed { index, attempts });
        }
        Ok(())
    }

    /// Commits every run in flight, oldest first. Called before any
    /// failover record is written and before a run lands out of band.
    fn drain(&mut self) -> Result<(), ControllerError> {
        while !self.window.is_empty() {
            self.commit_oldest()?;
        }
        Ok(())
    }

    /// Appends a run's record to the outcome and reports it on lane 0's
    /// progress stream: `RunSkipped` for a resume-verified run, else
    /// `RunDone`.
    fn land(&mut self, record: RunRecord, skipped: bool) -> Result<(), ControllerError> {
        let (index, total) = (record.params.index, self.total);
        self.lanes[0].emit(if skipped {
            Progress::RunSkipped { index, total }
        } else {
            Progress::RunDone {
                index,
                total,
                success: record.success,
                dir: self.store.run_dir(index)?,
            }
        });
        self.landed.records.push(record);
        Ok(())
    }

    /// The cancel checkpoint's error.
    fn canceled(&self) -> ControllerError {
        ControllerError::Canceled {
            completed_runs: self.landed.records.len(),
        }
    }

    // ------------------------------------------------------------------
    // Lane selection and retirement

    /// Picks the next live lane, firing any injected boundary deaths the
    /// selection trips over and forcing a replacement when the last live
    /// lane dies.
    fn select_lane(&mut self, cursor: SimTime) -> Result<usize, ControllerError> {
        loop {
            // Forced replanning: even under Redistribute a campaign with
            // zero live lanes must get a replacement or die.
            if self.laneset.live_lanes() == 0 && !self.replan_replacement(cursor)? {
                return Err(ControllerError::Allocation(ReservationError::BadRequest {
                    reason: format!(
                        "every lane is retired and none of the site's {} replica \
                         set(s) is free for a replacement",
                        self.site_replicas
                    ),
                }));
            }
            let lane = self.laneset.next_lane();
            if let Some(j) = self.boundary_death_due(lane) {
                self.fired[j] = true;
                self.retire_lane(
                    lane,
                    "injected lane fault at run boundary".to_string(),
                    None,
                    cursor,
                )?;
                self.maybe_replan(cursor)?;
                continue;
            }
            return Ok(lane);
        }
    }

    /// An unfired injected death due on `lane` at its current dispatch
    /// count, if any.
    fn boundary_death_due(&self, lane: usize) -> Option<usize> {
        self.sopts
            .fault_plan
            .lane_deaths
            .iter()
            .enumerate()
            .find(|(j, d)| {
                !self.fired[*j] && d.lane == lane && d.after_dispatches <= self.dispatched[lane]
            })
            .map(|(j, _)| j)
    }

    /// Retires `lane` with a journaled `LaneRetired` record.
    fn retire_lane(
        &mut self,
        lane: usize,
        reason: String,
        run: Option<usize>,
        cursor: SimTime,
    ) -> Result<(), ControllerError> {
        self.drain()?;
        self.laneset.retire(lane);
        self.journal.append(&JournalRecord::LaneRetired {
            lane,
            at_ns: cursor.as_nanos(),
            reason: reason.clone(),
            run,
        })?;
        self.retired.push((lane, reason));
        Ok(())
    }

    /// Checks a completed run against the watchdog deadline, retiring
    /// the lane on overrun (the run itself is kept: it finished — the
    /// lane is merely no longer trusted). The first completed run sets
    /// the estimate. The last live lane is never retired here: alone, it
    /// is the controller. Replanning after a watchdog retirement happens
    /// lazily, at the next lane selection.
    fn watchdog(
        &mut self,
        lane: usize,
        run_index: usize,
        duration: SimDuration,
        cursor: SimTime,
    ) -> Result<(), ControllerError> {
        let Some(est) = self.estimate else {
            self.estimate = Some(duration);
            return Ok(());
        };
        let budget = est.as_nanos() as f64 * self.sopts.grace_factor;
        if duration.as_nanos() as f64 > budget
            && self.laneset.live_lanes() > 1
            && !self.laneset.is_retired(lane)
        {
            self.retire_lane(
                lane,
                format!(
                    "watchdog overrun: run {run_index:04} took {}ns against a \
                     {:.1}x budget of {}ns",
                    duration.as_nanos(),
                    self.sopts.grace_factor,
                    est.as_nanos()
                ),
                None,
                cursor,
            )?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Replacement replanning

    /// Replans a replacement lane after a retirement when the recovery
    /// policy asks for one.
    fn maybe_replan(&mut self, cursor: SimTime) -> Result<(), ControllerError> {
        if self.sopts.recovery == LaneRecovery::Replacement {
            self.replan_replacement(cursor)?;
        }
        Ok(())
    }

    /// Provisions lane `len()` on the next replica set of the site
    /// calendar and returns true — or returns false and adds no lane when
    /// the site has no free set left, so the work stays with the
    /// surviving lanes. The new lane runs the full setup phase; its setup
    /// time is failover overhead and it joins the queue at
    /// `cursor + setup`.
    fn replan_replacement(&mut self, cursor: SimTime) -> Result<bool, ControllerError> {
        self.drain()?;
        let k = self.lanes.len();
        if k >= self.site_replicas {
            return Ok(false);
        }
        let sets = site_host_sets(&self.spec.hosts(), k + 1);
        let Ok(id) = self.site.reserve(
            self.spec.user.clone(),
            &sets[k],
            SimTime::ZERO,
            SimDuration::from_secs(self.spec.planned_duration_secs),
        ) else {
            return Ok(false);
        };
        self.site_reservations.push(id);

        let mut lane = replica(k, self.opts, self.make_lane)?;
        let setup = lane.setup_campaign(self.spec, self.opts, None, self.total)?;
        let setup_elapsed = lane.testbed().now() - setup.started;
        self.failover_time += setup_elapsed;

        self.journal.append(&JournalRecord::LaneReplanned {
            lane: k,
            flavor: self.opts.testbed_flavor.clone(),
            at_ns: cursor.as_nanos(),
        })?;

        let idx = self.laneset.add_lane(cursor + setup_elapsed);
        debug_assert_eq!(idx, k);
        self.lanes.push(lane);
        self.setups.push(setup);
        self.dispatched.push(0);
        self.replanned += 1;
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Quarantine

    /// Seals a poison run as a failed, zero-width run with a forensic
    /// bundle, so the campaign completes degraded instead of dying.
    ///
    /// The sealed run dir (metadata + checksum manifest) and both
    /// journal records make the quarantine indistinguishable from an
    /// ordinary failed run to resume verification and `pos fsck` — and
    /// byte-identical across lane counts, because nothing in the bundle
    /// report depends on which lanes died.
    fn quarantine(&mut self, run: &RunParams, cursor: SimTime) -> Result<(), ControllerError> {
        self.drain()?;
        let kills = self.kills.get(&run.index).copied().unwrap_or(0);
        self.store.wipe_run(run.index)?;
        let hosts_map: BTreeMap<String, String> = self
            .spec
            .roles
            .iter()
            .map(|r| (r.role.clone(), r.host.clone()))
            .collect();
        self.store
            .write_run_metadata(&run_metadata(run, cursor, cursor, 0, false, hosts_map))?;
        let digest = self.store.finalize_run(run.index)?;

        let fault_trace = vec![format!(
            "run {:04}: poison run quarantined after killing {kills} lane(s)",
            run.index
        )];
        self.write_forensic_bundle(run, cursor, kills)?;
        self.journal.append(&JournalRecord::RunQuarantined {
            index: run.index,
            lanes_killed: kills,
            at_ns: cursor.as_nanos(),
        })?;
        self.journal.append(&JournalRecord::RunCompleted {
            index: run.index,
            success: false,
            attempts: 0,
            recoveries: 0,
            recovery_time_ns: 0,
            started_ns: cursor.as_nanos(),
            finished_ns: cursor.as_nanos(),
            rng_cursor: 0,
            digest,
            fault_trace: fault_trace.clone(),
        })?;

        self.landed.failed_runs.push(run.index);
        self.landed.quarantined_runs.push(run.index);
        self.land(
            RunRecord {
                params: run.clone(),
                outputs: BTreeMap::new(),
                attempts: 0,
                success: false,
                recoveries: 0,
                fault_trace,
            },
            false,
        )
    }

    /// Writes `quarantine/run-NNNN/`: a deterministic `report.json`
    /// (identical across lane counts) plus a `journal-tail.log` forensic
    /// capture — journal tail, killing lanes' host health, recent
    /// warnings. The capture's file name starts with `journal` on
    /// purpose: byte-identity comparisons exempt journals, and the
    /// capture records the (lane-count-dependent) failover history.
    fn write_forensic_bundle(
        &self,
        run: &RunParams,
        cursor: SimTime,
        kills: u32,
    ) -> Result<(), ControllerError> {
        /// The deterministic half of the bundle: nothing in here may
        /// depend on lane count or failover history beyond the kill
        /// count, which the poison threshold fixes.
        #[derive(Serialize)]
        struct QuarantineReport {
            index: usize,
            label: String,
            canonical_start_ns: u64,
            lanes_killed: u32,
            poison_threshold: u32,
            verdict: String,
        }
        let report = QuarantineReport {
            index: run.index,
            label: run.label(),
            canonical_start_ns: cursor.as_nanos(),
            lanes_killed: kills,
            poison_threshold: self.sopts.poison_threshold,
            verdict: "quarantined".to_string(),
        };
        let dir = format!("quarantine/run-{:04}", run.index);
        self.store.write(
            &format!("{dir}/report.json"),
            format!(
                "{}\n",
                serde_json::to_string_pretty(&report).expect("report serializes")
            ),
        )?;

        let mut tail = String::new();
        tail.push_str("# forensic capture: poison-run quarantine\n");
        if let Ok(replay) = Journal::replay(&self.store.dir().join(JOURNAL_FILE)) {
            tail.push_str("## journal tail\n");
            let n = replay.records.len();
            for rec in replay.records.iter().skip(n.saturating_sub(16)) {
                tail.push_str(&format!("{rec:?}\n"));
            }
        }
        tail.push_str("## retired lanes\n");
        for (lane, reason) in &self.retired {
            tail.push_str(&format!("lane {lane}: {reason}\n"));
        }
        tail.push_str("## host health on retired lanes\n");
        for (lane, _) in &self.retired {
            for host in self.spec.hosts() {
                tail.push_str(&format!(
                    "lane {lane} {host}: {:?}\n",
                    self.lanes[*lane].host_health(&host)
                ));
            }
        }
        self.store.write(&format!("{dir}/journal-tail.log"), tail)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bookkeeping

    /// Per-lane run lists grow as replacement lanes appear.
    fn lane_run(&mut self, lane: usize, index: usize) {
        if self.lane_assignments.len() <= lane {
            self.lane_assignments
                .resize(self.lanes.len().max(lane + 1), Vec::new());
        }
        self.lane_assignments[lane].push(index);
    }
}

/// Builds replica lane `k`'s controller from `make_lane`, on the
/// campaign's testbed: its management RNG stream re-derived under
/// `testbed/lane{k}`, so replica boot timings are independent draws under
/// the same campaign seed, and the campaign's command watchdog set.
pub(crate) fn replica<'a, 't>(
    k: usize,
    opts: &RunOptions,
    make_lane: &mut MakeLane<'_>,
) -> Result<Lane<'a, 't>, ControllerError> {
    let mut tb = make_lane(k, campaign_flavor(opts)?)?;
    tb.rederive_management_rng(&lane_stream_label(k));
    tb.set_command_timeout(opts.command_timeout);
    Ok(Lane::Replica(Controller::owning(tb)))
}

/// The `attempt`-th delay of run `index`'s retry ladder on lane `to`:
/// a pure function of (seed, lane, run, attempt), so resume replays the
/// exact ladder from the journaled attempt count.
fn ladder_delay(
    opts: &RunOptions,
    seed: u64,
    to: usize,
    index: usize,
    attempt: u32,
) -> SimDuration {
    let mut backoff = Backoff::new(
        opts.backoff_base,
        opts.backoff_cap,
        lane_retry_rng(seed, to, index),
    );
    let mut delay = SimDuration::ZERO;
    for _ in 0..attempt.max(1) {
        delay = backoff.next_delay();
    }
    delay
}
