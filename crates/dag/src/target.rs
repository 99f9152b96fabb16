//! Pluggable execution targets: *where* stage work runs.
//!
//! The executor never talks to the scheduler directly — it hands every
//! sweep stage to an [`ExecutionTarget`], which decides how the scatter
//! group's lanes are provisioned:
//!
//! * [`InProcessTarget`] — today's answer: worker lanes in this
//!   process, backed by replica sets leased per scatter group on a
//!   **shared** site calendar ([`pos_sched::ScatterLease`]); a scatter
//!   group gets one lane per set it could lease, exactly like a
//!   standalone parallel campaign, all on the campaign's testbed.
//! * [`SimBatchTarget`] — a simulated remote SLURM-like batch cluster:
//!   sweeps become queued jobs with deterministic queue waits and a
//!   partition width that clamps the granted lane count. It exists to
//!   prove the seam: because result trees are lane-count invariant,
//!   the batch target produces byte-identical artifacts while its job
//!   accounting ([`TargetReport`]) tells a completely different
//!   execution story.
//!
//! Targets are accounting + provisioning policy only. The artifacts a
//! stage writes are a pure function of (seed, stage spec) — that is the
//! determinism contract that makes targets interchangeable.

use pos_core::commands::{case_study_lanes, case_study_testbed};
use pos_core::controller::{ControllerError, RunOptions};
use pos_core::experiment::ExperimentSpec;
use pos_core::hash::sha256_hex;
use pos_sched::{
    resume_parallel, run_parallel, site_host_sets, LaneFlavor, ParallelOptions, ParallelOutcome,
    ScatterLease,
};
use pos_simkernel::{SimDuration, SimTime};
use pos_testbed::Calendar;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;

/// One sweep stage's execution request, as the executor hands it to a
/// target.
#[derive(Debug)]
pub struct SweepRequest<'a> {
    /// The sweep stage id (names the scatter group).
    pub node: &'a str,
    /// The stage's effective experiment spec (loop override applied).
    pub spec: &'a ExperimentSpec,
    /// Run options with `result_root` already pointed at the stage's
    /// subtree.
    pub opts: &'a RunOptions,
    /// Requested worker lanes for the scatter fan-out.
    pub lanes: usize,
}

/// What a setup stage captures about the testbed, target-independent
/// by construction (both targets derive it from the same seed).
#[derive(Debug)]
pub struct SetupReport {
    /// Rendered wiring (`host:port <-> host:port` lines).
    pub topology: String,
    /// Participating hosts, in role order.
    pub hosts: Vec<String>,
}

/// One provisioned unit of work in the target's own vocabulary: a lane
/// lease for the in-process target, a queued job for the batch target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// Target-assigned id (`lease-<stage>` / `job-NNNN`).
    pub id: String,
    /// The sweep stage this job executed.
    pub node: String,
    /// Lanes the stage requested.
    pub lanes_requested: usize,
    /// Lanes the target granted, one per replica set it leased (the
    /// site or a batch partition may clamp).
    pub lanes_granted: usize,
    /// Seconds the job waited in the target's queue before starting
    /// (always 0 for the in-process target).
    pub queue_wait_secs: f64,
    /// Virtual seconds of the stage's parallel timeline.
    pub elapsed_secs: f64,
    /// Terminal state (`"completed"` / `"resumed"`).
    pub state: String,
}

/// Target-side accounting for a DAG execution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TargetReport {
    /// The target's name.
    pub target: String,
    /// One record per provisioned sweep, in dispatch order.
    pub jobs: Vec<JobRecord>,
}

impl TargetReport {
    /// Renders the accounting as an `squeue`-style table.
    pub fn render(&self) -> String {
        let mut out = format!("target: {}\n", self.target);
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:>5} {:>7} {:>9} {:>9}  STATE",
            "JOBID", "NODE", "REQ", "GRANTED", "WAIT[s]", "ELAPSED"
        );
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>5} {:>7} {:>9.1} {:>9.1}  {}",
                j.id,
                j.node,
                j.lanes_requested,
                j.lanes_granted,
                j.queue_wait_secs,
                j.elapsed_secs,
                j.state
            );
        }
        out
    }
}

/// Where stage work runs.
///
/// Implementations provision lanes and execute/resume sweep campaigns;
/// they must route the actual execution through the deterministic
/// scheduler so artifacts stay target-invariant.
pub trait ExecutionTarget {
    /// Stable target name, journaled in `DagStarted` as a resume
    /// identity guard.
    fn name(&self) -> &'static str;

    /// Builds (and discards) the study's testbed to capture its
    /// topology and host inventory — what a setup stage persists.
    fn describe(&mut self, spec: &ExperimentSpec) -> Result<SetupReport, ControllerError>;

    /// Executes one sweep stage's campaign to completion.
    fn run_sweep(&mut self, req: &SweepRequest<'_>) -> Result<ParallelOutcome, ControllerError>;

    /// Resumes one sweep stage's interrupted campaign at `dir` (a
    /// result tree with a journal).
    fn resume_sweep(
        &mut self,
        dir: &Path,
        req: &SweepRequest<'_>,
    ) -> Result<ParallelOutcome, ControllerError>;

    /// The target's accounting so far.
    fn report(&self) -> TargetReport;
}

/// Executes sweeps on in-process `pos-sched` worker lanes, leasing
/// replica sets per scatter group on a shared site calendar.
#[derive(Debug)]
pub struct InProcessTarget {
    seed: u64,
    site_replicas: usize,
    site: Calendar,
    clock: SimTime,
    jobs: Vec<JobRecord>,
}

impl InProcessTarget {
    /// A target deriving every lane's testbed from the user seed `seed`,
    /// on the campaign's testbed (`RunOptions::testbed_flavor`).
    /// `site_replicas` bounds the replica sets the shared site owns, and
    /// so the lanes a lease can grant.
    pub fn new(seed: u64, site_replicas: usize) -> InProcessTarget {
        InProcessTarget {
            seed,
            site_replicas: site_replicas.max(1),
            site: Calendar::new(),
            clock: SimTime::ZERO,
            jobs: Vec::new(),
        }
    }

    /// The testbed seed every lane of a sweep boots on: lane 0's, as
    /// `pos run` derives it — the user seed on `pos`, the clone seed
    /// vpos derives from it on `vpos`.
    fn lane_seed(&self, req: &SweepRequest<'_>) -> Result<u64, ControllerError> {
        let virtualized = LaneFlavor::parse(&req.opts.testbed_flavor) == Some(LaneFlavor::Virtual);
        Ok(case_study_testbed(req.spec, self.seed, virtualized, false)?.seed())
    }
}

impl ExecutionTarget for InProcessTarget {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn describe(&mut self, spec: &ExperimentSpec) -> Result<SetupReport, ControllerError> {
        // Both testbeds share the wiring: the bare-metal one describes it.
        let tb = case_study_testbed(spec, self.seed, false, true)?;
        Ok(SetupReport {
            topology: tb.topology.render(),
            hosts: spec.hosts(),
        })
    }

    fn run_sweep(&mut self, req: &SweepRequest<'_>) -> Result<ParallelOutcome, ControllerError> {
        // Lease the scatter group's lanes on the shared site calendar;
        // the lease's grant becomes the inner scheduler's replica pool so
        // it cannot claim sets the site refused.
        let sets = site_host_sets(&req.spec.hosts(), self.site_replicas);
        let lease = ScatterLease::acquire(
            &mut self.site,
            &req.spec.user,
            req.node,
            &sets,
            req.lanes,
            self.clock,
            SimDuration::from_secs(req.spec.planned_duration_secs.max(1)),
        )
        .map_err(ControllerError::Allocation)?;
        let popts = ParallelOptions {
            lanes: req.lanes,
            site_replicas: lease.site_replicas(),
            ..ParallelOptions::new(req.lanes)
        };
        let mut make_lane = case_study_lanes(req.spec, self.lane_seed(req)?);
        let result = run_parallel(req.spec, req.opts, &popts, &mut make_lane);
        lease.release(&mut self.site);
        let out = result?;
        self.clock += out.parallel_elapsed;
        self.jobs.push(JobRecord {
            id: format!("lease-{}", req.node),
            node: req.node.to_string(),
            lanes_requested: req.lanes,
            lanes_granted: out.lanes,
            queue_wait_secs: 0.0,
            elapsed_secs: out.parallel_elapsed.as_secs_f64(),
            state: "completed".into(),
        });
        Ok(out)
    }

    fn resume_sweep(
        &mut self,
        dir: &Path,
        req: &SweepRequest<'_>,
    ) -> Result<ParallelOutcome, ControllerError> {
        let mut make_lane = case_study_lanes(req.spec, self.lane_seed(req)?);
        let out = resume_parallel(dir, req.spec, req.opts, &mut make_lane)?;
        self.clock += out.parallel_elapsed;
        self.jobs.push(JobRecord {
            id: format!("lease-{}", req.node),
            node: req.node.to_string(),
            lanes_requested: req.lanes,
            lanes_granted: out.lanes,
            queue_wait_secs: 0.0,
            elapsed_secs: out.parallel_elapsed.as_secs_f64(),
            state: "resumed".into(),
        });
        Ok(out)
    }

    fn report(&self) -> TargetReport {
        TargetReport {
            target: self.name().into(),
            jobs: self.jobs.clone(),
        }
    }
}

/// A simulated remote SLURM-like batch cluster.
///
/// Each sweep becomes a queued job: it draws a deterministic queue wait
/// (hashed from the stage id and seed — data, not wall-clock luck),
/// and the cluster's partition width clamps the granted lane count.
/// The work itself still runs through the same deterministic scheduler,
/// so the result tree is byte-identical to the in-process target's —
/// only the accounting differs. That is the point: the
/// [`ExecutionTarget`] seam carries provisioning policy, never
/// artifact content.
#[derive(Debug)]
pub struct SimBatchTarget {
    inner: InProcessTarget,
    next_job: u64,
    jobs: Vec<JobRecord>,
}

impl SimBatchTarget {
    /// A batch cluster whose partition grants at most `partition` lanes
    /// per job, executing from `seed`.
    pub fn new(seed: u64, partition: usize) -> SimBatchTarget {
        SimBatchTarget {
            inner: InProcessTarget::new(seed, partition),
            next_job: 1,
            jobs: Vec::new(),
        }
    }

    /// Deterministic queue wait for a job: the first 4 hex digits of
    /// `sha256(seed:node)`, scaled into [0, 600) seconds.
    fn queue_wait(&self, node: &str) -> f64 {
        let digest = sha256_hex(format!("{}:{node}", self.inner.seed).as_bytes());
        let raw = u64::from_str_radix(&digest[..4], 16).unwrap_or(0);
        (raw % 600) as f64 + (raw % 10) as f64 / 10.0
    }

    fn record(&mut self, req: &SweepRequest<'_>, out: &ParallelOutcome, state: &str) {
        let id = format!("job-{:04}", self.next_job);
        self.next_job += 1;
        self.jobs.push(JobRecord {
            id,
            node: req.node.to_string(),
            lanes_requested: req.lanes,
            lanes_granted: out.lanes,
            queue_wait_secs: self.queue_wait(req.node),
            elapsed_secs: out.parallel_elapsed.as_secs_f64(),
            state: state.into(),
        });
    }
}

impl ExecutionTarget for SimBatchTarget {
    fn name(&self) -> &'static str {
        "sim-batch"
    }

    fn describe(&mut self, spec: &ExperimentSpec) -> Result<SetupReport, ControllerError> {
        self.inner.describe(spec)
    }

    fn run_sweep(&mut self, req: &SweepRequest<'_>) -> Result<ParallelOutcome, ControllerError> {
        // sbatch: the partition is the inner target's site, so it clamps
        // the grant; lane-count invariance of the result tree is what
        // makes the clamp artifact-neutral.
        let out = self.inner.run_sweep(req)?;
        self.inner.jobs.pop(); // replace the inner lease record with a job record
        self.record(req, &out, "completed");
        Ok(out)
    }

    fn resume_sweep(
        &mut self,
        dir: &Path,
        req: &SweepRequest<'_>,
    ) -> Result<ParallelOutcome, ControllerError> {
        let out = self.inner.resume_sweep(dir, req)?;
        self.inner.jobs.pop();
        self.record(req, &out, "resumed");
        Ok(out)
    }

    fn report(&self) -> TargetReport {
        TargetReport {
            target: self.name().into(),
            jobs: self.jobs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_queue_waits_are_deterministic_data() {
        let a = SimBatchTarget::new(7, 2);
        let b = SimBatchTarget::new(7, 2);
        assert_eq!(a.queue_wait("rate-sweep"), b.queue_wait("rate-sweep"));
        assert_ne!(a.queue_wait("rate-sweep"), a.queue_wait("other-sweep"));
    }

    #[test]
    fn report_renders_a_table() {
        let report = TargetReport {
            target: "sim-batch".into(),
            jobs: vec![JobRecord {
                id: "job-0001".into(),
                node: "rate-sweep".into(),
                lanes_requested: 4,
                lanes_granted: 2,
                queue_wait_secs: 12.5,
                elapsed_secs: 60.0,
                state: "completed".into(),
            }],
        };
        let table = report.render();
        assert!(table.contains("job-0001"));
        assert!(table.contains("rate-sweep"));
        assert!(table.contains("completed"));
    }
}
