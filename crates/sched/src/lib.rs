//! # pos-sched
//!
//! Multi-campaign admission for the pos reproduction, plus the names of
//! the campaign driver it feeds.
//!
//! * [`queue`] — a bounded submission queue with stride-based fair share
//!   across users, priority weights, rejection diagnostics instead of
//!   wedging, preemption-free draining, and per-submission completion
//!   outcomes (degraded completions are recorded, not re-admitted).
//! * The driver itself — lane planning, the supervised lane loop, resume
//!   — lives in [`pos_core::campaign`] so the controller can be its lane
//!   0; it is re-exported here under its familiar names.

#![warn(missing_docs)]

pub mod queue;

pub use pos_core::campaign::{
    plan, plan_lanes, resume_campaign, resume_parallel, run_campaign, run_parallel, site_host_sets,
    LaneDeath, LaneFaultPlan, LaneFlavor, LaneRecovery, ParallelOptions, ParallelOutcome,
    ScatterLease, SupervisorOptions,
};
pub use queue::{
    CompletedSubmission, CompletionOutcome, QueueError, QueueStatus, Submission, SubmissionQueue,
};
