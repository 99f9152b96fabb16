//! The campaign driver: every campaign — `Controller::run_experiment`,
//! `pos run` at any lane count, `pos serve`, a DAG sweep stage — runs
//! through this one supervised lane loop.
//!
//! * [`plan`] — lane planning over the site calendar: one replica host
//!   set per lane, as many lanes as the calendar has sets free (acquired
//!   as an atomic batch). Every lane runs the campaign's own testbed.
//! * [`scheduler`] — the driver proper: the caller's controller is lane 0,
//!   same-seed replicas are lanes 1.., runs are dispatched in run order to
//!   the earliest-free lane and committed into the one `journal.log` and
//!   result tree, byte-identical for any lane count (see the determinism
//!   argument in [`scheduler`]'s module docs). One lane *is* the
//!   controller; [`resume_campaign`] is the one resume path.
//! * [`supervisor`] — lane supervision: watchdog deadlines, journaled
//!   lane retirement with deterministic reassignment or replacement-lane
//!   replanning, per-run retry ladders on dedicated RNG sub-streams, and
//!   poison-run quarantine with forensic bundles — all without breaking
//!   byte-identity with the one-lane execution.

pub mod plan;
pub mod scheduler;
pub mod supervisor;

pub use plan::{plan_lanes, site_host_sets, LaneFlavor, ScatterLease};
pub use scheduler::{
    resume_campaign, resume_parallel, run_campaign, run_parallel, ParallelOptions, ParallelOutcome,
};
pub use supervisor::{LaneDeath, LaneFaultPlan, LaneRecovery, SupervisorOptions};
