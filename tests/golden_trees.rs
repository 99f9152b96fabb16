//! Golden result-tree digests: the campaign drivers must keep producing
//! the exact bytes recorded in `tests/fixtures/golden_trees.txt`.
//!
//! Run-twice identity (the other determinism suites) cannot see a change
//! that moves every run the same way; these digests can. Each line of the
//! fixture is `<campaign> <tree digest>`, where the digest is
//! [`tree_digest`] over the finished result tree (journals excluded,
//! every other file by relative path and content). A change that is
//! *meant* to alter the measurement bytes must say so and re-record the
//! fixture from the digests this test prints on mismatch.

use pos::core::commands::{case_study_lanes, case_study_testbed};
use pos::core::controller::ExperimentOutcome;
use pos::core::controller::{Controller, RunOptions};
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::resultstore::tree_digest;
use pos::core::vars::Variables;
use pos::netsim::{ChaosEvent, ChaosPlan, FaultConfig};
use pos::sched::{run_campaign, run_parallel, LaneFlavor, ParallelOptions};
use pos::simkernel::SimTime;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const SEED: u64 = 0x6011;

const FIXTURE: &str = include_str!("fixtures/golden_trees.txt");

fn tmp(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pos-golden-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 2 sizes × 3 rates, 1 s runs: the case-study sweep at toy scale.
fn spec() -> ExperimentSpec {
    linux_router_experiment("vriga", "vtartu", 3, 1)
}

/// 2 sizes × 2 rates, 2 s runs, for the chaos campaigns.
fn chaos_spec() -> ExperimentSpec {
    let mut spec = linux_router_experiment("vriga", "vtartu", 2, 2);
    spec.loop_vars = Variables::new()
        .with("pkt_sz", vec![64i64, 1500])
        .with("pkt_rate", vec![10_000i64, 50_000]);
    spec
}

fn expected(name: &str) -> &'static str {
    FIXTURE
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("fixture has no `{name}` line"))
}

fn check(name: &str, dir: &Path) {
    let got = tree_digest(dir).unwrap();
    assert_eq!(
        got,
        expected(name),
        "{name}: result tree moved (re-record only for an intended change: `{name} {got}`)"
    );
}

fn sequential(
    name: &str,
    spec: &ExperimentSpec,
    vpos: bool,
    chaos: Option<&ChaosPlan>,
) -> ExperimentOutcome {
    let mut tb = case_study_testbed(spec, SEED, vpos, false).unwrap();
    let mut opts = RunOptions::new(tmp(name));
    opts.testbed_flavor = if vpos { "vpos" } else { "pos" }.into();
    opts.continue_on_run_failure = chaos.is_some();
    let mut ctl = Controller::new(&mut tb);
    if let Some(plan) = chaos {
        ctl.apply_chaos(plan).unwrap();
    }
    let outcome = ctl.run_experiment(spec, &opts).unwrap();
    check(name, &outcome.result_dir);
    outcome
}

#[test]
fn sequential_pos_tree_matches_golden() {
    sequential("sequential-pos", &spec(), false, None);
}

#[test]
fn sequential_vpos_tree_matches_golden() {
    sequential("sequential-vpos", &spec(), true, None);
}

#[test]
fn two_lane_tree_matches_golden() {
    let spec = spec();
    let opts = RunOptions::new(tmp("lanes-2"));
    let out = run_parallel(&spec, &opts, &ParallelOptions::new(2), &mut |_, flavor| {
        case_study_testbed(&spec, SEED, flavor == LaneFlavor::Virtual, true)
    })
    .unwrap();
    check("lanes-2", &out.outcome.result_dir);
}

#[test]
fn two_lane_vpos_tree_matches_sequential_vpos_golden() {
    // Every lane of a vpos campaign is a clone booted on lane 0's
    // (derived) testbed seed, as `pos run --testbed vpos --lanes 2`
    // builds them: the tree is the one-lane vpos tree.
    let spec = spec();
    let mut tb = case_study_testbed(&spec, SEED, true, false).unwrap();
    let mut opts = RunOptions::new(tmp("lanes-2-vpos"));
    opts.testbed_flavor = "vpos".into();
    let lane_seed = tb.seed();
    let out = run_campaign(
        &mut Controller::new(&mut tb),
        &spec,
        &opts,
        &ParallelOptions::new(2),
        &mut case_study_lanes(&spec, lane_seed),
    )
    .unwrap();
    assert_eq!(out.lanes, 2);
    check("sequential-vpos", &out.outcome.result_dir);
}

#[test]
fn chaos_outage_tree_matches_golden() {
    // The DuT panics while its management plane is dark: recovery fails,
    // the host is quarantined and the rest of the sweep degrades.
    let plan = ChaosPlan::new(4)
        .with_event(ChaosEvent::HostCrash {
            host: "vtartu".into(),
            at: SimTime::from_millis(85_500),
        })
        .with_event(ChaosEvent::PowerOutage {
            host: "vtartu".into(),
            from: SimTime::from_secs(84),
            until: SimTime::from_secs(4000),
        });
    let outcome = sequential("chaos-outage", &chaos_spec(), false, Some(&plan));
    assert_eq!(
        outcome.quarantined_hosts,
        vec!["vtartu".to_string()],
        "{}",
        outcome.summary()
    );
    assert!(outcome.successes() >= 1, "{}", outcome.summary());
    assert!(!outcome.failed_runs.is_empty(), "{}", outcome.summary());
}

#[test]
fn chaos_link_fault_tree_matches_golden() {
    let plan = ChaosPlan::new(5).with_event(ChaosEvent::LinkFaults {
        host: "vriga".into(),
        from: SimTime::from_secs(1),
        until: SimTime::from_secs(10_000),
        config: FaultConfig {
            drop_chance: 0.3,
            ..FaultConfig::none()
        },
    });
    let outcome = sequential("chaos-link", &chaos_spec(), false, Some(&plan));
    assert_eq!(outcome.successes(), 4, "{}", outcome.summary());
}

/// The outage campaign at nine 2 s runs: vtartu dies during run 3, its
/// recovery fails and runs 3–8 fail fast on the quarantined host.
fn early_outage() -> (ExperimentSpec, ChaosPlan) {
    let mut spec = chaos_spec();
    spec.loop_vars = Variables::new()
        .with("pkt_sz", vec![64i64, 512, 1500])
        .with("pkt_rate", vec![10_000i64, 50_000, 90_000]);
    let plan = ChaosPlan::new(4)
        .with_event(ChaosEvent::HostCrash {
            host: "vtartu".into(),
            at: SimTime::from_millis(85_500),
        })
        .with_event(ChaosEvent::PowerOutage {
            host: "vtartu".into(),
            from: SimTime::from_secs(84),
            until: SimTime::from_secs(4000),
        });
    (spec, plan)
}

#[test]
fn chaos_outage_early_tree_matches_golden_through_the_controller() {
    let (spec, plan) = early_outage();
    let outcome = sequential("chaos-outage-early", &spec, false, Some(&plan));
    assert_eq!(
        outcome.failed_runs,
        vec![3, 4, 5, 6, 7, 8],
        "{}",
        outcome.summary()
    );
    assert_eq!(outcome.quarantined_hosts, vec!["vtartu".to_string()]);
}

#[test]
fn chaos_outage_early_tree_matches_golden_at_one_lane() {
    // The host ladder stretches run 3 far past the lane watchdog's
    // budget; that is the controller's business, not a wedged lane, so
    // the one-lane driver must leave the controller's tree.
    let (spec, plan) = early_outage();
    let mut opts = RunOptions::new(tmp("chaos-outage-early-lane"));
    opts.continue_on_run_failure = true;
    let out = run_parallel(&spec, &opts, &ParallelOptions::new(1), &mut |lane, _| {
        let mut tb = case_study_testbed(&spec, SEED, false, false)?;
        if lane == 0 {
            Controller::new(&mut tb).apply_chaos(&plan)?;
        }
        Ok(tb)
    })
    .unwrap();
    assert!(out.retired_lanes.is_empty(), "{:?}", out.retired_lanes);
    check("chaos-outage-early", &out.outcome.result_dir);
}
