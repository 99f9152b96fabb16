//! The parallel scheduler's determinism contract, end to end:
//!
//! * a chaos-free campaign executed on 4 lanes leaves a result tree
//!   **byte-identical** (journals excepted) to the same campaign on
//!   1 lane, and to the plain sequential controller;
//! * a campaign crashed mid-flight by journal fault injection and then
//!   resumed with `resume_parallel` converges to that same tree;
//! * lane failover — injected lane deaths at run boundaries, watchdog
//!   retirements, poison-run quarantine, replacement-lane replanning,
//!   a site with no set left for a replacement — never perturbs the
//!   tree: the merged result stays byte-identical to `--lanes 1` under
//!   the same fault plan, crashes mid-failover included;
//! * the lanes pay off: 4 lanes at least halve the case-study campaign's
//!   virtual time, and one lane death does not triple it.

use pos::core::commands::{case_study_lanes, register_all};
use pos::core::controller::{Controller, ControllerError, RunOptions};
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::journal::{Journal, JournalRecord, JOURNAL_FILE};
use pos::core::vars::VarValue;
use pos::sched::{
    resume_parallel, run_parallel, LaneDeath, LaneFaultPlan, LaneFlavor, LaneRecovery,
    ParallelOptions, ParallelOutcome,
};
use pos::testbed::{HardwareSpec, InitInterface, PortId, Testbed};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const SEED: u64 = 0x5EED;

fn case_study_testbed() -> Testbed {
    let mut tb = Testbed::new(SEED);
    tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.topology
        .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
        .unwrap();
    tb.topology
        .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
        .unwrap();
    register_all(&mut tb);
    tb
}

fn small_spec() -> ExperimentSpec {
    linux_router_experiment("vriga", "vtartu", 3, 1)
}

/// The case-study sweep: `rate_steps` offered rates (× 2 packet sizes)
/// spread up to `max_rate` pps, `run_secs` per run. A run's virtual
/// duration is set by `run_secs`, not by how many packets it simulates,
/// so shrunk rates keep the simulation cheap without moving the
/// virtual-time speedup.
fn campaign_spec(run_secs: u64, rate_steps: usize, max_rate: i64) -> ExperimentSpec {
    let mut spec = linux_router_experiment("vriga", "vtartu", rate_steps, run_secs);
    let lo = (max_rate / 30).max(1_000).min(max_rate);
    let rates: Vec<i64> = (1..=rate_steps as i64)
        .map(|i| lo + (max_rate - lo) * (i - 1) / (rate_steps as i64 - 1).max(1))
        .collect();
    spec.loop_vars.set(
        "pkt_rate",
        VarValue::List(rates.into_iter().map(Into::into).collect()),
    );
    spec
}

/// Seed of the case-study-shaped campaigns below.
const CASE_STUDY_SEED: u64 = 21;

fn workdir(name: &str) -> PathBuf {
    // Tests run in parallel threads of one process: the pid alone would
    // hand two tests the same directory, so every call gets its own.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pos-par-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `root` (relative path → bytes), excluding the
/// journals — they record *how* the tree was produced, not its content.
fn tree_snapshot(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let name = path.file_name().unwrap().to_string_lossy();
                if name.starts_with("journal") {
                    continue;
                }
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

fn assert_trees_identical(a: &Path, b: &Path, what: &str) {
    let ta = tree_snapshot(a);
    let tb = tree_snapshot(b);
    let keys_a: Vec<&String> = ta.keys().collect();
    let keys_b: Vec<&String> = tb.keys().collect();
    assert_eq!(keys_a, keys_b, "{what}: file sets differ");
    for (rel, bytes) in &ta {
        assert_eq!(
            bytes,
            &tb[rel],
            "{what}: `{rel}` differs between {} and {}",
            a.display(),
            b.display()
        );
    }
}

/// Every lane, replacements included, is asked for on the campaign's
/// own testbed: `pos`, the `RunOptions` default.
fn make_lane(_lane: usize, flavor: LaneFlavor) -> Result<Testbed, ControllerError> {
    assert_eq!(
        flavor,
        LaneFlavor::BareMetal,
        "a pos campaign has only pos lanes"
    );
    Ok(case_study_testbed())
}

fn run_with_lanes(root: &Path, lanes: usize) -> PathBuf {
    let spec = small_spec();
    let opts = RunOptions::new(root);
    let popts = ParallelOptions::new(lanes);
    let out = run_parallel(&spec, &opts, &popts, &mut make_lane).unwrap();
    assert_eq!(out.outcome.runs.len(), 6);
    assert_eq!(out.outcome.successes(), 6);
    out.outcome.result_dir
}

#[test]
fn four_lanes_match_one_lane_byte_for_byte() {
    let root1 = workdir("lanes1");
    let root4 = workdir("lanes4");
    let dir1 = run_with_lanes(&root1, 1);
    let dir4 = run_with_lanes(&root4, 4);
    assert_trees_identical(&dir1, &dir4, "lanes=4 vs lanes=1");
}

#[test]
fn parallel_tree_matches_sequential_controller() {
    let root_seq = workdir("seq");
    let root_par = workdir("par2");
    let spec = small_spec();

    let mut tb = case_study_testbed();
    let seq = Controller::new(&mut tb)
        .run_experiment(&spec, &RunOptions::new(&root_seq))
        .unwrap();

    let dir_par = run_with_lanes(&root_par, 2);
    assert_trees_identical(&seq.result_dir, &dir_par, "lanes=2 vs sequential");
}

#[test]
fn parallel_speedup_is_real() {
    let root = workdir("speedup");
    let spec = small_spec();
    let opts = RunOptions::new(&root);
    let out = run_parallel(&spec, &opts, &ParallelOptions::new(4), &mut make_lane).unwrap();
    assert!(
        out.speedup() > 1.0,
        "4 lanes must beat 1 on a 6-run campaign, got {:.2}x",
        out.speedup()
    );
    assert!(
        out.lane_runs.iter().filter(|l| !l.is_empty()).count() > 1,
        "work must actually spread across lanes: {:?}",
        out.lane_runs
    );

    // The case-study shape (60 runs × 10 s): its runs are long enough
    // for the one-time campaign setup (~160 s virtual, paid at every
    // lane count) to amortize, so 4 lanes must at least halve it.
    let root = workdir("speedup-case-study");
    let spec = campaign_spec(10, 30, 2_000);
    let out = run_parallel(
        &spec,
        &RunOptions::new(&root),
        &ParallelOptions::new(4),
        &mut case_study_lanes(&spec, CASE_STUDY_SEED),
    )
    .unwrap();
    assert_eq!(out.outcome.runs.len(), 60);
    assert_eq!(out.outcome.successes(), 60, "the campaign is fault-free");
    assert!(
        out.speedup() >= 2.0,
        "4 lanes must at least halve the case-study campaign, got {:.2}x",
        out.speedup()
    );
}

#[test]
fn crashed_parallel_campaign_resumes_to_identical_tree() {
    // Reference: an uninterrupted 4-lane execution.
    let root_ok = workdir("crash-ref");
    let dir_ok = run_with_lanes(&root_ok, 4);

    // Crash: the journal's fifth append (CampaignStarted, LanePlan,
    // SupervisorPlan, then the first run's RunStarted and RunCompleted)
    // fails mid-campaign.
    let root = workdir("crash");
    let spec = small_spec();
    let mut opts = RunOptions::new(&root);
    opts.journal_crash_after = Some(4);
    opts.journal_torn_write = true;
    let err = run_parallel(&spec, &opts, &ParallelOptions::new(4), &mut make_lane).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("injected journal crash"),
        "unexpected error: {msg}"
    );

    // The wreckage is on disk; find the result dir under the root.
    let dir = find_result_dir(&root);

    // Resume replays all lane journals and re-executes what is missing.
    let resume_opts = RunOptions::new(&root);
    let out = resume_parallel(&dir, &spec, &resume_opts, &mut make_lane).unwrap();
    assert_eq!(out.outcome.successes(), 6);
    assert_trees_identical(&dir_ok, &dir, "resumed vs uninterrupted 4-lane tree");
}

/// Descends `<root>/<user>/<exp>/vt-*/` to the single result dir.
fn find_result_dir(root: &Path) -> PathBuf {
    let mut dir = root.to_path_buf();
    for _ in 0..3 {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        assert_eq!(entries.len(), 1, "expected one subdir in {}", dir.display());
        dir = entries.remove(0);
    }
    dir
}

// ---------------------------------------------------------------------
// Lane failover determinism

fn faulted_popts(lanes: usize, plan: LaneFaultPlan, recovery: LaneRecovery) -> ParallelOptions {
    let mut popts = ParallelOptions::new(lanes);
    // Leave spare replica sets on the site calendar so every failover
    // can plan its replacement lane (a site with none left is covered
    // by its own test below).
    popts.site_replicas = lanes + 4;
    popts.supervisor.fault_plan = plan;
    popts.supervisor.recovery = recovery;
    popts
}

fn run_faulted(popts: &ParallelOptions, opts: &RunOptions) -> ParallelOutcome {
    run_parallel(&small_spec(), opts, popts, &mut make_lane).unwrap()
}

#[test]
fn lane_death_at_every_boundary_matches_one_lane() {
    // Lane deaths change which replica executes later runs, never what
    // those runs write: every (boundary, recovery policy) combination
    // must reproduce the clean 1-lane tree.
    let ref_root = workdir("death-ref");
    let ref_dir = run_with_lanes(&ref_root, 1);
    for recovery in [LaneRecovery::Redistribute, LaneRecovery::Replacement] {
        for boundary in 0..=2 {
            let root = workdir(&format!("death-{recovery:?}-{boundary}"));
            let plan = LaneFaultPlan {
                lane_deaths: vec![LaneDeath {
                    lane: 1,
                    after_dispatches: boundary,
                }],
                poison_runs: vec![],
            };
            let popts = faulted_popts(4, plan, recovery);
            let out = run_faulted(&popts, &RunOptions::new(&root));
            assert_eq!(out.outcome.successes(), 6, "{recovery:?}/{boundary}");
            assert_trees_identical(
                &ref_dir,
                &out.outcome.result_dir,
                &format!("lane death {recovery:?} boundary {boundary} vs lanes=1"),
            );
            if boundary < 2 {
                // Boundary 2 may never come up for lane 1 on a 6-run
                // campaign; earlier boundaries must actually fire.
                assert!(
                    out.retired_lanes.iter().any(|(lane, _)| *lane == 1),
                    "{recovery:?}/{boundary}: lane 1 should have been retired: {:?}",
                    out.retired_lanes
                );
                if recovery == LaneRecovery::Replacement {
                    assert_eq!(out.replanned_lanes, 1, "{recovery:?}/{boundary}");
                }
            }
        }
    }
}

#[test]
fn poison_run_quarantine_is_identical_across_lane_counts() {
    // A poison run kills `poison_threshold` lanes and is then sealed as
    // a failed zero-width run with a forensic bundle. The sealed run
    // dir, the quarantine report, and every later run's artifacts must
    // match a 1-lane execution of the same fault plan byte for byte.
    let plan = LaneFaultPlan {
        lane_deaths: vec![],
        poison_runs: vec![2],
    };
    let ref_root = workdir("poison-ref");
    let ref_out = run_faulted(
        &faulted_popts(1, plan.clone(), LaneRecovery::Redistribute),
        &RunOptions::new(&ref_root),
    );
    assert_eq!(ref_out.outcome.successes(), 5);
    assert_eq!(ref_out.outcome.quarantined_runs, vec![2]);
    assert_eq!(ref_out.outcome.failed_runs, vec![2]);
    let report = ref_out
        .outcome
        .result_dir
        .join("quarantine/run-0002/report.json");
    assert!(report.exists(), "missing forensic report {report:?}");

    for recovery in [LaneRecovery::Redistribute, LaneRecovery::Replacement] {
        let root = workdir(&format!("poison-{recovery:?}"));
        let out = run_faulted(
            &faulted_popts(4, plan.clone(), recovery),
            &RunOptions::new(&root),
        );
        assert_eq!(out.outcome.successes(), 5, "{recovery:?}");
        assert_eq!(out.outcome.quarantined_runs, vec![2], "{recovery:?}");
        assert_eq!(
            out.retired_lanes.len(),
            2,
            "{recovery:?}: the poison run kills exactly poison_threshold lanes"
        );
        assert!(out.ladder_retries >= 1, "{recovery:?}: ladder must step");
        assert_trees_identical(
            &ref_out.outcome.result_dir,
            &out.outcome.result_dir,
            &format!("poison {recovery:?} lanes=4 vs lanes=1"),
        );
    }
}

#[test]
fn crash_mid_failover_resumes_to_identical_tree() {
    // Reference: the same fault plan (a lane death plus a poison run)
    // executed uninterrupted on 4 lanes.
    let plan = LaneFaultPlan {
        lane_deaths: vec![LaneDeath {
            lane: 1,
            after_dispatches: 1,
        }],
        poison_runs: vec![2],
    };
    let popts = faulted_popts(4, plan, LaneRecovery::Redistribute);
    let ref_root = workdir("failover-crash-ref");
    let ref_out = run_faulted(&popts, &RunOptions::new(&ref_root));
    assert_eq!(ref_out.outcome.successes(), 5);

    // Crash at every scheduler-journal append across the failover record
    // window (LaneRetired / RunRetry / RunQuarantined / RunCompleted),
    // torn and clean-cut, then resume. Each resume must converge to the
    // reference tree: journaled retirements stay retired, the ladder
    // continues from its journaled attempt, unsealed quarantines re-seal.
    for crash_after in 3..=8u64 {
        for torn in [false, true] {
            let root = workdir(&format!("failover-crash-{crash_after}-{torn}"));
            let mut opts = RunOptions::new(&root);
            opts.journal_crash_after = Some(crash_after);
            opts.journal_torn_write = torn;
            let err = run_parallel(&small_spec(), &opts, &popts, &mut make_lane).unwrap_err();
            assert!(
                err.to_string().contains("injected journal crash"),
                "crash_after={crash_after} torn={torn}: unexpected error: {err}"
            );

            let dir = find_result_dir(&root);
            let out = resume_parallel(&dir, &small_spec(), &RunOptions::new(&root), &mut make_lane)
                .unwrap();
            assert_eq!(
                out.outcome.successes(),
                5,
                "crash_after={crash_after} torn={torn}"
            );
            assert_eq!(
                out.outcome.quarantined_runs,
                vec![2],
                "crash_after={crash_after} torn={torn}"
            );
            assert_trees_identical(
                &ref_out.outcome.result_dir,
                &dir,
                &format!("resume after crash_after={crash_after} torn={torn}"),
            );
        }
    }
}

#[test]
fn watchdog_retirements_preserve_identity() {
    // A pathologically tight watchdog budget retires a lane after nearly
    // every completed run; the campaign limps across replacement lanes
    // and still reproduces the clean 1-lane tree.
    let ref_root = workdir("watchdog-ref");
    let ref_dir = run_with_lanes(&ref_root, 1);

    let root = workdir("watchdog");
    let mut popts = ParallelOptions::new(4);
    popts.site_replicas = 8;
    popts.supervisor.grace_factor = 1e-6;
    let out = run_faulted(&popts, &RunOptions::new(&root));
    assert_eq!(out.outcome.successes(), 6);
    assert!(
        !out.retired_lanes.is_empty(),
        "the watchdog must retire at least one lane"
    );
    assert!(
        out.retired_lanes
            .iter()
            .all(|(_, reason)| reason.contains("watchdog overrun")),
        "unexpected retirement reasons: {:?}",
        out.retired_lanes
    );
    assert_trees_identical(&ref_dir, &out.outcome.result_dir, "watchdog vs lanes=1");
}

#[test]
fn replacement_exhausts_site_and_falls_back_to_redistribute() {
    // With no spare replica set (site_replicas == lanes) there is no
    // replacement lane — above all no lane on another testbed: the dead
    // lane's work flows to the survivors, as under Redistribute, and the
    // tree is the one-lane tree.
    let ref_dir = run_with_lanes(&workdir("exhausted-ref"), 1);
    let plan = LaneFaultPlan {
        lane_deaths: vec![LaneDeath {
            lane: 1,
            after_dispatches: 0,
        }],
        poison_runs: vec![],
    };
    let mut popts = ParallelOptions::new(4);
    popts.supervisor.fault_plan = plan;
    popts.supervisor.recovery = LaneRecovery::Replacement;
    let out = run_faulted(&popts, &RunOptions::new(workdir("exhausted")));
    assert_eq!(out.outcome.successes(), 6);
    assert_eq!(out.lanes, 4);
    assert_eq!(out.replanned_lanes, 0);
    assert_eq!(out.retired_lanes.len(), 1);
    assert_trees_identical(
        &ref_dir,
        &out.outcome.result_dir,
        "exhausted-site replacement vs lanes=1",
    );
    let replay = Journal::replay(&out.outcome.result_dir.join(JOURNAL_FILE)).unwrap();
    assert!(
        !replay
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::LaneReplanned { .. })),
        "no replacement lane may be journaled"
    );
    assert!(pos::core::fsck::fsck(&out.outcome.result_dir)
        .unwrap()
        .is_clean());
}

#[test]
fn last_lane_death_without_a_free_set_fails_the_campaign() {
    // The poison run kills the only lane and the site has no set left
    // for the forced replacement: the campaign fails, it does not go on
    // on another testbed.
    let mut popts = ParallelOptions::new(1);
    popts.supervisor.fault_plan = LaneFaultPlan {
        lane_deaths: vec![],
        poison_runs: vec![2],
    };
    let err = run_parallel(
        &small_spec(),
        &RunOptions::new(workdir("no-set")),
        &popts,
        &mut make_lane,
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("free for a replacement"),
        "unexpected error: {err}"
    );
}

#[test]
fn interrupted_failover_strands_run_and_fsck_flags_it() {
    // Crash exactly between the poison run's LaneRetired record and its
    // RunRetry: the journal now shows a dead lane holding a run that was
    // neither reassigned nor quarantined. `pos fsck` must call that out
    // as stranded, and a resume must repair it.
    let plan = LaneFaultPlan {
        lane_deaths: vec![],
        poison_runs: vec![2],
    };
    let popts = faulted_popts(4, plan, LaneRecovery::Redistribute);
    let root = workdir("stranded");
    let mut opts = RunOptions::new(&root);
    // Appends: CampaignStarted, LanePlan, SupervisorPlan, runs 0 and 1
    // (RunStarted + RunCompleted each), LaneRetired, then RunRetry (8).
    opts.journal_crash_after = Some(8);
    let err = run_parallel(&small_spec(), &opts, &popts, &mut make_lane).unwrap_err();
    assert!(err.to_string().contains("injected journal crash"), "{err}");

    let dir = find_result_dir(&root);
    let report = pos::core::fsck::fsck(&dir).unwrap();
    assert!(!report.is_clean());
    let rendered = report.render();
    assert!(
        rendered.contains("stranded"),
        "fsck must flag the stranded run:\n{rendered}"
    );
    assert!(
        rendered.contains("retired"),
        "fsck must report the retired lane:\n{rendered}"
    );

    let out =
        resume_parallel(&dir, &small_spec(), &RunOptions::new(&root), &mut make_lane).unwrap();
    assert_eq!(out.outcome.quarantined_runs, vec![2]);
    let report = pos::core::fsck::fsck(&dir).unwrap();
    assert!(
        report.is_clean(),
        "resume must repair the stranded failover:\n{}",
        report.render()
    );
    assert!(report.render().contains("quarantined runs: [2]"));
}

#[test]
fn lane_death_recovery_completes_and_is_bounded() {
    // What a lane death costs: lane 1 of a 4-lane, 12-run campaign dies
    // after its first dispatched run, once per recovery policy. Every
    // run still succeeds, and the virtual makespan stays under 3× the
    // fault-free one.
    let spec = campaign_spec(5, 6, 2_000);
    let run = |popts: &ParallelOptions| {
        let root = workdir("failover-cost");
        let mut make_lane = case_study_lanes(&spec, CASE_STUDY_SEED);
        let out = run_parallel(&spec, &RunOptions::new(&root), popts, &mut make_lane).unwrap();
        assert_eq!(out.outcome.runs.len(), 12);
        assert_eq!(
            out.outcome.successes(),
            12,
            "a boundary lane death must not lose runs"
        );
        out
    };
    let fault_free = run(&ParallelOptions::new(4)).parallel_elapsed;
    for (recovery, replanned) in [
        (LaneRecovery::Redistribute, 0),
        (LaneRecovery::Replacement, 1),
    ] {
        let mut popts = ParallelOptions::new(4);
        // One spare replica set for the replacement lane.
        popts.site_replicas = 5;
        popts.supervisor.recovery = recovery;
        popts.supervisor.fault_plan = LaneFaultPlan {
            lane_deaths: vec![LaneDeath {
                lane: 1,
                after_dispatches: 1,
            }],
            poison_runs: vec![],
        };
        let out = run(&popts);
        assert_eq!(out.retired_lanes.len(), 1, "{recovery:?}");
        assert_eq!(out.replanned_lanes, replanned, "{recovery:?}");
        let slowdown = out.parallel_elapsed.as_nanos() as f64 / fault_free.as_nanos() as f64;
        assert!(
            slowdown < 3.0,
            "{recovery:?}: a single lane death must not triple the campaign, got {slowdown:.2}x"
        );
    }
}
