//! The commit window: a campaign's control plane runs ahead of its
//! commits while the packet simulations of earlier runs are still in
//! flight, and every durable and observable effect still lands in run
//! order. Each scenario's result tree and journal are pinned to digests
//! in `tests/fixtures/golden_trees.txt`, recorded by a driver that ran
//! every simulation to completion before moving on — so the digests say
//! the pipelined driver writes the same bytes, not merely the same bytes
//! twice. The journal pins were re-recorded once, when the controller
//! became the one-lane form of the campaign driver: each journal gained
//! its `LanePlan` and `SupervisorPlan` records and nothing else moved.

use pos::core::commands::case_study_testbed;
use pos::core::controller::{Controller, ControllerError, Progress, RunOptions};
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::hash::sha256_hex;
use pos::core::journal::{Journal, JournalRecord, JOURNAL_FILE};
use pos::core::resultstore::tree_digest;
use pos::core::script::Script;
use pos::core::vars::Variables;
use pos::testbed::{CommandResult, Testbed};
use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

const SEED: u64 = 0x6012;

const FIXTURE: &str = include_str!("fixtures/golden_trees.txt");

fn tmp(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pos-window-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn expected(name: &str) -> &'static str {
    FIXTURE
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("fixture has no `{name}` line"))
}

/// Checks the tree (journals excluded) and, separately, `journal.log`.
fn check(name: &str, dir: &Path) {
    let tree = tree_digest(dir).unwrap();
    let journal = sha256_hex(&std::fs::read(dir.join(JOURNAL_FILE)).unwrap());
    assert_eq!(
        tree,
        expected(name),
        "{name}: result tree moved (`{name} {tree}`)"
    );
    let key = format!("{name}-journal");
    assert_eq!(
        journal,
        expected(&key),
        "{name}: journal moved (`{key} {journal}`)"
    );
}

/// Three 64 B runs at 300, 10 and 150 kpps: run 0 is by far the most
/// expensive simulation, so with two or more measurement workers run 1
/// resolves before it.
fn descending_spec() -> ExperimentSpec {
    let mut spec = linux_router_experiment("vriga", "vtartu", 1, 2);
    spec.loop_vars = Variables::new()
        .with("pkt_sz", vec![64i64])
        .with("pkt_rate", vec![300_000i64, 10_000, 150_000]);
    spec
}

fn testbed(spec: &ExperimentSpec) -> Testbed {
    case_study_testbed(spec, SEED, false, false).unwrap()
}

fn find_result_dir(root: &Path) -> PathBuf {
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        if dir.join(JOURNAL_FILE).exists() {
            return dir;
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            }
        }
    }
    panic!("no result tree under {}", root.display());
}

/// `(RunStarted | RunCompleted, index)` in journal order.
fn run_records(dir: &Path) -> Vec<(&'static str, usize)> {
    Journal::replay(&dir.join(JOURNAL_FILE))
        .unwrap()
        .records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::RunStarted { index, .. } => Some(("started", *index)),
            JournalRecord::RunCompleted { index, .. } => Some(("completed", *index)),
            _ => None,
        })
        .collect()
}

#[test]
fn later_cheaper_measurement_still_commits_in_run_order() {
    let spec = descending_spec();
    let mut tb = testbed(&spec);
    let done = Rc::new(RefCell::new(Vec::new()));
    let sink = done.clone();
    let outcome = Controller::new(&mut tb)
        .with_progress(move |p| {
            if let Progress::RunDone { index, .. } = p {
                sink.borrow_mut().push(*index);
            }
        })
        .run_experiment(&spec, &RunOptions::new(tmp("order")))
        .unwrap();
    assert_eq!(*done.borrow(), vec![0, 1, 2], "RunDone in run order");
    let indices: Vec<usize> = outcome.runs.iter().map(|r| r.params.index).collect();
    assert_eq!(indices, vec![0, 1, 2]);
    assert_eq!(
        run_records(&outcome.result_dir),
        vec![
            ("started", 0),
            ("completed", 0),
            ("started", 1),
            ("completed", 1),
            ("started", 2),
            ("completed", 2),
        ]
    );
    check("window-order", &outcome.result_dir);
}

#[test]
fn aborting_failure_drains_the_measurements_in_flight() {
    // Run 2 fails every attempt while runs 0 and 1 may still be
    // simulating: both must commit, run 2 stays started-only, and
    // controller.log is the one an unpipelined controller writes.
    let mut spec = descending_spec();
    spec.roles[0].measurement = Script::parse(
        "moongen --rate $pkt_rate --size $pkt_sz --time $run_secs\n\
         fail-at $pkt_rate 150000\n\
         pos_sync run_done\n",
    );
    let mut tb = testbed(&spec);
    tb.register_command(
        "fail-at",
        Rc::new(|_: &mut Testbed, _: &str, argv: &[String]| {
            if argv[1] == argv[2] {
                CommandResult::fail(1, "injected failure")
            } else {
                CommandResult::ok("")
            }
        }),
    );
    let root = tmp("abort");
    let err = Controller::new(&mut tb)
        .run_experiment(&spec, &RunOptions::new(&root))
        .unwrap_err();
    assert!(
        matches!(err, ControllerError::RunFailed { index: 2, .. }),
        "{err}"
    );
    let dir = find_result_dir(&root);
    assert_eq!(
        run_records(&dir),
        vec![
            ("started", 0),
            ("completed", 0),
            ("started", 1),
            ("completed", 1),
            ("started", 2),
        ]
    );
    check("window-abort", &dir);
}

#[test]
fn cancel_checkpoint_discards_the_measurements_in_flight() {
    // The token trips while run 0 commits; run 1's control plane has
    // already run ahead, but nothing of it may become durable. Resume
    // then completes the campaign to the uninterrupted tree.
    let spec = descending_spec();
    let mut tb = testbed(&spec);
    let root = tmp("cancel");
    let opts = RunOptions::new(&root);
    let token = opts.cancel.clone();
    let err = Controller::new(&mut tb)
        .with_progress(move |p| {
            if matches!(p, Progress::RunDone { index: 0, .. }) {
                token.cancel();
            }
        })
        .run_experiment(&spec, &opts)
        .unwrap_err();
    assert!(
        matches!(err, ControllerError::Canceled { completed_runs: 1 }),
        "{err}"
    );
    let dir = find_result_dir(&root);
    assert_eq!(run_records(&dir), vec![("started", 0), ("completed", 0)]);
    assert!(!dir.join("run-0001").exists(), "run 1 left artifacts");
    check("window-cancel", &dir);

    let mut tb = testbed(&spec);
    let stored = ExperimentSpec::from_dir(&dir.join("experiment")).unwrap();
    let outcome = Controller::new(&mut tb)
        .resume_experiment(&dir, &stored, &RunOptions::new(&root))
        .unwrap();
    assert_eq!(outcome.successes(), 3);
    assert_eq!(tree_digest(&dir).unwrap(), expected("window-order"));
}

#[test]
fn measurement_of_a_failed_attempt_is_discarded() {
    // Two measurements around plain output in one script, then a command
    // that fails the first attempt only: the retried attempt's reports
    // land, spliced where their commands ran; the failed attempt's do
    // not.
    let mut spec = descending_spec();
    spec.loop_vars = Variables::new()
        .with("pkt_sz", vec![64i64])
        .with("pkt_rate", vec![20_000i64]);
    spec.roles[0].measurement = Script::parse(
        "echo before\n\
         moongen --rate $pkt_rate --size $pkt_sz --time $run_secs\n\
         echo between\n\
         moongen --rate 40000 --size 1500 --time 1\n\
         flaky-once\n\
         echo after\n\
         pos_sync run_done\n",
    );
    let mut tb = testbed(&spec);
    let failed = Rc::new(Cell::new(false));
    let flag = failed.clone();
    tb.register_command(
        "flaky-once",
        Rc::new(move |_: &mut Testbed, _: &str, _: &[String]| {
            if flag.replace(true) {
                CommandResult::ok("")
            } else {
                CommandResult::fail(1, "first attempt fails")
            }
        }),
    );
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec, &RunOptions::new(tmp("retry")))
        .unwrap();
    assert_eq!(outcome.runs[0].attempts, 2);
    let log = std::fs::read_to_string(outcome.result_dir.join("run-0000/loadgen_measurement.log"))
        .unwrap();
    assert_eq!(log.matches("# moongen-sim:").count(), 2, "{log}");
    let before = log.find("before").unwrap();
    let between = log.find("between").unwrap();
    let after = log.find("after").unwrap();
    let reports: Vec<usize> = log
        .match_indices("# moongen-sim:")
        .map(|(i, _)| i)
        .collect();
    assert!(before < reports[0] && reports[0] < between && between < reports[1]);
    assert!(reports[1] < after);
    check("window-retry", &outcome.result_dir);
}
