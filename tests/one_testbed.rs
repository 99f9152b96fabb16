//! One testbed per campaign: every lane of a campaign runs the
//! campaign's own testbed, so neither the lane count nor a site with
//! fewer replica sets than lanes changes a tree's bytes.
//!
//! * `pos run` asking for more lanes than the site has replica sets plans
//!   one lane per set, says so once, and leaves the one-lane tree;
//! * `pos run --testbed vpos --lanes 2` boots every lane on lane 0's
//!   clone seed and leaves the one-lane vpos tree;
//! * `pos dag run` on the in-process target does the same for a DAG,
//!   and a vpos DAG measures on the clone seed `pos run` derives;
//! * a tree that does mix testbeds — a `pos` campaign whose journal
//!   records a `vpos` lane — is named by `pos fsck` and refused by
//!   `pos resume`.

use pos::core::fsck::fsck;
use pos::core::journal::{Journal, JournalRecord, JOURNAL_FILE};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn run(dir: &Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pos"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn pos binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A fresh directory holding the case-study experiment (`exp/`, or a
/// DAG study with `dag`) cut down to 64 B at 10 and 20 kpps, 1 s runs.
fn scaffold(name: &str, dag: bool) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pos-one-testbed-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let init: &[&str] = if dag {
        &["dag", "init", "exp"]
    } else {
        &["init", "exp"]
    };
    let (ok, _, stderr) = run(&dir, init);
    assert!(ok, "init failed: {stderr}");
    fs::write(
        dir.join("exp/loop-variables.yml"),
        "pkt_sz: [64]\npkt_rate: [10000, 20000]\n",
    )
    .unwrap();
    fs::write(
        dir.join("exp/global-variables.yml"),
        "dut_ip0: 10.0.0.1\ndut_ip1: 10.0.1.1\nrun_secs: 1\n",
    )
    .unwrap();
    dir
}

/// Runs `pos <args>` in `dir`, which must succeed, and returns its
/// stdout and the tree it printed after `marker`.
fn run_tree(dir: &Path, args: &[&str], marker: &str) -> (String, PathBuf) {
    let (ok, stdout, stderr) = run(dir, args);
    assert!(ok, "pos {args:?} failed: {stderr}\n{stdout}");
    let tree = stdout
        .lines()
        .find_map(|l| l.strip_prefix(marker))
        .unwrap_or_else(|| panic!("no `{marker}` line:\n{stdout}"))
        .trim();
    let tree = dir.join(tree);
    (stdout, tree)
}

/// Every file under `root` (relative path → bytes) except journals.
fn snapshot(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if !path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("journal")
            {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

fn assert_same_tree(want: &Path, got: &Path, what: &str) {
    let (want, got) = (snapshot(want), snapshot(got));
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "{what}: file sets differ"
    );
    for (rel, bytes) in &want {
        assert!(bytes == &got[rel], "{what}: `{rel}` differs");
    }
}

/// The lane labels a campaign journal plans.
fn lane_plan(tree: &Path) -> Vec<String> {
    Journal::replay(&tree.join(JOURNAL_FILE))
        .unwrap()
        .records
        .into_iter()
        .find_map(|r| match r {
            JournalRecord::LanePlan { flavors, .. } => Some(flavors),
            _ => None,
        })
        .expect("journal has a LanePlan")
}

#[test]
fn pos_run_beyond_the_site_matches_one_lane() {
    let dir = scaffold("clamp", false);
    let (_, one) = run_tree(&dir, &["run", "exp", "--results", "one"], "result tree: ");
    let (stdout, three) = run_tree(
        &dir,
        &[
            "run",
            "exp",
            "--results",
            "three",
            "--lanes",
            "3",
            "--site-replicas",
            "1",
        ],
        "result tree: ",
    );
    assert_same_tree(&one, &three, "--lanes 3 --site-replicas 1 vs --lanes 1");
    assert_eq!(lane_plan(&three), vec!["pos"]);
    assert!(fsck(&three).unwrap().is_clean());
    assert_eq!(
        stdout.matches("exceeds the site").count(),
        1,
        "the clamp is noted exactly once:\n{stdout}"
    );
    assert!(stdout.contains("lanes: 1 [pos]"), "{stdout}");
}

#[test]
fn vpos_run_on_two_lanes_matches_one_lane() {
    let dir = scaffold("vpos", false);
    let (_, one) = run_tree(
        &dir,
        &["run", "exp", "--results", "one", "--testbed", "vpos"],
        "result tree: ",
    );
    let (stdout, two) = run_tree(
        &dir,
        &[
            "run",
            "exp",
            "--results",
            "two",
            "--testbed",
            "vpos",
            "--lanes",
            "2",
        ],
        "result tree: ",
    );
    assert!(stdout.contains("lanes: 2 [vpos,vpos]"), "{stdout}");
    assert_eq!(lane_plan(&two), vec!["vpos", "vpos"]);
    assert_same_tree(&one, &two, "vpos --lanes 2 vs --lanes 1");
    assert!(fsck(&two).unwrap().is_clean());
}

#[test]
fn dag_run_beyond_the_site_matches_one_lane() {
    let dir = scaffold("dag", true);
    let (_, one) = run_tree(
        &dir,
        &["dag", "run", "exp", "--results", "one"],
        "results: ",
    );
    let (_, three) = run_tree(
        &dir,
        &[
            "dag",
            "run",
            "exp",
            "--results",
            "three",
            "--lanes",
            "3",
            "--site-replicas",
            "1",
        ],
        "results: ",
    );
    assert_same_tree(&one, &three, "dag --lanes 3 --site-replicas 1 vs --lanes 1");
}

/// The bytes of the one `run-0000/loadgen_measurement.log` under `root`.
fn first_measurement(root: &Path) -> Vec<u8> {
    let mut hits: Vec<Vec<u8>> = snapshot(root)
        .into_iter()
        .filter(|(rel, _)| rel.ends_with("run-0000/loadgen_measurement.log"))
        .map(|(_, bytes)| bytes)
        .collect();
    assert_eq!(hits.len(), 1, "one first run under {}", root.display());
    hits.remove(0)
}

#[test]
fn vpos_dag_measures_on_the_campaign_clone_seed() {
    // A vpos DAG's sweep boots on the clone seed `pos run --testbed
    // vpos` derives from the user seed, so the same experiment and seed
    // measure the same bytes through either command.
    let dir = scaffold("vpos-dag", false);
    let vpos = ["--testbed", "vpos", "--seed", "7"];
    let (_, campaign) = run_tree(
        &dir,
        &[&["run", "exp", "--results", "campaign"][..], &vpos].concat(),
        "result tree: ",
    );
    let (_, dag) = run_tree(
        &dir,
        &[&["dag", "run", "exp", "--results", "dag"][..], &vpos].concat(),
        "results: ",
    );
    assert!(
        first_measurement(&campaign) == first_measurement(&dag),
        "the vpos DAG measured other bytes than the vpos campaign"
    );
}

/// Rewrites the journal of `tree` record by record through `edit`.
fn rewrite_journal(tree: &Path, edit: impl Fn(JournalRecord) -> Vec<JournalRecord>) {
    let path = tree.join(JOURNAL_FILE);
    let records = Journal::replay(&path).unwrap().records;
    let mut journal = Journal::create(&path).unwrap();
    for rec in records.into_iter().flat_map(edit) {
        journal.append(&rec).unwrap();
    }
}

#[test]
fn fsck_and_resume_name_a_mixed_testbed_tree() {
    let dir = scaffold("mixed", false);
    let tree = |results| {
        let args = ["run", "exp", "--results", results, "--lanes", "2"];
        run_tree(&dir, &args, "result tree: ").1
    };
    let (planned, replanned, relabeled) = (tree("planned"), tree("replanned"), tree("relabeled"));

    // A `pos` campaign whose plan put lane 1 on a vpos clone ...
    rewrite_journal(&planned, |rec| match rec {
        JournalRecord::LanePlan { lanes, .. } => vec![JournalRecord::LanePlan {
            lanes,
            flavors: vec!["pos".into(), "vpos".into()],
        }],
        rec => vec![rec],
    });
    // ... or whose failover replanned a vpos clone.
    rewrite_journal(&replanned, |rec| match rec {
        JournalRecord::SupervisorPlan { .. } => vec![
            rec,
            JournalRecord::LaneReplanned {
                lane: 2,
                flavor: "vpos".into(),
                at_ns: 0,
            },
        ],
        rec => vec![rec],
    });
    for (tree, lanes) in [(&planned, "[1]"), (&replanned, "[2]")] {
        let report = fsck(tree).unwrap();
        let rendered = report.render();
        assert!(!report.is_clean(), "{rendered}");
        let finding = format!("mixed testbeds: the `pos` campaign ran lane(s) {lanes} on `vpos`");
        assert!(rendered.contains(&finding), "{rendered}");

        let tree = tree.display().to_string();
        let (ok, stdout, _) = run(&dir, &["fsck", &tree]);
        assert!(!ok && stdout.contains(&finding), "{stdout}");
        let (ok, _, stderr) = run(&dir, &["resume", &tree]);
        assert!(!ok, "resume must refuse a mixed-testbed tree");
        assert!(stderr.contains(&finding), "{stderr}");
    }

    // A `vpos` campaign whose plan says `pos` ran every lane on a clone:
    // not mixed.
    rewrite_journal(&relabeled, |rec| match rec {
        JournalRecord::CampaignStarted {
            seed,
            spec_digest,
            total_runs,
            started_ns,
            ..
        } => vec![JournalRecord::CampaignStarted {
            seed,
            spec_digest,
            total_runs,
            testbed: "vpos".into(),
            started_ns,
        }],
        rec => vec![rec],
    });
    let report = fsck(&relabeled).unwrap();
    assert!(report.is_clean(), "{}", report.render());
}
