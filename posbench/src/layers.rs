//! The traced run: passes of the campaign workflow through the layers'
//! public functions, one of them traced, then a probe per layer on the
//! same spec (the serve layer on the small-campaign tenant mix).
//! Each metric is named `<layer>.<quantity>`.

use crate::{case_study_spec, put, quantile, run_duration, HostSample, Metrics, Trace};
use pos::core::commands::case_study_testbed;
use pos::core::controller::{Controller, Progress, RunOptions};
use pos::core::experiment::ExperimentSpec;
use pos::core::journal::{Journal, JOURNAL_FILE};
use pos::core::loopvars::RunParams;
use pos::core::resultstore::{tree_digest, ResultStore};
use pos::core::vars::VarValue;
use pos::eval::loader::ResultSet;
use pos::eval::plot::PlotSpec;
use pos::loadgen::scenario::{run_forwarding_experiment, ForwardingScenario, Platform};
use pos::publish::bundle::{verify_dir, Bundle};
use pos::publish::website::{attach_site, SiteInfo};
use pos::sched::{run_parallel, LaneFlavor, ParallelOptions};
use pos::simkernel::SimTime;
use serde::Serialize;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// Top-level spans of the traced campaign workflow; the wall time they
/// leave uncovered is reported as unattributed.
const WORKFLOW_SPANS: [&str; 8] = [
    "testbed.build",
    "core.controller.setup",
    "core.controller.run",
    "core.controller.wrapup",
    "eval.load",
    "eval.render",
    "publish.bundle",
    "publish.verify",
];

/// Untraced passes of the workflow, the baseline of the tracing overhead.
const UNTRACED_PASSES: usize = 3;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Integer value of loop variable `key` of a run.
fn param(run: &RunParams, key: &str) -> Result<i64, String> {
    match run.values.get(key) {
        Some(VarValue::Int(i)) => Ok(*i),
        Some(VarValue::Str(s)) => s.parse().map_err(err),
        other => Err(format!(
            "run {}: loop variable {key} is {other:?}",
            run.index
        )),
    }
}

/// Failures a pass observed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("posbench: check failed: {}", what());
        }
    }
}

/// What one pass of the workflow left behind.
struct Pass {
    /// Wall seconds of the whole pass.
    wall: f64,
    /// Wall seconds of the testbed build and the campaign.
    campaign: f64,
    tree: PathBuf,
    runs: Vec<RunParams>,
    /// Bytes of the published bundle.
    published: u64,
}

/// Instants of the controller's first `SetupDone` and of every `RunDone`.
#[derive(Default)]
struct Marks {
    setup_done: Option<Instant>,
    run_done: Vec<Instant>,
}

/// One pass of the campaign workflow: the testbed is built and the
/// campaign run by `Controller::run_experiment` (the sequential driver),
/// then the tree is evaluated and published. With the trace on, the
/// controller's progress events split the campaign into a setup span, one
/// span per run (each ends at its `RunDone`, so it also holds the previous
/// run's journal tail) and the wrap-up after the last run.
fn workflow_pass(
    spec: &ExperimentSpec,
    virt: bool,
    seed: u64,
    work: &Path,
    tr: &mut Trace,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let mut tb = tr
        .span("testbed.build", || {
            case_study_testbed(spec, seed, virt, false)
        })
        .map_err(err)?;
    let mut opts = RunOptions::new(work.join("results"));
    opts.testbed_flavor = if virt { "vpos" } else { "pos" }.into();
    let marks = Rc::new(RefCell::new(Marks::default()));
    let mut ctl = Controller::new(&mut tb);
    if tr.is_on() {
        let sink = Rc::clone(&marks);
        ctl = ctl.with_progress(move |p| {
            let now = Instant::now();
            let mut marks = sink.borrow_mut();
            match p {
                Progress::SetupDone => {
                    marks.setup_done.get_or_insert(now);
                }
                Progress::RunDone { .. } => marks.run_done.push(now),
                _ => {}
            }
        });
    }
    let started = Instant::now();
    let out = ctl.run_experiment(spec, &opts).map_err(err)?;
    let finished = Instant::now();
    let campaign = (finished - t0).as_secs_f64();
    if tr.is_on() {
        let marks = marks.borrow();
        let setup_done = marks
            .setup_done
            .ok_or("the controller emitted no SetupDone")?;
        tr.record(
            "core.controller.setup",
            (setup_done - started).as_secs_f64(),
        );
        let mut prev = setup_done;
        for &done in &marks.run_done {
            tr.record("core.controller.run", (done - prev).as_secs_f64());
            prev = done;
        }
        tr.record("core.controller.wrapup", (finished - prev).as_secs_f64());
    }
    for run in &out.runs {
        tally.check(run.success, || format!("run {} not ok", run.params.index));
    }
    let runs: Vec<RunParams> = out.runs.iter().map(|r| r.params.clone()).collect();
    let tree = out.result_dir;

    let set = tr
        .span("eval.load", || ResultSet::load(&tree))
        .map_err(err)?;
    tally.check(set.successful().len() == runs.len(), || {
        "eval lost runs".into()
    });
    tr.span("eval.render", || {
        let figures = work.join("figures");
        std::fs::create_dir_all(&figures)?;
        std::fs::write(figures.join("summary.txt"), set.render_summary())?;
        let mut plot = PlotSpec::line(
            "Forwarding throughput",
            "offered [Mpps]",
            "forwarded [Mpps]",
        );
        for (size, group) in &set.group_by("pkt_sz") {
            let series = group
                .series("pkt_rate", |r| Some(r.report()?.rx_mpps()))
                .into_iter()
                .map(|(x, y)| (x / 1e6, y))
                .collect();
            plot = plot.with_series(format!("{size} B"), series);
        }
        for (ext, content) in [
            ("svg", plot.render_svg()),
            ("tex", plot.render_tex()),
            ("csv", plot.render_csv()),
        ] {
            std::fs::write(figures.join(format!("throughput.{ext}")), content)?;
        }
        Ok::<_, std::io::Error>(())
    })
    .map_err(err)?;

    let release = work.join("release");
    let manifest = tr
        .span("publish.bundle", || {
            let mut bundle = Bundle::new("pos experiment artifacts");
            let n = bundle.add_tree(&tree, "")?;
            attach_site(
                &mut bundle,
                &SiteInfo {
                    title: "pos experiment artifacts".into(),
                    description: format!("Artifacts of a pos experiment: {n} files."),
                    repo_url: String::new(),
                },
            );
            bundle.write_dir(&release)
        })
        .map_err(err)?;
    let bad = tr
        .span("publish.verify", || verify_dir(&release))
        .map_err(err)?;
    tally.check(bad.is_empty(), || {
        format!("published bundle fails verification: {bad:?}")
    });
    Ok(Pass {
        wall: t0.elapsed().as_secs_f64(),
        campaign,
        tree,
        runs,
        published: manifest.total_size(),
    })
}

/// Per-point scenario probe: the forwarding experiment of every sweep
/// point, called directly.
fn scenario_probe(
    spec: &ExperimentSpec,
    runs: &[RunParams],
    virt: bool,
    seed: u64,
    tr: &mut Trace,
    m: &mut Metrics,
) -> Result<(), String> {
    let platform = if virt { Platform::Vpos } else { Platform::Pos };
    let (mut events, mut attempted, mut forwarded, mut ring_drops) = (0u64, 0u64, 0u64, 0u64);
    let mut per_size = [(0.0f64, 0u64); 2];
    for run in runs {
        let size = param(run, "pkt_sz")?;
        let mut s =
            ForwardingScenario::new(platform, size as usize, param(run, "pkt_rate")? as f64);
        s.duration = run_duration(spec);
        s.seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ run.index as u64;
        let t = Instant::now();
        let r = tr.span("loadgen.scenario", || run_forwarding_experiment(&s));
        let secs = t.elapsed().as_secs_f64();
        events += r.events;
        attempted += r.report.tx_attempted;
        forwarded += r.router.forwarded;
        ring_drops += r.router.ring_drops;
        let slot = &mut per_size[usize::from(size != 64)];
        slot.0 += secs;
        slot.1 += r.report.tx_attempted;
    }
    let ns_per = |(secs, pkts): (f64, u64)| secs * 1e9 / pkts.max(1) as f64;
    put(m, "simkernel.events", events as f64, "count");
    put(
        m,
        "simkernel.events_per_pkt",
        events as f64 / attempted.max(1) as f64,
        "events/pkt",
    );
    put(m, "loadgen.scenario_s", tr.total("loadgen.scenario"), "s");
    put(m, "loadgen.ns_per_pkt_64", ns_per(per_size[0]), "ns/pkt");
    put(m, "loadgen.ns_per_pkt_1500", ns_per(per_size[1]), "ns/pkt");
    put(
        m,
        "netsim.forwarded_ratio",
        forwarded as f64 / attempted.max(1) as f64,
        "ratio",
    );
    put(m, "netsim.ring_drops", ring_drops as f64, "count");
    Ok(())
}

/// Replays each sealed run's artifacts through the store's write path
/// into a scratch store, and digests the tree.
fn store_probe(
    tree: &Path,
    spec: &ExperimentSpec,
    work: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let source = ResultStore::open(tree);
    let runs = source.list_runs().map_err(err)?;
    let scratch = ResultStore::create(&work.join("replay"), "replay", "replay", SimTime::ZERO)
        .map_err(err)?;
    let (mut bytes, mut files) = (0u64, 0u64);
    let mut write_ms = Vec::new();
    for dir in &runs {
        let meta = ResultStore::read_run_metadata(dir).map_err(err)?;
        let mut outputs = Vec::new();
        for role in &spec.roles {
            let read = |ext: &str| {
                std::fs::read_to_string(dir.join(format!("{}_measurement.{ext}", role.role)))
            };
            let stdout = read("log").map_err(err)?;
            let stderr = read("err").unwrap_or_default();
            let code: i32 = read("status").map_err(err)?.trim().parse().map_err(err)?;
            outputs.push((role.role.clone(), stdout, stderr, code));
        }
        let t = Instant::now();
        for (role, stdout, stderr, code) in &outputs {
            scratch
                .write_run_output(meta.index, role, stdout, stderr, *code)
                .map_err(err)?;
        }
        scratch.write_run_metadata(&meta).map_err(err)?;
        scratch.finalize_run(meta.index).map_err(err)?;
        write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for entry in std::fs::read_dir(dir).map_err(err)? {
            let entry = entry.map_err(err)?;
            files += 1;
            bytes += entry.metadata().map_err(err)?.len();
        }
    }
    let n = runs.len().max(1) as f64;
    let t = Instant::now();
    tree_digest(tree).map_err(err)?;
    put(
        m,
        "core.resultstore.write_ms_per_run",
        quantile(&write_ms, 0.5),
        "ms",
    );
    put(
        m,
        "core.resultstore.digest_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    put(m, "core.resultstore.bytes_per_run", bytes as f64 / n, "B");
    put(
        m,
        "core.resultstore.files_per_run",
        files as f64 / n,
        "count",
    );
    Ok(())
}

/// Re-appends the campaign's own journal records durably into a scratch
/// journal.
fn journal_probe(tree: &Path, runs: usize, work: &Path, m: &mut Metrics) -> Result<(), String> {
    let replay = Journal::replay(&tree.join(JOURNAL_FILE)).map_err(err)?;
    let mut scratch = Journal::create(work.join("journal-replay.log")).map_err(err)?;
    let mut append_us = Vec::with_capacity(replay.records.len());
    for rec in &replay.records {
        let t = Instant::now();
        scratch.append(rec).map_err(err)?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    put(
        m,
        "core.journal.append_us_p50",
        quantile(&append_us, 0.5),
        "us",
    );
    put(
        m,
        "core.journal.records_per_run",
        replay.records.len() as f64 / runs.max(1) as f64,
        "count",
    );
    Ok(())
}

/// The campaign through the parallel scheduler at two lanes, set against
/// `lanes1`, the median wall time of the untraced passes' testbed build and
/// campaign through the sequential driver.
fn sched_probe(
    spec: &ExperimentSpec,
    virt: bool,
    seed: u64,
    lanes1: f64,
    work: &Path,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<PathBuf, String> {
    let mut opts = RunOptions::new(work.to_path_buf());
    opts.testbed_flavor = if virt { "vpos" } else { "pos" }.into();
    let t = Instant::now();
    let out = run_parallel(spec, &opts, &ParallelOptions::new(2), &mut |_, lane| {
        case_study_testbed(spec, seed, virt || lane == LaneFlavor::Virtual, true)
    })
    .map_err(err)?;
    let lanes2 = t.elapsed().as_secs_f64();
    tally.check(out.outcome.failed_runs.is_empty(), || {
        "lanes=2 campaign had failed runs".into()
    });
    put(m, "sched.wall_s_lanes1", lanes1, "s");
    put(m, "sched.wall_s_lanes2", lanes2, "s");
    put(m, "sched.wall_speedup", lanes1 / lanes2, "x");
    put(m, "sched.virtual_speedup", out.speedup(), "x-virtual");
    Ok(out.outcome.result_dir)
}

fn host_metrics(m: &mut Metrics, wall: f64, before: HostSample, after: HostSample) {
    let cpu = after.cpu_s - before.cpu_s;
    put(m, "host.cpu_s", cpu, "s");
    put(m, "host.wait_s", wall - cpu, "s");
    put(
        m,
        "host.vol_ctx_switches",
        after.vol_ctx - before.vol_ctx,
        "count",
    );
    put(
        m,
        "host.write_syscalls",
        after.write_syscalls - before.write_syscalls,
        "count",
    );
    put(
        m,
        "host.write_mb",
        (after.write_bytes - before.write_bytes) / 1e6,
        "MB",
    );
}

/// The report of the traced run.
#[derive(Serialize)]
pub struct Report {
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks failed.
    pub failed: u64,
    /// Result trees to hold to `pos fsck` and the golden digest.
    pub golden_trees: Vec<PathBuf>,
    /// Result trees to hold to `pos fsck` only: vpos at two lanes runs on
    /// clone replicas, a path the CLI refuses, and its tree is not the
    /// sequential one.
    pub fsck_trees: Vec<PathBuf>,
}

/// The traced run of `workload`: untraced passes of the workflow around
/// one traced pass, whose wall time is set against their median, then the
/// per-layer probes.
pub fn trace(workload: &str, seed: u64, work: &Path) -> Result<Report, String> {
    let virt = match workload {
        "case_study_pos" => false,
        "case_study_vpos" => true,
        other => return Err(format!("unknown workload {other}")),
    };
    let spec = case_study_spec();
    let mut tr = Trace::on();
    let mut m = Metrics::new();
    let mut tally = Tally::default();

    // The traced pass is the second, so it runs as warm as the untraced
    // ones.
    let (mut traced, mut untraced_wall, mut campaign) = (None, Vec::new(), Vec::new());
    let mut golden_trees = Vec::new();
    for i in 0..=UNTRACED_PASSES {
        let dir = work.join(format!("pass-{i}"));
        let pass = if i == 1 {
            let before = HostSample::now();
            let pass = workflow_pass(&spec, virt, seed, &dir, &mut tr, &mut tally)?;
            host_metrics(&mut m, pass.wall, before, HostSample::now());
            pass
        } else {
            let pass = workflow_pass(&spec, virt, seed, &dir, &mut Trace::off(), &mut tally)?;
            untraced_wall.push(pass.wall);
            campaign.push(pass.campaign);
            pass
        };
        golden_trees.push(pass.tree.clone());
        if i == 1 {
            traced = Some(pass);
        }
    }
    let Pass {
        wall,
        tree,
        runs,
        published,
        ..
    } = traced.ok_or("no traced pass")?;
    let covered: f64 = WORKFLOW_SPANS.iter().map(|s| tr.total(s)).sum();
    put(
        &mut m,
        "trace.overhead_ratio",
        wall / quantile(&untraced_wall, 0.5),
        "ratio",
    );
    put(
        &mut m,
        "trace.unattributed_ratio",
        (wall - covered) / wall,
        "ratio",
    );

    let ms = |xs: Vec<f64>, q: f64| quantile(&xs, q) * 1e3;
    for (metric, span) in [
        ("testbed.build_ms", "testbed.build"),
        ("core.controller.setup_ms", "core.controller.setup"),
        ("eval.load_ms", "eval.load"),
        ("eval.render_ms", "eval.render"),
        ("publish.bundle_ms", "publish.bundle"),
        ("publish.verify_ms", "publish.verify"),
    ] {
        put(&mut m, metric, tr.total(span) * 1e3, "ms");
    }
    let runs_ms = tr.durations("core.controller.run");
    put(
        &mut m,
        "core.controller.run_ms_p50",
        ms(runs_ms.clone(), 0.5),
        "ms",
    );
    put(&mut m, "publish.bytes", published as f64, "B");

    scenario_probe(&spec, &runs, virt, seed, &mut tr, &mut m)?;
    let overhead: Vec<f64> = runs_ms
        .iter()
        .zip(tr.durations("loadgen.scenario"))
        .map(|(run, scenario)| run - scenario)
        .collect();
    put(
        &mut m,
        "core.controller.run_overhead_ms_p50",
        ms(overhead, 0.5),
        "ms",
    );
    store_probe(&tree, &spec, work, &mut m)?;
    journal_probe(&tree, runs.len(), work, &mut m)?;
    let lanes2 = sched_probe(
        &spec,
        virt,
        seed,
        quantile(&campaign, 0.5),
        &work.join("lanes2"),
        &mut tally,
        &mut m,
    )?;
    let (attempted, failed) = crate::serve::probe(seed, &work.join("serve"), &mut m)?;
    tally.attempted += attempted;
    tally.failed += failed;

    let fsck_trees = if virt {
        vec![lanes2]
    } else {
        golden_trees.push(lanes2);
        Vec::new()
    };
    Ok(Report {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        golden_trees,
        fsck_trees,
    })
}
