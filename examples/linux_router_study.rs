//! The complete §5 / Appendix A case study, end to end:
//!
//! 1. **Setup + measurement phases** — the Linux-router forwarding
//!    experiment (packet sizes {64, 1500} B × a rate sweep) through the
//!    full pos workflow on the simulated hardware testbed.
//! 2. **Evaluation phase** — parse the MoonGen outputs, build the
//!    throughput figure, export SVG/TeX/CSV.
//! 3. **Publication phase** — bundle scripts, variables, results, figures
//!    and the generated website into a release directory plus a tar
//!    archive, with a hashed manifest.
//!
//! Run with: `cargo run --release --example linux_router_study`
//! Env: `POS_RATE_STEPS` (default 10), `POS_RUN_SECS` (default 1).

use pos::eval::loader::ResultSet;
use pos::eval::plot::PlotSpec;
use pos::publish::bundle::Bundle;
use pos::publish::website::{attach_site, SiteInfo};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let rate_steps = env_usize("POS_RATE_STEPS", 10);
    let run_secs = env_usize("POS_RUN_SECS", 1) as u64;
    let root = std::env::temp_dir().join("pos-router-study");

    // ------------------------------------------------- experiment phases
    println!("running the case study ({rate_steps} rates x 2 sizes, {run_secs}s runs)...");
    let outcome = case_study(&root, rate_steps, run_secs);
    println!(
        "  {} runs, {} ok, {} virtual time",
        outcome.runs.len(),
        outcome.successes(),
        outcome.finished - outcome.started
    );

    // --------------------------------------------------- evaluation phase
    let set = ResultSet::load(&outcome.result_dir).expect("load result tree");
    let mut plot = PlotSpec::line(
        "Linux router forwarding (pos, bare metal)",
        "offered rate [Mpps]",
        "forwarded rate [Mpps]",
    );
    for (size, group) in set.group_by("pkt_sz") {
        let series = group.series("pkt_rate", |r| {
            let rep = r.report()?;
            Some(rep.rx_mpps())
        });
        let series: Vec<(f64, f64)> = series.into_iter().map(|(x, y)| (x / 1e6, y)).collect();
        println!("  pkt_sz={size}: {} points", series.len());
        plot = plot.with_series(format!("{size} B"), series);
    }
    let figures_dir = outcome.result_dir.join("figures");
    std::fs::create_dir_all(&figures_dir).expect("mkdir figures");
    std::fs::write(figures_dir.join("throughput.svg"), plot.render_svg()).expect("svg");
    std::fs::write(figures_dir.join("throughput.tex"), plot.render_tex()).expect("tex");
    std::fs::write(figures_dir.join("throughput.csv"), plot.render_csv()).expect("csv");
    println!("  figures written to {}", figures_dir.display());

    // -------------------------------------------------- publication phase
    let mut bundle = Bundle::new("linux-router-forwarding");
    let n = bundle
        .add_tree(&outcome.result_dir, "")
        .expect("collect artifacts");
    attach_site(
        &mut bundle,
        &SiteInfo {
            title: "pos case study: Linux router forwarding performance".into(),
            description: "Throughput of a Linux software router for 64 B and 1500 B packets, \
                          measured with a MoonGen-style load generator through the pos \
                          experiment workflow. All scripts, parameters, per-run results and \
                          metadata are included."
                .into(),
            repo_url: "https://example.org/pos-artifacts".into(),
        },
    );
    let release_dir = std::env::temp_dir().join("pos-router-study-release");
    let _ = std::fs::remove_dir_all(&release_dir);
    let manifest = bundle.write_dir(&release_dir).expect("write release");
    let tar_path = release_dir.join("pos-artifacts.tar");
    let mut tar = Vec::new();
    bundle.write_tar(&mut tar).expect("write tar");
    std::fs::write(&tar_path, &tar).expect("store tar");
    println!(
        "\npublished {} artifacts ({} files from the result tree) to {}",
        manifest.files.len(),
        n,
        release_dir.display()
    );
    println!("  archive: {} ({} bytes)", tar_path.display(), tar.len());
    println!(
        "  open {}/index.html for the artifact website",
        release_dir.display()
    );
}

/// The case-study campaign on the bare-metal testbed the `pos` CLI
/// builds for it, seed `0x705`.
fn case_study(
    root: &std::path::Path,
    rate_steps: usize,
    run_secs: u64,
) -> pos::core::controller::ExperimentOutcome {
    use pos::core::commands::case_study_testbed;
    use pos::core::controller::{Controller, RunOptions};
    use pos::core::experiment::linux_router_experiment;

    let spec = linux_router_experiment("vriga", "vtartu", rate_steps, run_secs);
    let mut tb = case_study_testbed(&spec, 0x705, false, true).expect("case-study topology");
    Controller::new(&mut tb)
        .run_experiment(&spec, &RunOptions::new(root))
        .expect("case study experiment")
}
