//! Reproduction of the paper's evaluation figures.
//!
//! The *shape* criteria (EXPERIMENTS.md records the numbers):
//!
//! * **Fig. 3a** — bare metal: forwarded = offered until ≈1.75 Mpps for
//!   64 B frames; 1500 B frames cap at ≈0.8 Mpps (10 Gbit/s line limit);
//!   below the respective knees the two curves coincide with the ideal.
//! * **Fig. 3b** — vpos: both packet sizes forward loss-free up to
//!   ≈0.04 Mpps and become unstable (noisy, size-dependent) beyond.

use pos_eval::plot::PlotSpec;
use pos_loadgen::scenario::{run_forwarding_experiment, ForwardingScenario, Platform};
use pos_simkernel::SimDuration;

/// One point of a throughput figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigPoint {
    /// Frame wire size in bytes.
    pub pkt_size: usize,
    /// Offered rate in Mpps.
    pub offered_mpps: f64,
    /// Achieved generator TX in Mpps.
    pub tx_mpps: f64,
    /// Forwarded (received back) rate in Mpps.
    pub rx_mpps: f64,
}

/// A reproduced figure: its points plus identification.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Paper figure id, e.g. `"3a"`.
    pub id: &'static str,
    /// Plot title.
    pub title: String,
    /// All measured points, ordered by (size, offered rate).
    pub points: Vec<FigPoint>,
}

impl Figure {
    /// The points of one packet size.
    pub fn series(&self, pkt_size: usize) -> Vec<&FigPoint> {
        self.points
            .iter()
            .filter(|p| p.pkt_size == pkt_size)
            .collect()
    }

    /// Peak forwarded rate of one packet size, in Mpps.
    pub fn peak_rx_mpps(&self, pkt_size: usize) -> f64 {
        self.series(pkt_size)
            .iter()
            .map(|p| p.rx_mpps)
            .fold(0.0, f64::max)
    }

    /// Renders the rows the paper's figure plots.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "# Figure {} — {}\n{:>8} {:>14} {:>10} {:>10}\n",
            self.id, self.title, "pkt_sz", "offered_mpps", "tx_mpps", "rx_mpps"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>8} {:>14.4} {:>10.4} {:>10.4}\n",
                p.pkt_size, p.offered_mpps, p.tx_mpps, p.rx_mpps
            ));
        }
        out
    }

    /// Builds the throughput line plot (one series per packet size).
    pub fn plot(&self) -> PlotSpec {
        let mut plot = PlotSpec::line(
            &format!("Fig. {}: {}", self.id, self.title),
            "offered rate [Mpps]",
            "forwarded rate [Mpps]",
        );
        let mut sizes: Vec<usize> = self.points.iter().map(|p| p.pkt_size).collect();
        sizes.sort_unstable();
        sizes.dedup();
        for size in sizes {
            let points = self
                .series(size)
                .iter()
                .map(|p| (p.offered_mpps, p.rx_mpps))
                .collect();
            plot = plot.with_series(format!("{size} B"), points);
        }
        plot
    }
}

fn sweep(
    id: &'static str,
    title: &str,
    platform: Platform,
    rates_pps: &[f64],
    run_secs: f64,
    seed: u64,
) -> Figure {
    let mut points = Vec::new();
    for &pkt_size in &[64usize, 1500] {
        for &rate in rates_pps {
            let scenario = ForwardingScenario {
                duration: SimDuration::from_secs_f64(run_secs),
                seed: seed ^ (pkt_size as u64) << 32 ^ rate as u64,
                ..ForwardingScenario::new(platform, pkt_size, rate)
            };
            let r = run_forwarding_experiment(&scenario);
            points.push(FigPoint {
                pkt_size,
                offered_mpps: rate / 1e6,
                tx_mpps: r.report.tx_mpps(),
                rx_mpps: r.report.rx_mpps(),
            });
        }
    }
    Figure {
        id,
        title: title.to_owned(),
        points,
    }
}

/// Fig. 3a: bare-metal Linux router, offered 0.1–2.2 Mpps.
///
/// `run_secs` trades fidelity for wall-clock time (the paper uses long
/// runs; ≥0.2 s already shows the shape clearly).
pub fn fig3a(run_secs: f64) -> Figure {
    let rates: Vec<f64> = (1..=22).map(|i| i as f64 * 100_000.0).collect();
    sweep(
        "3a",
        "Linux router on pos (bare metal)",
        Platform::Pos,
        &rates,
        run_secs,
        0x3A,
    )
}

/// Fig. 3b: virtualized Linux router, the Appendix-A sweep of
/// 10–300 kpps in 30 steps.
pub fn fig3b(run_secs: f64) -> Figure {
    let rates: Vec<f64> = (1..=30).map(|i| i as f64 * 10_000.0).collect();
    sweep(
        "3b",
        "Linux router on vpos (KVM + Linux bridges)",
        Platform::Vpos,
        &rates,
        run_secs,
        0x3B,
    )
}

/// A reduced-resolution variant for tests and Criterion (fewer rate steps,
/// same span, same shape checks possible).
pub fn fig_quick(platform: Platform, steps: usize, run_secs: f64) -> Figure {
    let (lo, hi) = match platform {
        Platform::Pos => (100_000.0, 2_200_000.0),
        Platform::Vpos => (10_000.0, 300_000.0),
    };
    let rates: Vec<f64> = (0..steps)
        .map(|i| lo + (hi - lo) * i as f64 / (steps - 1).max(1) as f64)
        .collect();
    sweep("quick", "reduced sweep", platform, &rates, run_secs, 0x51)
}

/// Runs the complete §5 / Appendix A case study through the *full pos
/// workflow* (controller, scripts, result tree, evaluation, publication)
/// and returns the result directory. Used by the `case_study` binary and
/// the `linux_router_study` example.
pub fn case_study(
    result_root: &std::path::Path,
    rate_steps: usize,
    run_secs: u64,
) -> Result<pos_core::controller::ExperimentOutcome, pos_core::controller::ControllerError> {
    case_study_on(result_root, rate_steps, run_secs, Platform::Pos)
}

/// [`case_study`] with an explicit platform: `Platform::Vpos` builds the
/// virtual clone (VM hosts behind the hypervisor init interface), which is
/// the testbed Appendix A actually uses.
pub fn case_study_on(
    result_root: &std::path::Path,
    rate_steps: usize,
    run_secs: u64,
    platform: Platform,
) -> Result<pos_core::controller::ExperimentOutcome, pos_core::controller::ControllerError> {
    use pos_core::commands::register_all;
    use pos_core::controller::{Controller, RunOptions};
    use pos_core::experiment::linux_router_experiment;
    use pos_testbed::{HardwareSpec, InitInterface, PortId, Testbed};

    let (spec_fn, init): (fn() -> HardwareSpec, InitInterface) = match platform {
        Platform::Pos => (HardwareSpec::paper_dut, InitInterface::Ipmi),
        Platform::Vpos => (HardwareSpec::vpos_vm, InitInterface::Hypervisor),
    };
    let mut tb = Testbed::new(0x705);
    tb.add_host("vriga", spec_fn(), init);
    tb.add_host("vtartu", spec_fn(), init);
    tb.topology
        .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
        .expect("fresh ports");
    tb.topology
        .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
        .expect("fresh ports");
    register_all(&mut tb);
    let spec = linux_router_experiment("vriga", "vtartu", rate_steps, run_secs);
    Controller::new(&mut tb).run_experiment(&spec, &RunOptions::new(result_root))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_shape_holds() {
        let fig = fig3a(0.05);
        assert_eq!(fig.points.len(), 44);

        // 64 B: saturates near 1.75 Mpps.
        let peak64 = fig.peak_rx_mpps(64);
        assert!((1.55..1.95).contains(&peak64), "64B peak {peak64}");
        // Below the knee, forwarded tracks offered.
        for p in fig.series(64) {
            if p.offered_mpps <= 1.5 {
                assert!(
                    (p.rx_mpps - p.offered_mpps).abs() / p.offered_mpps < 0.05,
                    "drop-free below saturation: {p:?}"
                );
            }
        }

        // 1500 B: capped by the 10G line at ≈0.8 Mpps.
        let peak1500 = fig.peak_rx_mpps(1500);
        assert!((0.75..0.85).contains(&peak1500), "1500B peak {peak1500}");

        // Who wins by what factor: 64 B peak over 1500 B peak ≈ 2.2×.
        let ratio = peak64 / peak1500;
        assert!((1.8..2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fig3b_shape_holds() {
        let fig = fig3b(0.1);
        assert_eq!(fig.points.len(), 60, "Appendix A: 60 measurements");

        for size in [64, 1500] {
            // Saturation near 0.04 Mpps regardless of size.
            let peak = fig.peak_rx_mpps(size);
            assert!(
                (0.03..0.055).contains(&peak),
                "{size}B peak should be ≈0.04 Mpps, got {peak}"
            );
            // Loss-free at the low end.
            for p in fig.series(size) {
                if p.offered_mpps <= 0.02 {
                    assert!(
                        (p.rx_mpps - p.offered_mpps).abs() / p.offered_mpps < 0.05,
                        "drop-free below VM saturation: {p:?}"
                    );
                }
            }
        }

        // Instability above saturation: the overloaded region varies more
        // (coefficient of variation) than the stable region.
        let over: Vec<f64> = fig
            .series(64)
            .iter()
            .filter(|p| p.offered_mpps > 0.1)
            .map(|p| p.rx_mpps)
            .collect();
        let s = pos_eval::stats::Summary::of(&over).unwrap();
        assert!(
            s.cv().unwrap() > 0.01,
            "overload should be noisy, cv {:?}",
            s.cv()
        );
    }

    #[test]
    fn cross_platform_factor_is_dozens() {
        // The paper: "a decrease in the maximum forwarding throughput by a
        // factor of up to 44".
        let a = fig_quick(Platform::Pos, 4, 0.05);
        let b = fig_quick(Platform::Vpos, 4, 0.1);
        let factor = a.peak_rx_mpps(64) / b.peak_rx_mpps(64);
        assert!((25.0..60.0).contains(&factor), "factor {factor}");
    }

    #[test]
    fn generation_rate_stable_on_both_platforms() {
        // "The generation performance is stable between the two setups for
        // the investigated packet rates" — at 300 kpps the generator
        // achieves its offered rate on pos *and* vpos.
        for platform in [Platform::Pos, Platform::Vpos] {
            let scenario = ForwardingScenario {
                duration: SimDuration::from_millis(200),
                ..ForwardingScenario::new(platform, 64, 300_000.0)
            };
            let r = run_forwarding_experiment(&scenario);
            let tx = r.report.tx_mpps();
            assert!(
                (0.29..0.31).contains(&tx),
                "{platform:?}: generator must sustain 0.3 Mpps, got {tx}"
            );
        }
    }

    #[test]
    fn figure_renders_table_and_plot() {
        let fig = fig_quick(Platform::Pos, 3, 0.02);
        let table = fig.render_table();
        assert!(table.contains("pkt_sz"));
        assert_eq!(table.lines().count(), 2 + 6);
        let svg = fig.plot().render_svg();
        assert!(svg.contains("64 B"));
        assert!(svg.contains("1500 B"));
    }

    #[test]
    fn case_study_completes_every_run() {
        let root = std::env::temp_dir().join(format!("pos-bench-cs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let outcome = case_study(&root, 2, 1).expect("case study");
        assert_eq!(outcome.successes(), 4, "2 rate steps x 2 packet sizes");
        let _ = std::fs::remove_dir_all(&root);
    }
}
