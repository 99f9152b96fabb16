//! # pos-bench
//!
//! The reproduction harness: for every table and figure in the paper's
//! evaluation there is a function here and a binary wrapping it.
//!
//! | paper artifact | function | binary |
//! |---|---|---|
//! | Fig. 3a (bare-metal forwarding) | [`figures::fig3a`] | `fig3a` |
//! | Fig. 3b (virtualized forwarding) | [`figures::fig3b`] | `fig3b` |
//! | Table 1 (testbed comparison) | `pos_core::requirements::render_table1` | `table1` |
//! | §5 full case study | [`figures::case_study`] | `case_study` |
//!
//! Plus the DESIGN.md ablations in [`ablations`] (binaries
//! `ablation_wiring`, `ablation_cleanslate`, `ablation_crossproduct`,
//! `ablation_loadgen`), the §2 packet-size sweep in [`robustness`]
//! (binary `robustness`), and the event-kernel throughput probes in
//! [`kernel`] (binary `kernel`, with its CI regression floors).
//!
//! The campaign stack's deterministic claims (lane speedup, failover
//! cost, chaos replay, storage recovery, DAG fan-out) are checked by the
//! root package's integration tests, not here.

pub mod ablations;
pub mod figures;

/// Reads an `f64` knob from the environment, falling back to a default —
/// used to scale run durations between quick CI runs and full
/// paper-fidelity sweeps.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_f64_parses_and_defaults() {
        std::env::set_var("POS_BENCH_TEST_KNOB", "2.5");
        assert_eq!(env_f64("POS_BENCH_TEST_KNOB", 1.0), 2.5);
        std::env::set_var("POS_BENCH_TEST_KNOB", "junk");
        assert_eq!(env_f64("POS_BENCH_TEST_KNOB", 1.0), 1.0);
        std::env::remove_var("POS_BENCH_TEST_KNOB");
        assert_eq!(env_f64("POS_BENCH_TEST_KNOB", 3.0), 3.0);
    }
}

/// Robustness sweep (packet-size sensitivity), see the `robustness` binary.
pub mod robustness {
    use pos_loadgen::scenario::{run_forwarding_experiment, ForwardingScenario, Platform};
    use pos_simkernel::SimDuration;

    /// One row of the sweep.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RobustnessRow {
        /// Frame wire size.
        pub pkt_size: usize,
        /// Forwarded rate in Mpps.
        pub rx_mpps: f64,
        /// Forwarded rate in Gbit/s (wire bytes).
        pub rx_gbit: f64,
        /// Which resource limited this point.
        pub bottleneck: &'static str,
    }

    /// Sweeps frame sizes 64..1518 at an offered rate far above both
    /// limits, so every point shows its regime's ceiling.
    pub fn sweep_packet_sizes(run_secs: f64) -> Vec<RobustnessRow> {
        let sizes = [
            64usize, 128, 256, 384, 512, 640, 768, 896, 960, 1000, 1024, 1152, 1280, 1408, 1500,
            1518,
        ];
        sizes
            .iter()
            .map(|&pkt_size| {
                let scenario = ForwardingScenario {
                    duration: SimDuration::from_secs_f64(run_secs),
                    seed: 0x52 ^ pkt_size as u64,
                    ..ForwardingScenario::new(Platform::Pos, pkt_size, 2_500_000.0)
                };
                let r = run_forwarding_experiment(&scenario);
                let rx_mpps = r.report.rx_mpps();
                let rx_gbit = r.report.rx_frames as f64 * (pkt_size as f64 + 20.0) * 8.0
                    / scenario.duration.as_secs_f64()
                    / 1e9;
                let bottleneck = if r.router.ring_drops > 0 {
                    "router CPU"
                } else {
                    "10G line"
                };
                RobustnessRow {
                    pkt_size,
                    rx_mpps,
                    rx_gbit,
                    bottleneck,
                }
            })
            .collect()
    }

    /// The size where the bottleneck flips from CPU to line rate.
    pub fn crossover_size(rows: &[RobustnessRow]) -> usize {
        rows.iter()
            .find(|r| r.bottleneck == "10G line")
            .map(|r| r.pkt_size)
            .unwrap_or(0)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn crossover_falls_near_980_bytes() {
            // Analytic: the CPU service time 556 + 0.25·(s−4) ns equals the
            // line time (s+20)·8/10 ns at s ≈ 980 B.
            let rows = sweep_packet_sizes(0.05);
            let crossover = crossover_size(&rows);
            assert!(
                (896..=1024).contains(&crossover),
                "crossover at {crossover} B, expected ≈980"
            );
            // Below the crossover the rate tracks the size-dependent CPU
            // limit; above it the wire saturates near 10 Gbit/s.
            let profile = pos_netsim::router::ServiceProfile::bare_metal();
            let below: Vec<&RobustnessRow> = rows
                .iter()
                .filter(|r| r.bottleneck == "router CPU")
                .collect();
            let above: Vec<&RobustnessRow> =
                rows.iter().filter(|r| r.bottleneck == "10G line").collect();
            assert!(below.len() >= 2 && above.len() >= 2);
            for r in &below {
                let cpu_limit = profile.saturation_pps(r.pkt_size - 4) / 1e6;
                let err = (r.rx_mpps - cpu_limit).abs() / cpu_limit;
                assert!(err < 0.05, "{r:?} vs CPU limit {cpu_limit}");
            }
            for r in &above {
                assert!((9.0..10.2).contains(&r.rx_gbit), "{r:?}");
            }
        }
    }
}

/// Kernel hot-path throughput: raw event-queue churn and simulated
/// packets/sec through the case-study topology, see the `kernel` binary.
pub mod kernel {
    use pos_loadgen::scenario::{run_forwarding_experiment, ForwardingScenario, Platform};
    use pos_simkernel::{EventQueue, SimDuration, SimRng, SimTime};
    use serde::Serialize;
    use std::time::Instant;

    /// Raw schedule+pop churn numbers.
    #[derive(Debug, Clone, Serialize)]
    pub struct QueueChurnReport {
        /// Events scheduled and popped.
        pub events: u64,
        /// Pending events held while churning.
        pub pending: u64,
        /// Wall-clock time for the churn loop, in milliseconds.
        pub wall_ms: f64,
        /// Schedule+pop pairs per wall second.
        pub events_per_sec: f64,
    }

    /// One packet-path row: the case-study topology at a fixed size.
    #[derive(Debug, Clone, Serialize)]
    pub struct PacketPathReport {
        /// Frame wire size in bytes.
        pub pkt_size: usize,
        /// Offered rate in packets per second (virtual time).
        pub offered_pps: f64,
        /// Packets the generator attempted.
        pub sim_packets: u64,
        /// Packets the DuT forwarded.
        pub forwarded: u64,
        /// Simulation events processed.
        pub sim_events: u64,
        /// Wall-clock time for the run, in milliseconds.
        pub wall_ms: f64,
        /// Simulated (attempted) packets per wall second.
        pub sim_packets_per_sec: f64,
        /// Simulation events per wall second.
        pub sim_events_per_sec: f64,
    }

    /// Churns `total` schedule+pop pairs over a queue holding `pending`
    /// events, with the engine's event-horizon shape: mostly near-future
    /// reschedules (serialization timers, link propagation) plus a
    /// far-future tail (measurement-duration timers) that lands in the
    /// wheel's overflow level.
    pub fn queue_churn(total: u64, pending: u64) -> QueueChurnReport {
        const HORIZON_NS: u64 = 1_000_000; // ~1 ms lookahead
        let mut rng = SimRng::new(0xEE).derive("kernel-churn");
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..pending {
            q.schedule(SimTime::from_nanos(rng.uniform_u64(HORIZON_NS)), i);
        }
        let start = Instant::now();
        let mut acc = 0u64;
        for n in 0..total {
            let (t, v) = q.pop().expect("churn queue never drains");
            acc = acc.wrapping_add(v);
            let delta = if n % 1024 == 0 {
                // Far-future: beyond any wheel horizon.
                HORIZON_NS * 1_000 + rng.uniform_u64(HORIZON_NS * 10_000)
            } else {
                rng.uniform_u64(HORIZON_NS)
            };
            q.schedule(t + SimDuration::from_nanos(delta), v);
        }
        std::hint::black_box(acc);
        let wall = start.elapsed();
        QueueChurnReport {
            events: total,
            pending,
            wall_ms: wall.as_secs_f64() * 1e3,
            events_per_sec: total as f64 / wall.as_secs_f64(),
        }
    }

    /// Runs the bare-metal case-study forwarding topology (MoonGen → Linux
    /// router → back) for `run_secs` of virtual time and measures simulated
    /// packets per wall second.
    pub fn packet_path(pkt_size: usize, rate_pps: f64, run_secs: f64) -> PacketPathReport {
        let mut s = ForwardingScenario::new(Platform::Pos, pkt_size, rate_pps);
        s.duration = SimDuration::from_secs_f64(run_secs);
        let start = Instant::now();
        let r = run_forwarding_experiment(&s);
        let wall = start.elapsed();
        PacketPathReport {
            pkt_size,
            offered_pps: rate_pps,
            sim_packets: r.report.tx_attempted,
            forwarded: r.router.forwarded,
            sim_events: r.events,
            wall_ms: wall.as_secs_f64() * 1e3,
            sim_packets_per_sec: r.report.tx_attempted as f64 / wall.as_secs_f64(),
            sim_events_per_sec: r.events as f64 / wall.as_secs_f64(),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn churn_conserves_events() {
            let r = queue_churn(10_000, 256);
            assert_eq!(r.events, 10_000);
            assert!(r.events_per_sec > 0.0);
        }

        #[test]
        fn packet_path_forwards_below_saturation() {
            let r = packet_path(64, 200_000.0, 0.05);
            assert!(r.sim_packets >= 9_999, "got {}", r.sim_packets);
            assert_eq!(r.forwarded, r.sim_packets);
            // Inline delivery + burst pacing amortize the event queue far
            // below one event per packet on the clean-path topology.
            assert!(r.sim_events > 0);
            assert!(r.sim_events < r.sim_packets);
        }
    }
}
