//! Packet-size robustness (§2): Zilberman's NDP artifact evaluation
//! warns of "low robustness, i.e., small variation from the original
//! input, such as the investigated packet size, could lead to a
//! significantly different performance." The sweep varies packet size
//! finely at a fixed offered rate and shows where the bare-metal
//! bottleneck flips from CPU to line rate — the regime boundary where
//! small size changes flip conclusions.
//!
//! Usage: `cargo run --release -p pos-bench --bin robustness`
//! Env: `POS_RUN_SECS` (virtual seconds per size, default 0.2).

use pos_bench::{env_f64, robustness};

fn main() {
    let rows = robustness::sweep_packet_sizes(env_f64("POS_RUN_SECS", 0.2));
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "size [B]", "rx [Mpps]", "rx [Gbit/s]", "bottleneck"
    );
    for r in &rows {
        println!(
            "{:>8} {:>12.4} {:>12.3} {:>14}",
            r.pkt_size, r.rx_mpps, r.rx_gbit, r.bottleneck
        );
    }
    let crossover = robustness::crossover_size(&rows);
    println!(
        "\ncrossover at ≈{crossover} B (model: ≈980 B): below, the router CPU limits \
         (falling Mpps as per-byte cost grows); above, the 10G line limits \
         (≈9.8 Gbit/s flat).\n\
         Conclusions measured only at 64 B or only at 1500 B would each miss one regime."
    );
}
