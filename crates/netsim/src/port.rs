//! NIC ports: line-rate serialization, transmit queues, and counters.

use pos_packet::wire_bits;
use pos_simkernel::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static configuration of a NIC port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortConfig {
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// Transmit queue capacity in frames (hardware descriptor ring).
    pub tx_queue_frames: usize,
}

impl PortConfig {
    /// A 10 Gbit/s port, like the Intel 82599 in the paper's DuT.
    pub fn ten_gbe() -> PortConfig {
        PortConfig {
            rate_bps: 10_000_000_000,
            tx_queue_frames: 512,
        }
    }

    /// A 1 Gbit/s port.
    pub fn one_gbe() -> PortConfig {
        PortConfig {
            rate_bps: 1_000_000_000,
            tx_queue_frames: 256,
        }
    }

    /// A virtio-style paravirtual port: no serial line; the "wire" is a
    /// memory copy, so the effective rate is high and the queue deep.
    pub fn virtio() -> PortConfig {
        PortConfig {
            rate_bps: 40_000_000_000,
            tx_queue_frames: 1024,
        }
    }

    /// Serialization time of a frame of `wire_size` bytes at this rate.
    pub fn serialization_time(&self, wire_size: usize) -> SimDuration {
        let bits = wire_bits(wire_size);
        // ceil(bits * 1e9 / rate) nanoseconds; u128 avoids overflow.
        let ns = (u128::from(bits) * 1_000_000_000).div_ceil(u128::from(self.rate_bps));
        SimDuration::from_nanos(ns as u64)
    }
}

/// Traffic counters of one port, in both directions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortCounters {
    /// Frames accepted for transmission. Counted when the frame is
    /// submitted and admitted to the queue, so the count includes frames
    /// whose serialization ends after the current instant.
    pub tx_frames: u64,
    /// Wire bytes of the frames counted in `tx_frames` (FCS included,
    /// preamble/IFG excluded).
    pub tx_bytes: u64,
    /// Frames dropped because the transmit queue was full.
    pub tx_queue_drops: u64,
    /// Frames received intact.
    pub rx_frames: u64,
    /// Wire bytes received.
    pub rx_bytes: u64,
    /// Frames discarded due to a bad FCS (fault-injected corruption).
    pub rx_errors: u64,
}

/// Runtime state of a NIC port.
#[derive(Debug)]
pub struct Port {
    /// Static configuration.
    pub config: PortConfig,
    /// When the last accepted frame finishes serialization.
    pub(crate) busy_until: SimTime,
    /// Index of the link this port is wired to, if any — stored on the
    /// port so the per-frame delivery path needs no map lookup.
    pub(crate) link: Option<usize>,
    /// Start instants of transmissions that are accepted but not yet
    /// serializing (the transmit queue). Entries at or before the current
    /// instant are popped lazily; the length is the queue occupancy used
    /// for tail-drop decisions.
    pub(crate) pending_starts: VecDeque<SimTime>,
    /// Counters.
    pub counters: PortCounters,
}

impl Port {
    /// Creates an idle port.
    pub fn new(config: PortConfig) -> Port {
        Port {
            config,
            busy_until: SimTime::ZERO,
            link: None,
            pending_starts: VecDeque::new(),
            counters: PortCounters::default(),
        }
    }

    /// Accepted transmissions that have not started serializing.
    pub fn queued(&self) -> usize {
        self.pending_starts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_64b_at_10g() {
        // (64+20)*8 = 672 bits at 10 Gbit/s = 67.2 ns, rounded up to 68.
        let t = PortConfig::ten_gbe().serialization_time(64);
        assert_eq!(t, SimDuration::from_nanos(68));
    }

    #[test]
    fn serialization_time_1500b_at_10g() {
        // (1500+20)*8 = 12160 bits = 1216 ns exactly.
        let t = PortConfig::ten_gbe().serialization_time(1500);
        assert_eq!(t, SimDuration::from_nanos(1216));
    }

    #[test]
    fn serialization_scales_with_rate() {
        let g1 = PortConfig::one_gbe().serialization_time(1500);
        let g10 = PortConfig::ten_gbe().serialization_time(1500);
        assert_eq!(g1.as_nanos(), g10.as_nanos() * 10);
    }

    #[test]
    fn new_port_is_idle() {
        let p = Port::new(PortConfig::ten_gbe());
        assert_eq!(p.queued(), 0);
        assert_eq!(p.counters, PortCounters::default());
    }
}
