//! A terminating element that counts what it receives.

use crate::engine::{Element, SimCtx};
use pos_packet::builder::Frame;
use pos_simkernel::SimTime;

/// Counts received frames and bytes; remembers first/last arrival times so
/// callers can compute achieved rates.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Frames received.
    pub frames: u64,
    /// Wire bytes received.
    pub bytes: u64,
    /// Arrival time of the first frame.
    pub first_arrival: Option<SimTime>,
    /// Arrival time of the most recent frame.
    pub last_arrival: Option<SimTime>,
}

impl CountingSink {
    /// Creates an empty sink.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Average receive rate in frames per second between the first and last
    /// arrival; `None` with fewer than two frames.
    pub fn avg_rate_fps(&self) -> Option<f64> {
        let (first, last) = (self.first_arrival?, self.last_arrival?);
        if last <= first || self.frames < 2 {
            return None;
        }
        Some((self.frames - 1) as f64 / (last - first).as_secs_f64())
    }
}

impl Element for CountingSink {
    fn on_frame(&mut self, _port: usize, frame: Frame, ctx: &mut SimCtx<'_>) {
        self.frames += 1;
        self.bytes += frame.wire_size() as u64;
        let now = ctx.now();
        if self.first_arrival.is_none_or(|f| now < f) {
            self.first_arrival = Some(now);
        }
        if self.last_arrival.is_none_or(|l| now > l) {
            self.last_arrival = Some(now);
        }
    }

    /// Pure accounting over per-frame timestamps: safe to receive frames
    /// ahead of global event order.
    fn inline_rx(&self, _port: usize) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LinkConfig, NetSim, PortConfig};
    use pos_packet::builder::UdpFrameSpec;
    use pos_packet::MacAddr;
    use std::net::Ipv4Addr;

    struct OneShot;
    impl Element for OneShot {
        fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
            let frame = UdpFrameSpec {
                src_mac: MacAddr::testbed_host(1),
                dst_mac: MacAddr::testbed_host(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 1, 1),
                src_port: 1,
                dst_port: 2,
                ttl: 64,
            }
            .build_with_wire_size(128, &[])
            .unwrap();
            ctx.transmit(0, frame);
        }
        fn on_frame(&mut self, _: usize, _: Frame, _: &mut SimCtx<'_>) {}
    }

    #[test]
    fn sink_records_arrival_times() {
        let mut sim = NetSim::new(3);
        let src = sim.add_element("src", Box::new(OneShot), &[PortConfig::ten_gbe()]);
        let dst = sim.add_element(
            "dst",
            Box::new(CountingSink::new()),
            &[PortConfig::ten_gbe()],
        );
        sim.connect((src, 0), (dst, 0), LinkConfig::direct_cable());
        sim.run_to_idle();
        assert_eq!(sim.port_counters(dst, 0).rx_frames, 1);
        assert_eq!(sim.port_counters(dst, 0).rx_bytes, 128);
        let sink = sim.element_as::<CountingSink>(dst).unwrap();
        assert_eq!(sink.frames, 1);
        assert_eq!(sink.bytes, 128);
        assert!(sink.first_arrival.is_some());
        assert_eq!(sink.first_arrival, sink.last_arrival);
    }

    #[test]
    fn avg_rate_needs_two_frames() {
        let mut s = CountingSink::new();
        assert!(s.avg_rate_fps().is_none());
        s.frames = 1;
        s.first_arrival = Some(SimTime::ZERO);
        s.last_arrival = Some(SimTime::ZERO);
        assert!(s.avg_rate_fps().is_none());
        // Two frames, one second apart: 1 fps.
        s.frames = 2;
        s.last_arrival = Some(SimTime::from_secs(1));
        assert!((s.avg_rate_fps().unwrap() - 1.0).abs() < 1e-9);
    }
}
