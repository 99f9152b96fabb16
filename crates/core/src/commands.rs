//! Experiment-domain commands.
//!
//! The measurement scripts of the case study invoke `moongen`; this module
//! registers that command (and an `iperf` alternative) into a testbed's
//! command registry. The handler is where the orchestration layer meets
//! the packet-level simulation: it inspects the *actual* testbed state —
//! wiring, peer host kind, the peer's sysctl and interface configuration —
//! and builds the corresponding `pos-netsim` scenario. If the DuT's setup
//! script forgot `sysctl -w net.ipv4.ip_forward=1`, the measurement
//! faithfully reports zero forwarded packets.

use crate::campaign::LaneFlavor;
use crate::controller::ControllerError;
use crate::experiment::ExperimentSpec;
use pos_loadgen::scenario::{ForwardingScenario, Platform};
use pos_simkernel::{SimDuration, SimRng};
use pos_testbed::{
    clone_virtual, CloneOptions, CommandResult, DeviceKind, HardwareSpec, InitInterface, PortId,
    Testbed,
};
use std::rc::Rc;

/// Registers all experiment-domain commands on the testbed.
pub fn register_all(tb: &mut Testbed) {
    tb.register_command("moongen", Rc::new(moongen_command));
    tb.register_command("iperf", Rc::new(iperf_command));
    tb.register_command("ping", Rc::new(ping_command));
}

/// Builds a testbed matching an experiment's roles: one host per role,
/// wired as the case-study topology requires (role0 port0 → role1 port0,
/// role1 port1 → role0 port1 for two roles; a chain for more), with all
/// experiment-domain commands registered.
///
/// With `exact_seed` false (`pos run`) `seed` is the user seed and the
/// vpos clone derives its own; with `exact_seed` true (resume paths and
/// replica lanes) `seed` is the final testbed seed straight from the
/// journal and is used as-is, derivation already having happened in the
/// original session.
///
/// Shared by the CLI, [`case_study_lanes`], and the `pos serve` daemon;
/// failures are typed ([`ControllerError::Topology`]) so callers
/// propagate them instead of aborting.
pub fn case_study_testbed(
    spec: &ExperimentSpec,
    seed: u64,
    virtualized: bool,
    exact_seed: bool,
) -> Result<Testbed, ControllerError> {
    let topology = |reason: String| ControllerError::Topology { reason };
    let mut tb = Testbed::new(seed);
    for role in &spec.roles {
        tb.add_host(&role.host, HardwareSpec::paper_dut(), InitInterface::Ipmi);
    }
    let hosts = spec.hosts();
    match hosts.as_slice() {
        [] => return Err(topology("experiment has no roles".into())),
        [_single] => {}
        [a, b] => {
            tb.topology
                .wire(PortId::new(a, 0), PortId::new(b, 0))
                .map_err(|e| topology(e.to_string()))?;
            tb.topology
                .wire(PortId::new(b, 1), PortId::new(a, 1))
                .map_err(|e| topology(e.to_string()))?;
        }
        many => {
            for pair in many.windows(2) {
                tb.topology
                    .wire(PortId::new(&pair[0], 1), PortId::new(&pair[1], 0))
                    .map_err(|e| topology(e.to_string()))?;
            }
        }
    }
    let mut tb = if virtualized {
        let opts = CloneOptions {
            seed: exact_seed.then_some(seed),
            ..CloneOptions::default()
        };
        clone_virtual(&tb, opts)
    } else {
        tb
    };
    register_all(&mut tb);
    Ok(tb)
}

/// The replica-lane factory of a campaign whose lane 0 runs on testbed
/// seed `seed` (`Testbed::seed`, after any vpos derivation): every lane
/// the driver asks for is the case-study testbed at that exact seed, on
/// the flavor the driver passes — the campaign's own testbed.
pub fn case_study_lanes(
    spec: &ExperimentSpec,
    seed: u64,
) -> impl FnMut(usize, LaneFlavor) -> Result<Testbed, ControllerError> + '_ {
    move |_, flavor| case_study_testbed(spec, seed, flavor == LaneFlavor::Virtual, true)
}

/// The `ping` command: `ping <target-ip>` — the connectivity check setup
/// scripts run before measuring. The target is reachable when the wired
/// peer is up and has the address configured (`ip addr add` + `ip link set
/// ... up` in its setup script); the probe itself runs packet-level
/// through the peer's service model.
fn ping_command(tb: &mut Testbed, host: &str, argv: &[String]) -> CommandResult {
    use pos_netsim::engine::{LinkConfig, NetSim, PortConfig};
    use pos_netsim::ping::{PingConfig, PingProbe, ProbeReply};
    use pos_netsim::router::LinuxRouter;
    use pos_packet::MacAddr;
    use std::net::Ipv4Addr;

    let Some(target) = argv.get(1).and_then(|t| t.parse::<Ipv4Addr>().ok()) else {
        return CommandResult::fail(2, "usage: ping <ipv4-address>");
    };
    let peer_name = match resolve_dut(tb, host) {
        Ok(p) => p,
        Err(e) => return CommandResult::fail(1, format!("ping: {e}")),
    };
    let Some(peer) = tb.host(&peer_name) else {
        return CommandResult::fail(1, format!("ping: peer {peer_name} unknown"));
    };
    // The peer answers only on addresses its setup script configured on
    // *up* interfaces.
    let configured: Vec<Ipv4Addr> = peer
        .netconf
        .iter()
        .filter_map(|(k, v)| {
            let ifname = k.strip_prefix("addr:")?;
            let up = peer
                .netconf
                .get(&format!("link:{ifname}"))
                .map(String::as_str)
                == Some("up");
            if !up {
                return None;
            }
            v.split('/').next()?.parse().ok()
        })
        .collect();
    let count = 4u16;
    if !peer.is_up() || !configured.contains(&target) {
        let duration = SimDuration::from_secs(u64::from(count));
        return CommandResult::fail(
            1,
            format!("PING {target}: {count} packets transmitted, 0 received, 100% packet loss"),
        )
        .with_duration(duration);
    }

    // Packet-level probe through the peer's service profile.
    let profile = match peer.spec.kind {
        DeviceKind::VirtualMachine => Platform::Vpos,
        _ => Platform::Pos,
    }
    .dut_profile();
    let seed = SimRng::new(tb.seed())
        .derive(&format!("ping/{host}/{target}/{}", tb.now().as_nanos()))
        .next_raw();
    let mut sim = NetSim::new(seed);
    let probe = sim.add_element(
        "probe",
        Box::new(PingProbe::new(PingConfig {
            src_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_mac: MacAddr::testbed_host(1),
            // Cold neighbor cache: the probe ARPs the directly attached
            // target before the first echo, like a real host would.
            gateway_mac: MacAddr::ZERO,
            target,
            count,
            interval: SimDuration::from_secs(1),
            ttl: 64,
            resolve_gateway: Some(target),
        })),
        &[PortConfig::ten_gbe()],
    );
    let mut router = LinuxRouter::new(
        profile,
        vec![MacAddr::testbed_host(10)],
        SimRng::new(seed).derive("peer"),
    );
    router.set_port_ips(vec![target]);
    router.add_route(pos_netsim::router::RouteEntry {
        network: Ipv4Addr::new(10, 0, 0, 0),
        prefix_len: 24,
        port: 0,
        next_hop_mac: MacAddr::testbed_host(1),
    });
    let peer_node = sim.add_element("peer", Box::new(router), &[PortConfig::ten_gbe()]);
    sim.connect((probe, 0), (peer_node, 0), LinkConfig::direct_cable());
    sim.run_until(pos_simkernel::SimTime::from_secs(u64::from(count) + 1));

    let p = sim.element_as::<PingProbe>(probe).expect("probe element");
    let mut out = format!("PING {target} 56(84) bytes of data.\n");
    for (seq, reply) in &p.replies {
        if let ProbeReply::Echo { rtt_ns } = reply {
            out.push_str(&format!(
                "64 bytes from {target}: icmp_seq={} ttl=64 time={:.3} ms\n",
                seq + 1,
                *rtt_ns as f64 / 1e6
            ));
        }
    }
    let received = p.replies.len();
    out.push_str(&format!(
        "--- {target} ping statistics ---\n{count} packets transmitted, {received} received, {}% packet loss\n",
        (u32::from(count) - received as u32) * 100 / u32::from(count)
    ));
    let duration = SimDuration::from_secs(u64::from(count));
    if received > 0 {
        CommandResult::ok(out).with_duration(duration)
    } else {
        CommandResult::fail(1, out).with_duration(duration)
    }
}

/// Parsed `--key value` arguments.
fn parse_kv_args(argv: &[String]) -> Result<std::collections::BTreeMap<String, String>, String> {
    let mut out = std::collections::BTreeMap::new();
    let mut i = 1;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got {}", argv[i]))?;
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_owned(), value.clone());
        i += 2;
    }
    Ok(out)
}

fn parse_f64(map: &std::collections::BTreeMap<String, String>, key: &str) -> Result<f64, String> {
    map.get(key)
        .ok_or_else(|| format!("missing --{key}"))?
        .parse::<f64>()
        .map_err(|e| format!("--{key}: {e}"))
}

/// Resolves the DuT that `host`'s TX port is wired to (directly, or across
/// the vpos bridges which are invisible at this level: the peer of port 0).
fn resolve_dut(tb: &Testbed, host: &str) -> Result<String, String> {
    let peer = tb
        .topology
        .peer(&PortId::new(host, 0))
        .ok_or_else(|| format!("{host}:0 is not wired to anything — no carrier"))?;
    Ok(peer.host.clone())
}

/// The `moongen` command:
/// `moongen --rate <pps> --size <bytes> --time <secs> [--latency-every <n>]`.
///
/// Output is the MoonGen-style report text that the evaluation phase
/// parses.
fn moongen_command(tb: &mut Testbed, host: &str, argv: &[String]) -> CommandResult {
    let args = match parse_kv_args(argv) {
        Ok(a) => a,
        Err(e) => return CommandResult::fail(2, format!("moongen: {e}")),
    };
    // `--size` accepts a byte count or the literal `imix`.
    let imix = args.get("size").map(String::as_str) == Some("imix");
    let (rate, size, time) = match (
        parse_f64(&args, "rate"),
        if imix {
            Ok(64.0)
        } else {
            parse_f64(&args, "size")
        },
        parse_f64(&args, "time"),
    ) {
        (Ok(r), Ok(s), Ok(t)) => (r, s, t),
        (r, s, t) => {
            let err = [r.err(), s.err(), t.err()]
                .into_iter()
                .flatten()
                .collect::<Vec<_>>()
                .join("; ");
            return CommandResult::fail(2, format!("moongen: {err}"));
        }
    };
    if rate <= 0.0 || time <= 0.0 || !(64.0..=1518.0).contains(&size) {
        return CommandResult::fail(
            2,
            "moongen: rate/time must be positive, size within [64, 1518] or `imix`",
        );
    }
    let latency_every = args
        .get("latency-every")
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(16)
        .max(1);

    let dut_name = match resolve_dut(tb, host) {
        Ok(d) => d,
        Err(e) => return CommandResult::fail(1, format!("moongen: {e}")),
    };
    let Some(dut) = tb.host(&dut_name) else {
        return CommandResult::fail(1, format!("moongen: peer host {dut_name} unknown"));
    };
    if !dut.is_up() {
        // The wire is dark: a down peer transmits nothing back.
        return CommandResult::fail(1, format!("moongen: no link — peer {dut_name} is down"));
    }

    // The measurement outcome depends on what the DuT's *setup script*
    // actually configured — this is the coupling that makes a forgotten
    // setup step visible in the results.
    let forwarding_enabled = dut.sysctls.get("net.ipv4.ip_forward").map(String::as_str)
        == Some("1")
        && dut
            .netconf
            .iter()
            .filter(|(k, v)| k.starts_with("link:") && v.as_str() == "up")
            .count()
            >= 2;
    let platform = match dut.spec.kind {
        DeviceKind::VirtualMachine => Platform::Vpos,
        _ => Platform::Pos,
    };
    // Kernel boot parameters matter (§4.4): `isolcpus` shields the DuT's
    // forwarding cores from background work, cutting service-time jitter.
    let dut_jitter_sigma = if dut.boot_params.iter().any(|p| p.starts_with("isolcpus")) {
        Some(platform.dut_profile().jitter_sigma * 0.3)
    } else {
        None
    };

    // Per-invocation deterministic seed: testbed seed, parameters, and the
    // current virtual instant (so a retried run re-measures, it does not
    // replay).
    let seed = SimRng::new(tb.seed())
        .derive(&format!(
            "moongen/{host}/{rate}/{size}/{time}/{}",
            tb.now().as_nanos()
        ))
        .next_raw();

    // Chaos campaigns can degrade the generator's experiment link for
    // scheduled windows; an active window shows up in the measurement as
    // real packet loss.
    let mut link_fault = pos_netsim::FaultConfig::none();
    if let Some((drop_chance, corrupt_chance)) = tb.link_degradation(host, tb.now()) {
        link_fault.drop_chance = drop_chance;
        link_fault.corrupt_chance = corrupt_chance;
    }

    let pcap_path = args.get("pcap").cloned();
    let scenario = ForwardingScenario {
        platform,
        pkt_size: size as usize,
        rate_pps: rate,
        duration: SimDuration::from_secs_f64(time),
        seed,
        latency_sample_every: latency_every,
        dut_forwarding: forwarding_enabled,
        dut_jitter_sigma,
        record_pcap_frames: if pcap_path.is_some() { 1000 } else { 0 },
        imix,
        link_fault,
    };
    // The virtual duration is fixed by the arguments; every failure exit
    // above is decided before the simulation. So the simulation runs on
    // the measurement pool, and inside a controller's measurement phase
    // the report is spliced in when the run commits. A requested capture
    // is waited for here: later commands may read it from the host.
    let elapsed = scenario.duration + SimDuration::from_millis(200);
    let measurement = crate::measure::submit(scenario, pcap_path.is_some());
    let Some(path) = pcap_path else {
        if crate::measure::deferring() {
            crate::measure::stash(measurement);
            return CommandResult::ok("").with_duration(elapsed);
        }
        return CommandResult::ok(measurement.wait().stdout).with_duration(elapsed);
    };
    let rendered = measurement.wait();
    match rendered.pcap.expect("capture requested") {
        Ok(bytes) => {
            // The controller collects everything under /srv/results/ into
            // the run's artifacts.
            tb.host_mut(host)
                .expect("reachability checked by exec")
                .fs
                .insert(path, bytes);
        }
        Err(e) => return CommandResult::fail(1, format!("moongen: pcap: {e}")),
    }
    CommandResult::ok(rendered.stdout).with_duration(elapsed)
}

/// The `iperf` command: `iperf --rate <pps> --size <bytes> --time <secs>`.
/// A coarse, bursty OS-socket generator; reports average goodput only.
fn iperf_command(tb: &mut Testbed, host: &str, argv: &[String]) -> CommandResult {
    use pos_loadgen::iperf::{IperfConfig, IperfGenerator};
    use pos_netsim::engine::{LinkConfig, NetSim, PortConfig};
    use pos_netsim::sink::CountingSink;
    use pos_packet::builder::UdpFrameSpec;
    use pos_packet::MacAddr;
    use std::net::Ipv4Addr;

    let args = match parse_kv_args(argv) {
        Ok(a) => a,
        Err(e) => return CommandResult::fail(2, format!("iperf: {e}")),
    };
    let (rate, size, time) = match (
        parse_f64(&args, "rate"),
        parse_f64(&args, "size"),
        parse_f64(&args, "time"),
    ) {
        (Ok(r), Ok(s), Ok(t)) => (r, s, t),
        _ => return CommandResult::fail(2, "iperf: need --rate, --size, --time"),
    };
    if rate <= 0.0 || time <= 0.0 || !(64.0..=1518.0).contains(&size) {
        return CommandResult::fail(2, "iperf: invalid parameters");
    }
    if let Err(e) = resolve_dut(tb, host) {
        return CommandResult::fail(1, format!("iperf: {e}"));
    }

    let seed = SimRng::new(tb.seed())
        .derive(&format!("iperf/{host}/{}", tb.now().as_nanos()))
        .next_raw();
    let mut sim = NetSim::new(seed);
    let duration = SimDuration::from_secs_f64(time);
    let gen = sim.add_element(
        "iperf",
        Box::new(IperfGenerator::new(IperfConfig {
            spec: UdpFrameSpec {
                src_mac: MacAddr::testbed_host(1),
                dst_mac: MacAddr::testbed_host(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 2),
                dst_ip: Ipv4Addr::new(10, 0, 1, 2),
                src_port: 5001,
                dst_port: 5001,
                ttl: 64,
            },
            wire_size: size as usize,
            rate_pps: rate,
            duration,
            burst_interval: SimDuration::from_millis(1),
        })),
        &[PortConfig::ten_gbe()],
    );
    let sink = sim.add_element(
        "peer",
        Box::new(CountingSink::new()),
        &[PortConfig::ten_gbe()],
    );
    sim.connect((gen, 0), (sink, 0), LinkConfig::direct_cable());
    sim.run_until(pos_simkernel::SimTime::ZERO + duration + SimDuration::from_millis(50));
    let received = sim.element_as::<CountingSink>(sink).expect("sink").frames;
    let bytes = sim.element_as::<CountingSink>(sink).expect("sink").bytes;
    let mbit = bytes as f64 * 8.0 / time / 1e6;
    CommandResult::ok(format!(
        "[ ID] Interval       Transfer     Bandwidth\n\
         [  3] 0.0-{time:.1} sec  {received} datagrams  {mbit:.2} Mbits/sec"
    ))
    .with_duration(duration + SimDuration::from_millis(50))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pos_testbed::{HardwareSpec, ImageId, InitInterface};

    /// A booted two-host testbed wired like the case study.
    fn wired_testbed() -> Testbed {
        let mut tb = Testbed::new(0xC0FFEE);
        tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.topology
            .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
            .unwrap();
        tb.topology
            .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
            .unwrap();
        register_all(&mut tb);
        for host in ["vriga", "vtartu"] {
            tb.select_image(host, ImageId(0)).unwrap();
            while tb.power_on(host).is_err() {}
            tb.wait_booted(host).unwrap();
        }
        tb
    }

    fn configure_dut(tb: &mut Testbed) {
        for cmd in [
            "ip link set enp24s0f0 up",
            "ip link set enp24s0f1 up",
            "sysctl -w net.ipv4.ip_forward=1",
        ] {
            assert!(tb.exec("vtartu", cmd).unwrap().success());
        }
    }

    #[test]
    fn moongen_measures_configured_dut() {
        let mut tb = wired_testbed();
        configure_dut(&mut tb);
        let t0 = tb.now();
        let r = tb
            .exec("vriga", "moongen --rate 100000 --size 64 --time 1")
            .unwrap();
        assert!(r.success(), "stderr: {}", r.stderr);
        assert!(r.stdout.contains("RX: 100000 packets"), "{}", r.stdout);
        // The run consumed its virtual duration.
        assert!((tb.now() - t0).as_secs_f64() >= 1.0);
    }

    #[test]
    fn moongen_sees_misconfigured_dut() {
        // Without the setup commands the DuT does not forward: the
        // methodology point — configuration must be scripted, and a missing
        // step is visible in the measurement.
        let mut tb = wired_testbed();
        let r = tb
            .exec("vriga", "moongen --rate 50000 --size 64 --time 1")
            .unwrap();
        assert!(r.success());
        assert!(r.stdout.contains("RX: 0 packets"), "{}", r.stdout);
    }

    #[test]
    fn moongen_fails_cleanly_on_dark_fiber() {
        let mut tb = wired_testbed();
        configure_dut(&mut tb);
        tb.host_mut("vtartu").unwrap().inject_crash();
        let r = tb
            .exec("vriga", "moongen --rate 50000 --size 64 --time 1")
            .unwrap();
        assert!(!r.success());
        assert!(r.stderr.contains("peer vtartu is down"));
    }

    #[test]
    fn moongen_argument_validation() {
        let mut tb = wired_testbed();
        for bad in [
            "moongen",
            "moongen --rate 1000",
            "moongen --rate 1000 --size 64 --time abc",
            "moongen --rate -5 --size 64 --time 1",
            "moongen --rate 1000 --size 32 --time 1",
            "moongen --rate 1000 --size 64 --time 1 --oops",
        ] {
            let r = tb.exec("vriga", bad).unwrap();
            assert_eq!(r.exit_code, 2, "should reject: {bad}");
        }
    }

    #[test]
    fn moongen_unwired_port_has_no_carrier() {
        let mut tb = Testbed::new(1);
        tb.add_host("lonely", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        register_all(&mut tb);
        tb.select_image("lonely", ImageId(0)).unwrap();
        while tb.power_on("lonely").is_err() {}
        tb.wait_booted("lonely").unwrap();
        let r = tb
            .exec("lonely", "moongen --rate 1000 --size 64 --time 1")
            .unwrap();
        assert!(!r.success());
        assert!(r.stderr.contains("no carrier"));
    }

    #[test]
    fn moongen_vpos_platform_detected_from_host_kind() {
        let mut tb = Testbed::new(2);
        tb.add_host("vm-gen", HardwareSpec::vpos_vm(), InitInterface::Hypervisor);
        tb.add_host("vm-dut", HardwareSpec::vpos_vm(), InitInterface::Hypervisor);
        tb.topology
            .wire(PortId::new("vm-gen", 0), PortId::new("vm-dut", 0))
            .unwrap();
        tb.topology
            .wire(PortId::new("vm-dut", 1), PortId::new("vm-gen", 1))
            .unwrap();
        register_all(&mut tb);
        for host in ["vm-gen", "vm-dut"] {
            tb.select_image(host, ImageId(0)).unwrap();
            while tb.power_on(host).is_err() {}
            tb.wait_booted(host).unwrap();
        }
        for cmd in [
            "ip link set eth0 up",
            "ip link set eth1 up",
            "sysctl -w net.ipv4.ip_forward=1",
        ] {
            tb.exec("vm-dut", cmd).unwrap();
        }
        // 100 kpps offered, but a VM saturates around 40 kpps (Fig. 3b).
        let r = tb
            .exec("vm-gen", "moongen --rate 100000 --size 64 --time 1")
            .unwrap();
        assert!(r.success());
        // Parse the final RX line loosely: rx packets should be ~40k ± band.
        let rx_line = r
            .stdout
            .lines()
            .find(|l| l.contains("id=1] RX:") && l.contains("packets"))
            .expect("summary RX line");
        let rx: u64 = rx_line.split_whitespace().nth(3).unwrap().parse().unwrap();
        assert!(
            (25_000..60_000).contains(&rx),
            "VM DuT should cap near 40 kpps, got {rx}: {rx_line}"
        );
    }

    #[test]
    fn moongen_determinism_under_same_testbed_history() {
        let run = || {
            let mut tb = wired_testbed();
            configure_dut(&mut tb);
            tb.exec("vriga", "moongen --rate 100000 --size 64 --time 1")
                .unwrap()
                .stdout
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn moongen_pcap_dump_lands_in_host_fs() {
        let mut tb = wired_testbed();
        configure_dut(&mut tb);
        let r = tb
            .exec(
                "vriga",
                "moongen --rate 50000 --size 64 --time 1 --pcap /srv/results/tx.pcap",
            )
            .unwrap();
        assert!(r.success(), "stderr: {}", r.stderr);
        let bytes = tb.download("vriga", "/srv/results/tx.pcap").unwrap();
        let caps = pos_packet::pcap::PcapReader::new(&bytes[..])
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(caps.len(), 1000, "first 1000 frames recorded");
        // The capture holds real, parseable frames with increasing probes.
        let p0 = pos_packet::probe::Probe::parse(
            pos_packet::builder::parse_udp_frame(caps[0].frame.bytes())
                .unwrap()
                .payload,
        )
        .unwrap();
        let p1 = pos_packet::probe::Probe::parse(
            pos_packet::builder::parse_udp_frame(caps[1].frame.bytes())
                .unwrap()
                .payload,
        )
        .unwrap();
        assert_eq!(p0.seq + 1, p1.seq);
        assert!(caps[0].ts_ns <= caps[1].ts_ns);
    }

    #[test]
    fn isolcpus_boot_param_reduces_latency_jitter() {
        let stddev_with_params = |params: &[String]| -> f64 {
            let mut tb = wired_testbed();
            tb.set_boot_params("vtartu", params).unwrap();
            // Reboot so the parameters take effect.
            while tb.reset("vtartu").is_err() {}
            tb.wait_booted("vtartu").unwrap();
            configure_dut(&mut tb);
            let out = tb
                .exec(
                    "vriga",
                    "moongen --rate 100000 --size 64 --time 1 --latency-every 1",
                )
                .unwrap();
            // Parse the StdDev from the Samples line.
            let line = out
                .stdout
                .lines()
                .find(|l| l.starts_with("Samples:"))
                .expect("latency line");
            line.split("StdDev: ")
                .nth(1)
                .unwrap()
                .split(" ns")
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let noisy = stddev_with_params(&[]);
        let shielded = stddev_with_params(&["isolcpus=1-11".to_string()]);
        assert!(
            shielded < noisy * 0.6,
            "isolcpus must cut jitter: {shielded} vs {noisy}"
        );
    }

    #[test]
    fn moongen_size_imix_accepted() {
        let mut tb = wired_testbed();
        configure_dut(&mut tb);
        let r = tb
            .exec("vriga", "moongen --rate 50000 --size imix --time 1")
            .unwrap();
        assert!(r.success(), "stderr: {}", r.stderr);
        // Nominal size in the header is the mix mean.
        assert!(r.stdout.contains("size=356 B"), "{}", r.stdout);
        assert!(r.stdout.contains("RX: 50000 packets"), "{}", r.stdout);
        // Byte counters reflect mixed sizes, not 64 B frames.
        let parsed = pos_eval_compat_parse(&r.stdout);
        assert!(
            parsed > 50_000 * 64,
            "mixed sizes carry more bytes: {parsed}"
        );
    }

    /// Tiny local extraction of the RX byte count (pos-eval is not a
    /// dependency of pos-core; the full parser lives there).
    fn pos_eval_compat_parse(text: &str) -> u64 {
        let line = text
            .lines()
            .find(|l| l.contains("id=1] RX:") && l.contains("bytes"))
            .expect("cumulative RX line");
        let idx = line.find(" bytes").expect("bytes suffix");
        line[..idx]
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap()
    }

    #[test]
    fn ping_succeeds_only_after_setup() {
        let mut tb = wired_testbed();
        // Before the DuT's setup script ran, its addresses do not exist.
        let r = tb.exec("vriga", "ping 10.0.0.1").unwrap();
        assert!(!r.success());
        assert!(r.stderr.contains("100% packet loss"), "{}", r.stderr);

        // Configure the address but leave the link down: still dark.
        tb.exec("vtartu", "ip addr add 10.0.0.1/24 dev enp24s0f0")
            .unwrap();
        let r = tb.exec("vriga", "ping 10.0.0.1").unwrap();
        assert!(!r.success(), "address on a down link must not answer");

        // Bring the link up: the path works, RTTs are printed.
        tb.exec("vtartu", "ip link set enp24s0f0 up").unwrap();
        let t0 = tb.now();
        let r = tb.exec("vriga", "ping 10.0.0.1").unwrap();
        assert!(r.success(), "stderr: {}", r.stderr);
        assert!(r
            .stdout
            .contains("4 packets transmitted, 4 received, 0% packet loss"));
        assert!(r.stdout.contains("icmp_seq=1"));
        assert!(r.stdout.contains("time=0.0"), "sub-ms RTT: {}", r.stdout);
        // The four 1s-spaced probes consumed virtual time.
        assert!((tb.now() - t0).as_secs_f64() >= 4.0);

        // An address the DuT never configured stays unreachable.
        let r = tb.exec("vriga", "ping 10.9.9.9").unwrap();
        assert!(!r.success());
    }

    #[test]
    fn ping_argument_validation() {
        let mut tb = wired_testbed();
        assert_eq!(tb.exec("vriga", "ping").unwrap().exit_code, 2);
        assert_eq!(tb.exec("vriga", "ping not-an-ip").unwrap().exit_code, 2);
    }

    #[test]
    fn ping_dead_peer_is_loss() {
        let mut tb = wired_testbed();
        configure_dut(&mut tb);
        tb.exec("vtartu", "ip addr add 10.0.0.1/24 dev enp24s0f0")
            .unwrap();
        tb.host_mut("vtartu").unwrap().inject_crash();
        let r = tb.exec("vriga", "ping 10.0.0.1").unwrap();
        assert!(!r.success());
        assert!(r.stderr.contains("100% packet loss"));
    }

    #[test]
    fn iperf_reports_bandwidth() {
        let mut tb = wired_testbed();
        let r = tb
            .exec("vriga", "iperf --rate 10000 --size 1500 --time 1")
            .unwrap();
        assert!(r.success(), "stderr: {}", r.stderr);
        assert!(r.stdout.contains("Mbits/sec"), "{}", r.stdout);
        // ≈10000 datagrams of 1500 B in 1 s ≈ 120 Mbit/s.
        let mbit: f64 = r
            .stdout
            .lines()
            .last()
            .unwrap()
            .split_whitespace()
            .rev()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!((110.0..130.0).contains(&mbit), "got {mbit}");
    }

    #[test]
    fn iperf_argument_validation() {
        let mut tb = wired_testbed();
        let r = tb.exec("vriga", "iperf --rate 1000").unwrap();
        assert_eq!(r.exit_code, 2);
    }
}
