//! vpos — the virtual clone of a testbed.
//!
//! §5: *"The virtual testbed runs on the hardware and OS of the previously
//! described DuT, using KVM as a hypervisor. The VMs running the
//! experiment are pinned to fixed CPU cores."* and §8: *"We operate a
//! virtual testbed as a service [...] the virtualized experiments can be
//! executed on any pos-driven testbed."*
//!
//! [`clone_virtual`] builds, from an existing hardware testbed, a new
//! testbed whose hosts are VM replicas: same names, same wiring, same
//! image store — but VM hardware, hypervisor power control, and instant
//! cheap boots. Experiment specs run unchanged on either; that is the
//! paper's develop-on-vpos, run-on-pos workflow.

use crate::host::{DeviceKind, HardwareSpec};
use crate::power::InitInterface;
use crate::testbed::Testbed;

/// Options for the virtual clone.
#[derive(Debug, Clone, Copy)]
pub struct CloneOptions {
    /// vCPUs per VM.
    pub vcpus: u32,
    /// Memory per VM in GiB.
    pub memory_gib: u32,
    /// Exact seed for the clone instead of deriving one from the
    /// hardware testbed's. Used when rebuilding a vpos testbed whose
    /// final seed is already known — e.g. resuming a journaled campaign,
    /// where `CampaignStarted` records the clone's (derived) seed.
    pub seed: Option<u64>,
}

impl Default for CloneOptions {
    fn default() -> Self {
        CloneOptions {
            vcpus: 4,
            memory_gib: 8,
            seed: None,
        }
    }
}

/// Builds the vpos clone of `hardware`: every experiment host becomes a
/// KVM guest with virtio NICs (same port count), controlled through the
/// hypervisor; the wiring plan and image store are copied verbatim. The
/// clone gets its own derived seed so its stochastic detail differs from
/// the hardware testbed's — as two real testbeds' would — while staying
/// fully reproducible.
pub fn clone_virtual(hardware: &Testbed, options: CloneOptions) -> Testbed {
    // Seed derivation keeps the clone deterministic but distinct.
    let seed = options.seed.unwrap_or_else(|| {
        pos_simkernel::SimRng::new(hardware.seed())
            .derive("vpos-clone")
            .next_raw()
    });
    let mut vtb = Testbed::new(seed);
    vtb.images = hardware.images.clone();
    vtb.topology = hardware.topology.clone();
    for name in hardware.host_names() {
        let src = hardware.host(&name).expect("listed host exists");
        let spec = HardwareSpec {
            kind: DeviceKind::VirtualMachine,
            cpu_model: format!("QEMU Virtual CPU (pinned, host: {})", src.spec.cpu_model),
            cores: options.vcpus,
            memory_gib: options.memory_gib,
            nics: src
                .spec
                .nics
                .iter()
                .map(|n| crate::host::NicSpec {
                    model: "virtio-net".into(),
                    ports: n.ports,
                    speed_bps: 40_000_000_000,
                })
                .collect(),
        };
        vtb.add_host(name, spec, InitInterface::Hypervisor);
    }
    vtb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PortId;

    fn hardware() -> Testbed {
        let mut tb = Testbed::new(0xBEEF);
        tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.topology
            .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
            .unwrap();
        tb.topology
            .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
            .unwrap();
        tb
    }

    #[test]
    fn clone_preserves_names_and_wiring() {
        let hw = hardware();
        let v = clone_virtual(&hw, CloneOptions::default());
        assert_eq!(v.host_names(), hw.host_names());
        assert_eq!(v.topology.cable_count(), 2);
        assert_eq!(
            v.topology.peer(&PortId::new("vriga", 0)),
            Some(&PortId::new("vtartu", 0))
        );
        assert_eq!(v.images.len(), hw.images.len());
    }

    #[test]
    fn clone_hosts_are_vms_with_hypervisor_control() {
        let v = clone_virtual(&hardware(), CloneOptions::default());
        for name in v.host_names() {
            let h = v.host(&name).unwrap();
            assert_eq!(h.spec.kind, DeviceKind::VirtualMachine);
            assert_eq!(h.init_interface, InitInterface::Hypervisor);
            assert!(h.spec.cpu_model.contains("QEMU"));
            assert_eq!(h.spec.nics[0].model, "virtio-net");
        }
        // Port counts survive the cloning (experiment specs depend on them).
        assert_eq!(
            v.host("vtartu").unwrap().spec.total_ports(),
            hardware().host("vtartu").unwrap().spec.total_ports()
        );
    }

    #[test]
    fn clone_boots_fast() {
        let mut v = clone_virtual(&hardware(), CloneOptions::default());
        let img = v.images.latest("debian-buster").unwrap().id;
        v.select_image("vriga", img).unwrap();
        let t0 = v.now();
        while v.power_on("vriga").is_err() {}
        v.wait_booted("vriga").unwrap();
        let boot = (v.now() - t0).as_secs_f64();
        assert!(boot < 15.0, "VM boot should take seconds, took {boot}");
    }

    #[test]
    fn clone_seed_is_derived_and_deterministic() {
        let hw = hardware();
        let a = clone_virtual(&hw, CloneOptions::default());
        let b = clone_virtual(&hw, CloneOptions::default());
        assert_eq!(a.seed(), b.seed(), "cloning is deterministic");
        assert_ne!(a.seed(), hw.seed(), "but distinct from the hardware seed");
    }
}
