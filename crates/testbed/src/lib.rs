//! # pos-testbed
//!
//! The simulated testbed that the pos controller (in `pos-core`) drives.
//! It models everything §4.2 of the paper requires from the physical
//! infrastructure:
//!
//! * **Hosts** ([`host`]) — heterogeneous experiment devices (bare-metal
//!   servers, VMs, switches; R1) with power state, a live-booted OS image,
//!   a small in-memory filesystem for deployed scripts, and a console.
//! * **Initialization interfaces** ([`power`]) — IPMI, vendor management
//!   (vPro-style), remotely switchable power plugs, and hypervisor control,
//!   all able to reset a wedged host out of band (R3).
//! * **Configuration interfaces** ([`exec`]) — SSH-style command execution
//!   with a shell-like tokenizer and an extensible command registry.
//! * **Live images** ([`image`]) — versioned, snapshot-pinned OS images;
//!   booting one always yields the same pristine state (R3, R4).
//! * **Calendar** ([`calendar`]) — multi-user temporal reservation of
//!   hosts, with conflict rejection (§4.4 setup phase).
//! * **Topology** ([`topology`]) — direct cables between host ports (R2).
//!
//! Time is *virtual*: the testbed owns a clock that advances as operations
//! (boots, command runs, sleeps) consume time. Packet-level measurements
//! run in their own `pos-netsim` simulations and report the virtual
//! duration they consumed, which the caller adds to this clock.

#![warn(missing_docs)]

pub mod calendar;
pub mod config_iface;
pub mod exec;
pub mod host;
pub mod image;
pub mod power;
pub mod testbed;
pub mod topology;
pub mod vtestbed;

pub use calendar::{Calendar, Reservation, ReservationError, ReservationId};
pub use config_iface::ConfigInterface;
pub use exec::{split_command_line, CommandResult, ExecError};
pub use host::{DeviceKind, HardwareSpec, Host, NicSpec, PowerState};
pub use image::{Image, ImageId, ImageStore};
pub use power::{InitInterface, PowerError};
pub use testbed::Testbed;
pub use topology::{PortId, Topology, TopologyError};
pub use vtestbed::{clone_virtual, CloneOptions};
