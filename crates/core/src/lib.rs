#![forbid(unsafe_code)]
//! # flexran
//!
//! A from-scratch Rust reproduction of **FlexRAN: A Flexible and
//! Programmable Platform for Software-Defined Radio Access Networks**
//! (Foukas, Nikaein, Kassem, Marina, Kontovasilis — CoNEXT 2016).
//!
//! The workspace implements the full platform the paper describes —
//! master controller, per-eNodeB agents, the protobuf-wire FlexRAN
//! protocol, virtualized control functions with runtime delegation — plus
//! every substrate its evaluation needs: an LTE L2 data plane, a PHY
//! abstraction with 3GPP tables, a virtual-time control-channel emulator,
//! traffic generators, and TCP/DASH application models. `DESIGN.md` maps
//! paper sections to crates; `EXPERIMENTS.md` records reproduced results.
//!
//! This umbrella crate re-exports the public API of every layer and adds
//! [`harness`]: the simulation harness that wires eNodeBs, agents, the
//! radio environment and the master controller into a stepping virtual
//! testbed — the equivalent of the paper's lab (controller machine, agent
//! machines, Gigabit Ethernet, `netem`).
//!
//! ## Quickstart
//!
//! ```
//! use flexran::harness::{SimHarness, SimConfig, UeRadioSpec};
//! use flexran::prelude::*;
//!
//! let mut sim = SimHarness::new(SimConfig::default());
//! let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), Default::default());
//! let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(12));
//! sim.set_dl_traffic(ue, Box::new(flexran::sim::traffic::CbrSource::new(
//!     BitRate::from_mbps(2),
//! )));
//! sim.run(2_000); // 2 simulated seconds
//! let stats = sim.ue_stats(ue).expect("attached");
//! assert!(stats.dl_delivered_bits > 0);
//! ```

pub mod harness;
pub mod platform;

pub use platform::Platform;

/// The FlexRAN agent.
pub use flexran_agent as agent;
/// The bundled applications.
pub use flexran_apps as apps;
/// The master controller.
pub use flexran_controller as controller;
/// The PHY abstraction.
pub use flexran_phy as phy;
/// The FlexRAN protocol.
pub use flexran_proto as proto;
/// The simulation substrate.
pub use flexran_sim as sim;
/// The LTE L2 data plane.
pub use flexran_stack as stack;
/// The foundational types crate.
pub use flexran_types as types;

/// Commonly needed names in one import.
pub mod prelude {
    pub use flexran_agent::{
        AgentConfig, FailoverState, FlexranAgent, LivenessConfig, PolicyDoc, VsfRegistry,
    };
    pub use flexran_controller::{
        App, ControlHandle, MasterController, Northbound, RibView, SessionLivenessStats,
        TaskManagerConfig,
    };
    pub use flexran_phy::link_adaptation::{Cqi, Mcs};
    pub use flexran_proto::messages::FlexranMessage;
    pub use flexran_stack::enb::{Enb, EnbParams};
    pub use flexran_types::config::{CellConfig, EnbConfig};
    pub use flexran_types::ids::{CellId, EnbId, Rnti, SliceId, UeId};
    pub use flexran_types::time::Tti;
    pub use flexran_types::units::{BitRate, Bytes};
}
