#![forbid(unsafe_code)]
//! # flexran-controller
//!
//! The FlexRAN master controller (paper §4.3.3): the brain of the FlexRAN
//! control plane.
//!
//! * [`rib`] — the RAN Information Base: an in-memory forest (agents →
//!   cells → UEs) of raw reported state.
//! * [`updater`] — the single-writer RIB Updater plus the event funnel
//!   for the Event Notification Service.
//! * [`northbound`] — the application API: [`northbound::App`] with its
//!   capability-split context ([`northbound::RibView`] to read,
//!   [`northbound::ControlHandle`] to stage commands), the Registry
//!   Service, and the conflict-resolution guard (§7.3 extension).
//! * [`master`] — agent sessions with heartbeat/liveness tracking and
//!   delegated-state replay, the TTI-cycled Task Manager with per-slot
//!   wall-clock accounting (Fig. 8's instrumentation), and real-time
//!   pacing for TCP deployments.
//! * [`journal`] — RIB durability: a snapshot + delta journal written at
//!   each write cycle (one segment per shard), and the recovery path
//!   that lets a restarted master rebuild the RIB and reconcile via
//!   agent re-sync.
//! * [`shard`] — the partitioned control plane: RIB shards owning
//!   agents by id, each with its own single-writer updater, journal
//!   segment and sessions. Each shard's RIB slot writes only its own
//!   forest; commands cross shards only at the master's serial barrier,
//!   sent straight on the owning shard's session.
//! * [`config`] — versioned fleet configuration: the signed bundle
//!   store and the KPI-gated canary rollout state machine with
//!   automatic rollback (DESIGN.md §11).

pub mod config;
pub mod journal;
pub mod master;
pub mod northbound;
pub mod rib;
pub mod shard;
pub mod updater;

pub use config::{
    AgentKpi, BundleAck, ConfigBundle, FleetKpi, RolloutAction, RolloutConfig, RolloutController,
    RolloutEvent, RolloutEventKind, RolloutPhase, RolloutStatus,
};
pub use journal::{RecoveredState, RibJournal};
pub use master::{CycleAccounting, MasterController, SessionLivenessStats, TaskManagerConfig};
pub use northbound::{
    App, AppRegistry, ConflictGuard, ControlHandle, Northbound, Priority, RibView,
};
pub use rib::{AgentNode, CellNode, Rib, UeNode};
pub use shard::{merged_rib, RibShard};
pub use updater::{NotifiedEvent, RibUpdater};
