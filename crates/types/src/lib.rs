#![forbid(unsafe_code)]
//! # flexran-types
//!
//! Foundation types shared by every crate in the FlexRAN workspace:
//! identifiers for network entities (eNodeBs, cells, UEs, bearers), the
//! LTE time base (TTI / SFN-SF), physical-layer unit types, cell and UE
//! configuration records, and the common error type.
//!
//! The types here are deliberately small, `Copy` where possible, and free
//! of any behaviour beyond conversions and invariant checks, so that the
//! data plane (`flexran-stack`), the protocol (`flexran-proto`) and the
//! control plane (`flexran-controller`) all agree on the same vocabulary.

pub mod budget;
pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod time;
pub mod units;

pub use config::{Bandwidth, CellConfig, DuplexMode, EnbConfig, TransmissionMode, UeConfig};
pub use error::{Error, ErrorKind, FlexError, Result};
pub use ids::{BearerId, CellId, EnbId, GlobalCellId, HarqPid, Lcgid, Lcid, Rnti, SliceId, UeId};
pub use time::{SfnSf, Tti};
pub use units::{BitRate, Bytes, Db, Dbm};
