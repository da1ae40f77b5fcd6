//! Data-plane statistics exposed through the FlexRAN Agent API.
//!
//! These records are what the agent's Reports & Events manager serializes
//! into *statistics reporting* protocol messages ("transmission queue
//! size, CQI measurements, SINR measurements" — paper Table 1) and what
//! the RIB at the master controller stores per UE and per cell.

use flexran_phy::link_adaptation::Cqi;
use flexran_types::hash::Fnv1a;
use flexran_types::ids::{Rnti, SliceId, UeId};
use flexran_types::time::Tti;
use flexran_types::units::Bytes;

/// Per-UE statistics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct UeStats {
    pub rnti: Rnti,
    pub ue: UeId,
    pub slice: SliceId,
    pub priority_group: u8,
    /// Whether the UE is fully connected (attach finished).
    pub connected: bool,
    /// Last reported wideband CQI.
    pub cqi: Cqi,
    /// TTI of the last CQI update.
    pub cqi_updated: Tti,
    /// Last measured SINR in dB (the raw measurement behind the CQI).
    pub sinr_db: f64,
    /// Downlink data (DRB) transmission-queue occupancy.
    pub dl_queue_bytes: Bytes,
    /// Downlink signalling (SRB) queue occupancy.
    pub srb_queue_bytes: Bytes,
    /// Uplink backlog the eNodeB assumes from the last BSR.
    pub ul_bsr_bytes: Bytes,
    /// Cumulative downlink goodput delivered to the UE (bits).
    pub dl_delivered_bits: u64,
    /// Cumulative uplink goodput received from the UE (bits).
    pub ul_delivered_bits: u64,
    /// Exponentially averaged downlink served rate (bits/s).
    pub avg_rate_bps: f64,
    /// HARQ counters.
    pub harq_tx: u64,
    pub harq_retx: u64,
    /// Head-of-line delay of the data queue (ms).
    pub hol_delay_ms: u64,
    /// Activated secondary component carriers (carrier aggregation).
    pub active_scells: Vec<u16>,
}

/// Fold one UE's end-state observables into an end-state digest: DL
/// and UL delivered bits, DL queue, CQI and HARQ transmissions, each as
/// a little-endian `u64`; a detached UE (`None`) folds `u64::MAX`. The
/// per-UE step of the `experiments scale`, campaign sweep and chaos
/// digests.
pub fn fold_ue_digest(h: &mut Fnv1a, stats: Option<&UeStats>) {
    let Some(s) = stats else {
        h.write_u64(u64::MAX);
        return;
    };
    h.write_u64(s.dl_delivered_bits);
    h.write_u64(s.ul_delivered_bits);
    h.write_u64(s.dl_queue_bytes.as_u64());
    h.write_u64(s.cqi.0 as u64);
    h.write_u64(s.harq_tx + s.harq_retx);
}

/// Per-cell statistics snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellStats {
    /// TTIs stepped.
    pub ttis: u64,
    /// Cumulative PRBs granted downlink (new data + retransmissions).
    pub dl_prbs_used: u64,
    /// Cumulative PRBs granted uplink.
    pub ul_prbs_used: u64,
    /// Cumulative downlink MAC bits put on the air.
    pub dl_mac_bits: u64,
    /// Subframes this cell was muted by an ABS pattern.
    pub abs_muted_ttis: u64,
    /// Scheduling decisions dropped for missing their deadline.
    pub missed_deadlines: u64,
    /// Decisions applied.
    pub decisions_applied: u64,
    /// Attach procedures completed / failed.
    pub attaches: u64,
    pub attach_failures: u64,
}

impl CellStats {
    /// Average downlink PRB utilization over the cell's lifetime.
    pub fn dl_prb_utilization(&self, n_prb: u8) -> f64 {
        if self.ttis == 0 {
            return 0.0;
        }
        self.dl_prbs_used as f64 / (self.ttis as f64 * n_prb as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let mut s = CellStats::default();
        assert_eq!(s.dl_prb_utilization(50), 0.0);
        s.ttis = 100;
        s.dl_prbs_used = 2500;
        assert!((s.dl_prb_utilization(50) - 0.5).abs() < 1e-12);
    }
}
