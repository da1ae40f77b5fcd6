//! The Reports & Events manager (paper §4.3.1).
//!
//! The master registers asynchronous statistics requests; the manager
//! produces the replies at the right moments:
//!
//! * **one-off** — a single reply to the request,
//! * **periodic** — every `period` TTIs ("using the TTI as a time
//!   reference for the length of the interval"),
//! * **triggered** — "sent by the agent aperiodically and only when there
//!   is a change in the contents of the requested report".

use flexran_proto::messages::stats::{ReportConfig, ReportType, StatsReply, UeReport};
use flexran_proto::messages::{CellReport, FlexranMessage};
use flexran_proto::wire::WireWriter;
use flexran_stack::enb::Enb;
use flexran_types::hash::fnv1a;
use flexran_types::time::Tti;

#[derive(Debug)]
struct Subscription {
    xid: u32,
    config: ReportConfig,
    last_sent: Option<Tti>,
    last_hash: u64,
    done: bool,
}

/// Registered statistics subscriptions for one agent.
///
/// The report path does not touch the heap at steady state: every
/// candidate reply is composed into one pooled
/// `FlexranMessage::StatsReply` (its UE entries and their vectors are
/// refilled in place), a reply that fires is lent to the caller's send
/// callback by reference and stays pooled for the next one, and the
/// triggered mode's content hash encodes into a reusable buffer.
#[derive(Debug, Default)]
pub struct ReportsManager {
    subs: Vec<Subscription>,
    /// Pooled reply, refilled in place for every candidate report.
    reply: FlexranMessage,
    /// Reusable encode buffer for content hashing.
    hash_buf: WireWriter,
}

/// Compose a statistics reply for the whole eNodeB.
pub fn compose_reply(enb: &Enb, tti: Tti, config: ReportConfig) -> StatsReply {
    let mut reply = StatsReply::default();
    compose_reply_into(enb, tti, config, &mut reply);
    reply
}

/// In-place variant of [`compose_reply`]: refills `reply`, reusing its
/// `cells`, its `ues` entries and each UE's vectors. Entries beyond the
/// eNodeB's current UE count (UEs that left) are truncated.
pub fn compose_reply_into(enb: &Enb, tti: Tti, config: ReportConfig, reply: &mut StatsReply) {
    reply.enb_id = enb.config().enb_id;
    reply.tti = tti.0;
    reply.cells.clear();
    let mut n_ues = 0;
    for ci in 0..enb.n_cells() {
        let cell = enb.cell_id_at(ci);
        let Ok(stats) = enb.cell_stats(cell) else {
            continue; // cell ids come from the eNB itself; don't panic mid-report
        };
        if config
            .flags
            .contains(flexran_proto::messages::stats::ReportFlags::CELL)
        {
            reply.cells.push(CellReport {
                cell_id: cell.0,
                noise_interference_decidbm: -950,
                dl_prbs_used_total: stats.dl_prbs_used,
                ul_prbs_used_total: stats.ul_prbs_used,
                active_ues: enb.n_ues(cell).unwrap_or(0) as u32,
                abs_muted_ttis: stats.abs_muted_ttis,
                decisions_applied: stats.decisions_applied,
                missed_deadlines: stats.missed_deadlines,
            });
        }
        let Ok(ues) = enb.ue_stats_iter(cell) else {
            continue;
        };
        for ue in ues {
            match reply.ues.get_mut(n_ues) {
                Some(slot) => slot.from_stats_into(&ue, cell, config.flags),
                None => reply
                    .ues
                    .push(UeReport::from_stats(&ue, cell, config.flags)),
            }
            n_ues += 1;
        }
    }
    reply.ues.truncate(n_ues);
}

/// Content hash of a reply, excluding the timestamp (so a triggered report
/// fires on *content* changes, not on the clock). Encodes the reply body
/// into `scratch` in place — no clone, no fresh buffer.
fn content_hash(reply: &mut StatsReply, scratch: &mut WireWriter) -> u64 {
    let tti = reply.tti;
    reply.tti = 0;
    reply.encode_body_into(scratch);
    let h = fnv1a(scratch.as_slice());
    reply.tti = tti;
    h
}

impl ReportsManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) the subscription with transaction id `xid`.
    pub fn register(&mut self, xid: u32, config: ReportConfig) {
        self.subs.retain(|s| s.xid != xid);
        self.subs.push(Subscription {
            xid,
            config,
            last_sent: None,
            last_hash: 0,
            done: false,
        });
    }

    /// Cancel a subscription.
    pub fn cancel(&mut self, xid: u32) {
        self.subs.retain(|s| s.xid != xid);
    }

    pub fn n_subscriptions(&self) -> usize {
        self.subs.iter().filter(|s| !s.done).count()
    }

    /// Compose the replies due at `tti` and lend each to `send` with the
    /// xid to reply under. The reply is the manager's pooled message:
    /// `send` encodes it and returns, and the next report refills it.
    pub fn due(&mut self, tti: Tti, enb: &Enb, mut send: impl FnMut(u32, &FlexranMessage)) {
        for sub in &mut self.subs {
            if sub.done {
                continue;
            }
            let reply = self.reply.stats_reply_mut();
            let fire = match sub.config.report_type {
                ReportType::OneOff => {
                    compose_reply_into(enb, tti, sub.config, reply);
                    sub.done = true;
                    true
                }
                ReportType::Periodic { period } => {
                    let due = match sub.last_sent {
                        None => true,
                        Some(last) => tti.saturating_since(last) >= period as u64,
                    };
                    if due {
                        compose_reply_into(enb, tti, sub.config, reply);
                        sub.last_sent = Some(tti);
                    }
                    due
                }
                ReportType::Triggered => {
                    compose_reply_into(enb, tti, sub.config, reply);
                    let h = content_hash(reply, &mut self.hash_buf);
                    let changed = h != sub.last_hash;
                    if changed {
                        sub.last_hash = h;
                        sub.last_sent = Some(tti);
                    }
                    changed
                }
            };
            if fire {
                // The closure body is analyzed at its definition site
                // (closures-as-edges). lint:alloc-free-callee
                send(sub.xid, &self.reply);
            }
        }
        // Drop completed one-offs.
        self.subs.retain(|s| !s.done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexran_proto::messages::stats::ReportFlags;
    use flexran_stack::enb::{EnbParams, StaticPhyView};
    use flexran_types::config::EnbConfig;
    use flexran_types::ids::{CellId, EnbId, SliceId, UeId};
    use flexran_types::units::Bytes;

    fn enb_with_ue() -> Enb {
        let mut e = Enb::new(EnbConfig::single_cell(EnbId(1)), EnbParams::default()).unwrap();
        e.admit_ue(
            flexran_types::ids::CellId(0),
            UeId(1),
            SliceId::MNO,
            0,
            Bytes(100),
            Tti(0),
        )
        .unwrap();
        e
    }

    /// The xids of the replies `due` fires at `t`.
    fn fired(m: &mut ReportsManager, t: u64, enb: &Enb) -> Vec<u32> {
        let mut xids = Vec::new();
        m.due(Tti(t), enb, |xid, _| xids.push(xid));
        xids
    }

    fn all_config(rt: ReportType) -> ReportConfig {
        ReportConfig {
            report_type: rt,
            flags: ReportFlags::ALL,
        }
    }

    #[test]
    fn one_off_fires_once() {
        let enb = enb_with_ue();
        let mut m = ReportsManager::new();
        m.register(1, all_config(ReportType::OneOff));
        assert_eq!(fired(&mut m, 0, &enb).len(), 1);
        assert_eq!(fired(&mut m, 1, &enb).len(), 0);
        assert_eq!(m.n_subscriptions(), 0);
    }

    #[test]
    fn periodic_respects_period() {
        let enb = enb_with_ue();
        let mut m = ReportsManager::new();
        m.register(2, all_config(ReportType::Periodic { period: 5 }));
        let mut sent = Vec::new();
        for t in 0..20 {
            for xid in fired(&mut m, t, &enb) {
                assert_eq!(xid, 2);
                sent.push(t);
            }
        }
        assert_eq!(sent, vec![0, 5, 10, 15]);
    }

    #[test]
    fn triggered_fires_only_on_change() {
        let mut enb = enb_with_ue();
        let mut m = ReportsManager::new();
        m.register(3, all_config(ReportType::Triggered));
        // First report always fires (hash 0 → real hash).
        assert_eq!(fired(&mut m, 0, &enb).len(), 1);
        // Nothing changed.
        assert_eq!(fired(&mut m, 1, &enb).len(), 0);
        assert_eq!(fired(&mut m, 2, &enb).len(), 0);
        // Change the queue: fires again.
        enb.inject_dl_traffic(
            flexran_types::ids::CellId(0),
            enb.ue_stats(flexran_types::ids::CellId(0)).unwrap()[0].rnti,
            Bytes(500),
            Tti(3),
        )
        .unwrap();
        assert_eq!(fired(&mut m, 3, &enb).len(), 1);
        assert_eq!(fired(&mut m, 4, &enb).len(), 0);
    }

    #[test]
    fn reply_contains_cells_and_ues() {
        let enb = enb_with_ue();
        let reply = compose_reply(&enb, Tti(7), all_config(ReportType::OneOff));
        assert_eq!(reply.tti, 7);
        assert_eq!(reply.cells.len(), 1);
        assert_eq!(reply.ues.len(), 1);
        assert_eq!(reply.ues[0].rlc.len(), 2);
        // Without the CELL flag, no cell report.
        let cfg = ReportConfig {
            report_type: ReportType::OneOff,
            flags: ReportFlags::CQI,
        };
        let reply = compose_reply(&enb, Tti(7), cfg);
        assert!(reply.cells.is_empty());
    }

    proptest::proptest! {
        /// Composing into one reused reply equals composing a fresh one at
        /// every step, while UEs join and leave (leaving truncates `ues`),
        /// secondary cells toggle and the flag set changes which vectors
        /// are filled.
        #[test]
        fn compose_into_reused_reply_equals_fresh(
            counts in proptest::collection::vec(0usize..12, 1..8),
            flag_bits in proptest::collection::vec(proptest::prelude::any::<u8>(), 8..9),
            scell_mask in proptest::prelude::any::<u16>(),
        ) {
            let (pcell, scell) = (CellId(0), CellId(1));
            let mut config = EnbConfig::single_cell(EnbId(4));
            config.cells.push(flexran_types::config::CellConfig::paper_default(scell));
            let mut enb = Enb::new(config, EnbParams::default()).unwrap();
            let mut rntis = Vec::new();
            let mut reused = StatsReply::default();
            for (step, &n) in counts.iter().enumerate() {
                while rntis.len() < n {
                    let tag = UeId(rntis.len() as u32 + 1);
                    let rnti = enb
                        .admit_ue(pcell, tag, SliceId::MNO, 0, Bytes(100), Tti(0))
                        .unwrap();
                    if scell_mask >> (rntis.len() % 16) & 1 == 1 {
                        enb.set_scell(pcell, rnti, scell, true).unwrap();
                    }
                    rntis.push(rnti);
                }
                while rntis.len() > n {
                    let rnti = rntis.remove((step * 7) % rntis.len());
                    enb.detach(pcell, rnti, Tti(step as u64)).unwrap();
                }
                let config = ReportConfig {
                    report_type: ReportType::Periodic { period: 1 },
                    flags: ReportFlags(flag_bits[step % flag_bits.len()] as u64),
                };
                let tti = Tti(step as u64);
                compose_reply_into(&enb, tti, config, &mut reused);
                proptest::prop_assert_eq!(&reused, &compose_reply(&enb, tti, config));
            }
        }
    }

    #[test]
    fn subscriptions_replace_and_cancel() {
        let enb = enb_with_ue();
        let mut m = ReportsManager::new();
        m.register(5, all_config(ReportType::Periodic { period: 1 }));
        m.register(5, all_config(ReportType::Periodic { period: 100 }));
        assert_eq!(m.n_subscriptions(), 1);
        assert_eq!(fired(&mut m, 0, &enb).len(), 1);
        assert_eq!(fired(&mut m, 1, &enb).len(), 0, "period replaced");
        m.cancel(5);
        assert_eq!(m.n_subscriptions(), 0);
        let mut phy = StaticPhyView(10.0);
        let _ = &mut phy;
    }
}
