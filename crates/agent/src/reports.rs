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
use flexran_proto::messages::CellReport;
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
/// The tick path is delta-aware and allocation-free in steady state: the
/// candidate reply and the hash encoding live in reusable buffers, and
/// heap traffic only happens when a report actually fires (the reply is
/// handed to the caller by `mem::take`).
#[derive(Debug, Default)]
pub struct ReportsManager {
    subs: Vec<Subscription>,
    /// Reusable reply — refilled in place each tick a subscription looks.
    reply_buf: StatsReply,
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
/// `cells`/`ues` buffers.
pub fn compose_reply_into(enb: &Enb, tti: Tti, config: ReportConfig, reply: &mut StatsReply) {
    reply.enb_id = enb.config().enb_id;
    reply.tti = tti.0;
    reply.cells.clear();
    reply.ues.clear();
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
            reply
                .ues
                // lint:allow(alloc-reach) owned wire structs, composed per report window
                .push(UeReport::from_stats(&ue, cell, config.flags));
        }
    }
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

    /// Replies due at `tti`, with the xid to reply under.
    ///
    /// Candidate replies are composed into the manager's reusable buffer;
    /// only a reply that actually fires is moved out (`mem::take`), so a
    /// quiet tick — the steady state of a triggered subscription — does
    /// not touch the heap.
    pub fn due(&mut self, tti: Tti, enb: &Enb) -> Vec<(u32, StatsReply)> {
        // lint:allow(alloc-reach) populated only when a report fires — interval-driven
        let mut out = Vec::new();
        for sub in &mut self.subs {
            if sub.done {
                continue;
            }
            match sub.config.report_type {
                ReportType::OneOff => {
                    compose_reply_into(enb, tti, sub.config, &mut self.reply_buf);
                    out.push((sub.xid, std::mem::take(&mut self.reply_buf)));
                    sub.done = true;
                }
                ReportType::Periodic { period } => {
                    let due = match sub.last_sent {
                        None => true,
                        Some(last) => tti.saturating_since(last) >= period as u64,
                    };
                    if due {
                        compose_reply_into(enb, tti, sub.config, &mut self.reply_buf);
                        out.push((sub.xid, std::mem::take(&mut self.reply_buf)));
                        sub.last_sent = Some(tti);
                    }
                }
                ReportType::Triggered => {
                    compose_reply_into(enb, tti, sub.config, &mut self.reply_buf);
                    let h = content_hash(&mut self.reply_buf, &mut self.hash_buf);
                    if h != sub.last_hash {
                        sub.last_hash = h;
                        sub.last_sent = Some(tti);
                        out.push((sub.xid, std::mem::take(&mut self.reply_buf)));
                    }
                }
            }
        }
        // Drop completed one-offs.
        self.subs.retain(|s| !s.done);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexran_proto::messages::stats::ReportFlags;
    use flexran_stack::enb::{EnbParams, StaticPhyView};
    use flexran_types::config::EnbConfig;
    use flexran_types::ids::{EnbId, SliceId, UeId};
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
        assert_eq!(m.due(Tti(0), &enb).len(), 1);
        assert_eq!(m.due(Tti(1), &enb).len(), 0);
        assert_eq!(m.n_subscriptions(), 0);
    }

    #[test]
    fn periodic_respects_period() {
        let enb = enb_with_ue();
        let mut m = ReportsManager::new();
        m.register(2, all_config(ReportType::Periodic { period: 5 }));
        let mut sent = Vec::new();
        for t in 0..20 {
            for (xid, _) in m.due(Tti(t), &enb) {
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
        assert_eq!(m.due(Tti(0), &enb).len(), 1);
        // Nothing changed.
        assert_eq!(m.due(Tti(1), &enb).len(), 0);
        assert_eq!(m.due(Tti(2), &enb).len(), 0);
        // Change the queue: fires again.
        enb.inject_dl_traffic(
            flexran_types::ids::CellId(0),
            enb.ue_stats(flexran_types::ids::CellId(0)).unwrap()[0].rnti,
            Bytes(500),
            Tti(3),
        )
        .unwrap();
        assert_eq!(m.due(Tti(3), &enb).len(), 1);
        assert_eq!(m.due(Tti(4), &enb).len(), 0);
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

    #[test]
    fn subscriptions_replace_and_cancel() {
        let enb = enb_with_ue();
        let mut m = ReportsManager::new();
        m.register(5, all_config(ReportType::Periodic { period: 1 }));
        m.register(5, all_config(ReportType::Periodic { period: 100 }));
        assert_eq!(m.n_subscriptions(), 1);
        assert_eq!(m.due(Tti(0), &enb).len(), 1);
        assert_eq!(m.due(Tti(1), &enb).len(), 0, "period replaced");
        m.cancel(5);
        assert_eq!(m.n_subscriptions(), 0);
        let mut phy = StaticPhyView(10.0);
        let _ = &mut phy;
    }
}
