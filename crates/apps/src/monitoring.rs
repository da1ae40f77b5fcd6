//! A monitoring application: subscribes to statistics from every agent
//! that connects and aggregates a network-wide view.
//!
//! This is the paper's "simple monitoring application that obtains
//! statistics reporting which can be used by other apps" — the snapshot
//! is shared behind an `Arc` so co-resident applications (e.g. the MEC
//! app) or an operator dashboard can read it.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use flexran_controller::northbound::{App, ControlHandle, RibView};
use flexran_proto::messages::stats::{ReportConfig, ReportFlags, ReportType, StatsRequest};
use flexran_proto::messages::{ConfigRequest, FlexranMessage};
use flexran_types::ids::{EnbId, Rnti};
use flexran_types::time::Tti;

/// One UE's monitored state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UeSnapshot {
    pub cqi: u8,
    pub dl_queue_bytes: u64,
    pub dl_delivered_bits: u64,
    pub connected: bool,
    pub slice: u8,
}

/// The shared network view.
#[derive(Debug, Clone, Default)]
pub struct NetworkSnapshot {
    pub updated: Tti,
    pub ues: BTreeMap<(EnbId, Rnti), UeSnapshot>,
    pub total_dl_bits: u64,
}

/// Shared handle to the monitoring state.
pub type SnapshotHandle = Arc<RwLock<NetworkSnapshot>>;

/// The monitoring application.
pub struct MonitoringApp {
    /// Statistics subscription pushed to each new agent.
    report: ReportConfig,
    subscribed: Vec<EnbId>,
    snapshot: SnapshotHandle,
}

impl MonitoringApp {
    pub fn new(report_period: u32) -> Self {
        MonitoringApp {
            report: ReportConfig {
                report_type: ReportType::Periodic {
                    period: report_period.max(1),
                },
                flags: ReportFlags::ALL,
            },
            subscribed: Vec::new(),
            snapshot: Arc::new(RwLock::new(NetworkSnapshot::default())),
        }
    }

    /// The handle other components read the network view from.
    pub fn snapshot_handle(&self) -> SnapshotHandle {
        self.snapshot.clone()
    }
}

impl App for MonitoringApp {
    fn name(&self) -> &str {
        "monitoring"
    }

    fn priority(&self) -> u8 {
        10 // non-time-critical (paper §4.3.3)
    }

    fn on_cycle(&mut self, rib: &RibView<'_>, ctl: &mut ControlHandle<'_>) {
        // Subscribe to agents we have not seen before. The ordered,
        // collecting query runs only on the cycle a new agent shows up.
        if rib
            .agents_unordered()
            .any(|a| !self.subscribed.contains(&a.enb_id))
        {
            let new_agents: Vec<EnbId> = rib
                .agents()
                .into_iter()
                .map(|a| a.enb_id)
                .filter(|id| !self.subscribed.contains(id))
                .collect();
            for enb in new_agents {
                ctl.send(
                    enb,
                    FlexranMessage::StatsRequest(StatsRequest {
                        config: self.report,
                    }),
                );
                // Also pull the static configuration so the RIB's cell
                // records (bandwidths, DCI budgets) are populated for
                // other applications (e.g. the centralized scheduler).
                ctl.send(enb, FlexranMessage::ConfigRequest(ConfigRequest::default()));
                self.subscribed.push(enb);
            }
        }
        // Refresh the shared snapshot in place: overwrite the entry of
        // every UE in the RIB (an existing key is updated without
        // touching the heap), then drop the UEs that were not seen.
        // Within an agent, cells and UEs keep the RIB order, so when two
        // cells reuse an RNTI the later cell's UE wins, as it always has.
        let mut snap = self.snapshot.write();
        snap.updated = rib.now();
        snap.total_dl_bits = 0;
        let mut distinct = 0;
        for agent in rib.agents_unordered() {
            let cells = agent.cells();
            for (i, cell) in cells.iter().enumerate() {
                for ue in cell.ues() {
                    snap.total_dl_bits += ue.report.dl_tbs_bits_total;
                    snap.ues.insert(
                        (agent.enb_id, ue.rnti),
                        UeSnapshot {
                            cqi: ue.report.wideband_cqi,
                            dl_queue_bytes: ue.report.rlc.iter().map(|r| r.tx_queue_bytes).sum(),
                            dl_delivered_bits: ue.report.dl_tbs_bits_total,
                            connected: ue.report.connected,
                            slice: ue.report.slice,
                        },
                    );
                    if !cells.iter().take(i).any(|c| c.ue(ue.rnti).is_some()) {
                        distinct += 1;
                    }
                }
            }
        }
        if snap.ues.len() > distinct {
            snap.ues.retain(|&(enb, rnti), _| {
                rib.agent(enb)
                    .is_some_and(|a| a.cells().iter().any(|c| c.ue(rnti).is_some()))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexran_controller::{MasterController, TaskManagerConfig};
    use flexran_proto::messages::{Header, Hello};
    use flexran_proto::transport::{channel_pair, Transport};

    #[test]
    fn subscribes_once_per_agent_and_mirrors_rib() {
        let mut master = MasterController::new(TaskManagerConfig::default());
        let app = MonitoringApp::new(1);
        let handle = app.snapshot_handle();
        master.register_app(Box::new(app));
        let (mut agent_side, master_side) = channel_pair();
        master.add_agent(Box::new(master_side));
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::Hello(Hello {
                    enb_id: EnbId(3),
                    n_cells: 1,
                    capabilities: vec![],
                    applied_config: 0,
                }),
            )
            .unwrap();
        for t in 0..3 {
            master.run_cycle(Tti(t));
        }
        // Exactly one subscription + one config request arrived.
        let mut stats_requests = 0;
        let mut config_requests = 0;
        while let Ok(Some((_, msg))) = agent_side.try_recv() {
            match msg {
                FlexranMessage::StatsRequest(_) => stats_requests += 1,
                FlexranMessage::ConfigRequest(_) => config_requests += 1,
                _ => {}
            }
        }
        assert_eq!(stats_requests, 1);
        assert_eq!(config_requests, 1);
        // Feed a stats reply; the snapshot mirrors it.
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::StatsReply(flexran_proto::messages::StatsReply {
                    enb_id: EnbId(3),
                    tti: 2,
                    cells: vec![],
                    ues: vec![flexran_proto::messages::UeReport {
                        rnti: 0x100,
                        cell: 0,
                        connected: true,
                        wideband_cqi: 13,
                        dl_tbs_bits_total: 4096,
                        ..Default::default()
                    }],
                }),
            )
            .unwrap();
        master.run_cycle(Tti(3));
        let snap = handle.read();
        assert_eq!(snap.ues.len(), 1);
        let ue = &snap.ues[&(EnbId(3), Rnti(0x100))];
        assert_eq!(ue.cqi, 13);
        assert!(ue.connected);
        assert_eq!(snap.total_dl_bits, 4096);
    }

    #[test]
    fn ue_that_leaves_drops_out_of_the_snapshot() {
        use flexran_proto::messages::events::EventKind;
        use flexran_proto::messages::{EventNotification, StatsReply, UeReport};

        let mut master = MasterController::new(TaskManagerConfig::default());
        let app = MonitoringApp::new(1);
        let handle = app.snapshot_handle();
        master.register_app(Box::new(app));
        let (mut agent_side, master_side) = channel_pair();
        master.add_agent(Box::new(master_side));
        let send = |t: &mut dyn Transport, msg: FlexranMessage| {
            t.send(Header::default(), &msg).unwrap();
        };
        send(
            &mut agent_side,
            FlexranMessage::Hello(Hello {
                enb_id: EnbId(3),
                n_cells: 1,
                capabilities: vec![],
                applied_config: 0,
            }),
        );
        master.run_cycle(Tti(0));
        let ue = |rnti: u16, bits: u64| UeReport {
            rnti,
            connected: true,
            dl_tbs_bits_total: bits,
            ..Default::default()
        };
        send(
            &mut agent_side,
            FlexranMessage::StatsReply(StatsReply {
                enb_id: EnbId(3),
                tti: 1,
                cells: vec![],
                ues: vec![ue(0x100, 1000), ue(0x101, 24), ue(0x102, 500)],
            }),
        );
        master.run_cycle(Tti(1));
        assert_eq!(handle.read().ues.len(), 3);
        assert_eq!(handle.read().total_dl_bits, 1524);

        // 0x101 detaches: the RIB drops its leaf, and so does the snapshot
        // on the next cycle, while the others are refreshed in place.
        send(
            &mut agent_side,
            FlexranMessage::EventNotification(EventNotification {
                enb_id: EnbId(3),
                kind: EventKind::UeDetached,
                rnti: 0x101,
                tti: 2,
                ..EventNotification::default()
            }),
        );
        send(
            &mut agent_side,
            FlexranMessage::StatsReply(StatsReply {
                enb_id: EnbId(3),
                tti: 2,
                cells: vec![],
                ues: vec![ue(0x100, 2000), ue(0x102, 600)],
            }),
        );
        master.run_cycle(Tti(2));
        let snap = handle.read();
        let keys: Vec<u16> = snap.ues.keys().map(|(_, r)| r.0).collect();
        assert_eq!(keys, vec![0x100, 0x102]);
        assert_eq!(snap.ues[&(EnbId(3), Rnti(0x100))].dl_delivered_bits, 2000);
        assert_eq!(snap.total_dl_bits, 2600);
        assert_eq!(snap.updated, Tti(2));
    }
}
