//! Fuzzing the master's message handler.
//!
//! The master's inbound surface is whatever a transport's `try_recv`
//! yields from network bytes. This harness drives that exact path with
//! three hostile frame classes — raw garbage bytes, bit-flipped valid
//! envelopes, and structurally valid messages carrying hostile field
//! values (undeclared cells, null RNTIs, master-bound kinds arriving
//! inbound) — and demands:
//!
//! 1. no panic and no hang, ever;
//! 2. bounded RIB growth: validation keeps phantom state out, so the
//!    forest only holds cells inside each agent's declared range and
//!    never a null-RNTI UE;
//! 3. the journal stays coherent: a crash at any point after the hostile
//!    traffic recovers to a RIB identical to the live one.

use std::collections::VecDeque;

use proptest::prelude::*;

use flexran_controller::master::{MasterController, TaskManagerConfig};
use flexran_proto::category::ByteCounters;
use flexran_proto::messages::events::EventKind;
use flexran_proto::messages::stats::{StatsReply, UeReport};
use flexran_proto::messages::{
    DlSchedulingCommand, EventNotification, FlexranMessage, Header, Hello, SubframeTrigger,
};
use flexran_proto::transport::Transport;
use flexran_types::ids::EnbId;
use flexran_types::time::Tti;
use flexran_types::Result;

/// A transport preloaded with adversarial inbound frames. `try_recv`
/// decodes them exactly the way the real channel/TCP/sim transports do,
/// so the master sees the same error/message sequence it would see from
/// a hostile or corrupted peer. Outbound messages are swallowed.
struct FuzzTransport {
    inbound: VecDeque<Vec<u8>>,
    counters: ByteCounters,
}

impl Transport for FuzzTransport {
    fn send(&mut self, _header: Header, _msg: &FlexranMessage) -> Result<()> {
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<(Header, FlexranMessage)>> {
        let Some(bytes) = self.inbound.pop_front() else {
            return Ok(None);
        };
        let (header, msg) = FlexranMessage::decode(&bytes)?;
        Ok(Some((header, msg)))
    }

    fn tx_counters(&self) -> ByteCounters {
        self.counters
    }

    fn rx_counters(&self) -> ByteCounters {
        self.counters
    }
}

const KINDS: [EventKind; 10] = [
    EventKind::RachAttempt,
    EventKind::UeAttached,
    EventKind::AttachFailed,
    EventKind::UeDetached,
    EventKind::SchedulingRequest,
    EventKind::MeasurementReport,
    EventKind::HandoverExecuted,
    EventKind::DecisionMissedDeadline,
    EventKind::AgentDown,
    EventKind::AgentUp,
];

/// Structurally valid messages with hostile field values.
fn hostile_message() -> impl Strategy<Value = FlexranMessage> {
    prop_oneof![
        (any::<u32>(), 0u32..4).prop_map(|(id, n)| {
            FlexranMessage::Hello(Hello {
                enb_id: EnbId(id % 5),
                n_cells: n,
                capabilities: vec!["dl_scheduling".into()],
                applied_config: 0,
            })
        }),
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 0..4),
        )
            .prop_map(|(id, tti, ues)| {
                FlexranMessage::StatsReply(StatsReply {
                    enb_id: EnbId(id % 5),
                    tti,
                    cells: vec![],
                    ues: ues
                        .into_iter()
                        .map(|(rnti, cell, cqi)| UeReport {
                            rnti,
                            cell,
                            wideband_cqi: cqi,
                            ..UeReport::default()
                        })
                        .collect(),
                })
            }),
        (
            any::<u32>(),
            0usize..10,
            any::<u16>(),
            any::<u16>(),
            any::<u64>(),
        )
            .prop_map(|(id, k, cell, rnti, tti)| {
                FlexranMessage::EventNotification(EventNotification {
                    enb_id: EnbId(id % 5),
                    kind: KINDS[k],
                    cell,
                    rnti,
                    ue_tag: id,
                    tti,
                    ..EventNotification::default()
                })
            }),
        (any::<u32>(), any::<u64>()).prop_map(|(id, tti)| {
            FlexranMessage::SubframeTrigger(SubframeTrigger {
                enb_id: EnbId(id % 5),
                sfn: (tti / 10 % 1024) as u16,
                sf: (tti % 10) as u8,
                tti,
            })
        }),
        // A master-bound kind arriving inbound: never legal from an
        // agent, must be ignored without panicking.
        any::<u32>().prop_map(|id| {
            FlexranMessage::DlSchedulingCommand(DlSchedulingCommand {
                enb_id: EnbId(id % 5),
                ..DlSchedulingCommand::default()
            })
        }),
    ]
}

/// One adversarial frame: raw garbage, a bit-flipped valid envelope, or
/// a hostile-valued valid message.
fn frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..96),
        (hostile_message(), any::<u32>(), any::<usize>(), 0u8..8).prop_map(
            |(msg, xid, pos, bit)| {
                let mut bytes = msg.encode(Header::with_xid(xid)).to_vec();
                let at = pos % bytes.len().max(1);
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << bit;
                }
                bytes
            }
        ),
        (hostile_message(), any::<u32>())
            .prop_map(|(msg, xid)| msg.encode(Header::with_xid(xid)).to_vec()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn master_survives_adversarial_frames(
        frames in proptest::collection::vec(frame(), 1..40),
        n_cycles in 4u64..12,
    ) {
        let config = TaskManagerConfig {
            liveness_timeout: 3,
            journal_snapshot_every: 2,
            ..TaskManagerConfig::default()
        };
        let mut master = MasterController::new(config);
        master.add_agent(Box::new(FuzzTransport {
            inbound: frames.into(),
            counters: ByteCounters::new(),
        }));
        for t in 0..n_cycles {
            master.run_cycle(Tti(t));
        }

        // Validation keeps the forest inside the declared topology even
        // though the traffic was hostile.
        let live_rib = master.merged_rib();
        for agent in live_rib.agents() {
            prop_assert!(
                agent.cells().len() as u64 <= u64::from(agent.n_cells),
                "agent {:?} grew {} cells but declared {}",
                agent.enb_id, agent.cells().len(), agent.n_cells
            );
            for cell in agent.cells() {
                prop_assert!(u32::from(cell.cell_id.0) < agent.n_cells);
                for u in cell.ues() {
                    prop_assert!(u.rnti.0 != 0, "null-RNTI UE folded into the RIB");
                }
            }
        }

        // The journal must recover to exactly the live forest, no matter
        // what the hostile traffic did to it. `stale_since` is session
        // state, not forest data: recovery marks every agent stale at the
        // recovery TTI (no sessions are live yet) while the live master
        // may have opened the epoch earlier via its liveness timeout, so
        // the comparison excludes it.
        let journal = master.journal_bytes().expect("journaling is on");
        let recovered = MasterController::recover(config, &journal, Tti(n_cycles), 1)
            .expect("recovery never fails on a journal the master itself wrote");
        let rec_rib = recovered.merged_rib();
        prop_assert_eq!(rec_rib.n_agents(), live_rib.n_agents());
        for (live, rec) in live_rib.agents().zip(rec_rib.agents()) {
            prop_assert_eq!(live.enb_id, rec.enb_id);
            prop_assert_eq!(&live.capabilities, &rec.capabilities);
            prop_assert_eq!(live.n_cells, rec.n_cells);
            prop_assert_eq!(live.connected_at, rec.connected_at);
            prop_assert_eq!(live.last_sync, rec.last_sync);
            prop_assert_eq!(live.cells(), rec.cells());
        }
    }
}
