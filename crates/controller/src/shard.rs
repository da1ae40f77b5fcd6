//! RIB shards: the partitioned control plane.
//!
//! The paper's master is logically centralized but nothing in its cycle
//! requires one serial loop: every agent message mutates only that
//! agent's RIB subtree, and the single-writer discipline (Fig. 5) is a
//! *per-subtree* property. A [`RibShard`] is the unit of that
//! partitioning — it owns a disjoint set of agents and, for them:
//!
//! * its own single-writer [`RibUpdater`] (one writer **per shard** —
//!   the R1 lint's discipline, now multiplied),
//! * its own [`RibJournal`] segment (crash recovery replays segments
//!   independently; the container format is `journal::encode_segments`),
//! * the agent sessions themselves.
//!
//! The owned agents' subtrees live in a separate [`Rib`] forest per
//! shard, kept by the master in a `Vec<Rib>` beside the shards so the
//! northbound reads the forests without touching shard state. A shard's
//! RIB slot takes its own forest by `&mut` and touches nothing else, so
//! a harness can run the slots on worker threads.
//!
//! The partitioning is fixed at construction: with `n` shards, agent
//! `e` is owned by shard `e mod n`. The mapping depends only on the
//! agent id, so it is stable across restarts and arrival orders. A
//! standalone master has one shard (the classic serial master); a
//! `SimHarness` builds one shard per engine worker, so the shard slots
//! fan out over the same pool as the agents' TTI phases.
//!
//! No shard ever reads or writes another shard's forest. What crosses
//! shards happens serially at the master's barrier: staged northbound
//! commands and rollout pushes are sent on the owning shard's session,
//! and a session that re-introduces itself as a foreign agent is moved
//! to the owning shard.
//!
//! Determinism: each shard tags the events it raises with the session's
//! *global* index and a phase number; the master stable-sorts the merged
//! stream by `(phase, global index)`, which reproduces exactly the event
//! order of the old serial loop regardless of shard count.

use std::collections::VecDeque;

use flexran_proto::messages::delegation::VsfPush;
use flexran_proto::messages::events::EventKind;
use flexran_proto::messages::stats::{ReportConfig, StatsRequest};
use flexran_proto::messages::{EventNotification, FlexranMessage, Header, ResyncRequest};
use flexran_proto::transport::Transport;
use flexran_types::ids::EnbId;
use flexran_types::time::Tti;
use flexran_types::ErrorKind;

use crate::config::BundleAck;
use crate::journal::{mutates_rib, RibJournal};
use crate::master::{SessionLivenessStats, TaskManagerConfig};
use crate::rib::Rib;
use crate::updater::{NotifiedEvent, RibUpdater};

/// Delegated state the master replays to a rejoining agent, in original
/// order (paper §4.3.2: the master, not the agent, owns policy intent).
#[derive(Debug, Clone)]
pub(crate) enum ReplayOp {
    Stats(ReportConfig),
    Vsf(VsfPush),
    Policy(String),
}

impl ReplayOp {
    pub(crate) fn to_message(&self) -> FlexranMessage {
        match self {
            ReplayOp::Stats(config) => {
                FlexranMessage::StatsRequest(StatsRequest { config: *config })
            }
            ReplayOp::Vsf(push) => FlexranMessage::VsfPush(push.clone()),
            ReplayOp::Policy(yaml) => FlexranMessage::PolicyReconfiguration(
                flexran_proto::messages::PolicyReconfiguration { yaml: yaml.clone() },
            ),
        }
    }

    /// Inverse of [`ReplayOp::to_message`] — journal recovery turns the
    /// persisted replay section back into ops. Non-delegation kinds in
    /// the section are ignored (a corrupt-but-decodable journal must not
    /// inject arbitrary commands).
    pub(crate) fn from_message(msg: &FlexranMessage) -> Option<ReplayOp> {
        match msg {
            FlexranMessage::StatsRequest(r) => Some(ReplayOp::Stats(r.config)),
            FlexranMessage::VsfPush(p) => Some(ReplayOp::Vsf(p.clone())),
            FlexranMessage::PolicyReconfiguration(p) => Some(ReplayOp::Policy(p.yaml.clone())),
            _ => None,
        }
    }
}

/// One agent control session (transport + liveness + delegated state).
pub(crate) struct Session {
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) enb_id: Option<EnbId>,
    /// Master time of the last message from this agent (None = silent so
    /// far; the timeout clock starts at the first message).
    pub(crate) last_rx: Option<Tti>,
    /// Session currently considered dead.
    pub(crate) down: bool,
    /// Delegated-state log replayed on rejoin.
    pub(crate) replay: Vec<ReplayOp>,
    /// Recovered-master sessions don't know which agent is on the other
    /// end until a `Hello` arrives; pre-hello traffic triggers a
    /// `ResyncRequest` nudge so agents that never noticed the outage
    /// (shorter than their degraded threshold) still re-introduce
    /// themselves and push full state.
    pub(crate) needs_resync_nudge: bool,
    /// When the last nudge went out. The nudge re-arms every
    /// [`RESYNC_NUDGE_PERIOD`] TTIs while the session stays pre-hello:
    /// a nudge — or the `Hello` it provokes — lost to a faulty link is
    /// retried instead of stranding the agent in a stale epoch forever.
    pub(crate) nudged_at: Option<Tti>,
    /// Index in global attach order — shard-count-invariant, the event
    /// merge key and the order of `connected_agents`/`take_transports`.
    pub(crate) global_idx: u32,
    /// Per-session transaction ids, so the xid stream on one control
    /// link does not depend on which other agents share its shard.
    pub(crate) xid: u32,
    /// Messages handed over by the master's pre-hello drain (the `Hello`
    /// that routed this session to its shard rides here); consumed ahead
    /// of the transport.
    pub(crate) carryover: VecDeque<(Header, FlexranMessage)>,
    /// Receive slot: every message of the session is decoded into it, so
    /// the 1 ms stats reply is refilled in place (see
    /// `FlexranMessage::decode_into`) instead of rebuilt per report.
    pub(crate) rx_slot: FlexranMessage,
    /// Run the rejoin path (fresh-mark + delegated-state replay) on the
    /// next RIB slot — set when a recovered master adopts pending replay
    /// state at the session's `Hello`.
    pub(crate) rejoin_pending: bool,
    /// The session re-introduced itself as an agent this shard does not
    /// own; the master moves it to the owning shard at the barrier.
    pub(crate) rehome_to: Option<EnbId>,
    /// Config-bundle signature the agent last advertised (via `Hello`,
    /// heartbeat, or a successful bundle ack; 0 = none). The rollout
    /// state machine reads this to detect convergence and drift.
    pub(crate) applied_config: u64,
}

impl Session {
    pub(crate) fn new(
        transport: Box<dyn Transport>,
        global_idx: u32,
        needs_resync_nudge: bool,
    ) -> Self {
        Session {
            transport,
            enb_id: None,
            last_rx: None,
            down: false,
            replay: Vec::new(),
            needs_resync_nudge,
            nudged_at: None,
            global_idx,
            xid: 0,
            carryover: VecDeque::new(),
            rx_slot: FlexranMessage::default(),
            rejoin_pending: false,
            rehome_to: None,
            applied_config: 0,
        }
    }

    pub(crate) fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    /// Whether pre-hello traffic at `now` should draw a resync nudge,
    /// recording the send. Paced by [`RESYNC_NUDGE_PERIOD`] so the
    /// master retries (rather than spams) when a nudge or the answering
    /// `Hello` is lost on a faulty link.
    pub(crate) fn take_nudge(&mut self, now: Tti) -> bool {
        if !self.needs_resync_nudge {
            return false;
        }
        if self
            .nudged_at
            .is_some_and(|at| now.0.saturating_sub(at.0) < RESYNC_NUDGE_PERIOD)
        {
            return false;
        }
        self.nudged_at = Some(now);
        true
    }
}

/// Re-arm period (TTIs) for the pre-hello resync nudge. Longer than the
/// agent heartbeat period (so one round trip can complete), far shorter
/// than any staleness an operator would notice.
pub(crate) const RESYNC_NUDGE_PERIOD: u64 = 25;

/// Event-merge phases, in the order the old serial loop raised them.
pub(crate) const PHASE_DRAIN: u8 = 0;
pub(crate) const PHASE_REJOIN: u8 = 1;
pub(crate) const PHASE_DOWN: u8 = 2;

/// An event raised by a shard's RIB slot, tagged for the deterministic
/// agent-index-ordered merge.
pub(crate) struct TaggedEvent {
    pub(crate) phase: u8,
    /// The raising session's global attach index.
    pub(crate) order: u32,
    pub(crate) event: NotifiedEvent,
}

pub(crate) fn liveness_event(enb: EnbId, kind: EventKind, now: Tti) -> NotifiedEvent {
    NotifiedEvent {
        enb,
        notification: EventNotification {
            enb_id: enb,
            kind,
            tti: now.0,
            ..EventNotification::default()
        },
        received: now,
    }
}

/// The shard (of `n_shards`) that owns agent `enb`.
pub(crate) fn owner_of(enb: EnbId, n_shards: usize) -> usize {
    enb.0 as usize % n_shards
}

/// One shard of the partitioned master: a disjoint set of agents with
/// their single-writer updater, journal segment, and sessions. The
/// agents' subtrees live in the shard's own [`Rib`], which the master
/// keeps beside the shard and passes to [`RibShard::run_rib_slot`]; the
/// slot touches nothing else, so the master fans shards out on the
/// scoped worker pool.
pub struct RibShard {
    index: usize,
    n_shards: usize,
    liveness_timeout: u64,
    pub(crate) updater: RibUpdater,
    pub(crate) journal: Option<RibJournal>,
    pub(crate) sessions: Vec<Session>,
    pub(crate) liveness: SessionLivenessStats,
    /// Events raised this cycle, drained by the master's merge.
    pub(crate) events: Vec<TaggedEvent>,
    /// Config-bundle acks received this cycle, drained by the master's
    /// rollout step at the barrier.
    pub(crate) config_acks: Vec<BundleAck>,
}

impl RibShard {
    pub(crate) fn new(index: usize, n_shards: usize, config: &TaskManagerConfig) -> Self {
        RibShard {
            index,
            n_shards,
            liveness_timeout: config.liveness_timeout,
            updater: RibUpdater::new(),
            journal: (config.journal_snapshot_every > 0)
                .then(|| RibJournal::new(config.journal_snapshot_every)),
            sessions: Vec::new(),
            liveness: SessionLivenessStats::default(),
            events: Vec::new(),
            config_acks: Vec::new(),
        }
    }

    /// The session that identified itself as `enb`, if it is on this
    /// shard.
    pub(crate) fn session_mut(&mut self, enb: EnbId) -> Option<&mut Session> {
        self.sessions.iter_mut().find(|s| s.enb_id == Some(enb))
    }

    /// Run this shard's RIB slot for cycle `now` over `rib`, the shard's
    /// own forest: drain the owned sessions, fold messages through the
    /// shard's single writer, journal deltas, process rejoins and
    /// liveness timeouts. Exactly the old serial master loop, restricted
    /// to the shard's agents.
    // lint:no-alloc — per-TTI shard slot; steady state must not touch the heap
    pub fn run_rib_slot(&mut self, rib: &mut Rib, now: Tti) {
        let (index, n_shards) = (self.index, self.n_shards);
        rib.open_write_cycle(now);
        // Pushes happen only on the cold rejoin edge after an outage.
        // lint:allow(hot-alloc) Vec::new never allocates
        let mut rejoined: Vec<usize> = Vec::new();
        for (idx, session) in self.sessions.iter_mut().enumerate() {
            if session.rejoin_pending {
                session.rejoin_pending = false;
                rejoined.push(idx);
            }
            if session.rehome_to.is_some() {
                // Parked for the master to move at the barrier.
                continue;
            }
            loop {
                let header = match session.carryover.pop_front() {
                    Some((header, msg)) => {
                        session.rx_slot = msg;
                        header
                    }
                    None => match session.transport.try_recv_into(&mut session.rx_slot) {
                        Ok(Some(header)) => header,
                        Ok(None) => break,
                        Err(e) => {
                            if e.kind() == ErrorKind::Codec {
                                self.liveness.undecodable_frames += 1;
                            }
                            break;
                        }
                    },
                };
                let msg = &session.rx_slot;
                session.last_rx = Some(now);
                if session.down {
                    session.down = false;
                    rejoined.push(idx);
                }
                if let FlexranMessage::Heartbeat(h) = msg {
                    // Session-level probe: mirror it back even before the
                    // agent has introduced itself. The probe doubles as
                    // the drift signal: it carries the signature of the
                    // config bundle the agent is actually running.
                    session.applied_config = h.applied_config;
                    let _ = session
                        .transport
                        // lint:allow(alloc-reach) wire frame growth is pooled; ack is arrival-driven
                        .send(header, &FlexranMessage::HeartbeatAck(*h));
                }
                if let FlexranMessage::ConfigBundleAck(a) = msg {
                    if a.ok {
                        session.applied_config = a.signature;
                    }
                    // lint:allow(alloc-reach) rollout ack — arrives only while a push is in flight
                    self.config_acks.push(BundleAck {
                        enb: a.enb_id,
                        version: a.version,
                        signature: a.signature,
                        ok: a.ok,
                    });
                }
                if let FlexranMessage::Hello(h) = msg {
                    if owner_of(h.enb_id, n_shards) != index {
                        // The session renamed itself to an agent another
                        // shard owns (an agent restart reusing the link
                        // with a new identity): park the hello and let
                        // the master re-home the session — this shard
                        // must never write a foreign subtree.
                        let rehome = h.enb_id;
                        let msg = std::mem::take(&mut session.rx_slot);
                        session.carryover.push_front((header, msg));
                        session.rehome_to = Some(rehome);
                        break;
                    }
                    session.enb_id = Some(h.enb_id);
                    session.applied_config = h.applied_config;
                }
                // A session enters a shard with its `Hello` first in
                // `carryover`, so it always has an identity here; pre-hello
                // traffic is handled in the master's limbo drain.
                let Some(enb) = session.enb_id else {
                    continue;
                };
                if let Some(ev) = self.updater.apply(rib, enb, msg, now) {
                    self.events.push(TaggedEvent {
                        phase: PHASE_DRAIN,
                        order: session.global_idx,
                        event: ev,
                    });
                }
                if let Some(journal) = self.journal.as_mut() {
                    if mutates_rib(msg) {
                        journal.record_delta(enb, now, msg);
                    }
                }
            }
        }
        // Rejoins: mark the subtree fresh again and replay delegated
        // state so the agent converges back to the pre-outage policy.
        for idx in rejoined {
            let Some((enb, order, replay)) = self
                .sessions
                .get(idx)
                // lint:allow(hot-alloc) rejoin-only (cold): replays delegated state
                .and_then(|s| s.enb_id.map(|enb| (enb, s.global_idx, s.replay.clone())))
            else {
                continue;
            };
            // The shard's view of the agent predates the outage: ask for
            // a full state re-sync (fresh ConfigReply + all-flags
            // StatsReply) before replaying delegated state, so both sides
            // converge from a known-good base. After a master crash this
            // is the reconciliation leg of recovery.
            let since_tti = rib
                .agent(enb)
                .and_then(|a| a.synced_subframe())
                .map(|t| t.0)
                .unwrap_or(0);
            self.updater.agent_rejoined(rib, enb);
            self.liveness.ups += 1;
            self.events.push(TaggedEvent {
                phase: PHASE_REJOIN,
                order,
                event: liveness_event(enb, EventKind::AgentUp, now),
            });
            let Some(session) = self.sessions.get_mut(idx) else {
                continue;
            };
            let xid = session.next_xid();
            // lint:allow(alloc-reach) rejoin-only (cold): resync request after an outage
            let _ = session.transport.send(
                Header::with_xid(xid),
                &FlexranMessage::ResyncRequest(ResyncRequest {
                    enb_id: enb,
                    since_tti,
                }),
            );
            for op in replay {
                let xid = session.next_xid();
                let _ = session
                    .transport
                    // lint:allow(alloc-reach) rejoin-only (cold): replays delegated state
                    .send(Header::with_xid(xid), &op.to_message());
            }
        }
        // Down detection: sessions silent past the timeout get their RIB
        // subtree marked stale (a timestamped epoch — not deleted) and an
        // AgentDown event.
        if self.liveness_timeout > 0 {
            for session in &mut self.sessions {
                let (Some(enb), Some(last_rx)) = (session.enb_id, session.last_rx) else {
                    continue;
                };
                if !session.down && now.0.saturating_sub(last_rx.0) >= self.liveness_timeout {
                    session.down = true;
                    self.updater.agent_down(rib, enb, now);
                    self.liveness.downs += 1;
                    self.events.push(TaggedEvent {
                        phase: PHASE_DOWN,
                        order: session.global_idx,
                        event: liveness_event(enb, EventKind::AgentDown, now),
                    });
                }
            }
        }
        // Durability point: the write cycle's deltas are already
        // journaled; rewrite the snapshot on the compaction schedule so
        // journal memory stays bounded by shard RIB size.
        if let Some(journal) = self.journal.as_mut() {
            journal.on_write_cycle(rib);
        }
        // The RIB slot is over: this shard's single writer's window
        // closes, and (under `debug-invariants`) any app-slot mutation
        // now asserts.
        rib.close_write_cycle();
    }
}

/// Clone-merge the shard forests into one RIB (shard-transparent full
/// snapshot: recovery golden tests, debug digests, diagnostics). The
/// result is a fresh, never-cycled RIB, so its `Debug` form and write
/// state are identical for every shard count.
pub fn merged_rib(ribs: &[Rib]) -> Rib {
    let mut rib = Rib::new();
    for shard_rib in ribs {
        for agent in shard_rib.agents() {
            rib.adopt_agent(agent.clone());
        }
    }
    rib
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_ownership_is_id_stable() {
        // enb mod n, independent of arrival order.
        assert_eq!(owner_of(EnbId(1), 2), 1);
        assert_eq!(owner_of(EnbId(2), 2), 0);
        assert_eq!(owner_of(EnbId(3), 2), 1);
        // One shard owns everything.
        assert_eq!(owner_of(EnbId(9), 1), 0);
    }

    #[test]
    fn merged_rib_is_fresh_and_complete() {
        let mut a = Rib::new();
        let mut b = Rib::new();
        a.agent_mut(EnbId(2)).connected_at = Tti(5);
        b.agent_mut(EnbId(1)).connected_at = Tti(3);
        let merged = merged_rib(&[a, b]);
        assert_eq!(merged.n_agents(), 2);
        assert_eq!(merged.agent(EnbId(1)).unwrap().connected_at, Tti(3));
        assert_eq!(merged.agent(EnbId(2)).unwrap().connected_at, Tti(5));
        // Fresh RIB: writable (merge never opened a write cycle).
        let mut merged = merged;
        merged.agent_mut(EnbId(7));
    }
}
