//! The northbound API (paper §4.4), version 3: shard-transparent, with
//! fleet config rollout.
//!
//! RAN applications "monitor the infrastructure through the information
//! obtained from the RIB and apply their control decisions through the
//! agent control modules". They never write the RIB directly, and since
//! the control-plane sharding they never see shards either: reads and
//! writes route to the owning shard by agent id behind this facade. The
//! API splits the two capabilities into separate handles:
//!
//! * [`RibView`] — the read capability: master time plus the (possibly
//!   sharded) RIB forest, including per-agent session-staleness signals.
//!   Everything on it is `&self`; an application holding only a
//!   `RibView` provably cannot emit commands.
//! * [`ControlHandle`] — the write capability: a staged command sink the
//!   master routes to the owning shards after the application slot.
//!   Scheduling commands go through [`ControlHandle::schedule_dl`],
//!   which claims the cell × subframe slot in the **conflict guard**
//!   (§7.3 future work) internally — applications cannot bypass or
//!   observe other apps' claims.
//!
//! Both handles are minted by [`Northbound`], the versioned facade the
//! master (and any fixture driving an [`App`] directly) owns. Since v2,
//! `ControlHandle` cannot be constructed from parts — the facade is the
//! only mint, so every staged command flows through one claim table and
//! one transaction-id stream no matter how many shards exist.
//!
//! Two execution patterns (paper: periodic and event-based) map to the
//! two trait hooks: [`App::on_cycle`] runs every master TTI cycle;
//! [`App::on_event`] runs when the Event Notification Service delivers an
//! agent event. An application may use both.

use std::collections::BTreeSet;

use flexran_proto::messages::{DlSchedulingCommand, FlexranMessage, Header};
use flexran_types::budget::BudgetStats;
use flexran_types::ids::{CellId, EnbId, Rnti};
use flexran_types::time::Tti;
use flexran_types::{FlexError, Result};

use crate::config::{RolloutConfig, RolloutController, RolloutEvent, RolloutStatus};
use crate::rib::{AgentNode, CellNode, Rib, UeNode};
use crate::shard::RibShard;
use crate::updater::NotifiedEvent;

/// Application priority: higher runs earlier within the apps slot (the
/// paper's Task Manager "assign\[s\] priorities to running services" —
/// e.g. a centralized MAC scheduler above a monitoring app).
pub type Priority = u8;

/// A RAN control/management application.
pub trait App: Send {
    fn name(&self) -> &str;

    /// Higher = scheduled earlier in the cycle. Time-critical apps (a
    /// centralized scheduler) should use ≥ 200; monitoring ≈ 10.
    fn priority(&self) -> Priority {
        10
    }

    /// Periodic hook: once per master TTI cycle.
    fn on_cycle(&mut self, rib: &RibView<'_>, ctl: &mut ControlHandle<'_>);

    /// Event hook: agent events delivered by the notification service.
    fn on_event(
        &mut self,
        _event: &NotifiedEvent,
        _rib: &RibView<'_>,
        _ctl: &mut ControlHandle<'_>,
    ) {
    }
}

/// Claims on cell × subframe scheduling slots, preventing two apps from
/// both scheduling the same resources.
#[derive(Debug, Default)]
pub struct ConflictGuard {
    /// Ordered so any iteration (diagnostics, future introspection) is
    /// deterministic — per-TTI controller state must never hash-iterate.
    claims: BTreeSet<(EnbId, u16, u64)>,
    /// Conflicts refused so far.
    pub conflicts: u64,
}

impl ConflictGuard {
    pub fn new() -> Self {
        Self::default()
    }

    /// Claim `(enb, cell, target)`; errors if already claimed this cycle
    /// window.
    pub fn claim(&mut self, enb: EnbId, cell: u16, target: u64) -> Result<()> {
        if self.claims.insert((enb, cell, target)) {
            Ok(())
        } else {
            self.conflicts += 1;
            Err(FlexError::Conflict(format!(
                "subframe {target} of {enb}/cell{cell} already claimed by another application"
            )))
        }
    }

    /// Drop claims older than `horizon` (they can never conflict again).
    pub fn expire_before(&mut self, horizon: Tti) {
        self.claims.retain(|(_, _, t)| *t >= horizon.0);
    }

    pub fn n_claims(&self) -> usize {
        self.claims.len()
    }
}

/// The versioned northbound facade: the single mint for [`RibView`] and
/// [`ControlHandle`]. The master owns one; test fixtures driving an
/// [`App`] directly own their own. All staged commands, conflict claims
/// and app-path transaction ids live here, independent of how the RIB
/// is sharded underneath.
#[derive(Debug, Default)]
pub struct Northbound {
    outbox: Vec<(EnbId, Header, FlexranMessage)>,
    guard: ConflictGuard,
    xid: u32,
    /// Fleet config rollout: bundle store + canary state machine. Lives
    /// here (not on any shard) because bundles and rollout decisions are
    /// fleet-wide; the master steps it at the serial cycle barrier.
    rollout: RolloutController,
}

impl Northbound {
    /// Facade version. v1 was the direct `RibView`/`ControlHandle`
    /// construction API; v2 is shard-transparent and facade-minted; v3
    /// adds the fleet config rollout API (`apply_bundle`,
    /// `rollout_status`, `rollout_history`, `abort_rollout`).
    pub const VERSION: u32 = 3;

    pub fn new() -> Self {
        Self::default()
    }

    /// Mint the write capability for one app invocation.
    pub fn control(&mut self) -> ControlHandle<'_> {
        ControlHandle {
            outbox: &mut self.outbox,
            guard: &mut self.guard,
            xid: &mut self.xid,
        }
    }

    /// Commands staged so far this slot, in staging order (fixtures
    /// assert on these; the master drains them with
    /// [`Northbound::take_staged`]).
    pub fn staged(&self) -> &[(EnbId, Header, FlexranMessage)] {
        &self.outbox
    }

    /// Drain the staged commands for routing to the owning shards.
    pub fn take_staged(&mut self) -> Vec<(EnbId, Header, FlexranMessage)> {
        std::mem::take(&mut self.outbox)
    }

    /// Conflicts refused so far.
    pub fn conflicts(&self) -> u64 {
        self.guard.conflicts
    }

    /// Live conflict-guard claims (observability for tests).
    pub fn n_claims(&self) -> usize {
        self.guard.n_claims()
    }

    pub(crate) fn expire_claims_before(&mut self, horizon: Tti) {
        self.guard.expire_before(horizon);
    }

    // ------------------------------------------------------------------
    // Fleet config rollout (facade v3)
    // ------------------------------------------------------------------

    /// Stage a signed config bundle and start its canary-first rollout.
    /// Returns the version assigned to the bundle. Errors while another
    /// rollout is in flight.
    pub fn apply_bundle(
        &mut self,
        now: Tti,
        policy_yaml: String,
        vsf_key: String,
        scheduler: String,
        canary: EnbId,
        cfg: RolloutConfig,
    ) -> Result<u64> {
        self.rollout
            .apply(now, policy_yaml, vsf_key, scheduler, canary, cfg)
    }

    /// Where the rollout stands (phase, versions, canary).
    pub fn rollout_status(&self) -> RolloutStatus {
        self.rollout.status()
    }

    /// The journaled rollout audit trail.
    pub fn rollout_history(&self) -> &[RolloutEvent] {
        self.rollout.history()
    }

    /// Abort the in-flight rollout, rolling back whatever was pushed.
    pub fn abort_rollout(&mut self, now: Tti) -> Result<()> {
        self.rollout.abort(now)
    }

    /// The rollout state machine (the master steps it each write cycle).
    pub(crate) fn rollout_mut(&mut self) -> &mut RolloutController {
        &mut self.rollout
    }

    pub(crate) fn rollout(&self) -> &RolloutController {
        &self.rollout
    }

    pub(crate) fn set_rollout(&mut self, rollout: RolloutController) {
        self.rollout = rollout;
    }
}

/// How a [`RibView`] reaches the forest: one RIB, or the union of the
/// master's shards. Private — shard transparency is the point.
#[derive(Clone, Copy)]
enum Backing<'a> {
    Single(&'a Rib),
    Sharded(&'a [RibShard]),
}

/// The read capability handed to applications: master time plus the RIB
/// forest, shard-transparent.
///
/// Copyable and `&self`-only — an application can fan it out to helper
/// functions freely, and holding one grants no way to emit commands.
/// Aggregating reads ([`RibView::agents`], [`RibView::all_ues`],
/// [`RibView::stale_agents`]) return in ascending agent-id order for
/// every shard layout.
#[derive(Clone, Copy)]
pub struct RibView<'a> {
    now: Tti,
    backing: Backing<'a>,
    /// Deadline-monitor snapshot carried from the master (all-zero for
    /// fixture views built with [`RibView::over`]).
    budget: BudgetStats,
}

impl<'a> RibView<'a> {
    /// A view over one plain RIB — fixtures and single-forest harnesses.
    pub fn over(now: Tti, rib: &'a Rib) -> Self {
        RibView {
            now,
            backing: Backing::Single(rib),
            budget: BudgetStats::default(),
        }
    }

    /// Attach a deadline-monitor snapshot (the master does this when
    /// minting views; fixtures may too, to test budget-aware apps).
    pub fn with_budget(mut self, budget: BudgetStats) -> Self {
        self.budget = budget;
        self
    }

    /// A view over the master's shards (the master mints these).
    pub(crate) fn sharded(now: Tti, shards: &'a [RibShard]) -> Self {
        RibView {
            now,
            backing: Backing::Sharded(shards),
            budget: BudgetStats::default(),
        }
    }

    /// Master time of this cycle.
    pub fn now(&self) -> Tti {
        self.now
    }

    /// The master's TTI-deadline monitor as of this cycle: latency
    /// percentiles, worst case, and the over-budget counter. Wall-clock
    /// observability only — applications must never let these values
    /// influence scheduling decisions (determinism contract).
    pub fn budget(&self) -> BudgetStats {
        self.budget
    }

    pub fn agent(&self, enb: EnbId) -> Option<&'a AgentNode> {
        match self.backing {
            Backing::Single(rib) => rib.agent(enb),
            Backing::Sharded(shards) => shards.iter().find_map(|s| s.rib().agent(enb)),
        }
    }

    pub fn cell(&self, enb: EnbId, cell: CellId) -> Option<&'a CellNode> {
        self.agent(enb)?.cell(cell)
    }

    pub fn ue(&self, enb: EnbId, cell: CellId, rnti: Rnti) -> Option<&'a UeNode> {
        self.cell(enb, cell)?.ue(rnti)
    }

    /// All agents, ascending by id regardless of shard layout.
    pub fn agents(&self) -> Vec<&'a AgentNode> {
        match self.backing {
            // lint:allow(alloc-reach) northbound snapshot query — off the RIB write path
            Backing::Single(rib) => rib.agents().collect(),
            Backing::Sharded(shards) => {
                let mut all: Vec<&'a AgentNode> =
                    // lint:allow(alloc-reach) northbound snapshot query — off the RIB write path
                    shards.iter().flat_map(|s| s.rib().agents()).collect();
                all.sort_by_key(|a| a.enb_id);
                all
            }
        }
    }

    /// All agents, without collecting them: the per-TTI read for
    /// consumers whose result does not depend on agent order (folding
    /// into a keyed map, summing). With one shard this is the ascending-id
    /// order of [`RibView::agents`]; with more, agents come shard by
    /// shard.
    pub fn agents_unordered(&self) -> impl Iterator<Item = &'a AgentNode> + 'a {
        let (single, shards): (Option<&'a Rib>, &'a [RibShard]) = match self.backing {
            Backing::Single(rib) => (Some(rib), &[]),
            Backing::Sharded(shards) => (None, shards),
        };
        single
            .into_iter()
            .chain(shards.iter().map(RibShard::rib))
            .flat_map(|rib| rib.agents())
    }

    pub fn n_agents(&self) -> usize {
        match self.backing {
            Backing::Single(rib) => rib.n_agents(),
            Backing::Sharded(shards) => shards.iter().map(|s| s.rib().n_agents()).sum(),
        }
    }

    /// All UEs across the forest, ascending by agent id.
    pub fn all_ues(&self) -> Vec<(EnbId, CellId, &'a UeNode)> {
        match self.backing {
            Backing::Single(rib) => rib.all_ues(),
            Backing::Sharded(_) => {
                let mut out = Vec::new();
                for agent in self.agents() {
                    for c in agent.cells() {
                        for u in c.ues() {
                            out.push((agent.enb_id, c.cell_id, u));
                        }
                    }
                }
                out
            }
        }
    }

    pub fn n_ues(&self) -> usize {
        match self.backing {
            Backing::Single(rib) => rib.n_ues(),
            Backing::Sharded(shards) => shards.iter().map(|s| s.rib().n_ues()).sum(),
        }
    }

    /// Agents whose sessions are currently down, with their epoch
    /// starts, ascending by agent id.
    pub fn stale_agents(&self) -> Vec<(EnbId, Tti)> {
        match self.backing {
            Backing::Single(rib) => rib.stale_agents(),
            Backing::Sharded(_) => self
                .agents()
                .into_iter()
                .filter_map(|a| a.stale_since.map(|t| (a.enb_id, t)))
                .collect(),
        }
    }

    /// Approximate heap footprint of the forest (paper Fig. 8's memory
    /// series).
    pub fn heap_bytes(&self) -> usize {
        match self.backing {
            Backing::Single(rib) => rib.heap_bytes(),
            Backing::Sharded(shards) => shards.iter().map(|s| s.rib().heap_bytes()).sum(),
        }
    }

    /// The agent's freshest synced subframe, if it syncs.
    pub fn synced_subframe(&self, enb: EnbId) -> Option<Tti> {
        self.agent(enb)?.synced_subframe()
    }

    /// Whether the agent's session is currently considered down, i.e. its
    /// RIB subtree is a snapshot from before the outage. Applications
    /// should not base control decisions on stale subtrees.
    pub fn is_stale(&self, enb: EnbId) -> bool {
        self.agent(enb).is_some_and(|a| a.is_stale())
    }
}

/// The write capability handed to applications: a staged command sink.
/// Commands are routed to the owning shards by the master after the
/// application slot. Minted only by [`Northbound::control`].
pub struct ControlHandle<'a> {
    outbox: &'a mut Vec<(EnbId, Header, FlexranMessage)>,
    guard: &'a mut ConflictGuard,
    xid: &'a mut u32,
}

impl ControlHandle<'_> {
    fn next_xid(&mut self) -> u32 {
        *self.xid = self.xid.wrapping_add(1);
        *self.xid
    }

    /// Stage an arbitrary message to an agent.
    pub fn send(&mut self, enb: EnbId, msg: FlexranMessage) -> u32 {
        let xid = self.next_xid();
        self.outbox.push((enb, Header::with_xid(xid), msg));
        xid
    }

    /// Stage a downlink scheduling command. The cell × subframe slot is
    /// claimed in the conflict guard internally; a second application
    /// targeting the same slot gets `Err(Conflict)` and nothing is staged.
    pub fn schedule_dl(&mut self, enb: EnbId, cmd: DlSchedulingCommand) -> Result<u32> {
        self.guard.claim(enb, cmd.cell, cmd.target_tti)?;
        Ok(self.send(enb, FlexranMessage::DlSchedulingCommand(cmd)))
    }

    /// Commands staged so far this slot (observability for tests).
    pub fn n_staged(&self) -> usize {
        self.outbox.len()
    }
}

/// The Registry Service: applications register here and the master runs
/// them by priority.
#[derive(Default)]
pub struct AppRegistry {
    apps: Vec<Box<dyn App>>,
}

impl AppRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an application (kept sorted: higher priority first,
    /// registration order breaking ties).
    pub fn register(&mut self, app: Box<dyn App>) {
        self.apps.push(app);
        self.apps.sort_by_key(|a| std::cmp::Reverse(a.priority()));
    }

    pub fn names(&self) -> Vec<String> {
        self.apps.iter().map(|a| a.name().to_string()).collect()
    }

    pub fn len(&self) -> usize {
        self.apps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Box<dyn App>> {
        self.apps.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::TaskManagerConfig;

    struct Dummy(&'static str, Priority);

    impl App for Dummy {
        fn name(&self) -> &str {
            self.0
        }
        fn priority(&self) -> Priority {
            self.1
        }
        fn on_cycle(&mut self, _rib: &RibView<'_>, _ctl: &mut ControlHandle<'_>) {}
    }

    #[test]
    fn registry_orders_by_priority() {
        let mut reg = AppRegistry::new();
        reg.register(Box::new(Dummy("monitor", 10)));
        reg.register(Box::new(Dummy("scheduler", 200)));
        reg.register(Box::new(Dummy("mobility", 50)));
        assert_eq!(reg.names(), vec!["scheduler", "mobility", "monitor"]);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn conflict_guard_refuses_double_claims() {
        let mut g = ConflictGuard::new();
        g.claim(EnbId(1), 0, 100).unwrap();
        let err = g.claim(EnbId(1), 0, 100).unwrap_err();
        assert_eq!(err.category(), "conflict");
        assert_eq!(g.conflicts, 1);
        // Different subframe / cell / agent is fine.
        g.claim(EnbId(1), 0, 101).unwrap();
        g.claim(EnbId(1), 1, 100).unwrap();
        g.claim(EnbId(2), 0, 100).unwrap();
    }

    #[test]
    fn conflict_guard_expiry() {
        let mut g = ConflictGuard::new();
        for t in 0..100u64 {
            g.claim(EnbId(1), 0, t).unwrap();
        }
        g.expire_before(Tti(90));
        assert_eq!(g.n_claims(), 10);
        // Expired slots can be reclaimed (time has passed; nobody can
        // schedule them anyway — deadline enforcement is the agent's job).
        g.claim(EnbId(1), 0, 5).unwrap();
    }

    #[test]
    fn facade_mints_handles_that_stage_and_guard() {
        let mut nb = Northbound::new();
        assert_eq!(Northbound::VERSION, 3);
        let cmd = DlSchedulingCommand {
            enb_id: EnbId(1),
            cell: 0,
            target_tti: 10,
            dcis: vec![],
        };
        {
            let mut ctl = nb.control();
            ctl.schedule_dl(EnbId(1), cmd.clone()).unwrap();
            assert!(
                ctl.schedule_dl(EnbId(1), cmd.clone()).is_err(),
                "second app refused"
            );
            assert_eq!(ctl.n_staged(), 1);
        }
        assert_eq!(nb.staged().len(), 1);
        assert_eq!(nb.conflicts(), 1);
        // Claims persist across handle mints within the slot — a later
        // app cannot steal an earlier app's subframe.
        {
            let mut ctl = nb.control();
            assert!(ctl.schedule_dl(EnbId(1), cmd).is_err());
        }
        // Draining hands back the staged commands in order.
        let staged = nb.take_staged();
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].0, EnbId(1));
        assert!(nb.staged().is_empty());
    }

    #[test]
    fn rib_view_reads_and_staleness() {
        let mut rib = Rib::new();
        rib.agent_mut(EnbId(1)).last_sync = Some((Tti(90), Tti(95)));
        let view = RibView::over(Tti(100), &rib);
        assert_eq!(view.now(), Tti(100));
        assert_eq!(view.synced_subframe(EnbId(1)), Some(Tti(90)));
        assert!(!view.is_stale(EnbId(1)));
        assert!(!view.is_stale(EnbId(9)), "unknown agent is not 'stale'");
        rib.agent_mut(EnbId(1)).mark_stale(Tti(120));
        let view = RibView::over(Tti(121), &rib);
        assert!(view.is_stale(EnbId(1)));
        // The subtree survives the outage as a snapshot.
        assert_eq!(view.synced_subframe(EnbId(1)), Some(Tti(90)));
    }

    #[test]
    fn sharded_view_reads_across_shards_in_agent_order() {
        let config = TaskManagerConfig::default();
        let mut a = RibShard::new(0, 2, &config);
        let mut b = RibShard::new(1, 2, &config);
        // Shard 0 owns agent 4, shard 1 owns agents 1 and 3 — agent-id
        // order must still come out ascending.
        b.rib.agent_mut(EnbId(3)).last_sync = Some((Tti(7), Tti(8)));
        a.rib.agent_mut(EnbId(4)).mark_stale(Tti(9));
        b.rib.agent_mut(EnbId(1));
        let shards = [a, b];
        let view = RibView::sharded(Tti(10), &shards);
        assert_eq!(view.n_agents(), 3);
        let ids: Vec<EnbId> = view.agents().into_iter().map(|ag| ag.enb_id).collect();
        assert_eq!(ids, vec![EnbId(1), EnbId(3), EnbId(4)]);
        assert_eq!(view.synced_subframe(EnbId(3)), Some(Tti(7)));
        assert!(view.is_stale(EnbId(4)));
        assert!(!view.is_stale(EnbId(1)));
        assert_eq!(view.stale_agents(), vec![(EnbId(4), Tti(9))]);
        assert!(view.agent(EnbId(2)).is_none());
        assert!(view.heap_bytes() > 0);
    }
}
