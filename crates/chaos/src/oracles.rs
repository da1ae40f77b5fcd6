//! Invariant oracles evaluated every TTI of a chaos run.
//!
//! Each oracle states a property that must hold *regardless of the fault
//! schedule* — crashed processes, corrupted frames and stalled agents
//! are allowed to delay convergence, never to break these:
//!
//! 1. **failover-legality** — an agent's [`FailoverState`] only moves
//!    along the edges of the liveness state machine (sampled at TTI
//!    granularity, so one-TTI composites of legal edges are legal too).
//! 2. **prb-capacity** — a cell never spends more PRBs in one subframe
//!    than its bandwidth allows (new data plus the retransmissions
//!    reserved from one earlier subframe).
//! 3. **harq-consistency** — per-UE HARQ counters are monotonic; the
//!    data plane never un-transmits.
//! 4. **rib-stack-consistency** — once a quiesce window has passed since
//!    the last fault touching an agent, the master's RIB subtree for it
//!    is fresh and its UE leaves match the eNodeB stack exactly (no
//!    phantom UEs, no lost UEs).
//! 5. **command-conservation** — non-sheddable traffic is never shed by
//!    the bounded link queues; on a loss-free link every scheduling
//!    command the master sent is at the agent or still in flight, and on
//!    a lossy link the agent never *receives* more commands than were
//!    sent plus duplicated/corrupted frames can explain.
//! 6. **decision-sanity** — at most one downlink scheduling decision is
//!    applied per cell per TTI (the stack rejects duplicates, e.g. from
//!    a duplicated wire frame, with a `Conflict` error — never applies
//!    them twice).
//! 7. **shard-ownership** — an agent's RIB subtree is resident in
//!    exactly the shard the master's ownership map assigns it to, and
//!    never duplicated into another shard, no matter how many
//!    crash/restart cycles re-partitioned the sessions.
//! 8. **budget-consistency** — the TTI deadline-budget histograms stay
//!    internally consistent (structure only; never wall-clock values).
//! 9. **config-provenance** — no agent ever runs a config bundle the
//!    master never issued (every applied signature verifies against the
//!    issued set), and once the rollout state machine rests — converged
//!    or rolled back — every quiesced agent runs exactly the version the
//!    machine says it should: the active version after convergence, the
//!    last converged version after a rollback.
//!
//! A violation records the run seed and the exact TTI, so any failure
//! replays bit-identically from the seed alone.

use std::collections::{BTreeMap, BTreeSet};

use flexran::agent::FailoverState;
use flexran::controller::RolloutPhase;
use flexran::harness::SimHarness;
use flexran::proto::transport::Transport;
use flexran::proto::MessageCategory;
use flexran::types::ids::{CellId, EnbId, Rnti};

/// Cap on violation records kept per run; the total is always counted.
const MAX_RECORDED: usize = 64;

/// One invariant violation, pinned to the (seed, TTI) that reproduces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub seed: u64,
    pub tti: u64,
    pub oracle: &'static str,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant violated: oracle={} seed={} tti={} — {} \
             (replay: experiments chaos --seed {})",
            self.oracle, self.seed, self.tti, self.detail, self.seed
        )
    }
}

#[derive(Clone, Copy)]
struct CellCounters {
    dl_prbs: u64,
    ul_prbs: u64,
    decisions: u64,
}

/// The oracle battery: carries last-TTI observations per agent so each
/// check is a per-TTI delta, and accumulates [`Violation`]s.
pub struct Oracles {
    seed: u64,
    grace: u64,
    /// Negative control: from this TTI on, the PRB oracle pretends the
    /// cell has zero capacity until it has fired exactly once.
    inject_at: Option<u64>,
    injected: bool,
    prev_failover: Vec<FailoverState>,
    prev_cell: Vec<BTreeMap<CellId, CellCounters>>,
    prev_harq: Vec<BTreeMap<(CellId, Rnti), (u64, u64)>>,
    /// Every distinct config signature each agent has ever run. Config
    /// pushes are retried after losses, so conservation is counted by
    /// `(agent, signature)` — a set — never by frame: a retry or a
    /// duplicated wire frame re-applying the same signed bundle is one
    /// config, not two.
    seen_configs: Vec<BTreeSet<u64>>,
    pub violations: Vec<Violation>,
    pub total: u64,
}

/// Legal `FailoverState` moves at TTI granularity. Within one TTI the
/// agent first drains the transport (rx/ack edges) and then ticks the
/// silence clock, so the observable one-TTI composites are:
/// `C→{C,D,L}`, `D→{D,C,L}`, `L→{L,R,C}`, `R→{R,C,L}` — an agent crash
/// resets the tracker to `Connected`, which is `*→C`, also in the set.
fn legal(prev: FailoverState, cur: FailoverState) -> bool {
    use FailoverState::*;
    !matches!(
        (prev, cur),
        (Connected, Rejoining)
            | (Degraded, Rejoining)
            | (LocalControl, Degraded)
            | (Rejoining, Degraded)
    )
}

impl Oracles {
    pub fn new(seed: u64, grace: u64, inject_at: Option<u64>, n_enbs: usize) -> Self {
        Oracles {
            seed,
            grace,
            inject_at,
            injected: false,
            prev_failover: vec![FailoverState::Connected; n_enbs],
            prev_cell: vec![BTreeMap::new(); n_enbs],
            prev_harq: vec![BTreeMap::new(); n_enbs],
            seen_configs: vec![BTreeSet::new(); n_enbs],
            violations: Vec::new(),
            total: 0,
        }
    }

    fn record(&mut self, tti: u64, oracle: &'static str, detail: String) {
        self.total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(Violation {
                seed: self.seed,
                tti,
                oracle,
                detail,
            });
        }
    }

    /// Evaluate every oracle against the post-step state of `sim`.
    ///
    /// `disturb[i]` is the last TTI a fault was active on agent `i`
    /// (gates the convergence-dependent RIB check); `lossless[i]` is
    /// whether agent `i`'s link has been loss-free for the whole run
    /// (gates the exact conservation equation).
    pub fn check(&mut self, sim: &SimHarness, enbs: &[EnbId], disturb: &[u64], lossless: &[bool]) {
        let now = sim.now().0;
        let master_down = sim.master_down();
        for (i, &enb) in enbs.iter().enumerate() {
            let agent = sim.agent(enb).expect("chaos agents are never removed");

            // 1. Failover state-machine legality.
            let cur = agent.failover_state();
            let prev = self.prev_failover[i];
            self.prev_failover[i] = cur;
            if !legal(prev, cur) {
                self.record(
                    now,
                    "failover-legality",
                    format!("{enb}: illegal transition {prev} → {cur}"),
                );
            }

            // 2 + 6. Per-cell deltas: PRB spend and decision application.
            for cell in agent.enb().cell_ids() {
                let stats = agent.enb().cell_stats(cell).expect("cell exists");
                let cfg = agent.enb().cell_config(cell).expect("cell exists");
                let cur = CellCounters {
                    dl_prbs: stats.dl_prbs_used,
                    ul_prbs: stats.ul_prbs_used,
                    decisions: stats.decisions_applied,
                };
                let prev = *self.prev_cell[i].entry(cell).or_insert(cur);
                self.prev_cell[i].insert(cell, cur);
                if cur.dl_prbs < prev.dl_prbs
                    || cur.ul_prbs < prev.ul_prbs
                    || cur.decisions < prev.decisions
                {
                    self.record(
                        now,
                        "prb-capacity",
                        format!("{enb}/{cell}: cumulative cell counters went backwards"),
                    );
                    continue;
                }
                // Schedule-ahead decisions are sized against the full
                // bandwidth and retransmissions from one earlier
                // subframe are reserved on top, so one subframe can
                // legitimately spend up to 2×n_prb downlink.
                let inject = !self.injected && self.inject_at.is_some_and(|at| now >= at);
                let dl_cap = if inject {
                    0
                } else {
                    2 * cfg.dl_bandwidth.n_prb() as u64
                };
                let dl_delta = cur.dl_prbs - prev.dl_prbs;
                if dl_delta > dl_cap {
                    self.injected |= inject;
                    let tag = if inject { " [negative control]" } else { "" };
                    self.record(
                        now,
                        "prb-capacity",
                        format!("{enb}/{cell}: {dl_delta} DL PRBs in one TTI, cap {dl_cap}{tag}"),
                    );
                }
                let ul_cap = cfg.ul_bandwidth.n_prb() as u64;
                let ul_delta = cur.ul_prbs - prev.ul_prbs;
                if ul_delta > ul_cap {
                    self.record(
                        now,
                        "prb-capacity",
                        format!("{enb}/{cell}: {ul_delta} UL PRBs in one TTI, cap {ul_cap}"),
                    );
                }
                if cur.decisions - prev.decisions > 1 {
                    self.record(
                        now,
                        "decision-sanity",
                        format!(
                            "{enb}/{cell}: {} DL decisions applied in one TTI",
                            cur.decisions - prev.decisions
                        ),
                    );
                }
            }

            // 3. HARQ counters are monotonic.
            for cell in agent.enb().cell_ids() {
                for ue in agent.enb().ue_stats(cell).expect("cell exists") {
                    let key = (cell, ue.rnti);
                    let cur = (ue.harq_tx, ue.harq_retx);
                    let prev = *self.prev_harq[i].entry(key).or_insert(cur);
                    self.prev_harq[i].insert(key, cur);
                    if cur.0 < prev.0 || cur.1 < prev.1 {
                        self.record(
                            now,
                            "harq-consistency",
                            format!(
                                "{enb}/{cell}/{}: HARQ counters went backwards \
                                 ({},{}) → ({},{})",
                                ue.rnti, prev.0, prev.1, cur.0, cur.1
                            ),
                        );
                    }
                }
            }

            // 4. RIB ↔ stack consistency after the quiesce window.
            if !master_down && now.saturating_sub(disturb[i]) > self.grace {
                self.check_rib_consistency(sim, enb, now);
            }

            // 5. Command conservation.
            self.check_conservation(sim, enb, now, master_down, lossless[i]);

            // 9. Config provenance and resting-state landing.
            self.check_config(sim, enb, i, now, master_down, disturb[i]);

            // 7. Shard ownership (the sharded single-writer discipline).
            if !master_down {
                self.check_shard_ownership(sim, enb, now);
            }
        }

        // 8. Deadline-monitor internal consistency. Only the histogram
        //    invariants are checked, never actual wall-clock values —
        //    latencies vary run to run and must not affect chaos
        //    verdicts (replay determinism).
        for (tag, stats) in [
            ("harness", sim.budget_stats()),
            ("master", sim.master().budget_stats()),
        ] {
            if !stats.is_consistent() {
                self.record(
                    now,
                    "budget-consistency",
                    format!("{tag} TTI budget stats are internally inconsistent: {stats:?}"),
                );
            }
        }
    }

    fn check_shard_ownership(&mut self, sim: &SimHarness, enb: EnbId, now: u64) {
        let master = sim.master();
        let resident: Vec<usize> = master
            .ribs()
            .iter()
            .enumerate()
            .filter(|(_, rib)| rib.agent(enb).is_some())
            .map(|(idx, _)| idx)
            .collect();
        match master.shard_of(enb) {
            Some(owner) if resident == [owner] => {}
            Some(owner) => self.record(
                now,
                "shard-ownership",
                format!("{enb}: owner shard {owner} but subtree resident in {resident:?}"),
            ),
            None if resident.is_empty() => {}
            None => self.record(
                now,
                "shard-ownership",
                format!("{enb}: subtree resident in {resident:?} with no owning shard"),
            ),
        }
    }

    fn check_rib_consistency(&mut self, sim: &SimHarness, enb: EnbId, now: u64) {
        let agent = sim.agent(enb).expect("present");
        let rib = sim.master().view();
        let Some(node) = rib.agent(enb) else {
            self.record(
                now,
                "rib-stack-consistency",
                format!(
                    "{enb}: no RIB subtree {} TTIs after the last fault",
                    self.grace
                ),
            );
            return;
        };
        if node.is_stale() {
            self.record(
                now,
                "rib-stack-consistency",
                format!(
                    "{enb}: RIB still stale {} TTIs after the last fault",
                    self.grace
                ),
            );
            return;
        }
        let rib_set: BTreeSet<(CellId, Rnti)> = node
            .cells()
            .iter()
            .flat_map(|cn| cn.ues().iter().map(move |u| (cn.cell_id, u.rnti)))
            .collect();
        let mut stack_set: BTreeSet<(CellId, Rnti)> = BTreeSet::new();
        for cell in agent.enb().cell_ids() {
            for ue in agent.enb().ue_stats(cell).expect("cell exists") {
                stack_set.insert((cell, ue.rnti));
            }
        }
        if rib_set != stack_set {
            let lost: Vec<String> = stack_set
                .difference(&rib_set)
                .map(|(c, r)| format!("{c}/{r}"))
                .collect();
            let phantom: Vec<String> = rib_set
                .difference(&stack_set)
                .map(|(c, r)| format!("{c}/{r}"))
                .collect();
            self.record(
                now,
                "rib-stack-consistency",
                format!(
                    "{enb}: RIB diverges from the stack — lost [{}], phantom [{}]",
                    lost.join(" "),
                    phantom.join(" ")
                ),
            );
        }
    }

    fn check_config(
        &mut self,
        sim: &SimHarness,
        enb: EnbId,
        i: usize,
        now: u64,
        master_down: bool,
        disturbed: u64,
    ) {
        let (version, sig) = sim.agent(enb).expect("present").active_config();
        if sig != 0 {
            self.seen_configs[i].insert(sig);
        }
        if master_down {
            return; // the issued set is unreadable while the process is down
        }

        // 9a. Provenance: every signature this agent has *ever* run was
        // minted by the master. Membership is per (agent, signature) —
        // a retried or wire-duplicated push re-applying the same signed
        // bundle is one config, never two — so losses and retries can
        // neither trip this check nor hide a fabricated bundle.
        let issued = sim.master().issued_config_signatures();
        let rogue: Vec<u64> = self.seen_configs[i]
            .iter()
            .filter(|s| !issued.contains(s))
            .copied()
            .collect();
        for s in rogue {
            self.record(
                now,
                "config-provenance",
                format!("{enb}: ran config signature {s:016x} the master never issued"),
            );
        }

        // 9b. Resting-state landing: once the rollout machine rests and
        // the agent has been fault-free past the quiesce window, the
        // agent must run exactly the version the machine prescribes —
        // the rolled-out version after convergence, the last converged
        // version after a rollback.
        let status = sim.master().rollout_status();
        let expected = match status.phase {
            RolloutPhase::Converged => status.active_version,
            RolloutPhase::RolledBack => status.last_converged,
            _ => return, // idle or mid-flight: no landing prescribed yet
        };
        // A rollback with no prior converged version has nothing to
        // land on (the documented first-rollout limitation).
        if expected != 0 && now.saturating_sub(disturbed) > self.grace && version != expected {
            self.record(
                now,
                "config-provenance",
                format!(
                    "{enb}: runs config v{version} {} TTIs after quiesce but the \
                     {} rollout expects v{expected}",
                    self.grace, status.phase
                ),
            );
        }
    }

    fn check_conservation(
        &mut self,
        sim: &SimHarness,
        enb: EnbId,
        now: u64,
        master_down: bool,
        lossless: bool,
    ) {
        let transport = sim.agent(enb).expect("present").transport();
        // Priority shedding must never touch anything but stats replies.
        for cat in MessageCategory::ALL {
            if cat.sheddable() {
                continue;
            }
            let shed =
                transport.shed_towards_by_category(cat) + transport.shed_from_by_category(cat);
            if shed > 0 {
                self.record(
                    now,
                    "command-conservation",
                    format!("{enb}: {shed} non-sheddable {cat} message(s) shed"),
                );
            }
        }
        // Config pushes are deliberately NOT frame-counted here: the
        // rollout controller re-sends a bundle until the agent
        // advertises its signature, so tx > rx is routine and a
        // lost-then-retried push would double-count under frame
        // arithmetic. Config conservation is counted by (agent,
        // signature) in the config-provenance oracle instead.
        let cmds = MessageCategory::Commands;
        let rx = transport.rx_counters().messages(cmds);
        if master_down {
            return; // tx counter unreachable while the process is down
        }
        let Some(tx) = sim.master().session_tx_messages(enb, cmds) else {
            return; // session not (re-)identified yet
        };
        let in_flight = transport.in_flight_towards_by_category(cmds) as u64;
        if lossless {
            // Loss-free link: every command is at the agent or on the wire.
            if tx != rx + in_flight {
                self.record(
                    now,
                    "command-conservation",
                    format!("{enb}: commands tx={tx} ≠ rx={rx} + in-flight={in_flight}"),
                );
            }
        } else if let Some(handle) = sim.fault_handle(enb) {
            // Lossy link: receiving more than sent is only explicable by
            // duplicated frames (or corrupted frames decoding as another
            // category); anything beyond that is fabrication.
            let dup = handle.duplicated_by_category(cmds);
            let corrupted: u64 = MessageCategory::ALL
                .iter()
                .map(|c| handle.corrupted_by_category(*c))
                .sum();
            if rx > tx + dup + corrupted {
                self.record(
                    now,
                    "command-conservation",
                    format!(
                        "{enb}: commands rx={rx} exceeds tx={tx} + dup={dup} + corrupt={corrupted}"
                    ),
                );
            }
        }
    }
}
