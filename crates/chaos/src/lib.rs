#![forbid(unsafe_code)]
//! # flexran-chaos
//!
//! A seeded, schedule-driven fault orchestrator for the FlexRAN
//! platform, with invariant oracles evaluated every TTI.
//!
//! The engine drives a [`SimHarness`] scenario — centrally scheduled
//! eNodeBs behind a journaled master — and composes multi-layer faults
//! from one deterministic RNG stream:
//!
//! * **agent process crash/restart** — the agent loses all soft state
//!   (modules, subscriptions, liveness tracker); the eNodeB data plane
//!   survives, like a supervisor restarting a dead process next to a
//!   live modem.
//! * **master crash/restart** — the master process dies; its RIB journal
//!   survives "on disk" and its TCP links survive in the kernel; a
//!   restart recovers the RIB from the journal and re-syncs from the
//!   rejoining agents while the agents ride out the outage in local
//!   control.
//! * **wire faults** — windows of byte-level corruption, truncation,
//!   duplication and garbage insertion on the control links.
//! * **slow agents** — TTI-budget stalls: the agent keeps committing
//!   subframes but stops servicing the control plane.
//! * **delegation under fire** — VSF pushes issued at random times, so
//!   transfers get caught by crashes and corrupted frames.
//!
//! After every simulated TTI the oracle battery ([`oracles::Oracles`])
//! checks the invariants that no fault schedule may break. A violation
//! pins the run **seed** and **TTI**: re-running [`run_chaos`] with the
//! same [`ChaosConfig`] reproduces the entire fault stream and the
//! violation bit-identically (the engine draws every random decision
//! from `StdRng::seed_from_u64(seed)` and the simulation itself is
//! deterministic).

mod oracles;

pub use oracles::{Oracles, Violation};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flexran::agent::AgentConfig;
use flexran::apps::CentralizedScheduler;
use flexran::controller::{RolloutConfig, RolloutPhase};
use flexran::harness::{SimConfig, SimHarness, UeRadioSpec};
use flexran::prelude::*;
use flexran::proto::{ReportConfig, ReportFlags, ReportType, VsfArtifact, VsfPush};
use flexran::sim::link::{FaultConfig, FaultHandle, LinkConfig, WireFaults};
use flexran::sim::traffic::CbrSource;
use flexran::stack::mac::scheduler::RoundRobinScheduler;
use flexran::stack::stats::fold_ue_digest;
use flexran::types::hash::Fnv1a;

/// Knobs of one chaos run. Everything is derived from `seed`; two runs
/// with equal configs produce bit-identical [`ChaosReport`]s.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed of the run: seeds the fault schedule, the simulation
    /// and the per-link wire-fault RNGs.
    pub seed: u64,
    /// Chaos phase length in TTIs (after the fault-free warmup).
    pub ttis: u64,
    /// Fault-free TTIs to let the topology attach and subscribe.
    pub warmup: u64,
    pub n_enbs: u32,
    pub ues_per_enb: u32,
    /// Periodic stats-report period pushed to every agent.
    pub report_period: u32,
    /// Per-agent per-TTI probability of a process crash + restart.
    pub agent_crash_prob: f64,
    /// Per-TTI probability of a master crash (while it is up).
    pub master_crash_prob: f64,
    /// Master outage length range (TTIs), inclusive.
    pub master_outage: (u64, u64),
    /// Per-agent per-TTI probability of entering a TTI-budget stall.
    pub stall_prob: f64,
    /// Stall length range (TTIs), inclusive.
    pub stall_len: (u64, u64),
    /// Per-agent per-TTI probability of opening a wire-fault window.
    pub wire_prob: f64,
    /// Wire-fault window length range (TTIs), inclusive.
    pub wire_len: (u64, u64),
    /// Byte-level fault intensities while a window is open.
    pub wire: WireFaults,
    /// Per-agent per-TTI probability of pushing a (cached) VSF.
    pub delegation_prob: f64,
    /// Per-TTI probability of starting a fleet-config rollout (while the
    /// master is up and no rollout is in flight). Rollouts ride the same
    /// faulted links as everything else, so canary pushes get corrupted,
    /// canary agents crash mid-observation and the master dies mid-phase
    /// — exactly what the rollout state machine must survive. `0.0`
    /// keeps the fault stream identical to a pre-rollout schedule.
    pub rollout_prob: f64,
    /// KPI observation window of chaos-issued rollouts, in master TTIs.
    pub rollout_window: u64,
    /// Bounded control-link queue capacity (0 = unbounded).
    pub queue_cap: usize,
    /// Quiesce window: TTIs after the last fault on an agent before the
    /// RIB↔stack consistency oracle applies.
    pub grace: u64,
    /// Negative control: force a PRB-capacity violation at (or right
    /// after) this TTI, proving the oracles fire and replay exactly.
    pub inject_violation_at: Option<u64>,
    /// Worker threads of the TTI engine under test (`SimConfig::workers`;
    /// the master gets one RIB shard per worker). 1 is the serial
    /// engine; the report is bit-identical for every count.
    pub engine_workers: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            ttis: 5_000,
            warmup: 200,
            n_enbs: 2,
            ues_per_enb: 3,
            report_period: 5,
            agent_crash_prob: 0.0015,
            master_crash_prob: 0.0008,
            master_outage: (60, 140),
            stall_prob: 0.002,
            stall_len: (10, 60),
            wire_prob: 0.004,
            wire_len: (20, 80),
            wire: WireFaults {
                corrupt_prob: 0.05,
                truncate_prob: 0.03,
                duplicate_prob: 0.05,
                insert_prob: 0.03,
            },
            delegation_prob: 0.005,
            rollout_prob: 0.0,
            rollout_window: 80,
            queue_cap: 64,
            grace: 250,
            inject_violation_at: None,
            engine_workers: 1,
        }
    }
}

/// What the engine injected over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    pub agent_crashes: u64,
    pub master_crashes: u64,
    pub master_restarts: u64,
    pub stalls: u64,
    pub wire_windows: u64,
    pub delegations: u64,
    pub rollouts: u64,
}

/// Outcome of one chaos run. Bit-identical across replays of the same
/// [`ChaosConfig`]: every field (including `digest`) is derived from the
/// seeded schedule and the deterministic simulation, never from wall
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    pub seed: u64,
    pub ttis: u64,
    pub faults: FaultLog,
    /// Violations recorded (capped; `violations_total` counts all).
    pub violations: Vec<Violation>,
    pub violations_total: u64,
    /// FNV digest of the end-state observables (per-UE delivered-bit /
    /// queue / HARQ counters in attach order) folded with the fault log
    /// and the violation count. Two runs of the same config — serial,
    /// under a campaign pool, or in another process — must produce the
    /// same digest.
    pub digest: u64,
    /// Cumulative downlink goodput across every UE (bits, deterministic).
    pub dl_delivered_bits: u64,
    /// Cumulative uplink goodput across every UE (bits, deterministic).
    pub ul_delivered_bits: u64,
}

impl ChaosReport {
    pub fn pass(&self) -> bool {
        self.violations_total == 0
    }
}

/// Measurement-only side channel of a chaos run: wall-clock facts that
/// legitimately differ between replays and therefore live *outside* the
/// bit-identical [`ChaosReport`]. Campaign KPI distributions are built
/// from these.
#[derive(Debug, Clone)]
pub struct ChaosTelemetry {
    /// TTI deadline-budget percentiles over the whole run (harness-side).
    pub budget: flexran::types::budget::BudgetStats,
}

fn chaos_agent_config() -> AgentConfig {
    AgentConfig {
        initial_dl_scheduler: Some("remote-stub".into()),
        sync_period: 1,
        liveness: LivenessConfig {
            heartbeat_period: 5,
            liveness_timeout: 40,
            ..LivenessConfig::default()
        },
        ..AgentConfig::default()
    }
}

fn register_scheduler(sim: &mut SimHarness) {
    sim.master_mut()
        .register_app(Box::new(CentralizedScheduler::new(
            3,
            Box::new(RoundRobinScheduler::new()),
        )));
}

fn roll(rng: &mut StdRng, p: f64) -> bool {
    p > 0.0 && rng.random::<f64>() < p
}

fn draw_len(rng: &mut StdRng, (lo, hi): (u64, u64)) -> u64 {
    if hi <= lo {
        lo
    } else {
        rng.random_range(lo..=hi)
    }
}

/// Run one seeded chaos schedule to completion and report.
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    run_chaos_instrumented(config).0
}

/// Like [`run_chaos`], but also returns the measurement-only
/// [`ChaosTelemetry`] (wall-clock TTI-budget percentiles). The report
/// stays bit-identical across replays; the telemetry does not.
pub fn run_chaos_instrumented(config: &ChaosConfig) -> (ChaosReport, ChaosTelemetry) {
    let sim_cfg = SimConfig {
        uplink: LinkConfig {
            queue_cap: config.queue_cap,
            ..LinkConfig::ideal()
        },
        downlink: LinkConfig {
            queue_cap: config.queue_cap,
            ..LinkConfig::ideal()
        },
        master: TaskManagerConfig {
            liveness_timeout: 40,
            journal_snapshot_every: 8,
            ..TaskManagerConfig::default()
        },
        seed: config.seed,
        workers: Some(config.engine_workers),
        tti_budget_ns: flexran::types::budget::DEFAULT_TTI_BUDGET_NS,
    };
    let mut sim = SimHarness::new(sim_cfg);
    let mut enbs = Vec::new();
    let mut ues = Vec::new();
    for i in 1..=config.n_enbs {
        let enb = sim.add_enb_with_faults(
            EnbConfig::single_cell(EnbId(i)),
            chaos_agent_config(),
            EnbParams::default(),
            None,
            FaultHandle::new(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64)),
        );
        for _ in 0..config.ues_per_enb {
            let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(12));
            sim.set_dl_traffic(ue, Box::new(CbrSource::new(BitRate::from_mbps(1))));
            ues.push(ue);
        }
        enbs.push(enb);
    }
    register_scheduler(&mut sim);
    sim.run(5);
    for &enb in &enbs {
        sim.master_mut()
            .request_stats(
                enb,
                ReportConfig {
                    report_type: ReportType::Periodic {
                        period: config.report_period,
                    },
                    flags: ReportFlags::ALL,
                },
            )
            .expect("session exists after warmup hellos");
    }
    sim.run(config.warmup.saturating_sub(5));

    let n = enbs.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut oracles = Oracles::new(config.seed, config.grace, config.inject_violation_at, n);
    let mut log = FaultLog::default();
    let chaos_start = sim.now().0;
    // Per-agent TTI of the most recent fault activity; refreshed every
    // TTI a window is open, so the consistency grace period counts from
    // the *end* of each disturbance.
    let mut disturb = vec![chaos_start; n];
    // Whether the agent's link has been loss-free for the entire run
    // (no crash purges, no wire faults): gates exact conservation.
    let mut lossless = vec![true; n];
    let mut stall_until: Vec<Option<u64>> = vec![None; n];
    let mut wire_until: Vec<Option<u64>> = vec![None; n];
    let mut master_up_at: Option<u64> = None;

    for _ in 0..config.ttis {
        let now = sim.now().0;

        // Expire / refresh the master outage.
        if sim.master_down() {
            for d in disturb.iter_mut() {
                *d = now;
            }
            if master_up_at.is_some_and(|at| now >= at) {
                sim.restart_master().expect("journal recovery");
                register_scheduler(&mut sim);
                master_up_at = None;
                log.master_restarts += 1;
            }
        }

        // Expire / refresh per-agent windows.
        for i in 0..n {
            let enb = enbs[i];
            if let Some(until) = stall_until[i] {
                disturb[i] = now;
                if now >= until {
                    sim.agent_mut(enb).expect("present").set_stalled(false);
                    stall_until[i] = None;
                }
            }
            if let Some(until) = wire_until[i] {
                disturb[i] = now;
                if now >= until {
                    if let Some(h) = sim.fault_handle(enb) {
                        h.set_config(FaultConfig::default());
                    }
                    wire_until[i] = None;
                }
            }
        }

        // Draw new faults. The draw order is fixed (master first, then
        // agents in topology order), so the whole schedule replays from
        // the seed.
        if !sim.master_down() && roll(&mut rng, config.master_crash_prob) {
            sim.kill_master();
            master_up_at = Some(now + draw_len(&mut rng, config.master_outage));
            log.master_crashes += 1;
            for (d, l) in disturb.iter_mut().zip(lossless.iter_mut()) {
                *d = now;
                *l = false; // dead-socket purges lose in-flight traffic
            }
        }
        for i in 0..n {
            let enb = enbs[i];
            if roll(&mut rng, config.agent_crash_prob) {
                sim.crash_agent(enb).expect("present");
                stall_until[i] = None; // a restarted process is not stalled
                disturb[i] = now;
                lossless[i] = false;
                log.agent_crashes += 1;
            }
            if stall_until[i].is_none() && roll(&mut rng, config.stall_prob) {
                sim.agent_mut(enb).expect("present").set_stalled(true);
                stall_until[i] = Some(now + draw_len(&mut rng, config.stall_len));
                disturb[i] = now;
                log.stalls += 1;
            }
            if wire_until[i].is_none() && roll(&mut rng, config.wire_prob) {
                if let Some(h) = sim.fault_handle(enb) {
                    h.set_config(FaultConfig {
                        wire: Some(config.wire),
                        ..FaultConfig::default()
                    });
                }
                wire_until[i] = Some(now + draw_len(&mut rng, config.wire_len));
                disturb[i] = now;
                lossless[i] = false;
                log.wire_windows += 1;
            }
            if !sim.master_down() && roll(&mut rng, config.delegation_prob) {
                // Cached-only push (never activated): exercises the
                // delegation transfer and its journal replay without
                // changing what schedules the cells.
                let _ = sim.master_mut().push_vsf(
                    enb,
                    VsfPush {
                        module: "mac".into(),
                        vsf: "dl_ue_scheduler".into(),
                        name: format!("chaos-{}", log.delegations),
                        artifact: VsfArtifact::Dsl {
                            source: "priority = cqi\n".into(),
                        },
                        signature: vec![],
                    },
                    true,
                );
                log.delegations += 1;
            }
        }

        // Fleet-config rollouts under fire. Drawn after the per-agent
        // faults so a zero probability leaves the legacy fault stream
        // untouched. Only one rollout can be in flight; steady-state
        // phases (idle / converged / rolled-back) accept a new apply.
        if config.rollout_prob > 0.0 && !sim.master_down() && roll(&mut rng, config.rollout_prob) {
            let in_flight = matches!(
                sim.master().rollout_status().phase,
                RolloutPhase::Draft
                    | RolloutPhase::Canary
                    | RolloutPhase::Fleet
                    | RolloutPhase::RollingBack
            );
            if !in_flight {
                let canary = enbs[rng.random_range(0..n)];
                // Alternate between two local schedulers so consecutive
                // bundles differ (distinct signatures on the wire).
                let sched = if log.rollouts % 2 == 0 {
                    "round-robin"
                } else {
                    "proportional-fair"
                };
                let _ = sim.master_mut().apply_config_bundle(
                    String::new(),
                    sched.to_string(),
                    sched.to_string(),
                    canary,
                    RolloutConfig {
                        observation_window: config.rollout_window,
                        ..RolloutConfig::default()
                    },
                );
                log.rollouts += 1;
            }
        }

        sim.step();
        oracles.check(&sim, &enbs, &disturb, &lossless);
    }

    // End-state digest: per-UE observables in attach order, then the
    // fault log and the verdict. Everything folded here is derived from
    // the seeded schedule, so replays (serial, pooled, cross-process)
    // reproduce it bit-identically.
    let mut digest = Fnv1a::new();
    let mut dl_delivered_bits = 0u64;
    let mut ul_delivered_bits = 0u64;
    for &ue in &ues {
        let stats = sim.ue_stats(ue);
        fold_ue_digest(&mut digest, stats.as_ref());
        if let Some(s) = stats {
            dl_delivered_bits += s.dl_delivered_bits;
            ul_delivered_bits += s.ul_delivered_bits;
        }
    }
    for v in [
        log.agent_crashes,
        log.master_crashes,
        log.master_restarts,
        log.stalls,
        log.wire_windows,
        log.delegations,
        log.rollouts,
        oracles.total,
    ] {
        digest.write_u64(v);
    }

    let report = ChaosReport {
        seed: config.seed,
        ttis: config.ttis,
        faults: log,
        violations_total: oracles.total,
        violations: oracles.violations,
        digest: digest.finish(),
        dl_delivered_bits,
        ul_delivered_bits,
    };
    let telemetry = ChaosTelemetry {
        budget: sim.budget_stats(),
    };
    (report, telemetry)
}
