//! Master crash-recovery integration: journaled RIB, crash, restart,
//! re-sync (DESIGN.md §9).
//!
//! The scenario: a journaled master observes two eNodeBs; the master
//! process crashes; the agents ride out the outage in local control with
//! zero data-plane interruption; the master restarts from its journal,
//! re-attaches the surviving links, and reconciles the RIB through the
//! resync protocol (Hello → ResyncRequest → ConfigReply + full stats).
//!
//! `scripts/check.sh` runs this under `--features debug-invariants`, so
//! the recovery path is also exercised against the RIB write-cycle
//! assertions (monotonic epochs, single-writer discipline).

use flexran::agent::liveness::{FailoverState, LivenessConfig};
use flexran::agent::AgentConfig;
use flexran::harness::{SimConfig, SimHarness, UeRadioSpec};
use flexran::prelude::*;
use flexran::sim::traffic::CbrSource;

fn liveness_agent_config() -> AgentConfig {
    AgentConfig {
        sync_period: 1,
        liveness: LivenessConfig {
            heartbeat_period: 5,
            liveness_timeout: 40,
            ..LivenessConfig::default()
        },
        ..AgentConfig::default()
    }
}

fn journaled_master() -> TaskManagerConfig {
    TaskManagerConfig {
        liveness_timeout: 40,
        journal_snapshot_every: 8,
        ..TaskManagerConfig::default()
    }
}

fn subscribe_all(sim: &mut SimHarness, enb: EnbId, period: u32) {
    sim.master_mut()
        .request_stats(
            enb,
            flexran::proto::ReportConfig {
                report_type: flexran::proto::ReportType::Periodic { period },
                flags: flexran::proto::ReportFlags::ALL,
            },
        )
        .expect("session exists");
}

#[test]
fn master_crash_recovery_resyncs_the_rib() {
    let cfg = SimConfig {
        master: journaled_master(),
        ..SimConfig::default()
    };
    let mut sim = SimHarness::new(cfg);
    let mut ues = Vec::new();
    for i in 1..=2u32 {
        let enb = sim.add_enb(EnbConfig::single_cell(EnbId(i)), liveness_agent_config());
        for _ in 0..3 {
            let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(12));
            sim.set_dl_traffic(ue, Box::new(CbrSource::new(BitRate::from_mbps(1))));
            ues.push(ue);
        }
    }
    sim.run(5);
    for i in 1..=2u32 {
        subscribe_all(&mut sim, EnbId(i), 10);
    }
    sim.run(200);
    let rib = sim.master().view();
    assert_eq!(rib.n_agents(), 2, "both agents in the RIB before the crash");
    assert_eq!(rib.n_ues(), 6, "all UEs visible before the crash");

    // Crash. The journal survives "on disk"; the process state does not.
    sim.kill_master();
    let delivered_at_crash: Vec<u64> = ues
        .iter()
        .map(|u| sim.ue_stats(*u).expect("attached").dl_delivered_bits)
        .collect();
    sim.run(100);
    for i in 1..=2u32 {
        assert_eq!(
            sim.agent(EnbId(i)).unwrap().failover_state(),
            FailoverState::LocalControl,
            "agents must fail over while the master is dead"
        );
    }
    // Zero data-plane interruption: local control kept scheduling.
    for (u, before) in ues.iter().zip(&delivered_at_crash) {
        let after = sim.ue_stats(*u).expect("still attached").dl_delivered_bits;
        assert!(
            after > *before + 50_000,
            "UE {u} starved during the outage: {before} → {after} bits"
        );
    }

    // Restart from the journal: the recovered RIB is complete but stale.
    sim.restart_master().expect("recovery from journal");
    assert!(!sim.master_down());
    let rib = sim.master().view();
    assert_eq!(rib.n_agents(), 2, "journal replay rebuilt both subtrees");
    assert_eq!(rib.n_ues(), 6, "journal replay rebuilt every UE leaf");
    assert_eq!(
        rib.stale_agents().len(),
        2,
        "recovered state is pre-crash epochs until the agents re-sync"
    );

    // Re-sync: heartbeats resume, agents rejoin, resync requests draw
    // fresh config + stats, the replayed subscriptions start reporting.
    sim.run(300);
    let rib = sim.master().view();
    assert!(
        rib.stale_agents().is_empty(),
        "all agents re-synced after recovery: {:?}",
        rib.stale_agents()
    );
    assert_eq!(rib.n_ues(), 6, "reconciled RIB still has every UE");
    for i in 1..=2u32 {
        assert_eq!(
            sim.agent(EnbId(i)).unwrap().failover_state(),
            FailoverState::Connected,
            "agents back under master control"
        );
        let agent_node = rib.agent(EnbId(i)).expect("present");
        let sync = agent_node.synced_subframe().expect("sync resumed");
        assert!(
            sync.0 > 300,
            "post-recovery sync epoch must be post-crash, got {sync}"
        );
        for cell in agent_node.cells() {
            for ue in cell.ues() {
                assert!(ue.report.connected, "replayed subscription refreshed UEs");
            }
        }
    }
    // The replayed report subscriptions survive the crash: reports keep
    // the RIB fresh without anyone re-subscribing after the restart.
    assert_eq!(
        sim.master().liveness_stats().ups,
        2,
        "both sessions rejoined exactly once"
    );
}

#[test]
fn sharded_master_recovers_from_per_shard_journal_segments() {
    // Same crash/restart arc as above, but on a 2-worker engine, so the
    // control plane is split across two RIB shards: each shard journals
    // its own segment, the crash parks the concatenated container, and
    // recovery replays every segment back into the owning shards.
    let mut sim = three_agent_sim(Some(2));
    assert_eq!(sim.master().n_shards(), 2);
    // Ownership is id mod 2: EnbId 1 and 3 on shard 1, EnbId 2 on shard 0.
    assert_eq!(sim.master().shard_of(EnbId(1)), Some(1));
    assert_eq!(sim.master().shard_of(EnbId(2)), Some(0));
    assert_eq!(sim.master().shard_of(EnbId(3)), Some(1));
    let pre_crash = sim.master().merged_rib();
    assert_eq!(pre_crash.n_agents(), 3);
    assert_eq!(pre_crash.n_ues(), 6);

    sim.kill_master();
    sim.run(100);
    sim.restart_master().expect("recovery from sharded journal");

    // Recovery rebuilt every subtree in the same owner shards.
    let recovered = sim.master().merged_rib();
    assert_eq!(recovered.n_agents(), 3, "all subtrees recovered");
    assert_eq!(recovered.n_ues(), 6, "every UE leaf recovered");
    assert_eq!(sim.master().n_shards(), 2);
    for (enb, shard) in [(EnbId(1), 1), (EnbId(2), 0), (EnbId(3), 1)] {
        assert_eq!(
            sim.master().shard_of(enb),
            Some(shard),
            "ownership is id-stable across restarts"
        );
    }

    // Re-sync brings every shard fresh again.
    sim.run(300);
    let rib = sim.master().view();
    assert!(
        rib.stale_agents().is_empty(),
        "all agents re-synced after sharded recovery: {:?}",
        rib.stale_agents()
    );
    assert_eq!(rib.n_ues(), 6, "reconciled RIB still has every UE");
    assert_eq!(
        sim.master().liveness_stats().ups,
        3,
        "all three sessions rejoined exactly once"
    );
}

/// Three journaled agents with two UEs each and 10 ms full-stats
/// subscriptions, run for 205 TTIs on a `workers` engine.
fn three_agent_sim(workers: Option<usize>) -> SimHarness {
    let mut sim = SimHarness::new(SimConfig {
        master: journaled_master(),
        workers,
        ..SimConfig::default()
    });
    for i in 1..=3u32 {
        let enb = sim.add_enb(EnbConfig::single_cell(EnbId(i)), liveness_agent_config());
        for _ in 0..2 {
            let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(12));
            sim.set_dl_traffic(ue, Box::new(CbrSource::new(BitRate::from_mbps(1))));
        }
    }
    sim.run(5);
    for i in 1..=3u32 {
        subscribe_all(&mut sim, EnbId(i), 10);
    }
    sim.run(200);
    sim
}

#[test]
fn journal_recovers_across_shard_counts() {
    // Journal records route by agent id, so a journal written by a
    // 2-shard master recovers into 1 shard and vice versa: a harness
    // restarted with a different worker count keeps its RIB.
    for (write_workers, recover_shards) in [(Some(2), 1), (None, 2)] {
        let sim = three_agent_sim(write_workers);
        let pre_crash = sim.master().merged_rib();
        let journal = sim.master().journal_bytes().expect("journaling on");
        let recovered =
            MasterController::recover(journaled_master(), &journal, sim.now(), recover_shards)
                .expect("recovery across shard counts");
        assert_eq!(recovered.n_shards(), recover_shards);
        for i in 1..=3u32 {
            assert_eq!(
                recovered.shard_of(EnbId(i)),
                Some(i as usize % recover_shards),
                "records land in the owner shard"
            );
        }
        let mut rib = recovered.merged_rib();
        for i in 1..=3u32 {
            assert!(rib.agent(EnbId(i)).unwrap().is_stale());
            rib.agent_mut(EnbId(i)).mark_fresh();
        }
        assert_eq!(
            rib, pre_crash,
            "written at workers={write_workers:?}, recovered into {recover_shards} shard(s)"
        );
    }
}

#[test]
fn agent_crash_is_detected_and_state_replayed() {
    let cfg = SimConfig {
        master: journaled_master(),
        ..SimConfig::default()
    };
    let mut sim = SimHarness::new(cfg);
    let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), liveness_agent_config());
    let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(12));
    sim.set_dl_traffic(ue, Box::new(CbrSource::new(BitRate::from_mbps(1))));
    sim.run(5);
    subscribe_all(&mut sim, EnbId(1), 10);
    sim.run(100);
    assert_eq!(sim.master().view().n_ues(), 1);

    // The agent process dies and a supervisor restarts it: soft state
    // (including the report subscription) is gone, the data plane lives.
    sim.crash_agent(EnbId(1)).unwrap();
    sim.run(200);
    // The restarted agent re-helloed; the master replayed the
    // subscription, so reports resumed and the RIB went fresh again.
    let rib = sim.master().view();
    assert!(rib.stale_agents().is_empty(), "agent re-synced");
    assert_eq!(rib.n_ues(), 1, "UE leaf restored by replayed reports");
    let sync = rib
        .agent(EnbId(1))
        .and_then(|a| a.synced_subframe())
        .expect("sync resumed");
    assert!(sync.0 > 105, "sync resumed after the crash, got {sync}");
    let stats = sim.ue_stats(ue).expect("attached");
    assert!(stats.connected, "data plane unaffected by the agent crash");
}
