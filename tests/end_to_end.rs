//! End-to-end integration: eNodeB data plane ↔ agent ↔ FlexRAN protocol ↔
//! master controller, over emulated control channels.

use flexran::agent::AgentConfig;
use flexran::apps::CentralizedScheduler;
use flexran::harness::{SimConfig, SimHarness, UeRadioSpec};
use flexran::prelude::*;
use flexran::sim::link::LinkConfig;
use flexran::sim::traffic::{CbrSource, FullBufferSource};
use flexran::stack::mac::scheduler::RoundRobinScheduler;

fn remote_agent_config() -> AgentConfig {
    AgentConfig {
        initial_dl_scheduler: Some("remote-stub".into()),
        sync_period: 1,
        ..AgentConfig::default()
    }
}

fn subscribe_all(sim: &mut SimHarness, enb: EnbId, period: u32) {
    let _ = sim.master_mut().request_stats(
        enb,
        flexran::proto::ReportConfig {
            report_type: flexran::proto::ReportType::Periodic { period },
            flags: flexran::proto::ReportFlags::ALL,
        },
    );
}

#[test]
fn multi_enb_rib_converges() {
    let mut sim = SimHarness::new(SimConfig::default());
    for i in 1..=3u32 {
        let enb = sim.add_enb(EnbConfig::single_cell(EnbId(i)), AgentConfig::default());
        for _ in 0..4 {
            sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(10));
        }
    }
    sim.run(2); // hellos land
    for i in 1..=3u32 {
        subscribe_all(&mut sim, EnbId(i), 5);
    }
    sim.run(200);
    let rib = sim.master().view();
    assert_eq!(rib.n_agents(), 3);
    assert_eq!(rib.n_ues(), 12, "all UEs visible in the RIB forest");
    for agent in rib.agents() {
        let cell = agent.cells().first().expect("cell reported");
        for ue in cell.ues() {
            assert!(ue.report.connected);
            assert_eq!(ue.report.wideband_cqi, 10);
        }
    }
}

#[test]
fn centralized_scheduling_over_ideal_link() {
    // Remote-stub at the agent; every DCI comes from the master app.
    let mut sim = SimHarness::new(SimConfig::default());
    let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), remote_agent_config());
    let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(15));
    sim.set_dl_traffic(ue, Box::new(FullBufferSource::default()));
    sim.master_mut()
        .register_app(Box::new(CentralizedScheduler::new(
            2,
            Box::new(RoundRobinScheduler::new()),
        )));
    sim.run(5);
    subscribe_all(&mut sim, EnbId(1), 1);
    sim.run(3000);
    let stats = sim.ue_stats(ue).expect("attached remotely");
    assert!(stats.connected, "attach completed via remote scheduling");
    let mbps = stats.dl_delivered_bits as f64 / 3000.0 / 1000.0;
    assert!(
        mbps > 20.0,
        "remote full-buffer throughput {mbps} Mb/s at CQI 15"
    );
    // The decisions really were remote.
    let cell_stats = sim
        .agent(EnbId(1))
        .unwrap()
        .enb()
        .cell_stats(CellId(0))
        .unwrap();
    assert!(cell_stats.decisions_applied > 1000);
}

#[test]
fn insufficient_schedule_ahead_blocks_attachment() {
    // 20 ms RTT, schedule-ahead of 4 subframes: every decision misses its
    // deadline — the Fig. 9 lower triangle.
    let cfg = SimConfig {
        uplink: LinkConfig::with_one_way_ms(10),
        downlink: LinkConfig::with_one_way_ms(10),
        ..SimConfig::default()
    };
    let mut sim = SimHarness::new(cfg);
    let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), remote_agent_config());
    let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(15));
    sim.set_dl_traffic(ue, Box::new(FullBufferSource::default()));
    sim.master_mut()
        .register_app(Box::new(CentralizedScheduler::new(
            4, // < RTT: hopeless
            Box::new(RoundRobinScheduler::new()),
        )));
    sim.run(30);
    subscribe_all(&mut sim, EnbId(1), 1);
    sim.run(3000);
    let delivered = sim.ue_stats(ue).map(|s| s.dl_delivered_bits).unwrap_or(0);
    assert_eq!(delivered, 0, "no data can flow when n < RTT");
    let cell_stats = sim
        .agent(EnbId(1))
        .unwrap()
        .enb()
        .cell_stats(CellId(0))
        .unwrap();
    assert!(
        cell_stats.missed_deadlines > 100,
        "late decisions were dropped: {}",
        cell_stats.missed_deadlines
    );
    assert!(cell_stats.attach_failures > 10);
}

#[test]
fn sufficient_schedule_ahead_tolerates_latency() {
    // Same 20 ms RTT but n = 30 ≥ RTT: attachment and traffic succeed
    // (the Fig. 9 upper triangle).
    let cfg = SimConfig {
        uplink: LinkConfig::with_one_way_ms(10),
        downlink: LinkConfig::with_one_way_ms(10),
        ..SimConfig::default()
    };
    let mut sim = SimHarness::new(cfg);
    let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), remote_agent_config());
    let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(15));
    sim.set_dl_traffic(ue, Box::new(FullBufferSource::default()));
    sim.master_mut()
        .register_app(Box::new(CentralizedScheduler::new(
            30,
            Box::new(RoundRobinScheduler::new()),
        )));
    sim.run(30);
    subscribe_all(&mut sim, EnbId(1), 1);
    sim.run(5000);
    let stats = sim.ue_stats(ue).expect("attached despite 20 ms RTT");
    assert!(stats.connected);
    let mbps = stats.dl_delivered_bits as f64 / 5000.0 / 1000.0;
    assert!(mbps > 15.0, "throughput with ahead ≥ RTT: {mbps} Mb/s");
}

#[test]
fn signalling_overhead_is_accounted_per_category() {
    use flexran::proto::{MessageCategory, Transport};
    let mut sim = SimHarness::new(SimConfig::default());
    let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), remote_agent_config());
    let mut ues = Vec::new();
    for _ in 0..5 {
        ues.push(sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(10)));
    }
    sim.master_mut()
        .register_app(Box::new(CentralizedScheduler::new(
            2,
            Box::new(RoundRobinScheduler::new()),
        )));
    for ue in &ues {
        sim.set_dl_traffic(*ue, Box::new(CbrSource::new(BitRate::from_mbps(1))));
    }
    sim.run(5);
    subscribe_all(&mut sim, EnbId(1), 1);
    sim.run(1000);
    let tx = sim.agent(EnbId(1)).unwrap().transport().tx_counters();
    // Per-TTI sync + per-TTI stats must dominate agent→master traffic.
    assert!(tx.messages(MessageCategory::Sync) >= 1000);
    assert!(tx.messages(MessageCategory::StatsReporting) >= 990);
    assert!(
        tx.bytes(MessageCategory::StatsReporting) > 10 * tx.bytes(MessageCategory::Sync),
        "stats dwarf sync"
    );
    // UE reports make stats messages grow with the UE count.
    let per_msg =
        tx.bytes(MessageCategory::StatsReporting) / tx.messages(MessageCategory::StatsReporting);
    assert!(
        per_msg > 800,
        "5 UEs × full report ≈ >800 B per message, got {per_msg}"
    );
}

#[test]
fn cbr_delivery_is_rate_faithful_across_latencies() {
    for latency in [0u64, 15] {
        let cfg = SimConfig {
            uplink: LinkConfig::with_one_way_ms(latency),
            downlink: LinkConfig::with_one_way_ms(latency),
            ..SimConfig::default()
        };
        let mut sim = SimHarness::new(cfg);
        // Local scheduling: control latency must not matter.
        let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), AgentConfig::default());
        let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(12));
        sim.set_dl_traffic(ue, Box::new(CbrSource::new(BitRate::from_mbps(3))));
        sim.run(4000);
        let stats = sim.ue_stats(ue).unwrap();
        let mbps = stats.dl_delivered_bits as f64 / 4000.0 / 1000.0;
        assert!(
            (2.6..=3.2).contains(&mbps),
            "local scheduling at {latency} ms control latency: {mbps} Mb/s"
        );
    }
}

#[test]
fn uplink_traffic_flows_end_to_end() {
    let mut sim = SimHarness::new(SimConfig::default());
    let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), AgentConfig::default());
    let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(12));
    sim.set_ul_traffic(ue, Box::new(CbrSource::new(BitRate::from_mbps(2))));
    sim.run(3000);
    let stats = sim.ue_stats(ue).unwrap();
    let mbps = stats.ul_delivered_bits as f64 / 3000.0 / 1000.0;
    assert!(
        (1.6..=2.2).contains(&mbps),
        "uplink CBR delivered {mbps} Mb/s"
    );
}

#[test]
fn multi_cell_enb_serves_both_cells() {
    // One eNodeB with two cells: the agent's control modules drive both.
    let mut sim = SimHarness::new(SimConfig::default());
    let mut cfg = EnbConfig::single_cell(EnbId(1));
    cfg.cells
        .push(flexran::types::config::CellConfig::paper_default(CellId(1)));
    let enb = sim.add_enb(cfg, AgentConfig::default());
    let ue_a = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(12));
    let ue_b = sim.add_ue(enb, CellId(1), SliceId::MNO, 0, UeRadioSpec::FixedCqi(12));
    sim.set_dl_traffic(ue_a, Box::new(CbrSource::new(BitRate::from_mbps(2))));
    sim.set_dl_traffic(ue_b, Box::new(CbrSource::new(BitRate::from_mbps(2))));
    sim.run(3000);
    for ue in [ue_a, ue_b] {
        let s = sim.ue_stats(ue).expect("attached");
        assert!(s.connected);
        let mbps = s.dl_delivered_bits as f64 / 3000.0 / 1000.0;
        assert!((1.7..=2.2).contains(&mbps), "cell-local CBR: {mbps} Mb/s");
    }
    // Each cell keeps independent statistics.
    let agent = sim.agent(EnbId(1)).unwrap();
    for cell in [CellId(0), CellId(1)] {
        assert_eq!(agent.enb().n_ues(cell).unwrap(), 1);
        assert!(agent.enb().cell_stats(cell).unwrap().dl_prbs_used > 0);
    }
}

#[test]
fn master_counts_undecodable_frames() {
    use flexran::sim::link::{FaultConfig, FaultHandle, WireFaults};

    let mut sim = SimHarness::new(SimConfig::default());
    let faults = FaultHandle::new(5);
    let enb = sim.add_enb_with_faults(
        EnbConfig::single_cell(EnbId(1)),
        AgentConfig::default(),
        EnbParams::default(),
        None,
        faults.clone(),
    );
    sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(10));
    sim.run(5);
    subscribe_all(&mut sim, enb, 1);
    sim.run(20);
    assert_eq!(sim.master().liveness_stats().undecodable_frames, 0);

    // Every delivered frame, stats replies included, now drags a garbage
    // frame behind it. The master counts each one it reads and keeps
    // folding the real reports.
    faults.set_config(FaultConfig {
        wire: Some(WireFaults {
            insert_prob: 1.0,
            ..WireFaults::default()
        }),
        ..FaultConfig::default()
    });
    sim.run(20);
    let undecodable = sim.master().liveness_stats().undecodable_frames;
    assert!(
        undecodable >= 19,
        "only {undecodable} garbage frames counted"
    );
    assert!(undecodable <= faults.injected_frames());
    let view = sim.master().view();
    let cell = view.cell(enb, CellId(0)).expect("cell in the RIB");
    assert_eq!(cell.ues().len(), 1);
    assert!(
        cell.ues()[0].updated.0 >= sim.now().0 - 2,
        "reports stalled"
    );
}
