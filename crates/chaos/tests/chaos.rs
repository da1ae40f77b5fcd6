//! Chaos-engine acceptance: clean soaks, bit-identical replay-by-seed,
//! and the negative control (an injected violation must reproduce with
//! the exact same seed and TTI on every run).

use flexran_chaos::{run_chaos, ChaosConfig};

fn quick(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        ttis: 1_200,
        ..ChaosConfig::default()
    }
}

#[test]
fn quick_soak_is_clean_and_actually_injects_faults() {
    let mut faults = flexran_chaos::FaultLog::default();
    for seed in 0..4 {
        let report = run_chaos(&quick(seed));
        assert!(
            report.pass(),
            "seed {seed} violated invariants:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        faults.agent_crashes += report.faults.agent_crashes;
        faults.master_crashes += report.faults.master_crashes;
        faults.stalls += report.faults.stalls;
        faults.wire_windows += report.faults.wire_windows;
        faults.delegations += report.faults.delegations;
    }
    // The clean verdict must come from surviving faults, not dodging them.
    assert!(faults.agent_crashes > 0, "no agent crashes injected");
    assert!(faults.master_crashes > 0, "no master crashes injected");
    assert!(faults.stalls > 0, "no stalls injected");
    assert!(faults.wire_windows > 0, "no wire-fault windows injected");
    assert!(faults.delegations > 0, "no delegation pushes injected");
}

#[test]
fn sharded_soak_is_clean_and_matches_the_single_shard_run() {
    // The parallel engine, and with it the sharded control plane, must
    // survive the same fault schedule with zero violations (including
    // the shard-ownership oracle), and — since both are behaviour-
    // transparent — reproduce the serial run of the seed exactly.
    let base = run_chaos(&quick(11));
    for engine_workers in [2, 3] {
        let cfg = ChaosConfig {
            engine_workers,
            ..quick(11)
        };
        let report = run_chaos(&cfg);
        assert!(
            report.pass(),
            "{engine_workers}-worker run violated invariants:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(
            report, base,
            "{engine_workers} engine workers changed the report"
        );
    }
}

#[test]
fn replay_by_seed_is_bit_identical() {
    let a = run_chaos(&quick(42));
    let b = run_chaos(&quick(42));
    assert_eq!(a, b, "same seed must reproduce the identical report");
    let c = run_chaos(&quick(43));
    assert_ne!(
        a.faults, c.faults,
        "different seeds should draw different schedules"
    );
}

#[test]
fn negative_control_reproduces_seed_and_tti_exactly() {
    let cfg = ChaosConfig {
        inject_violation_at: Some(600),
        ..quick(7)
    };
    let a = run_chaos(&cfg);
    assert!(!a.pass(), "the injected violation must be detected");
    let first = &a.violations[0];
    assert_eq!(first.oracle, "prb-capacity");
    assert!(
        first.tti >= 600,
        "violation fired at {} before the injection point",
        first.tti
    );
    assert!(first.detail.contains("negative control"));
    // The whole point: the violation replays bit-identically from the
    // seed — same TTI, same oracle, same detail.
    let b = run_chaos(&cfg);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.violations_total, b.violations_total);
}

#[test]
fn rollout_scenario_survives_the_full_fault_mix() {
    // The `rollout` fault scenario: fleet-config rollouts drawn into the
    // standard multi-layer fault stream, so canary pushes get corrupted
    // on the wire, canary agents crash mid-observation and the master
    // dies (and journal-recovers) mid-phase. The config-provenance
    // oracle checks every TTI that no agent ever runs a bundle the
    // master never issued and that resting rollouts land every quiesced
    // agent on the prescribed version.
    let mut rollouts = 0;
    let mut master_crashes = 0;
    let mut agent_crashes = 0;
    for seed in 0..6 {
        let cfg = ChaosConfig {
            rollout_prob: 0.01,
            rollout_window: 60,
            ttis: 2_000,
            ..quick(seed)
        };
        let report = run_chaos(&cfg);
        assert!(
            report.pass(),
            "seed {seed} violated invariants:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        rollouts += report.faults.rollouts;
        master_crashes += report.faults.master_crashes;
        agent_crashes += report.faults.agent_crashes;
        // Replay determinism holds with the rollout stream enabled.
        assert_eq!(run_chaos(&cfg), report, "seed {seed} must replay");
    }
    // The verdict must come from rollouts actually riding the faults.
    assert!(rollouts >= 6, "only {rollouts} rollouts drawn across seeds");
    assert!(master_crashes > 0, "no master crash hit a rollout run");
    assert!(agent_crashes > 0, "no agent crash hit a rollout run");
}

#[test]
fn lossless_schedule_holds_exact_command_conservation() {
    // No crashes and no wire faults: the exact conservation equation
    // (tx == rx + in-flight) is checked every single TTI, under stalls
    // and delegation churn.
    let cfg = ChaosConfig {
        agent_crash_prob: 0.0,
        master_crash_prob: 0.0,
        wire_prob: 0.0,
        stall_prob: 0.004,
        delegation_prob: 0.01,
        ..quick(11)
    };
    let report = run_chaos(&cfg);
    assert!(
        report.pass(),
        "lossless run violated invariants:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.faults.stalls > 0);
    assert_eq!(report.faults.master_crashes, 0);
}
