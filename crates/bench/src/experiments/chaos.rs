//! The chaos gate: seeded fault schedules vs. the invariant oracles,
//! run as a `flexran-campaign` chaos campaign.
//!
//! This experiment is a thin campaign spec: it plans `--seeds`
//! independent chaos schedules of `--ttis` TTIs each (defaults: 32×5000
//! full, 4×1500 quick), fans them over the campaign worker pool, and
//! tolerates **zero** invariant violations. On a violation the runner
//! prints every offending oracle pin — exact `(config, seed, TTI)` for
//! a bit-identical replay — and aborts with a failure, so
//! `scripts/check.sh` can use this experiment as its chaos smoke gate.
//! Beyond the old sequential loop, the campaign also aggregates KPI
//! distributions (throughput, TTI latency, allocs/TTI) across the
//! seeds, turning the soak into a statistics-grade measurement.

use flexran_campaign::chaos::{run_chaos_campaign, ChaosCampaignSpec};
use flexran_campaign::{alloc_probe, CancelToken};

use crate::{alloc_counter, csv, ExpContext, ExpResult};

pub fn chaos(ctx: &ExpContext) -> ExpResult {
    let seeds = ctx.seeds_override.unwrap_or(if ctx.quick { 4 } else { 32 });
    let ttis = ctx.ttis_override.unwrap_or(ctx.ttis(5_000, 1_500));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Per-run allocs/TTI KPI: the campaign probes this crate's counting
    // allocator through its thread-attributed counter.
    alloc_probe::register(alloc_counter::thread_allocations);

    let mut spec = ChaosCampaignSpec::new(seeds, ttis, workers);
    // Fleet-config rollouts ride the fault schedule too, so the
    // config-provenance oracle is exercised against corrupted canary
    // pushes, crashing canaries and mid-rollout master recoveries.
    spec.base.rollout_prob = 0.005;

    let mut res = ExpResult::new(
        "chaos",
        "Chaos soak: multi-layer fault schedules vs invariant oracles (campaign)",
        &[
            "config",
            "seed",
            "ttis",
            "agent crashes",
            "master crashes/recoveries",
            "stalls",
            "wire windows",
            "delegations",
            "rollouts",
            "violations",
            "digest",
        ],
    );

    let report = run_chaos_campaign(&spec, &CancelToken::new(), &mut |_| {});
    for r in report.completed() {
        let counter = |name: &str| -> u64 {
            r.counters
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(0, |(_, v)| *v)
        };
        res.row(vec![
            r.label.clone(),
            r.seed.to_string(),
            ttis.to_string(),
            counter("agent_crashes").to_string(),
            format!(
                "{}/{}",
                counter("master_crashes"),
                counter("master_restarts")
            ),
            counter("stalls").to_string(),
            counter("wire_windows").to_string(),
            counter("delegations").to_string(),
            counter("rollouts").to_string(),
            r.violations_total.to_string(),
            format!("{:016x}", r.digest),
        ]);
    }

    res.note(format!(
        "{seeds} seeds × {ttis} TTIs (serial engine) on {} campaign workers, zero \
         tolerated violations. Oracles: failover legality, PRB capacity, HARQ \
         monotonicity, RIB↔stack consistency, command conservation, decision \
         sanity, shard ownership, budget-monitor consistency, config \
         provenance. Any violation pins (config, seed, TTI) for exact replay.",
        report.workers,
    ));
    for (name, d) in report.kpi_distributions() {
        res.note(format!(
            "kpi {name}: n={} mean={:.3}±{:.3} p50={:.3} p95={:.3} p99={:.3}",
            d.n, d.mean, d.ci95, d.p50, d.p95, d.p99
        ));
    }
    ctx.write_csv(
        "chaos",
        &csv(
            &res.headers.iter().map(String::as_str).collect::<Vec<_>>(),
            &res.rows,
        ),
    );
    std::fs::write(
        ctx.out_dir.join("campaign_chaos.json"),
        serde_json::to_string_pretty(&report.to_json()).expect("serialize campaign report"),
    )
    .expect("write campaign_chaos.json");

    if !report.pass() {
        for pin in report.pins() {
            eprintln!("{pin}");
        }
        panic!(
            "chaos gate failed: {} invariant violation(s), {} skipped run(s) across \
             {seeds} seeds",
            report.violations_total(),
            report.skipped(),
        );
    }
    res
}
