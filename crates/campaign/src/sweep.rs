//! `campaign sweep`: the scale grid across seeds.
//!
//! `experiments scale` measures each grid point once, with one seed —
//! a single-run point estimate. The sweep runs every grid point under
//! `seeds` independent seeds on the campaign pool and aggregates each
//! KPI into a [`Distribution`](crate::stats::Distribution), so the
//! emitted `BENCH_scale.json` carries confidence intervals and exact
//! percentiles instead of single-run points. Throughput and the
//! end-state digest are deterministic per `(point, seed)`; TTIs/s and
//! TTI-latency KPIs are wall-clock measurements whose spread is
//! precisely what the distribution quantifies.

use crate::alloc_probe;
use crate::pool::{run_pool, CancelToken, Progress};
use crate::report::{CampaignReport, RunRecord};
use flexran::agent::AgentConfig;
use flexran::harness::{SimConfig, SimHarness, UeRadioSpec};
use flexran::prelude::*;
use flexran::sim::traffic::FullBufferSource;
use flexran::stack::stats::fold_ue_digest;
use flexran::types::hash::Fnv1a;

/// One planned sweep run: a grid point under one seed.
#[derive(Debug, Clone)]
pub struct SweepRun {
    pub enbs: usize,
    pub ues_per_enb: usize,
    pub seed: u64,
}

/// The sweep spec. The default grid matches `experiments scale`.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub grid: Vec<(usize, usize)>,
    /// Seeds `0..seeds` per grid point.
    pub seeds: u64,
    /// Measured TTIs per run (after the attach warm-up).
    pub ttis: u64,
    /// Attach/warm-up TTIs excluded from the measured window.
    pub warmup: u64,
    pub workers: usize,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            grid: vec![(1, 16), (2, 32), (4, 64), (8, 16), (8, 64)],
            seeds: 8,
            ttis: 2_000,
            warmup: 100,
            workers: 1,
        }
    }
}

/// Parse a CLI grid: `1x16,2x32,...`.
pub fn parse_grid(text: &str) -> Result<Vec<(usize, usize)>, String> {
    let mut grid = Vec::new();
    for token in text.split(',') {
        let (e, u) = token
            .trim()
            .split_once('x')
            .ok_or_else(|| format!("bad grid point '{token}' (want ENBSxUES, e.g. 4x64)"))?;
        let enbs = e
            .parse()
            .map_err(|_| format!("bad eNB count in '{token}'"))?;
        let ues = u
            .parse()
            .map_err(|_| format!("bad UE count in '{token}'"))?;
        grid.push((enbs, ues));
    }
    Ok(grid)
}

impl SweepSpec {
    /// The deterministic plan, grid-major then seed order.
    pub fn plan(&self) -> Vec<SweepRun> {
        let mut plan = Vec::new();
        for &(enbs, ues_per_enb) in &self.grid {
            for seed in 0..self.seeds {
                plan.push(SweepRun {
                    enbs,
                    ues_per_enb,
                    seed,
                });
            }
        }
        plan
    }
}

/// Execute one sweep run (serial TTI engine — the campaign pool is the
/// parallelism) and record its KPIs and end-state digest.
pub fn run_one(run: &SweepRun, spec: &SweepSpec) -> RunRecord {
    let mut sim = SimHarness::new(SimConfig {
        seed: run.seed,
        workers: None,
        ..SimConfig::default()
    });
    for e in 0..run.enbs {
        let enb = EnbId(e as u32 + 1);
        sim.add_enb(EnbConfig::single_cell(enb), AgentConfig::default());
        for u in 0..run.ues_per_enb {
            let ue_seed = run.seed ^ ((e as u64) << 32) ^ u as u64;
            let ue = sim.add_ue(
                enb,
                CellId(0),
                SliceId::MNO,
                0,
                UeRadioSpec::Fading(15.0, 4.0, 0.95, ue_seed),
            );
            sim.set_dl_traffic(ue, Box::new(FullBufferSource::default()));
        }
    }
    sim.run(spec.warmup);
    sim.reset_budget();
    let allocs_before = alloc_probe::thread_allocations();
    // TTIs/s is the KPI under measurement; the simulation itself runs
    // on virtual time.
    // lint:allow(wall-clock) measurement-only KPI
    let t0 = std::time::Instant::now();
    sim.run(spec.ttis);
    let wall = t0.elapsed();
    let allocs_after = alloc_probe::thread_allocations();
    let budget = sim.budget_stats();

    // Deterministic end-state digest + cumulative throughput, the same
    // observables `experiments scale` digests.
    let mut digest = Fnv1a::new();
    let mut dl_bits = 0u64;
    for id in 1..=(run.enbs * run.ues_per_enb) as u32 {
        let stats = sim.ue_stats(UeId(id));
        fold_ue_digest(&mut digest, stats.as_ref());
        dl_bits += stats.map_or(0, |s| s.dl_delivered_bits);
    }

    let total_ttis = (spec.warmup + spec.ttis).max(1);
    let mut kpis: Vec<(&'static str, f64)> = vec![
        (
            "ttis_per_sec",
            spec.ttis as f64 / wall.as_secs_f64().max(1e-9),
        ),
        (
            "throughput_mbps",
            dl_bits as f64 / total_ttis as f64 / 1000.0,
        ),
        ("tti_p50_us", budget.p50_ns as f64 / 1e3),
        ("tti_p99_us", budget.p99_ns as f64 / 1e3),
    ];
    if let (Some(before), Some(after)) = (allocs_before, allocs_after) {
        kpis.push((
            "allocs_per_tti",
            after.saturating_sub(before) as f64 / spec.ttis.max(1) as f64,
        ));
    }
    RunRecord {
        label: format!("{}x{}", run.enbs, run.ues_per_enb),
        seed: run.seed,
        pass: true, // the sweep has no oracles; failures are digest mismatches downstream
        digest: digest.finish(),
        violations_total: 0,
        violations: Vec::new(),
        kpis,
        counters: Vec::new(),
    }
}

/// Run the sweep over the pool.
pub fn run_sweep(
    spec: &SweepSpec,
    cancel: &CancelToken,
    on_done: &mut dyn FnMut(&Progress<'_, RunRecord>),
) -> CampaignReport {
    let plan = spec.plan();
    let workers = spec.workers.clamp(1, plan.len().max(1));
    // lint:allow(wall-clock) measurement-only campaign wall time
    let t0 = std::time::Instant::now();
    let slots = run_pool(&plan, workers, cancel, |_, run| run_one(run, spec), on_done);
    CampaignReport {
        name: "sweep".to_string(),
        workers,
        cancelled: cancel.is_cancelled(),
        slots,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// The `BENCH_scale.json` sweep schema: one series entry per grid
/// point, every KPI a distribution over that point's seeds, plus the
/// per-seed digests for reproducibility cross-checks.
pub fn sweep_json(report: &CampaignReport, spec: &SweepSpec) -> serde_json::Value {
    let mut series = Vec::new();
    for &(enbs, ues_per_enb) in &spec.grid {
        let label = format!("{enbs}x{ues_per_enb}");
        let records: Vec<_> = report.completed().filter(|r| r.label == label).collect();
        let mut kpis: Vec<(String, serde_json::Value)> = Vec::new();
        let mut by_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for r in &records {
            for (name, value) in &r.kpis {
                match by_name.iter_mut().find(|(n, _)| n == name) {
                    Some((_, samples)) => samples.push(*value),
                    None => by_name.push((name, vec![*value])),
                }
            }
        }
        for (name, samples) in &by_name {
            if let Some(d) = crate::stats::Distribution::from_samples(samples) {
                kpis.push((name.to_string(), d.to_json()));
            }
        }
        let digests: Vec<serde_json::Value> = records
            .iter()
            .map(|r| serde_json::Value::String(format!("{:016x}", r.digest)))
            .collect();
        series.push(serde_json::json!({
            "enbs": enbs as u64,
            "ues_per_enb": ues_per_enb as u64,
            "seeds": records.len() as u64,
            "kpis": serde_json::Value::Object(kpis),
            "digests": serde_json::Value::Array(digests),
        }));
    }
    serde_json::json!({
        "bench": "scale",
        "mode": "sweep",
        "schema": 1u64,
        "seeds_per_point": spec.seeds,
        "ttis_per_point": spec.ttis,
        "warmup_ttis": spec.warmup,
        "workers": report.workers as u64,
        "completed": (report.total() - report.skipped()) as u64,
        "planned": report.total() as u64,
        "cancelled": report.cancelled,
        "wall_ms": report.wall_ms,
        "series": serde_json::Value::Array(series),
        "note": "distribution-grade scale points: every KPI is aggregated over \
                 independent seeds with exact nearest-rank percentiles and a 95% CI \
                 on the mean; single-run points (mode: single) cannot express run-to-run \
                 variance",
    })
}
