//! Campaign run records and the aggregated, machine-readable report.
//!
//! Aggregation is deterministic by construction: records are stored in
//! plan order (never completion order), violation pins keep their exact
//! `(seed, TTI)` for bit-identical replay, and KPI distributions are
//! computed by [`crate::stats`] from the full sample sets. The report
//! can never swallow a failure: a skipped (cancelled) run, a violated
//! oracle, or a cancelled campaign each force `pass() == false`.

use crate::stats::Distribution;

/// One oracle violation in the aggregate roll-up, pinned to the exact
/// `(seed, TTI)` — and the config variant — that replays it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationPin {
    /// Config-variant label of the violating run (e.g. `engine_workers=4`).
    pub label: String,
    pub seed: u64,
    pub tti: u64,
    pub oracle: String,
    pub detail: String,
}

impl std::fmt::Display for ViolationPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "violation: config={} seed={} tti={} oracle={} — {}",
            self.label, self.seed, self.tti, self.oracle, self.detail
        )
    }
}

/// What one completed run contributes to the campaign.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Config-variant label (one campaign may cover several variants).
    pub label: String,
    pub seed: u64,
    pub pass: bool,
    /// Deterministic end-state digest — identical for every replay of
    /// the same `(seed, config)`, serial or pooled, in any process.
    pub digest: u64,
    pub violations_total: u64,
    /// Recorded violation pins (the run may cap these; the total above
    /// counts all).
    pub violations: Vec<ViolationPin>,
    /// KPI samples this run contributes, in stable (name, value) form.
    pub kpis: Vec<(&'static str, f64)>,
    /// Named counters for the per-run report entry (fault log etc.).
    pub counters: Vec<(&'static str, u64)>,
}

/// The aggregated campaign outcome.
#[derive(Debug)]
pub struct CampaignReport {
    /// Campaign name (report filename stem, progress header).
    pub name: String,
    /// Worker threads the pool ran with.
    pub workers: usize,
    /// Whether the campaign was cancelled before completing its plan.
    pub cancelled: bool,
    /// Per-run records in *plan order*; `None` marks a run that never
    /// started (cancelled).
    pub slots: Vec<Option<RunRecord>>,
    /// Campaign wall time (measurement-only; excluded from any
    /// determinism comparison).
    pub wall_ms: f64,
}

impl CampaignReport {
    /// Runs planned.
    pub fn total(&self) -> usize {
        self.slots.len()
    }

    /// Completed records, in plan order.
    pub fn completed(&self) -> impl Iterator<Item = &RunRecord> {
        self.slots.iter().flatten()
    }

    /// Runs that never started (cancelled before a worker claimed them).
    pub fn skipped(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// The campaign verdict: every planned run completed and passed.
    /// Skipped runs fail the verdict — an aggregation that dropped work
    /// must never read as green.
    pub fn pass(&self) -> bool {
        !self.cancelled && self.skipped() == 0 && self.completed().all(|r| r.pass)
    }

    /// Total violations across every completed run.
    pub fn violations_total(&self) -> u64 {
        self.completed().map(|r| r.violations_total).sum()
    }

    /// Every recorded violation pin, in plan order.
    pub fn pins(&self) -> impl Iterator<Item = &ViolationPin> {
        self.completed().flat_map(|r| r.violations.iter())
    }

    /// KPI distributions over the completed runs' samples, in
    /// first-seen KPI order. Exact percentiles — see [`crate::stats`].
    pub fn kpi_distributions(&self) -> Vec<(&'static str, Distribution)> {
        let mut by_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for record in self.completed() {
            for (name, value) in &record.kpis {
                match by_name.iter_mut().find(|(n, _)| n == name) {
                    Some((_, samples)) => samples.push(*value),
                    None => by_name.push((name, vec![*value])),
                }
            }
        }
        by_name
            .iter()
            .filter_map(|(name, samples)| Distribution::from_samples(samples).map(|d| (*name, d)))
            .collect()
    }

    /// The machine-readable campaign report (schema documented in
    /// EXPERIMENTS.md §"Campaign reports").
    pub fn to_json(&self) -> serde_json::Value {
        let per_run: Vec<serde_json::Value> = self
            .completed()
            .map(|r| {
                let counters: Vec<(String, serde_json::Value)> = r
                    .counters
                    .iter()
                    .map(|(k, v)| (k.to_string(), serde_json::Value::UInt(*v)))
                    .collect();
                let kpis: Vec<(String, serde_json::Value)> = r
                    .kpis
                    .iter()
                    .map(|(k, v)| (k.to_string(), serde_json::Value::Float(*v)))
                    .collect();
                serde_json::json!({
                    "label": r.label.clone(),
                    "seed": r.seed,
                    "pass": r.pass,
                    "digest": format!("{:016x}", r.digest),
                    "violations": r.violations_total,
                    "counters": serde_json::Value::Object(counters),
                    "kpis": serde_json::Value::Object(kpis),
                })
            })
            .collect();
        let violations: Vec<serde_json::Value> = self
            .pins()
            .map(|p| {
                serde_json::json!({
                    "label": p.label.clone(),
                    "seed": p.seed,
                    "tti": p.tti,
                    "oracle": p.oracle.clone(),
                    "detail": p.detail.clone(),
                })
            })
            .collect();
        let kpis: Vec<(String, serde_json::Value)> = self
            .kpi_distributions()
            .iter()
            .map(|(name, d)| (name.to_string(), d.to_json()))
            .collect();
        serde_json::json!({
            "campaign": self.name.clone(),
            "schema": 1u64,
            "workers": self.workers as u64,
            "planned": self.total() as u64,
            "completed": (self.total() - self.skipped()) as u64,
            "skipped": self.skipped() as u64,
            "cancelled": self.cancelled,
            "pass": self.pass(),
            "violations_total": self.violations_total(),
            "wall_ms": self.wall_ms,
            "per_run": serde_json::Value::Array(per_run),
            "violations": serde_json::Value::Array(violations),
            "kpis": serde_json::Value::Object(kpis),
        })
    }

    /// Human-readable summary (progress footer / CI log).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let verdict = if self.pass() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "campaign '{}': {}/{} runs completed ({} skipped), workers={}, \
             violations={}, wall={:.1}s — {verdict}",
            self.name,
            self.total() - self.skipped(),
            self.total(),
            self.skipped(),
            self.workers,
            self.violations_total(),
            self.wall_ms / 1000.0,
        );
        for (name, d) in self.kpi_distributions() {
            let _ = writeln!(
                out,
                "  kpi {name}: n={} mean={:.3}±{:.3} p50={:.3} p95={:.3} p99={:.3} \
                 min={:.3} max={:.3}",
                d.n, d.mean, d.ci95, d.p50, d.p95, d.p99, d.min, d.max
            );
        }
        for pin in self.pins() {
            let _ = writeln!(out, "  {pin}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, seed: u64, pass: bool, kpi: f64) -> RunRecord {
        RunRecord {
            label: label.to_string(),
            seed,
            pass,
            digest: seed.wrapping_mul(0x9E37_79B9),
            violations_total: u64::from(!pass),
            violations: if pass {
                vec![]
            } else {
                vec![ViolationPin {
                    label: label.to_string(),
                    seed,
                    tti: 777,
                    oracle: "prb-capacity".to_string(),
                    detail: "test".to_string(),
                }]
            },
            kpis: vec![("throughput_mbps", kpi)],
            counters: vec![("agent_crashes", seed)],
        }
    }

    fn report(slots: Vec<Option<RunRecord>>) -> CampaignReport {
        CampaignReport {
            name: "unit".to_string(),
            workers: 2,
            cancelled: false,
            slots,
            wall_ms: 1.0,
        }
    }

    #[test]
    fn all_passing_runs_pass_and_aggregate_kpis() {
        let r = report(vec![
            Some(record("a", 0, true, 1.0)),
            Some(record("a", 1, true, 3.0)),
        ]);
        assert!(r.pass());
        assert_eq!(r.violations_total(), 0);
        let kpis = r.kpi_distributions();
        assert_eq!(kpis.len(), 1);
        let (name, d) = &kpis[0];
        assert_eq!(*name, "throughput_mbps");
        assert_eq!((d.n, d.min, d.max, d.mean), (2, 1.0, 3.0, 2.0));
    }

    #[test]
    fn a_single_failing_run_fails_the_campaign_and_keeps_its_pin() {
        let r = report(vec![
            Some(record("a", 0, true, 1.0)),
            Some(record("a", 3, false, 2.0)),
        ]);
        assert!(!r.pass());
        assert_eq!(r.violations_total(), 1);
        let pins: Vec<_> = r.pins().collect();
        assert_eq!(pins.len(), 1);
        assert_eq!((pins[0].seed, pins[0].tti), (3, 777));
        let json = r.to_json().to_string();
        assert!(json.contains("\"pass\":false"));
        assert!(json.contains("\"tti\":777"));
    }

    #[test]
    fn skipped_runs_never_read_as_green() {
        let r = report(vec![Some(record("a", 0, true, 1.0)), None]);
        assert!(!r.pass(), "a skipped run must fail the verdict");
        assert_eq!(r.skipped(), 1);
    }

    #[test]
    fn json_has_the_documented_top_level_fields() {
        let json = report(vec![Some(record("a", 0, true, 1.0))]).to_json();
        let text = serde_json::to_string_pretty(&json).unwrap();
        for key in [
            "\"campaign\"",
            "\"schema\"",
            "\"workers\"",
            "\"planned\"",
            "\"completed\"",
            "\"skipped\"",
            "\"cancelled\"",
            "\"pass\"",
            "\"violations_total\"",
            "\"per_run\"",
            "\"violations\"",
            "\"kpis\"",
            "\"digest\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
