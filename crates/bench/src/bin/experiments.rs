//! The experiment runner: regenerates the paper's tables and figures.
//!
//! ```sh
//! # everything, full durations (writes target/experiments/):
//! cargo run --release -p flexran-bench --bin experiments -- all
//! # one experiment:
//! cargo run --release -p flexran-bench --bin experiments -- fig9
//! # smoke mode:
//! cargo run --release -p flexran-bench --bin experiments -- all --quick
//! ```

use std::time::Instant;

use flexran_bench::experiments::{self, ALL};
use flexran_bench::ExpContext;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_dir = "target/experiments".to_string();
    let mut seeds_override = None;
    let mut ttis_override = None;
    let mut ids: Vec<String> = Vec::new();
    // A proper little parser: flags that take a value consume it, so a
    // value like "8" is never mistaken for an experiment id.
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
                .clone()
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_dir = value("--out"),
            "--seeds" => {
                seeds_override = Some(value("--seeds").parse().expect("--seeds takes a number"))
            }
            "--ttis" => {
                ttis_override = Some(value("--ttis").parse().expect("--ttis takes a number"))
            }
            other if other.starts_with("--") => {
                panic!("unknown flag '{other}' (flags: --quick --out DIR --seeds N --ttis N)")
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL.iter().map(|s| s.to_string()).collect();
    }
    // Deduplicate shared runners (fig7a/fig7b, fig10a/fig10b run together).
    let runner_key = |id: &str| -> String {
        match id {
            "fig7a" | "fig7b" => "fig7".to_string(),
            "fig10a" | "fig10b" => "fig10".to_string(),
            other => other.to_string(),
        }
    };
    let mut seen_runners = std::collections::HashSet::new();

    let mut ctx = ExpContext::new(quick, &out_dir);
    ctx.seeds_override = seeds_override;
    ctx.ttis_override = ttis_override;
    println!(
        "FlexRAN experiment suite — mode: {}, output: {out_dir}/",
        if quick { "quick" } else { "full" }
    );
    let mut report = String::from("# FlexRAN experiment report\n\n");
    report.push_str(&format!(
        "Mode: {}. Every experiment regenerates one table/figure of the paper's evaluation; see EXPERIMENTS.md for the paper-vs-measured discussion.\n\n",
        if quick { "quick (reduced durations)" } else { "full" }
    ));
    let mut json_results = Vec::new();
    let t_all = Instant::now();
    for id in &ids {
        if !seen_runners.insert(runner_key(id)) {
            continue;
        }
        let t0 = Instant::now();
        let results = experiments::run(id, &ctx);
        let dt = t0.elapsed();
        for res in results {
            println!("{}", res.to_text());
            report.push_str(&res.to_markdown());
            json_results.push(res.to_json());
        }
        println!("[{id} done in {dt:.1?}]\n");
    }
    std::fs::write(format!("{out_dir}/report.md"), &report).expect("write report");
    let json = serde_json::json!({
        "quick": quick,
        "results": json_results,
    });
    std::fs::write(
        format!("{out_dir}/results.json"),
        serde_json::to_string_pretty(&json).expect("serialize"),
    )
    .expect("write results.json");
    println!(
        "all experiments done in {:.1?}; report at {out_dir}/report.md",
        t_all.elapsed()
    );
}
