//! Fast self-test of the benchmark: every workload, untraced and traced,
//! for a few TTIs (`--quick`). Checks the result line against the metric
//! lists of `BENCHMARK.json` (every named metric present, finite, with
//! its unit), that the human-readable report names all nine end-to-end
//! metrics, and that the span dump parses.
//!
//! Run with `cargo test --release --manifest-path ttibench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["dataplane-8x64", "reporting-8x64", "central-16x8"];
const END_TO_END: [&str; 9] = [
    "ttis_per_s",
    "tti_p50_us",
    "tti_p99_us",
    "setup_s",
    "peak_rss_mb",
    "allocs_per_tti",
    "ctrl_bytes_per_tti",
    "dl_goodput_mbps",
    "failed_frac",
];

/// A parsed JSON value (just enough of JSON for these files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or(format!("bad number at byte {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('?'));
                            self.i += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences whole.
                    let start = self.i - 1;
                    let len = match c {
                        0xF0..=0xFF => 4,
                        0xE0..=0xEF => 3,
                        0xC0..=0xDF => 2,
                        _ => 1,
                    };
                    self.i = start + len;
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }
}

/// `(name, unit)` of the metrics `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::str).expect("name").to_string(),
                m.get("unit").and_then(Json::str).expect("unit").to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool, out: &PathBuf) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_ttibench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick", "--out"])
        .arg(out)
        .output()
        .expect("run ttibench");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn check_result(stdout: &str, section: &str) {
    let last = stdout.lines().last().expect("some output");
    let result = parse(last).expect("the last line is JSON");
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    let attempted = result
        .get("attempted")
        .and_then(Json::num)
        .expect("attempted");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    let failed = result.get("failed").and_then(Json::num).expect("failed");
    assert!(failed >= 0.0 && failed.fract() == 0.0);
    let metrics = result.get("metrics").expect("metrics");
    let names = declared(section);
    assert_eq!(
        metrics.keys(),
        names.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        "the metrics are exactly the {section} list"
    );
    for (name, unit) in &names {
        let m = metrics.get(name).expect("listed metric");
        let v = m.get("value").and_then(Json::num).expect("numeric value");
        assert!(v.is_finite(), "{name} = {v}");
        assert_eq!(
            m.get("unit").and_then(Json::str),
            Some(unit.as_str()),
            "{name}"
        );
    }
}

#[test]
fn every_workload_reports_every_metric() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ttibench-selftest");
    for workload in WORKLOADS {
        let stdout = run(workload, false, &out);
        check_result(&stdout, "end_to_end");
        for name in END_TO_END {
            let line = stdout
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name))
                .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 3, "{line}: name, value, unit");
            assert!(fields[1].parse::<f64>().is_ok_and(f64::is_finite), "{line}");
        }

        let stdout = run(workload, true, &out);
        check_result(&stdout, "per_layer");
        let dump = out.join(format!("spans-{workload}.jsonl"));
        let text = std::fs::read_to_string(&dump).expect("span dump written");
        let mut ids = std::collections::BTreeSet::new();
        let mut parents = Vec::new();
        for line in text.lines() {
            let span = parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(
                span.keys(),
                ["id", "parent", "name", "tti", "start_ns", "end_ns"]
            );
            let field = |k: &str| span.get(k).and_then(Json::num).expect(k);
            assert!(field("end_ns") >= field("start_ns"), "{line}");
            ids.insert(field("id") as u64);
            parents.push(field("parent") as u64);
        }
        assert!(!ids.is_empty(), "{workload}: empty span dump");
        for p in parents.into_iter().filter(|&p| p != 0) {
            assert!(ids.contains(&p), "{workload}: parent span {p} missing");
        }
    }
}
