//! ttibench — the whole-TTI benchmark of the FlexRAN reproduction.
//!
//! One run builds a workload from `--seed`, then repeats episodes until
//! `--seconds` have passed. An episode builds the harness, warms it up
//! (the set-up, timed), then drives `SimHarness::step` in a closed loop
//! for a fixed number of TTIs: each TTI starts when the previous one
//! returns. Control links are the in-process `SimTransport` in virtual
//! time; no sockets. Every episode ends at the same TTI, so its end-state
//! digest must equal the committed digest for the workload and seed.
//!
//! `--trace 0` times each `step` with one `Instant` pair and prints the
//! end-to-end metrics. `--trace 1` splits the time in three: untraced
//! episodes (the reference for the tracing overhead), the same episodes
//! on the worker pool (which must reproduce the serial digest), and
//! traced episodes: spans around each step, the per-phase split from
//! `SimHarness::phase_timings()`, timed app wrappers, and replay probes
//! of the reporting path. It prints the per-layer metrics and writes the
//! spans out at exit.
//!
//! ```text
//! ttibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--out <dir>] [--quick] [--print-digest]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod hist;
mod probe;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use flexran::controller::CycleAccounting;
use flexran::harness::{PhaseTimings, SimHarness};
use flexran::prelude::*;
use flexran::proto::transport::FRAME_OVERHEAD_BYTES;
use flexran::proto::{ByteCounters, MessageCategory, Transport};

use crate::hist::{median, StepTimes};
use crate::probe::{Probes, Totals};
use crate::trace::{SharedTracer, Span, TimedApp, Tracer};
use crate::workload::{committed_digest, digest, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Traced TTIs between two rounds of replay probes.
const PROBE_EVERY: u64 = 100;
/// End-to-end metrics printed above the result line but left out of it,
/// because they read 0 on some workloads: control bytes on the silent
/// control plane (the traced run's `link.*` metrics carry them), and
/// `failed_frac` on every healthy run (the result's `failed` carries it).
const PRINTED_ONLY: [&str; 2] = ["ctrl_bytes_per_tti", "failed_frac"];
/// Workers asked for by the traced run's fan-out episodes (capped at the
/// machine's parallelism).
const FANOUT_WORKERS: usize = 2;
/// Episodes a run makes at least, whatever `--seconds` says.
const MIN_EPISODES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    quick: bool,
    print_digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let (mut quick, mut print_digest) = (false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            "--quick" => quick = true,
            "--print-digest" => print_digest = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let mut workload = workload.ok_or("--workload is required")?;
    if quick {
        // Smoke shape for the self-test: a few TTIs of every phase.
        workload.warmup_ttis = 40;
        workload.settle_ttis = workload.settle_ttis.min(20);
        workload.measured_ttis = 60;
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(0.0).max(0.0),
        trace: trace.unwrap_or(false),
        out,
        quick,
        print_digest,
    })
}

/// Cumulative counters read between TTIs; a measured window is the
/// difference of two of these.
#[derive(Clone, Copy, Default)]
struct Counters {
    /// Agent → master, as counted by the agents' transports.
    up: ByteCounters,
    /// Master → agent, as received by the agents' transports.
    down: ByteCounters,
    shed: u64,
    rx_msgs: u64,
    command_errors: u64,
    missed_deadlines: u64,
    dl_bits: u64,
    harq_tx: u64,
    harq_retx: u64,
    timings: PhaseTimings,
    accounting: CycleAccounting,
}

fn read_counters(sim: &SimHarness, w: &Workload) -> Counters {
    let mut c = Counters {
        timings: sim.phase_timings(),
        accounting: sim.master().accounting(),
        ..Counters::default()
    };
    for enb in sim.enb_ids() {
        let agent = sim.agent(enb).expect("listed eNB");
        let t = agent.transport();
        c.up.merge(&t.tx_counters());
        c.down.merge(&t.rx_counters());
        for cat in MessageCategory::ALL {
            c.shed += t.shed_from_by_category(cat) + t.shed_towards_by_category(cat);
        }
        let ac = agent.counters();
        c.rx_msgs += ac.rx_messages;
        c.command_errors += ac.command_errors;
        if let Ok(cs) = agent.enb().cell_stats(CellId(0)) {
            c.missed_deadlines += cs.missed_deadlines;
        }
    }
    for id in 1..=w.n_ues() as u32 {
        if let Some(s) = sim.ue_stats(UeId(id)) {
            c.dl_bits += s.dl_delivered_bits;
            c.harq_tx += s.harq_tx;
            c.harq_retx += s.harq_retx;
        }
    }
    c
}

/// What one measured window did, as differences of [`Counters`].
#[derive(Clone, Copy, Default)]
struct Window {
    ttis: u64,
    up: ByteCounters,
    down: ByteCounters,
    shed: u64,
    rx_msgs: u64,
    command_errors: u64,
    missed_deadlines: u64,
    dl_bits: u64,
    harq_tx: u64,
    harq_retx: u64,
    timings: PhaseTimings,
    cycles: u64,
    rib_ns: u64,
    apps_ns: u64,
}

impl Window {
    fn between(a: &Counters, b: &Counters, ttis: u64) -> Window {
        Window {
            ttis,
            up: b.up.since(&a.up),
            down: b.down.since(&a.down),
            shed: b.shed - a.shed,
            rx_msgs: b.rx_msgs - a.rx_msgs,
            command_errors: b.command_errors - a.command_errors,
            missed_deadlines: b.missed_deadlines - a.missed_deadlines,
            dl_bits: b.dl_bits - a.dl_bits,
            harq_tx: b.harq_tx - a.harq_tx,
            harq_retx: b.harq_retx - a.harq_retx,
            timings: PhaseTimings {
                steps: b.timings.steps - a.timings.steps,
                serial_front_ns: b.timings.serial_front_ns - a.timings.serial_front_ns,
                phase_a_ns: b.timings.phase_a_ns - a.timings.phase_a_ns,
                coupling_ns: b.timings.coupling_ns - a.timings.coupling_ns,
                phase_b_ns: b.timings.phase_b_ns - a.timings.phase_b_ns,
                merge_ns: b.timings.merge_ns - a.timings.merge_ns,
            },
            cycles: b.accounting.cycles - a.accounting.cycles,
            rib_ns: (b.accounting.rib_total - a.accounting.rib_total).as_nanos() as u64,
            apps_ns: (b.accounting.apps_total - a.accounting.apps_total).as_nanos() as u64,
        }
    }

    fn add(&mut self, o: &Window) {
        self.ttis += o.ttis;
        self.up.merge(&o.up);
        self.down.merge(&o.down);
        self.shed += o.shed;
        self.rx_msgs += o.rx_msgs;
        self.command_errors += o.command_errors;
        self.missed_deadlines += o.missed_deadlines;
        self.dl_bits += o.dl_bits;
        self.harq_tx += o.harq_tx;
        self.harq_retx += o.harq_retx;
        self.timings.steps += o.timings.steps;
        self.timings.serial_front_ns += o.timings.serial_front_ns;
        self.timings.phase_a_ns += o.timings.phase_a_ns;
        self.timings.coupling_ns += o.timings.coupling_ns;
        self.timings.phase_b_ns += o.timings.phase_b_ns;
        self.timings.merge_ns += o.timings.merge_ns;
        self.cycles += o.cycles;
        self.rib_ns += o.rib_ns;
        self.apps_ns += o.apps_ns;
    }

    fn stats_sent(&self) -> u64 {
        self.up.messages(MessageCategory::StatsReporting)
    }

    fn commands_sent(&self) -> u64 {
        self.down.messages(MessageCategory::Commands)
    }

    /// Operations attempted, as `failed_frac` counts them: statistics
    /// reports sent plus DL commands sent.
    fn attempted_ops(&self) -> u64 {
        self.stats_sent() + self.commands_sent()
    }

    /// Failed operations: reports shed on the link, DL decisions that
    /// missed their subframe, and commands the agents could not apply.
    fn failed_ops(&self) -> u64 {
        self.shed + self.missed_deadlines + self.command_errors
    }
}

/// State of the traced part of a run.
struct Tracing {
    tracer: SharedTracer,
    probes: Totals,
    in_flight_max: usize,
    cycle_p99_ns: Vec<u64>,
    rib_heap_bytes: Vec<usize>,
    journal_bytes_per_tti: Vec<f64>,
}

impl Tracing {
    fn new() -> Self {
        Tracing {
            tracer: Tracer::shared(),
            probes: Totals::default(),
            in_flight_max: 0,
            cycle_p99_ns: Vec::new(),
            rib_heap_bytes: Vec::new(),
            journal_bytes_per_tti: Vec::new(),
        }
    }
}

/// One episode's results.
struct Episode {
    setup_s: f64,
    wall_s: f64,
    allocs: u64,
    window: Window,
    digest: u64,
    errors: Vec<String>,
}

/// Build, warm up and attach: the timed set-up of one episode.
fn setup(
    w: &Workload,
    seed: u64,
    tracing: Option<&Tracing>,
) -> (
    SimHarness,
    Option<flexran::apps::monitoring::SnapshotHandle>,
) {
    let mut sim = w.build(seed);
    let (apps, snapshot) = w.apps();
    let before = w.apps_before_warmup();
    if !before {
        sim.run(w.warmup_ttis);
    }
    for (span, staged, app) in apps {
        let app: Box<dyn App> = match tracing {
            Some(t) => Box::new(TimedApp::new(app, span, staged, t.tracer.clone())),
            None => app,
        };
        sim.master_mut().register_app(app);
    }
    if before {
        sim.run(w.warmup_ttis);
    }
    sim.run(w.settle_ttis);
    sim.reset_budget();
    (sim, snapshot)
}

/// Agent → master plus master → agent messages queued on the links now.
fn in_flight(sim: &SimHarness) -> usize {
    sim.enb_ids()
        .into_iter()
        .map(|enb| {
            let t = sim.agent(enb).expect("listed eNB").transport();
            t.in_flight_towards()
                + MessageCategory::ALL
                    .iter()
                    .map(|&c| t.in_flight_from_by_category(c))
                    .sum::<usize>()
        })
        .sum()
}

/// One traced `step`: a root span for the TTI, the harness's own phase
/// split as its children, and the timed apps under the master cycle.
fn traced_step(sim: &mut SimHarness, tracer: &SharedTracer) -> u64 {
    let tti = sim.now().0 + 1;
    let (root, master) = {
        let mut t = tracer.lock().expect("tracer lock poisoned");
        let ids = (t.reserve(), t.reserve());
        t.current_parent = ids.1;
        t.current_tti = tti;
        ids
    };
    let p0 = sim.phase_timings();
    let t0 = Instant::now();
    sim.step();
    let t1 = Instant::now();
    let p1 = sim.phase_timings();
    let mut t = tracer.lock().expect("tracer lock poisoned");
    t.record_as(root, 0, "tti", tti, t0, t1);
    let mut at = t.ns(t0);
    let phases = [
        ("core.master_cycle", p1.serial_front_ns - p0.serial_front_ns),
        ("core.phase_a", p1.phase_a_ns - p0.phase_a_ns),
        ("core.coupling", p1.coupling_ns - p0.coupling_ns),
        ("core.phase_b", p1.phase_b_ns - p0.phase_b_ns),
        ("core.merge", p1.merge_ns - p0.merge_ns),
    ];
    for (i, (name, dur)) in phases.into_iter().enumerate() {
        let id = if i == 0 { master } else { t.reserve() };
        t.push(Span {
            id,
            parent: root,
            name,
            tti,
            start_ns: at,
            end_ns: at + dur,
        });
        at += dur;
    }
    (t1 - t0).as_nanos() as u64
}

fn run_episode(
    w: &Workload,
    seed: u64,
    expected: &mut Option<u64>,
    steps: &mut StepTimes,
    mut tracing: Option<&mut Tracing>,
) -> Episode {
    let t_setup = Instant::now();
    let (mut sim, snapshot) = setup(w, seed, tracing.as_deref());
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut errors = Vec::new();
    let start = read_counters(&sim, w);
    let journal_start = sim.master().journal_bytes().map(|j| j.len());
    let compactions_start = sim.master().journal_compactions();
    let mut probes = tracing.as_ref().map(|_| {
        let enbs: Vec<&Enb> = sim
            .enb_ids()
            .into_iter()
            .map(|e| sim.agent(e).expect("listed eNB").enb())
            .collect();
        Probes::new(&enbs)
    });

    let a0 = alloc::allocations();
    let t0 = Instant::now();
    match tracing.as_deref_mut() {
        None => {
            for _ in 0..w.measured_ttis {
                let t = Instant::now();
                sim.step();
                steps.record(t.elapsed().as_nanos() as u64);
            }
        }
        Some(tr) => {
            let probes = probes.as_mut().expect("probes exist when tracing");
            tr.tracer.lock().expect("tracer lock poisoned").enabled = true;
            for i in 0..w.measured_ttis {
                steps.record(traced_step(&mut sim, &tr.tracer));
                tr.in_flight_max = tr.in_flight_max.max(in_flight(&sim));
                if (i + 1) % PROBE_EVERY == 0 || i + 1 == w.measured_ttis {
                    let mut t = tr.tracer.lock().expect("tracer lock poisoned");
                    for (idx, enb) in sim.enb_ids().into_iter().enumerate() {
                        let live = sim.agent(enb).expect("listed eNB").enb();
                        let now = sim.now();
                        if let Err(e) = probes.replay(&mut t, &mut tr.probes, idx, live, now) {
                            errors.push(e);
                        }
                    }
                }
            }
            tr.tracer.lock().expect("tracer lock poisoned").enabled = false;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    steps.end_episode();
    let allocs = alloc::allocations() - a0;
    let end = read_counters(&sim, w);
    let window = Window::between(&start, &end, w.measured_ttis);
    let digest = digest(&sim, w.n_ues());

    // Correctness of the episode's outputs.
    match expected {
        Some(d) if *d != digest => errors.push(format!(
            "end-state digest {digest:016x} differs from the expected {d:016x}"
        )),
        Some(_) => {}
        None => *expected = Some(digest),
    }
    let connected = (1..=w.n_ues() as u32)
        .filter(|&id| sim.ue_stats(UeId(id)).is_some_and(|s| s.connected))
        .count();
    if connected != w.n_ues() {
        errors.push(format!("{connected} of {} UEs connected", w.n_ues()));
    }
    if window.dl_bits == 0 {
        errors.push("no DL bits delivered in the measured window".into());
    }
    if let Some(snap) = &snapshot {
        let s = snap.read();
        if s.updated != sim.now() || s.ues.len() != w.n_ues() {
            errors.push(format!(
                "monitoring snapshot at {:?} holds {} UEs; expected {:?} and {}",
                s.updated,
                s.ues.len(),
                sim.now(),
                w.n_ues()
            ));
        }
        let expected_reports = (w.enbs as u64) * w.measured_ttis;
        if window.stats_sent() != expected_reports {
            errors.push(format!(
                "{} stats reports sent, 1 ms reporting implies {expected_reports}",
                window.stats_sent()
            ));
        }
    }
    if w.apps == workload::Apps::Central && window.commands_sent() == 0 {
        errors.push("centralized scheduler sent no DL commands".into());
    }

    if let (Some(tr), Some(probes)) = (tracing, probes) {
        finish_traced_episode(w, &sim, &window, tr, &probes, &mut errors);
        let b = sim.master().budget_stats();
        tr.cycle_p99_ns.push(b.p99_ns);
        tr.rib_heap_bytes.push(sim.master().view().heap_bytes());
        if let (Some(j0), Some(j1)) = (journal_start, sim.master().journal_bytes().map(|j| j.len()))
        {
            if compactions_start == sim.master().journal_compactions() {
                tr.journal_bytes_per_tti
                    .push((j1 - j0) as f64 / w.measured_ttis as f64);
            } else {
                errors.push("journal compacted inside the measured window".into());
            }
        }
    }
    Episode {
        setup_s,
        wall_s,
        allocs,
        window,
        digest,
        errors,
    }
}

/// Checks of the replay probes against the live run.
fn finish_traced_episode(
    w: &Workload,
    sim: &SimHarness,
    window: &Window,
    tr: &Tracing,
    probes: &Probes,
    errors: &mut Vec<String>,
) {
    let view = sim.master().view();
    for (idx, enb) in sim.enb_ids().into_iter().enumerate() {
        let scratch = probes.rib_ues(idx, enb);
        let attached = sim
            .agent(enb)
            .expect("listed eNB")
            .enb()
            .n_ues(CellId(0))
            .unwrap_or(0);
        if scratch != attached {
            errors.push(format!(
                "probe RIB of {enb} holds {scratch} UEs, the eNB {attached}"
            ));
        }
        if w.apps != workload::Apps::None {
            let live: usize = view
                .agent(enb)
                .map(|a| a.cells().iter().map(|c| c.n_ues()).sum())
                .unwrap_or(0);
            if scratch != live {
                errors.push(format!(
                    "probe RIB of {enb} holds {scratch} UEs, the live RIB {live}"
                ));
            }
        }
    }
    let stats = window.stats_sent();
    if stats > 0 {
        let link = window.up.bytes(MessageCategory::StatsReporting) as f64 / stats as f64;
        let probed = tr.probes.mean_report_bytes() + FRAME_OVERHEAD_BYTES as f64;
        if (link - probed).abs() > 0.02 * link {
            errors.push(format!(
                "probed report is {probed:.0} B framed, the link counts {link:.0} B per stats message"
            ));
        }
    }
}

/// Episodes until `seconds` have passed (at least `min` of them).
fn run_episodes(
    w: &Workload,
    seed: u64,
    seconds: f64,
    min: usize,
    expected: &mut Option<u64>,
    steps: &mut StepTimes,
    mut tracing: Option<&mut Tracing>,
) -> Vec<Episode> {
    let t0 = Instant::now();
    let mut episodes = Vec::new();
    while episodes.len() < min || t0.elapsed().as_secs_f64() < seconds {
        episodes.push(run_episode(
            w,
            seed,
            expected,
            steps,
            tracing.as_deref_mut(),
        ));
    }
    episodes
}

fn ttis_per_s(episodes: &[Episode], ttis: u64) -> f64 {
    median(
        &mut episodes
            .iter()
            .map(|e| ttis as f64 / e.wall_s)
            .collect::<Vec<_>>(),
    )
}

fn total_window(episodes: &[Episode]) -> Window {
    let mut w = Window::default();
    for e in episodes {
        w.add(&e.window);
    }
    w
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of untraced episodes.
fn end_to_end(w: &Workload, episodes: &[Episode], steps: &StepTimes) -> (Vec<Metric>, Vec<String>) {
    let win = total_window(episodes);
    let ttis = win.ttis as f64;
    let p99 = steps.p99();
    let allocs: u64 = episodes.iter().map(|e| e.allocs).sum();
    let ctrl = win.up.total_bytes() + win.down.total_bytes();
    let attempted = win.attempted_ops();
    let failed_frac = if attempted == 0 {
        0.0
    } else {
        win.failed_ops() as f64 / attempted as f64
    };
    let metrics = vec![
        m("ttis_per_s", ttis_per_s(episodes, w.measured_ttis), "TTI/s"),
        m("tti_p50_us", steps.all.percentile(50.0) / 1e3, "us"),
        m("tti_p99_us", p99 / 1e3, "us"),
        m(
            "setup_s",
            median(&mut episodes.iter().map(|e| e.setup_s).collect::<Vec<_>>()),
            "s",
        ),
        m("peak_rss_mb", alloc::peak_rss_mb().unwrap_or(0.0), "MB"),
        m("allocs_per_tti", allocs as f64 / ttis, "count"),
        m("ctrl_bytes_per_tti", ctrl as f64 / ttis, "B"),
        // Delivered bits per simulated millisecond = kb/s; /1e3 = Mb/s.
        m("dl_goodput_mbps", win.dl_bits as f64 / ttis / 1e3, "Mb/s"),
        m("failed_frac", failed_frac, "ratio"),
    ];
    let rates: Vec<String> = episodes
        .iter()
        .map(|e| format!("{:.0}", w.measured_ttis as f64 / e.wall_s))
        .collect();
    let notes = vec![
        format!("TTI/s by episode: {}", rates.join(" ")),
        format!(
            "{} step samples over {} episodes; {} samples above the 1 ms budget",
            steps.all.len(),
            episodes.len(),
            steps.all.count_above(1e6)
        ),
        format!(
            "p99 is the median over blocks of >= 1000 steps (pooled p99 {:.1} us); \
             block p99 us: {}",
            steps.all.percentile(99.0) / 1e3,
            steps
                .block_p99s()
                .iter()
                .map(|v| format!("{:.0}", v / 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "operations: {} stats reports + {} DL commands attempted, {} failed \
             ({} shed, {} missed deadlines, {} command errors)",
            win.stats_sent(),
            win.commands_sent(),
            win.failed_ops(),
            win.shed,
            win.missed_deadlines,
            win.command_errors
        ),
    ];
    (metrics, notes)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    w: &Workload,
    untraced: &[Episode],
    fanned: &[Episode],
    traced: &[Episode],
    tr: &Tracing,
) -> (Vec<Metric>, Vec<String>) {
    let win = total_window(traced);
    let ttis = win.ttis.max(1) as f64;
    let us_per_tti = |ns: u64| ns as f64 / 1e3 / ttis;
    let t = tr.tracer.lock().expect("tracer lock poisoned");
    let span_us = |name: &str| {
        let (n, ns) = t.total(name);
        ns as f64 / 1e3 / n.max(1) as f64
    };
    let apps_us = |name: &str| t.total(name).1 as f64 / 1e3 / ttis;
    let mean = |v: &[f64]| v.iter().fold(0.0, |a, b| a + b) / v.len().max(1) as f64;
    let untraced_tps = ttis_per_s(untraced, w.measured_ttis);
    let traced_tps = ttis_per_s(traced, w.measured_ttis);
    let untraced_step_us = {
        let wall: f64 = untraced.iter().map(|e| e.wall_s).sum();
        wall * 1e6 / (untraced.len() as f64 * w.measured_ttis as f64)
    };
    let p = &win.timings;
    let core_sum = p.serial_front_ns + p.phase_a_ns + p.coupling_ns + p.phase_b_ns + p.merge_ns;
    let replay_us = span_us("probe.compose")
        + span_us("probe.encode")
        + span_us("probe.decode")
        + span_us("probe.rib_apply");
    let metrics = vec![
        m("core.master_cycle_us", us_per_tti(p.serial_front_ns), "us"),
        m("core.phase_a_us", us_per_tti(p.phase_a_ns), "us"),
        m("core.coupling_us", us_per_tti(p.coupling_ns), "us"),
        m("core.phase_b_us", us_per_tti(p.phase_b_ns), "us"),
        m("core.merge_us", us_per_tti(p.merge_ns), "us"),
        m(
            "core.fanout_speedup",
            ttis_per_s(fanned, w.measured_ttis) / untraced_tps,
            "ratio",
        ),
        m(
            "controller.rib_slot_us",
            win.rib_ns as f64 / 1e3 / win.cycles.max(1) as f64,
            "us",
        ),
        m(
            "controller.apps_slot_us",
            win.apps_ns as f64 / 1e3 / win.cycles.max(1) as f64,
            "us",
        ),
        m(
            "controller.cycle_p99_us",
            median(
                &mut tr
                    .cycle_p99_ns
                    .iter()
                    .map(|&n| n as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ),
            "us",
        ),
        m(
            "controller.journal_bytes_per_tti",
            mean(&tr.journal_bytes_per_tti),
            "B",
        ),
        m(
            "controller.rib_heap_kb",
            mean(
                &tr.rib_heap_bytes
                    .iter()
                    .map(|&b| b as f64)
                    .collect::<Vec<_>>(),
            ) / 1024.0,
            "KB",
        ),
        m("controller.rib_apply_us", span_us("probe.rib_apply"), "us"),
        m(
            "controller.rib_apply_allocs",
            tr.probes.rib_apply.allocs_per_call(),
            "count",
        ),
        m("apps.monitoring_us", apps_us("apps.monitoring"), "us"),
        m("apps.central_sched_us", apps_us("apps.central_sched"), "us"),
        m(
            "apps.dl_cmds_per_tti",
            t.counted("apps.dl_cmds") as f64 / ttis,
            "count",
        ),
        m("agent.compose_us", span_us("probe.compose"), "us"),
        m(
            "agent.compose_allocs",
            tr.probes.compose.allocs_per_call(),
            "count",
        ),
        m("agent.rx_msgs_per_tti", win.rx_msgs as f64 / ttis, "count"),
        m("agent.command_errors", win.command_errors as f64, "count"),
        m("proto.encode_us", span_us("probe.encode"), "us"),
        m(
            "proto.encode_allocs",
            tr.probes.encode.allocs_per_call(),
            "count",
        ),
        m("proto.crc_us", span_us("probe.crc"), "us"),
        m("proto.decode_us", span_us("probe.decode"), "us"),
        m(
            "proto.decode_allocs",
            tr.probes.decode.allocs_per_call(),
            "count",
        ),
        m("proto.report_bytes", tr.probes.mean_report_bytes(), "B"),
        m(
            "link.up_msgs_per_tti",
            MessageCategory::ALL
                .iter()
                .map(|&c| win.up.messages(c))
                .sum::<u64>() as f64
                / ttis,
            "count",
        ),
        m(
            "link.up_bytes_per_tti",
            win.up.total_bytes() as f64 / ttis,
            "B",
        ),
        m(
            "link.down_msgs_per_tti",
            MessageCategory::ALL
                .iter()
                .map(|&c| win.down.messages(c))
                .sum::<u64>() as f64
                / ttis,
            "count",
        ),
        m(
            "link.down_bytes_per_tti",
            win.down.total_bytes() as f64 / ttis,
            "B",
        ),
        m("link.shed", win.shed as f64, "count"),
        m("link.in_flight_max", tr.in_flight_max as f64, "count"),
        m(
            "stack.harq_retx_ratio",
            win.harq_retx as f64 / (win.harq_tx + win.harq_retx).max(1) as f64,
            "ratio",
        ),
        m(
            "stack.missed_deadlines",
            win.missed_deadlines as f64,
            "count",
        ),
        m(
            "trace.overhead_pct",
            (untraced_tps - traced_tps) / untraced_tps * 100.0,
            "%",
        ),
        m("trace.core_sum_us", us_per_tti(core_sum), "us"),
        m("trace.untraced_step_us", untraced_step_us, "us"),
        m("trace.replay_x_agents_us", replay_us * w.enbs as f64, "us"),
    ];
    let notes = vec![format!(
        "replay (compose + encode + decode + RIB apply) x {} agents = {:.1} us per TTI, \
         next to phase B + master cycle = {:.1} us per TTI; core phases sum to {:.1} us \
         against an untraced mean step of {:.1} us",
        w.enbs,
        replay_us * w.enbs as f64,
        us_per_tti(p.phase_b_ns + p.serial_front_ns),
        us_per_tti(core_sum),
        untraced_step_us
    )];
    (metrics, notes)
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, mt) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            mt.name, mt.value, mt.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ttibench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    if args.print_digest {
        let mut sim = setup(&w, args.seed, None).0;
        sim.run(w.measured_ttis);
        println!("{} {} {:016x}", w.name, args.seed, digest(&sim, w.n_ues()));
        return;
    }
    let mut expected = if args.quick {
        None
    } else {
        committed_digest(w.name, args.seed)
    };
    let committed = expected;
    println!(
        "# ttibench {} seed {}: closed loop (each TTI starts when the previous step returns), \
         in-process virtual-time SimTransport links; nproc {}, serial engine (the traced \
         run's fan-out episodes use {} workers); rustc {}",
        w.name,
        args.seed,
        workload::nproc(),
        Workload {
            workers: Some(FANOUT_WORKERS),
            ..w
        }
        .workers_used()
        .unwrap_or(1),
        env!("TTIBENCH_RUSTC"),
    );

    let mut steps = StepTimes::new();
    let (metrics, notes, episodes) = if args.trace {
        let third = args.seconds / 3.0;
        let untraced = run_episodes(&w, args.seed, third, 1, &mut expected, &mut steps, None);
        // The same episodes on the worker pool: they must reproduce the
        // serial digest, and their speed against the serial episodes is
        // the fan-out's cost or gain.
        let fanned = run_episodes(
            &Workload {
                workers: Some(FANOUT_WORKERS),
                ..w
            },
            args.seed,
            third,
            1,
            &mut expected,
            &mut StepTimes::new(),
            None,
        );
        let mut tr = Tracing::new();
        let traced = run_episodes(
            &w,
            args.seed,
            third,
            1,
            &mut expected,
            &mut StepTimes::new(),
            Some(&mut tr),
        );
        let (metrics, notes) = per_layer(&w, &untraced, &fanned, &traced, &tr);
        let t = tr.tracer.lock().expect("tracer lock poisoned");
        let _ = std::fs::create_dir_all(&args.out);
        // One file per workload, overwritten by the next traced run, so
        // repeated runs do not pile up dumps in the checkout.
        let path = args.out.join(format!("spans-{}.jsonl", w.name));
        let mut notes = notes;
        match t.dump(&path) {
            Ok(n) => notes.push(format!(
                "{n} spans written to {} ({} more counted, not kept)",
                path.display(),
                t.dropped()
            )),
            Err(e) => {
                eprintln!("ttibench: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        drop(t);
        let mut all = untraced;
        all.extend(fanned);
        all.extend(traced);
        (metrics, notes, all)
    } else {
        let episodes = run_episodes(
            &w,
            args.seed,
            args.seconds,
            MIN_EPISODES,
            &mut expected,
            &mut steps,
            None,
        );
        let (metrics, notes) = end_to_end(&w, &episodes, &steps);
        (metrics, notes, episodes)
    };

    for mt in &metrics {
        println!("{:<36} {:>14.4} {}", mt.name, mt.value, mt.unit);
    }
    for n in &notes {
        println!("# {n}");
    }
    let errors: Vec<&String> = episodes.iter().flat_map(|e| &e.errors).collect();
    for e in &errors {
        println!("# error: {e}");
    }
    println!(
        "# digest {:016x} ({}), {} episodes",
        episodes[0].digest,
        match committed {
            Some(d) => format!("committed: {d:016x}"),
            None => "no committed digest for this seed: episodes checked against each other".into(),
        },
        episodes.len()
    );
    let win = total_window(&episodes);
    let correct = errors.is_empty();
    // The JSON counts every measured TTI as an attempted operation, next
    // to the reports and commands `failed_frac` counts.
    let attempted = win.ttis + win.attempted_ops();
    let reported: Vec<Metric> = metrics
        .into_iter()
        .filter(|mt| !PRINTED_ONLY.contains(&mt.name))
        .collect();
    println!(
        "{}",
        json_result(correct, attempted, win.failed_ops(), &reported)
    );
    if !correct {
        std::process::exit(1);
    }
}
