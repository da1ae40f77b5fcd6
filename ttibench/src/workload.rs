//! The three workloads: how each harness is built from a seed, how long
//! it warms up, and the end-state digest that gates correctness.

use flexran::agent::AgentConfig;
use flexran::apps::monitoring::SnapshotHandle;
use flexran::apps::{CentralizedScheduler, MonitoringApp};
use flexran::controller::App;
use flexran::harness::{SimConfig, SimHarness, UeRadioSpec};
use flexran::prelude::*;
use flexran::sim::traffic::FullBufferSource;
use flexran::stack::mac::scheduler::RoundRobinScheduler;

/// A master application with its traced-run span and counter names.
pub type AppEntry = (&'static str, &'static str, Box<dyn App>);

/// The applications a workload runs at the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Apps {
    /// None: the control plane stays silent after the agents' hellos.
    None,
    /// `MonitoringApp::new(1)`: full statistics every TTI.
    Monitoring,
    /// `CentralizedScheduler(ahead = 2, RR)` plus `MonitoringApp::new(1)`,
    /// with every agent running the `remote-stub` DL scheduler.
    Central,
}

/// One workload's fixed shape. Everything except the seed is fixed here,
/// so an episode's end state is a function of the seed alone.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub enbs: usize,
    pub ues_per_enb: usize,
    pub apps: Apps,
    /// TTIs run before the apps attach (the RLC ramp of full-buffer DL).
    /// Central scheduling attaches its apps before this: without them the
    /// `remote-stub` agents schedule nothing.
    pub warmup_ttis: u64,
    /// TTIs run after the apps attach and before measuring (subscription
    /// round trip, first reports, RIB population).
    pub settle_ttis: u64,
    /// Measured TTIs per episode.
    pub measured_ttis: u64,
    /// Worker threads asked for (`None` = serial engine). Every workload
    /// measures on the serial engine; the traced run adds episodes on the
    /// worker pool.
    pub workers: Option<usize>,
    /// `TaskManagerConfig::journal_snapshot_every` (0 = journal off).
    pub journal_snapshot_every: u64,
}

pub const DATAPLANE: Workload = Workload {
    name: "dataplane-8x64",
    enbs: 8,
    ues_per_enb: 64,
    apps: Apps::None,
    warmup_ttis: 2_000,
    settle_ttis: 0,
    measured_ttis: 3_000,
    workers: None,
    journal_snapshot_every: 0,
};

pub const REPORTING: Workload = Workload {
    name: "reporting-8x64",
    enbs: 8,
    ues_per_enb: 64,
    apps: Apps::Monitoring,
    warmup_ttis: 2_000,
    settle_ttis: 100,
    measured_ttis: 1_000,
    workers: None,
    journal_snapshot_every: 0,
};

pub const CENTRAL: Workload = Workload {
    name: "central-16x8",
    enbs: 16,
    ues_per_enb: 8,
    apps: Apps::Central,
    warmup_ttis: 1_000,
    settle_ttis: 50,
    measured_ttis: 900,
    workers: None,
    journal_snapshot_every: 1_000,
};

pub const ALL: [Workload; 3] = [DATAPLANE, REPORTING, CENTRAL];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name == name)
    }

    pub fn n_ues(&self) -> usize {
        self.enbs * self.ues_per_enb
    }

    /// Workers actually used: the asked-for count, capped at the
    /// machine's parallelism.
    pub fn workers_used(&self) -> Option<usize> {
        self.workers.map(|w| w.min(nproc()).max(1))
    }

    /// Build the harness for `seed`: single-cell eNBs,
    /// `Fading(15 dB, 4, 0.95, per-UE seed)` and full-buffer DL.
    pub fn build(&self, seed: u64) -> SimHarness {
        let mut sim = SimHarness::new(SimConfig {
            seed,
            workers: self.workers_used(),
            master: TaskManagerConfig {
                journal_snapshot_every: self.journal_snapshot_every,
                ..TaskManagerConfig::default()
            },
            ..SimConfig::default()
        });
        let agent_config = match self.apps {
            Apps::Central => AgentConfig {
                initial_dl_scheduler: Some("remote-stub".into()),
                sync_period: 1,
                ..AgentConfig::default()
            },
            Apps::None | Apps::Monitoring => AgentConfig::default(),
        };
        for e in 0..self.enbs {
            let enb = EnbId(e as u32 + 1);
            sim.add_enb(EnbConfig::single_cell(enb), agent_config.clone());
            for u in 0..self.ues_per_enb {
                let ue_seed = seed ^ ((e as u64) << 32) ^ u as u64;
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
        sim
    }

    /// The master applications, in registration order, each with the
    /// names its traced run records it under (on-cycle span, staged
    /// commands), and the monitoring app's shared snapshot.
    pub fn apps(&self) -> (Vec<AppEntry>, Option<SnapshotHandle>) {
        if self.apps == Apps::None {
            return (Vec::new(), None);
        }
        let monitoring = MonitoringApp::new(1);
        let snapshot = monitoring.snapshot_handle();
        let mut apps: Vec<AppEntry> = Vec::new();
        if self.apps == Apps::Central {
            apps.push((
                "apps.central_sched",
                "apps.dl_cmds",
                Box::new(CentralizedScheduler::new(
                    2,
                    Box::new(RoundRobinScheduler::new()),
                )),
            ));
        }
        apps.push((
            "apps.monitoring",
            "apps.monitoring_cmds",
            Box::new(monitoring),
        ));
        (apps, Some(snapshot))
    }

    /// Whether the apps attach before the warm-up (central scheduling
    /// cannot serve DL without them) or after it.
    pub fn apps_before_warmup(&self) -> bool {
        self.apps == Apps::Central
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// End-state digest: per UE, in `UeId` order, delivered DL and UL bits,
/// DL queue, CQI and HARQ transmissions — the `experiments scale` digest.
pub fn digest(sim: &SimHarness, n_ues: usize) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for id in 1..=n_ues as u32 {
        let Some(s) = sim.ue_stats(UeId(id)) else {
            fnv(&mut h, u64::MAX);
            continue;
        };
        fnv(&mut h, s.dl_delivered_bits);
        fnv(&mut h, s.ul_delivered_bits);
        fnv(&mut h, s.dl_queue_bytes.as_u64());
        fnv(&mut h, s.cqi.0 as u64);
        fnv(&mut h, s.harq_tx + s.harq_retx);
    }
    h
}

/// The committed digests: `workload seed digest` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// The committed end-of-episode digest for `workload` at `seed`, if one
/// was recorded.
pub fn committed_digest(workload: &str, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}
