//! Replay probes of the reporting path. Between measured TTIs of the
//! traced run, each live eNB's state is replayed through the public
//! functions a 1 ms statistics report crosses — compose, encode (with its
//! CRC), decode, RIB apply — each call timed as a span and its heap
//! allocations counted. The probes own their buffers and RIBs; they never
//! touch the live simulation's state.

use std::hint::black_box;
use std::time::Instant;

use flexran::agent::reports::compose_reply_into;
use flexran::controller::{Rib, RibUpdater};
use flexran::prelude::*;
use flexran::proto::messages::config::{CellConfigPb, UeConfigPb};
use flexran::proto::messages::{ConfigReply, Header, Hello};
use flexran::proto::wire::{crc32, WireWriter};
use flexran::proto::{ReportConfig, ReportFlags, ReportType, StatsReply};

use crate::alloc::allocations;
use crate::trace::Tracer;

/// One layer's probe totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cost {
    pub calls: u64,
    pub allocs: u64,
}

impl Cost {
    pub fn allocs_per_call(&self) -> f64 {
        self.allocs as f64 / self.calls.max(1) as f64
    }
}

/// Probe totals over a run.
#[derive(Debug, Default)]
pub struct Totals {
    pub compose: Cost,
    pub encode: Cost,
    pub crc: Cost,
    pub decode: Cost,
    pub rib_apply: Cost,
    /// Encoded envelope bytes, summed over probed reports.
    pub report_bytes: u64,
    pub reports: u64,
}

impl Totals {
    pub fn mean_report_bytes(&self) -> f64 {
        self.report_bytes as f64 / self.reports.max(1) as f64
    }
}

/// The probes' state for one episode: one scratch RIB per agent, primed
/// with that agent's `Hello` and `ConfigReply` as the live master's is.
pub struct Probes {
    ribs: Vec<(Rib, RibUpdater)>,
    reply: StatsReply,
    writer: WireWriter,
}

const FULL_REPORT: ReportConfig = ReportConfig {
    report_type: ReportType::Periodic { period: 1 },
    flags: ReportFlags::ALL,
};

/// The `ConfigReply` an agent sends for `enb` (the same fields the agent
/// fills in).
fn config_reply(enb: &Enb) -> ConfigReply {
    let mut reply = ConfigReply {
        enb_id: enb.config().enb_id,
        cells: Vec::new(),
        ues: Vec::new(),
    };
    for cell in enb.cell_ids() {
        if let Ok(cfg) = enb.cell_config(cell) {
            reply.cells.push(CellConfigPb::from_config(cfg));
        }
        for u in enb.ue_stats(cell).unwrap_or_default() {
            reply.ues.push(UeConfigPb {
                rnti: u.rnti.0,
                pcell: cell.0,
                transmission_mode: 1,
                slice: u.slice.0,
                ue_category: 4,
            });
        }
    }
    reply
}

/// Run `f`, recording it as a span under `parent` and adding its heap
/// allocations to `cost`.
fn timed<R>(
    tracer: &mut Tracer,
    cost: &mut Cost,
    parent: u32,
    name: &'static str,
    tti: u64,
    f: impl FnOnce() -> R,
) -> R {
    let a0 = allocations();
    let t0 = Instant::now();
    let r = black_box(f());
    let t1 = Instant::now();
    cost.allocs += allocations() - a0;
    cost.calls += 1;
    tracer.record(parent, name, tti, t0, t1);
    r
}

impl Probes {
    /// Prime one scratch RIB per eNB with its `Hello` and `ConfigReply`.
    /// An unprimed RIB declares zero cells and rejects every report.
    pub fn new(enbs: &[&Enb]) -> Self {
        let ribs = enbs
            .iter()
            .map(|enb| {
                let mut rib = Rib::new();
                let mut updater = RibUpdater::new();
                let id = enb.config().enb_id;
                let hello = FlexranMessage::Hello(Hello {
                    enb_id: id,
                    n_cells: enb.n_cells() as u32,
                    capabilities: Vec::new(),
                    applied_config: 0,
                });
                updater.apply(&mut rib, id, &hello, Tti::ZERO);
                let config = FlexranMessage::ConfigReply(config_reply(enb));
                updater.apply(&mut rib, id, &config, Tti::ZERO);
                (rib, updater)
            })
            .collect();
        Probes {
            ribs,
            reply: StatsReply::default(),
            writer: WireWriter::new(),
        }
    }

    /// Replay one full report of agent `idx` at `now`. Returns an error
    /// if the replay's own outputs are wrong.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        totals: &mut Totals,
        idx: usize,
        enb: &Enb,
        now: Tti,
    ) -> Result<(), String> {
        let tti = now.0;
        let parent = tracer.reserve();
        let t0 = Instant::now();
        let reply = &mut self.reply;
        timed(
            tracer,
            &mut totals.compose,
            parent,
            "probe.compose",
            tti,
            || compose_reply_into(enb, now, FULL_REPORT, reply),
        );
        let header = Header::with_xid(1);
        let msg = FlexranMessage::StatsReply(self.reply.clone());
        let writer = &mut self.writer;
        timed(
            tracer,
            &mut totals.encode,
            parent,
            "probe.encode",
            tti,
            || msg.encode_into(header, writer),
        );
        let bytes = self.writer.as_slice();
        timed(tracer, &mut totals.crc, parent, "probe.crc", tti, || {
            crc32(black_box(bytes))
        });
        let decoded = timed(
            tracer,
            &mut totals.decode,
            parent,
            "probe.decode",
            tti,
            || FlexranMessage::decode(bytes),
        );
        totals.report_bytes += bytes.len() as u64;
        totals.reports += 1;
        match decoded {
            Ok((h, m)) if h == header && m == msg => {}
            Ok(_) => {
                return Err(format!(
                    "agent {idx}: decode(encode(report)) differs from the report"
                ))
            }
            Err(e) => return Err(format!("agent {idx}: encoded report does not decode: {e}")),
        }
        let enb_id = enb.config().enb_id;
        let (rib, updater) = &mut self.ribs[idx];
        let rejected = updater.rejected_updates;
        timed(
            tracer,
            &mut totals.rib_apply,
            parent,
            "probe.rib_apply",
            tti,
            || updater.apply(rib, enb_id, &msg, now),
        );
        if updater.rejected_updates != rejected {
            return Err(format!(
                "agent {idx}: the RIB updater rejected a replayed report"
            ));
        }
        tracer.record_as(parent, 0, "probe.report", tti, t0, Instant::now());
        Ok(())
    }

    /// UEs in agent `idx`'s scratch RIB.
    pub fn rib_ues(&self, idx: usize, enb: EnbId) -> usize {
        self.ribs[idx]
            .0
            .agent(enb)
            .map(|a| a.cells().iter().map(|c| c.n_ues()).sum())
            .unwrap_or(0)
    }
}
