//! Differential tests of the in-place decode against the fresh decode.
//!
//! `FlexranMessage::decode_into` refills a `StatsReply` slot in place,
//! reusing its UE entries and their vectors; `decode` is the same routine
//! on an empty slot. Whatever a slot held before — a longer report, more
//! RLC entries, activated secondary cells, another message kind, or the
//! leftovers of a decode that failed halfway — the in-place decode must
//! return exactly what the fresh decode returns, `Ok` and `Err` alike.

use proptest::prelude::*;

use flexran_proto::messages::stats::{CellReport, RlcReport, StatsReply, UeReport};
use flexran_proto::messages::{FlexranMessage, Header, Hello};
use flexran_proto::wire::{crc32, WireWriter};
use flexran_types::ids::EnbId;

/// SplitMix64: a deterministic stream of field values from one seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value that is 0 about a quarter of the time, so skip-if-zero
    /// fields are both present and absent across cases.
    fn maybe(&mut self) -> u64 {
        let v = self.next();
        if v & 3 == 0 {
            0
        } else {
            v >> 2
        }
    }

    fn vec(&mut self, len: usize) -> Vec<u64> {
        (0..len).map(|_| self.maybe() % 100_000).collect()
    }
}

/// A UE report with every field drawn from `seed`; the vector lengths
/// are the caller's.
fn ue_report(seed: u64, n_rlc: usize, n_scells: usize, n_sub: usize) -> UeReport {
    let mut m = Mix(seed);
    UeReport {
        rnti: m.maybe() as u16,
        cell: (m.next() % 3) as u16,
        connected: m.next() & 1 == 1,
        slice: m.maybe() as u8,
        priority_group: m.maybe() as u8,
        wideband_cqi: (m.maybe() % 16) as u8,
        subband_cqi: m.vec(n_sub),
        bsr: m.vec(n_sub % 5),
        phr_db: m.maybe() as i64 - (1 << 40),
        rlc: (0..n_rlc)
            .map(|_| RlcReport {
                lcid: (m.next() % 11) as u8,
                tx_queue_bytes: m.maybe(),
                hol_delay_ms: m.maybe() % 1000,
                status_pdu_bytes: m.maybe() as u32,
            })
            .collect(),
        pending_mac_ces: m.maybe() as u32,
        harq_states: m.vec(n_sub % 9),
        ul_sinr_decidb: -(m.maybe() as i64 % 700),
        ul_subband_sinr: m.vec(n_sub),
        rsrp_decidbm: -(m.maybe() as i64 % 1400),
        rsrq_decidb: m.maybe() as i64 % 200 - 100,
        pdcp_tx_bytes: m.maybe(),
        pdcp_tx_sn: m.maybe() as u32,
        dl_tbs_bits_total: m.maybe(),
        ul_tbs_bits_total: m.maybe(),
        harq_tx: m.maybe(),
        harq_retx: m.maybe(),
        avg_rate_bps: m.maybe(),
        last_mcs: (m.maybe() % 29) as u8,
        cqi_timestamp: m.maybe(),
        subband_cqi_cw1: m.vec(n_sub / 2),
        harq_rounds: m.vec(n_sub % 9),
        tbs_per_process: m.vec(n_sub % 9),
        pusch_power_decidbm: m.maybe() as i64 % 300 - 100,
        pucch_power_decidbm: m.maybe() as i64 % 300 - 200,
        pdcp_rx_bytes: m.maybe(),
        pdcp_rx_sn: m.maybe() as u32,
        active_scells: m.vec(n_scells),
    }
}

/// A stats reply of `n_ues` UEs whose shapes vary with `seed`.
fn stats_reply(seed: u64, n_ues: usize, max_rlc: usize, max_scells: usize) -> StatsReply {
    let mut m = Mix(seed ^ 0x5EED);
    StatsReply {
        enb_id: EnbId(m.maybe() as u32),
        tti: m.maybe(),
        cells: (0..m.next() % 3)
            .map(|c| CellReport {
                cell_id: c as u16,
                noise_interference_decidbm: -(m.maybe() as i64 % 1200),
                dl_prbs_used_total: m.maybe(),
                ..CellReport::default()
            })
            .collect(),
        ues: (0..n_ues)
            .map(|_| {
                ue_report(
                    m.next(),
                    (m.next() % (max_rlc as u64 + 1)) as usize,
                    (m.next() % (max_scells as u64 + 1)) as usize,
                    (m.next() % 30) as usize,
                )
            })
            .collect(),
    }
}

fn stats(reply: StatsReply) -> FlexranMessage {
    FlexranMessage::StatsReply(reply)
}

/// Reseal an envelope body with a valid integrity trailer, so a mangled
/// body reaches the field decoders instead of failing the CRC.
fn reseal(body: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.fixed32_always(2, crc32(body));
    let mut out = body.to_vec();
    out.extend_from_slice(w.as_slice());
    out
}

/// A frame derived from `msg`: intact, bit-flipped, truncated, or with a
/// byte of its body overwritten and the trailer recomputed (valid CRC,
/// malformed fields — fails partway through the decode).
fn frame(msg: &FlexranMessage, xid: u32, mangle: u64) -> Vec<u8> {
    let bytes = msg.encode(Header::with_xid(xid)).to_vec();
    let mut m = Mix(mangle);
    let pos = (m.next() % bytes.len() as u64) as usize;
    match mangle % 4 {
        0 => bytes,
        1 => {
            let mut b = bytes;
            b[pos] ^= 1 << (m.next() % 8);
            b
        }
        2 => bytes[..pos].to_vec(),
        _ => {
            let body_len = bytes.len() - 5;
            let mut body = bytes[..body_len].to_vec();
            if body_len > 0 {
                let at = (m.next() % body_len as u64) as usize;
                body[at] = m.next() as u8;
            }
            reseal(&body)
        }
    }
}

/// The dirty slots a receive slot can hold when the next frame arrives.
fn dirty_slots(seed: u64) -> Vec<FlexranMessage> {
    let longer = stats(stats_reply(seed, 40, 2, 0));
    let more_rlc = stats(stats_reply(seed ^ 1, 6, 9, 0));
    let scells = stats(stats_reply(seed ^ 2, 6, 2, 4));
    let other_kind = FlexranMessage::Hello(Hello {
        enb_id: EnbId(9),
        n_cells: 3,
        capabilities: vec!["dl_scheduling".into()],
        applied_config: 7,
    });
    // The leftovers of failed decodes: a big reply refilled by mangled
    // (resealed) frames of another reply until one fails partway.
    let mut failed = stats(stats_reply(seed ^ 3, 30, 4, 3));
    let donor = stats(stats_reply(seed ^ 4, 12, 3, 2));
    for k in 0..16u64 {
        let f = frame(&donor, 1, (seed ^ k) | 3);
        if FlexranMessage::decode_into(&f, &mut failed).is_err() {
            break;
        }
    }
    vec![
        FlexranMessage::default(),
        longer,
        more_rlc,
        scells,
        other_kind,
        failed,
    ]
}

fn assert_matches_fresh(frame: &[u8], slots: Vec<FlexranMessage>) {
    let fresh = FlexranMessage::decode(frame);
    for mut slot in slots {
        let got = FlexranMessage::decode_into(frame, &mut slot);
        match (&fresh, got) {
            (Ok((h, msg)), Ok(h2)) => {
                assert_eq!(*h, h2);
                assert_eq!(msg, &slot);
            }
            (Err(e), Err(e2)) => assert_eq!(e, &e2),
            (fresh, got) => panic!(
                "fresh decode gave {:?} but the in-place decode {:?}",
                fresh.as_ref().map(|(h, _)| h),
                got
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Stats frames of every size, intact or mangled, over every dirty
    /// slot kind.
    #[test]
    fn decode_into_dirty_slot_equals_fresh_decode(
        seed in any::<u64>(),
        n_ues in 0usize..48,
        xid in any::<u32>(),
        mangle in any::<u64>(),
    ) {
        let msg = stats(stats_reply(seed, n_ues, 3, 2));
        let f = frame(&msg, xid, mangle);
        assert_matches_fresh(&f, dirty_slots(seed.rotate_left(17)));
        if mangle.is_multiple_of(4) {
            // An intact frame round-trips.
            let mut slot = FlexranMessage::default();
            FlexranMessage::decode_into(&f, &mut slot).unwrap();
            prop_assert_eq!(slot, msg);
        }
    }

    /// Non-stats frames replace a stats slot wholesale.
    #[test]
    fn decode_into_other_kinds_equals_fresh_decode(
        seed in any::<u64>(),
        mangle in any::<u64>(),
    ) {
        let msg = FlexranMessage::Hello(Hello {
            enb_id: EnbId(seed as u32),
            n_cells: (seed >> 32) as u32 % 4,
            capabilities: vec!["vsf_dsl".into(); (seed % 3) as usize],
            applied_config: seed >> 7,
        });
        assert_matches_fresh(&frame(&msg, 3, mangle), dirty_slots(seed));
    }

    /// Arbitrary bytes, sealed or not, behave the same either way.
    #[test]
    fn decode_into_garbage_equals_fresh_decode(
        body in proptest::collection::vec(any::<u8>(), 0..300),
        sealed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let f = if sealed { reseal(&body) } else { body };
        assert_matches_fresh(&f, dirty_slots(seed));
    }

    /// `UeReport::clone_from` (which reuses the target's vectors) equals
    /// a plain clone, whatever the target held.
    #[test]
    fn ue_report_clone_from_equals_clone(
        src_seed in any::<u64>(),
        dst_seed in any::<u64>(),
        shape in (0usize..6, 0usize..4, 0usize..30),
        dst_shape in (0usize..6, 0usize..4, 0usize..30),
    ) {
        let src = ue_report(src_seed, shape.0, shape.1, shape.2);
        let mut dst = ue_report(dst_seed, dst_shape.0, dst_shape.1, dst_shape.2);
        dst.clone_from(&src);
        prop_assert_eq!(&dst, &src.clone());
        prop_assert_eq!(dst, src);
    }
}
