//! Configuration messages (the *Configuration* call type of the Agent
//! API): get/set configurations of eNodeB, cells and UEs.

use flexran_types::config::{Bandwidth, CellConfig, DuplexMode, TransmissionMode, UeConfig};
use flexran_types::hash::Fnv1a;
use flexran_types::ids::{CellId, EnbId, Rnti, SliceId};
use flexran_types::units::Dbm;
use flexran_types::Result;

use crate::wire::{WireReader, WireWriter};

/// What configuration the master asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConfigScope {
    #[default]
    Enb,
    Cell,
    Ue,
}

/// Configuration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfigRequest {
    pub scope: ConfigScope,
    /// Restrict to one cell (for `Cell`/`Ue` scopes); `None` = all.
    pub cell: Option<CellId>,
}

impl ConfigRequest {
    pub(crate) fn encode(&self, w: &mut WireWriter) {
        w.uint(
            1,
            match self.scope {
                ConfigScope::Enb => 0,
                ConfigScope::Cell => 1,
                ConfigScope::Ue => 2,
            },
        );
        if let Some(c) = self.cell {
            // +1 so cell 0 survives default-skipping.
            w.uint(2, c.0 as u64 + 1);
        }
    }

    pub(crate) fn decode(data: &[u8]) -> Result<ConfigRequest> {
        let mut m = ConfigRequest::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => {
                    m.scope = match v.as_u64()? {
                        1 => ConfigScope::Cell,
                        2 => ConfigScope::Ue,
                        _ => ConfigScope::Enb,
                    }
                }
                2 => m.cell = Some(CellId((v.as_u64()? - 1) as u16)),
                _ => {}
            }
        }
        Ok(m)
    }
}

/// On-wire cell configuration. All-scalar, so `Copy`: the RIB updater
/// folds these by value without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellConfigPb {
    pub cell_id: u16,
    pub band: u16,
    pub fdd: bool,
    pub dl_prbs: u8,
    pub ul_prbs: u8,
    pub antenna_ports: u8,
    pub pdcch_symbols: u8,
    /// Transmit power in centi-dBm (signed).
    pub tx_power_cdbm: i64,
    pub max_dl_dcis: u8,
    pub max_ul_grants: u8,
}

impl CellConfigPb {
    pub fn from_config(c: &CellConfig) -> Self {
        CellConfigPb {
            cell_id: c.cell_id.0,
            band: c.band,
            fdd: c.duplex == DuplexMode::Fdd,
            dl_prbs: c.dl_bandwidth.n_prb(),
            ul_prbs: c.ul_bandwidth.n_prb(),
            antenna_ports: c.n_antenna_ports,
            pdcch_symbols: c.pdcch_symbols,
            tx_power_cdbm: (c.tx_power.0 * 100.0).round() as i64,
            max_dl_dcis: c.max_dl_dcis_per_tti,
            max_ul_grants: c.max_ul_grants_per_tti,
        }
    }

    pub fn to_config(&self) -> Result<CellConfig> {
        let cfg = CellConfig {
            cell_id: CellId(self.cell_id),
            band: self.band,
            duplex: if self.fdd {
                DuplexMode::Fdd
            } else {
                DuplexMode::Tdd
            },
            dl_bandwidth: Bandwidth::from_n_prb(self.dl_prbs)?,
            ul_bandwidth: Bandwidth::from_n_prb(self.ul_prbs)?,
            n_antenna_ports: self.antenna_ports,
            tx_power: Dbm(self.tx_power_cdbm as f64 / 100.0),
            pdcch_symbols: self.pdcch_symbols,
            max_dl_dcis_per_tti: self.max_dl_dcis,
            max_ul_grants_per_tti: self.max_ul_grants,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    fn encode(&self, w: &mut WireWriter) {
        w.uint(1, self.cell_id as u64 + 1);
        w.uint(2, self.band as u64);
        w.uint(3, self.fdd as u64);
        w.uint(4, self.dl_prbs as u64);
        w.uint(5, self.ul_prbs as u64);
        w.uint(6, self.antenna_ports as u64);
        w.uint(7, self.pdcch_symbols as u64);
        w.sint(8, self.tx_power_cdbm);
        w.uint(9, self.max_dl_dcis as u64);
        w.uint(10, self.max_ul_grants as u64);
    }

    fn decode(data: &[u8]) -> Result<CellConfigPb> {
        let mut m = CellConfigPb {
            cell_id: 0,
            band: 0,
            fdd: false,
            dl_prbs: 0,
            ul_prbs: 0,
            antenna_ports: 0,
            pdcch_symbols: 0,
            tx_power_cdbm: 0,
            max_dl_dcis: 0,
            max_ul_grants: 0,
        };
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.cell_id = (v.as_u64()?.saturating_sub(1)) as u16,
                2 => m.band = v.as_u64()? as u16,
                3 => m.fdd = v.as_u64()? != 0,
                4 => m.dl_prbs = v.as_u64()? as u8,
                5 => m.ul_prbs = v.as_u64()? as u8,
                6 => m.antenna_ports = v.as_u64()? as u8,
                7 => m.pdcch_symbols = v.as_u64()? as u8,
                8 => m.tx_power_cdbm = v.as_i64_zigzag()?,
                9 => m.max_dl_dcis = v.as_u64()? as u8,
                10 => m.max_ul_grants = v.as_u64()? as u8,
                _ => {}
            }
        }
        Ok(m)
    }
}

/// On-wire UE configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UeConfigPb {
    pub rnti: u16,
    pub pcell: u16,
    pub transmission_mode: u8,
    pub slice: u8,
    pub ue_category: u8,
}

impl UeConfigPb {
    pub fn from_config(c: &UeConfig) -> Self {
        UeConfigPb {
            rnti: c.rnti.0,
            pcell: c.pcell.0,
            transmission_mode: c.transmission_mode.0,
            slice: c.slice.0,
            ue_category: c.ue_category,
        }
    }

    pub fn to_config(&self) -> Result<UeConfig> {
        Ok(UeConfig {
            rnti: Rnti(self.rnti),
            pcell: CellId(self.pcell),
            transmission_mode: TransmissionMode::new(self.transmission_mode.max(1))?,
            slice: SliceId(self.slice),
            ue_category: self.ue_category,
            ambr_dl: None,
        })
    }

    fn encode(&self, w: &mut WireWriter) {
        w.uint(1, self.rnti as u64);
        w.uint(2, self.pcell as u64 + 1);
        w.uint(3, self.transmission_mode as u64);
        w.uint(4, self.slice as u64);
        w.uint(5, self.ue_category as u64);
    }

    fn decode(data: &[u8]) -> Result<UeConfigPb> {
        let mut m = UeConfigPb {
            rnti: 0,
            pcell: 0,
            transmission_mode: 1,
            slice: 0,
            ue_category: 4,
        };
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.rnti = v.as_u64()? as u16,
                2 => m.pcell = (v.as_u64()?.saturating_sub(1)) as u16,
                3 => m.transmission_mode = v.as_u64()? as u8,
                4 => m.slice = v.as_u64()? as u8,
                5 => m.ue_category = v.as_u64()? as u8,
                _ => {}
            }
        }
        Ok(m)
    }
}

/// Configuration reply: the eNodeB's cells and attached UEs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConfigReply {
    pub enb_id: EnbId,
    pub cells: Vec<CellConfigPb>,
    pub ues: Vec<UeConfigPb>,
}

impl ConfigReply {
    pub(crate) fn encode(&self, w: &mut WireWriter) {
        w.uint(1, self.enb_id.0 as u64);
        for c in &self.cells {
            w.message(2, |m| c.encode(m));
        }
        for u in &self.ues {
            w.message(3, |m| u.encode(m));
        }
    }

    pub(crate) fn decode(data: &[u8]) -> Result<ConfigReply> {
        let mut m = ConfigReply::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.enb_id = EnbId(v.as_u32()?),
                2 => m.cells.push(CellConfigPb::decode(v.as_bytes()?)?),
                3 => m.ues.push(UeConfigPb::decode(v.as_bytes()?)?),
                _ => {}
            }
        }
        Ok(m)
    }
}

/// A versioned fleet configuration bundle: everything one agent needs to
/// run a given control-plane configuration — the policy document, the VSF
/// to select, and the scheduler behaviour to activate — signed by the
/// master so agents can verify provenance before applying (§4.3.1's
/// code-signing requirement extended to whole configurations).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConfigBundlePb {
    /// Monotonic fleet-wide version issued by the rollout controller.
    pub version: u64,
    /// Policy reconfiguration document (the Fig. 3 YAML subset).
    pub policy_yaml: String,
    /// VSF registry key to (re)install before activating, empty = none.
    pub vsf_key: String,
    /// DL scheduler behaviour to activate, empty = keep current.
    pub scheduler: String,
    /// Keyed FNV-1a over (version, policy, vsf, scheduler).
    pub signature: u64,
}

impl ConfigBundlePb {
    /// Build a bundle and sign it (the master is the signing authority;
    /// the shared-constant key is the model's stand-in for PKI, matching
    /// the VSF push signing scheme).
    pub fn signed(version: u64, policy_yaml: String, vsf_key: String, scheduler: String) -> Self {
        let mut b = ConfigBundlePb {
            version,
            policy_yaml,
            vsf_key,
            scheduler,
            signature: 0,
        };
        b.signature = b.compute_signature();
        b
    }

    /// The keyed FNV-1a signature over (version, policy, vsf, scheduler).
    pub fn compute_signature(&self) -> u64 {
        let mut h = Fnv1a::keyed(crate::SIGNING_KEY);
        h.write(&self.version.to_be_bytes());
        h.write(self.policy_yaml.as_bytes());
        h.write(&[0]);
        h.write(self.vsf_key.as_bytes());
        h.write(&[0]);
        h.write(self.scheduler.as_bytes());
        h.finish()
    }

    /// Whether the carried signature matches the content. Agents refuse
    /// to apply a bundle that fails this check.
    pub fn verify(&self) -> bool {
        self.signature != 0 && self.signature == self.compute_signature()
    }

    pub(crate) fn encode(&self, w: &mut WireWriter) {
        w.uint(1, self.version);
        w.string(2, &self.policy_yaml);
        w.string(3, &self.vsf_key);
        w.string(4, &self.scheduler);
        w.uint(5, self.signature);
    }

    pub(crate) fn decode(data: &[u8]) -> Result<ConfigBundlePb> {
        let mut m = ConfigBundlePb::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.version = v.as_u64()?,
                2 => m.policy_yaml = v.as_str()?.to_string(),
                3 => m.vsf_key = v.as_str()?.to_string(),
                4 => m.scheduler = v.as_str()?.to_string(),
                5 => m.signature = v.as_u64()?,
                _ => {}
            }
        }
        Ok(m)
    }
}

/// Master → agent: apply this configuration bundle transactionally.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConfigBundlePush {
    pub enb_id: EnbId,
    pub bundle: ConfigBundlePb,
}

impl ConfigBundlePush {
    pub(crate) fn encode(&self, w: &mut WireWriter) {
        w.uint(1, self.enb_id.0 as u64);
        w.message(2, |m| self.bundle.encode(m));
    }

    pub(crate) fn decode(data: &[u8]) -> Result<ConfigBundlePush> {
        let mut m = ConfigBundlePush::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.enb_id = EnbId(v.as_u32()?),
                2 => m.bundle = ConfigBundlePb::decode(v.as_bytes()?)?,
                _ => {}
            }
        }
        Ok(m)
    }
}

/// Agent → master: outcome of a bundle apply. Carries the signature back
/// so the master can attribute the ack to the exact bundle it pushed
/// (retried pushes after a shed frame dedupe on (agent, signature)).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConfigBundleAck {
    pub enb_id: EnbId,
    pub version: u64,
    pub signature: u64,
    pub ok: bool,
    pub error: String,
}

impl ConfigBundleAck {
    pub(crate) fn encode(&self, w: &mut WireWriter) {
        w.uint(1, self.enb_id.0 as u64);
        w.uint(2, self.version);
        w.uint(3, self.signature);
        w.uint(4, self.ok as u64);
        w.string(5, &self.error);
    }

    pub(crate) fn decode(data: &[u8]) -> Result<ConfigBundleAck> {
        let mut m = ConfigBundleAck::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.enb_id = EnbId(v.as_u32()?),
                2 => m.version = v.as_u64()?,
                3 => m.signature = v.as_u64()?,
                4 => m.ok = v.as_u64()? != 0,
                5 => m.error = v.as_str()?.to_string(),
                _ => {}
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{FlexranMessage, Header};

    #[test]
    fn bundle_signing_detects_tampering() {
        let b = ConfigBundlePb::signed(3, "mac:\n".into(), "max-cqi".into(), "max-cqi".into());
        assert!(b.verify());
        let mut tampered = b.clone();
        tampered.scheduler = "round-robin".into();
        assert!(!tampered.verify());
        let mut unsigned = ConfigBundlePb::signed(3, String::new(), String::new(), String::new());
        unsigned.signature = 0;
        assert!(!unsigned.verify(), "unsigned bundles never verify");
    }

    #[test]
    fn cell_config_roundtrips_through_wire_and_types() {
        let cfg = CellConfig::paper_default(CellId(0));
        let pb = CellConfigPb::from_config(&cfg);
        let msg = FlexranMessage::ConfigReply(ConfigReply {
            enb_id: EnbId(3),
            cells: vec![pb],
            ues: vec![],
        });
        let bytes = msg.encode(Header::default());
        let (_, got) = FlexranMessage::decode(&bytes).unwrap();
        let FlexranMessage::ConfigReply(rep) = got else {
            panic!("wrong variant");
        };
        let restored = rep.cells[0].to_config().unwrap();
        assert_eq!(restored, cfg);
    }

    #[test]
    fn ue_config_roundtrip() {
        let cfg = UeConfig::new(Rnti(0x100), CellId(0));
        let pb = UeConfigPb::from_config(&cfg);
        let msg = FlexranMessage::ConfigReply(ConfigReply {
            enb_id: EnbId(1),
            cells: vec![],
            ues: vec![pb],
        });
        let bytes = msg.encode(Header::default());
        let (_, got) = FlexranMessage::decode(&bytes).unwrap();
        let FlexranMessage::ConfigReply(rep) = got else {
            panic!("wrong variant");
        };
        let restored = rep.ues[0].to_config().unwrap();
        assert_eq!(restored.rnti, cfg.rnti);
        assert_eq!(restored.slice, cfg.slice);
    }

    #[test]
    fn request_scope_roundtrip() {
        for (scope, cell) in [
            (ConfigScope::Enb, None),
            (ConfigScope::Cell, Some(CellId(0))),
            (ConfigScope::Ue, Some(CellId(2))),
        ] {
            let msg = FlexranMessage::ConfigRequest(ConfigRequest { scope, cell });
            let bytes = msg.encode(Header::default());
            let (_, got) = FlexranMessage::decode(&bytes).unwrap();
            assert_eq!(got, msg);
        }
    }

    #[test]
    fn negative_tx_power_survives() {
        let mut cfg = CellConfig::paper_default(CellId(1));
        cfg.tx_power = Dbm(-10.5);
        let pb = CellConfigPb::from_config(&cfg);
        let mut w = WireWriter::new();
        pb.encode(&mut w);
        let got = CellConfigPb::decode(&w.finish()).unwrap();
        assert_eq!(got.tx_power_cdbm, -1050);
        assert_eq!(got.to_config().unwrap().tx_power, Dbm(-10.5));
    }
}
