//! The platform builder: one place to configure a FlexRAN deployment.
//!
//! [`Platform`] collects the knobs that must agree across layers — the
//! heartbeat period the agent probes with, the liveness timeout both
//! sides declare a session dead after, the reconnect backoff a real-TCP
//! agent redials with — and derives the per-component configurations
//! ([`AgentConfig`], [`TaskManagerConfig`], [`BackoffConfig`]) plus a
//! ready [`SimHarness`] for virtual-time runs.
//!
//! Every knob defaults to the pre-resilience behaviour (no heartbeats,
//! no failover, default backoff), so `Platform::new().build_sim()` is
//! equivalent to `SimHarness::new(SimConfig::default())`.

use flexran_agent::{AgentConfig, LivenessConfig};
use flexran_controller::TaskManagerConfig;
use flexran_proto::transport::BackoffConfig;
use flexran_sim::link::LinkConfig;

use crate::harness::{SimConfig, SimHarness};

/// Builder for a coherently-configured FlexRAN platform.
#[derive(Debug, Clone)]
pub struct Platform {
    heartbeat_period: u64,
    liveness_timeout: u64,
    degraded_after: u64,
    fallback_dl_scheduler: String,
    reconnect_backoff: BackoffConfig,
    master: TaskManagerConfig,
    agent: AgentConfig,
    uplink: LinkConfig,
    downlink: LinkConfig,
    seed: u64,
    workers: Option<usize>,
}

impl Default for Platform {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform {
    pub fn new() -> Self {
        Platform {
            heartbeat_period: 0,
            liveness_timeout: 0,
            degraded_after: 0,
            fallback_dl_scheduler: "round-robin".into(),
            reconnect_backoff: BackoffConfig::default(),
            master: TaskManagerConfig::default(),
            agent: AgentConfig::default(),
            uplink: LinkConfig::ideal(),
            downlink: LinkConfig::ideal(),
            seed: 1,
            workers: None,
        }
    }

    /// Agent heartbeat probe period (ms). 0 disables probing.
    pub fn heartbeat_period(mut self, ms: u64) -> Self {
        self.heartbeat_period = ms;
        self
    }

    /// Silence (ms) after which each side declares the session dead:
    /// the agent fails over to local control, the master marks the RIB
    /// subtree stale. 0 disables failover.
    pub fn liveness_timeout(mut self, ms: u64) -> Self {
        self.liveness_timeout = ms;
        self
    }

    /// Silence (ms) after which the agent enters `Degraded` (default:
    /// half the liveness timeout).
    pub fn degraded_after(mut self, ms: u64) -> Self {
        self.degraded_after = ms;
        self
    }

    /// Downlink VSF the agent activates on failover.
    pub fn fallback_dl_scheduler(mut self, name: impl Into<String>) -> Self {
        self.fallback_dl_scheduler = name.into();
        self
    }

    /// Redial schedule for real-TCP agents
    /// ([`flexran_proto::transport::ReconnectingTcpTransport`]).
    pub fn reconnect_backoff(mut self, backoff: BackoffConfig) -> Self {
        self.reconnect_backoff = backoff;
        self
    }

    /// Base master configuration (liveness timeout is overlaid on top).
    pub fn master_config(mut self, config: TaskManagerConfig) -> Self {
        self.master = config;
        self
    }

    /// Base agent configuration (liveness knobs are overlaid on top).
    pub fn agent_config(mut self, config: AgentConfig) -> Self {
        self.agent = config;
        self
    }

    /// Control-channel links for simulated deployments.
    pub fn links(mut self, uplink: LinkConfig, downlink: LinkConfig) -> Self {
        self.uplink = uplink;
        self.downlink = downlink;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads of the harness's TTI engine, and with them the
    /// master's RIB shard count (one shard per worker). `None` (default)
    /// is fully serial with one shard; results are bit-identical either
    /// way. Apps never see shard boundaries; the northbound facade
    /// routes by agent id.
    pub fn workers(mut self, workers: Option<usize>) -> Self {
        self.workers = workers;
        self
    }

    /// The derived master configuration.
    pub fn build_master_config(&self) -> TaskManagerConfig {
        TaskManagerConfig {
            liveness_timeout: self.liveness_timeout,
            ..self.master
        }
    }

    /// The derived agent configuration.
    pub fn build_agent_config(&self) -> AgentConfig {
        AgentConfig {
            liveness: LivenessConfig {
                heartbeat_period: self.heartbeat_period,
                liveness_timeout: self.liveness_timeout,
                degraded_after: self.degraded_after,
                fallback_dl_scheduler: self.fallback_dl_scheduler.clone(),
            },
            ..self.agent.clone()
        }
    }

    /// The redial schedule for deployment-mode agents.
    pub fn backoff(&self) -> BackoffConfig {
        self.reconnect_backoff
    }

    /// A virtual-time harness carrying these settings. eNodeBs added with
    /// [`SimHarness::add_enb`] still pass their own [`AgentConfig`]; use
    /// [`Platform::build_agent_config`] for it to inherit the platform's
    /// liveness knobs.
    pub fn build_sim(&self) -> SimHarness {
        SimHarness::new(SimConfig {
            uplink: self.uplink,
            downlink: self.downlink,
            master: self.build_master_config(),
            seed: self.seed,
            workers: self.workers,
            tti_budget_ns: self.build_master_config().tti_budget_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_pre_resilience_behaviour() {
        let p = Platform::new();
        let agent = p.build_agent_config();
        assert!(!agent.liveness.enabled());
        assert_eq!(agent.liveness.heartbeat_period, 0);
        assert_eq!(p.build_master_config().liveness_timeout, 0);
        assert_eq!(p.build_sim().master().n_shards(), 1);
    }

    #[test]
    fn workers_set_the_master_shard_count() {
        for (workers, shards) in [(None, 1), (Some(2), 2), (Some(4), 4)] {
            let mut sim = Platform::new().workers(workers).build_sim();
            assert_eq!(sim.master().n_shards(), shards, "workers={workers:?}");
            // A restarted master keeps the count.
            sim.kill_master();
            sim.restart_master().unwrap();
            assert_eq!(sim.master().n_shards(), shards, "workers={workers:?}");
        }
    }

    #[test]
    fn knobs_flow_into_both_sides() {
        let p = Platform::new()
            .heartbeat_period(10)
            .liveness_timeout(40)
            .degraded_after(15)
            .fallback_dl_scheduler("proportional-fair")
            .reconnect_backoff(BackoffConfig {
                initial_ms: 20,
                ..BackoffConfig::default()
            });
        let agent = p.build_agent_config();
        assert_eq!(agent.liveness.heartbeat_period, 10);
        assert_eq!(agent.liveness.liveness_timeout, 40);
        assert_eq!(agent.liveness.degraded_after, 15);
        assert_eq!(agent.liveness.fallback_dl_scheduler, "proportional-fair");
        assert_eq!(p.build_master_config().liveness_timeout, 40);
        assert_eq!(p.backoff().initial_ms, 20);
        let sim = p.build_sim();
        assert_eq!(sim.now().0, 0);
    }
}
