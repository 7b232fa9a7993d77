//! The [`RainCluster`] façade: one object that wires the RAIN building
//! blocks — interconnect topology, reliable communication, group membership,
//! and erasure-coded storage — into a single cluster the way Fig. 2 of the
//! paper stacks its software architecture.

use rain_codes::{build_code, CodeError, CodeKind, CodeSpec};
use rain_membership::{Detection, MemberConfig, MembershipCluster};
use rain_rudp::{RudpCluster, RudpConfig};
use rain_sim::{Network, NodeId, SimDuration, DEFAULT_LINK_LATENCY};
use rain_storage::{RainFs, SelectionPolicy};
use rain_topology::{construction, Topology};

/// Configuration of a [`RainCluster`].
#[derive(Debug, Clone)]
pub struct RainConfig {
    /// Number of compute/storage nodes.
    pub nodes: usize,
    /// Number of switches in the interconnect ring.
    pub switches: usize,
    /// Erasure code for the storage layer, built with
    /// [`rain_codes::build_code`].
    pub code: CodeSpec,
    /// Block size of the file layer.
    pub block_size: usize,
    /// Membership failure detection variant.
    pub detection: Detection,
    /// RUDP transport tuning.
    pub rudp: RudpConfig,
    /// Seed for all deterministic randomness.
    pub seed: u64,
}

impl Default for RainConfig {
    fn default() -> Self {
        // The paper's testbed: 10 dual-NIC nodes, 4 switches, (10, 8) storage.
        RainConfig {
            nodes: 10,
            switches: 4,
            code: CodeSpec::new(CodeKind::BCode, 10, 8),
            block_size: 4096,
            detection: Detection::Conservative,
            rudp: RudpConfig::default(),
            seed: 0xAB1,
        }
    }
}

/// A fully wired RAIN cluster: fault-tolerant interconnect + RUDP transport
/// + group membership + erasure-coded file storage.
pub struct RainCluster {
    config: RainConfig,
    topology: Topology,
    transport: RudpCluster,
    membership: MembershipCluster,
    storage: RainFs,
}

impl RainCluster {
    /// Build a cluster from a configuration.
    pub fn new(config: RainConfig) -> Result<Self, CodeError> {
        let code = build_code(config.code)?;
        let topology = construction::diameter_ring(config.nodes.max(5));
        let network =
            Network::diameter_testbed(config.nodes, config.switches, DEFAULT_LINK_LATENCY, 0.0);
        let transport = RudpCluster::new(network, config.rudp, config.seed);
        let member_config = MemberConfig {
            detection: config.detection,
            ..MemberConfig::default()
        };
        let membership =
            MembershipCluster::new(config.nodes, config.nodes, member_config, config.seed ^ 1);
        let storage = RainFs::new(code, config.block_size);
        Ok(RainCluster {
            config,
            topology,
            transport,
            membership,
            storage,
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &RainConfig {
        &self.config
    }

    /// The interconnect topology (diameter construction of Section 2.1).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The RUDP transport cluster (Section 2.5).
    pub fn transport_mut(&mut self) -> &mut RudpCluster {
        &mut self.transport
    }

    /// The group membership cluster (Section 3).
    pub fn membership_mut(&mut self) -> &mut MembershipCluster {
        &mut self.membership
    }

    /// The erasure-coded file layer (Section 4).
    pub fn storage_mut(&mut self) -> &mut RainFs {
        &mut self.storage
    }

    /// Convenience: run the membership and transport layers forward together.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.membership.run_for(duration);
        self.transport.run_for(duration);
    }

    /// Convenience: the membership view of a node, sorted by id.
    pub fn membership_view(&self, node: NodeId) -> Vec<NodeId> {
        let mut v = self.membership.node(node).view().to_vec();
        v.sort_by_key(|n| n.0);
        v
    }

    /// Convenience: store a file and read it back through the erasure-coded
    /// storage layer.
    pub fn put(&mut self, name: &str, data: &[u8]) -> Result<(), rain_storage::StorageError> {
        self.storage.write(name, data)
    }

    /// Convenience: read a file from the storage layer.
    pub fn get(&mut self, name: &str) -> Result<Vec<u8>, rain_storage::StorageError> {
        self.storage.read(name)
    }

    /// Change the storage read policy (least-loaded, nearest, first-k).
    pub fn set_read_policy(&mut self, policy: SelectionPolicy) {
        self.storage.set_policy(policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cluster_matches_the_paper_testbed() {
        let config = RainConfig::default();
        assert_eq!(config.nodes, 10);
        assert_eq!(config.switches, 4);
        let cluster = RainCluster::new(config).unwrap();
        assert_eq!(cluster.topology().nodes, 10);
    }

    #[test]
    fn cluster_converges_and_serves_storage() {
        let mut cluster = RainCluster::new(RainConfig {
            nodes: 4,
            switches: 4,
            code: CodeSpec::bcode_6_4(),
            ..RainConfig::default()
        })
        .unwrap();
        cluster.run_for(SimDuration::from_secs(2));
        let view = cluster.membership_view(NodeId(0));
        assert_eq!(view.len(), 4);
        let data = vec![3u8; 10_000];
        cluster.put("checkpoint/state", &data).unwrap();
        assert_eq!(cluster.get("checkpoint/state").unwrap(), data);
        // Storage keeps working with two failed storage nodes.
        cluster.storage_mut().fail_node(NodeId(1)).unwrap();
        cluster.storage_mut().fail_node(NodeId(5)).unwrap();
        assert_eq!(cluster.get("checkpoint/state").unwrap(), data);
    }
}
