//! Cluster harness for the leader-election protocol over the `rain-sim`
//! fabric: broadcasts announcements between mutually reachable nodes and
//! exposes the per-component leadership queries the tests and the RAINCheck
//! application need.

use std::collections::HashMap;

use rain_sim::{EventKind, Fault, Network, NodeId, SimDuration, Simulation, DEFAULT_LINK_LATENCY};

use crate::election::{Announce, ElectionConfig, ElectionNode};

/// A running election cluster.
pub struct ElectionCluster {
    sim: Simulation<Announce>,
    nodes: HashMap<NodeId, ElectionNode>,
    tick: SimDuration,
}

impl ElectionCluster {
    /// A fully-meshed cluster of `n` nodes.
    pub fn new(n: usize, config: ElectionConfig, seed: u64) -> Self {
        let net = Network::full_mesh(n, DEFAULT_LINK_LATENCY, 0.0);
        let sim = Simulation::new(net, seed);
        let nodes = (0..n)
            .map(|i| (NodeId(i), ElectionNode::new(NodeId(i), config)))
            .collect();
        ElectionCluster {
            sim,
            nodes,
            tick: SimDuration::from_millis(20),
        }
    }

    /// The simulation, for fault injection.
    pub fn sim_mut(&mut self) -> &mut Simulation<Announce> {
        &mut self.sim
    }

    /// Crash a node immediately.
    pub fn crash(&mut self, node: NodeId) {
        self.sim
            .schedule_fault(SimDuration::from_micros(1), Fault::NodeCrash(node));
    }

    /// Recover a node immediately.
    pub fn recover(&mut self, node: NodeId) {
        self.sim
            .schedule_fault(SimDuration::from_micros(1), Fault::NodeRecover(node));
    }

    /// The leader as seen by a node.
    pub fn leader_of(&self, node: NodeId) -> NodeId {
        self.nodes[&node].leader()
    }

    /// All live nodes that currently consider themselves leader.
    pub fn self_declared_leaders(&self) -> Vec<NodeId> {
        self.nodes
            .values()
            .filter(|n| self.sim.network().node_up(n.id()) && n.is_leader())
            .map(|n| n.id())
            .collect()
    }

    /// True if every live node reachable from `probe` agrees on one leader
    /// and that leader is itself live and reachable.
    pub fn component_has_unique_leader(&self, probe: NodeId) -> bool {
        let members = self.sim.network().reachable_nodes(probe);
        if members.is_empty() {
            return false;
        }
        let leaders: std::collections::BTreeSet<NodeId> =
            members.iter().map(|&m| self.nodes[&m].leader()).collect();
        leaders.len() == 1 && members.contains(leaders.iter().next().unwrap())
    }

    /// Run the protocol for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.sim.now() + duration;
        let mut next_tick = self.sim.now();
        loop {
            // Deliver announcements until the next tick boundary.
            let until = next_tick.min(deadline);
            while let Some(ev) = self.sim.step_until(until) {
                if let EventKind::Message { to, msg, .. } = ev.kind {
                    if let Some(node) = self.nodes.get_mut(&to) {
                        node.on_announce(ev.time, msg);
                    }
                }
            }
            if self.sim.now() >= deadline {
                break;
            }
            // Tick every node; broadcast any due announcements.
            let now = self.sim.now();
            let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
            for id in &ids {
                if !self.sim.network().node_up(*id) {
                    continue;
                }
                if let Some(announce) = self.nodes.get_mut(id).unwrap().on_tick(now) {
                    for peer in &ids {
                        if peer != id {
                            self.sim.send(*id, *peer, announce);
                        }
                    }
                }
            }
            next_tick = now + self.tick;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_sim::IfaceId;

    #[test]
    fn a_healthy_cluster_elects_the_smallest_id() {
        let mut c = ElectionCluster::new(5, ElectionConfig::default(), 1);
        c.run_for(SimDuration::from_secs(2));
        assert!(c.component_has_unique_leader(NodeId(3)));
        assert_eq!(c.leader_of(NodeId(4)), NodeId(0));
        assert_eq!(c.self_declared_leaders(), vec![NodeId(0)]);
    }

    #[test]
    fn the_leader_is_replaced_after_it_crashes_and_reclaims_after_recovery() {
        let mut c = ElectionCluster::new(4, ElectionConfig::default(), 2);
        c.run_for(SimDuration::from_secs(1));
        c.crash(NodeId(0));
        c.run_for(SimDuration::from_secs(2));
        assert_eq!(c.self_declared_leaders(), vec![NodeId(1)]);
        assert!(c.component_has_unique_leader(NodeId(2)));
        c.recover(NodeId(0));
        c.run_for(SimDuration::from_secs(2));
        assert_eq!(c.self_declared_leaders(), vec![NodeId(0)]);
    }

    #[test]
    fn each_side_of_a_partition_elects_its_own_leader() {
        // Cut every direct link between {0,1} and {2,3}: two components.
        let mut c = ElectionCluster::new(4, ElectionConfig::default(), 3);
        c.run_for(SimDuration::from_secs(1));
        let mut to_cut = Vec::new();
        for a in 0..2usize {
            for b in 2..4usize {
                let link = c
                    .sim_mut()
                    .network()
                    .find_link(
                        IfaceId {
                            node: NodeId(a),
                            iface: 0,
                        },
                        IfaceId {
                            node: NodeId(b),
                            iface: 0,
                        },
                    )
                    .unwrap();
                to_cut.push(link);
            }
        }
        for link in to_cut {
            c.sim_mut()
                .schedule_fault(SimDuration::from_micros(1), Fault::LinkDown(link));
        }
        c.run_for(SimDuration::from_secs(2));
        // Each component has a unique leader: 0 leads {0,1}, 2 leads {2,3}.
        assert!(c.component_has_unique_leader(NodeId(0)));
        assert!(c.component_has_unique_leader(NodeId(3)));
        assert_eq!(c.leader_of(NodeId(1)), NodeId(0));
        assert_eq!(c.leader_of(NodeId(3)), NodeId(2));
        let mut leaders = c.self_declared_leaders();
        leaders.sort_by_key(|n| n.0);
        assert_eq!(leaders, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn a_stable_cluster_does_not_churn_leadership() {
        let mut c = ElectionCluster::new(6, ElectionConfig::default(), 4);
        // Let the cluster converge, then confirm leadership never changes
        // again while everything stays healthy.
        c.run_for(SimDuration::from_secs(1));
        let settled: Vec<u64> = (0..6)
            .map(|i| c.nodes[&NodeId(i)].leader_changes())
            .collect();
        c.run_for(SimDuration::from_secs(5));
        for (i, &expected) in settled.iter().enumerate() {
            assert_eq!(
                c.nodes[&NodeId(i)].leader_changes(),
                expected,
                "node {i} churned after convergence"
            );
        }
        assert_eq!(c.self_declared_leaders(), vec![NodeId(0)]);
    }
}
