//! A cluster harness that runs one [`MemberNode`] per simulated node on top
//! of the `rain-sim` fabric, injects link and node faults, and exposes the
//! convergence / consensus queries the experiments need (E6, E7).

use std::collections::HashMap;

use rain_sim::{
    EventKind, Fault, IfaceId, Network, NodeId, SimDuration, Simulation, DEFAULT_LINK_LATENCY,
};

use crate::node::{MemberAction, MemberConfig, MemberEvent, MemberNode, TimerKind};
use crate::token::MemberMsg;

fn encode_timer(kind: TimerKind, generation: u64) -> u64 {
    let code = match kind {
        TimerKind::HoldToken => 0u64,
        TimerKind::PassTimeout => 1,
        TimerKind::Starvation => 2,
        TimerKind::ReplyWindow => 3,
    };
    (generation << 2) | code
}

fn decode_timer(token: u64) -> (TimerKind, u64) {
    let kind = match token & 0b11 {
        0 => TimerKind::HoldToken,
        1 => TimerKind::PassTimeout,
        2 => TimerKind::Starvation,
        _ => TimerKind::ReplyWindow,
    };
    (kind, token >> 2)
}

/// A running membership cluster over the simulated fabric.
pub struct MembershipCluster {
    sim: Simulation<MemberMsg>,
    nodes: HashMap<NodeId, MemberNode>,
    /// Nodes that participate from the start (others may join later).
    initial_members: Vec<NodeId>,
    /// Log of (time, node, regenerated token seq).
    regenerations: Vec<(rain_sim::SimTime, NodeId, u64)>,
    /// Log of view changes: (time, node, new view).
    view_changes: Vec<(rain_sim::SimTime, NodeId, Vec<NodeId>)>,
}

impl MembershipCluster {
    /// Create a cluster of `total_nodes` fully meshed nodes, of which the
    /// first `initial_members` participate from the start (node 0 creates
    /// the initial token). The rest can join later with
    /// [`MembershipCluster::join`].
    pub fn new(
        total_nodes: usize,
        initial_members: usize,
        config: MemberConfig,
        seed: u64,
    ) -> Self {
        assert!(initial_members >= 1 && initial_members <= total_nodes);
        let net = Network::full_mesh(total_nodes, DEFAULT_LINK_LATENCY, 0.0);
        let sim = Simulation::new(net, seed);
        let members: Vec<NodeId> = (0..initial_members).map(NodeId).collect();
        let mut nodes = HashMap::new();
        let mut cluster_actions: Vec<(NodeId, Vec<MemberAction>)> = Vec::new();
        for i in 0..total_nodes {
            let id = NodeId(i);
            let ring = if i < initial_members {
                members.clone()
            } else {
                Vec::new()
            };
            let mut node = MemberNode::new(id, ring, config);
            let actions = if i == 0 {
                node.create_initial_token()
            } else if i < initial_members {
                node.start()
            } else {
                Vec::new()
            };
            cluster_actions.push((id, actions));
            nodes.insert(id, node);
        }
        let mut cluster = MembershipCluster {
            sim,
            nodes,
            initial_members: members,
            regenerations: Vec::new(),
            view_changes: Vec::new(),
        };
        for (id, actions) in cluster_actions {
            cluster.dispatch(id, actions);
        }
        cluster
    }

    /// Access a node's protocol state.
    pub fn node(&self, id: NodeId) -> &MemberNode {
        &self.nodes[&id]
    }

    /// Mutable access to a node's protocol state (used by SNOW to attach a
    /// payload to the token while the node holds it).
    pub fn node_mut(&mut self, id: NodeId) -> &mut MemberNode {
        self.nodes.get_mut(&id).expect("unknown node")
    }

    /// The simulation (for custom fault schedules and statistics).
    pub fn sim_mut(&mut self) -> &mut Simulation<MemberMsg> {
        &mut self.sim
    }

    /// Current simulated time.
    pub fn now(&self) -> rain_sim::SimTime {
        self.sim.now()
    }

    /// All token regenerations observed so far: (time, node, new seq).
    pub fn regenerations(&self) -> &[(rain_sim::SimTime, NodeId, u64)] {
        &self.regenerations
    }

    /// All view changes observed so far.
    pub fn view_changes(&self) -> &[(rain_sim::SimTime, NodeId, Vec<NodeId>)] {
        &self.view_changes
    }

    /// The view of every live node, as (node, sorted members).
    pub fn live_views(&self) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut out = Vec::new();
        for (&id, node) in &self.nodes {
            if self.sim.network().node_up(id) && !node.view().is_empty() {
                let mut v = node.view().to_vec();
                v.sort_by_key(|n| n.0);
                out.push((id, v));
            }
        }
        out.sort_by_key(|(id, _)| id.0);
        out
    }

    /// True if every live node that has any view agrees on exactly
    /// `expected` (order-insensitive) — the paper's membership consensus.
    pub fn converged_on(&self, expected: &[NodeId]) -> bool {
        let mut want: Vec<NodeId> = expected.to_vec();
        want.sort_by_key(|n| n.0);
        let views = self.live_views();
        !views.is_empty()
            && views
                .iter()
                .filter(|(id, _)| want.contains(id))
                .all(|(_, v)| *v == want)
    }

    fn dispatch(&mut self, from: NodeId, actions: Vec<MemberAction>) {
        for action in actions {
            match action {
                MemberAction::Send { to, msg } => {
                    self.sim.send(from, to, msg);
                }
                MemberAction::ArmTimer {
                    kind,
                    generation,
                    delay,
                } => {
                    self.sim
                        .set_timer(from, delay, encode_timer(kind, generation));
                }
                MemberAction::ViewChanged { ring } => {
                    self.view_changes.push((self.sim.now(), from, ring));
                }
                MemberAction::TokenRegenerated { seq } => {
                    self.regenerations.push((self.sim.now(), from, seq));
                }
            }
        }
    }

    /// Run the protocol for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.sim.now() + duration;
        while let Some(event) = self.sim.step_until(deadline) {
            self.handle(event);
        }
    }

    fn handle(&mut self, event: rain_sim::Event<MemberMsg>) {
        match event.kind {
            EventKind::Message { from, to, msg, .. } => {
                if !self.sim.network().node_up(to) {
                    return;
                }
                let actions = self
                    .nodes
                    .get_mut(&to)
                    .expect("unknown node")
                    .step(MemberEvent::Receive { from, msg });
                self.dispatch(to, actions);
            }
            EventKind::Timer { node, token } => {
                let (kind, generation) = decode_timer(token);
                let actions = self
                    .nodes
                    .get_mut(&node)
                    .expect("unknown node")
                    .step(MemberEvent::Timer { kind, generation });
                self.dispatch(node, actions);
            }
            EventKind::Fault(_) => {}
        }
    }

    /// Break the (bidirectional) direct link between two nodes.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        let link = self.find_link(a, b);
        self.sim
            .schedule_fault(SimDuration::from_micros(1), Fault::LinkDown(link));
    }

    fn find_link(&self, a: NodeId, b: NodeId) -> rain_sim::LinkId {
        self.sim
            .network()
            .find_link(IfaceId { node: a, iface: 0 }, IfaceId { node: b, iface: 0 })
            .expect("full mesh has a direct link for every pair")
    }

    /// Crash a node.
    pub fn crash(&mut self, node: NodeId) {
        self.sim
            .schedule_fault(SimDuration::from_micros(1), Fault::NodeCrash(node));
    }

    /// Recover a crashed node. Its protocol state survives (a transient
    /// failure); its starvation timer is re-armed so it will rejoin via the
    /// 911 mechanism.
    pub fn recover(&mut self, node: NodeId) {
        self.sim
            .schedule_fault(SimDuration::from_micros(1), Fault::NodeRecover(node));
        // Give the fault a moment to apply, then restart the node's timers.
        self.run_for(SimDuration::from_micros(10));
        let actions = self.nodes.get_mut(&node).expect("unknown node").start();
        self.dispatch(node, actions);
    }

    /// Have a node outside the initial membership ask `contact` to join.
    pub fn join(&mut self, newcomer: NodeId, contact: NodeId) {
        let actions = self
            .nodes
            .get_mut(&newcomer)
            .expect("unknown node")
            .request_join(contact);
        self.dispatch(newcomer, actions);
    }

    /// The initially configured members.
    pub fn initial_members(&self) -> &[NodeId] {
        &self.initial_members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Detection;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    fn cluster(n: usize, detection: Detection) -> MembershipCluster {
        let config = MemberConfig {
            detection,
            ..MemberConfig::default()
        };
        MembershipCluster::new(n, n, config, 42)
    }

    #[test]
    fn fault_free_cluster_converges_and_circulates_the_token() {
        let mut c = cluster(4, Detection::Aggressive);
        c.run_for(SimDuration::from_secs(5));
        assert!(c.converged_on(&ids(&[0, 1, 2, 3])));
        // Everyone received the token multiple times.
        for i in 0..4 {
            assert!(c.node(NodeId(i)).tokens_received() > 5, "node {i}");
        }
        assert!(c.regenerations().is_empty(), "no spurious regenerations");
    }

    #[test]
    fn aggressive_detection_excludes_then_readmits_a_partially_disconnected_node() {
        // E6 / Fig. 9b: the link between nodes 0 (A) and 1 (B) breaks. With
        // aggressive detection node 1 is removed from the ring as soon as a
        // pass to it fails, and automatically rejoins via the 911 mechanism.
        // (The paper notes this detector "may temporarily exclude a partially
        // disconnected node"; with a *persistent* one-link failure the
        // exclusion can recur whenever the ring order puts 0 and 1 adjacent,
        // so the assertions here are about exclusion + automatic rejoin, not
        // about a final stable ring — the conservative test below covers
        // stability.)
        let mut c = cluster(4, Detection::Aggressive);
        c.run_for(SimDuration::from_secs(2));
        c.fail_link(NodeId(0), NodeId(1));
        c.run_for(SimDuration::from_secs(12));
        // Node 1 was excluded at some point after the fault...
        let exclusion_time = c
            .view_changes()
            .iter()
            .find(|(t, _, ring)| {
                t.as_secs_f64() > 2.0 && !ring.is_empty() && !ring.contains(&NodeId(1))
            })
            .map(|(t, _, _)| *t);
        let exclusion_time = exclusion_time.expect("node 1 should have been temporarily excluded");
        // ...and was re-admitted by some member afterwards (911 join).
        let rejoined = c.view_changes().iter().any(|(t, node, ring)| {
            *t > exclusion_time && *node != NodeId(1) && ring.contains(&NodeId(1))
        });
        assert!(rejoined, "node 1 should rejoin via the 911 mechanism");
        // The token itself was never lost, so no regeneration happened.
        assert!(c.regenerations().is_empty());
        // The majority side (nodes 0, 2, 3 — fully connected to each other)
        // always keeps a common view containing all three of them.
        for (id, view) in c.live_views() {
            if id != NodeId(1) {
                for member in ids(&[0, 2, 3]) {
                    assert!(view.contains(&member), "view of {id:?}: {view:?}");
                }
            }
        }
    }

    #[test]
    fn conservative_detection_never_excludes_the_partially_disconnected_node() {
        // E6 / Fig. 9c: same fault, conservative detector. Node 1 must stay
        // in every view the whole time (the ring is only reordered).
        let mut c = cluster(4, Detection::Conservative);
        c.run_for(SimDuration::from_secs(2));
        c.fail_link(NodeId(0), NodeId(1));
        c.run_for(SimDuration::from_secs(10));
        let node1_ever_excluded = c
            .view_changes()
            .iter()
            .filter(|(t, _, _)| t.as_secs_f64() > 2.0)
            .any(|(_, _, ring)| !ring.is_empty() && !ring.contains(&NodeId(1)));
        assert!(
            !node1_ever_excluded,
            "conservative detection must keep node 1"
        );
        assert!(c.converged_on(&ids(&[0, 1, 2, 3])));
    }

    #[test]
    fn crashing_the_token_holder_triggers_exactly_one_regeneration() {
        // E7: kill whichever node currently holds the token; the 911
        // arbitration lets exactly one survivor regenerate it, and the
        // survivors converge on a three-node membership.
        let mut c = cluster(4, Detection::Aggressive);
        c.run_for(SimDuration::from_secs(2));
        let holder = (0..4)
            .map(NodeId)
            .find(|&id| c.node(id).is_holder())
            .expect("someone holds the token");
        c.crash(holder);
        c.run_for(SimDuration::from_secs(20));
        assert_eq!(
            c.regenerations().len(),
            1,
            "exactly one node regenerates: {:?}",
            c.regenerations()
        );
        let survivors: Vec<NodeId> = (0..4).map(NodeId).filter(|&id| id != holder).collect();
        assert!(c.converged_on(&survivors), "views: {:?}", c.live_views());
    }

    #[test]
    fn a_new_node_joins_through_the_911_mechanism() {
        // 3 initial members, a 4th node joins later.
        let config = MemberConfig::default();
        let mut c = MembershipCluster::new(4, 3, config, 7);
        c.run_for(SimDuration::from_secs(2));
        assert!(c.converged_on(&ids(&[0, 1, 2])));
        c.join(NodeId(3), NodeId(1));
        c.run_for(SimDuration::from_secs(5));
        assert!(
            c.converged_on(&ids(&[0, 1, 2, 3])),
            "views: {:?}",
            c.live_views()
        );
    }

    #[test]
    fn a_transiently_failed_node_rejoins_automatically() {
        let mut c = cluster(4, Detection::Aggressive);
        c.run_for(SimDuration::from_secs(2));
        c.crash(NodeId(2));
        c.run_for(SimDuration::from_secs(8));
        assert!(
            c.converged_on(&ids(&[0, 1, 3])),
            "views: {:?}",
            c.live_views()
        );
        c.recover(NodeId(2));
        c.run_for(SimDuration::from_secs(10));
        assert!(
            c.converged_on(&ids(&[0, 1, 2, 3])),
            "views: {:?}",
            c.live_views()
        );
    }
}
