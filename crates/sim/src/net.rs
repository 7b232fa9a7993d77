//! The simulated cluster fabric: nodes with one or more network interfaces
//! joined by direct point-to-point links — a software stand-in for the
//! paper's testbed network.
//!
//! Nodes and links can be failed and healed independently, which is how the
//! experiments inject the node and link faults the store's fault-tolerance
//! claims are about, and a node can be slowed down without failing (a gray
//! failure). Interfaces do not relay traffic, so a functioning path between
//! two nodes is one healthy link between an interface of each.

use std::fmt;

use crate::time::SimDuration;

/// Identifier of a compute/storage node.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub usize);

/// One network interface ("bundled interface") of a node.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct IfaceId {
    /// The owning node.
    pub node: NodeId,
    /// Interface index within the node (0-based).
    pub iface: usize,
}

/// Identifier of a link.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct LinkId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for IfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node, self.iface)
    }
}

/// Static description plus mutable health of a link.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Link {
    /// This link's identifier.
    pub id: LinkId,
    /// One endpoint.
    pub a: IfaceId,
    /// The other endpoint.
    pub b: IfaceId,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Probability that a message traversing this link is silently lost.
    pub loss: f64,
    /// Whether the link is currently functioning.
    pub up: bool,
}

impl Link {
    /// Does this link join `a` and `b` (in either direction)?
    fn joins(&self, a: IfaceId, b: IfaceId) -> bool {
        (self.a == a && self.b == b) || (self.a == b && self.b == a)
    }
}

/// A node and its health.
#[derive(Debug, Clone)]
struct Node {
    id: NodeId,
    /// Whether the node itself is up.
    up: bool,
    /// Number of network interfaces.
    ifaces: usize,
    /// Latency multiplier for traffic in or out of this node. `1` is
    /// nominal; larger values model a *gray failure*: the node is up and
    /// reachable, it just answers slowly (overloaded CPU, dying disk,
    /// half-duplex NIC). Injected via [`crate::Fault::NodeDegrade`].
    slowdown: u32,
}

/// Default per-link latency used by the convenience constructors: 50 µs,
/// in the ballpark of a late-90s Myrinet store-and-forward hop.
pub const DEFAULT_LINK_LATENCY: SimDuration = SimDuration(50);

/// The simulated fabric.
#[derive(Debug, Clone)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl Network {
    /// Start building a network.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// A fully connected mesh of `n` single-interface nodes with identical
    /// direct links.
    pub fn full_mesh(n: usize, latency: SimDuration, loss: f64) -> Network {
        let mut b = Network::builder();
        for _ in 0..n {
            b.add_node(1);
        }
        let iface = |node| IfaceId {
            node: NodeId(node),
            iface: 0,
        };
        for i in 0..n {
            for j in (i + 1)..n {
                b.link(iface(i), iface(j), latency, loss);
            }
        }
        b.build()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Is the node currently up?
    pub fn node_up(&self, id: NodeId) -> bool {
        self.nodes[id.0].up
    }

    /// Is the link currently up (including both endpoint nodes)?
    pub fn link_up(&self, id: LinkId) -> bool {
        let l = &self.links[id.0];
        l.up && self.node_up(l.a.node) && self.node_up(l.b.node)
    }

    /// Set a link's administrative state.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        self.links[id.0].up = up;
    }

    /// Set a node's health; a crashed node cannot send or receive.
    pub fn set_node_up(&mut self, id: NodeId, up: bool) {
        self.nodes[id.0].up = up;
    }

    /// Set a node's latency multiplier (gray failure). Clamped to at least 1.
    pub fn set_node_slowdown(&mut self, id: NodeId, factor: u32) {
        self.nodes[id.0].slowdown = factor.max(1);
    }

    /// The node's current latency multiplier (1 = nominal).
    pub fn node_slowdown(&self, id: NodeId) -> u32 {
        self.nodes[id.0].slowdown
    }

    /// Combined latency multiplier for traffic between two nodes: the
    /// product of the endpoints' slowdowns (a degraded node is slow both
    /// sending and receiving).
    pub fn pair_slowdown(&self, a: NodeId, b: NodeId) -> u64 {
        self.nodes[a.0].slowdown as u64 * self.nodes[b.0].slowdown as u64
    }

    /// Find the link joining two specific interfaces, if one exists.
    pub fn find_link(&self, a: IfaceId, b: IfaceId) -> Option<LinkId> {
        self.links.iter().find(|l| l.joins(a, b)).map(|l| l.id)
    }

    /// A healthy route between two nodes: for the first interface pair, in
    /// interface order, that a healthy link joins, the first such link in
    /// construction order, as a one-hop path.
    pub fn route_between_nodes(&self, from: NodeId, to: NodeId) -> Option<Vec<LinkId>> {
        if !self.node_up(from) || !self.node_up(to) || from == to {
            return None;
        }
        for fi in 0..self.nodes[from.0].ifaces {
            for ti in 0..self.nodes[to.0].ifaces {
                let src = IfaceId {
                    node: from,
                    iface: fi,
                };
                let dst = IfaceId {
                    node: to,
                    iface: ti,
                };
                let healthy = self
                    .links
                    .iter()
                    .find(|l| l.joins(src, dst) && self.link_up(l.id));
                if let Some(link) = healthy {
                    return Some(vec![link.id]);
                }
            }
        }
        None
    }

    /// True if some healthy path joins the two nodes.
    pub fn nodes_connected(&self, a: NodeId, b: NodeId) -> bool {
        a == b && self.node_up(a) || self.route_between_nodes(a, b).is_some()
    }

    /// Total one-way latency along a path (sum of link latencies).
    pub fn path_latency(&self, path: &[LinkId]) -> SimDuration {
        path.iter()
            .fold(SimDuration::ZERO, |acc, &l| acc + self.links[l.0].latency)
    }

    /// Combined loss probability along a path (independent per-hop losses).
    pub fn path_loss(&self, path: &[LinkId]) -> f64 {
        let survive: f64 = path.iter().map(|&l| 1.0 - self.links[l.0].loss).product();
        1.0 - survive
    }

    /// The set of up nodes reachable from `start` (including `start` itself
    /// if it is up). Used by the membership and application experiments to
    /// determine the primary connected component after faults.
    pub fn reachable_nodes(&self, start: NodeId) -> Vec<NodeId> {
        if !self.node_up(start) {
            return Vec::new();
        }
        self.nodes
            .iter()
            .filter(|n| n.up && (n.id == start || self.nodes_connected(start, n.id)))
            .map(|n| n.id)
            .collect()
    }
}

/// Incremental builder for a [`Network`].
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl NetworkBuilder {
    /// Add a node with `ifaces` network interfaces; returns its id.
    pub fn add_node(&mut self, ifaces: usize) -> NodeId {
        assert!(ifaces >= 1, "a node needs at least one interface");
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            up: true,
            ifaces,
            slowdown: 1,
        });
        id
    }

    /// Join two interfaces with a link of the given latency and loss
    /// probability. Panics if either interface was never declared
    /// (programming error in test/bench setup code).
    pub fn link(&mut self, a: IfaceId, b: IfaceId, latency: SimDuration, loss: f64) -> LinkId {
        for i in [a, b] {
            let known = self.nodes.get(i.node.0).is_some_and(|n| i.iface < n.ifaces);
            assert!(known, "unknown interface {i}");
        }
        assert!(a != b, "a link must join two distinct interfaces");
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        let id = LinkId(self.links.len());
        self.links.push(Link {
            id,
            a,
            b,
            latency,
            loss,
            up: true,
        });
        id
    }

    /// Finish building.
    pub fn build(self) -> Network {
        Network {
            nodes: self.nodes,
            links: self.links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iface(n: usize, i: usize) -> IfaceId {
        IfaceId {
            node: NodeId(n),
            iface: i,
        }
    }

    #[test]
    fn full_mesh_connects_everyone() {
        let net = Network::full_mesh(4, DEFAULT_LINK_LATENCY, 0.0);
        assert_eq!(net.num_nodes(), 4);
        assert_eq!(net.num_links(), 6);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert!(net.nodes_connected(NodeId(a), NodeId(b)));
                }
            }
        }
    }

    #[test]
    fn crashed_node_is_unreachable() {
        let mut net = Network::full_mesh(3, DEFAULT_LINK_LATENCY, 0.0);
        net.set_node_up(NodeId(1), false);
        assert!(!net.nodes_connected(NodeId(0), NodeId(1)));
        assert!(net.nodes_connected(NodeId(0), NodeId(2)));
        assert_eq!(net.reachable_nodes(NodeId(1)), Vec::<NodeId>::new());
    }

    #[test]
    fn route_prefers_existing_paths_and_reports_latency() {
        let mut b = Network::builder();
        let n0 = b.add_node(2);
        let n1 = b.add_node(1);
        let slow = b.link(iface(0, 0), iface(1, 0), SimDuration(250), 0.0);
        let fast = b.link(iface(0, 1), iface(1, 0), SimDuration(100), 0.0);
        let mut net = b.build();
        let path = net.route_between_nodes(n0, n1).unwrap();
        assert_eq!(path, vec![slow], "interface 0 is tried first");
        assert_eq!(net.path_latency(&path).as_micros(), 250);
        assert_eq!(net.path_loss(&path), 0.0);
        // With the first interface's link down, the second one carries it.
        net.set_link_up(slow, false);
        assert_eq!(net.route_between_nodes(n0, n1), Some(vec![fast]));
        net.set_link_up(fast, false);
        assert_eq!(net.route_between_nodes(n0, n1), None);
    }

    #[test]
    fn link_failures_break_and_restore_paths() {
        let mut b = Network::builder();
        let _ = b.add_node(2);
        let _ = b.add_node(2);
        // Two disjoint direct paths (iface 0 <-> iface 0, iface 1 <-> iface 1).
        let l0 = b.link(iface(0, 0), iface(1, 0), SimDuration(10), 0.0);
        let l1 = b.link(iface(0, 1), iface(1, 1), SimDuration(10), 0.0);
        let mut net = b.build();
        assert!(net.nodes_connected(NodeId(0), NodeId(1)));
        net.set_link_up(l0, false);
        assert!(net.nodes_connected(NodeId(0), NodeId(1)), "second NIC path");
        net.set_link_up(l1, false);
        assert!(!net.nodes_connected(NodeId(0), NodeId(1)));
        net.set_link_up(l0, true);
        assert!(net.nodes_connected(NodeId(0), NodeId(1)));
    }

    #[test]
    fn path_loss_combines_per_hop_probabilities() {
        let mut b = Network::builder();
        let _ = b.add_node(1);
        let _ = b.add_node(1);
        let _ = b.add_node(1);
        let l0 = b.link(iface(0, 0), iface(1, 0), SimDuration(10), 0.1);
        let l1 = b.link(iface(1, 0), iface(2, 0), SimDuration(10), 0.1);
        let net = b.build();
        assert!((net.path_loss(&[l0, l1]) - 0.19).abs() < 1e-12);
        assert_eq!(net.path_latency(&[l0, l1]).as_micros(), 20);
    }

    #[test]
    fn find_link_is_direction_agnostic() {
        let mut b = Network::builder();
        let _ = b.add_node(1);
        let _ = b.add_node(1);
        let _ = b.add_node(1);
        let l = b.link(iface(0, 0), iface(1, 0), SimDuration(10), 0.0);
        let net = b.build();
        assert_eq!(net.find_link(iface(1, 0), iface(0, 0)), Some(l));
        assert_eq!(net.find_link(iface(0, 0), iface(2, 0)), None);
    }

    #[test]
    #[should_panic]
    fn builder_rejects_links_to_unknown_ports() {
        let mut b = Network::builder();
        b.add_node(1);
        b.link(iface(0, 0), iface(3, 0), SimDuration(10), 0.0);
        b.build();
    }
}
