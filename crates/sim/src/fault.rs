//! Fault injection: the vocabulary of failures the store is tested against
//! (node crashes, link failures, and gray-failure slowdowns) plus scheduling
//! helpers for building deterministic fault plans.

use serde::{Deserialize, Serialize};

use crate::net::{LinkId, Network, NodeId};
use crate::time::SimTime;

/// A single fault or repair action applied to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Take a link down.
    LinkDown(LinkId),
    /// Bring a link back up.
    LinkUp(LinkId),
    /// Crash a node (it stops sending, receiving, and processing timers).
    NodeCrash(NodeId),
    /// Recover a crashed node.
    NodeRecover(NodeId),
    /// Gray failure: inflate a node's latency by an integer factor without
    /// taking it down. The node keeps answering — slowly — which is the
    /// failure mode time-outs and hedged reads exist for.
    NodeDegrade(NodeId, u32),
    /// Restore a degraded node to nominal latency.
    NodeRestore(NodeId),
}

impl Fault {
    /// Apply the action to a network.
    pub fn apply(self, net: &mut Network) {
        match self {
            Fault::LinkDown(l) => net.set_link_up(l, false),
            Fault::LinkUp(l) => net.set_link_up(l, true),
            Fault::NodeCrash(n) => net.set_node_up(n, false),
            Fault::NodeRecover(n) => net.set_node_up(n, true),
            Fault::NodeDegrade(n, factor) => net.set_node_slowdown(n, factor),
            Fault::NodeRestore(n) => net.set_node_slowdown(n, 1),
        }
    }

    /// True if this action makes something worse (used by plan statistics).
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            Fault::LinkDown(_) | Fault::NodeCrash(_) | Fault::NodeDegrade(..)
        )
    }
}

/// A time-ordered schedule of fault actions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<(SimTime, Fault)>,
}

impl FaultPlan {
    /// An empty plan (the fault-free baseline).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add an action at a given time. Actions may be added out of order;
    /// [`FaultPlan::into_sorted`] and iteration always present them sorted.
    pub fn at(mut self, time: SimTime, fault: Fault) -> Self {
        self.events.push((time, fault));
        self
    }

    /// Add an action in place (builder-free form).
    pub fn push(&mut self, time: SimTime, fault: Fault) {
        self.events.push((time, fault));
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no actions are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled *failure* actions (repairs excluded).
    pub fn failure_count(&self) -> usize {
        self.events.iter().filter(|(_, f)| f.is_failure()).count()
    }

    /// The actions sorted by time (stable for equal times).
    pub fn into_sorted(mut self) -> Vec<(SimTime, Fault)> {
        self.events.sort_by_key(|(t, _)| *t);
        self.events
    }

    /// Iterate the actions sorted by time without consuming the plan.
    pub fn sorted(&self) -> Vec<(SimTime, Fault)> {
        self.clone().into_sorted()
    }

    /// Schedule a gray failure: `node` runs at `factor`× its nominal latency
    /// throughout `[from, until)`, then returns to nominal. The node never
    /// goes down — requests keep succeeding, just slowly — so only policies
    /// with deadlines or hedging notice anything at all.
    pub fn gray_failure(self, node: NodeId, from: SimTime, until: SimTime, factor: u32) -> Self {
        assert!(from < until, "gray failure needs a non-empty window");
        self.at(from, Fault::NodeDegrade(node, factor))
            .at(until, Fault::NodeRestore(node))
    }

    /// Schedule a flapping link: starting at `first_down`, the link cycles
    /// down for `down_for` and up for `up_for`, until `horizon`. The plan
    /// always ends with the link up (a final `LinkUp` is emitted at the end
    /// of the last down window even if it lands past `horizon`), so the
    /// fault is transient by construction.
    pub fn flapping_link(
        mut self,
        link: LinkId,
        first_down: SimTime,
        down_for: crate::time::SimDuration,
        up_for: crate::time::SimDuration,
        horizon: SimTime,
    ) -> Self {
        assert!(
            down_for.as_micros() > 0 && up_for.as_micros() > 0,
            "flapping needs non-empty down and up windows"
        );
        let mut t = first_down;
        while t < horizon {
            self.push(t, Fault::LinkDown(link));
            self.push(t + down_for, Fault::LinkUp(link));
            t = t + down_for + up_for;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Network, DEFAULT_LINK_LATENCY};

    #[test]
    fn apply_round_trips_every_fault_kind() {
        let mut net = Network::full_mesh(4, DEFAULT_LINK_LATENCY, 0.0);
        let link = net.links()[0].id;

        Fault::LinkDown(link).apply(&mut net);
        assert!(!net.link_up(link));
        Fault::LinkUp(link).apply(&mut net);
        assert!(net.link_up(link));

        Fault::NodeCrash(NodeId(1)).apply(&mut net);
        assert!(!net.node_up(NodeId(1)));
        Fault::NodeRecover(NodeId(1)).apply(&mut net);
        assert!(net.node_up(NodeId(1)));

        Fault::NodeDegrade(NodeId(2), 5).apply(&mut net);
        assert_eq!(net.node_slowdown(NodeId(2)), 5);
        Fault::NodeRestore(NodeId(2)).apply(&mut net);
        assert_eq!(net.node_slowdown(NodeId(2)), 1);
    }

    #[test]
    fn degrade_and_restore_round_trip_the_slowdown() {
        let mut net = Network::full_mesh(3, DEFAULT_LINK_LATENCY, 0.0);
        assert_eq!(net.node_slowdown(NodeId(1)), 1);
        Fault::NodeDegrade(NodeId(1), 20).apply(&mut net);
        assert_eq!(net.node_slowdown(NodeId(1)), 20);
        assert_eq!(net.pair_slowdown(NodeId(0), NodeId(1)), 20);
        assert!(net.node_up(NodeId(1)), "a gray node is still up");
        Fault::NodeRestore(NodeId(1)).apply(&mut net);
        assert_eq!(net.node_slowdown(NodeId(1)), 1);
        // A zero factor clamps to nominal rather than dividing by zero.
        Fault::NodeDegrade(NodeId(1), 0).apply(&mut net);
        assert_eq!(net.node_slowdown(NodeId(1)), 1);
    }

    #[test]
    fn gray_failure_schedules_a_degrade_restore_pair() {
        let plan = FaultPlan::none().gray_failure(
            NodeId(2),
            SimTime::from_secs(1),
            SimTime::from_secs(3),
            10,
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.failure_count(), 1, "the restore is not a failure");
        let sorted = plan.sorted();
        assert_eq!(
            sorted[0],
            (SimTime::from_secs(1), Fault::NodeDegrade(NodeId(2), 10))
        );
        assert_eq!(
            sorted[1],
            (SimTime::from_secs(3), Fault::NodeRestore(NodeId(2)))
        );
    }

    #[test]
    fn flapping_link_alternates_and_ends_up() {
        use crate::time::SimDuration;
        let link = LinkId(4);
        let plan = FaultPlan::none().flapping_link(
            link,
            SimTime::from_millis(10),
            SimDuration::from_millis(5),
            SimDuration::from_millis(15),
            SimTime::from_millis(50),
        );
        // Down at 10, 30, 50? No: windows start at 10 and 30 (10 + 5 + 15);
        // the next would start at 50, which is not < 50.
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.failure_count(), 2);
        let sorted = plan.sorted();
        let expected = [
            (SimTime::from_millis(10), Fault::LinkDown(link)),
            (SimTime::from_millis(15), Fault::LinkUp(link)),
            (SimTime::from_millis(30), Fault::LinkDown(link)),
            (SimTime::from_millis(35), Fault::LinkUp(link)),
        ];
        assert_eq!(sorted, expected);
        // Every down is paired with a later up: applying the whole plan in
        // order leaves the link healthy.
        let mut net = Network::full_mesh(6, DEFAULT_LINK_LATENCY, 0.0);
        for (_, f) in sorted {
            f.apply(&mut net);
        }
        assert!(net.link_up(link));
    }

    #[test]
    fn plans_sort_by_time_and_count_failures() {
        let plan = FaultPlan::none()
            .at(SimTime::from_secs(3), Fault::NodeCrash(NodeId(0)))
            .at(SimTime::from_secs(1), Fault::LinkDown(LinkId(0)))
            .at(SimTime::from_secs(2), Fault::LinkUp(LinkId(0)));
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.failure_count(), 2);
        let sorted = plan.sorted();
        assert_eq!(sorted[0].0, SimTime::from_secs(1));
        assert_eq!(sorted[2].0, SimTime::from_secs(3));
    }
}
