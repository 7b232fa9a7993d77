//! The simulation driver: a virtual clock, an event queue, the network
//! fabric, and fault injection combined behind one small API.
//!
//! Protocol crates (`rain-membership`, `rain-election`) are pure state
//! machines; a test or experiment wires them to a [`Simulation`] by
//! calling [`Simulation::send`] / [`Simulation::set_timer`] for the actions
//! the machines emit and feeding the [`Event`]s returned by
//! [`Simulation::step`] back into them. Runs are a pure function of
//! `(network, fault plan, seed, inputs)`.

use crate::event::EventQueue;
use crate::fault::{Fault, FaultPlan};
use crate::net::{LinkId, Network, NodeId};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, Trace};

/// An observable simulation event returned by [`Simulation::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event<M> {
    /// The simulated time at which the event occurred.
    pub time: SimTime,
    /// What happened.
    pub kind: EventKind<M>,
}

/// The kinds of observable events.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind<M> {
    /// A message arrived at `to`.
    Message {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The payload.
        msg: M,
    },
    /// A timer set with [`Simulation::set_timer`] fired on an up node.
    Timer {
        /// The node that owns the timer.
        node: NodeId,
        /// The caller-chosen token identifying the timer.
        token: u64,
    },
    /// A fault action from the installed fault plan (or injected manually
    /// with [`Simulation::schedule_fault`]) was applied.
    Fault(Fault),
}

/// Outcome of processing a single queue entry.
enum StepOne<M> {
    /// An observable event was produced.
    Event(Event<M>),
    /// The entry was consumed silently (dropped delivery, stale timer).
    Consumed,
    /// The queue is empty.
    Empty,
}

#[derive(Debug, Clone)]
enum Pending<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        path: Vec<LinkId>,
        bytes: u64,
        msg: M,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Fault(Fault),
}

/// A deterministic discrete-event simulation of a RAIN cluster.
#[derive(Debug, Clone)]
pub struct Simulation<M> {
    net: Network,
    queue: EventQueue<Pending<M>>,
    rng: DetRng,
    trace: Trace,
    now: SimTime,
    /// If true, a message whose path fails while it is in flight is lost;
    /// if false the routing decision at send time is final. Defaults to true
    /// (the more adversarial model).
    pub in_flight_loss: bool,
}

impl<M> Simulation<M> {
    /// Create a simulation over a network with a seed for all stochastic
    /// choices (message loss).
    pub fn new(net: Network, seed: u64) -> Self {
        Simulation {
            net,
            queue: EventQueue::new(),
            rng: DetRng::new(seed),
            trace: Trace::default(),
            now: SimTime::ZERO,
            in_flight_loss: true,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The network fabric (to inspect health/topology).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the fabric (for immediate, unscheduled changes).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Run statistics so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The deterministic RNG (forked streams can be handed to workloads).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Install every action of a fault plan into the event queue.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        for (time, fault) in plan.into_sorted() {
            self.queue.push(time, Pending::Fault(fault));
        }
    }

    /// Schedule a single fault action `delay` from now.
    pub fn schedule_fault(&mut self, delay: SimDuration, fault: Fault) {
        self.queue.push(self.now + delay, Pending::Fault(fault));
    }

    /// Arm a timer owned by `node` that fires `delay` from now carrying
    /// `token`. Timers on crashed nodes are silently discarded when they
    /// fire.
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        self.queue
            .push(self.now + delay, Pending::Timer { node, token });
    }

    /// Send `msg` from `from` to `to` over the best currently-healthy path,
    /// accounting `bytes` of payload for throughput statistics. Returns
    /// `true` if the message was accepted (it may still be lost in flight).
    pub fn send_sized(&mut self, from: NodeId, to: NodeId, bytes: u64, msg: M) -> bool {
        self.trace.sent += 1;
        if !self.net.node_up(from) {
            self.trace.record_drop(DropReason::SourceDown);
            return false;
        }
        let Some(path) = self.net.route_between_nodes(from, to) else {
            self.trace.record_drop(DropReason::NoRoute);
            return false;
        };
        // Random loss is decided up front (per-hop probabilities combined);
        // the message still occupies the wire until its delivery time, it
        // just never arrives.
        let loss = self.net.path_loss(&path);
        if self.rng.chance(loss) {
            self.trace.record_drop(DropReason::RandomLoss);
            return false;
        }
        // Gray failures: a degraded endpoint stretches the whole transfer.
        let latency = self
            .net
            .path_latency(&path)
            .saturating_mul(self.net.pair_slowdown(from, to));
        // A zero-hop path (loopback) still takes a scheduling step.
        let deliver_at = self.now + latency + SimDuration::from_micros(1);
        self.queue.push(
            deliver_at,
            Pending::Deliver {
                from,
                to,
                path,
                bytes,
                msg,
            },
        );
        true
    }

    /// Send without byte accounting.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) -> bool {
        self.send_sized(from, to, 0, msg)
    }

    /// Advance to the next observable event and return it, or `None` when
    /// the queue is exhausted. Dropped deliveries and timers on crashed
    /// nodes are consumed silently (their outcome is visible in the trace).
    pub fn step(&mut self) -> Option<Event<M>> {
        loop {
            match self.step_one() {
                StepOne::Event(ev) => return Some(ev),
                StepOne::Consumed => continue,
                StepOne::Empty => return None,
            }
        }
    }

    /// Process events one at a time, but only those scheduled at or before
    /// `deadline`. Returns `None` (leaving later events queued and the clock
    /// at `deadline`) once nothing remains within the window. It never
    /// fast-forwards the clock past an unprocessed event, so reactions to an
    /// event are timestamped at the event's own time.
    pub fn step_until(&mut self, deadline: SimTime) -> Option<Event<M>> {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {}
                _ => {
                    if self.now < deadline {
                        self.now = deadline;
                    }
                    return None;
                }
            }
            match self.step_one() {
                StepOne::Event(ev) => return Some(ev),
                StepOne::Consumed => continue,
                StepOne::Empty => return None,
            }
        }
    }

    /// Pop and process exactly one queue entry.
    fn step_one(&mut self) -> StepOne<M> {
        let Some((time, pending)) = self.queue.pop() else {
            return StepOne::Empty;
        };
        {
            debug_assert!(time >= self.now, "time cannot move backwards");
            self.now = time;
            match pending {
                Pending::Fault(fault) => {
                    fault.apply(&mut self.net);
                    self.trace.faults_applied += 1;
                    StepOne::Event(Event {
                        time,
                        kind: EventKind::Fault(fault),
                    })
                }
                Pending::Timer { node, token } => {
                    if !self.net.node_up(node) {
                        return StepOne::Consumed;
                    }
                    StepOne::Event(Event {
                        time,
                        kind: EventKind::Timer { node, token },
                    })
                }
                Pending::Deliver {
                    from,
                    to,
                    path,
                    bytes,
                    msg,
                } => {
                    if !self.net.node_up(to) {
                        self.trace.record_drop(DropReason::DestinationDown);
                        return StepOne::Consumed;
                    }
                    if self.in_flight_loss && !path.iter().all(|&l| self.net.link_up(l)) {
                        self.trace.record_drop(DropReason::NoRoute);
                        return StepOne::Consumed;
                    }
                    self.trace.record_delivery(bytes);
                    StepOne::Event(Event {
                        time,
                        kind: EventKind::Message { from, to, msg },
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Network, DEFAULT_LINK_LATENCY};

    type Sim = Simulation<&'static str>;

    fn mesh(n: usize) -> Sim {
        Simulation::new(Network::full_mesh(n, DEFAULT_LINK_LATENCY, 0.0), 42)
    }

    #[test]
    fn messages_are_delivered_in_latency_order() {
        let mut sim = mesh(3);
        assert!(sim.send(NodeId(0), NodeId(1), "first"));
        assert!(sim.send(NodeId(0), NodeId(2), "second"));
        let e1 = sim.step().unwrap();
        let e2 = sim.step().unwrap();
        assert!(matches!(e1.kind, EventKind::Message { msg: "first", .. }));
        assert!(matches!(e2.kind, EventKind::Message { msg: "second", .. }));
        assert!(e1.time <= e2.time);
        assert_eq!(sim.trace().delivered, 2);
        assert!(sim.step().is_none());
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let mut sim = Simulation::new(Network::full_mesh(4, DEFAULT_LINK_LATENCY, 0.3), seed);
            for i in 0..50u64 {
                sim.send(NodeId((i % 4) as usize), NodeId(((i + 1) % 4) as usize), i);
            }
            let mut delivered = Vec::new();
            while let Some(ev) = sim.step() {
                if let EventKind::Message { msg, .. } = ev.kind {
                    delivered.push((ev.time, msg));
                }
            }
            delivered
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds see different loss");
    }

    #[test]
    fn crashed_destination_drops_messages() {
        let mut sim = mesh(2);
        sim.network_mut().set_node_up(NodeId(1), false);
        assert!(!sim.send(NodeId(0), NodeId(1), "x"));
        assert_eq!(sim.trace().dropped_no_route, 1);

        // Crash after the message is already in flight.
        let mut sim = mesh(2);
        assert!(sim.send(NodeId(0), NodeId(1), "y"));
        sim.network_mut().set_node_up(NodeId(1), false);
        assert!(sim.step().is_none());
        assert_eq!(sim.trace().dropped_dest_down, 1);
    }

    #[test]
    fn degraded_endpoint_inflates_delivery_latency() {
        // Nominal: one 50 µs hop plus the 1 µs scheduling step.
        let mut sim = mesh(2);
        assert!(sim.send(NodeId(0), NodeId(1), "fast"));
        let nominal = sim.step().unwrap().time;
        assert_eq!(nominal, SimTime::from_micros(51));

        // Gray-failed receiver: the wire time stretches 10×, the scheduling
        // step does not.
        let mut sim = mesh(2);
        sim.network_mut().set_node_slowdown(NodeId(1), 10);
        assert!(sim.send(NodeId(0), NodeId(1), "slow"));
        let degraded = sim.step().unwrap().time;
        assert_eq!(degraded, SimTime::from_micros(501));

        // Restoring the node restores nominal latency.
        let mut sim = mesh(2);
        sim.network_mut().set_node_slowdown(NodeId(1), 10);
        sim.network_mut().set_node_slowdown(NodeId(1), 1);
        assert!(sim.send(NodeId(0), NodeId(1), "healed"));
        assert_eq!(sim.step().unwrap().time, nominal);
    }

    #[test]
    fn fault_plan_events_are_observable_and_applied() {
        let mut sim = mesh(3);
        let plan = FaultPlan::none()
            .at(SimTime::from_millis(5), Fault::NodeCrash(NodeId(2)))
            .at(SimTime::from_millis(10), Fault::NodeRecover(NodeId(2)));
        sim.install_fault_plan(plan);
        let e = sim.step().unwrap();
        assert_eq!(e.time, SimTime::from_millis(5));
        assert!(matches!(
            e.kind,
            EventKind::Fault(Fault::NodeCrash(NodeId(2)))
        ));
        assert!(!sim.network().node_up(NodeId(2)));
        let e = sim.step().unwrap();
        assert!(matches!(e.kind, EventKind::Fault(Fault::NodeRecover(_))));
        assert!(sim.network().node_up(NodeId(2)));
    }

    #[test]
    fn timers_fire_unless_the_node_is_down() {
        let mut sim = mesh(2);
        sim.set_timer(NodeId(0), SimDuration::from_millis(1), 77);
        sim.set_timer(NodeId(1), SimDuration::from_millis(2), 88);
        sim.schedule_fault(SimDuration::from_micros(10), Fault::NodeCrash(NodeId(1)));
        let kinds: Vec<_> = std::iter::from_fn(|| sim.step()).map(|e| e.kind).collect();
        assert_eq!(kinds.len(), 2, "fault + node-0 timer; node-1 timer dropped");
        assert!(matches!(
            kinds[1],
            EventKind::Timer {
                node: NodeId(0),
                token: 77
            }
        ));
    }

    #[test]
    fn in_flight_link_failure_loses_the_message() {
        let mut sim = mesh(2);
        let link = sim.network().links()[0].id;
        assert!(sim.send(NodeId(0), NodeId(1), "doomed"));
        sim.schedule_fault(SimDuration::from_micros(1), Fault::LinkDown(link));
        let mut messages = 0;
        while let Some(ev) = sim.step() {
            if matches!(ev.kind, EventKind::Message { .. }) {
                messages += 1;
            }
        }
        assert_eq!(messages, 0);
        assert_eq!(sim.trace().dropped_no_route, 1);
    }

    #[test]
    fn throughput_accounting_sums_bytes() {
        let mut sim = mesh(2);
        sim.send_sized(NodeId(0), NodeId(1), 1_000, "a");
        sim.send_sized(NodeId(1), NodeId(0), 500, "b");
        while sim.step().is_some() {}
        assert_eq!(sim.trace().bytes_delivered, 1_500);
    }
}
