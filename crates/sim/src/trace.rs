//! Lightweight run statistics and (optionally) a full event trace.
//!
//! Every simulation run keeps counters of what happened to the messages it
//! carried; experiments assert on these (e.g. "no message was dropped while
//! redundancy remained") and the report harness prints them. A bounded event
//! log can be enabled for debugging without changing protocol behaviour.

use serde::{Deserialize, Serialize};

use crate::fault::Fault;
use crate::net::NodeId;
use crate::time::SimTime;

/// Why a message failed to reach its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// No functioning path existed between source and destination.
    NoRoute,
    /// The message was lost to random loss on a link.
    RandomLoss,
    /// The destination node was down when the message arrived.
    DestinationDown,
    /// The source node was down when it tried to send.
    SourceDown,
}

/// One recorded trace entry (only kept when tracing is enabled).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A message was handed to the fabric.
    Sent {
        /// Simulated time of the send.
        time: SimTime,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// A message reached its destination.
    Delivered {
        /// Simulated delivery time.
        time: SimTime,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Number of links traversed.
        hops: usize,
    },
    /// A message was dropped.
    Dropped {
        /// Simulated time of the drop decision.
        time: SimTime,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A fault action fired.
    FaultApplied {
        /// Simulated time of the action.
        time: SimTime,
        /// The action.
        fault: Fault,
    },
}

/// Aggregate statistics of a run plus an optional bounded event log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Messages handed to the fabric.
    pub sent: u64,
    /// Messages delivered to an up destination.
    pub delivered: u64,
    /// Messages dropped because no path existed.
    pub dropped_no_route: u64,
    /// Messages dropped by random link loss.
    pub dropped_loss: u64,
    /// Messages dropped because the destination was down on arrival.
    pub dropped_dest_down: u64,
    /// Messages dropped because the source was down at send time.
    pub dropped_source_down: u64,
    /// Fault actions applied.
    pub faults_applied: u64,
    /// Total simulated bytes delivered (for throughput-style experiments).
    pub bytes_delivered: u64,
    events: Vec<TraceEvent>,
    /// Ring-buffer write cursor: index of the oldest event once full.
    next: usize,
    /// Events evicted from the ring after it filled.
    overwritten: u64,
    capture: bool,
    capacity: usize,
}

impl Trace {
    /// A trace that only keeps counters.
    pub fn counters_only() -> Self {
        Trace::default()
    }

    /// A trace that also records up to `capacity` individual events.
    pub fn with_events(capacity: usize) -> Self {
        Trace {
            capture: true,
            capacity,
            ..Trace::default()
        }
    }

    /// Record an event, updating counters (and the log if enabled).
    pub fn record(&mut self, event: TraceEvent) {
        match &event {
            TraceEvent::Sent { .. } => self.sent += 1,
            TraceEvent::Delivered { .. } => self.delivered += 1,
            TraceEvent::Dropped { reason, .. } => match reason {
                DropReason::NoRoute => self.dropped_no_route += 1,
                DropReason::RandomLoss => self.dropped_loss += 1,
                DropReason::DestinationDown => self.dropped_dest_down += 1,
                DropReason::SourceDown => self.dropped_source_down += 1,
            },
            TraceEvent::FaultApplied { .. } => self.faults_applied += 1,
        }
        if self.capture && self.capacity > 0 {
            if self.events.len() < self.capacity {
                self.events.push(event);
            } else {
                // Ring buffer: evict the oldest entry so a long run keeps the
                // most recent `capacity` events for post-mortem inspection.
                self.events[self.next] = event;
                self.overwritten += 1;
            }
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Add delivered payload bytes (throughput accounting).
    pub fn add_delivered_bytes(&mut self, bytes: u64) {
        self.bytes_delivered += bytes;
    }

    /// Total messages dropped for any reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_no_route
            + self.dropped_loss
            + self.dropped_dest_down
            + self.dropped_source_down
    }

    /// The recorded events in oldest-to-newest order (empty unless event
    /// capture was enabled). Once the ring fills, these are the most recent
    /// `capacity` events; [`Trace::events_overwritten`] says how many older
    /// ones were evicted.
    pub fn events(&self) -> Vec<&TraceEvent> {
        if self.events.len() < self.capacity || self.capacity == 0 {
            self.events.iter().collect()
        } else {
            self.events[self.next..]
                .iter()
                .chain(self.events[..self.next].iter())
                .collect()
        }
    }

    /// Number of events evicted from the bounded log after it filled.
    pub fn events_overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Publish the run counters into a telemetry registry as `sim.trace.*`
    /// gauges. Gauges (not counters) because a `Trace` is itself the
    /// authoritative monotonic aggregate: republishing after more traffic
    /// overwrites the previous values instead of double-counting them.
    pub fn publish_to(&self, registry: &rain_obs::Registry) {
        let set = |name: &str, v: u64| registry.gauge(name).set(v as i64);
        set("sim.trace.sent", self.sent);
        set("sim.trace.delivered", self.delivered);
        set("sim.trace.dropped.no_route", self.dropped_no_route);
        set("sim.trace.dropped.loss", self.dropped_loss);
        set("sim.trace.dropped.dest_down", self.dropped_dest_down);
        set("sim.trace.dropped.source_down", self.dropped_source_down);
        set("sim.trace.faults_applied", self.faults_applied);
        set("sim.trace.bytes_delivered", self.bytes_delivered);
        set("sim.trace.events_overwritten", self.overwritten);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(t: u64) -> TraceEvent {
        TraceEvent::Sent {
            time: SimTime::from_micros(t),
            from: NodeId(0),
            to: NodeId(1),
        }
    }

    #[test]
    fn counters_track_each_outcome() {
        let mut tr = Trace::counters_only();
        tr.record(sent(1));
        tr.record(TraceEvent::Delivered {
            time: SimTime::from_micros(2),
            from: NodeId(0),
            to: NodeId(1),
            hops: 2,
        });
        tr.record(TraceEvent::Dropped {
            time: SimTime::from_micros(3),
            from: NodeId(0),
            to: NodeId(1),
            reason: DropReason::NoRoute,
        });
        tr.record(TraceEvent::Dropped {
            time: SimTime::from_micros(3),
            from: NodeId(0),
            to: NodeId(1),
            reason: DropReason::RandomLoss,
        });
        assert_eq!(tr.sent, 1);
        assert_eq!(tr.delivered, 1);
        assert_eq!(tr.dropped_total(), 2);
        assert!(
            tr.events().is_empty(),
            "counters-only trace keeps no events"
        );
    }

    #[test]
    fn event_capture_is_bounded() {
        let mut tr = Trace::with_events(3);
        for i in 0..10 {
            tr.record(sent(i));
        }
        assert_eq!(tr.sent, 10);
        assert_eq!(tr.events().len(), 3);
    }

    #[test]
    fn full_ring_keeps_the_newest_events_in_order() {
        let mut tr = Trace::with_events(4);
        for i in 0..11 {
            tr.record(sent(i));
        }
        let times: Vec<u64> = tr
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Sent { time, .. } => time.as_micros(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(times, vec![7, 8, 9, 10], "oldest-to-newest tail of the run");
        assert_eq!(tr.events_overwritten(), 7);
    }

    #[test]
    fn ring_at_exact_capacity_has_no_evictions() {
        let mut tr = Trace::with_events(5);
        for i in 0..5 {
            tr.record(sent(i));
        }
        assert_eq!(tr.events().len(), 5);
        assert_eq!(tr.events_overwritten(), 0);
        // One more wraps exactly once.
        tr.record(sent(5));
        assert_eq!(tr.events().len(), 5);
        assert_eq!(tr.events_overwritten(), 1);
    }

    #[test]
    fn zero_capacity_capture_records_nothing() {
        let mut tr = Trace::with_events(0);
        for i in 0..3 {
            tr.record(sent(i));
        }
        assert_eq!(tr.sent, 3);
        assert!(tr.events().is_empty());
        assert_eq!(tr.events_overwritten(), 0);
    }

    #[test]
    fn drop_reason_counters_match_recorded_events() {
        let reasons = [
            DropReason::NoRoute,
            DropReason::RandomLoss,
            DropReason::RandomLoss,
            DropReason::DestinationDown,
            DropReason::SourceDown,
            DropReason::SourceDown,
            DropReason::SourceDown,
        ];
        let mut tr = Trace::with_events(reasons.len());
        for (i, reason) in reasons.iter().enumerate() {
            tr.record(TraceEvent::Dropped {
                time: SimTime::from_micros(i as u64),
                from: NodeId(0),
                to: NodeId(1),
                reason: *reason,
            });
        }
        assert_eq!(tr.dropped_no_route, 1);
        assert_eq!(tr.dropped_loss, 2);
        assert_eq!(tr.dropped_dest_down, 1);
        assert_eq!(tr.dropped_source_down, 3);
        assert_eq!(tr.dropped_total(), reasons.len() as u64);
        // Every counted drop is visible in the (unfilled) event log with the
        // same reason, so the two views of the run cannot diverge.
        let logged: Vec<DropReason> = tr
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Dropped { reason, .. } => *reason,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(logged, reasons);
    }

    #[test]
    fn publish_to_exposes_counters_as_gauges() {
        let mut tr = Trace::counters_only();
        tr.record(sent(1));
        tr.record(TraceEvent::Dropped {
            time: SimTime::from_micros(2),
            from: NodeId(0),
            to: NodeId(1),
            reason: DropReason::RandomLoss,
        });
        tr.add_delivered_bytes(640);
        let reg = rain_obs::Registry::new();
        tr.publish_to(&reg);
        assert_eq!(reg.gauge_value("sim.trace.sent"), 1);
        assert_eq!(reg.gauge_value("sim.trace.dropped.loss"), 1);
        assert_eq!(reg.gauge_value("sim.trace.bytes_delivered"), 640);
        // Republishing after more traffic overwrites rather than accumulates.
        tr.record(sent(3));
        tr.publish_to(&reg);
        assert_eq!(reg.gauge_value("sim.trace.sent"), 2);
    }
}
