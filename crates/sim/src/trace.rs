//! Lightweight run statistics.
//!
//! Every simulation run keeps counters of what happened to the messages it
//! carried; experiments assert on these (e.g. "no message was dropped while
//! redundancy remained").

use serde::{Deserialize, Serialize};

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

/// Aggregate message statistics of a run.
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
}

impl Trace {
    /// Count one delivery of `bytes` payload bytes.
    pub fn record_delivery(&mut self, bytes: u64) {
        self.delivered += 1;
        self.bytes_delivered += bytes;
    }

    /// Count one dropped message under its reason.
    pub fn record_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::NoRoute => self.dropped_no_route += 1,
            DropReason::RandomLoss => self.dropped_loss += 1,
            DropReason::DestinationDown => self.dropped_dest_down += 1,
            DropReason::SourceDown => self.dropped_source_down += 1,
        }
    }

    /// Total messages dropped for any reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_no_route
            + self.dropped_loss
            + self.dropped_dest_down
            + self.dropped_source_down
    }

    /// Publish the counters into `registry` as `sim.trace.*` gauges.
    /// Gauges are set, not added, so republishing after more traffic
    /// overwrites the previous values.
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_each_outcome() {
        let mut tr = Trace::default();
        tr.sent += 1;
        tr.record_delivery(0);
        tr.record_drop(DropReason::NoRoute);
        tr.record_drop(DropReason::RandomLoss);
        assert_eq!(tr.sent, 1);
        assert_eq!(tr.delivered, 1);
        assert_eq!(tr.dropped_total(), 2);
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
        let mut tr = Trace::default();
        for reason in reasons {
            tr.record_drop(reason);
        }
        assert_eq!(tr.dropped_no_route, 1);
        assert_eq!(tr.dropped_loss, 2);
        assert_eq!(tr.dropped_dest_down, 1);
        assert_eq!(tr.dropped_source_down, 3);
        assert_eq!(tr.dropped_total(), reasons.len() as u64);
    }

    #[test]
    fn publish_to_exposes_counters_as_gauges() {
        let mut tr = Trace::default();
        tr.sent += 1;
        tr.record_drop(DropReason::RandomLoss);
        tr.record_delivery(640);
        let reg = rain_obs::Registry::new();
        tr.publish_to(&reg);
        assert_eq!(reg.gauge_value("sim.trace.sent"), 1);
        assert_eq!(reg.gauge_value("sim.trace.dropped.loss"), 1);
        assert_eq!(reg.gauge_value("sim.trace.bytes_delivered"), 640);
        // Republishing after more traffic overwrites rather than accumulates.
        tr.sent += 1;
        tr.publish_to(&reg);
        assert_eq!(reg.gauge_value("sim.trace.sent"), 2);
    }
}
