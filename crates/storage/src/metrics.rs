//! Pre-registered telemetry handles for the store's hot paths.
//!
//! Handles are resolved once, when a registry is attached
//! ([`crate::DistributedStore::attach_registry`]), so the store/retrieve
//! paths never do a name lookup: with telemetry disabled every handle is a
//! no-op whose cost is a null check. Metric names follow the
//! `<crate>.<subsystem>.<name>` scheme documented in
//! `docs/ARCHITECTURE.md`.

use rain_obs::{Counter, Histogram, Registry};

/// Counter names backing [`crate::OutcomeTally`]'s registry view — one per
/// [`crate::NodeOutcome`] variant, incremented once per entry of every
/// *served* retrieve's [`crate::RetrieveReport::outcomes`] (and once per
/// node contact of a group export's decode).
pub(crate) const OUTCOME_OK: &str = "storage.retrieve.outcome.ok";
pub(crate) const OUTCOME_TIMEOUT: &str = "storage.retrieve.outcome.timeout";
pub(crate) const OUTCOME_CORRUPT: &str = "storage.retrieve.outcome.corrupt";
pub(crate) const OUTCOME_DOWN: &str = "storage.retrieve.outcome.down";
pub(crate) const OUTCOME_STALE: &str = "storage.retrieve.outcome.stale";
/// Counters backing the tally's read-level fields.
pub(crate) const RETRIEVE_DEGRADED: &str = "storage.retrieve.degraded";
pub(crate) const RETRIEVE_HEDGED: &str = "storage.retrieve.hedged";
pub(crate) const RETRIEVE_RETRIES: &str = "storage.retrieve.retries";

/// Every store-level handle, resolved against one registry. `Default` is
/// the disabled set (all no-ops).
#[derive(Clone, Default)]
pub(crate) struct StoreMetrics {
    pub store_ops: Counter,
    pub store_bytes: Counter,
    pub quorum_failures: Counter,
    pub retrieve_ok: Counter,
    pub retrieve_unavailable: Counter,
    pub local_hits: Counter,
    pub degraded: Counter,
    pub hedged: Counter,
    pub retries: Counter,
    /// Sealed-group retrieves served from their covering shares, no decode.
    pub ranged: Counter,
    /// Retrieves served by a `k`-share decode: whole objects, groups read
    /// again soon after a ranged read, and group reads the ranged path
    /// could not serve.
    pub decoded: Counter,
    /// Share payload bytes that passed verification during retrieves.
    pub bytes_verified: Counter,
    pub latency_us: Histogram,
    pub outcome_ok: Counter,
    pub outcome_timeout: Counter,
    pub outcome_corrupt: Counter,
    pub outcome_down: Counter,
    pub outcome_stale: Counter,
    pub group_seals: Counter,
    pub sealed_objects: Counter,
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub compactions: Counter,
    pub repair_symbols: Counter,
    pub wal_appends: Counter,
    pub wal_append_bytes: Counter,
}

impl StoreMetrics {
    pub fn new(reg: &Registry) -> Self {
        StoreMetrics {
            store_ops: reg.counter("storage.store.ops"),
            store_bytes: reg.counter("storage.store.bytes"),
            quorum_failures: reg.counter("storage.store.quorum_failures"),
            retrieve_ok: reg.counter("storage.retrieve.ok"),
            retrieve_unavailable: reg.counter("storage.retrieve.unavailable"),
            local_hits: reg.counter("storage.retrieve.local_hits"),
            degraded: reg.counter(RETRIEVE_DEGRADED),
            hedged: reg.counter(RETRIEVE_HEDGED),
            retries: reg.counter(RETRIEVE_RETRIES),
            ranged: reg.counter("storage.retrieve.ranged"),
            decoded: reg.counter("storage.retrieve.decoded"),
            bytes_verified: reg.counter("storage.retrieve.bytes_verified"),
            latency_us: reg.histogram("storage.retrieve.latency_us"),
            outcome_ok: reg.counter(OUTCOME_OK),
            outcome_timeout: reg.counter(OUTCOME_TIMEOUT),
            outcome_corrupt: reg.counter(OUTCOME_CORRUPT),
            outcome_down: reg.counter(OUTCOME_DOWN),
            outcome_stale: reg.counter(OUTCOME_STALE),
            group_seals: reg.counter("storage.group.seals"),
            sealed_objects: reg.counter("storage.group.sealed_objects"),
            cache_hits: reg.counter("storage.group.cache_hits"),
            cache_misses: reg.counter("storage.group.cache_misses"),
            compactions: reg.counter("storage.group.compactions"),
            repair_symbols: reg.counter("storage.repair.symbols"),
            wal_appends: reg.counter("storage.wal.appends"),
            wal_append_bytes: reg.counter("storage.wal.append_bytes"),
        }
    }
}

/// Per-node request telemetry: one fetch and one install latency histogram
/// plus ok/err counters per storage node (`storage.transport.node<NN>.*`,
/// zero-padded so snapshots sort in node order). Empty (`Default`) when
/// telemetry is disabled — every record call is then a bounds-check miss.
#[derive(Clone, Default)]
pub(crate) struct TransportMetrics {
    nodes: Vec<NodeIo>,
}

#[derive(Clone)]
struct NodeIo {
    fetch_us: Histogram,
    install_us: Histogram,
    ok: Counter,
    err: Counter,
}

impl TransportMetrics {
    pub fn new(reg: &Registry, n: usize) -> Self {
        TransportMetrics {
            nodes: (0..n)
                .map(|i| NodeIo {
                    fetch_us: reg.histogram(&format!("storage.transport.node{i:02}.fetch_us")),
                    install_us: reg.histogram(&format!("storage.transport.node{i:02}.install_us")),
                    ok: reg.counter(&format!("storage.transport.node{i:02}.ok")),
                    err: reg.counter(&format!("storage.transport.node{i:02}.err")),
                })
                .collect(),
        }
    }

    /// Record one fetch stream's fate: its duration from dispatch to
    /// success-or-give-up, and whether it produced a verified share.
    #[inline]
    pub fn record_fetch(&self, node: usize, ok: bool, dur_us: u64) {
        if let Some(io) = self.nodes.get(node) {
            io.fetch_us.record(dur_us);
            if ok {
                io.ok.inc();
            } else {
                io.err.inc();
            }
        }
    }

    /// Record one install drive's fate.
    #[inline]
    pub fn record_install(&self, node: usize, ok: bool, dur_us: u64) {
        if let Some(io) = self.nodes.get(node) {
            io.install_us.record(dur_us);
            if ok {
                io.ok.inc();
            } else {
                io.err.inc();
            }
        }
    }
}
