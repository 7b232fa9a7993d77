//! Distributed store/retrieve operations (Section 4.2 of the paper).
//!
//! A block of data is encoded with an `(n, k)` MDS array code into `n`
//! symbols, one symbol per storage node. A retrieve collects symbols from
//! *any* `k` reachable nodes and decodes. The scheme gives:
//!
//! * reliability — the data survives up to `n - k` node failures,
//! * dynamic reconfigurability / hot swapping — up to `n - k` nodes can be
//!   removed and replaced on the fly (their symbols are re-derived from the
//!   survivors),
//! * load balancing — since any `k` symbols suffice, the reader is free to
//!   pick the least-loaded or nearest `k` nodes.
//!
//! Small objects can additionally be batched into **coding groups** (see
//! [`crate::group`]): one encode, one symbol per node, and one repair per
//! *group* of objects instead of per object. The first healthy read of a
//! sealed group is *ranged*: it verifies only the symbol holding its bytes
//! and decodes nothing; a group read again soon after is decoded once and
//! cached. Grouping is off by default ([`DistributedStore::new`]) and
//! enabled with [`DistributedStore::with_groups`].
//!
//! A whole object and a sealed group are the same kind of thing on the
//! nodes, a *unit*: one generation-stamped frame per node. Both install
//! (quorum, pending tail), decode (`k` verified shares), repair (one share
//! re-derived) and delete (a best-effort sweep) through the same code.
//! Only two rules keep them apart, and a refactor must not merge them:
//!
//! * **Generation rebuild after a crash.** A whole object's older
//!   generation is a real predecessor value, so recovery falls back to the
//!   newest generation that `k` frames carry. A group's older generation
//!   is a failed seal of a *different* block under the same id, so
//!   adopting it would serve wrong bytes: a group takes its newest one.
//! * **Limbo parking.** Only a whole → whole overwrite replaces frames a
//!   durable log record still needs: a `StoreWhole` record carries no
//!   bytes, so its frames are its replay evidence, and they are parked
//!   until the overwrite's record is durable. A group's frames are never
//!   replaced while a record needs them (a seal replaces only the orphans
//!   of a failed one), and dropping a group takes the fsync barrier.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rain_codes::{build_code, CodeError, CodeSpec, ErasureCode, ShareSet, ShareView};
use rain_obs::{span, Recorder, Registry, VirtualClock};
use rain_sim::{DetRng, NodeId, SimDuration, SimTime};

use crate::group::{
    CodingGroup, CompactReport, Durability, FlushReport, GroupConfig, GroupDecodeCache, GroupId,
    GroupStats, ObjSpan,
};
use crate::metrics::{self, StoreMetrics, TransportMetrics};
use crate::transport::{
    open_frame, seal_frame, split_frame, DirectTransport, FaultPolicy, NodeOutcome, Transport,
    TransportError, TransportOp, TransportStats, FRAME_HEADER,
};
use crate::wal::{
    CheckpointPlacement, CheckpointState, GroupSnapshot, RecordView, WalError, WalRecord,
    WriteAheadLog,
};

pub mod shard;

/// Why a store or retrieve failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Fewer than `k` nodes were reachable.
    NotEnoughNodes {
        /// Nodes currently reachable.
        available: usize,
        /// Nodes needed.
        needed: usize,
    },
    /// The object is unknown.
    UnknownObject {
        /// The requested object id.
        object: String,
    },
    /// The underlying code rejected the operation.
    Code(CodeError),
    /// The caller asked for a node outside the cluster.
    UnknownNode(NodeId),
    /// The write-ahead log rejected an append or replay.
    Wal(WalError),
    /// Replaying the log could not rebuild a consistent store.
    Recovery {
        /// What went wrong.
        reason: String,
    },
    /// The caller named a group that does not exist or is not sealed (only
    /// sealed groups are placement units a shard can export or evict).
    UnknownGroup(GroupId),
    /// A write could not install enough symbols within the fault policy's
    /// budget to meet its ack quorum (`n - write_slack`, never below `k`).
    QuorumNotReached {
        /// Symbols that did install.
        installed: usize,
        /// Installs the quorum required.
        needed: usize,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NotEnoughNodes { available, needed } => {
                write!(f, "only {available} nodes reachable, {needed} needed")
            }
            StorageError::UnknownObject { object } => write!(f, "unknown object {object}"),
            StorageError::Code(e) => write!(f, "code error: {e}"),
            StorageError::UnknownNode(n) => write!(f, "unknown node {n}"),
            StorageError::Wal(e) => write!(f, "write-ahead log error: {e}"),
            StorageError::Recovery { reason } => write!(f, "recovery failed: {reason}"),
            StorageError::UnknownGroup(g) => write!(f, "unknown or unsealed group {g}"),
            StorageError::QuorumNotReached { installed, needed } => {
                write!(f, "only {installed} symbols installed, quorum is {needed}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<CodeError> for StorageError {
    fn from(e: CodeError) -> Self {
        StorageError::Code(e)
    }
}

impl From<WalError> for StorageError {
    fn from(e: WalError) -> Self {
        StorageError::Wal(e)
    }
}

/// How the reader chooses its `k` source nodes for a decode. A ranged read
/// of a grouped object has no choice to make: it goes to the node(s)
/// holding the object's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// The first `k` reachable nodes in node order.
    FirstK,
    /// The `k` reachable nodes that have served the fewest bytes so far.
    LeastLoaded,
    /// The `k` reachable nodes with the smallest configured distance
    /// (e.g. network latency or geographic distance).
    Nearest,
}

/// One storage node: its symbol store plus the bookkeeping used by the
/// selection policies.
#[derive(Debug, Clone, Default)]
struct StorageNode {
    up: bool,
    /// Symbols of individually stored objects, keyed by object id.
    symbols: HashMap<String, Vec<u8>>,
    /// Symbols of sealed coding groups, keyed by group id — one symbol per
    /// *group*, shared by every object packed into it.
    group_symbols: HashMap<GroupId, Vec<u8>>,
    /// Whole-object frames superseded while the superseding `StoreWhole`
    /// record was still in the un-fsynced log tail: `(object, index of
    /// that record, old frame)`, oldest first. Freed once the log reports
    /// nothing pending; [`DistributedStore::recover`] puts a frame back
    /// when its superseding record did not survive.
    limbo: Vec<(String, u64, Vec<u8>)>,
    /// Total bytes served to readers (load metric).
    bytes_served: u64,
    /// Abstract distance from the reader (nearness metric).
    distance: u64,
}

impl StorageNode {
    /// This node's frame of `unit`, if it holds one.
    fn frame(&self, unit: Unit) -> Option<&Vec<u8>> {
        match unit {
            Unit::Whole(name) => self.symbols.get(name),
            Unit::Group(gid) => self.group_symbols.get(&gid),
        }
    }

    /// This node's frame of `unit`, which the caller knows it holds (a
    /// picked holder, or a source the collection verified).
    fn held(&self, unit: Unit) -> &[u8] {
        self.frame(unit).expect("the node holds the unit")
    }

    /// Install `frame` as this node's frame of `unit`, returning the one it
    /// replaces. Overwriting an existing whole object reuses its key.
    fn put_frame(&mut self, unit: Unit, frame: Vec<u8>) -> Option<Vec<u8>> {
        match unit {
            Unit::Whole(name) => match self.symbols.get_mut(name) {
                Some(slot) => Some(std::mem::replace(slot, frame)),
                None => self.symbols.insert(name.to_string(), frame),
            },
            Unit::Group(gid) => self.group_symbols.insert(gid, frame),
        }
    }

    fn remove_frame(&mut self, unit: Unit) {
        match unit {
            Unit::Whole(name) => self.symbols.remove(name),
            Unit::Group(gid) => self.group_symbols.remove(&gid),
        };
    }
}

/// What one erasure-coded block is on the nodes: a whole object, or a
/// sealed coding group shared by its members. Both install, decode, repair
/// and delete through the same code; the module docs name the two rules
/// that keep them apart.
#[derive(Debug, Clone, Copy)]
enum Unit<'a> {
    Whole(&'a str),
    Group(GroupId),
}

/// An owned [`Unit`], for state that outlives the borrow.
#[derive(Debug, Clone)]
enum UnitKey {
    Whole(String),
    Group(GroupId),
}

impl Unit<'_> {
    fn to_key(self) -> UnitKey {
        match self {
            Unit::Whole(name) => UnitKey::Whole(name.to_string()),
            Unit::Group(gid) => UnitKey::Group(gid),
        }
    }
}

impl UnitKey {
    fn as_unit(&self) -> Unit<'_> {
        match self {
            UnitKey::Whole(name) => Unit::Whole(name),
            UnitKey::Group(gid) => Unit::Group(*gid),
        }
    }
}

/// Where a stored object's bytes live. Carrying the span here keeps the
/// grouped hot path to a single map lookup per object.
///
/// A whole placement carries no length: the frame written to the nodes is
/// self-describing (its first 8 bytes are the original length), which is
/// what lets log recovery rebuild whole entries without decoding anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// One erasure-coded object per key.
    Whole,
    /// A sub-range of a coding group's packed block.
    Grouped { group: GroupId, span: ObjSpan },
}

/// Statistics describing one retrieve operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrieveReport {
    /// The nodes whose verified shares served the read: the `k` decode
    /// sources, or, for a ranged read of a sealed group, the shares that
    /// hold the object's bytes verbatim (usually one). Empty when no node
    /// was needed: open groups, decode-cache hits, empty grouped objects.
    pub sources: Vec<NodeId>,
    /// Share payload bytes read from each source — a whole share, even when
    /// a ranged read copies out only the object's span.
    pub bytes_per_source: usize,
    /// True if **this retrieve** had fewer than `n` shares of **this
    /// object** available — because a holding node is down, a node lost the
    /// symbol (e.g. hot-swapped but not yet repaired), or the caller's
    /// allowed set excluded it — or if any node it contacted failed to
    /// deliver a verified share (see [`RetrieveReport::outcomes`]).
    /// Unrelated node failures do not mark a read of a fully available
    /// object as degraded.
    pub degraded: bool,
    /// Per-node fate of every node this retrieve contacted: which answered
    /// with a verified share, which timed out, returned damage, was down,
    /// or held a stale generation.
    ///
    /// Populated **only** when outcome capture is on — enabled by
    /// [`DistributedStore::attach_registry`] or explicitly with
    /// [`DistributedStore::set_outcome_capture`]. Otherwise (and when no
    /// node was contacted: open groups, decode-cache hits) the vector stays
    /// empty and the hot path allocates nothing for it; the aggregate
    /// breakdown is still available through the registry counters
    /// (`storage.retrieve.outcome.*`, see [`OutcomeTally::from_registry`]).
    pub outcomes: Vec<(NodeId, NodeOutcome)>,
    /// Virtual time from dispatch until the last needed share arrived —
    /// the `k`-th verified share of a decode, or the last covering share of
    /// a ranged read. A ranged attempt that failed over to a decode adds
    /// its own time. Zero under the direct transport and for reads served
    /// from coordinator memory.
    pub latency: SimDuration,
    /// True if the retrieve dispatched a hedge request (an extra share from
    /// an unused node) because its slowest needed share ran past the
    /// policy's hedge threshold.
    pub hedged: bool,
    /// Retries performed across all nodes (attempts beyond each node's
    /// first).
    pub retries: u32,
}

/// Running per-node outcome totals folded together from many
/// [`RetrieveReport`]s — the ok/timeout/corrupt/down/stale breakdown that
/// applications surface as their retrieval health (RAINVideo's playback
/// health, RAINCheck's restore health).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeTally {
    /// Node contacts that answered with a verified share.
    pub ok: u64,
    /// Node contacts that exhausted their attempts without an answer.
    pub timeout: u64,
    /// Node contacts that returned damage (caught by the share checksum).
    pub corrupt: u64,
    /// Node contacts that were down or unreachable.
    pub down: u64,
    /// Node contacts that held a stale generation of the symbol.
    pub stale: u64,
    /// Retrieves that decoded degraded (fewer than `n` verified shares).
    pub degraded_reads: u64,
    /// Retrieves that dispatched a hedge request.
    pub hedged_reads: u64,
    /// Retry attempts across all retrieves.
    pub retries: u64,
}

impl OutcomeTally {
    /// The tally as a view over a store's attached registry: reads back the
    /// `storage.retrieve.*` counters the store increments on every served
    /// retrieve. This is the allocation-free replacement for absorbing
    /// per-report outcome vectors by hand — attach one registry per
    /// component ([`DistributedStore::attach_registry`]) and derive its
    /// health tally on demand.
    pub fn from_registry(registry: &Registry) -> Self {
        OutcomeTally {
            ok: registry.counter_value(metrics::OUTCOME_OK),
            timeout: registry.counter_value(metrics::OUTCOME_TIMEOUT),
            corrupt: registry.counter_value(metrics::OUTCOME_CORRUPT),
            down: registry.counter_value(metrics::OUTCOME_DOWN),
            stale: registry.counter_value(metrics::OUTCOME_STALE),
            degraded_reads: registry.counter_value(metrics::RETRIEVE_DEGRADED),
            hedged_reads: registry.counter_value(metrics::RETRIEVE_HEDGED),
            retries: registry.counter_value(metrics::RETRIEVE_RETRIES),
        }
    }

    /// Fold one retrieve's report into the running totals. Requires the
    /// report to carry per-node outcomes
    /// ([`DistributedStore::set_outcome_capture`]); prefer
    /// [`OutcomeTally::from_registry`], which needs no capture.
    pub fn absorb(&mut self, report: &RetrieveReport) {
        for (_, outcome) in &report.outcomes {
            match outcome {
                NodeOutcome::Ok => self.ok += 1,
                NodeOutcome::Timeout => self.timeout += 1,
                NodeOutcome::Corrupt => self.corrupt += 1,
                NodeOutcome::Down => self.down += 1,
                NodeOutcome::Stale => self.stale += 1,
            }
        }
        if report.degraded {
            self.degraded_reads += 1;
        }
        if report.hedged {
            self.hedged_reads += 1;
        }
        self.retries += u64::from(report.retries);
    }
}

/// The node fabric left behind by a crashed coordinator: the per-node
/// symbol stores survive (they are separate machines), only the
/// coordinator's memory is gone. Produced by [`DistributedStore::crash`]
/// and consumed by [`DistributedStore::recover`].
#[derive(Debug)]
pub struct SurvivingNodes {
    nodes: Vec<StorageNode>,
    /// The code whose symbols the nodes hold (in a real deployment this is
    /// symbol metadata on the nodes); [`DistributedStore::recover`] checks
    /// it so a recovery under the wrong code fails loudly instead of
    /// mis-decoding.
    spec: CodeSpec,
}

impl SurvivingNodes {
    /// Number of surviving nodes (always `n`; up/down state rides along).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The spec of the code the surviving symbols were produced with.
    pub fn code_spec(&self) -> CodeSpec {
        self.spec
    }

    /// True when the fabric holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// What [`DistributedStore::recover`] rebuilt from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Complete records replayed from the log.
    pub records_replayed: usize,
    /// True if the log ended in a partially written record (tolerated: the
    /// replay stops at the last complete record).
    pub torn_tail: bool,
    /// Logged-but-never-applied whole-object stores discarded during replay
    /// (the crash hit between the log append and the symbol installs; the
    /// op was never acked, so dropping it is the correct outcome).
    pub in_doubt_discarded: usize,
    /// Objects in the rebuilt table (whole + grouped).
    pub objects_recovered: usize,
    /// Bytes rebuilt into open-group buffers straight from the log.
    pub open_bytes_recovered: usize,
    /// Compaction markers observed in the log.
    pub compactions_noted: usize,
    /// True when replay restored a checkpoint snapshot and redid only the
    /// suffix (false: the whole log was redone from genesis).
    pub checkpoint_restored: bool,
    /// Checkpoints found unrestorable — a failed embedded state checksum
    /// or failed semantic validation — each of which made recovery fall
    /// back one checkpoint further. (A *torn* newest checkpoint never
    /// appears here: its frame is cut with the tail before replay.)
    pub checkpoint_fallbacks: usize,
    /// Records redone after the restored checkpoint (equals
    /// `records_replayed` when no checkpoint was restored).
    pub records_since_checkpoint: usize,
}

/// What one [`DistributedStore::checkpoint`] call did to the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointReport {
    /// Log records dropped (the prefix before the previous checkpoint).
    pub records_dropped: u64,
    /// Frame bytes dropped with them.
    pub bytes_dropped: u64,
    /// Records remaining in the log after the drop (bounded by live state
    /// plus two checkpoint intervals — the O(live state) replay claim).
    pub records_retained: u64,
    /// Encoded size of the checkpoint record itself (frame included).
    pub checkpoint_bytes: usize,
}

/// A distributed erasure-coded object store over `n` nodes.
pub struct DistributedStore {
    code: Arc<dyn ErasureCode>,
    nodes: Vec<StorageNode>,
    objects: HashMap<String, Placement>,
    /// Reusable encode output; one flat allocation across all `store` calls.
    encode_shares: ShareSet,
    /// Reusable framed-input / decoded-output buffer.
    io_buf: Vec<u8>,
    /// Recycled block buffer handed to the next open group, so sealing one
    /// group and opening the next allocates nothing in steady state.
    spare_block: Vec<u8>,
    /// Coding-group batching knobs; `threshold == 0` disables grouping.
    group_config: GroupConfig,
    /// All tracked coding groups (one open at most, the rest sealed).
    groups: HashMap<GroupId, CodingGroup>,
    /// The group currently accepting appends, if any.
    open_group: Option<GroupId>,
    next_group_id: GroupId,
    /// Decoded group blocks, so co-located retrieves cost one decode.
    decode_cache: GroupDecodeCache,
    /// The write-ahead log, when durability is [`Durability::Logged`].
    /// Mutations are appended here **before** they are applied; `None`
    /// while a recovery replays (replayed ops must not be re-logged).
    wal: Option<WriteAheadLog>,
    /// Terminal log-device failure observed outside a caller-visible
    /// operation (an [`FsyncPolicy::EveryT`](crate::FsyncPolicy) interval
    /// commit inside [`DistributedStore::advance_time`]). Latched so the
    /// next [`log`](Self::log) / [`DistributedStore::sync_wal`] fails
    /// instead of acking writes a dead device will never persist.
    wal_failed: Option<WalError>,
    /// Checkpoints taken through this handle (explicit + automatic).
    checkpoints_taken: u64,
    /// Cumulative live-object bytes entrusted to the log (grouped appends
    /// and group imports), and the durable watermark of the same counter —
    /// their difference is [`GroupStats::bytes_unsynced`], the acked bytes
    /// a power loss would take under a relaxed fsync policy.
    group_bytes_logged: u64,
    group_bytes_durable: u64,
    /// True while [`DistributedStore::recover`] replays the log. Replay
    /// must not *remove* node symbols: a whole object's surviving symbols
    /// are the only evidence a later `StoreWhole` record has that its op
    /// was applied (the record carries no data), so destructive transitions
    /// are deferred to the post-replay reconciliation sweep.
    replaying: bool,
    /// The fate model every node-crossing operation consults (see
    /// [`crate::transport`]). [`DirectTransport`] by default, which
    /// reproduces the historical infallible direct-call semantics exactly.
    transport: Box<dyn Transport>,
    /// Deadlines, retry budget, hedging threshold, and write slack.
    policy: FaultPolicy,
    /// Deterministic randomness for backoff jitter (fixed seed: the
    /// store's behaviour must replay bit-identically).
    policy_rng: DetRng,
    /// Expected share generation per whole object. A fetched share whose
    /// frame carries any other generation is a leftover of an incomplete
    /// overwrite and is treated as an erasure, never decoded.
    whole_gens: HashMap<String, u64>,
    /// Expected share generation per sealed group (a re-seal after a
    /// failed quorum stamps a fresh generation, invalidating orphans).
    group_gens: HashMap<GroupId, u64>,
    /// Source of generation stamps: globally monotone, so a re-created
    /// object can never collide with an orphaned frame of its deleted
    /// predecessor.
    next_epoch: u64,
    /// Quorum-acked installs that have not reached their node yet, retried
    /// by [`DistributedStore::complete_writes`]. Until then the cluster
    /// holds fewer than `n` shares of the affected object — the accounting
    /// surfaces as [`GroupStats::pending_install_bytes`].
    pending: Vec<PendingInstall>,
    /// Telemetry sink for spans; disabled by default, so every guard the
    /// hot paths open is a null-check no-op.
    recorder: Recorder,
    /// Pre-registered store-level metric handles (see [`StoreMetrics`]):
    /// resolved once at attach time, no name lookups on hot paths.
    obs: StoreMetrics,
    /// Per-node fetch/install latency histograms and outcome counters.
    node_obs: TransportMetrics,
    /// When a registry is attached, the recorder's virtual clock — kept in
    /// lockstep with the transport's virtual time so span durations are
    /// deterministic simulated time, not wall time.
    obs_clock: Option<Arc<VirtualClock>>,
    /// Whether retrieves materialise [`RetrieveReport::outcomes`]. Off by
    /// default so the undisturbed hot path allocates nothing per retrieve.
    capture_outcomes: bool,
}

/// One symbol install that was acked past quorum but has not landed on its
/// node yet. The generation lets [`DistributedStore::complete_writes`] drop
/// installs superseded by a later overwrite instead of resurrecting old
/// bytes.
#[derive(Debug, Clone)]
struct PendingInstall {
    node: usize,
    unit: UnitKey,
    gen: u64,
    frame: Vec<u8>,
}

/// Result of driving one node's fetch to completion (attempts, backoff,
/// verification) in virtual time.
struct FetchResult {
    outcome: NodeOutcome,
    /// Arrival time of the verified share, measured from the operation's
    /// start; `None` unless `outcome` is [`NodeOutcome::Ok`].
    arrival: Option<SimDuration>,
    /// When this node's stream gave up or succeeded — the moment a backup
    /// node can be dispatched in its place.
    finished: SimDuration,
    attempts: u32,
}

/// Fetch one share frame from `node`, retrying per `policy`, starting at
/// virtual offset `start` within the operation. The share is *verified*
/// here: an in-flight-corrupted response is bit-damaged and run through the
/// real checksum (retryable — the stored copy is intact), an at-rest
/// damaged frame or stale generation ends the stream (a retry cannot
/// change what the node holds).
fn fetch_share(
    transport: &mut dyn Transport,
    policy: &FaultPolicy,
    rng: &mut DetRng,
    node: usize,
    frame: &[u8],
    expect_gen: u64,
    start: SimDuration,
) -> FetchResult {
    let mut t = start;
    let mut attempts = 0u32;
    while attempts < policy.max_attempts && t < policy.deadline {
        if attempts > 0 {
            t = t + policy.backoff_before_retry(attempts, rng);
            if t >= policy.deadline {
                break;
            }
        }
        let patience = policy.attempt_timeout.min(SimDuration::from_micros(
            policy.deadline.as_micros() - t.as_micros(),
        ));
        let fate = transport.attempt(node, TransportOp::Fetch, frame.len() as u64, patience);
        attempts += 1;
        match fate.outcome {
            Err(TransportError::NodeDown) | Err(TransportError::Unreachable) => {
                // Refusals and missing routes are not retried within an
                // operation: nothing changes until virtual time advances.
                return FetchResult {
                    outcome: NodeOutcome::Down,
                    arrival: None,
                    finished: t + fate.latency,
                    attempts,
                };
            }
            Err(TransportError::Lost) => {
                t = t + fate.latency;
            }
            Ok(()) if fate.latency > patience => {
                // The response exists but lands after this attempt's
                // patience: the caller has already given up on it.
                t = t + patience;
            }
            Ok(()) => {
                let arrived = t + fate.latency;
                if fate.corrupt {
                    // The response was damaged in flight. Run the *real*
                    // verifier over a bit-flipped copy — detection must
                    // come from the checksum, not from trusting the fate
                    // flag. The node's stored frame is intact, so a retry
                    // may well succeed.
                    let mut damaged = frame.to_vec();
                    let idx = rng.below(damaged.len() as u64) as usize;
                    damaged[idx] ^= 0x01;
                    debug_assert!(open_frame(&damaged).is_none());
                    if attempts >= policy.max_attempts {
                        return FetchResult {
                            outcome: NodeOutcome::Corrupt,
                            arrival: None,
                            finished: arrived,
                            attempts,
                        };
                    }
                    t = arrived;
                    continue;
                }
                return match open_frame(frame) {
                    None => FetchResult {
                        // At-rest damage: every retry returns the same
                        // broken frame, so give up on this node now.
                        outcome: NodeOutcome::Corrupt,
                        arrival: None,
                        finished: arrived,
                        attempts,
                    },
                    Some((gen, _)) if gen != expect_gen => FetchResult {
                        outcome: NodeOutcome::Stale,
                        arrival: None,
                        finished: arrived,
                        attempts,
                    },
                    Some(_) => FetchResult {
                        outcome: NodeOutcome::Ok,
                        arrival: Some(arrived),
                        finished: arrived,
                        attempts,
                    },
                };
            }
        }
    }
    FetchResult {
        outcome: NodeOutcome::Timeout,
        arrival: None,
        finished: t,
        attempts,
    }
}

/// Result of driving one symbol install to completion.
struct InstallResult {
    installed: bool,
    /// When the install was confirmed (or abandoned).
    finished: SimDuration,
}

/// Push one symbol frame to `node`, retrying per `policy`. An install whose
/// confirmation does not arrive within an attempt's patience counts as not
/// applied (the fate model ties application to confirmation), so retries
/// are safe.
fn drive_install(
    transport: &mut dyn Transport,
    policy: &FaultPolicy,
    rng: &mut DetRng,
    node: usize,
    bytes: u64,
    obs: &TransportMetrics,
) -> InstallResult {
    let r = drive_install_inner(transport, policy, rng, node, bytes);
    obs.record_install(node, r.installed, r.finished.as_micros());
    r
}

fn drive_install_inner(
    transport: &mut dyn Transport,
    policy: &FaultPolicy,
    rng: &mut DetRng,
    node: usize,
    bytes: u64,
) -> InstallResult {
    let mut t = SimDuration::ZERO;
    let mut attempts = 0u32;
    while attempts < policy.max_attempts && t < policy.deadline {
        if attempts > 0 {
            t = t + policy.backoff_before_retry(attempts, rng);
            if t >= policy.deadline {
                break;
            }
        }
        let patience = policy.attempt_timeout.min(SimDuration::from_micros(
            policy.deadline.as_micros() - t.as_micros(),
        ));
        let fate = transport.attempt(node, TransportOp::Install, bytes, patience);
        attempts += 1;
        match fate.outcome {
            Err(TransportError::NodeDown) | Err(TransportError::Unreachable) => {
                return InstallResult {
                    installed: false,
                    finished: t + fate.latency,
                };
            }
            Err(TransportError::Lost) => t = t + fate.latency,
            Ok(()) if fate.latency > patience => t = t + patience,
            Ok(()) => {
                return InstallResult {
                    installed: true,
                    finished: t + fate.latency,
                };
            }
        }
    }
    InstallResult {
        installed: false,
        finished: t,
    }
}

/// Length of the block a group of `packed_len` bytes is encoded as: padded
/// to the code's input unit, and at least one unit (a group of empty
/// objects still needs a decodable block). Each share's payload is this
/// length divided by `k`.
fn padded_block_len(code: &dyn ErasureCode, packed_len: usize) -> usize {
    let unit = code.data_len_unit();
    packed_len.div_ceil(unit).max(1) * unit
}

/// Installs required before a write acks: `n - write_slack`, floored at
/// `k` (acking below `k` would promise durability the code cannot give).
fn quorum_need(n: usize, k: usize, write_slack: usize) -> usize {
    n.saturating_sub(write_slack).max(k)
}

/// Allocation-free per-outcome totals of one share collection — the
/// aggregate the hot path always keeps, whether or not the per-node
/// [`ShareCollection::outcomes`] vector is being captured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct OutcomeCounts {
    ok: u32,
    timeout: u32,
    corrupt: u32,
    down: u32,
    stale: u32,
}

impl OutcomeCounts {
    fn note(&mut self, outcome: NodeOutcome) {
        match outcome {
            NodeOutcome::Ok => self.ok += 1,
            NodeOutcome::Timeout => self.timeout += 1,
            NodeOutcome::Corrupt => self.corrupt += 1,
            NodeOutcome::Down => self.down += 1,
            NodeOutcome::Stale => self.stale += 1,
        }
    }

    /// Contacts that failed to deliver a verified share.
    fn not_ok(&self) -> u32 {
        self.timeout + self.corrupt + self.down + self.stale
    }

    fn add(&mut self, other: OutcomeCounts) {
        self.ok += other.ok;
        self.timeout += other.timeout;
        self.corrupt += other.corrupt;
        self.down += other.down;
        self.stale += other.stale;
    }
}

/// What a virtual-parallel share collection produced.
struct ShareCollection {
    /// Node indices of the `k` earliest verified arrivals — the decode set.
    /// Empty when the operation fell short of `k`.
    used: Vec<usize>,
    /// Verified shares obtained (equals `used.len()` except on failure,
    /// where `used` is empty but this still reports how close it came).
    available: usize,
    /// Fate of every node contacted, in dispatch order. Only materialised
    /// when the collection runs with `capture` on; `counts` always holds
    /// the aggregate.
    outcomes: Vec<(NodeId, NodeOutcome)>,
    /// Per-outcome totals of every node contacted.
    counts: OutcomeCounts,
    /// Attempts beyond each node's first, summed.
    retries: u32,
    /// True if a hedge request was dispatched.
    hedged: bool,
    /// Arrival time of the `k`-th verified share (zero when short of `k`).
    latency: SimDuration,
    /// When the last contacted stream ended, delivered or not: on a
    /// collection short of `k`, the time it gave up.
    finished: SimDuration,
}

/// The fixed per-request inputs to [`collect_shares`], bundled so the wave
/// logic reads them as one unit.
struct CollectSpec<'a> {
    policy: &'a FaultPolicy,
    k: usize,
    unit: Unit<'a>,
    expect_gen: u64,
    capture: bool,
    obs: &'a TransportMetrics,
}

/// Collect `k` verified shares of `spec.unit` from `candidates`
/// (policy-ordered holders) as a virtually-parallel wave: the first `k`
/// streams dispatch at time zero; each failed stream dispatches the next
/// unused candidate at its failure time (but only if fewer than `k` shares
/// had arrived by then); and if the `k`-th share is still outstanding at
/// the hedge threshold, one extra share is requested from an unused node —
/// whichever `k` arrivals are earliest win.
fn collect_shares(
    transport: &mut dyn Transport,
    spec: &CollectSpec,
    rng: &mut DetRng,
    candidates: &[usize],
    nodes: &[StorageNode],
) -> ShareCollection {
    let &CollectSpec {
        policy,
        k,
        unit,
        expect_gen,
        capture,
        obs,
    } = spec;
    let mut col = ShareCollection {
        used: Vec::new(),
        available: 0,
        outcomes: Vec::new(),
        counts: OutcomeCounts::default(),
        retries: 0,
        hedged: false,
        latency: SimDuration::ZERO,
        finished: SimDuration::ZERO,
    };
    // (node, arrival, dispatch order). Ties in arrival time — every tie
    // under the zero-latency direct transport — resolve in dispatch order,
    // which is the selection policy's preference order.
    let mut successes: Vec<(usize, SimDuration, usize)> = Vec::new();
    let mut next = k.min(candidates.len());
    let mut queue: Vec<(usize, SimDuration)> =
        (0..next).map(|ci| (ci, SimDuration::ZERO)).collect();
    let mut qi = 0;
    while qi < queue.len() {
        let (ci, start) = queue[qi];
        let dispatch = qi;
        qi += 1;
        let node = candidates[ci];
        let frame = nodes[node].held(unit);
        let r = fetch_share(transport, policy, rng, node, frame, expect_gen, start);
        col.retries += r.attempts.saturating_sub(1);
        col.counts.note(r.outcome);
        col.finished = col.finished.max(r.finished);
        obs.record_fetch(
            node,
            matches!(r.outcome, NodeOutcome::Ok),
            r.finished.as_micros().saturating_sub(start.as_micros()),
        );
        if capture {
            col.outcomes.push((NodeId(node), r.outcome));
        }
        match r.arrival {
            Some(a) => successes.push((node, a, dispatch)),
            None => {
                // Dispatch a backup at the failure time — unless enough
                // shares had already arrived by then to finish the decode.
                let arrived_by_then = successes
                    .iter()
                    .filter(|(_, a, _)| *a <= r.finished)
                    .count();
                if arrived_by_then < k && next < candidates.len() {
                    queue.push((next, r.finished));
                    next += 1;
                }
            }
        }
    }
    col.available = successes.len();
    if successes.len() >= k {
        successes.sort_by_key(|&(_, a, d)| (a, d));
        // Hedge: if the decode would sit waiting on a slow share past the
        // threshold, ask one unused node for an extra share and let the
        // earliest k win.
        if let Some(h) = policy.hedge_after {
            if successes[k - 1].1 > h && next < candidates.len() {
                col.hedged = true;
                let node = candidates[next];
                let frame = nodes[node].held(unit);
                let r = fetch_share(transport, policy, rng, node, frame, expect_gen, h);
                col.retries += r.attempts.saturating_sub(1);
                col.counts.note(r.outcome);
                col.finished = col.finished.max(r.finished);
                obs.record_fetch(
                    node,
                    matches!(r.outcome, NodeOutcome::Ok),
                    r.finished.as_micros().saturating_sub(h.as_micros()),
                );
                if capture {
                    col.outcomes.push((NodeId(node), r.outcome));
                }
                if let Some(a) = r.arrival {
                    successes.push((node, a, queue.len()));
                    successes.sort_by_key(|&(_, a, d)| (a, d));
                    col.available += 1;
                }
            }
        }
        col.latency = successes[k - 1].1;
        col.used = successes[..k].iter().map(|&(node, _, _)| node).collect();
    }
    col
}

/// What a read fetched from the nodes: the sources and transport fates of a
/// unit's decode ([`DistributedStore::decode_unit`]) or of a ranged read.
#[derive(Default)]
struct UnitFetch {
    sources: Vec<usize>,
    bytes_per_source: usize,
    degraded: bool,
    outcomes: Vec<(NodeId, NodeOutcome)>,
    counts: OutcomeCounts,
    latency: SimDuration,
    hedged: bool,
    retries: u32,
    /// Shares that passed verification (checksum, generation, length).
    verified: usize,
}

impl UnitFetch {
    /// Fold in a ranged attempt that failed before this fetch started: its
    /// contacts come first, its time adds to the latency, and a contact
    /// that failed to deliver makes the read degraded. `hedged` is this
    /// fetch's alone: a ranged attempt has no spare node to hedge to.
    fn after(mut self, attempt: UnitFetch) -> UnitFetch {
        let mut outcomes = attempt.outcomes;
        outcomes.append(&mut self.outcomes);
        self.outcomes = outcomes;
        self.counts.add(attempt.counts);
        self.degraded |= attempt.counts.not_ok() > 0;
        self.latency = attempt.latency + self.latency;
        self.retries += attempt.retries;
        self.verified += attempt.verified;
        self
    }

    fn into_report(self) -> RetrieveReport {
        RetrieveReport {
            sources: self.sources.into_iter().map(NodeId).collect(),
            bytes_per_source: self.bytes_per_source,
            degraded: self.degraded,
            outcomes: self.outcomes,
            latency: self.latency,
            hedged: self.hedged,
            retries: self.retries,
        }
    }
}

/// How a ranged read of a sealed group ended.
enum Ranged {
    /// The span's bytes, copied out of verified covering shares.
    Served(Vec<u8>, UnitFetch),
    /// A covering node failed to deliver: what the attempt cost, and the
    /// covering nodes it asked.
    Failed(UnitFetch, Vec<usize>),
}

impl DistributedStore {
    /// Create a store over `code.n()` nodes using the given erasure code.
    /// Coding-group batching is disabled; every object is stored
    /// individually (see [`DistributedStore::with_groups`]).
    pub fn new(code: Arc<dyn ErasureCode>) -> Self {
        Self::with_groups(code, GroupConfig::disabled())
    }

    /// Create a store with coding-group batching: objects strictly smaller
    /// than `config.threshold` bytes are packed into shared groups. With
    /// [`Durability::Logged`] the store writes ahead to an in-memory log
    /// (supply your own backend with [`DistributedStore::with_wal`]).
    pub fn with_groups(code: Arc<dyn ErasureCode>, config: GroupConfig) -> Self {
        let wal = match config.durability {
            Durability::Logged => Some(WriteAheadLog::in_memory()),
            Durability::Volatile => None,
        };
        let mut store = Self::bare(code, config);
        store.wal = wal;
        store
    }

    /// Create a store that writes ahead to `backend` before applying any
    /// group-affecting mutation (durability is forced to
    /// [`Durability::Logged`]). After a coordinator crash, hand the
    /// surviving log to [`DistributedStore::recover`].
    pub fn with_wal(
        code: Arc<dyn ErasureCode>,
        mut config: GroupConfig,
        backend: Box<dyn crate::wal::LogBackend>,
    ) -> Self {
        config.durability = Durability::Logged;
        let mut store = Self::bare(code, config);
        store.wal = Some(WriteAheadLog::new(backend));
        store
    }

    /// Create a store whose write-ahead log lives in the file at `path`
    /// (created if absent, appended to if present), synced according to
    /// `config.fsync`. To *reuse* an existing log's contents, recover
    /// through [`DistributedStore::recover`] instead — this constructor
    /// appends after whatever the file already holds without replaying it.
    pub fn with_wal_file(
        code: Arc<dyn ErasureCode>,
        config: GroupConfig,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, StorageError> {
        let file =
            crate::wal::file::FileLog::open(path, config.fsync).map_err(StorageError::Wal)?;
        Ok(Self::with_wal(code, config, Box::new(file)))
    }

    /// Create a store whose write-ahead log is a *segmented* directory at
    /// `dir`: sealed `wal.NNNNNN.seg` files of roughly
    /// `config.segment_bytes` bytes each (64 KiB if the knob is `0`), so
    /// checkpoint truncation unlinks whole segments instead of rewriting
    /// the log. Like [`DistributedStore::with_wal_file`], this appends
    /// after existing contents without replaying them — recover through
    /// [`DistributedStore::recover`] to reuse a previous run's log.
    pub fn with_wal_segments(
        code: Arc<dyn ErasureCode>,
        config: GroupConfig,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<Self, StorageError> {
        let seg = if config.segment_bytes > 0 {
            config.segment_bytes
        } else {
            64 * 1024
        };
        let file = crate::wal::file::FileLog::open_segmented(dir, config.fsync, seg)
            .map_err(StorageError::Wal)?;
        Ok(Self::with_wal(code, config, Box::new(file)))
    }

    /// The common constructor core: no log attached.
    fn bare(code: Arc<dyn ErasureCode>, config: GroupConfig) -> Self {
        let n = code.n();
        DistributedStore {
            code,
            nodes: (0..n)
                .map(|i| StorageNode {
                    up: true,
                    distance: i as u64,
                    ..StorageNode::default()
                })
                .collect(),
            objects: HashMap::new(),
            encode_shares: ShareSet::new(),
            io_buf: Vec::new(),
            spare_block: Vec::new(),
            group_config: config,
            groups: HashMap::new(),
            open_group: None,
            next_group_id: 0,
            decode_cache: GroupDecodeCache::default(),
            wal: None,
            wal_failed: None,
            checkpoints_taken: 0,
            group_bytes_logged: 0,
            group_bytes_durable: 0,
            replaying: false,
            transport: Box::new(DirectTransport::new()),
            policy: FaultPolicy::default(),
            policy_rng: DetRng::new(0x5eed_0fba_c0ff_ee00),
            whole_gens: HashMap::new(),
            group_gens: HashMap::new(),
            next_epoch: 1,
            pending: Vec::new(),
            recorder: Recorder::disabled(),
            obs: StoreMetrics::default(),
            node_obs: TransportMetrics::default(),
            obs_clock: None,
            capture_outcomes: false,
        }
    }

    /// Create a store from a serializable code description.
    pub fn from_spec(spec: CodeSpec) -> Result<Self, StorageError> {
        Ok(Self::new(build_code(spec)?))
    }

    /// Create a grouped store from a serializable code description.
    pub fn from_spec_grouped(spec: CodeSpec, config: GroupConfig) -> Result<Self, StorageError> {
        Ok(Self::with_groups(build_code(spec)?, config))
    }

    /// The grouping configuration in effect.
    pub fn group_config(&self) -> GroupConfig {
        self.group_config
    }

    /// The erasure code in use.
    pub fn code(&self) -> &dyn ErasureCode {
        self.code.as_ref()
    }

    /// Number of storage nodes (`n`).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes currently up.
    pub fn nodes_up(&self) -> usize {
        self.nodes.iter().filter(|n| n.up).count()
    }

    /// Objects currently stored.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Total bytes served by a node so far.
    pub fn bytes_served(&self, node: NodeId) -> u64 {
        self.nodes.get(node.0).map(|n| n.bytes_served).unwrap_or(0)
    }

    /// Set the abstract distance of a node (used by [`SelectionPolicy::Nearest`]).
    pub fn set_distance(&mut self, node: NodeId, distance: u64) -> Result<(), StorageError> {
        self.nodes
            .get_mut(node.0)
            .ok_or(StorageError::UnknownNode(node))?
            .distance = distance;
        Ok(())
    }

    /// Mark a node as failed (its symbols become unreachable).
    pub fn fail_node(&mut self, node: NodeId) -> Result<(), StorageError> {
        self.nodes
            .get_mut(node.0)
            .ok_or(StorageError::UnknownNode(node))?
            .up = false;
        Ok(())
    }

    /// Mark a node as recovered (its symbols become reachable again).
    pub fn recover_node(&mut self, node: NodeId) -> Result<(), StorageError> {
        self.nodes
            .get_mut(node.0)
            .ok_or(StorageError::UnknownNode(node))?
            .up = true;
        Ok(())
    }

    /// Hot-swap: replace a node with a blank machine. The node comes back up
    /// with no symbols; [`DistributedStore::repair_node`] re-derives them.
    pub fn replace_node(&mut self, node: NodeId) -> Result<(), StorageError> {
        let slot = self
            .nodes
            .get_mut(node.0)
            .ok_or(StorageError::UnknownNode(node))?;
        slot.up = true;
        slot.symbols.clear();
        slot.group_symbols.clear();
        slot.limbo.clear();
        slot.bytes_served = 0;
        Ok(())
    }

    /// Replace the transport every node-crossing operation goes through.
    /// The default is [`DirectTransport`]; install a
    /// [`ChaosTransport`](crate::ChaosTransport) or
    /// [`SimNetTransport`](crate::SimNetTransport) to exercise the failure
    /// policy.
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    /// Builder form of [`DistributedStore::set_transport`].
    pub fn with_transport(mut self, transport: Box<dyn Transport>) -> Self {
        self.transport = transport;
        self
    }

    /// Set the failure policy (deadlines, retries, hedging, write slack).
    pub fn set_policy(&mut self, policy: FaultPolicy) {
        self.policy = policy;
    }

    /// The failure policy in effect.
    pub fn policy(&self) -> FaultPolicy {
        self.policy
    }

    /// Counters accumulated by the transport so far.
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// The transport's current virtual time.
    pub fn transport_now(&self) -> SimTime {
        self.transport.now()
    }

    /// Attach a telemetry registry: every store/retrieve/seal/compact/repair
    /// from here on records spans, counters, and latency histograms into it
    /// (names under `storage.*`, spans under `span.store.*`). The recorder's
    /// clock is a [`VirtualClock`] kept in lockstep with the transport's
    /// virtual time, so a deterministic simulation renders bit-identical
    /// span trees and histograms on every run. Also enables per-report
    /// outcome capture (see [`DistributedStore::set_outcome_capture`]).
    pub fn attach_registry(&mut self, registry: &Registry) {
        let clock = Arc::new(VirtualClock::new());
        clock.set_micros(self.transport.now().as_micros());
        self.recorder = Recorder::new(registry.clone(), clock.clone());
        self.obs_clock = Some(clock);
        self.obs = StoreMetrics::new(registry);
        self.node_obs = TransportMetrics::new(registry, self.nodes.len());
        self.capture_outcomes = true;
    }

    /// Install a caller-built recorder — e.g. one on a
    /// [`rain_obs::WallClock`] for live profiling, or
    /// [`Recorder::disabled`] to switch telemetry off again. Unlike
    /// [`DistributedStore::attach_registry`] the clock is the caller's and
    /// is *not* synced to virtual time.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        match recorder.registry() {
            Some(registry) => {
                self.obs = StoreMetrics::new(registry);
                self.node_obs = TransportMetrics::new(registry, self.nodes.len());
            }
            None => {
                self.obs = StoreMetrics::default();
                self.node_obs = TransportMetrics::default();
            }
        }
        self.obs_clock = None;
        self.recorder = recorder;
    }

    /// The recorder currently attached ([`Recorder::disabled`] by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Opt in or out of materialising [`RetrieveReport::outcomes`]. Off by
    /// default (the hot path then allocates nothing per retrieve);
    /// [`DistributedStore::attach_registry`] switches it on.
    pub fn set_outcome_capture(&mut self, capture: bool) {
        self.capture_outcomes = capture;
    }

    /// Publish the point-in-time state metrics into the attached registry
    /// as gauges: group/WAL/pending accounting from
    /// [`DistributedStore::group_stats`] (`storage.group.*`,
    /// `storage.wal.*`, `storage.pending.*`) and the code's repair-row
    /// cache counters (`codes.repair_rows.*`). A no-op without a registry.
    /// Call it at a reporting boundary (end of a scenario, before a
    /// snapshot); counters and histograms need no such call.
    pub fn publish_gauges(&self) {
        let Some(registry) = self.recorder.registry() else {
            return;
        };
        let stats = self.group_stats();
        registry
            .gauge("storage.group.groups")
            .set(stats.groups as i64);
        registry
            .gauge("storage.group.sealed_groups")
            .set(stats.sealed_groups as i64);
        registry
            .gauge("storage.group.grouped_objects")
            .set(stats.grouped_objects as i64);
        registry
            .gauge("storage.group.live_bytes")
            .set(stats.live_bytes as i64);
        registry
            .gauge("storage.group.packed_bytes")
            .set(stats.packed_bytes as i64);
        registry
            .gauge("storage.group.open_bytes")
            .set(stats.open_bytes as i64);
        registry
            .gauge("storage.group.bytes_at_risk")
            .set(stats.bytes_at_risk as i64);
        registry
            .gauge("storage.wal.records")
            .set(stats.wal_records as i64);
        registry
            .gauge("storage.wal.bytes")
            .set(stats.wal_bytes as i64);
        registry
            .gauge("storage.wal.failed")
            .set(i64::from(self.wal_failed.is_some()));
        registry
            .gauge("storage.pending.installs")
            .set(stats.pending_installs as i64);
        registry
            .gauge("storage.pending.bytes")
            .set(stats.pending_install_bytes as i64);
        let code = self.code.runtime_metrics();
        registry
            .gauge("codes.repair_rows.hits")
            .set(code.repair_row_hits as i64);
        registry
            .gauge("codes.repair_rows.misses")
            .set(code.repair_row_misses as i64);
        registry
            .gauge("codes.repair_rows.cached")
            .set(code.repair_rows_cached as i64);
    }

    /// Push the transport's virtual time into the recorder's clock, so
    /// spans closing after this observe the advanced time.
    fn sync_obs_clock(&self) {
        if let Some(clock) = &self.obs_clock {
            clock.set_micros(self.transport.now().as_micros());
        }
    }

    /// Advance the transport and keep the telemetry clock in lockstep —
    /// every internal advance goes through here.
    fn advance_transport(&mut self, by: SimDuration) {
        self.transport.advance(by);
        self.sync_obs_clock();
    }

    /// Fold one *served* retrieve's per-node outcome totals into the
    /// registry counters backing [`OutcomeTally::from_registry`]. Called
    /// only where a successful [`RetrieveReport`] is produced, mirroring
    /// what apps historically fed to [`OutcomeTally::absorb`].
    fn note_outcomes(&self, counts: OutcomeCounts) {
        self.obs.outcome_ok.add(u64::from(counts.ok));
        self.obs.outcome_timeout.add(u64::from(counts.timeout));
        self.obs.outcome_corrupt.add(u64::from(counts.corrupt));
        self.obs.outcome_down.add(u64::from(counts.down));
        self.obs.outcome_stale.add(u64::from(counts.stale));
    }

    /// Advance the transport's virtual clock (firing any scheduled faults
    /// that come due). Operations already advance the clock by their own
    /// latency; scenario drivers call this for idle time between requests.
    pub fn advance_time(&mut self, by: SimDuration) {
        self.advance_transport(by);
        if let Some(wal) = &mut self.wal {
            match wal.advance_clock(by) {
                // A transient failed interval commit keeps its bytes
                // pending; the next append, sync, or tick retries, so the
                // error needs no surface here (pending_bytes stays honest
                // either way).
                Ok(()) | Err(WalError::Backend(_)) | Err(WalError::Corrupt { .. }) => {}
                // A dead device never comes back: without a latch the
                // store would ack every in-window append forever while
                // nothing reaches disk. Remember the failure and fail the
                // next caller-visible log operation instead.
                Err(err @ WalError::Crashed) => {
                    if self.wal_failed.is_none() {
                        self.wal_failed = Some(err);
                    }
                }
            }
        }
        self.reclaim_if_durable();
    }

    /// Failure detector: probe every node through the transport and report
    /// which answered within one attempt timeout. Purely observational —
    /// the coordinator's up/down view is not modified, so a caller can
    /// reconcile the two on its own terms (e.g. only after consecutive
    /// missed probes).
    pub fn probe_nodes(&mut self) -> Vec<(NodeId, bool)> {
        let patience = self.policy.attempt_timeout;
        (0..self.nodes.len())
            .map(|i| {
                let fate = self.transport.attempt(i, TransportOp::Probe, 0, patience);
                let reachable = fate.outcome.is_ok() && fate.latency <= patience;
                (NodeId(i), reachable)
            })
            .collect()
    }

    /// Retry every pending (quorum-acked but not yet installed) symbol
    /// install. Installs superseded by a later overwrite, delete, or
    /// re-seal are dropped, not resurrected. Returns `(landed, remaining)`.
    pub fn complete_writes(&mut self) -> (usize, usize) {
        let mut landed = 0;
        let mut keep = Vec::new();
        for p in std::mem::take(&mut self.pending) {
            let unit = p.unit.as_unit();
            let live = match unit {
                Unit::Whole(name) => matches!(self.objects.get(name), Some(Placement::Whole)),
                Unit::Group(gid) => self.groups.get(&gid).is_some_and(|g| g.sealed),
            };
            if !live || self.expected_gen(unit) != p.gen {
                continue;
            }
            let drive = drive_install(
                self.transport.as_mut(),
                &self.policy,
                &mut self.policy_rng,
                p.node,
                p.frame.len() as u64,
                &self.node_obs,
            );
            if drive.installed {
                self.nodes[p.node].put_frame(unit, p.frame);
                landed += 1;
            } else {
                keep.push(p);
            }
        }
        let remaining = keep.len();
        self.pending = keep;
        (landed, remaining)
    }

    /// Append a record to the write-ahead log, if one is attached. Called
    /// **before** the mutation it describes is applied (log-then-apply);
    /// replay runs with the log detached so redone ops are not re-logged.
    fn log(&mut self, record: RecordView<'_>) -> Result<(), StorageError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        if let Some(err) = &self.wal_failed {
            return Err(StorageError::Wal(err.clone()));
        }
        // Auto-checkpoint fires *before* the record that trips the
        // interval: the snapshot describes the applied state, which at
        // this point does not yet include `record`'s mutation, and the
        // snapshot must precede the record in the log or replay from it
        // would lose the record.
        let every = self.group_config.checkpoint_every;
        if every > 0 && wal.since_checkpoint() >= every {
            self.checkpoint()?;
        }
        // Group payload bytes this record puts at risk until the log
        // syncs: the buffered bytes a replayed open group is rebuilt from.
        let at_risk = match record {
            RecordView::StoreGrouped { bytes, .. } => bytes.len() as u64,
            RecordView::GroupImport { bytes, .. } => bytes.len() as u64,
            _ => 0,
        };
        let wal = self.wal.as_mut().expect("checked above");
        let before = wal.bytes_appended();
        wal.append_view(record)?;
        self.obs.wal_appends.inc();
        self.obs
            .wal_append_bytes
            .add(wal.bytes_appended().saturating_sub(before));
        self.group_bytes_logged += at_risk;
        self.reclaim_if_durable();
        Ok(())
    }

    /// Flush any batched log appends to durable storage (a no-op for
    /// backends without a sync step). Under a relaxed
    /// [`FsyncPolicy`](crate::wal::file::FsyncPolicy) this
    /// is the caller's "make everything acked so far crash-proof" lever.
    pub fn sync_wal(&mut self) -> Result<(), StorageError> {
        if let Some(err) = &self.wal_failed {
            if self.wal.is_some() {
                return Err(StorageError::Wal(err.clone()));
            }
        }
        if let Some(wal) = &mut self.wal {
            wal.sync()?;
        }
        self.reclaim_if_durable();
        Ok(())
    }

    /// The terminal log-device failure latched by a background interval
    /// commit (see [`DistributedStore::advance_time`]), if any. While set,
    /// every append and [`DistributedStore::sync_wal`] fails with it; the
    /// `storage.wal.failed` gauge mirrors it as `0`/`1`.
    pub fn wal_failed(&self) -> Option<&WalError> {
        self.wal_failed.as_ref()
    }

    /// Called wherever the log may just have drained its un-fsynced tail.
    /// With nothing pending every record appended so far is durable, so
    /// the group-bytes watermark catches up and parked frames are freed:
    /// the records that superseded them can no longer be lost.
    fn reclaim_if_durable(&mut self) {
        if self.wal.as_ref().is_some_and(|w| w.pending_bytes() == 0) {
            self.group_bytes_durable = self.group_bytes_logged;
            for node in &mut self.nodes {
                node.limbo.clear();
            }
        }
    }

    /// The log index of the record just appended, when that record is
    /// still in the un-fsynced tail — the tag a frame it supersedes is
    /// parked under. `None` (destroy the old frame outright) when the
    /// record is already durable, always the case under
    /// `FsyncPolicy::Always`, and during replay.
    fn park_tag(&self) -> Option<u64> {
        let wal = self.wal.as_ref().filter(|_| !self.replaying)?;
        (wal.pending_bytes() > 0).then(|| wal.records_appended() - 1)
    }

    /// Durability barrier before destroying node-resident state that
    /// durable log records may still need as replay evidence (a deleted
    /// whole object's symbols, a dead sealed group's symbols). Under a
    /// relaxed [`crate::FsyncPolicy`] the superseding record can still be
    /// sitting in the group-commit buffer; destroying the old state first
    /// would leave a power loss with neither the old bytes nor the record
    /// that replaced them — the fsynced prefix would no longer replay
    /// bit-exact. A no-op when nothing is pending (always the case under
    /// `FsyncPolicy::Always`) and during replay. Whole -> whole overwrites
    /// park instead (see `StorageNode::limbo`); the rarer destructive
    /// applies still pay this fsync.
    fn destructive_apply_barrier(&mut self) -> Result<(), StorageError> {
        if self.replaying {
            return Ok(());
        }
        if let Some(wal) = &mut self.wal {
            if wal.pending_bytes() > 0 {
                wal.sync()?;
            }
        }
        self.reclaim_if_durable();
        Ok(())
    }

    /// Snapshot the coordinator's logical state into the log and drop the
    /// prefix older checkpoints made redundant, bounding replay to
    /// O(live state + suffix). The snapshot covers the object table, group
    /// directory, and open-group buffers — never node symbol bytes (sealed
    /// data is erasure-coded on the nodes; duplicating it would make the
    /// log grow with stored data instead of live coordinator state).
    ///
    /// Retention is the log's two-checkpoint rule: the prefix before the
    /// *previous* checkpoint is dropped, not the one before this call's.
    ///
    /// A no-op returning a default report when no log is attached.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, StorageError> {
        if self.wal.is_none() {
            return Ok(CheckpointReport::default());
        }
        let state = self.checkpoint_state();
        let wal = self.wal.as_mut().expect("checked above");
        let before = wal.bytes_appended();
        // Returns once the checkpoint is durable.
        wal.append_view(RecordView::Checkpoint { state: &state })?;
        let checkpoint_bytes = (wal.bytes_appended() - before) as usize;
        self.obs.wal_appends.inc();
        self.obs.wal_append_bytes.add(checkpoint_bytes as u64);
        // Reclaiming here, before the drop renumbers the log, keeps every
        // limbo tag in the numbering it was taken in.
        self.reclaim_if_durable();
        let wal = self.wal.as_mut().expect("still attached");
        let (records_dropped, bytes_dropped) = wal.drop_superseded()?;
        self.checkpoints_taken += 1;
        Ok(CheckpointReport {
            records_dropped,
            bytes_dropped,
            records_retained: wal.records_appended(),
            checkpoint_bytes,
        })
    }

    /// Capture the coordinator's logical state for a checkpoint record.
    /// Objects are sorted by name and groups by id so equal states encode
    /// to equal bytes.
    fn checkpoint_state(&self) -> CheckpointState {
        let mut objects: Vec<(String, CheckpointPlacement)> = self
            .objects
            .iter()
            .map(|(name, placement)| {
                let placement = match placement {
                    Placement::Whole => CheckpointPlacement::Whole,
                    Placement::Grouped { group, span } => CheckpointPlacement::Grouped {
                        group: *group,
                        span: *span,
                    },
                };
                (name.clone(), placement)
            })
            .collect();
        objects.sort_by(|a, b| a.0.cmp(&b.0));
        let mut groups: Vec<GroupSnapshot> = self
            .groups
            .iter()
            .map(|(&gid, g)| GroupSnapshot {
                group: gid,
                sealed: g.sealed,
                packed_len: g.packed_len,
                live_bytes: g.live_bytes,
                live_objects: g.live_objects,
                // Sealed blocks live erasure-coded on the nodes; only the
                // open buffer exists nowhere but coordinator memory.
                data: if g.sealed { Vec::new() } else { g.data.clone() },
            })
            .collect();
        groups.sort_by_key(|g| g.group);
        CheckpointState {
            next_group_id: self.next_group_id,
            open_group: self.open_group,
            objects,
            groups,
        }
    }

    /// Install a decoded checkpoint snapshot as the store's logical state.
    /// Validates the whole snapshot before touching anything, so a failure
    /// leaves the store exactly as it was (recovery then falls back to an
    /// earlier checkpoint or a from-genesis replay).
    fn restore_from_checkpoint(&mut self, state: &CheckpointState) -> Result<(), StorageError> {
        let invalid = |reason: String| StorageError::Recovery { reason };
        let mut seen = std::collections::HashSet::new();
        for g in &state.groups {
            if !seen.insert(g.group) {
                return Err(invalid(format!("checkpoint repeats group {}", g.group)));
            }
            if g.group >= state.next_group_id {
                return Err(invalid(format!(
                    "checkpoint group {} is at or past next_group_id {}",
                    g.group, state.next_group_id
                )));
            }
            if g.sealed && !g.data.is_empty() {
                return Err(invalid(format!(
                    "checkpoint sealed group {} carries block bytes",
                    g.group
                )));
            }
            if !g.sealed && g.data.len() != g.packed_len {
                return Err(invalid(format!(
                    "checkpoint open group {} has {} block bytes for packed_len {}",
                    g.group,
                    g.data.len(),
                    g.packed_len
                )));
            }
            if g.live_bytes > g.packed_len {
                return Err(invalid(format!(
                    "checkpoint group {} claims {} live of {} packed bytes",
                    g.group, g.live_bytes, g.packed_len
                )));
            }
        }
        if let Some(open) = state.open_group {
            let Some(g) = state.groups.iter().find(|g| g.group == open) else {
                return Err(invalid(format!(
                    "checkpoint open group {open} is not in the group directory"
                )));
            };
            if g.sealed {
                return Err(invalid(format!("checkpoint open group {open} is sealed")));
            }
        }
        let mut names = std::collections::HashSet::new();
        for (name, placement) in &state.objects {
            if !names.insert(name.as_str()) {
                return Err(invalid(format!("checkpoint repeats object {name:?}")));
            }
            if let CheckpointPlacement::Grouped { group, span } = placement {
                let Some(g) = state.groups.iter().find(|g| g.group == *group) else {
                    return Err(invalid(format!(
                        "checkpoint object {name:?} references unknown group {group}"
                    )));
                };
                if span.offset + span.len > g.packed_len {
                    return Err(invalid(format!(
                        "checkpoint object {name:?} span ends at {} in group {} of \
                         packed_len {}",
                        span.offset + span.len,
                        group,
                        g.packed_len
                    )));
                }
            }
        }
        // Validated — apply.
        self.objects = state
            .objects
            .iter()
            .map(|(name, placement)| {
                let placement = match placement {
                    CheckpointPlacement::Whole => Placement::Whole,
                    CheckpointPlacement::Grouped { group, span } => Placement::Grouped {
                        group: *group,
                        span: *span,
                    },
                };
                (name.clone(), placement)
            })
            .collect();
        self.groups = state
            .groups
            .iter()
            .map(|g| {
                (
                    g.group,
                    CodingGroup {
                        data: g.data.clone(),
                        packed_len: g.packed_len,
                        live_bytes: g.live_bytes,
                        live_objects: g.live_objects,
                        sealed: g.sealed,
                    },
                )
            })
            .collect();
        self.open_group = state.open_group;
        self.next_group_id = state.next_group_id;
        Ok(())
    }

    /// The open group's id, opening a fresh group if none is accepting
    /// appends. Creating the (empty) container is not itself logged:
    /// replay re-opens groups on their first logged append, using the same
    /// deterministic ids.
    fn ensure_open_group(&mut self) -> GroupId {
        match self.open_group {
            Some(gid) => gid,
            None => {
                let gid = self.next_group_id;
                self.next_group_id += 1;
                let buffer = std::mem::take(&mut self.spare_block);
                self.groups
                    .insert(gid, CodingGroup::open_with_buffer(buffer));
                self.open_group = Some(gid);
                gid
            }
        }
    }

    /// Store a block under `object`. Objects strictly smaller than the
    /// grouping threshold are appended to the open coding group (encoded
    /// when the group seals — see [`DistributedStore::flush`]); everything
    /// else is encoded individually, padded to the code's input unit. The
    /// original length is recovered on retrieve either way. Storing an
    /// existing key overwrites it (tombstoning the old copy if grouped).
    ///
    /// With [`Durability::Logged`] the mutation is appended to the
    /// write-ahead log before any state changes, so an acked store survives
    /// a coordinator crash (grouped objects ride in the log until their
    /// group seals; whole objects are durable on the nodes the moment this
    /// returns).
    pub fn store(&mut self, object: &str, data: &[u8]) -> Result<(), StorageError> {
        let _span = span!(self.recorder, "store.store", bytes = data.len() as u64);
        self.obs.store_ops.inc();
        self.obs.store_bytes.add(data.len() as u64);
        let grouped = self.group_config.threshold > 0 && data.len() < self.group_config.threshold;
        // Records are borrowed views serialized straight into the log's
        // frame buffer: the Volatile hot path allocates nothing for them,
        // and a logged store copies the payload once (into the frame).
        if grouped {
            let gid = self.ensure_open_group();
            self.log(RecordView::StoreGrouped {
                object,
                group: gid,
                bytes: data,
            })?;
            self.apply_store_grouped(object, data, gid)
        } else {
            self.log(RecordView::StoreWhole { object })?;
            self.apply_store_whole(object, data)
        }
    }

    /// The individual-object path: retire the old copy, then frame, encode,
    /// one symbol per node.
    fn apply_store_whole(&mut self, object: &str, data: &[u8]) -> Result<(), StorageError> {
        // Frame: original length (8 bytes LE) + data, padded to the unit.
        // Both the framed input and the encoded shares go through reusable
        // buffers — a steady-state store loop allocates only the per-node
        // symbol copies the nodes keep.
        let unit = self.code.data_len_unit();
        {
            let _frame = span!(self.recorder, "store.store.frame");
            self.io_buf.clear();
            self.io_buf
                .extend_from_slice(&(data.len() as u64).to_le_bytes());
            self.io_buf.extend_from_slice(data);
            let pad = (unit - self.io_buf.len() % unit) % unit;
            self.io_buf.extend(std::iter::repeat_n(0u8, pad));
        }

        // The fallible encode runs before any state changes: a failed
        // encode must not have tombstoned the grouped predecessor (the
        // object table would point at a possibly-dropped group).
        {
            let _encode = span!(
                self.recorder,
                "store.store.encode",
                bytes = self.io_buf.len() as u64
            );
            self.code
                .encode_into(&self.io_buf, &mut self.encode_shares)?;
        }
        // A grouped predecessor is tombstoned; a whole one is replaced
        // frame by frame below. Its old frames are the durable predecessor
        // record's replay evidence, so while this op's record is
        // un-fsynced they are parked, not dropped.
        if let Some(&Placement::Grouped { group, span }) = self.objects.get(object) {
            self.tombstone_member(group, span)?;
        }
        let park = self.park_tag();
        self.install_unit(Unit::Whole(object), park)?;
        self.objects.insert(object.to_string(), Placement::Whole);
        Ok(())
    }

    /// The expected share generation of `unit` (0 when none is known, which
    /// no frame carries).
    fn expected_gen(&self, unit: Unit) -> u64 {
        match unit {
            Unit::Whole(name) => self.whole_gens.get(name),
            Unit::Group(gid) => self.group_gens.get(&gid),
        }
        .copied()
        .unwrap_or(0)
    }

    /// Install the shares in `encode_shares` as `unit`: one frame per node,
    /// stamped with a fresh generation, through the transport. Failures
    /// past the ack quorum are queued for background completion. Short of
    /// quorum the op fails and the queued tail is withdrawn, since an
    /// unacked op must not complete itself later; frames that did land are
    /// orphans whose stale generation no decode accepts. On success the new
    /// generation becomes the expected one, and the clock advances to the
    /// quorum-th confirmation. Returns the installs that landed.
    ///
    /// With `park` set (whole objects only, see `StorageNode::limbo`), a
    /// replaced frame is parked under that log index instead of dropped.
    fn install_unit(&mut self, unit: Unit, park: Option<u64>) -> Result<usize, StorageError> {
        let gen = self.next_epoch;
        self.next_epoch += 1;
        let n = self.nodes.len();
        let quorum = quorum_need(n, self.code.k(), self.policy.write_slack);
        let mut installed = 0usize;
        let mut finishes: Vec<SimDuration> = Vec::new();
        let queued_from = self.pending.len();
        // A whole store times its installs as a phase of its own; a seal's
        // are part of `store.seal`.
        let mut install_span = match unit {
            Unit::Whole(_) => span!(self.recorder, "store.store.install"),
            Unit::Group(_) => Recorder::disabled().span("store.seal.install"),
        };
        for i in 0..n {
            let frame = seal_frame(gen, self.encode_shares.share(i));
            let drive = drive_install(
                self.transport.as_mut(),
                &self.policy,
                &mut self.policy_rng,
                i,
                frame.len() as u64,
                &self.node_obs,
            );
            if drive.installed {
                let old = self.nodes[i].put_frame(unit, frame);
                if let (Some(tag), Some(old), Unit::Whole(name)) = (park, old, unit) {
                    self.nodes[i].limbo.push((name.to_string(), tag, old));
                }
                installed += 1;
                finishes.push(drive.finished);
            } else {
                self.pending.push(PendingInstall {
                    node: i,
                    unit: unit.to_key(),
                    gen,
                    frame,
                });
            }
        }
        install_span.field("installed", installed as u64);
        if installed < quorum {
            self.pending.truncate(queued_from);
            self.advance_transport(self.policy.deadline);
            self.obs.quorum_failures.inc();
            return Err(StorageError::QuorumNotReached {
                installed,
                needed: quorum,
            });
        }
        finishes.sort();
        self.advance_transport(finishes[quorum - 1]);
        match unit {
            Unit::Whole(name) => self.whole_gens.insert(name.to_string(), gen),
            Unit::Group(gid) => self.group_gens.insert(gid, gen),
        };
        Ok(installed)
    }

    /// The batched path: retire the old copy, append to open group `gid`,
    /// seal it when full. `gid` comes from [`DistributedStore::ensure_open_group`]
    /// (or, during replay, from the logged record).
    fn apply_store_grouped(
        &mut self,
        object: &str,
        data: &[u8],
        gid: GroupId,
    ) -> Result<(), StorageError> {
        self.retire_for_grouped(object)?;
        let group = self.groups.get_mut(&gid).expect("open group exists");
        let span = group.append(data);
        let full = group.packed_len >= self.group_config.capacity;
        let placement = Placement::Grouped { group: gid, span };
        // Overwrites reuse the existing key, so the steady-state churn loop
        // allocates no strings.
        match self.objects.get_mut(object) {
            Some(slot) => *slot = placement,
            None => {
                self.objects.insert(object.to_string(), placement);
            }
        }
        if full {
            self.seal_group(gid)?;
        }
        Ok(())
    }

    /// Retire `object`'s current copy before a grouped copy replaces it: a
    /// grouped predecessor is tombstoned, a whole one loses its frames.
    fn retire_for_grouped(&mut self, object: &str) -> Result<(), StorageError> {
        match self.objects.get(object) {
            Some(&Placement::Grouped { group, span }) => self.tombstone_member(group, span),
            // During replay whole symbols stay put: a later `StoreWhole`
            // record for this name may need them as its applied-ness
            // evidence. Reconciliation sweeps whatever ends up orphaned.
            Some(Placement::Whole) if !self.replaying => {
                self.destructive_apply_barrier()?;
                for node in &mut self.nodes {
                    node.symbols.remove(object);
                }
                Ok(())
            }
            Some(Placement::Whole) | None => Ok(()),
        }
    }

    /// Seal the open coding group, if any: encode its packed block with a
    /// **single** `encode_into` and install one symbol per node. Until a
    /// group is sealed its objects live only in the coordinator's write
    /// buffer (and the write-ahead log, when one is attached) and are *not*
    /// erasure-coded — a caller that needs the batched objects durable now
    /// (e.g. at the end of a checkpoint round) calls this explicitly.
    ///
    /// Returns what committed, so callers can assert exactly what became
    /// durable.
    pub fn flush(&mut self) -> Result<FlushReport, StorageError> {
        match self.open_group {
            Some(gid) => self.seal_group(gid),
            None => Ok(FlushReport::default()),
        }
    }

    /// Encode and distribute group `gid`, dropping its packed buffer.
    ///
    /// The `Seal` log record is appended **after** the symbols are
    /// installed: losing the record to a crash merely makes recovery
    /// re-seal the group from its replayed buffer (idempotent — the encode
    /// is deterministic), whereas logging it early would claim a durability
    /// hand-off that never happened.
    fn seal_group(&mut self, gid: GroupId) -> Result<FlushReport, StorageError> {
        let group = self.groups.get_mut(&gid).expect("sealing a known group");
        debug_assert!(!group.sealed);
        if group.live_objects == 0 {
            // Every member was overwritten or deleted while the group was
            // still open; there is nothing worth encoding (and nothing to
            // log: replay re-derives the empty group from its tombstones).
            self.groups.remove(&gid);
            self.open_group = None;
            return Ok(FlushReport::default());
        }
        let mut seal_span = span!(self.recorder, "store.seal");
        // Pad the packed block and encode it in place — no copy into a
        // staging buffer.
        let packed_len = group.packed_len;
        let objects_committed = group.live_objects;
        let padded = padded_block_len(self.code.as_ref(), packed_len);
        let mut block = std::mem::take(&mut group.data);
        block.resize(padded, 0);
        let sealed = self
            .code
            .encode_into(&block, &mut self.encode_shares)
            .map_err(StorageError::from)
            .and_then(|()| self.install_unit(Unit::Group(gid), None));
        let installed = match sealed {
            Ok(installed) => installed,
            Err(e) => {
                // Put the buffered objects back: the group stays open and
                // every recorded span remains valid, so nothing is lost on a
                // failed seal (a re-seal stamps a fresh generation).
                block.truncate(packed_len);
                self.groups
                    .get_mut(&gid)
                    .expect("sealing a known group")
                    .data = block;
                return Err(e);
            }
        };
        seal_span.field("objects", objects_committed as u64);
        drop(seal_span);
        self.obs.group_seals.inc();
        self.obs.sealed_objects.add(objects_committed as u64);
        let group = self.groups.get_mut(&gid).expect("sealing a known group");
        group.sealed = true;
        // Recycle the block buffer for the next open group.
        block.clear();
        self.spare_block = block;
        self.open_group = None;
        self.log(RecordView::Seal { group: gid })?;
        Ok(FlushReport {
            groups_sealed: 1,
            objects_committed,
            installs_deferred: self.nodes.len() - installed,
        })
    }

    /// All nodes that could serve `unit` right now (up, holding a frame of
    /// it, inside the caller's allowed set), ordered by `policy`. The
    /// caller reads from the first `k`; the full count feeds the degraded
    /// flag.
    fn pick_holders(
        &self,
        policy: SelectionPolicy,
        unit: Unit,
        allowed: Option<&[NodeId]>,
    ) -> Vec<usize> {
        let mut candidates: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| {
                n.up && n.frame(unit).is_some()
                    && allowed.map(|a| a.contains(&NodeId(*i))).unwrap_or(true)
            })
            .map(|(i, _)| i)
            .collect();
        match policy {
            SelectionPolicy::FirstK => {}
            SelectionPolicy::LeastLoaded => {
                candidates.sort_by_key(|&i| (self.nodes[i].bytes_served, i));
            }
            SelectionPolicy::Nearest => {
                candidates.sort_by_key(|&i| (self.nodes[i].distance, i));
            }
        }
        candidates
    }

    /// Retrieve an object by reading from any `k` nodes chosen by `policy`.
    pub fn retrieve(
        &mut self,
        object: &str,
        policy: SelectionPolicy,
    ) -> Result<(Vec<u8>, RetrieveReport), StorageError> {
        self.retrieve_from(object, policy, None)
    }

    /// Retrieve, restricted to a caller-supplied set of reachable nodes
    /// (`None` means "any up node"). This is how a *client-side* view of
    /// connectivity — e.g. a RAINVideo client that has lost its path to some
    /// servers — is expressed without marking those servers globally down.
    pub fn retrieve_from(
        &mut self,
        object: &str,
        policy: SelectionPolicy,
        allowed: Option<&[NodeId]>,
    ) -> Result<(Vec<u8>, RetrieveReport), StorageError> {
        let mut span = span!(self.recorder, "store.retrieve");
        let result = self.retrieve_inner(object, policy, allowed);
        match &result {
            Ok((data, report)) => {
                span.field("bytes", data.len() as u64);
                if report.sources.is_empty() {
                    // Served from coordinator memory: an open group's write
                    // buffer, the group decode cache, or an empty grouped
                    // object. No node was touched.
                    self.obs.local_hits.inc();
                } else {
                    self.obs.retrieve_ok.inc();
                    self.obs.latency_us.record(report.latency.as_micros());
                }
                if report.degraded {
                    self.obs.degraded.inc();
                }
                if report.hedged {
                    self.obs.hedged.inc();
                }
                self.obs.retries.add(u64::from(report.retries));
            }
            Err(StorageError::NotEnoughNodes { .. }) => {
                self.obs.retrieve_unavailable.inc();
            }
            Err(_) => {}
        }
        result
    }

    /// The uninstrumented retrieve core behind
    /// [`DistributedStore::retrieve_from`].
    fn retrieve_inner(
        &mut self,
        object: &str,
        policy: SelectionPolicy,
        allowed: Option<&[NodeId]>,
    ) -> Result<(Vec<u8>, RetrieveReport), StorageError> {
        let placement = *self
            .objects
            .get(object)
            .ok_or_else(|| StorageError::UnknownObject {
                object: object.to_string(),
            })?;
        let Placement::Grouped { group, span } = placement else {
            let unit = Unit::Whole(object);
            let candidates = self.pick_holders(policy, unit, allowed);
            let fetch = self.decode_unit(unit, &candidates)?;
            self.obs.decoded.inc();
            // The frame is self-describing: its first 8 bytes carry the
            // original length (which is also what lets crash recovery
            // rebuild whole entries without decoding them).
            let framed = &self.io_buf;
            let stored_len =
                u64::from_le_bytes(framed[..8].try_into().expect("frame header")) as usize;
            debug_assert!(framed.len() >= 8 + stored_len, "frame shorter than header");
            let data = framed[8..8 + stored_len].to_vec();
            return Ok(self.finish_read(data, fetch));
        };
        self.retrieve_grouped(group, span, policy, allowed)
    }

    /// Retrieve an object that lives in a coding group.
    ///
    /// * **Open group** — the bytes are still in the coordinator's write
    ///   buffer: served directly, no node reads ([`RetrieveReport::sources`]
    ///   is empty, the read is never degraded). They are not yet
    ///   erasure-coded; see [`DistributedStore::flush`].
    /// * **Sealed group** — availability comes first: with fewer than `k`
    ///   reachable holders the retrieve fails with
    ///   [`StorageError::NotEnoughNodes`], even when one node could serve
    ///   the bytes or the block is cached, so callers observe real
    ///   durability, not coordinator memory. Then, in order:
    ///   1. a decode-cache hit serves the span and reports no sources;
    ///   2. a group read ranged recently is read again: the block is
    ///      decoded from any `k` shares and cached
    ///      ([`DistributedStore::decode_unit`]), so the rest of a scan of
    ///      co-located objects hits the cache;
    ///   3. otherwise a **ranged read** ([`DistributedStore::read_ranged`])
    ///      fetches and verifies only the shares that hold the span
    ///      verbatim and copies the bytes out — no decode, no cache fill;
    ///   4. if the code names no location, a covering node is not a
    ///      reachable holder, or a covering node fails to deliver (by the
    ///      hedge threshold, when the policy hedges), the block is decoded
    ///      and cached as in 2, asking the covering nodes last. A failed
    ///      ranged attempt's contacts and time are folded into the report.
    fn retrieve_grouped(
        &mut self,
        gid: GroupId,
        span: ObjSpan,
        policy: SelectionPolicy,
        allowed: Option<&[NodeId]>,
    ) -> Result<(Vec<u8>, RetrieveReport), StorageError> {
        let group = self.groups.get(&gid).expect("placement names a group");
        if !group.sealed {
            let data = group.data[span.offset..span.offset + span.len].to_vec();
            return Ok((data, UnitFetch::default().into_report()));
        }
        let packed_len = group.packed_len;
        let mut candidates = self.pick_holders(policy, Unit::Group(gid), allowed);
        let mut failed = None;
        if candidates.len() >= self.code.k()
            && self.decode_cache.get(gid).is_none()
            && !self.decode_cache.read_again(gid)
        {
            match self.read_ranged(gid, packed_len, span, &candidates) {
                Some(Ranged::Served(data, mut fetch)) => {
                    fetch.degraded = candidates.len() < self.code.n();
                    self.obs.ranged.inc();
                    return Ok(self.finish_read(data, fetch));
                }
                Some(Ranged::Failed(attempt, covering)) => {
                    // The covering nodes stay candidates (with exactly k
                    // holders the decode needs them), but only as the last
                    // backups.
                    candidates.sort_by_key(|c| covering.contains(c));
                    failed = Some(attempt);
                }
                None => {}
            }
        }
        let mut fetch = self.decode_unit(Unit::Group(gid), &candidates)?;
        if !fetch.sources.is_empty() {
            self.obs.decoded.inc();
        }
        if let Some(attempt) = failed {
            fetch = fetch.after(attempt);
        }
        let block = self
            .decode_cache
            .get(gid)
            .expect("decode_unit just populated the cache");
        let data = block[span.offset..span.offset + span.len].to_vec();
        Ok(self.finish_read(data, fetch))
    }

    /// Telemetry of one served node read, and its report.
    fn finish_read(&self, data: Vec<u8>, fetch: UnitFetch) -> (Vec<u8>, RetrieveReport) {
        self.note_outcomes(fetch.counts);
        self.obs
            .bytes_verified
            .add((fetch.verified * fetch.bytes_per_source) as u64);
        (data, fetch.into_report())
    }

    /// Serve `span` of sealed group `gid` from the shares that hold it
    /// verbatim ([`ErasureCode::locate`]): the covering shares are
    /// collected like a decode's (with no spare to fall back on), each
    /// checked for checksum and generation, and each payload must be the
    /// `padded block / k` bytes the group table implies. Every source is
    /// charged one full share, since its node ships the whole verified
    /// frame.
    ///
    /// Returns `None`, having contacted nobody, when the code names no
    /// location or a covering node is not among `candidates` (the reachable
    /// holders).
    fn read_ranged(
        &mut self,
        gid: GroupId,
        packed_len: usize,
        span: ObjSpan,
        candidates: &[usize],
    ) -> Option<Ranged> {
        let padded = padded_block_len(self.code.as_ref(), packed_len);
        let share_len = padded / self.code.k();
        // (share, offset in its payload, bytes) for each piece of the span.
        let mut pieces = Vec::new();
        let mut sources: Vec<usize> = Vec::new();
        let end = span.offset + span.len;
        let mut at = span.offset;
        while at < end {
            let (share, offset, run) = self.code.locate(padded, at)?;
            if !candidates.contains(&share) {
                return None;
            }
            if !sources.contains(&share) {
                sources.push(share);
            }
            let take = run.min(end - at);
            pieces.push((share, offset, take));
            at += take;
        }
        if sources.is_empty() {
            // An empty object: no bytes, so no share to read.
            return Some(Ranged::Served(Vec::new(), UnitFetch::default()));
        }
        // A covering share has no stand-in, so the read waits for it no
        // longer than a decode waits before hedging: past the threshold it
        // gives up and decodes from the other holders.
        let policy = FaultPolicy {
            deadline: self
                .policy
                .hedge_after
                .map_or(self.policy.deadline, |h| h.min(self.policy.deadline)),
            ..self.policy
        };
        let unit = Unit::Group(gid);
        let expect_gen = self.expected_gen(unit);
        let mut transport_span = span!(
            self.recorder,
            "store.retrieve.transport",
            candidates = sources.len() as u64
        );
        let nodes = &self.nodes;
        let mut col = collect_shares(
            self.transport.as_mut(),
            &CollectSpec {
                policy: &policy,
                k: sources.len(),
                unit,
                expect_gen,
                capture: self.capture_outcomes,
                obs: &self.node_obs,
            },
            &mut self.policy_rng,
            &sources,
            nodes,
        );
        // A frame that verifies but disagrees with the group table on its
        // length cannot be sliced at the located offsets: it counts as
        // corrupt.
        for &node in &col.used {
            if nodes[node].held(unit).len() - FRAME_HEADER != share_len {
                col.counts.ok -= 1;
                col.counts.corrupt += 1;
                col.available -= 1;
                for entry in col.outcomes.iter_mut().filter(|(n, _)| n.0 == node) {
                    entry.1 = NodeOutcome::Corrupt;
                }
            }
        }
        transport_span.field("shares", col.available as u64);
        drop(transport_span);
        let mut fetch = UnitFetch {
            outcomes: col.outcomes,
            counts: col.counts,
            retries: col.retries,
            verified: col.available,
            ..UnitFetch::default()
        };
        if col.available < sources.len() {
            fetch.latency = col.finished;
            self.advance_transport(fetch.latency);
            return Some(Ranged::Failed(fetch, sources));
        }
        fetch.latency = col.latency;
        self.advance_transport(fetch.latency);
        let mut data = Vec::with_capacity(span.len);
        for (share, offset, take) in pieces {
            let (_, payload) = split_frame(self.nodes[share].held(unit)).expect("verified above");
            data.extend_from_slice(&payload[offset..offset + take]);
        }
        for &node in &sources {
            self.nodes[node].bytes_served += share_len as u64;
        }
        fetch.bytes_per_source = share_len;
        fetch.sources = sources;
        Some(Ranged::Served(data, fetch))
    }

    /// Decode `unit` into `io_buf` from `k` of `candidates` (the reachable
    /// holders, in policy order): collect `k` verified shares through the
    /// transport (a virtually parallel wave with retries, backups, and
    /// hedging; under the direct transport simply the first `k`
    /// candidates), charge each source its payload bytes, and decode
    /// straight out of the node buffers. Fewer than `k` candidates or
    /// verified shares is [`StorageError::NotEnoughNodes`]; the read is
    /// degraded when fewer than `n` shares were available to it.
    ///
    /// A group's decoded block is cached, and a cached group is served
    /// without touching any node (no sources, no bytes). The availability
    /// check applies on cache hits too, so the cache never masks a group
    /// the cluster cannot currently serve.
    fn decode_unit(&mut self, unit: Unit, candidates: &[usize]) -> Result<UnitFetch, StorageError> {
        let k = self.code.k();
        if candidates.len() < k {
            return Err(StorageError::NotEnoughNodes {
                available: candidates.len(),
                needed: k,
            });
        }
        let view_degraded = candidates.len() < self.code.n();
        if let Unit::Group(gid) = unit {
            if self.decode_cache.touch(gid) {
                self.obs.cache_hits.inc();
                return Ok(UnitFetch {
                    degraded: view_degraded,
                    ..UnitFetch::default()
                });
            }
            self.obs.cache_misses.inc();
        }
        let expect_gen = self.expected_gen(unit);
        let mut transport_span = span!(
            self.recorder,
            "store.retrieve.transport",
            candidates = candidates.len() as u64
        );
        let col = collect_shares(
            self.transport.as_mut(),
            &CollectSpec {
                policy: &self.policy,
                k,
                unit,
                expect_gen,
                capture: self.capture_outcomes,
                obs: &self.node_obs,
            },
            &mut self.policy_rng,
            candidates,
            &self.nodes,
        );
        transport_span.field("shares", col.available as u64);
        if col.used.len() < k {
            self.advance_transport(self.policy.deadline);
            return Err(StorageError::NotEnoughNodes {
                available: col.available,
                needed: k,
            });
        }
        self.advance_transport(col.latency);
        drop(transport_span);
        // Charge the payload, not the frame header; the view borrows the
        // verified frames' payloads, so no share is cloned.
        let mut bytes_per_source = 0;
        for &i in &col.used {
            let len = self.nodes[i].held(unit).len() - FRAME_HEADER;
            bytes_per_source = len;
            self.nodes[i].bytes_served += len as u64;
        }
        let decode_span = span!(self.recorder, "store.retrieve.decode");
        let mut view = ShareView::missing(self.code.n());
        for &i in &col.used {
            let (_, payload) = split_frame(self.nodes[i].held(unit)).expect("verified share");
            view.set(i, payload);
        }
        self.code.decode_into(&view, &mut self.io_buf)?;
        drop(view);
        drop(decode_span);
        if let Unit::Group(gid) = unit {
            self.decode_cache.insert(gid, self.io_buf.clone());
        }
        let degraded = view_degraded || col.counts.not_ok() > 0;
        Ok(UnitFetch {
            sources: col.used,
            bytes_per_source,
            degraded,
            outcomes: col.outcomes,
            counts: col.counts,
            latency: col.latency,
            hedged: col.hedged,
            retries: col.retries,
            verified: col.available,
        })
    }

    /// Delete an object. Individually stored objects drop their symbols
    /// from every node; grouped objects tombstone their sub-range (the
    /// encoded block is untouched). A sealed group whose last live member
    /// is deleted is dropped outright; partially dead groups are reclaimed
    /// by [`DistributedStore::compact`].
    pub fn delete(&mut self, object: &str) -> Result<(), StorageError> {
        // Existence is checked (read-only) before the record is logged, so
        // failed deletes leave no trace; the mutation itself follows the
        // append (log-then-apply).
        if !self.objects.contains_key(object) {
            return Err(StorageError::UnknownObject {
                object: object.to_string(),
            });
        }
        self.log(RecordView::Delete { object })?;
        let placement = self.objects.remove(object).expect("checked above");
        match placement {
            Placement::Whole => self.delete_unit(Unit::Whole(object)),
            Placement::Grouped { group, span } => self.tombstone_member(group, span),
        }
    }

    /// Tombstone one member of a group, dropping the group if it died: a
    /// fully dead sealed group frees its symbols immediately, a fully dead
    /// open group restarts its block so dead bytes are never encoded.
    fn tombstone_member(&mut self, gid: GroupId, span: ObjSpan) -> Result<(), StorageError> {
        let group = self.groups.get_mut(&gid).expect("placement names a group");
        group.tombstone(span);
        if group.live_objects == 0 {
            if group.sealed {
                self.delete_unit(Unit::Group(gid))?;
            } else {
                group.reset_open();
            }
        }
        Ok(())
    }

    /// Remove `unit` from the nodes, best-effort through the transport. A
    /// node that cannot be reached keeps an orphaned frame, which the
    /// generation stamp renders harmless: a re-created object or group gets
    /// a fresh epoch, so the orphan reads as stale, never as data. Runs
    /// behind the durability barrier, since the frames are the replay
    /// evidence of every durable record that targeted the unit. A group
    /// also leaves the decode cache and the group table.
    fn delete_unit(&mut self, unit: Unit) -> Result<(), StorageError> {
        self.destructive_apply_barrier()?;
        for i in 0..self.nodes.len() {
            let patience = self.policy.attempt_timeout;
            let fate = self.transport.attempt(i, TransportOp::Delete, 0, patience);
            if fate.outcome.is_ok() && fate.latency <= patience {
                self.nodes[i].remove_frame(unit);
            }
        }
        match unit {
            Unit::Whole(name) => {
                self.whole_gens.remove(name);
            }
            Unit::Group(gid) => {
                self.decode_cache.remove(gid);
                self.groups.remove(&gid);
                self.group_gens.remove(&gid);
            }
        }
        Ok(())
    }

    /// Compaction pass: rewrite every sealed group whose live fraction has
    /// dropped below the configured watermark, repacking its live objects
    /// into the current open group and dropping the old group's symbols
    /// from every node. Needs `k` reachable symbols per rewritten group
    /// (it decodes the survivors' bytes).
    pub fn compact(&mut self) -> Result<CompactReport, StorageError> {
        let _span = span!(self.recorder, "store.compact");
        let watermark = self.group_config.compact_watermark;
        // Candidates in id order and members in span order (name breaks
        // the tie between empty objects): the rewrite's log records must be
        // a function of the store's state, not of `HashMap` iteration order.
        let mut candidates: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, g)| g.wants_compaction(watermark))
            .map(|(&gid, _)| gid)
            .collect();
        if candidates.is_empty() {
            return Ok(CompactReport::default());
        }
        candidates.sort_unstable();
        // Recover the member lists with one scan of the object table — the
        // hot paths keep no per-member map, and compaction is the rare,
        // explicitly requested pass that can afford the scan.
        let mut movers: HashMap<GroupId, Vec<(String, ObjSpan)>> =
            candidates.iter().map(|&gid| (gid, Vec::new())).collect();
        for (name, placement) in &self.objects {
            if let Placement::Grouped { group, span } = placement {
                if let Some(members) = movers.get_mut(group) {
                    members.push((name.clone(), *span));
                }
            }
        }
        for members in movers.values_mut() {
            members.sort_unstable_by(|(a, sa), (b, sb)| (sa.offset, a).cmp(&(sb.offset, b)));
        }
        let mut report = CompactReport::default();
        for gid in candidates {
            let unit = Unit::Group(gid);
            let holders = self.pick_holders(SelectionPolicy::LeastLoaded, unit, None);
            self.decode_unit(unit, &holders)?;
            let block = self
                .decode_cache
                .get(gid)
                .expect("decode_unit populated the cache");
            let members = movers.remove(&gid).unwrap_or_default();
            let moved: Vec<(String, Vec<u8>)> = members
                .into_iter()
                .map(|(name, span)| (name, block[span.offset..span.offset + span.len].to_vec()))
                .collect();
            let group = self.groups.get(&gid).expect("candidate exists");
            report.bytes_reclaimed += group.packed_len - group.live_bytes;
            // Rewrite marker first, then every move as an ordinary store:
            // each one logs its own record (carrying the bytes, when
            // grouped) *before* tombstoning the old span, so a crash at any
            // point during the rewrite loses nothing — the unmoved members
            // are still live in the old (sealed, symbol-backed) group. The
            // last move tombstones the group empty, which drops it and its
            // symbols everywhere.
            self.log(RecordView::Compact { group: gid })?;
            for (name, bytes) in moved {
                // Route through the normal placement logic so a threshold
                // change between store and compaction is honoured.
                self.store(&name, &bytes)?;
                report.objects_moved += 1;
            }
            debug_assert!(
                !self.groups.contains_key(&gid),
                "moving every live member drops the group"
            );
            report.groups_compacted += 1;
            self.obs.compactions.inc();
        }
        Ok(report)
    }

    /// Counters describing the grouping state (see [`GroupStats`]).
    pub fn group_stats(&self) -> GroupStats {
        let mut stats = GroupStats {
            groups: self.groups.len(),
            decode_cache_hits: self.decode_cache.hits,
            decode_cache_misses: self.decode_cache.misses,
            ..GroupStats::default()
        };
        if let Some(wal) = &self.wal {
            stats.wal_records = wal.records_appended();
            stats.wal_bytes = wal.bytes_appended();
            stats.wal_pending_sync_bytes = wal.pending_bytes() as u64;
        }
        stats.wal_checkpoints = self.checkpoints_taken;
        // Acked group payload bytes a power loss would still take: logged
        // but not yet known-synced. Distinct from `bytes_at_risk`, which
        // counts un-erasure-coded bytes a *coordinator* crash puts at the
        // log's mercy.
        stats.bytes_unsynced = (self.group_bytes_logged - self.group_bytes_durable) as usize;
        stats.pending_installs = self.pending.len();
        stats.pending_install_bytes = self.pending.iter().map(|p| p.frame.len()).sum();
        for (gid, group) in &self.groups {
            if group.sealed {
                stats.sealed_groups += 1;
            } else {
                // Acked but not yet erasure-coded: these bytes survive a
                // coordinator crash only through the write-ahead log.
                stats.bytes_at_risk += group.live_bytes;
                if Some(*gid) == self.open_group {
                    stats.open_bytes += group.packed_len;
                }
            }
            stats.grouped_objects += group.live_objects;
            stats.live_bytes += group.live_bytes;
            stats.packed_bytes += group.packed_len;
        }
        stats
    }

    /// Names of every stored object, in no particular order.
    pub fn object_names(&self) -> impl Iterator<Item = &str> {
        self.objects.keys().map(String::as_str)
    }

    /// Whether `name` is a stored object (one hash lookup).
    pub fn holds(&self, name: &str) -> bool {
        self.objects.contains_key(name)
    }

    /// Whether a node is currently up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.nodes.get(node.0).map(|n| n.up).unwrap_or(false)
    }

    /// Simulate a coordinator crash: every piece of coordinator memory —
    /// the object table, group bookkeeping, open-group write buffers, the
    /// decode cache — is lost. What survives is returned: the node fabric
    /// (separate machines holding the installed symbols, with their up/down
    /// state) and the write-ahead log (durable storage), ready for
    /// [`DistributedStore::recover`].
    pub fn crash(mut self) -> (SurvivingNodes, Option<WriteAheadLog>) {
        let spec = self.code.spec();
        if let Some(wal) = &mut self.wal {
            // A process crash loses the writer's user-space batch buffer;
            // only bytes already handed to the backend survive. (Power
            // loss is stricter still — the test harness models it at the
            // fault layer, clipping to the synced prefix.)
            wal.on_writer_crash();
        }
        (
            SurvivingNodes {
                nodes: self.nodes,
                spec,
            },
            self.wal,
        )
    }

    /// Rebuild a coordinator after a crash by replaying the write-ahead
    /// log against the surviving node fabric.
    ///
    /// The replay is a *redo* pass: each logged mutation is re-applied
    /// through the same transition functions the live path uses (with the
    /// log detached, so nothing is double-logged). Grouped appends carry
    /// their bytes in the record, so open-group buffers, object-table
    /// spans, and tombstone state come back exactly; `Seal` records re-run
    /// the (deterministic) encode, which also makes an interrupted seal
    /// complete itself. A whole-object record whose symbols never reached
    /// the nodes (the crash landed between the log append and the install)
    /// is discarded — the op was never acked. A torn final record is
    /// skipped cleanly (see [`crate::wal`]).
    ///
    /// `config` must be the configuration the log was written under: the
    /// replay re-derives group ids and capacity seals from it, and a
    /// mismatch that changes where a group seals is detected and reported
    /// as [`StorageError::Recovery`] rather than corrupting the store.
    ///
    /// Recovery touches no node *availability*: it never decodes, so it
    /// succeeds even while fewer than `k` symbols of a sealed group are
    /// reachable — log durability is independent of node liveness.
    pub fn recover(
        code: Arc<dyn ErasureCode>,
        config: GroupConfig,
        nodes: SurvivingNodes,
        mut wal: WriteAheadLog,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        if nodes.nodes.len() != code.n() {
            return Err(StorageError::Recovery {
                reason: format!(
                    "{} surviving nodes for an (n = {}) code",
                    nodes.nodes.len(),
                    code.n()
                ),
            });
        }
        // Same n is not same code: decoding BCode symbols with an RS
        // decoder would hand back garbage frames, so the identity check is
        // as load-bearing as the count check.
        if nodes.spec != code.spec() {
            return Err(StorageError::Recovery {
                reason: format!(
                    "surviving symbols were produced by {:?} but recovery \
                     was given {:?}",
                    nodes.spec,
                    code.spec()
                ),
            });
        }
        let replay = wal.replay()?;
        let mut store = Self::bare(code, config);
        store.group_config.durability = Durability::Logged;
        store.nodes = nodes.nodes;
        // A parked frame whose superseding record did not survive goes
        // back: the log rolled back past that overwrite, so its node state
        // must too. Walking newest first leaves the oldest such frame.
        let durable = replay.records.len() as u64;
        for node in &mut store.nodes {
            for (object, tag, frame) in std::mem::take(&mut node.limbo).into_iter().rev() {
                if tag >= durable {
                    node.symbols.insert(object, frame);
                }
            }
        }
        let mut report = RecoveryReport {
            records_replayed: replay.records.len(),
            torn_tail: replay.torn_tail,
            ..RecoveryReport::default()
        };
        store.replaying = true;
        // Restore the newest usable checkpoint, then redo only the suffix
        // after it. A checkpoint whose embedded state checksum fails
        // (rotted body) or whose snapshot fails semantic validation is
        // skipped, falling back to the next-older one; with none usable
        // the whole log is redone from genesis, exactly as before
        // checkpoints existed. (A *torn* newest checkpoint never reaches
        // this loop — its partial frame is part of the torn tail.)
        let mut restored = None;
        for (i, record) in replay.records.iter().enumerate().rev() {
            let WalRecord::Checkpoint {
                state,
                state_crc_ok,
            } = record
            else {
                continue;
            };
            if !state_crc_ok {
                report.checkpoint_fallbacks += 1;
                continue;
            }
            match store.restore_from_checkpoint(state) {
                Ok(()) => {
                    report.checkpoint_restored = true;
                    restored = Some(i);
                    break;
                }
                Err(_) => {
                    // restore_from_checkpoint applies nothing on failure,
                    // so the store is still pristine for the next-older
                    // candidate.
                    report.checkpoint_fallbacks += 1;
                }
            }
        }
        let start = restored.map_or(0, |i| i + 1);
        let last_index = replay.records.len().saturating_sub(1);
        for (i, record) in replay.records.iter().enumerate().skip(start) {
            store.replay_record(record, i == last_index, &mut report)?;
        }
        report.records_since_checkpoint = replay.records.len() - start;
        store.replaying = false;
        store.reconcile_after_replay();
        store.rebuild_gens_from_nodes();
        report.objects_recovered = store.objects.len();
        report.open_bytes_recovered = store
            .groups
            .values()
            .filter(|g| !g.sealed)
            .map(|g| g.live_bytes)
            .sum();
        wal.resume(&replay, restored)?;
        store.wal = Some(wal);
        Ok((store, report))
    }

    /// Redo one logged mutation during recovery.
    fn replay_record(
        &mut self,
        record: &WalRecord,
        last: bool,
        report: &mut RecoveryReport,
    ) -> Result<(), StorageError> {
        match record {
            WalRecord::StoreGrouped {
                object,
                group,
                bytes,
            } => {
                self.replay_open_group(*group);
                if self.groups.get(group).is_some_and(|g| g.sealed) {
                    // The live run only ever appends to open groups, so
                    // this can only mean the replay sealed the group at a
                    // different point than the live run did — i.e. the
                    // store is being recovered under a different
                    // GroupConfig than the log was written with.
                    return Err(StorageError::Recovery {
                        reason: format!(
                            "log appends to group {group} after it sealed; \
                             recover() must be given the GroupConfig the log \
                             was written under"
                        ),
                    });
                }
                self.apply_store_grouped(object, bytes, *group)
            }
            WalRecord::StoreWhole { object } => {
                // The record carries no data — the bytes live in the node
                // symbols. If no node holds a symbol and this is the final
                // record, the crash landed between the log append and the
                // installs: the op was never acked and is dropped, leaving
                // any predecessor intact. For any earlier record, absent
                // symbols mean a later *applied* op removed them — a benign
                // supersession whose later record re-establishes the final
                // placement. That op itself WAS applied by the live run,
                // though, so its open-group side effect — tombstoning a
                // grouped predecessor — must still be redone below:
                // skipping it leaves the open group fuller than the live
                // run's, and replay then capacity-seals it at a different
                // append than the live run did.
                if last && !self.nodes.iter().any(|n| n.symbols.contains_key(object)) {
                    report.in_doubt_discarded += 1;
                    return Ok(());
                }
                if let Some(&Placement::Grouped { group, span }) = self.objects.get(object) {
                    self.tombstone_member(group, span)?;
                }
                self.objects.insert(object.clone(), Placement::Whole);
                Ok(())
            }
            WalRecord::Delete { object } => {
                // Redo semantics: a logged delete completes even if the
                // crash preceded its apply. Whole symbols are left in place
                // (a later `StoreWhole` record may need them as evidence);
                // reconciliation sweeps them if the name stays dead.
                match self.objects.remove(object) {
                    Some(Placement::Whole) => {}
                    Some(Placement::Grouped { group, span }) => {
                        self.tombstone_member(group, span)?;
                    }
                    None => {}
                }
                Ok(())
            }
            WalRecord::Seal { group } => {
                // Idempotent: the group may already have sealed during
                // replay (a capacity seal redone by its append record), or
                // may be gone entirely (fully deleted later in the log).
                if self.groups.get(group).is_some_and(|g| !g.sealed) {
                    self.seal_group(*group)?;
                }
                Ok(())
            }
            WalRecord::Compact { group } => {
                // Marker only: the rewrite itself follows as ordinary store
                // records, and the group drops when its last member moves.
                debug_assert!(
                    self.groups.get(group).map(|g| g.sealed).unwrap_or(true),
                    "compaction only rewrites sealed groups"
                );
                report.compactions_noted += 1;
                Ok(())
            }
            WalRecord::GroupImport {
                group,
                members,
                bytes,
            } => {
                // Logged after its installs, like `Seal`: the record's
                // existence proves the import was acked, so replay always
                // redoes it (the bytes travel in the record — re-encoding
                // is deterministic and needs no node to be reachable).
                self.apply_group_import(*group, members, bytes)
            }
            WalRecord::GroupEvict { group } => {
                // Redo semantics: a logged eviction completes even if the
                // crash preceded its apply — it is only ever logged once
                // the receiving shard's copy of the group is durable.
                self.apply_group_evict(*group)?;
                Ok(())
            }
            WalRecord::Checkpoint { .. } => {
                // Reached only when recovery restored an *earlier*
                // checkpoint (or none): this snapshot describes state the
                // suffix replay has already rebuilt record-by-record, so
                // redoing it would be a no-op at best and at worst would
                // clobber the replay with a snapshot recovery chose not to
                // trust. Skip it.
                Ok(())
            }
        }
    }

    /// Make `gid` the open group during replay, mirroring the id the live
    /// run allocated. The live run only ever appends to one open group, so
    /// a new id here means the previous open group was retired without a
    /// record (an empty flush) — finish that retirement the same way.
    fn replay_open_group(&mut self, gid: GroupId) {
        if self.open_group == Some(gid) {
            return;
        }
        if let Some(prev) = self.open_group.take() {
            if self
                .groups
                .get(&prev)
                .is_some_and(|g| !g.sealed && g.live_objects == 0)
            {
                self.groups.remove(&prev);
            }
        }
        self.groups
            .entry(gid)
            .or_insert_with(|| CodingGroup::open_with_buffer(Vec::new()));
        self.open_group = Some(gid);
        self.next_group_id = self.next_group_id.max(gid + 1);
    }

    /// Post-replay cleanup: retire groups the live run dropped without a
    /// record, and garbage-collect node symbols orphaned by in-doubt ops
    /// (e.g. a logged-but-unapplied grouped overwrite of a whole object
    /// leaves the old whole symbols behind).
    fn reconcile_after_replay(&mut self) {
        let open = self.open_group;
        self.groups
            .retain(|gid, g| g.sealed || g.live_objects > 0 || open == Some(*gid));
        let (objects, groups) = (&self.objects, &self.groups);
        for node in &mut self.nodes {
            node.symbols
                .retain(|name, _| objects.get(name) == Some(&Placement::Whole));
            node.group_symbols
                .retain(|gid, _| groups.get(gid).is_some_and(|g| g.sealed));
        }
    }

    /// Re-derive the expected share generations from the frames the nodes
    /// actually hold. Replay cannot reproduce the live epoch sequence
    /// (failed-quorum attempts consume epochs without leaving a record), so
    /// recovery trusts the fabric: per group the newest verifiable frame is
    /// the truth, and the epoch counter resumes past everything seen — a
    /// post-recovery overwrite can never collide with a pre-crash orphan.
    ///
    /// A whole object takes the newest generation at least `k` verifiable
    /// frames back (the newest seen, if none is decodable): a failed-quorum
    /// overwrite leaves a few newer frames behind, and trusting those would
    /// turn the still-readable predecessor into `NotEnoughNodes`. A group
    /// must not fall back the same way: its older generation is a failed
    /// seal of a different (shorter) block, which the group table does not
    /// describe.
    fn rebuild_gens_from_nodes(&mut self) {
        self.whole_gens.clear();
        self.group_gens.clear();
        let mut max_gen = 0u64;
        for node in &self.nodes {
            for (gid, frame) in &node.group_symbols {
                if let Some((gen, _)) = open_frame(frame) {
                    let slot = self.group_gens.entry(*gid).or_insert(0);
                    *slot = (*slot).max(gen);
                    max_gen = max_gen.max(gen);
                }
            }
        }
        // `reconcile_after_replay` left whole frames only under whole
        // objects, so walking the object table visits every one of them.
        // `tally` holds one object's (generation, verified frames) pairs.
        let k = self.code.k();
        let mut tally: Vec<(u64, usize)> = Vec::new();
        for (name, placement) in &self.objects {
            if *placement != Placement::Whole {
                continue;
            }
            tally.clear();
            for node in &self.nodes {
                let Some((gen, _)) = node.symbols.get(name).and_then(|f| open_frame(f)) else {
                    continue;
                };
                match tally.iter_mut().find(|(g, _)| *g == gen) {
                    Some((_, frames)) => *frames += 1,
                    None => tally.push((gen, 1)),
                }
                max_gen = max_gen.max(gen);
            }
            let newest = |decodable: bool| {
                tally
                    .iter()
                    .filter(|&&(_, frames)| !decodable || frames >= k)
                    .map(|&(gen, _)| gen)
                    .max()
            };
            if let Some(gen) = newest(true).or(newest(false)) {
                self.whole_gens.insert(name.clone(), gen);
            }
        }
        self.next_epoch = self.next_epoch.max(max_gen + 1);
    }

    /// Re-derive and re-install every symbol a (replaced or recovered) node
    /// is supposed to hold, reconstructing **only that node's share** from
    /// the survivors with [`ErasureCode::repair`]. Whole objects need one
    /// repair each; a coding group needs one repair for **all** of its
    /// objects — the group symbol is the unit of placement. Returns the
    /// number of symbols repaired (whole objects + groups).
    ///
    /// Units are visited in a fixed order, groups by id and then whole
    /// objects by name, so which repaired frames end up pending under a
    /// lossy transport is a function of the store's state, not of
    /// `HashMap` iteration order.
    pub fn repair_node(&mut self, node: NodeId) -> Result<usize, StorageError> {
        if node.0 >= self.nodes.len() {
            return Err(StorageError::UnknownNode(node));
        }
        let mut span = span!(self.recorder, "store.repair", node = node.0 as u64);
        let mut repaired = 0;
        for gid in self.sealed_group_ids() {
            repaired += usize::from(self.repair_unit(node.0, Unit::Group(gid))?);
        }
        for name in self.whole_object_names() {
            repaired += usize::from(self.repair_unit(node.0, Unit::Whole(&name))?);
        }
        span.field("symbols", repaired as u64);
        self.obs.repair_symbols.add(repaired as u64);
        Ok(repaired)
    }

    /// Repair `node`'s frame of `unit` from the verified, current-generation
    /// frames of the other live nodes (repair must never mix generations or
    /// trust a rotted frame), and install it; a frame that does not land is
    /// queued as pending, since only its delivery is outstanding. Returns
    /// false when the node already holds a verified current frame.
    fn repair_unit(&mut self, node: usize, unit: Unit) -> Result<bool, StorageError> {
        let gen = self.expected_gen(unit);
        if self.nodes[node]
            .frame(unit)
            .is_some_and(|f| open_frame(f).is_some_and(|(g, _)| g == gen))
        {
            return Ok(false);
        }
        let mut view = ShareView::missing(self.code.n());
        let mut available = 0;
        let mut share_len = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            if i == node || !n.up {
                continue;
            }
            if let Some((g, payload)) = n.frame(unit).and_then(|f| open_frame(f)) {
                if g == gen {
                    view.set(i, payload);
                    available += 1;
                    share_len = payload.len();
                }
            }
        }
        if available < self.code.k() {
            return Err(StorageError::NotEnoughNodes {
                available,
                needed: self.code.k(),
            });
        }
        let mut symbol = vec![0u8; share_len];
        self.code.repair(&view, node, &mut symbol)?;
        drop(view);
        let frame = seal_frame(gen, &symbol);
        let drive = drive_install(
            self.transport.as_mut(),
            &self.policy,
            &mut self.policy_rng,
            node,
            frame.len() as u64,
            &self.node_obs,
        );
        if drive.installed {
            self.nodes[node].put_frame(unit, frame);
        } else {
            self.pending.push(PendingInstall {
                node,
                unit: unit.to_key(),
                gen,
                frame,
            });
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rain_codes::{ArrayCode, BCode, CodeSpec};

    fn store() -> DistributedStore {
        DistributedStore::new(Arc::new(BCode::table_1a()))
    }

    #[test]
    fn store_and_retrieve_round_trips() {
        let mut s = store();
        let data = b"the RAIN distributed store".to_vec();
        s.store("obj", &data).unwrap();
        let (out, report) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, data);
        assert_eq!(report.sources.len(), 4, "k = 4 sources");
        assert!(!report.degraded);
    }

    #[test]
    fn survives_up_to_n_minus_k_failures() {
        let mut s = store();
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        s.store("obj", &data).unwrap();
        s.fail_node(NodeId(1)).unwrap();
        s.fail_node(NodeId(4)).unwrap();
        let (out, report) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, data);
        assert!(report.degraded);
        // One more failure exceeds the tolerance of the (6,4) code.
        s.fail_node(NodeId(0)).unwrap();
        assert!(matches!(
            s.retrieve("obj", SelectionPolicy::FirstK),
            Err(StorageError::NotEnoughNodes {
                available: 3,
                needed: 4
            })
        ));
    }

    #[test]
    fn retrieve_from_respects_the_allowed_set() {
        let mut s = store();
        let data = vec![3u8; 240];
        s.store("obj", &data).unwrap();
        let allowed: Vec<NodeId> = (1..5).map(NodeId).collect();
        let (out, report) = s
            .retrieve_from("obj", SelectionPolicy::FirstK, Some(&allowed))
            .unwrap();
        assert_eq!(out, data);
        assert!(report.sources.iter().all(|n| allowed.contains(n)));
        // Too small an allowed set fails cleanly.
        let few: Vec<NodeId> = (0..3).map(NodeId).collect();
        assert!(matches!(
            s.retrieve_from("obj", SelectionPolicy::FirstK, Some(&few)),
            Err(StorageError::NotEnoughNodes { .. })
        ));
    }

    #[test]
    fn from_spec_builds_a_working_store() {
        let mut s = DistributedStore::from_spec(CodeSpec::bcode_6_4()).unwrap();
        assert_eq!(s.num_nodes(), 6);
        assert_eq!(s.code().spec(), CodeSpec::bcode_6_4());
        let data = vec![11u8; 100];
        s.store("obj", &data).unwrap();
        assert_eq!(s.retrieve("obj", SelectionPolicy::FirstK).unwrap().0, data);
        assert!(DistributedStore::from_spec(CodeSpec::new(
            rain_codes::CodeKind::ReedSolomon,
            4,
            4
        ))
        .is_err());
        // The grouped constructor surfaces the same spec errors.
        assert!(matches!(
            DistributedStore::from_spec_grouped(
                CodeSpec::new(rain_codes::CodeKind::XCode, 6, 4),
                GroupConfig::small_objects()
            ),
            Err(StorageError::Code(_))
        ));
        let grouped = DistributedStore::from_spec_grouped(
            CodeSpec::bcode_6_4(),
            GroupConfig::small_objects(),
        )
        .unwrap();
        assert_eq!(grouped.group_config(), GroupConfig::small_objects());
    }

    #[test]
    fn degraded_tracks_this_objects_availability_not_cluster_health() {
        let mut s = store();
        s.store("obj", &[5u8; 200]).unwrap();

        // A hot-swapped (blank but up) node: every node is up, yet only 5 of
        // 6 shares of the object exist -> degraded.
        s.replace_node(NodeId(2)).unwrap();
        assert_eq!(s.nodes_up(), 6);
        let (_, report) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
        assert!(
            report.degraded,
            "missing symbol must mark the read degraded"
        );

        // After repair the object is fully available again -> not degraded.
        s.repair_node(NodeId(2)).unwrap();
        let (_, report) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
        assert!(!report.degraded);

        // A node failure that does NOT affect a freshly stored object...
        // (store writes to all nodes, so fail a node and store afterwards:
        // the down node misses the new object's share).
        s.fail_node(NodeId(5)).unwrap();
        let (_, report) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
        assert!(report.degraded, "share on the down node is unavailable");

        // An allowed set smaller than n also caps this read's availability.
        s.recover_node(NodeId(5)).unwrap();
        let allowed: Vec<NodeId> = (0..4).map(NodeId).collect();
        let (_, report) = s
            .retrieve_from("obj", SelectionPolicy::FirstK, Some(&allowed))
            .unwrap();
        assert!(report.degraded, "allowed set exposed only k of n shares");
        let all: Vec<NodeId> = (0..6).map(NodeId).collect();
        let (_, report) = s
            .retrieve_from("obj", SelectionPolicy::FirstK, Some(&all))
            .unwrap();
        assert!(!report.degraded);
    }

    #[test]
    fn unknown_objects_are_reported() {
        let mut s = store();
        assert!(matches!(
            s.retrieve("nope", SelectionPolicy::FirstK),
            Err(StorageError::UnknownObject { .. })
        ));
    }

    #[test]
    fn least_loaded_selection_balances_reads() {
        let mut s = store();
        let data = vec![7u8; 600];
        s.store("obj", &data).unwrap();
        for _ in 0..30 {
            s.retrieve("obj", SelectionPolicy::LeastLoaded).unwrap();
        }
        // With 30 reads of k = 4 sources over 6 nodes, a balanced policy
        // touches every node a similar number of times.
        let served: Vec<u64> = (0..6).map(|i| s.bytes_served(NodeId(i))).collect();
        let min = *served.iter().min().unwrap();
        let max = *served.iter().max().unwrap();
        assert!(min > 0, "every node serves some reads: {served:?}");
        assert!(max <= min * 2, "load stays balanced: {served:?}");
    }

    #[test]
    fn first_k_selection_concentrates_reads() {
        let mut s = store();
        s.store("obj", &vec![1u8; 300]).unwrap();
        for _ in 0..10 {
            s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
        }
        assert_eq!(s.bytes_served(NodeId(5)), 0);
        assert!(s.bytes_served(NodeId(0)) > 0);
    }

    #[test]
    fn nearest_selection_prefers_close_nodes() {
        let mut s = store();
        s.store("obj", &[2u8; 120]).unwrap();
        // Make nodes 3..6 the closest.
        for (i, d) in [(0usize, 10u64), (1, 11), (2, 12), (3, 0), (4, 1), (5, 2)] {
            s.set_distance(NodeId(i), d).unwrap();
        }
        let (_, report) = s.retrieve("obj", SelectionPolicy::Nearest).unwrap();
        let mut sources: Vec<usize> = report.sources.iter().map(|n| n.0).collect();
        sources.sort_unstable();
        // The three close nodes (3, 4, 5) plus the nearest of the far ones.
        assert_eq!(sources, vec![0, 3, 4, 5]);
    }

    #[test]
    fn hot_swap_and_repair_restore_full_redundancy() {
        let mut s = store();
        let data = vec![9u8; 480];
        s.store("a", &data).unwrap();
        s.store("b", &data).unwrap();
        // Replace node 2 with a blank machine, then repair it.
        s.replace_node(NodeId(2)).unwrap();
        let repaired = s.repair_node(NodeId(2)).unwrap();
        assert_eq!(repaired, 2);
        // Now the system again tolerates the loss of any two *other* nodes
        // while still reading through node 2.
        s.fail_node(NodeId(0)).unwrap();
        s.fail_node(NodeId(5)).unwrap();
        let (out, _) = s.retrieve("a", SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, data);
    }

    use rain_codes::ReedSolomon;

    use crate::group::GroupConfig;

    /// A grouped store over the paper's (6, 4) B-Code: objects under 64
    /// bytes are batched, groups seal at 256 bytes.
    fn grouped_store() -> DistributedStore {
        DistributedStore::with_groups(Arc::new(BCode::table_1a()), grouped_config())
    }

    fn grouped_config() -> GroupConfig {
        GroupConfig {
            threshold: 64,
            capacity: 256,
            compact_watermark: 0.5,
            ..GroupConfig::disabled()
        }
    }

    #[test]
    fn grouped_store_round_trips_before_and_after_flush() {
        let mut s = grouped_store();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 40 + i as usize]).collect();
        for (i, p) in payloads.iter().enumerate() {
            s.store(&format!("obj-{i}"), p).unwrap();
        }
        // Open-group reads come straight from the write buffer.
        let (out, report) = s.retrieve("obj-2", SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, payloads[2]);
        assert!(report.sources.is_empty(), "no node reads before sealing");
        assert!(!report.degraded);

        s.flush().unwrap();
        let stats = s.group_stats();
        assert_eq!(stats.sealed_groups, stats.groups);
        assert_eq!(stats.grouped_objects, 5);
        assert_eq!(stats.open_bytes, 0);

        for (i, p) in payloads.iter().enumerate() {
            let (out, _) = s
                .retrieve(&format!("obj-{i}"), SelectionPolicy::FirstK)
                .unwrap();
            assert_eq!(&out, p);
        }
    }

    /// A grouped store over the (6, 4) B-Code holding twelve 20-byte
    /// objects `o0`..`o11`, one sealed group. They fill the code's twelve
    /// data cells of a 240-byte block exactly: each object is one cell of
    /// one column.
    fn one_cell_store() -> DistributedStore {
        let mut s = grouped_store();
        for i in 0..12 {
            s.store(&format!("o{i}"), &[i as u8; 20]).unwrap();
        }
        s.flush().unwrap();
        s
    }

    /// The node holding object `o{i}` of [`one_cell_store`].
    fn data_node(s: &DistributedStore, i: usize) -> usize {
        s.code.locate(240, 20 * i).expect("B-Code locates").0
    }

    #[test]
    fn co_located_retrieves_cost_one_decode() {
        // Healthy: the first read of the group is ranged — one source, no
        // decode. The second read of the same group decodes from k nodes
        // and fills the cache, which serves the other ten.
        let mut s = one_cell_store();
        for i in 0..12 {
            let (out, report) = s
                .retrieve(&format!("o{i}"), SelectionPolicy::FirstK)
                .unwrap();
            assert_eq!(out, [i as u8; 20]);
            assert!(!report.degraded);
            match i {
                0 => {
                    assert_eq!(report.sources, [NodeId(data_node(&s, 0))], "ranged");
                    assert_eq!(report.bytes_per_source, 60, "a whole share is shipped");
                }
                1 => assert_eq!(report.sources.len(), 4, "read again: decoded"),
                _ => assert!(report.sources.is_empty(), "cache hit reads no node"),
            }
        }
        let stats = s.group_stats();
        assert_eq!(
            (stats.decode_cache_misses, stats.decode_cache_hits),
            (1, 10)
        );

        // With o0's data node down, the first read decodes from k nodes
        // and fills the cache; every other co-located read hits it.
        let mut s = one_cell_store();
        let down = data_node(&s, 0);
        s.fail_node(NodeId(down)).unwrap();
        for i in 0..12 {
            let (out, report) = s
                .retrieve(&format!("o{i}"), SelectionPolicy::FirstK)
                .unwrap();
            assert_eq!(out, [i as u8; 20]);
            assert!(report.degraded);
            if i == 0 {
                assert_eq!(report.sources.len(), 4, "first read decodes from k nodes");
                assert!(!report.sources.contains(&NodeId(down)));
            } else {
                assert!(report.sources.is_empty(), "cache hit reads no node");
            }
        }
        let stats = s.group_stats();
        assert_eq!(stats.decode_cache_misses, 1);
        assert_eq!(stats.decode_cache_hits, 11);
    }

    #[test]
    fn reads_spread_over_more_groups_than_the_cache_stay_ranged() {
        // Five groups, read round-robin: a group comes round again only
        // after four others, by which time it is no longer remembered, so
        // no read decodes.
        let mut s = grouped_store();
        for g in 0..5 {
            for i in 0..12 {
                s.store(&format!("g{g}o{i}"), &[(g * 12 + i) as u8; 20])
                    .unwrap();
            }
            s.flush().unwrap();
        }
        for i in 0..12 {
            for g in 0..5 {
                let (out, report) = s
                    .retrieve(&format!("g{g}o{i}"), SelectionPolicy::FirstK)
                    .unwrap();
                assert_eq!(out, [(g * 12 + i) as u8; 20]);
                assert_eq!(report.sources.len(), 1, "g{g}o{i} read ranged");
            }
        }
        assert_eq!(s.group_stats().decode_cache_misses, 0);
    }

    /// A [`one_cell_store`] and the name and bytes of an object whose cell
    /// lives on node 5. A `FirstK` decode asks nodes 0–3 first, so the
    /// fallback never touches node 5 unless one of them fails.
    fn one_cell_objects() -> (DistributedStore, String, Vec<u8>) {
        let s = one_cell_store();
        let i = (0..12)
            .find(|&i| data_node(&s, i) == 5)
            .expect("node 5 holds two data cells");
        (s, format!("o{i}"), vec![i as u8; 20])
    }

    /// Damage node 5's frame of the only sealed group, then read an object
    /// it holds: the ranged read must refuse the frame, and the decode must
    /// serve the right bytes, degraded, with the refusal counted as `want`.
    fn ranged_read_falls_back(damage: impl FnOnce(&mut Vec<u8>), want: NodeOutcome) {
        let (mut s, name, want_bytes) = one_cell_objects();
        let registry = Registry::new();
        s.attach_registry(&registry);
        damage(s.nodes[5].group_symbols.values_mut().next().unwrap());
        let (out, report) = s.retrieve(&name, SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, want_bytes);
        assert!(report.degraded);
        assert_eq!(report.outcomes[0], (NodeId(5), want), "ranged refusal");
        let sources: Vec<usize> = report.sources.iter().map(|n| n.0).collect();
        assert_eq!(sources, [0, 1, 2, 3], "fell back to a k-share decode");
        let tally = OutcomeTally::from_registry(&registry);
        assert_eq!((tally.ok, tally.corrupt + tally.stale), (4, 1));
        assert_eq!(registry.counter_value("storage.retrieve.ranged"), 0);
        assert_eq!(registry.counter_value("storage.retrieve.decoded"), 1);
        assert_eq!(
            registry.counter_value("storage.retrieve.bytes_verified"),
            4 * 60
        );
    }

    #[test]
    fn ranged_read_refuses_a_frame_damaged_at_rest() {
        ranged_read_falls_back(
            |frame| frame[FRAME_HEADER + 3] ^= 0x40,
            NodeOutcome::Corrupt,
        );
    }

    #[test]
    fn ranged_read_refuses_a_stale_generation() {
        ranged_read_falls_back(
            |frame| {
                let (gen, payload) = open_frame(frame).unwrap();
                *frame = seal_frame(gen + 1, payload);
            },
            NodeOutcome::Stale,
        );
    }

    #[test]
    fn ranged_read_refuses_a_truncated_frame() {
        ranged_read_falls_back(
            |frame| frame.truncate(frame.len() - 1),
            NodeOutcome::Corrupt,
        );
        // Re-sealed after truncation, so checksum and generation verify:
        // only the length check against the group table catches it.
        ranged_read_falls_back(
            |frame| {
                let (gen, payload) = open_frame(frame).unwrap();
                *frame = seal_frame(gen, &payload[..payload.len() - 1]);
            },
            NodeOutcome::Corrupt,
        );
    }

    #[test]
    fn ranged_reads_keep_the_k_holder_availability_check() {
        // The object's own node is up, but only k - 1 holders are: the read
        // is unavailable, not served from the one node with the bytes.
        let (mut s, name, _) = one_cell_objects();
        for other in 0..3 {
            s.fail_node(NodeId(other)).unwrap();
        }
        assert!(matches!(
            s.retrieve(&name, SelectionPolicy::FirstK),
            Err(StorageError::NotEnoughNodes {
                available: 3,
                needed: 4
            })
        ));
    }

    #[test]
    fn ranged_reads_are_counted_and_charge_one_share() {
        let (mut s, name, _) = one_cell_objects();
        let registry = Registry::new();
        s.attach_registry(&registry);
        let served_before = s.bytes_served(NodeId(5));
        let (_, report) = s.retrieve(&name, SelectionPolicy::FirstK).unwrap();
        assert_eq!(report.sources, [NodeId(5)]);
        assert_eq!(report.outcomes, [(NodeId(5), NodeOutcome::Ok)]);
        assert_eq!(s.bytes_served(NodeId(5)) - served_before, 60);
        assert_eq!(registry.counter_value("storage.retrieve.ranged"), 1);
        assert_eq!(registry.counter_value("storage.retrieve.decoded"), 0);
        assert_eq!(
            registry.counter_value("storage.retrieve.bytes_verified"),
            60
        );
    }

    #[test]
    fn object_exactly_at_the_threshold_is_stored_individually() {
        let mut s = grouped_store();
        s.store("at-threshold", &[7u8; 64]).unwrap(); // len == threshold
        s.store("below", &[8u8; 63]).unwrap(); // len == threshold - 1
        let stats = s.group_stats();
        assert_eq!(stats.grouped_objects, 1, "only the strictly smaller one");
        assert_eq!(s.num_objects(), 2);
        // The at-threshold object is durable without a flush (whole path)…
        s.fail_node(NodeId(0)).unwrap();
        s.fail_node(NodeId(1)).unwrap();
        let (out, _) = s.retrieve("at-threshold", SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, vec![7u8; 64]);
        // …and both survive once the group is sealed too.
        s.recover_node(NodeId(0)).unwrap();
        s.recover_node(NodeId(1)).unwrap();
        s.flush().unwrap();
        assert_eq!(
            s.retrieve("below", SelectionPolicy::FirstK).unwrap().0,
            vec![8u8; 63]
        );
    }

    #[test]
    fn groups_seal_automatically_at_capacity() {
        let mut s = grouped_store();
        // 6 x 50 = 300 bytes > 256-byte capacity: the 6th store seals the
        // group (50-byte objects, so the threshold routes all of them).
        for i in 0..6 {
            s.store(&format!("o{i}"), &[i as u8; 50]).unwrap();
        }
        let stats = s.group_stats();
        assert_eq!(stats.sealed_groups, 1);
        assert_eq!(stats.open_bytes, 0, "nothing left buffered");
        // Sealed without any flush call: survives node loss immediately.
        s.fail_node(NodeId(2)).unwrap();
        s.fail_node(NodeId(5)).unwrap();
        for i in 0..6 {
            let (out, report) = s
                .retrieve(&format!("o{i}"), SelectionPolicy::FirstK)
                .unwrap();
            assert_eq!(out, vec![i as u8; 50]);
            if i == 0 {
                assert!(report.degraded, "only 4 of 6 group symbols reachable");
            }
        }
    }

    #[test]
    fn group_retrieve_with_failed_nodes_and_beyond_tolerance() {
        let mut s = grouped_store();
        for i in 0..3 {
            s.store(&format!("o{i}"), &[9u8; 30]).unwrap();
        }
        s.flush().unwrap();
        // Prime the decode cache while everything is healthy: the cache
        // must not mask unavailability below.
        s.retrieve("o0", SelectionPolicy::FirstK).unwrap();
        // Three failures exceed the (6,4) tolerance; the group cannot be
        // served even though its decoded block is still cached.
        for n in 0..3 {
            s.fail_node(NodeId(n)).unwrap();
        }
        assert!(matches!(
            s.retrieve("o1", SelectionPolicy::FirstK),
            Err(StorageError::NotEnoughNodes {
                available: 3,
                needed: 4
            })
        ));
        // Recovering one node brings the group back, degraded.
        s.recover_node(NodeId(0)).unwrap();
        let (out, report) = s.retrieve("o1", SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, vec![9u8; 30]);
        assert!(report.degraded);
    }

    #[test]
    fn delete_then_compact_round_trips_the_survivors() {
        let mut s = grouped_store();
        for i in 0..5 {
            s.store(&format!("o{i}"), &[i as u8; 40]).unwrap();
        }
        s.flush().unwrap();
        // Tombstone 3 of 5: live fraction 80/200 < 0.5 watermark.
        for i in 0..3 {
            s.delete(&format!("o{i}")).unwrap();
        }
        assert!(matches!(
            s.retrieve("o0", SelectionPolicy::FirstK),
            Err(StorageError::UnknownObject { .. })
        ));
        let report = s.compact().unwrap();
        assert_eq!(report.groups_compacted, 1);
        assert_eq!(report.objects_moved, 2);
        assert_eq!(report.bytes_reclaimed, 3 * 40);
        // The old group's symbols are gone from every node; the survivors
        // moved into a fresh open group and still read back correctly.
        let stats = s.group_stats();
        assert_eq!(stats.sealed_groups, 0);
        assert_eq!(stats.grouped_objects, 2);
        for i in 3..5 {
            let (out, _) = s
                .retrieve(&format!("o{i}"), SelectionPolicy::FirstK)
                .unwrap();
            assert_eq!(out, vec![i as u8; 40]);
        }
        // Seal the compacted group and check durability end to end.
        s.flush().unwrap();
        s.fail_node(NodeId(1)).unwrap();
        s.fail_node(NodeId(3)).unwrap();
        assert_eq!(
            s.retrieve("o4", SelectionPolicy::FirstK).unwrap().0,
            vec![4u8; 40]
        );
    }

    #[test]
    fn deleting_the_last_member_drops_a_sealed_group() {
        let mut s = grouped_store();
        s.store("only", &[1u8; 20]).unwrap();
        s.flush().unwrap();
        assert_eq!(s.group_stats().sealed_groups, 1);
        s.delete("only").unwrap();
        let stats = s.group_stats();
        assert_eq!(stats.groups, 0, "fully dead group is dropped outright");
        assert!(matches!(
            s.delete("only"),
            Err(StorageError::UnknownObject { .. })
        ));
    }

    #[test]
    fn emptied_open_group_restarts_its_block() {
        let mut s = grouped_store();
        s.store("a", &[1u8; 30]).unwrap();
        s.store("b", &[2u8; 30]).unwrap();
        s.delete("a").unwrap();
        s.delete("b").unwrap();
        assert_eq!(s.group_stats().packed_bytes, 0, "dead bytes discarded");
        // The group keeps working for new appends.
        s.store("c", &[3u8; 30]).unwrap();
        s.flush().unwrap();
        assert_eq!(
            s.retrieve("c", SelectionPolicy::FirstK).unwrap().0,
            vec![3u8; 30]
        );
    }

    #[test]
    fn overwriting_a_grouped_object_tombstones_the_old_copy() {
        let mut s = grouped_store();
        s.store("x", &[1u8; 40]).unwrap();
        s.store("keep", &[5u8; 40]).unwrap();
        s.flush().unwrap();
        s.store("x", &[2u8; 48]).unwrap();
        s.flush().unwrap();
        assert_eq!(
            s.retrieve("x", SelectionPolicy::FirstK).unwrap().0,
            vec![2u8; 48]
        );
        assert_eq!(
            s.retrieve("keep", SelectionPolicy::FirstK).unwrap().0,
            vec![5u8; 40]
        );
        let stats = s.group_stats();
        assert_eq!(stats.grouped_objects, 2);
        assert!(stats.live_bytes < stats.packed_bytes, "old copy tombstoned");
    }

    #[test]
    fn empty_objects_round_trip_through_groups() {
        let mut s = grouped_store();
        s.store("empty", &[]).unwrap();
        s.flush().unwrap();
        let (out, _) = s.retrieve("empty", SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, Vec::<u8>::new());
    }

    #[test]
    fn repair_is_per_group_not_per_object() {
        let mut s = grouped_store();
        // 4 grouped objects in one group + 2 whole objects.
        for i in 0..4 {
            s.store(&format!("small-{i}"), &[i as u8; 40]).unwrap();
        }
        s.flush().unwrap();
        s.store("big-a", &[7u8; 100]).unwrap();
        s.store("big-b", &[8u8; 100]).unwrap();
        s.replace_node(NodeId(3)).unwrap();
        let repaired = s.repair_node(NodeId(3)).unwrap();
        assert_eq!(repaired, 3, "one group symbol + two whole symbols");
        // The repaired node serves group reads again: kill two others.
        s.fail_node(NodeId(0)).unwrap();
        s.fail_node(NodeId(1)).unwrap();
        for i in 0..4 {
            assert_eq!(
                s.retrieve(&format!("small-{i}"), SelectionPolicy::FirstK)
                    .unwrap()
                    .0,
                vec![i as u8; 40]
            );
        }
    }

    /// Wraps a real code but fails encodes on demand, to exercise the
    /// seal-failure path (only reachable with a faulty code, since the
    /// store always hands `encode_into` a valid block).
    struct FlakyCode {
        inner: ArrayCode,
        fail_encode: std::sync::atomic::AtomicBool,
    }

    impl FlakyCode {
        fn set_failing(&self, failing: bool) {
            self.fail_encode
                .store(failing, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl ErasureCode for FlakyCode {
        fn kind(&self) -> rain_codes::CodeKind {
            self.inner.kind()
        }
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn k(&self) -> usize {
            self.inner.k()
        }
        fn data_len_unit(&self) -> usize {
            self.inner.data_len_unit()
        }
        fn cost(&self, data_len: usize) -> rain_codes::CodeCost {
            self.inner.cost(data_len)
        }
        fn encode_slices(&self, data: &[u8], shares: &mut [&mut [u8]]) -> Result<(), CodeError> {
            if self.fail_encode.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(CodeError::DecodeFailure {
                    reason: "injected encode failure".into(),
                });
            }
            self.inner.encode_slices(data, shares)
        }
        fn decode_slices(&self, shares: &ShareView<'_>, out: &mut [u8]) -> Result<(), CodeError> {
            self.inner.decode_slices(shares, out)
        }
        fn repair(
            &self,
            shares: &ShareView<'_>,
            missing: usize,
            out: &mut [u8],
        ) -> Result<(), CodeError> {
            self.inner.repair(shares, missing, out)
        }
    }

    #[test]
    fn failed_seal_keeps_the_open_group_intact() {
        let code = Arc::new(FlakyCode {
            inner: BCode::table_1a(),
            fail_encode: std::sync::atomic::AtomicBool::new(false),
        });
        let mut s = DistributedStore::with_groups(code.clone(), grouped_config());
        s.store("a", &[1u8; 40]).unwrap();
        s.store("b", &[2u8; 40]).unwrap();
        code.set_failing(true);
        assert!(matches!(s.flush(), Err(StorageError::Code(_))));
        // The buffered objects survive the failed seal: spans stay valid,
        // the group stays open, nothing is erasure-coded yet.
        let (out, report) = s.retrieve("b", SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, vec![2u8; 40]);
        assert!(report.sources.is_empty(), "still in the write buffer");
        assert_eq!(s.group_stats().open_bytes, 80);
        // Once the code recovers, the same group seals and decodes fine.
        code.set_failing(false);
        s.flush().unwrap();
        assert_eq!(s.group_stats().open_bytes, 0);
        assert_eq!(
            s.retrieve("a", SelectionPolicy::FirstK).unwrap().0,
            vec![1u8; 40]
        );
    }

    #[test]
    fn failed_whole_encode_leaves_a_grouped_predecessor_intact() {
        // The overwrite's fallible encode runs before the predecessor is
        // tombstoned: if it fails, the old grouped copy must still be
        // retrievable (not a dangling placement into a dropped group).
        let code = Arc::new(FlakyCode {
            inner: BCode::table_1a(),
            fail_encode: std::sync::atomic::AtomicBool::new(false),
        });
        let mut s = DistributedStore::with_groups(code.clone(), grouped_config());
        s.store("x", &[3u8; 40]).unwrap();
        s.flush().unwrap(); // "x" is the sole live member of a sealed group
        code.set_failing(true);
        assert!(matches!(
            s.store("x", &[4u8; 100]), // whole overwrite, encode fails
            Err(StorageError::Code(_))
        ));
        code.set_failing(false);
        assert_eq!(
            s.retrieve("x", SelectionPolicy::FirstK).unwrap().0,
            vec![3u8; 40],
            "the acked grouped copy survives the failed overwrite"
        );
    }

    #[test]
    fn grouped_store_works_with_reed_solomon_too() {
        let mut s = DistributedStore::with_groups(
            Arc::new(ReedSolomon::new(9, 6).unwrap()),
            GroupConfig::small_objects(),
        );
        for i in 0..20 {
            s.store(&format!("o{i}"), &vec![i as u8; 1024]).unwrap();
        }
        s.flush().unwrap();
        for n in 0..3 {
            s.fail_node(NodeId(n)).unwrap();
        }
        for i in 0..20 {
            assert_eq!(
                s.retrieve(&format!("o{i}"), SelectionPolicy::LeastLoaded)
                    .unwrap()
                    .0,
                vec![i as u8; 1024]
            );
        }
    }

    use crate::wal::{CrashFuse, LogBackend, MemLog, WalError};

    /// A logged grouped store over the (6, 4) B-Code.
    fn logged_store() -> DistributedStore {
        DistributedStore::with_groups(Arc::new(BCode::table_1a()), grouped_config().logged())
    }

    fn recover_from(
        s: DistributedStore,
    ) -> Result<(DistributedStore, RecoveryReport), StorageError> {
        let (nodes, wal) = s.crash();
        DistributedStore::recover(
            Arc::new(BCode::table_1a()),
            grouped_config().logged(),
            nodes,
            wal.expect("logged store carries a wal"),
        )
    }

    #[test]
    fn flush_reports_what_committed() {
        let mut s = grouped_store();
        assert_eq!(s.flush().unwrap(), FlushReport::default(), "nothing open");
        s.store("a", &[1u8; 40]).unwrap();
        s.store("b", &[2u8; 40]).unwrap();
        s.delete("b").unwrap();
        let report = s.flush().unwrap();
        assert_eq!(report.groups_sealed, 1);
        assert_eq!(report.objects_committed, 1, "only the live member commits");
        assert_eq!(s.flush().unwrap(), FlushReport::default(), "already sealed");
    }

    #[test]
    fn bytes_at_risk_counts_acked_unsealed_bytes() {
        let mut s = logged_store();
        s.store("a", &[1u8; 40]).unwrap();
        s.store("b", &[2u8; 24]).unwrap();
        let stats = s.group_stats();
        assert_eq!(stats.bytes_at_risk, 64, "open-group live bytes at risk");
        assert!(stats.wal_records >= 2, "both stores logged");
        assert!(stats.wal_bytes > 64, "frames carry the grouped bytes");
        s.flush().unwrap();
        assert_eq!(s.group_stats().bytes_at_risk, 0, "sealed = erasure-coded");
    }

    #[test]
    fn a_dead_device_during_an_interval_commit_latches_instead_of_acking_forever() {
        use crate::wal::file::{FaultSpec, FaultyFile, FileLog, FsyncPolicy};
        // EveryT acks appends without an fsync and commits on a later
        // clock tick. Power is lost at that background commit (write call
        // 0): before the latch, `advance_time` swallowed the error and —
        // because a failed commit still resets the interval clock — every
        // in-window append kept acking against a dead device.
        let cfg = grouped_config()
            .logged()
            .with_fsync(FsyncPolicy::EveryT(SimDuration::from_millis(10)));
        let (file, handle) = FaultyFile::new(FaultSpec {
            crash_on_write: Some((0, 0)),
            ..FaultSpec::default()
        });
        let log = FileLog::with_raw(Box::new(file), cfg.fsync).unwrap();
        let mut s = DistributedStore::with_wal(Arc::new(BCode::table_1a()), cfg, Box::new(log));
        s.store("a", &[1u8; 40]).unwrap();
        assert!(s.wal_failed().is_none());

        s.advance_time(SimDuration::from_millis(11));
        assert_eq!(s.wal_failed(), Some(&WalError::Crashed), "failure latched");
        assert_eq!(
            handle.durable_bytes(),
            b"",
            "nothing ever reached the device"
        );

        // Still inside the new commit window, so without the latch this
        // append would ack silently with zero durability.
        let err = s.store("b", &[2u8; 40]).unwrap_err();
        assert!(
            matches!(err, StorageError::Wal(WalError::Crashed)),
            "append surfaces the latched failure, got {err:?}"
        );
        let err = s.sync_wal().unwrap_err();
        assert!(matches!(err, StorageError::Wal(WalError::Crashed)));
        assert!(
            s.retrieve("a", SelectionPolicy::FirstK).is_ok(),
            "reads still serve what the coordinator holds"
        );
    }

    #[test]
    fn coordinator_crash_loses_nothing_acked_in_a_logged_store() {
        let mut s = logged_store();
        // A sealed group, an open group, and a whole object.
        for i in 0..5u8 {
            s.store(&format!("small-{i}"), &[i; 40]).unwrap();
        }
        s.flush().unwrap();
        s.store("open-a", &[9u8; 30]).unwrap();
        s.store("open-b", &[8u8; 50]).unwrap();
        s.store("big", &[7u8; 200]).unwrap();
        s.delete("small-3").unwrap();

        let (rec, report) = recover_from(s).unwrap();
        let mut rec = rec;
        assert!(!report.torn_tail);
        assert_eq!(report.objects_recovered, 7);
        assert_eq!(report.open_bytes_recovered, 80, "open-group bytes rebuilt");
        for i in [0u8, 1, 2, 4] {
            let (out, _) = rec
                .retrieve(&format!("small-{i}"), SelectionPolicy::FirstK)
                .unwrap();
            assert_eq!(out, vec![i; 40]);
        }
        assert!(matches!(
            rec.retrieve("small-3", SelectionPolicy::FirstK),
            Err(StorageError::UnknownObject { .. })
        ));
        let (out, rep) = rec.retrieve("open-a", SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, vec![9u8; 30]);
        assert!(rep.sources.is_empty(), "rebuilt into the write buffer");
        assert_eq!(
            rec.retrieve("big", SelectionPolicy::FirstK).unwrap().0,
            vec![7u8; 200]
        );
        // The recovered coordinator can carry on: seal the rebuilt group.
        let report = rec.flush().unwrap();
        assert_eq!(report.objects_committed, 2);
        rec.fail_node(NodeId(0)).unwrap();
        rec.fail_node(NodeId(1)).unwrap();
        assert_eq!(
            rec.retrieve("open-b", SelectionPolicy::FirstK).unwrap().0,
            vec![8u8; 50]
        );
    }

    #[test]
    fn a_volatile_store_really_does_lose_its_open_group() {
        // The contrast case motivating the log: same crash, no WAL.
        let mut s = grouped_store();
        s.store("gone", &[1u8; 40]).unwrap();
        let (_nodes, wal) = s.crash();
        assert!(wal.is_none(), "volatile stores carry no log");
    }

    #[test]
    fn recovered_stores_keep_logging_and_survive_a_second_crash() {
        let mut s = logged_store();
        s.store("first", &[1u8; 40]).unwrap();
        let (mut rec, _) = recover_from(s).unwrap();
        rec.store("second", &[2u8; 40]).unwrap();
        let (mut rec2, report) = recover_from(rec).unwrap();
        assert_eq!(report.objects_recovered, 2);
        for (name, byte) in [("first", 1u8), ("second", 2u8)] {
            assert_eq!(
                rec2.retrieve(name, SelectionPolicy::FirstK).unwrap().0,
                vec![byte; 40]
            );
        }
    }

    #[test]
    fn checkpoint_truncates_the_prefix_and_recovery_restores_the_snapshot() {
        let mut s = logged_store();
        for i in 0..5u8 {
            s.store(&format!("small-{i}"), &[i; 40]).unwrap();
        }
        s.flush().unwrap();
        s.store("big", &[7u8; 200]).unwrap();
        s.delete("small-3").unwrap();
        let first = s.checkpoint().unwrap();
        assert_eq!(first.records_dropped, 0, "first checkpoint keeps history");
        assert!(first.checkpoint_bytes > 0);
        s.store("open-a", &[9u8; 30]).unwrap();
        let second = s.checkpoint().unwrap();
        assert!(
            second.records_dropped >= 8,
            "second checkpoint drops the pre-first-checkpoint prefix \
             (got {})",
            second.records_dropped
        );
        assert!(second.bytes_dropped > 0);
        s.store("open-b", &[8u8; 50]).unwrap();

        let stats = s.group_stats();
        assert_eq!(stats.wal_checkpoints, 2);
        assert_eq!(
            stats.wal_records, 4,
            "checkpoint + suffix + checkpoint + one append"
        );

        let (mut rec, report) = recover_from(s).unwrap();
        assert!(report.checkpoint_restored);
        assert_eq!(report.checkpoint_fallbacks, 0);
        assert_eq!(
            report.records_since_checkpoint, 1,
            "only the post-checkpoint append is redone"
        );
        for i in [0u8, 1, 2, 4] {
            assert_eq!(
                rec.retrieve(&format!("small-{i}"), SelectionPolicy::FirstK)
                    .unwrap()
                    .0,
                vec![i; 40]
            );
        }
        assert!(matches!(
            rec.retrieve("small-3", SelectionPolicy::FirstK),
            Err(StorageError::UnknownObject { .. })
        ));
        assert_eq!(
            rec.retrieve("big", SelectionPolicy::FirstK).unwrap().0,
            vec![7u8; 200]
        );
        for (name, byte, len) in [("open-a", 9u8, 30usize), ("open-b", 8, 50)] {
            let (out, rep) = rec.retrieve(name, SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, vec![byte; len]);
            assert!(rep.sources.is_empty(), "rebuilt into the write buffer");
        }
        // The recovered store can keep checkpointing over the same log.
        rec.store("post", &[3u8; 40]).unwrap();
        let third = rec.checkpoint().unwrap();
        assert!(third.records_dropped >= 1);
        let (mut rec2, report2) = recover_from(rec).unwrap();
        assert!(report2.checkpoint_restored);
        assert_eq!(
            rec2.retrieve("post", SelectionPolicy::FirstK).unwrap().0,
            vec![3u8; 40]
        );
    }

    #[test]
    fn auto_checkpoints_fire_on_the_configured_interval() {
        let config = grouped_config().logged().with_checkpoint_every(6);
        let mut s = DistributedStore::with_groups(Arc::new(BCode::table_1a()), config);
        for round in 0..40u32 {
            s.store(&format!("obj-{}", round % 7), &[round as u8; 40])
                .unwrap();
        }
        let stats = s.group_stats();
        assert!(
            stats.wal_checkpoints >= 4,
            "40 appends at every-6 should checkpoint repeatedly \
             (got {})",
            stats.wal_checkpoints
        );
        // Two-checkpoint retention bounds the log: at most two intervals of
        // ordinary records plus the two retained checkpoints (the live
        // snapshot payloads), regardless of workload length.
        assert!(
            stats.wal_records <= 2 * 6 + 2,
            "log length must stay bounded (got {} records)",
            stats.wal_records
        );
        let (mut rec, report) = recover_from(s).unwrap();
        assert!(report.checkpoint_restored);
        assert!(report.records_replayed <= 2 * 6 + 2);
        for name in 0..7u32 {
            assert!(rec
                .retrieve(&format!("obj-{name}"), SelectionPolicy::FirstK)
                .is_ok());
        }
    }

    #[test]
    fn recovery_falls_back_past_a_rotted_checkpoint() {
        let mut s = logged_store();
        s.store("kept", &[1u8; 40]).unwrap();
        s.checkpoint().unwrap();
        s.store("later", &[2u8; 40]).unwrap();
        s.checkpoint().unwrap();
        s.store("tail", &[3u8; 40]).unwrap();
        let (nodes, wal) = s.crash();
        let mut bytes = wal.unwrap().contents().unwrap();

        // Rot one byte inside the *newest* checkpoint's embedded state and
        // re-seal the frame checksum over it: the frame still parses, but
        // the state checksum no longer matches — bit rot, not a torn write.
        let mut pos = 0usize;
        let mut ckpt_frames = Vec::new();
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            if bytes[pos + 12] == 8 {
                ckpt_frames.push((pos, len));
            }
            pos += 12 + len;
        }
        assert_eq!(ckpt_frames.len(), 2, "both checkpoints still in the log");
        let (start, len) = *ckpt_frames.last().unwrap();
        let payload = start + 12;
        bytes[payload + 5 + 8] ^= 0xff; // a byte of the state body
        let crc = crate::wal::crc32(&bytes[payload..payload + len]).to_le_bytes();
        bytes[start + 8..start + 12].copy_from_slice(&crc);

        let mut mem = MemLog::new();
        mem.append(&bytes).unwrap();
        let (mut rec, report) = DistributedStore::recover(
            Arc::new(BCode::table_1a()),
            grouped_config().logged(),
            nodes,
            WriteAheadLog::new(Box::new(mem)),
        )
        .unwrap();
        assert!(
            report.checkpoint_restored,
            "fell back to the older snapshot"
        );
        assert_eq!(report.checkpoint_fallbacks, 1);
        assert!(
            report.records_since_checkpoint >= 3,
            "redoes everything after the older checkpoint"
        );
        for (name, byte) in [("kept", 1u8), ("later", 2), ("tail", 3)] {
            assert_eq!(
                rec.retrieve(name, SelectionPolicy::FirstK).unwrap().0,
                vec![byte; 40]
            );
        }
    }

    #[test]
    fn recovery_replays_compaction_rewrites() {
        let mut s = logged_store();
        for i in 0..5u8 {
            s.store(&format!("o{i}"), &[i; 40]).unwrap();
        }
        s.flush().unwrap();
        for i in 0..3u8 {
            s.delete(&format!("o{i}")).unwrap();
        }
        s.compact().unwrap();
        let (mut rec, report) = recover_from(s).unwrap();
        assert_eq!(report.compactions_noted, 1);
        assert_eq!(report.objects_recovered, 2);
        for i in 3..5u8 {
            let (out, _) = rec
                .retrieve(&format!("o{i}"), SelectionPolicy::FirstK)
                .unwrap();
            assert_eq!(out, vec![i; 40]);
        }
    }

    /// Finding 6: `compact()` picked candidates and members in `HashMap`
    /// order, so one op sequence gave different log bytes per store. Each
    /// store here has its own `RandomState`; their logs must match.
    #[test]
    fn compaction_writes_the_same_log_bytes_in_every_store() {
        let run = || {
            let mut s = logged_store();
            for i in 0..21u8 {
                s.store(&format!("o{i}"), &[i; 40]).unwrap();
            }
            // Three sealed groups of seven; four deletes each leave every
            // group under the 0.5 watermark with three movers.
            for group in 0..3u8 {
                for i in 0..4u8 {
                    s.delete(&format!("o{}", group * 7 + i)).unwrap();
                }
            }
            assert_eq!(s.compact().unwrap().groups_compacted, 3);
            let (_, wal) = s.crash();
            wal.unwrap().contents().unwrap()
        };
        let first = run();
        for _ in 0..4 {
            assert!(run() == first, "compaction log bytes diverged");
        }
    }

    #[test]
    fn a_crash_between_append_and_apply_redoes_the_grouped_store() {
        // The record is fully durable but the coordinator died before
        // touching its state: replay completes the op from the log.
        let mut s = DistributedStore::with_wal(
            Arc::new(BCode::table_1a()),
            grouped_config(),
            Box::new(MemLog::with_fuse(CrashFuse {
                records_before_crash: 1,
                torn_bytes: usize::MAX,
            })),
        );
        s.store("acked", &[5u8; 40]).unwrap();
        assert!(matches!(
            s.store("in-doubt", &[6u8; 40]),
            Err(StorageError::Wal(WalError::Crashed))
        ));
        let (mut rec, _) = recover_from(s).unwrap();
        assert_eq!(
            rec.retrieve("acked", SelectionPolicy::FirstK).unwrap().0,
            vec![5u8; 40]
        );
        // In-doubt but fully logged: redo surfaces it, bit-exact.
        assert_eq!(
            rec.retrieve("in-doubt", SelectionPolicy::FirstK).unwrap().0,
            vec![6u8; 40]
        );
    }

    #[test]
    fn an_unlogged_whole_store_is_discarded_not_resurrected_wrong() {
        // A whole-store record whose symbols never reached the nodes (crash
        // between append and install) must vanish — and must not clobber
        // the acked grouped predecessor under the same name.
        let mut s = DistributedStore::with_wal(
            Arc::new(BCode::table_1a()),
            grouped_config(),
            Box::new(MemLog::with_fuse(CrashFuse {
                records_before_crash: 1,
                torn_bytes: usize::MAX,
            })),
        );
        s.store("x", &[3u8; 40]).unwrap(); // grouped, acked
        assert!(matches!(
            s.store("x", &[4u8; 100]), // whole overwrite, crashes unapplied
            Err(StorageError::Wal(WalError::Crashed))
        ));
        let (mut rec, report) = recover_from(s).unwrap();
        assert_eq!(report.in_doubt_discarded, 1);
        assert_eq!(
            rec.retrieve("x", SelectionPolicy::FirstK).unwrap().0,
            vec![3u8; 40],
            "the acked grouped version survives the in-doubt overwrite"
        );
    }

    #[test]
    fn torn_tail_is_truncated_so_appends_after_recovery_stay_replayable() {
        // Crash mid-frame: 5 orphan bytes of the second record land in the
        // backend. Recovery must cut them before reattaching the log, or
        // the next append would sit behind garbage and the *second*
        // recovery would fail with mid-log corruption.
        let mut s = DistributedStore::with_wal(
            Arc::new(BCode::table_1a()),
            grouped_config(),
            Box::new(MemLog::with_fuse(CrashFuse {
                records_before_crash: 1,
                torn_bytes: 5,
            })),
        );
        s.store("a", &[1u8; 40]).unwrap();
        assert!(matches!(
            s.store("b", &[2u8; 40]),
            Err(StorageError::Wal(WalError::Crashed))
        ));
        let (mut rec, report) = recover_from(s).unwrap();
        assert!(report.torn_tail);
        rec.store("c", &[3u8; 40]).unwrap();
        let (mut rec2, report2) = recover_from(rec).unwrap();
        assert!(!report2.torn_tail, "the cut tail leaves a clean log");
        assert_eq!(report2.records_replayed, 2);
        for (name, byte) in [("a", 1u8), ("c", 3)] {
            assert_eq!(
                rec2.retrieve(name, SelectionPolicy::FirstK).unwrap().0,
                vec![byte; 40]
            );
        }
        assert!(matches!(
            rec2.retrieve("b", SelectionPolicy::FirstK),
            Err(StorageError::UnknownObject { .. })
        ));
    }

    #[test]
    fn recovery_detects_a_mismatched_group_config() {
        // Written under capacity 256 (5 x 60 B auto-seals on the fifth
        // append); recovered under capacity 128 the replay would seal
        // after the third, so the fourth append names a sealed group —
        // reported, not silently corrupted.
        let mut s = logged_store();
        for i in 0..5u8 {
            s.store(&format!("o{i}"), &[i; 60]).unwrap();
        }
        let (nodes, wal) = s.crash();
        let mismatched = GroupConfig {
            capacity: 128,
            ..grouped_config()
        }
        .logged();
        match DistributedStore::recover(
            Arc::new(BCode::table_1a()),
            mismatched,
            nodes,
            wal.unwrap(),
        ) {
            Err(StorageError::Recovery { reason }) => {
                assert!(reason.contains("GroupConfig"), "{reason}")
            }
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("mismatched config accepted"),
        }
    }

    #[test]
    fn superseded_whole_stores_are_not_counted_in_doubt() {
        // whole -> grouped overwrite removes the whole symbols; on replay
        // the earlier StoreWhole record finds none, which is a benign
        // supersession (the later record re-establishes the truth), not an
        // in-doubt discard.
        let mut s = logged_store();
        s.store("x", &[1u8; 100]).unwrap();
        s.store("x", &[2u8; 40]).unwrap();
        s.store("keep", &[3u8; 40]).unwrap();
        let (mut rec, report) = recover_from(s).unwrap();
        assert_eq!(report.in_doubt_discarded, 0, "supersession is not in-doubt");
        assert_eq!(
            rec.retrieve("x", SelectionPolicy::FirstK).unwrap().0,
            vec![2u8; 40]
        );
        // The rehydrated log counters reflect the scanned log exactly.
        let stats = rec.group_stats();
        assert_eq!(stats.wal_records, 3, "three records replayed and counted");
        assert!(stats.wal_bytes > 0);
    }

    #[test]
    fn recovery_rejects_a_different_code_with_the_same_n() {
        // Same n, different code: decoding BCode symbols with an RS
        // decoder would hand back garbage frames, so the identity check
        // must catch it before the first retrieve can.
        let mut s = logged_store();
        s.store("x", &[5u8; 100]).unwrap();
        let (nodes, wal) = s.crash();
        assert_eq!(nodes.code_spec(), CodeSpec::bcode_6_4());
        match DistributedStore::recover(
            Arc::new(ReedSolomon::new(6, 4).unwrap()),
            grouped_config().logged(),
            nodes,
            wal.unwrap(),
        ) {
            Err(StorageError::Recovery { reason }) => {
                assert!(reason.contains("produced by"), "{reason}")
            }
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("mismatched code accepted"),
        }
    }

    #[test]
    fn recovery_rejects_a_mismatched_node_fabric() {
        let s = logged_store();
        let (nodes, wal) = s.crash();
        match DistributedStore::recover(
            Arc::new(ReedSolomon::new(9, 6).unwrap()),
            grouped_config().logged(),
            nodes,
            wal.unwrap(),
        ) {
            Err(StorageError::Recovery { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("mismatched fabric accepted"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Grouped and whole placements agree with the stored bytes for
        /// arbitrary sizes straddling the threshold, arbitrary deletes, and
        /// up to n - k failures.
        #[test]
        fn prop_grouped_store_round_trips(
            sizes in proptest::collection::vec(0usize..96, 1..24),
            delete_mask in proptest::collection::vec(any::<bool>(), 24..25),
            kill in 0usize..6,
        ) {
            let mut s = grouped_store();
            for (i, &len) in sizes.iter().enumerate() {
                s.store(&format!("o{i}"), &vec![(i % 251) as u8; len]).unwrap();
            }
            let mut kept = Vec::new();
            for (i, &len) in sizes.iter().enumerate() {
                if delete_mask[i] {
                    s.delete(&format!("o{i}")).unwrap();
                } else {
                    kept.push((i, len));
                }
            }
            s.flush().unwrap();
            s.compact().unwrap();
            s.flush().unwrap();
            s.fail_node(NodeId(kill)).unwrap();
            for (i, len) in kept {
                let (out, _) = s.retrieve(&format!("o{i}"), SelectionPolicy::FirstK).unwrap();
                prop_assert_eq!(out, vec![(i % 251) as u8; len]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any payload survives any loss of up to n - k nodes, under every
        /// selection policy.
        #[test]
        fn prop_any_two_failures_are_survivable(
            data in proptest::collection::vec(any::<u8>(), 1..512),
            kill1 in 0usize..6,
            kill2 in 0usize..6,
            policy in prop::sample::select(vec![
                SelectionPolicy::FirstK,
                SelectionPolicy::LeastLoaded,
                SelectionPolicy::Nearest,
            ]),
        ) {
            prop_assume!(kill1 != kill2);
            let mut s = store();
            s.store("obj", &data).unwrap();
            s.fail_node(NodeId(kill1)).unwrap();
            s.fail_node(NodeId(kill2)).unwrap();
            let (out, _) = s.retrieve("obj", policy).unwrap();
            prop_assert_eq!(out, data);
        }
    }

    mod transport_faults {
        use super::*;
        use crate::transport::ChaosTransport;
        use rain_sim::{Fault, FaultPlan};

        /// The two inputs of every quorum test: an ungrouped store, where
        /// [`write_obj`] installs `obj` as a whole object, and a grouped one,
        /// where it installs the sealed group holding `obj`.
        fn quorum_inputs() -> [DistributedStore; 2] {
            [store(), grouped_store()]
        }

        /// Store `obj` and flush: the flush is a no-op for a whole object
        /// and seals the open group for a grouped one.
        fn write_obj(s: &mut DistributedStore, data: &[u8]) -> Result<(), StorageError> {
            s.store("obj", data)?;
            s.flush().map(drop)
        }

        #[test]
        fn quorum_writes_ack_short_of_n_and_complete_in_background() {
            for mut s in quorum_inputs() {
                let plan = FaultPlan::none()
                    .at(SimTime::ZERO, Fault::NodeCrash(NodeId(5)))
                    .at(SimTime::from_secs(1), Fault::NodeRecover(NodeId(5)));
                s.set_transport(Box::new(ChaosTransport::new(6, 42).with_plan(plan)));
                s.set_policy(FaultPolicy {
                    write_slack: 1,
                    ..FaultPolicy::default()
                });
                write_obj(&mut s, b"payload").unwrap();
                let stats = s.group_stats();
                assert_eq!(stats.pending_installs, 1);
                assert!(stats.pending_install_bytes > 0);
                // The acked object reads back bit-exact while the tail is
                // outstanding (degraded: node 5 holds nothing yet).
                let (out, rep) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
                assert_eq!(out, b"payload");
                assert!(rep.degraded);
                // Heal the node and drain the tail.
                s.advance_time(SimDuration::from_secs(2));
                assert_eq!(s.complete_writes(), (1, 0));
                assert_eq!(s.group_stats().pending_installs, 0);
                let (_, rep) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
                assert!(!rep.degraded, "full redundancy restored");
            }
        }

        #[test]
        fn a_write_short_of_quorum_fails_and_withdraws_its_tail() {
            for mut s in quorum_inputs() {
                let grouped = s.group_config().threshold > 0;
                let mut plan = FaultPlan::none();
                for i in 0..3 {
                    plan = plan.at(SimTime::ZERO, Fault::NodeCrash(NodeId(i)));
                }
                s.set_transport(Box::new(ChaosTransport::new(6, 7).with_plan(plan)));
                s.set_policy(FaultPolicy {
                    write_slack: 1,
                    ..FaultPolicy::default()
                });
                let err = write_obj(&mut s, b"data").unwrap_err();
                assert_eq!(
                    err,
                    StorageError::QuorumNotReached {
                        installed: 3,
                        needed: 5
                    }
                );
                if grouped {
                    // The failed seal leaves the group open with its bytes.
                    let (out, rep) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
                    assert_eq!(out, b"data");
                    assert!(rep.sources.is_empty(), "still in the write buffer");
                    assert_eq!(s.group_stats().open_bytes, 4);
                    assert_eq!(s.group_stats().sealed_groups, 0);
                } else {
                    assert!(matches!(
                        s.retrieve("obj", SelectionPolicy::FirstK),
                        Err(StorageError::UnknownObject { .. })
                    ));
                }
                assert_eq!(
                    s.group_stats().pending_installs,
                    0,
                    "unacked tail withdrawn"
                );
            }
        }

        #[test]
        fn corrupted_responses_are_erasures_never_wrong_bytes() {
            let mut s = store();
            s.store("obj", &[9u8; 64]).unwrap();
            s.set_transport(Box::new(ChaosTransport::new(6, 3).with_corruption(1.0)));
            let err = s.retrieve("obj", SelectionPolicy::FirstK).unwrap_err();
            assert!(matches!(
                err,
                StorageError::NotEnoughNodes {
                    available: 0,
                    needed: 4
                }
            ));
            assert!(s.transport_stats().corrupted > 0);
        }

        #[test]
        fn a_stale_share_from_a_partial_overwrite_is_never_decoded() {
            let mut s = store();
            s.store("obj", &[1u8; 48]).unwrap();
            // Node 5 is crashed for the overwrite: it keeps the generation-1
            // share.
            let plan = FaultPlan::none()
                .at(SimTime::ZERO, Fault::NodeCrash(NodeId(5)))
                .at(SimTime::from_secs(1), Fault::NodeRecover(NodeId(5)));
            s.set_transport(Box::new(ChaosTransport::new(6, 11).with_plan(plan)));
            s.set_policy(FaultPolicy {
                write_slack: 1,
                ..FaultPolicy::default()
            });
            s.store("obj", &[2u8; 48]).unwrap();
            s.advance_time(SimDuration::from_secs(2));
            // Node 5 is back and preferred by distance, so the read contacts
            // it first — the generation check must reject its share and fall
            // back to a backup node, never mix it into the decode.
            s.set_distance(NodeId(5), 0).unwrap();
            s.set_outcome_capture(true);
            let (out, rep) = s.retrieve("obj", SelectionPolicy::Nearest).unwrap();
            assert_eq!(out, vec![2u8; 48]);
            assert!(rep.degraded);
            assert!(rep.outcomes.contains(&(NodeId(5), NodeOutcome::Stale)));
            assert!(!rep.sources.contains(&NodeId(5)));
        }

        #[test]
        fn hedged_reads_fire_past_the_latency_threshold() {
            let mut s = store();
            s.store("obj", &[7u8; 64]).unwrap();
            let mut chaos = ChaosTransport::new(6, 13);
            chaos.base_latency = SimDuration::from_millis(1);
            chaos.jitter = SimDuration::ZERO;
            s.set_transport(Box::new(chaos));
            s.set_policy(FaultPolicy {
                hedge_after: Some(SimDuration::from_micros(500)),
                ..FaultPolicy::default()
            });
            s.set_outcome_capture(true);
            let (out, rep) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, vec![7u8; 64]);
            assert!(rep.hedged);
            assert_eq!(rep.outcomes.len(), 5, "k streams plus one hedge");
            assert_eq!(rep.latency, SimDuration::from_millis(1));
        }

        #[test]
        fn a_ranged_read_gives_up_on_a_slow_node_without_hedging() {
            // Node 5 serves 50x slow. A ranged read of its cell gives up at
            // the hedge threshold and decodes from nodes 0-3, which answer
            // in time: no extra share was requested, so nothing hedged.
            let (mut s, name, want) = one_cell_objects();
            let plan = FaultPlan::none().at(SimTime::ZERO, Fault::NodeDegrade(NodeId(5), 50));
            let mut chaos = ChaosTransport::new(6, 19).with_plan(plan);
            chaos.base_latency = SimDuration::from_micros(100);
            chaos.jitter = SimDuration::ZERO;
            s.set_transport(Box::new(chaos));
            s.set_policy(FaultPolicy {
                hedge_after: Some(SimDuration::from_micros(500)),
                ..FaultPolicy::default()
            });
            s.set_outcome_capture(true);
            let (out, rep) = s.retrieve(&name, SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, want);
            assert!(!rep.hedged);
            assert!(rep.degraded);
            assert_eq!(rep.outcomes[0], (NodeId(5), NodeOutcome::Timeout));
            assert_eq!(rep.sources, [NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
            assert_eq!(rep.latency, SimDuration::from_micros(600));
        }

        /// For a grouped store the overwrite empties the first sealed group,
        /// which drops it: that group's pending install must not land.
        #[test]
        fn complete_writes_drops_superseded_pending_installs() {
            for mut s in quorum_inputs() {
                let plan = FaultPlan::none()
                    .at(SimTime::ZERO, Fault::NodeCrash(NodeId(0)))
                    .at(SimTime::from_secs(1), Fault::NodeRecover(NodeId(0)));
                s.set_transport(Box::new(ChaosTransport::new(6, 17).with_plan(plan)));
                s.set_policy(FaultPolicy {
                    write_slack: 1,
                    ..FaultPolicy::default()
                });
                write_obj(&mut s, &[1u8; 32]).unwrap();
                write_obj(&mut s, &[2u8; 32]).unwrap();
                assert_eq!(s.group_stats().pending_installs, 2);
                s.advance_time(SimDuration::from_secs(2));
                let (landed, remaining) = s.complete_writes();
                assert_eq!((landed, remaining), (1, 0), "superseded install dropped");
                let held = s.nodes[0].symbols.len() + s.nodes[0].group_symbols.len();
                assert_eq!(held, 1, "node 0 holds the current unit only");
                // Node 0 must now hold the *new* generation: a decode that
                // includes it returns the overwrite, not a mix. (A group is
                // read twice: one of the two reads decodes from `k`.)
                let allowed = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
                let mut read_node_0 = false;
                for _ in 0..2 {
                    let (out, rep) = s
                        .retrieve_from("obj", SelectionPolicy::FirstK, Some(&allowed))
                        .unwrap();
                    assert_eq!(out, vec![2u8; 32]);
                    read_node_0 |= rep.sources.contains(&NodeId(0));
                }
                assert!(read_node_0);
            }
        }

        /// Regression: `repair_node` walked the group and object `HashMap`s,
        /// so under a lossy transport which repaired frames ended up pending
        /// depended on the hasher's seed. Two identically built stores must
        /// leave the same objects readable through the repaired node.
        #[test]
        fn repair_order_is_deterministic_under_a_lossy_transport() {
            let readable_after_repair = || {
                let mut s = grouped_store();
                for i in 0..24 {
                    s.store(&format!("small-{i:02}"), &[i as u8; 40]).unwrap();
                    s.store(&format!("big-{i:02}"), &[i as u8; 100]).unwrap();
                }
                s.flush().unwrap();
                s.set_transport(Box::new(ChaosTransport::new(6, 5).with_loss(0.7)));
                s.replace_node(NodeId(2)).unwrap();
                s.repair_node(NodeId(2)).unwrap();
                s.set_transport(Box::new(crate::transport::DirectTransport::new()));
                // Node 2 plus k - 1 others: readable iff node 2's repaired
                // frame landed.
                let allowed = [NodeId(2), NodeId(0), NodeId(1), NodeId(3)];
                let mut names: Vec<String> = s.object_names().map(str::to_string).collect();
                names.sort_unstable();
                names
                    .into_iter()
                    .filter(|name| {
                        s.retrieve_from(name, SelectionPolicy::FirstK, Some(&allowed))
                            .is_ok()
                    })
                    .collect::<Vec<_>>()
            };
            let first = readable_after_repair();
            assert!(!first.is_empty() && first.len() < 48, "the loss must bite");
            assert_eq!(first, readable_after_repair());
        }

        #[test]
        fn probe_reports_reachability_without_mutating_state() {
            let mut s = store();
            let plan = FaultPlan::none().at(SimTime::ZERO, Fault::NodeCrash(NodeId(2)));
            s.set_transport(Box::new(ChaosTransport::new(6, 23).with_plan(plan)));
            let probes = s.probe_nodes();
            for (n, reachable) in probes {
                assert_eq!(reachable, n != NodeId(2));
            }
            assert_eq!(s.nodes_up(), 6, "probing is observational");
        }

        #[test]
        fn recovery_resumes_the_generation_epoch_from_node_frames() {
            let code = || Arc::new(BCode::table_1a());
            let config = GroupConfig::disabled().logged();
            let mut s = DistributedStore::with_groups(code(), config);
            s.store("obj", &[3u8; 40]).unwrap();
            s.store("obj", &[4u8; 40]).unwrap();
            let (nodes, wal) = s.crash();
            let (mut r, _) =
                DistributedStore::recover(code(), config, nodes, wal.unwrap()).unwrap();
            let (out, rep) = r.retrieve("obj", SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, vec![4u8; 40]);
            assert!(!rep.degraded, "recovered frames verify at the rebuilt gen");
            // A post-recovery overwrite must stamp a generation past every
            // pre-crash frame, or stale shares would read as current.
            r.store("obj", &[5u8; 40]).unwrap();
            let (out, rep) = r.retrieve("obj", SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, vec![5u8; 40]);
            assert!(!rep.degraded);
        }

        /// Regression: an overwrite that misses its quorum leaves its few
        /// installed frames behind. The live store keeps serving the
        /// predecessor, and so must a restart — recovery used to trust the
        /// newest generation on any node and report `NotEnoughNodes`.
        #[test]
        fn a_failed_quorum_overwrite_leaves_its_predecessor_readable_after_restart() {
            let code = || Arc::new(BCode::table_1a());
            let config = GroupConfig::disabled().logged();
            let mut s = DistributedStore::with_groups(code(), config);
            s.store("obj", &[1u8; 48]).unwrap();
            let mut plan = FaultPlan::none();
            for i in 0..4 {
                plan = plan
                    .at(SimTime::ZERO, Fault::NodeCrash(NodeId(i)))
                    .at(SimTime::from_secs(1), Fault::NodeRecover(NodeId(i)));
            }
            s.set_transport(Box::new(ChaosTransport::new(6, 29).with_plan(plan)));
            assert_eq!(
                s.store("obj", &[2u8; 48]).unwrap_err(),
                StorageError::QuorumNotReached {
                    installed: 2,
                    needed: 6
                }
            );
            s.advance_time(SimDuration::from_secs(2));
            let (out, _) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, vec![1u8; 48], "live: the predecessor still reads");

            let (nodes, wal) = s.crash();
            let (mut r, _) =
                DistributedStore::recover(code(), config, nodes, wal.unwrap()).unwrap();
            let (out, _) = r.retrieve("obj", SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, vec![1u8; 48], "restarted: so it still does");
            // The orphaned newer frames read as stale, and repair replaces
            // them with the recovered generation.
            r.repair_node(NodeId(4)).unwrap();
            r.repair_node(NodeId(5)).unwrap();
            let (out, rep) = r.retrieve("obj", SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, vec![1u8; 48]);
            assert!(!rep.degraded, "full redundancy at the recovered generation");
        }
    }
}
