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
//! sealed group is *ranged*: it verifies only the 4 KiB chunks of the
//! symbol holding its bytes and decodes nothing; a group read again soon
//! after is decoded once and cached. Grouping is off by default
//! ([`DistributedStore::new`]) and enabled with
//! [`DistributedStore::with_groups`].
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
//!   bytes, so its frames are the only copy of what it stored, and they
//!   are parked until the overwrite's record, appended after the install,
//!   is durable. A group's frames are never replaced while a record needs
//!   them (a seal replaces only the orphans of a failed one), and dropping
//!   a group takes the fsync barrier.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rain_codes::{build_code, CodeError, CodeSpec, ErasureCode, Layout, ShareView};
use rain_obs::{span, Recorder, Registry, VirtualClock};
use rain_sim::{DetRng, NodeId, SimDuration};

use crate::group::{
    CodingGroup, CompactReport, Durability, FlushReport, GroupConfig, GroupDecodeCache, GroupId,
    GroupStats, ObjSpan,
};
use crate::metrics::{self, StoreMetrics, TransportMetrics};
use crate::transport::{
    frame_len, frame_payload_len, open_frame, open_range, range_verified_len, seal_in_place,
    split_frame, DirectTransport, FaultPolicy, NodeOutcome, Transport, TransportError, TransportOp,
    TransportStats,
};
use crate::wal::{
    sort_canonical, CheckpointState, CheckpointView, Named, RecordView, WalError, WalRecord,
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
    /// Every group id is spent: the next would leave `next_group_id` at
    /// `u64::MAX`, the checkpoint's "no open group" sentinel, which no
    /// checkpoint can carry.
    GroupIdsExhausted,
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
            StorageError::GroupIdsExhausted => write!(f, "no group id left to allocate"),
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

/// One storage node's state besides its frames (which the [`Fabric`]
/// holds): the bookkeeping used by the selection policies.
#[derive(Debug, Clone, Default)]
struct StorageNode {
    up: bool,
    /// Total bytes served to readers (load metric).
    bytes_served: u64,
    /// Abstract distance from the reader (nearness metric).
    distance: u64,
}

/// One unit's frames across the nodes: slot `i` is node `i`'s frame.
type Slots = [Option<Vec<u8>>];

/// The frames the nodes hold, by unit: one map per unit kind from a whole
/// object's name or a group id to the unit's row of `n` frame slots. A unit
/// has an entry exactly while some node holds a frame of it, so a
/// whole-object get, put or repair finds every frame it needs with one
/// lookup and then indexes the row. The rows live in one table, `n` slots
/// each, and an entry holds its row's index, so a path keeps the row
/// across the store's other calls without a second lookup; a dropped
/// unit's row is reused by the next new one.
#[derive(Debug)]
struct Fabric {
    n: usize,
    whole: HashMap<String, usize>,
    groups: HashMap<GroupId, usize>,
    /// Row `r` is `slots[r * n..(r + 1) * n]`.
    slots: Vec<Option<Vec<u8>>>,
    /// Rows no entry names; every slot of one is empty.
    free: Vec<usize>,
}

impl Fabric {
    fn new(n: usize) -> Self {
        Fabric {
            n,
            whole: HashMap::new(),
            groups: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The row of `unit`, if some node holds a frame of it: the one lookup.
    fn find(&self, unit: Unit) -> Option<usize> {
        match unit {
            Unit::Whole(name) => self.whole.get(name),
            Unit::Group(gid) => self.groups.get(&gid),
        }
        .copied()
    }

    /// The slots of `row`, or none for a unit no node holds.
    fn slots(&self, row: Option<usize>) -> &Slots {
        match row {
            Some(row) => &self.slots[row * self.n..][..self.n],
            None => &[],
        }
    }

    fn row_mut(&mut self, row: usize) -> &mut Slots {
        &mut self.slots[row * self.n..][..self.n]
    }

    /// The row of `unit`, given an empty one when it has none.
    fn find_or_insert(&mut self, unit: Unit) -> usize {
        if let Some(row) = self.find(unit) {
            return row;
        }
        let row = self.free.pop().unwrap_or_else(|| {
            self.slots.resize_with(self.slots.len() + self.n, || None);
            self.slots.len() / self.n - 1
        });
        match unit {
            Unit::Whole(name) => self.whole.insert(name.to_string(), row),
            Unit::Group(gid) => self.groups.insert(gid, row),
        };
        row
    }

    /// Drop `unit`'s entry, with every frame in it.
    fn remove(&mut self, unit: Unit) {
        let row = match unit {
            Unit::Whole(name) => self.whole.remove(name),
            Unit::Group(gid) => self.groups.remove(&gid),
        };
        if let Some(row) = row {
            self.row_mut(row).fill(None);
            self.free.push(row);
        }
    }

    /// Drop `unit`'s entry, at `row`, if no node holds a frame of it.
    fn remove_if_empty(&mut self, unit: Unit, row: usize) {
        if self.slots(Some(row)).iter().all(Option::is_none) {
            self.remove(unit);
        }
    }

    /// Keep the whole entries `keep` accepts, returning the frames dropped.
    fn retain_whole(&mut self, mut keep: impl FnMut(&str) -> bool) -> usize {
        let Fabric {
            n,
            whole,
            slots,
            free,
            ..
        } = self;
        retain_rows(whole, slots, free, *n, |name, _| keep(name))
    }

    /// Keep the group entries `keep` accepts.
    fn retain_groups(&mut self, mut keep: impl FnMut(GroupId) -> bool) {
        let Fabric {
            n,
            groups,
            slots,
            free,
            ..
        } = self;
        retain_rows(groups, slots, free, *n, |&gid, _| keep(gid));
    }

    /// Empty slot `node` of every entry (a blank machine holds nothing),
    /// dropping the entries that no other node holds a frame of.
    fn clear_node(&mut self, node: usize) {
        let Fabric {
            n,
            whole,
            groups,
            slots,
            free,
        } = self;
        let clear = |row: &mut Slots| {
            row[node] = None;
            true
        };
        retain_rows(whole, slots, free, *n, |_, row| clear(row));
        retain_rows(groups, slots, free, *n, |_, row| clear(row));
    }
}

/// Keep the entries of `map` that `keep` accepts (it may also edit the
/// row) and that still hold a frame; the others' rows are emptied and
/// freed. Returns the frames dropped.
fn retain_rows<K>(
    map: &mut HashMap<K, usize>,
    slots: &mut [Option<Vec<u8>>],
    free: &mut Vec<usize>,
    n: usize,
    mut keep: impl FnMut(&K, &mut Slots) -> bool,
) -> usize {
    let mut dropped = 0;
    map.retain(|key, &mut row| {
        let frames = &mut slots[row * n..][..n];
        if keep(key, frames) && frames.iter().any(Option::is_some) {
            return true;
        }
        dropped += frames.iter_mut().filter_map(Option::take).count();
        free.push(row);
        false
    });
    dropped
}

/// Node `i`'s frame in `slots`, which the caller knows it holds (a picked
/// holder, or a source the collection verified).
fn held(slots: &Slots, i: usize) -> &[u8] {
    slots[i].as_deref().expect("the node holds the unit")
}

/// Whole-object frames a logged install replaced, oldest first, held until
/// its `StoreWhole` record (appended after the install) is durable, then
/// recycled. [`Limbo::restore`] puts them back when the record is not in
/// the log: after a failed op, or a crash that took the record. Like the
/// frames, they are on the nodes, so they survive a coordinator crash.
#[derive(Debug, Default)]
struct Limbo {
    /// Each parked overwrite: the object, and the log index of its record.
    units: Vec<(String, u64)>,
    /// Each parked frame: its overwrite's index in `units`, its node, and
    /// the frame.
    frames: Vec<(usize, usize, Vec<u8>)>,
}

impl Limbo {
    /// Park node `node`'s old frame of `name`, replaced by the overwrite
    /// logged at `tag`. The name is kept once per overwrite.
    fn park(&mut self, name: &str, tag: u64, node: usize, frame: Vec<u8>) {
        if self.units.last().map(|&(_, t)| t) != Some(tag) {
            self.units.push((name.to_string(), tag));
        }
        self.frames.push((self.units.len() - 1, node, frame));
    }

    /// Put every frame parked under a tag at or past `from` back into
    /// `fabric`, whose frames it displaces go to `pool`. Walking newest
    /// first leaves the oldest frame of each slot.
    fn restore(&mut self, from: u64, fabric: &mut Fabric, pool: &mut FramePool) {
        let first = self.units.partition_point(|&(_, tag)| tag < from);
        let at = self.frames.partition_point(|&(unit, ..)| unit < first);
        for (unit, node, frame) in self.frames.drain(at..).rev() {
            let row = fabric.find_or_insert(Unit::Whole(&self.units[unit].0));
            if let Some(displaced) = fabric.row_mut(row)[node].replace(frame) {
                pool.give(displaced);
            }
        }
        self.units.truncate(first);
    }
}

/// An object-table entry: a [`Placement`] whose whole variant also carries
/// the generation the object's frames must have (0 while none is known,
/// which no frame carries). A fetched frame with any other generation is a
/// leftover of an incomplete overwrite and is an erasure, never decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ObjectEntry {
    Whole { gen: u64 },
    Grouped { group: GroupId, span: ObjSpan },
}

// The generation rides in the space the placement already takes.
const _: () = assert!(std::mem::size_of::<ObjectEntry>() == std::mem::size_of::<Placement>());

impl ObjectEntry {
    fn placement(self) -> Placement {
        match self {
            ObjectEntry::Whole { .. } => Placement::Whole,
            ObjectEntry::Grouped { group, span } => Placement::Grouped { group, span },
        }
    }
}

impl From<Placement> for ObjectEntry {
    /// A whole entry's generation is unknown until the restart walk reads
    /// it from the frames.
    fn from(placement: Placement) -> Self {
        match placement {
            Placement::Whole => ObjectEntry::Whole { gen: 0 },
            Placement::Grouped { group, span } => ObjectEntry::Grouped { group, span },
        }
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

/// Where a stored object's bytes live: the store's object-table entry, and
/// what a [`CheckpointState`] records per object. Carrying the span here
/// keeps the grouped hot path to a single map lookup per object.
///
/// A whole placement carries no length: the frame written to the nodes is
/// self-describing (its first 8 bytes are the original length), which is
/// what lets log recovery rebuild whole entries without decoding anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One erasure-coded object per key; the bytes are on the nodes.
    Whole,
    /// A sub-range of a coding group's packed block.
    Grouped {
        /// The owning group.
        group: GroupId,
        /// The object's span within the group block.
        span: ObjSpan,
    },
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
    /// Per-node fate of every node this retrieve contacted, in dispatch
    /// order: which answered with a verified share, which timed out,
    /// returned damage, was down, or held a stale generation. Always
    /// filled; empty only when no node was contacted (open groups,
    /// decode-cache hits). The registry's `storage.retrieve.outcome.*`
    /// counters are summed from these vectors (see
    /// [`OutcomeTally::from_registry`]).
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
    /// retrieve, from that retrieve's [`RetrieveReport::outcomes`]. Attach
    /// one registry per component ([`DistributedStore::attach_registry`])
    /// and derive its health tally on demand.
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
}

/// The node fabric left behind by a crashed coordinator: the per-node
/// symbol stores survive (they are separate machines), only the
/// coordinator's memory is gone. Produced by [`DistributedStore::crash`]
/// and consumed by [`DistributedStore::recover`].
#[derive(Debug)]
pub struct SurvivingNodes {
    nodes: Vec<StorageNode>,
    /// The frames the nodes hold, parked ones included.
    fabric: Fabric,
    limbo: Limbo,
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
    /// Node frames, whole and group, whose checksums recovery verified
    /// while re-deriving generations: `k` per healthy whole object.
    pub frames_verified: usize,
    /// Whole-object frames dropped from the nodes because no live whole
    /// object owns their name (0 on a clean restart).
    pub stale_frames_swept: usize,
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
    /// Where `code` keeps each data cell verbatim, found once from its
    /// encode; `None` means every group read decodes.
    layout: Option<Layout>,
    nodes: Vec<StorageNode>,
    fabric: Fabric,
    /// Superseded whole-object frames awaiting a durable log (see [`Limbo`]).
    limbo: Limbo,
    objects: HashMap<String, ObjectEntry>,
    /// Frame buffers for the next encode or repair to fill in place.
    frames: FramePool,
    /// Reusable group-decode buffer (and an import's padded block); its
    /// block moves into the decode cache.
    io_buf: Vec<u8>,
    /// When each install of the current [`DistributedStore::install_unit`]
    /// was confirmed; kept for its allocation.
    finishes: Vec<SimDuration>,
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
    /// must not *remove* whole-object symbols: the nodes hold their final
    /// state, so the frames under a name may be a later `StoreWhole`
    /// record's bytes (the record carries no data). Destructive
    /// transitions are deferred to the post-replay sweep.
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
    /// Expected share generation per sealed group (a re-seal after a
    /// failed quorum stamps a fresh generation, invalidating orphans). A
    /// whole object's is in its [`ObjectEntry`].
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

/// Frame buffers freed when a node's frame is replaced outright, leaves
/// limbo or is deleted, kept for the next encode or repair to write into.
/// At most one encode's worth is kept, plus what the last fsync window
/// parked, and a buffer is reused only for a frame close to its size, so a
/// node never holds much more than its frame. The pool also keeps the two tables an
/// encode needs (the frame list and the payload slices), so a steady-state
/// encode allocates nothing.
#[derive(Debug)]
struct FramePool {
    spare: Vec<Vec<u8>>,
    /// One encode's worth: the node count.
    nodes: usize,
    /// Buffers kept at most: `nodes`, plus the frames the last reclaimed
    /// limbo held.
    cap: usize,
    /// The emptied frame list of the last installed encode.
    sets: Vec<Vec<u8>>,
    /// The emptied payload-slice table of the last encode.
    payloads: Vec<&'static mut [u8]>,
}

/// Empty `table` and retype it for a new borrow. The `collect` runs in
/// place (same element type, so same size and alignment), so the
/// allocation is kept.
fn recycle_slices<'b>(mut table: Vec<&mut [u8]>) -> Vec<&'b mut [u8]> {
    table.clear();
    table
        .into_iter()
        .map(|_| -> &'b mut [u8] { &mut [] })
        .collect()
}

impl FramePool {
    fn new(nodes: usize) -> Self {
        FramePool {
            spare: Vec::new(),
            nodes,
            cap: nodes,
            sets: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// A buffer of `frame_len(share_len)` bytes. Its contents are stale:
    /// the caller overwrites the payload region and then seals the header
    /// in place ([`seal_in_place`]).
    fn take(&mut self, share_len: usize) -> Vec<u8> {
        let len = frame_len(share_len);
        match self.spare.pop() {
            Some(mut buf) if (len..=len + len / 8).contains(&buf.capacity()) => {
                buf.resize(len, 0);
                buf
            }
            _ => vec![0; len],
        }
    }

    /// Keep a replaced frame's buffer, unless the pool is full.
    fn give(&mut self, frame: Vec<u8>) {
        if self.spare.len() < self.cap {
            self.spare.push(frame);
        }
    }

    /// Keep the frames a reclaimed limbo parked: one fsync window's
    /// overwrites, which the next window's overwrites will need again.
    fn recycle(&mut self, parked: impl ExactSizeIterator<Item = Vec<u8>>) {
        if parked.len() > 0 {
            self.cap = self.nodes + parked.len();
        }
        for frame in parked {
            self.give(frame);
        }
    }

    /// Keep the frame list of an installed encode, emptied, for the next.
    fn give_set(&mut self, mut set: Vec<Vec<u8>>) {
        for frame in set.drain(..) {
            self.give(frame);
        }
        self.sets = set;
    }

    /// Encode the `padded_len`-byte input `prefix ++ body ++ zeros` into
    /// `code.n()` frame buffers with one [`ErasureCode::encode_parts`]:
    /// the code writes each share straight into its frame's payload region
    /// from the caller's bytes, with no staging copy. The headers are left
    /// for [`DistributedStore::install_unit`] to seal; it hands the list
    /// back through [`FramePool::give_set`].
    fn encode(
        &mut self,
        code: &dyn ErasureCode,
        prefix: &[u8],
        body: &[u8],
        padded_len: usize,
    ) -> Result<Vec<Vec<u8>>, CodeError> {
        let share_len = code.share_len_for(padded_len)?;
        let header = frame_len(share_len) - share_len;
        let mut frames = std::mem::take(&mut self.sets);
        frames.extend((0..code.n()).map(|_| self.take(share_len)));
        let mut payloads = recycle_slices(std::mem::take(&mut self.payloads));
        payloads.extend(frames.iter_mut().map(|f| &mut f[header..]));
        let encoded = code.encode_parts(prefix, body, padded_len, &mut payloads);
        self.payloads = recycle_slices(payloads);
        match encoded {
            Ok(()) => Ok(frames),
            Err(e) => {
                self.give_set(frames);
                Err(e)
            }
        }
    }
}

/// One node's stream of attempts at one operation: the node, the op, the
/// bytes each attempt moves, and the virtual offset within the operation at
/// which the stream starts.
struct Stream {
    node: usize,
    op: TransportOp,
    bytes: u64,
    start: SimDuration,
}

/// How one node's stream of attempts ended.
struct Drive {
    outcome: NodeOutcome,
    /// When the stream delivered (a verified share arrived, an install was
    /// confirmed) or gave up — the moment a backup node can be dispatched
    /// in its place. Measured from the operation's start.
    finished: SimDuration,
    attempts: u32,
}

/// Drive `stream` to completion under `policy`: the one retry loop every
/// fetch and install goes through. It owns the backoff between attempts
/// (jittered from `rng`), each attempt's patience (never past the
/// deadline) and the deadline itself. A refused or unroutable attempt ends
/// the stream as [`NodeOutcome::Down`]: nothing changes until virtual time
/// advances, so it is not retried. A lost or late attempt is retried, and
/// running out of attempts or time is [`NodeOutcome::Timeout`]. A response
/// that arrives in time goes to `respond`, with its in-flight damage flag
/// and the attempts made so far: `Some(outcome)` ends the stream at the
/// arrival, `None` retries from there.
fn drive(
    transport: &mut dyn Transport,
    policy: &FaultPolicy,
    rng: &mut DetRng,
    stream: Stream,
    mut respond: impl FnMut(&mut DetRng, bool, u32) -> Option<NodeOutcome>,
) -> Drive {
    let mut t = stream.start;
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
        let fate = transport.attempt(stream.node, stream.op, stream.bytes, patience);
        attempts += 1;
        match fate.outcome {
            Err(TransportError::NodeDown) | Err(TransportError::Unreachable) => {
                return Drive {
                    outcome: NodeOutcome::Down,
                    finished: t + fate.latency,
                    attempts,
                };
            }
            Err(TransportError::Lost) => t = t + fate.latency,
            // The response exists but lands after this attempt's patience:
            // the caller has already given up on it.
            Ok(()) if fate.latency > patience => t = t + patience,
            Ok(()) => {
                t = t + fate.latency;
                if let Some(outcome) = respond(rng, fate.corrupt, attempts) {
                    return Drive {
                        outcome,
                        finished: t,
                        attempts,
                    };
                }
            }
        }
    }
    Drive {
        outcome: NodeOutcome::Timeout,
        finished: t,
        attempts,
    }
}

/// How much of a fetched frame to verify.
#[derive(Debug, Clone, Copy)]
enum Verify {
    /// Every chunk: the share feeds a decode.
    Whole,
    /// A ranged read's: the payload must be `payload_len` bytes, and only
    /// the chunks covering its `len` bytes at `offset` are checked.
    Range {
        payload_len: usize,
        offset: usize,
        len: usize,
    },
}

impl Verify {
    /// Check `frame`: its generation and the payload bytes hashed, or
    /// `None` when it is damaged or has the wrong length.
    fn check(self, frame: &[u8]) -> Option<(u64, usize)> {
        match self {
            Verify::Whole => open_frame(frame).map(|(gen, payload)| (gen, payload.len())),
            Verify::Range {
                payload_len,
                offset,
                len,
            } => {
                if frame_payload_len(frame.len()) != Some(payload_len) {
                    return None;
                }
                let (gen, _) = open_range(frame, offset, len)?;
                Some((gen, range_verified_len(payload_len, offset, len)))
            }
        }
    }
}

/// Push one symbol frame of `bytes` bytes to `node` through [`drive`]. An
/// install whose confirmation does not arrive within an attempt's patience
/// counts as not applied (the fate model ties application to
/// confirmation), so retries are safe. In-flight damage is not the
/// installer's to see: the node's frame is checked when it is read.
fn drive_install(
    transport: &mut dyn Transport,
    policy: &FaultPolicy,
    rng: &mut DetRng,
    node: usize,
    bytes: u64,
    obs: &TransportMetrics,
) -> Drive {
    let stream = Stream {
        node,
        op: TransportOp::Install,
        bytes,
        start: SimDuration::ZERO,
    };
    let r = drive(transport, policy, rng, stream, |_, _, _| {
        Some(NodeOutcome::Ok)
    });
    obs.record_install(node, r.outcome == NodeOutcome::Ok, r.finished.as_micros());
    r
}

/// The payloads of a unit's verified frames on `sources`, borrowed from its
/// `n` slots: no share is cloned.
fn unit_view<'a>(slots: &'a Slots, sources: &[usize]) -> ShareView<'a> {
    let mut view = ShareView::missing(slots.len());
    for &i in sources {
        let (_, payload) = split_frame(held(slots, i)).expect("verified share");
        view.set(i, payload);
    }
    view
}

/// Length of the block a group of `packed_len` bytes is encoded as: padded
/// to the code's input unit, and at least one unit (a group of empty
/// objects still needs a decodable block). Each share's payload is this
/// length divided by `k`.
fn padded_block_len(code: &dyn ErasureCode, packed_len: usize) -> usize {
    let unit = code.data_len_unit();
    packed_len.div_ceil(unit).max(1) * unit
}

/// Set `map[key] = value`, allocating the key only when it is new, so an
/// overwrite loop allocates no strings.
fn upsert<V>(map: &mut HashMap<String, V>, key: &str, value: V) {
    match map.get_mut(key) {
        Some(slot) => *slot = value,
        None => {
            map.insert(key.to_string(), value);
        }
    }
}

/// Installs required before a write acks: `n - write_slack`, floored at
/// `k` (acking below `k` would promise durability the code cannot give).
fn quorum_need(n: usize, k: usize, write_slack: usize) -> usize {
    n.saturating_sub(write_slack).max(k)
}

/// True if any contact failed to deliver a verified share.
fn any_failed(outcomes: &[(NodeId, NodeOutcome)]) -> bool {
    outcomes.iter().any(|&(_, o)| o != NodeOutcome::Ok)
}

/// What a virtual-parallel share collection produced.
#[derive(Default)]
struct ShareCollection {
    /// Node indices of the `k` earliest verified arrivals — the decode set.
    /// Empty when the operation fell short of `k`.
    used: Vec<usize>,
    /// Verified shares obtained (equals `used.len()` except on failure,
    /// where `used` is empty but this still reports how close it came).
    available: usize,
    /// Payload bytes hashed to verify those shares.
    bytes_verified: u64,
    /// Fate of every node contacted, in dispatch order.
    outcomes: Vec<(NodeId, NodeOutcome)>,
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
    expect_gen: u64,
    obs: &'a TransportMetrics,
    /// Policy-ordered holders of the unit, and its slots they index.
    candidates: &'a [usize],
    slots: &'a Slots,
    /// For a ranged read: the payload length every frame must have, and
    /// per candidate the payload bytes it serves, so only the chunks
    /// covering them are verified. `None` verifies whole frames, as a
    /// decode needs.
    ranged: Option<(usize, &'a [Range<usize>])>,
}

impl CollectSpec<'_> {
    /// How to verify the frame of `candidates[ci]`.
    fn verify(&self, ci: usize) -> Verify {
        match self.ranged {
            None => Verify::Whole,
            Some((payload_len, ranges)) => Verify::Range {
                payload_len,
                offset: ranges[ci].start,
                len: ranges[ci].len(),
            },
        }
    }
}

/// Fetch the share of `spec.candidates[ci]` through [`drive`], starting at
/// virtual offset `start` within the operation, and record the contact in
/// `col`: its fate, retries, verified bytes and end time, and the node's
/// fetch telemetry. The share is *verified* here, as far as `spec` asks: an
/// in-flight-corrupted response is bit-damaged and run through the real
/// checksum (retryable — the stored copy is intact), an at-rest damaged
/// frame or stale generation ends the stream (a retry cannot change what
/// the node holds).
fn fetch_share(
    transport: &mut dyn Transport,
    spec: &CollectSpec,
    rng: &mut DetRng,
    col: &mut ShareCollection,
    ci: usize,
    start: SimDuration,
) -> Drive {
    let node = spec.candidates[ci];
    let frame = held(spec.slots, node);
    let verify = spec.verify(ci);
    let mut verified = 0;
    let stream = Stream {
        node,
        op: TransportOp::Fetch,
        bytes: frame.len() as u64,
        start,
    };
    let r = drive(
        transport,
        spec.policy,
        rng,
        stream,
        |rng, corrupt, attempts| {
            if corrupt {
                // The response was damaged in flight. Run the *real* verifier
                // over a bit-flipped copy — detection must come from the
                // checksum, not from trusting the fate flag. The node's stored
                // frame is intact, so a retry may well succeed. A ranged read
                // discards the whole response too, wherever the damage landed.
                let mut damaged = frame.to_vec();
                let idx = rng.below(damaged.len() as u64) as usize;
                damaged[idx] ^= 0x01;
                debug_assert!(open_frame(&damaged).is_none());
                return (attempts >= spec.policy.max_attempts).then_some(NodeOutcome::Corrupt);
            }
            Some(match verify.check(frame) {
                // At-rest damage: every retry returns the same broken frame,
                // so give up on this node now.
                None => NodeOutcome::Corrupt,
                Some((gen, _)) if gen != spec.expect_gen => NodeOutcome::Stale,
                Some((_, hashed)) => {
                    verified = hashed;
                    NodeOutcome::Ok
                }
            })
        },
    );
    col.retries += r.attempts.saturating_sub(1);
    col.bytes_verified += verified as u64;
    col.finished = col.finished.max(r.finished);
    col.outcomes.push((NodeId(node), r.outcome));
    spec.obs.record_fetch(
        node,
        r.outcome == NodeOutcome::Ok,
        r.finished.as_micros().saturating_sub(start.as_micros()),
    );
    r
}

/// Collect `k` verified shares of a unit from `spec.candidates` as a
/// virtually-parallel wave: the first `k` streams dispatch at time zero;
/// each failed stream dispatches the next unused candidate at its failure
/// time (but only if fewer than `k` shares had arrived by then); and if the
/// `k`-th share is still outstanding at the hedge threshold, one extra
/// share is requested from an unused node — whichever `k` arrivals are
/// earliest win.
fn collect_shares(
    transport: &mut dyn Transport,
    spec: &CollectSpec,
    rng: &mut DetRng,
) -> ShareCollection {
    let (k, candidates) = (spec.k, spec.candidates);
    let mut col = ShareCollection::default();
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
        let r = fetch_share(transport, spec, rng, &mut col, ci, start);
        if r.outcome == NodeOutcome::Ok {
            successes.push((candidates[ci], r.finished, dispatch));
            continue;
        }
        // Dispatch a backup at the failure time — unless enough shares had
        // already arrived by then to finish the decode.
        let arrived_by_then = successes
            .iter()
            .filter(|(_, a, _)| *a <= r.finished)
            .count();
        if arrived_by_then < k && next < candidates.len() {
            queue.push((next, r.finished));
            next += 1;
        }
    }
    col.available = successes.len();
    if successes.len() >= k {
        successes.sort_by_key(|&(_, a, d)| (a, d));
        // Hedge: if the decode would sit waiting on a slow share past the
        // threshold, ask one unused node for an extra share and let the
        // earliest k win.
        if let Some(h) = spec.policy.hedge_after {
            if successes[k - 1].1 > h && next < candidates.len() {
                col.hedged = true;
                let r = fetch_share(transport, spec, rng, &mut col, next, h);
                if r.outcome == NodeOutcome::Ok {
                    successes.push((candidates[next], r.finished, queue.len()));
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
/// unit's fetch ([`DistributedStore::fetch_unit`]) or of a ranged read.
#[derive(Default)]
struct UnitFetch {
    sources: Vec<usize>,
    bytes_per_source: usize,
    degraded: bool,
    outcomes: Vec<(NodeId, NodeOutcome)>,
    latency: SimDuration,
    hedged: bool,
    retries: u32,
    /// Payload bytes hashed to verify the shares that passed (checksum,
    /// generation, length).
    bytes_verified: u64,
}

impl UnitFetch {
    /// Fold in a ranged attempt that failed before this fetch started: its
    /// contacts come first, its time adds to the latency, and a contact
    /// that failed to deliver makes the read degraded. `hedged` is this
    /// fetch's alone: a ranged attempt has no spare node to hedge to.
    fn after(mut self, mut attempt: UnitFetch) -> UnitFetch {
        self.degraded |= any_failed(&attempt.outcomes);
        attempt.outcomes.append(&mut self.outcomes);
        self.outcomes = attempt.outcomes;
        self.latency = attempt.latency + self.latency;
        self.retries += attempt.retries;
        self.bytes_verified += attempt.bytes_verified;
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

    /// The common constructor core: no log attached.
    fn bare(code: Arc<dyn ErasureCode>, config: GroupConfig) -> Self {
        let n = code.n();
        DistributedStore {
            layout: Layout::of(code.as_ref()),
            code,
            nodes: (0..n)
                .map(|i| StorageNode {
                    up: true,
                    distance: i as u64,
                    ..StorageNode::default()
                })
                .collect(),
            fabric: Fabric::new(n),
            limbo: Limbo::default(),
            objects: HashMap::new(),
            frames: FramePool::new(n),
            io_buf: Vec::new(),
            finishes: Vec::new(),
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
            group_gens: HashMap::new(),
            next_epoch: 1,
            pending: Vec::new(),
            recorder: Recorder::disabled(),
            obs: StoreMetrics::default(),
            node_obs: TransportMetrics::default(),
            obs_clock: None,
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
        slot.bytes_served = 0;
        self.fabric.clear_node(node.0);
        self.limbo
            .frames
            .retain(|&(_, parked_on, _)| parked_on != node.0);
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

    /// Attach a telemetry registry: every store/retrieve/seal/compact/repair
    /// from here on records spans, counters, and latency histograms into it
    /// (names under `storage.*`, spans under `span.store.*`). The recorder's
    /// clock is a [`VirtualClock`] kept in lockstep with the transport's
    /// virtual time, so a deterministic simulation renders bit-identical
    /// span trees and histograms on every run.
    pub fn attach_registry(&mut self, registry: &Registry) {
        let clock = Arc::new(VirtualClock::new());
        clock.set_micros(self.transport.now().as_micros());
        self.recorder = Recorder::new(registry.clone(), clock.clone());
        self.obs_clock = Some(clock);
        self.obs = StoreMetrics::new(registry);
        self.node_obs = TransportMetrics::new(registry, self.nodes.len());
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

    /// Count one *served* read's per-node outcomes into the registry
    /// counters backing [`OutcomeTally::from_registry`]. Called only where
    /// a successful read's contacts are final (a [`RetrieveReport`], a
    /// group export), so a failed read counts nothing.
    fn note_outcomes(&self, outcomes: &[(NodeId, NodeOutcome)]) {
        for &(_, outcome) in outcomes {
            match outcome {
                NodeOutcome::Ok => &self.obs.outcome_ok,
                NodeOutcome::Timeout => &self.obs.outcome_timeout,
                NodeOutcome::Corrupt => &self.obs.outcome_corrupt,
                NodeOutcome::Down => &self.obs.outcome_down,
                NodeOutcome::Stale => &self.obs.outcome_stale,
            }
            .inc();
        }
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
                Unit::Whole(name) => {
                    matches!(self.objects.get(name), Some(&ObjectEntry::Whole { gen }) if gen == p.gen)
                }
                Unit::Group(gid) => {
                    self.groups.get(&gid).is_some_and(|g| g.sealed)
                        && self.expected_gen(unit) == p.gen
                }
            };
            if !live {
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
            if drive.outcome == NodeOutcome::Ok {
                let row = self.fabric.find_or_insert(unit);
                if let Some(old) = self.fabric.row_mut(row)[p.node].replace(p.frame) {
                    self.frames.give(old);
                }
                landed += 1;
            } else {
                keep.push(p);
            }
        }
        let remaining = keep.len();
        self.pending = keep;
        (landed, remaining)
    }

    /// Append a record to the write-ahead log, if one is attached: before
    /// the mutation it describes, or for an install (whole store, seal,
    /// import) once it reached its quorum. Replay runs with the log
    /// detached so redone ops are not re-logged.
    fn log(&mut self, record: RecordView<'_>) -> Result<(), StorageError> {
        self.checkpoint_if_due()?;
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        // Group payload bytes this record puts at risk until the log
        // syncs: the buffered bytes a replayed open group is rebuilt from.
        let at_risk = match record {
            RecordView::StoreGrouped { bytes, .. } => bytes.len() as u64,
            RecordView::GroupImport { bytes, .. } => bytes.len() as u64,
            _ => 0,
        };
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

    /// Fail with a latched device failure, or take the auto-checkpoint if
    /// the next record trips its interval: the snapshot must precede the
    /// record, whose mutation it does not include. A whole store calls this
    /// before its install, so nothing lands between install and record.
    fn checkpoint_if_due(&mut self) -> Result<(), StorageError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        if let Some(err) = &self.wal_failed {
            return Err(StorageError::Wal(err.clone()));
        }
        let every = self.group_config.checkpoint_every;
        if every > 0 && wal.since_checkpoint() >= every {
            self.checkpoint()?;
        }
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
    /// the group-bytes watermark catches up and parked frames go back to
    /// the frame pool: the records that superseded them can no longer be
    /// lost.
    fn reclaim_if_durable(&mut self) {
        if self.wal.as_ref().is_some_and(|w| w.pending_bytes() == 0) {
            self.group_bytes_durable = self.group_bytes_logged;
            self.limbo.units.clear();
            self.frames
                .recycle(self.limbo.frames.drain(..).map(|(_, _, frame)| frame));
        }
    }

    /// The log index the next record takes, which a whole install parks
    /// the frames it replaces under; `None` (destroy them) without a log.
    fn park_tag(&self) -> Option<u64> {
        self.wal.as_ref().map(WriteAheadLog::records_appended)
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
    /// park instead (see [`Limbo`]); the rarer destructive
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
        // The record is encoded straight from the live tables: objects in
        // canonical order, groups by id, so equal states encode to equal
        // bytes. A sealed group's block moved into its frames when it
        // sealed, so only an open group carries bytes.
        let mut objects: Vec<Named<Placement>> = self
            .objects
            .iter()
            .map(|(name, entry)| Named::new(name, entry.placement()))
            .collect();
        sort_canonical(&mut objects);
        let mut groups: Vec<(GroupId, &CodingGroup)> =
            self.groups.iter().map(|(&gid, g)| (gid, g)).collect();
        groups.sort_unstable_by_key(|&(gid, _)| gid);
        let state = CheckpointView {
            next_group_id: self.next_group_id,
            open_group: self.open_group,
            objects: &objects,
            groups: &groups,
        };
        let wal = self.wal.as_mut().expect("checked above");
        let before = wal.bytes_appended();
        // Returns once the checkpoint is durable.
        wal.append_view(RecordView::LiveCheckpoint { state })?;
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

    /// Install a decoded checkpoint snapshot as the store's logical state,
    /// moving its names and groups in. Validates the whole snapshot before
    /// touching anything, so a failure leaves the store exactly as it was
    /// (recovery then falls back to an earlier checkpoint or a from-genesis
    /// replay).
    fn restore_from_checkpoint(&mut self, state: CheckpointState) -> Result<(), StorageError> {
        let invalid = |reason: String| StorageError::Recovery { reason };
        let mut groups: HashMap<GroupId, CodingGroup> = HashMap::with_capacity(state.groups.len());
        for (gid, g) in state.groups {
            if groups.contains_key(&gid) {
                return Err(invalid(format!("checkpoint repeats group {gid}")));
            }
            if gid >= state.next_group_id {
                return Err(invalid(format!(
                    "checkpoint group {gid} is at or past next_group_id {}",
                    state.next_group_id
                )));
            }
            if g.sealed && !g.data.is_empty() {
                return Err(invalid(format!(
                    "checkpoint sealed group {gid} carries block bytes"
                )));
            }
            if !g.sealed && g.data.len() != g.packed_len {
                return Err(invalid(format!(
                    "checkpoint open group {gid} has {} block bytes for packed_len {}",
                    g.data.len(),
                    g.packed_len
                )));
            }
            if g.live_bytes > g.packed_len {
                return Err(invalid(format!(
                    "checkpoint group {gid} claims {} live of {} packed bytes",
                    g.live_bytes, g.packed_len
                )));
            }
            groups.insert(gid, g);
        }
        if let Some(open) = state.open_group {
            let Some(g) = groups.get(&open) else {
                return Err(invalid(format!(
                    "checkpoint open group {open} is not in the group directory"
                )));
            };
            if g.sealed {
                return Err(invalid(format!("checkpoint open group {open} is sealed")));
            }
        }
        let mut objects = HashMap::with_capacity(state.objects.len());
        for (name, placement) in state.objects {
            let slot = match objects.entry(name) {
                Entry::Occupied(seen) => {
                    return Err(invalid(format!(
                        "checkpoint repeats object {:?}",
                        seen.key()
                    )))
                }
                Entry::Vacant(slot) => slot,
            };
            if let Placement::Grouped { group: gid, span } = placement {
                let name = slot.key();
                let Some(g) = groups.get(&gid) else {
                    return Err(invalid(format!(
                        "checkpoint object {name:?} references unknown group {gid}"
                    )));
                };
                if span
                    .offset
                    .checked_add(span.len)
                    .is_none_or(|end| end > g.packed_len)
                {
                    return Err(invalid(format!(
                        "checkpoint object {name:?} span {}+{} overruns group {gid} of \
                         packed_len {}",
                        span.offset, span.len, g.packed_len
                    )));
                }
            }
            slot.insert(ObjectEntry::from(placement));
        }
        // Validated — apply.
        self.objects = objects;
        self.groups = groups;
        self.open_group = state.open_group;
        self.next_group_id = state.next_group_id;
        Ok(())
    }

    /// The open group's id, opening a fresh group if none is accepting
    /// appends. Creating the (empty) container is not itself logged:
    /// replay re-opens groups on their first logged append, using the same
    /// deterministic ids.
    fn ensure_open_group(&mut self) -> Result<GroupId, StorageError> {
        if let Some(gid) = self.open_group {
            return Ok(gid);
        }
        let gid = self.next_group_id;
        self.note_group_id(gid)?;
        let buffer = std::mem::take(&mut self.spare_block);
        self.groups
            .insert(gid, CodingGroup::open_with_buffer(buffer));
        self.open_group = Some(gid);
        Ok(gid)
    }

    /// Record that group `gid` exists (allocated, imported or replayed), so
    /// the next allocation is past it. Refused, changing nothing, when the
    /// id after `gid` would be the `u64::MAX` sentinel.
    fn note_group_id(&mut self, gid: GroupId) -> Result<(), StorageError> {
        let next = gid
            .checked_add(1)
            .filter(|&next| next != GroupId::MAX)
            .ok_or(StorageError::GroupIdsExhausted)?;
        self.next_group_id = self.next_group_id.max(next);
        Ok(())
    }

    /// Store a block under `object`. Objects strictly smaller than the
    /// grouping threshold are appended to the open coding group (encoded
    /// when the group seals — see [`DistributedStore::flush`]); everything
    /// else is encoded individually, padded to the code's input unit. The
    /// original length is recovered on retrieve either way. Storing an
    /// existing key overwrites it (tombstoning the old copy if grouped).
    ///
    /// With [`Durability::Logged`] an acked store survives a coordinator
    /// crash: a grouped one is logged before any state changes and rides in
    /// the log until its group seals; a whole one is logged once its
    /// install reached its quorum, so it is durable on the nodes the moment
    /// this returns, and a failed one logs nothing.
    pub fn store(&mut self, object: &str, data: &[u8]) -> Result<(), StorageError> {
        let _span = span!(self.recorder, "store.store", bytes = data.len() as u64);
        self.obs.store_ops.inc();
        self.obs.store_bytes.add(data.len() as u64);
        let grouped = self.group_config.threshold > 0 && data.len() < self.group_config.threshold;
        // Records are borrowed views serialized straight into the log's
        // frame buffer: the Volatile hot path allocates nothing for them,
        // and a logged store copies the payload once (into the frame).
        if grouped {
            let gid = self.ensure_open_group()?;
            self.log(RecordView::StoreGrouped {
                object,
                group: gid,
                bytes: data,
            })?;
            self.apply_store_grouped(object, data, gid)
        } else {
            self.apply_store_whole(object, data)
        }
    }

    /// The individual-object path: frame, encode, one symbol per node, and
    /// only once that reached its quorum, log the store and retire a
    /// grouped predecessor.
    fn apply_store_whole(&mut self, object: &str, data: &[u8]) -> Result<(), StorageError> {
        self.checkpoint_if_due()?;
        // Frame: original length (8 bytes LE) + data, padded to the unit.
        // Nothing is copied here: the code reads the prefix and the
        // caller's bytes where they are and writes each share straight
        // into the frame its node keeps, reusing the frames an overwrite
        // replaces.
        let (prefix, padded) = {
            let _frame = span!(self.recorder, "store.store.frame");
            let prefix = (data.len() as u64).to_le_bytes();
            (
                prefix,
                padded_block_len(self.code.as_ref(), prefix.len() + data.len()),
            )
        };

        let frames = {
            let _encode = span!(self.recorder, "store.store.encode", bytes = padded as u64);
            self.frames
                .encode(self.code.as_ref(), &prefix, data, padded)
        };
        // A whole predecessor's frames are parked as they are replaced (see
        // [`Limbo`]). A grouped one is tombstoned only once the record is in
        // the log: a failed op leaves the old copy readable, and the object
        // table never names a group the tombstone may have dropped.
        let prior = self.objects.get(object).copied();
        let park = self.park_tag();
        let stored = frames
            .map_err(StorageError::from)
            .and_then(|frames| self.install_unit(Unit::Whole(object), park, frames))
            .and_then(|_| self.log(RecordView::StoreWhole { object }));
        if let Err(err) = stored {
            // `Crashed`: the record may be in the log, and recovery decides
            // which copy survives. Any other failure left none: undo it.
            if let Some(tag) = park.filter(|_| err != StorageError::Wal(WalError::Crashed)) {
                self.undo_whole_install(object, prior, tag);
            }
            return Err(err);
        }
        if let Some(ObjectEntry::Grouped { group, span }) = prior {
            self.tombstone_member(group, span)?;
        }
        Ok(())
    }

    /// Take back a failed whole install of `object`: the frames it parked
    /// under `tag` go back, or without a whole predecessor its own frames
    /// go, and the table names `prior` again. Its queued installs then
    /// match no entry, so [`DistributedStore::complete_writes`] drops them.
    fn undo_whole_install(&mut self, object: &str, prior: Option<ObjectEntry>, tag: u64) {
        self.limbo.restore(tag, &mut self.fabric, &mut self.frames);
        if !matches!(prior, Some(ObjectEntry::Whole { .. })) {
            self.fabric.remove(Unit::Whole(object));
        }
        match prior {
            Some(entry) => upsert(&mut self.objects, object, entry),
            None => drop(self.objects.remove(object)),
        }
    }

    /// The expected share generation of `unit` (0 when none is known, which
    /// no frame carries).
    fn expected_gen(&self, unit: Unit) -> u64 {
        match unit {
            Unit::Whole(name) => match self.objects.get(name) {
                Some(&ObjectEntry::Whole { gen }) => gen,
                _ => 0,
            },
            Unit::Group(gid) => self.group_gens.get(&gid).copied().unwrap_or(0),
        }
    }

    /// Install `frames` (one per node, share written, header space
    /// reserved; see [`FramePool::encode`]) as `unit`: each is sealed in
    /// place with a fresh generation and moved to its node through the
    /// transport. Failures
    /// past the ack quorum are queued for background completion. Short of
    /// quorum the op fails and the queued tail is withdrawn, since an
    /// unacked op must not complete itself later; frames that did land are
    /// orphans whose stale generation no decode accepts. On success the new
    /// generation becomes the expected one (a whole object's entry in the
    /// object table is set to it), and the clock advances to the quorum-th
    /// confirmation. Returns the installs that landed. The unit's fabric
    /// entry is found or made once, and dropped again if nothing landed.
    ///
    /// With `park` set (whole objects only, see [`Limbo`]), a
    /// replaced frame is parked under that log index; otherwise its buffer
    /// goes back to the frame pool.
    fn install_unit(
        &mut self,
        unit: Unit,
        park: Option<u64>,
        mut frames: Vec<Vec<u8>>,
    ) -> Result<usize, StorageError> {
        let gen = self.next_epoch;
        self.next_epoch += 1;
        let n = self.nodes.len();
        let quorum = quorum_need(n, self.code.k(), self.policy.write_slack);
        let mut installed = 0usize;
        let mut finishes = std::mem::take(&mut self.finishes);
        finishes.clear();
        let queued_from = self.pending.len();
        // A whole store times its installs as a phase of its own; a seal's
        // are part of `store.seal`.
        let mut install_span = match unit {
            Unit::Whole(_) => span!(self.recorder, "store.store.install"),
            Unit::Group(_) => Recorder::disabled().span("store.seal.install"),
        };
        let row = self.fabric.find_or_insert(unit);
        for (i, mut frame) in frames.drain(..).enumerate() {
            seal_in_place(gen, &mut frame);
            let drive = drive_install(
                self.transport.as_mut(),
                &self.policy,
                &mut self.policy_rng,
                i,
                frame.len() as u64,
                &self.node_obs,
            );
            if drive.outcome == NodeOutcome::Ok {
                match (park, self.fabric.row_mut(row)[i].replace(frame), unit) {
                    (Some(tag), Some(old), Unit::Whole(name)) => {
                        self.limbo.park(name, tag, i, old);
                    }
                    (_, Some(old), _) => self.frames.give(old),
                    (_, None, _) => {}
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
        self.frames.give_set(frames);
        if installed == 0 {
            self.fabric.remove_if_empty(unit, row);
        }
        if installed < quorum {
            self.finishes = finishes;
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
        self.finishes = finishes;
        match unit {
            Unit::Whole(name) => upsert(&mut self.objects, name, ObjectEntry::Whole { gen }),
            Unit::Group(gid) => {
                self.group_gens.insert(gid, gen);
            }
        }
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
        let entry = ObjectEntry::Grouped { group: gid, span };
        upsert(&mut self.objects, object, entry);
        if full {
            self.seal_group(gid)?;
        }
        Ok(())
    }

    /// Retire `object`'s current copy before a grouped copy replaces it: a
    /// grouped predecessor is tombstoned, a whole one loses its frames.
    fn retire_for_grouped(&mut self, object: &str) -> Result<(), StorageError> {
        match self.objects.get(object) {
            Some(&ObjectEntry::Grouped { group, span }) => self.tombstone_member(group, span),
            // During replay whole symbols stay put: the nodes hold their
            // final state, which a later `StoreWhole` record for this name
            // may own. The restart walk sweeps whatever ends up orphaned.
            Some(ObjectEntry::Whole { .. }) if !self.replaying => {
                self.destructive_apply_barrier()?;
                self.fabric.remove(Unit::Whole(object));
                Ok(())
            }
            Some(ObjectEntry::Whole { .. }) | None => Ok(()),
        }
    }

    /// Seal the open coding group, if any: encode its packed block with a
    /// **single** encode and install one symbol per node. Until a
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
        // Encode the packed block where it is; the code writes the padding.
        let packed_len = group.packed_len;
        let objects_committed = group.live_objects;
        let padded = padded_block_len(self.code.as_ref(), packed_len);
        let mut block = std::mem::take(&mut group.data);
        let sealed = self
            .frames
            .encode(self.code.as_ref(), &[], &block, padded)
            .map_err(StorageError::from)
            .and_then(|frames| self.install_unit(Unit::Group(gid), None, frames));
        let installed = match sealed {
            Ok(installed) => installed,
            Err(e) => {
                // Put the buffered objects back: the group stays open and
                // every recorded span remains valid, so nothing is lost on a
                // failed seal (a re-seal stamps a fresh generation).
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

    /// `unit`'s fabric row, and all nodes that could serve it right now (up,
    /// holding a frame of it, inside the caller's allowed set), ordered by
    /// `policy`. The caller reads from the first `k`, indexing the row; the
    /// full count feeds the degraded flag.
    fn pick_holders(
        &self,
        policy: SelectionPolicy,
        unit: Unit,
        allowed: Option<&[NodeId]>,
    ) -> (Option<usize>, Vec<usize>) {
        let row = self.fabric.find(unit);
        let mut candidates: Vec<usize> = self
            .nodes
            .iter()
            .zip(self.fabric.slots(row))
            .enumerate()
            .filter(|(i, (n, frame))| {
                n.up && frame.is_some() && allowed.map(|a| a.contains(&NodeId(*i))).unwrap_or(true)
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
        (row, candidates)
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
        let entry = *self
            .objects
            .get(object)
            .ok_or_else(|| StorageError::UnknownObject {
                object: object.to_string(),
            })?;
        match entry {
            ObjectEntry::Whole { gen } => {
                let (row, candidates) = self.pick_holders(policy, Unit::Whole(object), allowed);
                let (data, fetch) = self.read_whole(object, row, gen, &candidates)?;
                self.obs.decoded.inc();
                Ok(self.finish_read(data, fetch))
            }
            ObjectEntry::Grouped { group, span } => {
                self.retrieve_grouped(group, span, policy, allowed)
            }
        }
    }

    /// Read whole object `object`, at fabric row `row`, from `k` of
    /// `candidates`, verified at generation `gen` as
    /// [`DistributedStore::fetch_unit`] does, decoding straight from the
    /// node buffers into the returned bytes. The block is
    /// `[len: u64 LE][bytes][padding]`: the prefix is decoded first, then
    /// exactly the `len` bytes after it, so neither the padding nor a
    /// zero-filled block is ever written. The prefix is what lets crash
    /// recovery rebuild whole entries without decoding them; one that
    /// claims more bytes than the block holds is a failed decode.
    fn read_whole(
        &mut self,
        object: &str,
        row: Option<usize>,
        gen: u64,
        candidates: &[usize],
    ) -> Result<(Vec<u8>, UnitFetch), StorageError> {
        let fetch = self.fetch_unit(row, gen, candidates)?;
        let _decode_span = span!(self.recorder, "store.retrieve.decode");
        let view = unit_view(self.fabric.slots(row), &fetch.sources);
        let padded = fetch.bytes_per_source * self.code.k();
        let mut prefix = Vec::with_capacity(8);
        self.code.decode_append(&view, 0..8, &mut prefix)?;
        let claim = prefix
            .try_into()
            .map(u64::from_le_bytes)
            .ok()
            .and_then(|len| usize::try_from(len).ok())
            .filter(|&len| len <= padded.saturating_sub(8))
            .ok_or_else(|| {
                StorageError::Code(CodeError::DecodeFailure {
                    reason: format!("length prefix of {object} overruns its {padded}-byte block"),
                })
            })?;
        let mut data = Vec::with_capacity(claim);
        self.code.decode_append(&view, 8..8 + claim, &mut data)?;
        Ok((data, fetch))
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
    ///      ([`DistributedStore::decode_group`]), so the rest of a scan of
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
        let (row, mut candidates) = self.pick_holders(policy, Unit::Group(gid), allowed);
        let mut failed = None;
        if candidates.len() >= self.code.k()
            && self.decode_cache.get(gid).is_none()
            && !self.decode_cache.read_again(gid)
        {
            match self.read_ranged(gid, row, packed_len, span, &candidates) {
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
        let mut fetch = self.decode_group(gid, row, &candidates)?;
        if !fetch.sources.is_empty() {
            self.obs.decoded.inc();
        }
        if let Some(attempt) = failed {
            fetch = fetch.after(attempt);
        }
        let block = self
            .decode_cache
            .get(gid)
            .expect("decode_group just populated the cache");
        let data = block[span.offset..span.offset + span.len].to_vec();
        Ok(self.finish_read(data, fetch))
    }

    /// Telemetry of one served node read, and its report.
    fn finish_read(&self, data: Vec<u8>, fetch: UnitFetch) -> (Vec<u8>, RetrieveReport) {
        self.note_outcomes(&fetch.outcomes);
        self.obs.bytes_verified.add(fetch.bytes_verified);
        (data, fetch.into_report())
    }

    /// Serve `span` of sealed group `gid`, at fabric row `row`, from the
    /// shares that hold it verbatim (the store's [`Layout`]): the covering
    /// shares are
    /// collected like a decode's (with no spare to fall back on), each
    /// checked for generation and for the checksums of the chunks holding
    /// its piece of the span, and each payload must be the `padded block /
    /// k` bytes the group table implies. Every source is charged one full
    /// share, since its node ships the whole frame.
    ///
    /// Returns `None`, having contacted nobody, when the code has no layout
    /// or a covering node is not among `candidates` (the reachable
    /// holders).
    fn read_ranged(
        &mut self,
        gid: GroupId,
        row: Option<usize>,
        packed_len: usize,
        span: ObjSpan,
        candidates: &[usize],
    ) -> Option<Ranged> {
        let padded = padded_block_len(self.code.as_ref(), packed_len);
        let share_len = padded / self.code.k();
        // (share, offset in its payload, bytes) for each piece of the span,
        // and per source the payload bytes its pieces span.
        let mut pieces = Vec::new();
        let mut sources: Vec<usize> = Vec::new();
        let mut ranges: Vec<Range<usize>> = Vec::new();
        let end = span.offset + span.len;
        let mut at = span.offset;
        while at < end {
            let (share, offset, run) = self.layout.as_ref()?.locate(padded, at)?;
            if !candidates.contains(&share) {
                return None;
            }
            let take = run.min(end - at);
            match sources.iter().position(|&s| s == share) {
                Some(i) => {
                    let range = &mut ranges[i];
                    *range = range.start.min(offset)..range.end.max(offset + take);
                }
                None => {
                    sources.push(share);
                    ranges.push(offset..offset + take);
                }
            }
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
        let expect_gen = self.expected_gen(Unit::Group(gid));
        let mut transport_span = span!(
            self.recorder,
            "store.retrieve.transport",
            candidates = sources.len() as u64
        );
        // A frame that disagrees with the group table on its length cannot
        // be sliced at the located offsets: the check counts it corrupt.
        let col = collect_shares(
            self.transport.as_mut(),
            &CollectSpec {
                policy: &policy,
                k: sources.len(),
                expect_gen,
                obs: &self.node_obs,
                candidates: &sources,
                slots: self.fabric.slots(row),
                ranged: Some((share_len, &ranges)),
            },
            &mut self.policy_rng,
        );
        transport_span.field("shares", col.available as u64);
        drop(transport_span);
        let mut fetch = UnitFetch {
            outcomes: col.outcomes,
            retries: col.retries,
            bytes_verified: col.bytes_verified,
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
        let slots = self.fabric.slots(row);
        for (share, offset, take) in pieces {
            let (_, payload) = split_frame(held(slots, share)).expect("verified above");
            data.extend_from_slice(&payload[offset..offset + take]);
        }
        for &node in &sources {
            self.nodes[node].bytes_served += share_len as u64;
        }
        fetch.bytes_per_source = share_len;
        fetch.sources = sources;
        Some(Ranged::Served(data, fetch))
    }

    /// Decode group `gid`, at fabric row `row`, into `io_buf` from `k` of
    /// `candidates` (the reachable holders, in policy order), as fetched
    /// and verified by
    /// [`DistributedStore::fetch_unit`], and cache the block.
    ///
    /// A cached group is served without touching any node (no sources, no
    /// bytes). The availability check applies on cache hits too, so the
    /// cache never masks a group the cluster cannot currently serve.
    fn decode_group(
        &mut self,
        gid: GroupId,
        row: Option<usize>,
        candidates: &[usize],
    ) -> Result<UnitFetch, StorageError> {
        let k = self.code.k();
        if candidates.len() < k {
            return Err(StorageError::NotEnoughNodes {
                available: candidates.len(),
                needed: k,
            });
        }
        if self.decode_cache.touch(gid) {
            self.obs.cache_hits.inc();
            return Ok(UnitFetch {
                degraded: candidates.len() < self.code.n(),
                ..UnitFetch::default()
            });
        }
        self.obs.cache_misses.inc();
        let fetch = self.fetch_unit(row, self.expected_gen(Unit::Group(gid)), candidates)?;
        let decode_span = span!(self.recorder, "store.retrieve.decode");
        let view = unit_view(self.fabric.slots(row), &fetch.sources);
        self.code.decode_into(&view, &mut self.io_buf)?;
        drop(view);
        drop(decode_span);
        // The block moves into the cache, and the entry it evicts becomes
        // the next decode's buffer: no copy, no allocation.
        let block = std::mem::take(&mut self.io_buf);
        self.io_buf = self.decode_cache.insert(gid, block).unwrap_or_default();
        Ok(fetch)
    }

    /// Collect `k` verified shares of generation `expect_gen` from
    /// `candidates` (the reachable holders of the unit at fabric row `row`,
    /// in policy order) through the transport (a
    /// virtually parallel wave with retries, backups, and hedging; under
    /// the direct transport simply the first `k` candidates), and charge
    /// each source its payload bytes. Every share is verified whole
    /// (generation and every chunk checksum) before any decode reads it.
    /// Fewer than `k` candidates or verified shares is
    /// [`StorageError::NotEnoughNodes`]; the read is degraded when fewer
    /// than `n` shares were available to it. The sources are the fetch's
    /// `sources`; [`unit_view`] borrows their payloads.
    fn fetch_unit(
        &mut self,
        row: Option<usize>,
        expect_gen: u64,
        candidates: &[usize],
    ) -> Result<UnitFetch, StorageError> {
        let k = self.code.k();
        if candidates.len() < k {
            return Err(StorageError::NotEnoughNodes {
                available: candidates.len(),
                needed: k,
            });
        }
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
                expect_gen,
                obs: &self.node_obs,
                candidates,
                slots: self.fabric.slots(row),
                ranged: None,
            },
            &mut self.policy_rng,
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
        // Charge the payload, not the frame header.
        let mut bytes_per_source = 0;
        let slots = self.fabric.slots(row);
        for &i in &col.used {
            let len = frame_payload_len(held(slots, i).len()).expect("verified share");
            bytes_per_source = len;
            self.nodes[i].bytes_served += len as u64;
        }
        Ok(UnitFetch {
            sources: col.used,
            bytes_per_source,
            degraded: candidates.len() < self.code.n() || any_failed(&col.outcomes),
            outcomes: col.outcomes,
            latency: col.latency,
            hedged: col.hedged,
            retries: col.retries,
            bytes_verified: col.bytes_verified,
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
        let entry = self.objects.remove(object).expect("checked above");
        match entry {
            ObjectEntry::Whole { .. } => self.delete_unit(Unit::Whole(object)),
            ObjectEntry::Grouped { group, span } => self.tombstone_member(group, span),
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
    /// evidence of every durable record that targeted the unit. The frames
    /// removed go back to the frame pool. A group also leaves the decode
    /// cache and the group table.
    fn delete_unit(&mut self, unit: Unit) -> Result<(), StorageError> {
        self.destructive_apply_barrier()?;
        let row = self.fabric.find(unit);
        for i in 0..self.nodes.len() {
            let patience = self.policy.attempt_timeout;
            let fate = self.transport.attempt(i, TransportOp::Delete, 0, patience);
            if let Some(row) = row.filter(|_| fate.outcome.is_ok() && fate.latency <= patience) {
                if let Some(frame) = self.fabric.row_mut(row)[i].take() {
                    self.frames.give(frame);
                }
            }
        }
        if let Some(row) = row {
            self.fabric.remove_if_empty(unit, row);
        }
        match unit {
            Unit::Whole(_) => {}
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
        for (name, entry) in &self.objects {
            if let ObjectEntry::Grouped { group, span } = entry {
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
            let (row, holders) =
                self.pick_holders(SelectionPolicy::LeastLoaded, Unit::Group(gid), None);
            self.decode_group(gid, row, &holders)?;
            let block = self
                .decode_cache
                .get(gid)
                .expect("decode_group populated the cache");
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
                fabric: self.fabric,
                limbo: self.limbo,
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
    /// complete itself. A whole store is logged after its install; if a
    /// crash took the record, the frames it replaced go back and its own
    /// are swept. A torn final record is
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
        mut nodes: SurvivingNodes,
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
        let mut replay = wal.replay()?;
        let mut store = Self::bare(code, config);
        store.group_config.durability = Durability::Logged;
        store.nodes = nodes.nodes;
        store.fabric = nodes.fabric;
        // The log rolled back past the records a crash took; so do the
        // nodes.
        let durable = replay.records.len() as u64;
        nodes
            .limbo
            .restore(durable, &mut store.fabric, &mut store.frames);
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
        // The snapshot moves out of the replay: nothing reads a
        // checkpoint record after this loop.
        let mut restored = None;
        for (i, record) in replay.records.iter_mut().enumerate().rev() {
            let WalRecord::Checkpoint {
                state,
                state_crc_ok,
            } = record
            else {
                continue;
            };
            if !*state_crc_ok {
                report.checkpoint_fallbacks += 1;
                continue;
            }
            match store.restore_from_checkpoint(std::mem::take(state)) {
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
        for record in &replay.records[start..] {
            store.replay_record(record, &mut report)?;
        }
        report.records_since_checkpoint = replay.records.len() - start;
        store.replaying = false;
        store.reconcile_after_replay();
        store.rebuild_gens_from_nodes(&mut report);
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
        report: &mut RecoveryReport,
    ) -> Result<(), StorageError> {
        match record {
            WalRecord::StoreGrouped {
                object,
                group,
                bytes,
            } => {
                self.replay_open_group(*group)?;
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
                // Logged after its install: redo it. The generation is
                // read from the frames after replay.
                if let Some(&ObjectEntry::Grouped { group, span }) = self.objects.get(object) {
                    self.tombstone_member(group, span)?;
                }
                self.objects
                    .insert(object.clone(), ObjectEntry::Whole { gen: 0 });
                Ok(())
            }
            WalRecord::Delete { object } => {
                // Redo semantics: a logged delete completes even if the
                // crash preceded its apply. Whole symbols are left in place
                // (a later `StoreWhole` record may own them); the restart
                // walk sweeps them if the name stays dead.
                match self.objects.remove(object) {
                    Some(ObjectEntry::Whole { .. }) => {}
                    Some(ObjectEntry::Grouped { group, span }) => {
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
            // No longer written: an old log's is a no-op.
            WalRecord::AbortWhole { .. } => Ok(()),
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
    fn replay_open_group(&mut self, gid: GroupId) -> Result<(), StorageError> {
        if self.open_group == Some(gid) {
            return Ok(());
        }
        self.note_group_id(gid)?;
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
        Ok(())
    }

    /// Post-replay cleanup of the group half: retire groups the live run
    /// dropped without a record, and the group frames of every group that
    /// is gone or never sealed. It runs before
    /// [`Self::rebuild_gens_from_nodes`], which takes the group
    /// generations and the epoch from the frames it leaves. Whole frames
    /// no live whole object owns (a grouped overwrite or delete of a whole
    /// object leaves them behind during replay, and so does a whole install
    /// whose record a crash took) are swept by that walk.
    fn reconcile_after_replay(&mut self) {
        let open = self.open_group;
        self.groups
            .retain(|gid, g| g.sealed || g.live_objects > 0 || open == Some(*gid));
        let groups = &self.groups;
        self.fabric
            .retain_groups(|gid| groups.get(&gid).is_some_and(|g| g.sealed));
    }

    /// Re-derive the expected share generations from the frames the nodes
    /// actually hold, and sweep the whole frames no live whole object owns.
    /// Replay cannot reproduce the live epoch sequence (failed-quorum
    /// attempts consume epochs without leaving a record), so recovery
    /// trusts the fabric: per group the newest verifiable frame is the
    /// truth, and the epoch counter resumes past everything seen — a
    /// post-recovery overwrite can never collide with a pre-crash orphan.
    ///
    /// A whole object takes the newest generation at least `k` verifiable
    /// frames back (the newest seen, if none is decodable): a failed-quorum
    /// overwrite leaves a few newer frames behind, and trusting those would
    /// turn the still-readable predecessor into `NotEnoughNodes`. A group
    /// must not fall back the same way: its older generation is a failed
    /// seal of a different (shorter) block, which the group table does not
    /// describe.
    ///
    /// One walk over the whole objects does both jobs. Each object's frames
    /// are found with one fabric lookup and opened newest generation
    /// first, and the walk stops once `k` frames of one generation verify:
    /// the first generation with a verified frame is the newest seen (and
    /// the object's share of the epoch), the first with `k` is the newest
    /// decodable, and no older frame can change either. A healthy object
    /// costs `k` verifications. The same walk counts the live whole objects
    /// that have an entry; only when the fabric has more whole entries than
    /// that is there a stray, so only then does the sweep look at every
    /// entry.
    fn rebuild_gens_from_nodes(&mut self, report: &mut RecoveryReport) {
        self.group_gens.clear();
        let mut max_gen = 0u64;
        for (&gid, &row) in &self.fabric.groups {
            for frame in self.fabric.slots(Some(row)).iter().flatten() {
                report.frames_verified += 1;
                if let Some((gen, _)) = open_frame(frame) {
                    let slot = self.group_gens.entry(gid).or_insert(0);
                    *slot = (*slot).max(gen);
                    max_gen = max_gen.max(gen);
                }
            }
        }
        let k = self.code.k();
        let mut held = 0usize;
        // One object's frames as (header generation, frame), newest first.
        let mut frames: Vec<(u64, &[u8])> = Vec::new();
        for (name, entry) in &mut self.objects {
            let ObjectEntry::Whole { gen: expect } = entry else {
                continue;
            };
            *expect = 0;
            let Some(row) = self.fabric.find(Unit::Whole(name)) else {
                continue;
            };
            held += 1;
            frames.clear();
            // An impossible length never verifies: one more erasure.
            frames.extend(
                self.fabric
                    .slots(Some(row))
                    .iter()
                    .flatten()
                    .filter_map(|frame| split_frame(frame).map(|(gen, _)| (gen, &frame[..]))),
            );
            frames.sort_unstable_by_key(|&(gen, _)| std::cmp::Reverse(gen));
            // The newest generation with a verified frame, the newest with
            // `k`, and the last verified frame's generation with its count.
            let (mut seen, mut decodable, mut run) = (None, None, None);
            for &(gen, frame) in &frames {
                report.frames_verified += 1;
                if open_frame(frame).is_none() {
                    continue;
                }
                seen.get_or_insert(gen);
                let verified = match run {
                    Some((g, verified)) if g == gen => verified + 1,
                    _ => 1,
                };
                run = Some((gen, verified));
                if verified == k {
                    decodable = Some(gen);
                    break;
                }
            }
            if let Some(newest) = seen {
                max_gen = max_gen.max(newest);
                *expect = decodable.unwrap_or(newest);
            }
        }
        self.next_epoch = self.next_epoch.max(max_gen + 1);
        if self.fabric.whole.len() != held {
            let objects = &self.objects;
            report.stale_frames_swept += self
                .fabric
                .retain_whole(|name| matches!(objects.get(name), Some(ObjectEntry::Whole { .. })));
        }
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
        let Some(row) = self.fabric.find(unit) else {
            return Err(StorageError::NotEnoughNodes {
                available: 0,
                needed: self.code.k(),
            });
        };
        let slots = self.fabric.slots(Some(row));
        if slots[node]
            .as_deref()
            .is_some_and(|f| open_frame(f).is_some_and(|(g, _)| g == gen))
        {
            return Ok(false);
        }
        let mut view = ShareView::missing(self.code.n());
        let mut available = 0;
        let mut share_len = 0;
        for (i, (n, frame)) in self.nodes.iter().zip(slots).enumerate() {
            if i == node || !n.up {
                continue;
            }
            if let Some((g, payload)) = frame.as_deref().and_then(open_frame) {
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
        let mut frame = self.frames.take(share_len);
        let header = frame.len() - share_len;
        self.code.repair(&view, node, &mut frame[header..])?;
        drop(view);
        seal_in_place(gen, &mut frame);
        let drive = drive_install(
            self.transport.as_mut(),
            &self.policy,
            &mut self.policy_rng,
            node,
            frame.len() as u64,
            &self.node_obs,
        );
        if drive.outcome == NodeOutcome::Ok {
            if let Some(old) = self.fabric.row_mut(row)[node].replace(frame) {
                self.frames.give(old);
            }
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
    use crate::transport::{seal_frame, FRAME_CHUNK, FRAME_HEADER};
    use proptest::prelude::*;
    use rain_codes::{ArrayCode, BCode, CodeKind, CodeSpec, ShareSet};

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
    fn a_length_prefix_past_the_block_is_a_decode_failure_not_a_panic() {
        let data = b"twenty bytes of data";
        let padded = padded_block_len(&BCode::table_1a(), 8 + data.len());
        // One byte past the block, and the largest claim a prefix can make.
        for claim in [padded as u64 - 7, u64::MAX] {
            let mut s = store();
            s.store("obj", data).unwrap();
            // Re-encode the block with the lying prefix and re-seal every
            // frame under the generation the store expects, so every
            // share verifies and the decode succeeds.
            let gen = s.expected_gen(Unit::Whole("obj"));
            let mut block = claim.to_le_bytes().to_vec();
            block.extend_from_slice(data);
            block.resize(padded, 0);
            let mut shares = ShareSet::new();
            s.code.encode_into(&block, &mut shares).unwrap();
            let row = s.fabric.find(Unit::Whole("obj")).unwrap();
            for (slot, share) in s.fabric.row_mut(row).iter_mut().zip(shares.iter()) {
                *slot = Some(seal_frame(gen, share));
            }
            let read = s.retrieve("obj", SelectionPolicy::FirstK);
            assert!(
                matches!(
                    read,
                    Err(StorageError::Code(CodeError::DecodeFailure { .. }))
                ),
                "claim {claim}: {read:?}"
            );
        }
    }

    #[test]
    fn a_length_prefix_of_exactly_the_block_reads_back() {
        // A prefix claiming every byte after it: the padding becomes data.
        let data = b"twenty bytes of data";
        let padded = padded_block_len(&BCode::table_1a(), 8 + data.len());
        let mut s = store();
        s.store("obj", data).unwrap();
        let gen = s.expected_gen(Unit::Whole("obj"));
        let mut block = (padded as u64 - 8).to_le_bytes().to_vec();
        block.extend_from_slice(data);
        block.resize(padded, 0);
        let mut shares = ShareSet::new();
        s.code.encode_into(&block, &mut shares).unwrap();
        let row = s.fabric.find(Unit::Whole("obj")).unwrap();
        for (slot, share) in s.fabric.row_mut(row).iter_mut().zip(shares.iter()) {
            *slot = Some(seal_frame(gen, share));
        }
        let (out, _) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, &block[8..]);
    }

    #[test]
    fn a_whole_object_get_with_two_nodes_down_decodes_the_exact_bytes() {
        // Large enough that every cell spans several decode windows.
        let data: Vec<u8> = (0..300_007u32).map(|i| (i * 7 + i / 251) as u8).collect();
        let codes: [Arc<dyn ErasureCode>; 2] = [
            Arc::new(BCode::table_1a()),
            Arc::new(rain_codes::ReedSolomon::new(6, 4).unwrap()),
        ];
        for code in codes {
            let kind = code.kind();
            let mut s = DistributedStore::new(code);
            s.store("obj", &data).unwrap();
            let (out, report) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, data, "{kind:?} healthy");
            assert_eq!(report.sources, [0, 1, 2, 3].map(NodeId), "{kind:?}");
            assert!(!report.degraded);
            // Down nodes 0 and 2 hold data for both families: the read
            // rebuilds it from parity.
            s.fail_node(NodeId(0)).unwrap();
            s.fail_node(NodeId(2)).unwrap();
            let (out, report) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, data, "{kind:?} degraded");
            assert_eq!(report.sources, [1, 3, 4, 5].map(NodeId), "{kind:?}");
            assert!(report.degraded);
        }
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

    /// Where the code of `s` keeps byte `at` of a `len`-byte block:
    /// `(share, offset, run)`.
    fn locate(s: &DistributedStore, len: usize, at: usize) -> (usize, usize, usize) {
        let layout = s.layout.as_ref().expect("the code has a layout");
        layout.locate(len, at).expect("a byte of the block")
    }

    /// The node holding object `o{i}` of [`one_cell_store`].
    fn data_node(s: &DistributedStore, i: usize) -> usize {
        locate(s, 240, 20 * i).0
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
    /// `damage` is given the frame and the object's offset in its payload.
    fn ranged_read_falls_back(damage: impl FnOnce(&mut Vec<u8>, usize), want: NodeOutcome) {
        let (mut s, name, want_bytes) = one_cell_objects();
        let registry = Registry::new();
        s.attach_registry(&registry);
        let i: usize = name[1..].parse().unwrap();
        let (_, offset, _) = locate(&s, 240, 20 * i);
        damage(group_frame(&mut s, 5), offset);
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
        // The flip lands in the object's own bytes, so in the chunk the
        // ranged read verifies.
        ranged_read_falls_back(
            |frame, offset| {
                let header = frame.len() - 60;
                frame[header + offset + 3] ^= 0x40;
            },
            NodeOutcome::Corrupt,
        );
    }

    #[test]
    fn ranged_read_refuses_a_stale_generation() {
        ranged_read_falls_back(
            |frame, _| {
                let (gen, payload) = open_frame(frame).unwrap();
                *frame = seal_frame(gen + 1, payload);
            },
            NodeOutcome::Stale,
        );
    }

    #[test]
    fn ranged_read_refuses_a_truncated_frame() {
        ranged_read_falls_back(
            |frame, _| frame.truncate(frame.len() - 1),
            NodeOutcome::Corrupt,
        );
        // Re-sealed after truncation, so checksum and generation verify:
        // only the length check against the group table catches it.
        ranged_read_falls_back(
            |frame, _| {
                let (gen, payload) = open_frame(frame).unwrap();
                *frame = seal_frame(gen, &payload[..payload.len() - 1]);
            },
            NodeOutcome::Corrupt,
        );
    }

    /// Every family `build_code` makes, at the reference parameters.
    fn families() -> [CodeSpec; 6] {
        [
            CodeSpec::new(CodeKind::BCode, 6, 4),
            CodeSpec::new(CodeKind::XCode, 5, 3),
            CodeSpec::new(CodeKind::EvenOdd, 7, 5),
            CodeSpec::new(CodeKind::ReedSolomon, 6, 4),
            CodeSpec::new(CodeKind::Mirroring, 3, 1),
            CodeSpec::new(CodeKind::SingleParity, 5, 4),
        ]
    }

    /// 250 B objects in groups of 62.5 KiB: every share spans several
    /// chunks, and some objects straddle a chunk boundary.
    const CHUNKED_OBJECT: usize = 250;
    const CHUNKED_PER_GROUP: usize = 256;

    fn chunked_bytes(name: &str) -> Vec<u8> {
        let seed = name.bytes().fold(7u8, |h, b| h.wrapping_mul(31) ^ b);
        (0..CHUNKED_OBJECT)
            .map(|i| seed.wrapping_add(i as u8))
            .collect()
    }

    /// A store over `spec` holding `groups` sealed groups of
    /// `CHUNKED_PER_GROUP` objects each, `g{g}o{i}`.
    fn chunked_store(spec: CodeSpec, groups: usize) -> DistributedStore {
        let config = GroupConfig {
            threshold: 1024,
            capacity: CHUNKED_OBJECT * CHUNKED_PER_GROUP,
            ..GroupConfig::disabled()
        };
        let mut s = DistributedStore::from_spec_grouped(spec, config).unwrap();
        for g in 0..groups {
            for i in 0..CHUNKED_PER_GROUP {
                let name = format!("g{g}o{i}");
                s.store(&name, &chunked_bytes(&name)).unwrap();
            }
        }
        assert_eq!(s.group_stats().sealed_groups, groups, "capacity seals");
        s
    }

    /// Where object `i` of a chunked group lives: per covering share, the
    /// payload bytes it spans (as `read_ranged` computes them).
    fn chunked_cover(s: &DistributedStore, i: usize) -> Vec<(usize, Range<usize>)> {
        let padded = padded_block_len(s.code.as_ref(), CHUNKED_OBJECT * CHUNKED_PER_GROUP);
        let mut cover: Vec<(usize, Range<usize>)> = Vec::new();
        let (mut at, end) = (i * CHUNKED_OBJECT, (i + 1) * CHUNKED_OBJECT);
        while at < end {
            let (share, offset, run) = locate(s, padded, at);
            let take = run.min(end - at);
            match cover.iter_mut().find(|(sh, _)| *sh == share) {
                Some((_, r)) => *r = r.start.min(offset)..r.end.max(offset + take),
                None => cover.push((share, offset..offset + take)),
            }
            at += take;
        }
        cover
    }

    fn chunks_of(range: &Range<usize>) -> Range<usize> {
        range.start / FRAME_CHUNK..(range.end - 1) / FRAME_CHUNK + 1
    }

    /// Node `node`'s frame of the only group.
    fn group_frame(s: &mut DistributedStore, node: usize) -> &mut Vec<u8> {
        let row = *s.fabric.groups.values().next().unwrap();
        s.fabric.row_mut(row)[node].as_mut().unwrap()
    }

    /// Flip a bit of payload byte `at` in `node`'s frame of the only group.
    fn damage_payload(s: &mut DistributedStore, node: usize, at: usize) {
        let frame = group_frame(s, node);
        let header = frame.len() - frame_payload_len(frame.len()).unwrap();
        frame[header + at] ^= 0x10;
    }

    #[test]
    fn ranged_reads_hash_only_the_chunks_they_return() {
        // Five groups read round-robin stay ranged (see above), so every
        // get below is a cold ranged get.
        for spec in families() {
            let mut s = chunked_store(spec, 5);
            let registry = Registry::new();
            s.attach_registry(&registry);
            let mut crossing = 0;
            for i in 0..CHUNKED_PER_GROUP {
                let cover = chunked_cover(&s, i);
                let chunks: usize = cover.iter().map(|(_, r)| chunks_of(r).len()).sum();
                for g in 0..5 {
                    let name = format!("g{g}o{i}");
                    let before = registry.counter_value("storage.retrieve.bytes_verified");
                    let (out, report) = s.retrieve(&name, SelectionPolicy::FirstK).unwrap();
                    let hashed = registry.counter_value("storage.retrieve.bytes_verified") - before;
                    assert_eq!(out, chunked_bytes(&name), "{spec:?} {name}");
                    assert_eq!(report.sources.len(), cover.len(), "{spec:?} {name} ranged");
                    let bound = if chunks == 1 { 4096 } else { 8192 };
                    assert!(
                        hashed <= bound,
                        "{spec:?} {name}: {hashed} B over {chunks} chunks"
                    );
                    assert!(hashed >= CHUNKED_OBJECT as u64);
                }
                crossing += usize::from(chunks > 1);
            }
            assert_eq!(registry.counter_value("storage.retrieve.decoded"), 0);
            assert!(crossing > 0, "{spec:?}: some span crosses a boundary");
        }
    }

    #[test]
    fn chunk_damage_is_caught_exactly_where_a_read_looks() {
        for spec in families() {
            let probe = chunked_store(spec, 1);
            // An object on one chunk of one share.
            let (i, share, range) = (0..CHUNKED_PER_GROUP)
                .find_map(|i| match chunked_cover(&probe, i).as_slice() {
                    [(share, range)] if chunks_of(range).len() == 1 => {
                        Some((i, *share, range.clone()))
                    }
                    _ => None,
                })
                .expect("an object inside one chunk");
            let own = chunks_of(&range).start;
            let other = if own == 0 { 1 } else { 0 };
            let name = format!("g0o{i}");
            let want = chunked_bytes(&name);

            // Damage in the covered chunk: the ranged read refuses the
            // frame and the decode serves the bytes.
            let mut s = chunked_store(spec, 1);
            damage_payload(&mut s, share, range.start);
            let (out, report) = s.retrieve(&name, SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, want, "{spec:?}");
            assert_eq!(report.outcomes[0], (NodeId(share), NodeOutcome::Corrupt));
            assert_eq!(
                report.sources.len(),
                spec.k,
                "{spec:?} fell back to a decode"
            );
            assert!(report.degraded);

            // Damage in another chunk of the same frame: served ranged.
            let mut s = chunked_store(spec, 1);
            damage_payload(&mut s, share, other * FRAME_CHUNK);
            let (out, report) = s.retrieve(&name, SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, want, "{spec:?}");
            assert_eq!(report.sources, [NodeId(share)], "{spec:?} still ranged");
            assert_eq!(report.outcomes, [(NodeId(share), NodeOutcome::Ok)]);

            // A full decode verifies every chunk: the second read of the
            // group decodes, asks node 0 first, and refuses its frame.
            let mut s = chunked_store(spec, 1);
            let last = frame_payload_len(group_frame(&mut s, 0).len()).unwrap() - 1;
            damage_payload(&mut s, 0, last);
            s.retrieve("g0o0", SelectionPolicy::FirstK).ok();
            let (out, report) = s.retrieve(&name, SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, want, "{spec:?}");
            assert_eq!(report.sources.len(), spec.k);
            assert!(report.outcomes.contains(&(NodeId(0), NodeOutcome::Corrupt)));

            // Repair refuses the damaged frame too: node 1 is rebuilt from
            // the others bit for bit, or, with too few of them, not at all.
            let mut s = chunked_store(spec, 1);
            let original = group_frame(&mut s, 1).clone();
            damage_payload(&mut s, 0, last);
            s.replace_node(NodeId(1)).unwrap();
            match s.repair_node(NodeId(1)) {
                Ok(repaired) => {
                    assert_eq!(repaired, 1);
                    assert_eq!(*group_frame(&mut s, 1), original, "{spec:?}");
                }
                Err(e) => {
                    assert_eq!(spec.n - spec.k, 1, "{spec:?}: {e}");
                    assert_eq!(
                        e,
                        StorageError::NotEnoughNodes {
                            available: spec.n - 2,
                            needed: spec.k
                        }
                    );
                }
            }
        }
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
    /// store always hands the code a valid block), and counts decodes. It
    /// forwards only the required methods, so the store's `encode_parts`
    /// runs the trait's staging default.
    struct FlakyCode {
        inner: ArrayCode,
        fail_encode: std::sync::atomic::AtomicBool,
        decodes: std::sync::atomic::AtomicUsize,
    }

    impl FlakyCode {
        /// A working wrapper around the (6, 4) B-Code.
        fn new() -> Arc<Self> {
            Arc::new(FlakyCode {
                inner: BCode::table_1a(),
                fail_encode: std::sync::atomic::AtomicBool::new(false),
                decodes: std::sync::atomic::AtomicUsize::new(0),
            })
        }

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
            self.decodes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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
    fn a_wrapper_code_keeps_the_ranged_path() {
        // The wrapper forwards the encode, so the store finds the B-Code's
        // layout through it: a cold get of a sealed grouped object reads
        // exactly the shares holding its two cells, and nothing decodes.
        let code = FlakyCode::new();
        let mut s = DistributedStore::with_groups(code.clone(), grouped_config());
        for i in 0..6 {
            s.store(&format!("o{i}"), &[i as u8; 40]).unwrap();
        }
        s.flush().unwrap();
        let (out, report) = s.retrieve("o2", SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, [2u8; 40]);
        let mut covering: Vec<NodeId> =
            [80, 100].map(|cell| NodeId(locate(&s, 240, cell).0)).into();
        covering.dedup();
        assert_eq!(report.sources, covering, "served ranged");
        assert_eq!(
            code.decodes.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "nothing decoded"
        );
    }

    #[test]
    fn failed_seal_keeps_the_open_group_intact() {
        let code = FlakyCode::new();
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
        let code = FlakyCode::new();
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
        // The crash lands on the record of a whole overwrite whose install
        // already reached the nodes. Torn away, the record never happened:
        // the acked predecessor reads back, a grouped one from its group
        // (the new whole frames are swept) and a whole one from the frames
        // the install parked. Landed whole, the record is redone.
        for old in [vec![3u8; 40], vec![3u8; 90]] {
            for torn_bytes in [0, usize::MAX] {
                let mut s = DistributedStore::with_wal(
                    Arc::new(BCode::table_1a()),
                    grouped_config(),
                    Box::new(MemLog::with_fuse(CrashFuse {
                        records_before_crash: 1,
                        torn_bytes,
                    })),
                );
                s.store("x", &old).unwrap();
                assert!(matches!(
                    s.store("x", &[4u8; 100]),
                    Err(StorageError::Wal(WalError::Crashed))
                ));
                let (mut rec, report) = recover_from(s).unwrap();
                let (out, _) = rec.retrieve("x", SelectionPolicy::FirstK).unwrap();
                let case = format!("{} B predecessor, torn {torn_bytes}", old.len());
                if torn_bytes == 0 {
                    assert_eq!(out, old, "{case}");
                    let grouped = old.len() < grouped_config().threshold;
                    assert_eq!(report.stale_frames_swept >= 1, grouped, "{case}");
                } else {
                    assert_eq!(out, [4u8; 100], "{case}");
                }
            }
        }
    }

    /// A whole store whose install reached its quorum but whose record
    /// failed to append. Cut back out of the log (a short write, a failed
    /// fsync), the store is taken back: the predecessor (none, whole,
    /// grouped open, grouped sealed) reads back live and after a power
    /// loss. If power fails during the cut, the record may be durable: the
    /// op fails `Crashed`, takes nothing back, and recovery reads the
    /// predecessor or the new bytes as the record survived, never a name
    /// without frames. Either way the name takes a later store.
    #[test]
    fn a_whole_store_whose_record_fails_to_append_is_undone_or_left_to_recovery() {
        use crate::wal::file::{FaultSpec, FaultyFile, FileLog, FsyncPolicy, SyncFault};
        use crate::wal::WriteAheadLog;
        let code: Arc<dyn ErasureCode> = Arc::new(BCode::table_1a());
        let read = |s: &mut DistributedStore| {
            s.retrieve("x", SelectionPolicy::FirstK)
                .map(|(bytes, _)| bytes)
                .ok()
        };
        let new = vec![9u8; 100];
        for policy in [FsyncPolicy::Always, FsyncPolicy::EveryN(4)] {
            let config = grouped_config().logged().with_fsync(policy);
            for (old, sealed) in [
                (None, false),
                (Some(vec![1u8; 90]), false),
                (Some(vec![1u8; 40]), false),
                (Some(vec![1u8; 40]), true),
            ] {
                let setup = |faults| {
                    let (file, handle) = FaultyFile::new(faults);
                    let log = FileLog::with_raw(Box::new(file), policy).unwrap();
                    let mut s = DistributedStore::with_wal(code.clone(), config, Box::new(log));
                    if let Some(old) = &old {
                        s.store("x", old).unwrap();
                    }
                    if sealed {
                        s.flush().unwrap();
                    }
                    // Three records after a commit: the overwrite's record
                    // is the next commit under either policy.
                    s.sync_wal().unwrap();
                    for f in 0..3u8 {
                        s.store(&format!("f{f}"), &[f; 8]).unwrap();
                    }
                    (s, handle)
                };
                let probe = setup(FaultSpec::default()).1;
                let failed_sync = Some((probe.syncs(), SyncFault::Fail));
                // Each fault on the record's commit, and whether the record
                // may still be in the log: `None` when the failed append
                // was cut back out, else whether a power loss during the
                // cut kept the record.
                for (faults, landed) in [
                    (
                        FaultSpec {
                            short_write: Some((probe.writes(), 5)),
                            ..FaultSpec::default()
                        },
                        None,
                    ),
                    (
                        FaultSpec {
                            sync_fault: failed_sync,
                            ..FaultSpec::default()
                        },
                        None,
                    ),
                    (
                        FaultSpec {
                            sync_fault: failed_sync,
                            crash_on_replace: Some((0, true)),
                            ..FaultSpec::default()
                        },
                        Some(false),
                    ),
                    (
                        FaultSpec {
                            sync_fault: failed_sync,
                            crash_on_replace: Some((0, false)),
                            ..FaultSpec::default()
                        },
                        Some(true),
                    ),
                ] {
                    let case = format!(
                        "{policy:?}, {:?} B, sealed: {sealed}, {faults:?}",
                        old.as_ref().map(Vec::len)
                    );
                    let (mut s, handle) = setup(faults);
                    let before = s.group_stats();
                    let err = s.store("x", &new).unwrap_err();
                    if landed.is_some() {
                        // The record may be durable: nothing is taken back,
                        // and recovery decides.
                        assert_eq!(err, StorageError::Wal(WalError::Crashed), "{case}");
                    } else {
                        assert!(
                            matches!(err, StorageError::Wal(WalError::Backend(_))),
                            "{case}: {err:?}"
                        );
                        // A cut that rewrites the file makes the batch in
                        // front of the record durable too.
                        let after = GroupStats {
                            wal_pending_sync_bytes: before.wal_pending_sync_bytes,
                            ..s.group_stats()
                        };
                        assert_eq!(after, before, "{case}");
                        assert_eq!(read(&mut s), old, "{case}");
                        s.sync_wal().unwrap();
                    }
                    // Power loss: only the durable image survives.
                    let (nodes, _) = s.crash();
                    let (file, _) =
                        FaultyFile::with_contents(handle.durable_bytes(), FaultSpec::default());
                    let wal = WriteAheadLog::new(Box::new(
                        FileLog::with_raw(Box::new(file), policy).unwrap(),
                    ));
                    let (mut rec, _) =
                        DistributedStore::recover(code.clone(), config, nodes, wal).unwrap();
                    let want = if landed == Some(true) {
                        Some(new.clone())
                    } else {
                        old.clone()
                    };
                    assert_eq!(read(&mut rec), want, "{case}");
                    rec.store("x", &new).unwrap();
                    assert_eq!(read(&mut rec), Some(new.clone()), "{case}");
                }
            }
        }
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
        // supersession: the later record re-establishes the truth.
        let mut s = logged_store();
        s.store("x", &[1u8; 100]).unwrap();
        s.store("x", &[2u8; 40]).unwrap();
        s.store("keep", &[3u8; 40]).unwrap();
        let (mut rec, _) = recover_from(s).unwrap();
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

    /// Units node `node` holds a frame of: (whole objects, groups).
    fn units_held(fabric: &Fabric, node: usize) -> (usize, usize) {
        let count = |rows: &mut dyn Iterator<Item = usize>| {
            rows.filter(|&row| fabric.slots(Some(row))[node].is_some())
                .count()
        };
        (
            count(&mut fabric.whole.values().copied()),
            count(&mut fabric.groups.values().copied()),
        )
    }

    /// Put `frame` in node `node`'s slot of `unit`.
    fn plant(s: &mut DistributedStore, unit: Unit, node: usize, frame: Vec<u8>) {
        let row = s.fabric.find_or_insert(unit);
        s.fabric.row_mut(row)[node] = Some(frame);
    }

    type Frames = Vec<Option<Vec<u8>>>;

    /// The fabric as plain maps, whatever rows its entries sit in.
    fn fabric_maps(f: &Fabric) -> (HashMap<String, Frames>, HashMap<GroupId, Frames>) {
        let slots = |row: usize| f.slots(Some(row)).to_vec();
        (
            f.whole
                .iter()
                .map(|(k, &r)| (k.clone(), slots(r)))
                .collect(),
            f.groups.iter().map(|(&k, &r)| (k, slots(r))).collect(),
        )
    }

    /// The restart walk as it was before it verified newest first: sweep
    /// every whole frame no live whole object owns, then open every frame
    /// and tally the verified frames per generation. Kept as the oracle
    /// [`DistributedStore::rebuild_gens_from_nodes`] must agree with.
    fn exhaustive_rebuild(s: &mut DistributedStore) {
        let objects = &s.objects;
        s.fabric
            .retain_whole(|name| matches!(objects.get(name), Some(ObjectEntry::Whole { .. })));
        s.group_gens.clear();
        let mut max_gen = 0u64;
        for (&gid, &row) in &s.fabric.groups {
            for frame in s.fabric.slots(Some(row)).iter().flatten() {
                if let Some((gen, _)) = open_frame(frame) {
                    let slot = s.group_gens.entry(gid).or_insert(0);
                    *slot = (*slot).max(gen);
                    max_gen = max_gen.max(gen);
                }
            }
        }
        let k = s.code.k();
        for (name, entry) in &mut s.objects {
            let ObjectEntry::Whole { gen: expect } = entry else {
                continue;
            };
            let mut tally: Vec<(u64, usize)> = Vec::new();
            let row = s.fabric.find(Unit::Whole(name));
            for frame in s.fabric.slots(row) {
                let Some((gen, _)) = frame.as_deref().and_then(open_frame) else {
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
            *expect = newest(true).or(newest(false)).unwrap_or(0);
        }
        s.next_epoch = s.next_epoch.max(max_gen + 1);
    }

    /// A frame at `gen`, possibly damaged: a flipped header or payload bit,
    /// or a length no payload produces.
    fn fabric_frame(rng: &mut DetRng, gen: u64) -> Vec<u8> {
        let len = *rng.pick(&[0, 7, 40, FRAME_CHUNK, FRAME_CHUNK + 5]);
        let payload: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let mut frame = seal_frame(gen, &payload);
        match rng.below(8) {
            0 => {
                let header = frame.len() - len;
                let bit = rng.below(8 * header as u64) as usize;
                frame[bit / 8] ^= 1 << (bit % 8);
            }
            1 if len > 0 => {
                let at = frame.len() - len + rng.below(len as u64) as usize;
                frame[at] ^= 1 << rng.below(8);
            }
            2 => frame.truncate(rng.below(FRAME_HEADER as u64) as usize),
            _ => {}
        }
        frame
    }

    /// A store as replay leaves it, before the generation walk: whole and
    /// grouped objects, and nodes holding missing, older, newer (failed
    /// quorum) and damaged frames, plus strays under unknown and grouped
    /// names and a few group frames.
    fn random_fabric(code: Arc<dyn ErasureCode>, seed: u64) -> DistributedStore {
        let mut rng = DetRng::new(seed);
        let mut s = DistributedStore::new(code);
        let n = s.nodes.len();
        s.next_epoch = rng.range(1, 8);
        for i in 0..rng.range(1, 12) {
            let name = format!("o{i}");
            if rng.chance(0.2) {
                let span = ObjSpan { offset: 0, len: 1 };
                s.objects
                    .insert(name.clone(), ObjectEntry::Grouped { group: 0, span });
                for node in 0..n {
                    if rng.chance(0.3) {
                        plant(&mut s, Unit::Whole(&name), node, fabric_frame(&mut rng, 3));
                    }
                }
                continue;
            }
            s.objects
                .insert(name.clone(), ObjectEntry::Whole { gen: 0 });
            let base = rng.range(1, 6);
            for node in 0..n {
                let gen = match rng.below(6) {
                    0 => continue,
                    1 => base - 1,
                    2 => base + rng.range(1, 3),
                    _ => base,
                };
                plant(
                    &mut s,
                    Unit::Whole(&name),
                    node,
                    fabric_frame(&mut rng, gen),
                );
            }
        }
        for node in 0..n {
            if rng.chance(0.2) {
                let stray = format!("stray{node}");
                plant(&mut s, Unit::Whole(&stray), node, fabric_frame(&mut rng, 9));
            }
            for gid in 0..2 {
                if rng.chance(0.5) {
                    let gen = rng.range(1, 10);
                    plant(&mut s, Unit::Group(gid), node, fabric_frame(&mut rng, gen));
                }
            }
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The newest-first walk with its counted sweep leaves exactly what
        /// the exhaustive sweep and tally leave: the same generations, the
        /// same epoch, and the same frames on every node.
        #[test]
        fn prop_the_generation_walk_matches_the_exhaustive_tally(
            seed in any::<u64>(),
            family in 0usize..3,
        ) {
            let code = || -> Arc<dyn ErasureCode> {
                match family {
                    0 => Arc::new(rain_codes::Mirroring::new(3)),
                    1 => Arc::new(ReedSolomon::new(6, 4).unwrap()),
                    _ => Arc::new(BCode::table_1a()),
                }
            };
            let mut walked = random_fabric(code(), seed);
            let mut oracle = random_fabric(code(), seed);
            let frames = |s: &DistributedStore| {
                s.fabric.whole.values().map(|&row| {
                    s.fabric.slots(Some(row)).iter().flatten().count()
                }).sum::<usize>()
            };
            let before = frames(&oracle);
            let mut report = RecoveryReport::default();
            walked.rebuild_gens_from_nodes(&mut report);
            exhaustive_rebuild(&mut oracle);
            prop_assert_eq!(&walked.objects, &oracle.objects);
            prop_assert_eq!(&walked.group_gens, &oracle.group_gens);
            prop_assert_eq!(walked.next_epoch, oracle.next_epoch);
            prop_assert_eq!(fabric_maps(&walked.fabric), fabric_maps(&oracle.fabric));
            prop_assert_eq!(report.stale_frames_swept, before - frames(&oracle));
        }
    }

    #[test]
    fn a_clean_restart_verifies_k_frames_per_object_and_sweeps_only_strays() {
        let code = || Arc::new(ReedSolomon::new(6, 4).unwrap());
        let config = GroupConfig::disabled().logged();
        let mut s = DistributedStore::with_groups(code(), config);
        for i in 0..5 {
            s.store(&format!("o{i}"), &[i as u8; 100]).unwrap();
        }
        s.store("o0", &[9u8; 100]).unwrap();
        let (nodes, wal) = s.crash();
        let (_, rep) = DistributedStore::recover(code(), config, nodes, wal.unwrap()).unwrap();
        assert_eq!((rep.frames_verified, rep.stale_frames_swept), (5 * 4, 0));

        let mut s = DistributedStore::with_groups(code(), config);
        for i in 0..5 {
            s.store(&format!("o{i}"), &[i as u8; 100]).unwrap();
        }
        let (mut nodes, wal) = s.crash();
        let row = nodes.fabric.find_or_insert(Unit::Whole("stray"));
        nodes.fabric.row_mut(row)[2] = Some(seal_frame(1, &[0; 25]));
        let (r, rep) = DistributedStore::recover(code(), config, nodes, wal.unwrap()).unwrap();
        assert_eq!((rep.frames_verified, rep.stale_frames_swept), (5 * 4, 1));
        assert_eq!(units_held(&r.fabric, 2).0, 5, "the stray is gone");
    }

    /// A live whole object with no frame left and a stray make as many
    /// whole entries as live whole objects: the walk must count the
    /// objects it found frames for, or it would keep the stray.
    #[test]
    fn a_restart_sweeps_a_stray_beside_an_object_that_lost_every_frame() {
        let code = || Arc::new(ReedSolomon::new(6, 4).unwrap());
        let config = GroupConfig::disabled().logged();
        let mut s = DistributedStore::with_groups(code(), config);
        s.store("lost", &[1u8; 100]).unwrap();
        s.store("kept", &[2u8; 100]).unwrap();
        let (mut nodes, wal) = s.crash();
        nodes.fabric.remove(Unit::Whole("lost"));
        let row = nodes.fabric.find_or_insert(Unit::Whole("stray"));
        nodes.fabric.row_mut(row)[2] = Some(seal_frame(1, &[0; 25]));
        let (r, rep) = DistributedStore::recover(code(), config, nodes, wal.unwrap()).unwrap();
        assert_eq!((rep.frames_verified, rep.stale_frames_swept), (4, 1));
        assert!(r.fabric.find(Unit::Whole("stray")).is_none());
        assert!(r.holds("lost"), "its record survives; its bytes do not");
    }

    /// The fabric's shape: its rows split into the entries' rows and the
    /// free list; an entry's row has `n` slots and at least one frame, and
    /// a free row none, so no node holds a frame of a unit without an entry.
    fn check_fabric(s: &DistributedStore) -> Result<(), TestCaseError> {
        let f = &s.fabric;
        prop_assert_eq!(f.slots.len() % f.n, 0);
        let mut owners = vec![0usize; f.slots.len() / f.n];
        for &row in f.whole.values().chain(f.groups.values()) {
            owners[row] += 1;
            prop_assert_eq!(f.slots(Some(row)).len(), s.nodes.len());
            prop_assert!(f.slots(Some(row)).iter().any(Option::is_some));
        }
        for &row in &f.free {
            owners[row] += 1;
            prop_assert!(f.slots(Some(row)).iter().all(Option::is_none));
        }
        prop_assert!(owners.iter().all(|&o| o == 1), "rows {:?}", owners);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whole and grouped puts, overwrites and deletes, interleaved with
        /// node failures, replacement and repair, flushes, compaction and
        /// crash + recover under a relaxed fsync (so limbo parks and puts
        /// back), keep the fabric's shape. A replaced node holds nothing,
        /// parked frames included, and a repair that succeeds leaves it
        /// holding every live unit.
        #[test]
        fn prop_the_fabric_keeps_its_invariants(seed in any::<u64>()) {
            let code = || Arc::new(ReedSolomon::new(6, 4).unwrap());
            let config = grouped_config().logged();
            let (file, _) = crate::FaultyFile::new(crate::FaultSpec::default());
            let log = crate::FileLog::with_raw(Box::new(file), crate::FsyncPolicy::EveryN(3))
                .unwrap();
            let mut s = DistributedStore::with_wal(code(), config, Box::new(log));
            let mut rng = DetRng::new(seed);
            let unavailable = |e: &StorageError| matches!(e, StorageError::NotEnoughNodes { .. });
            for _ in 0..80 {
                let key = format!("k{}", rng.below(10));
                let node = rng.below(6) as usize;
                match rng.below(16) {
                    0..=6 => {
                        let len = if rng.chance(0.5) { rng.below(64) } else { rng.range(64, 300) };
                        s.store(&key, &vec![len as u8; len as usize]).unwrap();
                    }
                    7 => {
                        if s.holds(&key) {
                            s.delete(&key).unwrap();
                        }
                    }
                    8 => s.fail_node(NodeId(node)).unwrap(),
                    9 => s.recover_node(NodeId(node)).unwrap(),
                    10 => {
                        s.replace_node(NodeId(node)).unwrap();
                        prop_assert_eq!(units_held(&s.fabric, node), (0, 0));
                        prop_assert!(s.limbo.frames.iter().all(|&(_, n, _)| n != node));
                    }
                    11 => match s.repair_node(NodeId(node)) {
                        Ok(_) => {
                            let groups = s.sealed_group_ids().len();
                            let whole = s.whole_object_names().len();
                            prop_assert_eq!(units_held(&s.fabric, node), (whole, groups));
                        }
                        Err(e) => prop_assert!(unavailable(&e), "{e}"),
                    },
                    12 => drop(s.flush().unwrap()),
                    13 => {
                        if let Err(e) = s.compact() {
                            prop_assert!(unavailable(&e), "{e}");
                        }
                    }
                    14 => {
                        let (nodes, wal) = s.crash();
                        s = DistributedStore::recover(code(), config, nodes, wal.unwrap())
                            .unwrap()
                            .0;
                    }
                    _ => {
                        // Every machine swapped: no unit keeps an entry.
                        for node in 0..6 {
                            s.replace_node(NodeId(node)).unwrap();
                        }
                        prop_assert!(s.fabric.whole.is_empty() && s.fabric.groups.is_empty());
                    }
                }
                check_fabric(&s)?;
            }
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
        use rain_sim::{Fault, FaultPlan, SimTime};

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

        /// Nodes 0-2 of six down from t = 0 until 1 s: a whole install
        /// reaches three nodes, short of any quorum of RS(6, 4).
        fn outage() -> Box<ChaosTransport> {
            let mut plan = FaultPlan::none();
            for i in 0..3 {
                plan = plan
                    .at(SimTime::ZERO, Fault::NodeCrash(NodeId(i)))
                    .at(SimTime::from_secs(1), Fault::NodeRecover(NodeId(i)));
            }
            Box::new(ChaosTransport::new(6, 7).with_plan(plan))
        }

        /// A whole overwrite of a grouped object that misses its quorum
        /// leaves the grouped copy in place. Were the old copy tombstoned
        /// before the install, the failed install would leave the object
        /// table naming the group the tombstone dropped, and the next
        /// retrieve or delete would panic.
        #[test]
        fn a_failed_whole_overwrite_of_a_grouped_object_keeps_the_old_copy() {
            let config = GroupConfig {
                threshold: 64,
                capacity: 256,
                ..GroupConfig::disabled()
            };
            let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
            let mut s = DistributedStore::with_groups(code, config);
            s.store("obj", &[7u8; 10]).unwrap();
            s.flush().unwrap(); // sealed alone: the group's last member
            s.set_transport(outage());
            assert_eq!(
                s.store("obj", &[8u8; 100]).unwrap_err(),
                StorageError::QuorumNotReached {
                    installed: 3,
                    needed: 6
                }
            );
            assert!(matches!(
                s.retrieve("obj", SelectionPolicy::FirstK),
                Err(StorageError::NotEnoughNodes { .. })
            ));
            s.advance_time(SimDuration::from_secs(2));
            let (out, _) = s.retrieve("obj", SelectionPolicy::FirstK).unwrap();
            assert_eq!(out, [7u8; 10], "the failed overwrite left the old copy");
            s.delete("obj").unwrap();
            assert_eq!(
                s.group_stats().sealed_groups,
                0,
                "the delete dropped the group"
            );
            assert!(matches!(
                s.retrieve("obj", SelectionPolicy::FirstK),
                Err(StorageError::UnknownObject { .. })
            ));
        }

        /// The logged twin of the test above, across a coordinator crash:
        /// the failed overwrite logs no `StoreWhole` record, so replay
        /// keeps the grouped copy as the live run did, whether that
        /// copy sits in a sealed group or is the only live member of the
        /// open one (where a replayed tombstone would rewind the open block
        /// and shift every later span).
        #[test]
        fn a_failed_whole_overwrite_of_a_grouped_object_survives_a_restart() {
            let config = GroupConfig {
                threshold: 64,
                capacity: 256,
                ..GroupConfig::disabled()
            }
            .logged();
            let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
            for sealed in [true, false] {
                let mut s = DistributedStore::with_groups(code.clone(), config);
                s.store("obj", &[7u8; 10]).unwrap();
                if sealed {
                    s.flush().unwrap();
                }
                s.set_transport(outage());
                assert_eq!(
                    s.store("obj", &[8u8; 100]).unwrap_err(),
                    StorageError::QuorumNotReached {
                        installed: 3,
                        needed: 6
                    }
                );
                s.advance_time(SimDuration::from_secs(2));
                s.store("later", &[9u8; 20]).unwrap();
                s.flush().unwrap();
                let live = s.group_stats();
                let (nodes, wal) = s.crash();
                let (mut rec, _) =
                    DistributedStore::recover(code.clone(), config, nodes, wal.unwrap()).unwrap();
                for (name, want) in [("obj", vec![7u8; 10]), ("later", vec![9u8; 20])] {
                    let (out, _) = rec.retrieve(name, SelectionPolicy::FirstK).unwrap();
                    assert_eq!(out, want, "{name}, sealed: {sealed}");
                }
                let recovered = rec.group_stats();
                assert_eq!(
                    (recovered.sealed_groups, recovered.open_bytes),
                    (live.sealed_groups, live.open_bytes),
                    "sealed: {sealed}"
                );
                rec.delete("obj").unwrap();
                rec.delete("later").unwrap();
                assert_eq!(rec.group_stats().sealed_groups, 0, "sealed: {sealed}");
            }
        }

        /// The grouped layout of a store's tables, which a restart must
        /// reproduce.
        fn layout(s: &DistributedStore) -> [usize; 6] {
            let g = s.group_stats();
            [
                g.groups,
                g.sealed_groups,
                g.grouped_objects,
                g.open_bytes,
                g.live_bytes,
                g.packed_bytes,
            ]
        }

        /// A crash at the first append after a whole overwrite of a grouped
        /// object missed its quorum. Were the store's record logged before
        /// its install and withdrawn after the miss, a crash that took the
        /// withdrawal would have replay redo the store: the grouped copy
        /// tombstoned, and the object naming three whole frames.
        #[test]
        fn a_crash_after_a_failed_whole_overwrite_keeps_the_grouped_copy() {
            let config = GroupConfig {
                threshold: 64,
                capacity: 256,
                ..GroupConfig::disabled()
            }
            .logged();
            let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(6, 4).unwrap());
            for sealed in [true, false] {
                for records_before_crash in [3, 2] {
                    let case = format!("sealed: {sealed}, fuse: {records_before_crash}");
                    let fuse = CrashFuse {
                        records_before_crash,
                        torn_bytes: 0,
                    };
                    let log = Box::new(MemLog::with_fuse(fuse));
                    let mut s = DistributedStore::with_wal(code.clone(), config, log);
                    s.store("obj", &[7u8; 10]).unwrap();
                    if sealed {
                        s.flush().unwrap();
                    }
                    s.set_transport(outage());
                    assert!(s.store("obj", &[8u8; 100]).is_err(), "{case}");
                    let live = layout(&s);
                    let (nodes, wal) = s.crash();
                    let (mut rec, _) =
                        DistributedStore::recover(code.clone(), config, nodes, wal.unwrap())
                            .unwrap();
                    let (out, _) = rec.retrieve("obj", SelectionPolicy::FirstK).unwrap();
                    assert_eq!(out, [7u8; 10], "{case}");
                    assert_eq!(layout(&rec), live, "{case}");
                }
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
                let (whole, groups) = units_held(&s.fabric, 0);
                assert_eq!(whole + groups, 1, "node 0 holds the current unit only");
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
