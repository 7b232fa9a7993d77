//! Coding groups: batching small objects into one erasure-coded block.
//!
//! The per-call cost of a distributed store — GF-table preparation,
//! share-set relayout, per-object metadata, one symbol insert per node — is
//! independent of the object size, so a store serving millions of tiny
//! objects pays it millions of times. A coding group amortises it: small
//! objects are packed back to back into one contiguous data block, the
//! whole block is encoded with a **single** `encode_into`, and each node
//! holds one symbol per *group* instead of one per object. Objects are
//! addressed as `(group, offset, len)` sub-ranges of the block (the XBOF
//! move of amortising across objects, applied at the storage layer).
//!
//! Lifecycle: a group is **open** while objects accumulate in its block
//! (the coordinator's write buffer — not yet erasure-coded); it is
//! **sealed** once the block reaches the configured capacity (or on an
//! explicit flush), which encodes the block and distributes the symbols.
//! Deletes tombstone the sub-range; a compaction pass rewrites sealed
//! groups whose live fraction has dropped below the watermark, repacking
//! the survivors into the current open group.
//!
//! Reading a sealed group's object need not decode the group. Every code
//! stores each data cell verbatim in one symbol, so a healthy read can
//! fetch and verify only the symbol(s) holding the object's span and copy
//! the bytes out (a *ranged* read, located by the [`rain_codes::Layout`]
//! the store finds from its code's encode). The first read of a group is
//! ranged; a group read again soon after is decoded from any `k` symbols
//! and cached, so a scan of co-located objects pays one decode, not one
//! share check per object. The block is also decoded when a covering node
//! is unreachable or fails to deliver, and by compaction and shard export,
//! which need every member.
//!
//! This module owns the pure bookkeeping (packing, tombstones, live
//! accounting, the decoded-block cache); the distributed parts — encoding,
//! symbol placement, ranged reads, group decode, per-group repair — live
//! in [`crate::store::DistributedStore`].

use crate::wal::file::FsyncPolicy;
use serde::{Deserialize, Serialize};

/// Identifier of a coding group within one store.
pub type GroupId = u64;

/// What happens to acked-but-unsealed objects if the coordinator crashes.
///
/// Objects buffered in an **open** group live only in coordinator memory
/// until the group seals; this knob decides whether that window is
/// protected by a write-ahead log (see [`crate::wal`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Durability {
    /// No log: a coordinator crash loses every acked object whose group has
    /// not sealed. [`GroupStats::bytes_at_risk`] counts that exposure.
    #[default]
    Volatile,
    /// Every group-affecting mutation is appended to a write-ahead log
    /// before it is applied, and [`crate::DistributedStore::recover`]
    /// replays the log after a restart — acked objects survive coordinator
    /// crashes.
    Logged,
}

/// Knobs for coding-group batching. Constructed via
/// [`GroupConfig::small_objects`] (sensible defaults) or
/// [`GroupConfig::disabled`] (the `Default`, and the behaviour of stores
/// built with [`crate::DistributedStore::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupConfig {
    /// Objects **strictly smaller** than this many bytes are packed into
    /// coding groups; objects at or above the threshold keep the one-
    /// object-per-encode path. `0` disables grouping entirely.
    pub threshold: usize,
    /// The open group is sealed (encoded and distributed) once its packed
    /// block reaches this many bytes.
    pub capacity: usize,
    /// A sealed group whose live fraction (`live_bytes / packed_len`)
    /// drops below this watermark is rewritten by the next
    /// [`crate::DistributedStore::compact`] pass.
    pub compact_watermark: f64,
    /// Whether acked-but-unsealed objects are protected by a write-ahead
    /// log (see [`Durability`]).
    pub durability: Durability,
    /// When a file-backed log forces its group-commit buffer to disk (see
    /// [`FsyncPolicy`]). Ignored by synchronous backends such as
    /// [`crate::MemLog`], where every accepted byte is durable at once.
    pub fsync: FsyncPolicy,
    /// Auto-checkpoint cadence: after this many log records since the last
    /// checkpoint, the store snapshots its logical state into the log and
    /// drops the prefix before the previous checkpoint
    /// ([`crate::DistributedStore::checkpoint`]), keeping replay O(live
    /// state). `0` disables auto-checkpoints (explicit calls still work).
    pub checkpoint_every: u64,
    /// Segment size for the cluster's per-shard WAL directories (a
    /// [`crate::FileLog::open_segmented`] log): the log rotates sealed
    /// `wal.NNNNNN.seg` files of roughly this many bytes, so checkpoint
    /// truncation deletes whole segments in O(1) instead of rewriting the
    /// live log. `0` keeps the single-file layout with rewrite-based
    /// truncation.
    pub segment_bytes: usize,
}

impl GroupConfig {
    /// Grouping disabled: every object is stored individually.
    pub fn disabled() -> Self {
        GroupConfig {
            threshold: 0,
            capacity: 64 * 1024,
            compact_watermark: 0.5,
            durability: Durability::Volatile,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 0,
            segment_bytes: 0,
        }
    }

    /// Defaults tuned for the small-object regime: group objects under
    /// 4 KiB, seal at 64 KiB, compact below 50% live.
    pub fn small_objects() -> Self {
        GroupConfig {
            threshold: 4 * 1024,
            capacity: 64 * 1024,
            compact_watermark: 0.5,
            durability: Durability::Volatile,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 0,
            segment_bytes: 0,
        }
    }

    /// The same configuration with [`Durability::Logged`]: mutations are
    /// written ahead to a log so a coordinator crash loses nothing acked.
    pub fn logged(mut self) -> Self {
        self.durability = Durability::Logged;
        self
    }

    /// The same configuration with the given fsync schedule for file-backed
    /// logs (see [`FsyncPolicy`] for what each policy can lose).
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// The same configuration auto-checkpointing every `records` log
    /// records (`0` disables). Bounds replay work to O(live state + two
    /// checkpoint intervals).
    pub fn with_checkpoint_every(mut self, records: u64) -> Self {
        self.checkpoint_every = records;
        self
    }

    /// The same configuration with segmented file-backed logs rotating at
    /// roughly `bytes` per segment (`0` keeps the single-file layout).
    pub fn with_segments(mut self, bytes: usize) -> Self {
        self.segment_bytes = bytes;
        self
    }
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig::disabled()
    }
}

/// Where an object lives inside its group's data block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjSpan {
    /// Byte offset of the object in the packed block.
    pub offset: usize,
    /// Object length in bytes.
    pub len: usize,
}

/// One coding group: a contiguous data block shared by many small objects,
/// encoded as a single erasure-coded unit. The store's group table holds
/// these, and a [`crate::CheckpointState`] records them as they are.
///
/// The group holds only the block and live *counters*. Object spans live in
/// the store's object table (one lookup resolves an object all the way to
/// its bytes), so the grouped hot path touches no per-member map; the rare
/// compaction pass recovers a group's member list by scanning that table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodingGroup {
    /// The packed data block. Holds the bytes only while the group is
    /// open; sealing encodes the block and drops this buffer (the bytes
    /// then live in the per-node symbols, like any stored object).
    pub data: Vec<u8>,
    /// Packed length at seal time (the block is zero-padded past this to
    /// the code's input unit before encoding).
    pub packed_len: usize,
    /// Bytes still referenced by live objects.
    pub live_bytes: usize,
    /// Live (non-tombstoned) members.
    pub live_objects: usize,
    /// True once the block has been encoded and distributed.
    pub sealed: bool,
}

impl CodingGroup {
    /// A fresh, open, empty group.
    #[cfg(test)]
    pub(crate) fn open() -> Self {
        Self::open_with_buffer(Vec::new())
    }

    /// A fresh open group reusing `buffer` (cleared) as its block — the
    /// store recycles the previous group's buffer so steady-state grouped
    /// appends allocate nothing.
    pub(crate) fn open_with_buffer(mut buffer: Vec<u8>) -> Self {
        buffer.clear();
        CodingGroup {
            data: buffer,
            packed_len: 0,
            live_bytes: 0,
            live_objects: 0,
            sealed: false,
        }
    }

    /// Restart an emptied **open** group: discard the dead bytes but keep
    /// the buffer.
    pub(crate) fn reset_open(&mut self) {
        assert!(!self.sealed, "sealed groups are dropped, not reset");
        debug_assert_eq!(self.live_objects, 0);
        self.data.clear();
        self.packed_len = 0;
        self.live_bytes = 0;
    }

    /// Append an object's bytes to the open block, returning its span (the
    /// caller records it in the object table).
    ///
    /// Panics if the group is already sealed — the store only ever appends
    /// to the open group.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> ObjSpan {
        assert!(!self.sealed, "cannot append to a sealed group");
        let span = ObjSpan {
            offset: self.data.len(),
            len: bytes.len(),
        };
        self.data.extend_from_slice(bytes);
        self.packed_len = self.data.len();
        self.live_bytes += bytes.len();
        self.live_objects += 1;
        span
    }

    /// Tombstone a member: its sub-range stays in the block (and, for a
    /// sealed group, in the encoded symbols) but no longer counts as live.
    /// The caller owns span bookkeeping (the object table is the single
    /// source of truth), so this only adjusts the live counters.
    pub(crate) fn tombstone(&mut self, span: ObjSpan) {
        debug_assert!(self.live_objects > 0 && self.live_bytes >= span.len);
        self.live_bytes -= span.len;
        self.live_objects -= 1;
    }

    /// Fraction of the packed block still referenced by live objects.
    /// An empty (or all-empty-object) block counts as fully live — there
    /// is nothing to reclaim.
    pub(crate) fn live_fraction(&self) -> f64 {
        if self.packed_len == 0 {
            1.0
        } else {
            self.live_bytes as f64 / self.packed_len as f64
        }
    }

    /// True if a compaction pass should rewrite this group.
    pub(crate) fn wants_compaction(&self, watermark: f64) -> bool {
        self.sealed && self.live_objects > 0 && self.live_fraction() < watermark
    }
}

/// Counters describing the grouping state of a store; see
/// [`crate::DistributedStore::group_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GroupStats {
    /// Groups currently tracked (open + sealed).
    pub groups: usize,
    /// Sealed (encoded and distributed) groups.
    pub sealed_groups: usize,
    /// Live objects stored through groups.
    pub grouped_objects: usize,
    /// Bytes buffered in the open group, not yet erasure-coded.
    pub open_bytes: usize,
    /// Live bytes across all groups.
    pub live_bytes: usize,
    /// Packed bytes across all groups (live + tombstoned).
    pub packed_bytes: usize,
    /// Group retrieves served from the decoded-block cache.
    pub decode_cache_hits: u64,
    /// Group decodes run (groups read again soon after a ranged read,
    /// retrieves the ranged path could not serve, compaction, shard
    /// export). Ranged reads count as neither.
    pub decode_cache_misses: u64,
    /// Live bytes of acked objects whose group has **not** sealed: their
    /// records are in the write-ahead log (when [`Durability::Logged`]) but
    /// they are not yet erasure-coded, so they depend on the log — or, under
    /// [`Durability::Volatile`], on nothing at all — to survive a
    /// coordinator crash.
    pub bytes_at_risk: usize,
    /// Records currently **in** the write-ahead log (0 without one).
    /// Checkpoint truncation subtracts the dropped prefix, so this tracks
    /// replay work, not lifetime append traffic.
    pub wal_records: u64,
    /// Frame bytes currently in the write-ahead log (0 without one); like
    /// [`GroupStats::wal_records`], truncation subtracts.
    pub wal_bytes: u64,
    /// Log frame bytes accepted but not yet fsynced (a group-commit batch
    /// still in flight). What a power loss right now would take.
    pub wal_pending_sync_bytes: u64,
    /// Checkpoints taken by this store handle (explicit + automatic).
    pub wal_checkpoints: u64,
    /// Live object bytes whose log records are **not yet durable** under a
    /// relaxed [`FsyncPolicy`]: acked, in the log's buffer, but gone if
    /// power fails before the next group commit. Always 0 under
    /// [`FsyncPolicy::Always`] and on synchronous backends. A subset of
    /// [`GroupStats::bytes_at_risk`]'s exposure, with a stricter failure
    /// model (power loss rather than coordinator death).
    pub bytes_unsynced: usize,
    /// Symbol installs acked past the write quorum but not yet landed on
    /// their node (see [`crate::DistributedStore::complete_writes`]). Until
    /// they land, the affected objects run below full `n`-way redundancy.
    pub pending_installs: usize,
    /// Frame bytes across those pending installs — the quorum-write
    /// counterpart of [`GroupStats::bytes_at_risk`].
    pub pending_install_bytes: usize,
}

/// What a [`crate::DistributedStore::flush`] call made durable, so callers
/// (checkpoint rounds, crash tests) can assert exactly what committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlushReport {
    /// Groups sealed by this flush (0 when nothing was buffered, 1 when the
    /// open group sealed).
    pub groups_sealed: usize,
    /// Live objects that became erasure-coded durable with the seal.
    pub objects_committed: usize,
    /// Symbol installs that missed the seal's ack window and were queued
    /// for background completion (0 under the direct transport).
    pub installs_deferred: usize,
}

/// Result of a [`crate::DistributedStore::compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CompactReport {
    /// Sealed groups rewritten (their survivors repacked, their symbols
    /// dropped from every node).
    pub groups_compacted: usize,
    /// Live objects moved into the open group.
    pub objects_moved: usize,
    /// Tombstoned bytes reclaimed.
    pub bytes_reclaimed: usize,
}

/// Small LRU of decoded group blocks. Only decodes fill it, and a read that
/// misses it picks between a ranged read and a decode from what the cache
/// has seen ([`GroupDecodeCache::read_again`]): the first read of a group
/// is ranged, and a group read again while still remembered is decoded and
/// cached, so a scan of co-located objects costs one ranged read and one
/// decode while uniformly spread reads stay ranged. Reads whose covering
/// symbol was unavailable, compaction and shard export decode too. Blocks
/// are invalidated when their group is compacted away; node failures do not
/// invalidate (the bytes are already reconstructed, and a sealed group's
/// block never changes).
#[derive(Debug, Default)]
pub(crate) struct GroupDecodeCache {
    /// Least recently used first. Each entry holds the **padded** decoded
    /// block (object spans only ever index below `packed_len`).
    blocks: Vec<(GroupId, Vec<u8>)>,
    /// Groups recently served by a ranged read, least recent first — ids
    /// only, no bytes.
    ranged: Vec<GroupId>,
    pub hits: u64,
    pub misses: u64,
}

/// Decoded blocks kept per store. Groups are capacity-bounded (64 KiB by
/// default), so this caps cache memory near 256 KiB.
const DECODE_CACHE_CAP: usize = 4;

impl GroupDecodeCache {
    /// Borrow a cached block without touching recency or counters.
    pub fn get(&self, id: GroupId) -> Option<&[u8]> {
        self.blocks
            .iter()
            .find(|(gid, _)| *gid == id)
            .map(|(_, b)| b.as_slice())
    }

    /// Record a lookup: on a hit the entry becomes most recently used.
    /// Returns true on a hit.
    pub fn touch(&mut self, id: GroupId) -> bool {
        if let Some(pos) = self.blocks.iter().position(|(gid, _)| *gid == id) {
            let entry = self.blocks.remove(pos);
            self.blocks.push(entry);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// For a read of `id` that missed the cache: true if `id` was read
    /// ranged recently, so the group should be decoded and cached now — a
    /// second read of one group predicts more (a scan of co-located
    /// objects), and one decode serves them all. Otherwise remembers `id`
    /// as read ranged and returns false.
    pub fn read_again(&mut self, id: GroupId) -> bool {
        if let Some(pos) = self.ranged.iter().position(|&gid| gid == id) {
            self.ranged.remove(pos);
            return true;
        }
        if self.ranged.len() >= DECODE_CACHE_CAP {
            self.ranged.remove(0);
        }
        self.ranged.push(id);
        false
    }

    /// Insert a freshly decoded block as most recently used, evicting the
    /// least recently used entry beyond the capacity. Returns the buffer of
    /// the entry it replaced or evicted, for the caller to decode into next.
    pub fn insert(&mut self, id: GroupId, block: Vec<u8>) -> Option<Vec<u8>> {
        let old = match self.blocks.iter().position(|(gid, _)| *gid == id) {
            Some(pos) => Some(self.blocks.remove(pos).1),
            None if self.blocks.len() >= DECODE_CACHE_CAP => Some(self.blocks.remove(0).1),
            None => None,
        };
        self.blocks.push((id, block));
        old
    }

    /// Forget a group (compaction removed it).
    pub fn remove(&mut self, id: GroupId) {
        self.blocks.retain(|(gid, _)| *gid != id);
        self.ranged.retain(|&gid| gid != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_packs_back_to_back_and_tracks_live_bytes() {
        let mut g = CodingGroup::open();
        let a = g.append(b"hello");
        let b = g.append(b"worlds!");
        assert_eq!(a, ObjSpan { offset: 0, len: 5 });
        assert_eq!(b, ObjSpan { offset: 5, len: 7 });
        assert_eq!(g.packed_len, 12);
        assert_eq!(g.live_bytes, 12);
        assert_eq!(g.live_objects, 2);
        assert_eq!(g.live_fraction(), 1.0);
        assert_eq!(&g.data[a.offset..a.offset + a.len], b"hello");
    }

    #[test]
    fn tombstones_shrink_live_but_not_packed() {
        let mut g = CodingGroup::open();
        let a = g.append(&[1u8; 30]);
        let b = g.append(&[2u8; 10]);
        g.sealed = true;
        g.tombstone(a);
        assert_eq!(g.packed_len, 40);
        assert_eq!(g.live_bytes, 10);
        assert!((g.live_fraction() - 0.25).abs() < 1e-12);
        assert!(g.wants_compaction(0.5));
        assert!(!g.wants_compaction(0.2));
        // A fully dead group is dropped outright, not compacted.
        g.tombstone(b);
        assert!(!g.wants_compaction(0.5));
    }

    #[test]
    fn empty_objects_are_members_with_zero_len_spans() {
        let mut g = CodingGroup::open();
        let span = g.append(b"");
        assert_eq!(span.len, 0);
        assert_eq!(g.live_objects, 1);
        assert_eq!(g.live_fraction(), 1.0, "nothing to reclaim");
    }

    #[test]
    fn open_groups_never_want_compaction() {
        let mut g = CodingGroup::open();
        let a = g.append(&[0u8; 100]);
        g.append(&[0u8; 4]);
        g.tombstone(a);
        assert!(g.live_fraction() < 0.5);
        assert!(!g.wants_compaction(0.5), "only sealed groups compact");
        // Emptying the open group restarts its block, keeping the buffer.
        let mut g = CodingGroup::open_with_buffer(Vec::with_capacity(256));
        let a = g.append(&[0u8; 100]);
        g.tombstone(a);
        g.reset_open();
        assert_eq!(g.packed_len, 0);
        assert!(g.data.capacity() >= 256, "buffer retained");
    }

    #[test]
    fn decode_cache_is_a_bounded_lru() {
        let mut cache = GroupDecodeCache::default();
        for id in 0..5u64 {
            assert!(!cache.touch(id));
            cache.insert(id, vec![id as u8]);
        }
        // Capacity 4: group 0 was evicted, 1..=4 remain.
        assert!(cache.get(0).is_none());
        assert_eq!(cache.get(1), Some(&[1u8][..]));
        // Touch 1 to make it most recent, then insert a new block: 2 (now
        // the least recent) is evicted, 1 survives, and the evicted buffer
        // comes back for reuse.
        assert!(cache.touch(1));
        assert_eq!(cache.insert(5, vec![5]), Some(vec![2]));
        assert_eq!(
            cache.insert(5, vec![6]),
            Some(vec![5]),
            "a re-insert replaces"
        );
        assert!(cache.get(2).is_none());
        assert_eq!(cache.get(1), Some(&[1u8][..]));
        cache.remove(1);
        assert!(cache.get(1).is_none());
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 5);
    }

    #[test]
    fn a_group_read_again_while_remembered_is_decoded() {
        let mut cache = GroupDecodeCache::default();
        // A scan: the first read is ranged, the second decodes.
        assert!(!cache.read_again(7));
        assert!(cache.read_again(7));
        // Once answered, the group is forgotten (its block is now cached).
        assert!(!cache.read_again(7));
        // Reads spread over more groups than the cache holds stay ranged:
        // group 7 fell out of the four remembered before its next read.
        for id in 0..4u64 {
            assert!(!cache.read_again(id));
        }
        assert!(!cache.read_again(7));
        // Compaction forgets a group.
        cache.remove(7);
        assert!(!cache.read_again(7));
    }

    #[test]
    fn config_defaults_are_disabled() {
        assert_eq!(GroupConfig::default(), GroupConfig::disabled());
        assert_eq!(GroupConfig::default().threshold, 0);
        let small = GroupConfig::small_objects();
        assert!(small.threshold > 0 && small.threshold <= small.capacity);
        assert!(small.compact_watermark > 0.0 && small.compact_watermark < 1.0);
        // Durability defaults to Volatile; `.logged()` flips only the knob.
        assert_eq!(small.durability, Durability::Volatile);
        let logged = small.logged();
        assert_eq!(logged.durability, Durability::Logged);
        assert_eq!(logged.threshold, small.threshold);
        assert_eq!(FlushReport::default().groups_sealed, 0);
        assert_eq!(FlushReport::default().objects_committed, 0);
    }
}
