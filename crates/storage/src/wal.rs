//! Write-ahead log for coding-group durability.
//!
//! Coding groups buffer small objects in the coordinator's memory until the
//! group seals ([`crate::group`]), so without a log a coordinator crash
//! silently loses every acked-but-unsealed object — exactly the
//! single-point-of-failure a RAIN-style distributed store exists to
//! eliminate. This module provides the standard log-then-apply discipline:
//! every group-affecting mutation is appended to a [`WriteAheadLog`] as a
//! checksummed, length-prefixed [`WalRecord`] **before** the coordinator's
//! in-memory state changes, and
//! [`crate::DistributedStore::recover`] replays the log after a restart to
//! rebuild the open-group buffers, object-table spans, and tombstone state.
//!
//! ## Record format
//!
//! ```text
//! frame   := [payload_len: u32 LE] [crc32(payload_len bytes): u32 LE]
//!            [crc32(payload): u32 LE] [payload]
//! payload := tag: u8 ++ fields
//!   tag 1  StoreWhole   { object: str }                  — metadata only;
//!                                                          the bytes are on
//!                                                          the nodes
//!   tag 2  StoreGrouped { object: str, group: u64,
//!                         bytes }                        — carries the data:
//!                                                          it exists nowhere
//!                                                          else until seal
//!   tag 3  Delete       { object: str }
//!   tag 4  Seal         { group: u64 }                   — logged *after* the
//!                                                          symbols are
//!                                                          installed
//!   tag 5  Compact      { group: u64 }                   — rewrite marker;
//!                                                          the moves follow
//!                                                          as ordinary store
//!                                                          records
//!   tag 6  GroupImport  { group: u64, members, bytes }   — sealed group
//!                                                          transferred in
//!                                                          from another shard
//!   tag 7  GroupEvict   { group: u64 }                   — ownership ceded
//!                                                          to another shard
//!   tag 8  Checkpoint   { state_crc: u32, state }        — full logical
//!                                                          coordinator state;
//!                                                          replay restores it
//!                                                          and continues with
//!                                                          the suffix
//! str   := [len: u32 LE] ++ utf-8 bytes
//! bytes := [len: u32 LE] ++ raw bytes
//! ```
//!
//! The length field gets its own checksum because replay must *trust* it
//! to find the next frame: without the header CRC, a corrupted length mid-
//! log would masquerade as a torn tail and silently drop every record
//! after it. With it, the two cases separate cleanly — a torn write
//! persists a prefix of the true frame (so any prefix holding the full
//! 12-byte header holds a *valid* header), while a bad header checksum is
//! always corruption. A log whose final frame is truncated mid-write (a
//! torn tail) replays cleanly up to the last complete record; damage to a
//! frame *followed by more bytes* is real corruption and fails the replay
//! with [`WalError::Corrupt`].
//!
//! ## Checkpoints and prefix truncation
//!
//! Without truncation the log grows with total write history and replay is
//! O(everything ever written). A [`WalRecord::Checkpoint`] snapshots the
//! coordinator's full *logical* state — object table, group directory,
//! open-group buffers; never node symbol bytes (those are erasure-coded and
//! survive on the nodes) — so replay can restore the snapshot and redo only
//! the suffix. After a checkpoint is durable the log drops the prefix
//! before the *previous* checkpoint via [`LogBackend::drop_prefix`], keeping
//! two checkpoints in the log: if the newest one is torn or fails its
//! embedded state checksum, recovery falls back to the one before it and
//! replays the longer suffix. Replay is O(live state + records since the
//! last two checkpoints), not O(history).
//!
//! ## One log, two tag spaces
//!
//! [`RecordLog`] is the only log type. Framing, rollback after a failed
//! append, the record and byte counters, replay, the post-replay torn-tail
//! cut and counter restore ([`RecordLog::resume`]) and two-checkpoint
//! retention each live there once. It carries any [`LogRecord`], encoded
//! with the shared [`FieldWriter`] / [`FieldReader`] codec. Two record types
//! implement it, each in its own tag space:
//!
//! * [`WalRecord`], tags 1–8 above: [`WriteAheadLog`] is
//!   `RecordLog<WalRecord>`, one per shard coordinator;
//! * the cluster metalog's `MetaRecord` (`rain-cluster`), tags 1–9: view
//!   commit, directory put / delete, placement key, handover prepare /
//!   unit landed / dual override / abort, checkpoint.
//!
//! The tag spaces overlap, so one log holds one record type; the two logs
//! live in different files.
//!
//! The [`LogBackend`] is pluggable: [`MemLog`] is the in-memory simulation
//! backend (with an optional [`CrashFuse`] so tests can kill the coordinator
//! at any record boundary or mid-frame); [`file::FileLog`] is the production
//! file backend, with an [`file::FsyncPolicy`] knob that batches group
//! commits behind one write+fsync and a [`file::FaultyFile`] twin for
//! filesystem-fault injection.

pub mod file;

use std::marker::PhantomData;

use crate::group::{GroupId, ObjSpan};
use rain_sim::SimDuration;

/// Why a log operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The backend rejected the operation.
    Backend(String),
    /// The simulated coordinator crashed at this append (see [`CrashFuse`]).
    /// The frame may have been partially written — a torn tail.
    Crashed,
    /// A frame inside the log (not at its tail) failed its checksum or did
    /// not decode: the log is damaged beyond the torn-tail case that replay
    /// tolerates.
    Corrupt {
        /// Byte offset of the damaged frame.
        offset: usize,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Backend(msg) => write!(f, "log backend error: {msg}"),
            WalError::Crashed => write!(f, "coordinator crashed during log append"),
            WalError::Corrupt { offset } => {
                write!(f, "log corrupt at byte offset {offset}")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// Durable byte sink backing a [`WriteAheadLog`].
///
/// The contract is append-only: `append` either *accepts* the whole frame or
/// fails; `contents` returns every byte accepted so far (including a
/// partial final frame, if the writer died mid-append). A backend may defer
/// durability — group-commit batching — in which case `pending_bytes`
/// reports the accepted-but-not-yet-durable tail and `sync` forces it down.
/// Synchronous backends ([`MemLog`]) keep the defaults: every accepted byte
/// is immediately durable.
pub trait LogBackend: std::fmt::Debug {
    /// Accept one encoded frame (durable immediately or at the next commit,
    /// per the backend's fsync policy).
    fn append(&mut self, frame: &[u8]) -> Result<(), WalError>;
    /// All bytes accepted so far (durable and pending alike — the writer's
    /// logical view of the log).
    fn contents(&self) -> Result<Vec<u8>, WalError>;
    /// Discard every byte past `len`. Recovery cuts a torn tail with this
    /// before reusing the log — without it the orphan partial frame would
    /// sit *in front of* post-recovery appends and turn the next replay
    /// into a mid-log corruption error.
    fn truncate(&mut self, len: usize) -> Result<(), WalError>;
    /// Force every accepted byte to durable storage (one group commit).
    /// Synchronous backends have nothing pending and keep the no-op.
    fn sync(&mut self) -> Result<(), WalError> {
        Ok(())
    }
    /// Bytes accepted by `append` but not yet durable — what a power loss
    /// right now would take with it.
    fn pending_bytes(&self) -> usize {
        0
    }
    /// Advance the backend's virtual clock: drives interval-based fsync
    /// policies ([`file::FsyncPolicy::EveryT`]). May trigger a group commit.
    fn advance_clock(&mut self, _by: SimDuration) -> Result<(), WalError> {
        Ok(())
    }
    /// Atomically discard the first `len` bytes (checkpoint truncation:
    /// everything before the retained checkpoint is dead weight). Backends
    /// that cannot drop a prefix crash-atomically must refuse.
    fn drop_prefix(&mut self, _len: usize) -> Result<(), WalError> {
        Err(WalError::Backend(
            "this backend does not support prefix truncation".to_string(),
        ))
    }
    /// The writer process died (not a power loss): user-space buffered
    /// bytes are gone, OS-accepted bytes survive. [`MemLog`] models the
    /// whole simulated machine, so the default keeps everything.
    fn on_writer_crash(&mut self) {}
}

/// Crash injection for [`MemLog`]: the fuse fires on the append *after*
/// `records_before_crash` successful ones, persists only the first
/// `torn_bytes` bytes of that frame, and returns [`WalError::Crashed`].
///
/// * `torn_bytes == 0` — the log ends exactly at a record boundary; the
///   in-flight record is lost entirely.
/// * `0 < torn_bytes < frame length` — a torn tail: the final frame is
///   incomplete and replay must stop cleanly before it.
/// * `torn_bytes >= frame length` — the record is fully durable but the
///   coordinator died before applying it (the redo case).
///
/// The fuse is one-shot: after firing it disarms, so a recovered
/// coordinator can keep appending to the same backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFuse {
    /// Appends that succeed before the fuse fires.
    pub records_before_crash: usize,
    /// Bytes of the fatal frame that reach the log (clamped to its length).
    pub torn_bytes: usize,
}

/// In-memory [`LogBackend`] used by the simulation, with optional crash
/// injection.
#[derive(Debug, Default)]
pub struct MemLog {
    buf: Vec<u8>,
    appends: usize,
    fuse: Option<CrashFuse>,
}

impl MemLog {
    /// An empty in-memory log.
    pub fn new() -> Self {
        MemLog::default()
    }

    /// An empty log that will crash the writer according to `fuse`.
    pub fn with_fuse(fuse: CrashFuse) -> Self {
        MemLog {
            fuse: Some(fuse),
            ..MemLog::default()
        }
    }

    /// Bytes persisted so far (torn tail included).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been persisted.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl LogBackend for MemLog {
    fn append(&mut self, frame: &[u8]) -> Result<(), WalError> {
        if let Some(fuse) = self.fuse {
            if self.appends >= fuse.records_before_crash {
                let kept = fuse.torn_bytes.min(frame.len());
                self.buf.extend_from_slice(&frame[..kept]);
                self.fuse = None; // one-shot: the restarted coordinator lives
                return Err(WalError::Crashed);
            }
        }
        self.buf.extend_from_slice(frame);
        self.appends += 1;
        Ok(())
    }

    fn contents(&self) -> Result<Vec<u8>, WalError> {
        Ok(self.buf.clone())
    }

    fn truncate(&mut self, len: usize) -> Result<(), WalError> {
        self.buf.truncate(len);
        Ok(())
    }

    fn drop_prefix(&mut self, len: usize) -> Result<(), WalError> {
        if len > self.buf.len() {
            return Err(WalError::Backend(format!(
                "drop_prefix past end: {len} > {}",
                self.buf.len()
            )));
        }
        self.buf.drain(..len);
        Ok(())
    }
}

/// Where a checkpointed object lives — the serializable twin of the store's
/// internal placement entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointPlacement {
    /// Individually erasure-coded; the bytes are on the nodes.
    Whole,
    /// Packed into a coding group at the given span.
    Grouped {
        /// The owning group.
        group: GroupId,
        /// The object's span within the group block.
        span: ObjSpan,
    },
}

/// One coding group's logical state inside a [`WalRecord::Checkpoint`].
///
/// Sealed groups carry **no block bytes** — their data is erasure-coded on
/// the nodes and a checkpoint must never duplicate node symbol payloads.
/// Open groups carry their buffered block, which exists nowhere but
/// coordinator memory and the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSnapshot {
    /// The group id.
    pub group: GroupId,
    /// Whether the group has been encoded onto the nodes.
    pub sealed: bool,
    /// Bytes packed into the block (live + tombstoned).
    pub packed_len: usize,
    /// Live (non-tombstoned) bytes.
    pub live_bytes: usize,
    /// Live member count.
    pub live_objects: usize,
    /// The buffered block for open groups; empty for sealed groups.
    pub data: Vec<u8>,
}

/// The coordinator's full logical state at one instant: what a
/// [`WalRecord::Checkpoint`] carries so replay can restore it and redo only
/// the log suffix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointState {
    /// The next group id the store would allocate.
    pub next_group_id: GroupId,
    /// The currently open group, if any.
    pub open_group: Option<GroupId>,
    /// Every known object and its placement, sorted by name (deterministic
    /// encoding — equal states checkpoint to equal bytes).
    pub objects: Vec<(String, CheckpointPlacement)>,
    /// Every known group, sorted by id.
    pub groups: Vec<GroupSnapshot>,
}

impl CheckpointState {
    /// Serialize the state fields (everything the embedded checksum covers).
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.write_u64(self.next_group_id);
        out.write_u64(self.open_group.unwrap_or(u64::MAX));
        out.write_list(&self.objects, |out, (name, placement)| {
            out.write_str(name);
            match placement {
                CheckpointPlacement::Whole => out.push(0),
                CheckpointPlacement::Grouped { group, span } => {
                    out.push(1);
                    out.write_u64(*group);
                    out.write_usize(span.offset);
                    out.write_usize(span.len);
                }
            }
        });
        out.write_list(&self.groups, |out, g| {
            out.write_u64(g.group);
            out.push(g.sealed as u8);
            out.write_usize(g.packed_len);
            out.write_usize(g.live_bytes);
            out.write_usize(g.live_objects);
            out.write_bytes(&g.data);
        });
    }

    fn decode_body(c: &mut FieldReader<'_>) -> Option<CheckpointState> {
        Some(CheckpointState {
            next_group_id: c.u64()?,
            open_group: Some(c.u64()?).filter(|&g| g != u64::MAX),
            objects: c.list(|c| {
                let name = c.str()?;
                let placement = match c.u8()? {
                    0 => CheckpointPlacement::Whole,
                    1 => CheckpointPlacement::Grouped {
                        group: c.u64()?,
                        span: ObjSpan {
                            offset: c.usize()?,
                            len: c.usize()?,
                        },
                    },
                    _ => return None,
                };
                Some((name, placement))
            })?,
            groups: c.list(|c| {
                Some(GroupSnapshot {
                    group: c.u64()?,
                    sealed: match c.u8()? {
                        0 => false,
                        1 => true,
                        _ => return None,
                    },
                    packed_len: c.usize()?,
                    live_bytes: c.usize()?,
                    live_objects: c.usize()?,
                    data: c.bytes()?,
                })
            })?,
        })
    }
}

/// One logged mutation. See the module docs for the byte format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// An individually erasure-coded object was (over)written. The bytes are
    /// durable on the nodes the moment the store call returns, so the record
    /// carries only the name; replay uses the surviving node symbols.
    StoreWhole {
        /// Object id.
        object: String,
    },
    /// A small object was appended to the open coding group. Until the group
    /// seals these bytes exist only in coordinator memory, so the record
    /// carries them.
    StoreGrouped {
        /// Object id.
        object: String,
        /// The open group receiving the append.
        group: GroupId,
        /// The object's bytes.
        bytes: Vec<u8>,
    },
    /// An object was deleted (whole objects drop their symbols, grouped
    /// objects tombstone their span).
    Delete {
        /// Object id.
        object: String,
    },
    /// Group `group` was encoded and its symbols installed on every node.
    /// Logged *after* the install succeeds: losing the record merely makes
    /// recovery re-seal the group; logging it early could claim durability
    /// that never happened.
    Seal {
        /// The sealed group.
        group: GroupId,
    },
    /// A compaction pass is about to rewrite `group`: the live members are
    /// re-stored (each move appears as its own store record) and the group
    /// drops once the last member leaves.
    Compact {
        /// The group being rewritten.
        group: GroupId,
    },
    /// A sealed coding group was transferred **in** from another coordinator
    /// shard (phase 1 of a cluster handover). The record carries the
    /// repacked block and the member table so replay can rebuild the group
    /// without reaching the exporting shard. Logged **after** the symbols
    /// are installed, like [`WalRecord::Seal`]: a quorum-failed import must
    /// never be resurrected by replay.
    GroupImport {
        /// The importing store's id for the group.
        group: GroupId,
        /// Live members and their spans within `bytes`.
        members: Vec<(String, ObjSpan)>,
        /// The repacked (live-members-only, unpadded) block.
        bytes: Vec<u8>,
    },
    /// This coordinator ceded ownership of sealed group `group` to another
    /// shard (cutover, phase 2 of a handover). Logged **before** the local
    /// copy is dropped — redo semantics finish an interrupted eviction,
    /// which is safe because an eviction is only logged once the receiving
    /// shard's import is durable.
    GroupEvict {
        /// The group being dropped.
        group: GroupId,
    },
    /// A snapshot of the coordinator's full logical state. Replay restores
    /// the newest restorable checkpoint and redoes only the records after
    /// it; everything before the *previous* checkpoint is dropped from the
    /// log once this record is durable.
    Checkpoint {
        /// The snapshotted state.
        state: CheckpointState,
        /// Decode-side: whether the embedded state checksum matched. A
        /// mismatch means the checkpoint body rotted (or a buggy writer) —
        /// recovery must fall back to the previous checkpoint rather than
        /// trust this one. Always `true` for records this process built.
        state_crc_ok: bool,
    },
}

/// A borrowed view of one mutation, for the logging hot path: the store
/// serializes straight from its call parameters into the reusable frame
/// buffer, so a logged store allocates nothing and copies the payload
/// once (into the frame; the backend's own persist copy is the point).
/// [`WalRecord`] is the owned twin that [`RecordLog::replay`] returns.
#[derive(Debug, Clone, Copy)]
pub enum RecordView<'a> {
    /// See [`WalRecord::StoreWhole`].
    StoreWhole {
        /// Object id.
        object: &'a str,
    },
    /// See [`WalRecord::StoreGrouped`].
    StoreGrouped {
        /// Object id.
        object: &'a str,
        /// The open group receiving the append.
        group: GroupId,
        /// The object's bytes.
        bytes: &'a [u8],
    },
    /// See [`WalRecord::Delete`].
    Delete {
        /// Object id.
        object: &'a str,
    },
    /// See [`WalRecord::Seal`].
    Seal {
        /// The sealed group.
        group: GroupId,
    },
    /// See [`WalRecord::Compact`].
    Compact {
        /// The group being rewritten.
        group: GroupId,
    },
    /// See [`WalRecord::GroupImport`].
    GroupImport {
        /// The importing store's id for the group.
        group: GroupId,
        /// Live members and their spans within `bytes`.
        members: &'a [(String, ObjSpan)],
        /// The repacked block.
        bytes: &'a [u8],
    },
    /// See [`WalRecord::GroupEvict`].
    GroupEvict {
        /// The group being dropped.
        group: GroupId,
    },
    /// See [`WalRecord::Checkpoint`].
    Checkpoint {
        /// The snapshotted state.
        state: &'a CheckpointState,
    },
}

const TAG_STORE_WHOLE: u8 = 1;
const TAG_STORE_GROUPED: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_SEAL: u8 = 4;
const TAG_COMPACT: u8 = 5;
const TAG_GROUP_IMPORT: u8 = 6;
const TAG_GROUP_EVICT: u8 = 7;
const TAG_CHECKPOINT: u8 = 8;

/// The writing half of the shared record codec, on the frame buffer
/// itself: little-endian fixed-width integers, and `u32`-length-prefixed
/// byte strings and lists. [`FieldReader`] reads the same layout back.
pub trait FieldWriter {
    /// Append a `u64`.
    fn write_u64(&mut self, v: u64);
    /// Append a size or index as a `u64`.
    fn write_usize(&mut self, v: usize);
    /// Append `b`, prefixed with its length.
    fn write_bytes(&mut self, b: &[u8]);
    /// Append `s` as length-prefixed UTF-8.
    fn write_str(&mut self, s: &str);
    /// Append the item count, then each item through `item`.
    fn write_list<T>(&mut self, items: &[T], item: impl FnMut(&mut Self, &T));
}

impl FieldWriter for Vec<u8> {
    fn write_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(&(b.len() as u32).to_le_bytes());
        self.extend_from_slice(b);
    }

    fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    fn write_list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.extend_from_slice(&(items.len() as u32).to_le_bytes());
        for x in items {
            item(self, x);
        }
    }
}

/// Sequential reader over one record payload, the reading half of
/// [`FieldWriter`]. Every getter returns `None` on underrun, so a damaged
/// payload surfaces as a decode failure, never a panic.
#[derive(Debug)]
pub struct FieldReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FieldReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        FieldReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// The unread bytes.
    fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Read a size or index written as a `u64`; `None` if it does not fit.
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        Some(self.take(len)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
    }

    /// Read a count, then that many items through `item`.
    pub fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let count = self.u32()? as usize;
        // Every item is at least one byte, so the unread bytes bound what
        // a damaged count can make this allocate.
        let mut items = Vec::with_capacity(count.min(self.rest().len()));
        for _ in 0..count {
            items.push(item(self)?);
        }
        Some(items)
    }
}

/// A record type a [`RecordLog`] frames and replays. Each implementation
/// owns its tag byte space and field layout; the log owns everything else
/// (see the module docs).
pub trait LogRecord: Sized {
    /// The borrowed form an append serializes from, so a hot path can log
    /// straight from its call parameters.
    type View<'a>: Copy
    where
        Self: 'a;

    /// The view of an owned record.
    fn view(&self) -> Self::View<'_>;

    /// Serialize one payload, tag byte first, onto `out`.
    fn encode(view: Self::View<'_>, out: &mut Vec<u8>);

    /// Read one record's tag and fields; `None` if they are not valid.
    fn decode(fields: &mut FieldReader<'_>) -> Option<Self>;

    /// True for a checkpoint: a full-state snapshot replay can restart
    /// from. The log keeps the newest two.
    fn is_checkpoint(view: Self::View<'_>) -> bool;

    /// Decode a whole payload: `None` unless it is exactly one valid
    /// record.
    fn from_payload(payload: &[u8]) -> Option<Self> {
        let mut fields = FieldReader::new(payload);
        let record = Self::decode(&mut fields)?;
        fields.rest().is_empty().then_some(record)
    }
}

impl LogRecord for WalRecord {
    type View<'a> = RecordView<'a>;

    fn view(&self) -> RecordView<'_> {
        match self {
            WalRecord::StoreWhole { object } => RecordView::StoreWhole { object },
            WalRecord::StoreGrouped {
                object,
                group,
                bytes,
            } => RecordView::StoreGrouped {
                object,
                group: *group,
                bytes,
            },
            WalRecord::Delete { object } => RecordView::Delete { object },
            WalRecord::Seal { group } => RecordView::Seal { group: *group },
            WalRecord::Compact { group } => RecordView::Compact { group: *group },
            WalRecord::GroupImport {
                group,
                members,
                bytes,
            } => RecordView::GroupImport {
                group: *group,
                members,
                bytes,
            },
            WalRecord::GroupEvict { group } => RecordView::GroupEvict { group: *group },
            WalRecord::Checkpoint { state, .. } => RecordView::Checkpoint { state },
        }
    }

    fn encode(view: RecordView<'_>, out: &mut Vec<u8>) {
        match view {
            RecordView::StoreWhole { object } => {
                out.push(TAG_STORE_WHOLE);
                out.write_str(object);
            }
            RecordView::StoreGrouped {
                object,
                group,
                bytes,
            } => {
                out.push(TAG_STORE_GROUPED);
                out.write_str(object);
                out.write_u64(group);
                out.write_bytes(bytes);
            }
            RecordView::Delete { object } => {
                out.push(TAG_DELETE);
                out.write_str(object);
            }
            RecordView::Seal { group } => {
                out.push(TAG_SEAL);
                out.write_u64(group);
            }
            RecordView::Compact { group } => {
                out.push(TAG_COMPACT);
                out.write_u64(group);
            }
            RecordView::GroupImport {
                group,
                members,
                bytes,
            } => {
                out.push(TAG_GROUP_IMPORT);
                out.write_u64(group);
                out.write_list(members, |out, (name, span)| {
                    out.write_str(name);
                    out.write_usize(span.offset);
                    out.write_usize(span.len);
                });
                out.write_bytes(bytes);
            }
            RecordView::GroupEvict { group } => {
                out.push(TAG_GROUP_EVICT);
                out.write_u64(group);
            }
            RecordView::Checkpoint { state } => {
                out.push(TAG_CHECKPOINT);
                // Reserve the state-checksum slot, encode the body after
                // it, then patch the checksum in — no temporary buffer.
                let crc_at = out.len();
                out.extend_from_slice(&[0u8; 4]);
                state.encode_body(out);
                let crc = crc32(&out[crc_at + 4..]);
                out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
            }
        }
    }

    fn decode(c: &mut FieldReader<'_>) -> Option<WalRecord> {
        Some(match c.u8()? {
            TAG_STORE_WHOLE => WalRecord::StoreWhole { object: c.str()? },
            TAG_STORE_GROUPED => WalRecord::StoreGrouped {
                object: c.str()?,
                group: c.u64()?,
                bytes: c.bytes()?,
            },
            TAG_DELETE => WalRecord::Delete { object: c.str()? },
            TAG_SEAL => WalRecord::Seal { group: c.u64()? },
            TAG_COMPACT => WalRecord::Compact { group: c.u64()? },
            TAG_GROUP_IMPORT => WalRecord::GroupImport {
                group: c.u64()?,
                members: c.list(|c| {
                    let name = c.str()?;
                    let span = ObjSpan {
                        offset: c.usize()?,
                        len: c.usize()?,
                    };
                    Some((name, span))
                })?,
                bytes: c.bytes()?,
            },
            TAG_GROUP_EVICT => WalRecord::GroupEvict { group: c.u64()? },
            TAG_CHECKPOINT => {
                let declared = c.u32()?;
                let computed = crc32(c.rest());
                WalRecord::Checkpoint {
                    state: CheckpointState::decode_body(c)?,
                    state_crc_ok: declared == computed,
                }
            }
            _ => return None,
        })
    }

    fn is_checkpoint(view: RecordView<'_>) -> bool {
        matches!(view, RecordView::Checkpoint { .. })
    }
}

/// IEEE CRC-32 lookup table, built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            j += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Frame header bytes: payload length, header CRC, payload CRC.
const HEADER_LEN: usize = 12;

/// IEEE CRC-32 of `bytes` (the checksum guarding each log frame).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Patch the frame header (payload length + header CRC + payload CRC) into
/// a buffer whose first [`HEADER_LEN`] bytes were reserved and whose
/// payload follows them. Shared by the record hot path (which serializes
/// in place) and [`write_frame`].
fn seal_frame(frame: &mut [u8]) {
    let payload_len = ((frame.len() - HEADER_LEN) as u32).to_le_bytes();
    let header_crc = crc32(&payload_len);
    let payload_crc = crc32(&frame[HEADER_LEN..]);
    frame[0..4].copy_from_slice(&payload_len);
    frame[4..8].copy_from_slice(&header_crc.to_le_bytes());
    frame[8..12].copy_from_slice(&payload_crc.to_le_bytes());
}

/// Frame one opaque payload onto `out` in the log's checksummed frame
/// format (`[len][crc32(len)][crc32(payload)][payload]`) — what
/// [`RecordLog`] writes for each record, for callers that frame bytes
/// without a log.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&[0u8; HEADER_LEN]);
    out.extend_from_slice(payload);
    seal_frame(&mut out[start..]);
}

/// The frame-layer view of a log buffer: which byte ranges hold
/// checksum-valid payloads, before any record decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// `(frame start offset, payload byte range)` per checksum-valid
    /// frame, in log order.
    pub frames: Vec<(usize, std::ops::Range<usize>)>,
    /// True if the buffer ended in a partial frame.
    pub torn_tail: bool,
    /// Bytes consumed by the complete frames (the torn tail, if any,
    /// starts here).
    pub bytes_scanned: usize,
}

/// Walk a raw log buffer frame by frame, separating torn tails from
/// corruption exactly as [`WriteAheadLog::replay`] does: an incomplete
/// final frame (short header, short payload, or a checksum-failed *final*
/// payload) is a tolerated torn tail; a bad header checksum or a damaged
/// payload with more bytes after it is [`WalError::Corrupt`]. Record
/// decoding is the caller's layer — a checksum-valid payload that fails to
/// decode must be treated as corruption, never silently dropped.
pub fn scan_frames(buf: &[u8]) -> Result<FrameScan, WalError> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        if buf.len() - pos < HEADER_LEN {
            // Incomplete header: torn mid-write.
            return Ok(FrameScan {
                frames,
                torn_tail: true,
                bytes_scanned: pos,
            });
        }
        let len_bytes: [u8; 4] = buf[pos..pos + 4].try_into().expect("4 bytes");
        let header_crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let payload_crc = u32::from_le_bytes(buf[pos + 8..pos + 12].try_into().expect("4 bytes"));
        if crc32(&len_bytes) != header_crc {
            // Any prefix of a real frame that covers the header covers it
            // *completely and validly* — a bad header checksum is damage,
            // not a torn write, wherever it sits.
            return Err(WalError::Corrupt { offset: pos });
        }
        let frame_end = pos + HEADER_LEN + u32::from_le_bytes(len_bytes) as usize;
        if frame_end > buf.len() {
            // Trustworthy length, short payload: torn mid-write.
            return Ok(FrameScan {
                frames,
                torn_tail: true,
                bytes_scanned: pos,
            });
        }
        if crc32(&buf[pos + HEADER_LEN..frame_end]) != payload_crc {
            if frame_end == buf.len() {
                // Checksum-failed final payload: indistinguishable from a
                // torn write on a backend that preallocates — tolerated.
                return Ok(FrameScan {
                    frames,
                    torn_tail: true,
                    bytes_scanned: pos,
                });
            }
            return Err(WalError::Corrupt { offset: pos });
        }
        frames.push((pos, pos + HEADER_LEN..frame_end));
        pos = frame_end;
    }
    Ok(FrameScan {
        frames,
        torn_tail: false,
        bytes_scanned: pos,
    })
}

/// The result of replaying a log: the decodable records plus whether the
/// tail was torn (a final frame truncated mid-write — tolerated, the log is
/// simply shorter than the writer hoped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay<R = WalRecord> {
    /// Every complete, checksum-valid record in log order.
    pub records: Vec<R>,
    /// Byte offset of each record's frame start, parallel to `records`.
    pub offsets: Vec<usize>,
    /// True if the log ended in a partial frame.
    pub torn_tail: bool,
    /// Bytes consumed by the complete records (the torn tail, if any,
    /// starts here).
    pub bytes_replayed: usize,
}

impl<R: LogRecord> Replay<R> {
    /// Index of the newest checkpoint record, if any.
    pub fn newest_checkpoint(&self) -> Option<usize> {
        self.records
            .iter()
            .rposition(|r| R::is_checkpoint(r.view()))
    }
}

/// Where a checkpoint record sits in the live log.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Byte offset of the checkpoint's frame.
    offset: u64,
    /// Records in the log before it.
    index: u64,
}

/// A write-ahead log of [`LogRecord`]s on a [`LogBackend`]: frames appends,
/// replays them back tolerating a torn tail, and keeps two checkpoints.
#[derive(Debug)]
pub struct RecordLog<R> {
    backend: Box<dyn LogBackend>,
    /// Records in the log: incremented per append, reduced by prefix
    /// drops, and restored from the replay scan by [`RecordLog::resume`],
    /// so a torn tail is never counted.
    records_appended: u64,
    /// Frame bytes in the log, kept like `records_appended`. Doubles as
    /// the known-good rollback boundary after a failed append.
    bytes_appended: u64,
    /// Reusable frame buffer: steady-state appends allocate nothing.
    frame: Vec<u8>,
    /// Set when a failed append could not be rolled back (truncate also
    /// failed): the log may end in a partial frame with a *live* writer,
    /// so further appends would land behind garbage and be unrecoverable.
    poisoned: bool,
    /// The newest durable checkpoint.
    checkpoint: Option<Mark>,
    /// The checkpoint before it, once a newer one is durable: everything
    /// in front of it is dead weight for `drop_superseded`.
    superseded: Option<Mark>,
    /// Records appended after the newest checkpoint.
    since_checkpoint: u64,
    record: PhantomData<fn() -> R>,
}

/// The shard coordinator's write-ahead log.
pub type WriteAheadLog = RecordLog<WalRecord>;

impl<R: LogRecord> RecordLog<R> {
    /// A log over the given backend. `bytes_appended` starts at the
    /// backend's current length, so the append-failure rollback never cuts
    /// below pre-existing content; the record count and checkpoint marks
    /// cannot be known without a replay (see [`RecordLog::resume`]).
    pub fn new(backend: Box<dyn LogBackend>) -> Self {
        let base = backend.contents().map(|b| b.len() as u64).unwrap_or(0);
        RecordLog {
            backend,
            records_appended: 0,
            bytes_appended: base,
            frame: Vec::new(),
            poisoned: false,
            checkpoint: None,
            superseded: None,
            since_checkpoint: 0,
            record: PhantomData,
        }
    }

    /// A log over a fresh [`MemLog`].
    pub fn in_memory() -> Self {
        Self::new(Box::<MemLog>::default())
    }

    /// Records in the log.
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Frame bytes in the log.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Records appended after the newest checkpoint — what a caller's
    /// checkpoint cadence counts.
    pub fn since_checkpoint(&self) -> u64 {
        self.since_checkpoint
    }

    /// The raw persisted bytes (tests use this to aim torn-tail cuts at
    /// exact frame offsets).
    pub fn contents(&self) -> Result<Vec<u8>, WalError> {
        self.backend.contents()
    }

    /// Force every accepted frame to durable storage (group commit).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.backend.sync()
    }

    /// Bytes accepted but not yet durable on the backend.
    pub fn pending_bytes(&self) -> usize {
        self.backend.pending_bytes()
    }

    /// Advance the backend's virtual clock (interval fsync policies).
    pub fn advance_clock(&mut self, by: SimDuration) -> Result<(), WalError> {
        self.backend.advance_clock(by)
    }

    /// Tell the backend the writer process died (drops user-space pending
    /// buffers; OS-durable bytes survive).
    pub(crate) fn on_writer_crash(&mut self) {
        self.backend.on_writer_crash();
    }

    /// Drop the first `len` bytes / `records` records of the log and adjust
    /// the counters to match — they count what is *in* the log, not what
    /// was ever written.
    pub(crate) fn drop_prefix(&mut self, len: usize, records: u64) -> Result<(), WalError> {
        debug_assert!(len as u64 <= self.bytes_appended);
        debug_assert!(records <= self.records_appended);
        self.backend.drop_prefix(len)?;
        self.bytes_appended = self.bytes_appended.saturating_sub(len as u64);
        self.records_appended = self.records_appended.saturating_sub(records);
        Ok(())
    }

    /// Frame and persist one record. A checkpoint is synced, then the
    /// prefix in front of the previous checkpoint is dropped.
    pub fn append(&mut self, record: &R) -> Result<(), WalError> {
        self.append_view(record.view())?;
        self.drop_superseded().map(|_| ())
    }

    /// Frame and persist one borrowed record. A checkpoint is synced before
    /// this returns — the snapshot must be durable before anything it
    /// summarises is dropped — and the prefix it supersedes stays until
    /// `drop_superseded`, so a caller can act between the two.
    pub(crate) fn append_view(&mut self, view: R::View<'_>) -> Result<(), WalError> {
        self.frame.clear();
        self.frame.extend_from_slice(&[0u8; HEADER_LEN]); // patched below
        R::encode(view, &mut self.frame);
        seal_frame(&mut self.frame);
        if self.poisoned {
            return Err(WalError::Backend(
                "log poisoned by an unrollable append failure".to_string(),
            ));
        }
        let at = Mark {
            offset: self.bytes_appended,
            index: self.records_appended,
        };
        match self.backend.append(&self.frame) {
            Ok(()) => {
                self.records_appended += 1;
                self.bytes_appended += self.frame.len() as u64;
            }
            // The writer is dead; the torn tail is the durable truth and
            // recovery is the one who cuts it.
            Err(WalError::Crashed) => return Err(WalError::Crashed),
            // A *living* writer whose append failed (e.g. a full disk on a
            // file backend) may have left a partial frame; cut back to the
            // last good boundary so later appends stay replayable, and
            // poison the handle if even that fails.
            Err(e) => {
                if self.backend.truncate(self.bytes_appended as usize).is_err() {
                    self.poisoned = true;
                }
                return Err(e);
            }
        }
        if !R::is_checkpoint(view) {
            self.since_checkpoint += 1;
            return Ok(());
        }
        self.backend.sync()?;
        self.superseded = self.checkpoint.replace(at);
        self.since_checkpoint = 0;
        Ok(())
    }

    /// Two-checkpoint retention: once a newer checkpoint is durable, drop
    /// everything in front of the one before it. If the newest later proves
    /// unreadable (torn, or rotted on disk), recovery falls back to the
    /// previous one and redoes the records in between, which are still
    /// here. Returns the records and bytes dropped; `(0, 0)` when there is
    /// nothing to drop.
    pub(crate) fn drop_superseded(&mut self) -> Result<(u64, u64), WalError> {
        let Some(old) = self.superseded.take() else {
            return Ok((0, 0));
        };
        self.drop_prefix(old.offset as usize, old.index)?;
        if let Some(newest) = &mut self.checkpoint {
            newest.offset -= old.offset;
            newest.index -= old.index;
        }
        Ok((old.index, old.offset))
    }

    /// Decode every complete record, stopping cleanly at a torn tail.
    ///
    /// Torn tail vs corruption: a torn write persists a *prefix* of the
    /// true frame, so an incomplete header, or a valid header whose
    /// payload runs past the end of the log, or a damaged **final**
    /// payload all read as torn tails. A header whose own checksum fails,
    /// or a damaged payload with more bytes after it, cannot be a torn
    /// write and fails with [`WalError::Corrupt`] — in particular a
    /// corrupted length field is caught by the header CRC instead of
    /// silently truncating the replay at that point.
    pub fn replay(&self) -> Result<Replay<R>, WalError> {
        let buf = self.backend.contents()?;
        let scan = scan_frames(&buf)?;
        let mut records = Vec::with_capacity(scan.frames.len());
        let mut offsets = Vec::with_capacity(scan.frames.len());
        for (offset, payload) in &scan.frames {
            // A checksum-VALID payload that fails to decode can never be a
            // torn write (short payloads are torn tails at the frame
            // layer), so decode failure is corruption even at the tail —
            // silently truncating a durable, checksummed record would be
            // data loss.
            let record = R::from_payload(&buf[payload.clone()])
                .ok_or(WalError::Corrupt { offset: *offset })?;
            records.push(record);
            offsets.push(*offset);
        }
        Ok(Replay {
            records,
            offsets,
            torn_tail: scan.torn_tail,
            bytes_replayed: scan.bytes_scanned,
        })
    }

    /// Take up appending where `replay` left off, once recovery has rebuilt
    /// its state from it: cut the torn tail (the orphan partial frame would
    /// otherwise sit in front of new appends and turn the *next* replay
    /// into a mid-log corruption error), restore the counters from the
    /// scan, and anchor retention at record `restored`, the checkpoint
    /// recovery restarted from (`None`: it redid the whole log).
    pub fn resume(&mut self, replay: &Replay<R>, restored: Option<usize>) -> Result<(), WalError> {
        if replay.torn_tail {
            self.backend.truncate(replay.bytes_replayed)?;
        }
        self.records_appended = replay.records.len() as u64;
        self.bytes_appended = replay.bytes_replayed as u64;
        self.checkpoint = restored.map(|i| Mark {
            offset: replay.offsets[i] as u64,
            index: i as u64,
        });
        self.superseded = None;
        self.since_checkpoint = (replay.records.len() - restored.map_or(0, |i| i + 1)) as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::StoreGrouped {
                object: "a".into(),
                group: 0,
                bytes: vec![1, 2, 3],
            },
            WalRecord::StoreWhole {
                object: "big".into(),
            },
            WalRecord::Seal { group: 0 },
            WalRecord::Delete { object: "a".into() },
            WalRecord::Compact { group: 0 },
            WalRecord::StoreGrouped {
                object: "empty".into(),
                group: 1,
                bytes: Vec::new(),
            },
            WalRecord::Checkpoint {
                state: CheckpointState {
                    next_group_id: 2,
                    open_group: Some(1),
                    objects: vec![
                        (
                            "a".into(),
                            CheckpointPlacement::Grouped {
                                group: 0,
                                span: ObjSpan { offset: 0, len: 3 },
                            },
                        ),
                        ("big".into(), CheckpointPlacement::Whole),
                    ],
                    groups: vec![
                        GroupSnapshot {
                            group: 0,
                            sealed: true,
                            packed_len: 3,
                            live_bytes: 3,
                            live_objects: 1,
                            data: Vec::new(),
                        },
                        GroupSnapshot {
                            group: 1,
                            sealed: false,
                            packed_len: 2,
                            live_bytes: 2,
                            live_objects: 1,
                            data: vec![9, 9],
                        },
                    ],
                },
                state_crc_ok: true,
            },
        ]
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_frames() {
        let mut wal = WriteAheadLog::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, sample_records());
        assert!(!replay.torn_tail);
        assert_eq!(replay.bytes_replayed as u64, wal.bytes_appended());
        assert_eq!(wal.records_appended(), 7);
        // Offsets are frame starts: first at 0, strictly increasing, last
        // short of the replayed byte count.
        assert_eq!(replay.offsets.len(), replay.records.len());
        assert_eq!(replay.offsets[0], 0);
        assert!(replay.offsets.windows(2).all(|w| w[0] < w[1]));
        assert!(*replay.offsets.last().unwrap() < replay.bytes_replayed);
    }

    #[test]
    fn empty_log_replays_to_nothing() {
        let wal = WriteAheadLog::in_memory();
        let replay = wal.replay().unwrap();
        assert!(replay.records.is_empty());
        assert!(!replay.torn_tail);
    }

    /// Cutting the log at **every** byte offset must replay cleanly to the
    /// records whose frames are complete — the torn-tail contract.
    #[test]
    fn torn_tail_at_every_byte_offset_replays_the_complete_prefix() {
        let mut wal = WriteAheadLog::in_memory();
        let mut boundaries = vec![0usize];
        for r in sample_records() {
            wal.append(&r).unwrap();
            boundaries.push(wal.bytes_appended() as usize);
        }
        let full = wal.contents().unwrap();
        for cut in 0..=full.len() {
            let mut backend = MemLog::new();
            backend.append(&full[..cut]).unwrap();
            let replay = WriteAheadLog::new(Box::new(backend)).replay().unwrap();
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replay.records.len(), complete, "cut at byte {cut}");
            assert_eq!(replay.records, sample_records()[..complete].to_vec());
            assert_eq!(replay.torn_tail, !boundaries.contains(&cut), "cut {cut}");
        }
    }

    #[test]
    fn mid_log_damage_is_corruption_not_a_torn_tail() {
        let mut wal = WriteAheadLog::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let mut bytes = wal.contents().unwrap();
        // Flip one payload byte of the first frame: its checksum fails while
        // later frames are intact, so this cannot be a torn write.
        bytes[HEADER_LEN + 1] ^= 0xFF;
        let mut backend = MemLog::new();
        backend.append(&bytes).unwrap();
        assert_eq!(
            WriteAheadLog::new(Box::new(backend)).replay(),
            Err(WalError::Corrupt { offset: 0 })
        );
    }

    #[test]
    fn damage_to_the_final_frame_is_tolerated_as_a_torn_tail() {
        let mut wal = WriteAheadLog::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let mut bytes = wal.contents().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut backend = MemLog::new();
        backend.append(&bytes).unwrap();
        let replay = WriteAheadLog::new(Box::new(backend)).replay().unwrap();
        assert_eq!(replay.records.len(), sample_records().len() - 1);
        assert!(replay.torn_tail);
    }

    #[test]
    fn the_crash_fuse_is_one_shot_and_respects_torn_bytes() {
        // Boundary crash: nothing of the third frame lands.
        let mut wal = WriteAheadLog::new(Box::new(MemLog::with_fuse(CrashFuse {
            records_before_crash: 2,
            torn_bytes: 0,
        })));
        let records = sample_records();
        wal.append(&records[0]).unwrap();
        wal.append(&records[1]).unwrap();
        assert_eq!(wal.append(&records[2]), Err(WalError::Crashed));
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, records[..2].to_vec());
        assert!(!replay.torn_tail, "boundary crash leaves no torn bytes");
        // One-shot: the restarted coordinator appends normally.
        wal.append(&records[2]).unwrap();
        assert_eq!(wal.replay().unwrap().records, records[..3].to_vec());

        // Torn crash: a prefix of the frame lands and replay skips it.
        let mut wal = WriteAheadLog::new(Box::new(MemLog::with_fuse(CrashFuse {
            records_before_crash: 1,
            torn_bytes: 5,
        })));
        wal.append(&records[0]).unwrap();
        assert_eq!(wal.append(&records[1]), Err(WalError::Crashed));
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, records[..1].to_vec());
        assert!(replay.torn_tail);

        // Fully-durable crash: the frame lands, only the writer dies.
        let mut wal = WriteAheadLog::new(Box::new(MemLog::with_fuse(CrashFuse {
            records_before_crash: 1,
            torn_bytes: usize::MAX,
        })));
        wal.append(&records[0]).unwrap();
        assert_eq!(wal.append(&records[1]), Err(WalError::Crashed));
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, records[..2].to_vec());
        assert!(!replay.torn_tail);
    }

    /// Corrupt the length field of a mid-log frame: without the header
    /// CRC this would read as a torn tail and silently drop every record
    /// after it; with it, replay reports corruption at the damaged frame.
    #[test]
    fn corrupted_length_field_is_corruption_not_a_torn_tail() {
        let mut wal = WriteAheadLog::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let first_frame = {
            let mut w = WriteAheadLog::in_memory();
            w.append(&sample_records()[0]).unwrap();
            w.bytes_appended() as usize
        };
        for damaged in [0usize, first_frame] {
            let mut bytes = wal.contents().unwrap();
            bytes[damaged + 1] ^= 0x40; // inflate the length field
            let mut backend = MemLog::new();
            backend.append(&bytes).unwrap();
            assert_eq!(
                WriteAheadLog::new(Box::new(backend)).replay(),
                Err(WalError::Corrupt { offset: damaged }),
                "length damage at frame offset {damaged}"
            );
        }
    }

    #[test]
    fn truncating_a_torn_tail_makes_the_log_safely_appendable_again() {
        let records = sample_records();
        let mut wal = WriteAheadLog::new(Box::new(MemLog::with_fuse(CrashFuse {
            records_before_crash: 2,
            torn_bytes: 9,
        })));
        wal.append(&records[0]).unwrap();
        wal.append(&records[1]).unwrap();
        assert_eq!(wal.append(&records[2]), Err(WalError::Crashed));
        let replay = wal.replay().unwrap();
        assert!(replay.torn_tail);
        // Without the cut, this append would sit behind 9 orphan bytes and
        // the next replay would report mid-log corruption.
        wal.resume(&replay, None).unwrap();
        assert_eq!(wal.records_appended(), 2);
        assert_eq!(wal.since_checkpoint(), 2);
        wal.append(&records[3]).unwrap();
        let replay = wal.replay().unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(
            replay.records,
            vec![records[0].clone(), records[1].clone(), records[3].clone()]
        );
    }

    /// A backend that fails one append with a *transient* error after
    /// persisting a partial frame — the living-writer failure mode (e.g. a
    /// full disk), as opposed to [`CrashFuse`]'s writer-death.
    #[derive(Debug, Default)]
    struct FlakyBackend {
        inner: MemLog,
        fail_next_after_bytes: Option<usize>,
    }

    impl LogBackend for FlakyBackend {
        fn append(&mut self, frame: &[u8]) -> Result<(), WalError> {
            if let Some(partial) = self.fail_next_after_bytes.take() {
                self.inner
                    .append(&frame[..partial.min(frame.len())])
                    .unwrap();
                return Err(WalError::Backend("transient append failure".into()));
            }
            self.inner.append(frame)
        }
        fn contents(&self) -> Result<Vec<u8>, WalError> {
            self.inner.contents()
        }
        fn truncate(&mut self, len: usize) -> Result<(), WalError> {
            self.inner.truncate(len)
        }
    }

    #[test]
    fn a_failed_append_rolls_back_its_partial_frame() {
        // append 1 ok; append 2 fails after persisting 6 orphan bytes;
        // append 3 must not land behind the orphan bytes — the handle cuts
        // back to the last good boundary, keeping the log replayable.
        let records = sample_records();
        let mut wal = WriteAheadLog::new(Box::new(FlakyBackend {
            inner: MemLog::new(),
            fail_next_after_bytes: None,
        }));
        wal.append(&records[0]).unwrap();
        // Arm the failure for the next append (reach through the Box is
        // not possible; rebuild with the armed backend instead).
        let mut wal = WriteAheadLog::new(Box::new(FlakyBackend {
            inner: {
                let mut m = MemLog::new();
                m.append(&wal.contents().unwrap()).unwrap();
                m
            },
            fail_next_after_bytes: Some(6),
        }));
        assert!(matches!(wal.append(&records[1]), Err(WalError::Backend(_))));
        wal.append(&records[2]).unwrap();
        let replay = wal.replay().unwrap();
        assert!(!replay.torn_tail, "orphan bytes were rolled back");
        assert_eq!(replay.records, vec![records[0].clone(), records[2].clone()]);
    }

    #[test]
    fn a_checksum_valid_but_undecodable_final_frame_is_corruption() {
        // A torn write cannot produce a complete payload with a valid
        // payload CRC, so this can only be real damage (or version skew):
        // treating it as a torn tail would let recovery silently truncate
        // a durable, checksummed record.
        let payload = [42u8, 0, 0, 0]; // bogus tag, valid CRCs
        let len_bytes = (payload.len() as u32).to_le_bytes();
        let mut frame = Vec::new();
        frame.extend_from_slice(&len_bytes);
        frame.extend_from_slice(&crc32(&len_bytes).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut wal = WriteAheadLog::in_memory();
        wal.append(&sample_records()[0]).unwrap();
        let offset = wal.bytes_appended() as usize;
        let mut backend = MemLog::new();
        backend.append(&wal.contents().unwrap()).unwrap();
        backend.append(&frame).unwrap(); // the undecodable FINAL frame
        assert_eq!(
            WriteAheadLog::new(Box::new(backend)).replay(),
            Err(WalError::Corrupt { offset })
        );
    }

    #[test]
    fn checkpoint_with_a_rotted_body_decodes_with_crc_flag_false() {
        // Frame CRCs valid, embedded state checksum wrong: the record must
        // still *decode* (so replay can fall back to an earlier checkpoint)
        // but flag itself as unrestorable.
        let state = match &sample_records()[6] {
            WalRecord::Checkpoint { state, .. } => state.clone(),
            _ => unreachable!("sample 6 is the checkpoint"),
        };
        let mut payload = vec![TAG_CHECKPOINT];
        let crc_at = payload.len();
        payload.extend_from_slice(&[0u8; 4]);
        state.encode_body(&mut payload);
        let bad_crc = crc32(&payload[crc_at + 4..]) ^ 1;
        payload[crc_at..crc_at + 4].copy_from_slice(&bad_crc.to_le_bytes());
        let len_bytes = (payload.len() as u32).to_le_bytes();
        let mut frame = Vec::new();
        frame.extend_from_slice(&len_bytes);
        frame.extend_from_slice(&crc32(&len_bytes).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut backend = MemLog::new();
        backend.append(&frame).unwrap();
        let replay = WriteAheadLog::new(Box::new(backend)).replay().unwrap();
        assert_eq!(
            replay.records,
            vec![WalRecord::Checkpoint {
                state,
                state_crc_ok: false,
            }]
        );
        assert!(!replay.torn_tail);
    }

    #[test]
    fn drop_prefix_removes_records_and_keeps_live_counters_honest() {
        let records = sample_records();
        let mut wal = WriteAheadLog::in_memory();
        let mut boundaries = vec![0usize];
        for r in &records {
            wal.append(r).unwrap();
            boundaries.push(wal.bytes_appended() as usize);
        }
        let total_bytes = wal.bytes_appended();
        // Drop the first two frames: the log now *starts* at record 2.
        wal.drop_prefix(boundaries[2], 2).unwrap();
        assert_eq!(wal.records_appended(), records.len() as u64 - 2);
        assert_eq!(wal.bytes_appended(), total_bytes - boundaries[2] as u64);
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, records[2..].to_vec());
        assert!(!replay.torn_tail);
        // Appends keep working after the drop.
        wal.append(&records[0]).unwrap();
        assert_eq!(
            wal.replay().unwrap().records.last(),
            Some(&records[0]),
            "append after drop_prefix replays"
        );
    }

    #[test]
    fn mem_log_refuses_to_drop_past_its_end() {
        let mut log = MemLog::new();
        log.append(b"abc").unwrap();
        assert!(matches!(log.drop_prefix(4), Err(WalError::Backend(_))));
        log.drop_prefix(3).unwrap();
        assert!(log.is_empty());
    }

    #[test]
    fn undecodable_payload_with_a_valid_checksum_is_corruption() {
        // A frame whose payload has a bogus tag but correct CRCs, followed
        // by a valid frame: decode failure, not checksum failure.
        let payload = [42u8, 0, 0, 0];
        let len_bytes = (payload.len() as u32).to_le_bytes();
        let mut frame = Vec::new();
        frame.extend_from_slice(&len_bytes);
        frame.extend_from_slice(&crc32(&len_bytes).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut backend = MemLog::new();
        backend.append(&frame).unwrap();
        let mut wal = WriteAheadLog::new(Box::new(backend));
        wal.append(&WalRecord::Seal { group: 7 }).unwrap();
        assert_eq!(wal.replay(), Err(WalError::Corrupt { offset: 0 }));
    }
}
