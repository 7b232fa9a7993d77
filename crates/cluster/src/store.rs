//! The sharded store front-end: ring-routed requests, epoch stamping, and
//! two-phase group-granularity handover.
//!
//! A [`ClusterStore`] splits the object namespace across many
//! [`DistributedStore`] coordinators (**shards**). Placement is decided by
//! the committed view's consistent-hash ring; the authoritative location of
//! every object is tracked in a directory so that *sealed coding groups* —
//! not individual objects — can be the unit of rebalancing, exactly as they
//! are the unit of repair: moving a group costs one symbol per node no
//! matter how many small objects ride inside it.
//!
//! ## Epochs
//!
//! Every request carries the epoch its client believes in. A write stamped
//! with any other epoch is **rejected** with the current epoch (the client
//! must refresh its view — acking a write routed by a dead ring could place
//! it on a shard that just ceded the key). A read stamped with an old epoch
//! is **forwarded**: the directory knows where the bytes live now, the
//! read is served, and the forward is counted so an operator can see
//! clients lagging behind a view change.
//!
//! ## Handover (joint consensus, two phases)
//!
//! A view change from `V` to `V'` runs as:
//!
//! 1. **Prepare** ([`ClusterStore::begin_handover`] +
//!    [`ClusterStore::transfer_next`]): open groups are flushed so every
//!    moving unit is sealed; each unit whose placement key maps to a
//!    different shard under `V'` is exported from its old owner and
//!    imported by its new one (both logged in the respective shards' WALs).
//!    The old owner stays authoritative: reads hit it first and fall back
//!    to the new copy only when the old one cannot serve (**dual-serve**);
//!    writes land on the old owner *and* on the key's `V'` owner
//!    (**dual-logged**), so whichever view survives has the bytes.
//! 2. **Cutover** ([`ClusterStore::commit_handover`]): remaining transfers
//!    finish, old copies of moved units are evicted, the directory repoints,
//!    dual-written keys collapse onto their `V'` owner, and the epoch
//!    advances. [`ClusterStore::abort_handover`] is the mirror image — new
//!    copies are evicted and `V` stays authoritative — used when the
//!    transition is overtaken (e.g. the joining shard crashed mid-handover).
//!
//! A unit whose source shard is down at transfer time is skipped, stays
//! owned by its (possibly dead) shard, and reads of it report honest
//! unavailability until the shard returns — never wrong bytes.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use rain_codes::{build_code, CodeSpec};
use rain_obs::{span, Recorder, Registry, VirtualClock};
use rain_sim::{NodeId, SimDuration};
use rain_storage::wal::file::FileLog;
use rain_storage::wal::{MemLog, WalError, WriteAheadLog};
use rain_storage::{
    DistributedStore, GroupConfig, GroupId, RecoveryReport, RetrieveReport, SelectionPolicy,
    StorageError, SurvivingNodes,
};

use crate::metalog::{MetaLog, MetaRecord, MetaUnit};
use crate::ring::ShardId;
use crate::view::MembershipView;

fn wal_err(e: WalError) -> ClusterError {
    ClusterError::Storage(StorageError::Wal(e))
}

/// Errors surfaced by the cluster routing layer.
#[derive(Debug)]
pub enum ClusterError {
    /// The request was stamped with an epoch other than the committed one.
    /// Writes get this; reads are forwarded instead.
    StaleEpoch {
        /// The epoch the client stamped.
        stamped: u64,
        /// The epoch the cluster is at.
        current: u64,
    },
    /// The shard that must serve this request is down.
    ShardDown(ShardId),
    /// The view has no members, so no shard owns the key.
    NoOwner,
    /// A handover is already in progress.
    HandoverInProgress,
    /// No handover is in progress.
    NoHandover,
    /// The owning shard failed the operation.
    Storage(StorageError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::StaleEpoch { stamped, current } => {
                write!(f, "stale epoch {stamped}, cluster is at {current}")
            }
            ClusterError::ShardDown(s) => write!(f, "shard {s} is down"),
            ClusterError::NoOwner => write!(f, "the view has no members"),
            ClusterError::HandoverInProgress => write!(f, "a handover is already in progress"),
            ClusterError::NoHandover => write!(f, "no handover is in progress"),
            ClusterError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<StorageError> for ClusterError {
    fn from(e: StorageError) -> Self {
        ClusterError::Storage(e)
    }
}

/// A successful routed read.
#[derive(Debug)]
pub struct ClusterRead {
    /// The object's bytes.
    pub bytes: Vec<u8>,
    /// The shard that served them.
    pub shard: ShardId,
    /// The shard-level retrieve report.
    pub report: RetrieveReport,
    /// True when the primary owner could not serve and the bytes came from
    /// the handover secondary (dual-serve).
    pub fallback: bool,
}

/// Running totals of cluster-level events, published as gauges by
/// [`ClusterStore::publish_gauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// View changes committed (epoch bumps past genesis).
    pub epoch_commits: u64,
    /// Handovers abandoned by [`ClusterStore::abort_handover`].
    pub handover_aborts: u64,
    /// Sealed coding groups rebalanced to a new owner.
    pub groups_moved: u64,
    /// Whole objects rebalanced to a new owner.
    pub wholes_moved: u64,
    /// Symbols installed by transfers — the true rebalance cost, counted
    /// per node per *unit* (group or whole), never per object.
    pub symbols_transferred: u64,
    /// Planned unit moves skipped because a shard was down or the unit
    /// could not be read/installed; the unit stayed with its old owner.
    pub transfer_skips: u64,
    /// Writes rejected for carrying a stale epoch.
    pub stale_writes_rejected: u64,
    /// Reads served despite a stale epoch stamp (directory forwarding) —
    /// the "clients lagging behind a view change" operator signal.
    pub forwarded_reads: u64,
    /// Reads stamped with an epoch *ahead* of the committed one — a buggy
    /// or future-view client, counted apart from [`Self::forwarded_reads`]
    /// so lag stays a clean signal.
    pub future_stamped_reads: u64,
    /// Writes applied to both the old and new owner during a handover.
    pub dual_writes: u64,
    /// Units re-homed by a replan of previously skipped transfers
    /// ([`ClusterStore::replan_skipped`]).
    pub handover_replanned: u64,
}

/// What survives a full-cluster power loss: each shard's node fabric (the
/// machines holding installed symbols). Produced by [`ClusterStore::crash`],
/// consumed by [`ClusterStore::recover_from_disk`] — every coordinator's
/// in-memory state (directory, view, handover, object tables) is gone and
/// must come back from the on-disk logs.
#[derive(Debug)]
pub struct ClusterSurvivors {
    nodes: BTreeMap<ShardId, SurvivingNodes>,
}

impl ClusterSurvivors {
    /// The shards with surviving node fabrics, sorted.
    pub fn shards(&self) -> Vec<ShardId> {
        self.nodes.keys().copied().collect()
    }

    /// Drop one shard's surviving nodes — models a machine that never came
    /// back from the outage. Its keys recover as honestly unavailable.
    pub fn lose_shard(&mut self, shard: ShardId) -> bool {
        self.nodes.remove(&shard).is_some()
    }
}

/// What [`ClusterStore::recover_from_disk`] found and did, for assertions
/// and operator visibility.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClusterRecoveryReport {
    /// Complete metalog records replayed from `cluster.meta`.
    pub meta_records_replayed: usize,
    /// True if the metalog ended in a partially written record (tolerated:
    /// replay stops at the last complete record).
    pub meta_torn_tail: bool,
    /// True if the crash interrupted a prepared-but-uncommitted handover,
    /// which recovery rolled back exactly like
    /// [`ClusterStore::abort_handover`].
    pub handover_rolled_back: bool,
    /// Per-shard WAL replay reports for every shard that had survivors.
    pub shard_reports: BTreeMap<ShardId, RecoveryReport>,
    /// Durable copies deleted because the directory credits a different
    /// shard — leftovers of rolled-back or crash-interrupted transfers.
    pub strays_evicted: u64,
    /// Durable objects the directory never learned (the shard committed,
    /// the crash ate the `DirPut`), re-adopted into the directory.
    pub adopted: u64,
    /// Directory entries dropped because the recovered owner lost the
    /// bytes (un-synced WAL tail); those keys read as honestly unknown.
    pub directory_dropped: u64,
    /// True if recovered state still references shards outside the
    /// committed view — [`ClusterStore::replan_skipped`] will re-home them.
    pub pending_replan: bool,
}

/// What one placement unit is.
#[derive(Debug, Clone)]
enum UnitKind {
    /// A sealed coding group, identified by its id at the source shard.
    Group { gid: GroupId },
    /// An individually placed object.
    Whole { name: String },
}

/// One planned unit migration within a handover.
#[derive(Debug, Clone)]
struct UnitMove {
    from: ShardId,
    to: ShardId,
    kind: UnitKind,
    /// Set once the transfer lands: the member names now also present at
    /// `to`, and (for groups) the id the destination assigned.
    landed: Option<(Vec<String>, Option<GroupId>)>,
}

/// In-flight two-phase view transition.
struct Handover {
    target: MembershipView,
    moves: Vec<UnitMove>,
    cursor: usize,
    /// Keys dual-written during the transition, mapped to their owner
    /// under the target view (the copy that wins at commit).
    dual: BTreeMap<String, ShardId>,
    /// Secondary location of every transferred member (dual-serve reads).
    moved: HashMap<String, ShardId>,
}

/// A sharded, epoch-stamped front-end over many coordinator shards.
pub struct ClusterStore {
    spec: CodeSpec,
    config: GroupConfig,
    shards: BTreeMap<ShardId, DistributedStore>,
    up: BTreeMap<ShardId, bool>,
    view: MembershipView,
    /// Authoritative object location. Placement of new keys comes from the
    /// ring; the directory is what lets *groups* (not keys) migrate.
    directory: HashMap<String, ShardId>,
    /// Placement key per sealed group, probed so the group's ring position
    /// is its sealing shard — the trick that gives consistent-hashing
    /// minimal movement at group granularity.
    pkeys: HashMap<(ShardId, GroupId), String>,
    handover: Option<Handover>,
    stats: ClusterStats,
    recorder: Recorder,
    registry: Option<Registry>,
    clock: Option<Arc<VirtualClock>>,
    /// When set, each shard's WAL is the file `shard-<id>.wal` in this
    /// directory (synced per [`GroupConfig::fsync`]; a directory of
    /// `wal.NNNNNN.seg` segments instead when
    /// [`GroupConfig::segment_bytes`] is non-zero), the cluster's control
    /// state is write-ahead logged to `cluster.meta` alongside them, and
    /// [`ClusterStore::restart_shard_from_disk`] /
    /// [`ClusterStore::recover_from_disk`] can rebuild a shard — or the
    /// whole cluster — purely from disk.
    wal_dir: Option<std::path::PathBuf>,
    /// The cluster metalog (see [`crate::metalog`]): directory mutations,
    /// handover phases, and epoch bumps are appended here **before** they
    /// are applied. `None` without a WAL directory.
    meta: Option<MetaLog>,
    /// True while some placement unit is known to sit away from where the
    /// committed ring wants it — a transfer was skipped (shard down), or a
    /// departed member still holds directory-owned keys. Cleared when a
    /// [`ClusterStore::replan_skipped`] pass lands everything.
    pending_replan: bool,
}

impl ClusterStore {
    /// A cluster over `members` shards, each a [`DistributedStore`] of the
    /// given code with its own write-ahead log, routed by a ring with
    /// `vnodes` points per shard. The genesis view is epoch 1.
    pub fn new(
        spec: CodeSpec,
        config: GroupConfig,
        members: &[ShardId],
        vnodes: usize,
    ) -> Result<Self, ClusterError> {
        Self::build(spec, config, members, vnodes, None)
    }

    /// Like [`ClusterStore::new`], but every shard's WAL is a file in
    /// `dir` (`shard-<id>.wal`, created as needed), synced according to
    /// `config.fsync`. A shard can then be rebuilt from nothing but its
    /// on-disk log via [`ClusterStore::restart_shard_from_disk`].
    pub fn with_wal_dir(
        spec: CodeSpec,
        config: GroupConfig,
        members: &[ShardId],
        vnodes: usize,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<Self, ClusterError> {
        Self::build(spec, config, members, vnodes, Some(dir.into()))
    }

    fn build(
        spec: CodeSpec,
        config: GroupConfig,
        members: &[ShardId],
        vnodes: usize,
        wal_dir: Option<std::path::PathBuf>,
    ) -> Result<Self, ClusterError> {
        let view = MembershipView::genesis(members, vnodes);
        let mut cluster = Self::bare(spec, config, view, wal_dir);
        if cluster.wal_dir.is_some() {
            let mut meta = MetaLog::new(cluster.open_log("cluster.meta")?);
            // The genesis view is the first committed fact: a restart must
            // know the member set and vnode count before anything else.
            meta.append(&MetaRecord::ViewCommit {
                epoch: cluster.view.epoch(),
                members: cluster.view.members().to_vec(),
                vnodes: cluster.view.ring().vnodes(),
            })
            .map_err(wal_err)?;
            cluster.meta = Some(meta);
        }
        for &s in cluster.view.members().to_vec().iter() {
            cluster.ensure_shard(s)?;
        }
        Ok(cluster)
    }

    /// A cluster with `view` and no shards, directory or metalog yet.
    fn bare(
        spec: CodeSpec,
        config: GroupConfig,
        view: MembershipView,
        wal_dir: Option<std::path::PathBuf>,
    ) -> Self {
        ClusterStore {
            spec,
            config,
            shards: BTreeMap::new(),
            up: BTreeMap::new(),
            view,
            directory: HashMap::new(),
            pkeys: HashMap::new(),
            handover: None,
            stats: ClusterStats::default(),
            recorder: Recorder::disabled(),
            registry: None,
            clock: None,
            wal_dir,
            meta: None,
            pending_replan: false,
        }
    }

    /// Open (creating if absent) the log `name` in the WAL directory: the
    /// file `name`, or the segment directory `name.d` when
    /// [`GroupConfig::segment_bytes`] asks for O(1) truncation. The
    /// metalog is `cluster.meta`, shard `s`'s WAL `shard-<s>.wal`.
    fn open_log(&self, name: &str) -> Result<Box<FileLog>, ClusterError> {
        let dir = self.wal_dir.as_ref().expect("caller checked wal_dir");
        let (fsync, segment_bytes) = (self.config.fsync, self.config.segment_bytes);
        if segment_bytes > 0 {
            FileLog::open_segmented(dir.join(format!("{name}.d")), fsync, segment_bytes)
        } else {
            FileLog::open(dir.join(name), fsync)
        }
        .map(Box::new)
        .map_err(wal_err)
    }

    /// Open shard `s`'s on-disk WAL.
    fn open_shard_log(&self, s: ShardId) -> Result<Box<FileLog>, ClusterError> {
        self.open_log(&format!("shard-{s}.wal"))
    }

    fn ensure_shard(&mut self, s: ShardId) -> Result<(), ClusterError> {
        if self.shards.contains_key(&s) {
            return Ok(());
        }
        let code = build_code(self.spec).map_err(StorageError::from)?;
        let mut store = if self.wal_dir.is_some() {
            DistributedStore::with_wal(code, self.config, self.open_shard_log(s)?)
        } else {
            DistributedStore::with_wal(code, self.config, Box::new(MemLog::new()))
        };
        if let Some(reg) = &self.registry {
            store.attach_registry(reg);
        }
        self.shards.insert(s, store);
        self.up.insert(s, true);
        Ok(())
    }

    /// Crash-restart one file-backed shard: the coordinator's memory is
    /// discarded (along with its in-memory log handle — any batched,
    /// un-synced WAL tail is genuinely lost, as in a real process crash)
    /// and rebuilt by replaying the shard's on-disk log against its
    /// surviving node fabric. The shard comes back up on success.
    ///
    /// Errors if the cluster was not built with
    /// [`ClusterStore::with_wal_dir`] or the shard does not exist.
    pub fn restart_shard_from_disk(&mut self, s: ShardId) -> Result<RecoveryReport, ClusterError> {
        if self.wal_dir.is_none() {
            return Err(ClusterError::Storage(StorageError::Recovery {
                reason: "restart_from_disk needs a file-backed cluster (with_wal_dir)".to_string(),
            }));
        }
        let store = self.shards.remove(&s).ok_or(ClusterError::ShardDown(s))?;
        // The returned in-memory WAL handle is dropped on the floor:
        // recovery must read the log back from the filesystem.
        let (nodes, _discarded) = store.crash();
        let wal = WriteAheadLog::new(self.open_shard_log(s)?);
        let code = build_code(self.spec).map_err(StorageError::from)?;
        let (mut rebuilt, report) = DistributedStore::recover(code, self.config, nodes, wal)
            .map_err(ClusterError::Storage)?;
        if let Some(reg) = &self.registry {
            rebuilt.attach_registry(reg);
        }
        self.shards.insert(s, rebuilt);
        self.up.insert(s, true);
        Ok(report)
    }

    /// Attach a telemetry registry: every shard records its store metrics
    /// into it (aggregated across shards), and the cluster layer adds its
    /// own gauges, counters, and handover spans — all on virtual clocks, so
    /// snapshots replay bit-identically.
    pub fn attach_registry(&mut self, registry: &Registry) {
        let clock = Arc::new(VirtualClock::new());
        self.recorder = Recorder::new(registry.clone(), clock.clone());
        self.clock = Some(clock);
        self.registry = Some(registry.clone());
        for store in self.shards.values_mut() {
            store.attach_registry(registry);
        }
        self.publish_gauges();
    }

    /// Append one metalog record (a no-op without a WAL directory), then
    /// auto-checkpoint the control state if the
    /// [`GroupConfig::checkpoint_every`] interval has elapsed. Checkpoints
    /// are only taken between handovers: transition records must stay in
    /// the log until their commit or abort is durable.
    fn meta_append(&mut self, record: MetaRecord) -> Result<(), ClusterError> {
        let Some(meta) = &mut self.meta else {
            return Ok(());
        };
        meta.append(&record).map_err(wal_err)?;
        let every = self.config.checkpoint_every;
        if every > 0 && self.handover.is_none() && meta.since_checkpoint() >= every {
            let ckpt = self.meta_checkpoint_record();
            self.meta
                .as_mut()
                .expect("checked above")
                .append(&ckpt)
                .map_err(wal_err)?;
        }
        Ok(())
    }

    /// Snapshot the committed control state into a checkpoint record:
    /// view, directory, and pkey assignments, each sorted so the record is
    /// deterministic.
    fn meta_checkpoint_record(&self) -> MetaRecord {
        let mut directory: Vec<(String, ShardId)> = self
            .directory
            .iter()
            .map(|(k, &s)| (k.clone(), s))
            .collect();
        directory.sort();
        let mut pkeys: Vec<(ShardId, GroupId, String)> = self
            .pkeys
            .iter()
            .map(|(&(s, g), p)| (s, g, p.clone()))
            .collect();
        pkeys.sort();
        MetaRecord::Checkpoint {
            epoch: self.view.epoch(),
            members: self.view.members().to_vec(),
            vnodes: self.view.ring().vnodes(),
            directory,
            pkeys,
        }
    }

    /// The committed epoch.
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// The committed view.
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// True while a handover is in flight.
    pub fn handover_in_progress(&self) -> bool {
        self.handover.is_some()
    }

    /// Cluster-level running totals.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Borrow one shard's coordinator (admin/test access).
    pub fn shard(&self, s: ShardId) -> Option<&DistributedStore> {
        self.shards.get(&s)
    }

    /// Mutably borrow one shard's coordinator, e.g. to fail or repair
    /// individual storage nodes inside it.
    pub fn shard_mut(&mut self, s: ShardId) -> Option<&mut DistributedStore> {
        self.shards.get_mut(&s)
    }

    /// Objects tracked across all shards.
    pub fn num_objects(&self) -> usize {
        self.directory.len()
    }

    /// Mark a shard down: requests routed to it fail with
    /// [`ClusterError::ShardDown`] until [`ClusterStore::recover_shard`].
    pub fn fail_shard(&mut self, s: ShardId) {
        if let Some(up) = self.up.get_mut(&s) {
            *up = false;
        }
    }

    /// Mark a failed shard up again (its coordinator state survived — the
    /// per-shard WAL crash/recovery path is exercised at the
    /// [`DistributedStore`] level).
    pub fn recover_shard(&mut self, s: ShardId) {
        if let Some(up) = self.up.get_mut(&s) {
            *up = true;
        }
    }

    /// True if the shard exists and is up.
    pub fn shard_up(&self, s: ShardId) -> bool {
        self.up.get(&s).copied().unwrap_or(false)
    }

    /// Advance virtual time on every live shard's transport (and the
    /// cluster's own span clock).
    pub fn advance_time(&mut self, step: SimDuration) {
        for (s, store) in self.shards.iter_mut() {
            if self.up[s] {
                store.advance_time(step);
            }
        }
        if let Some(meta) = &mut self.meta {
            // Interval fsync policies batch metalog appends exactly like
            // shard WAL appends; a failed interval commit keeps its bytes
            // pending and the next append or sync retries.
            let _ = meta.advance_clock(step);
        }
        if let Some(clock) = &self.clock {
            clock.advance_micros(step.as_micros());
        }
    }

    fn check_epoch_write(&mut self, stamped: u64) -> Result<(), ClusterError> {
        let current = self.view.epoch();
        if stamped != current {
            self.stats.stale_writes_rejected += 1;
            return Err(ClusterError::StaleEpoch { stamped, current });
        }
        Ok(())
    }

    /// Store (or overwrite) an object. The write goes to the key's owner
    /// under the committed view; during a handover it is additionally
    /// applied to the key's owner under the target view (dual-logged in
    /// both shards' WALs), so the bytes survive whichever way the
    /// transition resolves. If the target-view owner is down the write
    /// still acks on the committed owner, and the commit-time dual
    /// override pins the key there — an acked overwrite is never
    /// superseded by a transferred unit's older snapshot. Rejects stale
    /// epoch stamps.
    pub fn store(&mut self, key: &str, data: &[u8], epoch: u64) -> Result<(), ClusterError> {
        self.check_epoch_write(epoch)?;
        let primary = match self.directory.get(key) {
            Some(&s) => s,
            None => self.view.owner_of(key).ok_or(ClusterError::NoOwner)?,
        };
        if !self.shard_up(primary) {
            return Err(ClusterError::ShardDown(primary));
        }
        self.shards
            .get_mut(&primary)
            .expect("directory names a shard")
            .store(key, data)?;
        if self.directory.get(key) != Some(&primary) {
            // The bytes are shard-durable; record the ownership *before*
            // the directory learns it. A crash between the two leaves a
            // durable object with no entry — recovery adopts it back.
            self.meta_append(MetaRecord::DirPut {
                key: key.to_string(),
                shard: primary,
            })?;
        }
        self.directory.insert(key.to_string(), primary);
        // During a handover, decide where the write must additionally land
        // (dual-log) and which copy must win at commit (dual override).
        let (dual_store, dual_override) = match &self.handover {
            Some(h) => match h.target.owner_of(key) {
                Some(t) => {
                    let stale_secondary = h
                        .moved
                        .get(key)
                        .copied()
                        .filter(|&d| d != t && d != primary);
                    if t != primary && self.up.get(&t).copied().unwrap_or(false) {
                        (Some(t), Some(t))
                    } else if t != primary {
                        // The target-view owner is down, so the fresh bytes
                        // exist only at the committed owner. Point the dual
                        // override there: commit must collapse the key onto
                        // this copy, not onto a transferred unit's
                        // pre-overwrite snapshot (nor onto a dual copy an
                        // earlier overwrite left at `t`).
                        (None, Some(primary))
                    } else if stale_secondary.is_some() {
                        // The key stays home under the target view, but an
                        // already-transferred unit may hold a now-stale
                        // copy of it elsewhere; the dual override at commit
                        // clears it.
                        (None, Some(t))
                    } else {
                        (None, None)
                    }
                }
                None => (None, None),
            },
            None => (None, None),
        };
        if let Some(t) = dual_store {
            self.shards
                .get_mut(&t)
                .expect("target view members have shards")
                .store(key, data)?;
            self.stats.dual_writes += 1;
        }
        if let Some(winner) = dual_override {
            let h = self.handover.as_ref().expect("override implies handover");
            if h.dual.get(key) != Some(&winner) {
                self.meta_append(MetaRecord::DualOverride {
                    key: key.to_string(),
                    shard: winner,
                })?;
            }
            self.handover
                .as_mut()
                .expect("override implies handover")
                .dual
                .insert(key.to_string(), winner);
        }
        Ok(())
    }

    /// Retrieve an object. The authoritative owner serves; while a
    /// handover is in flight and the owner cannot (down, or too few
    /// symbols), the read falls back to the key's secondary copy — the
    /// dual-written bytes or the transferred unit (**dual-serve**). A
    /// stale epoch stamp does not fail a read: the directory forwards it
    /// (counted in [`ClusterStats::forwarded_reads`]; a stamp *ahead* of
    /// the committed epoch is served too but counted in
    /// [`ClusterStats::future_stamped_reads`] instead).
    pub fn retrieve(
        &mut self,
        key: &str,
        policy: SelectionPolicy,
        epoch: u64,
    ) -> Result<ClusterRead, ClusterError> {
        let current = self.view.epoch();
        if epoch < current {
            self.stats.forwarded_reads += 1;
        } else if epoch > current {
            self.stats.future_stamped_reads += 1;
        }
        let Some(&primary) = self.directory.get(key) else {
            return Err(ClusterError::Storage(StorageError::UnknownObject {
                object: key.to_string(),
            }));
        };
        let primary_err: ClusterError = if self.shard_up(primary) {
            match self
                .shards
                .get_mut(&primary)
                .expect("directory names a shard")
                .retrieve(key, policy)
            {
                Ok((bytes, report)) => {
                    return Ok(ClusterRead {
                        bytes,
                        shard: primary,
                        report,
                        fallback: false,
                    });
                }
                Err(e @ StorageError::NotEnoughNodes { .. }) => e.into(),
                Err(e) => return Err(e.into()),
            }
        } else {
            ClusterError::ShardDown(primary)
        };
        // Dual-serve: a dual-written copy holds the newest bytes and is the
        // only safe fallback when one exists — a transferred unit's
        // snapshot predates it by construction. If the dual copy cannot
        // serve (its shard down, or the dual copy *is* the failed
        // primary), the read fails honestly rather than surfacing the
        // superseded snapshot.
        let secondary = match &self.handover {
            Some(h) => match h.dual.get(key) {
                Some(&t) => (t != primary).then_some(t),
                None => h.moved.get(key).copied().filter(|&d| d != primary),
            },
            None => None,
        };
        if let Some(s) = secondary {
            if self.shard_up(s) {
                match self
                    .shards
                    .get_mut(&s)
                    .expect("secondary names a shard")
                    .retrieve(key, policy)
                {
                    Ok((bytes, report)) => {
                        return Ok(ClusterRead {
                            bytes,
                            shard: s,
                            report,
                            fallback: true,
                        });
                    }
                    Err(StorageError::NotEnoughNodes { .. })
                    | Err(StorageError::UnknownObject { .. }) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Err(primary_err)
    }

    /// Delete an object everywhere it lives (owner, plus any handover
    /// secondary). Rejects stale epoch stamps.
    pub fn delete(&mut self, key: &str, epoch: u64) -> Result<(), ClusterError> {
        self.check_epoch_write(epoch)?;
        let Some(&primary) = self.directory.get(key) else {
            return Err(ClusterError::Storage(StorageError::UnknownObject {
                object: key.to_string(),
            }));
        };
        if !self.shard_up(primary) {
            return Err(ClusterError::ShardDown(primary));
        }
        self.shards
            .get_mut(&primary)
            .expect("directory names a shard")
            .delete(key)?;
        // Logged *after* the shard-level delete: logging first would let a
        // crash resurrect the key (directory forgets it while the shard
        // still serves it), logging after merely re-deletes at recovery.
        self.meta_append(MetaRecord::DirDel {
            key: key.to_string(),
        })?;
        self.directory.remove(key);
        let mut extra: Vec<ShardId> = Vec::new();
        if let Some(h) = &mut self.handover {
            if let Some(t) = h.dual.remove(key) {
                extra.push(t);
            }
            if let Some(d) = h.moved.remove(key) {
                extra.push(d);
            }
        }
        for s in extra {
            if s != primary && self.shard_up(s) {
                match self.shards.get_mut(&s).expect("named shard").delete(key) {
                    Ok(()) | Err(StorageError::UnknownObject { .. }) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Ok(())
    }

    /// Repair one storage node inside one shard (routed admin operation).
    /// Returns the symbols repaired.
    pub fn repair_node(&mut self, shard: ShardId, node: NodeId) -> Result<usize, ClusterError> {
        if !self.shard_up(shard) {
            return Err(ClusterError::ShardDown(shard));
        }
        let store = self
            .shards
            .get_mut(&shard)
            .ok_or(ClusterError::ShardDown(shard))?;
        Ok(store.repair_node(node)?)
    }

    /// Flush every live shard's open group so all grouped bytes become
    /// sealed (movable, repairable) units. A shard whose seal misses its
    /// write quorum keeps its group open — nothing acked is lost, the
    /// group simply does not move this round.
    pub fn flush_all(&mut self) {
        for (s, store) in self.shards.iter_mut() {
            if self.up[s] {
                let _ = store.flush();
            }
        }
    }

    /// Choose a placement key for a unit that must currently map to
    /// `shard`: salted probes until the ring agrees. The probe is cheap
    /// (pure hashing) and deterministic; if no salt lands within the
    /// budget the base key is used and the unit simply migrates early.
    fn probe_pkey(view: &MembershipView, shard: ShardId, base: &str) -> String {
        for salt in 0..4096u32 {
            let pkey = format!("{base}#{salt}");
            if view.owner_of(&pkey) == Some(shard) {
                return pkey;
            }
        }
        format!("{base}#0")
    }

    /// Begin a two-phase handover toward a view over `members`. Seals all
    /// open groups, computes which placement units change owner under the
    /// target ring, and returns the number of planned unit moves. Until
    /// [`ClusterStore::commit_handover`], the current view stays
    /// authoritative and the epoch does not change.
    pub fn begin_handover(&mut self, members: &[ShardId]) -> Result<usize, ClusterError> {
        if self.handover.is_some() {
            return Err(ClusterError::HandoverInProgress);
        }
        let target = self.view.successor(members);
        if target.members().is_empty() {
            return Err(ClusterError::NoOwner);
        }
        for &s in target.members() {
            self.ensure_shard(s)?;
        }
        self.flush_all();
        let mut moves = Vec::new();
        let mut new_pkeys: Vec<(ShardId, GroupId, String)> = Vec::new();
        let shard_ids: Vec<ShardId> = self.shards.keys().copied().collect();
        for s in shard_ids {
            if !self.up[&s] {
                continue;
            }
            let store = &self.shards[&s];
            for gid in store.sealed_group_ids() {
                let pkey = match self.pkeys.get(&(s, gid)) {
                    Some(p) => p.clone(),
                    None => {
                        let p = Self::probe_pkey(&self.view, s, &format!("unit/{s}/{gid}"));
                        self.pkeys.insert((s, gid), p.clone());
                        new_pkeys.push((s, gid, p.clone()));
                        p
                    }
                };
                let dst = target.owner_of(&pkey).expect("target view is non-empty");
                if dst != s {
                    moves.push(UnitMove {
                        from: s,
                        to: dst,
                        kind: UnitKind::Group { gid },
                        landed: None,
                    });
                }
            }
            for name in self.shards[&s].whole_object_names() {
                let dst = target.owner_of(&name).expect("target view is non-empty");
                if dst != s {
                    moves.push(UnitMove {
                        from: s,
                        to: dst,
                        kind: UnitKind::Whole { name },
                        landed: None,
                    });
                }
            }
        }
        // Probed placement keys are deterministic in the committed view,
        // so logging them after the in-memory insert is safe: a crash here
        // re-probes the identical keys. The prepare record is the durable
        // transition marker — everything between it and the matching
        // commit/abort rolls back at recovery.
        for (s, gid, pkey) in new_pkeys {
            self.meta_append(MetaRecord::PkeyAssign {
                shard: s,
                gid,
                pkey,
            })?;
        }
        self.meta_append(MetaRecord::HandoverPrepare {
            members: target.members().to_vec(),
        })?;
        let planned = moves.len();
        let mut span = span!(
            self.recorder,
            "cluster.handover.begin",
            target_epoch = target.epoch(),
            moves = planned as u64
        );
        span.field("members", members.len() as u64);
        self.handover = Some(Handover {
            target,
            moves,
            cursor: 0,
            dual: BTreeMap::new(),
            moved: HashMap::new(),
        });
        Ok(planned)
    }

    /// Transfer the next planned unit. Returns the symbols it cost
    /// (`Ok(Some(0))` for a skipped unit — source or destination down, or
    /// the unit unreadable right now), or `Ok(None)` when no moves remain.
    pub fn transfer_next(&mut self) -> Result<Option<u64>, ClusterError> {
        let h = self.handover.as_mut().ok_or(ClusterError::NoHandover)?;
        let Some(mv) = h.moves.get(h.cursor).cloned() else {
            return Ok(None);
        };
        let idx = h.cursor;
        h.cursor += 1;
        let src_up = self.up.get(&mv.from).copied().unwrap_or(false);
        let dst_up = self.up.get(&mv.to).copied().unwrap_or(false);
        if !src_up || !dst_up {
            self.stats.transfer_skips += 1;
            return Ok(Some(0));
        }
        let mut span = span!(
            self.recorder,
            "cluster.handover.transfer",
            from = mv.from as u64,
            to = mv.to as u64
        );
        let landed = match &mv.kind {
            UnitKind::Group { gid } => {
                let export = match self
                    .shards
                    .get_mut(&mv.from)
                    .expect("move names a shard")
                    .export_group(*gid, SelectionPolicy::FirstK)
                {
                    Ok(e) => e,
                    Err(StorageError::NotEnoughNodes { .. })
                    | Err(StorageError::UnknownGroup(_)) => {
                        self.stats.transfer_skips += 1;
                        return Ok(Some(0));
                    }
                    Err(e) => return Err(e.into()),
                };
                let dst = self.shards.get_mut(&mv.to).expect("move names a shard");
                let new_gid = match dst.import_group(&export) {
                    Ok(g) => g,
                    Err(StorageError::QuorumNotReached { .. }) => {
                        self.stats.transfer_skips += 1;
                        return Ok(Some(0));
                    }
                    Err(e) => return Err(e.into()),
                };
                let symbols = dst.num_nodes() as u64;
                self.stats.groups_moved += 1;
                self.stats.symbols_transferred += symbols;
                let members: Vec<String> = export.members.iter().map(|(n, _)| n.clone()).collect();
                span.field("objects", members.len() as u64);
                span.field("symbols", symbols);
                let h = self.handover.as_ref().expect("checked above");
                let pkey = Self::probe_pkey(&h.target, mv.to, &format!("unit/{}/{new_gid}", mv.to));
                (members, Some(new_gid), symbols, Some(pkey))
            }
            UnitKind::Whole { name } => {
                let bytes = match self
                    .shards
                    .get_mut(&mv.from)
                    .expect("move names a shard")
                    .retrieve(name, SelectionPolicy::FirstK)
                {
                    Ok((bytes, _)) => bytes,
                    Err(StorageError::NotEnoughNodes { .. })
                    | Err(StorageError::UnknownObject { .. }) => {
                        self.stats.transfer_skips += 1;
                        return Ok(Some(0));
                    }
                    Err(e) => return Err(e.into()),
                };
                let dst = self.shards.get_mut(&mv.to).expect("move names a shard");
                match dst.store(name, &bytes) {
                    Ok(()) => {}
                    Err(StorageError::QuorumNotReached { .. }) => {
                        self.stats.transfer_skips += 1;
                        return Ok(Some(0));
                    }
                    Err(e) => return Err(e.into()),
                }
                let symbols = dst.num_nodes() as u64;
                self.stats.wholes_moved += 1;
                self.stats.symbols_transferred += symbols;
                span.field("symbols", symbols);
                (vec![name.clone()], None, symbols, None)
            }
        };
        let (members, new_gid, symbols, pkey) = landed;
        // The unit is shard-durable at the destination; record the landing
        // (and the imported group's placement key) before the in-memory
        // bookkeeping. A crash in between leaves a stray destination copy
        // the recovery sweep evicts — exactly the abort semantics.
        if let (Some(gid_new), Some(p)) = (new_gid, &pkey) {
            self.meta_append(MetaRecord::PkeyAssign {
                shard: mv.to,
                gid: gid_new,
                pkey: p.clone(),
            })?;
        }
        let unit = match &mv.kind {
            UnitKind::Group { gid } => MetaUnit::Group {
                gid: *gid,
                new_gid: new_gid.expect("landed groups carry their id"),
            },
            UnitKind::Whole { name } => MetaUnit::Whole { name: name.clone() },
        };
        self.meta_append(MetaRecord::UnitLanded {
            from: mv.from,
            to: mv.to,
            unit,
            members: members.clone(),
        })?;
        if let (Some(gid_new), Some(p)) = (new_gid, pkey) {
            self.pkeys.insert((mv.to, gid_new), p);
        }
        let h = self.handover.as_mut().expect("checked above");
        for m in &members {
            h.moved.insert(m.clone(), mv.to);
        }
        h.moves[idx].landed = Some((members, new_gid));
        Ok(Some(symbols))
    }

    /// Cut over to the target view: finish remaining transfers, evict old
    /// copies of every landed unit, repoint the directory, collapse
    /// dual-written keys onto their new owner, and advance the epoch.
    /// Returns the new epoch.
    pub fn commit_handover(&mut self) -> Result<u64, ClusterError> {
        if self.handover.is_none() {
            return Err(ClusterError::NoHandover);
        }
        while self.transfer_next()?.is_some() {}
        // The single commit record, logged before any cutover mutation: a
        // crash anywhere past this point replays the record and redoes the
        // cutover deterministically from the logged transition state.
        let commit_record = {
            let target = &self.handover.as_ref().expect("checked above").target;
            MetaRecord::ViewCommit {
                epoch: target.epoch(),
                members: target.members().to_vec(),
                vnodes: target.ring().vnodes(),
            }
        };
        self.meta_append(commit_record)?;
        let h = self.handover.take().expect("checked above");
        let mut span = span!(
            self.recorder,
            "cluster.handover.commit",
            epoch = h.target.epoch()
        );
        let mut evicted = 0u64;
        for mv in &h.moves {
            let Some((members, _)) = &mv.landed else {
                continue; // skipped: the unit stays with its old owner
            };
            match &mv.kind {
                UnitKind::Group { gid } => {
                    if self.shard_up(mv.from) {
                        match self
                            .shards
                            .get_mut(&mv.from)
                            .expect("move names a shard")
                            .evict_group(*gid)
                        {
                            Ok(_) => evicted += 1,
                            // Already gone (every member overwritten or
                            // deleted during the transition).
                            Err(StorageError::UnknownGroup(_)) => {}
                            Err(e) => return Err(e.into()),
                        }
                    }
                    self.pkeys.remove(&(mv.from, *gid));
                }
                UnitKind::Whole { name } => {
                    // Drop the source copy only when it is superseded. If
                    // the dual override pins the key to the source (its
                    // target-view owner was down at overwrite time), the
                    // source holds the only fresh bytes — the transferred
                    // snapshot is the copy that dies, below.
                    if self.shard_up(mv.from) && h.dual.get(name) != Some(&mv.from) {
                        match self
                            .shards
                            .get_mut(&mv.from)
                            .expect("move names a shard")
                            .delete(name)
                        {
                            Ok(()) | Err(StorageError::UnknownObject { .. }) => {}
                            Err(e) => return Err(e.into()),
                        }
                    }
                }
            }
            for m in members {
                // Only repoint members that still live where the unit was
                // exported from: a key overwritten mid-transition left the
                // unit at the source and is governed by the dual override
                // below (or stayed home entirely).
                if self.directory.get(m) == Some(&mv.from) {
                    self.directory.insert(m.clone(), mv.to);
                }
            }
        }
        // Dual-written keys collapse onto their target-view owner; every
        // other copy (old owner, superseded unit snapshot) is dropped.
        for (key, t) in &h.dual {
            let mut holders: Vec<ShardId> = Vec::new();
            if let Some(&cur) = self.directory.get(key) {
                if cur != *t {
                    holders.push(cur);
                }
            } else {
                continue; // deleted during the transition
            }
            if let Some(&d) = h.moved.get(key) {
                if d != *t && !holders.contains(&d) {
                    holders.push(d);
                }
            }
            for s in holders {
                if self.shard_up(s) {
                    match self.shards.get_mut(&s).expect("named shard").delete(key) {
                        Ok(()) | Err(StorageError::UnknownObject { .. }) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            self.directory.insert(key.clone(), *t);
        }
        span.field("evicted", evicted);
        drop(span);
        self.view = h.target;
        self.stats.epoch_commits += 1;
        // Anything that did not land — a skipped transfer, or keys still
        // directory-owned by a shard outside the new view — is pending
        // replacement work for [`ClusterStore::replan_skipped`].
        self.pending_replan = h.moves.iter().any(|mv| mv.landed.is_none())
            || self.directory.values().any(|s| !self.view.contains(*s));
        self.publish_gauges();
        Ok(self.view.epoch())
    }

    /// Abandon the in-flight handover: evict every copy the transition
    /// created (imported units, dual-written keys) and keep the current
    /// view authoritative. Used when the transition was overtaken — e.g.
    /// the joining shard crashed mid-transfer.
    pub fn abort_handover(&mut self) -> Result<(), ClusterError> {
        if self.handover.is_none() {
            return Err(ClusterError::NoHandover);
        }
        // Logged before the rollback evictions: replay of a prepare
        // followed by an abort reconstructs no transition state, and the
        // stray copies (if the evictions below never ran) fall to the
        // recovery sweep.
        self.meta_append(MetaRecord::HandoverAbort)?;
        let h = self.handover.take().expect("checked above");
        let _span = span!(
            self.recorder,
            "cluster.handover.abort",
            target_epoch = h.target.epoch()
        );
        for mv in &h.moves {
            let Some((_, new_gid)) = &mv.landed else {
                continue;
            };
            if !self.shard_up(mv.to) {
                continue;
            }
            match (&mv.kind, new_gid) {
                (UnitKind::Group { .. }, Some(new_gid)) => {
                    match self
                        .shards
                        .get_mut(&mv.to)
                        .expect("move names a shard")
                        .evict_group(*new_gid)
                    {
                        Ok(_) | Err(StorageError::UnknownGroup(_)) => {}
                        Err(e) => return Err(e.into()),
                    }
                    self.pkeys.remove(&(mv.to, *new_gid));
                }
                (UnitKind::Whole { name }, _) => {
                    match self
                        .shards
                        .get_mut(&mv.to)
                        .expect("move names a shard")
                        .delete(name)
                    {
                        Ok(()) | Err(StorageError::UnknownObject { .. }) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                (UnitKind::Group { .. }, None) => unreachable!("landed groups carry their id"),
            }
        }
        for (key, t) in &h.dual {
            if self.directory.get(key).is_some_and(|cur| cur != t) && self.shard_up(*t) {
                match self.shards.get_mut(t).expect("named shard").delete(key) {
                    Ok(()) | Err(StorageError::UnknownObject { .. }) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        self.stats.handover_aborts += 1;
        self.publish_gauges();
        Ok(())
    }

    /// True while some placement unit is known to sit away from where the
    /// committed ring wants it — a handover skipped its transfer (source
    /// or destination down), or a departed member still holds
    /// directory-owned keys. [`ClusterStore::replan_skipped`] clears it.
    pub fn pending_replan(&self) -> bool {
        self.pending_replan
    }

    /// Re-plan units stranded by skipped handover transfers, even though
    /// the converged membership equals the committed view: runs a full
    /// two-phase handover toward the *current* member set, which re-homes
    /// every misplaced unit the planner can reach. Returns the new epoch
    /// when at least one unit landed, `Ok(None)` when there was nothing to
    /// do or nothing could move yet (stranded shards still down — the
    /// pending flag stays set and a later call retries).
    ///
    /// Units successfully re-homed are counted in
    /// [`ClusterStats::handover_replanned`] (`cluster.handover.replanned`).
    pub fn replan_skipped(&mut self) -> Result<Option<u64>, ClusterError> {
        if !self.pending_replan || self.handover.is_some() {
            return Ok(None);
        }
        let members: Vec<ShardId> = self.view.members().to_vec();
        let planned = self.begin_handover(&members)?;
        if planned == 0 {
            // Nothing is reachable to move (the stranded shard is still
            // down, so its units were not even planned). Roll back without
            // an epoch bump and keep the flag for a later attempt.
            self.abort_handover()?;
            // Keep the flag while anything could still be stranded out of
            // the planner's sight: keys owned outside the view, or an
            // in-view shard that is down (its units were not planned).
            self.pending_replan = self.directory.values().any(|s| !self.view.contains(*s))
                || self.view.members().iter().any(|&s| !self.shard_up(s));
            return Ok(None);
        }
        while self.transfer_next()?.is_some() {}
        let landed = self
            .handover
            .as_ref()
            .expect("begin_handover installed it")
            .moves
            .iter()
            .filter(|mv| mv.landed.is_some())
            .count() as u64;
        if landed == 0 {
            // Every planned move skipped again; no epoch bump for nothing.
            self.abort_handover()?;
            return Ok(None);
        }
        self.stats.handover_replanned += landed;
        let epoch = self.commit_handover()?;
        Ok(Some(epoch))
    }

    /// Simulate a full-cluster power loss: every coordinator's memory —
    /// the directory, view, handover state, every shard's object table and
    /// log handle — is gone. What survives is each shard's node fabric
    /// (separate machines holding installed symbols) and whatever the
    /// on-disk logs had accepted; batched, un-synced log tails are lost
    /// with the writers. Feed the survivors to
    /// [`ClusterStore::recover_from_disk`].
    pub fn crash(self) -> ClusterSurvivors {
        let mut nodes = BTreeMap::new();
        for (s, store) in self.shards {
            // Each shard's in-memory WAL handle is dropped on the floor —
            // recovery must read the logs back from the filesystem.
            let (surviving, _discarded) = store.crash();
            nodes.insert(s, surviving);
        }
        ClusterSurvivors { nodes }
    }

    /// Rebuild a whole cluster from its WAL directory after a power loss:
    ///
    /// 1. **Metalog replay** — the committed view, directory, and pkey
    ///    assignments are folded back from `dir/cluster.meta`; a
    ///    prepare-logged handover with no commit is rolled back (an abort
    ///    record is appended), and a logged commit whose cutover mutations
    ///    never ran is redone deterministically.
    /// 2. **Per-shard replay** — every surviving shard coordinator is
    ///    rebuilt from its own on-disk log against its node fabric, exactly
    ///    like [`ClusterStore::restart_shard_from_disk`]. A shard with no
    ///    survivors comes back *down* (its keys read as honest
    ///    [`ClusterError::ShardDown`]).
    /// 3. **Reconciliation sweep** — cross-log drift from the crash point
    ///    is healed: copies on shards the directory does not credit are
    ///    evicted (rollback/commit-redo strays), durable objects the
    ///    directory never learned are adopted back, and directory entries
    ///    whose recovered owner lost the bytes are dropped (the loss is
    ///    surfaced, never served wrong).
    ///
    /// Every acked object comes back bit-exact or honestly unavailable.
    pub fn recover_from_disk(
        spec: CodeSpec,
        config: GroupConfig,
        dir: impl Into<std::path::PathBuf>,
        survivors: ClusterSurvivors,
    ) -> Result<(Self, ClusterRecoveryReport), ClusterError> {
        let placeholder = MembershipView::genesis(&[0], 1); // replaced below
        let mut cluster = Self::bare(spec, config, placeholder, Some(dir.into()));
        // 1. Metalog replay.
        let mut meta = MetaLog::new(cluster.open_log("cluster.meta")?);
        let replay = meta.replay().map_err(wal_err)?;
        // The fold restarts at every checkpoint, so the newest one is where
        // this replay restarted from; the checkpoint cadence resumes there.
        meta.resume(&replay, replay.newest_checkpoint())
            .map_err(wal_err)?;
        let mut report = ClusterRecoveryReport {
            meta_records_replayed: replay.records.len(),
            meta_torn_tail: replay.torn_tail,
            ..ClusterRecoveryReport::default()
        };
        let mut state = crate::metalog::MetaState::fold(&replay.records);
        let Some(view) = state.view.take() else {
            return Err(ClusterError::Storage(StorageError::Recovery {
                reason: "metalog holds no committed view".to_string(),
            }));
        };
        // Prepare without commit: the transition rolls back exactly like
        // an abort. Imported copies are already invisible (the directory
        // never repointed) and fall to the sweep below; the abort record
        // keeps the *next* replay from reconstructing the same dangling
        // transition.
        if state.abort_pending() {
            report.handover_rolled_back = true;
            meta.append(&MetaRecord::HandoverAbort).map_err(wal_err)?;
        }
        cluster.view = view;
        cluster.directory = state.directory.into_iter().collect();
        cluster.pkeys = state.pkeys.into_iter().collect();
        cluster.meta = Some(meta);
        // 2. Per-shard replay against the surviving node fabrics.
        for (s, nodes) in survivors.nodes {
            let wal = WriteAheadLog::new(cluster.open_shard_log(s)?);
            let code = build_code(cluster.spec).map_err(StorageError::from)?;
            let (store, shard_report) = DistributedStore::recover(code, cluster.config, nodes, wal)
                .map_err(ClusterError::Storage)?;
            cluster.shards.insert(s, store);
            cluster.up.insert(s, true);
            report.shard_reports.insert(s, shard_report);
        }
        // Shards the control state references but nothing survived of:
        // they exist (so routing can name them) but come back down.
        let referenced: Vec<ShardId> = cluster
            .view
            .members()
            .iter()
            .copied()
            .chain(cluster.directory.values().copied())
            .collect();
        for s in referenced {
            if !cluster.shards.contains_key(&s) {
                let code = build_code(cluster.spec).map_err(StorageError::from)?;
                let store =
                    DistributedStore::with_wal(code, cluster.config, Box::new(MemLog::new()));
                cluster.shards.insert(s, store);
                cluster.up.insert(s, false);
            }
        }
        // 3. Reconciliation sweep over the recovered shards.
        cluster.reconcile_after_restart(&mut report)?;
        cluster.pending_replan = cluster
            .directory
            .values()
            .any(|s| !cluster.view.contains(*s));
        report.pending_replan = cluster.pending_replan;
        Ok((cluster, report))
    }

    /// Heal cross-log drift after a full restart. The shard WALs and the
    /// metalog are separate logs with no cross-log transaction, so a crash
    /// can leave them one record apart in either direction; each case has
    /// exactly one safe resolution:
    ///
    /// * object durable on a shard, directory credits a *different* shard
    ///   — a rollback or commit-redo stray (un-evicted old copy, dual
    ///   copy, transferred snapshot). Evict it; the credited copy rules.
    /// * object durable on a shard, directory has *no* entry — the shard
    ///   store committed but the `DirPut` never became durable. Adopt it:
    ///   the write was acked only after the shard made it durable.
    /// * directory entry whose recovered owner lacks the object — the
    ///   shard lost its un-synced WAL tail in the crash (or a logged
    ///   delete's `DirDel` was lost). Drop the entry; the key reads as
    ///   honestly unknown instead of dangling.
    fn reconcile_after_restart(
        &mut self,
        report: &mut ClusterRecoveryReport,
    ) -> Result<(), ClusterError> {
        // Who actually holds what, among recovered (up) shards.
        let mut holders: BTreeMap<String, Vec<ShardId>> = BTreeMap::new();
        for (&s, store) in &self.shards {
            if !self.up[&s] {
                continue;
            }
            for name in store.object_names() {
                holders.entry(name.to_string()).or_default().push(s);
            }
        }
        for (name, at) in &holders {
            match self.directory.get(name) {
                Some(owner) => {
                    for &s in at {
                        if s != *owner {
                            match self.shards.get_mut(&s).expect("holder exists").delete(name) {
                                Ok(()) | Err(StorageError::UnknownObject { .. }) => {
                                    report.strays_evicted += 1;
                                }
                                Err(e) => return Err(e.into()),
                            }
                        }
                    }
                }
                None => {
                    // Adopt: prefer the committed ring's pick if it holds a
                    // copy (an interrupted dual write can leave two), drop
                    // the rest.
                    let keep = self
                        .view
                        .owner_of(name)
                        .filter(|o| at.contains(o))
                        .unwrap_or(at[0]);
                    self.meta_append(MetaRecord::DirPut {
                        key: name.clone(),
                        shard: keep,
                    })?;
                    self.directory.insert(name.clone(), keep);
                    report.adopted += 1;
                    for &s in at {
                        if s != keep {
                            match self.shards.get_mut(&s).expect("holder exists").delete(name) {
                                Ok(()) | Err(StorageError::UnknownObject { .. }) => {
                                    report.strays_evicted += 1;
                                }
                                Err(e) => return Err(e.into()),
                            }
                        }
                    }
                }
            }
        }
        // Directory entries whose recovered owner lost the bytes.
        let dropped: Vec<String> = self
            .directory
            .iter()
            .filter(|(name, &owner)| {
                self.up.get(&owner).copied().unwrap_or(false)
                    && holders.get(*name).is_none_or(|at| !at.contains(&owner))
            })
            .map(|(name, _)| name.clone())
            .collect();
        for name in dropped {
            self.meta_append(MetaRecord::DirDel { key: name.clone() })?;
            self.directory.remove(&name);
            report.directory_dropped += 1;
        }
        Ok(())
    }

    /// Publish the cluster gauges: `cluster.epoch`, per-shard object
    /// counts, and the [`ClusterStats`] totals. No-op without a registry.
    pub fn publish_gauges(&self) {
        let Some(reg) = &self.registry else { return };
        reg.gauge("cluster.epoch").set(self.view.epoch() as i64);
        reg.gauge("cluster.shards")
            .set(self.view.members().len() as i64);
        reg.gauge("cluster.objects")
            .set(self.directory.len() as i64);
        for (s, store) in &self.shards {
            reg.gauge(&format!("cluster.shard{s}.objects"))
                .set(store.num_objects() as i64);
        }
        reg.gauge("cluster.epoch_commits")
            .set(self.stats.epoch_commits as i64);
        reg.gauge("cluster.handover_aborts")
            .set(self.stats.handover_aborts as i64);
        reg.gauge("cluster.groups_moved")
            .set(self.stats.groups_moved as i64);
        reg.gauge("cluster.wholes_moved")
            .set(self.stats.wholes_moved as i64);
        reg.gauge("cluster.symbols_transferred")
            .set(self.stats.symbols_transferred as i64);
        reg.gauge("cluster.transfer_skips")
            .set(self.stats.transfer_skips as i64);
        reg.gauge("cluster.stale_writes_rejected")
            .set(self.stats.stale_writes_rejected as i64);
        reg.gauge("cluster.forwarded_reads")
            .set(self.stats.forwarded_reads as i64);
        reg.gauge("cluster.future_stamped_reads")
            .set(self.stats.future_stamped_reads as i64);
        reg.gauge("cluster.dual_writes")
            .set(self.stats.dual_writes as i64);
        reg.gauge("cluster.handover.replanned")
            .set(self.stats.handover_replanned as i64);
        reg.gauge("cluster.handover.pending_replan")
            .set(i64::from(self.pending_replan));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(members: &[ShardId]) -> ClusterStore {
        ClusterStore::new(
            CodeSpec::bcode_6_4(),
            GroupConfig::small_objects(),
            members,
            48,
        )
        .expect("bcode_6_4 builds")
    }

    fn payload(i: usize, version: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|j| ((i as u64 * 131 + version * 17 + j as u64) % 251) as u8)
            .collect()
    }

    fn key(i: usize) -> String {
        format!("obj-{i:03}")
    }

    /// Seed `count` objects (every sixth one large enough to be placed
    /// whole) and seal the open groups.
    fn seed(cs: &mut ClusterStore, count: usize) {
        for i in 0..count {
            let len = if i % 6 == 5 { 9_000 } else { 600 };
            cs.store(&key(i), &payload(i, 0, len), cs.epoch()).unwrap();
        }
        cs.flush_all();
    }

    fn assert_bit_exact(cs: &mut ClusterStore, count: usize, versions: &HashMap<usize, u64>) {
        for i in 0..count {
            let len_v = versions.get(&i).copied().unwrap_or(0);
            let len = if i % 6 == 5 { 9_000 } else { 600 };
            let read = cs
                .retrieve(&key(i), SelectionPolicy::FirstK, cs.epoch())
                .unwrap_or_else(|e| panic!("{} unreadable: {e}", key(i)));
            assert_eq!(read.bytes, payload(i, len_v, len), "{} bytes", key(i));
        }
    }

    /// After a committed or aborted handover every key must live on
    /// exactly one shard: no dual copy, no unit copy left behind.
    fn assert_single_homed(cs: &ClusterStore) {
        let per_shard: usize = cs.shards.values().map(|s| s.num_objects()).sum();
        assert_eq!(per_shard, cs.num_objects(), "stray copies left behind");
    }

    #[test]
    fn routing_round_trips_and_enforces_epoch_discipline() {
        let mut cs = cluster(&[0, 1, 2]);
        assert_eq!(cs.epoch(), 1);
        seed(&mut cs, 12);
        assert_bit_exact(&mut cs, 12, &HashMap::new());

        let err = cs.store("obj-000", b"stale", 0).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::StaleEpoch {
                stamped: 0,
                current: 1
            }
        ));
        assert_eq!(cs.stats().stale_writes_rejected, 1);

        // Reads with an old stamp are forwarded, not refused.
        let read = cs.retrieve("obj-001", SelectionPolicy::FirstK, 0).unwrap();
        assert_eq!(read.bytes, payload(1, 0, 600));
        assert_eq!(cs.stats().forwarded_reads, 1);

        // A stamp ahead of the committed epoch is served too, but counted
        // apart — a buggy client, not one lagging behind a view change.
        let read = cs.retrieve("obj-001", SelectionPolicy::FirstK, 99).unwrap();
        assert_eq!(read.bytes, payload(1, 0, 600));
        assert_eq!(cs.stats().forwarded_reads, 1);
        assert_eq!(cs.stats().future_stamped_reads, 1);

        cs.delete("obj-002", 1).unwrap();
        let gone = cs.retrieve("obj-002", SelectionPolicy::FirstK, 1);
        assert!(matches!(
            gone,
            Err(ClusterError::Storage(StorageError::UnknownObject { .. }))
        ));
        assert_eq!(cs.num_objects(), 11);
    }

    #[test]
    fn a_join_rebalances_units_for_one_symbol_per_node_each() {
        let mut cs = cluster(&[0, 1, 2]);
        seed(&mut cs, 60);
        let planned = cs.begin_handover(&[0, 1, 2, 3]).unwrap();
        assert!(planned > 0, "a new shard must steal some units");
        while cs.transfer_next().unwrap().is_some() {}
        let epoch = cs.commit_handover().unwrap();
        assert_eq!(epoch, 2);

        let stats = cs.stats();
        let units = stats.groups_moved + stats.wholes_moved;
        assert!(stats.groups_moved > 0, "groups must move as units");
        let n = cs.shard(0).unwrap().num_nodes() as u64;
        assert_eq!(
            stats.symbols_transferred,
            units * n,
            "each unit must cost exactly one symbol per node"
        );
        assert!(cs.shard(3).unwrap().num_objects() > 0);
        assert_bit_exact(&mut cs, 60, &HashMap::new());
        assert_single_homed(&cs);
    }

    #[test]
    fn overwrites_during_a_handover_win_after_commit() {
        let mut cs = cluster(&[0, 1, 2]);
        seed(&mut cs, 30);
        cs.begin_handover(&[0, 1, 2, 3]).unwrap();
        let mut versions = HashMap::new();
        let mut i = 0usize;
        while cs.transfer_next().unwrap().is_some() {
            let obj = (i * 7) % 30;
            let len = if obj % 6 == 5 { 9_000 } else { 600 };
            cs.store(&key(obj), &payload(obj, 1, len), cs.epoch())
                .unwrap();
            versions.insert(obj, 1);
            i += 1;
        }
        cs.commit_handover().unwrap();
        assert_bit_exact(&mut cs, 30, &versions);
        assert_single_homed(&cs);
    }

    #[test]
    fn an_overwrite_whose_target_owner_is_down_survives_commit() {
        let mut cs = cluster(&[0, 1, 2]);
        seed(&mut cs, 48);
        cs.begin_handover(&[0, 1, 2, 3]).unwrap();
        while cs.transfer_next().unwrap().is_some() {}
        // Lose the joiner once every transfer has landed, then overwrite
        // keys whose target-view owner it is: the dual write cannot apply,
        // so commit must pin each key to its committed owner's fresh copy
        // rather than repoint to the transferred pre-overwrite snapshot.
        cs.fail_shard(3);
        let candidates: Vec<(usize, String)> = {
            let h = cs.handover.as_ref().unwrap();
            (0..48)
                .filter_map(|i| {
                    let k = key(i);
                    h.moved.get(&k)?;
                    (h.target.owner_of(&k) == Some(3)).then_some((i, k))
                })
                .collect()
        };
        assert!(
            !candidates.is_empty(),
            "some transferred key targets the joiner"
        );
        let mut versions = HashMap::new();
        for (i, k) in &candidates {
            let len = if i % 6 == 5 { 9_000 } else { 600 };
            cs.store(k, &payload(*i, 1, len), cs.epoch()).unwrap();
            versions.insert(*i, 1);
        }
        assert_eq!(cs.stats().dual_writes, 0, "the target owner was down");
        cs.recover_shard(3);
        cs.commit_handover().unwrap();
        assert_bit_exact(&mut cs, 48, &versions);
        assert_single_homed(&cs);
    }

    #[test]
    fn a_superseded_unit_snapshot_is_never_served_when_the_dual_copy_is_down() {
        let mut cs = cluster(&[0, 1, 2]);
        seed(&mut cs, 72);
        // A join+leave change so a departing shard's keys can land on an
        // *existing* shard while their unit migrates to a different one.
        cs.begin_handover(&[0, 1, 3]).unwrap();
        while cs.transfer_next().unwrap().is_some() {}
        // A key whose primary, target-view owner, and transferred-unit
        // destination are three distinct shards: overwrite it (dual-applied
        // to the target owner), then lose both shards holding fresh bytes.
        let pick = {
            let h = cs.handover.as_ref().unwrap();
            (0..72).find_map(|i| {
                let k = key(i);
                let p = *cs.directory.get(&k)?;
                let d = *h.moved.get(&k)?;
                let t = h.target.owner_of(&k)?;
                (t != p && t != d && d != p).then_some((i, k, p, t))
            })
        };
        let (i, k, p, t) = pick.expect("some key has distinct primary/dual/unit shards");
        let len = if i % 6 == 5 { 9_000 } else { 600 };
        let fresh = payload(i, 1, len);
        cs.store(&k, &fresh, cs.epoch()).unwrap();
        cs.fail_shard(p);
        cs.fail_shard(t);
        // The transferred unit's shard is still up, but its snapshot
        // predates the overwrite: the read must fail honestly.
        let err = cs
            .retrieve(&k, SelectionPolicy::FirstK, cs.epoch())
            .unwrap_err();
        assert!(
            matches!(err, ClusterError::ShardDown(s) if s == p),
            "stale unit snapshot must not be served: {err}"
        );
        // With the dual copy back, the fresh bytes serve again.
        cs.recover_shard(t);
        let read = cs
            .retrieve(&k, SelectionPolicy::FirstK, cs.epoch())
            .unwrap();
        assert_eq!(read.bytes, fresh);
        assert!(read.fallback, "primary is still down");
        cs.recover_shard(p);
    }

    #[test]
    fn an_aborted_handover_leaves_no_copies_at_the_destination() {
        let mut cs = cluster(&[0, 1, 2]);
        seed(&mut cs, 30);
        cs.begin_handover(&[0, 1, 2, 3]).unwrap();
        let mut versions = HashMap::new();
        let mut i = 0usize;
        while cs.transfer_next().unwrap().is_some() {
            let obj = (i * 11) % 30;
            let len = if obj % 6 == 5 { 9_000 } else { 600 };
            cs.store(&key(obj), &payload(obj, 1, len), cs.epoch())
                .unwrap();
            versions.insert(obj, 1);
            i += 1;
        }
        assert!(cs.stats().dual_writes > 0, "handover writes must dual-log");
        cs.abort_handover().unwrap();
        assert_eq!(cs.epoch(), 1, "an abort must not advance the epoch");
        assert_eq!(
            cs.shard(3).unwrap().num_objects(),
            0,
            "every destination copy must be evicted"
        );
        assert_bit_exact(&mut cs, 30, &versions);
        assert_single_homed(&cs);
    }

    #[test]
    fn units_on_a_downed_source_are_skipped_and_recover_honestly() {
        let mut cs = cluster(&[0, 1, 2]);
        seed(&mut cs, 40);
        // Plan the handover while everyone is up, then lose shard 2: its
        // outbound units are skipped, stay directory-owned by it, and
        // read as honest unavailability until it returns.
        cs.begin_handover(&[0, 1]).unwrap();
        cs.fail_shard(2);
        while cs.transfer_next().unwrap().is_some() {}
        assert!(
            cs.stats().transfer_skips > 0,
            "downed source must be skipped"
        );
        cs.commit_handover().unwrap();
        assert_eq!(cs.epoch(), 2);

        let mut down = 0;
        for i in 0..40 {
            match cs.retrieve(&key(i), SelectionPolicy::FirstK, 2) {
                Ok(read) => {
                    let len = if i % 6 == 5 { 9_000 } else { 600 };
                    assert_eq!(read.bytes, payload(i, 0, len));
                }
                Err(ClusterError::ShardDown(2)) => down += 1,
                Err(e) => panic!("{}: unexpected {e}", key(i)),
            }
        }
        assert!(down > 0, "shard 2 owned something");

        cs.recover_shard(2);
        assert_bit_exact(&mut cs, 40, &HashMap::new());
    }

    /// Regression: units skipped during a handover used to stay stranded on
    /// their out-of-view owner until the *next* membership change happened
    /// to re-plan them. [`ClusterStore::replan_skipped`] re-homes them as
    /// soon as their source is reachable, with no membership change.
    #[test]
    fn replan_rehomes_stranded_units_without_a_membership_change() {
        let mut cs = cluster(&[0, 1, 2]);
        seed(&mut cs, 40);
        cs.begin_handover(&[0, 1]).unwrap();
        cs.fail_shard(2);
        while cs.transfer_next().unwrap().is_some() {}
        cs.commit_handover().unwrap();
        assert_eq!(cs.epoch(), 2);
        assert!(
            cs.pending_replan(),
            "skipped units must leave a pending replan, not vanish"
        );

        // While the stranded source is still down, a replan is a no-op:
        // the units stay put (and read honestly) instead of churning
        // epochs on transfers that can only skip again.
        assert_eq!(cs.replan_skipped().unwrap(), None);
        assert!(
            cs.pending_replan(),
            "still stranded while the source is down"
        );

        // The moment the source returns, a replan re-homes every stranded
        // unit into the committed member set — no membership change.
        cs.recover_shard(2);
        let epoch = cs.replan_skipped().unwrap().expect("replan must commit");
        assert_eq!(epoch, 3);
        assert!(!cs.pending_replan());
        assert!(cs.stats().handover_replanned > 0);
        assert_single_homed(&cs);
        assert_bit_exact(&mut cs, 40, &HashMap::new());

        // Converged: further replans are no-ops, no epoch churn.
        assert_eq!(cs.replan_skipped().unwrap(), None);
        assert_eq!(cs.epoch(), 3);
    }

    #[test]
    fn handover_telemetry_lands_in_the_registry() {
        let registry = Registry::new();
        let mut cs = cluster(&[0, 1, 2]);
        cs.attach_registry(&registry);
        seed(&mut cs, 24);
        cs.begin_handover(&[0, 1, 2, 3]).unwrap();
        while cs.transfer_next().unwrap().is_some() {}
        cs.commit_handover().unwrap();
        assert_eq!(registry.gauge_value("cluster.epoch"), 2);
        assert_eq!(registry.gauge_value("cluster.shards"), 4);
        assert!(registry.gauge_value("cluster.groups_moved") > 0);
        let spans = registry.spans();
        assert!(spans.iter().any(|s| s.name == "cluster.handover.begin"));
        assert!(spans.iter().any(|s| s.name == "cluster.handover.transfer"));
        assert!(spans.iter().any(|s| s.name == "cluster.handover.commit"));
    }
}
