//! Durability suite for the file-backed WAL: filesystem-fault crash
//! sweeps under every [`FsyncPolicy`], checkpoint-truncation equivalence,
//! the O(live state) replay bound, and counter honesty.
//!
//! ## The relaxed-fsync recovery oracle
//!
//! PR 5's invariant — *every acked object replays bit-exact* — is the
//! contract of [`FsyncPolicy::Always`] only. A batched policy trades a
//! bounded window of acked-but-unsynced records for fewer fsyncs, so the
//! honest contract is per-object **state-history membership**:
//!
//! * the harness records every acked state of every object, and advances a
//!   per-object durability **floor** whenever the store reports zero
//!   pending (un-fsynced) WAL bytes;
//! * after a power loss, the recovered value of each object must be one of
//!   its acked states **at or after the floor** (or the single in-flight
//!   op's value) — rollback past a known-fsynced state, a half-applied
//!   op, or bytes never acked are all violations.
//!
//! Under `Always` the floor tracks the newest acked state, so the check
//! degenerates to PR 5's exact invariant; under `EveryN`/`EveryT` it is
//! exactly "the un-fsynced tail may vanish; the fsynced prefix survives
//! bit-exact". The only fault that defeats the floor is firmware that
//! *lies* about fsync ([`SyncFault::Lie`]) — tested separately against
//! the weaker no-wrong-bytes bar, because no writer can promise more on
//! hardware that lies to it.
//!
//! ## The whole-state prefix oracle
//!
//! Per-object membership cannot see a *mix*: object A at a state from
//! before a lost record next to object B at a state from after it. The
//! store's contract is stronger — recovery lands on a state the
//! coordinator actually passed through — so the harness also snapshots
//! the **whole object map** after every acked op and requires the
//! recovered map to equal a snapshot at or after the durability floor, or
//! the newest snapshot with the in-flight op applied. This is the check
//! that fails when a whole -> whole overwrite installs its frames ahead of
//! a record the power loss then takes, unless the superseded frames were
//! parked (`limbo`) and recovery put them back.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rain_codes::{ArrayCode, BCode};
use rain_sim::SimDuration;
use rain_storage::{
    DistributedStore, FaultSpec, FaultyFile, FaultySegFs, FileLog, FsyncPolicy, GroupConfig,
    MemLog, SegmentedFile, SelectionPolicy, StorageError, SyncFault, WalError, WriteAheadLog,
};

fn code() -> Arc<ArrayCode> {
    Arc::new(BCode::table_1a())
}

/// Small threshold/capacity so short workloads cross every lifecycle edge
/// (grouped + whole placements, capacity auto-seals, compaction).
fn config() -> GroupConfig {
    GroupConfig {
        threshold: 64,
        capacity: 160,
        compact_watermark: 0.6,
        ..GroupConfig::disabled()
    }
    .logged()
}

/// One workload step (node churn is deliberately absent: the subject here
/// is the log's durability schedule, not symbol availability).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Op {
    /// Store object `name` with `len` deterministic bytes (overwrites ok).
    Store { name: u8, len: u16 },
    /// Delete object `name` (a no-op if unknown).
    Delete { name: u8 },
    /// Seal the open coding group.
    Flush,
    /// Rewrite sealed groups below the live watermark.
    Compact,
}

fn obj_name(name: u8) -> String {
    format!("obj-{name}")
}

/// Deterministic payload: a function of (name, store-op ordinal, length),
/// so reruns of a trace produce identical bytes.
fn payload(name: u8, version: u64, len: usize) -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ ((name as u64) << 32) ^ version;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// An object's logical state: its bytes, or absent.
type State = Option<Vec<u8>>;

/// The whole store's logical state: every live object's bytes.
type Snapshot = BTreeMap<String, Vec<u8>>;

fn apply(mut snap: Snapshot, name: &str, state: &State) -> Snapshot {
    match state {
        Some(bytes) => snap.insert(name.to_string(), bytes.clone()),
        None => snap.remove(name),
    };
    snap
}

/// The relaxed-fsync oracle (see the module docs).
struct Oracle {
    /// Every acked state per object, oldest first (index 0 is "absent").
    hist: BTreeMap<String, Vec<State>>,
    /// Index of the newest state known durable, per object.
    floor: BTreeMap<String, usize>,
    /// The whole object map after every acked op, oldest first (index 0
    /// is the empty store).
    snaps: Vec<Snapshot>,
    /// Index of the newest snapshot known durable.
    snap_floor: usize,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle {
            hist: BTreeMap::new(),
            floor: BTreeMap::new(),
            snaps: vec![Snapshot::new()],
            snap_floor: 0,
        }
    }
}

impl Oracle {
    fn ack(&mut self, name: &str, state: State) {
        let last = self.snaps.last().expect("genesis snapshot").clone();
        self.snaps.push(apply(last, name, &state));
        self.hist
            .entry(name.to_string())
            .or_insert_with(|| vec![None])
            .push(state);
    }

    /// Zero pending WAL bytes observed: everything acked so far is on
    /// durable storage.
    fn mark_durable(&mut self) {
        for (name, h) in &self.hist {
            self.floor.insert(name.clone(), h.len() - 1);
        }
        self.snap_floor = self.snaps.len() - 1;
    }

    /// The states `name` may legally recover to. With `trust_floor` off
    /// (lying-fsync runs) any acked state is legal — but never a foreign
    /// or half-applied one.
    fn allowed(&self, name: &str, trust_floor: bool) -> Vec<State> {
        let h = &self.hist[name];
        let f = if trust_floor {
            self.floor.get(name).copied().unwrap_or(0)
        } else {
            0
        };
        h[f..].to_vec()
    }
}

struct FileOutcome {
    store: DistributedStore,
    oracle: Oracle,
    /// The op the crash interrupted, if it targeted a single object: its
    /// name and the state it was trying to install.
    in_flight: Option<(String, State)>,
}

/// Run `ops` against a store logging to a [`FileLog`] over a
/// [`FaultyFile`] with the given fault plan, until completion or power
/// loss. `tick` virtual time elapses after every op (drives `EveryT`).
/// Injected non-fatal I/O failures (short writes, failed fsyncs) surface
/// as op errors: the op is simply not acked and the run continues.
fn drive_file(
    ops: &[Op],
    policy: FsyncPolicy,
    faults: FaultSpec,
    tick: SimDuration,
) -> (FileOutcome, rain_storage::FaultyHandle) {
    let (file, handle) = FaultyFile::new(faults);
    let log = FileLog::with_raw(Box::new(file), policy).expect("fresh faulty file");
    let store = DistributedStore::with_wal(code(), config(), Box::new(log));
    (drive_ops(store, ops, tick), handle)
}

/// The segmented twin of [`drive_file`]: same ops, same fault plan, but the
/// log rotates sealed segment files in a [`FaultySegFs`] directory.
fn drive_segmented(
    ops: &[Op],
    policy: FsyncPolicy,
    faults: FaultSpec,
    tick: SimDuration,
    segment_bytes: usize,
) -> (FileOutcome, rain_storage::FaultySegHandle) {
    let (fs, handle) = FaultySegFs::new(faults);
    let seg = SegmentedFile::open(Box::new(fs), segment_bytes).expect("fresh segment dir");
    let log = FileLog::with_raw(Box::new(seg), policy).expect("fresh segmented log");
    let store = DistributedStore::with_wal(code(), config(), Box::new(log));
    (drive_ops(store, ops, tick), handle)
}

fn drive_ops(mut store: DistributedStore, ops: &[Op], tick: SimDuration) -> FileOutcome {
    let mut oracle = Oracle::default();
    let mut version = 0u64;
    let mut in_flight = None;
    'drive: for op in ops {
        match op {
            Op::Store { name, len } => {
                version += 1;
                let key = obj_name(*name);
                let bytes = payload(*name, version, *len as usize);
                match store.store(&key, &bytes) {
                    Ok(()) => oracle.ack(&key, Some(bytes)),
                    Err(StorageError::Wal(WalError::Crashed)) => {
                        in_flight = Some((key, Some(bytes)));
                        break 'drive;
                    }
                    Err(StorageError::Wal(WalError::Backend(_))) => {}
                    Err(e) => panic!("unexpected store error: {e}"),
                }
            }
            Op::Delete { name } => {
                let key = obj_name(*name);
                match store.delete(&key) {
                    Ok(()) => oracle.ack(&key, None),
                    Err(StorageError::UnknownObject { .. }) => {}
                    Err(StorageError::Wal(WalError::Crashed)) => {
                        in_flight = Some((key, None));
                        break 'drive;
                    }
                    Err(StorageError::Wal(WalError::Backend(_))) => {}
                    Err(e) => panic!("unexpected delete error: {e}"),
                }
            }
            Op::Flush => match store.flush() {
                Ok(_) | Err(StorageError::Wal(WalError::Backend(_))) => {}
                Err(StorageError::Wal(WalError::Crashed)) => break 'drive,
                Err(e) => panic!("unexpected flush error: {e}"),
            },
            Op::Compact => match store.compact() {
                Ok(_) | Err(StorageError::Wal(WalError::Backend(_))) => {}
                Err(StorageError::Wal(WalError::Crashed)) => break 'drive,
                Err(e) => panic!("unexpected compact error: {e}"),
            },
        }
        if tick.0 > 0 {
            store.advance_time(tick);
        }
        if store.group_stats().wal_pending_sync_bytes == 0 {
            oracle.mark_durable();
        }
    }
    FileOutcome {
        store,
        oracle,
        in_flight,
    }
}

/// Drive into the crash, rebuild a log over the survivor image (what the
/// disk actually holds after the power loss), recover, and check the
/// oracle. `Err` carries a human-readable violation.
fn check_file_recovery(
    ops: &[Op],
    policy: FsyncPolicy,
    faults: FaultSpec,
    tick: SimDuration,
    trust_floor: bool,
) -> Result<(), String> {
    let (outcome, handle) = drive_file(ops, policy, faults, tick);
    let FileOutcome {
        store,
        oracle,
        in_flight,
    } = outcome;
    let (nodes, _discarded) = store.crash();
    let (survivor, _h) = FaultyFile::with_contents(handle.accepted_bytes(), FaultSpec::default());
    let wal = WriteAheadLog::new(Box::new(
        FileLog::with_raw(Box::new(survivor), policy).map_err(|e| format!("reopen: {e}"))?,
    ));
    let (mut rec, _report) = DistributedStore::recover(code(), config(), nodes, wal)
        .map_err(|e| format!("recovery failed: {e}"))?;
    check_against_oracle(&mut rec, &oracle, &in_flight, trust_floor)
}

/// The segmented twin of [`check_file_recovery`]: crash under the fault
/// plan, remount the survivor segment directory, recover, check the oracle.
fn check_segmented_recovery(
    ops: &[Op],
    policy: FsyncPolicy,
    faults: FaultSpec,
    tick: SimDuration,
    segment_bytes: usize,
) -> Result<(), String> {
    let (outcome, handle) = drive_segmented(ops, policy, faults, tick, segment_bytes);
    let FileOutcome {
        store,
        oracle,
        in_flight,
    } = outcome;
    let (nodes, _discarded) = store.crash();
    let (survivor, _h) = FaultySegFs::with_files(handle.accepted_files(), FaultSpec::default());
    let seg = SegmentedFile::open(Box::new(survivor), segment_bytes)
        .map_err(|e| format!("remount: {e}"))?;
    let wal = WriteAheadLog::new(Box::new(
        FileLog::with_raw(Box::new(seg), policy).map_err(|e| format!("reopen: {e}"))?,
    ));
    let (mut rec, _report) = DistributedStore::recover(code(), config(), nodes, wal)
        .map_err(|e| format!("recovery failed: {e}"))?;
    check_against_oracle(&mut rec, &oracle, &in_flight, true)
}

fn check_against_oracle(
    rec: &mut DistributedStore,
    oracle: &Oracle,
    in_flight: &Option<(String, State)>,
    trust_floor: bool,
) -> Result<(), String> {
    let names: Vec<String> = rec.object_names().map(String::from).collect();
    let mut recovered = Snapshot::new();
    for name in names {
        let known =
            oracle.hist.contains_key(&name) || in_flight.as_ref().is_some_and(|(n, _)| n == &name);
        if !known {
            return Err(format!("never-acked object {name} resurrected by recovery"));
        }
        match rec.retrieve(&name, SelectionPolicy::FirstK) {
            Ok((bytes, _)) => recovered.insert(name, bytes),
            Err(e) => return Err(format!("object {name} unreadable after recovery: {e}")),
        };
    }
    for name in oracle.hist.keys() {
        let got = recovered.get(name).cloned();
        let mut allowed = oracle.allowed(name, trust_floor);
        if let Some((in_name, state)) = &in_flight {
            if in_name == name {
                allowed.push(state.clone());
            }
        }
        if !allowed.contains(&got) {
            return Err(format!(
                "object {name} recovered to a disallowed state ({} bytes); \
                 {} states were legal",
                got.map(|b| b.len()).unwrap_or(0),
                allowed.len()
            ));
        }
    }
    // The whole-state prefix oracle (module docs). A lying fsync voids the
    // floor and with it any prefix promise, so it is checked only on
    // hardware that keeps its word.
    if trust_floor {
        let in_flight_snap = in_flight.as_ref().map(|(name, state)| {
            let newest = oracle.snaps.last().expect("genesis snapshot");
            apply(newest.clone(), name, state)
        });
        let legal = &oracle.snaps[oracle.snap_floor..];
        if !legal.contains(&recovered) && in_flight_snap.as_ref() != Some(&recovered) {
            return Err(format!(
                "recovered object map {:?} is no state the store passed \
                 through at or after the floor (snapshot {} of {})",
                recovered.keys().collect::<Vec<_>>(),
                oracle.snap_floor,
                oracle.snaps.len() - 1
            ));
        }
    }
    Ok(())
}

/// A fixed workload crossing every lifecycle edge: grouped and whole
/// placements, overwrites in all three directions (whole -> whole parks
/// the superseded frames while its record is un-fsynced), deletes, an
/// automatic capacity seal, explicit flushes, and compaction rewrites.
fn workload() -> Vec<Op> {
    use Op::*;
    vec![
        Store { name: 0, len: 40 }, // grouped
        Store { name: 1, len: 50 }, // grouped
        Store { name: 2, len: 80 }, // whole
        Flush,                      // seals group {0, 1}
        Store { name: 3, len: 30 }, // grouped, new group
        Store { name: 2, len: 90 }, // whole -> whole overwrite
        Store { name: 0, len: 45 }, // overwrite: tombstone in sealed group
        Delete { name: 1 },         // sealed group now fully dead -> drops
        Store { name: 4, len: 70 }, // whole
        Store { name: 4, len: 75 }, // whole -> whole overwrite ...
        Store { name: 4, len: 66 }, // ... and again
        Store { name: 2, len: 20 }, // whole -> grouped overwrite
        Compact,                    // rewrites the under-watermark group
        Store { name: 5, len: 60 }, // grouped ...
        Store { name: 6, len: 60 }, // ... fills toward capacity 160
        Store { name: 7, len: 60 }, // auto-seal on this append
        Delete { name: 3 },
        Store { name: 4, len: 10 }, // whole -> grouped overwrite
        Flush,
        Delete { name: 0 },
        Compact,
        Store { name: 1, len: 90 }, // whole again
        Store { name: 1, len: 96 }, // whole -> whole overwrite
    ]
}

/// Sweep power loss at **every raw write call** of `ops` × a set of
/// torn-byte survivals (0 = clean boundary, small and large mid-frame
/// tears), under one fsync policy. The final index past the last write is
/// the no-crash control. Returns the dry run's raw write count.
fn sweep_ops(ops: &[Op], policy: FsyncPolicy, tick: SimDuration) -> Result<usize, String> {
    let (dry, dry_handle) = drive_file(ops, policy, FaultSpec::default(), tick);
    if dry.in_flight.is_some() {
        return Err("dry run must complete".to_string());
    }
    let writes = dry_handle.writes();
    for w in 0..=writes {
        for torn in [0usize, 1, 9, 33] {
            let faults = FaultSpec {
                crash_on_write: Some((w, torn)),
                ..FaultSpec::default()
            };
            check_file_recovery(ops, policy, faults, tick, true).map_err(|e| {
                format!("policy {policy:?}, power loss at write {w}/{writes}, torn {torn}: {e}")
            })?;
        }
    }
    Ok(writes)
}

/// [`sweep_ops`] over the fixed workload.
fn sweep_policy(policy: FsyncPolicy, tick: SimDuration) {
    let writes = sweep_ops(&workload(), policy, tick).unwrap_or_else(|e| panic!("{e}"));
    assert!(writes >= 3, "policy produced too few raw writes: {writes}");
}

/// Satellite: the crash sweep under `Always` — every write is a record,
/// every acked record is fsynced, so recovery must be exact at every
/// boundary and tear point.
#[test]
fn file_crash_sweep_under_always() {
    sweep_policy(FsyncPolicy::Always, SimDuration(0));
}

/// Satellite: the crash sweep under `EveryN(3)` — batches of three records
/// share one write + fsync; the un-fsynced tail may vanish, the committed
/// prefix must survive bit-exact.
#[test]
fn file_crash_sweep_under_every_n() {
    sweep_policy(FsyncPolicy::EveryN(3), SimDuration(0));
}

/// Satellite: the crash sweep under `EveryT(5ms)` with 2ms elapsing per
/// op — commits ride the virtual clock instead of the record count.
#[test]
fn file_crash_sweep_under_every_t() {
    sweep_policy(
        FsyncPolicy::EveryT(SimDuration::from_millis(5)),
        SimDuration::from_millis(2),
    );
}

// ---------------------------------------------------------------------------
// Segmented log: power loss at and across rotation points.

/// Sweep power loss at **every segment-filesystem write** of the workload ×
/// torn-byte survivals, with segments small enough that the sweep crosses
/// many rotation points (a crash can land on the rotation seal, on the
/// first write into a fresh segment, or mid-frame in either).
fn sweep_segmented_policy(policy: FsyncPolicy, tick: SimDuration, segment_bytes: usize) {
    let ops = workload();
    let (dry, dry_handle) =
        drive_segmented(&ops, policy, FaultSpec::default(), tick, segment_bytes);
    assert!(dry.in_flight.is_none(), "dry run must complete");
    drop(dry);
    let rotated = dry_handle
        .accepted_files()
        .keys()
        .filter(|n| n.ends_with(".seg"))
        .count();
    assert!(
        rotated >= 3,
        "the sweep must cross rotation points: only {rotated} segments"
    );
    let writes = dry_handle.writes();
    for w in 0..=writes {
        for torn in [0usize, 1, 9] {
            let faults = FaultSpec {
                crash_on_write: Some((w, torn)),
                ..FaultSpec::default()
            };
            check_segmented_recovery(&ops, policy, faults, tick, segment_bytes).unwrap_or_else(
                |e| {
                    panic!(
                        "policy {policy:?}, segment_bytes {segment_bytes}, \
                         power loss at write {w}/{writes}, torn {torn}: {e}"
                    )
                },
            );
        }
    }
}

/// Satellite: segment-rotation crash sweep under `Always`.
#[test]
fn segmented_crash_sweep_under_always() {
    sweep_segmented_policy(FsyncPolicy::Always, SimDuration(0), 128);
}

/// Satellite: segment-rotation crash sweep under `EveryN(3)` — batched
/// commits can span a rotation, so one batch's bytes may straddle the
/// sealed segment and the fresh one.
#[test]
fn segmented_crash_sweep_under_every_n() {
    sweep_segmented_policy(FsyncPolicy::EveryN(3), SimDuration(0), 128);
}

/// Satellite: segment-rotation crash sweep under `EveryT(5ms)`.
#[test]
fn segmented_crash_sweep_under_every_t() {
    sweep_segmented_policy(
        FsyncPolicy::EveryT(SimDuration::from_millis(5)),
        SimDuration::from_millis(2),
        128,
    );
}

/// Satellite: non-fatal filesystem faults — a short write and a failed
/// fsync mid-workload — fail the op they hit, leave the log replayable in
/// place, and cost nothing that was acked.
#[test]
fn short_writes_and_failed_fsyncs_never_cost_acked_data() {
    for (wfault, sfault) in [
        (Some((2usize, 5usize)), None),
        (None, Some((3usize, SyncFault::Fail))),
        (Some((4, 0)), Some((1, SyncFault::Fail))),
    ] {
        let faults = FaultSpec {
            short_write: wfault,
            sync_fault: sfault,
            ..FaultSpec::default()
        };
        let (outcome, _handle) =
            drive_file(&workload(), FsyncPolicy::Always, faults, SimDuration(0));
        assert!(outcome.in_flight.is_none(), "faults here are non-fatal");
        let mut store = outcome.store;
        store.sync_wal().unwrap();
        let (nodes, wal) = store.crash();
        let (mut rec, _) =
            DistributedStore::recover(code(), config(), nodes, wal.unwrap()).unwrap();
        for (name, hist) in &outcome.oracle.hist {
            let want = hist.last().unwrap();
            let got = match rec.retrieve(name, SelectionPolicy::FirstK) {
                Ok((bytes, _)) => Some(bytes),
                Err(StorageError::UnknownObject { .. }) => None,
                Err(e) => panic!("{name} unreadable: {e}"),
            };
            assert_eq!(
                &got, want,
                "{name} must recover to its newest acked state \
                 (faults {wfault:?}/{sfault:?})"
            );
        }
    }
}

/// Satellite: firmware that lies about fsync forfeits the durability
/// floor — but recovery must still produce only acked states, never wrong
/// bytes or half-applied ops.
#[test]
fn a_lying_fsync_can_lose_acked_data_but_never_fabricates_it() {
    for lie_at in 0..4usize {
        for crash_at in 1..6usize {
            let faults = FaultSpec {
                sync_fault: Some((lie_at, SyncFault::Lie)),
                crash_on_write: Some((crash_at, 0)),
                ..FaultSpec::default()
            };
            check_file_recovery(
                &workload(),
                FsyncPolicy::Always,
                faults,
                SimDuration(0),
                false, // the floor is exactly what the lie invalidates
            )
            .unwrap_or_else(|e| panic!("lie at sync {lie_at}, crash at write {crash_at}: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint truncation: equivalence with full-log replay.

/// Run `ops` on a MemLog-backed store, checkpointing after each op index
/// listed in `ckpts` (which truncates the log prefix in place).
fn drive_ckpt(ops: &[Op], ckpts: &[usize]) -> DistributedStore {
    let mut store = DistributedStore::with_wal(code(), config(), Box::new(MemLog::new()));
    let mut version = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Store { name, len } => {
                version += 1;
                store
                    .store(&obj_name(*name), &payload(*name, version, *len as usize))
                    .unwrap();
            }
            Op::Delete { name } => match store.delete(&obj_name(*name)) {
                Ok(()) | Err(StorageError::UnknownObject { .. }) => {}
                Err(e) => panic!("unexpected delete error: {e}"),
            },
            Op::Flush => {
                store.flush().unwrap();
            }
            Op::Compact => {
                store.compact().unwrap();
            }
        }
        if ckpts.contains(&i) {
            store.checkpoint().unwrap();
        }
    }
    store
}

/// Crash, recover, and read back every object: the store's observable
/// post-recovery truth, plus the replayed record count.
fn fingerprint(store: DistributedStore) -> Result<(BTreeMap<String, Vec<u8>>, usize), String> {
    let (nodes, wal) = store.crash();
    let (mut rec, report) = DistributedStore::recover(
        code(),
        config(),
        nodes,
        wal.expect("logged store carries a wal"),
    )
    .map_err(|e| format!("recovery failed: {e}"))?;
    let names: Vec<String> = rec.object_names().map(String::from).collect();
    let mut map = BTreeMap::new();
    for name in names {
        let (bytes, _) = rec
            .retrieve(&name, SelectionPolicy::FirstK)
            .map_err(|e| format!("{name} unreadable after recovery: {e}"))?;
        map.insert(name, bytes);
    }
    Ok((map, report.records_replayed))
}

/// The equivalence property: recovery from checkpoint+suffix reproduces
/// exactly the state that recovery from the full untruncated log would.
fn check_ckpt_equivalence(ops: &[Op], ckpts: &[usize]) -> Result<(), String> {
    let (with, with_replayed) = fingerprint(drive_ckpt(ops, ckpts))?;
    let (without, without_replayed) = fingerprint(drive_ckpt(ops, &[]))?;
    if with != without {
        return Err(format!(
            "checkpointed recovery diverged: {} objects vs {} \
             (checkpoints after ops {ckpts:?})",
            with.len(),
            without.len()
        ));
    }
    // Truncation must never make replay longer than the full log (each
    // checkpoint adds one record but drops the prefix it supersedes).
    if with_replayed > without_replayed + ckpts.len() {
        return Err(format!(
            "checkpointing inflated replay: {with_replayed} records vs \
             {without_replayed} + {} checkpoints",
            ckpts.len()
        ));
    }
    Ok(())
}

/// Greedily minimise a failing (trace, checkpoint set): drop ops (shifting
/// checkpoint indexes over the hole), then drop checkpoints. Deterministic,
/// so the reported minimal reproduction is stable.
fn shrink_ckpt_failure(ops: &[Op], ckpts: &[usize]) -> (Vec<Op>, Vec<usize>) {
    let still_fails = |o: &[Op], c: &[usize]| check_ckpt_equivalence(o, c).is_err();
    let mut ops = ops.to_vec();
    let mut ckpts = ckpts.to_vec();
    debug_assert!(still_fails(&ops, &ckpts), "shrinking a non-failure");
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < ops.len() {
            let mut cand_ops = ops.clone();
            cand_ops.remove(i);
            let cand_ckpts: Vec<usize> = ckpts
                .iter()
                .filter(|&&c| c != i)
                .map(|&c| if c > i { c - 1 } else { c })
                .collect();
            if still_fails(&cand_ops, &cand_ckpts) {
                ops = cand_ops;
                ckpts = cand_ckpts;
                progressed = true;
            } else {
                i += 1;
            }
        }
        let mut j = 0;
        while j < ckpts.len() {
            let mut cand = ckpts.clone();
            cand.remove(j);
            if still_fails(&ops, &cand) {
                ckpts = cand;
                progressed = true;
            } else {
                j += 1;
            }
        }
        if !progressed {
            return (ops, ckpts);
        }
    }
}

/// Deterministic spot-check of the equivalence property on the fixed
/// workload with checkpoints at several hand-picked depths (including
/// right after a seal, mid-open-group, and back-to-back).
#[test]
fn checkpointed_recovery_matches_full_replay_on_the_fixed_workload() {
    let ops = workload();
    for ckpts in [
        vec![0usize],
        vec![3],
        vec![4],
        vec![9],
        vec![12, 13],
        vec![3, 9, 15],
        vec![18],
    ] {
        check_ckpt_equivalence(&ops, &ckpts)
            .unwrap_or_else(|e| panic!("checkpoints after {ckpts:?}: {e}"));
    }
}

/// Random-op strategy (vendored proptest takes plain `Strategy` impls;
/// weights favour stores so traces hold state worth checkpointing).
#[derive(Debug, Clone, Copy)]
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;
    fn sample(&self, rng: &mut proptest::TestRng) -> Op {
        match rng.below(10) {
            0..=5 => Op::Store {
                name: rng.below(8) as u8,
                len: rng.below(97) as u16,
            },
            6..=7 => Op::Delete {
                name: rng.below(8) as u8,
            },
            8 => Op::Flush,
            _ => Op::Compact,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: random workloads × random checkpoint placements —
    /// recovery from checkpoint+suffix is bit-identical to recovery from
    /// the full untruncated log. Failures shrink to a minimal trace.
    #[test]
    fn ckpt_prop_equivalent_to_full_replay(
        ops in proptest::collection::vec(OpStrategy, 4..32),
        ckpts in proptest::collection::vec(0usize..32, 0..4),
    ) {
        let ckpts: Vec<usize> = ckpts.into_iter().filter(|&c| c < ops.len()).collect();
        if let Err(msg) = check_ckpt_equivalence(&ops, &ckpts) {
            let (min_ops, min_ckpts) = shrink_ckpt_failure(&ops, &ckpts);
            prop_assert!(
                false,
                "{msg}\nminimal failing trace ({} ops, checkpoints {:?}): {:#?}",
                min_ops.len(),
                min_ckpts,
                min_ops
            );
        }
    }
}

/// Greedily drop ops from a failing crash-sweep trace while it still fails,
/// so a property failure reports a minimal reproduction.
fn shrink_sweep_failure(ops: &[Op], policy: FsyncPolicy) -> Vec<Op> {
    let mut ops = ops.to_vec();
    let mut i = 0;
    while i < ops.len() {
        let mut cand = ops.clone();
        cand.remove(i);
        if sweep_ops(&cand, policy, SimDuration(0)).is_err() {
            ops = cand;
        } else {
            i += 1;
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite: power loss at every raw write of a random trace × torn
    /// {0, 1, 9, 33} under two group-commit batch sizes, checked against
    /// both the per-object floor and the whole-state prefix oracle. Random
    /// traces overwrite whole objects inside un-fsynced batches, so this
    /// is the sweep that catches superseded frames lost (or left
    /// unrestored) ahead of their record.
    #[test]
    fn crash_sweep_prop_recovers_an_acked_prefix(
        ops in proptest::collection::vec(OpStrategy, 4..28),
    ) {
        for policy in [FsyncPolicy::EveryN(3), FsyncPolicy::EveryN(5)] {
            if let Err(msg) = sweep_ops(&ops, policy, SimDuration(0)) {
                let min = shrink_sweep_failure(&ops, policy);
                prop_assert!(
                    false,
                    "{msg}\nminimal failing trace ({} ops): {:#?}",
                    min.len(),
                    min
                );
            }
        }
    }
}

/// Satellite ("power cut between supersede and reclaim"): a whole -> whole
/// overwrite under `EveryN` costs no fsync — the superseded frames wait in
/// limbo — and a power loss before the batch commits brings the old
/// version back together with every other op of the lost batch.
#[test]
fn a_power_cut_between_supersede_and_reclaim_restores_the_old_frames() {
    let (file, handle) = FaultyFile::new(FaultSpec::default());
    let log = FileLog::with_raw(Box::new(file), FsyncPolicy::EveryN(8)).unwrap();
    let mut s = DistributedStore::with_wal(code(), config(), Box::new(log));
    let old = payload(2, 1, 80);
    s.store("w", &old).unwrap();
    s.sync_wal().unwrap();
    let syncs = handle.syncs();
    s.store("g", &[7u8; 20]).unwrap();
    s.store("w", &payload(2, 2, 90)).unwrap();
    assert_eq!(handle.syncs(), syncs, "the overwrite must not fsync");
    assert_eq!(
        s.retrieve("w", SelectionPolicy::FirstK).unwrap().0.len(),
        90
    );

    // Power loss now: only the synced prefix survives.
    let (nodes, _) = s.crash();
    let (survivor, _h) = FaultyFile::with_contents(handle.durable_bytes(), FaultSpec::default());
    let wal = WriteAheadLog::new(Box::new(
        FileLog::with_raw(Box::new(survivor), FsyncPolicy::EveryN(8)).unwrap(),
    ));
    let (mut rec, _) = DistributedStore::recover(code(), config(), nodes, wal).unwrap();
    let (bytes, rep) = rec.retrieve("w", SelectionPolicy::FirstK).unwrap();
    assert_eq!(bytes, old, "the parked frames came back");
    assert!(!rep.degraded, "every node restored its parked frame");
    assert!(matches!(
        rec.retrieve("g", SelectionPolicy::FirstK),
        Err(StorageError::UnknownObject { .. })
    ));

    // Once the batch is durable the parked frames are gone for good: the
    // same overwrite, synced, recovers to the new version.
    rec.store("w", &payload(2, 3, 70)).unwrap();
    rec.sync_wal().unwrap();
    let (nodes, wal) = rec.crash();
    let (mut rec, _) = DistributedStore::recover(code(), config(), nodes, wal.unwrap()).unwrap();
    let (bytes, rep) = rec.retrieve("w", SelectionPolicy::FirstK).unwrap();
    assert_eq!(bytes, payload(2, 3, 70));
    assert!(!rep.degraded);
}

// ---------------------------------------------------------------------------
// Segmented vs single-file recovery equivalence.

/// Drive `ops` faultlessly under `Always`, crash, remount, recover, and
/// report (object map, records replayed) — the recovery fingerprint.
fn survivor_fingerprint(
    ops: &[Op],
    segment_bytes: Option<usize>,
) -> Result<(BTreeMap<String, Vec<u8>>, usize), String> {
    let policy = FsyncPolicy::Always;
    let (outcome, wal) = match segment_bytes {
        None => {
            let (outcome, handle) = drive_file(ops, policy, FaultSpec::default(), SimDuration(0));
            let (survivor, _h) =
                FaultyFile::with_contents(handle.accepted_bytes(), FaultSpec::default());
            let log = FileLog::with_raw(Box::new(survivor), policy)
                .map_err(|e| format!("reopen: {e}"))?;
            (outcome, WriteAheadLog::new(Box::new(log)))
        }
        Some(bytes) => {
            let (outcome, handle) =
                drive_segmented(ops, policy, FaultSpec::default(), SimDuration(0), bytes);
            let (survivor, _h) =
                FaultySegFs::with_files(handle.accepted_files(), FaultSpec::default());
            let seg = SegmentedFile::open(Box::new(survivor), bytes)
                .map_err(|e| format!("remount: {e}"))?;
            let log =
                FileLog::with_raw(Box::new(seg), policy).map_err(|e| format!("reopen: {e}"))?;
            (outcome, WriteAheadLog::new(Box::new(log)))
        }
    };
    if outcome.in_flight.is_some() {
        return Err("faultless drive must complete".to_string());
    }
    let (nodes, _discarded) = outcome.store.crash();
    let (mut rec, report) = DistributedStore::recover(code(), config(), nodes, wal)
        .map_err(|e| format!("recovery failed: {e}"))?;
    let names: Vec<String> = rec.object_names().map(String::from).collect();
    let mut map = BTreeMap::new();
    for name in names {
        let (bytes, _) = rec
            .retrieve(&name, SelectionPolicy::FirstK)
            .map_err(|e| format!("{name} unreadable after recovery: {e}"))?;
        map.insert(name, bytes);
    }
    Ok((map, report.records_replayed))
}

/// Regression (found by the fingerprint property below): a whole-object
/// store whose symbols a later applied op removed used to skip its
/// grouped-predecessor tombstone during replay. The open group replayed
/// fuller than the live run's, capacity-sealed at a different append, and
/// recovery failed with "log appends to group after it sealed" — on a log
/// written and recovered under the *same* config.
#[test]
fn superseded_whole_store_replays_its_open_group_tombstone() {
    use Op::*;
    let ops = vec![
        Store { name: 1, len: 22 }, // grouped: sole member of group 0
        Store { name: 1, len: 77 }, // whole overwrite: live run resets group 0
        Store { name: 7, len: 1 },
        Store { name: 1, len: 14 }, // grouped again: the whole symbols vanish
        Store { name: 0, len: 60 },
        Store { name: 0, len: 57 },
        Store { name: 4, len: 14 }, // live seals here; buggy replay sealed earlier
        Store { name: 0, len: 51 },
    ];
    survivor_fingerprint(&ops, None).unwrap_or_else(|e| panic!("single-file: {e}"));
    survivor_fingerprint(&ops, Some(128)).unwrap_or_else(|e| panic!("segmented: {e}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite: for any workload, recovery from a segmented log is
    /// fingerprint-identical to recovery from the single-file layout —
    /// same objects, same bytes, same record count — at segment sizes from
    /// "almost every frame rotates" to "nothing rotates".
    #[test]
    fn segmented_recovery_prop_matches_single_file(
        ops in proptest::collection::vec(OpStrategy, 4..32),
    ) {
        let single = survivor_fingerprint(&ops, None)
            .unwrap_or_else(|e| panic!("single-file fingerprint: {e}\nops: {ops:#?}"));
        for segment_bytes in [48usize, 128, 4096] {
            let segmented = survivor_fingerprint(&ops, Some(segment_bytes))
                .unwrap_or_else(|e| panic!("segmented({segment_bytes}) fingerprint: {e}"));
            prop_assert!(
                segmented == single,
                "segment_bytes {segment_bytes} diverged from single-file: \
                 {segmented:?} vs {single:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The O(live state) replay bound.

/// Run `rounds` overwrites over a fixed six-object working set and report
/// (records_replayed, wal_records at crash time).
fn replay_cost(rounds: u32, checkpoint_every: u64) -> (usize, u64) {
    let config = config().with_checkpoint_every(checkpoint_every);
    let mut store = DistributedStore::with_groups(code(), config);
    for round in 0..rounds {
        let name = (round % 6) as u8;
        store
            .store(&obj_name(name), &payload(name, round as u64 + 1, 40))
            .unwrap();
    }
    let wal_records = store.group_stats().wal_records;
    let (nodes, wal) = store.crash();
    let (rec, report) = DistributedStore::recover(code(), config, nodes, wal.unwrap()).unwrap();
    assert_eq!(rec.num_objects(), 6, "the working set survives");
    (report.records_replayed, wal_records)
}

/// Acceptance: replay is O(live state), not O(history). With checkpoints
/// every 10 records, an 80-op history and an 800-op history replay the
/// same bounded record count; without checkpoints the replay grows with
/// the workload.
#[test]
fn replay_is_o_live_state_after_checkpoint_truncation() {
    // Two-checkpoint retention bounds the log to roughly two intervals
    // plus the two retained checkpoint records (auto-seals can overshoot
    // an interval by a record or two).
    let bound = 2 * 10 + 6;
    let (replayed_short, records_short) = replay_cost(80, 10);
    let (replayed_long, records_long) = replay_cost(800, 10);
    assert!(
        replayed_short <= bound && replayed_long <= bound,
        "bounded replay: {replayed_short} then {replayed_long} records (bound {bound})"
    );
    assert!(records_short <= bound as u64 && records_long <= bound as u64);
    assert!(
        replayed_long <= replayed_short + 2,
        "10x the history must not grow the replay: {replayed_short} -> {replayed_long}"
    );

    // The control: no checkpoints, replay scales with history.
    let (replayed_control, _) = replay_cost(800, 0);
    assert!(
        replayed_control >= 800,
        "uncheckpointed replay is O(history): {replayed_control}"
    );
}

// ---------------------------------------------------------------------------
// Counter honesty across batching and truncation.

/// Satellite: `wal_records`/`wal_bytes` count what is *in* the log (so
/// truncation subtracts), `wal_pending_sync_bytes` tracks the un-fsynced
/// tail through group-commit batching, and `bytes_unsynced` counts exactly
/// the acked group payload bytes a power loss would take.
#[test]
fn wal_counters_stay_honest_across_batching_and_truncation() {
    let (file, handle) = FaultyFile::new(FaultSpec::default());
    let log = FileLog::with_raw(Box::new(file), FsyncPolicy::EveryN(4)).unwrap();
    let mut s = DistributedStore::with_wal(code(), config(), Box::new(log));

    s.store("a", &[1u8; 24]).unwrap();
    s.store("b", &[2u8; 40]).unwrap();
    let stats = s.group_stats();
    assert_eq!(stats.wal_records, 2);
    assert!(
        stats.wal_pending_sync_bytes > 0,
        "batch of 2 < 4 not committed"
    );
    assert_eq!(
        stats.wal_pending_sync_bytes, stats.wal_bytes,
        "nothing committed yet: the whole log is the pending tail"
    );
    assert_eq!(
        stats.bytes_unsynced, 64,
        "the two grouped payloads are acked but would not survive power loss"
    );
    assert_eq!(handle.synced_len(), 0);

    s.sync_wal().unwrap();
    let stats = s.group_stats();
    assert_eq!(stats.wal_pending_sync_bytes, 0);
    assert_eq!(stats.bytes_unsynced, 0);
    assert_eq!(stats.wal_records, 2, "sync moves bytes, not records");
    assert_eq!(handle.durable_bytes().len() as u64, stats.wal_bytes);

    // A whole-object store carries no group payload: it leaves frame bytes
    // pending but zero group bytes at risk of power loss (its data lives in
    // node symbols, not the log).
    s.store("big", &[3u8; 100]).unwrap();
    let stats = s.group_stats();
    assert!(stats.wal_pending_sync_bytes > 0);
    assert_eq!(stats.bytes_unsynced, 0);

    // Checkpoint truncation: the second checkpoint drops the prefix before
    // the first, and the in-log counters shrink to match.
    let before = s.group_stats();
    s.checkpoint().unwrap();
    let first = s.group_stats();
    assert!(
        first.wal_records >= before.wal_records,
        "nothing dropped yet"
    );
    assert_eq!(first.wal_checkpoints, 1);
    s.store("c", &[4u8; 30]).unwrap();
    s.checkpoint().unwrap();
    let second = s.group_stats();
    assert_eq!(second.wal_checkpoints, 2);
    assert!(
        second.wal_records < first.wal_records + 2,
        "truncation must subtract: {} -> {}",
        first.wal_records,
        second.wal_records
    );
    assert_eq!(
        second.wal_pending_sync_bytes, 0,
        "checkpointing syncs before it truncates"
    );

    // The counters must agree with a replay scan of the actual log.
    s.sync_wal().unwrap();
    let stats = s.group_stats();
    let (_nodes, wal) = s.crash();
    let wal = wal.unwrap();
    let replay = wal.replay().unwrap();
    assert!(!replay.torn_tail);
    assert_eq!(replay.records.len() as u64, stats.wal_records);
    assert_eq!(replay.bytes_replayed as u64, stats.wal_bytes);
}

/// Satellite: `bytes_at_risk` (acked bytes not yet erasure-coded) is a
/// statement about *groups*, and survives checkpoint truncation unchanged:
/// dropping replayed-out log prefix does not change which bytes are still
/// only coordinator-buffered.
#[test]
fn bytes_at_risk_is_unchanged_by_checkpoint_truncation() {
    let mut s = DistributedStore::with_groups(code(), config());
    s.store("a", &[1u8; 40]).unwrap();
    s.store("b", &[2u8; 24]).unwrap();
    assert_eq!(s.group_stats().bytes_at_risk, 64);
    s.checkpoint().unwrap();
    s.checkpoint().unwrap(); // second one truncates the prefix
    assert_eq!(
        s.group_stats().bytes_at_risk,
        64,
        "open-group bytes stay at risk however short the log is"
    );
    s.flush().unwrap();
    assert_eq!(s.group_stats().bytes_at_risk, 0, "sealed = erasure-coded");

    // And recovery from the truncated log still rebuilds the open group
    // from the checkpoint snapshot alone.
    let mut s2 = DistributedStore::with_groups(code(), config());
    s2.store("x", &[7u8; 40]).unwrap();
    s2.checkpoint().unwrap();
    s2.checkpoint().unwrap();
    let (nodes, wal) = s2.crash();
    let (mut rec, report) =
        DistributedStore::recover(code(), config(), nodes, wal.unwrap()).unwrap();
    assert!(report.checkpoint_restored);
    assert_eq!(
        rec.retrieve("x", SelectionPolicy::FirstK).unwrap().0,
        vec![7u8; 40]
    );
    assert_eq!(rec.group_stats().bytes_at_risk, 40);
}
