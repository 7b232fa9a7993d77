//! Checkpoint order and the borrowed checkpoint encoders, on both logs.
//!
//! A checkpoint lists its named entries (a shard's objects, the cluster's
//! exceptions) in canonical order: ascending `name_hash` of the name, ties
//! by name. So two coordinators that reach one state through different
//! histories write byte-identical checkpoint frames, whatever order their
//! hash tables hold the entries in. The live path encodes straight from
//! those tables through a borrowed view; it must write the bytes the owned
//! record writes for the same entries in the same order. Replay accepts
//! any order, so a checkpoint listed by name, as older logs hold them,
//! still restores to the same state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rain_cluster::{ClusterStore, MetaRecord, MetaState, MetaView, ShardId};
use rain_codes::{CodeKind, CodeSpec, ReedSolomon};
use rain_storage::wal::RecordView;
use rain_storage::{
    name_hash, scan_frames, sort_canonical, CheckpointState, CheckpointView, DistributedStore,
    FsyncPolicy, GroupConfig, LogRecord, MemLog, Named, SelectionPolicy, WalRecord, WriteAheadLog,
};

fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (i * 31 + j * 7) as u8).collect()
}

/// Grouping below 64 B; whole objects are 100 B, grouped ones 20 B.
fn config() -> GroupConfig {
    GroupConfig {
        threshold: 64,
        capacity: 160,
        ..GroupConfig::disabled()
    }
    .logged()
    .with_fsync(FsyncPolicy::Always)
}

fn whole(i: usize) -> (String, Vec<u8>) {
    (format!("whole-{i}"), payload(i, 100))
}

fn small(i: usize) -> (String, Vec<u8>) {
    (format!("small-{i}"), payload(i, 20))
}

/// One history of a shard store: whole objects stored in `order`, with
/// `churn` deleted and re-inserted, and grouped objects stored, one
/// deleted and another re-stored, in one fixed order (a group's spans
/// depend on append order, so only the whole objects' order varies).
fn shard_history(s: &mut DistributedStore, order: &[usize], churn: usize) {
    for &i in order {
        let (key, data) = whole(i);
        s.store(&key, &data).unwrap();
        if i == order[0] {
            for g in 0..12 {
                let (key, data) = small(g);
                s.store(&key, &data).unwrap();
            }
            s.delete(&small(3).0).unwrap();
            s.store(&small(5).0, &small(5).1).unwrap();
        }
    }
    let (key, data) = whole(churn);
    s.delete(&key).unwrap();
    s.store(&key, &data).unwrap();
}

/// The payload of the newest checkpoint frame in a log image.
fn newest_checkpoint<R: LogRecord>(log: &[u8]) -> Vec<u8> {
    let scan = scan_frames(log).unwrap();
    scan.frames
        .iter()
        .rev()
        .map(|(_, payload)| &log[payload.clone()])
        .find(|payload| R::is_checkpoint(R::from_payload(payload).unwrap().view()))
        .expect("the log holds a checkpoint")
        .to_vec()
}

fn logged_store() -> DistributedStore {
    let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
    DistributedStore::with_wal(code, config(), Box::new(MemLog::new()))
}

/// Take a checkpoint and return its frame's payload and the log.
fn checkpoint_of(mut s: DistributedStore) -> (Vec<u8>, WriteAheadLog) {
    s.checkpoint().unwrap();
    let (_, wal) = s.crash();
    let wal = wal.expect("a logged store");
    (
        newest_checkpoint::<WalRecord>(&wal.contents().unwrap()),
        wal,
    )
}

fn decoded_state(payload: &[u8]) -> CheckpointState {
    match WalRecord::from_payload(payload) {
        Some(WalRecord::Checkpoint {
            state,
            state_crc_ok: true,
        }) => state,
        other => panic!("not a sound checkpoint: {other:?}"),
    }
}

#[test]
fn shard_checkpoints_of_one_state_reached_two_ways_are_byte_identical() {
    let mut a = logged_store();
    shard_history(&mut a, &(0..16).collect::<Vec<_>>(), 3);
    let mut b = logged_store();
    shard_history(&mut b, &(0..16).rev().collect::<Vec<_>>(), 9);
    let (a, _) = checkpoint_of(a);
    let (b, _) = checkpoint_of(b);
    assert_eq!(a, b);
    let state = decoded_state(&a);
    assert_eq!(state.objects.len(), 16 + 11);
    assert!(state.groups.len() > 1, "the history sealed groups");
}

#[test]
fn shard_checkpoints_list_objects_in_canonical_order() {
    let mut s = logged_store();
    shard_history(&mut s, &(0..16).collect::<Vec<_>>(), 3);
    let state = decoded_state(&checkpoint_of(s).0);
    let keys: Vec<(u64, &str)> = state
        .objects
        .iter()
        .map(|(name, _)| (name_hash(name), name.as_str()))
        .collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
    assert!(state.groups.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn borrowed_and_owned_shard_checkpoints_encode_the_same_bytes() {
    let mut s = logged_store();
    shard_history(&mut s, &(0..16).collect::<Vec<_>>(), 3);
    let written = checkpoint_of(s).0;
    let state = decoded_state(&written);

    let mut owned = Vec::new();
    WalRecord::encode(RecordView::Checkpoint { state: &state }, &mut owned);
    assert_eq!(owned, written);

    // The same entries in another order: both encoders follow it.
    for reorder in [false, true] {
        let mut objects: Vec<Named<_>> = state
            .objects
            .iter()
            .map(|(name, p)| Named::new(name, *p))
            .collect();
        let mut owned_state = state.clone();
        if reorder {
            objects.reverse();
            owned_state.objects.reverse();
        }
        let groups: Vec<_> = state.groups.iter().map(|(gid, g)| (*gid, g)).collect();
        let view = CheckpointView {
            next_group_id: state.next_group_id,
            open_group: state.open_group,
            objects: &objects,
            groups: &groups,
        };
        let mut borrowed = Vec::new();
        WalRecord::encode(RecordView::LiveCheckpoint { state: view }, &mut borrowed);
        let mut owned = Vec::new();
        let view = RecordView::Checkpoint {
            state: &owned_state,
        };
        WalRecord::encode(view, &mut owned);
        assert_eq!(borrowed, owned, "reordered: {reorder}");
        assert_eq!(borrowed == written, !reorder);
    }
}

/// The shard history plus an open group with buffered bytes, which ride
/// in the checkpoint too.
fn shard_with_open_group() -> DistributedStore {
    let mut s = logged_store();
    shard_history(&mut s, &(0..16).collect::<Vec<_>>(), 3);
    s.store("open-tail", &payload(99, 20)).unwrap();
    s
}

/// Every object's bytes.
fn contents(s: &mut DistributedStore) -> HashMap<String, Vec<u8>> {
    (0..16)
        .map(|i| whole(i).0)
        .chain((0..12).filter(|&g| g != 3).map(|g| small(g).0))
        .chain(["open-tail".to_string()])
        .map(|n| {
            let (data, _) = s.retrieve(&n, SelectionPolicy::FirstK).unwrap();
            (n, data)
        })
        .collect()
}

#[test]
fn a_name_ordered_shard_checkpoint_restores_the_same_state() {
    let code = || Arc::new(ReedSolomon::new(6, 4).unwrap());
    let mut s = shard_with_open_group();
    let expected = contents(&mut s);
    let (canonical, _) = checkpoint_of(s);

    // The same snapshot, objects listed by name, alone in a fresh log, over
    // the nodes of a second run of the same history.
    let mut state = decoded_state(&canonical);
    state.objects.sort_by(|a, b| a.0.cmp(&b.0));
    let mut log = WriteAheadLog::in_memory();
    log.append(&WalRecord::Checkpoint {
        state,
        state_crc_ok: true,
    })
    .unwrap();
    let nodes = shard_with_open_group().crash().0;
    let (mut s, report) = DistributedStore::recover(code(), config(), nodes, log).unwrap();
    assert!(report.checkpoint_restored);
    assert_eq!(report.objects_recovered, expected.len());
    assert_eq!(contents(&mut s), expected);
    assert_eq!(
        checkpoint_of(s).0,
        canonical,
        "the restored state checkpoints to the canonical bytes"
    );
}

/// One history of a cluster: whole objects in `order`, `churn` deleted
/// and re-inserted, grouped objects in one fixed order, then the same
/// closing operations: a flush, a join during which the joiner is down
/// while the keys it is to own are overwritten, and a store and delete.
fn cluster_history(dir: &std::path::Path, order: &[usize], churn: usize) -> ClusterStore {
    let config = config().with_checkpoint_every(1);
    let spec = CodeSpec::new(CodeKind::ReedSolomon, 6, 4);
    let mut cluster = ClusterStore::with_wal_dir(spec, config, &[0, 1, 2], 8, dir).unwrap();
    let epoch = cluster.epoch();
    for &i in order {
        let (key, data) = whole(i);
        cluster.store(&key, &data, epoch).unwrap();
        if i == order[0] {
            for g in 0..12 {
                let (key, data) = small(g);
                cluster.store(&key, &data, epoch).unwrap();
            }
            cluster.delete(&small(3).0, epoch).unwrap();
        }
    }
    let (key, data) = whole(churn);
    cluster.delete(&key, epoch).unwrap();
    cluster.store(&key, &data, epoch).unwrap();
    cluster.flush_all();
    // A join moves sealed groups to shard 3, which assigns them placement
    // keys.
    cluster.begin_handover(&[0, 1, 2, 3]).unwrap();
    while cluster.transfer_next().unwrap().is_some() {}
    // Each override pins its key to the committed owner, off its new ring
    // owner: an exception, which the metalog checkpoint carries.
    cluster.fail_shard(3);
    for (key, data) in pinned_keys(&cluster) {
        cluster.store(&key, &data, epoch).unwrap();
    }
    cluster.recover_shard(3);
    cluster.commit_handover().unwrap();
    let epoch = cluster.epoch();
    let (key, data) = whole(100);
    cluster.store(&key, &data, epoch).unwrap();
    cluster.delete(&key, epoch).unwrap();
    for s in cluster.view().members().to_vec() {
        cluster.shard_mut(s).unwrap().checkpoint().unwrap();
    }
    cluster
}

/// The live keys of [`cluster_history`] whose ring owner after the join
/// is shard 3, with their bytes.
fn pinned_keys(cluster: &ClusterStore) -> Vec<(String, Vec<u8>)> {
    let target = cluster.view().successor(&[0, 1, 2, 3]);
    (0..12)
        .filter(|&g| g != 3)
        .map(small)
        .chain((0..16).map(whole))
        .filter(|(key, _)| target.owner_of(key) == Some(3))
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "rain-ckpt-order-{tag}-{}-{seq}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The newest checkpoint of the metalog and of each shard log in `dir`.
fn cluster_checkpoints(dir: &std::path::Path, shards: &[ShardId]) -> Vec<Vec<u8>> {
    let meta = std::fs::read(dir.join("cluster.meta")).unwrap();
    let mut all = vec![newest_checkpoint::<MetaRecord>(&meta)];
    for s in shards {
        let log = std::fs::read(dir.join(format!("shard-{s}.wal"))).unwrap();
        all.push(newest_checkpoint::<WalRecord>(&log));
    }
    all
}

fn meta_checkpoint(payload: &[u8]) -> MetaRecord {
    let record = MetaRecord::from_payload(payload).unwrap();
    assert!(matches!(record, MetaRecord::Checkpoint { .. }));
    record
}

#[test]
fn cluster_checkpoints_of_one_state_reached_two_ways_are_byte_identical() {
    let (dir_a, dir_b) = (temp_dir("a"), temp_dir("b"));
    let a = cluster_history(&dir_a, &(0..16).collect::<Vec<_>>(), 3);
    let b = cluster_history(&dir_b, &(0..16).rev().collect::<Vec<_>>(), 9);
    let shards = a.view().members().to_vec();
    assert_eq!(shards, b.view().members());
    let (ckpt_a, ckpt_b) = (
        cluster_checkpoints(&dir_a, &shards),
        cluster_checkpoints(&dir_b, &shards),
    );
    assert_eq!(ckpt_a, ckpt_b);
    let MetaRecord::Checkpoint {
        directory, pkeys, ..
    } = meta_checkpoint(&ckpt_a[0])
    else {
        unreachable!()
    };
    assert_eq!(directory.len(), pinned_keys(&a).len());
    assert!(directory.len() >= 2, "{directory:?}");
    assert!(pkeys.len() > 1, "the join assigned placement keys");
    let keys: Vec<(u64, &str)> = directory
        .iter()
        .map(|(k, _)| (name_hash(k), k.as_str()))
        .collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "canonical order");
    assert!(pkeys
        .windows(2)
        .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    drop((a, b));
    for dir in [dir_a, dir_b] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn borrowed_and_owned_metalog_checkpoints_encode_the_same_bytes() {
    let dir = temp_dir("meta");
    let cluster = cluster_history(&dir, &(0..16).collect::<Vec<_>>(), 3);
    let written = cluster_checkpoints(&dir, &[])[0].clone();
    let record = meta_checkpoint(&written);
    let mut owned = Vec::new();
    MetaRecord::encode(record.view(), &mut owned);
    assert_eq!(owned, written);

    let MetaRecord::Checkpoint {
        epoch,
        members,
        vnodes,
        directory,
        pkeys,
    } = &record
    else {
        unreachable!()
    };
    let mut entries: Vec<Named<ShardId>> =
        directory.iter().map(|(k, s)| Named::new(k, *s)).collect();
    let pkey_refs: Vec<(ShardId, u64, &str)> =
        pkeys.iter().map(|(s, g, p)| (*s, *g, p.as_str())).collect();
    let borrowed = |entries: &[Named<ShardId>]| {
        let mut out = Vec::new();
        let view = MetaView::Checkpoint {
            epoch: *epoch,
            members,
            vnodes: *vnodes,
            directory: entries,
            pkeys: &pkey_refs,
        };
        MetaRecord::encode(view, &mut out);
        out
    };
    assert_eq!(borrowed(&entries), written);
    // Reordered entries: the borrowed encoder writes what the owned one
    // writes for that order.
    entries.reverse();
    let mut reversed = record.clone();
    if let MetaRecord::Checkpoint { directory, .. } = &mut reversed {
        directory.reverse();
    }
    let mut owned = Vec::new();
    MetaRecord::encode(reversed.view(), &mut owned);
    assert_eq!(borrowed(&entries), owned);
    assert_ne!(owned, written);
    // Sorting restores the canonical bytes.
    sort_canonical(&mut entries);
    assert_eq!(borrowed(&entries), written);
    drop(cluster);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_name_ordered_metalog_checkpoint_folds_to_the_same_state() {
    let dir = temp_dir("fold");
    let cluster = cluster_history(&dir, &(0..16).collect::<Vec<_>>(), 3);
    let canonical = meta_checkpoint(&cluster_checkpoints(&dir, &[])[0]);
    let mut by_name = canonical.clone();
    if let MetaRecord::Checkpoint { directory, .. } = &mut by_name {
        directory.sort();
    }
    assert_ne!(by_name, canonical, "the two orders differ");
    let (a, b) = (
        MetaState::fold(vec![canonical]),
        MetaState::fold(vec![by_name]),
    );
    assert_eq!(a.exceptions, b.exceptions);
    assert_eq!(a.pkeys, b.pkeys);
    assert_eq!(a.view, b.view);
    drop(cluster);
    std::fs::remove_dir_all(dir).unwrap();
}
