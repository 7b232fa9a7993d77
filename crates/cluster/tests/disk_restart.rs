//! Cluster restart from disk: every shard coordinator is torn down and
//! rebuilt purely from its file-backed per-shard WAL after a churn
//! scenario (writes, seals, a committed rebalance handover, a shard
//! death). The bar is the same as for live churn: every acked object is
//! served bit-exact or reported honestly unavailable — never wrong bytes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rain_cluster::{ClusterError, ClusterStore, MetaLog, MetaRecord, ShardId, MAX_VNODES};
use rain_codes::{CodeKind, CodeSpec};
use rain_sim::SimDuration;
use rain_storage::{
    FileLog, FsyncPolicy, GroupConfig, LogBackend, MemLog, SelectionPolicy, StorageError, WalError,
};

fn spec() -> CodeSpec {
    CodeSpec::bcode_6_4()
}

fn config() -> GroupConfig {
    GroupConfig {
        threshold: 64,
        capacity: 160,
        compact_watermark: 0.6,
        ..GroupConfig::disabled()
    }
    .logged()
}

/// A fresh per-test WAL directory under the system temp dir.
fn wal_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("rain-cluster-{tag}-{pid}-{seq}"));
    std::fs::create_dir_all(&dir).expect("create wal dir");
    dir
}

fn payload(i: u32, len: usize) -> Vec<u8> {
    (0..len).map(|j| (i as usize * 31 + j * 7) as u8).collect()
}

/// Drive a churn scenario against a file-backed cluster and return the
/// cluster plus the acked contents ledger.
fn churned_cluster(
    dir: &std::path::Path,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
) -> (ClusterStore, HashMap<String, Vec<u8>>) {
    let config = config()
        .with_fsync(fsync)
        .with_checkpoint_every(checkpoint_every);
    churned_cluster_cfg(dir, config)
}

/// Same churn, caller-supplied [`GroupConfig`] (segmented layouts etc.).
fn churned_cluster_cfg(
    dir: &std::path::Path,
    config: GroupConfig,
) -> (ClusterStore, HashMap<String, Vec<u8>>) {
    let members: Vec<ShardId> = vec![0, 1, 2];
    let mut cluster = ClusterStore::with_wal_dir(spec(), config, &members, 8, dir).unwrap();
    let mut acked: HashMap<String, Vec<u8>> = HashMap::new();

    // Phase 1: a mix of grouped (small) and whole (large) objects.
    let epoch = cluster.epoch();
    for i in 0..24u32 {
        let len = if i % 5 == 0 {
            120
        } else {
            24 + (i as usize % 32)
        };
        let data = payload(i, len);
        let key = format!("obj-{i}");
        cluster.store(&key, &data, epoch).unwrap();
        acked.insert(key, data);
    }
    cluster.flush_all();

    // Phase 2: overwrites, deletes, and fresh open-group tails.
    for i in 0..6u32 {
        let data = payload(100 + i, 40);
        let key = format!("obj-{i}");
        cluster.store(&key, &data, epoch).unwrap();
        acked.insert(key, data);
    }
    cluster.delete("obj-7", epoch).unwrap();
    acked.remove("obj-7");

    // Phase 3: a rebalance — shard 3 joins, sealed units migrate, the
    // view commits. The moved units land in the new owner's WAL as
    // GroupImport records and leave GroupEvict records behind.
    cluster.begin_handover(&[0, 1, 2, 3]).unwrap();
    while cluster.transfer_next().unwrap().is_some() {}
    cluster.commit_handover().unwrap();
    let epoch = cluster.epoch();

    // Phase 4: post-rebalance traffic at the new epoch.
    for i in 30..42u32 {
        let data = payload(i, 20 + (i as usize % 48));
        let key = format!("obj-{i}");
        cluster.store(&key, &data, epoch).unwrap();
        acked.insert(key, data);
    }
    (cluster, acked)
}

/// Sweep every acked object and classify the outcome.
fn sweep(
    cluster: &mut ClusterStore,
    acked: &HashMap<String, Vec<u8>>,
) -> (usize, usize, Vec<String>) {
    let epoch = cluster.epoch();
    let mut exact = 0usize;
    let mut unavailable = 0usize;
    let mut wrong = Vec::new();
    for (key, expect) in acked {
        match cluster.retrieve(key, SelectionPolicy::FirstK, epoch) {
            Ok(read) => {
                if &read.bytes == expect {
                    exact += 1;
                } else {
                    wrong.push(key.clone());
                }
            }
            Err(ClusterError::ShardDown(_))
            | Err(ClusterError::Storage(StorageError::UnknownObject { .. }))
            | Err(ClusterError::Storage(StorageError::NotEnoughNodes { .. })) => {
                unavailable += 1;
            }
            Err(e) => panic!("retrieve({key}) failed dishonestly: {e}"),
        }
    }
    (exact, unavailable, wrong)
}

#[test]
fn every_shard_restarts_from_its_on_disk_wal_bit_exact() {
    let dir = wal_dir("exact");
    let (mut cluster, acked) = churned_cluster(&dir, FsyncPolicy::Always, 0);

    // Restart every shard purely from its file: coordinator memory and the
    // in-memory log handle are discarded.
    for s in [0usize, 1, 2, 3] {
        let report = cluster.restart_shard_from_disk(s).unwrap();
        assert!(!report.torn_tail, "Always-sync writes whole frames");
    }
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes after restart: {wrong:?}");
    assert_eq!(unavailable, 0, "every shard is back up and fully synced");
    assert_eq!(exact, acked.len());

    // The restarted cluster keeps working at the committed epoch.
    let epoch = cluster.epoch();
    cluster.store("post-restart", &[7u8; 96], epoch).unwrap();
    assert_eq!(
        cluster
            .retrieve("post-restart", SelectionPolicy::FirstK, epoch)
            .unwrap()
            .bytes,
        vec![7u8; 96]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dead_shard_stays_honestly_dark_while_the_rest_restart() {
    let dir = wal_dir("dark");
    let (mut cluster, acked) = churned_cluster(&dir, FsyncPolicy::Always, 8);

    cluster.fail_shard(2);
    for s in [0usize, 1, 3] {
        cluster.restart_shard_from_disk(s).unwrap();
    }
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes after restart: {wrong:?}");
    assert_eq!(
        exact + unavailable,
        acked.len(),
        "every read is bit-exact or honestly unavailable"
    );
    assert!(
        unavailable > 0,
        "the dead shard's units must go dark, not resolve wrongly"
    );

    // The dead shard's log is still on disk: restarting it brings its
    // objects back bit-exact.
    cluster.restart_shard_from_disk(2).unwrap();
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty());
    assert_eq!(unavailable, 0);
    assert_eq!(exact, acked.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn relaxed_fsync_may_lose_the_unsynced_tail_but_never_serves_wrong_bytes() {
    let dir = wal_dir("relaxed");
    let (mut cluster, acked) = churned_cluster(&dir, FsyncPolicy::EveryN(4), 0);

    // No sync before the restart: whatever the group-commit batcher still
    // holds in user space is genuinely gone, like a process crash.
    for s in [0usize, 1, 2, 3] {
        cluster.restart_shard_from_disk(s).unwrap();
    }
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes after restart: {wrong:?}");
    assert_eq!(exact + unavailable, acked.len());

    // Re-run with an explicit sync barrier before the restart: nothing may
    // be lost then, relaxed policy or not.
    let dir2 = wal_dir("relaxed-synced");
    let (mut cluster, acked) = churned_cluster(&dir2, FsyncPolicy::EveryN(4), 0);
    for s in [0usize, 1, 2, 3] {
        if let Some(shard) = cluster.shard_mut(s) {
            shard.sync_wal().unwrap();
        }
        cluster.restart_shard_from_disk(s).unwrap();
    }
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(
        wrong.is_empty(),
        "wrong bytes after synced restart: {wrong:?}"
    );
    assert_eq!(unavailable, 0, "synced tails survive a relaxed policy");
    assert_eq!(exact, acked.len());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

// ---- full-cluster restart: metalog + every shard WAL -----------------------

#[test]
fn the_whole_cluster_recovers_from_disk_after_a_power_loss() {
    let dir = wal_dir("full");
    let config = config().with_fsync(FsyncPolicy::Always);
    let (cluster, acked) = churned_cluster(&dir, FsyncPolicy::Always, 0);
    let committed_epoch = cluster.epoch();
    assert_eq!(committed_epoch, 2, "the churn committed one rebalance");

    // Power loss: every coordinator's memory is gone — directory, view,
    // handover, object tables. Only the node fabrics and the files remain.
    let survivors = cluster.crash();
    let (mut cluster, report) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();

    assert_eq!(
        cluster.epoch(),
        committed_epoch,
        "the committed view is back"
    );
    assert!(!report.meta_torn_tail, "Always-sync writes whole frames");
    assert!(!report.handover_rolled_back, "no handover was in flight");
    assert_eq!(report.shard_reports.len(), 4);
    assert_eq!(report.adopted, 0, "nothing un-synced under Always");
    assert_eq!(report.directory_dropped, 0);
    assert!(!report.pending_replan);

    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes after recovery: {wrong:?}");
    assert_eq!(unavailable, 0, "fully synced cluster loses nothing");
    assert_eq!(exact, acked.len());

    // The recovered cluster keeps serving writes at the committed epoch.
    let epoch = cluster.epoch();
    cluster.store("post-recovery", &[3u8; 80], epoch).unwrap();
    assert_eq!(
        cluster
            .retrieve("post-recovery", SelectionPolicy::FirstK, epoch)
            .unwrap()
            .bytes,
        vec![3u8; 80]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart after a clean power loss finds nothing to heal, and its counts
/// prove it: no directory entry is asked of its owner and no shard sweeps
/// a node frame.
#[test]
fn a_clean_restart_asks_no_owner_and_sweeps_no_frame() {
    let dir = wal_dir("clean-counts");
    let config = config().with_fsync(FsyncPolicy::Always);
    let (cluster, _) = churned_cluster(&dir, FsyncPolicy::Always, 0);
    let survivors = cluster.crash();
    let (_, report) = ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
    assert_eq!(report.owner_probes, 0, "{report:?}");
    assert_eq!(report.directory_dropped, 0);
    for (s, shard) in &report.shard_reports {
        assert_eq!(shard.stale_frames_swept, 0, "shard {s}: {shard:?}");
    }
    let verified: usize = report
        .shard_reports
        .values()
        .map(|r| r.frames_verified)
        .sum();
    assert!(verified > 0, "the sealed units' frames were checked");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metalog_checkpoints_compact_the_log_and_recover_identically() {
    let dir = wal_dir("ckpt");
    let config = config()
        .with_fsync(FsyncPolicy::Always)
        .with_checkpoint_every(4);
    let (cluster, acked) = churned_cluster(&dir, FsyncPolicy::Always, 4);
    let epoch = cluster.epoch();
    let survivors = cluster.crash();
    let (mut cluster, report) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();

    assert_eq!(cluster.epoch(), epoch);
    assert!(
        report.meta_records_replayed > 0,
        "a checkpointed metalog still replays its retained suffix"
    );
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes after recovery: {wrong:?}");
    assert_eq!(unavailable, 0);
    assert_eq!(exact, acked.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cluster that restarts more often than every `checkpoint_every`
/// metalog records must still checkpoint its metalog: recovery resumes the
/// records-since-checkpoint count from the log instead of restarting it at
/// zero, so the replayed suffix stays bounded by two checkpoint intervals
/// rather than growing with every restart.
#[test]
fn frequent_restarts_keep_the_metalog_checkpoint_cadence() {
    let dir = wal_dir("cadence");
    let every = 8u64;
    let config = config()
        .with_fsync(FsyncPolicy::Always)
        .with_checkpoint_every(every);
    let members: Vec<ShardId> = vec![0, 1, 2];
    let mut cluster = ClusterStore::with_wal_dir(spec(), config, &members, 8, &dir).unwrap();
    let mut acked = HashMap::new();
    for round in 0..10u32 {
        let epoch = cluster.epoch();
        for i in 0..5u32 {
            let data = payload(round * 5 + i, 24 + i as usize);
            let key = format!("obj-{round}-{i}");
            cluster.store(&key, &data, epoch).unwrap();
            acked.insert(key, data);
        }
        let survivors = cluster.crash();
        let (recovered, report) =
            ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
        assert!(
            report.meta_records_replayed as u64 <= 2 * every + 3,
            "restart {round} replayed {} metalog records",
            report.meta_records_replayed
        );
        cluster = recovered;
    }
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes after restarts: {wrong:?}");
    assert_eq!(unavailable, 0);
    assert_eq!(exact, acked.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_between_prepare_and_commit_rolls_the_handover_back() {
    let dir = wal_dir("midhand");
    let config = config().with_fsync(FsyncPolicy::Always);
    let members: Vec<ShardId> = vec![0, 1, 2];
    let mut cluster = ClusterStore::with_wal_dir(spec(), config, &members, 8, &dir).unwrap();
    let mut acked = HashMap::new();
    let epoch = cluster.epoch();
    for i in 0..20u32 {
        let data = payload(i, 24 + (i as usize % 40));
        let key = format!("obj-{i}");
        cluster.store(&key, &data, epoch).unwrap();
        acked.insert(key, data);
    }
    cluster.flush_all();

    // Prepare a rebalance onto a joining shard and land *some* units, but
    // crash before the commit: the prepare and every landed unit are in the
    // metalog, the view commit is not.
    cluster.begin_handover(&[0, 1, 2, 3]).unwrap();
    cluster.transfer_next().unwrap();
    cluster.transfer_next().unwrap();
    let survivors = cluster.crash();

    let (mut cluster, report) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
    assert!(
        report.handover_rolled_back,
        "a prepared-but-uncommitted handover must roll back"
    );
    assert_eq!(cluster.epoch(), epoch, "the epoch never advanced");
    assert!(
        report.strays_evicted > 0,
        "the joiner's half-transferred copies are swept"
    );

    // Every acked object still reads bit-exact from its *old* owner: the
    // sources evict nothing before the commit.
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes after rollback: {wrong:?}");
    assert_eq!(unavailable, 0);
    assert_eq!(exact, acked.len());

    // And the transition can be re-run to completion afterwards.
    cluster.begin_handover(&[0, 1, 2, 3]).unwrap();
    while cluster.transfer_next().unwrap().is_some() {}
    cluster.commit_handover().unwrap();
    let (exact, _, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty());
    assert_eq!(exact, acked.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_whose_machines_never_return_recovers_honestly_dark() {
    let dir = wal_dir("lost");
    let config = config().with_fsync(FsyncPolicy::Always);
    let (cluster, acked) = churned_cluster(&dir, FsyncPolicy::Always, 0);
    let mut survivors = cluster.crash();
    assert!(survivors.lose_shard(1), "shard 1 had survivors to lose");

    let (mut cluster, report) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
    assert_eq!(report.shard_reports.len(), 3, "three shards replayed");
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(
        wrong.is_empty(),
        "wrong bytes after partial recovery: {wrong:?}"
    );
    assert_eq!(
        exact + unavailable,
        acked.len(),
        "every read is bit-exact or honestly unavailable"
    );
    assert!(
        unavailable > 0,
        "the lost shard's keys must go dark, not resolve wrongly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard that recovered dark still logs to disk: brought back up, it
/// acks new writes, and those survive the next full restart instead of
/// dying with an in-memory log.
#[test]
fn a_dark_shard_brought_back_up_keeps_its_new_writes_across_a_restart() {
    let dir = wal_dir("dark-writes");
    let config = config().with_fsync(FsyncPolicy::Always);
    let (cluster, mut acked) = churned_cluster(&dir, FsyncPolicy::Always, 0);
    let mut survivors = cluster.crash();
    assert!(survivors.lose_shard(1), "shard 1 had survivors to lose");
    let (mut cluster, _) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
    assert!(!cluster.shard_up(1), "shard 1 recovers dark");

    cluster.recover_shard(1);
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(
        wrong.is_empty(),
        "wrong bytes from the blank shard: {wrong:?}"
    );
    assert_eq!(exact + unavailable, acked.len());
    let epoch = cluster.epoch();
    let mut fresh = HashMap::new();
    for i in 200..400u32 {
        let key = format!("new-{i}");
        if fresh.len() < 21 && cluster.view().owner_of(&key) == Some(1) {
            let data = payload(i, 24 + (i as usize % 80));
            cluster.store(&key, &data, epoch).unwrap();
            fresh.insert(key, data);
        }
    }
    assert_eq!(fresh.len(), 21, "enough keys land on shard 1");
    assert_eq!(sweep(&mut cluster, &fresh).0, fresh.len());

    let survivors = cluster.crash();
    let (mut cluster, report) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
    let (exact, _, wrong) = sweep(&mut cluster, &fresh);
    assert!(wrong.is_empty(), "wrong bytes after restart: {wrong:?}");
    assert_eq!(
        exact,
        fresh.len(),
        "acked writes on shard 1 survive: {report:?}"
    );
    acked.extend(fresh);
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes after restart: {wrong:?}");
    assert_eq!(exact + unavailable, acked.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_final_metalog_record_is_tolerated() {
    let dir = wal_dir("torn-meta");
    let config = config().with_fsync(FsyncPolicy::Always);
    let (cluster, acked) = churned_cluster(&dir, FsyncPolicy::Always, 0);
    let epoch = cluster.epoch();
    let survivors = cluster.crash();

    // Model a power loss mid-append: a partial frame at the metalog tail.
    let meta_path = dir.join("cluster.meta");
    let mut bytes = std::fs::read(&meta_path).unwrap();
    bytes.extend_from_slice(&[0x55, 0xAA, 0x01]);
    std::fs::write(&meta_path, &bytes).unwrap();

    let (mut cluster, report) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
    assert!(report.meta_torn_tail, "the partial frame is detected");
    assert_eq!(cluster.epoch(), epoch);
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes after torn tail: {wrong:?}");
    assert_eq!(unavailable, 0);
    assert_eq!(exact, acked.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A CRC-valid view record whose ring size no ring can take is corrupt:
/// recovery reports it instead of panicking (zero points) or aborting on
/// the allocation (a huge count) while it builds the ring. The cluster
/// refuses the same sizes up front, so it never writes such a record.
#[test]
fn a_view_record_with_an_impossible_ring_size_is_reported_corrupt() {
    let config = config().with_fsync(FsyncPolicy::Always);
    for vnodes in [0, MAX_VNODES + 1, usize::MAX] {
        let dir = wal_dir("bad-vnodes");
        let cluster = ClusterStore::with_wal_dir(spec(), config, &[0, 1, 2], 8, &dir).unwrap();
        let survivors = cluster.crash();
        let backend = FileLog::open(dir.join("cluster.meta"), FsyncPolicy::Always).unwrap();
        MetaLog::new(Box::new(backend))
            .append(&MetaRecord::ViewCommit {
                epoch: 9,
                members: vec![0, 1, 2],
                vnodes,
            })
            .unwrap();

        let err = ClusterStore::recover_from_disk(spec(), config, &dir, survivors)
            .err()
            .expect("an impossible ring size must not recover");
        assert!(
            matches!(
                err,
                ClusterError::Storage(StorageError::Wal(WalError::Corrupt { .. }))
            ),
            "vnodes {vnodes}: {err}"
        );
        assert!(matches!(
            ClusterStore::with_wal_dir(spec(), config, &[0, 1, 2], vnodes, &dir),
            Err(ClusterError::BadVnodes(v)) if v == vnodes
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn relaxed_fsync_cluster_recovery_is_honest_about_unsynced_tails() {
    let dir = wal_dir("full-relaxed");
    let config = config().with_fsync(FsyncPolicy::EveryN(4));
    let (cluster, acked) = churned_cluster(&dir, FsyncPolicy::EveryN(4), 0);
    let survivors = cluster.crash();
    let (mut cluster, _report) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(
        wrong.is_empty(),
        "wrong bytes after relaxed recovery: {wrong:?}"
    );
    assert_eq!(
        exact + unavailable,
        acked.len(),
        "unsynced tails may be lost but never misread"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `EveryN` a cluster with no handover appends nothing to its
/// metalog after the genesis view, so nothing would ever commit it. It is
/// synced at creation: once the shards sync, a restart serves every key.
#[test]
fn a_relaxed_cluster_with_no_handover_restarts_from_its_synced_shards() {
    let dir = wal_dir("relaxed-genesis");
    let config = config().with_fsync(FsyncPolicy::EveryN(64));
    let mut cluster = ClusterStore::with_wal_dir(spec(), config, &[0, 1, 2], 8, &dir).unwrap();
    let mut acked = HashMap::new();
    for i in 0..20u32 {
        let data = payload(i, 24 + i as usize % 32);
        cluster.store(&format!("obj-{i}"), &data, 1).unwrap();
        acked.insert(format!("obj-{i}"), data);
    }
    for s in 0..3 {
        cluster.shard_mut(s).unwrap().sync_wal().unwrap();
    }
    let survivors = cluster.crash();
    let (mut cluster, _) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes: {wrong:?}");
    assert_eq!((exact, unavailable), (acked.len(), 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_segmented_cluster_recovers_from_its_segment_directories() {
    let dir = wal_dir("segmented");
    let config = config().with_fsync(FsyncPolicy::Always).with_segments(256);
    let (cluster, acked) = churned_cluster_cfg(&dir, config);
    let epoch = cluster.epoch();

    // The logs really are segment directories, not flat files.
    assert!(dir.join("cluster.meta.d").is_dir(), "metalog is segmented");
    assert!(
        dir.join("shard-0.wal.d").is_dir(),
        "shard WALs are segmented"
    );
    let segs = std::fs::read_dir(dir.join("shard-0.wal.d"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .count();
    assert!(segs >= 2, "the churn rotated at least one sealed segment");

    let survivors = cluster.crash();
    let (mut cluster, report) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
    assert_eq!(cluster.epoch(), epoch);
    assert!(!report.meta_torn_tail);
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(
        wrong.is_empty(),
        "wrong bytes after segmented recovery: {wrong:?}"
    );
    assert_eq!(unavailable, 0);
    assert_eq!(exact, acked.len());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- cross-log reconciliation ---------------------------------------------

/// A metalog checkpoint after every record: each is taken once the record
/// it follows is applied, so a restart finds the key just put, and not the
/// key just deleted, with nothing to adopt, drop or ask an owner about.
#[test]
fn a_checkpoint_after_every_record_keeps_the_put_and_forgets_the_delete() {
    let dir = wal_dir("ckpt-every");
    let rs = CodeSpec::new(CodeKind::ReedSolomon, 6, 4);
    let config = config()
        .with_fsync(FsyncPolicy::Always)
        .with_checkpoint_every(1);
    let mut cluster = ClusterStore::with_wal_dir(rs, config, &[0, 1, 2], 8, &dir).unwrap();
    cluster.store("a", &payload(1, 40), 1).unwrap();
    let survivors = cluster.crash();
    let (mut cluster, report) =
        ClusterStore::recover_from_disk(rs, config, &dir, survivors).unwrap();
    assert_eq!(report.adopted, 0, "{report:?}");
    let read = cluster.retrieve("a", SelectionPolicy::FirstK, 1).unwrap();
    assert_eq!(read.bytes, payload(1, 40));

    cluster.store("b", &payload(2, 40), 1).unwrap();
    cluster.delete("a", 1).unwrap();
    let survivors = cluster.crash();
    let (mut cluster, report) =
        ClusterStore::recover_from_disk(rs, config, &dir, survivors).unwrap();
    assert_eq!(report.directory_dropped, 0, "{report:?}");
    assert_eq!(report.owner_probes, 0, "{report:?}");
    assert!(matches!(
        cluster.retrieve("a", SelectionPolicy::FirstK, 1),
        Err(ClusterError::Storage(StorageError::UnknownObject { .. }))
    ));
    let read = cluster.retrieve("b", SelectionPolicy::FirstK, 1).unwrap();
    assert_eq!(read.bytes, payload(2, 40));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exceptions in the newest metalog checkpoint of `dir`.
fn checkpointed_exceptions(dir: &std::path::Path) -> HashMap<String, ShardId> {
    let records = metalog_records(dir);
    let last = records
        .iter()
        .rev()
        .find_map(|r| match r {
            MetaRecord::Checkpoint { directory, .. } => Some(directory.clone()),
            _ => None,
        })
        .expect("the metalog holds a checkpoint");
    last.into_iter().collect()
}

/// What [`join_pinning_keys`] leaves: the cluster, the acked contents, the
/// pinned keys (sorted) and each one's home.
struct Pinned {
    cluster: ClusterStore,
    acked: HashMap<String, Vec<u8>>,
    keys: Vec<String>,
    homes: HashMap<String, ShardId>,
}

/// Store thirty keys on shards 0-2 (RS(6,4) under `config`), then join
/// shard 3 and overwrite the keys it is to own while it is down: each
/// override pins its key to its old owner, an exception, and the commit
/// (shard 3 still down) leaves the joiner's stale copies.
fn join_pinning_keys(dir: &std::path::Path, config: GroupConfig) -> Pinned {
    let rs = CodeSpec::new(CodeKind::ReedSolomon, 6, 4);
    let mut cluster = ClusterStore::with_wal_dir(rs, config, &[0, 1, 2], 8, dir).unwrap();
    let mut acked = HashMap::new();
    for i in 0..30u32 {
        let data = payload(
            i,
            if i % 5 == 0 {
                120
            } else {
                24 + i as usize % 32
            },
        );
        cluster.store(&format!("obj-{i}"), &data, 1).unwrap();
        acked.insert(format!("obj-{i}"), data);
    }
    cluster.flush_all();
    cluster.begin_handover(&[0, 1, 2, 3]).unwrap();
    while cluster.transfer_next().unwrap().is_some() {}
    let target = cluster.view().successor(&[0, 1, 2, 3]);
    let mut pinned: Vec<String> = acked
        .keys()
        .filter(|k| target.owner_of(k) == Some(3))
        .cloned()
        .collect();
    pinned.sort();
    assert!(pinned.len() >= 2, "{pinned:?}");
    cluster.fail_shard(3);
    let mut homes = HashMap::new();
    for (n, key) in pinned.iter().enumerate() {
        let data = payload(500 + n as u32, 40);
        cluster.store(key, &data, 1).unwrap();
        acked.insert(key.clone(), data);
        let home = cluster.directory().find(|(k, _)| k == key).unwrap().1;
        homes.insert(key.clone(), home);
    }
    cluster.commit_handover().unwrap();
    Pinned {
        cluster,
        acked,
        keys: pinned,
        homes,
    }
}

/// A join pins keys off their ring owner (see [`join_pinning_keys`]).
/// With a metalog checkpoint after every record, one follows the commit
/// that makes the exceptions and one the `DirDel` that ends an exception
/// when its key is deleted. Each carries exactly the exceptions in force,
/// and the restart serves the fresh copies, evicts the stale ones, and
/// keeps the deleted key deleted.
#[test]
fn a_checkpoint_right_after_an_exception_record_carries_it() {
    let dir = wal_dir("ckpt-exception");
    let rs = CodeSpec::new(CodeKind::ReedSolomon, 6, 4);
    let config = config()
        .with_fsync(FsyncPolicy::Always)
        .with_checkpoint_every(1);
    let Pinned {
        mut cluster,
        mut acked,
        keys: pinned,
        mut homes,
    } = join_pinning_keys(&dir, config);
    assert_eq!(checkpointed_exceptions(&dir), homes);
    let stale = pinned
        .iter()
        .filter(|k| cluster.shard(3).unwrap().holds(k))
        .count();
    assert!(stale > 0, "the joiner keeps a stale copy");

    cluster.recover_shard(3);
    let gone = pinned[0].clone();
    cluster.delete(&gone, 2).unwrap();
    acked.remove(&gone);
    homes.remove(&gone);
    assert_eq!(checkpointed_exceptions(&dir), homes);

    let survivors = cluster.crash();
    let (mut cluster, report) =
        ClusterStore::recover_from_disk(rs, config, &dir, survivors).unwrap();
    assert_eq!(report.directory_dropped, 0, "{report:?}");
    assert!(report.strays_evicted > 0, "{report:?}");
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "stale copies served: {wrong:?}");
    assert_eq!((exact, unavailable), (acked.len(), 0));
    assert!(matches!(
        cluster.retrieve(&gone, SelectionPolicy::FirstK, 2),
        Err(ClusterError::Storage(StorageError::UnknownObject { .. }))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An exception key is deleted while its ring owner, which holds a stale
/// copy, is down. The exception outlives the delete: the restart that
/// finds the ring owner dark keeps it (the stale copy cannot be evicted
/// yet), and the restart after the ring owner came back evicts the stale
/// copy and only then ends it. The delete stays deleted throughout.
#[test]
fn an_exception_key_deleted_while_its_ring_owner_is_down_stays_deleted() {
    let dir = wal_dir("exception-dark-owner");
    let rs = CodeSpec::new(CodeKind::ReedSolomon, 6, 4);
    let config = config().with_fsync(FsyncPolicy::Always);
    let Pinned {
        mut cluster,
        mut acked,
        keys: pinned,
        ..
    } = join_pinning_keys(&dir, config);
    let gone = pinned
        .iter()
        .find(|k| cluster.shard(3).unwrap().holds(k))
        .expect("the joiner keeps a stale copy")
        .clone();
    cluster.delete(&gone, 2).unwrap();
    acked.remove(&gone);
    let deleted = |cluster: &mut ClusterStore| {
        matches!(
            cluster.retrieve(&gone, SelectionPolicy::FirstK, 2),
            Err(ClusterError::Storage(StorageError::UnknownObject { .. }))
        )
    };
    assert!(deleted(&mut cluster));

    let mut survivors = cluster.crash();
    assert!(survivors.lose_shard(3), "shard 3 had survivors to lose");
    let (mut cluster, report) =
        ClusterStore::recover_from_disk(rs, config, &dir, survivors).unwrap();
    assert!(!cluster.shard_up(3), "shard 3 recovers dark");
    assert!(cluster.shard(3).unwrap().holds(&gone), "{report:?}");
    assert!(deleted(&mut cluster), "{report:?}");
    cluster.recover_shard(3);
    assert!(deleted(&mut cluster));

    let survivors = cluster.crash();
    let (mut cluster, report) =
        ClusterStore::recover_from_disk(rs, config, &dir, survivors).unwrap();
    assert!(deleted(&mut cluster), "{report:?}");
    assert!(!cluster.shard(3).unwrap().holds(&gone), "{report:?}");
    assert_eq!(report.directory_dropped, 1, "{report:?}");
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes: {wrong:?}");
    assert_eq!(exact + unavailable, acked.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard leaves the view while down, so none of its units move and no
/// metalog record names it any more. Restarted with its machines gone, it
/// is still rebuilt from its log: its keys read as down, not unknown.
#[test]
fn a_shard_that_left_the_view_while_down_recovers_dark_not_unknown() {
    let dir = wal_dir("left-dark");
    let config = config().with_fsync(FsyncPolicy::Always);
    let mut cluster = ClusterStore::with_wal_dir(spec(), config, &[0, 1, 2], 8, &dir).unwrap();
    for i in 0..30u32 {
        cluster
            .store(&format!("obj-{i}"), &payload(i, 24 + i as usize % 32), 1)
            .unwrap();
    }
    cluster.flush_all();
    let on_2: Vec<String> = cluster
        .directory()
        .filter(|&(_, s)| s == 2)
        .map(|(k, _)| k.to_string())
        .collect();
    assert!(!on_2.is_empty(), "shard 2 holds keys");
    cluster.fail_shard(2);
    cluster.begin_handover(&[0, 1]).unwrap();
    cluster.commit_handover().unwrap();
    assert!(cluster.pending_replan(), "shard 2's units are stranded");

    let mut survivors = cluster.crash();
    assert!(survivors.lose_shard(2), "shard 2 had survivors to lose");
    let (mut cluster, report) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
    assert!(report.pending_replan, "{report:?}");
    for key in &on_2 {
        let read = cluster.retrieve(key, SelectionPolicy::FirstK, 2);
        assert!(
            matches!(read, Err(ClusterError::ShardDown(2))),
            "{key}: {read:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The records in `dir/cluster.meta`, as a fresh replay reads them.
fn metalog_records(dir: &std::path::Path) -> Vec<MetaRecord> {
    let mut backend = MemLog::new();
    backend
        .append(&std::fs::read(dir.join("cluster.meta")).unwrap())
        .unwrap();
    MetaLog::new(Box::new(backend)).replay().unwrap().records
}

/// Store 90 keys under `Always`, crash, delete shard 1's WAL and recover
/// from disk. Returns the keys shard 1 held (sorted), the recovered
/// cluster, and the metalog bytes before and after the restart.
fn recover_without_shard_1_wal(
    dir: &std::path::Path,
) -> (Vec<String>, ClusterStore, Vec<u8>, Vec<u8>) {
    let config = config().with_fsync(FsyncPolicy::Always);
    let mut cluster = ClusterStore::with_wal_dir(spec(), config, &[0, 1, 2], 8, dir).unwrap();
    let epoch = cluster.epoch();
    for i in 0..90u32 {
        let data = payload(i, 24 + (i as usize % 80));
        cluster.store(&format!("obj-{i}"), &data, epoch).unwrap();
    }
    let mut lost: Vec<String> = cluster
        .shard(1)
        .unwrap()
        .object_names()
        .map(String::from)
        .collect();
    lost.sort();
    let before = std::fs::read(dir.join("cluster.meta")).unwrap();

    let survivors = cluster.crash();
    std::fs::remove_file(dir.join("shard-1.wal")).unwrap();
    let (cluster, report) =
        ClusterStore::recover_from_disk(spec(), config, dir, survivors).unwrap();
    assert_eq!(report.directory_dropped, 0, "{report:?}");
    assert_eq!(report.owner_probes, 0, "{report:?}");
    let after = std::fs::read(dir.join("cluster.meta")).unwrap();
    (lost, cluster, before, after)
}

/// The directory comes from the shards, so a shard whose WAL is gone takes
/// its keys with it: they read as honestly unknown (not unavailable, as
/// they did while the metalog listed every key). Nothing is dropped, so
/// the restart logs nothing, and two identical runs leave byte-identical
/// metalogs.
#[test]
fn a_lost_shard_wal_makes_its_keys_unknown_and_logs_nothing() {
    let (dir_a, dir_b) = (wal_dir("lost-wal-a"), wal_dir("lost-wal-b"));
    let (lost, mut cluster, before, meta_a) = recover_without_shard_1_wal(&dir_a);
    assert!(lost.len() >= 20, "shard 1 held only {} keys", lost.len());
    assert_eq!(before, meta_a, "the restart appended no metalog record");
    assert_eq!(cluster.num_objects(), 90 - lost.len());
    for key in &lost {
        let read = cluster.retrieve(key, SelectionPolicy::FirstK, cluster.epoch());
        assert!(
            matches!(
                read,
                Err(ClusterError::Storage(StorageError::UnknownObject { .. }))
            ),
            "{key}: {read:?}"
        );
    }

    let (_, _, _, meta_b) = recover_without_shard_1_wal(&dir_b);
    assert!(
        meta_a == meta_b,
        "two identical runs must leave byte-identical metalogs"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// One restart that meets three kinds of cross-log drift at once: a
/// prepared handover's copies at a joining shard (strays), shard writes the
/// metalog batch never heard of (kept: the directory comes from the
/// shards), and a shard whose WAL is gone (its keys forgotten). Afterwards
/// the directory and the shards agree in both directions.
#[test]
fn one_restart_evicts_strays_keeps_unlogged_keys_and_forgets_a_lost_wal() {
    let dir = wal_dir("three-outcomes");
    // Interval fsync: a log commits only once virtual time has moved
    // `tick` past its last commit, so each phase below picks what is
    // durable at the crash.
    let tick = SimDuration::from_millis(10);
    let config = config().with_fsync(FsyncPolicy::EveryT(tick));
    let mut cluster = ClusterStore::with_wal_dir(spec(), config, &[0, 1, 2], 8, &dir).unwrap();
    let epoch = cluster.epoch();
    let mut acked = HashMap::new();
    let mut put = |cluster: &mut ClusterStore, i: u32| {
        let data = payload(i, 24 + (i as usize % 80));
        let key = format!("obj-{i}");
        cluster.store(&key, &data, epoch).unwrap();
        acked.insert(key, data);
    };

    // 1. Sixty keys, sealed, then a tick: every log is durable.
    for i in 0..60 {
        put(&mut cluster, i);
    }
    cluster.flush_all();
    cluster.advance_time(tick);

    // 2. Ten more keys: the shards sync them; the metalog logs nothing
    //    for a new key.
    for i in 60..70 {
        put(&mut cluster, i);
    }
    for s in [0, 1, 2] {
        cluster.shard_mut(s).unwrap().sync_wal().unwrap();
    }
    let on_shard_2: Vec<String> = cluster
        .shard(2)
        .unwrap()
        .object_names()
        .map(String::from)
        .collect();

    // 3. A handover toward a joining shard 3 lands two units there, and
    //    shard 3 syncs them. Its prepare never reaches the metalog.
    cluster.begin_handover(&[0, 1, 2, 3]).unwrap();
    cluster.transfer_next().unwrap();
    cluster.transfer_next().unwrap();
    cluster.shard_mut(3).unwrap().sync_wal().unwrap();

    // 4. Power loss, and shard 2's WAL does not come back.
    let survivors = cluster.crash();
    std::fs::remove_file(dir.join("shard-2.wal")).unwrap();
    let (mut cluster, report) =
        ClusterStore::recover_from_disk(spec(), config, &dir, survivors).unwrap();
    assert!(report.strays_evicted > 0, "{report:?}");
    assert_eq!(report.adopted, 0, "{report:?}");
    assert_eq!(report.directory_dropped, 0, "{report:?}");

    let directory: HashMap<String, ShardId> = cluster
        .directory()
        .map(|(key, s)| (key.to_string(), s))
        .collect();
    for (key, &owner) in &directory {
        assert!(
            cluster.shard(owner).unwrap().holds(key),
            "{key} is credited to shard {owner}, which does not hold it"
        );
    }
    for s in [0, 1, 2, 3] {
        assert!(cluster.shard_up(s), "shard {s} recovered");
        for key in cluster.shard(s).unwrap().object_names() {
            assert_eq!(
                directory.get(key),
                Some(&s),
                "{key} is held by shard {s} but not credited to it"
            );
        }
    }
    let (exact, unavailable, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes after recovery: {wrong:?}");
    assert_eq!(
        exact + unavailable,
        acked.len(),
        "every read is bit-exact or honestly unknown"
    );
    // Only what shard 2 alone held is gone; every other key, the ten the
    // metalog never heard of included, reads back.
    assert!(unavailable > 0 && unavailable <= on_shard_2.len());
    for i in 60..70 {
        let key = format!("obj-{i}");
        if !on_shard_2.contains(&key) {
            let read = cluster.retrieve(&key, SelectionPolicy::FirstK, epoch);
            assert_eq!(read.unwrap().bytes, acked[&key], "{key}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
