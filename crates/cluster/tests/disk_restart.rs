//! Cluster restart from disk: every shard coordinator is torn down and
//! rebuilt purely from its file-backed per-shard WAL after a churn
//! scenario (writes, seals, a committed rebalance handover, a shard
//! death). The bar is the same as for live churn: every acked object is
//! served bit-exact or reported honestly unavailable — never wrong bytes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rain_cluster::{ClusterError, ClusterStore, ShardId};
use rain_codes::CodeSpec;
use rain_storage::{FsyncPolicy, GroupConfig, SelectionPolicy, StorageError};

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
