//! The `ShardFactory` seam: every shard a `ClusterStore` builds — at
//! genesis, on a join, on a restart from disk, in a full recovery — takes
//! its code, log and transport from one factory. These tests slip a lossy,
//! corrupting transport and a power-failing metalog file beneath a whole
//! cluster through it, and hold the cluster to the usual bar: every acked
//! object reads back bit-exact or honestly unavailable, never wrong bytes.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rain_cluster::{ClusterError, ClusterStore, ShardFactory, ShardId};
use rain_codes::{build_code, CodeSpec, ErasureCode};
use rain_storage::{
    ChaosTransport, FaultSpec, FaultyFile, FaultyHandle, FileLog, FsyncPolicy, GroupConfig,
    LogBackend, SelectionPolicy, StorageError, Transport, WalError,
};

fn config() -> GroupConfig {
    GroupConfig {
        threshold: 64,
        capacity: 160,
        compact_watermark: 0.6,
        ..GroupConfig::disabled()
    }
    .logged()
    .with_fsync(FsyncPolicy::Always)
}

fn code() -> Result<Arc<dyn ErasureCode>, StorageError> {
    Ok(build_code(CodeSpec::bcode_6_4())?)
}

fn payload(i: u32, len: usize) -> Vec<u8> {
    (0..len).map(|j| (i as usize * 31 + j * 7) as u8).collect()
}

/// Small (grouped) objects, with every fifth one large enough to be
/// placed whole.
fn object(i: u32) -> (String, Vec<u8>) {
    let len = if i.is_multiple_of(5) {
        120
    } else {
        24 + i as usize % 32
    };
    (format!("obj-{i}"), payload(i, len))
}

/// Read every acked object: returns how many came back bit-exact and the
/// keys that came back with wrong bytes. A read that fails must fail
/// honestly — too few nodes answered, or the shard is down.
fn sweep(cluster: &mut ClusterStore, acked: &HashMap<String, Vec<u8>>) -> (usize, Vec<String>) {
    let epoch = cluster.epoch();
    let mut exact = 0;
    let mut wrong = Vec::new();
    for (key, expect) in acked {
        match cluster.retrieve(key, SelectionPolicy::FirstK, epoch) {
            Ok(read) if &read.bytes == expect => exact += 1,
            Ok(_) => wrong.push(key.clone()),
            Err(ClusterError::ShardDown(_))
            | Err(ClusterError::Storage(StorageError::NotEnoughNodes { .. })) => {}
            Err(e) => panic!("retrieve({key}) failed dishonestly: {e}"),
        }
    }
    (exact, wrong)
}

// ---- a cluster over a lossy, corrupting transport ---------------------------

/// Shard logs and the metalog as files in `dir`; every shard's nodes
/// behind a [`ChaosTransport`] that loses and corrupts about 5 % each.
struct ChaosFactory {
    dir: PathBuf,
}

impl ShardFactory for ChaosFactory {
    fn code(&self, _s: ShardId) -> Result<Arc<dyn ErasureCode>, StorageError> {
        code()
    }

    fn log(
        &self,
        name: &str,
        config: &GroupConfig,
    ) -> Result<Option<Box<dyn LogBackend>>, WalError> {
        Ok(Some(Box::new(FileLog::open(
            self.dir.join(name),
            config.fsync,
        )?)))
    }

    fn transport(&self, s: ShardId) -> Box<dyn Transport> {
        let chaos = ChaosTransport::new(6, 0xC4A0 + s as u64);
        Box::new(chaos.with_loss(0.05).with_corruption(0.05))
    }
}

fn chaos_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("rain-cluster-chaos-{pid}-{seq}"));
    std::fs::create_dir_all(&dir).expect("create log dir");
    dir
}

/// Sweep, then check that each of `shards` went through its lossy
/// transport: lost and corrupted attempts show in its counters.
fn sweep_over_chaos(
    cluster: &mut ClusterStore,
    acked: &HashMap<String, Vec<u8>>,
    shards: &[ShardId],
    when: &str,
) {
    let (exact, wrong) = sweep(cluster, acked);
    assert!(wrong.is_empty(), "{when}: wrong bytes for {wrong:?}");
    assert!(
        exact * 10 >= acked.len() * 9,
        "{when}: only {exact} of {} read back",
        acked.len()
    );
    for &s in shards {
        let stats = cluster.shard(s).unwrap().transport_stats();
        assert!(
            stats.lost > 0 && stats.corrupted > 0,
            "{when}: shard {s} did not run over the factory's transport: {stats:?}"
        );
    }
}

/// Store sixty objects from `from` on, keeping the ones acked, and seal
/// them: enough traffic that every shard's transport loses and corrupts.
fn put_sixty(cluster: &mut ClusterStore, acked: &mut HashMap<String, Vec<u8>>, from: u32) {
    for i in from..from + 60 {
        let (key, data) = object(i);
        if cluster.store(&key, &data, cluster.epoch()).is_ok() {
            acked.insert(key, data);
        }
    }
    cluster.flush_all();
}

#[test]
fn a_cluster_over_a_lossy_corrupting_transport_never_serves_wrong_bytes() {
    let dir = chaos_dir();
    let factory = ChaosFactory { dir: dir.clone() };
    let mut cluster = ClusterStore::with_factory(factory, config(), &[0, 1, 2], 8).unwrap();
    let mut acked = HashMap::new();

    // Genesis shards, then shard 3 built by a join's handover.
    put_sixty(&mut cluster, &mut acked, 0);
    cluster.begin_handover(&[0, 1, 2, 3]).unwrap();
    while cluster.transfer_next().unwrap().is_some() {}
    cluster.commit_handover().unwrap();
    put_sixty(&mut cluster, &mut acked, 100);
    assert!(acked.len() >= 110, "only {} writes acked", acked.len());
    sweep_over_chaos(&mut cluster, &acked, &[0, 1, 2, 3], "after the join");

    // One shard restarted from its log.
    cluster.restart_shard_from_disk(1).unwrap();
    put_sixty(&mut cluster, &mut acked, 200);
    sweep_over_chaos(&mut cluster, &acked, &[1], "after the shard restart");

    // The whole cluster recovered through the factory.
    let survivors = cluster.crash();
    let factory = ChaosFactory { dir: dir.clone() };
    let (mut cluster, report) =
        ClusterStore::recover_with_factory(factory, config(), survivors).unwrap();
    assert_eq!(report.shard_reports.len(), 4);
    put_sixty(&mut cluster, &mut acked, 300);
    sweep_over_chaos(&mut cluster, &acked, &[0, 1, 2, 3], "after recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- torn-byte power loss under the metalog ---------------------------------

/// Every log an in-memory [`FaultyFile`], opened with the bytes in
/// `images`; `cluster.meta` carries `meta_faults`. The handles of the
/// files it opened are kept in `opened`, so a test can take their
/// durable images after a crash.
struct FaultyFactory {
    images: BTreeMap<String, Vec<u8>>,
    meta_faults: FaultSpec,
    opened: Rc<RefCell<BTreeMap<String, FaultyHandle>>>,
}

impl FaultyFactory {
    fn new(images: BTreeMap<String, Vec<u8>>, meta_faults: FaultSpec) -> Self {
        let opened = Rc::new(RefCell::new(BTreeMap::new()));
        FaultyFactory {
            images,
            meta_faults,
            opened,
        }
    }
}

impl ShardFactory for FaultyFactory {
    fn code(&self, _s: ShardId) -> Result<Arc<dyn ErasureCode>, StorageError> {
        code()
    }

    fn log(
        &self,
        name: &str,
        config: &GroupConfig,
    ) -> Result<Option<Box<dyn LogBackend>>, WalError> {
        let faults = if name == "cluster.meta" {
            self.meta_faults
        } else {
            FaultSpec::default()
        };
        let image = self.images.get(name).cloned().unwrap_or_default();
        let (file, handle) = FaultyFile::with_contents(image, faults);
        self.opened.borrow_mut().insert(name.to_string(), handle);
        Ok(Some(Box::new(FileLog::with_raw(
            Box::new(file),
            config.fsync,
        )?)))
    }
}

/// One step of the torn-metalog workload.
#[derive(Clone, Copy)]
enum Op {
    Put(u32),
    Delete(u32),
    Flush,
    Join,
}

fn workload() -> Vec<Op> {
    let mut ops: Vec<Op> = (0..16).map(Op::Put).collect();
    ops.extend([Op::Delete(3), Op::Delete(10), Op::Flush, Op::Join]);
    ops.extend((16..22).map(Op::Put));
    ops.extend([Op::Put(4), Op::Delete(0), Op::Put(3)]);
    ops
}

/// What a workload run under `meta_faults` acked before the metalog's
/// power loss, and the durable image of every log afterwards.
struct Run {
    acked: HashMap<String, Vec<u8>>,
    deleted: HashSet<String>,
    images: BTreeMap<String, Vec<u8>>,
    survivors: Option<rain_cluster::ClusterSurvivors>,
    meta_writes: usize,
}

fn run_until_power_loss(meta_faults: FaultSpec) -> Run {
    let config = config().with_checkpoint_every(6);
    let factory = FaultyFactory::new(BTreeMap::new(), meta_faults);
    let opened = Rc::clone(&factory.opened);
    let mut acked = HashMap::new();
    let mut deleted = HashSet::new();
    let mut survivors = None;
    if let Ok(mut cluster) = ClusterStore::with_factory(factory, config, &[0, 1, 2], 8) {
        for op in workload() {
            let epoch = cluster.epoch();
            let done = match op {
                // The op the power loss interrupts is in doubt: its key may
                // come back either way, so it is checked no further.
                Op::Put(i) => {
                    let (key, data) = object(i);
                    acked.remove(&key);
                    deleted.remove(&key);
                    let done = cluster.store(&key, &data, epoch);
                    if done.is_ok() {
                        acked.insert(key, data);
                    }
                    done
                }
                Op::Delete(i) => {
                    let (key, _) = object(i);
                    acked.remove(&key);
                    deleted.remove(&key);
                    let done = cluster.delete(&key, epoch);
                    if done.is_ok() {
                        deleted.insert(key);
                    }
                    done
                }
                Op::Flush => {
                    cluster.flush_all();
                    Ok(())
                }
                Op::Join => cluster
                    .begin_handover(&[0, 1, 2, 3])
                    .and_then(|_| {
                        while cluster.transfer_next()?.is_some() {}
                        Ok(())
                    })
                    .and_then(|_| cluster.commit_handover().map(|_| ())),
            };
            if done.is_err() {
                break;
            }
        }
        survivors = Some(cluster.crash());
    }
    // What the power loss left of every log.
    let opened = opened.borrow();
    let images = opened
        .iter()
        .map(|(name, handle)| (name.clone(), handle.durable_bytes()))
        .collect();
    let meta_writes = opened.get("cluster.meta").map_or(0, |h| h.writes());
    Run {
        acked,
        deleted,
        images,
        survivors,
        meta_writes,
    }
}

#[test]
fn a_torn_metalog_write_at_any_boundary_recovers_without_wrong_bytes() {
    // The genesis view, the join's placement keys, prepare, landings and
    // commit, and a checkpoint: new keys and deletes log nothing.
    let total = run_until_power_loss(FaultSpec::default()).meta_writes;
    assert!(
        total >= 8,
        "the workload wrote only {total} metalog records"
    );
    let mut recovered = 0;
    for at in 0..total {
        for torn in [0, 5] {
            let run = run_until_power_loss(FaultSpec {
                crash_on_write: Some((at, torn)),
                ..FaultSpec::default()
            });
            let Some(survivors) = run.survivors else {
                // The genesis view itself was lost: no cluster ever existed.
                assert_eq!(at, 0);
                continue;
            };
            let factory = FaultyFactory::new(run.images, FaultSpec::default());
            let config = config().with_checkpoint_every(6);
            let (mut cluster, _) = ClusterStore::recover_with_factory(factory, config, survivors)
                .unwrap_or_else(|e| panic!("write {at}, {torn} torn bytes: {e}"));
            let (exact, wrong) = sweep(&mut cluster, &run.acked);
            assert!(
                wrong.is_empty(),
                "write {at}, {torn} torn bytes: wrong bytes for {wrong:?}"
            );
            assert_eq!(
                exact,
                run.acked.len(),
                "write {at}, {torn} torn bytes: an acked object was lost"
            );
            for key in &run.deleted {
                let read = cluster.retrieve(key, SelectionPolicy::FirstK, cluster.epoch());
                assert!(
                    matches!(
                        read,
                        Err(ClusterError::Storage(StorageError::UnknownObject { .. }))
                    ),
                    "write {at}, {torn} torn bytes: deleted {key} reads {read:?}"
                );
            }
            recovered += 1;
        }
    }
    assert!(recovered >= 2 * (total - 1));
}

// ---- a cluster that keeps no logs -------------------------------------------

#[test]
fn an_in_memory_cluster_refuses_a_disk_restart_and_keeps_serving() {
    let mut cluster = ClusterStore::new(CodeSpec::bcode_6_4(), config(), &[0, 1, 2], 8).unwrap();
    let mut acked = HashMap::new();
    for i in 0..30 {
        let (key, data) = object(i);
        cluster.store(&key, &data, cluster.epoch()).unwrap();
        acked.insert(key, data);
    }
    let held = cluster.shard(1).unwrap().num_objects();
    assert!(held > 0, "shard 1 holds some of the keys");

    let refused = cluster.restart_shard_from_disk(1);
    assert!(
        matches!(
            refused,
            Err(ClusterError::Storage(StorageError::Recovery { .. }))
        ),
        "{refused:?}"
    );
    assert!(cluster.shard_up(1));
    assert_eq!(cluster.shard(1).unwrap().num_objects(), held);
    let (exact, wrong) = sweep(&mut cluster, &acked);
    assert!(wrong.is_empty(), "wrong bytes for {wrong:?}");
    assert_eq!(exact, acked.len(), "shard 1 still serves every key");
}
