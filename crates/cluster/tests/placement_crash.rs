//! The key directory is rebuilt from the shards at restart; the metalog
//! keeps only views, handovers, and the rare *exceptions* — keys a handover
//! left off their committed ring owner while another copy may remain.
//! These tests hold that rule to the restart contract through the
//! `ShardFactory` seam. One in-memory `FaultySegFs` holds the metalog and
//! every shard log (each a segmented log under its own prefix), so a power
//! loss at any write boundary tears them all together. Every acked key
//! reads back bit-exact, and no acked delete comes back.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use rain_cluster::{ClusterError, ClusterStore, ClusterSurvivors, ShardFactory, ShardId};
use rain_codes::{build_code, CodeSpec, ErasureCode};
use rain_storage::{
    FaultSpec, FaultySegFs, FaultySegHandle, FileLog, FsyncPolicy, GroupConfig, LogBackend,
    SegmentFs, SegmentedFile, SelectionPolicy, StorageError, WalError,
};

const SEGMENT_BYTES: usize = 2048;

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

fn payload(i: u32, version: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (i as usize * 31 + version as usize * 13 + j * 7) as u8)
        .collect()
}

/// Key `i` at `version`: small (grouped) objects, with every fifth one
/// large enough to be placed whole.
fn object(i: u32, version: u32) -> (String, Vec<u8>) {
    let len = if i.is_multiple_of(5) {
        120
    } else {
        24 + i as usize % 32
    };
    (format!("obj-{i}"), payload(i, version, len))
}

/// One log's directory inside the shared filesystem: its files, under
/// `prefix/`.
#[derive(Debug)]
struct Dir {
    fs: Rc<RefCell<FaultySegFs>>,
    prefix: String,
}

impl Dir {
    fn path(&self, name: &str) -> String {
        format!("{}/{name}", self.prefix)
    }
}

impl SegmentFs for Dir {
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.fs.borrow_mut().append(&self.path(name), bytes)
    }

    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        self.fs.borrow_mut().sync(&self.path(name))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        self.fs.borrow().read(&self.path(name))
    }

    fn len(&self, name: &str) -> Result<usize, WalError> {
        self.fs.borrow().len(&self.path(name))
    }

    fn remove(&mut self, name: &str) -> Result<(), WalError> {
        self.fs.borrow_mut().remove(&self.path(name))
    }

    fn list(&self) -> Result<Vec<String>, WalError> {
        let prefix = format!("{}/", self.prefix);
        let names = self.fs.borrow().list()?;
        Ok(names
            .iter()
            .filter_map(|n| n.strip_prefix(&prefix).map(String::from))
            .collect())
    }

    fn replace_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.fs.borrow_mut().replace_atomic(&self.path(name), bytes)
    }
}

/// Every log a segmented log in one shared [`FaultySegFs`].
struct SharedFactory {
    fs: Rc<RefCell<FaultySegFs>>,
}

impl SharedFactory {
    /// A factory over `files` (all durable), with `faults` armed; the
    /// handle reads the filesystem back after a power loss.
    fn new(files: BTreeMap<String, Vec<u8>>, faults: FaultSpec) -> (Self, FaultySegHandle) {
        let (fs, handle) = FaultySegFs::with_files(files, faults);
        let fs = Rc::new(RefCell::new(fs));
        (SharedFactory { fs }, handle)
    }
}

impl ShardFactory for SharedFactory {
    fn code(&self, _s: ShardId) -> Result<Arc<dyn ErasureCode>, StorageError> {
        Ok(build_code(CodeSpec::bcode_6_4())?)
    }

    fn log(
        &self,
        name: &str,
        config: &GroupConfig,
    ) -> Result<Option<Box<dyn LogBackend>>, WalError> {
        let dir = Dir {
            fs: Rc::clone(&self.fs),
            prefix: name.to_string(),
        };
        let file = SegmentedFile::open(Box::new(dir), SEGMENT_BYTES)?;
        Ok(Some(Box::new(FileLog::with_raw(
            Box::new(file),
            config.fsync,
        )?)))
    }
}

/// The files of shard `s`'s log.
fn files_of(files: &BTreeMap<String, Vec<u8>>, s: ShardId) -> BTreeMap<String, Vec<u8>> {
    let prefix = format!("shard-{s}.wal/");
    files
        .iter()
        .filter(|(n, _)| n.starts_with(&prefix))
        .map(|(n, b)| (n.clone(), b.clone()))
        .collect()
}

/// The acked keys whose ring owner after a join of shard 3 is shard 3.
fn joiner_keys(cluster: &ClusterStore, acked: &HashMap<String, Vec<u8>>) -> Vec<String> {
    let target = cluster.view().successor(&[0, 1, 2, 3]);
    let mut keys: Vec<String> = acked
        .keys()
        .filter(|k| target.owner_of(k) == Some(3))
        .cloned()
        .collect();
    keys.sort();
    keys
}

/// What a run acked, and which deletes it acked.
#[derive(Default)]
struct Ledger {
    acked: HashMap<String, Vec<u8>>,
    deleted: HashSet<String>,
}

impl Ledger {
    fn put(&mut self, cluster: &mut ClusterStore, key: &str, data: Vec<u8>) -> bool {
        // The op a power loss interrupts is in doubt: its key may come back
        // either way, so it is checked no further.
        self.acked.remove(key);
        self.deleted.remove(key);
        let done = cluster.store(key, &data, cluster.epoch()).is_ok();
        if done {
            self.acked.insert(key.to_string(), data);
        }
        done
    }

    fn delete(&mut self, cluster: &mut ClusterStore, key: &str) -> bool {
        self.acked.remove(key);
        let done = cluster.delete(key, cluster.epoch()).is_ok();
        if done {
            self.deleted.insert(key.to_string());
        }
        done
    }

    /// Every acked key reads back bit-exact; every acked delete stays
    /// deleted.
    fn check(&self, cluster: &mut ClusterStore, when: &str) {
        let epoch = cluster.epoch();
        for (key, expect) in &self.acked {
            match cluster.retrieve(key, SelectionPolicy::FirstK, epoch) {
                Ok(read) => assert!(&read.bytes == expect, "{when}: {key} wrong bytes"),
                Err(e) => panic!("{when}: acked {key} lost: {e}"),
            }
        }
        for key in &self.deleted {
            let read = cluster.retrieve(key, SelectionPolicy::FirstK, epoch);
            assert!(
                matches!(
                    read,
                    Err(ClusterError::Storage(StorageError::UnknownObject { .. }))
                ),
                "{when}: deleted {key} reads {read:?}"
            );
        }
    }
}

/// Seed twenty keys, then join shard 3 while it is down for the
/// overwrites of the keys it is to own: each override pins its key to the
/// committed owner, off its new ring owner, and the commit (shard 3 still
/// down) leaves the joiner's stale copies behind. Stops at the first
/// failed step.
fn join_with_the_joiner_down(cluster: &mut ClusterStore, ledger: &mut Ledger) -> bool {
    for i in 0..20 {
        let (key, data) = object(i, 0);
        if !ledger.put(cluster, &key, data) {
            return false;
        }
    }
    cluster.flush_all();
    let begun = cluster.begin_handover(&[0, 1, 2, 3]).is_ok_and(|_| {
        while let Ok(Some(_)) = cluster.transfer_next() {}
        true
    });
    if !begun {
        return false;
    }
    cluster.fail_shard(3);
    for key in joiner_keys(cluster, &ledger.acked) {
        let i: u32 = key["obj-".len()..].parse().unwrap();
        let (_, data) = object(i, 1);
        if !ledger.put(cluster, &key, data) {
            return false;
        }
    }
    if cluster.commit_handover().is_err() {
        return false;
    }
    cluster.recover_shard(3);
    true
}

/// The full schedule: the pinning join, then overwrites, deletes (one of a
/// pinned key) and new keys at the new epoch.
fn schedule(cluster: &mut ClusterStore, ledger: &mut Ledger) {
    if !join_with_the_joiner_down(cluster, ledger) {
        return;
    }
    let pinned = joiner_keys(cluster, &ledger.acked);
    let mut steps: Vec<(u32, Option<u32>)> = vec![(1, Some(2)), (2, None), (7, Some(2))];
    if let Some(key) = pinned.first() {
        steps.push((key["obj-".len()..].parse().unwrap(), None));
    }
    steps.extend((20..26).map(|i| (i, Some(0))));
    steps.push((4, None));
    for (i, version) in steps {
        let (key, data) = object(i, version.unwrap_or(0));
        let done = match version {
            Some(_) => ledger.put(cluster, &key, data),
            None => ledger.delete(cluster, &key),
        };
        if !done {
            return;
        }
    }
}

/// Run the schedule over a fresh filesystem armed with `faults`; return
/// the ledger, what the power loss left of every file, and the surviving
/// node fabrics.
fn run(faults: FaultSpec) -> (Ledger, FaultySegHandle, Option<ClusterSurvivors>) {
    let (factory, handle) = SharedFactory::new(BTreeMap::new(), faults);
    let mut ledger = Ledger::default();
    let survivors = ClusterStore::with_factory(factory, config(), &[0, 1, 2], 8)
        .ok()
        .map(|mut cluster| {
            schedule(&mut cluster, &mut ledger);
            cluster.crash()
        });
    (ledger, handle, survivors)
}

fn recover(files: BTreeMap<String, Vec<u8>>, survivors: ClusterSurvivors) -> ClusterStore {
    let (factory, _) = SharedFactory::new(files, FaultSpec::default());
    let (cluster, _) = ClusterStore::recover_with_factory(factory, config(), survivors).unwrap();
    cluster
}

#[test]
fn a_power_loss_at_any_write_boundary_tears_every_log_and_loses_nothing_acked() {
    let (ledger, handle, survivors) = run(FaultSpec::default());
    let mut cluster = recover(handle.durable_files(), survivors.unwrap());
    ledger.check(&mut cluster, "clean run");
    assert!(ledger.deleted.len() >= 3, "the schedule acked its deletes");
    let total = handle.writes();
    assert!(total >= 60, "the schedule wrote only {total} frames");
    let mut recovered = 0;
    for at in 0..total {
        for torn in [0, 5] {
            let faults = FaultSpec {
                crash_on_write: Some((at, torn)),
                ..FaultSpec::default()
            };
            let (ledger, handle, survivors) = run(faults);
            let Some(survivors) = survivors else {
                // The genesis view itself was lost: no cluster ever existed.
                continue;
            };
            let mut cluster = recover(handle.durable_files(), survivors);
            ledger.check(&mut cluster, &format!("write {at}, {torn} torn bytes"));
            recovered += 1;
        }
    }
    assert!(recovered >= 2 * (total - 2), "{recovered} of {total}");
}

/// A dual override collapses onto the committed owner while the joiner's
/// stale copy survives: the exception the replayed commit derives makes
/// the override's copy win at restart.
#[test]
fn the_override_copy_beats_the_joiners_stale_copy_at_restart() {
    let (factory, handle) = SharedFactory::new(BTreeMap::new(), FaultSpec::default());
    let mut cluster = ClusterStore::with_factory(factory, config(), &[0, 1, 2], 8).unwrap();
    let mut ledger = Ledger::default();
    assert!(join_with_the_joiner_down(&mut cluster, &mut ledger));
    let pinned = joiner_keys(&cluster, &ledger.acked);
    let stale: Vec<&String> = pinned
        .iter()
        .filter(|k| cluster.shard(3).unwrap().holds(k))
        .collect();
    assert!(!stale.is_empty(), "the joiner keeps a stale copy");
    for key in &pinned {
        let read = cluster.retrieve(key, SelectionPolicy::FirstK, cluster.epoch());
        assert_ne!(read.unwrap().shard, 3, "{key} is served by its old owner");
    }

    let survivors = cluster.crash();
    let (factory, _) = SharedFactory::new(handle.durable_files(), FaultSpec::default());
    let (mut cluster, report) =
        ClusterStore::recover_with_factory(factory, config(), survivors).unwrap();
    assert!(report.strays_evicted >= stale.len() as u64, "{report:?}");
    ledger.check(&mut cluster, "restart");
    for key in stale {
        assert!(!cluster.shard(3).unwrap().holds(key), "{key} stale copy");
    }
}

/// An exception key is deleted, then re-created on its ring owner, and the
/// old holder's log loses the delete to a torn tail: the re-created copy
/// wins, because the exception's end was synced before the delete acked.
#[test]
fn a_recreated_exception_key_beats_its_old_holders_torn_delete() {
    let (factory, handle) = SharedFactory::new(BTreeMap::new(), FaultSpec::default());
    let mut cluster = ClusterStore::with_factory(factory, config(), &[0, 1, 2], 8).unwrap();
    let mut ledger = Ledger::default();
    assert!(join_with_the_joiner_down(&mut cluster, &mut ledger));
    let key = joiner_keys(&cluster, &ledger.acked)[0].clone();
    let holder = cluster
        .retrieve(&key, SelectionPolicy::FirstK, 2)
        .unwrap()
        .shard;
    assert_ne!(holder, 3, "the key lives off its ring owner");
    let before = files_of(&handle.durable_files(), holder);

    assert!(ledger.delete(&mut cluster, &key));
    let i: u32 = key["obj-".len()..].parse().unwrap();
    let (_, data) = object(i, 9);
    assert!(ledger.put(&mut cluster, &key, data));
    assert_eq!(
        cluster
            .retrieve(&key, SelectionPolicy::FirstK, 2)
            .unwrap()
            .shard,
        3,
        "re-created on its ring owner"
    );

    // Power loss; the old holder keeps its log as it was before the
    // delete, plus five torn bytes of the delete's frame.
    let survivors = cluster.crash();
    let mut files = handle.durable_files();
    let after = files_of(&files, holder);
    for (name, bytes) in &after {
        let old = before.get(name).cloned().unwrap_or_default();
        let mut torn = old.clone();
        torn.extend_from_slice(&bytes[old.len()..(old.len() + 5).min(bytes.len())]);
        files.insert(name.clone(), torn);
    }
    let mut cluster = recover(files, survivors);
    ledger.check(&mut cluster, "restart");
}

/// Under a relaxed fsync policy, a join moves sealed groups to shard 3 by
/// their placement keys, and a moved member whose ring owner is still its
/// source is overwritten on the joiner, which then syncs; the source never
/// syncs again. The commit is synced before it returns, and the source's
/// eviction is durable once it drops the group's symbols, so the restart
/// finds only the new copy: there is no old one for the ring-owner rule to
/// prefer.
#[test]
fn a_moved_members_overwrite_beats_its_sources_eviction_under_relaxed_fsync() {
    let config = config().with_fsync(FsyncPolicy::EveryN(1000));
    let (factory, handle) = SharedFactory::new(BTreeMap::new(), FaultSpec::default());
    let mut cluster = ClusterStore::with_factory(factory, config, &[0, 1, 2], 8).unwrap();
    for i in 0..40 {
        let (key, data) = object(i, 0);
        cluster.store(&key, &data, 1).unwrap();
    }
    cluster.flush_all();
    let sources: HashMap<String, ShardId> = cluster
        .directory()
        .map(|(k, s)| (k.to_string(), s))
        .collect();
    cluster.begin_handover(&[0, 1, 2, 3]).unwrap();
    cluster.commit_handover().unwrap();
    let key = cluster
        .directory()
        .filter(|&(k, s)| s == 3 && cluster.view().owner_of(k) == Some(sources[k]))
        .map(|(k, _)| k.to_string())
        .min()
        .expect("a moved group carries a member its source still owns");
    let i: u32 = key["obj-".len()..].parse().unwrap();
    let (_, data) = object(i, 1);
    cluster.store(&key, &data, cluster.epoch()).unwrap();
    cluster.shard_mut(3).unwrap().sync_wal().unwrap();

    let survivors = cluster.crash();
    let (factory, _) = SharedFactory::new(handle.durable_files(), FaultSpec::default());
    let (mut cluster, report) =
        ClusterStore::recover_with_factory(factory, config, survivors).unwrap();
    let read = cluster.retrieve(&key, SelectionPolicy::FirstK, 2).unwrap();
    assert_eq!((read.shard, read.bytes), (3, data), "{key}: {report:?}");
}

/// Under a relaxed fsync policy, a grouped key the joiner is to own is
/// overwritten mid-handover, so the commit collapses it onto the joiner and
/// drops the old owner's copy, a grouped delete that frees no symbols and
/// so is not synced on its own. The key is then deleted on the joiner,
/// which syncs; the old owner never syncs again. The commit made the drop
/// durable before it returned, so the restart finds no copy: the acked
/// delete stays deleted.
#[test]
fn a_collapsed_dual_copy_stays_dropped_under_relaxed_fsync() {
    let config = config().with_fsync(FsyncPolicy::EveryN(1000));
    let (factory, handle) = SharedFactory::new(BTreeMap::new(), FaultSpec::default());
    let mut cluster = ClusterStore::with_factory(factory, config, &[0, 1, 2], 8).unwrap();
    let mut acked = HashMap::new();
    for i in 0..40 {
        let (key, data) = object(i, 0);
        cluster.store(&key, &data, 1).unwrap();
        acked.insert(key, data);
    }
    cluster.flush_all();
    cluster.begin_handover(&[0, 1, 2, 3]).unwrap();
    while cluster.transfer_next().unwrap().is_some() {}
    let key = joiner_keys(&cluster, &acked)
        .into_iter()
        .find(|k| !k["obj-".len()..].parse::<u32>().unwrap().is_multiple_of(5))
        .expect("the joiner is to own a grouped key");
    let i: u32 = key["obj-".len()..].parse().unwrap();
    let (_, data) = object(i, 1);
    cluster.store(&key, &data, 1).unwrap();
    let old_owner = cluster.directory().find(|(k, _)| *k == key).unwrap().1;
    cluster.commit_handover().unwrap();
    assert!(!cluster.shard(old_owner).unwrap().holds(&key));
    cluster.delete(&key, 2).unwrap();
    cluster.shard_mut(3).unwrap().sync_wal().unwrap();

    let survivors = cluster.crash();
    let (factory, _) = SharedFactory::new(handle.durable_files(), FaultSpec::default());
    let (mut cluster, report) =
        ClusterStore::recover_with_factory(factory, config, survivors).unwrap();
    let read = cluster.retrieve(&key, SelectionPolicy::FirstK, 2);
    assert!(
        matches!(
            read,
            Err(ClusterError::Storage(StorageError::UnknownObject { .. }))
        ),
        "{key} reads {read:?}: {report:?}"
    );
}

/// A new key's put under `FsyncPolicy::Always` syncs once, as an
/// overwrite does: the metalog logs nothing for it. The objects are whole
/// ones: a grouped put may also seal its group or compact an old one, a
/// second shard record.
#[test]
fn a_new_key_put_makes_one_sync_like_an_overwrite() {
    let (factory, handle) = SharedFactory::new(BTreeMap::new(), FaultSpec::default());
    let mut cluster = ClusterStore::with_factory(factory, config(), &[0, 1, 2], 8).unwrap();
    let mut put = |i: u32, version: u32| {
        let (key, data) = object(i, version);
        let syncs = handle.syncs();
        cluster.store(&key, &data, cluster.epoch()).unwrap();
        handle.syncs() - syncs
    };
    for version in [0, 1] {
        for i in (0..60).step_by(5) {
            assert_eq!(put(i, version), 1, "obj-{i} version {version}");
        }
    }
}
