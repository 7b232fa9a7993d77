//! Heap allocations per whole-object operation, counted exactly.
//!
//! A counting global allocator (this test target's own) tallies every
//! allocation the test thread makes while a file-logged RS(6,4)
//! `DistributedStore` under `FsyncPolicy::EveryN(8)` serves 4 KiB objects
//! in steady state, the shape of the `whole-4k-degraded` benchmark
//! workload. Each path is warmed up first, so what is pinned is the
//! per-op cost, not a map or pool growing:
//!
//! | path | bound | why |
//! | --- | --- | --- |
//! | new put | 2.5 | the name in the object table and in the fabric; the row and the `n` frames are the deleted key's, reused (measured 2.002: one more allocation in the 512 counted puts; the margin is for map growth, not frames) |
//! | overwrite | 2 | one name per parked overwrite; parked frames are recycled |
//! | get | 9 | the read's own vectors and the returned bytes |
//! | degraded get | 8 | the same, with two of the six nodes down |
//!
//! Run with `--nocapture` to see the measured values.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rain_codes::ReedSolomon;
use rain_sim::NodeId;
use rain_storage::{DistributedStore, FileLog, FsyncPolicy, GroupConfig, SelectionPolicy};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const OBJECT: usize = 4096;
const KEYS: usize = 64;
/// Ops per measurement: a multiple of the fsync window, so every
/// measurement sees the same share of syncing appends.
const OPS: usize = 8 * 64;

fn name(i: usize) -> String {
    format!("key-{i:05}")
}

fn bytes(i: usize, version: u8) -> Vec<u8> {
    (0..OBJECT).map(|j| (i + j) as u8 ^ version).collect()
}

/// Allocations per call of `op` over `OPS` calls, after as many warm-up
/// calls. Each call's input is prepared by `setup`, uncounted.
fn per_op<I>(
    s: &mut DistributedStore,
    mut setup: impl FnMut(&mut DistributedStore, usize) -> I,
    mut op: impl FnMut(&mut DistributedStore, I),
) -> f64 {
    for i in 0..OPS {
        let arg = setup(s, i);
        op(s, arg);
    }
    let mut total = 0;
    for i in OPS..2 * OPS {
        let arg = setup(s, i);
        let before = allocs();
        op(s, arg);
        total += allocs() - before;
    }
    total as f64 / OPS as f64
}

#[test]
fn whole_object_ops_stay_within_their_allocation_budgets() {
    let dir = std::env::temp_dir().join(format!("rain-whole-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let policy = FsyncPolicy::EveryN(8);
    let log = FileLog::open(dir.join("shard.wal"), policy).unwrap();
    let config = GroupConfig::small_objects().logged().with_fsync(policy);
    let code = Arc::new(ReedSolomon::new(6, 4).unwrap());
    let mut s = DistributedStore::with_wal(code, config, Box::new(log));
    for i in 0..KEYS {
        s.store(&name(i), &bytes(i, 0)).unwrap();
    }

    // A new key each time, with the oldest key deleted first (uncounted),
    // so the tables hold a steady number of entries.
    let new_put = per_op(
        &mut s,
        |s, i| {
            s.delete(&name(i)).unwrap();
            (name(KEYS + i), bytes(KEYS + i, 0))
        },
        |s, (key, data)| s.store(&key, &data).unwrap(),
    );
    let live: Vec<String> = (2 * OPS..2 * OPS + KEYS).map(name).collect();
    let data = bytes(7, 1);
    let overwrite = per_op(
        &mut s,
        |_, i| &live[i % KEYS],
        |s, key| s.store(key, &data).unwrap(),
    );
    let get = per_op(
        &mut s,
        |_, i| &live[i % KEYS],
        |s, key| drop(s.retrieve(key, SelectionPolicy::FirstK).unwrap()),
    );
    s.fail_node(NodeId(0)).unwrap();
    s.fail_node(NodeId(1)).unwrap();
    let degraded_get = per_op(
        &mut s,
        |_, i| &live[i % KEYS],
        |s, key| {
            let (out, report) = s.retrieve(key, SelectionPolicy::FirstK).unwrap();
            assert!(report.degraded && out.len() == OBJECT);
        },
    );
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();

    eprintln!(
        "allocations/op: new put {new_put:.2}, overwrite {overwrite:.2}, \
         get {get:.2}, degraded get {degraded_get:.2}"
    );
    assert!(new_put <= 2.5, "new 4 KiB put: {new_put:.4} allocations/op");
    assert!(overwrite <= 2.0, "overwrite: {overwrite:.2} allocations/op");
    assert!(get <= 9.0, "get: {get:.2} allocations/op");
    assert!(
        degraded_get <= 8.0,
        "degraded get: {degraded_get:.2} allocations/op"
    );
}
