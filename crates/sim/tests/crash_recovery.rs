//! Deterministic crash-injection harness for the durable group-commit WAL.
//!
//! The recovery invariant under test, as a contract rather than a claim:
//! after a coordinator crash at **any** point, replaying the write-ahead
//! log yields a store in which
//!
//! 1. every **acked** object is retrievable **bit-for-bit**,
//! 2. every never-acked object is absent,
//! 3. the single in-flight op (the one the crash interrupted) has either
//!    happened completely or not at all — never half.
//!
//! The harness drives mixed store/delete/flush/compact workloads (object
//! sizes straddling the grouping threshold, overwrites, node failures
//! within the code's tolerance) against a logged store whose [`MemLog`]
//! backend carries a [`CrashFuse`]. The fuse kills the coordinator at a
//! chosen log append, persisting a chosen number of bytes of the fatal
//! frame — which covers all three crash classes:
//!
//! * `torn_bytes == 0` — the log ends at a record boundary, the in-flight
//!   record is lost;
//! * `0 < torn_bytes < frame` — a torn tail, replay must stop cleanly at
//!   the last complete record;
//! * `torn_bytes >= frame` — the record is durable, the coordinator died
//!   before applying it (recovery must redo it).
//!
//! [`crash_at_every_record_boundary_loses_nothing_acked`] enumerates every
//! record boundary of a fixed workload in both boundary classes;
//! [`crash_mid_record_write_replays_the_complete_prefix`] tears every
//! record at several byte offsets; the proptest sweeps random workloads ×
//! random crash points and, on failure, shrinks to a minimal trace.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rain_codes::{ArrayCode, BCode};
use rain_sim::NodeId;
use rain_storage::{
    CrashFuse, DistributedStore, GroupConfig, MemLog, SelectionPolicy, StorageError, WalError,
};

/// The paper's (6, 4) B-Code: tolerates two node failures.
const N: usize = 6;
const K: usize = 4;

fn code() -> Arc<ArrayCode> {
    Arc::new(BCode::table_1a())
}

/// Small threshold and capacity so workloads of tens of ops cross every
/// lifecycle edge: grouped and whole placements, capacity auto-seals,
/// explicit flushes, and compaction rewrites.
fn config() -> GroupConfig {
    GroupConfig {
        threshold: 64,
        capacity: 160,
        compact_watermark: 0.6,
        ..GroupConfig::disabled()
    }
    .logged()
}

/// One workload step. Node ops are bounded by the driver so the cluster
/// never drops below `k` live nodes (the crash under test is the
/// *coordinator's*, not a durability-exceeding node loss).
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
    /// Fail node `i % n`, if tolerance allows.
    FailNode(u8),
    /// Recover node `i % n`.
    RecoverNode(u8),
}

fn obj_name(name: u8) -> String {
    format!("obj-{name}")
}

/// Deterministic payload: a function of (name, store-op ordinal, length),
/// so reruns of the same trace produce identical bytes and bit-exactness
/// is checkable without storing the history anywhere else.
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

/// The op the crash interrupted, with what the oracle knew beforehand.
#[derive(Debug)]
enum InFlight {
    /// A store of `bytes` under `name`; `prev` is the acked predecessor.
    Store {
        name: String,
        bytes: Vec<u8>,
        prev: Option<Vec<u8>>,
    },
    /// A delete of `name`, which held `prev`.
    Delete { name: String, prev: Vec<u8> },
    /// A flush or compaction: no single-object relaxation applies.
    Maintenance,
}

struct Outcome {
    store: DistributedStore,
    /// Oracle: exactly the objects whose last mutation was acked, with
    /// their exact bytes.
    acked: BTreeMap<String, Vec<u8>>,
    in_flight: Option<InFlight>,
}

/// Run `ops` against a fresh logged store until completion or until the
/// fuse kills the coordinator. Only `WalError::Crashed` may interrupt the
/// run; any other error is a harness bug and panics.
fn drive(ops: &[Op], fuse: Option<CrashFuse>) -> Outcome {
    let backend = match fuse {
        Some(f) => MemLog::with_fuse(f),
        None => MemLog::new(),
    };
    let mut store = DistributedStore::with_wal(code(), config(), Box::new(backend));
    let mut acked: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut version = 0u64;
    let mut up = [true; N];
    for op in ops {
        match op {
            Op::Store { name, len } => {
                version += 1;
                let key = obj_name(*name);
                let bytes = payload(*name, version, *len as usize);
                match store.store(&key, &bytes) {
                    Ok(()) => {
                        acked.insert(key, bytes);
                    }
                    Err(StorageError::Wal(WalError::Crashed)) => {
                        let prev = acked.get(&key).cloned();
                        return Outcome {
                            store,
                            acked,
                            in_flight: Some(InFlight::Store {
                                name: key,
                                bytes,
                                prev,
                            }),
                        };
                    }
                    Err(e) => panic!("unexpected store error: {e}"),
                }
            }
            Op::Delete { name } => {
                let key = obj_name(*name);
                match store.delete(&key) {
                    Ok(()) => {
                        acked.remove(&key);
                    }
                    Err(StorageError::UnknownObject { .. }) => {}
                    Err(StorageError::Wal(WalError::Crashed)) => {
                        let prev = acked
                            .get(&key)
                            .cloned()
                            .expect("only known objects reach the log");
                        return Outcome {
                            store,
                            acked,
                            in_flight: Some(InFlight::Delete { name: key, prev }),
                        };
                    }
                    Err(e) => panic!("unexpected delete error: {e}"),
                }
            }
            Op::Flush => match store.flush() {
                Ok(_) => {}
                Err(StorageError::Wal(WalError::Crashed)) => {
                    return Outcome {
                        store,
                        acked,
                        in_flight: Some(InFlight::Maintenance),
                    };
                }
                Err(e) => panic!("unexpected flush error: {e}"),
            },
            Op::Compact => match store.compact() {
                Ok(_) => {}
                Err(StorageError::Wal(WalError::Crashed)) => {
                    return Outcome {
                        store,
                        acked,
                        in_flight: Some(InFlight::Maintenance),
                    };
                }
                Err(e) => panic!("unexpected compact error: {e}"),
            },
            Op::FailNode(i) => {
                let i = (*i as usize) % N;
                let up_count = up.iter().filter(|&&u| u).count();
                if up[i] && up_count > K {
                    store.fail_node(NodeId(i)).unwrap();
                    up[i] = false;
                }
            }
            Op::RecoverNode(i) => {
                let i = (*i as usize) % N;
                if !up[i] {
                    store.recover_node(NodeId(i)).unwrap();
                    up[i] = true;
                }
            }
        }
    }
    Outcome {
        store,
        acked,
        in_flight: None,
    }
}

/// Drive the workload into the given crash, recover from the log, and
/// verify the three-part invariant. `Err` carries a human-readable
/// description of the violation.
fn check_recovery(ops: &[Op], fuse: Option<CrashFuse>) -> Result<(), String> {
    let Outcome {
        store,
        acked,
        in_flight,
    } = drive(ops, fuse);
    let (nodes, wal) = store.crash();
    let wal = wal.expect("logged stores carry a wal");
    let (mut rec, _report) = DistributedStore::recover(code(), config(), nodes, wal)
        .map_err(|e| format!("recovery failed: {e}"))?;

    // The interrupted op is in doubt: it may have completed (its record
    // reached the log) or not (boundary/torn crash) — atomically either
    // way. These are the states its object may legally be in.
    let (doubt_name, doubt_allowed): (Option<String>, Vec<Option<Vec<u8>>>) = match &in_flight {
        Some(InFlight::Store { name, bytes, prev }) => {
            (Some(name.clone()), vec![Some(bytes.clone()), prev.clone()])
        }
        Some(InFlight::Delete { name, prev }) => {
            (Some(name.clone()), vec![None, Some(prev.clone())])
        }
        _ => (None, Vec::new()),
    };

    // 1. Every acked object, bit for bit.
    for (name, bytes) in &acked {
        if doubt_name.as_deref() == Some(name.as_str()) {
            continue; // checked against its allowed states below
        }
        match rec.retrieve(name, SelectionPolicy::FirstK) {
            Ok((out, _)) if &out == bytes => {}
            Ok(_) => return Err(format!("acked object {name} corrupted after recovery")),
            Err(e) => return Err(format!("acked object {name} lost: {e}")),
        }
    }
    // 3. The in-flight op happened completely or not at all.
    if let Some(name) = &doubt_name {
        let got = match rec.retrieve(name, SelectionPolicy::FirstK) {
            Ok((out, _)) => Some(out),
            Err(StorageError::UnknownObject { .. }) => None,
            Err(e) => return Err(format!("in-doubt object {name} unreadable: {e}")),
        };
        if !doubt_allowed.contains(&got) {
            return Err(format!(
                "in-doubt object {name} in a half-applied state ({} bytes)",
                got.map(|b| b.len()).unwrap_or(0)
            ));
        }
    }
    // 2. Nothing unacked is resurrected.
    let names: Vec<String> = rec.object_names().map(String::from).collect();
    for name in names {
        if !acked.contains_key(&name) && doubt_name.as_deref() != Some(name.as_str()) {
            return Err(format!("never-acked object {name} resurrected by recovery"));
        }
    }
    Ok(())
}

/// A fixed workload crossing every lifecycle edge: grouped and whole
/// placements, overwrites in both directions, deletes, an automatic
/// capacity seal, explicit flushes, compaction rewrites, and node churn
/// within tolerance.
fn workload() -> Vec<Op> {
    use Op::*;
    vec![
        Store { name: 0, len: 40 }, // grouped
        Store { name: 1, len: 50 }, // grouped
        Store { name: 2, len: 80 }, // whole
        Flush,                      // seals group {0, 1}
        Store { name: 3, len: 30 }, // grouped, new group
        Store { name: 0, len: 45 }, // overwrite: tombstone in sealed group
        Delete { name: 1 },         // sealed group now fully dead -> drops
        FailNode(5),
        Store { name: 4, len: 70 }, // whole
        Store { name: 2, len: 20 }, // whole -> grouped overwrite
        Compact,                    // rewrites the under-watermark group
        RecoverNode(5),
        Store { name: 5, len: 60 }, // grouped ...
        Store { name: 6, len: 60 }, // ... fills toward capacity 160
        Store { name: 7, len: 60 }, // auto-seal on this append
        Delete { name: 3 },
        Store { name: 4, len: 10 }, // whole -> grouped overwrite
        Flush,
        Delete { name: 0 },
        Compact,
        Store { name: 1, len: 90 }, // whole again
    ]
}

/// Tentpole proof, part 1: enumerate **every** record boundary of the
/// workload's log and crash the coordinator there, in both boundary
/// classes (in-flight record lost entirely / in-flight record durable but
/// unapplied). Zero acked-object loss, bit-exact retrieves, atomic
/// in-doubt resolution at every point.
#[test]
fn crash_at_every_record_boundary_loses_nothing_acked() {
    let ops = workload();
    let dry = drive(&ops, None);
    assert!(dry.in_flight.is_none(), "dry run must complete");
    let total = dry.store.group_stats().wal_records as usize;
    assert!(total >= 16, "workload too small to prove anything: {total}");
    for r in 0..=total {
        check_recovery(
            &ops,
            Some(CrashFuse {
                records_before_crash: r,
                torn_bytes: 0,
            }),
        )
        .unwrap_or_else(|e| panic!("boundary crash at record {r}/{total}: {e}"));
        if r < total {
            check_recovery(
                &ops,
                Some(CrashFuse {
                    records_before_crash: r,
                    torn_bytes: usize::MAX,
                }),
            )
            .unwrap_or_else(|e| panic!("crash after durable record {}/{total}: {e}", r + 1));
        }
    }
}

/// Tentpole proof, part 2 (torn tails): tear **every** record of the
/// workload's log at several byte offsets inside its frame. Replay must
/// stop cleanly at the last complete record and the invariant must hold.
#[test]
fn crash_mid_record_write_replays_the_complete_prefix() {
    let ops = workload();
    let dry = drive(&ops, None);
    let log = dry
        .store
        .crash()
        .1
        .expect("logged store")
        .contents()
        .expect("memlog never fails");
    // Recover the frame sizes from the dry-run log.
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < log.len() {
        // Frame = 12-byte header (length + header CRC + payload CRC) + payload.
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize + 12;
        frames.push(len);
        pos += len;
    }
    assert!(frames.len() >= 16);
    for (i, &frame_len) in frames.iter().enumerate() {
        for torn in [1, 7, frame_len / 2, frame_len - 1] {
            check_recovery(
                &ops,
                Some(CrashFuse {
                    records_before_crash: i,
                    torn_bytes: torn,
                }),
            )
            .unwrap_or_else(|e| {
                panic!("torn write of record {i} at {torn}/{frame_len} bytes: {e}")
            });
        }
    }
}

/// Satellite: log durability is independent of node availability. Replay
/// must succeed while fewer than `k` symbols of a sealed group are
/// reachable (it never decodes), open-group objects must come back straight
/// from the log, and sealed objects must return bit-exact once nodes do.
#[test]
fn crash_recovery_is_independent_of_node_availability() {
    let mut store = DistributedStore::with_wal(code(), config(), Box::new(MemLog::new()));
    store.store("sealed-a", &[1u8; 50]).unwrap();
    store.store("sealed-b", &[2u8; 50]).unwrap();
    store.flush().unwrap();
    store.store("open-a", &[3u8; 40]).unwrap();
    store.store("open-b", &[4u8; 30]).unwrap();
    // Lose more nodes than the (6, 4) code tolerates, then the coordinator.
    for i in 0..3 {
        store.fail_node(NodeId(i)).unwrap();
    }
    let (nodes, wal) = store.crash();
    let (mut rec, report) =
        DistributedStore::recover(code(), config(), nodes, wal.unwrap()).unwrap();
    assert_eq!(report.objects_recovered, 4, "replay reads no node symbols");
    for (name, byte, len) in [("open-a", 3u8, 40usize), ("open-b", 4, 30)] {
        let (out, rep) = rec.retrieve(name, SelectionPolicy::FirstK).unwrap();
        assert_eq!(out, vec![byte; len], "{name} straight from the log");
        assert!(rep.sources.is_empty(), "no node reads for open objects");
    }
    // Sealed objects still need k reachable symbols, as ever...
    assert!(matches!(
        rec.retrieve("sealed-a", SelectionPolicy::FirstK),
        Err(StorageError::NotEnoughNodes {
            available: 3,
            needed: 4
        })
    ));
    // ...and are bit-exact the moment a node returns.
    rec.recover_node(NodeId(0)).unwrap();
    for (name, byte) in [("sealed-a", 1u8), ("sealed-b", 2)] {
        assert_eq!(
            rec.retrieve(name, SelectionPolicy::FirstK).unwrap().0,
            vec![byte; 50]
        );
    }
}

/// Greedily minimise a failing (trace, crash point): drop every op whose
/// removal keeps the failure, then pull the crash point toward the origin.
/// Deterministic, so the reported minimal trace is reproducible.
fn shrink_failing_trace(
    ops: &[Op],
    fuse: CrashFuse,
    still_fails: impl Fn(&[Op], CrashFuse) -> bool,
) -> (Vec<Op>, CrashFuse) {
    let mut ops = ops.to_vec();
    let mut fuse = fuse;
    debug_assert!(still_fails(&ops, fuse), "shrinking a non-failure");
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < ops.len() {
            let mut candidate = ops.clone();
            candidate.remove(i);
            if still_fails(&candidate, fuse) {
                ops = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }
        while fuse.records_before_crash > 0 {
            let earlier = CrashFuse {
                records_before_crash: fuse.records_before_crash - 1,
                ..fuse
            };
            if still_fails(&ops, earlier) {
                fuse = earlier;
                progressed = true;
            } else {
                break;
            }
        }
        while fuse.torn_bytes > 0 {
            let smaller = CrashFuse {
                torn_bytes: fuse.torn_bytes / 2,
                ..fuse
            };
            if still_fails(&ops, smaller) {
                fuse = smaller;
                progressed = true;
            } else {
                break;
            }
        }
        if !progressed {
            return (ops, fuse);
        }
    }
}

/// The real property never fails (above), so the shrinker is proven on a
/// synthetic bug: a predicate needing three stores and a flush after the
/// first of them. An 18-op noisy trace must shrink to exactly those 4 ops,
/// and the crash point to the origin.
#[test]
fn crash_trace_shrinker_finds_a_minimal_trace() {
    let fails = |ops: &[Op], _fuse: CrashFuse| {
        let stores = ops.iter().filter(|o| matches!(o, Op::Store { .. })).count();
        let flush_after_store = ops
            .iter()
            .position(|o| matches!(o, Op::Store { .. }))
            .map(|p| ops[p..].iter().any(|o| matches!(o, Op::Flush)))
            .unwrap_or(false);
        stores >= 3 && flush_after_store
    };
    use Op::*;
    let noisy = vec![
        Delete { name: 1 },
        Store { name: 0, len: 40 },
        FailNode(2),
        Store { name: 1, len: 10 },
        Compact,
        Flush,
        Delete { name: 0 },
        Store { name: 2, len: 70 },
        RecoverNode(2),
        Flush,
        Store { name: 3, len: 30 },
        Compact,
        Store { name: 4, len: 5 },
        Delete { name: 3 },
        FailNode(0),
        Flush,
        Store { name: 5, len: 90 },
        Compact,
    ];
    let fuse = CrashFuse {
        records_before_crash: 9,
        torn_bytes: 3,
    };
    assert!(fails(&noisy, fuse));
    let (minimal, min_fuse) = shrink_failing_trace(&noisy, fuse, fails);
    assert_eq!(minimal.len(), 4, "3 stores + 1 flush: {minimal:?}");
    assert!(fails(&minimal, min_fuse), "shrunk trace still fails");
    assert_eq!(
        minimal
            .iter()
            .filter(|o| matches!(o, Op::Store { .. }))
            .count(),
        3
    );
    assert!(minimal.iter().any(|o| matches!(o, Op::Flush)));
    assert_eq!(min_fuse.records_before_crash, 0, "crash point minimised");
    assert_eq!(min_fuse.torn_bytes, 0);
}

/// Random-op strategy for the proptest sweep (the vendored proptest stub
/// takes plain `Strategy` impls; weights favour stores so traces hold
/// acked data worth losing).
#[derive(Debug, Clone, Copy)]
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;
    fn sample(&self, rng: &mut proptest::TestRng) -> Op {
        match rng.below(12) {
            0..=5 => Op::Store {
                name: rng.below(8) as u8,
                len: rng.below(97) as u16,
            },
            6..=7 => Op::Delete {
                name: rng.below(8) as u8,
            },
            8 => Op::Flush,
            9 => Op::Compact,
            10 => Op::FailNode(rng.below(6) as u8),
            _ => Op::RecoverNode(rng.below(6) as u8),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite: 64 random workloads × random crash points (record index
    /// and torn-byte count drawn independently; counts past the log's end
    /// exercise the crash-after-completion case). On a violation the trace
    /// is shrunk to a minimal reproduction before failing.
    #[test]
    fn crash_prop_random_workload_random_point(
        ops in proptest::collection::vec(OpStrategy, 4..40),
        limit in 0usize..64,
        torn in 0usize..256,
    ) {
        let fuse = CrashFuse { records_before_crash: limit, torn_bytes: torn };
        if let Err(msg) = check_recovery(&ops, Some(fuse)) {
            let (min_ops, min_fuse) = shrink_failing_trace(
                &ops,
                fuse,
                |o, f| check_recovery(o, Some(f)).is_err(),
            );
            prop_assert!(
                false,
                "{msg}\nminimal failing trace ({} ops, fuse {:?}): {:#?}",
                min_ops.len(),
                min_fuse,
                min_ops
            );
        }
    }
}
