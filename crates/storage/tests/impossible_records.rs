//! A shard-WAL record whose checksums hold but whose group id or span no
//! store could have written is refused at recovery as
//! [`WalError::Corrupt`], never replayed into a coordinator that would
//! panic on it later.
//!
//! Each test appends one such record to the log a crashed store leaves
//! behind and recovers. Should recovery accept the record, the test then
//! runs the operation the impossible value breaks, and fails. The last
//! test plants the highest `next_group_id` a store can write, and checks
//! that running out of group ids is a typed error, not an overflow.

use std::sync::Arc;

use rain_codes::ReedSolomon;
use rain_storage::{
    CheckpointState, CodingGroup, DistributedStore, GroupConfig, MemLog, ObjSpan, Placement,
    SelectionPolicy, StorageError, WalError, WalRecord,
};

fn code() -> Arc<ReedSolomon> {
    Arc::new(ReedSolomon::new(6, 4).unwrap())
}

fn config() -> GroupConfig {
    GroupConfig {
        threshold: 1024,
        capacity: 4096,
        ..GroupConfig::disabled()
    }
    .logged()
}

/// Recover a logged store that sealed object `a` (100 bytes) into group 0,
/// crashed, and had `record` appended to its surviving log.
fn recover_with(record: WalRecord) -> Result<DistributedStore, StorageError> {
    let mut store = DistributedStore::with_wal(code(), config(), Box::new(MemLog::new()));
    store.store("a", &[1u8; 100]).unwrap();
    store.flush().unwrap();
    let (nodes, wal) = store.crash();
    let mut wal = wal.expect("a logged store keeps its log");
    wal.append(&record).unwrap();
    DistributedStore::recover(code(), config(), nodes, wal).map(|(store, _)| store)
}

/// Group 0 as it stands after the seal: sealed, one live 100-byte member.
fn sealed_group() -> (u64, CodingGroup) {
    (
        0,
        CodingGroup {
            data: Vec::new(),
            packed_len: 100,
            live_bytes: 100,
            live_objects: 1,
            sealed: true,
        },
    )
}

fn checkpoint(next_group_id: u64, span: ObjSpan) -> WalRecord {
    WalRecord::Checkpoint {
        state: CheckpointState {
            next_group_id,
            open_group: None,
            objects: vec![("a".into(), Placement::Grouped { group: 0, span })],
            groups: vec![sealed_group()],
        },
        state_crc_ok: true,
    }
}

fn assert_corrupt(
    result: Result<DistributedStore, StorageError>,
    then: impl FnOnce(DistributedStore),
) {
    match result {
        Err(StorageError::Wal(WalError::Corrupt { .. })) => {}
        Err(e) => panic!("expected a corrupt log, got {e}"),
        Ok(store) => {
            then(store);
            panic!("recovery accepted an impossible record");
        }
    }
}

#[test]
fn a_grouped_store_into_the_sentinel_group_is_corrupt() {
    let record = WalRecord::StoreGrouped {
        object: "x".into(),
        group: u64::MAX,
        bytes: vec![1, 2, 3],
    };
    assert_corrupt(recover_with(record), drop);
}

#[test]
fn a_checkpoint_span_whose_end_overflows_is_corrupt() {
    let span = ObjSpan {
        offset: usize::MAX,
        len: 2,
    };
    assert_corrupt(recover_with(checkpoint(1, span)), |mut store| {
        store.retrieve("a", SelectionPolicy::FirstK).ok();
    });
}

#[test]
fn a_checkpoint_with_no_next_group_id_left_is_corrupt() {
    let span = ObjSpan {
        offset: 0,
        len: 100,
    };
    assert_corrupt(recover_with(checkpoint(u64::MAX, span)), |mut store| {
        store.store("b", &[2u8; 10]).ok();
    });
}

#[test]
fn an_import_member_past_its_block_is_corrupt() {
    let record = WalRecord::GroupImport {
        group: 1,
        members: vec![(
            "m".into(),
            ObjSpan {
                offset: 1 << 20,
                len: 8,
            },
        )],
        bytes: vec![7; 4],
    };
    assert_corrupt(recover_with(record), |mut store| {
        store.retrieve("m", SelectionPolicy::FirstK).ok();
    });
}

#[test]
fn grouped_puts_past_the_last_group_id_are_refused() {
    let span = ObjSpan {
        offset: 0,
        len: 100,
    };
    let mut store = recover_with(checkpoint(u64::MAX - 1, span))
        .expect("the highest next_group_id a checkpoint carries recovers");
    // Opening a group would leave next_group_id at the sentinel. Each put
    // is flushed, so each would open a group of its own.
    for name in ["b", "c"] {
        assert!(
            matches!(
                store.store(name, &[2u8; 10]),
                Err(StorageError::GroupIdsExhausted)
            ),
            "grouped put of {name}"
        );
        store.flush().expect("flush");
    }
    store
        .store("whole", &[3u8; 2000])
        .expect("a whole put needs no group");
    store.checkpoint().expect("checkpoint");
    let (nodes, wal) = store.crash();
    let wal = wal.expect("a logged store keeps its log");
    let (mut store, _) = DistributedStore::recover(code(), config(), nodes, wal)
        .expect("the store's own checkpoint recovers");
    for (name, bytes) in [("a", vec![1u8; 100]), ("whole", vec![3u8; 2000])] {
        let got = store.retrieve(name, SelectionPolicy::FirstK).unwrap().0;
        assert_eq!(got, bytes, "{name}");
    }
    assert!(store.retrieve("b", SelectionPolicy::FirstK).is_err());
}
