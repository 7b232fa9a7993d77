//! Golden bytes for both on-disk record logs: one framed record of every
//! shard-WAL [`WalRecord`] variant and every cluster-metalog [`MetaRecord`]
//! variant, compared against literals.
//!
//! The round-trip tests next to each codec cannot see a change applied the
//! same way on the encode and the decode side; these literals can. A log
//! written before such a change would no longer replay after it, so any
//! edit to a literal here is a format break and needs a version bump.

use std::cell::RefCell;
use std::rc::Rc;

use rain_cluster::{MetaLog, MetaRecord, MetaUnit};
use rain_storage::{
    CheckpointState, CodingGroup, LogBackend, ObjSpan, Placement, WalError, WalRecord,
    WriteAheadLog,
};

/// A backend whose bytes stay readable after the log handle took it.
#[derive(Debug, Default, Clone)]
struct SharedLog(Rc<RefCell<Vec<u8>>>);

impl LogBackend for SharedLog {
    fn append(&mut self, frame: &[u8]) -> Result<(), WalError> {
        self.0.borrow_mut().extend_from_slice(frame);
        Ok(())
    }
    fn contents(&self) -> Result<Vec<u8>, WalError> {
        Ok(self.0.borrow().clone())
    }
    fn truncate(&mut self, len: usize) -> Result<(), WalError> {
        self.0.borrow_mut().truncate(len);
        Ok(())
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn wal_frame(record: &WalRecord) -> String {
    let shared = SharedLog::default();
    let mut wal = WriteAheadLog::new(Box::new(shared.clone()));
    wal.append(record).unwrap();
    let bytes = shared.0.borrow().clone();
    hex(&bytes)
}

fn meta_frame(record: &MetaRecord) -> String {
    let shared = SharedLog::default();
    let mut log = MetaLog::new(Box::new(shared.clone()));
    log.append(record).unwrap();
    let bytes = shared.0.borrow().clone();
    hex(&bytes)
}

fn check(cases: Vec<(&str, String, &str)>) {
    let mismatches: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, _)| format!("{name}: {got}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "framed bytes changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn every_shard_wal_record_frames_to_its_golden_bytes() {
    let checkpoint = WalRecord::Checkpoint {
        state: CheckpointState {
            next_group_id: 3,
            open_group: Some(2),
            objects: vec![
                (
                    "a".into(),
                    Placement::Grouped {
                        group: 1,
                        span: ObjSpan { offset: 4, len: 3 },
                    },
                ),
                ("big".into(), Placement::Whole),
            ],
            groups: vec![
                (
                    1,
                    CodingGroup {
                        sealed: true,
                        packed_len: 7,
                        live_bytes: 3,
                        live_objects: 1,
                        data: Vec::new(),
                    },
                ),
                (
                    2,
                    CodingGroup {
                        sealed: false,
                        packed_len: 2,
                        live_bytes: 2,
                        live_objects: 1,
                        data: vec![9, 8],
                    },
                ),
            ],
        },
        state_crc_ok: true,
    };
    check(vec![
        (
            "StoreWhole",
            wal_frame(&WalRecord::StoreWhole {
                object: "big".into(),
            }),
            "08000000f3f7f0e431fedab40103000000626967",
        ),
        (
            "StoreGrouped",
            wal_frame(&WalRecord::StoreGrouped {
                object: "a".into(),
                group: 1,
                bytes: vec![1, 2, 3],
            }),
            "15000000b1788346dc7b6075020100000061010000000000000003000000010203",
        ),
        (
            "Delete",
            wal_frame(&WalRecord::Delete { object: "a".into() }),
            "06000000c0802f0473ab8330030100000061",
        ),
        (
            "Seal",
            wal_frame(&WalRecord::Seal { group: 1 }),
            "0900000096904c5c3c454f77040100000000000000",
        ),
        (
            "Compact",
            wal_frame(&WalRecord::Compact { group: 1 }),
            "0900000096904c5c7f513460050100000000000000",
        ),
        (
            "GroupImport",
            wal_frame(&WalRecord::GroupImport {
                group: 5,
                members: vec![("m".into(), ObjSpan { offset: 0, len: 2 })],
                bytes: vec![7, 7],
            }),
            "28000000cd58c24476f7189206050000000000000001000000010000006d00000000000000000200000000000000020000000707",
        ),
        (
            "GroupEvict",
            wal_frame(&WalRecord::GroupEvict { group: 5 }),
            "0900000096904c5c037788ca070500000000000000",
        ),
        (
            "AbortWhole",
            wal_frame(&WalRecord::AbortWhole {
                object: "big".into(),
            }),
            "08000000f3f7f0e484e53f670903000000626967",
        ),
        (
            "Checkpoint",
            wal_frame(&checkpoint),
            concat!(
                "8f00000071797e94c0532465086ffc647303000000000000000200000000000000",
                "0200000001000000610101000000000000000400000000000000030000000000",
                "0000030000006269670002000000010000000000000001070000000000000003",
                "0000000000000001000000000000000000000002000000000000000002000000",
                "0000000002000000000000000100000000000000020000000908",
            ),
        ),
    ]);
}

#[test]
fn every_metalog_record_frames_to_its_golden_bytes() {
    check(vec![
        (
            "ViewCommit",
            meta_frame(&MetaRecord::ViewCommit {
                epoch: 2,
                members: vec![0, 1],
                vnodes: 8,
            }),
            "250000001080a8b6ea597a5e01020000000000000008000000000000000200000000000000000000000100000000000000",
        ),
        (
            "DirPut",
            meta_frame(&MetaRecord::DirPut {
                key: "k".into(),
                shard: 1,
            }),
            "0e0000002fa89bc18ff5430a020100000000000000010000006b",
        ),
        (
            "DirDel",
            meta_frame(&MetaRecord::DirDel { key: "k".into() }),
            "06000000c0802f046d4256d003010000006b",
        ),
        (
            "PkeyAssign",
            meta_frame(&MetaRecord::PkeyAssign {
                shard: 1,
                gid: 4,
                pkey: "p".into(),
            }),
            "160000005fd7365464938ec604010000000000000004000000000000000100000070",
        ),
        (
            "HandoverPrepare",
            meta_frame(&MetaRecord::HandoverPrepare {
                members: vec![0, 1, 2],
            }),
            "1d0000005e50378318efaed10503000000000000000000000001000000000000000200000000000000",
        ),
        (
            "UnitLanded/Group",
            meta_frame(&MetaRecord::UnitLanded {
                from: 0,
                to: 2,
                unit: MetaUnit::Group { gid: 4, new_gid: 0 },
                members: vec!["k".into()],
            }),
            "2b00000023f77756def652f30600000000000000000200000000000000000400000000000000000000000000000001000000010000006b",
        ),
        (
            "UnitLanded/Whole",
            meta_frame(&MetaRecord::UnitLanded {
                from: 1,
                to: 2,
                unit: MetaUnit::Whole { name: "w".into() },
                members: vec!["w".into()],
            }),
            "2000000022707681b9042f670601000000000000000200000000000000010100000077010000000100000077",
        ),
        (
            "DualOverride",
            meta_frame(&MetaRecord::DualOverride {
                key: "k".into(),
                shard: 2,
            }),
            "0e0000002fa89bc12cf72a33070200000000000000010000006b",
        ),
        (
            "HandoverAbort",
            meta_frame(&MetaRecord::HandoverAbort),
            "0100000079b8f899bf67d9dc08",
        ),
        (
            "Checkpoint",
            meta_frame(&MetaRecord::Checkpoint {
                epoch: 3,
                members: vec![0, 2],
                vnodes: 8,
                directory: vec![("k".into(), 2)],
                pkeys: vec![(2, 0, "p".into())],
            }),
            concat!(
                "4f000000779733e25cea3d690903000000000000000800000000000000020000",
                "0000000000000000000200000000000000010000000200000000000000010000",
                "006b01000000020000000000000000000000000000000100000070",
            ),
        ),
    ]);
}
