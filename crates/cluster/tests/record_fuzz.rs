//! Fuzz the shared record codec with both record types it carries: the
//! shard WAL's [`WalRecord`] and the cluster metalog's [`MetaRecord`].
//!
//! Random payloads, every truncation and every single-bit flip of valid
//! payloads, and `u32::MAX` planted in every length position go through
//! [`LogRecord::from_payload`] and through a framed [`RecordLog::replay`].
//! Decoding returns a record or `None`, replay returns records, a torn tail
//! or [`WalError::Corrupt`] — and nothing panics or allocates by an
//! unchecked length. Seeded with [`DetRng`], so a failure replays exactly.

use std::fmt::Debug;

use rain_cluster::{MetaRecord, MetaUnit};
use rain_sim::DetRng;
use rain_storage::wal::crc32;
use rain_storage::{
    write_frame, CheckpointPlacement, CheckpointState, GroupSnapshot, LogBackend, LogRecord,
    MemLog, ObjSpan, RecordLog, WalError, WalRecord,
};

fn wal_samples() -> Vec<WalRecord> {
    vec![
        WalRecord::StoreWhole {
            object: "big".into(),
        },
        WalRecord::StoreGrouped {
            object: "a".into(),
            group: 1,
            bytes: vec![1, 2, 3],
        },
        WalRecord::Delete { object: "a".into() },
        WalRecord::Seal { group: 1 },
        WalRecord::Compact { group: 1 },
        WalRecord::GroupImport {
            group: 5,
            members: vec![
                ("m".into(), ObjSpan { offset: 0, len: 2 }),
                ("n".into(), ObjSpan { offset: 2, len: 1 }),
            ],
            bytes: vec![7, 7, 7],
        },
        WalRecord::GroupEvict { group: 5 },
        WalRecord::Checkpoint {
            state: CheckpointState {
                next_group_id: 3,
                open_group: Some(2),
                objects: vec![
                    (
                        "a".into(),
                        CheckpointPlacement::Grouped {
                            group: 1,
                            span: ObjSpan { offset: 4, len: 3 },
                        },
                    ),
                    ("big".into(), CheckpointPlacement::Whole),
                ],
                groups: vec![GroupSnapshot {
                    group: 2,
                    sealed: false,
                    packed_len: 2,
                    live_bytes: 2,
                    live_objects: 1,
                    data: vec![9, 8],
                }],
            },
            state_crc_ok: true,
        },
    ]
}

fn meta_samples() -> Vec<MetaRecord> {
    vec![
        MetaRecord::ViewCommit {
            epoch: 2,
            members: vec![0, 1],
            vnodes: 8,
        },
        MetaRecord::DirPut {
            key: "k".into(),
            shard: 1,
        },
        MetaRecord::DirDel { key: "k".into() },
        MetaRecord::PkeyAssign {
            shard: 1,
            gid: 4,
            pkey: "p".into(),
        },
        MetaRecord::HandoverPrepare {
            members: vec![0, 1, 2],
        },
        MetaRecord::UnitLanded {
            from: 0,
            to: 2,
            unit: MetaUnit::Group { gid: 4, new_gid: 0 },
            members: vec!["k".into(), "l".into()],
        },
        MetaRecord::UnitLanded {
            from: 1,
            to: 2,
            unit: MetaUnit::Whole { name: "w".into() },
            members: vec!["w".into()],
        },
        MetaRecord::DualOverride {
            key: "k".into(),
            shard: 2,
        },
        MetaRecord::HandoverAbort,
        MetaRecord::Checkpoint {
            epoch: 3,
            members: vec![0, 2],
            vnodes: 8,
            directory: vec![("k".into(), 2), ("m".into(), 0)],
            pkeys: vec![(2, 0, "p".into())],
        },
    ]
}

fn encode<R: LogRecord>(record: &R) -> Vec<u8> {
    let mut payload = Vec::new();
    R::encode(record.view(), &mut payload);
    payload
}

/// A log whose backend holds exactly `bytes`.
fn log_over<R: LogRecord>(bytes: &[u8]) -> RecordLog<R> {
    let mut backend = MemLog::new();
    backend.append(bytes).unwrap();
    RecordLog::new(Box::new(backend))
}

/// Decode `payload` directly and as the one frame of a log; the two must
/// agree, and neither may panic.
fn decode_both_ways<R: LogRecord + PartialEq + Debug>(payload: &[u8]) -> Option<R> {
    let direct = R::from_payload(payload);
    let mut frame = Vec::new();
    write_frame(&mut frame, payload);
    match log_over::<R>(&frame).replay() {
        Ok(replay) => {
            assert!(!replay.torn_tail, "a whole frame is not torn");
            assert_eq!(replay.records.len(), 1);
            assert_eq!(replay.records.first(), direct.as_ref());
        }
        Err(e) => {
            assert_eq!(e, WalError::Corrupt { offset: 0 });
            assert!(direct.is_none(), "replay rejected a decodable payload");
        }
    }
    direct
}

fn fuzz_payloads<R: LogRecord + PartialEq + Debug>(samples: &[R], rng: &mut DetRng) {
    for sample in samples {
        let payload = encode(sample);
        assert_eq!(decode_both_ways::<R>(&payload).as_ref(), Some(sample));
        // Every field is mandatory, so every strict prefix underruns.
        for cut in 0..payload.len() {
            assert_eq!(decode_both_ways::<R>(&payload[..cut]), None, "cut {cut}");
        }
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            decode_both_ways::<R>(&flipped);
        }
        // u32::MAX in every position a length or count could sit.
        for at in 1..payload.len().saturating_sub(3) {
            let mut huge = payload.clone();
            huge[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            decode_both_ways::<R>(&huge);
        }
    }
    // Random payloads, half of them behind a valid tag byte so decoding
    // gets past the first field.
    for _ in 0..2000 {
        let len = rng.below(48) as usize;
        let mut payload: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        if !payload.is_empty() && rng.chance(0.5) {
            payload[0] = 1 + rng.below(9) as u8;
        }
        decode_both_ways::<R>(&payload);
    }
}

/// Log-level damage: every truncation of a multi-record log replays a
/// prefix of its records, and every bit flip replays, tears, or reports
/// corruption.
fn fuzz_log<R: LogRecord + PartialEq + Debug + Clone>(samples: &[R]) {
    let mut log = Vec::new();
    let mut boundaries = vec![0];
    for sample in samples {
        write_frame(&mut log, &encode(sample));
        boundaries.push(log.len());
    }
    for cut in 0..=log.len() {
        let replay = log_over::<R>(&log[..cut]).replay().unwrap();
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(replay.records, samples[..complete].to_vec(), "cut {cut}");
        assert_eq!(replay.torn_tail, !boundaries.contains(&cut), "cut {cut}");
    }
    for bit in 0..log.len() * 8 {
        let mut flipped = log.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match log_over::<R>(&flipped).replay() {
            Ok(replay) => assert!(replay.records.len() <= samples.len()),
            Err(e) => assert!(matches!(e, WalError::Corrupt { .. }), "bit {bit}: {e}"),
        }
    }
    // A frame header declaring a u32::MAX payload, with a valid header
    // checksum: a torn tail, not an allocation.
    let len = u32::MAX.to_le_bytes();
    let mut huge = log.clone();
    huge.extend_from_slice(&len);
    huge.extend_from_slice(&crc32(&len).to_le_bytes());
    huge.extend_from_slice(&[0u8; 8]);
    let replay = log_over::<R>(&huge).replay().unwrap();
    assert!(replay.torn_tail);
    assert_eq!(replay.records, samples.to_vec());
}

#[test]
fn shard_wal_records_decode_or_fail_cleanly_under_fuzzing() {
    let mut rng = DetRng::new(0x5a1_f022);
    fuzz_payloads(&wal_samples(), &mut rng);
    fuzz_log(&wal_samples());
}

#[test]
fn metalog_records_decode_or_fail_cleanly_under_fuzzing() {
    let mut rng = DetRng::new(0x3e7a_f022);
    fuzz_payloads(&meta_samples(), &mut rng);
    fuzz_log(&meta_samples());
}
