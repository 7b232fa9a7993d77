//! Fuzz the two on-disk / on-wire decoders the record-codec fuzz does not
//! reach: the segmented log's 20-byte manifest (through
//! [`SegmentedFile::open`]) and the share frame (through [`open_frame`] and
//! [`split_frame`]).
//!
//! A manifest either opens a log whose dead-byte trim fits inside its head
//! segment, or it is refused with an error; a frame either decodes to a
//! suffix of its own bytes or to `None`, and no single-bit flip of a sealed
//! frame verifies. Nothing panics. Seeded with [`DetRng`], so a failure
//! replays exactly.

use std::collections::BTreeMap;

use rain_sim::DetRng;
use rain_storage::transport::{open_frame, seal_frame, split_frame, FRAME_HEADER};
use rain_storage::wal::crc32;
use rain_storage::{FaultSpec, FaultySegFs, RawLogFile, SegmentedFile};

const SEGMENT_BYTES: usize = 64;

fn random_bytes(rng: &mut DetRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// A CRC-valid manifest naming `head` as the first live segment with
/// `trim` dead leading bytes.
fn manifest(head: u64, trim: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(20);
    body.extend_from_slice(&head.to_le_bytes());
    body.extend_from_slice(&trim.to_le_bytes());
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// A directory holding `manifest` and one `wal.NNNNNN.seg` file of each
/// given length, filled with a byte derived from its index.
fn directory(manifest: Vec<u8>, segments: &[(u64, usize)]) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    files.insert("wal.manifest".to_string(), manifest);
    for &(index, len) in segments {
        files.insert(format!("wal.{index:06}.seg"), vec![index as u8 + 1; len]);
    }
    files
}

/// Open `files` as a segmented log and check what an accepted manifest
/// promises: the log is the contiguous run from `head` minus a trim no
/// larger than the head segment, it reads back without error, and a
/// truncation past its end is refused rather than panicking. Returns
/// whether the manifest was accepted.
fn open_and_check(files: BTreeMap<String, Vec<u8>>, head: u64, trim: u64) -> bool {
    let lens: BTreeMap<u64, usize> = files
        .iter()
        .filter_map(|(name, bytes)| {
            let idx = name.strip_prefix("wal.")?.strip_suffix(".seg")?;
            Some((idx.parse().ok()?, bytes.len()))
        })
        .collect();
    let (fs, _) = FaultySegFs::with_files(files, FaultSpec::default());
    let Ok(mut log) = SegmentedFile::open(Box::new(fs), SEGMENT_BYTES) else {
        return false;
    };
    let run: Vec<usize> = (head..).map_while(|i| lens.get(&i).copied()).collect();
    let total: usize = run.iter().sum();
    let bytes = log.read_all().expect("an opened log reads back");
    if let Some(&head_len) = run.first() {
        assert!(
            trim as usize <= head_len,
            "trim {trim} past head {head_len}"
        );
        assert_eq!(bytes.len(), total - trim as usize);
    } else {
        assert!(bytes.is_empty());
    }
    assert!(log.drop_prefix(bytes.len() + 1).is_err());
    log.drop_prefix(bytes.len())
        .expect("dropping everything is legal");
    true
}

#[test]
fn every_truncation_and_bit_flip_of_a_manifest_is_refused() {
    let segments = [(3, SEGMENT_BYTES), (4, SEGMENT_BYTES), (5, 17)];
    let valid = manifest(3, 40);
    assert!(open_and_check(directory(valid.clone(), &segments), 3, 40));
    // An empty manifest is a fresh directory; every other truncation is not
    // a manifest at all.
    for cut in 1..valid.len() {
        let files = directory(valid[..cut].to_vec(), &segments);
        assert!(!open_and_check(files, 3, 40), "truncation to {cut} bytes");
    }
    for byte in 0..valid.len() {
        for bit in 0..8 {
            let mut damaged = valid.clone();
            damaged[byte] ^= 1 << bit;
            let files = directory(damaged, &segments);
            assert!(!open_and_check(files, 3, 40), "flip at {byte}:{bit}");
        }
    }
}

#[test]
fn random_manifests_against_random_segments_open_or_fail_cleanly() {
    let mut rng = DetRng::new(0x5E6F_0022);
    let (mut accepted, mut refused) = (0, 0);
    for _ in 0..2000 {
        let head = rng.below(4);
        let mut segments = Vec::new();
        for i in 0..6 {
            if rng.chance(0.6) {
                segments.push((i, rng.below(SEGMENT_BYTES as u64 + 1) as usize));
            }
        }
        let trim = match rng.below(4) {
            0 => rng.below(u64::MAX),
            1 => SEGMENT_BYTES as u64 + rng.below(8),
            _ => rng.below(SEGMENT_BYTES as u64 + 1),
        };
        let head_len = segments.iter().find(|s| s.0 == head).map(|s| s.1);
        let ok = open_and_check(directory(manifest(head, trim), &segments), head, trim);
        if let Some(len) = head_len {
            assert_eq!(ok, trim as usize <= len, "head {head} trim {trim}");
        }
        if ok {
            accepted += 1;
        } else {
            refused += 1;
        }
    }
    assert!(
        accepted > 200 && refused > 200,
        "{accepted} / {refused}: both outcomes exercised"
    );
}

/// A decoded frame must be the input's own tail, with the generation read
/// from the header.
fn assert_suffix(frame: &[u8], decoded: Option<(u64, &[u8])>) {
    if let Some((gen, payload)) = decoded {
        assert!(frame.len() >= FRAME_HEADER);
        assert_eq!(gen.to_le_bytes(), frame[8..16]);
        assert!(std::ptr::eq(payload, &frame[FRAME_HEADER..]));
    }
}

#[test]
fn random_and_truncated_frames_decode_to_a_suffix_or_nothing() {
    let mut rng = DetRng::new(0xF2A3_00E5);
    for _ in 0..5000 {
        let len = rng.below(96) as usize;
        let bytes = random_bytes(&mut rng, len);
        assert_suffix(&bytes, open_frame(&bytes));
        let split = split_frame(&bytes);
        assert_eq!(split.is_some(), bytes.len() >= FRAME_HEADER);
        assert_suffix(&bytes, split);
    }
    for len in [0usize, 1, 7, 8, 9, 63, 300] {
        let payload = random_bytes(&mut rng, len);
        let frame = seal_frame(rng.below(u64::MAX), &payload);
        for cut in 0..frame.len() {
            let short = &frame[..cut];
            assert_suffix(short, open_frame(short));
            assert_suffix(short, split_frame(short));
        }
    }
}

#[test]
fn every_single_bit_flip_of_a_sealed_frame_is_rejected() {
    let mut rng = DetRng::new(0xB17F_011B);
    for len in [0usize, 1, 8, 15, 16, 17, 255, 1024] {
        let payload = random_bytes(&mut rng, len);
        let gen = rng.below(u64::MAX);
        let frame = seal_frame(gen, &payload);
        assert_eq!(open_frame(&frame), Some((gen, &payload[..])));
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut damaged = frame.clone();
                damaged[byte] ^= 1 << bit;
                assert_eq!(open_frame(&damaged), None, "len {len} flip {byte}:{bit}");
            }
        }
    }
}
