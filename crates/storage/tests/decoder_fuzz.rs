//! Fuzz the two on-disk / on-wire decoders the record-codec fuzz does not
//! reach: the segmented log's 20-byte manifest (through
//! [`SegmentedFile::open`]) and the share frame (through [`open_frame`],
//! [`open_range`] and [`split_frame`]).
//!
//! A manifest either opens a log whose dead-byte trim fits inside its head
//! segment, or it is refused with an error. A frame either decodes to a
//! suffix of its own bytes or to `None`; no truncation, extension or
//! single-bit flip of a sealed frame verifies; a ranged open notices
//! damage exactly in the chunks it covers and in the generation; and the
//! byte layout of one frame per length class is pinned. Nothing panics.
//! Seeded with [`DetRng`], so a failure replays exactly.

use std::collections::BTreeMap;

use rain_sim::DetRng;
use rain_storage::transport::{
    frame_len, frame_payload_len, open_frame, open_range, seal_frame, split_frame, FRAME_CHUNK,
    FRAME_HEADER,
};
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
    // Beside existing segments, an empty manifest is a lost one, not a
    // fresh directory; every other truncation is not a manifest at all.
    for cut in 0..valid.len() {
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

/// A frame that decodes must be the input's own tail after a header of
/// the length its size implies, with the generation read from the front.
fn assert_suffix(frame: &[u8], decoded: Option<(u64, &[u8])>) {
    if let Some((gen, payload)) = decoded {
        let payload_len = frame_payload_len(frame.len()).expect("a valid length");
        assert_eq!(payload.len(), payload_len);
        assert_eq!(frame.len(), frame_len(payload_len));
        assert_eq!(gen.to_le_bytes(), frame[..8]);
        assert!(std::ptr::eq(payload, &frame[frame.len() - payload_len..]));
    }
}

#[test]
fn random_and_truncated_frames_decode_to_a_suffix_or_nothing() {
    let mut rng = DetRng::new(0xF2A3_00E5);
    // Short inputs, then inputs around the first two header-size changes.
    let short = (0..5000).map(|_| 0);
    let long = (0..600).map(|i| (1 + i % 2) * FRAME_CHUNK);
    for base in short.chain(long) {
        let len = base + rng.below(96) as usize;
        let bytes = random_bytes(&mut rng, len);
        assert_suffix(&bytes, open_frame(&bytes));
        let split = split_frame(&bytes);
        assert_eq!(split.is_some(), frame_payload_len(len).is_some());
        assert_suffix(&bytes, split);
    }
    for len in [0usize, 1, 7, 8, 9, 63, 300, 4095, 4096, 4097] {
        let payload = random_bytes(&mut rng, len);
        let frame = seal_frame(rng.below(u64::MAX), &payload);
        for cut in 0..frame.len() {
            let short = &frame[..cut];
            assert_eq!(open_frame(short), None, "len {len} cut to {cut}");
            assert_suffix(short, split_frame(short));
        }
        let mut long = frame.clone();
        long.push(rng.below(256) as u8);
        assert_eq!(open_frame(&long), None, "len {len} plus one byte");
    }
}

#[test]
fn exactly_the_lengths_no_payload_produces_are_refused() {
    // The header grows by one checksum per chunk, so past each chunk
    // boundary eight frame lengths name no payload at all.
    let mut invalid = Vec::new();
    for len in 0..4 * FRAME_CHUNK + 64 {
        match frame_payload_len(len) {
            Some(payload) => assert_eq!(frame_len(payload), len),
            None => invalid.push(len),
        }
    }
    let mut expect: Vec<usize> = (0..FRAME_HEADER).collect();
    for chunks in 1..=4 {
        let top = frame_len(chunks * FRAME_CHUNK);
        expect.extend(top + 1..top + 9);
    }
    assert_eq!(invalid, expect);
    for &len in &expect {
        assert_eq!(open_frame(&vec![0; len]), None);
        assert_eq!(split_frame(&vec![0; len]), None);
        assert_eq!(open_range(&vec![0; len], 0, 0), None);
    }
}

#[test]
fn every_single_bit_flip_of_a_sealed_frame_is_rejected() {
    let mut rng = DetRng::new(0xB17F_011B);
    // 4097 bytes is the smallest payload with two chunks (a full one and
    // a one-byte one), so a two-checksum header.
    for len in [0usize, 1, 8, 15, 16, 17, 255, 1024, 4097] {
        let payload = random_bytes(&mut rng, len);
        let gen = rng.below(u64::MAX);
        let mut frame = seal_frame(gen, &payload);
        assert_eq!(open_frame(&frame), Some((gen, &payload[..])));
        for byte in 0..frame.len() {
            for bit in 0..8 {
                frame[byte] ^= 1 << bit;
                assert_eq!(open_frame(&frame), None, "len {len} flip {byte}:{bit}");
                frame[byte] ^= 1 << bit;
            }
        }
    }
}

/// Header bytes of chunk `index`'s checksum.
fn sum_at(index: usize) -> std::ops::Range<usize> {
    8 + 8 * index..16 + 8 * index
}

/// Payload bytes of chunk `index` within a frame of `len`-byte payload.
fn chunk_at(len: usize, index: usize) -> std::ops::Range<usize> {
    let header = frame_len(len) - len;
    let start = (index * FRAME_CHUNK).min(len);
    header + start..header + (start + FRAME_CHUNK).min(len)
}

#[test]
fn a_ranged_open_checks_the_generation_and_exactly_the_covering_chunks() {
    let mut rng = DetRng::new(0x0C4C_0032);
    for len in [0usize, 1, 4095, 4096, 4097, 4 * FRAME_CHUNK] {
        let payload = random_bytes(&mut rng, len);
        let gen = rng.below(u64::MAX);
        let frame = seal_frame(gen, &payload);
        let chunks = frame_len(len).saturating_sub(len + 8) / 8;
        let mut ranges = vec![(0, 0), (0, len), (len, 0)];
        for _ in 0..6 {
            let offset = rng.below(len as u64 + 1) as usize;
            ranges.push((offset, rng.below((len - offset) as u64 + 1) as usize));
        }
        for (offset, n) in ranges {
            let want = Some((gen, &payload[offset..offset + n]));
            assert_eq!(open_range(&frame, offset, n), want);
            assert_eq!(
                open_range(&frame, offset, len + 1 - offset),
                None,
                "past the end"
            );
            let first = (offset / FRAME_CHUNK).min(chunks - 1);
            let last = if n == 0 {
                first
            } else {
                ((offset + n - 1) / FRAME_CHUNK).min(chunks - 1)
            };
            let mut flips = vec![(rng.below(8) as usize, "generation")];
            for index in 0..chunks {
                let covered = (first..=last).contains(&index);
                let sum = sum_at(index);
                flips.push((
                    rng.range(sum.start as u64, sum.end as u64) as usize,
                    "checksum",
                ));
                let body = chunk_at(len, index);
                if !body.is_empty() {
                    flips.push((
                        rng.range(body.start as u64, body.end as u64) as usize,
                        "chunk",
                    ));
                }
                for (at, what) in flips.drain(..) {
                    let mut damaged = frame.clone();
                    damaged[at] ^= 1 << rng.below(8);
                    let opened = open_range(&damaged, offset, n);
                    if what == "generation" || covered {
                        assert_eq!(opened, None, "len {len} {offset}+{n}: {what} {index}");
                    } else {
                        assert_eq!(opened, want, "len {len} {offset}+{n}: {what} {index}");
                    }
                    assert_eq!(open_frame(&damaged), None);
                }
            }
        }
    }
}

#[test]
fn a_chunk_does_not_verify_at_another_index_generation_or_frame_size() {
    let mut rng = DetRng::new(0x5A11_0032);
    let len = 4 * FRAME_CHUNK;
    let payload = random_bytes(&mut rng, len);
    let frame = seal_frame(9, &payload);
    // Chunks 1 and 2 trade places, checksums included.
    let mut swapped = frame.clone();
    let (one, two) = (chunk_at(len, 1), chunk_at(len, 2));
    swapped.copy_within(two.clone(), one.start);
    swapped.copy_within(sum_at(2), sum_at(1).start);
    swapped[two.clone()].copy_from_slice(&frame[one.clone()]);
    swapped[sum_at(2)].copy_from_slice(&frame[sum_at(1)]);
    assert_eq!(open_frame(&swapped), None);
    assert_eq!(open_range(&swapped, FRAME_CHUNK, 1), None);
    // Chunk 1 of the same payload sealed in another generation.
    let newer = seal_frame(10, &payload);
    let mut mixed = frame.clone();
    mixed[one.clone()].copy_from_slice(&newer[one.clone()]);
    mixed[sum_at(1)].copy_from_slice(&newer[sum_at(1)]);
    assert_eq!(open_frame(&mixed), None);
    assert_eq!(open_range(&mixed, FRAME_CHUNK, 1), None);
    assert!(open_range(&mixed, 0, 1).is_some(), "chunk 0 is untouched");
    // Chunk 0 of a frame one byte shorter: same bytes, another size.
    let shorter = seal_frame(9, &payload[..len - 1]);
    let mut resized = frame.clone();
    resized[sum_at(0)].copy_from_slice(&shorter[sum_at(0)]);
    assert_ne!(shorter[sum_at(0)], frame[sum_at(0)]);
    assert_eq!(open_range(&resized, 0, 1), None);
}

/// A deterministic payload of `len` bytes for the golden frames.
fn golden_payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + 7) as u8).collect()
}

#[test]
fn sealed_frames_match_their_golden_bytes() {
    // One frame per length class, generation 0x0102_0304_0506_0708: the
    // header is pinned in hex, the payload follows it verbatim. A change
    // here is a change of the share-frame format.
    let golden: [(usize, &str); 6] = [
        (0, "08070605040302012c3b431fe2627dc7"),
        (1, "0807060504030201ab4838dd7268d629"),
        (4095, "080706050403020104023a3d5f94ba6f"),
        (4096, "0807060504030201c468027cbaf640ba"),
        (4097, "08070605040302015ca86c036fd9f888b76e95891f23fcc6"),
        (
            4 * FRAME_CHUNK,
            "0807060504030201f186c63b01c634d2e1d8aecfc7d5938e788c6e88f8164218ed331d4cbb92825b",
        ),
    ];
    for (len, header) in golden {
        let payload = golden_payload(len);
        let frame = seal_frame(0x0102_0304_0506_0708, &payload);
        let hex: String = frame[..frame.len() - len]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, header, "header of the {len}-byte frame");
        assert_eq!(frame[frame.len() - len..], payload[..]);
    }
}
