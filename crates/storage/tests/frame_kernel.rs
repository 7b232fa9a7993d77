//! The wide chunk-checksum kernel against its scalar oracle.
//!
//! `seal_in_place`, `open_frame` and `open_range` hash eight full 4 KiB
//! chunks at a time where the CPU allows, and one chunk at a time with
//! `share_checksum` elsewhere. Frames are the bytes nodes keep, so the two
//! must agree byte for byte: every seal equals the scalar seal, and every
//! open accepts exactly what a chunk-by-chunk `share_checksum` check
//! accepts. On a CPU without the wide kernel both sides run the scalar
//! path and these tests still pin it to the oracle.

use std::ops::Range;

use rain_storage::transport::{
    frame_len, open_frame, open_range, seal_in_place, seal_in_place_scalar, share_checksum,
    split_frame, FRAME_CHUNK,
};

const GENS: [u64; 3] = [1, 0x5eed_0000_0000_0007, u64::MAX];

/// A payload that differs at every length and position.
fn payload(len: usize, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(0x9e37_79b9) ^ salt.rotate_left(i as u32 % 64)) as u8)
        .collect()
}

/// A frame of `data` sealed by `seal`.
fn sealed(gen: u64, data: &[u8], seal: fn(u64, &mut [u8])) -> Vec<u8> {
    let mut frame = vec![0u8; frame_len(data.len())];
    let header = frame.len() - data.len();
    frame[header..].copy_from_slice(data);
    seal(gen, &mut frame);
    frame
}

/// The oracle: chunks `chunks` of `frame` carry the sums `share_checksum`
/// gives, chunk by chunk.
fn scalar_verifies(frame: &[u8], chunks: Range<usize>) -> bool {
    let (gen, payload) = split_frame(frame).expect("a valid frame length");
    chunks.into_iter().all(|index| {
        let start = (index * FRAME_CHUNK).min(payload.len());
        let chunk = &payload[start..(start + FRAME_CHUNK).min(payload.len())];
        let at = 8 + 8 * index;
        let stored = u64::from_le_bytes(frame[at..at + 8].try_into().unwrap());
        share_checksum(gen, index, payload.len(), chunk) == stored
    })
}

fn chunks_of(len: usize) -> usize {
    len.div_ceil(FRAME_CHUNK).max(1)
}

/// Lengths where the wide kernel starts, stops, or hands a short run to
/// the scalar one: around 8 and 16 full chunks, and a B-Code(6,4) share
/// of a 1 MiB object.
fn wide_lengths() -> Vec<usize> {
    let mut lengths = vec![262_146];
    for chunks in [7, 8, 9, 15, 16, 17, 24] {
        let edge = chunks * FRAME_CHUNK;
        lengths.extend([edge - 33, edge - 1, edge, edge + 1, edge + 32, edge + 65]);
    }
    lengths
}

#[test]
fn the_scalar_seal_stamps_share_checksum_of_every_chunk() {
    for len in [0, 1, 31, FRAME_CHUNK, FRAME_CHUNK + 1, 9 * FRAME_CHUNK + 5] {
        let data = payload(len, 3);
        for gen in GENS {
            let frame = sealed(gen, &data, seal_in_place_scalar);
            assert_eq!(split_frame(&frame), Some((gen, &data[..])));
            assert!(scalar_verifies(&frame, 0..chunks_of(len)), "len {len}");
        }
    }
}

#[test]
fn every_short_length_seals_the_same_bytes() {
    let longest = payload(4 * FRAME_CHUNK + 64, 5);
    for len in 0..=longest.len() {
        let data = &longest[..len];
        for gen in GENS {
            assert_eq!(
                sealed(gen, data, seal_in_place),
                sealed(gen, data, seal_in_place_scalar),
                "len {len}, gen {gen}"
            );
        }
    }
}

#[test]
fn lengths_around_the_wide_runs_seal_the_same_bytes() {
    for len in wide_lengths() {
        let data = payload(len, !(len as u64));
        for gen in GENS {
            let frame = sealed(gen, &data, seal_in_place);
            assert_eq!(frame, sealed(gen, &data, seal_in_place_scalar), "len {len}");
            assert!(open_frame(&frame).is_some(), "len {len}");
        }
    }
}

#[test]
fn opens_agree_with_scalar_verification_on_every_damaged_chunk() {
    let mut lengths = wide_lengths();
    lengths.extend([0, 100, FRAME_CHUNK, 3 * FRAME_CHUNK + 7]);
    for len in lengths {
        let data = payload(len, 11);
        let clean = sealed(GENS[1], &data, seal_in_place);
        let header = clean.len() - len;
        let chunks = chunks_of(len);
        for damaged in 0..chunks {
            // One flip inside chunk `damaged`'s payload (or, for an empty
            // payload, in its checksum), at a position that moves with it.
            let mut frame = clean.clone();
            let at = match len {
                0 => 8,
                _ => header + (damaged * FRAME_CHUNK + damaged * 97 % FRAME_CHUNK).min(len - 1),
            };
            frame[at] ^= 1 << (damaged % 8);
            assert!(!scalar_verifies(&frame, 0..chunks));
            assert_eq!(open_frame(&frame), None, "len {len}, chunk {damaged}");
            // The damaged chunk alone, the eight chunks that end at it and
            // the eight that follow it (so the wide kernel starts at every
            // offset), and the whole payload: the open accepts exactly what
            // the oracle accepts, and returns the range's bytes when it
            // does.
            let ranges = [
                damaged..damaged + 1,
                damaged.saturating_sub(7)..damaged + 1,
                (damaged + 1).min(chunks - 1)..(damaged + 9).min(chunks),
                0..chunks,
            ];
            for chunk_range in ranges {
                let offset = (chunk_range.start * FRAME_CHUNK).min(len);
                let range_len = (chunk_range.end * FRAME_CHUNK).min(len) - offset;
                let want = scalar_verifies(&frame, chunk_range.clone())
                    .then(|| (GENS[1], &data[offset..offset + range_len]));
                assert_eq!(
                    open_range(&frame, offset, range_len),
                    want,
                    "len {len}, damaged {damaged}, chunks {chunk_range:?}"
                );
            }
        }
    }
}
