//! `decode_append` against a whole-block `decode_into`.
//!
//! A whole-object read appends the bytes it returns straight from the
//! verified shares, rebuilding only the lost data its range covers. What it
//! appends must be exactly `decode_into(..)[range]`, with the bytes already
//! in the output left as they were, for every family `build_code` builds,
//! every erasure pattern the code tolerates, the ranges a store reads (the
//! length prefix, then the object), cells longer than one decode window,
//! and a wrapper that relies on the trait's staging default.

use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;
use rain_codes::{
    build_code, CodeCost, CodeError, CodeKind, CodeSpec, ErasureCode, ShareSet, ShareView,
};

/// Every family `build_code` builds, at the parameters the golden tests pin.
fn codes() -> Vec<Arc<dyn ErasureCode>> {
    use CodeKind::*;
    [
        (BCode, 6, 4),
        (BCode, 10, 8),
        (XCode, 5, 3),
        (XCode, 7, 5),
        (EvenOdd, 7, 5),
        (SingleParity, 5, 4),
        (ReedSolomon, 6, 4),
        (ReedSolomon, 14, 10),
        (Mirroring, 3, 1),
    ]
    .into_iter()
    .map(|(kind, n, k)| build_code(CodeSpec::new(kind, n, k)).expect("a valid spec"))
    .collect()
}

/// A code that forwards only the required methods, so it runs the trait's
/// `decode_append` default.
struct Forwarding(Arc<dyn ErasureCode>);

impl ErasureCode for Forwarding {
    fn kind(&self) -> CodeKind {
        self.0.kind()
    }
    fn n(&self) -> usize {
        self.0.n()
    }
    fn k(&self) -> usize {
        self.0.k()
    }
    fn data_len_unit(&self) -> usize {
        self.0.data_len_unit()
    }
    fn cost(&self, data_len: usize) -> CodeCost {
        self.0.cost(data_len)
    }
    fn encode_slices(&self, data: &[u8], shares: &mut [&mut [u8]]) -> Result<(), CodeError> {
        self.0.encode_slices(data, shares)
    }
    fn decode_slices(&self, shares: &ShareView<'_>, out: &mut [u8]) -> Result<(), CodeError> {
        self.0.decode_slices(shares, out)
    }
    fn repair(
        &self,
        shares: &ShareView<'_>,
        missing: usize,
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        self.0.repair(shares, missing, out)
    }
}

fn bytes(len: usize, seed: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8 ^ seed as u8)
        .collect()
}

/// Every set of at most `max` of `n` share indices, the empty set first.
fn erasure_patterns(n: usize, max: usize) -> Vec<Vec<usize>> {
    (0u32..1 << n)
        .filter(|mask| mask.count_ones() as usize <= max)
        .map(|mask| (0..n).filter(|&i| mask & (1 << i) != 0).collect())
        .collect()
}

/// The ranges a store reads from a `block`-byte input of `cell`-byte cells:
/// the length prefix, an object of each interesting length after it, an
/// empty range at the end, and the whole block. Those that do not fit are
/// left out.
fn store_ranges(block: usize, cell: usize) -> Vec<Range<usize>> {
    let objects = [0, 1, cell - 1, cell, block - 8]
        .into_iter()
        .filter(|len| 8 + len <= block)
        .map(|len| 8..8 + len);
    std::iter::once(0..8)
        .chain(objects)
        .chain([block..block, 0..block])
        .collect()
}

/// The shares of `block` with those in `erased` missing, checked to decode
/// to `block` whole.
fn view<'a>(
    code: &dyn ErasureCode,
    shares: &'a ShareSet,
    erased: &[usize],
    block: &[u8],
) -> ShareView<'a> {
    let mut view = shares.as_view();
    for &i in erased {
        view.clear(i);
    }
    let mut whole = Vec::new();
    code.decode_into(&view, &mut whole).expect("decode_into");
    assert!(whole == block, "{:?} erased {erased:?}", code.spec());
    view
}

/// Append `range` after a few bytes already in the output and compare with
/// the same range of the whole decode, `block`.
fn check(
    code: &dyn ErasureCode,
    view: &ShareView<'_>,
    block: &[u8],
    range: Range<usize>,
) -> Result<(), TestCaseError> {
    let already = [0xee, 0x11, 0x77];
    let mut out = already.to_vec();
    code.decode_append(view, range.clone(), &mut out)
        .expect("decode_append");
    let case = format!("{:?}: range {range:?}", code.spec());
    prop_assert!(
        out[..3] == already,
        "{}: the bytes already there moved",
        case
    );
    prop_assert!(out[3..] == block[range], "{}", case);
    Ok(())
}

#[test]
fn every_store_range_under_every_erasure_pattern_matches_the_whole_decode() {
    let cell = 40;
    for code in codes() {
        let block_len = code.data_len_unit() * cell;
        let block = bytes(block_len, 3);
        let mut shares = ShareSet::new();
        code.encode_into(&block, &mut shares).unwrap();
        let wrapper = Forwarding(code.clone());
        for erased in erasure_patterns(code.n(), code.fault_tolerance()) {
            let view = view(code.as_ref(), &shares, &erased, &block);
            for range in store_ranges(block_len, cell) {
                check(code.as_ref(), &view, &block, range.clone()).unwrap();
                check(&wrapper, &view, &block, range).unwrap();
            }
        }
    }
}

#[test]
fn cells_longer_than_a_decode_window_rebuild_across_window_edges() {
    // Two whole 4 KiB windows and a short one per cell; the ranges cut a
    // cell inside a window, across a window edge, and across cells.
    let cell = 2 * 4096 + 24;
    for code in codes() {
        let block_len = code.data_len_unit() * cell;
        let block = bytes(block_len, 9);
        let mut shares = ShareSet::new();
        code.encode_into(&block, &mut shares).unwrap();
        let mut ranges = store_ranges(block_len, cell);
        ranges.extend([
            4090..4100,
            cell + 4000..cell + 8200,
            3 * cell / 2..block_len,
        ]);
        for erased in erasure_patterns(code.n(), code.fault_tolerance().min(2)) {
            let view = view(code.as_ref(), &shares, &erased, &block);
            for range in ranges
                .iter()
                .filter(|r| r.start <= r.end && r.end <= block_len)
            {
                check(code.as_ref(), &view, &block, range.clone()).unwrap();
            }
        }
    }
}

#[test]
fn a_range_past_the_block_is_an_error_not_a_panic() {
    let cell = 40;
    for code in codes() {
        let block_len = code.data_len_unit() * cell;
        let block = bytes(block_len, 1);
        let mut shares = ShareSet::new();
        code.encode_into(&block, &mut shares).unwrap();
        let wrapper = Forwarding(code.clone());
        let half = block_len / 2;
        for erased in [vec![], (0..code.fault_tolerance()).collect()] {
            let view = view(code.as_ref(), &shares, &erased, &block);
            let ranges = [
                block_len..block_len + 1,
                0..block_len + 1,
                block_len + 8..block_len + 16,
                half..half - 1,
                usize::MAX - 1..usize::MAX,
            ];
            for range in ranges {
                for code in [code.as_ref(), &wrapper] {
                    let mut out = vec![7u8];
                    let got = code.decode_append(&view, range.clone(), &mut out);
                    assert!(
                        matches!(got, Err(CodeError::BadRange { .. })),
                        "{:?} {range:?}: {got:?}",
                        code.spec()
                    );
                    assert_eq!(out, [7], "a refused range appends nothing");
                }
            }
        }
    }
}

#[test]
fn too_few_shares_is_the_decode_error() {
    for code in codes() {
        let block_len = code.data_len_unit() * 16;
        let mut shares = ShareSet::new();
        code.encode_into(&bytes(block_len, 2), &mut shares).unwrap();
        let mut view = shares.as_view();
        for i in 0..=code.fault_tolerance() {
            view.clear(i);
        }
        let mut out = Vec::new();
        assert!(matches!(
            code.decode_append(&view, 0..8, &mut out),
            Err(CodeError::TooManyErasures { .. })
        ));
        assert!(out.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_append_equals_the_whole_decode(
        which in 0usize..9,
        cell in 1usize..5000,
        erasure_seed in any::<u64>(),
        start_seed in any::<usize>(),
        len_seed in any::<usize>(),
        wrapped in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let code = codes().swap_remove(which);
        let block_len = code.data_len_unit() * cell;
        let block = bytes(block_len, seed);
        let mut shares = ShareSet::new();
        code.encode_into(&block, &mut shares).unwrap();
        let patterns = erasure_patterns(code.n(), code.fault_tolerance());
        let erased = &patterns[erasure_seed as usize % patterns.len()];
        let view = view(code.as_ref(), &shares, erased, &block);
        let start = start_seed % (block_len + 1);
        let range = start..start + len_seed % (block_len - start + 1);
        if wrapped {
            check(&Forwarding(code), &view, &block, range)?;
        } else {
            check(code.as_ref(), &view, &block, range)?;
        }
    }
}
