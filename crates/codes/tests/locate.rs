//! [`Layout`] is the contract the storage layer's ranged reads stand on:
//! for every family `build_code` supports, every valid input length and
//! every byte offset, the run of the share that [`Layout::of`] found and
//! [`Layout::locate`] names must be the input's bytes, verbatim, inside one
//! data cell. A wrong answer here would be served to a reader as wrong
//! bytes, so the check is exhaustive over offsets rather than sampled. A
//! wrapper sees the layout of the code it wraps, and a code that keeps no
//! input byte verbatim has none.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rain_codes::{
    build_code, CodeCost, CodeError, CodeKind, CodeSpec, ErasureCode, Layout, ReedSolomon,
    ShareSet, ShareView,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The codes of [`families`], built once: the (10, 8) B-Code runs a
/// randomized layout search.
fn codes() -> &'static [Arc<dyn ErasureCode>] {
    static CODES: OnceLock<Vec<Arc<dyn ErasureCode>>> = OnceLock::new();
    CODES.get_or_init(|| {
        families()
            .into_iter()
            .map(|spec| build_code(spec).expect("reference spec builds"))
            .collect()
    })
}

fn families() -> Vec<CodeSpec> {
    vec![
        CodeSpec::new(CodeKind::BCode, 6, 4),
        CodeSpec::new(CodeKind::BCode, 10, 8),
        CodeSpec::new(CodeKind::XCode, 5, 3),
        CodeSpec::new(CodeKind::XCode, 7, 5),
        CodeSpec::new(CodeKind::EvenOdd, 5, 3),
        CodeSpec::new(CodeKind::EvenOdd, 7, 5),
        CodeSpec::new(CodeKind::ReedSolomon, 6, 4),
        CodeSpec::new(CodeKind::ReedSolomon, 9, 6),
        CodeSpec::new(CodeKind::Mirroring, 3, 1),
        CodeSpec::new(CodeKind::SingleParity, 2, 1),
        CodeSpec::new(CodeKind::SingleParity, 5, 4),
    ]
}

/// Every offset of a `blocks`-unit random input maps to a verbatim run of
/// one share that stays inside the data cell holding the offset and ends
/// at that cell's end; offsets past the input map to nothing.
fn check_every_offset(code: &dyn ErasureCode, seed: u64, blocks: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = code.data_len_unit() * blocks;
    let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    let mut shares = ShareSet::new();
    code.encode_into(&data, &mut shares).expect("encode");
    let cell_len = len / code.data_len_unit();
    let name = code.spec();
    let layout = Layout::of(code).unwrap_or_else(|| panic!("{name}: no layout"));
    for offset in 0..len {
        let (share, at, run) = layout
            .locate(len, offset)
            .unwrap_or_else(|| panic!("{name}: no location for byte {offset} of {len}"));
        assert!(run >= 1, "{name}: empty run at {offset}");
        assert_eq!(
            (offset + run) % cell_len,
            0,
            "{name}: run at {offset} does not end at its cell's end"
        );
        assert!(
            run <= cell_len - offset % cell_len,
            "{name}: run at {offset} leaves its cell"
        );
        assert_eq!(
            &shares.share(share)[at..at + run],
            &data[offset..offset + run],
            "{name}: share {share} at {at} is not input byte {offset}"
        );
    }
    assert_eq!(layout.locate(len, len), None, "{name}: past the end");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_family_locates_every_byte_verbatim(seed in any::<u64>(), blocks in 1usize..7) {
        for code in codes() {
            check_every_offset(code.as_ref(), seed, blocks);
        }
    }
}

#[test]
fn invalid_lengths_locate_nothing() {
    for code in codes() {
        let spec = code.spec();
        let unit = code.data_len_unit();
        let layout = Layout::of(code.as_ref()).expect("every family has a layout");
        assert_eq!(layout.locate(0, 0), None, "{spec}: empty input");
        if unit > 1 {
            assert_eq!(
                layout.locate(unit + 1, 0),
                None,
                "{spec}: not a unit multiple"
            );
        }
    }
}

/// A wrapper that forwards only the required methods, optionally
/// inverting every share byte its inner code writes (so no share holds an
/// input byte verbatim). The probe only encodes.
struct Wrapper {
    inner: ReedSolomon,
    invert: bool,
}

impl ErasureCode for Wrapper {
    fn kind(&self) -> CodeKind {
        self.inner.kind()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn k(&self) -> usize {
        self.inner.k()
    }
    fn data_len_unit(&self) -> usize {
        self.inner.data_len_unit()
    }
    fn cost(&self, data_len: usize) -> CodeCost {
        self.inner.cost(data_len)
    }
    fn encode_slices(&self, data: &[u8], shares: &mut [&mut [u8]]) -> Result<(), CodeError> {
        self.inner.encode_slices(data, shares)?;
        if self.invert {
            for share in shares.iter_mut() {
                share.iter_mut().for_each(|byte| *byte = !*byte);
            }
        }
        Ok(())
    }
    fn decode_slices(&self, _: &ShareView<'_>, _: &mut [u8]) -> Result<(), CodeError> {
        unreachable!("the layout probe only encodes")
    }
    fn repair(&self, _: &ShareView<'_>, _: usize, _: &mut [u8]) -> Result<(), CodeError> {
        unreachable!("the layout probe only encodes")
    }
}

#[test]
fn a_wrapper_has_its_codes_layout_and_a_scrambling_one_has_none() {
    let wrap = |invert| Wrapper {
        inner: ReedSolomon::new(6, 4).expect("RS(6,4)"),
        invert,
    };
    let inner = Layout::of(&ReedSolomon::new(6, 4).expect("RS(6,4)"));
    assert!(inner.is_some());
    assert_eq!(Layout::of(&wrap(false)), inner, "forwarding the encode");
    assert_eq!(Layout::of(&wrap(true)), None, "no byte kept verbatim");
}
