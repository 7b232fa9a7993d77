//! `ErasureCode::locate` is the contract the storage layer's ranged reads
//! stand on: for every family `build_code` supports, every valid input
//! length and every byte offset, the named run of the named share must be
//! the input's bytes, verbatim, inside one data cell. A wrong answer here
//! would be served to a reader as wrong bytes, so the check is exhaustive
//! over offsets rather than sampled.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rain_codes::{build_code, BCode, CodeKind, CodeSpec, ErasureCode, ShareSet, StripedCodec};
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
    for offset in 0..len {
        let (share, at, run) = code
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
    assert_eq!(code.locate(len, len), None, "{name}: past the end");
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
        assert_eq!(code.locate(0, 0), None, "{spec}: empty input");
        if unit > 1 {
            assert_eq!(
                code.locate(unit + 1, 0),
                None,
                "{spec}: not a unit multiple"
            );
        }
    }
}

#[test]
fn striped_codec_always_decodes() {
    // Its share layout depends on the stripe length, so it names no
    // verbatim location and readers fall back to a decode.
    let inner: Arc<dyn ErasureCode> = Arc::new(BCode::table_1a());
    let unit = inner.data_len_unit();
    let striped = StripedCodec::new(inner, unit * 2, 1).expect("valid stripe");
    for offset in 0..unit * 8 {
        assert_eq!(striped.locate(unit * 8, offset), None);
    }
}
