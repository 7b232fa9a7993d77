//! Property-style round-trip tests for every code family: encode random
//! data, erase up to `n - k` random shares, decode, and require the exact
//! original bytes back. These exercise the word-wide XOR and table-driven
//! GF(256) kernels end-to-end through all four array/RS code paths.

use std::sync::OnceLock;

use proptest::prelude::*;
use rain_codes::{ArrayCode, BCode, ErasureCode, EvenOdd, ReedSolomon, ShareSet, XCode};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Encode `blocks` units of random data, erase `erasures` random shares,
/// decode, and compare byte-for-byte.
fn roundtrip(code: &dyn ErasureCode, seed: u64, blocks: usize, erasures: usize) {
    assert!(
        erasures <= code.fault_tolerance(),
        "test bug: asked for more erasures than the code tolerates"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let len = code.data_len_unit() * blocks;
    let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();

    let mut shares = ShareSet::new();
    code.encode_into(&data, &mut shares).expect("encode");
    assert_eq!(shares.n(), code.n());

    let mut view = shares.as_view();
    let mut columns: Vec<usize> = (0..code.n()).collect();
    columns.shuffle(&mut rng);
    for &column in &columns[..erasures] {
        view.clear(column);
    }

    let mut decoded = Vec::new();
    code.decode_into(&view, &mut decoded).expect("decode");
    assert_eq!(
        decoded,
        data,
        "{:?} failed to round-trip with {erasures} erasures (seed {seed})",
        code.kind()
    );
}

fn bcode10() -> &'static ArrayCode {
    // The (10, 8) construction runs a randomized layout search; build once.
    static CODE: OnceLock<ArrayCode> = OnceLock::new();
    CODE.get_or_init(|| BCode::new(10).expect("B-Code n=10 constructs"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's (6, 4) B-Code survives any loss of up to two shares.
    #[test]
    fn prop_bcode_6_4_roundtrips(seed in any::<u64>(), blocks in 1usize..9, erasures in 0usize..3) {
        roundtrip(&BCode::table_1a(), seed, blocks, erasures);
    }

    /// The searched (10, 8) B-Code does too.
    #[test]
    fn prop_bcode_10_8_roundtrips(seed in any::<u64>(), blocks in 1usize..5, erasures in 0usize..3) {
        roundtrip(bcode10(), seed, blocks, erasures);
    }

    /// X-Code, small and mid prime.
    #[test]
    fn prop_xcode_5_roundtrips(seed in any::<u64>(), blocks in 1usize..9, erasures in 0usize..3) {
        roundtrip(&XCode::new(5).unwrap(), seed, blocks, erasures);
    }

    #[test]
    fn prop_xcode_7_roundtrips(seed in any::<u64>(), blocks in 1usize..5, erasures in 0usize..3) {
        roundtrip(&XCode::new(7).unwrap(), seed, blocks, erasures);
    }

    /// EVENODD, small and mid prime.
    #[test]
    fn prop_evenodd_5_roundtrips(seed in any::<u64>(), blocks in 1usize..9, erasures in 0usize..3) {
        roundtrip(&EvenOdd::new(5).unwrap(), seed, blocks, erasures);
    }

    #[test]
    fn prop_evenodd_7_roundtrips(seed in any::<u64>(), blocks in 1usize..5, erasures in 0usize..3) {
        roundtrip(&EvenOdd::new(7).unwrap(), seed, blocks, erasures);
    }

    /// Reed-Solomon through the precomputed split-table encode path.
    #[test]
    fn prop_rs_6_4_roundtrips(seed in any::<u64>(), blocks in 1usize..65, erasures in 0usize..3) {
        roundtrip(&ReedSolomon::new(6, 4).unwrap(), seed, blocks, erasures);
    }

    #[test]
    fn prop_rs_10_8_roundtrips(seed in any::<u64>(), blocks in 1usize..33, erasures in 0usize..3) {
        roundtrip(&ReedSolomon::new(10, 8).unwrap(), seed, blocks, erasures);
    }
}

/// Exhaustive (not sampled) pass over every maximal erasure pattern for the
/// paper's parameter points, at a share length that exercises both the word
/// loop and the scalar tail of the kernels.
#[test]
fn all_maximal_erasure_patterns_roundtrip() {
    let codes: Vec<Box<dyn ErasureCode>> = vec![
        Box::new(BCode::table_1a()),
        Box::new(XCode::new(5).unwrap()),
        Box::new(EvenOdd::new(5).unwrap()),
        Box::new(ReedSolomon::new(6, 4).unwrap()),
    ];
    for code in &codes {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        // 13 units: odd, so cell lengths land off the 8-byte lane boundary.
        let data: Vec<u8> = (0..code.data_len_unit() * 13).map(|_| rng.gen()).collect();
        let mut shares = ShareSet::new();
        code.encode_into(&data, &mut shares).unwrap();
        let n = code.n();
        let mut decoded = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let mut view = shares.as_view();
                view.clear(a);
                view.clear(b);
                code.decode_into(&view, &mut decoded).unwrap();
                assert_eq!(
                    decoded,
                    data,
                    "{:?} failed erasing columns {a},{b}",
                    code.kind()
                );
            }
        }
    }
}
