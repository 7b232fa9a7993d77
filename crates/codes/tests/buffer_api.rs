//! Scratch-reuse property tests for the buffer-oriented API.
//!
//! One [`ShareSet`], one decode buffer, and one repair buffer are threaded
//! through a random interleaving of `encode_into` / `decode_into` / `repair`
//! calls across *different codes and data lengths*, and every result must
//! match the same call into a fresh `ShareSet` / `Vec` bit-for-bit. This is
//! the contract that makes buffer reuse safe: no call may ever observe
//! bytes left over from a previous call with a different layout.

use std::sync::Arc;

use proptest::prelude::*;
use rain_codes::{
    BCode, ErasureCode, EvenOdd, Mirroring, ReedSolomon, ShareSet, ShareView, SingleParity,
    StripedCodec, XCode,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The code zoo the interleaving draws from: all six families plus a
/// striped wrapper (different `n`, `k`, units, and share lengths, so
/// consecutive ops genuinely re-layout the shared buffers).
fn codes() -> Vec<Arc<dyn ErasureCode>> {
    let bcode = Arc::new(BCode::table_1a());
    vec![
        bcode.clone(),
        Arc::new(XCode::new(5).unwrap()),
        Arc::new(EvenOdd::new(5).unwrap()),
        Arc::new(ReedSolomon::new(8, 6).unwrap()),
        Arc::new(Mirroring::new(3)),
        Arc::new(SingleParity::new(5)),
        Arc::new(StripedCodec::new(bcode, 2 * 12, 2).unwrap()),
    ]
}

/// Run one op derived from `seed` against `code`, reusing the caller's
/// buffers, and compare every step with fresh buffers.
fn run_op(
    code: &dyn ErasureCode,
    seed: u64,
    set: &mut ShareSet,
    decoded: &mut Vec<u8>,
    repaired: &mut Vec<u8>,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks = 1 + (seed as usize % 7);
    let data: Vec<u8> = (0..code.data_len_unit() * blocks)
        .map(|_| rng.gen())
        .collect();

    // encode_into through the reused set == encode_into a fresh set.
    code.encode_into(&data, set).expect("encode_into");
    let mut reference = ShareSet::new();
    code.encode_into(&data, &mut reference)
        .expect("fresh encode_into");
    prop_assert_eq!(&*set, &reference);

    // decode_into through the reused out == original data == decode_into a
    // fresh Vec, after erasing up to the fault tolerance.
    let mut view = set.as_view();
    let erasures = seed as usize % (code.fault_tolerance() + 1);
    let mut victims: Vec<usize> = (0..code.n()).collect();
    for _ in 0..erasures {
        let pick = rng.gen::<usize>() % victims.len();
        view.clear(victims.swap_remove(pick));
    }
    code.decode_into(&view, decoded).expect("decode_into");
    prop_assert_eq!(&*decoded, &data);
    let mut fresh = Vec::new();
    code.decode_into(&view, &mut fresh)
        .expect("fresh decode_into");
    prop_assert_eq!(&fresh, &data);

    // repair through the reused buffer == the share the encoder produced.
    let missing = rng.gen::<usize>() % code.n();
    let mut view = ShareView::missing(code.n());
    for i in 0..code.n() {
        if i != missing {
            view.set(i, set.share(i));
        }
    }
    repaired.resize(set.share_len(), 0);
    code.repair(&view, missing, repaired).expect("repair");
    prop_assert_eq!(&*repaired, set.share(missing));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleave encode/decode/repair of varying codes and lengths through
    /// ONE ShareSet + ONE decode buffer + ONE repair buffer.
    #[test]
    fn prop_interleaved_scratch_reuse_matches_fresh_buffers(
        op_seeds in proptest::collection::vec(any::<u64>(), 4..12),
    ) {
        let zoo = codes();
        let mut set = ShareSet::new();
        let mut decoded = Vec::new();
        let mut repaired = Vec::new();
        for seed in op_seeds {
            let code = &zoo[(seed >> 32) as usize % zoo.len()];
            run_op(code.as_ref(), seed, &mut set, &mut decoded, &mut repaired)?;
        }
    }
}
