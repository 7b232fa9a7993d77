//! `encode_parts` against a staged `encode_slices`.
//!
//! Every code writes a prefix, the caller's bytes and the zero padding
//! straight into its shares, and computes parity from them there. The
//! shares must be exactly those `encode_slices` makes of the concatenated,
//! padded input, for every family `build_code` builds, for inputs whose
//! cells are shorter than the prefix (so the prefix spans cells), and for
//! a wrapper that relies on the trait's staging default.

use std::sync::Arc;

use proptest::prelude::*;
use rain_codes::{build_code, CodeCost, CodeError, CodeKind, CodeSpec, ErasureCode, ShareView};

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

/// A code that forwards everything but `encode_parts`, so it runs the
/// trait's default.
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

/// `n` share buffers for a `padded_len` input, filled with junk so a byte
/// the encode does not write shows.
fn junk_shares(code: &dyn ErasureCode, padded_len: usize) -> Vec<Vec<u8>> {
    let share_len = code.share_len_for(padded_len).expect("a valid length");
    (0..code.n()).map(|_| vec![0xa5; share_len]).collect()
}

/// Encode `prefix ++ body` padded to `padded_len` both ways and compare.
fn check(
    code: &dyn ErasureCode,
    prefix: &[u8],
    body: &[u8],
    padded_len: usize,
) -> Result<(), TestCaseError> {
    let mut staged = [prefix, body].concat();
    staged.resize(padded_len, 0);
    let mut want = junk_shares(code, padded_len);
    let mut cols: Vec<&mut [u8]> = want.iter_mut().map(|s| &mut s[..]).collect();
    code.encode_slices(&staged, &mut cols)
        .expect("staged encode");

    let mut got = junk_shares(code, padded_len);
    let mut cols: Vec<&mut [u8]> = got.iter_mut().map(|s| &mut s[..]).collect();
    code.encode_parts(prefix, body, padded_len, &mut cols)
        .expect("encode_parts");
    let case = format!(
        "{:?}: prefix {}, body {}, padded {}",
        code.spec(),
        prefix.len(),
        body.len(),
        padded_len
    );
    prop_assert!(got == want, "{}", case);
    // Both could share a mistake, so the shares must also decode to the
    // input with the first `n - k` of them erased, which needs parity.
    let mut view = ShareView::missing(code.n());
    for (i, share) in got.iter().enumerate().skip(code.fault_tolerance()) {
        view.set(i, share);
    }
    let mut decoded = Vec::new();
    code.decode_into(&view, &mut decoded).expect("decode");
    prop_assert!(decoded == staged, "decode: {}", case);
    Ok(())
}

/// The shortest valid input length that holds `len` bytes.
fn padded(code: &dyn ErasureCode, len: usize) -> usize {
    let unit = code.data_len_unit();
    len.div_ceil(unit).max(1) * unit
}

#[test]
fn every_short_body_with_and_without_a_prefix_matches_the_staged_encode() {
    let prefix = 0x0123_4567_89ab_cdefu64.to_le_bytes();
    for code in codes() {
        let unit = code.data_len_unit();
        for len in 0..=3 * unit + 17 {
            let body = bytes(len, len as u64);
            for prefix in [&[][..], &prefix[..]] {
                let tight = padded(code.as_ref(), prefix.len() + len);
                for padded_len in [tight, tight + unit] {
                    check(code.as_ref(), prefix, &body, padded_len).unwrap();
                }
            }
        }
    }
}

#[test]
fn a_one_mib_body_matches_the_staged_encode() {
    let body = bytes(1 << 20, 7);
    let prefix = ((1u64 << 20).to_le_bytes(), [0u8; 0]);
    for code in codes() {
        for prefix in [&prefix.0[..], &prefix.1[..]] {
            let padded_len = padded(code.as_ref(), prefix.len() + body.len());
            check(code.as_ref(), prefix, &body, padded_len).unwrap();
        }
    }
}

#[test]
fn the_staging_default_of_a_wrapper_matches_its_code() {
    let prefix = 5u64.to_le_bytes();
    for code in codes() {
        let wrapper = Forwarding(code.clone());
        let body = bytes(2 * code.data_len_unit() + 3, 1);
        let padded_len = padded(code.as_ref(), prefix.len() + body.len());
        check(&wrapper, &prefix, &body, padded_len).unwrap();
        let mut a = junk_shares(code.as_ref(), padded_len);
        let mut b = junk_shares(code.as_ref(), padded_len);
        let mut cols_a: Vec<&mut [u8]> = a.iter_mut().map(|s| &mut s[..]).collect();
        let mut cols_b: Vec<&mut [u8]> = b.iter_mut().map(|s| &mut s[..]).collect();
        wrapper
            .encode_parts(&prefix, &body, padded_len, &mut cols_a)
            .unwrap();
        code.encode_parts(&prefix, &body, padded_len, &mut cols_b)
            .unwrap();
        assert_eq!(a, b, "{:?}", code.spec());
    }
}

#[test]
fn inputs_that_do_not_fit_are_refused() {
    for code in codes() {
        let unit = code.data_len_unit();
        let body = bytes(unit, 0);
        let mut shares = junk_shares(code.as_ref(), unit);
        let mut cols: Vec<&mut [u8]> = shares.iter_mut().map(|s| &mut s[..]).collect();
        // One byte more than the padded length holds, and a padded length
        // that is not a whole number of units.
        assert!(matches!(
            code.encode_parts(&[1], &body, unit, &mut cols),
            Err(CodeError::BadDataLength { .. })
        ));
        if unit > 1 {
            assert!(matches!(
                code.encode_parts(&[], &body[..1], unit - 1, &mut cols),
                Err(CodeError::BadDataLength { .. })
            ));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_parts_equals_the_staged_encode(
        which in 0usize..9,
        len_seed in any::<usize>(),
        with_prefix in any::<bool>(),
        extra_units in 0usize..3,
        wrapped in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let code = codes().swap_remove(which);
        let unit = code.data_len_unit();
        let len = len_seed % (3 * unit + 18);
        let prefix = if with_prefix { seed.to_le_bytes().to_vec() } else { Vec::new() };
        let body = bytes(len, seed);
        let padded_len = padded(code.as_ref(), prefix.len() + len) + extra_units * unit;
        if wrapped {
            check(&Forwarding(code), &prefix, &body, padded_len)?;
        } else {
            check(code.as_ref(), &prefix, &body, padded_len)?;
        }
    }
}
