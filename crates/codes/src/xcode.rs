//! The **X-Code** (Xu & Bruck, cited as reference 56 in the RAIN paper): a `(p, p-2)`
//! MDS array code for prime `p` with *optimal encoding and update complexity*.
//!
//! The codeword is a `p x p` array: rows `0..p-2` hold data, rows `p-2` and
//! `p-1` hold parity. The two parity rows are computed along diagonals of
//! slope +1 and -1 respectively:
//!
//! ```text
//! C[p-2][i] = XOR_{k=0..p-3} C[k][(i + k + 2) mod p]
//! C[p-1][i] = XOR_{k=0..p-3} C[k][(i - k - 2) mod p]
//! ```
//!
//! Because parities live in their own rows (not separate columns), every
//! column contains both data and parity; losing any two columns loses
//! `2(p-2)` data cells, which the surviving `2(p-2)` parity cells on intact
//! diagonals recover by chain decoding. Each data cell appears in exactly two
//! parity equations, the optimal update complexity for distance 3.

use crate::array::{ArrayCode, ArrayLayout, Cell};
use crate::error::CodeError;
use crate::evenodd::is_prime;
use crate::traits::CodeKind;

/// Constructor of the `(p, p-2)` X-Code for prime `p >= 3`. `XCode` has no
/// values: [`XCode::new`] builds an [`ArrayCode`].
pub enum XCode {}

impl XCode {
    /// Create an X-Code for prime `p >= 3`: `n = p` columns, `k = p - 2`.
    #[expect(clippy::new_ret_no_self, reason = "the family shares one code type")]
    pub fn new(p: usize) -> Result<ArrayCode, CodeError> {
        if !is_prime(p) || p < 3 {
            return Err(CodeError::UnsupportedParameters {
                reason: format!("the X-Code requires a prime p >= 3, got {p}"),
            });
        }
        let data_rows = p - 2;
        // Data cell index for (row k, column i), row-major so the input
        // buffer reads row by row exactly like the p x (p-2) data array.
        let cell = |k: usize, i: usize| k * p + i;

        let mut equations: Vec<Vec<usize>> = Vec::with_capacity(2 * p);
        // Diagonal parities of slope +1 (stored in row p-2).
        for i in 0..p {
            equations.push((0..data_rows).map(|k| cell(k, (i + k + 2) % p)).collect());
        }
        // Diagonal parities of slope -1 (stored in row p-1).
        for i in 0..p {
            equations.push(
                (0..data_rows)
                    .map(|k| cell(k, (i + p - ((k + 2) % p)) % p))
                    .collect(),
            );
        }

        let column_cells: Vec<Vec<Cell>> = (0..p)
            .map(|i| {
                let mut col: Vec<Cell> = (0..data_rows).map(|k| Cell::Data(cell(k, i))).collect();
                col.push(Cell::Parity(i));
                col.push(Cell::Parity(p + i));
                col
            })
            .collect();

        let layout = ArrayLayout {
            columns: p,
            k: p - 2,
            column_cells,
            equations,
        };
        ArrayCode::new(CodeKind::XCode, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::ShareSet;
    use crate::traits::ErasureCode;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Encode `data`, erase the columns in `erased`, and decode.
    fn roundtrip(code: &ArrayCode, data: &[u8], erased: &[usize]) -> Result<Vec<u8>, CodeError> {
        let mut shares = ShareSet::new();
        code.encode_into(data, &mut shares).unwrap();
        let mut view = shares.as_view();
        for &c in erased {
            view.clear(c);
        }
        let mut out = Vec::new();
        code.decode_into(&view, &mut out).map(|()| out)
    }

    #[test]
    fn rejects_non_prime_p() {
        assert!(XCode::new(4).is_err());
        assert!(XCode::new(6).is_err());
        assert!(XCode::new(1).is_err());
        assert!(XCode::new(9).is_err());
    }

    #[test]
    fn parameters_are_p_and_p_minus_2() {
        let code = XCode::new(7).unwrap();
        assert_eq!(code.kind(), CodeKind::XCode);
        assert_eq!(code.n(), 7);
        assert_eq!(code.k(), 5);
        assert_eq!(code.fault_tolerance(), 2);
        assert_eq!(code.data_len_unit(), 7 * 5);
    }

    #[test]
    fn layout_is_mds_for_small_primes() {
        for p in [3usize, 5, 7, 11] {
            let code = XCode::new(p).unwrap();
            assert!(code.verify_mds(), "X-Code p = {p} is not MDS");
        }
    }

    #[test]
    fn update_complexity_is_exactly_two() {
        for p in [5usize, 7] {
            let code = XCode::new(p).unwrap();
            let cost = code.cost(code.data_len_unit() * 4);
            assert!(
                (cost.update_parities_per_data_cell - 2.0).abs() < 1e-12,
                "p = {p}"
            );
            assert!((cost.storage_overhead - p as f64 / (p - 2) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn all_two_column_erasures_recover_p5() {
        let p = 5;
        let code = XCode::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<u8> = (0..code.data_len_unit() * 8).map(|_| rng.gen()).collect();
        for a in 0..p {
            for b in (a + 1)..p {
                assert_eq!(
                    roundtrip(&code, &data, &[a, b]).unwrap(),
                    data,
                    "erased {a},{b}"
                );
            }
        }
    }

    #[test]
    fn two_column_erasure_uses_chain_decoding() {
        let code = XCode::new(5).unwrap();
        let data: Vec<u8> = (0..code.data_len_unit()).map(|i| i as u8).collect();
        let mut shares = ShareSet::new();
        code.encode_into(&data, &mut shares).unwrap();
        let mut view = shares.as_view();
        view.clear(1);
        view.clear(3);
        let (out, trace) = code.decode_traced(&view).unwrap();
        assert_eq!(out, data);
        assert!(
            !trace.used_gaussian_fallback,
            "X-Code decoding follows pure chains"
        );
        assert_eq!(trace.chain.len(), 2 * (5 - 2));
    }

    #[test]
    fn three_erasures_are_rejected() {
        let code = XCode::new(5).unwrap();
        let data = vec![0u8; code.data_len_unit()];
        assert!(matches!(
            roundtrip(&code, &data, &[0, 2, 4]),
            Err(CodeError::TooManyErasures { .. })
        ));
    }

    proptest! {
        /// Any payload and any pair of erased columns round-trips (p = 7).
        #[test]
        fn prop_two_erasure_roundtrip_p7(
            seed in any::<u64>(),
            a in 0usize..7,
            b in 0usize..7,
        ) {
            prop_assume!(a != b);
            let code = XCode::new(7).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<u8> = (0..code.data_len_unit() * 2).map(|_| rng.gen()).collect();
            prop_assert_eq!(roundtrip(&code, &data, &[a, b]).unwrap(), data);
        }
    }
}
