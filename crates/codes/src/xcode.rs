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

use crate::array::{ArrayCode, ArrayLayout, Cell, DecodeTrace};
use crate::error::CodeError;
use crate::evenodd::is_prime;
use crate::metrics::{CodeCost, CostModel};
use crate::share::ShareView;
use crate::traits::{CodeKind, ErasureCode};

/// The `(p, p-2)` X-Code for prime `p >= 3`.
#[derive(Debug, Clone)]
pub struct XCode {
    p: usize,
    inner: ArrayCode,
}

impl XCode {
    /// Create an X-Code for prime `p >= 3`: `n = p` columns, `k = p - 2`.
    pub fn new(p: usize) -> Result<Self, CodeError> {
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
        Ok(XCode {
            p,
            inner: ArrayCode::new(layout)?,
        })
    }

    /// The prime parameter `p` (also the number of columns).
    pub fn p(&self) -> usize {
        self.p
    }

    /// Access the underlying generic array code (layout, tracing decode).
    pub fn array(&self) -> &ArrayCode {
        &self.inner
    }

    /// Decode and return the decoding chains that were followed.
    pub fn decode_traced(
        &self,
        shares: &[Option<Vec<u8>>],
    ) -> Result<(Vec<u8>, DecodeTrace), CodeError> {
        self.inner.decode_traced(shares)
    }

    /// Exhaustively confirm the MDS property over all two-column erasures.
    pub fn verify_mds(&self) -> bool {
        self.inner.layout().find_mds_violation().is_none()
    }
}

impl ErasureCode for XCode {
    fn kind(&self) -> CodeKind {
        CodeKind::XCode
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

    fn locate(&self, data_len: usize, offset: usize) -> Option<(usize, usize, usize)> {
        self.inner.locate(data_len, offset)
    }

    fn encode_slices(&self, data: &[u8], shares: &mut [&mut [u8]]) -> Result<(), CodeError> {
        self.inner.encode_slices(data, shares)
    }

    fn decode_slices(&self, shares: &ShareView<'_>, out: &mut [u8]) -> Result<(), CodeError> {
        self.inner.decode_slices(shares, out)
    }

    fn repair(
        &self,
        shares: &ShareView<'_>,
        missing: usize,
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        self.inner.repair_slices(shares, missing, out)
    }

    fn cost(&self, data_len: usize) -> CodeCost {
        self.inner.analytic_cost(data_len)
    }
}

impl CostModel for XCode {
    fn analytic_cost(&self, data_len: usize) -> CodeCost {
        self.inner.analytic_cost(data_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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
        assert_eq!(code.n(), 7);
        assert_eq!(code.k(), 5);
        assert_eq!(code.fault_tolerance(), 2);
        assert_eq!(code.data_len_unit(), 7 * 5);
        assert_eq!(code.p(), 7);
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
        let shares = code.encode(&data).unwrap();
        for a in 0..p {
            for b in (a + 1)..p {
                let mut partial: Vec<Option<Vec<u8>>> = shares.iter().cloned().map(Some).collect();
                partial[a] = None;
                partial[b] = None;
                assert_eq!(code.decode(&partial).unwrap(), data, "erased {a},{b}");
            }
        }
    }

    #[test]
    fn two_column_erasure_uses_chain_decoding() {
        let code = XCode::new(5).unwrap();
        let data: Vec<u8> = (0..code.data_len_unit()).map(|i| i as u8).collect();
        let shares = code.encode(&data).unwrap();
        let mut partial: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
        partial[1] = None;
        partial[3] = None;
        let (out, trace) = code.decode_traced(&partial).unwrap();
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
        let shares = code.encode(&data).unwrap();
        let mut partial: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
        partial[0] = None;
        partial[2] = None;
        partial[4] = None;
        assert!(matches!(
            code.decode(&partial),
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
            let shares = code.encode(&data).unwrap();
            let mut partial: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
            partial[a] = None;
            partial[b] = None;
            prop_assert_eq!(code.decode(&partial).unwrap(), data);
        }
    }
}
