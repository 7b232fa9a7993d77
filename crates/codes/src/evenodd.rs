//! The EVENODD code of Blaum, Brady, Bruck and Menon (cited as reference 8 in the
//! RAIN paper): a `(p+2, p)` MDS array code for prime `p`, tolerating any two
//! column erasures using only XOR operations.
//!
//! Layout: a `(p-1) x (p+2)` array. Columns `0..p` hold data, column `p`
//! holds the horizontal (row) parities and column `p+1` holds the diagonal
//! parities. The diagonal parities all include the "EVENODD adjuster" `S`,
//! the XOR of the cells on the diagonal through the imaginary row `p-1`;
//! in this crate's equation framework `S` is simply expanded into each
//! diagonal-parity equation, which keeps the code inside the generic
//! XOR-equation machinery (and the Gaussian fallback reproduces the
//! classical zig-zag reconstruction implicitly).

use crate::array::{ArrayCode, ArrayLayout, Cell, DecodeTrace};
use crate::error::CodeError;
use crate::metrics::{CodeCost, CostModel};
use crate::share::ShareView;
use crate::traits::{CodeKind, ErasureCode};

/// Check whether `p` is prime (tiny trial division — p is always small here).
pub(crate) fn is_prime(p: usize) -> bool {
    if p < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= p {
        if p.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// The `(p+2, p)` EVENODD code.
#[derive(Debug, Clone)]
pub struct EvenOdd {
    p: usize,
    inner: ArrayCode,
}

impl EvenOdd {
    /// Create an EVENODD code for prime `p >= 3`. The code has `n = p + 2`
    /// columns and tolerates any 2 erasures.
    pub fn new(p: usize) -> Result<Self, CodeError> {
        if !is_prime(p) || p < 3 {
            return Err(CodeError::UnsupportedParameters {
                reason: format!("EVENODD requires a prime p >= 3, got {p}"),
            });
        }
        let rows = p - 1;
        // Data cell index for (row t, data column j), column-major.
        let cell = |t: usize, j: usize| j * rows + t;

        // The adjuster S is the XOR of cells a[p-1-j][j] for j = 1..p-1.
        let s_cells: Vec<usize> = (1..p).map(|j| cell(p - 1 - j, j)).collect();

        let mut equations: Vec<Vec<usize>> = Vec::with_capacity(2 * rows);
        // Row parities: equation t = XOR of row t across data columns.
        for t in 0..rows {
            equations.push((0..p).map(|j| cell(t, j)).collect());
        }
        // Diagonal parities: equation rows + t = S ^ XOR of the diagonal
        // { a[l][j] : (l + j) mod p == t, l < p-1 }.
        for t in 0..rows {
            let mut eq = s_cells.clone();
            for j in 0..p {
                let l = (t + p - j % p) % p;
                if l < rows {
                    eq.push(cell(l, j));
                }
            }
            // No duplicates are possible: the S diagonal is (l + j) mod p ==
            // p - 1 and t != p - 1.
            equations.push(eq);
        }

        let mut column_cells: Vec<Vec<Cell>> = Vec::with_capacity(p + 2);
        for j in 0..p {
            column_cells.push((0..rows).map(|t| Cell::Data(cell(t, j))).collect());
        }
        column_cells.push((0..rows).map(Cell::Parity).collect());
        column_cells.push((0..rows).map(|t| Cell::Parity(rows + t)).collect());

        let layout = ArrayLayout {
            columns: p + 2,
            k: p,
            column_cells,
            equations,
        };
        Ok(EvenOdd {
            p,
            inner: ArrayCode::new(layout)?,
        })
    }

    /// The prime parameter `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Access the underlying generic array code (layout, tracing decode).
    pub fn array(&self) -> &ArrayCode {
        &self.inner
    }

    /// Decode and return the decoding chains / fallback information.
    pub fn decode_traced(
        &self,
        shares: &[Option<Vec<u8>>],
    ) -> Result<(Vec<u8>, DecodeTrace), CodeError> {
        self.inner.decode_traced(shares)
    }
}

impl ErasureCode for EvenOdd {
    fn kind(&self) -> CodeKind {
        CodeKind::EvenOdd
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

impl CostModel for EvenOdd {
    fn analytic_cost(&self, data_len: usize) -> CodeCost {
        self.inner.analytic_cost(data_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn rejects_non_prime_p() {
        assert!(EvenOdd::new(4).is_err());
        assert!(EvenOdd::new(1).is_err());
        assert!(EvenOdd::new(9).is_err());
        assert!(EvenOdd::new(2).is_err());
    }

    #[test]
    fn layout_is_mds_for_small_primes() {
        for p in [3usize, 5, 7] {
            let code = EvenOdd::new(p).unwrap();
            assert!(
                code.array().layout().find_mds_violation().is_none(),
                "EVENODD p={p} is not MDS"
            );
        }
    }

    #[test]
    fn recovers_all_two_column_erasures_p5() {
        let p = 5;
        let code = EvenOdd::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let data: Vec<u8> = (0..code.data_len_unit() * 16).map(|_| rng.gen()).collect();
        let shares = code.encode(&data).unwrap();
        let n = code.n();
        for a in 0..n {
            for b in (a + 1)..n {
                let mut partial: Vec<Option<Vec<u8>>> = shares.iter().cloned().map(Some).collect();
                partial[a] = None;
                partial[b] = None;
                assert_eq!(code.decode(&partial).unwrap(), data, "erased {a},{b}");
            }
        }
    }

    #[test]
    fn single_data_column_erasure_decodes_by_row_parity_chain() {
        let code = EvenOdd::new(5).unwrap();
        let data: Vec<u8> = (0..code.data_len_unit()).map(|i| i as u8).collect();
        let shares = code.encode(&data).unwrap();
        let mut partial: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
        partial[2] = None;
        let (out, trace) = code.decode_traced(&partial).unwrap();
        assert_eq!(out, data);
        assert!(!trace.used_gaussian_fallback);
        assert_eq!(trace.chain.len(), 4); // p - 1 cells recovered by peeling
    }

    #[test]
    fn storage_overhead_matches_p_plus_2_over_p() {
        let code = EvenOdd::new(7).unwrap();
        let cost = code.cost(code.data_len_unit() * 10);
        assert!((cost.storage_overhead - 9.0 / 7.0).abs() < 1e-9);
    }
}
