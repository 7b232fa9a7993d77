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

use crate::array::{ArrayCode, ArrayLayout, Cell};
use crate::error::CodeError;
use crate::traits::CodeKind;

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

/// Constructor of the `(p+2, p)` EVENODD code. `EvenOdd` has no values:
/// [`EvenOdd::new`] builds an [`ArrayCode`].
pub enum EvenOdd {}

impl EvenOdd {
    /// Create an EVENODD code for prime `p >= 3`. The code has `n = p + 2`
    /// columns and tolerates any 2 erasures.
    #[expect(clippy::new_ret_no_self, reason = "the family shares one code type")]
    pub fn new(p: usize) -> Result<ArrayCode, CodeError> {
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
        ArrayCode::new(CodeKind::EvenOdd, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::ShareSet;
    use crate::traits::ErasureCode;
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
            assert_eq!(code.kind(), CodeKind::EvenOdd);
            assert!(code.verify_mds(), "EVENODD p={p} is not MDS");
        }
    }

    #[test]
    fn recovers_all_two_column_erasures_p5() {
        let p = 5;
        let code = EvenOdd::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let data: Vec<u8> = (0..code.data_len_unit() * 16).map(|_| rng.gen()).collect();
        let mut shares = ShareSet::new();
        code.encode_into(&data, &mut shares).unwrap();
        let n = code.n();
        for a in 0..n {
            for b in (a + 1)..n {
                let mut view = shares.as_view();
                view.clear(a);
                view.clear(b);
                let mut out = Vec::new();
                code.decode_into(&view, &mut out).unwrap();
                assert_eq!(out, data, "erased {a},{b}");
            }
        }
    }

    #[test]
    fn single_data_column_erasure_decodes_by_row_parity_chain() {
        let code = EvenOdd::new(5).unwrap();
        let data: Vec<u8> = (0..code.data_len_unit()).map(|i| i as u8).collect();
        let mut shares = ShareSet::new();
        code.encode_into(&data, &mut shares).unwrap();
        let mut view = shares.as_view();
        view.clear(2);
        let (out, trace) = code.decode_traced(&view).unwrap();
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
