//! The **B-Code**: a lowest-density `(n, n-2)` MDS array code (Xu, Bohossian,
//! Bruck & Wagner, cited as references 55 and 57 in the RAIN paper).
//!
//! Section 4.1 of the RAIN paper presents the `(6, 4)` B-Code of Table 1a as
//! its running example: 12 data pieces `a..f, A..F` are placed in 6 columns of
//! 3 cells (two data cells and one parity cell per column); every parity cell
//! is the XOR of four data cells from *other* columns, every data cell appears
//! in exactly **two** parity equations (the optimal update complexity for a
//! distance-3 code), and any two lost columns can be recovered by following
//! decoding chains (Table 2 and Cases 1–3 of the paper).
//!
//! This module provides:
//!
//! * [`BCode::table_1a`] — the exact `(6, 4)` layout of Table 1a, reconstructed
//!   from the paper's decoding chains (the parity equations of Cases 1–3
//!   uniquely determine the placement, see the unit tests),
//! * [`BCode::new`] — lowest-density `(n, n-2)` codes for general even `n`,
//!   built from a **cyclic offset structure** (the `(6,4)` code is cyclic:
//!   the parity of column `i` is
//!   `X[i+1] ^ X[i+3] ^ x[i+4] ^ x[i+5]`, indices mod 6). For `n != 6` the
//!   constructor searches for offset sets whose layout passes the exhaustive
//!   MDS check of [`ArrayLayout::find_mds_violation`]; the search is
//!   deterministic, so a given `n` always yields the same code,
//! * cell labels matching the paper's `a..f / A..F` notation
//!   ([`data_cell_label`], [`placement_table`]) so the experiment harness
//!   can print Table 1a / 1b verbatim.
//!
//! Every constructor returns an [`ArrayCode`] of kind [`CodeKind::BCode`];
//! encoding, decoding chains and repair are the generic array-code ones.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::array::{ArrayCode, ArrayLayout, Cell};
use crate::error::CodeError;
use crate::traits::{CodeKind, ErasureCode};

/// Constructors of the lowest-density `(n, n-2)` MDS array code of the
/// paper. `BCode` has no values: each function builds an [`ArrayCode`].
pub enum BCode {}

impl BCode {
    /// Offsets reproducing the paper's Table 1a `(6, 4)` code.
    ///
    /// Level 0 is the lowercase row (`a..f`), level 1 the uppercase row
    /// (`A..F`). The parity stored in column `i` is
    /// `x[(i+4) % 6] ^ x[(i+5) % 6] ^ X[(i+1) % 6] ^ X[(i+3) % 6]`.
    const TABLE_1A_OFFSETS: [(usize, usize); 2] = [(4, 5), (1, 3)];

    /// Build the exact `(6, 4)` B-Code of Table 1a in the paper.
    pub fn table_1a() -> ArrayCode {
        Self::from_offsets(6, Self::TABLE_1A_OFFSETS.to_vec())
            .expect("the published (6,4) layout is valid and MDS")
    }

    /// Build a lowest-density `(n, n-2)` B-Code for even `n >= 4`.
    ///
    /// `n = 6` returns the paper's Table 1a code. Other sizes are found by a
    /// deterministic search over cyclic offset structures; sizes for which the
    /// bounded search finds no MDS layout return
    /// [`CodeError::UnsupportedParameters`]. Cyclic lowest-density layouts
    /// exist for `n = 4, 6, 10` (and, empirically, other `n ≡ 2 (mod 4)`),
    /// but not for `n ≡ 0 (mod 4)`; for unsupported sizes the storage layer
    /// falls back to EVENODD or Reed-Solomon.
    #[expect(clippy::new_ret_no_self, reason = "the family shares one code type")]
    pub fn new(n: usize) -> Result<ArrayCode, CodeError> {
        require_even_n(n)?;
        if n == 6 {
            return Ok(Self::table_1a());
        }
        let offsets = search_offsets(n).ok_or_else(|| CodeError::UnsupportedParameters {
            reason: format!("no cyclic lowest-density MDS layout found for n = {n}"),
        })?;
        Self::from_offsets(n, offsets)
    }

    /// Build a B-Code directly from per-level offset pairs (`n / 2 - 1` of
    /// them, for an even `n >= 4`). Exposed so the experiment harness can
    /// report the structure it used; validates the layout but does **not**
    /// re-run the exhaustive MDS check (callers that supply their own
    /// offsets should check [`ArrayCode::verify_mds`]).
    pub fn from_offsets(n: usize, offsets: Vec<(usize, usize)>) -> Result<ArrayCode, CodeError> {
        require_even_n(n)?;
        if offsets.len() != n / 2 - 1 {
            return Err(CodeError::UnsupportedParameters {
                reason: format!(
                    "expected {} offset pairs for n = {n}, got {}",
                    n / 2 - 1,
                    offsets.len()
                ),
            });
        }
        ArrayCode::new(CodeKind::BCode, cyclic_layout(n, &offsets))
    }
}

/// The B-Code accepts an even `n >= 4` only.
fn require_even_n(n: usize) -> Result<(), CodeError> {
    if n < 4 || !n.is_multiple_of(2) {
        return Err(CodeError::UnsupportedParameters {
            reason: format!("the B-Code requires an even n >= 4, got {n}"),
        });
    }
    Ok(())
}

/// Paper-style label of data cell `cell` of a B-Code, matching Table 1a's
/// `a..f / A..F` notation for `n = 6` and the natural generalisation
/// (`a0..`, `b0..`) for larger codes: level 0 is lowercase, level 1
/// uppercase, higher levels are suffixed with the level number.
pub fn data_cell_label(code: &ArrayCode, cell: usize) -> String {
    let level = cell / code.n();
    let col = cell % code.n();
    let base = (b'a' + (col % 26) as u8) as char;
    match level {
        0 => base.to_string(),
        1 => base.to_ascii_uppercase().to_string(),
        l => format!("{base}{l}"),
    }
}

/// Human-readable rendering of a B-Code's placement scheme, one line per
/// column, in the same spirit as Table 1a of the paper.
pub fn placement_table(code: &ArrayCode) -> Vec<String> {
    let layout = code.layout();
    (0..code.n())
        .map(|c| {
            let mut cells = Vec::new();
            for cell in &layout.column_cells[c] {
                match *cell {
                    Cell::Data(d) => cells.push(data_cell_label(code, d)),
                    Cell::Parity(p) => {
                        let terms: Vec<String> = layout.equations[p]
                            .iter()
                            .map(|&d| data_cell_label(code, d))
                            .collect();
                        cells.push(terms.join("+"));
                    }
                }
            }
            format!("column {}: {}", c + 1, cells.join(" | "))
        })
        .collect()
}

/// Build the cyclic layout for `n` columns from per-level offset pairs.
///
/// Data cell `(level l, column i)` has index `l * n + i`; column `i` stores
/// data cells `(0, i) .. (levels-1, i)` followed by parity cell `i`; parity
/// equation `i` XORs, for each level `l`, the data cells of columns
/// `i + o (mod n)` for both offsets `o` of that level.
fn cyclic_layout(n: usize, offsets: &[(usize, usize)]) -> ArrayLayout {
    let levels = offsets.len();
    let cell = |l: usize, i: usize| l * n + i;
    let mut equations = Vec::with_capacity(n);
    for i in 0..n {
        let mut eq = Vec::with_capacity(2 * levels);
        for (l, &(o1, o2)) in offsets.iter().enumerate() {
            eq.push(cell(l, (i + o1) % n));
            eq.push(cell(l, (i + o2) % n));
        }
        equations.push(eq);
    }
    let column_cells = (0..n)
        .map(|i| {
            let mut col: Vec<Cell> = (0..levels).map(|l| Cell::Data(cell(l, i))).collect();
            col.push(Cell::Parity(i));
            col
        })
        .collect();
    ArrayLayout {
        columns: n,
        k: n - 2,
        column_cells,
        equations,
    }
}

/// Deterministic search for offset pairs giving an MDS layout.
///
/// Offsets must avoid 0 (a parity must not cover its own column, otherwise a
/// single column erasure already couples a parity with its own unknowns and
/// the two-erasure patterns involving that column generically lose rank).
/// For small `n` the search is exhaustive over ordered choices of pairs; for
/// larger `n` it samples pair combinations from a seeded RNG with a bounded
/// number of attempts so construction time stays modest and reproducible.
fn search_offsets(n: usize) -> Option<Vec<(usize, usize)>> {
    let levels = n / 2 - 1;
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for a in 1..n {
        for b in (a + 1)..n {
            pairs.push((a, b));
        }
    }

    let mds = |offsets: &[(usize, usize)]| -> bool {
        cyclic_layout(n, offsets).find_mds_violation().is_none()
    };

    if levels <= 3 {
        // Exhaustive: at most C(n-1, 2)^3 candidates (9261 for n = 8).
        let mut stack = vec![0usize; levels];
        loop {
            let candidate: Vec<(usize, usize)> = stack.iter().map(|&i| pairs[i]).collect();
            if mds(&candidate) {
                return Some(candidate);
            }
            // Advance the mixed-radix counter.
            let mut pos = levels;
            loop {
                if pos == 0 {
                    return None;
                }
                pos -= 1;
                stack[pos] += 1;
                if stack[pos] < pairs.len() {
                    break;
                }
                stack[pos] = 0;
            }
        }
    } else {
        // Randomised but reproducible: the seed depends only on n.
        let mut rng = StdRng::seed_from_u64(0xB0DE_0000 + n as u64);
        const ATTEMPTS: usize = 20_000;
        for _ in 0..ATTEMPTS {
            let candidate: Vec<(usize, usize)> = (0..levels)
                .map(|_| *pairs.choose(&mut rng).expect("pairs is non-empty"))
                .collect();
            if mds(&candidate) {
                return Some(candidate);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::ShareSet;
    use proptest::prelude::*;
    use rand::Rng;

    /// Encode `data` into a fresh share set.
    fn encode(code: &ArrayCode, data: &[u8]) -> ShareSet {
        let mut set = ShareSet::new();
        code.encode_into(data, &mut set).unwrap();
        set
    }

    /// Decode `shares` with the columns in `erased` missing.
    fn decode(code: &ArrayCode, shares: &ShareSet, erased: &[usize]) -> Result<Vec<u8>, CodeError> {
        let mut view = shares.as_view();
        for &c in erased {
            view.clear(c);
        }
        let mut out = Vec::new();
        code.decode_into(&view, &mut out).map(|()| out)
    }

    #[test]
    fn rejects_odd_or_tiny_n() {
        assert!(BCode::new(3).is_err());
        assert!(BCode::new(5).is_err());
        assert!(BCode::new(0).is_err());
        assert!(BCode::new(2).is_err());
    }

    #[test]
    fn from_offsets_rejects_odd_or_tiny_n_like_new() {
        // n < 2 used to underflow `n / 2 - 1`; n = 2, 3 and odd n used to
        // surface an unrelated layout error.
        for n in [0usize, 1, 2, 3, 5, 7] {
            let err = BCode::from_offsets(n, vec![]).unwrap_err();
            assert!(
                matches!(&err, CodeError::UnsupportedParameters { reason } if reason.contains("even n >= 4")),
                "n = {n}: {err}"
            );
        }
    }

    #[test]
    fn table_1a_structure_matches_the_paper() {
        // The paper's decoding chains (Cases 1-3) pin down the six parity
        // equations; written with the paper's labels they are:
        //   col 1: B+D+e+f    col 2: a+C+E+f    col 3: a+b+D+F
        //   col 4: A+b+c+E    col 5: B+c+d+F    col 6: A+C+d+e
        let code = BCode::table_1a();
        assert_eq!(code.kind(), CodeKind::BCode);
        assert_eq!(code.n(), 6);
        assert_eq!(code.k(), 4);

        let layout = code.layout();
        let labelled_eq = |i: usize| -> Vec<String> {
            let mut terms: Vec<String> = layout.equations[i]
                .iter()
                .map(|&d| data_cell_label(&code, d))
                .collect();
            terms.sort();
            terms
        };
        let expect = |terms: &[&str]| -> Vec<String> {
            let mut v: Vec<String> = terms.iter().map(|s| s.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(labelled_eq(0), expect(&["B", "D", "e", "f"]));
        assert_eq!(labelled_eq(1), expect(&["a", "C", "E", "f"]));
        assert_eq!(labelled_eq(2), expect(&["a", "b", "D", "F"]));
        assert_eq!(labelled_eq(3), expect(&["A", "b", "c", "E"]));
        assert_eq!(labelled_eq(4), expect(&["B", "c", "d", "F"]));
        assert_eq!(labelled_eq(5), expect(&["A", "C", "d", "e"]));

        // Column i holds data pieces (x_i, X_i) and parity i: two levels.
        for i in 0..6 {
            assert_eq!(
                layout.column_cells[i],
                vec![Cell::Data(i), Cell::Data(6 + i), Cell::Parity(i)]
            );
        }
    }

    #[test]
    fn table_1a_is_mds_and_has_optimal_update_complexity() {
        let code = BCode::table_1a();
        assert!(code.verify_mds());
        let cost = code.cost(code.data_len_unit() * 64);
        // Every data cell appears in exactly two parity equations.
        assert!((cost.update_parities_per_data_cell - 2.0).abs() < 1e-12);
        // Storage overhead n / (n - 2) = 1.5.
        assert!((cost.storage_overhead - 1.5).abs() < 1e-12);
    }

    #[test]
    fn table_1b_numeric_example_round_trips() {
        // The paper's example data: the 12 bits 1 1 1 0 1 0 1 0 1 0 1 0,
        // read as a..f then A..F, one bit per data cell.
        let code = BCode::table_1a();
        let bits = vec![1u8, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0];
        assert_eq!(bits.len(), code.data_len_unit());
        let shares = encode(&code, &bits);
        assert_eq!(shares.n(), 6);
        // Each column carries the two data bits of that column plus a parity.
        for (i, share) in shares.iter().enumerate() {
            assert_eq!(share.len(), 3);
            assert_eq!(share[0], bits[i], "lowercase bit of column {i}");
            assert_eq!(share[1], bits[6 + i], "uppercase bit of column {i}");
        }
        // The four surviving columns hold exactly 12 bits = |data|, the MDS
        // storage-optimality observation of the paper.
        let surviving_bits = 4 * shares.share_len();
        assert_eq!(surviving_bits, bits.len());
        // And any two erasures recover the original bits.
        assert_eq!(decode(&code, &shares, &[0, 1]).unwrap(), bits);
    }

    #[test]
    fn paper_case_1_decoding_chain_recovers_columns_1_and_2() {
        // Case 1 of the paper: columns 1 and 2 (0-indexed: 0 and 1) are lost.
        // The chain recovers A first (from the parity of column 6), then b,
        // then a, then B.
        let code = BCode::table_1a();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let data: Vec<u8> = (0..code.data_len_unit() * 8).map(|_| rng.gen()).collect();
        let shares = encode(&code, &data);
        let mut view = shares.as_view();
        view.clear(0);
        view.clear(1);
        let (out, trace) = code.decode_traced(&view).unwrap();
        assert_eq!(out, data);
        assert!(!trace.used_gaussian_fallback, "chains must suffice");
        assert_eq!(trace.chain.len(), 4, "four lost data cells");
        // All four pieces of columns 1 and 2 are recovered, and each is
        // recovered from the same parity column the paper's chain uses:
        //   A from column 6 (A+C+d+e), b from column 4 (A+b+c+E),
        //   a from column 3 (a+b+D+F), B from column 5 (B+c+d+F).
        let mut used: Vec<(String, usize)> = trace
            .chain
            .iter()
            .map(|s| {
                (
                    data_cell_label(&code, s.recovered_data_cell),
                    s.parity_column,
                )
            })
            .collect();
        used.sort();
        assert_eq!(
            used,
            vec![
                ("A".to_string(), 5),
                ("B".to_string(), 4),
                ("a".to_string(), 2),
                ("b".to_string(), 3),
            ]
        );
    }

    #[test]
    fn paper_cases_2_and_3_use_pure_chains() {
        let code = BCode::table_1a();
        let data: Vec<u8> = (0..code.data_len_unit() * 4).map(|i| i as u8).collect();
        let shares = encode(&code, &data);
        for &other in &[2usize, 3] {
            let mut view = shares.as_view();
            view.clear(0);
            view.clear(other);
            let (out, trace) = code.decode_traced(&view).unwrap();
            assert_eq!(out, data);
            assert!(!trace.used_gaussian_fallback);
            assert_eq!(trace.chain.len(), 4);
        }
    }

    #[test]
    fn all_two_column_erasures_recover_table_1a() {
        let code = BCode::table_1a();
        let data: Vec<u8> = (0..code.data_len_unit() * 16)
            .map(|i| (i * 37 % 251) as u8)
            .collect();
        let shares = encode(&code, &data);
        for a in 0..6 {
            for b in (a + 1)..6 {
                assert_eq!(
                    decode(&code, &shares, &[a, b]).unwrap(),
                    data,
                    "erased {a},{b}"
                );
            }
        }
    }

    #[test]
    fn three_erasures_are_rejected() {
        let code = BCode::table_1a();
        let data = vec![0u8; code.data_len_unit()];
        let shares = encode(&code, &data);
        assert!(matches!(
            decode(&code, &shares, &[0, 1, 2]),
            Err(CodeError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn general_even_sizes_construct_and_are_mds() {
        for n in [4usize, 10] {
            let code = BCode::new(n).unwrap_or_else(|e| panic!("n = {n}: {e}"));
            assert_eq!(code.n(), n);
            assert_eq!(code.k(), n - 2);
            assert!(code.verify_mds(), "B-Code n = {n} failed the MDS check");
            let cost = code.cost(code.data_len_unit() * 8);
            assert!((cost.update_parities_per_data_cell - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn from_offsets_validates_level_count() {
        assert!(BCode::from_offsets(8, vec![(1, 2)]).is_err());
        assert!(BCode::from_offsets(6, vec![(4, 5), (1, 3)]).is_ok());
    }

    #[test]
    fn placement_table_mentions_every_label() {
        let code = BCode::table_1a();
        let table = placement_table(&code).join("\n");
        for label in ["a", "b", "c", "d", "e", "f", "A", "B", "C", "D", "E", "F"] {
            assert!(table.contains(label), "missing {label} in\n{table}");
        }
    }

    #[test]
    fn data_cell_labels_cover_higher_levels() {
        let code = BCode::new(10).unwrap();
        // n = 10 has 4 levels; a level-2 cell gets a numeric suffix.
        assert_eq!(data_cell_label(&code, 2 * 10), "a2");
        assert_eq!(data_cell_label(&code, 10 + 3), "D");
    }

    #[test]
    fn sizes_without_a_cyclic_layout_report_a_clear_error() {
        // No cyclic lowest-density layout exists for n ≡ 0 (mod 4); the
        // constructor must say so rather than return a non-MDS code.
        let err = BCode::new(8).unwrap_err();
        assert!(matches!(err, CodeError::UnsupportedParameters { .. }));
    }

    proptest! {
        /// Any payload and any pair of erased columns round-trips through the
        /// Table 1a code.
        #[test]
        fn prop_table_1a_two_erasure_roundtrip(
            blocks in 1usize..8,
            seed in any::<u64>(),
            a in 0usize..6,
            gap in 1usize..6,
        ) {
            let b = (a + gap) % 6;
            let code = BCode::table_1a();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let payload: Vec<u8> = (0..12 * blocks).map(|_| rng.gen()).collect();
            let shares = encode(&code, &payload);
            prop_assert_eq!(decode(&code, &shares, &[a, b]).unwrap(), payload);
        }

        /// The n = 10 code found by the search is MDS for random payloads too
        /// (exercises actual byte decoding, not just the rank check).
        #[test]
        fn prop_n10_two_erasure_roundtrip(
            seed in any::<u64>(),
            a in 0usize..10,
            gap in 1usize..10,
        ) {
            let b = (a + gap) % 10;
            let code = BCode::new(10).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data: Vec<u8> = (0..code.data_len_unit() * 2).map(|_| rng.gen()).collect();
            let shares = encode(&code, &data);
            prop_assert_eq!(decode(&code, &shares, &[a, b]).unwrap(), data);
        }
    }
}
