//! Systematic Reed-Solomon erasure code over GF(2^8).
//!
//! The paper cites Reed-Solomon as the classical MDS code (Section 4.1) and
//! the array codes are motivated as XOR-only alternatives to it. This
//! implementation is the baseline for the encoding/decoding-complexity
//! comparison (experiment E10) and an alternative code for the storage layer.
//!
//! Construction: a Vandermonde matrix over GF(2^8) is reduced so that its
//! top `k x k` block is the identity (systematic form); the remaining
//! `n - k` rows generate the parity symbols. Any `k` rows of the resulting
//! generator matrix are linearly independent, so any `k` surviving symbols
//! reconstruct the data by inverting the corresponding `k x k` submatrix.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::CodeError;
use crate::gf256::{Gf256, MulTable};
use crate::matrix::GfMatrix;
use crate::metrics::{CodeCost, CodeMetrics};
use crate::share::ShareView;
use crate::traits::{
    locate_cell_len, validate_data_len, validate_decode_out, validate_encode_cols, CodeKind,
    ErasureCode,
};

/// Capacity of the per-code repair coefficient-row cache. A repair storm
/// hits one (or a handful of) erasure patterns over and over; 16 rows cover
/// every single-failure pattern of the `(n, k)` points this workspace uses
/// while keeping the linear-scan LRU trivially cheap.
const REPAIR_ROW_CACHE_CAP: usize = 16;

/// One cached repair row: for the erasure pattern `(missing, chosen)`, the
/// non-zero folded coefficients of `g_missing · inv(G[chosen])`, each with
/// its split multiply tables ready for the bulk kernel.
#[derive(Debug, Clone)]
struct RepairRow {
    missing: usize,
    chosen: Vec<usize>,
    /// `(survivor share index, tables for its folded coefficient)`.
    tables: Vec<(usize, MulTable)>,
}

/// A tiny move-to-back LRU over [`RepairRow`]s. Linear scan: at 16 entries
/// a probe is a handful of compares, far below the matrix inversion it
/// replaces.
#[derive(Debug, Default)]
struct RepairRowCache {
    /// Least recently used first.
    rows: Vec<RepairRow>,
}

/// A systematic `(n, k)` Reed-Solomon erasure code over GF(2^8).
#[derive(Debug)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    gf: Gf256,
    /// `n x k` generator matrix in systematic form.
    generator: GfMatrix,
    /// Split multiply tables for the parity rows of `generator` (rows
    /// `k..n`), one [`MulTable`] per matrix entry, precomputed so encoding
    /// never rebuilds tables (see the [`crate::gf256`] module docs).
    parity_tables: Vec<Vec<MulTable>>,
    /// LRU of folded repair coefficient rows keyed by erasure pattern (the
    /// ROADMAP "decode-path tables" item, repair-storm case). Interior
    /// mutability because [`ErasureCode::repair`] takes `&self`.
    repair_rows: Mutex<RepairRowCache>,
    /// Repairs served from `repair_rows` without a matrix inversion.
    repair_row_hits: AtomicU64,
    /// Repairs that inverted the survivor submatrix and folded a fresh row.
    repair_row_misses: AtomicU64,
}

impl Clone for ReedSolomon {
    /// Clones share the code, not the cache: the clone starts with an empty
    /// repair-row LRU and zeroed hit/miss counters.
    fn clone(&self) -> Self {
        ReedSolomon {
            n: self.n,
            k: self.k,
            gf: self.gf.clone(),
            generator: self.generator.clone(),
            parity_tables: self.parity_tables.clone(),
            repair_rows: Mutex::new(RepairRowCache::default()),
            repair_row_hits: AtomicU64::new(0),
            repair_row_misses: AtomicU64::new(0),
        }
    }
}

impl ReedSolomon {
    /// Create an `(n, k)` code. Requires `1 <= k < n <= 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, CodeError> {
        if k == 0 || k >= n || n > 255 {
            return Err(CodeError::UnsupportedParameters {
                reason: format!("Reed-Solomon requires 1 <= k < n <= 255, got n={n}, k={k}"),
            });
        }
        let gf = Gf256::new();
        // Start from an n x k Vandermonde matrix and put it in systematic
        // form by right-multiplying with the inverse of its top k x k block.
        let vand = GfMatrix::vandermonde(&gf, n, k);
        let top: Vec<usize> = (0..k).collect();
        let top_inv = vand
            .select_rows(&top)
            .invert(&gf)
            .expect("top block of a Vandermonde matrix over distinct points is invertible");
        let generator = vand.mul(&gf, &top_inv);
        let parity_tables = (k..n)
            .map(|row| {
                (0..k)
                    .map(|col| gf.mul_table(generator.get(row, col)))
                    .collect()
            })
            .collect();
        Ok(ReedSolomon {
            n,
            k,
            gf,
            generator,
            parity_tables,
            repair_rows: Mutex::new(RepairRowCache::default()),
            repair_row_hits: AtomicU64::new(0),
            repair_row_misses: AtomicU64::new(0),
        })
    }

    /// Invert the survivor submatrix for `chosen` and fold it with row
    /// `missing` of the generator into one coefficient row, keeping only the
    /// non-zero coefficients with their split tables.
    fn compute_repair_row(
        &self,
        chosen: &[usize],
        missing: usize,
    ) -> Result<Vec<(usize, MulTable)>, CodeError> {
        let sub = self.generator.select_rows(chosen);
        let inv = sub
            .invert(&self.gf)
            .ok_or_else(|| CodeError::DecodeFailure {
                reason: "selected generator rows are singular (should be impossible for RS)".into(),
            })?;
        Ok(chosen
            .iter()
            .enumerate()
            .filter_map(|(j, &row)| {
                let mut coeff = 0u8;
                for t in 0..self.k {
                    coeff ^= self.gf.mul(self.generator.get(missing, t), inv.get(t, j));
                }
                (coeff != 0).then(|| (row, self.gf.mul_table(coeff)))
            })
            .collect())
    }

    /// The folded coefficient row for the erasure pattern `(missing,
    /// chosen)`, from the LRU when the pattern repeats (a repair storm), or
    /// computed, counted, and cached on a miss.
    fn cached_repair_row(
        &self,
        chosen: &[usize],
        missing: usize,
    ) -> Result<Vec<(usize, MulTable)>, CodeError> {
        {
            let mut cache = self.repair_rows.lock().expect("cache lock");
            if let Some(pos) = cache
                .rows
                .iter()
                .position(|r| r.missing == missing && r.chosen == chosen)
            {
                let row = cache.rows.remove(pos);
                let tables = row.tables.clone();
                cache.rows.push(row);
                self.repair_row_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(tables);
            }
        }
        // Invert outside the lock: concurrent striped repairs of different
        // patterns should not serialise on the cache.
        let tables = self.compute_repair_row(chosen, missing)?;
        self.repair_row_misses.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.repair_rows.lock().expect("cache lock");
        let raced = cache
            .rows
            .iter()
            .any(|r| r.missing == missing && r.chosen == chosen);
        if !raced {
            if cache.rows.len() >= REPAIR_ROW_CACHE_CAP {
                cache.rows.remove(0);
            }
            cache.rows.push(RepairRow {
                missing,
                chosen: chosen.to_vec(),
                tables: tables.clone(),
            });
        }
        Ok(tables)
    }
}

impl ErasureCode for ReedSolomon {
    fn kind(&self) -> CodeKind {
        CodeKind::ReedSolomon
    }

    /// Snapshot of the repair-row cache counters (see [`CodeMetrics`]).
    fn runtime_metrics(&self) -> CodeMetrics {
        CodeMetrics {
            repair_row_hits: self.repair_row_hits.load(Ordering::Relaxed),
            repair_row_misses: self.repair_row_misses.load(Ordering::Relaxed),
            repair_rows_cached: self.repair_rows.lock().expect("cache lock").rows.len(),
        }
    }

    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn data_len_unit(&self) -> usize {
        self.k
    }

    /// Systematic: data symbol `i` is share `i`.
    fn locate(&self, data_len: usize, offset: usize) -> Option<(usize, usize, usize)> {
        let symbol_len = locate_cell_len(data_len, offset, self.k)?;
        let within = offset % symbol_len;
        Some((offset / symbol_len, within, symbol_len - within))
    }

    fn encode_slices(&self, data: &[u8], shares: &mut [&mut [u8]]) -> Result<(), CodeError> {
        validate_data_len(data.len(), self.k)?;
        let symbol_len = data.len() / self.k;
        validate_encode_cols(shares, self.n, symbol_len)?;
        let data_symbol = |i: usize| &data[i * symbol_len..(i + 1) * symbol_len];

        // Systematic part: identity rows copy the data straight through.
        for (row, share) in shares.iter_mut().enumerate().take(self.k) {
            share.copy_from_slice(data_symbol(row));
        }
        for (row, tables) in self.parity_tables.iter().enumerate() {
            shares[self.k + row].fill(0);
            for (col, table) in tables.iter().enumerate() {
                table.mul_acc(shares[self.k + row], data_symbol(col));
            }
        }
        Ok(())
    }

    fn decode_slices(&self, shares: &ShareView<'_>, out: &mut [u8]) -> Result<(), CodeError> {
        let symbol_len = shares.validate(self.n, self.k)?;
        validate_decode_out(out.len(), self.k * symbol_len)?;

        // Fast path: all systematic symbols present.
        if (0..self.k).all(|i| shares.share(i).is_some()) {
            for (i, out_chunk) in out.chunks_mut(symbol_len.max(1)).enumerate().take(self.k) {
                out_chunk.copy_from_slice(shares.share(i).expect("checked present"));
            }
            return Ok(());
        }

        // General path: pick any k surviving rows, invert the corresponding
        // submatrix of the generator, and multiply.
        let available: Vec<usize> = (0..self.n).filter(|&i| shares.share(i).is_some()).collect();
        let chosen = &available[..self.k];
        let sub = self.generator.select_rows(chosen);
        let inv = sub
            .invert(&self.gf)
            .ok_or_else(|| CodeError::DecodeFailure {
                reason: "selected generator rows are singular (should be impossible for RS)".into(),
            })?;

        out.fill(0);
        for (data_idx, out_chunk) in out.chunks_mut(symbol_len.max(1)).enumerate().take(self.k) {
            for (j, &row) in chosen.iter().enumerate() {
                let coeff = inv.get(data_idx, j);
                let share = shares.share(row).expect("chosen rows are present");
                self.gf.mul_acc_slice(out_chunk, share, coeff);
            }
        }
        Ok(())
    }

    fn repair(
        &self,
        shares: &ShareView<'_>,
        missing: usize,
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        let symbol_len = shares.validate_excluding(self.n, self.k, missing)?;
        validate_decode_out(out.len(), symbol_len)?;
        let available: Vec<usize> = (0..self.n)
            .filter(|&i| i != missing && shares.share(i).is_some())
            .collect();
        let chosen = &available[..self.k];

        // Fast path: every systematic symbol survives and the target is a
        // parity row — use its precomputed split tables.
        if missing >= self.k && chosen.iter().enumerate().all(|(i, &row)| row == i) {
            out.fill(0);
            for (col, table) in self.parity_tables[missing - self.k].iter().enumerate() {
                table.mul_acc(out, shares.share(col).expect("systematic row present"));
            }
            return Ok(());
        }

        // General path: share_missing = g_missing · data
        //                             = (g_missing · inv) · chosen_shares,
        // so fold the inverted submatrix into ONE coefficient row and apply
        // k multiply-accumulates — not the k·k of a full decode plus the
        // k·(n-k) of a re-encode. The folded row (with split tables) is
        // served from the LRU when the erasure pattern repeats, so a repair
        // storm pays the inversion once, not once per object or group.
        let row_tables = self.cached_repair_row(chosen, missing)?;
        out.fill(0);
        for (row, table) in &row_tables {
            let share = shares.share(*row).expect("chosen rows are present");
            table.mul_acc(out, share);
        }
        Ok(())
    }

    fn cost(&self, data_len: usize) -> CodeCost {
        let symbol_len = (data_len / self.k).max(1) as u64;
        let parity_rows = (self.n - self.k) as u64;
        // Each parity symbol byte needs k GF multiply-accumulates.
        let mul_acc = parity_rows * self.k as u64 * symbol_len;
        let encode = mul_acc * CodeCost::GF_MUL_XOR_EQUIVALENT;
        // Worst-case decode re-derives k symbols, each needing k mul-accs.
        let decode = (self.k * self.k) as u64 * symbol_len * CodeCost::GF_MUL_XOR_EQUIVALENT;
        CodeCost {
            data_len,
            encode_xor_bytes: encode,
            decode_xor_bytes: decode,
            update_parities_per_data_cell: (self.n - self.k) as f64,
            storage_overhead: self.n as f64 / self.k as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::ShareSet;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_data(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen()).collect()
    }

    fn encode(code: &ReedSolomon, data: &[u8]) -> ShareSet {
        let mut set = ShareSet::new();
        code.encode_into(data, &mut set).unwrap();
        set
    }

    /// Decode `shares` with the shares in `erased` missing.
    fn decode(
        code: &ReedSolomon,
        shares: &ShareSet,
        erased: &[usize],
    ) -> Result<Vec<u8>, CodeError> {
        let mut view = shares.as_view();
        for &i in erased {
            view.clear(i);
        }
        let mut out = Vec::new();
        code.decode_into(&view, &mut out).map(|()| out)
    }

    #[test]
    fn systematic_prefix_is_the_data() {
        let code = ReedSolomon::new(6, 4).unwrap();
        let data: Vec<u8> = (0..4 * 5).map(|i| i as u8).collect();
        let shares = encode(&code, &data);
        for i in 0..4 {
            assert_eq!(shares.share(i), &data[i * 5..(i + 1) * 5]);
        }
    }

    #[test]
    fn recovers_from_any_two_erasures_6_4() {
        let code = ReedSolomon::new(6, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let data = random_data(&mut rng, 4 * 64);
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
    fn recovers_from_any_max_erasure_10_8() {
        let code = ReedSolomon::new(10, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let data = random_data(&mut rng, 8 * 32);
        let shares = encode(&code, &data);
        for a in 0..10 {
            for b in (a + 1)..10 {
                assert_eq!(decode(&code, &shares, &[a, b]).unwrap(), data);
            }
        }
    }

    #[test]
    fn repair_matches_encode_for_every_target_and_extra_erasure() {
        let code = ReedSolomon::new(6, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let data = random_data(&mut rng, 4 * 48);
        let shares = encode(&code, &data);
        for target in 0..6 {
            // Besides the repair target, erase up to one more share so both
            // the systematic fast path and the submatrix path are exercised.
            for extra in 0..6 {
                if extra == target {
                    continue;
                }
                let mut view = ShareView::missing(6);
                for (i, s) in shares.iter().enumerate() {
                    if i != target && i != extra {
                        view.set(i, s);
                    }
                }
                let mut out = vec![0u8; shares.share_len()];
                code.repair(&view, target, &mut out).unwrap();
                assert_eq!(
                    out,
                    shares.share(target),
                    "target {target}, extra erasure {extra}"
                );
            }
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(ReedSolomon::new(4, 0).is_err());
        assert!(ReedSolomon::new(4, 4).is_err());
        assert!(ReedSolomon::new(300, 4).is_err());
    }

    #[test]
    fn too_many_erasures_is_an_error() {
        let code = ReedSolomon::new(5, 3).unwrap();
        let data = vec![9u8; 3 * 4];
        let shares = encode(&code, &data);
        assert!(matches!(
            decode(&code, &shares, &[0, 1, 2]),
            Err(CodeError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn repair_storm_hits_the_coefficient_row_cache() {
        let code = ReedSolomon::new(6, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let data = random_data(&mut rng, 4 * 32);
        let shares = encode(&code, &data);

        // Erase a *systematic* share so the general (cached) path runs.
        let target = 1usize;
        let mut view = ShareView::missing(6);
        for (i, s) in shares.iter().enumerate() {
            if i != target {
                view.set(i, s);
            }
        }
        let mut out = vec![0u8; shares.share_len()];
        for round in 0..50 {
            code.repair(&view, target, &mut out).unwrap();
            assert_eq!(out, shares.share(target), "round {round}");
        }
        let m = code.runtime_metrics();
        assert_eq!(m.repair_row_misses, 1, "one inversion for the storm");
        assert_eq!(m.repair_row_hits, 49);
        assert_eq!(m.repair_rows_cached, 1);
        assert!(m.repair_row_hit_rate() > 0.97);
    }

    #[test]
    fn distinct_erasure_patterns_get_distinct_cached_rows() {
        let code = ReedSolomon::new(6, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let data = random_data(&mut rng, 4 * 16);
        let shares = encode(&code, &data);
        // Repair each systematic share twice; each pattern must miss once
        // then hit, and every result must still match the encoded share.
        for pass in 0..2 {
            for target in 0..4 {
                let mut view = ShareView::missing(6);
                for (i, s) in shares.iter().enumerate() {
                    if i != target {
                        view.set(i, s);
                    }
                }
                let mut out = vec![0u8; shares.share_len()];
                code.repair(&view, target, &mut out).unwrap();
                assert_eq!(out, shares.share(target), "pass {pass}, target {target}");
            }
        }
        let m = code.runtime_metrics();
        assert_eq!(m.repair_row_misses, 4);
        assert_eq!(m.repair_row_hits, 4);
        assert_eq!(m.repair_rows_cached, 4);
    }

    #[test]
    fn repair_row_cache_is_bounded_and_clones_start_cold() {
        // (20, 16): enough distinct single-erasure patterns to overflow the
        // 16-row cache.
        let code = ReedSolomon::new(20, 16).unwrap();
        let mut rng = StdRng::seed_from_u64(47);
        let data = random_data(&mut rng, 16 * 8);
        let shares = encode(&code, &data);
        for target in 0..code.k() {
            let mut view = ShareView::missing(20);
            for (i, s) in shares.iter().enumerate() {
                if i != target {
                    view.set(i, s);
                }
            }
            let mut out = vec![0u8; shares.share_len()];
            code.repair(&view, target, &mut out).unwrap();
            assert_eq!(out, shares.share(target));
        }
        // 16 distinct patterns fit exactly; one more evicts the oldest. An
        // extra erasure alongside the repair target changes the survivor
        // set, so (missing = 0, shares 0 and 1 gone) is a fresh pattern.
        assert_eq!(code.runtime_metrics().repair_rows_cached, 16);
        let mut view = ShareView::missing(20);
        for (i, s) in shares.iter().enumerate() {
            if i != 0 && i != 1 {
                view.set(i, s);
            }
        }
        let mut out = vec![0u8; shares.share_len()];
        code.repair(&view, 0, &mut out).unwrap();
        assert_eq!(out, shares.share(0));
        let m = code.runtime_metrics();
        assert_eq!(m.repair_rows_cached, 16, "LRU stays bounded");
        assert_eq!(m.repair_row_misses, 17);

        let clone = code.clone();
        assert_eq!(clone.runtime_metrics(), CodeMetrics::default());
    }

    #[test]
    fn parity_fast_path_bypasses_the_cache() {
        let code = ReedSolomon::new(6, 4).unwrap();
        let data = vec![3u8; 4 * 8];
        let shares = encode(&code, &data);
        // All systematic shares survive; repairing a parity share uses the
        // precomputed parity tables and must not touch the LRU.
        let mut view = ShareView::missing(6);
        for (i, s) in shares.iter().enumerate() {
            if i != 5 {
                view.set(i, s);
            }
        }
        let mut out = vec![0u8; shares.share_len()];
        code.repair(&view, 5, &mut out).unwrap();
        assert_eq!(out, shares.share(5));
        assert_eq!(code.runtime_metrics(), CodeMetrics::default());
    }

    #[test]
    fn cost_is_higher_than_xor_codes_for_same_rate() {
        // Sanity for E10: RS (6,4) should cost more XOR-equivalents per byte
        // than a 2-XOR-per-byte array code.
        let rs = ReedSolomon::new(6, 4).unwrap();
        let cost = rs.cost(4 * 1024);
        assert!(cost.encode_xors_per_data_byte() > 2.0);
    }
}
