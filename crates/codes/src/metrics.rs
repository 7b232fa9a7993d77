//! Cost accounting for the code-complexity experiments.
//!
//! Section 4.1 of the paper claims that the B-Code and X-Code are *optimal*
//! in the number of encoding/decoding operations and in the number of parity
//! updates per small write, compared to other MDS schemes. This module
//! provides the analytic cost model used by experiment E10 to reproduce that
//! comparison; the workspace bench harness (`cargo run -p bench --release`)
//! measures the same quantities in wall time and writes them to
//! `BENCH_codes.json`.

use serde::{Deserialize, Serialize};

/// Analytic cost of using a code on a block of a given size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodeCost {
    /// Total bytes of original data the cost refers to.
    pub data_len: usize,
    /// Byte-XOR operations needed to compute all parity from the data
    /// (GF(2^8) multiply-accumulates are counted as XOR-equivalents times
    /// [`CodeCost::GF_MUL_XOR_EQUIVALENT`] for Reed-Solomon).
    pub encode_xor_bytes: u64,
    /// Byte-XOR operations to recover from a worst-case `n - k` erasure.
    pub decode_xor_bytes: u64,
    /// Average number of parity *cells* that must be updated when a single
    /// data cell is modified (the paper's "update complexity"). The optimal
    /// value for an `(n, n-2)` MDS code is 2.
    pub update_parities_per_data_cell: f64,
    /// Storage overhead: total encoded bytes divided by data bytes.
    pub storage_overhead: f64,
}

impl CodeCost {
    /// The per-object share of this cost when it describes one **coding
    /// group**: `objects` equally sized objects packed into a single
    /// contiguous block and encoded with one `encode_into` call.
    ///
    /// Encode/decode work divides evenly across the packed objects (the
    /// kernels stream over the concatenated block), which is exactly the
    /// amortisation the storage layer's group batching buys: per-call setup
    /// (table preparation, share-set relayout, per-object metadata) is paid
    /// once per *group* instead of once per *object*. Update complexity and
    /// storage overhead are per-cell/relative quantities and are unchanged.
    pub fn amortized_per_object(&self, objects: usize) -> CodeCost {
        assert!(objects >= 1, "a coding group holds at least one object");
        CodeCost {
            data_len: self.data_len / objects,
            encode_xor_bytes: self.encode_xor_bytes / objects as u64,
            decode_xor_bytes: self.decode_xor_bytes / objects as u64,
            update_parities_per_data_cell: self.update_parities_per_data_cell,
            storage_overhead: self.storage_overhead,
        }
    }

    /// How many byte-XOR operations a GF(2^8) table-lookup multiply-accumulate
    /// is charged as. A log/exp-table multiply touches ~3 table entries and an
    /// add; 4 is a conventional, slightly conservative equivalence used only
    /// to put Reed-Solomon on the same axis as the XOR-only codes. (The
    /// split-table bulk kernel in [`crate::gf256`] narrows the *measured*
    /// gap — see `BENCH_codes.json` — but the analytic model deliberately
    /// charges the classical per-byte cost the paper argues about.)
    pub const GF_MUL_XOR_EQUIVALENT: u64 = 4;

    /// Encode cost normalised per byte of original data.
    pub fn encode_xors_per_data_byte(&self) -> f64 {
        self.encode_xor_bytes as f64 / self.data_len as f64
    }

    /// Decode cost normalised per byte of original data.
    pub fn decode_xors_per_data_byte(&self) -> f64 {
        self.decode_xor_bytes as f64 / self.data_len as f64
    }
}

/// Runtime counters for the derived-table caches some codes maintain.
///
/// The ROADMAP's "decode-path tables" item: during a repair storm the same
/// erasure pattern is hit over and over, so [`crate::ReedSolomon`] keeps a
/// small LRU of folded repair coefficient rows keyed by that pattern. This
/// snapshot (see [`crate::ErasureCode::runtime_metrics`]) makes the cache observable
/// — a storm that repeats one pattern should show `repair_row_hits`
/// approaching the number of repairs, while an adversarial pattern mix shows
/// misses and a bounded `repair_rows_cached`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeMetrics {
    /// Repairs served from a cached coefficient row (no matrix inversion).
    pub repair_row_hits: u64,
    /// Repairs that had to invert the survivor submatrix and fold the row.
    pub repair_row_misses: u64,
    /// Coefficient rows currently cached (bounded by the cache capacity).
    pub repair_rows_cached: usize,
}

impl CodeMetrics {
    /// Fraction of repairs served from the cache (`0.0` before any repair).
    pub fn repair_row_hit_rate(&self) -> f64 {
        let total = self.repair_row_hits + self.repair_row_misses;
        if total == 0 {
            0.0
        } else {
            self.repair_row_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalised_costs_divide_by_data_len() {
        let c = CodeCost {
            data_len: 1000,
            encode_xor_bytes: 3000,
            decode_xor_bytes: 1500,
            update_parities_per_data_cell: 2.0,
            storage_overhead: 1.5,
        };
        assert!((c.encode_xors_per_data_byte() - 3.0).abs() < 1e-12);
        assert!((c.decode_xors_per_data_byte() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn amortized_per_object_divides_work_not_ratios() {
        let group = CodeCost {
            data_len: 8192,
            encode_xor_bytes: 16384,
            decode_xor_bytes: 32768,
            update_parities_per_data_cell: 2.0,
            storage_overhead: 1.5,
        };
        let per_object = group.amortized_per_object(8);
        assert_eq!(per_object.data_len, 1024);
        assert_eq!(per_object.encode_xor_bytes, 2048);
        assert_eq!(per_object.decode_xor_bytes, 4096);
        // Relative quantities do not amortise.
        assert_eq!(per_object.update_parities_per_data_cell, 2.0);
        assert_eq!(per_object.storage_overhead, 1.5);
        // Normalised per-byte cost is unchanged: grouping amortises the
        // per-call setup, not the streaming work.
        assert!(
            (per_object.encode_xors_per_data_byte() - group.encode_xors_per_data_byte()).abs()
                < 1e-12
        );
    }

    #[test]
    fn hit_rate_handles_the_empty_case() {
        let mut m = CodeMetrics::default();
        assert_eq!(m.repair_row_hit_rate(), 0.0);
        m.repair_row_hits = 3;
        m.repair_row_misses = 1;
        assert!((m.repair_row_hit_rate() - 0.75).abs() < 1e-12);
    }
}
