//! The common erasure-code interface used by the storage layer.
//!
//! Every entry point works on caller-owned buffers.
//! [`ErasureCode::encode_slices`], [`ErasureCode::decode_slices`] and
//! [`ErasureCode::repair`] are what an implementation provides: they take
//! pre-sized column slices, a borrowed [`ShareView`] and a flat output
//! slice, and never allocate share storage. [`ErasureCode::encode_into`] /
//! [`ErasureCode::decode_into`] are what callers use: they size a reusable
//! [`ShareSet`] / output `Vec` for you, so steady-state loops allocate
//! nothing after the first call.
//!
//! [`ErasureCode::repair`] reconstructs a **single lost share** directly,
//! without round-tripping through the full data block — the operation node
//! repair actually needs.

use crate::error::CodeError;
use crate::metrics::{CodeCost, CodeMetrics};
use crate::share::{ShareSet, ShareView};

/// Identifies which family a code object belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CodeKind {
    /// The paper's B-Code: an `(n, n-2)` lowest-density MDS array code.
    BCode,
    /// The X-Code: a `(p, p-2)` MDS array code with optimal encoding.
    XCode,
    /// EVENODD: a `(p+2, p)` MDS array code.
    EvenOdd,
    /// Reed-Solomon over GF(2^8) (MDS, but not XOR-only).
    ReedSolomon,
    /// Full replication (RAID-1 style mirroring).
    Mirroring,
    /// Single parity (RAID-4/5 style), tolerates one erasure.
    SingleParity,
}

/// An `(n, k)` erasure code: `k` symbols of original data are represented by
/// `n` symbols of encoded data, and the original can be recovered from any
/// `k` of them (for the MDS codes in this crate).
///
/// The trait is object-safe so the storage layer can swap codes at runtime.
/// See the [module docs](self) for which methods to implement and which to
/// call.
pub trait ErasureCode: Send + Sync {
    /// Which code family this is.
    fn kind(&self) -> CodeKind;

    /// Total number of encoded symbols produced ("columns" for array codes).
    fn n(&self) -> usize;

    /// Number of symbols sufficient for reconstruction.
    fn k(&self) -> usize;

    /// Number of erasures tolerated (`n - k` for MDS codes).
    fn fault_tolerance(&self) -> usize {
        self.n() - self.k()
    }

    /// The input length must be a positive multiple of this unit (in bytes).
    /// The unit is always a multiple of `k`, so `share_len_for` divides
    /// evenly.
    fn data_len_unit(&self) -> usize;

    /// Analytic cost model for encoding/decoding/updating `data_len` bytes.
    fn cost(&self, data_len: usize) -> CodeCost;

    /// Runtime counters a code implementation accumulates while serving
    /// (e.g. Reed-Solomon's repair-row cache hits). Codes without runtime
    /// state report the all-zero default; wrappers delegate to their inner
    /// code. Telemetry publishers surface these as `codes.*` gauges (see
    /// `DistributedStore::publish_gauges` in `rain-storage`).
    fn runtime_metrics(&self) -> CodeMetrics {
        CodeMetrics::default()
    }

    /// True if the code is Maximum Distance Separable (`m = n - k` erasures
    /// are always recoverable). All codes in this crate except none are MDS,
    /// but the flag lets baselines opt out.
    fn is_mds(&self) -> bool {
        true
    }

    /// The serializable `(kind, n, k)` description of this code; feed it to
    /// [`crate::spec::build_code`] to reconstruct an equivalent instance.
    fn spec(&self) -> crate::spec::CodeSpec {
        crate::spec::CodeSpec {
            kind: self.kind(),
            n: self.n(),
            k: self.k(),
        }
    }

    /// Length in bytes of each encoded share for a `data_len`-byte input.
    fn share_len_for(&self, data_len: usize) -> Result<usize, CodeError> {
        validate_data_len(data_len, self.data_len_unit())?;
        Ok(data_len / self.k())
    }

    /// Where data byte `offset` of a `data_len`-byte input is stored
    /// verbatim: `(share, offset_in_share, run)`. The `run ≥ 1` bytes of
    /// share `share` starting at `offset_in_share` are input bytes
    /// `offset..offset + run`, and the run never leaves the data cell
    /// (`data_len / data_len_unit()` bytes) that holds `offset`. A reader
    /// whose covering shares are healthy can serve a byte range from them
    /// without decoding.
    ///
    /// The default, `None`, means "always decode". It is right for any code
    /// whose share layout depends on more than the code itself and for
    /// wrappers that do not forward this method. Implementations also
    /// return `None` for an invalid `data_len` or an `offset ≥ data_len`.
    fn locate(&self, _data_len: usize, _offset: usize) -> Option<(usize, usize, usize)> {
        None
    }

    // ---- required ---------------------------------------------------------

    /// Encode `data` into `n` pre-sized column slices, each
    /// `share_len_for(data.len())` bytes. Every byte of every slice is
    /// overwritten. This is the lowest-level entry point; most callers want
    /// [`ErasureCode::encode_into`].
    fn encode_slices(&self, data: &[u8], shares: &mut [&mut [u8]]) -> Result<(), CodeError>;

    /// Reconstruct the original data from surviving shares into `out`,
    /// which must be exactly `share_len * k` bytes (fully overwritten).
    /// Most callers want [`ErasureCode::decode_into`].
    fn decode_slices(&self, shares: &ShareView<'_>, out: &mut [u8]) -> Result<(), CodeError>;

    /// Reconstruct the single share `missing` from the surviving shares in
    /// `shares`, writing it to `out` (which must be `share_len` bytes).
    ///
    /// Unlike decode + re-encode, this derives only the lost symbol: array
    /// codes recover just the erased cells and the target column's parities;
    /// Reed-Solomon folds the inverted submatrix into one coefficient row.
    /// Any value present in slot `missing` of the view is ignored.
    fn repair(
        &self,
        shares: &ShareView<'_>,
        missing: usize,
        out: &mut [u8],
    ) -> Result<(), CodeError>;

    // ---- provided ---------------------------------------------------------

    /// Encode `data` into a reusable [`ShareSet`]. The set is re-laid out
    /// for this call (allocating only if it grew past its retained
    /// capacity), then fully overwritten.
    fn encode_into(&self, data: &[u8], shares: &mut ShareSet) -> Result<(), CodeError> {
        let share_len = self.share_len_for(data.len())?;
        shares.reset(self.n(), share_len);
        let mut cols = shares.columns_mut();
        self.encode_slices(data, &mut cols)
    }

    /// Reconstruct the original data into a reusable `Vec` (resized, fully
    /// overwritten; steady-state calls reuse its allocation).
    fn decode_into(&self, shares: &ShareView<'_>, out: &mut Vec<u8>) -> Result<(), CodeError> {
        let share_len = shares.validate(self.n(), self.k())?;
        out.resize(share_len * self.k(), 0);
        self.decode_slices(shares, out)
    }
}

/// Validate an encode input length against the code's unit.
pub(crate) fn validate_data_len(data_len: usize, unit: usize) -> Result<(), CodeError> {
    if data_len == 0 || !data_len.is_multiple_of(unit) {
        return Err(CodeError::BadDataLength {
            got: data_len,
            unit,
        });
    }
    Ok(())
}

/// Data-cell length (`data_len / unit`) for a `locate` call, or `None` when
/// `offset` does not address a byte of a valid input.
pub(crate) fn locate_cell_len(data_len: usize, offset: usize, unit: usize) -> Option<usize> {
    (validate_data_len(data_len, unit).is_ok() && offset < data_len).then(|| data_len / unit)
}

/// Validate pre-sized encode output columns: `n` slices of `share_len`.
pub(crate) fn validate_encode_cols(
    shares: &[&mut [u8]],
    n: usize,
    share_len: usize,
) -> Result<(), CodeError> {
    if shares.len() != n {
        return Err(CodeError::BadShareCount {
            got: shares.len(),
            expected: n,
        });
    }
    if shares.iter().any(|s| s.len() != share_len) {
        return Err(CodeError::InconsistentShareLength);
    }
    Ok(())
}

/// Validate a caller-provided output slice against the exact required length.
pub(crate) fn validate_decode_out(out_len: usize, expected: usize) -> Result<(), CodeError> {
    if out_len != expected {
        return Err(CodeError::BadOutputLength {
            got: out_len,
            expected,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_data_len_enforces_unit() {
        assert!(validate_data_len(24, 12).is_ok());
        assert!(validate_data_len(0, 12).is_err());
        assert!(validate_data_len(13, 12).is_err());
    }

    #[test]
    fn validate_encode_cols_checks_count_and_lengths() {
        let mut a = vec![0u8; 4];
        let mut b = vec![0u8; 4];
        let mut cols: Vec<&mut [u8]> = vec![&mut a, &mut b];
        assert!(validate_encode_cols(&cols, 2, 4).is_ok());
        assert!(matches!(
            validate_encode_cols(&cols, 3, 4),
            Err(CodeError::BadShareCount { .. })
        ));
        cols.pop();
        let mut c = vec![0u8; 5];
        cols.push(&mut c);
        assert!(matches!(
            validate_encode_cols(&cols, 2, 4),
            Err(CodeError::InconsistentShareLength)
        ));
    }

    #[test]
    fn validate_decode_out_requires_exact_length() {
        assert!(validate_decode_out(16, 16).is_ok());
        assert!(validate_decode_out(15, 16).is_err());
    }
}
