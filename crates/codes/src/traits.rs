//! The common erasure-code interface used by the storage layer.
//!
//! Every code in this crate implements these methods, all on caller-owned
//! buffers:
//!
//! * the four required ones: [`ErasureCode::encode_slices`] (the one line
//!   `encode_parts(&[], data, data.len(), shares)`),
//!   [`ErasureCode::decode_slices`], and [`ErasureCode::repair`], which
//!   rebuilds a **single lost share** without round-tripping through the
//!   data block, plus the metadata (`kind`, `n`, `k`, `data_len_unit`,
//!   `cost`);
//! * two provided ones it overrides: [`ErasureCode::encode_parts`], the one
//!   encode, which writes the caller's bytes straight into the shares, and
//!   [`ErasureCode::decode_append`], the one decode of a byte range, which
//!   appends it straight from the verified shares and rebuilds only the
//!   lost data the range needs.
//!
//! Most other callers use [`ErasureCode::encode_into`] and
//! [`ErasureCode::decode_into`] instead, which size a reusable [`ShareSet`]
//! or `Vec` for them.
//!
//! A wrapper (a code that forwards to another) must forward the required
//! methods. What a provided method answers for a wrapper that does not
//! forward it is said on the method: a wrapper that forwards neither
//! `encode_parts` nor `decode_append` stages a copy of the whole input on
//! each put and each get, and measures that copy, which the real code never
//! makes. Which cells a code keeps verbatim is no method at all, but found
//! from the encode by [`Layout::of`].

use crate::error::CodeError;
use crate::metrics::{CodeCost, CodeMetrics};
use crate::share::{ShareSet, ShareView};
use std::ops::Range;

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
    /// are always recoverable). Every code in this crate is; the flag lets
    /// a baseline outside it opt out.
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

    // ---- required ---------------------------------------------------------

    /// Encode `data` into `n` pre-sized column slices, each
    /// `share_len_for(data.len())` bytes. Every byte of every slice is
    /// overwritten. A code implements it as
    /// `self.encode_parts(&[], data, data.len(), shares)`; a wrapper
    /// forwards it. Most callers want [`ErasureCode::encode_into`].
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

    /// Encode the `padded_len`-byte input `prefix ++ body ++ zeros` into
    /// `n` pre-sized column slices of `share_len_for(padded_len)` bytes,
    /// every byte overwritten. The shares are exactly those
    /// [`ErasureCode::encode_slices`] makes of the concatenated input.
    /// `padded_len` must be a valid input length no shorter than
    /// `prefix.len() + body.len()`.
    ///
    /// Every code in this crate overrides this to write the parts straight
    /// into the shares that keep them verbatim and to compute parity from
    /// there. This default stages the input in a buffer and calls
    /// `encode_slices`; it is for wrappers only. A wrapper that does not
    /// forward it pays, and measures, a copy of the whole input that the
    /// real code's encode never makes.
    fn encode_parts(
        &self,
        prefix: &[u8],
        body: &[u8],
        padded_len: usize,
        shares: &mut [&mut [u8]],
    ) -> Result<(), CodeError> {
        validate_parts(prefix.len() + body.len(), padded_len, self.data_len_unit())?;
        let mut staged = Vec::with_capacity(padded_len);
        staged.extend_from_slice(prefix);
        staged.extend_from_slice(body);
        staged.resize(padded_len, 0);
        self.encode_slices(&staged, shares)
    }

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

    /// Append bytes `range` of the decoded input (`share_len * k` bytes) to
    /// `out`, leaving the bytes already there as they are. A range past the
    /// input is [`CodeError::BadRange`].
    ///
    /// Every code in this crate overrides this to copy each byte of the
    /// range once, from the share that keeps it verbatim where that share
    /// survives, and to rebuild only the lost data the range covers; `out`
    /// is never staged, and no byte of it is zero-filled except a lost
    /// Reed-Solomon run, whose multiply-accumulates need a zero start. This
    /// default decodes the whole input
    /// into a staging buffer with `decode_into` and copies the range out;
    /// it is for wrappers only. A wrapper that does not forward it pays, and
    /// measures, that staging copy.
    fn decode_append(
        &self,
        shares: &ShareView<'_>,
        range: Range<usize>,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        let mut staged = Vec::new();
        self.decode_into(shares, &mut staged)?;
        validate_range(&range, staged.len())?;
        out.extend_from_slice(&staged[range]);
        Ok(())
    }
}

/// Where a code keeps each data cell of its input verbatim: the data
/// partitioning of the paper's §4.1, which lets a reader of a small range
/// take the bytes from the covering share instead of decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// `(share, slot)` of data cell `i`, in input order. A slot is one
    /// `data_len / data_len_unit()`-byte cell of its share.
    cells: Vec<(usize, usize)>,
}

impl Layout {
    /// Encode one block of `data_len_unit()` cells, each an 8-byte tag no
    /// other cell holds, and find each tag's first share and slot. `None`
    /// if the encode fails or some cell is in no share verbatim: a reader
    /// then decodes. Any wrapper must forward the encode, so none can hide
    /// the layout. The map is taken at one cell length and holds at all,
    /// as it does for every code whose shares are whole cells.
    pub fn of(code: &dyn ErasureCode) -> Option<Layout> {
        // An odd multiplier is a bijection on u64: the tags are distinct.
        let tags: Vec<[u8; 8]> = (1..=code.data_len_unit() as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes())
            .collect();
        let mut shares = ShareSet::new();
        code.encode_into(&tags.concat(), &mut shares).ok()?;
        let cells = tags.iter().map(|tag| {
            shares.iter().enumerate().find_map(|(share, bytes)| {
                Some((share, bytes.chunks_exact(8).position(|cell| cell == tag)?))
            })
        });
        Some(Layout {
            cells: cells.collect::<Option<_>>()?,
        })
    }

    /// Where data byte `offset` of a `data_len`-byte input is stored
    /// verbatim: `(share, offset_in_share, run)`. The `run ≥ 1` bytes of
    /// the share from `offset_in_share` are input bytes
    /// `offset..offset + run`, up to the end of the data cell holding
    /// `offset`. `None` for an invalid `data_len` or `offset ≥ data_len`.
    pub fn locate(&self, data_len: usize, offset: usize) -> Option<(usize, usize, usize)> {
        validate_data_len(data_len, self.cells.len()).ok()?;
        let cell_len = data_len / self.cells.len();
        let &(share, slot) = self.cells.get(offset / cell_len)?;
        let within = offset % cell_len;
        Some((share, slot * cell_len + within, cell_len - within))
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

/// Validate an [`ErasureCode::decode_append`] range against the
/// `len`-byte decoded input.
pub(crate) fn validate_range(range: &Range<usize>, len: usize) -> Result<(), CodeError> {
    if range.start > range.end || range.end > len {
        return Err(CodeError::BadRange {
            start: range.start,
            end: range.end,
            len,
        });
    }
    Ok(())
}

/// Validate an [`ErasureCode::encode_parts`] input: `padded_len` is a
/// valid input length and holds the `input_len` bytes of the parts.
pub(crate) fn validate_parts(
    input_len: usize,
    padded_len: usize,
    unit: usize,
) -> Result<(), CodeError> {
    validate_data_len(padded_len, unit)?;
    if input_len > padded_len {
        return Err(CodeError::BadDataLength {
            got: input_len,
            unit,
        });
    }
    Ok(())
}

/// Bytes at which each encode or decode pass advances through a cell or
/// symbol: the runs a window writes are still in L1 when the next step of
/// the window reads them.
pub(crate) const ENCODE_WINDOW: usize = 4096;

/// Copy bytes `offset..offset + dst.len()` of the input
/// `prefix ++ body ++ zeros` into `dst`.
pub(crate) fn copy_parts(mut dst: &mut [u8], mut offset: usize, prefix: &[u8], body: &[u8]) {
    for part in [prefix, body] {
        if dst.is_empty() {
            return;
        }
        let Some(rest) = part.get(offset..) else {
            offset -= part.len();
            continue;
        };
        let run = rest.len().min(dst.len());
        let (head, tail) = dst.split_at_mut(run);
        head.copy_from_slice(&rest[..run]);
        dst = tail;
        offset = 0;
    }
    dst.fill(0);
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
    fn copy_parts_reads_across_prefix_body_and_padding() {
        let input: Vec<u8> = [&[1u8, 2, 3][..], &[4, 5], &[0, 0, 0]].concat();
        for offset in 0..input.len() {
            for len in 0..=input.len() - offset {
                let mut dst = vec![0xaa; len];
                copy_parts(&mut dst, offset, &[1, 2, 3], &[4, 5]);
                assert_eq!(dst, &input[offset..offset + len], "{offset}+{len}");
            }
        }
    }

    #[test]
    fn validate_parts_needs_room_for_the_input() {
        assert!(validate_parts(8, 12, 4).is_ok());
        assert!(validate_parts(13, 12, 4).is_err());
        assert!(validate_parts(8, 10, 4).is_err());
        assert!(validate_parts(0, 0, 4).is_err());
    }

    #[test]
    fn validate_decode_out_requires_exact_length() {
        assert!(validate_decode_out(16, 16).is_ok());
        assert!(validate_decode_out(15, 16).is_err());
    }
}
