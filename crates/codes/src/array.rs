//! Generic framework for XOR-based **array codes**.
//!
//! Section 4.1 of the RAIN paper describes array codes as "data partitioning
//! schemes" whose only operations are binary XORs, decoded by following
//! *decoding chains* (recover one lost piece, substitute it into the next
//! equation, and so on). This module captures that structure once so that
//! the B-Code, X-Code, and EVENODD all share:
//!
//! * a declarative [`ArrayLayout`] (which data/parity cell sits in which
//!   column, and which data cells each parity equation XORs together),
//! * vectorised encoding over byte buffers,
//! * a **peeling decoder** that literally follows decoding chains and records
//!   them in a [`DecodeTrace`] (used by experiment E9 to reproduce Table 2),
//! * a Gaussian-elimination fallback over GF(2) for erasure patterns where
//!   simple chains stall (EVENODD needs this in some two-column cases),
//! * an exhaustive MDS checker used by tests and by the code-construction
//!   search in [`crate::bcode`].

use crate::error::CodeError;
use crate::matrix::solve_gf2_sparse;
use crate::metrics::CodeCost;
use crate::share::ShareView;
use crate::traits::{
    copy_parts, validate_decode_out, validate_encode_cols, validate_parts, validate_range,
    CodeKind, ErasureCode, ENCODE_WINDOW,
};
use crate::xor::xor_into;
use std::cmp::Ordering;
use std::ops::Range;

/// Set the `len`-byte run at `dst` (`(column, offset)`) to the XOR of the
/// runs at `srcs`, none of which overlaps it: the first is copied, the rest
/// are XORed in. A run is one encode window, so the output stays in L1
/// across the passes.
fn xor_runs(
    shares: &mut [&mut [u8]],
    dst: (usize, usize),
    srcs: impl Iterator<Item = (usize, usize)>,
    len: usize,
) {
    let (left, rest) = shares.split_at_mut(dst.0);
    let (column, right) = rest.split_first_mut().expect("dst names a column");
    let (above, rest) = column.split_at_mut(dst.1);
    let (out, below) = rest.split_at_mut(len);
    let mut first = true;
    for (c, at) in srcs {
        let src = match c.cmp(&dst.0) {
            Ordering::Less => &left[c][at..at + len],
            Ordering::Greater => &right[c - dst.0 - 1][at..at + len],
            Ordering::Equal if at < dst.1 => &above[at..at + len],
            Ordering::Equal => &below[at - dst.1 - len..][..len],
        };
        if first {
            out.copy_from_slice(src);
            first = false;
        } else {
            xor_into(out, src);
        }
    }
    if first {
        out.fill(0);
    }
}

/// One cell of an array-code column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Cell {
    /// The `i`-th data cell (data cells are numbered `0..num_data_cells` in
    /// the order they are read from the input buffer).
    Data(usize),
    /// The `i`-th parity cell, computed by parity equation `i`.
    Parity(usize),
}

/// Declarative description of an array code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayLayout {
    /// Number of columns (encoded symbols), `n`.
    pub columns: usize,
    /// Number of columns sufficient for reconstruction, `k`.
    pub k: usize,
    /// Cells in each column, outermost index is the column.
    pub column_cells: Vec<Vec<Cell>>,
    /// For each parity equation, the set of data-cell indices XORed together.
    pub equations: Vec<Vec<usize>>,
}

impl ArrayLayout {
    /// Total number of data cells.
    pub fn num_data_cells(&self) -> usize {
        self.column_cells
            .iter()
            .flatten()
            .filter(|c| matches!(c, Cell::Data(_)))
            .count()
    }

    /// Total number of parity cells.
    pub fn num_parity_cells(&self) -> usize {
        self.equations.len()
    }

    /// Number of cells in each column (all columns must be equal).
    pub fn cells_per_column(&self) -> usize {
        self.column_cells[0].len()
    }

    /// Check structural invariants; returns a human-readable error if the
    /// layout is malformed. Used by constructors and tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.columns == 0 || self.column_cells.len() != self.columns {
            return Err("column count mismatch".into());
        }
        let r = self.column_cells[0].len();
        if self.column_cells.iter().any(|c| c.len() != r) {
            return Err("columns have different heights".into());
        }
        let d = self.num_data_cells();
        let mut seen_data = vec![false; d];
        let mut seen_parity = vec![false; self.equations.len()];
        for col in &self.column_cells {
            for cell in col {
                match *cell {
                    Cell::Data(i) => {
                        if i >= d || seen_data[i] {
                            return Err(format!("data cell {i} missing or duplicated"));
                        }
                        seen_data[i] = true;
                    }
                    Cell::Parity(i) => {
                        if i >= self.equations.len() || seen_parity[i] {
                            return Err(format!("parity cell {i} missing or duplicated"));
                        }
                        seen_parity[i] = true;
                    }
                }
            }
        }
        if seen_data.iter().any(|&s| !s) || seen_parity.iter().any(|&s| !s) {
            return Err("some cells are not placed in any column".into());
        }
        for (i, eq) in self.equations.iter().enumerate() {
            if eq.is_empty() {
                return Err(format!("parity equation {i} is empty"));
            }
            if eq.iter().any(|&u| u >= d) {
                return Err(format!("parity equation {i} references a bad data cell"));
            }
        }
        Ok(())
    }

    /// Exhaustively verify the MDS property for every erasure pattern of
    /// exactly `n - k` columns, using the GF(2) rank of the surviving
    /// equations. Returns the first failing pattern, if any.
    pub fn find_mds_violation(&self) -> Option<Vec<usize>> {
        let n = self.columns;
        let m = n - self.k;
        let mut pattern: Vec<usize> = (0..m).collect();
        loop {
            if !self.erasure_pattern_solvable(&pattern) {
                return Some(pattern);
            }
            // Next combination.
            let mut i = m;
            loop {
                if i == 0 {
                    return None;
                }
                i -= 1;
                if pattern[i] != i + n - m {
                    pattern[i] += 1;
                    for j in i + 1..m {
                        pattern[j] = pattern[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    /// True if the given set of erased columns can be recovered (rank check
    /// over GF(2), independent of actual data).
    pub fn erasure_pattern_solvable(&self, erased_columns: &[usize]) -> bool {
        let erased: Vec<bool> = (0..self.columns)
            .map(|c| erased_columns.contains(&c))
            .collect();
        // Unknowns: data cells in erased columns.
        let mut unknown_index = vec![usize::MAX; self.num_data_cells()];
        let mut num_unknowns = 0;
        for (c, col) in self.column_cells.iter().enumerate() {
            if !erased[c] {
                continue;
            }
            for cell in col {
                if let Cell::Data(d) = *cell {
                    unknown_index[d] = num_unknowns;
                    num_unknowns += 1;
                }
            }
        }
        if num_unknowns == 0 {
            return true;
        }
        // Equations from surviving parity cells.
        let mut eqs: Vec<Vec<usize>> = Vec::new();
        for (c, col) in self.column_cells.iter().enumerate() {
            if erased[c] {
                continue;
            }
            for cell in col {
                if let Cell::Parity(p) = *cell {
                    let unknowns: Vec<usize> = self.equations[p]
                        .iter()
                        .filter(|&&d| unknown_index[d] != usize::MAX)
                        .map(|&d| unknown_index[d])
                        .collect();
                    eqs.push(unknowns);
                }
            }
        }
        let rhs = vec![vec![0u8; 1]; eqs.len()];
        solve_gf2_sparse(num_unknowns, &eqs, &rhs).is_some()
    }
}

/// One step of a decoding chain: which cell was recovered and from which
/// parity equation.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChainStep {
    /// The recovered data-cell index.
    pub recovered_data_cell: usize,
    /// The parity equation used to recover it.
    pub equation: usize,
    /// The column that stores that parity cell.
    pub parity_column: usize,
}

/// Record of how a decode proceeded — the "decoding chains" of the paper.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DecodeTrace {
    /// Peeling steps in the order they were executed.
    pub chain: Vec<ChainStep>,
    /// True if the peeling decoder stalled and the GF(2) Gaussian fallback
    /// finished the job.
    pub used_gaussian_fallback: bool,
}

/// A concrete XOR array code: an [`ArrayLayout`] plus the encode/decode
/// machinery, tagged with the family it belongs to. The named codes in this
/// crate ([`crate::BCode`], [`crate::XCode`], [`crate::EvenOdd`],
/// [`crate::SingleParity`]) are constructors of an `ArrayCode`; this type
/// holds the one [`ErasureCode`] implementation they all share.
#[derive(Debug, Clone)]
pub struct ArrayCode {
    kind: CodeKind,
    layout: ArrayLayout,
    /// `(column, slot)` of every parity cell, indexed by equation.
    parity_cell_at: Vec<(usize, usize)>,
    /// `(column, slot)` of every data cell, indexed by data-cell number.
    data_cell_at: Vec<(usize, usize)>,
}

impl ArrayCode {
    /// Build an `ArrayCode` of family `kind` from a layout, validating the
    /// layout first.
    pub fn new(kind: CodeKind, layout: ArrayLayout) -> Result<Self, CodeError> {
        layout
            .validate()
            .map_err(|reason| CodeError::UnsupportedParameters { reason })?;
        let mut parity_cell_at = vec![(0usize, 0usize); layout.equations.len()];
        let mut data_cell_at = vec![(0usize, 0usize); layout.num_data_cells()];
        for (c, col) in layout.column_cells.iter().enumerate() {
            for (slot, cell) in col.iter().enumerate() {
                match *cell {
                    Cell::Data(i) => data_cell_at[i] = (c, slot),
                    Cell::Parity(p) => parity_cell_at[p] = (c, slot),
                }
            }
        }
        Ok(ArrayCode {
            kind,
            layout,
            parity_cell_at,
            data_cell_at,
        })
    }

    /// The underlying layout.
    pub fn layout(&self) -> &ArrayLayout {
        &self.layout
    }

    /// Exhaustively confirm the MDS property: every `k`-subset of columns
    /// suffices (see [`ArrayLayout::find_mds_violation`]).
    pub fn verify_mds(&self) -> bool {
        self.layout.find_mds_violation().is_none()
    }

    /// Decode and return the decoding chains that were followed — the
    /// structure the paper spells out in Cases 1–3 / Table 2.
    pub fn decode_traced(
        &self,
        shares: &ShareView<'_>,
    ) -> Result<(Vec<u8>, DecodeTrace), CodeError> {
        let share_len = shares.validate(self.n(), self.k())?;
        let r = self.layout.cells_per_column();
        // Sized for the happy case; a share length not divisible by the cell
        // count is rejected inside decode_slices_impl before `out` is used.
        let mut out = vec![0u8; (share_len / r) * self.layout.num_data_cells()];
        let trace = self.decode_slices_impl(shares, &mut out)?;
        Ok((out, trace))
    }

    /// Shared decode path: copy the surviving data cells into `out`, then
    /// rebuild the lost ones in place by the decoding chains and, if they
    /// stall, the GF(2) Gaussian fallback. Returns what was done.
    fn decode_slices_impl(
        &self,
        shares: &ShareView<'_>,
        out: &mut [u8],
    ) -> Result<DecodeTrace, CodeError> {
        let src = self.survivors(shares, None)?;
        let cell_len = src.cell_len;
        let d = src.data.len();
        validate_decode_out(out.len(), d * cell_len)?;
        let (chain, seeds) = self.peel(&src);
        for (cell, from) in out.chunks_exact_mut(cell_len.max(1)).zip(&seeds) {
            if let Some(from) = from {
                cell.copy_from_slice(from);
            }
        }
        let slots = Slots {
            slot: (0..d).collect(),
            stride: cell_len,
            lo: 0,
        };
        let used_gaussian_fallback = self.rebuild(&src, &chain, &seeds, out, &slots)?;
        Ok(DecodeTrace {
            chain,
            used_gaussian_fallback,
        })
    }

    /// Validate `shares` (ignoring slot `skip`, a repair's target) and
    /// borrow every cell of every surviving share.
    fn survivors<'a>(
        &self,
        shares: &ShareView<'a>,
        skip: Option<usize>,
    ) -> Result<Survivors<'a>, CodeError> {
        let share_len = match skip {
            Some(missing) => shares.validate_excluding(self.n(), self.k(), missing)?,
            None => shares.validate(self.n(), self.k())?,
        };
        let r = self.layout.cells_per_column();
        if !share_len.is_multiple_of(r) {
            return Err(CodeError::DecodeFailure {
                reason: format!("share length {share_len} not divisible by {r} cells"),
            });
        }
        let cell_len = share_len / r;
        let mut src = Survivors {
            cell_len,
            data: vec![None; self.data_cell_at.len()],
            parity: vec![None; self.parity_cell_at.len()],
        };
        for (c, share) in shares.iter().enumerate() {
            let Some(buf) = share.filter(|_| skip != Some(c)) else {
                continue;
            };
            for (slot, cell) in self.layout.column_cells[c].iter().enumerate() {
                let bytes = &buf[slot * cell_len..(slot + 1) * cell_len];
                match *cell {
                    Cell::Data(i) => src.data[i] = Some(bytes),
                    Cell::Parity(p) => src.parity[p] = Some(bytes),
                }
            }
        }
        Ok(src)
    }

    /// The decoding chains of Section 4.1 for the data cells `src` lacks:
    /// repeatedly take a surviving parity equation with exactly one unknown
    /// cell, which that equation then determines. Also returns what each
    /// data cell's rebuilt bytes start as: a surviving cell itself, a cell
    /// a step recovers that step's parity (the equation's other cells are
    /// XORed in by [`ArrayCode::rebuild`]), and `None` for a cell left to
    /// the Gaussian fallback because no equation had it as its single
    /// unknown.
    fn peel<'a>(&self, src: &Survivors<'a>) -> (Vec<ChainStep>, Vec<Option<&'a [u8]>>) {
        let mut seeds = src.data.clone();
        let mut chain = Vec::new();
        loop {
            let mut progressed = false;
            for (eq_idx, (eq, parity)) in self.layout.equations.iter().zip(&src.parity).enumerate()
            {
                let Some(parity) = parity else {
                    continue;
                };
                let mut unknown = eq.iter().filter(|&&dc| seeds[dc].is_none());
                let (Some(&target), None) = (unknown.next(), unknown.next()) else {
                    continue;
                };
                seeds[target] = Some(parity);
                chain.push(ChainStep {
                    recovered_data_cell: target,
                    equation: eq_idx,
                    parity_column: self.parity_cell_at[eq_idx].0,
                });
                progressed = true;
            }
            if !progressed {
                return (chain, seeds);
            }
        }
    }

    /// Rebuild the lost data cells in `buf` (laid out by `slots`), where
    /// each cell a step of `chain` recovers already holds that step's
    /// parity: XOR the step's other cells in, one [`ENCODE_WINDOW`] of the
    /// slots' span at a time, so each step reads the runs earlier steps
    /// wrote while they are still in cache. Then solve the cells with no
    /// seed by Gaussian elimination. Returns whether that fallback
    /// ran; it needs whole-cell slots.
    fn rebuild(
        &self,
        src: &Survivors<'_>,
        chain: &[ChainStep],
        seeds: &[Option<&[u8]>],
        buf: &mut [u8],
        slots: &Slots,
    ) -> Result<bool, CodeError> {
        let span = slots.lo..slots.lo + slots.stride;
        for w in span.clone().step_by(ENCODE_WINDOW) {
            let window = w..(w + ENCODE_WINDOW).min(span.end);
            for step in chain {
                let target = step.recovered_data_cell;
                let eq = &self.layout.equations[step.equation];
                let runs = eq
                    .iter()
                    .filter(|&&dc| dc != target)
                    .map(|&dc| match src.data[dc] {
                        Some(cell) => Run::Share(&cell[window.clone()]),
                        None => Run::Scratch(slots.at(dc, window.start)),
                    });
                xor_window(buf, slots.at(target, window.start), window.len(), runs);
            }
        }
        if seeds.iter().all(Option::is_some) {
            return Ok(false);
        }
        debug_assert_eq!(span, 0..src.cell_len, "the fallback solves whole cells");
        self.gaussian_finish(src, seeds, buf, slots)?;
        Ok(true)
    }

    /// Rebuild every data cell `src` lacks over the cell-local bytes `span`
    /// (whole cells when the chains stall), into scratch that holds just
    /// those cells, each started from its chain parity. Returns the scratch
    /// and its layout.
    fn rebuild_lost(
        &self,
        src: &Survivors<'_>,
        span: Range<usize>,
    ) -> Result<(Vec<u8>, Slots), CodeError> {
        let (chain, seeds) = self.peel(src);
        let span = if seeds.iter().all(Option::is_some) {
            span
        } else {
            0..src.cell_len
        };
        let lost = src.data.iter().filter(|cell| cell.is_none()).count();
        let mut buf = Vec::with_capacity(lost * span.len());
        let mut slot = vec![usize::MAX; seeds.len()];
        let lost_seeds = seeds
            .iter()
            .enumerate()
            .filter(|&(dc, _)| src.data[dc].is_none());
        for (next, (dc, seed)) in lost_seeds.enumerate() {
            slot[dc] = next;
            match seed {
                Some(parity) => buf.extend_from_slice(&parity[span.clone()]),
                None => buf.resize(buf.len() + span.len(), 0),
            }
        }
        let slots = Slots {
            slot,
            stride: span.len(),
            lo: span.start,
        };
        self.rebuild(src, &chain, &seeds, &mut buf, &slots)?;
        Ok((buf, slots))
    }

    /// Gaussian-elimination fallback for erasure patterns where peeling
    /// stalls (every surviving equation has >= 2 unknowns): solve the cells
    /// with no seed over GF(2), reading the others from the survivors or
    /// from `buf`, and write each solution to its slot in `buf`.
    fn gaussian_finish(
        &self,
        src: &Survivors<'_>,
        seeds: &[Option<&[u8]>],
        buf: &mut [u8],
        slots: &Slots,
    ) -> Result<(), CodeError> {
        let cell_len = src.cell_len;
        let missing: Vec<usize> = (0..seeds.len()).filter(|&dc| seeds[dc].is_none()).collect();
        let unknown_index: std::collections::HashMap<usize, usize> =
            missing.iter().enumerate().map(|(i, &dc)| (dc, i)).collect();
        let mut eqs: Vec<Vec<usize>> = Vec::new();
        let mut rhs: Vec<Vec<u8>> = Vec::new();
        for (eq, parity) in self.layout.equations.iter().zip(&src.parity) {
            let Some(parity) = parity else {
                continue;
            };
            let mut unknowns = Vec::new();
            let mut value = parity.to_vec();
            for &dc in eq {
                if let Some(&idx) = unknown_index.get(&dc) {
                    unknowns.push(idx);
                } else {
                    let cell = src.data[dc].unwrap_or_else(|| &buf[slots.at(dc, 0)..][..cell_len]);
                    xor_into(&mut value, cell);
                }
            }
            if !unknowns.is_empty() {
                eqs.push(unknowns);
                rhs.push(value);
            }
        }
        let solution = solve_gf2_sparse(missing.len(), &eqs, &rhs).ok_or_else(|| {
            CodeError::DecodeFailure {
                reason: "surviving parity equations do not determine the lost data".into(),
            }
        })?;
        for (value, &dc) in solution.iter().zip(&missing) {
            buf[slots.at(dc, 0)..][..cell_len].copy_from_slice(value);
        }
        Ok(())
    }
}

/// The cells of the surviving shares a decode or repair reads, borrowed
/// from the shares.
struct Survivors<'a> {
    cell_len: usize,
    /// Data cell `i`, if a surviving share keeps it.
    data: Vec<Option<&'a [u8]>>,
    /// Parity cell `p`, if a surviving share keeps it.
    parity: Vec<Option<&'a [u8]>>,
}

/// Where lost data cells are rebuilt in a buffer: bytes
/// `lo..lo + stride` of cell `dc` sit at `slot[dc] * stride`.
#[derive(Default)]
struct Slots {
    slot: Vec<usize>,
    stride: usize,
    lo: usize,
}

impl Slots {
    /// Index in the buffer of byte `offset` of lost cell `dc`.
    fn at(&self, dc: usize, offset: usize) -> usize {
        self.slot[dc] * self.stride + offset - self.lo
    }
}

/// One source run of a decoding step: in a surviving share, or at an index
/// of the rebuild buffer.
enum Run<'a> {
    Share(&'a [u8]),
    Scratch(usize),
}

/// XOR `runs`, none of which overlaps it, into the `len`-byte run at
/// `buf[dst..]`.
fn xor_window<'a>(buf: &mut [u8], dst: usize, len: usize, runs: impl Iterator<Item = Run<'a>>) {
    let (before, rest) = buf.split_at_mut(dst);
    let (out, after) = rest.split_at_mut(len);
    for run in runs {
        let bytes = match run {
            Run::Share(bytes) => bytes,
            Run::Scratch(at) if at < dst => &before[at..at + len],
            Run::Scratch(at) => &after[at - dst - len..][..len],
        };
        xor_into(out, bytes);
    }
}

impl ErasureCode for ArrayCode {
    fn kind(&self) -> CodeKind {
        self.kind
    }

    fn n(&self) -> usize {
        self.layout.columns
    }

    fn k(&self) -> usize {
        self.layout.k
    }

    /// Input length must be a multiple of the number of data cells.
    fn data_len_unit(&self) -> usize {
        self.layout.num_data_cells()
    }

    fn encode_slices(&self, data: &[u8], shares: &mut [&mut [u8]]) -> Result<(), CodeError> {
        self.encode_parts(&[], data, data.len(), shares)
    }

    /// Encode into `n` pre-sized column slices of
    /// `(padded_len / num_data_cells) * cells_per_column` bytes without
    /// allocating or staging the input. The cells advance together one
    /// window at a time: each data cell's window is copied from the parts
    /// into its own slot (see [`Layout`](crate::Layout)), then each parity cell's
    /// window is the XOR of its equation's data runs, read back from the
    /// shares while they are still in cache.
    fn encode_parts(
        &self,
        prefix: &[u8],
        body: &[u8],
        padded_len: usize,
        shares: &mut [&mut [u8]],
    ) -> Result<(), CodeError> {
        validate_parts(prefix.len() + body.len(), padded_len, self.data_len_unit())?;
        let cell_len = padded_len / self.data_cell_at.len();
        validate_encode_cols(shares, self.n(), self.layout.cells_per_column() * cell_len)?;
        for w in (0..cell_len).step_by(ENCODE_WINDOW) {
            let len = ENCODE_WINDOW.min(cell_len - w);
            for (i, &(column, slot)) in self.data_cell_at.iter().enumerate() {
                let at = slot * cell_len + w;
                copy_parts(
                    &mut shares[column][at..at + len],
                    i * cell_len + w,
                    prefix,
                    body,
                );
            }
            for (eq, &(column, slot)) in self.layout.equations.iter().zip(&self.parity_cell_at) {
                let runs = eq.iter().map(|&dc| {
                    let (c, s) = self.data_cell_at[dc];
                    (c, s * cell_len + w)
                });
                xor_runs(shares, (column, slot * cell_len + w), runs, len);
            }
        }
        Ok(())
    }

    /// Decode surviving shares into the pre-sized `out` slice
    /// (`num_data_cells * cell_len` bytes, fully overwritten), discarding
    /// the trace. The lost cells are rebuilt in place in `out`; the Gaussian
    /// fallback (rare two-column stalls) is the only allocating path.
    fn decode_slices(&self, shares: &ShareView<'_>, out: &mut [u8]) -> Result<(), CodeError> {
        self.decode_slices_impl(shares, out).map(drop)
    }

    /// Append bytes `range` of the decoded input. Cells the range covers
    /// are appended in input order, each from its surviving share or, if
    /// lost, from scratch that holds only the lost cells, rebuilt by the
    /// decoding chains over just the cell-local bytes the range needs.
    /// When every covered cell survives there is no scratch.
    fn decode_append(
        &self,
        shares: &ShareView<'_>,
        range: Range<usize>,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        let src = self.survivors(shares, None)?;
        let cell_len = src.cell_len;
        validate_range(&range, src.data.len() * cell_len)?;
        if range.is_empty() {
            return Ok(());
        }
        let cells = range.start / cell_len..(range.end - 1) / cell_len + 1;
        let (rebuilt, slots) = if cells.clone().all(|i| src.data[i].is_some()) {
            (Vec::new(), Slots::default())
        } else if cells.len() == 1 {
            let span = range.start % cell_len..(range.end - 1) % cell_len + 1;
            self.rebuild_lost(&src, span)?
        } else {
            self.rebuild_lost(&src, 0..cell_len)?
        };
        out.reserve(range.len());
        for i in cells {
            let base = i * cell_len;
            let run = range.start.max(base) - base..range.end.min(base + cell_len) - base;
            out.extend_from_slice(match src.data[i] {
                Some(cell) => &cell[run],
                None => &rebuilt[slots.at(i, run.start)..][..run.len()],
            });
        }
        Ok(())
    }

    /// Reconstruct the single column `missing`: only the erased data cells
    /// are recovered and only the target column's parity equations are
    /// re-evaluated — no full decode, no full re-encode.
    fn repair(
        &self,
        shares: &ShareView<'_>,
        missing: usize,
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        let src = self.survivors(shares, Some(missing))?;
        let cell_len = src.cell_len;
        validate_decode_out(out.len(), self.layout.cells_per_column() * cell_len)?;
        let (rebuilt, slots) = self.rebuild_lost(&src, 0..cell_len)?;
        let cell_of = |dc: usize| -> &[u8] {
            src.data[dc].unwrap_or_else(|| &rebuilt[slots.at(dc, 0)..][..cell_len])
        };
        // Emit the target column: data cells from the survivors or the
        // rebuilt scratch, parity cells re-evaluated from their equations.
        for (cell, dst) in self.layout.column_cells[missing]
            .iter()
            .zip(out.chunks_exact_mut(cell_len.max(1)))
        {
            match *cell {
                Cell::Data(i) => dst.copy_from_slice(cell_of(i)),
                Cell::Parity(p) => {
                    dst.fill(0);
                    for &dc in &self.layout.equations[p] {
                        xor_into(dst, cell_of(dc));
                    }
                }
            }
        }
        Ok(())
    }

    /// Analytic cost model shared by all XOR array codes.
    fn cost(&self, data_len: usize) -> CodeCost {
        let d = self.layout.num_data_cells();
        let cell_len = (data_len / d).max(1) as u64;
        let encode_xor_bytes: u64 = self
            .layout
            .equations
            .iter()
            .map(|eq| (eq.len().saturating_sub(1)) as u64 * cell_len)
            .sum();
        // Worst-case decode: lose n-k full columns; cost is roughly the cost
        // of re-deriving the lost data cells plus re-encoding lost parities.
        let m = self.n() - self.k();
        let lost_cells = m * self.layout.cells_per_column();
        let avg_eq_terms = self
            .layout
            .equations
            .iter()
            .map(|eq| eq.len())
            .sum::<usize>() as f64
            / self.layout.equations.len() as f64;
        let decode_xor_bytes = (lost_cells as f64 * avg_eq_terms * cell_len as f64) as u64;
        // Update complexity: how many parities reference each data cell.
        let mut refs = vec![0usize; d];
        for eq in &self.layout.equations {
            for &dc in eq {
                refs[dc] += 1;
            }
        }
        let update = refs.iter().sum::<usize>() as f64 / d as f64;
        let total_cells = self.n() * self.layout.cells_per_column();
        CodeCost {
            data_len,
            encode_xor_bytes,
            decode_xor_bytes,
            update_parities_per_data_cell: update,
            storage_overhead: total_cells as f64 / d as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::ShareSet;

    /// A tiny hand-built (3,2) single-parity layout used to exercise the
    /// framework independently of the real codes.
    fn tiny_layout() -> ArrayLayout {
        ArrayLayout {
            columns: 3,
            k: 2,
            column_cells: vec![
                vec![Cell::Data(0)],
                vec![Cell::Data(1)],
                vec![Cell::Parity(0)],
            ],
            equations: vec![vec![0, 1]],
        }
    }

    #[test]
    fn tiny_layout_validates_and_is_mds() {
        let l = tiny_layout();
        assert!(l.validate().is_ok());
        assert!(l.find_mds_violation().is_none());
        assert_eq!(l.num_data_cells(), 2);
        assert_eq!(l.num_parity_cells(), 1);
    }

    #[test]
    fn tiny_code_recovers_each_single_erasure() {
        let code = ArrayCode::new(CodeKind::SingleParity, tiny_layout()).unwrap();
        let data = vec![1u8, 2, 3, 4, 5, 6]; // 2 cells of 3 bytes
        let mut shares = ShareSet::new();
        code.encode_into(&data, &mut shares).unwrap();
        for lost in 0..3 {
            let mut view = shares.as_view();
            view.clear(lost);
            let (out, trace) = code.decode_traced(&view).unwrap();
            assert_eq!(out, data);
            if lost < 2 {
                assert_eq!(trace.chain.len(), 1);
                assert!(!trace.used_gaussian_fallback);
            }
        }
    }

    #[test]
    fn repair_matches_encode_for_every_single_erasure() {
        let code = ArrayCode::new(CodeKind::SingleParity, tiny_layout()).unwrap();
        let data = vec![1u8, 2, 3, 4, 5, 6];
        let mut shares = ShareSet::new();
        code.encode_into(&data, &mut shares).unwrap();
        for lost in 0..3 {
            let mut view = shares.as_view();
            view.clear(lost);
            let mut out = vec![0u8; shares.share_len()];
            code.repair(&view, lost, &mut out).unwrap();
            assert_eq!(out, shares.share(lost), "repaired column {lost}");
        }
    }

    #[test]
    fn repair_rejects_bad_target_and_too_few_survivors() {
        let code = ArrayCode::new(CodeKind::SingleParity, tiny_layout()).unwrap();
        let data = vec![1u8, 2, 3, 4, 5, 6];
        let mut shares = ShareSet::new();
        code.encode_into(&data, &mut shares).unwrap();
        let mut out = vec![0u8; shares.share_len()];
        let view = ShareView::missing(3);
        assert!(matches!(
            code.repair(&view, 9, &mut out),
            Err(CodeError::BadShareIndex { .. })
        ));
        // Only one survivor for a k = 2 code.
        let mut view = ShareView::missing(3);
        view.set(1, shares.share(1));
        assert!(matches!(
            code.repair(&view, 0, &mut out),
            Err(CodeError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn encode_slices_rejects_misshapen_columns() {
        let code = ArrayCode::new(CodeKind::SingleParity, tiny_layout()).unwrap();
        let data = vec![1u8, 2, 3, 4, 5, 6];
        let mut a = vec![0u8; 3];
        let mut b = vec![0u8; 3];
        let mut short = vec![0u8; 2];
        let mut cols: Vec<&mut [u8]> = vec![&mut a, &mut b, &mut short];
        assert!(matches!(
            code.encode_slices(&data, &mut cols),
            Err(CodeError::InconsistentShareLength)
        ));
    }

    #[test]
    fn malformed_layouts_are_rejected() {
        // Duplicate data cell.
        let l = ArrayLayout {
            columns: 2,
            k: 1,
            column_cells: vec![vec![Cell::Data(0)], vec![Cell::Data(0)]],
            equations: vec![],
        };
        assert!(l.validate().is_err());

        // Empty equation.
        let l = ArrayLayout {
            columns: 2,
            k: 1,
            column_cells: vec![vec![Cell::Data(0)], vec![Cell::Parity(0)]],
            equations: vec![vec![]],
        };
        assert!(l.validate().is_err());

        // Ragged columns.
        let l = ArrayLayout {
            columns: 2,
            k: 1,
            column_cells: vec![vec![Cell::Data(0), Cell::Parity(0)], vec![Cell::Data(1)]],
            equations: vec![vec![0, 1]],
        };
        assert!(l.validate().is_err());
    }

    #[test]
    fn non_mds_layout_is_detected() {
        // Parity covers only data cell 0, so losing column 1 alongside the
        // parity column is unrecoverable... but with k=1 we only erase one
        // column at a time; instead build a k=1 layout where erasing the
        // column holding data 1 cannot be recovered.
        let l = ArrayLayout {
            columns: 3,
            k: 1,
            column_cells: vec![
                vec![Cell::Data(0)],
                vec![Cell::Data(1)],
                vec![Cell::Parity(0)],
            ],
            // Parity only protects data 0; losing columns {1,2} is fatal.
            equations: vec![vec![0]],
        };
        assert!(l.validate().is_ok());
        assert!(l.find_mds_violation().is_some());
    }

    #[test]
    fn decode_rejects_bad_share_length() {
        let code = ArrayCode::new(CodeKind::SingleParity, tiny_layout()).unwrap();
        let mut out = Vec::new();
        let mut view = ShareView::missing(3);
        view.set(0, &[1, 2]);
        // 2 bytes per column with 1 cell per column is fine; force a bad
        // length by making them inconsistent instead.
        view.set(1, &[3]);
        assert!(code.decode_into(&view, &mut out).is_err());
        view.set(1, &[3, 4]);
        assert!(code.decode_into(&view, &mut out).is_ok());
    }

    #[test]
    fn analytic_cost_counts_equation_terms() {
        let code = ArrayCode::new(CodeKind::SingleParity, tiny_layout()).unwrap();
        let cost = code.cost(200);
        // One equation with 2 terms -> 1 XOR per byte of a 100-byte cell.
        assert_eq!(cost.encode_xor_bytes, 100);
        assert!((cost.update_parities_per_data_cell - 1.0).abs() < 1e-9);
        assert!((cost.storage_overhead - 1.5).abs() < 1e-9);
    }
}
