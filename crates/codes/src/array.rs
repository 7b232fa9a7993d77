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
    locate_cell_len, validate_data_len, validate_decode_out, validate_encode_cols, CodeKind,
    ErasureCode,
};
use crate::xor::xor_into;

/// XOR cell `src` into cell `dst` within one flat buffer of `cell_len`-byte
/// cells. The cells must be distinct; `split_at_mut` proves disjointness.
fn xor_cells(buf: &mut [u8], cell_len: usize, dst: usize, src: usize) {
    debug_assert_ne!(dst, src);
    if dst < src {
        let (lo, hi) = buf.split_at_mut(src * cell_len);
        xor_into(
            &mut lo[dst * cell_len..(dst + 1) * cell_len],
            &hi[..cell_len],
        );
    } else {
        let (lo, hi) = buf.split_at_mut(dst * cell_len);
        xor_into(
            &mut hi[..cell_len],
            &lo[src * cell_len..(src + 1) * cell_len],
        );
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
    parity_column_of_eq: Vec<usize>,
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
        let mut parity_column_of_eq = vec![0usize; layout.equations.len()];
        let mut data_cell_at = vec![(0usize, 0usize); layout.num_data_cells()];
        for (c, col) in layout.column_cells.iter().enumerate() {
            for (slot, cell) in col.iter().enumerate() {
                match *cell {
                    Cell::Data(i) => data_cell_at[i] = (c, slot),
                    Cell::Parity(p) => parity_column_of_eq[p] = c,
                }
            }
        }
        Ok(ArrayCode {
            kind,
            layout,
            parity_column_of_eq,
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
        let mut trace = DecodeTrace::default();
        self.decode_slices_impl(shares, &mut out, Some(&mut trace))?;
        Ok((out, trace))
    }

    /// Shared decode path: peel (recording chains into `trace` when given),
    /// then the GF(2) Gaussian fallback.
    fn decode_slices_impl(
        &self,
        shares: &ShareView<'_>,
        out: &mut [u8],
        mut trace: Option<&mut DecodeTrace>,
    ) -> Result<(), CodeError> {
        let share_len = shares.validate(self.n(), self.k())?;
        let r = self.layout.cells_per_column();
        if !share_len.is_multiple_of(r) {
            return Err(CodeError::DecodeFailure {
                reason: format!("share length {share_len} not divisible by {r} cells"),
            });
        }
        let cell_len = share_len / r;
        let d = self.layout.num_data_cells();
        validate_decode_out(out.len(), d * cell_len)?;

        // Copy known data cells into place; borrow available parity values.
        let mut known = vec![false; d];
        let mut parity_src: Vec<Option<&[u8]>> = vec![None; self.layout.equations.len()];
        for (c, share) in shares.iter().enumerate() {
            let Some(buf) = share else { continue };
            for (slot, cell) in self.layout.column_cells[c].iter().enumerate() {
                let bytes = &buf[slot * cell_len..(slot + 1) * cell_len];
                match *cell {
                    Cell::Data(i) => {
                        out[i * cell_len..(i + 1) * cell_len].copy_from_slice(bytes);
                        known[i] = true;
                    }
                    Cell::Parity(p) => parity_src[p] = Some(bytes),
                }
            }
        }
        if known.iter().all(|&is_known| is_known) {
            return Ok(());
        }

        self.peel_slices(out, &mut known, &parity_src, cell_len, &mut trace);

        // If peeling stalled, finish with Gaussian elimination over GF(2).
        let still_missing: Vec<usize> = (0..d).filter(|&i| !known[i]).collect();
        if !still_missing.is_empty() {
            if let Some(t) = trace {
                t.used_gaussian_fallback = true;
            }
            self.gaussian_finish(out, &known, &parity_src, cell_len, &still_missing)?;
        }
        Ok(())
    }

    /// Peeling decoder: repeatedly find a surviving parity equation with
    /// exactly one unknown data cell and solve it **in place** in `out`.
    /// This is the "decoding chain" procedure of Section 4.1.
    fn peel_slices(
        &self,
        out: &mut [u8],
        known: &mut [bool],
        parity_src: &[Option<&[u8]>],
        cell_len: usize,
        trace: &mut Option<&mut DecodeTrace>,
    ) {
        loop {
            let mut progressed = false;
            for (eq_idx, eq) in self.layout.equations.iter().enumerate() {
                let Some(parity) = parity_src[eq_idx] else {
                    continue;
                };
                let mut unknowns = 0;
                let mut target = usize::MAX;
                for &dc in eq {
                    if !known[dc] {
                        unknowns += 1;
                        target = dc;
                    }
                }
                if unknowns != 1 {
                    continue;
                }
                {
                    let cell = &mut out[target * cell_len..(target + 1) * cell_len];
                    cell.fill(0);
                    xor_into(cell, parity);
                }
                for &dc in eq {
                    if dc != target {
                        xor_cells(out, cell_len, target, dc);
                    }
                }
                known[target] = true;
                if let Some(t) = trace {
                    t.chain.push(ChainStep {
                        recovered_data_cell: target,
                        equation: eq_idx,
                        parity_column: self.parity_column_of_eq[eq_idx],
                    });
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Gaussian-elimination fallback for erasure patterns where peeling
    /// stalls (every surviving equation has >= 2 unknowns).
    fn gaussian_finish(
        &self,
        out: &mut [u8],
        known: &[bool],
        parity_src: &[Option<&[u8]>],
        cell_len: usize,
        missing: &[usize],
    ) -> Result<(), CodeError> {
        let unknown_index: std::collections::HashMap<usize, usize> =
            missing.iter().enumerate().map(|(i, &dc)| (dc, i)).collect();
        let mut eqs: Vec<Vec<usize>> = Vec::new();
        let mut rhs: Vec<Vec<u8>> = Vec::new();
        for (eq_idx, eq) in self.layout.equations.iter().enumerate() {
            let Some(parity) = parity_src[eq_idx] else {
                continue;
            };
            let mut unknowns = Vec::new();
            let mut value = parity.to_vec();
            for &dc in eq {
                if known[dc] {
                    xor_into(&mut value, &out[dc * cell_len..(dc + 1) * cell_len]);
                } else {
                    unknowns.push(unknown_index[&dc]);
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
        for (i, &dc) in missing.iter().enumerate() {
            out[dc * cell_len..(dc + 1) * cell_len].copy_from_slice(&solution[i]);
        }
        Ok(())
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

    /// Where data byte `offset` sits: `encode_slices` copies every data
    /// cell verbatim into one slot of one column, so the byte is at
    /// `slot * cell_len + offset % cell_len` of that column, and the run
    /// lasts to the end of the cell.
    fn locate(&self, data_len: usize, offset: usize) -> Option<(usize, usize, usize)> {
        let cell_len = locate_cell_len(data_len, offset, self.data_cell_at.len())?;
        let (column, slot) = self.data_cell_at[offset / cell_len];
        let within = offset % cell_len;
        Some((column, slot * cell_len + within, cell_len - within))
    }

    /// Encode `data` into `n` pre-sized column slices without allocating.
    /// Each slice must be `(data.len() / num_data_cells) * cells_per_column`
    /// bytes; every byte is overwritten.
    fn encode_slices(&self, data: &[u8], shares: &mut [&mut [u8]]) -> Result<(), CodeError> {
        validate_data_len(data.len(), self.data_len_unit())?;
        let d = self.layout.num_data_cells();
        let cell_len = data.len() / d;
        let r = self.layout.cells_per_column();
        validate_encode_cols(shares, self.n(), r * cell_len)?;
        for (c, col) in self.layout.column_cells.iter().enumerate() {
            for (slot, cell) in col.iter().enumerate() {
                let dst = &mut shares[c][slot * cell_len..(slot + 1) * cell_len];
                match *cell {
                    Cell::Data(i) => {
                        dst.copy_from_slice(&data[i * cell_len..(i + 1) * cell_len]);
                    }
                    Cell::Parity(p) => {
                        dst.fill(0);
                        for &dc in &self.layout.equations[p] {
                            xor_into(dst, &data[dc * cell_len..(dc + 1) * cell_len]);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Decode surviving shares into the pre-sized `out` slice
    /// (`num_data_cells * cell_len` bytes, fully overwritten), discarding
    /// the trace. No share storage is allocated; the Gaussian fallback (rare
    /// two-column stalls) is the only allocating path.
    fn decode_slices(&self, shares: &ShareView<'_>, out: &mut [u8]) -> Result<(), CodeError> {
        self.decode_slices_impl(shares, out, None)
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
        let share_len = shares.validate_excluding(self.n(), self.k(), missing)?;
        let r = self.layout.cells_per_column();
        if !share_len.is_multiple_of(r) {
            return Err(CodeError::DecodeFailure {
                reason: format!("share length {share_len} not divisible by {r} cells"),
            });
        }
        let cell_len = share_len / r;
        validate_decode_out(out.len(), share_len)?;

        // Borrow known data cells and parity values from the survivors.
        let d = self.layout.num_data_cells();
        let mut data_src: Vec<Option<&[u8]>> = vec![None; d];
        let mut parity_src: Vec<Option<&[u8]>> = vec![None; self.layout.equations.len()];
        for (c, share) in shares.iter().enumerate() {
            if c == missing {
                continue;
            }
            let Some(buf) = share else { continue };
            for (slot, cell) in self.layout.column_cells[c].iter().enumerate() {
                let bytes = &buf[slot * cell_len..(slot + 1) * cell_len];
                match *cell {
                    Cell::Data(i) => data_src[i] = Some(bytes),
                    Cell::Parity(p) => parity_src[p] = Some(bytes),
                }
            }
        }

        // Recover the erased data cells into a compact scratch buffer
        // (erased cells only — not the whole data block).
        let mut known: Vec<bool> = (0..d).map(|i| data_src[i].is_some()).collect();
        let mut rec_slot = vec![usize::MAX; d];
        let mut num_missing = 0;
        for (dc, slot) in rec_slot.iter_mut().enumerate() {
            if !known[dc] {
                *slot = num_missing;
                num_missing += 1;
            }
        }
        let mut recovered = vec![0u8; num_missing * cell_len];

        // Peel (decoding chains), then Gaussian fallback if stalled.
        loop {
            let mut progressed = false;
            for (eq_idx, eq) in self.layout.equations.iter().enumerate() {
                let Some(parity) = parity_src[eq_idx] else {
                    continue;
                };
                let mut unknowns = 0;
                let mut target = usize::MAX;
                for &dc in eq {
                    if !known[dc] {
                        unknowns += 1;
                        target = dc;
                    }
                }
                if unknowns != 1 {
                    continue;
                }
                let t = rec_slot[target];
                {
                    let cell = &mut recovered[t * cell_len..(t + 1) * cell_len];
                    cell.fill(0);
                    xor_into(cell, parity);
                }
                for &dc in eq {
                    if dc == target {
                        continue;
                    }
                    match data_src[dc] {
                        Some(src) => {
                            xor_into(&mut recovered[t * cell_len..(t + 1) * cell_len], src);
                        }
                        None => xor_cells(&mut recovered, cell_len, t, rec_slot[dc]),
                    }
                }
                known[target] = true;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        let still_missing: Vec<usize> = (0..d).filter(|&i| !known[i]).collect();
        if !still_missing.is_empty() {
            let unknown_index: std::collections::HashMap<usize, usize> = still_missing
                .iter()
                .enumerate()
                .map(|(i, &dc)| (dc, i))
                .collect();
            let mut eqs: Vec<Vec<usize>> = Vec::new();
            let mut rhs: Vec<Vec<u8>> = Vec::new();
            for (eq_idx, eq) in self.layout.equations.iter().enumerate() {
                let Some(parity) = parity_src[eq_idx] else {
                    continue;
                };
                let mut unknowns = Vec::new();
                let mut value = parity.to_vec();
                for &dc in eq {
                    if let Some(idx) = unknown_index.get(&dc) {
                        unknowns.push(*idx);
                    } else if let Some(src) = data_src[dc] {
                        xor_into(&mut value, src);
                    } else {
                        let s = rec_slot[dc];
                        xor_into(&mut value, &recovered[s * cell_len..(s + 1) * cell_len]);
                    }
                }
                if !unknowns.is_empty() {
                    eqs.push(unknowns);
                    rhs.push(value);
                }
            }
            let solution = solve_gf2_sparse(still_missing.len(), &eqs, &rhs).ok_or_else(|| {
                CodeError::DecodeFailure {
                    reason: "surviving parity equations do not determine the lost share".into(),
                }
            })?;
            for (i, &dc) in still_missing.iter().enumerate() {
                let s = rec_slot[dc];
                recovered[s * cell_len..(s + 1) * cell_len].copy_from_slice(&solution[i]);
            }
        }

        // Emit the target column: data cells from the recovered scratch,
        // parity cells re-evaluated from their equations.
        let cell_of = |dc: usize| -> &[u8] {
            match data_src[dc] {
                Some(src) => src,
                None => {
                    let s = rec_slot[dc];
                    &recovered[s * cell_len..(s + 1) * cell_len]
                }
            }
        };
        for (slot, cell) in self.layout.column_cells[missing].iter().enumerate() {
            let dst = &mut out[slot * cell_len..(slot + 1) * cell_len];
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
