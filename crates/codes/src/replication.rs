//! Baseline redundancy schemes from classical RAID: mirroring and single
//! parity. The paper (Section 1.2) contrasts these "one degree of fault
//! tolerance" options with the array codes; they serve as baselines in the
//! storage and cost experiments.

use crate::array::{ArrayCode, ArrayLayout, Cell};
use crate::error::CodeError;
use crate::metrics::CodeCost;
use crate::share::ShareView;
use crate::traits::{
    locate_cell_len, validate_data_len, validate_decode_out, validate_encode_cols, CodeKind,
    ErasureCode,
};

/// RAID-1-style mirroring: every node stores a full copy of the data.
/// Tolerates `n - 1` erasures at a storage overhead of `n`.
#[derive(Debug, Clone)]
pub struct Mirroring {
    copies: usize,
}

impl Mirroring {
    /// Create a mirroring scheme with `copies >= 1` replicas.
    pub fn new(copies: usize) -> Self {
        assert!(copies >= 1, "at least one copy required");
        Mirroring { copies }
    }
}

impl ErasureCode for Mirroring {
    fn kind(&self) -> CodeKind {
        CodeKind::Mirroring
    }

    fn n(&self) -> usize {
        self.copies
    }

    fn k(&self) -> usize {
        1
    }

    fn data_len_unit(&self) -> usize {
        1
    }

    /// Every copy is the input verbatim; the first is named.
    fn locate(&self, data_len: usize, offset: usize) -> Option<(usize, usize, usize)> {
        locate_cell_len(data_len, offset, 1).map(|len| (0, offset, len - offset))
    }

    fn encode_slices(&self, data: &[u8], shares: &mut [&mut [u8]]) -> Result<(), CodeError> {
        validate_data_len(data.len(), 1)?;
        validate_encode_cols(shares, self.copies, data.len())?;
        for copy in shares.iter_mut() {
            copy.copy_from_slice(data);
        }
        Ok(())
    }

    fn decode_slices(&self, shares: &ShareView<'_>, out: &mut [u8]) -> Result<(), CodeError> {
        let share_len = shares.validate(self.copies, 1)?;
        validate_decode_out(out.len(), share_len)?;
        let survivor = shares
            .iter()
            .flatten()
            .next()
            .expect("validate guarantees at least one survivor");
        out.copy_from_slice(survivor);
        Ok(())
    }

    fn repair(
        &self,
        shares: &ShareView<'_>,
        missing: usize,
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        let share_len = shares.validate_excluding(self.copies, 1, missing)?;
        validate_decode_out(out.len(), share_len)?;
        let survivor = shares
            .iter()
            .enumerate()
            .find_map(|(i, s)| if i == missing { None } else { s })
            .expect("validate_excluding guarantees a survivor");
        out.copy_from_slice(survivor);
        Ok(())
    }

    fn cost(&self, data_len: usize) -> CodeCost {
        CodeCost {
            data_len,
            // Copying is charged as one "xor-equivalent" per byte per extra copy.
            encode_xor_bytes: (self.copies as u64 - 1) * data_len as u64,
            decode_xor_bytes: 0,
            update_parities_per_data_cell: (self.copies - 1) as f64,
            storage_overhead: self.copies as f64,
        }
    }
}

/// Constructor of the RAID-4/5-style single parity code: `n - 1` data
/// symbols plus one XOR parity, tolerating exactly one erasure.
/// `SingleParity` has no values: [`SingleParity::new`] builds an
/// [`ArrayCode`].
pub enum SingleParity {}

impl SingleParity {
    /// Create an `(n, n-1)` single-parity code with `n >= 2` symbols.
    #[expect(clippy::new_ret_no_self, reason = "the family shares one code type")]
    pub fn new(n: usize) -> ArrayCode {
        assert!(n >= 2, "single parity needs at least 2 symbols");
        let layout = ArrayLayout {
            columns: n,
            k: n - 1,
            column_cells: (0..n)
                .map(|c| {
                    if c < n - 1 {
                        vec![Cell::Data(c)]
                    } else {
                        vec![Cell::Parity(0)]
                    }
                })
                .collect(),
            equations: vec![(0..n - 1).collect()],
        };
        ArrayCode::new(CodeKind::SingleParity, layout).expect("static layout is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::ShareSet;

    /// Encode `data`, erase the shares in `erased`, and decode.
    fn roundtrip(
        code: &dyn ErasureCode,
        data: &[u8],
        erased: &[usize],
    ) -> Result<Vec<u8>, CodeError> {
        let mut shares = ShareSet::new();
        code.encode_into(data, &mut shares).unwrap();
        let mut view = shares.as_view();
        for &i in erased {
            view.clear(i);
        }
        let mut out = Vec::new();
        code.decode_into(&view, &mut out).map(|()| out)
    }

    #[test]
    fn mirroring_survives_all_but_one_loss() {
        let code = Mirroring::new(4);
        let data = b"hello RAIN".to_vec();
        assert_eq!(roundtrip(&code, &data, &[0, 1, 3]).unwrap(), data);
    }

    #[test]
    fn mirroring_fails_when_everything_is_lost() {
        let code = Mirroring::new(3);
        assert!(matches!(
            roundtrip(&code, b"gone", &[0, 1, 2]),
            Err(CodeError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn single_parity_recovers_any_single_erasure() {
        let code = SingleParity::new(5);
        assert_eq!(code.kind(), CodeKind::SingleParity);
        let data: Vec<u8> = (0..4 * 7).map(|i| i as u8).collect();
        for lost in 0..5 {
            assert_eq!(
                roundtrip(&code, &data, &[lost]).unwrap(),
                data,
                "lost column {lost}"
            );
        }
    }

    #[test]
    fn single_parity_cannot_recover_two_erasures() {
        let code = SingleParity::new(5);
        let data: Vec<u8> = (0..4 * 3).map(|i| i as u8).collect();
        assert!(roundtrip(&code, &data, &[0, 1]).is_err());
    }

    #[test]
    fn storage_overheads_match_definitions() {
        assert!((Mirroring::new(3).cost(100).storage_overhead - 3.0).abs() < 1e-9);
        let sp = SingleParity::new(5);
        assert!((sp.cost(100).storage_overhead - 5.0 / 4.0).abs() < 1e-9);
    }
}
