//! Serializable code selection: [`CodeSpec`] + [`build_code`].
//!
//! The storage layer, checkpointing, and the applications used to hard-code
//! concrete constructors (`BCode::table_1a()`, `ReedSolomon::new(9, 6)`, …).
//! A [`CodeSpec`] is the serializable `(kind, n, k)` triple those layers can
//! carry in their configuration instead; [`build_code`] turns it back into a
//! live [`ErasureCode`] object, validating the family-specific parameter
//! constraints (primality, evenness, `k = n - 2`, …) and double-checking
//! that the constructed code advertises exactly the requested `(n, k)`.
//!
//! Round trip: `build_code(code.spec())` reproduces an equivalent code.

use std::fmt;
use std::sync::Arc;

use crate::bcode::BCode;
use crate::error::CodeError;
use crate::evenodd::EvenOdd;
use crate::reed_solomon::ReedSolomon;
use crate::replication::{Mirroring, SingleParity};
use crate::traits::{CodeKind, ErasureCode};
use crate::xcode::XCode;

/// A serializable description of an `(n, k)` erasure code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct CodeSpec {
    /// The code family.
    pub kind: CodeKind,
    /// Total number of encoded symbols.
    pub n: usize,
    /// Number of symbols sufficient for reconstruction.
    pub k: usize,
}

impl CodeSpec {
    /// Shorthand constructor.
    pub fn new(kind: CodeKind, n: usize, k: usize) -> Self {
        CodeSpec { kind, n, k }
    }

    /// The paper's running example: the `(6, 4)` B-Code of Table 1a.
    pub fn bcode_6_4() -> Self {
        CodeSpec::new(CodeKind::BCode, 6, 4)
    }
}

impl fmt::Display for CodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}({},{})", self.kind, self.n, self.k)
    }
}

/// Build a live code object from a spec.
///
/// Every family validates its own parameter constraints; on top of that,
/// the constructed code must advertise exactly the `(n, k)` the spec asked
/// for (catching e.g. an EVENODD spec whose `n != k + 2`).
pub fn build_code(spec: CodeSpec) -> Result<Arc<dyn ErasureCode>, CodeError> {
    let mismatch = |reason: String| CodeError::UnsupportedParameters { reason };
    let code: Arc<dyn ErasureCode> = match spec.kind {
        CodeKind::BCode => Arc::new(BCode::new(spec.n)?),
        CodeKind::XCode => Arc::new(XCode::new(spec.n)?),
        CodeKind::EvenOdd => Arc::new(EvenOdd::new(spec.k)?),
        CodeKind::ReedSolomon => Arc::new(ReedSolomon::new(spec.n, spec.k)?),
        CodeKind::Mirroring => {
            if spec.n < 1 || spec.k != 1 {
                return Err(mismatch(format!(
                    "mirroring requires n >= 1 and k = 1, got {spec}"
                )));
            }
            Arc::new(Mirroring::new(spec.n))
        }
        CodeKind::SingleParity => {
            if spec.n < 2 || spec.k + 1 != spec.n {
                return Err(mismatch(format!(
                    "single parity requires n >= 2 and k = n - 1, got {spec}"
                )));
            }
            Arc::new(SingleParity::new(spec.n))
        }
    };
    if code.n() != spec.n || code.k() != spec.k {
        return Err(mismatch(format!(
            "{spec} does not name a valid code in that family: \
             construction yields ({}, {})",
            code.n(),
            code.k()
        )));
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_round_trips_through_its_spec() {
        let specs = [
            CodeSpec::new(CodeKind::BCode, 6, 4),
            CodeSpec::new(CodeKind::XCode, 5, 3),
            CodeSpec::new(CodeKind::EvenOdd, 7, 5),
            CodeSpec::new(CodeKind::ReedSolomon, 9, 6),
            CodeSpec::new(CodeKind::Mirroring, 3, 1),
            CodeSpec::new(CodeKind::SingleParity, 5, 4),
        ];
        for spec in specs {
            let code = build_code(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(code.spec(), spec);
            // The built code actually works.
            let data: Vec<u8> = (0..code.data_len_unit() * 4)
                .map(|i| (i * 37 % 251) as u8)
                .collect();
            let mut shares = crate::ShareSet::new();
            code.encode_into(&data, &mut shares).unwrap();
            let mut out = Vec::new();
            code.decode_into(&shares.as_view(), &mut out).unwrap();
            assert_eq!(out, data, "{spec}");
        }
    }

    #[test]
    fn mismatched_parameters_are_rejected() {
        // (n, k) pairs that don't exist in the family.
        for bad in [
            CodeSpec::new(CodeKind::BCode, 6, 3),
            CodeSpec::new(CodeKind::XCode, 6, 4), // 6 not prime
            CodeSpec::new(CodeKind::EvenOdd, 8, 5), // n != k + 2
            CodeSpec::new(CodeKind::EvenOdd, 6, 4), // 4 not prime
            CodeSpec::new(CodeKind::ReedSolomon, 4, 4), // k must be < n
            CodeSpec::new(CodeKind::Mirroring, 3, 2), // k must be 1
            CodeSpec::new(CodeKind::SingleParity, 5, 3), // k must be n - 1
            CodeSpec::new(CodeKind::SingleParity, 1, 0),
        ] {
            assert!(build_code(bad).is_err(), "{bad} should not build");
        }
    }

    #[test]
    fn display_names_family_and_parameters() {
        let spec = CodeSpec::bcode_6_4();
        assert_eq!(spec.to_string(), "BCode(6,4)");
    }

    #[test]
    fn rejection_errors_name_the_offending_spec() {
        // Family-constraint rejections carry the family's reason...
        let err = build_code(CodeSpec::new(CodeKind::ReedSolomon, 300, 4))
            .err()
            .expect("n = 300 must be rejected");
        let msg = err.to_string();
        assert!(msg.contains("n=300"), "unhelpful error: {msg}");
        // ...and shape mismatches print the full spec, so a config typo is
        // diagnosable from the error alone.
        for (bad, needle) in [
            (CodeSpec::new(CodeKind::Mirroring, 3, 2), "Mirroring(3,2)"),
            (
                CodeSpec::new(CodeKind::SingleParity, 5, 3),
                "SingleParity(5,3)",
            ),
            (CodeSpec::new(CodeKind::EvenOdd, 9, 5), "EvenOdd(9,5)"),
        ] {
            let msg = build_code(bad)
                .err()
                .unwrap_or_else(|| panic!("{bad} must be rejected"))
                .to_string();
            assert!(msg.contains(needle), "{bad}: unhelpful error: {msg}");
        }
    }

    #[test]
    fn evenodd_spec_with_wrong_n_is_caught_by_the_shape_check() {
        // EvenOdd::new takes k and derives n = k + 2; a spec asking for a
        // different n must not silently build the wrong-shaped code.
        let bad = CodeSpec::new(CodeKind::EvenOdd, 9, 5);
        assert!(build_code(bad).is_err());
        let good = CodeSpec::new(CodeKind::EvenOdd, 7, 5);
        assert_eq!(build_code(good).unwrap().n(), 7);
    }
}
