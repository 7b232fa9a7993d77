//! Error type shared by every code in the crate.

use std::fmt;

/// Errors returned by encode/decode operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// The requested code parameters are not supported (e.g. `n` odd for the
    /// B-Code, or `p` not prime for EVENODD / X-Code).
    UnsupportedParameters {
        /// Human-readable explanation of the constraint that was violated.
        reason: String,
    },
    /// The input data length is not a multiple of the code's data unit.
    BadDataLength {
        /// Length the caller provided.
        got: usize,
        /// Required multiple.
        unit: usize,
    },
    /// The share vector passed to `decode` has the wrong number of entries.
    BadShareCount {
        /// Number of entries provided.
        got: usize,
        /// Number of symbols the code produces (`n`).
        expected: usize,
    },
    /// Shares have inconsistent lengths.
    InconsistentShareLength,
    /// A caller-provided output buffer has the wrong length.
    BadOutputLength {
        /// Length of the buffer the caller provided.
        got: usize,
        /// Exact length required.
        expected: usize,
    },
    /// A share index outside `0..n` was passed (e.g. as a repair target).
    BadShareIndex {
        /// The index the caller provided.
        got: usize,
        /// Number of shares the code produces.
        n: usize,
    },
    /// Not enough surviving shares to reconstruct the data.
    TooManyErasures {
        /// Number of shares still available.
        available: usize,
        /// Minimum number of shares needed (`k`).
        needed: usize,
    },
    /// A decode was asked for bytes outside its input.
    BadRange {
        /// First byte asked for.
        start: usize,
        /// One past the last byte asked for.
        end: usize,
        /// Length of the decoded input.
        len: usize,
    },
    /// The surviving shares are sufficient in number but the decoder could
    /// not solve for the missing data (should not happen for MDS codes).
    DecodeFailure {
        /// Explanation of where decoding stalled.
        reason: String,
    },
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::UnsupportedParameters { reason } => {
                write!(f, "unsupported code parameters: {reason}")
            }
            CodeError::BadDataLength { got, unit } => write!(
                f,
                "data length {got} is not a positive multiple of the code unit {unit}"
            ),
            CodeError::BadShareCount { got, expected } => {
                write!(f, "expected {expected} shares, got {got}")
            }
            CodeError::InconsistentShareLength => {
                write!(f, "shares have inconsistent lengths")
            }
            CodeError::BadOutputLength { got, expected } => {
                write!(
                    f,
                    "output buffer is {got} bytes, exactly {expected} required"
                )
            }
            CodeError::BadShareIndex { got, n } => {
                write!(f, "share index {got} out of range for {n} shares")
            }
            CodeError::TooManyErasures { available, needed } => write!(
                f,
                "only {available} shares available but {needed} are needed"
            ),
            CodeError::BadRange { start, end, len } => {
                write!(f, "range {start}..{end} is outside the {len}-byte input")
            }
            CodeError::DecodeFailure { reason } => write!(f, "decode failure: {reason}"),
        }
    }
}

impl std::error::Error for CodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CodeError::TooManyErasures {
            available: 3,
            needed: 4,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('4'));

        let e = CodeError::BadDataLength { got: 7, unit: 12 };
        assert!(e.to_string().contains("12"));
    }
}
