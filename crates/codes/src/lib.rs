//! # rain-codes — erasure codes for the RAIN storage building block
//!
//! This crate implements the error-control codes described in Section 4 of
//! *"Computing in the RAIN: A Reliable Array of Independent Nodes"*
//! (Bohossian et al., IEEE TPDS 12(2), 2001):
//!
//! * **Array codes** that encode and decode using only XOR operations:
//!   * the **B-Code** (`(n, n-2)` lowest-density MDS code, Table 1a of the
//!     paper, [`bcode`]),
//!   * the **X-Code** (`(p, p-2)` MDS code with optimal encoding, [`xcode`]),
//!   * **EVENODD** (`(p+2, p)` MDS code, [`evenodd`]);
//! * a **Reed-Solomon** baseline over GF(2^8) ([`reed_solomon`]);
//! * trivial baselines used by classical RAID: **mirroring** and
//!   **single parity** ([`replication`]).
//!
//! All XOR-based codes are one type, [`ArrayCode`]: a sparse-equation
//! layout ([`mod@array`]) with generic vectorised encoding, a peeling
//! ("decoding chain") decoder matching the description in the paper, a
//! Gaussian-elimination fallback, and exact XOR-operation accounting used
//! by the optimality experiments (E10 in `DESIGN.md`). [`BCode`], [`XCode`],
//! [`EvenOdd`] and [`SingleParity`] are its constructors, so the four
//! families share one [`ErasureCode`] implementation.
//!
//! ## The API
//!
//! Every code implements the [`ErasureCode`] trait, and every call works on
//! caller-owned buffers:
//!
//! * **Coding** — [`ErasureCode::encode_into`] writes into a reusable
//!   [`ShareSet`] (one flat backing allocation, reused across calls),
//!   [`ErasureCode::decode_into`] reads a borrowed [`ShareView`] (no share
//!   cloning) into a reusable `Vec`, and [`ErasureCode::repair`]
//!   reconstructs a **single lost share** without round-tripping through the
//!   full data block.
//! * **Placement** — [`ErasureCode::locate`] names the share, offset and
//!   run that hold an input byte verbatim, so a reader of a small range
//!   can skip the decode while the covering share is healthy.
//! * **Cost** — [`ErasureCode::cost`] is the analytic cost model and
//!   [`ErasureCode::runtime_metrics`] the counters a code keeps at runtime.
//!
//! Large blocks can be wrapped in a [`StripedCodec`], which splits the
//! input into fixed-size stripes and encodes/decodes/repairs them across
//! worker threads while producing bit-identical shares.
//!
//! Codes are selected from serializable configuration via
//! [`CodeSpec`] + [`build_code`] instead of hard-coded constructors.
//!
//! ## Quick example
//!
//! ```
//! use rain_codes::{bcode::BCode, ErasureCode, ShareSet};
//!
//! let code = BCode::new(6).unwrap();           // the paper's (6,4) code
//! let data = vec![42u8; code.data_len_unit() * 16];
//!
//! // Zero-alloc steady state: the set's backing buffer is reused.
//! let mut shares = ShareSet::new();
//! code.encode_into(&data, &mut shares).unwrap();
//! assert_eq!(shares.n(), 6);
//!
//! // lose any two symbols ...
//! let mut view = shares.as_view();
//! view.clear(0);
//! view.clear(3);
//!
//! // ... and recover the original data from the remaining four.
//! let mut recovered = Vec::new();
//! code.decode_into(&view, &mut recovered).unwrap();
//! assert_eq!(recovered, data);
//!
//! // Or re-derive just the lost share 0 (what node repair needs).
//! let mut lost = vec![0u8; shares.share_len()];
//! code.repair(&view, 0, &mut lost).unwrap();
//! assert_eq!(lost, shares.share(0));
//! ```

#![warn(missing_docs)]

pub mod array;
pub mod bcode;
pub mod error;
pub mod evenodd;
pub mod gf256;
pub mod matrix;
pub mod metrics;
pub mod reed_solomon;
pub mod replication;
pub mod share;
pub mod spec;
pub mod striped;
pub mod traits;
pub mod xcode;
pub mod xor;

pub use array::{ArrayCode, ArrayLayout, Cell, DecodeTrace};
pub use bcode::BCode;
pub use error::CodeError;
pub use evenodd::EvenOdd;
pub use metrics::{CodeCost, CodeMetrics};
pub use reed_solomon::ReedSolomon;
pub use replication::{Mirroring, SingleParity};
pub use share::{ShareSet, ShareView};
pub use spec::{build_code, CodeSpec};
pub use striped::StripedCodec;
pub use traits::{CodeKind, ErasureCode};
pub use xcode::XCode;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every code advertised by the crate round-trips with no erasures.
    #[test]
    fn all_codes_roundtrip_no_erasures() {
        let codes: Vec<Box<dyn ErasureCode>> = vec![
            Box::new(BCode::new(6).unwrap()),
            Box::new(XCode::new(5).unwrap()),
            Box::new(EvenOdd::new(5).unwrap()),
            Box::new(ReedSolomon::new(8, 6).unwrap()),
            Box::new(Mirroring::new(3)),
            Box::new(SingleParity::new(5)),
        ];
        for code in codes {
            let unit = code.data_len_unit();
            let data: Vec<u8> = (0..unit * 8).map(|i| (i * 31 % 251) as u8).collect();
            let mut shares = ShareSet::new();
            code.encode_into(&data, &mut shares).unwrap();
            assert_eq!(shares.n(), code.n());
            let mut out = Vec::new();
            code.decode_into(&shares.as_view(), &mut out).unwrap();
            assert_eq!(out, data, "roundtrip failed for {:?}", code.kind());
        }
    }
}
