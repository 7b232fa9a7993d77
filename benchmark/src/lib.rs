//! The repository's benchmark: four workloads through a file-backed
//! `ClusterStore`, end-to-end metrics on top, a per-layer ledger underneath.
//! See `README.md` beside this package.

pub mod driver;
pub mod gen;
pub mod interpose;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
