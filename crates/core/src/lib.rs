//! # rain-core — the RAIN reproduction's umbrella crate
//!
//! *Computing in the RAIN: A Reliable Array of Independent Nodes* (Bohossian
//! et al., IEEE TPDS 2001) identifies three building blocks for reliable
//! distributed systems built from off-the-shelf parts — fault-tolerant
//! communication, group membership, and erasure-coded storage — and layers
//! proof-of-concept applications on top. This crate is the front door of the
//! reproduction: it re-exports every building-block crate and provides the
//! [`RainCluster`] façade that wires them together the way the paper's
//! software-architecture figure does.
//!
//! ```
//! use rain_core::{RainCluster, RainConfig};
//! use rain_core::codes::CodeSpec;
//! use rain_core::sim::SimDuration;
//!
//! let mut cluster = RainCluster::new(RainConfig {
//!     nodes: 4,
//!     code: CodeSpec::bcode_6_4(),
//!     ..RainConfig::default()
//! }).unwrap();
//! cluster.run_for(SimDuration::from_secs(1));
//! cluster.put("hello", b"stored with the (6,4) B-Code").unwrap();
//! assert_eq!(cluster.get("hello").unwrap(), b"stored with the (6,4) B-Code");
//! ```

#![warn(missing_docs)]

pub mod cluster;

pub use cluster::{RainCluster, RainConfig};

/// Re-export: RAINVideo, SNOW, and Rainwall (Sections 5–6).
pub use rain_apps as apps;
/// Re-export: RAINCheck distributed checkpointing (Section 5.3).
pub use rain_checkpoint as checkpoint;
/// Re-export: MDS array codes (Section 4.1).
pub use rain_codes as codes;
/// Re-export: leader election (Section 5.3 / the paper's reference 29).
pub use rain_election as election;
/// Re-export: consistent-history link monitoring (Sections 2.2–2.4).
pub use rain_link as link;
/// Re-export: token-based group membership (Section 3).
pub use rain_membership as membership;
/// Re-export: reliable datagrams over bundled interfaces (Section 2.5).
pub use rain_rudp as rudp;
/// Re-export: deterministic cluster simulator substrate.
pub use rain_sim as sim;
/// Re-export: distributed store/retrieve and the file layer (Section 4.2).
pub use rain_storage as storage;
/// Re-export: fault-tolerant interconnect topologies (Section 2.1).
pub use rain_topology as topology;
