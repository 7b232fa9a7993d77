//! # rain-apps — the proof-of-concept applications of the RAIN paper
//!
//! Sections 5 and 6 of *Computing in the RAIN* demonstrate the building
//! blocks (communication, group membership, erasure-coded storage) with
//! three applications and one commercial product. This crate reproduces all
//! four on top of the reproduction's building-block crates:
//!
//! * [`video`] — **RAINVideo**: videos erasure-encoded across the servers;
//!   every client keeps playing as long as it can reach any `k` servers
//!   (experiment E12);
//! * [`snow`] — **SNOW**, the Strong Network Of Web servers: the HTTP
//!   request queue rides on the membership token, so exactly one server
//!   answers each request with no external load balancer (experiment E13);
//! * [`rainwall`] — **Rainwall**: virtual-IP pools over gateway clusters,
//!   request-based load balancing that avoids the hot-potato effect, and
//!   roughly two-second fail-over (experiments E15–E17);
//! * [`checkpoint`] — **RAINCheck**: jobs checkpoint their state through the
//!   erasure-coded store and resume elsewhere when a node fails
//!   (experiment E14).
//!
//! The sharded deployment that runs the store over many coordinators, with
//! membership-driven rebalancing, is `rain_cluster::ShardedRain`.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod rainwall;
pub mod snow;
pub mod video;

pub use checkpoint::RainCheck;
pub use rainwall::{BalancePolicy, ClusterStats, Rainwall, RainwallConfig, VirtualIp};
pub use snow::{Served, SnowCluster};
pub use video::{VideoClient, VideoSystem};
