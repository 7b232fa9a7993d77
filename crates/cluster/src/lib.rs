//! Sharded multi-coordinator clustering for the RAIN store.
//!
//! Everything below the cluster layer — erasure coding, the node fabric,
//! grouped small-object storage, the WAL, repair — runs inside a single
//! [`rain_storage::DistributedStore`] coordinator. This crate removes that
//! last single point of coordination:
//!
//! * [`ring`] — a consistent-hash ring with virtual nodes (total, stable,
//!   minimal-movement, balanced);
//! * [`view`] — epoch-numbered [`MembershipView`]s derived from the ring;
//! * [`control`] — the [`ControlPlane`]: `rain-membership`'s token ring
//!   detects joins/crashes, `rain-election` picks the leader that alone may
//!   commit a view change;
//! * [`metalog`] — the cluster [`MetaLog`]: directory, committed view,
//!   and handover state as checksummed write-ahead records, so
//!   [`ClusterStore::recover_from_disk`] can rebuild the whole cluster
//!   after a power loss;
//! * [`store`] — the [`ClusterStore`] data plane: epoch-stamped routing
//!   over many coordinators, with two-phase **group-granularity**
//!   rebalancing (a sealed coding group moves as one unit for one symbol
//!   per node, regardless of how many objects it packs);
//! * [`scenario`] — deterministic churn scenarios driving both planes
//!   through join → rebalance → leader kill → re-election → mid-handover
//!   crash, checking every acked object at every epoch.
//!
//! The whole stack stays simulation-first: one seed determines token
//! passes, elections, transfers, and telemetry, so any run replays
//! bit-identically.

#![warn(missing_docs)]

pub mod control;
pub mod metalog;
pub mod ring;
pub mod scenario;
pub mod store;
pub mod view;

pub use control::ControlPlane;
pub use metalog::{MetaLog, MetaRecord, MetaState, MetaUnit, PendingHandover};
pub use ring::{fnv1a, HashRing, ShardId};
pub use scenario::{
    builtin_churn_specs, run_churn_scenario, run_churn_scenario_observed, ChurnReport, ChurnSpec,
};
pub use store::{
    ClusterError, ClusterRead, ClusterRecoveryReport, ClusterStats, ClusterStore, ClusterSurvivors,
};
pub use view::MembershipView;
