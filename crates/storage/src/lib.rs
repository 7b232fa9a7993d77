//! # rain-storage — distributed store/retrieve over MDS array codes
//!
//! Section 4.2 of *Computing in the RAIN*: a block of data is encoded with an
//! `(n, k)` MDS array code into `n` symbols, one per storage node; any `k`
//! reachable symbols reconstruct the data. The scheme provides reliability
//! (up to `n - k` node failures), dynamic reconfigurability and hot swapping
//! of nodes, and load balancing (the reader picks whichever `k` nodes are
//! least loaded or closest).
//!
//! * [`store`] — the object store: encode/place/retrieve, node failure and
//!   replacement, repair, selection policies (experiment E11);
//! * [`group`] — coding groups: small objects batched into one encoded
//!   block, so the per-call encode setup amortises across the group and a
//!   node repair costs one reconstruction per *group* instead of per
//!   object;
//! * [`wal`] — a write-ahead log protecting acked-but-unsealed grouped
//!   objects from coordinator crashes: mutations are logged before they are
//!   applied, installs (whole stores, seals) once they reached their quorum,
//!   and [`DistributedStore::recover`] replays the log after a restart.

#![warn(missing_docs)]

pub mod group;
mod metrics;
pub mod scenario;
pub mod store;
pub mod transport;
pub mod wal;

pub use group::{
    CodingGroup, CompactReport, Durability, FlushReport, GroupConfig, GroupId, GroupStats, ObjSpan,
};
pub use scenario::{
    builtin_scenarios, run_scenario, run_scenario_observed, Action, Scenario, ScenarioReport,
    SizeMix, TransportSpec, ZipfSampler,
};
pub use store::shard::{self, GroupExport};
pub use store::{
    CheckpointReport, DistributedStore, OutcomeTally, Placement, RecoveryReport, RetrieveReport,
    SelectionPolicy, StorageError, SurvivingNodes,
};
pub use transport::{
    Attempt, ChaosTransport, DirectTransport, FaultPolicy, NodeOutcome, SimNetTransport, Transport,
    TransportError, TransportOp, TransportStats,
};
pub use wal::file::{
    FaultSpec, FaultyFile, FaultyHandle, FaultySegFs, FaultySegHandle, FileLog, FsyncPolicy,
    RawLogFile, SegmentFs, SegmentedFile, StdFsFile, StdSegFs, SyncFault,
};
pub use wal::{
    name_hash, scan_frames, sort_canonical, write_frame, CheckpointState, CheckpointView,
    CrashFuse, FieldReader, FieldWriter, FrameScan, LogBackend, LogRecord, MemLog, Named,
    RecordLog, WalError, WalRecord, WriteAheadLog,
};
