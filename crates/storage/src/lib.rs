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
//! * [`fs`] — a flat-namespace, block-oriented file layer on top of it (the
//!   paper's future-work distributed file system), including whole-namespace
//!   re-encoding onto a different code;
//! * [`wal`] — a write-ahead log protecting acked-but-unsealed grouped
//!   objects from coordinator crashes: mutations are logged before they are
//!   applied, and [`DistributedStore::recover`] replays the log after a
//!   restart.

#![warn(missing_docs)]

pub mod fs;
pub mod group;
mod metrics;
pub mod scenario;
pub mod store;
pub mod transport;
pub mod wal;

pub use fs::{FileMeta, RainFs};
pub use group::{
    CompactReport, Durability, FlushReport, GroupConfig, GroupId, GroupStats, ObjSpan,
};
pub use scenario::{
    builtin_scenarios, run_scenario, run_scenario_observed, Action, Scenario, ScenarioReport,
    SizeMix, TransportSpec, ZipfSampler,
};
pub use store::shard::{self, GroupExport};
pub use store::{
    CheckpointReport, DistributedStore, OutcomeTally, RecoveryReport, RetrieveReport,
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
    scan_frames, write_frame, CheckpointPlacement, CheckpointState, CrashFuse, FieldReader,
    FieldWriter, FrameScan, GroupSnapshot, LogBackend, LogRecord, MemLog, RecordLog, WalError,
    WalRecord, WriteAheadLog,
};
