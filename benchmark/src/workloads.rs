//! The four workloads. Names are normative: later issues cite them.
//!
//! A measured phase lasts `--seconds` of wall-clock time, whatever the
//! machine; what is fixed here is the data set each workload is loaded with.

use rain_codes::{CodeKind, CodeSpec};
use rain_storage::{FsyncPolicy, GroupConfig};

use crate::gen::{KeyDist, Mix};

/// Shards of the cluster and of the bare shard array.
pub const SHARDS: [usize; 3] = [0, 1, 2];
/// Ring points per shard.
pub const VNODES: usize = 48;
/// Every timing metric is the median over this many equal slices of a phase.
pub const SEGMENTS: usize = 5;
/// A traced pass measures `--seconds` divided by this.
pub const TRACE_DIVISOR: f64 = 4.0;
/// `--smoke` divides the measured time and the preloaded keys by this.
pub const SMOKE_DIVISOR: u32 = 50;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;
/// Full-cluster restarts per run; `recover_s` is their median.
pub const RECOVER_ROUNDS: usize = 5;
/// Rounds of replace + repair in the degraded workload.
pub const REPAIR_ROUNDS: usize = 3;

/// The second and third phase of `whole-4k-degraded`.
#[derive(Debug, Clone, Copy)]
pub struct Degraded {
    /// Nodes failed on every shard (n - k of them).
    pub nodes: [usize; 2],
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub object_bytes: usize,
    pub code: CodeSpec,
    pub config: GroupConfig,
    pub keyspace: u32,
    /// Keys `0..preload` are stored before the measured phase.
    pub preload: u32,
    pub dist: KeyDist,
    pub mix: Mix,
    /// `compact()` on every shard each this many ops (0 = never).
    pub compact_every: u64,
    pub degraded: Option<Degraded>,
}

fn grouped(fsync: FsyncPolicy) -> GroupConfig {
    GroupConfig::small_objects().logged().with_fsync(fsync)
}

pub fn all() -> Vec<Workload> {
    let rs_6_4 = CodeSpec::new(CodeKind::ReedSolomon, 6, 4);
    vec![
        Workload {
            name: "small-mixed",
            // 256 B grouped objects, zipf(0.99), get/overwrite/new/delete
            // 50/35/10/5: group append, WAL frame + CRC, metalog, decode cache,
            // checkpoints and compaction all work; the codec runs once per 64
            // KiB
            object_bytes: 256,
            code: CodeSpec::bcode_6_4(),
            // Issue 12 sketched EveryN(8) for logs on tmpfs. On a real disk
            // that makes three quarters of the run fsync wait and every
            // timing a reading of the device; 256 records are about a
            // millisecond of this traffic, an ordinary group-commit window.
            config: grouped(FsyncPolicy::EveryN(256))
                .with_checkpoint_every(4096)
                .with_segments(1 << 20),
            keyspace: 200_000,
            preload: 100_000,
            dist: KeyDist::Zipf(0.99),
            mix: Mix {
                get: 50,
                overwrite: 35,
                new_put: 10,
                delete: 5,
            },
            compact_every: 50_000,
            degraded: None,
        },
        Workload {
            name: "small-read-cold",
            // the same objects read uniformly, 25 MB against 3 x 256 KiB of
            // decode cache: every get decodes a 64 KiB group to return 256 B;
            // WAL, metalog and device do nothing in the measured phase
            object_bytes: 256,
            code: CodeSpec::bcode_6_4(),
            config: grouped(FsyncPolicy::EveryN(8)),
            keyspace: 100_000,
            preload: 100_000,
            dist: KeyDist::Uniform,
            mix: Mix {
                get: 100,
                overwrite: 0,
                new_put: 0,
                delete: 0,
            },
            compact_every: 0,
            degraded: None,
        },
        Workload {
            name: "large-stream",
            // 1 MiB whole objects under fsync-always, 48-key working set, 70/30
            // overwrite/get: codec, share checksumming and 6 x 256 KiB copies
            // dominate; the WAL writes about 30 B per MiB
            object_bytes: 1 << 20,
            code: CodeSpec::bcode_6_4(),
            config: grouped(FsyncPolicy::Always),
            keyspace: 48,
            preload: 48,
            dist: KeyDist::Uniform,
            mix: Mix {
                get: 30,
                overwrite: 70,
                new_put: 0,
                delete: 0,
            },
            compact_every: 0,
            degraded: None,
        },
        Workload {
            name: "whole-4k-degraded",
            // 4 KiB objects, exactly at the grouping threshold so each is coded
            // alone, RS(6,4): healthy 50/50 overwrite/get, then every get
            // reconstructs with n-k nodes down, then repair; per-call overhead
            // dominates, not bandwidth
            object_bytes: 4096,
            code: rs_6_4,
            config: grouped(FsyncPolicy::EveryN(8)),
            keyspace: 60_000,
            preload: 60_000,
            dist: KeyDist::Uniform,
            mix: Mix {
                get: 50,
                overwrite: 50,
                new_put: 0,
                delete: 0,
            },
            compact_every: 0,
            degraded: Some(Degraded { nodes: [0, 1] }),
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
