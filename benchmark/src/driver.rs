//! The closed-loop client: one thread sends the next op only after the
//! previous one completed, times each op, checks every byte it reads against
//! the oracle, and ends every workload with a full restart from disk and a
//! read-back of every live key.
//!
//! The same code drives a [`ClusterTarget`] (the end-to-end run) and the
//! bare [`crate::interpose::ShardArray`] (the traced passes), so all passes
//! replay the same generated op stream.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rain_cluster::{ClusterStore, ShardId};
use rain_sim::{NodeId, SimDuration};
use rain_storage::{DistributedStore, FsyncPolicy, SelectionPolicy};

use crate::gen::{Mix, Op, OpGen, OpKind, PayloadPool};
use crate::stats;
use crate::trace::{self, Name, Totals};
use crate::workloads::{Workload, REPAIR_ROUNDS, SEGMENTS, SHARDS, VNODES};

/// What the benchmark drives: the cluster, or the bare shard array.
pub trait Target: Sized {
    fn put(&mut self, key: &str, data: &[u8]) -> Result<(), String>;
    fn get(&mut self, key: &str) -> Result<Vec<u8>, String>;
    fn del(&mut self, key: &str) -> Result<(), String>;
    /// Admin access to one shard: compaction, node failure, repair, stats.
    fn shard(&mut self, s: ShardId) -> &mut DistributedStore;
    /// Lose all coordinator memory and rebuild from the logs on disk, under
    /// `w`'s configuration.
    fn restart(self, w: &Workload) -> Result<(Self, Restart), String>;
    /// Advance the virtual clock that interval fsync policies run on.
    fn advance_time(&mut self, by: SimDuration);
    /// Whether this target records spans (the driver then wraps the admin
    /// calls it makes itself).
    fn traced(&self) -> bool {
        false
    }
}

/// One restart from disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct Restart {
    pub seconds: f64,
    /// Cluster metalog records replayed (0 for the shard array).
    pub meta_records: u64,
    /// Shard WAL records replayed, all shards.
    pub shard_records: u64,
    pub adopted: u64,
    pub directory_dropped: u64,
}

/// A file-backed `ClusterStore` under a static view.
pub struct ClusterTarget {
    cluster: ClusterStore,
    dir: PathBuf,
    epoch: u64,
}

impl ClusterTarget {
    pub fn build(w: &Workload, dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let cluster = ClusterStore::with_wal_dir(w.code, w.config, &SHARDS, VNODES, dir)
            .map_err(|e| e.to_string())?;
        Ok(ClusterTarget {
            epoch: cluster.epoch(),
            cluster,
            dir: dir.to_path_buf(),
        })
    }
}

impl Target for ClusterTarget {
    fn put(&mut self, key: &str, data: &[u8]) -> Result<(), String> {
        self.cluster
            .store(key, data, self.epoch)
            .map_err(|e| e.to_string())
    }

    fn get(&mut self, key: &str) -> Result<Vec<u8>, String> {
        self.cluster
            .retrieve(key, SelectionPolicy::FirstK, self.epoch)
            .map(|r| r.bytes)
            .map_err(|e| e.to_string())
    }

    fn del(&mut self, key: &str) -> Result<(), String> {
        self.cluster
            .delete(key, self.epoch)
            .map_err(|e| e.to_string())
    }

    fn shard(&mut self, s: ShardId) -> &mut DistributedStore {
        self.cluster.shard_mut(s).expect("static view")
    }

    fn restart(self, w: &Workload) -> Result<(Self, Restart), String> {
        let ClusterTarget { cluster, dir, .. } = self;
        let survivors = cluster.crash();
        let t0 = Instant::now();
        let (cluster, report) = ClusterStore::recover_from_disk(w.code, w.config, &dir, survivors)
            .map_err(|e| e.to_string())?;
        let seconds = t0.elapsed().as_secs_f64();
        let restart = Restart {
            seconds,
            meta_records: report.meta_records_replayed as u64,
            shard_records: report
                .shard_reports
                .values()
                .map(|r| r.records_replayed as u64)
                .sum(),
            adopted: report.adopted,
            directory_dropped: report.directory_dropped,
        };
        let target = ClusterTarget {
            epoch: cluster.epoch(),
            cluster,
            dir,
        };
        Ok((target, restart))
    }

    fn advance_time(&mut self, by: SimDuration) {
        self.cluster.advance_time(by);
    }
}

/// Ops attempted and failed, over every phase of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// The oracle: what a get of `(key, version)` must return.
pub struct Oracle<'a> {
    pub pool: &'a PayloadPool,
    pub object_bytes: usize,
}

impl Oracle<'_> {
    pub fn expect(&self, key: u32, version: u32) -> &[u8] {
        self.pool.slice(key, version, self.object_bytes)
    }

    pub fn matches(&self, key: u32, version: u32, got: &[u8]) -> bool {
        got == self.expect(key, version)
    }
}

fn key_name(buf: &mut String, key: u32) {
    buf.clear();
    write!(buf, "k{key:07}").expect("write to String");
}

/// Latencies of one op kind over a phase, one value per segment.
#[derive(Debug, Clone, Default)]
pub struct KindStats {
    pub count: u64,
    pub ns: u64,
    pub seg_samples: Vec<usize>,
    pub seg_p50_us: Vec<f64>,
    pub seg_tail_us: Vec<f64>,
    /// The percentile `seg_tail_us` holds: p99, or the highest one the
    /// smallest segment supports when that is lower.
    pub tail_label: &'static str,
}

impl KindStats {
    pub fn p50_us(&self) -> Option<f64> {
        (!self.seg_p50_us.is_empty()).then(|| stats::median(&self.seg_p50_us))
    }

    pub fn tail_us(&self) -> Option<f64> {
        (!self.seg_tail_us.is_empty()).then(|| stats::median(&self.seg_tail_us))
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// One phase of a run.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Indexed by `OpKind as usize`.
    pub kinds: [KindStats; 3],
    pub ops: u64,
    /// Summed client-side op time.
    pub op_ns: u64,
    /// Time in `compact()` calls the driver made between ops.
    pub maint_ns: u64,
    /// On-CPU time of the client thread over the phase, the benchmark's own
    /// generator and verification included.
    pub cpu_ns: u64,
    pub put_bytes: u64,
    pub get_bytes: u64,
    pub compactions: u64,
    pub compact_bytes_reclaimed: u64,
    pub wall_s: f64,
    pub seg_ops_per_s: Vec<f64>,
    pub seg_mb_per_s: Vec<f64>,
    pub seg_cpu_us_per_op: Vec<f64>,
}

impl PhaseStats {
    pub fn kind(&self, k: OpKind) -> &KindStats {
        &self.kinds[k as usize]
    }
}

/// How long a phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until this much wall-clock time has passed: the length of a run does
    /// not depend on how fast the machine or its disk is.
    Seconds(f64),
    /// Exactly this many ops: set-up, the replays of the traced passes, and
    /// `--ops`, where counts must repeat exactly.
    Ops(u64),
}

impl Budget {
    pub fn scaled(self, by: f64) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s * by),
            Budget::Ops(n) => Budget::Ops(((n as f64 * by) as u64).max(SEGMENTS as u64)),
        }
    }
}

/// Send ops from `next` to the target until `budget` is spent, in
/// [`SEGMENTS`] equal slices of it. Verification, op generation and key
/// formatting happen outside the op timer.
pub fn run_phase<T: Target>(
    target: &mut T,
    oracle: &Oracle<'_>,
    tally: &mut Tally,
    budget: Budget,
    compact_every: u64,
    mut next: impl FnMut() -> Op,
) -> PhaseStats {
    let mut phase = PhaseStats::default();
    let mut key = String::new();
    // Per kind, one latency vector per segment.
    let mut lat: [Vec<Vec<u32>>; 3] = Default::default();
    let traced = target.traced();
    let wall = Instant::now();
    let mut done = 0u64;
    for seg in 1..=SEGMENTS {
        let (mut seg_ops, mut seg_ns, mut seg_bytes) = (0u64, 0u64, 0u64);
        for l in &mut lat {
            l.push(Vec::new());
        }
        let cpu0 = stats::cpu_ns();
        loop {
            let spent = match budget {
                Budget::Ops(n) => done >= n * seg as u64 / SEGMENTS as u64,
                Budget::Seconds(s) => {
                    wall.elapsed().as_secs_f64() >= s * seg as f64 / SEGMENTS as f64
                }
            };
            if spent {
                break;
            }
            let op = next();
            key_name(&mut key, op.key);
            tally.attempted += 1;
            let (ns, ok) = match op.kind {
                OpKind::Put => {
                    let data = oracle.expect(op.key, op.version);
                    let t0 = Instant::now();
                    let r = target.put(&key, data);
                    let ns = t0.elapsed().as_nanos() as u64;
                    phase.put_bytes += data.len() as u64;
                    seg_bytes += data.len() as u64;
                    (ns, r.is_ok())
                }
                OpKind::Get => {
                    let t0 = Instant::now();
                    let r = target.get(&key);
                    let ns = t0.elapsed().as_nanos() as u64;
                    let ok = match &r {
                        Ok(bytes) => {
                            phase.get_bytes += bytes.len() as u64;
                            seg_bytes += bytes.len() as u64;
                            oracle.matches(op.key, op.version, bytes)
                        }
                        Err(_) => false,
                    };
                    (ns, ok)
                }
                OpKind::Del => {
                    let t0 = Instant::now();
                    let r = target.del(&key);
                    (t0.elapsed().as_nanos() as u64, r.is_ok())
                }
            };
            if !ok {
                tally.failed += 1;
            }
            let k = &mut phase.kinds[op.kind as usize];
            k.count += 1;
            k.ns += ns;
            lat[op.kind as usize][seg - 1].push(ns.min(u32::MAX as u64) as u32);
            seg_ns += ns;
            seg_ops += 1;
            done += 1;
            if compact_every > 0 && done.is_multiple_of(compact_every) {
                let t0 = Instant::now();
                for s in SHARDS {
                    let shard = target.shard(s);
                    match trace::span_if(traced, Name::StorageCompact, 0, || shard.compact()) {
                        Ok(report) => {
                            phase.compact_bytes_reclaimed += report.bytes_reclaimed as u64
                        }
                        Err(_) => tally.failed += 1,
                    }
                    phase.compactions += 1;
                }
                let ns = t0.elapsed().as_nanos() as u64;
                phase.maint_ns += ns;
                seg_ns += ns;
            }
        }
        let cpu_ns = stats::cpu_ns() - cpu0;
        phase.cpu_ns += cpu_ns;
        if seg_ops > 0 && seg_ns > 0 {
            phase
                .seg_ops_per_s
                .push(seg_ops as f64 / (seg_ns as f64 / 1e9));
            phase
                .seg_mb_per_s
                .push(seg_bytes as f64 / 1e6 / (seg_ns as f64 / 1e9));
            phase
                .seg_cpu_us_per_op
                .push(cpu_ns as f64 / 1e3 / seg_ops as f64);
        }
    }
    for (stats, segments) in phase.kinds.iter_mut().zip(&mut lat) {
        // One percentile for the whole phase: the highest the pooled sample
        // supports, p99 at most. The value reported is the median of the
        // per-segment quantiles, so one disturbed segment cannot move it.
        let pooled = segments.iter().map(Vec::len).sum();
        let Some((label, q)) = stats::highest_supported(pooled, 0.99) else {
            continue;
        };
        stats.tail_label = label;
        for samples in segments.iter_mut().filter(|s| !s.is_empty()) {
            samples.sort_unstable();
            stats.seg_samples.push(samples.len());
            stats.seg_p50_us.push(stats::quantile(samples, 0.5) / 1e3);
            stats.seg_tail_us.push(stats::quantile(samples, q) / 1e3);
        }
    }
    phase.ops = done;
    phase.op_ns = phase.kinds.iter().map(|k| k.ns).sum();
    phase.wall_s = wall.elapsed().as_secs_f64();
    phase
}

/// Grouping-layer gauges summed over the shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupTotals {
    pub sealed_groups: u64,
    pub live_bytes: u64,
    pub packed_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub checkpoints: u64,
}

pub fn group_totals<T: Target>(target: &mut T) -> GroupTotals {
    let mut g = GroupTotals::default();
    for s in SHARDS {
        let st = target.shard(s).group_stats();
        g.sealed_groups += st.sealed_groups as u64;
        g.live_bytes += st.live_bytes as u64;
        g.packed_bytes += st.packed_bytes as u64;
        g.cache_hits += st.decode_cache_hits;
        g.cache_misses += st.decode_cache_misses;
        g.checkpoints += st.wal_checkpoints;
    }
    g
}

/// Phase 3 of the degraded workload.
#[derive(Debug, Clone, Default)]
pub struct RepairStats {
    pub round_s: Vec<f64>,
    pub symbols_per_round: u64,
}

/// How much of a workload one pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub seed: u64,
    /// The main phase.
    pub budget: Budget,
    /// The gets with nodes down, where the workload has that phase.
    pub degraded_budget: Budget,
    /// Preloaded keys (and the key space) are divided by this (`--smoke`).
    pub preload_divisor: u32,
    pub setup_rounds: usize,
    pub recover_rounds: usize,
}

/// Everything one pass over a workload measured.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    pub setup_s: Vec<f64>,
    pub preload: PhaseStats,
    /// Bytes under the log directory after set-up, flushed and synced.
    pub setup_log_bytes: u64,
    pub setup_live_bytes: u64,
    /// Restarts from the state set-up left: the same on every run of a
    /// seed, however fast the measured phase goes.
    pub restarts: Vec<Restart>,
    /// `VmHWM` after set-up and those restarts, for the same reason.
    pub setup_peak_rss_mb: f64,
    pub main: PhaseStats,
    pub degraded: Option<PhaseStats>,
    pub repair: Option<RepairStats>,
    /// The restart that ends the run, from whatever the measured phases
    /// wrote; every live key is read back after it.
    pub final_restart: Restart,
    pub tally: Tally,
    pub digest: u64,
    pub live_keys: u64,
    pub log_bytes: u64,
    pub meta_bytes: u64,
    pub groups_before: GroupTotals,
    pub groups_after: GroupTotals,
    /// Span totals of the main and degraded phases (traced targets only).
    pub measured_spans: Option<Totals>,
    /// Span totals of the repair rounds (traced targets only).
    pub repair_spans: Option<Totals>,
    /// Every measured span, for `--trace-out`.
    pub spans: Vec<trace::Span>,
}

const ALL_GETS: Mix = Mix {
    get: 100,
    overwrite: 0,
    new_put: 0,
    delete: 0,
};

/// Seal open groups and sync every shard's log: afterwards no acked write
/// sits in an un-fsynced tail, so the oracle is exact across a restart.
fn make_durable<T: Target>(target: &mut T) -> Result<(), String> {
    for s in SHARDS {
        let shard = target.shard(s);
        shard.flush().map_err(|e| e.to_string())?;
        shard.sync_wal().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Run one pass: set up, restart from the set-up state, main phase, the
/// degraded phases where the workload has them, then flush + sync, restart
/// from disk and read back every live key.
pub fn run_pass<T: Target>(
    w: &Workload,
    scale: Scale,
    root: &Path,
    build: impl Fn(&Workload, &Path) -> Result<T, String>,
) -> Result<PassResult, String> {
    let pool = PayloadPool::new(scale.seed);
    let oracle = Oracle {
        pool: &pool,
        object_bytes: w.object_bytes,
    };
    let mut result = PassResult::default();
    let keyspace = (w.keyspace / scale.preload_divisor).max(w.keyspace.min(16));
    let preload = (w.preload / scale.preload_divisor).clamp(1, keyspace);

    // Set up several times; the last one is measured on. The data set is
    // bulk-loaded: the log is written and synced once at the end of the load
    // (an interval policy whose clock only the `advance_time` below moves),
    // because the device's fsync latency drifts by tens of percent within
    // minutes and the load is not what a workload measures. Set-up ends with
    // a restart under the workload's own fsync policy.
    let load_interval = SimDuration(1_000_000);
    let mut bulk = w.clone();
    bulk.config = w.config.with_fsync(FsyncPolicy::EveryT(load_interval));
    let mut built = None;
    for round in 0..scale.setup_rounds {
        let dir = root.join(format!("{}-{round}", w.name));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tally = Tally::default();
        let t0 = Instant::now();
        let mut target = build(&bulk, &dir)?;
        let mut gen = OpGen::new(scale.seed, w.dist, keyspace, w.mix);
        let mut next_key = 0u32;
        let load = Budget::Ops(preload as u64);
        let stats = run_phase(&mut target, &oracle, &mut tally, load, 0, || {
            next_key += 1;
            gen.preload(next_key - 1)
        });
        target.advance_time(load_interval);
        make_durable(&mut target)?;
        let (target, _) = target.restart(w)?;
        result.setup_s.push(t0.elapsed().as_secs_f64());
        result.preload = stats;
        result.tally = tally;
        if round + 1 < scale.setup_rounds {
            drop(target);
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        } else {
            built = Some((target, gen, dir));
        }
    }
    let (mut target, mut gen, dir) = built.expect("at least one set-up round");
    let traced = target.traced();

    result.setup_log_bytes = stats::path_bytes(&dir);
    result.setup_live_bytes = preload as u64 * w.object_bytes as u64;
    for _ in 0..scale.recover_rounds {
        let (restarted, info) = target.restart(w)?;
        target = restarted;
        result.restarts.push(info);
    }
    result.setup_peak_rss_mb = stats::peak_rss_mb();
    if traced {
        trace::drain();
    }

    result.groups_before = group_totals(&mut target);
    result.main = run_phase(
        &mut target,
        &oracle,
        &mut result.tally,
        scale.budget,
        w.compact_every,
        || gen.next_op(),
    );

    if let Some(d) = w.degraded {
        for s in SHARDS {
            for node in d.nodes {
                target
                    .shard(s)
                    .fail_node(NodeId(node))
                    .map_err(|e| e.to_string())?;
            }
        }
        gen.set_mix(ALL_GETS);
        result.degraded = Some(run_phase(
            &mut target,
            &oracle,
            &mut result.tally,
            scale.degraded_budget,
            0,
            || gen.next_op(),
        ));
    }
    result.groups_after = group_totals(&mut target);
    if traced {
        result.spans = trace::drain();
        result.measured_spans = Some(trace::aggregate(&result.spans));
    }

    if let Some(d) = w.degraded {
        let mut repair = RepairStats::default();
        for _ in 0..REPAIR_ROUNDS {
            let mut symbols = 0u64;
            let t0 = Instant::now();
            for s in SHARDS {
                for node in d.nodes {
                    let shard = target.shard(s);
                    shard
                        .replace_node(NodeId(node))
                        .map_err(|e| e.to_string())?;
                    let n = trace::span_if(traced, Name::StorageRepair, 0, || {
                        shard.repair_node(NodeId(node))
                    })
                    .map_err(|e| e.to_string())?;
                    symbols += n as u64;
                }
            }
            repair.round_s.push(t0.elapsed().as_secs_f64());
            repair.symbols_per_round = symbols;
        }
        result.repair = Some(repair);
        if traced {
            let spans = trace::drain();
            result.repair_spans = Some(trace::aggregate(&spans));
            // Parents index the batch a span was drained in.
            let base = result.spans.len() as u32;
            result.spans.extend(spans.into_iter().map(|mut s| {
                if s.parent != trace::NO_PARENT {
                    s.parent += base;
                }
                s
            }));
        }
    }

    make_durable(&mut target)?;
    result.log_bytes = stats::path_bytes(&dir);
    result.meta_bytes = stats::path_bytes(&dir.join("cluster.meta.d"))
        + stats::path_bytes(&dir.join("cluster.meta"));
    result.live_keys = gen.live().count() as u64;
    result.digest = gen.digest();
    let (mut target, info) = target.restart(w)?;
    result.final_restart = info;

    let mut key = String::new();
    for (k, version) in gen.live() {
        key_name(&mut key, k);
        result.tally.attempted += 1;
        match target.get(&key) {
            Ok(bytes) if oracle.matches(k, version, &bytes) => {}
            _ => result.tally.failed += 1,
        }
    }
    drop(target);
    if traced {
        trace::drain();
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(result)
}
