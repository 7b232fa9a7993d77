//! RAINCheck: distributed checkpoint / rollback-recovery.
//!
//! Section 5.3 of *Computing in the RAIN*: jobs run on the cluster's nodes
//! under the direction of a leader (elected with `rain-election`); each job
//! periodically checkpoints its state, the checkpoint is erasure-encoded and
//! written to all accessible nodes with a distributed store operation, and
//! when a node fails the leader reassigns its jobs to other nodes, which
//! resume from the most recent checkpoint decoded from any `k` surviving
//! nodes. As long as a connected component of at least `k` nodes survives,
//! every job runs to completion; the work lost per failure is bounded by the
//! checkpoint interval.
//!
//! Job state here is a running digest of the executed steps, so the tests
//! can verify that recovery is *correct* (the final state equals the state
//! of an uninterrupted run), not merely that progress counters reach the end.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rain_codes::{build_code, CodeSpec, ErasureCode};
use rain_obs::Registry;
use rain_sim::NodeId;
use rain_storage::{
    DistributedStore, FlushReport, GroupConfig, OutcomeTally, RecoveryReport, SelectionPolicy,
    StorageError, SurvivingNodes, WriteAheadLog,
};

/// A synthetic deterministic workload: the state after `s` steps is a chain
/// of mixes of the step counter, so it can only be obtained by executing (or
/// restoring) every step in order.
fn mix(state: u64, step: u64) -> u64 {
    let mut z = state ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reference state of a job after `steps` steps (what an uninterrupted run
/// produces).
pub fn reference_state(job_seed: u64, steps: u64) -> u64 {
    (1..=steps).fold(job_seed, mix)
}

/// What a job *is* (identity and workload), as opposed to where it has got
/// to: the input [`RainCheck::recover`] needs to resubmit the job table
/// after a coordinator crash. Progress comes back from the recovered
/// checkpoints, not from this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Job identifier.
    pub id: u64,
    /// Seed of the synthetic workload.
    pub seed: u64,
    /// Total steps the job must execute.
    pub total_steps: u64,
}

/// One job managed by RAINCheck.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Job {
    /// Job identifier.
    pub id: u64,
    /// Seed of the synthetic workload.
    pub seed: u64,
    /// Total steps the job must execute.
    pub total_steps: u64,
    /// Steps executed so far.
    pub progress: u64,
    /// Current state digest.
    pub state: u64,
    /// Node currently executing the job (None once finished).
    pub assigned_to: Option<NodeId>,
}

impl Job {
    fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.progress.to_le_bytes());
        out.extend_from_slice(&self.state.to_le_bytes());
        out
    }

    fn restore(&mut self, bytes: &[u8]) {
        self.progress = u64::from_le_bytes(bytes[..8].try_into().expect("checkpoint frame"));
        self.state = u64::from_le_bytes(bytes[8..16].try_into().expect("checkpoint frame"));
    }

    /// True once the job has executed all of its steps.
    pub fn finished(&self) -> bool {
        self.progress >= self.total_steps
    }
}

/// Summary of a RAINCheck run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunReport {
    /// True if every job finished.
    pub all_finished: bool,
    /// Total steps of work re-executed because of rollbacks.
    pub lost_work: u64,
    /// Number of job reassignments performed by the leader.
    pub reassignments: u64,
    /// Number of checkpoints written.
    pub checkpoints_written: u64,
    /// Steps of wall-clock (scheduler rounds) consumed.
    pub rounds: u64,
}

/// Errors surfaced by the checkpointing system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Fewer than `k` nodes survive, so checkpoints can be neither written
    /// nor read; the affected jobs cannot make durable progress.
    InsufficientNodes(StorageError),
    /// The configured [`CodeSpec`] does not name a valid code.
    BadCodeSpec(StorageError),
    /// Replaying the write-ahead log could not rebuild the store — a
    /// corrupt log, or a code/config mismatch with what the log was
    /// written under. Distinct from [`CheckpointError::InsufficientNodes`]
    /// so operators are not sent chasing node liveness for a
    /// configuration problem.
    RecoveryFailed(StorageError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::InsufficientNodes(e) => write!(f, "insufficient nodes: {e}"),
            CheckpointError::BadCodeSpec(e) => write!(f, "bad code spec: {e}"),
            CheckpointError::RecoveryFailed(e) => {
                write!(f, "coordinator recovery failed: {e}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The RAINCheck system: a leader assigning jobs to nodes, periodic
/// erasure-coded checkpoints, and rollback-recovery on node failure.
pub struct RainCheck {
    store: DistributedStore,
    nodes_up: Vec<bool>,
    jobs: BTreeMap<u64, Job>,
    checkpoint_interval: u64,
    lost_work: u64,
    reassignments: u64,
    checkpoints_written: u64,
    registry: Registry,
}

impl RainCheck {
    /// Create a system over `code.n()` nodes that checkpoints every
    /// `checkpoint_interval` steps.
    ///
    /// Checkpoints are a few bytes each, so the store batches them into
    /// coding groups: all checkpoints of one scheduler round share a single
    /// group encode (a group commit), sealed at the end of
    /// [`RainCheck::round`], instead of paying the full encode setup per
    /// job.
    ///
    /// The store runs with a durable group-commit log
    /// ([`rain_storage::Durability::Logged`]): checkpoints acked inside a
    /// round survive a *coordinator* crash too — see
    /// [`RainCheck::crash_coordinator`] and [`RainCheck::recover`].
    pub fn new(code: Arc<dyn ErasureCode>, checkpoint_interval: u64) -> Self {
        assert!(checkpoint_interval >= 1);
        let n = code.n();
        let registry = Registry::new();
        let mut store = DistributedStore::with_groups(code, GroupConfig::small_objects().logged());
        store.attach_registry(&registry);
        RainCheck {
            store,
            nodes_up: vec![true; n],
            jobs: BTreeMap::new(),
            checkpoint_interval,
            lost_work: 0,
            reassignments: 0,
            checkpoints_written: 0,
            registry,
        }
    }

    /// Create a system from a serializable code description.
    pub fn from_spec(spec: CodeSpec, checkpoint_interval: u64) -> Result<Self, CheckpointError> {
        let code =
            build_code(spec).map_err(|e| CheckpointError::BadCodeSpec(StorageError::Code(e)))?;
        Ok(Self::new(code, checkpoint_interval))
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.nodes_up.len()
    }

    /// The live node with the smallest id acts as leader (the guarantee the
    /// election protocol provides to the real system).
    pub fn leader(&self) -> Option<NodeId> {
        self.nodes_up.iter().position(|&up| up).map(NodeId)
    }

    /// Jobs known to the system.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Submit a job; the leader assigns it to the least-loaded live node.
    pub fn submit(&mut self, id: u64, seed: u64, total_steps: u64) {
        let job = Job {
            id,
            seed,
            total_steps,
            progress: 0,
            state: seed,
            assigned_to: None,
        };
        self.jobs.insert(id, job);
        self.assign_unowned();
    }

    fn least_loaded_live_node(&self) -> Option<NodeId> {
        let mut counts = vec![0usize; self.nodes_up.len()];
        for job in self.jobs.values() {
            if let Some(n) = job.assigned_to {
                if !job.finished() {
                    counts[n.0] += 1;
                }
            }
        }
        (0..self.nodes_up.len())
            .filter(|&i| self.nodes_up[i])
            .min_by_key(|&i| (counts[i], i))
            .map(NodeId)
    }

    fn assign_unowned(&mut self) {
        let unowned: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| j.assigned_to.is_none() && !j.finished())
            .map(|j| j.id)
            .collect();
        for id in unowned {
            if let Some(target) = self.least_loaded_live_node() {
                self.jobs.get_mut(&id).unwrap().assigned_to = Some(target);
            }
        }
    }

    fn checkpoint_key(id: u64) -> String {
        format!("job-{id}")
    }

    /// Crash a node: its stored symbols become unavailable and the leader
    /// reassigns its jobs, rolling each back to its last checkpoint.
    pub fn crash_node(&mut self, node: NodeId) -> Result<(), CheckpointError> {
        self.nodes_up[node.0] = false;
        self.store
            .fail_node(node)
            .map_err(CheckpointError::InsufficientNodes)?;
        // Reassign and roll back the jobs that were running there.
        let affected: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| j.assigned_to == Some(node) && !j.finished())
            .map(|j| j.id)
            .collect();
        for id in affected {
            let key = Self::checkpoint_key(id);
            let restored = self.store.retrieve(&key, SelectionPolicy::LeastLoaded);
            let job = self.jobs.get_mut(&id).unwrap();
            let before = job.progress;
            match restored {
                Ok((bytes, _)) => job.restore(&bytes),
                Err(StorageError::UnknownObject { .. }) => {
                    // Never checkpointed: restart from scratch.
                    job.progress = 0;
                    job.state = job.seed;
                }
                Err(e) => return Err(CheckpointError::InsufficientNodes(e)),
            }
            self.lost_work += before - job.progress;
            job.assigned_to = None;
            self.reassignments += 1;
        }
        self.assign_unowned();
        Ok(())
    }

    /// Recover a node (its old symbols are stale and are refreshed by the
    /// next checkpoint of each job).
    pub fn recover_node(&mut self, node: NodeId) {
        self.nodes_up[node.0] = true;
        let _ = self.store.recover_node(node);
        self.assign_unowned();
    }

    /// The underlying store (checkpoint placement, grouping counters).
    pub fn store(&self) -> &DistributedStore {
        &self.store
    }

    /// Per-node outcome breakdown accumulated over every checkpoint
    /// restore: ok/timeout/corrupt/down/stale contact counts plus
    /// degraded-read totals — the scheduler's view of how healthy its
    /// restores have been. A view over the telemetry registry (see
    /// [`RainCheck::registry`]), not a separate hand-maintained tally.
    pub fn retrieval_health(&self) -> OutcomeTally {
        OutcomeTally::from_registry(&self.registry)
    }

    /// The telemetry registry the scheduler's store publishes into:
    /// retrieve outcomes, WAL append counters, group seal/compaction
    /// metrics, and span duration histograms.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Simulate a crash of the **coordinator** (leader + store metadata):
    /// everything in its memory is lost; the storage nodes and the
    /// write-ahead log survive and feed [`RainCheck::recover`].
    pub fn crash_coordinator(self) -> (SurvivingNodes, Option<WriteAheadLog>) {
        self.store.crash()
    }

    /// Rebuild the system after a coordinator crash: the store replays the
    /// write-ahead log ([`DistributedStore::recover`]), the job table is
    /// resubmitted from `jobs` (the scheduler's durable job queue), and
    /// each job resumes from its most recent recovered checkpoint —
    /// including checkpoints that were group-committed but whose group had
    /// not yet sealed when the coordinator died.
    ///
    /// Like the store-level recovery it builds on, this never fails on
    /// node *liveness*: a job whose sealed checkpoint currently has fewer
    /// than `k` reachable symbols restarts from scratch (deterministically
    /// correct — the redone work is bounded by the job length, and its
    /// next commit re-checkpoints it) instead of blocking every other
    /// job's resumption. Checkpoints sitting in the log-rebuilt open group
    /// restore regardless of node availability.
    pub fn recover(
        code: Arc<dyn ErasureCode>,
        checkpoint_interval: u64,
        jobs: &[JobSpec],
        nodes: SurvivingNodes,
        wal: WriteAheadLog,
    ) -> Result<(Self, RecoveryReport), CheckpointError> {
        assert!(checkpoint_interval >= 1);
        let n = code.n();
        let (mut store, report) =
            DistributedStore::recover(code, GroupConfig::small_objects().logged(), nodes, wal)
                .map_err(CheckpointError::RecoveryFailed)?;
        // Fresh registry per incarnation: health counters restart at zero
        // after a coordinator crash, like the old in-memory tally did.
        let registry = Registry::new();
        store.attach_registry(&registry);
        let mut rc = RainCheck {
            store,
            nodes_up: Vec::new(),
            jobs: BTreeMap::new(),
            checkpoint_interval,
            lost_work: 0,
            reassignments: 0,
            checkpoints_written: 0,
            registry,
        };
        rc.nodes_up = (0..n).map(|i| rc.store.node_up(NodeId(i))).collect();
        for spec in jobs {
            let mut job = Job {
                id: spec.id,
                seed: spec.seed,
                total_steps: spec.total_steps,
                progress: 0,
                state: spec.seed,
                assigned_to: None,
            };
            match rc
                .store
                .retrieve(&Self::checkpoint_key(spec.id), SelectionPolicy::LeastLoaded)
            {
                Ok((bytes, _report)) => job.restore(&bytes),
                Err(StorageError::UnknownObject { .. }) => {} // never checkpointed
                // Temporarily unreachable (< k symbols of its sealed group
                // live right now): restart this job from scratch rather
                // than aborting everyone's recovery — the scheduler comes
                // back up and the cluster heals as nodes return.
                Err(StorageError::NotEnoughNodes { .. }) => {}
                Err(e) => return Err(CheckpointError::InsufficientNodes(e)),
            }
            rc.jobs.insert(spec.id, job);
        }
        rc.assign_unowned();
        Ok((rc, report))
    }

    /// Execute one scheduler round: every live node advances each of its
    /// jobs by one step; jobs checkpoint every `checkpoint_interval` steps
    /// and at completion. The round ends with a **group commit**: dead
    /// checkpoint groups are compacted away and the open coding group is
    /// sealed, so every checkpoint written this round becomes erasure-coded
    /// durable together, at the cost of one encode. The returned
    /// [`FlushReport`] says exactly what that commit made durable.
    pub fn round(&mut self) -> Result<FlushReport, CheckpointError> {
        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        for id in ids {
            let (due_checkpoint, key, bytes) = {
                let job = self.jobs.get_mut(&id).unwrap();
                let Some(node) = job.assigned_to else {
                    continue;
                };
                if !self.nodes_up[node.0] || job.finished() {
                    continue;
                }
                job.progress += 1;
                job.state = mix(job.state, job.progress);
                let due = job.progress.is_multiple_of(self.checkpoint_interval) || job.finished();
                (due, Self::checkpoint_key(id), job.checkpoint_bytes())
            };
            if due_checkpoint {
                self.store
                    .store(&key, &bytes)
                    .map_err(CheckpointError::InsufficientNodes)?;
                self.checkpoints_written += 1;
            }
        }
        // Group commit: reclaim groups full of overwritten checkpoints,
        // then seal this round's group. Compaction decodes survivor bytes,
        // so it is the step that surfaces a cluster below `k` live nodes.
        self.store
            .compact()
            .map_err(CheckpointError::InsufficientNodes)?;
        self.store
            .flush()
            .map_err(CheckpointError::InsufficientNodes)
    }

    /// Drive the system until every job finishes or `max_rounds` elapse.
    pub fn run(&mut self, max_rounds: u64) -> Result<RunReport, CheckpointError> {
        let mut rounds = 0;
        while rounds < max_rounds && self.jobs.values().any(|j| !j.finished()) {
            self.round()?;
            rounds += 1;
        }
        Ok(RunReport {
            all_finished: self.jobs.values().all(|j| j.finished()),
            lost_work: self.lost_work,
            reassignments: self.reassignments,
            checkpoints_written: self.checkpoints_written,
            rounds,
        })
    }

    /// Verify that every finished job's state equals the reference state of
    /// an uninterrupted execution.
    pub fn all_states_correct(&self) -> bool {
        self.jobs
            .values()
            .filter(|j| j.finished())
            .all(|j| j.state == reference_state(j.seed, j.total_steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_codes::CodeSpec;

    fn system(interval: u64) -> RainCheck {
        // Select the paper's (6, 4) B-Code from serializable configuration.
        RainCheck::from_spec(CodeSpec::bcode_6_4(), interval).expect("valid spec")
    }

    #[test]
    fn restore_health_reports_degraded_restores_after_a_crash() {
        let mut rc = system(4);
        for id in 0..6 {
            rc.submit(id, id * 31 + 7, 40);
        }
        for _ in 0..8 {
            rc.round().unwrap();
        }
        rc.crash_node(NodeId(2)).unwrap();
        let health = rc.retrieval_health();
        assert!(health.ok > 0, "restores must have contacted live nodes");
        assert!(
            health.degraded_reads > 0,
            "a restore with a dead node must be flagged degraded"
        );
        assert_eq!(health.corrupt, 0);
        assert_eq!(health.stale, 0);
    }

    #[test]
    fn bad_specs_are_rejected_at_construction() {
        let bad = CodeSpec::new(rain_codes::CodeKind::XCode, 9, 7); // 9 not prime
        assert!(matches!(
            RainCheck::from_spec(bad, 10),
            Err(CheckpointError::BadCodeSpec(_))
        ));
    }

    #[test]
    fn fault_free_run_finishes_all_jobs_correctly() {
        let mut rc = system(10);
        for j in 0..8 {
            rc.submit(j, 1000 + j, 100);
        }
        let report = rc.run(1_000).unwrap();
        assert!(report.all_finished);
        assert_eq!(report.lost_work, 0);
        assert_eq!(report.reassignments, 0);
        assert!(rc.all_states_correct());
        assert!(report.checkpoints_written >= 8 * 10);
    }

    #[test]
    fn jobs_survive_crashes_up_to_the_code_tolerance() {
        // (6,4) code: two nodes may fail.
        let mut rc = system(10);
        for j in 0..6 {
            rc.submit(j, 7 * j + 1, 200);
        }
        for _ in 0..50 {
            rc.round().unwrap();
        }
        rc.crash_node(NodeId(0)).unwrap();
        for _ in 0..50 {
            rc.round().unwrap();
        }
        rc.crash_node(NodeId(3)).unwrap();
        let report = rc.run(5_000).unwrap();
        assert!(report.all_finished);
        assert!(report.reassignments > 0);
        assert!(rc.all_states_correct(), "recovered state must be correct");
    }

    #[test]
    fn lost_work_is_bounded_by_the_checkpoint_interval_per_failure() {
        let interval = 25;
        let mut rc = system(interval);
        for j in 0..6 {
            rc.submit(j, j + 1, 300);
        }
        for _ in 0..60 {
            rc.round().unwrap();
        }
        rc.crash_node(NodeId(1)).unwrap();
        for _ in 0..40 {
            rc.round().unwrap();
        }
        rc.crash_node(NodeId(4)).unwrap();
        let report = rc.run(10_000).unwrap();
        assert!(report.all_finished);
        // Each failure rolls back at most (interval - 1) steps per affected
        // job; with 6 jobs spread over 6 nodes, each crash affects one job.
        let max_per_failure = interval - 1;
        assert!(
            report.lost_work <= 2 * max_per_failure,
            "lost {} steps",
            report.lost_work
        );
        assert!(rc.all_states_correct());
    }

    #[test]
    fn leader_follows_the_smallest_live_node() {
        let mut rc = system(10);
        rc.submit(0, 1, 50);
        assert_eq!(rc.leader(), Some(NodeId(0)));
        rc.crash_node(NodeId(0)).unwrap();
        assert_eq!(rc.leader(), Some(NodeId(1)));
        rc.recover_node(NodeId(0));
        assert_eq!(rc.leader(), Some(NodeId(0)));
    }

    #[test]
    fn dropping_below_k_nodes_is_reported_not_silently_wrong() {
        let mut rc = system(5);
        rc.submit(0, 3, 100);
        for _ in 0..20 {
            rc.round().unwrap();
        }
        rc.crash_node(NodeId(0)).unwrap();
        rc.crash_node(NodeId(1)).unwrap();
        // A third failure exceeds n - k = 2: the next checkpoint of the
        // reassigned job cannot be written (or its state read), and the
        // system surfaces the condition instead of completing incorrectly.
        let third = rc.crash_node(NodeId(2));
        let run = rc.run(1_000);
        assert!(third.is_err() || run.is_err());
    }

    #[test]
    fn checkpoints_are_group_committed_not_stored_individually() {
        let mut rc = system(10);
        for j in 0..6 {
            rc.submit(j, j + 11, 100);
        }
        let report = rc.run(1_000).unwrap();
        assert!(report.all_finished);
        assert!(rc.all_states_correct());
        let stats = rc.store().group_stats();
        // Every live checkpoint rides in a coding group, and compaction has
        // kept the group population near the live set: far fewer groups
        // than the checkpoints written (all six jobs checkpoint in the same
        // round and share one group encode).
        assert_eq!(stats.grouped_objects, 6, "one live checkpoint per job");
        assert_eq!(stats.open_bytes, 0, "rounds end sealed");
        assert!(
            (stats.groups as u64) < report.checkpoints_written / 4,
            "{} groups for {} checkpoints",
            stats.groups,
            report.checkpoints_written
        );
    }

    #[test]
    fn coordinator_crash_recovers_group_committed_checkpoints() {
        let specs: Vec<JobSpec> = (0..6)
            .map(|j| JobSpec {
                id: j,
                seed: 7 * j + 1,
                total_steps: 120,
            })
            .collect();
        let mut rc = system(10);
        for s in &specs {
            rc.submit(s.id, s.seed, s.total_steps);
        }
        for _ in 0..37 {
            rc.round().unwrap();
        }
        // The coordinator dies: leader state, job table, store metadata —
        // all gone. The nodes and the group-commit log survive.
        let (nodes, wal) = rc.crash_coordinator();
        let code = build_code(CodeSpec::bcode_6_4()).expect("valid spec");
        let (mut rc, report) =
            RainCheck::recover(code, 10, &specs, nodes, wal.expect("logged")).unwrap();
        assert!(!report.torn_tail);
        // Every job resumed from its last committed checkpoint (step 30 at
        // round 37 with interval 10), not from scratch.
        for job in rc.jobs() {
            assert_eq!(job.progress, 30, "job {} resumed from checkpoint", job.id);
        }
        let report = rc.run(5_000).unwrap();
        assert!(report.all_finished);
        assert!(rc.all_states_correct(), "recovered states must be correct");
    }

    #[test]
    fn coordinator_recovery_tolerates_unreachable_sealed_checkpoints() {
        let specs: Vec<JobSpec> = (0..4)
            .map(|j| JobSpec {
                id: j,
                seed: 13 * j + 5,
                total_steps: 60,
            })
            .collect();
        let mut rc = system(10);
        for s in &specs {
            rc.submit(s.id, s.seed, s.total_steps);
        }
        for _ in 0..25 {
            rc.round().unwrap();
        }
        // Lose more nodes than the (6, 4) code tolerates, THEN the
        // coordinator: the sealed checkpoint groups cannot be read right
        // now, but recovery must still bring the scheduler back.
        for n in 0..3 {
            let _ = rc.store.fail_node(NodeId(n));
            rc.nodes_up[n] = false;
        }
        let (nodes, wal) = rc.crash_coordinator();
        let code = build_code(CodeSpec::bcode_6_4()).expect("valid spec");
        let (mut rc, _report) =
            RainCheck::recover(code, 10, &specs, nodes, wal.expect("logged")).unwrap();
        // Unreachable checkpoints mean those jobs restart from scratch —
        // lost work, never lost correctness.
        for job in rc.jobs() {
            assert_eq!(job.progress, 0, "job {} restarted", job.id);
        }
        for n in 0..3 {
            rc.recover_node(NodeId(n));
        }
        let report = rc.run(5_000).unwrap();
        assert!(report.all_finished);
        assert!(rc.all_states_correct());
    }

    #[test]
    fn round_reports_the_group_commit() {
        let mut rc = system(5);
        for j in 0..4 {
            rc.submit(j, j + 2, 10);
        }
        for r in 1..=5u64 {
            let commit = rc.round().unwrap();
            if r == 5 {
                assert_eq!(commit.groups_sealed, 1);
                assert_eq!(commit.objects_committed, 4, "all four checkpoints");
            } else {
                assert_eq!(commit, FlushReport::default(), "nothing due yet");
            }
        }
    }

    #[test]
    fn reference_state_matches_manual_fold() {
        let mut s = 9u64;
        for step in 1..=17u64 {
            s = mix(s, step);
        }
        assert_eq!(reference_state(9, 17), s);
        assert_ne!(reference_state(9, 17), reference_state(9, 16));
    }
}
