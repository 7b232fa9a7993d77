//! Deterministic membership-churn scenarios over the full sharded stack.
//!
//! A churn scenario drives one [`ShardedRain`]: its control plane runs the
//! token-ring membership and leader election on simulated time, and every
//! transition its leader commits is executed by its [`ClusterStore`] as a
//! two-phase handover. Workload keys follow a zipfian popularity curve
//! over a mixed small/large size distribution ([`ZipfSampler`] /
//! [`SizeMix`]), so the hot keys keep getting overwritten *while* the
//! groups that pack them are mid-migration.
//!
//! The scripted run is the acceptance story for the cluster layer:
//!
//! 1. seed the namespace over three shards,
//! 2. a fourth shard **joins** → the leader commits epoch 2 → groups
//!    rebalance at one symbol per node each,
//! 3. the **leader is killed** → re-election → the survivors commit
//!    epoch 3 (the dead shard's units stay put, honestly unavailable,
//!    until the shard's data plane returns),
//! 4. a fifth shard joins and **crashes mid-handover** → the transition
//!    aborts, destination copies are evicted, nothing acked is lost.
//!
//! After every phase the scenario sweeps *every acked object* and demands
//! bit-exact bytes or an honest unavailability error — never wrong bytes,
//! never a silent miss. One seed fixes the whole history, so a run replays
//! bit-identically (asserted by the crate's tests and diffed in CI).

use std::collections::BTreeMap;

use rain_codes::CodeSpec;
use rain_obs::Registry;
use rain_sim::{DetRng, SimDuration};
use rain_storage::{GroupConfig, SelectionPolicy, SizeMix, StorageError, ZipfSampler};

use crate::ring::ShardId;
use crate::sharded::ShardedRain;
use crate::store::{ClusterError, ClusterStore};

/// Parameters of a churn scenario run.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Scenario name, carried into the report.
    pub name: &'static str,
    /// Master seed: fixes workload, token passes, and elections.
    pub seed: u64,
    /// Distinct objects in the namespace.
    pub objects: usize,
    /// Virtual nodes per shard on the routing ring.
    pub vnodes: usize,
    /// Zipf exponent of the key-popularity curve (higher = more skew).
    pub zipf_exponent: f64,
    /// Small/large object size mix.
    pub mix: SizeMix,
}

impl ChurnSpec {
    /// The default acceptance scenario: 40 objects, skewed popularity,
    /// a 4:1 small/large mix that exercises grouped and whole placement.
    pub fn default_churn() -> Self {
        ChurnSpec {
            name: "join_leaderkill_abort",
            seed: 0xC1_D2_E3,
            objects: 40,
            vnodes: 48,
            zipf_exponent: 1.1,
            mix: SizeMix {
                small_len: 600,
                large_len: 9_000,
                large_fraction: 0.2,
            },
        }
    }
}

/// What one scripted churn run observed, in full. Two runs from the same
/// [`ChurnSpec`] produce equal reports (asserted in tests, diffed in CI).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// Scenario name.
    pub name: String,
    /// The committed epoch when the run ended.
    pub final_epoch: u64,
    /// Writes acknowledged.
    pub writes_ok: u64,
    /// Writes refused because the owning shard was down.
    pub writes_unavailable: u64,
    /// Writes rejected for a stale epoch stamp (then retried fresh).
    pub stale_writes_rejected: u64,
    /// Reads served despite a stale epoch stamp.
    pub forwarded_reads: u64,
    /// Writes applied to both old and new owner during handovers.
    pub dual_writes: u64,
    /// Sweep retrieves attempted.
    pub retrieves: u64,
    /// Sweep retrieves returning exactly the acked bytes.
    pub bit_exact: u64,
    /// Sweep retrieves answered with an honest unavailability error.
    pub unavailable: u64,
    /// Sweep retrieves returning bytes that differ from the acked bytes.
    /// Must be zero — anything else is data corruption.
    pub wrong_bytes: u64,
    /// Acked objects the cluster no longer knows. Must be zero.
    pub missing: u64,
    /// Sealed coding groups rebalanced.
    pub groups_moved: u64,
    /// Whole objects rebalanced.
    pub wholes_moved: u64,
    /// Total symbols installed by rebalancing.
    pub symbols_transferred: u64,
    /// Symbols per moved unit — the headline: a group of many packed
    /// objects migrates for exactly one symbol per storage node.
    pub symbols_per_group: f64,
    /// Planned moves skipped because a shard was down.
    pub transfer_skips: u64,
    /// Handovers aborted (the mid-handover crash phase).
    pub handover_aborts: u64,
    /// Leadership changes across the run.
    pub leader_changes: u64,
    /// Token regenerations (911 calls) across the run.
    pub regenerations: u64,
    /// Tokens received, summed over all control nodes.
    pub tokens_received: u64,
}

/// The acked state of the namespace, as the client believes it.
type Model = BTreeMap<String, Vec<u8>>;

struct Driver {
    rain: ShardedRain,
    model: Model,
    rng: DetRng,
    zipf: ZipfSampler,
    mix: SizeMix,
    version: u64,
    writes_ok: u64,
    writes_unavailable: u64,
    retrieves: u64,
    bit_exact: u64,
    unavailable: u64,
    wrong_bytes: u64,
    missing: u64,
}

fn object_name(i: usize) -> String {
    format!("obj-{i:03}")
}

fn payload(obj: usize, version: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| ((obj as u64 * 131 + version * 17 + j as u64) % 251) as u8)
        .collect()
}

impl Driver {
    /// One tick of simulated time on both planes.
    fn tick(&mut self) {
        self.rain.tick(SimDuration::from_millis(100));
    }

    fn cluster(&mut self) -> &mut ClusterStore {
        self.rain.cluster_mut()
    }

    fn settle(&mut self, secs: u64) {
        for _ in 0..secs * 10 {
            self.tick();
        }
    }

    /// Tick until the control plane surfaces a transition satisfying
    /// `want`, up to `max_secs` of simulated time.
    fn await_transition(
        &mut self,
        max_secs: u64,
        want: impl Fn(&[ShardId]) -> bool,
    ) -> Vec<ShardId> {
        for _ in 0..max_secs * 10 {
            self.tick();
            if let Some(members) = self.rain.poll_transition() {
                if want(&members) {
                    return members;
                }
            }
        }
        panic!("control plane never surfaced the expected transition");
    }

    /// Overwrite one zipf-sampled key with fresh bytes at the current
    /// epoch. A `ShardDown` refusal leaves the model untouched — the old
    /// bytes stay acked.
    fn zipf_overwrite(&mut self) {
        let obj = self.zipf.sample(&mut self.rng);
        let key = object_name(obj);
        let len = self.mix.sample(&mut self.rng);
        self.version += 1;
        let data = payload(obj, self.version, len);
        let epoch = self.cluster().epoch();
        match self.cluster().store(&key, &data, epoch) {
            Ok(()) => {
                self.model.insert(key, data);
                self.writes_ok += 1;
            }
            Err(ClusterError::ShardDown(_)) => self.writes_unavailable += 1,
            Err(e) => panic!("unexpected write failure for {key}: {e}"),
        }
    }

    /// Read back every acked object and classify the answer: bit-exact,
    /// honestly unavailable, wrong bytes, or missing. Every fifth read is
    /// stamped with the previous epoch to exercise directory forwarding.
    fn sweep(&mut self) {
        let epoch = self.cluster().epoch();
        let keys: Vec<String> = self.model.keys().cloned().collect();
        for (i, key) in keys.iter().enumerate() {
            let stamp = if i % 5 == 4 && epoch > 1 {
                epoch - 1
            } else {
                epoch
            };
            self.retrieves += 1;
            match self.cluster().retrieve(key, SelectionPolicy::FirstK, stamp) {
                Ok(read) => {
                    if read.bytes == self.model[key] {
                        self.bit_exact += 1;
                    } else {
                        self.wrong_bytes += 1;
                    }
                }
                Err(ClusterError::ShardDown(_))
                | Err(ClusterError::Storage(StorageError::NotEnoughNodes { .. })) => {
                    self.unavailable += 1;
                }
                Err(ClusterError::Storage(StorageError::UnknownObject { .. })) => {
                    self.missing += 1;
                }
                Err(e) => panic!("unexpected read failure for {key}: {e}"),
            }
        }
    }

    /// Drain the in-flight handover, interleaving one hot-key overwrite
    /// after every transferred unit so dual-write paths stay exercised.
    fn drain_transfers(&mut self) {
        while self
            .cluster()
            .transfer_next()
            .expect("transfer must not error")
            .is_some()
        {
            self.zipf_overwrite();
            self.tick();
        }
    }
}

/// Run the scripted churn scenario, publishing telemetry into `registry`.
pub fn run_churn_scenario_observed(spec: &ChurnSpec, registry: &Registry) -> ChurnReport {
    let mut cluster = ClusterStore::new(
        CodeSpec::bcode_6_4(),
        GroupConfig::small_objects(),
        &[0, 1, 2],
        spec.vnodes,
    )
    .expect("bcode_6_4 builds");
    cluster.attach_registry(registry);
    let rain = ShardedRain::new(cluster, 5, spec.seed).expect("members 0..3 of 5");
    let rng = DetRng::new(spec.seed).fork(0xC0DE);
    let zipf = ZipfSampler::new(spec.objects, spec.zipf_exponent);
    let mut d = Driver {
        rain,
        model: Model::new(),
        rng,
        zipf,
        mix: spec.mix,
        version: 0,
        writes_ok: 0,
        writes_unavailable: 0,
        retrieves: 0,
        bit_exact: 0,
        unavailable: 0,
        wrong_bytes: 0,
        missing: 0,
    };

    // Let the initial token ring and election settle, then seed every
    // object once and seal the open groups.
    d.settle(3);
    for i in 0..spec.objects {
        let len = d.mix.sample(&mut d.rng);
        let data = payload(i, 0, len);
        let epoch = d.cluster().epoch();
        d.cluster()
            .store(&object_name(i), &data, epoch)
            .expect("seeding on a healthy cluster");
        d.model.insert(object_name(i), data);
        d.writes_ok += 1;
    }
    d.cluster().flush_all();
    d.sweep();

    // Phase 1: shard 3 joins. The leader watches the token ring converge
    // on the wider view, then the data plane rebalances group-by-group
    // and commits epoch 2.
    d.rain.join(3, 0).expect("shard 3 exists");
    let members = d.await_transition(20, |m| m.contains(&3));
    d.cluster()
        .begin_handover(&members)
        .expect("no handover in flight");
    d.drain_transfers();
    // A client still on the genesis epoch: its write bounces with the
    // current epoch, the retry with a fresh stamp lands.
    let stale = d.cluster().store("obj-000", b"stale attempt", 0);
    assert!(matches!(stale, Err(ClusterError::StaleEpoch { .. })));
    d.cluster().commit_handover().expect("commit epoch 2");
    d.zipf_overwrite();
    d.sweep();

    // Phase 2: the leader (shard 0) dies — control node and data plane
    // together. The survivors re-elect, exclude it, and commit epoch 3.
    // Units stranded on shard 0 are skipped and stay honestly
    // unavailable until its data plane returns.
    d.rain.crash(0).expect("shard 0 exists");
    let members = d.await_transition(40, |m| !m.contains(&0));
    d.cluster()
        .begin_handover(&members)
        .expect("no handover in flight");
    d.drain_transfers();
    d.cluster().commit_handover().expect("commit epoch 3");
    d.sweep();

    // Shard 0's storage nodes come back (its controller stays dead, so
    // the view does not change): the stranded units read bit-exact again.
    d.cluster().recover_shard(0);
    d.sweep();

    // Phase 3: shard 4 joins but crashes mid-handover. The transition
    // aborts, destination copies are evicted, and the committed view
    // keeps serving everything acked.
    d.rain.join(4, 1).expect("shard 4 exists");
    let members = d.await_transition(20, |m| m.contains(&4));
    let planned = d
        .cluster()
        .begin_handover(&members)
        .expect("no handover in flight");
    for _ in 0..planned / 2 {
        d.cluster()
            .transfer_next()
            .expect("transfer must not error");
        d.zipf_overwrite();
        d.tick();
    }
    d.rain.crash(4).expect("shard 4 exists");
    d.cluster()
        .abort_handover()
        .expect("abort in flight handover");
    d.sweep();

    d.cluster().publish_gauges();
    d.rain.publish_gauges(registry);

    let stats = d.cluster().stats();
    let units_moved = stats.groups_moved + stats.wholes_moved;
    ChurnReport {
        name: spec.name.to_string(),
        final_epoch: d.cluster().epoch(),
        writes_ok: d.writes_ok,
        writes_unavailable: d.writes_unavailable,
        stale_writes_rejected: stats.stale_writes_rejected,
        forwarded_reads: stats.forwarded_reads,
        dual_writes: stats.dual_writes,
        retrieves: d.retrieves,
        bit_exact: d.bit_exact,
        unavailable: d.unavailable,
        wrong_bytes: d.wrong_bytes,
        missing: d.missing,
        groups_moved: stats.groups_moved,
        wholes_moved: stats.wholes_moved,
        symbols_transferred: stats.symbols_transferred,
        symbols_per_group: if units_moved > 0 {
            stats.symbols_transferred as f64 / units_moved as f64
        } else {
            0.0
        },
        transfer_skips: stats.transfer_skips,
        handover_aborts: stats.handover_aborts,
        leader_changes: d.rain.leader_changes(),
        regenerations: d.rain.regenerations(),
        tokens_received: d.rain.tokens_received(),
    }
}

/// Run the scripted churn scenario with a private telemetry registry.
pub fn run_churn_scenario(spec: &ChurnSpec) -> ChurnReport {
    run_churn_scenario_observed(spec, &Registry::new())
}

/// The churn scenarios the bench harness replays: every run is virtual-time
/// deterministic, so `BENCH_cluster.json` embeds their reports verbatim and
/// CI diffs them exactly.
pub fn builtin_churn_specs() -> Vec<ChurnSpec> {
    vec![
        ChurnSpec::default_churn(),
        ChurnSpec {
            name: "hot_keys_heavy_mix",
            seed: 0xFEED_5EED,
            objects: 64,
            vnodes: 64,
            zipf_exponent: 1.4,
            mix: SizeMix {
                small_len: 900,
                large_len: 12_000,
                large_fraction: 0.3,
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_churn_scenario_is_clean_and_replays_bit_identically() {
        let spec = ChurnSpec::default_churn();
        let a = run_churn_scenario(&spec);
        let b = run_churn_scenario(&spec);
        assert_eq!(a, b, "same seed must replay bit-identically");

        assert_eq!(a.wrong_bytes, 0, "never wrong bytes");
        assert_eq!(a.missing, 0, "never a silently lost object");
        assert_eq!(a.final_epoch, 3, "join commit + post-leader-kill commit");
        assert_eq!(a.handover_aborts, 1, "the mid-handover crash aborts once");
        assert!(a.groups_moved >= 1, "rebalancing must move sealed groups");
        assert!(a.stale_writes_rejected >= 1);
        assert!(a.forwarded_reads >= 1, "stale-stamped sweeps must forward");
        assert!(
            a.unavailable >= 1,
            "the dead leader's units go dark honestly"
        );
        assert!(a.leader_changes >= 2, "initial election plus re-election");
        assert!(a.tokens_received > 0, "the membership token must circulate");
        assert!(
            a.bit_exact + a.unavailable == a.retrieves,
            "every sweep read is bit-exact or honestly unavailable"
        );
        // The headline economics: a moved unit costs one symbol per node.
        assert!(a.symbols_per_group > 0.0);
        assert_eq!(
            a.symbols_transferred,
            (a.groups_moved + a.wholes_moved) * a.symbols_per_group as u64
        );
    }

    #[test]
    fn every_builtin_churn_spec_runs_clean() {
        for spec in builtin_churn_specs() {
            let r = run_churn_scenario(&spec);
            assert_eq!(r.wrong_bytes, 0, "{}: wrong bytes", spec.name);
            assert_eq!(r.missing, 0, "{}: lost objects", spec.name);
            assert_eq!(
                r.bit_exact + r.unavailable,
                r.retrieves,
                "{}: unaccounted reads",
                spec.name
            );
            assert!(r.groups_moved >= 1, "{}: no group moved", spec.name);
        }
    }
}
