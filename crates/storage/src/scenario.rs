//! Closed-loop fault-injection scenarios.
//!
//! Each [`Scenario`] drives a deterministic workload — seed objects, then
//! rounds of retrieves interleaved with overwrites, node replacements, and
//! background write completion — against a [`DistributedStore`] whose
//! transport misbehaves on a schedule: node crash/restart, gray failure,
//! flapping links, packet loss, wire corruption, repair storms. Everything
//! (fault schedule, payload bytes, transport randomness) derives from the
//! scenario's seed, so a run replays bit-identically.
//!
//! The driver enforces the storage contract the paper's RAIN array promises
//! and the tests assert:
//!
//! * an **acked** object retrieves **bit-exact** whenever at least `k` of
//!   its symbols are reachable ([`ScenarioReport::wrong_bytes`] counts
//!   violations — it must be zero, always);
//! * when fewer than `k` symbols are reachable the store reports
//!   **unavailability** ([`StorageError::NotEnoughNodes`]), never wrong
//!   bytes;
//! * an overwrite that failed its write quorum was never acked, so reads
//!   keep returning the *predecessor* (or honest unavailability) — the
//!   generation stamps make the torn write invisible.
//!
//! Latency is virtual: the driver records the per-retrieve time-to-decode
//! reported by the store and summarises it as p50/p99 per scenario (the
//! numbers behind `BENCH_cluster.json`).

use serde::{Deserialize, Serialize};

use rain_codes::{build_code, CodeSpec};
use rain_obs::Registry;
use rain_sim::{DetRng, FaultPlan, NodeId, SimDuration};

use crate::group::GroupConfig;
use crate::store::{DistributedStore, SelectionPolicy, StorageError};
use crate::transport::{ChaosTransport, FaultPolicy, SimNetTransport, Transport};

/// How a scenario's transport is constructed.
#[derive(Debug, Clone)]
pub enum TransportSpec {
    /// A [`ChaosTransport`]: per-node fault state from `plan`, plus seeded
    /// random loss and response corruption.
    Chaos {
        /// Scheduled node/path faults.
        plan: FaultPlan,
        /// Probability an attempt is silently lost.
        loss: f64,
        /// Probability a fetched response arrives corrupted.
        corruption: f64,
    },
    /// A [`SimNetTransport`] over a full-mesh fabric (coordinator at fabric
    /// node 0, store node `i` at fabric node `i + 1`).
    SimNet {
        /// Per-link one-way latency.
        latency: SimDuration,
        /// Per-link loss probability.
        loss: f64,
        /// Scheduled fabric faults (note: these name *fabric* node ids).
        plan: FaultPlan,
    },
}

/// One scheduled driver action, applied at the start of its round.
#[derive(Debug, Clone)]
pub enum Action {
    /// The coordinator marks the node down (stops selecting it for reads).
    FailNode(NodeId),
    /// The coordinator marks the node up again.
    RecoverNode(NodeId),
    /// Hot-swap the node for a blank machine and repair every symbol onto
    /// it ([`DistributedStore::replace_node`] + [`DistributedStore::repair_node`]).
    ReplaceAndRepair(NodeId),
    /// Overwrite object `i` with fresh (deterministic) contents.
    Overwrite(usize),
    /// Drain quorum-acked pending installs
    /// ([`DistributedStore::complete_writes`]).
    CompleteWrites,
}

/// A deterministic fault-injection scenario: workload shape, failure
/// policy, transport (with its fault schedule), and driver actions.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (the key in `BENCH_cluster.json`).
    pub name: &'static str,
    /// The erasure code under test.
    pub code: CodeSpec,
    /// Seed for every random draw (transport fates, jitter).
    pub seed: u64,
    /// Objects seeded before the fault schedule starts.
    pub objects: usize,
    /// Payload bytes of odd-indexed objects (below the grouping threshold,
    /// so they exercise the coding-group path).
    pub small_len: usize,
    /// Payload bytes of even-indexed objects (whole placements).
    pub large_len: usize,
    /// Rounds of the closed loop (each retrieves every object once).
    pub rounds: usize,
    /// Idle virtual time between rounds.
    pub step: SimDuration,
    /// The store's failure policy for the run.
    pub policy: FaultPolicy,
    /// The transport the store runs over.
    pub transport: TransportSpec,
    /// `(round, action)` pairs; actions fire at the start of their round.
    pub actions: Vec<(usize, Action)>,
}

/// What one scenario run observed; serialized into `BENCH_cluster.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Retrieve operations attempted.
    pub retrieves: u64,
    /// Retrieves that returned bytes.
    pub ok: u64,
    /// Successful retrieves that were degraded (any contacted node failed
    /// to deliver a verified share, or fewer than `n` shares existed).
    pub degraded: u64,
    /// Retrieves answered with honest unavailability (fewer than `k`
    /// verified shares reachable).
    pub unavailable: u64,
    /// Successful retrieves whose bytes did not match the acked contents.
    /// **Any nonzero value is a storage-contract violation.**
    pub wrong_bytes: u64,
    /// Successful retrieves served from coordinator memory (open-group
    /// buffers, decode-cache hits) without touching the network.
    pub local_hits: u64,
    /// Retrieves that dispatched a hedge request.
    pub hedged: u64,
    /// Retry attempts across all retrieves (beyond each node's first).
    pub retries: u64,
    /// Store/overwrite operations that failed their write quorum (the op
    /// was not acked; reads must keep seeing the predecessor).
    pub stores_failed: u64,
    /// Symbols re-derived by repair actions.
    pub repairs: u64,
    /// Pending installs drained by `CompleteWrites` actions.
    pub installs_completed: u64,
    /// Median time-to-decode across network-served retrieves, microseconds.
    pub p50_us: u64,
    /// 99th-percentile time-to-decode, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile time-to-decode, microseconds.
    pub p999_us: u64,
    /// Worst observed time-to-decode, microseconds.
    pub max_us: u64,
    /// Transport attempts, across all operations.
    pub transport_attempts: u64,
    /// Attempts lost in flight.
    pub transport_lost: u64,
    /// Fetch responses that arrived corrupted (and were caught).
    pub transport_corrupted: u64,
}

/// Contents of object `obj` after its `version`-th (over)write.
fn payload(obj: usize, version: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| ((obj * 131 + version as usize * 17 + j) % 251) as u8)
        .collect()
}

fn object_name(i: usize) -> String {
    format!("obj-{i:02}")
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        len => sorted[((len - 1) as f64 * p).round() as usize],
    }
}

/// Zipf-distributed key popularity: rank `i` (0-based) is drawn with
/// probability proportional to `1 / (i + 1)^exponent`, the standard model
/// for skewed access patterns (a handful of hot keys take most of the
/// traffic, the tail is cold). Sampling inverts a precomputed CDF with a
/// binary search, and every draw comes from the caller's [`DetRng`], so a
/// workload built on it replays bit-identically from its seed.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// `cdf[i]` = probability of drawing a rank `<= i`, normalised so the
    /// last entry is 1.0.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `keys` ranks with the given exponent (`1.0` is
    /// classic Zipf; `0.0` degenerates to uniform).
    ///
    /// # Panics
    /// If `keys` is zero.
    pub fn new(keys: usize, exponent: f64) -> Self {
        assert!(keys > 0, "a Zipf sampler needs at least one key");
        let mut cdf = Vec::with_capacity(keys);
        let mut total = 0.0f64;
        for i in 0..keys {
            total += ((i + 1) as f64).powf(exponent).recip();
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks the sampler draws from.
    pub fn keys(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one rank in `0..keys()`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.unit();
        let i = self.cdf.partition_point(|&c| c < u);
        i.min(self.cdf.len() - 1)
    }
}

/// A mixed small/large object-size distribution: each draw is `small_len`
/// or `large_len`, with `large_fraction` of draws (in expectation) large.
/// Paired with the coding-group threshold this decides, per object, whether
/// it rides the grouped path or is placed whole — the bimodal shape real
/// object stores see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeMix {
    /// Byte length of a small draw (below the grouping threshold).
    pub small_len: usize,
    /// Byte length of a large draw (a whole placement).
    pub large_len: usize,
    /// Probability a draw is large, in `[0, 1]`.
    pub large_fraction: f64,
}

impl SizeMix {
    /// Draw one object length from the caller's [`DetRng`].
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        if rng.chance(self.large_fraction) {
            self.large_len
        } else {
            self.small_len
        }
    }
}

/// What the driver believes an object's bytes are. `None` means the object
/// was never acked (its seed store failed quorum), so no read of it is
/// owed anything.
type Expected = Option<Vec<u8>>;

/// Run one scenario to completion and summarise what happened.
///
/// The driver never panics on injected faults — unavailability and failed
/// writes are *recorded*, because reporting them honestly is the behaviour
/// under test. It returns `Err` only for infrastructure failures (an
/// invalid code spec).
pub fn run_scenario(sc: &Scenario) -> Result<ScenarioReport, StorageError> {
    run_scenario_observed(sc, &Registry::new())
}

/// [`run_scenario`] with a caller-supplied telemetry registry attached to
/// the store for the whole run. The store records its spans, counters, and
/// latency histograms into it (on the virtual clock, so two runs of the
/// same scenario render bit-identical snapshots), and the driver publishes
/// the end-of-run state gauges before returning — `registry.snapshot()`
/// afterwards is the scenario's full cross-layer metrics record.
pub fn run_scenario_observed(
    sc: &Scenario,
    registry: &Registry,
) -> Result<ScenarioReport, StorageError> {
    let code = build_code(sc.code)?;
    let mut store = DistributedStore::with_groups(code, GroupConfig::small_objects());
    store.attach_registry(registry);
    store.set_policy(sc.policy);
    let n = sc.code.n;
    let transport: Box<dyn Transport> = match &sc.transport {
        TransportSpec::Chaos {
            plan,
            loss,
            corruption,
        } => Box::new(
            ChaosTransport::new(n, sc.seed)
                .with_plan(plan.clone())
                .with_loss(*loss)
                .with_corruption(*corruption),
        ),
        TransportSpec::SimNet {
            latency,
            loss,
            plan,
        } => Box::new(
            SimNetTransport::full_mesh(n, *latency, *loss, sc.seed).with_plan(plan.clone()),
        ),
    };
    store.set_transport(transport);

    let mut report = ScenarioReport {
        name: sc.name.to_string(),
        retrieves: 0,
        ok: 0,
        degraded: 0,
        unavailable: 0,
        wrong_bytes: 0,
        local_hits: 0,
        hedged: 0,
        retries: 0,
        stores_failed: 0,
        repairs: 0,
        installs_completed: 0,
        p50_us: 0,
        p99_us: 0,
        p999_us: 0,
        max_us: 0,
        transport_attempts: 0,
        transport_lost: 0,
        transport_corrupted: 0,
    };
    let mut latencies: Vec<u64> = Vec::new();

    // Seed the workload. Failed seeds (a write quorum lost to day-zero
    // faults) are recorded, not retried: an unacked object is owed nothing.
    let mut expected: Vec<Expected> = Vec::with_capacity(sc.objects);
    let mut versions: Vec<u32> = vec![0; sc.objects];
    for i in 0..sc.objects {
        let len = if i.is_multiple_of(2) {
            sc.large_len
        } else {
            sc.small_len
        };
        let data = payload(i, 0, len);
        match store.store(&object_name(i), &data) {
            Ok(()) => expected.push(Some(data)),
            Err(StorageError::QuorumNotReached { .. }) => {
                report.stores_failed += 1;
                expected.push(None);
            }
            Err(e) => return Err(e),
        }
    }
    match store.flush() {
        Ok(_) => {}
        Err(StorageError::QuorumNotReached { .. }) => {
            // The open group stays buffered at the coordinator; its objects
            // remain readable from memory, so nothing acked is lost.
            report.stores_failed += 1;
        }
        Err(e) => return Err(e),
    }

    for round in 0..sc.rounds {
        for (_, action) in sc.actions.iter().filter(|(r, _)| *r == round) {
            match action {
                Action::FailNode(node) => {
                    let _ = store.fail_node(*node);
                }
                Action::RecoverNode(node) => {
                    let _ = store.recover_node(*node);
                }
                Action::ReplaceAndRepair(node) => {
                    let _ = store.replace_node(*node);
                    match store.repair_node(*node) {
                        Ok(count) => report.repairs += count as u64,
                        // Too few survivors *right now*: honest, try later.
                        Err(StorageError::NotEnoughNodes { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
                Action::Overwrite(i) => {
                    let i = *i % sc.objects;
                    let len = if i.is_multiple_of(2) {
                        sc.large_len
                    } else {
                        sc.small_len
                    };
                    let data = payload(i, versions[i] + 1, len);
                    match store.store(&object_name(i), &data) {
                        Ok(()) => {
                            versions[i] += 1;
                            expected[i] = Some(data);
                        }
                        Err(StorageError::QuorumNotReached { .. }) => {
                            // Not acked: the predecessor stays the truth.
                            report.stores_failed += 1;
                        }
                        Err(e) => return Err(e),
                    }
                }
                Action::CompleteWrites => {
                    let (landed, _) = store.complete_writes();
                    report.installs_completed += landed as u64;
                }
            }
        }
        store.advance_time(sc.step);
        for (i, want) in expected.iter().enumerate() {
            let Some(want) = want else { continue };
            report.retrieves += 1;
            match store.retrieve(&object_name(i), SelectionPolicy::LeastLoaded) {
                Ok((bytes, rep)) => {
                    report.ok += 1;
                    if &bytes != want {
                        report.wrong_bytes += 1;
                    }
                    if rep.degraded {
                        report.degraded += 1;
                    }
                    if rep.hedged {
                        report.hedged += 1;
                    }
                    report.retries += rep.retries as u64;
                    if rep.sources.is_empty() {
                        // No node was contacted: the bytes came from the
                        // coordinator's memory (open group or decode cache).
                        report.local_hits += 1;
                    } else {
                        latencies.push(rep.latency.as_micros());
                    }
                }
                Err(StorageError::NotEnoughNodes { .. }) => report.unavailable += 1,
                Err(e) => return Err(e),
            }
        }
    }

    latencies.sort_unstable();
    report.p50_us = percentile(&latencies, 0.50);
    report.p99_us = percentile(&latencies, 0.99);
    report.p999_us = percentile(&latencies, 0.999);
    report.max_us = latencies.last().copied().unwrap_or(0);
    let stats = store.transport_stats();
    report.transport_attempts = stats.attempts;
    report.transport_lost = stats.lost;
    report.transport_corrupted = stats.corrupted;
    store.publish_gauges();
    Ok(report)
}

/// The documented fault scenarios, each deterministic under its seed.
/// `crates/sim/tests/fault_injection.rs` runs every one and asserts the
/// storage contract; `rain-bench --cluster` records their latency summaries
/// into `BENCH_cluster.json`.
pub fn builtin_scenarios() -> Vec<Scenario> {
    use rain_sim::{Fault, LinkId, SimTime};
    let base = |name, transport| Scenario {
        name,
        code: CodeSpec::bcode_6_4(),
        seed: 0xA1_B2_C3,
        objects: 12,
        small_len: 256,
        large_len: 4096,
        rounds: 30,
        step: SimDuration::from_millis(5),
        policy: FaultPolicy {
            write_slack: 1,
            ..FaultPolicy::default()
        },
        transport,
        actions: vec![
            (8, Action::Overwrite(0)),
            (16, Action::Overwrite(3)),
            (12, Action::CompleteWrites),
            (20, Action::CompleteWrites),
            (28, Action::CompleteWrites),
        ],
    };
    let mut scenarios = Vec::new();

    // Node crash and restart: two staggered crashes, never more than the
    // code's n - k = 2 tolerance at once.
    scenarios.push(base(
        "node_crash_restart",
        TransportSpec::Chaos {
            plan: FaultPlan::none()
                .at(SimTime::from_millis(20), Fault::NodeCrash(NodeId(2)))
                .at(SimTime::from_millis(70), Fault::NodeRecover(NodeId(2)))
                .at(SimTime::from_millis(90), Fault::NodeCrash(NodeId(4)))
                .at(SimTime::from_millis(120), Fault::NodeRecover(NodeId(4))),
            loss: 0.0,
            corruption: 0.0,
        },
    ));

    // Gray failure: store node 1 (fabric node 2) serves 50x slow for 80 ms.
    // The hedged policy turns its stalls into timeouts + backup reads.
    let mut gray = base(
        "gray_failure",
        TransportSpec::SimNet {
            latency: SimDuration::from_micros(50),
            loss: 0.0,
            plan: FaultPlan::none().gray_failure(
                NodeId(2),
                SimTime::from_millis(20),
                SimTime::from_millis(100),
                50,
            ),
        },
    );
    gray.policy = FaultPolicy::hedged();
    scenarios.push(gray);

    // Flapping link: the path to store node 3 cycles 15 ms down / 15 ms up
    // across the whole run.
    scenarios.push(base(
        "flapping_link",
        TransportSpec::Chaos {
            plan: FaultPlan::none().flapping_link(
                LinkId(3),
                SimTime::from_millis(10),
                SimDuration::from_millis(15),
                SimDuration::from_millis(15),
                SimTime::from_millis(150),
            ),
            loss: 0.0,
            corruption: 0.0,
        },
    ));

    // Packet loss: every fourth message vanishes; bounded retries absorb it.
    scenarios.push(base(
        "packet_loss",
        TransportSpec::Chaos {
            plan: FaultPlan::none(),
            loss: 0.25,
            corruption: 0.0,
        },
    ));

    // Wire corruption: a third of fetched responses arrive bit-damaged;
    // the share checksum must catch every one (wrong_bytes stays zero).
    scenarios.push(base(
        "corrupt_wire",
        TransportSpec::Chaos {
            plan: FaultPlan::none(),
            loss: 0.0,
            corruption: 0.3,
        },
    ));

    // Repair storm: a crashed node comes back blank and every symbol is
    // re-derived onto it while reads continue; then a second, healthy node
    // is hot-swapped and repaired the same way.
    let mut storm = base(
        "repair_storm",
        TransportSpec::Chaos {
            plan: FaultPlan::none()
                .at(SimTime::from_millis(20), Fault::NodeCrash(NodeId(0)))
                .at(SimTime::from_millis(60), Fault::NodeRecover(NodeId(0))),
            loss: 0.0,
            corruption: 0.0,
        },
    );
    storm.actions.extend([
        (5, Action::FailNode(NodeId(0))),
        (14, Action::ReplaceAndRepair(NodeId(0))),
        (22, Action::ReplaceAndRepair(NodeId(4))),
    ]);
    scenarios.push(storm);

    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_and_never_serve_wrong_bytes() {
        for sc in builtin_scenarios() {
            let a = run_scenario(&sc).unwrap();
            let b = run_scenario(&sc).unwrap();
            assert_eq!(a, b, "{}: must replay bit-identically", sc.name);
            assert_eq!(a.wrong_bytes, 0, "{}: served wrong bytes", sc.name);
            assert!(a.retrieves > 0 && a.ok > 0, "{}: no work done", sc.name);
        }
    }

    #[test]
    fn observed_scenarios_produce_identical_telemetry_snapshots() {
        // The whole registry — counters, gauges, histograms, and the span
        // log — must be bit-deterministic across replays of the same
        // scenario: every timestamp comes from the virtual clock, every
        // histogram is integer-bucketed. `bench --cluster` relies on this
        // to embed snapshots in an exact-diffed baseline file.
        let sc = &builtin_scenarios()[0];
        let run = || {
            let reg = Registry::new();
            let rep = run_scenario_observed(sc, &reg).unwrap();
            (rep, reg.snapshot().to_json(), reg.spans())
        };
        let (rep_a, snap_a, spans_a) = run();
        let (rep_b, snap_b, spans_b) = run();
        assert_eq!(rep_a, rep_b);
        assert_eq!(snap_a, snap_b);
        assert_eq!(spans_a, spans_b);
        // The registry view agrees with the report the scenario computed
        // itself: retrieves that contacted nodes, split ok/unavailable.
        assert_eq!(
            reg_counter(&snap_a, "storage.retrieve.degraded"),
            Some(rep_a.degraded)
        );
        assert_eq!(
            reg_counter(&snap_a, "storage.retrieve.unavailable"),
            Some(rep_a.unavailable)
        );
    }

    /// Pull one counter value back out of the snapshot JSON (cheap parse:
    /// the format is stable and tested in rain-obs).
    fn reg_counter(snapshot_json: &str, name: &str) -> Option<u64> {
        let pat = format!("\"{name}\":");
        let at = snapshot_json.find(&pat)? + pat.len();
        let tail = &snapshot_json[at..];
        let end = tail.find([',', '}'])?;
        tail[..end].trim().parse().ok()
    }

    #[test]
    fn zipf_sampling_is_skewed_total_and_deterministic() {
        let zipf = ZipfSampler::new(16, 1.0);
        let draw = |seed| {
            let mut rng = DetRng::new(seed);
            let mut hist = vec![0u64; zipf.keys()];
            for _ in 0..4000 {
                let rank = zipf.sample(&mut rng);
                assert!(rank < zipf.keys(), "lookup must be total");
                hist[rank] += 1;
            }
            hist
        };
        let a = draw(42);
        assert_eq!(a, draw(42), "same seed, same draws");
        assert_ne!(a, draw(43), "different seed, different draws");
        assert!(
            a[0] > 2 * a[8],
            "rank 0 must dominate mid-tail ranks: {a:?}"
        );
        assert!(a.iter().sum::<u64>() == 4000);
    }

    #[test]
    fn size_mix_draws_both_modes_at_roughly_the_asked_fraction() {
        let mix = SizeMix {
            small_len: 256,
            large_len: 4096,
            large_fraction: 0.25,
        };
        let mut rng = DetRng::new(7);
        let mut large = 0u64;
        for _ in 0..4000 {
            match mix.sample(&mut rng) {
                4096 => large += 1,
                256 => {}
                other => panic!("impossible draw {other}"),
            }
        }
        let frac = large as f64 / 4000.0;
        assert!((0.2..0.3).contains(&frac), "got large fraction {frac}");
    }

    #[test]
    fn percentiles_handle_empty_and_single_samples() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
        let sorted: Vec<u64> = (0..100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.99), 98);
    }
}
