//! The benchmark's tests of itself: inputs are a function of the seed alone,
//! the statistics pick what they claim to pick, the oracle notices damage,
//! the tracing wrappers change nothing, and counts repeat exactly.

use std::path::PathBuf;

use rain_benchmark::driver::{
    run_pass, run_phase, Budget, Oracle, PassResult, Scale, Tally, Target,
};
use rain_benchmark::gen::{OpGen, PayloadPool};
use rain_benchmark::interpose::ShardArray;
use rain_benchmark::report::{self, END_TO_END_METRICS, PER_LAYER_METRICS};
use rain_benchmark::stats;
use rain_benchmark::trace::Name;
use rain_benchmark::workloads::{self, Workload};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Digest of the load plus 10 000 ops of a workload.
fn stream_digest(w: &Workload, seed: u64) -> u64 {
    let mut gen = OpGen::new(seed, w.dist, w.keyspace, w.mix);
    for key in 0..w.preload {
        gen.preload(key);
    }
    for _ in 0..10_000 {
        gen.next_op();
    }
    gen.digest()
}

#[test]
fn op_stream_is_a_function_of_workload_and_seed() {
    // Pinned: a change to the generator changes every baseline, and must
    // show up here first.
    let pinned: [(&str, u64); 4] = [
        ("small-mixed", 0x6204d19efbcde517),
        ("small-read-cold", 0x878370d5e442fbf5),
        ("large-stream", 0x461c1b5a2cabbfb0),
        ("whole-4k-degraded", 0xb1993d6a47b07d4d),
    ];
    for (name, digest) in pinned {
        let w = workloads::by_name(name).expect("a declared workload");
        assert_eq!(
            stream_digest(&w, 1),
            digest,
            "{name} seed 1: {:#x}",
            stream_digest(&w, 1)
        );
        assert_eq!(stream_digest(&w, 1), stream_digest(&w, 1));
        assert_ne!(stream_digest(&w, 1), stream_digest(&w, 2), "{name}");
    }
}

#[test]
fn no_generated_op_can_fail() {
    // A get or delete never names a dead key, and a get names the version
    // the last put of that key wrote.
    use rain_benchmark::gen::OpKind;
    let w = workloads::by_name("small-mixed").unwrap();
    let mut gen = OpGen::new(7, w.dist, w.keyspace, w.mix);
    let mut model = vec![0u32; w.keyspace as usize];
    for key in 0..w.preload {
        model[key as usize] = gen.preload(key).version;
    }
    for _ in 0..200_000 {
        let op = gen.next_op();
        let slot = &mut model[op.key as usize];
        match op.kind {
            OpKind::Put => {
                assert_ne!(op.version, *slot);
                *slot = op.version;
            }
            OpKind::Get => assert_eq!(op.version, *slot),
            OpKind::Del => {
                assert_eq!(op.version, *slot);
                *slot = 0;
            }
        }
        assert_ne!(op.version, 0);
    }
    let live: Vec<(u32, u32)> = gen.live().collect();
    let expect: Vec<(u32, u32)> = model
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != 0)
        .map(|(k, &v)| (k as u32, v))
        .collect();
    assert_eq!(live, expect);
}

#[test]
fn percentile_helper_picks_the_highest_supported() {
    let pick = |n, cap| stats::highest_supported(n, cap).map(|p| p.0);
    assert_eq!(pick(19, 1.0), None);
    assert_eq!(pick(20, 1.0), Some("p50"));
    assert_eq!(pick(99, 1.0), Some("p50"));
    assert_eq!(pick(100, 1.0), Some("p90"));
    assert_eq!(pick(999, 1.0), Some("p90"));
    assert_eq!(pick(1000, 1.0), Some("p99"));
    assert_eq!(pick(9_999, 1.0), Some("p99"));
    assert_eq!(pick(10_000, 1.0), Some("p999"));
    // Capped at the percentile the metric is named after.
    assert_eq!(pick(1_000_000, 0.99), Some("p99"));
    assert_eq!(pick(500, 0.99), Some("p90"));
    assert_eq!(pick(10, 0.99), None);
    // Nearest rank: the 990th of 1000 ascending values has 10 beyond it.
    let sorted: Vec<u32> = (1..=1000).collect();
    assert_eq!(stats::quantile(&sorted, 0.99), 990.0);
    assert_eq!(stats::quantile(&sorted, 0.5), 500.0);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn oracle_flags_a_flipped_byte() {
    let pool = PayloadPool::new(1);
    let oracle = Oracle {
        pool: &pool,
        object_bytes: 4096,
    };
    let mut bytes = oracle.expect(17, 3).to_vec();
    assert!(oracle.matches(17, 3, &bytes));
    assert!(
        !oracle.matches(17, 4, &bytes),
        "another version is another payload"
    );
    bytes[2048] ^= 1;
    assert!(!oracle.matches(17, 3, &bytes));
    bytes[2048] ^= 1;
    bytes.pop();
    assert!(!oracle.matches(17, 3, &bytes));
}

fn small(name: &str) -> Workload {
    let mut w = workloads::by_name(name).expect("a declared workload");
    w.keyspace = (w.keyspace / 50).max(16);
    w.preload = (w.preload / 50).max(8);
    w.compact_every /= 10;
    w
}

#[test]
fn wrapped_array_ends_bit_identical_to_the_plain_one() {
    for name in ["small-mixed", "whole-4k-degraded"] {
        let w = small(name);
        let pool = PayloadPool::new(3);
        let oracle = Oracle {
            pool: &pool,
            object_bytes: w.object_bytes,
        };
        let mut ends = Vec::new();
        for traced in [false, true] {
            let dir = scratch(&format!("identical-{name}-{traced}"));
            let mut array = ShardArray::build(&w, &dir, traced).unwrap();
            let mut gen = OpGen::new(3, w.dist, w.keyspace, w.mix);
            let mut tally = Tally::default();
            let mut key = 0;
            run_phase(
                &mut array,
                &oracle,
                &mut tally,
                Budget::Ops(w.preload as u64),
                0,
                || {
                    key += 1;
                    gen.preload(key - 1)
                },
            );
            let every = w.compact_every;
            run_phase(
                &mut array,
                &oracle,
                &mut tally,
                Budget::Ops(20_000),
                every,
                || gen.next_op(),
            );
            assert_eq!(tally.failed, 0, "{name} traced={traced}");
            assert_eq!(array.traced(), traced);
            ends.push(array.contents().unwrap());
        }
        assert!(!ends[0].is_empty());
        assert!(
            ends[0] == ends[1],
            "{name}: the wrappers changed what the array holds"
        );
    }
}

fn traced_pass(w: &Workload, dir: &str) -> PassResult {
    let scale = Scale {
        seed: 5,
        budget: Budget::Ops(20_000),
        degraded_budget: Budget::Ops(5_000),
        preload_divisor: 1,
        setup_rounds: 1,
        recover_rounds: 1,
    };
    let r = run_pass(w, scale, &scratch(dir), |w, d| {
        ShardArray::build(w, d, true)
    })
    .unwrap();
    assert_eq!(r.tally.failed, 0);
    r
}

#[test]
fn counts_repeat_exactly_for_one_seed() {
    for name in ["small-mixed", "whole-4k-degraded"] {
        let mut w = small(name);
        // `DistributedStore::compact` walks two `HashMap`s, whose order
        // differs from process to process: with compaction on, the records
        // it logs and even the number of group seals are not a function of
        // the inputs. Counts are exact only without it.
        w.compact_every = 0;
        let a = traced_pass(&w, &format!("counts-{name}-a"));
        let b = traced_pass(&w, &format!("counts-{name}-b"));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.main.ops, 20_000);
        // log_bytes_per_live_byte.
        assert_eq!(a.setup_log_bytes, b.setup_log_bytes);
        assert_eq!(a.live_keys, b.live_keys);
        let (sa, sb) = (a.measured_spans.unwrap(), b.measured_spans.unwrap());
        for n in Name::ALL {
            // device.* counts, wal.appends_per_op, codes.*_calls_per_op and
            // every bytes-per-byte ratio come from these two numbers.
            assert_eq!(
                sa.get(n).calls,
                sb.get(n).calls,
                "{name} {} calls",
                n.as_str()
            );
            assert_eq!(
                sa.get(n).bytes,
                sb.get(n).bytes,
                "{name} {} bytes",
                n.as_str()
            );
        }
        assert!(sa.get(Name::WalAppend).calls > 0);
        assert!(sa.get(Name::DeviceFsync).calls > 0);
    }
}

#[test]
fn a_missing_metric_is_an_error() {
    let mut values = report::Values::new();
    for (name, _) in END_TO_END_METRICS {
        values.insert(name, 1.5);
    }
    let tally = Tally {
        attempted: 10,
        failed: 0,
    };
    let line = report::result_line(&END_TO_END_METRICS, &values, tally).unwrap();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {")
    );
    values.remove("recover_s");
    let err = report::result_line(&END_TO_END_METRICS, &values, tally).unwrap_err();
    assert!(err.contains("recover_s"));
    values.insert("recover_s", f64::NAN);
    assert!(report::result_line(&END_TO_END_METRICS, &values, tally).is_err());
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap())
        .collect();
    let mut expect: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    expect.extend(END_TO_END_METRICS.iter().map(|m| m.0));
    expect.extend(PER_LAYER_METRICS.iter().map(|m| m.0));
    assert_eq!(names, expect);
    for (name, unit) in END_TO_END_METRICS.iter().chain(&PER_LAYER_METRICS) {
        let declared = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(text.contains(&declared), "{name} is not declared in {unit}");
    }
}
