//! Turns what the passes measured into the declared metrics, the tables a
//! person reads, and the one JSON line the driver reads.
//!
//! The two `*_METRICS` tables are the same lists `BENCHMARK.json` declares
//! (a self-test compares them); a metric the code fails to produce is an
//! error, never a silent gap.

use std::collections::BTreeMap;

use crate::driver::{KindStats, PassResult, PhaseStats, Tally};
use crate::gen::OpKind;
use crate::probes::Probes;
use crate::stats::median;
use crate::trace::{Name, Total, Totals};
use crate::workloads::Workload;

/// `(name, unit)` of every end-to-end metric, each defined on every workload.
pub const END_TO_END_METRICS: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("user_mb_per_s", "MB/s"),
    ("put_p50_us", "us"),
    ("get_p50_us", "us"),
    ("recover_s", "s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("log_bytes_per_live_byte", "ratio"),
];

/// `(name, unit)` of every per-layer metric. One a workload does not
/// exercise reads 0 there.
pub const PER_LAYER_METRICS: [(&str, &str); 61] = [
    ("cluster.op_us", "us"),
    ("cluster.self_us_per_op", "us"),
    ("cluster.ring_lookup_ns", "ns"),
    ("cluster.metalog_append_us", "us"),
    ("cluster.metalog_disk_bytes", "B"),
    ("cluster.recover_meta_records", "count"),
    ("cluster.final_recover_s", "s"),
    ("cluster.put_p99_us", "us"),
    ("cluster.get_p99_us", "us"),
    ("cluster.del_p50_us", "us"),
    ("cluster.degraded_get_p50_us", "us"),
    ("cluster.repair_mb_per_s", "MB/s"),
    ("storage.store_us", "us"),
    ("storage.retrieve_us", "us"),
    ("storage.delete_us", "us"),
    ("storage.self_us_per_op", "us"),
    ("storage.decode_cache_hit_ratio", "ratio"),
    ("storage.read_amp", "ratio"),
    ("storage.groups_sealed", "count"),
    ("storage.live_fraction", "ratio"),
    ("storage.compact_us_per_call", "us"),
    ("storage.compact_bytes_reclaimed", "B"),
    ("storage.checkpoints", "count"),
    ("storage.repair_us_per_symbol", "us"),
    ("storage.recover_ms", "ms"),
    ("storage.recover_records_replayed", "count"),
    ("wal.appends_per_op", "1/op"),
    ("wal.append_us", "us"),
    ("wal.self_us_per_op", "us"),
    ("wal.frame_bytes_per_user_byte", "ratio"),
    ("wal.sync_calls_per_op", "1/op"),
    ("wal.drop_prefix_calls", "count"),
    ("wal.drop_prefix_us", "us"),
    ("wal.crc32_mb_per_s", "MB/s"),
    ("wal.write_frame_mb_per_s", "MB/s"),
    ("wal.scan_frames_mb_per_s", "MB/s"),
    ("device.writes_per_op", "1/op"),
    ("device.write_bytes_per_user_byte", "ratio"),
    ("device.fsyncs_per_op", "1/op"),
    ("device.fsyncs_per_put", "1/op"),
    ("device.write_us", "us"),
    ("device.fsync_us", "us"),
    ("device.unlinks", "count"),
    ("device.replace_calls", "count"),
    ("device.rewrite_bytes", "B"),
    ("codes.encode_calls_per_op", "1/op"),
    ("codes.encode_us", "us"),
    ("codes.encode_mb_per_s", "MB/s"),
    ("codes.decode_calls_per_op", "1/op"),
    ("codes.decode_us", "us"),
    ("codes.decode_mb_per_s", "MB/s"),
    ("codes.repair_calls", "count"),
    ("codes.repair_mb_per_s", "MB/s"),
    ("codes.busy_share", "ratio"),
    ("transport.attempts_per_op", "1/op"),
    ("transport.attempt_ns", "ns"),
    ("transport.seal_frame_mb_per_s", "MB/s"),
    ("transport.open_frame_mb_per_s", "MB/s"),
    ("transport.frame_us_per_op_est", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// `num / den`, 0 when the denominator is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean_us(t: Total) -> f64 {
    ratio(t.ns as f64 / 1e3, t.calls as f64)
}

/// Bytes per nanosecond are GB/s; times 1000 is MB/s.
fn span_mb_per_s(t: Total) -> f64 {
    ratio(t.bytes as f64 * 1e3, t.ns as f64)
}

/// Puts are timed in the main phase, or in the load phase where the main
/// phase has none (`small-read-cold`).
fn put_stats(r: &PassResult) -> &KindStats {
    if r.main.kind(OpKind::Put).count > 0 {
        r.main.kind(OpKind::Put)
    } else {
        r.preload.kind(OpKind::Put)
    }
}

fn repair_mb_per_s(w: &Workload, r: &PassResult) -> f64 {
    r.repair.as_ref().map_or(0.0, |rep| {
        // Symbol bytes rebuilt: each repaired symbol is 1/k of an object.
        let bytes = rep.symbols_per_round as f64 * w.object_bytes as f64 / w.code.k as f64;
        bytes / 1e6 / median(&rep.round_s)
    })
}

/// The end-to-end metrics of one untraced cluster pass.
pub fn end_to_end(r: &PassResult) -> Result<Values, String> {
    let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("too few samples for {what}"));
    let put = put_stats(r);
    let get = r.main.kind(OpKind::Get);
    let restarts: Vec<f64> = r.restarts.iter().map(|x| x.seconds).collect();
    if r.main.seg_ops_per_s.is_empty() || restarts.is_empty() {
        return Err("the measured phase ran no ops".to_string());
    }
    let mut v = Values::new();
    v.insert("setup_s", median(&r.setup_s));
    v.insert("ops_per_s", median(&r.main.seg_ops_per_s));
    v.insert("user_mb_per_s", median(&r.main.seg_mb_per_s));
    v.insert("put_p50_us", need(put.p50_us(), "put_p50_us")?);
    v.insert("get_p50_us", need(get.p50_us(), "get_p50_us")?);
    v.insert("recover_s", median(&restarts));
    v.insert("cpu_us_per_op", median(&r.main.seg_cpu_us_per_op));
    v.insert("peak_rss_mb", r.setup_peak_rss_mb);
    v.insert(
        "log_bytes_per_live_byte",
        ratio(r.setup_log_bytes as f64, r.setup_live_bytes as f64),
    );
    Ok(v)
}

/// What the traced run made: the same ops through the cluster, the plain
/// shard array and the wrapped one, plus the probes.
pub struct TracedRun<'a> {
    pub workload: &'a Workload,
    pub cluster: &'a PassResult,
    pub plain: &'a PassResult,
    pub wrapped: &'a PassResult,
    pub probes: &'a Probes,
}

impl TracedRun<'_> {
    fn measured(&self) -> &Totals {
        self.wrapped
            .measured_spans
            .as_ref()
            .expect("the wrapped pass is traced")
    }

    /// Ops of the main and degraded phases of a pass.
    fn ops(r: &PassResult) -> f64 {
        (r.main.ops + r.degraded.as_ref().map_or(0, |d| d.ops)) as f64
    }

    /// Mean time per op over the main and degraded phases, the driver's
    /// compaction calls included (their spans are in the ledger too).
    fn mean_op_us(r: &PassResult) -> f64 {
        let busy = |p: &PhaseStats| p.op_ns + p.maint_ns;
        let ns = busy(&r.main) + r.degraded.as_ref().map_or(0, busy);
        ratio(ns as f64 / 1e3, Self::ops(r))
    }

    pub fn per_layer(&self) -> Values {
        let (w, c, p, t) = (self.workload, self.cluster, self.plain, self.wrapped);
        let spans = self.measured();
        let ops = Self::ops(t);
        let per_op = |x: u64| ratio(x as f64, ops);
        let self_us_per_op = |layer: &str| ratio(spans.layer(layer).self_ns as f64 / 1e3, ops);
        let phases = |f: fn(&PhaseStats) -> u64| f(&t.main) + t.degraded.as_ref().map_or(0, f);
        let put_bytes = phases(|p| p.put_bytes) as f64;
        let get_bytes = phases(|p| p.get_bytes) as f64;
        let writes = phases(|p| p.kind(OpKind::Put).count + p.kind(OpKind::Del).count) as f64;

        let get = |n: Name| spans.get(n);
        let repair = t.repair_spans.clone().unwrap_or_default();
        let transport = spans.layer("transport");
        let codes = spans.layer("codes");
        let pr = self.probes;
        let framed_us_per_op = ratio(
            get(Name::TransportInstall).bytes as f64 / pr.seal_frame_mb_per_s
                + get(Name::TransportFetch).bytes as f64 / pr.open_frame_mb_per_s,
            ops,
        );
        let plain_op_us = Self::mean_op_us(p);
        let accounted_us: f64 = ["storage", "codes", "wal", "device", "transport"]
            .iter()
            .map(|l| self_us_per_op(l))
            .sum();
        let groups = &t.groups_after;
        let cache_hits = (groups.cache_hits - t.groups_before.cache_hits) as f64;
        let cache_misses = (groups.cache_misses - t.groups_before.cache_misses) as f64;

        let mut v = Values::new();
        v.insert("cluster.op_us", Self::mean_op_us(c));
        v.insert("cluster.self_us_per_op", Self::mean_op_us(c) - plain_op_us);
        v.insert("cluster.ring_lookup_ns", pr.ring_lookup_ns);
        v.insert("cluster.metalog_append_us", pr.metalog_append_us);
        v.insert("cluster.metalog_disk_bytes", c.meta_bytes as f64);
        v.insert(
            "cluster.recover_meta_records",
            c.final_restart.meta_records as f64,
        );
        v.insert("cluster.final_recover_s", c.final_restart.seconds);
        v.insert("cluster.put_p99_us", put_stats(c).tail_us().unwrap_or(0.0));
        v.insert(
            "cluster.get_p99_us",
            c.main.kind(OpKind::Get).tail_us().unwrap_or(0.0),
        );
        v.insert(
            "cluster.del_p50_us",
            c.main.kind(OpKind::Del).p50_us().unwrap_or(0.0),
        );
        v.insert(
            "cluster.degraded_get_p50_us",
            c.degraded
                .as_ref()
                .and_then(|d| d.kind(OpKind::Get).p50_us())
                .unwrap_or(0.0),
        );
        v.insert("cluster.repair_mb_per_s", repair_mb_per_s(w, c));

        v.insert("storage.store_us", mean_us(get(Name::StorageStore)));
        v.insert("storage.retrieve_us", mean_us(get(Name::StorageRetrieve)));
        v.insert("storage.delete_us", mean_us(get(Name::StorageDelete)));
        v.insert("storage.self_us_per_op", self_us_per_op("storage"));
        v.insert(
            "storage.decode_cache_hit_ratio",
            ratio(cache_hits, cache_hits + cache_misses),
        );
        v.insert(
            "storage.read_amp",
            ratio(get(Name::CodesDecode).bytes as f64, get_bytes),
        );
        v.insert("storage.groups_sealed", groups.sealed_groups as f64);
        v.insert(
            "storage.live_fraction",
            ratio(groups.live_bytes as f64, groups.packed_bytes as f64),
        );
        v.insert(
            "storage.compact_us_per_call",
            mean_us(get(Name::StorageCompact)),
        );
        v.insert(
            "storage.compact_bytes_reclaimed",
            t.main.compact_bytes_reclaimed as f64,
        );
        v.insert(
            "storage.checkpoints",
            (groups.checkpoints - t.groups_before.checkpoints) as f64,
        );
        v.insert(
            "storage.repair_us_per_symbol",
            ratio(
                repair.get(Name::StorageRepair).ns as f64 / 1e3,
                repair.get(Name::CodesRepair).calls as f64,
            ),
        );
        v.insert("storage.recover_ms", p.final_restart.seconds * 1e3);
        v.insert(
            "storage.recover_records_replayed",
            p.final_restart.shard_records as f64,
        );

        v.insert("wal.appends_per_op", per_op(get(Name::WalAppend).calls));
        v.insert("wal.append_us", mean_us(get(Name::WalAppend)));
        v.insert("wal.self_us_per_op", self_us_per_op("wal"));
        v.insert(
            "wal.frame_bytes_per_user_byte",
            ratio(get(Name::WalAppend).bytes as f64, put_bytes),
        );
        v.insert("wal.sync_calls_per_op", per_op(get(Name::WalSync).calls));
        v.insert(
            "wal.drop_prefix_calls",
            get(Name::WalDropPrefix).calls as f64,
        );
        v.insert("wal.drop_prefix_us", mean_us(get(Name::WalDropPrefix)));
        v.insert("wal.crc32_mb_per_s", pr.crc32_mb_per_s);
        v.insert("wal.write_frame_mb_per_s", pr.write_frame_mb_per_s);
        v.insert("wal.scan_frames_mb_per_s", pr.scan_frames_mb_per_s);

        v.insert("device.writes_per_op", per_op(get(Name::DeviceWrite).calls));
        v.insert(
            "device.write_bytes_per_user_byte",
            ratio(get(Name::DeviceWrite).bytes as f64, put_bytes),
        );
        v.insert("device.fsyncs_per_op", per_op(get(Name::DeviceFsync).calls));
        v.insert(
            "device.fsyncs_per_put",
            ratio(get(Name::DeviceFsync).calls as f64, writes),
        );
        v.insert("device.write_us", mean_us(get(Name::DeviceWrite)));
        v.insert("device.fsync_us", mean_us(get(Name::DeviceFsync)));
        v.insert("device.unlinks", get(Name::DeviceUnlink).calls as f64);
        v.insert(
            "device.replace_calls",
            get(Name::DeviceReplace).calls as f64,
        );
        v.insert(
            "device.rewrite_bytes",
            get(Name::DeviceReplace).bytes as f64,
        );

        v.insert(
            "codes.encode_calls_per_op",
            per_op(get(Name::CodesEncode).calls),
        );
        v.insert("codes.encode_us", mean_us(get(Name::CodesEncode)));
        v.insert(
            "codes.encode_mb_per_s",
            span_mb_per_s(get(Name::CodesEncode)),
        );
        v.insert(
            "codes.decode_calls_per_op",
            per_op(get(Name::CodesDecode).calls),
        );
        v.insert("codes.decode_us", mean_us(get(Name::CodesDecode)));
        v.insert(
            "codes.decode_mb_per_s",
            span_mb_per_s(get(Name::CodesDecode)),
        );
        v.insert(
            "codes.repair_calls",
            repair.get(Name::CodesRepair).calls as f64,
        );
        v.insert(
            "codes.repair_mb_per_s",
            span_mb_per_s(repair.get(Name::CodesRepair)),
        );
        v.insert(
            "codes.busy_share",
            ratio(codes.ns as f64 / 1e3, Self::mean_op_us(t) * ops),
        );

        v.insert("transport.attempts_per_op", per_op(transport.calls));
        v.insert(
            "transport.attempt_ns",
            ratio(transport.ns as f64, transport.calls as f64),
        );
        v.insert("transport.seal_frame_mb_per_s", pr.seal_frame_mb_per_s);
        v.insert("transport.open_frame_mb_per_s", pr.open_frame_mb_per_s);
        v.insert("transport.frame_us_per_op_est", framed_us_per_op);

        // On-CPU time, not wall time: the wrappers cost CPU, and between two
        // passes the disk's fsync latency moves by more than they do.
        let cpu_us_per_op = |r: &PassResult| {
            let ns = r.main.cpu_ns + r.degraded.as_ref().map_or(0, |d| d.cpu_ns);
            ratio(ns as f64 / 1e3, Self::ops(r))
        };
        v.insert(
            "trace.overhead_pct",
            100.0 * ratio(cpu_us_per_op(t) - cpu_us_per_op(p), cpu_us_per_op(p)),
        );
        v.insert(
            "trace.accounted_pct",
            100.0 * ratio(accounted_us, plain_op_us),
        );
        v
    }

    /// The ledger a person reads: one row per span name.
    pub fn print_ledger(&self) {
        let spans = self.measured();
        let ops = Self::ops(self.wrapped);
        let op_us = Self::mean_op_us(self.wrapped);
        println!(
            "ledger of {} ({} ops through the wrapped shard array, mean op {:.3} us)",
            self.workload.name, ops, op_us
        );
        println!(
            "  {:<20} {:>10} {:>10} {:>10} {:>8} {:>10}",
            "span", "calls/op", "us/op", "self us/op", "% of op", "MB/s"
        );
        for name in Name::ALL {
            let t = spans.get(name);
            if t.calls == 0 {
                continue;
            }
            let self_us = t.self_ns as f64 / 1e3 / ops;
            println!(
                "  {:<20} {:>10.4} {:>10.3} {:>10.3} {:>8.2} {:>10.1}",
                name.as_str(),
                t.calls as f64 / ops,
                t.ns as f64 / 1e3 / ops,
                self_us,
                100.0 * ratio(self_us, op_us),
                span_mb_per_s(t),
            );
        }
    }
}

fn print_kind(label: &str, k: &KindStats) {
    if let (Some(p50), Some(tail)) = (k.p50_us(), k.tail_us()) {
        println!(
            "  {label:<14} n={:<8} p50={p50:.3} us  {}={tail:.3} us  mean={:.3} us",
            k.count,
            k.tail_label,
            k.mean_us(),
        );
        println!(
            "  {:<14} per segment: samples {:?}, p50 {:.3?}, {} {:.3?}",
            "", k.seg_samples, k.seg_p50_us, k.tail_label, k.seg_tail_us
        );
    }
}

/// What a person reads after an end-to-end run.
pub fn print_pass(w: &Workload, r: &PassResult) {
    println!(
        "{}: {} ops in {:.2} s, op-stream digest {:016x}",
        w.name, r.main.ops, r.main.wall_s, r.digest
    );
    print_kind("put (load)", r.preload.kind(OpKind::Put));
    print_kind("put", r.main.kind(OpKind::Put));
    print_kind("get", r.main.kind(OpKind::Get));
    print_kind("del", r.main.kind(OpKind::Del));
    if let Some(d) = &r.degraded {
        print_kind("get (degraded)", d.kind(OpKind::Get));
    }
    if let Some(rep) = &r.repair {
        println!(
            "  repair         {} symbols per round, median {:.3} s, {:.1} MB/s of symbols rebuilt",
            rep.symbols_per_round,
            median(&rep.round_s),
            repair_mb_per_s(w, r),
        );
    }
    for (what, x) in r
        .restarts
        .first()
        .map(|x| ("restart after set-up", x))
        .into_iter()
        .chain([("restart at the end", &r.final_restart)])
    {
        println!(
            "  {what}: {:.4} s, {} metalog + {} shard records replayed, adopted {}, \
             directory_dropped {}",
            x.seconds, x.meta_records, x.shard_records, x.adopted, x.directory_dropped
        );
    }
    println!(
        "  at the end: {} live keys, {} log bytes on disk ({} of them metalog), peak RSS {:.1} MB",
        r.live_keys,
        r.log_bytes,
        r.meta_bytes,
        crate::stats::peak_rss_mb()
    );
}

pub fn print_values(declared: &[(&'static str, &'static str)], values: &Values) {
    for (name, unit) in declared {
        if let Some(v) = values.get(name) {
            println!("  {name:<34} {v:>16.4} {unit}");
        }
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, with every declared metric present.
pub fn result_line(
    declared: &[(&'static str, &'static str)],
    values: &Values,
    tally: Tally,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let v = values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("declared metric {name} is missing from the output"))?;
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    ))
}
