//! Probes: public functions of single layers timed directly, on buffers of
//! the workload's own record and share size. They give the rates the ledger
//! sets beside the spans (CRC against encode, frame sealing against decode).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use rain_cluster::{MembershipView, MetaLog, MetaRecord};
use rain_codes::build_code;
use rain_storage::transport::{open_frame, seal_frame};
use rain_storage::wal::crc32;
use rain_storage::{scan_frames, write_frame, FileLog};

use crate::gen::SplitMix64;
use crate::workloads::{Workload, SHARDS, VNODES};

/// Each probe repeats until it has run this long.
const PROBE_SECONDS: f64 = 0.05;
const METALOG_APPENDS: u32 = 2000;

#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    pub ring_lookup_ns: f64,
    pub metalog_append_us: f64,
    pub crc32_mb_per_s: f64,
    pub write_frame_mb_per_s: f64,
    pub scan_frames_mb_per_s: f64,
    pub seal_frame_mb_per_s: f64,
    pub open_frame_mb_per_s: f64,
    /// Bytes of the log record and of the share the rates were taken on.
    pub record_bytes: usize,
    pub share_bytes: usize,
}

/// Seconds per call of `f`, over at least [`PROBE_SECONDS`].
fn time_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 0u64;
    let mut batch = 1u64;
    let t0 = Instant::now();
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= PROBE_SECONDS {
            return elapsed / calls as f64;
        }
        batch *= 2;
    }
}

fn mb_per_s(bytes: usize, seconds_per_call: f64) -> f64 {
    bytes as f64 / 1e6 / seconds_per_call
}

pub fn run(w: &Workload, dir: &Path, seed: u64) -> Result<Probes, String> {
    let mut rng = SplitMix64::new(seed ^ 0x7072_6f62);
    let mut random = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64() as u8).collect() };

    // A grouped put logs its payload; a whole-object put logs its name and
    // generation only.
    let record_bytes = if w.object_bytes < w.config.threshold {
        w.object_bytes
    } else {
        64
    };
    // A group is coded at its capacity, a whole object at its own size.
    let code = build_code(w.code).map_err(|e| e.to_string())?;
    let coded = if w.object_bytes < w.config.threshold {
        w.config.capacity
    } else {
        w.object_bytes
    };
    let share_bytes = coded.div_ceil(code.k());

    let view = MembershipView::genesis(&SHARDS, VNODES);
    let keys: Vec<String> = (0..1024).map(|i| format!("k{i:07}")).collect();
    let mut i = 0;
    let ring_lookup_ns = 1e9
        * time_per_call(|| {
            i = (i + 1) % keys.len();
            black_box(view.owner_of(black_box(&keys[i])));
        });

    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("probe.meta");
    let log = FileLog::open(&path, w.config.fsync).map_err(|e| e.to_string())?;
    let mut meta = MetaLog::new(Box::new(log));
    let t0 = Instant::now();
    for i in 0..METALOG_APPENDS {
        meta.append(&MetaRecord::DirPut {
            key: format!("k{i:07}"),
            shard: i as usize % SHARDS.len(),
        })
        .map_err(|e| e.to_string())?;
    }
    let metalog_append_us = t0.elapsed().as_secs_f64() * 1e6 / METALOG_APPENDS as f64;
    drop(meta);
    std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;

    let record = random(record_bytes);
    let crc = time_per_call(|| {
        black_box(crc32(black_box(&record)));
    });
    let mut framed = Vec::new();
    let write = time_per_call(|| {
        framed.clear();
        write_frame(&mut framed, black_box(&record));
        black_box(&framed);
    });
    let mut log_image = Vec::new();
    while log_image.len() < 1 << 20 {
        write_frame(&mut log_image, &record);
    }
    let scan = time_per_call(|| {
        black_box(scan_frames(black_box(&log_image)).expect("frames just written"));
    });

    let share = random(share_bytes);
    let seal = time_per_call(|| {
        black_box(seal_frame(7, black_box(&share)));
    });
    let sealed = seal_frame(7, &share);
    let open = time_per_call(|| {
        black_box(open_frame(black_box(&sealed)).expect("frame just sealed"));
    });

    Ok(Probes {
        ring_lookup_ns,
        metalog_append_us,
        crc32_mb_per_s: mb_per_s(record_bytes, crc),
        write_frame_mb_per_s: mb_per_s(record_bytes, write),
        scan_frames_mb_per_s: mb_per_s(log_image.len(), scan),
        seal_frame_mb_per_s: mb_per_s(share_bytes, seal),
        open_frame_mb_per_s: mb_per_s(share_bytes, open),
        record_bytes,
        share_bytes,
    })
}
