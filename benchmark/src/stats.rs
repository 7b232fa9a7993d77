//! Percentiles, medians and the process's own resource counters.

/// The percentiles the benchmark reports, lowest first.
pub const LADDER: [(&str, f64); 4] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// A percentile is supported by a sample only with this many values beyond it.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`], `cap` at most, that `n` samples
/// support; `None` when they do not even support the median.
pub fn highest_supported(n: usize, cap: f64) -> Option<(&'static str, f64)> {
    LADDER
        .iter()
        .rev()
        .find(|(_, q)| *q <= cap && beyond(n, *q) >= MIN_BEYOND)
        .copied()
}

/// Samples strictly above the nearest-rank position of quantile `q`.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).max(1)
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    sorted[rank(sorted.len(), q).min(sorted.len()) - 1] as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nanoseconds this thread has spent on a CPU, from `/proc/self/schedstat`.
/// The store path is single-threaded, so this is the whole op cost, and it
/// does not count time a noisy neighbour kept the thread off its core.
pub fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of the file at `path`, or of every regular file under it.
pub fn path_bytes(path: &std::path::Path) -> u64 {
    match std::fs::metadata(path) {
        Ok(m) if m.is_dir() => std::fs::read_dir(path)
            .map(|entries| entries.flatten().map(|e| path_bytes(&e.path())).sum())
            .unwrap_or(0),
        Ok(m) => m.len(),
        Err(_) => 0,
    }
}
