//! `rain-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! One invocation measures one workload: untraced through a file-backed
//! `ClusterStore` (`--trace 0`, the end-to-end metrics), or traced
//! (`--trace 1`, the per-layer ledger). The last line of standard output is
//! the JSON result; the exit code is non-zero when any op failed, any byte
//! read back wrong, or any declared metric is missing.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rain_benchmark::driver::{run_pass, Budget, ClusterTarget, PassResult, Scale, Tally};
use rain_benchmark::interpose::ShardArray;
use rain_benchmark::report::{self, TracedRun, END_TO_END_METRICS, PER_LAYER_METRICS};
use rain_benchmark::workloads::{
    self, Workload, RECOVER_ROUNDS, SETUP_ROUNDS, SMOKE_DIVISOR, TRACE_DIVISOR,
};
use rain_benchmark::{probes, trace};

const USAGE: &str = "usage: rain-benchmark --workload <name|all> [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--ops <n>] [--wal-root <dir>] [--trace-out <file>]
  --workload   small-mixed | small-read-cold | large-stream | whole-4k-degraded | all
  --seed       seed of the generated inputs (default 1)
  --seconds    length of the measured phase (default 10)
  --trace      0: end-to-end metrics through ClusterStore; 1: per-layer ledger (default 0)
  --smoke      a fiftieth of the data and of the time, for CI
  --ops        measure exactly this many ops instead of --seconds (counts then repeat exactly)
  --wal-root   keep the logs under <dir> instead of beside the executable (curiosity runs,
               e.g. on tmpfs; say so when quoting their numbers)
  --trace-out  with --trace 1, write every span of the wrapped pass to <file> as CSV";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    ops: Option<u64>,
    wal_root: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        ops: None,
        wal_root: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => args.smoke = true,
            "--ops" => {
                let v = value()?;
                args.ops = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--wal-root" => args.wal_root = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Where the logs live: a directory of this process beside the executable,
/// which is inside the build directory and so inside the checkout.
fn wal_root(args: &Args) -> Result<PathBuf, String> {
    let base = match &args.wal_root {
        Some(dir) => dir.clone(),
        None => std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .parent()
            .ok_or("the executable has no directory")?
            .join("rain-bench-logs"),
    };
    Ok(base.join(format!("{}", std::process::id())))
}

fn scale(args: &Args, divisor: f64) -> Scale {
    let smoke = if args.smoke { SMOKE_DIVISOR } else { 1 };
    let budget = match args.ops {
        Some(n) => Budget::Ops(n),
        None => Budget::Seconds(args.seconds / smoke as f64),
    };
    let budget = budget.scaled(1.0 / divisor);
    Scale {
        seed: args.seed,
        budget,
        degraded_budget: budget.scaled(0.25),
        preload_divisor: smoke,
        setup_rounds: SETUP_ROUNDS,
        recover_rounds: RECOVER_ROUNDS,
    }
}

fn end_to_end(w: &Workload, args: &Args, root: &Path) -> Result<(String, Tally), String> {
    let r = run_pass(w, scale(args, 1.0), root, ClusterTarget::build)?;
    let values = report::end_to_end(&r)?;
    report::print_pass(w, &r);
    report::print_values(&END_TO_END_METRICS, &values);
    println!(
        "  ops_attempted {}  ops_failed {}",
        r.tally.attempted, r.tally.failed
    );
    Ok((
        report::result_line(&END_TO_END_METRICS, &values, r.tally)?,
        r.tally,
    ))
}

/// The traced run: the cluster for a quarter of the time, then exactly the
/// ops it completed through the plain shard array and through the wrapped
/// one, then the probes.
fn traced(w: &Workload, args: &Args, root: &Path) -> Result<(String, Tally), String> {
    let mut s = scale(args, TRACE_DIVISOR);
    s.setup_rounds = 1;
    s.recover_rounds = 1;
    let cluster = run_pass(w, s, root, ClusterTarget::build)?;
    s.budget = Budget::Ops(cluster.main.ops);
    s.degraded_budget = Budget::Ops(cluster.degraded.as_ref().map_or(0, |d| d.ops));
    let replay = |traced: bool| -> Result<PassResult, String> {
        let r = run_pass(w, s, root, |w, dir| ShardArray::build(w, dir, traced))?;
        if r.digest != cluster.digest {
            return Err("the replay generated a different op stream".to_string());
        }
        Ok(r)
    };
    let plain = replay(false)?;
    let wrapped = replay(true)?;
    let probes = probes::run(w, root, args.seed)?;
    if let Some(path) = &args.trace_out {
        trace::write_csv(&wrapped.spans, path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let run = TracedRun {
        workload: w,
        cluster: &cluster,
        plain: &plain,
        wrapped: &wrapped,
        probes: &probes,
    };
    let values = run.per_layer();
    run.print_ledger();
    report::print_values(&PER_LAYER_METRICS, &values);
    let mut tally = Tally::default();
    for r in [&cluster, &plain, &wrapped] {
        tally.attempted += r.tally.attempted;
        tally.failed += r.tally.failed;
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        tally.attempted, tally.failed
    );
    Ok((
        report::result_line(&PER_LAYER_METRICS, &values, tally)?,
        tally,
    ))
}

fn run_one(w: &Workload, args: &Args) -> Result<Tally, String> {
    let root = wal_root(args)?;
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    println!(
        "workload {} seed {} trace {} wal_root {}",
        w.name,
        args.seed,
        args.trace as u8,
        root.display()
    );
    let outcome = if args.trace {
        traced(w, args, &root)
    } else {
        end_to_end(w, args, &root)
    };
    let _ = std::fs::remove_dir_all(&root);
    let (line, tally) = outcome?;
    println!("{line}");
    Ok(tally)
}

/// `--workload all`: one child process per workload, so peak RSS, CPU time
/// and allocator state are each workload's own.
fn run_all() -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for w in workloads::all() {
        let mut forwarded: Vec<String> = std::env::args().skip(1).collect();
        let at = forwarded
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was parsed");
        forwarded[at + 1] = w.name.to_string();
        let status = std::process::Command::new(&exe)
            .args(&forwarded)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all()
    } else {
        match workloads::by_name(&args.workload) {
            Some(w) => run_one(&w, &args).map(|tally| tally.failed == 0),
            None => Err(format!("unknown workload {:?}\n{USAGE}", args.workload)),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("failed ops or failed workloads: see above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
