//! The repository benchmark: one command per workload that prints every
//! end-to-end metric with its unit (`--trace 0`) or every per-layer
//! metric (`--trace 1`), checks every output, and counts failures
//! against attempts. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! ```text
//! perfbench --workload <grid-cold|cells-deep|serve-warm> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick] [--inject-mismatch]
//!           [--work-dir <dir>] [--git-rev <rev>]
//! ```
//!
//! The seed is the benchmark's: it becomes the grid's workload seed and
//! orders `serve-warm`'s requests; the program only ever sees the
//! configurations and the queue built from it. `--quick` shrinks every
//! budget for the benchmark's own tests; `--inject-mismatch` corrupts
//! one output before it is checked, to prove the checks count it.
//! Per-layer timing wraps the benchmark's own calls into each crate's
//! public functions (see `tracer.rs`); nothing is traced inside the
//! program. Modeled caches start empty and every statistic includes
//! warm-up.

mod deep;
mod e2e;
mod grid;
mod layers;
mod measure;
mod serve;
mod speed;
mod tracer;

use cmpleak_core::ExperimentResult;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    GridCold,
    CellsDeep,
    ServeWarm,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "grid-cold" => Some(Workload::GridCold),
            "cells-deep" => Some(Workload::CellsDeep),
            "serve-warm" => Some(Workload::ServeWarm),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid-cold",
            Workload::CellsDeep => "cells-deep",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Worker threads of (the timed phase, set-up) on a host with
    /// `nproc` hardware threads.
    fn threads(self, nproc: usize) -> (usize, usize) {
        match self {
            Workload::GridCold => (nproc, nproc),
            Workload::CellsDeep => (1, 1),
            Workload::ServeWarm => (1, nproc),
        }
    }
}

/// How big one run is. `FULL` produces the ledger's numbers; `QUICK`
/// is the reduced size the benchmark's own tests run.
#[derive(Debug, Clone, Copy)]
struct Scale {
    name: &'static str,
    /// Instructions per core of every grid cell, in both `grid-cold` and
    /// the store `serve-warm` serves: the `sweep serve` default, so the
    /// records `serve-warm` reads are the size a user's requests read.
    grid_instr: u64,
    /// Instructions per core of every `cells-deep` cell: long enough
    /// that per-cell set-up is a small share.
    deep_instr: u64,
    /// Requests per `serve-warm` pass.
    serve_queue: usize,
    /// Set-ups per run at least, and until this many seconds of set-up
    /// are measured; `setup_s` is their median.
    setup_reps: usize,
    setup_seconds: f64,
    /// Passes per run at least, however short `--seconds` is.
    min_passes: usize,
}

const FULL: Scale = Scale {
    name: "full",
    grid_instr: 150_000,
    deep_instr: 600_000,
    serve_queue: 1152,
    setup_reps: 3,
    setup_seconds: 3.0,
    min_passes: 3,
};

const QUICK: Scale = Scale {
    name: "quick",
    grid_instr: 3_000,
    deep_instr: 20_000,
    serve_queue: 200,
    setup_reps: 2,
    setup_seconds: 0.0,
    min_passes: 2,
};

/// A set-up primes with a pass at this fraction of the budget.
const PRIME_DIVISOR: u64 = 10;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    inject_mismatch: bool,
    work_dir: PathBuf,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = FULL;
    let mut inject_mismatch = false;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut git_rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--git-rev" => git_rev = value()?,
            "--quick" => scale = QUICK,
            "--inject-mismatch" => inject_mismatch = true,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        inject_mismatch,
        work_dir,
        git_rev,
    })
}

/// One printed metric.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The run's scratch directory; removed when the run ends, however it
/// ends.
#[derive(Debug)]
struct RunDir(PathBuf);

impl RunDir {
    fn create(work_dir: &Path, workload: Workload) -> Result<Self, String> {
        let dir = work_dir.join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    fn store(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Corrupt one result the way a model defect would: one core retires
/// one instruction more than its budget.
fn inject(r: &mut ExperimentResult) {
    r.stats.cores[0].instructions += 1;
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (timed_threads, setup_threads) = args.workload.threads(threads);
    println!(
        "host: nproc={threads} threads={timed_threads} setup_threads={setup_threads} profile={} cycle_profile={} git_rev={} code_fingerprint={}",
        if cfg!(debug_assertions) { "debug" } else { "release" },
        cfg!(feature = "cycle-profile"),
        args.git_rev,
        cmpleak_store::code_fingerprint()
    );
    println!(
        "run: workload={} seed={} seconds={} trace={} scale={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale.name
    );
    let result = RunDir::create(&args.work_dir, args.workload).and_then(|dir| {
        if args.trace {
            layers::per_layer(&args, &dir, threads)
        } else {
            e2e::end_to_end(&args, &dir, threads)
        }
    });
    match result {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
