//! Result-store harness: measures what the content-addressed
//! persistent store buys — replaying a previously published grid from
//! disk instead of re-simulating it — and what in-pool stream
//! recording costs across worker counts, and emits `BENCH_store.json`.
//!
//! ```text
//! store [--instr N] [--reps N] [--quick] [--out PATH]
//! ```
//!
//! Two sections:
//!
//! * **cold vs warm** — the paper grid through `run_sweep` against a
//!   fresh store (every cell a miss: simulate + publish) and then again
//!   against the now-populated store (every cell a hit: decode only).
//!   Both passes are asserted byte-identical to `run_sweep` on the
//!   store-less configuration before timing — the store may change
//!   latency, never results.
//! * **recording** — the same grid uncached at 1, 2 and 8 worker
//!   threads, exercising the in-pool first-toucher stream recording;
//!   all thread counts are asserted byte-identical.
//!
//! `--quick` shrinks everything to a CI smoke asserting the warm pass
//! is at least 2× the cold pass and thread counts agree; the committed
//! JSON is a full run (where warm replay is expected well above 5×).

use cmpleak_core::sweep::{run_sweep, run_sweep_with_telemetry, SweepConfig, SweepTelemetry};
use cmpleak_core::{ExperimentScratch, Scenario, Technique, WorkloadSpec};
use cmpleak_store::ResultStore;
use cmpleak_workloads::ScenarioSpec;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct PassCell {
    /// Wall-clock seconds, best of `reps`.
    wall_s: f64,
    store_hits: usize,
    store_misses: usize,
    /// Stream groups recorded in-pool during the pass.
    recorded: usize,
}

#[derive(Debug, Serialize)]
struct ThreadCell {
    threads: usize,
    /// Wall-clock seconds, best of `reps` (uncached, in-pool recording).
    wall_s: f64,
    recorded: usize,
    /// `serial wall_s / this wall_s`.
    speedup_vs_serial: f64,
}

#[derive(Debug, Serialize)]
struct StoreReport {
    instructions_per_core: u64,
    n_cores: usize,
    reps: u32,
    scenarios: usize,
    sizes: usize,
    cells: usize,
    /// On-disk records after the cold pass.
    records: usize,
    cold: PassCell,
    warm: PassCell,
    /// `cold.wall_s / warm.wall_s` — what a fully-warm repeat buys.
    warm_speedup: f64,
    recording: Vec<ThreadCell>,
}

struct Opts {
    instr: u64,
    reps: u32,
    quick: bool,
    out: Option<String>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts { instr: 150_000, reps: 2, quick: false, out: None };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--instr" => opts.instr = args.next().and_then(|v| v.parse().ok()).expect("--instr N"),
            "--reps" => opts.reps = args.next().and_then(|v| v.parse().ok()).expect("--reps N"),
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(args.next().expect("--out PATH")),
            other => panic!("unknown argument {other} (try --instr/--reps/--quick/--out)"),
        }
    }
    if opts.quick {
        opts.instr = opts.instr.min(30_000);
        opts.reps = 2;
    }
    opts
}

fn scenarios(quick: bool) -> Vec<Scenario> {
    let mut v: Vec<Scenario> =
        WorkloadSpec::paper_suite().into_iter().map(Scenario::Homogeneous).collect();
    v.extend(ScenarioSpec::paper_mixes().into_iter().map(Scenario::Mix));
    if quick {
        v = vec![
            Scenario::Homogeneous(WorkloadSpec::water_ns()),
            Scenario::Mix(ScenarioSpec::bursty_idle()),
        ];
    }
    v
}

fn grid_cfg(opts: &Opts, sizes: &[usize], threads: usize) -> SweepConfig {
    SweepConfig {
        scenarios: scenarios(opts.quick),
        sizes_mb: sizes.to_vec(),
        techniques: Technique::paper_set(),
        instructions_per_core: opts.instr,
        seed: 42,
        n_cores: 4,
        threads,
        store: None,
    }
}

/// Best-of-`reps` wall-clock of `f`, with a per-rep reset hook that is
/// NOT timed (wiping the store between cold reps).
fn time_s(reps: u32, mut reset: impl FnMut(), mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        reset();
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn json(results: &cmpleak_core::sweep::SweepResults) -> String {
    serde_json::to_string(results).expect("serializable")
}

fn main() {
    let opts = parse_opts();
    let sizes: Vec<usize> = if opts.quick { vec![1] } else { vec![1, 2, 4, 8] };
    let root = std::env::temp_dir().join(format!("cmpleak-store-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();

    // Ground truth: the store-less grid. Every store-backed pass below
    // must reproduce this byte-for-byte.
    let cfg = grid_cfg(&opts, &sizes, 0);
    let fresh = run_sweep(&cfg);
    let fresh_json = json(&fresh);
    let cells = fresh.cells.len();
    println!(
        "grid: {} scenarios x {} sizes x {} techniques = {} cells",
        cfg.scenarios.len(),
        sizes.len(),
        cfg.techniques.len(),
        cells
    );

    // == cold vs warm ==
    let store = Arc::new(ResultStore::open(&root).expect("store root"));
    let mut cached_cfg = grid_cfg(&opts, &sizes, 0);
    cached_cfg.store = Some(Arc::clone(&store));

    let mut scratch = ExperimentScratch::default();
    let mut telemetry = SweepTelemetry::default();
    let cold_s = time_s(
        opts.reps,
        || {
            // Wipe so every rep is a true cold start (untimed).
            std::fs::remove_dir_all(&root).ok();
            std::fs::create_dir_all(&root).expect("store root");
        },
        || {
            let (res, t) = run_sweep_with_telemetry(&cached_cfg, &mut scratch);
            assert_eq!(json(&res), fresh_json, "cold store pass diverged from uncached");
            telemetry = t;
        },
    );
    let cold = PassCell {
        wall_s: cold_s,
        store_hits: telemetry.store_hits,
        store_misses: telemetry.store_misses,
        recorded: telemetry.recorded,
    };
    assert_eq!(cold.store_hits, 0, "cold pass saw hits in a wiped store");
    let records = store.record_count();
    println!(
        "cold: {:.3}s ({} misses published, {} stream groups recorded, {} records on disk)",
        cold.wall_s, cold.store_misses, cold.recorded, records
    );

    let warm_s = time_s(
        opts.reps,
        || {},
        || {
            let (res, t) = run_sweep_with_telemetry(&cached_cfg, &mut scratch);
            assert_eq!(json(&res), fresh_json, "warm store pass diverged from uncached");
            telemetry = t;
        },
    );
    let warm = PassCell {
        wall_s: warm_s,
        store_hits: telemetry.store_hits,
        store_misses: telemetry.store_misses,
        recorded: telemetry.recorded,
    };
    assert_eq!(warm.store_misses, 0, "warm pass re-simulated a stored cell");
    assert_eq!(warm.recorded, 0, "warm pass recorded streams it never replays");
    let warm_speedup = cold.wall_s / warm.wall_s;
    println!(
        "warm: {:.3}s ({} hits, {} recorded) -> {:.1}x over cold",
        warm.wall_s, warm.store_hits, warm.recorded, warm_speedup
    );

    // == in-pool recording scaling (uncached) ==
    let mut recording = Vec::new();
    let mut serial_s = f64::NAN;
    for threads in [1usize, 2, 8] {
        let cfg_t = grid_cfg(&opts, &sizes, threads);
        let mut t = SweepTelemetry::default();
        let wall_s = time_s(
            opts.reps,
            || {},
            || {
                let (res, tel) =
                    run_sweep_with_telemetry(&cfg_t, &mut ExperimentScratch::default());
                assert_eq!(
                    json(&res),
                    fresh_json,
                    "in-pool recording diverged at {threads} thread(s)"
                );
                t = tel;
            },
        );
        if threads == 1 {
            serial_s = wall_s;
        }
        let cell = ThreadCell {
            threads,
            wall_s,
            recorded: t.recorded,
            speedup_vs_serial: serial_s / wall_s,
        };
        println!(
            "recording @ {} thread(s): {:.3}s ({} groups recorded in-pool, {:.2}x vs serial)",
            cell.threads, cell.wall_s, cell.recorded, cell.speedup_vs_serial
        );
        recording.push(cell);
    }

    if opts.quick {
        // CI smoke: a fully-warm repeat must beat a cold run by a wide
        // margin even at smoke scale (full runs land far above this).
        assert!(warm_speedup > 2.0, "warm store replay only {warm_speedup:.2}x over cold");
    }

    let report = StoreReport {
        instructions_per_core: opts.instr,
        n_cores: 4,
        reps: opts.reps,
        scenarios: cfg.scenarios.len(),
        sizes: sizes.len(),
        cells,
        records,
        cold,
        warm,
        warm_speedup,
        recording,
    };
    std::fs::remove_dir_all(&root).ok();
    if let Some(path) = &opts.out {
        let mut json = serde_json::to_string_pretty(&report).expect("serializable");
        json.push('\n');
        std::fs::write(path, json).expect("report written");
        println!("wrote {path}");
    }
}
