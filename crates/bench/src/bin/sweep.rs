//! Sweep throughput harness: measures what the shared-op-stream layer
//! buys — recording each (scenario, seed, budget) group once and
//! replaying cursors in every cell, vs. regenerating the streams live
//! per cell — and emits `BENCH_sweep.json`.
//!
//! ```text
//! sweep [--instr N] [--reps N] [--quick] [--out PATH]
//! sweep serve [--store DIR] [--requests PATH] [--instr N] [--out PATH]
//! ```
//!
//! The `serve` subcommand turns the sweep into sweep-as-a-service: it
//! reads experiment-cell requests (one per line: `scenario technique
//! size_mb [instr]`; `#` comments), answers every cell already in the
//! persistent result store from disk, batches the misses into grouped
//! sweep grids that publish back to the store, and reports per-request
//! hit/miss and load latency. See the "Persistent result store"
//! section of the README.
//!
//! Three sections:
//!
//! * **groups** — every (scenario × size) group of the paper grid
//!   (baseline + 7 techniques per group, baseline derived), timed
//!   serially: `run_sweep` (shared streams) vs. `run_sweep_unshared`
//!   (live generation; baseline memoization on in both arms, so the
//!   delta isolates stream sharing). Both arms are asserted
//!   byte-identical before timing.
//! * **grid** — the whole multi-threaded paper grid, wall-clock.
//! * **streams** — per-scenario recording cost and replay rate: ns/op
//!   for live generation vs. cursor decode, plus the encoded bytes a
//!   shared recording holds resident (the memory cost of sharing).
//!
//! `--quick` shrinks everything to a CI smoke asserting the shared path
//! is not slower beyond noise; the committed JSON is a full run.

use cmpleak_core::sweep::{
    run_sweep_unshared, run_sweep_with_scratch, run_sweep_with_telemetry, SweepConfig,
};
use cmpleak_core::{ExperimentConfig, ExperimentScratch, Scenario, Technique, WorkloadSpec};
use cmpleak_mem::BankArena;
use cmpleak_store::ResultStore;
use cmpleak_workloads::ScenarioSpec;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct GroupCell {
    scenario: String,
    size_mb: usize,
    /// Cells in the group (baseline + techniques).
    cells: usize,
    /// Wall-clock seconds, live generation per cell (memoized baseline).
    live_s: f64,
    /// Wall-clock seconds, shared streams (memoized baseline).
    shared_s: f64,
    /// `live_s / shared_s`.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct StreamCell {
    scenario: String,
    /// Ops recorded per core stream (core 0 shown; streams are similar).
    ops_per_core: u64,
    /// Encoded bytes the shared recording keeps resident (all cores).
    resident_bytes: usize,
    /// Encoded bytes per op.
    bytes_per_op: f64,
    /// Nanoseconds per op, live generation (LiveGen over the spec).
    live_ns_per_op: f64,
    /// Nanoseconds per op, shared-cursor replay.
    replay_ns_per_op: f64,
}

#[derive(Debug, Serialize)]
struct GridReport {
    scenarios: usize,
    sizes: usize,
    cells: usize,
    threads: usize,
    live_s: f64,
    shared_s: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct SweepReport {
    instructions_per_core: u64,
    n_cores: usize,
    reps: u32,
    groups: Vec<GroupCell>,
    grid: GridReport,
    streams: Vec<StreamCell>,
}

struct Opts {
    instr: u64,
    reps: u32,
    quick: bool,
    out: Option<String>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts { instr: 150_000, reps: 3, quick: false, out: None };
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

fn group_cfg(scenario: &Scenario, size_mb: usize, instr: u64) -> SweepConfig {
    SweepConfig {
        scenarios: vec![scenario.clone()],
        sizes_mb: vec![size_mb],
        techniques: Technique::paper_set(),
        instructions_per_core: instr,
        seed: 42,
        n_cores: 4,
        threads: 1, // serial: measure simulation work, not scheduling
        store: None,
    }
}

/// Best-of-`reps` wall-clock of `f`.
fn time_s(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`reps` wall-clock of two arms, interleaved A/B per rep so a
/// transient machine-noise window degrades both arms instead of
/// silently skewing whichever one it landed on.
fn time_pair(reps: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        a();
        best_a = best_a.min(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        b();
        best_b = best_b.min(t1.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

fn group_section(opts: &Opts, sizes: &[usize]) -> Vec<GroupCell> {
    let mut out = Vec::new();
    let mut scratch = ExperimentScratch::default();
    for scenario in scenarios(opts.quick) {
        for &size in sizes {
            let cfg = group_cfg(&scenario, size, opts.instr);
            // Identity first (the differential tests pin this at scale;
            // here it guards the numbers below against divergence).
            let a = run_sweep_with_scratch(&cfg, &mut scratch);
            let b = run_sweep_unshared(&cfg);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "shared and live sweeps diverged for {}@{size}MB",
                scenario.label()
            );
            let (shared_s, live_s) = time_pair(
                opts.reps,
                || {
                    std::hint::black_box(run_sweep_with_scratch(&cfg, &mut scratch));
                },
                || {
                    std::hint::black_box(run_sweep_unshared(&cfg));
                },
            );
            let cell = GroupCell {
                scenario: scenario.label(),
                size_mb: size,
                cells: a.cells.len(),
                live_s,
                shared_s,
                speedup: live_s / shared_s,
            };
            println!(
                "{:<22} {:>2} MB | live {:>7.3}s vs shared {:>7.3}s ({:>5.2}x)",
                cell.scenario, cell.size_mb, cell.live_s, cell.shared_s, cell.speedup
            );
            out.push(cell);
        }
    }
    out
}

fn grid_section(opts: &Opts, sizes: &[usize]) -> GridReport {
    let cfg = SweepConfig {
        scenarios: scenarios(opts.quick),
        sizes_mb: sizes.to_vec(),
        techniques: Technique::paper_set(),
        instructions_per_core: opts.instr,
        seed: 42,
        n_cores: 4,
        threads: 0,
        store: None,
    };
    let mut scratch = ExperimentScratch::default();
    let mut cells = 0;
    let (shared_s, live_s) = time_pair(
        opts.reps,
        || {
            cells = run_sweep_with_scratch(&cfg, &mut scratch).cells.len();
        },
        || {
            std::hint::black_box(run_sweep_unshared(&cfg));
        },
    );
    GridReport {
        scenarios: cfg.scenarios.len(),
        sizes: sizes.len(),
        cells,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        live_s,
        shared_s,
        speedup: live_s / shared_s,
    }
}

fn stream_section(opts: &Opts) -> Vec<StreamCell> {
    let mut out = Vec::new();
    for scenario in scenarios(opts.quick) {
        let mut arena = BankArena::default();
        let shared = scenario.record_shared(4, 42, opts.instr, &mut arena);
        let Scenario::SharedStream { trace } = &shared else { unreachable!() };
        let ops: u64 = (0..4).map(|c| trace.core_info(c).ops).sum();

        // ns/op live generation (through the LiveGen adapter, as the
        // simulator consumes it).
        let mut live = scenario.build_sources(4, 42, opts.instr);
        let live_ns = time_s(opts.reps, || {
            for src in live.iter_mut() {
                for _ in 0..trace.core_info(0).ops {
                    std::hint::black_box(src.next_op());
                }
            }
        }) * 1e9
            / (4 * trace.core_info(0).ops) as f64;

        // ns/op shared-cursor replay.
        let replay_ns = time_s(opts.reps, || {
            for c in 0..4 {
                let mut cur = trace.cursor(c);
                for _ in 0..cur.total_ops() {
                    std::hint::black_box(cmpleak_cpu::Workload::next_op(&mut cur));
                }
            }
        }) * 1e9
            / ops as f64;

        let cell = StreamCell {
            scenario: scenario.label(),
            ops_per_core: trace.core_info(0).ops,
            resident_bytes: trace.stream_bytes(),
            bytes_per_op: trace.stream_bytes() as f64 / ops as f64,
            live_ns_per_op: live_ns,
            replay_ns_per_op: replay_ns,
        };
        println!(
            "{:<22} | {:>8} ops/core, {:>9} B resident ({:>4.2} B/op) | gen {:>5.2} ns/op vs replay {:>5.2} ns/op",
            cell.scenario, cell.ops_per_core, cell.resident_bytes, cell.bytes_per_op,
            cell.live_ns_per_op, cell.replay_ns_per_op
        );
        out.push(cell);
    }
    out
}

// ---------------------------------------------------------------------------
// `sweep serve` — sweep-as-a-service over the persistent result store.
// ---------------------------------------------------------------------------

struct ServeOpts {
    store: String,
    /// Request file; `None` reads stdin.
    requests: Option<String>,
    /// Default instruction budget for requests that omit one.
    instr: u64,
    seed: u64,
    n_cores: usize,
    threads: usize,
    out: Option<String>,
}

fn parse_serve_opts(args: &[String]) -> ServeOpts {
    let mut opts = ServeOpts {
        store: ".cmpleak-store".to_string(),
        requests: None,
        instr: 150_000,
        seed: 42,
        n_cores: 4,
        threads: 0,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => opts.store = it.next().expect("--store DIR").clone(),
            "--requests" => opts.requests = Some(it.next().expect("--requests PATH").clone()),
            "--instr" => opts.instr = it.next().and_then(|v| v.parse().ok()).expect("--instr N"),
            "--seed" => opts.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--n-cores" => {
                opts.n_cores = it.next().and_then(|v| v.parse().ok()).expect("--n-cores N")
            }
            "--threads" => {
                opts.threads = it.next().and_then(|v| v.parse().ok()).expect("--threads N")
            }
            "--out" => opts.out = Some(it.next().expect("--out PATH").clone()),
            other => panic!(
                "unknown serve argument {other} (try --store/--requests/--instr/--seed/--n-cores/--threads/--out)"
            ),
        }
    }
    opts
}

/// One parsed request line, carrying the exact cell configuration a
/// sweep would build for it — so its content address matches what
/// `run_sweep` publishes.
struct Request {
    line_no: usize,
    cfg: ExperimentConfig,
}

/// Requests the service can name: the paper suite plus the mixes, and
/// the baseline plus the seven paper techniques.
fn serve_catalog() -> (Vec<Scenario>, Vec<Technique>) {
    let mut scenarios: Vec<Scenario> =
        WorkloadSpec::paper_suite().into_iter().map(Scenario::Homogeneous).collect();
    scenarios.extend(ScenarioSpec::paper_mixes().into_iter().map(Scenario::Mix));
    let mut techniques = vec![Technique::Baseline];
    techniques.extend(Technique::paper_set());
    (scenarios, techniques)
}

#[derive(Debug, Serialize)]
struct ServeRow {
    line: usize,
    scenario: String,
    technique: String,
    size_mb: usize,
    instructions_per_core: u64,
    /// Whether the first probe answered from the store (before any
    /// batched simulation this run published).
    hit: bool,
    /// Latency of the answering store load, microseconds.
    load_us: f64,
    cycles: u64,
    avg_power_w: f64,
}

#[derive(Debug, Serialize)]
struct ServeReport {
    store: String,
    requests: usize,
    skipped: usize,
    hits: usize,
    misses: usize,
    /// Grid cells the miss batches simulated beyond the missed
    /// requests themselves — published to the store as prefetch.
    prefetched: usize,
    /// Wall-clock seconds spent in the batched miss grids.
    batch_s: f64,
    /// Lane-engine riders the miss batches forked off their trunks.
    forks: usize,
    /// Cycles those riders rode their trunks instead of stepping them.
    cycles_shared: u64,
    rows: Vec<ServeRow>,
}

/// A batch of missed cells sharing (scenario, instruction budget):
/// served as one sweep grid so stream recording, baseline memoization
/// and the worker pool amortize across them.
struct MissGroup {
    scenario: Scenario,
    sizes: std::collections::BTreeSet<usize>,
    /// Non-baseline techniques, deduped (the grid's implicit baseline
    /// slot covers baseline requests).
    techniques: Vec<Technique>,
    /// Content addresses of the requested cells in this group.
    missed: std::collections::BTreeSet<String>,
}

fn serve(args: &[String]) {
    let opts = parse_serve_opts(args);
    let text = match &opts.requests {
        Some(path) => std::fs::read_to_string(path).expect("requests readable"),
        None => {
            let mut s = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut s).expect("stdin readable");
            s
        }
    };
    let (scenarios, techniques) = serve_catalog();
    let store = Arc::new(ResultStore::open(&opts.store).expect("store root"));
    println!("store: {} ({} records)", opts.store, store.record_count());

    // Parse. Malformed lines are reported and skipped, never fatal —
    // the queue may be machine-generated and partially stale.
    let mut skipped = 0usize;
    let mut requests: Vec<Request> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(scen), Some(tech), Some(size)) = (parts.next(), parts.next(), parts.next())
        else {
            eprintln!("line {line_no}: want `scenario technique size_mb [instr]` — skipped");
            skipped += 1;
            continue;
        };
        let Some(scenario) = scenarios.iter().find(|s| s.label() == scen) else {
            let known: Vec<String> = scenarios.iter().map(|s| s.label()).collect();
            eprintln!(
                "line {line_no}: unknown scenario `{scen}` (known: {}) — skipped",
                known.join(", ")
            );
            skipped += 1;
            continue;
        };
        let Some(&technique) = techniques.iter().find(|t| t.name() == tech) else {
            let known: Vec<String> = techniques.iter().map(|t| t.name()).collect();
            eprintln!(
                "line {line_no}: unknown technique `{tech}` (known: {}) — skipped",
                known.join(", ")
            );
            skipped += 1;
            continue;
        };
        let instr = parts.next().map_or(Ok(opts.instr), str::parse);
        let (Ok(size_mb), Ok(instr)) = (size.parse::<usize>(), instr) else {
            eprintln!("line {line_no}: bad size/instr in `{line}` — skipped");
            skipped += 1;
            continue;
        };
        let mut cfg = ExperimentConfig::paper_scenario(scenario.clone(), technique, size_mb);
        cfg.instructions_per_core = instr;
        cfg.seed = opts.seed;
        cfg.n_cores = opts.n_cores;
        requests.push(Request { line_no, cfg });
    }

    // First probe: answer whatever the store already holds; misses are
    // deduped into (scenario, budget) batches.
    let mut answers = Vec::with_capacity(requests.len());
    let mut hits = 0usize;
    let mut groups: std::collections::BTreeMap<(String, u64), MissGroup> =
        std::collections::BTreeMap::new();
    for req in &requests {
        let key = req.cfg.store_key();
        let t0 = Instant::now();
        let cell = store.load(&key);
        let load_us = t0.elapsed().as_secs_f64() * 1e6;
        match cell {
            Some(c) => {
                hits += 1;
                answers.push(Some((true, load_us, c)));
            }
            None => {
                answers.push(None);
                let g = groups
                    .entry((req.cfg.scenario.label(), req.cfg.instructions_per_core))
                    .or_insert_with(|| MissGroup {
                        scenario: req.cfg.scenario.clone(),
                        sizes: Default::default(),
                        techniques: Vec::new(),
                        missed: Default::default(),
                    });
                g.sizes.insert(req.cfg.total_l2_mb);
                if !matches!(req.cfg.technique, Technique::Baseline)
                    && !g.techniques.iter().any(|t| t.name() == req.cfg.technique.name())
                {
                    g.techniques.push(req.cfg.technique);
                }
                g.missed.insert(key.hex());
            }
        }
    }
    let misses = requests.len() - hits;

    // Batched miss grids: each group runs as one sweep with the store
    // attached, so every simulated cell (requested or grid prefetch)
    // is published for future requests.
    let mut prefetched = 0usize;
    let (mut forks, mut cycles_shared) = (0usize, 0u64);
    let t0 = Instant::now();
    for ((label, instr), g) in &groups {
        let cfg = SweepConfig {
            scenarios: vec![g.scenario.clone()],
            sizes_mb: g.sizes.iter().copied().collect(),
            techniques: g.techniques.clone(),
            instructions_per_core: *instr,
            seed: opts.seed,
            n_cores: opts.n_cores,
            threads: opts.threads,
            store: Some(Arc::clone(&store)),
        };
        let (res, telemetry) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
        forks += telemetry.forks;
        cycles_shared += telemetry.cycles_shared;
        let extra = res.cells.len().saturating_sub(g.missed.len());
        prefetched += extra;
        println!(
            "batched {label} @ {instr} instr: {} grid cells for {} missed requests ({extra} prefetched)",
            res.cells.len(),
            g.missed.len()
        );
    }
    let batch_s = t0.elapsed().as_secs_f64();

    // Second probe: every miss is now on disk.
    let mut rows = Vec::with_capacity(requests.len());
    for (req, ans) in requests.iter().zip(answers) {
        let (hit, load_us, cell) = ans.unwrap_or_else(|| {
            let key = req.cfg.store_key();
            let t0 = Instant::now();
            let cell = store.load(&key).expect("batched grid published every missed cell");
            (false, t0.elapsed().as_secs_f64() * 1e6, cell)
        });
        let row = ServeRow {
            line: req.line_no,
            scenario: req.cfg.scenario.label(),
            technique: req.cfg.technique.name(),
            size_mb: req.cfg.total_l2_mb,
            instructions_per_core: req.cfg.instructions_per_core,
            hit,
            load_us,
            cycles: cell.stats.cycles,
            avg_power_w: cell.power.avg_power_w,
        };
        println!(
            "{:<22} {:<13} {:>2} MB | {} {:>9.1} us | {:>10} cycles {:>7.3} W",
            row.scenario,
            row.technique,
            row.size_mb,
            if row.hit { "hit " } else { "miss" },
            row.load_us,
            row.cycles,
            row.avg_power_w
        );
        rows.push(row);
    }

    println!(
        "{} request(s): {hits} hit / {misses} miss ({skipped} skipped), {prefetched} prefetched, batch {batch_s:.2}s, store now {} records",
        requests.len(),
        store.record_count()
    );
    println!("lanes: {forks} rider fork(s), {cycles_shared} cycles shared with trunks");
    let report = ServeReport {
        store: opts.store.clone(),
        requests: requests.len(),
        skipped,
        hits,
        misses,
        prefetched,
        batch_s,
        forks,
        cycles_shared,
        rows,
    };
    if let Some(path) = &opts.out {
        let mut json = serde_json::to_string_pretty(&report).expect("serializable");
        json.push('\n');
        std::fs::write(path, json).expect("report written");
        println!("wrote {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve(&args[1..]);
        return;
    }
    let opts = parse_opts();
    let sizes: Vec<usize> = if opts.quick { vec![1] } else { vec![1, 2, 4, 8] };

    println!("== per-group sweeps: shared streams vs live generation (serial) ==");
    let groups = group_section(&opts, &sizes);

    println!("== whole paper grid (threads = available) ==");
    let grid = grid_section(&opts, &sizes);
    println!(
        "{} cells | live {:.2}s vs shared {:.2}s ({:.2}x)",
        grid.cells, grid.live_s, grid.shared_s, grid.speedup
    );

    println!("== stream recording cost / replay rate ==");
    let streams = stream_section(&opts);

    let worst = groups.iter().map(|g| g.speedup).fold(f64::INFINITY, f64::min);
    let mean = groups.iter().map(|g| g.speedup).sum::<f64>() / groups.len().max(1) as f64;
    println!("worst group {worst:.2}x, mean group {mean:.2}x, grid {:.2}x", grid.speedup);

    if opts.quick {
        // CI smoke: sharing must never cost more than noise.
        assert!(worst > 0.90, "shared-stream sweep regressed on a group ({worst:.2}x)");
        for s in &streams {
            assert!(
                s.replay_ns_per_op < s.live_ns_per_op * 1.5,
                "cursor replay catastrophically slower than generation: {s:?}"
            );
        }
    }

    let report = SweepReport {
        instructions_per_core: opts.instr,
        n_cores: 4,
        reps: opts.reps,
        groups,
        grid,
        streams,
    };
    if let Some(path) = &opts.out {
        let mut json = serde_json::to_string_pretty(&report).expect("serializable");
        json.push('\n');
        std::fs::write(path, json).expect("report written");
        println!("wrote {path}");
    }
}
