//! The paper grid: 6 `paper_suite` scenarios plus 3 `paper_mixes`, ×
//! {1, 2, 4, 8} MB, × baseline + `Technique::paper_set()` = 288 cells.
//!
//! Two ways to run it. [`run_untraced`] is what a user runs: one
//! `run_sweep_with_telemetry` call at `threads` workers with an empty
//! store attached. [`run_traced`] makes, on one thread, the same public
//! calls the planner makes (record each scenario's stream, run each
//! (scenario, size) group as lanes, evaluate energy, derive the
//! baseline, key and publish every cell), one span per call, so the
//! time splits by layer; its results must digest identically.

use crate::measure::{self, Counts};
use crate::tracer::{Layer, Tracer};
use cmpleak_core::experiment::derive_baseline_cell;
use cmpleak_core::{
    run_sweep_with_telemetry, ExperimentConfig, ExperimentResult, ExperimentScratch, Scenario,
    ScenarioSpec, SweepConfig, SweepResults, SweepTelemetry, Technique, WorkloadSpec,
};
use cmpleak_power::evaluate_energy;
use cmpleak_store::ResultStore;
use cmpleak_system::{run_lane_group, LaneScratch};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const N_CORES: usize = 4;
pub const SIZES_MB: [usize; 4] = [1, 2, 4, 8];

pub fn scenarios() -> Vec<Scenario> {
    let mut s: Vec<Scenario> =
        WorkloadSpec::paper_suite().into_iter().map(Scenario::Homogeneous).collect();
    s.extend(ScenarioSpec::paper_mixes().into_iter().map(Scenario::Mix));
    s
}

/// Cells per (scenario, size) group: the baseline, then the paper set.
pub fn group_len() -> usize {
    1 + Technique::paper_set().len()
}

/// Every cell's configuration in the planner's order: (scenario, size)
/// groups, baseline first.
pub fn cell_configs(instructions_per_core: u64, seed: u64) -> Vec<ExperimentConfig> {
    let mut techs = vec![Technique::Baseline];
    techs.extend(Technique::paper_set());
    let mut cfgs = Vec::new();
    for scenario in scenarios() {
        for size in SIZES_MB {
            for &tech in &techs {
                let mut c = ExperimentConfig::paper_scenario(scenario.clone(), tech, size);
                c.instructions_per_core = instructions_per_core;
                c.seed = seed;
                c.n_cores = N_CORES;
                cfgs.push(c);
            }
        }
    }
    cfgs
}

/// A fresh, empty store at `dir` (whatever an earlier pass left there
/// is removed first).
pub fn fresh_store(dir: &Path) -> Result<Arc<ResultStore>, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    ResultStore::open(dir)
        .map(Arc::new)
        .map_err(|e| format!("cannot open store {}: {e}", dir.display()))
}

/// One untraced grid run through the planner into `store`; returns the
/// results, the planner's telemetry and the host seconds of the call.
pub fn run_untraced(
    instructions_per_core: u64,
    seed: u64,
    threads: usize,
    store: Arc<ResultStore>,
) -> (SweepResults, SweepTelemetry, f64) {
    let mut cfg = SweepConfig::paper(instructions_per_core);
    cfg.scenarios = scenarios();
    cfg.sizes_mb = SIZES_MB.to_vec();
    cfg.seed = seed;
    cfg.n_cores = N_CORES;
    cfg.threads = threads;
    cfg.store = Some(store);
    let mut scratch = ExperimentScratch::default();
    let t0 = Instant::now();
    let (results, telemetry) = run_sweep_with_telemetry(&cfg, &mut scratch);
    (results, telemetry, t0.elapsed().as_secs_f64())
}

/// What the checks of one grid run found.
#[derive(Debug)]
pub struct GridCheck {
    pub failed: u64,
    /// Per-cell payload digests, in grid order.
    pub cells: Vec<u64>,
    /// Digest of the cells and the summary.
    pub digest: u64,
    /// Σ cycles of every delivered cell, derived baselines included.
    pub delivered_cycles: u64,
    /// Each cell's payload as published (`serve-warm`'s reference
    /// answers).
    pub payloads: Vec<Vec<u8>>,
}

/// Check an untraced grid run: every cell must be in the store, retire
/// exactly its budget on every core, and agree with the summary the
/// planner returned. A cell failing any check counts once.
pub fn check_untraced(
    cfgs: &[ExperimentConfig],
    store: &ResultStore,
    results: &SweepResults,
) -> GridCheck {
    // A missing or extra cell fails the whole grid.
    let mut failed = if results.cells.len() == cfgs.len() { 0 } else { cfgs.len() as u64 };
    let mut payloads = Vec::with_capacity(cfgs.len());
    for (cfg, cell) in cfgs.iter().zip(&results.cells) {
        let loaded = store.load(&cfg.store_key()).map(|c| cmpleak_core::result_from_stored(cfg, c));
        let ok = loaded.as_ref().is_some_and(|r| {
            measure::retired_budget(&r.stats, cfg.instructions_per_core)
                && r.stats.cycles == cell.cycles
                && r.stats.mem_bytes == cell.mem_bytes
                && r.power.energy.total_pj().to_bits() == cell.energy_pj.to_bits()
                && r.power.avg_l2_temp_c.to_bits() == cell.avg_l2_temp_c.to_bits()
        });
        failed += u64::from(!ok);
        payloads.push(loaded.map(|r| measure::payload(&r)).unwrap_or_default());
    }
    let cells: Vec<u64> = payloads.iter().map(|p| measure::cell_digest(p)).collect();
    GridCheck {
        failed,
        digest: measure::run_digest(&cells, Some(results)),
        cells,
        delivered_cycles: results.cells.iter().map(|c| c.cycles).sum(),
        payloads,
    }
}

/// The planner's work, decomposed into its public calls on one thread
/// with a span around each. Returns every cell's result in grid order.
pub fn run_traced(
    t: &mut Tracer,
    instructions_per_core: u64,
    seed: u64,
    store: &ResultStore,
    counts: &mut Counts,
) -> Vec<ExperimentResult> {
    let cfgs = cell_configs(instructions_per_core, seed);
    let group_len = group_len();
    // The planner derives each group's baseline from its first
    // timing-identical technique (Protocol) instead of simulating it.
    let donor = Technique::paper_set()
        .iter()
        .position(|t| t.timing_identical_to_baseline())
        .map(|i| i + 1)
        .expect("the paper set holds a timing-identical technique");
    t.span(Layer::Core, "grid", |t| {
        // Recording buffers come from a stream arena, as in the planner.
        let mut streams = ExperimentScratch::default();
        let mut lanes = LaneScratch::default();
        let mut results = Vec::with_capacity(cfgs.len());
        for scenario_groups in cfgs.chunks(group_len * SIZES_MB.len()) {
            let original = &scenario_groups[0].scenario;
            let recorded = t.span(Layer::Trace, "Scenario::record_shared", |_| {
                original.record_shared(N_CORES, seed, instructions_per_core, streams.stream_arena())
            });
            counts.groups_recorded += 1;
            if let Scenario::SharedStream { trace } = &recorded {
                for c in 0..trace.n_cores() {
                    counts.record_ops += trace.core_info(c).ops;
                }
                counts.record_bytes += trace.stream_bytes() as u64;
            }
            for group in scenario_groups.chunks(group_len) {
                t.span(Layer::Core, "group", |t| {
                    results
                        .extend(run_group(t, group, donor, &recorded, store, &mut lanes, counts));
                });
            }
        }
        results
    })
}

/// One (scenario, size) group: probe the store, run the simulated
/// cells as lanes over the shared recording, evaluate energy, derive
/// the baseline, publish everything.
fn run_group(
    t: &mut Tracer,
    group: &[ExperimentConfig],
    donor: usize,
    recorded: &Scenario,
    store: &ResultStore,
    lanes: &mut LaneScratch,
    counts: &mut Counts,
) -> Vec<ExperimentResult> {
    let keys: Vec<_> =
        group.iter().map(|c| t.span(Layer::Store, "store_key", |_| c.store_key())).collect();
    // Every cell but the baseline is simulated; the planner probes the
    // store for each of them first.
    for key in &keys[1..] {
        match t.span(Layer::Store, "ResultStore::load", |_| store.load(key)) {
            Some(_) => counts.store_hits += 1,
            None => counts.store_misses += 1,
        }
    }
    let first = &group[1];
    let sources = t.span(Layer::Core, "Scenario::build_sources", |_| {
        recorded.build_sources(first.n_cores, first.seed, first.instructions_per_core)
    });
    let cmps: Vec<_> = group[1..].iter().map(ExperimentConfig::cmp_config).collect();
    let all_stats =
        t.span(Layer::System, "run_lane_group", |_| run_lane_group(&cmps, sources, lanes));
    let mut results = Vec::with_capacity(group.len());
    for (lane, ((cfg, cmp), stats)) in group[1..].iter().zip(&cmps).zip(all_stats).enumerate() {
        let sim = lanes.sim(lane).expect("run_lane_group keeps one scratch per lane");
        counts.add_profile(sim.cycle_profile(), sim.event_queue_stats());
        counts.add_sim(&stats);
        counts.add_power(&stats);
        let power = t.span(Layer::Power, "evaluate_energy", |_| {
            evaluate_energy(cfg.power, cfg.technique, cfg.n_cores, cmp.l2.size_bytes, &stats)
        });
        results.push(ExperimentResult {
            benchmark: cfg.scenario.label(),
            technique: cfg.technique.name(),
            total_l2_mb: cfg.total_l2_mb,
            stats,
            power,
        });
    }
    for (key, r) in keys[1..].iter().zip(&results) {
        publish(t, store, key, r, false);
    }
    let base = t.span(Layer::Core, "derive_baseline_cell", |_| {
        derive_baseline_cell(&group[0], &results[donor - 1])
    });
    counts.cells_derived += 1;
    publish(t, store, &keys[0], &base, true);
    results.insert(0, base);
    results
}

fn publish(
    t: &mut Tracer,
    store: &ResultStore,
    key: &cmpleak_store::CellKey,
    r: &ExperimentResult,
    if_absent: bool,
) {
    let published = if if_absent {
        t.span(Layer::Store, "ResultStore::publish_if_absent", |_| {
            store.publish_if_absent(key, &r.stats, &r.power)
        })
    } else {
        t.span(Layer::Store, "ResultStore::publish", |_| store.publish(key, &r.stats, &r.power))
    };
    published.expect("publishing into the benchmark's own store directory");
}

/// (records, Σ bytes) of the store files holding `cfgs`' cells.
pub fn record_bytes<'a>(
    store: &ResultStore,
    cfgs: impl IntoIterator<Item = &'a ExperimentConfig>,
) -> (u64, u64) {
    cfgs.into_iter().fold((0, 0), |(n, bytes), c| {
        let len = std::fs::metadata(store.path_of(&c.store_key())).map_or(0, |m| m.len());
        (n + 1, bytes + len)
    })
}
