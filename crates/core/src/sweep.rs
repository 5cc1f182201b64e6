//! The full evaluation grid, run in parallel.
//!
//! A sweep executes every (scenario × cache size × technique) cell plus
//! the per-(scenario, size) baselines. Each simulation is
//! single-threaded and deterministic; the sweep farms them over a worker
//! pool (scoped threads + an atomic job cursor — the share-nothing
//! pattern from the workspace's hpc-parallel guides) and reassembles
//! results by index, so the output is identical for any thread count
//! (pinned by the golden regression test in `tests/golden_sweep.rs`).
//!
//! The planner has one path, [`run_sweep`], and one reference,
//! [`run_sweep_reference`]. The path always applies three
//! bit-identity-preserving optimizations: the baseline of each
//! (scenario, size) group is *derived* from its timing-identical
//! Protocol twin instead of simulated; each (scenario, seed, budget)
//! group's op stream is *recorded once* into a shared in-memory trace
//! that every cell of the group replays instead of regenerating live;
//! and within each (scenario, size) group the technique cells run as
//! **lockstep lanes** ([`run_experiment_lanes`]) — the stream is decoded
//! once into a shared op window and every technique steps through it
//! with plain slice reads. The reference is a plain serial loop over
//! every cell from live generators; `tests/sweep_memoization.rs` pins
//! the two byte-identical.

use crate::experiment::{
    derive_baseline_cell, result_from_stored, run_experiment_lanes, run_experiment_with_scratch,
    ExperimentConfig, ExperimentResult, ExperimentScratch,
};
use crate::metrics::TechniqueMetrics;
use crate::scenario::Scenario;
use cmpleak_coherence::Technique;
use cmpleak_mem::BankArena;
use cmpleak_power::PowerParams;
use cmpleak_store::{CellKey, ResultStore};
use cmpleak_trace::MemTrace;
use cmpleak_workloads::{ScenarioSpec, WorkloadSpec};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Scenarios to run (paper: the six homogeneous benchmarks; mixes
    /// and trace replays slot in the same axis).
    pub scenarios: Vec<Scenario>,
    /// Total L2 sizes in MB (paper: 1, 2, 4, 8).
    pub sizes_mb: Vec<usize>,
    /// Techniques (paper: protocol + decay/sel_decay at 512K/128K/64K).
    /// The baseline is always run implicitly.
    pub techniques: Vec<Technique>,
    /// Instructions per core per run.
    pub instructions_per_core: u64,
    /// Workload seed.
    pub seed: u64,
    /// Number of cores simulated.
    pub n_cores: usize,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Persistent result store: cells whose content address is already
    /// present are loaded instead of simulated, and freshly simulated
    /// cells are published back. `None` (the default of every
    /// constructor) simulates everything. The store may only ever
    /// change latency, never results — pinned by
    /// `tests/store_differential.rs`. Ignored by
    /// [`run_sweep_reference`].
    pub store: Option<Arc<ResultStore>>,
}

impl SweepConfig {
    /// The paper's full grid at a given scale.
    pub fn paper(instructions_per_core: u64) -> Self {
        Self {
            scenarios: WorkloadSpec::paper_suite().into_iter().map(Scenario::Homogeneous).collect(),
            sizes_mb: vec![1, 2, 4, 8],
            techniques: Technique::paper_set(),
            instructions_per_core,
            seed: 42,
            n_cores: 4,
            threads: 0,
            store: None,
        }
    }

    /// A reduced grid for quick runs and benches.
    pub fn smoke(instructions_per_core: u64) -> Self {
        let mut cfg = Self::paper(instructions_per_core);
        cfg.sizes_mb = vec![1];
        cfg.scenarios.truncate(2);
        cfg
    }

    /// The heterogeneous-mix grid: the three curated multiprogrammed
    /// scenarios over the paper's technique set at one size.
    pub fn mixes(instructions_per_core: u64) -> Self {
        let mut cfg = Self::paper(instructions_per_core);
        cfg.scenarios = ScenarioSpec::paper_mixes().into_iter().map(Scenario::Mix).collect();
        cfg.sizes_mb = vec![4];
        cfg
    }
}

/// One evaluated cell of the grid.
#[derive(Debug, Clone, Serialize)]
pub struct SweepCell {
    /// Scenario label (`baseline` rows are included).
    pub benchmark: String,
    /// Technique paper label.
    pub technique: String,
    /// Total L2 MB.
    pub size_mb: usize,
    /// Metrics relative to this cell's baseline.
    pub metrics: TechniqueMetrics,
    /// Raw cycle count (IPC bookkeeping / debugging).
    pub cycles: u64,
    /// Raw memory traffic in bytes.
    pub mem_bytes: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Average L2 temperature, °C.
    pub avg_l2_temp_c: f64,
}

/// All cells of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepResults {
    /// Evaluated cells, ordered (scenario, size, technique) with the
    /// baseline first within each (scenario, size) group.
    pub cells: Vec<SweepCell>,
}

impl SweepResults {
    /// Find one cell.
    pub fn cell(&self, benchmark: &str, technique: &str, size_mb: usize) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.technique == technique && c.size_mb == size_mb)
    }

    /// Mean metrics of `technique` at `size_mb` across all scenarios
    /// (the aggregation of Figures 3–5).
    pub fn mean_over_benchmarks(
        &self,
        technique: &str,
        size_mb: usize,
    ) -> Option<TechniqueMetrics> {
        let samples: Vec<TechniqueMetrics> = self
            .cells
            .iter()
            .filter(|c| c.technique == technique && c.size_mb == size_mb)
            .map(|c| c.metrics)
            .collect();
        (!samples.is_empty()).then(|| TechniqueMetrics::mean(&samples))
    }

    /// Distinct scenario labels present, in first-seen order.
    pub fn benchmarks(&self) -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        for c in &self.cells {
            if !v.contains(&c.benchmark) {
                v.push(c.benchmark.clone());
            }
        }
        v
    }
}

fn summarize(result: &ExperimentResult, metrics: TechniqueMetrics) -> SweepCell {
    SweepCell {
        benchmark: result.benchmark.clone(),
        technique: result.technique.clone(),
        size_mb: result.total_l2_mb,
        metrics,
        cycles: result.stats.cycles,
        mem_bytes: result.stats.mem_bytes,
        energy_pj: result.power.energy.total_pj(),
        avg_l2_temp_c: result.power.avg_l2_temp_c,
    }
}

/// Every cell's experiment configuration in output order: for each
/// (scenario, size) group, the baseline first, then each configured
/// technique. Each carries the **original** scenario — content
/// addresses and recordings both key off it. Both planner paths build
/// their cells here.
fn cell_configs(cfg: &SweepConfig) -> Vec<ExperimentConfig> {
    let techniques: Vec<Technique> =
        std::iter::once(Technique::Baseline).chain(cfg.techniques.iter().copied()).collect();
    let mut cells = Vec::with_capacity(cfg.scenarios.len() * cfg.sizes_mb.len() * techniques.len());
    for scenario in &cfg.scenarios {
        for &size in &cfg.sizes_mb {
            for &technique in &techniques {
                cells.push(ExperimentConfig {
                    scenario: scenario.clone(),
                    technique,
                    total_l2_mb: size,
                    instructions_per_core: cfg.instructions_per_core,
                    seed: cfg.seed,
                    n_cores: cfg.n_cores,
                    power: PowerParams::default(),
                    engine: Default::default(),
                });
            }
        }
    }
    cells
}

/// The sweep's cells from per-cell results in [`cell_configs`] order:
/// each (scenario, size) group's metrics are taken relative to the
/// group's baseline, its first entry.
fn summarize_groups(results: &[ExperimentResult], group_len: usize) -> SweepResults {
    let mut cells = Vec::with_capacity(results.len());
    for chunk in results.chunks(group_len) {
        let base = &chunk[0];
        cells.push(summarize(base, TechniqueMetrics::baseline_identity(base)));
        for tech in &chunk[1..] {
            cells.push(summarize(tech, TechniqueMetrics::compare(base, tech)));
        }
    }
    SweepResults { cells }
}

/// Run the sweep: the planner's one path.
///
/// **Memoization** — within every (scenario, size) group, the baseline
/// and a [`Technique::timing_identical_to_baseline`] technique
/// (Protocol) produce cycle-for-cycle identical simulations that differ
/// only in power bookkeeping. When the technique list contains such a
/// twin, the baseline cell is **derived** from the twin's result
/// ([`derive_baseline_cell`] re-runs only the power accounting) instead
/// of being simulated — one full simulation saved per group.
///
/// **Shared streams** — every cell of a (scenario, seed, instruction
/// budget) group consumes the *same* op stream: the live generators
/// recompute it per cell, although trace replay is bit-identical to
/// generation. The planner therefore records each live-generating
/// scenario once into an in-memory trace ([`Scenario::record_shared_in`])
/// and hands every cell of the group a cheap replay cursor over the
/// shared buffer, amortizing the generator work to one recording per
/// group. The recording happens **inside the worker pool** — the first
/// worker to touch a group records it while other workers proceed to
/// other groups and block only on that group — so grid latency scales
/// with cores even on recording-heavy sweeps.
///
/// **Lanes** — the pool's work unit is one (scenario, size) group. Its
/// simulated cells all consume the same op sequence; the lane engine
/// ([`run_experiment_lanes`]) decodes it once into a shared op window
/// and steps every technique through it side by side, so per-cell op
/// delivery collapses to bounds-checked slice reads.
///
/// **Persistent store** — when [`SweepConfig::store`] is set, each
/// cell's content address ([`ExperimentConfig::store_key`]) is probed
/// first: hits are loaded (bit-identical to fresh simulation, pinned by
/// `tests/store_differential.rs`), misses are simulated as usual and
/// published back. A fully warm grid simulates — and records — nothing.
///
/// The output is byte-identical to [`run_sweep_reference`] (pinned
/// cell-for-cell by `tests/sweep_memoization.rs` and by the golden
/// snapshot).
pub fn run_sweep(cfg: &SweepConfig) -> SweepResults {
    run_sweep_with_telemetry(cfg, &mut ExperimentScratch::default()).0
}

/// The differential reference: every cell, baseline included, fully
/// simulated one at a time from the scenarios as configured (live
/// generators for generated scenarios) — no worker pool, no store, no
/// derived baselines, no shared recordings, no lanes.
pub fn run_sweep_reference(cfg: &SweepConfig) -> SweepResults {
    let mut scratch = ExperimentScratch::default();
    let results: Vec<ExperimentResult> = cell_configs(cfg)
        .iter()
        .map(|cell| run_experiment_with_scratch(cell, &mut scratch))
        .collect();
    summarize_groups(&results, 1 + cfg.techniques.len())
}

/// How a sweep's work actually broke down — all counters deterministic
/// for a given configuration and store state, except that `recorded`
/// can only shrink when store hits make whole groups skip simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTelemetry {
    /// Baseline cells derived from a timing-identical donor instead of
    /// simulated.
    pub derived: usize,
    /// Shared-stream groups recorded (by the pool's first toucher).
    pub recorded: usize,
    /// Cells answered from the persistent store.
    pub store_hits: usize,
    /// Cells simulated and published to the store.
    pub store_misses: usize,
    /// Lane-engine riders forked off their trunk lanes (see
    /// [`cmpleak_system::lanes`]): cells whose shared prefix another
    /// cell simulated. Each is still simulated and counts as a store
    /// miss.
    pub forks: usize,
    /// Cycles those riders rode their trunks instead of stepping them.
    pub cycles_shared: u64,
}

/// Lifecycle of one scenario's shared op stream inside the pool.
#[derive(Debug)]
enum SlotState {
    /// Not recorded yet — the next toucher becomes the recorder.
    Pending,
    /// A worker is recording; wait on the slot's condvar.
    Recording,
    /// The scenario every cell of this group simulates from (a shared
    /// recording, or the original scenario when recording is off or
    /// unprofitable).
    Ready(Scenario),
    /// The recording worker panicked; waiters must abort, not hang.
    Failed,
}

/// First-toucher-records coordination for one scenario: workers needing
/// the stream either find it [`SlotState::Ready`], record it
/// themselves, or wait for the in-flight recording — so recording load
/// spreads across the pool instead of running as a serial pre-pass,
/// while every thread count still simulates identical streams.
#[derive(Debug)]
struct StreamSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

/// Marks `slot` [`SlotState::Failed`] if the recording worker unwinds,
/// so waiters abort with a diagnostic instead of deadlocking under the
/// scoped-thread join.
#[derive(Debug)]
struct FailGuard<'a> {
    slot: &'a StreamSlot,
    armed: bool,
}

impl Drop for FailGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            *self.slot.state.lock().unwrap_or_else(|e| e.into_inner()) = SlotState::Failed;
            self.slot.ready.notify_all();
        }
    }
}

/// Resolve the scenario a group's cells should simulate from,
/// recording it first if this worker is the group's first toucher. The
/// recording itself runs lock-free: buffers come out of the shared
/// pool under one brief lock, the slot is only held long enough to
/// flip states.
fn resolve_stream(
    slot: &StreamSlot,
    original: &Scenario,
    cfg: &SweepConfig,
    rec_pool: &Mutex<BankArena>,
    recorded: &AtomicUsize,
) -> Scenario {
    let mut st = slot.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        match &*st {
            SlotState::Ready(s) => return s.clone(),
            SlotState::Failed => {
                // audit:allow(unwrap-in-lib, the recorder already panicked on its own thread; waiters must join the abort rather than simulate a stream that does not exist)
                panic!("shared-stream recording of '{}' failed on another worker", original.label())
            }
            SlotState::Recording => {
                st = slot.ready.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            SlotState::Pending => {
                *st = SlotState::Recording;
                drop(st);
                let mut guard = FailGuard { slot, armed: true };
                let buffers: Vec<Vec<u8>> = {
                    let mut pool = rec_pool.lock().unwrap_or_else(|e| e.into_inner());
                    let hint = MemTrace::stream_capacity_hint(cfg.instructions_per_core);
                    (0..cfg.n_cores).map(|_| pool.take_u8_empty(hint)).collect()
                };
                let rec = original.record_shared_in(
                    cfg.n_cores,
                    cfg.seed,
                    cfg.instructions_per_core,
                    buffers,
                );
                recorded.fetch_add(1, Ordering::Relaxed);
                *slot.state.lock().unwrap_or_else(|e| e.into_inner()) =
                    SlotState::Ready(rec.clone());
                guard.armed = false;
                slot.ready.notify_all();
                return rec;
            }
        }
    }
}

/// [`run_sweep`] returning the planner's work counters alongside the
/// results — how many cells were derived, how many stream groups were
/// recorded in-pool, how the persistent store split the grid into hits
/// and misses — and reusing `scratch`'s pools across calls, in
/// particular the shared-stream buffer arena, so repeated sweeps
/// (benchmark reps, parameter studies) re-record their streams into the
/// same allocations. The results are identical to [`run_sweep`]'s.
pub fn run_sweep_with_telemetry(
    cfg: &SweepConfig,
    scratch: &mut ExperimentScratch,
) -> (SweepResults, SweepTelemetry) {
    // The technique whose run can stand in for the baseline simulation,
    // if any: the first timing-identical one in the configured list, at
    // its offset within a group (the baseline occupies slot 0).
    let donor_offset =
        cfg.techniques.iter().position(|t| t.timing_identical_to_baseline()).map(|i| i + 1);

    // Stream sharing: each (scenario, seed, budget) group — one per
    // live-generating scenario entry, since seed and budget are
    // sweep-wide — is recorded once into a shared in-memory trace;
    // every cell of the group replays a cursor over it. Replay-backed
    // scenarios already share one buffer and pass through unchanged.
    // Recording pays off only when a group simulates ≥ 2 cells (the
    // recording costs one generator pass); a degenerate single-cell
    // group stays on the live path. The recording itself happens
    // *inside* the worker pool — the first worker to need a group's
    // stream records it while others proceed to other groups
    // ([`resolve_stream`]) — so grid latency scales with cores even on
    // recording-heavy sweeps, and a fully-warm store run records
    // nothing at all.
    let simulated_per_group = cfg.sizes_mb.len() * (1 + cfg.techniques.len())
        - if donor_offset.is_some() { cfg.sizes_mb.len() } else { 0 };
    let share_streams = simulated_per_group > 1;

    // Cells in output order, grouped per (scenario, size); a derived
    // baseline (slot 0 of a group with a donor) is never simulated.
    let jobs = cell_configs(cfg);
    let group_len = 1 + cfg.techniques.len();
    let first_simulated = usize::from(donor_offset.is_some());
    let n_groups = jobs.len() / group_len;

    // Content addresses, one per job, computed up front so workers
    // never re-encode a scenario: each scenario's canonical bytes are
    // produced once and every cell of its groups keys off that buffer.
    // Keys are derived from the *original* scenarios, so a warm store
    // hits across processes (a shared recording would encode
    // identically anyway, but the original needs no recording first).
    let store = cfg.store.as_deref();
    let keys: Vec<CellKey> = match store {
        Some(_) => {
            let scenario_bytes: Vec<Vec<u8>> = cfg
                .scenarios
                .iter()
                .map(|s| {
                    let mut b = Vec::new();
                    s.canonical_bytes(&mut b);
                    b
                })
                .collect();
            let cells_per_scenario = group_len * cfg.sizes_mb.len();
            jobs.iter()
                .enumerate()
                .map(|(i, j)| {
                    j.store_key_with_scenario_bytes(&scenario_bytes[i / cells_per_scenario])
                })
                .collect()
        }
        None => Vec::new(),
    };

    // One stream slot per scenario: replay-backed (or single-cell)
    // groups are Ready immediately with the original scenario; live
    // groups start Pending and are recorded by their first toucher.
    let slots: Vec<StreamSlot> = cfg
        .scenarios
        .iter()
        .map(|s| {
            let state = if share_streams && s.generates_live() {
                SlotState::Pending
            } else {
                SlotState::Ready(s.clone())
            };
            StreamSlot { state: Mutex::new(state), ready: Condvar::new() }
        })
        .collect();

    let recorded = AtomicUsize::new(0);
    let store_hits = AtomicUsize::new(0);
    let store_misses = AtomicUsize::new(0);
    let forks = AtomicUsize::new(0);
    let cycles_shared = AtomicU64::new(0);
    // The shared-stream buffer pool, lent to the pool's recorders for
    // the duration of the sweep and restored to `scratch` after.
    let rec_pool = Mutex::new(std::mem::take(scratch.stream_arena()));

    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        cfg.threads
    }
    .min(n_groups.max(1));

    let mut results: Vec<Option<ExperimentResult>> = (0..jobs.len()).map(|_| None).collect();
    {
        // Share-nothing worker pool on std primitives: an atomic cursor
        // hands out (scenario, size) group indices — a group's lanes
        // share a decoded op window and must live on one worker — an
        // mpsc channel collects results, and reassembly by index keeps
        // the output identical for any thread count.
        let next_group = AtomicUsize::new(0);
        let (res_tx, res_rx) = std::sync::mpsc::channel::<(usize, ExperimentResult)>();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let next_group = &next_group;
                let jobs = &jobs;
                let keys = &keys;
                let slots = &slots;
                let rec_pool = &rec_pool;
                let recorded = &recorded;
                let store_hits = &store_hits;
                let store_misses = &store_misses;
                let forks = &forks;
                let cycles_shared = &cycles_shared;
                let res_tx = res_tx.clone();
                s.spawn(move || {
                    // Per-worker scratch: queue/event-ring/per-line-bank
                    // and lane allocations are recycled across this
                    // worker's groups.
                    let mut scratch = ExperimentScratch::default();
                    loop {
                        let g = next_group.fetch_add(1, Ordering::Relaxed);
                        if g >= n_groups {
                            return;
                        }
                        // The group's simulated cells stepped through
                        // one shared op window. Store hits leave the
                        // group first; only the remainder touches the
                        // stream slot and the simulator.
                        let base = g * group_len;
                        let mut miss_idx: Vec<usize> = Vec::new();
                        for i in base + first_simulated..base + group_len {
                            match store.and_then(|st| st.load(&keys[i])) {
                                Some(cell) => {
                                    store_hits.fetch_add(1, Ordering::Relaxed);
                                    let r = result_from_stored(&jobs[i], cell);
                                    if res_tx.send((i, r)).is_err() {
                                        return;
                                    }
                                }
                                None => miss_idx.push(i),
                            }
                        }
                        if miss_idx.is_empty() {
                            continue;
                        }
                        let scenario = resolve_stream(
                            &slots[g / cfg.sizes_mb.len()],
                            &jobs[base].scenario,
                            cfg,
                            rec_pool,
                            recorded,
                        );
                        let cfgs: Vec<ExperimentConfig> = miss_idx
                            .iter()
                            .map(|&i| ExperimentConfig {
                                scenario: scenario.clone(),
                                ..jobs[i].clone()
                            })
                            .collect();
                        let (f0, c0) = (scratch.lanes().forks(), scratch.lanes().cycles_shared());
                        let rs = run_experiment_lanes(&cfgs, &mut scratch);
                        forks.fetch_add((scratch.lanes().forks() - f0) as usize, Ordering::Relaxed);
                        cycles_shared
                            .fetch_add(scratch.lanes().cycles_shared() - c0, Ordering::Relaxed);
                        for (i, r) in miss_idx.into_iter().zip(rs) {
                            if let Some(st) = store {
                                store_misses.fetch_add(1, Ordering::Relaxed);
                                st.publish(&keys[i], &r.stats, &r.power).ok();
                            }
                            if res_tx.send((i, r)).is_err() {
                                return;
                            }
                        }
                    }
                });
            }
            drop(res_tx);
            for (i, r) in res_rx.iter() {
                results[i] = Some(r);
            }
        });
    }

    // Reclaim the stream-buffer pool before retiring recordings into it.
    *scratch.stream_arena() = rec_pool.into_inner().unwrap_or_else(|e| e.into_inner());

    // Derive the skipped baseline cells from their donors (a pure
    // bookkeeping pass, deterministic for any thread count). Derived
    // cells are published too — if-absent, so warm sweeps stay
    // write-free — letting later serve-mode batches answer baseline
    // requests straight from the store.
    let mut derived = 0usize;
    if let Some(offset) = donor_offset {
        for base_idx in (0..jobs.len()).step_by(group_len) {
            // audit:allow(unwrap-in-lib, the worker pool joined above; every job slot was filled before the barrier released)
            let donor = results[base_idx + offset].as_ref().expect("donor simulated");
            let cell = derive_baseline_cell(&jobs[base_idx], donor);
            if let Some(st) = store {
                st.publish_if_absent(&keys[base_idx], &cell.stats, &cell.power).ok();
            }
            results[base_idx] = Some(cell);
            derived += 1;
        }
    }
    let results: Vec<ExperimentResult> =
        // audit:allow(unwrap-in-lib, the worker pool joined above and baseline derivation filled the remaining slots)
        results.into_iter().map(|r| r.expect("all jobs completed")).collect();

    // Retire the shared recordings: with the jobs (and their cursor
    // factories) gone, each recorded trace has one handle left — in its
    // slot — and its encoded stream buffers go back to the scratch pool
    // for the next sweep. Scenarios that were Ready with a caller-owned
    // SharedStream keep their outside handles and are left alone.
    drop(jobs);
    for slot in slots {
        let state = slot.state.into_inner().unwrap_or_else(|e| e.into_inner());
        if let SlotState::Ready(Scenario::SharedStream { trace }) = state {
            if let Some(mut t) = Arc::into_inner(trace) {
                t.release_into(scratch.stream_arena());
            }
        }
    }

    let telemetry = SweepTelemetry {
        derived,
        recorded: recorded.load(Ordering::Relaxed),
        store_hits: store_hits.load(Ordering::Relaxed),
        store_misses: store_misses.load(Ordering::Relaxed),
        forks: forks.load(Ordering::Relaxed),
        cycles_shared: cycles_shared.load(Ordering::Relaxed),
    };
    (summarize_groups(&results, group_len), telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            scenarios: vec![
                Scenario::Homogeneous(WorkloadSpec::mpeg2dec()),
                Scenario::Homogeneous(WorkloadSpec::volrend()),
            ],
            sizes_mb: vec![1],
            techniques: vec![Technique::Protocol, Technique::Decay { decay_cycles: 16 * 1024 }],
            instructions_per_core: 40_000,
            seed: 7,
            n_cores: 2,
            threads: 4,
            store: None,
        }
    }

    #[test]
    fn sweep_produces_all_cells_in_order() {
        let res = run_sweep(&tiny());
        // 2 scenarios x 1 size x (baseline + 2 techniques).
        assert_eq!(res.cells.len(), 6);
        assert_eq!(res.cells[0].technique, "baseline");
        assert_eq!(res.cells[1].technique, "protocol");
        assert_eq!(res.cells[2].technique, "decay16K");
        assert_eq!(res.benchmarks(), vec!["mpeg2dec", "VOLREND"]);
    }

    #[test]
    fn memoized_sweep_equals_reference_and_actually_derives() {
        let cfg = tiny(); // includes Protocol: one derived baseline per group
        let (memo, t) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
        let full = run_sweep_reference(&cfg);
        assert_eq!(t.derived, 2, "one baseline derived per (scenario, size) group");
        assert_eq!(t.recorded, 2, "one shared stream recorded per scenario");
        assert_eq!((t.store_hits, t.store_misses), (0, 0), "no store configured");
        for (a, b) in memo.cells.iter().zip(&full.cells) {
            assert_eq!(a.cycles, b.cycles, "{}:{}", a.benchmark, a.technique);
            assert_eq!(a.mem_bytes, b.mem_bytes);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.energy_pj, b.energy_pj);
            assert_eq!(a.avg_l2_temp_c, b.avg_l2_temp_c);
        }
    }

    #[test]
    fn sweep_without_a_timing_twin_simulates_every_cell() {
        let mut cfg = tiny();
        cfg.techniques = vec![Technique::Decay { decay_cycles: 16 * 1024 }];
        let (res, t) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
        assert_eq!(t.derived, 0, "no timing-identical technique, nothing to derive");
        assert_eq!(res.cells.len(), 4);
    }

    #[test]
    fn shared_streams_release_their_buffers_and_repool_across_sweeps() {
        let cfg = tiny();
        let mut scratch = ExperimentScratch::default();
        run_sweep_with_telemetry(&cfg, &mut scratch);
        let first = scratch.stream_arena_stats();
        assert_eq!(first.checkouts, 4, "one stream buffer per core per recorded scenario");
        assert_eq!(first.returns, first.checkouts, "retired recordings repool their buffers");
        run_sweep_with_telemetry(&cfg, &mut scratch);
        let second = scratch.stream_arena_stats();
        assert_eq!(
            second.fresh_allocations, first.fresh_allocations,
            "the second sweep records into the pooled buffers"
        );
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let mut one = tiny();
        one.threads = 1;
        let a = run_sweep(&one);
        let b = run_sweep(&tiny());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.cycles, y.cycles, "{}:{}", x.benchmark, x.technique);
            assert_eq!(x.mem_bytes, y.mem_bytes);
        }
    }

    #[test]
    fn mean_over_benchmarks_aggregates() {
        let res = run_sweep(&tiny());
        let m = res.mean_over_benchmarks("protocol", 1).unwrap();
        assert!(m.occupation > 0.0 && m.occupation <= 1.0);
        assert!(res.mean_over_benchmarks("nonesuch", 1).is_none());
    }

    #[test]
    fn cell_lookup() {
        let res = run_sweep(&tiny());
        assert!(res.cell("VOLREND", "protocol", 1).is_some());
        assert!(res.cell("VOLREND", "protocol", 8).is_none());
    }

    #[test]
    fn heterogeneous_scenarios_sweep_end_to_end() {
        let mut cfg = SweepConfig::mixes(30_000);
        cfg.sizes_mb = vec![1];
        cfg.techniques = vec![Technique::Protocol];
        cfg.threads = 2;
        let res = run_sweep(&cfg);
        assert_eq!(res.cells.len(), 3 * 2, "3 mixes × (baseline + protocol)");
        assert_eq!(
            res.benchmarks(),
            vec!["mix_stream_revisit", "mix_producer_share", "mix_bursty_idle"]
        );
        for mix in res.benchmarks() {
            let cell = res.cell(&mix, "protocol", 1).unwrap();
            assert!(cell.metrics.occupation < 1.0, "{mix}: protocol gates something");
            assert!(cell.cycles > 0);
        }
    }
}
