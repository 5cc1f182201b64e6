//! `serve-warm`: a closed loop with one client over a warm store.
//!
//! Set-up populates a store by running the grid with the store
//! attached. The client then sends a seeded, uniformly random queue of
//! requests over the 288 grid cells, the next only after the previous
//! answer. A request is `ExperimentConfig::store_key` +
//! `ResultStore::load` + `result_from_stored`, timed on its own; no
//! request simulates anything.

use crate::measure::{self, Counts};
use crate::tracer::{Layer, Tracer};
use cmpleak_core::{result_from_stored, ExperimentConfig, ExperimentResult, SweepResults};
use cmpleak_store::ResultStore;
use cmpleak_workloads::Xoshiro256pp;
use std::time::Instant;

/// The request queue: `len` cell indices drawn uniformly from
/// `0..n_cells` by a generator seeded with the benchmark seed.
pub fn queue(seed: u64, len: usize, n_cells: usize) -> Vec<usize> {
    let mut rng = Xoshiro256pp::seeded(seed);
    (0..len).map(|_| rng.below(n_cells as u64) as usize).collect()
}

fn request(cfg: &ExperimentConfig, store: &ResultStore) -> Option<ExperimentResult> {
    let key = cfg.store_key();
    store.load(&key).map(|cell| result_from_stored(cfg, cell))
}

/// One pass over the queue: the answers and each request's latency
/// (seconds).
pub fn run_pass(
    cfgs: &[ExperimentConfig],
    store: &ResultStore,
    queue: &[usize],
) -> (Vec<Option<ExperimentResult>>, Vec<f64>) {
    queue
        .iter()
        .map(|&i| {
            let t0 = Instant::now();
            let answer = request(&cfgs[i], store);
            (answer, t0.elapsed().as_secs_f64())
        })
        .unzip()
}

/// The answers set-up's grid run produced: each cell's payload as
/// published, and the planner's summary of it.
#[derive(Debug)]
pub struct Reference {
    pub payloads: Vec<Vec<u8>>,
    pub summary: SweepResults,
}

/// (failed requests, per-answer digests, Σ cycles of the delivered
/// cells) of one pass: every answer must exist, retire the budget, and
/// be byte-equal to the cell set-up simulated.
pub fn check(
    cfgs: &[ExperimentConfig],
    queue: &[usize],
    answers: &[Option<ExperimentResult>],
    reference: &Reference,
) -> (u64, Vec<u64>, u64) {
    let mut failed = 0;
    let mut cycles = 0;
    let mut cells = Vec::with_capacity(answers.len());
    for (&i, answer) in queue.iter().zip(answers) {
        let payload = answer.as_ref().map(measure::payload).unwrap_or_default();
        let ok = answer.as_ref().is_some_and(|r| {
            measure::retired_budget(&r.stats, cfgs[i].instructions_per_core)
                && r.stats.cycles == reference.summary.cells[i].cycles
                && payload == reference.payloads[i]
        });
        failed += u64::from(!ok);
        cycles += answer.as_ref().map_or(0, |r| r.stats.cycles);
        cells.push(measure::cell_digest(&payload));
    }
    (failed, cells, cycles)
}

/// The pass with one span per request and per call inside it.
pub fn run_traced(
    t: &mut Tracer,
    cfgs: &[ExperimentConfig],
    store: &ResultStore,
    queue: &[usize],
    counts: &mut Counts,
) -> Vec<Option<ExperimentResult>> {
    queue
        .iter()
        .map(|&i| {
            let cfg = &cfgs[i];
            t.span(Layer::Core, "request", |t| {
                let key = t.span(Layer::Store, "store_key", |_| cfg.store_key());
                let cell = t.span(Layer::Store, "ResultStore::load", |_| store.load(&key));
                match &cell {
                    Some(_) => counts.store_hits += 1,
                    None => counts.store_misses += 1,
                }
                cell.map(|c| {
                    t.span(Layer::Core, "result_from_stored", |_| result_from_stored(cfg, c))
                })
            })
        })
        .collect()
}
