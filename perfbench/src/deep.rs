//! `cells-deep`: single-cell `run_experiment_with_scratch` calls on one
//! thread — no planner, no store, live op generation.
//!
//! The cells are {facerec, VOLREND} × 8 MB × {`protocol`,
//! `sel_decay64K`}: the two scenarios with the highest measured L2 miss
//! rates, the size that gives the decay bank the most lines, and one
//! technique that gates on coherence events next to one that adds
//! per-line decay. Nearly all time is the per-cycle model.

use crate::measure::{self, Counts};
use crate::tracer::{Layer, Tracer};
use cmpleak_core::{
    run_experiment_with_scratch, ExperimentConfig, ExperimentResult, ExperimentScratch, Technique,
    WorkloadSpec,
};
use cmpleak_power::evaluate_energy;
use cmpleak_system::{run_feeds_with_scratch, SimScratch};
use std::time::Instant;

pub const SIZE_MB: usize = 8;

pub fn cell_configs(instructions_per_core: u64, seed: u64) -> Vec<ExperimentConfig> {
    let mut cfgs = Vec::new();
    for spec in [WorkloadSpec::facerec(), WorkloadSpec::volrend()] {
        for tech in [Technique::Protocol, Technique::SelectiveDecay { decay_cycles: 64 * 1024 }] {
            let mut c = ExperimentConfig::paper(spec, tech, SIZE_MB);
            c.instructions_per_core = instructions_per_core;
            c.seed = seed;
            cfgs.push(c);
        }
    }
    cfgs
}

/// One pass: each cell once, each call timed on its own (seconds).
pub fn run_pass(
    cfgs: &[ExperimentConfig],
    scratch: &mut ExperimentScratch,
) -> (Vec<ExperimentResult>, Vec<f64>) {
    cfgs.iter()
        .map(|cfg| {
            let t0 = Instant::now();
            let r = run_experiment_with_scratch(cfg, scratch);
            (r, t0.elapsed().as_secs_f64())
        })
        .unzip()
}

/// (failed cells, per-cell digests) of one pass: every core of every
/// cell must retire exactly its budget.
pub fn check(cfgs: &[ExperimentConfig], results: &[ExperimentResult]) -> (u64, Vec<u64>) {
    let failed = cfgs
        .iter()
        .zip(results)
        .filter(|(cfg, r)| !measure::retired_budget(&r.stats, cfg.instructions_per_core))
        .count();
    let cells = results.iter().map(|r| measure::cell_digest(&measure::payload(r))).collect();
    (failed as u64, cells)
}

/// The pass decomposed into `run_experiment_with_scratch`'s own public
/// calls, one span each. Before the first span the scratch is primed
/// the way set-up primes the untraced run's (every cell at a tenth of
/// its budget), so neither run times the first bank and queue
/// allocations.
pub fn run_traced(
    t: &mut Tracer,
    cfgs: &[ExperimentConfig],
    counts: &mut Counts,
) -> Vec<ExperimentResult> {
    let mut sim = SimScratch::default();
    for cfg in cfgs {
        let instr = cfg.instructions_per_core / crate::PRIME_DIVISOR;
        let feeds = cfg.scenario.build_feeds(cfg.n_cores, cfg.seed, instr);
        run_feeds_with_scratch(cfg.cmp_config(), feeds, &mut sim);
    }
    cfgs.iter()
        .map(|cfg| {
            t.span(Layer::Core, "cell", |t| {
                let cmp = cfg.cmp_config();
                let bank_bytes = cmp.l2.size_bytes;
                let feeds = t.span(Layer::Core, "Scenario::build_feeds", |_| {
                    cfg.scenario.build_feeds(cfg.n_cores, cfg.seed, cfg.instructions_per_core)
                });
                let stats = t.span(Layer::System, "run_feeds_with_scratch", |_| {
                    run_feeds_with_scratch(cmp, feeds, &mut sim)
                });
                counts.add_profile(sim.cycle_profile(), sim.event_queue_stats());
                counts.add_sim(&stats);
                counts.add_power(&stats);
                let power = t.span(Layer::Power, "evaluate_energy", |_| {
                    evaluate_energy(cfg.power, cfg.technique, cfg.n_cores, bank_bytes, &stats)
                });
                ExperimentResult {
                    benchmark: cfg.scenario.label(),
                    technique: cfg.technique.name(),
                    total_l2_mb: cfg.total_l2_mb,
                    stats,
                    power,
                }
            })
        })
        .collect()
}
