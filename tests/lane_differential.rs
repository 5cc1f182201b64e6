//! The lane-engine differential oracle.
//!
//! The lane engine claims that stepping N technique configurations
//! through **one** decoded op window is bit-identical to running each
//! configuration alone over its own sources: same `SimStats` (every
//! counter, every per-core breakdown, every sampled interval) and
//! therefore the same `PowerReport`. The claim rests on two facts the
//! suite pins end to end: segment pauses land between cycles and
//! consume nothing, and the window's `Exec(0)` filtering is
//! timing- and statistics-neutral. Coverage: baseline + all seven
//! paper techniques × homogeneous / heterogeneous-mix / trace-replay
//! scenarios, plus the sweep surface (`run_sweep`, which always runs
//! lane groups, against the lane-free serial `run_sweep_reference`,
//! serialized cell-for-cell).
//!
//! Riders extend the claim: a group's decay configurations ride one
//! trunk lane until each one's first possible turn-off, then fork —
//! and every forked cell must still equal its solo run. The fork suite
//! below covers the paper set (five riders per group), budgets where no
//! rider forks before the end, tiny intervals that fork inside the
//! first sample interval, decay and selective decay at one interval,
//! forks on a sample-interval boundary, forks while the worklist engine
//! has cores asleep, both cycle engines, and a proptest over
//! random interval sets and budgets.

use cmp_leakage::core::experiment::{
    run_experiment, run_experiment_lanes, ExperimentConfig, ExperimentScratch,
};
use cmp_leakage::core::sweep::{run_sweep, run_sweep_reference, SweepConfig};
use cmp_leakage::core::{Scenario, Technique, WorkloadSpec};
use cmp_leakage::system::CycleEngine;
use cmp_leakage::workloads::ScenarioSpec;
use proptest::prelude::*;

const INSTR: u64 = 25_000;
const SEED: u64 = 42;

fn all_techniques() -> Vec<Technique> {
    let mut v = vec![Technique::Baseline];
    v.extend(Technique::paper_set());
    v
}

/// Run `cfgs` as one lane group and assert every cell equals its solo
/// run in whole-struct equality (`SimStats` and `PowerReport`).
/// Returns the group's (forks, cycles shared) and the laned results.
fn assert_group_matches_solo(
    cfgs: &[ExperimentConfig],
    tag: &str,
) -> (u64, u64, Vec<cmp_leakage::core::ExperimentResult>) {
    let mut scratch = ExperimentScratch::default();
    let laned = run_experiment_lanes(cfgs, &mut scratch);
    assert_eq!(laned.len(), cfgs.len());
    for (cfg, lane) in cfgs.iter().zip(&laned) {
        let solo = run_experiment(cfg);
        assert_eq!(lane.benchmark, solo.benchmark, "{tag}: lanes keep the scenario label");
        assert_eq!(
            lane.stats, solo.stats,
            "{tag}/{}: lane SimStats diverged from the solo run",
            lane.technique
        );
        assert_eq!(
            lane.power, solo.power,
            "{tag}/{}: lane PowerReport diverged from the solo run",
            lane.technique
        );
    }
    (scratch.lanes().forks(), scratch.lanes().cycles_shared(), laned)
}

/// One lane group over baseline + the full paper set must match the
/// solo run of every member in whole-struct equality — the six decay
/// cells as one trunk (decay512K) carrying five riders.
fn differential_over_techniques(scenario: Scenario, tag: &str) {
    let cfgs: Vec<ExperimentConfig> = all_techniques()
        .into_iter()
        .map(|technique| {
            let mut cfg = ExperimentConfig::paper_scenario(scenario.clone(), technique, 1);
            cfg.instructions_per_core = INSTR;
            cfg.seed = SEED;
            cfg
        })
        .collect();
    let (forks, _, _) = assert_group_matches_solo(&cfgs, tag);
    assert_eq!(forks, 5, "{tag}: the paper set's six decay cells form one trunk + five riders");
}

/// Decay-technique configurations over `intervals` (alternating plain
/// and selective decay), one group.
fn decay_group(
    scenario: &Scenario,
    techniques: &[Technique],
    instr: u64,
    seed: u64,
) -> Vec<ExperimentConfig> {
    techniques
        .iter()
        .map(|&technique| {
            let mut cfg = ExperimentConfig::paper_scenario(scenario.clone(), technique, 1);
            cfg.instructions_per_core = instr;
            cfg.seed = seed;
            cfg
        })
        .collect()
}

fn decay(decay_cycles: u64) -> Technique {
    Technique::Decay { decay_cycles }
}

fn sel_decay(decay_cycles: u64) -> Technique {
    Technique::SelectiveDecay { decay_cycles }
}

#[test]
fn riders_that_never_fork_before_the_end_match_solo_runs() {
    // A budget far below the 64K-cycle first turn-off: every rider
    // rides to the end and forks there, sharing the trunk's whole run.
    let scenario = Scenario::Homogeneous(WorkloadSpec::water_ns());
    let mut cfgs = decay_group(&scenario, &Technique::paper_set(), 2_000, SEED);
    cfgs.insert(0, decay_group(&scenario, &[Technique::Baseline], 2_000, SEED).remove(0));
    let (forks, shared, laned) = assert_group_matches_solo(&cfgs, "no-fork");
    assert_eq!(forks, 5);
    let trunk_cycles = laned.iter().find(|r| r.technique == "decay512K").unwrap().stats.cycles;
    assert!(trunk_cycles < 65_536, "the budget must end before any turn-off");
    assert_eq!(shared, 5 * trunk_cycles, "end-of-run forks share every cycle");
}

#[test]
fn tiny_intervals_fork_inside_the_first_sample_interval() {
    // First possible turn-offs at 64..4096 cycles: every rider forks
    // well inside the first 10K-cycle sample interval and then turns
    // lines off on its own.
    let scenario = Scenario::Mix(ScenarioSpec::bursty_idle());
    let techniques =
        [decay(4096), sel_decay(64), decay(128), sel_decay(1000), decay(256), sel_decay(4096)];
    let cfgs = decay_group(&scenario, &techniques, 6_000, SEED);
    let (forks, shared, laned) = assert_group_matches_solo(&cfgs, "tiny");
    assert_eq!(forks, 5);
    assert_eq!(shared, 64 + 128 + 1000 + 256 + 4096, "each rider forks at its first turn-off");
    assert!(laned.iter().all(|r| r.stats.l2.iter().any(|l| l.turnoffs_decay > 0)));
}

#[test]
fn decay_and_selective_decay_at_one_interval_fork_where_the_trunk_can_turn_off() {
    let scenario = Scenario::Homogeneous(WorkloadSpec::mpeg2dec());
    for interval in [2_048u64, 8_192] {
        let cfgs = decay_group(&scenario, &[decay(interval), sel_decay(interval)], 8_000, SEED);
        let (forks, shared, _) = assert_group_matches_solo(&cfgs, "same-interval");
        assert_eq!((forks, shared), (1, interval));
        let cfgs = decay_group(&scenario, &[sel_decay(interval), decay(interval)], 8_000, SEED);
        assert_group_matches_solo(&cfgs, "same-interval-swapped");
    }
}

#[test]
fn forks_on_a_sample_interval_boundary_patch_the_closed_intervals() {
    // 4 ticks of 2500 / 5000 cycles: the riders fork exactly at the
    // first and second 10K-cycle interval boundaries, so the patched
    // decay-counter events of every closed interval are compared.
    let scenario = Scenario::Homogeneous(WorkloadSpec::facerec());
    let techniques = [decay(40_000), sel_decay(10_000), decay(20_000), decay(10_000)];
    let cfgs = decay_group(&scenario, &techniques, 10_000, SEED);
    let (forks, shared, laned) = assert_group_matches_solo(&cfgs, "interval-boundary");
    assert_eq!((forks, shared), (3, 40_000));
    assert!(laned[1].stats.trace.len() > 2, "the run must outlast the fork boundaries");
}

#[test]
fn forks_while_worklist_cores_sleep_match_solo_runs() {
    // A bursty idle mix keeps cores asleep under the worklist engine
    // for long stretches; dense tiny intervals put forks inside them.
    let scenario = Scenario::Mix(ScenarioSpec::bursty_idle());
    let techniques: Vec<Technique> = (1..=12u64)
        .map(|k| if k % 2 == 0 { decay(k * 700) } else { sel_decay(k * 700) })
        .chain([decay(100_000)])
        .collect();
    let mut cfgs = decay_group(&scenario, &techniques, 12_000, 7);
    for c in &mut cfgs {
        c.engine = CycleEngine::Worklist;
    }
    let (forks, _, _) = assert_group_matches_solo(&cfgs, "sleeping-forks");
    assert_eq!(forks, 12);
}

#[test]
fn forks_agree_under_both_engines() {
    let scenario = Scenario::Mix(ScenarioSpec::paper_mixes().remove(0));
    let techniques = [decay(16_384), sel_decay(2_048), decay(512), sel_decay(16_384)];
    for engine in [CycleEngine::Worklist, CycleEngine::FullScan] {
        let mut cfgs = decay_group(&scenario, &techniques, 6_000, SEED);
        for c in &mut cfgs {
            c.engine = engine;
        }
        let (forks, _, _) = assert_group_matches_solo(&cfgs, &format!("{engine:?}"));
        assert_eq!(forks, 3);
    }
}

fn arb_decay_technique() -> impl Strategy<Value = Technique> {
    (any::<bool>(), 16u64..60_000).prop_map(
        |(selective, d)| {
            if selective {
                sel_decay(d)
            } else {
                decay(d)
            }
        },
    )
}

proptest! {
    /// Any set of decay intervals and arming policies over any budget:
    /// every cell of the rider group equals its solo run. Case count
    /// via `PROPTEST_CASES` (default 64); cells are kept small.
    #[test]
    fn random_rider_groups_match_solo_runs(
        techniques in proptest::collection::vec(arb_decay_technique(), 2..5),
        instr in 1_000u64..7_000,
        seed in 0u64..1_000,
        bursty in any::<bool>(),
    ) {
        let scenario = if bursty {
            Scenario::Mix(ScenarioSpec::bursty_idle())
        } else {
            Scenario::Homogeneous(WorkloadSpec::water_ns())
        };
        let cfgs = decay_group(&scenario, &techniques, instr, seed);
        let (forks, _, _) = assert_group_matches_solo(&cfgs, "random");
        prop_assert_eq!(forks, techniques.len() as u64 - 1);
    }
}

#[test]
fn lanes_agree_for_every_technique_homogeneous() {
    differential_over_techniques(Scenario::Homogeneous(WorkloadSpec::water_ns()), "homogeneous");
}

#[test]
fn lanes_agree_for_every_technique_mix() {
    for mix in ScenarioSpec::paper_mixes() {
        let tag = mix.name.clone();
        differential_over_techniques(Scenario::Mix(mix), &tag);
    }
}

#[test]
fn lanes_agree_for_every_technique_trace_replay() {
    let live = Scenario::Homogeneous(WorkloadSpec::mpeg2dec());
    let path = std::env::temp_dir().join("cmpleak_lane_diff.cmpt");
    live.record(4, SEED, INSTR).save(&path).expect("trace written");
    let replay = Scenario::from_trace(&path).expect("trace readable");
    differential_over_techniques(replay, "trace-replay");
    std::fs::remove_file(&path).ok();
}

/// The sweep surface: `run_sweep` (lane groups, riders and forks)
/// against `run_sweep_reference` (every cell simulated alone, no
/// lanes), serialized cell-for-cell.
#[test]
fn laned_sweep_is_byte_identical_to_sequential_sweep() {
    let cfg = SweepConfig {
        scenarios: vec![
            Scenario::Homogeneous(WorkloadSpec::mpeg2dec()),
            Scenario::Mix(ScenarioSpec::bursty_idle()),
        ],
        sizes_mb: vec![1, 2],
        techniques: Technique::paper_set(),
        instructions_per_core: 20_000,
        seed: 42,
        n_cores: 4,
        threads: 4,
        store: None,
    };
    let laned = run_sweep(&cfg);
    let sequential = run_sweep_reference(&cfg);
    let a = serde_json::to_string(&laned).expect("serializable");
    let b = serde_json::to_string(&sequential).expect("serializable");
    assert_eq!(a, b, "laned sweep diverged from the serial reference");
}
