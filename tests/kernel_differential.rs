//! The two-kernel differential oracle.
//!
//! Two loops advance simulated time and both hold the skip rule: the
//! solo kernel (`run_experiment`, one configuration over its own
//! sources) and the segment kernel (`run_experiment_lanes`, which steps
//! over a shared decoded op window). This suite runs every
//! configuration as a one-lane group under the worklist engine — idle
//! skips through the windowed feed, no riders — and claims bit-identity
//! with the per-cycle full-scan solo run: same `SimStats` (every
//! counter, every per-core stall breakdown, every sampled interval) and
//! therefore the same `PowerReport`. It pins the claim across every
//! paper technique, every scenario kind (homogeneous, heterogeneous
//! mix, trace replay) and a randomized grid of workload/seed/size
//! combinations. Any divergence — a skip that consumed ops, a stall
//! cycle charged to the wrong counter, a decay tick applied late — is a
//! kernel bug by definition. (Skips clipped at segment pauses and
//! interleaved with window starvation are pinned by the system crate's
//! `kernels_bit_identical_*` unit tests.)

use cmp_leakage::coherence::Technique;
use cmp_leakage::core::experiment::{run_experiment_lanes, ExperimentScratch};
use cmp_leakage::core::{run_experiment, ExperimentConfig, Scenario};
use cmp_leakage::system::CycleEngine;
use cmp_leakage::workloads::{ScenarioSpec, WorkloadSpec};
use proptest::prelude::*;

const INSTR: u64 = 25_000;

fn all_techniques() -> Vec<Technique> {
    let mut v = vec![Technique::Baseline];
    v.extend(Technique::paper_set());
    v
}

/// Assert the worklist segment kernel reproduces the full-scan solo run.
fn assert_kernels_agree(cfg: ExperimentConfig, tag: &str) {
    let reference =
        run_experiment(&ExperimentConfig { engine: CycleEngine::FullScan, ..cfg.clone() });
    let lane = ExperimentConfig { engine: CycleEngine::Worklist, ..cfg };
    let segmented =
        run_experiment_lanes(std::slice::from_ref(&lane), &mut ExperimentScratch::default())
            .remove(0);
    assert_eq!(
        reference.stats, segmented.stats,
        "{tag}/{}: segment-kernel SimStats diverged from the per-cycle solo run",
        reference.technique
    );
    assert_eq!(
        reference.power, segmented.power,
        "{tag}/{}: PowerReport diverged between kernels",
        reference.technique
    );
}

fn differential_over_techniques(scenario: Scenario, tag: &str) {
    for technique in all_techniques() {
        let mut cfg = ExperimentConfig::paper_scenario(scenario.clone(), technique, 1);
        cfg.instructions_per_core = INSTR;
        assert_kernels_agree(cfg, tag);
    }
}

#[test]
fn kernels_agree_for_every_technique_homogeneous() {
    differential_over_techniques(Scenario::Homogeneous(WorkloadSpec::water_ns()), "homogeneous");
}

#[test]
fn kernels_agree_for_every_technique_mix() {
    // bursty_idle has long all-asleep spans, so most of its cycles are
    // skipped: the skip rule's best case and its most bug-exposing one.
    differential_over_techniques(Scenario::Mix(ScenarioSpec::bursty_idle()), "mix_bursty_idle");
}

#[test]
fn kernels_agree_for_every_technique_trace_replay() {
    let scenario = Scenario::Mix(ScenarioSpec::stream_revisit());
    let path = std::env::temp_dir().join("cmpleak_kernel_diff.cmpt");
    scenario.record(4, 42, INSTR).save(&path).expect("trace written");
    let replay = Scenario::from_trace(&path).expect("trace readable");
    differential_over_techniques(replay, "trace_replay");
    std::fs::remove_file(&path).ok();
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    prop_oneof![
        (0..WorkloadSpec::extended_suite().len())
            .prop_map(|i| Scenario::Homogeneous(WorkloadSpec::extended_suite()[i])),
        (0..ScenarioSpec::paper_mixes().len())
            .prop_map(|i| Scenario::Mix(ScenarioSpec::paper_mixes().swap_remove(i))),
    ]
}

fn arb_technique() -> impl Strategy<Value = Technique> {
    prop_oneof![
        Just(Technique::Baseline),
        Just(Technique::Protocol),
        (10u64..18).prop_map(|p| Technique::Decay { decay_cycles: 1 << p }),
        (10u64..18).prop_map(|p| Technique::SelectiveDecay { decay_cycles: 1 << p }),
    ]
}

proptest! {
    /// Randomized grid: any (scenario, technique, seed, size) must be
    /// bit-identical across kernels. Case count via `PROPTEST_CASES`
    /// (default 64); each case is kept small so the per-cycle reference
    /// run stays cheap.
    #[test]
    fn kernels_agree_on_randomized_scenarios(
        scenario in arb_scenario(),
        technique in arb_technique(),
        seed in 0u64..1000,
        size_mb in prop_oneof![Just(1usize), Just(2)],
        instr in 4_000u64..12_000,
    ) {
        let mut cfg = ExperimentConfig::paper_scenario(scenario, technique, size_mb);
        cfg.seed = seed;
        cfg.instructions_per_core = instr;
        assert_kernels_agree(cfg, "randomized");
    }
}
