//! The sweep planner's differential oracle.
//!
//! `run_sweep` derives each (scenario, size) group's baseline cell from
//! its timing-identical technique twin (Protocol), re-running only the
//! power bookkeeping; records each scenario's op stream once and replays
//! it in every cell; and steps each (scenario, size) group's cells as
//! lockstep lanes over one decoded op window. This suite pins the claim
//! that the planner is **byte-identical** to `run_sweep_reference` — a
//! serial loop that fully simulates every cell from live generators —
//! in every metric, every raw counter, every float, across homogeneous
//! scenarios, heterogeneous mixes, multiple cache sizes and thread
//! counts. A divergence means one of those layers changed a result; the
//! per-experiment differentials in `tests/stream_sharing.rs` and
//! `tests/lane_differential.rs` localize it, and each of those files
//! also runs the paper set on a threaded two-size grid against the
//! reference.

use cmp_leakage::core::sweep::{run_sweep, run_sweep_reference, SweepConfig};
use cmp_leakage::core::{Scenario, Technique, WorkloadSpec};
use cmp_leakage::workloads::ScenarioSpec;

fn assert_sweeps_identical(cfg: &SweepConfig, tag: &str) {
    let memo = run_sweep(cfg);
    let full = run_sweep_reference(cfg);
    let memo_json = serde_json::to_string_pretty(&memo).expect("serializable");
    let full_json = serde_json::to_string_pretty(&full).expect("serializable");
    assert_eq!(memo_json, full_json, "{tag}: planner diverged from the serial reference");
}

#[test]
fn memoized_sweep_equals_full_sweep_homogeneous_two_sizes() {
    let cfg = SweepConfig {
        scenarios: vec![
            Scenario::Homogeneous(WorkloadSpec::mpeg2dec()),
            Scenario::Homogeneous(WorkloadSpec::water_ns()),
        ],
        sizes_mb: vec![1, 2],
        techniques: vec![
            Technique::Protocol,
            Technique::Decay { decay_cycles: 64 * 1024 },
            Technique::SelectiveDecay { decay_cycles: 64 * 1024 },
        ],
        instructions_per_core: 30_000,
        seed: 42,
        n_cores: 2,
        threads: 4,
        store: None,
    };
    assert_sweeps_identical(&cfg, "homogeneous");
}

#[test]
fn memoized_sweep_equals_full_sweep_mixes_and_single_thread() {
    // Heterogeneous mixes stress per-core stat divergence; a single
    // worker thread pins the serial path of the memoized job pool.
    let cfg = SweepConfig {
        scenarios: vec![
            Scenario::Mix(ScenarioSpec::bursty_idle()),
            Scenario::Mix(ScenarioSpec::stream_revisit()),
        ],
        sizes_mb: vec![1],
        techniques: vec![Technique::Protocol, Technique::Decay { decay_cycles: 128 * 1024 }],
        instructions_per_core: 25_000,
        seed: 7,
        n_cores: 4,
        threads: 1,
        store: None,
    };
    assert_sweeps_identical(&cfg, "mixes");
}
