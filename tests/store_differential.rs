//! The persistent-result-store differential oracle.
//!
//! The store's contract is that it may only ever change **latency**,
//! never results: a sweep through a cold store (simulate + publish), a
//! sweep through a warm store (load every cell from disk), and an
//! uncached sweep must be byte-identical — at every thread count, with
//! the in-pool stream recording active. This suite pins that end to
//! end, plus the telemetry invariants that make the cache honest
//! (a cold pass hits nothing; a fully-warm pass neither simulates nor
//! records anything).

use cmp_leakage::core::sweep::{run_sweep, run_sweep_with_telemetry, SweepConfig, SweepTelemetry};
use cmp_leakage::core::{ExperimentScratch, Scenario, Technique, WorkloadSpec};
use cmp_leakage::store::ResultStore;
use cmp_leakage::workloads::ScenarioSpec;
use std::path::PathBuf;
use std::sync::Arc;

fn grid(threads: usize, store: Option<Arc<ResultStore>>) -> SweepConfig {
    SweepConfig {
        scenarios: vec![
            Scenario::Homogeneous(WorkloadSpec::water_ns()),
            Scenario::Mix(ScenarioSpec::bursty_idle()),
        ],
        sizes_mb: vec![1, 2],
        techniques: Technique::paper_set(),
        instructions_per_core: 20_000,
        seed: 42,
        n_cores: 4,
        threads,
        store,
    }
}

fn temp_store(tag: &str) -> (PathBuf, Arc<ResultStore>) {
    let root =
        std::env::temp_dir().join(format!("cmpleak-store-diff-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let store = Arc::new(ResultStore::open(&root).expect("store root"));
    (root, store)
}

fn json(results: &cmp_leakage::core::sweep::SweepResults) -> String {
    serde_json::to_string(results).expect("serializable")
}

fn run(cfg: &SweepConfig) -> (String, SweepTelemetry) {
    let mut scratch = ExperimentScratch::default();
    let (res, t) = run_sweep_with_telemetry(cfg, &mut scratch);
    (json(&res), t)
}

/// Cold (simulate + publish) and warm (load from disk) sweeps are
/// byte-identical to the uncached sweep, and the telemetry proves the
/// warm pass did no simulation work.
#[test]
fn cold_and_warm_store_sweeps_match_uncached_byte_for_byte() {
    let fresh = json(&run_sweep(&grid(4, None)));
    let (root, store) = temp_store("coldwarm");

    let (cold, t_cold) = run(&grid(4, Some(Arc::clone(&store))));
    assert_eq!(cold, fresh, "cold store sweep diverged from uncached");
    assert_eq!(t_cold.store_hits, 0, "a wiped store produced hits");
    assert!(t_cold.store_misses > 0, "cold pass published nothing");
    assert!(t_cold.recorded > 0, "cold pass never recorded a stream group");

    let (warm, t_warm) = run(&grid(4, Some(Arc::clone(&store))));
    assert_eq!(warm, fresh, "warm store sweep diverged from uncached");
    assert_eq!(t_warm.store_misses, 0, "warm pass re-simulated a stored cell");
    assert_eq!(t_warm.recorded, 0, "warm pass recorded streams it never replays");
    assert_eq!(t_warm.store_hits, t_cold.store_misses, "hit/miss populations disagree");

    std::fs::remove_dir_all(root).ok();
}

/// The cache is thread-count-blind: cold at T threads == warm at T'
/// threads == uncached, for every combination of 1/2/8 — the in-pool
/// recording and the hit/miss partition must not perturb results.
#[test]
fn store_sweeps_identical_across_thread_counts() {
    let fresh = json(&run_sweep(&grid(1, None)));
    for cold_threads in [1usize, 2, 8] {
        let (root, store) = temp_store(&format!("threads{cold_threads}"));
        let (cold, _) = run(&grid(cold_threads, Some(Arc::clone(&store))));
        assert_eq!(cold, fresh, "cold store sweep diverged at {cold_threads} thread(s)");
        for warm_threads in [1usize, 2, 8] {
            let (warm, t) = run(&grid(warm_threads, Some(Arc::clone(&store))));
            assert_eq!(
                warm, fresh,
                "warm sweep at {warm_threads} thread(s) over a store written at \
                 {cold_threads} diverged"
            );
            assert_eq!(t.store_misses, 0, "cross-thread warm pass missed");
        }
        std::fs::remove_dir_all(root).ok();
    }
}

/// Uncached in-pool recording alone (no store) is byte-identical across
/// thread counts — the first-toucher recording protocol is
/// deterministic for any pool size.
#[test]
fn in_pool_recording_is_deterministic_across_thread_counts() {
    let serial = json(&run_sweep(&grid(1, None)));
    for threads in [2usize, 8] {
        let parallel = json(&run_sweep(&grid(threads, None)));
        assert_eq!(serial, parallel, "in-pool recording diverged at {threads} thread(s)");
    }
}

/// Derived baseline cells are published too: a warm sweep whose grid
/// includes the memoized baseline answers every simulated cell from
/// the store and still derives baselines to the same bytes.
#[test]
fn derived_baselines_survive_the_store_round_trip() {
    let (root, store) = temp_store("derived");
    let cfg = grid(2, Some(Arc::clone(&store)));
    let (cold, t_cold) = run(&cfg);
    // 2 scenarios x 2 sizes x (1 baseline + 7 techniques) = 32 cells,
    // of which the 4 baselines are derived, not simulated.
    assert_eq!(t_cold.derived, 4, "baseline memoization off in this grid shape");
    let (warm, t_warm) = run(&cfg);
    assert_eq!(cold, warm, "derivation over store hits diverged from cold derivation");
    assert_eq!(t_warm.derived, 4, "warm pass stopped deriving baselines");
    std::fs::remove_dir_all(root).ok();
}
