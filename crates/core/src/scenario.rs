//! What runs on the cores of one experiment.
//!
//! A [`Scenario`] names the workload side of an experiment cell and
//! knows how to build the per-core [`Workload`] drivers:
//!
//! * [`Scenario::Homogeneous`] — the paper's configuration: every core
//!   runs the same [`WorkloadSpec`];
//! * [`Scenario::Mix`] — a heterogeneous multiprogrammed
//!   [`ScenarioSpec`], one spec per core;
//! * [`Scenario::TraceReplay`] — replay a recorded trace file
//!   (`cmpleak-trace`), bit-identical to the live run it captured;
//! * [`Scenario::SharedStream`] — replay an in-memory [`MemTrace`]
//!   recorded from another scenario, shared (via `Arc`) across every
//!   experiment cell that consumes the same (scenario, seed, budget)
//!   stream — the sweep planner's record-once/replay-everywhere
//!   substrate.
//!
//! Experiments consume a scenario through [`Scenario::build_sources`]
//! (per-core [`OpSource`] delivery channels); the parallel
//! [`Scenario::build_workloads`] view exists for recording and
//! differential tooling.

use cmpleak_cpu::{LiveGen, OpSource, Workload};
use cmpleak_mem::BankArena;
use cmpleak_system::CoreSource;
use cmpleak_trace::{record_workloads, MemTrace, TraceFile, TraceRecorder};
use cmpleak_workloads::{ScenarioSpec, WorkloadSpec};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The workload half of an experiment configuration.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// Every core runs `spec` (the paper's homogeneous setup).
    Homogeneous(WorkloadSpec),
    /// Heterogeneous multiprogrammed mix.
    Mix(ScenarioSpec),
    /// Replay the per-core streams of a recorded trace file.
    TraceReplay {
        /// Trace file path (diagnostics only; the image is cached).
        path: PathBuf,
        /// Label from the trace header (cached at construction so
        /// labelling never needs IO).
        label: String,
        /// The validated trace image, shared across clones — a sweep
        /// replaying one trace over many cells reads the file once, and
        /// worker threads slice the same cached bytes.
        file: Arc<TraceFile>,
    },
    /// Replay the per-core streams of an in-memory recording. The label
    /// is the *recorded* scenario's label, so a shared-stream cell is
    /// indistinguishable (in reports, sweep cells and golden snapshots)
    /// from the live-generation cell it stands in for — which is the
    /// point: record once, replay across every cell of the group,
    /// bit-identically.
    SharedStream {
        /// The shared recording; clones and cursors alias one buffer.
        trace: Arc<MemTrace>,
    },
}

impl Scenario {
    /// Wrap a trace file: read and validate the image once, and share
    /// it across every clone of this scenario.
    pub fn from_trace(path: impl AsRef<Path>) -> io::Result<Scenario> {
        let tf = TraceFile::open(path.as_ref())?;
        Ok(Scenario::TraceReplay {
            path: path.as_ref().to_path_buf(),
            label: format!("{}@trace", tf.label()),
            file: Arc::new(tf),
        })
    }

    /// Resolve a benchmark or curated-mix name (`FMM`, `mpeg2dec`,
    /// `mix_bursty_idle`, …).
    pub fn by_name(name: &str) -> Option<Scenario> {
        WorkloadSpec::by_name(name)
            .map(Scenario::Homogeneous)
            .or_else(|| ScenarioSpec::by_name(name).map(Scenario::Mix))
    }

    /// Every name [`Scenario::by_name`] resolves, for CLI help.
    pub fn known_names() -> Vec<String> {
        WorkloadSpec::extended_suite()
            .iter()
            .map(|s| s.name.to_string())
            .chain(ScenarioSpec::paper_mixes().into_iter().map(|m| m.name))
            .collect()
    }

    /// The label used for sweep cells, figures and trace headers.
    pub fn label(&self) -> String {
        match self {
            Scenario::Homogeneous(spec) => spec.name.to_string(),
            Scenario::Mix(mix) => mix.name.clone(),
            Scenario::TraceReplay { label, .. } => label.clone(),
            Scenario::SharedStream { trace } => trace.label().to_string(),
        }
    }

    /// Whether this scenario generates its streams live — i.e. whether a
    /// sweep gains anything from recording it once into a shared stream
    /// (replay scenarios already share one buffer across cells).
    pub fn generates_live(&self) -> bool {
        matches!(self, Scenario::Homogeneous(_) | Scenario::Mix(_))
    }

    /// Record this scenario's streams once into an in-memory trace and
    /// wrap it as a [`Scenario::SharedStream`], with stream buffers
    /// checked out of `arena`. Every experiment run from the returned
    /// scenario with the same `(n_cores, seed)` and a budget
    /// `≤ instructions_per_core` is bit-identical to running `self`
    /// live — the contract pinned by `tests/stream_sharing.rs`.
    pub fn record_shared(
        &self,
        n_cores: usize,
        seed: u64,
        instructions_per_core: u64,
        arena: &mut BankArena,
    ) -> Scenario {
        let mut wls = self.build_workloads(n_cores, seed, instructions_per_core);
        let trace = MemTrace::record(self.label(), seed, &mut wls, instructions_per_core, arena);
        Scenario::SharedStream { trace: Arc::new(trace) }
    }

    /// [`record_shared`](Self::record_shared) into caller-provided
    /// stream buffers, one per core (each cleared before use). This is
    /// the sweep pool's in-pool recording path: the recording worker
    /// checks `n_cores` buffers out of the shared pool under one brief
    /// lock, then records here without further synchronization. The
    /// produced scenario is bit-identical to `record_shared`'s.
    ///
    /// # Panics
    /// Panics if `buffers.len() != n_cores`.
    pub fn record_shared_in(
        &self,
        n_cores: usize,
        seed: u64,
        instructions_per_core: u64,
        buffers: Vec<Vec<u8>>,
    ) -> Scenario {
        assert_eq!(buffers.len(), n_cores, "one recording buffer per core");
        let mut wls = self.build_workloads(n_cores, seed, instructions_per_core);
        let mut trace = MemTrace::new(self.label(), seed);
        for (wl, buf) in wls.iter_mut().zip(buffers) {
            trace.record_core_in(wl.as_mut(), instructions_per_core, buf);
        }
        Scenario::SharedStream { trace: Arc::new(trace) }
    }

    /// Canonical byte encoding of everything about this scenario that
    /// determines simulation results — the scenario half of a result
    /// store content address ([`crate::store_key`]). Every field is
    /// length- or width-delimited, so distinct scenarios cannot alias.
    ///
    /// For [`Scenario::TraceReplay`] the encoding covers the exact file
    /// image.
    pub fn canonical_bytes(&self, out: &mut Vec<u8>) {
        fn put_u64(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn put_str(out: &mut Vec<u8>, s: &str) {
            put_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        fn put_spec(out: &mut Vec<u8>, spec: &WorkloadSpec) {
            put_str(out, spec.name);
            out.push(match spec.class {
                cmpleak_workloads::BenchClass::Scientific => 0,
                cmpleak_workloads::BenchClass::Multimedia => 1,
            });
            put_u64(out, spec.pool_regions as u64);
            put_u64(out, spec.region_bytes as u64);
            put_u64(out, spec.hot_regions as u64);
            put_u64(out, u64::from(spec.generation_bursts));
            put_u64(out, u64::from(spec.burst_lines));
            put_u64(out, u64::from(spec.accesses_per_line));
            put_u64(out, u64::from(spec.exec_gap.0));
            put_u64(out, u64::from(spec.exec_gap.1));
            put_u64(out, spec.store_lines.to_bits());
            put_u64(out, spec.write_fraction.to_bits());
            put_u64(out, spec.shared_fraction.to_bits());
            put_u64(out, spec.shared_regions as u64);
            put_u64(out, spec.share_epoch_ops);
            out.push(u8::from(spec.revisit));
        }
        match self {
            Scenario::Homogeneous(spec) => {
                out.push(1);
                put_spec(out, spec);
            }
            Scenario::Mix(mix) => {
                out.push(2);
                put_str(out, &mix.name);
                put_u64(out, mix.assignments.len() as u64);
                for spec in &mix.assignments {
                    put_spec(out, spec);
                }
            }
            Scenario::TraceReplay { label, file, .. } => {
                out.push(3);
                put_str(out, label);
                // Tag 1 marks a whole-image encoding; the byte is part of
                // the content address of every stored trace-replay cell.
                let image = file.image();
                out.push(1);
                put_u64(out, image.len() as u64);
                out.extend_from_slice(image);
            }
            Scenario::SharedStream { trace } => {
                out.push(4);
                put_str(out, trace.label());
                put_u64(out, trace.seed());
                put_u64(out, trace.n_cores() as u64);
                for core in 0..trace.n_cores() {
                    let info = trace.core_info(core);
                    put_str(out, &info.name);
                    put_u64(out, info.ops);
                    put_u64(out, info.instructions);
                    let stream = trace.stream(core);
                    put_u64(out, stream.len() as u64);
                    out.extend_from_slice(stream);
                }
            }
        }
    }

    /// Build the per-core workload drivers.
    ///
    /// # Panics
    /// For [`Scenario::TraceReplay`] and [`Scenario::SharedStream`],
    /// panics if the recording covers a different core count or fewer
    /// instructions per core than `instructions_per_core` (replaying
    /// past the recorded budget would silently diverge from the live
    /// run), or — for a shared stream — was recorded under a different
    /// seed than requested.
    pub fn build_workloads(
        &self,
        n_cores: usize,
        seed: u64,
        instructions_per_core: u64,
    ) -> Vec<Box<dyn Workload>> {
        match self {
            Scenario::Homogeneous(spec) => {
                ScenarioSpec::new(spec.name, vec![*spec]).build_workloads(n_cores, seed)
            }
            Scenario::Mix(mix) => mix.build_workloads(n_cores, seed),
            Scenario::TraceReplay { path, file: tf, .. } => {
                assert_eq!(
                    tf.n_cores(),
                    n_cores,
                    "trace {} records {} cores, experiment wants {n_cores}",
                    path.display(),
                    tf.n_cores()
                );
                assert!(
                    tf.min_core_instructions() >= instructions_per_core,
                    "trace {} covers {} instructions/core, experiment wants {}",
                    path.display(),
                    tf.min_core_instructions(),
                    instructions_per_core
                );
                tf.workloads().into_iter().map(|w| Box::new(w) as Box<dyn Workload>).collect()
            }
            Scenario::SharedStream { trace } => {
                Self::check_shared(trace, n_cores, seed, instructions_per_core);
                (0..n_cores).map(|c| Box::new(trace.cursor(c)) as Box<dyn Workload>).collect()
            }
        }
    }

    /// Build the per-core [`OpSource`] delivery channels the simulator
    /// consumes: live generators behind budget-cursor adapters, or
    /// replay cursors over the recorded streams. Op-for-op identical to
    /// [`Scenario::build_workloads`] (pinned by the op-source proptests
    /// in `crates/cpu/tests/`).
    ///
    /// # Panics
    /// As [`Scenario::build_workloads`].
    pub fn build_sources(
        &self,
        n_cores: usize,
        seed: u64,
        instructions_per_core: u64,
    ) -> Vec<Box<dyn OpSource>> {
        match self {
            Scenario::Homogeneous(spec) => {
                ScenarioSpec::new(spec.name, vec![*spec]).build_sources(n_cores, seed)
            }
            Scenario::Mix(mix) => mix.build_sources(n_cores, seed),
            Scenario::TraceReplay { .. } => self
                .build_workloads(n_cores, seed, instructions_per_core)
                .into_iter()
                .map(LiveGen::boxed)
                .collect(),
            Scenario::SharedStream { trace } => {
                Self::check_shared(trace, n_cores, seed, instructions_per_core);
                (0..n_cores).map(|c| Box::new(trace.cursor(c)) as Box<dyn OpSource>).collect()
            }
        }
    }

    /// Build the per-core feeds for the simulator's devirtualized hot
    /// path: the same delivery channels as [`Scenario::build_sources`],
    /// but wrapped in [`CoreSource`] so `CoreModel::tick` dispatches by
    /// enum match instead of vtable — live generators ride in
    /// [`CoreSource::Live`], shared-stream replay cursors in
    /// [`CoreSource::Trace`]. Op-for-op identical to `build_sources`
    /// (both reduce to the same workloads/cursors; the simulated results
    /// are pinned equal by `feeds_match_boxed_sources_bit_for_bit` in
    /// `cmpleak-system` and the golden sweep snapshot).
    ///
    /// # Panics
    /// As [`Scenario::build_workloads`].
    pub fn build_feeds(
        &self,
        n_cores: usize,
        seed: u64,
        instructions_per_core: u64,
    ) -> Vec<CoreSource> {
        match self {
            Scenario::SharedStream { trace } => {
                Self::check_shared(trace, n_cores, seed, instructions_per_core);
                (0..n_cores).map(|c| CoreSource::Trace(trace.cursor(c))).collect()
            }
            _ => self
                .build_workloads(n_cores, seed, instructions_per_core)
                .into_iter()
                .map(|w| CoreSource::Live(LiveGen::new(w)))
                .collect(),
        }
    }

    /// Reject mismatched shared-stream replays up front: a wrong seed or
    /// an uncovered budget would silently diverge from live generation.
    fn check_shared(trace: &MemTrace, n_cores: usize, seed: u64, instructions_per_core: u64) {
        assert_eq!(
            trace.n_cores(),
            n_cores,
            "shared stream '{}' records {} cores, experiment wants {n_cores}",
            trace.label(),
            trace.n_cores()
        );
        assert_eq!(
            trace.seed(),
            seed,
            "shared stream '{}' was recorded under seed {}, experiment wants {seed}",
            trace.label(),
            trace.seed()
        );
        assert!(
            trace.min_core_instructions() >= instructions_per_core,
            "shared stream '{}' covers {} instructions/core, experiment wants {}",
            trace.label(),
            trace.min_core_instructions(),
            instructions_per_core
        );
    }

    /// Record this scenario's live streams into a [`TraceRecorder`]
    /// covering `instructions_per_core` per core. (Recording a
    /// `TraceReplay` scenario re-encodes the replayed streams.)
    pub fn record(&self, n_cores: usize, seed: u64, instructions_per_core: u64) -> TraceRecorder {
        let mut wls = self.build_workloads(n_cores, seed, instructions_per_core);
        record_workloads(self.label(), seed, &mut wls, instructions_per_core)
    }
}

impl From<WorkloadSpec> for Scenario {
    fn from(spec: WorkloadSpec) -> Self {
        Scenario::Homogeneous(spec)
    }
}

impl From<ScenarioSpec> for Scenario {
    fn from(mix: ScenarioSpec) -> Self {
        Scenario::Mix(mix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpleak_trace::TraceFile;

    #[test]
    fn labels_and_lookup() {
        assert_eq!(Scenario::Homogeneous(WorkloadSpec::fmm()).label(), "FMM");
        assert_eq!(Scenario::Mix(ScenarioSpec::bursty_idle()).label(), "mix_bursty_idle");
        assert!(Scenario::by_name("water-ns").is_some());
        assert!(Scenario::by_name("mix_producer_share").is_some());
        assert!(Scenario::by_name("nonesuch").is_none());
        assert!(Scenario::known_names().len() >= 9);
    }

    #[test]
    fn homogeneous_build_matches_direct_generators() {
        use cmpleak_workloads::GenerationalWorkload;
        let spec = WorkloadSpec::volrend();
        let mut built = Scenario::Homogeneous(spec).build_workloads(2, 5, 1000);
        let mut direct = GenerationalWorkload::new(spec, 1, 2, 5);
        for _ in 0..2000 {
            assert_eq!(built[1].next_op(), Workload::next_op(&mut direct));
        }
    }

    #[test]
    fn record_then_replay_streams_are_identical() {
        let scenario = Scenario::Mix(ScenarioSpec::stream_revisit());
        let rec = scenario.record(4, 42, 5_000);
        let path = std::env::temp_dir().join("cmpleak_core_scenario_test.cmpt");
        rec.save(&path).unwrap();

        let replay = Scenario::from_trace(&path).unwrap();
        assert_eq!(replay.label(), "mix_stream_revisit@trace");
        let mut replayed = replay.build_workloads(4, 42, 5_000);
        let mut live = scenario.build_workloads(4, 42, 5_000);
        let tf = TraceFile::open(&path).unwrap();
        for core in 0..4 {
            assert_eq!(replayed[core].name(), live[core].name());
            for _ in 0..tf.header().cores[core].ops {
                assert_eq!(replayed[core].next_op(), live[core].next_op(), "core {core}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_stream_replays_bit_identically_to_live_generation() {
        use cmpleak_mem::BankArena;
        let live = Scenario::Mix(ScenarioSpec::producer_sharing());
        let mut arena = BankArena::default();
        let shared = live.record_shared(4, 42, 5_000, &mut arena);
        assert_eq!(shared.label(), live.label(), "shared cells keep the scenario label");
        assert!(!shared.generates_live());
        let mut a = live.build_sources(4, 42, 5_000);
        let mut b = shared.build_sources(4, 42, 5_000);
        for core in 0..4 {
            assert_eq!(a[core].name(), b[core].name());
            let Scenario::SharedStream { trace } = &shared else { unreachable!() };
            for _ in 0..trace.core_info(core).ops {
                assert_eq!(a[core].next_op(), b[core].next_op(), "core {core}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "seed")]
    fn shared_stream_rejects_a_mismatched_seed() {
        use cmpleak_mem::BankArena;
        let live = Scenario::Homogeneous(WorkloadSpec::fmm());
        let shared = live.record_shared(2, 7, 1_000, &mut BankArena::default());
        let _ = shared.build_sources(2, 8, 1_000);
    }

    #[test]
    #[should_panic(expected = "instructions/core")]
    fn oversized_budget_is_rejected_up_front() {
        let scenario = Scenario::Homogeneous(WorkloadSpec::facerec());
        let rec = scenario.record(2, 1, 1_000);
        let path = std::env::temp_dir().join("cmpleak_core_scenario_small.cmpt");
        rec.save(&path).unwrap();
        let replay = Scenario::from_trace(&path).unwrap();
        let _ = replay.build_workloads(2, 1, 100_000);
    }
}
