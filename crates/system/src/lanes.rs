//! The lane engine: step many technique configurations through one
//! decoded op stream.
//!
//! A sweep group — one (scenario, seed, budget, size) cell row — runs
//! the *same* per-core op sequence under N different leakage
//! techniques. The sequential planner delivers that sequence N times
//! (decode for replay backends, generator arithmetic for live ones).
//! [`run_lane_group`] delivers it **once**: the group's sources feed a
//! shared [`OpWindow`](cmpleak_cpu::OpWindow), and every lane — a full
//! [`CmpSystem`] with its own cores, caches, bus and event queue —
//! walks the window through per-lane read cursors.
//!
//! # Scheduling
//!
//! Lanes run *batch-granular* segments, not cycle-interleaved: each
//! scheduler round slides the window over the slowest lane's position,
//! extends it `SEGMENT_TARGET` ops past the fastest, and then runs each
//! live lane with [`CmpSystem::run_segment`] until it either completes
//! or drains its buffered ops. One lane's cache/bus state thus stays
//! hot through thousands of consecutive cycles, while the window stays
//! O(segment) — not O(stream) — because lanes drain to within a fetch
//! margin of the window's end before pausing. Each lane's cycle engine,
//! including the worklist's idle skip, operates unchanged within its
//! segments.
//!
//! # Timing classes: trunks, riders and forks
//!
//! Decay configurations that differ only in decay interval or arming
//! policy ([`CmpConfig::shares_decay_prefix`]) simulate exactly the
//! same cycles until the first decay turn-off, and no line can turn off
//! before a configuration's `2^counter_bits`-th decay tick
//! ([`CmpConfig::first_decay_turnoff`]). A group's members of one such
//! class therefore run as **one trunk lane** — the member with the
//! largest interval, whose first possible turn-off comes last — and
//! the others **ride** it: the trunk's L2s carry their decay
//! bookkeeping ([`CmpSystem::attach_rider`]). At the cycle boundary
//! before a rider's first possible turn-off the trunk pauses, the rider
//! **forks** into its own lane slot ([`CmpSystem::fork_rider`], copying
//! into that slot's pools) and continues as an ordinary lane from the
//! trunk's read positions. A rider still attached when the trunk
//! completes forks at the end (its cell never turned a line off). The
//! shared prefix is simulated once instead of once per member; the
//! counters are in [`LaneScratch::forks`] and
//! [`LaneScratch::cycles_shared`].
//!
//! # Bit-identity
//!
//! A lane's cycle sequence is exactly the sequential run's: segment
//! pauses land between cycles and consume nothing, the window filters
//! only `Exec(0)` ops (timing- and statistics-neutral by construction,
//! see [`cmpleak_cpu::lane`]), and per-lane state never aliases. A
//! forked rider starts from the state its solo run holds at the fork
//! boundary: everything but decay bookkeeping is identical across the
//! class until then, and the decay bookkeeping is the rider's own. The
//! equivalence is enforced by this module's tests and by
//! `tests/lane_differential.rs` in `cmpleak-core`.

use crate::config::CmpConfig;
use crate::stats::SimStats;
use crate::system::{CmpSystem, Segment, SimScratch};
use cmpleak_cpu::{OpSource, OpWindow};

/// Ops buffered ahead of the fastest lane per scheduler round. Segment
/// switches are the lane engine's only overhead versus a plain run —
/// each switch re-warms the next lane's multi-megabyte cache state —
/// so the target is sized for *rare* switches (a lane runs tens of
/// thousands of cycles per segment, so a whole paper-scale cell takes
/// only a handful). The cost is window memory, which is cheap: the
/// buffer is shared by every lane and read as a stream, ~16 bytes/op.
const SEGMENT_TARGET: u64 = 32_768;

/// Reusable allocation pools for lane groups: one [`SimScratch`] per
/// lane slot, so every lane of every group reuses the event ring,
/// queue and line-column allocations of the lane that ran in its slot
/// before. A rider's decay columns and its fork come out of its own
/// slot's pools too.
#[derive(Debug, Default)]
pub struct LaneScratch {
    sims: Vec<SimScratch>,
    forks: u64,
    cycles_shared: u64,
}

impl LaneScratch {
    /// The scratch pool of lane slot `lane` (diagnostics: arena and
    /// event-queue counters).
    pub fn sim(&self, lane: usize) -> Option<&SimScratch> {
        self.sims.get(lane)
    }

    /// Riders forked off their trunks so far, over every group run on
    /// this scratch.
    pub fn forks(&self) -> u64 {
        self.forks
    }

    /// Cycles riders rode their trunks instead of stepping them, over
    /// every group run on this scratch (each fork adds its cycle).
    pub fn cycles_shared(&self) -> u64 {
        self.cycles_shared
    }
}

/// A rider still attached to a trunk lane: its lane slot and the
/// boundary it forks at.
#[derive(Debug, Clone, Copy)]
struct Rider {
    slot: usize,
    fork_at: u64,
}

/// One live lane: its system, read positions and attached riders (in
/// the system's attach order).
struct Lane {
    sys: CmpSystem,
    pos: Vec<u64>,
    riders: Vec<Rider>,
    /// The window was last advanced with this lane counted: a segment
    /// must make progress (a lane forked since can start starved).
    anchored: bool,
}

impl Lane {
    /// Fork every rider due at the trunk's current boundary (all of
    /// them once `all`) into its own lane slot.
    fn fork_due(&mut self, all: bool, lanes: &mut [Option<Lane>], scratch: &mut LaneScratch) {
        let now = self.sys.now();
        let mut j = 0;
        while j < self.riders.len() {
            if !all && self.riders[j].fork_at > now {
                j += 1;
                continue;
            }
            let Rider { slot, .. } = self.riders.remove(j);
            let sys = self.sys.fork_rider(j, &mut scratch.sims[slot]);
            scratch.forks += 1;
            scratch.cycles_shared += now;
            lanes[slot] =
                Some(Lane { sys, pos: self.pos.clone(), riders: Vec::new(), anchored: false });
        }
    }
}

/// For each configuration, the trunk it rides (`Some(trunk)`) or
/// `None` if it runs as its own lane: within each timing class of two
/// or more members, the member with the largest decay interval (the
/// first on ties) is the trunk.
fn plan_trunks(cfgs: &[CmpConfig]) -> Vec<Option<usize>> {
    let mut trunk_of: Vec<Option<usize>> = vec![None; cfgs.len()];
    let mut classed = vec![false; cfgs.len()];
    for i in 0..cfgs.len() {
        if classed[i] || !cfgs[i].technique.has_decay_logic() {
            continue;
        }
        let class: Vec<usize> = (i..cfgs.len())
            .filter(|&j| !classed[j] && cfgs[i].shares_decay_prefix(&cfgs[j]))
            .collect();
        let interval = |j: usize| cfgs[j].technique.decay_cycles().unwrap_or_default();
        let mut trunk = i;
        for &j in &class {
            classed[j] = true;
            if interval(j) > interval(trunk) {
                trunk = j;
            }
        }
        for &j in &class {
            if j != trunk {
                trunk_of[j] = Some(trunk);
            }
        }
    }
    trunk_of
}

/// Run one op stream through every configuration in `cfgs` at once and
/// return their statistics in `cfgs` order. Each result is
/// bit-identical to
/// [`run_sources_with_scratch`](crate::run_sources_with_scratch) over
/// the same sources and configuration.
///
/// All configurations must agree on everything that shapes the op
/// stream — core count, instruction budget, core width (the fetch
/// margin) — they may differ in technique, cache geometry, decay
/// intervals, engines.
///
/// # Panics
/// Panics if `cfgs` is empty or disagrees on `n_cores`,
/// `instructions_per_core` or `core.width`, or if `sources` does not
/// supply exactly one op stream per core.
pub fn run_lane_group(
    cfgs: &[CmpConfig],
    sources: Vec<Box<dyn OpSource>>,
    scratch: &mut LaneScratch,
) -> Vec<SimStats> {
    // audit:allow(unwrap-in-lib, caller contract: lane groups are built non-empty by the planner)
    let first = cfgs.first().expect("a lane group needs at least one configuration");
    for c in cfgs {
        assert_eq!(c.n_cores, first.n_cores, "lane configs must agree on the core count");
        assert_eq!(
            c.instructions_per_core, first.instructions_per_core,
            "lane configs must agree on the instruction budget"
        );
        assert_eq!(c.core.width, first.core.width, "lane configs must agree on the core width");
    }
    let n_cores = first.n_cores;
    assert_eq!(sources.len(), n_cores, "one op source per core");

    let mut window = OpWindow::new(sources);
    let names: Vec<String> = (0..n_cores).map(|c| window.name(c).to_string()).collect();
    if scratch.sims.len() < cfgs.len() {
        scratch.sims.resize_with(cfgs.len(), SimScratch::default);
    }

    let trunk_of = plan_trunks(cfgs);
    let mut lanes: Vec<Option<Lane>> = (0..cfgs.len()).map(|_| None).collect();
    for (i, cfg) in cfgs.iter().enumerate() {
        if trunk_of[i].is_none() {
            let sys = CmpSystem::for_window(*cfg, names.clone(), &mut scratch.sims[i]);
            lanes[i] =
                Some(Lane { sys, pos: vec![0; n_cores], riders: Vec::new(), anchored: true });
        }
    }
    for (slot, trunk) in trunk_of.iter().enumerate() {
        let (Some(trunk), Some(fork_at)) = (*trunk, cfgs[slot].first_decay_turnoff()) else {
            continue;
        };
        if let Some(lane) = lanes[trunk].as_mut() {
            lane.sys.attach_rider(cfgs[slot], scratch.sims[slot].arena_mut());
            lane.riders.push(Rider { slot, fork_at });
        }
    }
    let mut out: Vec<Option<SimStats>> = (0..cfgs.len()).map(|_| None).collect();

    let mut min_pos = vec![0u64; n_cores];
    let mut max_pos = vec![0u64; n_cores];
    while lanes.iter().any(Option::is_some) {
        // Window bounds over the live lanes only: finished lanes no
        // longer anchor the base, so the window keeps sliding.
        min_pos.fill(u64::MAX);
        max_pos.fill(0);
        for lane in lanes.iter_mut().flatten() {
            lane.anchored = true;
            for c in 0..n_cores {
                min_pos[c] = min_pos[c].min(lane.pos[c]);
                max_pos[c] = max_pos[c].max(lane.pos[c]);
            }
        }
        window.advance(&min_pos, &max_pos, SEGMENT_TARGET);
        for i in 0..lanes.len() {
            let Some(mut lane) = lanes[i].take() else {
                continue;
            };
            let before = lane.sys.now();
            let done = loop {
                let limit = lane.riders.iter().map(|r| r.fork_at).min().unwrap_or(u64::MAX);
                match lane.sys.run_segment(&window, &mut lane.pos, limit) {
                    Segment::Paused => lane.fork_due(false, &mut lanes, scratch),
                    Segment::Starved => break false,
                    Segment::Done => {
                        lane.fork_due(true, &mut lanes, scratch);
                        break true;
                    }
                }
            };
            // After `advance`, every anchored lane has at least the
            // segment target buffered on every unfinished core, so a
            // segment that neither completes nor steps a cycle means the
            // window contract broke — looping on it would hang the sweep.
            assert!(
                done || lane.sys.now() > before || !lane.anchored,
                "lane {i} made no progress in a freshly advanced window"
            );
            if done {
                let stats = lane.sys.finalize();
                lane.sys.reclaim_scratch(&mut scratch.sims[i]);
                out[i] = Some(stats);
            } else {
                lanes[i] = Some(lane);
            }
        }
    }
    // audit:allow(unwrap-in-lib, the scheduler loop only exits once every lane has been finalized into its slot)
    out.into_iter().map(|s| s.expect("every lane finalized")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CycleEngine;
    use crate::system::run_sources_with_scratch;
    use cmpleak_coherence::Technique;
    use cmpleak_cpu::{LiveGen, ReplayWorkload, TraceOp};

    fn tiny_cfg(technique: Technique) -> CmpConfig {
        let mut cfg = CmpConfig { n_cores: 2, ..CmpConfig::default() };
        cfg.l1.size_bytes = 1024;
        cfg.l2.size_bytes = 64 * 1024;
        cfg.technique = technique;
        cfg.instructions_per_core = 20_000;
        cfg.max_cycles = 10_000_000;
        cfg.sample_interval = 1000;
        cfg
    }

    fn mixed_streams() -> Vec<Box<dyn OpSource>> {
        // Core 0 strides privately; core 1 hammers a small shared set —
        // invalidations, c2c transfers and idle spans in one group.
        let a: Vec<TraceOp> = (0..256u64)
            .flat_map(|i| {
                [
                    TraceOp::Exec(3),
                    TraceOp::Load((1 << 20) + i * 64),
                    TraceOp::Exec(0),
                    TraceOp::Store((1 << 20) + i * 64 + 8),
                ]
            })
            .collect();
        let b: Vec<TraceOp> = (0..64u64)
            .flat_map(|i| [TraceOp::Exec(2), TraceOp::Store(i * 64), TraceOp::Load(i * 64)])
            .collect();
        vec![
            LiveGen::boxed(Box::new(ReplayWorkload::named("alpha", a))),
            LiveGen::boxed(Box::new(ReplayWorkload::named("beta", b))),
        ]
    }

    fn techniques() -> Vec<Technique> {
        vec![
            Technique::Baseline,
            Technique::Protocol,
            Technique::Decay { decay_cycles: 2048 },
            Technique::SelectiveDecay { decay_cycles: 4096 },
        ]
    }

    #[test]
    fn lane_group_matches_sequential_runs_bit_for_bit() {
        for engine in [CycleEngine::Worklist, CycleEngine::FullScan] {
            let cfgs: Vec<CmpConfig> =
                techniques().into_iter().map(|t| CmpConfig { engine, ..tiny_cfg(t) }).collect();
            let mut scratch = LaneScratch::default();
            let laned = run_lane_group(&cfgs, mixed_streams(), &mut scratch);
            for (cfg, lane_stats) in cfgs.iter().zip(&laned) {
                let mut sim = SimScratch::default();
                let sequential = run_sources_with_scratch(*cfg, mixed_streams(), &mut sim);
                assert_eq!(lane_stats, &sequential, "lanes diverged under {:?}", cfg.technique);
            }
        }
    }

    #[test]
    fn lane_group_reports_workload_names() {
        let cfgs = vec![tiny_cfg(Technique::Baseline)];
        let stats = run_lane_group(&cfgs, mixed_streams(), &mut LaneScratch::default());
        assert_eq!(stats[0].core_workloads, vec!["alpha", "beta"]);
    }

    #[test]
    fn lane_scratch_reuse_is_invisible() {
        let cfgs: Vec<CmpConfig> = techniques().into_iter().map(tiny_cfg).collect();
        let mut scratch = LaneScratch::default();
        let a = run_lane_group(&cfgs, mixed_streams(), &mut scratch);
        let b = run_lane_group(&cfgs, mixed_streams(), &mut scratch);
        assert_eq!(a, b, "warm pools must not change results");
    }

    #[test]
    fn single_lane_group_degenerates_to_a_plain_run() {
        let cfgs = vec![tiny_cfg(Technique::Decay { decay_cycles: 1024 })];
        let laned = run_lane_group(&cfgs, mixed_streams(), &mut LaneScratch::default());
        let plain = run_sources_with_scratch(cfgs[0], mixed_streams(), &mut SimScratch::default());
        assert_eq!(laned[0], plain);
    }

    #[test]
    fn lanes_with_different_engines_stay_bit_identical() {
        // One group mixing the full-scan reference with the worklist
        // engine: both must agree with each other (engine bit-identity)
        // while sharing the window.
        let full_scan = CmpConfig {
            engine: CycleEngine::FullScan,
            ..tiny_cfg(Technique::Decay { decay_cycles: 2048 })
        };
        let worklist = CmpConfig { engine: CycleEngine::Worklist, ..full_scan };
        let stats =
            run_lane_group(&[full_scan, worklist], mixed_streams(), &mut LaneScratch::default());
        assert_eq!(stats[0], stats[1]);
    }

    #[test]
    fn lane_group_caps_at_max_cycles() {
        let mut cfg = tiny_cfg(Technique::Baseline);
        cfg.max_cycles = 7_777;
        let laned = run_lane_group(&[cfg], mixed_streams(), &mut LaneScratch::default());
        assert_eq!(laned[0].cycles, 7_777);
        let plain = run_sources_with_scratch(cfg, mixed_streams(), &mut SimScratch::default());
        assert_eq!(laned[0], plain);
    }

    #[test]
    #[should_panic(expected = "agree on the instruction budget")]
    fn mismatched_budgets_are_rejected() {
        let a = tiny_cfg(Technique::Baseline);
        let mut b = a;
        b.instructions_per_core += 1;
        run_lane_group(&[a, b], mixed_streams(), &mut LaneScratch::default());
    }
}
