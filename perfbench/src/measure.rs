//! What every workload shares: result digests, output checks, exact
//! modeled-work counters, latency statistics and host facts.

use cmpleak_core::{ExperimentResult, SweepCell, SweepResults, TechniqueMetrics};
use cmpleak_store::record::encode_payload;
use cmpleak_system::{CycleProfile, EventQueueStats, SimStats};

/// 64-bit FNV-1a, folded over every byte a digest covers.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// The store's canonical byte encoding of a result: every `SimStats`
/// and `PowerReport` field, so byte equality is result equality.
pub fn payload(r: &ExperimentResult) -> Vec<u8> {
    encode_payload(&r.stats, &r.power)
}

/// Whether every core retired exactly the budget the cell asked for.
pub fn retired_budget(stats: &SimStats, instructions_per_core: u64) -> bool {
    !stats.cores.is_empty() && stats.cores.iter().all(|c| c.instructions == instructions_per_core)
}

/// The planner's grid summary rebuilt from full results laid out in
/// (scenario, size) groups of `group_len`, baseline first — the same
/// cells `run_sweep` returns, so the two serialize identically.
pub fn summarize(results: &[ExperimentResult], group_len: usize) -> SweepResults {
    let cell = |r: &ExperimentResult, metrics| SweepCell {
        benchmark: r.benchmark.clone(),
        technique: r.technique.clone(),
        size_mb: r.total_l2_mb,
        metrics,
        cycles: r.stats.cycles,
        mem_bytes: r.stats.mem_bytes,
        energy_pj: r.power.energy.total_pj(),
        avg_l2_temp_c: r.power.avg_l2_temp_c,
    };
    let mut cells = Vec::with_capacity(results.len());
    for group in results.chunks(group_len) {
        let base = &group[0];
        cells.push(cell(base, TechniqueMetrics::baseline_identity(base)));
        cells.extend(group[1..].iter().map(|t| cell(t, TechniqueMetrics::compare(base, t))));
    }
    SweepResults { cells }
}

/// Digest of one cell's full payload.
pub fn cell_digest(payload: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.write(payload);
    d.finish()
}

/// Digest of a sequence of cell digests, optionally followed by the
/// grid summary the user sees.
pub fn run_digest(cells: &[u64], summary: Option<&SweepResults>) -> u64 {
    let mut d = Digest::new();
    for c in cells {
        d.write(&c.to_le_bytes());
    }
    if let Some(s) = summary {
        d.write(serde_json::to_string(s).expect("sweep results serialize").as_bytes());
    }
    d.finish()
}

/// Exact per-layer counters. Every field is a deterministic function
/// of the workload and seed, so two runs of one seed must agree on all
/// of them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub cells_simulated: u64,
    pub cells_derived: u64,
    pub groups_recorded: u64,
    pub record_ops: u64,
    pub record_bytes: u64,
    pub gen_ops: u64,
    pub sim_cycles: u64,
    pub instructions: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub l2_induced_misses: u64,
    pub l2_retries: u64,
    pub bus_transactions: u64,
    pub bus_busy_cycles: u64,
    pub mem_fills: u64,
    pub c2c_transfers: u64,
    pub turnoffs_decay: u64,
    pub turnoffs_protocol: u64,
    pub eq_overflow_pushes: u64,
    pub cycles_stepped: u64,
    pub cycles_skipped: u64,
    pub cycles_batched: u64,
    pub core_phases_suppressed: u64,
    pub grant_checks_skipped: u64,
    pub port_loops_skipped: u64,
    pub events_popped: u64,
    pub power_evals: u64,
    pub power_intervals: u64,
    pub store_hits: u64,
    pub store_misses: u64,
}

impl Counts {
    /// Add one simulated cell's modeled work.
    pub fn add_sim(&mut self, s: &SimStats) {
        self.cells_simulated += 1;
        self.sim_cycles += s.cycles;
        self.instructions += s.instructions;
        for l2 in &s.l2 {
            self.l2_accesses += l2.accesses();
            self.l2_misses += l2.misses;
            self.l2_induced_misses += l2.induced_misses;
            self.l2_retries += l2.retries;
            self.turnoffs_decay += l2.turnoffs_decay;
            self.turnoffs_protocol += l2.turnoffs_protocol;
        }
        self.bus_transactions += s.bus_transactions;
        self.bus_busy_cycles += s.bus_busy_cycles;
        self.mem_fills += s.mem_fills;
        self.c2c_transfers += s.c2c_transfers;
    }

    /// Add one simulated cell's skip-mechanism counters (the profile
    /// reads all zero unless built with the `cycle-profile` feature).
    pub fn add_profile(&mut self, p: CycleProfile, q: EventQueueStats) {
        self.eq_overflow_pushes += q.overflow_pushes;
        self.cycles_stepped += p.cycles_stepped;
        self.cycles_skipped += p.cycles_skipped;
        self.cycles_batched += p.cycles_batched;
        self.core_phases_suppressed += p.core_phases_suppressed;
        self.grant_checks_skipped += p.grant_checks_skipped;
        self.port_loops_skipped += p.port_loops_skipped;
        self.events_popped += p.events_popped;
    }

    pub fn add_power(&mut self, s: &SimStats) {
        self.power_evals += 1;
        self.power_intervals += s.trace.len() as u64;
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency summary of one sample set: the median, and the highest
/// percentile with at least ten samples beyond it (nearest rank: the
/// eleventh-largest sample).
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub samples: usize,
    /// Samples beyond the tail.
    pub beyond: usize,
}

pub const TAIL_BEYOND: usize = 10;

pub fn latency(samples: &[f64]) -> Latency {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > TAIL_BEYOND, "a tail needs more than {TAIL_BEYOND} samples, got {n}");
    Latency {
        p50: median(&v),
        tail: v[n - 1 - TAIL_BEYOND],
        tail_pct: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
        beyond: TAIL_BEYOND,
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: give the free memory of every malloc arena back to the OS.
    fn malloc_trim(pad: usize) -> i32;
}

/// Return the free memory of every malloc arena to the OS, so memory
/// that earlier phases freed but the allocator kept is not resident.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim takes no pointers and only releases free pages.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset the peak resident set to the current one (Linux 4.0 and later),
/// so a later [`peak_rss_mb`] covers only what ran since.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS via /proc/self/clear_refs: {e}"))
}

/// Peak resident set of this process, in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_eleventh_largest() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = latency(&samples);
        assert_eq!(l.tail, 90.0);
        assert_eq!(l.tail_pct, 90.0);
        assert_eq!(l.p50, 50.5);
    }
}
