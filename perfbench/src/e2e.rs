//! The untraced run: set-up, then timed passes for `--seconds`, each
//! pass checked, with the host-speed reference sampled between them;
//! reports the end-to-end metrics, host time scaled to the reference
//! speed. The per-layer run reuses the same drivers for its untraced
//! reference passes.

use crate::measure::{self, Latency, TAIL_BEYOND};
use crate::serve::Reference;
use crate::speed::Gauge;
use crate::{deep, grid, metric, serve, Args, Report, RunDir, Workload};
use cmpleak_core::{ExperimentConfig, ExperimentScratch, SweepTelemetry};
use cmpleak_store::ResultStore;
use std::sync::Arc;
use std::time::Instant;

/// A set-up's host seconds, and how many cells it simulated and how
/// many of those failed their checks.
#[derive(Debug)]
pub struct Setup {
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// One timed pass over a workload's operations.
#[derive(Debug)]
pub struct Pass {
    pub wall_s: f64,
    /// Per-request latency, seconds. A `grid-cold` pass submits all 288
    /// cells in one sweep call and gets them all back at its end, so
    /// each waited the whole pass.
    pub latencies_s: Vec<f64>,
    /// Σ simulated cycles of every delivered cell.
    pub cycles: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-cell (per-answer for `serve-warm`) payload digests.
    pub cells: Vec<u64>,
    pub digest: u64,
}

/// A workload as the untraced run drives it.
pub trait Driver {
    fn setup(&mut self) -> Result<Setup, String>;
    /// One timed pass, checked; `inject` corrupts one output first.
    fn pass(&mut self, inject: bool) -> Result<Pass, String>;
}

pub struct GridCold<'a> {
    pub instr: u64,
    pub seed: u64,
    pub threads: usize,
    pub dir: &'a RunDir,
    pub cfgs: Vec<ExperimentConfig>,
    pub telemetry: SweepTelemetry,
}

impl Driver for GridCold<'_> {
    /// Build the 288 configurations and prime with one sweep at a tenth
    /// of the budget.
    fn setup(&mut self) -> Result<Setup, String> {
        let t0 = Instant::now();
        self.cfgs = grid::cell_configs(self.instr, self.seed);
        let store = grid::fresh_store(&self.dir.store("prime"))?;
        grid::run_untraced(self.instr / crate::PRIME_DIVISOR, self.seed, self.threads, store);
        Ok(Setup { seconds: t0.elapsed().as_secs_f64(), attempted: 0, failed: 0 })
    }

    fn pass(&mut self, inject: bool) -> Result<Pass, String> {
        let store = grid::fresh_store(&self.dir.store("grid"))?;
        let (mut results, telemetry, wall_s) =
            grid::run_untraced(self.instr, self.seed, self.threads, store.clone());
        self.telemetry = telemetry;
        if inject {
            results.cells[0].cycles += 1;
        }
        let check = grid::check_untraced(&self.cfgs, &store, &results);
        let n = self.cfgs.len();
        Ok(Pass {
            wall_s,
            latencies_s: vec![wall_s; n],
            cycles: check.delivered_cycles,
            attempted: n as u64,
            failed: check.failed,
            cells: check.cells,
            digest: check.digest,
        })
    }
}

pub struct CellsDeep {
    pub instr: u64,
    pub seed: u64,
    pub cfgs: Vec<ExperimentConfig>,
    pub scratch: ExperimentScratch,
}

impl Driver for CellsDeep {
    /// Build the 4 configurations and prime the reused scratch (the
    /// 8 MB banks' line-state columns, queues) at a tenth of the budget.
    fn setup(&mut self) -> Result<Setup, String> {
        let t0 = Instant::now();
        self.cfgs = deep::cell_configs(self.instr, self.seed);
        self.scratch = ExperimentScratch::default();
        let prime = deep::cell_configs(self.instr / crate::PRIME_DIVISOR, self.seed);
        deep::run_pass(&prime, &mut self.scratch);
        Ok(Setup { seconds: t0.elapsed().as_secs_f64(), attempted: 0, failed: 0 })
    }

    fn pass(&mut self, inject: bool) -> Result<Pass, String> {
        let t0 = Instant::now();
        let (mut results, latencies_s) = deep::run_pass(&self.cfgs, &mut self.scratch);
        let wall_s = t0.elapsed().as_secs_f64();
        if inject {
            crate::inject(&mut results[0]);
        }
        let (failed, cells) = deep::check(&self.cfgs, &results);
        Ok(Pass {
            wall_s,
            latencies_s,
            cycles: results.iter().map(|r| r.stats.cycles).sum(),
            attempted: results.len() as u64,
            failed,
            digest: measure::run_digest(&cells, None),
            cells,
        })
    }
}

pub struct ServeWarm<'a> {
    pub instr: u64,
    pub seed: u64,
    pub threads: usize,
    pub queue_len: usize,
    pub dir: &'a RunDir,
    pub cfgs: Vec<ExperimentConfig>,
    pub queue: Vec<usize>,
    pub served: Option<(Arc<ResultStore>, Reference)>,
}

impl Driver for ServeWarm<'_> {
    /// Build the configurations and the seeded queue, then populate a
    /// fresh store by running the grid through the planner with it
    /// attached. Reading the reference answers back is a check, not
    /// set-up.
    fn setup(&mut self) -> Result<Setup, String> {
        let t0 = Instant::now();
        self.cfgs = grid::cell_configs(self.instr, self.seed);
        self.queue = serve::queue(self.seed, self.queue_len, self.cfgs.len());
        let store = grid::fresh_store(&self.dir.store("serve"))?;
        let (summary, _, _) =
            grid::run_untraced(self.instr, self.seed, self.threads, store.clone());
        let seconds = t0.elapsed().as_secs_f64();
        let check = grid::check_untraced(&self.cfgs, &store, &summary);
        self.served = Some((store, Reference { payloads: check.payloads, summary }));
        Ok(Setup { seconds, attempted: self.cfgs.len() as u64, failed: check.failed })
    }

    fn pass(&mut self, inject: bool) -> Result<Pass, String> {
        let (store, reference) = self.served.as_ref().expect("set-up populated the store");
        let t0 = Instant::now();
        let (mut answers, latencies_s) = serve::run_pass(&self.cfgs, store, &self.queue);
        let wall_s = t0.elapsed().as_secs_f64();
        if inject {
            if let Some(r) = answers[0].as_mut() {
                crate::inject(r);
            }
        }
        let (failed, cells, cycles) = serve::check(&self.cfgs, &self.queue, &answers, reference);
        Ok(Pass {
            wall_s,
            latencies_s,
            cycles,
            attempted: answers.len() as u64,
            failed,
            digest: measure::run_digest(&cells, None),
            cells,
        })
    }
}

/// Request latency over the passes, kept as a few numbers per pass so
/// the harness's own memory does not grow with the pass count (it
/// would count in `peak_rss_mb`). With more than ten requests a pass
/// (`grid-cold`, `serve-warm`): p50 and tail per pass, then the median
/// over passes. `cells-deep`'s 4 cells differ in cost, so pooling them
/// would make p50 an extreme of one cell: instead each cell's latency
/// is its median over passes, p50 is the median of the 4 and the tail
/// is the slowest of them.
#[derive(Debug, Default)]
struct Latencies {
    per_pass: Vec<Latency>,
    /// `per_cell[c]`: cell `c`'s sample of every pass.
    per_cell: Vec<Vec<f64>>,
}

impl Latencies {
    fn add(&mut self, samples: &[f64]) {
        if samples.len() > TAIL_BEYOND {
            self.per_pass.push(measure::latency(samples));
        } else {
            self.per_cell.resize_with(samples.len(), Vec::new);
            for (cell, &sample) in self.per_cell.iter_mut().zip(samples) {
                cell.push(sample);
            }
        }
    }

    fn summary(&self) -> Latency {
        if self.per_cell.is_empty() {
            let per = &self.per_pass;
            Latency {
                p50: measure::median(&per.iter().map(|l| l.p50).collect::<Vec<_>>()),
                tail: measure::median(&per.iter().map(|l| l.tail).collect::<Vec<_>>()),
                ..per[0]
            }
        } else {
            let medians: Vec<f64> = self.per_cell.iter().map(|c| measure::median(c)).collect();
            Latency {
                p50: measure::median(&medians),
                tail: medians.iter().copied().fold(f64::MIN, f64::max),
                tail_pct: 100.0,
                samples: medians.len(),
                beyond: 0,
            }
        }
    }
}

pub fn end_to_end(args: &Args, dir: &RunDir, threads: usize) -> Result<Report, String> {
    let s = args.scale;
    let seed = args.seed;
    let mut driver: Box<dyn Driver + '_> = match args.workload {
        Workload::GridCold => Box::new(GridCold {
            instr: s.grid_instr,
            seed,
            threads,
            dir,
            cfgs: Vec::new(),
            telemetry: SweepTelemetry::default(),
        }),
        Workload::CellsDeep => Box::new(CellsDeep {
            instr: s.deep_instr,
            seed,
            cfgs: Vec::new(),
            scratch: ExperimentScratch::default(),
        }),
        Workload::ServeWarm => Box::new(ServeWarm {
            instr: s.grid_instr,
            seed,
            threads,
            queue_len: s.serve_queue,
            dir,
            cfgs: Vec::new(),
            queue: Vec::new(),
            served: None,
        }),
    };

    // Host time is scaled to the reference speed (see `speed.rs`): each
    // set-up and each pass is divided by the mean of the host-slowness
    // readings just before and just after it, taken on as many threads
    // as the phase runs.
    let (timed_threads, setup_threads) = args.workload.threads(threads);
    let mut gauge = Gauge::new(setup_threads);
    let mut report = Report::default();
    let (mut setup_s, mut setup_raw) = (Vec::new(), Vec::new());
    let mut before = gauge.read(0.0);
    while setup_raw.len() < s.setup_reps || setup_raw.iter().sum::<f64>() < s.setup_seconds {
        let su = driver.setup()?;
        let after = gauge.read(su.seconds);
        setup_s.push(su.seconds / ((before + after) / 2.0));
        setup_raw.push(su.seconds);
        before = after;
        report.attempted += su.attempted;
        report.failed += su.failed;
    }
    drop(gauge);
    let mut gauge = Gauge::new(timed_threads);
    measure::trim_heap();

    let mut first_digest = None;
    let (mut walls, mut rates, mut lats) = (Vec::new(), Vec::new(), Latencies::default());
    let (mut raw_walls, mut slownesses, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut before = gauge.read(0.0);
    while walls.len() < s.min_passes || started.elapsed().as_secs_f64() < args.seconds {
        // Each pass's peak memory, without the reference kernel's tables:
        // set-up's and priming's freed heap was trimmed above, and what
        // an earlier pass left resident counts as it would for a user.
        measure::reset_peak_rss()?;
        // The injected mismatch lands on the second pass, so the first
        // stays a clean reference for the repeat check.
        let mut p = driver.pass(args.inject_mismatch && walls.len() == 1)?;
        peaks.push(measure::peak_rss_mb()? - gauge.resident_mb());
        let after = gauge.read(p.wall_s);
        let slowness = (before + after) / 2.0;
        before = after;
        // Every pass of one seed must repeat the first exactly.
        if *first_digest.get_or_insert(p.digest) != p.digest {
            p.failed = p.attempted;
        }
        report.attempted += p.attempted;
        report.failed += p.failed;
        let wall_s = p.wall_s / slowness;
        walls.push(wall_s);
        rates.push(p.cycles as f64 / wall_s);
        lats.add(&p.latencies_s.iter().map(|l| l / slowness).collect::<Vec<_>>());
        raw_walls.push(p.wall_s);
        slownesses.push(slowness);
    }

    let lat = lats.summary();
    let ok_frac = 1.0 - report.failed as f64 / report.attempted as f64;
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "passes: {} in {:.3} s; wall_s min {:.6} max {:.6}; setup_s samples {:?}; digest {:016x}",
        walls.len(),
        started.elapsed().as_secs_f64(),
        sorted[0],
        sorted[sorted.len() - 1],
        setup_s,
        first_digest.expect("at least one pass")
    );
    println!(
        "speed: host slowness median {:.4} (min {:.4}, max {:.4}); unscaled medians: wall_s {:.6}, setup_s {:.6}",
        measure::median(&slownesses),
        slownesses.iter().copied().fold(f64::MAX, f64::min),
        slownesses.iter().copied().fold(f64::MIN, f64::max),
        measure::median(&raw_walls),
        measure::median(&setup_raw)
    );
    println!(
        "latency: request_p50_us over {} samples ({}); request_tail_us is p{:.3} ({} samples beyond)",
        lat.samples,
        if lat.beyond == 0 { "per-cell medians over passes" } else { "per pass, median over passes" },
        lat.tail_pct,
        lat.beyond
    );
    println!(
        "ops: attempted {} failed {} ops_failed_frac {}",
        report.attempted,
        report.failed,
        1.0 - ok_frac
    );
    report.metrics = vec![
        metric("setup_s", measure::median(&setup_s), "s"),
        metric("wall_s", measure::median(&walls), "s"),
        metric("sim_cycles_per_s", measure::median(&rates), "cycles/s"),
        metric("request_p50_us", lat.p50 * 1e6, "us"),
        metric("request_tail_us", lat.tail * 1e6, "us"),
        metric("peak_rss_mb", measure::median(&peaks), "MB"),
        metric("ops_ok_frac", ok_frac, "ratio"),
    ];
    Ok(report)
}
