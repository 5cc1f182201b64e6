//! The traced run (`--trace 1`): one untraced reference pass, then the
//! same work decomposed into the public calls the program makes, with
//! a span around each, then a generation-only probe. Reports every
//! per-layer metric; the traced results must equal the untraced ones
//! cell for cell.

use crate::e2e::{CellsDeep, Driver, GridCold, Pass, ServeWarm};
use crate::measure::{self, Counts};
use crate::tracer::{Layer, Phase, Tracer};
use crate::{deep, grid, metric, serve, Args, Metric, Report, RunDir, Workload};
use cmpleak_core::{ExperimentScratch, Scenario, SweepTelemetry};
use std::hint::black_box;

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move. Printed beside each value; the order is
/// BENCHMARK.json's.
const TARGETS: &[(&str, &str, &str)] = &[
    ("core.self_s", "s", "wall_s on grid-cold; nothing elsewhere"),
    ("core.parallel_eff", "ratio", "wall_s on grid-cold; nothing elsewhere"),
    ("core.cells_simulated", "count", "wall_s on grid-cold; nothing elsewhere"),
    ("core.cells_derived", "count", "wall_s on grid-cold; nothing elsewhere"),
    ("core.groups_recorded", "count", "wall_s on grid-cold; nothing elsewhere"),
    ("trace.record_s", "s", "wall_s and peak_rss_mb on grid-cold"),
    ("trace.record_ns_per_op", "ns/op", "wall_s and peak_rss_mb on grid-cold"),
    ("trace.bytes_per_op", "B/op", "wall_s and peak_rss_mb on grid-cold"),
    ("workloads.gen_ns_per_op", "ns/op", "wall_s on cells-deep; a little on grid-cold"),
    (
        "system.run_s",
        "s",
        "sim_cycles_per_s and wall_s on cells-deep, then grid-cold; setup_s only on serve-warm",
    ),
    (
        "system.ns_per_cell_cycle",
        "ns/cycle",
        "sim_cycles_per_s and wall_s on cells-deep, then grid-cold; setup_s only on serve-warm",
    ),
    ("system.sim_cycles", "count", "none: a change marks a model change"),
    ("system.instructions", "count", "none: a change marks a model change"),
    ("system.l2_accesses", "count", "none: a change marks a model change"),
    ("system.l2_misses", "count", "none: a change marks a model change"),
    ("system.l2_induced_misses", "count", "none: a change marks a model change"),
    ("system.l2_retries", "count", "none: a change marks a model change"),
    ("system.bus_transactions", "count", "none: a change marks a model change"),
    ("system.bus_busy_cycles", "count", "none: a change marks a model change"),
    ("system.mem_fills", "count", "none: a change marks a model change"),
    ("system.c2c_transfers", "count", "none: a change marks a model change"),
    ("system.turnoffs_decay", "count", "none: a change marks a model change"),
    ("system.turnoffs_protocol", "count", "none: a change marks a model change"),
    ("system.eq_overflow_pushes", "count", "wall_s on cells-deep"),
    ("system.cycles_stepped", "count", "wall_s on cells-deep"),
    ("system.cycles_skipped", "count", "wall_s on cells-deep"),
    ("system.cycles_batched", "count", "wall_s on cells-deep"),
    ("system.core_phases_suppressed", "count", "wall_s on cells-deep"),
    ("system.grant_checks_skipped", "count", "wall_s on cells-deep"),
    ("system.port_loops_skipped", "count", "wall_s on cells-deep"),
    ("system.events_popped", "count", "wall_s on cells-deep"),
    ("power.eval_s", "s", "wall_s on grid-cold; negligible on cells-deep"),
    ("power.eval_us_per_cell", "us", "wall_s on grid-cold; negligible on cells-deep"),
    ("power.intervals", "count", "wall_s on grid-cold; negligible on cells-deep"),
    ("store.key_us", "us", "request_p50_us and request_tail_us on serve-warm"),
    ("store.load_us", "us", "request_p50_us and request_tail_us on serve-warm"),
    ("store.record_bytes", "B", "request_p50_us and request_tail_us on serve-warm"),
    ("store.hits", "count", "request_p50_us and request_tail_us on serve-warm"),
    ("store.publish_us", "us", "wall_s on grid-cold; setup_s on serve-warm"),
    ("store.misses", "count", "wall_s on grid-cold; setup_s on serve-warm"),
    ("harness.trace_overhead_frac", "ratio", "none: the traced run's own cost"),
];

/// `num / den`, or 0 when the workload never did the work.
fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Mean µs per call of the spans named `name` (in `phase`, if given).
fn mean_us(t: &Tracer, name: &str, phase: Option<Phase>) -> f64 {
    let (n, ns) = t.calls(name, phase);
    per(ns as f64 * 1e-3, n)
}

/// Generation only: pull every core's ops for `instr` instructions
/// straight from the live generators, as recording or live simulation
/// would, and do nothing else with them.
fn gen_probe(t: &mut Tracer, scenarios: &[Scenario], instr: u64, seed: u64, counts: &mut Counts) {
    t.set_phase(Phase::Probe);
    for s in scenarios {
        let ops = t.span(Layer::Workloads, "build_workloads+next_op", |_| {
            let mut ops = 0u64;
            for mut wl in s.build_workloads(grid::N_CORES, seed, instr) {
                let mut done = 0u64;
                while done < instr {
                    done += black_box(wl.next_op()).instructions();
                    ops += 1;
                }
            }
            ops
        });
        counts.gen_ops += ops;
    }
}

/// Compare traced against untraced results cell by cell; returns the
/// number that differ.
fn mismatches(untraced: &[u64], traced: &[u64]) -> u64 {
    let differ = untraced.iter().zip(traced).filter(|(a, b)| a != b).count();
    (differ + untraced.len().abs_diff(traced.len())) as u64
}

/// `n` checked untraced passes: the first (whose cells the traced run
/// must reproduce) and the median pass time.
fn reference(d: &mut dyn Driver, n: usize, report: &mut Report) -> Result<(Pass, f64), String> {
    let mut first: Option<Pass> = None;
    let mut walls = Vec::with_capacity(n);
    for _ in 0..n {
        let p = d.pass(false)?;
        walls.push(p.wall_s);
        report.attempted += p.attempted;
        report.failed += match &first {
            Some(f) if f.digest != p.digest => p.attempted,
            _ => p.failed,
        };
        first.get_or_insert(p);
    }
    Ok((first.expect("at least one reference pass"), measure::median(&walls)))
}

pub fn per_layer(args: &Args, dir: &RunDir, threads: usize) -> Result<Report, String> {
    let s = args.scale;
    let seed = args.seed;
    let mut report = Report::default();
    let mut t = Tracer::new();
    let mut counts = Counts::default();
    // Untraced wall of the work the traced run decomposes, at the
    // workload's thread count and at one thread (the traced run's).
    let (untraced_s, untraced_1t_s, work_threads);
    let mut telemetry = None;
    let gen_scenarios: Vec<Scenario>;
    let gen_instr;
    let (records, record_bytes);
    let inject = args.inject_mismatch;

    match args.workload {
        Workload::GridCold => {
            let mut d = GridCold {
                instr: s.grid_instr,
                seed,
                threads,
                dir,
                cfgs: Vec::new(),
                telemetry: SweepTelemetry::default(),
            };
            d.setup()?;
            let (par, par_s) = reference(&mut d, s.min_passes, &mut report)?;
            telemetry = Some(d.telemetry);
            d.threads = 1;
            let (one, one_s) = reference(&mut d, s.min_passes, &mut report)?;
            let store = grid::fresh_store(&dir.store("traced"))?;
            let mut results = grid::run_traced(&mut t, s.grid_instr, seed, &store, &mut counts);
            if inject {
                crate::inject(&mut results[0]);
            }
            let cells: Vec<u64> =
                results.iter().map(|r| measure::cell_digest(&measure::payload(r))).collect();
            let summary = measure::summarize(&results, grid::group_len());
            let digest = measure::run_digest(&cells, Some(&summary));
            println!(
                "digests: untraced {:016x} (threads {threads}), untraced {:016x} (1 thread), traced {:016x}",
                par.digest, one.digest, digest
            );
            let failed = mismatches(&par.cells, &cells) + mismatches(&par.cells, &one.cells);
            report.attempted += par.attempted;
            // A summary-only difference still fails the traced grid once.
            report.failed += if failed == 0 && digest != par.digest { 1 } else { failed };
            (untraced_s, untraced_1t_s, work_threads) = (par_s, one_s, threads);
            (records, record_bytes) = grid::record_bytes(&store, &d.cfgs);
            gen_scenarios = grid::scenarios();
            gen_instr = s.grid_instr;
        }
        Workload::CellsDeep => {
            let mut d = CellsDeep {
                instr: s.deep_instr,
                seed,
                cfgs: Vec::new(),
                scratch: ExperimentScratch::default(),
            };
            d.setup()?;
            let (u, u_s) = reference(&mut d, s.min_passes, &mut report)?;
            let mut results = deep::run_traced(&mut t, &d.cfgs, &mut counts);
            if inject {
                crate::inject(&mut results[0]);
            }
            let (failed, cells) = deep::check(&d.cfgs, &results);
            println!(
                "digests: untraced {:016x}, traced {:016x}",
                u.digest,
                measure::run_digest(&cells, None)
            );
            report.attempted += u.attempted;
            report.failed += failed.max(mismatches(&u.cells, &cells));
            (untraced_s, untraced_1t_s, work_threads) = (u_s, u_s, 1);
            (records, record_bytes) = (0, 0);
            gen_scenarios = vec![d.cfgs[0].scenario.clone(), d.cfgs[2].scenario.clone()];
            gen_instr = s.deep_instr;
        }
        Workload::ServeWarm => {
            let mut d = ServeWarm {
                instr: s.grid_instr,
                seed,
                threads,
                queue_len: s.serve_queue,
                dir,
                cfgs: Vec::new(),
                queue: Vec::new(),
                served: None,
            };
            let su = d.setup()?;
            report.attempted += su.attempted;
            report.failed += su.failed;
            let (u, u_s) = reference(&mut d, s.min_passes, &mut report)?;
            let (_, reference) = d.served.as_ref().expect("set-up populated the store");
            // Set-up decomposed the same way as grid-cold, into a second
            // store the traced requests then read.
            t.set_phase(Phase::Setup);
            let store = grid::fresh_store(&dir.store("traced"))?;
            let populated = grid::run_traced(&mut t, s.grid_instr, seed, &store, &mut counts);
            let populated_cells: Vec<u64> =
                populated.iter().map(|r| measure::cell_digest(&measure::payload(r))).collect();
            let reference_cells: Vec<u64> =
                reference.payloads.iter().map(|p| measure::cell_digest(p)).collect();
            t.set_phase(Phase::Timed);
            let mut answers = serve::run_traced(&mut t, &d.cfgs, &store, &d.queue, &mut counts);
            if inject {
                if let Some(r) = answers[0].as_mut() {
                    crate::inject(r);
                }
            }
            let (failed, cells, _) = serve::check(&d.cfgs, &d.queue, &answers, reference);
            println!(
                "digests: untraced {:016x}, traced {:016x}",
                u.digest,
                measure::run_digest(&cells, None)
            );
            report.attempted += u.attempted + populated.len() as u64;
            report.failed += failed.max(mismatches(&u.cells, &cells))
                + mismatches(&reference_cells, &populated_cells);
            (untraced_s, untraced_1t_s, work_threads) = (u_s, u_s, 1);
            (records, record_bytes) =
                grid::record_bytes(&store, d.queue.iter().map(|&i| &d.cfgs[i]));
            gen_scenarios = grid::scenarios();
            gen_instr = s.grid_instr;
        }
    }

    let traced_s = t.root_s(Phase::Timed);
    gen_probe(&mut t, &gen_scenarios, gen_instr, seed, &mut counts);

    // The planner's own counters must agree with the decomposition's.
    if let Some(tel) = telemetry {
        let planner = (tel.derived as u64, tel.recorded as u64, tel.store_misses as u64);
        let traced = (counts.cells_derived, counts.groups_recorded, counts.store_misses);
        report.attempted += 1;
        if planner != traced {
            println!(
                "counter mismatch: planner (derived, recorded, misses) {planner:?} \
                 != traced {traced:?}"
            );
            report.failed += 1;
        }
    }

    let c = &counts;
    let system_run_s = t.self_s(Layer::System);
    let values: Vec<f64> = vec![
        t.self_s(Layer::Core),
        traced_s / (work_threads as f64 * untraced_s),
        c.cells_simulated as f64,
        c.cells_derived as f64,
        c.groups_recorded as f64,
        t.self_s(Layer::Trace),
        per(t.self_s(Layer::Trace) * 1e9, c.record_ops),
        per(c.record_bytes as f64, c.record_ops),
        per(t.self_s(Layer::Workloads) * 1e9, c.gen_ops),
        system_run_s,
        per(system_run_s * 1e9, c.sim_cycles),
        c.sim_cycles as f64,
        c.instructions as f64,
        c.l2_accesses as f64,
        c.l2_misses as f64,
        c.l2_induced_misses as f64,
        c.l2_retries as f64,
        c.bus_transactions as f64,
        c.bus_busy_cycles as f64,
        c.mem_fills as f64,
        c.c2c_transfers as f64,
        c.turnoffs_decay as f64,
        c.turnoffs_protocol as f64,
        c.eq_overflow_pushes as f64,
        c.cycles_stepped as f64,
        c.cycles_skipped as f64,
        c.cycles_batched as f64,
        c.core_phases_suppressed as f64,
        c.grant_checks_skipped as f64,
        c.port_loops_skipped as f64,
        c.events_popped as f64,
        t.self_s(Layer::Power),
        per(t.self_s(Layer::Power) * 1e6, c.power_evals),
        c.power_intervals as f64,
        mean_us(&t, "store_key", Some(Phase::Timed)),
        mean_us(&t, "ResultStore::load", Some(Phase::Timed)),
        per(record_bytes as f64, records),
        c.store_hits as f64,
        mean_us(&t, "ResultStore::publish", None),
        c.store_misses as f64,
        (traced_s - untraced_1t_s) / untraced_1t_s,
    ];
    assert_eq!(values.len(), TARGETS.len(), "one value per per-layer metric");

    println!("spans: phase layer name calls total_s self_s");
    for (phase, layer, name, calls, total, own) in t.summary() {
        println!(
            "  {phase:?} {} {name} {calls} {:.6} {:.6}",
            layer.name(),
            total as f64 * 1e-9,
            own as f64 * 1e-9
        );
    }
    println!(
        "overhead: traced {traced_s:.6} s vs untraced {untraced_1t_s:.6} s at 1 thread ({:+.2}%); untraced at {work_threads} threads {untraced_s:.6} s",
        100.0 * (traced_s - untraced_1t_s) / untraced_1t_s
    );
    let mut metrics: Vec<Metric> = Vec::with_capacity(TARGETS.len());
    for (&(name, unit, target), value) in TARGETS.iter().zip(values) {
        println!("layer {name} = {value} {unit}  -> {target}");
        metrics.push(metric(name, value, unit));
    }
    println!("ops: attempted {} failed {}", report.attempted, report.failed);

    let spans_path =
        args.work_dir.join(format!("spans-{}-seed{}.jsonl", args.workload.name(), seed));
    t.write_jsonl(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    println!("spans written to {}", spans_path.display());
    report.metrics = metrics;
    Ok(report)
}
