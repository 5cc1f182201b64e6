//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                 # every figure + headline (one sweep)
//! repro table1              # Table I (turn-off legality matrix)
//! repro fig3a|fig3b|fig4a|fig4b|fig5a|fig5b
//! repro fig6a|fig6b         # per-benchmark figures (--size, default 4)
//! repro headline            # the paper's §VII summary numbers
//! repro json                # full sweep results as JSON
//! repro moesi               # §III MOESI extension analysis
//! repro cores               # beyond-paper: 2/4/8-core scaling
//! repro adaptive            # beyond-paper: oracle adaptive decay
//!
//! options: --instr N (default 6000000)  --size MB (default 4)
//!          --threads N (default: all)   --seed S (default 42)
//! ```

use cmpleak_core::adaptive::{oracle_advantage, oracle_pick};
use cmpleak_core::experiment::{run_experiment, ExperimentConfig};
use cmpleak_core::figures::FigureSet;
use cmpleak_core::metrics::TechniqueMetrics;
use cmpleak_core::sweep::{run_sweep, SweepConfig, SweepResults};
use cmpleak_core::{Technique, WorkloadSpec};
use std::time::Instant;

struct Opts {
    cmd: String,
    instr: u64,
    size_mb: usize,
    threads: usize,
    seed: u64,
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts { cmd: "all".into(), instr: 6_000_000, size_mb: 4, threads: 0, seed: 42 };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--instr" => opts.instr = it.next().and_then(|v| v.parse().ok()).expect("--instr N"),
            "--size" => opts.size_mb = it.next().and_then(|v| v.parse().ok()).expect("--size MB"),
            "--threads" => {
                opts.threads = it.next().and_then(|v| v.parse().ok()).expect("--threads N")
            }
            "--seed" => opts.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S"),
            cmd if !cmd.starts_with("--") => opts.cmd = cmd.to_string(),
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn sweep(opts: &Opts) -> SweepResults {
    let mut cfg = SweepConfig::paper(opts.instr);
    cfg.threads = opts.threads;
    cfg.seed = opts.seed;
    let t0 = Instant::now();
    let res = run_sweep(&cfg);
    eprintln!(
        "[sweep: {} cells, {:.1}s, instr/core={}]",
        res.cells.len(),
        t0.elapsed().as_secs_f64(),
        opts.instr
    );
    res
}

fn print_headline(figs: &FigureSet<'_>, size_mb: usize) {
    println!(
        "Headline (paper §VII), {size_mb}MB total L2, decay families averaged over decay times:"
    );
    println!("  paper: Protocol 13% energy / 0% IPC, Decay 30% / 8%, Selective Decay 21% / 2%");
    for (name, er, loss) in figs.headline(size_mb) {
        println!(
            "  {name:16} energy reduction {:5.1}%   IPC loss {:4.1}%",
            er * 100.0,
            loss * 100.0
        );
    }
}

fn moesi_analysis() {
    use cmpleak_coherence::bus::SnoopKind;
    use cmpleak_coherence::moesi::{step as moesi_step, MoesiEvent, MoesiState};
    println!("MOESI turn-off extension (paper §III):");
    println!("  A MESI M-line snooped by a reader becomes S with a write-back;");
    println!("  under MOESI it becomes O (dirty-shared) with no write-back —");
    println!("  but turning an O line off costs a write-back AND an invalidation");
    println!("  broadcast to the other sharers:\n");
    let scenarios = [
        (MoesiState::Modified, "M"),
        (MoesiState::Owned, "O"),
        (MoesiState::Exclusive, "E"),
        (MoesiState::Shared, "S"),
    ];
    println!("  {:>6} {:>10} {:>8} {:>20}", "state", "writeback", "gates", "invalidate sharers");
    for (s, label) in scenarios {
        let t = moesi_step(s, MoesiEvent::TurnOff);
        println!(
            "  {label:>6} {:>10} {:>8} {:>20}",
            if t.writeback { "yes" } else { "no" },
            if t.gate { "yes" } else { "no" },
            if t.invalidate_other_copies { "yes (extra bus op)" } else { "no" },
        );
    }
    let t = moesi_step(MoesiState::Owned, MoesiEvent::Snoop(SnoopKind::BusRd));
    assert!(t.supply_data && !t.writeback);
    println!("\n  Dirty sharing under MOESI avoids the M->S write-back (verified),");
    println!("  at the price of the costliest turn-off path in the family.");
}

fn cores_scaling(opts: &Opts) {
    println!("Core-count scaling (beyond the paper; {}MB total L2, WATER-NS):", opts.size_mb);
    println!(
        "  {:>6} {:>12} {:>14} {:>12} {:>12}",
        "cores", "technique", "occupation", "energy red.", "IPC loss"
    );
    for n_cores in [2usize, 4, 8] {
        let mk = |technique| ExperimentConfig {
            scenario: cmpleak_core::Scenario::Homogeneous(WorkloadSpec::water_ns()),
            technique,
            total_l2_mb: opts.size_mb,
            instructions_per_core: opts.instr / 2,
            seed: opts.seed,
            n_cores,
            power: Default::default(),
            engine: Default::default(),
        };
        let base = run_experiment(&mk(Technique::Baseline));
        for technique in [Technique::Protocol, Technique::Decay { decay_cycles: 128 * 1024 }] {
            let r = run_experiment(&mk(technique));
            let m = TechniqueMetrics::compare(&base, &r);
            println!(
                "  {n_cores:>6} {:>12} {:>13.1}% {:>11.1}% {:>11.2}%",
                r.technique,
                m.occupation * 100.0,
                m.energy_reduction * 100.0,
                m.ipc_loss * 100.0
            );
        }
    }
}

fn main() {
    let opts = parse_opts();
    match opts.cmd.as_str() {
        "table1" => {
            println!("{}", cmpleak_coherence::legality::render_table());
        }
        "moesi" => moesi_analysis(),
        "cores" => cores_scaling(&opts),
        "adaptive" => {
            let res = sweep(&opts);
            for prefix in ["decay", "sel_decay"] {
                let choices = oracle_pick(&res, prefix);
                println!("Oracle adaptive {prefix} (per-benchmark best interval by EDP):");
                for c in choices.iter().filter(|c| c.size_mb == opts.size_mb) {
                    println!(
                        "  {:10} {}MB -> {:14} EDP {:.3} (best fixed {:.3})",
                        c.benchmark, c.size_mb, c.technique, c.edp, c.best_fixed_edp
                    );
                }
                println!("  mean oracle advantage: {:.4} EDP\n", oracle_advantage(&choices));
            }
        }
        "json" => {
            let res = sweep(&opts);
            println!("{}", serde_json::to_string_pretty(&res).expect("serializable"));
        }
        "headline" => {
            let res = sweep(&opts);
            print_headline(&FigureSet::new(&res), opts.size_mb);
        }
        "all" => {
            println!("{}", cmpleak_coherence::legality::render_table());
            let res = sweep(&opts);
            let figs = FigureSet::new(&res);
            for f in figs.all_by_size() {
                println!("{f}");
            }
            println!("{}", figs.fig6a(opts.size_mb));
            println!("{}", figs.fig6b(opts.size_mb));
            print_headline(&figs, opts.size_mb);
        }
        fig @ ("fig3a" | "fig3b" | "fig4a" | "fig4b" | "fig5a" | "fig5b" | "fig6a" | "fig6b") => {
            let res = sweep(&opts);
            let figs = FigureSet::new(&res);
            let out = match fig {
                "fig3a" => figs.fig3a(),
                "fig3b" => figs.fig3b(),
                "fig4a" => figs.fig4a(),
                "fig4b" => figs.fig4b(),
                "fig5a" => figs.fig5a(),
                "fig5b" => figs.fig5b(),
                "fig6a" => figs.fig6a(opts.size_mb),
                _ => figs.fig6b(opts.size_mb),
            };
            println!("{out}");
        }
        other => {
            eprintln!("unknown command {other}; see `repro` docs");
            std::process::exit(2);
        }
    }
}
