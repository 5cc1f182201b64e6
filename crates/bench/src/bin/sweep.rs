//! Sweep-as-a-service over the persistent result store.
//!
//! ```text
//! sweep serve [--store DIR] [--requests PATH] [--instr N] [--seed N]
//!             [--n-cores N] [--threads N] [--out PATH]
//! ```
//!
//! Reads experiment-cell requests (one per line: `scenario technique
//! size_mb [instr]`; `#` comments; stdin without `--requests`), answers
//! every cell already in the store from disk, batches the misses into
//! grouped sweep grids that publish back to the store, and reports
//! per-request hit/miss and load latency. Malformed lines — unknown
//! names, unparsable numbers, a size that is not a power of two up to
//! `MAX_SIZE_MB` — are reported and skipped; the rest of the queue is
//! still answered. See the "Persistent result store" section of the
//! README.

use cmpleak_core::sweep::{run_sweep_with_telemetry, SweepConfig};
use cmpleak_core::{ExperimentConfig, ExperimentScratch, Scenario, Technique, WorkloadSpec};
use cmpleak_store::ResultStore;
use cmpleak_workloads::ScenarioSpec;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

struct ServeOpts {
    store: String,
    /// Request file; `None` reads stdin.
    requests: Option<String>,
    /// Default instruction budget for requests that omit one.
    instr: u64,
    seed: u64,
    n_cores: usize,
    threads: usize,
    out: Option<String>,
}

fn parse_serve_opts(args: &[String]) -> ServeOpts {
    let mut opts = ServeOpts {
        store: ".cmpleak-store".to_string(),
        requests: None,
        instr: 150_000,
        seed: 42,
        n_cores: 4,
        threads: 0,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => opts.store = it.next().expect("--store DIR").clone(),
            "--requests" => opts.requests = Some(it.next().expect("--requests PATH").clone()),
            "--instr" => opts.instr = it.next().and_then(|v| v.parse().ok()).expect("--instr N"),
            "--seed" => opts.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--n-cores" => {
                opts.n_cores = it.next().and_then(|v| v.parse().ok()).expect("--n-cores N")
            }
            "--threads" => {
                opts.threads = it.next().and_then(|v| v.parse().ok()).expect("--threads N")
            }
            "--out" => opts.out = Some(it.next().expect("--out PATH").clone()),
            other => panic!(
                "unknown serve argument {other} (try --store/--requests/--instr/--seed/--n-cores/--threads/--out)"
            ),
        }
    }
    opts
}

/// One parsed request line, carrying the exact cell configuration a
/// sweep would build for it — so its content address matches what
/// `run_sweep` publishes.
struct Request {
    line_no: usize,
    cfg: ExperimentConfig,
}

/// Requests the service can name: the paper suite plus the mixes, and
/// the baseline plus the seven paper techniques.
struct Catalog {
    scenarios: Vec<Scenario>,
    techniques: Vec<Technique>,
}

impl Catalog {
    fn paper() -> Self {
        let mut scenarios: Vec<Scenario> =
            WorkloadSpec::paper_suite().into_iter().map(Scenario::Homogeneous).collect();
        scenarios.extend(ScenarioSpec::paper_mixes().into_iter().map(Scenario::Mix));
        let mut techniques = vec![Technique::Baseline];
        techniques.extend(Technique::paper_set());
        Self { scenarios, techniques }
    }
}

/// Largest total L2 a request may name. Sizes must be powers of two
/// (each core's private share must be a power-of-two cache) and are
/// capped so one request line cannot ask for an unbounded allocation;
/// the paper's sizes are 1, 2, 4 and 8 MB.
const MAX_SIZE_MB: usize = 64;

/// Parse one request line (`scenario technique size_mb [instr]`, `#`
/// starts a comment) into the cell configuration a sweep would build
/// for it. `Ok(None)` for a blank or comment-only line; `Err` names why
/// the line cannot be served.
fn parse_request(
    raw: &str,
    catalog: &Catalog,
    opts: &ServeOpts,
) -> Result<Option<ExperimentConfig>, String> {
    let line = raw.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (Some(scen), Some(tech), Some(size)) = (parts.next(), parts.next(), parts.next()) else {
        return Err("want `scenario technique size_mb [instr]`".to_string());
    };
    let Some(scenario) = catalog.scenarios.iter().find(|s| s.label() == scen) else {
        let known: Vec<String> = catalog.scenarios.iter().map(|s| s.label()).collect();
        return Err(format!("unknown scenario `{scen}` (known: {})", known.join(", ")));
    };
    let Some(&technique) = catalog.techniques.iter().find(|t| t.name() == tech) else {
        let known: Vec<String> = catalog.techniques.iter().map(|t| t.name()).collect();
        return Err(format!("unknown technique `{tech}` (known: {})", known.join(", ")));
    };
    let instr = parts.next().map_or(Ok(opts.instr), str::parse);
    let (Ok(size_mb), Ok(instr)) = (size.parse::<usize>(), instr) else {
        return Err(format!("bad size/instr in `{line}`"));
    };
    if !size_mb.is_power_of_two() || size_mb > MAX_SIZE_MB {
        return Err(format!("size {size_mb} MB is not a power of two from 1 to {MAX_SIZE_MB}"));
    }
    let mut cfg = ExperimentConfig::paper_scenario(scenario.clone(), technique, size_mb);
    cfg.instructions_per_core = instr;
    cfg.seed = opts.seed;
    cfg.n_cores = opts.n_cores;
    Ok(Some(cfg))
}

#[derive(Debug, Serialize)]
struct ServeRow {
    line: usize,
    scenario: String,
    technique: String,
    size_mb: usize,
    instructions_per_core: u64,
    /// Whether the first probe answered from the store (before any
    /// batched simulation this run published).
    hit: bool,
    /// Latency of the answering store load, microseconds.
    load_us: f64,
    cycles: u64,
    avg_power_w: f64,
}

#[derive(Debug, Serialize)]
struct ServeReport {
    store: String,
    requests: usize,
    skipped: usize,
    hits: usize,
    misses: usize,
    /// Grid cells the miss batches simulated beyond the missed
    /// requests themselves — published to the store as prefetch.
    prefetched: usize,
    /// Wall-clock seconds spent in the batched miss grids.
    batch_s: f64,
    /// Lane-engine riders the miss batches forked off their trunks.
    forks: usize,
    /// Cycles those riders rode their trunks instead of stepping them.
    cycles_shared: u64,
    rows: Vec<ServeRow>,
}

/// A batch of missed cells sharing (scenario, instruction budget):
/// served as one sweep grid so stream recording, baseline memoization
/// and the worker pool amortize across them.
struct MissGroup {
    scenario: Scenario,
    sizes: std::collections::BTreeSet<usize>,
    /// Non-baseline techniques, deduped (the grid's implicit baseline
    /// slot covers baseline requests).
    techniques: Vec<Technique>,
    /// Content addresses of the requested cells in this group.
    missed: std::collections::BTreeSet<String>,
}

/// Answer every request in `text` against the store at `opts.store`,
/// printing one line per request and a summary.
fn serve(opts: &ServeOpts, text: &str) -> ServeReport {
    let catalog = Catalog::paper();
    let store = Arc::new(ResultStore::open(&opts.store).expect("store root"));
    println!("store: {} ({} records)", opts.store, store.record_count());

    // Parse. Malformed lines are reported and skipped, never fatal —
    // the queue may be machine-generated and partially stale.
    let mut skipped = 0usize;
    let mut requests: Vec<Request> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        match parse_request(raw, &catalog, opts) {
            Ok(Some(cfg)) => requests.push(Request { line_no, cfg }),
            Ok(None) => {}
            Err(why) => {
                eprintln!("line {line_no}: {why} — skipped");
                skipped += 1;
            }
        }
    }

    // First probe: answer whatever the store already holds; misses are
    // deduped into (scenario, budget) batches.
    let mut answers = Vec::with_capacity(requests.len());
    let mut hits = 0usize;
    let mut groups: std::collections::BTreeMap<(String, u64), MissGroup> =
        std::collections::BTreeMap::new();
    for req in &requests {
        let key = req.cfg.store_key();
        let t0 = Instant::now();
        let cell = store.load(&key);
        let load_us = t0.elapsed().as_secs_f64() * 1e6;
        match cell {
            Some(c) => {
                hits += 1;
                answers.push(Some((true, load_us, c)));
            }
            None => {
                answers.push(None);
                let g = groups
                    .entry((req.cfg.scenario.label(), req.cfg.instructions_per_core))
                    .or_insert_with(|| MissGroup {
                        scenario: req.cfg.scenario.clone(),
                        sizes: Default::default(),
                        techniques: Vec::new(),
                        missed: Default::default(),
                    });
                g.sizes.insert(req.cfg.total_l2_mb);
                if !matches!(req.cfg.technique, Technique::Baseline)
                    && !g.techniques.iter().any(|t| t.name() == req.cfg.technique.name())
                {
                    g.techniques.push(req.cfg.technique);
                }
                g.missed.insert(key.hex());
            }
        }
    }
    let misses = requests.len() - hits;

    // Batched miss grids: each group runs as one sweep with the store
    // attached, so every simulated cell (requested or grid prefetch)
    // is published for future requests.
    let mut prefetched = 0usize;
    let (mut forks, mut cycles_shared) = (0usize, 0u64);
    let t0 = Instant::now();
    for ((label, instr), g) in &groups {
        let cfg = SweepConfig {
            scenarios: vec![g.scenario.clone()],
            sizes_mb: g.sizes.iter().copied().collect(),
            techniques: g.techniques.clone(),
            instructions_per_core: *instr,
            seed: opts.seed,
            n_cores: opts.n_cores,
            threads: opts.threads,
            store: Some(Arc::clone(&store)),
        };
        let (res, telemetry) = run_sweep_with_telemetry(&cfg, &mut ExperimentScratch::default());
        forks += telemetry.forks;
        cycles_shared += telemetry.cycles_shared;
        let extra = res.cells.len().saturating_sub(g.missed.len());
        prefetched += extra;
        println!(
            "batched {label} @ {instr} instr: {} grid cells for {} missed requests ({extra} prefetched)",
            res.cells.len(),
            g.missed.len()
        );
    }
    let batch_s = t0.elapsed().as_secs_f64();

    // Second probe: every miss is now on disk.
    let mut rows = Vec::with_capacity(requests.len());
    for (req, ans) in requests.iter().zip(answers) {
        let (hit, load_us, cell) = ans.unwrap_or_else(|| {
            let key = req.cfg.store_key();
            let t0 = Instant::now();
            let cell = store.load(&key).expect("batched grid published every missed cell");
            (false, t0.elapsed().as_secs_f64() * 1e6, cell)
        });
        let row = ServeRow {
            line: req.line_no,
            scenario: req.cfg.scenario.label(),
            technique: req.cfg.technique.name(),
            size_mb: req.cfg.total_l2_mb,
            instructions_per_core: req.cfg.instructions_per_core,
            hit,
            load_us,
            cycles: cell.stats.cycles,
            avg_power_w: cell.power.avg_power_w,
        };
        println!(
            "{:<22} {:<13} {:>2} MB | {} {:>9.1} us | {:>10} cycles {:>7.3} W",
            row.scenario,
            row.technique,
            row.size_mb,
            if row.hit { "hit " } else { "miss" },
            row.load_us,
            row.cycles,
            row.avg_power_w
        );
        rows.push(row);
    }

    println!(
        "{} request(s): {hits} hit / {misses} miss ({skipped} skipped), {prefetched} prefetched, batch {batch_s:.2}s, store now {} records",
        requests.len(),
        store.record_count()
    );
    println!("lanes: {forks} rider fork(s), {cycles_shared} cycles shared with trunks");
    ServeReport {
        store: opts.store.clone(),
        requests: requests.len(),
        skipped,
        hits,
        misses,
        prefetched,
        batch_s,
        forks,
        cycles_shared,
        rows,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("serve") {
        eprintln!("usage: sweep serve [--store DIR] [--requests PATH] [--instr N] [--seed N] [--n-cores N] [--threads N] [--out PATH]");
        std::process::exit(2);
    }
    let opts = parse_serve_opts(&args[1..]);
    let text = match &opts.requests {
        Some(path) => std::fs::read_to_string(path).expect("requests readable"),
        None => {
            let mut s = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut s).expect("stdin readable");
            s
        }
    };
    let report = serve(&opts, &text);
    if let Some(path) = &opts.out {
        let mut json = serde_json::to_string_pretty(&report).expect("serializable");
        json.push('\n');
        std::fs::write(path, json).expect("report written");
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn opts(store: &std::path::Path) -> ServeOpts {
        let mut opts = parse_serve_opts(&[]);
        opts.store = store.display().to_string();
        opts.threads = 2;
        opts
    }

    #[test]
    fn bad_size_lines_are_skipped_and_the_rest_answered() {
        let root = std::env::temp_dir().join(format!("cmpleak-serve-test-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let queue = "WATER-NS protocol 1 2000\n\
                     WATER-NS decay64K 3 2000\n\
                     WATER-NS protocol 0 2000\n\
                     WATER-NS decay64K 1 2000\n";
        let report = serve(&opts(&root), queue);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(report.skipped, 2, "sizes 3 and 0 are not servable");
        let answered: Vec<(usize, &str)> =
            report.rows.iter().map(|r| (r.line, r.technique.as_str())).collect();
        assert_eq!(answered, vec![(1, "protocol"), (4, "decay64K")]);
        assert!(report.rows.iter().all(|r| r.cycles > 0));
    }

    /// Request lines, split around the size field, the mutations start
    /// from.
    const TEMPLATES: [(&str, &str); 4] = [
        ("WATER-NS protocol ", " 2000"),
        ("mix_bursty_idle sel_decay64K ", " 30000 # trailing comment"),
        ("VOLREND baseline ", ""),
        ("facerec decay512K ", " 150000"),
    ];

    proptest! {
        /// A request line with any size, then byte-level damage, never
        /// panics the parser, and every line it accepts builds a valid
        /// simulator configuration.
        #[test]
        fn mutated_request_lines_parse_or_are_rejected(
            template in 0usize..TEMPLATES.len(),
            size in prop_oneof![0usize..20, any::<usize>()],
            edits in proptest::collection::vec(
                (
                    any::<usize>(),
                    prop_oneof![b'0'..b':', Just(b' '), any::<u8>()],
                    0u8..3,
                ),
                0..4,
            ),
        ) {
            let (head, tail) = TEMPLATES[template];
            let mut bytes = format!("{head}{size}{tail}").into_bytes();
            for (pos, byte, op) in edits {
                let at = pos % (bytes.len() + 1);
                match op {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.push(byte),
                }
            }
            let line = String::from_utf8_lossy(&bytes);
            let opts = parse_serve_opts(&[]);
            if let Ok(Some(cfg)) = parse_request(&line, &Catalog::paper(), &opts) {
                cfg.cmp_config().validate();
            }
        }
    }
}
