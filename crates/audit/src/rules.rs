//! Determinism lint rules over the token stream.
//!
//! Every rule here exists because the workspace's correctness story is
//! *bit-identity*: golden sweep snapshots, engine differentials, and
//! stream-sharing tests all pin byte-identical output across engines,
//! thread counts, and replay paths. The classic ways that contract rots
//! are hash-iteration order, wall-clock reads, ambient RNG, pointer
//! addresses leaking into ordering decisions, and hidden shared
//! mutability — none of which the compiler rejects. This module does.
//!
//! Escape hatch: `// audit:allow(<rule>, <reason>)` on the offending
//! line or the line directly above suppresses one rule there. The
//! reason is mandatory; an allow without one does not suppress, and an
//! allow nothing fires under is reported as stale (a warning, an error
//! under `--deny-warnings`).

use crate::lexer::{lex, Tok, TokKind};

/// Stable rule identifiers, used in reports and in `audit:allow(...)`.
pub const HASH_ITER: &str = "hash-iter";
pub const WALL_CLOCK: &str = "wall-clock";
pub const AMBIENT_RNG: &str = "ambient-rng";
pub const PTR_ORDER: &str = "ptr-order";
pub const INTERIOR_MUT: &str = "interior-mut";
pub const UNWRAP_IN_LIB: &str = "unwrap-in-lib";
pub const FLOAT_ORDER: &str = "float-order";
/// Architecture rule (fires from the layering checker, not from source).
pub const LAYERING: &str = "layering";
/// Public-API completeness rule (fires from [`crate::api`], not from
/// the token rules here).
pub const API_COMPLETENESS: &str = "api-completeness";
/// Meta rule: a malformed or unknown `audit:allow(...)` annotation.
pub const BAD_ALLOW: &str = "bad-allow";
/// Meta rule: per-rule suppression counts vs the committed budget file
/// (fires from [`crate::budget`], not from source).
pub const ALLOW_BUDGET: &str = "allow-budget";

/// Rule id → one-line description, for `--help` and the README table.
pub const RULE_DOCS: &[(&str, &str)] = &[
    (HASH_ITER, "HashMap/HashSet in simulation-state code: iteration order is nondeterministic; use BTreeMap/BTreeSet or a sorted Vec"),
    (WALL_CLOCK, "std::time::Instant/SystemTime in simulation-state code: wall-clock reads break replay determinism"),
    (AMBIENT_RNG, "thread_rng/OsRng/from_entropy/getrandom: ambient entropy; all randomness must flow from an explicit seed"),
    (PTR_ORDER, "pointer-address-as-usize cast: allocation addresses vary run to run and must never order or key anything"),
    (INTERIOR_MUT, "static mut/RefCell/Cell/UnsafeCell/OnceCell in simulation-state code: hidden shared mutability defeats the sweep workers' isolation"),
    (UNWRAP_IN_LIB, "unwrap/expect/panic!/unreachable!/todo!/unimplemented! in library hot paths: recoverable errors must not abort a sweep"),
    (FLOAT_ORDER, "f64/f32 reduction co-located with spawn/join/channel/par_iter: float addition is not associative; accumulate per-worker results in fixed index order, never completion order"),
    (LAYERING, "crate dependency violates the workspace layering DAG"),
    (API_COMPLETENESS, "a crate root's `pub mod` with no root re-export, or a facade dependency the facade does not re-export"),
    (ALLOW_BUDGET, "used audit:allow suppressions per rule exceed the ceiling committed in AUDIT_BUDGET.toml"),
];

/// Rules whose findings are produced by passes other than
/// [`audit_source`] but whose `audit:allow` annotations still live in
/// source files — the stale-allow warning here must not claim them
/// (their own pass reports staleness).
const EXTERNAL_SOURCE_RULES: &[&str] = &[API_COMPLETENESS];

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Non-fatal report item (fatal under `--deny-warnings`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Warning {
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Result of auditing one source file.
#[derive(Debug, Default)]
pub struct FileAudit {
    pub findings: Vec<Finding>,
    pub warnings: Vec<Warning>,
    /// `(rule, line)` for every allow that actually suppressed a
    /// finding here (used *and* reasoned) — the population the
    /// suppression budget ([`crate::budget`]) is charged against.
    pub suppressions: Vec<(String, u32)>,
}

/// Which rule set a file is audited under. Derived from its crate's
/// role in the workspace (see [`crate::workspace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    pub hash_iter: bool,
    pub wall_clock: bool,
    pub ambient_rng: bool,
    pub ptr_order: bool,
    pub interior_mut: bool,
    pub unwrap_in_lib: bool,
    pub float_order: bool,
}

impl RuleSet {
    /// Simulation-state crates: everything on.
    pub const SIM_STATE: RuleSet = RuleSet {
        hash_iter: true,
        wall_clock: true,
        ambient_rng: true,
        ptr_order: true,
        interior_mut: true,
        unwrap_in_lib: true,
        float_order: true,
    };
    /// The benchmark harness: timing and operator-facing panics are its
    /// job, but it still must not smuggle nondeterminism into results.
    pub const HARNESS: RuleSet =
        RuleSet { wall_clock: false, unwrap_in_lib: false, ..RuleSet::SIM_STATE };
}

/// An `audit:allow(rule, reason)` annotation found in a comment.
#[derive(Debug)]
struct Allow {
    line: u32,
    rule: String,
    reason: Option<String>,
    used: bool,
}

/// Parse every `audit:allow(...)` out of a comment token's text.
/// `start_line` is the comment's first line; annotations further down a
/// multi-line block comment get their true line number.
fn parse_allows(text: &str, start_line: u32, out: &mut Vec<Allow>) {
    let marker = "audit:allow(";
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(marker) {
        let abs = from + pos;
        let line = start_line + text[..abs].matches('\n').count() as u32;
        let body_start = abs + marker.len();
        let Some(close) = text[body_start..].find(')') else { break };
        let body = &text[body_start..body_start + close];
        let (rule, reason) = match body.split_once(',') {
            Some((r, why)) => {
                let why = why.trim();
                (r.trim(), (!why.is_empty()).then(|| why.to_string()))
            }
            None => (body.trim(), None),
        };
        out.push(Allow { line, rule: rule.to_string(), reason, used: false });
        from = body_start + close + 1;
    }
}

/// Byte-mask over the token stream marking tokens inside `#[cfg(test)]`
/// items (inline test modules, test-only fns/uses). Exempt from all
/// determinism rules: tests may hash, time, and unwrap freely.
fn test_exempt_mask(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut ci = 0usize;
    while ci < code.len() {
        if is_cfg_test_attr(toks, &code, ci) {
            // Skip to the end of the attribute's `]`.
            let mut cj = ci + 2; // at `cfg`
            let mut depth = 0i32;
            while cj < code.len() {
                let t = &toks[code[cj]];
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                cj += 1;
            }
            // `cj` sits on the closing `]`. Everything from the `#` through
            // the end of the *following item* is exempt. Skip over any
            // further attributes first.
            let mut ck = cj + 1;
            while ck + 1 < code.len()
                && toks[code[ck]].is_punct("#")
                && toks[code[ck + 1]].is_punct("[")
            {
                let mut d = 0i32;
                ck += 1;
                while ck < code.len() {
                    let t = &toks[code[ck]];
                    if t.is_punct("[") {
                        d += 1;
                    } else if t.is_punct("]") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    ck += 1;
                }
                ck += 1;
            }
            // Consume the item: either up to a `;` at depth 0 (use/type
            // declarations) or over one balanced `{...}` block.
            let mut d = 0i32;
            let mut entered_block = false;
            while ck < code.len() {
                let t = &toks[code[ck]];
                if t.is_punct("{") {
                    d += 1;
                    entered_block = true;
                } else if t.is_punct("}") {
                    d -= 1;
                    if entered_block && d == 0 {
                        break;
                    }
                } else if t.is_punct(";") && d == 0 {
                    break;
                }
                ck += 1;
            }
            let hi = code.get(ck).copied().unwrap_or(toks.len() - 1);
            for m in &mut mask[code[ci]..=hi] {
                *m = true;
            }
            ci = ck + 1;
        } else {
            ci += 1;
        }
    }
    mask
}

/// Does `code[ci]` start `#[cfg(test)]` (possibly with extra predicate
/// arguments, e.g. `#[cfg(all(test, feature = "x"))]`)?
fn is_cfg_test_attr(toks: &[Tok<'_>], code: &[usize], ci: usize) -> bool {
    let get = |k: usize| code.get(ci + k).map(|&i| &toks[i]);
    let (Some(hash), Some(open), Some(cfg)) = (get(0), get(1), get(2)) else {
        return false;
    };
    if !(hash.is_punct("#") && open.is_punct("[") && cfg.is_ident("cfg")) {
        return false;
    }
    // Scan the attribute body for a bare `test` ident.
    let mut k = 3;
    let mut depth = 0i32;
    while let Some(t) = get(k) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.is_punct("]") {
            return false;
        } else if t.is_ident("test") {
            return true;
        }
        k += 1;
    }
    false
}

/// Identifiers that mark a function as touching parallel execution:
/// worker spawns, result channels, rayon-style parallel iterators, and
/// handle joins. (`join` also matches `Path::join`; the rule only fires
/// when a float reduction sits in the *same* function, which is exactly
/// the co-location worth a human look — or an `audit:allow`.)
const THREAD_IDENTS: &[&str] = &[
    "spawn",
    "scope",
    "channel",
    "sync_channel",
    "par_iter",
    "into_par_iter",
    "par_bridge",
    "join",
];

/// Is `code[j]` a float reduction site? Recognized shapes:
/// `.sum::<f64>()` / `.product::<f32>()` turbofish reductions, and
/// `.fold(...)` / `.reduce(...)` whose first arguments contain a float
/// literal (`0.0`) or an `f64`/`f32` type ascription.
fn float_reduction_site(toks: &[Tok<'_>], code: &[usize], j: usize) -> Option<(u32, String)> {
    let t = &toks[code[j]];
    if t.kind != TokKind::Ident {
        return None;
    }
    let get = |k: usize| code.get(j + k).map(|&i| &toks[i]);
    let is_float_ident = |a: &Tok<'_>| a.is_ident("f64") || a.is_ident("f32");
    match t.text {
        "sum" | "product" => {
            let turbofish = get(1).is_some_and(|a| a.is_punct(":"))
                && get(2).is_some_and(|a| a.is_punct(":"))
                && get(3).is_some_and(|a| a.is_punct("<"))
                && get(4).is_some_and(is_float_ident);
            turbofish.then(|| (t.line, format!("float `.{}::<_>()` reduction", t.text)))
        }
        "fold" | "reduce" => {
            let is_call =
                j > 0 && toks[code[j - 1]].is_punct(".") && get(1).is_some_and(|a| a.is_punct("("));
            if !is_call {
                return None;
            }
            // Look a short window into the arguments for a float seed.
            for k in 2..14 {
                let a = get(k)?;
                if is_float_ident(a) {
                    return Some((t.line, format!("float-seeded `.{}(...)` reduction", t.text)));
                }
                if a.kind == TokKind::Num
                    && get(k + 1).is_some_and(|x| x.is_punct("."))
                    && get(k + 2).is_some_and(|x| x.kind == TokKind::Num)
                {
                    return Some((t.line, format!("float-seeded `.{}(...)` reduction", t.text)));
                }
            }
            None
        }
        _ => None,
    }
}

/// The float-order pass: walk every `fn` body; if it both touches
/// parallel execution (see [`THREAD_IDENTS`]) and reduces floats, flag
/// each reduction site. Float addition is not associative, so the only
/// way a parallel computation stays bit-deterministic is to collect
/// per-worker results into an indexed structure and reduce in fixed
/// index order — reducing in completion/merge order silently varies
/// run to run.
fn check_float_order(toks: &[Tok<'_>], code: &[usize], path: &str, raw: &mut Vec<Finding>) {
    let mut flagged: Vec<u32> = Vec::new();
    let mut ci = 0usize;
    while ci < code.len() {
        if !toks[code[ci]].is_ident("fn") {
            ci += 1;
            continue;
        }
        // Find the body's opening `{`; hitting `;` first means a
        // bodyless declaration (trait method, extern).
        let mut cj = ci + 1;
        let mut open = None;
        while cj < code.len() {
            let t = &toks[code[cj]];
            if t.is_punct("{") {
                open = Some(cj);
                break;
            }
            if t.is_punct(";") {
                break;
            }
            cj += 1;
        }
        let Some(lo) = open else {
            ci = cj + 1;
            continue;
        };
        let mut depth = 0i32;
        let mut hi = lo;
        while hi < code.len() {
            let t = &toks[code[hi]];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            hi += 1;
        }
        let threaded = (lo..hi).any(|j| {
            let t = &toks[code[j]];
            t.kind == TokKind::Ident && THREAD_IDENTS.contains(&t.text)
        });
        if threaded {
            for j in lo..hi {
                if let Some((line, what)) = float_reduction_site(toks, code, j) {
                    if !flagged.contains(&line) {
                        flagged.push(line);
                        raw.push(Finding {
                            rule: FLOAT_ORDER,
                            file: path.to_string(),
                            line,
                            message: format!(
                                "{what} in a function that spawns/joins parallel work: float addition is not associative — collect per-worker results and reduce in fixed index order, never completion order"
                            ),
                        });
                    }
                }
            }
        }
        // Step past the `fn` keyword only: nested fns get their own scan.
        ci += 1;
    }
}

/// Audit one source file under `rules`. `path` is only used to label
/// findings.
pub fn audit_source(path: &str, src: &str, rules: RuleSet) -> FileAudit {
    let toks = lex(src);
    let mut allows: Vec<Allow> = Vec::new();
    for t in &toks {
        // Plain comments only: doc comments (`///`, `//!`, `/**`, `/*!`)
        // are prose, and prose *about* audit:allow must not be an allow.
        let is_doc = t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!");
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) && !is_doc {
            parse_allows(t.text, t.line, &mut allows);
        }
    }
    let exempt = test_exempt_mask(&toks);

    // Raw findings before allow-matching.
    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        raw.push(Finding { rule, file: path.to_string(), line, message });
    };

    // Index of the most recent pointer-producing construct, for ptr-order.
    let mut last_ptr_cast: Option<usize> = None;

    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| {
            !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment) && !exempt[i]
        })
        .collect();

    for (ci, &ti) in code.iter().enumerate() {
        let t = &toks[ti];
        let next = |k: usize| code.get(ci + k).map(|&j| &toks[j]);
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text {
            "HashMap" | "HashSet" if rules.hash_iter => push(
                HASH_ITER,
                t.line,
                format!("`{}` in simulation-state code: iteration order is nondeterministic; use BTreeMap/BTreeSet or a sorted Vec", t.text),
            ),
            "Instant" | "SystemTime" if rules.wall_clock => push(
                WALL_CLOCK,
                t.line,
                format!("`{}` read in simulation-state code: simulated time must come from the cycle clock, never the wall clock", t.text),
            ),
            "thread_rng" | "ThreadRng" | "OsRng" | "from_entropy" | "getrandom"
                if rules.ambient_rng =>
            {
                push(
                    AMBIENT_RNG,
                    t.line,
                    format!("`{}`: ambient entropy source; all randomness must flow from an explicit per-scenario seed", t.text),
                )
            }
            "as_ptr" | "as_mut_ptr" => last_ptr_cast = Some(ci),
            "as" => {
                if let (Some(star), Some(cm)) = (next(1), next(2)) {
                    if star.is_punct("*") && (cm.is_ident("const") || cm.is_ident("mut")) {
                        last_ptr_cast = Some(ci);
                    }
                }
                if rules.ptr_order {
                    if let Some(u) = next(1) {
                        if u.is_ident("usize") {
                            if let Some(p) = last_ptr_cast {
                                if ci - p <= 8 {
                                    push(
                                        PTR_ORDER,
                                        t.line,
                                        "pointer address cast to usize: allocation addresses vary run to run and must never order or key anything".to_string(),
                                    );
                                }
                            }
                        }
                    }
                }
            }
            "RefCell" | "UnsafeCell" | "OnceCell" | "Cell" if rules.interior_mut => push(
                INTERIOR_MUT,
                t.line,
                format!("`{}` in simulation-state code: hidden shared mutability defeats sweep-worker isolation; thread state explicitly", t.text),
            ),
            "static" if rules.interior_mut && next(1).is_some_and(|n| n.is_ident("mut")) => push(
                INTERIOR_MUT,
                t.line,
                "`static mut`: global mutable state is both unsafe and nondeterministic under threaded sweeps".to_string(),
            ),
            "unwrap" | "expect" if rules.unwrap_in_lib => {
                let is_method_call = ci > 0
                    && toks[code[ci - 1]].is_punct(".")
                    && next(1).is_some_and(|n| n.is_punct("("));
                if is_method_call {
                    push(
                        UNWRAP_IN_LIB,
                        t.line,
                        format!("`.{}()` in library code: hot paths must not abort; return an error or prove the invariant and audit:allow it", t.text),
                    );
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if rules.unwrap_in_lib && next(1).is_some_and(|n| n.is_punct("!")) =>
            {
                push(
                    UNWRAP_IN_LIB,
                    t.line,
                    format!("`{}!` in library code: hot paths must not abort; return an error or prove the invariant and audit:allow it", t.text),
                )
            }
            _ => {}
        }
    }

    if rules.float_order {
        check_float_order(&toks, &code, path, &mut raw);
    }

    // Match findings against allows: an allow on the finding's line or
    // the line directly above suppresses it — but only with a reason.
    let mut audit = FileAudit::default();
    for f in raw {
        let mut suppressed = false;
        for a in allows.iter_mut() {
            if a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
                a.used = true;
                if a.reason.is_some() {
                    suppressed = true;
                } else {
                    audit.findings.push(Finding {
                        rule: BAD_ALLOW,
                        file: f.file.clone(),
                        line: a.line,
                        message: format!(
                            "audit:allow({}) without a reason: escape hatches must justify themselves — write audit:allow({}, <why this is sound>)",
                            f.rule, f.rule
                        ),
                    });
                }
            }
        }
        if !suppressed {
            audit.findings.push(f);
        }
    }
    for a in &allows {
        if a.used && a.reason.is_some() {
            audit.suppressions.push((a.rule.clone(), a.line));
        }
        if !a.used {
            if EXTERNAL_SOURCE_RULES.contains(&a.rule.as_str()) {
                // Another pass owns this rule's allows; not stale here.
            } else if RULE_DOCS.iter().any(|(id, _)| *id == a.rule) {
                audit.warnings.push(Warning {
                    file: path.to_string(),
                    line: a.line,
                    message: format!(
                        "stale audit:allow({}): nothing fires here any more — remove it",
                        a.rule
                    ),
                });
            } else {
                audit.findings.push(Finding {
                    rule: BAD_ALLOW,
                    file: path.to_string(),
                    line: a.line,
                    message: format!("audit:allow({}) names an unknown rule", a.rule),
                });
            }
        }
    }
    audit
}
