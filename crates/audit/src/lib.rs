//! `cmpleak-audit` — workspace determinism & architecture static
//! analysis.
//!
//! The reproduction's correctness contract is bit-identity: the golden
//! sweep snapshot, the engine differentials, and the stream-sharing
//! tests all pin byte-identical results across engines, thread counts,
//! and replay paths. This crate turns the implicit determinism rules
//! that contract relies on into machine-checked policy:
//!
//! * [`lexer`] — a minimal hand-rolled Rust lexer (comments, strings,
//!   raw strings, lifetimes) so rules see code, not prose;
//! * [`rules`] — determinism lints (hash-iteration order, wall-clock
//!   reads, ambient RNG, pointer-order casts, interior mutability,
//!   unwrap-in-library), with `// audit:allow(rule, reason)` escape
//!   hatches that must carry a reason;
//! * [`budget`] — per-rule suppression ceilings against the committed
//!   `AUDIT_BUDGET.toml`, so the allow population ratchets down, never
//!   silently up;
//! * [`arch`] — the crate layering DAG over every workspace
//!   `Cargo.toml`;
//! * [`api`] — public-API completeness: the facade re-exports every
//!   simulation-stack crate and each crate root re-exports every
//!   public module's surface;
//! * [`workspace`] / [`report`] — discovery, orchestration, and the
//!   human / `--json` report modes.
//!
//! Run it with `cargo run -p cmpleak-audit` (CI adds
//! `--deny-warnings`).

#![forbid(unsafe_code)]

pub mod api;
pub mod arch;
pub mod budget;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use api::{check_api, ApiSurface};
pub use arch::{check_layering, parse_manifest, CrateInfo, LAYERS};
pub use budget::{check_budget, BUDGET_FILE};
pub use lexer::{lex, Tok, TokKind};
pub use report::{render_human, render_json};
pub use rules::{audit_source, FileAudit, Finding, RuleSet, Warning, RULE_DOCS};
pub use workspace::{audit_workspace, find_root, AuditReport};
