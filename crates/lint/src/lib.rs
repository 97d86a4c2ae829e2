//! # fame-lint — self-applied concurrency & variability analysis
//!
//! The PR-1 derivation pipeline (lexer → CFG → dataflow) parses client
//! programs to derive products; this crate points the same machinery at
//! the FAME-DBMS workspace itself, closing the variability-aware-
//! analysis loop VDBMS argues for: analyze the product line once, not
//! each derived product. Three passes (see DESIGN.md §12):
//!
//! * **Pass A** ([`locks`]) — lock-order graph vs the declared
//!   `shard → device → meta` order in `lint.toml`;
//! * **Pass B** ([`cfggate`], [`cargomodel`]) — every
//!   `#[cfg(feature = ..)]`/`cfg!` cross-checked against crate manifests
//!   and the feature model's alternative groups, and the `fame-dbms`
//!   manifest checked against the model in both directions;
//! * **Pass C** ([`atomics`]) — `Ordering::Relaxed` on atomics
//!   published across threads, with a reasoned allowlist.
//!
//! Diagnostics carry the PR-1 `Syntactic`/`FlowConfirmed` tiers and
//! def-use provenance chains. The `lint_report` binary renders the
//! report, writes `bench-results/lint_run.tsv`, runs the E11
//! seeded-defect corpus, and gates CI via `--deny violations`.

pub mod analysis;
pub mod atomics;
pub mod cargomodel;
pub mod cfggate;
pub mod config;
pub mod corpus;
pub mod locks;
pub mod report;
pub mod source;

pub use config::LintConfig;
pub use report::{gate_exit_code, Diagnostic, Pass, Report, Severity};
pub use source::Workspace;

use analysis::ParsedWorkspace;
use locks::LockStats;

/// Run all three passes over a workspace. Returns the report plus the
/// Pass A graph summary (for the human-readable output).
pub fn run_workspace(ws: &Workspace, cfg: &LintConfig) -> (Report, LockStats) {
    let parsed = ParsedWorkspace::build(ws);
    let model = fame_feature_model::models::fame_dbms();
    let mut report = Report {
        crates: ws.crates.iter().map(|c| c.name.clone()).collect(),
        files_analyzed: parsed.file_count(),
        fns_analyzed: parsed.fn_count(),
        ..Report::default()
    };
    let stats = locks::run(&parsed, cfg, &mut report);
    cfggate::run(&parsed, cfg, &model, &mut report);
    atomics::run(&parsed, cfg, &mut report);
    report.finish();
    (report, stats)
}
