//! Shared infrastructure of the FAME-DBMS evaluation harness.
//!
//! The binaries in `src/bin/` regenerate the paper's figures:
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig1a` | Figure 1a — binary size per configuration, per composition technique |
//! | `fig1b` | Figure 1b — queries/s per configuration |
//! | `fig3_derivation` | Figure 3 / §3.1 — feature derivability (15 of 18) |
//! | `nfp_csp` | §3.2 — greedy vs exhaustive NFP-constrained derivation |
//! | `variants` | Figure 2 / §2.2 — model statistics, variant counts, the cargo ↔ model map |
//!
//! This library holds the configuration tables shared between `fig1a` and
//! `fig1b`, the synthetic Berkeley DB client corpus for the derivation
//! experiment, the model-side result tables ([`paper`], checked against
//! the committed files by a test), the workload generator, and plain-text
//! table formatting.

pub mod configs;
pub mod corpus;
pub mod paper;
pub mod table;
pub mod torture;
pub mod workload;

pub use configs::{fig1_configs, CompositionAxis, Fig1Config};
pub use table::Table;
pub use workload::Workload;
