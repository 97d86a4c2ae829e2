//! The committed model-side results: Figure 2 / §2.2 model statistics,
//! the cargo ↔ model map, Figure 2 as DOT, and the §3.2 greedy-vs-optimal
//! sweep. The `variants` and `nfp_csp` binaries print and write these
//! renders; the test below compares the files under `bench-results/` with
//! a fresh render, so a model change that leaves them stale fails
//! `cargo test`.

use std::time::Instant;

use fame_derivation::{solve_exhaustive, solve_greedy, Objective, PropertyStore};
use fame_feature_model::models::{self, Binding, FAME_CARGO_FEATURES, FAME_UNNAMED_FEATURES};
use fame_feature_model::{dot, FeatureModel, GroupKind};

use crate::Table;

/// `bench-results/variants.tsv`: size and variant count of both models.
pub fn variants_table() -> Table {
    let mut table = Table::new([
        "model",
        "features",
        "optional features",
        "constraints",
        "valid variants",
    ]);
    for model in [models::fame_dbms(), models::berkeley_db()] {
        table.row([
            model.name().to_string(),
            model.len().to_string(),
            model.optional_features().len().to_string(),
            model.constraints().len().to_string(),
            model.count_variants().to_string(),
        ]);
    }
    table
}

/// `bench-results/feature_map.tsv`: every cargo feature of `fame-dbms`
/// with the model feature it composes, then every model feature no cargo
/// feature composes, with the reason.
pub fn feature_map_table() -> Table {
    let model = models::fame_dbms();
    let mut table = Table::new([
        "cargo feature",
        "model feature",
        "parent",
        "group",
        "binding",
        "note",
    ]);
    let place = |name: &str| -> [String; 2] {
        match model.feature(model.id(name)).parent() {
            Some(p) => {
                let group = match model.feature(p).group() {
                    GroupKind::And => "and",
                    GroupKind::Or => "or",
                    GroupKind::Alternative => "alternative",
                };
                [model.feature(p).name().to_string(), group.to_string()]
            }
            None => ["-".to_string(), "-".to_string()],
        }
    };
    for &(cargo, feature, binding) in FAME_CARGO_FEATURES {
        let binding = match binding {
            Binding::Build => "build",
            Binding::Instance => "instance",
        };
        let [parent, group] = place(feature);
        table.row([cargo, feature, parent.as_str(), group.as_str(), binding, ""]);
    }
    for &(feature, reason) in FAME_UNNAMED_FEATURES {
        let [parent, group] = place(feature);
        table.row(["-", feature, parent.as_str(), group.as_str(), "-", reason]);
    }
    table
}

/// `bench-results/fig2.dot`: the FAME-DBMS feature diagram.
pub fn fig2_dot() -> String {
    dot::to_dot(&models::fame_dbms())
}

/// The ROM budgets of the §3.2 sweep, in KiB.
pub const NFP_BUDGETS_KIB: [u32; 8] = [48, 64, 80, 96, 128, 160, 200, 256];

/// The wall-clock columns of [`nfp_csp_table`]: the only ones a re-run
/// may change.
pub const NFP_TIMING_COLUMNS: [&str; 2] = ["greedy ms", "exhaustive ms"];

/// `bench-results/nfp_csp.tsv`: greedy against the exact optimum
/// (maximize `perf` under a ROM budget) at every budget of the sweep.
pub fn nfp_csp_table(model: &FeatureModel, store: &PropertyStore) -> Table {
    let mut table = Table::new([
        "ROM budget [KiB]",
        "greedy perf",
        "optimal perf",
        "gap %",
        "greedy examined",
        "exhaustive examined",
        NFP_TIMING_COLUMNS[0],
        NFP_TIMING_COLUMNS[1],
    ]);
    for budget_kib in NFP_BUDGETS_KIB {
        let objective = Objective::rom_budget("perf", f64::from(budget_kib) * 1024.0);

        let t0 = Instant::now();
        let g = solve_greedy(model, store, &objective);
        let greedy_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let e = solve_exhaustive(model, store, &objective);
        let exhaustive_ms = t0.elapsed().as_secs_f64() * 1e3;

        let gap = if e.objective > 0.0 {
            (e.objective - g.objective.max(0.0)) / e.objective * 100.0
        } else {
            0.0
        };
        table.row([
            budget_kib.to_string(),
            format!("{:.1}", g.objective.max(0.0)),
            format!("{:.1}", e.objective.max(0.0)),
            format!("{gap:.1}"),
            g.examined.to_string(),
            e.examined.to_string(),
            format!("{greedy_ms:.1}"),
            format!("{exhaustive_ms:.1}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn committed(file: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../bench-results")
            .join(file);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The cells of a TSV without the named columns.
    fn without(tsv: &str, drop: &[&str]) -> Vec<Vec<String>> {
        let header: Vec<&str> = tsv.lines().next().unwrap_or("").split('\t').collect();
        tsv.lines()
            .map(|line| {
                line.split('\t')
                    .enumerate()
                    .filter(|(i, _)| !drop.contains(&header[*i]))
                    .map(|(_, cell)| cell.to_string())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn committed_model_results_match_a_fresh_render() {
        let stale = "is stale: regenerate with `cargo run --release -p fame-bench --bin";
        assert_eq!(
            committed("variants.tsv"),
            variants_table().to_tsv(),
            "variants.tsv {stale} variants`"
        );
        assert_eq!(
            committed("feature_map.tsv"),
            feature_map_table().to_tsv(),
            "feature_map.tsv {stale} variants`"
        );
        assert_eq!(
            committed("fig2.dot"),
            fig2_dot(),
            "fig2.dot {stale} variants`"
        );

        let model = models::fame_dbms();
        let fresh = nfp_csp_table(&model, &PropertyStore::seeded_from(&model)).to_tsv();
        assert_eq!(
            without(&committed("nfp_csp.tsv"), &NFP_TIMING_COLUMNS),
            without(&fresh, &NFP_TIMING_COLUMNS),
            "nfp_csp.tsv {stale} nfp_csp`"
        );
    }
}
