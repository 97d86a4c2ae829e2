//! Greedy derivation — the paper's answer to the CSP's NP-completeness.
//!
//! Start from the smallest valid configuration containing the required
//! features; repeatedly add the optional feature with the best
//! benefit-per-ROM-cost whose *completed* configuration (the addition may
//! drag in mandatory children and `requires` targets) is still valid and
//! within budget; stop when no candidate improves the objective.
//!
//! Greedy examines `O(n²)` candidate configurations instead of the
//! exponential variant space; the `solver` bench quantifies both the
//! speedup and the (usually zero) optimality gap against
//! [`crate::solver::exhaustive`].

use fame_feature_model::{Configuration, FeatureModel};

use crate::nfp::PropertyStore;
use crate::solver::{Objective, SolveOutcome};

/// Greedy best-benefit-per-cost derivation. See module docs.
pub fn solve_greedy(
    model: &FeatureModel,
    store: &PropertyStore,
    objective: &Objective,
) -> SolveOutcome {
    let mut examined = 0u64;

    // Base: required features, completed and validated.
    let mut base = Configuration::new();
    for name in &objective.required {
        base.select(model.id(name));
    }
    let mut current = model.complete(base);
    examined += 1;
    if model.validate(&current).is_err() || !within_budgets(model, store, &current, objective) {
        // Try SAT-based completion before giving up: `complete` is
        // heuristic and may miss a valid completion.
        let mut decided = std::collections::BTreeMap::new();
        for name in &objective.required {
            decided.insert(model.id(name), true);
        }
        match model.satisfiable_with(&decided) {
            fame_feature_model::SatResult::Satisfiable(cfg)
                if within_budgets(model, store, &cfg, objective) =>
            {
                current = cfg;
            }
            _ => {
                return SolveOutcome {
                    configuration: None,
                    objective: f64::NEG_INFINITY,
                    examined,
                }
            }
        }
    }

    loop {
        let current_value = store.predict(model, &current, &objective.maximize);
        let mut best: Option<(f64, Configuration)> = None;

        for (id, feature) in model.iter() {
            if current.is_selected(id) {
                continue;
            }
            let mut candidate = current.clone();
            candidate.select(id);
            let candidate = model.complete(candidate);
            examined += 1;
            if model.validate(&candidate).is_err()
                || !within_budgets(model, store, &candidate, objective)
            {
                continue;
            }
            let value = store.predict(model, &candidate, &objective.maximize);
            if value <= current_value {
                continue; // no benefit
            }
            let cost = (store.predict(model, &candidate, "rom_bytes")
                - store.predict(model, &current, "rom_bytes"))
            .max(1.0);
            let ratio = (value - current_value) / cost;
            if best.as_ref().map(|(r, _)| ratio > *r).unwrap_or(true) {
                best = Some((ratio, candidate));
            }
            let _ = feature;
        }

        match best {
            Some((_, next)) => current = next,
            None => break,
        }
    }

    let objective_value = store.predict(model, &current, &objective.maximize);
    SolveOutcome {
        configuration: Some(current),
        objective: objective_value,
        examined,
    }
}

fn within_budgets(
    model: &FeatureModel,
    store: &PropertyStore,
    cfg: &Configuration,
    objective: &Objective,
) -> bool {
    objective
        .budgets
        .iter()
        .all(|(prop, max)| store.predict(model, cfg, prop) <= *max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::exhaustive::solve_exhaustive;
    use fame_feature_model::models;

    #[test]
    fn greedy_yields_valid_configuration() {
        let model = models::fame_dbms();
        let store = PropertyStore::seeded_from(&model);
        let obj = Objective::rom_budget("perf", 120_000.0);
        let out = solve_greedy(&model, &store, &obj);
        let cfg = out.configuration.expect("fits");
        assert!(model.validate(&cfg).is_ok());
        assert!(store.predict(&model, &cfg, "rom_bytes") <= 120_000.0);
    }

    #[test]
    fn greedy_is_near_optimal_and_cheaper() {
        let model = models::fame_dbms();
        let store = PropertyStore::seeded_from(&model);
        for budget in [80_000.0, 100_000.0, 150_000.0, 250_000.0] {
            let obj = Objective::rom_budget("perf", budget);
            let g = solve_greedy(&model, &store, &obj);
            let e = solve_exhaustive(&model, &store, &obj);
            assert!(
                g.objective <= e.objective + 1e-9,
                "greedy cannot beat the optimum"
            );
            assert!(
                g.objective >= 0.7 * e.objective,
                "budget {budget}: greedy {} vs optimal {}",
                g.objective,
                e.objective
            );
            assert!(
                g.examined < e.examined / 2,
                "greedy should examine far fewer configurations ({} vs {})",
                g.examined,
                e.examined
            );
        }
    }

    #[test]
    fn required_features_present() {
        let model = models::fame_dbms();
        let store = PropertyStore::seeded_from(&model);
        let obj = Objective::rom_budget("perf", 500_000.0)
            .require("SQLEngine")
            .require("Transaction");
        let out = solve_greedy(&model, &store, &obj);
        let cfg = out.configuration.expect("fits");
        assert!(cfg.is_selected(model.id("SQLEngine")));
        assert!(cfg.is_selected(model.id("Transaction")));
        // Constraint pull-in: Optimizer requires SQLEngine is fine, and
        // Transaction requires BufferManager must hold.
        assert!(cfg.is_selected(model.id("BufferManager")));
    }

    #[test]
    fn impossible_budget_yields_none() {
        let model = models::fame_dbms();
        let store = PropertyStore::seeded_from(&model);
        let out = solve_greedy(&model, &store, &Objective::rom_budget("perf", 1.0));
        assert!(out.configuration.is_none());
    }

    #[test]
    fn zero_perf_budget_still_returns_valid_base() {
        // With a budget that only fits the minimal product, greedy returns
        // it (objective may be 0).
        let model = models::fame_dbms();
        let store = PropertyStore::seeded_from(&model);
        let minimal = model.minimal_configuration().unwrap();
        let minimal_rom = store.predict(&model, &minimal, "rom_bytes");
        let out = solve_greedy(
            &model,
            &store,
            &Objective::rom_budget("perf", minimal_rom + 1.0),
        );
        let cfg = out.configuration.expect("minimal product fits");
        assert!(model.validate(&cfg).is_ok());
    }
}
