//! Exhaustive (optimal) derivation by enumerating every valid variant.
//!
//! Exponential — usable on prototype-scale models only; the benches use it
//! as ground truth for the greedy solver's optimality gap. Variants arrive
//! as bit masks ([`enumerate_variants`]) and every property the solve
//! reads is looked up once per feature, so judging a variant is a few
//! dozen additions (the FAME model's 3.7 million variants solve in well
//! under a second in a release build).

use fame_feature_model::count::{enumerate_variants, variant_features};
use fame_feature_model::{Configuration, FeatureModel};

use crate::nfp::PropertyStore;
use crate::solver::{Objective, SolveOutcome};

/// One property of every feature, indexed by feature id: `has` marks the
/// features the store has a value for.
struct Dense {
    values: Vec<f64>,
    has: u128,
}

impl Dense {
    fn new(model: &FeatureModel, store: &PropertyStore, property: &str) -> Dense {
        let mut has = 0;
        let values = model
            .iter()
            .map(|(id, f)| match store.get(f.name(), property) {
                Some(p) => {
                    has |= 1u128 << id.index();
                    p.value
                }
                None => 0.0,
            })
            .collect();
        Dense { values, has }
    }

    /// [`PropertyStore::predict`] of the variant `mask`: the same values
    /// summed in the same (ascending id) order, so results are
    /// bit-identical.
    fn predict(&self, mask: u128) -> f64 {
        variant_features(mask & self.has)
            .map(|id| self.values[id.index()])
            .sum()
    }
}

/// Enumerate all valid configurations; return the one maximizing the
/// objective within budgets. Ties break toward fewer features (smaller
/// products), then toward the first variant in enumeration order
/// (determinism).
pub fn solve_exhaustive(
    model: &FeatureModel,
    store: &PropertyStore,
    objective: &Objective,
) -> SolveOutcome {
    // First: it asserts the model fits the masks.
    let variants = enumerate_variants(model);
    let required = objective
        .required
        .iter()
        .fold(0u128, |m, name| m | 1u128 << model.id(name).index());
    let budgets: Vec<(Dense, f64)> = objective
        .budgets
        .iter()
        .map(|(prop, max)| (Dense::new(model, store, prop), *max))
        .collect();
    let maximize = Dense::new(model, store, &objective.maximize);

    let mut best: Option<(f64, u32, u128)> = None;
    let mut examined = 0;

    for variant in variants {
        examined += 1;
        if variant & required != required
            || !budgets
                .iter()
                .all(|(prop, max)| prop.predict(variant) <= *max)
        {
            continue;
        }
        let value = maximize.predict(variant);
        let size = variant.count_ones();
        let better = match best {
            None => true,
            Some((bv, bs, _)) => value > bv || (value == bv && size < bs),
        };
        if better {
            best = Some((value, size, variant));
        }
    }

    match best {
        Some((value, _, variant)) => SolveOutcome {
            configuration: Some(Configuration::from_ids(variant_features(variant))),
            objective: value,
            examined,
        },
        None => SolveOutcome {
            configuration: None,
            objective: f64::NEG_INFINITY,
            examined,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfp::PropertyStore;
    use fame_feature_model::models;

    #[test]
    fn finds_optimum_on_fame_model() {
        let model = models::fame_dbms();
        let store = PropertyStore::seeded_from(&model);
        let obj = Objective::rom_budget("perf", 120_000.0);
        let out = solve_exhaustive(&model, &store, &obj);
        let cfg = out.configuration.expect("budget admits some product");
        assert!(model.validate(&cfg).is_ok());
        assert!(store.predict(&model, &cfg, "rom_bytes") <= 120_000.0);
        assert!(out.objective > 0.0, "something with perf weight fits");
        assert!(out.examined > 100, "actually enumerated the space");
    }

    #[test]
    fn impossible_budget_yields_none() {
        let model = models::fame_dbms();
        let store = PropertyStore::seeded_from(&model);
        let obj = Objective::rom_budget("perf", 1.0); // less than the root alone
        let out = solve_exhaustive(&model, &store, &obj);
        assert!(out.configuration.is_none());
    }

    #[test]
    fn required_features_are_honoured() {
        let model = models::fame_dbms();
        let store = PropertyStore::seeded_from(&model);
        let obj = Objective::rom_budget("perf", 500_000.0).require("Transaction");
        let out = solve_exhaustive(&model, &store, &obj);
        let cfg = out.configuration.expect("fits");
        assert!(cfg.is_selected(model.id("Transaction")));
    }

    #[test]
    fn tighter_budget_never_beats_looser() {
        let model = models::fame_dbms();
        let store = PropertyStore::seeded_from(&model);
        let tight = solve_exhaustive(&model, &store, &Objective::rom_budget("perf", 80_000.0));
        let loose = solve_exhaustive(&model, &store, &Objective::rom_budget("perf", 200_000.0));
        assert!(loose.objective >= tight.objective);
    }
}
