//! Bridge between cargo features (the *composition*) and the executable
//! Figure 2 feature model (the *specification*).
//!
//! [`active_features`] reports which cargo features this product was built
//! with; [`model_configuration`] translates build + runtime configuration
//! into a [`fame_feature_model::Configuration`] and validates it against
//! the FAME-DBMS model — the same check the paper's derivation tooling
//! performs before generating a product.

use fame_feature_model::models::{self, Binding};
use fame_feature_model::{ConfigError, Configuration, FeatureModel, Optionality};

use crate::config::{DbmsConfig, IndexKind};

/// Every cargo feature of this crate except the `default`, `standard` and
/// `full` presets, each with whether this product composes it: the one
/// compile-time list of cargo names (`cfg!` needs literals). A test pins
/// it to the `[features]` keys of Cargo.toml.
const PROBES: &[(&str, bool)] = {
    macro_rules! probe {
        ($($name:literal),* $(,)?) => {
            &[$(($name, cfg!(feature = $name))),*]
        };
    }
    probe!(
        "api-put",
        "api-get",
        "api-remove",
        "api-update",
        "api-batch",
        "sql",
        "optimizer",
        "index-btree",
        "btree-update",
        "btree-remove",
        "index-list",
        "index-hash",
        "index-queue",
        "data-types",
        "buffer",
        "replace-lru",
        "replace-lfu",
        "concurrency-multi",
        "concurrency-multi-writer",
        "concurrency-snapshot",
        "alloc-static",
        "alloc-dynamic",
        "os-std",
        "os-inmem",
        "os-flash",
        "transactions",
        "commit-force",
        "commit-group",
        "crypto",
        "replication",
        "statistics",
        "obs-trace",
        "monolithic",
    )
};

/// Cargo features compiled into this product, by their manifest names.
pub fn active_features() -> Vec<&'static str> {
    PROBES
        .iter()
        .filter(|&&(_, composed)| composed)
        .map(|&(name, _)| name)
        .collect()
}

/// Translate this build plus a runtime configuration into a configuration
/// of the Figure 2 model, and validate it.
///
/// Returns the (validated) configuration and the model, or the validation
/// errors. The instance's runtime choices (which index, target, policy,
/// commit protocol it actually uses) select the
/// [`Binding::Instance`] features; every composed [`Binding::Build`]
/// feature whose parent is selected joins them, as do the ancestors and
/// mandatory children of everything selected. That is what distinguishes
/// a product *instance* from the compiled *product*. Which cargo feature
/// composes which model feature is read from
/// [`models::FAME_CARGO_FEATURES`].
pub fn model_configuration(
    config: &DbmsConfig,
) -> Result<(FeatureModel, Configuration), Vec<ConfigError>> {
    let model = models::fame_dbms();
    let mut cfg = Configuration::new();
    let mut select = |name: &str| {
        cfg.select(model.id(name));
    };

    // The runtime alternatives: one arm per choice the instance makes.
    match &config.index {
        #[cfg(feature = "index-btree")]
        IndexKind::BTree => select("B+-Tree"),
        #[cfg(feature = "index-list")]
        IndexKind::List => select("List"),
        #[cfg(feature = "index-hash")]
        IndexKind::Hash { .. } => select("Hash"),
    }
    select(match &config.os {
        #[cfg(feature = "os-flash")]
        crate::config::OsTarget::Flash(_) => "NutOS",
        // In-memory and file targets: the paper's conventional OS.
        #[allow(unreachable_patterns)]
        _ => "Linux",
    });
    #[cfg(feature = "buffer")]
    if let Some(b) = &config.buffer {
        // The policy's report name is its Fig. 2 feature: LRU or LFU.
        select(b.replacement.name());
        select(if b.static_alloc { "Static" } else { "Dynamic" });
        select(match config.concurrency {
            #[cfg(feature = "concurrency-multi-writer")]
            fame_buffer::Concurrency::MultiWriter { .. } => "MultiWriter",
            #[cfg(feature = "concurrency-multi")]
            fame_buffer::Concurrency::MultiReader { .. } => "MultiReader",
            _ => "Single",
        });
    }
    #[cfg(feature = "transactions")]
    if let Some(t) = &config.transactions {
        select(match t.commit {
            #[cfg(feature = "commit-force")]
            fame_txn::CommitPolicy::Force => "ForceCommit",
            #[cfg(feature = "commit-group")]
            fame_txn::CommitPolicy::Group { .. } => "GroupCommit",
        });
    }
    #[cfg(feature = "crypto")]
    if config.crypto_key.is_some() {
        select("Crypto");
    }
    #[cfg(feature = "replication")]
    if config.replication.is_some() {
        select("Replication");
    }

    // Close the selection: ancestors of every choice, then in id order
    // (a builder gives a parent a smaller id than its children) each
    // mandatory child and each composed build-bound feature of a selected
    // parent.
    for id in cfg.selected().collect::<Vec<_>>() {
        for a in model.ancestors(id) {
            cfg.select(a);
        }
    }
    let active = active_features();
    let composed = |name: &str| {
        models::FAME_CARGO_FEATURES
            .iter()
            .any(|&(cargo, feature, binding)| {
                feature == name && binding == Binding::Build && active.contains(&cargo)
            })
    };
    for (id, f) in model.iter() {
        if f.parent().is_some_and(|p| cfg.is_selected(p))
            && (f.optionality() == Optionality::Mandatory || composed(f.name()))
        {
            cfg.select(id);
        }
    }

    model.validate(&cfg)?;
    Ok((model, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `[features]` keys of this crate's Cargo.toml.
    fn manifest_features() -> Vec<&'static str> {
        let manifest = include_str!("../Cargo.toml");
        let table = manifest
            .split("\n[features]\n")
            .nth(1)
            .and_then(|rest| rest.split("\n[").next())
            .expect("Cargo.toml has a [features] table");
        table
            .lines()
            .filter(|l| l.starts_with(|c: char| c.is_ascii_lowercase()))
            .filter_map(|l| l.split_once(" = ").map(|(key, _)| key))
            .collect()
    }

    #[test]
    fn probe_list_is_the_manifest_feature_keys() {
        let mut probes: Vec<&str> = PROBES.iter().map(|&(name, _)| name).collect();
        let mut keys: Vec<&str> = manifest_features()
            .into_iter()
            .filter(|k| !["default", "standard", "full"].contains(k))
            .collect();
        probes.sort_unstable();
        keys.sort_unstable();
        assert_eq!(probes, keys);
    }

    #[test]
    fn every_cargo_feature_but_the_presets_names_a_model_feature() {
        let model = models::fame_dbms();
        let presets = ["default", "standard", "full", "monolithic"];
        for key in manifest_features() {
            match models::fame_feature_of(key) {
                Some((feature, _)) => assert!(model.by_name(feature).is_some(), "{key}"),
                None => assert!(presets.contains(&key), "{key} maps to no model feature"),
            }
        }
        assert_eq!(
            models::FAME_CARGO_FEATURES.len(),
            manifest_features().len() - presets.len()
        );
    }

    #[test]
    fn active_features_nonempty_and_consistent() {
        let feats = active_features();
        // The test build always has at least one index and one OS backend
        // (enforced by compile_error! in lib.rs).
        assert!(feats.iter().any(|f| f.starts_with("index-")));
        assert!(feats.iter().any(|f| f.starts_with("os-")));
    }

    #[test]
    fn default_config_maps_to_valid_model_configuration() {
        let config = DbmsConfig::default_for_build();
        // This build's standard feature set must be expressible in Fig. 2.
        let (model, cfg) = model_configuration(&config).expect("valid configuration");
        assert!(cfg.is_selected(model.id("FAME-DBMS")));
        assert!(cfg.is_selected(model.id("Storage")));
    }
}
