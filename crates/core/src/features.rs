//! Bridge between cargo features (the *composition*) and the executable
//! Figure 2 feature model (the *specification*).
//!
//! [`active_features`] reports which cargo features this product was built
//! with; [`model_configuration`] translates build + runtime configuration
//! into a [`fame_feature_model::Configuration`] and validates it against
//! the FAME-DBMS model — the same check the paper's derivation tooling
//! performs before generating a product.

use fame_feature_model::{models, ConfigError, Configuration, FeatureModel};

use crate::config::{DbmsConfig, IndexKind, OsTarget};

/// Cargo features compiled into this product, by their manifest names.
pub fn active_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    macro_rules! probe {
        ($($name:literal),* $(,)?) => {
            $(if cfg!(feature = $name) { out.push($name); })*
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
    );
    out
}

/// Translate this build plus a runtime configuration into a configuration
/// of the Figure 2 model, and validate it.
///
/// Returns the (validated) configuration and the model, or the validation
/// errors. The translation selects exactly one alternative per group based
/// on the *runtime* choices (e.g. which replacement policy the instance
/// actually uses), which is what distinguishes a product *instance* from
/// the compiled *product*.
pub fn model_configuration(
    config: &DbmsConfig,
) -> Result<(FeatureModel, Configuration), Vec<ConfigError>> {
    let model = models::fame_dbms();
    let mut cfg = Configuration::new();
    let mut select = |name: &str| {
        cfg.select(model.id(name));
    };
    // Features a product has exactly when their cargo feature is composed.
    for (composed, name) in [
        (cfg!(feature = "api-put"), "Put"),
        (cfg!(feature = "api-get"), "Get"),
        (cfg!(feature = "api-remove"), "Remove"),
        (cfg!(feature = "api-update"), "Update"),
        (cfg!(feature = "api-batch"), "Batch"),
        (cfg!(feature = "sql"), "SQLEngine"),
        (cfg!(feature = "optimizer"), "Optimizer"),
        (cfg!(feature = "data-types"), "DataTypes"),
        (cfg!(feature = "statistics"), "Statistics"),
        (cfg!(feature = "obs-trace"), "Tracing"),
    ] {
        if composed {
            select(name);
        }
    }

    select("FAME-DBMS");
    select("Access");
    select("API");
    select("Storage");
    select("Index");
    match &config.index {
        #[cfg(feature = "index-btree")]
        IndexKind::BTree => {
            select("B+-Tree");
            select("BTreeSearch");
            if cfg!(feature = "btree-update") {
                select("BTreeUpdate");
            }
            if cfg!(feature = "btree-remove") {
                select("BTreeRemove");
            }
        }
        #[cfg(feature = "index-list")]
        IndexKind::List => select("List"),
        #[cfg(feature = "index-hash")]
        IndexKind::Hash { .. } => {
            // HASH is a Berkeley DB feature outside Figure 2; model it as
            // the closest structural equivalent (B+-Tree slot in Index).
            select("B+-Tree");
            select("BTreeSearch");
        }
    }

    select("OS-Abstraction");
    select("Platform");
    match &config.os {
        #[cfg(feature = "os-inmem")]
        OsTarget::InMemory { .. } => select("Linux"),
        #[cfg(feature = "os-std")]
        OsTarget::File { .. } => select("Linux"),
        #[cfg(feature = "os-flash")]
        OsTarget::Flash(_) => select("NutOS"),
    }

    #[cfg(feature = "buffer")]
    if let Some(b) = &config.buffer {
        select("BufferManager");
        select("Replacement");
        // The policy's report name is its Fig. 2 feature: LRU or LFU.
        select(b.replacement.name());
        select("MemoryAlloc");
        if b.static_alloc {
            select("Static");
        } else {
            select("Dynamic");
        }
        select("Concurrency");
        match config.concurrency {
            #[cfg(feature = "concurrency-multi-writer")]
            fame_buffer::Concurrency::MultiWriter { .. } => {
                select("MultiWriter");
                if cfg!(feature = "concurrency-snapshot") {
                    select("Snapshot");
                }
            }
            #[cfg(feature = "concurrency-multi")]
            fame_buffer::Concurrency::MultiReader { .. } => select("MultiReader"),
            _ => select("Single"),
        }
    }

    #[cfg(feature = "transactions")]
    if let Some(t) = &config.transactions {
        select("Transaction");
        select("Commit");
        match t.commit {
            #[cfg(feature = "commit-force")]
            fame_txn::CommitPolicy::Force => select("ForceCommit"),
            #[cfg(feature = "commit-group")]
            fame_txn::CommitPolicy::Group { .. } => select("GroupCommit"),
        }
    }

    model.validate(&cfg)?;
    Ok((model, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[cfg(all(feature = "buffer", feature = "replace-lru"))]
    #[test]
    fn replacement_choice_is_reflected() {
        let config = DbmsConfig::default_for_build();
        let (model, cfg) = model_configuration(&config).unwrap();
        if config.buffer.is_some() {
            assert!(cfg.is_selected(model.id("BufferManager")));
            assert!(
                cfg.is_selected(model.id("LRU")) ^ cfg.is_selected(model.id("LFU")),
                "exactly one replacement policy"
            );
        }
    }

    #[cfg(all(
        feature = "concurrency-multi-writer",
        feature = "commit-force",
        feature = "buffer"
    ))]
    #[test]
    fn multi_writer_instance_selects_alternative() {
        use crate::config::TxnConfig;
        let mut config = DbmsConfig::default_for_build();
        config.concurrency = fame_buffer::Concurrency::MultiWriter { shards: 0 };
        config.transactions = Some(TxnConfig {
            commit: fame_txn::CommitPolicy::Force,
        });
        let (model, cfg) = model_configuration(&config).unwrap();
        assert!(cfg.is_selected(model.id("MultiWriter")));
        assert!(!cfg.is_selected(model.id("Single")));
        assert!(
            cfg.is_selected(model.id("Transaction")),
            "MultiWriter requires Transaction (cross-tree constraint)"
        );
    }

    #[cfg(all(feature = "transactions", feature = "commit-force", feature = "buffer"))]
    #[test]
    fn transaction_instance_selects_commit_protocol() {
        use crate::config::TxnConfig;
        let mut config = DbmsConfig::default_for_build();
        config.transactions = Some(TxnConfig {
            commit: fame_txn::CommitPolicy::Force,
        });
        let (model, cfg) = model_configuration(&config).unwrap();
        assert!(cfg.is_selected(model.id("Transaction")));
        assert!(cfg.is_selected(model.id("ForceCommit")));
    }
}
