//! Integration: the product line as a whole — cargo-feature composition,
//! the executable Figure 2 model, and their agreement.

use fame_dbms::{active_features, model_configuration, Database, DbmsConfig, IndexKind};
use fame_feature_model::{count, models, Configuration};

#[test]
fn active_features_match_build() {
    let feats = active_features();
    // This test target builds with the `standard` set (see Cargo.toml).
    for expected in ["api-put", "api-get", "index-btree", "buffer", "replace-lru"] {
        assert!(feats.contains(&expected), "missing {expected}");
    }
}

#[test]
fn built_product_is_a_valid_model_configuration() {
    let db = Database::open(DbmsConfig::in_memory()).unwrap();
    let (model, cfg) = model_configuration(db.config()).expect("valid product");
    assert!(model.validate(&cfg).is_ok());
    // Sanity: the configuration reflects the standard composition.
    assert!(cfg.is_selected(model.id("B+-Tree")));
    assert!(cfg.is_selected(model.id("BufferManager")));
    assert!(!cfg.is_selected(model.id("Transaction")));
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
    use fame_dbms::TxnConfig;
    let mut config = DbmsConfig::default_for_build();
    config.concurrency = fame_dbms::Concurrency::MultiWriter { shards: 0 };
    config.transactions = Some(TxnConfig {
        commit: fame_dbms::fame_txn::CommitPolicy::Force,
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
    use fame_dbms::TxnConfig;
    let mut config = DbmsConfig::default_for_build();
    config.transactions = Some(TxnConfig {
        commit: fame_dbms::fame_txn::CommitPolicy::Force,
    });
    let (model, cfg) = model_configuration(&config).unwrap();
    assert!(cfg.is_selected(model.id("Transaction")));
    assert!(cfg.is_selected(model.id("ForceCommit")));
}

#[cfg(feature = "index-hash")]
#[test]
fn hash_instance_selects_hash() {
    let mut config = DbmsConfig::default_for_build();
    config.index = IndexKind::Hash { buckets: 16 };
    let (model, cfg) = model_configuration(&config).unwrap();
    assert!(cfg.is_selected(model.id("Hash")));
    assert!(!cfg.is_selected(model.id("B+-Tree")));
    assert!(!cfg.is_selected(model.id("BTreeSearch")));
}

#[cfg(all(feature = "os-flash", feature = "buffer"))]
#[test]
fn flash_instance_is_model_valid() {
    let mut config = DbmsConfig::on_flash(fame_dbms::fame_os::FlashConfig::default());
    assert!(config.check().is_ok(), "{:?}", config.check());
    let (model, cfg) = model_configuration(&config).expect("(NutOS & BufferManager) -> Static");
    assert!(cfg.is_selected(model.id("NutOS")));
    assert!(cfg.is_selected(model.id("Static")));
    // `check()` mirrors the constraint: no dynamic buffer on flash.
    if let Some(b) = &mut config.buffer {
        b.static_alloc = false;
    }
    assert!(config.check().is_err());
}

#[cfg(all(feature = "crypto", feature = "replication"))]
#[test]
fn crypto_and_replication_follow_the_instance() {
    let mut config = DbmsConfig::default_for_build();
    let (model, cfg) = model_configuration(&config).unwrap();
    assert!(!cfg.is_selected(model.id("Crypto")));
    assert!(!cfg.is_selected(model.id("Replication")));
    config.crypto_key = Some([7; 16]);
    config.replication = Some(fame_dbms::fame_repl::AckPolicy::Asynchronous);
    let (model, cfg) = model_configuration(&config).unwrap();
    assert!(cfg.is_selected(model.id("Crypto")));
    assert!(cfg.is_selected(model.id("Replication")));
}

#[test]
fn fame_model_counts_match_enumeration() {
    let model = models::fame_dbms();
    let counted = count::count_variants(&model);
    let enumerated = count::enumerate_variants(&model).len() as u128;
    assert_eq!(counted, enumerated);
    assert_eq!(counted, 3_663_504, "the model's real size");
}

#[test]
fn every_enumerated_fame_variant_validates() {
    let model = models::fame_dbms();
    let variants = count::enumerate_variants(&model);
    // Every thousandth variant and the last: a sample that spans the
    // whole enumeration, not just its first subtree combinations.
    let sample = variants.iter().step_by(1000).chain(variants.last());
    for &v in sample {
        let cfg = Configuration::from_ids(count::variant_features(v));
        assert!(model.validate(&cfg).is_ok(), "{:?}", cfg.names(&model));
    }
}

#[test]
fn bdb_model_reproduces_paper_numbers() {
    let model = models::berkeley_db();
    assert_eq!(
        model.optional_features().len(),
        24,
        "24 optional features (§2.2)"
    );
    let examined = model
        .iter()
        .filter(|(_, f)| f.attribute("examined") == Some(1.0))
        .count();
    assert_eq!(examined, 18, "18 examined features (§3.1)");
    let api_visible = model
        .iter()
        .filter(|(_, f)| {
            f.attribute("examined") == Some(1.0) && f.attribute("api_visible") == Some(1.0)
        })
        .count();
    assert_eq!(api_visible, 15, "15 of 18 with API footprint (§3.1)");
}

#[test]
fn propagation_enforces_cross_tree_constraints() {
    let model = models::fame_dbms();
    let mut decided = std::collections::BTreeMap::new();
    decided.insert(model.id("Optimizer"), true);
    let p = model.propagate(&decided);
    assert!(!p.contradiction);
    assert!(p.forced_on.contains(&model.id("SQLEngine")));
}

#[test]
fn runtime_config_variants_all_open() {
    // Every runtime choice expressible in this build must yield a working
    // database: index kinds x buffer on/off.
    let mut cases: Vec<DbmsConfig> = Vec::new();
    let mut base = DbmsConfig::in_memory();
    base.index = IndexKind::BTree;
    cases.push(base.clone());
    let mut no_buffer = base.clone();
    no_buffer.buffer = None;
    cases.push(no_buffer);

    for (i, cfg) in cases.into_iter().enumerate() {
        let mut db = Database::open(cfg).unwrap_or_else(|e| panic!("case {i}: {e}"));
        db.put(b"k", b"v").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()), "case {i}");
    }
}

#[test]
fn unbuffered_product_hits_device_every_time() {
    let mut cfg = DbmsConfig::in_memory();
    cfg.buffer = None; // compose the Buffer Manager feature out at runtime
    let mut db = Database::open(cfg).unwrap();
    db.put(b"a", b"1").unwrap();
    let before = db.device_stats().reads;
    for _ in 0..10 {
        db.get(b"a").unwrap();
    }
    let after = db.device_stats().reads;
    assert!(after >= before + 10, "no caching without the feature");
    assert_eq!(db.pool_stats().hits, 0);
}

#[test]
fn dot_export_renders_figure_2() {
    let model = models::fame_dbms();
    let dot = fame_feature_model::dot::to_dot(&model);
    for name in ["B+-Tree", "BufferManager", "NutOS", "SQLEngine"] {
        assert!(dot.contains(name));
    }
}
