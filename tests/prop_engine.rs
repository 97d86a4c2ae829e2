//! Property tests over the whole engine (full feature build): the
//! database facade behaves like a model map under arbitrary operation
//! sequences, for every index kind, with and without crypto; and the
//! derivation pipeline's `Query` evaluation obeys its algebraic laws
//! against randomized application models.

use proptest::prelude::*;
use std::collections::BTreeMap;

use fame_derivation::{AppModel, Confidence, Fact, Query};

use fame_dbms::{BufferConfig, Database, DbmsConfig, IndexKind};

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Get(Vec<u8>),
    Remove(Vec<u8>),
    Update(Vec<u8>, Vec<u8>),
    Batch(Vec<BatchEntry>),
}

/// One queued batch operation: a put, an update or a remove of a key.
#[derive(Debug, Clone)]
enum BatchEntry {
    Put(Vec<u8>, Vec<u8>),
    Update(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = prop::collection::vec(any::<u8>(), 1..10);
    let val = prop::collection::vec(any::<u8>(), 0..20);
    prop_oneof![
        (key.clone(), val.clone()).prop_map(|(k, v)| Op::Put(k, v)),
        key.clone().prop_map(Op::Get),
        key.clone().prop_map(Op::Remove),
        (key, val.clone()).prop_map(|(k, v)| Op::Update(k, v)),
        prop::collection::vec(batch_entry_strategy(val), 1..8).prop_map(Op::Batch),
    ]
}

/// Batch entries over one small key space, so later entries and later
/// batches update and remove keys that earlier ones wrote.
fn batch_entry_strategy(val: impl Strategy<Value = Vec<u8>>) -> impl Strategy<Value = BatchEntry> {
    (0u8..3, 0u8..6, val).prop_map(|(kind, k, v)| match kind {
        0 => BatchEntry::Put(vec![k], v),
        1 => BatchEntry::Update(vec![k], v),
        _ => BatchEntry::Remove(vec![k]),
    })
}

fn run_ops(mut db: Database, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                db.put(&k, &v).unwrap();
                model.insert(k, v);
            }
            Op::Get(k) => {
                prop_assert_eq!(db.get(&k).unwrap(), model.get(&k).cloned());
            }
            Op::Remove(k) => {
                let removed = db.remove(&k).unwrap();
                prop_assert_eq!(removed, model.remove(&k).is_some());
            }
            Op::Update(k, v) => {
                let updated = db.update(&k, &v).unwrap();
                if updated {
                    model.insert(k, v);
                } else {
                    prop_assert!(!model.contains_key(&k));
                }
            }
            Op::Batch(entries) => {
                // Last write wins; an update of a key missing at that
                // point fails the whole batch, which then changes nothing.
                let mut draft = model.clone();
                let mut batch = fame_dbms::WriteBatch::new();
                let mut valid = true;
                for entry in entries {
                    match entry {
                        BatchEntry::Put(k, v) => {
                            batch.put(&k, &v);
                            draft.insert(k, v);
                        }
                        BatchEntry::Update(k, v) => {
                            batch.update(&k, &v);
                            valid &= draft.insert(k, v).is_some();
                        }
                        BatchEntry::Remove(k) => {
                            batch.remove(&k);
                            draft.remove(&k);
                        }
                    }
                }
                prop_assert_eq!(db.apply_batch(batch).is_ok(), valid);
                if valid {
                    model = draft;
                }
            }
        }
    }
    prop_assert_eq!(db.len().unwrap(), model.len());
    for (k, v) in &model {
        let got = db.get(k).unwrap();
        prop_assert_eq!(got.as_ref(), Some(v));
    }
    Ok(())
}

fn config_for(index: IndexKind, crypto: bool, frames: usize) -> DbmsConfig {
    let mut cfg = DbmsConfig::in_memory();
    cfg.page_size = 256;
    cfg.index = index;
    cfg.buffer = Some(BufferConfig {
        frames,
        replacement: fame_dbms::fame_buffer::ReplacementKind::Lru,
        static_alloc: false,
    });
    if crypto {
        cfg.crypto_key = Some(*b"fame-dbms-key-16");
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn btree_product_behaves_like_map(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let db = Database::open(config_for(IndexKind::BTree, false, 16)).unwrap();
        run_ops(db, ops)?;
    }

    #[test]
    fn hash_product_behaves_like_map(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let db = Database::open(config_for(IndexKind::Hash { buckets: 8 }, false, 16)).unwrap();
        run_ops(db, ops)?;
    }

    #[test]
    fn list_product_behaves_like_map(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let db = Database::open(config_for(IndexKind::List, false, 16)).unwrap();
        run_ops(db, ops)?;
    }

    #[test]
    fn encrypted_product_behaves_like_map(ops in prop::collection::vec(op_strategy(), 1..100)) {
        // A tiny pool forces constant decrypt/encrypt round trips.
        let db = Database::open(config_for(IndexKind::BTree, true, 2)).unwrap();
        run_ops(db, ops)?;
    }

    #[test]
    fn scan_agrees_with_sorted_model(
        entries in prop::collection::btree_map(
            prop::collection::vec(any::<u8>(), 1..8),
            prop::collection::vec(any::<u8>(), 0..16),
            0..80,
        )
    ) {
        let mut db = Database::open(config_for(IndexKind::BTree, false, 16)).unwrap();
        for (k, v) in &entries {
            db.put(k, v).unwrap();
        }
        let scanned = db.scan(None, None).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            entries.into_iter().collect();
        prop_assert_eq!(scanned, expected);
    }

    #[test]
    fn transactional_commit_equals_direct_writes(
        kvs in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..6),
             prop::collection::vec(any::<u8>(), 0..12)),
            1..40,
        )
    ) {
        let mut cfg = config_for(IndexKind::BTree, false, 16);
        cfg.transactions = Some(fame_dbms::TxnConfig {
            commit: fame_dbms::fame_txn::CommitPolicy::Force,
        });
        let mut db = Database::open(cfg).unwrap();
        let t = db.begin().unwrap();
        let mut model = BTreeMap::new();
        for (k, v) in kvs {
            // no-wait locking: re-puts of the same key by the same txn are fine
            db.txn_put(t, &k, &v).unwrap();
            model.insert(k, v);
        }
        db.commit(t).unwrap();
        for (k, v) in &model {
            let got = db.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
    }

    #[test]
    fn abort_is_a_perfect_undo(
        before in prop::collection::btree_map(
            prop::collection::vec(any::<u8>(), 1..6),
            prop::collection::vec(any::<u8>(), 0..12),
            0..30,
        ),
        churn in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..6),
             prop::option::of(prop::collection::vec(any::<u8>(), 0..12))),
            1..40,
        )
    ) {
        let mut cfg = config_for(IndexKind::BTree, false, 16);
        cfg.transactions = Some(fame_dbms::TxnConfig {
            commit: fame_dbms::fame_txn::CommitPolicy::Force,
        });
        let mut db = Database::open(cfg).unwrap();
        for (k, v) in &before {
            db.put(k, v).unwrap();
        }
        let snapshot = db.scan(None, None).unwrap();

        let t = db.begin().unwrap();
        for (k, op) in churn {
            match op {
                Some(v) => db.txn_put(t, &k, &v).unwrap(),
                None => {
                    let _ = db.txn_remove(t, &k).unwrap();
                }
            }
        }
        db.abort(t).unwrap();

        prop_assert_eq!(db.scan(None, None).unwrap(), snapshot);
    }
}

/// The coalesced commit, by count: under `Force` one `apply_batch` costs
/// exactly one log sync, whatever the batch size and whatever the index.
#[test]
fn a_batch_of_any_size_is_one_log_sync_on_every_index() {
    for index in [
        IndexKind::BTree,
        IndexKind::List,
        IndexKind::Hash { buckets: 64 },
    ] {
        let mut cfg = config_for(index.clone(), false, 64);
        cfg.transactions = Some(fame_dbms::TxnConfig {
            commit: fame_dbms::fame_txn::CommitPolicy::Force,
        });
        let mut db = Database::open(cfg).unwrap();
        let mut keys = 0u32;
        for size in [1, 8, 64, 512] {
            let before = db.log_syncs().unwrap();
            let mut batch = fame_dbms::WriteBatch::new();
            for _ in 0..size {
                batch.put(&keys.to_be_bytes(), &[7; 16]);
                keys += 1;
            }
            db.apply_batch(batch).unwrap();
            let syncs = db.log_syncs().unwrap() - before;
            assert_eq!(syncs, 1, "{index:?}: a batch of {size} made {syncs} syncs");
        }
        assert_eq!(db.len().unwrap(), keys as usize, "{index:?}: a key is lost");
    }
}

// --- Query evaluation laws (Figure 3 derivation pipeline) ---------------
//
// Queries are a positive boolean algebra (Any/All, no negation) over an
// application model's fact set, evaluated at a confidence tier. The laws
// below must hold for every model and every tier.

const CALL_POOL: &[&str] = &["put", "get", "remove", "open", "cursor", "sql", "begin"];
const CONST_POOL: &[&str] = &[
    "DB_BTREE",
    "DB_INIT_TXN",
    "DB_INIT_LOCK",
    "DB_ENCRYPT",
    "DB_QUEUE",
];
const PATH_POOL: &[(&str, &str)] = &[
    ("CommitPolicy", "Force"),
    ("IndexKind", "BTree"),
    ("OsTarget", "Flash"),
    ("Value", "U32"),
];

fn arb_fact() -> impl Strategy<Value = Fact> {
    prop_oneof![
        prop::sample::select(CALL_POOL).prop_map(|c| Fact::Call(c.to_string())),
        prop::sample::select(CONST_POOL).prop_map(|c| Fact::Constant(c.to_string())),
        prop::sample::select(PATH_POOL).prop_map(|(t, v)| Fact::Path(t.to_string(), v.to_string())),
    ]
}

fn arb_tier() -> impl Strategy<Value = Confidence> {
    prop_oneof![Just(Confidence::Syntactic), Just(Confidence::FlowConfirmed),]
}

fn arb_app_model() -> impl Strategy<Value = AppModel> {
    prop::collection::vec((arb_fact(), arb_tier(), 1u32..200), 0..12).prop_map(AppModel::from_facts)
}

fn arb_query() -> impl Strategy<Value = Query> {
    let leaf = prop_oneof![
        prop::sample::select(CALL_POOL).prop_map(Query::Call),
        prop::sample::select(CONST_POOL).prop_map(Query::Constant),
        prop::sample::select(PATH_POOL).prop_map(|(t, v)| Query::Path(t, v)),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Query::Any),
            prop::collection::vec(inner, 0..4).prop_map(Query::All),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn empty_connectives_are_identities(m in arb_app_model(), tier in arb_tier()) {
        // Any([]) is the identity of Any (false); All([]) of All (true).
        prop_assert!(!Query::Any(vec![]).matches_at(&m, tier));
        prop_assert!(Query::All(vec![]).matches_at(&m, tier));
    }

    #[test]
    fn singleton_wrappers_are_identity(
        m in arb_app_model(),
        q in arb_query(),
        tier in arb_tier(),
    ) {
        let direct = q.matches_at(&m, tier);
        prop_assert_eq!(Query::Any(vec![q.clone()]).matches_at(&m, tier), direct);
        prop_assert_eq!(Query::All(vec![q]).matches_at(&m, tier), direct);
    }

    #[test]
    fn de_morgan_duals_hold(
        m in arb_app_model(),
        qs in prop::collection::vec(arb_query(), 0..5),
        tier in arb_tier(),
    ) {
        // Any(qs) == not All(not q); All(qs) == not Any(not q).
        let any = Query::Any(qs.clone()).matches_at(&m, tier);
        let all = Query::All(qs.clone()).matches_at(&m, tier);
        prop_assert_eq!(any, !qs.iter().all(|q| !q.matches_at(&m, tier)));
        prop_assert_eq!(all, !qs.iter().any(|q| !q.matches_at(&m, tier)));
    }

    #[test]
    fn operand_order_is_irrelevant(
        (qs, shuffled) in prop::collection::vec(arb_query(), 0..5)
            .prop_flat_map(|qs| (Just(qs.clone()), Just(qs).prop_shuffle())),
        m in arb_app_model(),
        tier in arb_tier(),
    ) {
        prop_assert_eq!(
            Query::Any(qs.clone()).matches_at(&m, tier),
            Query::Any(shuffled.clone()).matches_at(&m, tier),
        );
        prop_assert_eq!(
            Query::All(qs).matches_at(&m, tier),
            Query::All(shuffled).matches_at(&m, tier),
        );
    }

    #[test]
    fn duplicated_operands_are_idempotent(
        m in arb_app_model(),
        q in arb_query(),
        tier in arb_tier(),
    ) {
        let direct = q.matches_at(&m, tier);
        prop_assert_eq!(Query::Any(vec![q.clone(), q.clone()]).matches_at(&m, tier), direct);
        prop_assert_eq!(Query::All(vec![q.clone(), q]).matches_at(&m, tier), direct);
    }

    #[test]
    fn flow_confirmed_match_implies_syntactic_match(
        m in arb_app_model(),
        q in arb_query(),
    ) {
        // Positive formulas are monotone in the confidence tier.
        if q.matches_at(&m, Confidence::FlowConfirmed) {
            prop_assert!(q.matches_at(&m, Confidence::Syntactic));
        }
    }
}
