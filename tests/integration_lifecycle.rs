//! Integration: full database lifecycle across the OS, buffer, storage and
//! transaction layers — persistence, reopen, crash recovery.

use fame_dbms::{Database, DbmsConfig, TxnConfig};

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fame-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut log = path.to_path_buf();
    let name = format!("{}.log", log.file_name().unwrap().to_string_lossy());
    log.set_file_name(name);
    let _ = std::fs::remove_file(log);
}

#[test]
fn file_backed_data_survives_reopen() {
    let path = tmp_path("reopen.db");
    cleanup(&path);
    {
        let mut db = Database::open(DbmsConfig::on_file(&path)).unwrap();
        for i in 0u32..500 {
            db.put(&i.to_be_bytes(), format!("value-{i}").as_bytes())
                .unwrap();
        }
        db.remove(&7u32.to_be_bytes()).unwrap();
        db.sync().unwrap();
    }
    {
        let mut db = Database::open(DbmsConfig::on_file(&path)).unwrap();
        assert_eq!(db.len().unwrap(), 499);
        assert_eq!(
            db.get(&42u32.to_be_bytes()).unwrap(),
            Some(b"value-42".to_vec())
        );
        assert_eq!(db.get(&7u32.to_be_bytes()).unwrap(), None);
        // Ordered scans still work after reopen.
        let all = db.scan(None, None).unwrap();
        assert_eq!(all.len(), 499);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }
    cleanup(&path);
}

#[test]
fn committed_transactions_survive_crash() {
    let path = tmp_path("crash.db");
    cleanup(&path);
    let txn_cfg = || {
        let mut c = DbmsConfig::on_file(&path);
        c.transactions = Some(TxnConfig {
            commit: fame_dbms::fame_txn::CommitPolicy::Force,
        });
        c
    };

    // Phase 1: commit one transaction, leave another in flight, then
    // "crash" (drop without sync — the WAL was force-synced at commit,
    // the data pages were not).
    {
        let mut db = Database::open(txn_cfg()).unwrap();
        let t1 = db.begin().unwrap();
        db.txn_put(t1, b"committed", b"yes").unwrap();
        db.txn_put(t1, b"balance", b"100").unwrap();
        db.commit(t1).unwrap();

        let t2 = db.begin().unwrap();
        db.txn_put(t2, b"uncommitted", b"dirty").unwrap();
        db.txn_put(t2, b"balance", b"999").unwrap();
        // no commit, no sync: crash
        std::mem::forget(db); // keep even Drop's flush from running
    }

    // Phase 2: reopen; recovery must redo the winner and undo the loser.
    {
        let mut db = Database::open(txn_cfg()).unwrap();
        assert_eq!(db.get(b"committed").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(
            db.get(b"balance").unwrap(),
            Some(b"100".to_vec()),
            "loser's overwrite undone"
        );
        assert_eq!(
            db.get(b"uncommitted").unwrap(),
            None,
            "loser's insert undone"
        );
    }
    cleanup(&path);
}

#[test]
fn abort_rolls_back_multi_key_transaction() {
    let mut cfg = DbmsConfig::in_memory();
    cfg.transactions = Some(TxnConfig {
        commit: fame_dbms::fame_txn::CommitPolicy::Force,
    });
    let mut db = Database::open(cfg).unwrap();
    db.put(b"a", b"original-a").unwrap();
    db.put(b"b", b"original-b").unwrap();

    let t = db.begin().unwrap();
    db.txn_put(t, b"a", b"changed").unwrap();
    db.txn_remove(t, b"b").unwrap();
    db.txn_put(t, b"c", b"created").unwrap();
    db.abort(t).unwrap();

    assert_eq!(db.get(b"a").unwrap(), Some(b"original-a".to_vec()));
    assert_eq!(db.get(b"b").unwrap(), Some(b"original-b".to_vec()));
    assert_eq!(db.get(b"c").unwrap(), None);
}

#[test]
fn group_commit_defers_syncs() {
    let mut cfg = DbmsConfig::in_memory();
    cfg.transactions = Some(TxnConfig {
        commit: fame_dbms::fame_txn::CommitPolicy::Group { group_size: 10 },
    });
    let mut db = Database::open(cfg).unwrap();
    for i in 0u32..25 {
        let t = db.begin().unwrap();
        db.txn_put(t, &i.to_be_bytes(), b"v").unwrap();
        db.commit(t).unwrap();
    }
    // 25 commits at group size 10 -> 2 syncs so far.
    assert_eq!(db.log_syncs(), Some(2));
    db.sync().unwrap();
    assert_eq!(db.log_syncs(), Some(3));
    assert_eq!(db.txn_stats(), Some((25, 0)));
}

#[test]
fn lock_conflicts_surface_as_errors() {
    let mut cfg = DbmsConfig::in_memory();
    cfg.transactions = Some(TxnConfig {
        commit: fame_dbms::fame_txn::CommitPolicy::Force,
    });
    let mut db = Database::open(cfg).unwrap();
    let t1 = db.begin().unwrap();
    let t2 = db.begin().unwrap();
    db.txn_put(t1, b"hot", b"1").unwrap();
    let err = db.txn_put(t2, b"hot", b"2").unwrap_err();
    assert!(err.to_string().contains("lock conflict"), "{err}");
    // t2 aborts (no-wait discipline), t1 commits.
    db.abort(t2).unwrap();
    db.commit(t1).unwrap();
    assert_eq!(db.get(b"hot").unwrap(), Some(b"1".to_vec()));
}

/// The no-wait rule lives in the facade: a single-writer product's
/// `txn_put`/`txn_remove` lock the key before they read the before-image
/// or log anything.
#[test]
fn conflicting_facade_writes_log_nothing_and_wait_for_the_undo() {
    use fame_dbms::{fame_txn::TxnError, DbmsError};
    let conflict =
        |r: Result<(), DbmsError>| matches!(r, Err(DbmsError::Txn(TxnError::Conflict(_))));
    let mut cfg = DbmsConfig::in_memory();
    cfg.transactions = Some(TxnConfig {
        commit: fame_dbms::fame_txn::CommitPolicy::Force,
    });
    let mut db = Database::open(cfg).unwrap();
    db.put(b"k", b"v0").unwrap();

    let t1 = db.begin().unwrap();
    db.txn_put(t1, b"k", b"v1").unwrap();
    let t2 = db.begin().unwrap();
    #[cfg(feature = "statistics")]
    let logged = db.stats().unwrap().log_bytes;
    assert!(conflict(db.txn_put(t2, b"k", b"v2")));
    assert!(conflict(db.txn_remove(t2, b"k").map(drop)));
    #[cfg(feature = "statistics")]
    assert_eq!(
        db.stats().unwrap().log_bytes,
        logged,
        "a conflict logs nothing"
    );

    // The loser proceeds once the holder commits.
    db.commit(t1).unwrap();
    db.txn_put(t2, b"k", b"v2").unwrap();

    // An aborted writer's lock goes only after its undo: the next writer
    // logs the restored value as its before-image, so its own abort
    // restores the committed value again.
    let t3 = db.begin().unwrap();
    assert!(conflict(db.txn_put(t3, b"k", b"v3")));
    db.abort(t2).unwrap();
    db.txn_put(t3, b"k", b"v3").unwrap();
    db.abort(t3).unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"v1".to_vec()));
}

#[test]
fn large_dataset_with_tiny_static_buffer() {
    // Embedded conditions: 8-frame static arena, thousands of records.
    let mut cfg = DbmsConfig::in_memory();
    cfg.buffer = Some(fame_dbms::BufferConfig {
        frames: 8,
        replacement: fame_dbms::fame_buffer::ReplacementKind::Lru,
        static_alloc: true,
    });
    let mut db = Database::open(cfg).unwrap();
    for i in 0u32..5_000 {
        db.put(&i.to_be_bytes(), &[i as u8; 24]).unwrap();
    }
    for i in (0u32..5_000).step_by(97) {
        assert_eq!(db.get(&i.to_be_bytes()).unwrap(), Some(vec![i as u8; 24]));
    }
    let stats = db.pool_stats();
    assert!(stats.evictions > 0, "tiny pool must evict");
    assert_eq!(db.len().unwrap(), 5_000);
}

#[test]
fn update_and_remove_through_full_stack() {
    let mut db = Database::open(DbmsConfig::in_memory()).unwrap();
    db.put(b"k", b"v1").unwrap();
    assert!(db.update(b"k", b"v2-much-longer-than-before").unwrap());
    assert!(!db.update(b"ghost", b"x").unwrap());
    assert_eq!(
        db.get(b"k").unwrap(),
        Some(b"v2-much-longer-than-before".to_vec())
    );
    assert!(db.remove(b"k").unwrap());
    assert!(db.is_empty().unwrap());
}
