//! Integration: the MultiReader concurrency feature (*Buffer Manager →
//! Concurrency* in the extended Figure 2 model).
//!
//! Covers the three contracts of the shared read path: reader handles
//! return exactly what the single writer stored (even while eviction churn
//! recycles frames under them), `Single` products expose no reader and
//! behave like the sequential seed, and `get_with` observes the same bytes
//! as the copying `get`.

use fame_dbms::{Concurrency, Database, DbReader, DbmsConfig};

fn value_of(i: u32) -> Vec<u8> {
    let mut v = i.to_le_bytes().repeat(4);
    v.push(i as u8);
    v
}

fn multi_config(frames: usize, shards: usize) -> DbmsConfig {
    let mut cfg = DbmsConfig::in_memory();
    if let Some(b) = &mut cfg.buffer {
        b.frames = frames;
    }
    cfg.concurrency = Concurrency::MultiReader { shards };
    cfg
}

#[test]
fn readers_agree_with_model_under_eviction_churn() {
    use fame_dbms::fame_buffer::ReplacementKind;
    // One element without LFU composed in, so no `for` over a literal.
    let replacements = [
        ReplacementKind::Lru,
        #[cfg(feature = "replace-lfu")]
        ReplacementKind::Lfu,
    ];
    replacements.into_iter().for_each(churn_readers);
}

fn churn_readers(replacement: fame_dbms::fame_buffer::ReplacementKind) {
    // 8 frames over 4 shards against a few hundred keys: nearly every get
    // misses, so readers constantly race evictions and write-backs.
    const KEYS: u32 = 300;
    let mut cfg = multi_config(8, 4);
    cfg.buffer.as_mut().unwrap().replacement = replacement;
    let mut db = Database::open(cfg).unwrap();
    for i in 0..KEYS {
        db.put(&i.to_be_bytes(), &value_of(i)).unwrap();
    }

    let reader = db.reader().unwrap();
    std::thread::scope(|s| {
        for t in 0u32..4 {
            let mut r = reader.clone();
            s.spawn(move || {
                let mut x = 0x9e37_79b9u32 ^ (t + 1);
                for _ in 0..2000 {
                    // xorshift32: each thread walks its own key sequence.
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    let k = x % KEYS;
                    let got = r.get(&k.to_be_bytes()).unwrap().expect("key present");
                    assert_eq!(got, value_of(k), "reader {t} saw a torn value for {k}");
                }
            });
        }
        // Churn thread: sequential sweeps evict whatever the point readers
        // just pinned and released.
        let mut churn = reader.clone();
        s.spawn(move || {
            for _ in 0..10 {
                for i in 0..KEYS {
                    assert!(churn.contains(&i.to_be_bytes()).unwrap());
                }
            }
        });
    });

    let stats = reader.pool_stats();
    assert!(stats.evictions > 0, "pool never churned: {stats:?}");
    assert!(stats.hits > 0, "pool never hit: {stats:?}");
}

#[test]
fn reader_follows_root_splits_between_reads() {
    // The B+-tree root moves when it splits. A reader handle created
    // before the split must still resolve keys afterwards (it re-reads the
    // root slot per lookup instead of caching the root page).
    let mut db = Database::open(multi_config(64, 2)).unwrap();
    db.put(b"seed", b"v").unwrap();
    let mut r = db.reader().unwrap();
    assert_eq!(r.get(b"seed").unwrap(), Some(b"v".to_vec()));

    // Force several levels of splits (quiescent point: no reads in
    // flight; readers-during-structural-writes is out of contract).
    for i in 0u32..2_000 {
        db.put(&i.to_be_bytes(), &value_of(i)).unwrap();
    }
    for i in (0u32..2_000).step_by(97) {
        assert_eq!(r.get(&i.to_be_bytes()).unwrap(), Some(value_of(i)));
    }
    assert_eq!(r.get(b"seed").unwrap(), Some(b"v".to_vec()));
}

#[test]
fn unbuffered_multireader_serves_correct_values() {
    let mut cfg = multi_config(8, 2);
    cfg.buffer = None; // Buffer Manager composed out at runtime
    let mut db = Database::open(cfg).unwrap();
    for i in 0..100u32 {
        db.put(&i.to_be_bytes(), &value_of(i)).unwrap();
    }
    let reader = db.reader().unwrap();
    std::thread::scope(|s| {
        for _ in 0..2 {
            let mut r = reader.clone();
            s.spawn(move || {
                for i in 0..100u32 {
                    assert_eq!(r.get(&i.to_be_bytes()).unwrap(), Some(value_of(i)));
                }
            });
        }
    });
    assert_eq!(reader.pool_stats().hits, 0, "no cache without the feature");
}

#[test]
fn single_concurrency_exposes_no_reader() {
    // The default configuration is Concurrency::Single even in builds
    // that compile the MultiReader code path.
    let db = Database::open(DbmsConfig::in_memory()).unwrap();
    assert!(matches!(db.config().concurrency, Concurrency::Single));
    let Err(err) = db.reader() else {
        panic!("Single product must not hand out readers");
    };
    assert!(err.to_string().contains("MultiReader"), "{err}");
}

#[test]
fn single_and_multi_products_agree() {
    // The same workload through a Single and a MultiReader instance must
    // produce identical observable state — the concurrency feature changes
    // the locking discipline, never the semantics.
    let run = |cfg: DbmsConfig| {
        let mut db = Database::open(cfg).unwrap();
        for i in 0..200u32 {
            db.put(&i.to_be_bytes(), &value_of(i)).unwrap();
        }
        for i in (0..200u32).step_by(3) {
            db.remove(&i.to_be_bytes()).unwrap();
        }
        db.update(&7u32.to_be_bytes(), b"updated").unwrap();
        (db.len().unwrap(), db.scan(None, None).unwrap())
    };
    let single = run(DbmsConfig::in_memory());
    let multi = run(multi_config(64, 8));
    assert_eq!(single, multi);
}

#[test]
fn get_with_equals_get() {
    let mut db = Database::open(multi_config(64, 8)).unwrap();
    for i in 0..50u32 {
        db.put(&i.to_be_bytes(), &value_of(i)).unwrap();
    }
    // Writer-side get_with against writer-side get.
    for i in 0..50u32 {
        let k = i.to_be_bytes();
        let copied = db.get(&k).unwrap();
        let in_place = db.get_with(&k, |v| v.to_vec()).unwrap();
        assert_eq!(copied, in_place);
        assert_eq!(
            db.get_with(&k, |v| v.len()).unwrap(),
            copied.as_ref().map(|v| v.len())
        );
    }
    assert_eq!(db.get_with(b"missing", |v| v.len()).unwrap(), None);

    // Reader-side get_with agrees with the writer.
    let mut r: DbReader = db.reader().unwrap();
    for i in 0..50u32 {
        let k = i.to_be_bytes();
        assert_eq!(r.get_with(&k, |v| v.to_vec()).unwrap(), db.get(&k).unwrap());
    }
}

#[test]
fn shard_count_must_be_power_of_two() {
    let mut cfg = multi_config(64, 3);
    assert!(Database::open(cfg.clone()).is_err());
    cfg.concurrency = Concurrency::MultiReader { shards: 0 }; // 0 = default
    assert!(Database::open(cfg).is_ok());
}

/// Seqlock torn-read stress: a writer flips every key between two
/// same-length values whose bytes differ in every position, while reader
/// threads race the optimistic hit path and eviction churn recycles
/// frames. Any torn copy (a mix of old and new bytes) that escaped
/// version validation is caught byte-by-byte.
#[test]
fn optimistic_reads_are_never_torn_under_updates() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const KEYS: u32 = 64;
    const VAL_LEN: usize = 16;
    let a = |i: u32| vec![i as u8; VAL_LEN];
    let b = |i: u32| vec![(i as u8) ^ 0xFF; VAL_LEN];

    // 8 frames over 2 shards: updates, evictions and write-backs all
    // race the latch-free reads.
    let mut db = Database::open(multi_config(8, 2)).unwrap();
    for i in 0..KEYS {
        db.put(&i.to_be_bytes(), &a(i)).unwrap();
    }

    let stop = AtomicBool::new(false);
    let reader = db.reader().unwrap();
    std::thread::scope(|s| {
        for t in 0u32..4 {
            let mut r = reader.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut x = 0x1234_5678u32 ^ (t + 1);
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    let k = x % KEYS;
                    let got = r.get(&k.to_be_bytes()).unwrap().expect("key present");
                    // Old value, new value — never a stitch of both.
                    assert_eq!(got.len(), VAL_LEN, "reader {t} saw a truncated value");
                    let first = got[0];
                    assert!(
                        first == k as u8 || first == (k as u8) ^ 0xFF,
                        "reader {t} saw foreign byte {first:#x} for key {k}"
                    );
                    assert!(
                        got.iter().all(|&byte| byte == first),
                        "reader {t} saw a TORN value for key {k}: {got:?}"
                    );
                }
            });
        }

        // The single writer flips each key A -> B -> A ...; updates keep
        // the value length fixed so the cell is rewritten in place.
        for round in 0u32..100 {
            for i in 0..KEYS {
                let v = if round % 2 == 0 { b(i) } else { a(i) };
                db.update(&i.to_be_bytes(), &v).unwrap();
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    let stats = reader.pool_stats();
    assert!(stats.hits > 0, "stress never exercised the hit path");
}

/// Frame version counters must not suffer ABA: a token taken before an
/// eviction (or before the u64 version wraps) can never validate again,
/// even when the same page lands back in the same frame with identical
/// bytes.
#[test]
fn frame_version_wraparound_and_eviction_kill_stale_tokens() {
    use fame_dbms::fame_buffer::{ReplacementKind, SharedBufferPool};
    use fame_dbms::fame_os::{AllocPolicy, BlockDevice, InMemoryDevice};

    let device = || -> Box<dyn BlockDevice> {
        let mut dev = InMemoryDevice::new(128);
        dev.ensure_pages(8).unwrap();
        Box::new(dev)
    };

    // Wraparound: wind every frame version to the top of the u64 range,
    // then push one write through it. The counter wraps (odd MAX during
    // the write window, even 0 after), and the pre-wrap token must die
    // even though `0 < MAX-1` would look "older" to a naive comparison.
    let p = SharedBufferPool::new(
        device(),
        ReplacementKind::Lru,
        AllocPolicy::Static { frames: 2 },
        1,
    );
    p.with_page(0, |_| ()).unwrap();
    p.wind_frame_versions(u64::MAX - 1);
    let ((), pre_wrap) = p.with_page_token(0, |_| ()).unwrap();
    assert!(p.validate_token(pre_wrap), "token must be valid when taken");
    p.with_page_mut(0, |buf| buf[0] = 1).unwrap();
    assert!(
        !p.validate_token(pre_wrap),
        "token survived a version wraparound (ABA)"
    );
    let ((), post_wrap) = p.with_page_token(0, |b| assert_eq!(b[0], 1)).unwrap();
    assert!(
        p.validate_token(post_wrap),
        "post-wrap reads validate again"
    );

    // Eviction ABA: evict page 0 from its frame, reload it with
    // identical bytes. Same page, same bytes, possibly the same frame —
    // the version history still invalidates the old receipt.
    let p = SharedBufferPool::new(
        device(),
        ReplacementKind::Lru,
        AllocPolicy::Static { frames: 2 },
        1,
    );
    let ((), before) = p.with_page_token(0, |_| ()).unwrap();
    p.with_page(1, |_| ()).unwrap();
    p.with_page(2, |_| ()).unwrap(); // evicts page 0 (coldest)
    p.with_page(3, |_| ()).unwrap(); // evicts page 1
    assert!(!p.contains(0), "eviction setup broke");
    assert!(
        !p.validate_token(before),
        "token survived eviction of its page"
    );
    p.with_page(0, |_| ()).unwrap(); // reload, bytes unchanged
    assert!(
        !p.validate_token(before),
        "token revalidated after reload (ABA)"
    );
}

/// Statistics feature: `Database::stats()` snapshots taken while reader
/// threads hammer the sharded pool (and the writer keeps evicting) must be
/// coherent — every counter monotonically non-decreasing across snapshots,
/// never torn, and internally consistent.
#[cfg(feature = "statistics")]
#[test]
fn stats_snapshot_coherent_under_reader_churn() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const KEYS: u32 = 400;
    // 8 frames: nearly every access misses, so evictions and write-backs
    // run constantly while the snapshots are taken.
    let mut db = Database::open(multi_config(8, 4)).unwrap();
    for i in 0..KEYS {
        db.put(&i.to_be_bytes(), &value_of(i)).unwrap();
    }

    let stop = AtomicBool::new(false);
    let reader = db.reader().unwrap();
    std::thread::scope(|s| {
        for t in 0u32..4 {
            let mut r = reader.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut x = 0xdead_beefu32 ^ (t + 1);
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    let k = x % KEYS;
                    assert!(r.get_with(&k.to_be_bytes(), |_| ()).unwrap().is_some());
                }
            });
        }

        // Writer interleaves puts (forcing dirty evictions) with
        // snapshots; each snapshot must dominate the previous one.
        let mut prev = db.stats().unwrap();
        for round in 0u32..200 {
            let k = round % KEYS;
            db.put(&k.to_be_bytes(), &value_of(k)).unwrap();
            let s = db.stats().unwrap();
            for (name, now, before) in [
                ("hits", s.pool.hits, prev.pool.hits),
                ("misses", s.pool.misses, prev.pool.misses),
                ("evictions", s.pool.evictions, prev.pool.evictions),
                ("writebacks", s.pool.writebacks, prev.pool.writebacks),
                ("latch_waits", s.pool.latch_waits, prev.pool.latch_waits),
                ("ops_traced", s.ops_traced, prev.ops_traced),
            ] {
                assert!(
                    now >= before,
                    "{name} went backwards under churn: {now} < {before} (round {round})"
                );
            }
            assert_eq!(s.frame_bytes, s.frames * s.page_size);
            prev = s;
        }
        stop.store(true, Ordering::Relaxed);
    });

    let last = db.stats().unwrap();
    assert!(last.pool.evictions > 0, "pool never churned");
    assert!(last.pool.hits + last.pool.misses > 0);
}
