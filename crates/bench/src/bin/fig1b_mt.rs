//! Experiment E8 — multi-reader query scalability (Figure 1b, extended).
//!
//! The paper's Figure 1b measures single-threaded query throughput per
//! configuration. This harness extends the experiment along the new
//! *Concurrency → MultiReader* axis: the same point-query workload is
//! split over 1/2/4/8 reader threads, each holding its own cheap clone of
//! [`fame_dbms::DbReader`], against the sharded latch-based buffer pool.
//!
//! Three pool variants bracket the design space:
//!
//! * buffered + LRU and buffered + LFU — hits are latch-free optimistic
//!   seqlock reads (no shard latch, per-shard recency clock), so
//!   aggregate throughput should scale with cores;
//! * unbuffered — every access funnels through the device latch, the
//!   contention ceiling the Buffer Manager feature removes.
//!
//! Reported speedups are relative to the 1-thread run of the same
//! variant; the printed core count keeps the TSV hardware-honest. The
//! harness gates correctness only — every reader thread must find every
//! key it asks for, warm pass included. Speedups are wall-clock numbers:
//! reported, not asserted.
//!
//! Usage: `cargo run --release -p fame-bench --bin fig1b_mt [--quick]`

use std::time::Instant;

use fame_bench::{Table, Workload};
use fame_dbms::fame_buffer::ReplacementKind;
use fame_dbms::{BufferConfig, Concurrency, Database, DbmsConfig};

const RECORDS: u32 = 50_000;
const QUERIES: u32 = 400_000;
const VALUE_LEN: usize = 16;
const THREADS: [usize; 4] = [1, 2, 4, 8];

struct PoolVariant {
    label: &'static str,
    buffered: bool,
    replacement: ReplacementKind,
}

fn variants() -> Vec<PoolVariant> {
    vec![
        PoolVariant {
            label: "buffered-lru",
            buffered: true,
            replacement: ReplacementKind::Lru,
        },
        PoolVariant {
            label: "buffered-lfu",
            buffered: true,
            replacement: ReplacementKind::Lfu,
        },
        PoolVariant {
            label: "unbuffered",
            buffered: false,
            replacement: ReplacementKind::Lru, // unused
        },
    ]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (records, queries) = if quick {
        (5_000, 40_000)
    } else {
        (RECORDS, QUERIES)
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "E8 — {queries} point queries over {records} records, split across reader threads\n\
         ({cores} cores available; speedups need cores >= threads)\n"
    );

    let mut table = Table::new([
        "pool",
        "threads",
        "Mio queries/s",
        "speedup vs 1T",
        "hit ratio",
    ]);

    for variant in variants() {
        let db = load(&variant, records);
        // Warm pass: one full sweep so the buffered runs start hot and the
        // timed loop measures the latch protocol, not cold misses.
        let mut warm = db.reader().expect("MultiReader configured");
        let w = Workload::new(records, VALUE_LEN, 0xFA3E);
        for i in 0..records {
            assert!(warm.contains(&w.key(i)).expect("warm get"));
        }

        let mut base_qps = 0.0;
        for &threads in &THREADS {
            let (qps, hit_ratio) = run(&db, records, queries, threads);
            if threads == 1 {
                base_qps = qps;
            }
            let speedup = qps / base_qps;
            table.row([
                variant.label.to_string(),
                threads.to_string(),
                format!("{:.3}", qps / 1e6),
                format!("{speedup:.2}x"),
                format!("{hit_ratio:.3}"),
            ]);
            println!(
                "  {:<13} {threads}T: {:.3} Mio q/s ({speedup:.2}x, hit ratio {hit_ratio:.3})",
                variant.label,
                qps / 1e6,
            );
        }
    }

    println!("\n{}", table.render());

    let dir = std::path::Path::new("bench-results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join("fig1b_mt.tsv"), table.to_tsv());
    println!("results written to bench-results/fig1b_mt.tsv");
}

fn load(variant: &PoolVariant, records: u32) -> Database {
    let mut config = DbmsConfig::in_memory();
    config.page_size = 512;
    config.buffer = variant.buffered.then_some(BufferConfig {
        frames: 2048,
        replacement: variant.replacement,
        static_alloc: false,
    });
    config.concurrency = Concurrency::MultiReader { shards: 0 }; // 0 = default (8)

    let mut db = Database::open(config).expect("open");
    let w = Workload::new(records, VALUE_LEN, 0xFA3E);
    for i in 0..records {
        db.put(&w.key(i), &w.value(i)).expect("put");
    }
    db
}

/// Run `queries` uniform point lookups split over `threads` reader clones;
/// returns aggregate queries/s and the pool hit ratio over the run.
fn run(db: &Database, records: u32, queries: u32, threads: usize) -> (f64, f64) {
    let reader = db.reader().expect("MultiReader configured");
    let before = reader.pool_stats();
    let per_thread = queries / threads as u32;
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut r = reader.clone();
                s.spawn(move || {
                    let mut sampler =
                        Workload::new(records, VALUE_LEN, 0xBEEF ^ ((t as u64 + 1) * 0x9E37));
                    let mut found = 0u32;
                    for _ in 0..per_thread {
                        if r.get_with(&sampler.sample_key(), |v| v.len())
                            .expect("get")
                            .is_some()
                        {
                            found += 1;
                        }
                    }
                    found
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("reader thread"), per_thread);
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let after = reader.pool_stats();
    let accesses = (after.hits + after.misses).saturating_sub(before.hits + before.misses);
    let hit_ratio = if accesses == 0 {
        0.0
    } else {
        (after.hits - before.hits) as f64 / accesses as f64
    };
    (f64::from(per_thread * threads as u32) / elapsed, hit_ratio)
}
