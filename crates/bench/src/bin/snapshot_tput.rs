//! Experiment E14 — snapshot reader throughput under writer contention
//! (MultiWriter → Snapshot).
//!
//! E12 established the pessimistic baseline: at 8 writers over a 64-key
//! universe the contended mix devolves into lock waits and deadlock-victim
//! aborts, and any reader touching a write-hot page rides the same S/X
//! queue. E14 reruns that contended mix with N *snapshot* readers on top:
//! each reader pins a commit timestamp, resolves pages through the pool's
//! copy-on-write version chains, and re-pins (`DbSnapshot::refresh`)
//! between scans. The MVCC-lite claim under test: snapshot reads are
//! wait-free — they never enter the lock table, never write a shared
//! cache line, and their throughput does not degrade as writers are added.
//!
//! Deterministic gates run on any host:
//!
//! * a reader-only phase moves the lock-table counters by exactly zero
//!   (waits, deadlock aborts, timeout aborts) — snapshots are invisible
//!   to the lock manager;
//! * the version-chain high-water stays ≤ the configured cap and pruning
//!   reclaims versions (`pruned > 0` once readers lag writers);
//! * after every handle drops, zero snapshots and zero chain entries
//!   remain registered — no version-memory leak.
//!
//! What depends on how the scheduler interleaves the threads — reader
//! throughput as writers are added, the mixed run's deadlock aborts
//! against the writer-only baseline — is reported, not asserted.
//!
//! Usage: `cargo run --release -p fame-bench --features snapshot --bin snapshot_tput [--quick]`

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use fame_bench::Table;
use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{BufferConfig, Concurrency, Database, DbWriter, DbmsConfig, TxnConfig};

const WRITERS: [usize; 4] = [1, 2, 4, 8];
const READERS: usize = 2;
const TOTAL_TXNS: u32 = 2_048;
const PUTS_PER_TXN: u32 = 4;
const GROUP_SIZE: u32 = 4;
const CONTENDED_KEYS: u32 = 64;
const VALUE_LEN: usize = 16;
const READER_ONLY_GETS: u64 = 20_000;
const GETS_PER_SNAPSHOT: u64 = 32;

struct Run {
    writers: usize,
    txns: u32,
    elapsed: f64,
    reader_gets: u64,
    reader_hits: u64,
    strandings: u64,
    deadlock_aborts: u64,
    chain_max: u64,
}

impl Run {
    fn txns_per_s(&self) -> f64 {
        f64::from(self.txns) / self.elapsed
    }
    fn gets_per_s(&self) -> f64 {
        self.reader_gets as f64 / self.elapsed
    }
}

fn open(label: &str) -> (Database, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!("fame_e14_{label}_{}.db", std::process::id()));
    let log_path = path.with_extension("db.log");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&log_path);

    let mut config = DbmsConfig::on_file(&path);
    config.page_size = 512;
    config.buffer = Some(BufferConfig {
        frames: 512,
        replacement: fame_dbms::fame_buffer::ReplacementKind::Lru,
        static_alloc: false,
    });
    config.concurrency = Concurrency::MultiWriter { shards: 0 };
    config.transactions = Some(TxnConfig {
        commit: CommitPolicy::Group {
            group_size: GROUP_SIZE,
        },
    });
    (Database::open(config).expect("open"), path)
}

fn contended_key(rng: &mut u64) -> [u8; 4] {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    ((*rng as u32) % CONTENDED_KEYS).to_be_bytes()
}

fn value(writer: usize, txn: u32) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    v[..4].copy_from_slice(&((writer as u32) << 16 | txn).to_be_bytes());
    v
}

/// Seed the whole contended universe so every reader get is a hit.
fn seed(w: &DbWriter) {
    for k in 0..CONTENDED_KEYS {
        let txn = w.begin().expect("begin");
        w.commit_with_retry(txn, 1_000, |w, txn| {
            w.put(txn, &k.to_be_bytes(), &[0u8; VALUE_LEN])
        })
        .expect("seed");
    }
}

/// One snapshot reader: re-pin, scan a stride of the key universe, count
/// hits. A straggler stranded by the chain cap ("too old") re-pins and
/// carries on — that is the documented client protocol, and the count is
/// reported so the cap's cost is visible.
fn reader_loop(
    mut snap: fame_dbms::DbSnapshot,
    stop: &AtomicBool,
    budget: Option<u64>,
) -> (u64, u64, u64) {
    let (mut gets, mut hits, mut strandings) = (0u64, 0u64, 0u64);
    let mut k = 0u32;
    'outer: while !stop.load(Ordering::Relaxed) {
        snap.refresh();
        for _ in 0..GETS_PER_SNAPSHOT {
            match snap.get_with(&(k % CONTENDED_KEYS).to_be_bytes(), |_| ()) {
                Ok(found) => {
                    gets += 1;
                    hits += u64::from(found.is_some());
                }
                Err(e) => {
                    assert!(
                        e.to_string().contains("too old"),
                        "snapshot read failed for a reason other than pruning: {e}"
                    );
                    strandings += 1;
                    continue 'outer; // re-pin and carry on
                }
            }
            k = k.wrapping_add(1);
            if let Some(b) = budget {
                if gets >= b {
                    break 'outer;
                }
            }
        }
    }
    (gets, hits, strandings)
}

/// The E12 contended writer loop, now through `commit_with_retry`.
fn writer_loop(w: &DbWriter, writer: usize, txns: u32) {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((writer as u64 + 1) << 32);
    for n in 0..txns {
        let txn = w.begin().expect("begin");
        w.commit_with_retry(txn, 1_000, |w, txn| {
            for _ in 0..PUTS_PER_TXN {
                w.put(txn, &contended_key(&mut rng), &value(writer, n))?;
            }
            Ok(())
        })
        .expect("transaction starved");
    }
}

/// One mixed cell: `writers` contended writer threads racing `readers`
/// snapshot readers until the writers drain their quota.
fn run_mixed(writers: usize, readers: usize, quick: bool) -> Run {
    let (mut db, path) = open(&format!("mixed_{writers}w_{readers}r"));
    let per_writer = TOTAL_TXNS / writers as u32 / if quick { 8 } else { 1 };
    let txns = per_writer * writers as u32;
    let writer0 = db.writer().expect("MultiWriter configured");
    seed(&writer0);
    let deadlocks0 = lock_aborts(&mut db).0;

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (reader_gets, reader_hits, strandings) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..readers)
            .map(|_| {
                let snap = db.snapshot().expect("snapshot");
                let stop = &stop;
                s.spawn(move || reader_loop(snap, stop, None))
            })
            .collect();
        let writers: Vec<_> = (0..writers)
            .map(|t| {
                let w = writer0.clone();
                s.spawn(move || writer_loop(&w, t, per_writer))
            })
            .collect();
        for h in writers {
            h.join().expect("writer");
        }
        stop.store(true, Ordering::Relaxed);
        readers
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2))
    });
    let elapsed = start.elapsed().as_secs_f64();
    drop(writer0);

    let report = db.verify_integrity().expect("verify_integrity");
    assert!(report.is_ok(), "integrity after {writers}W mixed: {report}");
    // Pruning is lazy (installs touch their own pages; deregistration
    // sweeps everything): force one sweep so the drain assert below is
    // about reclamation, not about which page a batch happened to touch.
    drop(db.snapshot().expect("sweep snapshot"));
    let stats = db.stats().expect("stats");
    let v = stats.versions.as_ref().expect("snapshot stats");
    assert_eq!(v.active, 0, "snapshot handles leaked a registration");
    assert_eq!(
        v.live_entries, 0,
        "chain entries survived the last snapshot"
    );
    let chain_max = v.chain_max;
    let deadlock_aborts = lock_aborts(&mut db).0 - deadlocks0;

    drop(db);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("db.log"));

    Run {
        writers,
        txns,
        elapsed,
        reader_gets,
        reader_hits,
        strandings,
        deadlock_aborts,
        chain_max,
    }
}

fn lock_aborts(db: &mut Database) -> (u64, u64, u64) {
    match db.stats().expect("stats").locks {
        Some(l) => (l.deadlock_aborts, l.timeout_aborts, l.waits),
        None => (0, 0, 0),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "E14 — snapshot reader throughput vs writer contention \
         ({READERS} readers over the E12 contended mix)\n\
         ({cores} cores available)\n"
    );

    // Phase 1 — reader-only: snapshots against a quiescent database must
    // leave every lock-table counter untouched. Deterministic on any host.
    let (mut db, path) = open("reader_only");
    let w = db.writer().expect("writer");
    seed(&w);
    let (d0, t0, w0) = lock_aborts(&mut db);
    let budget = READER_ONLY_GETS / if quick { 8 } else { 1 };
    let start = Instant::now();
    let baseline: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        (0..READERS)
            .map(|_| {
                let snap = db.snapshot().expect("snapshot");
                s.spawn(move || reader_loop(snap, &AtomicBool::new(false), Some(budget)))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .collect()
    });
    let baseline_elapsed = start.elapsed().as_secs_f64();
    let baseline_gets: u64 = baseline.iter().map(|r| r.0).sum();
    let baseline_hits: u64 = baseline.iter().map(|r| r.1).sum();
    let (d1, t1, w1) = lock_aborts(&mut db);
    assert_eq!(
        (d1 - d0, t1 - t0, w1 - w0),
        (0, 0, 0),
        "snapshot readers moved lock-table counters"
    );
    assert_eq!(
        baseline_hits, baseline_gets,
        "seeded universe: every snapshot get must hit"
    );
    let baseline_tput = baseline_gets as f64 / baseline_elapsed;
    drop(w);
    drop(db);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("db.log"));
    println!("  reader-only  {READERS}R: {baseline_tput:>9.0} gets/s  0 lock waits (gate)\n");

    // Phase 2 — writer-only baseline for the deadlock comparison.
    let writer_only = run_mixed(*WRITERS.last().unwrap(), 0, quick);
    println!(
        "  writer-only  {}W: {:>8.0} txns/s  {} deadlock aborts",
        writer_only.writers,
        writer_only.txns_per_s(),
        writer_only.deadlock_aborts,
    );

    // Phase 3 — the mixed cells.
    let mut table = Table::new([
        "writers",
        "readers",
        "txns/s",
        "reader gets/s",
        "strandings",
        "deadlock aborts",
        "chain max",
    ]);
    let mut runs: Vec<Run> = Vec::new();
    for &writers in &WRITERS {
        let r = run_mixed(writers, READERS, quick);
        println!(
            "  mixed  {writers}W+{READERS}R: {:>8.0} txns/s  {:>9.0} reader gets/s  \
             {} strandings  {} deadlock aborts  chain max {}",
            r.txns_per_s(),
            r.gets_per_s(),
            r.strandings,
            r.deadlock_aborts,
            r.chain_max,
        );
        table.row([
            r.writers.to_string(),
            READERS.to_string(),
            format!("{:.0}", r.txns_per_s()),
            format!("{:.0}", r.gets_per_s()),
            r.strandings.to_string(),
            r.deadlock_aborts.to_string(),
            r.chain_max.to_string(),
        ]);
        runs.push(r);
    }

    println!("\n{}", table.render());
    let dir = std::path::Path::new("bench-results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join("snapshot_tput.tsv"), table.to_tsv());
    println!("results written to bench-results/snapshot_tput.tsv");

    // Deterministic gates — any host. The chain cap bound and registry
    // drain are asserted inside run_mixed; reader hits mean the versioned
    // descent found every seeded key through the churn.
    let cap = DbmsConfig::default_for_build().snapshot_chain_cap as u64;
    for r in &runs {
        assert!(
            r.chain_max <= cap,
            "{}W: chain high-water {} exceeded cap {cap}",
            r.writers,
            r.chain_max
        );
        assert_eq!(
            r.reader_hits, r.reader_gets,
            "{}W: snapshot reads missed seeded keys",
            r.writers
        );
    }
    println!("\ndeterministic gates passed (0 reader lock waits, chain max <= {cap}, registries drained)");
}
