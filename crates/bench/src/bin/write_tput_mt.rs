//! Experiment E12 — concurrent writer throughput (MultiWriter).
//!
//! E10 showed *one* writer amortizing log syncs by batching its own
//! operations. E12 measures the cross-transaction version: N writer
//! threads, each running small independent transactions through cheap
//! clones of [`fame_dbms::DbWriter`], against the blocking S/X block-lock
//! table and the leader-based group-commit channel. A committing leader
//! drains every follower queued behind it — one `append_many` pass and
//! one protocol sync cover the whole batch, and under `Group { q }` a
//! drained batch counts as a *single* commit toward the quota. Syncs per
//! transaction should therefore *fall* as writers rise, instead of being
//! defeated by them.
//!
//! Two key regimes bracket the lock table:
//!
//! * disjoint — each writer owns a private key stripe; transactions never
//!   conflict, so the lock table adds pure overhead and the commit
//!   channel is the only shared path;
//! * contended — every writer draws its keys from one small universe in
//!   random order, so waits, FIFO hand-offs, and deadlock-victim aborts
//!   (retried by the harness) all occur.
//!
//! Deterministic accounting gates run on any host (a lone writer under
//! Force drains alone: exactly 1.0 syncs/txn). What depends on how the
//! scheduler interleaves the writers (syncs/txn falling with writers,
//! throughput ratios) is reported, not asserted.
//!
//! Usage: `cargo run --release -p fame-bench --bin write_tput_mt [--quick]`

use std::time::Instant;

use fame_bench::Table;
use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{BufferConfig, Concurrency, Database, DbWriter, DbmsConfig, TxnConfig};

const WRITERS: [usize; 4] = [1, 2, 4, 8];
const TOTAL_TXNS: u32 = 4_096;
const PUTS_PER_TXN: u32 = 4;
const GROUP_SIZE: u32 = 4;
const CONTENDED_KEYS: u32 = 64;
const VALUE_LEN: usize = 16;
const MAX_ATTEMPTS: u32 = 1_000;

#[derive(Clone, Copy, PartialEq)]
enum KeyMode {
    Disjoint,
    Contended,
}

impl KeyMode {
    fn label(self) -> &'static str {
        match self {
            KeyMode::Disjoint => "disjoint",
            KeyMode::Contended => "contended",
        }
    }
}

struct Run {
    mode: KeyMode,
    policy: &'static str,
    writers: usize,
    txns: u32,
    elapsed: f64,
    syncs: u64,
    retries: u64,
    waits: u64,
    deadlock_aborts: u64,
}

impl Run {
    fn txns_per_s(&self) -> f64 {
        f64::from(self.txns) / self.elapsed
    }
    fn syncs_per_txn(&self) -> f64 {
        self.syncs as f64 / f64::from(self.txns)
    }
}

fn policies() -> Vec<(&'static str, CommitPolicy)> {
    vec![
        ("commit-force", CommitPolicy::Force),
        (
            "commit-group",
            CommitPolicy::Group {
                group_size: GROUP_SIZE,
            },
        ),
    ]
}

fn open(policy: CommitPolicy, label: &str) -> (Database, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!("fame_e12_{label}_{}.db", std::process::id()));
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
    config.concurrency = Concurrency::MultiWriter { shards: 0 }; // 0 = default (8)
    config.transactions = Some(TxnConfig { commit: policy });
    (Database::open(config).expect("open"), path)
}

fn key(mode: KeyMode, writer: usize, txn: u32, k: u32, rng: &mut u64) -> [u8; 4] {
    match mode {
        KeyMode::Disjoint => ((writer as u32) << 24 | txn << 4 | k).to_be_bytes(),
        KeyMode::Contended => {
            // xorshift per thread: keys collide across writers in random
            // order, which is what manufactures lock waits and deadlocks.
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            ((*rng as u32) % CONTENDED_KEYS).to_be_bytes()
        }
    }
}

fn value(writer: usize, txn: u32, k: u32) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    v[..4].copy_from_slice(&((writer as u32) << 16 | txn).to_be_bytes());
    v[4..8].copy_from_slice(&k.to_be_bytes());
    v
}

/// One transaction: PUTS_PER_TXN puts, then a group-channel commit.
/// Lock failures (deadlock victim, timeout) abort and retry the whole
/// transaction — the standard client protocol for a blocking S/X lock
/// manager. Returns the number of aborted attempts.
fn run_txn(w: &DbWriter, mode: KeyMode, writer: usize, txn: u32, rng: &mut u64) -> u64 {
    let mut retries = 0u64;
    for _attempt in 0..MAX_ATTEMPTS {
        let handle = w.begin().expect("begin");
        let mut failed = false;
        for k in 0..PUTS_PER_TXN {
            let key = key(mode, writer, txn, k, rng);
            if let Err(e) = w.put(handle, &key, &value(writer, txn, k)) {
                // Deadlock victim or timeout: abort, count, retry.
                assert!(
                    mode == KeyMode::Contended,
                    "disjoint keys must never conflict: {e}"
                );
                w.abort(handle).expect("abort victim");
                retries += 1;
                failed = true;
                break;
            }
        }
        if failed {
            continue;
        }
        w.commit(handle).expect("commit");
        return retries;
    }
    panic!("transaction starved after {MAX_ATTEMPTS} attempts");
}

fn run(mode: KeyMode, policy_label: &'static str, policy: CommitPolicy, writers: usize) -> Run {
    let (mut db, path) = open(
        policy,
        &format!("{}_{policy_label}_{writers}", mode.label()),
    );
    let per_writer = TOTAL_TXNS / writers as u32;
    let txns = per_writer * writers as u32;
    let quick = std::env::args().any(|a| a == "--quick");
    let (per_writer, txns) = if quick {
        (per_writer / 8, txns / 8)
    } else {
        (per_writer, txns)
    };

    let writer0 = db.writer().expect("MultiWriter configured");
    let syncs0 = writer0.log_syncs();

    let start = Instant::now();
    let retries: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers)
            .map(|t| {
                let w = writer0.clone();
                s.spawn(move || {
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((t as u64 + 1) << 32);
                    let mut retries = 0u64;
                    for n in 0..per_writer {
                        retries += run_txn(&w, mode, t, n, &mut rng);
                    }
                    retries
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("writer")).sum()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let syncs = writer0.log_syncs() - syncs0;
    let (committed, _aborted) = writer0.txn_stats();
    assert!(committed >= u64::from(txns), "every transaction committed");
    drop(writer0);

    // Post-conditions on the facade: structure intact, every disjoint key
    // present exactly once.
    let report = db.verify_integrity().expect("verify_integrity");
    assert!(
        report.is_ok(),
        "integrity after {writers}-writer run: {report}"
    );
    if mode == KeyMode::Disjoint {
        let expected = (txns * PUTS_PER_TXN) as usize;
        assert_eq!(db.len().expect("len"), expected, "all disjoint keys landed");
    }
    let stats = db.stats().expect("stats");
    let (waits, deadlock_aborts) = match &stats.locks {
        Some(l) => (l.waits, l.deadlock_aborts),
        None => (0, 0),
    };

    drop(db);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("db.log"));

    Run {
        mode,
        policy: policy_label,
        writers,
        txns,
        elapsed,
        syncs,
        retries,
        waits,
        deadlock_aborts,
    }
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "E12 — concurrent writer transactions ({PUTS_PER_TXN} puts each) over \
         1/2/4/8 writer threads\n({cores} cores available)\n"
    );

    let mut table = Table::new([
        "mode",
        "policy",
        "writers",
        "txns",
        "txns/s",
        "syncs/txn",
        "retries",
        "lock waits",
    ]);
    let mut runs: Vec<Run> = Vec::new();

    for mode in [KeyMode::Disjoint, KeyMode::Contended] {
        for (policy_label, policy) in policies() {
            for &writers in &WRITERS {
                let r = run(mode, policy_label, policy, writers);
                println!(
                    "  {:9} {:12} {writers}W: {:>8.0} txns/s  {:.4} syncs/txn  \
                     {} retries  {} waits ({} deadlock aborts)",
                    r.mode.label(),
                    r.policy,
                    r.txns_per_s(),
                    r.syncs_per_txn(),
                    r.retries,
                    r.waits,
                    r.deadlock_aborts,
                );
                table.row([
                    r.mode.label().to_string(),
                    r.policy.to_string(),
                    r.writers.to_string(),
                    r.txns.to_string(),
                    format!("{:.0}", r.txns_per_s()),
                    format!("{:.4}", r.syncs_per_txn()),
                    r.retries.to_string(),
                    r.waits.to_string(),
                ]);
                runs.push(r);
            }
        }
    }

    println!("\n{}", table.render());

    let dir = std::path::Path::new("bench-results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join("write_tput_mt.tsv"), table.to_tsv());
    println!("results written to bench-results/write_tput_mt.tsv");

    let find = |mode: KeyMode, policy: &str, writers: usize| {
        runs.iter()
            .find(|r| r.mode == mode && r.policy == policy && r.writers == writers)
            .expect("run present")
    };

    // Deterministic accounting gates — hold on any host, any core count.
    // A lone writer under Force drains every commit alone: one sync each.
    let force_1w = find(KeyMode::Disjoint, "commit-force", 1);
    assert!(
        (force_1w.syncs_per_txn() - 1.0).abs() < 1e-9,
        "1-writer Force must sync exactly once per txn (got {:.4})",
        force_1w.syncs_per_txn()
    );
    // A lone writer under Group{q} syncs every q-th drain.
    let group_1w = find(KeyMode::Disjoint, "commit-group", 1);
    assert!(
        group_1w.syncs_per_txn() <= 1.0 / f64::from(GROUP_SIZE) + 0.01,
        "1-writer Group{{{GROUP_SIZE}}} must sync at most every {GROUP_SIZE}th txn (got {:.4})",
        group_1w.syncs_per_txn()
    );
    // Disjoint stripes never conflict: no retries, no deadlock aborts.
    for r in runs.iter().filter(|r| r.mode == KeyMode::Disjoint) {
        assert_eq!(r.retries, 0, "disjoint keys produced lock retries");
        assert_eq!(r.deadlock_aborts, 0, "disjoint keys produced deadlocks");
    }
    // Contended retries stay bounded: deadlock detection aborts one victim
    // per cycle, it does not livelock the workload.
    for r in runs.iter().filter(|r| r.mode == KeyMode::Contended) {
        assert!(
            r.retries <= u64::from(r.txns) * 2,
            "{}W contended: {} retries for {} txns — lock manager is thrashing",
            r.writers,
            r.retries,
            r.txns
        );
    }
    println!("\naccounting gates passed (Force\u{a0}1W = 1.0 syncs/txn, Group\u{a0}1W <= 1/{GROUP_SIZE})");
}
