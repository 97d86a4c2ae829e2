//! Experiment E10: batched write throughput.
//!
//! The batched write path (feature `Batch`, Fig. 2: Access → API) buys its
//! speed in three places: one `WriteBatch` is one transaction (one commit
//! record, one durability sync instead of one per record), its log records
//! are encoded into a single frame run (`TxnManager::log_batch`) copied
//! into the log tail in one pass, and the sorted run lets the B+-tree
//! reuse the descent path across adjacent keys.
//!
//! This harness sweeps batch size × index × commit policy and reports
//! ops/s and log syncs per op. The headline cell: under ForceCommit on the
//! B+-tree, batch=512 must beat batch=1 by ≥ 3× on ops/s — and, by
//! construction, by ~512× on syncs/op.
//!
//! Usage: `cargo run --release -p fame-bench --bin write_tput`
//! (`--quick` shrinks the op counts for CI gates; the assertions hold in
//! both modes).

use std::time::Instant;

use fame_bench::{Table, Workload};
use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{BufferConfig, Database, DbmsConfig, IndexKind, TxnConfig, WriteBatch};

const BATCH_SIZES: [u32; 4] = [1, 8, 64, 512];
const VALUE_LEN: usize = 16;
const GROUP_SIZE: u32 = 4;

#[derive(Clone, Copy)]
struct Cell {
    index: &'static str,
    policy: &'static str,
    batch: u32,
    ops: u32,
    elapsed: f64,
    syncs: u64,
}

impl Cell {
    fn ops_per_s(&self) -> f64 {
        f64::from(self.ops) / self.elapsed
    }
    fn syncs_per_op(&self) -> f64 {
        self.syncs as f64 / f64::from(self.ops)
    }
}

fn index_kinds() -> Vec<(&'static str, IndexKind, u32)> {
    // (label, kind, total ops). The list index inserts by linear scan, so
    // it gets a smaller key universe — the batch-size *ratio* is what the
    // experiment measures, not cross-index absolutes.
    vec![
        ("btree", IndexKind::BTree, 8_192),
        ("list", IndexKind::List, 1_024),
        ("hash", IndexKind::Hash { buckets: 64 }, 8_192),
    ]
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

/// One cell: load `ops` fresh keys in batches of `batch` through
/// `apply_batch` against a fresh file-backed product. The file backend is
/// deliberate: a durability sync there is a real fsync, so the cost the
/// coalesced commit removes is visible (the RAM device would hide it).
fn run_cell(
    label: &'static str,
    kind: IndexKind,
    policy_label: &'static str,
    policy: CommitPolicy,
    batch: u32,
    ops: u32,
) -> Cell {
    let path = std::env::temp_dir().join(format!(
        "fame_e10_{label}_{policy_label}_{batch}_{}.db",
        std::process::id()
    ));
    let log_path = path.with_extension("db.log");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&log_path);

    let mut config = DbmsConfig::on_file(&path);
    config.page_size = 512;
    config.index = kind;
    config.buffer = Some(BufferConfig {
        frames: 256,
        replacement: fame_dbms::fame_buffer::ReplacementKind::Lru,
        static_alloc: false,
    });
    config.transactions = Some(TxnConfig { commit: policy });

    let mut db = Database::open(config).expect("open");
    let w = Workload::new(ops, VALUE_LEN, 0xE10);
    let syncs0 = db.log_syncs().expect("transactions configured");

    let start = Instant::now();
    let mut i = 0u32;
    while i < ops {
        let mut b = WriteBatch::new();
        for _ in 0..batch.min(ops - i) {
            b.put(&w.key(i), &w.value(i));
            i += 1;
        }
        db.apply_batch(b).expect("apply_batch");
    }
    let elapsed = start.elapsed().as_secs_f64();
    // Make buffered group commits durable outside the timed region so
    // every cell ends at the same durability point.
    db.sync().expect("final sync");
    assert_eq!(db.len().expect("len"), ops as usize, "every key landed");
    let syncs = db.log_syncs().expect("transactions configured") - syncs0;
    drop(db);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&log_path);

    Cell {
        index: label,
        policy: policy_label,
        batch,
        ops,
        elapsed,
        syncs,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    println!("E10 — batched write throughput (batch size x index x commit policy)\n");

    let mut table = Table::new([
        "index", "policy", "batch", "ops", "ops/s", "syncs", "syncs/op",
    ]);
    let mut cells: Vec<Cell> = Vec::new();

    for (label, kind, total) in index_kinds() {
        let total = if quick { total / 4 } else { total };
        for (policy_label, policy) in policies() {
            for batch in BATCH_SIZES {
                let cell = run_cell(label, kind.clone(), policy_label, policy, batch, total);
                println!(
                    "  {:5} {:12} batch={:<4} {:>9.0} ops/s  {:.4} syncs/op",
                    cell.index,
                    cell.policy,
                    cell.batch,
                    cell.ops_per_s(),
                    cell.syncs_per_op()
                );
                table.row([
                    cell.index.to_string(),
                    cell.policy.to_string(),
                    cell.batch.to_string(),
                    cell.ops.to_string(),
                    format!("{:.0}", cell.ops_per_s()),
                    cell.syncs.to_string(),
                    format!("{:.4}", cell.syncs_per_op()),
                ]);
                cells.push(cell);
            }
        }
    }

    println!("\n{}", table.render());

    let dir = std::path::Path::new("bench-results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join("write_tput.tsv"), table.to_tsv());
    println!("results written to bench-results/write_tput.tsv");

    // Gates. The headline: batching must pay on the B+-tree under Force.
    let find = |index: &str, policy: &str, batch: u32| {
        *cells
            .iter()
            .find(|c| c.index == index && c.policy == policy && c.batch == batch)
            .expect("cell present")
    };
    let single = find("btree", "commit-force", 1);
    let batched = find("btree", "commit-force", 512);
    let speedup = batched.ops_per_s() / single.ops_per_s();
    println!(
        "\ngate: btree/commit-force batch=512 vs batch=1 — {speedup:.1}x ops/s, \
         {:.4} vs {:.4} syncs/op",
        batched.syncs_per_op(),
        single.syncs_per_op()
    );
    assert!(
        speedup >= 3.0,
        "batch=512 must be >= 3x batch=1 under commit-force on btree (got {speedup:.2}x)"
    );
    assert!(
        batched.syncs_per_op() < single.syncs_per_op(),
        "batching must reduce log syncs per op"
    );
    // Every index x policy: syncs/op must fall monotonically with batch
    // size (the coalesced commit is what the feature sells).
    for (label, _, _) in index_kinds() {
        for (policy_label, _) in policies() {
            let per_op: Vec<f64> = BATCH_SIZES
                .iter()
                .map(|&b| find(label, policy_label, b).syncs_per_op())
                .collect();
            assert!(
                per_op.windows(2).all(|w| w[1] <= w[0]),
                "{label}/{policy_label}: syncs/op not monotone over batch sizes: {per_op:?}"
            );
        }
    }
    println!("all gates passed");
}
