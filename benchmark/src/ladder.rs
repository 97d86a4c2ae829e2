//! The per-layer cost model, measured from outside the engine.
//!
//! Three sources, none of them a probe inside a crate:
//!
//! * **in situ** — engine counters read through public accessors
//!   (`pool_stats()`, `stats()`, …) and the [`crate::trace`] device
//!   wrappers, as deltas over the traced rounds;
//! * **stack ladder** — the workload's key stream replayed against
//!   progressively taller stacks built from public constructors
//!   (device → pool → pager → B-tree → facade; log writer → transaction
//!   manager → facade transaction). A rung's number is the mean cost of
//!   one call at that height; a `*.self_ns` metric is the difference
//!   between two adjacent rungs — the paper's own compose-a-layer-out
//!   method;
//! * **probes** — the other product's binary, started as a child for the
//!   two cross-product ratios.

use std::hint::black_box;
use std::time::Instant;

use fame_dbms::fame_buffer::{BufferPool, PoolStats, ReplacementKind};
use fame_dbms::fame_storage::{BTree, PageRead, PageToken, Pager};
use fame_dbms::Database;
use fame_os::{AllocPolicy, BlockDevice, InMemoryDevice, PageId};

use crate::gen::{check_value, key, value, Rng, RECORD_BYTES};
use crate::measure::ns_per_call;
use crate::metrics::Sheet;
use crate::trace::{self, DevSnapshot, Span};
use crate::workloads::{get, PAGE_SIZE};
use crate::Params;

/// Calls per ladder pass (three passes per rung, median taken).
const RUNG_CALLS: u64 = 1 << 17;

// ---- in situ ---------------------------------------------------------------

pub fn pool_in_situ(sheet: &mut Sheet, before: &PoolStats, after: &PoolStats) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    sheet.set(
        "buffer.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    sheet.set(
        "buffer.evictions",
        (after.evictions - before.evictions) as f64,
    );
    sheet.set(
        "buffer.writebacks",
        (after.writebacks - before.writebacks) as f64,
    );
    sheet.set(
        "buffer.latch_waits",
        (after.latch_waits - before.latch_waits) as f64,
    );
}

/// `which` is "data" or "log".
pub fn device_in_situ(sheet: &mut Sheet, which: &str, d: &DevSnapshot) {
    if which == "data" {
        sheet.set("os.data.reads", d.reads as f64);
        sheet.set("os.data.writes", d.writes as f64);
        sheet.set("os.data.syncs", d.syncs as f64);
        sheet.set("os.data.busy_ns", d.busy_ns as f64);
    } else {
        sheet.set("os.log.writes", d.writes as f64);
        sheet.set("os.log.syncs", d.syncs as f64);
        sheet.set("os.log.bytes", (d.writes * PAGE_SIZE as u64) as f64);
        sheet.set("os.log.busy_ns", d.busy_ns as f64);
    }
}

/// Mean duration and self time of the workload's primary op spans.
pub fn op_in_situ(sheet: &mut Sheet, spans: &[Span], name: &str) -> f64 {
    let (total, own, _) = trace::op_times(spans, name);
    sheet.set("trace.op_ns", total);
    sheet.set("trace.op_self_ns", own);
    own
}

// ---- the read ladder: device → pool → pager → B-tree → facade -----------------

/// A `PageRead` that counts page visits on the way through. Tokens pass
/// through untouched, so an optimistic descent behaves as it would on the
/// wrapped pager.
struct Counting<'a, P: PageRead> {
    inner: &'a mut P,
    visits: u64,
    /// Visits of page 0, where every optimistic descent (re)starts.
    #[cfg_attr(not(feature = "product-full"), allow(dead_code))]
    meta_visits: u64,
}

impl<P: PageRead> PageRead for Counting<'_, P> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn with_page<R>(
        &mut self,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> fame_dbms::fame_storage::Result<R> {
        self.visits += 1;
        self.inner.with_page(page, f)
    }

    fn with_page_token<R>(
        &mut self,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> fame_dbms::fame_storage::Result<(R, PageToken)> {
        self.visits += 1;
        self.meta_visits += u64::from(page == 0);
        self.inner.with_page_token(page, f)
    }

    fn validate_token(&mut self, token: PageToken) -> bool {
        self.inner.validate_token(token)
    }
}

fn lru_pool(device: InMemoryDevice, frames: usize) -> BufferPool {
    BufferPool::new(
        Box::new(device),
        ReplacementKind::Lru,
        AllocPolicy::Dynamic {
            max_frames: Some(frames),
        },
    )
}

fn blank_device(pages: u32) -> InMemoryDevice {
    let mut d = InMemoryDevice::new(PAGE_SIZE);
    d.ensure_pages(pages).expect("grow in-memory device");
    d
}

/// The keys of round 0, as the workload draws them.
fn key_stream(p: &Params, records: u32) -> Vec<u32> {
    let mut rng = Rng::fork(p.seed, get::LANE_ROUND);
    (0..RUNG_CALLS).map(|_| rng.below(records)).collect()
}

/// Mean ns of one checked `Database::get_with` over `keys`.
fn facade_get_ns(db: &mut Database, keys: &[u32]) -> f64 {
    ns_per_call(RUNG_CALLS, |i| {
        black_box(get::checked_get(db, keys[i as usize]));
    })
}

/// The rungs under a point read. `frames` is the workload's pool size, so
/// `get-cold` climbs the same ladder over its miss path. Returns the
/// facade rung (ns per `Database::get_with`).
pub fn get_rungs(
    sheet: &mut Sheet,
    p: &Params,
    db: &mut Database,
    records: u32,
    frames: usize,
    facade_put_ns: f64,
) -> f64 {
    let order = get::load_order(p.seed, records);
    let keys = key_stream(p, records);
    let hot = frames >= get::HOT_FRAMES;

    // Own stack, loaded in the workload's order: the same tree image.
    let mut pager = Pager::open(lru_pool(InMemoryDevice::new(PAGE_SIZE), frames)).expect("pager");
    let mut tree = BTree::create(&mut pager, 0).expect("btree");
    let t = Instant::now();
    for &k in &order {
        tree.insert(&mut pager, &key(k), &value(k, 0))
            .expect("ladder insert");
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / f64::from(records);
    sheet.set("storage.btree.insert_ns", insert_ns);
    sheet.set("core.put.self_ns", facade_put_ns - insert_ns);
    let pages = pager.allocated_pages().expect("allocated pages");
    sheet.set(
        "storage.page_fill",
        (u64::from(records) * RECORD_BYTES) as f64 / (u64::from(pages) * PAGE_SIZE as u64) as f64,
    );

    // B-tree rung, and the facade rung above it.
    let btree_ns = ns_per_call(RUNG_CALLS, |i| {
        let k = keys[i as usize];
        black_box(
            tree.get_with(&mut pager, &key(k), |v| check_value(k, v) == Some(0))
                .expect("ladder get"),
        );
    });
    let facade_ns = facade_get_ns(db, &keys);
    sheet.set("storage.btree.get_ns", btree_ns);
    sheet.set("core.get.self_ns", facade_ns - btree_ns);

    // Pages a descent visits: exact for a given seed.
    let mut counting = Counting {
        inner: &mut pager,
        visits: 0,
        meta_visits: 0,
    };
    tree.get_with(&mut counting, &key(keys[0]), |_| ())
        .expect("ladder get");
    sheet.set("storage.btree.height", counting.visits as f64);
    for &k in &keys {
        tree.get_with(&mut counting, &key(k), |_| ())
            .expect("ladder get");
    }
    sheet.set(
        "storage.btree.pages_per_get",
        (counting.visits - sheet.get("storage.btree.height") as u64) as f64 / RUNG_CALLS as f64,
    );

    // Pager, pool, pass-through pool and raw device rungs, one page each,
    // uniform over the image (page 0 is the pager's meta page).
    let page_of = |i: u64| 1 + keys[i as usize] % (pages - 1);
    sheet.set(
        "storage.pager.with_page_ns",
        ns_per_call(RUNG_CALLS, |i| {
            black_box(pager.with_page(page_of(i), |b| b[0]).expect("page"));
        }),
    );
    let pool = pager.pool_mut();
    // A resident set the pool surely holds: every access a hit.
    let hit_ns = ns_per_call(RUNG_CALLS, |i| {
        black_box(pool.with_page(1 + (i % 64) as u32, |b| b[0]).expect("page"));
    });
    sheet.set("buffer.hit_ns", hit_ns);
    if !hot {
        let before = pool.stats();
        let t = Instant::now();
        for i in 0..RUNG_CALLS {
            black_box(pool.with_page(page_of(i), |b| b[0]).expect("page"));
        }
        let total_ns = t.elapsed().as_nanos() as f64;
        let after = pool.stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        sheet.set(
            "buffer.miss_ns",
            (total_ns - hits as f64 * hit_ns) / misses.max(1) as f64,
        );
    }
    let mut unbuffered = BufferPool::unbuffered(Box::new(blank_device(pages)));
    sheet.set(
        "buffer.unbuffered_ns",
        ns_per_call(RUNG_CALLS, |i| {
            black_box(unbuffered.with_page(page_of(i), |b| b[0]).expect("page"));
        }),
    );
    let mut device = blank_device(pages);
    let mut buf = vec![0u8; PAGE_SIZE];
    sheet.set(
        "os.mem.read_page_ns",
        ns_per_call(RUNG_CALLS, |i| {
            device.read_page(page_of(i), &mut buf).expect("page");
            black_box(buf[0]);
        }),
    );

    if hot {
        // The batched write path: the same records as sorted runs of 512.
        let mut pager =
            Pager::open(lru_pool(InMemoryDevice::new(PAGE_SIZE), frames)).expect("pager");
        let mut tree = BTree::create(&mut pager, 0).expect("btree");
        let mut apply_ns = 0u128;
        for chunk in order.chunks(512) {
            let ops = chunk
                .iter()
                .map(|&k| (key(k).to_vec(), Some(value(k, 0).to_vec())))
                .collect();
            let t = Instant::now();
            tree.apply_sorted(&mut pager, ops).expect("apply_sorted");
            apply_ns += t.elapsed().as_nanos();
        }
        sheet.set(
            "storage.btree.apply_sorted_ns_per_op",
            apply_ns as f64 / f64::from(records),
        );
    }
    facade_ns
}

// ---- probes: the other product, as a child process -----------------------------

/// Start the full product's binary with `--probe <name>` and parse its
/// `key=value` lines. `None` when run.sh did not name the binary.
fn probe_full(p: &Params, name: &str) -> Option<Vec<(String, f64)>> {
    let bin = std::env::var_os("FAME_BENCH_FULL_BIN")?;
    let out = std::process::Command::new(bin)
        .args(["--probe", name, "--seed", &p.seed.to_string()])
        .args(["--seconds", &p.seconds.to_string()])
        .env("FAME_BENCH_OUT", &p.out_dir)
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!("fame-benchmark: probe {name} failed: {}", out.status);
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| l.split_once('='))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect(),
    )
}

/// `core.full_vs_min.get_ratio`: the get-hot loop on the full product over
/// the same loop on this (min) product — the tailoring tax of Fig. 1b.
pub fn full_vs_min(sheet: &mut Sheet, p: &Params, min_get_ns: f64) {
    let Some(lines) = probe_full(p, "get-hot") else {
        return;
    };
    if let Some((_, full_get_ns)) = lines.iter().find(|(k, _)| k == "facade_get_ns") {
        sheet.set("core.full_vs_min.get_ratio", full_get_ns / min_get_ns);
    }
}

/// The crypto lines: page cipher cost and the cold-get ratio with a key
/// set over without, both measured on the full product.
pub fn crypto_probe(sheet: &mut Sheet, p: &Params) {
    let Some(lines) = probe_full(p, "crypto-cold") else {
        return;
    };
    for name in [
        "crypto.encrypt_page_ns",
        "crypto.decrypt_page_ns",
        "crypto.get_cold_ratio",
    ] {
        if let Some((_, v)) = lines.iter().find(|(k, _)| k == name) {
            sheet.set(name, *v);
        }
    }
}

/// `--probe <name>`: what [`probe_full`] starts. Prints `key=value` lines.
pub fn run_probe(name: &str, p: &Params) -> i32 {
    match name {
        "get-hot" => {
            let mut w =
                get::Get::<true>::open_and_load(p, get::RECORDS, get::config(get::HOT_FRAMES));
            println!(
                "facade_get_ns={}",
                facade_get_ns(&mut w.db, &key_stream(p, get::RECORDS))
            );
            0
        }
        #[cfg(feature = "product-full")]
        "crypto-cold" => {
            crypto_cold(p);
            0
        }
        other => {
            eprintln!("fame-benchmark: probe {other:?} is not in this product");
            2
        }
    }
}

// ---- full-product rungs ---------------------------------------------------------

#[cfg(feature = "product-full")]
mod full_rungs {
    use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
    use std::time::Duration;

    use fame_dbms::fame_query::{optimizer, sql};
    use fame_dbms::fame_storage::{DataType, Schema};
    use fame_dbms::fame_txn::{
        recover_records, CommitPolicy, LockMode, LockTable, LogReader, LogRecord, LogWriter,
        RecoveryTarget, TxnManager,
    };
    use fame_os::FileDevice;

    use super::*;
    use crate::gen::Zipf;
    use crate::workloads::{commit_durable, crash_recover, sql_scan};

    /// The rungs under a shared-pool read: seqlock pool → shared pager →
    /// optimistic descent → `DbReader` / `DbSnapshot`, all quiescent, then
    /// the optimistic descent once more beside a writer that splits
    /// leaves, to count its restarts.
    pub fn shared_read_rungs(
        sheet: &mut Sheet,
        p: &Params,
        db: &mut Database,
        records: u32,
        zipf: &Zipf,
    ) {
        let mut rng = Rng::fork(p.seed, get::LANE_ROUND);
        let keys: Vec<u32> = (0..RUNG_CALLS).map(|_| zipf.draw(&mut rng)).collect();
        let any_version = |k: u32, v: &[u8]| check_value(k, v).is_some();

        let mut snap = db.snapshot().expect("snapshot");
        sheet.set(
            "core.snapshot.get_ns",
            ns_per_call(RUNG_CALLS, |i| {
                let k = keys[i as usize];
                black_box(snap.get_with(&key(k), |v| any_version(k, v)).expect("get"));
            }),
        );
        sheet.set(
            "core.snapshot.refresh_ns",
            ns_per_call(RUNG_CALLS / 16, |_| snap.refresh()),
        );
        drop(snap);
        let mut reader = db.reader().expect("reader");
        sheet.set(
            "core.reader.get_ns",
            ns_per_call(RUNG_CALLS, |i| {
                let k = keys[i as usize];
                black_box(
                    reader
                        .get_with(&key(k), |v| any_version(k, v))
                        .expect("get"),
                );
            }),
        );

        // Own stack over the shared pool, loaded like the workload's.
        let shared_pool = |frames: usize, device: InMemoryDevice| {
            BufferPool::new_shared(
                Box::new(device),
                ReplacementKind::Lru,
                AllocPolicy::Dynamic {
                    max_frames: Some(frames),
                },
                fame_dbms::fame_buffer::DEFAULT_SHARDS,
            )
        };
        let frames = crate::workloads::read_beside_write::FRAMES;
        let mut pager =
            Pager::open(shared_pool(frames, InMemoryDevice::new(PAGE_SIZE))).expect("pager");
        let mut tree = BTree::create(&mut pager, 0).expect("btree");
        for &k in &get::load_order(p.seed, records) {
            tree.insert(&mut pager, &key(k), &value(k, 0))
                .expect("ladder insert");
        }
        let pages = pager.allocated_pages().expect("allocated pages");
        let mut view = pager.shared().expect("shared pager");
        sheet.set(
            "storage.btree.get_olc_ns",
            ns_per_call(RUNG_CALLS, |i| {
                let k = keys[i as usize];
                black_box(
                    BTree::get_olc(&mut view, 0, &key(k), |v| any_version(k, v)).expect("get"),
                );
            }),
        );
        let pool = pager.pool().shared_handle().expect("shared pool");
        let hit_ns = ns_per_call(RUNG_CALLS, |i| {
            black_box(pool.with_page(1 + (i % 64) as u32, |b| b[0]).expect("page"));
        });
        sheet.set("buffer.shared.hit_ns", hit_ns);

        // Miss path: a pool a sixteenth of the image, uniform pages.
        let small = shared_pool(pages as usize / 16, blank_device(pages));
        let small = small.shared_handle().expect("shared pool");
        let mut uniform = Rng::fork(p.seed, 7);
        let before = small.stats();
        let t = Instant::now();
        for _ in 0..RUNG_CALLS {
            let page = uniform.below(pages);
            black_box(small.with_page(page, |b| b[0]).expect("page"));
        }
        let total_ns = t.elapsed().as_nanos() as f64;
        let after = small.stats();
        sheet.set(
            "buffer.shared.miss_ns",
            (total_ns - (after.hits - before.hits) as f64 * hit_ns)
                / (after.misses - before.misses).max(1) as f64,
        );

        // Restarts: one thread descends optimistically while this one
        // inserts fresh keys, splitting leaves under it.
        let done = AtomicBool::new(false);
        let (gets, descents) = std::thread::scope(|s| {
            let done = &done;
            let keys = &keys;
            let mut view = view.clone();
            let reader = s.spawn(move || {
                let mut counting = Counting {
                    inner: &mut view,
                    visits: 0,
                    meta_visits: 0,
                };
                let mut gets = 0u64;
                while !done.load(Relaxed) {
                    let k = keys[(gets % RUNG_CALLS) as usize];
                    black_box(
                        BTree::get_olc(&mut counting, 0, &key(k), |v| any_version(k, v))
                            .expect("get"),
                    );
                    gets += 1;
                }
                (gets, counting.meta_visits)
            });
            for k in records..records + records / 2 {
                tree.insert(&mut pager, &key(k), &value(k, 0))
                    .expect("ladder insert");
            }
            done.store(true, Relaxed);
            reader.join().expect("olc reader")
        });
        sheet.set("storage.btree.olc_restarts", (descents - gets) as f64);
    }

    /// The file device on its own: one page write, one sync, one read, in
    /// the scratch directory the durable workload uses.
    pub fn file_rungs(sheet: &mut Sheet, p: &Params) {
        let path = commit_durable::scratch_file(p, "rung.dev");
        let mut file = FileDevice::create(&path, PAGE_SIZE).expect("rung file");
        let pages = 1_024u32;
        file.ensure_pages(pages).expect("grow file");
        let mut buf = vec![0xA5u8; PAGE_SIZE];
        sheet.set(
            "os.file.write_page_ns",
            ns_per_call(u64::from(pages) * 4, |i| {
                file.write_page(i as u32 % pages, &buf).expect("write");
            }),
        );
        sheet.set(
            "os.file.sync_ns",
            ns_per_call(256, |i| {
                file.write_page(i as u32 % pages, &buf).expect("write");
                file.sync().expect("sync");
            }) - sheet.get("os.file.write_page_ns"),
        );
        sheet.set(
            "os.file.read_page_ns",
            ns_per_call(u64::from(pages) * 4, |i| {
                file.read_page(i as u32 % pages, &mut buf).expect("read");
            }),
        );

        // Flushing a pool: dirty `pages` frames, write them back.
        let mut pool = BufferPool::new(
            Box::new(file),
            ReplacementKind::Lru,
            AllocPolicy::Dynamic {
                max_frames: Some(pages as usize),
            },
        );
        sheet.set(
            "buffer.flush_ns_per_dirty_page",
            ns_per_call(1, |_| {
                for page in 0..pages {
                    pool.with_page_mut(page, |b| b[0] = b[0].wrapping_add(1))
                        .expect("dirty");
                }
                let t = Instant::now();
                pool.flush().expect("flush");
                black_box(t.elapsed());
            }) / f64::from(pages),
        );
    }

    fn put_record(txn: u64, i: u32) -> LogRecord {
        let k = crate::gen::fresh_key(i);
        LogRecord::Put {
            txn,
            index: 0,
            key: key(k).to_vec(),
            old: None,
            new: value(k, 0).to_vec(),
        }
    }

    /// The write ladder under a commit: log writer → transaction manager
    /// (→ facade transaction, which the workload itself measures).
    pub fn log_rungs(sheet: &mut Sheet, p: &Params) {
        let calls = RUNG_CALLS / 8;
        let mut log = LogWriter::new(Box::new(InMemoryDevice::new(PAGE_SIZE)), 0).expect("log");
        sheet.set(
            "txn.log.append_ns",
            ns_per_call(calls, |i| {
                log.append(&put_record(1, i as u32)).expect("append");
            }),
        );
        let batch: Vec<LogRecord> = (0..64).map(|i| put_record(1, i)).collect();
        sheet.set(
            "txn.log.append_many_ns_per_rec",
            ns_per_call(calls / 64, |_| {
                log.append_many(&batch).expect("append_many");
            }) / 64.0,
        );

        let path = commit_durable::scratch_file(p, "rung.log");
        let file = FileDevice::create(&path, PAGE_SIZE).expect("rung log");
        let mut durable = LogWriter::new(Box::new(file), 0).expect("log");
        sheet.set(
            "txn.log.sync_ns",
            ns_per_call(256, |i| {
                durable.append(&put_record(1, i as u32)).expect("append");
                durable.sync().expect("sync");
            }) - sheet.get("txn.log.append_ns"),
        );
        begin_commit_rung(sheet);
    }

    /// `begin` + `commit` on a manager whose log device costs nothing.
    fn begin_commit_rung(sheet: &mut Sheet) {
        let log = LogWriter::new(Box::new(InMemoryDevice::new(PAGE_SIZE)), 0).expect("log");
        let mut manager = TxnManager::new(log, CommitPolicy::Force);
        sheet.set(
            "txn.begin_commit_ns",
            ns_per_call(RUNG_CALLS / 8, |_| {
                let txn = manager.begin().expect("begin");
                manager.commit(txn).expect("commit");
            }),
        );
    }

    /// One uncontended exclusive acquire + release, and the manager rung.
    pub fn lock_rungs(sheet: &mut Sheet, _p: &Params) {
        let table = LockTable::new(Duration::from_secs(1));
        sheet.set(
            "txn.locks.acquire_ns",
            ns_per_call(RUNG_CALLS, |i| {
                table
                    .acquire(i + 1, &key(i as u32 % 16), LockMode::Exclusive)
                    .expect("acquire");
                table.release_all(i + 1);
            }),
        );
        begin_commit_rung(sheet);
    }

    struct NullTarget(u64);

    impl RecoveryTarget for NullTarget {
        fn apply_put(&mut self, _index: u8, key: &[u8], _value: &[u8]) {
            self.0 += key.len() as u64;
        }
        fn apply_remove(&mut self, _index: u8, key: &[u8]) {
            self.0 += key.len() as u64;
        }
    }

    /// Recovery without a store under it: write one cycle's log, read it
    /// back, classify and replay it into a target that drops everything.
    pub fn recover_rungs(sheet: &mut Sheet, _p: &Params) {
        let mut log = LogWriter::new(Box::new(InMemoryDevice::new(PAGE_SIZE)), 0).expect("log");
        for txn in 0..crash_recover::TXNS_PER_CYCLE {
            let id = u64::from(txn) + 1;
            log.append(&LogRecord::Begin { txn: id }).expect("append");
            for j in 0..crash_recover::PUTS_PER_TXN {
                log.append(&put_record(id, txn * crash_recover::PUTS_PER_TXN + j))
                    .expect("append");
            }
            if txn % 10 != 9 {
                log.append(&LogRecord::Commit { txn: id }).expect("append");
            }
        }
        let mut device = Some(log.into_device());
        let mut read = None;
        let read_ns = ns_per_call(1, |_| {
            let mut reader = LogReader::new(device.take().expect("log device"));
            read = Some(reader.read_all().expect("read_all"));
            device = Some(reader.into_device());
        });
        let (records, resume) = read.expect("log read");
        sheet.set("txn.log.read_ns_per_rec", read_ns / records.len() as f64);
        let mut target = NullTarget(0);
        let recover_ns = ns_per_call(1, |_| {
            black_box(recover_records(&records, resume, &mut target));
        });
        black_box(target.0);
        sheet.set(
            "txn.recover.records_s",
            records.len() as f64 / (recover_ns / 1e9),
        );
    }

    /// The SQL front end on its own (parse, plan), and the cursor under a
    /// range query on a B-tree of the table's size.
    pub fn query_rungs(sheet: &mut Sheet, p: &Params) {
        let mut rng = Rng::fork(p.seed, get::LANE_ROUND);
        let statements: Vec<String> = (0..1_024)
            .map(|i| {
                if i % 5 == 0 {
                    sql_scan::range_sql(rng.below(sql_scan::ROWS - sql_scan::RANGE_ROWS), 500)
                } else {
                    sql_scan::point_sql(rng.below(sql_scan::ROWS))
                }
            })
            .collect();
        sheet.set(
            "query.parse_ns",
            ns_per_call(RUNG_CALLS / 8, |i| {
                black_box(sql::parse(&statements[i as usize % statements.len()]).expect("parse"));
            }),
        );
        let schema = Schema::new([
            ("id", DataType::U32),
            ("v", DataType::U32),
            ("pad", DataType::Str),
        ]);
        let predicates: Vec<_> = statements
            .iter()
            .map(|s| match sql::parse(s).expect("parse") {
                sql::Stmt::Select { predicate, .. } => predicate,
                _ => None,
            })
            .collect();
        sheet.set(
            "query.plan_ns",
            ns_per_call(RUNG_CALLS / 8, |i| {
                let predicate = predicates[i as usize % predicates.len()].clone();
                black_box(optimizer::optimize(&schema, predicate));
            }),
        );

        let mut pager =
            Pager::open(lru_pool(InMemoryDevice::new(PAGE_SIZE), 32_000)).expect("pager");
        let mut tree = BTree::create(&mut pager, 0).expect("btree");
        for &k in &get::load_order(p.seed, sql_scan::ROWS) {
            tree.insert(&mut pager, &key(k), &value(k, 0))
                .expect("ladder insert");
        }
        sheet.set(
            "storage.btree.get_ns",
            ns_per_call(RUNG_CALLS, |i| {
                let k = (i as u32).wrapping_mul(2_654_435_761) % sql_scan::ROWS;
                black_box(tree.get_with(&mut pager, &key(k), |v| v[0]).expect("get"));
            }),
        );
        sheet.set(
            "storage.btree.scan_ns_per_row",
            ns_per_call(RUNG_CALLS / 64, |i| {
                let a = (i as u32).wrapping_mul(2_654_435_761)
                    % (sql_scan::ROWS - sql_scan::RANGE_ROWS);
                let rows = tree
                    .scan(
                        &mut pager,
                        Some(&key(a)),
                        Some(&key(a + sql_scan::RANGE_ROWS)),
                    )
                    .expect("scan");
                black_box(rows.len());
            }) / f64::from(sql_scan::RANGE_ROWS),
        );
    }

    /// Records of the crypto probe: a tenth of get-cold's, because every
    /// miss of the keyed arm deciphers a page.
    const CRYPTO_RECORDS: u32 = 20_000;
    const CRYPTO_FRAMES: usize = 190;

    pub fn crypto_cold(p: &Params) {
        use fame_dbms::fame_storage::crypto::PageCipher;
        let cipher = PageCipher::new(&[7u8; 16]);
        let mut page = vec![0x5Au8; PAGE_SIZE];
        let calls = RUNG_CALLS / 16;
        println!(
            "crypto.encrypt_page_ns={}",
            ns_per_call(calls, |i| {
                cipher.encrypt_page(i as u32, &mut page);
            })
        );
        println!(
            "crypto.decrypt_page_ns={}",
            ns_per_call(calls, |i| {
                cipher.decrypt_page(i as u32, &mut page);
            })
        );
        black_box(&page);

        // `crypto_key` only takes effect through `Database::open`, which
        // builds the cipher wrapper itself; both arms open that way.
        let arm = |keyed: bool| {
            let mut config = get::config(CRYPTO_FRAMES);
            config.crypto_key = keyed.then_some([7u8; 16]);
            let mut db = Database::open(config).expect("open");
            for &k in &get::load_order(p.seed, CRYPTO_RECORDS) {
                db.put(&key(k), &value(k, 0)).expect("load put");
            }
            let keys = key_stream(p, CRYPTO_RECORDS);
            ns_per_call(calls, |i| {
                black_box(get::checked_get(&mut db, keys[i as usize]));
            })
        };
        println!("crypto.get_cold_ratio={}", arm(true) / arm(false));
    }
}

#[cfg(feature = "product-full")]
pub use full_rungs::*;
