//! The [`Database`] facade: one product instance.

use fame_os::BlockDevice;
use fame_storage::{PageRead, Pager};

use std::ops::{Deref, DerefMut};
#[cfg(feature = "concurrency-multi-writer")]
use std::sync::{Arc, Mutex};

#[cfg(feature = "index-btree")]
use fame_storage::BTree;
#[cfg(feature = "index-hash")]
use fame_storage::HashIndex;
#[cfg(feature = "index-list")]
use fame_storage::ListIndex;
#[cfg(feature = "concurrency-multi")]
use fame_storage::SharedPager;

#[cfg(feature = "api-batch")]
use crate::batch::ResolvedOp;
#[cfg(feature = "api-batch")]
pub use crate::batch::WriteBatch;
use crate::config::{DbmsConfig, IndexKind};
use crate::error::{DbmsError, Result};
use crate::factory::{make_device, make_pool};
#[cfg(all(feature = "concurrency-multi-writer", feature = "statistics"))]
pub use crate::stats::LockStats;
#[cfg(feature = "statistics")]
pub use crate::stats::{IntegritySummary, StatsSnapshot};
#[cfg(feature = "statistics")]
use fame_obs::SpanKind;

/// Root slot of the primary key/value index.
const KV_ROOT_SLOT: usize = 0;

/// The primary index, dispatching over the composed access methods.
/// `Copy`: read handles carry their own. Only the B+-tree's root page can
/// move (splits), which [`Kv::lookup_olc`] re-resolves per lookup.
#[derive(Clone, Copy)]
enum Kv {
    #[cfg(feature = "index-btree")]
    BTree(BTree),
    #[cfg(feature = "index-list")]
    List(ListIndex),
    #[cfg(feature = "index-hash")]
    Hash(HashIndex),
}

impl Kv {
    /// Point lookup under exclusive access: run `f` over the value bytes
    /// in place.
    fn lookup<P: PageRead, R>(
        &self,
        pager: &mut P,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>> {
        Ok(match self {
            #[cfg(feature = "index-btree")]
            Kv::BTree(t) => t.get_with(pager, key, f)?,
            #[cfg(feature = "index-list")]
            Kv::List(l) => l.get_with(pager, key, f)?,
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => h.get_with(pager, key, f)?,
        })
    }

    /// Point lookup beside a writer ([`DbReader`], [`DbSnapshot`]): the
    /// B+-tree descends by optimistic lock coupling — it resolves the root
    /// itself and chases child pointers on page-version checks, restarting
    /// if a concurrent split moves a node underneath it. No latch is taken
    /// on the hit path. Over a snapshot pager every token is the
    /// always-valid sentinel, because the observed tree is frozen.
    #[cfg(feature = "concurrency-multi")]
    fn lookup_olc<P: PageRead, R>(
        &self,
        pager: &mut P,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>> {
        Ok(match self {
            #[cfg(feature = "index-btree")]
            Kv::BTree(_) => BTree::get_olc(pager, KV_ROOT_SLOT, key, f)?,
            #[cfg(feature = "index-list")]
            Kv::List(l) => l.get_with(pager, key, f)?,
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => h.get_with(pager, key, f)?,
        })
    }
}

/// The storage half of a product: the pager plus the composed primary
/// index.
pub(crate) struct StorageCore {
    pager: Pager,
    kv: Kv,
}

impl StorageCore {
    #[cfg(any(feature = "api-put", feature = "api-update", feature = "transactions"))]
    fn kv_put(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        match &mut self.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(t) => {
                #[cfg(feature = "btree-update")]
                {
                    Ok(t.insert(&mut self.pager, key, value)?)
                }
                #[cfg(not(feature = "btree-update"))]
                {
                    let _ = (t, key, value);
                    Err(DbmsError::FeatureNotCompiled("btree-update"))
                }
            }
            #[cfg(feature = "index-list")]
            Kv::List(l) => Ok(l.insert(&mut self.pager, key, value)?),
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => Ok(h.insert(&mut self.pager, key, value)?),
        }
    }

    pub(crate) fn kv_get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.kv.lookup(&mut self.pager, key, |v| v.to_vec())
    }

    #[cfg(any(feature = "api-remove", feature = "transactions"))]
    fn kv_remove(&mut self, key: &[u8]) -> Result<bool> {
        match &mut self.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(t) => {
                #[cfg(feature = "btree-remove")]
                {
                    Ok(t.remove(&mut self.pager, key)?)
                }
                #[cfg(not(feature = "btree-remove"))]
                {
                    let _ = (t, key);
                    Err(DbmsError::FeatureNotCompiled("btree-remove"))
                }
            }
            #[cfg(feature = "index-list")]
            Kv::List(l) => Ok(l.remove(&mut self.pager, key)?),
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => Ok(h.remove(&mut self.pager, key)?),
        }
    }

    /// Bulk dispatch of a normalized `(key, Some(value) | None)` run to
    /// the composed index (feature `api-batch`). Returns how many keys
    /// were newly created.
    #[cfg(feature = "api-batch")]
    fn kv_apply_bulk(&mut self, ops: Vec<ResolvedOp>) -> Result<usize> {
        match &mut self.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(t) => {
                #[cfg(feature = "btree-update")]
                {
                    #[cfg(not(feature = "btree-remove"))]
                    if ops.iter().any(|(_, v)| v.is_none()) {
                        return Err(DbmsError::FeatureNotCompiled("btree-remove"));
                    }
                    Ok(t.apply_sorted(&mut self.pager, ops)?)
                }
                #[cfg(not(feature = "btree-update"))]
                {
                    let _ = (t, ops);
                    Err(DbmsError::FeatureNotCompiled("btree-update"))
                }
            }
            #[cfg(feature = "index-list")]
            Kv::List(l) => Ok(l.insert_many(&mut self.pager, ops)?),
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => Ok(h.insert_many(&mut self.pager, ops)?),
        }
    }

    /// Apply an aborted transaction's compensating actions (newest
    /// first), stopping at the first storage error.
    #[cfg(feature = "transactions")]
    fn apply_undo(&mut self, undo: Vec<fame_txn::UndoAction>) -> Result<()> {
        for action in undo {
            match action.restore {
                Some(old) => self.kv_put(&action.key, &old)?,
                None => self.kv_remove(&action.key)?,
            };
        }
        Ok(())
    }

    fn len(&mut self) -> Result<usize> {
        Ok(match &self.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(t) => t.len(&mut self.pager)?,
            #[cfg(feature = "index-list")]
            Kv::List(l) => l.len(&mut self.pager)?,
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => h.len(&mut self.pager)?,
        })
    }
}

/// The one engine behind the facade (*Concurrency* alternative, Fig. 2
/// extension). Each write protocol is written once: the single-writer one
/// in [`Database`] over `Own`, the MultiWriter one in [`DbWriter`], which
/// the facade's transactional API delegates to over `Shared`.
///
/// One instance per `Database`; boxing `Own` to shrink the enum would put
/// a pointer chase on every sequential-product operation for no memory win.
#[allow(clippy::large_enum_variant)]
enum Engine {
    /// `Single`/`MultiReader` products own storage and the single-writer
    /// transaction manager inline — the seed layout, zero indirection.
    Own {
        core: StorageCore,
        /// `None` when transactions are not configured at runtime.
        #[cfg(feature = "transactions")]
        txn: Option<fame_txn::TxnManager>,
    },
    /// `MultiWriter` products share both with the handles
    /// [`Database::writer`] clones out of this one.
    #[cfg(feature = "concurrency-multi-writer")]
    Shared(DbWriter),
}

impl Engine {
    /// Mutable access to the storage core: a plain reborrow when owned,
    /// the storage mutex in MultiWriter products.
    fn core(&mut self) -> CoreRef<'_> {
        match self {
            Engine::Own { core, .. } => CoreRef::Own(core),
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => CoreRef::Shared(w.storage()),
        }
    }

    /// Read access from `&self` receivers (pool counters, handle setup).
    /// In MultiWriter products this still takes the mutex — such calls are
    /// rare and exclusive access keeps what they read coherent.
    fn peek<R>(&self, f: impl FnOnce(&StorageCore) -> R) -> R {
        match self {
            Engine::Own { core, .. } => f(core),
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => f(&w.storage()),
        }
    }
}

#[cfg(feature = "transactions")]
impl Engine {
    /// Read the transaction manager's counters; `None` when transactions
    /// are not configured.
    fn txn_peek<R>(&self, f: impl FnOnce(&fame_txn::TxnManager) -> R) -> Option<R> {
        match self {
            Engine::Own { txn, .. } => txn.as_ref().map(f),
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => Some(w.txn.with_inner(|m| f(m))),
        }
    }

    /// Log maintenance outside any transaction (flush, recovery seal);
    /// `None` when transactions are not configured.
    fn txn_mut<R>(&mut self, f: impl FnOnce(&mut fame_txn::TxnManager) -> R) -> Option<R> {
        match self {
            Engine::Own { txn, .. } => txn.as_mut().map(f),
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => Some(w.txn.with_inner(f)),
        }
    }
}

/// Mutable storage-core guard (see [`Engine::core`]).
enum CoreRef<'a> {
    Own(&'a mut StorageCore),
    #[cfg(feature = "concurrency-multi-writer")]
    Shared(std::sync::MutexGuard<'a, StorageCore>),
}

impl Deref for CoreRef<'_> {
    type Target = StorageCore;
    fn deref(&self) -> &StorageCore {
        match self {
            CoreRef::Own(c) => c,
            #[cfg(feature = "concurrency-multi-writer")]
            CoreRef::Shared(g) => g,
        }
    }
}

impl DerefMut for CoreRef<'_> {
    fn deref_mut(&mut self) -> &mut StorageCore {
        match self {
            CoreRef::Own(c) => c,
            #[cfg(feature = "concurrency-multi-writer")]
            CoreRef::Shared(g) => g,
        }
    }
}

/// A running FAME-DBMS instance.
///
/// The API surface follows the feature diagram: `put`/`get`/`remove`/
/// `update` exist only when the corresponding `api-*` cargo feature is
/// composed; SQL, transactions, replication, and the queue likewise.
pub struct Database {
    engine: Engine,
    config: DbmsConfig,
    #[cfg(feature = "transactions")]
    last_recovery: Option<fame_txn::RecoveryStats>,
    #[cfg(feature = "replication")]
    replication: Option<fame_repl::Primary>,
    #[cfg(feature = "sql")]
    sql: Option<fame_query::SqlEngine>,
    /// I/O latency histograms of the data device (feature `statistics`).
    #[cfg(feature = "statistics")]
    io: std::sync::Arc<fame_os::IoTiming>,
    /// The op trace (feature `statistics`): the last
    /// `StatsConfig::trace_capacity` facade operations, fed only by
    /// [`Database::record`].
    #[cfg(feature = "statistics")]
    trace: fame_obs::SpanRing,
    /// Causal span flight recorder (feature `obs-trace`). Owns the span
    /// sink every probed layer holds an `Arc` of.
    #[cfg(feature = "obs-trace")]
    recorder: fame_obs::FlightRecorder,
    /// Aggregate of dropped [`DbReader`] handles' local counters.
    #[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
    reader_acc: std::sync::Arc<ReaderAccum>,
    /// What the last [`Database::verify_integrity`] walk found.
    #[cfg(feature = "statistics")]
    last_integrity: Option<IntegritySummary>,
    /// Batched-write counters + latency histogram (features `api-batch`
    /// and `statistics`).
    #[cfg(all(feature = "api-batch", feature = "statistics"))]
    batch_obs: BatchObs,
}

/// Counters of the batched write path.
#[cfg(all(feature = "api-batch", feature = "statistics"))]
#[derive(Debug, Default)]
struct BatchObs {
    /// Batches applied.
    batches: fame_obs::Counter,
    /// Operations submitted across those batches.
    batch_ops: fame_obs::Counter,
    /// Whole-batch apply latency.
    latency: fame_obs::Histogram,
}

impl Database {
    /// Open (or create) a database per the configuration.
    pub fn open(config: DbmsConfig) -> Result<Database> {
        config.check().map_err(DbmsError::Config)?;
        let device = make_device(&config)?;
        #[cfg(feature = "transactions")]
        let log_device = match &config.transactions {
            Some(_) => Some(crate::factory::make_log_device(&config)?),
            None => None,
        };
        #[cfg(not(feature = "transactions"))]
        let log_device = None;
        Self::open_inner(config, device, log_device)
    }

    /// Open over caller-supplied devices, bypassing [`make_device`].
    ///
    /// The crash-torture harness uses this to hand the engine clones of a
    /// [`fame_os::SharedDevice`]-wrapped fault injector while keeping side
    /// handles for tripping, healing, and counter inspection. `log_device`
    /// must be `Some` iff the configuration enables transactions.
    pub fn open_with_devices(
        config: DbmsConfig,
        device: Box<dyn BlockDevice>,
        log_device: Option<Box<dyn BlockDevice>>,
    ) -> Result<Database> {
        config.check().map_err(DbmsError::Config)?;
        Self::open_inner(config, device, log_device)
    }

    fn open_inner(
        config: DbmsConfig,
        device: Box<dyn BlockDevice>,
        log_device: Option<Box<dyn BlockDevice>>,
    ) -> Result<Database> {
        // Statistics: interpose the timing wrapper between pool and device
        // so page-I/O latencies land in histograms. Outermost wrapper, so
        // crypto cost (when composed inside) is part of the measured read.
        #[cfg(feature = "statistics")]
        let (device, io) = {
            let observed = fame_os::ObservedDevice::new(device);
            let io = observed.timing();
            (Box::new(observed) as Box<dyn BlockDevice>, io)
        };
        // Read the surviving log back *before* the pool exists: the
        // records position the writer's resume LSN and drive recovery once
        // the facade is assembled, and the writer's barrier goes in front
        // of the data device — appends are buffered, so no data page may
        // be written ahead of the log records describing it (the WAL rule,
        // for both pools and for evictions by reader threads alike).
        #[cfg(feature = "transactions")]
        let (device, txn, replay) = match (&config.transactions, log_device) {
            (Some(tc), Some(log_dev)) => {
                let mut reader = fame_txn::LogReader::new(log_dev);
                let (records, resume) = reader.read_all()?;
                let writer = fame_txn::LogWriter::new(reader.into_device(), resume)?;
                let ordered = fame_os::OrderedDevice::new(device, writer.barrier());
                let mut mgr = fame_txn::TxnManager::new(writer, tc.commit);
                mgr.resume_ids_after(
                    records
                        .iter()
                        .filter_map(|(_, r)| r.txn())
                        .max()
                        .unwrap_or(0),
                );
                (
                    Box::new(ordered) as Box<dyn BlockDevice>,
                    Some(mgr),
                    Some((records, resume)),
                )
            }
            (Some(_), None) => {
                return Err(DbmsError::Config(
                    "transactions enabled but no log device supplied".into(),
                ))
            }
            (None, _) => (device, None, None),
        };
        #[cfg(not(feature = "transactions"))]
        drop(log_device);

        let pool = make_pool(&config, device);
        let mut pager = Pager::open(pool)?;

        let kv = match &config.index {
            #[cfg(feature = "index-btree")]
            IndexKind::BTree => Kv::BTree(match pager.root(KV_ROOT_SLOT)? {
                Some(_) => BTree::open(&mut pager, KV_ROOT_SLOT)?,
                None => BTree::create(&mut pager, KV_ROOT_SLOT)?,
            }),
            #[cfg(feature = "index-list")]
            IndexKind::List => Kv::List(match pager.root(KV_ROOT_SLOT)? {
                Some(_) => ListIndex::open(&mut pager, KV_ROOT_SLOT)?,
                None => ListIndex::create(&mut pager, KV_ROOT_SLOT)?,
            }),
            #[cfg(feature = "index-hash")]
            IndexKind::Hash { buckets } => Kv::Hash(match pager.root(KV_ROOT_SLOT)? {
                Some(_) => HashIndex::open(&mut pager, KV_ROOT_SLOT)?,
                None => HashIndex::create(&mut pager, KV_ROOT_SLOT, *buckets)?,
            }),
        };

        #[cfg(feature = "replication")]
        let replication = config.replication.map(fame_repl::Primary::new);

        #[cfg(feature = "sql")]
        let sql = None; // lazily initialized: not every instance uses SQL

        #[cfg(feature = "statistics")]
        let trace = fame_obs::SpanRing::new(config.stats.trace_capacity);

        #[cfg(feature = "obs-trace")]
        let recorder = fame_obs::FlightRecorder::new(
            config.stats.span_rings,
            config.stats.span_capacity,
            config.stats.window_ms.max(1).saturating_mul(1_000_000),
            fame_obs::AnomalyThresholds {
                deadlocks_per_sec: config.stats.anomaly_deadlocks_per_sec,
                lock_wait_p99_ns: config.stats.anomaly_lock_wait_p99_ns,
            },
        );

        // MultiWriter products move storage and the transaction manager
        // into their shareable forms *before* recovery: recovery then runs
        // through the same engine (single-threaded at open, so the mutexes
        // are uncontended) and `writer()` can clone out handles afterwards.
        // `DbmsConfig::check` guarantees MultiWriter comes with transactions.
        #[cfg(feature = "concurrency-multi-writer")]
        let multi_writer = matches!(
            config.concurrency,
            fame_buffer::Concurrency::MultiWriter { .. }
        );
        let core = StorageCore { pager, kv };
        #[cfg(not(feature = "transactions"))]
        let engine = Engine::Own { core };
        #[cfg(feature = "transactions")]
        let engine = match txn {
            #[cfg(feature = "concurrency-multi-writer")]
            Some(mgr) if multi_writer => {
                let txn = Arc::new(fame_txn::SharedTxnManager::new(
                    mgr,
                    std::time::Duration::from_millis(config.lock_timeout_ms),
                ));
                // Snapshot feature: apply the configured chain cap and
                // wire the version-install hook into the group-commit
                // leader, so every drained batch publishes its page
                // versions at a fresh commit timestamp. Installed before
                // recovery so replayed commits (which run single-threaded
                // through the same manager) stay consistent.
                #[cfg(feature = "concurrency-snapshot")]
                let pool = {
                    let pool = core.pager.pool().shared_handle().ok_or_else(|| {
                        DbmsError::Config("Concurrency::MultiWriter needs a shared pool".into())
                    })?;
                    pool.set_version_chain_cap(config.snapshot_chain_cap);
                    let hook_pool = pool.clone();
                    txn.set_install_hook(Box::new(move |batch, ts| {
                        hook_pool.install_commits(batch, ts);
                    }));
                    pool
                };
                Engine::Shared(DbWriter {
                    storage: Arc::new(Mutex::new(core)),
                    txn,
                    #[cfg(feature = "concurrency-snapshot")]
                    pool,
                })
            }
            txn => Engine::Own { core, txn },
        };

        let mut db = Database {
            engine,
            config,
            #[cfg(feature = "transactions")]
            last_recovery: None,
            #[cfg(feature = "replication")]
            replication,
            #[cfg(feature = "sql")]
            sql,
            #[cfg(feature = "statistics")]
            io,
            #[cfg(feature = "statistics")]
            trace,
            #[cfg(feature = "obs-trace")]
            recorder,
            #[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
            reader_acc: std::sync::Arc::new(ReaderAccum::default()),
            #[cfg(feature = "statistics")]
            last_integrity: None,
            #[cfg(all(feature = "api-batch", feature = "statistics"))]
            batch_obs: BatchObs::default(),
        };
        // Install the span sink into every probed layer before recovery
        // runs, so even the open-time recovery replay is traced.
        #[cfg(feature = "obs-trace")]
        {
            let sink = db.recorder.sink();
            #[cfg(feature = "concurrency-multi")]
            if let Some(pool) = db.engine.peek(|core| core.pager.pool().shared_handle()) {
                pool.set_trace_sink(std::sync::Arc::clone(sink));
            }
            #[cfg(feature = "concurrency-multi-writer")]
            if let Engine::Shared(w) = &db.engine {
                w.txn.set_trace_sink(std::sync::Arc::clone(sink));
            }
            #[cfg(feature = "replication")]
            if let Some(p) = &mut db.replication {
                p.set_trace_sink(std::sync::Arc::clone(sink));
            }
            let _ = sink;
        }
        #[cfg(feature = "transactions")]
        if let Some((records, resume)) = replay {
            db.recover_from_records(&records, resume)?;
        }
        let _ = &mut db; // silence "unused mut" when transactions are off
        Ok(db)
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &DbmsConfig {
        &self.config
    }

    /// Flush everything and issue a durability barrier.
    ///
    /// Order matters: the WAL rule requires the log to be durable *before*
    /// the data pages it describes. Flushing the pager first would let a
    /// crash between the two barriers leave unlogged page images on disk —
    /// uncommitted effects recovery can no longer undo.
    pub fn sync(&mut self) -> Result<()> {
        #[cfg(feature = "transactions")]
        self.engine.txn_mut(|m| m.flush()).transpose()?;
        self.engine.core().pager.sync()?;
        #[cfg(feature = "statistics")]
        self.record(SpanKind::Sync, 0, 0, 0);
        Ok(())
    }

    /// Walk the whole storage image and report every violated structural
    /// invariant (meta page, free list, index structures). The crash-torture
    /// harness runs this after every simulated crash + recovery.
    pub fn verify_integrity(&mut self) -> Result<fame_storage::IntegrityReport> {
        let report = fame_storage::check_pager(&mut self.engine.core().pager)?;
        #[cfg(feature = "statistics")]
        {
            self.last_integrity = Some(IntegritySummary {
                violations: report.violations.len(),
                leaked_pages: report.leaked_pages,
            });
        }
        Ok(report)
    }

    /// A shared read handle (feature `concurrency-multi`).
    ///
    /// The handle clones cheaply (an `Arc` bump), is `Send`, and answers
    /// point lookups against the sharded pool without the writer — spawn
    /// one clone per reader thread. Readers are safe alongside each other
    /// and alongside buffer churn (evictions, write-backs); structural
    /// *mutations* still belong to the single writer, so interleave them
    /// with reads only at quiescent points.
    ///
    /// Errors when this instance runs `Concurrency::Single`: the product
    /// then owns an exclusive pool with no latches to share.
    #[cfg(feature = "concurrency-multi")]
    pub fn reader(&self) -> Result<DbReader> {
        let (pager, kv) = self.engine.peek(|core| (core.pager.shared(), core.kv));
        let pager = pager.ok_or_else(|| {
            DbmsError::Config(
                "reader() needs Concurrency::MultiReader in the runtime configuration".into(),
            )
        })?;
        Ok(DbReader {
            pager,
            kv,
            #[cfg(feature = "statistics")]
            obs: ReaderObs {
                acc: std::sync::Arc::clone(&self.reader_acc),
                gets: 0,
                hits: 0,
            },
        })
    }

    /// A concurrent write handle (feature `concurrency-multi-writer`).
    ///
    /// The handle clones cheaply (two `Arc` bumps) and is `Send` — spawn
    /// one clone per writer thread. Each handle runs full transactions
    /// (`begin`/`put`/`get`/`remove`/`commit`/`abort`): conflicting key
    /// accesses serialize through the blocking S/X block-lock table
    /// (deadlock victims abort, waits time out), and every commit rides
    /// the cross-transaction group channel — concurrent committers share
    /// one coalesced WAL append and one protocol sync per drain.
    ///
    /// Errors unless this instance runs `Concurrency::MultiWriter` (which
    /// the configuration check only admits with transactions).
    #[cfg(feature = "concurrency-multi-writer")]
    pub fn writer(&self) -> Result<DbWriter> {
        match &self.engine {
            Engine::Shared(w) => Ok(w.clone()),
            Engine::Own { .. } => Err(DbmsError::Config(
                "writer() needs Concurrency::MultiWriter in the runtime configuration".into(),
            )),
        }
    }

    /// A wait-free point-in-time read view (feature
    /// `concurrency-snapshot`).
    ///
    /// The snapshot is pinned to the newest *stable* commit timestamp: it
    /// observes every transaction whose group-commit drain completed
    /// before the call and nothing that commits after. Its lookups run
    /// the same optimistic B+-tree descent as [`Database::reader`] but
    /// resolve every page through the pool's copy-on-write version
    /// chains — they never touch the block-lock table and never write a
    /// shared cache line, so snapshot throughput is independent of writer
    /// contention (benchmark E14).
    ///
    /// The handle deregisters itself on drop; while it lives, the
    /// versions it may still need survive pruning. A snapshot held across
    /// more than `snapshot_chain_cap` commits to one page can be
    /// stranded: its lookups then fail with a "too old" I/O error.
    ///
    /// Errors unless this instance runs `Concurrency::MultiWriter`
    /// (versions are installed by the writers' group commit).
    #[cfg(feature = "concurrency-snapshot")]
    pub fn snapshot(&self) -> Result<DbSnapshot> {
        let view = match &self.engine {
            Engine::Shared(w) => {
                let core = w.storage();
                core.pager.shared().map(|shared| (shared, core.kv))
            }
            Engine::Own { .. } => None,
        };
        let (shared, kv) = view.ok_or_else(|| {
            DbmsError::Config(
                "snapshot() needs Concurrency::MultiWriter in the runtime configuration".into(),
            )
        })?;
        let ts = shared.pool().snapshot_begin();
        Ok(DbSnapshot {
            pager: shared.snapshot_at(ts),
            kv,
        })
    }

    /// Pager / buffer-pool statistics.
    pub fn pool_stats(&self) -> fame_buffer::PoolStats {
        self.engine.peek(|core| core.pager.pool().stats())
    }

    /// Device statistics of the data device.
    pub fn device_stats(&self) -> fame_os::DeviceStats {
        self.engine.peek(|core| core.pager.pool().device_stats())
    }

    // ---- raw byte-string API (Fig. 2: Access -> API, or-group) ----------

    /// Insert or overwrite a key (feature `api-put`).
    #[cfg(feature = "api-put")]
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.engine.core().kv_put(key, value)?;
        #[cfg(feature = "replication")]
        self.ship(key, Some(value))?;
        #[cfg(feature = "statistics")]
        self.record(SpanKind::Put, 0, key.len() as u64, value.len() as u64);
        Ok(())
    }

    /// Look up a key (feature `api-get`).
    #[cfg(feature = "api-get")]
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(key, |v| v.to_vec())
    }

    /// Allocation-free lookup: run `f` over the value bytes in place,
    /// without copying them out of the frame (feature `api-get`).
    /// [`get`](Self::get) is the `to_vec` wrapper over this.
    #[cfg(feature = "api-get")]
    pub fn get_with<R>(&mut self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        let found = {
            let mut core = self.engine.core();
            let core = &mut *core;
            core.kv.lookup(&mut core.pager, key, f)?
        };
        #[cfg(feature = "statistics")]
        self.record(SpanKind::Get, 0, key.len() as u64, found.is_some() as u64);
        Ok(found)
    }

    /// Remove a key; returns whether it existed (feature `api-remove`).
    #[cfg(feature = "api-remove")]
    pub fn remove(&mut self, key: &[u8]) -> Result<bool> {
        let removed = self.engine.core().kv_remove(key)?;
        #[cfg(feature = "replication")]
        if removed {
            self.ship(key, None)?;
        }
        #[cfg(feature = "statistics")]
        self.record(SpanKind::Remove, 0, key.len() as u64, removed as u64);
        Ok(removed)
    }

    /// Overwrite an existing key; `false` if absent (feature `api-update`).
    #[cfg(feature = "api-update")]
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        {
            let mut core = self.engine.core();
            if core.kv_get(key)?.is_none() {
                return Ok(false);
            }
            core.kv_put(key, value)?;
        }
        #[cfg(feature = "replication")]
        self.ship(key, Some(value))?;
        #[cfg(feature = "statistics")]
        self.record(SpanKind::Update, 0, key.len() as u64, value.len() as u64);
        Ok(true)
    }

    /// Number of live keys.
    pub fn len(&mut self) -> Result<usize> {
        self.engine.core().len()
    }

    /// `true` when no keys exist.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Ordered range scan (B+-tree only; other indexes return
    /// [`DbmsError::FeatureNotCompiled`]-style config errors).
    #[cfg(all(feature = "api-get", feature = "index-btree"))]
    pub fn scan(
        &mut self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut core = self.engine.core();
        let core = &mut *core;
        match &core.kv {
            Kv::BTree(t) => Ok(t.scan(&mut core.pager, start, end)?),
            #[allow(unreachable_patterns)]
            _ => Err(DbmsError::Config(
                "range scans need the B+-tree index".into(),
            )),
        }
    }

    // ---- queue access method (Berkeley DB QUEUE, §2.2) -------------------

    /// Create or open the fixed-record queue (feature `index-queue`).
    #[cfg(feature = "index-queue")]
    pub fn queue(&mut self, record_len: usize) -> Result<QueueHandle<'_>> {
        /// Root slot of the queue.
        const QUEUE_ROOT_SLOT: usize = 1;
        let mut core = self.engine.core();
        let q = match core.pager.root(QUEUE_ROOT_SLOT)? {
            Some(_) => fame_storage::Queue::open(&mut core.pager, QUEUE_ROOT_SLOT)?,
            None => fame_storage::Queue::create(&mut core.pager, QUEUE_ROOT_SLOT, record_len)?,
        };
        if q.record_len() != record_len {
            return Err(DbmsError::Config(format!(
                "queue exists with record length {}, requested {}",
                q.record_len(),
                record_len
            )));
        }
        Ok(QueueHandle { queue: q, core })
    }
}

// ---- batched writes (Fig. 2: Access -> API -> Batch) -----------------
#[cfg(feature = "api-batch")]
impl Database {
    /// Apply a [`WriteBatch`] as one unit (feature `api-batch`).
    ///
    /// The batch is normalized (last write per key wins) and pushed
    /// through the bulk storage path ([`fame_storage::BTree::apply_sorted`]
    /// / `insert_many`). With transactions configured the batch is one
    /// transaction: every record is encoded into a single WAL frame run
    /// (`TxnManager::log_batch`) and committed with exactly one log sync,
    /// so recovery observes the batch entirely or not at all. Without
    /// transactions, record sizes are validated before any page is touched
    /// but crash atomicity is — as for single-record writes — not provided.
    ///
    /// `update` entries fail the whole batch (nothing applied, nothing
    /// logged) when their key does not exist at that point in the batch;
    /// `remove` entries of absent keys are dropped, mirroring
    /// [`remove`](Self::remove) returning `false`.
    pub fn apply_batch(&mut self, batch: WriteBatch) -> Result<()> {
        #[cfg(feature = "statistics")]
        let start = fame_obs::monotonic_ns();
        let submitted = batch.ops.len() as u64;
        if submitted == 0 {
            return Ok(());
        }
        match &mut self.engine {
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => w.apply_batch(batch)?,
            Engine::Own {
                core,
                #[cfg(feature = "transactions")]
                txn,
            } => {
                let resolved = core.resolve_batch(batch)?;
                #[cfg(feature = "replication")]
                let ship = self.replication.is_some().then(|| resolved.clone());
                #[cfg(feature = "transactions")]
                match txn {
                    Some(mgr) => Self::apply_batch_txn(core, mgr, &resolved)?,
                    None => {
                        core.kv_apply_bulk(resolved)?;
                    }
                }
                #[cfg(not(feature = "transactions"))]
                core.kv_apply_bulk(resolved)?;
                #[cfg(feature = "replication")]
                for (key, value) in ship.into_iter().flatten() {
                    self.ship(&key, value.as_deref())?;
                }
            }
        }
        #[cfg(feature = "statistics")]
        {
            self.batch_obs.batches.inc();
            self.batch_obs.batch_ops.add(submitted);
            self.batch_obs
                .latency
                .record_ns(fame_obs::monotonic_ns().saturating_sub(start));
            self.record(SpanKind::Batch, 0, submitted, 0);
        }
        Ok(())
    }

    /// Single-writer transactional arm of [`apply_batch`](Self::apply_batch):
    /// one txn, one coalesced WAL append, one commit (= one sync under
    /// Force). Every key is locked before any before-image is read or
    /// anything is logged, as in [`DbWriter`].
    #[cfg(feature = "transactions")]
    fn apply_batch_txn(
        core: &mut StorageCore,
        mgr: &mut fame_txn::TxnManager,
        resolved: &[ResolvedOp],
    ) -> Result<()> {
        if resolved.is_empty() {
            return Ok(());
        }
        let txn_id = mgr.begin()?;
        let mut applied = || -> Result<()> {
            for (key, _) in resolved {
                mgr.lock_write(txn_id, key)?;
            }
            let (writes, apply) = core.batch_writes(resolved)?;
            if !writes.is_empty() {
                mgr.log_batch(txn_id, &writes)?;
                core.kv_apply_bulk(apply)?;
            }
            Ok(())
        };
        // A conflict or a failed bulk apply rolls back; locks go after.
        if let Err(e) = applied() {
            if let Ok(undo) = mgr.abort(txn_id) {
                let _ = core.apply_undo(undo);
                mgr.release_locks(txn_id);
            }
            return Err(e);
        }
        Ok(mgr.commit(txn_id)?)
    }
}

// ---- statistics (Berkeley DB STATISTICS, §2.2) ------------------------
#[cfg(feature = "statistics")]
impl Database {
    /// A full statistics report of the running product (feature
    /// `statistics` — the Berkeley DB `->stat()` analog).
    ///
    /// The snapshot is *coherent* under concurrent readers: every counter
    /// is read once from its atomic, so repeated calls observe each field
    /// monotonically non-decreasing and never torn.
    pub fn stats(&mut self) -> Result<StatsSnapshot> {
        let mut core = self.engine.core();
        let keys = core.len()?;
        let pool = core.pager.pool().stats();
        let device = core.pager.pool().device_stats();
        let frames = core.pager.pool().frame_count();
        let page_size = core.pager.page_size();
        let index = match &core.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(_) => "B+-Tree",
            #[cfg(feature = "index-list")]
            Kv::List(_) => "List",
            #[cfg(feature = "index-hash")]
            Kv::Hash(_) => "Hash",
        };
        let allocated_pages = core.pager.allocated_pages()?;
        let pager_ops = core.pager.ops();
        #[cfg(feature = "concurrency-snapshot")]
        let versions = core.pager.pool().shared_handle().map(|p| p.version_stats());
        drop(core);
        Ok(StatsSnapshot {
            keys,
            index,
            allocated_pages,
            page_size,
            pool,
            device,
            pager_ops,
            io: self.io.snapshot(),
            frames,
            frame_bytes: frames * page_size,
            ops_traced: self.trace.recorded(),
            #[cfg(feature = "obs-trace")]
            windows: self.recorder.sink().windows(),
            #[cfg(feature = "concurrency-multi")]
            reader_gets: self
                .reader_acc
                .gets
                .load(std::sync::atomic::Ordering::Relaxed),
            #[cfg(feature = "concurrency-multi")]
            reader_hits: self
                .reader_acc
                .hits
                .load(std::sync::atomic::Ordering::Relaxed),
            integrity: self.last_integrity,
            #[cfg(feature = "api-batch")]
            batches: self.batch_obs.batches.get(),
            #[cfg(feature = "api-batch")]
            batch_ops: self.batch_obs.batch_ops.get(),
            #[cfg(feature = "api-batch")]
            batch_latency: self.batch_obs.latency.snapshot(),
            #[cfg(feature = "transactions")]
            txn: self.txn_stats(),
            #[cfg(feature = "transactions")]
            log_syncs: self.log_syncs(),
            #[cfg(feature = "transactions")]
            log_bytes: self.engine.txn_peek(|m| m.log_bytes()),
            #[cfg(feature = "transactions")]
            commit_latency: self.engine.txn_peek(|m| m.obs().commit_latency.snapshot()),
            #[cfg(feature = "concurrency-multi-writer")]
            locks: match &self.engine {
                Engine::Shared(w) => Some(w.lock_stats()),
                Engine::Own { .. } => None,
            },
            #[cfg(feature = "concurrency-snapshot")]
            versions,
            #[cfg(feature = "transactions")]
            recovery_redo: self.last_recovery.as_ref().map_or(0, |r| r.redo_applied),
            #[cfg(feature = "transactions")]
            recovery_undo: self.last_recovery.as_ref().map_or(0, |r| r.undo_applied),
            #[cfg(feature = "sql")]
            query: self.sql.as_ref().map(|e| e.obs()),
            #[cfg(feature = "replication")]
            replication_lag: self.replication_lag(),
        })
    }

    /// The op trace, oldest first (feature `statistics`). At most
    /// [`crate::config::StatsConfig::trace_capacity`] most-recent events.
    pub fn op_trace(&self) -> Vec<fame_obs::SpanEvent> {
        self.trace.events()
    }

    /// The facade's one recording point. Every event lands in the op
    /// trace. The transaction lifecycle and recovery are also edges of the
    /// causal trace (feature `obs-trace`) — unless the MultiWriter engine
    /// runs the transaction, whose own probes already emitted them. Plain
    /// operations (`put`, `get`, …) stay out of the flight recorder: they
    /// would evict the causal events.
    fn record(&self, kind: SpanKind, txn: u64, a: u64, b: u64) {
        self.trace.record(kind, txn, 0, a, b);
        #[cfg(feature = "obs-trace")]
        if kind == SpanKind::Recovery
            || (matches!(self.engine, Engine::Own { .. })
                && matches!(
                    kind,
                    SpanKind::TxnBegin | SpanKind::TxnCommit | SpanKind::TxnAbort
                ))
        {
            self.recorder.sink().emit(kind, txn, 0, a, b);
        }
    }
}

// ---- causal tracing (feature `obs-trace`) -----------------------------
#[cfg(feature = "obs-trace")]
impl Database {
    /// Dump the flight recorder: every retained span event plus the
    /// current windowed metrics, ready for
    /// [`fame_obs::TraceDump::to_chrome_json`] / `to_tsv` export.
    pub fn dump_trace(&self) -> fame_obs::TraceDump {
        self.recorder.dump(None)
    }

    /// Check the anomaly thresholds (see
    /// [`crate::config::StatsConfig`]); returns `Some` exactly once per
    /// not-crossed → crossed transition. Callers typically follow up with
    /// [`Database::dump_trace`] stamped with the anomaly's reason.
    pub fn trace_anomaly(&self) -> Option<fame_obs::Anomaly> {
        self.recorder.observe()
    }

    /// Current windowed metrics (merge-on-read snapshot of the rotating
    /// histogram windows).
    pub fn trace_windows(&self) -> fame_obs::WindowsSnapshot {
        self.recorder.sink().windows()
    }

    /// The flight recorder itself (sink installation for embedders that
    /// probe their own layers, anomaly-stamped dumps).
    pub fn flight_recorder(&self) -> &fame_obs::FlightRecorder {
        &self.recorder
    }
}

// ---- SQL (Fig. 2: Access -> SQL Engine) ------------------------------
#[cfg(feature = "sql")]
impl Database {
    /// Execute a SQL statement (feature `sql`).
    pub fn sql(&mut self, statement: &str) -> Result<fame_query::QueryOutput> {
        let mut core = self.engine.core();
        if self.sql.is_none() {
            self.sql = Some(fame_query::SqlEngine::open_default(&mut core.pager)?);
        }
        let engine = self.sql.as_mut().expect("just initialized");
        let out = engine.execute(&mut core.pager, statement)?;
        drop(core);
        #[cfg(feature = "statistics")]
        self.record(SpanKind::Query, 0, statement.len() as u64, 0);
        Ok(out)
    }

    /// Access path chosen by the last SQL row-sourcing statement
    /// (optimizer diagnostics).
    pub fn last_access_path(&self) -> Option<&'static str> {
        self.sql.as_ref().and_then(|e| e.last_access_path())
    }
}

// ---- transactions (Fig. 2: Transaction) -----------------------------
//
// Each method holds the single-writer protocol inline (the `Own` arm:
// no-wait key lock → before-image → WAL → apply) and hands MultiWriter
// products to the one block-lock protocol in [`DbWriter`]. What wraps
// both — replica shipping, op trace — stays here.
#[cfg(feature = "transactions")]
impl Database {
    /// The error every transactional call gets on an instance opened
    /// without transactions — including one handed a [`TxnHandle`] of
    /// another instance.
    fn txn_not_enabled() -> DbmsError {
        DbmsError::Config("transactions not enabled in config".into())
    }

    /// Begin a transaction (feature `transactions`).
    pub fn begin(&mut self) -> Result<TxnHandle> {
        let txn = match &mut self.engine {
            Engine::Own { txn, .. } => TxnHandle {
                id: txn.as_mut().ok_or_else(Self::txn_not_enabled)?.begin()?,
            },
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => w.begin()?,
        };
        #[cfg(feature = "statistics")]
        self.record(SpanKind::TxnBegin, txn.id, 0, 0);
        Ok(txn)
    }

    /// Transactional put: lock, WAL, then apply.
    #[cfg(feature = "api-put")]
    pub fn txn_put(&mut self, txn: TxnHandle, key: &[u8], value: &[u8]) -> Result<()> {
        match &mut self.engine {
            Engine::Own { core, txn: mgr } => {
                let mgr = mgr.as_mut().ok_or_else(Self::txn_not_enabled)?;
                mgr.lock_write(txn.id, key)?;
                let old = core.kv_get(key)?;
                mgr.log_put(txn.id, 0, key, old, value)?;
                core.kv_put(key, value)?;
                Ok(())
            }
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => w.put(txn, key, value),
        }
    }

    /// Transactional get (takes a read lock).
    #[cfg(feature = "api-get")]
    pub fn txn_get(&mut self, txn: TxnHandle, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match &mut self.engine {
            Engine::Own { core, txn: mgr } => {
                mgr.as_mut()
                    .ok_or_else(Self::txn_not_enabled)?
                    .lock_read(txn.id, key)?;
                core.kv_get(key)
            }
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => w.get(txn, key),
        }
    }

    /// Transactional remove.
    #[cfg(feature = "api-remove")]
    pub fn txn_remove(&mut self, txn: TxnHandle, key: &[u8]) -> Result<bool> {
        match &mut self.engine {
            Engine::Own { core, txn: mgr } => {
                let mgr = mgr.as_mut().ok_or_else(Self::txn_not_enabled)?;
                mgr.lock_write(txn.id, key)?;
                let Some(old) = core.kv_get(key)? else {
                    return Ok(false);
                };
                mgr.log_remove(txn.id, 0, key, old)?;
                core.kv_remove(key)
            }
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => w.remove(txn, key),
        }
    }

    /// Commit (durability per the composed commit protocol); ships the
    /// transaction's effects to replicas. MultiWriter products commit
    /// through the cross-transaction group channel.
    pub fn commit(&mut self, txn: TxnHandle) -> Result<()> {
        #[cfg(feature = "statistics")]
        let t0 = fame_obs::monotonic_ns();
        // Replication: the logged keys, read before commit drops them.
        #[cfg(feature = "replication")]
        let mut shipped = Vec::new();
        match &mut self.engine {
            Engine::Own { txn: mgr, .. } => {
                let mgr = mgr.as_mut().ok_or_else(Self::txn_not_enabled)?;
                #[cfg(feature = "replication")]
                if self.replication.is_some() {
                    shipped = mgr.write_set(txn.id)?;
                }
                mgr.commit(txn.id)?;
            }
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => w.commit(txn)?,
        }
        #[cfg(feature = "statistics")]
        self.record(
            SpanKind::TxnCommit,
            txn.id,
            fame_obs::monotonic_ns() - t0,
            0,
        );
        // Each key as the index holds it after the commit: the facade
        // holds `&mut self`, so nothing interleaves.
        #[cfg(feature = "replication")]
        for key in shipped {
            let value = self.engine.core().kv_get(&key)?;
            self.ship(&key, value.as_deref())?;
        }
        Ok(())
    }

    /// Abort: applies compensating actions to the index, and only then
    /// releases the transaction's locks, so no other transaction observes
    /// the un-undone value.
    pub fn abort(&mut self, txn: TxnHandle) -> Result<()> {
        match &mut self.engine {
            Engine::Own { core, txn: mgr } => {
                let mgr = mgr.as_mut().ok_or_else(Self::txn_not_enabled)?;
                let undo = mgr.abort(txn.id)?;
                // Released even when the undo fails: the transaction has
                // left the active table, so nothing else ever would.
                let undone = core.apply_undo(undo);
                mgr.release_locks(txn.id);
                undone?;
            }
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => w.abort(txn)?,
        }
        #[cfg(feature = "statistics")]
        self.record(SpanKind::TxnAbort, txn.id, 0, 0);
        Ok(())
    }

    /// Transaction statistics `(committed, aborted)`.
    pub fn txn_stats(&self) -> Option<(u64, u64)> {
        self.engine.txn_peek(|m| m.stats())
    }

    /// Log-device sync count (commit-protocol comparison metric).
    pub fn log_syncs(&self) -> Option<u64> {
        self.engine.txn_peek(|m| m.log_syncs())
    }

    /// Replay captured WAL records against the store (run at open).
    fn recover_from_records(
        &mut self,
        records: &[(fame_txn::Lsn, fame_txn::LogRecord)],
        resume: u64,
    ) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        /// Adapter implementing the recovery callback over the storage core.
        struct RecoverInto<'a> {
            core: &'a mut StorageCore,
            error: Option<DbmsError>,
        }

        impl fame_txn::RecoveryTarget for RecoverInto<'_> {
            fn apply_put(&mut self, _index: u8, key: &[u8], value: &[u8]) {
                if self.error.is_none() {
                    if let Err(e) = self.core.kv_put(key, value) {
                        self.error = Some(e);
                    }
                }
            }

            fn apply_remove(&mut self, _index: u8, key: &[u8]) {
                if self.error.is_none() {
                    if let Err(e) = self.core.kv_remove(key) {
                        self.error = Some(e);
                    }
                }
            }
        }
        let stats = {
            let mut core = self.engine.core();
            let mut target = RecoverInto {
                core: &mut core,
                error: None,
            };
            let stats = fame_txn::recover_records(records, resume, &mut target);
            if let Some(e) = target.error {
                return Err(e);
            }
            // Seal the recovery: force the replayed pages to disk, then
            // append terminal Aborts for the losers plus a checkpoint so
            // the *next* open replays nothing. Without this, every reopen
            // redoes winners and re-undoes losers — on a log that only
            // grows, recovery time grows without bound.
            core.pager.sync()?;
            stats
        };
        let sealed = matches!(records.last(), Some((_, fame_txn::LogRecord::Checkpoint)))
            && stats.losers.is_empty();
        if !sealed {
            self.engine
                .txn_mut(|m| m.seal_recovery(&stats.losers))
                .transpose()?;
        }
        #[cfg(feature = "statistics")]
        self.record(
            SpanKind::Recovery,
            0,
            stats.redo_applied as u64,
            stats.undo_applied as u64,
        );
        self.last_recovery = Some(stats);
        Ok(())
    }

    /// What recovery did at open, if a non-empty log was replayed.
    pub fn last_recovery(&self) -> Option<&fame_txn::RecoveryStats> {
        self.last_recovery.as_ref()
    }
}

// ---- replication (Berkeley DB REPLICATION, §2.2) ----------------------
#[cfg(feature = "replication")]
impl Database {
    /// Attach a replica; pump it with `poll()` or run it with `spawn()`
    /// (feature `replication`).
    pub fn attach_replica(&mut self) -> Result<fame_repl::Replica> {
        let r = self
            .replication
            .as_mut()
            .ok_or_else(|| DbmsError::Config("replication not enabled in config".into()))?;
        Ok(r.add_replica())
    }

    /// Replication lag: shipped minus acknowledged sequence numbers.
    pub fn replication_lag(&mut self) -> Option<u64> {
        self.replication
            .as_mut()
            .map(|p| p.last_seq() - p.commit_horizon())
    }

    /// Digest of the primary's KV state; compare with
    /// [`fame_repl::ReplicaState::digest`] to verify convergence
    /// (B+-tree index only — the digest needs a deterministic order).
    #[cfg(feature = "index-btree")]
    pub fn state_digest(&mut self) -> Result<u64> {
        let mut core = self.engine.core();
        let core = &mut *core;
        match &core.kv {
            Kv::BTree(t) => {
                let entries = t.scan(&mut core.pager, None, None)?;
                Ok(fame_repl::digest_of(
                    entries
                        .iter()
                        .map(|(k, v)| (0u8, k.as_slice(), v.as_slice())),
                ))
            }
            #[allow(unreachable_patterns)]
            _ => Err(DbmsError::Config("state digest needs the B+-tree".into())),
        }
    }

    /// Ship one write to the replicas: a put of `value`, or a remove.
    fn ship(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        if let Some(p) = &mut self.replication {
            let key = key.to_vec();
            p.ship(match value {
                Some(v) => fame_repl::ShipOp::Put {
                    index: 0,
                    key,
                    value: v.to_vec(),
                },
                None => fame_repl::ShipOp::Remove { index: 0, key },
            })?;
        }
        Ok(())
    }
}

/// An open transaction (copyable token; the manager owns the state).
#[cfg(feature = "transactions")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHandle {
    id: fame_txn::TxnId,
}

#[cfg(feature = "transactions")]
impl TxnHandle {
    /// The raw transaction id.
    pub fn id(&self) -> fame_txn::TxnId {
        self.id
    }
}

/// Shared accumulator for dropped [`DbReader`] handles' local counters
/// (feature `statistics`). Live handles count into plain handle-local
/// `u64`s — the read path writes no shared cache line, which is what
/// keeps reader scaling intact — and flush here exactly once, on
/// drop.
#[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
#[derive(Debug, Default)]
struct ReaderAccum {
    gets: std::sync::atomic::AtomicU64,
    hits: std::sync::atomic::AtomicU64,
}

/// The handle-local half: plain counters plus the `Arc` they flush into.
/// Cloning a handle starts the clone's counts at zero (the parent keeps
/// its own); dropping flushes with two Relaxed `fetch_add`s.
#[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
#[derive(Debug)]
struct ReaderObs {
    acc: std::sync::Arc<ReaderAccum>,
    gets: u64,
    hits: u64,
}

#[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
impl Clone for ReaderObs {
    fn clone(&self) -> Self {
        ReaderObs {
            acc: std::sync::Arc::clone(&self.acc),
            gets: 0,
            hits: 0,
        }
    }
}

#[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
impl Drop for ReaderObs {
    fn drop(&mut self) {
        use std::sync::atomic::Ordering::Relaxed;
        if self.gets > 0 {
            self.acc.gets.fetch_add(self.gets, Relaxed);
            self.acc.hits.fetch_add(self.hits, Relaxed);
        }
    }
}

/// A concurrent read handle obtained from [`Database::reader`] (feature
/// `concurrency-multi`).
///
/// Internally an `Arc` over the sharded pool: cloning is cheap and each
/// clone serves lookups independently. Cache hits take no latch and write
/// no shared cache line (seqlock-validated frame copies); only misses go
/// through a shard latch. The `&mut self` receivers are a formality of the
/// [`fame_storage::PageRead`] trait — no writer lock exists on this path.
#[cfg(feature = "concurrency-multi")]
#[derive(Clone)]
pub struct DbReader {
    pager: SharedPager,
    kv: Kv,
    /// Handle-local lookup counters (feature `statistics`), merged into
    /// [`Database::stats`]'s `reader_gets`/`reader_hits` when this handle
    /// drops.
    #[cfg(feature = "statistics")]
    obs: ReaderObs,
}

#[cfg(feature = "concurrency-multi")]
impl DbReader {
    /// Look up a key.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(key, |v| v.to_vec())
    }

    /// Allocation-free lookup: run `f` over the value bytes in place.
    pub fn get_with<R>(&mut self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        let found = self.kv.lookup_olc(&mut self.pager, key, f)?;
        #[cfg(feature = "statistics")]
        {
            self.obs.gets += 1;
            self.obs.hits += u64::from(found.is_some());
        }
        Ok(found)
    }

    /// `true` when the key exists.
    pub fn contains(&mut self, key: &[u8]) -> Result<bool> {
        Ok(self.get_with(key, |_| ())?.is_some())
    }

    /// Counters of the shared pool (aggregated over all handles).
    pub fn pool_stats(&self) -> fame_buffer::PoolStats {
        self.pager.pool().stats()
    }
}

/// A wait-free point-in-time read view obtained from
/// [`Database::snapshot`] (feature `concurrency-snapshot`).
///
/// Every lookup resolves pages to the newest committed version ≤ the
/// snapshot's timestamp: concurrent writers are invisible, the lock
/// table is never consulted, and the read path writes no shared cache
/// line. The versions a live snapshot may need are protected from
/// pruning; dropping the handle deregisters it and lets them go.
///
/// Not `Clone` — each snapshot registers exactly once. Take another
/// [`Database::snapshot`] for a second (possibly newer) view.
#[cfg(feature = "concurrency-snapshot")]
pub struct DbSnapshot {
    pager: fame_storage::SnapshotPager,
    kv: Kv,
}

#[cfg(feature = "concurrency-snapshot")]
impl DbSnapshot {
    /// The commit timestamp this view is pinned to.
    pub fn ts(&self) -> u64 {
        self.pager.ts()
    }

    /// Re-pin to the newest stable commit timestamp — equivalent to
    /// dropping this handle and taking a fresh [`Database::snapshot`],
    /// but callable from the owning thread (the handle is `Send`, the
    /// facade is not): polling readers advance themselves without a
    /// round-trip through `&Database`. Old versions only this snapshot
    /// kept alive are pruned on the way.
    pub fn refresh(&mut self) {
        let pool = self.pager.pool().clone();
        pool.snapshot_end(self.pager.ts());
        self.pager.repin(pool.snapshot_begin());
    }

    /// Look up a key as of this snapshot.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(key, |v| v.to_vec())
    }

    /// Allocation-free snapshot lookup: run `f` over the value bytes.
    /// The same descent as [`DbReader::get_with`], over the
    /// timestamp-pinned pager.
    pub fn get_with<R>(&mut self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        self.kv.lookup_olc(&mut self.pager, key, f)
    }

    /// `true` when the key exists in this snapshot.
    pub fn contains(&mut self, key: &[u8]) -> Result<bool> {
        Ok(self.get_with(key, |_| ())?.is_some())
    }
}

#[cfg(feature = "concurrency-snapshot")]
impl Drop for DbSnapshot {
    fn drop(&mut self) {
        // Deregister and let the pool prune whatever only this snapshot
        // kept alive.
        self.pager.pool().snapshot_end(self.pager.ts());
    }
}

/// A concurrent transactional write handle obtained from
/// [`Database::writer`] (feature `concurrency-multi-writer`).
///
/// Clones share the same storage core and transaction manager; one clone
/// per thread is the intended pattern. Every data access first takes the
/// key's block lock (S for reads, X for writes) from the blocking lock
/// table — transactions touching disjoint key ranges proceed in parallel,
/// conflicting ones wait in FIFO order, and cycles abort the youngest
/// transaction with [`fame_txn::LockError::Deadlock`]. Commits funnel
/// through the cross-transaction group channel: one WAL append and one
/// protocol sync cover every transaction in a drain.
///
/// This `impl` is the only place the MultiWriter write protocol exists
/// (the facade's own transactional API delegates here): block lock →
/// before-image under the storage mutex → WAL → tagged apply; abort =
/// undo → version release → unlock.
///
/// Lock order (deadlock-free by construction): block-lock table, then the
/// storage mutex, then the manager mutex — never the reverse.
#[cfg(feature = "concurrency-multi-writer")]
#[derive(Clone)]
pub struct DbWriter {
    storage: Arc<Mutex<StorageCore>>,
    txn: Arc<fame_txn::SharedTxnManager>,
    /// Snapshot feature: shared pool handle for releasing the versions of
    /// aborted transactions.
    #[cfg(feature = "concurrency-snapshot")]
    pool: fame_buffer::SharedBufferPool,
}

#[cfg(feature = "concurrency-multi-writer")]
impl DbWriter {
    fn storage(&self) -> std::sync::MutexGuard<'_, StorageCore> {
        self.storage.lock().expect("storage mutex poisoned")
    }

    /// Run a storage apply of `txn`. Snapshot feature: the apply is tagged
    /// with the owning transaction, so the pool captures pre-images for
    /// the version chains.
    fn tagged<R>(txn: TxnHandle, apply: impl FnOnce() -> R) -> R {
        #[cfg(feature = "concurrency-snapshot")]
        let _scope = fame_buffer::TxnWriteScope::new(txn.id);
        #[cfg(not(feature = "concurrency-snapshot"))]
        let _ = txn;
        apply()
    }

    /// Start a transaction.
    pub fn begin(&self) -> Result<TxnHandle> {
        Ok(TxnHandle {
            id: self.txn.begin()?,
        })
    }

    /// Start a transaction that retries aborted transaction `parent`
    /// (deadlock victim or lock timeout). Behaviorally identical to
    /// [`DbWriter::begin`]; with the `obs-trace` feature the new
    /// transaction's causal span chain is spliced onto the aborted one's
    /// via a `retry` event — the link E13 asserts on when reconstructing
    /// `lock-wait → deadlock-victim → retry → txn-commit`.
    pub fn begin_retry(&self, parent: TxnHandle) -> Result<TxnHandle> {
        Ok(TxnHandle {
            id: self.txn.begin_retry(parent.id)?,
        })
    }

    /// Transactional put: block lock, WAL, then apply.
    #[cfg(feature = "api-put")]
    pub fn put(&self, txn: TxnHandle, key: &[u8], value: &[u8]) -> Result<()> {
        self.txn.lock_write(txn.id, key)?;
        let mut core = self.storage();
        let old = core.kv_get(key)?;
        self.txn
            .with_inner(|m| m.log_put(txn.id, 0, key, old, value))?;
        Self::tagged(txn, || core.kv_put(key, value))?;
        Ok(())
    }

    /// Transactional get (takes the shared block lock).
    #[cfg(feature = "api-get")]
    pub fn get(&self, txn: TxnHandle, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.txn.lock_read(txn.id, key)?;
        self.storage().kv_get(key)
    }

    /// Transactional remove; `false` if the key was absent.
    #[cfg(feature = "api-remove")]
    pub fn remove(&self, txn: TxnHandle, key: &[u8]) -> Result<bool> {
        self.txn.lock_write(txn.id, key)?;
        let mut core = self.storage();
        let Some(old) = core.kv_get(key)? else {
            return Ok(false);
        };
        self.txn.with_inner(|m| m.log_remove(txn.id, 0, key, old))?;
        Self::tagged(txn, || core.kv_remove(key))
    }

    /// [`Database::apply_batch`] of a MultiWriter product: the batch as
    /// one transaction of this protocol. Every key is X-locked *before*
    /// existence and before-images are read, so the batch never acts on
    /// another writer's uncommitted data; any failure rolls back through
    /// [`DbWriter::abort`].
    #[cfg(feature = "api-batch")]
    fn apply_batch(&self, batch: WriteBatch) -> Result<()> {
        let txn = self.begin()?;
        let logged_and_applied = (|| -> Result<()> {
            for (key, _) in &batch.ops {
                self.txn.lock_write(txn.id, key)?;
            }
            let mut core = self.storage();
            let resolved = core.resolve_batch(batch)?;
            let (writes, apply) = core.batch_writes(&resolved)?;
            if !writes.is_empty() {
                // The keys are X-locked already: log under the manager mutex.
                self.txn.with_inner(|m| m.log_batch(txn.id, &writes))?;
                Self::tagged(txn, || core.kv_apply_bulk(apply))?;
            }
            Ok(())
        })();
        match logged_and_applied {
            // A group-commit drain already counts as one commit toward the
            // Group quota, which is exactly the batch accounting.
            Ok(()) => self.commit(txn),
            Err(e) => {
                let _ = self.abort(txn);
                Err(e)
            }
        }
    }

    /// Commit through the group channel. On success the transaction's
    /// block locks are released; on failure it stays active with locks
    /// held, so the caller can retry the commit or abort.
    pub fn commit(&self, txn: TxnHandle) -> Result<()> {
        Ok(self.txn.commit(txn.id)?)
    }

    /// Run `body` inside `txn`, commit, and retry the whole transaction
    /// on lock conflicts: a deadlock-victim or timeout abort rolls the
    /// transaction back, sleeps a bounded exponential backoff (50 µs
    /// doubling up to ~3.2 ms), and replays `body` under a fresh
    /// transaction spliced onto the aborted one's span chain via
    /// [`DbWriter::begin_retry`] — so E13's
    /// `lock-wait → deadlock-victim → retry → txn-commit` causal
    /// reconstruction keeps working across retries.
    ///
    /// Returns the handle of the transaction that finally committed.
    /// After `max_retries` retries the last lock error is returned; any
    /// non-lock error aborts and returns immediately. In every error
    /// case the transaction has been rolled back and its locks released.
    ///
    /// `body` must be idempotent in the usual transactional sense: it is
    /// re-run from scratch against the rolled-back state on each retry.
    pub fn commit_with_retry(
        &self,
        txn: TxnHandle,
        max_retries: u32,
        mut body: impl FnMut(&DbWriter, TxnHandle) -> Result<()>,
    ) -> Result<TxnHandle> {
        let mut txn = txn;
        let mut attempt = 0u32;
        loop {
            match body(self, txn).and_then(|()| self.commit(txn)) {
                Ok(()) => return Ok(txn),
                Err(e @ DbmsError::Txn(fame_txn::TxnError::Lock(_))) => {
                    let _ = self.abort(txn);
                    if attempt >= max_retries {
                        return Err(e);
                    }
                    // Cap the shift so the backoff stays bounded (and the
                    // shift defined) for any retry budget.
                    std::thread::sleep(std::time::Duration::from_micros(50u64 << attempt.min(6)));
                    txn = self.begin_retry(txn)?;
                    attempt += 1;
                }
                Err(e) => {
                    let _ = self.abort(txn);
                    return Err(e);
                }
            }
        }
    }

    /// Abort: applies the undo under the storage mutex, then releases the
    /// block locks (never the other way round — a waiter granted early
    /// would read the un-undone value).
    pub fn abort(&self, txn: TxnHandle) -> Result<()> {
        let undo = self.txn.abort(txn.id)?;
        // Snapshot feature: undo writes stay tagged with the aborting
        // transaction — pages the undo touches for the first time (e.g. a
        // split during the rollback) capture their pre-image under the
        // same pending streak, released below in one step.
        let undone = Self::tagged(txn, || self.storage().apply_undo(undo));
        // The heads now hold the restored pre-state; mark the pages
        // committed again so snapshot reads stop detouring to the chains.
        #[cfg(feature = "concurrency-snapshot")]
        self.pool.release_aborted_txn(txn.id);
        self.txn.release_locks(txn.id);
        undone
    }

    /// `(committed, aborted)` counters of the shared manager.
    pub fn txn_stats(&self) -> (u64, u64) {
        self.txn.with_inner(|m| m.stats())
    }

    /// Log-device sync count (group-commit comparison metric).
    pub fn log_syncs(&self) -> u64 {
        self.txn.with_inner(|m| m.log_syncs())
    }

    /// Block-lock counters (feature `statistics`).
    #[cfg(feature = "statistics")]
    fn lock_stats(&self) -> LockStats {
        let obs = self.txn.lock_table().obs();
        LockStats {
            waits: obs.waits.get(),
            wait_time: obs.wait_time.snapshot(),
            deadlock_aborts: obs.deadlock_aborts.get(),
            timeout_aborts: obs.timeout_aborts.get(),
        }
    }
}

/// Borrowed handle to the queue access method. Holds the storage guard
/// for its lifetime, so in MultiWriter products concurrent writers block
/// until the handle is dropped.
#[cfg(feature = "index-queue")]
pub struct QueueHandle<'a> {
    queue: fame_storage::Queue,
    core: CoreRef<'a>,
}

#[cfg(feature = "index-queue")]
impl QueueHandle<'_> {
    /// Append a record; returns its record number.
    pub fn push(&mut self, record: &[u8]) -> Result<u64> {
        Ok(self.queue.push(&mut self.core.pager, record)?)
    }

    /// Remove and return the oldest record.
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.queue.pop(&mut self.core.pager)?)
    }

    /// Read the oldest record without consuming it.
    pub fn peek(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.queue.peek(&mut self.core.pager)?)
    }

    /// Random access by record number.
    pub fn get(&mut self, recno: u64) -> Result<Option<Vec<u8>>> {
        Ok(self.queue.get(&mut self.core.pager, recno)?)
    }

    /// Live records.
    pub fn len(&mut self) -> Result<u64> {
        Ok(self.queue.len(&mut self.core.pager)?)
    }

    /// `true` when empty.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.queue.is_empty(&mut self.core.pager)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::open(DbmsConfig::default_for_build()).unwrap()
    }

    #[cfg(all(feature = "api-put", feature = "api-get", feature = "api-remove"))]
    #[test]
    fn put_get_remove_round_trip() {
        let mut d = db();
        d.put(b"k1", b"v1").unwrap();
        d.put(b"k2", b"v2").unwrap();
        assert_eq!(d.get(b"k1").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(d.len().unwrap(), 2);
        assert!(d.remove(b"k1").unwrap());
        assert!(!d.remove(b"k1").unwrap());
        assert_eq!(d.get(b"k1").unwrap(), None);
    }

    #[cfg(all(feature = "api-put", feature = "api-update", feature = "api-get"))]
    #[test]
    fn update_only_touches_existing() {
        let mut d = db();
        assert!(!d.update(b"ghost", b"x").unwrap());
        d.put(b"k", b"v1").unwrap();
        assert!(d.update(b"k", b"v2").unwrap());
        assert_eq!(d.get(b"k").unwrap(), Some(b"v2".to_vec()));
    }

    #[cfg(all(feature = "api-put", feature = "api-get", feature = "index-btree"))]
    #[test]
    fn scan_is_ordered() {
        let mut d = db();
        for i in [5u32, 1, 9, 3] {
            d.put(&i.to_be_bytes(), b"x").unwrap();
        }
        let all = d.scan(None, None).unwrap();
        let keys: Vec<u32> = all
            .iter()
            .map(|(k, _)| u32::from_be_bytes(k[..4].try_into().unwrap()))
            .collect();
        assert_eq!(keys, [1, 3, 5, 9]);
    }

    #[cfg(all(feature = "sql", feature = "api-put"))]
    #[test]
    fn sql_end_to_end() {
        let mut d = db();
        d.sql("CREATE TABLE t (id U32, v TEXT)").unwrap();
        d.sql("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        let out = d.sql("SELECT v FROM t WHERE id = 2").unwrap();
        let rows = out.rows().unwrap();
        assert_eq!(rows[0][0], fame_storage::Value::Str("two".into()));
    }

    #[cfg(all(
        feature = "transactions",
        feature = "commit-force",
        feature = "api-put",
        feature = "api-get",
        feature = "api-remove"
    ))]
    #[test]
    fn transaction_commit_and_abort() {
        use crate::config::TxnConfig;
        let mut cfg = DbmsConfig::default_for_build();
        cfg.transactions = Some(TxnConfig {
            commit: fame_txn::CommitPolicy::Force,
        });
        let mut d = Database::open(cfg).unwrap();

        let t = d.begin().unwrap();
        d.txn_put(t, b"a", b"1").unwrap();
        d.commit(t).unwrap();
        assert_eq!(d.get(b"a").unwrap(), Some(b"1".to_vec()));

        let t = d.begin().unwrap();
        d.txn_put(t, b"a", b"2").unwrap();
        d.txn_put(t, b"b", b"new").unwrap();
        d.txn_remove(t, b"a").unwrap();
        d.abort(t).unwrap();
        assert_eq!(d.get(b"a").unwrap(), Some(b"1".to_vec()), "abort restored");
        assert_eq!(d.get(b"b").unwrap(), None, "created key rolled back");
        assert_eq!(d.txn_stats(), Some((1, 1)));
    }

    /// A `TxnHandle` is a plain token, so one can reach an instance opened
    /// without transactions; every call must answer with a typed error.
    #[cfg(all(
        feature = "transactions",
        feature = "commit-force",
        feature = "api-put",
        feature = "api-get",
        feature = "api-remove"
    ))]
    #[test]
    fn foreign_txn_handle_is_a_config_error_not_a_panic() {
        let mut cfg = DbmsConfig::default_for_build();
        cfg.transactions = Some(crate::config::TxnConfig {
            commit: fame_txn::CommitPolicy::Force,
        });
        let foreign = Database::open(cfg).unwrap().begin().unwrap();

        let mut d = db();
        let is_config = |r: Result<()>| matches!(r, Err(DbmsError::Config(_)));
        assert!(is_config(d.begin().map(|_| ())));
        assert!(is_config(d.txn_put(foreign, b"k", b"v")));
        assert!(is_config(d.txn_get(foreign, b"k").map(|_| ())));
        assert!(is_config(d.txn_remove(foreign, b"k").map(|_| ())));
        assert!(is_config(d.commit(foreign)));
        assert!(is_config(d.abort(foreign)));
        assert_eq!(d.get(b"k").unwrap(), None);
    }

    #[cfg(all(
        feature = "concurrency-multi-writer",
        feature = "commit-force",
        feature = "api-put",
        feature = "api-get",
        feature = "api-remove"
    ))]
    #[test]
    fn multi_writer_handles_commit_concurrently() {
        use crate::config::TxnConfig;
        fn assert_send<T: Send>(_: &T) {}

        let mut cfg = DbmsConfig::default_for_build();
        cfg.concurrency = fame_buffer::Concurrency::MultiWriter { shards: 0 };
        cfg.transactions = Some(TxnConfig {
            commit: fame_txn::CommitPolicy::Force,
        });
        let mut d = Database::open(cfg).unwrap();
        let w = d.writer().unwrap();
        assert_send(&w);

        let threads = 4;
        let per = 20;
        std::thread::scope(|s| {
            for t in 0..threads {
                let w = w.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let txn = w.begin().unwrap();
                        let key = format!("w{t}-{i}").into_bytes();
                        w.put(txn, &key, b"v").unwrap();
                        assert_eq!(w.get(txn, &key).unwrap(), Some(b"v".to_vec()));
                        w.commit(txn).unwrap();
                    }
                });
            }
        });
        assert_eq!(w.txn_stats(), (threads * per, 0));
        assert_eq!(d.len().unwrap(), (threads * per) as usize);

        // The facade's own transactional API rides the same shared path.
        let t = d.begin().unwrap();
        d.txn_put(t, b"facade", b"1").unwrap();
        d.commit(t).unwrap();
        assert_eq!(d.get(b"facade").unwrap(), Some(b"1".to_vec()));

        // Abort through a writer handle restores the old value.
        let t = w.begin().unwrap();
        let w2 = w.clone();
        w2.put(t, b"facade", b"2").unwrap();
        assert!(w2.remove(t, b"facade").unwrap());
        w2.abort(t).unwrap();
        assert_eq!(d.get(b"facade").unwrap(), Some(b"1".to_vec()));

        assert!(d.verify_integrity().unwrap().violations.is_empty());
    }

    #[cfg(all(
        feature = "concurrency-multi-writer",
        feature = "api-put",
        feature = "api-get"
    ))]
    #[test]
    fn writer_requires_multi_writer_concurrency() {
        let d = db();
        assert!(d.writer().is_err(), "Single product has no write handles");
    }

    #[cfg(all(feature = "api-batch", feature = "api-get", feature = "api-remove"))]
    #[test]
    fn batch_applies_net_effect() {
        let mut d = db();
        d.put(b"keep", b"0").unwrap();
        d.put(b"gone", b"0").unwrap();
        let mut b = WriteBatch::new();
        b.put(b"a", b"1")
            .put(b"b", b"2")
            .remove(b"gone")
            .put(b"a", b"3") // last write wins
            .put(b"c", b"4")
            .remove(b"c"); // net effect: nothing
        assert_eq!(b.len(), 6);
        d.apply_batch(b).unwrap();
        assert_eq!(d.get(b"a").unwrap(), Some(b"3".to_vec()));
        assert_eq!(d.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(d.get(b"gone").unwrap(), None);
        assert_eq!(d.get(b"c").unwrap(), None);
        assert_eq!(d.get(b"keep").unwrap(), Some(b"0".to_vec()));
        assert_eq!(d.len().unwrap(), 3);
    }

    #[cfg(all(feature = "api-batch", feature = "api-update", feature = "api-get"))]
    #[test]
    fn batch_update_of_missing_key_applies_nothing() {
        let mut d = db();
        let mut b = WriteBatch::new();
        b.put(b"x", b"1").update(b"ghost", b"2");
        assert!(d.apply_batch(b).is_err());
        assert_eq!(d.get(b"x").unwrap(), None, "all-or-nothing");
        // An update of a key created earlier in the same batch succeeds.
        let mut b = WriteBatch::new();
        b.put(b"y", b"1").update(b"y", b"2");
        d.apply_batch(b).unwrap();
        assert_eq!(d.get(b"y").unwrap(), Some(b"2".to_vec()));
    }

    #[cfg(all(
        feature = "api-batch",
        feature = "transactions",
        feature = "commit-force",
        feature = "api-get",
        feature = "api-remove",
        feature = "statistics"
    ))]
    #[test]
    fn batch_commit_is_one_sync_and_counted() {
        use crate::config::TxnConfig;
        let mut cfg = DbmsConfig::default_for_build();
        cfg.transactions = Some(TxnConfig {
            commit: fame_txn::CommitPolicy::Force,
        });
        let mut d = Database::open(cfg).unwrap();
        let syncs0 = d.log_syncs().unwrap();
        let mut b = WriteBatch::new();
        for i in 0u32..64 {
            b.put(&i.to_be_bytes(), &[7u8; 8]);
        }
        d.apply_batch(b).unwrap();
        assert_eq!(
            d.log_syncs().unwrap() - syncs0,
            1,
            "64 writes, one log sync"
        );
        assert_eq!(d.len().unwrap(), 64);
        let s = d.stats().unwrap();
        assert_eq!(s.batches, 1);
        assert_eq!(s.batch_ops, 64);
        assert_eq!(s.batch_latency.count, 1);
        let tsv = s.to_tsv();
        assert!(tsv.contains("batch.batches\t1"), "{tsv}");
        assert!(tsv.contains("batch.ops\t64"), "{tsv}");
        // The batch is one committed transaction.
        assert_eq!(d.txn_stats(), Some((1, 0)));
    }

    #[cfg(all(
        feature = "api-batch",
        feature = "replication",
        feature = "api-get",
        feature = "api-remove",
        feature = "index-btree"
    ))]
    #[test]
    fn batch_ships_to_replicas() {
        let mut cfg = DbmsConfig::default_for_build();
        cfg.replication = Some(fame_repl::AckPolicy::Asynchronous);
        let mut d = Database::open(cfg).unwrap();
        let mut replica = d.attach_replica().unwrap();
        d.put(b"x", b"1").unwrap();
        let mut b = WriteBatch::new();
        b.put(b"y", b"2").remove(b"x");
        d.apply_batch(b).unwrap();
        replica.poll();
        assert_eq!(replica.state().digest(), d.state_digest().unwrap());
    }

    #[cfg(all(
        feature = "replication",
        feature = "api-put",
        feature = "api-remove",
        feature = "index-btree"
    ))]
    #[test]
    fn replication_converges() {
        let mut cfg = DbmsConfig::default_for_build();
        cfg.replication = Some(fame_repl::AckPolicy::Asynchronous);
        let mut d = Database::open(cfg).unwrap();
        let mut replica = d.attach_replica().unwrap();
        d.put(b"x", b"1").unwrap();
        d.put(b"y", b"2").unwrap();
        d.remove(b"x").unwrap();
        replica.poll();
        assert_eq!(replica.state().get(0, b"y"), Some(&b"2".to_vec()));
        assert_eq!(replica.state().get(0, b"x"), None);
        assert_eq!(replica.state().digest(), d.state_digest().unwrap());
    }

    #[cfg(feature = "index-queue")]
    #[test]
    fn queue_handle_works() {
        let mut d = db();
        let mut q = d.queue(8).unwrap();
        q.push(&[1u8; 8]).unwrap();
        q.push(&[2u8; 8]).unwrap();
        assert_eq!(q.peek().unwrap(), Some(vec![1u8; 8]));
        assert_eq!(q.pop().unwrap(), Some(vec![1u8; 8]));
        assert_eq!(q.len().unwrap(), 1);
    }

    #[cfg(all(feature = "statistics", feature = "api-put"))]
    #[test]
    fn stats_report_reflects_activity() {
        let mut d = db();
        for i in 0u32..50 {
            d.put(&i.to_be_bytes(), &[1u8; 8]).unwrap();
        }
        let s = d.stats().unwrap();
        assert_eq!(s.keys, 50);
        assert!(s.allocated_pages >= 2);
        assert!(s.pool.hits + s.pool.misses > 0);
        let rendered = s.to_string();
        assert!(rendered.contains("50 keys"), "{rendered}");
        assert!(rendered.contains("buffer:"), "{rendered}");
    }

    #[cfg(all(feature = "statistics", feature = "api-put", feature = "api-get"))]
    #[test]
    fn stats_snapshot_covers_all_layers() {
        let mut d = db();
        for i in 0u32..100 {
            d.put(&i.to_be_bytes(), &[7u8; 16]).unwrap();
        }
        for i in 0u32..100 {
            assert!(d.get(&i.to_be_bytes()).unwrap().is_some());
        }
        d.sync().unwrap();

        let s = d.stats().unwrap();
        assert!(s.pager_ops.page_reads > 0, "pager reads counted");
        assert!(s.pager_ops.allocs > 0, "pager allocs counted");
        assert!(s.frames > 0);
        assert_eq!(s.frame_bytes, s.frames * s.page_size);
        // 100 puts + 100 gets + 1 sync flowed through the trace ring.
        assert_eq!(s.ops_traced, 201);
        let trace = d.op_trace();
        assert!(!trace.is_empty());
        assert!(trace.len() <= d.config().stats.trace_capacity.max(1));
        // Ring holds the most recent events: the last one is the sync.
        assert_eq!(trace.last().unwrap().kind, SpanKind::Sync);
        // One ring, one ticket sequence: `seq` counts every recorded op.
        assert_eq!(trace.last().unwrap().seq, 200);
        assert!(trace.windows(2).all(|w| w[0].seq + 1 == w[1].seq));

        // Integrity findings are absent until verified, cached afterwards.
        assert!(s.integrity.is_none());
        d.verify_integrity().unwrap();
        let s2 = d.stats().unwrap();
        let integ = s2.integrity.expect("cached after verify_integrity");
        assert_eq!(integ.violations, 0);

        let tsv = s2.to_tsv();
        for key in [
            "pool.hits\t",
            "pool.latch_waits\t",
            "pager.page_reads\t",
            "io.read.count\t",
            "ops_traced\t",
            "integrity.violations\t0",
        ] {
            assert!(tsv.contains(key), "missing {key:?} in:\n{tsv}");
        }
    }

    #[cfg(all(feature = "statistics", feature = "api-put", feature = "api-get"))]
    #[test]
    fn stats_counters_never_decrease() {
        let mut d = db();
        let mut prev = d.stats().unwrap();
        for round in 0u32..20 {
            for i in 0..50u32 {
                d.put(&(round * 50 + i).to_be_bytes(), &[3u8; 8]).unwrap();
                d.get(&i.to_be_bytes()).unwrap();
            }
            let s = d.stats().unwrap();
            assert!(s.pool.hits >= prev.pool.hits);
            assert!(s.pool.misses >= prev.pool.misses);
            assert!(s.pool.evictions >= prev.pool.evictions);
            assert!(s.pool.writebacks >= prev.pool.writebacks);
            assert!(s.pager_ops.page_reads >= prev.pager_ops.page_reads);
            assert!(s.ops_traced > prev.ops_traced);
            prev = s;
        }
    }

    #[test]
    fn pool_stats_available() {
        let mut d = db();
        let _ = d.len().unwrap();
        let s = d.pool_stats();
        assert!(s.hits + s.misses > 0 || d.device_stats().reads > 0);
    }
}
