//! The [`Database`] facade: one product instance.
//!
//! This file is the base every product has: the storage core and its one
//! index dispatch, the engine, `open`, `sync`, `verify_integrity`, the raw
//! byte-string API and the pool counters. Each optional feature refines it
//! from a file of its own under `db/`, gated once at its `mod` line — the
//! feature modules of the paper's §2.2 (DESIGN.md §5 maps feature to
//! file).

use std::ops::{Deref, DerefMut};

use fame_os::BlockDevice;
use fame_storage::Pager;

use crate::config::{DbmsConfig, IndexKind};
use crate::error::{DbmsError, Result};
use crate::factory::{make_device, make_pool};

/// Record an op at the facade's one recording point, [`Database::record`]
/// (feature `statistics`); expands to nothing without the feature.
macro_rules! record {
    ($db:expr, $kind:ident, $($arg:expr),+) => {
        #[cfg(feature = "statistics")]
        $db.record(fame_obs::SpanKind::$kind, $($arg),+)
    };
}

/// The one step after a facade write — `put`, `remove`, `update`, a batch,
/// a commit: ship the keys `$written` yields to the replicas, each with its
/// value as the index now holds it (feature `replication`), then record
/// the op (feature `statistics`). Evaluates to `Result<()>`.
macro_rules! after_write {
    ($db:expr, $written:expr, $kind:ident, $($arg:expr),+) => {{
        #[cfg(feature = "replication")]
        $db.ship_keys($written)?;
        record!($db, $kind, $($arg),+);
        $crate::error::Result::<()>::Ok(())
    }};
}

/// The one dispatch point over the composed primary indexes: `$ix` binds
/// the index and `$Ix` names its type (for its associated functions);
/// `$body` is the same for every access method, whose operations share
/// their names and shapes.
macro_rules! on_kv {
    ($kv:expr, $ix:pat, $Ix:ident => $body:expr) => {
        match $kv {
            #[cfg(feature = "index-btree")]
            $crate::db::Kv::BTree($ix) => {
                type $Ix = fame_storage::BTree;
                $body
            }
            #[cfg(feature = "index-list")]
            $crate::db::Kv::List($ix) => {
                type $Ix = fame_storage::ListIndex;
                $body
            }
            #[cfg(feature = "index-hash")]
            $crate::db::Kv::Hash($ix) => {
                type $Ix = fame_storage::HashIndex;
                $body
            }
        }
    };
    ($kv:expr, $ix:pat => $body:expr) => {
        on_kv!($kv, $ix, _Ix => $body)
    };
}

#[cfg(feature = "api-batch")]
mod batch;
#[cfg(feature = "index-queue")]
mod queue;
#[cfg(feature = "concurrency-multi")]
mod reader;
#[cfg(feature = "replication")]
mod repl;
#[cfg(feature = "concurrency-snapshot")]
mod snapshot;
#[cfg(feature = "sql")]
mod sql;
#[cfg(feature = "statistics")]
mod stats;
#[cfg(feature = "obs-trace")]
mod trace;
#[cfg(feature = "transactions")]
mod txn;
#[cfg(feature = "concurrency-multi-writer")]
mod writer;

#[cfg(feature = "api-batch")]
pub use batch::WriteBatch;
#[cfg(feature = "index-queue")]
pub use queue::QueueHandle;
#[cfg(feature = "concurrency-multi")]
pub use reader::DbReader;
#[cfg(feature = "concurrency-snapshot")]
pub use snapshot::DbSnapshot;
#[cfg(all(feature = "concurrency-multi-writer", feature = "statistics"))]
pub use stats::LockStats;
#[cfg(feature = "statistics")]
pub use stats::{IntegritySummary, StatsSnapshot};
#[cfg(feature = "transactions")]
pub use txn::TxnHandle;
#[cfg(feature = "concurrency-multi-writer")]
pub use writer::DbWriter;

/// Root slot of the primary key/value index.
const KV_ROOT_SLOT: usize = 0;

/// The primary index: whichever access method the configuration picked.
/// `Copy`: read handles carry their own. Only the B+-tree's root page can
/// move (splits), which the optimistic descent re-resolves per lookup.
#[derive(Clone, Copy)]
enum Kv {
    #[cfg(feature = "index-btree")]
    BTree(fame_storage::BTree),
    #[cfg(feature = "index-list")]
    List(fame_storage::ListIndex),
    #[cfg(feature = "index-hash")]
    Hash(fame_storage::HashIndex),
}

impl Kv {
    /// Open the configured index, or create it in a fresh image.
    fn open(pager: &mut Pager, kind: &IndexKind) -> Result<Kv> {
        let exists = pager.root(KV_ROOT_SLOT)?.is_some();
        Ok(match *kind {
            #[cfg(feature = "index-btree")]
            IndexKind::BTree => Kv::BTree(if exists {
                fame_storage::BTree::open(pager, KV_ROOT_SLOT)?
            } else {
                fame_storage::BTree::create(pager, KV_ROOT_SLOT)?
            }),
            #[cfg(feature = "index-list")]
            IndexKind::List => Kv::List(if exists {
                fame_storage::ListIndex::open(pager, KV_ROOT_SLOT)?
            } else {
                fame_storage::ListIndex::create(pager, KV_ROOT_SLOT)?
            }),
            #[cfg(feature = "index-hash")]
            IndexKind::Hash { buckets } => Kv::Hash(if exists {
                fame_storage::HashIndex::open(pager, KV_ROOT_SLOT)?
            } else {
                fame_storage::HashIndex::create(pager, KV_ROOT_SLOT, buckets)?
            }),
        })
    }

    /// `Err(FeatureNotCompiled(feature))` for a write the B+-tree cannot
    /// take because its sub-feature `feature` (Fig. 2: *B+-Tree → update,
    /// remove*) was composed out, i.e. `compiled` is false.
    fn composed(&self, compiled: bool, feature: &'static str) -> Result<()> {
        match (self, (!compiled).then_some(feature)) {
            #[cfg(feature = "index-btree")]
            (Kv::BTree(_), Some(feature)) => Err(DbmsError::FeatureNotCompiled(feature)),
            _ => Ok(()),
        }
    }

    /// The B+-tree, for the operations only it offers (ordered scans, the
    /// bulk apply, the replica digest); `None` under a list or hash index.
    #[cfg(feature = "index-btree")]
    fn btree(&mut self) -> Option<&mut fame_storage::BTree> {
        match self {
            Kv::BTree(t) => Some(t),
            #[cfg(any(feature = "index-list", feature = "index-hash"))]
            _ => None,
        }
    }
}

/// The storage half of a product: the pager plus the composed primary
/// index.
struct StorageCore {
    pager: Pager,
    kv: Kv,
}

impl StorageCore {
    #[cfg(any(feature = "api-put", feature = "api-update", feature = "transactions"))]
    fn kv_put(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        self.kv
            .composed(cfg!(feature = "btree-update"), "btree-update")?;
        Ok(on_kv!(&mut self.kv, ix => ix.insert(&mut self.pager, key, value)?))
    }

    #[cfg(any(
        feature = "api-update",
        feature = "transactions",
        feature = "api-batch",
        feature = "replication"
    ))]
    fn kv_get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(on_kv!(&self.kv, ix => ix.get_with(&mut self.pager, key, |v| v.to_vec())?))
    }

    #[cfg(any(
        feature = "api-remove",
        feature = "transactions",
        feature = "api-batch"
    ))]
    fn kv_remove(&mut self, key: &[u8]) -> Result<bool> {
        self.kv
            .composed(cfg!(feature = "btree-remove"), "btree-remove")?;
        Ok(on_kv!(&mut self.kv, ix => ix.remove(&mut self.pager, key)?))
    }

    /// Put `key` = `value`, or remove `key` when `value` is `None`.
    #[cfg(any(feature = "transactions", feature = "api-batch"))]
    fn kv_set(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<bool> {
        match value {
            Some(value) => self.kv_put(key, value),
            None => self.kv_remove(key),
        }
    }

    fn len(&mut self) -> Result<usize> {
        Ok(on_kv!(&self.kv, ix => ix.len(&mut self.pager)?))
    }
}

/// The one engine behind the facade (*Concurrency* alternative, Fig. 2
/// extension): one write protocol, two lock faces. The protocol is the
/// `StorageCore` routines; [`Database`] runs them over `Own` with no-wait
/// locks, the owned manager and direct commit, [`DbWriter`] over `Shared`
/// with blocking locks, the manager's mutex and group commit.
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
    /// What recovery did at open (feature `transactions`).
    #[cfg(feature = "transactions")]
    last_recovery: Option<fame_txn::RecoveryStats>,
    #[cfg(feature = "replication")]
    replication: Option<fame_repl::Primary>,
    /// The SQL engine, opened on first use: not every instance runs SQL.
    #[cfg(feature = "sql")]
    sql: Option<fame_query::SqlEngine>,
    /// Everything the Statistics feature keeps (feature `statistics`).
    #[cfg(feature = "statistics")]
    obs: stats::Obs,
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
        Self::open_with_devices(config, device, log_device)
    }

    /// Open over caller-supplied devices instead of the configured ones.
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
        #[cfg(feature = "statistics")]
        let (device, obs) = stats::Obs::observe(device);
        #[cfg(feature = "transactions")]
        let (device, txn, replay) = txn::open_log(&config, device, log_device)?;
        #[cfg(not(feature = "transactions"))]
        drop(log_device);

        let mut pager = Pager::open(make_pool(&config, device))?;
        let kv = Kv::open(&mut pager, &config.index)?;
        let engine = Engine::Own {
            core: StorageCore { pager, kv },
            #[cfg(feature = "transactions")]
            txn,
        };
        #[cfg(feature = "concurrency-multi-writer")]
        let engine = engine.into_shared(&config)?;

        let db = Database {
            engine,
            #[cfg(feature = "transactions")]
            last_recovery: None,
            #[cfg(feature = "replication")]
            replication: config.replication.map(fame_repl::Primary::new),
            #[cfg(feature = "sql")]
            sql: None,
            #[cfg(feature = "statistics")]
            obs,
            config,
        };
        #[cfg(feature = "obs-trace")]
        db.install_spans();
        #[cfg(feature = "transactions")]
        let db = db.recovered(replay)?;
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
        record!(self, Sync, 0, 0, 0);
        Ok(())
    }

    /// Walk the whole storage image and report every violated structural
    /// invariant (meta page, free list, index structures). The crash-torture
    /// harness runs this after every simulated crash + recovery.
    pub fn verify_integrity(&mut self) -> Result<fame_storage::IntegrityReport> {
        let report = fame_storage::check_pager(&mut self.engine.core().pager)?;
        #[cfg(feature = "statistics")]
        self.obs.integrity_checked(&report);
        Ok(report)
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
        after_write!(self, [key], Put, 0, key.len() as u64, value.len() as u64)
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
            on_kv!(&core.kv, ix => ix.get_with(&mut core.pager, key, f)?)
        };
        record!(self, Get, 0, key.len() as u64, found.is_some() as u64);
        Ok(found)
    }

    /// Remove a key; returns whether it existed (feature `api-remove`).
    #[cfg(feature = "api-remove")]
    pub fn remove(&mut self, key: &[u8]) -> Result<bool> {
        let removed = self.engine.core().kv_remove(key)?;
        after_write!(
            self,
            removed.then_some(key),
            Remove,
            0,
            key.len() as u64,
            removed as u64
        )?;
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
        after_write!(self, [key], Update, 0, key.len() as u64, value.len() as u64).map(|()| true)
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
        let tree = core
            .kv
            .btree()
            .ok_or_else(|| DbmsError::Config("range scans need the B+-tree index".into()))?;
        Ok(tree.scan(&mut core.pager, start, end)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::open(DbmsConfig::default_for_build()).unwrap()
    }

    /// The default configuration with force-commit transactions.
    #[cfg(feature = "commit-force")]
    fn force_txns() -> DbmsConfig {
        let mut cfg = DbmsConfig::default_for_build();
        cfg.transactions = Some(crate::TxnConfig {
            commit: fame_txn::CommitPolicy::Force,
        });
        cfg
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
        feature = "commit-force",
        feature = "api-put",
        feature = "api-get",
        feature = "api-remove"
    ))]
    #[test]
    fn transaction_commit_and_abort() {
        let mut d = Database::open(force_txns()).unwrap();

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
        feature = "commit-force",
        feature = "api-put",
        feature = "api-get",
        feature = "api-remove"
    ))]
    #[test]
    fn foreign_txn_handle_is_a_config_error_not_a_panic() {
        let foreign = Database::open(force_txns()).unwrap().begin().unwrap();

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
        fn assert_send<T: Send>(_: &T) {}

        let mut cfg = force_txns();
        cfg.concurrency = fame_buffer::Concurrency::MultiWriter { shards: 0 };
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

    #[cfg(feature = "concurrency-multi-writer")]
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
        feature = "commit-force",
        feature = "statistics"
    ))]
    #[test]
    fn batch_commit_is_one_sync_and_counted() {
        let mut d = Database::open(force_txns()).unwrap();
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

    /// A batch X-locks every submitted key before it reads: against an
    /// open transaction's removals it fails with the conflict, logging no
    /// write and applying nothing. A batch that nets to no write is still
    /// one committed transaction, in both engines.
    #[cfg(all(
        feature = "api-batch",
        feature = "commit-force",
        feature = "api-get",
        feature = "api-remove",
        feature = "api-update",
        feature = "statistics"
    ))]
    #[test]
    fn batch_never_reads_an_open_transactions_writes() {
        use fame_txn::TxnError;
        let cfg = force_txns();
        let mut d = Database::open(cfg.clone()).unwrap();
        let (mut setup, mut remove_k, mut update_u) =
            (WriteBatch::new(), WriteBatch::new(), WriteBatch::new());
        setup.put(b"k", b"0").put(b"u", b"0");
        remove_k.remove(b"k");
        update_u.update(b"u", b"1");
        d.apply_batch(setup).unwrap();
        let t1 = d.begin().unwrap();
        assert!(d.txn_remove(t1, b"k").unwrap() && d.txn_remove(t1, b"u").unwrap());

        // A conflicting batch logs what an empty transaction logs: its
        // Begin and Abort markers, no write and no sync.
        let log = |d: &mut Database| (d.stats().unwrap().log_bytes.unwrap(), d.log_syncs());
        let (bytes, syncs) = log(&mut d);
        let t = d.begin().unwrap();
        d.abort(t).unwrap();
        let markers = log(&mut d).0 - bytes;
        for batch in [remove_k.clone(), update_u.clone()] {
            let before = log(&mut d).0;
            let r = d.apply_batch(batch);
            assert!(matches!(r, Err(DbmsError::Txn(TxnError::Conflict(_)))));
            assert_eq!(log(&mut d), (before + markers, syncs), "nothing logged");
        }
        assert_eq!(d.get(b"u").unwrap(), None, "nothing applied");

        d.abort(t1).unwrap();
        d.apply_batch(remove_k.clone()).unwrap();
        d.apply_batch(update_u).unwrap();
        assert_eq!(d.get(b"k").unwrap(), None);
        assert_eq!(d.get(b"u").unwrap(), Some(b"1".to_vec()));

        // Removing the absent `k` nets to no write: one committed
        // transaction and one sync all the same, in both engines.
        let mut engines = vec![d];
        #[cfg(feature = "concurrency-multi-writer")]
        engines.push(
            Database::open(DbmsConfig {
                concurrency: fame_buffer::Concurrency::MultiWriter { shards: 0 },
                ..cfg
            })
            .unwrap(),
        );
        for mut d in engines {
            let (committed, syncs) = (d.txn_stats().unwrap().0, d.log_syncs().unwrap());
            d.apply_batch(remove_k.clone()).unwrap();
            assert_eq!(d.txn_stats().unwrap().0, committed + 1);
            assert_eq!(d.log_syncs().unwrap(), syncs + 1);
        }
    }

    #[cfg(all(
        feature = "api-batch",
        feature = "replication",
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
        assert!(trace.len() <= stats::OP_TRACE_CAPACITY);
        // Ring holds the most recent events: the last one is the sync.
        assert_eq!(trace.last().unwrap().kind, fame_obs::SpanKind::Sync);
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
