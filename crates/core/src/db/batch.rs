//! Batch (Fig. 2: *Access → API → Batch*): the [`WriteBatch`] builder,
//! the resolution of a submitted batch into its net effect,
//! [`Database::apply_batch`] and the bulk apply under it.

use super::*;
#[cfg(feature = "transactions")]
use fame_txn::BatchWrite;

/// A batch's net effect on one key: `Some(value)` writes, `None` removes.
type ResolvedOp = (Vec<u8>, Option<Vec<u8>>);

/// An ordered set of writes applied as one unit by
/// [`Database::apply_batch`] (feature `api-batch`).
///
/// Later operations on the same key supersede earlier ones — the same net
/// effect as issuing the calls one at a time, but applied through the bulk
/// storage path and (with transactions) committed with one log sync.
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    ops: Vec<(Vec<u8>, BatchOp)>,
}

/// What one queued batch operation does to its key.
#[derive(Debug, Clone)]
enum BatchOp {
    Put(Vec<u8>),
    #[cfg(feature = "api-update")]
    Update(Vec<u8>),
    #[cfg(feature = "api-remove")]
    Remove,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Queue an insert-or-overwrite.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.ops.push((key.to_vec(), BatchOp::Put(value.to_vec())));
        self
    }

    /// Queue an overwrite of an existing key (feature `api-update`).
    /// Applying the batch fails — and applies nothing — if the key does
    /// not exist at that point in the batch.
    #[cfg(feature = "api-update")]
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.ops
            .push((key.to_vec(), BatchOp::Update(value.to_vec())));
        self
    }

    /// Queue a removal (feature `api-remove`); removing an absent key is
    /// a no-op, as in [`Database::remove`].
    #[cfg(feature = "api-remove")]
    pub fn remove(&mut self, key: &[u8]) -> &mut Self {
        self.ops.push((key.to_vec(), BatchOp::Remove));
        self
    }

    /// Queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drop all queued operations.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

/// The batch path of every product. Transactional products call it only
/// with every submitted key X-locked, so what it reads is committed.
impl StorageCore {
    /// Apply a submitted batch: resolve its net effect, let `log` (the
    /// identity, or `StorageCore::logged_batch` in a transaction) turn it
    /// into the run to apply (sorted, one op per key), then apply the run
    /// in bulk. Every record is checked against the composed index's
    /// `max_cell` before any page is touched; the B+-tree then takes the
    /// run in one cached-descent pass, the list and hash one op at a time.
    fn write_batch(
        &mut self,
        batch: WriteBatch,
        log: impl FnOnce(&mut Self, Vec<ResolvedOp>) -> Result<Vec<ResolvedOp>>,
    ) -> Result<()> {
        let resolved = self.resolve_batch(batch)?;
        let ops = log(self, resolved)?;
        let max = on_kv!(&self.kv, _, Ix => Ix::max_cell(&self.pager));
        let size = |(k, v): &ResolvedOp| v.as_ref().map_or(0, |v| 2 + k.len() + v.len());
        if let Some(size) = ops.iter().map(size).find(|&size| size > max) {
            return Err(fame_storage::StorageError::RecordTooLarge { size, max }.into());
        }
        self.kv
            .composed(cfg!(feature = "btree-update"), "btree-update")?;
        let removes = ops.iter().any(|(_, v)| v.is_none());
        self.kv
            .composed(cfg!(feature = "btree-remove") || !removes, "btree-remove")?;
        #[cfg(feature = "index-btree")]
        if let Some(tree) = self.kv.btree() {
            tree.apply_sorted(&mut self.pager, ops)?;
            return Ok(());
        }
        for (key, value) in ops {
            self.kv_set(&key, value.as_deref())?;
        }
        Ok(())
    }

    /// Turn the submitted op sequence into the batch's *net* effect: one
    /// `(key, Some(value) | None)` per distinct key, in key order, the
    /// last write per key winning. Update/remove existence checks run
    /// against the pre-batch state overlaid with the batch's own earlier
    /// ops — the same outcome as issuing the calls one at a time.
    fn resolve_batch(&mut self, batch: WriteBatch) -> Result<Vec<ResolvedOp>> {
        let mut net: std::collections::BTreeMap<_, Option<_>> = Default::default();
        for (key, op) in batch.ops {
            #[cfg(any(feature = "api-update", feature = "api-remove"))]
            let mut exists = || match net.get(&key) {
                Some(value) => Ok::<_, DbmsError>(value.is_some()),
                None => Ok(self.kv_get(&key)?.is_some()),
            };
            let value = match op {
                BatchOp::Put(value) => Some(value),
                #[cfg(feature = "api-update")]
                BatchOp::Update(value) => {
                    if !exists()? {
                        return Err(DbmsError::Config(
                            "batch update of a missing key (batch not applied)".into(),
                        ));
                    }
                    Some(value)
                }
                #[cfg(feature = "api-remove")]
                BatchOp::Remove => {
                    if !exists()? {
                        continue;
                    }
                    None
                }
            };
            net.insert(key, value);
        }
        Ok(net.into_iter().collect())
    }

    /// A batch's log step ([`StorageCore::write_batch`]): pair the
    /// resolved run with its before-images, append them as one
    /// `log_batch` over the manager `m` hands out (see the write protocol
    /// in `txn`), and return the run to apply. Removes whose key never
    /// existed have no net effect and are dropped from both.
    #[cfg(feature = "transactions")]
    fn logged_batch<M: DerefMut<Target = fame_txn::TxnManager>>(
        &mut self,
        m: impl FnOnce() -> M,
        txn: fame_txn::TxnId,
        run: Vec<ResolvedOp>,
    ) -> Result<Vec<ResolvedOp>> {
        let mut writes = Vec::with_capacity(run.len());
        let mut apply = Vec::with_capacity(run.len());
        for (key, op) in run {
            let (index, k) = (0, key.clone());
            writes.push(match (&op, self.kv_get(&key)?) {
                (Some(new), old) => BatchWrite::Put {
                    index,
                    key: k,
                    old,
                    new: new.clone(),
                },
                (None, Some(old)) => BatchWrite::Remove { index, key: k, old },
                (None, None) => continue,
            });
            apply.push((key, op));
        }
        if !writes.is_empty() {
            m().log_batch(txn, &writes)?;
        }
        Ok(apply)
    }
}

impl Database {
    /// Apply a [`WriteBatch`] as one unit (feature `api-batch`).
    ///
    /// The batch is normalized (last write per key wins) and pushed
    /// through the bulk storage path ([`fame_storage::BTree::apply_sorted`]
    /// for the B+-tree). With transactions configured a non-empty batch is
    /// one transaction — committed even when it nets to no write — that
    /// X-locks every submitted key before it reads, encodes every record
    /// into a single WAL frame run (`TxnManager::log_batch`) and commits
    /// with exactly one log sync, so recovery observes the batch entirely
    /// or not at all. Without transactions, record sizes are validated
    /// before any page is touched but crash atomicity is — as for
    /// single-record writes — not provided.
    ///
    /// `update` entries fail the whole batch (nothing applied, no write
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
        // Replication: the submitted keys, shipped as the batch leaves them.
        #[cfg(feature = "replication")]
        let written: std::collections::BTreeSet<_> = match self.replication {
            Some(_) => batch.ops.iter().map(|(key, _)| key.clone()).collect(),
            None => Default::default(),
        };
        match &mut self.engine {
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => w.apply_batch(batch)?,
            #[cfg(feature = "transactions")]
            Engine::Own {
                core,
                txn: Some(mgr),
            } => {
                let txn = mgr.begin()?;
                let write = || -> Result<()> {
                    for (key, _) in &batch.ops {
                        mgr.lock_write(txn, key)?;
                    }
                    core.write_batch(batch, |core, run| core.logged_batch(|| &mut *mgr, txn, run))
                };
                match write() {
                    Ok(()) => mgr.commit(txn)?,
                    Err(e) => {
                        if let Ok(undo) = mgr.abort(txn) {
                            let _ = core.rollback(undo, || mgr.release_locks(txn));
                        }
                        return Err(e);
                    }
                }
            }
            Engine::Own { core, .. } => core.write_batch(batch, |_, run| Ok(run))?,
        }
        #[cfg(feature = "statistics")]
        self.obs
            .batch
            .applied(submitted, fame_obs::monotonic_ns().saturating_sub(start));
        after_write!(self, written, Batch, 0, submitted, 0)
    }
}

/// Counters of the batched write path (feature `statistics`).
#[cfg(feature = "statistics")]
#[derive(Debug, Default)]
pub(super) struct BatchObs {
    /// Batches applied.
    pub(super) batches: fame_obs::Counter,
    /// Operations submitted across those batches.
    pub(super) ops: fame_obs::Counter,
    /// Whole-batch apply latency.
    pub(super) latency: fame_obs::Histogram,
}

#[cfg(feature = "statistics")]
impl BatchObs {
    fn applied(&self, ops: u64, ns: u64) {
        self.batches.inc();
        self.ops.add(ops);
        self.latency.record_ns(ns);
    }
}

#[cfg(feature = "concurrency-multi-writer")]
impl super::DbWriter {
    /// [`Database::apply_batch`] of a MultiWriter product: every
    /// submitted key is X-locked before the storage mutex is taken.
    fn apply_batch(&self, batch: WriteBatch) -> Result<()> {
        let txn = self.begin()?;
        let write = || -> Result<()> {
            for (key, _) in &batch.ops {
                self.txn.lock_write(txn.id, key)?;
            }
            let log =
                |core: &mut StorageCore, run| core.logged_batch(|| self.txn.manager(), txn.id, run);
            txn.scoped(|| self.storage().write_batch(batch, log))
        };
        match write() {
            // A group-commit drain already counts as one commit toward the
            // Group quota, which is exactly the batch accounting.
            Ok(()) => self.commit(txn),
            Err(e) => {
                let _ = self.abort(txn);
                Err(e)
            }
        }
    }
}
