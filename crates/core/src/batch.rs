//! Batched writes (Fig. 2: Access → API → Batch, feature `api-batch`):
//! the [`WriteBatch`] builder and the storage reads that turn a submitted
//! batch into the net effect [`crate::Database::apply_batch`] applies.

use crate::db::StorageCore;
use crate::error::{DbmsError, Result};
#[cfg(feature = "transactions")]
use fame_txn::BatchWrite;

/// A batch's net effect on one key: `Some(value)` writes, `None` removes.
pub(crate) type ResolvedOp = (Vec<u8>, Option<Vec<u8>>);

/// An ordered set of writes applied as one unit by
/// [`crate::Database::apply_batch`] (feature `api-batch`).
///
/// Later operations on the same key supersede earlier ones — the same net
/// effect as issuing the calls one at a time, but applied through the bulk
/// storage path and (with transactions) committed with one log sync.
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    pub(crate) ops: Vec<(Vec<u8>, BatchOp)>,
}

/// What one queued batch operation does to its key.
#[derive(Debug, Clone)]
pub(crate) enum BatchOp {
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
    /// a no-op, as in [`crate::Database::remove`].
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
    /// into the run to apply, then apply the run in bulk.
    pub(crate) fn write_batch(
        &mut self,
        batch: WriteBatch,
        log: impl FnOnce(&mut Self, Vec<ResolvedOp>) -> Result<Vec<ResolvedOp>>,
    ) -> Result<()> {
        let resolved = self.resolve_batch(batch)?;
        let run = log(self, resolved)?;
        self.kv_apply_bulk(run)
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

    /// Pair a resolved run with its before-images: the WAL records (undo
    /// needs the old values) and the run to apply. Removes whose key never
    /// existed have no net effect and are dropped from both.
    #[cfg(feature = "transactions")]
    pub(crate) fn batch_writes(
        &mut self,
        run: Vec<ResolvedOp>,
    ) -> Result<(Vec<BatchWrite>, Vec<ResolvedOp>)> {
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
        Ok((writes, apply))
    }
}
