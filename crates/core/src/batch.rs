//! Batched writes (Fig. 2: Access → API → Batch, feature `api-batch`):
//! the [`WriteBatch`] builder and the storage reads that turn a submitted
//! batch into the net effect [`crate::Database::apply_batch`] applies.

use crate::db::StorageCore;
use crate::error::{DbmsError, Result};

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

/// The storage reads a batch needs before anything is logged or applied.
/// MultiWriter products call these only with every key of the batch
/// X-locked, so what they read is committed.
impl StorageCore {
    /// Turn the submitted op sequence into the batch's *net* effect: one
    /// `(key, Some(value) | None)` per distinct key. Update/remove
    /// existence checks run against the pre-batch state overlaid with the
    /// batch's own earlier ops — the same outcome as issuing the calls one
    /// at a time.
    pub(crate) fn resolve_batch(&mut self, batch: WriteBatch) -> Result<Vec<ResolvedOp>> {
        let mut resolved: Vec<ResolvedOp> = Vec::with_capacity(batch.ops.len());
        // key -> does it exist after the ops seen so far?
        let mut overlay: std::collections::BTreeMap<Vec<u8>, bool> =
            std::collections::BTreeMap::new();
        for (key, op) in batch.ops {
            #[cfg(any(feature = "api-update", feature = "api-remove"))]
            let mut exists = || match overlay.get(&key) {
                Some(e) => Ok::<_, DbmsError>(*e),
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
            overlay.insert(key.clone(), value.is_some());
            resolved.push((key, value));
        }
        // Last write per key wins. The bulk appliers re-normalize, but the
        // WAL must carry the same net op set as storage receives.
        resolved.sort_by(|a, b| a.0.cmp(&b.0));
        resolved.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                prev.1 = next.1.take();
                true
            } else {
                false
            }
        });
        Ok(resolved)
    }

    /// Pair a resolved batch with its before-images: the WAL records (undo
    /// needs the old values) and the op run to apply. Removes whose key
    /// never existed have no net effect and are dropped from both.
    #[cfg(feature = "transactions")]
    pub(crate) fn batch_writes(
        &mut self,
        resolved: &[ResolvedOp],
    ) -> Result<(Vec<fame_txn::BatchWrite>, Vec<ResolvedOp>)> {
        let mut writes = Vec::with_capacity(resolved.len());
        let mut apply = Vec::with_capacity(resolved.len());
        for (key, op) in resolved {
            let old = self.kv_get(key)?;
            match op {
                Some(value) => {
                    writes.push(fame_txn::BatchWrite::Put {
                        index: 0,
                        key: key.clone(),
                        old,
                        new: value.clone(),
                    });
                    apply.push((key.clone(), Some(value.clone())));
                }
                None => {
                    let Some(old) = old else { continue };
                    writes.push(fame_txn::BatchWrite::Remove {
                        index: 0,
                        key: key.clone(),
                        old,
                    });
                    apply.push((key.clone(), None));
                }
            }
        }
        Ok((writes, apply))
    }
}
