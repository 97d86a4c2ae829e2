//! Transaction (Fig. 2): [`TxnHandle`], `begin` … `abort`, the write
//! protocol both engines run, and recovery at open. `Own` arms run the
//! protocol over the owned manager, `Shared` ones delegate to [`DbWriter`].

use fame_txn::{LogImage, LogRecord, TxnId, TxnManager, UndoAction};

use super::*;

/// An open transaction (copyable token; the manager owns the state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHandle {
    pub(super) id: TxnId,
}

impl TxnHandle {
    /// The raw transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }
}

/// [`open_log`]'s data device (behind the log's write barrier), manager and
/// log image; the last two `None` when transactions are not configured.
pub(super) type OpenedLog = (Box<dyn BlockDevice>, Option<TxnManager>, Option<LogImage>);

/// Read the surviving log back *before* the pool exists: its image
/// positions the writer's resume LSN and drives recovery once the facade is
/// assembled, and the writer's barrier goes in front of the data device —
/// appends are buffered, so no data page may be written ahead of the log
/// records describing it (the WAL rule, for both pools and for evictions
/// by reader threads alike). Without transactions configured the device
/// passes through.
pub(super) fn open_log(
    config: &DbmsConfig,
    device: Box<dyn BlockDevice>,
    log_device: Option<Box<dyn BlockDevice>>,
) -> Result<OpenedLog> {
    let (tc, log_dev) = match (&config.transactions, log_device) {
        (Some(tc), Some(log_dev)) => (tc, log_dev),
        (Some(_), None) => {
            return Err(DbmsError::Config(
                "transactions enabled but no log device supplied".into(),
            ))
        }
        (None, _) => return Ok((device, None, None)),
    };
    let mut reader = fame_txn::LogReader::new(log_dev);
    let image = reader.image()?;
    let writer = fame_txn::LogWriter::new(reader.into_device(), image.resume_lsn())?;
    let ordered = fame_os::OrderedDevice::new(device, writer.barrier());
    let mut mgr = TxnManager::new(writer, tc.commit);
    let last_txn = image.records().filter_map(|(_, r)| r.txn()).max();
    mgr.resume_ids_after(last_txn.unwrap_or(0));
    Ok((Box::new(ordered), Some(mgr), Some(image)))
}

impl Engine {
    /// Read the transaction manager's counters; `None` when transactions
    /// are not configured.
    pub(super) fn txn_peek<R>(&self, f: impl FnOnce(&TxnManager) -> R) -> Option<R> {
        match self {
            Engine::Own { txn, .. } => txn.as_ref().map(f),
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => Some(f(&w.txn.manager())),
        }
    }

    /// Log maintenance outside any transaction (flush, recovery seal);
    /// `None` when transactions are not configured.
    pub(super) fn txn_mut<R>(&mut self, f: impl FnOnce(&mut TxnManager) -> R) -> Option<R> {
        match self {
            Engine::Own { txn, .. } => txn.as_mut().map(f),
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => Some(f(&mut w.txn.manager())),
        }
    }
}

/// The transactional write protocol of both engines (DESIGN.md §13), over
/// the engine's transaction manager, which `m` hands out for the log
/// append alone: `|| mgr` for the owned one, `|| shared.manager()` — the
/// guard of its mutex — in MultiWriter products. The caller holds the
/// exclusive lock of every key a routine writes, so no routine reads
/// another transaction's uncommitted data.
impl StorageCore {
    /// A put (`new` is `Some`) or a remove: before-image → log → apply. A
    /// remove of an absent key logs nothing and returns `false`.
    #[cfg(any(feature = "api-put", feature = "api-remove"))]
    pub(super) fn logged_write<M: DerefMut<Target = TxnManager>>(
        &mut self,
        m: impl FnOnce() -> M,
        txn: TxnId,
        key: &[u8],
        new: Option<&[u8]>,
    ) -> Result<bool> {
        match (self.kv_get(key)?, new) {
            (old, Some(new)) => m().log_put(txn, 0, key, old, new)?,
            (Some(old), None) => m().log_remove(txn, 0, key, old)?,
            (None, None) => return Ok(false),
        };
        self.kv_set(key, new)
    }

    /// An abort: undo (newest first, up to the first error), then
    /// `release` the locks — never before the undo, lest a waiter read the
    /// un-undone value, and even when it fails: the transaction has left
    /// the active table, so nothing else ever would release them.
    pub(super) fn rollback(&mut self, undo: Vec<UndoAction>, release: impl FnOnce()) -> Result<()> {
        let undone = undo.into_iter().try_for_each(|action| {
            self.kv_set(&action.key, action.restore.as_deref())
                .map(drop)
        });
        release();
        undone
    }
}

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
        record!(self, TxnBegin, txn.id, 0, 0);
        Ok(txn)
    }

    /// Transactional put: lock, WAL, then apply.
    #[cfg(feature = "api-put")]
    pub fn txn_put(&mut self, txn: TxnHandle, key: &[u8], value: &[u8]) -> Result<()> {
        match &mut self.engine {
            Engine::Own { core, txn: mgr } => {
                let mgr = mgr.as_mut().ok_or_else(Self::txn_not_enabled)?;
                mgr.lock_write(txn.id, key)?;
                core.logged_write(|| mgr, txn.id, key, Some(value))
                    .map(drop)
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
                core.logged_write(|| mgr, txn.id, key, None)
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
        let mut written = Vec::new();
        match &mut self.engine {
            Engine::Own { txn: mgr, .. } => {
                let mgr = mgr.as_mut().ok_or_else(Self::txn_not_enabled)?;
                #[cfg(feature = "replication")]
                if self.replication.is_some() {
                    written = mgr.write_set(txn.id)?;
                }
                mgr.commit(txn.id)?;
            }
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => w.commit(txn)?,
        }
        after_write!(
            self,
            written,
            TxnCommit,
            txn.id,
            fame_obs::monotonic_ns() - t0,
            0
        )
    }

    /// Abort: applies compensating actions to the index, and only then
    /// releases the transaction's locks, so no other transaction observes
    /// the un-undone value.
    pub fn abort(&mut self, txn: TxnHandle) -> Result<()> {
        match &mut self.engine {
            Engine::Own { core, txn: mgr } => {
                let mgr = mgr.as_mut().ok_or_else(Self::txn_not_enabled)?;
                let undo = mgr.abort(txn.id)?;
                core.rollback(undo, || mgr.release_locks(txn.id))?;
            }
            #[cfg(feature = "concurrency-multi-writer")]
            Engine::Shared(w) => w.abort(txn)?,
        }
        record!(self, TxnAbort, txn.id, 0, 0);
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

    /// What recovery did at open, if a non-empty log was replayed.
    pub fn last_recovery(&self) -> Option<&fame_txn::RecoveryStats> {
        self.last_recovery.as_ref()
    }

    /// Replay the log image [`open_log`] read against the store (run at
    /// open, once the facade is assembled).
    pub(super) fn recovered(mut self, image: Option<LogImage>) -> Result<Database> {
        let Some(image) = image else {
            return Ok(self);
        };
        let Some((_, last)) = image.records().last() else {
            return Ok(self);
        };
        /// Adapter implementing the recovery callback over the storage core.
        struct RecoverInto<'a> {
            core: &'a mut StorageCore,
            error: Option<DbmsError>,
        }

        impl RecoverInto<'_> {
            fn set(&mut self, key: &[u8], value: Option<&[u8]>) {
                if self.error.is_none() {
                    self.error = self.core.kv_set(key, value).err();
                }
            }
        }

        impl fame_txn::RecoveryTarget for RecoverInto<'_> {
            fn apply_put(&mut self, _index: u8, key: &[u8], value: &[u8]) {
                self.set(key, Some(value));
            }

            fn apply_remove(&mut self, _index: u8, key: &[u8]) {
                self.set(key, None);
            }
        }
        let stats = {
            let mut core = self.engine.core();
            let mut target = RecoverInto {
                core: &mut core,
                error: None,
            };
            let stats = fame_txn::recover_image(&image, &mut target);
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
        let sealed = matches!(last, LogRecord::Checkpoint) && stats.losers.is_empty();
        if !sealed {
            self.engine
                .txn_mut(|m| m.seal_recovery(&stats.losers))
                .transpose()?;
        }
        record!(
            self,
            Recovery,
            0,
            stats.redo_applied as u64,
            stats.undo_applied as u64
        );
        self.last_recovery = Some(stats);
        Ok(self)
    }
}
