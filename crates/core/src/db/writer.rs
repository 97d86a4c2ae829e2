//! MultiWriter (Fig. 2 extension: *Buffer Manager → Concurrency →
//! MultiWriter*): [`DbWriter`], the concurrent transactional write handle,
//! and the `Shared` engine it is.

use std::sync::{Arc, Mutex, MutexGuard};

use fame_buffer::Concurrency;

use super::*;

impl Database {
    /// A concurrent write handle (feature `concurrency-multi-writer`): a
    /// [`DbWriter`] clone, cheap to clone again once per writer thread.
    ///
    /// Errors unless this instance runs `Concurrency::MultiWriter` (which
    /// the configuration check only admits with transactions).
    pub fn writer(&self) -> Result<DbWriter> {
        match &self.engine {
            Engine::Shared(w) => Ok(w.clone()),
            Engine::Own { .. } => Err(DbmsError::Config(
                "writer() needs Concurrency::MultiWriter in the runtime configuration".into(),
            )),
        }
    }
}

impl Engine {
    /// A MultiWriter instance (which `DbmsConfig::check` only admits with
    /// transactions) shares storage and manager *before* recovery, so
    /// recovery runs through the same engine; any other keeps `Own`.
    pub(super) fn into_shared(self, config: &DbmsConfig) -> Result<Engine> {
        let multi_writer = matches!(config.concurrency, Concurrency::MultiWriter { .. });
        Ok(match self {
            Engine::Own {
                core,
                txn: Some(mgr),
            } if multi_writer => {
                let txn = Arc::new(fame_txn::SharedTxnManager::new(
                    mgr,
                    std::time::Duration::from_millis(config.lock_timeout_ms),
                ));
                #[cfg(feature = "concurrency-snapshot")]
                let pool = super::snapshot::install_versions(&core, &txn, config)?;
                Engine::Shared(DbWriter {
                    storage: Arc::new(Mutex::new(core)),
                    txn,
                    #[cfg(feature = "concurrency-snapshot")]
                    pool,
                })
            }
            engine => engine,
        })
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
/// The facade's own transactional API delegates here. Lock order
/// (deadlock-free by construction): block-lock table, then the storage
/// mutex, then the manager mutex — never the reverse.
#[derive(Clone)]
pub struct DbWriter {
    storage: Arc<Mutex<StorageCore>>,
    pub(super) txn: Arc<fame_txn::SharedTxnManager>,
    /// Snapshot feature: shared pool handle for releasing the versions of
    /// aborted transactions.
    #[cfg(feature = "concurrency-snapshot")]
    pool: fame_buffer::SharedBufferPool,
}

impl TxnHandle {
    /// Run a storage step of this transaction, tagged with it (Snapshot
    /// feature) so the pool captures pre-images for the version chains.
    pub(super) fn scoped<R>(self, step: impl FnOnce() -> R) -> R {
        #[cfg(feature = "concurrency-snapshot")]
        let _scope = fame_buffer::TxnWriteScope::new(self.id);
        step()
    }
}

impl DbWriter {
    pub(super) fn storage(&self) -> MutexGuard<'_, StorageCore> {
        self.storage.lock().expect("storage mutex poisoned")
    }

    /// Start a transaction.
    pub fn begin(&self) -> Result<TxnHandle> {
        let id = self.txn.begin()?;
        Ok(TxnHandle { id })
    }

    /// Start a transaction that retries aborted transaction `parent`
    /// (deadlock victim or lock timeout). Behaviorally identical to
    /// [`DbWriter::begin`]; with the `obs-trace` feature the new
    /// transaction's causal span chain is spliced onto the aborted one's
    /// via a `retry` event — the link E13 asserts on when reconstructing
    /// `lock-wait → deadlock-victim → retry → txn-commit`.
    pub fn begin_retry(&self, parent: TxnHandle) -> Result<TxnHandle> {
        let id = self.txn.begin_retry(parent.id)?;
        Ok(TxnHandle { id })
    }

    /// Transactional put: block lock, WAL, then apply.
    #[cfg(feature = "api-put")]
    pub fn put(&self, txn: TxnHandle, key: &[u8], value: &[u8]) -> Result<()> {
        self.txn.lock_write(txn.id, key)?;
        let mut core = self.storage();
        let m = || self.txn.manager();
        txn.scoped(|| core.logged_write(m, txn.id, key, Some(value)))
            .map(drop)
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
        let m = || self.txn.manager();
        txn.scoped(|| core.logged_write(m, txn.id, key, None))
    }

    /// Commit through the group channel. On success the transaction's
    /// block locks are released; on failure it stays active with locks
    /// held, so the caller can retry the commit or abort.
    pub fn commit(&self, txn: TxnHandle) -> Result<()> {
        Ok(self.txn.commit(txn.id)?)
    }

    /// Run `body` inside `txn`, commit, and retry the whole transaction
    /// on lock conflicts: a deadlock-victim or timeout abort rolls the
    /// transaction back; a victim parks, holding no lock, until the winners
    /// its [`fame_txn::LockError::Deadlock`] names release the block it
    /// lost (a timeout retries at once). `body` then replays under a fresh
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
        mut txn: TxnHandle,
        max_retries: u32,
        mut body: impl FnMut(&DbWriter, TxnHandle) -> Result<()>,
    ) -> Result<TxnHandle> {
        let mut attempt = 0u32;
        loop {
            match body(self, txn).and_then(|()| self.commit(txn)) {
                Ok(()) => return Ok(txn),
                Err(DbmsError::Txn(fame_txn::TxnError::Lock(e))) => {
                    let _ = self.abort(txn);
                    if attempt >= max_retries {
                        return Err(DbmsError::Txn(e.into()));
                    }
                    if let fame_txn::LockError::Deadlock { block, holders, .. } = &e {
                        self.txn.lock_table().wait_released(*block, holders);
                    }
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
        txn.scoped(|| {
            self.storage().rollback(undo, || {
                // The heads now hold the restored pre-state; mark the pages
                // committed again so snapshot reads stop detouring.
                #[cfg(feature = "concurrency-snapshot")]
                self.pool.release_aborted_txn(txn.id);
                self.txn.release_locks(txn.id);
            })
        })
    }

    /// `(committed, aborted)` counters of the shared manager.
    pub fn txn_stats(&self) -> (u64, u64) {
        self.txn.manager().stats()
    }

    /// Log-device sync count (group-commit comparison metric).
    pub fn log_syncs(&self) -> u64 {
        self.txn.manager().log_syncs()
    }
}
