//! Snapshot (Fig. 2 extension: *Concurrency → MultiWriter → Snapshot*):
//! [`DbSnapshot`], the wait-free point-in-time read view, and the version
//! install the MultiWriter engine wires into its group commit.

use fame_buffer::SharedBufferPool;
use fame_txn::SharedTxnManager;

use super::*;

impl Database {
    /// A wait-free point-in-time read view (feature
    /// `concurrency-snapshot`), pinned to the newest *stable* commit
    /// timestamp: it observes every transaction whose group-commit drain
    /// completed before the call and nothing that commits after. A
    /// snapshot held across more than `snapshot_chain_cap` commits to one
    /// page can be stranded: its lookups then fail with a "too old" I/O
    /// error. See [`DbSnapshot`].
    ///
    /// Errors unless this instance runs `Concurrency::MultiWriter`
    /// (versions are installed by the writers' group commit).
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
}

/// Apply the chain cap and wire the version install into the group-commit
/// leader (before recovery, so replayed commits publish theirs too): every
/// drained batch publishes its page versions at a fresh commit timestamp.
pub(super) fn install_versions(
    core: &StorageCore,
    txn: &SharedTxnManager,
    config: &DbmsConfig,
) -> Result<SharedBufferPool> {
    let pool =
        core.pager.pool().shared_handle().ok_or_else(|| {
            DbmsError::Config("Concurrency::MultiWriter needs a shared pool".into())
        })?;
    pool.set_version_chain_cap(config.snapshot_chain_cap);
    let hook_pool = pool.clone();
    txn.set_install_hook(Box::new(move |batch, ts| {
        hook_pool.install_commits(batch, ts);
    }));
    Ok(pool)
}

/// A wait-free point-in-time read view obtained from
/// [`Database::snapshot`] (feature `concurrency-snapshot`).
///
/// Every lookup runs the same optimistic B+-tree descent as
/// [`DbReader`] but resolves pages to the newest committed version ≤ the
/// snapshot's timestamp through the pool's copy-on-write version chains:
/// concurrent writers are invisible, the lock table is never consulted,
/// and the read path writes no shared cache line, so snapshot throughput
/// is independent of writer contention (benchmark E14). The versions a
/// live snapshot may need are protected from pruning; dropping the handle
/// deregisters it and lets them go.
///
/// Not `Clone` — each snapshot registers exactly once. Take another
/// [`Database::snapshot`] for a second (possibly newer) view.
pub struct DbSnapshot {
    pager: fame_storage::SnapshotPager,
    kv: Kv,
}

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
    /// The same descent as [`DbReader::get_with`](super::DbReader::get_with),
    /// over the timestamp-pinned pager.
    pub fn get_with<R>(&mut self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        self.kv.lookup_olc(&mut self.pager, key, f)
    }

    /// `true` when the key exists in this snapshot.
    pub fn contains(&mut self, key: &[u8]) -> Result<bool> {
        Ok(self.get_with(key, |_| ())?.is_some())
    }
}

impl Drop for DbSnapshot {
    fn drop(&mut self) {
        // Deregister and let the pool prune whatever only this snapshot
        // kept alive.
        self.pager.pool().snapshot_end(self.pager.ts());
    }
}
