//! MultiReader (Fig. 2 extension: *Buffer Manager → Concurrency →
//! MultiReader*): [`DbReader`], the shared read handle, its handle-local
//! counters, and the optimistic lookup it shares with
//! [`DbSnapshot`](super::DbSnapshot).

use fame_storage::{PageRead, SharedPager};

use super::*;

impl Database {
    /// A shared read handle (feature `concurrency-multi`): a [`DbReader`],
    /// cheap to clone once per reader thread. Structural *mutations* still
    /// belong to the single writer, so interleave them with reads only at
    /// quiescent points.
    ///
    /// Errors when this instance runs `Concurrency::Single`: the product
    /// then owns an exclusive pool with no latches to share.
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
            obs: counters::ReaderObs::new(&self.obs.readers),
        })
    }
}

impl Kv {
    /// Point lookup beside a writer ([`DbReader`],
    /// [`DbSnapshot`](super::DbSnapshot)): the B+-tree descends by
    /// optimistic lock coupling — it resolves the root itself and chases
    /// child pointers on page-version checks, restarting if a concurrent
    /// split moves a node underneath it. No latch is taken on the hit
    /// path. Over a snapshot pager every token is the always-valid
    /// sentinel, because the observed tree is frozen.
    pub(super) fn lookup_olc<P: PageRead, R>(
        &self,
        pager: &mut P,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>> {
        #[cfg(feature = "index-btree")]
        if matches!(self, Kv::BTree(_)) {
            return Ok(fame_storage::BTree::get_olc(
                pager,
                super::KV_ROOT_SLOT,
                key,
                f,
            )?);
        }
        Ok(on_kv!(self, ix => ix.get_with(pager, key, f)?))
    }
}

/// The handle-local lookup counters (feature `statistics`).
#[cfg(feature = "statistics")]
pub(super) mod counters {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;

    /// Shared accumulator for dropped [`DbReader`](super::DbReader)
    /// handles' local counters. Live handles count into plain
    /// handle-local `u64`s — the read path writes no shared cache line,
    /// which is what keeps reader scaling intact — and flush here exactly
    /// once, on drop.
    #[derive(Debug, Default)]
    pub(in crate::db) struct ReaderAccum {
        pub(in crate::db) gets: AtomicU64,
        pub(in crate::db) hits: AtomicU64,
    }

    /// The handle-local half: plain counters plus the `Arc` they flush
    /// into. Cloning a handle starts the clone's counts at zero (the
    /// parent keeps its own); dropping flushes with two Relaxed
    /// `fetch_add`s.
    #[derive(Debug)]
    pub(super) struct ReaderObs {
        acc: Arc<ReaderAccum>,
        pub(super) gets: u64,
        pub(super) hits: u64,
    }

    impl ReaderObs {
        pub(super) fn new(acc: &Arc<ReaderAccum>) -> ReaderObs {
            ReaderObs {
                acc: Arc::clone(acc),
                gets: 0,
                hits: 0,
            }
        }
    }

    impl Clone for ReaderObs {
        fn clone(&self) -> Self {
            ReaderObs::new(&self.acc)
        }
    }

    impl Drop for ReaderObs {
        fn drop(&mut self) {
            if self.gets > 0 {
                self.acc.gets.fetch_add(self.gets, Relaxed);
                self.acc.hits.fetch_add(self.hits, Relaxed);
            }
        }
    }
}

/// A concurrent read handle obtained from [`Database::reader`] (feature
/// `concurrency-multi`).
///
/// Internally an `Arc` over the sharded pool: cloning is cheap, each clone
/// is `Send` and serves lookups independently, beside other readers and
/// beside buffer churn (evictions, write-backs). Cache hits take no latch
/// and write no shared cache line (seqlock-validated frame copies); only
/// misses go through a shard latch. The `&mut self` receivers are a
/// formality of the [`fame_storage::PageRead`] trait — no writer lock
/// exists on this path.
#[derive(Clone)]
pub struct DbReader {
    pager: SharedPager,
    kv: Kv,
    /// Handle-local lookup counters (feature `statistics`), merged into
    /// [`Database::stats`]'s `reader_gets`/`reader_hits` when this handle
    /// drops.
    #[cfg(feature = "statistics")]
    obs: counters::ReaderObs,
}

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
