//! The one directory shape of the shared pool: an append-only array in
//! fixed chunks, each chunk published once through a `OnceLock`.
//!
//! `OnceLock::get` is lock-free and a chunk never moves once published, so
//! a reader may hold `&T` into the directory without any latch. The shared
//! pool keeps three: each shard's frame arena, each shard's page map
//! (`page -> frame + 1`, one entry per page id the shard owns) and the
//! Snapshot feature's version metas (one per page id). Page ids are dense —
//! the pager allocates them sequentially — so indexing by page id needs
//! no hashing, no probing and no second, authoritative map behind a latch
//! (vmcache, Leis et al., SIGMOD 2023, indexes its page states the same
//! way).

use std::sync::OnceLock;

use fame_os::{OsError, PageId};

/// Page ids the shared pool addresses: the page map and the version
/// directory cover pages `0..MAX_PAGES` (8 GiB of 512 B pages). A page past
/// them is an [`OsError::OutOfRange`] naming this bound, never a panic.
pub(crate) const MAX_PAGES: u32 = 1 << 24;

/// The error for a page at or past [`MAX_PAGES`].
pub(crate) fn past_bound(page: PageId) -> OsError {
    OsError::OutOfRange {
        page,
        pages: MAX_PAGES,
    }
}

/// Append-only array of `T`, `CHUNK` entries per chunk, for indices below
/// a capacity fixed at construction. The chunk spine is allocated up
/// front (one `OnceLock` per chunk); chunks are materialized on demand.
pub(crate) struct ChunkDir<T, const CHUNK: usize> {
    chunks: Box<[OnceLock<Box<[T]>>]>,
}

impl<T, const CHUNK: usize> ChunkDir<T, CHUNK> {
    /// A directory for indices `0..capacity` (rounded up to whole chunks),
    /// with no chunk materialized.
    pub(crate) fn new(capacity: usize) -> Self {
        ChunkDir {
            chunks: (0..capacity.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.chunks.len() * CHUNK
    }

    /// Lock-free: entry `idx`, if its chunk has been materialized.
    pub(crate) fn get(&self, idx: usize) -> Option<&T> {
        self.chunks.get(idx / CHUNK)?.get().map(|c| &c[idx % CHUNK])
    }

    /// Entry `idx`, materializing its chunk with `init` first if needed;
    /// `None` past the capacity. Racing callers build at most one chunk.
    pub(crate) fn ensure(&self, idx: usize, init: impl Fn() -> T) -> Option<&T> {
        let chunk = self
            .chunks
            .get(idx / CHUNK)?
            .get_or_init(|| (0..CHUNK).map(|_| init()).collect());
        Some(&chunk[idx % CHUNK])
    }

    /// Every entry of every materialized chunk, with its index.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(c, slot)| Some((c * CHUNK, slot.get()?)))
            .flat_map(|(base, chunk)| chunk.iter().enumerate().map(move |(i, t)| (base + i, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_appear_a_chunk_at_a_time_and_stop_at_the_capacity() {
        let d: ChunkDir<u32, 4> = ChunkDir::new(10);
        assert_eq!(d.capacity(), 12);
        assert!(d.get(5).is_none());
        assert_eq!(d.ensure(5, || 7), Some(&7));
        // The whole chunk 4..8 exists now, nothing else does.
        assert_eq!(d.get(4), Some(&7));
        assert!(d.get(3).is_none() && d.get(8).is_none());
        assert!(d.ensure(12, || 0).is_none() && d.get(12).is_none());
        let seen: Vec<usize> = d.iter().map(|(i, _)| i).collect();
        assert_eq!(seen, [4, 5, 6, 7]);
    }
}
