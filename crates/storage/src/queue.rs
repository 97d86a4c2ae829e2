//! Queue access method: Berkeley DB's QUEUE (configuration 5 of Figure 1
//! removes it).
//!
//! Fixed-length records addressed by a monotonically increasing record
//! number; FIFO semantics (`push` at the tail, `pop` at the head) with
//! random access to any live record — the classic message-buffer structure
//! of control units.
//!
//! Layout: a directory page holds the record length, head/tail record
//! numbers, and a ring of data-page slots. Data pages store records at
//! fixed offsets, so a record access is one directory read plus one data
//! page access. The ring bounds the number of records in flight to
//! `dir_capacity * records_per_page`; pushing beyond that yields
//! [`StorageError::CapacityExceeded`] — embedded queues are bounded by
//! design.

use fame_os::PageId;

use crate::error::{Result, StorageError};
use crate::page::{PageType, NO_PAGE, PAGE_HEADER_SIZE};
use crate::pager::Pager;

const OFF_RECLEN: usize = PAGE_HEADER_SIZE;
const OFF_HEAD: usize = PAGE_HEADER_SIZE + 4;
const OFF_TAIL: usize = PAGE_HEADER_SIZE + 12;
const OFF_RING: usize = PAGE_HEADER_SIZE + 20;

/// Bounded FIFO queue of fixed-length records.
#[derive(Debug, Clone, Copy)]
pub struct Queue {
    dir: PageId,
    record_len: usize,
    per_page: usize,
    ring_slots: usize,
}

impl Queue {
    /// Create a queue of `record_len`-byte records, persisted in
    /// `root_slot`.
    pub fn create(pager: &mut Pager, root_slot: usize, record_len: usize) -> Result<Queue> {
        let page_size = pager.page_size();
        assert!(record_len > 0, "record length must be positive");
        assert!(
            record_len <= page_size - PAGE_HEADER_SIZE,
            "record must fit a page"
        );
        let dir = pager.allocate(PageType::QueueDir, |p| {
            let buf = p.bytes_mut();
            buf[OFF_RECLEN..OFF_RECLEN + 4].copy_from_slice(&(record_len as u32).to_le_bytes());
            buf[OFF_HEAD..OFF_HEAD + 8].copy_from_slice(&0u64.to_le_bytes());
            buf[OFF_TAIL..OFF_TAIL + 8].copy_from_slice(&0u64.to_le_bytes());
            let slots = (buf.len() - OFF_RING) / 4;
            for i in 0..slots {
                let at = OFF_RING + 4 * i;
                buf[at..at + 4].copy_from_slice(&NO_PAGE.to_le_bytes());
            }
        })?;
        pager.set_root(root_slot, Some(dir))?;
        Ok(Queue {
            dir,
            record_len,
            per_page: (page_size - PAGE_HEADER_SIZE) / record_len,
            ring_slots: (page_size - OFF_RING) / 4,
        })
    }

    /// Open the queue persisted in `root_slot`.
    pub fn open(pager: &mut Pager, root_slot: usize) -> Result<Queue> {
        let dir = pager.root(root_slot)?.ok_or(StorageError::NotFound)?;
        let page_size = pager.page_size();
        let record_len = pager.with_page(dir, |buf| {
            u32::from_le_bytes(buf[OFF_RECLEN..OFF_RECLEN + 4].try_into().expect("4 bytes"))
                as usize
        })?;
        if record_len == 0 || record_len > page_size - PAGE_HEADER_SIZE {
            return Err(StorageError::Corrupt {
                page: dir,
                reason: format!("implausible queue record length {record_len}"),
            });
        }
        Ok(Queue {
            dir,
            record_len,
            per_page: (page_size - PAGE_HEADER_SIZE) / record_len,
            ring_slots: (page_size - OFF_RING) / 4,
        })
    }

    /// Record length in bytes.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// Maximum number of records in flight.
    pub fn capacity(&self) -> u64 {
        (self.ring_slots * self.per_page) as u64
    }

    fn head_tail(&self, pager: &mut Pager) -> Result<(u64, u64)> {
        pager.with_page(self.dir, |buf| {
            Ok((
                u64::from_le_bytes(buf[OFF_HEAD..OFF_HEAD + 8].try_into().expect("8 bytes")),
                u64::from_le_bytes(buf[OFF_TAIL..OFF_TAIL + 8].try_into().expect("8 bytes")),
            ))
        })?
    }

    fn set_head_tail(&self, pager: &mut Pager, head: u64, tail: u64) -> Result<()> {
        pager.with_page_mut(self.dir, |buf| {
            buf[OFF_HEAD..OFF_HEAD + 8].copy_from_slice(&head.to_le_bytes());
            buf[OFF_TAIL..OFF_TAIL + 8].copy_from_slice(&tail.to_le_bytes());
        })
    }

    /// Live records.
    pub fn len(&self, pager: &mut Pager) -> Result<u64> {
        let (h, t) = self.head_tail(pager)?;
        Ok(t - h)
    }

    /// `true` when no records are queued.
    pub fn is_empty(&self, pager: &mut Pager) -> Result<bool> {
        Ok(self.len(pager)? == 0)
    }

    fn ring_slot_of(&self, recno: u64) -> usize {
        ((recno / self.per_page as u64) % self.ring_slots as u64) as usize
    }

    fn ring_get(&self, pager: &mut Pager, slot: usize) -> Result<Option<PageId>> {
        let v = pager.with_page(self.dir, |buf| {
            let at = OFF_RING + 4 * slot;
            u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
        })?;
        Ok(if v == NO_PAGE { None } else { Some(v) })
    }

    fn ring_set(&self, pager: &mut Pager, slot: usize, page: Option<PageId>) -> Result<()> {
        pager.with_page_mut(self.dir, |buf| {
            let at = OFF_RING + 4 * slot;
            buf[at..at + 4].copy_from_slice(&page.unwrap_or(NO_PAGE).to_le_bytes());
        })
    }

    fn record_offset(&self, recno: u64) -> usize {
        PAGE_HEADER_SIZE + (recno as usize % self.per_page) * self.record_len
    }

    /// Append a record; returns its record number.
    pub fn push(&mut self, pager: &mut Pager, record: &[u8]) -> Result<u64> {
        if record.len() != self.record_len {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: self.record_len,
            });
        }
        let (head, tail) = self.head_tail(pager)?;
        if tail - head >= self.capacity() {
            return Err(StorageError::CapacityExceeded(format!(
                "queue holds {} records",
                self.capacity()
            )));
        }
        let slot = self.ring_slot_of(tail);
        let page = match self.ring_get(pager, slot)? {
            Some(p) => p,
            None => {
                let p = pager.allocate(PageType::Queue, |_| {})?;
                self.ring_set(pager, slot, Some(p))?;
                p
            }
        };
        let off = self.record_offset(tail);
        let len = self.record_len;
        pager.with_page_mut(page, |buf| {
            buf[off..off + len].copy_from_slice(record);
        })?;
        self.set_head_tail(pager, head, tail + 1)?;
        Ok(tail)
    }

    /// Remove and return the oldest record.
    pub fn pop(&mut self, pager: &mut Pager) -> Result<Option<Vec<u8>>> {
        let (head, tail) = self.head_tail(pager)?;
        if head == tail {
            return Ok(None);
        }
        let rec = self.read(pager, head)?;
        let new_head = head + 1;
        // When the head finishes a segment, its data page is fully drained
        // and can be retired. The tail can never be mid-write on this page:
        // the capacity check refuses pushes before the tail's segment wraps
        // onto a slot that still holds live records.
        if new_head % self.per_page as u64 == 0 {
            let slot = self.ring_slot_of(head);
            if let Some(p) = self.ring_get(pager, slot)? {
                pager.free(p)?;
                self.ring_set(pager, slot, None)?;
            }
        }
        self.set_head_tail(pager, new_head, tail)?;
        Ok(Some(rec))
    }

    /// Read the oldest record without removing it.
    pub fn peek(&self, pager: &mut Pager) -> Result<Option<Vec<u8>>> {
        let (head, tail) = self.head_tail(pager)?;
        if head == tail {
            return Ok(None);
        }
        Ok(Some(self.read(pager, head)?))
    }

    /// Random access to a live record by number.
    pub fn get(&self, pager: &mut Pager, recno: u64) -> Result<Option<Vec<u8>>> {
        let (head, tail) = self.head_tail(pager)?;
        if recno < head || recno >= tail {
            return Ok(None);
        }
        Ok(Some(self.read(pager, recno)?))
    }

    fn read(&self, pager: &mut Pager, recno: u64) -> Result<Vec<u8>> {
        let slot = self.ring_slot_of(recno);
        let page = self.ring_get(pager, slot)?.ok_or(StorageError::Corrupt {
            page: self.dir,
            reason: format!("live record {recno} has no data page"),
        })?;
        let off = self.record_offset(recno);
        let len = self.record_len;
        pager.with_page(page, |buf| buf[off..off + len].to_vec())
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fame_buffer::{BufferPool, ReplacementKind};
    use fame_os::{AllocPolicy, InMemoryDevice};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The queue behaves exactly like `VecDeque` under arbitrary
        /// push/pop/peek sequences (as long as capacity is respected).
        #[test]
        fn behaves_like_vecdeque(ops in prop::collection::vec(any::<u8>(), 1..300)) {
            let dev = InMemoryDevice::new(256);
            let pool = BufferPool::new(
                Box::new(dev),
                ReplacementKind::Lru,
                AllocPolicy::Dynamic { max_frames: Some(32) },
            );
            let mut pg = Pager::open(pool).unwrap();
            let mut q = Queue::create(&mut pg, 0, 8).unwrap();
            let mut model: VecDeque<Vec<u8>> = VecDeque::new();
            let mut next = 0u64;
            for op in ops {
                match op % 3 {
                    0 | 1 => {
                        let rec = next.to_le_bytes().to_vec();
                        next += 1;
                        if (model.len() as u64) < q.capacity() {
                            q.push(&mut pg, &rec).unwrap();
                            model.push_back(rec);
                        } else {
                            prop_assert!(q.push(&mut pg, &rec).is_err());
                        }
                    }
                    _ => {
                        prop_assert_eq!(q.pop(&mut pg).unwrap(), model.pop_front());
                    }
                }
                prop_assert_eq!(q.len(&mut pg).unwrap(), model.len() as u64);
                prop_assert_eq!(q.peek(&mut pg).unwrap(), model.front().cloned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_buffer::{BufferPool, ReplacementKind};
    use fame_os::{AllocPolicy, InMemoryDevice};

    fn pager() -> Pager {
        let dev = InMemoryDevice::new(256);
        let pool = BufferPool::new(
            Box::new(dev),
            ReplacementKind::Lru,
            AllocPolicy::Dynamic {
                max_frames: Some(64),
            },
        );
        Pager::open(pool).unwrap()
    }

    fn rec(i: u32) -> Vec<u8> {
        let mut r = vec![0u8; 16];
        r[0..4].copy_from_slice(&i.to_le_bytes());
        r
    }

    #[test]
    fn fifo_order() {
        let mut pg = pager();
        let mut q = Queue::create(&mut pg, 0, 16).unwrap();
        for i in 0..10 {
            let recno = q.push(&mut pg, &rec(i)).unwrap();
            assert_eq!(recno, u64::from(i));
        }
        for i in 0..10 {
            assert_eq!(q.pop(&mut pg).unwrap(), Some(rec(i)));
        }
        assert_eq!(q.pop(&mut pg).unwrap(), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut pg = pager();
        let mut q = Queue::create(&mut pg, 0, 16).unwrap();
        q.push(&mut pg, &rec(1)).unwrap();
        assert_eq!(q.peek(&mut pg).unwrap(), Some(rec(1)));
        assert_eq!(q.len(&mut pg).unwrap(), 1);
    }

    #[test]
    fn random_access_within_live_range() {
        let mut pg = pager();
        let mut q = Queue::create(&mut pg, 0, 16).unwrap();
        for i in 0..30 {
            q.push(&mut pg, &rec(i)).unwrap();
        }
        q.pop(&mut pg).unwrap();
        q.pop(&mut pg).unwrap();
        assert_eq!(q.get(&mut pg, 1).unwrap(), None, "popped record is dead");
        assert_eq!(q.get(&mut pg, 2).unwrap(), Some(rec(2)));
        assert_eq!(q.get(&mut pg, 29).unwrap(), Some(rec(29)));
        assert_eq!(q.get(&mut pg, 30).unwrap(), None, "beyond tail");
    }

    #[test]
    fn wrong_record_length_rejected() {
        let mut pg = pager();
        let mut q = Queue::create(&mut pg, 0, 16).unwrap();
        assert!(matches!(
            q.push(&mut pg, &[0u8; 15]),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn spans_many_pages_and_recycles() {
        let mut pg = pager();
        let mut q = Queue::create(&mut pg, 0, 16).unwrap();
        // Push/pop far more records than one page holds; the ring reuses
        // retired pages, so the device stays small.
        for i in 0..2000u32 {
            q.push(&mut pg, &rec(i)).unwrap();
            assert_eq!(q.pop(&mut pg).unwrap(), Some(rec(i)));
        }
        assert!(q.is_empty(&mut pg).unwrap());
        assert!(pg.allocated_pages().unwrap() < 20, "pages are recycled");
    }

    #[test]
    fn capacity_bound_enforced() {
        let mut pg = pager();
        let mut q = Queue::create(&mut pg, 0, 120).unwrap();
        let cap = q.capacity();
        for i in 0..cap {
            q.push(&mut pg, &[i as u8; 120]).unwrap();
        }
        assert!(matches!(
            q.push(&mut pg, &[0u8; 120]),
            Err(StorageError::CapacityExceeded(_))
        ));
        // Draining one record frees room.
        q.pop(&mut pg).unwrap();
        q.push(&mut pg, &[9u8; 120]).unwrap();
    }

    #[test]
    fn reopen() {
        let mut pg = pager();
        let mut q = Queue::create(&mut pg, 3, 16).unwrap();
        q.push(&mut pg, &rec(7)).unwrap();
        let mut q2 = Queue::open(&mut pg, 3).unwrap();
        assert_eq!(q2.record_len(), 16);
        assert_eq!(q2.pop(&mut pg).unwrap(), Some(rec(7)));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut pg = pager();
        let mut q = Queue::create(&mut pg, 0, 16).unwrap();
        let mut expect = std::collections::VecDeque::new();
        let mut next = 0u32;
        let mut x: u64 = 12345;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !x.is_multiple_of(3) {
                if q.push(&mut pg, &rec(next)).is_ok() {
                    expect.push_back(next);
                }
                next += 1;
            } else {
                assert_eq!(
                    q.pop(&mut pg).unwrap(),
                    expect.pop_front().map(rec),
                    "FIFO order"
                );
            }
        }
        assert_eq!(q.len(&mut pg).unwrap(), expect.len() as u64);
    }
}
