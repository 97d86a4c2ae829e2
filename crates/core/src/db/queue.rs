//! Queue (Berkeley DB QUEUE, §2.2): the fixed-record queue access method
//! beside the primary index, through [`QueueHandle`].

use super::*;

/// Root slot of the queue.
const QUEUE_ROOT_SLOT: usize = 1;

impl Database {
    /// Create or open the fixed-record queue (feature `index-queue`).
    pub fn queue(&mut self, record_len: usize) -> Result<QueueHandle<'_>> {
        let mut core = self.engine.core();
        let q = match core.pager.root(QUEUE_ROOT_SLOT)? {
            Some(_) => fame_storage::Queue::open(&mut core.pager, QUEUE_ROOT_SLOT)?,
            None => fame_storage::Queue::create(&mut core.pager, QUEUE_ROOT_SLOT, record_len)?,
        };
        if q.record_len() != record_len {
            return Err(DbmsError::Config(format!(
                "queue exists with record length {}, requested {}",
                q.record_len(),
                record_len
            )));
        }
        Ok(QueueHandle { queue: q, core })
    }
}

/// Borrowed handle to the queue access method. Holds the storage guard
/// for its lifetime, so in MultiWriter products concurrent writers block
/// until the handle is dropped.
pub struct QueueHandle<'a> {
    queue: fame_storage::Queue,
    core: CoreRef<'a>,
}

impl QueueHandle<'_> {
    /// Append a record; returns its record number.
    pub fn push(&mut self, record: &[u8]) -> Result<u64> {
        Ok(self.queue.push(&mut self.core.pager, record)?)
    }

    /// Remove and return the oldest record.
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.queue.pop(&mut self.core.pager)?)
    }

    /// Read the oldest record without consuming it.
    pub fn peek(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.queue.peek(&mut self.core.pager)?)
    }

    /// Random access by record number.
    pub fn get(&mut self, recno: u64) -> Result<Option<Vec<u8>>> {
        Ok(self.queue.get(&mut self.core.pager, recno)?)
    }

    /// Live records.
    pub fn len(&mut self) -> Result<u64> {
        Ok(self.queue.len(&mut self.core.pager)?)
    }

    /// `true` when empty.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.queue.is_empty(&mut self.core.pager)?)
    }
}
