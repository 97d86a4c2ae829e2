//! Append-only log storage over a [`BlockDevice`].
//!
//! The log treats the device as a byte stream: records are framed as
//! `[len:u32][checksum:u32][payload]` and packed back to back across page
//! boundaries. The writer buffers the tail page in memory: an append is a
//! copy into that page, and the device is touched only when a page fills
//! or at [`LogWriter::sync`] (the dirty tail is written once, then the
//! barrier). After a crash the reader sees every byte up to the last
//! device write and stops at the first frame whose length or checksum is
//! implausible — the torn tail.
//!
//! Buffering hands two duties to the engine (DESIGN.md §11). The
//! write-ahead rule: a record must be on the log device before the data
//! page it describes is on the data device, so the facade runs
//! [`LogWriter::barrier`] ahead of every data-page write; the tail sits
//! behind a mutex for that — a *leaf* lock, never held while another is
//! taken. And the meaning of an unsynced commit: under
//! `CommitPolicy::Group`, a commit acknowledged before its group's sync
//! is in this process's memory only — lost to a process kill as well as
//! to power loss. A clean close loses nothing: dropping the writer writes
//! the pending tail.

use std::sync::{Arc, Mutex, MutexGuard};

use fame_os::{BlockDevice, OsError, PageId};

use crate::wal::{checksum, LogRecord};

/// Byte offset of a record in the log.
pub type Lsn = u64;

const FRAME_HEADER: usize = 8;

/// The log device and the buffered page at its end — what the writer and
/// its barriers share.
struct Tail {
    device: Box<dyn BlockDevice>,
    /// Image of page `page_no`, the page the next append lands in.
    page: Vec<u8>,
    page_no: PageId,
    /// `page` holds bytes the device does not.
    dirty: bool,
}

impl Tail {
    /// Write the tail page if it is dirty (no sync).
    fn write_out(&mut self) -> Result<(), OsError> {
        if self.dirty {
            self.device.ensure_pages(self.page_no + 1)?;
            self.device.write_page(self.page_no, &self.page)?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Take `data` in at byte `at` of the log (the current end). A run
    /// that stays inside the tail page is a copy. One that fills it sends
    /// every page it fills to the device — the tail page, then whole pages
    /// straight from `data` — and only then moves the buffer on, so a
    /// failed write leaves the writer where it was and the append can be
    /// retried.
    fn extend(&mut self, at: Lsn, data: &[u8]) -> Result<(), OsError> {
        let ps = self.page.len();
        let off = (at % ps as u64) as usize;
        let (head, rest) = data.split_at(data.len().min(ps - off));
        self.page[off..off + head.len()].copy_from_slice(head);
        self.dirty = true;
        if off + head.len() < ps {
            return Ok(());
        }
        let whole = rest.chunks_exact(ps);
        let partial = whole.remainder();
        let next = self.page_no + 1 + whole.len() as PageId;
        let written = self.write_out().and_then(|()| {
            self.device.ensure_pages(next)?;
            (self.page_no + 1..next)
                .zip(whole)
                .try_for_each(|(page, chunk)| self.device.write_page(page, chunk))
        });
        if let Err(e) = written {
            // The device may hold part of the run; the next write of this
            // page puts the bytes before `at` back under a clean tail.
            self.page[off..].fill(0);
            self.dirty = true;
            return Err(e);
        }
        self.page_no = next;
        self.page.fill(0);
        self.page[..partial.len()].copy_from_slice(partial);
        self.dirty = !partial.is_empty();
        Ok(())
    }
}

/// Appends records to a log device.
pub struct LogWriter {
    shared: Arc<Mutex<Tail>>,
    /// Next byte to write.
    tail: u64,
    /// Records appended since the last sync.
    unsynced: u64,
    /// Persistent frame-encode buffer, reused across appends so a
    /// steady-state append performs no heap allocation.
    frame_buf: Vec<u8>,
}

impl LogWriter {
    /// Start a writer at byte `tail` (0 for a fresh log; the end
    /// [`LogReader::read_all`] returns to resume an existing one).
    pub fn new(mut device: Box<dyn BlockDevice>, tail: u64) -> Result<Self, OsError> {
        let ps = device.page_size() as u64;
        let page_no = (tail / ps) as PageId;
        let mut page = vec![0u8; ps as usize];
        if page_no < device.num_pages() {
            device.read_page(page_no, &mut page)?;
        }
        Ok(LogWriter {
            shared: Arc::new(Mutex::new(Tail {
                device,
                page,
                page_no,
                dirty: false,
            })),
            tail,
            unsynced: 0,
            frame_buf: Vec::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Tail> {
        self.shared.lock().expect("log tail poisoned")
    }

    /// Current end of the log.
    pub fn tail(&self) -> Lsn {
        self.tail
    }

    /// Records appended but not yet synced.
    pub fn unsynced(&self) -> u64 {
        self.unsynced
    }

    /// The write-ahead barrier: a closure that writes the pending tail
    /// page to the log device, if there is one — a write, not a sync — for
    /// whoever must order its own device writes behind the log's. A no-op
    /// once the writer is gone: a dropped writer has written its tail.
    pub fn barrier(&self) -> impl Fn() -> Result<(), OsError> + Send + Sync + 'static {
        let tail = Arc::downgrade(&self.shared);
        move || match tail.upgrade() {
            Some(tail) => tail.lock().expect("log tail poisoned").write_out(),
            None => Ok(()),
        }
    }

    /// Append a record; returns its LSN. The record is buffered, neither
    /// written nor synced — call [`LogWriter::sync`] per the commit
    /// protocol.
    pub fn append(&mut self, record: &LogRecord) -> Result<Lsn, OsError> {
        self.append_many(std::slice::from_ref(record))
    }

    /// Append a run of records; returns the LSN of the first. Like
    /// `append`, nothing is synced; the commit protocol decides when the
    /// barrier happens.
    pub fn append_many(&mut self, records: &[LogRecord]) -> Result<Lsn, OsError> {
        self.append_encoded(records, LogRecord::encode_into)
    }

    /// Append one record whose payload `encode` writes from borrowed
    /// parts (the commit path's puts and removes).
    pub(crate) fn append_with(&mut self, encode: impl Fn(&mut Vec<u8>)) -> Result<Lsn, OsError> {
        self.append_encoded(&[()], |(), out| encode(out))
    }

    /// The one append routine: one `[len][checksum][payload]` frame per
    /// item, its payload encoded in place into the persistent buffer (no
    /// intermediate allocation), the whole run handed to the tail in one
    /// pass.
    pub(crate) fn append_encoded<T>(
        &mut self,
        items: &[T],
        encode: impl Fn(&T, &mut Vec<u8>),
    ) -> Result<Lsn, OsError> {
        let lsn = self.tail;
        let buf = &mut self.frame_buf;
        buf.clear();
        for item in items {
            let start = buf.len();
            buf.extend_from_slice(&[0u8; FRAME_HEADER]);
            encode(item, buf);
            let payload = &buf[start + FRAME_HEADER..];
            let len = (payload.len() as u32).to_le_bytes();
            let sum = checksum(payload).to_le_bytes();
            buf[start..start + 4].copy_from_slice(&len);
            buf[start + 4..start + FRAME_HEADER].copy_from_slice(&sum);
        }
        if !items.is_empty() {
            self.lock().extend(lsn, &self.frame_buf)?;
            self.tail += self.frame_buf.len() as u64;
            self.unsynced += items.len() as u64;
        }
        Ok(lsn)
    }

    /// Capacity of the persistent encode buffer (tests assert it reaches
    /// a steady state — i.e. appends stop allocating).
    #[cfg(test)]
    fn frame_buf_capacity(&self) -> usize {
        self.frame_buf.capacity()
    }

    /// Durability barrier on the log device: the pending tail page is
    /// written, then the device synced.
    pub fn sync(&mut self) -> Result<(), OsError> {
        let mut tail = self.lock();
        tail.write_out()?;
        tail.device.sync()?;
        drop(tail);
        self.unsynced = 0;
        Ok(())
    }

    /// Device counters (syncs per commit protocol, bytes written, ...).
    pub fn device_stats(&self) -> fame_os::DeviceStats {
        self.lock().device.stats()
    }

    /// Reclaim the device, pending tail written (tests, tools).
    pub fn into_device(self) -> Box<dyn BlockDevice> {
        let mut shared = Arc::clone(&self.shared);
        drop(self);
        // Only barriers' weak handles are left; one may be running on
        // another thread and hold a strong reference for that long.
        loop {
            match Arc::try_unwrap(shared) {
                Ok(tail) => return tail.into_inner().unwrap_or_else(|p| p.into_inner()).device,
                Err(still_shared) => shared = still_shared,
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for LogWriter {
    /// A clean close loses no appended record: write the pending tail
    /// (errors cannot be surfaced from drop; after a crash the device is
    /// offline and the tail is lost, as unsynced bytes are).
    fn drop(&mut self) {
        if let Ok(mut tail) = self.shared.lock() {
            let _ = tail.write_out();
        }
    }
}

/// Reads a log from the beginning, stopping at the torn tail.
///
/// The reader keeps the page under the cursor cached, so sequential
/// scanning costs one device read per log page rather than one per frame
/// header and payload chunk — recovery time is O(pages), not O(records).
pub struct LogReader {
    device: Box<dyn BlockDevice>,
    pos: u64,
    end: u64,
    /// Cached image of page `cached_page_no`, if any.
    page_buf: Vec<u8>,
    cached_page_no: Option<PageId>,
}

impl LogReader {
    /// Open a reader over the whole device.
    pub fn new(device: Box<dyn BlockDevice>) -> Self {
        let end = u64::from(device.num_pages()) * device.page_size() as u64;
        let page_buf = vec![0u8; device.page_size()];
        LogReader {
            device,
            pos: 0,
            end,
            page_buf,
            cached_page_no: None,
        }
    }

    /// Reclaim the device (e.g. to hand it to a [`LogWriter`] after a scan).
    pub fn into_device(self) -> Box<dyn BlockDevice> {
        self.device
    }

    fn read_bytes(&mut self, len: usize) -> Result<Option<Vec<u8>>, OsError> {
        if self.pos + len as u64 > self.end {
            return Ok(None);
        }
        let ps = self.device.page_size();
        let mut out = Vec::with_capacity(len);
        let mut pos = self.pos;
        let mut remaining = len;
        while remaining > 0 {
            let page_no = (pos / ps as u64) as PageId;
            let off = (pos % ps as u64) as usize;
            if self.cached_page_no != Some(page_no) {
                self.device.read_page(page_no, &mut self.page_buf)?;
                self.cached_page_no = Some(page_no);
            }
            let n = (ps - off).min(remaining);
            out.extend_from_slice(&self.page_buf[off..off + n]);
            pos += n as u64;
            remaining -= n;
        }
        self.pos = pos;
        Ok(Some(out))
    }

    /// Read the next record; `None` at the (possibly torn) end of the log.
    fn next_record(&mut self) -> Result<Option<(Lsn, LogRecord)>, OsError> {
        let lsn = self.pos;
        let header = match self.read_bytes(FRAME_HEADER)? {
            Some(h) => h,
            None => return Ok(None),
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let want_sum = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        // A zero length means we ran into the zero-filled tail; an
        // implausibly large one means torn garbage.
        if len == 0 || len > 1 << 20 {
            self.pos = lsn;
            return Ok(None);
        }
        let payload = match self.read_bytes(len)? {
            Some(p) => p,
            None => {
                self.pos = lsn;
                return Ok(None);
            }
        };
        if checksum(&payload) != want_sum {
            self.pos = lsn;
            return Ok(None);
        }
        match LogRecord::decode(&payload) {
            Some(r) => Ok(Some((lsn, r))),
            None => {
                self.pos = lsn;
                Ok(None)
            }
        }
    }

    /// Read every valid record and return them with the end-of-log LSN
    /// (where a resumed writer should continue).
    pub fn read_all(&mut self) -> Result<(Vec<(Lsn, LogRecord)>, Lsn), OsError> {
        let mut out = Vec::new();
        while let Some(item) = self.next_record()? {
            out.push(item);
        }
        Ok((out, self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_os::InMemoryDevice;

    fn records(n: u64) -> Vec<LogRecord> {
        (0..n)
            .map(|i| LogRecord::Put {
                txn: i,
                index: (i % 3) as u8,
                key: format!("key{i}").into_bytes(),
                old: if i % 2 == 0 {
                    None
                } else {
                    Some(vec![1u8; i as usize % 40])
                },
                new: vec![i as u8; (i as usize * 3) % 60],
            })
            .collect()
    }

    #[test]
    fn write_read_round_trip() {
        let mut w = LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap();
        let recs = records(50);
        let mut lsns = Vec::new();
        for r in &recs {
            lsns.push(w.append(r).unwrap());
        }
        assert!(lsns.windows(2).all(|p| p[0] < p[1]), "LSNs increase");
        w.sync().unwrap();
        let mut r = LogReader::new(w.into_device());
        let (read, _end) = r.read_all().unwrap();
        assert_eq!(read.len(), 50);
        for ((lsn, rec), (want_lsn, want)) in read.iter().zip(lsns.iter().zip(&recs)) {
            assert_eq!(lsn, want_lsn);
            assert_eq!(rec, want);
        }
    }

    #[test]
    fn records_span_page_boundaries() {
        // 128-byte pages, 100-byte values force spanning.
        let mut w = LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap();
        let r = LogRecord::Put {
            txn: 1,
            index: 0,
            key: vec![7u8; 90],
            old: Some(vec![8u8; 90]),
            new: vec![9u8; 90],
        };
        w.append(&r).unwrap();
        w.append(&r).unwrap();
        let mut reader = LogReader::new(w.into_device());
        let (read, _) = reader.read_all().unwrap();
        assert_eq!(read.len(), 2);
        assert_eq!(read[1].1, r);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let mut w = LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap();
        for r in records(10) {
            w.append(&r).unwrap();
        }
        let tail = w.tail();
        let mut dev = w.into_device();
        // Corrupt the middle of the last record.
        let ps = dev.page_size() as u64;
        let last_page = ((tail - 1) / ps) as u32;
        let mut buf = vec![0u8; ps as usize];
        dev.read_page(last_page, &mut buf).unwrap();
        let off = ((tail - 1) % ps) as usize;
        buf[off] ^= 0xFF;
        dev.write_page(last_page, &buf).unwrap();

        let mut r = LogReader::new(dev);
        let (read, end) = r.read_all().unwrap();
        assert_eq!(read.len(), 9, "last record dropped as torn");
        assert!(end < tail);
    }

    #[test]
    fn resume_writing_at_the_end_read_all_returns() {
        let mut w = LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap();
        for r in records(5) {
            w.append(&r).unwrap();
        }
        let mut r = LogReader::new(w.into_device());
        let (_, end) = r.read_all().unwrap();
        let mut w = LogWriter::new(r.into_device(), end).unwrap();
        w.append(&LogRecord::Checkpoint).unwrap();
        let mut r = LogReader::new(w.into_device());
        let (read, _) = r.read_all().unwrap();
        assert_eq!(read.len(), 6);
        assert_eq!(read.last().unwrap().1, LogRecord::Checkpoint);
    }

    #[test]
    fn empty_log_reads_nothing() {
        let mut r = LogReader::new(Box::new(InMemoryDevice::new(128)));
        let (read, end) = r.read_all().unwrap();
        assert!(read.is_empty());
        assert_eq!(end, 0);
    }

    #[test]
    fn sequential_scan_reads_each_page_once() {
        // Many tiny records packed into few pages: the reader must fetch
        // each log page once (cached under the cursor), not once per frame
        // header and payload chunk.
        let mut w = LogWriter::new(Box::new(InMemoryDevice::new(256)), 0).unwrap();
        for i in 0..100u64 {
            w.append(&LogRecord::Begin { txn: i }).unwrap();
        }
        let tail = w.tail();
        let dev = w.into_device();
        let pages_used = tail.div_ceil(256);
        let reads_before = dev.stats().reads;

        let mut r = LogReader::new(dev);
        let (read, _) = r.read_all().unwrap();
        assert_eq!(read.len(), 100);

        let reads = r.into_device().stats().reads - reads_before;
        assert!(
            reads <= pages_used + 1,
            "sequential scan of {pages_used} pages issued {reads} device reads"
        );
    }

    #[test]
    fn either_append_path_writes_each_page_once() {
        // A loop over append() and one append_many() leave the same log
        // behind, and either way a page goes to the device once: when it
        // fills, or — the last, partial one — when the writer syncs.
        let recs = records(40);
        let writer = || LogWriter::new(Box::new(InMemoryDevice::new(256)), 0).unwrap();

        let mut loop_w = writer();
        for r in &recs {
            loop_w.append(r).unwrap();
        }
        let mut batch_w = writer();
        assert_eq!(batch_w.append_many(&recs).unwrap(), 0);
        let tail = loop_w.tail();
        assert_eq!(batch_w.tail(), tail, "identical byte stream length");
        assert_eq!(batch_w.unsynced(), recs.len() as u64);

        for w in [&mut loop_w, &mut batch_w] {
            assert_eq!(
                w.device_stats().writes,
                tail / 256,
                "one write per page filled"
            );
            w.sync().unwrap();
            assert_eq!(
                w.device_stats().writes,
                tail.div_ceil(256),
                "plus the tail, once"
            );
        }
        let (read, end) = LogReader::new(batch_w.into_device()).read_all().unwrap();
        assert_eq!(end, tail);
        assert!(read.iter().map(|(_, r)| r).eq(&recs));
        let (looped, _) = LogReader::new(loop_w.into_device()).read_all().unwrap();
        assert_eq!(looped, read);
    }

    #[test]
    fn append_many_empty_is_a_no_op() {
        let mut w = LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap();
        let writes_before = w.device_stats().writes;
        assert_eq!(w.append_many(&[]).unwrap(), 0);
        assert_eq!(w.tail(), 0);
        assert_eq!(w.unsynced(), 0);
        assert_eq!(w.device_stats().writes, writes_before);
    }

    #[test]
    fn append_reuses_frame_buffer_with_zero_steady_state_allocations() {
        // The persistent encode buffer grows to fit the largest record
        // seen, then stops: after a warm-up append the capacity never
        // changes again for records of the same shape, i.e. the append
        // path performs no steady-state heap allocation.
        let mut w = LogWriter::new(Box::new(InMemoryDevice::new(256)), 0).unwrap();
        let r = LogRecord::Put {
            txn: 1,
            index: 0,
            key: vec![7u8; 32],
            old: Some(vec![8u8; 32]),
            new: vec![9u8; 32],
        };
        w.append(&r).unwrap();
        let warm = w.frame_buf_capacity();
        assert!(warm > 0);
        for _ in 0..200 {
            w.append(&r).unwrap();
        }
        assert_eq!(
            w.frame_buf_capacity(),
            warm,
            "steady-state appends must not reallocate the frame buffer"
        );
    }

    #[test]
    fn unsynced_counter() {
        let mut w = LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap();
        w.append(&LogRecord::Begin { txn: 1 }).unwrap();
        w.append(&LogRecord::Commit { txn: 1 }).unwrap();
        assert_eq!(w.unsynced(), 2);
        w.sync().unwrap();
        assert_eq!(w.unsynced(), 0);
    }
}
