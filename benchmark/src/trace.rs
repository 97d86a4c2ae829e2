//! Tracing from outside the engine: the harness opens an op span around a
//! sampled call into the facade, and [`TimedDevice`] — wrapped around the
//! data and log devices handed to `Database::open_with_devices` — records
//! the device calls that op caused as child spans. An op's self time is
//! its span minus its device children: everything above the OS layer.
//!
//! Counts are taken on every call, traced or not (one relaxed add); the
//! `Instant` pairs exist only while [`enable`]d, which is what
//! `trace.overhead_ratio` prices.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use fame_os::{BlockDevice, DeviceStats, PageId, Result};

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Span id of the op the harness is inside on this thread (0 = none or
    /// not sampled). The engine is a library: device calls run on the
    /// caller's thread, so a thread-local is the causal link.
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for op spans (roots).
    pub parent: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Relaxed));
        }
        t.get()
    })
}

fn record(span: Span) {
    SPANS.lock().expect("span buffer poisoned").push(span);
}

pub fn enable(on: bool) {
    now_ns(); // pin the epoch before the first span
    TRACING.store(on, Relaxed);
}

/// Run `f` as one sampled op: its device calls become child spans.
pub fn op_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Relaxed);
    CURRENT_OP.with(|c| c.set(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    CURRENT_OP.with(|c| c.set(0));
    record(Span {
        name,
        id,
        parent: 0,
        thread: thread_id(),
        start_ns,
        end_ns,
    });
    out
}

/// All spans recorded so far, drained.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Mean duration and mean self time (duration minus device children) of
/// the op spans called `name`, plus how many there were.
pub fn op_times(spans: &[Span], name: &str) -> (f64, f64, usize) {
    let mut child_ns = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_insert(0u64) += s.end_ns - s.start_ns;
    }
    let (mut total, mut own, mut n) = (0u64, 0u64, 0usize);
    for s in spans.iter().filter(|s| s.parent == 0 && s.name == name) {
        let dur = s.end_ns - s.start_ns;
        total += dur;
        own += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        n += 1;
    }
    let n_f = n.max(1) as f64;
    (total as f64 / n_f, own as f64 / n_f, n)
}

/// Does every device span lie inside its op span, on the same thread?
pub fn spans_nest(spans: &[Span]) -> bool {
    let ops: std::collections::HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.id, s))
        .collect();
    spans.iter().filter(|s| s.parent != 0).all(|c| {
        ops.get(&c.parent).is_some_and(|p| {
            p.thread == c.thread && p.start_ns <= c.start_ns && c.end_ns <= p.end_ns
        })
    })
}

pub fn spans_to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"thread\":{},\"start\":{},\"end\":{}}}{sep}\n",
            s.name, s.id, s.parent, s.thread, s.start_ns, s.end_ns
        ));
    }
    out.push_str("]}\n");
    out
}

/// Per-device call counts and busy time, shared between the wrapper the
/// engine owns and the harness.
#[derive(Default)]
pub struct DevCounters {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub syncs: AtomicU64,
    /// Time inside the wrapped device; advances while tracing, or always
    /// when `always_timed`.
    pub busy_ns: AtomicU64,
    /// Time every call even in untraced runs: for a device whose speed is
    /// the host's, not the engine's (a real file), so that a workload can
    /// tell the two apart.
    pub always_timed: AtomicBool,
    /// High-water mark of the device size, in pages.
    pub pages: AtomicU64,
}

#[derive(Clone, Copy, Default)]
pub struct DevSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub syncs: u64,
    pub busy_ns: u64,
    pub pages: u64,
}

impl DevCounters {
    pub fn snapshot(&self) -> DevSnapshot {
        DevSnapshot {
            reads: self.reads.load(Relaxed),
            writes: self.writes.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
            pages: self.pages.load(Relaxed),
        }
    }
}

impl DevSnapshot {
    #[cfg(feature = "product-full")]
    pub fn add(&mut self, other: &DevSnapshot) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.syncs += other.syncs;
        self.busy_ns += other.busy_ns;
        self.pages = self.pages.max(other.pages);
    }

    pub fn since(&self, earlier: &DevSnapshot) -> DevSnapshot {
        DevSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            syncs: self.syncs - earlier.syncs,
            busy_ns: self.busy_ns - earlier.busy_ns,
            pages: self.pages,
        }
    }
}

/// Span names of one device's three calls.
pub struct DevNames {
    pub read: &'static str,
    pub write: &'static str,
    pub sync: &'static str,
}

pub const DATA: DevNames = DevNames {
    read: "os.data.read",
    write: "os.data.write",
    sync: "os.data.sync",
};
#[cfg(feature = "product-full")]
pub const LOG: DevNames = DevNames {
    read: "os.log.read",
    write: "os.log.write",
    sync: "os.log.sync",
};

/// The benchmark-owned device wrapper (see module docs).
pub struct TimedDevice {
    inner: Box<dyn BlockDevice>,
    counters: Arc<DevCounters>,
    names: &'static DevNames,
}

impl TimedDevice {
    pub fn wrap(
        inner: impl BlockDevice + 'static,
        names: &'static DevNames,
        counters: &Arc<DevCounters>,
    ) -> Box<dyn BlockDevice> {
        counters
            .pages
            .fetch_max(u64::from(inner.num_pages()), Relaxed);
        Box::new(TimedDevice {
            inner: Box::new(inner),
            counters: Arc::clone(counters),
            names,
        })
    }

    /// Time one device call when tracing, and make it a child span when
    /// the harness is inside a sampled op on this thread.
    #[inline]
    fn timed<R>(counters: &DevCounters, name: &'static str, call: impl FnOnce() -> R) -> R {
        let tracing = TRACING.load(Relaxed);
        if !tracing && !counters.always_timed.load(Relaxed) {
            return call();
        }
        let start_ns = now_ns();
        let out = call();
        let end_ns = now_ns();
        counters.busy_ns.fetch_add(end_ns - start_ns, Relaxed);
        let parent = CURRENT_OP.with(Cell::get);
        if tracing && parent != 0 {
            record(Span {
                name,
                id: NEXT_ID.fetch_add(1, Relaxed),
                parent,
                thread: thread_id(),
                start_ns,
                end_ns,
            });
        }
        out
    }
}

impl BlockDevice for TimedDevice {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        self.counters.reads.fetch_add(1, Relaxed);
        let inner = &mut self.inner;
        Self::timed(&self.counters, self.names.read, || {
            inner.read_page(page, buf)
        })
    }

    fn supports_shared_read(&self) -> bool {
        self.inner.supports_shared_read()
    }

    fn read_page_at(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        self.counters.reads.fetch_add(1, Relaxed);
        Self::timed(&self.counters, self.names.read, || {
            self.inner.read_page_at(page, buf)
        })
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        self.counters.writes.fetch_add(1, Relaxed);
        let inner = &mut self.inner;
        Self::timed(&self.counters, self.names.write, || {
            inner.write_page(page, buf)
        })
    }

    fn ensure_pages(&mut self, pages: u32) -> Result<()> {
        self.inner.ensure_pages(pages)?;
        self.counters
            .pages
            .fetch_max(u64::from(self.inner.num_pages()), Relaxed);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.counters.syncs.fetch_add(1, Relaxed);
        let inner = &mut self.inner;
        Self::timed(&self.counters, self.names.sync, || inner.sync())
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}
