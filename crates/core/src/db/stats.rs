//! Statistics (Fig. 2: *OS-Abstraction → Statistics*, the Berkeley DB
//! `->stat()` analog): what the feature keeps per instance, the facade's
//! one recording point, and the report [`Database::stats`] fills in, with
//! its TSV and human-readable renderings.

#[cfg(feature = "concurrency-multi")]
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use fame_obs::SpanKind;

use super::*;

/// Capacity of the op trace: the most recent facade operations it keeps
/// (events; allocated once at open, oldest overwritten).
pub(super) const OP_TRACE_CAPACITY: usize = 256;

/// Everything the Statistics feature keeps for one instance.
pub(super) struct Obs {
    /// I/O latency histograms of the data device.
    io: Arc<fame_os::IoTiming>,
    /// The op trace, fed only by [`Database::record`].
    trace: fame_obs::SpanRing,
    /// Causal span sink (feature `obs-trace`); every probed layer holds
    /// an `Arc` of it. 8 rings × 512 events × 64 B: the 256 KiB the
    /// feature model's Tracing `ram_bytes` assumes.
    #[cfg(feature = "obs-trace")]
    pub(super) spans: Arc<fame_obs::TraceSink>,
    /// Aggregate of dropped [`DbReader`](super::DbReader) handles' local
    /// counters (feature `concurrency-multi`).
    #[cfg(feature = "concurrency-multi")]
    pub(super) readers: Arc<super::reader::counters::ReaderAccum>,
    /// What the last [`Database::verify_integrity`] walk found.
    integrity: Option<IntegritySummary>,
    /// Batched-write counters + latency histogram (feature `api-batch`).
    #[cfg(feature = "api-batch")]
    pub(super) batch: super::batch::BatchObs,
}

impl Obs {
    /// Interpose the timing wrapper between pool and data device so
    /// page-I/O latencies land in histograms. Outermost wrapper, so crypto
    /// cost (when composed inside) is part of the measured read.
    pub(super) fn observe(device: Box<dyn BlockDevice>) -> (Box<dyn BlockDevice>, Obs) {
        let observed = fame_os::ObservedDevice::new(device);
        let obs = Obs {
            io: observed.timing(),
            trace: fame_obs::SpanRing::new(OP_TRACE_CAPACITY),
            #[cfg(feature = "obs-trace")]
            spans: Arc::new(fame_obs::TraceSink::new(8, 512)),
            #[cfg(feature = "concurrency-multi")]
            readers: Arc::default(),
            integrity: None,
            #[cfg(feature = "api-batch")]
            batch: Default::default(),
        };
        (Box::new(observed), obs)
    }

    /// Keep the summary of an integrity walk for the report.
    pub(super) fn integrity_checked(&mut self, report: &fame_storage::IntegrityReport) {
        self.integrity = Some(IntegritySummary {
            violations: report.violations.len(),
            leaked_pages: report.leaked_pages,
        });
    }
}

impl Database {
    /// A full statistics report of the running product (feature
    /// `statistics` — the Berkeley DB `->stat()` analog).
    ///
    /// The snapshot is *coherent* under concurrent readers: every counter
    /// is read once from its atomic, so repeated calls observe each field
    /// monotonically non-decreasing and never torn.
    pub fn stats(&mut self) -> Result<StatsSnapshot> {
        let (keys, index, allocated_pages, pool, device, frames, page_size, pager_ops) = {
            let mut core = self.engine.core();
            let keys = core.len()?;
            let (kv, pager) = (&core.kv, &core.pager);
            (
                keys,
                on_kv!(kv, _, Ix => Ix::NAME),
                pager.allocated_pages()?,
                pager.pool().stats(),
                pager.pool().device_stats(),
                pager.pool().frame_count(),
                pager.page_size(),
                pager.ops(),
            )
        };
        #[cfg(feature = "concurrency-snapshot")]
        let versions = self
            .engine
            .peek(|core| core.pager.pool().shared_handle())
            .map(|p| p.version_stats());
        Ok(StatsSnapshot {
            keys,
            index,
            allocated_pages,
            page_size,
            pool,
            device,
            pager_ops,
            io: self.obs.io.snapshot(),
            frames,
            frame_bytes: frames * page_size,
            ops_traced: self.obs.trace.recorded(),
            #[cfg(feature = "obs-trace")]
            spans: (self.obs.spans.recorded(), self.obs.spans.dropped()),
            #[cfg(feature = "concurrency-multi")]
            reader_gets: self.obs.readers.gets.load(Relaxed),
            #[cfg(feature = "concurrency-multi")]
            reader_hits: self.obs.readers.hits.load(Relaxed),
            integrity: self.obs.integrity,
            #[cfg(feature = "api-batch")]
            batches: self.obs.batch.batches.get(),
            #[cfg(feature = "api-batch")]
            batch_ops: self.obs.batch.ops.get(),
            #[cfg(feature = "api-batch")]
            batch_latency: self.obs.batch.latency.snapshot(),
            #[cfg(feature = "transactions")]
            txn: self.txn_stats(),
            #[cfg(feature = "transactions")]
            log_syncs: self.log_syncs(),
            #[cfg(feature = "transactions")]
            log_bytes: self.engine.txn_peek(|m| m.log_bytes()),
            #[cfg(feature = "transactions")]
            commit_latency: self.engine.txn_peek(|m| m.obs().commit_latency.snapshot()),
            #[cfg(feature = "concurrency-multi-writer")]
            locks: match &self.engine {
                super::Engine::Shared(w) => {
                    let obs = w.txn.lock_table().obs();
                    Some(LockStats {
                        waits: obs.waits.get(),
                        wait_time: obs.wait_time.snapshot(),
                        deadlock_aborts: obs.deadlock_aborts.get(),
                        timeout_aborts: obs.timeout_aborts.get(),
                    })
                }
                super::Engine::Own { .. } => None,
            },
            #[cfg(feature = "concurrency-snapshot")]
            versions,
            #[cfg(feature = "transactions")]
            recovery_redo: self.last_recovery.as_ref().map_or(0, |r| r.redo_applied),
            #[cfg(feature = "transactions")]
            recovery_undo: self.last_recovery.as_ref().map_or(0, |r| r.undo_applied),
            #[cfg(feature = "sql")]
            query: self.sql.as_ref().map(|e| e.obs()),
            #[cfg(feature = "replication")]
            replication_lag: self.replication_lag(),
        })
    }

    /// The op trace, oldest first (feature `statistics`). At most
    /// `OP_TRACE_CAPACITY` (256) most-recent events.
    pub fn op_trace(&self) -> Vec<fame_obs::SpanEvent> {
        self.obs.trace.events()
    }

    /// The facade's one recording point. Every event lands in the op
    /// trace. The transaction lifecycle and recovery are also edges of the
    /// causal trace (feature `obs-trace`) — unless the MultiWriter engine
    /// runs the transaction, whose own probes already emitted them. Plain
    /// operations (`put`, `get`, …) stay out of the span rings: they
    /// would evict the causal events.
    pub(super) fn record(&self, kind: SpanKind, txn: u64, a: u64, b: u64) {
        self.obs.trace.record(kind, txn, 0, a, b);
        #[cfg(feature = "obs-trace")]
        if kind == SpanKind::Recovery
            || (matches!(self.engine, super::Engine::Own { .. })
                && matches!(
                    kind,
                    SpanKind::TxnBegin | SpanKind::TxnCommit | SpanKind::TxnAbort
                ))
        {
            self.obs.spans.emit(kind, txn, 0, a, b);
        }
    }
}

/// Summary of the last [`Database::verify_integrity`] walk, kept for the
/// statistics report (feature `statistics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegritySummary {
    /// Structural invariants found violated.
    pub violations: usize,
    /// Allocated pages neither reachable nor free.
    pub leaked_pages: u32,
}

/// Product statistics report (feature `statistics`).
///
/// Coherent point-in-time copy: every field is a plain value read once
/// from its atomic source, safe to take while concurrent [`DbReader`]s
/// run.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Live keys in the primary index.
    pub keys: usize,
    /// Name of the composed index.
    pub index: &'static str,
    /// Pages the pager has handed out (including meta and free list).
    pub allocated_pages: u32,
    /// Page size in bytes.
    pub page_size: usize,
    /// Buffer-pool counters (hits/misses/evictions/writebacks/latch waits).
    pub pool: fame_buffer::PoolStats,
    /// Device counters.
    pub device: fame_os::DeviceStats,
    /// Logical pager operations (page reads/writes, allocs/frees).
    pub pager_ops: fame_storage::PagerOpsSnapshot,
    /// Data-device I/O latency histograms.
    pub io: fame_os::IoTimingSnapshot,
    /// Buffer frames currently resident.
    pub frames: usize,
    /// Bytes those frames pin (`frames * page_size`) — the `ram` NFP of
    /// the buffer.
    pub frame_bytes: usize,
    /// Events recorded into the op-trace ring since open.
    pub ops_traced: u64,
    /// Causal span events since open (feature `obs-trace`), as
    /// `(recorded, dropped)`; an event is dropped when every span ring is
    /// mid-record.
    #[cfg(feature = "obs-trace")]
    pub spans: (u64, u64),
    /// Lookups served by dropped [`DbReader`] handles (handle-local
    /// counters, merged when a handle drops — live handles' in-flight
    /// counts are not included).
    #[cfg(feature = "concurrency-multi")]
    pub reader_gets: u64,
    /// How many of those lookups found the key.
    #[cfg(feature = "concurrency-multi")]
    pub reader_hits: u64,
    /// What the last [`Database::verify_integrity`] found; `None` until
    /// it has been run on this instance.
    pub integrity: Option<IntegritySummary>,
    /// Batches applied via [`Database::apply_batch`].
    #[cfg(feature = "api-batch")]
    pub batches: u64,
    /// Operations submitted across those batches.
    #[cfg(feature = "api-batch")]
    pub batch_ops: u64,
    /// Whole-batch apply latency (resolve + log + bulk apply + commit).
    #[cfg(feature = "api-batch")]
    pub batch_latency: fame_obs::HistogramSnapshot,
    /// `(committed, aborted)`, when transactions are configured.
    #[cfg(feature = "transactions")]
    pub txn: Option<(u64, u64)>,
    /// Log-device sync count, when transactions are configured.
    #[cfg(feature = "transactions")]
    pub log_syncs: Option<u64>,
    /// Bytes appended to the WAL (the log tail offset).
    #[cfg(feature = "transactions")]
    pub log_bytes: Option<u64>,
    /// Commit-latency histogram of successful commits.
    #[cfg(feature = "transactions")]
    pub commit_latency: Option<fame_obs::HistogramSnapshot>,
    /// Block-lock counters, when the instance runs MultiWriter.
    #[cfg(feature = "concurrency-multi-writer")]
    pub locks: Option<LockStats>,
    /// Copy-on-write version-chain counters (feature
    /// `concurrency-snapshot`): chain high-water, live snapshots,
    /// reclaimed versions.
    #[cfg(feature = "concurrency-snapshot")]
    pub versions: Option<fame_buffer::VersionStats>,
    /// Redo operations applied by recovery at open (0 = clean open).
    #[cfg(feature = "transactions")]
    pub recovery_redo: usize,
    /// Undo operations applied by recovery at open.
    #[cfg(feature = "transactions")]
    pub recovery_undo: usize,
    /// SQL executor counters; `None` until the engine has been used.
    #[cfg(feature = "sql")]
    pub query: Option<fame_query::QueryObsSnapshot>,
    /// Shipped-minus-acknowledged, when replication is configured.
    #[cfg(feature = "replication")]
    pub replication_lag: Option<u64>,
}

impl StatsSnapshot {
    /// Flat `metric<TAB>value` export, one line per scalar — the format
    /// the E9 probe and external collectors scrape. Histogram fields
    /// export count/mean/p50/p99/max.
    pub fn to_tsv(&self) -> String {
        fn put_hist(put: &mut impl FnMut(&str, u64), name: &str, h: &fame_obs::HistogramSnapshot) {
            put(&format!("{name}.count"), h.count);
            put(&format!("{name}.mean_ns"), h.mean_ns());
            put(&format!("{name}.p50_ns"), h.percentile_ns(50));
            put(&format!("{name}.p99_ns"), h.percentile_ns(99));
            put(&format!("{name}.max_ns"), h.max_ns);
        }
        let mut out = String::new();
        let mut put = |k: &str, v: u64| {
            out.push_str(k);
            out.push('\t');
            out.push_str(&v.to_string());
            out.push('\n');
        };
        put("keys", self.keys as u64);
        put("allocated_pages", u64::from(self.allocated_pages));
        put("page_size", self.page_size as u64);
        put("pool.hits", self.pool.hits);
        put("pool.misses", self.pool.misses);
        put("pool.evictions", self.pool.evictions);
        put("pool.writebacks", self.pool.writebacks);
        put("pool.latch_waits", self.pool.latch_waits);
        put("pool.frames", self.frames as u64);
        put("pool.frame_bytes", self.frame_bytes as u64);
        put("device.reads", self.device.reads);
        put("device.writes", self.device.writes);
        put("device.syncs", self.device.syncs);
        put("device.erases", self.device.erases);
        put("pager.page_reads", self.pager_ops.page_reads);
        put("pager.page_writes", self.pager_ops.page_writes);
        put("pager.allocs", self.pager_ops.allocs);
        put("pager.frees", self.pager_ops.frees);
        put_hist(&mut put, "io.read", &self.io.read);
        put_hist(&mut put, "io.write", &self.io.write);
        put_hist(&mut put, "io.sync", &self.io.sync);
        put("ops_traced", self.ops_traced);
        #[cfg(feature = "concurrency-multi")]
        {
            put("reader.gets", self.reader_gets);
            put("reader.hits", self.reader_hits);
        }
        #[cfg(feature = "obs-trace")]
        {
            put("trace.spans.recorded", self.spans.0);
            put("trace.spans.dropped", self.spans.1);
        }
        if let Some(i) = &self.integrity {
            put("integrity.violations", i.violations as u64);
            put("integrity.leaked_pages", u64::from(i.leaked_pages));
        }
        #[cfg(feature = "api-batch")]
        {
            put("batch.batches", self.batches);
            put("batch.ops", self.batch_ops);
            put_hist(&mut put, "batch.latency", &self.batch_latency);
        }
        #[cfg(feature = "transactions")]
        {
            if let Some((c, a)) = self.txn {
                put("txn.committed", c);
                put("txn.aborted", a);
            }
            if let Some(s) = self.log_syncs {
                put("txn.log_syncs", s);
            }
            if let Some(b) = self.log_bytes {
                put("txn.log_bytes", b);
            }
            if let Some(h) = &self.commit_latency {
                put_hist(&mut put, "txn.commit", h);
            }
            put("recovery.redo", self.recovery_redo as u64);
            put("recovery.undo", self.recovery_undo as u64);
        }
        #[cfg(feature = "concurrency-multi-writer")]
        if let Some(l) = &self.locks {
            put("lock.waits", l.waits);
            put_hist(&mut put, "lock.wait", &l.wait_time);
            put("lock.deadlock_aborts", l.deadlock_aborts);
            put("lock.timeout_aborts", l.timeout_aborts);
        }
        #[cfg(feature = "concurrency-snapshot")]
        if let Some(v) = &self.versions {
            put("snapshot.chain_max", v.chain_max);
            put("snapshot.active", v.active);
            put("snapshot.pruned", v.pruned);
            put("snapshot.live_entries", v.live_entries);
            put("snapshot.pending_pages", v.pending_pages);
        }
        #[cfg(feature = "sql")]
        if let Some(q) = &self.query {
            put("query.rows_scanned", q.rows_scanned);
            put("query.full_scans", q.full_scans);
            put("query.point_lookups", q.point_lookups);
            put("query.range_scans", q.range_scans);
        }
        #[cfg(feature = "replication")]
        if let Some(lag) = self.replication_lag {
            put("replication.lag", lag);
        }
        out
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "index:            {} ({} keys)", self.index, self.keys)?;
        writeln!(
            f,
            "pages:            {} x {} bytes",
            self.allocated_pages, self.page_size
        )?;
        writeln!(
            f,
            "buffer:           {:.1}% hits ({} accesses, {} evictions, {} writebacks, {} latch waits)",
            self.pool.hit_ratio() * 100.0,
            self.pool.hits + self.pool.misses,
            self.pool.evictions,
            self.pool.writebacks,
            self.pool.latch_waits
        )?;
        writeln!(
            f,
            "frames:           {} resident ({} bytes)",
            self.frames, self.frame_bytes
        )?;
        writeln!(
            f,
            "pager:            {} page reads, {} page writes, {} allocs, {} frees",
            self.pager_ops.page_reads,
            self.pager_ops.page_writes,
            self.pager_ops.allocs,
            self.pager_ops.frees
        )?;
        writeln!(
            f,
            "device:           {} reads, {} writes, {} syncs, {} erases",
            self.device.reads, self.device.writes, self.device.syncs, self.device.erases
        )?;
        write!(f, "io read:          {}", self.io.read)?;
        write!(f, "\nio write:         {}", self.io.write)?;
        write!(f, "\nio sync:          {}", self.io.sync)?;
        write!(f, "\nops traced:       {}", self.ops_traced)?;
        #[cfg(feature = "concurrency-multi")]
        if self.reader_gets > 0 {
            write!(
                f,
                "\nreaders:          {} gets ({} hits, from dropped handles)",
                self.reader_gets, self.reader_hits
            )?;
        }
        #[cfg(feature = "obs-trace")]
        write!(
            f,
            "\nspans:            {} recorded, {} dropped",
            self.spans.0, self.spans.1
        )?;
        if let Some(i) = &self.integrity {
            write!(
                f,
                "\nintegrity:        {} violations, {} leaked pages",
                i.violations, i.leaked_pages
            )?;
        }
        #[cfg(feature = "api-batch")]
        if self.batches > 0 {
            write!(
                f,
                "\nbatches:          {} applied ({} ops), latency {}",
                self.batches, self.batch_ops, self.batch_latency
            )?;
        }
        #[cfg(feature = "transactions")]
        {
            if let Some((c, a)) = self.txn {
                write!(f, "\ntransactions:     {c} committed, {a} aborted")?;
            }
            if let (Some(s), Some(b)) = (self.log_syncs, self.log_bytes) {
                write!(f, "\nwal:              {s} syncs, {b} bytes")?;
            }
            if let Some(h) = &self.commit_latency {
                write!(f, "\ncommit latency:   {h}")?;
            }
            if self.recovery_redo + self.recovery_undo > 0 {
                write!(
                    f,
                    "\nrecovery:         {} redo, {} undo",
                    self.recovery_redo, self.recovery_undo
                )?;
            }
        }
        #[cfg(feature = "concurrency-multi-writer")]
        if let Some(l) = &self.locks {
            write!(
                f,
                "\nlocks:            {} waits ({} deadlock aborts, {} timeouts), wait time {}",
                l.waits, l.deadlock_aborts, l.timeout_aborts, l.wait_time
            )?;
        }
        #[cfg(feature = "sql")]
        if let Some(q) = &self.query {
            write!(
                f,
                "\nquery:            {} rows scanned ({} point, {} range, {} full)",
                q.rows_scanned, q.point_lookups, q.range_scans, q.full_scans
            )?;
        }
        #[cfg(feature = "replication")]
        if let Some(lag) = self.replication_lag {
            write!(f, "\nreplication lag:  {lag}")?;
        }
        Ok(())
    }
}

/// Block-lock counters of a MultiWriter product (feature `statistics`):
/// how often writers park, for how long, and why transactions died.
#[cfg(feature = "concurrency-multi-writer")]
#[derive(Debug, Clone)]
pub struct LockStats {
    /// Acquisitions that had to park (at least one condvar wait).
    pub waits: u64,
    /// Time spent parked, per blocking acquisition.
    pub wait_time: fame_obs::HistogramSnapshot,
    /// Transactions aborted as deadlock victims.
    pub deadlock_aborts: u64,
    /// Acquisitions that gave up on timeout.
    pub timeout_aborts: u64,
}
