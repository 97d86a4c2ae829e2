//! The metric sheet: names and units exactly as `BENCHMARK.json` lists
//! them. An untraced run prints every end-to-end metric, a traced run
//! every per-layer metric; a layer metric a workload does not exercise
//! prints 0 (README.md says which workload measures which).

use std::collections::BTreeMap;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("rss_peak_mib", "MiB"),
    ("image_kib", "KiB"),
    ("write_bytes_per_user_byte", "B/B"),
    ("disk_bytes_per_user_byte", "B/B"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    // core: the facade and its handles.
    ("core.get.self_ns", "ns"),
    ("core.full_vs_min.get_ratio", "ratio"),
    ("core.snapshot.get_ns", "ns"),
    ("core.snapshot.refresh_ns", "ns"),
    ("core.snapshot.backward_reads", "count"),
    ("core.reader.get_ns", "ns"),
    ("core.put.self_ns", "ns"),
    ("core.commit.cpu_ns", "ns"),
    // query: SQL front end and executor.
    ("query.parse_ns", "ns"),
    ("query.plan_ns", "ns"),
    ("query.point.ns", "ns"),
    ("query.range.ns_per_row", "ns"),
    ("query.rows_examined_per_row", "ratio"),
    // storage: B-tree and pager.
    ("storage.btree.get_ns", "ns"),
    ("storage.btree.pages_per_get", "count"),
    ("storage.btree.height", "count"),
    ("storage.pager.with_page_ns", "ns"),
    ("storage.btree.get_olc_ns", "ns"),
    ("storage.btree.olc_restarts", "count"),
    ("storage.btree.insert_ns", "ns"),
    ("storage.btree.apply_sorted_ns_per_op", "ns"),
    ("storage.page_fill", "ratio"),
    ("storage.btree.scan_ns_per_row", "ns"),
    // buffer: exclusive pool, shared pool, version chains.
    ("buffer.hit_ns", "ns"),
    ("buffer.unbuffered_ns", "ns"),
    ("buffer.shared.hit_ns", "ns"),
    ("buffer.latch_waits", "count"),
    ("buffer.miss_ns", "ns"),
    ("buffer.shared.miss_ns", "ns"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.evictions", "count"),
    ("buffer.writebacks", "count"),
    ("buffer.versions.captures", "count"),
    ("buffer.versions.chain_max", "count"),
    ("buffer.versions.pruned", "count"),
    ("buffer.flush_ns_per_dirty_page", "ns"),
    // txn: log, managers, locks, recovery.
    ("txn.log.append_ns", "ns"),
    ("txn.log.append_many_ns_per_rec", "ns"),
    ("txn.log.bytes_per_commit", "B"),
    ("txn.log.sync_ns", "ns"),
    ("txn.group.txns_per_sync", "ratio"),
    ("txn.syncs_per_commit", "ratio"),
    ("txn.begin_commit_ns", "ns"),
    ("txn.locks.acquire_ns", "ns"),
    ("txn.locks.waits", "count"),
    ("txn.locks.wait_ns", "ns"),
    ("txn.locks.deadlock_aborts", "count"),
    ("txn.locks.timeout_aborts", "count"),
    ("txn.retries_per_commit", "ratio"),
    ("txn.recover.records_s", "1/s"),
    ("txn.recover.redo", "count"),
    ("txn.recover.undo", "count"),
    ("txn.log.read_ns_per_rec", "ns"),
    ("txn.log.bytes_at_crash", "B"),
    // os: the devices under the engine.
    ("os.data.reads", "count"),
    ("os.data.writes", "count"),
    ("os.data.syncs", "count"),
    ("os.data.busy_ns", "ns"),
    ("os.mem.read_page_ns", "ns"),
    ("os.log.writes", "count"),
    ("os.log.syncs", "count"),
    ("os.log.bytes", "B"),
    ("os.log.busy_ns", "ns"),
    ("os.file.write_page_ns", "ns"),
    ("os.file.sync_ns", "ns"),
    ("os.file.read_page_ns", "ns"),
    // crypto: page cipher.
    ("crypto.encrypt_page_ns", "ns"),
    ("crypto.decrypt_page_ns", "ns"),
    ("crypto.get_cold_ratio", "ratio"),
    // obs and the benchmark's own tracing: budget lines.
    ("obs.stats_call_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.op_ns", "ns"),
    ("trace.op_self_ns", "ns"),
    // End-to-end numbers that cannot sit in the bounded sheet — they exist
    // on one workload only (every bounded metric is reported by every
    // workload), or they are the host's file system's more than the
    // engine's; taken from the untimed reference rounds.
    ("lat.read-beside-write.bg_commit_s", "1/s"),
    ("lat.commit-durable.ops_s", "1/s"),
    ("lat.commit-durable.p50_us", "us"),
    ("lat.commit-durable.p99_us", "us"),
    ("lat.crash-recover.restart_s", "s"),
    ("lat.rmw-contended.aborts_per_commit", "ratio"),
];

/// Values of one run, keyed by metric name.
#[derive(Default)]
pub struct Sheet(BTreeMap<&'static str, f64>);

impl Sheet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not on the sheet"
        );
        assert!(value.is_finite(), "metric {name} is not finite");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over `list`, in order.
    pub fn to_json(&self, list: &[(&str, &str)]) -> String {
        let fields: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.get(name)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
