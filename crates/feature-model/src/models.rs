//! Built-in feature models: the FAME-DBMS prototype (Figure 2 of the paper)
//! and the refactored Berkeley DB product line (§2.2).
//!
//! Both models carry non-functional attributes per feature:
//!
//! * `rom_bytes` — estimated contribution to binary size (ROM). For the
//!   FAME model these are *seed* estimates that the feedback approach
//!   (`fame-derivation::feedback`) replaces with measured values from the
//!   Fig. 1a harness.
//! * `ram_bytes` — estimated static RAM consumption.
//! * `perf` — relative throughput weight used by the NFP solver
//!   (higher = faster products).
//! * `examined` / `api_visible` — markers used by the §3.1 derivability
//!   experiment: `examined = 1` marks the 18 features whose derivability the
//!   paper studied, `api_visible = 0` marks the 3 of them that have no
//!   client-API footprint and are therefore not statically derivable.

use crate::constraint::Prop;
use crate::model::{FeatureModel, GroupKind, ModelBuilder};

/// Feature diagram of the FAME-DBMS prototype, Figure 2 of the paper,
/// extended with the commit-protocol subfeatures mentioned in §2.3.
///
/// Feature names (unique within the model):
///
/// ```text
/// FAME-DBMS
/// ├── OS-Abstraction            (mandatory)
/// │   ├── Platform              (mandatory; alternative: Linux | Win32 | NutOS)
/// │   └── Statistics            (optional; counters, histograms, op trace)
/// ├── BufferManager             (optional)
/// │   ├── Replacement           (mandatory; alternative: LFU | LRU)
/// │   ├── MemoryAlloc           (mandatory; alternative: Dynamic | Static)
/// │   └── Concurrency           (mandatory; alternative: Single | MultiReader | MultiWriter)
/// ├── Storage                   (mandatory)
/// │   ├── Index                 (mandatory; or: B+-Tree | List)
/// │   │   ├── B+-Tree: BTreeSearch (mand.), BTreeUpdate, BTreeRemove (opt.)
/// │   │   └── List
/// │   └── DataTypes             (optional)
/// ├── Access                    (mandatory)
/// │   ├── API                   (mandatory; or: Put | Get | Remove | Update)
/// │   │   └── Batch             (optional; requires Put)
/// │   └── SQLEngine             (optional)
/// ├── Optimizer                 (optional)
/// └── Transaction               (optional)
///     └── Commit                (mandatory; alternative: ForceCommit | GroupCommit)
/// ```
///
/// Cross-tree constraints:
/// * `Optimizer requires SQLEngine`
/// * `SQLEngine -> (Get & Put)` — the SQL executor is built on the base API
/// * `Transaction requires BufferManager` — steal/no-force needs frames
/// * `Batch requires Put` — batching extends the single-record write path
/// * `(NutOS & BufferManager) -> Static` — the deeply embedded target has
///   no dynamic allocator
pub fn fame_dbms() -> FeatureModel {
    let mut b = ModelBuilder::new("FAME-DBMS");
    let root = b.root("FAME-DBMS");
    b.attr(root, "rom_bytes", 24_000.0);
    b.attr(root, "ram_bytes", 2_048.0);
    b.doc(root, "Tailor-made data management for embedded systems");

    // --- OS abstraction -------------------------------------------------
    let os = b.mandatory(root, "OS-Abstraction");
    b.doc(
        os,
        "Lowest layer: storage device + memory services of the target OS",
    );
    // The target platform is the exactly-one choice; Statistics rides
    // alongside it so the alternative group cannot sit on OS-Abstraction
    // itself.
    let platform = b.mandatory(os, "Platform");
    b.group(platform, GroupKind::Alternative);
    let linux = b.optional(platform, "Linux");
    b.attr(linux, "rom_bytes", 6_000.0);
    let win = b.optional(platform, "Win32");
    b.attr(win, "rom_bytes", 7_000.0);
    let nutos = b.optional(platform, "NutOS");
    b.attr(nutos, "rom_bytes", 3_500.0);
    b.doc(
        nutos,
        "Deeply embedded target (simulated flash device in this repo)",
    );
    // Statistics (§2.2 lists it among Berkeley DB's examined features; in
    // FAME-DBMS it instruments the OS layer's devices and everything
    // above). Optional: off = no counters in the binary.
    let stats = b.optional(os, "Statistics");
    b.attr(stats, "rom_bytes", 2_500.0);
    b.attr(stats, "ram_bytes", 2_048.0);
    b.doc(
        stats,
        "Atomic counters, latency histograms, op-trace ring (NFP feedback)",
    );
    // Statistics -> Tracing (optional child): causal span rings +
    // exporters. RAM cost is the span rings (a fixed 8 rings * 512 events
    // * 64 B) — far too much for the deeply embedded products, which is
    // exactly why it is its own composable feature instead of part of
    // Statistics.
    let tracing = b.optional(stats, "Tracing");
    b.attr(tracing, "rom_bytes", 4_000.0);
    b.attr(tracing, "ram_bytes", 262_144.0);
    b.doc(
        tracing,
        "Causal span events in per-thread rings, chrome/TSV export (diagnostics)",
    );

    // --- Buffer manager --------------------------------------------------
    let buf = b.optional(root, "BufferManager");
    b.attr(buf, "rom_bytes", 9_000.0);
    b.attr(buf, "ram_bytes", 16_384.0);
    b.attr(buf, "perf", 4.0);
    let repl = b.mandatory(buf, "Replacement");
    b.group(repl, GroupKind::Alternative);
    let lfu = b.optional(repl, "LFU");
    b.attr(lfu, "rom_bytes", 1_400.0);
    b.attr(lfu, "perf", 0.5);
    let lru = b.optional(repl, "LRU");
    b.attr(lru, "rom_bytes", 1_100.0);
    b.attr(lru, "perf", 1.0);
    let alloc = b.mandatory(buf, "MemoryAlloc");
    b.group(alloc, GroupKind::Alternative);
    let dynamic = b.optional(alloc, "Dynamic");
    b.attr(dynamic, "rom_bytes", 900.0);
    b.attr(dynamic, "ram_bytes", 4_096.0);
    let stat = b.optional(alloc, "Static");
    b.attr(stat, "rom_bytes", 400.0);
    // Concurrency is not drawn in Figure 2, but §2.1 lists "concurrency
    // control strategies" among the dimensions an embedded DBMS must be
    // tailored in; it slots below BufferManager because the latch protocol
    // lives in the frame table. `Single` is listed first so heuristic
    // completion defaults to the sequential product.
    let conc = b.mandatory(buf, "Concurrency");
    b.group(conc, GroupKind::Alternative);
    let single = b.optional(conc, "Single");
    b.attr(single, "rom_bytes", 0.0);
    b.doc(
        single,
        "Exclusive single-threaded pool; no latches compiled in",
    );
    // No `perf` attribute on MultiReader: the scalar models per-access
    // speed, and latching makes a single access marginally *slower*. The
    // win — aggregate read throughput scaling with threads — is outside
    // what a per-product scalar can express; experiment E8 measures it.
    let multi = b.optional(conc, "MultiReader");
    b.attr(multi, "rom_bytes", 2_600.0);
    b.attr(multi, "ram_bytes", 512.0);
    b.doc(
        multi,
        "Sharded latch-based pool: concurrent readers, single writer",
    );
    let multi_writer = b.optional(conc, "MultiWriter");
    b.attr(multi_writer, "rom_bytes", 5_400.0);
    b.attr(multi_writer, "ram_bytes", 1_024.0);
    b.doc(
        multi_writer,
        "MultiReader's pool plus concurrent writer transactions: \
         blocking S/X block locks and cross-transaction group commit",
    );
    // MVCC-lite child of MultiWriter: copy-on-write page versions give
    // wait-free snapshot reads; RAM is the version chains (bounded per
    // write-hot page by the configured chain cap).
    let snap = b.optional(multi_writer, "Snapshot");
    b.attr(snap, "rom_bytes", 3_200.0);
    b.attr(snap, "ram_bytes", 4_096.0);
    b.doc(
        snap,
        "Copy-on-write page versions: wait-free snapshot reads that never \
         touch the lock table; writers install versions at group commit",
    );

    // --- Storage ----------------------------------------------------------
    let storage = b.mandatory(root, "Storage");
    b.attr(storage, "rom_bytes", 11_000.0);
    let index = b.mandatory(storage, "Index");
    b.group(index, GroupKind::Or);
    let btree = b.optional(index, "B+-Tree");
    b.attr(btree, "rom_bytes", 16_000.0);
    b.attr(btree, "perf", 6.0);
    b.doc(
        btree,
        "Fine-grained decomposition: search is mandatory, update/remove optional",
    );
    let bts = b.mandatory(btree, "BTreeSearch");
    b.attr(bts, "rom_bytes", 4_000.0);
    let btu = b.optional(btree, "BTreeUpdate");
    b.attr(btu, "rom_bytes", 5_500.0);
    let btr = b.optional(btree, "BTreeRemove");
    b.attr(btr, "rom_bytes", 6_500.0);
    let list = b.optional(index, "List");
    b.attr(list, "rom_bytes", 3_000.0);
    b.attr(list, "perf", 1.0);
    b.doc(
        list,
        "Unsorted list storage for minimal footprints (linear scan)",
    );
    let dtypes = b.optional(storage, "DataTypes");
    b.attr(dtypes, "rom_bytes", 5_000.0);
    b.doc(
        dtypes,
        "Typed records and schemas instead of raw byte strings",
    );

    // --- Access -----------------------------------------------------------
    let access = b.mandatory(root, "Access");
    let api = b.mandatory(access, "API");
    b.group(api, GroupKind::Or);
    for (name, rom) in [
        ("Put", 1_200.0),
        ("Get", 800.0),
        ("Remove", 1_000.0),
        ("Update", 1_100.0),
    ] {
        let f = b.optional(api, name);
        b.attr(f, "rom_bytes", rom);
    }
    // Batched writes (E10): a WriteBatch builder with an all-or-nothing
    // bulk apply that coalesces the WAL append and log sync. Rides on the
    // single-record write path, hence `Batch requires Put` below.
    let batch = b.optional(api, "Batch");
    b.attr(batch, "rom_bytes", 1_600.0);
    b.doc(
        batch,
        "WriteBatch builder: all-or-nothing bulk apply, one log sync per batch",
    );
    let sql = b.optional(access, "SQLEngine");
    b.attr(sql, "rom_bytes", 34_000.0);
    b.attr(sql, "ram_bytes", 8_192.0);
    b.doc(sql, "Declarative access: lexer, parser, planner, executor");

    // --- Optimizer ----------------------------------------------------------
    let opt = b.optional(root, "Optimizer");
    b.attr(opt, "rom_bytes", 8_000.0);
    b.attr(opt, "perf", 2.0);

    // --- Transaction ----------------------------------------------------------
    let txn = b.optional(root, "Transaction");
    b.attr(txn, "rom_bytes", 21_000.0);
    b.attr(txn, "ram_bytes", 8_192.0);
    b.doc(
        txn,
        "Coarse-grained feature (paper §2.3): only commit protocol varies",
    );
    let commit = b.mandatory(txn, "Commit");
    b.group(commit, GroupKind::Alternative);
    let force = b.optional(commit, "ForceCommit");
    b.attr(force, "rom_bytes", 600.0);
    b.attr(force, "perf", 0.5);
    let group = b.optional(commit, "GroupCommit");
    b.attr(group, "rom_bytes", 1_400.0);
    b.attr(group, "perf", 1.5);

    // --- Cross-tree constraints -------------------------------------------
    b.requires("Optimizer", "SQLEngine").unwrap();
    b.requires("Transaction", "BufferManager").unwrap();
    b.requires("Batch", "Put").unwrap();
    // Concurrent writers need block locks and a WAL to coordinate.
    b.requires("MultiWriter", "Transaction").unwrap();
    {
        let sql = Prop::var(sql);
        let get = Prop::var(b.peek("Get").unwrap());
        let put = Prop::var(b.peek("Put").unwrap());
        b.constraint(
            "SQLEngine -> (Get & Put)",
            Prop::implies(sql, Prop::And(vec![get, put])),
        );
    }
    {
        let nutos = Prop::var(nutos);
        let bufv = Prop::var(buf);
        let statv = Prop::var(stat);
        b.constraint(
            "(NutOS & BufferManager) -> Static",
            Prop::implies(Prop::And(vec![nutos, bufv]), statv),
        );
    }

    b.build().expect("FAME-DBMS model is well-formed")
}

/// The refactored Berkeley DB product line of §2.2: a core engine plus
/// 24 optional features. 18 of them are marked `examined = 1` — these are
/// the features whose automatic derivability the paper studied; the 3 with
/// `api_visible = 0` (Diagnostics, Checksums, FastMutexes) have no client
/// API footprint and hence cannot be derived by static analysis.
///
/// `rom_bytes` attributes are scaled so that the complete configuration
/// lands in the paper's 400–650 KB band.
pub fn berkeley_db() -> FeatureModel {
    let mut b = ModelBuilder::new("BerkeleyDB");
    let root = b.root("BerkeleyDB");
    b.attr(root, "rom_bytes", 250_000.0);
    b.doc(root, "Core engine: environment, pager, mpool");

    let am = b.mandatory(root, "AccessMethods");
    b.group(am, GroupKind::Or);

    // (name, rom_bytes, examined, api_visible)
    let features: &[(&str, f64, bool, bool)] = &[
        // access methods (or-group members)
        ("Btree", 62_000.0, true, true),
        ("Hash", 41_000.0, true, true),
        ("Queue", 26_000.0, true, true),
        ("Recno", 15_000.0, false, true),
    ];
    for &(name, rom, examined, api) in features {
        let f = b.optional(am, name);
        b.attr(f, "rom_bytes", rom);
        b.attr(f, "examined", if examined { 1.0 } else { 0.0 });
        b.attr(f, "api_visible", if api { 1.0 } else { 0.0 });
    }

    let optionals: &[(&str, f64, bool, bool)] = &[
        ("Transactions", 58_000.0, true, true),
        ("Logging", 34_000.0, true, true),
        ("Locking", 29_000.0, true, true),
        ("MVCC", 18_000.0, true, true),
        ("Crypto", 24_000.0, true, true),
        ("Replication", 69_000.0, true, true),
        ("Cursors", 21_000.0, true, true),
        ("Sequences", 8_000.0, false, true),
        ("Statistics", 12_000.0, true, true),
        ("Verify", 16_000.0, true, true),
        ("Compression", 11_000.0, true, true),
        ("Compact", 9_000.0, true, true),
        ("HotBackup", 10_000.0, true, true),
        ("JoinOps", 7_000.0, false, true),
        // Examined but with no client-API footprint: not statically derivable.
        ("Diagnostics", 6_000.0, true, false),
        ("Checksums", 4_000.0, true, false),
        ("FastMutexes", 5_000.0, true, false),
        // Not part of the 18 examined features.
        ("Truncate", 3_000.0, false, true),
        ("Events", 5_000.0, false, true),
        ("EnvRegions", 14_000.0, false, false),
    ];
    for &(name, rom, examined, api) in optionals {
        let f = b.optional(root, name);
        b.attr(f, "rom_bytes", rom);
        b.attr(f, "examined", if examined { 1.0 } else { 0.0 });
        b.attr(f, "api_visible", if api { 1.0 } else { 0.0 });
    }

    b.requires("Transactions", "Logging").unwrap();
    b.requires("Transactions", "Locking").unwrap();
    b.requires("MVCC", "Transactions").unwrap();
    b.requires("Replication", "Logging").unwrap();
    b.requires("HotBackup", "Logging").unwrap();
    b.requires("Compact", "Btree").unwrap();
    b.requires("JoinOps", "Cursors").unwrap();
    b.requires("Crypto", "Checksums").unwrap();

    b.build().expect("BerkeleyDB model is well-formed")
}

/// A small NutOS-like operating-system product line, used to demonstrate
/// multi-SPL composition ([`mod@crate::compose`]): the paper's future-work plan
/// of optimizing "the software of an embedded system as a whole".
pub fn nut_os() -> FeatureModel {
    let mut b = ModelBuilder::new("NutOS-SPL");
    let root = b.root("NutOS-Kernel");
    b.attr(root, "rom_bytes", 18_000.0);
    b.attr(root, "ram_bytes", 1_024.0);

    let sched = b.mandatory(root, "Scheduler");
    b.group(sched, GroupKind::Alternative);
    let coop = b.optional(sched, "Cooperative");
    b.attr(coop, "rom_bytes", 1_500.0);
    let preempt = b.optional(sched, "Preemptive");
    b.attr(preempt, "rom_bytes", 3_500.0);
    b.attr(preempt, "ram_bytes", 512.0);

    let heap = b.optional(root, "Heap");
    b.attr(heap, "rom_bytes", 2_200.0);
    b.doc(
        heap,
        "Dynamic memory allocator; absent on the smallest parts",
    );

    let drivers = b.mandatory(root, "Drivers");
    b.group(drivers, GroupKind::Or);
    let flash = b.optional(drivers, "FlashDriver");
    b.attr(flash, "rom_bytes", 2_800.0);
    let uart = b.optional(drivers, "UartDriver");
    b.attr(uart, "rom_bytes", 900.0);
    let net = b.optional(drivers, "NetDriver");
    b.attr(net, "rom_bytes", 9_000.0);
    b.attr(net, "ram_bytes", 4_096.0);

    let net_stack = b.optional(root, "TcpIp");
    b.attr(net_stack, "rom_bytes", 24_000.0);
    b.attr(net_stack, "ram_bytes", 8_192.0);
    b.requires("TcpIp", "NetDriver").unwrap();
    b.requires("TcpIp", "Heap").unwrap();

    b.build().expect("NutOS model is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Configuration;

    #[test]
    fn nut_os_model_is_valid_and_countable() {
        let m = nut_os();
        assert!(m.satisfiable());
        assert!(m.count_variants() > 10);
        let c = m.minimal_configuration().unwrap();
        assert!(m.validate(&c).is_ok());
        assert!(!c.is_selected(m.id("TcpIp")));
    }

    #[test]
    fn fame_model_builds_and_is_satisfiable() {
        let m = fame_dbms();
        assert!(m.satisfiable());
        assert!(m.len() > 25);
    }

    #[test]
    fn fame_minimal_configuration_valid() {
        let m = fame_dbms();
        let c = m.minimal_configuration().expect("defaults are valid");
        assert!(m.validate(&c).is_ok());
        // Minimal config should not include the big optional subsystems.
        assert!(!c.is_selected(m.id("Transaction")));
        assert!(!c.is_selected(m.id("SQLEngine")));
    }

    #[test]
    fn tracing_requires_statistics() {
        let m = fame_dbms();
        let mut c = m.minimal_configuration().unwrap();
        // Tracing without its Statistics parent is structurally invalid.
        c.select(m.id("Tracing"));
        assert!(m.validate(&c).is_err());
        c.select(m.id("Statistics"));
        assert!(m.validate(&c).is_ok());
    }

    #[test]
    fn fame_constraints_bite() {
        let m = fame_dbms();
        // Optimizer without SQLEngine is invalid.
        let mut c = m.minimal_configuration().unwrap();
        c.select(m.id("Optimizer"));
        assert!(m.validate(&c).is_err());
        // complete() pulls in SQLEngine (and its API obligations are
        // handled by the general constraint, checked via validate).
        let completed = m.complete(c);
        // SQLEngine must now be present.
        assert!(completed.is_selected(m.id("SQLEngine")));
    }

    #[test]
    fn fame_nutos_static_alloc_constraint() {
        let m = fame_dbms();
        let names = [
            "FAME-DBMS",
            "OS-Abstraction",
            "Platform",
            "NutOS",
            "Storage",
            "Index",
            "B+-Tree",
            "BTreeSearch",
            "Access",
            "API",
            "Get",
            "BufferManager",
            "Replacement",
            "LRU",
            "MemoryAlloc",
            "Dynamic",
        ];
        let c = Configuration::from_names(&m, names).unwrap();
        let errs = m.validate(&c).unwrap_err();
        assert!(errs.iter().any(|e| format!("{e}").contains("Static")));
    }

    #[test]
    fn fame_variant_space_is_large() {
        let m = fame_dbms();
        let n = m.count_variants();
        // The paper's point: even a prototype-scale model has a large
        // configuration space that makes manual derivation impractical.
        assert!(n > 1_000, "got {n}");
    }

    #[test]
    fn bdb_has_24_optional_features() {
        let m = berkeley_db();
        assert_eq!(m.optional_features().len(), 24);
    }

    #[test]
    fn bdb_has_18_examined_features() {
        let m = berkeley_db();
        let examined: Vec<_> = m
            .iter()
            .filter(|(_, f)| f.attribute("examined") == Some(1.0))
            .collect();
        assert_eq!(examined.len(), 18);
        let not_api: Vec<_> = examined
            .iter()
            .filter(|(_, f)| f.attribute("api_visible") == Some(0.0))
            .map(|(_, f)| f.name().to_string())
            .collect();
        assert_eq!(not_api.len(), 3, "{not_api:?}");
    }

    #[test]
    fn bdb_complete_config_in_paper_size_band() {
        let m = berkeley_db();
        let full = m.complete({
            let mut c = Configuration::new();
            for (id, _) in m.iter() {
                c.select(id);
            }
            c
        });
        let rom = m.sum_attribute(&full, "rom_bytes");
        // Paper: complete configurations were about 400–650 KB.
        assert!(rom > 400_000.0 && rom < 900_000.0, "rom = {rom}");
    }

    #[test]
    fn bdb_satisfiable_and_countable() {
        let m = berkeley_db();
        assert!(m.satisfiable());
        let n = m.count_variants();
        // 24 optional features with a handful of constraints: millions of
        // variants ("far more variants", §2.2).
        assert!(n > 1_000_000, "got {n}");
    }
}
