//! The seven workloads. `get-hot` and `get-cold` run on the min product;
//! the rest need features only the full product composes.

pub mod get;

#[cfg(feature = "product-full")]
pub mod commit_durable;
#[cfg(feature = "product-full")]
pub mod crash_recover;
#[cfg(feature = "product-full")]
pub mod engine;
#[cfg(feature = "product-full")]
pub mod read_beside_write;
#[cfg(feature = "product-full")]
pub mod rmw_contended;
#[cfg(feature = "product-full")]
pub mod sql_scan;

use crate::{run, Params};

/// Page size of every workload's devices.
pub const PAGE_SIZE: usize = 512;

/// Run `verify_integrity()`; 1 if it found a violation, else 0.
pub fn integrity_failures(db: &mut fame_dbms::Database) -> u64 {
    let report = db.verify_integrity().expect("verify_integrity");
    if !report.is_ok() {
        eprintln!("fame-benchmark: integrity: {report}");
    }
    u64::from(!report.is_ok())
}

pub fn dispatch(workload: &str, p: &Params, traced: bool) -> i32 {
    match workload {
        "get-hot" => run::<get::Get<true>>(p, traced),
        "get-cold" => run::<get::Get<false>>(p, traced),
        #[cfg(feature = "product-full")]
        "read-beside-write" => run::<read_beside_write::ReadBesideWrite>(p, traced),
        #[cfg(feature = "product-full")]
        "commit-durable" => run::<commit_durable::CommitDurable>(p, traced),
        #[cfg(feature = "product-full")]
        "rmw-contended" => run::<rmw_contended::RmwContended>(p, traced),
        #[cfg(feature = "product-full")]
        "crash-recover" => run::<crash_recover::CrashRecover>(p, traced),
        #[cfg(feature = "product-full")]
        "sql-scan" => run::<sql_scan::SqlScan>(p, traced),
        other => {
            eprintln!("fame-benchmark: workload {other:?} is not in this product");
            2
        }
    }
}
