//! Host fingerprint and the per-run report left in `benchmark/out/`.

use std::path::Path;

use crate::measure::Spread;
use crate::metrics::Sheet;
use crate::Params;

/// Cores this process may run on. Load threads never exceed it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Exit unless the host can run `threads` load threads in parallel.
#[cfg(feature = "product-full")]
pub fn require_threads(threads: usize) {
    if threads > nproc() {
        eprintln!(
            "fame-benchmark: workload needs {threads} load threads, host has {} cores",
            nproc()
        );
        std::process::exit(2);
    }
}

/// File-system type under `dir` (longest mount-point prefix in
/// /proc/self/mountinfo). On `tmpfs` a sync never reaches a device, so
/// `os.file.sync_ns` is the sandbox's number, not a disk's.
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0usize, String::from("unknown"));
    for line in mounts.lines() {
        // "... <mount point> <options> [optional]* - <fs type> <source> ..."
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fs) = fields.get(sep + 1) else {
            continue;
        };
        if dir.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), (*fs).to_string());
        }
    }
    best.1
}

/// Write `out/run-<workload>-trace<0|1>.json`: fingerprint, the run's
/// parameters, every metric, median/min/max beside each round-level
/// value, and every round's throughput in order.
pub fn write_report(
    p: &Params,
    workload: &str,
    traced: bool,
    sheet: &Sheet,
    list: &[(&str, &str)],
    series: &[(&'static str, Spread)],
    round_ops_s: &[f64],
) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let rounds: Vec<String> = series
        .iter()
        .map(|(name, s)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"median\": {}, \"min\": {}, \"max\": {}}}",
                s.value, s.median, s.min, s.max
            )
        })
        .collect();
    let report = format!(
        "{{\"workload\": \"{workload}\", \"trace\": {}, \"seed\": {}, \"seconds\": {},\n \
         \"host\": {{\"nproc\": {}, \"scratch_fs\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}},\n \
         \"rounds\": {{{}}},\n \"round_ops_s\": {:?},\n \"metrics\": {}}}\n",
        u8::from(traced),
        p.seed,
        p.seconds,
        nproc(),
        fs_type(&p.scratch),
        env("FAME_BENCH_RUSTC"),
        env("FAME_BENCH_COMMIT"),
        rounds.join(", "),
        round_ops_s,
        sheet.to_json(list),
    );
    let path = p
        .out_dir
        .join(format!("run-{workload}-trace{}.json", u8::from(traced)));
    if let Err(e) = std::fs::write(&path, report) {
        eprintln!("fame-benchmark: cannot write {}: {e}", path.display());
    }
}
