//! Experiment E7: crash-point torture sweep.
//!
//! For every product variant in the default matrix, records a workload's
//! write/sync schedule, then crashes it at every swept write index (clean
//! and torn on the log device, clean on the data device, plus failing
//! barriers), recovers, and checks durability, atomicity, and storage
//! integrity. Writes one row per crash point to
//! `bench-results/torture_run.tsv`.
//!
//! Usage: `cargo run --release -p fame-bench --bin crash_torture`
//! (`--quick` thins every sweep by 8× and only prints, leaving the
//! committed TSV of the full sweep alone).

use fame_bench::torture::{default_specs, torture};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut specs = default_specs();
    if quick {
        for s in &mut specs {
            s.stride *= 8;
        }
    }

    let mut tsv = String::from(
        "variant\tmode\tcrash_at\tfired\tcompleted_commits\tdurable_commits\trecovered_prefix\tviolations\n",
    );
    let (mut total_points, mut total_violations) = (0, 0);
    for spec in &specs {
        let result = torture(spec);
        let (points, violations) = (result.crash_points(), result.violations());
        total_points += points;
        total_violations += violations;
        for r in &result.rows {
            tsv += &format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                r.variant,
                r.mode,
                r.crash_at,
                r.fired,
                r.completed,
                r.durable,
                r.recovered.map_or_else(|| "-".into(), |m| m.to_string()),
                if r.violations.is_empty() {
                    "-".to_string()
                } else {
                    r.violations.join("; ")
                },
            );
        }
        println!(
            "{:28} {:5} crash points, {} unfired, {} violations",
            spec.name,
            points,
            result.unfired(),
            violations
        );
    }

    println!("\ntotal: {total_points} crash points, {total_violations} violations");
    if !quick {
        std::fs::create_dir_all("bench-results").expect("create bench-results/");
        std::fs::write("bench-results/torture_run.tsv", tsv).expect("write torture_run.tsv");
        println!("wrote bench-results/torture_run.tsv");
    }
    if total_violations > 0 {
        std::process::exit(1);
    }
}
