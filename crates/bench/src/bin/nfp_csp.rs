//! §3.2 reproduction: NFP-constrained product derivation.
//!
//! Sweeps a ROM budget over the FAME-DBMS feature model and, per budget,
//! compares the paper's greedy algorithm against the exhaustive optimum:
//! objective value, optimality gap, configurations examined, wall time.
//! Also demonstrates the Feedback Approach: calibrating per-feature size
//! values from "measured" products shrinks the prediction error.
//!
//! Usage: `cargo run --release -p fame-bench --bin nfp_csp`

use std::time::Instant;

use fame_bench::paper;
use fame_derivation::{solve_exhaustive, FeedbackModel, Objective, PropertyStore};
use fame_feature_model::{models, Configuration};

fn main() {
    let model = models::fame_dbms();
    let store = PropertyStore::seeded_from(&model);

    println!(
        "model: {} features, {} variants\n",
        model.len(),
        model.count_variants()
    );

    // ---- greedy vs exhaustive over a budget sweep -----------------------
    let table = paper::nfp_csp_table(&model, &store);
    println!("greedy vs exhaustive derivation (maximize perf under ROM budget)\n");
    print!("{}", table.render());

    // ---- the exact solve at Berkeley DB scale ---------------------------
    let bdb = models::berkeley_db();
    let bdb_store = PropertyStore::seeded_from(&bdb);
    let objective = Objective::rom_budget("rom_bytes", 650.0 * 1024.0);
    let t0 = Instant::now();
    let e = solve_exhaustive(&bdb, &bdb_store, &objective);
    println!(
        "\n{}: largest product within 650 KiB, solved exactly: {:.1} KiB, \
         {} variants examined in {:.1} ms",
        bdb.name(),
        e.objective / 1024.0,
        e.examined,
        t0.elapsed().as_secs_f64() * 1e3
    );

    // ---- the Feedback Approach ------------------------------------------
    println!("\nFeedback Approach: calibrating per-feature ROM values from measured products");

    // "True" sizes differ from the designer's seed estimates: every
    // feature really costs 1.4x its estimate plus a 2 KiB fixed share.
    let truth = |cfg: &Configuration| -> f64 {
        cfg.selected()
            .map(|id| model.feature(id).attribute("rom_bytes").unwrap_or(0.0) * 1.4 + 2048.0)
            .sum()
    };

    let mut calibrated = PropertyStore::seeded_from(&model);
    let mut fb = FeedbackModel::new();
    let sample_extras: &[&[&str]] = &[
        &[],
        &["Transaction"],
        &["SQLEngine", "Get", "Put"],
        &["Optimizer"],
        &["List"],
        &["Update", "Remove", "DataTypes"],
        &["Transaction", "SQLEngine", "Get", "Put"],
        &["BufferManager"],
    ];
    for extras in sample_extras {
        let mut c = Configuration::new();
        for e in *extras {
            c.select(model.id(e));
        }
        let c = model.complete(c);
        fb.add_sample(c.clone(), truth(&c));
    }

    let before = fb.rms_error(&model, &calibrated, "rom_bytes");
    let after = fb.calibrate(&model, &mut calibrated, "rom_bytes");
    println!(
        "  RMS prediction error over {} measured products: {:.1} KiB -> {:.1} KiB",
        fb.sample_count(),
        before / 1024.0,
        after / 1024.0
    );

    // Prediction quality on an unseen product.
    let unseen = {
        let mut c = Configuration::new();
        c.select(model.id("Transaction"));
        c.select(model.id("List"));
        c.select(model.id("Update"));
        model.complete(c)
    };
    let est = store.predict(&model, &unseen, "rom_bytes");
    let cal = calibrated.predict(&model, &unseen, "rom_bytes");
    let act = truth(&unseen);
    println!(
        "  unseen product: actual {:.1} KiB | estimate-only prediction {:.1} KiB | calibrated {:.1} KiB",
        act / 1024.0,
        est / 1024.0,
        cal / 1024.0
    );
    println!(
        "  calibration {} the prediction",
        if (cal - act).abs() < (est - act).abs() {
            "improved"
        } else {
            "did not improve"
        }
    );

    let dir = std::path::Path::new("bench-results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join("nfp_csp.tsv"), table.to_tsv());
    println!("\nresults written to bench-results/nfp_csp.tsv");
}
