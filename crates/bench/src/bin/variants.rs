//! Figure 2 / §2.2 reproduction: the executable feature models.
//!
//! Prints model statistics (feature counts, optional features, exact
//! variant counts) for the FAME-DBMS prototype model and the refactored
//! Berkeley DB model, verifying the paper's in-text numbers: 24 optional
//! Berkeley DB features and a configuration space large enough to require
//! automated derivation. Also renders the cargo ↔ model map and Figure 2
//! as DOT. The tables come from `fame_bench::paper`, whose test keeps the
//! committed files current.
//!
//! Usage:
//! * `cargo run -p fame-bench --bin variants` — statistics
//! * `cargo run -p fame-bench --bin variants -- --dot` — Figure 2 as DOT

use fame_bench::paper;
use fame_feature_model::{dot, models, FeatureModel};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--dot") {
        print!("{}", dot::to_dot(&models::fame_dbms()));
        return;
    }

    let table = paper::variants_table();
    println!("feature-model statistics (Figure 2 and the §2.2 case study)\n");
    print!("{}", table.render());

    let bdb = models::berkeley_db();
    println!(
        "\npaper check: refactored Berkeley DB has 24 optional features -> {}",
        if bdb.optional_features().len() == 24 {
            "REPRODUCED"
        } else {
            "MISMATCH"
        }
    );

    println!("\nFAME-DBMS feature tree:");
    print_tree(&models::fame_dbms());

    println!("\ncross-tree constraints:");
    let fame = models::fame_dbms();
    for c in fame.constraints() {
        println!("  {}", c.describe(&fame));
    }

    let map = paper::feature_map_table();
    println!(
        "\ncargo feature -> model feature (fame_feature_model::models::FAME_CARGO_FEATURES):\n"
    );
    print!("{}", map.render());

    let dir = std::path::Path::new("bench-results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join("variants.tsv"), table.to_tsv());
    let _ = std::fs::write(dir.join("feature_map.tsv"), map.to_tsv());
    let _ = std::fs::write(dir.join("fig2.dot"), paper::fig2_dot());
    println!(
        "\nresults written to bench-results/variants.tsv, bench-results/feature_map.tsv \
         and bench-results/fig2.dot"
    );
}

fn print_tree(model: &FeatureModel) {
    fn go(model: &FeatureModel, id: fame_feature_model::FeatureId, depth: usize) {
        let f = model.feature(id);
        let group = match f.group() {
            fame_feature_model::GroupKind::And => "",
            fame_feature_model::GroupKind::Or => "  <or>",
            fame_feature_model::GroupKind::Alternative => "  <alt>",
        };
        let opt = match f.optionality() {
            fame_feature_model::Optionality::Mandatory => "",
            fame_feature_model::Optionality::Optional => " (optional)",
        };
        println!("  {}{}{}{}", "  ".repeat(depth), f.name(), opt, group);
        for &c in f.children() {
            go(model, c, depth + 1);
        }
    }
    go(model, model.root(), 0);
}
