//! Interactive SQL shell over a FAME-DBMS product with the SQL Engine
//! feature.
//!
//! Run with: `cargo run -p fame-dbms --example sql_shell --features sql,optimizer`
//! Optionally pass a database file path to persist between sessions:
//! `cargo run -p fame-dbms --example sql_shell --features sql,optimizer -- /tmp/shell.db`

use std::io::{BufRead, Write};

use fame_dbms::{Database, DbmsConfig, QueryOutput};

fn main() {
    let config = match std::env::args().nth(1) {
        Some(path) => DbmsConfig::on_file(path),
        None => DbmsConfig::in_memory(),
    };
    let mut db = Database::open(config).expect("open database");

    println!(
        "FAME-DBMS SQL shell — end with ; — \\q quits, \\t lists tables, \\f lists features, \
         .stats shows statistics, .trace <n> shows the last n trace events"
    );
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    prompt(buffer.is_empty());

    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        match trimmed {
            "\\q" | "exit" | "quit" => break,
            "\\f" => {
                println!("{}", fame_dbms::active_features().join(", "));
                prompt(true);
                continue;
            }
            "\\t" => {
                // The engine initializes lazily; issuing any statement
                // first would also work, but list via a throwaway query.
                let _ = db.sql("SELECT COUNT(*) FROM __nonexistent__");
                println!("(use CREATE TABLE ...; catalog listing via SQL only)");
                prompt(true);
                continue;
            }
            ".stats" => {
                print_stats(&mut db);
                prompt(true);
                continue;
            }
            t if t == ".trace" || t.starts_with(".trace ") => {
                let n = t
                    .strip_prefix(".trace")
                    .and_then(|rest| rest.trim().parse::<usize>().ok())
                    .unwrap_or(16);
                print_trace(&db, n);
                prompt(true);
                continue;
            }
            _ => {}
        }

        buffer.push_str(&line);
        buffer.push(' ');
        if !trimmed.ends_with(';') {
            prompt(buffer.trim().is_empty());
            continue;
        }

        let stmt = buffer.trim().trim_end_matches(';').to_string();
        buffer.clear();
        if stmt.is_empty() {
            prompt(true);
            continue;
        }
        match db.sql(&stmt) {
            Ok(out) => print_output(&out, db.last_access_path()),
            Err(e) => println!("error: {e}"),
        }
        prompt(true);
    }
    db.sync().ok();
    println!("\nbye");
}

/// `.stats`: the statistics snapshot, since open (with `obs-trace` it
/// also counts the recorded and dropped span events). For a percentile
/// over an interval, subtract two snapshots' histogram buckets.
#[cfg(feature = "statistics")]
fn print_stats(db: &mut Database) {
    match db.stats() {
        Ok(s) => println!("{s}"),
        Err(e) => println!("error: {e}"),
    }
}

#[cfg(not(feature = "statistics"))]
fn print_stats(_db: &mut Database) {
    println!("(statistics feature not compiled into this product)");
}

/// `.trace <n>`: the last `n` span events — the causal span rings with
/// `obs-trace`, else the op trace of plain `statistics`. One
/// event type, one line format (`SpanEvent`'s `Display`).
#[cfg(feature = "statistics")]
fn print_trace(db: &Database, n: usize) {
    #[cfg(feature = "obs-trace")]
    let (events, source) = (db.dump_trace(), "causal span rings");
    #[cfg(not(feature = "obs-trace"))]
    let (events, source) = (
        db.op_trace(),
        "op trace; compose the obs-trace feature in for causal spans",
    );
    if events.is_empty() {
        println!("(no events recorded yet)");
        return;
    }
    for e in events.iter().rev().take(n).rev() {
        println!("{e}");
    }
    println!(
        "({} shown of {} retained; {source})",
        events.len().min(n),
        events.len()
    );
}

#[cfg(not(feature = "statistics"))]
fn print_trace(_db: &Database, _n: usize) {
    println!("(statistics feature not compiled into this product)");
}

fn prompt(fresh: bool) {
    print!("{}", if fresh { "fame> " } else { "  ... " });
    std::io::stdout().flush().ok();
}

fn print_output(out: &QueryOutput, path: Option<&'static str>) {
    match out {
        QueryOutput::Created => println!("ok: table created"),
        QueryOutput::Dropped => println!("ok: table dropped"),
        QueryOutput::Inserted(n) => println!("ok: {n} row(s) inserted"),
        QueryOutput::Updated(n) => println!("ok: {n} row(s) updated"),
        QueryOutput::Deleted(n) => println!("ok: {n} row(s) deleted"),
        QueryOutput::Count(n) => println!("count: {n}"),
        QueryOutput::Rows { columns, rows } => {
            println!("{}", columns.join(" | "));
            println!("{}", "-".repeat(columns.join(" | ").len()));
            for row in rows {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("{}", cells.join(" | "));
            }
            let suffix = path.map(|p| format!(" [{p}]")).unwrap_or_default();
            println!("({} row(s)){suffix}", rows.len());
        }
    }
}
