//! fame-benchmark: one run of one workload against one FAME-DBMS product.
//!
//! `run.sh` builds this source twice (`product-min`, `product-full`) and
//! starts the product a workload belongs to. A run is: set-up (open, load,
//! warm up), measured rounds of a fixed op count derived from `--seconds`,
//! correctness checks, one JSON line. `--trace 1` runs fewer rounds with
//! the device wrappers timing and adds the stack ladder (see `ladder`).

#[cfg(all(feature = "product-min", feature = "product-full"))]
compile_error!("build one product at a time: product-min or product-full");
#[cfg(not(any(feature = "product-min", feature = "product-full")))]
compile_error!("select a product: --features product-min or product-full");

mod gen;
mod host;
mod ladder;
mod measure;
mod metrics;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use measure::{percentile, steady, Better, RoundOut, Spread};
use metrics::Sheet;

/// Measured rounds of an untraced run. Many short rounds rather than a
/// few long ones: a metric is the better-side quartile over them (see
/// `measure::Spread`), and that needs enough rounds to have a quartile.
const ROUNDS: u64 = 25;
/// A traced run: untimed reference rounds, which price the tracing, then
/// rounds with the device timers on.
const REFERENCE_ROUNDS: u64 = 5;
const TRACED_ROUNDS: u64 = 10;
/// Set-ups per untraced run; `setup_s` is their better-side quartile.
const SETUPS: usize = 5;

pub struct Params {
    pub seed: u64,
    pub seconds: u64,
    /// Scratch directory under `benchmark/out/`, removed at exit.
    pub scratch: PathBuf,
    /// `benchmark/out/`: trace and run reports stay here.
    pub out_dir: PathBuf,
}

impl Params {
    /// Ops in one round for a workload whose `rate` ops take about one
    /// second on the reference box: the round is sized from `--seconds`,
    /// never from the clock, so op counts and counters repeat exactly.
    pub fn ops_per_round(&self, rate: u64) -> u64 {
        (rate * self.seconds / ROUNDS).max(1)
    }
}

/// Bytes for the write-cost and space metrics, whole life of the measured
/// instance (load included, so neither is ever 0).
#[derive(Default, Clone, Copy)]
pub struct IoTotals {
    /// Bytes the engine wrote to the data and log devices.
    pub written: u64,
    /// Key + value bytes of every acknowledged write.
    pub user_written: u64,
    /// Data + log device size at the end.
    pub disk: u64,
    /// Key + value bytes of the records alive at the end.
    pub user_live: u64,
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Open the product, load the data, run the warm-up.
    fn setup(p: &Params) -> Self;

    /// One closed-loop round; `round` selects the input stream.
    fn round<const TRACED: bool>(&mut self, p: &Params, round: u64) -> RoundOut;

    /// After the last round: `verify_integrity()` and the workload's own
    /// end-state checks. Returns how many checks failed.
    fn verify(&mut self) -> u64;

    fn io(&self) -> IoTotals;

    /// Remember the engine and device counters before the traced rounds.
    fn mark(&mut self);

    /// Per-layer metrics: in-situ counters since [`Workload::mark`], the
    /// op spans, and this workload's rungs of the stack ladder.
    /// `reference` are the untimed rounds, `traced` the timed ones.
    fn layers(
        &mut self,
        p: &Params,
        spans: &[trace::Span],
        reference: &[RoundOut],
        traced: &[RoundOut],
        sheet: &mut Sheet,
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    probe: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 8,
        trace: false,
        probe: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--probe" => args.probe = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 || args.seconds > 60 {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fame-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let out_dir =
        PathBuf::from(std::env::var_os("FAME_BENCH_OUT").unwrap_or_else(|| "benchmark/out".into()));
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("fame-benchmark: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        scratch,
        out_dir,
    };
    let code = match &args.probe {
        Some(probe) => ladder::run_probe(probe, &p),
        None => workloads::dispatch(&args.workload, &p, args.trace),
    };
    let _ = std::fs::remove_dir_all(&p.scratch);
    std::process::exit(code);
}

/// Run workload `W` and print the result line. Returns the exit code.
pub fn run<W: Workload>(p: &Params, traced: bool) -> i32 {
    if traced {
        run_traced::<W>(p)
    } else {
        run_untraced::<W>(p)
    }
}

fn run_untraced<W: Workload>(p: &Params) -> i32 {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take()); // one instance alive at a time: RSS is one product's
        let t = Instant::now();
        w = Some(W::setup(p));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");

    let rounds: Vec<RoundOut> = (0..ROUNDS).map(|r| w.round::<false>(p, r)).collect();
    let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
    let failed = rounds.iter().map(|r| r.failed).sum::<u64>() + w.verify();
    let io = w.io();

    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for r in &rounds {
        let mut lat = r.lat_ns.clone();
        lat.sort_unstable();
        p50.push(percentile(&lat, 50.0) / 1e3);
        p99.push(percentile(&lat, 99.0) / 1e3);
    }
    let series: Vec<(&'static str, Spread)> = vec![
        ("setup_s", steady(&setups, Better::Lower)),
        ("ops_s", steady(&ops_s(&rounds), Better::Higher)),
        ("p50_us", steady(&p50, Better::Lower)),
        ("p99_us", steady(&p99, Better::Lower)),
    ];
    let mut sheet = Sheet::default();
    for (name, s) in &series {
        sheet.set(name, s.value);
    }
    sheet.set("rss_peak_mib", measure::rss_peak_mib());
    sheet.set("image_kib", measure::image_kib());
    sheet.set(
        "write_bytes_per_user_byte",
        io.written as f64 / io.user_written.max(1) as f64,
    );
    sheet.set(
        "disk_bytes_per_user_byte",
        io.disk as f64 / io.user_live.max(1) as f64,
    );

    host::write_report(
        p,
        W::NAME,
        false,
        &sheet,
        metrics::END_TO_END,
        &series,
        &ops_s(&rounds),
    );
    finish(attempted, failed, &sheet, metrics::END_TO_END)
}

fn run_traced<W: Workload>(p: &Params) -> i32 {
    let mut w = W::setup(p);
    let reference: Vec<RoundOut> = (0..REFERENCE_ROUNDS)
        .map(|r| w.round::<false>(p, r))
        .collect();
    w.mark();
    trace::enable(true);
    let traced: Vec<RoundOut> = (REFERENCE_ROUNDS..REFERENCE_ROUNDS + TRACED_ROUNDS)
        .map(|r| w.round::<true>(p, r))
        .collect();
    trace::enable(false);
    let spans = trace::take_spans();

    let all = || reference.iter().chain(&traced);
    let attempted: u64 = all().map(|r| r.ops).sum();
    let mut failed = all().map(|r| r.failed).sum::<u64>() + w.verify();
    if !trace::spans_nest(&spans) {
        eprintln!("fame-benchmark: a device span escapes its op span");
        failed += 1;
    }

    let mut sheet = Sheet::default();
    sheet.set(
        "trace.overhead_ratio",
        steady(&ops_s(&traced), Better::Higher).value
            / steady(&ops_s(&reference), Better::Higher).value,
    );
    w.layers(p, &spans, &reference, &traced, &mut sheet);

    let trace_path = p.out_dir.join(format!("trace-{}.json", W::NAME));
    if let Err(e) = std::fs::write(&trace_path, trace::spans_to_json(W::NAME, &spans)) {
        eprintln!("fame-benchmark: cannot write {}: {e}", trace_path.display());
        failed += 1;
    }
    host::write_report(
        p,
        W::NAME,
        true,
        &sheet,
        metrics::PER_LAYER,
        &[],
        &ops_s(&traced),
    );
    finish(attempted, failed, &sheet, metrics::PER_LAYER)
}

fn ops_s(rounds: &[RoundOut]) -> Vec<f64> {
    rounds.iter().map(RoundOut::ops_s).collect()
}

fn finish(attempted: u64, failed: u64, sheet: &Sheet, list: &[(&str, &str)]) -> i32 {
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        sheet.to_json(list)
    );
    i32::from(failed != 0)
}
