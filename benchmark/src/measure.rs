//! The measuring loop and the statistics every workload shares.

use std::time::Instant;

use crate::trace;

/// What one measured round of one thread produced.
#[derive(Default)]
pub struct RoundOut {
    pub secs: f64,
    pub ops: u64,
    pub failed: u64,
    /// Sampled op latencies, ns.
    pub lat_ns: Vec<u64>,
}

impl RoundOut {
    pub fn ops_s(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    /// Fold the rounds concurrent threads ran side by side into one: ops
    /// and samples add up, the wall time is `secs`.
    pub fn merged(parts: Vec<RoundOut>, secs: f64) -> RoundOut {
        let mut all = RoundOut {
            secs,
            ..RoundOut::default()
        };
        for p in parts {
            all.ops += p.ops;
            all.failed += p.failed;
            all.lat_ns.extend(p.lat_ns);
        }
        all
    }
}

/// Closed loop: `ops` calls of `op(i)`, each waiting for the previous one.
/// `op` returns whether its answer was right. One call in `lat_every` is
/// timed (an `Instant` pair is ~5 % of a 1 µs `get`, so fast ops sample
/// sparsely); in a traced round one in `span_every` runs as an op span
/// instead. Workloads pass primes, so a sample never keeps step with a
/// periodic part of the op stream (a re-pin every 1024 gets, say).
pub fn drive<const TRACED: bool>(
    name: &'static str,
    ops: u64,
    lat_every: u64,
    span_every: u64,
    mut op: impl FnMut(u64) -> bool,
) -> RoundOut {
    let mut lat_ns = Vec::with_capacity((ops / lat_every + 1) as usize);
    let mut failed = 0u64;
    // Index of the next call to trace, and of the next one to time (a
    // call due for both is traced; the timing slips to the next call).
    let (mut next_span, mut next_lat) = (0u64, 0u64);
    let t0 = Instant::now();
    for i in 0..ops {
        let ok = if TRACED && i == next_span {
            next_span += span_every;
            trace::op_span(name, || op(i))
        } else if i >= next_lat {
            next_lat = i + lat_every;
            let t = Instant::now();
            let ok = op(i);
            lat_ns.push(t.elapsed().as_nanos() as u64);
            ok
        } else {
            op(i)
        };
        failed += u64::from(!ok);
    }
    RoundOut {
        secs: t0.elapsed().as_secs_f64(),
        ops,
        failed,
        lat_ns,
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Which way a series gets better.
#[derive(Clone, Copy)]
pub enum Better {
    Lower,
    Higher,
}

/// A round-level series boiled down. `value` is what the benchmark
/// reports: the quartile on the series' *better* side. The reference box
/// is a small shared VM whose own noise is large (a pure ALU loop varies
/// by ±7 % between quarter-second slices) and additive — interference
/// only ever slows a round. The median of the rounds therefore drifts with
/// the neighbours; the quartile of the least disturbed rounds estimates
/// the program. A real slow-down moves every round, so it moves this too.
#[derive(Clone, Copy)]
pub struct Spread {
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

pub fn steady(values: &[f64], better: Better) -> Spread {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "a metric needs at least one round");
    let rank = (n as f64 * 0.25).ceil() as usize; // nearest-rank quartile
    Spread {
        value: match better {
            Better::Lower => v[rank - 1],
            Better::Higher => v[n - rank],
        },
        median: (v[(n - 1) / 2] + v[n / 2]) / 2.0,
        min: v[0],
        max: v[n - 1],
    }
}

/// Mean ns per call of `f` over `n` calls, fastest of three passes.
pub fn ns_per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut passes = [0.0f64; 3];
    for p in &mut passes {
        let t = Instant::now();
        for i in 0..n {
            f(i);
        }
        *p = t.elapsed().as_nanos() as f64 / n as f64;
    }
    steady(&passes, Better::Lower).value
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Size of the running (stripped) product binary, KiB.
pub fn image_kib() -> f64 {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map_or(0.0, |m| m.len() as f64 / 1024.0)
}
