//! The in-house timing harness (the workspace's replacement for
//! `criterion`).
//!
//! Each `[[bench]]` target is a plain `main()` binary (`harness = false`)
//! that drives a [`Bench`], and so does Table II
//! ([`crate::tables::table2`]). The measurement protocol is deliberately
//! simple and fully described here so numbers are interpretable:
//!
//! 1. **Warm up** the closure for ~20 ms so caches, branch predictors and
//!    lazy allocations settle before anything is recorded.
//! 2. **Calibrate** an iteration count so each timed sample spans at
//!    least ~2 ms, amortising clock-read overhead for nanosecond-scale
//!    bodies.
//! 3. Record 25 samples and report the **median** per-iteration time —
//!    robust against scheduler noise in a way a mean is not — alongside
//!    min/max for spread.
//!
//! Every result is printed to **stderr** twice: a human-readable line and
//! a machine-readable JSON line (prefixed `BENCH_JSON`) for scripted
//! collection. Wall-clock records stay off stdout, so a command that
//! times something still prints a deterministic stdout.

use std::hint::black_box as std_black_box;
// tm-lint: allow-file(wall-clock) -- measuring wall time is this harness's entire purpose; results feed BENCH_JSON, never sim state
use std::time::{Duration, Instant};

use crate::json::JsonValue;

/// Re-exported optimisation barrier; benches wrap inputs and results so
/// the closure body is not optimised away.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

const WARMUP: Duration = Duration::from_millis(20);
const MIN_SAMPLE_TIME: Duration = Duration::from_millis(2);
const SAMPLES: u32 = 25;

/// A benchmark suite: groups related measurements under one name.
pub struct Bench {
    suite: String,
}

/// The summary statistics of one measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Median per-iteration time in nanoseconds.
    pub median_ns: u64,
    /// Fastest sample's per-iteration time.
    pub min_ns: u64,
    /// Slowest sample's per-iteration time.
    pub max_ns: u64,
    /// Number of samples recorded.
    pub samples: u32,
    /// Iterations batched into each sample.
    pub iters_per_sample: u64,
}

impl Bench {
    /// Creates a suite.
    pub fn new(suite: &str) -> Self {
        Bench {
            suite: suite.to_string(),
        }
    }

    /// Measures `f` called back-to-back (the criterion `iter` shape).
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Summary {
        // Warmup, also producing a per-iteration estimate for calibration.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < WARMUP {
            black_box(f());
            warm_iters += 1;
        }
        let est_ns = (warm_start.elapsed().as_nanos() as u64 / warm_iters.max(1)).max(1);
        let iters = (MIN_SAMPLE_TIME.as_nanos() as u64 / est_ns).clamp(1, 10_000_000);

        let mut per_iter_ns = Vec::with_capacity(SAMPLES as usize);
        for _ in 0..SAMPLES {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter_ns.push((start.elapsed().as_nanos() as u64) / iters);
        }
        self.report(name, summarize(per_iter_ns, iters))
    }

    /// Measures `f` with a fresh, untimed `setup()` product per iteration
    /// (the criterion `iter_batched` shape). Each sample is a single
    /// timed call, so this suits bodies well above clock-read cost.
    pub fn bench_with_setup<S, T>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> T,
    ) -> Summary {
        // Two warmup runs are enough for the coarse, clone-heavy bodies
        // this shape is used for.
        for _ in 0..2 {
            black_box(f(setup()));
        }
        let mut per_iter_ns = Vec::with_capacity(SAMPLES as usize);
        for _ in 0..SAMPLES {
            let input = setup();
            let start = Instant::now();
            black_box(f(input));
            per_iter_ns.push(start.elapsed().as_nanos() as u64);
        }
        self.report(name, summarize(per_iter_ns, 1))
    }

    fn report(&self, name: &str, summary: Summary) -> Summary {
        eprintln!(
            "{suite}/{name}: median {med} (min {min}, max {max}; {n} samples x {iters} iters)",
            suite = self.suite,
            med = format_ns(summary.median_ns),
            min = format_ns(summary.min_ns),
            max = format_ns(summary.max_ns),
            n = summary.samples,
            iters = summary.iters_per_sample,
        );
        let record = JsonValue::object(vec![
            ("suite", self.suite.as_str().into()),
            ("bench", name.into()),
            ("median_ns", summary.median_ns.into()),
            ("min_ns", summary.min_ns.into()),
            ("max_ns", summary.max_ns.into()),
            ("samples", u64::from(summary.samples).into()),
            ("iters_per_sample", summary.iters_per_sample.into()),
        ]);
        eprintln!("BENCH_JSON {}", record.to_compact());
        summary
    }
}

/// Reduces raw per-iteration samples to the reported summary.
fn summarize(mut per_iter_ns: Vec<u64>, iters_per_sample: u64) -> Summary {
    assert!(!per_iter_ns.is_empty());
    per_iter_ns.sort_unstable();
    Summary {
        median_ns: per_iter_ns[per_iter_ns.len() / 2],
        min_ns: per_iter_ns[0],
        max_ns: *per_iter_ns.last().unwrap(),
        samples: per_iter_ns.len() as u32,
        iters_per_sample,
    }
}

/// Scales nanoseconds to the most readable unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_picks_median_and_extremes() {
        let s = summarize(vec![30, 10, 20, 50, 40], 7);
        assert_eq!(s.median_ns, 30);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 50);
        assert_eq!(s.samples, 5);
        assert_eq!(s.iters_per_sample, 7);
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(42), "42ns");
        assert_eq!(format_ns(42_000), "42.000us");
        assert_eq!(format_ns(42_000_000), "42.000ms");
        assert_eq!(format_ns(42_000_000_000), "42.000s");
    }

    #[test]
    fn bench_measures_a_real_closure() {
        let bench = Bench::new("harness_test");
        let mut acc = 0u64;
        let s = bench.bench("accumulate", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert!(s.median_ns > 0 || s.iters_per_sample > 1);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }

    #[test]
    fn bench_with_setup_excludes_setup() {
        let bench = Bench::new("harness_test");
        let s = bench.bench_with_setup("sum_vec", || vec![1u64; 4096], |v| v.iter().sum::<u64>());
        assert_eq!(s.iters_per_sample, 1);
        assert_eq!(s.samples, SAMPLES);
    }
}
