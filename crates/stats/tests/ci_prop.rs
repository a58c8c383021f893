//! Property tests for the confidence-interval routines: the interval
//! must tighten with sample size and cover the true mean of symmetric
//! data.
//!
//! tm-prop generates integers (its range strategies are integral); each
//! property maps them to floats on a fixed lattice, which keeps shrinking
//! effective and floating-point error analysable.

use tm_prop::prelude::*;

use tm_stats::{student_t_quantile, t_interval};

/// Millis-lattice conversion: 0..1_000_000 → 0.0..1000.0.
fn to_f64(xs: &[u32]) -> Vec<f64> {
    xs.iter().map(|&x| f64::from(x) / 1000.0).collect()
}

/// `base` repeated `reps` times: same underlying distribution, larger N.
fn repeat(base: &[f64], reps: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(base.len() * reps);
    for _ in 0..reps {
        out.extend_from_slice(base);
    }
    out
}

tm_prop! {
    #![tm_config(cases = 64)]

    /// Doubling the sample count (same empirical distribution) never
    /// widens the t-interval: t(n−1) falls and √n grows.
    #[test]
    fn t_interval_shrinks_as_n_grows(
        base in collection::vec(0u32..1_000_000, 2..12),
        reps in 1usize..5,
    ) {
        let base = to_f64(&base);
        let small = t_interval(&repeat(&base, reps), 0.95).expect("small interval");
        let large = t_interval(&repeat(&base, reps * 2), 0.95).expect("large interval");
        prop_assert!(
            large.half_width <= small.half_width + 1e-9,
            "n={} half={} vs n={} half={}",
            small.n, small.half_width, large.n, large.half_width
        );
    }

    /// For data built symmetric around a center, the t-interval contains
    /// that center (the sample mean *is* the center, and the interval is
    /// centered on the sample mean).
    #[test]
    fn t_interval_contains_true_mean_of_symmetric_data(
        half in collection::vec(0u32..1_000_000, 1..16),
        center_raw in 0u32..1_000_000,
    ) {
        let center = f64::from(center_raw) / 1000.0 - 500.0;
        let mut samples = Vec::with_capacity(half.len() * 2);
        for &x in &to_f64(&half) {
            samples.push(center + x);
            samples.push(center - x);
        }
        let ci = t_interval(&samples, 0.95).expect("interval");
        prop_assert!(
            ci.lo - 1e-6 <= center && center <= ci.hi + 1e-6,
            "center {center} outside [{}, {}]", ci.lo, ci.hi
        );
    }

    /// Raising the confidence level never narrows the interval.
    #[test]
    fn t_interval_widens_with_confidence(
        samples in collection::vec(0u32..100_000, 2..16),
    ) {
        let samples = to_f64(&samples);
        let c90 = t_interval(&samples, 0.90).expect("90%");
        let c99 = t_interval(&samples, 0.99).expect("99%");
        prop_assert!(c99.half_width >= c90.half_width - 1e-12);
    }

    /// The t quantile is monotone in p for every df.
    #[test]
    fn t_quantile_monotone_in_p(
        df in 1usize..40,
        p_raw in 20u32..970,
    ) {
        let p = f64::from(p_raw) / 1000.0;
        let lo = student_t_quantile(df, p);
        let hi = student_t_quantile(df, p + 0.02);
        prop_assert!(hi > lo, "t({df}, {p}..) not monotone: {lo} vs {hi}");
    }
}
