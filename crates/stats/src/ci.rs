//! Confidence intervals for reproduced measurements.
//!
//! Every number in the paper's evaluation is a distribution
//! ("0.91 ± 0.04 ms"), so the campaign runner reports each per-cell metric
//! as `mean ± half-width` at a stated confidence level, from the classic
//! Student-t interval on the mean ([`t_interval`]). The t quantile is
//! computed in-house (exact closed forms for ν = 1, 2; the Cornish–Fisher
//! expansion of the normal quantile for ν ≥ 3) so the workspace's
//! dependency set stays empty.

use crate::quantile::normal_inverse_cdf;
use crate::summary::Summary;

/// A two-sided confidence interval on a mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (the sample mean).
    pub mean: f64,
    /// Half-width of the interval; `mean ± half_width` covers the target
    /// confidence level. Zero when n < 2.
    pub half_width: f64,
    /// Lower bound (`mean - half_width`).
    pub lo: f64,
    /// Upper bound (`mean + half_width`).
    pub hi: f64,
    /// Number of samples the interval is based on.
    pub n: usize,
    /// The confidence level the interval targets (e.g. 0.95).
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Whether `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        (self.lo..=self.hi).contains(&value)
    }
}

/// The `p`-quantile of Student's t distribution with `df` degrees of
/// freedom.
///
/// ν = 1 (Cauchy) and ν = 2 use their exact closed forms; ν ≥ 3 uses the
/// Cornish–Fisher asymptotic expansion around the normal quantile, whose
/// error at ν = 3 is ≈ 4 · 10⁻³ and falls off rapidly with ν — well inside
/// what a reproduction table's ± column can resolve.
///
/// # Panics
/// Panics unless `df ≥ 1` and `0 < p < 1`.
pub fn student_t_quantile(df: usize, p: f64) -> f64 {
    assert!(df >= 1, "degrees of freedom must be >= 1");
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1), got {p}");
    match df {
        // Cauchy: F⁻¹(p) = tan(π (p − ½)).
        1 => (std::f64::consts::PI * (p - 0.5)).tan(),
        // ν = 2: F⁻¹(p) = (2p − 1) · √(2 / (4p(1 − p))).
        2 => (2.0 * p - 1.0) * (2.0 / (4.0 * p * (1.0 - p))).sqrt(),
        _ => {
            let v = df as f64;
            let z = normal_inverse_cdf(p);
            let z2 = z * z;
            let z3 = z2 * z;
            let z5 = z3 * z2;
            let z7 = z5 * z2;
            let z9 = z7 * z2;
            z + (z3 + z) / (4.0 * v)
                + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * v * v)
                + (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / (384.0 * v * v * v)
                + (79.0 * z9 + 776.0 * z7 + 1482.0 * z5 - 1920.0 * z3 - 945.0 * z)
                    / (92160.0 * v * v * v * v)
        }
    }
}

/// The two-sided Student-t confidence interval on the mean of `samples`
/// at the given `confidence` level (e.g. 0.95).
///
/// Returns `None` for an empty slice or a confidence outside `(0, 1)`.
/// A single sample yields a degenerate interval of half-width zero (there
/// is no dispersion information), which keeps campaign tables total.
pub fn t_interval(samples: &[f64], confidence: f64) -> Option<ConfidenceInterval> {
    t_interval_of(&Summary::of(samples), confidence)
}

/// The two-sided Student-t confidence interval computed from
/// already-accumulated summary statistics.
///
/// This is the streaming-aggregation entry point: a campaign cell folds
/// its samples into an [`OnlineStats`](crate::OnlineStats) accumulator,
/// takes a [`Summary`] snapshot, and derives the interval without ever
/// holding the raw samples. Because [`Summary::of`] is itself a
/// sequential Welford fold, `t_interval_of(&Summary::of(samples), c)` is
/// **bit-identical** to [`t_interval`]`(samples, c)` — the campaign
/// runner's byte-identical output contract depends on this, and a
/// regression test pins it.
///
/// Returns `None` for an empty summary (`count == 0`) or a confidence
/// outside `(0, 1)`; a single sample yields a degenerate half-width of
/// zero, exactly like [`t_interval`].
pub fn t_interval_of(s: &Summary, confidence: f64) -> Option<ConfidenceInterval> {
    if s.count == 0 || !(confidence > 0.0 && confidence < 1.0) {
        return None;
    }
    let half_width = if s.count < 2 {
        0.0
    } else {
        let t = student_t_quantile(s.count - 1, 0.5 + confidence / 2.0);
        t * s.sd / (s.count as f64).sqrt()
    };
    Some(ConfidenceInterval {
        mean: s.mean,
        half_width,
        lo: s.mean - half_width,
        hi: s.mean + half_width,
        n: s.count,
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Hand-checked critical values (R: qt(0.975, df) / qt(0.995, df)).
    #[test]
    fn t_quantile_matches_tables() {
        let cases = [
            (1, 0.975, 12.7062, 1e-3),
            (2, 0.975, 4.302653, 1e-6),
            (3, 0.975, 3.182446, 5e-3),
            (4, 0.975, 2.776445, 1e-3),
            (9, 0.975, 2.262157, 1e-4),
            (9, 0.995, 3.249836, 1e-3),
            (29, 0.975, 2.045230, 1e-5),
            (99, 0.975, 1.984217, 1e-6),
        ];
        for (df, p, want, tol) in cases {
            let got = student_t_quantile(df, p);
            assert!(
                (got - want).abs() < tol,
                "t({df}, {p}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn t_quantile_is_antisymmetric_and_centered() {
        for df in [1usize, 2, 5, 30] {
            assert!(student_t_quantile(df, 0.5).abs() < 1e-12, "df {df}");
            let hi = student_t_quantile(df, 0.9);
            let lo = student_t_quantile(df, 0.1);
            assert!((hi + lo).abs() < 1e-9, "df {df}: {hi} vs {lo}");
            assert!(hi > 0.0);
        }
    }

    #[test]
    fn t_interval_hand_computed_fixture() {
        // Samples with mean 5 and sample sd sqrt(32/7) over n = 8:
        // half-width = t(7, .975) * sd / sqrt(8) = 2.364624 * 2.13809 / 2.82843.
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let ci = t_interval(&samples, 0.95).expect("interval");
        assert_eq!(ci.n, 8);
        assert!((ci.mean - 5.0).abs() < 1e-12);
        let want = 2.364624 * (32.0f64 / 7.0).sqrt() / 8.0f64.sqrt();
        assert!(
            (ci.half_width - want).abs() < 2e-3,
            "half {} want {want}",
            ci.half_width
        );
        assert!((ci.lo - (ci.mean - ci.half_width)).abs() < 1e-12);
        assert!((ci.hi - (ci.mean + ci.half_width)).abs() < 1e-12);
        assert!(ci.contains(5.0) && !ci.contains(0.0));
    }

    #[test]
    fn t_interval_degenerate_inputs() {
        assert!(t_interval(&[], 0.95).is_none());
        assert!(t_interval(&[1.0], 1.0).is_none());
        assert!(t_interval(&[1.0], 0.0).is_none());
        let one = t_interval(&[3.0], 0.95).expect("single sample");
        assert_eq!(one.half_width, 0.0);
        assert_eq!(one.mean, 3.0);
        assert_eq!(one.n, 1);
    }

    #[test]
    fn t_interval_of_is_bit_identical_to_t_interval() {
        // The campaign runner's streaming aggregation path computes
        // intervals from a Welford snapshot; the two-pass reference path
        // computes them from the raw samples. Byte-identical campaign
        // output requires these to agree to the last bit.
        let samples: Vec<f64> = (0..23).map(|i| ((i * 37) % 11) as f64 * 0.31).collect();
        for conf in [0.90, 0.95, 0.99] {
            let direct = t_interval(&samples, conf).expect("direct");
            let from_summary = t_interval_of(&Summary::of(&samples), conf).expect("snapshot");
            assert_eq!(direct.mean.to_bits(), from_summary.mean.to_bits());
            assert_eq!(
                direct.half_width.to_bits(),
                from_summary.half_width.to_bits()
            );
            assert_eq!(direct.lo.to_bits(), from_summary.lo.to_bits());
            assert_eq!(direct.hi.to_bits(), from_summary.hi.to_bits());
            assert_eq!(direct.n, from_summary.n);
        }
        // Degenerate inputs behave identically too.
        assert!(t_interval_of(&Summary::of(&[]), 0.95).is_none());
        assert!(t_interval_of(&Summary::of(&[1.0]), 1.0).is_none());
        let one = t_interval_of(&Summary::of(&[3.0]), 0.95).expect("single sample");
        assert_eq!(one.half_width, 0.0);
    }
}
