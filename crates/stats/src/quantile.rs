//! Quantiles: empirical (type-7 linear interpolation) and the normal
//! inverse CDF.
//!
//! The Port Probing attacker chooses its probe timeout by computing a
//! quantile of the observed RTT distribution at a target false-positive rate
//! (§V-B1): with RTT ~ N(20 ms, 5 ms) and a 1 % false-positive budget, the
//! 99th percentile is ≈ 31.6 ms, which the paper rounds up to 35 ms.

/// Computes the `q`-quantile (0 ≤ q ≤ 1) of `sorted` using linear
/// interpolation between order statistics (R's default "type 7").
///
/// Returns `None` for an empty slice or `q` outside `[0, 1]`.
///
/// # Panics
/// Does not verify sortedness; results on unsorted input are meaningless.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    quantile_by_rank(sorted.len(), q, |rank| sorted.get(rank).copied())
}

/// [`quantile_sorted`] over `n` values read by rank: `at(r)` returns the
/// `r`-th smallest. The same arithmetic, so the same bits, for stores that
/// keep a rank index instead of a sorted copy.
pub(crate) fn quantile_by_rank(n: usize, q: f64, at: impl Fn(usize) -> Option<f64>) -> Option<f64> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    if n == 1 {
        return at(0);
    }
    let pos = q * (n - 1) as f64;
    let lower = pos.floor() as usize;
    let upper = pos.ceil() as usize;
    let frac = pos - lower as f64;
    let (low, high) = (at(lower)?, at(upper)?);
    Some(low + frac * (high - low))
}

/// Convenience: sorts a copy of `samples` and computes the `q`-quantile.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    // total_cmp: NaN-total and deterministic, unlike partial_cmp.
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The inverse CDF (quantile function) of the standard normal distribution,
/// computed with Acklam's rational approximation (relative error < 1.15e-9).
///
/// # Panics
/// Panics unless `0 < p < 1`.
pub fn normal_inverse_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1), got {p}");

    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];

    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The quantile of `N(mean, sd²)` at probability `p`: the probe-timeout
/// formula from §V-B1.
///
/// # Panics
/// Panics unless `0 < p < 1`.
pub fn normal_quantile(mean: f64, sd: f64, p: f64) -> f64 {
    mean + sd * normal_inverse_cdf(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_quantiles() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&sorted, 1.0), Some(5.0));
        assert_eq!(quantile_sorted(&sorted, 0.5), Some(3.0));
        assert_eq!(quantile_sorted(&sorted, 0.25), Some(2.0));
        // Interpolated value.
        assert_eq!(quantile_sorted(&sorted, 0.1), Some(1.4));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile_sorted(&[1.0, 2.0], 1.5), None);
        assert_eq!(quantile_sorted(&[1.0, 2.0], -0.1), None);
    }

    #[test]
    fn quantile_sorts_for_you() {
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), Some(3.0));
    }

    #[test]
    fn inverse_cdf_known_values() {
        // Φ⁻¹(0.5) = 0, Φ⁻¹(0.975) ≈ 1.959964, Φ⁻¹(0.99) ≈ 2.326348.
        assert!(normal_inverse_cdf(0.5).abs() < 1e-9);
        assert!((normal_inverse_cdf(0.975) - 1.959964).abs() < 1e-5);
        assert!((normal_inverse_cdf(0.99) - 2.326348).abs() < 1e-5);
        assert!((normal_inverse_cdf(0.01) + 2.326348).abs() < 1e-5);
        // Tail region (p < 0.02425) exercises the low branch.
        assert!((normal_inverse_cdf(0.001) + 3.090232).abs() < 1e-5);
    }

    #[test]
    fn paper_probe_timeout_derivation() {
        // §V-B1: RTT ~ N(20 ms, 5 ms), 1% false positives -> ≈31.6 ms,
        // which the authors round to a 35 ms timeout.
        let timeout = normal_quantile(20.0, 5.0, 0.99);
        assert!((timeout - 31.63).abs() < 0.05, "got {timeout}");
        assert!(timeout < 35.0);
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn inverse_cdf_rejects_out_of_range() {
        let _ = normal_inverse_cdf(1.0);
    }
}
