//! Summary statistics, offline and streaming.

/// Summary statistics over a batch of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 for empty input).
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 when n < 2).
    pub sd: f64,
    /// Minimum (0 for empty input).
    pub min: f64,
    /// Maximum (0 for empty input).
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics over `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        let mut stats = OnlineStats::new();
        for &x in samples {
            stats.push(x);
        }
        stats.summary()
    }

    /// Formats as `mean ± sd` with the given precision, mirroring the
    /// paper's table style.
    pub fn mean_pm_sd(&self, decimals: usize) -> String {
        format!("{:.*} ± {:.*}", decimals, self.mean, decimals, self.sd)
    }
}

/// Streaming (Welford) mean/variance tracker with min/max.
///
/// Used by long-running experiments to accumulate statistics without
/// retaining every sample.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OnlineStats {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Current mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Current sample standard deviation (0 when n < 2).
    pub fn sd(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Snapshot of the summary statistics.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            sd: self.sd(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.sd, 0.0);
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn single_sample_has_zero_sd() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
    }

    #[test]
    fn online_matches_offline() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let offline = Summary::of(&data);
        let mut online = OnlineStats::new();
        for &x in &data {
            online.push(x);
        }
        let s = online.summary();
        assert!((s.mean - offline.mean).abs() < 1e-9);
        assert!((s.sd - offline.sd).abs() < 1e-9);
    }

    #[test]
    fn mean_pm_sd_format() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean_pm_sd(2), "2.00 ± 1.00");
    }
}
