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

    /// Number of samples seen.
    pub fn count(&self) -> usize {
        self.count
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

    /// The raw accumulator state `(count, mean, m2, min, max)`.
    ///
    /// Intended for bit-exact serialization: store the five
    /// values bit-exactly (f64 → [`f64::to_bits`]) and rebuild with
    /// [`OnlineStats::from_parts`] to resume accumulation — or
    /// [`OnlineStats::merge`] — without any loss. The parts of an empty
    /// tracker include the `±∞` min/max sentinels; round-tripping them
    /// through `from_parts` preserves that state exactly.
    pub fn to_parts(&self) -> (usize, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds a tracker from [`OnlineStats::to_parts`] output.
    ///
    /// The parts are trusted verbatim: feeding values that did not come
    /// from `to_parts` produces a tracker whose statistics are undefined
    /// (though never unsafe — all derived quantities stay total).
    pub fn from_parts(count: usize, mean: f64, m2: f64, min: f64, max: f64) -> OnlineStats {
        OnlineStats {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges another tracker into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..50).map(|i| i as f64 * 0.7).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..20] {
            left.push(x);
        }
        for &x in &data[20..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.sd() - whole.sd()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn parts_round_trip_bit_exactly() {
        let mut stats = OnlineStats::new();
        for x in [0.1, -3.7, 1e9, 0.0, 42.42] {
            stats.push(x);
        }
        let (count, mean, m2, min, max) = stats.to_parts();
        let rebuilt = OnlineStats::from_parts(count, mean, m2, min, max);
        assert_eq!(stats, rebuilt);
        // Resuming accumulation from the rebuilt tracker matches exactly.
        let mut a = stats;
        let mut b = rebuilt;
        a.push(7.5);
        b.push(7.5);
        assert_eq!(a, b);
        // The empty tracker's ±∞ sentinels survive the round trip.
        let empty = OnlineStats::new();
        let (c, m, m2, lo, hi) = empty.to_parts();
        assert_eq!(OnlineStats::from_parts(c, m, m2, lo, hi), empty);
    }

    #[test]
    fn merge_is_associative_enough_for_sharding() {
        // Three shards merged left-to-right equal the same shards merged
        // into an empty accumulator — the shard-merge discipline.
        let data: Vec<f64> = (0..60).map(|i| ((i * 13) % 17) as f64 * 0.5).collect();
        let chunks: Vec<OnlineStats> = data
            .chunks(20)
            .map(|c| {
                let mut s = OnlineStats::new();
                for &x in c {
                    s.push(x);
                }
                s
            })
            .collect();
        let mut left = chunks[0];
        left.merge(&chunks[1]);
        left.merge(&chunks[2]);
        let mut from_empty = OnlineStats::new();
        for c in &chunks {
            from_empty.merge(c);
        }
        assert_eq!(left, from_empty);
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.sd() - whole.sd()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn mean_pm_sd_format() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean_pm_sd(2), "2.00 ± 1.00");
    }
}
