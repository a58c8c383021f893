//! The fixed-size sample store and interquartile-range outlier rule used by
//! TopoGuard+'s Link Latency Inspector (§VI-D).
//!
//! > "The LLI maintains a fixed size data store for values of the latencies
//! > of switch internal links measured from verified LLDP packets and
//! > computes lower quartile (Q1), upper quartile (Q3), and interquartile
//! > range (IQR, Q3−Q1) upon the data store. When a new LLDP packet arrives
//! > in the SDN controller, the LLI inspects the computed latency value with
//! > the threshold (Q3 + 3·IQR)."

use std::collections::VecDeque;

use crate::quantile::quantile_sorted;

/// The paper's fixed store size: the 100 most recent verified latencies.
pub const STORE_CAPACITY: usize = 100;

/// The paper's warm-up: samples collected before the first judgement.
pub const MIN_SAMPLES: usize = 10;

/// The verdict for one inspected sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IqrVerdict {
    /// Not enough history to judge; the sample was admitted to the store.
    Warmup,
    /// The sample is within `Q3 + k·IQR` and was admitted to the store.
    Normal {
        /// The threshold the sample was compared against.
        threshold: f64,
    },
    /// The sample exceeds the threshold; it was *not* admitted to the store
    /// (outliers must not poison the baseline).
    Outlier {
        /// The threshold the sample was compared against.
        threshold: f64,
    },
}

/// A sliding-window IQR outlier detector.
#[derive(Clone, Debug)]
pub struct IqrOutlierDetector {
    window: VecDeque<f64>,
    capacity: usize,
    min_samples: usize,
    k: f64,
}

impl IqrOutlierDetector {
    /// Creates a detector over a window of `capacity` samples, judging only
    /// once `min_samples` have been collected, with threshold `Q3 + k·IQR`.
    ///
    /// The paper uses `k = 3` (a "far outlier" fence).
    ///
    /// # Panics
    /// Panics if `capacity == 0`, `min_samples == 0`, or `k < 0`.
    pub fn new(capacity: usize, min_samples: usize, k: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(min_samples > 0, "min_samples must be positive");
        assert!(k >= 0.0, "k must be non-negative");
        IqrOutlierDetector {
            window: VecDeque::with_capacity(capacity),
            capacity,
            min_samples: min_samples.min(capacity),
            k,
        }
    }

    /// A detector with the paper's parameters: window of
    /// [`STORE_CAPACITY`] verified latencies, [`MIN_SAMPLES`]-sample warmup,
    /// threshold `Q3 + 3·IQR`.
    pub fn paper_default() -> Self {
        IqrOutlierDetector::new(STORE_CAPACITY, MIN_SAMPLES, 3.0)
    }

    /// Number of samples currently in the store.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Returns `true` if no samples have been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The current `Q3 + k·IQR` threshold, or `None` during warmup.
    pub fn threshold(&self) -> Option<f64> {
        if self.window.len() < self.min_samples {
            return None;
        }
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        // total_cmp: NaN-total and deterministic, unlike partial_cmp
        // (a NaN sample must not be able to panic or reorder the store).
        sorted.sort_by(f64::total_cmp);
        let q1 = quantile_sorted(&sorted, 0.25)?;
        let q3 = quantile_sorted(&sorted, 0.75)?;
        Some(q3 + self.k * (q3 - q1))
    }

    /// Inspects `sample`: judges it against the current threshold, then
    /// admits it to the store unless it was an outlier.
    pub fn inspect(&mut self, sample: f64) -> IqrVerdict {
        match self.threshold() {
            None => {
                self.admit(sample);
                IqrVerdict::Warmup
            }
            Some(threshold) if sample > threshold => IqrVerdict::Outlier { threshold },
            Some(threshold) => {
                self.admit(sample);
                IqrVerdict::Normal { threshold }
            }
        }
    }

    fn admit(&mut self, sample: f64) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_admits_everything() {
        let mut det = IqrOutlierDetector::new(100, 10, 3.0);
        for i in 0..9 {
            assert_eq!(det.inspect(5.0 + i as f64 * 0.01), IqrVerdict::Warmup);
        }
        assert_eq!(det.len(), 9);
        assert!(det.threshold().is_none());
    }

    #[test]
    fn steady_state_accepts_normal_flags_outlier() {
        let mut det = IqrOutlierDetector::paper_default();
        // ~5 ms latencies with small spread.
        for i in 0..50 {
            det.inspect(5.0 + (i % 5) as f64 * 0.1);
        }
        assert!(matches!(det.inspect(5.3), IqrVerdict::Normal { .. }));
        // A 15 ms relayed-link latency is far beyond Q3 + 3*IQR.
        match det.inspect(15.0) {
            IqrVerdict::Outlier { threshold } => assert!(threshold < 15.0),
            other => panic!("expected outlier, got {other:?}"),
        }
    }

    #[test]
    fn outliers_do_not_poison_the_store() {
        let mut det = IqrOutlierDetector::paper_default();
        for _ in 0..20 {
            det.inspect(5.0);
        }
        let before = det.len();
        let _ = det.inspect(500.0);
        assert_eq!(det.len(), before, "outlier must not be admitted");
        // Repeated attack samples keep being flagged.
        for _ in 0..10 {
            assert!(matches!(det.inspect(500.0), IqrVerdict::Outlier { .. }));
        }
    }

    #[test]
    fn window_slides() {
        let mut det = IqrOutlierDetector::new(10, 2, 3.0);
        for _ in 0..10 {
            det.inspect(1.0);
        }
        assert_eq!(det.len(), 10);
        // Gradually shift the baseline upward; window keeps only 10.
        for i in 0..10 {
            det.inspect(1.0 + i as f64 * 0.001);
        }
        assert_eq!(det.len(), 10);
    }

    #[test]
    fn tolerates_a_burst_during_warmup() {
        // The paper notes controller bootstrap adds large latencies that
        // raise the threshold until steady state (Fig. 11). The detector
        // admits them during warmup, then converges as the window slides.
        let mut det = IqrOutlierDetector::new(20, 5, 3.0);
        for _ in 0..5 {
            det.inspect(50.0); // bootstrap burst
        }
        let bootstrapped = det.threshold().expect("past warmup");
        for _ in 0..40 {
            det.inspect(5.0);
        }
        let steady = det.threshold().expect("steady state");
        assert!(steady < bootstrapped);
        assert!(
            steady < 10.0,
            "threshold should converge near 5 ms, got {steady}"
        );
    }

    #[test]
    fn constant_data_has_zero_iqr() {
        let mut det = IqrOutlierDetector::new(10, 2, 3.0);
        det.inspect(5.0);
        det.inspect(5.0);
        assert_eq!(det.threshold(), Some(5.0));
        // Any sample strictly above the constant is an outlier.
        assert!(matches!(det.inspect(5.001), IqrVerdict::Outlier { .. }));
        assert_eq!(det.inspect(5.0), IqrVerdict::Normal { threshold: 5.0 });
    }

    #[test]
    fn normal_verdict_carries_the_threshold_it_passed() {
        let mut det = IqrOutlierDetector::paper_default();
        for i in 0..30 {
            det.inspect(5.0 + (i % 7) as f64 * 0.03);
        }
        let before = det.threshold().expect("past warmup");
        assert_eq!(det.inspect(5.1), IqrVerdict::Normal { threshold: before });
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = IqrOutlierDetector::new(0, 1, 3.0);
    }
}
