//! The fixed-size sample store and interquartile-range outlier rule used by
//! TopoGuard+'s Link Latency Inspector (§VI-D).
//!
//! > "The LLI maintains a fixed size data store for values of the latencies
//! > of switch internal links measured from verified LLDP packets and
//! > computes lower quartile (Q1), upper quartile (Q3), and interquartile
//! > range (IQR, Q3−Q1) upon the data store. When a new LLDP packet arrives
//! > in the SDN controller, the LLI inspects the computed latency value with
//! > the threshold (Q3 + 3·IQR)."

use std::cmp::Ordering;

use crate::quantile::quantile_by_rank;

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
///
/// The store is a ring of samples plus a rank index: one byte per sample,
/// listing ring slots in ascending [`f64::total_cmp`] order (NaN-total, so
/// a NaN sample cannot panic or reorder the store), equal samples oldest
/// first. The quartiles are then two rank reads, and a sample enters and
/// leaves the index by binary search, with no sorted copy.
#[derive(Clone, Debug)]
pub struct IqrOutlierDetector {
    /// The ring: slot `next` holds the oldest sample once it is full.
    samples: Vec<f64>,
    /// Ring slots by ascending sample, equal samples oldest first.
    ranks: Vec<u8>,
    /// The ring slot the next admitted sample takes.
    next: u8,
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
    /// Panics if `capacity == 0`, `capacity > 256` (the rank index holds
    /// one byte per slot), `min_samples == 0`, or `k < 0`.
    pub fn new(capacity: usize, min_samples: usize, k: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(capacity <= 256, "capacity must be at most 256");
        assert!(min_samples > 0, "min_samples must be positive");
        assert!(k >= 0.0, "k must be non-negative");
        IqrOutlierDetector {
            samples: Vec::with_capacity(capacity),
            ranks: Vec::with_capacity(capacity),
            next: 0,
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
        self.samples.len()
    }

    /// Returns `true` if no samples have been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The current `Q3 + k·IQR` threshold, or `None` during warmup.
    pub fn threshold(&self) -> Option<f64> {
        if self.samples.len() < self.min_samples {
            return None;
        }
        let q1 = self.quantile(0.25)?;
        let q3 = self.quantile(0.75)?;
        Some(q3 + self.k * (q3 - q1))
    }

    /// The `q`-quantile of the store, exactly as [`crate::quantile_sorted`]
    /// computes it over a `total_cmp`-sorted copy.
    fn quantile(&self, q: f64) -> Option<f64> {
        quantile_by_rank(self.ranks.len(), q, |rank| {
            let slot = *self.ranks.get(rank)?;
            self.samples.get(usize::from(slot)).copied()
        })
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

    /// The first rank whose sample is not `below` `value` in
    /// [`f64::total_cmp`] order.
    fn rank_of(&self, value: f64, below: impl Fn(Ordering) -> bool) -> usize {
        self.ranks.partition_point(|&slot| {
            self.samples
                .get(usize::from(slot))
                .is_some_and(|s| below(s.total_cmp(&value)))
        })
    }

    fn admit(&mut self, sample: f64) {
        let slot = self.next;
        match self.samples.get(usize::from(slot)).copied() {
            // Full: the slot holds the oldest sample, which ranks first
            // among its equals.
            Some(oldest) => {
                let rank = self.rank_of(oldest, Ordering::is_lt);
                if rank < self.ranks.len() {
                    self.ranks.remove(rank);
                }
                if let Some(s) = self.samples.get_mut(usize::from(slot)) {
                    *s = sample;
                }
            }
            None => self.samples.push(sample),
        }
        // The newest sample ranks after its equals.
        let rank = self.rank_of(sample, Ordering::is_le);
        self.ranks.insert(rank, slot);
        self.next = if usize::from(slot) + 1 < self.capacity {
            slot + 1
        } else {
            0
        };
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

    #[test]
    #[should_panic(expected = "at most 256")]
    fn capacity_beyond_the_rank_byte_rejected() {
        let _ = IqrOutlierDetector::new(257, 1, 3.0);
    }
}
