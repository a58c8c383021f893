//! The IQR store against the implementation its rank index replaced: a
//! sliding window whose threshold sorts a copy by `f64::total_cmp` and
//! reads `quantile_sorted`. Every verdict and every threshold must agree
//! to the bit, on streams with heavy ties, both zeros, NaNs of either
//! sign and infinities, long enough to wrap the ring several times.

use std::collections::VecDeque;

use tm_prop::prelude::*;

use tm_stats::{quantile_sorted, IqrOutlierDetector, IqrVerdict};

/// The sort-a-copy store, as it was before the rank index.
struct Reference {
    window: VecDeque<f64>,
    capacity: usize,
    min_samples: usize,
    k: f64,
}

impl Reference {
    fn new(capacity: usize, min_samples: usize, k: f64) -> Self {
        Reference {
            window: VecDeque::new(),
            capacity,
            min_samples: min_samples.min(capacity),
            k,
        }
    }

    fn threshold(&self) -> Option<f64> {
        if self.window.len() < self.min_samples {
            return None;
        }
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let q1 = quantile_sorted(&sorted, 0.25)?;
        let q3 = quantile_sorted(&sorted, 0.75)?;
        Some(q3 + self.k * (q3 - q1))
    }

    fn inspect(&mut self, sample: f64) -> IqrVerdict {
        let verdict = match self.threshold() {
            None => IqrVerdict::Warmup,
            Some(threshold) if sample > threshold => return IqrVerdict::Outlier { threshold },
            Some(threshold) => IqrVerdict::Normal { threshold },
        };
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(sample);
        verdict
    }
}

/// A verdict as comparable bits: the kind, then the threshold's bits.
fn bits(verdict: IqrVerdict) -> (u8, u64) {
    match verdict {
        IqrVerdict::Warmup => (0, 0),
        IqrVerdict::Normal { threshold } => (1, threshold.to_bits()),
        IqrVerdict::Outlier { threshold } => (2, threshold.to_bits()),
    }
}

/// One sample from `(kind, magnitude)`. Half the kinds are the same fixed
/// latency, as on a fixed-latency trunk, so ties are heavy.
fn sample((kind, magnitude): (u8, u16)) -> f64 {
    match kind {
        0..=3 => 5.0,
        4 => 5.0 + f64::from(magnitude) * 1e-3,
        5 => 0.0,
        6 => -0.0,
        7 => f64::NAN,
        8 => -f64::NAN,
        9 => f64::INFINITY,
        10 => f64::NEG_INFINITY,
        _ => f64::from(magnitude),
    }
}

/// Feeds `stream` to both stores and compares every verdict, then the
/// threshold and the length after each step.
fn assert_agree(capacity: usize, min_samples: usize, k: f64, stream: &[f64]) {
    let mut store = IqrOutlierDetector::new(capacity, min_samples, k);
    let mut reference = Reference::new(capacity, min_samples, k);
    for (i, &x) in stream.iter().enumerate() {
        assert_eq!(
            bits(store.inspect(x)),
            bits(reference.inspect(x)),
            "verdict {i} on sample {x:?}"
        );
        assert_eq!(
            store.threshold().map(f64::to_bits),
            reference.threshold().map(f64::to_bits),
            "threshold after sample {i}"
        );
        assert_eq!(store.len(), reference.window.len(), "length after {i}");
    }
}

tm_prop! {
    #![tm_config(cases = 96)]

    /// Any capacity up to the paper's 100, any warm-up (beyond the
    /// capacity it clamps), three fence multipliers, and streams of up to
    /// 1,200 samples drawn with heavy ties and every special value.
    #[test]
    fn rank_index_matches_the_sorted_copy(
        capacity in 1usize..101,
        min_samples in 1usize..102,
        k_step in 0u8..3,
        stream in collection::vec((0u8..13, 0u16..1000), 0..1200),
    ) {
        let stream: Vec<f64> = stream.into_iter().map(sample).collect();
        assert_agree(capacity, min_samples, f64::from(k_step) * 1.5, &stream);
    }

    /// Jittered streams, every sample distinct or nearly so, admitted
    /// often enough to wrap small rings many times.
    #[test]
    fn rank_index_matches_the_sorted_copy_on_jitter(
        capacity in 1usize..101,
        min_samples in 1usize..12,
        stream in collection::vec(0u16..1000, 0..1200),
    ) {
        let stream: Vec<f64> = stream
            .into_iter()
            .map(|m| 5.0 + f64::from(m) * 1e-3)
            .collect();
        assert_agree(capacity, min_samples, 3.0, &stream);
    }
}

#[test]
fn equal_samples_wrap_the_paper_store_many_times() {
    // A fixed-latency trunk: every sample bit-equal, 20 wraps of the ring.
    assert_agree(100, 10, 3.0, &[5.0; 2_000]);
}

#[test]
fn the_largest_store_the_rank_byte_indexes_matches() {
    let stream: Vec<f64> = (0..3_000u32)
        .map(|i| f64::from(i.wrapping_mul(2_654_435_761) % 1_000) * 1e-2)
        .collect();
    assert_agree(256, 1, 3.0, &stream);
}
