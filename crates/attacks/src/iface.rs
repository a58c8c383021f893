//! The `ifconfig` timing model.
//!
//! The paper measures two interface-manipulation latencies on its testbed:
//!
//! * Changing a NIC's MAC and IP with `ifconfig` takes **9.94 ms on
//!   average, heavy-tailed with trials up to ~160 ms** (Fig. 4). We model
//!   this as a log-normal calibrated to that mean with a dispersion that
//!   reproduces the tail.
//! * A bare down/up cycle takes **3.25 ms on average** (§V-A) — faster
//!   than the 802.3 link-pulse window, which is why an attacker can change
//!   identifiers without triggering a Port-Down, and conversely must *hold*
//!   the interface down ≥ 16 ms when it wants one.

use tm_rand::Rng;

use sdn_types::Duration;
use tm_stats::{Distribution, LogNormal};

/// Samples interface-manipulation latencies.
#[derive(Clone, Copy, Debug)]
pub struct IdentChangeModel {
    ident_change: LogNormal,
    bare_cycle: LogNormal,
}

impl IdentChangeModel {
    /// The paper's testbed calibration: identifier change mean 9.94 ms with
    /// a tail reaching ~160 ms; bare down/up mean 3.25 ms.
    pub fn paper_default() -> Self {
        IdentChangeModel {
            // sd chosen so the 99.9th percentile lands near 160 ms.
            ident_change: LogNormal::from_mean_sd(9.94, 12.0),
            bare_cycle: LogNormal::from_mean_sd(3.25, 1.0),
        }
    }

    /// Samples the time `ifconfig` takes to bring the interface down and
    /// back up with new MAC/IP identifiers.
    pub fn sample_ident_change<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        Duration::from_millis_f64(self.ident_change.sample(rng))
    }

    /// Samples the time of a bare down/up cycle (no identifier change).
    pub fn sample_bare_cycle<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        Duration::from_millis_f64(self.bare_cycle.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_rand::StdRng;
    use tm_stats::Summary;

    #[test]
    fn ident_change_matches_fig4_shape() {
        let model = IdentChangeModel::paper_default();
        let mut rng = StdRng::seed_from_u64(44);
        let samples: Vec<f64> = (0..10_000)
            .map(|_| model.sample_ident_change(&mut rng).as_millis_f64())
            .collect();
        let s = Summary::of(&samples);
        assert!(
            (s.mean - 9.94).abs() < 0.6,
            "mean {} vs paper 9.94 ms",
            s.mean
        );
        assert!(s.max > 80.0, "heavy tail expected, max {}", s.max);
        assert!(s.max < 400.0, "tail should not be absurd, max {}", s.max);
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn bare_cycle_is_faster_than_pulse_window() {
        let model = IdentChangeModel::paper_default();
        let mut rng = StdRng::seed_from_u64(45);
        let samples: Vec<f64> = (0..5_000)
            .map(|_| model.sample_bare_cycle(&mut rng).as_millis_f64())
            .collect();
        let s = Summary::of(&samples);
        assert!(
            (s.mean - 3.25).abs() < 0.2,
            "mean {} vs paper 3.25 ms",
            s.mean
        );
        // §V-A: typical cycles complete well inside the 8 ms minimum pulse
        // window, so they do not trigger Port-Down.
        let under_8ms = samples.iter().filter(|&&x| x < 8.0).count();
        assert!(under_8ms as f64 / samples.len() as f64 > 0.99);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = IdentChangeModel::paper_default();
        let a = model.sample_ident_change(&mut StdRng::seed_from_u64(1));
        let b = model.sample_ident_change(&mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }
}
