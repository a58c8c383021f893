//! Property tests for the traffic sampling transforms: the statistical
//! contracts the flow engine relies on, checked without a simulator.
//!
//! * **Seed-fork prefix stability** — a group's arrival stream is a pure
//!   function of `(base_seed, stream id)`: the first `n` draws never
//!   change when more draws follow, and sibling streams forked from the
//!   same base are unrelated. This is what makes on-demand packet
//!   expansion safe: expanding (or not expanding) one group's flows can
//!   never perturb another group's arrivals.
//! * **Inter-arrival positivity** — every sampled gap is strictly
//!   positive (the engine's arrival chains must always advance virtual
//!   time).
//! * **Elephant/mice ratio** — the drawn elephant fraction converges to
//!   the mix's configured fraction, and byte totals stay on the
//!   two-class lattice.

use sdn_types::Duration;
use tm_prop::prelude::*;
use tm_rand::{stream_seed, StdRng};
use tm_traffic::{ArrivalProcess, DemandProfile, SizeMix};

/// Rates on a lattice: 0.01 .. 20.0 flows/host/s.
fn rate(raw: u32) -> f64 {
    0.01 + f64::from(raw % 2000) / 100.0
}

fn profile(raw_rate: u32, bursty: bool) -> DemandProfile {
    let arrival = if bursty {
        ArrivalProcess::on_off(Duration::from_millis(500), Duration::from_millis(1500))
    } else {
        ArrivalProcess::Poisson
    };
    DemandProfile::new(rate(raw_rate), arrival, SizeMix::datacenter())
}

tm_prop! {
    #![tm_config(cases = 64)]

    #[test]
    fn forked_stream_prefixes_are_stable(
        base in any::<u64>(),
        id in 0u64..1024,
        raw_rate in any::<u32>(),
        bursty in any::<bool>(),
        hosts in 1u32..100_000,
        n in 1usize..64,
        extra in 0usize..64,
    ) {
        let p = profile(raw_rate, bursty);
        let draw = |count: usize| -> Vec<Duration> {
            let mut rng = StdRng::seed_from_u64(stream_seed(base, id));
            (0..count).map(|_| p.sample_interarrival(hosts, &mut rng)).collect()
        };
        let short = draw(n);
        let long = draw(n + extra);
        prop_assert_eq!(&short[..], &long[..n]);
    }

    #[test]
    fn sibling_streams_diverge(
        base in any::<u64>(),
        id in 0u64..1024,
        raw_rate in any::<u32>(),
    ) {
        let p = profile(raw_rate, false);
        let sample = |stream: u64| -> Vec<Duration> {
            let mut rng = StdRng::seed_from_u64(stream_seed(base, stream));
            (0..8).map(|_| p.sample_interarrival(1, &mut rng)).collect()
        };
        // Eight exponential draws colliding across forked streams would
        // mean the fork is not actually mixing the stream id.
        prop_assert_ne!(sample(id), sample(id + 1));
    }

    #[test]
    fn interarrivals_are_strictly_positive(
        seed in any::<u64>(),
        raw_rate in any::<u32>(),
        hosts in 1u32..8_000_000,
    ) {
        // Even absurd aggregate rates (8M hosts x 20 flows/s) must floor
        // at one nanosecond, never zero: a zero gap would stall the
        // engine's arrival chain on a fixed timestamp.
        let p = profile(raw_rate, false);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(p.sample_interarrival(hosts, &mut rng) > Duration::ZERO);
        }
    }

    #[test]
    fn phase_durations_are_strictly_positive(
        seed in any::<u64>(),
        on in any::<bool>(),
        mean_on_ms in 1u32..10_000,
        mean_off_ms in 1u32..10_000,
    ) {
        let arrival = ArrivalProcess::on_off(
            Duration::from_millis(u64::from(mean_on_ms)),
            Duration::from_millis(u64::from(mean_off_ms)),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(arrival.sample_phase(on, &mut rng) > Duration::ZERO);
        }
    }

    #[test]
    fn elephant_fraction_converges_to_the_mix(
        seed in any::<u64>(),
        pct in 1u32..=99,
    ) {
        let fraction = f64::from(pct) / 100.0;
        let mix = SizeMix::new(fraction, 128 * 1024 * 1024, 20 * 1024);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4000u32;
        let mut elephants = 0u32;
        for _ in 0..n {
            let bytes = mix.sample_bytes(&mut rng);
            // Byte draws stay on the two-class lattice.
            prop_assert!(bytes == mix.elephant_bytes || bytes == mix.mice_bytes);
            if bytes == mix.elephant_bytes {
                elephants += 1;
            }
        }
        let drawn = f64::from(elephants) / f64::from(n);
        // 4000 Bernoulli draws: keep a generous 4-sigma tolerance so the
        // property never flakes across the seeded case sweep.
        let sigma = (fraction * (1.0 - fraction) / f64::from(n)).sqrt();
        prop_assert!(
            (drawn - fraction).abs() < 4.0 * sigma + 0.005,
            "drawn fraction {} vs configured {}",
            drawn,
            fraction
        );
    }

    #[test]
    fn mean_bytes_matches_the_lattice_expectation(
        pct in 0u32..=100,
    ) {
        let fraction = f64::from(pct) / 100.0;
        let mix = SizeMix::new(fraction, 1 << 20, 1 << 10);
        let expect = fraction * f64::from(1u32 << 20) + (1.0 - fraction) * f64::from(1u32 << 10);
        prop_assert!((mix.mean_bytes() - expect).abs() < 1e-6);
    }
}

/// The Poisson aggregate-rate contract outside the macro: the sample mean
/// of the gaps tracks `1 / (hosts × rate)` on a fixed stream.
#[test]
fn aggregate_rate_tracks_hosts_times_rate() {
    let p = DemandProfile::new(2.0, ArrivalProcess::Poisson, SizeMix::datacenter());
    let mut rng = StdRng::seed_from_u64(11);
    let n = 20_000;
    let total_ms: f64 = (0..n)
        .map(|_| p.sample_interarrival(250, &mut rng).as_millis_f64())
        .sum();
    let mean = total_ms / f64::from(n);
    let expect = 1000.0 / (2.0 * 250.0); // 2 ms
    assert!(
        (mean / expect - 1.0).abs() < 0.05,
        "mean gap {mean} ms vs expected {expect} ms"
    );
}
