//! Deterministic, dependency-free random number generation.
//!
//! The workspace's reproduction claims rest on *exact* replay: the same
//! seed must yield the same event trace on every machine, forever. That
//! rules out external RNG crates (whose algorithms and streaming rules can
//! change across versions) and anything seeded from the environment. This
//! crate owns the whole stack:
//!
//! * [`splitmix64`] — the seeding/stream-derivation mixer. Every `u64`
//!   seed is expanded through it into xoshiro's 256-bit state, following
//!   the initialization recommended by Blackman & Vigna.
//! * [`Xoshiro256StarStar`] — the core generator (xoshiro256\*\*), a
//!   public-domain algorithm with a 2²⁵⁶−1 period and excellent
//!   statistical quality at four words of state.
//! * [`Rng`] — the trait the rest of the workspace programs against:
//!   `next_u64`, `gen_range`, `gen_bool`, `fill_bytes`, `gen`.
//! * Stream support: [`Xoshiro256StarStar::fork`] splits off a child
//!   generator (advancing the parent), and
//!   [`Xoshiro256StarStar::stream`] derives the `id`-th independent
//!   stream without mutating the parent — used for per-host RNGs.
//!
//! All methods are `no_std`-shaped (no allocation, no syscalls, no time,
//! no entropy source): determinism is not an option here, it is the only
//! mode.

use std::ops::Range;

/// One step of the SplitMix64 sequence: advances `*state` and returns the
/// next output. Used to expand small seeds into full generator state and
/// to derive independent streams.
///
/// Constants are Sebastiano Vigna's reference implementation (public
/// domain).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The minimal random-generation interface the workspace uses.
///
/// Only [`Rng::next_u64`] is required; everything else is derived from it
/// with fixed, documented transforms so that two implementations with the
/// same `next_u64` sequence produce identical derived values.
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits (the high half of
    /// [`Rng::next_u64`], which for xoshiro256\*\* carries the
    /// best-mixed bits).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p <= 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        // Compare against a 53-bit uniform in [0, 1); exact for p = 0 / 1.
        f64_from_bits53(self.next_u64()) < p
    }

    /// Fills `dest` with random bytes (little-endian words of
    /// [`Rng::next_u64`]).
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Returns a uniformly random value of a primitive type.
    fn gen<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Returns a uniform sample from the half-open range `lo..hi`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T: UniformSample>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }
}

// Allow `&mut R` and trait objects to be used where `R: Rng` is expected.
impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Converts 64 random bits into a uniform `f64` in `[0, 1)` using the top
/// 53 bits (the full precision of an f64 mantissa).
fn f64_from_bits53(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types that can be drawn uniformly over their full domain via
/// [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        f64_from_bits53(rng.next_u64())
    }
}

impl<const N: usize> Standard for [u8; N] {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
}

/// Types that can be sampled uniformly from a half-open range via
/// [`Rng::gen_range`].
pub trait UniformSample: Copy + PartialOrd {
    /// Draws a uniform sample from `lo..hi`. Panics if `lo >= hi`.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_uint {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in gen_range");
                let span = (hi - lo) as u64;
                lo + (uniform_u64_below(rng, span) as $t)
            }
        }
    )*};
}
impl_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_sint {
    ($($t:ty as $u:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in gen_range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                lo.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
        }
    )*};
}
impl_uniform_sint!(i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

impl UniformSample for u128 {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range in gen_range");
        let span = hi - lo;
        if span <= u128::from(u64::MAX) {
            lo + u128::from(uniform_u64_below(rng, span as u64))
        } else {
            // Wide ranges: rejection-sample a 128-bit value below span.
            loop {
                let x: u128 = u128::from_rng(rng);
                // Accept with negligible bias by masking to span's bit width.
                let mask = u128::MAX >> span.leading_zeros();
                let x = x & mask;
                if x < span {
                    return lo + x;
                }
            }
        }
    }
}

impl UniformSample for f64 {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range in gen_range");
        let u = f64_from_bits53(rng.next_u64());
        let x = lo + u * (hi - lo);
        // Guard against rounding up to `hi` when the span is huge.
        if x < hi {
            x
        } else {
            lo
        }
    }
}

/// Unbiased uniform draw from `[0, span)` (`span == 0` means the full
/// 64-bit domain) via Lemire's multiply-shift with rejection.
fn uniform_u64_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    // Lemire 2019: multiply a 64-bit draw by span; the high word is the
    // sample, the low word decides rejection of the biased region.
    let threshold = span.wrapping_neg() % span;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(span);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// The workspace's standard generator: xoshiro256\*\* (Blackman & Vigna,
/// public domain).
///
/// State is four 64-bit words, never all zero. Seeding from a `u64` runs
/// SplitMix64 four times, exactly as the reference implementation
/// recommends, so seeds `0, 1, 2, …` give well-decorrelated sequences.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// The default generator alias used across the workspace.
pub type StdRng = Xoshiro256StarStar;

impl Xoshiro256StarStar {
    /// Seeds from a single `u64` by expanding it through SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256StarStar { s }
    }

    /// Constructs from raw state words.
    ///
    /// # Panics
    /// Panics if all four words are zero (the one forbidden state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must be nonzero");
        Xoshiro256StarStar { s }
    }

    /// Splits off an independent child generator, advancing `self`.
    ///
    /// The child is seeded from fresh output of the parent, so repeated
    /// forks yield mutually decorrelated generators while the fork
    /// sequence itself stays fully deterministic.
    pub fn fork(&mut self) -> Self {
        Xoshiro256StarStar::seed_from_u64(self.next_u64())
    }

    /// Derives the `id`-th independent stream *without* advancing `self`.
    ///
    /// Streams are keyed off the current state and the id, so
    /// `rng.stream(a)` and `rng.stream(b)` are decorrelated for `a != b`,
    /// and `rng.stream(a)` is stable for as long as `rng` is not used.
    /// This is the per-host RNG construction: one engine seed, one stream
    /// id per entity.
    pub fn stream(&self, id: u64) -> Self {
        let mut sm = self.s[0] ^ self.s[2].rotate_left(17) ^ id.wrapping_mul(0xa076_1d64_78bd_642f);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256StarStar { s }
    }
}

/// Derives the `id`-th independent run seed from a campaign base seed.
///
/// This is the batch-runner counterpart of [`Xoshiro256StarStar::stream`]:
/// `stream_seed(base, a)` and `stream_seed(base, b)` give decorrelated
/// seeds for `a != b`, and the mapping is a pure function of `(base, id)` —
/// so a campaign's run `k` draws the same randomness no matter which
/// worker thread executes it or in what order runs complete.
pub fn stream_seed(base: u64, id: u64) -> u64 {
    let mut rng = Xoshiro256StarStar::seed_from_u64(base).stream(id);
    rng.next_u64()
}

impl Rng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_matches_reference_vectors() {
        // Reference: xoshiro256** seeded with state {1, 2, 3, 4} produces
        // this prefix (from the public-domain reference implementation).
        let mut rng = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        let expect: [u64; 6] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
        ];
        for (i, &want) in expect.iter().enumerate() {
            assert_eq!(rng.next_u64(), want, "output {i}");
        }
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference sequence for seed 1234567 (Vigna's splitmix64.c).
        let mut s = 1234567u64;
        assert_eq!(splitmix64(&mut s), 6457827717110365317);
        assert_eq!(splitmix64(&mut s), 3203168211198807973);
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let mut r3 = StdRng::seed_from_u64(43);
        let s1: Vec<u64> = (0..8).map(|_| r1.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| r2.next_u64()).collect();
        let s3: Vec<u64> = (0..8).map(|_| r3.next_u64()).collect();
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&y));
            let f = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
            let n = rng.gen_range(1u128..1_000_000_000_000);
            assert!((1..1_000_000_000_000).contains(&n));
        }
    }

    #[test]
    fn gen_range_covers_small_ranges_uniformly() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Expected 10000 each; 4 sigma ≈ 380.
            assert!((9_500..10_500).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((24_000..26_000).contains(&hits), "hits {hits}");
        assert!((0..1000).all(|_| !rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn gen_bool_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen_bool(1.5);
    }

    #[test]
    fn fill_bytes_fills_every_length() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in 0..64 {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 16 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} all zero");
            }
        }
    }

    #[test]
    fn fork_decorrelates_and_stays_deterministic() {
        let mut parent1 = StdRng::seed_from_u64(99);
        let mut parent2 = StdRng::seed_from_u64(99);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        let a: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_eq!(a, b, "same fork sequence must replay");
        let mut d = parent1.fork();
        let c: Vec<u64> = (0..8).map(|_| d.next_u64()).collect();
        assert_ne!(a, c, "successive forks must differ");
    }

    #[test]
    fn streams_are_independent_and_stable() {
        let rng = StdRng::seed_from_u64(5);
        let mut s0a = rng.stream(0);
        let mut s0b = rng.stream(0);
        let mut s1 = rng.stream(1);
        let a: Vec<u64> = (0..8).map(|_| s0a.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| s0b.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        assert_eq!(a, b, "stream(id) must be stable");
        assert_ne!(a, c, "distinct ids must be decorrelated");
    }

    #[test]
    fn stream_seed_is_stable_and_id_sensitive() {
        assert_eq!(stream_seed(7, 0), stream_seed(7, 0), "pure in (base, id)");
        assert_ne!(stream_seed(7, 0), stream_seed(7, 1), "ids decorrelate");
        assert_ne!(stream_seed(7, 0), stream_seed(8, 0), "bases decorrelate");
        // Matches the documented construction exactly.
        let mut manual = StdRng::seed_from_u64(7).stream(3);
        assert_eq!(stream_seed(7, 3), manual.next_u64());
    }

    #[test]
    fn mean_of_uniform_f64_is_centered() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }
}
