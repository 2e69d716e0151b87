//! Deterministic random numbers and the distributions the workload
//! generators need.
//!
//! Everything is implemented from first principles so the kernel has zero
//! external dependencies: the uniform source is xoshiro256++ (the same
//! generator family `rand`'s `SmallRng` uses on 64-bit targets) seeded via
//! SplitMix64, and the non-uniform distributions (exponential, normal,
//! lognormal, Poisson) are built on it — inverse-transform sampling for the
//! exponential, Box–Muller for the normal, exp(normal) for the lognormal,
//! and Knuth's product method (with a normal approximation for large rates)
//! for the Poisson.

/// xoshiro256++ by Blackman & Vigna: 256-bit state, full 2^256−1 period,
/// excellent statistical quality for simulation workloads.
#[derive(Debug, Clone)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Expands a 64-bit seed into the 256-bit state with SplitMix64, as
    /// recommended by the generator's authors (identical to how `rand`
    /// seeds `SmallRng::seed_from_u64`).
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Xoshiro256PlusPlus {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A seeded random source producing the distributions used across the
/// PipeFill reproduction (trace inter-arrivals, job sizes, execution-time
/// jitter).
///
/// Two generators constructed with the same seed produce identical
/// streams, which is what makes every experiment re-runnable to the digit
/// from its seed.
///
/// # Example
///
/// ```
/// use pipefill_sim_core::rng::DeterministicRng;
///
/// let mut a = DeterministicRng::seed_from(42);
/// let mut b = DeterministicRng::seed_from(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    inner: Xoshiro256PlusPlus,
    /// Spare normal variate from the last Box–Muller pair.
    spare_normal: Option<f64>,
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        DeterministicRng {
            inner: Xoshiro256PlusPlus::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// component its own stream so adding draws in one component does not
    /// perturb another.
    pub fn fork(&mut self) -> Self {
        DeterministicRng::seed_from(self.inner.next_u64())
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid uniform range [{lo}, {hi})"
        );
        let v = lo + self.inner.next_f64() * (hi - lo);
        // Rounding at the top of a huge range can land on `hi`; fold the
        // (measure-zero) boundary back into the half-open interval.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "invalid uniform range [{lo}, {hi})");
        lo + (self.inner.next_u64() % (hi - lo) as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.next_f64() < p
    }

    /// Exponential sample with the given `rate` (mean `1/rate`), via
    /// inverse-transform sampling.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive, got {rate}"
        );
        // u in (0, 1]: avoid ln(0).
        let u: f64 = 1.0 - self.inner.next_f64();
        -u.ln() / rate
    }

    /// Standard-normal-based sample with mean `mean` and standard deviation
    /// `std_dev`, via the Box–Muller transform (pairs are cached).
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or non-finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "normal std_dev must be non-negative, got {std_dev}"
        );
        let z = match self.spare_normal.take() {
            Some(z) => z,
            None => {
                // Box–Muller: two uniforms -> two independent N(0,1).
                let u1: f64 = 1.0 - self.inner.next_f64(); // (0, 1]
                let u2: f64 = self.inner.next_f64();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                self.spare_normal = Some(r * theta.sin());
                r * theta.cos()
            }
        };
        mean + std_dev * z
    }

    /// Lognormal sample: `exp(N(mu, sigma))`. `mu`/`sigma` are the
    /// parameters of the underlying normal (natural-log scale), matching
    /// the convention used for GPU-hour job-size distributions in cluster
    /// trace studies.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Poisson sample with rate `lambda`. Uses Knuth's product method for
    /// small rates and a rounded normal approximation for `lambda > 64`
    /// (where the approximation error is far below trace noise).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "poisson rate must be non-negative, got {lambda}"
        );
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 64.0 {
            let x = self.normal(lambda, lambda.sqrt());
            return x.max(0.0).round() as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.inner.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Multiplicative jitter `max(0, N(1, cv))`, used to perturb profiled
    /// durations in the fine-grained "physical" simulator. `cv` is the
    /// coefficient of variation. A `cv` of exactly zero is deterministic
    /// and consumes no randomness (mirroring the
    /// [`exponential_duration`](Self::exponential_duration) `MAX`-mean
    /// convention), so jitter-free fidelity sweeps leave unrelated streams
    /// untouched — and a jitter-free run is recognizably quiescent for
    /// steady-state fast-forward.
    pub fn jitter(&mut self, cv: f64) -> f64 {
        if cv == 0.0 {
            return 1.0;
        }
        self.normal(1.0, cv).max(0.0)
    }

    /// An opaque fingerprint of the generator's full state (xoshiro256++
    /// words plus the cached Box–Muller spare). Two generators with equal
    /// fingerprints produce identical future streams; a fingerprint that
    /// changed between two observation points proves randomness was
    /// consumed in between. Steady-state detection uses this to recognize
    /// stochastically quiescent stretches of a simulation.
    pub fn state_fingerprint(&self) -> [u64; 6] {
        let spare = self.spare_normal;
        [
            self.inner.s[0],
            self.inner.s[1],
            self.inner.s[2],
            self.inner.s[3],
            spare.is_some() as u64,
            spare.unwrap_or(0.0).to_bits(),
        ]
    }

    /// Exponential waiting time with the given `mean` duration — the
    /// inter-event sample of a Poisson process such as GPU failures with a
    /// mean-time-between-failures. An infinite or `MAX` mean models an
    /// event that never fires and returns [`crate::SimDuration::MAX`]
    /// without consuming randomness (so fidelity sweeps over the mean do
    /// not perturb unrelated streams).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    pub fn exponential_duration(&mut self, mean: crate::SimDuration) -> crate::SimDuration {
        assert!(
            !mean.is_zero(),
            "exponential_duration needs a positive mean"
        );
        if mean == crate::SimDuration::MAX {
            return crate::SimDuration::MAX;
        }
        let secs = self.exponential(1.0 / mean.as_secs_f64());
        if secs.is_finite() && secs < (u64::MAX / 2) as f64 * 1e-9 {
            crate::SimDuration::from_secs_f64(secs)
        } else {
            crate::SimDuration::MAX
        }
    }

    /// Picks an index according to `weights` (need not be normalized).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_index needs at least one weight"
        );
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weights must sum to a positive value, got {total}"
        );
        let mut x = self.uniform(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::seed_from(7);
        let mut b = DeterministicRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 10.0), b.uniform(0.0, 10.0));
            assert_eq!(a.poisson(5.0), b.poisson(5.0));
        }
    }

    #[test]
    fn forked_streams_diverge() {
        let mut parent = DeterministicRng::seed_from(7);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let s1: Vec<f64> = (0..10).map(|_| c1.uniform(0.0, 1.0)).collect();
        let s2: Vec<f64> = (0..10).map(|_| c2.uniform(0.0, 1.0)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = DeterministicRng::seed_from(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = DeterministicRng::seed_from(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = DeterministicRng::seed_from(3);
        for _ in 0..1000 {
            assert!(rng.lognormal(0.0, 2.0) > 0.0);
        }
    }

    #[test]
    fn poisson_mean_small_and_large_lambda() {
        let mut rng = DeterministicRng::seed_from(4);
        for &lambda in &[0.5, 8.0, 200.0] {
            let n = 10_000;
            let mean: f64 = (0..n).map(|_| rng.poisson(lambda) as f64).sum::<f64>() / n as f64;
            let tol = 3.0 * (lambda / n as f64).sqrt() + 0.05;
            assert!(
                (mean - lambda).abs() < tol,
                "lambda={lambda} mean={mean} tol={tol}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = DeterministicRng::seed_from(5);
        let weights = [1.0, 3.0];
        let n = 20_000;
        let ones = (0..n).filter(|_| rng.weighted_index(&weights) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut rng = DeterministicRng::seed_from(6);
        assert_eq!(rng.weighted_index(&[5.0]), 0);
        // Zero-weight entries are never chosen.
        for _ in 0..100 {
            assert_eq!(rng.weighted_index(&[0.0, 1.0, 0.0]), 1);
        }
    }

    #[test]
    fn jitter_never_negative() {
        let mut rng = DeterministicRng::seed_from(8);
        for _ in 0..10_000 {
            assert!(rng.jitter(0.5) >= 0.0);
        }
    }

    #[test]
    fn zero_cv_jitter_is_deterministic_and_consumes_nothing() {
        let mut a = DeterministicRng::seed_from(8);
        let mut b = DeterministicRng::seed_from(8);
        assert_eq!(a.jitter(0.0), 1.0);
        // The cv=0 path consumes no randomness: both streams stay aligned.
        assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
    }

    #[test]
    fn state_fingerprint_tracks_consumption() {
        let mut a = DeterministicRng::seed_from(21);
        let b = DeterministicRng::seed_from(21);
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        let fp = a.state_fingerprint();
        let _ = a.jitter(0.0); // no consumption
        assert_eq!(a.state_fingerprint(), fp);
        let _ = a.uniform(0.0, 1.0);
        assert_ne!(a.state_fingerprint(), fp);
        // The Box–Muller spare is part of the state: the first normal
        // changes it, the second consumes it.
        let fp = a.state_fingerprint();
        let _ = a.normal(0.0, 1.0);
        let after_first = a.state_fingerprint();
        assert_ne!(after_first, fp);
        let _ = a.normal(0.0, 1.0);
        assert_ne!(a.state_fingerprint(), after_first);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DeterministicRng::seed_from(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn uniform_rejects_empty_range() {
        let mut rng = DeterministicRng::seed_from(10);
        let _ = rng.uniform(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponential rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = DeterministicRng::seed_from(11);
        let _ = rng.exponential(0.0);
    }

    #[test]
    fn exponential_duration_mean_matches() {
        use crate::SimDuration;
        let mut rng = DeterministicRng::seed_from(12);
        let mean = SimDuration::from_secs(3600);
        let n = 20_000;
        let avg: f64 = (0..n)
            .map(|_| rng.exponential_duration(mean).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((avg - 3600.0).abs() < 60.0, "avg={avg}");
    }

    #[test]
    fn exponential_duration_infinite_mean_never_fires() {
        use crate::SimDuration;
        let mut a = DeterministicRng::seed_from(13);
        let mut b = DeterministicRng::seed_from(13);
        assert_eq!(a.exponential_duration(SimDuration::MAX), SimDuration::MAX);
        // The MAX path consumes no randomness: both streams stay aligned.
        assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "positive mean")]
    fn exponential_duration_rejects_zero_mean() {
        let mut rng = DeterministicRng::seed_from(14);
        let _ = rng.exponential_duration(crate::SimDuration::ZERO);
    }
}
