//! Deterministic random numbers and the distributions the workload
//! generators need.
//!
//! Everything is implemented from first principles so the kernel has zero
//! external dependencies: the uniform source is xoshiro256++ (the same
//! generator family `rand`'s `SmallRng` uses on 64-bit targets) seeded via
//! SplitMix64, and the non-uniform distributions (exponential, normal,
//! lognormal) are built on it — inverse-transform sampling for the
//! exponential, Box–Muller for the normal, and exp(normal) for the
//! lognormal.
//!
//! # Deferred jitter
//!
//! A Box–Muller pair costs a logarithm, a square root, a sine and a
//! cosine, and a simulator that jitters every bubble mostly needs only to
//! know that the jittered bubble still fits. [`DeterministicRng::jitter_deferred`]
//! therefore draws a jitter factor exactly when and as
//! [`jitter`](DeterministicRng::jitter) would — the same uniforms, the
//! same pair caching — but returns a [`Jitter`] holding the pair's two
//! uniforms instead of its value. The pending second half of a pair is
//! kept as uniforms too, whichever way it was drawn. [`Jitter::value`] and
//! the eager [`normal`](DeterministicRng::normal) evaluate through one
//! Box–Muller function, so a deferred value is bit-identical to the eager
//! one whenever (or whether) it is evaluated.
//!
//! [`Jitter::bounds`] brackets the value with no transcendental call. The
//! radius `r = √(−2 ln u₁)` is at most `√(1/u₁ − u₁)`, because
//! `1/u − u + 2 ln u` is non-increasing on (0, 1] (its derivative is
//! `−(1/u − 1)²`) and zero at 1. The angle `2πu₂` lies in one of 16
//! equal sectors of the circle, and a literal table holds the range of
//! cos and sin over each. Both carry a small margin that covers every
//! floating-point rounding between the bound and the evaluated value.
//!
//! Two consecutive deferred draws at one `cv` whose first starts a fresh
//! pair are its cosine and sine halves, `1 + cv·r·(cos θ, sin θ)` before
//! clipping, so their joint deviation has length `cv·r` at every angle.
//! [`Jitter::pair_within`] bounds that length with the same radius bound
//! and no angle at all, written as `(1 − u₁)(1 + u₁)·cv²·R² ≤ s²·u₁` so it
//! takes neither a division nor a square root.

use std::f64::consts::FRAC_1_SQRT_2;

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
    /// The uniforms `(u1, u2)` of the last Box–Muller pair, whose sine
    /// half is the next normal variate.
    spare_pair: Option<(f64, f64)>,
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        DeterministicRng {
            inner: Xoshiro256PlusPlus::seed_from_u64(seed),
            spare_pair: None,
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
        assert_std_dev(std_dev);
        mean + std_dev * self.next_half().value()
    }

    /// The next half of a Box–Muller pair, unevaluated: the cached sine
    /// half if there is one, else the cosine half of a fresh pair whose
    /// sine half is cached.
    #[inline]
    fn next_half(&mut self) -> Half {
        match self.spare_pair.take() {
            Some((u1, u2)) => Half { u1, u2, sine: true },
            None => {
                let u1: f64 = 1.0 - self.inner.next_f64(); // (0, 1]: avoid ln(0)
                let u2: f64 = self.inner.next_f64();
                self.spare_pair = Some((u1, u2));
                Half {
                    u1,
                    u2,
                    sine: false,
                }
            }
        }
    }

    /// Lognormal sample: `exp(N(mu, sigma))`. `mu`/`sigma` are the
    /// parameters of the underlying normal (natural-log scale), matching
    /// the convention used for GPU-hour job-size distributions in cluster
    /// trace studies.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Multiplicative jitter `max(0, N(1, cv))`, used to perturb profiled
    /// durations in the fine-grained "physical" simulator. `cv` is the
    /// coefficient of variation. A `cv` of exactly zero is deterministic
    /// and consumes no randomness (mirroring the
    /// [`exponential_duration`](Self::exponential_duration) `MAX`-mean
    /// convention), so jitter-free fidelity sweeps leave unrelated streams
    /// untouched — and a jitter-free run is recognizably quiescent for
    /// steady-state fast-forward.
    ///
    /// # Panics
    ///
    /// Panics if `cv` is negative or non-finite.
    pub fn jitter(&mut self, cv: f64) -> f64 {
        self.jitter_deferred(cv).value()
    }

    /// The next [`jitter`](Self::jitter) factor, drawn now and evaluated
    /// later, or never: it consumes exactly the randomness `jitter(cv)`
    /// would, and [`Jitter::value`] is bit-identical to what it would
    /// have returned.
    ///
    /// # Panics
    ///
    /// Panics if `cv` is negative or non-finite.
    #[inline]
    pub fn jitter_deferred(&mut self, cv: f64) -> Jitter {
        if cv == 0.0 {
            return Jitter::ONE;
        }
        assert_std_dev(cv);
        Jitter {
            cv,
            half: self.next_half(),
        }
    }

    /// An opaque fingerprint of the generator's full state: the
    /// xoshiro256++ words, whether a Box–Muller spare is cached, and the
    /// raw bits of that spare's two uniforms. Two generators with equal
    /// fingerprints produce identical future streams; a fingerprint that
    /// changed between two observation points proves randomness was
    /// consumed in between. Steady-state detection uses this to recognize
    /// stochastically quiescent stretches of a simulation.
    ///
    /// The spare enters as its uniforms, not its value, so taking a
    /// fingerprint evaluates no logarithm or sine. Nothing is lost: the
    /// uniforms determine the value, and a spare taken without a fresh
    /// draw clears the presence word.
    pub fn state_fingerprint(&self) -> [u64; 7] {
        let (u1, u2) = self.spare_pair.unwrap_or((0.0, 0.0));
        [
            self.inner.s[0],
            self.inner.s[1],
            self.inner.s[2],
            self.inner.s[3],
            self.spare_pair.is_some() as u64,
            u1.to_bits(),
            u2.to_bits(),
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
}

fn assert_std_dev(std_dev: f64) {
    assert!(
        std_dev.is_finite() && std_dev >= 0.0,
        "normal std_dev must be non-negative, got {std_dev}"
    );
}

/// One standard-normal variate as the uniforms of its Box–Muller pair
/// and the half of the pair it is.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Half {
    /// In (0, 1].
    u1: f64,
    /// In [0, 1).
    u2: f64,
    sine: bool,
}

impl Half {
    /// The Box–Muller transform: `√(−2 ln u1)` times the cosine or sine of
    /// `2π u2`. The one evaluation every normal variate goes through.
    fn value(self) -> f64 {
        let r = (-2.0 * self.u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * self.u2;
        if self.sine {
            r * theta.sin()
        } else {
            r * theta.cos()
        }
    }

    /// `[lo, hi]` containing [`value`](Self::value), from a square root
    /// and a table lookup. See the module docs for why it holds.
    fn bounds(self) -> (f64, f64) {
        let r_hi = (1.0 / self.u1 - self.u1).sqrt() * RADIUS_MARGIN;
        // u2 < 1, and scaling by a power of two is exact: 0..SECTORS.
        let sector = (self.u2 * SECTORS as f64) as usize;
        let (lo, hi) = if self.sine {
            SIN_RANGE[sector]
        } else {
            COS_RANGE[sector]
        };
        // r ∈ [0, r_hi]: the extreme products sit at r = r_hi for the side
        // of zero the sector reaches, and at r = 0 otherwise.
        (
            r_hi * (lo - CIRCLE_MARGIN).min(0.0),
            r_hi * (hi + CIRCLE_MARGIN).max(0.0),
        )
    }
}

/// Equal sectors of the circle [`Half::bounds`] resolves the angle to.
const SECTORS: usize = 16;

/// Relative widening of the radius bound `√(1/u1 − u1)`. Near `u1 = 1`
/// the bound's subtraction cancels, and its rounding can reach a few
/// parts in 10⁹ of the difference; the margin covers it by two orders of
/// magnitude.
const RADIUS_MARGIN: f64 = 1.0 + 1.0 / 1_048_576.0;

/// Relative widening of [`Jitter::pair_within`]'s squared radius bound.
/// The evaluated radius and the test's own products round by a few parts
/// in 2⁵³, and the cosine and sine of the rounded angle leave the unit
/// circle by about as much; the margin covers them by ten orders of
/// magnitude. Near `u1 = 1` the bound's excess over `−2 ln u1` is about
/// `(1 − u1)²/6` of it, far below any rounding, so the margin alone
/// decides there.
const PAIR_MARGIN: f64 = 1.0 + 1.0 / 65_536.0;

/// Absolute widening of each sector's cos and sin range. The evaluated
/// angle `2π u2` is rounded, so its cosine or sine may leave the exact
/// sector range by about 10⁻¹⁵.
const CIRCLE_MARGIN: f64 = 1.0 / 1_048_576.0;

/// `cos(π/8)`, equal to `sin(3π/8)`.
const COS_PI_8: f64 = 0.923_879_532_511_286_7;

/// `cos(3π/8)`, equal to `sin(π/8)`.
const COS_3PI_8: f64 = 0.382_683_432_365_089_8;

/// `(min, max)` of `cos θ` over sector `i`, `θ ∈ [2πi/16, 2π(i+1)/16]`.
/// Each sector lies within one quadrant, so both extremes sit at its
/// edges.
const COS_RANGE: [(f64, f64); SECTORS] = [
    (COS_PI_8, 1.0),
    (FRAC_1_SQRT_2, COS_PI_8),
    (COS_3PI_8, FRAC_1_SQRT_2),
    (0.0, COS_3PI_8),
    (-COS_3PI_8, 0.0),
    (-FRAC_1_SQRT_2, -COS_3PI_8),
    (-COS_PI_8, -FRAC_1_SQRT_2),
    (-1.0, -COS_PI_8),
    (-1.0, -COS_PI_8),
    (-COS_PI_8, -FRAC_1_SQRT_2),
    (-FRAC_1_SQRT_2, -COS_3PI_8),
    (-COS_3PI_8, 0.0),
    (0.0, COS_3PI_8),
    (COS_3PI_8, FRAC_1_SQRT_2),
    (FRAC_1_SQRT_2, COS_PI_8),
    (COS_PI_8, 1.0),
];

/// `(min, max)` of `sin θ` over sector `i`, as [`COS_RANGE`].
const SIN_RANGE: [(f64, f64); SECTORS] = [
    (0.0, COS_3PI_8),
    (COS_3PI_8, FRAC_1_SQRT_2),
    (FRAC_1_SQRT_2, COS_PI_8),
    (COS_PI_8, 1.0),
    (COS_PI_8, 1.0),
    (FRAC_1_SQRT_2, COS_PI_8),
    (COS_3PI_8, FRAC_1_SQRT_2),
    (0.0, COS_3PI_8),
    (-COS_3PI_8, 0.0),
    (-FRAC_1_SQRT_2, -COS_3PI_8),
    (-COS_PI_8, -FRAC_1_SQRT_2),
    (-1.0, -COS_PI_8),
    (-1.0, -COS_PI_8),
    (-COS_PI_8, -FRAC_1_SQRT_2),
    (-FRAC_1_SQRT_2, -COS_3PI_8),
    (-COS_3PI_8, 0.0),
];

/// A [`jitter`](DeterministicRng::jitter) factor `max(0, 1 + cv·z)` whose
/// standard-normal `z` is drawn but not yet evaluated; see
/// [`DeterministicRng::jitter_deferred`].
///
/// # Example
///
/// ```
/// use pipefill_sim_core::rng::DeterministicRng;
///
/// let mut eager = DeterministicRng::seed_from(9);
/// let mut deferred = DeterministicRng::seed_from(9);
/// let j = deferred.jitter_deferred(0.08);
/// let (lo, hi) = j.bounds();
/// let v = eager.jitter(0.08);
/// assert_eq!(j.value(), v);
/// assert!(lo <= v && v <= hi);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    cv: f64,
    half: Half,
}

impl Jitter {
    /// The factor of a zero `cv`: exactly 1, drawn from nothing.
    const ONE: Jitter = Jitter {
        cv: 0.0,
        half: Half {
            u1: 1.0,
            u2: 0.0,
            sine: false,
        },
    };

    /// The factor, bit-identical to the eager
    /// [`jitter`](DeterministicRng::jitter) draw it stands for.
    pub fn value(self) -> f64 {
        if self.cv == 0.0 {
            return 1.0;
        }
        (1.0 + self.cv * self.half.value()).max(0.0)
    }

    /// `[lo, hi]` with `lo <= self.value() <= hi`, computed with no
    /// logarithm or trigonometric call. Exact (`[1, 1]`) for a zero `cv`;
    /// otherwise it always contains 1, is about `cv` wide for a typical
    /// draw and wider in the tails.
    pub fn bounds(self) -> (f64, f64) {
        if self.cv == 0.0 {
            return (1.0, 1.0);
        }
        let (z_lo, z_hi) = self.half.bounds();
        (
            (1.0 + self.cv * z_lo).max(0.0),
            (1.0 + self.cv * z_hi).max(0.0),
        )
    }

    /// Whether `self` and `sine` are the cosine and sine halves of one
    /// Box–Muller pair drawn at one `cv`, and the pair's radius `r`, as
    /// [`value`](Self::value) evaluates it, certainly has
    /// `cv·r·√reach_sq ≤ slack`. Such a pair's values `x` (cosine) and `y`
    /// (sine) are `1 + cv·r·(cos θ, sin θ)` before clipping. So when
    /// `slack² < reach_sq`, `cv·r < 1`, neither clips, and by
    /// Cauchy–Schwarz `a·(x − 1) + b·(y − 1) ≤ slack` for every
    /// `a² + b² ≤ reach_sq` at every angle, up to the values' last-bit
    /// roundings. No logarithm, trigonometric call, square root or
    /// division: the radius bound of [`bounds`](Self::bounds), squared and
    /// multiplied through by `u1`. A factor of zero `cv` is never a sine
    /// half, and `false` is always a safe answer.
    ///
    /// ```
    /// use pipefill_sim_core::rng::DeterministicRng;
    ///
    /// let mut rng = DeterministicRng::seed_from(3);
    /// let (cos, sin) = (rng.jitter_deferred(0.08), rng.jitter_deferred(0.08));
    /// // The pair's deviation is under 1 along every unit direction.
    /// assert!(cos.pair_within(sin, 1.0, 1.0));
    /// // Not a pair: the next draw starts a fresh one.
    /// assert!(!sin.pair_within(rng.jitter_deferred(0.08), 1.0, 1.0));
    /// ```
    #[inline]
    pub fn pair_within(self, sine: Jitter, reach_sq: f64, slack: f64) -> bool {
        let (c, s) = (self.half, sine.half);
        let paired = !c.sine && s.sine && c.u1 == s.u1 && c.u2 == s.u2 && self.cv == sine.cv;
        // r² ≤ 1/u1 − u1 = (1 − u1)(1 + u1)/u1, with u1 moved across.
        paired
            && slack > 0.0
            && (1.0 - c.u1) * (1.0 + c.u1) * (self.cv * self.cv) * reach_sq * PAIR_MARGIN
                <= slack * slack * c.u1
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
            assert_eq!(a.exponential(5.0), b.exponential(5.0));
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

    /// A cached spare enters the fingerprint as the raw bits of its two
    /// uniforms, behind a presence word; taking it zeroes all three.
    #[test]
    fn state_fingerprint_holds_the_spare_uniforms() {
        let mut a = DeterministicRng::seed_from(34);
        let mut draws = a.clone();
        let _ = a.normal(0.0, 1.0);
        let u1 = 1.0 - draws.inner.next_f64();
        let u2 = draws.inner.next_f64();
        let fp = a.state_fingerprint();
        assert_eq!(fp[..4], draws.inner.s[..]);
        assert_eq!(fp[4..], [1, u1.to_bits(), u2.to_bits()]);
        let _ = a.normal(0.0, 1.0);
        assert_eq!(a.state_fingerprint()[4..], [0, 0, 0]);
    }

    /// The smallest, a middling and the largest `u1` the generator yields
    /// (at 1 the radius is `√(−0.0) = −0.0`), at every sector edge and
    /// just below it, for both halves of the pair.
    #[test]
    fn bounds_hold_at_the_extremes_and_every_sector_edge() {
        let below = |u: f64| f64::from_bits(u.to_bits() - 1);
        let mut angles = vec![0.0, below(1.0)];
        for i in 1..SECTORS {
            let edge = i as f64 / SECTORS as f64;
            angles.extend([edge, below(edge)]);
        }
        for u1 in [f64::EPSILON / 2.0, 0.5, 1.0] {
            for &u2 in &angles {
                for sine in [false, true] {
                    let half = Half { u1, u2, sine };
                    let z = half.value();
                    let (lo, hi) = half.bounds();
                    assert!(
                        lo <= z && z <= hi,
                        "u1 {u1:e}, u2 {u2}, sine {sine}: {z:e} outside [{lo:e}, {hi:e}]"
                    );
                    for cv in [1e-6, 0.08, 1.0, 8.0] {
                        let j = Jitter { cv, half };
                        let (lo, hi) = j.bounds();
                        let v = j.value();
                        assert!(lo <= v && v <= hi, "cv {cv}: {v} outside [{lo}, {hi}]");
                    }
                }
            }
        }
        let r_at_one = Half {
            u1: 1.0,
            u2: 0.0,
            sine: false,
        };
        assert_eq!(r_at_one.value().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r_at_one.bounds(), (-0.0, 0.0));
    }

    /// Near `u1 = 1` the bound `√(1/u1 − u1)` and the radius both shrink to
    /// nothing, and the bound's subtraction cancels: the radius must stay
    /// under it for every `u1` in the last 10⁵ steps below 1, and on a
    /// geometric sweep down to 2⁻⁵³.
    #[test]
    fn radius_bound_holds_where_it_is_tightest() {
        let radius = |u1: f64| (-2.0 * u1.ln()).sqrt();
        let bound = |u1: f64| {
            Half {
                u1,
                u2: 0.0,
                sine: false,
            }
            .bounds()
            .1
        };
        for k in 1..100_000u64 {
            let u1 = 1.0 - k as f64 * f64::EPSILON / 2.0;
            assert!(radius(u1) <= bound(u1), "u1 = 1 - {k}·2⁻⁵³");
        }
        let mut u1 = 1.0f64;
        while u1 >= f64::EPSILON / 2.0 {
            assert!(radius(u1) <= bound(u1), "u1 = {u1:e}");
            u1 *= 0.999;
        }
    }

    /// The cosine and sine halves of the pair drawn at `(u1, u2)`.
    fn pair(u1: f64, u2: f64, cv: f64) -> (Jitter, Jitter) {
        let cos = Half {
            u1,
            u2,
            sine: false,
        };
        let sin = Half { sine: true, ..cos };
        (Jitter { cv, half: cos }, Jitter { cv, half: sin })
    }

    /// `pair_within`'s radius algebra against the radius as std evaluates
    /// it, at one `u1`: the squared bound with its margin is at least
    /// `−2 ln u1`; a slack just under `cv·r·√reach_sq` is never cleared;
    /// and one 2⁻¹⁰ over the bound itself always is, so the test is not
    /// vacuous.
    fn check_pair_radius(u1: f64, u2: f64) {
        let r_sq = -2.0 * u1.ln();
        assert!(
            (1.0 - u1) * (1.0 + u1) / u1 * PAIR_MARGIN >= r_sq,
            "u1 {u1:e}: bound under {r_sq:e}"
        );
        let r = r_sq.sqrt();
        for cv in [1e-6, 0.08, 1.0, 2.0] {
            let (cos, sin) = pair(u1, u2, cv);
            for reach_sq in [1.0f64, 3.0, 1e12] {
                let reach = cv * r * reach_sq.sqrt();
                let under = reach * (1.0 - f64::EPSILON);
                assert!(
                    !cos.pair_within(sin, reach_sq, under),
                    "u1 {u1:e}, cv {cv}, reach² {reach_sq:e}: cleared {under:e} < {reach:e}"
                );
                let over = cv * ((1.0 / u1 - u1) * reach_sq).sqrt() * (1.0 + 1.0 / 1024.0);
                assert!(
                    u1 == 1.0 || cos.pair_within(sin, reach_sq, over),
                    "u1 {u1:e}, cv {cv}, reach² {reach_sq:e}: missed {over:e}"
                );
            }
            // The values' deviation has the radius as its length, up to
            // their roundings, whenever neither clips.
            let (x, y) = (cos.value() - 1.0, sin.value() - 1.0);
            if cv * r < 1.0 {
                let len = (x * x + y * y).sqrt();
                assert!(
                    len <= cv * r * (1.0 + 1e-12) + 1e-15,
                    "u1 {u1:e}, u2 {u2}, cv {cv}: deviation {len:e} over {:e}",
                    cv * r
                );
            }
        }
    }

    /// The radius algebra at the smallest, a middling and the largest `u1`
    /// the generator yields, at every sector edge and just below it.
    #[test]
    fn pair_radius_holds_at_the_extremes_and_every_sector_edge() {
        let below = |u: f64| f64::from_bits(u.to_bits() - 1);
        let mut angles = vec![0.0, below(1.0)];
        for i in 1..SECTORS {
            let edge = i as f64 / SECTORS as f64;
            angles.extend([edge, below(edge)]);
        }
        for u1 in [f64::EPSILON / 2.0, 0.5, below(1.0), 1.0] {
            for &u2 in &angles {
                check_pair_radius(u1, u2);
            }
        }
        // At u1 = 1 the radius is zero: any positive slack clears.
        let (cos, sin) = pair(1.0, 0.25, 0.08);
        assert!(cos.pair_within(sin, 1.0, f64::MIN_POSITIVE));
        assert!(!cos.pair_within(sin, 1.0, 0.0), "zero slack");
    }

    /// The radius algebra over the last 10⁵ steps below 1, where the bound
    /// cancels, and on a geometric sweep down to 2⁻⁵³.
    #[test]
    fn pair_radius_holds_on_a_dense_sweep() {
        for k in 1..100_000u64 {
            check_pair_radius(1.0 - k as f64 * f64::EPSILON / 2.0, (k % 97) as f64 / 97.0);
        }
        let mut u1 = 1.0f64;
        while u1 >= f64::EPSILON / 2.0 {
            check_pair_radius(u1, u1.fract());
            u1 *= 0.999;
        }
    }

    /// Only a cosine half followed by the sine half of the same pair, at
    /// one `cv`, is a pair: not halves split by a memory-jitter draw, not
    /// the sine half before the next pair's cosine, not zero-`cv` factors,
    /// and not one pair's halves drawn at two `cv`s. A huge slack leaves
    /// the pairing alone to decide.
    #[test]
    fn pair_within_takes_only_one_pairs_halves_at_one_cv() {
        let paired = |a: Jitter, b: Jitter| a.pair_within(b, 1.0, 1e100);
        let mut rng = DeterministicRng::seed_from(43);
        for bubble in 0..2_000 {
            // A memory-jitter draw ahead of every third bubble.
            if bubble % 3 == 0 {
                let _ = rng.jitter(0.1);
            }
            let fresh = rng.spare_pair.is_none();
            let (window, used) = (rng.jitter_deferred(0.3), rng.jitter_deferred(0.3));
            assert_eq!(paired(window, used), fresh, "bubble {bubble}");
            assert!(!paired(used, window), "bubble {bubble}: halves swapped");
        }
        let one = rng.jitter_deferred(0.0);
        assert_eq!(one, Jitter::ONE);
        assert!(!paired(one, one));
        if rng.spare_pair.is_some() {
            let _ = rng.normal(0.0, 1.0);
        }
        let (cos, sin) = (rng.jitter_deferred(0.08), rng.jitter_deferred(0.08));
        assert!(paired(cos, sin));
        assert!(!paired(one, sin) && !paired(cos, one));
        let (cos, sin) = (rng.jitter_deferred(0.08), rng.jitter_deferred(0.3));
        assert_eq!((cos.half.u1, cos.half.u2), (sin.half.u1, sin.half.u2));
        assert!(!paired(cos, sin), "two cvs");
    }

    /// The literal sector tables hold the range of cos and sin over each
    /// sector, to the last bit the edges' evaluation allows.
    #[test]
    fn sector_tables_match_the_edges() {
        let edge = |i: usize| 2.0 * std::f64::consts::PI * i as f64 / SECTORS as f64;
        for (i, (&cos, &sin)) in COS_RANGE.iter().zip(&SIN_RANGE).enumerate() {
            let (a, b) = (edge(i), edge(i + 1));
            for ((lo, hi), (x, y)) in [(cos, (a.cos(), b.cos())), (sin, (a.sin(), b.sin()))] {
                assert!(
                    (lo - x.min(y)).abs() < 1e-15,
                    "sector {i}: min {lo} vs {}",
                    x.min(y)
                );
                assert!(
                    (hi - x.max(y)).abs() < 1e-15,
                    "sector {i}: max {hi} vs {}",
                    x.max(y)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "std_dev must be non-negative")]
    fn deferred_jitter_rejects_a_negative_cv() {
        let mut rng = DeterministicRng::seed_from(16);
        let _ = rng.jitter_deferred(-0.1);
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
