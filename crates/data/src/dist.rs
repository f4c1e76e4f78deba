//! Distribution toolbox: Zipf index popularity, truncated power-law feature
//! lengths, log-normal hash-size spectra.
//!
//! The paper's Figure 7 shows that feature lengths "resemble a power-law
//! distribution", and Figure 6 shows hash sizes spanning 30 … 20 million.
//! These samplers regenerate populations with those statistics.
//!
//! It also holds the workspace's splitmix64: the sequential [`SplitMix64`]
//! stream, and counter-keyed draws ([`unit_f64`], [`exponential`]) for
//! callers that must be reproducible to the byte — fault schedules and
//! serving workloads. A stateful RNG cannot promise that (its output depends
//! on how many draws other code made first), so a counter draw is a pure
//! hash of its `(seed, stream, index)` coordinates: the same triple yields
//! the same value on every machine, at every thread count, in every sweep
//! order. There is no wall clock and no global state anywhere.

use std::sync::Arc;

/// The splitmix64 finalizer: a bijective avalanche over `u64`, offset by
/// the golden-ratio increment.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic stream id for a resource name — FNV-1a over its bytes,
/// so `"gpu3"` draws from a different stream than `"nvlink"` regardless of
/// registration order.
pub fn stream_id(resource: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in resource.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A uniform draw in `[0, 1)` keyed on `(seed, stream, index)`.
pub fn unit_f64(seed: u64, stream: u64, index: u64) -> f64 {
    let mixed = splitmix64(
        seed.wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(splitmix64(stream))
            .wrapping_add(index.wrapping_mul(0xE703_7ED1_A0B4_28DB)),
    );
    // 53 high bits → the full double-precision lattice in [0, 1).
    (mixed >> 11) as f64 / (1u64 << 53) as f64
}

/// An exponential inter-arrival draw with the given mean, keyed on
/// `(seed, stream, index)`. Inverse-CDF sampling keeps the draw a pure
/// function of its coordinates, and the arrival *times* it builds scale
/// linearly with `mean` — which is what makes the in-horizon failure count
/// monotone in the failure rate.
pub fn exponential(seed: u64, stream: u64, index: u64, mean: f64) -> f64 {
    let u = unit_f64(seed, stream, index);
    // u < 1 always, so ln(1 - u) is finite and non-positive.
    -mean * (1.0 - u).ln()
}

/// The workspace's one sequential PRNG (splitmix64) and its samplers.
///
/// Every random number outside the counter-keyed draws comes from this
/// stream: one add and three xor-multiplies per draw, passes BigCrush, and
/// every draw advances the stream exactly once. Library code seeds it with
/// [`SplitMix64::keyed`], so two consumers handed the same seed (a
/// generator's teacher and its example stream, a layer's weights and a data
/// generator) draw unrelated numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Creates the stream of one `purpose` (a name such as
    /// `"data/teacher"`) under `seed`: the seed is mixed with the purpose's
    /// [`stream_id`], so each purpose gets its own stream for every seed.
    pub fn keyed(seed: u64, purpose: &str) -> Self {
        Self::new(splitmix64(seed ^ stream_id(purpose)))
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let draw = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        draw
    }

    /// Next uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[lo, hi)`, up to rounding.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and `hi - lo` is finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && (hi - lo).is_finite(), "need finite lo < hi");
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform integer in `[lo, hi]`, both ends included, by the
    /// multiply-high reduction of one draw.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "need lo <= hi");
        let span = u128::from(hi - lo) + 1;
        lo + ((u128::from(self.next_u64()) * span) >> 64) as u64
    }

    /// An exact standard-normal draw (Box–Muller, cosine branch) from two
    /// uniforms.
    pub fn normal(&mut self) -> f64 {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        let radius = (-2.0 * (1.0 - self.next_f64()).ln()).sqrt();
        radius * (2.0 * std::f64::consts::PI * self.next_f64()).cos()
    }

    /// A log-normal draw: `exp(mu + sigma * N(0, 1))`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Next approximately standard-normal `f32` from a single draw: the sum
    /// of four 16-bit uniforms (Irwin–Hall), centered and rescaled to unit
    /// variance. Matches the tail quality the planted-teacher row scores
    /// already rely on, at a fraction of a Box–Muller's cost.
    #[inline]
    pub fn next_normal_f32(&mut self) -> f32 {
        let x = self.next_u64();
        let mut acc = 0.0f64;
        for shift in [0u32, 16, 32, 48] {
            acc += ((x >> shift) & 0xFFFF) as f64 / 65535.0;
        }
        ((acc - 2.0) * (12.0f64 / 4.0).sqrt()) as f32
    }
}

/// Table-driven Zipf sampler: Vose alias method for exact O(1) draws when
/// the support fits a table, and a continuous bounded power-law inverse CDF
/// for huge supports where an alias table would cost tens of megabytes.
///
/// It is the workspace's one Zipf sampler: one uniform draw per index, no
/// rejection loop, no `powf` in the common (tabled) case.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    n: u64,
    kind: ZipfKind,
}

#[derive(Debug, Clone)]
enum ZipfKind {
    Alias {
        prob: Vec<f64>,
        alias: Vec<u32>,
    },
    Pareto {
        inv_one_minus_s: f64,
        tail: f64,
        ln_m: f64,
    },
}

/// Largest support size for which the alias table is materialized (12 bytes
/// per row). Beyond this the continuous approximation is indistinguishable
/// for training purposes and costs O(1) memory.
const ZIPF_ALIAS_MAX: u64 = 1 << 20;

impl ZipfTable {
    /// Creates a sampler over `[0, n)` with exponent `s > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not positive and finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(s > 0.0 && s.is_finite(), "Zipf exponent must be positive");
        let kind = if n <= ZIPF_ALIAS_MAX {
            let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
            // detsan: reduction-order — construction-time normalizer, fixed
            // sequential sum over ranks
            let total: f64 = weights.iter().sum();
            let len = weights.len();
            // Vose's alias method: split scaled probabilities into "small"
            // (< 1) and "large" (>= 1) and pair each small slot with a large
            // donor.
            let mut prob: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
            let mut alias = vec![0u32; len];
            let mut small: Vec<u32> = Vec::new();
            let mut large: Vec<u32> = Vec::new();
            for (i, &p) in prob.iter().enumerate() {
                if p < 1.0 {
                    small.push(i as u32);
                } else {
                    large.push(i as u32);
                }
            }
            while let (Some(&s_i), Some(&l_i)) = (small.last(), large.last()) {
                small.pop();
                alias[s_i as usize] = l_i;
                prob[l_i as usize] -= 1.0 - prob[s_i as usize];
                if prob[l_i as usize] < 1.0 {
                    large.pop();
                    small.push(l_i);
                }
            }
            // Numerical stragglers on either stack have probability ~1.
            for &i in small.iter().chain(large.iter()) {
                prob[i as usize] = 1.0;
                alias[i as usize] = i;
            }
            ZipfKind::Alias { prob, alias }
        } else {
            // Continuous bounded power-law on [1, n]: F(x) =
            // (x^(1-s) - 1) / (n^(1-s) - 1), discretized by flooring.
            let m = n as f64;
            if (s - 1.0).abs() < 1e-9 {
                ZipfKind::Pareto {
                    inv_one_minus_s: 0.0,
                    tail: 0.0,
                    ln_m: m.ln(),
                }
            } else {
                ZipfKind::Pareto {
                    inv_one_minus_s: 1.0 / (1.0 - s),
                    tail: m.powf(1.0 - s) - 1.0,
                    ln_m: m.ln(),
                }
            }
        };
        Self { n, kind }
    }

    /// Support size.
    pub fn support(&self) -> u64 {
        self.n
    }

    /// Draws one zero-based index from a single uniform variate.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match &self.kind {
            ZipfKind::Alias { prob, alias } => {
                let f = rng.next_f64() * prob.len() as f64;
                let slot = (f as usize).min(prob.len() - 1);
                let frac = f - slot as f64;
                if frac < prob[slot] {
                    slot as u64
                } else {
                    alias[slot] as u64
                }
            }
            ZipfKind::Pareto {
                inv_one_minus_s,
                tail,
                ln_m,
            } => {
                let u = rng.next_f64();
                let x = if *inv_one_minus_s == 0.0 {
                    (u * ln_m).exp()
                } else {
                    (1.0 + u * tail).powf(*inv_one_minus_s)
                };
                (x as u64).saturating_sub(1).min(self.n - 1)
            }
        }
    }
}

/// Truncated Poisson lookup-count sampler as a precomputed CDF table.
///
/// Matches the semantics the generator always had — a Poisson draw clamped
/// to `[1, truncation]` — but replaces the per-draw rejection/inversion work
/// with one uniform and a binary search over at most `truncation` entries.
/// The tail mass beyond the truncation point is folded into the last entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedPoissonTable {
    cdf: Vec<f64>,
}

impl TruncatedPoissonTable {
    /// Builds the table for `mean` lookups truncated to `[1, truncation]`.
    ///
    /// # Panics
    ///
    /// Panics if `truncation == 0` or `mean` is not positive and finite.
    pub fn new(mean: f64, truncation: u32) -> Self {
        assert!(truncation > 0, "truncation must be positive");
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        let mut cdf = Vec::with_capacity(truncation as usize);
        // detsan: reduction-order — construction-time CDF, fixed sequential
        // accumulation over k
        let mut pk = (-mean).exp(); // P(raw = 0)
        let mut cum = pk;
        for k in 1..=u64::from(truncation) {
            pk *= mean / k as f64;
            cum += pk;
            // After k = 1 this is P(raw <= 1) = P(len = 1), matching the
            // clamp-to-1 floor of the original sampler.
            cdf.push(cum.min(1.0));
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Draws one length in `{1, …, truncation}`.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let u = rng.next_f64();
        let idx = self.cdf.partition_point(|&c| c <= u);
        (idx as u32 + 1).min(self.cdf.len() as u32)
    }
}

/// A discrete power-law sampler over `{1, …, max}` with density ∝ `k^-alpha`,
/// used for per-example feature lengths (paper Figure 7).
///
/// Sampling uses the inverse-CDF of the continuous Pareto between 1 and
/// `max`, discretized by flooring — cheap, and accurate enough for length
/// distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawLengths {
    alpha: f64,
    max: u32,
}

impl PowerLawLengths {
    /// Creates a sampler with tail exponent `alpha > 1` truncated at `max`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 1` or `max == 0`.
    pub fn new(alpha: f64, max: u32) -> Self {
        assert!(
            alpha > 1.0 && alpha.is_finite(),
            "power law needs alpha > 1"
        );
        assert!(max > 0, "maximum length must be positive");
        Self { alpha, max }
    }

    /// The tail exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The truncation point.
    pub fn max(&self) -> u32 {
        self.max
    }

    /// Draws one length in `{1, …, max}`.
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let u = rng.next_f64();
        let a = self.alpha - 1.0;
        let max = self.max as f64;
        // Inverse CDF of Pareto(1, a) truncated at max.
        let tail = 1.0 - max.powf(-a);
        let x = (1.0 - u * tail).powf(-1.0 / a);
        (x.floor() as u32).clamp(1, self.max)
    }

    /// Analytic mean of the truncated, discretized distribution, estimated
    /// by direct summation of the continuous density (good to ~1%).
    pub fn approx_mean(&self) -> f64 {
        let a = self.alpha;
        let max = self.max as f64;
        // E[X] for continuous truncated Pareto(1, a-1).
        let am1 = a - 1.0;
        let tail = 1.0 - max.powf(-am1);
        if (a - 2.0).abs() < 1e-9 {
            (max.ln() * am1 / tail) + 0.0
        } else {
            am1 / (a - 2.0) * (1.0 - max.powf(-(a - 2.0))) / tail
        }
    }
}

/// Log-normal sampler for hash sizes, clamped to `[min, max]`.
///
/// Figure 6's hash sizes range "from 30 being smallest, to 20 million the
/// largest", with means of a few million — a classic log-normal spectrum.
#[derive(Debug, Clone, Copy)]
pub struct HashSizeSpectrum {
    mu_ln: f64,
    sigma_ln: f64,
    min: u64,
    max: u64,
}

impl HashSizeSpectrum {
    /// Creates a spectrum with the given log-space mean and standard
    /// deviation, clamped to `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0`, `min > max`, or `sigma` is negative.
    pub fn new(mu_ln: f64, sigma_ln: f64, min: u64, max: u64) -> Self {
        assert!(min > 0 && min <= max, "need 0 < min <= max");
        assert!(sigma_ln >= 0.0, "sigma must be non-negative");
        Self {
            mu_ln,
            sigma_ln,
            min,
            max,
        }
    }

    /// A spectrum calibrated to the paper's Figure 6: sizes in
    /// [30, 20 million] with a mean of roughly `target_mean`.
    ///
    /// # Panics
    ///
    /// Panics if `target_mean` is not within (30, 2e7).
    pub fn production(target_mean: f64) -> Self {
        assert!(
            target_mean > 30.0 && target_mean < 2e7,
            "target mean must lie inside the observed range"
        );
        // For LogNormal, E[X] = exp(mu + sigma^2/2). Pick sigma = 2.0
        // (spread over ~4 decades like Figure 6) and solve for mu. Clamping
        // to 2e7 pulls the realized mean below exp(mu+sigma^2/2), so
        // compensate with a small empirical factor.
        let sigma = 2.0f64;
        let mu = target_mean.ln() - sigma * sigma / 2.0 + 0.35;
        Self::new(mu, sigma, 30, 20_000_000)
    }

    /// Draws one hash size.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        (rng.log_normal(self.mu_ln, self.sigma_ln) as u64).clamp(self.min, self.max)
    }
}

/// Multiplicative log-normal noise around 1.0, used for run-to-run system
/// variability in the fleet simulations (paper Figure 5 attributes part of
/// the spread to "system or hardware level variability").
#[derive(Debug, Clone, Copy)]
pub struct SystemNoise {
    sigma: f64,
}

impl SystemNoise {
    /// Creates noise with the given log-space standard deviation; the
    /// distribution is centred so its mean is 1.0.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be >= 0");
        Self { sigma }
    }

    /// Draws one multiplicative factor (mean 1.0).
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        rng.log_normal(-self.sigma * self.sigma / 2.0, self.sigma)
    }
}

/// Ranks whose probability mass is tabulated exactly; beyond this the CDF
/// switches to a closed-form integral approximation of the Zipf tail.
const ZIPF_CDF_HEAD: u64 = 1 << 16;

/// The exact head of a Zipf CDF: the running sums `Σ_{i=1..k} i^{-s}`
/// for every `k` up to a length, in one fixed sequential order.
///
/// The sums depend only on the exponent, and a shorter head is an exact
/// prefix of a longer one (the same running sum, stopped earlier), so one
/// head per exponent serves every table size: build it once with
/// [`ZipfHead::new`] and hand it to [`ZipfCdf::with_head`]. It is
/// immutable, so an `Arc` of it is shared across sweep points without a
/// lock.
#[derive(Debug)]
pub struct ZipfHead {
    s: f64,
    /// `sums[k-1]` = Σ_{i=1..k} i^{-s}.
    sums: Vec<f64>,
}

impl ZipfHead {
    /// The full head (`ZIPF_CDF_HEAD` ranks) for exponent `s`: enough for
    /// a table of any size.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not positive and finite.
    pub fn new(s: f64) -> Arc<Self> {
        Arc::new(Self::with_len(s, ZIPF_CDF_HEAD as usize))
    }

    /// The first `len` running sums for exponent `s`.
    fn with_len(s: f64, len: usize) -> Self {
        assert!(s > 0.0 && s.is_finite(), "Zipf exponent must be positive");
        let mut sums = Vec::with_capacity(len);
        let mut acc = 0.0f64;
        // detsan: reduction-order — construction-time prefix sums, fixed
        // sequential order at every thread count.
        for i in 1..=len as u64 {
            acc += (i as f64).powf(-s);
            sums.push(acc);
        }
        ZipfHead { s, sums }
    }

    /// The exponent the head was built with.
    pub fn exponent(&self) -> f64 {
        self.s
    }
}

/// The access CDF of a Zipf-popular embedding table: what fraction of all
/// lookups lands in the `k` most popular rows.
///
/// This is the curve RecShard-style per-row sharding reads its split points
/// off: a steep CDF means a thin hot slice in HBM captures almost all
/// traffic and the cold tail can live on SCM. The first
/// `ZIPF_CDF_HEAD` ranks use exact partial harmonic sums (a
/// [`ZipfHead`]); beyond that the tail mass comes from the
/// midpoint-corrected integral `∫ x^{-s} dx`, whose error on the smooth
/// tail is far below any split decision's sensitivity. `cdf` is monotone
/// in `k` by construction.
///
/// # Example
///
/// ```
/// use recsim_data::dist::{ZipfCdf, ZipfHead};
///
/// let cdf = ZipfCdf::new(10_000_000, 1.1);
/// // A thin hot prefix soaks up most of the traffic...
/// assert!(cdf.cdf(100_000) > 0.75);
/// // ...and the inverse lookup finds the 90%-coverage row count.
/// let hot = cdf.rows_for_coverage(0.9);
/// assert!(cdf.cdf(hot) >= 0.9 && cdf.cdf(hot - 1) < 0.9);
/// // Tables with the same exponent can share one head.
/// let head = ZipfHead::new(1.1);
/// assert_eq!(ZipfCdf::with_head(10_000_000, &head).rows_for_coverage(0.9), hot);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfCdf {
    n: u64,
    /// The running sums; the first `head_len` of them are this table's.
    head: Arc<ZipfHead>,
    /// min(n, ZIPF_CDF_HEAD).
    head_len: usize,
    /// Total mass H(n) ≈ Σ_{i=1..n} i^{-s}.
    total: f64,
}

impl ZipfCdf {
    /// Builds the CDF for a table of `n` rows with Zipf exponent `s`,
    /// computing only the `min(n, ZIPF_CDF_HEAD)` head sums it reads.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not positive and finite.
    pub fn new(n: u64, s: f64) -> Self {
        let head = ZipfHead::with_len(s, n.min(ZIPF_CDF_HEAD) as usize);
        Self::with_head(n, &Arc::new(head))
    }

    /// The CDF for a table of `n` rows over a shared `head`, with the
    /// head's exponent. Equal to `ZipfCdf::new(n, head.exponent())`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `head` is shorter than `min(n,
    /// ZIPF_CDF_HEAD)` (a head from [`ZipfHead::new`] never is).
    pub fn with_head(n: u64, head: &Arc<ZipfHead>) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        let head_len = n.min(ZIPF_CDF_HEAD) as usize;
        assert!(head.sums.len() >= head_len, "Zipf head is too short");
        let total = head.sums[head_len - 1] + Self::tail_integral(head_len as u64, n, head.s);
        Self {
            n,
            head: Arc::clone(head),
            head_len,
            total,
        }
    }

    /// Midpoint-corrected integral of `x^{-s}` from rank `from`
    /// (exclusive) to rank `to` (inclusive): ∫_{from+0.5}^{to+0.5}.
    fn tail_integral(from: u64, to: u64, s: f64) -> f64 {
        if to <= from {
            return 0.0;
        }
        let (a, b) = (from as f64 + 0.5, to as f64 + 0.5);
        if (s - 1.0).abs() < 1e-12 {
            (b / a).ln()
        } else {
            (b.powf(1.0 - s) - a.powf(1.0 - s)) / (1.0 - s)
        }
    }

    /// Number of rows in the table.
    pub fn support(&self) -> u64 {
        self.n
    }

    /// The Zipf exponent the CDF was built with.
    pub fn exponent(&self) -> f64 {
        self.head.s
    }

    /// Fraction of all lookups that hit the `k` most popular rows.
    /// `cdf(0) == 0.0`, `cdf(n) == 1.0`, monotone non-decreasing in `k`.
    pub fn cdf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let k = k.min(self.n);
        let sums = &self.head.sums;
        let head_len = self.head_len as u64;
        let mass = if k <= head_len {
            sums[k as usize - 1]
        } else {
            sums[self.head_len - 1] + Self::tail_integral(head_len, k, self.head.s)
        };
        (mass / self.total).clamp(0.0, 1.0)
    }

    /// Smallest row count `k` with `cdf(k) >= coverage` — the hot-slice
    /// size that captures the requested traffic share.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `[0, 1]`.
    pub fn rows_for_coverage(&self, coverage: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage must be in [0, 1]"
        );
        if coverage <= 0.0 {
            return 0;
        }
        let (mut lo, mut hi) = (0u64, self.n);
        // Invariant: cdf(lo) < coverage <= cdf(hi).
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.cdf(mid) >= coverage {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_normalized() {
        for &(n, s) in &[(100u64, 0.8f64), (1 << 16, 1.0), (10_000_000, 1.2)] {
            let cdf = ZipfCdf::new(n, s);
            assert_eq!(cdf.cdf(0), 0.0);
            assert!((cdf.cdf(n) - 1.0).abs() < 1e-12);
            let mut prev = 0.0;
            let mut k = 1;
            while k <= n {
                let c = cdf.cdf(k);
                assert!(c >= prev, "cdf not monotone at k={k} (n={n}, s={s})");
                assert!((0.0..=1.0).contains(&c));
                prev = c;
                k = (k * 7 / 2).max(k + 1);
            }
        }
    }

    #[test]
    fn shared_head_gives_the_same_cdf_bit_for_bit() {
        for s in [0.8, 1.0, 1.4] {
            let head = ZipfHead::new(s);
            for n in [1u64, 100, 1 << 16, 10_000_000] {
                let (own, shared) = (ZipfCdf::new(n, s), ZipfCdf::with_head(n, &head));
                assert_eq!(shared.exponent(), s);
                for k in [0, 1, n / 3, n / 2, n - 1, n] {
                    assert_eq!(
                        own.cdf(k).to_bits(),
                        shared.cdf(k).to_bits(),
                        "n={n} s={s} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn zipf_cdf_head_matches_exact_harmonic_sums() {
        let (n, s) = (1000u64, 1.1f64);
        let cdf = ZipfCdf::new(n, s);
        let total: f64 = (1..=n).map(|i| (i as f64).powf(-s)).sum();
        for k in [1u64, 10, 100, 1000] {
            let exact: f64 = (1..=k).map(|i| (i as f64).powf(-s)).sum::<f64>() / total;
            assert!(
                (cdf.cdf(k) - exact).abs() < 1e-9,
                "k={k}: {} vs {exact}",
                cdf.cdf(k)
            );
        }
    }

    #[test]
    fn zipf_cdf_tail_integral_is_tight_beyond_the_head() {
        // A support just past the head boundary: the integral tail must
        // agree with the exact sum to well under a percent.
        let n = (1 << 16) + 50_000;
        let s = 1.1;
        let cdf = ZipfCdf::new(n, s);
        let total: f64 = (1..=n).map(|i| (i as f64).powf(-s)).sum();
        let k = (1 << 16) + 25_000;
        let exact: f64 = (1..=k).map(|i| (i as f64).powf(-s)).sum::<f64>() / total;
        assert!(
            (cdf.cdf(k) - exact).abs() < 1e-4,
            "tail approx off: {} vs {exact}",
            cdf.cdf(k)
        );
    }

    #[test]
    fn steeper_zipf_concentrates_faster() {
        let n = 1_000_000;
        let flat = ZipfCdf::new(n, 0.8);
        let steep = ZipfCdf::new(n, 1.4);
        assert!(steep.cdf(100) > flat.cdf(100));
        // The 90%-coverage hot-slice shrinks as the skew grows.
        assert!(steep.rows_for_coverage(0.9) < flat.rows_for_coverage(0.9));
    }

    #[test]
    fn rows_for_coverage_is_the_exact_inverse() {
        let cdf = ZipfCdf::new(500_000, 1.1);
        for &p in &[0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let k = cdf.rows_for_coverage(p);
            assert!(cdf.cdf(k) >= p, "cdf({k}) < {p}");
            if k > 0 {
                assert!(cdf.cdf(k - 1) < p, "cdf({}) already covers {p}", k - 1);
            }
        }
        assert_eq!(cdf.rows_for_coverage(0.0), 0);
        assert_eq!(cdf.rows_for_coverage(1.0), cdf.support());
    }

    #[test]
    fn power_law_lengths_in_range() {
        let mut rng = SplitMix64::new(3);
        let p = PowerLawLengths::new(2.0, 50);
        for _ in 0..1000 {
            let l = p.sample(&mut rng);
            assert!((1..=50).contains(&l));
        }
    }

    #[test]
    fn power_law_mean_close_to_analytic() {
        let mut rng = SplitMix64::new(11);
        let p = PowerLawLengths::new(2.5, 200);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| p.sample(&mut rng) as u64).sum();
        let emp = sum as f64 / n as f64;
        // Discretization biases down by up to ~0.5.
        assert!(
            (emp - p.approx_mean()).abs() < 0.6,
            "empirical {emp} vs analytic {}",
            p.approx_mean()
        );
    }

    #[test]
    fn power_law_is_heavy_tailed() {
        let mut rng = SplitMix64::new(5);
        let p = PowerLawLengths::new(1.8, 1000);
        let samples: Vec<u32> = (0..50_000).map(|_| p.sample(&mut rng)).collect();
        let ones = samples.iter().filter(|&&l| l == 1).count();
        let big = samples.iter().filter(|&&l| l > 100).count();
        assert!(ones > samples.len() / 3, "mode at 1");
        assert!(big > 0, "tail reaches past 100");
    }

    #[test]
    fn hash_spectrum_clamps() {
        let mut rng = SplitMix64::new(1);
        let h = HashSizeSpectrum::new(10.0, 3.0, 30, 20_000_000);
        for _ in 0..1000 {
            let s = h.sample(&mut rng);
            assert!((30..=20_000_000).contains(&s));
        }
    }

    #[test]
    fn production_spectrum_hits_target_mean() {
        let mut rng = SplitMix64::new(23);
        let target = 5_700_000.0; // M1's mean hash size from the paper
        let h = HashSizeSpectrum::production(target);
        let n = 40_000;
        let sum: u64 = (0..n).map(|_| h.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean / target - 1.0).abs() < 0.35,
            "mean {mean:.0} should be within 35% of {target:.0}"
        );
    }

    #[test]
    fn system_noise_centred_on_one() {
        let mut rng = SplitMix64::new(9);
        let noise = SystemNoise::new(0.15);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| noise.sample(&mut rng)).sum();
        assert!((sum / n as f64 - 1.0).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "alpha > 1")]
    fn power_law_validates_alpha() {
        PowerLawLengths::new(1.0, 10);
    }

    #[test]
    fn splitmix_stream_matches_the_reference_sequence() {
        let mut rng = SplitMix64::new(0);
        let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
            ]
        );
    }

    #[test]
    fn counter_draws_match_their_known_answers() {
        // Fault schedules and serving workloads are built from these bits.
        assert_eq!(unit_f64(7, 3, 0).to_bits(), 0x3fd0_cf10_04d4_64d0);
        assert_eq!(exponential(7, 3, 0, 1.0).to_bits(), 0x3fd3_7fd1_af93_cdcb);
    }

    #[test]
    fn draws_are_pure_functions_of_coordinates() {
        assert_eq!(unit_f64(7, 3, 0), unit_f64(7, 3, 0));
        assert_ne!(unit_f64(7, 3, 0), unit_f64(7, 3, 1));
        assert_ne!(unit_f64(7, 3, 0), unit_f64(8, 3, 0));
        assert_ne!(unit_f64(7, 3, 0), unit_f64(7, 4, 0));
    }

    #[test]
    fn unit_draws_live_in_the_half_open_interval() {
        for i in 0..10_000 {
            let u = unit_f64(42, 1, i);
            assert!((0.0..1.0).contains(&u), "draw {i} out of range: {u}");
        }
    }

    #[test]
    fn unit_draws_are_roughly_uniform() {
        let n = 20_000;
        let mean = (0..n).map(|i| unit_f64(9, 2, i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn exponential_scales_linearly_with_its_mean() {
        for i in 0..100 {
            let short = exponential(5, 11, i, 10.0);
            let long = exponential(5, 11, i, 1000.0);
            assert!(short >= 0.0);
            assert!((long / short - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stream_ids_separate_resource_names() {
        assert_ne!(stream_id("gpu0"), stream_id("gpu1"));
        assert_ne!(stream_id("nvlink"), stream_id("nic"));
        assert_eq!(stream_id("pcie3"), stream_id("pcie3"));
    }

    #[test]
    fn splitmix_uniforms_in_unit_interval_and_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            let u = a.next_f64();
            assert!((0.0..1.0).contains(&u));
            assert_eq!(u, b.next_f64());
        }
    }

    #[test]
    fn splitmix_normals_are_standardish() {
        let mut rng = SplitMix64::new(7);
        let n = 100_000;
        let mut sum = 0.0f64;
        let mut sq = 0.0f64;
        for _ in 0..n {
            let x = rng.next_normal_f32() as f64;
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn samplers_match_their_known_answers() {
        let mut keyed = SplitMix64::keyed(0, "data/teacher");
        assert_eq!(keyed.next_u64(), 0x94d7_49c7_8912_1c72);
        assert_eq!(keyed.next_u64(), 0x8647_7514_db30_a261);

        let mut rng = SplitMix64::new(7);
        assert_eq!(rng.uniform(-2.0, 3.0).to_bits(), 0xbfaa_092d_1484_0bc0);
        assert_eq!(rng.uniform(-2.0, 3.0).to_bits(), 0xbffe_a82c_fc83_ad22);
        let mut rng = SplitMix64::new(7);
        let ints: Vec<u64> = (0..4).map(|_| rng.uniform_u64(10, 20)).collect();
        assert_eq!(ints, [14, 10, 19, 16]);
        let mut rng = SplitMix64::new(7);
        assert_eq!(rng.normal().to_bits(), 0x3fef_a194_ec47_d228);
        assert_eq!(rng.normal().to_bits(), 0xbffd_d3fd_e594_9e97);
        let mut rng = SplitMix64::new(7);
        assert_eq!(rng.log_normal(0.5, 0.25).to_bits(), 0x4000_e324_2c16_39df);
    }

    #[test]
    fn keyed_streams_differ_by_seed_and_purpose() {
        let first = |mut rng: SplitMix64| rng.next_u64();
        let base = first(SplitMix64::keyed(5, "data/teacher"));
        assert_ne!(base, first(SplitMix64::new(5)));
        assert_ne!(base, first(SplitMix64::keyed(6, "data/teacher")));
        assert_ne!(base, first(SplitMix64::keyed(5, "model/xavier")));
        assert_eq!(base, first(SplitMix64::keyed(5, "data/teacher")));
    }

    #[test]
    fn uniform_stays_in_the_half_open_range() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = rng.uniform(-0.25, 0.75);
            assert!((-0.25..0.75).contains(&x), "{x}");
        }
    }

    #[test]
    #[should_panic(expected = "need finite lo < hi")]
    fn uniform_rejects_a_span_that_overflows() {
        SplitMix64::new(3).uniform(-f64::MAX, f64::MAX);
    }

    #[test]
    fn uniform_u64_reaches_both_inclusive_ends() {
        let mut rng = SplitMix64::new(4);
        for (lo, hi) in [(0u64, 1u64), (3, 5), (0, 9)] {
            let mut seen = vec![false; (hi - lo + 1) as usize];
            for _ in 0..1000 {
                let x = rng.uniform_u64(lo, hi);
                assert!((lo..=hi).contains(&x), "{x} outside [{lo}, {hi}]");
                seen[(x - lo) as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "[{lo}, {hi}] missed a value");
        }
        assert_eq!(rng.uniform_u64(7, 7), 7);
        // The full range is the raw draw.
        let raw = SplitMix64::new(4).next_u64();
        assert_eq!(SplitMix64::new(4).uniform_u64(0, u64::MAX), raw);
    }

    #[test]
    fn exact_normals_have_unit_moments() {
        let mut rng = SplitMix64::new(17);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn zipf_table_respects_support_and_skew() {
        let mut rng = SplitMix64::new(9);
        let z = ZipfTable::new(1000, 1.2);
        let mut low = 0;
        for _ in 0..10_000 {
            let i = z.sample(&mut rng);
            assert!(i < 1000);
            if i < 10 {
                low += 1;
            }
        }
        assert!(low > 2000, "got {low} hits in the top 10 ranks");
    }

    #[test]
    fn zipf_table_alias_matches_exact_head_probabilities() {
        // With s = 1.1 over n = 100, P(rank 1) = 1 / H where
        // H = sum k^-1.1; the alias table must reproduce it closely.
        let n = 100u64;
        let s = 1.1f64;
        let h: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let expect = 1.0 / h;
        let z = ZipfTable::new(n, s);
        let mut rng = SplitMix64::new(11);
        let draws = 200_000;
        let hits = (0..draws).filter(|_| z.sample(&mut rng) == 0).count();
        let emp = hits as f64 / draws as f64;
        assert!(
            (emp - expect).abs() < 0.01,
            "empirical {emp:.4} vs exact {expect:.4}"
        );
    }

    #[test]
    fn zipf_table_large_support_falls_back_and_stays_skewed() {
        let n = (ZIPF_ALIAS_MAX + 1) * 2;
        let z = ZipfTable::new(n, 1.1);
        let mut rng = SplitMix64::new(13);
        let mut low = 0;
        for _ in 0..10_000 {
            let i = z.sample(&mut rng);
            assert!(i < n);
            if i < 100 {
                low += 1;
            }
        }
        assert!(low > 2000, "large-support fallback lost its skew: {low}");
    }

    #[test]
    fn truncated_poisson_matches_clamped_reference() {
        // The table must reproduce P(clamp(Poisson(mean), 1, t)) exactly.
        let mean = 3.0f64;
        let t = 8u32;
        let table = TruncatedPoissonTable::new(mean, t);
        let mut rng = SplitMix64::new(21);
        let n = 200_000;
        let mut counts = vec![0usize; t as usize + 1];
        for _ in 0..n {
            let l = table.sample(&mut rng);
            assert!((1..=t).contains(&l));
            counts[l as usize] += 1;
        }
        // Analytic P(len = 1) = e^-3 (1 + 3).
        let p1 = (-mean).exp() * (1.0 + mean);
        let emp1 = counts[1] as f64 / n as f64;
        assert!((emp1 - p1).abs() < 0.01, "P(1): {emp1:.4} vs {p1:.4}");
        // Mean should be close to E[clamp(Poisson(3), 1, 8)] ≈ 3.02.
        let emp_mean: f64 = counts
            .iter()
            .enumerate()
            .map(|(l, &c)| l as f64 * c as f64)
            .sum::<f64>()
            / n as f64;
        assert!((emp_mean - 3.02).abs() < 0.05, "mean {emp_mean}");
    }

    #[test]
    fn truncated_poisson_clamps_to_one() {
        let table = TruncatedPoissonTable::new(0.01, 4);
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            assert_eq!(table.sample(&mut rng), 1);
        }
    }
}
