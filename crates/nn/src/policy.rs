//! Gaussian policy head used by the PPO actor (policy `π_θ`).
//!
//! The OnSlicing actor outputs a resource-orchestration action whose every
//! dimension is a normalized share in `[0, 1]` (the paper uses Sigmoid output
//! activations, §6). During online learning PPO needs a *stochastic* policy
//! with a tractable log-density, so the policy is modeled as a diagonal
//! Gaussian over the pre-clip action:
//!
//! * the **mean** is produced by an [`Mlp`] trunk with Sigmoid output, and
//! * the **standard deviation** is a state-independent, learnable parameter
//!   per action dimension (stored as an unconstrained value mapped through
//!   softplus), the common PPO parameterization.
//!
//! Samples are clipped to `[0, 1]` when handed to the environment, but the
//! log-probability is always evaluated on the *unclipped* sample so that the
//! PPO ratio remains well defined.
//!
//! The module also owns [`standard_normal`] and its batched form
//! [`fill_standard_normal`], the one `N(0, 1)` sampler of the `nn` and
//! `core` crates: policy exploration, the Bayesian layers' weight and
//! pre-activation noise, the action modifier's noise and the agent's
//! estimator noise all draw from it, so a change to it moves every agent's
//! RNG stream at once (and must re-pin goldens, baselines and the
//! checkpoint format versions).

use std::sync::OnceLock;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::mlp::{BatchWorkspace, Mlp};
use crate::optimizer::ParameterSet;
use crate::softplus;
use crate::softplus_derivative;

/// Right edge of the ziggurat's base strip; beyond it the exponential tail
/// takes over (256 layers, Marsaglia & Tsang 2000).
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;
/// Common area of the 256 layers under the unnormalised density
/// `f(x) = exp(-x²/2)`: `R·f(R) + ∫_R^∞ f`.
const ZIGGURAT_V: f64 = 4.928_673_233_974_658e-3;

/// Layer edges `x[0] = V/f(R) > x[1] = R > … > x[256] = 0` and the density
/// at each, `f[i] = f(x[i])`. Layer `i ≥ 1` is the rectangle
/// `[0, x[i]] × [f[i], f[i + 1]]`; layer 0 is the base strip `[0, R] × [0,
/// f(R)]` plus the tail, stretched to the rectangle `[0, x[0]] × [0, f(R)]`.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

/// The process-wide tables, filled from the equal-area recurrence
/// `x[i]·(f(x[i + 1]) − f(x[i])) = V` on first use.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 257];
        x[0] = ZIGGURAT_V / density(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        for i in 2..256 {
            x[i] = (-2.0 * (ZIGGURAT_V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        Ziggurat {
            x,
            f: x.map(density),
        }
    })
}

/// Draws a standard-normal sample with a 256-layer ziggurat (Marsaglia &
/// Tsang 2000, with the layer index and the uniform taken from disjoint
/// bits as in Doornik 2005) — an exact sampler.
///
/// One 64-bit word per draw on the ≈ 98.5 % fast path: the low 8 bits pick
/// the layer, the top 53 bits are the signed uniform. A draw that lands
/// outside its layer's inner strip spends one more word on the wedge test,
/// or two per round of Marsaglia's exponential tail beyond `R`, and redraws
/// on rejection — so the number of words a draw consumes depends on their
/// values. This is the one `N(0, 1)` sampler of the `nn` and `core` crates.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ziggurat_draw(ziggurat(), rng)
}

/// Fills `out` with standard-normal samples: the same values from the same
/// words as `out.len()` calls of [`standard_normal`], in order, with the
/// tables looked up once.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let tables = ziggurat();
    for v in out {
        *v = ziggurat_draw(tables, rng);
    }
}

/// One draw of [`standard_normal`]: the one-word fast path, inlined into
/// both callers.
#[inline(always)]
fn ziggurat_draw<R: Rng + ?Sized>(tables: &Ziggurat, rng: &mut R) -> f64 {
    let bits: u64 = rng.gen();
    let layer = (bits & 0xff) as usize;
    let u = (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0;
    let z = u * tables.x[layer];
    if z.abs() < tables.x[layer + 1] {
        return z;
    }
    outside_strip(tables, rng, layer, u, z)
}

/// The rest of a draw whose first word landed outside its layer's inner
/// strip: the tail or the wedge test, then whole redraws until one accepts.
#[inline(never)]
fn outside_strip<R: Rng + ?Sized>(
    Ziggurat { x, f }: &Ziggurat,
    rng: &mut R,
    mut layer: usize,
    mut u: f64,
    mut z: f64,
) -> f64 {
    loop {
        if layer == 0 {
            // |z| ≥ R in the base strip stands for the tail: R plus an
            // exponential of rate R, accepted against the Gaussian decay.
            loop {
                let a = -(1.0 - rng.gen::<f64>()).ln() / ZIGGURAT_R;
                let b = -(1.0 - rng.gen::<f64>()).ln();
                if 2.0 * b > a * a {
                    return (ZIGGURAT_R + a).copysign(u);
                }
            }
        }
        // The wedge between the layer's inner strip and the density.
        let y = f[layer] + rng.gen::<f64>() * (f[layer + 1] - f[layer]);
        if y < (-0.5 * z * z).exp() {
            return z;
        }
        let bits: u64 = rng.gen();
        layer = (bits & 0xff) as usize;
        u = (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0;
        z = u * x[layer];
        if z.abs() < x[layer + 1] {
            return z;
        }
    }
}

/// A sample drawn from a [`GaussianPolicy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySample {
    /// The raw (unclipped) Gaussian sample; this is what the log-probability
    /// refers to.
    pub raw_action: Vec<f64>,
    /// The sample clipped to `[0, 1]`, ready to hand to the environment.
    pub action: Vec<f64>,
    /// The policy mean at the sampled state.
    pub mean: Vec<f64>,
    /// The (per-dimension) standard deviation used for the sample.
    pub std: Vec<f64>,
    /// Log-density of `raw_action` under the policy.
    pub log_prob: f64,
}

/// Floor added to every standard deviation of a [`GaussianPolicy`].
const MIN_STD: f64 = 1e-3;

/// Diagonal-Gaussian stochastic policy with an MLP mean and learnable,
/// state-independent standard deviations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianPolicy {
    mean_net: Mlp,
    /// Unconstrained per-dimension parameters; `std = softplus(rho) + MIN_STD`.
    log_std_rho: Vec<f64>,
    /// Run-time scratch, never serialised; [`GaussianPolicy::zero_grad`]
    /// sizes it.
    #[serde(skip)]
    grad_log_std_rho: Vec<f64>,
}

impl GaussianPolicy {
    /// Creates a policy with the paper's default trunk (`128x64x32`, ReLU,
    /// Sigmoid output) and an initial standard deviation of roughly
    /// `initial_std` in every action dimension.
    pub fn new<R: Rng + ?Sized>(
        state_dim: usize,
        action_dim: usize,
        initial_std: f64,
        rng: &mut R,
    ) -> Self {
        let mean_net = Mlp::onslicing_default(state_dim, action_dim, Activation::Sigmoid, rng);
        Self::from_mean_net(mean_net, action_dim, initial_std)
    }

    /// Creates a policy around an arbitrary mean network (useful for small
    /// test networks).
    ///
    /// # Panics
    /// Panics if the network's output dimension does not equal `action_dim`
    /// or if `initial_std` is not strictly positive.
    pub fn from_mean_net(mean_net: Mlp, action_dim: usize, initial_std: f64) -> Self {
        assert_eq!(
            mean_net.output_dim(),
            action_dim,
            "mean network output must match the action dimension"
        );
        assert!(initial_std > 0.0, "initial_std must be positive");
        // Invert softplus so that softplus(rho) + MIN_STD == initial_std.
        let target = (initial_std - MIN_STD).max(1e-6);
        let rho = if target > 30.0 {
            target
        } else {
            (target.exp() - 1.0).ln()
        };
        Self {
            grad_log_std_rho: vec![0.0; action_dim],
            log_std_rho: vec![rho; action_dim],
            mean_net,
        }
    }

    /// State dimensionality expected by the policy.
    pub fn state_dim(&self) -> usize {
        self.mean_net.input_dim()
    }

    /// Action dimensionality produced by the policy.
    pub fn action_dim(&self) -> usize {
        self.mean_net.output_dim()
    }

    /// The current per-dimension standard deviations.
    pub fn std(&self) -> Vec<f64> {
        self.log_std_rho
            .iter()
            .map(|&r| softplus(r) + MIN_STD)
            .collect()
    }

    /// Deterministic action: the policy mean, already in `[0, 1]`.
    pub fn mean_action(&self, state: &[f64]) -> Vec<f64> {
        self.mean_net.forward(state)
    }

    /// Draws a stochastic action for the given state:
    /// [`GaussianPolicy::sample_with_mean`] over
    /// [`GaussianPolicy::mean_action`].
    pub fn sample<R: Rng + ?Sized>(&self, state: &[f64], rng: &mut R) -> PolicySample {
        self.sample_with_mean(&self.mean_action(state), rng)
    }

    /// Draws a stochastic action around an already computed policy mean —
    /// the scatter half of the fused cell batch hands each agent its mean
    /// row ([`crate::cell::CellBatch`]). One standard-normal draw per
    /// action dimension, in dimension order.
    pub fn sample_with_mean<R: Rng + ?Sized>(&self, mean: &[f64], rng: &mut R) -> PolicySample {
        debug_assert_eq!(mean.len(), self.action_dim(), "mean length mismatch");
        let std = self.std();
        let mut raw = Vec::with_capacity(mean.len());
        for (m, s) in mean.iter().zip(std.iter()) {
            let z = standard_normal(rng);
            raw.push(m + s * z);
        }
        let log_prob = self.log_prob_given(mean, &std, &raw);
        let action = raw.iter().map(|&a| a.clamp(0.0, 1.0)).collect();
        PolicySample {
            raw_action: raw,
            action,
            mean: mean.to_vec(),
            std,
            log_prob,
        }
    }

    /// Log-density of `raw_action` under the policy evaluated at `state`.
    pub fn log_prob(&self, state: &[f64], raw_action: &[f64]) -> f64 {
        let mean = self.mean_net.forward(state);
        let std = self.std();
        self.log_prob_given(&mean, &std, raw_action)
    }

    fn log_prob_given(&self, mean: &[f64], std: &[f64], raw_action: &[f64]) -> f64 {
        assert_eq!(mean.len(), raw_action.len(), "action length mismatch");
        let mut lp = 0.0;
        for ((m, s), a) in mean.iter().zip(std.iter()).zip(raw_action.iter()) {
            let s = s.max(1e-9);
            let z = (a - m) / s;
            lp += -0.5 * z * z - s.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln();
        }
        lp
    }

    /// Batched log-probability evaluation: one forward GEMM per layer for
    /// the whole minibatch.
    ///
    /// The `(batch × state_dim)` state batch was already gathered into
    /// [`BatchWorkspace::input_mut`] (the PPO minibatch loop writes shuffled
    /// rows straight into the workspace); `raw_actions` is
    /// `(batch × action_dim)`; `log_probs` is cleared and refilled with one
    /// log-density per row. The policy means stay cached in `ws`, so a
    /// following [`GaussianPolicy::accumulate_log_prob_grad_batch`] call
    /// reuses this single forward pass instead of running its own.
    pub fn log_probs_batch_prefilled(
        &self,
        raw_actions: &Matrix,
        ws: &mut BatchWorkspace,
        log_probs: &mut Vec<f64>,
    ) {
        assert_eq!(raw_actions.cols(), self.action_dim(), "action dim mismatch");
        // The std is state independent, so the normalization constant and
        // the per-dimension precision are minibatch constants — the per-row
        // work reduces to one fused multiply-add per action dimension.
        let std = self.std();
        let mut log_norm = 0.0;
        let inv_two_var: Vec<f64> = std
            .iter()
            .map(|s| {
                let s = s.max(1e-9);
                log_norm += -s.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln();
                0.5 / (s * s)
            })
            .collect();
        let means = self.mean_net.forward_batch_prefilled(ws);
        assert_eq!(means.rows(), raw_actions.rows(), "batch size mismatch");
        log_probs.clear();
        log_probs.reserve(raw_actions.rows());
        for b in 0..raw_actions.rows() {
            let mean_row = means.row(b);
            let action_row = raw_actions.row(b);
            let mut quad = 0.0;
            for ((m, w), a) in mean_row
                .iter()
                .zip(inv_two_var.iter())
                .zip(action_row.iter())
            {
                let diff = a - m;
                quad += diff * diff * w;
            }
            log_probs.push(log_norm - quad);
        }
    }

    /// Batched policy-gradient accumulation for the minibatch evaluated by
    /// the immediately preceding
    /// [`GaussianPolicy::log_probs_batch_prefilled`] call on `ws` (the
    /// cached means and activations are reused — one forward and one
    /// backward GEMM pass per layer per minibatch in total).
    ///
    /// This is the policy-gradient building block used by PPO: `weights[b]`
    /// is the (clipped) surrogate weight of transition `b`, and the
    /// accumulated gradient descends `-Σ_b weights[b] · log π(a_b | s_b)`,
    /// so that stepping the optimizer (which minimizes) performs
    /// policy-gradient *ascent* on `Σ_b weights[b] · log π`. Gradients
    /// accumulate until [`GaussianPolicy::zero_grad`]; the std-deviation
    /// gradients are stored in the ascent convention and flipped by the
    /// `-1` block scale of [`ParameterSet::visit_param_blocks`], the
    /// mean-network gradients are negated here at the MLP boundary.
    /// `grad_buf` is a caller-owned scratch matrix.
    ///
    /// # Panics
    /// Panics if the buffer shapes do not line up with the cached forward.
    pub fn accumulate_log_prob_grad_batch(
        &mut self,
        raw_actions: &Matrix,
        weights: &[f64],
        ws: &mut BatchWorkspace,
        grad_buf: &mut Matrix,
    ) {
        let batch = raw_actions.rows();
        assert_eq!(weights.len(), batch, "weight count mismatch");
        {
            let means = ws.output();
            assert_eq!(
                (means.rows(), means.cols()),
                (batch, self.action_dim()),
                "workspace does not hold a matching forward pass"
            );
            // Hoist all per-dimension factors (state independent) out of the
            // batch loop; the per-element work is then multiply-add only.
            let std = self.std();
            let inv_var: Vec<f64> = std
                .iter()
                .map(|s| 1.0 / (s.max(1e-9) * s.max(1e-9)))
                .collect();
            // d logp/d s · ds/dρ = ((diff² − s²)/s³) · σ'(ρ), split into a
            // diff²-coefficient and a constant per dimension.
            let rho_quad: Vec<f64> = std
                .iter()
                .zip(self.log_std_rho.iter())
                .map(|(s, &r)| {
                    let s = s.max(1e-9);
                    softplus_derivative(r) / (s * s * s)
                })
                .collect();
            let rho_const: Vec<f64> = std
                .iter()
                .zip(self.log_std_rho.iter())
                .map(|(s, &r)| softplus_derivative(r) / s.max(1e-9))
                .collect();
            grad_buf.resize(batch, self.action_dim());
            for (b, &w) in weights.iter().enumerate() {
                let mean_row = means.row(b);
                let action_row = raw_actions.row(b);
                let grad_row = grad_buf.row_mut(b);
                for (i, (m, a)) in mean_row.iter().zip(action_row.iter()).enumerate() {
                    let diff = a - m;
                    // Descent gradient on -w·logp wrt the mean output.
                    grad_row[i] = -w * diff * inv_var[i];
                    // Ascent convention, see `visit_param_blocks`.
                    self.grad_log_std_rho[i] += w * (diff * diff * rho_quad[i] - rho_const[i]);
                }
            }
        }
        self.mean_net.backward_batch(grad_buf, ws);
    }

    /// Adds `coeff * d(-entropy)/d rho` to the std-deviation gradients,
    /// encouraging exploration when `coeff > 0` (entropy bonus).
    pub fn accumulate_entropy_grad(&mut self, coeff: f64) {
        for (i, &rho) in self.log_std_rho.iter().enumerate() {
            let s = softplus(rho) + MIN_STD;
            // d entropy / d s = 1 / s ; ascent on entropy == descent on -entropy.
            let d_ent_d_rho = (1.0 / s) * softplus_derivative(rho);
            // Stored in ascent convention (see `visit_param_blocks`).
            self.grad_log_std_rho[i] += coeff * d_ent_d_rho;
        }
    }

    /// Resets accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.mean_net.zero_grad();
        self.grad_log_std_rho.clear();
        self.grad_log_std_rho.resize(self.log_std_rho.len(), 0.0);
    }

    /// Total number of trainable parameters (mean network + std parameters).
    pub fn num_parameters(&self) -> usize {
        self.mean_net.num_parameters() + self.log_std_rho.len()
    }

    /// Flat snapshot of all parameters (mean network, then std parameters).
    pub fn parameters(&self) -> Vec<f64> {
        let mut p = self.mean_net.parameters();
        p.extend_from_slice(&self.log_std_rho);
        p
    }

    /// Overwrites all parameters from a flat vector produced by
    /// [`GaussianPolicy::parameters`].
    ///
    /// # Panics
    /// Panics if the length does not match [`GaussianPolicy::num_parameters`].
    pub fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.num_parameters(),
            "parameter length mismatch"
        );
        let n = self.mean_net.num_parameters();
        self.mean_net.set_parameters(&params[..n]);
        self.log_std_rho.copy_from_slice(&params[n..]);
    }

    /// Mutable access to the underlying mean network (used by behavior
    /// cloning, which regresses the mean directly).
    pub fn mean_net_mut(&mut self) -> &mut Mlp {
        &mut self.mean_net
    }

    /// Immutable access to the underlying mean network.
    pub fn mean_net(&self) -> &Mlp {
        &self.mean_net
    }
}

impl ParameterSet for GaussianPolicy {
    fn grad_norm_squared(&self) -> f64 {
        self.mean_net.grad_norm_squared() + self.grad_log_std_rho.iter().map(|g| g * g).sum::<f64>()
    }

    fn visit_param_blocks(&mut self, f: &mut crate::optimizer::ParamBlockVisitor<'_>) {
        self.mean_net.visit_param_blocks(f);
        // Std-deviation gradients are stored in the ascent convention; the
        // -1 scale flips them to the descent convention the optimizer
        // expects.
        f(&mut self.log_std_rho, &self.grad_log_std_rho, -1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{batch_matrix, BATCHES};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_policy(seed: u64) -> GaussianPolicy {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = Mlp::new(&[4, 12, 3], Activation::Tanh, Activation::Sigmoid, &mut rng);
        GaussianPolicy::from_mean_net(net, 3, 0.2)
    }

    /// Gathers `states` into the workspace and evaluates the batch.
    fn log_probs_of(
        p: &GaussianPolicy,
        states: &Matrix,
        raw: &Matrix,
        ws: &mut BatchWorkspace,
    ) -> Vec<f64> {
        ws.input_mut(states.rows(), states.cols())
            .data_mut()
            .copy_from_slice(states.data());
        let mut log_probs = Vec::new();
        p.log_probs_batch_prefilled(raw, ws, &mut log_probs);
        log_probs
    }

    /// `Φ(x)` by Marsaglia's all-positive series
    /// `½ + φ(x)·Σ_k x^(2k+1) / (1·3·…·(2k+1))` — independent of the tables.
    fn normal_cdf(x: f64) -> f64 {
        let (mut term, mut sum) = (x, x);
        for k in 1..200 {
            term *= x * x / (2 * k + 1) as f64;
            sum += term;
        }
        0.5 + sum * (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
    }

    #[test]
    fn ziggurat_tables_are_strictly_decreasing_with_equal_layer_areas() {
        let Ziggurat { x, f } = ziggurat();
        assert!(x.windows(2).all(|w| w[0] > w[1]), "edges must decrease");
        assert_eq!((x[1], x[256], f[256]), (ZIGGURAT_R, 0.0, 1.0));
        // The base layer: the strip under f(R) plus the tail beyond R.
        let tail = (2.0 * std::f64::consts::PI).sqrt() * (1.0 - normal_cdf(ZIGGURAT_R));
        assert!((ZIGGURAT_R * f[1] + tail - ZIGGURAT_V).abs() < 1e-12);
        assert!((x[0] * f[1] - ZIGGURAT_V).abs() < 1e-12);
        for i in 1..256 {
            let area = x[i] * (f[i + 1] - f[i]);
            assert!((area - ZIGGURAT_V).abs() < 1e-12, "layer {i}: {area}");
        }
    }

    /// Counts the 64-bit words drawn from the wrapped generator.
    struct Counting<'a>(&'a mut ChaCha8Rng, usize);

    impl rand::RngCore for Counting<'_> {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn fill_standard_normal_equals_one_scalar_draw_per_entry() {
        let (mut tails, mut wedges) = (0, 0);
        for seed in 0..8 {
            let mut filled = ChaCha8Rng::seed_from_u64(seed);
            let mut scalar = filled.clone();
            // Fills that start and end mid-block, the empty one included.
            for len in [0, 1, 7, 1552, 2537] {
                let mut out = vec![f64::NAN; len];
                fill_standard_normal(&mut filled, &mut out);
                for (k, &v) in out.iter().enumerate() {
                    let mut counting = Counting(&mut scalar, 0);
                    let want = standard_normal(&mut counting);
                    assert_eq!(
                        v.to_bits(),
                        want.to_bits(),
                        "seed {seed}, len {len}, entry {k}"
                    );
                    // Only the tail returns |z| ≥ R; any other draw that
                    // spent a second word went through the wedge test.
                    if want.abs() >= ZIGGURAT_R {
                        tails += 1;
                    } else if counting.1 > 1 {
                        wedges += 1;
                    }
                }
                assert_eq!(filled, scalar, "seed {seed}, len {len}: generator state");
            }
        }
        assert!(
            tails > 0 && wedges > 0,
            "tail draws {tails}, wedge draws {wedges}"
        );
    }

    #[test]
    fn standard_normal_matches_the_gaussian_in_moments_tails_and_bins() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let n = 2_000_000usize;
        // 63 inner edges of 64 equiprobable bins, by bisection on Φ.
        let edges: Vec<f64> = (1..64)
            .map(|k| {
                let (mut lo, mut hi) = (-4.0, 4.0);
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    if normal_cdf(mid) < k as f64 / 64.0 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            })
            .collect();
        let mut moments = [0.0f64; 4];
        let (mut lag, mut prev) = (0.0, 0.0);
        let mut tails = [0usize; 2];
        let mut bins = [0usize; 64];
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            for (k, m) in moments.iter_mut().enumerate() {
                *m += z.powi(k as i32 + 1);
            }
            lag += z * prev;
            prev = z;
            if z.abs() > ZIGGURAT_R {
                tails[usize::from(z > 0.0)] += 1;
            }
            bins[edges.partition_point(|&e| e < z)] += 1;
        }
        let nf = n as f64;
        // Five standard errors each: √(1, 2, 15, 96)/√n for the raw moments,
        // 1/√n for the lag-1 product.
        let se = 5.0 / nf.sqrt();
        let [m1, m2, m3, m4] = moments.map(|m| m / nf);
        assert!(m1.abs() < se, "mean {m1}");
        assert!((m2 - 1.0).abs() < se * 2f64.sqrt(), "variance {m2}");
        assert!(m3.abs() < se * 15f64.sqrt(), "skew {m3}");
        assert!((m4 - 3.0).abs() < se * 96f64.sqrt(), "fourth moment {m4}");
        assert!((lag / nf).abs() < se, "lag-1 correlation {}", lag / nf);
        // Each side of the tail beyond R holds 1 − Φ(R) ≈ 1.29e-4 of the
        // mass (≈ 258 of 2 M draws), Poisson to five standard deviations.
        let side = nf * (1.0 - normal_cdf(ZIGGURAT_R));
        assert!((side * 2.0 / nf - 2.58e-4).abs() < 1e-6);
        for count in tails {
            assert!(
                (count as f64 - side).abs() < 5.0 * side.sqrt(),
                "tail counts {tails:?} vs {side} a side"
            );
        }
        // χ² with 63 degrees of freedom: mean 63, standard deviation √126.
        let expected = nf / 64.0;
        let chi2: f64 = bins
            .iter()
            .map(|&b| (b as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 63.0 + 5.0 * 126f64.sqrt(), "chi-square {chi2}");
    }

    #[test]
    fn initial_std_is_respected() {
        let p = small_policy(0);
        for s in p.std() {
            assert!((s - 0.2).abs() < 1e-6, "std {s} should be ~0.2");
        }
    }

    #[test]
    fn mean_action_is_in_unit_interval() {
        let p = small_policy(1);
        let a = p.mean_action(&[0.5, -2.0, 3.0, 0.0]);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn sampled_actions_are_clipped_but_raw_actions_are_not_necessarily() {
        let p = small_policy(2);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..200 {
            let s = p.sample(&[0.1, 0.2, 0.3, 0.4], &mut rng);
            assert!(s.action.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert_eq!(s.raw_action.len(), 3);
            assert!(s.log_prob.is_finite());
        }
    }

    #[test]
    fn sample_with_mean_is_bit_identical_to_sample() {
        let p = small_policy(14);
        let state = [0.4, -0.1, 0.7, 0.0];
        let mean = p.mean_action(&state);
        let mut rng_a = ChaCha8Rng::seed_from_u64(41);
        let mut rng_b = rng_a.clone();
        for _ in 0..50 {
            let a = p.sample(&state, &mut rng_a);
            let b = p.sample_with_mean(&mean, &mut rng_b);
            assert_eq!(a, b, "sample paths diverged");
        }
    }

    #[test]
    fn log_prob_is_highest_at_the_mean() {
        let p = small_policy(3);
        let state = [0.3, 0.3, 0.3, 0.3];
        let mean = p.mean_action(&state);
        let at_mean = p.log_prob(&state, &mean);
        let off: Vec<f64> = mean.iter().map(|m| m + 0.3).collect();
        assert!(at_mean > p.log_prob(&state, &off));
    }

    #[test]
    fn log_prob_matches_analytic_gaussian_density() {
        let p = small_policy(4);
        let state = [0.0, 1.0, -1.0, 0.5];
        let mean = p.mean_action(&state);
        let std = p.std();
        let action: Vec<f64> = mean.iter().map(|m| m + 0.1).collect();
        let expected: f64 = mean
            .iter()
            .zip(std.iter())
            .zip(action.iter())
            .map(|((m, s), a)| {
                let z = (a - m) / s;
                -0.5 * z * z - s.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
            })
            .sum();
        assert!((p.log_prob(&state, &action) - expected).abs() < 1e-12);
    }

    #[test]
    fn policy_gradient_ascent_moves_mean_toward_rewarded_action() {
        // A single-state bandit: reward is higher when the action is close to
        // 0.8. Ascending weight * logp with weight = advantage should move the
        // policy mean toward 0.8.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let net = Mlp::new(&[1, 16, 1], Activation::Tanh, Activation::Sigmoid, &mut rng);
        let mut policy = GaussianPolicy::from_mean_net(net, 1, 0.15);
        let mut opt = crate::optimizer::Adam::new(policy.num_parameters(), 5e-3);
        let state = [1.0];
        let (mut ws, mut grad_buf) = (BatchWorkspace::new(), Matrix::default());
        let states = Matrix::from_vec(16, 1, vec![state[0]; 16]);
        let mut raw = Matrix::zeros(16, 1);
        let mut weights = vec![0.0; 16];
        for _ in 0..600 {
            policy.zero_grad();
            for (b, reward) in weights.iter_mut().enumerate() {
                let s = policy.sample(&state, &mut rng);
                raw.set(b, 0, s.raw_action[0]);
                *reward = -(s.action[0] - 0.8) * (s.action[0] - 0.8);
            }
            let mean_r = weights.iter().sum::<f64>() / 16.0;
            for w in &mut weights {
                *w = (*w - mean_r) / 16.0;
            }
            log_probs_of(&policy, &states, &raw, &mut ws);
            policy.accumulate_log_prob_grad_batch(&raw, &weights, &mut ws, &mut grad_buf);
            opt.step_set(&mut policy);
        }
        let m = policy.mean_action(&state)[0];
        assert!(
            (m - 0.8).abs() < 0.1,
            "policy mean {m} did not move toward 0.8"
        );
    }

    #[test]
    fn log_probs_batch_prefilled_matches_per_row_log_prob() {
        let p = small_policy(15);
        let mut ws = BatchWorkspace::new();
        for batch in BATCHES {
            let states = batch_matrix(batch, 4, 0.0);
            let raw = batch_matrix(batch, 3, 1.0);
            let log_probs = log_probs_of(&p, &states, &raw, &mut ws);
            assert_eq!(log_probs.len(), batch);
            for (b, lp) in log_probs.iter().enumerate() {
                let reference = p.log_prob(states.row(b), raw.row(b));
                assert!(
                    (lp - reference).abs() < 1e-12,
                    "batch {batch} row {b}: {lp} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn accumulate_log_prob_grad_batch_matches_finite_differences() {
        let mut p = small_policy(16);
        let (mut ws, mut grad_buf) = (BatchWorkspace::new(), Matrix::default());
        for batch in BATCHES {
            let states = batch_matrix(batch, 4, 0.0);
            let raw = batch_matrix(batch, 3, 1.0);
            let weights: Vec<f64> = (0..batch).map(|b| (b as f64 * 0.9).cos()).collect();
            // What the accumulated gradient descends, through the
            // single-row inference path.
            let objective = |p: &GaussianPolicy| -> f64 {
                (0..batch)
                    .map(|b| -weights[b] * p.log_prob(states.row(b), raw.row(b)))
                    .sum()
            };

            p.zero_grad();
            log_probs_of(&p, &states, &raw, &mut ws);
            p.accumulate_log_prob_grad_batch(&raw, &weights, &mut ws, &mut grad_buf);
            // Mean-net weights first, `log_std_rho` last — `parameters` order.
            let mut analytic = Vec::new();
            p.visit_param_blocks(&mut |_, grads, scale| {
                analytic.extend(grads.iter().map(|g| g * scale));
            });

            let params = p.parameters();
            assert_eq!(analytic.len(), params.len());
            let h = 1e-6;
            for (i, analytic_g) in analytic.iter().enumerate() {
                let mut theta = params.clone();
                let mut plus = p.clone();
                theta[i] += h;
                plus.set_parameters(&theta);
                let mut minus = p.clone();
                theta[i] -= 2.0 * h;
                minus.set_parameters(&theta);
                let numeric = (objective(&plus) - objective(&minus)) / (2.0 * h);
                assert!(
                    (numeric - analytic_g).abs() < 1e-4 * (1.0 + analytic_g.abs()),
                    "batch {batch} param {i}: numeric {numeric} vs analytic {analytic_g}"
                );
            }
        }
    }

    #[test]
    fn parameter_roundtrip_preserves_behaviour() {
        let mut p = small_policy(8);
        let params = p.parameters();
        assert_eq!(params.len(), p.num_parameters());
        let state = [0.2, 0.4, 0.6, 0.8];
        let before = p.mean_action(&state);
        p.set_parameters(&params);
        assert_eq!(p.mean_action(&state), before);
    }

    #[test]
    fn copy_parameters_from_clones_behaviour() {
        let a = small_policy(9);
        let mut b = small_policy(10);
        b.set_parameters(&a.parameters());
        let state = [0.9, -0.3, 0.0, 0.1];
        assert_eq!(a.mean_action(&state), b.mean_action(&state));
        assert_eq!(a.std(), b.std());
    }

    #[test]
    fn entropy_bonus_increases_std() {
        let mut p = small_policy(11);
        let before: f64 = p.std().iter().sum();
        let mut opt = crate::optimizer::Adam::new(p.num_parameters(), 1e-2);
        for _ in 0..50 {
            p.zero_grad();
            p.accumulate_entropy_grad(0.1);
            opt.step_set(&mut p);
        }
        let after: f64 = p.std().iter().sum();
        assert!(
            after > before,
            "entropy bonus should inflate std: {before} -> {after}"
        );
    }

    #[test]
    #[should_panic(expected = "mean network output must match")]
    fn mismatched_action_dim_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let net = Mlp::new(&[2, 4, 2], Activation::Relu, Activation::Sigmoid, &mut rng);
        let _ = GaussianPolicy::from_mean_net(net, 3, 0.1);
    }
}
