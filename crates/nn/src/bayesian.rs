//! Bayes-by-backprop variational layers for the cost value estimator (π_φ).
//!
//! The proactive baseline switching mechanism (paper §3, Eq. 6–8) needs both
//! the **mean** and the **standard deviation** of the baseline policy's
//! remaining-episode cost under the current state. The paper trains a
//! probabilistic model with variational inference: the weight posterior is
//! approximated by a diagonal Gaussian `q(φ) = N(μ, σ²)`, `σ = softplus(ρ)`,
//! trained by maximizing the evidence lower bound
//!
//! ```text
//! ELBO = E_q[ log p(D | φ) ] − KL( q(φ) ‖ p(φ) )        (Eq. 7)
//! ```
//!
//! with a standard-normal prior `p(φ)`. The two stochastic paths sample
//! different things:
//!
//! * **Training** ([`BayesianMlp::resample_weights`] →
//!   [`BayesianMlp::forward_batch`] → [`BayesianMlp::backward_batch`]) uses
//!   the plain reparameterization trick: one weight draw
//!   `W = μ + σ · ε`, `ε ∼ N(0, 1)` per call, shared by the whole minibatch,
//!   with gradients flowing through both `μ` and `ρ`. The draw is an
//!   ordinary [`Mlp`], so both passes are [`Mlp::forward_batch`] and
//!   [`Mlp::backward_batch`]; the backward pass then only chains the draw's
//!   gradients into `μ` (`∂W/∂μ = 1`) and `ρ` (`∂W/∂ρ = ε·σ′`), the bias
//!   terms from each layer's `dL/d(pre-activation)` row by row.
//! * **Training's scales** `σ = softplus(ρ)` and `σ′ = sigmoid(ρ)` are
//!   computed once per value of `ρ` and cached per parameter: the draw, the
//!   backward pass and the KL gradient of one step read the same cache, and
//!   the optimiser's step (the only way `ρ` moves) invalidates it. The
//!   cache is never serialised, so a restored layer starts stale.
//! * **Prediction** ([`BayesianMlp::predict_with`]) uses the *local*
//!   reparameterization trick: for a factorized Gaussian posterior and a
//!   fixed input row `x`, every pre-activation is itself exactly Gaussian and
//!   independent of the others,
//!   `y_r ∼ N(μ_r·x + μ_b, σ²_r·x² + σ²_b)`, so the pass samples the
//!   pre-activations (one draw per unit) instead of the weights (one draw
//!   per connection) and runs all posterior samples as one batch through the
//!   GEMM kernels. The predictive distribution is the same; only the number
//!   of RNG draws differs: the words of `samples × Σ out_dim` scalar
//!   [`standard_normal`](crate::policy::standard_normal) calls, layer by
//!   layer and row-major within a layer (1 552 for 16 samples of the
//!   `[9, 64, 32, 1]` trunk), drawn by one [`fill_standard_normal`] per
//!   layer.
//!
//! `predict_with` aggregates the stochastic passes into a predictive mean and
//! standard deviation, which is exactly the `(μ, σ)` pair the switching rule
//! consumes. The per-weight-sampling predictor it replaced survives in this
//! module's tests as the distributional oracle.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::init::Init;
use crate::layer::Dense;
use crate::matrix::Matrix;
use crate::mlp::{BatchWorkspace, Mlp};
use crate::policy::fill_standard_normal;
use crate::{softplus, softplus_and_sigmoid};

/// Summary statistics of the stochastic predictions of a [`BayesianMlp`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BayesianPrediction {
    /// Predictive mean across weight samples.
    pub mean: f64,
    /// Predictive standard deviation across weight samples (epistemic
    /// uncertainty); never negative.
    pub std: f64,
}

/// Standard deviation of the weight prior `p(φ)` (a standard normal).
const PRIOR_STD: f64 = 1.0;
const PRIOR_VAR: f64 = PRIOR_STD * PRIOR_STD;

/// A single variational dense layer `y = act(W x + b)` whose weights and
/// biases carry a factorized Gaussian posterior. Its shape is `weight_mu`'s.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BayesianLinear {
    activation: Activation,
    /// Posterior means for the weights (row-major `out_dim x in_dim`).
    weight_mu: Matrix,
    /// Unconstrained posterior scale parameters; `sigma = softplus(rho)`.
    weight_rho: Matrix,
    bias_mu: Vec<f64>,
    bias_rho: Vec<f64>,
    // Everything below is run-time scratch, never serialised:
    // `zero_grad` sizes the gradients and `BayesianMlp::resample_weights`
    // the draw, and one of each opens every update.
    #[serde(skip)]
    grad_weight_mu: Matrix,
    #[serde(skip)]
    grad_weight_rho: Matrix,
    #[serde(skip)]
    grad_bias_mu: Vec<f64>,
    #[serde(skip)]
    grad_bias_rho: Vec<f64>,
    // The ε of the last weight draw, for `BayesianMlp::backward_batch`;
    // sized with the network's weight sample.
    #[serde(skip)]
    cached_weight_eps: Matrix,
    #[serde(skip)]
    cached_bias_eps: Vec<f64>,
    // σ and σ′ of the current ρ, valid while `scales_fresh`: `refresh`
    // fills them and `visit_param_blocks`, the one way ρ moves, clears the
    // flag.
    #[serde(skip)]
    weight_scales: Scales,
    #[serde(skip)]
    bias_scales: Scales,
    #[serde(skip)]
    scales_fresh: bool,
}

/// `σ = softplus(ρ)` and `σ′ = sigmoid(ρ)` for every entry of one ρ block.
#[derive(Debug, Clone, Default)]
struct Scales {
    sigma: Vec<f64>,
    dsigma: Vec<f64>,
}

impl Scales {
    fn fill(&mut self, rho: &[f64]) {
        self.sigma.resize(rho.len(), 0.0);
        self.dsigma.resize(rho.len(), 0.0);
        for ((s, d), &r) in self.sigma.iter_mut().zip(&mut self.dsigma).zip(rho) {
            (*s, *d) = softplus_and_sigmoid(r);
        }
    }

    /// Draws one `ε ∼ N(0, 1)` per entry, in order, into `eps` and writes
    /// the sample `μ + σ·ε` into `sampled`.
    fn draw<R: Rng + ?Sized>(&self, mu: &[f64], eps: &mut [f64], sampled: &mut [f64], rng: &mut R) {
        fill_standard_normal(rng, eps);
        for (((w, &e), &m), &s) in sampled.iter_mut().zip(&*eps).zip(mu).zip(&self.sigma) {
            *w = m + s * e;
        }
    }

    /// Adds `weight · ∂KL/∂μ` and `weight · ∂KL/∂ρ` to the gradients.
    fn add_kl_grad(&self, mu: &[f64], grad_mu: &mut [f64], grad_rho: &mut [f64], weight: f64) {
        for ((((gm, gr), &m), &s), &d) in grad_mu
            .iter_mut()
            .zip(grad_rho)
            .zip(mu)
            .zip(&self.sigma)
            .zip(&self.dsigma)
        {
            let sigma = s.max(1e-9);
            // d KL / d mu = mu / prior_var
            *gm += weight * m / PRIOR_VAR;
            // d KL / d sigma = -1/sigma + sigma/prior_var
            let d_sigma = -1.0 / sigma + sigma / PRIOR_VAR;
            *gr += weight * d_sigma * d;
        }
    }
}

impl BayesianLinear {
    /// Creates a variational layer with posterior means initialized like a
    /// small deterministic layer and posterior scales initialized small
    /// (σ ≈ 0.05) so early training behaves like a point estimate.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let mut weight_mu = Matrix::zeros(out_dim, in_dim);
        for w in weight_mu.data_mut() {
            *w = Init::XavierUniform.sample(in_dim, out_dim, rng);
        }
        // softplus(-3.0) ≈ 0.0486
        let mut weight_rho = Matrix::zeros(out_dim, in_dim);
        weight_rho.fill(-3.0);
        Self {
            activation,
            weight_mu,
            weight_rho,
            bias_mu: vec![0.0; out_dim],
            bias_rho: vec![-3.0; out_dim],
            grad_weight_mu: Matrix::zeros(out_dim, in_dim),
            grad_weight_rho: Matrix::zeros(out_dim, in_dim),
            grad_bias_mu: vec![0.0; out_dim],
            grad_bias_rho: vec![0.0; out_dim],
            cached_weight_eps: Matrix::default(),
            cached_bias_eps: Vec::new(),
            weight_scales: Scales::default(),
            bias_scales: Scales::default(),
            scales_fresh: false,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight_mu.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight_mu.rows()
    }

    /// Forward pass using only the posterior means (a deterministic
    /// point-estimate prediction).
    pub fn forward_mean(&self, input: &[f64]) -> Vec<f64> {
        debug_assert_eq!(input.len(), self.in_dim());
        let mut pre = self.weight_mu.matvec(input);
        for (p, b) in pre.iter_mut().zip(self.bias_mu.iter()) {
            *p += b;
        }
        pre.iter().map(|&x| self.activation.apply(x)).collect()
    }

    /// Draws one posterior sample `W = μ + softplus(ρ)·ε` into `sample`,
    /// weights then bias, keeping ε for the chain into `μ` and `ρ`.
    fn draw<R: Rng + ?Sized>(&mut self, sample: &mut Dense, rng: &mut R) {
        self.refresh();
        self.weight_scales.draw(
            self.weight_mu.data(),
            self.cached_weight_eps.data_mut(),
            sample.weights.data_mut(),
            rng,
        );
        self.bias_scales.draw(
            &self.bias_mu,
            &mut self.cached_bias_eps,
            &mut sample.bias,
            rng,
        );
    }

    /// Recomputes σ and σ′ from ρ unless they already belong to it: the
    /// one place training evaluates `softplus` or its derivative.
    fn refresh(&mut self) {
        if !self.scales_fresh {
            self.weight_scales.fill(self.weight_rho.data());
            self.bias_scales.fill(&self.bias_rho);
            self.scales_fresh = true;
        }
    }

    /// Refuses to accumulate into gradients `zero_grad` has not sized.
    fn assert_grads_sized(&self) {
        assert_eq!(
            (self.grad_weight_rho.data().len(), self.grad_bias_rho.len()),
            (self.out_dim() * self.in_dim(), self.out_dim()),
            "gradients accumulated before zero_grad"
        );
    }

    /// Chains the gradients of the last backward pass through `sample`,
    /// whose `dL/d(pre-activation)` was `delta`, into `μ` and `ρ`: `∂W/∂μ = 1`
    /// and `∂W/∂ρ = ε·σ′`, the bias terms summed row by row.
    fn chain_sample_grads(&mut self, sample: &Dense, delta: &Matrix) {
        self.refresh();
        self.assert_grads_sized();
        for ((((gm, gr), &g), &eps), &d) in self
            .grad_weight_mu
            .data_mut()
            .iter_mut()
            .zip(self.grad_weight_rho.data_mut())
            .zip(sample.grad_weights.data())
            .zip(self.cached_weight_eps.data())
            .zip(&self.weight_scales.dsigma)
        {
            *gm += g;
            *gr += g * (eps * d);
        }
        for b in 0..delta.rows() {
            for ((((gm, gr), &g), &eps), &d) in self
                .grad_bias_mu
                .iter_mut()
                .zip(&mut self.grad_bias_rho)
                .zip(delta.row(b))
                .zip(&self.cached_bias_eps)
                .zip(&self.bias_scales.dsigma)
            {
                *gm += g;
                *gr += g * eps * d;
            }
        }
    }

    /// Squared l2 norm of all accumulated gradients.
    pub fn grad_norm_squared(&self) -> f64 {
        self.grad_weight_mu
            .data()
            .iter()
            .map(|g| g * g)
            .sum::<f64>()
            + self
                .grad_weight_rho
                .data()
                .iter()
                .map(|g| g * g)
                .sum::<f64>()
            + self.grad_bias_mu.iter().map(|g| g * g).sum::<f64>()
            + self.grad_bias_rho.iter().map(|g| g * g).sum::<f64>()
    }

    /// Visits `(params, grads, scale)` blocks — `weight_mu`, `weight_rho`,
    /// `bias_mu`, `bias_rho` — without allocating. The visitor may move ρ,
    /// so the cached σ and σ′ are stale afterwards.
    pub fn visit_param_blocks(&mut self, f: &mut crate::optimizer::ParamBlockVisitor<'_>) {
        self.scales_fresh = false;
        f(self.weight_mu.data_mut(), self.grad_weight_mu.data(), 1.0);
        f(self.weight_rho.data_mut(), self.grad_weight_rho.data(), 1.0);
        f(&mut self.bias_mu, &self.grad_bias_mu, 1.0);
        f(&mut self.bias_rho, &self.grad_bias_rho, 1.0);
    }

    /// KL divergence `KL(q(φ) ‖ p(φ))` of this layer's posterior from the
    /// standard-normal prior, summed over all weights and biases.
    pub fn kl_to_prior(&self) -> f64 {
        let weights = self.weight_mu.data().iter().zip(self.weight_rho.data());
        weights
            .chain(self.bias_mu.iter().zip(&self.bias_rho))
            .map(|(&mu, &rho)| {
                let sigma = softplus(rho).max(1e-9);
                (PRIOR_STD / sigma).ln() + (sigma * sigma + mu * mu) / (2.0 * PRIOR_VAR) - 0.5
            })
            .sum()
    }

    /// Accumulates the gradient of `weight · KL(q ‖ p)` into the layer.
    ///
    /// Called once per optimizer step with `weight = KL weight / dataset size`
    /// (the standard Bayes-by-backprop minibatch scaling).
    pub fn accumulate_kl_grad(&mut self, weight: f64) {
        self.refresh();
        self.assert_grads_sized();
        self.weight_scales.add_kl_grad(
            self.weight_mu.data(),
            self.grad_weight_mu.data_mut(),
            self.grad_weight_rho.data_mut(),
            weight,
        );
        self.bias_scales.add_kl_grad(
            &self.bias_mu,
            &mut self.grad_bias_mu,
            &mut self.grad_bias_rho,
            weight,
        );
    }

    /// Resets accumulated gradients to zero, sized from the layer's shape.
    pub fn zero_grad(&mut self) {
        let (rows, cols) = (self.out_dim(), self.in_dim());
        self.grad_weight_mu.resize(rows, cols);
        self.grad_weight_rho.resize(rows, cols);
        for grad in [&mut self.grad_bias_mu, &mut self.grad_bias_rho] {
            grad.clear();
            grad.resize(rows, 0.0);
        }
    }

    /// Number of trainable parameters (`μ` and `ρ` for weights and biases).
    pub fn num_parameters(&self) -> usize {
        2 * (self.out_dim() * self.in_dim() + self.out_dim())
    }

    /// Whether `ρ` and both biases have the shape `μ` gives the layer; the
    /// refusal shows the first pair that does not.
    fn validate(&self) -> Result<(), String> {
        let (rows, cols) = (self.out_dim(), self.in_dim());
        for (w, b) in [
            (&self.weight_mu, &self.bias_mu),
            (&self.weight_rho, &self.bias_rho),
        ] {
            if (w.rows(), w.cols(), b.len()) != (rows, cols, rows) {
                return Err(format!(
                    "is {rows} × {cols} but holds a {} × {} weight block with a bias of length {}",
                    w.rows(),
                    w.cols(),
                    b.len()
                ));
            }
        }
        Ok(())
    }
}

/// The batched passes' workspace under its old name, kept only while the
/// benchmark harness (`benchmark/src/micro.rs`) still names it.
pub type BayesWorkspace = BatchWorkspace;

/// Reusable scratch for [`BayesianMlp::predict_with`].
///
/// Caches, per layer, the transposed posterior means `μᵀ` and variances
/// `(σ²)ᵀ` (`in × out`, the right-hand operands of the two GEMMs of a
/// pre-activation-sampling pass, so the hot path pays neither a `softplus`
/// nor a transpose) plus the bias variances, and owns every activation
/// buffer, making repeated predictions allocation-free at steady state.
///
/// The parameter cache is **stale after any parameter update**: the owner
/// must call [`PredictScratch::invalidate`] after `fit`/optimizer steps so
/// the next prediction recomputes it. A freshly created (or
/// deserialized-into-default) scratch starts invalid, so forgetting to
/// persist it can never change results.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    /// Per-layer `weight_muᵀ`.
    mu_t: Vec<Matrix>,
    /// Per-layer `(softplus(weight_rho)²)ᵀ`.
    var_t: Vec<Matrix>,
    /// Per-layer `softplus(bias_rho)²`.
    var_b: Vec<Vec<f64>>,
    /// Layer input batch, its element-wise square, and the next layer's
    /// input (swapped with `x` after every layer).
    x: Matrix,
    x_sq: Matrix,
    y: Matrix,
    /// Pre-activation means and standard deviations of the current layer.
    mean: Matrix,
    std: Matrix,
    /// Whether the parameter cache matches the network's current parameters.
    fresh: bool,
}

impl PredictScratch {
    /// Creates an empty (invalid) scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the parameter cache stale; the next
    /// [`BayesianMlp::predict_with`] call recomputes it. Call after any
    /// update to the network's parameters.
    pub fn invalidate(&mut self) {
        self.fresh = false;
    }
}

/// A small Bayesian MLP producing a scalar prediction with uncertainty.
///
/// Used as the cost value estimator: input is the slice state, output is the
/// estimated remaining-episode cost of the baseline policy, reported as a
/// predictive mean and standard deviation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BayesianMlp {
    layers: Vec<BayesianLinear>,
    /// The last weight draw as a plain network, through which the batched
    /// passes run; empty until the first [`BayesianMlp::resample_weights`],
    /// so a pass before it is detected, and never serialised.
    #[serde(skip)]
    sample: Mlp,
}

impl BayesianMlp {
    /// Builds a Bayesian MLP from layer sizes, ReLU hidden activations and an
    /// identity output (a regression head).
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(sizes: &[usize], rng: &mut R) -> Self {
        assert!(
            sizes.len() >= 2,
            "a Bayesian MLP needs at least input and output sizes"
        );
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for (i, w) in sizes.windows(2).enumerate() {
            let is_last = i == sizes.len() - 2;
            let act = if is_last {
                Activation::Identity
            } else {
                Activation::Relu
            };
            layers.push(BayesianLinear::new(w[0], w[1], act, rng));
        }
        Self {
            layers,
            sample: Mlp::default(),
        }
    }

    /// The paper's default estimator trunk (`128x64x32`) with a scalar head.
    pub fn onslicing_default<R: Rng + ?Sized>(input_dim: usize, rng: &mut R) -> Self {
        Self::new(&[input_dim, 128, 64, 32, 1], rng)
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.in_dim())
    }

    /// Output dimensionality (1 for the cost-value estimator).
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.out_dim())
    }

    /// Deterministic forward pass through the posterior means.
    pub fn forward_mean(&self, input: &[f64]) -> Vec<f64> {
        let mut x = input.to_vec();
        for layer in &self.layers {
            x = layer.forward_mean(&x);
        }
        x
    }

    /// Draws one posterior weight sample per layer for the batched passes,
    /// layer by layer, weights then bias, row-major.
    pub fn resample_weights<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.sample.layers.is_empty() {
            for layer in &mut self.layers {
                let (rows, cols) = (layer.out_dim(), layer.in_dim());
                layer.cached_weight_eps.resize(rows, cols);
                layer.cached_bias_eps.resize(rows, 0.0);
                let dense = Dense::zeros(cols, rows, layer.activation);
                self.sample.layers.push(dense);
            }
        }
        for (layer, dense) in self.layers.iter_mut().zip(&mut self.sample.layers) {
            layer.draw(dense, rng);
        }
    }

    /// Batched stochastic forward pass under the current weight sample — one
    /// GEMM per layer for the whole minibatch. `input` is
    /// `(batch × input_dim)`; the returned reference is the output batch
    /// inside `ws`.
    ///
    /// # Panics
    /// Panics if [`BayesianMlp::resample_weights`] has never been called.
    pub fn forward_batch<'w>(&self, input: &Matrix, ws: &'w mut BatchWorkspace) -> &'w Matrix {
        assert_eq!(
            self.sample.layers.len(),
            self.layers.len(),
            "forward_batch called before resample_weights"
        );
        self.sample.forward_batch(input, ws)
    }

    /// Batched backward pass over the caches of the last
    /// [`BayesianMlp::forward_batch`]; `grad_output` is `dL/dy` for the whole
    /// minibatch. The weight sample's gradients, fresh for each call, chain
    /// into the `μ` and `ρ` gradients accumulating in the layers.
    pub fn backward_batch(&mut self, grad_output: &Matrix, ws: &mut BatchWorkspace) {
        self.sample.zero_grad();
        self.sample.backward_batch(grad_output, ws);
        for ((layer, dense), delta) in self
            .layers
            .iter_mut()
            .zip(&self.sample.layers)
            .zip(&ws.deltas)
        {
            layer.chain_sample_grads(dense, delta);
        }
    }

    /// Total KL divergence of the posterior from the prior.
    pub fn kl_to_prior(&self) -> f64 {
        self.layers.iter().map(|l| l.kl_to_prior()).sum()
    }

    /// Accumulates `weight · d KL/dφ` across all layers.
    pub fn accumulate_kl_grad(&mut self, weight: f64) {
        for layer in &mut self.layers {
            layer.accumulate_kl_grad(weight);
        }
    }

    /// Resets all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(|l| l.num_parameters()).sum()
    }

    /// Squared l2 norm of all accumulated gradients.
    pub fn grad_norm_squared(&self) -> f64 {
        self.layers
            .iter()
            .map(BayesianLinear::grad_norm_squared)
            .sum()
    }

    /// What a deserialised network must satisfy before a kernel slices it:
    /// every layer's weight and bias blocks have the layer's dimensions.
    pub fn validate(&self) -> Result<(), String> {
        for (i, layer) in self.layers.iter().enumerate() {
            layer
                .validate()
                .map_err(|e| format!("bayesian layer {i} {e}"))?;
        }
        Ok(())
    }

    /// Predictive mean and standard deviation of the scalar output, estimated
    /// from `num_samples` posterior samples.
    ///
    /// Samples pre-activations rather than weights (see the module docs):
    /// layer 0 sees the one shared input row, so its pre-activation means
    /// and variances are computed once and every sample only adds its own
    /// noise; from layer 1 on the samples are a `num_samples`-row batch and
    /// each layer costs two GEMMs (`X·μᵀ` and `X²·(σ²)ᵀ`) plus one
    /// [`fill_standard_normal`] of one draw per unit per sample, in
    /// row-major order, before the activation pass. All
    /// buffers live in `scratch`, so a warm call allocates nothing; the
    /// caller must [`PredictScratch::invalidate`] the scratch after any
    /// parameter update.
    ///
    /// # Panics
    /// Panics if the network output is not scalar or `num_samples == 0`.
    pub fn predict_with<R: Rng + ?Sized>(
        &self,
        input: &[f64],
        num_samples: usize,
        rng: &mut R,
        scratch: &mut PredictScratch,
    ) -> BayesianPrediction {
        assert_eq!(
            self.output_dim(),
            1,
            "predict requires a scalar output head"
        );
        assert!(num_samples > 0, "at least one posterior sample is required");
        assert_eq!(input.len(), self.input_dim(), "predict input dim mismatch");
        if !scratch.fresh {
            self.refresh_parameter_cache(scratch);
        }
        let PredictScratch {
            mu_t,
            var_t,
            var_b,
            x,
            x_sq,
            y,
            mean,
            std,
            ..
        } = scratch;
        x.resize(1, input.len());
        x.copy_row_from(0, input);
        for (i, layer) in self.layers.iter().enumerate() {
            x_sq.resize(x.rows(), x.cols());
            for (sq, &v) in x_sq.data_mut().iter_mut().zip(x.data()) {
                *sq = v * v;
            }
            x.matmul_into(&mu_t[i], mean);
            mean.add_row_broadcast(&layer.bias_mu);
            x_sq.matmul_into(&var_t[i], std);
            std.add_row_broadcast(&var_b[i]);
            for v in std.data_mut() {
                *v = v.sqrt();
            }
            // The layer's noise block first, row-major, then the samples.
            y.resize(num_samples, layer.out_dim());
            fill_standard_normal(rng, y.data_mut());
            match layer.activation {
                // One loop per hidden and output activation keeps the
                // match out of the element loop.
                Activation::Relu => add_noise(mean, std, y, |v| Activation::Relu.apply(v)),
                Activation::Identity => add_noise(mean, std, y, |v| v),
                act => add_noise(mean, std, y, |v| act.apply(v)),
            }
            std::mem::swap(x, y);
        }
        let values = x.data();
        let mean = values.iter().sum::<f64>() / num_samples as f64;
        let var = if num_samples > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (num_samples - 1) as f64
        } else {
            0.0
        };
        BayesianPrediction {
            mean,
            std: var.max(0.0).sqrt(),
        }
    }

    /// Rematerializes `μᵀ`, `(σ²)ᵀ` and the bias variances into `scratch`.
    fn refresh_parameter_cache(&self, scratch: &mut PredictScratch) {
        let variance = |rho: f64| {
            let sigma = softplus(rho);
            sigma * sigma
        };
        let n = self.layers.len();
        scratch.mu_t.resize_with(n, Matrix::default);
        scratch.var_t.resize_with(n, Matrix::default);
        scratch.var_b.resize_with(n, Vec::new);
        for (i, layer) in self.layers.iter().enumerate() {
            layer.weight_mu.transpose_into(&mut scratch.mu_t[i]);
            layer.weight_rho.transpose_into(&mut scratch.var_t[i]);
            for v in scratch.var_t[i].data_mut() {
                *v = variance(*v);
            }
            scratch.var_b[i].clear();
            scratch.var_b[i].extend(layer.bias_rho.iter().map(|&rho| variance(rho)));
        }
        scratch.fresh = true;
    }
}

/// `y ← act(mean + std·y)`, `y` holding one noise draw per entry: row `s`
/// of `y` reads row `s` of the statistics, or their one shared row before
/// the first layer's noise.
#[inline(always)]
fn add_noise(mean: &Matrix, std: &Matrix, y: &mut Matrix, act: impl Fn(f64) -> f64) {
    for s in 0..y.rows() {
        let stats_row = if mean.rows() == 1 { 0 } else { s };
        for ((out, &m), &sd) in y
            .row_mut(s)
            .iter_mut()
            .zip(mean.row(stats_row))
            .zip(std.row(stats_row))
        {
            *out = act(m + sd * *out);
        }
    }
}

impl crate::optimizer::ParameterSet for BayesianMlp {
    fn grad_norm_squared(&self) -> f64 {
        BayesianMlp::grad_norm_squared(self)
    }

    fn visit_param_blocks(&mut self, f: &mut crate::optimizer::ParamBlockVisitor<'_>) {
        for layer in &mut self.layers {
            layer.visit_param_blocks(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;
    use crate::policy::standard_normal;
    use crate::softplus_derivative;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    // The per-weight-sampling predictor that `predict_with` replaced (one ε
    // per weight, the plain reparameterization trick), kept only as the
    // distributional oracle.

    impl BayesianLinear {
        /// Stochastic forward pass sampling every weight.
        fn forward_sample<R: Rng + ?Sized>(&self, input: &[f64], rng: &mut R) -> Vec<f64> {
            assert_eq!(input.len(), self.in_dim());
            (0..self.out_dim())
                .map(|r| {
                    let mut acc = 0.0;
                    for (c, &x) in input.iter().enumerate() {
                        let sigma = softplus(self.weight_rho.get(r, c));
                        acc += (self.weight_mu.get(r, c) + sigma * standard_normal(rng)) * x;
                    }
                    let bias = self.bias_mu[r] + softplus(self.bias_rho[r]) * standard_normal(rng);
                    self.activation.apply(acc + bias)
                })
                .collect()
        }
    }

    impl BayesianMlp {
        fn forward_sample<R: Rng + ?Sized>(&self, input: &[f64], rng: &mut R) -> Vec<f64> {
            let mut x = input.to_vec();
            for layer in &self.layers {
                x = layer.forward_sample(&x, rng);
            }
            x
        }

        /// Predictive mean and std from `num_samples` weight-sampling passes.
        fn predict<R: Rng + ?Sized>(
            &self,
            input: &[f64],
            num_samples: usize,
            rng: &mut R,
        ) -> BayesianPrediction {
            let values: Vec<f64> = (0..num_samples)
                .map(|_| self.forward_sample(input, rng)[0])
                .collect();
            let mean = values.iter().sum::<f64>() / num_samples as f64;
            let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                / (num_samples - 1) as f64;
            BayesianPrediction {
                mean,
                std: var.sqrt(),
            }
        }
    }

    // The per-call scale loops the cached σ, σ′ replaced: `softplus` and its
    // derivative evaluated afresh at every use, kept only as the bit-level
    // oracle of a training step.

    impl BayesianLinear {
        fn reference_resample_weights<R: Rng + ?Sized>(&mut self, sample: &mut Dense, rng: &mut R) {
            self.cached_weight_eps.resize(self.out_dim(), self.in_dim());
            self.cached_bias_eps.resize(self.out_dim(), 0.0);
            for r in 0..self.out_dim() {
                for c in 0..self.in_dim() {
                    let eps = standard_normal(rng);
                    self.cached_weight_eps.set(r, c, eps);
                    let w = self.weight_mu.get(r, c) + softplus(self.weight_rho.get(r, c)) * eps;
                    sample.weights.set(r, c, w);
                }
            }
            for r in 0..self.out_dim() {
                let eps = standard_normal(rng);
                self.cached_bias_eps[r] = eps;
                sample.bias[r] = self.bias_mu[r] + softplus(self.bias_rho[r]) * eps;
            }
        }

        /// One layer's backward pass with its own loops and GEMM scratch,
        /// never through `Dense::backward_batch`, whose use it checks.
        fn reference_backward_batch(
            &mut self,
            delta: &mut Matrix,
            input: &Matrix,
            pre: &Matrix,
            sampled_weights: &Matrix,
            grad_scratch: &mut Matrix,
            grad_input: Option<&mut Matrix>,
        ) {
            self.activation
                .mul_derivative_into(pre.data(), delta.data_mut());
            grad_scratch.resize(self.out_dim(), self.in_dim());
            delta.matmul_tn_acc_into(input, grad_scratch);
            for r in 0..self.out_dim() {
                for c in 0..self.in_dim() {
                    let g = grad_scratch.get(r, c);
                    self.grad_weight_mu
                        .set(r, c, self.grad_weight_mu.get(r, c) + g);
                    let chain = self.cached_weight_eps.get(r, c)
                        * softplus_derivative(self.weight_rho.get(r, c));
                    self.grad_weight_rho
                        .set(r, c, self.grad_weight_rho.get(r, c) + g * chain);
                }
            }
            for b in 0..delta.rows() {
                for (r, d) in delta.row(b).iter().enumerate() {
                    self.grad_bias_mu[r] += d;
                    self.grad_bias_rho[r] +=
                        d * self.cached_bias_eps[r] * softplus_derivative(self.bias_rho[r]);
                }
            }
            if let Some(grad_input) = grad_input {
                delta.matmul_into(sampled_weights, grad_input);
            }
        }

        fn reference_accumulate_kl_grad(&mut self, weight: f64) {
            for r in 0..self.out_dim() {
                for c in 0..self.in_dim() {
                    let mu = self.weight_mu.get(r, c);
                    let rho = self.weight_rho.get(r, c);
                    let sigma = softplus(rho).max(1e-9);
                    self.grad_weight_mu.set(
                        r,
                        c,
                        self.grad_weight_mu.get(r, c) + weight * mu / PRIOR_VAR,
                    );
                    let d_sigma = -1.0 / sigma + sigma / PRIOR_VAR;
                    self.grad_weight_rho.set(
                        r,
                        c,
                        self.grad_weight_rho.get(r, c)
                            + weight * d_sigma * softplus_derivative(rho),
                    );
                }
            }
            for i in 0..self.out_dim() {
                let mu = self.bias_mu[i];
                let rho = self.bias_rho[i];
                let sigma = softplus(rho).max(1e-9);
                self.grad_bias_mu[i] += weight * mu / PRIOR_VAR;
                let d_sigma = -1.0 / sigma + sigma / PRIOR_VAR;
                self.grad_bias_rho[i] += weight * d_sigma * softplus_derivative(rho);
            }
        }
    }

    impl BayesianMlp {
        /// Draws into a weight sample it builds itself, one scalar
        /// `standard_normal` per entry.
        fn reference_resample_weights<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            if self.sample.layers.is_empty() {
                for layer in &self.layers {
                    let dense = Dense::zeros(layer.in_dim(), layer.out_dim(), layer.activation);
                    self.sample.layers.push(dense);
                }
            }
            for (layer, dense) in self.layers.iter_mut().zip(&mut self.sample.layers) {
                layer.reference_resample_weights(dense, rng);
            }
        }

        /// Backpropagates through the caches of the product's forward pass
        /// with the layers' own delta ping-pong and GEMM scratch.
        fn reference_backward_batch(&mut self, grad_output: &Matrix, ws: &BatchWorkspace) {
            let mut delta = grad_output.clone();
            let (mut below, mut grad_scratch) = (Matrix::default(), Matrix::default());
            for (i, layer) in self.layers.iter_mut().enumerate().rev() {
                let grad_input = if i > 0 { Some(&mut below) } else { None };
                layer.reference_backward_batch(
                    &mut delta,
                    &ws.activations[i],
                    &ws.pre_activations[i],
                    &self.sample.layers[i].weights,
                    &mut grad_scratch,
                    grad_input,
                );
                std::mem::swap(&mut delta, &mut below);
            }
        }
    }

    /// Which code a training step runs, and whether the optimiser moves ρ
    /// between the backward pass and the KL gradient.
    #[derive(Clone, Copy)]
    struct Arm {
        reference: bool,
        step_before_kl: bool,
    }

    /// A regression minibatch over `[0, 1)^9` with a linear target.
    fn regression_batch(rng: &mut ChaCha8Rng, batch: usize) -> (Matrix, Vec<f64>) {
        let mut states = Matrix::zeros(batch, 9);
        let mut targets = vec![0.0; batch];
        for (b, target) in targets.iter_mut().enumerate() {
            for (c, v) in states.row_mut(b).iter_mut().enumerate() {
                *v = rng.gen_range(0.0..1.0);
                *target += if c % 2 == 0 { -*v } else { 0.5 * *v };
            }
        }
        (states, targets)
    }

    /// One ELBO step in the order `CostValueEstimator::fit` takes it: zero
    /// the gradients, draw, push the batch through, add the KL term, step.
    fn elbo_step(
        net: &mut BayesianMlp,
        opt: &mut Adam,
        (states, targets): &(Matrix, Vec<f64>),
        rng: &mut ChaCha8Rng,
        arm: Arm,
    ) {
        let mut ws = BatchWorkspace::new();
        let n = targets.len() as f64;
        net.zero_grad();
        if arm.reference {
            net.reference_resample_weights(rng);
        } else {
            net.resample_weights(rng);
        }
        let y = net.forward_batch(states, &mut ws);
        let mut grad = Matrix::zeros(targets.len(), 1);
        for (b, target) in targets.iter().enumerate() {
            grad.set(b, 0, (y.get(b, 0) - target) / n);
        }
        if arm.reference {
            net.reference_backward_batch(&grad, &ws);
        } else {
            net.backward_batch(&grad, &mut ws);
        }
        if arm.step_before_kl {
            opt.step_set(net);
        }
        if arm.reference {
            net.layers
                .iter_mut()
                .for_each(|l| l.reference_accumulate_kl_grad(1e-4 / n));
        } else {
            net.accumulate_kl_grad(1e-4 / n);
        }
        opt.step_set(net);
    }

    /// A `[9, 64, 32, 1]` estimator trunk (the production shape) trained for
    /// a few epochs through the batched path, so the posterior means are not
    /// the initializer's and the scales have moved off their common start.
    fn trained_trunk() -> BayesianMlp {
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let mut net = BayesianMlp::new(&[9, 64, 32, 1], &mut rng);
        let mut opt = Adam::new(net.num_parameters(), 5e-3);
        let batch = regression_batch(&mut rng, 48);
        let product = Arm {
            reference: false,
            step_before_kl: false,
        };
        for _ in 0..60 {
            elbo_step(&mut net, &mut opt, &batch, &mut rng, product);
        }
        net
    }

    /// Trains one net through the product and a clone of it, on a clone of
    /// the generator, through the reference for 40 steps, and requires every
    /// `μ` and `ρ` and the generators to end bit-equal.
    fn assert_product_matches_reference(step_before_kl: bool) {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let mut product = BayesianMlp::new(&[9, 64, 32, 1], &mut rng);
        let batch = regression_batch(&mut rng, 24);
        let mut reference = product.clone();
        let mut reference_rng = rng.clone();
        let mut product_opt = Adam::new(product.num_parameters(), 2e-3);
        let mut reference_opt = product_opt.clone();
        for _ in 0..40 {
            elbo_step(
                &mut product,
                &mut product_opt,
                &batch,
                &mut rng,
                Arm {
                    reference: false,
                    step_before_kl,
                },
            );
            elbo_step(
                &mut reference,
                &mut reference_opt,
                &batch,
                &mut reference_rng,
                Arm {
                    reference: true,
                    step_before_kl,
                },
            );
        }
        assert_eq!(rng, reference_rng, "the draws took different words");
        for (i, (p, r)) in product.layers.iter().zip(&reference.layers).enumerate() {
            for (name, a, b) in [
                ("weight_mu", p.weight_mu.data(), r.weight_mu.data()),
                ("weight_rho", p.weight_rho.data(), r.weight_rho.data()),
                ("bias_mu", &p.bias_mu[..], &r.bias_mu[..]),
                ("bias_rho", &p.bias_rho[..], &r.bias_rho[..]),
            ] {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "layer {i} {name}");
            }
        }
    }

    #[test]
    fn cached_scales_train_bit_identically_to_the_per_call_reference() {
        assert_product_matches_reference(false);
    }

    #[test]
    fn an_optimiser_step_before_the_kl_gradient_invalidates_the_cached_scales() {
        assert_product_matches_reference(true);
    }

    #[test]
    fn forward_mean_has_expected_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = BayesianMlp::new(&[3, 8, 1], &mut rng);
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 1);
        let y = net.forward_mean(&[0.1, 0.2, 0.3]);
        assert_eq!(y.len(), 1);
        assert!(y[0].is_finite());
    }

    #[test]
    fn stochastic_passes_differ_but_stay_near_the_mean_pass() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = BayesianMlp::new(&[2, 16, 1], &mut rng);
        let x = [0.4, 0.6];
        let mean_pass = net.forward_mean(&x)[0];
        let a = net.forward_sample(&x, &mut rng)[0];
        let b = net.forward_sample(&x, &mut rng)[0];
        assert_ne!(a, b, "posterior sampling should produce different outputs");
        assert!((a - mean_pass).abs() < 5.0);
    }

    #[test]
    fn kl_to_prior_is_nonnegative_and_shrinks_sigma_reduces_it_to_mu_term() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = BayesianMlp::new(&[2, 4, 1], &mut rng);
        assert!(net.kl_to_prior().is_finite());
        // KL must be >= 0 only when sigma <= prior and mu small; in general
        // the Gaussian KL is always >= 0.
        assert!(net.kl_to_prior() >= 0.0);
    }

    #[test]
    fn backward_mu_gradients_match_finite_differences_when_sigma_is_tiny() {
        // With rho very negative the sampled weights equal mu, so the
        // stochastic gradient must match the deterministic finite difference.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = BayesianMlp {
            layers: vec![BayesianLinear::new(3, 2, Activation::Tanh, &mut rng)],
            sample: Mlp::default(),
        };
        net.layers[0].weight_rho.fill(-40.0);
        net.layers[0].bias_rho.fill(-40.0);
        let x = [0.3, -0.2, 0.5];
        net.zero_grad();
        net.resample_weights(&mut rng);
        let mut ws = BatchWorkspace::new();
        let _ = net.forward_batch(&Matrix::from_vec(1, 3, x.to_vec()), &mut ws);
        net.backward_batch(&Matrix::from_vec(1, 2, vec![1.0, 1.0]), &mut ws);
        let layer = &mut net.layers[0];
        let h = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let orig = layer.weight_mu.get(r, c);
                layer.weight_mu.set(r, c, orig + h);
                let fp: f64 = layer.forward_mean(&x).iter().sum();
                layer.weight_mu.set(r, c, orig - h);
                let fm: f64 = layer.forward_mean(&x).iter().sum();
                layer.weight_mu.set(r, c, orig);
                let numeric = (fp - fm) / (2.0 * h);
                let analytic = layer.grad_weight_mu.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "mu grad mismatch at ({r},{c}): {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn bayesian_regression_learns_mean_and_reports_uncertainty() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut net = BayesianMlp::new(&[1, 24, 1], &mut rng);
        let mut opt = Adam::new(net.num_parameters(), 5e-3);
        // Fit y = 2x on x in [0, 1].
        let dataset: Vec<(f64, f64)> = (0..32)
            .map(|i| {
                let x = i as f64 / 32.0;
                (x, 2.0 * x)
            })
            .collect();
        let states = Matrix::from_vec(32, 1, dataset.iter().map(|(x, _)| *x).collect());
        let mut ws = BatchWorkspace::new();
        let mut grad = Matrix::zeros(32, 1);
        for _ in 0..400 {
            net.zero_grad();
            net.resample_weights(&mut rng);
            let y = net.forward_batch(&states, &mut ws);
            for (b, (_, t)) in dataset.iter().enumerate() {
                // d/dy of 0.5*(y-t)^2, averaged over the dataset
                grad.set(b, 0, (y.get(b, 0) - t) / dataset.len() as f64);
            }
            net.backward_batch(&grad, &mut ws);
            net.accumulate_kl_grad(1e-4 / dataset.len() as f64);
            opt.step_set(&mut net);
        }
        let pred = net.predict_with(&[0.5], 64, &mut rng, &mut PredictScratch::new());
        assert!(
            (pred.mean - 1.0).abs() < 0.2,
            "predictive mean {} should be near 1.0",
            pred.mean
        );
        assert!(
            pred.std >= 0.0 && pred.std < 1.0,
            "uncertainty {} should be modest",
            pred.std
        );
    }

    #[test]
    fn fast_predict_matches_the_weight_sampling_reference_in_distribution() {
        // Same predictive distribution, different draws: pool many 16-sample
        // predictions of each path and compare the first two moments within
        // Monte-Carlo tolerance (≈ 5 standard errors of either estimate).
        let net = trained_trunk();
        let input = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6];
        let (rounds, samples) = (500usize, 16usize);
        let pooled = |predict: &mut dyn FnMut() -> BayesianPrediction| {
            let (mut mean, mut var) = (0.0, 0.0);
            for _ in 0..rounds {
                let p = predict();
                mean += p.mean;
                var += p.std * p.std;
            }
            (mean / rounds as f64, (var / rounds as f64).sqrt())
        };
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let (ref_mean, ref_std) = pooled(&mut || net.predict(&input, samples, &mut rng));
        let mut scratch = PredictScratch::new();
        let (new_mean, new_std) =
            pooled(&mut || net.predict_with(&input, samples, &mut rng, &mut scratch));
        assert!(ref_std > 0.01, "the oracle needs a non-trivial spread");
        let n = (rounds * samples) as f64;
        let mean_tol = 5.0 * ref_std * (2.0 / n).sqrt();
        let std_tol = 5.0 * ref_std / n.sqrt();
        assert!(
            (new_mean - ref_mean).abs() < mean_tol,
            "predictive mean {new_mean} vs reference {ref_mean} (tol {mean_tol})"
        );
        assert!(
            (new_std - ref_std).abs() < std_tol,
            "predictive std {new_std} vs reference {ref_std} (tol {std_tol})"
        );
    }

    #[test]
    fn first_layer_pre_activation_moments_match_the_closed_form() {
        // One linear layer, identity activation: the output is exactly
        // N(μ·x + μ_b, σ²·x² + σ_b²), whichever path samples it.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut net = BayesianMlp::new(&[4, 1], &mut rng);
        net.layers[0].weight_rho.fill(-0.5);
        net.layers[0].bias_rho[0] = -1.0;
        net.layers[0].bias_mu[0] = 0.3;
        let x = [0.5, -1.5, 2.0, 0.25];
        let layer = &net.layers[0];
        let mean: f64 = crate::matrix::dot(layer.weight_mu.row(0), &x) + 0.3;
        let var: f64 =
            x.iter().map(|v| v * v).sum::<f64>() * softplus(-0.5).powi(2) + softplus(-1.0).powi(2);
        let n = 40_000;
        let p = net.predict_with(&x, n, &mut rng, &mut PredictScratch::new());
        assert!((p.mean - mean).abs() < 5.0 * (var / n as f64).sqrt());
        assert!((p.std - var.sqrt()).abs() < 5.0 * (var / (2 * n) as f64).sqrt());
    }

    #[test]
    fn fast_predict_tracks_parameter_updates_after_invalidate() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut net = BayesianMlp::new(&[2, 8, 1], &mut rng);
        let mut scratch = PredictScratch::new();
        let input = [0.3, 0.6];
        let _ = net.predict_with(&input, 4, &mut ChaCha8Rng::seed_from_u64(1), &mut scratch);
        // Perturb the posterior; a stale parameter cache would now diverge.
        for layer in &mut net.layers {
            layer.weight_rho.fill(-1.0);
            for rho in &mut layer.bias_rho {
                *rho = -1.0;
            }
        }
        let mut stale = scratch.clone();
        scratch.invalidate();
        let seeded = || ChaCha8Rng::seed_from_u64(2);
        let cold = net.predict_with(&input, 8, &mut seeded(), &mut PredictScratch::new());
        let warm = net.predict_with(&input, 8, &mut seeded(), &mut scratch);
        assert_eq!(warm.mean.to_bits(), cold.mean.to_bits());
        assert_eq!(warm.std.to_bits(), cold.std.to_bits());
        let old = net.predict_with(&input, 8, &mut seeded(), &mut stale);
        assert_ne!(old.std.to_bits(), cold.std.to_bits());
    }

    #[test]
    fn predict_consumes_the_words_of_one_scalar_draw_per_unit_per_sample() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let net = BayesianMlp::new(&[3, 6, 5, 1], &mut rng);
        let samples = 3;
        // A draw spends a value-dependent number of words, so over several
        // predictions some leave the one-word fast path.
        for seed in 0..50 {
            let mut used = ChaCha8Rng::seed_from_u64(seed);
            let mut expected = used.clone();
            let _ = net.predict_with(
                &[0.1, 0.2, 0.3],
                samples,
                &mut used,
                &mut PredictScratch::new(),
            );
            for _ in 0..samples * (6 + 5 + 1) {
                let _ = standard_normal(&mut expected);
            }
            assert_eq!(used, expected, "seed {seed}");
        }
    }

    #[test]
    fn predict_with_one_sample_has_zero_std() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = BayesianMlp::new(&[2, 8, 1], &mut rng);
        let p = net.predict_with(&[0.2, 0.8], 1, &mut rng, &mut PredictScratch::new());
        assert_eq!(p.std, 0.0);
    }

    #[test]
    fn kl_gradient_pushes_mu_toward_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut net = BayesianMlp::new(&[2, 4, 1], &mut rng);
        let mut opt = Adam::new(net.num_parameters(), 1e-2);
        let before = net.kl_to_prior();
        for _ in 0..200 {
            net.zero_grad();
            net.accumulate_kl_grad(1.0);
            opt.step_set(&mut net);
        }
        let after = net.kl_to_prior();
        assert!(
            after < before,
            "optimizing the KL alone must reduce it: {before} -> {after}"
        );
    }

    #[test]
    fn num_parameters_counts_mu_and_rho() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let layer = BayesianLinear::new(3, 2, Activation::Relu, &mut rng);
        assert_eq!(layer.num_parameters(), 2 * (3 * 2 + 2));
    }

    #[test]
    #[should_panic(expected = "forward_batch called before resample_weights")]
    fn batched_forward_without_resample_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let net = BayesianMlp::new(&[2, 4, 1], &mut rng);
        let mut ws = BatchWorkspace::new();
        let input = Matrix::zeros(3, 2);
        let _ = net.forward_batch(&input, &mut ws);
    }

    #[test]
    #[should_panic(expected = "backward_batch called before forward_batch")]
    fn backward_without_forward_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut net = BayesianMlp::new(&[2, 4, 1], &mut rng);
        net.backward_batch(&Matrix::zeros(3, 1), &mut BatchWorkspace::new());
    }

    #[test]
    #[should_panic(expected = "scalar output head")]
    fn predict_requires_scalar_output() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let net = BayesianMlp::new(&[2, 4, 2], &mut rng);
        let _ = net.predict_with(&[0.1, 0.2], 4, &mut rng, &mut PredictScratch::new());
    }
}
