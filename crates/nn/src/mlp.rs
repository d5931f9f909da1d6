//! Multi-layer perceptron built from [`Dense`] layers.
//!
//! The OnSlicing paper uses 3-layer fully connected trunks of sizes
//! `128 x 64 x 32` with ReLU hidden activations for every policy network
//! (§6, "The OnSlicing agents"); [`Mlp::onslicing_default`] builds exactly
//! that shape.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::layer::Dense;
use crate::matrix::Matrix;

/// Reusable per-layer scratch buffers for the batched forward/backward pass.
///
/// One workspace serves one network (or several networks of identical
/// architecture). All buffers are plain [`Matrix`] values that are *resized*,
/// never reallocated, between minibatches — after the first (largest) batch
/// the steady-state forward/backward path performs zero heap allocations.
///
/// The workspace also carries the caches the backward pass needs
/// (per-layer inputs and pre-activations), which keeps `Mlp::forward_batch`
/// usable through `&self` and lets one network own many concurrent batched
/// evaluations if needed.
#[derive(Debug, Clone, Default)]
pub struct BatchWorkspace {
    /// `activations[0]` is the input batch; `activations[i + 1]` is layer
    /// `i`'s output. Length `num_layers + 1` once used.
    activations: Vec<Matrix>,
    /// `pre_activations[i]` is layer `i`'s pre-activation batch.
    pre_activations: Vec<Matrix>,
    /// Per-layer transposed-weight scratch for the forward GEMM.
    weights_t: Vec<Matrix>,
    /// Ping-pong buffers for the backward delta.
    delta_a: Matrix,
    delta_b: Matrix,
}

impl BatchWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, num_layers: usize) {
        self.activations
            .resize_with(num_layers + 1, Matrix::default);
        self.pre_activations
            .resize_with(num_layers, Matrix::default);
        self.weights_t.resize_with(num_layers, Matrix::default);
    }

    /// The input buffer, resized to `(batch × dim)`; fill it (e.g. by
    /// gathering minibatch rows) and pass the workspace to
    /// [`Mlp::forward_batch`] with `input: None` to avoid an extra copy.
    pub fn input_mut(&mut self, batch: usize, dim: usize) -> &mut Matrix {
        if self.activations.is_empty() {
            self.activations.push(Matrix::default());
        }
        self.activations[0].resize(batch, dim);
        &mut self.activations[0]
    }

    /// The output batch of the last `forward_batch` call.
    pub fn output(&self) -> &Matrix {
        self.activations
            .last()
            .expect("forward_batch has not run on this workspace")
    }
}

/// A feed-forward network: a stack of dense layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP from a list of layer sizes.
    ///
    /// `sizes = [in, h1, ..., out]`; hidden layers use `hidden_activation`,
    /// the final layer uses `output_activation`.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(
        sizes: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least an input and an output size"
        );
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let is_last = layers.len() == sizes.len() - 2;
            let act = if is_last {
                output_activation
            } else {
                hidden_activation
            };
            layers.push(Dense::new(w[0], w[1], act, rng));
        }
        Self { layers }
    }

    /// The paper's default trunk: `input -> 128 -> 64 -> 32 -> output` with
    /// ReLU hidden layers.
    pub fn onslicing_default<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        output_activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self::new(
            &[input_dim, 128, 64, 32, output_dim],
            Activation::Relu,
            output_activation,
            rng,
        )
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.in_dim())
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.out_dim())
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Immutable view of the layer stack (used by benchmarks reconstructing
    /// reference implementations around the same weights).
    pub fn layers_ref(&self) -> &[Dense] {
        &self.layers
    }

    /// Inference-only forward pass.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut x = input.to_vec();
        for layer in &self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Batched forward pass: one GEMM per layer for the whole minibatch.
    ///
    /// `input` is `(batch × input_dim)`. Activations and pre-activations are
    /// cached in `ws` for a subsequent [`Mlp::backward_batch`]; the returned
    /// reference is the `(batch × output_dim)` output living inside `ws`.
    /// Steady state performs zero heap allocations.
    pub fn forward_batch<'w>(&self, input: &Matrix, ws: &'w mut BatchWorkspace) -> &'w Matrix {
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "forward_batch input dim mismatch"
        );
        let buf = ws.input_mut(input.rows(), input.cols());
        buf.data_mut().copy_from_slice(input.data());
        self.forward_batch_prefilled(ws)
    }

    /// Like [`Mlp::forward_batch`], but the input batch was already written
    /// into [`BatchWorkspace::input_mut`] — the gather-into-workspace pattern
    /// the PPO minibatch loop uses to skip one copy.
    pub fn forward_batch_prefilled<'w>(&self, ws: &'w mut BatchWorkspace) -> &'w Matrix {
        ws.prepare(self.layers.len());
        assert_eq!(
            ws.activations[0].cols(),
            self.input_dim(),
            "workspace input dim mismatch"
        );
        for (i, layer) in self.layers.iter().enumerate() {
            // Split so the layer reads activations[i] and writes
            // pre_activations[i] / activations[i + 1] without overlap.
            let BatchWorkspace {
                activations,
                pre_activations,
                weights_t,
                ..
            } = ws;
            let (head, tail) = activations.split_at_mut(i + 1);
            layer.forward_batch_into(
                &head[i],
                &mut weights_t[i],
                &mut pre_activations[i],
                &mut tail[0],
            );
        }
        ws.output()
    }

    /// Batched backward pass over the caches of the last
    /// [`Mlp::forward_batch`] on `ws`: `grad_output` is `dL/dy` for the whole
    /// minibatch `(batch × output_dim)`. Parameter gradients accumulate into
    /// the layers (one GEMM per layer); the input gradient is not computed —
    /// no caller needs `dL/dx` on the batched path.
    ///
    /// # Panics
    /// Panics if `ws` was not filled by a matching forward pass.
    pub fn backward_batch(&mut self, grad_output: &Matrix, ws: &mut BatchWorkspace) {
        assert_eq!(
            ws.activations.len(),
            self.layers.len() + 1,
            "backward_batch called before forward_batch"
        );
        ws.delta_a.resize(grad_output.rows(), grad_output.cols());
        ws.delta_a.data_mut().copy_from_slice(grad_output.data());
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let BatchWorkspace {
                activations,
                pre_activations,
                delta_a,
                delta_b,
                ..
            } = ws;
            let grad_input = if i > 0 { Some(&mut *delta_b) } else { None };
            layer.backward_batch(delta_a, &activations[i], &pre_activations[i], grad_input);
            if i > 0 {
                std::mem::swap(delta_a, delta_b);
            }
        }
    }

    /// Squared l2 norm of all accumulated gradients.
    pub fn grad_norm_squared(&self) -> f64 {
        self.layers.iter().map(Dense::grad_norm_squared).sum()
    }

    /// Visits `(params, grads, scale)` blocks layer by layer — the order of
    /// [`Mlp::parameters`] — without allocating.
    pub fn visit_param_blocks(&mut self, f: &mut crate::optimizer::ParamBlockVisitor<'_>) {
        for layer in &mut self.layers {
            layer.visit_param_blocks(f);
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

    /// Flat snapshot of all parameters.
    pub fn parameters(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for layer in &self.layers {
            out.extend(layer.parameters());
        }
        out
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    /// Panics if the length does not match [`Mlp::num_parameters`].
    pub fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.num_parameters(),
            "parameter length mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            let n = layer.num_parameters();
            layer.set_parameters(&params[offset..offset + n]);
            offset += n;
        }
    }

    /// What a deserialised network must satisfy before a kernel slices it:
    /// every layer's bias is as long as its weight matrix has rows.
    pub fn validate(&self) -> Result<(), String> {
        for (i, layer) in self.layers.iter().enumerate() {
            if layer.bias().len() != layer.out_dim() {
                return Err(format!(
                    "dense layer {i} has {} rows and a bias of length {}",
                    layer.out_dim(),
                    layer.bias().len()
                ));
            }
        }
        Ok(())
    }
}

impl crate::optimizer::ParameterSet for Mlp {
    fn grad_norm_squared(&self) -> f64 {
        Mlp::grad_norm_squared(self)
    }

    fn visit_param_blocks(&mut self, f: &mut crate::optimizer::ParamBlockVisitor<'_>) {
        Mlp::visit_param_blocks(self, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{mse_grad, mse_loss};
    use crate::optimizer::Adam;
    use crate::test_util::{batch_matrix, BATCHES};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The accumulated gradients in [`Mlp::parameters`] order.
    fn flat_grads(net: &mut Mlp) -> Vec<f64> {
        let mut out = Vec::new();
        net.visit_param_blocks(&mut |_, grads, _| out.extend_from_slice(grads));
        out
    }

    /// Stateless per-sample backprop: `Σ_b ∂L_b/∂θ` in [`Mlp::parameters`]
    /// order, from `weights()`/`bias()` alone (an outer product for the
    /// weights, `Wᵀδ` for the input gradient) — the reference the batched
    /// GEMM path is compared against.
    fn per_sample_reference_grads(net: &Mlp, inputs: &Matrix, grads: &Matrix) -> Vec<f64> {
        let mut total = vec![0.0; net.num_parameters()];
        for b in 0..inputs.rows() {
            let mut acts = vec![inputs.row(b).to_vec()];
            let mut pres = Vec::new();
            for layer in net.layers_ref() {
                let mut pre = layer.weights().matvec(&acts[acts.len() - 1]);
                for (p, bias) in pre.iter_mut().zip(layer.bias()) {
                    *p += bias;
                }
                acts.push(pre.iter().map(|&z| layer.activation().apply(z)).collect());
                pres.push(pre);
            }
            let mut g = grads.row(b).to_vec();
            let mut end = total.len();
            for (l, layer) in net.layers_ref().iter().enumerate().rev() {
                let (w, in_dim) = (layer.weights(), layer.in_dim());
                let delta: Vec<f64> = g
                    .iter()
                    .zip(&pres[l])
                    .map(|(g, &z)| g * layer.activation().derivative(z))
                    .collect();
                let start = end - layer.num_parameters();
                let (gw, gb) = total[start..end].split_at_mut(in_dim * layer.out_dim());
                for (r, d) in delta.iter().enumerate() {
                    for (c, x) in acts[l].iter().enumerate() {
                        gw[r * in_dim + c] += d * x;
                    }
                    gb[r] += d;
                }
                g = (0..in_dim)
                    .map(|c| delta.iter().enumerate().map(|(r, d)| w.get(r, c) * d).sum())
                    .collect();
                end = start;
            }
        }
        total
    }

    #[test]
    fn dimensions_are_derived_from_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = Mlp::new(
            &[7, 16, 8, 3],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        assert_eq!(net.input_dim(), 7);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.num_layers(), 3);
    }

    #[test]
    fn onslicing_default_has_paper_architecture() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = Mlp::onslicing_default(20, 10, Activation::Sigmoid, &mut rng);
        assert_eq!(net.num_layers(), 4);
        assert_eq!(net.input_dim(), 20);
        assert_eq!(net.output_dim(), 10);
        // 20*128+128 + 128*64+64 + 64*32+32 + 32*10+10
        assert_eq!(
            net.num_parameters(),
            20 * 128 + 128 + 128 * 64 + 64 + 64 * 32 + 32 + 32 * 10 + 10
        );
    }

    #[test]
    fn sigmoid_output_is_in_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = Mlp::new(&[4, 8, 3], Activation::Relu, Activation::Sigmoid, &mut rng);
        let y = net.forward(&[10.0, -10.0, 3.0, 0.0]);
        assert!(y.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn gradient_check_full_network() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = Mlp::new(&[3, 5, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let mut ws = BatchWorkspace::new();
        for batch in BATCHES {
            let x = batch_matrix(batch, 3, 0.0);
            let target = batch_matrix(batch, 2, 1.0);
            // L = Σ_b mse(net(x_b), t_b), evaluated through the inference path.
            let loss = |net: &Mlp| -> f64 {
                (0..batch)
                    .map(|b| mse_loss(&net.forward(x.row(b)), target.row(b)))
                    .sum()
            };

            net.zero_grad();
            let y = net.forward_batch(&x, &mut ws);
            let mut grad = Matrix::zeros(batch, 2);
            for b in 0..batch {
                grad.copy_row_from(b, &mse_grad(y.row(b), target.row(b)));
            }
            net.backward_batch(&grad, &mut ws);

            let analytic = flat_grads(&mut net);
            let params = net.parameters();
            let h = 1e-6;
            for i in (0..params.len()).step_by(7) {
                let mut p = params.clone();
                let mut np = net.clone();
                p[i] += h;
                np.set_parameters(&p);
                let mut nm = net.clone();
                p[i] -= 2.0 * h;
                nm.set_parameters(&p);
                let numeric = (loss(&np) - loss(&nm)) / (2.0 * h);
                assert!(
                    (numeric - analytic[i]).abs() < 1e-4,
                    "batch {batch} param {i}: numeric {numeric} vs analytic {}",
                    analytic[i]
                );
            }
        }
    }

    #[test]
    fn can_learn_a_simple_regression_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut net = Mlp::new(
            &[2, 24, 24, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let mut opt = Adam::new(net.num_parameters(), 5e-3);
        // Learn f(a, b) = a * 0.5 + b * 0.25 on an 8 × 8 grid.
        let n = 64;
        let mut inputs = Matrix::zeros(n, 2);
        let mut targets = Matrix::zeros(n, 1);
        for i in 0..n {
            let a = (i % 8) as f64 / 8.0;
            let b = (i / 8) as f64 / 8.0;
            inputs.copy_row_from(i, &[a, b]);
            targets.set(i, 0, 0.5 * a + 0.25 * b);
        }
        let mut ws = BatchWorkspace::new();
        let mut grad = Matrix::zeros(n, 1);
        for _ in 0..400 {
            net.zero_grad();
            let y = net.forward_batch(&inputs, &mut ws);
            for i in 0..n {
                let g = mse_grad(y.row(i), targets.row(i));
                grad.set(i, 0, g[0] / n as f64);
            }
            net.backward_batch(&grad, &mut ws);
            opt.step_set(&mut net);
        }
        let total: f64 = (0..n)
            .map(|i| mse_loss(&net.forward(inputs.row(i)), targets.row(i)))
            .sum();
        assert!(
            total / (n as f64) < 1e-3,
            "network failed to fit linear target"
        );
    }

    #[test]
    fn forward_batch_matches_per_sample_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let net = Mlp::new(
            &[5, 16, 8, 3],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        let mut batch = Matrix::zeros(7, 5);
        for b in 0..7 {
            for c in 0..5 {
                batch.set(b, c, (b as f64 - 3.0) * 0.3 + c as f64 * 0.1);
            }
        }
        let mut ws = BatchWorkspace::new();
        let out = net.forward_batch(&batch, &mut ws);
        for b in 0..7 {
            let per_sample = net.forward(batch.row(b));
            for (x, y) in out.row(b).iter().zip(per_sample.iter()) {
                assert!((x - y).abs() < 1e-12, "row {b}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn backward_batch_accumulates_the_same_gradients_as_per_sample_backward() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut net = Mlp::new(
            &[4, 12, 6, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        let mut ws = BatchWorkspace::new();
        for batch in BATCHES {
            let inputs = batch_matrix(batch, 4, 0.0);
            let grads = batch_matrix(batch, 2, 2.0);
            let reference = per_sample_reference_grads(&net, &inputs, &grads);

            net.zero_grad();
            let _ = net.forward_batch(&inputs, &mut ws);
            net.backward_batch(&grads, &mut ws);

            for (i, (x, y)) in reference.iter().zip(flat_grads(&mut net)).enumerate() {
                assert!(
                    (x - y).abs() < 1e-12,
                    "batch {batch} grad {i}: per-sample {x} vs batched {y}"
                );
            }
        }
    }

    #[test]
    fn workspace_serves_varying_batch_sizes_without_confusion() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let net = Mlp::new(&[3, 8, 2], Activation::Relu, Activation::Sigmoid, &mut rng);
        let mut ws = BatchWorkspace::new();
        for &batch in &[16usize, 3, 16, 1] {
            let mut input = Matrix::zeros(batch, 3);
            for b in 0..batch {
                input.set(b, 0, b as f64 * 0.1);
            }
            let out = net.forward_batch(&input, &mut ws);
            assert_eq!((out.rows(), out.cols()), (batch, 2));
            for b in 0..batch {
                let reference = net.forward(input.row(b));
                for (x, y) in out.row(b).iter().zip(reference.iter()) {
                    assert!((x - y).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn copy_parameters_from_makes_networks_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = Mlp::new(&[3, 8, 2], Activation::Relu, Activation::Sigmoid, &mut rng);
        let mut b = Mlp::new(&[3, 8, 2], Activation::Relu, Activation::Sigmoid, &mut rng);
        b.set_parameters(&a.parameters());
        let x = vec![0.1, 0.9, -0.3];
        assert_eq!(a.forward(&x), b.forward(&x));
    }
}
