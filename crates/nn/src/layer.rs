//! Fully connected (dense) layer with explicit forward/backward passes.
//!
//! Training is batched: [`Dense::forward_batch_into`] runs one GEMM for the
//! whole minibatch and [`Dense::backward_batch`] *accumulates* its gradients
//! into the layer (`grad_weights`, `grad_bias`); the caller scales the loss
//! gradient by `1 / batch` and owns every activation buffer, so the layer
//! itself holds parameters and gradients only — and the gradients are
//! run-time scratch, never serialised: a deserialised layer has none until
//! [`Dense::zero_grad`], which opens every update, sizes them.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::init::Init;
use crate::matrix::Matrix;

/// A dense layer `y = act(W x + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    pub(crate) weights: Matrix,
    pub(crate) bias: Vec<f64>,
    #[serde(skip)]
    pub(crate) grad_weights: Matrix,
    #[serde(skip)]
    grad_bias: Vec<f64>,
    activation: Activation,
}

impl Dense {
    /// Creates a new dense layer with the default initialization for the
    /// chosen activation (He for ReLU-family, Xavier otherwise) and zero bias.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let mut layer = Self::zeros(in_dim, out_dim, activation);
        let init = Init::for_activation(activation);
        for w in layer.weights.data_mut() {
            *w = init.sample(in_dim, out_dim, rng);
        }
        layer
    }

    /// A layer of the given shape with zero weights and bias, for a caller
    /// that writes the parameters itself (the Bayesian weight draw).
    pub(crate) fn zeros(in_dim: usize, out_dim: usize, activation: Activation) -> Self {
        Self {
            weights: Matrix::zeros(out_dim, in_dim),
            bias: vec![0.0; out_dim],
            grad_weights: Matrix::zeros(out_dim, in_dim),
            grad_bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Inference forward pass of one row into a caller-owned buffer — the
    /// per-row path of [`crate::mlp::Mlp::forward`] and of the fused cell
    /// batch ([`crate::cell::CellBatch`]).
    pub fn forward_row_into(&self, input: &[f64], out: &mut [f64]) {
        debug_assert_eq!(
            input.len(),
            self.in_dim(),
            "dense layer input size mismatch"
        );
        debug_assert_eq!(
            out.len(),
            self.out_dim(),
            "dense layer output size mismatch"
        );
        self.weights.matvec_into(input, out);
        for (p, b) in out.iter_mut().zip(self.bias.iter()) {
            *p = self.activation.apply(*p + b);
        }
    }

    /// Batched forward pass: one GEMM for the whole minibatch.
    ///
    /// `input` is `(batch × in_dim)`; `pre` and `out` are caller-owned
    /// buffers resized to `(batch × out_dim)` (no allocation once warm).
    /// `weights_t` is a scratch buffer receiving `Wᵀ`: transposing the
    /// weights once per minibatch (`O(out·in)`) lets the `O(batch·out·in)`
    /// GEMM run the row-streaming kernel whose inner loop the compiler
    /// vectorizes, instead of a scalar dot-reduction per output element.
    /// `pre` receives the pre-activation `X·Wᵀ + b` — keep it around and hand
    /// it back to [`Dense::backward_batch`] for training, or pass a scratch
    /// buffer for pure inference.
    pub fn forward_batch_into(
        &self,
        input: &Matrix,
        weights_t: &mut Matrix,
        pre: &mut Matrix,
        out: &mut Matrix,
    ) {
        debug_assert_eq!(
            input.cols(),
            self.in_dim(),
            "dense layer batch input size mismatch"
        );
        self.weights.transpose_into(weights_t);
        input.matmul_into(weights_t, pre);
        pre.add_row_broadcast(&self.bias);
        out.resize(pre.rows(), pre.cols());
        self.activation.apply_into(pre.data(), out.data_mut());
    }

    /// Batched backward pass.
    ///
    /// `delta` enters as `dL/dy` (batch × out_dim) and is turned into
    /// `dL/d(pre-activation)` in place using the `pre` buffer produced by the
    /// matching [`Dense::forward_batch_into`] call on `input`. Parameter
    /// gradients for the whole minibatch accumulate into the layer with one
    /// GEMM; when `grad_input` is `Some`, `dL/dx` is written into it (skip it
    /// for the first layer — its input gradient is never consumed).
    ///
    /// # Panics
    /// Panics if the buffer shapes are inconsistent.
    pub fn backward_batch(
        &mut self,
        delta: &mut Matrix,
        input: &Matrix,
        pre: &Matrix,
        grad_input: Option<&mut Matrix>,
    ) {
        assert_eq!(
            (delta.rows(), delta.cols()),
            (pre.rows(), pre.cols()),
            "backward_batch delta shape mismatch"
        );
        assert_eq!(
            delta.cols(),
            self.out_dim(),
            "backward_batch output dim mismatch"
        );
        assert_eq!(
            input.cols(),
            self.in_dim(),
            "backward_batch input dim mismatch"
        );
        assert_eq!(
            input.rows(),
            delta.rows(),
            "backward_batch batch size mismatch"
        );
        // delta <- dL/dy ⊙ act'(pre), whole minibatch at once.
        self.activation
            .mul_derivative_into(pre.data(), delta.data_mut());
        // dL/dW += δᵀ · X (one GEMM), dL/db += column sums of δ.
        delta.matmul_tn_acc_into(input, &mut self.grad_weights);
        for b in 0..delta.rows() {
            for (gb, d) in self.grad_bias.iter_mut().zip(delta.row(b).iter()) {
                *gb += d;
            }
        }
        // dL/dx = δ · W.
        if let Some(grad_input) = grad_input {
            delta.matmul_into(&self.weights, grad_input);
        }
    }

    /// Immutable access to the weight matrix (used by batched policy code).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Immutable access to the bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Squared l2 norm of the accumulated gradients (for global-norm
    /// clipping without materializing a flat gradient vector).
    pub fn grad_norm_squared(&self) -> f64 {
        self.grad_weights.data().iter().map(|g| g * g).sum::<f64>()
            + self.grad_bias.iter().map(|g| g * g).sum::<f64>()
    }

    /// Visits `(params, grads, scale)` blocks — weights, then bias, the
    /// order of [`Dense::parameters`] — without allocating.
    pub fn visit_param_blocks(&mut self, f: &mut crate::optimizer::ParamBlockVisitor<'_>) {
        f(self.weights.data_mut(), self.grad_weights.data(), 1.0);
        f(&mut self.bias, &self.grad_bias, 1.0);
    }

    /// Resets accumulated gradients to zero, sized from the parameters.
    pub fn zero_grad(&mut self) {
        self.grad_weights
            .resize(self.weights.rows(), self.weights.cols());
        self.grad_bias.clear();
        self.grad_bias.resize(self.bias.len(), 0.0);
    }

    /// Number of trainable parameters in this layer.
    pub fn num_parameters(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Immutable snapshot of the flat parameter vector (weights then bias).
    pub fn parameters(&self) -> Vec<f64> {
        self.weights
            .data()
            .iter()
            .copied()
            .chain(self.bias.iter().copied())
            .collect()
    }

    /// Overwrites parameters from a flat vector produced by [`Dense::parameters`].
    ///
    /// # Panics
    /// Panics if the length does not match [`Dense::num_parameters`].
    pub fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.num_parameters(),
            "parameter length mismatch"
        );
        let nw = self.weights.rows() * self.weights.cols();
        self.weights.data_mut().copy_from_slice(&params[..nw]);
        self.bias.copy_from_slice(&params[nw..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{batch_matrix, BATCHES};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// One row through the inference path.
    fn forward(layer: &Dense, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; layer.out_dim()];
        layer.forward_row_into(x, &mut y);
        y
    }

    /// Σ over the batch of Σ over the outputs, through the inference path.
    fn sum_loss(layer: &Dense, x: &Matrix) -> f64 {
        (0..x.rows())
            .map(|b| forward(layer, x.row(b)).iter().sum::<f64>())
            .sum()
    }

    /// Runs forward + backward with `dL/dy = 1` and returns `dL/dx`.
    fn backward_ones(layer: &mut Dense, x: &Matrix) -> Matrix {
        let (mut wt, mut pre, mut out) = (Matrix::default(), Matrix::default(), Matrix::default());
        layer.forward_batch_into(x, &mut wt, &mut pre, &mut out);
        let mut delta = Matrix::zeros(x.rows(), layer.out_dim());
        delta.fill(1.0);
        let mut dx = Matrix::default();
        layer.backward_batch(&mut delta, x, &pre, Some(&mut dx));
        dx
    }

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut rng);
        layer.set_parameters(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]);
        let y = forward(&layer, &[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn forward_batch_rows_equal_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let layer = Dense::new(5, 3, Activation::Relu, &mut rng);
        for batch in BATCHES {
            let x = batch_matrix(batch, 5, 0.0);
            let (mut wt, mut pre, mut out) =
                (Matrix::default(), Matrix::default(), Matrix::default());
            layer.forward_batch_into(&x, &mut wt, &mut pre, &mut out);
            assert_eq!((out.rows(), out.cols()), (batch, 3));
            for b in 0..batch {
                for (y, r) in out.row(b).iter().zip(forward(&layer, x.row(b))) {
                    assert!((y - r).abs() < 1e-12, "batch {batch} row {b}: {y} vs {r}");
                }
            }
        }
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        for batch in BATCHES {
            let x = batch_matrix(batch, 3, 0.0);
            layer.zero_grad();
            backward_ones(&mut layer, &x);
            let analytic: Vec<f64> = layer
                .grad_weights
                .data()
                .iter()
                .copied()
                .chain(layer.grad_bias.iter().copied())
                .collect();

            let params = layer.parameters();
            let h = 1e-6;
            for (i, analytic_g) in analytic.iter().enumerate() {
                let mut plus = layer.clone();
                let mut minus = layer.clone();
                let mut p = params.clone();
                p[i] += h;
                plus.set_parameters(&p);
                p[i] -= 2.0 * h;
                minus.set_parameters(&p);
                let numeric = (sum_loss(&plus, &x) - sum_loss(&minus, &x)) / (2.0 * h);
                assert!(
                    (numeric - analytic_g).abs() < 1e-4,
                    "batch {batch} param {i}: numeric {numeric} vs analytic {analytic_g}"
                );
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut layer = Dense::new(4, 3, Activation::Sigmoid, &mut rng);
        for batch in BATCHES {
            let x = batch_matrix(batch, 4, 0.0);
            let dx = backward_ones(&mut layer, &x);
            assert_eq!((dx.rows(), dx.cols()), (batch, 4));
            let h = 1e-6;
            for b in 0..batch {
                for i in 0..4 {
                    let mut xp = x.row(b).to_vec();
                    xp[i] += h;
                    let mut xm = x.row(b).to_vec();
                    xm[i] -= h;
                    let fp: f64 = forward(&layer, &xp).iter().sum();
                    let fm: f64 = forward(&layer, &xm).iter().sum();
                    let numeric = (fp - fm) / (2.0 * h);
                    assert!((numeric - dx.get(b, i)).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn zero_grad_resets_accumulation() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut layer = Dense::new(2, 2, Activation::Relu, &mut rng);
        backward_ones(&mut layer, &Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        assert!(layer.grad_norm_squared() > 0.0);
        layer.zero_grad();
        layer.visit_param_blocks(&mut |_, grads, _| assert!(grads.iter().all(|&g| g == 0.0)));
    }

    #[test]
    fn parameter_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut layer = Dense::new(6, 4, Activation::Relu, &mut rng);
        let p = layer.parameters();
        assert_eq!(p.len(), layer.num_parameters());
        layer.set_parameters(&p);
        assert_eq!(layer.parameters(), p);
    }

    #[test]
    #[should_panic(expected = "backward_batch delta shape mismatch")]
    fn backward_without_forward_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut layer = Dense::new(2, 2, Activation::Relu, &mut rng);
        // `pre` was never filled by a forward pass.
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let mut delta = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        layer.backward_batch(&mut delta, &x, &Matrix::default(), None);
    }
}
