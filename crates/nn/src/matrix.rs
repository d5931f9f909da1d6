//! A minimal row-major dense matrix used for batched linear algebra.
//!
//! This is the numeric hot path of the whole reproduction: every agent
//! decision and every PPO minibatch funnels through these kernels. Three
//! design rules keep it fast without pulling in a BLAS:
//!
//! * **caller-owned outputs** — every product has an `_into` variant writing
//!   into a reusable buffer, so steady-state training performs no heap
//!   allocation;
//! * **register-tiled kernels** — [`Matrix::matmul_into`] accumulates a
//!   `4 × W` output tile entirely in registers (the batched dense-layer
//!   forward transposes `W` once per minibatch via
//!   [`Matrix::transpose_into`] to reach it), and
//!   [`Matrix::matmul_tn_acc_into`] does the same for the `δᵀ · X` weight
//!   gradients;
//! * **unrolled reductions** — [`dot`] runs over four independent
//!   accumulators, breaking the floating-point add dependency chain that
//!   serializes a naive loop, and [`Matrix::matvec_into`] interleaves four
//!   output rows through the same reduction ([`dot4`]) so single-sample
//!   inference pipelines too.
//!
//! ## Determinism
//!
//! Every kernel computes each output element with a fixed, tiling-invariant
//! reduction order: `matmul_into` sums the inner dimension sequentially per
//! element (whatever the tile width), and the matvec kernels reproduce
//! [`dot`]'s four-accumulator order per row. Cell-fused callers
//! (`onslicing_nn::cell`) therefore produce bit-identical results to the
//! per-slice paths they replace. The kernels never spawn threads:
//! parallelism lives one level up, across slices and cells.

use serde::{DeError, Deserialize, Serialize, Value};

/// Widest register tile, in output columns, tried by the tiled GEMM kernels
/// ([`Matrix::matmul_into`], [`Matrix::matmul_tn_acc_into`]).
///
/// This is the **single tuning knob** of the row-tile cascade: the kernels
/// sweep tile widths `TILE_W, TILE_W/2, TILE_W/4, TILE_W/8, 1` until the
/// remaining columns fit, so the scalar tail (`W = 1`) only runs for the
/// final `n mod 2` column. 16 columns × 4 rows keeps the accumulator tile
/// inside the 32 architectural vector registers of AVX-512/NEON-class cores
/// while remaining profitable on AVX2 (register spills stay L1-resident).
/// Must be a power of two ≥ 8. Changing it is safe for determinism — the
/// per-element reduction order is tile-width-invariant (see module docs).
pub const TILE_W: usize = 16;

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Written by hand so that a document whose `data` does not hold
/// `rows × cols` elements is refused where it enters: every kernel slices
/// `data` by the two dimensions and would panic on the first use instead.
impl Deserialize for Matrix {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| DeError(format!("missing field `{name}` in Matrix")))
        };
        let rows = usize::from_value(field("rows")?)?;
        let cols = usize::from_value(field("cols")?)?;
        let data = Vec::<f64>::from_value(field("data")?)?;
        let expected = rows.checked_mul(cols);
        if expected != Some(data.len()) {
            return Err(DeError(format!(
                "Matrix `data` holds {} elements, its {rows} rows × {cols} columns need {}",
                data.len(),
                expected.map_or("more than a `usize`".to_string(), |n| n.to_string())
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

/// Register-tile micro-kernel for `matmul_into`: accumulates a
/// `4 × W` output tile (four rows of `A` against `W` columns of `B`) across
/// the whole inner dimension, entirely in registers.
#[inline(always)]
fn gemm_tile_rows<const W: usize>(
    a: [&[f64]; 4],
    b_data: &[f64],
    n: usize,
    j: usize,
) -> [[f64; W]; 4] {
    let mut acc = [[0.0f64; W]; 4];
    for k in 0..a[0].len() {
        let b: &[f64; W] = b_data[k * n + j..k * n + j + W]
            .try_into()
            .expect("tile width");
        let aq = [a[0][k], a[1][k], a[2][k], a[3][k]];
        for (acc_row, aq) in acc.iter_mut().zip(aq) {
            for (o, b) in acc_row.iter_mut().zip(b) {
                *o += aq * b;
            }
        }
    }
    acc
}

/// Register-tile micro-kernel for `matmul_tn_acc_into`: accumulates the
/// `4 × W` tile `δᵀ·X` (four δ columns at `k` against `W` X columns at `j`)
/// across the whole batch, entirely in registers.
#[inline(always)]
fn gemm_tile_tn<const W: usize>(
    d_data: &[f64],
    d_cols: usize,
    x_data: &[f64],
    n: usize,
    batch: usize,
    k: usize,
    j: usize,
) -> [[f64; W]; 4] {
    let mut acc = [[0.0f64; W]; 4];
    for b in 0..batch {
        let d_at = b * d_cols + k;
        let d = [
            d_data[d_at],
            d_data[d_at + 1],
            d_data[d_at + 2],
            d_data[d_at + 3],
        ];
        let x: &[f64; W] = x_data[b * n + j..b * n + j + W]
            .try_into()
            .expect("tile width");
        for (acc_row, d) in acc.iter_mut().zip(d) {
            for (o, x) in acc_row.iter_mut().zip(x) {
                *o += d * x;
            }
        }
    }
    acc
}

/// One 4-row block of `out = A · B`: runs the register-tile cascade
/// (`TILE_W` down to the scalar tail) over all `n` output columns of rows
/// `i..i + 4`, writing into the block's slice of the output buffer.
#[inline(always)]
fn gemm_block_rows(a_data: &[f64], kd: usize, b_data: &[f64], n: usize, i: usize, out: &mut [f64]) {
    let a = [
        &a_data[i * kd..(i + 1) * kd],
        &a_data[(i + 1) * kd..(i + 2) * kd],
        &a_data[(i + 2) * kd..(i + 3) * kd],
        &a_data[(i + 3) * kd..(i + 4) * kd],
    ];
    let mut j = 0;
    macro_rules! row_tile_pass {
        ($w:expr) => {
            #[allow(
                clippy::int_plus_one,
                reason = "`j + $w <= n` keeps every width on the same literal guard; `j < n` only holds for the `$w == 1` pass"
            )]
            while j + $w <= n {
                let acc = gemm_tile_rows::<{ $w }>(a, b_data, n, j);
                for (r, acc_row) in acc.iter().enumerate() {
                    out[r * n + j..r * n + j + $w].copy_from_slice(acc_row);
                }
                j += $w;
            }
        };
    }
    row_tile_pass!(TILE_W);
    row_tile_pass!(TILE_W / 2);
    row_tile_pass!(TILE_W / 4);
    row_tile_pass!(TILE_W / 8);
    row_tile_pass!(1);
}

/// Four-row interleaved [`dot`] micro-kernel: `out[r] = rows[r] · v` for four
/// matrix rows in a single pass over `v`.
///
/// Each row keeps its own four accumulators and combines them exactly as
/// [`dot`] does — `(s0 + s1) + (s2 + s3) + tail` over sequential 4-chunks —
/// so every output is **bit-identical** to `dot(rows[r], v)`; interleaving
/// only widens the instruction-level parallelism from 4 to 16 independent
/// FMA chains and lets the four rows share each load of `v`.
#[inline(always)]
pub fn dot4(rows: [&[f64]; 4], v: &[f64]) -> [f64; 4] {
    let len = v.len();
    for row in &rows {
        assert_eq!(row.len(), len, "dot4 length mismatch");
    }
    let main = len - len % 4;
    let mut acc = [[0.0f64; 4]; 4];
    let mut k = 0;
    while k < main {
        let vb = [v[k], v[k + 1], v[k + 2], v[k + 3]];
        for (acc_row, row) in acc.iter_mut().zip(rows.iter()) {
            acc_row[0] += row[k] * vb[0];
            acc_row[1] += row[k + 1] * vb[1];
            acc_row[2] += row[k + 2] * vb[2];
            acc_row[3] += row[k + 3] * vb[3];
        }
        k += 4;
    }
    let mut out = [0.0f64; 4];
    for (o, (acc_row, row)) in out.iter_mut().zip(acc.iter().zip(rows.iter())) {
        let mut tail = 0.0;
        for (x, y) in row[main..].iter().zip(v[main..].iter()) {
            tail += x * y;
        }
        *o = (acc_row[0] + acc_row[1]) + (acc_row[2] + acc_row[3]) + tail;
    }
    out
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix (a convenient workspace placeholder —
    /// [`Matrix::resize`] gives it its real shape on first use).
    fn default() -> Self {
        Self {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows are not allowed");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major storage.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns the element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes the matrix in place, reusing the existing allocation when it
    /// is large enough. The contents after a resize are all zeros.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns row `r` as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies a slice into row `r`.
    ///
    /// # Panics
    /// Panics if `src.len() != cols`.
    pub fn copy_row_from(&mut self, r: usize, src: &[f64]) {
        self.row_mut(r).copy_from_slice(src);
    }

    /// Adds `bias` to every row (the batched dense-layer bias term).
    ///
    /// # Panics
    /// Panics if `bias.len() != cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        for r in 0..self.rows {
            for (x, b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *x += b;
            }
        }
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `out = self * other`, writing into a caller-owned
    /// buffer (resized as needed, no allocation once warm).
    ///
    /// The main body runs a register-tiled micro-kernel: a `4 × TILE_W`
    /// output tile (four rows of `A` against [`TILE_W`] columns of `B`) is
    /// accumulated entirely in registers while the `B` panel for the tile
    /// stays L1-resident, giving independent FMA streams per `k` step
    /// instead of a store-bandwidth-bound row update. Ragged edges fall back
    /// to an unrolled row-axpy loop.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        out.resize(self.rows, other.cols);
        let (m, kd, n) = (self.rows, self.cols, other.cols);
        let m_main = m - m % 4;
        for i in (0..m_main).step_by(4) {
            gemm_block_rows(
                &self.data,
                kd,
                &other.data,
                n,
                i,
                &mut out.data[i * n..(i + 4) * n],
            );
        }
        // Ragged row edge: plain unrolled axpy over the full width.
        for i in m_main..m {
            let a_row = &self.data[i * kd..(i + 1) * kd];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &a) in a_row.iter().enumerate() {
                let b_row = &other.data[k * n..(k + 1) * n];
                for (o, b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// Accumulating transposed-A product `out += selfᵀ * other`.
    ///
    /// This is the batched weight-gradient kernel: with `self = δ`
    /// (batch × out) and `other = X` (batch × in), it accumulates
    /// `δᵀ · X` (out × in) straight into the layer's gradient buffer.
    ///
    /// # Panics
    /// Panics if the batch dimensions disagree or `out` has the wrong shape.
    #[allow(
        clippy::int_plus_one,
        reason = "`j + 1 <= n` arises from the W=1 tile macro instantiation"
    )]
    pub fn matmul_tn_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn batch dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_tn output shape mismatch"
        );
        let n = other.cols;
        let batch = self.rows;
        // Register-tiled like `matmul_into`: a 4 (δ columns) × W (X
        // columns) gradient tile accumulates in registers across the whole
        // batch, then is added back into `out` once.
        let k_main = self.cols - self.cols % 4;
        let mut n_main = 0;
        for k in (0..k_main).step_by(4) {
            let mut j = 0;
            macro_rules! tn_tile_pass {
                ($w:expr) => {
                    while j + $w <= n {
                        let acc = gemm_tile_tn::<{ $w }>(
                            &self.data,
                            self.cols,
                            &other.data,
                            n,
                            batch,
                            k,
                            j,
                        );
                        for (r, acc_row) in acc.iter().enumerate() {
                            let out_row = &mut out.data[(k + r) * n + j..(k + r) * n + j + $w];
                            for (o, a) in out_row.iter_mut().zip(acc_row) {
                                *o += a;
                            }
                        }
                        j += $w;
                    }
                };
            }
            tn_tile_pass!(TILE_W);
            tn_tile_pass!(TILE_W / 2);
            tn_tile_pass!(TILE_W / 4);
            tn_tile_pass!(TILE_W / 8);
            tn_tile_pass!(1);
            n_main = j;
        }
        // Ragged edges: per-sample axpy on the leftover δ columns / X
        // columns (< 4 wide).
        for b in 0..batch {
            let d_row = self.row(b);
            let x_row = &other.data[b * n..(b + 1) * n];
            for (k, &d) in d_row.iter().enumerate() {
                let (j_start, j_end) = if k < k_main { (n_main, n) } else { (0, n) };
                if j_start == j_end {
                    continue;
                }
                let out_row = &mut out.data[k * n + j_start..k * n + j_end];
                for (o, x) in out_row.iter_mut().zip(x_row[j_start..j_end].iter()) {
                    *o += d * x;
                }
            }
        }
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out);
        out
    }

    /// Matrix-vector product into a caller-owned buffer.
    ///
    /// Processes four output rows at a time through [`dot4`] (the rows share
    /// each load of `v` and the FMA chains interleave), falling back to
    /// [`dot`] for the ragged `rows mod 4` tail. Both kernels reduce in the
    /// identical order, so each output element is bit-for-bit what a plain
    /// `dot(row, v)` loop produces.
    ///
    /// # Panics
    /// Panics if the dimensions disagree.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        assert_eq!(self.rows, out.len(), "matvec output length mismatch");
        let main = self.rows - self.rows % 4;
        for i in (0..main).step_by(4) {
            let vals = dot4(
                [
                    self.row(i),
                    self.row(i + 1),
                    self.row(i + 2),
                    self.row(i + 3),
                ],
                v,
            );
            out[i..i + 4].copy_from_slice(&vals);
        }
        for (i, slot) in out.iter_mut().enumerate().skip(main) {
            *slot = dot(self.row(i), v);
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into a caller-owned buffer (resized as needed).
    ///
    /// The batched layer forward pays this `O(rows · cols)` copy once per
    /// minibatch so the `O(batch · rows · cols)` GEMM can run the
    /// vectorizable row-streaming kernel of [`Matrix::matmul_into`].
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
    }

    /// Fills the matrix with a constant value.
    pub fn fill(&mut self, v: f64) {
        for x in &mut self.data {
            *x = v;
        }
    }
}

/// Dot product of two equal-length slices.
///
/// Runs over four independent accumulators so the floating-point adds
/// pipeline instead of forming one serial dependency chain; this is the inner
/// kernel of every matrix product above.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        s0 += ca[0] * cb[0];
        s1 += ca[1] * cb[1];
        s2 += ca[2] * cb[2];
        s3 += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_against_hand_computed_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0, 0.5], vec![3.0, 4.0, -1.0]]);
        let i = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matvec_and_t_matvec_agree_with_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let v = vec![1.0, 0.5, -1.0];
        let mv = a.matvec(&v);
        assert_eq!(mv, vec![1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
        // The transposed product is read through `transpose`, as the
        // kernel tests do.
        let u = vec![2.0, -1.0];
        let tv = a.transpose().matvec(&u);
        assert_eq!(tv, vec![2.0 - 4.0, 4.0 - 5.0, 6.0 - 6.0]);
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn outer_product_shape_and_values() {
        // a ⊗ b is the GEMM with a one-wide inner dimension.
        let o = Matrix::from_vec(2, 1, vec![1.0, 2.0]).matmul(&Matrix::from_vec(
            1,
            3,
            vec![3.0, 4.0, 5.0],
        ));
        assert_eq!(o.rows(), 2);
        assert_eq!(o.cols(), 3);
        assert_eq!(o.row(1), &[6.0, 8.0, 10.0]);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        // Five elements: one unrolled 4-chunk plus the scalar tail.
        assert_eq!(dot(&[1.0, 2.0, 3.0, 4.0, 5.0], &[1.0; 5]), 15.0);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_handles_empty_and_degenerate_shapes() {
        // Empty inner dimension: the product is the zero matrix.
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let c = a.matmul(&b);
        assert_eq!((c.rows(), c.cols()), (3, 4));
        assert!(c.data().iter().all(|&v| v == 0.0));
        // Fully empty operands.
        let c = Matrix::zeros(0, 5).matmul(&Matrix::zeros(5, 0));
        assert_eq!((c.rows(), c.cols()), (0, 0));
        // 1×N row vector times N×1 column vector: a dot product.
        let row = Matrix::from_vec(1, 5, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let col = Matrix::from_vec(5, 1, vec![1.0, 1.0, 1.0, 1.0, 1.0]);
        let c = row.matmul(&col);
        assert_eq!((c.rows(), c.cols()), (1, 1));
        assert!((c.get(0, 0) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_into_reuses_buffers_across_shapes() {
        let mut out = Matrix::default();
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.row(0), &[19.0, 22.0]);
        // Shrinking and re-growing the output leaves no stale values behind.
        let small = Matrix::from_rows(&[vec![2.0]]);
        small.matmul_into(&Matrix::from_rows(&[vec![3.0]]), &mut out);
        assert_eq!((out.rows(), out.cols()), (1, 1));
        assert_eq!(out.get(0, 0), 6.0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_tn_acc_accumulates_transposed_product() {
        // δ (2×3), X (2×2): out (3×2) += δᵀ · X.
        let delta = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 1.0, -1.0]]);
        let x = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut out = Matrix::zeros(3, 2);
        delta.matmul_tn_acc_into(&x, &mut out);
        let expected = delta.transpose().matmul(&x);
        for i in 0..3 {
            for j in 0..2 {
                assert!((out.get(i, j) - expected.get(i, j)).abs() < 1e-12);
            }
        }
        // A second call accumulates on top.
        delta.matmul_tn_acc_into(&x, &mut out);
        assert!((out.get(0, 0) - 2.0 * expected.get(0, 0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matmul_tn batch dimension mismatch")]
    fn matmul_tn_acc_rejects_mismatched_batches() {
        let delta = Matrix::zeros(2, 3);
        let x = Matrix::zeros(4, 5);
        let mut out = Matrix::zeros(3, 5);
        delta.matmul_tn_acc_into(&x, &mut out);
    }

    #[test]
    #[should_panic(expected = "matmul_tn output shape mismatch")]
    fn matmul_tn_acc_rejects_bad_output_shape() {
        let delta = Matrix::zeros(2, 3);
        let x = Matrix::zeros(2, 5);
        let mut out = Matrix::zeros(5, 3); // transposed by mistake
        delta.matmul_tn_acc_into(&x, &mut out);
    }

    /// Deterministic pseudo-random fill so the kernel-equivalence tests
    /// exercise non-trivial mantissas without an RNG dependency.
    fn lcg_fill(data: &mut [f64], seed: &mut u64) {
        for x in data {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x = ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        }
    }

    /// Scalar reference for `matmul_into`: one sequential-`k` accumulator
    /// per output element — the reduction order the tiled cascade must
    /// reproduce exactly.
    fn scalar_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn tiled_matmul_is_bit_identical_to_scalar_at_awkward_widths() {
        // Shapes straddling every tile width (TILE_W .. scalar tail) and the
        // 4-row blocking, including non-multiples of 8 in every dimension.
        let mut seed = 0x5EED;
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 9, 17),
            (5, 13, 19),
            (7, 8, 33),
            (8, 31, 15),
            (12, 6, 23),
            (65, 9, 21),
        ] {
            let mut a = Matrix::zeros(m, k);
            let mut b = Matrix::zeros(k, n);
            lcg_fill(a.data_mut(), &mut seed);
            lcg_fill(b.data_mut(), &mut seed);
            let tiled = a.matmul(&b);
            let reference = scalar_matmul(&a, &b);
            assert_eq!(
                tiled.data(),
                reference.data(),
                "tiled matmul diverged bitwise at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn tiled_matmul_tn_is_bit_identical_to_scalar_accumulation() {
        let mut seed = 0xACC;
        for &(batch, out_dim, in_dim) in &[(1, 3, 5), (5, 7, 17), (9, 8, 31), (32, 13, 19)] {
            let mut delta = Matrix::zeros(batch, out_dim);
            let mut x = Matrix::zeros(batch, in_dim);
            lcg_fill(delta.data_mut(), &mut seed);
            lcg_fill(x.data_mut(), &mut seed);
            let mut tiled = Matrix::zeros(out_dim, in_dim);
            delta.matmul_tn_acc_into(&x, &mut tiled);
            // Scalar reference: per output element, accumulate over the
            // batch sequentially (the order the tile kernel uses).
            let mut reference = Matrix::zeros(out_dim, in_dim);
            for kk in 0..out_dim {
                for j in 0..in_dim {
                    let mut acc = 0.0;
                    for b in 0..batch {
                        acc += delta.get(b, kk) * x.get(b, j);
                    }
                    reference.set(kk, j, acc);
                }
            }
            assert_eq!(
                tiled.data(),
                reference.data(),
                "tn kernel diverged bitwise at batch={batch} {out_dim}x{in_dim}"
            );
        }
    }

    #[test]
    fn dot4_matches_dot_bit_for_bit_including_tails() {
        let mut seed = 0xD04;
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 31, 64, 129] {
            let mut m = Matrix::zeros(4, len);
            let mut v = vec![0.0; len];
            lcg_fill(m.data_mut(), &mut seed);
            lcg_fill(&mut v, &mut seed);
            let grouped = dot4([m.row(0), m.row(1), m.row(2), m.row(3)], &v);
            for (r, &g) in grouped.iter().enumerate() {
                let single = dot(m.row(r), &v);
                assert!(
                    g.to_bits() == single.to_bits(),
                    "dot4 row {r} diverged from dot at len {len}"
                );
            }
        }
    }

    #[test]
    fn matvec_into_is_bit_identical_to_per_row_dot() {
        let mut seed = 0x11;
        for &(rows, cols) in &[(1, 9), (3, 5), (4, 4), (5, 13), (64, 9), (33, 21)] {
            let mut m = Matrix::zeros(rows, cols);
            let mut v = vec![0.0; cols];
            lcg_fill(m.data_mut(), &mut seed);
            lcg_fill(&mut v, &mut seed);
            let mut out = vec![0.0; rows];
            m.matvec_into(&v, &mut out);
            for (r, &o) in out.iter().enumerate() {
                assert_eq!(o.to_bits(), dot(m.row(r), &v).to_bits());
            }
        }
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let mut t = Matrix::default();
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_every_row() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, -2.0]);
        for r in 0..3 {
            assert_eq!(m.row(r), &[1.0, -2.0]);
        }
    }

    #[test]
    fn deserialize_refuses_data_that_does_not_fill_the_shape() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<Matrix>(&json).unwrap(), m);
        for (doctored, reason) in [
            (
                json.replace(",6.0]", "]"),
                "`data` holds 5 elements, its 2 rows × 3 columns need 6",
            ),
            (
                json.replace("\"cols\":3", &format!("\"cols\":{}", usize::MAX)),
                "columns need more than a `usize`",
            ),
        ] {
            assert_ne!(doctored, json);
            let err = serde_json::from_str::<Matrix>(&doctored).unwrap_err();
            assert!(err.to_string().contains(reason), "{err}");
        }
    }
}
