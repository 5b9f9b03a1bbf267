//! Dense row-major `f32` tensors and the raw numerical kernels used by the
//! autograd layer.
//!
//! Tensors here are deliberately simple: a shape vector plus a contiguous
//! `Vec<f32>`. All views are materialized; the models in this workspace are
//! small enough (single-CPU scale) that copy overhead is irrelevant next to
//! matmul cost, and owning buffers keeps the autograd tape trivially safe.

use std::fmt;

/// A dense, row-major tensor of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{}, {}, ..])", self.data[0], self.data[1])
        }
    }
}

impl Tensor {
    /// Creates a tensor from a shape and a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if the buffer length does not match the product of the shape.
    pub fn new(shape: &[usize], data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {shape:?} implies {numel} elements, got {}",
            data.len()
        );
        Tensor { shape: shape.to_vec(), data }
    }

    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![0.0; numel] }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![value; numel] }
    }

    /// A 0-dimensional (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: vec![], data: vec![value] }
    }

    /// A 1-D tensor borrowing its values from a slice.
    pub fn from_slice(values: &[f32]) -> Self {
        Tensor { shape: vec![values.len()], data: values.to_vec() }
    }

    /// A 2-D tensor from nested rows. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Tensor { shape: vec![r, c], data }
    }

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Dimension `i` of the shape.
    ///
    /// # Panics
    /// Panics if `i >= ndim()` — asking for a dimension a tensor does not
    /// have is a caller bug, not a recoverable condition.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        self.shape[i]
    }

    /// For a tensor treated as a matrix: the number of rows, i.e. the product
    /// of all leading dimensions. Scalars have one row.
    #[inline]
    pub fn rows(&self) -> usize {
        match self.shape.last() {
            Some(&last) if last > 0 => self.data.len() / last,
            Some(_) => 0,
            None => 1,
        }
    }

    /// The size of the trailing dimension (1 for scalars).
    #[inline]
    pub fn cols(&self) -> usize {
        self.shape.last().copied().unwrap_or(1)
    }

    /// Immutable access to the flat buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a scalar (or one-element) tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor with {} elements", self.data.len());
        self.data[0]
    }

    /// Row `i` of a matrix-like tensor, as a slice of length `cols()`.
    ///
    /// # Panics
    /// Panics if `i >= rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let c = self.cols();
        &self.data[i * c..(i + 1) * c] // lint: allow(panic, reason = "documented contract: i < rows(); decode-path callers pass vocab-validated token/position ids")
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Element accessor for 2-D tensors.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Returns a reshaped copy; the number of elements must be unchanged.
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        Tensor::new(shape, self.data.clone())
    }

    /// In-place reshape (no data movement).
    pub fn reshape_inplace(&mut self, shape: &[usize]) {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, self.data.len(), "reshape {shape:?} changes element count");
        self.shape = shape.to_vec();
    }

    /// Elementwise map producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// In-place elementwise accumulation `self += other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling `self *= s`.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Fills the buffer with zeros, keeping the shape.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Index of the maximum element (first occurrence).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut bv = f32::NEG_INFINITY;
        for (i, &x) in self.data.iter().enumerate() {
            if x > bv {
                bv = x;
                best = i;
            }
        }
        best
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Transposed copy of a 2-D tensor.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transposed() requires a 2-D tensor");
        let (r, c) = (self.shape[0], self.shape[1]); // lint: allow(panic, reason = "the assert above pins ndim() == 2")
        let mut out = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j]; // lint: allow(panic, reason = "i < r and j < c index the r*c row-major buffers exactly")
            }
        }
        Tensor { shape: vec![c, r], data: out }
    }
}

// ---------------------------------------------------------------------------
// Raw kernels. These operate on flat slices and are shared by forward and
// backward passes. Loop orders are chosen so the innermost loop runs over
// contiguous memory and auto-vectorizes.
// ---------------------------------------------------------------------------

/// `out += a @ b` where `a: [m,k]`, `b: [k,n]`, `out: [m,n]` (row-major).
pub fn matmul_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k]; // lint: allow(panic, reason = "a.len() == m*k is debug-asserted and upheld by every caller's shape checks")
        let orow = &mut out[i * n..(i + 1) * n]; // lint: allow(panic, reason = "out.len() == m*n is debug-asserted and upheld by every caller's shape checks")
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n]; // lint: allow(panic, reason = "b.len() == k*n is debug-asserted and kk < k from the arow loop")
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `out += a @ b^T` where `a: [m,k]`, `b: [n,k]`, `out: [m,n]`.
///
/// This is the natural kernel for `grad_a = grad_out @ w^T` and for
/// similarity/score matrices (rows-of-a against rows-of-b dot products).
pub fn matmul_nt_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *o += acc;
        }
    }
}

/// `out += a^T @ b` where `a: [m,k]`, `b: [m,n]`, `out: [k,n]`.
///
/// This is the natural kernel for `grad_w = x^T @ grad_out`.
pub fn matmul_tn_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let brow = &b[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Plain (non-accumulating) matrix multiply `a @ b`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2);
    assert_eq!(b.ndim(), 2);
    let (m, k) = (a.shape[0], a.shape[1]);
    let (k2, n) = (b.shape[0], b.shape[1]);
    assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_acc(&a.data, &b.data, &mut out.data, m, k, n);
    out
}

/// Softmax along the trailing dimension, written into `out`.
pub fn softmax_rows(x: &[f32], out: &mut [f32], cols: usize) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert!(cols > 0 && x.len() % cols == 0);
    for (xi, oi) in x.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
        let mx = xi.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0;
        for (o, &v) in oi.iter_mut().zip(xi) {
            let e = (v - mx).exp();
            *o = e;
            z += e;
        }
        let inv = 1.0 / z;
        for o in oi.iter_mut() {
            *o *= inv;
        }
    }
}

/// Log-softmax along the trailing dimension, written into `out`.
pub fn log_softmax_rows(x: &[f32], out: &mut [f32], cols: usize) {
    debug_assert_eq!(x.len(), out.len());
    for (xi, oi) in x.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
        let mx = xi.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0;
        for &v in xi {
            z += (v - mx).exp();
        }
        let lz = z.ln() + mx;
        for (o, &v) in oi.iter_mut().zip(xi) {
            *o = v - lz;
        }
    }
}

/// Numerically stable sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Gaussian error linear unit (tanh approximation, as used by GPT-style LMs).
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + ((0.797_884_6) * (x + 0.044_715 * x * x * x)).tanh())
}

/// Derivative of [`gelu`] with respect to its input.
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    let c = 0.797_884_6_f32;
    let u = c * (x + 0.044_715 * x * x * x);
    let t = u.tanh();
    let du = c * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_query() {
        let t = Tensor::new(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "implies")]
    fn bad_shape_panics() {
        let _ = Tensor::new(&[2, 2], vec![1.0]);
    }

    #[test]
    fn scalar_semantics() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.rows(), 1);
        assert_eq!(s.cols(), 1);
        assert_eq!(s.item(), 3.5);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_variants_agree() {
        // a@b computed three ways must match.
        let a = Tensor::new(&[3, 4], (0..12).map(|i| i as f32 * 0.3 - 1.0).collect());
        let b = Tensor::new(&[4, 2], (0..8).map(|i| (i as f32).sin()).collect());
        let direct = matmul(&a, &b);

        let bt = b.transposed();
        let mut via_nt = vec![0.0; 6];
        matmul_nt_acc(a.data(), bt.data(), &mut via_nt, 3, 4, 2);
        for (x, y) in direct.data().iter().zip(&via_nt) {
            assert!((x - y).abs() < 1e-5);
        }

        let at = a.transposed();
        let mut via_tn = vec![0.0; 6];
        matmul_tn_acc(at.data(), b.data(), &mut via_tn, 4, 3, 2);
        for (x, y) in direct.data().iter().zip(&via_tn) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rows_normalizes() {
        let x = [1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        let mut out = [0.0; 6];
        softmax_rows(&x, &mut out, 3);
        for row in out.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|&p| p > 0.0));
        }
        // Monotone: larger logit, larger probability.
        assert!(out[2] > out[1] && out[1] > out[0]);
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let x = [0.3, -2.0, 5.0, 0.1];
        let mut p = [0.0; 4];
        let mut lp = [0.0; 4];
        softmax_rows(&x, &mut p, 4);
        log_softmax_rows(&x, &mut lp, 4);
        for (a, b) in p.iter().zip(&lp) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_extreme_logits_stable() {
        let x = [1000.0, 0.0, -1000.0];
        let mut out = [0.0; 3];
        softmax_rows(&x, &mut out, 3);
        assert!((out[0] - 1.0).abs() < 1e-6);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sigmoid_stable_both_tails() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0_f32, -0.5, 0.0, 0.7, 2.5] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-2,
                "x={x}: analytic {} vs fd {fd}",
                gelu_grad(x)
            );
        }
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::new(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tt = t.transposed().transposed();
        assert_eq!(t, tt);
    }

    #[test]
    fn argmax_first_occurrence() {
        let t = Tensor::from_slice(&[1.0, 5.0, 5.0, 2.0]);
        assert_eq!(t.argmax(), 1);
    }
}
