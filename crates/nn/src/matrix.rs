//! Dense row-major `f32` matrix.
//!
//! The autodiff graph stores every intermediate value as a `Matrix`.  Vectors
//! are represented as single-column matrices; a mini-batch of `n` vectors is
//! a matrix with `n` columns, which is how the level-wise batched inference
//! of Section 4.3 is implemented.
//!
//! # Kernels
//!
//! The hot path of batched inference is matrix multiplication.  All three
//! matmul variants route through the runtime-dispatched GEMM kernels in
//! [`crate::simd`]: on AVX2+FMA hosts an explicit 8x8 register-blocked
//! `vfmadd` microkernel over a packed-B panel layout
//! ([`crate::simd::gemm_f32`]), otherwise the original cache-blocked 8-wide
//! unrolled scalar kernel (byte-for-byte, so forced-scalar results stay on
//! the recorded golden bits).  The two paths follow the f32 tier's
//! tolerance-plus-per-path-determinism contract documented in `crate::simd`
//! and `docs/perf.md`.  `matmul_nt` / `matmul_tn` multiply by a transposed
//! operand *without* materializing the transpose — they are what
//! `Graph::backward` uses for `dA = dC·Bᵀ` and `dB = Aᵀ·dC`.
//!
//! Every kernel also has a `*_into` variant writing into a caller-provided
//! matrix, and the element-wise operations have in-place (`*_assign`,
//! `*_inplace`, `*_into`) variants; together they let steady-state forward
//! passes reuse buffers instead of allocating per op (see `Graph`'s buffer
//! recycling).  `matmul_naive` keeps the textbook triple loop as the oracle
//! the property tests compare the dispatched kernels against.

use std::fmt;

/// Dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix dimensions do not match data length");
        Matrix { rows, cols, data }
    }

    /// Create a column vector from a slice.
    pub fn column(values: &[f32]) -> Self {
        Matrix { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Matrix multiplication `self * other` (cache-blocked kernel).
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix multiplication into a caller-provided output matrix
    /// (overwritten, so `out` may hold stale data from a recycled buffer).
    ///
    /// Routes through the runtime-dispatched GEMM ([`crate::simd::gemm_f32`]):
    /// explicit AVX2+FMA 8x8 microkernel over packed-B panels, or the
    /// original cache-blocked scalar kernel under `E2E_FORCE_SCALAR=1` / on
    /// hosts without AVX2.
    ///
    /// # Panics
    /// Panics on any dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.rows, self.rows, "matmul output row mismatch");
        assert_eq!(out.cols, other.cols, "matmul output col mismatch");
        crate::simd::gemm_f32(&self.data, self.rows, self.cols, &other.data, other.cols, &mut out.data);
    }

    /// Reference textbook matmul (unblocked).  Kept as the oracle the
    /// property tests compare the blocked kernel against; not used on the
    /// hot path.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.data[k * other.cols + j];
                }
            }
        }
        out
    }

    /// `self * otherᵀ` without materializing the transpose: rows of `self`
    /// dot rows of `other`.  Backward uses this for `dA = dC · Bᵀ`.
    ///
    /// # Panics
    /// Panics unless `self` is `m x k` and `other` is `n x k`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt dimension mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.rows, self.rows, "matmul_nt output row mismatch");
        assert_eq!(out.cols, other.rows, "matmul_nt output col mismatch");
        crate::simd::gemm_f32_nt(&self.data, self.rows, self.cols, &other.data, other.rows, &mut out.data);
    }

    /// Allocating wrapper over [`Matrix::matmul_nt_into`].
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `selfᵀ * other` without materializing the transpose, via axpy over
    /// rows of both operands.  Backward uses this for `dB = Aᵀ · dC`.
    ///
    /// # Panics
    /// Panics unless `self` is `m x k` and `other` is `m x n`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn dimension mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.rows, self.cols, "matmul_tn output row mismatch");
        assert_eq!(out.cols, other.cols, "matmul_tn output col mismatch");
        crate::simd::gemm_f32_tn(&self.data, self.rows, self.cols, &other.data, other.cols, &mut out.data);
    }

    /// Allocating wrapper over [`Matrix::matmul_tn_into`].
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// Transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a * b)
    }

    /// Element-wise maximum.
    pub fn emax(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a.max(b))
    }

    /// Element-wise minimum.
    pub fn emin(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a.min(b))
    }

    /// Apply a scalar function element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Multiply all elements by a scalar.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Add a column-vector bias to every column of the matrix.
    ///
    /// # Panics
    /// Panics if `bias` is not a `rows x 1` column vector.
    pub fn add_bias(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.cols, 1, "bias must be a column vector");
        assert_eq!(bias.rows, self.rows, "bias rows must match matrix rows");
        let mut out = self.clone();
        for r in 0..self.rows {
            let b = bias.data[r];
            for c in 0..self.cols {
                out.data[r * self.cols + c] += b;
            }
        }
        out
    }

    /// Sum over columns, producing a `rows x 1` column vector.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            let mut s = 0.0;
            for c in 0..self.cols {
                s += self.data[r * self.cols + c];
            }
            out.data[r] = s;
        }
        out
    }

    /// Vertically stack matrices (concatenate along rows); all inputs must
    /// have the same number of columns.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows needs at least one matrix");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows requires equal column counts");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Extract a contiguous block of rows `[start, start+len)`.
    pub fn slice_rows(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.rows, "row slice out of range");
        let mut data = Vec::with_capacity(len * self.cols);
        data.extend_from_slice(&self.data[start * self.cols..(start + len) * self.cols]);
        Matrix { rows: len, cols: self.cols, data }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// In-place element-wise addition (gradient accumulation).
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place element-wise product.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= b;
        }
    }

    /// Apply a scalar function element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// Multiply all elements by a scalar in place.
    pub fn scale_inplace(&mut self, s: f32) {
        self.map_inplace(|x| x * s);
    }

    /// Write `self` with a column-vector bias broadcast over its columns
    /// into `out` (same shape as `self`), in one fused pass — the tape's
    /// form, so the GEMM kernels aren't fed by per-call allocations or
    /// extra sweeps.
    ///
    /// # Panics
    /// Panics if `bias` is not a `rows x 1` column vector or `out` doesn't
    /// match `self`'s shape.
    pub fn add_bias_into(&self, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(bias.cols, 1, "bias must be a column vector");
        assert_eq!(bias.rows, self.rows, "bias rows must match matrix rows");
        assert_eq!(self.rows, out.rows, "add_bias_into: row mismatch");
        assert_eq!(self.cols, out.cols, "add_bias_into: col mismatch");
        for r in 0..self.rows {
            let b = bias.data[r];
            let src = &self.data[r * self.cols..(r + 1) * self.cols];
            let dst = &mut out.data[r * self.cols..(r + 1) * self.cols];
            for (o, &x) in dst.iter_mut().zip(src.iter()) {
                *o = x + b;
            }
        }
    }

    /// Write `self + other` into `out` (all three must agree in shape).
    pub fn add_into(&self, other: &Matrix, out: &mut Matrix) {
        self.zip_into(other, out, |a, b| a + b);
    }

    /// Write the element-wise product into `out`.
    pub fn hadamard_into(&self, other: &Matrix, out: &mut Matrix) {
        self.zip_into(other, out, |a, b| a * b);
    }

    /// Write the element-wise minimum into `out`.
    pub fn emin_into(&self, other: &Matrix, out: &mut Matrix) {
        self.zip_into(other, out, |a, b| a.min(b));
    }

    /// Write the element-wise maximum into `out`.
    pub fn emax_into(&self, other: &Matrix, out: &mut Matrix) {
        self.zip_into(other, out, |a, b| a.max(b));
    }

    /// Write `f` applied element-wise into `out` (same shape as `self`).
    pub fn map_into(&self, f: impl Fn(f32) -> f32, out: &mut Matrix) {
        assert_eq!(self.rows, out.rows, "map_into: row mismatch");
        assert_eq!(self.cols, out.cols, "map_into: col mismatch");
        for (o, &x) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(x);
        }
    }

    /// Set all elements to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Consume the matrix, returning its backing buffer (for buffer pools).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Rebuild a matrix from a pooled buffer, reusing its capacity, without
    /// zero-filling: element values are **unspecified** (stale pool
    /// contents).  Only for callers that overwrite every element before
    /// reading — the tape's op kernels do.
    pub fn from_pooled_uninit(rows: usize, cols: usize, mut buffer: Vec<f32>) -> Self {
        let n = rows * cols;
        if buffer.len() > n {
            buffer.truncate(n);
        } else {
            buffer.resize(n, 0.0);
        }
        Matrix { rows, cols, data: buffer }
    }

    /// Clone `src` into a pooled buffer, reusing its capacity (no zero-fill
    /// pass — the copy overwrites everything).
    pub fn from_pooled_copy(src: &Matrix, mut buffer: Vec<f32>) -> Self {
        buffer.clear();
        buffer.extend_from_slice(&src.data);
        Matrix { rows: src.rows, cols: src.cols, data: buffer }
    }

    fn zip_into(&self, other: &Matrix, out: &mut Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.rows, other.rows, "element-wise op: row mismatch");
        assert_eq!(self.cols, other.cols, "element-wise op: col mismatch");
        assert_eq!(self.rows, out.rows, "element-wise op: output row mismatch");
        assert_eq!(self.cols, out.cols, "element-wise op: output col mismatch");
        for ((o, &a), &b) in out.data.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
            *o = f(a, b);
        }
    }

    fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.rows, other.rows, "element-wise op: row mismatch");
        assert_eq!(self.cols, other.cols, "element-wise op: col mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_bias_broadcasts() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::column(&[10.0, 20.0]);
        assert_eq!(a.add_bias(&b), Matrix::from_vec(2, 2, vec![11.0, 12.0, 23.0, 24.0]));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::column(&[1.0, 5.0]);
        let b = Matrix::column(&[3.0, 2.0]);
        assert_eq!(a.emax(&b), Matrix::column(&[3.0, 5.0]));
        assert_eq!(a.emin(&b), Matrix::column(&[1.0, 2.0]));
        assert_eq!(a.hadamard(&b), Matrix::column(&[3.0, 10.0]));
        assert_eq!(a.add(&b), Matrix::column(&[4.0, 7.0]));
    }

    #[test]
    fn concat_rows_and_cols() {
        let a = Matrix::column(&[1.0, 2.0]);
        let b = Matrix::column(&[3.0]);
        let v = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(v, Matrix::column(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn slice_and_column_access() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.slice_rows(1, 2), Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]));
    }

    #[test]
    fn sum_cols_and_mean() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sum_cols(), Matrix::column(&[6.0, 15.0]));
        assert!((a.mean() - 3.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Matrix::column(&[1.0, 2.0]);
        a.add_assign(&Matrix::column(&[0.5, 0.5]));
        assert_eq!(a, Matrix::column(&[1.5, 2.5]));
        a.fill_zero();
        assert_eq!(a, Matrix::column(&[0.0, 0.0]));
    }

    /// Deterministic pseudo-random matrix for kernel cross-checks.
    fn lcg_matrix(rows: usize, cols: usize, mut seed: u32) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
                (seed >> 8) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Per-element tolerance scaled by the magnitude flowing into the sum.
    fn assert_close(a: &Matrix, b: &Matrix, scale: f32) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + scale), "{x} vs {y} (scale {scale})");
        }
    }

    #[test]
    fn blocked_matmul_crosses_tile_boundaries() {
        // Shapes straddling the KC/NC = 64 tile edges exercise the packed
        // multi-tile path the small property shapes never reach.
        for (m, k, n) in [(1, 1, 1), (3, 64, 64), (7, 65, 129), (130, 70, 100), (5, 200, 33)] {
            let a = lcg_matrix(m, k, (m * 31 + k) as u32);
            let b = lcg_matrix(k, n, (k * 17 + n) as u32);
            assert_close(&a.matmul(&b), &a.matmul_naive(&b), k as f32);
        }
    }

    #[test]
    fn transposed_kernels_match_explicit_transpose() {
        for (m, k, n) in [(3, 5, 4), (17, 66, 40), (64, 64, 64), (2, 130, 9)] {
            let a = lcg_matrix(m, k, 11);
            let b = lcg_matrix(n, k, 22);
            // A * Bᵀ
            assert_close(&a.matmul_nt(&b), &a.matmul_naive(&b.transpose()), k as f32);
            // Aᵀ * C
            let c = lcg_matrix(m, n, 33);
            assert_close(&a.matmul_tn(&c), &a.transpose().matmul_naive(&c), m as f32);
        }
    }

    #[test]
    fn matmul_into_overwrites_stale_buffer() {
        let a = lcg_matrix(4, 6, 1);
        let b = lcg_matrix(6, 5, 2);
        let mut out = Matrix::full(4, 5, 123.0);
        a.matmul_into(&b, &mut out);
        assert_close(&out, &a.matmul_naive(&b), 6.0);
    }

    #[test]
    fn inplace_variants_match_allocating_ops() {
        let a = lcg_matrix(5, 7, 3);
        let b = lcg_matrix(5, 7, 4);

        let mut h = a.clone();
        h.hadamard_assign(&b);
        assert_eq!(h, a.hadamard(&b));

        let mut s = a.clone();
        s.scale_inplace(2.5);
        assert_eq!(s, a.scale(2.5));

        let mut m = a.clone();
        m.map_inplace(|x| x.max(0.0));
        assert_eq!(m, a.map(|x| x.max(0.0)));
    }

    #[test]
    fn into_variants_match_allocating_ops() {
        let a = lcg_matrix(6, 4, 9);
        let b = lcg_matrix(6, 4, 10);
        let mut out = Matrix::full(6, 4, 9.9);
        a.add_into(&b, &mut out);
        assert_eq!(out, a.add(&b));
        a.hadamard_into(&b, &mut out);
        assert_eq!(out, a.hadamard(&b));
        a.emin_into(&b, &mut out);
        assert_eq!(out, a.emin(&b));
        a.emax_into(&b, &mut out);
        assert_eq!(out, a.emax(&b));
        a.map_into(|x| x * x, &mut out);
        assert_eq!(out, a.map(|x| x * x));
        let bias = Matrix::column(&[1.0, -2.0, 0.5, 3.0, -1.0, 0.25]);
        a.add_bias_into(&bias, &mut out);
        assert_eq!(out, a.add_bias(&bias));
    }

    #[test]
    fn buffer_recycling_roundtrip() {
        // from_pooled_uninit reuses the recycled allocation and never
        // exposes lengths beyond rows*cols; contents are unspecified by
        // contract (beyond zero-filled growth past the old length).
        let buf = lcg_matrix(8, 8, 5).into_vec();
        let capacity = buf.capacity();
        let recycled = Matrix::from_pooled_uninit(4, 6, buf);
        assert_eq!((recycled.rows(), recycled.cols(), recycled.len()), (4, 6, 24));
        assert_eq!(recycled.into_vec().capacity(), capacity, "allocation was not reused");
        let grown = Matrix::from_pooled_uninit(4, 4, vec![1.0; 2]);
        assert_eq!(grown.len(), 16);

        let copied = Matrix::from_pooled_copy(&Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]), Vec::new());
        assert_eq!(copied, Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f32..10.0, rows * cols).prop_map(move |v| Matrix::from_vec(rows, cols, v))
    }

    proptest! {
        #[test]
        fn matmul_transpose_identity(a in arb_matrix(3, 4), b in arb_matrix(4, 2)) {
            // (A B)^T == B^T A^T
            let left = a.matmul(&b).transpose();
            let right = b.transpose().matmul(&a.transpose());
            for (x, y) in left.data().iter().zip(right.data().iter()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        #[test]
        fn add_commutative(a in arb_matrix(3, 3), b in arb_matrix(3, 3)) {
            prop_assert_eq!(a.add(&b), b.add(&a));
        }

        #[test]
        fn emax_ge_both(a in arb_matrix(2, 5), b in arb_matrix(2, 5)) {
            let m = a.emax(&b);
            for i in 0..m.len() {
                prop_assert!(m.data()[i] >= a.data()[i]);
                prop_assert!(m.data()[i] >= b.data()[i]);
            }
        }

        #[test]
        fn blocked_matmul_matches_naive_random_shapes(
            m in 1usize..24, k in 1usize..24, n in 1usize..24,
            a_data in proptest::collection::vec(-1.0f32..1.0, 576),
            b_data in proptest::collection::vec(-1.0f32..1.0, 576),
        ) {
            let a = Matrix::from_vec(m, k, a_data[..m * k].to_vec());
            let b = Matrix::from_vec(k, n, b_data[..k * n].to_vec());
            let blocked = a.matmul(&b);
            let naive = a.matmul_naive(&b);
            for (x, y) in blocked.data().iter().zip(naive.data().iter()) {
                prop_assert!((x - y).abs() < 1e-4, "blocked {x} vs naive {y}");
            }
        }

        #[test]
        fn transposed_kernels_match_naive_random_shapes(
            m in 1usize..20, k in 1usize..20, n in 1usize..20,
            a_data in proptest::collection::vec(-1.0f32..1.0, 400),
            b_data in proptest::collection::vec(-1.0f32..1.0, 400),
        ) {
            let a = Matrix::from_vec(m, k, a_data[..m * k].to_vec());
            let bt = Matrix::from_vec(n, k, b_data[..n * k].to_vec());
            let nt = a.matmul_nt(&bt);
            let reference = a.matmul_naive(&bt.transpose());
            for (x, y) in nt.data().iter().zip(reference.data().iter()) {
                prop_assert!((x - y).abs() < 1e-4, "matmul_nt {x} vs naive {y}");
            }
            let c = Matrix::from_vec(m, n, b_data[..m * n].to_vec());
            let tn = a.matmul_tn(&c);
            let reference = a.transpose().matmul_naive(&c);
            for (x, y) in tn.data().iter().zip(reference.data().iter()) {
                prop_assert!((x - y).abs() < 1e-4, "matmul_tn {x} vs naive {y}");
            }
        }

        /// Remainder shapes for the dispatched kernels: extents straddling
        /// the 8-wide vector boundary, single rows/columns, empty shapes,
        /// and multi-tile depths/widths — every `matmul_*_into` variant
        /// against the naive oracle.  The normal test lane exercises the
        /// AVX2 dispatch path (where the host has it); CI's forced-scalar
        /// lane re-runs this with `E2E_FORCE_SCALAR=1`, and `crate::simd`'s
        /// own property tests pin the two paths bit-identical.
        #[test]
        fn all_matmul_kernels_match_naive_at_remainder_shapes(
            m in proptest::sample::select(vec![0usize, 1, 2, 7, 8, 9, 15, 17, 65]),
            k in proptest::sample::select(vec![0usize, 1, 2, 7, 8, 9, 15, 17, 65, 100]),
            n in proptest::sample::select(vec![0usize, 1, 2, 7, 8, 9, 15, 17, 65, 100]),
            seed in 0u32..1_000_000,
        ) {
            let lcg = |len: usize, mut s: u32| -> Vec<f32> {
                (0..len).map(|_| {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    // Small magnitudes keep accumulated rounding differences
                    // far inside the strict 1e-4 bound even at depth 100.
                    (s >> 8) as f32 / (1u32 << 24) as f32 * 0.5 - 0.25
                }).collect()
            };
            let close = |got: &Matrix, want: &Matrix, kernel: &str| -> Result<(), String> {
                prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
                for (x, y) in got.data().iter().zip(want.data().iter()) {
                    prop_assert!((x - y).abs() < 1e-4, "{} {} vs naive {} at {}x{}x{}", kernel, x, y, m, k, n);
                }
                Ok(())
            };

            let a = Matrix::from_vec(m, k, lcg(m * k, seed ^ 0x51));
            let b = Matrix::from_vec(k, n, lcg(k * n, seed ^ 0xa7));
            let mut out = Matrix::full(m, n, f32::NAN);
            a.matmul_into(&b, &mut out);
            close(&out, &a.matmul_naive(&b), "matmul_into")?;

            let bt = Matrix::from_vec(n, k, lcg(n * k, seed ^ 0x1c3));
            let mut out = Matrix::full(m, n, f32::NAN);
            a.matmul_nt_into(&bt, &mut out);
            close(&out, &a.matmul_naive(&bt.transpose()), "matmul_nt_into")?;

            let c = Matrix::from_vec(m, n, lcg(m * n, seed ^ 0x2e5));
            let mut out = Matrix::full(k, n, f32::NAN);
            a.matmul_tn_into(&c, &mut out);
            close(&out, &a.transpose().matmul_naive(&c), "matmul_tn_into")?;
        }

        #[test]
        fn matmul_into_agrees_with_matmul(
            m in 1usize..16, k in 1usize..16, n in 1usize..16,
            a_data in proptest::collection::vec(-1.0f32..1.0, 256),
            b_data in proptest::collection::vec(-1.0f32..1.0, 256),
        ) {
            let a = Matrix::from_vec(m, k, a_data[..m * k].to_vec());
            let b = Matrix::from_vec(k, n, b_data[..k * n].to_vec());
            let mut out = Matrix::full(m, n, f32::NAN);
            a.matmul_into(&b, &mut out);
            prop_assert_eq!(out, a.matmul(&b));
        }
    }
}
