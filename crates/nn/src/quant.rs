//! Per-channel symmetric int8 weight quantization for the int8 batch
//! inference path.
//!
//! The estimator's inference cost is dominated by `Linear` matmuls whose
//! left operand is a trained weight matrix.  Those weights are static after
//! training, so they can be quantized **once, ahead of inference**:
//! each output channel (weight-matrix row) gets its own symmetric scale
//! `s_i = maxabs(row_i) / 127` and the row is stored as `i8` codes
//! `q = round(v / s_i)`.  Activations are quantized *dynamically* per
//! forward pass (per input column, since the level-batched layout puts one
//! plan-tree node per column), the inner product runs over the int8 codes
//! through the runtime-dispatched [`crate::simd::dot_i8`] kernel — twice
//! the SIMD product width of f32 — and the i32 result is dequantized by
//! `s_i * s_col` straight into the caller's f32 output matrix.  Everything
//! downstream (bias add, activations, the tape, `SubtreeStateCache`
//! entries) stays plain f32, which is what lets the quantized tier share
//! state layouts with the full-precision tier.
//!
//! Biases and 1-column parameters are never quantized — they are O(dim)
//! per layer and contribute nothing to the matmul cost.

use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::simd;

/// A weight matrix stored as per-row symmetric int8 codes plus one f32
/// scale per output channel (row).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    /// Row-major int8 codes, `rows * cols` of them.
    data: Vec<i8>,
    /// One dequantization scale per row; `1.0` for all-zero rows.
    scales: Vec<f32>,
    /// The codes re-packed for [`simd::gemm_i8_pairs`]: `rows * pairs` i32
    /// words, each holding a depth pair `(data[i][2p], data[i][2p+1])` in
    /// its low/high i16 halves (zero pad for odd depth).  Derived from
    /// `data` at construction; never serialized.
    packed_w: Vec<i32>,
}

/// `depth` packed into madd pairs.
#[inline]
fn pair_count(depth: usize) -> usize {
    depth.div_ceil(2)
}

/// Build the pair-packed i32 form of row-major i8 codes.
fn pack_weight_pairs(rows: usize, depth: usize, data: &[i8]) -> Vec<i32> {
    let pairs = pair_count(depth);
    let mut packed = vec![0i32; rows * pairs];
    for i in 0..rows {
        let row = &data[i * depth..(i + 1) * depth];
        for p in 0..pairs {
            let lo = row[2 * p] as i16 as u16 as u32;
            let hi = if 2 * p + 1 < depth { row[2 * p + 1] as i16 as u16 as u32 } else { 0 };
            packed[i * pairs + p] = (lo | (hi << 16)) as i32;
        }
    }
    packed
}

/// Activations of one forward-pass matrix, quantized per column and laid
/// out for [`simd::gemm_i8_pairs`]: interleaved i16 code pairs plus the
/// per-column dequantization scales.  Packing costs one pass over the
/// matrix and is **reused across every weight matrix multiplying the same
/// activations** — the four LSTM gate matmuls of a cell application share
/// one pack (see `Graph::matmul_quant`'s cache).
#[derive(Debug, Clone)]
pub struct PackedActivations {
    depth: usize,
    n: usize,
    /// `n` rounded up to a multiple of 8 (the GEMM's column block).
    n_pad: usize,
    /// Interleaved codes, `pair_count(depth) * n_pad * 2` of them.
    codes: Vec<i16>,
    /// Per-column symmetric scales (`1.0` for all-zero and pad columns).
    scales: Vec<f32>,
}

impl PackedActivations {
    /// Quantize a `depth x n` activation matrix, one symmetric scale per
    /// column: `s_j = maxabs(col_j) / 127`, codes
    /// `round_ties_even(v * (127 / maxabs)).clamp(-127, 127)`.
    ///
    /// Reciprocal multiply and even-ties rounding (instead of divide and
    /// away-ties `round`) keep every inner loop branch-free vectorizable
    /// arithmetic — this pass runs on every quantized matmul's activations,
    /// so it must not cost what the GEMM saves.  All-zero columns get a
    /// zero reciprocal, which quantizes them to exact-zero codes with the
    /// neutral scale `1.0`.  Deterministic: plain f32 arithmetic, identical
    /// on every dispatch path.
    pub fn pack(x: &Matrix) -> Self {
        let (depth, n) = (x.rows(), x.cols());
        let pairs = pair_count(depth);
        let n_pad = n.next_multiple_of(8);
        let mut maxabs = vec![0.0f32; n];
        // Row-major maxabs sweep: contiguous reads, per-column maxima.
        for k in 0..depth {
            let row = &x.data()[k * n..(k + 1) * n];
            for (m, &v) in maxabs.iter_mut().zip(row.iter()) {
                *m = m.max(v.abs());
            }
        }
        let mut scales = vec![1.0f32; n_pad];
        let mut inv = vec![0.0f32; n];
        for j in 0..n {
            if maxabs[j] != 0.0 {
                scales[j] = maxabs[j] / 127.0;
                inv[j] = 127.0 / maxabs[j];
            }
        }
        // Quantize and interleave through the dispatched kernel (both
        // paths produce identical codes; see `simd::quantize_interleave`).
        let mut codes = vec![0i16; pairs * n_pad * 2];
        simd::quantize_interleave(x.data(), depth, n, n_pad, &inv, &mut codes);
        PackedActivations { depth, n, n_pad, codes, scales }
    }

    /// Depth (rows of the packed activation matrix).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of activation columns.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl QuantMatrix {
    /// Quantize an f32 matrix with one symmetric scale per row.
    pub fn quantize(m: &Matrix) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &m.data()[r * cols..(r + 1) * cols];
            let maxabs = row.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let scale = if maxabs == 0.0 { 1.0 } else { maxabs / 127.0 };
            scales.push(scale);
            for &v in row {
                data.push((v / scale).round().clamp(-127.0, 127.0) as i8);
            }
        }
        let packed_w = pack_weight_pairs(rows, cols, &data);
        QuantMatrix { rows, cols, data, scales, packed_w }
    }

    /// Rebuild from checkpoint-deserialized parts.
    ///
    /// # Panics
    /// Panics if `data` / `scales` lengths disagree with the shape.
    pub fn from_parts(rows: usize, cols: usize, scales: Vec<f32>, data: Vec<i8>) -> Self {
        assert_eq!(data.len(), rows * cols, "quantized data length mismatch");
        assert_eq!(scales.len(), rows, "quantized scale count mismatch");
        let packed_w = pack_weight_pairs(rows, cols, &data);
        QuantMatrix { rows, cols, data, scales, packed_w }
    }

    /// Number of rows (output channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (input features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major int8 codes (for checkpoint serialization).
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-row dequantization scales (for checkpoint serialization).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Expand back to f32 (`q * scale` per element).  Test/debug helper —
    /// the inference path never materializes this.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let s = self.scales[r];
            for c in 0..self.cols {
                out.set(r, c, self.data[r * self.cols + c] as f32 * s);
            }
        }
        out
    }

    /// Quantized matmul `self * x` into a caller-provided f32 output
    /// (overwritten).  Activations are quantized dynamically per column of
    /// `x` with their own symmetric scale ([`PackedActivations::pack`]),
    /// the int8 inner products run through the pair-packed
    /// [`simd::gemm_i8_pairs`] GEMM and dequantize directly into `out`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul_into(&self, x: &Matrix, out: &mut Matrix) {
        self.matmul_packed(&PackedActivations::pack(x), out);
    }

    /// [`QuantMatrix::matmul_into`] over pre-packed activations, so callers
    /// multiplying several weight matrices against the same activations
    /// (the four LSTM gates) pay the quantize-and-pack pass once.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul_packed(&self, xp: &PackedActivations, out: &mut Matrix) {
        assert_eq!(
            self.cols, xp.depth,
            "quant matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, xp.depth, xp.n
        );
        assert_eq!(out.rows(), self.rows, "quant matmul output row mismatch");
        assert_eq!(out.cols(), xp.n, "quant matmul output col mismatch");
        simd::gemm_i8_pairs(
            &self.packed_w,
            self.rows,
            pair_count(self.cols),
            &xp.codes,
            xp.n_pad,
            &self.scales,
            &xp.scales,
            out.data_mut(),
            xp.n,
        );
    }

    /// Allocating wrapper over [`QuantMatrix::matmul_into`].
    pub fn matmul(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, x.cols());
        self.matmul_into(x, &mut out);
        out
    }
}

/// Quantized companions for a [`ParamStore`]'s weight matrices, indexed by
/// [`ParamId`].  Only 2-D weights (more than one column) are quantized;
/// biases and column vectors stay f32 and slot `None`.
#[derive(Debug, Clone, Default)]
pub struct QuantWeights {
    mats: Vec<Option<QuantMatrix>>,
}

impl QuantWeights {
    /// Quantize every 2-D weight matrix in the store.
    pub fn from_store(store: &ParamStore) -> Self {
        let mats = store
            .params()
            .iter()
            .map(|p| if p.value.cols() > 1 { Some(QuantMatrix::quantize(&p.value)) } else { None })
            .collect();
        QuantWeights { mats }
    }

    /// Rebuild an empty table sized for `n_params` slots (checkpoint load).
    pub fn with_slots(n_params: usize) -> Self {
        QuantWeights { mats: (0..n_params).map(|_| None).collect() }
    }

    /// Install a deserialized matrix at a parameter slot.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn set_slot(&mut self, index: usize, m: QuantMatrix) {
        self.mats[index] = Some(m);
    }

    /// The quantized form of a parameter, if that parameter was quantized.
    pub fn get(&self, id: ParamId) -> Option<&QuantMatrix> {
        self.mats.get(id.0).and_then(|m| m.as_ref())
    }

    /// Iterate `(param index, quantized matrix)` over populated slots, in
    /// slot order (checkpoint save).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &QuantMatrix)> {
        self.mats.iter().enumerate().filter_map(|(i, m)| m.as_ref().map(|q| (i, q)))
    }

    /// Number of populated (quantized) slots.
    pub fn n_quantized(&self) -> usize {
        self.mats.iter().filter(|m| m.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_matrix(rows: usize, cols: usize, mut seed: u32) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
                (seed >> 8) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn roundtrip_error_is_bounded_by_half_a_step() {
        let m = lcg_matrix(9, 13, 77);
        let q = QuantMatrix::quantize(&m);
        let back = q.dequantize();
        for r in 0..m.rows() {
            let step = q.scales()[r];
            for c in 0..m.cols() {
                let err = (m.get(r, c) - back.get(r, c)).abs();
                assert!(err <= step * 0.5 + 1e-7, "row {r}: err {err} > half-step {}", step * 0.5);
            }
        }
    }

    #[test]
    fn zero_rows_and_extreme_rows_quantize_safely() {
        let m = Matrix::from_vec(3, 4, vec![0.0, 0.0, 0.0, 0.0, 1000.0, -1000.0, 500.0, 0.25, -1e-6, 1e-6, 0.0, 0.0]);
        let q = QuantMatrix::quantize(&m);
        assert_eq!(q.scales()[0], 1.0, "all-zero row gets the neutral scale");
        assert!(q.data()[..4].iter().all(|&v| v == 0));
        assert_eq!(q.data()[4], 127);
        assert_eq!(q.data()[5], -127);
        let back = q.dequantize();
        assert!((back.get(1, 0) - 1000.0).abs() < 1e-3);
        // Tiny-magnitude rows keep finite scales and exact-zero codes.
        assert!(q.scales()[2] > 0.0 && q.scales()[2].is_finite());
    }

    #[test]
    fn quant_matmul_tracks_f32_matmul() {
        let w = lcg_matrix(12, 20, 5);
        let x = lcg_matrix(20, 7, 6);
        let q = QuantMatrix::quantize(&w);
        let approx = q.matmul(&x);
        let exact = w.matmul(&x);
        for i in 0..exact.len() {
            let (a, e) = (approx.data()[i], exact.data()[i]);
            // Two int8 quantizations: relative error stays within ~2%
            // of the column magnitude for well-scaled inputs.
            assert!((a - e).abs() < 0.05 * (1.0 + e.abs()), "quant {a} vs exact {e}");
        }
    }

    #[test]
    fn quant_matmul_zero_column_is_exactly_zero() {
        let w = lcg_matrix(4, 6, 9);
        let mut x = lcg_matrix(6, 3, 10);
        for k in 0..6 {
            x.set(k, 1, 0.0);
        }
        let q = QuantMatrix::quantize(&w);
        let out = q.matmul(&x);
        for i in 0..4 {
            assert_eq!(out.get(i, 1), 0.0);
        }
    }

    #[test]
    fn from_parts_roundtrips_serialization_accessors() {
        let m = lcg_matrix(5, 8, 3);
        let q = QuantMatrix::quantize(&m);
        let rebuilt = QuantMatrix::from_parts(q.rows(), q.cols(), q.scales().to_vec(), q.data().to_vec());
        assert_eq!(rebuilt, q);
    }

    #[test]
    fn quant_weights_skip_biases_and_serve_by_param_id() {
        let mut store = ParamStore::new();
        let w = store.add("layer.w", lcg_matrix(6, 10, 1));
        let b = store.add("layer.b", Matrix::zeros(6, 1));
        let qw = QuantWeights::from_store(&store);
        assert!(qw.get(w).is_some(), "2-D weight must be quantized");
        assert!(qw.get(b).is_none(), "bias column must stay f32");
        assert_eq!(qw.n_quantized(), 1);
        assert_eq!(qw.iter().count(), 1);

        let mut rebuilt = QuantWeights::with_slots(store.params().len());
        for (idx, m) in qw.iter() {
            rebuilt.set_slot(idx, m.clone());
        }
        assert_eq!(rebuilt.get(w), qw.get(w));
        assert_eq!(rebuilt.n_quantized(), 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The dispatched quantized matmul (whatever kernel path this host
        /// selected) agrees bit-for-bit with the scalar reference kernels
        /// on random shapes — the quant-tier determinism contract.
        #[test]
        fn dispatched_quant_matmul_bit_matches_scalar_kernels(
            rows in 1usize..20, depth in 1usize..50, n in 1usize..20,
            seed in 0u32..1_000_000,
        ) {
            let lcg = |len: usize, mut s: u32| -> Vec<f32> {
                (0..len).map(|_| {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    (s >> 8) as f32 / (1u32 << 24) as f32 * 4.0 - 2.0
                }).collect()
            };
            let w = Matrix::from_vec(rows, depth, lcg(rows * depth, seed ^ 0x5a));
            let x = Matrix::from_vec(depth, n, lcg(depth * n, seed ^ 0xa5));
            let q = QuantMatrix::quantize(&w);
            let xp = PackedActivations::pack(&x);

            // Codes must match the scalar quantizer exactly.
            let mut codes = vec![0i16; pair_count(depth) * xp.n_pad * 2];
            simd::quantize_interleave_scalar(x.data(), depth, n, xp.n_pad, &{
                let mut inv = vec![0.0f32; n];
                for (j, slot) in inv.iter_mut().enumerate() {
                    let m = (0..depth).map(|k| x.get(k, j).abs()).fold(0.0f32, f32::max);
                    if m != 0.0 { *slot = 127.0 / m; }
                }
                inv
            }, &mut codes);
            prop_assert_eq!(&codes, &xp.codes);

            // And the dispatched GEMM must match the scalar GEMM bit-for-bit.
            let got = q.matmul(&x);
            let mut want = vec![0.0f32; rows * n];
            simd::gemm_i8_pairs_scalar(
                &q.packed_w, rows, pair_count(depth), &xp.codes, xp.n_pad,
                &q.scales, &xp.scales, &mut want, n,
            );
            prop_assert_eq!(
                got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }

        /// Quantized matmul stays within the analytic error bound of the
        /// f32 matmul on random shapes (including vector-width remainders)
        /// and values.
        #[test]
        fn quant_matmul_error_is_bounded(
            rows in 1usize..12, depth in 1usize..40, n in 1usize..6,
            seed in 0u32..1_000_000,
        ) {
            let lcg = |len: usize, mut s: u32| -> Vec<f32> {
                (0..len).map(|_| {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    (s >> 8) as f32 / (1u32 << 24) as f32 * 4.0 - 2.0
                }).collect()
            };
            let w = Matrix::from_vec(rows, depth, lcg(rows * depth, seed ^ 0x11));
            let x = Matrix::from_vec(depth, n, lcg(depth * n, seed ^ 0x22));
            let q = QuantMatrix::quantize(&w);
            let approx = q.matmul(&x);
            let exact = w.matmul(&x);
            // Worst case: each of `depth` products carries half-step error
            // from both operands.
            for j in 0..n {
                let col_max = (0..depth).map(|k| x.get(k, j).abs()).fold(0.0f32, f32::max);
                let x_step = col_max / 127.0;
                for i in 0..rows {
                    let w_row_max = (0..depth).map(|k| w.get(i, k).abs()).fold(0.0f32, f32::max);
                    let w_step = q.scales()[i];
                    let bound = depth as f32 * 0.5 * (x_step * (w_row_max + w_step) + w_step * col_max) + 1e-5;
                    let err = (approx.get(i, j) - exact.get(i, j)).abs();
                    prop_assert!(err <= bound, "err {} > bound {} at ({}, {})", err, bound, i, j);
                }
            }
        }
    }
}
