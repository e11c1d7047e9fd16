//! Runtime-dispatched SIMD microkernels for the matrix hot paths.
//!
//! The blocked matmul kernels in [`crate::matrix`] were written as 8-wide
//! unrolled scalar loops the compiler auto-vectorizes under the workspace's
//! `target-cpu=x86-64-v3` build flag.  This module makes the vectorization
//! explicit and *runtime-dispatched*: [`active_path`] probes the host once
//! (`is_x86_feature_detected!("avx2")`) and every kernel routes to either an
//! explicit AVX2 implementation or the portable scalar fallback.  Setting
//! `E2E_FORCE_SCALAR=1` (before the first kernel call) pins the scalar path,
//! which is how CI's forced-scalar lane runs the whole kernel test suite
//! without SIMD.
//!
//! # Numerical contract
//!
//! Every kernel belongs to one f32 family ([`gemm_f32`], [`gemm_f32_nt`],
//! [`gemm_f32_tn`], [`linear_packed_f32`], [`lstm_gate_sweep`]) with one
//! cross-path contract (spelled out in `docs/perf.md`, "The f32 kernel
//! contract"): a **tolerance oracle plus per-path determinism**.  The AVX2
//! implementations use `_mm256_fmadd_ps`, which contracts the multiply-add
//! rounding step, so AVX2 and scalar results differ in low-order bits.  Each
//! dispatch path is run-to-run deterministic and agrees with
//! `Matrix::matmul_naive` to a relative error ≤ 1e-5, and — load-bearing for
//! subtree memoization — every output element is a strict sequential fold
//! over ascending `k`, independent of batch width, column position and
//! tile/lane boundaries.  (On the AVX2 path [`gemm_f32`] is in fact
//! *bit-equal* to the naive `f32::mul_add` triple loop; the tolerance is only
//! vs. the non-FMA naive oracle.)  The scalar arms are exact: they keep the
//! unfused arithmetic the golden checkpoints were recorded under, so the
//! forced-scalar lane pins estimates bit for bit.
//!
//! The property tests at the bottom pin the contract on remainder shapes
//! (lengths not divisible by the vector width, empty slices), and
//! `matrix::prop_tests` pins the full matmul kernels against the naive
//! oracle under both dispatch paths.

use std::cell::RefCell;

use std::sync::OnceLock;

/// Which kernel implementation [`active_path`] selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPath {
    /// Explicit AVX2 kernels (x86-64 with AVX2 detected at runtime).
    Avx2,
    /// Portable unrolled scalar kernels.
    Scalar,
}

impl DispatchPath {
    /// Stable lowercase name for logs and bench metadata.
    pub fn name(self) -> &'static str {
        match self {
            DispatchPath::Avx2 => "avx2",
            DispatchPath::Scalar => "scalar",
        }
    }
}

static ACTIVE: OnceLock<DispatchPath> = OnceLock::new();

/// The dispatch path every kernel in this module routes through, decided
/// once per process: scalar when `E2E_FORCE_SCALAR` is set non-empty (and
/// not `"0"`), otherwise AVX2 when the host supports it.
#[inline]
pub fn active_path() -> DispatchPath {
    *ACTIVE.get_or_init(|| {
        let forced = matches!(std::env::var("E2E_FORCE_SCALAR").as_deref(), Ok(v) if !v.is_empty() && v != "0");
        if !forced && avx2_available() {
            DispatchPath::Avx2
        } else {
            DispatchPath::Scalar
        }
    })
}

/// Name of the active dispatch path (`"avx2"` / `"scalar"`), for the bench
/// harnesses' host-capability metadata.
pub fn path_name() -> &'static str {
    active_path().name()
}

/// Active dispatch tier of the **f32 kernel family** (`"avx2+fma"` /
/// `"scalar"`) — the f32 GEMM tier emits fused multiply-adds, which bench
/// metadata names apart from the plain path name.
pub fn f32_path_name() -> &'static str {
    match active_path() {
        DispatchPath::Avx2 => "avx2+fma",
        DispatchPath::Scalar => "scalar",
    }
}

/// True when the AVX2 kernels can run on this host (independent of the
/// `E2E_FORCE_SCALAR` override).  Requires FMA as well as AVX2: every AVX2
/// kernel here is compiled with `target_feature(enable = "avx2,fma")` and
/// the f32 GEMM tier emits `vfmadd` instructions.  (No shipping x86-64 CPU
/// has AVX2 without FMA, but the dispatch guard states the real
/// precondition.)
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Scalar inner loops of the scalar arms
// ---------------------------------------------------------------------------

/// 8-wide unrolled scalar `out += a * b` over equal-length slices (the
/// auto-vectorizing form the blocked matmul shipped with): the inner loop
/// of the scalar GEMM arms and of the packed linear's scalar arm.
#[inline]
fn axpy_scalar(a: f32, b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(b.len(), out.len());
    let split = out.len() - out.len() % 8;
    let (b_main, b_tail) = b.split_at(split);
    let (o_main, o_tail) = out.split_at_mut(split);
    for (o, v) in o_main.chunks_exact_mut(8).zip(b_main.chunks_exact(8)) {
        o[0] += a * v[0];
        o[1] += a * v[1];
        o[2] += a * v[2];
        o[3] += a * v[3];
        o[4] += a * v[4];
        o[5] += a * v[5];
        o[6] += a * v[6];
        o[7] += a * v[7];
    }
    for (o, &v) in o_tail.iter_mut().zip(b_tail.iter()) {
        *o += a * v;
    }
}

/// 8-accumulator unrolled scalar dot product of equal-length slices (the
/// original kernel), the inner loop of [`gemm_f32_nt_scalar`].  The
/// reduction order — remainder tail summed first, then the eight lane
/// accumulators in index order — is part of the scalar arm's exact bits.
#[inline]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % 8;
    let mut acc = [0.0f32; 8];
    for (x, y) in a[..split].chunks_exact(8).zip(b[..split].chunks_exact(8)) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
        acc[4] += x[4] * y[4];
        acc[5] += x[5] * y[5];
        acc[6] += x[6] * y[6];
        acc[7] += x[7] * y[7];
    }
    let mut sum: f32 = a[split..].iter().zip(b[split..].iter()).map(|(x, y)| x * y).sum();
    for v in acc {
        sum += v;
    }
    sum
}

// ---------------------------------------------------------------------------
// f32 FMA GEMM tier (the batched-inference matmul kernels)
// ---------------------------------------------------------------------------

/// Depth (K) extent of one packed tile in the scalar GEMM fallback.
const KC: usize = 64;
/// Width (N) extent of one packed tile in the scalar GEMM fallback;
/// `KC * NC * 4` bytes = 16 KiB, half a typical L1d.
const NC: usize = 64;

/// Panel width of the AVX2 packed-B layout: one `f32x8` vector.
pub const GEMM_NR: usize = 8;
/// Row-block height of the AVX2 microkernel: eight `ymm` accumulators.
const GEMM_MR: usize = 8;

thread_local! {
    /// Per-thread packed-B buffer for [`gemm_f32`]'s AVX2 path, so steady-state
    /// inference never allocates per matmul call.  Grows to the largest
    /// `k * n_pad` seen on this thread and stays there.
    static GEMM_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Pack a row-major `k x n` matrix into 8-wide column panels: panel `p`
/// covers columns `[8p, 8p + 8)` and occupies `k * 8` consecutive floats,
/// row `kk`'s eight column values at offset `p * k * 8 + kk * 8`.  The last
/// panel's missing columns are **zero-padded**, which is what lets the
/// microkernel run full-width FMAs at every column remainder (padded lanes
/// compute garbage that is never stored).  Returns `n` rounded up to the
/// panel width.  Exposed (rather than private to the AVX2 path) so
/// `examples/profile_matmul.rs` can time the pack phase apart from the
/// microkernel.
pub fn pack_b_f32(b: &[f32], k: usize, n: usize, pack: &mut Vec<f32>) -> usize {
    debug_assert_eq!(b.len(), k * n);
    let n_pad = n.next_multiple_of(GEMM_NR);
    if pack.len() < k * n_pad {
        pack.resize(k * n_pad, 0.0);
    }
    let full_panels = n / GEMM_NR;
    for p in 0..full_panels {
        let dst = &mut pack[p * k * GEMM_NR..(p + 1) * k * GEMM_NR];
        for kk in 0..k {
            let src = &b[kk * n + p * GEMM_NR..kk * n + p * GEMM_NR + GEMM_NR];
            dst[kk * GEMM_NR..kk * GEMM_NR + GEMM_NR].copy_from_slice(src);
        }
    }
    if full_panels * GEMM_NR < n {
        let p = full_panels;
        let nc = n - p * GEMM_NR;
        let dst = &mut pack[p * k * GEMM_NR..(p + 1) * k * GEMM_NR];
        for kk in 0..k {
            let row = &mut dst[kk * GEMM_NR..kk * GEMM_NR + GEMM_NR];
            row[..nc].copy_from_slice(&b[kk * n + p * GEMM_NR..kk * n + p * GEMM_NR + nc]);
            row[nc..].fill(0.0);
        }
    }
    n_pad
}

/// Row-major GEMM `out = a * b` (`a` is `m x k`, `b` is `k x n`), the kernel
/// behind [`crate::matrix::Matrix::matmul_into`].  `out` is overwritten.
///
/// Dispatch: the AVX2 path packs `b` into 8-wide panels ([`pack_b_f32`]) and
/// runs an 8x8 register-blocked `vfmadd` microkernel; the scalar path is the
/// cache-blocked axpy kernel the matmul shipped with (byte-for-byte the old
/// arithmetic, so forced-scalar estimates stay on the recorded golden bits).
///
/// Numerical contract (see the module doc): on the AVX2 path every output
/// element is the strict sequential fold `acc = fma(a[i][kk], b[kk][j], acc)`
/// over ascending `kk` — each element a pure function of its own row/column,
/// independent of `m`, `n`, lane position and row-block boundaries, which is
/// what keeps subtree memoization bit-stable under changing batch
/// composition.
///
/// # Panics
/// Panics if a slice's length disagrees with `m`, `k` and `n`, before any
/// element is read.
pub fn gemm_f32(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_gemm_shape("gemm_f32", a, m, k, b, n, out);
    match active_path() {
        #[cfg(target_arch = "x86_64")]
        DispatchPath::Avx2 => gemm_f32_avx2(a, m, k, b, n, out),
        _ => gemm_f32_scalar(a, m, k, b, n, out),
    }
}

/// Scalar fallback for [`gemm_f32`]: the cache-blocked kernel `Matrix::matmul`
/// shipped with (tiles of `b` packed into a 16 KiB stack buffer, 8-wide
/// unrolled axpy inner loop, zero-coefficient rows skipped).  Kept verbatim —
/// the forced-scalar CI lane's golden-checkpoint bits depend on it.
pub fn gemm_f32_scalar(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.iter_mut().for_each(|x| *x = 0.0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    if k <= KC && n <= NC {
        // Single-tile case: `b` already fits in L1, so packing would only
        // add a copy.  The estimator's per-level matrices almost always
        // land here.
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (kk, &coef) in a_row.iter().enumerate() {
                if coef == 0.0 {
                    continue;
                }
                axpy_scalar(coef, &b[kk * n..(kk + 1) * n], out_row);
            }
        }
        return;
    }
    let mut pack = [0.0f32; KC * NC];
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        for nb in (0..n).step_by(NC) {
            let nc = NC.min(n - nb);
            // Pack b[kb..kb+kc, nb..nb+nc] row-major into `pack`.
            for kk in 0..kc {
                let src = &b[(kb + kk) * n + nb..(kb + kk) * n + nb + nc];
                pack[kk * nc..kk * nc + nc].copy_from_slice(src);
            }
            for i in 0..m {
                let a_row = &a[i * k + kb..i * k + kb + kc];
                let out_row = &mut out[i * n + nb..i * n + nb + nc];
                for (kk, &coef) in a_row.iter().enumerate() {
                    // One-hot feature vectors make zero coefficients
                    // common; skipping them skips whole axpy rows.
                    if coef == 0.0 {
                        continue;
                    }
                    axpy_scalar(coef, &pack[kk * nc..kk * nc + nc], out_row);
                }
            }
        }
    }
}

/// Explicit AVX2+FMA GEMM (8x8 register-blocked over packed-B panels).
///
/// # Panics
/// Panics when AVX2+FMA is not available on this host, or if a slice's
/// length disagrees with `m`, `k` and `n` (before any element is read).
#[cfg(target_arch = "x86_64")]
pub fn gemm_f32_avx2(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert!(avx2_available(), "gemm_f32_avx2 called without AVX2+FMA support");
    assert_gemm_shape("gemm_f32_avx2", a, m, k, b, n, out);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.iter_mut().for_each(|x| *x = 0.0);
        return;
    }
    GEMM_PACK.with(|cell| {
        let mut pack = cell.borrow_mut();
        pack_b_f32(b, k, n, &mut pack);
        // SAFETY: AVX2+FMA was checked above, `a` and `out` hold `m * k`
        // and `m * n` floats, and `pack_b_f32` left at least
        // `k * n.next_multiple_of(8)` packed floats.
        unsafe { gemm_f32_packed_avx2_impl(a, m, k, &pack, n, out) }
    });
}

/// Check the operand lengths of an `m x k` by `k x n` GEMM — the bounds
/// the AVX2 kernels' unchecked loads and full-panel stores rely on.
fn assert_gemm_shape(kernel: &str, a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &[f32]) {
    assert_eq!(a.len(), m * k, "{kernel}: `a` holds {} floats, not m * k = {m} * {k}", a.len());
    assert_eq!(b.len(), k * n, "{kernel}: `b` holds {} floats, not k * n = {k} * {n}", b.len());
    assert_eq!(out.len(), m * n, "{kernel}: `out` holds {} floats, not m * n = {m} * {n}", out.len());
}

/// Store the low `nc` lanes of `v` at `out[off..off + nc]`.
///
/// # Safety
/// Requires AVX2; `off + nc <= out.len()` and `nc <= 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn store_f32_lanes(out: &mut [f32], off: usize, v: std::arch::x86_64::__m256, nc: usize) {
    use std::arch::x86_64::*;
    if nc == GEMM_NR {
        _mm256_storeu_ps(out.as_mut_ptr().add(off), v);
    } else {
        let mut tmp = [0f32; GEMM_NR];
        _mm256_storeu_ps(tmp.as_mut_ptr(), v);
        out[off..off + nc].copy_from_slice(&tmp[..nc]);
    }
}

/// The 8x8 microkernel sweep over pre-packed panels: for each 8-column
/// panel, eight rows of `a` are reduced together, one `ymm` accumulator per
/// row, broadcasting `a[i][kk]` against the panel's row vector and fusing
/// with `vfmadd231ps`.  Accumulators live across the whole `k` extent (no
/// tiling in `k` — the estimator's depths are a few hundred at most, and an
/// un-tiled fold is what makes every element a strict sequential fma chain).
///
/// # Safety
/// Requires AVX2+FMA.  `pack` must hold `k * n.next_multiple_of(8)` floats
/// in [`pack_b_f32`] layout; `a` is `m x k`, `out` is `m x n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_f32_packed_avx2_impl(a: &[f32], m: usize, k: usize, pack: &[f32], n: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut jb = 0;
    while jb < n {
        let panel = pack.as_ptr().add((jb / GEMM_NR) * k * GEMM_NR);
        let nc = GEMM_NR.min(n - jb);
        let mut i = 0;
        while i + GEMM_MR <= m {
            let mut acc = [_mm256_setzero_ps(); GEMM_MR];
            for kk in 0..k {
                let vb = _mm256_loadu_ps(panel.add(kk * GEMM_NR));
                for (r, accr) in acc.iter_mut().enumerate() {
                    let va = _mm256_set1_ps(*a.get_unchecked((i + r) * k + kk));
                    *accr = _mm256_fmadd_ps(va, vb, *accr);
                }
            }
            for (r, &accr) in acc.iter().enumerate() {
                store_f32_lanes(out, (i + r) * n + jb, accr, nc);
            }
            i += GEMM_MR;
        }
        // Remainder rows: same fold, one accumulator at a time.
        while i < m {
            let mut acc = _mm256_setzero_ps();
            for kk in 0..k {
                let vb = _mm256_loadu_ps(panel.add(kk * GEMM_NR));
                let va = _mm256_set1_ps(*a.get_unchecked(i * k + kk));
                acc = _mm256_fmadd_ps(va, vb, acc);
            }
            store_f32_lanes(out, i * n + jb, acc, nc);
            i += 1;
        }
        jb += GEMM_NR;
    }
}

// ---------------------------------------------------------------------------
// Packed-weight linear layer (the served generation's `W·x + b`)
// ---------------------------------------------------------------------------

/// Pack a row-major `m x k` weight matrix into 8-row panels: panel `p`
/// covers rows `[8p, 8p + 8)` and occupies `k * 8` consecutive floats,
/// column `kk`'s eight row values at offset `p * k * 8 + kk * 8`.  The last
/// panel's missing rows are **zero-padded**, so [`linear_packed_f32`]'s
/// AVX2 arm runs full-width FMAs at every row remainder (padded lanes are
/// never stored).  This is [`pack_b_f32`]'s layout applied to `Wᵀ`: the
/// weights take the panel side, and the activations are broadcast.
///
/// # Panics
/// Panics if `w` does not hold `m * k` floats.
pub fn pack_rows_f32(w: &[f32], m: usize, k: usize) -> Vec<f32> {
    assert_eq!(w.len(), m * k, "pack_rows_f32: `w` holds {} floats, not m * k = {m} * {k}", w.len());
    let mut panels = vec![0.0f32; m.next_multiple_of(GEMM_NR) * k];
    for (i, row) in w.chunks_exact(k.max(1)).enumerate() {
        let (p, r) = (i / GEMM_NR, i % GEMM_NR);
        for (kk, &v) in row.iter().enumerate() {
            panels[p * k * GEMM_NR + kk * GEMM_NR + r] = v;
        }
    }
    panels
}

/// The fused affine map `out = W·x + b` over weights packed once by
/// [`pack_rows_f32`] (`W` is `m x k`, `x` is `k x n` row-major, `out` is
/// `m x n` and overwritten; `bias` is `b` zero-padded to
/// `m.next_multiple_of(8)` floats).  It copies no weight, packs no
/// activation and adds the bias before it stores; the last `n % 8`
/// columns run with rows of `W` in the lanes, so `n = 1` fills every lane.
///
/// Each output element has **the bits of [`gemm_f32`] followed by
/// `Matrix::add_bias_into`** on the same dispatch path:
///
/// * **AVX2+FMA arm** — `gemm_f32`'s strict ascending-`kk` fold
///   `acc = fma(W[i][kk], x[kk][j], acc)` from `+0.0`, then `acc + b[i]`.
///   The row-lane tiles compute `fma(x[kk][j], W[i][kk], acc)`: an FMA
///   rounds the exact product once, so its two factors commute exactly
///   (up to which NaN payload propagates when both factors are NaNs).
/// * **Scalar arm** — [`gemm_f32_scalar`]'s unfused fold `acc += W[i][kk] *
///   x[kk][j]` over ascending `kk`, skipping zero coefficients, then
///   `acc + b[i]`.
///
/// # Panics
/// Panics if a slice's length disagrees with `m`, `k` and `n`, before any
/// element is read.
pub fn linear_packed_f32(panels: &[f32], bias: &[f32], m: usize, k: usize, x: &[f32], n: usize, out: &mut [f32]) {
    assert_linear_shape("linear_packed_f32", panels, bias, m, k, x, n, out);
    match active_path() {
        // SAFETY: the AVX2 path is chosen only where AVX2+FMA is available,
        // and the lengths were checked above.
        #[cfg(target_arch = "x86_64")]
        DispatchPath::Avx2 => unsafe { linear_packed_avx2_impl(panels, bias, m, k, x, n, out) },
        _ => linear_packed_scalar_impl(panels, bias, m, k, x, n, out),
    }
}

/// Scalar arm of [`linear_packed_f32`], callable on any path (for tests and
/// the profile).
///
/// # Panics
/// As [`linear_packed_f32`].
pub fn linear_packed_f32_scalar(
    panels: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    x: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert_linear_shape("linear_packed_f32_scalar", panels, bias, m, k, x, n, out);
    linear_packed_scalar_impl(panels, bias, m, k, x, n, out);
}

/// Explicit AVX2+FMA arm of [`linear_packed_f32`].
///
/// # Panics
/// Panics when AVX2+FMA is not available on this host, or as
/// [`linear_packed_f32`].
#[cfg(target_arch = "x86_64")]
pub fn linear_packed_f32_avx2(panels: &[f32], bias: &[f32], m: usize, k: usize, x: &[f32], n: usize, out: &mut [f32]) {
    assert!(avx2_available(), "linear_packed_f32_avx2 called without AVX2+FMA support");
    assert_linear_shape("linear_packed_f32_avx2", panels, bias, m, k, x, n, out);
    // SAFETY: AVX2+FMA was checked above, and so were the lengths.
    unsafe { linear_packed_avx2_impl(panels, bias, m, k, x, n, out) }
}

/// Check the operand lengths of a packed `m x k` layer applied to `k x n`
/// activations — the bounds [`linear_packed_avx2_impl`]'s unchecked loads
/// rely on.
#[allow(clippy::too_many_arguments)]
fn assert_linear_shape(
    kernel: &str,
    panels: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    x: &[f32],
    n: usize,
    out: &[f32],
) {
    let m_pad = m.next_multiple_of(GEMM_NR);
    assert_eq!(panels.len(), m_pad * k, "{kernel}: `panels` hold {} floats, not {m_pad} * {k}", panels.len());
    assert_eq!(bias.len(), m_pad, "{kernel}: `bias` holds {} floats, not {m_pad}", bias.len());
    assert_eq!(x.len(), k * n, "{kernel}: `x` holds {} floats, not k * n = {k} * {n}", x.len());
    assert_eq!(out.len(), m * n, "{kernel}: `out` holds {} floats, not m * n = {m} * {n}", out.len());
}

/// The scalar fold of [`gemm_f32_scalar`], one 8-row panel at a time: each
/// nonzero coefficient adds its row of `x` into its output row
/// ([`axpy_scalar`]) in ascending `kk`, reading the panel in order, then the
/// bias is added once.
fn linear_packed_scalar_impl(panels: &[f32], bias: &[f32], m: usize, k: usize, x: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    for (p, block) in out.chunks_mut(GEMM_NR * n).enumerate() {
        let panel = &panels[p * k * GEMM_NR..(p + 1) * k * GEMM_NR];
        block.fill(0.0);
        for (coefs, x_row) in panel.chunks_exact(GEMM_NR).zip(x.chunks_exact(n)) {
            for (out_row, &coef) in block.chunks_exact_mut(n).zip(coefs) {
                if coef != 0.0 {
                    axpy_scalar(coef, x_row, out_row);
                }
            }
        }
        for (out_row, &b) in block.chunks_exact_mut(n).zip(&bias[p * GEMM_NR..m.min((p + 1) * GEMM_NR)]) {
            for o in out_row.iter_mut() {
                *o += b;
            }
        }
    }
}

/// Two sweeps over the same panels.  Each full block of 8 columns runs
/// [`gemm_f32`]'s microkernel with its operands swapped in memory: an 8-row
/// panel broadcasts its coefficients, the 8 columns of `x` load straight
/// from its rows (the layout `pack_b_f32` would copy them into), and each
/// accumulator stores one output row's 8 columns.  The remaining `n % 8`
/// columns run with rows in the lanes instead ([`PackedTile`]): up to four
/// panels (32 rows) share each broadcast of `x`, and a tile holds at most
/// eight accumulators, so a narrow `n` still runs four independent FMA
/// chains on a 32-row layer.
///
/// # Safety
/// Requires AVX2+FMA and the lengths [`assert_linear_shape`] checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn linear_packed_avx2_impl(
    panels: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    x: &[f32],
    n: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let np = m.div_ceil(GEMM_NR);
    let full = n - n % GEMM_NR;
    for j0 in (0..full).step_by(GEMM_NR) {
        for p in 0..np {
            let w = panels.as_ptr().add(p * k * GEMM_NR);
            let row0 = p * GEMM_NR;
            let rows = GEMM_NR.min(m - row0);
            // SAFETY (loads and stores below): `kk < k` and `j0 + 8 <= n`
            // keep every load of `x` inside its `k * n` floats, `r < 8`
            // keeps every coefficient inside this panel's `k * 8`, and
            // `row0 + r < m` keeps every 8-float store inside `out`'s
            // `m * n`.
            if rows == GEMM_MR {
                let mut acc = [_mm256_setzero_ps(); GEMM_MR];
                for kk in 0..k {
                    let vx = _mm256_loadu_ps(x.as_ptr().add(kk * n + j0));
                    for (r, a) in acc.iter_mut().enumerate() {
                        *a = _mm256_fmadd_ps(_mm256_set1_ps(*w.add(kk * GEMM_NR + r)), vx, *a);
                    }
                }
                for (r, &a) in acc.iter().enumerate() {
                    let v = _mm256_add_ps(a, _mm256_set1_ps(bias[row0 + r]));
                    _mm256_storeu_ps(out.as_mut_ptr().add((row0 + r) * n + j0), v);
                }
            } else {
                // Remainder rows: the same fold, one accumulator at a time.
                for r in 0..rows {
                    let mut a = _mm256_setzero_ps();
                    for kk in 0..k {
                        let vx = _mm256_loadu_ps(x.as_ptr().add(kk * n + j0));
                        a = _mm256_fmadd_ps(_mm256_set1_ps(*w.add(kk * GEMM_NR + r)), vx, a);
                    }
                    let v = _mm256_add_ps(a, _mm256_set1_ps(bias[row0 + r]));
                    _mm256_storeu_ps(out.as_mut_ptr().add((row0 + r) * n + j0), v);
                }
            }
        }
    }
    if full == n {
        return;
    }
    let mut p0 = 0;
    while p0 < np {
        let pb = match np - p0 {
            1 => 1,
            2 | 3 => 2,
            _ => 4,
        };
        let mut j0 = full;
        while j0 < n {
            let c = (n - j0).min(GEMM_MR / pb);
            let t = PackedTile { panels, bias, m, k, x, n, p0, j0 };
            // SAFETY: `p0 + pb <= np` panels and `j0 + c <= n` columns, so
            // every load the tile makes is in bounds (see `PackedTile::run`).
            match (pb, c) {
                (4, 2) => t.run::<4, 2>(out),
                (4, 1) => t.run::<4, 1>(out),
                (2, 4) => t.run::<2, 4>(out),
                (2, 3) => t.run::<2, 3>(out),
                (2, 2) => t.run::<2, 2>(out),
                (2, 1) => t.run::<2, 1>(out),
                (1, 7) => t.run::<1, 7>(out),
                (1, 6) => t.run::<1, 6>(out),
                (1, 5) => t.run::<1, 5>(out),
                (1, 4) => t.run::<1, 4>(out),
                (1, 3) => t.run::<1, 3>(out),
                (1, 2) => t.run::<1, 2>(out),
                (1, 1) => t.run::<1, 1>(out),
                _ => unreachable!("a tile is at most 4 panels by 8 / panels columns, and fewer than 8 columns remain"),
            }
            j0 += c;
        }
        p0 += pb;
    }
}

/// One tile of [`linear_packed_avx2_impl`]: panels `p0..p0 + P` by columns
/// `j0..j0 + C`.
#[cfg(target_arch = "x86_64")]
struct PackedTile<'a> {
    panels: &'a [f32],
    bias: &'a [f32],
    m: usize,
    k: usize,
    x: &'a [f32],
    n: usize,
    p0: usize,
    j0: usize,
}

#[cfg(target_arch = "x86_64")]
impl PackedTile<'_> {
    /// `P x C` accumulators live in registers across the whole depth: each
    /// step loads one 8-row vector per panel, broadcasts one activation per
    /// column and runs one `vfmadd` per accumulator.
    ///
    /// # Safety
    /// Requires AVX2+FMA, the lengths [`assert_linear_shape`] checks,
    /// `p0 + P <= m.div_ceil(8)` and `j0 + C <= n`: the loads then stay
    /// inside `panels` (`k * 8` floats per panel), `bias` (8 per panel) and
    /// `x` (`k * n`).  Stores are bounds-checked.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn run<const P: usize, const C: usize>(&self, out: &mut [f32]) {
        use std::arch::x86_64::*;
        let (k, n) = (self.k, self.n);
        let w_base = self.panels.as_ptr().add(self.p0 * k * GEMM_NR);
        let x_base = self.x.as_ptr().add(self.j0);
        let mut acc = [[_mm256_setzero_ps(); C]; P];
        for kk in 0..k {
            let mut xs = [_mm256_setzero_ps(); C];
            for (c, xv) in xs.iter_mut().enumerate() {
                *xv = _mm256_set1_ps(*x_base.add(kk * n + c));
            }
            for (p, accp) in acc.iter_mut().enumerate() {
                let w = _mm256_loadu_ps(w_base.add((p * k + kk) * GEMM_NR));
                for (a, &xv) in accp.iter_mut().zip(&xs) {
                    *a = _mm256_fmadd_ps(xv, w, *a);
                }
            }
        }
        for (p, accp) in acc.iter().enumerate() {
            let row0 = (self.p0 + p) * GEMM_NR;
            let b = _mm256_loadu_ps(self.bias.as_ptr().add(row0));
            let rows = GEMM_NR.min(self.m - row0);
            for (c, &a) in accp.iter().enumerate() {
                let mut lanes = [0.0f32; GEMM_NR];
                _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_add_ps(a, b));
                for (r, &v) in lanes.iter().enumerate().take(rows) {
                    out[(row0 + r) * n + self.j0 + c] = v;
                }
            }
        }
    }
}

/// Row-major `out = a * bᵀ` without materializing the transpose (`a` is
/// `m x k`, `b` is `n x k`): rows of `a` dot rows of `b`.  The kernel behind
/// `Matrix::matmul_nt_into` — the backward pass's `dA = dC · Bᵀ`.  `out` is
/// overwritten.  Same per-path contract as [`gemm_f32`]; the AVX2 path fuses
/// with `vfmadd` (one vector accumulator, remainder tail folded first via
/// `f32::mul_add`, then lanes summed in index order).
pub fn gemm_f32_nt(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    match active_path() {
        #[cfg(target_arch = "x86_64")]
        DispatchPath::Avx2 => unsafe { gemm_f32_nt_avx2_impl(a, m, k, b, n, out) },
        _ => gemm_f32_nt_scalar(a, m, k, b, n, out),
    }
}

/// Scalar fallback for [`gemm_f32_nt`]: the original per-element
/// `dot_scalar` kernel, byte-for-byte.
pub fn gemm_f32_nt_scalar(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = dot_scalar(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// # Safety
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_f32_nt_avx2_impl(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let split = k - k % 8;
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = _mm256_setzero_ps();
            let mut kk = 0;
            while kk < split {
                let va = _mm256_loadu_ps(a_row.as_ptr().add(kk));
                let vb = _mm256_loadu_ps(b_row.as_ptr().add(kk));
                acc = _mm256_fmadd_ps(va, vb, acc);
                kk += 8;
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
            let mut sum = a_row[split..].iter().zip(b_row[split..].iter()).fold(0.0f32, |s, (&x, &y)| x.mul_add(y, s));
            for v in lanes {
                sum += v;
            }
            *o = sum;
        }
    }
}

/// Row-major `out = aᵀ * other` without materializing the transpose (`a` is
/// `rows x k_out`, `other` is `rows x n`, `out` is `k_out x n`), via axpy
/// over rows of both operands.  The kernel behind `Matrix::matmul_tn_into` —
/// the backward pass's `dB = Aᵀ · dC`.  `out` is overwritten.  Both paths
/// skip zero coefficients (one-hot feature rows); on the AVX2 path that skip
/// is bit-neutral because `fma(0, y, acc) == acc` for every finite `y`.
pub fn gemm_f32_tn(a: &[f32], rows: usize, k_out: usize, other: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), rows * k_out);
    debug_assert_eq!(other.len(), rows * n);
    debug_assert_eq!(out.len(), k_out * n);
    match active_path() {
        #[cfg(target_arch = "x86_64")]
        DispatchPath::Avx2 => unsafe { gemm_f32_tn_avx2_impl(a, rows, k_out, other, n, out) },
        _ => gemm_f32_tn_scalar(a, rows, k_out, other, n, out),
    }
}

/// Scalar fallback for [`gemm_f32_tn`]: the original `axpy_scalar` kernel,
/// byte-for-byte.
pub fn gemm_f32_tn_scalar(a: &[f32], rows: usize, k_out: usize, other: &[f32], n: usize, out: &mut [f32]) {
    out.iter_mut().for_each(|x| *x = 0.0);
    for r in 0..rows {
        let o_row = &other[r * n..(r + 1) * n];
        let a_row = &a[r * k_out..(r + 1) * k_out];
        for (i, &coef) in a_row.iter().enumerate() {
            if coef == 0.0 {
                continue;
            }
            axpy_scalar(coef, o_row, &mut out[i * n..(i + 1) * n]);
        }
    }
}

/// # Safety
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_f32_tn_avx2_impl(a: &[f32], rows: usize, k_out: usize, other: &[f32], n: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    out.iter_mut().for_each(|x| *x = 0.0);
    let split = n - n % 8;
    for r in 0..rows {
        let o_row = &other[r * n..(r + 1) * n];
        let a_row = &a[r * k_out..(r + 1) * k_out];
        for (i, &coef) in a_row.iter().enumerate() {
            if coef == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            let va = _mm256_set1_ps(coef);
            let mut j = 0;
            while j < split {
                let vb = _mm256_loadu_ps(o_row.as_ptr().add(j));
                let vo = _mm256_loadu_ps(out_row.as_ptr().add(j));
                _mm256_storeu_ps(out_row.as_mut_ptr().add(j), _mm256_fmadd_ps(va, vb, vo));
                j += 8;
            }
            for (o, &v) in out_row[split..].iter_mut().zip(o_row[split..].iter()) {
                *o = coef.mul_add(v, *o);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fused LSTM gate activation sweep
// ---------------------------------------------------------------------------

/// Exact sigmoid used everywhere in the graph (`Graph::sigmoid`); the fused
/// sweep must match it bit-for-bit.
#[inline(always)]
fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Apply the four LSTM gate activations in one fused in-place sweep:
/// sigmoid over the forget (`f`), input (`k1`) and output (`k2`) gate
/// pre-activations and tanh over the candidate (`r`).  The f32 tier's gate
/// sweep, dispatched like the GEMM kernels:
///
/// * **Scalar path** — exactly `Graph::sigmoid` / `Graph::tanh`'s libm
///   formulas per element ([`lstm_gate_sweep_scalar`]), bit-identical to the
///   four separate column passes, keeping forced-scalar estimates on the
///   recorded golden-checkpoint bits.
/// * **AVX2 path** — 8-wide FMA-fused rational tanh / half-angle sigmoid
///   ([`tanh_fma`] / [`sigmoid_fma`]; abs error vs. libm < 1e-5, inside the
///   f32 tier's tolerance contract).  The remainder tail computes the
///   **identical** `mul_add` sequence scalar-side, so every element's value
///   is a pure function of its input — independent of buffer length and
///   lane position, which subtree memoization relies on.
///
/// # Panics
/// Panics if the buffers disagree in length.
pub fn lstm_gate_sweep(f: &mut [f32], k1: &mut [f32], r: &mut [f32], k2: &mut [f32]) {
    assert_eq!(f.len(), k1.len(), "lstm_gate_sweep: gate buffer length mismatch");
    assert_eq!(f.len(), r.len(), "lstm_gate_sweep: gate buffer length mismatch");
    assert_eq!(f.len(), k2.len(), "lstm_gate_sweep: gate buffer length mismatch");
    match active_path() {
        #[cfg(target_arch = "x86_64")]
        DispatchPath::Avx2 => unsafe {
            sweep_sigmoid_fma_avx2(f);
            sweep_sigmoid_fma_avx2(k1);
            sweep_tanh_fma_avx2(r);
            sweep_sigmoid_fma_avx2(k2);
        },
        _ => lstm_gate_sweep_scalar(f, k1, r, k2),
    }
}

/// Scalar (exact libm) arm of [`lstm_gate_sweep`], kept callable for tests.
///
/// # Panics
/// Panics if the buffers disagree in length.
pub fn lstm_gate_sweep_scalar(f: &mut [f32], k1: &mut [f32], r: &mut [f32], k2: &mut [f32]) {
    assert_eq!(f.len(), k1.len(), "lstm_gate_sweep: gate buffer length mismatch");
    assert_eq!(f.len(), r.len(), "lstm_gate_sweep: gate buffer length mismatch");
    assert_eq!(f.len(), k2.len(), "lstm_gate_sweep: gate buffer length mismatch");
    for (((vf, vk1), vr), vk2) in f.iter_mut().zip(k1.iter_mut()).zip(r.iter_mut()).zip(k2.iter_mut()) {
        *vf = sigmoid(*vf);
        *vk1 = sigmoid(*vk1);
        *vr = vr.tanh();
        *vk2 = sigmoid(*vk2);
    }
}

// ---------------------------------------------------------------------------
// Rational tanh / sigmoid (the AVX2 arm of the gate sweep)
// ---------------------------------------------------------------------------

/// Input clamp of the rational tanh fit (tanh saturates to ±1 in f32 beyond
/// this).
const TANH_CLAMP: f32 = 7.905_311f32;
/// Odd numerator coefficients of the degree-13/6 rational tanh fit
/// (x¹, x³, …, x¹³).
const TANH_A: [f32; 7] =
    [4.893_525e-3, 6.372_619e-4, 1.485_722_4e-5, 5.122_297e-8, -8.604_672e-11, 2.000_188e-13, -2.760_768_5e-16];
/// Even denominator coefficients (x⁰, x², x⁴, x⁶).
const TANH_B: [f32; 4] = [4.893_525e-3, 2.268_434_6e-3, 1.185_347e-4, 1.198_258_4e-6];

/// Rational tanh (degree 13/6 odd rational on the clamped input, the classic
/// single-precision fit used by Eigen and XNNPACK) with **fused**
/// multiply-adds (`f32::mul_add`) in the Horner steps — the f32 tier's AVX2
/// activation.  Scalar `mul_add` rounds exactly like one `vfmadd` lane, so
/// this function *is* the definition of what [`lstm_gate_sweep`]'s AVX2 path
/// computes per element (the vector sweep's remainder tail calls it
/// directly).  Approximation error vs. libm `tanh` is about 3e-7.
#[inline(always)]
pub fn tanh_fma(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    let mut p = TANH_A[6];
    p = p.mul_add(x2, TANH_A[5]);
    p = p.mul_add(x2, TANH_A[4]);
    p = p.mul_add(x2, TANH_A[3]);
    p = p.mul_add(x2, TANH_A[2]);
    p = p.mul_add(x2, TANH_A[1]);
    p = p.mul_add(x2, TANH_A[0]);
    p *= x;
    let mut q = TANH_B[3];
    q = q.mul_add(x2, TANH_B[2]);
    q = q.mul_add(x2, TANH_B[1]);
    q = q.mul_add(x2, TANH_B[0]);
    p / q
}

/// Fused-multiply-add sigmoid via the tanh half-angle identity — the f32
/// tier's AVX2 activation (see [`tanh_fma`]).
#[inline(always)]
pub fn sigmoid_fma(x: f32) -> f32 {
    0.5f32.mul_add(tanh_fma(0.5 * x), 0.5)
}

/// 8-wide [`tanh_fma`]: identical clamp / Horner / divide sequence, one
/// `vfmadd` per Horner step, so every lane rounds exactly like the scalar
/// `mul_add` chain.
///
/// # Safety
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn tanh_fma_x8(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-TANH_CLAMP)), _mm256_set1_ps(TANH_CLAMP));
    let x2 = _mm256_mul_ps(x, x);
    let mut p = _mm256_set1_ps(TANH_A[6]);
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(TANH_A[5]));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(TANH_A[4]));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(TANH_A[3]));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(TANH_A[2]));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(TANH_A[1]));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(TANH_A[0]));
    p = _mm256_mul_ps(p, x);
    let mut q = _mm256_set1_ps(TANH_B[3]);
    q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(TANH_B[2]));
    q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(TANH_B[1]));
    q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(TANH_B[0]));
    _mm256_div_ps(p, q)
}

/// In-place 8-wide [`tanh_fma`] sweep; the tail runs the identical scalar
/// `mul_add` chain, so values are position-independent.
///
/// # Safety
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn sweep_tanh_fma_avx2(buf: &mut [f32]) {
    use std::arch::x86_64::*;
    let split = buf.len() - buf.len() % 8;
    let mut i = 0;
    while i < split {
        let v = tanh_fma_x8(_mm256_loadu_ps(buf.as_ptr().add(i)));
        _mm256_storeu_ps(buf.as_mut_ptr().add(i), v);
        i += 8;
    }
    for v in &mut buf[split..] {
        *v = tanh_fma(*v);
    }
}

/// In-place 8-wide [`sigmoid_fma`] sweep (half-angle identity; the outer
/// `0.5 * t + 0.5` is one fused step, matching the scalar helper).
///
/// # Safety
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn sweep_sigmoid_fma_avx2(buf: &mut [f32]) {
    use std::arch::x86_64::*;
    let half = _mm256_set1_ps(0.5);
    let split = buf.len() - buf.len() % 8;
    let mut i = 0;
    while i < split {
        let x = _mm256_loadu_ps(buf.as_ptr().add(i));
        let t = tanh_fma_x8(_mm256_mul_ps(x, half));
        _mm256_storeu_ps(buf.as_mut_ptr().add(i), _mm256_fmadd_ps(half, t, half));
        i += 8;
    }
    for v in &mut buf[split..] {
        *v = sigmoid_fma(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(n: usize, mut seed: u32) -> Vec<f32> {
        (0..n)
            .map(|_| {
                seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
                (seed >> 8) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn active_path_is_stable_and_named() {
        let p = active_path();
        assert_eq!(p, active_path(), "dispatch decision must be cached");
        assert!(matches!(path_name(), "avx2" | "scalar"));
        assert_eq!(p.name(), path_name());
    }

    /// Remainder shapes: lengths straddling every vector-width boundary,
    /// including empty and single-element slices.
    const LENGTHS: [usize; 10] = [0, 1, 3, 7, 8, 9, 31, 32, 33, 100];

    #[test]
    fn fast_activations_track_libm_within_tolerance() {
        // The rational fit behind the AVX2 gate sweep: error against libm
        // over the clamp range, then the range, odd-symmetry and saturation
        // invariants downstream ops rely on, up to `f32::MAX`.
        let mut worst_t = 0.0f32;
        let mut worst_s = 0.0f32;
        for i in -8000..=8000 {
            let x = i as f32 * 1e-3;
            worst_t = worst_t.max((tanh_fma(x) - x.tanh()).abs());
            worst_s = worst_s.max((sigmoid_fma(x) - 1.0 / (1.0 + (-x).exp())).abs());
        }
        assert!(worst_t < 1e-6, "tanh_fma worst abs error {worst_t}");
        assert!(worst_s < 1e-6, "sigmoid_fma worst abs error {worst_s}");
        assert_eq!(tanh_fma(0.0), 0.0);
        for x in [0.7f32, 1.3, TANH_CLAMP, 8.0, 9.0, 100.0, f32::MAX] {
            for x in [x, -x] {
                assert!(tanh_fma(x).abs() <= 1.0, "tanh_fma({x}) out of range");
                assert!((0.0..=1.0).contains(&sigmoid_fma(x)), "sigmoid_fma({x}) out of range");
                assert_eq!(tanh_fma(x).to_bits(), (-tanh_fma(-x)).to_bits(), "tanh_fma asymmetric at {x}");
            }
        }
        assert_eq!(tanh_fma(f32::MAX), tanh_fma(TANH_CLAMP), "tanh_fma does not saturate");
    }

    #[test]
    fn fused_gate_sweep_scalar_matches_per_element_passes() {
        for &n in &LENGTHS {
            let src_f = lcg(n, 11);
            let src_k1 = lcg(n, 22);
            let src_r = lcg(n, 33);
            let src_k2 = lcg(n, 44);
            let (mut f, mut k1, mut r, mut k2) = (src_f.clone(), src_k1.clone(), src_r.clone(), src_k2.clone());
            lstm_gate_sweep_scalar(&mut f, &mut k1, &mut r, &mut k2);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let sig = |v: &[f32]| v.iter().map(|&x| 1.0 / (1.0 + (-x).exp())).collect::<Vec<f32>>();
            let th = |v: &[f32]| v.iter().map(|&x| x.tanh()).collect::<Vec<f32>>();
            assert_eq!(bits(&f), bits(&sig(&src_f)), "fused forget gate diverges at n={n}");
            assert_eq!(bits(&k1), bits(&sig(&src_k1)), "fused input gate diverges at n={n}");
            assert_eq!(bits(&r), bits(&th(&src_r)), "fused candidate diverges at n={n}");
            assert_eq!(bits(&k2), bits(&sig(&src_k2)), "fused output gate diverges at n={n}");
        }
    }

    /// The dispatched f32 gate sweep: per-element values must be a pure
    /// function of the input (position/length independence is what subtree
    /// memoization leans on), track libm within the f32 tier's tolerance,
    /// and on the AVX2 path equal the scalar `mul_add` helpers bit-for-bit
    /// (the tail and the vector lanes compute the same chain).
    #[test]
    fn dispatched_gate_sweep_is_positionless_and_tracks_libm() {
        for &n in &LENGTHS {
            let src_f = lcg(n, 11);
            let src_k1 = lcg(n, 22);
            let src_r = lcg(n, 33);
            let src_k2 = lcg(n, 44);
            let (mut f, mut k1, mut r, mut k2) = (src_f.clone(), src_k1.clone(), src_r.clone(), src_k2.clone());
            lstm_gate_sweep(&mut f, &mut k1, &mut r, &mut k2);
            for (got, src) in [(&f, &src_f), (&k1, &src_k1), (&k2, &src_k2)] {
                for (&y, &x) in got.iter().zip(src.iter()) {
                    let exact = 1.0 / (1.0 + (-x).exp());
                    assert!((y - exact).abs() < 2e-5, "sigmoid({x}) = {y} vs libm {exact} at n={n}");
                    if active_path() == DispatchPath::Avx2 {
                        assert_eq!(y.to_bits(), sigmoid_fma(x).to_bits(), "avx2 sweep != sigmoid_fma at n={n}");
                    }
                }
            }
            for (&y, &x) in r.iter().zip(src_r.iter()) {
                assert!((y - x.tanh()).abs() < 2e-5, "tanh({x}) = {y} vs libm at n={n}");
                if active_path() == DispatchPath::Avx2 {
                    assert_eq!(y.to_bits(), tanh_fma(x).to_bits(), "avx2 sweep != tanh_fma at n={n}");
                }
            }
            // Repeated sweeps on the same path are bit-identical.
            let (mut f2, mut k12, mut r2, mut k22) = (src_f.clone(), src_k1.clone(), src_r.clone(), src_k2.clone());
            lstm_gate_sweep(&mut f2, &mut k12, &mut r2, &mut k22);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&f), bits(&f2), "gate sweep nondeterministic at n={n}");
            assert_eq!(bits(&r), bits(&r2), "gate sweep nondeterministic at n={n}");
        }
    }

    /// The strict-fold contract of [`gemm_f32`]'s AVX2 path: bit-equal to
    /// the naive `f32::mul_add` triple loop at every remainder shape (rows
    /// and columns straddling the 8-wide register block).
    #[test]
    fn fma_gemm_avx2_is_a_strict_mul_add_fold() {
        if !avx2_available() {
            eprintln!("skipping: host has no AVX2+FMA");
            return;
        }
        for (m, k, n) in [(1usize, 1usize, 1usize), (8, 8, 8), (7, 9, 13), (9, 33, 17), (16, 100, 65), (3, 0, 5)] {
            let a = lcg(m * k, (m * 7 + k) as u32);
            let b = lcg(k * n, (k * 13 + n) as u32);
            let mut out = vec![f32::NAN; m * n];
            gemm_f32_avx2(&a, m, k, &b, n, &mut out);
            let mut want = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
                    }
                    want[i * n + j] = acc;
                }
            }
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "gemm_f32_avx2 deviates from the mul_add fold at {m}x{k}x{n}"
            );
        }
    }

    /// Column independence of the dispatched GEMM: appending columns to `b`
    /// must not change the bits of the existing columns.  This is the
    /// property that keeps subtree memoization bit-stable as batch
    /// composition changes.
    #[test]
    fn gemm_f32_outputs_are_column_independent() {
        let (m, k) = (9usize, 21usize);
        let a = lcg(m * k, 3);
        let narrow_n = 5usize;
        let wide_n = 12usize;
        let wide: Vec<f32> = lcg(k * wide_n, 77);
        let narrow: Vec<f32> = (0..k).flat_map(|kk| wide[kk * wide_n..kk * wide_n + narrow_n].to_vec()).collect();
        let mut out_narrow = vec![f32::NAN; m * narrow_n];
        let mut out_wide = vec![f32::NAN; m * wide_n];
        gemm_f32(&a, m, k, &narrow, narrow_n, &mut out_narrow);
        gemm_f32(&a, m, k, &wide, wide_n, &mut out_wide);
        for i in 0..m {
            for j in 0..narrow_n {
                assert_eq!(
                    out_narrow[i * narrow_n + j].to_bits(),
                    out_wide[i * wide_n + j].to_bits(),
                    "gemm_f32 output depends on batch width at ({i},{j})"
                );
            }
        }
    }

    /// Repeated calls on the same dispatch path are bit-identical, for all
    /// three GEMM variants (run-to-run determinism half of the f32
    /// contract).
    #[test]
    fn fma_gemm_kernels_are_run_to_run_deterministic() {
        let (m, k, n) = (13usize, 37usize, 19usize);
        let a = lcg(m * k, 5);
        let b = lcg(k * n, 6);
        let bt = lcg(n * k, 7);
        let c = lcg(m * n, 8);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let run = || {
            let mut o1 = vec![f32::NAN; m * n];
            gemm_f32(&a, m, k, &b, n, &mut o1);
            let mut o2 = vec![f32::NAN; m * n];
            gemm_f32_nt(&a, m, k, &bt, n, &mut o2);
            let mut o3 = vec![f32::NAN; k * n];
            gemm_f32_tn(&a, m, k, &c, n, &mut o3);
            (bits(&o1), bits(&o2), bits(&o3))
        };
        assert_eq!(run(), run(), "a GEMM kernel is not run-to-run deterministic on {}", path_name());
    }

    /// A GEMM arm: `(a, m, k, b, n, out)`.
    type Gemm = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);
    /// A packed-linear arm: `(panels, bias, m, k, x, n, out)`.
    type PackedLinearArm = fn(&[f32], &[f32], usize, usize, &[f32], usize, &mut [f32]);

    /// `out = W·x + b` the way the param path computes it: `gemm` (one
    /// dispatch arm of [`gemm_f32`]) and then `Matrix::add_bias_into`.
    fn gemm_then_bias(gemm: Gemm, w: &[f32], b: &[f32], (m, k, n): (usize, usize, usize), x: &[f32]) -> Vec<u32> {
        use crate::matrix::Matrix;
        let mut z = vec![f32::NAN; m * n];
        gemm(w, m, k, x, n, &mut z);
        let mut out = Matrix::zeros(m, n);
        Matrix::from_vec(m, n, z).add_bias_into(&Matrix::column(b), &mut out);
        out.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `W·x + b` through the packed kernel `linear`.
    fn packed(linear: PackedLinearArm, w: &[f32], b: &[f32], (m, k, n): (usize, usize, usize), x: &[f32]) -> Vec<u32> {
        let panels = pack_rows_f32(w, m, k);
        let mut bias = b.to_vec();
        bias.resize(m.next_multiple_of(GEMM_NR), 0.0);
        let mut out = vec![f32::NAN; m * n];
        linear(&panels, &bias, m, k, x, n, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// Each arm of the packed linear against the same arm of `gemm_f32`
    /// plus the bias pass, bit for bit, over every row count up to five
    /// panels (so every row remainder and tile shape) at the served depths
    /// and at column counts around the tile widths.
    #[test]
    fn packed_linear_arms_match_their_gemm_arm_plus_bias() {
        for m in 1..=40usize {
            for k in [1usize, 9, 96, 130] {
                for n in [1usize, 2, 3, 4, 5, 8, 9, 17, 64, 65] {
                    let shape = (m, k, n);
                    let mut w = lcg(m * k, (m * 31 + k) as u32);
                    w.iter_mut().step_by(3).for_each(|v| *v = 0.0);
                    let b = lcg(m, m as u32 + 5);
                    let x = lcg(k * n, (k * 17 + n) as u32);
                    assert_eq!(
                        packed(linear_packed_f32_scalar, &w, &b, shape, &x),
                        gemm_then_bias(gemm_f32_scalar, &w, &b, shape, &x),
                        "scalar arm diverges at {m}x{k}x{n}"
                    );
                    #[cfg(target_arch = "x86_64")]
                    if avx2_available() {
                        assert_eq!(
                            packed(linear_packed_f32_avx2, &w, &b, shape, &x),
                            gemm_then_bias(gemm_f32_avx2, &w, &b, shape, &x),
                            "avx2 arm diverges at {m}x{k}x{n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_linear_of_zero_depth_is_the_bias() {
        let b = [0.5f32, -0.0, 3.0];
        let got = packed(linear_packed_f32, &[], &b, (3, 0, 2), &[]);
        assert_eq!(got, gemm_then_bias(gemm_f32, &[], &b, (3, 0, 2), &[]));
        assert_eq!(got, [0.5f32, 0.5, 0.0, 0.0, 3.0, 3.0].map(f32::to_bits));
    }

    /// The message a call panicked with.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("a short slice must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// Run `f` and check that it panicked at the length check named
    /// `expected`, which comes before the kernel's first read, and not
    /// later at a slice index.
    fn assert_length_check(expected: &str, f: impl FnOnce() + std::panic::UnwindSafe) {
        let msg = panic_message(f);
        assert!(msg.contains(expected), "panicked with {msg:?}, not at the length check {expected:?}");
    }

    #[test]
    fn gemm_f32_checks_lengths_before_reading() {
        // A 4-float `a` for an 8x8 product, then a short `out`.
        assert_length_check("gemm_f32: `a` holds 4 floats", || {
            gemm_f32(&[1.0; 4], 8, 8, &[1.0; 64], 8, &mut [0.0; 64])
        });
        assert_length_check("gemm_f32: `out` holds 8 floats", || {
            gemm_f32(&[1.0; 64], 8, 8, &[1.0; 64], 8, &mut [0.0; 8])
        });
    }

    #[test]
    fn linear_packed_f32_checks_lengths_before_reading() {
        let (panels, bias) = (vec![1.0f32; 8 * 8], [0.0f32; 8]);
        assert_length_check("linear_packed_f32: `x` holds 4 floats", || {
            linear_packed_f32(&panels, &bias, 8, 8, &[1.0; 4], 2, &mut [0.0; 16])
        });
        assert_length_check("linear_packed_f32: `panels` hold 8 floats", || {
            linear_packed_f32(&panels[..8], &bias, 8, 8, &[1.0; 16], 2, &mut [0.0; 16])
        });
        assert_length_check("linear_packed_f32: `bias` holds 4 floats", || {
            linear_packed_f32(&panels, &bias[..4], 8, 8, &[1.0; 16], 2, &mut [0.0; 16])
        });
        assert_length_check("linear_packed_f32: `out` holds 8 floats", || {
            linear_packed_f32(&panels, &bias, 8, 8, &[1.0; 16], 2, &mut [0.0; 8])
        });
        assert_length_check("linear_packed_f32_scalar: `x` holds 4 floats", || {
            linear_packed_f32_scalar(&panels, &bias, 8, 8, &[1.0; 4], 2, &mut [0.0; 16])
        });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_entry_points_check_lengths_before_reading() {
        if !avx2_available() {
            eprintln!("skipping: host has no AVX2+FMA");
            return;
        }
        assert_length_check("gemm_f32_avx2: `a` holds 4 floats", || {
            gemm_f32_avx2(&[1.0; 4], 8, 8, &[1.0; 64], 8, &mut [0.0; 64])
        });
        assert_length_check("linear_packed_f32_avx2: `x` holds 4 floats", || {
            linear_packed_f32_avx2(&[1.0; 64], &[0.0; 8], 8, 8, &[1.0; 4], 2, &mut [0.0; 16])
        });
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The fused packed linear equals `Matrix::matmul_into` followed by
        /// `Matrix::add_bias_into`, bit for bit, on the active dispatch
        /// path: every row remainder up to five panels, depths up to the
        /// served sample embedding's 128 and past it, and column counts
        /// across the tile widths.  `W` holds exact zeros and `x` infinities,
        /// whose products the scalar arm skips and the FMA arm turns into
        /// NaN, as well as signed zeros and magnitudes whose products and
        /// sums overflow.
        #[test]
        fn fused_packed_linear_bit_matches_matmul_then_bias(
            m in 1usize..=40,
            k in 1usize..=130,
            n in proptest::sample::select((1usize..=17).chain([64, 65]).collect::<Vec<_>>()),
            seed in 0u32..1_000_000,
        ) {
            use crate::matrix::Matrix;
            let mut s = seed;
            let mut next = move || {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                s
            };
            let mut unit = || (next() >> 8) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0;
            let w: Vec<f32> = (0..m * k).map(|i| match i % 5 { 0 => 0.0, 1 => -0.0, _ => unit() }).collect();
            let b: Vec<f32> = (0..m).map(|_| unit()).collect();
            // Every seventh row of `x` is special: signed zeros and large
            // magnitudes, and in column 0 also infinities (only there, so
            // the other columns stay finite).
            let specials = [0.0f32, -0.0, 1e30, -1e30, 1e37, -1e37, f32::INFINITY, f32::NEG_INFINITY];
            let x: Vec<f32> = (0..k * n)
                .map(|i| {
                    let (kk, j) = (i / n, i % n);
                    let kinds = if j == 0 { specials.len() } else { specials.len() - 2 };
                    if kk % 7 == 3 { specials[(kk / 7 + j) % kinds] } else { unit() }
                })
                .collect();

            let (wm, xm) = (Matrix::from_vec(m, k, w.clone()), Matrix::from_vec(k, n, x.clone()));
            let mut z = Matrix::zeros(m, n);
            wm.matmul_into(&xm, &mut z);
            let mut want = Matrix::zeros(m, n);
            z.add_bias_into(&Matrix::column(&b), &mut want);

            let panels = pack_rows_f32(&w, m, k);
            let mut bias = b.clone();
            bias.resize(m.next_multiple_of(GEMM_NR), 0.0);
            let mut got = vec![f32::NAN; m * n];
            linear_packed_f32(&panels, &bias, m, k, &x, n, &mut got);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }

        /// The f32 GEMM tier's tolerance oracle: every dispatched kernel
        /// tracks the textbook triple loop within relative error 1e-5 at
        /// remainder shapes (extents straddling the 8-wide register block).
        /// On the scalar path this is trivially tight; on the AVX2 path it
        /// bounds the FMA rounding contraction.
        #[test]
        fn fma_gemm_tracks_naive_within_relative_tolerance(
            m in proptest::sample::select(vec![0usize, 1, 2, 7, 8, 9, 15, 17, 65]),
            k in proptest::sample::select(vec![0usize, 1, 2, 7, 8, 9, 15, 17, 65, 100]),
            n in proptest::sample::select(vec![0usize, 1, 2, 7, 8, 9, 15, 17, 65, 100]),
            seed in 0u32..1_000_000,
        ) {
            let mk = |len: usize, mut s: u32| -> Vec<f32> {
                (0..len).map(|_| {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    (s >> 8) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0
                }).collect()
            };
            // |got - want| <= 1e-5 * (1 + |want| + sum |a_i * b_i|): relative
            // in the accumulated magnitude, which is the quantity FMA
            // contraction perturbs (plain relative error is meaningless at
            // catastrophic cancellation).
            let close = |got: f32, want: f32, mag: f32, kernel: &str| -> Result<(), String> {
                prop_assert!(
                    (got - want).abs() <= 1e-5 * (1.0 + want.abs() + mag),
                    "{} {} vs naive {} (mag {}) at {}x{}x{}", kernel, got, want, mag, m, k, n
                );
                Ok(())
            };
            let a = mk(m * k, seed ^ 0x3d);
            let b = mk(k * n, seed ^ 0xb1);
            let mut out = vec![f32::NAN; m * n];
            gemm_f32(&a, m, k, &b, n, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let (mut want, mut mag) = (0.0f64, 0.0f32);
                    for kk in 0..k {
                        want += a[i * k + kk] as f64 * b[kk * n + j] as f64;
                        mag += (a[i * k + kk] * b[kk * n + j]).abs();
                    }
                    close(out[i * n + j], want as f32, mag, "gemm_f32")?;
                }
            }

            let bt = mk(n * k, seed ^ 0x9e);
            let mut out = vec![f32::NAN; m * n];
            gemm_f32_nt(&a, m, k, &bt, n, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let (mut want, mut mag) = (0.0f64, 0.0f32);
                    for kk in 0..k {
                        want += a[i * k + kk] as f64 * bt[j * k + kk] as f64;
                        mag += (a[i * k + kk] * bt[j * k + kk]).abs();
                    }
                    close(out[i * n + j], want as f32, mag, "gemm_f32_nt")?;
                }
            }

            let c = mk(m * n, seed ^ 0x5f2);
            let mut out = vec![f32::NAN; k * n];
            gemm_f32_tn(&a, m, k, &c, n, &mut out);
            for i in 0..k {
                for j in 0..n {
                    let (mut want, mut mag) = (0.0f64, 0.0f32);
                    for r in 0..m {
                        want += a[r * k + i] as f64 * c[r * n + j] as f64;
                        mag += (a[r * k + i] * c[r * n + j]).abs();
                    }
                    close(out[i * n + j], want as f32, mag, "gemm_f32_tn")?;
                }
            }
        }
    }
}
