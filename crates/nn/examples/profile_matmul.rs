//! Component-level profile of the f32 GEMM tier (B-pack, dispatched kernel,
//! scalar arm, transposed variants, gate sweeps, and the packed-weight
//! linear layer against `gemm_f32` plus the bias pass at the served model's
//! shapes) — the dev tool behind the "f32 kernel contract" numbers in
//! `docs/perf.md`.  Not a regression gate; the end-to-end floors live in the
//! `bench` crate's check mode.  It asserts that the packed linear returns
//! the bits of `gemm_f32` plus the bias pass at every shape it times.
//!
//! `cargo run -p nn --release --example profile_matmul`
//! (`E2E_FORCE_SCALAR=1` profiles the scalar fallbacks through the same
//! dispatch entry points.)

use nn::matrix::Matrix;
use nn::simd;
use nn::PackedLinear;
use std::time::Instant;

fn lcg(n: usize, mut seed: u32) -> Vec<f32> {
    (0..n)
        .map(|_| {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            (seed >> 8) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0
        })
        .collect()
}

fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn main() {
    println!("f32 dispatch: {}", simd::f32_path_name());
    let (rows, depth) = (32usize, 48usize);
    for n in [1usize, 8, 16, 64] {
        let w = Matrix::from_vec(rows, depth, lcg(rows * depth, 1));
        let x = Matrix::from_vec(depth, n, lcg(depth * n, 2));
        let xt = Matrix::from_vec(n, depth, lcg(n * depth, 8));
        let wt = Matrix::from_vec(depth, rows, lcg(depth * rows, 9));
        let mut out = Matrix::zeros(rows, n);

        // Pack alone, then the dispatched kernel (pack included), then the
        // frozen scalar arm for the speedup denominator.
        let mut pack_buf: Vec<f32> = Vec::new();
        let pack_ns = time_ns(20000, || {
            std::hint::black_box(simd::pack_b_f32(x.data(), depth, n, &mut pack_buf));
        });
        let gemm_ns = time_ns(20000, || w.matmul_into(&x, &mut out));
        let scalar_ns = time_ns(20000, || {
            simd::gemm_f32_scalar(w.data(), rows, depth, x.data(), n, out.data_mut());
        });

        // Transposed variants at the same shapes (nt: B given row-major
        // transposed; tn: A given transposed — the backward-pass layouts).
        let nt_ns = time_ns(20000, || w.matmul_nt_into(&xt, &mut out));
        let mut out_tn = Matrix::zeros(rows, n);
        let tn_ns = time_ns(20000, || wt.matmul_tn_into(&x, &mut out_tn));

        // Fused gate activation sweep at gate shape (rows x n per gate).
        let mut g0 = lcg(rows * n, 3);
        let mut g1 = lcg(rows * n, 4);
        let mut g2 = lcg(rows * n, 5);
        let mut g3 = lcg(rows * n, 6);
        let gate_ns = time_ns(20000, || {
            simd::lstm_gate_sweep(&mut g0, &mut g1, &mut g2, &mut g3);
        });

        println!(
            "n={n:>3}  gemm {gemm_ns:>9.0} ns ({:.2}x scalar; pack {pack_ns:>7.0} ns = {:.0}%)   \
             nt {nt_ns:>9.0} ns   tn {tn_ns:>9.0} ns   gate sweep {gate_ns:>9.0} ns",
            scalar_ns / gemm_ns,
            100.0 * pack_ns / gemm_ns
        );
    }

    // The served model's layers (optbench's main model: hidden 32, embed
    // 16, head hidden 16): `W·x + b` as the param path computes it
    // (`gemm_f32`, then the bias pass) against the packed-weight kernel.
    println!("packed linear vs gemm_f32 + bias (ns per layer call)");
    for (name, rows, depth) in
        [("gate", 32usize, 96usize), ("sample", 16, 128), ("head.l1", 16, 32), ("head.l2", 1, 16)]
    {
        let w = Matrix::from_vec(rows, depth, lcg(rows * depth, 11));
        let b = Matrix::column(&lcg(rows, 12));
        let layer = PackedLinear::new(&w, &b);
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = Matrix::from_vec(depth, n, lcg(depth * n, 13));
            let (mut z, mut want, mut got) = (Matrix::zeros(rows, n), Matrix::zeros(rows, n), Matrix::zeros(rows, n));
            let iters = 200_000 / n;
            let gemm_ns = time_ns(iters, || {
                w.matmul_into(&x, &mut z);
                z.add_bias_into(&b, &mut want);
            });
            let packed_ns = time_ns(iters, || layer.apply(x.data(), n, got.data_mut()));
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "packed linear diverges from gemm_f32 + bias at {name} n={n}");
            println!(
                "{name:>8} {rows:>2}x{depth:<3} n={n:>2}  gemm+bias {gemm_ns:>8.0} ns   packed {packed_ns:>8.0} ns  \
                 ({:.2}x)",
                gemm_ns / packed_ns
            );
        }
    }
}
