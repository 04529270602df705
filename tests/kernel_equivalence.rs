//! Fast-vs-reference kernel equivalence (PR-3 satellite).
//!
//! The fast kernels use `mul_add` (fused multiply-add) in the *same*
//! accumulation order as the reference loops, so any output may differ
//! from the naive arithmetic by at most the per-step FMA rounding
//! (≤ 1 ulp each). These properties pin that contract across random
//! shapes, including the degenerate ones the lowering must not trip
//! over: `kernel = 1`, `c_in = 1`, a single timestep, single rows.
//! Each layer runs on a backend by way of the `KernelScratch` it is
//! handed. The LCG payloads only need to be well-spread; the shapes are
//! proptest-driven.

mod support;

use m2ai::kernels::{fast, quant, reference, tiled, Backend, KernelScratch};
use m2ai::nn::layers::{Conv1d, Dense, Layer};
use m2ai::nn::lstm::Lstm;
use m2ai::nn::Parameterized;
use proptest::prelude::*;
use support::lcg_values;

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "shape mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

fn grads_of(p: &mut dyn Parameterized) -> Vec<f32> {
    let mut out = Vec::new();
    p.visit_params(&mut |_, g| out.extend_from_slice(g));
    out
}

/// Accumulated FMA-rounding slack for small shapes with O(1) values.
const TOL: f32 = 5e-4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three GEMM storage layouts agree between backends.
    #[test]
    fn gemm_fast_matches_reference(
        m in 1usize..7,
        n in 1usize..7,
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let a = lcg_values(seed, m * k);
        let b = lcg_values(seed ^ 0x9e37, k * n);
        let c0 = lcg_values(seed ^ 0x79b9, m * n);

        let mut c_fast = c0.clone();
        let mut c_ref = c0.clone();
        fast::gemm_nn(m, n, k, &a, &b, &mut c_fast);
        reference::gemm_nn(m, n, k, &a, &b, &mut c_ref);
        prop_assert!(max_abs_diff(&c_fast, &c_ref) <= TOL);

        // B stored [n × k] (dot-product layout).
        let bt = lcg_values(seed ^ 0x7f4a, n * k);
        let mut c_fast = c0.clone();
        let mut c_ref = c0.clone();
        fast::gemm_nt(m, n, k, &a, &bt, &mut c_fast);
        reference::gemm_nt(m, n, k, &a, &bt, &mut c_ref);
        prop_assert!(max_abs_diff(&c_fast, &c_ref) <= TOL);

        // A stored [k × m] (gradient-accumulation layout).
        let at = lcg_values(seed ^ 0x7c15, k * m);
        let mut c_fast = c0.clone();
        let mut c_ref = c0;
        fast::gemm_tn(m, n, k, &at, &b, &mut c_fast);
        reference::gemm_tn(m, n, k, &at, &b, &mut c_ref);
        prop_assert!(max_abs_diff(&c_fast, &c_ref) <= TOL);
    }

    /// Matrix–vector products (both orientations) agree between
    /// backends, accumulating into a non-zero `y`.
    #[test]
    fn gemv_fast_matches_reference(
        m in 1usize..9,
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let a = lcg_values(seed, m * k);
        let x = lcg_values(seed ^ 0x1ce4, k);
        let y0 = lcg_values(seed ^ 0xe5b9, m);
        let mut y_fast = y0.clone();
        let mut y_ref = y0;
        fast::gemv(m, k, &a, &x, &mut y_fast);
        reference::gemv(m, k, &a, &x, &mut y_ref);
        prop_assert!(max_abs_diff(&y_fast, &y_ref) <= TOL);

        // Transposed: y[j] += Σ_r x[r]·a[r·n + j].
        let xt = lcg_values(seed ^ 0x1331, m);
        let z0 = lcg_values(seed ^ 0x11eb, k);
        let mut z_fast = z0.clone();
        let mut z_ref = z0;
        fast::gemv_t(m, k, &a, &xt, &mut z_fast);
        reference::gemv_t(m, k, &a, &xt, &mut z_ref);
        prop_assert!(max_abs_diff(&z_fast, &z_ref) <= TOL);
    }

    /// Per-row symmetric int8 quantization round-trips within half a
    /// scale step per element, and the i8×i8→i32 GEMM is exact
    /// integer arithmetic (checked against a naive i32 loop).
    #[test]
    fn int8_quantization_round_trips(
        rows in 1usize..6,
        cols in 1usize..40,
        scale_mag in 0.01f32..10.0,
        seed in any::<u64>(),
    ) {
        let w: Vec<f32> = lcg_values(seed, rows * cols)
            .into_iter()
            .map(|v| v * scale_mag)
            .collect();
        let qm = quant::quantize_rows(&w, rows, cols);
        prop_assert_eq!(qm.rows, rows);
        prop_assert_eq!(qm.cols, cols);
        for r in 0..rows {
            let s = qm.scales[r];
            prop_assert!(s > 0.0, "scale must be positive");
            for c in 0..cols {
                let back = qm.q[r * cols + c] as f32 * s;
                prop_assert!(
                    (w[r * cols + c] - back).abs() <= 0.5 * s + 1e-6,
                    "row {} col {}: {} vs {} (scale {})",
                    r, c, w[r * cols + c], back, s
                );
            }
        }

        // Activation quantization: same half-step bound inside the
        // calibrated range, saturation outside it.
        let xs: Vec<f32> = lcg_values(seed ^ 0x0dd5, cols)
            .into_iter()
            .map(|v| v * scale_mag)
            .collect();
        let s = quant::activation_scale(quant::max_abs(&xs));
        let mut qx = Vec::new();
        quant::quantize_into(&xs, s, &mut qx);
        for (x, &q) in xs.iter().zip(&qx) {
            prop_assert!((x - q as f32 * s).abs() <= 0.5 * s + 1e-6);
            prop_assert!((-127..=127).contains(&(q as i32)));
        }

        // The integer GEMM accumulates exactly.
        let mut acc = vec![0i32; rows];
        quant::gemm_i8_nt(1, rows, cols, &qx, &qm.q, &mut acc);
        for (r, &got) in acc.iter().enumerate() {
            let want: i32 = (0..cols)
                .map(|c| qx[c] as i32 * qm.q[r * cols + c] as i32)
                .sum();
            // Integer dot products must be exact.
            prop_assert_eq!(got, want);
        }
    }
}

// Large-shape tiled properties get their own (smaller) case budget:
// each case multiplies several-hundred-dimension matrices in debug
// builds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The cache-blocked parallel tiling agrees with `reference` at
    /// shapes large enough to actually cross the tiled path's
    /// worthwhile threshold (several-hundred dimensions, multiple M
    /// tiles and K panels), in all three storage layouts. Tolerance is
    /// banded by the accumulation length `k`.
    #[test]
    fn tiled_matches_reference_at_large_shapes(
        m in 130usize..280,
        n in 96usize..170,
        k in 96usize..170,
        threads in 2usize..5,
        seed in any::<u64>(),
    ) {
        // FMA-rounding slack grows with the accumulation chain.
        let tol = 1e-4 + k as f32 * 2e-5;
        let a = lcg_values(seed, m * k);
        let b = lcg_values(seed ^ 0x9e37, k * n);
        let c0 = lcg_values(seed ^ 0x79b9, m * n);

        let mut c_tiled = c0.clone();
        let mut c_ref = c0.clone();
        tiled::gemm_nn_with_threads(m, n, k, &a, &b, &mut c_tiled, threads);
        reference::gemm_nn(m, n, k, &a, &b, &mut c_ref);
        prop_assert!(max_abs_diff(&c_tiled, &c_ref) <= tol);

        let bt = lcg_values(seed ^ 0x7f4a, n * k);
        let mut c_tiled = c0.clone();
        let mut c_ref = c0.clone();
        tiled::gemm_nt_with_threads(m, n, k, &a, &bt, &mut c_tiled, threads);
        reference::gemm_nt(m, n, k, &a, &bt, &mut c_ref);
        prop_assert!(max_abs_diff(&c_tiled, &c_ref) <= tol);

        let at = lcg_values(seed ^ 0x7c15, k * m);
        let mut c_tiled = c0.clone();
        let mut c_ref = c0;
        tiled::gemm_tn_with_threads(m, n, k, &at, &b, &mut c_tiled, threads);
        reference::gemm_tn(m, n, k, &at, &b, &mut c_ref);
        prop_assert!(max_abs_diff(&c_tiled, &c_ref) <= tol);
    }

    /// Determinism is *exact*, not banded: the tiled path returns the
    /// same bits as the single-thread fast kernel for every thread
    /// count, because M-tile tasks own disjoint C rows and K panels
    /// accumulate in a fixed order.
    #[test]
    fn tiled_is_bit_exact_across_thread_counts(
        m in 130usize..260,
        n in 96usize..150,
        k in 96usize..150,
        seed in any::<u64>(),
    ) {
        let a = lcg_values(seed, m * k);
        let b = lcg_values(seed ^ 0x9e37, k * n);
        let c0 = lcg_values(seed ^ 0x79b9, m * n);
        let mut want = c0.clone();
        fast::gemm_nn(m, n, k, &a, &b, &mut want);
        for threads in [1, 2, 3, 8] {
            let mut c = c0.clone();
            tiled::gemm_nn_with_threads(m, n, k, &a, &b, &mut c, threads);
            prop_assert!(
                c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads} changed bits"
            );
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Dense` forward/backward agree between backends, and the batched
    /// entry points match the per-row ones under the fast backend.
    #[test]
    fn dense_fast_matches_reference(
        in_dim in 1usize..6,
        out_dim in 1usize..6,
        rows in 1usize..5,
        seed in any::<u64>(),
    ) {
        let xs = lcg_values(seed, rows * in_dim);
        let gs = lcg_values(seed ^ 0x0dd5, rows * out_dim);

        let run = |backend: Backend| {
            let s = &mut KernelScratch::with_backend(backend);
            let mut d = Dense::new(in_dim, out_dim, 42);
            let mut ys = Vec::new();
            let mut gxs = Vec::new();
            for (x, g) in xs.chunks_exact(in_dim).zip(gs.chunks_exact(out_dim)) {
                ys.extend(d.forward_with(x, s));
                gxs.extend(d.backward(x, g, s));
            }
            let grads = grads_of(&mut d);
            (ys, gxs, grads)
        };
        let (y_f, gx_f, g_f) = run(Backend::Fast);
        let (y_r, gx_r, g_r) = run(Backend::Reference);
        prop_assert!(max_abs_diff(&y_f, &y_r) <= TOL);
        prop_assert!(max_abs_diff(&gx_f, &gx_r) <= TOL);
        prop_assert!(max_abs_diff(&g_f, &g_r) <= TOL);

        // Batched path vs the sequence of single-row calls.
        let (ys_b, gxs_b, g_b) = {
            let s = &mut KernelScratch::new();
            let mut d = Dense::new(in_dim, out_dim, 42);
            let ys = d.forward_batch_with(&xs, rows, s);
            let gxs = d.backward_batch(&xs, &gs, rows, s);
            let grads = grads_of(&mut d);
            (ys, gxs, grads)
        };
        prop_assert!(max_abs_diff(&ys_b, &y_f) <= TOL);
        prop_assert!(max_abs_diff(&gxs_b, &gx_f) <= TOL);
        prop_assert!(max_abs_diff(&g_b, &g_f) <= TOL);
    }

    /// `Conv1d` forward/backward agree between the im2col/GEMM lowering
    /// and the original window walk — including `kernel = 1` and
    /// `c_in = 1`.
    #[test]
    fn conv1d_fast_matches_reference(
        c_in in 1usize..4,
        c_out in 1usize..4,
        kernel in 1usize..4,
        stride in 1usize..3,
        extra in 0usize..6,
        seed in any::<u64>(),
    ) {
        let len_in = kernel + extra;
        let probe = Conv1d::new(c_in, len_in, c_out, kernel, stride, 42);
        let len_out = probe.len_out();
        let x = lcg_values(seed, c_in * len_in);
        let g = lcg_values(seed ^ 0x94d0, c_out * len_out);

        let run = |backend: Backend| {
            let s = &mut KernelScratch::with_backend(backend);
            let conv = Conv1d::new(c_in, len_in, c_out, kernel, stride, 42);
            let mut layer = Layer::Conv1d(conv);
            let (y, gx) = match &mut layer {
                Layer::Conv1d(c) => (c.forward_with(&x, s), c.backward_with(&x, &g, s)),
                _ => unreachable!(),
            };
            let grads = grads_of(&mut layer);
            (y, gx, grads)
        };
        let (y_f, gx_f, g_f) = run(Backend::Fast);
        let (y_r, gx_r, g_r) = run(Backend::Reference);
        prop_assert!(max_abs_diff(&y_f, &y_r) <= TOL, "forward diverged");
        prop_assert!(max_abs_diff(&gx_f, &gx_r) <= TOL, "input grads diverged");
        prop_assert!(max_abs_diff(&g_f, &g_r) <= TOL, "weight grads diverged");
    }

    /// LSTM forward/backward-through-time agree between the fused-GEMM
    /// timestep path and the original per-gate loops — including a
    /// single-timestep sequence.
    #[test]
    fn lstm_fast_matches_reference(
        in_dim in 1usize..4,
        hidden in 1usize..5,
        t_len in 1usize..5,
        seed in any::<u64>(),
    ) {
        let xs: Vec<Vec<f32>> = (0..t_len)
            .map(|t| lcg_values(seed ^ (t as u64 * 0xbf58), in_dim))
            .collect();
        let gouts: Vec<Vec<f32>> = (0..t_len)
            .map(|t| lcg_values(seed ^ 0x476d ^ (t as u64 * 0x2545), hidden))
            .collect();

        let run = |backend: Backend| {
            let s = &mut KernelScratch::with_backend(backend);
            let mut l = Lstm::new(in_dim, hidden, 7);
            let cache = l.forward_sequence_with(&xs, s);
            let outputs: Vec<f32> = cache.outputs.iter().flatten().copied().collect();
            let gxs: Vec<f32> = l
                .backward_sequence_with(&cache, &gouts, s)
                .iter()
                .flatten()
                .copied()
                .collect();
            let grads = grads_of(&mut l);
            (outputs, gxs, grads)
        };
        let (y_f, gx_f, g_f) = run(Backend::Fast);
        let (y_r, gx_r, g_r) = run(Backend::Reference);
        prop_assert!(max_abs_diff(&y_f, &y_r) <= TOL, "hidden states diverged");
        prop_assert!(max_abs_diff(&gx_f, &gx_r) <= TOL, "input grads diverged");
        prop_assert!(max_abs_diff(&g_f, &g_r) <= TOL, "weight grads diverged");
    }
}
