//! Feed-forward layers and their composition.
//!
//! Layers follow a functional forward/backward contract: `forward`
//! is pure (no internal caching), and `backward` receives the same
//! input the forward pass saw, accumulates parameter gradients, and
//! returns the gradient with respect to the input. This makes
//! backpropagation-through-time trivial — the sequence model simply
//! keeps the per-timestep inputs and replays them in reverse.
//!
//! ## Kernel backends and scratch
//!
//! The arithmetic lives in [`m2ai_kernels`]: `Dense` is a GEMV/GEMM,
//! `Conv1d` is lowered through im2col onto the same GEMM, and both
//! dispatch on the [`m2ai_kernels::Backend`] of the [`KernelScratch`]
//! they are handed (fast blocked kernels by default, the seed's naive
//! loops under `Backend::Reference`). Every layer also offers `*_with`
//! variants taking that scratch so hot callers (`fit()`, the online
//! pipeline) reuse im2col/packing buffers instead of allocating per
//! frame; the plain signatures delegate to the thread-local `Fast`
//! scratch. A layer holding frozen int8 state runs its int8 path on
//! every forward, whatever the backend.

use crate::init::he_uniform;
use crate::Parameterized;
use m2ai_kernels::im2col::{col2im_accumulate, im2col};
use m2ai_kernels::{self as kernels, quant, Backend, KernelScratch};

/// Frozen int8 inference state of a linear layer: per-output-channel
/// quantized weights plus the calibrated per-tensor input scale.
///
/// Built by the layer's `freeze_quant` after a calibration pass; while
/// present, every forward path runs int8 through it. Training never
/// updates it — `SequenceClassifier::loss_and_backprop_with` drops it
/// before the first weight change, and the owner re-runs
/// calibration/freeze to serve int8 again.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantState {
    /// Per-row symmetric int8 weights.
    pub qw: quant::QuantizedMatrix,
    /// Per-tensor activation scale frozen from calibration.
    pub x_scale: f32,
}

/// A fully-connected layer `y = Wx + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim` weights.
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    /// Max-abs input seen by the calibration pass.
    calib_in: f32,
    /// Frozen int8 state; `None` until `freeze_quant`.
    quant: Option<QuantState>,
}

impl Dense {
    /// Creates a Dense layer with He-uniform weights.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Dense {
            in_dim,
            out_dim,
            w: he_uniform(in_dim, in_dim * out_dim, seed),
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
            calib_in: 0.0,
            quant: None,
        }
    }

    /// Calibration: absorbs the max-abs of one input (or a whole
    /// row-major batch of inputs) this layer would see at inference.
    pub fn observe(&mut self, xs: &[f32]) {
        self.calib_in = self.calib_in.max(quant::max_abs(xs));
    }

    /// Freezes int8 inference state from the current weights and the
    /// calibrated input range.
    pub fn freeze_quant(&mut self) {
        quant::record_calibration("dense", self.calib_in);
        self.quant = Some(QuantState {
            qw: quant::quantize_rows(&self.w, self.out_dim, self.in_dim),
            x_scale: quant::activation_scale(self.calib_in),
        });
    }

    /// Drops quantized state and calibration statistics.
    pub fn clear_quant(&mut self) {
        self.calib_in = 0.0;
        self.quant = None;
    }

    /// True once `freeze_quant` has produced int8 state.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// The int8 path for a `rows × in_dim` batch: quantize activations
    /// with the frozen per-tensor scale, accumulate i8×i8 in i32, and
    /// dequantize once per output with the per-channel weight scale
    /// and the f32 bias.
    fn forward_quant(&self, q: &QuantState, xs: &[f32], rows: usize, out: &mut [f32]) {
        let mut xi8 = Vec::new();
        quant::quantize_into(xs, q.x_scale, &mut xi8);
        let mut acc = vec![0i32; rows * self.out_dim];
        quant::gemm_i8_nt(rows, self.out_dim, self.in_dim, &xi8, &q.qw.q, &mut acc);
        quant::dequant_nt(
            rows,
            self.out_dim,
            &acc,
            q.x_scale,
            &q.qw.scales,
            Some(&self.b),
            out,
        );
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_with(x, s))
    }

    /// [`Dense::forward`] reusing buffers from `scratch`.
    pub fn forward_with(&self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim, "Dense input size mismatch");
        let mut y = scratch.take(self.out_dim);
        if let Some(q) = &self.quant {
            self.forward_quant(q, x, 1, &mut y);
            return y;
        }
        kernels::gemv(
            scratch.backend(),
            self.out_dim,
            self.in_dim,
            &self.w,
            x,
            &mut y,
        );
        for (yo, bo) in y.iter_mut().zip(&self.b) {
            *yo += bo;
        }
        y
    }

    /// Forward pass over `rows` stacked inputs (`[rows × in_dim]`,
    /// row-major), producing `[rows × out_dim]` — one GEMM for the
    /// whole batch.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != rows * in_dim`.
    pub fn forward_batch(&self, xs: &[f32], rows: usize) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_batch_with(xs, rows, s))
    }

    /// [`Dense::forward_batch`] reusing buffers from `scratch`. A
    /// one-row batch dispatches to the GEMV microkernel (bit-exact),
    /// so single-session steps through the batched serving API keep
    /// matrix-vector latency.
    pub fn forward_batch_with(
        &self,
        xs: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        assert_eq!(
            xs.len(),
            rows * self.in_dim,
            "Dense batch input size mismatch"
        );
        let mut ys = scratch.take(rows * self.out_dim);
        if let Some(q) = &self.quant {
            self.forward_quant(q, xs, rows, &mut ys);
            return ys;
        }
        kernels::gemm_nt(
            scratch.backend(),
            rows,
            self.out_dim,
            self.in_dim,
            xs,
            &self.w,
            &mut ys,
        );
        for row in ys.chunks_exact_mut(self.out_dim) {
            for (yo, bo) in row.iter_mut().zip(&self.b) {
                *yo += bo;
            }
        }
        ys
    }

    /// Backward pass: accumulates gradients, returns `∂L/∂x`.
    pub fn backward(
        &mut self,
        x: &[f32],
        grad_out: &[f32],
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        assert_eq!(grad_out.len(), self.out_dim);
        assert_eq!(x.len(), self.in_dim);
        for (o, &g) in grad_out.iter().enumerate() {
            self.gb[o] += g;
        }
        let backend = scratch.backend();
        // Rank-1 weight update: gw += grad_outᵀ · x as a k=1 GEMM.
        kernels::gemm_tn(
            backend,
            self.out_dim,
            self.in_dim,
            1,
            grad_out,
            x,
            &mut self.gw,
        );
        let mut gx = scratch.take(self.in_dim);
        kernels::gemv_t(
            backend,
            self.out_dim,
            self.in_dim,
            &self.w,
            grad_out,
            &mut gx,
        );
        gx
    }

    /// Batched backward over `rows` stacked `(x, grad_out)` pairs:
    /// parameter gradients accumulate across the whole batch in one
    /// GEMM each; returns the stacked `∂L/∂x` (`[rows × in_dim]`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn backward_batch(
        &mut self,
        xs: &[f32],
        grads: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        assert_eq!(xs.len(), rows * self.in_dim, "Dense batch input mismatch");
        assert_eq!(
            grads.len(),
            rows * self.out_dim,
            "Dense batch gradient mismatch"
        );
        for grow in grads.chunks_exact(self.out_dim) {
            for (o, &g) in grow.iter().enumerate() {
                self.gb[o] += g;
            }
        }
        let backend = scratch.backend();
        kernels::gemm_tn(
            backend,
            self.out_dim,
            self.in_dim,
            rows,
            grads,
            xs,
            &mut self.gw,
        );
        let mut gxs = scratch.take(rows * self.in_dim);
        kernels::gemm_nn(
            backend,
            rows,
            self.in_dim,
            self.out_dim,
            grads,
            &self.w,
            &mut gxs,
        );
        gxs
    }
}

impl Parameterized for Dense {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

/// A 1-D convolution over `(channels, length)` inputs (valid padding).
///
/// This is the CONV-E/CONV-F building block of Fig. 6: the
/// pseudospectrum frame enters as `n_tags` channels over 180 angle
/// bins and is progressively reduced.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv1d {
    c_in: usize,
    len_in: usize,
    c_out: usize,
    kernel: usize,
    stride: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    /// Max-abs input seen by the calibration pass.
    calib_in: f32,
    /// Frozen int8 state; `None` until `freeze_quant`.
    quant: Option<QuantState>,
}

impl Conv1d {
    /// Creates a convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit (`kernel > len_in`), or any
    /// dimension is zero.
    pub fn new(
        c_in: usize,
        len_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        seed: u64,
    ) -> Self {
        assert!(c_in > 0 && c_out > 0 && kernel > 0 && stride > 0);
        assert!(kernel <= len_in, "kernel must fit in the input length");
        let fan_in = c_in * kernel;
        Conv1d {
            c_in,
            len_in,
            c_out,
            kernel,
            stride,
            w: he_uniform(fan_in, c_out * c_in * kernel, seed),
            b: vec![0.0; c_out],
            gw: vec![0.0; c_out * c_in * kernel],
            gb: vec![0.0; c_out],
            calib_in: 0.0,
            quant: None,
        }
    }

    /// Calibration: absorbs the max-abs of one input frame.
    pub fn observe(&mut self, x: &[f32]) {
        self.calib_in = self.calib_in.max(quant::max_abs(x));
    }

    /// Freezes int8 inference state from the current weights and the
    /// calibrated input range. Weight rows are the `c_out` filters
    /// over the `c_in·kernel` im2col reduction axis, so per-row
    /// quantization is per-output-channel.
    pub fn freeze_quant(&mut self) {
        quant::record_calibration("conv", self.calib_in);
        self.quant = Some(QuantState {
            qw: quant::quantize_rows(&self.w, self.c_out, self.c_in * self.kernel),
            x_scale: quant::activation_scale(self.calib_in),
        });
    }

    /// Drops quantized state and calibration statistics.
    pub fn clear_quant(&mut self) {
        self.calib_in = 0.0;
        self.quant = None;
    }

    /// True once `freeze_quant` has produced int8 state.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Output length along the convolved axis.
    pub fn len_out(&self) -> usize {
        (self.len_in - self.kernel) / self.stride + 1
    }

    /// Flattened input dimension (`c_in × len_in`).
    pub fn in_dim(&self) -> usize {
        self.c_in * self.len_in
    }

    /// Flattened output dimension (`c_out × len_out`).
    pub fn out_dim(&self) -> usize {
        self.c_out * self.len_out()
    }

    #[inline]
    fn widx(&self, o: usize, ci: usize, k: usize) -> usize {
        (o * self.c_in + ci) * self.kernel + k
    }

    /// Forward pass over a flattened `(c_in, len_in)` input.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != c_in × len_in`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_with(x, s))
    }

    /// [`Conv1d::forward`] reusing the im2col buffer from `scratch`.
    ///
    /// Under the fast backends (and the int8 path) the window walk is
    /// lowered through im2col onto one `[c_out × c_in·kernel] ·
    /// [c_in·kernel × len_out]` GEMM seeded with the bias — the same
    /// `(ci, k)` accumulation order as the naive loop, kept in the
    /// `reference` path below.
    pub fn forward_with(&self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim(), "Conv1d input size mismatch");
        let backend = scratch.backend();
        if backend == Backend::Reference && self.quant.is_none() {
            return self.forward_reference(x, scratch);
        }
        let len_out = self.len_out();
        let r = self.c_in * self.kernel;
        let mut cols = scratch.take(r * len_out);
        im2col(
            x,
            self.c_in,
            self.len_in,
            self.kernel,
            self.stride,
            &mut cols,
        );
        let mut y = scratch.take(self.c_out * len_out);
        if let Some(q) = &self.quant {
            // Quantize the im2col activations once; the filters are
            // already int8. Integer accumulation, one f32 epilogue.
            let mut ci8 = Vec::new();
            quant::quantize_into(&cols, q.x_scale, &mut ci8);
            let mut acc = vec![0i32; self.c_out * len_out];
            quant::gemm_i8_nn(self.c_out, len_out, r, &q.qw.q, &ci8, &mut acc);
            quant::dequant_nn(
                self.c_out,
                len_out,
                &acc,
                q.x_scale,
                &q.qw.scales,
                Some(&self.b),
                &mut y,
            );
            scratch.recycle(cols);
            return y;
        }
        for (o, row) in y.chunks_exact_mut(len_out).enumerate() {
            row.fill(self.b[o]);
        }
        kernels::gemm_nn(backend, self.c_out, len_out, r, &self.w, &cols, &mut y);
        scratch.recycle(cols);
        y
    }

    /// The seed repository's original 4-deep loop, bit-for-bit.
    fn forward_reference(&self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        let len_out = self.len_out();
        let mut y = scratch.take(self.c_out * len_out);
        for o in 0..self.c_out {
            for j in 0..len_out {
                let mut acc = self.b[o];
                let start = j * self.stride;
                for ci in 0..self.c_in {
                    let xrow = &x[ci * self.len_in + start..ci * self.len_in + start + self.kernel];
                    let wrow = &self.w[self.widx(o, ci, 0)..self.widx(o, ci, 0) + self.kernel];
                    for k in 0..self.kernel {
                        acc += wrow[k] * xrow[k];
                    }
                }
                y[o * len_out + j] = acc;
            }
        }
        y
    }

    /// Backward pass: accumulates gradients, returns `∂L/∂x`.
    pub fn backward(&mut self, x: &[f32], grad_out: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.backward_with(x, grad_out, s))
    }

    /// [`Conv1d::backward`] reusing im2col buffers from `scratch`.
    ///
    /// Weight gradients accumulate through the *same* im2col buffer
    /// as the forward lowering (`gw += grad_out · colsᵀ`), replacing
    /// the duplicated window re-walk of the naive loop. Input
    /// gradients come from `colsᵀ`-shaped `gcols = Wᵀ · grad_out`
    /// scattered back with col2im; overlapping windows are summed in
    /// a different (output-major) order than the naive loop, a
    /// documented reassociation of gradient terms (see DESIGN.md).
    pub fn backward_with(
        &mut self,
        x: &[f32],
        grad_out: &[f32],
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        let len_out = self.len_out();
        assert_eq!(grad_out.len(), self.c_out * len_out);
        assert_eq!(x.len(), self.in_dim(), "Conv1d input size mismatch");
        let backend = scratch.backend();
        if backend == Backend::Reference {
            return self.backward_reference(x, grad_out);
        }
        let r = self.c_in * self.kernel;
        let mut cols = scratch.take(r * len_out);
        im2col(
            x,
            self.c_in,
            self.len_in,
            self.kernel,
            self.stride,
            &mut cols,
        );
        for (o, grow) in grad_out.chunks_exact(len_out).enumerate() {
            let mut s = self.gb[o];
            for &g in grow {
                s += g;
            }
            self.gb[o] = s;
        }
        kernels::gemm_nt(
            backend,
            self.c_out,
            r,
            len_out,
            grad_out,
            &cols,
            &mut self.gw,
        );
        let mut gcols = scratch.take(r * len_out);
        kernels::gemm_tn(
            backend, r, len_out, self.c_out, &self.w, grad_out, &mut gcols,
        );
        let mut gx = vec![0.0; self.in_dim()];
        col2im_accumulate(
            &gcols,
            self.c_in,
            self.len_in,
            self.kernel,
            self.stride,
            &mut gx,
        );
        scratch.recycle(gcols);
        scratch.recycle(cols);
        gx
    }

    /// The seed repository's original backward loop, bit-for-bit.
    fn backward_reference(&mut self, x: &[f32], grad_out: &[f32]) -> Vec<f32> {
        let len_out = self.len_out();
        let mut gx = vec![0.0; self.in_dim()];
        for o in 0..self.c_out {
            for j in 0..len_out {
                let g = grad_out[o * len_out + j];
                if g == 0.0 {
                    continue;
                }
                self.gb[o] += g;
                let start = j * self.stride;
                for ci in 0..self.c_in {
                    let base_x = ci * self.len_in + start;
                    let base_w = self.widx(o, ci, 0);
                    for k in 0..self.kernel {
                        self.gw[base_w + k] += g * x[base_x + k];
                        gx[base_x + k] += g * self.w[base_w + k];
                    }
                }
            }
        }
        gx
    }
}

/// One layer of a [`Sequential`] network.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(Dense),
    /// 1-D convolution.
    Conv1d(Conv1d),
    /// Rectified linear unit.
    Relu,
}

impl Layer {
    /// Convenience constructor for a [`Dense`] layer.
    pub fn dense(in_dim: usize, out_dim: usize, seed: u64) -> Layer {
        Layer::Dense(Dense::new(in_dim, out_dim, seed))
    }

    /// Convenience constructor for a [`Conv1d`] layer.
    pub fn conv1d(
        c_in: usize,
        len_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        seed: u64,
    ) -> Layer {
        Layer::Conv1d(Conv1d::new(c_in, len_in, c_out, kernel, stride, seed))
    }

    /// Convenience constructor for a ReLU.
    pub fn relu() -> Layer {
        Layer::Relu
    }

    #[cfg(test)]
    fn forward(&self, x: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_with(x, s))
    }

    fn forward_with(&self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        match self {
            Layer::Dense(d) => d.forward_with(x, scratch),
            Layer::Conv1d(c) => c.forward_with(x, scratch),
            Layer::Relu => {
                let mut y = scratch.take(x.len());
                for (slot, &v) in y.iter_mut().zip(x) {
                    *slot = v.max(0.0);
                }
                y
            }
        }
    }

    #[cfg(test)]
    fn backward(&mut self, x: &[f32], grad_out: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.backward_with(x, grad_out, s))
    }

    /// Forward pass that also feeds this layer's calibration
    /// statistics (max-abs input range) for int8 quantization.
    fn calibrate_forward_with(&mut self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        match self {
            Layer::Dense(d) => d.observe(x),
            Layer::Conv1d(c) => c.observe(x),
            Layer::Relu => {}
        }
        self.forward_with(x, scratch)
    }

    /// Freezes int8 state on every parameterized layer.
    fn freeze_quant(&mut self) {
        match self {
            Layer::Dense(d) => d.freeze_quant(),
            Layer::Conv1d(c) => c.freeze_quant(),
            Layer::Relu => {}
        }
    }

    /// Drops int8 state and calibration statistics.
    fn clear_quant(&mut self) {
        match self {
            Layer::Dense(d) => d.clear_quant(),
            Layer::Conv1d(c) => c.clear_quant(),
            Layer::Relu => {}
        }
    }

    fn backward_with(
        &mut self,
        x: &[f32],
        grad_out: &[f32],
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        match self {
            Layer::Dense(d) => d.backward(x, grad_out, scratch),
            Layer::Conv1d(c) => c.backward_with(x, grad_out, scratch),
            Layer::Relu => {
                let mut gx = scratch.take(x.len());
                for ((slot, &xi), &g) in gx.iter_mut().zip(x).zip(grad_out) {
                    *slot = if xi > 0.0 { g } else { 0.0 };
                }
                gx
            }
        }
    }
}

impl Parameterized for Layer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        match self {
            Layer::Dense(d) => {
                f(&mut d.w, &mut d.gw);
                f(&mut d.b, &mut d.gb);
            }
            Layer::Conv1d(c) => {
                f(&mut c.w, &mut c.gw);
                f(&mut c.b, &mut c.gb);
            }
            Layer::Relu => {}
        }
    }
}

/// Saved activations from one [`Sequential::forward_cached`] call:
/// the input each layer received, plus the final output.
#[derive(Debug, Clone)]
pub struct SeqCache {
    inputs: Vec<Vec<f32>>,
    /// Final output of the pass.
    pub output: Vec<f32>,
}

/// A chain of layers applied in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Sequential {
    /// Creates a network from layers (may be empty = identity).
    pub fn new(layers: Vec<Layer>) -> Self {
        Sequential { layers }
    }

    /// Inference-only forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_with(x, s))
    }

    /// [`Sequential::forward`] reusing buffers from `scratch`:
    /// intermediate activations are recycled as soon as the next
    /// layer has consumed them.
    pub fn forward_with(&self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        let mut cur = scratch.take(x.len());
        cur.copy_from_slice(x);
        for l in &self.layers {
            let next = l.forward_with(&cur, scratch);
            scratch.recycle(std::mem::replace(&mut cur, next));
        }
        cur
    }

    /// Forward pass that records the activations needed by
    /// [`Sequential::backward`].
    pub fn forward_cached(&self, x: &[f32]) -> SeqCache {
        kernels::with_thread_scratch(|s| self.forward_cached_with(x, s))
    }

    /// [`Sequential::forward_cached`] reusing buffers from `scratch`.
    ///
    /// Layer inputs are moved into the cache instead of cloned; the
    /// cache still owns plain `Vec`s because BPTT keeps it alive
    /// across the whole sequence.
    pub fn forward_cached_with(&self, x: &[f32], scratch: &mut KernelScratch) -> SeqCache {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut cur = scratch.take(x.len());
        cur.copy_from_slice(x);
        for l in &self.layers {
            let next = l.forward_with(&cur, scratch);
            inputs.push(std::mem::replace(&mut cur, next));
        }
        SeqCache {
            inputs,
            output: cur,
        }
    }

    /// Backward pass through the whole chain.
    pub fn backward(&mut self, cache: &SeqCache, grad_out: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.backward_with(cache, grad_out, s))
    }

    /// [`Sequential::backward`] reusing buffers from `scratch`.
    pub fn backward_with(
        &mut self,
        cache: &SeqCache,
        grad_out: &[f32],
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        let mut grad = scratch.take(grad_out.len());
        grad.copy_from_slice(grad_out);
        for (l, x) in self.layers.iter_mut().zip(&cache.inputs).rev() {
            let next = l.backward_with(x, &grad, scratch);
            scratch.recycle(std::mem::replace(&mut grad, next));
        }
        grad
    }

    /// Forward pass that feeds each layer's int8 calibration
    /// statistics as the activations flow through. Runs the f32
    /// forward as long as no layer holds int8 state, which
    /// `prepare_quantized` guarantees by clearing it first.
    pub fn calibrate_forward_with(&mut self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        let mut cur = scratch.take(x.len());
        cur.copy_from_slice(x);
        for l in &mut self.layers {
            let next = l.calibrate_forward_with(&cur, scratch);
            scratch.recycle(std::mem::replace(&mut cur, next));
        }
        cur
    }

    /// Freezes int8 state on every parameterized layer.
    pub fn freeze_quant(&mut self) {
        for l in &mut self.layers {
            l.freeze_quant();
        }
    }

    /// Drops int8 state and calibration statistics on every layer.
    pub fn clear_quant(&mut self) {
        for l in &mut self.layers {
            l.clear_quant();
        }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the chain is empty (identity function).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Parameterized for Sequential {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

/// The two-input encoder of Fig. 6: a conv branch over the
/// pseudospectrum part of the frame, the periodogram part passed
/// through directly, both merged by fully-connected layers.
///
/// The input frame is the concatenation
/// `[pseudospectrum (split) | periodogram (rest)]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoBranchEncoder {
    /// Length of the first (conv-branch) part of the input.
    pub split: usize,
    /// Convolutional branch applied to the first part.
    pub branch: Sequential,
    /// Merge network applied to `[branch output | second part]`.
    pub merge: Sequential,
}

/// Cache for [`TwoBranchEncoder::forward_cached`].
#[derive(Debug, Clone)]
pub struct TwoBranchCache {
    branch: SeqCache,
    merge: SeqCache,
    /// Final output of the encoder.
    pub output: Vec<f32>,
}

impl TwoBranchEncoder {
    /// Creates the encoder.
    pub fn new(split: usize, branch: Sequential, merge: Sequential) -> Self {
        TwoBranchEncoder {
            split,
            branch,
            merge,
        }
    }

    /// Inference-only forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() < split`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_with(x, s))
    }

    /// [`TwoBranchEncoder::forward`] reusing buffers from `scratch`.
    pub fn forward_with(&self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        assert!(x.len() >= self.split, "input shorter than split point");
        let feat = self.branch.forward_with(&x[..self.split], scratch);
        let mut merged = scratch.take(feat.len() + x.len() - self.split);
        merged[..feat.len()].copy_from_slice(&feat);
        merged[feat.len()..].copy_from_slice(&x[self.split..]);
        scratch.recycle(feat);
        let out = self.merge.forward_with(&merged, scratch);
        scratch.recycle(merged);
        out
    }

    /// Forward pass that feeds both branches' int8 calibration
    /// statistics; see [`Sequential::calibrate_forward_with`].
    pub fn calibrate_forward_with(&mut self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        assert!(x.len() >= self.split, "input shorter than split point");
        let feat = self
            .branch
            .calibrate_forward_with(&x[..self.split], scratch);
        let mut merged = scratch.take(feat.len() + x.len() - self.split);
        merged[..feat.len()].copy_from_slice(&feat);
        merged[feat.len()..].copy_from_slice(&x[self.split..]);
        scratch.recycle(feat);
        let out = self.merge.calibrate_forward_with(&merged, scratch);
        scratch.recycle(merged);
        out
    }

    /// Freezes int8 state on both branches.
    pub fn freeze_quant(&mut self) {
        self.branch.freeze_quant();
        self.merge.freeze_quant();
    }

    /// Drops int8 state and calibration statistics on both branches.
    pub fn clear_quant(&mut self) {
        self.branch.clear_quant();
        self.merge.clear_quant();
    }

    /// Caching forward pass.
    pub fn forward_cached(&self, x: &[f32]) -> TwoBranchCache {
        kernels::with_thread_scratch(|s| self.forward_cached_with(x, s))
    }

    /// [`TwoBranchEncoder::forward_cached`] reusing buffers from
    /// `scratch`.
    pub fn forward_cached_with(&self, x: &[f32], scratch: &mut KernelScratch) -> TwoBranchCache {
        assert!(x.len() >= self.split, "input shorter than split point");
        let branch = self.branch.forward_cached_with(&x[..self.split], scratch);
        let mut merged = scratch.take(branch.output.len() + x.len() - self.split);
        merged[..branch.output.len()].copy_from_slice(&branch.output);
        merged[branch.output.len()..].copy_from_slice(&x[self.split..]);
        let merge = self.merge.forward_cached_with(&merged, scratch);
        scratch.recycle(merged);
        let output = merge.output.clone();
        TwoBranchCache {
            branch,
            merge,
            output,
        }
    }

    /// Backward pass; returns `∂L/∂x` over the full concatenated input.
    pub fn backward(&mut self, cache: &TwoBranchCache, grad_out: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.backward_with(cache, grad_out, s))
    }

    /// [`TwoBranchEncoder::backward`] reusing buffers from `scratch`.
    pub fn backward_with(
        &mut self,
        cache: &TwoBranchCache,
        grad_out: &[f32],
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        let grad_merged = self.merge.backward_with(&cache.merge, grad_out, scratch);
        let feat_len = cache.branch.output.len();
        let grad_spec = self
            .branch
            .backward_with(&cache.branch, &grad_merged[..feat_len], scratch);
        let mut gx = grad_spec;
        gx.extend_from_slice(&grad_merged[feat_len..]);
        scratch.recycle(grad_merged);
        gx
    }
}

impl Parameterized for TwoBranchEncoder {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.branch.visit_params(f);
        self.merge.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference numerical gradient of a scalar loss.
    fn assert_matches_numeric<F>(forward_loss: F, analytic: &[f32], x: &mut [f32], tol: f32)
    where
        F: Fn(&[f32]) -> f32,
    {
        let eps = 1e-3;
        for i in 0..x.len() {
            let orig = x[i];
            x[i] = orig + eps;
            let lp = forward_loss(x);
            x[i] = orig - eps;
            let lm = forward_loss(x);
            x[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic[i]).abs() < tol * (1.0 + num.abs()),
                "grad[{i}]: numeric {num}, analytic {}",
                analytic[i]
            );
        }
    }

    fn sum_loss(y: &[f32]) -> f32 {
        // Loss = Σ y²/2 so grad_out = y.
        y.iter().map(|v| v * v * 0.5).sum()
    }

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 2, 0);
        d.w = vec![1.0, 2.0, 3.0, 4.0];
        d.b = vec![0.5, -0.5];
        let y = d.forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn dense_input_gradient_is_numeric() {
        let d = Dense::new(4, 3, 1);
        let mut x = vec![0.3, -0.2, 0.8, 0.1];
        let y = d.forward(&x);
        let mut dm = d.clone();
        let gx = dm.backward(&x, &y, &mut KernelScratch::new());
        assert_matches_numeric(|x| sum_loss(&d.forward(x)), &gx, &mut x, 1e-2);
    }

    #[test]
    fn dense_weight_gradient_is_numeric() {
        let d = Dense::new(3, 2, 2);
        let x = vec![0.5, -1.0, 0.25];
        let y = d.forward(&x);
        let mut dm = d.clone();
        dm.backward(&x, &y, &mut KernelScratch::new());
        // Numeric gradient wrt each weight.
        let eps = 1e-3;
        let mut probe = d.clone();
        for i in 0..probe.w.len() {
            let orig = probe.w[i];
            probe.w[i] = orig + eps;
            let lp = sum_loss(&probe.forward(&x));
            probe.w[i] = orig - eps;
            let lm = sum_loss(&probe.forward(&x));
            probe.w[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dm.gw[i]).abs() < 1e-2, "w[{i}]");
        }
    }

    #[test]
    fn conv_output_shape() {
        let c = Conv1d::new(2, 10, 3, 3, 2, 0);
        assert_eq!(c.len_out(), 4);
        assert_eq!(c.out_dim(), 12);
        let y = c.forward(&[0.1; 20]);
        assert_eq!(y.len(), 12);
    }

    #[test]
    fn conv_known_values() {
        // Single channel, identity-ish kernel.
        let mut c = Conv1d::new(1, 4, 1, 2, 1, 0);
        c.w = vec![1.0, -1.0];
        c.b = vec![0.0];
        let y = c.forward(&[3.0, 1.0, 4.0, 1.0]);
        assert_eq!(y, vec![2.0, -3.0, 3.0]);
    }

    #[test]
    fn conv_gradients_are_numeric() {
        let c = Conv1d::new(2, 8, 3, 3, 2, 5);
        let mut x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let y = c.forward(&x);
        let mut cm = c.clone();
        let gx = cm.backward(&x, &y);
        assert_matches_numeric(|x| sum_loss(&c.forward(x)), &gx, &mut x, 1e-2);
        // Weight gradients.
        let eps = 1e-3;
        let mut probe = c.clone();
        for i in 0..probe.w.len() {
            let orig = probe.w[i];
            probe.w[i] = orig + eps;
            let lp = sum_loss(&probe.forward(&x));
            probe.w[i] = orig - eps;
            let lm = sum_loss(&probe.forward(&x));
            probe.w[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - cm.gw[i]).abs() < 2e-2,
                "w[{i}]: {num} vs {}",
                cm.gw[i]
            );
        }
    }

    #[test]
    fn relu_forward_backward() {
        let l = Layer::relu();
        let y = l.forward(&[-1.0, 0.0, 2.0]);
        assert_eq!(y, vec![0.0, 0.0, 2.0]);
        let mut lm = l.clone();
        let gx = lm.backward(&[-1.0, 0.0, 2.0], &[1.0, 1.0, 1.0]);
        assert_eq!(gx, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn sequential_composition_gradient() {
        let seq = Sequential::new(vec![
            Layer::conv1d(1, 12, 2, 3, 2, 3),
            Layer::relu(),
            Layer::dense(10, 4, 4),
            Layer::relu(),
            Layer::dense(4, 2, 5),
        ]);
        let mut x: Vec<f32> = (0..12).map(|i| (i as f32 * 0.5).cos()).collect();
        let cache = seq.forward_cached(&x);
        let mut sm = seq.clone();
        let gx = sm.backward(&cache, &cache.output);
        assert_matches_numeric(|x| sum_loss(&seq.forward(x)), &gx, &mut x, 2e-2);
    }

    #[test]
    fn sequential_cached_matches_plain() {
        let seq = Sequential::new(vec![Layer::dense(3, 5, 1), Layer::relu()]);
        let x = [0.1, -0.7, 0.4];
        assert_eq!(seq.forward(&x), seq.forward_cached(&x).output);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let seq = Sequential::default();
        assert!(seq.is_empty());
        assert_eq!(seq.forward(&[1.0, 2.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn two_branch_routes_both_inputs() {
        let enc = TwoBranchEncoder::new(
            6,
            Sequential::new(vec![Layer::dense(6, 3, 1), Layer::relu()]),
            Sequential::new(vec![Layer::dense(5, 4, 2)]),
        );
        let x = vec![0.1; 8]; // 6 spec + 2 direct
        let y = enc.forward(&x);
        assert_eq!(y.len(), 4);
        assert_eq!(enc.forward_cached(&x).output, y);
    }

    #[test]
    fn two_branch_gradient_is_numeric() {
        let enc = TwoBranchEncoder::new(
            6,
            Sequential::new(vec![Layer::dense(6, 3, 7), Layer::relu()]),
            Sequential::new(vec![Layer::dense(5, 2, 8)]),
        );
        let mut x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.3).sin()).collect();
        let cache = enc.forward_cached(&x);
        let mut em = enc.clone();
        let gx = em.backward(&cache, &cache.output);
        assert_matches_numeric(|x| sum_loss(&enc.forward(x)), &gx, &mut x, 2e-2);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn dense_rejects_wrong_size() {
        Dense::new(3, 2, 0).forward(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn conv_rejects_oversized_kernel() {
        Conv1d::new(1, 3, 1, 5, 1, 0);
    }
}
