//! 2-D convolution via a fused im2col-GEMM, parallelized over the batch.
//!
//! Instead of materializing the full `[in_ch*kh*kw, oh*ow]` column matrix
//! per sample, the forward and backward passes lower one *panel* of at most
//! [`CONV_COL_PANEL`] output positions at a time and feed it straight into
//! the packed GEMM (`bitrobust_tensor::gemm`), keeping the per-sample
//! working set at `k * CONV_COL_PANEL` floats regardless of the spatial
//! output size.

use std::cell::RefCell;

use bitrobust_tensor::{gemm::gemm, parallel_for_disjoint_chunks, GemmOperand, Tensor};
use rand::Rng;

use crate::{init, Layer, Mode, Param, ParamKind};

/// Maximum number of im2col columns (output spatial positions) materialized
/// at once by the fused conv kernels.
///
/// Like the GEMM tile sizes, this constant is part of the workspace's
/// numerical contract: the input-gradient pass scatters panel by panel, so
/// changing the panel width changes the accumulation order of overlapping
/// windows in `dX` (and therefore training bits). Regenerate the goldens in
/// `crates/core/tests/golden.rs` if it ever changes.
pub const CONV_COL_PANEL: usize = 128;

thread_local! {
    /// Per-worker im2col panel scratch, reused across layer calls.
    static COL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The static geometry of one conv application, shared by the per-sample
/// kernels.
#[derive(Clone, Copy)]
struct ConvDims {
    ic: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    oc: usize,
}

impl ConvDims {
    /// im2col rows: `in_ch * kh * kw`.
    fn k(&self) -> usize {
        self.ic * self.kernel * self.kernel
    }

    /// Output spatial positions (`oh * ow` — im2col columns).
    fn ohw(&self) -> usize {
        self.oh * self.ow
    }

    /// Columns materialized per panel.
    fn panel(&self) -> usize {
        CONV_COL_PANEL.min(self.ohw())
    }
}

/// A 2-D convolution over `[batch, in_ch, h, w]` inputs (NCHW).
///
/// The forward pass lowers each sample to column *panels* of at most
/// [`CONV_COL_PANEL`] output positions (never the full `[in_ch*kh*kw,
/// oh*ow]` matrix) and multiplies by the `[out_ch, in_ch*kh*kw]` weight via
/// the packed GEMM; samples are processed in parallel on the workspace
/// thread pool. The backward pass recomputes the panels rather than caching
/// them, trading ~10% compute for a large reduction in peak memory.
///
/// # Examples
///
/// ```
/// use bitrobust_nn::{Conv2d, Layer, Mode};
/// use bitrobust_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng); // 3x3, stride 1, pad 1
/// let x = Tensor::zeros(&[2, 3, 16, 16]);
/// let y = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 8, 16, 16]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    kernel: usize,
    stride: usize,
    padding: usize,
    input_cache: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-initialized weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            weight: Param::new(
                "weight",
                ParamKind::Weight,
                init::he_conv(out_ch, in_ch, kernel, kernel, rng),
            ),
            bias: Param::new("bias", ParamKind::Bias, Tensor::zeros(&[out_ch])),
            kernel,
            stride,
            padding,
            input_cache: None,
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.value().dim(1)
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.weight.value().dim(0)
    }

    /// Kernel size (square).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Output spatial size for a given input spatial size.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// The geometry of applying this layer to `[batch, ic, h, w]` input.
    fn dims(&self, input: &Tensor) -> (usize, ConvDims) {
        assert_eq!(input.ndim(), 4, "Conv2d expects [batch, ch, h, w]");
        let (batch, ic, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        assert_eq!(ic, self.in_channels(), "Conv2d channel mismatch");
        let (oh, ow) = self.output_size(h, w);
        let d = ConvDims {
            ic,
            h,
            w,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            oh,
            ow,
            oc: self.out_channels(),
        };
        (batch, d)
    }

    /// The cache-free forward computation shared by `forward` and `infer`.
    fn compute(&self, input: &Tensor) -> Tensor {
        let (batch, d) = self.dims(input);
        let mut out = Tensor::zeros(&[batch, d.oc, d.oh, d.ow]);
        let sample_in = d.ic * d.h * d.w;
        let sample_out = d.oc * d.ohw();
        let weight = self.weight.value().data();
        let bias = self.bias.value().data();
        let x = input.data();

        parallel_for_disjoint_chunks(out.data_mut(), sample_out, |s, out_s| {
            COL_SCRATCH.with(|scratch| {
                let cols = &mut *scratch.borrow_mut();
                forward_sample(out_s, &x[s * sample_in..(s + 1) * sample_in], weight, d, cols);
                for c in 0..d.oc {
                    let b = bias[c];
                    for v in &mut out_s[c * d.ohw()..(c + 1) * d.ohw()] {
                        *v += b;
                    }
                }
            });
        });
        out
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode.is_train() {
            self.input_cache = Some(input.clone());
        }
        self.compute(input)
    }

    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        mode.assert_inference();
        self.compute(input)
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Self {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            input_cache: None,
        })
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.input_cache.as_ref().expect("backward before training forward");
        let (batch, d) = self.dims(input);
        let (k, ohw) = (d.k(), d.ohw());
        assert_eq!(grad_output.shape(), &[batch, d.oc, d.oh, d.ow], "grad_output shape mismatch");

        let sample_in = d.ic * d.h * d.w;
        let sample_out = d.oc * ohw;
        let x = input.data();
        let dy = grad_output.data();

        // Pass A: per-sample partial dW/db into a scratch buffer, reduced
        // serially afterwards (the per-sample partials are small).
        let part_len = d.oc * k + d.oc;
        let mut partials = vec![0f32; batch * part_len];
        parallel_for_disjoint_chunks(&mut partials, part_len, |s, part| {
            COL_SCRATCH.with(|scratch| {
                let cols = &mut *scratch.borrow_mut();
                let x_s = &x[s * sample_in..(s + 1) * sample_in];
                let dy_s = &dy[s * sample_out..(s + 1) * sample_out];
                let (dw_part, db_part) = part.split_at_mut(d.oc * k);
                backward_w_sample(dw_part, dy_s, x_s, d, cols);
                for c in 0..d.oc {
                    db_part[c] = dy_s[c * ohw..(c + 1) * ohw].iter().sum();
                }
            });
        });
        {
            let dw = self.weight.grad_mut().data_mut();
            for s in 0..batch {
                let dw_part = &partials[s * part_len..s * part_len + d.oc * k];
                for (a, &b) in dw.iter_mut().zip(dw_part) {
                    *a += b;
                }
            }
        }
        {
            let db = self.bias.grad_mut().data_mut();
            for s in 0..batch {
                let db_part = &partials[s * part_len + d.oc * k..(s + 1) * part_len];
                for (a, &b) in db.iter_mut().zip(db_part) {
                    *a += b;
                }
            }
        }

        // Pass B: per-sample dX = col2im(Wᵀ · dY_s), panel by panel.
        let weight = self.weight.value().data();
        let mut dx = Tensor::zeros(&[batch, d.ic, d.h, d.w]);
        parallel_for_disjoint_chunks(dx.data_mut(), sample_in, |s, dx_s| {
            COL_SCRATCH.with(|scratch| {
                let cols = &mut *scratch.borrow_mut();
                let dy_s = &dy[s * sample_out..(s + 1) * sample_out];
                backward_x_sample(dx_s, dy_s, weight, d, cols);
            });
        });
        dx
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        visitor(&self.weight);
        visitor(&self.bias);
    }

    fn layer_type(&self) -> &'static str {
        "Conv2d"
    }

    fn clear_cache(&mut self) {
        self.input_cache = None;
    }
}

/// Fused forward for one sample: `out_s = W · im2col(x_s)`, one column
/// panel at a time. The scratch buffer is resized to exactly one panel
/// (`k * CONV_COL_PANEL` floats at most) — never the full column matrix.
fn forward_sample(
    out_s: &mut [f32],
    x_s: &[f32],
    weight: &[f32],
    d: ConvDims,
    cols: &mut Vec<f32>,
) {
    let (k, ohw, panel) = (d.k(), d.ohw(), d.panel());
    cols.resize(k * panel, 0.0);
    for v in out_s.iter_mut() {
        *v = 0.0;
    }
    let mut x0 = 0;
    while x0 < ohw {
        let ncols = panel.min(ohw - x0);
        let cols_p = &mut cols[..k * ncols];
        im2col_panel(x_s, d, x0, ncols, cols_p);
        // out_s[:, x0..x0+ncols] += W [oc, k] · panel [k, ncols]
        gemm(
            &mut out_s[x0..],
            ohw,
            GemmOperand::row_major(weight, k),
            GemmOperand::row_major(cols_p, ncols),
            d.oc,
            k,
            ncols,
        );
        x0 += ncols;
    }
}

/// Fused weight-gradient pass for one sample:
/// `dw_part += dY_s · im2col(x_s)ᵀ`, one column panel at a time.
fn backward_w_sample(
    dw_part: &mut [f32],
    dy_s: &[f32],
    x_s: &[f32],
    d: ConvDims,
    cols: &mut Vec<f32>,
) {
    let (k, ohw, panel) = (d.k(), d.ohw(), d.panel());
    cols.resize(k * panel, 0.0);
    let mut x0 = 0;
    while x0 < ohw {
        let ncols = panel.min(ohw - x0);
        let cols_p = &mut cols[..k * ncols];
        im2col_panel(x_s, d, x0, ncols, cols_p);
        // dW [oc, k] += dY_s[:, x0..x0+ncols] · panelᵀ [ncols, k]
        gemm(
            dw_part,
            k,
            GemmOperand::strided(&dy_s[x0..], ohw),
            GemmOperand::transposed(cols_p, ncols),
            d.oc,
            ncols,
            k,
        );
        x0 += ncols;
    }
}

/// Fused input-gradient pass for one sample:
/// `dx_s = col2im(Wᵀ · dY_s)`, one column panel at a time.
fn backward_x_sample(
    dx_s: &mut [f32],
    dy_s: &[f32],
    weight: &[f32],
    d: ConvDims,
    cols: &mut Vec<f32>,
) {
    let (k, ohw, panel) = (d.k(), d.ohw(), d.panel());
    cols.resize(k * panel, 0.0);
    for v in dx_s.iter_mut() {
        *v = 0.0;
    }
    let mut x0 = 0;
    while x0 < ohw {
        let ncols = panel.min(ohw - x0);
        let dcols = &mut cols[..k * ncols];
        dcols.fill(0.0);
        // dcols [k, ncols] = Wᵀ [k, oc] · dY_s[:, x0..x0+ncols]
        gemm(
            dcols,
            ncols,
            GemmOperand::transposed(weight, k),
            GemmOperand::strided(&dy_s[x0..], ohw),
            k,
            d.oc,
            ncols,
        );
        col2im_panel(dcols, d, x0, ncols, dx_s);
        x0 += ncols;
    }
}

/// Lowers output positions `x0 .. x0 + ncols` of one `[ic, h, w]` sample
/// into a column panel `[ic*k*k, ncols]` (columns of the full im2col matrix,
/// without ever materializing it).
fn im2col_panel(x: &[f32], d: ConvDims, x0: usize, ncols: usize, cols: &mut [f32]) {
    let (h, w, ow) = (d.h, d.w, d.ow);
    for c in 0..d.ic {
        let x_c = &x[c * h * w..(c + 1) * h * w];
        for ky in 0..d.kernel {
            for kx in 0..d.kernel {
                let r = (c * d.kernel + ky) * d.kernel + kx;
                let row_out = &mut cols[r * ncols..(r + 1) * ncols];
                let mut xi = 0;
                while xi < ncols {
                    // Contiguous run of output positions sharing one oy row.
                    let pos = x0 + xi;
                    let (oy, ox0) = (pos / ow, pos % ow);
                    let run = (ow - ox0).min(ncols - xi);
                    let seg = &mut row_out[xi..xi + run];
                    let iy = (oy * d.stride + ky) as isize - d.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        seg.fill(0.0);
                    } else {
                        let x_row = &x_c[iy as usize * w..(iy as usize + 1) * w];
                        for (i, slot) in seg.iter_mut().enumerate() {
                            let ix = ((ox0 + i) * d.stride + kx) as isize - d.padding as isize;
                            *slot =
                                if ix < 0 || ix >= w as isize { 0.0 } else { x_row[ix as usize] };
                        }
                    }
                    xi += run;
                }
            }
        }
    }
}

/// Scatters column-gradient panel `[ic*k*k, ncols]` (output positions
/// `x0 .. x0 + ncols`) back into one `[ic, h, w]` input-gradient sample,
/// accumulating overlaps.
fn col2im_panel(dcols: &[f32], d: ConvDims, x0: usize, ncols: usize, dx: &mut [f32]) {
    let (h, w, ow) = (d.h, d.w, d.ow);
    for c in 0..d.ic {
        let dx_c = &mut dx[c * h * w..(c + 1) * h * w];
        for ky in 0..d.kernel {
            for kx in 0..d.kernel {
                let r = (c * d.kernel + ky) * d.kernel + kx;
                let row = &dcols[r * ncols..(r + 1) * ncols];
                let mut xi = 0;
                while xi < ncols {
                    let pos = x0 + xi;
                    let (oy, ox0) = (pos / ow, pos % ow);
                    let run = (ow - ox0).min(ncols - xi);
                    let iy = (oy * d.stride + ky) as isize - d.padding as isize;
                    if iy >= 0 && iy < h as isize {
                        let dx_row = &mut dx_c[iy as usize * w..(iy as usize + 1) * w];
                        for (i, &v) in row[xi..xi + run].iter().enumerate() {
                            let ix = ((ox0 + i) * d.stride + kx) as isize - d.padding as isize;
                            if ix >= 0 && ix < w as isize {
                                dx_row[ix as usize] += v;
                            }
                        }
                    }
                    xi += run;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradients, GradCheckConfig};
    use rand::SeedableRng;

    /// Direct (quadruple-loop) convolution as a reference.
    fn naive_conv(x: &Tensor, w: &Tensor, b: &Tensor, stride: usize, padding: usize) -> Tensor {
        let (batch, ic, h, wid) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (oc, _, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
        let oh = (h + 2 * padding - kh) / stride + 1;
        let ow = (wid + 2 * padding - kw) / stride + 1;
        let mut out = Tensor::zeros(&[batch, oc, oh, ow]);
        for s in 0..batch {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b.data()[o];
                        for c in 0..ic {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = (oy * stride + ky) as isize - padding as isize;
                                    let ix = (ox * stride + kx) as isize - padding as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < wid as isize {
                                        acc += x.at(&[s, c, iy as usize, ix as usize])
                                            * w.at(&[o, c, ky, kx]);
                                    }
                                }
                            }
                        }
                        out.set(&[s, o, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive_conv() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let mut conv = Conv2d::new(3, 4, 3, stride, padding, &mut rng);
            let x = Tensor::randn(&[2, 3, 7, 7], 1.0, &mut rng);
            let y = conv.forward(&x, Mode::Eval);
            let y_ref = naive_conv(&x, conv.weight.value(), conv.bias.value(), stride, padding);
            assert_eq!(y.shape(), y_ref.shape());
            for (a, b) in y.data().iter().zip(y_ref.data()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    /// The fused path must agree with the naive reference when `oh*ow`
    /// exceeds [`CONV_COL_PANEL`] (multiple panels per sample, including a
    /// partial trailing panel at 18*18 = 324 = 2*128 + 68 positions).
    #[test]
    fn multi_panel_forward_matches_naive_conv() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 18, 18], 1.0, &mut rng);
        const { assert!(18 * 18 > CONV_COL_PANEL, "shape must span multiple panels") };
        let y = conv.forward(&x, Mode::Eval);
        let y_ref = naive_conv(&x, conv.weight.value(), conv.bias.value(), 1, 1);
        for (a, b) in y.data().iter().zip(y_ref.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    /// The fused kernels must never materialize the full `[k, oh*ow]`
    /// column matrix: the scratch they request is exactly one panel.
    #[test]
    fn fused_path_scratch_is_one_panel() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 3, 16, 16], 1.0, &mut rng);
        let (_, d) = conv.dims(&x);
        let (k, ohw) = (d.k(), d.ohw());
        assert!(ohw > CONV_COL_PANEL, "16x16 output must span multiple panels");

        let mut out = vec![0.0; d.oc * ohw];
        let mut cols = Vec::new();
        forward_sample(&mut out, x.data(), conv.weight.value().data(), d, &mut cols);
        assert_eq!(cols.len(), k * CONV_COL_PANEL, "forward scratch must be one panel");
        assert!(cols.len() < k * ohw, "forward scratch must stay below the full matrix");

        let dy = vec![1.0; d.oc * ohw];
        let mut dw = vec![0.0; d.oc * k];
        let mut cols = Vec::new();
        backward_w_sample(&mut dw, &dy, x.data(), d, &mut cols);
        assert_eq!(cols.len(), k * CONV_COL_PANEL, "dW scratch must be one panel");

        let mut dx = vec![0.0; 3 * 16 * 16];
        let mut cols = Vec::new();
        backward_x_sample(&mut dx, &dy, conv.weight.value().data(), d, &mut cols);
        assert_eq!(cols.len(), k * CONV_COL_PANEL, "dX scratch must be one panel");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        check_layer_gradients(&mut conv, &[2, 2, 5, 5], &GradCheckConfig::default(), &mut rng);
    }

    #[test]
    fn strided_gradients_match_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng);
        check_layer_gradients(&mut conv, &[1, 2, 6, 6], &GradCheckConfig::default(), &mut rng);
    }

    /// Gradients stay correct when the spatial output spans several panels
    /// (exercises the panel-blocked dW and dX paths end to end).
    #[test]
    fn multi_panel_gradients_match_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        check_layer_gradients(&mut conv, &[1, 1, 12, 12], &GradCheckConfig::default(), &mut rng);
    }

    #[test]
    fn output_size_formula() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let conv = Conv2d::new(1, 1, 3, 2, 1, &mut rng);
        assert_eq!(conv.output_size(16, 16), (8, 8));
        assert_eq!(conv.output_size(7, 9), (4, 5));
    }
}
