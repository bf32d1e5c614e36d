//! Network layers: convolution, max-pooling, ReLU, flatten, dense.
//!
//! Layers are an enum (not trait objects) so whole networks serialise
//! with serde and clone cheaply. Forward passes are *stateless*: the
//! caller keeps each layer's input and hands it back to the backward
//! pass, so one network value can serve interleaved forward/backward
//! calls without hidden per-layer caches.
//!
//! Convolution and dense layers have exactly two implementations per
//! direction. The batched kernels production runs — inference and
//! training alike — work on whole batches through the [`crate::gemm`]
//! compute core: convolutions on the packed `[c, n, h, w]` layout
//! (im2col + one `sgemm`), dense layers on `[n, dim]` row matrices, with
//! the batch reduction of every weight gradient fused into one GEMM.
//! The naive per-sample loops (`forward_reference` /
//! `backward_reference`, reached through [`Layer::forward`] /
//! [`Layer::backward`]) are the reference they are checked against and
//! share no kernel with them.

use crate::gemm::{self, Trans};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// 2-D convolution with square kernels and "same"-style zero padding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels (number of filters).
    pub out_ch: usize,
    /// Kernel edge length.
    pub ksize: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on each border (`(ksize - 1) / 2` keeps size at
    /// stride 1).
    pub pad: usize,
    /// Filter weights, shape `[out_ch, in_ch, ksize, ksize]`.
    pub weight: Tensor,
    /// Per-filter bias, shape `[out_ch]`.
    pub bias: Tensor,
}

impl Conv2d {
    /// He-initialised convolution.
    pub fn new(in_ch: usize, out_ch: usize, ksize: usize, stride: usize, rng: &mut StdRng) -> Self {
        let fan_in = (in_ch * ksize * ksize) as f64;
        let dist = Normal::new(0.0, (2.0 / fan_in).sqrt()).expect("positive std");
        let weight = Tensor::from_vec(
            &[out_ch, in_ch, ksize, ksize],
            (0..out_ch * in_ch * ksize * ksize)
                .map(|_| dist.sample(rng) as f32)
                .collect(),
        );
        Self {
            in_ch,
            out_ch,
            ksize,
            stride,
            pad: (ksize - 1) / 2,
            weight,
            bias: Tensor::zeros(&[out_ch]),
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        gemm::conv_out_hw(h, w, self.ksize, self.stride, self.pad)
    }

    /// Forward pass on a packed `[c, n, h, w]` batch (see
    /// [`pack_batch_into`]): the samples are lowered into the recycled
    /// im2col scratch `col` and one
    /// `weight [out_ch, c*k*k] . col [c*k*k, n*oh*ow]` GEMM on top of
    /// the broadcast bias produces the `[out_ch, n, oh, ow]` output
    /// directly in the same layout, so stacks of convolutional layers
    /// hand the batch along without any per-sample unpacking. `out` is
    /// grown, never shrunk — only the returned extent is meaningful; the
    /// batched walks recycle both buffers across layers and batches to
    /// keep their pages warm.
    pub(crate) fn forward_packed_into(
        &self,
        x: &[f32],
        n: usize,
        h: usize,
        w: usize,
        col: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) -> [usize; 4] {
        assert_eq!(
            x.len(),
            self.in_ch * n * h * w,
            "packed batch shape mismatch"
        );
        let (oh, ow) = self.out_hw(h, w);
        let nl = n * oh * ow;
        let k2c = self.in_ch * self.ksize * self.ksize;
        if col.len() < k2c * nl {
            col.resize(k2c * nl, 0.0);
        }
        gemm::im2col_packed_into(
            x,
            self.in_ch,
            n,
            h,
            w,
            self.ksize,
            self.stride,
            self.pad,
            col,
        );
        if out.len() < self.out_ch * nl {
            out.resize(self.out_ch * nl, 0.0);
        }
        let od = &mut out[..self.out_ch * nl];
        for (oc, &bv) in self.bias.data().iter().enumerate() {
            od[oc * nl..(oc + 1) * nl].fill(bv);
        }
        gemm::sgemm(
            self.out_ch,
            nl,
            k2c,
            1.0,
            self.weight.data(),
            Trans::No,
            &col[..k2c * nl],
            Trans::No,
            1.0,
            od,
        );
        [self.out_ch, n, oh, ow]
    }

    /// Naive 7-loop forward pass over one `[c, h, w]` sample: the
    /// reference `forward_packed_into` is checked against, and
    /// what [`Layer::forward`] runs.
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        let [c, h, w] = *x.shape() else {
            panic!("Conv2d expects [c, h, w], got {:?}", x.shape())
        };
        assert_eq!(c, self.in_ch, "input channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        let k = self.ksize;
        let mut out = Tensor::zeros(&[self.out_ch, oh, ow]);
        let xd = x.data();
        let wd = self.weight.data();
        let bd = self.bias.data();
        let od = out.data_mut();
        for oc in 0..self.out_ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bd[oc];
                    for ic in 0..c {
                        let wbase = ((oc * c + ic) * k) * k;
                        let xbase = ic * h * w;
                        for ky in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let xrow = xbase + iy as usize * w;
                            let wrow = wbase + ky * k;
                            for kx in 0..k {
                                let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += xd[xrow + ix as usize] * wd[wrow + kx];
                            }
                        }
                    }
                    od[(oc * oh + oy) * ow + ox] = acc;
                }
            }
        }
        out
    }

    /// Batched backward pass on the packed `[c, n, h, w]` layout: one
    /// GEMM for the weight gradient with the batch reduction fused into
    /// its inner dimension (`gW [out_ch, c*k*k] = gout [out_ch, n*oh*ow]
    /// . col^T`), and — when `gin` is wanted — one GEMM plus a packed
    /// col2im scatter for the input gradient. `col` is the im2col
    /// lowering of this layer's packed input, reused from the forward
    /// pass instead of being recomputed. `gw`/`gb` are overwritten;
    /// `aux` is recycled scratch; `gin` is grown, never shrunk, and
    /// only its `[in_ch, n, h, w]` extent is meaningful.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward_packed_into(
        &self,
        n: usize,
        h: usize,
        w: usize,
        gout: &[f32],
        col: &[f32],
        aux: &mut Vec<f32>,
        gin: Option<&mut Vec<f32>>,
        gw: &mut Tensor,
        gb: &mut Tensor,
    ) {
        let (oh, ow) = self.out_hw(h, w);
        let nl = n * oh * ow;
        let k2c = self.in_ch * self.ksize * self.ksize;
        assert!(col.len() >= k2c * nl, "im2col buffer too small");
        assert_eq!(gout.len(), self.out_ch * nl, "packed gout mismatch");
        for (oc, gv) in gb.data_mut().iter_mut().enumerate() {
            *gv = gemm::lane_sum(&gout[oc * nl..(oc + 1) * nl]);
        }
        gemm::sgemm(
            self.out_ch,
            k2c,
            nl,
            1.0,
            gout,
            Trans::No,
            &col[..k2c * nl],
            Trans::Yes,
            0.0,
            gw.data_mut(),
        );
        if let Some(gin) = gin {
            if aux.len() < k2c * nl {
                aux.resize(k2c * nl, 0.0);
            }
            gemm::sgemm(
                k2c,
                nl,
                self.out_ch,
                1.0,
                self.weight.data(),
                Trans::Yes,
                gout,
                Trans::No,
                0.0,
                &mut aux[..k2c * nl],
            );
            let vol = self.in_ch * n * h * w;
            if gin.len() < vol {
                gin.resize(vol, 0.0);
            }
            gin[..vol].fill(0.0);
            gemm::col2im_packed_into(
                &aux[..k2c * nl],
                self.in_ch,
                n,
                h,
                w,
                self.ksize,
                self.stride,
                self.pad,
                &mut gin[..vol],
            );
        }
    }

    /// Naive per-sample backward pass: the reference
    /// `backward_packed_into` is checked against, and what
    /// [`Layer::backward`] runs.
    pub fn backward_reference(&self, x: &Tensor, gout: &Tensor) -> (Tensor, Vec<Tensor>) {
        let [c, h, w] = *x.shape() else {
            panic!("Conv2d expects [c, h, w], got {:?}", x.shape())
        };
        let (oh, ow) = self.out_hw(h, w);
        debug_assert_eq!(gout.shape(), &[self.out_ch, oh, ow]);
        let k = self.ksize;
        let mut gin = Tensor::zeros(x.shape());
        let mut gw = Tensor::zeros(self.weight.shape());
        let mut gb = Tensor::zeros(self.bias.shape());
        let xd = x.data();
        let wd = self.weight.data();
        let god = gout.data();
        let gind = gin.data_mut();
        let gwd = gw.data_mut();
        let gbd = gb.data_mut();
        for oc in 0..self.out_ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = god[(oc * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    gbd[oc] += g;
                    for ic in 0..c {
                        let wbase = ((oc * c + ic) * k) * k;
                        let xbase = ic * h * w;
                        for ky in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let xrow = xbase + iy as usize * w;
                            let wrow = wbase + ky * k;
                            for kx in 0..k {
                                let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                gwd[wrow + kx] += g * xd[xrow + ix as usize];
                                gind[xrow + ix as usize] += g * wd[wrow + kx];
                            }
                        }
                    }
                }
            }
        }
        (gin, vec![gw, gb])
    }
}

/// Non-overlapping max pooling (`size == stride`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxPool2d {
    /// Pooling window edge (and stride).
    pub size: usize,
}

impl MaxPool2d {
    /// Output extent: floor division, but never below 1 — windows at
    /// the border (or on inputs smaller than the window) are clamped.
    pub(crate) fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h.saturating_sub(self.size) / self.size) + 1,
            (w.saturating_sub(self.size) / self.size) + 1,
        )
    }

    fn forward(&self, x: &Tensor) -> Tensor {
        let [c, h, w] = *x.shape() else {
            panic!("MaxPool2d expects [c, h, w], got {:?}", x.shape())
        };
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(&[c, oh, ow]);
        self.pool_planes(x.data(), c, h, w, out.data_mut());
        out
    }

    /// Pools `planes` independent `[h, w]` planes from `xd` into `od`.
    /// The planes of a packed `[c, n, h, w]` batch are pooled exactly
    /// like the channels of a single `[c, h, w]` sample, so both the
    /// single and packed forward passes share this body.
    pub(crate) fn pool_planes(
        &self,
        xd: &[f32],
        planes: usize,
        h: usize,
        w: usize,
        od: &mut [f32],
    ) {
        let (oh, ow) = self.out_hw(h, w);
        let s = self.size;
        if s == 2 && 2 * oh <= h && 2 * ow <= w {
            // Every window sits fully inside the plane, so the border
            // clamping below is dead weight: take the four candidates
            // branch-free, in the same ky/kx scan order (`>` keeps the
            // first maximum, bit-identical to the general path).
            let keep = |acc: f32, v: f32| if v > acc { v } else { acc };
            for ch in 0..planes {
                let plane = &xd[ch * h * w..][..h * w];
                for oy in 0..oh {
                    let r0 = &plane[2 * oy * w..][..w];
                    let r1 = &plane[(2 * oy + 1) * w..][..w];
                    let orow = &mut od[(ch * oh + oy) * ow..][..ow];
                    for (o, (p0, p1)) in orow
                        .iter_mut()
                        .zip(r0.chunks_exact(2).zip(r1.chunks_exact(2)))
                    {
                        let m = keep(keep(f32::NEG_INFINITY, p0[0]), p0[1]);
                        *o = keep(keep(m, p1[0]), p1[1]);
                    }
                }
            }
            return;
        }
        for ch in 0..planes {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for ky in oy * self.size..(oy * self.size + self.size).min(h) {
                        for kx in ox * self.size..(ox * self.size + self.size).min(w) {
                            let v = xd[(ch * h + ky) * w + kx];
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    od[(ch * oh + oy) * ow + ox] = best;
                }
            }
        }
    }

    /// [`Self::pool_planes`] plus the winning input index of every
    /// window (absolute within `xd`), in the same scan order with the
    /// same first-maximum tie rule — outputs are bit-identical. The
    /// cached batched path stores `idx` so its backward pass scatters
    /// directly instead of rescanning every window.
    pub(crate) fn pool_planes_indexed(
        &self,
        xd: &[f32],
        planes: usize,
        h: usize,
        w: usize,
        od: &mut [f32],
        idx: &mut [u32],
    ) {
        let (oh, ow) = self.out_hw(h, w);
        debug_assert_eq!(od.len(), planes * oh * ow);
        debug_assert_eq!(idx.len(), planes * oh * ow);
        if self.size == 2 && 2 * oh <= h && 2 * ow <= w {
            for ch in 0..planes {
                let pb = ch * h * w;
                for oy in 0..oh {
                    let y0 = 2 * oy;
                    for ox in 0..ow {
                        let i0 = pb + y0 * w + 2 * ox;
                        let (i1, i2) = (i0 + 1, i0 + w);
                        let i3 = i2 + 1;
                        let (mut bv, mut bi) = (xd[i0], i0);
                        if xd[i1] > bv {
                            (bv, bi) = (xd[i1], i1);
                        }
                        if xd[i2] > bv {
                            (bv, bi) = (xd[i2], i2);
                        }
                        if xd[i3] > bv {
                            (bv, bi) = (xd[i3], i3);
                        }
                        let o = (ch * oh + oy) * ow + ox;
                        od[o] = bv;
                        idx[o] = bi as u32;
                    }
                }
            }
            return;
        }
        for ch in 0..planes {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut arg = 0usize;
                    for ky in oy * self.size..(oy * self.size + self.size).min(h) {
                        for kx in ox * self.size..(ox * self.size + self.size).min(w) {
                            let i = (ch * h + ky) * w + kx;
                            if xd[i] > best {
                                best = xd[i];
                                arg = i;
                            }
                        }
                    }
                    let o = (ch * oh + oy) * ow + ox;
                    od[o] = best;
                    idx[o] = arg as u32;
                }
            }
        }
    }

    /// Scatter the output gradient onto the argmax indices recorded by
    /// [`Self::pool_planes_indexed`]. `gind` is overwritten; the
    /// accumulation order matches [`Self::unpool_planes`] exactly.
    pub(crate) fn unpool_indexed(&self, god: &[f32], idx: &[u32], gind: &mut [f32]) {
        debug_assert_eq!(god.len(), idx.len());
        gind.fill(0.0);
        for (&i, &g) in idx.iter().zip(god) {
            gind[i as usize] += g;
        }
    }

    /// [`Self::unpool_indexed`] with a fused ReLU gate: when the pool
    /// consumes a ReLU's output, a window's max is zero exactly when
    /// the ReLU input at its argmax was non-positive, so gating on the
    /// *pooled* value while scattering replaces the separate
    /// full-resolution gate pass over the ReLU layer (which becomes a
    /// no-op on the already-gated gradient).
    pub(crate) fn unpool_indexed_gated(
        &self,
        god: &[f32],
        idx: &[u32],
        pooled: &[f32],
        gind: &mut [f32],
    ) {
        debug_assert_eq!(god.len(), idx.len());
        debug_assert_eq!(god.len(), pooled.len());
        gind.fill(0.0);
        for ((&i, &g), &p) in idx.iter().zip(god).zip(pooled) {
            gind[i as usize] += if p > 0.0 { g } else { 0.0 };
        }
    }

    fn backward(&self, x: &Tensor, gout: &Tensor) -> Tensor {
        let [c, h, w] = *x.shape() else {
            panic!("MaxPool2d expects [c, h, w], got {:?}", x.shape())
        };
        debug_assert_eq!(gout.len(), {
            let (oh, ow) = self.out_hw(h, w);
            c * oh * ow
        });
        let mut gin = Tensor::zeros(x.shape());
        self.unpool_planes(x.data(), c, h, w, gout.data(), gin.data_mut());
        gin
    }

    /// Routes each output gradient back to its window's argmax over
    /// `planes` independent `[h, w]` planes — the per-sample backward
    /// twin of [`Self::pool_planes`] (the packed walk scatters onto the
    /// indices [`Self::pool_planes_indexed`] recorded instead). `gind` is
    /// overwritten.
    pub(crate) fn unpool_planes(
        &self,
        xd: &[f32],
        planes: usize,
        h: usize,
        w: usize,
        god: &[f32],
        gind: &mut [f32],
    ) {
        let (oh, ow) = self.out_hw(h, w);
        debug_assert_eq!(gind.len(), planes * h * w);
        debug_assert_eq!(god.len(), planes * oh * ow);
        gind.fill(0.0);
        for ch in 0..planes {
            for oy in 0..oh {
                for ox in 0..ow {
                    // Recompute the argmax; the first maximum wins ties,
                    // matching the forward pass exactly.
                    let mut best = f32::NEG_INFINITY;
                    let mut arg = 0usize;
                    for ky in oy * self.size..(oy * self.size + self.size).min(h) {
                        for kx in ox * self.size..(ox * self.size + self.size).min(w) {
                            let idx = (ch * h + ky) * w + kx;
                            if xd[idx] > best {
                                best = xd[idx];
                                arg = idx;
                            }
                        }
                    }
                    gind[arg] += god[(ch * oh + oy) * ow + ox];
                }
            }
        }
    }
}

/// Fully connected layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
    /// Weights, shape `[out_dim, in_dim]`.
    pub weight: Tensor,
    /// Bias, shape `[out_dim]`.
    pub bias: Tensor,
}

impl Dense {
    /// He-initialised dense layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let dist = Normal::new(0.0, (2.0 / in_dim as f64).sqrt()).expect("positive std");
        Self {
            in_dim,
            out_dim,
            weight: Tensor::from_vec(
                &[out_dim, in_dim],
                (0..out_dim * in_dim)
                    .map(|_| dist.sample(rng) as f32)
                    .collect(),
            ),
            bias: Tensor::zeros(&[out_dim]),
        }
    }

    /// Batched forward pass over row matrices — rows of `X` are the
    /// samples: `Y [nb, out_dim] = X [nb, in_dim] . W^T + b` in one
    /// GEMM. `y` is grown, never shrunk; only the `[nb, out_dim]` extent
    /// is meaningful.
    pub(crate) fn forward_rows_into(&self, x: &[f32], nb: usize, y: &mut Vec<f32>) {
        assert_eq!(x.len(), nb * self.in_dim, "Dense row-matrix mismatch");
        if y.len() < nb * self.out_dim {
            y.resize(nb * self.out_dim, 0.0);
        }
        let yd = &mut y[..nb * self.out_dim];
        for row in yd.chunks_mut(self.out_dim) {
            row.copy_from_slice(self.bias.data());
        }
        gemm::sgemm(
            nb,
            self.out_dim,
            self.in_dim,
            1.0,
            x,
            Trans::No,
            self.weight.data(),
            Trans::Yes,
            1.0,
            yd,
        );
    }

    /// Batched backward pass over `[nb, dim]` row matrices: the weight gradient is a single `gW = gout^T . X` GEMM
    /// with the batch reduction fused into its inner dimension, the
    /// bias gradient is the column sum of `gout`, and — when wanted —
    /// the input gradient is `gin = gout . W`. `gw`/`gb` are
    /// overwritten; `gin` is grown, never shrunk.
    pub(crate) fn backward_rows_into(
        &self,
        x: &[f32],
        nb: usize,
        gout: &[f32],
        gin: Option<&mut Vec<f32>>,
        gw: &mut Tensor,
        gb: &mut Tensor,
    ) {
        assert_eq!(x.len(), nb * self.in_dim, "Dense row-matrix mismatch");
        assert_eq!(gout.len(), nb * self.out_dim, "Dense gout mismatch");
        gemm::sgemm(
            self.out_dim,
            self.in_dim,
            nb,
            1.0,
            gout,
            Trans::Yes,
            x,
            Trans::No,
            0.0,
            gw.data_mut(),
        );
        let gbd = gb.data_mut();
        gbd.fill(0.0);
        for grow in gout.chunks(self.out_dim) {
            for (gv, &g) in gbd.iter_mut().zip(grow) {
                *gv += g;
            }
        }
        if let Some(gin) = gin {
            if gin.len() < nb * self.in_dim {
                gin.resize(nb * self.in_dim, 0.0);
            }
            gemm::sgemm(
                nb,
                self.in_dim,
                self.out_dim,
                1.0,
                gout,
                Trans::No,
                self.weight.data(),
                Trans::No,
                0.0,
                &mut gin[..nb * self.in_dim],
            );
        }
    }

    /// Naive matvec forward pass over one sample: the reference
    /// `forward_rows_into` is checked against, and what
    /// [`Layer::forward`] runs.
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.len(), self.in_dim, "Dense input width mismatch");
        let xd = x.data();
        let wd = self.weight.data();
        let bd = self.bias.data();
        let mut out = vec![0.0f32; self.out_dim];
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &wd[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = bd[o];
            for (wv, xv) in row.iter().zip(xd) {
                acc += wv * xv;
            }
            *out_v = acc;
        }
        Tensor::from_vec(&[self.out_dim], out)
    }

    /// Naive per-sample backward pass: the reference
    /// `backward_rows_into` is checked against, and what
    /// [`Layer::backward`] runs.
    pub fn backward_reference(&self, x: &Tensor, gout: &Tensor) -> (Tensor, Vec<Tensor>) {
        debug_assert_eq!(gout.len(), self.out_dim);
        let xd = x.data();
        let god = gout.data();
        let wd = self.weight.data();
        let mut gw = Tensor::zeros(self.weight.shape());
        let mut gin = Tensor::zeros(x.shape());
        {
            let gwd = gw.data_mut();
            let gind = gin.data_mut();
            for (o, &g) in god.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                let row = o * self.in_dim;
                for i in 0..self.in_dim {
                    gwd[row + i] += g * xd[i];
                    gind[i] += g * wd[row + i];
                }
            }
        }
        let gb = Tensor::from_vec(&[self.out_dim], god.to_vec());
        (gin, vec![gw, gb])
    }
}

/// One network layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Non-overlapping max pooling.
    MaxPool2d(MaxPool2d),
    /// Rectified linear unit.
    Relu,
    /// Reshape `[c, h, w]` to a flat vector.
    Flatten,
    /// Fully connected.
    Dense(Dense),
}

impl Layer {
    /// Per-sample forward pass through the naive kernels (stateless):
    /// the reference walk of [`crate::network::Sequential::forward_cached`].
    pub fn forward(&self, x: &Tensor) -> Tensor {
        match self {
            Layer::Conv2d(l) => l.forward_reference(x),
            Layer::MaxPool2d(l) => l.forward(x),
            Layer::Relu => {
                let mut out = x.clone();
                relu_in_place(out.data_mut());
                out
            }
            Layer::Flatten => x.clone().reshape(&[x.len()]),
            Layer::Dense(l) => l.forward_reference(x),
        }
    }

    /// Per-sample backward pass through the naive kernels: gradient
    /// w.r.t. the layer input plus gradients w.r.t. each parameter
    /// tensor (aligned with [`Layer::params`]).
    pub fn backward(&self, x: &Tensor, gout: &Tensor) -> (Tensor, Vec<Tensor>) {
        match self {
            Layer::Conv2d(l) => l.backward_reference(x, gout),
            Layer::MaxPool2d(l) => (l.backward(x, gout), Vec::new()),
            Layer::Relu => {
                let mut gin = gout.clone();
                // Select, not a conditional store — see `relu_in_place`.
                for (g, &v) in gin.data_mut().iter_mut().zip(x.data()) {
                    *g = if v <= 0.0 { 0.0 } else { *g };
                }
                (gin, Vec::new())
            }
            Layer::Flatten => (gout.clone().reshape(x.shape()), Vec::new()),
            Layer::Dense(l) => l.backward_reference(x, gout),
        }
    }

    /// The layer's trainable parameter tensors.
    pub fn params(&self) -> Vec<&Tensor> {
        match self {
            Layer::Conv2d(l) => vec![&l.weight, &l.bias],
            Layer::Dense(l) => vec![&l.weight, &l.bias],
            _ => Vec::new(),
        }
    }

    /// Mutable access to the parameter tensors.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            Layer::Conv2d(l) => vec![&mut l.weight, &mut l.bias],
            Layer::Dense(l) => vec![&mut l.weight, &mut l.bias],
            _ => Vec::new(),
        }
    }

    /// Output shape for a given input shape.
    pub fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        match self {
            Layer::Conv2d(l) => {
                let [_, h, w] = *in_shape else {
                    panic!("Conv2d expects [c, h, w]")
                };
                let (oh, ow) = l.out_hw(h, w);
                vec![l.out_ch, oh, ow]
            }
            Layer::MaxPool2d(l) => {
                let [c, h, w] = *in_shape else {
                    panic!("MaxPool2d expects [c, h, w]")
                };
                let (oh, ow) = l.out_hw(h, w);
                vec![c, oh, ow]
            }
            Layer::Relu => in_shape.to_vec(),
            Layer::Flatten => vec![in_shape.iter().product()],
            Layer::Dense(l) => vec![l.out_dim],
        }
    }

    /// Non-panicking [`Self::out_shape`]: propagates a shape through
    /// the layer, reporting malformed chains (wrong rank, channel
    /// mismatches, kernels larger than their padded input, zero
    /// strides) as `Err` instead of panicking. This is what
    /// [`crate::network::Cnn::validate`] walks after deserialising a
    /// model, so the panics in the hot forward paths become
    /// load-time errors.
    pub fn try_out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>, String> {
        match self {
            Layer::Conv2d(l) => {
                let [c, h, w] = *in_shape else {
                    return Err(format!("Conv2d expects [c, h, w], got {in_shape:?}"));
                };
                if c != l.in_ch {
                    return Err(format!(
                        "Conv2d expects {} input channels, got {c}",
                        l.in_ch
                    ));
                }
                if l.stride == 0 {
                    return Err("Conv2d stride must be >= 1".into());
                }
                if l.ksize == 0 {
                    return Err("Conv2d kernel must be >= 1".into());
                }
                let span = |d: usize| {
                    d.checked_add(2 * l.pad)
                        .filter(|&p| p >= l.ksize)
                        .map(|p| (p - l.ksize) / l.stride + 1)
                };
                match (span(h), span(w)) {
                    (Some(oh), Some(ow)) => Ok(vec![l.out_ch, oh, ow]),
                    _ => Err(format!(
                        "Conv2d kernel {k}x{k} does not fit a {h}x{w} input with padding {p}",
                        k = l.ksize,
                        p = l.pad
                    )),
                }
            }
            Layer::MaxPool2d(l) => {
                let [c, h, w] = *in_shape else {
                    return Err(format!("MaxPool2d expects [c, h, w], got {in_shape:?}"));
                };
                if l.size == 0 {
                    return Err("MaxPool2d window must be >= 1".into());
                }
                let (oh, ow) = l.out_hw(h, w);
                Ok(vec![c, oh, ow])
            }
            Layer::Relu => Ok(in_shape.to_vec()),
            Layer::Flatten => {
                let mut vol = 1usize;
                for &d in in_shape {
                    vol = vol
                        .checked_mul(d)
                        .ok_or_else(|| format!("Flatten volume overflows on {in_shape:?}"))?;
                }
                Ok(vec![vol])
            }
            Layer::Dense(l) => {
                let vol: usize = in_shape.iter().product();
                if vol != l.in_dim {
                    return Err(format!(
                        "Dense expects input width {}, got {vol} (shape {in_shape:?})",
                        l.in_dim
                    ));
                }
                Ok(vec![l.out_dim])
            }
        }
    }

    /// Checks the layer's own parameter tensors: shape metadata
    /// consistent with the buffers, declared dimensions matching the
    /// weight shapes, and every value finite. Complements
    /// [`Self::try_out_shape`] (which checks how layers chain).
    pub fn validate_params(&self) -> Result<(), String> {
        let check = |name: &str, t: &Tensor, want: &[usize]| -> Result<(), String> {
            if !t.is_consistent() {
                return Err(format!(
                    "{name} tensor shape {:?} does not match its {} data elements",
                    t.shape(),
                    t.len()
                ));
            }
            if t.shape() != want {
                return Err(format!(
                    "{name} tensor has shape {:?}, expected {want:?}",
                    t.shape()
                ));
            }
            if !t.is_finite() {
                return Err(format!("{name} tensor holds non-finite values"));
            }
            Ok(())
        };
        match self {
            Layer::Conv2d(l) => {
                check(
                    "Conv2d weight",
                    &l.weight,
                    &[l.out_ch, l.in_ch, l.ksize, l.ksize],
                )?;
                check("Conv2d bias", &l.bias, &[l.out_ch])
            }
            Layer::Dense(l) => {
                check("Dense weight", &l.weight, &[l.out_dim, l.in_dim])?;
                check("Dense bias", &l.bias, &[l.out_dim])
            }
            _ => Ok(()),
        }
    }

    /// Human-readable description (used by `repro fig10`).
    pub fn describe(&self) -> String {
        match self {
            Layer::Conv2d(l) => format!(
                "CONV({k}x{k}x{oc}, stride {s})",
                k = l.ksize,
                oc = l.out_ch,
                s = l.stride
            ),
            Layer::MaxPool2d(l) => format!("POOL({0}x{0})", l.size),
            Layer::Relu => "ReLU".into(),
            Layer::Flatten => "Flatten".into(),
            Layer::Dense(l) => format!("Dense({} -> {})", l.in_dim, l.out_dim),
        }
    }
}

/// Grows `v` to at least `len` and returns the `[0, len)` window.
/// Shared convention of every recycled batch buffer: grow, never
/// shrink, and only the returned extent is meaningful.
pub(crate) fn ensure_len<T: Clone + Default>(v: &mut Vec<T>, len: usize) -> &mut [T] {
    if v.len() < len {
        v.resize(len, T::default());
    }
    &mut v[..len]
}

/// ReLU in place. Written as a select, not a conditional store:
/// random-sign activations make the branch unpredictable, and the
/// select form vectorises.
pub(crate) fn relu_in_place(xs: &mut [f32]) {
    for v in xs {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// Packs `n` same-shaped `[c, h, w]` samples into the `[c, n, h, w]`
/// batch layout the packed walks run on: channel `ic` of sample `si`
/// lands at plane `ic*n + si`, so every channel's per-sample planes sit
/// side by side and a convolution's batched GEMM output is already in
/// this layout. A flat `[dim]` sample is one `1 × dim` plane, so flat
/// samples pack into the `[n, dim]` row matrix. `out` holds exactly
/// `n` samples' worth of elements.
pub(crate) fn pack_batch_into(xs: &[Tensor], out: &mut [f32]) {
    let (c, plane) = match *xs[0].shape() {
        [c, h, w] => (c, h * w),
        [dim] => (1, dim),
        ref s => panic!("pack_batch_into expects [c, h, w] or [dim] samples, got {s:?}"),
    };
    let n = xs.len();
    assert_eq!(out.len(), c * n * plane, "packed buffer shape mismatch");
    for (si, x) in xs.iter().enumerate() {
        assert_eq!(x.shape(), xs[0].shape(), "batch shape mismatch");
        for ic in 0..c {
            out[(ic * n + si) * plane..][..plane].copy_from_slice(&x.data()[ic * plane..][..plane]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{with_gemm_threading, GemmThreading};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    /// Central-difference gradient check for a layer.
    fn grad_check(layer: &mut Layer, in_shape: &[usize]) {
        let mut r = rng();
        let dist = Normal::new(0.0, 1.0).unwrap();
        let vol: usize = in_shape.iter().product();
        let x = Tensor::from_vec(
            in_shape,
            (0..vol).map(|_| dist.sample(&mut r) as f32).collect(),
        );
        let out = layer.forward(&x);
        // Loss = weighted sum of outputs (fixed random weights), so
        // d(loss)/d(out) is just those weights.
        let loss_w: Vec<f32> = (0..out.len()).map(|_| dist.sample(&mut r) as f32).collect();
        let gout = Tensor::from_vec(out.shape(), loss_w.clone());
        let loss = |l: &Layer, x: &Tensor| -> f64 {
            l.forward(x)
                .data()
                .iter()
                .zip(&loss_w)
                .map(|(&o, &w)| (o * w) as f64)
                .sum()
        };

        let (gin, gparams) = layer.backward(&x, &gout);
        let eps = 1e-3f32;

        // Check input gradients on a sample of positions.
        for idx in (0..x.len()).step_by((x.len() / 17).max(1)) {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(layer, &xp) - loss(layer, &xm)) / (2.0 * eps as f64);
            let ana = gin.data()[idx] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs().max(ana.abs())),
                "input grad at {idx}: numeric {num} vs analytic {ana}"
            );
        }

        // Check parameter gradients on a sample of positions. `p`
        // indexes the layer's params afresh each use because the layer
        // is mutated inside the loop, so a range loop is the shape.
        #[allow(clippy::needless_range_loop)]
        for p in 0..layer.params().len() {
            let plen = layer.params()[p].len();
            for idx in (0..plen).step_by((plen / 13).max(1)) {
                let orig = layer.params()[p].data()[idx];
                layer.params_mut()[p].data_mut()[idx] = orig + eps;
                let lp = loss(layer, &x);
                layer.params_mut()[p].data_mut()[idx] = orig - eps;
                let lm = loss(layer, &x);
                layer.params_mut()[p].data_mut()[idx] = orig;
                let num = (lp - lm) / (2.0 * eps as f64);
                let ana = gparams[p].data()[idx] as f64;
                assert!(
                    (num - ana).abs() < 1e-2 * (1.0 + num.abs().max(ana.abs())),
                    "param {p} grad at {idx}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn conv_known_answer() {
        // 1x3x3 input, single 3x3 identity-centre filter, stride 1:
        // output equals input (same padding).
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut rng());
        conv.weight = Tensor::from_vec(
            &[1, 1, 3, 3],
            vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        );
        conv.bias = Tensor::from_vec(&[1], vec![0.5]);
        let x = Tensor::from_vec(&[1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = Layer::Conv2d(conv).forward(&x);
        assert_eq!(y.shape(), &[1, 3, 3]);
        for (i, &v) in y.data().iter().enumerate() {
            assert_eq!(v, (i + 1) as f32 + 0.5);
        }
    }

    #[test]
    fn conv_stride_two_halves_size() {
        let conv = Conv2d::new(2, 4, 3, 2, &mut rng());
        let l = Layer::Conv2d(conv);
        assert_eq!(l.out_shape(&[2, 16, 16]), vec![4, 8, 8]);
        let x = Tensor::zeros(&[2, 16, 16]);
        assert_eq!(l.forward(&x).shape(), &[4, 8, 8]);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut l = Layer::Conv2d(Conv2d::new(2, 3, 3, 1, &mut rng()));
        grad_check(&mut l, &[2, 6, 6]);
    }

    #[test]
    fn conv_stride2_gradients_match_finite_differences() {
        let mut l = Layer::Conv2d(Conv2d::new(1, 2, 3, 2, &mut rng()));
        grad_check(&mut l, &[1, 8, 8]);
    }

    #[test]
    fn pool_known_answer() {
        let x = Tensor::from_vec(
            &[1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.0, //
                -3.0, -4.0, 0.0, 9.0,
            ],
        );
        let y = Layer::MaxPool2d(MaxPool2d { size: 2 }).forward(&x);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, -1.0, 9.0]);
    }

    #[test]
    fn pool_gradients_route_to_argmax() {
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 5.0, 2.0, 3.0]);
        let l = Layer::MaxPool2d(MaxPool2d { size: 2 });
        let gout = Tensor::from_vec(&[1, 1, 1], vec![7.0]);
        let (gin, _) = l.backward(&x, &gout);
        assert_eq!(gin.data(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn pool_gradients_match_finite_differences() {
        let mut l = Layer::MaxPool2d(MaxPool2d { size: 2 });
        grad_check(&mut l, &[3, 6, 6]);
    }

    #[test]
    fn relu_clamps_and_gates() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let l = Layer::Relu;
        let y = l.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let gout = Tensor::from_vec(&[4], vec![1.0, 1.0, 1.0, 1.0]);
        let (gin, _) = l.backward(&x, &gout);
        assert_eq!(gin.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let x = Tensor::zeros(&[2, 3, 4]);
        let l = Layer::Flatten;
        let y = l.forward(&x);
        assert_eq!(y.shape(), &[24]);
        let (gin, _) = l.backward(&x, &Tensor::zeros(&[24]));
        assert_eq!(gin.shape(), &[2, 3, 4]);
    }

    #[test]
    fn dense_known_answer() {
        let mut d = Dense::new(2, 2, &mut rng());
        d.weight = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        d.bias = Tensor::from_vec(&[2], vec![10.0, 20.0]);
        let y = Layer::Dense(d).forward(&Tensor::from_vec(&[2], vec![1.0, -1.0]));
        assert_eq!(y.data(), &[9.0, 19.0]);
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut l = Layer::Dense(Dense::new(10, 4, &mut rng()));
        grad_check(&mut l, &[10]);
    }

    #[test]
    fn out_shapes_chain_like_figure_10() {
        // The paper's tower on a 128x128 input: 64x64x16 -> 16x16x32 ->
        // 4x4x64 -> 1024.
        let mut r = rng();
        let layers = vec![
            Layer::Conv2d(Conv2d::new(1, 16, 3, 1, &mut r)),
            Layer::Relu,
            Layer::MaxPool2d(MaxPool2d { size: 2 }),
            Layer::Conv2d(Conv2d::new(16, 32, 3, 2, &mut r)),
            Layer::Relu,
            Layer::MaxPool2d(MaxPool2d { size: 2 }),
            Layer::Conv2d(Conv2d::new(32, 64, 3, 2, &mut r)),
            Layer::Relu,
            Layer::MaxPool2d(MaxPool2d { size: 2 }),
            Layer::Flatten,
        ];
        let mut shape = vec![1, 128, 128];
        let mut waypoints = Vec::new();
        for l in &layers {
            shape = l.out_shape(&shape);
            waypoints.push(shape.clone());
        }
        assert_eq!(waypoints[2], vec![16, 64, 64]);
        assert_eq!(waypoints[5], vec![32, 16, 16]);
        assert_eq!(waypoints[8], vec![64, 4, 4]);
        assert_eq!(waypoints[9], vec![1024]);
    }

    fn rand_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
        let d = Normal::new(0.0, 1.0).unwrap();
        let vol: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..vol).map(|_| d.sample(rng) as f32).collect())
    }

    /// `got` within 1e-4 (relative) of `want`, element by element.
    fn close(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), want.len(), "{} length", what);
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert!(
                (g - w).abs() <= 1e-4 * (1.0 + w.abs()),
                "{what}[{i}]: {g} vs {w}"
            );
        }
        Ok(())
    }

    /// Sample `si` of a packed `[c, n, plane]` batch, as `[c, plane]`.
    fn sample_of(packed: &[f32], c: usize, n: usize, plane: usize, si: usize) -> Vec<f32> {
        (0..c)
            .flat_map(|ic| &packed[(ic * n + si) * plane..][..plane])
            .copied()
            .collect()
    }

    /// The packed convolution kernels against the naive pair: outputs
    /// and input gradients sample by sample, weight and bias gradients
    /// against the sum of the per-sample naive gradients. `pad` is set
    /// directly — `new` only produces "same" pads.
    #[allow(clippy::too_many_arguments)]
    fn check_packed_conv(
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
        stride: usize,
        pad: usize,
        h: usize,
        w: usize,
        n: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut r = StdRng::seed_from_u64(seed);
        let mut conv = Conv2d::new(in_ch, out_ch, ksize, stride, &mut r);
        conv.pad = pad;
        let xs: Vec<Tensor> = (0..n)
            .map(|_| rand_tensor(&[in_ch, h, w], &mut r))
            .collect();
        let mut x = vec![0.0f32; in_ch * n * h * w];
        pack_batch_into(&xs, &mut x);
        let (mut col, mut out) = (Vec::new(), Vec::new());
        let [oc, _, oh, ow] = conv.forward_packed_into(&x, n, h, w, &mut col, &mut out);
        let gouts: Vec<Tensor> = (0..n).map(|_| rand_tensor(&[oc, oh, ow], &mut r)).collect();
        let mut gout = vec![0.0f32; oc * n * oh * ow];
        pack_batch_into(&gouts, &mut gout);
        let (mut aux, mut gin) = (Vec::new(), Vec::new());
        let mut gw = Tensor::zeros(conv.weight.shape());
        let mut gb = Tensor::zeros(conv.bias.shape());
        conv.backward_packed_into(
            n,
            h,
            w,
            &gout,
            &col,
            &mut aux,
            Some(&mut gin),
            &mut gw,
            &mut gb,
        );
        let mut want_gw = Tensor::zeros(conv.weight.shape());
        let mut want_gb = Tensor::zeros(conv.bias.shape());
        for (si, (x, g)) in xs.iter().zip(&gouts).enumerate() {
            let y = conv.forward_reference(x);
            close(&sample_of(&out, oc, n, oh * ow, si), y.data(), "forward")?;
            let (gin_ref, gp) = conv.backward_reference(x, g);
            close(&sample_of(&gin, in_ch, n, h * w, si), gin_ref.data(), "gin")?;
            want_gw.add_assign(&gp[0]);
            want_gb.add_assign(&gp[1]);
        }
        close(gw.data(), want_gw.data(), "gW")?;
        close(gb.data(), want_gb.data(), "gb")
    }

    /// The row-matrix dense kernels against the naive pair, the same
    /// way as [`check_packed_conv`].
    fn check_rows_dense(
        in_dim: usize,
        out_dim: usize,
        nb: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut r = StdRng::seed_from_u64(seed);
        let dense = Dense::new(in_dim, out_dim, &mut r);
        let xs: Vec<Tensor> = (0..nb).map(|_| rand_tensor(&[in_dim], &mut r)).collect();
        let gouts: Vec<Tensor> = (0..nb).map(|_| rand_tensor(&[out_dim], &mut r)).collect();
        let rows =
            |ts: &[Tensor]| -> Vec<f32> { ts.iter().flat_map(|t| t.data()).copied().collect() };
        let (x, gout) = (rows(&xs), rows(&gouts));
        let (mut y, mut gin) = (Vec::new(), Vec::new());
        dense.forward_rows_into(&x, nb, &mut y);
        let mut gw = Tensor::zeros(dense.weight.shape());
        let mut gb = Tensor::zeros(dense.bias.shape());
        dense.backward_rows_into(&x, nb, &gout, Some(&mut gin), &mut gw, &mut gb);
        let mut want_gw = Tensor::zeros(dense.weight.shape());
        let mut want_gb = Tensor::zeros(dense.bias.shape());
        for (si, (x, g)) in xs.iter().zip(&gouts).enumerate() {
            let y_ref = dense.forward_reference(x);
            close(&y[si * out_dim..][..out_dim], y_ref.data(), "forward")?;
            let (gin_ref, gp) = dense.backward_reference(x, g);
            close(&gin[si * in_dim..][..in_dim], gin_ref.data(), "gin")?;
            want_gw.add_assign(&gp[0]);
            want_gb.add_assign(&gp[1]);
        }
        close(gw.data(), want_gw.data(), "gW")?;
        close(gb.data(), want_gb.data(), "gb")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Kernel sizes, paddings and strides the paper's schedule never
        // uses (ksize != 3, pad != 1, pad >= ksize, stride 3).
        #[test]
        fn packed_conv_matches_naive_on_hostile_geometry(
            in_ch in 1usize..5,
            out_ch in 1usize..5,
            ksize in 1usize..5,
            stride in 1usize..4,
            pad in 0usize..3,
            h in 5usize..11,
            w in 5usize..11,
            n in 1usize..7,
            seed in 0u64..1000,
        ) {
            check_packed_conv(in_ch, out_ch, ksize, stride, pad, h, w, n, seed)?;
        }

        // Widths from 1 (the matvec and rank-1 regimes of `sgemm`) up,
        // batches that leave ragged GEMM tiles.
        #[test]
        fn rows_dense_matches_naive_for_any_width(
            in_dim in 1usize..81,
            out_dim in 1usize..81,
            nb in 1usize..10,
            seed in 0u64..1000,
        ) {
            check_rows_dense(in_dim, out_dim, nb, seed)?;
        }

        // Fixed slot counts above the pool size still partition rows,
        // so this drives the multi-span dispatch on any host.
        #[test]
        fn batched_kernels_match_naive_under_threaded_gemm(
            ksize in 1usize..5,
            stride in 1usize..4,
            pad in 0usize..3,
            hw in 5usize..11,
            n in 1usize..7,
            width in 1usize..81,
            seed in 0u64..1000,
        ) {
            with_gemm_threading(GemmThreading::Fixed(4), || {
                check_packed_conv(3, 4, ksize, stride, pad, hw, hw, n, seed)?;
                check_rows_dense(width, 81 - width, n, seed)
            })?;
        }
    }

    #[test]
    fn packed_layer_walk_matches_per_sample_forward() {
        use crate::network::Sequential;
        let mut r = rng();
        let walk = Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(2, 4, 3, 1, &mut r)),
            Layer::Relu,
            Layer::MaxPool2d(MaxPool2d { size: 2 }),
            Layer::Conv2d(Conv2d::new(4, 3, 3, 2, &mut r)),
        ]);
        // Conv entry lands in the packed layout; relu/pool keep it; the
        // next conv consumes it directly; each sample comes back as its
        // flattened row and matches the per-sample reference walk — for
        // a batch of one as for a batch of five.
        for n in [1usize, 5] {
            let xs: Vec<Tensor> = (0..n).map(|_| rand_tensor(&[2, 8, 8], &mut r)).collect();
            let mut want = xs.clone();
            for layer in &walk.layers {
                want = want.iter().map(|x| layer.forward(x)).collect();
            }
            let got = walk.forward_batch_until(xs, &|| false).unwrap();
            assert_eq!(got.len(), n);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.shape(), &[w.len()]);
                close(g.data(), w.data(), "walk").unwrap();
            }
            // Flat samples enter as `[n, dim]` rows.
            let head = Sequential::new(vec![
                Layer::Dense(Dense::new(got[0].len(), 5, &mut r)),
                Layer::Relu,
                Layer::Dense(Dense::new(5, 2, &mut r)),
            ]);
            let rows = head.forward_batch_until(got.clone(), &|| false).unwrap();
            for (g, x) in rows.iter().zip(&got) {
                close(g.data(), head.forward_cached(x).1.data(), "head").unwrap();
            }
        }
    }

    #[test]
    fn describe_is_informative() {
        let c = Layer::Conv2d(Conv2d::new(1, 16, 3, 1, &mut rng()));
        assert_eq!(c.describe(), "CONV(3x3x16, stride 1)");
        assert_eq!(Layer::Relu.describe(), "ReLU");
    }
}
