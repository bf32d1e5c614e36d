//! Networks: [`Sequential`] layer stacks and the two-part [`Cnn`] that
//! expresses both of the paper's structures.
//!
//! A [`Cnn`] is N convolutional *towers* plus a fully-connected *head*.
//! The late-merging structure (Figure 7/10) uses one tower per input
//! channel and concatenates their features only at the head — "the
//! outputs of the two networks are put together as joint features, fed
//! to the fully connected layer". The early-merging structure
//! (Figure 6) is the degenerate case of a single tower consuming all
//! channels stacked into one multi-channel image.

use crate::gemm;
use crate::layers::{self, Layer};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A labelled training/evaluation sample: the representation channels
/// of one matrix (each `[h, w]`) plus its best-format class label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Input channels, each of shape `[h, w]`.
    pub channels: Vec<Tensor>,
    /// Class label (index into the platform's format set).
    pub label: usize,
}

/// A stack of layers applied in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Sequential {
    /// The layers, applied front to back.
    pub layers: Vec<Layer>,
}

/// Per-layer parameter gradients of a [`Sequential`].
pub type SeqGrads = Vec<Vec<Tensor>>;

impl Sequential {
    /// Creates a stack from layers.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// Batched inference over same-shaped inputs — the only inference
    /// walk; a single sample is a batch of one. `cancel` is polled
    /// before every layer and the walk returns `None` as soon as it
    /// reports `true`, so a caller enforcing a deadline can abandon the
    /// pass between layers instead of wedging a worker on a huge
    /// convolution stack. The serving layer's micro-batcher passes an
    /// "every member's deadline has expired" predicate, so a batch is
    /// only abandoned when no member still wants the answer; callers
    /// without a deadline pass `&|| false`.
    ///
    /// Image-shaped (`[c, h, w]`) samples are packed into
    /// `[c, n, h, w]`; flat `[dim]` samples (the head's merged features)
    /// are one-channel `1 × dim` planes, whose packed layout is the
    /// `[n, dim]` row matrix. Either way every sample comes back as one
    /// flat row, so a stack that ends in an image layer returns its
    /// output flattened to `[c·h·w]`.
    pub fn forward_batch_until(
        &self,
        xs: Vec<Tensor>,
        cancel: &dyn Fn() -> bool,
    ) -> Option<Vec<Tensor>> {
        let shape = match xs.first().map(Tensor::shape) {
            None => return Some(Vec::new()),
            Some(&[c, h, w]) => [c, xs.len(), h, w],
            Some(s) => [1, xs.len(), 1, s.iter().product()],
        };
        let (rows, dim) =
            self.forward_packed_until(shape, &|dst| layers::pack_batch_into(&xs, dst), cancel)?;
        Some(split_rows(&rows, xs.len(), dim))
    }

    /// [`Self::forward_batch_until`] from a packed `[c, n, h, w]` input
    /// that `fill` writes straight into the walk's first buffer (plane
    /// `ic * n + si` holds channel `ic` of sample `si`), so a caller
    /// holding the samples in another form never builds per-sample
    /// tensors first. Returns the stack output as `[n, dim]` rows and
    /// `dim`.
    ///
    /// The convolutional prefix runs on the packed block: each
    /// conv/pool/relu layer hands the whole batch along without
    /// per-sample copies. The walk ping-pongs between two recycled
    /// scratch buffers (batch-sized activations live above the
    /// allocator's mmap threshold, so fresh allocations would
    /// page-fault on every layer) and ReLU runs in place. Where the
    /// prefix ends — at the first `Flatten` or `Dense` — the batch is
    /// gathered into `[n, c·h·w]` rows, the gather training's repack
    /// boundary does, and the rest of the stack runs on rows: one GEMM
    /// per dense layer, ReLU in place, `Flatten` a no-op. A stack that
    /// starts on `[n, dim]` rows takes them as `[1, n, 1, dim]`, whose
    /// gather is the identity.
    pub(crate) fn forward_packed_until(
        &self,
        shape: [usize; 4],
        fill: &dyn Fn(&mut [f32]),
        cancel: &dyn Fn() -> bool,
    ) -> Option<(Vec<f32>, usize)> {
        let n = shape[1];
        gemm::with_scratch(|s| {
            let mut ping = std::mem::take(&mut s.ping);
            let mut pong = std::mem::take(&mut s.pong);
            fill(layers::ensure_len(&mut ping, shape.iter().product()));
            let out = self
                .walk_until(shape, &mut ping, &mut pong, &mut s.col, cancel)
                .map(|dim| (ping[..n * dim].to_vec(), dim));
            // Scratch goes back even on cancellation, so an
            // abandoned batch never costs the next one its buffers. The
            // larger one goes back as `pong`, where the next walk's first
            // layer writes: otherwise walks with an odd number of
            // buffer swaps alternate the roles from call to call and
            // both buffers grow to the largest activation.
            if ping.capacity() > pong.capacity() {
                std::mem::swap(&mut ping, &mut pong);
            }
            s.ping = ping;
            s.pong = pong;
            out
        })
    }

    /// Body of [`Self::forward_packed_until`] over its scratch buffers:
    /// returns the output width, with the output rows in `ping`.
    fn walk_until(
        &self,
        mut shape: [usize; 4],
        ping: &mut Vec<f32>,
        pong: &mut Vec<f32>,
        col: &mut Vec<f32>,
        cancel: &dyn Fn() -> bool,
    ) -> Option<usize> {
        let split = self.batch_split();
        for layer in &self.layers[..split] {
            if cancel() {
                return None;
            }
            let [c, n, h, w] = shape;
            match layer {
                Layer::Conv2d(l) => {
                    shape = l.forward_packed_into(&ping[..c * n * h * w], n, h, w, col, pong);
                    std::mem::swap(ping, pong);
                }
                Layer::MaxPool2d(l) => {
                    let (oh, ow) = l.out_hw(h, w);
                    l.pool_planes(
                        &ping[..c * n * h * w],
                        c * n,
                        h,
                        w,
                        layers::ensure_len(pong, c * n * oh * ow),
                    );
                    shape = [c, n, oh, ow];
                    std::mem::swap(ping, pong);
                }
                Layer::Relu => layers::relu_in_place(&mut ping[..c * n * h * w]),
                Layer::Flatten | Layer::Dense(_) => {
                    unreachable!("rows layer inside the packed prefix")
                }
            }
        }
        let [c, n, h, w] = shape;
        let mut dim = c * h * w;
        rows_from_packed(
            &ping[..n * dim],
            c,
            n,
            h * w,
            layers::ensure_len(pong, n * dim),
        );
        std::mem::swap(ping, pong);
        for layer in &self.layers[split..] {
            if cancel() {
                return None;
            }
            match layer {
                Layer::Dense(l) => {
                    l.forward_rows_into(&ping[..n * dim], n, pong);
                    std::mem::swap(ping, pong);
                    dim = l.out_dim;
                }
                Layer::Relu => layers::relu_in_place(&mut ping[..n * dim]),
                Layer::Flatten => {}
                other => panic!(
                    "image layer {} after the flatten boundary",
                    other.describe()
                ),
            }
        }
        Some(dim)
    }

    /// Forward pass that keeps each layer's input for backprop.
    /// Returns (per-layer inputs, final output).
    pub fn forward_cached(&self, x: &Tensor) -> (Vec<Tensor>, Tensor) {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for l in &self.layers {
            let next = l.forward(&cur);
            inputs.push(cur);
            cur = next;
        }
        (inputs, cur)
    }

    /// Backward pass. `inputs` must come from [`Self::forward_cached`].
    /// Returns (gradient w.r.t. the stack input, per-layer parameter
    /// gradients).
    pub fn backward(&self, inputs: &[Tensor], gout: &Tensor) -> (Tensor, SeqGrads) {
        debug_assert_eq!(inputs.len(), self.layers.len());
        let mut grads: SeqGrads = vec![Vec::new(); self.layers.len()];
        let mut g = gout.clone();
        for (i, l) in self.layers.iter().enumerate().rev() {
            let (gin, gparams) = l.backward(&inputs[i], &g);
            grads[i] = gparams;
            g = gin;
        }
        (g, grads)
    }

    /// Index of the first layer that consumes row matrices (`Flatten`
    /// or `Dense`); everything before it runs on the packed
    /// `[c, n, h, w]` layout.
    fn batch_split(&self) -> usize {
        self.layers
            .iter()
            .position(|l| matches!(l, Layer::Flatten | Layer::Dense(_)))
            .unwrap_or(self.layers.len())
    }

    /// Batched forward pass over the packed `[c, n, h, w]` layout that
    /// keeps every layer's input in `cache` for
    /// [`Self::backward_batch`]. The caller fills the stack input via
    /// [`SeqBatchCache::input_packed`] first. The convolutional prefix
    /// runs packed; at the first `Flatten`/`Dense` the activation is
    /// regathered into an `[n, dim]` row matrix (a boundary `Flatten`
    /// is absorbed into that repack) and the tail runs on rows.
    pub(crate) fn forward_batch_cached_packed(&self, cache: &mut SeqBatchCache) {
        let n = cache.n;
        let split = self.batch_split();
        cache.split = split;
        cache.packed_input = true;
        cache.packed.resize_with(split + 1, Vec::new);
        cache.packed_shapes.resize(split + 1, [0; 4]);
        cache.cols.resize_with(split, Vec::new);
        cache.pool_idx.resize_with(split, Vec::new);
        for li in 0..split {
            let [c, _, h, w] = cache.packed_shapes[li];
            let (done, rest) = cache.packed.split_at_mut(li + 1);
            let x = &done[li][..c * n * h * w];
            let out = &mut rest[0];
            cache.packed_shapes[li + 1] = match &self.layers[li] {
                // The im2col lowering lands in the cache so the
                // backward pass can reuse it for the weight-gradient
                // GEMM without re-lowering the activations.
                Layer::Conv2d(l) => l.forward_packed_into(x, n, h, w, &mut cache.cols[li], out),
                // Pooling records each window's argmax so the backward
                // pass scatters instead of rescanning the windows.
                Layer::MaxPool2d(l) => {
                    let (oh, ow) = l.out_hw(h, w);
                    let od = layers::ensure_len(out, c * n * oh * ow);
                    let idx = layers::ensure_len(&mut cache.pool_idx[li], c * n * oh * ow);
                    l.pool_planes_indexed(x, c * n, h, w, od, idx);
                    [c, n, oh, ow]
                }
                Layer::Relu => {
                    let od = layers::ensure_len(out, c * n * h * w);
                    for (o, &v) in od.iter_mut().zip(x) {
                        *o = if v < 0.0 { 0.0 } else { v };
                    }
                    [c, n, h, w]
                }
                Layer::Flatten | Layer::Dense(_) => {
                    unreachable!("rows layer inside the packed prefix")
                }
            };
        }
        // Repack boundary: gather the last packed activation into
        // `[n, c*h*w]` rows — for a boundary `Flatten` this *is* its
        // batched forward pass, so the walk resumes after it.
        cache.rows_start = split
            + match self.layers.get(split) {
                Some(Layer::Flatten) => 1,
                _ => 0,
            };
        let count = self.layers.len() - cache.rows_start;
        cache.rows.resize_with(count + 1, Vec::new);
        cache.row_dims.resize(count + 1, 0);
        let [c, _, h, w] = cache.packed_shapes[split];
        let chw = c * h * w;
        cache.row_dims[0] = chw;
        rows_from_packed(
            &cache.packed[split][..n * chw],
            c,
            n,
            h * w,
            layers::ensure_len(&mut cache.rows[0], n * chw),
        );
        self.forward_rows_walk(cache);
    }

    /// Batched cached forward pass for a stack that starts on row
    /// matrices (the head). The caller fills the stack input via
    /// [`SeqBatchCache::input_rows`] first.
    pub(crate) fn forward_batch_cached_rows(&self, cache: &mut SeqBatchCache) {
        cache.split = 0;
        cache.rows_start = 0;
        cache.packed_input = false;
        let count = self.layers.len();
        cache.rows.resize_with(count + 1, Vec::new);
        cache.row_dims.resize(count + 1, 0);
        self.forward_rows_walk(cache);
    }

    /// Rows-region forward walk shared by both cached entry points:
    /// `cache.rows[0]` / `cache.row_dims[0]` hold the region's input.
    fn forward_rows_walk(&self, cache: &mut SeqBatchCache) {
        let n = cache.n;
        for (j, layer) in self.layers[cache.rows_start..].iter().enumerate() {
            let dim = cache.row_dims[j];
            let (done, rest) = cache.rows.split_at_mut(j + 1);
            let x = &done[j][..n * dim];
            let out = &mut rest[0];
            cache.row_dims[j + 1] = match layer {
                Layer::Dense(l) => {
                    l.forward_rows_into(x, n, out);
                    l.out_dim
                }
                Layer::Relu => {
                    let od = layers::ensure_len(out, n * dim);
                    for (o, &v) in od.iter_mut().zip(x) {
                        *o = if v < 0.0 { 0.0 } else { v };
                    }
                    dim
                }
                Layer::Flatten => {
                    layers::ensure_len(out, n * dim).copy_from_slice(x);
                    dim
                }
                other => panic!(
                    "image layer {} after the flatten boundary",
                    other.describe()
                ),
            };
        }
    }

    /// Batched backward pass from the gradient on the stack's output
    /// rows. Every parameter gradient is computed by a single GEMM with
    /// the batch reduction fused into its inner dimension, ping-ponging
    /// the activation gradient through the recycled scratch buffers;
    /// `grads` (shaped by [`Self::zero_grads`]) is overwritten with the
    /// batch-*summed* gradients. `gin_rows`, honoured only for
    /// rows-input stacks, receives the gradient w.r.t. the stack input;
    /// packed-input stacks skip the first layer's input gradient
    /// entirely — nothing consumes it.
    pub(crate) fn backward_batch(
        &self,
        cache: &SeqBatchCache,
        gout: &[f32],
        grads: &mut SeqGrads,
        gin_rows: Option<&mut Vec<f32>>,
    ) {
        let n = cache.n;
        debug_assert_eq!(grads.len(), self.layers.len());
        let out_dim = *cache.row_dims.last().expect("cache holds a forward pass");
        assert_eq!(gout.len(), n * out_dim, "output-gradient shape mismatch");
        gemm::with_scratch(|s| {
            let mut ping = std::mem::take(&mut s.ping);
            let mut pong = std::mem::take(&mut s.pong);
            layers::ensure_len(&mut ping, n * out_dim).copy_from_slice(gout);
            let want_rows_gin = gin_rows.is_some();
            let rows_count = self.layers.len() - cache.rows_start;
            for j in (0..rows_count).rev() {
                let li = cache.rows_start + j;
                let dim_in = cache.row_dims[j];
                let x = &cache.rows[j][..n * dim_in];
                match &self.layers[li] {
                    Layer::Dense(l) => {
                        let [gw, gb] = &mut grads[li][..] else {
                            panic!("Dense gradient slot holds [gw, gb]")
                        };
                        let need_gin = j > 0 || cache.packed_input || want_rows_gin;
                        l.backward_rows_into(
                            x,
                            n,
                            &ping[..n * l.out_dim],
                            need_gin.then_some(&mut pong),
                            gw,
                            gb,
                        );
                        if need_gin {
                            std::mem::swap(&mut ping, &mut pong);
                        }
                    }
                    Layer::Relu => {
                        for (g, &v) in ping[..n * dim_in].iter_mut().zip(x) {
                            *g = if v <= 0.0 { 0.0 } else { *g };
                        }
                    }
                    Layer::Flatten => {}
                    other => panic!(
                        "image layer {} after the flatten boundary",
                        other.describe()
                    ),
                }
            }
            if cache.packed_input {
                // Boundary: scatter the row gradient back into the
                // packed layout (the adjoint of the forward gather).
                let [c, _, h, w] = cache.packed_shapes[cache.split];
                let (hw, chw) = (h * w, c * h * w);
                {
                    let src = &ping[..n * chw];
                    let dst = layers::ensure_len(&mut pong, c * n * hw);
                    for si in 0..n {
                        for ic in 0..c {
                            dst[(ic * n + si) * hw..][..hw]
                                .copy_from_slice(&src[si * chw + ic * hw..][..hw]);
                        }
                    }
                }
                std::mem::swap(&mut ping, &mut pong);
                // Set when a pool's scatter already applied the gate of
                // the ReLU directly below it (see `unpool_indexed_gated`).
                let mut relu_gated = false;
                for li in (0..cache.split).rev() {
                    let [c, _, h, w] = cache.packed_shapes[li];
                    let [c2, _, oh, ow] = cache.packed_shapes[li + 1];
                    let x = &cache.packed[li][..c * n * h * w];
                    match &self.layers[li] {
                        Layer::Conv2d(l) => {
                            let [gw, gb] = &mut grads[li][..] else {
                                panic!("Conv2d gradient slot holds [gw, gb]")
                            };
                            // The stack input's gradient has no
                            // consumer — the first conv skips its input
                            // GEMM and col2im scatter entirely.
                            let need_gin = li > 0;
                            l.backward_packed_into(
                                n,
                                h,
                                w,
                                &ping[..c2 * n * oh * ow],
                                &cache.cols[li],
                                &mut s.aux,
                                need_gin.then_some(&mut pong),
                                gw,
                                gb,
                            );
                            if need_gin {
                                std::mem::swap(&mut ping, &mut pong);
                            }
                        }
                        Layer::MaxPool2d(l) => {
                            // Pure scatter onto the argmax indices the
                            // forward pass recorded — no window rescan.
                            // When a ReLU feeds this pool, its gate is
                            // folded into the scatter.
                            let god = &ping[..c2 * n * oh * ow];
                            let pidx = &cache.pool_idx[li][..c2 * n * oh * ow];
                            let gind = layers::ensure_len(&mut pong, c * n * h * w);
                            if li > 0 && matches!(self.layers[li - 1], Layer::Relu) {
                                let pooled = &cache.packed[li + 1][..c2 * n * oh * ow];
                                l.unpool_indexed_gated(god, pidx, pooled, gind);
                                relu_gated = true;
                            } else {
                                l.unpool_indexed(god, pidx, gind);
                            }
                            std::mem::swap(&mut ping, &mut pong);
                        }
                        Layer::Relu => {
                            if relu_gated {
                                // The pool above already gated the
                                // scattered gradient; the pass here
                                // would be a no-op.
                                relu_gated = false;
                            } else {
                                for (g, &v) in ping[..c * n * h * w].iter_mut().zip(x) {
                                    *g = if v <= 0.0 { 0.0 } else { *g };
                                }
                            }
                        }
                        Layer::Flatten | Layer::Dense(_) => {
                            unreachable!("rows layer inside the packed prefix")
                        }
                    }
                }
            } else if let Some(gin) = gin_rows {
                let dim0 = cache.row_dims[0];
                layers::ensure_len(gin, n * dim0).copy_from_slice(&ping[..n * dim0]);
            }
            s.ping = ping;
            s.pong = pong;
        });
    }

    /// Output shape for a given input shape.
    pub fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let mut s = in_shape.to_vec();
        for l in &self.layers {
            s = l.out_shape(&s);
        }
        s
    }

    /// Zero gradients shaped like this stack's parameters.
    pub fn zero_grads(&self) -> SeqGrads {
        self.layers
            .iter()
            .map(|l| {
                l.params()
                    .iter()
                    .map(|p| Tensor::zeros(p.shape()))
                    .collect()
            })
            .collect()
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(|p| p.len())
            .sum()
    }
}

/// Activation caches of one batched forward pass through a
/// [`Sequential`], consumed by `Sequential::backward_batch`.
///
/// Layers `[0, split)` ran on the packed `[c, n, h, w]` layout:
/// `packed[i]` holds layer `i`'s input and `packed[split]` the last
/// packed activation. Layers `[rows_start, len)` ran on `[n, dim]` row
/// matrices: `rows[j]` holds layer `rows_start + j`'s input and the
/// last entry the stack output (`rows_start` is `split`, or `split + 1`
/// when the boundary `Flatten` was absorbed into the repack). All
/// buffers grow and are never shrunk; only the extents named by
/// `packed_shapes` / `row_dims` for the cached batch size `n` are
/// meaningful, so re-running a pass reuses every allocation.
#[derive(Debug, Clone, Default)]
pub struct SeqBatchCache {
    n: usize,
    split: usize,
    rows_start: usize,
    packed_input: bool,
    packed: Vec<Vec<f32>>,
    packed_shapes: Vec<[usize; 4]>,
    /// Per-layer im2col lowerings from the forward pass (filled only at
    /// `Conv2d` indices); the backward weight-gradient GEMM reuses them
    /// instead of re-lowering the activations.
    cols: Vec<Vec<f32>>,
    /// Per-layer pooling argmax indices from the forward pass (filled
    /// only at `MaxPool2d` indices); backward scatters onto them.
    pool_idx: Vec<Vec<u32>>,
    rows: Vec<Vec<f32>>,
    row_dims: Vec<usize>,
}

impl SeqBatchCache {
    /// Declares a packed `[c, n, h, w]` stack input and returns its
    /// buffer for the caller to fill.
    fn input_packed(&mut self, shape: [usize; 4]) -> &mut [f32] {
        self.n = shape[1];
        if self.packed.is_empty() {
            self.packed.push(Vec::new());
        }
        if self.packed_shapes.is_empty() {
            self.packed_shapes.push([0; 4]);
        }
        self.packed_shapes[0] = shape;
        layers::ensure_len(&mut self.packed[0], shape.iter().product())
    }

    /// Declares an `[n, dim]` rows stack input and returns its buffer
    /// for the caller to fill.
    fn input_rows(&mut self, n: usize, dim: usize) -> &mut [f32] {
        self.n = n;
        if self.rows.is_empty() {
            self.rows.push(Vec::new());
        }
        if self.row_dims.is_empty() {
            self.row_dims.push(0);
        }
        self.row_dims[0] = dim;
        layers::ensure_len(&mut self.rows[0], n * dim)
    }

    /// Stack output of the cached pass as `[n, dim]` rows.
    pub fn out_rows(&self) -> (&[f32], usize) {
        let dim = *self.row_dims.last().expect("cache holds a forward pass");
        let last = self.rows.last().expect("cache holds a forward pass");
        (&last[..self.n * dim], dim)
    }
}

/// The paper's CNN: convolutional towers plus a fully-connected head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cnn {
    /// Feature-extraction towers (one per channel when late-merging,
    /// exactly one when early-merging).
    pub towers: Vec<Sequential>,
    /// Classification head operating on the concatenated tower outputs.
    pub head: Sequential,
    /// Expected per-channel input shape `[h, w]`.
    pub channel_shape: (usize, usize),
    /// Number of input channels the network consumes.
    pub num_channels: usize,
}

/// Activation caches of one forward pass, consumed by backprop.
#[derive(Debug, Clone)]
pub struct CnnCache {
    tower_inputs: Vec<Tensor>,
    tower_layer_inputs: Vec<Vec<Tensor>>,
    tower_out_lens: Vec<usize>,
    head_layer_inputs: Vec<Tensor>,
    /// Network output (logits).
    pub logits: Tensor,
}

/// Activation caches and gradient scratch of one batched training
/// step through a [`Cnn`], reused across steps by
/// [`crate::train::train`] so the whole loop runs allocation-free in
/// steady state.
#[derive(Debug, Clone, Default)]
pub struct CnnBatchCache {
    towers: Vec<SeqBatchCache>,
    head: SeqBatchCache,
    tower_feat: Vec<usize>,
    n: usize,
    /// Head-input gradient rows, split per tower during backward.
    gmerged: Vec<f32>,
    /// One tower's output-gradient rows (columns gathered out of
    /// `gmerged`).
    gtower: Vec<f32>,
}

impl CnnBatchCache {
    /// Logits of the cached pass as `[n, classes]` rows.
    pub fn logits_rows(&self) -> (&[f32], usize) {
        self.head.out_rows()
    }

    /// Batch size of the cached pass.
    pub fn batch_len(&self) -> usize {
        self.n
    }
}

/// Parameter gradients of a whole [`Cnn`].
#[derive(Debug, Clone, PartialEq)]
pub struct CnnGrads {
    /// Per-tower stacks of per-layer gradients.
    pub towers: Vec<SeqGrads>,
    /// Head gradients.
    pub head: SeqGrads,
}

impl CnnGrads {
    /// `self += other`.
    pub fn add_assign(&mut self, other: &CnnGrads) {
        for (a, b) in self.towers.iter_mut().zip(&other.towers) {
            add_seq(a, b);
        }
        add_seq(&mut self.head, &other.head);
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for t in &mut self.towers {
            for l in t {
                for p in l {
                    p.scale(alpha);
                }
            }
        }
        for l in &mut self.head {
            for p in l {
                p.scale(alpha);
            }
        }
    }

    /// Zeroes every gradient tensor in place (shape-preserving), so
    /// the buffer can be reused as a fresh accumulator.
    pub fn clear(&mut self) {
        for t in &mut self.towers {
            clear_seq(t);
        }
        clear_seq(&mut self.head);
    }

    /// Global L2 norm over every gradient tensor, accumulated in f64.
    ///
    /// Non-finite gradients propagate: any NaN yields NaN, any ±Inf
    /// yields +Inf — so a single `!norm.is_finite()` check covers the
    /// divergence guard's whole "poisoned gradient" class.
    pub fn global_norm(&self) -> f64 {
        let mut acc = 0.0f64;
        for t in self.flat() {
            for &v in t.data() {
                let v = v as f64;
                acc += v * v;
            }
        }
        acc.sqrt()
    }

    /// Flat view of every gradient tensor, tower layers first then head
    /// (the order [`Cnn::params_mut_flat`] uses).
    pub fn flat(&self) -> Vec<&Tensor> {
        let mut out = Vec::new();
        for t in &self.towers {
            for l in t {
                out.extend(l.iter());
            }
        }
        for l in &self.head {
            out.extend(l.iter());
        }
        out
    }
}

fn add_seq(a: &mut SeqGrads, b: &SeqGrads) {
    for (la, lb) in a.iter_mut().zip(b) {
        for (pa, pb) in la.iter_mut().zip(lb) {
            pa.add_assign(pb);
        }
    }
}

fn clear_seq(g: &mut SeqGrads) {
    for l in g {
        for p in l {
            p.data_mut().fill(0.0);
        }
    }
}

impl Cnn {
    /// Maps a sample's `[h, w]` channels to tower inputs: one `[1, h, w]`
    /// tensor per tower (late merging) or a single stacked `[c, h, w]`
    /// tensor (early merging).
    fn tower_inputs(&self, channels: &[Tensor]) -> Vec<Tensor> {
        let (h, w) = self.channel_shape;
        if self.per_tower_channels(&[channels]) == 1 {
            channels
                .iter()
                .map(|c| c.clone().reshape(&[1, h, w]))
                .collect()
        } else {
            let refs: Vec<&Tensor> = channels.iter().collect();
            vec![Tensor::stack_channels(&refs)]
        }
    }

    /// Checks a batch's channel counts and shapes against the network
    /// and returns how many channels each tower consumes: all of them
    /// stacked (early merging, one tower) or one each (late merging).
    fn per_tower_channels(&self, batch: &[&[Tensor]]) -> usize {
        let (h, w) = self.channel_shape;
        let early = self.towers.len() == 1;
        assert!(
            early || self.towers.len() == self.num_channels,
            "{} towers cannot consume {} channels",
            self.towers.len(),
            self.num_channels
        );
        for ch in batch {
            assert_eq!(
                ch.len(),
                self.num_channels,
                "sample has {} channels, network expects {}",
                ch.len(),
                self.num_channels
            );
            for c in ch.iter() {
                assert_eq!(c.shape(), &[h, w], "channel shape mismatch");
            }
        }
        if early {
            self.num_channels
        } else {
            1
        }
    }

    /// Packs tower `ti`'s `[c, n, h, w]` input straight from the
    /// samples' `[h, w]` channel tensors into `dst`: every channel for
    /// the one early-merging tower, channel `ti` for a late-merging one.
    fn pack_tower_input(&self, batch: &[&[Tensor]], ti: usize, dst: &mut [f32]) {
        let n = batch.len();
        let hw = self.channel_shape.0 * self.channel_shape.1;
        for (si, ch) in batch.iter().enumerate() {
            let own = if self.towers.len() == 1 {
                ch
            } else {
                &ch[ti..=ti]
            };
            for (ic, src) in own.iter().enumerate() {
                dst[(ic * n + si) * hw..][..hw].copy_from_slice(src.data());
            }
        }
    }

    /// Forward pass returning raw logits: a batch of one through
    /// [`Cnn::forward_batch_until`].
    pub fn forward(&self, channels: &[Tensor]) -> Tensor {
        self.forward_batch(&[channels])
            .pop()
            .expect("one sample in, one logits tensor out")
    }

    /// [`Cnn::forward_batch_until`] without a deadline.
    pub fn forward_batch(&self, batch: &[&[Tensor]]) -> Vec<Tensor> {
        self.forward_batch_until(batch, &|| false)
            .expect("never cancelled")
    }

    /// The inference pass: many samples' channel sets in, one logits
    /// tensor per sample out. Samples are packed so every convolution
    /// and dense layer runs a single GEMM per tower (or head) for the
    /// whole batch — this is the path behind [`crate::train::evaluate`],
    /// the selector's prediction and the serving layer, where a single
    /// request is a batch of one. Each tower ends on `[n, feat]` rows,
    /// the rows merge into the head's input and the head runs on rows,
    /// exactly as in [`Self::forward_batch_cached`], so both compute
    /// bit-identical logits; they are split into per-sample tensors only
    /// on the way out. `cancel` is polled between tower layers and head
    /// layers (see [`Sequential::forward_batch_until`]): `None` once it
    /// reports `true`. A serving layer folds several
    /// requests' deadlines into one predicate (typically "all members
    /// expired"), so the whole batch is abandoned only when nobody is
    /// left waiting.
    pub fn forward_batch_until(
        &self,
        batch: &[&[Tensor]],
        cancel: &dyn Fn() -> bool,
    ) -> Option<Vec<Tensor>> {
        if batch.is_empty() {
            return Some(Vec::new());
        }
        let n = batch.len();
        let (h, w) = self.channel_shape;
        let per_tower_c = self.per_tower_channels(batch);
        let mut feats = Vec::with_capacity(self.towers.len());
        for (ti, tower) in self.towers.iter().enumerate() {
            feats.push(tower.forward_packed_until(
                [per_tower_c, n, h, w],
                &|dst| self.pack_tower_input(batch, ti, dst),
                cancel,
            )?);
        }
        let feat_total = feats.iter().map(|(_, dim)| dim).sum();
        let (logits, classes) = self.head.forward_packed_until(
            [1, n, 1, feat_total],
            &|dst| {
                let towers = feats.iter().map(|(rows, dim)| (&rows[..], *dim));
                merge_rows(towers, n, feat_total, dst)
            },
            cancel,
        )?;
        Some(split_rows(&logits, n, classes))
    }

    /// Batched argmax predictions, parallel to `batch`.
    pub fn predict_batch(&self, batch: &[&[Tensor]]) -> Vec<usize> {
        self.forward_batch(batch)
            .iter()
            .map(|logits| argmax(logits.data()))
            .collect()
    }

    /// Batched forward pass that keeps every layer's input in `cache`
    /// for [`Self::backward_batch`] — the forward half of the batched
    /// training step. Tower inputs are packed straight from the
    /// samples' channel tensors into each tower's `[c, n, h, w]` input
    /// buffer, tower output rows are gathered into the head's merged
    /// `[n, feat_total]` input, and the cached logits come back through
    /// [`CnnBatchCache::logits_rows`].
    pub fn forward_batch_cached(&self, batch: &[&[Tensor]], cache: &mut CnnBatchCache) {
        let n = batch.len();
        assert!(n > 0, "batched training needs at least one sample");
        let (h, w) = self.channel_shape;
        let per_tower_c = self.per_tower_channels(batch);
        cache.n = n;
        cache
            .towers
            .resize_with(self.towers.len(), Default::default);
        for (ti, (tower, tc)) in self.towers.iter().zip(&mut cache.towers).enumerate() {
            let dst = tc.input_packed([per_tower_c, n, h, w]);
            self.pack_tower_input(batch, ti, dst);
            tower.forward_batch_cached_packed(tc);
        }
        cache.tower_feat.clear();
        for tc in &cache.towers {
            cache.tower_feat.push(tc.out_rows().1);
        }
        let feat_total: usize = cache.tower_feat.iter().sum();
        merge_rows(
            cache.towers.iter().map(SeqBatchCache::out_rows),
            n,
            feat_total,
            cache.head.input_rows(n, feat_total),
        );
        self.head.forward_batch_cached_rows(&mut cache.head);
    }

    /// Batched backward pass from the gradient on the cached logits
    /// rows (`[n, classes]`, e.g. the output of
    /// [`crate::loss::softmax_cross_entropy_batch`]). Overwrites
    /// `grads` (shaped by [`Self::zero_grads`]) with the batch-summed
    /// parameter gradients: one weight-gradient GEMM per layer with the
    /// batch reduction fused into its inner dimension, no per-sample
    /// gradient sets. With `freeze_towers` the tower gradients are
    /// zeroed and their backward walks — and the head-input gradient
    /// feeding them — are skipped entirely.
    pub fn backward_batch(
        &self,
        cache: &mut CnnBatchCache,
        glogits: &[f32],
        freeze_towers: bool,
        grads: &mut CnnGrads,
    ) {
        let n = cache.n;
        let CnnBatchCache {
            towers: tcs,
            head,
            tower_feat,
            gmerged,
            gtower,
            ..
        } = cache;
        let gin = (!freeze_towers).then_some(&mut *gmerged);
        self.head
            .backward_batch(head, glogits, &mut grads.head, gin);
        if freeze_towers {
            for t in &mut grads.towers {
                clear_seq(t);
            }
            return;
        }
        let feat_total: usize = tower_feat.iter().sum();
        let mut off = 0usize;
        for ((tower, tc), (tg, &feat)) in self
            .towers
            .iter()
            .zip(tcs.iter())
            .zip(grads.towers.iter_mut().zip(tower_feat.iter()))
        {
            let g = layers::ensure_len(gtower, n * feat);
            for si in 0..n {
                g[si * feat..][..feat].copy_from_slice(&gmerged[si * feat_total + off..][..feat]);
            }
            tower.backward_batch(tc, &gtower[..n * feat], tg, None);
            off += feat;
        }
    }

    /// Forward pass with activation caching for backprop.
    pub fn forward_cached(&self, channels: &[Tensor]) -> CnnCache {
        let tower_inputs = self.tower_inputs(channels);
        let mut tower_layer_inputs = Vec::with_capacity(self.towers.len());
        let mut feats = Vec::with_capacity(self.towers.len());
        for (t, x) in self.towers.iter().zip(&tower_inputs) {
            let (inputs, out) = t.forward_cached(x);
            tower_layer_inputs.push(inputs);
            feats.push(out);
        }
        let tower_out_lens: Vec<usize> = feats.iter().map(|f| f.len()).collect();
        let refs: Vec<&Tensor> = feats.iter().collect();
        let merged = Tensor::concat_flat(&refs);
        let (head_layer_inputs, logits) = self.head.forward_cached(&merged);
        CnnCache {
            tower_inputs,
            tower_layer_inputs,
            tower_out_lens,
            head_layer_inputs,
            logits,
        }
    }

    /// Backward pass from a loss gradient on the logits.
    pub fn backward(&self, cache: &CnnCache, grad_logits: &Tensor) -> CnnGrads {
        let (gmerged, head_grads) = self.head.backward(&cache.head_layer_inputs, grad_logits);
        // Split the merged-feature gradient back into tower pieces.
        let mut tower_grads = Vec::with_capacity(self.towers.len());
        let mut offset = 0usize;
        for (i, t) in self.towers.iter().enumerate() {
            let len = cache.tower_out_lens[i];
            let piece = Tensor::from_vec(&[len], gmerged.data()[offset..offset + len].to_vec());
            offset += len;
            let (_gin, grads) = t.backward(&cache.tower_layer_inputs[i], &piece);
            let _ = &cache.tower_inputs; // inputs live in layer_inputs[0]
            tower_grads.push(grads);
        }
        CnnGrads {
            towers: tower_grads,
            head: head_grads,
        }
    }

    /// Zero gradients shaped like this network.
    pub fn zero_grads(&self) -> CnnGrads {
        CnnGrads {
            towers: self.towers.iter().map(|t| t.zero_grads()).collect(),
            head: self.head.zero_grads(),
        }
    }

    /// Flat mutable parameter list (tower layers first, then head),
    /// each tagged with whether it belongs to a tower. Order matches
    /// [`CnnGrads::flat`].
    pub fn params_mut_flat(&mut self) -> Vec<(&mut Tensor, bool)> {
        let mut out = Vec::new();
        for t in &mut self.towers {
            for l in &mut t.layers {
                out.extend(l.params_mut().into_iter().map(|p| (p, true)));
            }
        }
        for l in &mut self.head.layers {
            out.extend(l.params_mut().into_iter().map(|p| (p, false)));
        }
        out
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.towers
            .iter()
            .map(Sequential::num_params)
            .sum::<usize>()
            + self.head.num_params()
    }

    /// Multiply-accumulates of a batch-`n` forward: each convolution
    /// contributes `oh·ow·out_ch·in_ch·k²` per sample and each dense
    /// layer `in·out`. Pooling, ReLU and bias adds are not counted.
    ///
    /// # Panics
    /// Panics on a layer chain that [`Self::validate`] rejects.
    pub fn macs(&self, n: usize) -> u64 {
        fn stack(layers: &[Layer], mut shape: Vec<usize>) -> (u64, Vec<usize>) {
            let mut macs = 0u64;
            for layer in layers {
                let out = layer.out_shape(&shape);
                macs += match layer {
                    Layer::Conv2d(c) => {
                        (out.iter().product::<usize>() * c.in_ch * c.ksize * c.ksize) as u64
                    }
                    Layer::Dense(d) => (d.in_dim * d.out_dim) as u64,
                    _ => 0,
                };
                shape = out;
            }
            (macs, shape)
        }
        let (h, w) = self.channel_shape;
        let per_tower_c = if self.towers.len() == 1 {
            self.num_channels
        } else {
            1
        };
        let (mut macs, mut feat) = (0u64, 0usize);
        for tower in &self.towers {
            let (m, shape) = stack(&tower.layers, vec![per_tower_c, h, w]);
            macs += m;
            feat += shape.iter().product::<usize>();
        }
        macs += stack(&self.head.layers, vec![feat]).0;
        macs * n as u64
    }

    /// Predicted class (argmax of the logits).
    pub fn predict(&self, channels: &[Tensor]) -> usize {
        let logits = self.forward(channels);
        argmax(logits.data())
    }

    /// Number of classes this network emits (the width of its output
    /// vector), or `None` if the layer chain is malformed.
    pub fn out_dim(&self) -> Option<usize> {
        let shape = self.validated_out_shape().ok()?;
        match shape.as_slice() {
            [d] => Some(*d),
            _ => None,
        }
    }

    /// Structural validation for deserialised networks.
    ///
    /// The forward paths assert their invariants (channel counts, tensor
    /// shapes, layer ordering) with panics — fine for networks built by
    /// [`crate::structures::build_cnn`], fatal for networks read from
    /// disk. This walks every invariant those asserts rely on and
    /// reports the first violation as `Err`, so the checkpoint and
    /// selector loaders can reject a corrupted or hand-mangled file up
    /// front and inference never panics on artefact contents.
    pub fn validate(&self) -> Result<(), String> {
        self.validated_out_shape().map(|_| ())
    }

    /// Shared walk behind [`Self::validate`] / [`Self::out_dim`]:
    /// checks every parameter tensor and propagates shapes through the
    /// towers and head, returning the head's output shape.
    fn validated_out_shape(&self) -> Result<Vec<usize>, String> {
        let (h, w) = self.channel_shape;
        if h == 0 || w == 0 {
            return Err(format!("channel shape {h}x{w} has a zero extent"));
        }
        if self.num_channels == 0 {
            return Err("network declares zero input channels".into());
        }
        let per_tower_c = if self.towers.len() == 1 {
            self.num_channels
        } else if self.towers.len() == self.num_channels {
            1
        } else {
            return Err(format!(
                "{} towers cannot consume {} channels",
                self.towers.len(),
                self.num_channels
            ));
        };
        let mut feat_total = 0usize;
        for (ti, tower) in self.towers.iter().enumerate() {
            let mut shape = vec![per_tower_c, h, w];
            for (li, layer) in tower.layers.iter().enumerate() {
                layer
                    .validate_params()
                    .map_err(|e| format!("tower {ti} layer {li}: {e}"))?;
                shape = layer
                    .try_out_shape(&shape)
                    .map_err(|e| format!("tower {ti} layer {li}: {e}"))?;
            }
            // The merge flattens each tower's output; any shape concats.
            feat_total += shape.iter().product::<usize>();
        }
        let mut shape = vec![feat_total];
        for (li, layer) in self.head.layers.iter().enumerate() {
            layer
                .validate_params()
                .map_err(|e| format!("head layer {li}: {e}"))?;
            if matches!(layer, Layer::Conv2d(_) | Layer::MaxPool2d(_)) {
                return Err(format!(
                    "head layer {li}: image layer {} after the flatten boundary",
                    layer.describe()
                ));
            }
            shape = layer
                .try_out_shape(&shape)
                .map_err(|e| format!("head layer {li}: {e}"))?;
        }
        match shape.as_slice() {
            [d] if *d > 0 => Ok(shape),
            _ => Err(format!("head output shape {shape:?} is not a class vector")),
        }
    }
}

/// Gathers a packed `[c, n, h, w]` batch (`hw = h * w`) into `[n, c·h·w]`
/// rows, sample `si`'s channels back to back in row `si`: the boundary
/// between the two layouts, for the inference walk and the cached
/// training pass alike (`Sequential::backward_batch` scatters back
/// through its adjoint).
fn rows_from_packed(src: &[f32], c: usize, n: usize, hw: usize, dst: &mut [f32]) {
    let chw = c * hw;
    for si in 0..n {
        for ic in 0..c {
            dst[si * chw + ic * hw..][..hw].copy_from_slice(&src[(ic * n + si) * hw..][..hw]);
        }
    }
}

/// Writes the towers' `[n, dim]` output rows side by side into the
/// head's `[n, feat_total]` input rows, for inference and the cached
/// training pass alike.
fn merge_rows<'a>(
    towers: impl IntoIterator<Item = (&'a [f32], usize)>,
    n: usize,
    feat_total: usize,
    merged: &mut [f32],
) {
    let mut off = 0;
    for (src, dim) in towers {
        for si in 0..n {
            merged[si * feat_total + off..][..dim].copy_from_slice(&src[si * dim..][..dim]);
        }
        off += dim;
    }
    debug_assert_eq!(off, feat_total);
}

/// Splits `[n, dim]` rows into `n` per-sample `[dim]` tensors: the
/// public boundary of the inference walk.
fn split_rows(rows: &[f32], n: usize, dim: usize) -> Vec<Tensor> {
    (0..n)
        .map(|si| Tensor::from_vec(&[dim], rows[si * dim..][..dim].to_vec()))
        .collect()
}

/// Index of the largest element (first wins ties).
pub fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, MaxPool2d};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cnn(towers: usize, channels: usize, seed: u64) -> Cnn {
        let mut rng = StdRng::seed_from_u64(seed);
        let in_ch = if towers == 1 { channels } else { 1 };
        let make_tower = |rng: &mut StdRng| {
            Sequential::new(vec![
                Layer::Conv2d(Conv2d::new(in_ch, 4, 3, 1, rng)),
                Layer::Relu,
                Layer::MaxPool2d(MaxPool2d { size: 2 }),
                Layer::Flatten,
            ])
        };
        let tower_list: Vec<Sequential> = (0..towers).map(|_| make_tower(&mut rng)).collect();
        let feat: usize = tower_list
            .iter()
            .map(|t| t.out_shape(&[in_ch, 8, 8]).iter().product::<usize>())
            .sum();
        let head = Sequential::new(vec![
            Layer::Dense(Dense::new(feat, 8, &mut rng)),
            Layer::Relu,
            Layer::Dense(Dense::new(8, 3, &mut rng)),
        ]);
        Cnn {
            towers: tower_list,
            head,
            channel_shape: (8, 8),
            num_channels: channels,
        }
    }

    fn sample_channels(channels: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand_distr::{Distribution, Normal};
        let d = Normal::new(0.0, 1.0).unwrap();
        (0..channels)
            .map(|_| {
                Tensor::from_vec(
                    &[8, 8],
                    (0..64).map(|_| d.sample(&mut rng) as f32).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn late_merge_forward_produces_logits() {
        let net = tiny_cnn(2, 2, 1);
        let logits = net.forward(&sample_channels(2, 9));
        assert_eq!(logits.shape(), &[3]);
    }

    #[test]
    fn cancellable_forward_matches_plain_and_aborts() {
        use std::cell::Cell;
        let net = tiny_cnn(2, 2, 1);
        let x = sample_channels(2, 9);
        // Uncancelled: bit-identical to the plain pass.
        let got = net.forward_batch_until(&[&x], &|| false).unwrap();
        assert_eq!(got[0].data(), net.forward(&x).data());
        // Cancelled immediately: no output.
        assert!(net.forward_batch_until(&[&x], &|| true).is_none());
        // Cancelled mid-pass: the checkpoint fires between layers.
        let polls = Cell::new(0u32);
        let cancel_late = || {
            polls.set(polls.get() + 1);
            polls.get() > 3
        };
        assert!(net.forward_batch_until(&[&x], &cancel_late).is_none());
        assert!(polls.get() >= 4);
    }

    #[test]
    fn early_merge_forward_produces_logits() {
        let net = tiny_cnn(1, 2, 2);
        let logits = net.forward(&sample_channels(2, 9));
        assert_eq!(logits.shape(), &[3]);
    }

    #[test]
    fn batched_forward_matches_single_samples() {
        for (towers, channels, seed) in [(2usize, 2usize, 21u64), (1, 2, 22)] {
            let net = tiny_cnn(towers, channels, seed);
            let samples: Vec<Vec<Tensor>> =
                (0..5).map(|i| sample_channels(channels, 100 + i)).collect();
            // The per-sample cached pass is the reference; a batch of
            // one runs the same packed walk as a batch of five.
            for n in [1, 5] {
                let refs: Vec<&[Tensor]> = samples[..n].iter().map(|s| s.as_slice()).collect();
                let batched = net.forward_batch(&refs);
                assert_eq!(batched.len(), n);
                for (s, got) in samples.iter().zip(&batched) {
                    let want = net.forward_cached(s).logits;
                    assert_eq!(got.shape(), want.shape());
                    for (g, w) in got.data().iter().zip(want.data()) {
                        assert!((g - w).abs() <= 1e-4 * (1.0 + w.abs()), "{g} vs {w}");
                    }
                }
                let preds = net.predict_batch(&refs);
                assert_eq!(preds.len(), n);
            }
            assert!(net.forward_batch(&[]).is_empty());
        }
    }

    #[test]
    fn cancellable_batched_forward_matches_plain_and_aborts() {
        use std::cell::Cell;
        for (towers, channels, seed) in [(2usize, 2usize, 41u64), (1, 2, 42)] {
            let net = tiny_cnn(towers, channels, seed);
            let samples: Vec<Vec<Tensor>> =
                (0..4).map(|i| sample_channels(channels, 200 + i)).collect();
            let refs: Vec<&[Tensor]> = samples.iter().map(|s| s.as_slice()).collect();
            // Uncancelled: bit-identical to the plain batched pass.
            let got = net.forward_batch_until(&refs, &|| false).unwrap();
            let want = net.forward_batch(&refs);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.data(), w.data());
            }
            // Cancelled immediately: no output.
            assert!(net.forward_batch_until(&refs, &|| true).is_none());
            // Cancelled mid-pass: the checkpoint is polled repeatedly.
            let polls = Cell::new(0u32);
            let cancel_late = || {
                polls.set(polls.get() + 1);
                polls.get() > 2
            };
            assert!(net.forward_batch_until(&refs, &cancel_late).is_none());
            assert!(polls.get() >= 3);
            // An abandoned pass hands its scratch back: the next one
            // still runs to completion.
            assert!(net.forward_batch_until(&refs, &|| false).is_some());
            // Empty batch short-circuits without consulting the hook.
            assert!(net.forward_batch_until(&[], &|| true).unwrap().is_empty());
        }
    }

    #[test]
    fn batched_cached_forward_and_backward_match_per_sample() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (towers, channels, seed) in [(2usize, 2usize, 31u64), (1, 2, 32)] {
            let net = tiny_cnn(towers, channels, seed);
            let samples: Vec<Vec<Tensor>> =
                (0..5).map(|i| sample_channels(channels, 200 + i)).collect();
            for n in [1usize, 5] {
                let batch = &samples[..n];
                let refs: Vec<&[Tensor]> = batch.iter().map(|s| s.as_slice()).collect();
                let mut cache = CnnBatchCache::default();
                net.forward_batch_cached(&refs, &mut cache);
                assert_eq!(cache.batch_len(), n);
                let (logits, classes) = cache.logits_rows();
                assert_eq!(classes, 3);
                // One forward arithmetic: inference computes the training
                // pass's logits bit for bit.
                let inferred = net.forward_batch(&refs);
                assert_eq!(inferred.len(), n);
                for (si, got) in inferred.iter().enumerate() {
                    assert_eq!(bits(got.data()), bits(&logits[si * classes..][..classes]));
                }
                // Batch-summed gradients against the per-sample sum.
                let glogits: Vec<f32> = (0..n * classes).map(|i| (i as f32 * 0.37).sin()).collect();
                let mut want = net.zero_grads();
                for (si, s) in batch.iter().enumerate() {
                    let c = net.forward_cached(s);
                    let gl =
                        Tensor::from_vec(&[classes], glogits[si * classes..][..classes].to_vec());
                    want.add_assign(&net.backward(&c, &gl));
                }
                let mut got = net.zero_grads();
                net.backward_batch(&mut cache, &glogits, false, &mut got);
                for (a, b) in got.flat().iter().zip(want.flat()) {
                    for (x, y) in a.data().iter().zip(b.data()) {
                        assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
                    }
                }
                // Frozen towers: identical head gradients, zeroed tower
                // gradients (their backward walks are skipped).
                let mut frozen = net.zero_grads();
                net.backward_batch(&mut cache, &glogits, true, &mut frozen);
                for (a, b) in frozen.head.iter().flatten().zip(got.head.iter().flatten()) {
                    assert_eq!(a, b, "frozen head gradients must be unchanged");
                }
                assert!(frozen
                    .towers
                    .iter()
                    .flatten()
                    .flatten()
                    .all(|t| t.data().iter().all(|&v| v == 0.0)));
            }
        }
    }

    #[test]
    fn served_geometries_infer_training_logits_and_batch_argmax() {
        use crate::structures::{build_cnn, CnnConfig, Merging};
        use rand::RngExt;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The two models perfbench serves: batch-of-one conv2 and conv3
        // run on narrow GEMMs here, which `tiny_cnn` never produces.
        for (shape, conv_channels, hidden) in [
            ((32usize, 32usize), [8usize, 16, 32], 48usize),
            ((64, 32), [16, 32, 64], 64),
        ] {
            let cfg = CnnConfig {
                conv_channels,
                hidden,
                seed: 51,
            };
            let net = build_cnn(Merging::Late, 2, shape, 4, &cfg);
            let mut rng = StdRng::seed_from_u64(52);
            let samples: Vec<Vec<Tensor>> = (0..8)
                .map(|_| {
                    (0..2)
                        .map(|_| {
                            let vol = shape.0 * shape.1;
                            let v = (0..vol).map(|_| rng.random::<f32>()).collect();
                            Tensor::from_vec(&[shape.0, shape.1], v)
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[Tensor]> = samples.iter().map(|s| s.as_slice()).collect();
            for n in [1usize, 3, 8] {
                let mut cache = CnnBatchCache::default();
                net.forward_batch_cached(&refs[..n], &mut cache);
                let (logits, classes) = cache.logits_rows();
                for (si, got) in net.forward_batch(&refs[..n]).iter().enumerate() {
                    assert_eq!(
                        bits(got.data()),
                        bits(&logits[si * classes..][..classes]),
                        "{shape:?} n={n} sample {si}: inference and training logits differ"
                    );
                }
            }
            let eight = net.predict_batch(&refs);
            for (si, s) in samples.iter().enumerate() {
                assert_eq!(
                    net.predict(s),
                    eight[si],
                    "{shape:?} sample {si}: batch-of-one argmax differs from its row at n = 8"
                );
            }
        }
    }

    #[test]
    fn whole_network_gradcheck() {
        // Finite-difference check through towers, merge and head.
        let mut net = tiny_cnn(2, 2, 4);
        let ch = sample_channels(2, 6);
        let loss_w = [0.3f32, -0.7, 1.1];
        let loss = |n: &Cnn| -> f64 {
            n.forward(&ch)
                .data()
                .iter()
                .zip(&loss_w)
                .map(|(&o, &w)| (o * w) as f64)
                .sum()
        };
        let cache = net.forward_cached(&ch);
        let gl = Tensor::from_vec(&[3], loss_w.to_vec());
        let grads = net.backward(&cache, &gl);
        let flat_grads: Vec<Tensor> = grads.flat().into_iter().cloned().collect();
        let eps = 1e-2f32;
        let n_params = net.params_mut_flat().len();
        assert_eq!(n_params, flat_grads.len());
        // ReLU gates and pool argmaxes can flip under the finite
        // perturbation, making individual numeric derivatives wrong at
        // kinks; require the overwhelming majority to match instead of
        // every single one.
        let mut checked = 0usize;
        let mut mismatched = 0usize;
        for p in 0..n_params {
            let plen = flat_grads[p].len();
            for idx in (0..plen).step_by((plen / 5).max(1)) {
                let orig = {
                    let mut ps = net.params_mut_flat();
                    let v = ps[p].0.data()[idx];
                    ps[p].0.data_mut()[idx] = v + eps;
                    v
                };
                let lp = loss(&net);
                net.params_mut_flat()[p].0.data_mut()[idx] = orig - eps;
                let lm = loss(&net);
                net.params_mut_flat()[p].0.data_mut()[idx] = orig;
                let num = (lp - lm) / (2.0 * eps as f64);
                let ana = flat_grads[p].data()[idx] as f64;
                checked += 1;
                if (num - ana).abs() > 2e-2 * (1.0 + num.abs().max(ana.abs())) {
                    mismatched += 1;
                }
            }
        }
        assert!(checked >= 20, "gradcheck sampled too few points");
        assert!(
            mismatched * 20 <= checked,
            "{mismatched}/{checked} gradient checks failed"
        );
    }

    #[test]
    fn grads_add_and_scale() {
        let net = tiny_cnn(2, 2, 7);
        let ch = sample_channels(2, 8);
        let cache = net.forward_cached(&ch);
        let gl = Tensor::from_vec(&[3], vec![1.0, 0.0, -1.0]);
        let g1 = net.backward(&cache, &gl);
        let mut g2 = g1.clone();
        g2.add_assign(&g1);
        g2.scale(0.5);
        for (a, b) in g1.flat().iter().zip(g2.flat()) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn params_mut_flat_tags_towers() {
        let mut net = tiny_cnn(2, 2, 1);
        let tags: Vec<bool> = net.params_mut_flat().iter().map(|(_, t)| *t).collect();
        // Two towers with one conv each (2 tensors) then head (4).
        assert_eq!(
            tags,
            vec![true, true, true, true, false, false, false, false]
        );
    }

    #[test]
    fn argmax_first_wins_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 0.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn channel_count_mismatch_panics() {
        let net = tiny_cnn(2, 2, 1);
        let _ = net.forward(&sample_channels(1, 0));
    }
}
