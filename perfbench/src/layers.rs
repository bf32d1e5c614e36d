//! The traced run: one number for every layer, measured from outside
//! by timing calls into the crates' public functions, plus a replay of
//! the workload through the decomposed pipeline under bench-side spans.

use crate::reference::{fma_gflops, ref_build, ref_spmv, triad_gbs, RefCsr};
use crate::run::{serve_depth8, Cursor, Ops, SolveBuffers, BATCH, DEPTH};
use crate::setup::{Model, SetupTime};
use crate::timing::{correct_latency, quantile_sorted, Acc, Slice, Timer};
use crate::trace::{self_times_ns, Tracer};
use crate::workloads::{Spec, Traffic};
use dnnspmv_core::{
    matrix_fingerprint, CacheLookup, DecisionCache, PendingSelection, Selection, SelectionSource,
    SelectorServer,
};
use dnnspmv_nn::gemm::{conv_out_hw, im2col_into, sgemm, Trans};
use dnnspmv_nn::loss::{softmax, softmax_cross_entropy_batch};
use dnnspmv_nn::network::argmax;
use dnnspmv_nn::{train_step, BatchTrainState, CnnBatchCache, Layer, Optimizer, Tensor};
use dnnspmv_repr::{MatrixRepr, ReprKind};
use dnnspmv_sparse::{AnyMatrix, CooMatrix, MatrixStats, SparseFormat, Spmv};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Stages of the decomposed pipeline, in call order. `request` is the
/// root span; its self time is what the stages do not cover.
const STAGES: [&str; 10] = [
    "request",
    "fingerprint",
    "cache_lookup",
    "extract",
    "pack",
    "forward",
    "decide",
    "cache_insert",
    "convert",
    "spmv",
];

/// How many traffic matrices the per-layer sweeps visit (a prefix of
/// the set, which holds every family).
const SAMPLE: usize = 42;
/// A padded format is skipped on a matrix it would blow up on.
const PAD_LIMIT: usize = 16;

/// Times `reps` calls of `f` as one slice; corrected seconds per call.
fn per_call(timer: &mut Timer, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    per_call_slice(timer, reps, f).corrected_s()
}

/// Bytes one SpMV must move whatever the format: values and column
/// indices once, row pointers, `x` and `y` once. Computed, not measured.
fn spmv_bytes(m: &CooMatrix<f32>) -> f64 {
    (m.nnz() * 8 + m.nrows() * 8 + m.ncols() * 4) as f64
}

fn feasible(stats: &MatrixStats, format: SparseFormat) -> bool {
    let padded = match format {
        SparseFormat::Dia => stats.ndiags * stats.nrows,
        SparseFormat::Ell => stats.row_max * stats.nrows,
        _ => return true,
    };
    padded <= (PAD_LIMIT * stats.nnz).max(1 << 16)
}

fn pack(repr: MatrixRepr) -> Vec<Tensor> {
    repr.channels
        .into_iter()
        .map(|im| {
            let (h, w) = (im.height(), im.width());
            Tensor::from_vec(&[h, w], im.into_vec())
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
pub fn traced_run(
    spec: &Spec,
    model: &Model,
    server: &SelectorServer<f32>,
    traffic: &Traffic,
    setup: &SetupTime,
    requests: usize,
    timer: &mut Timer,
    ops: &mut Ops,
) -> (Vec<Metric>, Tracer) {
    let mut out = Out(Vec::new());
    let mats = &traffic.matrices;
    let sample: Vec<&CooMatrix<f32>> = mats.iter().take(SAMPLE).map(Arc::as_ref).collect();
    let n = sample.len() as f64;
    let nnz: f64 = sample.iter().map(|m| m.nnz() as f64).sum();
    let selector = &model.selector;
    let cfg = &selector.config;
    let service = model.service();

    // host
    let triad = triad_gbs();
    let fma = fma_gflops();
    out.put("host.triad_gbs", triad, "GB/s");
    out.put("host.fma_gflops", fma, "GFLOP/s");

    // gen / platform
    out.put(
        "gen.corpus_ms",
        setup.stage("corpus").corrected_s() * 1e3,
        "ms",
    );
    let labellings = if spec.migrated { 2.0 } else { 1.0 };
    out.put(
        "platform.label_us_per_matrix",
        setup.stage("label").corrected_s() * 1e6 / (labellings * setup.corpus_len as f64),
        "us",
    );

    // reference SpMV on the sample: the unit of every `*_iters` number
    let refs: Vec<RefCsr> = sample
        .iter()
        .map(|m| ref_build(m.nrows(), m.row_indices(), m.col_indices(), m.values()))
        .collect();
    let SolveBuffers { x, mut y, .. } = SolveBuffers::new(sample.iter().copied());
    let reps = spec.spmv_reps;
    let ref_spmv_s = per_call(timer, reps, || {
        for (m, r) in sample.iter().zip(&refs) {
            ref_spmv(r, &x[..m.ncols()], &mut y[..m.nrows()]);
            black_box(&mut y);
        }
    });

    // Corrected seconds per sample matrix of one call per matrix.
    let per_matrix = |timer: &mut Timer, reps: usize, f: &dyn Fn(&CooMatrix<f32>)| {
        per_call(timer, reps, || sample.iter().for_each(|m| f(m))) / n
    };

    // repr
    let mut extract_s = 0.0;
    for (kind, label) in [
        (ReprKind::Histogram, "histogram"),
        (ReprKind::BinaryDensity, "density"),
        (ReprKind::Binary, "binary"),
    ] {
        let s = per_matrix(timer, reps, &|m| {
            black_box(MatrixRepr::extract(m, kind, &cfg.repr_config));
        });
        out.put(format!("repr.extract_us.{label}"), s * 1e6, "us");
        if kind == cfg.repr {
            extract_s = s;
        }
    }
    out.put("repr.extract_ns_per_nnz", extract_s * n * 1e9 / nnz, "ns");
    out.put("repr.extract_iters", extract_s * n / ref_spmv_s, "iters");

    nn_metrics(&mut out, spec, model, fma, timer);

    let s = per_matrix(timer, reps, &|m| {
        black_box(model.tree.predict(m));
    });
    out.put("tree.predict_us", s * 1e6, "us");

    // core, call by call
    let s = per_matrix(timer, reps, &|m| {
        black_box(matrix_fingerprint(m));
    });
    out.put("core.fingerprint_us", s * 1e6, "us");
    cache_metrics(&mut out, spec, timer);
    let s = per_matrix(timer, reps, &|m| {
        black_box(selector.predict_proba(m));
    });
    out.put("core.predict_us", s * 1e6, "us");
    let s = per_matrix(timer, reps, &|m| {
        black_box(service.select(m));
    });
    out.put("core.select_us", s * 1e6, "us");
    let s = per_matrix(timer, 1, &|m| {
        black_box(selector.prepare(m));
    });
    out.put("core.prepare_ms", s * 1e3, "ms");

    serve_metrics(
        &mut out, spec, server, &service, traffic, requests, timer, ops,
    );
    sparse_metrics(&mut out, model, &sample, triad, timer);
    let tracer = replay(&mut out, spec, model, traffic, requests, timer);

    out.put("host.probe_ms", timer.median_probe_us() / 1e3, "ms");
    out.put("host.slow_slice_share", timer.slow_share(), "share");
    (out.0, tracer)
}

/// CNN forward at batch 1 and 8, the batched training step and its
/// halves, im2col, and every GEMM of the model at its batch-32 shape.
fn nn_metrics(out: &mut Out, spec: &Spec, model: &Model, fma: f64, timer: &mut Timer) {
    let net = &model.selector.net;
    let samples = &model.samples;
    let take = |k: usize| -> Vec<&[Tensor]> {
        (0..k)
            .map(|i| samples[i % samples.len()].channels.as_slice())
            .collect()
    };
    let one = take(BATCH);
    let s = per_call(timer, 4, || {
        for ch in &one {
            black_box(net.forward(ch));
        }
    });
    out.put("nn.forward_b1_us", s * 1e6 / BATCH as f64, "us");
    let eight = take(DEPTH);
    let s = per_call(timer, 16, || {
        black_box(net.forward_batch(&eight));
    });
    out.put("nn.forward_b8_us_per_sample", s * 1e6 / DEPTH as f64, "us");

    let mut cache = CnnBatchCache::default();
    let s = per_call(timer, 8, || net.forward_batch_cached(&one, &mut cache));
    out.put("nn.fwd_batch_ms", s * 1e3, "ms");
    let labels: Vec<usize> = (0..BATCH)
        .map(|i| samples[i % samples.len()].label)
        .collect();
    let mut glogits = Vec::new();
    let (logits, classes) = cache.logits_rows();
    softmax_cross_entropy_batch(logits, classes, &labels, &mut glogits);
    let mut grads = net.zero_grads();
    let s = per_call(timer, 8, || {
        net.backward_batch(&mut cache, &glogits, spec.migrated, &mut grads)
    });
    out.put("nn.bwd_batch_ms", s * 1e3, "ms");

    let mut trained = net.clone();
    let tc = &model.selector.config.train;
    let mut opt = Optimizer::new(&mut trained, tc.optimizer, tc.lr, spec.migrated);
    let mut state = BatchTrainState::new(&trained);
    let batch: Vec<usize> = (0..BATCH).map(|i| i % samples.len()).collect();
    let s = per_call(timer, 8, || {
        black_box(train_step(
            &mut trained,
            samples,
            &batch,
            &mut opt,
            &mut state,
        ));
    });
    out.put("nn.train_step_ms", s * 1e3, "ms");

    // Walk one tower and the head for the GEMM shapes.
    let (mut c, (mut h, mut w)) = (1usize, net.channel_shape);
    let mut gemms: Vec<(String, usize, usize, usize)> = Vec::new();
    let mut convs = 0;
    for layer in &net.towers[0].layers {
        match layer {
            Layer::Conv2d(cv) => {
                if convs == 0 {
                    let img = vec![0.5f32; c * h * w];
                    let (oh, ow) = conv_out_hw(h, w, cv.ksize, cv.stride, cv.pad);
                    let mut col = vec![0.0f32; c * cv.ksize * cv.ksize * oh * ow];
                    let s = per_call(timer, 64, || {
                        im2col_into(
                            &img,
                            c,
                            h,
                            w,
                            cv.ksize,
                            cv.stride,
                            cv.pad,
                            &mut col,
                            oh * ow,
                            0,
                        );
                        black_box(&mut col);
                    });
                    out.put("nn.im2col_us", s * 1e6, "us");
                }
                convs += 1;
                (h, w) = conv_out_hw(h, w, cv.ksize, cv.stride, cv.pad);
                gemms.push((
                    format!("conv{convs}"),
                    cv.out_ch,
                    BATCH * h * w,
                    cv.in_ch * cv.ksize * cv.ksize,
                ));
                c = cv.out_ch;
            }
            Layer::MaxPool2d(p) => {
                h = (h / p.size).max(1);
                w = (w / p.size).max(1);
            }
            _ => {}
        }
    }
    if let Some(Layer::Dense(d)) = net.head.layers.first() {
        gemms.push(("dense".into(), BATCH, d.out_dim, d.in_dim));
    }
    let mut best = 0.0f64;
    for (name, m, n, k) in gemms {
        let a = vec![0.25f32; m * k];
        let b = vec![0.5f32; k * n];
        let mut cm = vec![0.0f32; m * n];
        // Dense weights are stored `[out, in]`, i.e. B transposed.
        let tb = if name == "dense" {
            Trans::Yes
        } else {
            Trans::No
        };
        let s = per_call(timer, 16, || {
            sgemm(m, n, k, 1.0, &a, Trans::No, &b, tb, 0.0, &mut cm);
            black_box(&mut cm);
        });
        let gflops = (2 * m * n * k) as f64 / s / 1e9;
        best = best.max(gflops);
        out.put(format!("nn.gemm_gflops.{name}"), gflops, "GFLOP/s");
    }
    out.put("nn.gemm_peak_share", best / fma, "share");
}

/// `DecisionCache` lookups of resident keys and inserts that evict, on
/// a bench-owned cache of the workload's size (128 where it has none).
fn cache_metrics(out: &mut Out, spec: &Spec, timer: &mut Timer) {
    let capacity = if spec.cache > 0 { spec.cache } else { 128 };
    let cache = DecisionCache::new(&dnnspmv_core::CacheConfig::enabled(capacity))
        .expect("a positive capacity enables the cache");
    let sel = Selection {
        format: SparseFormat::Csr,
        source: SelectionSource::Cnn,
        confidence: Some(0.9),
    };
    let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    const KEYS: u64 = 4096;
    let mut next = 0u64;
    let s = per_call(timer, 8, || {
        for _ in 0..KEYS {
            black_box(cache.insert(key(next), 0, 0, sel));
            next += 1;
        }
    });
    out.put("core.cache_insert_ns", s * 1e9 / KEYS as f64, "ns");
    // The most recent inserts are resident in every shard.
    let resident = (capacity / 4).max(1) as u64;
    let s = per_call(timer, 8, || {
        for i in 0..KEYS {
            black_box(cache.lookup(key(next - 1 - i % resident), 0, 0));
        }
    });
    out.put("core.cache_lookup_ns", s * 1e9 / KEYS as f64, "ns");
}

/// A short untraced serve, read from outside and from the server's own
/// `metrics_snapshot()`.
#[allow(clippy::too_many_arguments)]
fn serve_metrics(
    out: &mut Out,
    spec: &Spec,
    server: &SelectorServer<f32>,
    service: &dnnspmv_core::SelectorService,
    traffic: &Traffic,
    requests: usize,
    timer: &mut Timer,
    ops: &mut Ops,
) {
    let mats = &traffic.matrices;
    let seq = &traffic.sequence;
    let mut d1 = Cursor::new(0);
    // Fill the cache first, as the untraced run does.
    for &i in &d1.take(seq, mats.len().max(2 * spec.cache)) {
        let answer = server
            .submit(Arc::clone(&mats[i as usize]), None)
            .and_then(PendingSelection::wait);
        ops.record(answer.is_ok());
    }
    let cached = spec.cache > 0;
    let hit_count = || {
        if cached {
            server.report().cache.hits
        } else {
            0
        }
    };
    let (mut lat_us, mut overhead_us) = (Vec::new(), Vec::new());
    let (mut hits, mut sampled, mut disagree) = (0u64, 0u64, 0u64);
    let mut seen = hit_count();
    for chunk in d1.take(seq, requests).chunks(spec.serve_chunk) {
        // (latency, crossed threads, a direct select of the same matrix)
        let mut raw = Vec::with_capacity(chunk.len());
        let handoff_before = timer.handoff_s();
        let ((), s) = timer.slice(|| {
            for &i in chunk {
                let m = Arc::clone(&mats[i as usize]);
                let t = Instant::now();
                let answer = server.submit(m, None).and_then(PendingSelection::wait);
                let dt = t.elapsed().as_secs_f64();
                let hit = std::mem::replace(&mut seen, hit_count()) < seen;
                ops.record(answer.is_ok());
                let t = Instant::now();
                let fresh = service.select(&*mats[i as usize]);
                raw.push((dt, !hit, t.elapsed().as_secs_f64()));
                if let (true, Ok(sel)) = (hit, answer) {
                    hits += 1;
                    // Every 8th hit is checked against the fresh decision.
                    if hits % 8 == 0 {
                        sampled += 1;
                        disagree += u64::from(fresh.format != sel.format);
                    }
                }
            }
        });
        let handoff = 0.5 * (handoff_before + timer.handoff_s());
        for (dt, crossed, direct) in raw {
            let lat = correct_latency(dt, crossed, handoff, s.factor);
            lat_us.push(lat * 1e6);
            if crossed {
                overhead_us.push((lat - direct * s.factor) * 1e6);
            }
        }
    }
    lat_us.sort_by(f64::total_cmp);
    overhead_us.sort_by(f64::total_cmp);
    out.put("core.serve_p99_us", quantile_sorted(&lat_us, 0.99), "us");
    out.put(
        "core.cache_hit_share",
        hits as f64 / lat_us.len() as f64,
        "share",
    );
    out.put(
        "core.cache_disagree_share",
        if sampled == 0 {
            0.0
        } else {
            disagree as f64 / sampled as f64
        },
        "share",
    );
    out.put(
        "core.server_overhead_us",
        quantile_sorted(&overhead_us, 0.5),
        "us",
    );

    let batches = |srv: &SelectorServer<f32>| {
        let snap = srv.metrics_snapshot();
        snap.histogram("serve_batch_size", &[])
            .map_or((0, 0), |h| (h.sum, h.count))
    };
    let before = batches(server);
    let mut d8 = Cursor::new(seq.len() / 2);
    serve_depth8(server, mats, &d8.take(seq, requests), ops);
    let after = batches(server);
    let formed = (after.1 - before.1).max(1);
    out.put(
        "core.batch_size_mean",
        (after.0 - before.0) as f64 / formed as f64,
        "count",
    );

    let snap = server.metrics_snapshot();
    let p50_us = |name: &str| {
        snap.histogram(name, &[])
            .map_or(0.0, |h| h.p50() as f64 / 1e3)
    };
    out.put(
        "core.queue_wait_us_p50",
        p50_us("serve_queue_wait_ns"),
        "us",
    );
    out.put("core.handle_us_p50", p50_us("serve_handle_ns"), "us");
    let r = server.report();
    let rungs = (r.served_cnn + r.served_tree + r.served_default).max(1) as f64;
    out.put("core.rung_share.cnn", r.served_cnn as f64 / rungs, "share");
    out.put(
        "core.rung_share.tree",
        r.served_tree as f64 / rungs,
        "share",
    );
    out.put(
        "core.rung_share.default",
        r.served_default as f64 / rungs,
        "share",
    );
    out.put("core.shed", r.shed as f64, "count");
    ops.record(r.accounted() == r.submitted && r.path_accounted());
}

/// Conversion and SpMV of every format of the platform's set on the
/// sample, against the computed bytes and the triad ceiling; and how
/// the chosen format compares with CSR and with the best measured one.
fn sparse_metrics(
    out: &mut Out,
    model: &Model,
    sample: &[&CooMatrix<f32>],
    triad: f64,
    timer: &mut Timer,
) {
    let formats = model.platform.formats();
    let service = model.service();
    let SolveBuffers { x, mut y, .. } = SolveBuffers::new(sample.iter().copied());

    struct PerFormat {
        convert: Acc,
        converted: u64,
        serial: Acc,
        par: Acc,
        bytes: f64,
    }
    let mut per: Vec<PerFormat> = formats
        .iter()
        .map(|_| PerFormat {
            convert: Acc::default(),
            converted: 0,
            serial: Acc::default(),
            par: Acc::default(),
            bytes: 0.0,
        })
        .collect();
    let (mut chosen_s, mut csr_s, mut best_s) = (0.0, 0.0, 0.0);
    let (mut fallbacks, mut choices) = (0u64, 0u64);

    for m in sample {
        let stats = MatrixStats::compute(*m);
        let chosen = service.select(*m).format;
        let mut times: Vec<(SparseFormat, f64)> = Vec::new();
        for (f, pf) in formats.iter().zip(&mut per) {
            if !feasible(&stats, *f) {
                continue;
            }
            let mut converted = None;
            let ((), s) = timer.slice(|| converted = AnyMatrix::convert(*m, *f).ok());
            let Some(any) = converted else { continue };
            pf.convert.add(s.raw_s, s.factor);
            pf.converted += 1;
            let (xs, ys) = (&x[..m.ncols()], &mut y[..m.nrows()]);
            any.spmv(xs, ys);
            let serial = per_call_slice(timer, 2, || {
                any.spmv(black_box(xs), ys);
                black_box(&mut *ys);
            });
            let par = per_call_slice(timer, 2, || {
                any.spmv_par(black_box(xs), ys);
                black_box(&mut *ys);
            });
            pf.serial.add(serial.raw_s, serial.factor);
            pf.par.add(par.raw_s, par.factor);
            pf.bytes += spmv_bytes(m);
            times.push((*f, par.corrected_s()));
        }
        let time_of = |f: SparseFormat| times.iter().find(|(g, _)| *g == f).map(|(_, t)| *t);
        let csr = time_of(SparseFormat::Csr).expect("CSR always converts");
        choices += 1;
        chosen_s += time_of(chosen).unwrap_or_else(|| {
            fallbacks += 1;
            csr
        });
        csr_s += csr;
        best_s += times.iter().map(|(_, t)| *t).fold(f64::MAX, f64::min);
    }

    for (f, pf) in formats.iter().zip(&per) {
        let name = f.name().to_lowercase();
        let converted = pf.converted.max(1) as f64;
        out.put(
            format!("sparse.convert_ms.{name}"),
            pf.convert.corrected_s * 1e3 / converted,
            "ms",
        );
        let gbs = |a: &Acc| {
            if a.corrected_s > 0.0 {
                pf.bytes / a.corrected_s / 1e9
            } else {
                0.0
            }
        };
        out.put(format!("sparse.spmv_gbs.{name}"), gbs(&pf.serial), "GB/s");
        out.put(format!("sparse.spmv_par_gbs.{name}"), gbs(&pf.par), "GB/s");
        out.put(
            format!("sparse.spmv_roofline_share.{name}"),
            gbs(&pf.par) / triad,
            "share",
        );
    }
    out.put(
        "sparse.convert_fallback_share",
        fallbacks as f64 / choices.max(1) as f64,
        "share",
    );
    out.put("sparse.chosen_vs_csr_ratio", csr_s / chosen_s, "x");
    out.put("core.oracle_share", best_s / chosen_s, "share");
}

/// One slice of `reps` calls; the slice is scaled down to one call.
fn per_call_slice(timer: &mut Timer, reps: usize, mut f: impl FnMut()) -> Slice {
    let ((), s) = timer.slice(|| {
        for _ in 0..reps {
            f();
        }
    });
    Slice {
        raw_s: s.raw_s / reps as f64,
        factor: s.factor,
    }
}

/// One request through the decomposed public calls.
fn decomposed(
    t: &mut Tracer,
    model: &Model,
    cache: Option<&DecisionCache>,
    m: &CooMatrix<f32>,
    reps: usize,
    x: &[f32],
    y: &mut [f32],
) -> bool {
    let selector = &model.selector;
    let cfg = &selector.config;
    let mut missed = false;
    t.span("request", |t| {
        let mut format = None;
        let mut fp = 0;
        if let Some(cache) = cache {
            fp = t.span("fingerprint", |_| matrix_fingerprint(m));
            if let CacheLookup::Hit(sel) = t.span("cache_lookup", |_| cache.lookup(fp, 0, 0)) {
                format = Some(sel.format);
            }
        }
        let format = format.unwrap_or_else(|| {
            missed = true;
            let repr = t.span("extract", |_| {
                MatrixRepr::extract(m, cfg.repr, &cfg.repr_config)
            });
            let channels = t.span("pack", |_| pack(repr));
            let logits = t.span("forward", |_| selector.net.forward(&channels));
            let sel = t.span("decide", |_| {
                let probs = softmax(logits.data());
                let best = argmax(&probs);
                Selection {
                    format: selector.formats[best],
                    source: SelectionSource::Cnn,
                    confidence: Some(probs[best]),
                }
            });
            if let Some(cache) = cache {
                t.span("cache_insert", |_| cache.insert(fp, 0, 0, sel));
            }
            sel.format
        });
        let any = t.span("convert", |_| {
            AnyMatrix::convert(m, format).unwrap_or_else(|_| {
                AnyMatrix::convert(m, SparseFormat::Csr).expect("CSR conversion cannot fail")
            })
        });
        t.span("spmv", |_| {
            for _ in 0..reps {
                any.spmv_par(black_box(&x[..m.ncols()]), &mut y[..m.nrows()]);
                black_box(&mut *y);
            }
        });
    });
    missed
}

/// Replays `requests` requests through [`decomposed`], slice by slice:
/// traced, then untraced on a cache of its own, then (for the misses)
/// the monolithic `SelectorService::select` the stages must add up to.
fn replay(
    out: &mut Out,
    spec: &Spec,
    model: &Model,
    traffic: &Traffic,
    requests: usize,
    timer: &mut Timer,
) -> Tracer {
    let mats = &traffic.matrices;
    let service = model.service();
    let new_cache = || {
        (spec.cache > 0)
            .then(|| DecisionCache::new(&dnnspmv_core::CacheConfig::enabled(spec.cache)))
            .flatten()
    };
    let (cache_on, cache_off) = (new_cache(), new_cache());
    let SolveBuffers { x, mut y, .. } = SolveBuffers::new(mats.iter().map(Arc::as_ref));
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (mut traced, mut untraced, mut mono) = (Acc::default(), Acc::default(), Acc::default());
    // (first span, one past the last span, correction) of each slice
    let mut factors: Vec<(usize, usize, f64)> = Vec::new();
    let mut cursor = Cursor::new(0);
    let mut request = 0u32;
    // A cold cache would make every request a miss: fill both first.
    if spec.cache > 0 {
        for &i in &cursor.take(&traffic.sequence, 2 * spec.cache) {
            let m = &*mats[i as usize];
            decomposed(&mut off, model, cache_on.as_ref(), m, 1, &x, &mut y);
            decomposed(&mut off, model, cache_off.as_ref(), m, 1, &x, &mut y);
        }
    }
    timer.refresh();
    for chunk in cursor
        .take(&traffic.sequence, requests)
        .chunks(spec.serve_chunk)
    {
        let first = on.spans.len();
        let mut missed = Vec::new();
        let ((), s) = timer.slice(|| {
            for &i in chunk {
                on.begin_request(request);
                request += 1;
                let m = &*mats[i as usize];
                if decomposed(&mut on, model, cache_on.as_ref(), m, 1, &x, &mut y) {
                    missed.push(i);
                }
            }
        });
        traced.add(s.raw_s, s.factor);
        factors.push((first, on.spans.len(), s.factor));
        let ((), s) = timer.slice(|| {
            for &i in chunk {
                let m = &*mats[i as usize];
                decomposed(&mut off, model, cache_off.as_ref(), m, 1, &x, &mut y);
            }
        });
        untraced.add(s.raw_s, s.factor);
        let ((), s) = timer.slice(|| {
            for &i in &missed {
                black_box(service.select(&*mats[i as usize]));
            }
        });
        mono.add(s.raw_s, s.factor);
    }

    let own = self_times_ns(&on.spans);
    let mut self_s = [0.0f64; STAGES.len()];
    let mut select_s = 0.0;
    for &(first, last, factor) in &factors {
        for (sp, own_ns) in on.spans[first..last].iter().zip(&own[first..last]) {
            let stage = STAGES
                .iter()
                .position(|s| *s == sp.name)
                .expect("known stage");
            self_s[stage] += *own_ns as f64 * 1e-9 * factor;
            if matches!(sp.name, "extract" | "pack" | "forward" | "decide") {
                select_s += (sp.end_ns - sp.start_ns) as f64 * 1e-9 * factor;
            }
        }
    }
    let total: f64 = self_s.iter().sum();
    for (stage, s) in STAGES.iter().zip(self_s) {
        out.put(
            format!("stage.{stage}.self_us"),
            s * 1e6 / request as f64,
            "us",
        );
        out.put(format!("stage.{stage}.share"), s / total, "share");
    }
    out.put("trace.coverage_share", select_s / mono.corrected_s, "share");
    out.put(
        "trace.overhead_share",
        traced.corrected_s / untraced.corrected_s - 1.0,
        "share",
    );
    on
}
