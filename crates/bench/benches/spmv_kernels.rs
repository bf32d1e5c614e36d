//! Criterion benches: real SpMV kernel timings per format on
//! representative matrix structures.
//!
//! These ground the analytic cost model: the *winner* the model picks
//! for each structural family should usually win in real wall-clock on
//! the host too (banded -> DIA, uniform-row -> ELL, scattered -> CSR,
//! hypersparse -> COO). Criterion prints per-format times; compare
//! with `repro table1`'s model rankings.
//!
//! Each family runs at edge 1024 (L1/L2-resident), and four run again
//! past L2 at about a million nonzeros, the size of perfbench's
//! `solver_large` matrices: banded, scattered, power-law, and a
//! hypersparse matrix of a million rows, nearly all of them empty
//! (~67 k nonzeros: the row scan, not the nonzeros, is its cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dnnspmv_gen::{generate, MatrixClass};
use dnnspmv_sparse::{AnyMatrix, SparseFormat, Spmv};
use std::hint::black_box;

fn bench_formats(c: &mut Criterion) {
    let cases = [
        (MatrixClass::Banded, "banded", 1024),
        (MatrixClass::Stencil, "stencil", 1024),
        (MatrixClass::UniformRows, "uniform_rows", 1024),
        (MatrixClass::Random, "scattered", 1024),
        (MatrixClass::PowerLaw, "power_law", 1024),
        (MatrixClass::Block, "blocked", 1024),
        (MatrixClass::Hypersparse, "hypersparse", 1024),
        (MatrixClass::Banded, "banded_1m", 200_000),
        (MatrixClass::Random, "scattered_1m", 120_000),
        (MatrixClass::PowerLaw, "power_law_1m", 200_000),
        (MatrixClass::Hypersparse, "hypersparse_1m", 1_000_000),
    ];
    for (class, name, dim) in cases {
        let coo = generate(class, dim, 42);
        let x: Vec<f32> = (0..coo.ncols())
            .map(|i| 1.0 + (i % 7) as f32 * 0.1)
            .collect();
        let mut y = vec![0.0f32; coo.nrows()];
        let mut group = c.benchmark_group(format!("spmv/{name}"));
        for format in SparseFormat::ALL {
            let Ok(stored) = AnyMatrix::convert(&coo, format) else {
                continue;
            };
            group.bench_with_input(
                BenchmarkId::from_parameter(format.name()),
                &stored,
                |b, m| {
                    b.iter(|| {
                        m.spmv(black_box(&x), black_box(&mut y));
                    })
                },
            );
        }
        group.finish();
    }
}

fn bench_conversions(c: &mut Criterion) {
    // Format conversion cost (the "format conversion overhead" the
    // paper discusses in §7.6) relative to one SpMV.
    let coo = generate(MatrixClass::Random, 1024, 11);
    let mut group = c.benchmark_group("convert/scattered_1024");
    for format in [SparseFormat::Csr, SparseFormat::Hyb, SparseFormat::Sell] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format.name()),
            &format,
            |b, &f| b.iter(|| black_box(AnyMatrix::convert(black_box(&coo), f).expect("feasible"))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_formats, bench_conversions
}
criterion_main!(benches);
