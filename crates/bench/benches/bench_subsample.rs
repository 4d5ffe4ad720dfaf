//! Criterion bench: the Section 7 ablation — full-sample variance
//! estimation vs lineage-hash sub-sampled variance estimation, at several
//! sub-sample targets (DESIGN.md §4, "Ŷ_S estimation source").

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sa_bench::workloads;
use sa_core::{covariance_from_y, unbiased_y_hats, GusParams, LineageBernoulli, MomentAccumulator};

/// Pre-materialize a sampled join result once; benchmark only the variance
/// estimation passes.
fn materialize() -> (GusParams, Vec<(Vec<u64>, f64)>) {
    let catalog = workloads::tpch_small(7);
    let plan = workloads::two_table(&catalog, 50.0);
    let analysis = sa_plan::rewrite(&plan, &catalog).unwrap();
    let (_, rows) = workloads::materialized_result(&catalog, &plan, 1);
    (analysis.gus, rows)
}

fn bench_variance_estimation(c: &mut Criterion) {
    let (gus, rows) = materialize();
    let n = gus.n();
    let mut group = c.benchmark_group("variance_estimation");

    group.bench_function("full_sample", |b| {
        b.iter(|| {
            let mut acc = MomentAccumulator::new(n, 1);
            for (lineage, f) in &rows {
                acc.push_scalar(lineage, *f).unwrap();
            }
            let moments = acc.snapshot();
            let y_hat = unbiased_y_hats(&gus, &moments).unwrap();
            black_box(covariance_from_y(&gus, &y_hat, 1).get(0, 0))
        })
    });

    for target in [10_000usize, 1_000] {
        let keep = ((target as f64) / rows.len() as f64)
            .min(1.0)
            .powf(1.0 / n as f64);
        let filter = LineageBernoulli::uniform(gus.schema().clone(), keep, 99).unwrap();
        let compacted = gus.compact(&filter.gus()).unwrap();
        group.bench_with_input(BenchmarkId::new("subsampled", target), &target, |b, _| {
            b.iter(|| {
                let mut acc = MomentAccumulator::new(n, 1);
                for (lineage, f) in &rows {
                    if filter.keeps(lineage) {
                        acc.push_scalar(lineage, *f).unwrap();
                    }
                }
                let moments = acc.snapshot();
                let y_hat = unbiased_y_hats(&compacted, &moments).unwrap();
                black_box(covariance_from_y(&gus, &y_hat, 1).get(0, 0))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_variance_estimation);
criterion_main!(benches);
