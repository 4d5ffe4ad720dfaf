//! Criterion bench for the online aggregation subsystem: per-row vs
//! per-chunk accumulation, the O(1)-in-rows snapshot readout, shard merge,
//! and the stream's columnar chunks vs its row adapter.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sa_bench::workloads;
use sa_core::{GusParams, MomentAccumulator};
use sa_exec::{open_stream, ExecOptions};
use sa_online::Engine;
use sa_plan::{AggSpec, LogicalPlan};
use sa_sampling::SamplingMethod;
use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};

const M: u64 = 50_000;

fn push_all_incremental(m: u64) -> MomentAccumulator {
    let mut acc = MomentAccumulator::new(2, 1);
    for i in 0..m {
        acc.push_scalar(black_box(&[i % 997, i % 337]), (i % 97) as f64)
            .unwrap();
    }
    acc
}

/// The cost of maintaining `y_S` incrementally: one push per row, against
/// one `push_batch` per 4096-row chunk (what the drivers do).
fn bench_accumulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_accumulate");
    group.throughput(Throughput::Elements(M));
    group.bench_function("per_row", |b| {
        b.iter(|| black_box(push_all_incremental(M).snapshot().total[0]))
    });
    let x: Vec<u64> = (0..M).map(|i| i % 997).collect();
    let y: Vec<u64> = (0..M).map(|i| i % 337).collect();
    let f: Vec<f64> = (0..M).map(|i| (i % 97) as f64).collect();
    group.bench_function("per_chunk", |b| {
        b.iter(|| {
            let mut acc = MomentAccumulator::new(2, 1);
            for ((x, y), f) in x.chunks(4096).zip(y.chunks(4096)).zip(f.chunks(4096)) {
                acc.push_batch(black_box(&[x, y]), &[f]).unwrap();
            }
            black_box(acc.snapshot().total[0])
        })
    });
    group.finish();
}

/// The whole point of the incremental accumulator: a full estimate readout
/// (snapshot + Ŷ recursion + CI inputs) costs the same no matter how many
/// rows were consumed.
fn bench_snapshot_readout(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_readout");
    let gus = GusParams::bernoulli("x", 0.5)
        .unwrap()
        .join(&GusParams::bernoulli("y", 0.5).unwrap())
        .unwrap();
    for m in [1_000u64, 10_000, 100_000] {
        let acc = push_all_incremental(m);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| black_box(acc.report(&gus).unwrap().estimate[0]))
        });
    }
    group.finish();
}

/// Absorbing a shard-local accumulator (the building block for parallel
/// chunk processing).
fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_merge");
    let left = push_all_incremental(M);
    let right = push_all_incremental(M);
    group.bench_function("merge_50k_into_50k", |b| {
        b.iter(|| {
            let mut l = left.clone();
            l.merge(black_box(&right)).unwrap();
            black_box(l.count())
        })
    });
    group.finish();
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema);
    for i in 0..100_000i64 {
        b.push_row(&[Value::Int(i % 100), Value::Float((i % 13) as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

/// Pulling the stream as columnar chunks vs through the row adapter.
fn bench_stream_columnar_vs_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_stream");
    let cat = catalog();
    let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
    let opts = ExecOptions {
        seed: 1,
        ..Default::default()
    };
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("columnar_chunks", |b| {
        b.iter(|| {
            let mut s = open_stream(&plan, &cat, &opts).unwrap();
            let mut rows = 0;
            loop {
                let chunk = s.next_batch(4096).unwrap();
                if chunk.is_empty() {
                    break black_box(rows);
                }
                rows += chunk.rows();
            }
        })
    });
    group.bench_function("row_adapter", |b| {
        b.iter(|| {
            let s = open_stream(&plan, &cat, &opts).unwrap();
            black_box(s.collect_rows(4096).unwrap().len())
        })
    });
    group.finish();
}

/// End-to-end progressive loop: exhaustive vs an early-stopping CI rule —
/// the wall-clock win online aggregation buys.
fn bench_progressive_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_loop");
    let cat = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .aggregate(vec![AggSpec::sum(sa_expr::col("v"), "s")]);
    let engine = Engine::new(cat);
    let query = || engine.session().query_plan(&plan).seed(3).chunk_rows(4096);
    group.bench_function("run_to_exhaustion", |b| {
        b.iter(|| black_box(query().run().unwrap().snapshot.rows()))
    });
    group.bench_function("stop_at_5pct_ci", |b| {
        b.iter(|| black_box(query().within(0.05, 0.95).run().unwrap().snapshot.rows()))
    });
    group.finish();
}

/// The TPC-H scan+filter workload (the PR-5 acceptance query): exhaustion
/// throughput of the columnar online loop over a sampled lineitem scan
/// with a selection and a projected arithmetic expression. The plans come
/// from `workloads::columnar` — the same definitions `bench_report`
/// measures into `BENCH_PR5.json`.
fn bench_tpch_scan_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_tpch");
    let cat = workloads::tpch_small(7);
    let rows = cat.get("lineitem").unwrap().row_count();
    group.throughput(Throughput::Elements(rows));
    let scan = workloads::columnar::scan_plan();
    let scan_filter = workloads::columnar::filter_project_plan();
    let engine = Engine::new(cat);
    for (name, plan) in [("scan", &scan), ("scan_filter", &scan_filter)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = engine
                    .session()
                    .query_plan(black_box(plan))
                    .seed(1)
                    .chunk_rows(4096)
                    .run()
                    .unwrap();
                black_box(r.snapshot.rows())
            })
        });
    }
    group.finish();
}

/// The observability hot-path contract: an exhaustion run through the
/// engine with metrics on must sit within noise of the same run with
/// metrics off. Instrumentation is per-chunk and lock-free, never per-row;
/// `bench_report --check-overhead` turns this comparison into a CI gate.
fn bench_metrics_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_metrics");
    group.throughput(Throughput::Elements(100_000));
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .aggregate(vec![AggSpec::sum(sa_expr::col("v"), "s")]);
    for (name, metrics) in [("metrics_off", false), ("metrics_on", true)] {
        let engine = Engine::builder(catalog()).metrics(metrics).build();
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = engine
                    .session()
                    .query_plan(black_box(&plan))
                    .seed(3)
                    .chunk_rows(4096)
                    .run()
                    .unwrap();
                black_box(r.snapshot.rows())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_accumulate,
    bench_snapshot_readout,
    bench_merge,
    bench_stream_columnar_vs_rows,
    bench_progressive_loop,
    bench_tpch_scan_filter,
    bench_metrics_overhead
);
criterion_main!(benches);
