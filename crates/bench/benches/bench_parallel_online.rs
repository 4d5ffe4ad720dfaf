//! Criterion bench for shard-parallel online aggregation: the scaling
//! curve of `QueryOptions::parallelism` on time-to-fixed-ε-stop and on
//! run-to-exhaustion throughput.
//!
//! The workload follows the regime that motivates parallel drivers (Kang
//! et al., *Accelerating Approximate Aggregation Queries with Expensive
//! Predicates*): per-row stream cost — sampling draws, a non-trivial
//! predicate, projection arithmetic — dominates the readout, so worker
//! threads soak up the sampling loop while the coordinator's per-tick
//! delta merge stays thin.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sa_expr::{col, lit};
use sa_online::{Engine, QueryBuilder};
use sa_plan::{AggSpec, LogicalPlan};
use sa_sampling::SamplingMethod;
use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};

const ROWS: i64 = 400_000;

/// `t(k, v, w)`: 400k rows with enough arithmetic surface for a costly
/// predicate + projection.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
        Field::new("w", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema);
    for i in 0..ROWS {
        b.push_row(&[
            Value::Int(i % 1000),
            Value::Float(1.0 + (i % 97) as f64),
            Value::Float(0.5 + (i % 31) as f64 / 31.0),
        ])
        .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

/// A sampled SUM with an expensive-ish predicate and arithmetic
/// projection — the per-row work the workers parallelize.
fn plan() -> LogicalPlan {
    LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.9 })
        .filter(
            col("v")
                .mul(col("w"))
                .add(col("v"))
                .gt(col("w").mul(lit(3.0))),
        )
        .project(vec![(
            col("v").mul(col("w")).add(col("v").mul(lit(0.25))),
            "x".into(),
        )])
        .aggregate(vec![AggSpec::sum(col("x"), "s")])
}

fn query(engine: &Engine, plan: &LogicalPlan, jobs: usize) -> QueryBuilder {
    engine
        .session()
        .query_plan(plan)
        .seed(11)
        .chunk_rows(4096)
        .jobs(jobs)
}

/// Wall clock to a fixed-ε CI stop (ε = 1%, 95%) at 1 / 2 / 4 workers —
/// the headline scaling curve.
fn bench_fixed_eps_stop(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_online_ci_stop");
    let engine = Engine::new(catalog());
    let plan = plan();
    for jobs in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                let r = query(&engine, &plan, jobs).within(0.01, 0.95).run();
                black_box(r.unwrap().snapshot.rows())
            })
        });
    }
    group.finish();
}

/// Run-to-exhaustion throughput at 1 / 2 / 4 workers: every sampled row is
/// consumed, so this isolates pure pipeline parallelism (no stopping-rule
/// noise).
fn bench_exhaustion(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_online_exhaustion");
    let engine = Engine::new(catalog());
    let plan = plan();
    for jobs in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            b.iter(|| black_box(query(&engine, &plan, jobs).run().unwrap().snapshot.rows()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fixed_eps_stop, bench_exhaustion);
criterion_main!(benches);
