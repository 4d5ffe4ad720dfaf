//! Shard-parallel online aggregation end to end: option validation, exact
//! agreement with the batch estimator at forced exhaustion, graceful
//! oversubscription, cross-parallelism agreement on shared-realization
//! plans, statistical coverage at `parallelism = 4`, and early stopping.

mod support;

use sampling_algebra::core::{estimate_from_sample_moments, GroupedMoments};
use sampling_algebra::exec::{f_vector, layout_dims, open_stream_partitioned, ExecOptions};
use sampling_algebra::prelude::*;
use sampling_algebra::tpch::Zipf;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// `t(k, v)`: `rows` rows, v cycling 1..=7 (mean 4.0), k cycling 0..10.
fn catalog(rows: i64) -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema);
    for i in 0..rows {
        b.push_row(&[Value::Int(i % 10), Value::Float(1.0 + (i % 7) as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

fn sum_plan(p: f64) -> LogicalPlan {
    LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p })
        .aggregate(vec![AggSpec::sum(col("v"), "s")])
}

fn opts(seed: u64, chunk_rows: usize, parallelism: usize) -> QueryOptions {
    QueryOptions {
        seed,
        chunk_rows,
        parallelism,
        ..Default::default()
    }
}

#[test]
fn parallelism_zero_rejected_by_both_drivers() {
    let c = catalog(100);
    let bad = opts(0, 64, 0);
    let err = support::run(&sum_plan(0.5), &c, &bad, |_| {}).unwrap_err();
    assert!(matches!(err, Error::InvalidOptions(_)), "{err}");
    assert!(err.to_string().contains("parallelism"), "{err}");
    let err = support::run_groups(&sum_plan(0.5), &[col("k")], &c, &bad, |_| {}).unwrap_err();
    assert!(matches!(err, Error::InvalidOptions(_)), "{err}");
}

/// At forced exhaustion, the N-worker estimate must equal the batch
/// estimator fed the same realized union sample, to 1e-9.
#[test]
fn parallel_exhaustion_equals_batch_estimator() {
    let c = catalog(4000);
    let plan = sum_plan(0.3);
    let online = support::run(&plan, &c, &opts(9, 128, 4), |_| {}).unwrap();
    assert_eq!(online.reason, StopReason::Exhausted);
    // Batch moments over the SAME partitioned realization.
    let LogicalPlan::Aggregate { aggs, input } = &plan else {
        unreachable!()
    };
    let streams = open_stream_partitioned(
        input,
        &c,
        &ExecOptions {
            seed: 9,
            ..Default::default()
        },
        4,
    )
    .unwrap();
    let layout = layout_dims(aggs, streams[0].schema()).unwrap();
    let mut batch = GroupedMoments::new(online.analysis.schema.n(), layout.dims());
    for mut s in streams {
        loop {
            let chunk = s.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                batch
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
    }
    let report = estimate_from_sample_moments(&online.analysis.gus, &batch.finish()).unwrap();
    let est = support::scalar(&online).aggs[0].estimate;
    assert!(est > 0.0);
    assert!(
        (est - report.estimate[0]).abs() < 1e-9 * (1.0 + est.abs()),
        "{est} vs {}",
        report.estimate[0]
    );
    let (vo, vb) = (
        support::scalar(&online).aggs[0].variance.unwrap(),
        report.variance(0).unwrap(),
    );
    assert!((vo - vb).abs() < 1e-9 * (1.0 + vb.abs()), "{vo} vs {vb}");
}

/// The grouped variant of the exhaustion pin: every group's N-worker
/// readout equals the batch grouped estimator to 1e-9.
#[test]
fn parallel_grouped_exhaustion_equals_batch_estimator() {
    let c = catalog(4800);
    let plan = sum_plan(0.4);
    let r = support::run_groups(&plan, &[col("k")], &c, &opts(7, 256, 4), |_| {}).unwrap();
    assert_eq!(r.reason, StopReason::Exhausted);
    assert_eq!(support::grouped(&r).groups.len(), 10);
    // Batch per-group moments over the SAME partitioned realization.
    let LogicalPlan::Aggregate { aggs, input } = &plan else {
        unreachable!()
    };
    let streams = open_stream_partitioned(
        input,
        &c,
        &ExecOptions {
            seed: 7,
            ..Default::default()
        },
        4,
    )
    .unwrap();
    let layout = layout_dims(aggs, streams[0].schema()).unwrap();
    let key_expr = sampling_algebra::expr::bind(&col("k"), streams[0].schema()).unwrap();
    let mut batch: std::collections::BTreeMap<Vec<Value>, GroupedMoments> = Default::default();
    let n = r.analysis.schema.n();
    for mut s in streams {
        loop {
            let chunk = s.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                let key = vec![sampling_algebra::expr::eval(&key_expr, &row.values).unwrap()];
                batch
                    .entry(key)
                    .or_insert_with(|| GroupedMoments::new(n, layout.dims()))
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
    }
    assert_eq!(batch.len(), support::grouped(&r).groups.len());
    for g in &support::grouped(&r).groups {
        let moments = batch.remove(&g.key).expect("group in both").finish();
        let report = estimate_from_sample_moments(&r.analysis.gus, &moments).unwrap();
        let (eo, eb) = (g.aggs[0].estimate, report.estimate[0]);
        assert!((eo - eb).abs() < 1e-9 * (1.0 + eb.abs()), "{eo} vs {eb}");
        let (vo, vb) = (g.aggs[0].variance.unwrap(), report.variance(0).unwrap());
        assert!((vo - vb).abs() < 1e-9 * (1.0 + vb.abs()), "{vo} vs {vb}");
    }
}

/// More workers than chunks (even than blocks): extra workers drain empty
/// slices immediately, nothing is lost or double-counted.
#[test]
fn oversubscribed_parallelism_degrades_gracefully() {
    let c = catalog(100);
    // Unsampled plan: at exhaustion the estimate is exact, so any lost or
    // duplicated slice row would show up as a wrong SUM.
    let plan = LogicalPlan::scan("t").aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let truth: f64 = (0..100).map(|i| 1.0 + (i % 7) as f64).sum();
    for parallelism in [7, 64] {
        let r = support::run(&plan, &c, &opts(3, 16, parallelism), |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(r.snapshot.rows(), 100);
        let est = support::scalar(&r).aggs[0].estimate;
        assert!(
            (est - truth).abs() < 1e-9 * truth,
            "parallelism={parallelism}: {est} vs {truth}"
        );
    }
}

/// Plans whose stochastic operators are all shared across workers (SYSTEM
/// keeps, WOR draws — no spine Bernoulli) realize the SAME sample at any
/// parallelism, so the exhaustion estimates agree across worker counts.
#[test]
fn shared_realization_plans_agree_across_parallelism() {
    let c = catalog(2000);
    for plan in [
        LogicalPlan::scan("t")
            .sample(SamplingMethod::System { p: 0.7 })
            .aggregate(vec![AggSpec::sum(col("v"), "s")]),
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Wor { size: 800 })
            .aggregate(vec![AggSpec::sum(col("v"), "s")]),
    ] {
        let sequential = support::run(&plan, &c, &opts(5, 128, 1), |_| {}).unwrap();
        let parallel = support::run(&plan, &c, &opts(5, 128, 4), |_| {}).unwrap();
        assert_eq!(parallel.snapshot.rows(), sequential.snapshot.rows());
        let (es, ep) = (
            support::scalar(&sequential).aggs[0].estimate,
            support::scalar(&parallel).aggs[0].estimate,
        );
        assert!((es - ep).abs() < 1e-9 * (1.0 + es.abs()), "{es} vs {ep}");
    }
}

/// 100 seeded trials at `parallelism = 4` over a Zipf-skewed table: the
/// per-worker Bernoulli streams must still produce unbiased estimates
/// whose 99% Chebyshev intervals keep ≥ 96% coverage of the true SUM.
#[test]
fn parallel_coverage_trial() {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
    let zipf = Zipf::new(40, 1.3);
    let mut rng = StdRng::seed_from_u64(20_130_826);
    let mut truth = 0.0f64;
    let mut b = TableBuilder::new("t", schema);
    for _ in 0..4000 {
        let v = 1.0 + zipf.sample(&mut rng) as f64;
        truth += v;
        b.push_row(&[Value::Float(v)]).unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.4 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let mut covered = 0u32;
    for seed in 0..100 {
        let r = support::run(
            &plan,
            &c,
            &QueryOptions {
                seed,
                chunk_rows: 256,
                confidence: 0.99,
                parallelism: 4,
                ..Default::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        let ci = support::scalar(&r).aggs[0].ci_chebyshev.as_ref().unwrap();
        if ci.contains(truth) {
            covered += 1;
        }
    }
    assert!(
        covered >= 96,
        "99% Chebyshev coverage at parallelism 4: {covered}/100"
    );
}

/// A CI stopping rule fires on the merged shard state well before the
/// 4-worker pipeline drains the sample.
#[test]
fn parallel_ci_rule_stops_early() {
    let c = catalog(50_000);
    let r = support::run(
        &sum_plan(0.5),
        &c,
        &QueryOptions {
            seed: 4,
            chunk_rows: 512,
            rule: StoppingRule::ci(0.05, 0.95),
            parallelism: 4,
            ..Default::default()
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(r.reason, StopReason::CiConverged);
    assert!(r.snapshot.rel_half_width().unwrap() <= 0.05);
    // Early even with the bounded worker run-ahead (≤ 2 chunks per shard).
    assert!(r.snapshot.rows() < 20_000, "rows = {}", r.snapshot.rows());
}

/// UNION-of-samples plans stream at `parallelism > 1` like any other plan:
/// the union is one pass whose keep predicate is a function of each row's
/// id, so the workers realize the sequential sample and exhaust to its
/// estimate and variance.
#[test]
fn union_plans_refuse_parallel_streaming() {
    let c = catalog(2000);
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.4 })
        .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.3 }))
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let parallel = support::run(&plan, &c, &opts(6, 128, 4), |_| {}).unwrap();
    let sequential = support::run(&plan, &c, &opts(6, 128, 1), |_| {}).unwrap();
    assert_eq!(parallel.reason, StopReason::Exhausted);
    assert_eq!(sequential.reason, StopReason::Exhausted);
    assert_eq!(parallel.snapshot.rows(), sequential.snapshot.rows());
    let (s, p) = (
        &support::scalar(&sequential).aggs[0],
        &support::scalar(&parallel).aggs[0],
    );
    assert!(
        (s.estimate - p.estimate).abs() < 1e-9 * (1.0 + s.estimate.abs()),
        "{} vs {}",
        s.estimate,
        p.estimate
    );
    let (vs, vp) = (s.variance.unwrap(), p.variance.unwrap());
    assert!((vs - vp).abs() < 1e-9 * (1.0 + vs.abs()), "{vs} vs {vp}");
}

/// One replayed snapshot: `(chunk, rows, rendered estimate/variance,
/// per-relation progress)`.
type SnapshotKey = (u64, u64, String, Vec<(u64, u64)>);

/// `parallelism = 1` leaves every snapshot byte-identical to a replay with
/// the same seed — the sequential path is untouched by the parallel code.
#[test]
fn single_worker_replays_byte_identically() {
    let c = catalog(5000);
    let collect = || {
        let mut snaps: Vec<SnapshotKey> = Vec::new();
        let r = support::run(&sum_plan(0.5), &c, &opts(3, 256, 1), |s| {
            snaps.push((
                s.chunk,
                s.rows,
                format!("{:.17e} {:?}", s.aggs[0].estimate, s.aggs[0].variance),
                s.progress.clone(),
            ))
        })
        .unwrap();
        (snaps, r.snapshot.rows(), format!("{:?}", r.reason))
    };
    assert_eq!(collect(), collect());
}

/// A pull hint of `usize::MAX` used to wrap the scan cursor (`next + hint`)
/// and spin forever in release builds. The cursors saturate now: the first
/// pull takes the whole slice, the second is the empty exhaustion pull.
/// `adaptive_chunks` doubles the hint up to a cap that saturates the same
/// way, so it is part of the table.
#[test]
fn a_huge_chunk_hint_terminates_with_the_full_sample() {
    let c = catalog(1000);
    for shared in [false, true] {
        for jobs in [1, 2] {
            let engine = Engine::builder(c.clone()).shared_scans(shared).build();
            let query = |chunk_rows: usize, adaptive: bool| {
                engine
                    .session()
                    .query_plan(&sum_plan(0.5))
                    .seed(5)
                    .jobs(jobs)
                    .chunk_rows(chunk_rows)
                    .adaptive_chunks(adaptive)
            };
            let reference = query(64, false).run().unwrap();
            for adaptive in [false, true] {
                let case = format!("shared={shared} jobs={jobs} adaptive={adaptive}");
                let r = query(usize::MAX, adaptive).run().unwrap();
                assert_eq!(r.reason, StopReason::Exhausted, "{case}");
                assert_eq!(r.snapshot.rows(), reference.snapshot.rows(), "{case}");
                let (got, want) = (support::scalar(&r), support::scalar(&reference));
                let (e, w) = (got.aggs[0].estimate, want.aggs[0].estimate);
                assert!((e - w).abs() <= 1e-9 * w.abs(), "{case}: {e} vs {w}");
                let batch = query(usize::MAX, adaptive).batch().unwrap();
                assert_eq!(batch.snapshot.rows(), reference.snapshot.rows(), "{case}");
            }
        }
    }
}

/// `adaptive_chunks` grows the hint of the in-thread pull, so it is a
/// `parallelism = 1` knob: there it thins the snapshots without touching
/// the realized sample. Pool workers pull at the fixed `chunk_rows`
/// whatever the flag says — the same number of worker chunks either way.
#[test]
fn adaptive_chunks_apply_to_the_in_thread_pull_only() {
    let engine = Engine::builder(catalog(20_000)).metrics(true).build();
    let run = |jobs: usize, adaptive: bool| {
        let before = engine.metrics().counter("sa_worker_chunks_total");
        let r = engine
            .session()
            .query_plan(&sum_plan(0.5))
            .options(QueryOptions {
                adaptive_chunks: adaptive,
                ..opts(11, 64, jobs)
            })
            .run()
            .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        let after = engine.metrics().counter("sa_worker_chunks_total");
        (r, after.unwrap() - before.unwrap())
    };
    let same_estimates = |a: &QueryResult, b: &QueryResult| {
        assert_eq!(a.snapshot.rows(), b.snapshot.rows());
        let (a, b) = (&support::scalar(a).aggs[0], &support::scalar(b).aggs[0]);
        assert!((a.estimate - b.estimate).abs() <= 1e-9 * b.estimate.abs());
        let (va, vb) = (a.variance.unwrap(), b.variance.unwrap());
        assert!((va - vb).abs() <= 1e-9 * vb.abs(), "{va} vs {vb}");
    };
    let ((fixed, _), (adaptive, _)) = (run(1, false), run(1, true));
    same_estimates(&fixed, &adaptive);
    assert!(
        adaptive.chunks * 2 < fixed.chunks,
        "jobs 1: adaptive {} vs fixed {} snapshots",
        adaptive.chunks,
        fixed.chunks
    );
    let ((fixed, fixed_pulls), (adaptive, adaptive_pulls)) = (run(4, false), run(4, true));
    same_estimates(&fixed, &adaptive);
    assert!(fixed_pulls > 100, "20k rows in 64-row pulls: {fixed_pulls}");
    assert_eq!(
        fixed_pulls, adaptive_pulls,
        "jobs 4: the pool ignores the flag"
    );
}
