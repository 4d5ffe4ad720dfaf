//! The batch terminal: drain the stream `.run()` opens, read out once.
//!
//! The SBox needs only lineage ids and `f` values (Section 6.2), so a
//! one-shot estimate is the progressive loop without its ticks — literally
//! [`drive`] with `every_chunk = false`: the same [`open_aggregate`]
//! preamble, the same per-chunk accumulation, and one tick, at exhaustion,
//! read under the plan GUS into the `QueryResult` `.run()` returns. Same
//! `(plan, QueryOptions)` therefore means the same realized sample as
//! `.run()` to exhaustion, and on one worker the same bits in every
//! estimate and variance — as long as the run pulls at the fixed
//! `chunk_rows` the batch pulls at. With `adaptive_chunks` the run's pulls
//! grow, the sums round at other boundaries, and the two agree to 1e-9.
//!
//! With `parallelism = N` the batch drains the N disjoint slices `.run()`
//! would hand its workers, one after the other on the calling thread: the
//! realized sample and its summed coverage are the parallel run's, and
//! with no ticks to overlap there is nothing for a worker pool to hide.

use std::time::Instant;

use sa_core::{EstimateReport, GusParams, LineageBernoulli, MomentAccumulator, RelSet};
use sa_exec::{agg_results_from_report, DrainedSample};
use sa_expr::Expr;
use sa_plan::{LogicalPlan, StopReason};
use sa_storage::Catalog;

use crate::api::{QueryOptions, QueryResult, Snapshot};
use crate::driver::{
    add_coverage, drive, open_aggregate, worst_rel_half_width, Listeners, OpenedAggregate,
    ProgressSnapshot, RunCtx,
};
use crate::error::Error;
use crate::Result;

/// Estimate `plan`'s aggregates (per `group_by` key, if any) from its whole
/// sample: the progressive loop with its mid-stream ticks suppressed —
/// or, under Section 7 sub-sampling, the same drain into a second sink —
/// read out once into the result every terminal returns.
pub(crate) fn drain_batch(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
    opts: &QueryOptions,
    ctx: &RunCtx,
) -> Result<QueryResult> {
    let Some(target) = opts.subsample_target else {
        return drive(
            plan,
            group_by,
            catalog,
            opts,
            ctx,
            false,
            Listeners::default(),
        );
    };
    // Section 7 needs the whole sample in hand before it can pick the
    // sub-sample's keep probability, so it drains the same streams into a
    // second sink instead of the moment accumulator.
    let OpenedAggregate {
        analysis,
        streams,
        scalar,
    } = open_aggregate(plan, catalog, opts, ctx, group_by)?;
    let start = Instant::now();
    // A sub-sample of a stream distinct on a set is distinct on it too.
    let distinct = streams[0].distinct();
    let mut sample = DrainedSample::new(scalar.n, scalar.layout.dims());
    let mut progress = vec![(0, 0); scalar.n];
    for mut stream in streams {
        stream.drain(opts.chunk_rows, |chunk| {
            Ok::<_, Error>(sample.push(&scalar.dim_eval, chunk)?)
        })?;
        add_coverage(&mut progress, &stream.progress());
    }
    let (report, lineage_entries) =
        subsampled_report(&sample, &distinct, &analysis.gus, target, opts.seed)?;
    let confidence = opts.rule.confidence_or(opts.confidence);
    let aggs = agg_results_from_report(scalar.aggs, &scalar.layout, &report, confidence);
    let snapshot = ProgressSnapshot {
        chunk: 1,
        rows: sample.rows() as u64,
        rel_half_width: worst_rel_half_width(&aggs),
        aggs,
        confidence,
        progress,
        gus: analysis.gus.clone(),
        elapsed: start.elapsed(),
    };
    Ok(QueryResult {
        reason: StopReason::Exhausted,
        snapshot: Snapshot::Scalar(snapshot),
        chunks: 1,
        lineage_entries,
        analysis,
        report: Some(report),
    })
}

/// Section 7: the point estimate from every tuple under the plan GUS; the
/// covariance from a lineage-hash sub-sample of about `target` tuples,
/// read for the plan GUS through `w(compacted, gus)` — the sub-sample was
/// drawn under the plan GUS compacted with the sub-sampler (Figure 5's
/// pipeline). The per-relation keep probability is chosen so the expected
/// surviving count is near the target; a result already that small is not
/// sub-sampled. The accumulator it is read from is promised the stream's
/// `distinct` family; the report comes back with its lineage entries.
fn subsampled_report(
    sample: &DrainedSample,
    distinct: &[RelSet],
    gus: &GusParams,
    target: u64,
    seed: u64,
) -> Result<(EstimateReport, usize)> {
    let (n, dims, m) = (sample.lineage.len(), sample.f.len(), sample.rows() as u64);
    let mut acc = MomentAccumulator::with_lineage(n, dims, distinct);
    if m <= target || n == 0 {
        acc.push_batch(&as_slices(&sample.lineage), &as_slices(&sample.f))?;
        return Ok((acc.report(gus)?, acc.lineage_entries()));
    }
    let keep = (target as f64 / m as f64).powf(1.0 / n as f64);
    let filter = LineageBernoulli::uniform(
        gus.schema().clone(),
        keep,
        seed ^ 0x5u64.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    )?;
    let mut id = vec![0u64; n];
    let kept: Vec<usize> = (0..m as usize)
        .filter(|&r| {
            for (slot, col) in id.iter_mut().zip(&sample.lineage) {
                *slot = col[r];
            }
            filter.keeps(&id)
        })
        .collect();
    let sub_lineage = gather(&sample.lineage, &kept);
    let sub_f = gather(&sample.f, &kept);
    acc.push_batch(&as_slices(&sub_lineage), &as_slices(&sub_f))?;
    // Summed in row order from zero, exactly as the accumulator's running
    // total is — the estimate matches the un-sub-sampled one bit for bit.
    let estimate = sample
        .f
        .iter()
        .map(|col| col.iter().fold(0.0, |t, v| t + v) / gus.a())
        .collect();
    let compacted = gus.compact(&filter.gus())?;
    let report = EstimateReport::between(&compacted, gus, acc.snapshot(), estimate)?;
    Ok((report, acc.lineage_entries()))
}

/// The `rows` of every column, in order.
fn gather<T: Copy>(cols: &[Vec<T>], rows: &[usize]) -> Vec<Vec<T>> {
    cols.iter()
        .map(|col| rows.iter().map(|&r| col[r]).collect())
        .collect()
}

fn as_slices<T>(cols: &[Vec<T>]) -> Vec<&[T]> {
    cols.iter().map(Vec::as_slice).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, GroupedProgressSnapshot};
    use sa_exec::AggResult;
    use sa_expr::col;
    use sa_plan::AggSpec;
    use sa_sampling::SamplingMethod;
    use sa_storage::{DataType, Field, Schema, TableBuilder, Value};

    /// `t(k, v)`: 2000 rows of v = 1.0; `d(dk, w)`: 10 rows of w = 2.0.
    fn engine() -> Engine {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..2000 {
            b.push_row(&[Value::Int(i % 10), Value::Float(1.0)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let schema = Schema::new(vec![
            Field::new("dk", DataType::Int),
            Field::new("w", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("d", schema);
        for i in 0..10 {
            b.push_row(&[Value::Int(i), Value::Float(2.0)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        Engine::new(c)
    }

    /// `t(g, v)`: three groups with known totals — A: 1000×1.0, B: 500×2.0,
    /// C: 100×5.0.
    fn grouped_engine() -> Engine {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for (g, v, rows) in [("A", 1.0, 1000), ("B", 2.0, 500), ("C", 5.0, 100)] {
            for _ in 0..rows {
                b.push_row(&[Value::str(g), Value::Float(v)]).unwrap();
            }
        }
        c.register(b.finish().unwrap()).unwrap();
        Engine::new(c)
    }

    fn sum_plan(p: f64) -> LogicalPlan {
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p })
            .aggregate(vec![AggSpec::sum(col("v"), "s")])
    }

    fn scalar(engine: &Engine, plan: &LogicalPlan, seed: u64) -> QueryResult {
        engine
            .session()
            .query_plan(plan)
            .seed(seed)
            .batch()
            .unwrap()
    }

    fn aggs(r: &QueryResult) -> &[AggResult] {
        &r.snapshot
            .as_scalar()
            .expect("zero keys read out scalar")
            .aggs
    }

    fn grouped(engine: &Engine, plan: &LogicalPlan, seed: u64) -> GroupedProgressSnapshot {
        let r = engine
            .session()
            .query_plan(plan)
            .group_by(vec![col("g")])
            .seed(seed)
            .batch()
            .unwrap();
        assert!(r.report.is_none());
        r.snapshot
            .as_grouped()
            .expect("keys read out grouped")
            .clone()
    }

    #[test]
    fn single_table_estimate_near_truth() {
        let r = scalar(&engine(), &sum_plan(0.5), 0);
        let a = &aggs(&r)[0];
        // Truth is 2000; B(0.5) estimate has σ = √((1−p)/p·Σf²) = √2000 ≈ 45.
        assert!(
            (a.estimate - 2000.0).abs() < 250.0,
            "estimate {}",
            a.estimate
        );
        let ci = a.ci_normal.unwrap();
        assert!(ci.width() > 0.0);
        assert!(a.ci_chebyshev.unwrap().width() > ci.width());
        assert_eq!(r.report.unwrap().m, r.snapshot.rows());
    }

    #[test]
    fn exact_strips_samples() {
        let r = engine()
            .session()
            .query_plan(&sum_plan(0.1))
            .exact()
            .unwrap();
        assert_eq!(aggs(&r)[0].estimate, 2000.0);
        assert_eq!(r.snapshot.rows(), 2000);
        assert!(aggs(&r)[0].variance.unwrap().abs() < 1e-6);
    }

    #[test]
    fn count_and_avg() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .aggregate(vec![AggSpec::count_star("c"), AggSpec::avg(col("v"), "a")]);
        let r = scalar(&engine(), &plan, 7);
        let r = aggs(&r);
        assert!((r[0].estimate - 2000.0).abs() < 250.0);
        // AVG of a constant column is exactly 1 with ~zero variance.
        assert!((r[1].estimate - 1.0).abs() < 1e-9);
        assert!(r[1].variance.unwrap() < 1e-9);
    }

    /// SQL's AVG skips NULL arguments in numerator and denominator alike.
    /// `t(v)`: 5 NULLs and 5 × 4.0, so SUM = 20, COUNT(v) = 5, AVG = 4 —
    /// hand-computed truth, not read back from the drain under test.
    #[test]
    fn avg_counts_non_null_arguments_only() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..10 {
            let v = if i % 2 == 0 {
                Value::Null
            } else {
                Value::Float(4.0)
            };
            b.push_row(&[v]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let engine = Engine::new(c);
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.6 })
            .aggregate(vec![
                AggSpec::avg(col("v"), "a"),
                AggSpec::sum(col("v"), "s"),
                AggSpec {
                    expr: Some(col("v")),
                    ..AggSpec::count_star("cv")
                },
                AggSpec::count_star("c"),
            ]);
        let out = engine.session().query_plan(&plan).exact().unwrap();
        let exact: Vec<f64> = aggs(&out).iter().map(|a| a.estimate).collect();
        assert_eq!(exact, vec![4.0, 20.0, 5.0, 10.0]);
        // Every non-NULL v is 4.0, so any sample holding one estimates the
        // AVG exactly; COUNT(*) as the denominator would pull it toward 2.
        let sampled = (0..20)
            .map(|seed| scalar(&engine, &plan, seed))
            .filter(|r| aggs(r)[2].estimate > 0.0);
        let mut seen = 0;
        for r in sampled {
            let avg = &aggs(&r)[0];
            assert!((avg.estimate - 4.0).abs() < 1e-12, "{avg:?}");
            seen += 1;
        }
        assert!(seen > 10, "only {seen} samples held a non-NULL row");
    }

    #[test]
    fn quantile_view_bounds() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .aggregate(vec![
                AggSpec::sum(col("v"), "lo").with_quantile(0.05),
                AggSpec::sum(col("v"), "hi").with_quantile(0.95),
            ]);
        let r = scalar(&engine(), &plan, 0);
        let r = aggs(&r);
        let lo = r[0].quantile_bound.unwrap();
        let hi = r[1].quantile_bound.unwrap();
        assert!(lo < r[0].estimate && r[1].estimate < hi);
    }

    #[test]
    fn join_query_estimates() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")))
            .aggregate(vec![AggSpec::sum(col("w"), "s")]);
        let r = scalar(&engine(), &plan, 0);
        // Truth: every t row joins one d row, Σw = 2000·2 = 4000.
        assert!((aggs(&r)[0].estimate - 4000.0).abs() < 600.0);
        assert_eq!(r.analysis.schema.n(), 2);
        assert!(aggs(&r)[0].variance.unwrap() > 0.0);
    }

    #[test]
    fn subsampled_variance_close_to_full() {
        let engine = engine();
        let plan = sum_plan(0.8);
        let full = scalar(&engine, &plan, 0);
        let sub = |target| {
            engine
                .session()
                .query_plan(&plan)
                .seed(0)
                .subsample(target)
                .batch()
                .unwrap()
        };
        let variance_rows = |r: &QueryResult| r.report.as_ref().unwrap().m;
        let part = sub(300);
        // Same point estimate (it uses the full result in both cases)…
        assert_eq!(
            aggs(&full)[0].estimate.to_bits(),
            aggs(&part)[0].estimate.to_bits()
        );
        assert_eq!(part.snapshot.rows(), full.snapshot.rows());
        // …and far fewer rows for variance estimation.
        assert!(variance_rows(&part) < variance_rows(&full) / 2);
        // Variance agrees within a factor of 3 (it is an estimate of the
        // same quantity from ~300 tuples).
        let vf = aggs(&full)[0].variance.unwrap();
        let vs = aggs(&part)[0].variance.unwrap();
        assert!(vs > vf / 3.0 && vs < vf * 3.0, "vf={vf}, vs={vs}");
        // A target the result already meets leaves the variance alone.
        assert_eq!(variance_rows(&sub(1_000_000)), full.snapshot.rows());
        // A sub-sample of no tuples keeps the estimate and has no variance.
        let none = sub(0);
        assert_eq!(
            aggs(&none)[0].estimate.to_bits(),
            aggs(&full)[0].estimate.to_bits()
        );
        assert_eq!((aggs(&none)[0].variance, variance_rows(&none)), (None, 0));
    }

    #[test]
    fn non_aggregate_root_rejected_in_builder_terms() {
        let err = engine()
            .session()
            .query_plan(&LogicalPlan::scan("t"))
            .batch()
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
        assert!(err.to_string().contains(".batch()"), "{err}");
    }

    #[test]
    fn unsampled_plan_yields_exact_with_zero_variance() {
        let plan = LogicalPlan::scan("t").aggregate(vec![AggSpec::sum(col("v"), "s")]);
        let r = scalar(&engine(), &plan, 0);
        assert_eq!(aggs(&r)[0].estimate, 2000.0);
        assert!(aggs(&r)[0].variance.unwrap().abs() < 1e-6);
    }

    fn grouped_plan() -> LogicalPlan {
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .aggregate(vec![AggSpec::sum(col("v"), "s"), AggSpec::count_star("n")])
    }

    #[test]
    fn per_group_estimates_near_truth() {
        let r = grouped(&grouped_engine(), &grouped_plan(), 3);
        assert_eq!(r.groups.len(), 3);
        assert_eq!(r.group_exprs, vec!["g".to_string()]);
        assert_eq!(r.rows, r.groups.iter().map(|g| g.sample_rows).sum::<u64>());
        let truth = [
            ("A", 1000.0, 1000.0),
            ("B", 1000.0, 500.0),
            ("C", 500.0, 100.0),
        ];
        for (g, (name, sum, count)) in r.groups.iter().zip(&truth) {
            assert_eq!(g.key, vec![Value::str(*name)]);
            let ci = g.aggs[0].ci_chebyshev.as_ref().unwrap();
            assert!(ci.contains(*sum), "{name}: {ci} misses {sum}");
            let ci = g.aggs[1].ci_chebyshev.as_ref().unwrap();
            assert!(ci.contains(*count), "{name}: {ci} misses {count}");
        }
    }

    #[test]
    fn per_group_unbiased_across_trials() {
        let engine = grouped_engine();
        let plan = grouped_plan();
        let trials = 150u64;
        let mut sum_a = 0.0;
        for seed in 0..trials {
            let r = grouped(&engine, &plan, seed);
            let a = r
                .groups
                .iter()
                .find(|g| g.key == vec![Value::str("A")])
                .unwrap();
            sum_a += a.aggs[0].estimate;
        }
        let mean = sum_a / trials as f64;
        assert!((mean - 1000.0).abs() < 25.0, "mean {mean}");
    }

    #[test]
    fn exact_per_group_truth() {
        let out = grouped_engine()
            .session()
            .query_plan(&grouped_plan())
            .group_by(vec![col("g")])
            .exact()
            .unwrap();
        let got: Vec<(Vec<Value>, Vec<f64>)> = out
            .snapshot
            .as_grouped()
            .unwrap()
            .groups
            .iter()
            .map(|g| (g.key.clone(), g.aggs.iter().map(|a| a.estimate).collect()))
            .collect();
        assert_eq!(
            got,
            vec![
                (vec![Value::str("A")], vec![1000.0, 1000.0]),
                (vec![Value::str("B")], vec![1000.0, 500.0]),
                (vec![Value::str("C")], vec![500.0, 100.0]),
            ]
        );
    }

    #[test]
    fn unseen_groups_are_absent() {
        // At a very low rate the rare group C (100 rows) can vanish.
        let engine = grouped_engine();
        let sparse = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.005 })
            .aggregate(vec![AggSpec::count_star("n")]);
        let saw_missing = (0..30).any(|seed| grouped(&engine, &sparse, seed).groups.len() < 3);
        assert!(saw_missing, "expected some run to miss the rare group");
    }

    #[test]
    fn avg_per_group() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .aggregate(vec![AggSpec::avg(col("v"), "a")]);
        let r = grouped(&grouped_engine(), &plan, 1);
        // AVG within each constant-valued group is exact.
        for (g, expect) in r.groups.iter().zip([1.0, 2.0, 5.0]) {
            assert!((g.aggs[0].estimate - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn batch_is_the_exhausted_run_bit_for_bit() {
        let engine = grouped_engine();
        let plan = grouped_plan();
        let query = || engine.session().query_plan(&plan).seed(11).chunk_rows(97);
        let (run, batch) = (query().run().unwrap(), query().batch().unwrap());
        assert_eq!(batch.snapshot.rows(), run.snapshot.rows());
        for (b, r) in aggs(&batch).iter().zip(aggs(&run)) {
            assert_eq!(b.estimate.to_bits(), r.estimate.to_bits());
            assert_eq!(
                b.variance.map(f64::to_bits),
                r.variance.map(f64::to_bits),
                "{}",
                b.name
            );
        }
    }
}
