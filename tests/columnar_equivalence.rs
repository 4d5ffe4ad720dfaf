//! Row-vs-columnar equivalence: the columnar batch engine must be
//! observationally identical to row-at-a-time execution.
//!
//! * the row oracle and the stream realize one set of tuples for every
//!   `shaped_plan` shape × sampler × seed × chunk hint: one sampler design,
//!   applied at the root by one and at the scans by the other;
//! * a differential proptest draws a random plan (sampler × filter ×
//!   projection × optional join), a random seed and two independent chunk
//!   splits, and checks that the columnar stream
//!   ([`ChunkStream::next_batch`]) yields exactly the row adapter's tuples
//!   and that the batch-accumulated online estimate equals a per-row
//!   reference accumulation to 1e-12 (relative);
//! * adaptive chunk sizing ([`QueryOptions::adaptive_chunks`]) must change
//!   snapshot cadence only — the realized sample, and hence the exhaustion
//!   estimate, is pinned equal to the fixed-chunk run;
//! * `.batch()` is an exhaustive drain of the stream `.run()` opens: over
//!   plan shape × sampler × seed × `shuffle_scan` the two agree bit for bit
//!   on one worker (to 1e-9 on four), the stream realizes the same tuples
//!   with [`ExecOptions::disable_pushdown`] on or off, and Section 7
//!   sub-sampling leaves the point estimate untouched;
//! * `.exact()` runs that same drain, so its truth is checked against a
//!   hand fold over the row executor's tuples, NULL arguments included.

mod support;

use support::{catalog, shaped_plan, stacked_plan};

use proptest::prelude::*;

use sa_core::MomentAccumulator;
use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder};
use std::sync::Arc;

use sampling_algebra::exec::{
    execute, f_vector, layout_dims, open_shared_stream, open_stream, ExecOptions, Row, ScanObs,
    SharedTableScan,
};
use sampling_algebra::expr::col;
use sampling_algebra::online::{QueryOptions, Registry};
use sampling_algebra::prelude::*;

/// A random (non-aggregate) plan over `t` (possibly ⋈ `d`) plus the column
/// the SUM reference aggregates.
fn build_plan(
    sampler: u8,
    p: f64,
    wor: u64,
    pred: u8,
    proj: u8,
    join: bool,
) -> (LogicalPlan, Expr) {
    let mut plan = LogicalPlan::scan("t");
    plan = match sampler % 4 {
        0 => plan,
        1 => plan.sample(SamplingMethod::Bernoulli { p }),
        2 => plan.sample(SamplingMethod::Wor { size: wor }),
        _ => plan.sample(SamplingMethod::System { p }),
    };
    if join {
        plan = plan.join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
    }
    plan = match pred % 4 {
        0 => plan,
        1 => plan.filter(col("v").gt_eq(lit(25.0))),
        2 => plan.filter(col("k").lt(lit(6i64)).and(col("v").lt(lit(80.0)))),
        _ => plan.filter(col("s").eq(lit("a")).or(col("v").gt(lit(90.0)))),
    };
    match proj % 3 {
        0 => (plan, col("v")),
        1 => (
            plan.project(vec![(col("v").mul(lit(2.0)).sub(col("k")), "x".into())]),
            col("x"),
        ),
        _ => (
            plan.project(vec![
                (col("k").add(lit(1i64)), "kk".into()),
                (col("v"), "x".into()),
            ]),
            col("x"),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_stream_equals_row_stream_and_estimates_match(
        sampler in 0u8..4,
        p in 0.1f64..1.0,
        wor in 1u64..500,
        pred in 0u8..4,
        proj in 0u8..3,
        join in any::<bool>(),
        seed in 0u64..1000,
        hint_a in 1usize..300,
        hint_b in 1usize..300,
    ) {
        let c = catalog();
        let (input, agg_col) = build_plan(sampler, p, wor, pred, proj, join);
        let opts = ExecOptions { seed, ..Default::default() };

        // 1. Tuple equality: columnar batches vs the row adapter, under
        //    independent chunk splits (realization is chunk-independent).
        let mut via_batch = open_stream(&input, &c, &opts).unwrap();
        let mut batch_rows = Vec::new();
        loop {
            let chunk = via_batch.next_batch(hint_a).unwrap();
            if chunk.is_empty() {
                break;
            }
            batch_rows.extend(chunk.to_rows());
        }
        let row_rows = open_stream(&input, &c, &opts)
            .unwrap()
            .collect_rows(hint_b)
            .unwrap();
        prop_assert_eq!(&batch_rows, &row_rows);

        // 2. Estimate equality: the online driver's batch accumulation vs a
        //    per-row reference over the same realized rows.
        let plan = input.clone().aggregate(vec![AggSpec::sum(agg_col, "s")]);
        let online = support::run(
            &plan,
            &c,
            &QueryOptions {
                seed,
                chunk_rows: hint_a,
                ..Default::default()
            },
            |_| {},
        )
        .unwrap();
        let stream = open_stream(&input, &c, &opts).unwrap();
        let layout = layout_dims(
            match &plan {
                LogicalPlan::Aggregate { aggs, .. } => aggs,
                _ => unreachable!(),
            },
            stream.schema(),
        )
        .unwrap();
        let mut reference = MomentAccumulator::new(online.analysis.schema.n(), layout.dims());
        for row in &row_rows {
            reference
                .push(&row.lineage, &f_vector(&layout, row).unwrap())
                .unwrap();
        }
        let report = reference.report(&online.analysis.gus).unwrap();
        let (eo, er) = (support::scalar(&online).aggs[0].estimate, report.estimate[0]);
        prop_assert!(
            (eo - er).abs() <= 1e-12 * (1.0 + er.abs()),
            "estimate {eo} vs reference {er}"
        );
        match (support::scalar(&online).aggs[0].variance, report.variance(0).ok()) {
            (Some(vo), Some(vr)) => prop_assert!(
                (vo - vr).abs() <= 1e-12 * (1.0 + vr.abs()),
                "variance {vo} vs reference {vr}"
            ),
            (vo, vr) => prop_assert_eq!(vo.is_some(), vr.is_some()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One design, applied in two places: the row oracle samples at the
    /// root and the stream at its scans. Samplers commute with selection
    /// and join (Propositions 6–8), so for every shape × sampler × seed ×
    /// chunk hint the two realize one set of tuples.
    #[test]
    fn the_oracle_and_the_stream_realize_one_set(
        shape in 0u8..5,
        sampler in 0u8..4,
        p in 0.1f64..1.0,
        size in 1u64..600,
        seed in 0u64..10_000,
        hint in 1usize..400,
    ) {
        let c = catalog();
        let plan = match sampler {
            0 => shaped_plan(shape, SamplingMethod::Bernoulli { p }).0.strip_samples(),
            1 => shaped_plan(shape, SamplingMethod::Bernoulli { p }).0,
            2 => shaped_plan(shape, SamplingMethod::System { p }).0,
            _ => shaped_plan(shape, SamplingMethod::Wor { size }).0,
        };
        let LogicalPlan::Aggregate { input, .. } = &plan else { unreachable!() };
        let opts = ExecOptions { seed, ..Default::default() };
        let by_lineage = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| a.lineage.cmp(&b.lineage));
            rows
        };
        let oracle = by_lineage(execute(input, &c, &opts).unwrap().rows);
        let stream = by_lineage(open_stream(input, &c, &opts).unwrap().collect_rows(hint).unwrap());
        prop_assert_eq!(oracle, stream);
    }
}

/// Every (group key, sampled rows, aggregate) cell of a result, flattened
/// so a batch answer and a run's final snapshot compare cell by cell — a
/// scalar result's report included, as one more cell per dimension.
type Cells = Vec<(Vec<Value>, u64, f64, Option<f64>)>;

fn cells(key: &[Value], rows: u64, aggs: &[AggResult]) -> Cells {
    aggs.iter()
        .map(|a| (key.to_vec(), rows, a.estimate, a.variance))
        .collect()
}

fn run_cells(r: &QueryResult) -> (u64, Cells) {
    let mut out = match &r.snapshot {
        Snapshot::Scalar(s) => cells(&[], s.rows, &s.aggs),
        Snapshot::Grouped(s) => s
            .groups
            .iter()
            .flat_map(|g| cells(&g.key, g.sample_rows, &g.aggs))
            .collect(),
    };
    if let Some(report) = &r.report {
        out.extend((0..report.dims).map(|d| {
            let variance = report.raw_variance(d).ok();
            (vec![], report.m, report.estimate[d], variance)
        }));
    }
    (r.snapshot.rows(), out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole pin: same `(plan, QueryOptions)` ⇒ `.batch()` and
    /// `.run()` to exhaustion realize the same sample and return the same
    /// `QueryResult` — coverage, lineage entries and GUS equal, every
    /// estimate and variance (the report's included) `to_bits`-equal on
    /// one worker, 1e-9 on four.
    #[test]
    fn batch_is_the_exhausted_run(
        shape in 0u8..5,
        sampler in 0u8..4,
        p in 0.2f64..1.0,
        size in 1u64..600,
        seed in 0u64..10_000,
        chunk_rows in 1usize..400,
        shuffle_scan in any::<bool>(),
    ) {
        let c = catalog();
        let engine = Engine::new(c.clone());
        let stack = match sampler % 4 {
            0 => vec![SamplingMethod::Bernoulli { p }],
            1 => vec![SamplingMethod::System { p }],
            2 => vec![SamplingMethod::Wor { size }],
            _ => vec![SamplingMethod::Wor { size }, SamplingMethod::Bernoulli { p }],
        };
        let (plan, group_by) = stacked_plan(shape, &stack);
        // Pushdown is a property of the stream, not of the estimate: off,
        // the scans gather every column and keep filters apart, and the
        // realized tuples and lineage are the same.
        let LogicalPlan::Aggregate { input, .. } = &plan else { unreachable!() };
        let pushdown = ExecOptions { seed, shuffle_scan, ..Default::default() };
        let no_pushdown = ExecOptions { disable_pushdown: true, ..pushdown.clone() };
        prop_assert_eq!(
            open_stream(input, &c, &pushdown).unwrap().collect_rows(chunk_rows).unwrap(),
            open_stream(input, &c, &no_pushdown).unwrap().collect_rows(chunk_rows).unwrap()
        );
        for jobs in [1usize, 4] {
            let opts = QueryOptions {
                seed,
                chunk_rows,
                shuffle_scan,
                parallelism: jobs,
                ..Default::default()
            };
            let query = || {
                engine
                    .session()
                    .query_plan(&plan)
                    .group_by(group_by.clone())
                    .options(opts.clone())
            };
            let (batch, run) = (query().batch().unwrap(), query().run().unwrap());
            prop_assert_eq!(batch.reason, StopReason::Exhausted);
            prop_assert_eq!(run.reason, StopReason::Exhausted);
            prop_assert_eq!(batch.snapshot.progress(), run.snapshot.progress());
            prop_assert_eq!(batch.lineage_entries, run.lineage_entries);
            prop_assert_eq!(format!("{:?}", batch.snapshot.gus()), format!("{:?}", run.snapshot.gus()));
            prop_assert_eq!(batch.report.is_some(), group_by.is_empty());
            prop_assert_eq!(run.report.is_some(), group_by.is_empty());
            let ((batch_rows, batch), (run_rows, run)) = (run_cells(&batch), run_cells(&run));
            prop_assert_eq!(batch_rows, run_rows);
            prop_assert_eq!(batch.len(), run.len());
            for ((bk, bn, be, bv), (rk, rn, re, rv)) in batch.iter().zip(&run) {
                prop_assert_eq!(bk, rk);
                prop_assert_eq!(bn, rn);
                if jobs == 1 {
                    prop_assert_eq!(be.to_bits(), re.to_bits(), "{:?}: {} vs {}", bk, be, re);
                    prop_assert_eq!(
                        bv.map(f64::to_bits), rv.map(f64::to_bits),
                        "{:?}: variance {:?} vs {:?}", bk, bv, rv
                    );
                } else {
                    let close = |x: f64, y: f64| {
                        (x - y).abs() <= 1e-9 * (1.0 + y.abs()) || (x.is_nan() && y.is_nan())
                    };
                    prop_assert!(close(*be, *re), "{:?}: {} vs {}", bk, be, re);
                    match (bv, rv) {
                        (Some(bv), Some(rv)) => {
                            prop_assert!(close(*bv, *rv), "{:?}: variance {} vs {}", bk, bv, rv)
                        }
                        (bv, rv) => prop_assert_eq!(bv.is_some(), rv.is_some()),
                    }
                }
            }
        }
    }

    /// The premise of the one loop (Proposition 5: a group indicator is
    /// just another selection): a scalar aggregate is the grouped aggregate
    /// with zero keys, so a scalar run and the same plan grouped by a
    /// constant tick identically — `to_bits` on one worker, where both
    /// push the same chunks into the same accumulator type; to 1e-9 at
    /// exhaustion on four, where merge order is the scheduler's.
    #[test]
    fn scalar_is_grouped_with_a_constant_key(
        shape in 0u8..3,
        sampler in 0u8..3,
        p in 0.2f64..1.0,
        size in 1u64..600,
        seed in 0u64..10_000,
        chunk_rows in 1usize..200,
        stop in 0u8..3,
        budget in 1u64..300,
        epsilon in 0.05f64..0.6,
    ) {
        let engine = Engine::new(catalog());
        let method = match sampler {
            0 => SamplingMethod::Bernoulli { p },
            1 => SamplingMethod::System { p },
            _ => SamplingMethod::Wor { size },
        };
        // Shapes 0..3 are scan, filter + project, and the 2-way join.
        let (plan, _) = shaped_plan(shape, method);
        let rule = match stop {
            0 => StoppingRule::exhaustive(),
            1 => StoppingRule::rows(budget),
            _ => StoppingRule::ci(epsilon, 0.95),
        };
        // One tick, shape-blind: rows, the (estimate, variance) bits of
        // every aggregate, the judged width and the GUS it was read under
        // (`{:?}` prints an f64 in its shortest round-trip form, so equal
        // strings are equal bits).
        type Tick = (u64, Vec<(u64, Option<u64>)>, Option<u64>, String);
        let bits = |aggs: &[AggResult]| -> Vec<(u64, Option<u64>)> {
            aggs.iter()
                .map(|a| (a.estimate.to_bits(), a.variance.map(f64::to_bits)))
                .collect()
        };
        let ticks_of = |group_by: Vec<Expr>, jobs: usize| {
            let mut ticks: Vec<Tick> = Vec::new();
            let r = engine
                .session()
                .query_plan(&plan)
                .group_by(group_by)
                .options(QueryOptions {
                    seed,
                    chunk_rows,
                    rule: rule.clone(),
                    parallelism: jobs,
                    ..Default::default()
                })
                .run_with(|s| {
                    let aggs = match s {
                        Snapshot::Scalar(s) => bits(&s.aggs),
                        // No sampled tuple yet, no group: only the
                        // exhaustion tick of an empty sample gets here.
                        Snapshot::Grouped(s) if s.groups.is_empty() => {
                            assert_eq!(s.rows, 0);
                            Vec::new()
                        }
                        Snapshot::Grouped(s) => {
                            assert_eq!(s.groups.len(), 1);
                            assert_eq!(s.groups[0].key, vec![Value::Int(1)]);
                            assert_eq!(s.groups[0].sample_rows, s.rows);
                            bits(&s.groups[0].aggs)
                        }
                    };
                    let width = s.rel_half_width().map(f64::to_bits);
                    ticks.push((s.rows(), aggs, width, format!("{:?}", s.gus())));
                })
                .unwrap();
            assert_eq!(r.chunks as usize, ticks.len());
            (ticks, r.reason)
        };
        let (scalar, scalar_reason) = ticks_of(vec![], 1);
        let (grouped, grouped_reason) = ticks_of(vec![lit(1i64)], 1);
        prop_assert_eq!(scalar_reason, grouped_reason);
        prop_assert_eq!(scalar.len(), grouped.len());
        for (i, (s, g)) in scalar.iter().zip(&grouped).enumerate() {
            if s.0 == 0 {
                // The empty sample: a scalar zero against no group at all.
                prop_assert_eq!((g.0, &g.3), (0, &s.3), "tick {}", i + 1);
            } else {
                prop_assert_eq!(s, g, "tick {}", i + 1);
            }
        }
        if stop == 0 {
            let (scalar, _) = ticks_of(vec![], 4);
            let (grouped, _) = ticks_of(vec![lit(1i64)], 4);
            let (s, g) = (scalar.last().unwrap(), grouped.last().unwrap());
            prop_assert_eq!(s.0, g.0);
            let close = |x: u64, y: u64| {
                let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                (x - y).abs() <= 1e-9 * (1.0 + y.abs()) || (x.is_nan() && y.is_nan())
            };
            for ((se, sv), (ge, gv)) in s.1.iter().zip(&g.1) {
                prop_assert!(close(*se, *ge), "{} vs {}", f64::from_bits(*se), f64::from_bits(*ge));
                match (sv, gv) {
                    (Some(sv), Some(gv)) => prop_assert!(close(*sv, *gv)),
                    (sv, gv) => prop_assert_eq!(sv.is_some(), gv.is_some()),
                }
            }
        }
    }

    /// Section 7 through the drain: the point estimate is the un-sub-sampled
    /// one bit for bit, fewer tuples feed the variance, and the variance
    /// stays within the factor-3 band the fixed-seed unit test uses.
    #[test]
    fn subsampling_leaves_the_estimate_and_tracks_the_variance(
        shape in 0u8..3,
        p in 0.5f64..1.0,
        seed in 0u64..10_000,
        chunk_rows in 1usize..400,
    ) {
        let engine = Engine::new(catalog());
        let (plan, _) = shaped_plan(shape, SamplingMethod::Bernoulli { p });
        let query = || engine.session().query_plan(&plan).seed(seed).chunk_rows(chunk_rows);
        let (full, sub) = (query().batch().unwrap(), query().subsample(120).batch().unwrap());
        let rows = full.snapshot.rows();
        let variance_rows = sub.report.as_ref().unwrap().m;
        prop_assert_eq!(sub.snapshot.rows(), rows);
        prop_assert!(variance_rows <= rows);
        if rows > 240 {
            prop_assert!(variance_rows < rows);
        }
        let (full, sub) = (support::scalar(&full), support::scalar(&sub));
        for (f, s) in full.aggs.iter().zip(&sub.aggs) {
            prop_assert_eq!(f.estimate.to_bits(), s.estimate.to_bits(), "{}", &f.name);
        }
        // SUM only: the delta-method AVG of ~100 tuples is far noisier.
        if let (Some(vf), Some(vs)) = (full.aggs[0].variance, sub.aggs[0].variance) {
            prop_assert!(vs > vf / 3.0 && vs < vf * 3.0, "vf = {vf}, vs = {vs}");
        }
    }
}

/// A `QueryResult` is one readout: its `aggs` are what its `report` says,
/// to the bit, whichever terminal produced it — the drain's exhaustion
/// tick (`.batch()`, `.exact()`), the report itself (Section 7's
/// `.subsample(n).batch()`), or a `.run()` a row budget stopped mid-scan,
/// whose report is read under the stop's scan-scaled GUS. On a
/// single-table Bernoulli scan and a Bernoulli ⋈ Bernoulli join; under
/// GROUP BY there is no report.
#[test]
fn a_query_result_is_one_readout() {
    let c = catalog();
    let engine = Engine::new(c.clone());
    // `shaped_plan`'s SELECT list: SUM on dimension 0, COUNT(*) on 1, AVG
    // the ratio of dimension 2 over 3.
    let sum_and_count = [(0usize, 0usize), (1, 1)];
    let (avg, num, den) = (2usize, 2usize, 3usize);
    for shape in [0u8, 2] {
        let (plan, _) = shaped_plan(shape, SamplingMethod::Bernoulli { p: 0.4 });
        for seed in 0..20u64 {
            let query = || engine.session().query_plan(&plan).seed(seed);
            let stopped = query().chunk_rows(32).rows(100).run().unwrap();
            assert_eq!(stopped.reason, StopReason::RowBudget);
            assert_ne!(
                format!("{:?}", stopped.snapshot.gus()),
                format!("{:?}", stopped.analysis.gus),
                "shape {shape}, seed {seed}: stopped mid-scan"
            );
            for (what, r) in [
                ("batch", query().batch().unwrap()),
                ("subsample", query().subsample(60).batch().unwrap()),
                ("exact", query().exact().unwrap()),
                ("row budget", stopped.clone()),
            ] {
                let at = format!("shape {shape}, seed {seed}, {what}");
                let (aggs, report) = (&support::scalar(&r).aggs, r.report.as_ref().unwrap());
                for (i, dim) in sum_and_count {
                    let agg = &aggs[i];
                    assert_eq!(
                        agg.estimate.to_bits(),
                        report.estimate[dim].to_bits(),
                        "{at}"
                    );
                    assert_eq!(
                        agg.variance.map(f64::to_bits),
                        report.variance(dim).ok().map(f64::to_bits),
                        "{at}: {} variance",
                        agg.name
                    );
                }
                let cov = report.covariance.as_ref().unwrap();
                let ratio = sa_core::ratio_of(
                    (report.estimate[num], report.estimate[den]),
                    [cov.get(num, num), cov.get(num, den), cov.get(den, den)],
                );
                let agg = &aggs[avg];
                match ratio {
                    Ok(d) => {
                        assert_eq!(agg.estimate.to_bits(), d.value.to_bits(), "{at}: AVG");
                        assert_eq!(
                            agg.variance.map(f64::to_bits),
                            Some(d.variance.to_bits()),
                            "{at}"
                        );
                    }
                    Err(_) => assert!(agg.estimate.is_nan() && agg.variance.is_none(), "{at}"),
                }
            }
        }
    }
    let (plan, group_by) = shaped_plan(4, SamplingMethod::Bernoulli { p: 0.4 });
    assert!(!group_by.is_empty());
    let query = || {
        engine
            .session()
            .query_plan(&plan)
            .group_by(group_by.clone())
    };
    for r in [query().batch(), query().exact(), query().run()] {
        assert!(r.unwrap().report.is_none());
    }
}

/// `.exact()` is the drain under test, so it gets an oracle of its own: the
/// row executor's tuples folded by hand. `t.v` is NULL every 13th row, and
/// SQL's SUM, COUNT(v) and AVG skip those while COUNT(*) does not.
#[test]
fn exact_agrees_with_a_fold_over_the_row_executor() {
    let c = catalog();
    let input = LogicalPlan::scan("t").filter(col("k").lt(lit(9i64)));
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.3 })
        .filter(col("k").lt(lit(9i64)))
        .aggregate(vec![
            AggSpec::sum(col("v"), "s"),
            AggSpec::count_star("n"),
            AggSpec {
                expr: Some(col("v")),
                ..AggSpec::count_star("nv")
            },
            AggSpec::avg(col("v"), "a"),
        ]);
    let rows = execute(&input, &c, &ExecOptions::default()).unwrap().rows;
    let fold = |rows: &[&sampling_algebra::exec::Row]| {
        let vs: Vec<f64> = rows
            .iter()
            .filter_map(|r| match r.values[1] {
                Value::Float(v) => Some(v),
                _ => None,
            })
            .collect();
        let (sum, non_null) = (vs.iter().sum::<f64>(), vs.len() as f64);
        vec![sum, rows.len() as f64, non_null, sum / non_null]
    };
    let close = |got: &[f64], want: &[f64]| {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!(
                (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
                "{got:?} vs {want:?}"
            );
        }
    };
    let all: Vec<_> = rows.iter().collect();
    assert!(all.iter().any(|r| r.values[1] == Value::Null));
    close(&support::exact(&plan, &c).unwrap(), &fold(&all));
    let groups = support::exact_groups(&plan, &[col("k")], &c).unwrap();
    assert_eq!(groups.len(), 9);
    for (key, got) in &groups {
        let of_key: Vec<_> = rows.iter().filter(|r| r.values[0] == key[0]).collect();
        close(got, &fold(&of_key));
    }
}

#[test]
fn adaptive_chunks_change_cadence_not_estimates() {
    let c = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.8 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let run = |adaptive: bool| {
        support::run(
            &plan,
            &c,
            &QueryOptions {
                seed: 5,
                chunk_rows: 8,
                adaptive_chunks: adaptive,
                ..Default::default()
            },
            |_| {},
        )
        .unwrap()
    };
    let fixed = run(false);
    let adaptive = run(true);
    // The realized sample is chunk-size independent, so the exhaustion
    // estimates agree …
    assert_eq!(fixed.snapshot.rows(), adaptive.snapshot.rows());
    let (ef, ea) = (
        support::scalar(&fixed).aggs[0].estimate,
        support::scalar(&adaptive).aggs[0].estimate,
    );
    assert!((ef - ea).abs() <= 1e-9 * (1.0 + ef.abs()), "{ef} vs {ea}");
    let (vf, va) = (
        support::scalar(&fixed).aggs[0].variance.unwrap(),
        support::scalar(&adaptive).aggs[0].variance.unwrap(),
    );
    assert!((vf - va).abs() <= 1e-9 * (1.0 + vf.abs()), "{vf} vs {va}");
    // … while the adaptive run needs far fewer snapshots once the relative
    // CI width plateaus (8-row chunks over ~480 sampled rows: ~60 fixed
    // snapshots vs a doubling schedule).
    assert!(
        adaptive.chunks * 2 < fixed.chunks,
        "adaptive {} vs fixed {} snapshots",
        adaptive.chunks,
        fixed.chunks
    );
}

#[test]
fn adaptive_chunks_respect_the_cap_and_ci_rule() {
    // A CI-target run with adaptive chunks must still stop on the rule and
    // report a tight interval — growth only coarsens snapshot cadence.
    let mut c = Catalog::new();
    let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
    let mut b = TableBuilder::new("big", schema);
    for i in 0..60_000i64 {
        b.push_row(&[Value::Float(1.0 + (i % 7) as f64)]).unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    let plan = LogicalPlan::scan("big")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let r = support::run(
        &plan,
        &c,
        &QueryOptions {
            seed: 4,
            chunk_rows: 64,
            rule: StoppingRule::ci(0.05, 0.95),
            adaptive_chunks: true,
            ..Default::default()
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(r.reason, StopReason::CiConverged);
    assert!(r.snapshot.rel_half_width().unwrap() <= 0.05);
    assert!(
        r.snapshot.rows() < 30_000,
        "stopped early: {}",
        r.snapshot.rows()
    );
}

/// `z`: 640 rows in 80 blocks of 8 — `id`, the row id; `d = (id − 37)·(id −
/// 301)`, zero on rows 37 and 301 only (blocks 4 and 37); `x = id` as a
/// float, a column no predicate reads.
fn zero_divisor_catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("d", DataType::Int),
        Field::new("x", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("z", schema).with_block_rows(8);
    for i in 0..640i64 {
        b.push_row(&[
            Value::Int(i),
            Value::Int((i - 37) * (i - 301)),
            Value::Float(i as f64),
        ])
        .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

/// Drain every stream, returning the lineage ids of the rows or the first
/// error.
fn drain_lineage(streams: Vec<ChunkStream>, hint: usize) -> Result<Vec<u64>, String> {
    let mut ids = Vec::new();
    for s in streams {
        let rows = s.collect_rows(hint).map_err(|e| e.to_string())?;
        ids.extend(rows.iter().map(|r| r.lineage[0]));
    }
    ids.sort_unstable();
    Ok(ids)
}

/// The sampler decides before the predicate runs: a predicate that raises
/// integer division by zero on rows 37 and 301 raises iff the sample keeps
/// one of them — fused into the scan or not, on a private scan, a worker's
/// slice or a hub cursor — and every sampler has seeds whose coin drops
/// both, where nothing may raise.
#[test]
fn the_coin_runs_before_the_predicate() {
    let c = zero_divisor_catalog();
    let raises = lit(1_000_000i64).div(col("d")).gt(lit(0i64));
    for (method, offending) in [
        (SamplingMethod::Bernoulli { p: 0.5 }, [37, 301]),
        (SamplingMethod::Wor { size: 320 }, [37, 301]),
        (SamplingMethod::System { p: 0.5 }, [4, 37]),
    ] {
        let sampled = LogicalPlan::scan("z").sample(method.clone());
        let plan = sampled
            .clone()
            .filter(raises.clone())
            .project(vec![(col("x"), "x".into())]);
        let mut seen = [false; 2];
        for seed in 0..24 {
            let opts = ExecOptions {
                seed,
                ..Default::default()
            };
            let kept = drain_lineage(vec![open_stream(&sampled, &c, &opts).unwrap()], 64).unwrap();
            let hit = offending.iter().any(|u| kept.binary_search(u).is_ok());
            seen[usize::from(hit)] = true;
            let hub = Arc::new(SharedTableScan::new(c.get("z").unwrap(), 32));
            support::warm_hub(&hub, &c, 64);
            let shared = open_shared_stream(&plan, &c, &opts, &hub).unwrap();
            let mut runs = vec![("hub", drain_lineage(vec![shared], 64))];
            for disable_pushdown in [false, true] {
                for parts in [1, 3] {
                    for hint in [5, 64] {
                        let opts = ExecOptions {
                            seed,
                            disable_pushdown,
                            ..Default::default()
                        };
                        let streams = open_stream_partitioned(&plan, &c, &opts, parts).unwrap();
                        runs.push(("private", drain_lineage(streams, hint)));
                    }
                }
            }
            for (source, run) in runs {
                match run {
                    Err(e) => assert!(
                        hit && e.contains("division by zero"),
                        "{method} seed {seed} ({source}): raised `{e}` with no offending row kept"
                    ),
                    Ok(_) => assert!(
                        !hit,
                        "{method} seed {seed} ({source}): an offending row was kept and \
                         the predicate did not raise"
                    ),
                }
            }
        }
        assert_eq!(
            seen,
            [true, true],
            "{method}: both outcomes occur over the seeds"
        );
    }
}

/// `SYSTEM` touches only the blocks it keeps: on a private scan, with any
/// worker count, chunk hint or visit order, `pages_skipped` is exactly the
/// number of dropped blocks, while the realized set (block lineage, the
/// row oracle's), the block coverage and the empty distinct family are what
/// they were with the sampler above the scan. A dropped block counts as
/// covered as soon as the scan passes it.
#[test]
fn system_skips_exactly_the_pages_it_drops() {
    let c = zero_divisor_catalog();
    let plan = LogicalPlan::scan("z").sample(SamplingMethod::System { p: 0.5 });
    for seed in 0..12 {
        let oracle: Vec<u64> = {
            let opts = ExecOptions {
                seed,
                ..Default::default()
            };
            let mut ids: Vec<u64> = execute(&plan, &c, &opts)
                .unwrap()
                .rows
                .iter()
                .map(|r| r.lineage[0])
                .collect();
            ids.sort_unstable();
            ids
        };
        let mut blocks = oracle.clone();
        blocks.dedup();
        for shuffle_scan in [false, true] {
            for parts in [1, 3] {
                for hint in [8, 24, 100] {
                    let registry = Registry::new();
                    let opts = ExecOptions {
                        seed,
                        shuffle_scan,
                        scan_obs: ScanObs::new(&registry),
                        ..Default::default()
                    };
                    let mut streams = open_stream_partitioned(&plan, &c, &opts, parts).unwrap();
                    let mut ids = Vec::new();
                    for s in &mut streams {
                        assert!(
                            s.distinct().is_empty(),
                            "block lineage is distinct on nothing"
                        );
                        loop {
                            let chunk = s.next_batch(hint).unwrap();
                            if chunk.is_empty() {
                                break;
                            }
                            let last = *chunk.lineage[0].last().unwrap();
                            ids.extend_from_slice(&chunk.lineage[0]);
                            if parts == 1 && !shuffle_scan && hint % 8 == 0 {
                                // The pull consumed hint-row ranges up to the
                                // one holding its last kept block, dropped
                                // blocks and all.
                                let upto = ((last * 8 / hint as u64 + 1) * hint as u64).min(640);
                                assert_eq!(s.progress(), vec![(upto.div_ceil(8), 80)]);
                            }
                        }
                    }
                    ids.sort_unstable();
                    let cell =
                        format!("seed {seed} shuffle {shuffle_scan} parts {parts} hint {hint}");
                    assert_eq!(ids, oracle, "{cell}");
                    let progress: u64 = streams.iter().map(|s| s.progress()[0].0).sum();
                    assert_eq!(progress, 80, "{cell}");
                    let m = registry.snapshot();
                    assert_eq!(
                        m.counter("sa_scan_pages_skipped_total"),
                        Some(80 - blocks.len() as u64),
                        "{cell}"
                    );
                    assert_eq!(m.counter("sa_scan_rows_scanned_total"), Some(640), "{cell}");
                    assert_eq!(
                        m.counter("sa_scan_rows_gathered_total"),
                        Some(oracle.len() as u64),
                        "{cell}"
                    );
                }
            }
        }
    }
}
