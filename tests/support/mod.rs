//! The engine's terminals as one-liners over a borrowed catalog, for
//! suites that run one plan at many seeds, and one reader of every
//! terminal's result ([`scalar`], [`grouped`]). Every helper goes through
//! `Engine` — the only entry point there is. Also the plan shape × sampler
//! generator ([`shaped_plan`] over [`catalog`]) the generated suites share.

#![allow(dead_code)] // each suite uses its own subset

use std::collections::BTreeMap;
use std::sync::Arc;

use sampling_algebra::exec::{open_shared_stream, SharedTableScan};
use sampling_algebra::prelude::*;

/// `plan` over a private engine on `catalog`, at `seed`, with intervals at
/// `confidence` — ready for any terminal.
pub fn query(plan: &LogicalPlan, catalog: &Catalog, seed: u64, confidence: f64) -> QueryBuilder {
    Engine::new(catalog.clone())
        .session()
        .query_plan(plan)
        .seed(seed)
        .confidence(confidence)
}

fn estimates(aggs: &[AggResult]) -> Vec<f64> {
    aggs.iter().map(|a| a.estimate).collect()
}

/// The exact aggregate values of `plan` (sampling stripped), in `SELECT`
/// order.
pub fn exact(plan: &LogicalPlan, catalog: &Catalog) -> Result<Vec<f64>, Error> {
    let r = query(plan, catalog, 0, 0.95).exact()?;
    Ok(estimates(&scalar(&r).aggs))
}

/// The exact per-group aggregate values of `plan`, keyed by group.
pub fn exact_groups(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
) -> Result<BTreeMap<Vec<Value>, Vec<f64>>, Error> {
    let query = query(plan, catalog, 0, 0.95).group_by(group_by.to_vec());
    let r = query.exact()?;
    Ok(grouped(&r)
        .groups
        .iter()
        .map(|g| (g.key.clone(), estimates(&g.aggs)))
        .collect())
}

/// Run `plan` progressively under `opts` on a private scan, handing every
/// scalar snapshot to `on_snapshot`.
pub fn run(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &QueryOptions,
    mut on_snapshot: impl FnMut(&ProgressSnapshot),
) -> Result<QueryResult, Error> {
    Engine::new(catalog.clone())
        .session()
        .query_plan(plan)
        .options(opts.clone())
        .run_with(|s| on_snapshot(s.as_scalar().expect("no GROUP BY keys were given")))
}

/// [`run`] grouped by `group_by` (at least one key).
pub fn run_groups(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
    opts: &QueryOptions,
    mut on_snapshot: impl FnMut(&GroupedProgressSnapshot),
) -> Result<QueryResult, Error> {
    Engine::new(catalog.clone())
        .session()
        .query_plan(plan)
        .group_by(group_by.to_vec())
        .options(opts.clone())
        .run_with(|s| on_snapshot(s.as_grouped().expect("GROUP BY keys were given")))
}

/// The final snapshot of a scalar result, whichever terminal produced it.
pub fn scalar(r: &QueryResult) -> &ProgressSnapshot {
    r.snapshot.as_scalar().expect("no GROUP BY keys were given")
}

/// The final snapshot of a grouped result, whichever terminal produced it.
pub fn grouped(r: &QueryResult) -> &GroupedProgressSnapshot {
    r.snapshot.as_grouped().expect("GROUP BY keys were given")
}

/// Advance `hub`'s head past `origin` rows by reading a scan of its table
/// off it, so the next cursor attaches mid-table (at the first bus chunk
/// boundary from there).
pub fn warm_hub(hub: &Arc<SharedTableScan>, catalog: &Catalog, origin: u64) {
    let scan = LogicalPlan::scan(hub.table().name());
    let mut warm = open_shared_stream(&scan, catalog, &ExecOptions::default(), hub).unwrap();
    while warm.progress()[0].0 < origin {
        warm.next_batch(256).unwrap();
    }
}

/// `t`: 600 rows of (k Int, v Float-with-NULLs, s Str-with-NULLs), block
/// size 16 (so SYSTEM sampling has 38 blocks); `d`: a 12-row dimension
/// table for the join case.
pub fn catalog() -> Catalog {
    catalog_of(|i| (i % 97) as f64 + 0.25)
}

/// [`catalog`] with `v`'s non-NULL cell of row `i` set to `v(i)`.
pub fn catalog_of(v: impl Fn(i64) -> f64) -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
        Field::new("s", DataType::Str),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema).with_block_rows(16);
    for i in 0..600i64 {
        let v = if i % 13 == 0 {
            Value::Null
        } else {
            Value::Float(v(i))
        };
        let s = match i % 7 {
            0 => Value::Null,
            1 | 2 => Value::str("a"),
            3 => Value::str("bb"),
            _ => Value::str("ccc"),
        };
        b.push_row(&[Value::Int(i % 12), v, s]).unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    let schema = Schema::new(vec![
        Field::new("dk", DataType::Int),
        Field::new("w", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("d", schema);
    for i in 0..12i64 {
        b.push_row(&[Value::Int(i), Value::Float(10.0 * i as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

/// One of the five plan shapes the batch-vs-run pin walks, with its GROUP BY
/// keys (empty unless the shape is grouped).
pub fn shaped_plan(shape: u8, method: SamplingMethod) -> (LogicalPlan, Vec<Expr>) {
    stacked_plan(shape, &[method])
}

/// [`shaped_plan`] with `t` sampled by every method of `stack`, innermost
/// first.
pub fn stacked_plan(shape: u8, stack: &[SamplingMethod]) -> (LogicalPlan, Vec<Expr>) {
    let sampled = || {
        stack
            .iter()
            .fold(LogicalPlan::scan("t"), |plan, m| plan.sample(m.clone()))
    };
    let aggs = |value: Expr| {
        vec![
            AggSpec::sum(value.clone(), "s"),
            AggSpec::count_star("n"),
            AggSpec::avg(value, "a"),
        ]
    };
    match shape % 5 {
        0 => (sampled().aggregate(aggs(col("v"))), vec![]),
        1 => (
            sampled()
                .filter(col("k").lt(lit(9i64)).and(col("v").lt(lit(90.0))))
                .project(vec![(col("v").mul(lit(2.0)).sub(col("k")), "x".into())])
                .aggregate(aggs(col("x"))),
            vec![],
        ),
        // The build side is sampled and filtered too: it is materialized
        // through the same operator tree the probe side streams through.
        2 => (
            sampled()
                .join_on(
                    LogicalPlan::scan("d")
                        .sample(SamplingMethod::Bernoulli { p: 0.75 })
                        .filter(col("w").gt_eq(lit(10.0))),
                    col("k").eq(col("dk")),
                )
                .aggregate(aggs(col("v").add(col("w")))),
            vec![],
        ),
        3 => {
            // Lineage granularity must match across the union.
            let second = match stack.first() {
                Some(SamplingMethod::System { .. }) => SamplingMethod::System { p: 0.3 },
                _ => SamplingMethod::Bernoulli { p: 0.3 },
            };
            let union = sampled().union_samples(LogicalPlan::scan("t").sample(second));
            (union.aggregate(aggs(col("v"))), vec![])
        }
        _ => (sampled().aggregate(aggs(col("v"))), vec![col("k")]),
    }
}
