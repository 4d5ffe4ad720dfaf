//! The engine's batch and exact terminals as one-liners over a borrowed
//! catalog, for suites that run one plan at many seeds. Every helper goes
//! through `Engine` — the only entry point there is.

#![allow(dead_code)] // each suite uses its own subset

use std::collections::BTreeMap;

use sampling_algebra::prelude::*;

fn query(plan: &LogicalPlan, catalog: &Catalog, seed: u64, confidence: f64) -> QueryBuilder {
    Engine::new(catalog.clone())
        .session()
        .query_plan(plan)
        .seed(seed)
        .confidence(confidence)
}

fn estimates(aggs: &[AggResult]) -> Vec<f64> {
    aggs.iter().map(|a| a.estimate).collect()
}

/// `plan`'s scalar batch answer from the sample `seed` realizes, with
/// intervals at `confidence`.
pub fn batch(
    plan: &LogicalPlan,
    catalog: &Catalog,
    seed: u64,
    confidence: f64,
) -> Result<ApproxResult, Error> {
    match query(plan, catalog, seed, confidence).batch()? {
        BatchOutput::Scalar(r) => Ok(r),
        BatchOutput::Grouped(_) => unreachable!("no GROUP BY keys were given"),
    }
}

/// `plan`'s per-group batch answer, grouped by `group_by`.
pub fn batch_groups(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
    seed: u64,
    confidence: f64,
) -> Result<GroupedApproxResult, Error> {
    let query = query(plan, catalog, seed, confidence).group_by(group_by.to_vec());
    match query.batch()? {
        BatchOutput::Grouped(r) => Ok(r),
        BatchOutput::Scalar(_) => unreachable!("GROUP BY keys were given"),
    }
}

/// The exact aggregate values of `plan` (sampling stripped), in `SELECT`
/// order.
pub fn exact(plan: &LogicalPlan, catalog: &Catalog) -> Result<Vec<f64>, Error> {
    match query(plan, catalog, 0, 0.95).exact()? {
        BatchOutput::Scalar(r) => Ok(estimates(&r.aggs)),
        BatchOutput::Grouped(_) => unreachable!("no GROUP BY keys were given"),
    }
}

/// The exact per-group aggregate values of `plan`, keyed by group.
pub fn exact_groups(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
) -> Result<BTreeMap<Vec<Value>, Vec<f64>>, Error> {
    let query = query(plan, catalog, 0, 0.95).group_by(group_by.to_vec());
    match query.exact()? {
        BatchOutput::Grouped(r) => Ok(r
            .groups
            .into_iter()
            .map(|g| (g.key, estimates(&g.aggs)))
            .collect()),
        BatchOutput::Scalar(_) => unreachable!("GROUP BY keys were given"),
    }
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

/// The final snapshot of a [`run`].
pub fn scalar(r: &QueryResult) -> &ProgressSnapshot {
    r.snapshot.as_scalar().expect("no GROUP BY keys were given")
}

/// The final snapshot of a [`run_groups`].
pub fn grouped(r: &QueryResult) -> &GroupedProgressSnapshot {
    r.snapshot.as_grouped().expect("GROUP BY keys were given")
}
