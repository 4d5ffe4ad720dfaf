//! Grouped online aggregation: per-group accumulators, per-group stopping.
//!
//! `drive_grouped` is the `GROUP BY` counterpart of the scalar loop in
//! [`crate::driver`] — what `QueryBuilder::run` / `run_with` / `online`
//! execute when the query has group keys. The GUS algebra needs nothing new
//! for it: a group's SUM is the SUM-like aggregate of
//! `f_g(t) = f(t)·1{key(t) = g}` — the group indicator is just another
//! selection (Proposition 5) — so the *same* top GUS from the one-time SOA
//! rewrite analyzes every group, and each group gets its own unbiased
//! estimate and variance. The driver pulls the existing
//! [`sa_exec::ChunkStream`], routes each sampled tuple to its group's
//! incremental [`sa_core::GroupedMomentAccumulator`] slot, applies the
//! scan-progress GUS scaling (Proposition 8) once per snapshot, and reads
//! every discovered group out in O(1)-in-rows.
//!
//! ## Per-group stopping
//!
//! Accuracy is judged **per group**: a `WITHIN ε PERCENT CONFIDENCE γ`
//! target fires only when *every discovered group's* worst relative CI
//! half-width is ≤ ε — one straggler group keeps the loop running. For
//! long-tailed group counts that is often too strict (a group seen twice
//! may never tighten), so [`QueryOptions::ci_top_k`] restricts the
//! *stopping decision* to the K groups with the largest absolute estimates;
//! tail groups are still estimated and reported honestly, they just don't
//! hold up termination. Row and time budgets stay **global**, exactly as in
//! the scalar loop.
//!
//! Groups with no sampled tuple yet are absent from snapshots (the honest
//! classical caveat of sampling-based GROUP BY); each
//! [`GroupedProgressSnapshot`] reports how many groups the latest chunk
//! discovered, so a caller can tell when discovery has plateaued.
//!
//! At exhaustion every scan-progress factor degenerates to the identity and
//! each group's readout **equals `QueryBuilder::batch`'s** — bit for bit on
//! one worker, since both drain the same stream into the same accumulator
//! (pinned by `tests/columnar_equivalence.rs`).

use std::hash::Hasher;
use std::time::Instant;

use sa_core::hash::{FxHashMap, FxHasher};
use sa_core::{GroupedMomentAccumulator, GusParams};
use sa_exec::{agg_results_from_report, AggResult, ChunkStream, ColumnarChunk, DimLayout};
use sa_exec::{BatchDimEval, ExecError, ProgressTree};
use sa_expr::{compile, CompiledExpr, Expr};
use sa_plan::{AggSpec, GusTree, LogicalPlan, SoaAnalysis, StopReason, StoppingRule};
use sa_storage::{Catalog, ColumnVec, SchemaRef, Value};

use crate::api::QueryOptions;
use crate::driver::{adapt_chunk_hint, judge_stop, ADAPTIVE_CHUNK_CAP_FACTOR};
use crate::driver::{open_aggregate, scale_gus_tree, worst_rel_half_width, OpenedAggregate};
use crate::driver::{ProgressSnapshot, RunCtx};
use crate::error::Error;
use crate::parallel::run_worker_pool;
use crate::Result;

/// One group's state within a [`GroupedProgressSnapshot`].
#[derive(Debug, Clone)]
pub struct GroupProgress {
    /// The group key values, in `group_by` order.
    pub key: Vec<Value>,
    /// One result per aggregate in the `SELECT` list, judged at the
    /// snapshot's confidence level.
    pub aggs: Vec<AggResult>,
    /// Sampled result tuples routed to this group so far.
    pub sample_rows: u64,
    /// Worst (largest) relative CI half-width across this group's
    /// aggregates; `None` while some variance is not yet estimable.
    pub rel_half_width: Option<f64>,
    /// True when this group meets the stopping rule's CI target at this
    /// snapshot (always false without a CI target).
    pub converged: bool,
    /// True when this group counts toward the stopping decision (always
    /// true unless a [`QueryOptions::ci_top_k`] policy demoted it).
    pub tracked: bool,
}

/// The state of all per-group estimates after one chunk of the progressive
/// loop.
#[derive(Debug, Clone)]
pub struct GroupedProgressSnapshot {
    /// 1-based snapshot index. In the sequential loop (`parallelism = 1`)
    /// this equals the number of pulled chunks; with workers it counts
    /// coordinator ticks, each of which may absorb several worker chunks.
    pub chunk: u64,
    /// Cumulative sampled result tuples consumed (all groups).
    pub rows: u64,
    /// Renderings of the `GROUP BY` expressions.
    pub group_exprs: Vec<String>,
    /// Every group observed so far, ordered by key (deterministic).
    pub groups: Vec<GroupProgress>,
    /// Groups first discovered by the chunk this snapshot follows.
    pub new_groups: u64,
    /// Worst relative CI half-width across the **tracked** groups — the
    /// quantity the CI stopping target is judged on. `None` while no group
    /// has been discovered or some tracked group is not yet estimable.
    pub rel_half_width: Option<f64>,
    /// Confidence level the snapshot's intervals were computed at.
    pub confidence: f64,
    /// Per-relation `(consumed, available)` scan coverage (see
    /// [`sa_exec::ChunkStream::progress`]).
    pub progress: Vec<(u64, u64)>,
    /// The GUS every group was read under: the plan GUS compacted with the
    /// scan-progress factors (shared by all groups — one compaction per
    /// snapshot, not per group).
    pub gus: sa_core::GusParams,
    /// Wall time since the loop started.
    pub elapsed: std::time::Duration,
}

/// The outcome of a grouped progressive run.
#[derive(Debug, Clone)]
pub struct GroupedOnlineResult {
    /// Why the loop stopped.
    pub reason: StopReason,
    /// The last emitted snapshot (the final per-group estimates).
    pub snapshot: GroupedProgressSnapshot,
    /// Number of snapshots emitted. Equals the chunks consumed only in the
    /// sequential loop (`parallelism = 1`); a parallel coordinator tick may
    /// absorb several worker chunks.
    pub chunks: u64,
    /// The SOA analysis shared by every group.
    pub analysis: SoaAnalysis,
}

/// The grouped progressive loop. `plan`'s root must be an
/// [`LogicalPlan::Aggregate`]; `group_by` are expressions over the
/// aggregate input's schema; `on_snapshot` is called after every chunk
/// (including the final one).
pub(crate) fn drive_grouped(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
    opts: &QueryOptions,
    ctx: &RunCtx,
    mut on_snapshot: impl FnMut(&GroupedProgressSnapshot),
) -> Result<GroupedOnlineResult> {
    if group_by.is_empty() {
        return Err(Error::Unsupported(
            "a grouped run needs at least one GROUP BY expression: add \
             `query_plan(..).group_by(..)` keys, or call `.run()` / `.batch()` without them \
             for scalar aggregates"
                .into(),
        ));
    }
    let OpenedAggregate {
        analysis,
        aggs,
        mut streams,
        layout,
    } = open_aggregate(plan, catalog, opts, ctx, group_by)?;
    let key_kernels = compile_group_keys(group_by, streams[0].schema())?;
    let group_exprs: Vec<String> = group_by.iter().map(|e| e.to_string()).collect();
    if streams.len() > 1 {
        return drive_grouped_parallel(
            analysis,
            aggs,
            streams,
            layout,
            key_kernels,
            group_exprs,
            opts,
            ctx,
            on_snapshot,
        );
    }
    let mut stream = streams.pop().expect("open_aggregate yields >= 1 stream");
    let dim_eval = layout.compile_batch(stream.schema())?;
    let mut acc: GroupedMomentAccumulator<Vec<Value>> =
        GroupedMomentAccumulator::new(analysis.schema.n(), layout.dims());
    let rule = &opts.rule;
    let confidence = rule.confidence_or(opts.confidence);
    let start = Instant::now();
    let mut chunks = 0u64;
    let mut hint = opts.chunk_rows;
    let cap = opts.chunk_rows.saturating_mul(ADAPTIVE_CHUNK_CAP_FACTOR);
    let mut prev_rel: Option<f64> = None;
    loop {
        let chunk = stream.next_batch(hint)?;
        let exhausted = chunk.is_empty();
        let known_groups = acc.group_count();
        push_grouped_chunk(&mut acc, &key_kernels, &dim_eval, &chunk)?;
        chunks += 1;
        let new_groups = (acc.group_count() - known_groups) as u64;
        let (snapshot, reason) = grouped_tick(
            &acc,
            aggs,
            &layout,
            &analysis.gus,
            &analysis.gus_tree,
            stream.progress(),
            &stream.progress_tree(),
            opts,
            confidence,
            chunks,
            new_groups,
            &group_exprs,
            exhausted,
            ctx.cancelled(),
            false,
            &start,
        )?;
        on_snapshot(&snapshot);
        if let Some(reason) = reason {
            return Ok(GroupedOnlineResult {
                reason,
                snapshot,
                chunks,
                analysis,
            });
        }
        if opts.adaptive_chunks {
            hint = adapt_chunk_hint(hint, cap, &mut prev_rel, snapshot.rel_half_width);
        }
    }
}

/// Compile the `GROUP BY` expressions against the stream's output schema.
pub(crate) fn compile_group_keys(
    group_by: &[Expr],
    schema: &SchemaRef,
) -> Result<Vec<CompiledExpr>> {
    group_by
        .iter()
        .map(|e| compile(e, schema).map_err(|e| Error::Exec(ExecError::Expr(e))))
        .collect()
}

/// Group-identity equality of two cells of one evaluated key column: like
/// SQL `GROUP BY` (and unlike join keys), `NULL` groups with `NULL`.
fn group_cell_eq(col: &ColumnVec, i: usize, j: usize) -> bool {
    match (col.is_valid(i), col.is_valid(j)) {
        (false, false) => true,
        (true, true) => col.cell_eq(i, col, j),
        _ => false,
    }
}

/// Route one columnar chunk into the grouped accumulator: evaluate the key
/// kernels and the aggregate dimensions once per chunk, partition the rows
/// by a 64-bit key fingerprint, and feed each partition through the
/// amortized [`GroupedMomentAccumulator::push_batch`] path — the group key
/// tuple is materialized once per (chunk × group), not once per row. Rows
/// whose key collides with a different key's fingerprint (astronomically
/// rare; detected by comparing against the partition's representative row)
/// fall back to individual pushes with their own key.
pub(crate) fn push_grouped_chunk(
    acc: &mut GroupedMomentAccumulator<Vec<Value>>,
    key_kernels: &[CompiledExpr],
    dim_eval: &BatchDimEval,
    chunk: &ColumnarChunk,
) -> Result<()> {
    if chunk.is_empty() {
        return Ok(());
    }
    let key_cols: Vec<ColumnVec> = key_kernels
        .iter()
        .map(|k| k.eval_column(&chunk.batch))
        .collect::<std::result::Result<_, _>>()
        .map_err(|e| Error::Exec(ExecError::Expr(e)))?;
    let f_cols = dim_eval.eval(&chunk.batch)?;
    let rows = chunk.rows();
    // Partition row indices by key fingerprint, in first-seen order (the
    // accumulation order is deterministic for a fixed seed and chunking).
    let mut parts: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut order: Vec<u64> = Vec::new();
    for i in 0..rows {
        let mut h = FxHasher::default();
        for c in &key_cols {
            c.hash_cell(i, &mut h);
        }
        // splitmix64 finalization: cell hashes carry their entropy in the
        // high bits (f64 bit patterns), which Fx's multiply-only mixing
        // never propagates down into the map's bucket-index bits.
        let fp = sa_core::hash::splitmix64(h.finish());
        parts
            .entry(fp)
            .or_insert_with(|| {
                order.push(fp);
                Vec::new()
            })
            .push(i as u32);
    }
    let materialize_key =
        |row: usize| -> Vec<Value> { key_cols.iter().map(|c| c.value(row)).collect() };
    let mut lin_scratch: Vec<Vec<u64>> = vec![Vec::new(); chunk.lineage.len()];
    let mut f_scratch: Vec<Vec<f64>> = vec![Vec::new(); f_cols.len()];
    for fp in order {
        let idxs = &parts[&fp];
        let rep = idxs[0] as usize;
        for s in lin_scratch.iter_mut() {
            s.clear();
        }
        for s in f_scratch.iter_mut() {
            s.clear();
        }
        let mut stragglers: Vec<u32> = Vec::new();
        for &i in idxs {
            let i = i as usize;
            // Stored-key collision check against the representative row.
            if i != rep && !key_cols.iter().all(|c| group_cell_eq(c, i, rep)) {
                stragglers.push(i as u32);
                continue;
            }
            for (s, l) in lin_scratch.iter_mut().zip(&chunk.lineage) {
                s.push(l[i]);
            }
            for (s, f) in f_scratch.iter_mut().zip(&f_cols) {
                s.push(f[i]);
            }
        }
        let lineage: Vec<&[u64]> = lin_scratch.iter().map(|s| s.as_slice()).collect();
        let f: Vec<&[f64]> = f_scratch.iter().map(|s| s.as_slice()).collect();
        acc.push_batch(materialize_key(rep), &lineage, &f)?;
        for i in stragglers {
            let i = i as usize;
            let lin: Vec<u64> = chunk.lineage.iter().map(|l| l[i]).collect();
            let fv: Vec<f64> = f_cols.iter().map(|f| f[i]).collect();
            acc.push(materialize_key(i), &lin, &fv)?;
        }
    }
    Ok(())
}

/// Build the snapshot for one tick of the grouped loop and judge it with
/// [`judge_stop`] — the per-tick readout shared verbatim by the sequential
/// loop and the parallel coordinator, so the two paths cannot diverge in
/// snapshot semantics.
#[allow(clippy::too_many_arguments)]
fn grouped_tick(
    acc: &GroupedMomentAccumulator<Vec<Value>>,
    aggs: &[AggSpec],
    layout: &DimLayout,
    plan_gus: &GusParams,
    gus_tree: &GusTree,
    progress: Vec<(u64, u64)>,
    prog_tree: &ProgressTree,
    opts: &QueryOptions,
    confidence: f64,
    chunk: u64,
    new_groups: u64,
    group_exprs: &[String],
    exhausted: bool,
    cancelled: bool,
    degraded: bool,
    start: &Instant,
) -> Result<(GroupedProgressSnapshot, Option<StopReason>)> {
    let rule = &opts.rule;
    let gus = if opts.scale_to_population {
        scale_gus_tree(gus_tree, prog_tree)?
    } else {
        plan_gus.clone()
    };
    let (groups, rel_half_width) =
        group_progress_table(acc, aggs, layout, rule, confidence, opts.ci_top_k, &gus)?;
    let snapshot = GroupedProgressSnapshot {
        chunk,
        rows: acc.count(),
        group_exprs: group_exprs.to_vec(),
        groups,
        new_groups,
        rel_half_width,
        confidence,
        progress,
        gus,
        elapsed: start.elapsed(),
    };
    let reason = judge_stop(
        opts,
        degraded,
        exhausted,
        cancelled,
        rel_half_width,
        snapshot.rows,
        snapshot.elapsed,
    );
    Ok((snapshot, reason))
}

/// Read every discovered group out of `acc` under `gus`, in deterministic
/// key order, apply the top-K tracking policy, and return the table plus
/// the tracked worst relative half-width — the per-snapshot readout shared
/// by the sequential and shard-parallel grouped loops.
pub(crate) fn group_progress_table(
    acc: &GroupedMomentAccumulator<Vec<Value>>,
    aggs: &[AggSpec],
    layout: &DimLayout,
    rule: &StoppingRule,
    confidence: f64,
    ci_top_k: Option<usize>,
    gus: &GusParams,
) -> Result<(Vec<GroupProgress>, Option<f64>)> {
    let mut keys: Vec<Vec<Value>> = acc.keys().cloned().collect();
    keys.sort();
    let mut groups = Vec::with_capacity(keys.len());
    for key in keys {
        let slot = acc.group(&key).expect("key just listed");
        let report = slot.report(gus)?;
        let agg_results = agg_results_from_report(aggs, layout, &report, confidence);
        let rel = worst_rel_half_width(&agg_results);
        let converged = match (rule.ci_target, rel) {
            (Some(t), Some(r)) => r.is_finite() && r <= t.epsilon,
            _ => false,
        };
        groups.push(GroupProgress {
            key,
            aggs: agg_results,
            sample_rows: slot.count(),
            rel_half_width: rel,
            converged,
            tracked: true,
        });
    }
    apply_top_k_policy(&mut groups, ci_top_k);
    let rel_half_width = tracked_rel_half_width(&groups);
    Ok((groups, rel_half_width))
}

/// The shard-parallel grouped loop: one worker per partitioned stream
/// routing rows into a thread-local [`GroupedMomentAccumulator`]; the
/// coordinator absorbs the queued per-chunk deltas per tick and judges the
/// per-group rule exactly as the sequential loop does (see
/// [`crate::parallel`]).
#[allow(clippy::too_many_arguments)]
fn drive_grouped_parallel(
    analysis: SoaAnalysis,
    aggs: &[AggSpec],
    streams: Vec<ChunkStream>,
    layout: DimLayout,
    key_kernels: Vec<CompiledExpr>,
    group_exprs: Vec<String>,
    opts: &QueryOptions,
    ctx: &RunCtx,
    mut on_snapshot: impl FnMut(&GroupedProgressSnapshot),
) -> Result<GroupedOnlineResult> {
    let n = analysis.schema.n();
    let dims = layout.dims();
    let dim_eval = layout.compile_batch(streams[0].schema())?;
    let rule = &opts.rule;
    let confidence = rule.confidence_or(opts.confidence);
    let start = Instant::now();
    let mut chunks = 0u64;
    let mut known_groups = 0usize;
    let mut last: Option<GroupedProgressSnapshot> = None;
    let layout = &layout;
    let dim_eval = &dim_eval;
    let key_kernels = &key_kernels;
    let (_, reason) = run_worker_pool(
        streams,
        opts.chunk_rows,
        &ctx.pool,
        || GroupedMomentAccumulator::<Vec<Value>>::new(n, dims),
        |acc: &mut GroupedMomentAccumulator<Vec<Value>>, chunk: &ColumnarChunk| {
            push_grouped_chunk(acc, key_kernels, dim_eval, chunk)
        },
        |merged, progress, exhausted, degraded| {
            chunks += 1;
            // Discovery is judged on the merged view: a group two shards
            // found independently still counts as one discovery.
            let new_groups = merged.group_count().saturating_sub(known_groups) as u64;
            known_groups = merged.group_count();
            // Flat summed worker coverage; union plans never reach this
            // loop (partitioned opens refuse them).
            let prog_tree = ProgressTree::Leaf(progress.to_vec());
            let (snapshot, reason) = grouped_tick(
                merged,
                aggs,
                layout,
                &analysis.gus,
                &analysis.gus_tree,
                progress.to_vec(),
                &prog_tree,
                opts,
                confidence,
                chunks,
                new_groups,
                &group_exprs,
                exhausted,
                ctx.cancelled(),
                degraded,
                &start,
            )?;
            on_snapshot(&snapshot);
            last = Some(snapshot);
            Ok(reason)
        },
    )?;
    Ok(GroupedOnlineResult {
        reason,
        snapshot: last.expect("the pool judges at least one tick"),
        chunks,
        analysis,
    })
}

/// Demote all but the `k` groups with the largest absolute first-aggregate
/// estimates to untracked. Ties (and NaN estimates, ranked below every
/// finite magnitude — an inestimable group must not hold up the stop that
/// `ci_top_k` exists to unblock) break by key order, so the tracked set is
/// deterministic.
fn apply_top_k_policy(groups: &mut [GroupProgress], ci_top_k: Option<usize>) {
    let Some(k) = ci_top_k else { return };
    if groups.len() <= k {
        return;
    }
    let magnitude = |g: &GroupProgress| {
        g.aggs
            .first()
            .map(|a| a.estimate.abs())
            .filter(|m| m.is_finite())
            .unwrap_or(f64::NEG_INFINITY)
    };
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&a, &b| {
        magnitude(&groups[b])
            .total_cmp(&magnitude(&groups[a]))
            .then(a.cmp(&b))
    });
    for &i in &order[k..] {
        groups[i].tracked = false;
    }
}

/// Worst relative CI half-width across the tracked groups: the quantity
/// the per-group CI stopping target is judged on. `None` while no group
/// exists or any tracked group is not yet estimable — a CI target never
/// fires on partial information.
fn tracked_rel_half_width(groups: &[GroupProgress]) -> Option<f64> {
    let mut worst = None;
    for g in groups.iter().filter(|g| g.tracked) {
        let r = g.rel_half_width?;
        worst = Some(f64::max(worst.unwrap_or(0.0), r));
    }
    worst
}

/// Collapse a grouped snapshot's tracked view into the scalar snapshot
/// shape, keyed on one group — a convenience for callers that watch a
/// single group through scalar-snapshot tooling.
pub fn group_snapshot(
    snapshot: &GroupedProgressSnapshot,
    key: &[Value],
) -> Option<ProgressSnapshot> {
    let g = snapshot.groups.iter().find(|g| g.key == key)?;
    Some(ProgressSnapshot {
        chunk: snapshot.chunk,
        rows: snapshot.rows,
        aggs: g.aggs.clone(),
        rel_half_width: g.rel_half_width,
        confidence: snapshot.confidence,
        progress: snapshot.progress.clone(),
        gus: snapshot.gus.clone(),
        elapsed: snapshot.elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_exec::{f_vector, layout_dims, open_stream, ExecOptions};
    use sa_expr::col;
    use sa_expr::{bind, eval};
    use sa_plan::{AggSpec, StoppingRule};
    use sa_sampling::SamplingMethod;
    use sa_storage::{DataType, Field, Schema, TableBuilder};
    use std::time::Duration;

    /// `t(g, v)`: group "A" = 3000 rows of v=1, "B" = 1500 rows of v=2,
    /// "C" = 300 rows of v=5 — true SUMs 3000, 3000, 1500.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..4800 {
            let (g, v) = match i % 16 {
                0..=9 => ("A", 1.0),
                10..=14 => ("B", 2.0),
                _ => ("C", 5.0),
            };
            b.push_row(&[Value::str(g), Value::Float(v)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    fn sum_plan(p: f64) -> LogicalPlan {
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p })
            .aggregate(vec![AggSpec::sum(col("v"), "s")])
    }

    fn opts(seed: u64, chunk_rows: usize, rule: StoppingRule) -> QueryOptions {
        QueryOptions {
            seed,
            chunk_rows,
            rule,
            ..Default::default()
        }
    }

    /// The grouped loop as the engine drives it, minus the engine: private
    /// scan, no cancellation, no metrics.
    fn run(
        plan: &LogicalPlan,
        group_by: &[Expr],
        catalog: &Catalog,
        opts: &QueryOptions,
        on_snapshot: impl FnMut(&GroupedProgressSnapshot),
    ) -> Result<GroupedOnlineResult> {
        drive_grouped(
            plan,
            group_by,
            catalog,
            opts,
            &RunCtx::default(),
            on_snapshot,
        )
    }

    #[test]
    fn snapshots_list_groups_in_key_order_and_count_discoveries() {
        let c = catalog();
        let mut discovered = 0u64;
        let r = run(
            &sum_plan(0.5),
            &[col("g")],
            &c,
            &opts(3, 256, StoppingRule::exhaustive()),
            |s| {
                discovered += s.new_groups;
                let keys: Vec<&Vec<Value>> = s.groups.iter().map(|g| &g.key).collect();
                let mut sorted = keys.clone();
                sorted.sort();
                assert_eq!(keys, sorted, "groups must be key-ordered");
            },
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(r.snapshot.groups.len(), 3);
        assert_eq!(discovered, 3, "every group discovered exactly once");
        assert_eq!(
            r.snapshot.rows,
            r.snapshot.groups.iter().map(|g| g.sample_rows).sum::<u64>()
        );
        assert_eq!(r.snapshot.group_exprs, vec!["g".to_string()]);
    }

    #[test]
    fn exhausted_run_matches_batch_grouped_estimator() {
        let c = catalog();
        let plan = sum_plan(0.4);
        let r = run(
            &plan,
            &[col("g")],
            &c,
            &opts(9, 128, StoppingRule::exhaustive()),
            |_| {},
        )
        .unwrap();
        // Batch per-group moments over the SAME realized sample: collect the
        // stream and partition by key.
        let LogicalPlan::Aggregate { aggs, input } = &plan else {
            unreachable!()
        };
        let mut stream = open_stream(
            input,
            &c,
            &ExecOptions {
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        let layout = layout_dims(aggs, stream.schema()).unwrap();
        let key_expr = bind(&col("g"), stream.schema()).unwrap();
        let mut batch: std::collections::BTreeMap<Vec<Value>, sa_core::GroupedMoments> =
            Default::default();
        loop {
            let chunk = stream.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                let key = vec![eval(&key_expr, &row.values).unwrap()];
                batch
                    .entry(key)
                    .or_insert_with(|| sa_core::GroupedMoments::new(1, layout.dims()))
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
        assert_eq!(batch.len(), r.snapshot.groups.len());
        for g in &r.snapshot.groups {
            let moments = batch.remove(&g.key).expect("group in both").finish();
            let report = sa_core::estimate_from_sample_moments(&r.analysis.gus, &moments).unwrap();
            let (eo, eb) = (g.aggs[0].estimate, report.estimate[0]);
            assert!((eo - eb).abs() < 1e-9 * (1.0 + eb.abs()), "{eo} vs {eb}");
            let (vo, vb) = (g.aggs[0].variance.unwrap(), report.variance(0).unwrap());
            assert!((vo - vb).abs() < 1e-9 * (1.0 + vb.abs()), "{vo} vs {vb}");
        }
    }

    #[test]
    fn ci_rule_waits_for_every_group() {
        // The rare group C converges last: when the loop stops, ALL groups
        // must meet the target, and the stop must still beat exhaustion.
        let c = catalog();
        let r = run(
            &sum_plan(0.9),
            &[col("g")],
            &c,
            &opts(4, 64, StoppingRule::ci(0.2, 0.95)),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::CiConverged);
        assert!(r.snapshot.rel_half_width.unwrap() <= 0.2);
        for g in &r.snapshot.groups {
            assert!(g.converged, "group {:?} had not converged", g.key);
            assert!(g.tracked);
        }
        let (consumed, available) = r.snapshot.progress[0];
        assert!(consumed < available, "stopped before exhaustion");
    }

    #[test]
    fn top_k_policy_stops_on_heavy_groups_only() {
        // With a tight-ish target the tiny group C is the straggler; track
        // only the top-2 estimates (A and B) and the loop stops earlier.
        let c = catalog();
        let all = run(
            &sum_plan(0.9),
            &[col("g")],
            &c,
            &opts(4, 64, StoppingRule::ci(0.12, 0.95)),
            |_| {},
        )
        .unwrap();
        let top2 = run(
            &sum_plan(0.9),
            &[col("g")],
            &c,
            &QueryOptions {
                ci_top_k: Some(2),
                ..opts(4, 64, StoppingRule::ci(0.12, 0.95))
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(top2.reason, StopReason::CiConverged);
        assert!(
            top2.snapshot.rows < all.snapshot.rows,
            "top-2 stop ({}) should beat all-groups stop ({})",
            top2.snapshot.rows,
            all.snapshot.rows
        );
        // The tail group is still reported, just untracked.
        let c_group = top2
            .snapshot
            .groups
            .iter()
            .find(|g| g.key == vec![Value::str("C")])
            .expect("tail group still reported");
        assert!(!c_group.tracked);
        assert!(c_group.aggs[0].estimate > 0.0);
        let tracked = top2.snapshot.groups.iter().filter(|g| g.tracked).count();
        assert_eq!(tracked, 2);
    }

    #[test]
    fn top_k_ranks_inestimable_groups_last() {
        // A NaN estimate (e.g. an AVG whose delta-method ratio failed) must
        // rank BELOW every finite magnitude: an inestimable group would pin
        // rel_half_width to None forever and block the very stop ci_top_k
        // exists to unblock.
        let mk = |key: &str, estimate: f64| GroupProgress {
            key: vec![Value::str(key)],
            aggs: vec![AggResult {
                name: "s".into(),
                func: sa_plan::AggFunc::Sum,
                estimate,
                variance: None,
                ci_normal: None,
                ci_chebyshev: None,
                quantile_bound: None,
            }],
            sample_rows: 1,
            rel_half_width: None,
            converged: false,
            tracked: true,
        };
        let mut groups = vec![mk("a", f64::NAN), mk("b", 10.0), mk("c", -20.0)];
        apply_top_k_policy(&mut groups, Some(2));
        assert!(!groups[0].tracked, "NaN group must be demoted");
        assert!(groups[1].tracked && groups[2].tracked);
    }

    #[test]
    fn global_budgets_still_fire() {
        let c = catalog();
        let r = run(
            &sum_plan(0.9),
            &[col("g")],
            &c,
            &opts(1, 100, StoppingRule::rows(500)),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::RowBudget);
        assert!(r.snapshot.rows >= 500 && r.snapshot.rows < 2000);
        let r = run(
            &sum_plan(0.9),
            &[col("g")],
            &c,
            &opts(1, 10, StoppingRule::time(Duration::ZERO)),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::TimeBudget);
        assert_eq!(r.chunks, 1);
    }

    #[test]
    fn grouped_sql_lowers_the_rule_per_group() {
        let engine = crate::Engine::new(catalog());
        let mut snaps = 0u64;
        let r = engine
            .session()
            .query(
                "SELECT g, SUM(v) AS s FROM t TABLESAMPLE (90 PERCENT) GROUP BY g \
                 WITHIN 20 PERCENT CONFIDENCE 95",
            )
            .seed(4)
            .chunk_rows(128)
            .run_with(|_| snaps += 1)
            .unwrap();
        assert_eq!(r.reason, StopReason::CiConverged);
        assert_eq!(snaps, r.chunks);
        assert!((r.snapshot.confidence() - 0.95).abs() < 1e-12);
        assert_eq!(r.snapshot.as_grouped().unwrap().groups.len(), 3);
    }

    #[test]
    fn empty_keys_are_refused_in_builder_terms() {
        let c = catalog();
        let err = run(&sum_plan(0.5), &[], &c, &QueryOptions::default(), |_| {}).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
        assert!(err.to_string().contains("GROUP BY"), "{err}");
        assert!(err.to_string().contains(".group_by("), "{err}");
    }

    #[test]
    fn zero_chunk_rows_rejected() {
        let c = catalog();
        let bad = QueryOptions {
            chunk_rows: 0,
            ..Default::default()
        };
        let err = run(&sum_plan(0.5), &[col("g")], &c, &bad, |_| {}).unwrap_err();
        assert!(matches!(err, Error::InvalidOptions(_)), "{err}");
        assert!(err.to_string().contains("chunk_rows"), "{err}");
    }

    #[test]
    fn non_aggregate_root_rejected() {
        let c = catalog();
        let err = run(
            &LogicalPlan::scan("t"),
            &[col("g")],
            &c,
            &QueryOptions::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn grouped_union_scaling_matches_batch_at_exhaustion() {
        // Per-branch prefix composition works per group too: the union plan
        // runs with population scaling on, and at exhaustion every group's
        // readout equals the batch grouped estimator on the same realized
        // union sample.
        let c = catalog();
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.4 }))
            .aggregate(vec![AggSpec::sum(col("v"), "s")]);
        let r = run(
            &plan,
            &[col("g")],
            &c,
            &opts(9, 128, StoppingRule::exhaustive()),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        let LogicalPlan::Aggregate { aggs, input } = &plan else {
            unreachable!()
        };
        let exec_opts = ExecOptions {
            seed: 9,
            ..Default::default()
        };
        let mut stream = open_stream(input, &c, &exec_opts).unwrap();
        let layout = layout_dims(aggs, stream.schema()).unwrap();
        let key_expr = bind(&col("g"), stream.schema()).unwrap();
        let mut batch: std::collections::BTreeMap<Vec<Value>, sa_core::GroupedMoments> =
            Default::default();
        loop {
            let chunk = stream.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                let key = vec![eval(&key_expr, &row.values).unwrap()];
                batch
                    .entry(key)
                    .or_insert_with(|| sa_core::GroupedMoments::new(1, layout.dims()))
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
        assert_eq!(batch.len(), r.snapshot.groups.len());
        for g in &r.snapshot.groups {
            let moments = batch.remove(&g.key).expect("group in both").finish();
            let report = sa_core::estimate_from_sample_moments(&r.analysis.gus, &moments).unwrap();
            let (eo, eb) = (g.aggs[0].estimate, report.estimate[0]);
            assert!((eo - eb).abs() < 1e-9 * (1.0 + eb.abs()), "{eo} vs {eb}");
            let (vo, vb) = (g.aggs[0].variance.unwrap(), report.variance(0).unwrap());
            assert!((vo - vb).abs() < 1e-9 * (1.0 + vb.abs()), "{vo} vs {vb}");
        }
    }

    #[test]
    fn empty_table_emits_one_groupless_snapshot() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        c.register(TableBuilder::new("t", schema).finish().unwrap())
            .unwrap();
        let r = run(
            &sum_plan(0.5),
            &[col("g")],
            &c,
            &QueryOptions::default(),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(r.chunks, 1);
        assert!(r.snapshot.groups.is_empty());
        assert_eq!(r.snapshot.rel_half_width, None);
        // A CI rule over an empty stream must run to exhaustion, not fire.
        let r = run(
            &sum_plan(0.5),
            &[col("g")],
            &c,
            &opts(0, 64, StoppingRule::ci(0.05, 0.95)),
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
    }

    #[test]
    fn group_snapshot_projects_one_group() {
        let c = catalog();
        let r = run(
            &sum_plan(0.5),
            &[col("g")],
            &c,
            &opts(3, 512, StoppingRule::exhaustive()),
            |_| {},
        )
        .unwrap();
        let a = group_snapshot(&r.snapshot, &[Value::str("A")]).unwrap();
        assert_eq!(a.chunk, r.snapshot.chunk);
        assert!((a.aggs[0].estimate - 3000.0).abs() < 500.0);
        assert!(group_snapshot(&r.snapshot, &[Value::str("nope")]).is_none());
    }

    #[test]
    fn multiple_aggregates_and_multi_key_groups() {
        let c = catalog();
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.6 })
            .aggregate(vec![
                AggSpec::sum(col("v"), "s"),
                AggSpec::count_star("n"),
                AggSpec::avg(col("v"), "a"),
            ]);
        let r = run(
            &plan,
            &[col("g"), col("v")],
            &c,
            &opts(7, 256, StoppingRule::exhaustive()),
            |_| {},
        )
        .unwrap();
        // (g, v) is functionally g here, so still 3 groups, 2-part keys.
        assert_eq!(r.snapshot.groups.len(), 3);
        for g in &r.snapshot.groups {
            assert_eq!(g.key.len(), 2);
            assert_eq!(g.aggs.len(), 3);
            // AVG of the constant v within a group is exact.
            let v = g.key[1].as_f64().unwrap();
            assert!((g.aggs[2].estimate - v).abs() < 1e-9);
        }
    }
}
