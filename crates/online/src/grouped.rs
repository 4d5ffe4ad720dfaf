//! Grouped online aggregation: per-group accumulators, per-group stopping.
//!
//! `Grouped` is the `GROUP BY` shape of the one progressive loop in
//! [`crate::driver`] — the scalar shape plus keys. The GUS algebra needs
//! nothing new for it: a group's SUM is the SUM-like aggregate of
//! `f_g(t) = f(t)·1{key(t) = g}` — the group indicator is just another
//! selection (Proposition 5) — so the *same* top GUS from the one-time SOA
//! rewrite analyzes every group, and each group gets its own unbiased
//! estimate and variance. A chunk is routed to its groups' slots of a
//! [`sa_core::GroupedMomentAccumulator`]; a tick scales the GUS to the scan
//! progress (Proposition 8) once and reads every discovered group's slot
//! out exactly as the scalar shape reads its one accumulator.
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
//! hold up termination. Row and time budgets stay **global**, as for a
//! scalar query.
//!
//! Groups with no sampled tuple yet are absent from snapshots (the honest
//! classical caveat of sampling-based GROUP BY); each
//! [`GroupedProgressSnapshot`] reports how many groups the latest chunk
//! discovered, so a caller can tell when discovery has plateaued.
//!
//! At exhaustion every scan-progress factor degenerates to the identity and
//! each group's readout **equals `QueryBuilder::batch`'s** — bit for bit on
//! one worker, since both are the same loop over the same stream (pinned by
//! `tests/columnar_equivalence.rs`).

use std::hash::Hasher;

use sa_core::hash::{FxHashMap, FxHasher};
use sa_core::GroupedMomentAccumulator;
use sa_exec::{AggResult, ColumnarChunk, ExecError};
use sa_expr::{compile, CompiledExpr, Expr};
use sa_storage::{ColumnVec, SchemaRef, Value};

use crate::api::{QueryOptions, Snapshot};
use crate::driver::{QueryShape, Scalar, TickHead};
use crate::error::Error;
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

/// Group-identity equality of two cells of one evaluated key column: like
/// SQL `GROUP BY` (and unlike join keys), `NULL` groups with `NULL`.
fn group_cell_eq(col: &ColumnVec, i: usize, j: usize) -> bool {
    match (col.is_valid(i), col.is_valid(j)) {
        (false, false) => true,
        (true, true) => col.cell_eq(i, col, j),
        _ => false,
    }
}

/// The `GROUP BY` shape: the scalar shape plus compiled key expressions.
pub(crate) struct Grouped<'p> {
    scalar: Scalar<'p>,
    key_kernels: Vec<CompiledExpr>,
    /// Renderings of the key expressions, copied into every snapshot.
    group_exprs: Vec<String>,
}

impl<'p> QueryShape<'p> for Grouped<'p> {
    type Acc = GroupedMomentAccumulator<Vec<Value>>;

    fn compile(scalar: Scalar<'p>, group_by: &[Expr], schema: &SchemaRef) -> Result<Self> {
        let key_kernels = group_by
            .iter()
            .map(|e| compile(e, schema).map_err(|e| Error::Exec(ExecError::Expr(e))))
            .collect::<Result<_>>()?;
        Ok(Grouped {
            scalar,
            key_kernels,
            group_exprs: group_by.iter().map(|e| e.to_string()).collect(),
        })
    }

    fn new_acc(&self) -> Self::Acc {
        GroupedMomentAccumulator::with_lineage(
            self.scalar.n,
            self.scalar.layout.dims(),
            self.scalar.lineage_distinct,
        )
    }

    /// Route one columnar chunk into the grouped accumulator: evaluate the
    /// key kernels and the aggregate dimensions once per chunk, partition
    /// the rows by a 64-bit key fingerprint, and feed each partition through
    /// the amortized [`GroupedMomentAccumulator::push_batch`] path — the
    /// group key tuple is materialized once per (chunk × group), not once
    /// per row. Rows whose key collides with a different key's fingerprint
    /// (astronomically rare; detected by comparing against the partition's
    /// representative row) fall back to individual pushes with their own
    /// key.
    fn push(&self, acc: &mut Self::Acc, chunk: &ColumnarChunk) -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let key_cols: Vec<ColumnVec> = self
            .key_kernels
            .iter()
            .map(|k| k.eval_column(&chunk.batch))
            .collect::<std::result::Result<_, _>>()
            .map_err(|e| Error::Exec(ExecError::Expr(e)))?;
        let f_cols = self.scalar.dim_eval.eval(&chunk.batch)?;
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

    /// Read every discovered group out under `head.gus`, in deterministic
    /// key order, and apply the top-K tracking policy; the snapshot's
    /// `rel_half_width` is the tracked groups' worst.
    fn read(
        &self,
        acc: &Self::Acc,
        head: TickHead,
        prev: Option<&Snapshot>,
        opts: &QueryOptions,
    ) -> Result<Snapshot> {
        let mut slots: Vec<_> = acc.iter().collect();
        slots.sort_by(|a, b| a.0.cmp(b.0));
        let mut groups = Vec::with_capacity(slots.len());
        for (key, slot) in slots {
            let (aggs, rel) = self.scalar.read_slot(slot, &head.gus, head.confidence)?;
            let converged = match (opts.rule.ci_target, rel) {
                (Some(t), Some(r)) => r.is_finite() && r <= t.epsilon,
                _ => false,
            };
            groups.push(GroupProgress {
                key: key.clone(),
                aggs,
                sample_rows: slot.count(),
                rel_half_width: rel,
                converged,
                tracked: true,
            });
        }
        apply_top_k_policy(&mut groups, opts.ci_top_k);
        // Discovery is judged on the (merged) readout: a group two shards
        // found independently still counts as one discovery.
        let known = prev
            .and_then(Snapshot::as_grouped)
            .map_or(0, |s| s.groups.len());
        Ok(Snapshot::Grouped(GroupedProgressSnapshot {
            chunk: head.chunk,
            rows: acc.count(),
            group_exprs: self.group_exprs.clone(),
            new_groups: (groups.len() - known) as u64,
            rel_half_width: tracked_rel_half_width(&groups),
            groups,
            confidence: head.confidence,
            progress: head.progress,
            gus: head.gus,
            elapsed: head.start.elapsed(),
        }))
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{drive, RunCtx};
    use crate::QueryResult;
    use sa_exec::{f_vector, layout_dims, open_stream, ExecOptions};
    use sa_expr::col;
    use sa_expr::{bind, eval};
    use sa_plan::{AggSpec, LogicalPlan, StopReason, StoppingRule};
    use sa_sampling::SamplingMethod;
    use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder};
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

    /// The loop with keys as the engine drives it, minus the engine:
    /// private scan, no cancellation, no metrics.
    fn run(
        plan: &LogicalPlan,
        group_by: &[Expr],
        catalog: &Catalog,
        opts: &QueryOptions,
        mut on_snapshot: impl FnMut(&GroupedProgressSnapshot),
    ) -> Result<QueryResult> {
        drive(plan, group_by, catalog, opts, &RunCtx::default(), |s| {
            on_snapshot(s.as_grouped().expect("keys read out grouped"))
        })
    }

    fn grouped(r: &QueryResult) -> &GroupedProgressSnapshot {
        r.snapshot.as_grouped().expect("keys read out grouped")
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
        assert_eq!(grouped(&r).groups.len(), 3);
        assert_eq!(discovered, 3, "every group discovered exactly once");
        assert_eq!(
            r.snapshot.rows(),
            grouped(&r)
                .groups
                .iter()
                .map(|g| g.sample_rows)
                .sum::<u64>()
        );
        assert_eq!(grouped(&r).group_exprs, vec!["g".to_string()]);
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
        assert_eq!(batch.len(), grouped(&r).groups.len());
        for g in &grouped(&r).groups {
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
        assert!(r.snapshot.rel_half_width().unwrap() <= 0.2);
        for g in &grouped(&r).groups {
            assert!(g.converged, "group {:?} had not converged", g.key);
            assert!(g.tracked);
        }
        let (consumed, available) = r.snapshot.progress()[0];
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
            top2.snapshot.rows() < all.snapshot.rows(),
            "top-2 stop ({}) should beat all-groups stop ({})",
            top2.snapshot.rows(),
            all.snapshot.rows()
        );
        // The tail group is still reported, just untracked.
        let c_group = grouped(&top2)
            .groups
            .iter()
            .find(|g| g.key == vec![Value::str("C")])
            .expect("tail group still reported");
        assert!(!c_group.tracked);
        assert!(c_group.aggs[0].estimate > 0.0);
        let tracked = grouped(&top2).groups.iter().filter(|g| g.tracked).count();
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
        assert!(r.snapshot.rows() >= 500 && r.snapshot.rows() < 2000);
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
    fn zero_keys_are_the_scalar_shape() {
        // No key is not an error any more: it is the scalar query.
        let c = catalog();
        let ctx = RunCtx::default();
        let mut ticks = 0u64;
        let r = drive(
            &sum_plan(0.5),
            &[],
            &c,
            &QueryOptions::default(),
            &ctx,
            |s| {
                assert!(s.as_scalar().is_some());
                ticks += 1;
            },
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(ticks, r.chunks);
        assert_eq!(r.snapshot.as_scalar().unwrap().aggs.len(), 1);
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
        assert_eq!(batch.len(), grouped(&r).groups.len());
        for g in &grouped(&r).groups {
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
        assert!(grouped(&r).groups.is_empty());
        assert_eq!(r.snapshot.rel_half_width(), None);
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
        assert_eq!(grouped(&r).groups.len(), 3);
        for g in &grouped(&r).groups {
            assert_eq!(g.key.len(), 2);
            assert_eq!(g.aggs.len(), 3);
            // AVG of the constant v within a group is exact.
            let v = g.key[1].as_f64().unwrap();
            assert!((g.aggs[2].estimate - v).abs() < 1e-9);
        }
    }
}
