//! Grouped online aggregation: per-group slots, per-group stopping.
//!
//! `Grouped` is the `GROUP BY` shape of the one progressive loop in
//! [`crate::driver`] — the scalar shape plus keys. The GUS algebra needs
//! nothing new for it: a group's SUM is the SUM-like aggregate of
//! `f_g(t) = f(t)·1{key(t) = g}` — the group indicator is just another
//! selection (Proposition 5) — so the *same* top GUS from the one-time SOA
//! rewrite analyzes every group, and each group gets its own unbiased
//! estimate and variance. Each row finds its group's slot once, in the key
//! index of the query's [`sa_core::GroupedMomentAccumulator`] — the one the
//! scalar shape fills under the empty key; a tick scales the GUS to the
//! scan progress (Proposition 8) and plans its readout once, then reads
//! every discovered group's slot out exactly as the scalar shape reads its
//! one slot — into the snapshot it built last time, so a tick's cost
//! follows what changed (new groups, new numbers), not what it holds.
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

use sa_core::{GroupedMomentAccumulator, MomentSlot};
use sa_exec::{key_fingerprint, AggResult, ColumnarChunk, ExecError};
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
    /// Groups first discovered since the previous tick: by the chunk this
    /// snapshot follows at `jobs = 1`, by the worker chunks the tick
    /// absorbed at `jobs = N`. Counted against the loop's own record of the
    /// previous tick, so a final snapshot that was the run's only readout
    /// (an unobserved `.run()`) still counts the last tick's discoveries
    /// only.
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

/// The `GROUP BY` shape: the scalar shape plus compiled key expressions.
pub(crate) struct Grouped<'p> {
    scalar: Scalar<'p>,
    key_kernels: Vec<CompiledExpr>,
    /// Renderings of the key expressions, copied into every snapshot.
    group_exprs: Vec<String>,
}

impl<'p> QueryShape<'p> for Grouped<'p> {
    type Tick = GroupedTick;

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

    /// Route one columnar chunk into the grouped accumulator: evaluate the
    /// key kernels and the aggregate dimensions once per chunk, fingerprint
    /// each row's key once ([`key_fingerprint`]) and hand the chunk to
    /// [`GroupedMomentAccumulator::push_rows`], whose key index is the only
    /// one: a row finds its group there by fingerprint, its key cells
    /// compared with the stored key in place
    /// ([`sa_storage::ColumnVec::cell_eq_value`], `NULL` equal to `NULL`),
    /// and a key tuple is built only when its group is discovered. Each
    /// group's rows go in as one batch, in chunk order, groups in the order
    /// the chunk first shows them — so the accumulation order is
    /// deterministic for a fixed seed and chunking.
    fn push(
        &self,
        acc: &mut GroupedMomentAccumulator<Vec<Value>>,
        chunk: &ColumnarChunk,
    ) -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let key_cols: Vec<ColumnVec> = self
            .key_kernels
            .iter()
            .map(|k| k.eval_column(&chunk.batch))
            .collect::<std::result::Result<_, _>>()
            .map_err(|e| Error::Exec(ExecError::Expr(e)))?;
        let keys: Vec<&ColumnVec> = key_cols.iter().collect();
        let fps: Vec<u64> = (0..chunk.rows())
            .map(|i| key_fingerprint(&keys, i))
            .collect();
        let f = self.scalar.dim_eval.eval(&chunk.batch)?;
        let lineage: Vec<&[u64]> = chunk.lineage.iter().map(Vec::as_slice).collect();
        let f: Vec<&[f64]> = f.iter().map(Vec::as_slice).collect();
        acc.push_rows(
            &fps,
            |i, key| keys.iter().zip(key).all(|(c, v)| c.cell_eq_value(i, v)),
            |i| keys.iter().map(|c| c.value(i)).collect(),
            &lineage,
            &f,
        )
        .map_err(Error::Core)
    }

    /// Read every discovered group out through `head`'s plan, in
    /// deterministic key order, and apply the top-K tracking policy; the
    /// snapshot's `rel_half_width` is the tracked groups' worst.
    ///
    /// The previous snapshot is updated in place: a group it already lists
    /// has its numbers overwritten where it stands (`tick.place` remembers
    /// where each accumulator slot's group stands in the key order), and
    /// only the groups discovered since — the tail of the accumulator's
    /// discovery order — are built, sorted among themselves and merged in.
    fn read(
        &self,
        acc: &GroupedMomentAccumulator<Vec<Value>>,
        head: TickHead,
        prev: Option<Snapshot>,
        tick: &mut GroupedTick,
        opts: &QueryOptions,
    ) -> Result<Snapshot> {
        let (mut groups, group_exprs) = match prev {
            Some(Snapshot::Grouped(s)) => (s.groups, s.group_exprs),
            _ => {
                tick.place.clear();
                (Vec::new(), self.group_exprs.clone())
            }
        };
        let read_group = |g: &mut GroupProgress, slot: MomentSlot<'_>| -> Result<()> {
            let rel = self.scalar.read_slot(slot, &head, &mut g.aggs)?;
            g.sample_rows = slot.count();
            g.rel_half_width = rel;
            g.converged = match (opts.rule.ci_target, rel) {
                (Some(t), Some(r)) => r.is_finite() && r <= t.epsilon,
                _ => false,
            };
            g.tracked = true;
            Ok(())
        };
        // Slots are walked in discovery order — the order they, and the
        // snapshot entries they feed, were allocated in — and `place` says
        // where in the key order each one's entry stands. Discovery is
        // judged on the (merged) accumulator: a group two shards found
        // independently still counts as one discovery.
        let known = groups.len();
        debug_assert_eq!(known, tick.place.len());
        let mut fresh = Vec::with_capacity(acc.group_count() - known);
        for (at, (key, slot)) in acc.iter().enumerate() {
            match tick.place.get(at) {
                Some(&pos) => read_group(&mut groups[pos], slot)?,
                None => {
                    let mut g = GroupProgress {
                        key: key.clone(),
                        aggs: Vec::new(),
                        sample_rows: 0,
                        rel_half_width: None,
                        converged: false,
                        tracked: true,
                    };
                    read_group(&mut g, slot)?;
                    fresh.push(g);
                }
            }
        }
        let new_groups = (acc.group_count() - head.known_groups) as u64;
        if !fresh.is_empty() {
            merge_by_key(&mut groups, &mut tick.place, fresh);
        }
        apply_top_k_policy(&mut groups, opts.ci_top_k, &mut tick.rank);
        let snapshot = GroupedProgressSnapshot {
            chunk: head.chunk,
            rows: acc.count(),
            group_exprs,
            new_groups,
            rel_half_width: tracked_rel_half_width(&groups),
            groups,
            confidence: head.level.level(),
            progress: head.progress,
            gus: head.gus,
            elapsed: head.start.elapsed(),
        };
        // Every grouped tick of this crate's own tests — any shape, any
        // chunk source — checks the in-place update against a from-scratch
        // readout of the same accumulator.
        #[cfg(test)]
        if known > 0 {
            self.assert_is_the_scratch_readout(acc, &snapshot, head.level, head.start, opts);
        }
        Ok(Snapshot::Grouped(snapshot))
    }
}

#[cfg(test)]
impl<'p> Grouped<'p> {
    /// `updated` — a snapshot the readout produced by updating its
    /// predecessor in place — must be, bit for bit, what reading `acc` with
    /// no predecessor gives (bar `new_groups`, which is relative to the
    /// predecessor, and the clock).
    fn assert_is_the_scratch_readout(
        &self,
        acc: &GroupedMomentAccumulator<Vec<Value>>,
        updated: &GroupedProgressSnapshot,
        level: sa_core::CiLevel,
        start: std::time::Instant,
        opts: &QueryOptions,
    ) {
        let head = TickHead {
            chunk: updated.chunk,
            known_groups: 0,
            level,
            plan: sa_core::ReadoutPlan::new(&updated.gus),
            progress: updated.progress.clone(),
            gus: updated.gus.clone(),
            start,
        };
        let scratch = self
            .read(acc, head, None, &mut GroupedTick::default(), opts)
            .expect("the in-place readout of the same slots succeeded");
        let mut scratch = scratch.as_grouped().expect("keys read out grouped").clone();
        assert_eq!(scratch.new_groups as usize, scratch.groups.len());
        (scratch.new_groups, scratch.elapsed) = (updated.new_groups, updated.elapsed);
        // `Debug` prints every f64 so that it round-trips: equal renderings
        // are equal bits (and NaN = NaN, which `==` would deny).
        assert_eq!(format!("{updated:?}"), format!("{scratch:?}"));
    }
}

/// What the grouped readout keeps between ticks beside the snapshot it
/// updates in place.
#[derive(Default)]
pub(crate) struct GroupedTick {
    /// For each accumulator slot, in discovery order: where its group
    /// stands in the last snapshot's key-ordered `groups`.
    place: Vec<usize>,
    /// Scratch of the top-K policy: (ranked magnitude, group position).
    rank: Vec<(f64, usize)>,
}

/// Merge `fresh` — the groups of the accumulator slots after the first
/// `place.len()`, in discovery order — into the key-sorted `groups`, and
/// bring `place` up to date: old groups shift right by the fresh keys that
/// sort before them, fresh ones land between.
fn merge_by_key(
    groups: &mut Vec<GroupProgress>,
    place: &mut Vec<usize>,
    fresh: Vec<GroupProgress>,
) {
    let known = groups.len();
    let mut fresh: Vec<(GroupProgress, usize)> = fresh.into_iter().zip(known..).collect();
    fresh.sort_by(|a, b| a.0.key.cmp(&b.0.key));
    place.resize(known + fresh.len(), 0);
    let old = std::mem::replace(groups, Vec::with_capacity(known + fresh.len()));
    // `moved[pos]`: where the old snapshot's group `pos` stands now.
    let mut moved = Vec::with_capacity(known);
    let mut fresh = fresh.into_iter().peekable();
    for g in old {
        while let Some((f, at)) = fresh.next_if(|(f, _)| f.key < g.key) {
            place[at] = groups.len();
            groups.push(f);
        }
        moved.push(groups.len());
        groups.push(g);
    }
    for (f, at) in fresh {
        place[at] = groups.len();
        groups.push(f);
    }
    for pos in &mut place[..known] {
        *pos = moved[*pos];
    }
}

/// Demote all but the `k` groups with the largest absolute first-aggregate
/// estimates to untracked. Ties (and NaN estimates, ranked below every
/// finite magnitude — an inestimable group must not hold up the stop that
/// `ci_top_k` exists to unblock) break by key order, so the tracked set is
/// deterministic. Every group arrives tracked; each magnitude is computed
/// once into `rank` (scratch, kept between ticks for its allocation) and
/// the top `k` are split off by selection, `O(groups)`, not by a full sort.
fn apply_top_k_policy(
    groups: &mut [GroupProgress],
    ci_top_k: Option<usize>,
    rank: &mut Vec<(f64, usize)>,
) {
    let Some(k) = ci_top_k else { return };
    if groups.len() <= k {
        return;
    }
    rank.clear();
    rank.extend(groups.iter().enumerate().map(|(i, g)| {
        let magnitude = g
            .aggs
            .first()
            .map(|a| a.estimate.abs())
            .filter(|m| m.is_finite())
            .unwrap_or(f64::NEG_INFINITY);
        (magnitude, i)
    }));
    // A strict total order (positions are distinct), so the k-th element
    // splits the same top k a full sort would.
    rank.select_nth_unstable_by(k, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &rank[k..] {
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
    use crate::driver::{drive, Listeners, RunCtx};
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
        let mut on_snapshot =
            |s: &Snapshot| on_snapshot(s.as_grouped().expect("keys read out grouped"));
        let listeners = Listeners {
            on_snapshot: Some(&mut on_snapshot),
            ..Default::default()
        };
        drive(
            plan,
            group_by,
            catalog,
            opts,
            &RunCtx::default(),
            true,
            listeners,
        )
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
        apply_top_k_policy(&mut groups, Some(2), &mut Vec::new());
        assert!(!groups[0].tracked, "NaN group must be demoted");
        assert!(groups[1].tracked && groups[2].tracked);
    }

    /// The policy as it was before selection replaced the sort: rank every
    /// group, demote all but the first `k`.
    fn top_k_by_full_sort(groups: &mut [GroupProgress], k: usize) {
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
        for &i in order.iter().skip(k) {
            groups[i].tracked = false;
        }
    }

    #[test]
    fn top_k_selection_tracks_what_the_full_sort_tracks() {
        // Generated estimates drawn from a handful of values, so ties are
        // the rule: ±magnitudes that tie in absolute value, zeros of both
        // signs, NaN and ±∞ (all three rank last, among themselves by key
        // order). A group with no aggregate at all ranks last too.
        let pool = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.5,
            -2.5,
            7.0,
            1e-300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ];
        let mk = |i: usize, estimate: f64, bare: bool| GroupProgress {
            key: vec![Value::Int(i as i64)],
            aggs: if bare {
                Vec::new()
            } else {
                vec![AggResult {
                    name: "s".into(),
                    func: sa_plan::AggFunc::Sum,
                    estimate,
                    variance: None,
                    ci_normal: None,
                    ci_chebyshev: None,
                    quantile_bound: None,
                }]
            },
            sample_rows: 1,
            rel_half_width: None,
            converged: false,
            tracked: true,
        };
        let mut rank = Vec::new();
        let mut draw = 0x9e37_79b9_7f4a_7c15u64;
        for len in [1usize, 2, 3, 7, 40, 257] {
            for round in 0..20 {
                let groups: Vec<GroupProgress> = (0..len)
                    .map(|i| {
                        draw = sa_core::hash::splitmix64(draw);
                        // Later rounds narrow the pool: more and longer ties.
                        let pick = draw as usize % (pool.len() - round % 10);
                        mk(i, pool[pick], draw >> 60 == 0)
                    })
                    .collect();
                for k in [1, len.saturating_sub(1).max(1), len, len + 1, len / 2 + 1] {
                    let (mut by_sort, mut by_selection) = (groups.clone(), groups.clone());
                    top_k_by_full_sort(&mut by_sort, k);
                    apply_top_k_policy(&mut by_selection, Some(k), &mut rank);
                    let tracked = |gs: &[GroupProgress]| -> Vec<bool> {
                        gs.iter().map(|g| g.tracked).collect()
                    };
                    assert_eq!(
                        tracked(&by_selection),
                        tracked(&by_sort),
                        "len {len}, k {k}, round {round}"
                    );
                    assert_eq!(
                        by_selection.iter().filter(|g| g.tracked).count(),
                        k.min(len)
                    );
                }
            }
        }
        // No policy: nothing is demoted, whatever the scratch holds.
        let mut groups = vec![mk(0, 1.0, false), mk(1, 2.0, false)];
        apply_top_k_policy(&mut groups, None, &mut rank);
        assert!(groups.iter().all(|g| g.tracked));
    }

    /// `t(g, v)`: 41 groups cycling through the first `rows − 3` rows (every
    /// fifth of them under a NULL key instead), then three rows of a group
    /// nothing else belongs to — discovered by whichever chunk comes last.
    fn late_group_catalog(rows: i64) -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..rows {
            let g = if i >= rows - 3 {
                Value::Int(-7)
            } else if i % 5 == 0 {
                Value::Null
            } else {
                // Keys come in an order that is neither ascending nor
                // descending, so discovery order ≠ key order.
                Value::Int((i * 17) % 41)
            };
            b.push_row(&[g, Value::Float(1.0 + (i % 7) as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    #[test]
    fn in_place_ticks_show_what_a_scratch_readout_shows() {
        // Every tick below also runs `assert_is_the_scratch_readout` (the
        // readout's own `cfg(test)` check): the snapshot updated in place is
        // bit for bit the from-scratch readout of the same accumulator. On
        // top of it, what a caller relies on across ticks.
        let c = late_group_catalog(6000);
        let plan = LogicalPlan::scan("t").aggregate(vec![
            AggSpec::sum(col("v"), "s"),
            AggSpec::avg(col("v"), "a"),
        ]);
        for (jobs, top_k) in [(1, None), (1, Some(5)), (4, None), (4, Some(5))] {
            let opts = QueryOptions {
                parallelism: jobs,
                ci_top_k: top_k,
                ..opts(11, 256, StoppingRule::exhaustive())
            };
            let (mut discovered, mut news, mut ticks) = (0u64, Vec::new(), 0u64);
            let r = run(&plan, &[col("g")], &c, &opts, |s| {
                ticks += 1;
                assert_eq!(s.chunk, ticks);
                assert!(
                    s.groups.windows(2).all(|w| w[0].key < w[1].key),
                    "keys strictly ascending at tick {ticks}, jobs {jobs}"
                );
                discovered += s.new_groups;
                news.push(s.new_groups);
                assert_eq!(discovered as usize, s.groups.len());
                assert_eq!(s.rows, s.groups.iter().map(|g| g.sample_rows).sum::<u64>());
                let tracked = s.groups.iter().filter(|g| g.tracked).count();
                assert_eq!(
                    tracked,
                    top_k.map_or(s.groups.len(), |k| k.min(s.groups.len()))
                );
            })
            .unwrap();
            assert_eq!(r.reason, StopReason::Exhausted);
            let s = grouped(&r);
            assert_eq!(s.rows, 6000);
            assert_eq!(s.groups.len(), 43, "41 keys, NULL, and the late one");
            assert_eq!(s.groups[0].key, vec![Value::Null], "NULL sorts first");
            assert_eq!(s.groups[1].key, vec![Value::Int(-7)]);
            assert_eq!(s.groups[1].sample_rows, 3);
            if jobs == 1 {
                // 6000 rows in 256-row chunks: the late group's three rows
                // sit in the last non-empty chunk, one tick before the
                // empty exhaustion pull.
                assert_eq!(news.len(), 25);
                assert_eq!(news[22..], [0, 1, 0]);
            }
        }
    }

    #[test]
    fn a_snapshot_taken_off_the_channel_is_not_touched_by_later_ticks() {
        let engine = crate::Engine::new(late_group_catalog(4000));
        let query = || {
            engine
                .session()
                .query(
                    "SELECT g, SUM(v) AS s, AVG(v) AS a FROM t TABLESAMPLE (80 PERCENT) \
                     GROUP BY g",
                )
                .seed(21)
                .chunk_rows(300)
        };
        // What each tick looked like when it was emitted.
        let mut emitted = Vec::new();
        query()
            .run_with(|s| emitted.push(format!("{:?}", s.as_grouped().unwrap().groups)))
            .unwrap();
        // Hold every snapshot of an `.online()` run until the run is over —
        // the loop has long since rewritten its own copy in place.
        let handle = query().online().unwrap();
        let held: Vec<Snapshot> = handle.snapshots().collect();
        let r = handle.wait().unwrap();
        assert_eq!(held.len() as u64, r.chunks);
        assert_eq!(held.len(), emitted.len());
        assert!(held.len() > 5);
        for (i, (snap, at_emission)) in held.iter().zip(&emitted).enumerate() {
            let s = snap.as_grouped().unwrap();
            assert_eq!(s.chunk, i as u64 + 1);
            assert_eq!(&format!("{:?}", s.groups), at_emission, "tick {}", i + 1);
        }
        assert!(held[0].rows() < held.last().unwrap().rows());
    }

    #[test]
    fn an_unobserved_run_reads_the_accumulator_out_once_at_the_stop() {
        // Readouts per run, against its tick count: without a caller, a CI
        // target or an adaptive chunk hint, only the stopping tick is read
        // out; each of the three brings back one readout per tick.
        let engine = crate::Engine::new(late_group_catalog(6000));
        let query = || {
            engine
                .session()
                .query("SELECT g, SUM(v) AS s FROM t TABLESAMPLE (80 PERCENT) GROUP BY g")
                .seed(3)
                .chunk_rows(256)
        };
        let counted = |run: &dyn Fn() -> QueryResult| {
            let before = crate::driver::READOUTS.with(|n| n.get());
            let r = run();
            (crate::driver::READOUTS.with(|n| n.get()) - before, r)
        };
        for (what, run) in [
            (
                "exhaustion",
                &(|| query().run().unwrap()) as &dyn Fn() -> QueryResult,
            ),
            ("row budget", &|| query().rows(2000).run().unwrap()),
        ] {
            let (readouts, r) = counted(run);
            assert!(r.chunks > 5, "{what}: {} ticks", r.chunks);
            assert_eq!(readouts, 1, "{what}: {} ticks", r.chunks);
        }
        // An ε no interval reaches: every tick is judged on its interval,
        // and the run still exhausts.
        for (what, run) in [
            (
                "callback",
                &(|| query().run_with(|_| {}).unwrap()) as &dyn Fn() -> QueryResult,
            ),
            ("CI target", &|| query().within(1e-12, 0.95).run().unwrap()),
            ("adaptive chunks", &|| {
                query().adaptive_chunks(true).run().unwrap()
            }),
        ] {
            let (readouts, r) = counted(run);
            assert_eq!(r.reason, StopReason::Exhausted, "{what}");
            assert!(r.chunks > 1, "{what}: {} ticks", r.chunks);
            assert_eq!(readouts, r.chunks, "{what}");
        }
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
        let mut on_snapshot = |s: &Snapshot| {
            assert!(s.as_scalar().is_some());
            ticks += 1;
        };
        let listeners = Listeners {
            on_snapshot: Some(&mut on_snapshot),
            ..Default::default()
        };
        let r = drive(
            &sum_plan(0.5),
            &[],
            &c,
            &QueryOptions::default(),
            &ctx,
            true,
            listeners,
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
