//! Property-based tests (proptest) of the workspace's invariants: algebra
//! laws of GUS parameters, Möbius transform identities, estimator
//! invariances, and a differential test of the rewriter against direct
//! algebra evaluation.

mod support;

use proptest::prelude::*;

use sa_core::coeffs::{moebius_transform, moebius_transform_naive, zeta_transform};
use sa_core::{GroupedMomentAccumulator, GroupedMoments, LineageSchema, MomentAccumulator};
use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder};
use sampling_algebra::exec::{agg_results_from_report, layout_dims};
use sampling_algebra::expr::{bind, eval};
use sampling_algebra::prelude::*;

const TOL: f64 = 1e-9;

/// Strategy: a random single-relation GUS over the given name — Bernoulli or
/// WOR with valid parameters.
fn single_gus(name: &'static str) -> impl Strategy<Value = GusParams> {
    prop_oneof![
        (0.01f64..=1.0).prop_map(move |p| GusParams::bernoulli(name, p).unwrap()),
        (1u64..=50, 50u64..=500)
            .prop_map(move |(n, cap)| GusParams::wor(name, n.min(cap), cap).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn algebra_ops_preserve_validity(g in single_gus("a"), h in single_gus("a")) {
        for combined in [g.compact(&h).unwrap(), g.union(&h).unwrap()] {
            prop_assert!(combined.a() >= 0.0 && combined.a() <= 1.0);
            for t in 0..(1u32 << combined.n()) {
                let b = combined.b(RelSet::from_bits(t));
                prop_assert!((0.0..=1.0).contains(&b), "b = {b}");
            }
            prop_assert!(combined.is_proper(), "b_full != a: {combined}");
        }
    }

    #[test]
    fn compact_and_union_are_commutative(g in single_gus("a"), h in single_gus("a")) {
        prop_assert!(g.compact(&h).unwrap().approx_eq(&h.compact(&g).unwrap(), TOL));
        prop_assert!(g.union(&h).unwrap().approx_eq(&h.union(&g).unwrap(), TOL));
    }

    #[test]
    fn compact_and_union_are_associative(
        g in single_gus("a"),
        h in single_gus("a"),
        k in single_gus("a"),
    ) {
        let left = g.compact(&h).unwrap().compact(&k).unwrap();
        let right = g.compact(&h.compact(&k).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, TOL));
        let left = g.union(&h).unwrap().union(&k).unwrap();
        let right = g.union(&h.union(&k).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, TOL));
    }

    #[test]
    fn semiring_identities_and_absorption(g in single_gus("a")) {
        let id = GusParams::identity(g.schema().clone());
        let null = GusParams::null(g.schema().clone());
        // G(1,1̄) is neutral for compaction; G(0,0̄) neutral for union.
        prop_assert!(g.compact(&id).unwrap().approx_eq(&g, TOL));
        prop_assert!(g.union(&null).unwrap().approx_eq(&g, TOL));
        // G(0,0̄) absorbs under compaction; G(1,1̄) absorbs under union.
        prop_assert!(g.compact(&null).unwrap().approx_eq(&null, TOL));
        prop_assert!(g.union(&id).unwrap().approx_eq(&id, TOL));
    }

    #[test]
    fn join_is_commutative_up_to_relabeling(g in single_gus("a"), h in single_gus("b")) {
        let gh = g.join(&h).unwrap();
        let hg = h.join(&g).unwrap();
        // Schemas differ in order; compare named coefficients.
        prop_assert!((gh.a() - hg.a()).abs() < TOL);
        for names in [vec![], vec!["a"], vec!["b"], vec!["a", "b"]] {
            prop_assert!(
                (gh.b_named(&names).unwrap() - hg.b_named(&names).unwrap()).abs() < TOL
            );
        }
    }

    #[test]
    fn moebius_fast_matches_naive_and_roundtrips(
        b in prop::collection::vec(0.0f64..1.0, 8usize)
    ) {
        let fast = moebius_transform(&b);
        let naive = moebius_transform_naive(&b);
        for (x, y) in fast.iter().zip(&naive) {
            prop_assert!((x - y).abs() < 1e-10);
        }
        let back = zeta_transform(&fast);
        for (x, y) in back.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-10);
        }
        // Telescoping: Σ_S c_S = b_full.
        let total: f64 = fast.iter().sum();
        prop_assert!((total - b[7]).abs() < 1e-9);
    }

    #[test]
    fn estimator_scales_quadratically_in_f(
        scale in 0.1f64..10.0,
        values in prop::collection::vec(-100.0f64..100.0, 5..40),
    ) {
        let gus = GusParams::bernoulli("r", 0.5).unwrap();
        let run = |lambda: f64| {
            let mut sbox = SBox::new(gus.clone());
            for (i, v) in values.iter().enumerate() {
                sbox.push_scalar(&[i as u64], lambda * v).unwrap();
            }
            sbox.finish().unwrap()
        };
        let base = run(1.0);
        let scaled = run(scale);
        prop_assert!(
            (scaled.estimate[0] - scale * base.estimate[0]).abs()
                < 1e-9 * (1.0 + base.estimate[0].abs() * scale)
        );
        let (vb, vs) = (base.raw_variance(0).unwrap(), scaled.raw_variance(0).unwrap());
        prop_assert!(
            (vs - scale * scale * vb).abs() < 1e-6 * (1.0 + vb.abs() * scale * scale),
            "var {vs} vs λ²·{vb}"
        );
    }

    #[test]
    fn estimator_is_permutation_invariant(
        mut rows in prop::collection::vec((0u64..20, 0u64..20, -50.0f64..50.0), 1..60),
        rot in 0usize..59,
    ) {
        let gus = GusParams::bernoulli("x", 0.5)
            .unwrap()
            .join(&GusParams::bernoulli("y", 0.5).unwrap())
            .unwrap();
        let run = |rows: &[(u64, u64, f64)]| {
            let mut sbox = SBox::new(gus.clone());
            for (x, y, f) in rows {
                sbox.push_scalar(&[*x, *y], *f).unwrap();
            }
            sbox.finish().unwrap()
        };
        let before = run(&rows);
        let k = rot % rows.len();
        rows.rotate_left(k);
        let after = run(&rows);
        prop_assert!((before.estimate[0] - after.estimate[0]).abs() < 1e-9);
        prop_assert!(
            (before.raw_variance(0).unwrap() - after.raw_variance(0).unwrap()).abs()
                < 1e-6 * (1.0 + before.raw_variance(0).unwrap().abs())
        );
    }

    #[test]
    fn rewriter_matches_direct_algebra(
        p1 in 0.05f64..1.0,
        p2 in 0.05f64..1.0,
        wor_size in 1u64..100,
    ) {
        // Random 3-relation plan: B(p1)(r0) ⋈ WOR(wor)(r1) ⋈ B(p2)(r2);
        // the rewriter must agree with direct algebra composition.
        let mut catalog = Catalog::new();
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]).unwrap();
        for name in ["r0", "r1", "r2"] {
            let mut b = TableBuilder::new(name, schema.clone());
            for j in 0..100i64 {
                b.push_row(&[sa_storage::Value::Int(j)]).unwrap();
            }
            catalog.register(b.finish().unwrap()).unwrap();
        }
        let plan = LogicalPlan::scan("r0")
            .sample(SamplingMethod::Bernoulli { p: p1 })
            .join_on(
                LogicalPlan::scan("r1").sample(SamplingMethod::Wor { size: wor_size }),
                lit(true),
            )
            .join_on(
                LogicalPlan::scan("r2").sample(SamplingMethod::Bernoulli { p: p2 }),
                lit(true),
            )
            .aggregate(vec![AggSpec::count_star("c")]);
        let analysis = rewrite(&plan, &catalog).unwrap();
        let direct = GusParams::bernoulli("r0", p1)
            .unwrap()
            .join(&GusParams::wor("r1", wor_size, 100).unwrap())
            .unwrap()
            .join(&GusParams::bernoulli("r2", p2).unwrap())
            .unwrap();
        prop_assert!(analysis.gus.approx_eq(&direct, 1e-9));
    }

    #[test]
    fn grouped_moments_merge_order_free(
        rows in prop::collection::vec((0u64..5, -10.0f64..10.0), 0..40)
    ) {
        // y_S computed in one pass equals y_S computed from sorted input.
        let run = |rows: &[(u64, f64)]| {
            let mut acc = GroupedMoments::new(1, 1);
            for (id, f) in rows {
                acc.push_scalar(&[*id], *f).unwrap();
            }
            acc.finish()
        };
        let a = run(&rows);
        let mut sorted = rows.clone();
        sorted.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        let b = run(&sorted);
        for s in 0..2u32 {
            let (ya, yb) = (
                a.y_scalar(RelSet::from_bits(s)),
                b.y_scalar(RelSet::from_bits(s)),
            );
            prop_assert!((ya - yb).abs() < 1e-7 * (1.0 + ya.abs()));
        }
    }

    #[test]
    fn incremental_accumulator_matches_batch_for_any_chunk_split(
        rows in prop::collection::vec((0u64..8, 0u64..8, -20.0f64..20.0), 0..80),
        cuts in prop::collection::vec(0usize..80, 0..6),
        shard_cut in 0usize..80,
    ) {
        // Batch: every row through one GroupedMoments pass.
        let gus = GusParams::bernoulli("x", 0.4)
            .unwrap()
            .join(&GusParams::bernoulli("y", 0.7).unwrap())
            .unwrap();
        let mut batch = GroupedMoments::new(2, 1);
        for (x, y, f) in &rows {
            batch.push_scalar(&[*x, *y], *f).unwrap();
        }
        let batch_report = sa_core::estimate_from_sample_moments(&gus, &batch.finish()).unwrap();

        // Incremental: the same rows in arbitrary chunk splits…
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (rows.len() + 1)).collect();
        bounds.push(0);
        bounds.push(rows.len());
        bounds.sort_unstable();
        let mut inc = MomentAccumulator::new(2, 1);
        for w in bounds.windows(2) {
            for (x, y, f) in &rows[w[0]..w[1]] {
                inc.push_scalar(&[*x, *y], *f).unwrap();
            }
        }
        // …and a two-shard split merged back together.
        let k = shard_cut % (rows.len() + 1);
        let mut left = MomentAccumulator::new(2, 1);
        for (x, y, f) in &rows[..k] {
            left.push_scalar(&[*x, *y], *f).unwrap();
        }
        let mut right = MomentAccumulator::new(2, 1);
        for (x, y, f) in &rows[k..] {
            right.push_scalar(&[*x, *y], *f).unwrap();
        }
        left.merge(&right).unwrap();

        for acc in [inc, left] {
            let report = sa_core::estimate_from_sample_moments(&gus, &acc.snapshot()).unwrap();
            prop_assert!(
                (report.estimate[0] - batch_report.estimate[0]).abs()
                    <= 1e-9 * (1.0 + batch_report.estimate[0].abs())
            );
            let (vi, vb) = (
                report.raw_variance(0).unwrap(),
                batch_report.raw_variance(0).unwrap(),
            );
            prop_assert!((vi - vb).abs() <= 1e-9 * (1.0 + vb.abs()), "{vi} vs {vb}");
            // The raw moments agree subset by subset, too.
            let (mi, mb) = (acc.snapshot(), {
                let mut b = GroupedMoments::new(2, 1);
                for (x, y, f) in &rows {
                    b.push_scalar(&[*x, *y], *f).unwrap();
                }
                b.finish()
            });
            for s in 0..4u32 {
                let (yi, yb) = (
                    mi.y_scalar(RelSet::from_bits(s)),
                    mb.y_scalar(RelSet::from_bits(s)),
                );
                prop_assert!((yi - yb).abs() <= 1e-9 * (1.0 + yb.abs()), "y[{s}]: {yi} vs {yb}");
            }
        }
    }

    /// Any shard partition of a streamed plan — every worker's rows pushed
    /// into its own accumulator, shards merged in worker order — equals the
    /// sequential accumulator fed the same rows, to 1e-9: the invariant the
    /// shard-parallel online driver rests on.
    #[test]
    fn partitioned_plan_shards_merge_to_the_sequential_accumulator(
        parts in 1usize..6,
        seed in 0u64..500,
        p in 0.2f64..0.9,
        hint in 1usize..300,
    ) {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
        let mut b = TableBuilder::new("t", schema).with_block_rows(32);
        for i in 0..400 {
            b.push_row(&[Value::Float(((i * 37) % 101) as f64 - 50.0)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p });
        let streams = sampling_algebra::exec::open_stream_partitioned(
            &plan, &c, &ExecOptions { seed, ..Default::default() }, parts,
        ).unwrap();
        let mut merged = MomentAccumulator::new(1, 1);
        let mut all_rows = Vec::new();
        for s in streams {
            let rows = s.collect_rows(hint).unwrap();
            let mut shard = MomentAccumulator::new(1, 1);
            for row in &rows {
                shard.push_scalar(&row.lineage, row.values[0].as_f64().unwrap()).unwrap();
            }
            merged.merge(&shard).unwrap();
            all_rows.extend(rows);
        }
        let mut sequential = MomentAccumulator::new(1, 1);
        for row in &all_rows {
            sequential.push_scalar(&row.lineage, row.values[0].as_f64().unwrap()).unwrap();
        }
        let (ms, mm) = (sequential.snapshot(), merged.snapshot());
        prop_assert_eq!(mm.count, ms.count);
        for s in 0..2u32 {
            let (ym, ys) = (
                mm.y_scalar(sa_core::RelSet::from_bits(s)),
                ms.y_scalar(sa_core::RelSet::from_bits(s)),
            );
            prop_assert!((ym - ys).abs() <= TOL * (1.0 + ys.abs()), "y[{}]: {} vs {}", s, ym, ys);
        }
        let gus = GusParams::bernoulli("t", p).unwrap();
        let (rm, rs) = (
            sa_core::estimate_from_sample_moments(&gus, &mm).unwrap(),
            sa_core::estimate_from_sample_moments(&gus, &ms).unwrap(),
        );
        prop_assert!(
            (rm.estimate[0] - rs.estimate[0]).abs() <= TOL * (1.0 + rs.estimate[0].abs())
        );
    }

    #[test]
    fn grouped_accumulator_matches_batch_grouped_query(
        p in 0.2f64..1.0,
        seed in 0u64..1000,
        cuts in prop::collection::vec(0usize..400, 0..6),
        shard_cut in 0usize..400,
    ) {
        // t(g, v): 9 groups with varying sizes and values.
        let mut catalog = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..300i64 {
            b.push_row(&[
                sa_storage::Value::Int((i * i) % 9),
                sa_storage::Value::Float(((i % 13) - 6) as f64),
            ])
            .unwrap();
        }
        catalog.register(b.finish().unwrap()).unwrap();
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p })
            .aggregate(vec![AggSpec::sum(col("v"), "s"), AggSpec::count_star("n")]);

        // The batch grouped driver's answer…
        let result = support::query(&plan, &catalog, seed, 0.95)
            .group_by(vec![col("g")])
            .batch()
            .unwrap();
        let batch = support::grouped(&result);
        // …and the SAME realized sample as raw rows (the batch drains the
        // aggregate input's stream with this very seed).
        let LogicalPlan::Aggregate { aggs, input } = &plan else { unreachable!() };
        let stream =
            open_stream(input, &catalog, &ExecOptions { seed, ..Default::default() }).unwrap();
        let schema = stream.schema().clone();
        let rows = stream.collect_rows(64).unwrap();
        let layout = layout_dims(aggs, &schema).unwrap();
        let key_expr = bind(&col("g"), &schema).unwrap();
        let keyed: Vec<(Vec<sa_storage::Value>, &sa_exec::Row)> = rows
            .iter()
            .map(|row| (vec![eval(&key_expr, &row.values).unwrap()], row))
            .collect();

        // Incremental: arbitrary chunk boundaries into one accumulator…
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (keyed.len() + 1)).collect();
        bounds.push(0);
        bounds.push(keyed.len());
        bounds.sort_unstable();
        let dims = layout.dims();
        let mut inc: GroupedMomentAccumulator<Vec<sa_storage::Value>> =
            GroupedMomentAccumulator::new(1, dims);
        for w in bounds.windows(2) {
            for (key, row) in &keyed[w[0]..w[1]] {
                inc.push(key.clone(), &row.lineage, &sa_exec::f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
        // …and a two-shard split merged back together.
        let k = shard_cut % (keyed.len() + 1);
        let mut left: GroupedMomentAccumulator<Vec<sa_storage::Value>> =
            GroupedMomentAccumulator::new(1, dims);
        for (key, row) in &keyed[..k] {
            left.push(key.clone(), &row.lineage, &sa_exec::f_vector(&layout, row).unwrap())
                .unwrap();
        }
        let mut right: GroupedMomentAccumulator<Vec<sa_storage::Value>> =
            GroupedMomentAccumulator::new(1, dims);
        for (key, row) in &keyed[k..] {
            right.push(key.clone(), &row.lineage, &sa_exec::f_vector(&layout, row).unwrap())
                .unwrap();
        }
        left.merge(&right).unwrap();

        let gus = &result.analysis.gus;
        for acc in [&inc, &left] {
            prop_assert_eq!(acc.group_count(), batch.groups.len());
            for g in &batch.groups {
                let report = acc.group(&g.key).map(|s| s.report(gus)).expect("group present").unwrap();
                let incs = agg_results_from_report(aggs, &layout, &report, 0.95);
                for (a_inc, a_batch) in incs.iter().zip(&g.aggs) {
                    prop_assert!(
                        (a_inc.estimate - a_batch.estimate).abs()
                            <= 1e-9 * (1.0 + a_batch.estimate.abs()),
                        "{:?}/{}: {} vs {}", g.key, a_batch.name, a_inc.estimate, a_batch.estimate
                    );
                    if let (Some(vi), Some(vb)) = (a_inc.variance, a_batch.variance) {
                        prop_assert!(
                            (vi - vb).abs() <= 1e-9 * (1.0 + vb.abs()),
                            "{:?}/{}: var {} vs {}", g.key, a_batch.name, vi, vb
                        );
                    }
                }
                prop_assert_eq!(acc.group(&g.key).unwrap().count(), g.sample_rows);
            }
        }
    }

    #[test]
    fn subsets_iterator_counts(mask in 0u32..64) {
        let s = RelSet::from_bits(mask);
        let subs: Vec<RelSet> = s.subsets().collect();
        prop_assert_eq!(subs.len(), 1usize << s.len());
        for t in &subs {
            prop_assert!(t.is_subset_of(s));
        }
    }

    #[test]
    fn lineage_bernoulli_gus_is_proper(
        p1 in 0.0f64..=1.0,
        p2 in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let schema = LineageSchema::new(&["x", "y"]).unwrap();
        let f = LineageBernoulli::new(schema, &[p1, p2], seed).unwrap();
        let g = f.gus();
        prop_assert!(g.is_proper());
        prop_assert!((g.a() - p1 * p2).abs() < 1e-12);
    }

    #[test]
    fn exact_variance_nonnegative_for_real_samplers(
        p in 0.05f64..1.0,
        values in prop::collection::vec(-50.0f64..50.0, 1..50),
    ) {
        // Theorem 1 evaluated on exact population moments is a true
        // variance: it can never be negative.
        let gus = GusParams::bernoulli("r", p).unwrap();
        let mut acc = GroupedMoments::new(1, 1);
        for (i, v) in values.iter().enumerate() {
            acc.push_scalar(&[i as u64], *v).unwrap();
        }
        let var = sa_core::exact_variance(&gus, &acc.finish(), 0);
        prop_assert!(var >= -1e-7, "negative exact variance {var}");
    }
}
