//! Proposition 7 end to end: the `UnionSamples` plan operator — combining
//! two independent samples of the same expression, deduplicated by lineage,
//! analyzed with the union formula
//! `a = a₁+a₂−a₁a₂`, `b_T = 2a−1+(1−2a₁+b₁_T)(1−2a₂+b₂_T)`.

mod support;

use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use sampling_algebra::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema);
    for i in 0..1500 {
        b.push_row(&[Value::Int(i % 30), Value::Float(1.0 + (i % 5) as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    let schema = Schema::new(vec![
        Field::new("dk", DataType::Int),
        Field::new("w", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("d", schema);
    for i in 0..30 {
        b.push_row(&[Value::Int(i), Value::Float(2.0)]).unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

fn union_plan(p1: f64, p2: f64) -> LogicalPlan {
    let branch = |p: f64| LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p });
    branch(p1)
        .union_samples(branch(p2))
        .aggregate(vec![AggSpec::sum(col("v"), "s")])
}

#[test]
fn union_gus_matches_proposition7() {
    let cat = catalog();
    let analysis = rewrite(&union_plan(0.2, 0.5), &cat).unwrap();
    let direct = GusParams::bernoulli("t", 0.2)
        .unwrap()
        .union(&GusParams::bernoulli("t", 0.5).unwrap())
        .unwrap();
    assert!((analysis.gus.a() - direct.a()).abs() < 1e-12);
    assert!((analysis.gus.a() - 0.6).abs() < 1e-12); // 0.2+0.5−0.1
    assert!(analysis.gus.is_proper());
    use sampling_algebra::plan::Rule;
    assert!(analysis
        .trace
        .steps
        .iter()
        .any(|s| s.rule == Rule::UnionSamples));
}

#[test]
fn union_execution_deduplicates_by_lineage() {
    let cat = catalog();
    let LogicalPlan::Aggregate { input, .. } = union_plan(0.6, 0.6) else {
        panic!()
    };
    let opts = ExecOptions {
        seed: 5,
        ..Default::default()
    };
    let rows = open_stream(&input, &cat, &opts)
        .unwrap()
        .collect_rows(256)
        .unwrap();
    // No duplicate lineage.
    let mut ids: Vec<u64> = rows.iter().map(|r| r.lineage[0]).collect();
    let before = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), before, "duplicates survived the union");
    // Keep rate ≈ 1−0.4² = 0.84.
    let rate = before as f64 / 1500.0;
    assert!((rate - 0.84).abs() < 0.05, "rate = {rate}");
}

#[test]
fn union_estimate_unbiased_and_covered() {
    let cat = catalog();
    let plan = union_plan(0.3, 0.4);
    let exact = support::exact(&plan, &cat).unwrap()[0];
    let trials = 300u64;
    let mut mean = 0.0;
    let mut covered = 0;
    for seed in 0..trials {
        let r = support::query(&plan, &cat, seed, 0.95).batch().unwrap();
        let r = support::scalar(&r);
        mean += r.aggs[0].estimate;
        if r.aggs[0].ci_normal.as_ref().unwrap().contains(exact) {
            covered += 1;
        }
    }
    mean /= trials as f64;
    assert!(
        (mean - exact).abs() < 0.02 * exact,
        "mean {mean} vs {exact}"
    );
    let rate = covered as f64 / trials as f64;
    assert!(rate >= 0.88, "coverage {rate}");
}

#[test]
fn union_of_wor_samples() {
    // Re-using two WOR samples of the same relation (the paper's "samples
    // are expensive to acquire" motivation).
    let cat = catalog();
    let branch = || LogicalPlan::scan("t").sample(SamplingMethod::Wor { size: 300 });
    let plan = branch()
        .union_samples(branch())
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let exact = support::exact(&plan, &cat).unwrap()[0];
    let trials = 200u64;
    let mean: f64 = (0..trials)
        .map(|seed| {
            support::scalar(&support::query(&plan, &cat, seed, 0.95).batch().unwrap()).aggs[0]
                .estimate
        })
        .sum::<f64>()
        / trials as f64;
    assert!(
        (mean - exact).abs() < 0.02 * exact,
        "mean {mean} vs {exact}"
    );
}

#[test]
fn union_under_join_composes() {
    // (B(0.3)(t) ∪ B(0.3)(t)) ⋈ d — union below a join.
    let cat = catalog();
    let branch = |p: f64| LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p });
    let plan = branch(0.3)
        .union_samples(branch(0.3))
        .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")))
        .aggregate(vec![AggSpec::sum(col("w"), "s")]);
    let analysis = rewrite(&plan, &cat).unwrap();
    assert_eq!(analysis.schema.n(), 2);
    // a = (1−0.7²)·1 = 0.51
    assert!((analysis.gus.a() - 0.51).abs() < 1e-12);
    let exact = support::exact(&plan, &cat).unwrap()[0];
    let trials = 200u64;
    let mean: f64 = (0..trials)
        .map(|seed| {
            support::scalar(&support::query(&plan, &cat, seed, 0.95).batch().unwrap()).aggs[0]
                .estimate
        })
        .sum::<f64>()
        / trials as f64;
    assert!(
        (mean - exact).abs() < 0.03 * exact,
        "mean {mean} vs {exact}"
    );
}

#[test]
fn mismatched_branches_rejected() {
    let cat = catalog();
    // Different relations in the two branches.
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .union_samples(LogicalPlan::scan("d").sample(SamplingMethod::Bernoulli { p: 0.5 }))
        .aggregate(vec![AggSpec::count_star("c")]);
    assert!(plan.validate(&cat).is_err());
    // Different filters in the two branches.
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.5 })
        .filter(col("v").gt(lit(2.0)))
        .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 }))
        .aggregate(vec![AggSpec::count_star("c")]);
    assert!(plan.validate(&cat).is_err());
}

#[test]
fn system_vs_row_union_rejected() {
    let cat = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::System { p: 0.5 })
        .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 }))
        .aggregate(vec![AggSpec::count_star("c")]);
    assert!(plan.validate(&cat).is_err());
}

#[test]
fn union_display_and_base_relations() {
    let plan = union_plan(0.2, 0.3);
    assert_eq!(plan.base_relations(), vec!["t"]); // counted once
    let tree = plan.display_tree();
    assert!(tree.contains('∪'), "{tree}");
}

#[test]
fn union_same_sampling_twice_matches_single_equivalent_bernoulli() {
    // B(p) ∪ B(p) should behave exactly like B(2p−p²) — verify the variance
    // estimates agree on average across seeds.
    let cat = catalog();
    let p = 0.25;
    let q = 2.0 * p - p * p;
    let union = union_plan(p, p);
    let single = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: q })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let trials = 150u64;
    let avg_var = |plan: &LogicalPlan| -> f64 {
        (0..trials)
            .map(|seed| {
                let r = support::query(plan, &cat, seed, 0.95).batch().unwrap();
                r.report.unwrap().raw_variance(0).unwrap()
            })
            .sum::<f64>()
            / trials as f64
    };
    let vu = avg_var(&union);
    let vs = avg_var(&single);
    assert!(
        (vu - vs).abs() < 0.25 * vs.max(1.0),
        "union {vu} vs single-equivalent {vs}"
    );
}

#[test]
fn union_mid_scan_chebyshev_coverage_at_99() {
    // Stopping a union plan mid-scan must still target the *population*:
    // each branch's GUS is composed with its own WOR(scanned, total) prefix
    // factor before the union formula combines them. 100 seeds at two row
    // budgets — 300 stops inside the first branch, 700 inside the second
    // (after dedup has drained branch one) — so both composition paths are
    // exercised. 99% Chebyshev intervals are conservative, so ≥99/100
    // should cover; we gate at 96/100 to keep the test stable.
    let cat = catalog();
    let plan = union_plan(0.4, 0.4);
    let truth = support::exact(&plan, &cat).unwrap()[0];
    assert!((truth - 4500.0).abs() < 1e-9, "catalog drifted: {truth}");
    let mut covered = 0u32;
    for trial in 0..100u64 {
        let budget = if trial % 2 == 0 { 300 } else { 700 };
        let r = support::run(
            &plan,
            &cat,
            &QueryOptions {
                seed: trial,
                chunk_rows: 64,
                confidence: 0.99,
                rule: StoppingRule::rows(budget),
                ..Default::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(r.reason, StopReason::RowBudget, "trial {trial} ran dry");
        assert!(
            r.snapshot.progress().iter().any(|&(c, a)| c < a),
            "trial {trial} exhausted the scan"
        );
        if support::scalar(&r).aggs[0]
            .ci_chebyshev
            .as_ref()
            .is_some_and(|ci| ci.contains(truth))
        {
            covered += 1;
        }
    }
    assert!(covered >= 96, "coverage {covered}/100 at 99% Chebyshev");
}
