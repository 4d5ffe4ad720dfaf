//! Statistical validation of the estimator across repeated sampled
//! executions: unbiasedness of the point estimate (Theorem 1), unbiasedness
//! of the variance estimate (the Section 6.3 `Ŷ_S` recursion), empirical
//! confidence-interval coverage (Section 6.4), and the Section 7
//! sub-sampled variance estimator.
//!
//! All randomness is seeded, so these tests are deterministic despite being
//! Monte-Carlo in nature.

mod support;

use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use sampling_algebra::prelude::*;

/// Fact table `t` (rows with values 1..7 cycling, keys fanning out 40×) and
/// dimension `d` (50 rows, w = key mod 5).
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema);
    for i in 0..2000 {
        b.push_row(&[Value::Int(i % 50), Value::Float(1.0 + (i % 7) as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    let schema = Schema::new(vec![
        Field::new("dk", DataType::Int),
        Field::new("w", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("d", schema);
    for i in 0..50 {
        b.push_row(&[Value::Int(i), Value::Float((i % 5) as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

/// The two-table sampled join the paper's Query 1 is shaped like.
fn join_plan() -> LogicalPlan {
    LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.3 })
        .join_on(
            LogicalPlan::scan("d").sample(SamplingMethod::Wor { size: 25 }),
            col("k").eq(col("dk")),
        )
        .aggregate(vec![AggSpec::sum(col("v").mul(col("w")), "s")])
}

fn run_trials(plan: &LogicalPlan, cat: &Catalog, trials: u64) -> Vec<QueryResult> {
    (0..trials)
        .map(|seed| support::query(plan, cat, seed, 0.95).batch().unwrap())
        .collect()
}

#[test]
fn point_estimate_is_unbiased_on_sampled_join() {
    let cat = catalog();
    let plan = join_plan();
    let exact = support::exact(&plan, &cat).unwrap()[0];
    let oracle = oracle_variance(&plan, &cat).unwrap();
    let trials = 300;
    let runs = run_trials(&plan, &cat, trials);
    let mean: f64 = runs
        .iter()
        .map(|r| support::scalar(r).aggs[0].estimate)
        .sum::<f64>()
        / trials as f64;
    // Monte-Carlo error of the mean: σ/√trials; allow 4 of them.
    let mc_sigma = (oracle / trials as f64).sqrt();
    assert!(
        (mean - exact).abs() < 4.0 * mc_sigma,
        "mean {mean} vs exact {exact} (mc σ {mc_sigma})"
    );
}

#[test]
fn variance_estimate_is_unbiased() {
    let cat = catalog();
    let plan = join_plan();
    let oracle = oracle_variance(&plan, &cat).unwrap();
    let trials = 300;
    let runs = run_trials(&plan, &cat, trials);
    let mean_var: f64 = runs
        .iter()
        .map(|r| r.report.as_ref().unwrap().raw_variance(0).unwrap())
        .sum::<f64>()
        / trials as f64;
    // Unbiasedness within 20% (the variance of σ̂² involves 4th moments).
    assert!(
        (mean_var - oracle).abs() < 0.2 * oracle,
        "mean σ̂² {mean_var} vs oracle {oracle}"
    );
}

#[test]
fn normal_interval_coverage_near_nominal() {
    let cat = catalog();
    let plan = join_plan();
    let exact = support::exact(&plan, &cat).unwrap()[0];
    let trials = 300;
    let runs = run_trials(&plan, &cat, trials);
    let covered = runs
        .iter()
        .filter(|r| {
            support::scalar(r).aggs[0]
                .ci_normal
                .as_ref()
                .unwrap()
                .contains(exact)
        })
        .count();
    let rate = covered as f64 / trials as f64;
    // 95% nominal; accept [0.88, 1.0] (binomial noise + mild non-normality).
    assert!(rate >= 0.88, "normal CI coverage {rate}");
}

#[test]
fn chebyshev_interval_coverage_at_least_nominal() {
    let cat = catalog();
    let plan = join_plan();
    let exact = support::exact(&plan, &cat).unwrap()[0];
    let trials = 200;
    let runs = run_trials(&plan, &cat, trials);
    let covered = runs
        .iter()
        .filter(|r| {
            support::scalar(r).aggs[0]
                .ci_chebyshev
                .as_ref()
                .unwrap()
                .contains(exact)
        })
        .count();
    let rate = covered as f64 / trials as f64;
    assert!(rate >= 0.97, "Chebyshev coverage {rate} (should be ≈ 1)");
}

#[test]
fn count_estimate_unbiased() {
    let cat = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.2 })
        .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")))
        .aggregate(vec![AggSpec::count_star("c")]);
    let exact = support::exact(&plan, &cat).unwrap()[0];
    assert_eq!(exact, 2000.0); // every t row matches exactly one d row
    let trials = 200;
    let runs = run_trials(&plan, &cat, trials);
    let mean: f64 = runs
        .iter()
        .map(|r| support::scalar(r).aggs[0].estimate)
        .sum::<f64>()
        / trials as f64;
    assert!((mean - exact).abs() < 0.05 * exact, "mean {mean}");
}

#[test]
fn avg_delta_method_concentrates_on_truth() {
    let cat = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.3 })
        .aggregate(vec![AggSpec::avg(col("v"), "a")]);
    // truth: mean of 1 + (i%7) over 2000 rows.
    let exact: f64 = (0..2000).map(|i| 1.0 + (i % 7) as f64).sum::<f64>() / 2000.0;
    let trials = 200;
    let runs = run_trials(&plan, &cat, trials);
    let mut covered = 0;
    for r in &runs {
        let a = &support::scalar(r).aggs[0];
        if a.ci_normal.as_ref().unwrap().contains(exact) {
            covered += 1;
        }
    }
    let rate = covered as f64 / trials as f64;
    assert!(rate >= 0.85, "AVG delta-method coverage {rate}");
}

#[test]
fn subsampled_variance_estimator_tracks_oracle() {
    // Section 7: estimating Ŷ_S from a lineage-hash sub-sample must still
    // give an (approximately) unbiased variance estimate.
    let cat = catalog();
    let plan = join_plan();
    let oracle = oracle_variance(&plan, &cat).unwrap();
    let trials = 200;
    let mean_var: f64 = (0..trials)
        .map(|seed| {
            let r = support::query(&plan, &cat, seed, 0.95)
                .subsample(150)
                .batch()
                .unwrap();
            let report = r.report.unwrap();
            assert!(report.m <= r.snapshot.rows());
            report.raw_variance(0).unwrap()
        })
        .sum::<f64>()
        / trials as f64;
    assert!(
        (mean_var - oracle).abs() < 0.35 * oracle,
        "sub-sampled mean σ̂² {mean_var} vs oracle {oracle}"
    );
}

#[test]
fn system_block_sampling_estimates_correctly() {
    // Block-level sampling with strongly correlated blocks: the GUS analysis
    // at block granularity must stay unbiased and near-nominal in coverage.
    let mut c = Catalog::new();
    let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
    let mut b = TableBuilder::new("blocks", schema).with_block_rows(20);
    for i in 0..2000 {
        // Values correlated within a block: block j holds value j+1.
        b.push_row(&[Value::Float((i / 20 + 1) as f64)]).unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    let plan = LogicalPlan::scan("blocks")
        .sample(SamplingMethod::System { p: 0.3 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let exact = support::exact(&plan, &c).unwrap()[0];
    let trials = 300;
    let runs = run_trials(&plan, &c, trials);
    let mean: f64 = runs
        .iter()
        .map(|r| support::scalar(r).aggs[0].estimate)
        .sum::<f64>()
        / trials as f64;
    assert!(
        (mean - exact).abs() < 0.03 * exact,
        "mean {mean} vs {exact}"
    );
    let covered = runs
        .iter()
        .filter(|r| {
            support::scalar(r).aggs[0]
                .ci_normal
                .as_ref()
                .unwrap()
                .contains(exact)
        })
        .count();
    let rate = covered as f64 / trials as f64;
    assert!(rate >= 0.88, "SYSTEM coverage {rate}");
}

#[test]
fn union_of_two_samples_analyzed_correctly() {
    // Proposition 7: two independent Bernoulli samples of the same table,
    // unioned (dedup by lineage), behave as Bernoulli(1-(1-p)(1-q)).
    let cat = catalog();
    let p = 0.2;
    let q = 0.25;
    let g_union = GusParams::bernoulli("t", p)
        .unwrap()
        .union(&GusParams::bernoulli("t", q).unwrap())
        .unwrap();
    let exact: f64 = (0..2000).map(|i| 1.0 + (i % 7) as f64).sum();
    let trials = 400;
    let mut estimates = Vec::new();
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let t = cat.get("t").unwrap();
    let v_col = t.schema().index_of("t.v").unwrap();
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sbox = SBox::new(g_union.clone());
        for rid in 0..t.row_count() {
            let in1 = rng.random::<f64>() < p;
            let in2 = rng.random::<f64>() < q;
            if in1 || in2 {
                let v = t.value(rid, v_col).unwrap().as_f64().unwrap();
                sbox.push_scalar(&[rid], v).unwrap();
            }
        }
        estimates.push(sbox.finish().unwrap());
    }
    let mean: f64 = estimates.iter().map(|r| r.estimate[0]).sum::<f64>() / trials as f64;
    assert!(
        (mean - exact).abs() < 0.02 * exact,
        "mean {mean} vs {exact}"
    );
    // Coverage under the union analysis.
    let covered = estimates
        .iter()
        .filter(|r| r.ci_normal(0, 0.95).unwrap().contains(exact))
        .count();
    assert!(
        covered as f64 / trials as f64 >= 0.9,
        "union coverage {}",
        covered as f64 / trials as f64
    );
}
