//! GROUP BY estimation end to end: SQL with `GROUP BY` → per-group
//! estimates with per-group confidence intervals, validated against exact
//! per-group answers on TPC-H data.

mod support;

use sampling_algebra::prelude::*;
use sampling_algebra::sql::plan_grouped_sql;

fn tpch() -> Catalog {
    generate(&TpchConfig::scale(0.002).with_seed(13))
}

#[test]
fn group_by_returnflag_coverage() {
    let cat = tpch();
    let (plan, group_by) = plan_grouped_sql(
        "SELECT l_returnflag, SUM(l_quantity) AS qty, COUNT(*) AS n \
         FROM lineitem TABLESAMPLE (25 PERCENT) \
         GROUP BY l_returnflag",
        &cat,
    )
    .unwrap();
    let exact = support::exact_groups(&plan, &group_by, &cat).unwrap();
    assert_eq!(exact.len(), 3); // A, N, R

    let r = support::query(&plan, &cat, 5, 0.95)
        .group_by(group_by.clone())
        .batch()
        .unwrap();
    let r = support::grouped(&r);
    assert_eq!(r.groups.len(), 3);
    for g in &r.groups {
        let truth = &exact[&g.key];
        let ci_qty = g.aggs[0].ci_chebyshev.as_ref().unwrap();
        let ci_n = g.aggs[1].ci_chebyshev.as_ref().unwrap();
        assert!(
            ci_qty.contains(truth[0]),
            "{:?}: qty {ci_qty} misses {}",
            g.key,
            truth[0]
        );
        assert!(
            ci_n.contains(truth[1]),
            "{:?}: n {ci_n} misses {}",
            g.key,
            truth[1]
        );
        assert!(g.sample_rows > 0);
    }
}

#[test]
fn group_by_unbiased_per_group() {
    let cat = tpch();
    let (plan, group_by) = plan_grouped_sql(
        "SELECT o_orderstatus, SUM(o_totalprice) AS total \
         FROM orders TABLESAMPLE (30 PERCENT) \
         GROUP BY o_orderstatus",
        &cat,
    )
    .unwrap();
    let exact = support::exact_groups(&plan, &group_by, &cat).unwrap();
    let trials = 150u64;
    let mut sums: std::collections::BTreeMap<Vec<Value>, f64> = Default::default();
    for seed in 0..trials {
        let r = support::query(&plan, &cat, seed, 0.95)
            .group_by(group_by.clone())
            .batch()
            .unwrap();
        let r = support::grouped(&r);
        for g in &r.groups {
            *sums.entry(g.key.clone()).or_insert(0.0) += g.aggs[0].estimate;
        }
    }
    for (key, total) in sums {
        let mean = total / trials as f64;
        let truth = exact[&key][0];
        assert!(
            (mean - truth).abs() < 0.05 * truth,
            "{key:?}: mean {mean} vs {truth}"
        );
    }
}

#[test]
fn group_by_on_sampled_join() {
    let cat = tpch();
    let (plan, group_by) = plan_grouped_sql(
        "SELECT o_orderpriority, SUM(l_quantity) AS qty \
         FROM lineitem TABLESAMPLE (20 PERCENT), orders TABLESAMPLE (40 PERCENT) \
         WHERE l_orderkey = o_orderkey \
         GROUP BY o_orderpriority",
        &cat,
    )
    .unwrap();
    let exact = support::exact_groups(&plan, &group_by, &cat).unwrap();
    assert_eq!(exact.len(), 5); // 5 priorities
    let r = support::query(&plan, &cat, 11, 0.95)
        .group_by(group_by.clone())
        .batch()
        .unwrap();
    let r = support::grouped(&r);
    let mut covered = 0;
    for g in &r.groups {
        if g.aggs[0]
            .ci_chebyshev
            .as_ref()
            .unwrap()
            .contains(exact[&g.key][0])
        {
            covered += 1;
        }
    }
    assert!(covered >= 4, "only {covered}/5 groups covered");
}

#[test]
fn sql_group_by_validation() {
    let cat = tpch();
    // Non-aggregate select item without GROUP BY.
    assert!(plan_grouped_sql("SELECT l_returnflag, SUM(l_quantity) FROM lineitem", &cat).is_err());
    // Select item not in GROUP BY.
    assert!(plan_grouped_sql(
        "SELECT l_linenumber, SUM(l_quantity) FROM lineitem GROUP BY l_returnflag",
        &cat
    )
    .is_err());
    // plan_sql rejects GROUP BY with a pointer to the grouped API.
    let err = sampling_algebra::sql::plan_sql(
        "SELECT SUM(l_quantity) FROM lineitem GROUP BY l_returnflag",
        &cat,
    )
    .unwrap_err();
    assert!(err.to_string().contains("plan_grouped_sql"), "{err}");
    // Scalar queries still parse through the grouped API with empty keys.
    let (_, group_by) = plan_grouped_sql("SELECT SUM(l_quantity) FROM lineitem", &cat).unwrap();
    assert!(group_by.is_empty());
}

#[test]
fn group_by_expression_keys() {
    // Group by a computed expression (quantity bucket).
    let cat = tpch();
    let (plan, group_by) = plan_grouped_sql(
        "SELECT SUM(l_extendedprice) AS v \
         FROM lineitem TABLESAMPLE (30 PERCENT) \
         GROUP BY l_quantity > 25.0",
        &cat,
    )
    .unwrap();
    let r = support::query(&plan, &cat, 2, 0.95)
        .group_by(group_by.clone())
        .batch()
        .unwrap();
    let r = support::grouped(&r);
    assert_eq!(r.groups.len(), 2); // true / false buckets
    let exact = support::exact_groups(&plan, &group_by, &cat).unwrap();
    for g in &r.groups {
        let truth = exact[&g.key][0];
        assert!(g.aggs[0].ci_chebyshev.as_ref().unwrap().contains(truth));
    }
}
