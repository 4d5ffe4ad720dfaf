//! Quickstart: the paper's introduction query, end to end.
//!
//! Generates TPC-H-style data, runs the `TABLESAMPLE` query through the SQL
//! front-end, and prints the estimate, both confidence intervals, the
//! `QUANTILE` view bounds, and the exact answer for comparison.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sampling_algebra::prelude::*;

fn main() {
    // 1. Data: TPC-H at a laptop scale (orders ≈ 15k, lineitem ≈ 60k).
    let catalog = generate(&TpchConfig::scale(0.01).with_seed(42));
    let li = catalog.get("lineitem").unwrap().row_count();
    let ord = catalog.get("orders").unwrap().row_count();
    println!("data: lineitem = {li} rows, orders = {ord} rows\n");

    // The engine owns the catalog; every query goes through a session.
    let engine = Engine::new(catalog);

    // 2. The paper's Query 1 (Section 1), verbatim.
    let sql = "SELECT SUM(l_discount*(1.0-l_tax)) AS revenue_discount \
               FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS) \
               WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0";
    println!("query:\n  {sql}\n");
    let plan = plan_sql(sql, engine.catalog()).expect("valid SQL");

    // 3. Approximate answer with confidence intervals (the paper's one-shot
    //    estimator, via the session's `.batch()` terminal).
    let result = engine
        .session()
        .query_plan(&plan)
        .seed(7)
        .confidence(0.95)
        .batch()
        .expect("estimable plan");
    let snapshot = result.snapshot.as_scalar().expect("scalar query");
    let agg = &snapshot.aggs[0];
    println!("result tuples from the sampled plan : {}", snapshot.rows);
    println!("estimate                             : {:.2}", agg.estimate);
    println!(
        "std error                            : {:.2}",
        agg.variance.unwrap().sqrt()
    );
    println!(
        "95% normal interval                  : {}",
        agg.ci_normal.as_ref().unwrap()
    );
    println!(
        "95% Chebyshev interval               : {}",
        agg.ci_chebyshev.as_ref().unwrap()
    );

    // 4. The paper's APPROX view: one-sided quantile bounds.
    let view = plan_sql(
        "CREATE VIEW APPROX (lo, hi) AS \
         SELECT QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05), \
                QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95) \
         FROM lineitem TABLESAMPLE (10 PERCENT), orders TABLESAMPLE (1000 ROWS) \
         WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0",
        engine.catalog(),
    )
    .unwrap();
    let v = engine.session().query_plan(&view).batch().unwrap();
    let v = v.snapshot.as_scalar().unwrap();
    println!(
        "APPROX view (lo, hi)                 : ({:.2}, {:.2})",
        v.aggs[0].quantile_bound.unwrap(),
        v.aggs[1].quantile_bound.unwrap()
    );

    // 5. Ground truth (runs the sampling-free plan).
    let exact = engine.session().query_plan(&plan).exact().unwrap();
    let exact = exact.snapshot.as_scalar().unwrap().aggs[0].estimate;
    println!("exact answer                         : {exact:.2}");
    let err = (agg.estimate - exact).abs() / exact * 100.0;
    println!("relative error of the estimate       : {err:.2}%");

    // 6. What the analysis derived: the single top-level GUS.
    println!("\nSOA analysis — top GUS quasi-operator:");
    println!("{}", result.analysis.gus_table());
}
