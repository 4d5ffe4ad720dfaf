//! Shared workload builders for the experiments.

use sa_online::{Engine, ProgressSnapshot, QueryOptions, QueryResult};
use sa_plan::LogicalPlan;
use sa_sql::plan_sql;
use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use sa_tpch::{generate, TpchConfig};

/// TPC-H at the default experiment scale (orders ≈ 7.5k, lineitem ≈ 30k).
pub fn tpch_small(seed: u64) -> Catalog {
    tpch_at(0.005, seed)
}

/// TPC-H at an arbitrary scale factor (the overhead gate picks its own).
pub fn tpch_at(scale: f64, seed: u64) -> Catalog {
    generate(&TpchConfig::scale(scale).with_seed(seed))
}

/// TPC-H with the paper's Example 1 orders cardinality (150 000), for
/// coefficient reproduction.
pub fn tpch_paper(seed: u64) -> Catalog {
    tpch_at(0.1, seed)
}

/// The introduction's Query 1 at a given Bernoulli rate and WOR size.
pub fn query1(catalog: &Catalog, percent: f64, rows: u64) -> LogicalPlan {
    plan_sql(
        &format!(
            "SELECT SUM(l_discount*(1.0-l_tax)) \
             FROM lineitem TABLESAMPLE ({percent} PERCENT), orders TABLESAMPLE ({rows} ROWS) \
             WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0"
        ),
        catalog,
    )
    .expect("query1 binds")
}

/// Single-table SUM at a Bernoulli rate.
pub fn single_table(catalog: &Catalog, percent: f64) -> LogicalPlan {
    plan_sql(
        &format!("SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE ({percent} PERCENT)"),
        catalog,
    )
    .expect("single-table binds")
}

/// Single-table SUM with WOR.
pub fn single_table_wor(catalog: &Catalog, rows: u64) -> LogicalPlan {
    plan_sql(
        &format!("SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE ({rows} ROWS)"),
        catalog,
    )
    .expect("single-table WOR binds")
}

/// Two-table sampled join (both sides Bernoulli).
pub fn two_table(catalog: &Catalog, percent: f64) -> LogicalPlan {
    plan_sql(
        &format!(
            "SELECT SUM(l_quantity) \
             FROM lineitem TABLESAMPLE ({percent} PERCENT), \
                  orders TABLESAMPLE ({percent} PERCENT) \
             WHERE l_orderkey = o_orderkey"
        ),
        catalog,
    )
    .expect("two-table binds")
}

/// Three-table sampled join.
pub fn three_table(catalog: &Catalog, percent: f64) -> LogicalPlan {
    plan_sql(
        &format!(
            "SELECT SUM(l_quantity) \
             FROM lineitem TABLESAMPLE ({percent} PERCENT), \
                  orders TABLESAMPLE ({percent} PERCENT), \
                  customer TABLESAMPLE ({percent} PERCENT) \
             WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey"
        ),
        catalog,
    )
    .expect("three-table binds")
}

/// A synthetic catalog of `n` relations with `rows` rows each, for rewriter
/// scaling experiments.
pub fn synthetic_relations(n: usize, rows: u64) -> Catalog {
    let mut catalog = Catalog::new();
    let schema = Schema::new(vec![Field::new("k", DataType::Int)]).unwrap();
    for i in 0..n {
        let mut b = TableBuilder::new(format!("r{i}"), schema.clone());
        b.reserve(rows as usize);
        for j in 0..rows {
            b.push_row(&[Value::Int(j as i64)]).unwrap();
        }
        catalog.register(b.finish().unwrap()).unwrap();
    }
    catalog
}

/// A left-deep all-Bernoulli join plan over `n` synthetic relations.
pub fn synthetic_plan(n: usize, p: f64) -> LogicalPlan {
    use sa_expr::lit;
    use sa_plan::AggSpec;
    use sa_sampling::SamplingMethod;
    let mut plan = LogicalPlan::scan("r0").sample(SamplingMethod::Bernoulli { p });
    for i in 1..n {
        plan = plan.join_on(
            LogicalPlan::scan(format!("r{i}")).sample(SamplingMethod::Bernoulli { p }),
            lit(true),
        );
    }
    plan.aggregate(vec![AggSpec::count_star("c")])
}

/// The batch answer of `plan` over `catalog` under `opts`.
pub fn batch(catalog: &Catalog, plan: &LogicalPlan, opts: QueryOptions) -> QueryResult {
    let session = Engine::new(catalog.clone()).session();
    let result = session.query_plan(plan).options(opts).batch();
    result.unwrap_or_else(|e| panic!("workload runs: {e}"))
}

/// [`batch`] at `seed`, everything else default (95% intervals).
pub fn batch_at(catalog: &Catalog, plan: &LogicalPlan, seed: u64) -> QueryResult {
    batch(
        catalog,
        plan,
        QueryOptions {
            seed,
            ..Default::default()
        },
    )
}

/// The final snapshot of a scalar answer.
pub fn scalar(r: &QueryResult) -> &ProgressSnapshot {
    r.snapshot.as_scalar().expect("no GROUP BY keys were given")
}

/// The exact value of `plan`'s first aggregate (sampling stripped).
pub fn exact(catalog: &Catalog, plan: &LogicalPlan) -> f64 {
    let session = Engine::new(catalog.clone()).session();
    let result = session.query_plan(plan).exact();
    scalar(&result.unwrap_or_else(|e| panic!("workload runs: {e}"))).aggs[0].estimate
}
