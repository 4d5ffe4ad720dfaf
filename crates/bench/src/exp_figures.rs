//! Experiments E1–E4: regenerate the paper's printed artifacts
//! (Figure 1 table, Figure 2/Examples 1–3, Figure 4/Example 4,
//! Figure 5/Examples 5–6).

use sa_core::{GusParams, LineageBernoulli, RelSet};
use sa_plan::{render_gus_table, rewrite};
use sa_sampling::{measure_single_relation, SamplingMethod};
use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};

use crate::workloads;

fn small_table(rows: u64) -> sa_storage::Table {
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
    let mut b = TableBuilder::new("r", schema);
    for i in 0..rows {
        b.push_row(&[Value::Int(i as i64)]).unwrap();
    }
    b.finish().unwrap()
}

/// E1 / Figure 1: GUS parameters of the known sampling methods, closed form
/// against Monte-Carlo measurement.
pub fn figure1() -> String {
    let mut out = String::from(
        "## E1 — Figure 1: GUS parameters for known sampling methods\n\n\
         | method | parameter | closed form | Monte-Carlo (50k trials) |\n\
         |---|---|---|---|\n",
    );
    let table = small_table(100);
    let trials = 50_000;

    let bern = SamplingMethod::Bernoulli { p: 0.1 };
    let g = bern.gus("r", &table).unwrap();
    let emp = measure_single_relation(&bern, &table, trials, 1).unwrap();
    out.push_str(&format!(
        "| Bernoulli(0.1) | a | {:.4} | {:.4} |\n| Bernoulli(0.1) | b_∅ | {:.4} | {:.4} |\n\
         | Bernoulli(0.1) | b_R | {:.4} | = a (definitional) |\n",
        g.a(),
        emp.a,
        g.b(RelSet::EMPTY),
        emp.b_empty,
        g.b(RelSet::singleton(0))
    ));

    let wor = SamplingMethod::Wor { size: 10 };
    let g = wor.gus("r", &table).unwrap();
    let emp = measure_single_relation(&wor, &table, trials, 2).unwrap();
    out.push_str(&format!(
        "| WOR(10, 100) | a | {:.4} | {:.4} |\n| WOR(10, 100) | b_∅ | {:.6} | {:.6} |\n\
         | WOR(10, 100) | b_R | {:.4} | = a (definitional) |\n",
        g.a(),
        emp.a,
        g.b(RelSet::EMPTY),
        emp.b_empty,
        g.b(RelSet::singleton(0))
    ));

    // The paper's exact Example 2 instance (WOR 1000 of 150000), closed form.
    let g = GusParams::wor("o", 1000, 150_000).unwrap();
    out.push_str(&format!(
        "| WOR(1000, 150000) | a | {:.4e} | paper: 6.667e-3 |\n\
         | WOR(1000, 150000) | b_∅ | {:.4e} | paper: 4.44e-5 |\n",
        g.a(),
        g.b(RelSet::EMPTY)
    ));
    out
}

/// E2 / Figure 2 + Examples 1–3: Query 1's derivation and end-to-end run.
pub fn query1() -> String {
    let mut out = String::from("## E2 — Figure 2 / Examples 1–3: Query 1\n\n");
    // Coefficients at the paper's cardinality (orders = 150 000).
    let catalog = workloads::tpch_paper(17);
    let plan = workloads::query1(&catalog, 10.0, 1000);
    let analysis = rewrite(&plan, &catalog).unwrap();
    out.push_str("Derived top GUS (paper gold: a=6.667e-4, b∅=4.44e-7, b_o=6.667e-5, b_l=4.44e-6, b_lo=6.667e-4):\n\n```\n");
    out.push_str(&analysis.gus_table());
    out.push_str("```\n\nRewrite trace:\n\n```\n");
    out.push_str(&analysis.trace.render());
    out.push_str("```\n");

    // End-to-end estimate vs exact.
    let exact = workloads::exact(&catalog, &plan);
    let r = workloads::batch_at(&catalog, &plan, 3);
    let r = workloads::scalar(&r);
    let a = &r.aggs[0];
    out.push_str(&format!(
        "\n| quantity | value |\n|---|---|\n| exact answer | {exact:.2} |\n\
         | estimate | {:.2} |\n| 95% normal CI | {} |\n| 95% Chebyshev CI | {} |\n\
         | result tuples | {} |\n",
        a.estimate,
        a.ci_normal.as_ref().unwrap(),
        a.ci_chebyshev.as_ref().unwrap(),
        r.rows
    ));
    out
}

/// E3 / Figure 4 + Example 4: the four-relation plan transformation.
pub fn figure4() -> String {
    let mut out = String::from("## E3 — Figure 4 / Example 4: four-relation plan\n\n");
    let mut catalog = Catalog::new();
    for (name, key, rows) in [
        ("lineitem", "l_orderkey", 600_000u64),
        ("orders", "o_orderkey", 150_000),
        ("customer", "c_custkey", 15_000),
        ("part", "p_partkey", 20_000),
    ] {
        let schema = Schema::new(vec![Field::new(key, DataType::Int)]).unwrap();
        let mut b = TableBuilder::new(name, schema);
        b.reserve(rows as usize);
        for i in 0..rows {
            b.push_row(&[Value::Int(i as i64)]).unwrap();
        }
        catalog.register(b.finish().unwrap()).unwrap();
    }
    use sa_expr::{col, lit};
    use sa_plan::{AggSpec, LogicalPlan};
    let plan = LogicalPlan::scan("lineitem")
        .sample(SamplingMethod::Bernoulli { p: 0.1 })
        .join_on(
            LogicalPlan::scan("orders").sample(SamplingMethod::Wor { size: 1000 }),
            col("l_orderkey").eq(col("o_orderkey")),
        )
        .join_on(LogicalPlan::scan("customer"), lit(true))
        .join_on(
            LogicalPlan::scan("part").sample(SamplingMethod::Bernoulli { p: 0.5 }),
            lit(true),
        )
        .aggregate(vec![AggSpec::count_star("c")]);
    let analysis = rewrite(&plan, &catalog).unwrap();
    out.push_str("Input plan:\n\n```\n");
    out.push_str(&plan.display_tree());
    out.push_str("```\n\nFinal G(a₁₂₃, b̄₁₂₃) (paper gold: a=3.334e-4, b∅=1.11e-7, …, b_locp=3.334e-4):\n\n```\n");
    out.push_str(&analysis.gus_table());
    out.push_str("```\n");
    out
}

/// E4 / Figure 5 + Examples 5–6: bi-dimensional Bernoulli and the
/// sub-sampled analysis pipeline.
pub fn figure5() -> String {
    let mut out = String::from("## E4 — Figure 5 / Examples 5–6: sub-sampling analysis\n\n");
    // Example 5: B(0.2, 0.3) composition.
    let g3 = GusParams::bernoulli("l", 0.2)
        .unwrap()
        .compose(&GusParams::bernoulli("o", 0.3).unwrap())
        .unwrap();
    out.push_str("Example 5 — bi-dimensional B(0.2, 0.3) (paper gold: a=0.06, b∅=0.0036, b_o=0.012, b_l=0.018, b_lo=0.06):\n\n```\n");
    out.push_str(&render_gus_table(&g3));
    out.push_str("```\n");

    // Example 6 / Figure 5.f: compaction with Query 1's G(a₁₂).
    let g12 = GusParams::bernoulli("l", 0.1)
        .unwrap()
        .join(&GusParams::wor("o", 1000, 150_000).unwrap())
        .unwrap();
    let sub = LineageBernoulli::new(g12.schema().clone(), &[0.2, 0.3], 7).unwrap();
    let g123 = g12.compact(&sub.gus()).unwrap();
    out.push_str("\nExample 6 — G(a₁₂₃) after sub-sampling (paper gold: a=4e-5, b∅=1.598e-9, b_o=8e-7, b_l=7.992e-8, b_lo=4e-5):\n\n```\n");
    out.push_str(&render_gus_table(&g123));
    out.push_str("```\n");
    out
}
