//! Experiments E5 and E7: accuracy/coverage analysis and the comparison
//! against naive estimators.
//!
//! The arXiv copy of the paper references its evaluation section but the
//! text is absent (broken `??` refs); these experiments reconstruct the
//! analysis the paper describes — "we test our implementation thoroughly,
//! and provide accuracy and runtime analysis" — on the TPC-H substrate.

use sa_baselines::compare_estimators;
use sa_plan::LogicalPlan;
use sa_storage::Catalog;

use crate::workloads;

struct CoverageRow {
    workload: &'static str,
    rate: String,
    mean_rel_err: f64,
    normal_cov: f64,
    cheb_cov: f64,
    mean_rel_width: f64,
}

fn coverage_cell(
    catalog: &Catalog,
    plan: &LogicalPlan,
    workload: &'static str,
    rate: String,
    trials: u64,
) -> CoverageRow {
    let exact = workloads::exact(catalog, plan);
    let mut rel_err = 0.0;
    let mut covered_n = 0u64;
    let mut covered_c = 0u64;
    let mut width = 0.0;
    for seed in 0..trials {
        let r = workloads::batch_at(catalog, plan, seed);
        let a = &workloads::scalar(&r).aggs[0];
        rel_err += (a.estimate - exact).abs() / exact.abs();
        let ci_n = a.ci_normal.as_ref().unwrap();
        let ci_c = a.ci_chebyshev.as_ref().unwrap();
        if ci_n.contains(exact) {
            covered_n += 1;
        }
        if ci_c.contains(exact) {
            covered_c += 1;
        }
        width += ci_n.width() / exact.abs();
    }
    CoverageRow {
        workload,
        rate,
        mean_rel_err: rel_err / trials as f64,
        normal_cov: covered_n as f64 / trials as f64,
        cheb_cov: covered_c as f64 / trials as f64,
        mean_rel_width: width / trials as f64,
    }
}

/// E5: empirical coverage of 95% intervals and relative error vs sampling
/// rate, across one-, two- and three-table workloads plus WOR.
pub fn coverage(trials: u64) -> String {
    let catalog = workloads::tpch_small(23);
    let mut rows: Vec<CoverageRow> = Vec::new();
    for pct in [0.5, 1.0, 2.0, 5.0, 10.0] {
        let plan = workloads::single_table(&catalog, pct);
        rows.push(coverage_cell(
            &catalog,
            &plan,
            "1-table B",
            format!("{pct}%"),
            trials,
        ));
    }
    for size in [100u64, 500, 2000] {
        let plan = workloads::single_table_wor(&catalog, size);
        rows.push(coverage_cell(
            &catalog,
            &plan,
            "1-table WOR",
            format!("{size} rows"),
            trials,
        ));
    }
    for pct in [5.0, 10.0, 20.0] {
        let plan = workloads::two_table(&catalog, pct);
        rows.push(coverage_cell(
            &catalog,
            &plan,
            "2-table join",
            format!("{pct}%"),
            trials,
        ));
    }
    for pct in [10.0, 20.0, 40.0] {
        let plan = workloads::three_table(&catalog, pct);
        rows.push(coverage_cell(
            &catalog,
            &plan,
            "3-table join",
            format!("{pct}%"),
            trials,
        ));
    }

    let mut out = format!(
        "## E5 — Accuracy: coverage of 95% intervals and relative error ({trials} trials/cell)\n\n\
         | workload | sampling | mean rel. error | normal coverage | Chebyshev coverage | mean rel. CI width |\n\
         |---|---|---|---|---|---|\n"
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:.3}% | {:.1}% | {:.1}% | {:.2}% |\n",
            r.workload,
            r.rate,
            r.mean_rel_err * 100.0,
            r.normal_cov * 100.0,
            r.cheb_cov * 100.0,
            r.mean_rel_width * 100.0
        ));
    }
    out.push_str(
        "\nExpected shape (paper): normal coverage ≈ 95%, Chebyshev ≥ 95%; error and \
         width shrink ∝ 1/√(sample size); joins are noisier than single tables at the \
         same rate.\n",
    );
    out
}

/// E7: GUS vs naive IID-CLT vs bootstrap on a sampled join — coverage of
/// each method's 95% interval over repeated runs.
///
/// The workload samples the *customer* side of a customer ⋈ orders join:
/// each kept customer drags along ≈10 orders, so result tuples are strongly
/// correlated — exactly the situation the paper's introduction describes.
pub fn comparison(trials: u64) -> String {
    let catalog = workloads::tpch_small(29);
    let plan = sa_sql::plan_sql(
        "SELECT SUM(o_totalprice) \
         FROM customer TABLESAMPLE (10 PERCENT), orders \
         WHERE c_custkey = o_custkey",
        &catalog,
    )
    .expect("comparison workload binds");
    let exact = workloads::exact(&catalog, &plan);
    let mut cover = [0u64; 3]; // gus, naive, bootstrap
    let mut width = [0.0f64; 3];
    let mut oracle = 0.0;
    let mut gus_var = 0.0;
    let mut naive_var = 0.0;
    for seed in 0..trials {
        let run = compare_estimators(&plan, &catalog, seed, 0.95, 200).unwrap();
        let gus_ci = run.gus.ci_normal.as_ref().unwrap();
        if gus_ci.contains(exact) {
            cover[0] += 1;
        }
        if run.naive.ci.contains(exact) {
            cover[1] += 1;
        }
        if run.bootstrap.ci.contains(exact) {
            cover[2] += 1;
        }
        width[0] += gus_ci.width();
        width[1] += run.naive.ci.width();
        width[2] += run.bootstrap.ci.width();
        oracle = run.oracle_variance;
        gus_var += run.gus.variance.unwrap();
        naive_var += run.naive.variance;
    }
    let t = trials as f64;
    let mut out = format!(
        "## E7 — Comparison on customer(10% Bernoulli) ⋈ orders (fan-out ≈ 10, {trials} trials)\n\n\
         | estimator | 95% coverage | mean CI width | mean variance belief |\n\
         |---|---|---|---|\n\
         | **GUS (this paper)** | {:.1}% | {:.0} | {:.3e} |\n\
         | naive IID-CLT | {:.1}% | {:.0} | {:.3e} |\n\
         | bootstrap percentile | {:.1}% | {:.0} | — |\n\n\
         True (oracle) estimator variance: {:.3e}\n\n",
        cover[0] as f64 / t * 100.0,
        width[0] / t,
        gus_var / t,
        cover[1] as f64 / t * 100.0,
        width[1] / t,
        naive_var / t,
        cover[2] as f64 / t * 100.0,
        width[2] / t,
        oracle,
    );
    out.push_str(
        "Expected shape (paper's motivation): joins correlate result tuples through \
         shared base tuples; naive/bootstrap believe a variance that is several times \
         too small and under-cover badly, while the GUS analysis tracks the oracle and \
         achieves ≈ nominal coverage.\n",
    );
    out
}
