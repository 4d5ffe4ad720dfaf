//! Section 8 application: **choosing sampling parameters**, plus the
//! Section 7 sub-sampled variance estimator.
//!
//! One instrumented run of a sampled join produces unbiased `Ŷ_S` moment
//! estimates; plugging other designs' GUS coefficients into the same `Ŷ_S`
//! predicts the error each design *would* have had — letting a user pick
//! sampling rates before paying for them. The example then shows the
//! Section 7 trick: variance from a ~10k-tuple lineage-hash sub-sample.
//!
//! ```sh
//! cargo run --release --example sampling_design
//! ```

use sampling_algebra::prelude::*;
use std::time::Instant;

fn main() {
    let catalog = generate(&TpchConfig::scale(0.01).with_seed(5));
    let engine = Engine::new(catalog.clone());

    // The instrumented pilot run: a half-rate Bernoulli on both sides.
    let sql = "SELECT SUM(l_quantity) \
               FROM lineitem TABLESAMPLE (50 PERCENT), orders TABLESAMPLE (50 PERCENT) \
               WHERE l_orderkey = o_orderkey";
    let plan = plan_sql(sql, &catalog).unwrap();
    let query = || engine.session().query_plan(&plan).seed(2);
    let pilot = query().batch().unwrap();
    let (lead, report) = (
        &pilot.snapshot.as_scalar().unwrap().aggs[0],
        pilot.report.expect("a scalar query has a report"),
    );
    println!("pilot query:\n  {sql}");
    println!(
        "pilot estimate: {:.0} (rel err bound ±{:.2}% at 95%)\n",
        lead.estimate,
        lead.ci_normal.as_ref().unwrap().relative_half_width() * 100.0
    );

    // Predict the precision of alternative designs from the pilot's Ŷ_S.
    println!("predicted 95% relative half-width for alternative designs:");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "orders \\ li", "5%", "10%", "25%", "50%"
    );
    for p_orders in [0.05, 0.1, 0.25, 0.5] {
        let mut row = format!("{:<14}", format!("{:.0}%", p_orders * 100.0));
        for p_li in [0.05, 0.1, 0.25, 0.5] {
            let design = GusParams::bernoulli("lineitem", p_li)
                .unwrap()
                .join(&GusParams::bernoulli("orders", p_orders).unwrap())
                .unwrap();
            let var = report.predict_variance(&design, 0).unwrap();
            let rel = 1.96 * var.sqrt() / lead.estimate * 100.0;
            row.push_str(&format!(" {:>11.2}%", rel));
        }
        println!("{row}");
    }
    println!(
        "\nreading: pick the cheapest cell meeting your error budget — predicted \
         from ONE pilot run, no re-execution."
    );

    // Section 7: full-sample vs sub-sampled variance estimation.
    println!("\nSection 7 — sub-sampled variance estimation:");
    let t0 = Instant::now();
    let full = query().batch().unwrap();
    let t_full = t0.elapsed();
    let t0 = Instant::now();
    let sub = query().subsample(10_000).batch().unwrap();
    let t_sub = t0.elapsed();
    let variance_rows = |r: &QueryResult| r.report.as_ref().expect("a scalar query has a report").m;
    println!("{:<26} {:>14} {:>14}", "", "full sample", "sub-sampled");
    println!(
        "{:<26} {:>14} {:>14}",
        "tuples used for variance",
        variance_rows(&full),
        variance_rows(&sub)
    );
    let (full, sub) = (
        full.snapshot.as_scalar().unwrap(),
        sub.snapshot.as_scalar().unwrap(),
    );
    println!(
        "{:<26} {:>14.2} {:>14.2}",
        "std error estimate",
        full.aggs[0].variance.unwrap().sqrt(),
        sub.aggs[0].variance.unwrap().sqrt()
    );
    println!(
        "{:<26} {:>14?} {:>14?}",
        "wall time (exec+analyze)", t_full, t_sub
    );
    println!(
        "\npoint estimates agree exactly ({:.0}): the sub-sample only serves the \
         variance terms.",
        sub.aggs[0].estimate
    );
}
