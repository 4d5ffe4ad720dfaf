//! Section 8 application: **the database as a sample**.
//!
//! Treat the stored data as a 99% Bernoulli sample of a slightly larger
//! hypothetical database; a query whose estimator variance is large under
//! that view is *fragile* — its answer would move a lot if 1% of tuples
//! were lost. We compare a robust aggregate (many small contributions)
//! against a fragile one (dominated by a few giant tuples).
//!
//! ```sh
//! cargo run --release --example robustness
//! ```

use sampling_algebra::prelude::*;

/// Relative standard error of `SUM(f)` when the stored table is viewed as a
/// `keep`-rate Bernoulli sample of a hypothetical complete database.
fn robustness_rse(values: &[f64], keep: f64) -> f64 {
    let gus = GusParams::bernoulli("data", keep).expect("valid rate");
    let mut sbox = SBox::new(gus);
    for (i, v) in values.iter().enumerate() {
        sbox.push_scalar(&[i as u64], *v).expect("scalar push");
    }
    let report = sbox.finish().expect("estimable");
    report.std_error(0).expect("variance available") / report.estimate[0].abs()
}

fn main() {
    let catalog = generate(&TpchConfig::scale(0.01).with_seed(1));
    let li = catalog.get("lineitem").unwrap();

    // Aggregate 1 (robust): SUM(l_quantity) — uniform small contributions.
    let qty: Vec<f64> = {
        let c = li.schema().index_of("l_quantity").unwrap();
        let batch = li.batch_range_cols(0, li.row_count(), &[c]).unwrap();
        (0..batch.rows())
            .map(|r| batch.column(0).value(r).as_f64().unwrap())
            .collect()
    };

    // Aggregate 2 (fragile): the same column with a handful of synthetic
    // mega-rows injected, as if a few tuples dominated the total.
    let mut spiky = qty.clone();
    let total: f64 = qty.iter().sum();
    for v in spiky.iter_mut().take(3) {
        *v = total / 4.0; // three tuples now carry ~75% of the new total
    }

    println!("database-as-a-sample robustness analysis (99% Bernoulli view)\n");
    println!(
        "{:<28} {:>14} {:>14}",
        "aggregate", "rel. std err", "verdict"
    );
    for (name, data) in [("SUM(l_quantity)", &qty), ("SUM(spiky variant)", &spiky)] {
        let rse = robustness_rse(data, 0.99);
        let verdict = if rse < 0.005 { "robust" } else { "FRAGILE" };
        println!("{name:<28} {:>13.4}% {verdict:>14}", rse * 100.0);
    }

    // Sensitivity sweep: how the fragility signal grows as the assumed loss
    // rate grows (1% … 20%).
    println!("\nsensitivity sweep: relative std err vs assumed tuple-loss rate");
    println!(
        "{:<12} {:>16} {:>16}",
        "loss rate", "SUM(l_quantity)", "spiky variant"
    );
    for loss in [0.01, 0.02, 0.05, 0.1, 0.2] {
        let keep = 1.0 - loss;
        println!(
            "{:<12} {:>15.4}% {:>15.4}%",
            format!("{:.0}%", loss * 100.0),
            robustness_rse(&qty, keep) * 100.0,
            robustness_rse(&spiky, keep) * 100.0
        );
    }
    println!(
        "\nreading: the spiky aggregate's interval blows up — its answer hinges on \
         a few tuples; the uniform aggregate barely notices the loss."
    );
}
