//! A negative `σ̂²` is not a converged answer.
//!
//! The paper's variance estimate is unbiased but not nonnegative. Read as
//! 0, a negative one gives a zero-width interval, and a CI target stops on
//! it: `COUNT(*)` under a WOR sampler with a tight target used to stop at
//! the first tick 50 % off, or late on an interval that excluded the
//! truth. A reading negative beyond rounding now has no variance and no
//! interval, so the target cannot fire on it.

mod support;

use sampling_algebra::prelude::*;
use support::catalog;

/// Every `CiConverged` stop of `COUNT(*)` over `t` (600 rows) under
/// `WOR(size)`, chunk 8 and a 0.1 % target, across seeds × physical and
/// shuffled scan order: `(seed, shuffled, estimate, interval)`.
fn ci_stops(size: u64) -> Vec<(u64, bool, f64, ConfidenceInterval)> {
    let catalog = catalog();
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Wor { size })
        .aggregate(vec![AggSpec::count_star("n")]);
    let engine = Engine::new(catalog);
    let mut stops = Vec::new();
    for seed in 0..300 {
        for shuffled in [false, true] {
            let r = engine
                .session()
                .query_plan(&plan)
                .seed(seed)
                .chunk_rows(8)
                .shuffle_scan(shuffled)
                .within(0.001, 0.95)
                .run()
                .unwrap();
            if r.reason == StopReason::CiConverged {
                let agg = &support::scalar(&r).aggs[0];
                stops.push((seed, shuffled, agg.estimate, agg.ci_normal.unwrap()));
            }
        }
    }
    stops
}

#[test]
fn a_ci_stop_never_rests_on_a_zero_width_interval_that_misses() {
    for size in [400, 150] {
        let stops = ci_stops(size);
        assert!(!stops.is_empty(), "WOR({size}): no run converged");
        for (seed, shuffled, estimate, ci) in stops {
            assert!(
                ci.width() > 0.0 || estimate == 600.0,
                "WOR({size}) seed {seed} shuffled {shuffled}: stopped at {estimate} \
                 on the zero-width interval [{}, {}]",
                ci.lo,
                ci.hi
            );
        }
    }
}

/// Seed 6's first tick under WOR(400): 8 rows, COUNT estimated at 900
/// against a truth of 600, with a raw σ̂² far below zero.
fn seed_6_first_tick() -> QueryResult {
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Wor { size: 400 })
        .aggregate(vec![AggSpec::count_star("n")]);
    Engine::new(catalog())
        .session()
        .query_plan(&plan)
        .seed(6)
        .chunk_rows(8)
        .rows(8)
        .run()
        .unwrap()
}

#[test]
fn a_negative_variance_reads_as_no_interval() {
    let r = seed_6_first_tick();
    let report = r.report.as_ref().unwrap();
    let raw = report.raw_variance(0).unwrap();
    assert!(raw < -1.0, "raw σ̂² {raw}");
    assert!(report.variance(0).is_err() && report.ci_normal(0, 0.95).is_err());
    let agg = &support::scalar(&r).aggs[0];
    assert_eq!(agg.estimate, report.estimate[0]);
    assert_eq!(agg.variance, None);
    assert!(agg.ci_normal.is_none() && agg.ci_chebyshev.is_none());
    assert_eq!(support::scalar(&r).rel_half_width, None);
}

#[test]
fn a_negative_prediction_is_an_error_not_a_certain_answer() {
    // §8's prediction for the pilot's own design reads its moments through
    // the same weights as its variance, so it is the same raw σ̂², far below
    // zero: no design can be judged from it, and 0 would claim certainty.
    let r = seed_6_first_tick();
    let report = r.report.as_ref().unwrap();
    let err = report.predict_variance(report.gus(), 0).unwrap_err();
    assert!(
        err.to_string().contains("negative beyond rounding"),
        "{err}"
    );
}
