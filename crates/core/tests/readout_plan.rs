//! Generated differential of the per-tick readout plan against the
//! definition.
//!
//! [`ReadoutPlan`] folds Theorem 1 and the Section 6.3 recursion into one
//! weight vector; [`estimate_from_sample_moments`] runs them as written.
//! Over generated designs — arity 1–3 of Bernoulli / WOR factors joined,
//! optionally unioned with a second such design (Proposition 7) and
//! compacted with a scan-prefix `WOR(k, N)` (Proposition 8, `k = N` and
//! `k = 1` included) — and generated sample moments of 1–4 dimensions, the
//! two must give the same estimates to the bit and the same covariance to
//! float association. Where the report route refuses or withholds, the plan
//! does the same: `a = 0` is the same typed error, some `b_S = 0` leaves
//! estimates without variance.

use proptest::prelude::*;
use sa_core::{
    estimate_from_sample_moments, CoreError, GusParams, MomentAccumulator, Moments, ReadoutPlan,
};

/// One relation's sampler: `(kind, p, k, N)` draws shaped into a Bernoulli
/// or a WOR design over relation `r{i}`.
type Draw = (bool, f64, u64, u64);

fn factor(i: usize, (bernoulli, p, k, pop): Draw) -> GusParams {
    let name = format!("r{i}");
    if bernoulli {
        GusParams::bernoulli(name, p).unwrap()
    } else {
        // At least two draws, so the factor on its own has b_∅ > 0.
        GusParams::wor(name, 2 + k % (pop - 1), pop).unwrap()
    }
}

fn design(draws: &[Draw]) -> GusParams {
    let mut gus = factor(0, draws[0]);
    for (i, d) in draws.iter().enumerate().skip(1) {
        gus = gus.join(&factor(i, *d)).unwrap();
    }
    gus
}

/// Compact `gus` with the scan-prefix factor `WOR(k, N)` over relation
/// `rel`, as the online driver's Prop-8 scaling does.
fn prefixed(gus: &GusParams, rel: usize, k: u64, pop: u64) -> GusParams {
    let prefix = GusParams::wor(format!("r{rel}"), k, pop)
        .unwrap()
        .embed_by_name(gus.schema().clone())
        .unwrap();
    gus.compact(&prefix).unwrap()
}

/// Sample moments of `rows` over `n` relations and `dims` dimensions; ids
/// come from a range small enough that every proper projection repeats.
fn moments_of(rows: &[(Vec<u64>, Vec<f64>)], n: usize, dims: usize) -> Moments {
    let range = [64, 8, 4][n - 1];
    let mut acc = MomentAccumulator::new(n, dims);
    for (ids, f) in rows {
        let ids: Vec<u64> = ids[..n].iter().map(|id| id % range).collect();
        acc.push(&ids, &f[..dims]).unwrap();
    }
    acc.snapshot()
}

/// The plan readout of `sample` under `gus` agrees with the report.
fn assert_plan_matches_report(gus: &GusParams, sample: &Moments) {
    let plan = ReadoutPlan::new(gus);
    let report = match estimate_from_sample_moments(gus, sample) {
        Ok(report) => report,
        Err(want) => {
            let got = plan.read(&sample.total, &sample.y).unwrap_err();
            assert!(matches!(want, CoreError::Degenerate(_)), "{want}");
            assert_eq!(got, want, "the same typed refusal");
            return;
        }
    };
    let slot = plan.read(&sample.total, &sample.y).unwrap();
    for p in 0..sample.dims {
        assert_eq!(
            slot.estimate(p).to_bits(),
            report.estimate[p].to_bits(),
            "estimate[{p}] under {gus}"
        );
    }
    let Some(cov) = &report.covariance else {
        assert!(plan.weights().is_none(), "variance withheld under {gus}");
        assert_eq!(slot.covariance(0, 0), None);
        return;
    };
    for p in 0..sample.dims {
        for q in 0..sample.dims {
            let (got, want) = (slot.covariance(p, q).unwrap(), cov.get(p, q));
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "cov[{p},{q}]: plan {got} vs report {want} under {gus}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_readout_is_the_report_readout(
        n in 1usize..4,
        dims in 1usize..5,
        draws in prop::collection::vec((any::<bool>(), 0.05f64..1.0, 0u64..1000, 3u64..500), 3usize),
        other in prop::collection::vec((any::<bool>(), 0.05f64..1.0, 0u64..1000, 3u64..500), 3usize),
        unioned in any::<bool>(),
        // Which relation's scan prefix to compact on, and how far along it
        // is: 0 = no prefix, 1 = one unit, 2 = a strict prefix, 3 = all.
        prefix_rel in 0usize..3,
        prefix_kind in 0u8..4,
        prefix_pop in 2u64..400,
        rows in prop::collection::vec(
            (prop::collection::vec(0u64..64, 3usize), prop::collection::vec(-50.0f64..50.0, 4usize)),
            0..60,
        ),
    ) {
        let mut gus = design(&draws[..n]);
        if unioned {
            gus = gus.union(&design(&other[..n])).unwrap();
        }
        let k = match prefix_kind {
            0 => None,
            1 => Some(1),
            2 => Some(1 + prefix_pop / 2),
            _ => Some(prefix_pop),
        };
        if let Some(k) = k {
            gus = prefixed(&gus, prefix_rel % n, k, prefix_pop);
        }
        let sample = moments_of(&rows, n, dims);
        assert_plan_matches_report(&gus, &sample);
        if k == Some(1) {
            // One scanned unit: b_∅ = 0, so estimates come without variance.
            let plan = ReadoutPlan::new(&gus);
            prop_assert!(plan.weights().is_none());
            let slot = plan.read(&sample.total, &sample.y).unwrap();
            prop_assert!(slot.estimate(0).is_finite());
            prop_assert_eq!(slot.covariance(0, 0), None);
        }
        if k == Some(prefix_pop) {
            // A complete scan is the identity factor: same plan, to the bit.
            let unprefixed = if unioned {
                design(&draws[..n]).union(&design(&other[..n])).unwrap()
            } else {
                design(&draws[..n])
            };
            prop_assert_eq!(ReadoutPlan::new(&gus), ReadoutPlan::new(&unprefixed));
        }
    }
}

#[test]
fn a_blocking_sampler_is_the_same_typed_refusal() {
    let sample = moments_of(&[(vec![1, 2, 3], vec![1.0; 4])], 2, 2);
    let blocked = GusParams::bernoulli("r0", 0.0)
        .unwrap()
        .join(&GusParams::bernoulli("r1", 0.5).unwrap())
        .unwrap();
    assert_eq!(blocked.a(), 0.0);
    assert_plan_matches_report(&blocked, &sample);
    let plan = ReadoutPlan::new(&blocked);
    assert!(matches!(
        plan.read(&sample.total, &sample.y),
        Err(CoreError::Degenerate(_))
    ));
}

#[test]
fn the_paper_example_reads_out_through_the_plan() {
    // Example 1: Bernoulli(0.1) lineitem ⋈ WOR(1000 of 150000) orders.
    let gus = GusParams::bernoulli("r0", 0.1)
        .unwrap()
        .join(&GusParams::wor("r1", 1000, 150_000).unwrap())
        .unwrap();
    let rows: Vec<(Vec<u64>, Vec<f64>)> = (0..40u64)
        .map(|i| (vec![i, i % 7, 0], vec![1.0 + (i % 5) as f64, 1.0, 0.0, 0.0]))
        .collect();
    assert_plan_matches_report(&gus, &moments_of(&rows, 2, 2));
}

#[test]
fn a_large_total_does_not_round_the_variance_away() {
    // 200k rows of ≈ 26 under Bernoulli(0.9): y_∅ = (Σf)² ≈ 3·10¹³ against a
    // variance of ≈ 2·10⁷. Theorem 1's `− y_∅` has coefficient exactly 0
    // here; a route that adds Ŷ_∅ in and takes it out again rounds the
    // variance to Ŷ_∅'s last place (≈ 2·10⁻¹⁰ of it). Neither route may.
    let p = 0.9;
    let gus = GusParams::bernoulli("r0", p).unwrap();
    let mut acc = MomentAccumulator::new(1, 1);
    let mut sum_sq = 0.0;
    for i in 0..200_000u64 {
        let f = 20.0 + (i % 13) as f64;
        acc.push_scalar(&[i], f).unwrap();
        sum_sq += f * f;
    }
    let want = (1.0 - p) / (p * p) * sum_sq;
    let sample = acc.snapshot();
    let report = estimate_from_sample_moments(&gus, &sample).unwrap();
    let plan = ReadoutPlan::new(&gus);
    let slot = plan.read(&sample.total, &sample.y).unwrap();
    for (route, got) in [
        ("report", report.raw_variance(0).unwrap()),
        ("plan", slot.covariance(0, 0).unwrap()),
    ] {
        assert!(
            (got - want).abs() <= 1e-12 * want,
            "{route}: {got} vs {want}"
        );
    }
    assert_plan_matches_report(&gus, &sample);
}
