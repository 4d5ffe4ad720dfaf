//! Generated differential of the readout functional against the Section
//! 6.3 recursion as the paper writes it.
//!
//! [`ReadoutPlan`] folds Theorem 1 and the recursion into one weight vector
//! `w(sampled, target)`; the oracle here runs them forwards — unbiased
//! moment estimates `Ŷ_S` from the sample `Y_S` under the sampled design,
//! then Theorem 1 under the target. Over generated designs — arity 1–3 of
//! Bernoulli / WOR factors joined, optionally unioned with a second such
//! design (Proposition 7) and compacted with a scan-prefix `WOR(k, N)`
//! (Proposition 8, `k = N` and `k = 1` included) — a generated second
//! design and a generated `LineageBernoulli` sub-sampler, and generated
//! sample moments of 1–4 dimensions, all four readouts agree with the
//! oracle: the tick (`w(G, G)`) to 1e-12 of the oracle's own value, and to
//! 1e-12 of `Σ_S |w_S·Y_S[p,q]|` Section 8's prediction (`w(G, G′)`),
//! Section 7's sub-sampled variance (`w(G ⊙ LineageBernoulli, G)`) and the
//! exact variance (`w(identity, G)`). Where the oracle cannot unbias
//! (sampled `a = 0` or some `b_S = 0`) or the target has `a = 0`, the
//! functional refuses too — with the report's typed error.

use proptest::prelude::*;
use sa_core::{
    estimate_from_sample_moments, exact_variance, CoreError, GusParams, LineageBernoulli,
    MomentAccumulator, MomentMatrix, Moments, ReadoutPlan, RelSet,
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

/// Section 6.3 run forwards: `Ŷ_S = (Y_S − Σ_{∅≠V⊆S^c} d_{S,V}·Ŷ_{S∪V}) /
/// b_S` under `sampled`, largest `S` first. `None` when some `b_S = 0`.
fn forward_recursion(sampled: &GusParams, y: &[MomentMatrix]) -> Option<Vec<MomentMatrix>> {
    let n = sampled.n();
    let mut order: Vec<usize> = (0..y.len()).collect();
    order.sort_by_key(|s| std::cmp::Reverse(s.count_ones()));
    let mut unbiased: Vec<Option<MomentMatrix>> = vec![None; y.len()];
    for s_idx in order {
        let s = RelSet::from_bits(s_idx as u32);
        let d = sampled.d_coeffs_for(s);
        let b_s = d[RelSet::EMPTY.index()];
        if b_s <= 0.0 {
            return None;
        }
        let mut m = y[s_idx].clone();
        for v in s.complement(n).subsets().filter(|v| !v.is_empty()) {
            let superset = unbiased[s.union(v).index()].as_ref().unwrap();
            m.add_scaled(superset, -d[v.index()]);
        }
        m.scale(1.0 / b_s);
        unbiased[s_idx] = Some(m);
    }
    Some(unbiased.into_iter().map(Option::unwrap).collect())
}

/// Theorem 1 as written: `Σ_S (c_S/a²)·m_S[p,q] − m_∅[p,q]` under
/// `target`, over population moments or their unbiased estimates.
fn theorem_one(target: &GusParams, m: &[MomentMatrix], p: usize, q: usize) -> f64 {
    let (c, a2) = (target.c_coeffs(), target.a() * target.a());
    let mut cov = 0.0;
    for (s_idx, m_s) in m.iter().enumerate() {
        let own = if s_idx == RelSet::EMPTY.index() {
            1.0
        } else {
            0.0
        };
        cov += (c[s_idx] / a2 - own) * m_s.get(p, q);
    }
    cov
}

/// The refusal of a sampled design with `a = 0`, as the Section 6.3 report
/// has always worded it.
fn a_zero_refusal() -> CoreError {
    CoreError::Degenerate(
        "GUS a = 0: nothing can be estimated from a sampler that blocks everything".into(),
    )
}

/// The tick, `w(G, G)`: every covariance entry within 1e-12 of the
/// oracle's own value.
fn assert_tick_is_the_recursion(gus: &GusParams, sample: &Moments) {
    assert_reads_the_recursion(gus, gus, sample, |want, _| want.abs());
}

/// Two designs, `w(sampled, target)`: every covariance entry within 1e-12
/// of `Σ_S |w_S·Y_S[p,q]|`, the size of the terms the functional sums.
fn assert_functional_is_the_recursion(sampled: &GusParams, target: &GusParams, sample: &Moments) {
    assert_reads_the_recursion(sampled, target, sample, |_, terms| terms);
}

/// `w(sampled, target)` read over `sample` agrees with the oracle on every
/// covariance entry to 1e-12 of `scale(want, Σ_S |w_S·Y_S[p,q]|)`, and
/// refuses exactly where the oracle cannot answer.
fn assert_reads_the_recursion(
    sampled: &GusParams,
    target: &GusParams,
    sample: &Moments,
    scale: impl Fn(f64, f64) -> f64,
) {
    let plan = ReadoutPlan::between(sampled, target).unwrap();
    let y = sample.y_flat();
    let slot = match plan.read(&sample.total, &y) {
        Ok(slot) => slot,
        Err(err) => {
            assert_eq!(err, a_zero_refusal(), "the same typed refusal");
            assert!(sampled.a() <= 0.0, "refused a readable design: {sampled}");
            assert!(forward_recursion(sampled, &sample.y).is_none());
            return;
        }
    };
    for p in 0..sample.dims {
        assert_eq!(
            slot.estimate(p).to_bits(),
            (sample.total[p] / sampled.a()).to_bits()
        );
    }
    let unbiased = forward_recursion(sampled, &sample.y);
    let (Some(w), Some(unbiased)) = (plan.weights(), &unbiased) else {
        assert!(
            plan.weights().is_none() && (unbiased.is_none() || target.a() <= 0.0),
            "weights withheld iff the oracle cannot answer: {sampled} → {target}"
        );
        assert_eq!(slot.covariance(0, 0), None);
        return;
    };
    for p in 0..sample.dims {
        for q in 0..sample.dims {
            let got = slot.covariance(p, q).unwrap();
            let want = theorem_one(target, unbiased, p, q);
            let terms: f64 = w
                .iter()
                .zip(&sample.y)
                .map(|(w, y)| (w * y.get(p, q)).abs())
                .sum();
            let scale = scale(want, terms);
            assert!(
                (got - want).abs() <= 1e-12 * scale,
                "cov[{p},{q}]: functional {got} vs recursion {want} (scale {scale}) \
                 sampled under {sampled}, read for {target}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_functional_is_the_recursion(
        n in 1usize..4,
        dims in 1usize..5,
        draws in prop::collection::vec((any::<bool>(), 0.05f64..1.0, 0u64..1000, 3u64..500), 3usize),
        other in prop::collection::vec((any::<bool>(), 0.05f64..1.0, 0u64..1000, 3u64..500), 3usize),
        second in prop::collection::vec((any::<bool>(), 0.05f64..1.0, 0u64..1000, 3u64..500), 3usize),
        unioned in any::<bool>(),
        // Which relation's scan prefix to compact on, and how far along it
        // is: 0 = no prefix, 1 = one unit, 2 = a strict prefix, 3 = all.
        prefix_rel in 0usize..3,
        prefix_kind in 0u8..4,
        prefix_pop in 2u64..400,
        keep in prop::collection::vec(0.05f64..1.0, 3usize),
        keep_seed in any::<u64>(),
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

        // The tick: w(G, G), and the report is that readout to the bit.
        assert_tick_is_the_recursion(&gus, &sample);
        let plan = ReadoutPlan::new(&gus);
        prop_assert_eq!(&plan, &ReadoutPlan::between(&gus, &gus).unwrap());
        let y = sample.y_flat();
        if let Ok(report) = estimate_from_sample_moments(&gus, &sample) {
            let slot = plan.read(&sample.total, &y).unwrap();
            for p in 0..dims {
                prop_assert_eq!(report.estimate[p].to_bits(), slot.estimate(p).to_bits());
                for q in 0..dims {
                    prop_assert_eq!(
                        report.covariance.as_ref().map(|c| c.get(p, q).to_bits()),
                        slot.covariance(p, q).map(f64::to_bits)
                    );
                }
            }
        }

        // Section 8: what the same sample predicts for a second design.
        let target = design(&second[..n]);
        assert_functional_is_the_recursion(&gus, &target, &sample);

        // Section 7: the sample sub-sampled by lineage, read for G.
        let sub = LineageBernoulli::new(gus.schema().clone(), &keep[..n], keep_seed).unwrap();
        let compacted = gus.compact(&sub.gus()).unwrap();
        assert_functional_is_the_recursion(&compacted, &gus, &sample);

        // The exact variance: population moments are "sampled" by the
        // identity, whose recursion is Ŷ = Y — Theorem 1 itself.
        let identity = GusParams::identity(gus.schema().clone());
        assert_functional_is_the_recursion(&identity, &gus, &sample);
        if gus.a() > 0.0 {
            for p in 0..dims {
                prop_assert_eq!(exact_variance(&gus, &sample, p), theorem_one(&gus, &sample.y, p, p));
            }
        }

        if k == Some(1) {
            // One scanned unit: b_∅ = 0, so estimates come without variance.
            prop_assert!(plan.weights().is_none());
            let slot = plan.read(&sample.total, &y).unwrap();
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
fn blocking_designs_are_typed_refusals() {
    let sample = moments_of(&[(vec![1, 2, 3], vec![1.0; 4])], 2, 2);
    let open = GusParams::bernoulli("r0", 0.5)
        .unwrap()
        .join(&GusParams::bernoulli("r1", 0.5).unwrap())
        .unwrap();
    let blocked = GusParams::bernoulli("r0", 0.0)
        .unwrap()
        .join(&GusParams::bernoulli("r1", 0.5).unwrap())
        .unwrap();
    assert_eq!(blocked.a(), 0.0);
    // Sampled a = 0: nothing to read, for any target.
    assert_tick_is_the_recursion(&blocked, &sample);
    assert_functional_is_the_recursion(&blocked, &open, &sample);
    for target in [&open, &blocked] {
        let plan = ReadoutPlan::between(&blocked, target).unwrap();
        assert_eq!(
            plan.read(&sample.total, &sample.y_flat()).unwrap_err(),
            a_zero_refusal()
        );
    }
    assert_eq!(
        estimate_from_sample_moments(&blocked, &sample).unwrap_err(),
        a_zero_refusal()
    );
    // Target a = 0: estimates, no variance — and a typed refusal from the
    // prediction.
    assert_functional_is_the_recursion(&open, &blocked, &sample);
    assert!(ReadoutPlan::between(&open, &blocked)
        .unwrap()
        .weights()
        .is_none());
    let report = estimate_from_sample_moments(&open, &sample).unwrap();
    assert!(matches!(
        report.predict_variance(&blocked, 0),
        Err(CoreError::Degenerate(_))
    ));
    assert!(exact_variance(&blocked, &sample, 0).is_nan());
    // Some sampled b_S = 0 (one WOR draw): the prediction refuses too.
    let one = prefixed(&open, 0, 1, 50);
    let report = estimate_from_sample_moments(&one, &sample).unwrap();
    assert!(report.covariance.is_none());
    assert!(matches!(
        report.predict_variance(&open, 0),
        Err(CoreError::Degenerate(_))
    ));
}

#[test]
fn the_paper_example_reads_out_through_the_plan() {
    // Example 1: Bernoulli(0.1) lineitem ⋈ WOR(1000 of 150000) orders,
    // read for itself and for its Example-5 rival B(0.2) ∘ B(0.3).
    let gus = GusParams::bernoulli("r0", 0.1)
        .unwrap()
        .join(&GusParams::wor("r1", 1000, 150_000).unwrap())
        .unwrap();
    let rival = GusParams::bernoulli("r0", 0.2)
        .unwrap()
        .join(&GusParams::bernoulli("r1", 0.3).unwrap())
        .unwrap();
    let rows: Vec<(Vec<u64>, Vec<f64>)> = (0..40u64)
        .map(|i| (vec![i, i % 7, 0], vec![1.0 + (i % 5) as f64, 1.0, 0.0, 0.0]))
        .collect();
    let sample = moments_of(&rows, 2, 2);
    assert_tick_is_the_recursion(&gus, &sample);
    assert_functional_is_the_recursion(&gus, &rival, &sample);
}

#[test]
fn a_large_total_does_not_round_the_variance_away() {
    // 200k rows of ≈ 26 under Bernoulli(0.9): y_∅ = (Σf)² ≈ 3·10¹³ against a
    // variance of ≈ 2·10⁷. Theorem 1's `− y_∅` has coefficient exactly 0
    // here; a readout that adds Ŷ_∅ in and takes it out again rounds the
    // variance to Ŷ_∅'s last place (≈ 2·10⁻¹⁰ of it). The functional never
    // materializes Ŷ_∅, and neither the tick nor the report may.
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
    let y = sample.y_flat();
    let slot = plan.read(&sample.total, &y).unwrap();
    for (route, got) in [
        ("report", report.raw_variance(0).unwrap()),
        ("plan", slot.covariance(0, 0).unwrap()),
    ] {
        assert!(
            (got - want).abs() <= 1e-12 * want,
            "{route}: {got} vs {want}"
        );
    }
    assert_tick_is_the_recursion(&gus, &sample);
}
