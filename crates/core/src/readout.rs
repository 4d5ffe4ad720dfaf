//! The readout as one linear functional — what a tick computes **once** and
//! applies to every slot.
//!
//! Theorem 1 and the Section 6.3 recursion are both linear in the sample
//! moments: every `Ŷ_S` is a triangular combination of the `Y_T` (`T ⊇ S`),
//! and `σ̂² = Σ_S (c_S/a²)·Ŷ_S − Ŷ_∅` a combination of those. Composed, every
//! variance this crate reports is one weight vector fixed by two designs —
//! the one the moments were **sampled** under, which supplies `b`/`d`, and
//! the **target** whose variance is wanted, which supplies `c/a²`:
//!
//! ```text
//! Cov[p,q] = Σ_S w_S(sampled, target) · Y_S[p,q]
//! ```
//!
//! A tick reads `w(G, G)` ([`ReadoutPlan::new`]); Section 7 sub-sampling
//! `w(G ⊙ LineageBernoulli, G)`, Section 8's variance prediction `w(G, G′)`
//! and the exact variance over population moments `w(identity, G)`
//! ([`ReadoutPlan::between`]). `w` depends on the designs alone, not on the
//! data — and by Proposition 5 a group's indicator is just another
//! selection, so the *same* `w` reads every group of a `GROUP BY` (the
//! accumulator-side form of Szegedy and Thorup's point that a design's
//! variance is a closed form of the design, with no per-subset
//! re-analysis of the sampler). A [`ReadoutPlan`] is that vector plus `a`;
//! reading a slot with it is a `2ⁿ`-term dot product per covariance entry
//! — no clone of the moment matrices, no coefficient transform, no
//! allocation, and no `Ŷ_S` materialized.
//!
//! The weights come from running the recursion backwards. Write the target
//! as `Σ_S g_S·Ŷ_S` with `g_S = c_S/a² − [S = ∅]` (the target's `c` and `a`)
//! and substitute `Ŷ_S = (Y_S − Σ_{∅≠V⊆S^c} d_{S,V}·Ŷ_{S∪V}) / b_S` (the
//! sampled design's `b` and `d`) for the smallest `S` first: `Y_S` picks up
//! `w_S = g_S/b_S`, and each strict superset's coefficient `g_{S∪V}` loses
//! `w_S·d_{S,V}` — by the time a set is reached, every subset has already
//! been folded into its coefficient. `tests/readout_plan.rs` checks every
//! case against the recursion run forwards, as the paper writes it.

use crate::error::CoreError;
use crate::params::GusParams;
use crate::relset::RelSet;
use crate::Result;

/// Everything about a readout that depends on the designs alone: the
/// sampled design's `a`, and the variance functional's weights when it is
/// defined.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadoutPlan {
    n: usize,
    a: f64,
    /// `w_S` by `S.index()`; `None` when some `b_S = 0` under the sampled
    /// design (no variance is estimable — a WOR sample of size 1, say — but
    /// estimates still are) or the target has `a = 0`.
    weights: Option<Box<[f64]>>,
}

impl ReadoutPlan {
    /// The plan for reading slots accumulated under `gus`, for `gus`'s own
    /// variance: `w(gus, gus)`. Never fails: a GUS with `a = 0` yields a
    /// plan whose every [`ReadoutPlan::read`] is a typed
    /// [`CoreError::Degenerate`], so a readout with no slot to read (a
    /// `GROUP BY` that has found no group) stays an empty answer rather
    /// than an error.
    pub fn new(gus: &GusParams) -> ReadoutPlan {
        ReadoutPlan {
            n: gus.n(),
            a: gus.a(),
            weights: variance_weights(gus, gus),
        }
    }

    /// The plan for reading slots sampled under `sampled` for the variance
    /// `target` would have: `w(sampled, target)`. Estimates are still the
    /// sample's own (`ΣF / a` under `sampled`); the two designs must share
    /// a lineage schema.
    pub fn between(sampled: &GusParams, target: &GusParams) -> Result<ReadoutPlan> {
        if sampled.schema() != target.schema() {
            return Err(CoreError::SchemaMismatch {
                left: sampled.schema().to_string(),
                right: target.schema().to_string(),
            });
        }
        Ok(ReadoutPlan {
            n: sampled.n(),
            a: sampled.a(),
            weights: variance_weights(sampled, target),
        })
    }

    /// The weights `w_S` of the variance functional, by `S.index()`, when
    /// variance is estimable.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Bind the plan to one slot's running totals `ΣF` and sample moments
    /// `Y_S`: `k×k` row-major blocks by `S.index()`, laid end to end, as
    /// [`crate::MomentSlot::y`] and [`crate::Moments::y_flat`] hold them.
    pub fn read<'a>(&'a self, total: &'a [f64], y: &'a [f64]) -> Result<SlotReadout<'a>> {
        let expected = (total.len() * total.len()) << self.n;
        if y.len() != expected {
            return Err(CoreError::DimensionMismatch {
                expected,
                got: y.len(),
            });
        }
        if self.a <= 0.0 {
            return Err(CoreError::Degenerate(
                "GUS a = 0: nothing can be estimated from a sampler that blocks everything".into(),
            ));
        }
        Ok(SlotReadout {
            plan: self,
            total,
            y,
        })
    }
}

/// `w_S(sampled, target)` for every `S`, or `None` when some sampled
/// `b_S ≤ 0` or either design has `a ≤ 0`.
fn variance_weights(sampled: &GusParams, target: &GusParams) -> Option<Box<[f64]>> {
    let (n, a) = (target.n(), target.a());
    if a <= 0.0 || sampled.a() <= 0.0 || sampled.b_table().iter().any(|b| *b <= 0.0) {
        return None;
    }
    // g_S = c_S/a² − [S = ∅]: the coefficient of Ŷ_S in the target's
    // Theorem 1.
    let mut g: Vec<f64> = target.c_coeffs().iter().map(|c| c / (a * a)).collect();
    g[RelSet::EMPTY.index()] -= 1.0;
    let mut order: Vec<usize> = (0..g.len()).collect();
    order.sort_by_key(|s| s.count_ones());
    let mut w = vec![0.0; g.len()];
    for s_idx in order {
        let s = RelSet::from_bits(s_idx as u32);
        let d = sampled.d_coeffs_for(s);
        w[s_idx] = g[s_idx] / d[RelSet::EMPTY.index()];
        for v in s.complement(n).subsets().filter(|v| !v.is_empty()) {
            g[s.union(v).index()] -= w[s_idx] * d[v.index()];
        }
    }
    Some(w.into())
}

/// One slot seen through a [`ReadoutPlan`]: estimates and covariance
/// entries on demand, nothing materialized.
#[derive(Debug, Clone, Copy)]
pub struct SlotReadout<'a> {
    plan: &'a ReadoutPlan,
    total: &'a [f64],
    y: &'a [f64],
}

impl SlotReadout<'_> {
    /// Unbiased point estimate of dimension `p`: `ΣF_p / a` (Theorem 1).
    pub fn estimate(&self, p: usize) -> f64 {
        self.total[p] / self.plan.a
    }

    /// Estimated covariance of dimensions `p` and `q` — unclamped, so a
    /// diagonal entry can be negative by chance — or `None` when the GUS
    /// admits no variance estimate.
    pub fn covariance(&self, p: usize, q: usize) -> Option<f64> {
        self.entry(p, q).map(|(cov, _)| cov)
    }

    /// [`SlotReadout::covariance`] with the sum of its terms' magnitudes,
    /// `Σ_S |w_S·Y_S[p,q]|`: the scale its rounding is judged against
    /// ([`variance_reading`]).
    pub fn entry(&self, p: usize, q: usize) -> Option<(f64, f64)> {
        let w = self.plan.weights.as_deref()?;
        let k = self.total.len();
        let terms = (w.iter().zip(self.y.chunks_exact(k * k))).map(|(w, y)| w * y[p * k + q]);
        Some((terms.clone().sum(), terms.map(f64::abs).sum()))
    }
}

/// The relative rounding a variance entry may carry: its terms cancel, so
/// it is judged against the sum of their magnitudes.
const ROUNDING: f64 = 1e-9;

/// A raw `σ̂²` as intervals read it, given `scale`, the sum of the
/// magnitudes of the terms that cancel in it (`y_full`'s diagonal among
/// them; see [`SlotReadout::entry`]): `σ̂²` itself when nonnegative, 0 when
/// it is negative by rounding only — a design that fixes the estimate, as
/// WOR at exhaustion, reads 0 up to rounding — and `None` when it is
/// negative beyond rounding. `σ̂²` is unbiased but not nonnegative: a
/// negative reading says the sample cannot yet tell the spread, not that
/// there is none, so it gets no interval and no CI target fires on it.
pub fn variance_reading(raw: f64, scale: f64) -> Option<f64> {
    (raw >= -ROUNDING * scale).then_some(raw.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::estimate_from_sample_moments;
    use crate::MomentAccumulator;

    #[test]
    fn bernoulli_weights_are_the_closed_form() {
        // Var = ((1−p)/p²)·Y_r and Y_∅ drops out.
        let p = 0.25;
        let plan = ReadoutPlan::new(&GusParams::bernoulli("r", p).unwrap());
        let w = plan.weights().unwrap();
        assert!(w[0].abs() < 1e-12, "w_∅ = {}", w[0]);
        assert!((w[1] - (1.0 - p) / (p * p)).abs() < 1e-12, "w_r = {}", w[1]);
    }

    #[test]
    fn a_prediction_reweights_the_sampled_moments() {
        // Sampled under Bernoulli(p), read for Bernoulli(q):
        // Var_q = ((1−q)/q)·y_r with y_r unbiased by Y_r/p.
        let (p, q) = (0.25, 0.6);
        let sampled = GusParams::bernoulli("r", p).unwrap();
        let plan = ReadoutPlan::between(&sampled, &GusParams::bernoulli("r", q).unwrap()).unwrap();
        let w = plan.weights().unwrap();
        assert!(w[0].abs() < 1e-12, "w_∅ = {}", w[0]);
        assert!((w[1] - (1.0 - q) / (q * p)).abs() < 1e-12, "w_r = {}", w[1]);
        // The same design on both sides is the tick's plan, to the bit.
        assert_eq!(
            ReadoutPlan::between(&sampled, &sampled).unwrap(),
            ReadoutPlan::new(&sampled)
        );
        let other = GusParams::bernoulli("s", q).unwrap();
        assert!(matches!(
            ReadoutPlan::between(&sampled, &other),
            Err(CoreError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn join_readout_is_the_report() {
        let gus = GusParams::bernoulli("l", 0.3)
            .unwrap()
            .join(&GusParams::wor("o", 5, 40).unwrap())
            .unwrap();
        let mut acc = MomentAccumulator::new(2, 2);
        for (i, o) in [(1u64, 7u64), (2, 7), (3, 9), (1, 9), (4, 11)] {
            acc.push(&[i, o], &[i as f64 + 0.5, 1.0]).unwrap();
        }
        let report = acc.report(&gus).unwrap();
        let plan = ReadoutPlan::new(&gus);
        let slot = plan.read(acc.total(), acc.y()).unwrap();
        let cov = report.covariance.as_ref().unwrap();
        for p in 0..2 {
            assert_eq!(slot.estimate(p).to_bits(), report.estimate[p].to_bits());
            for q in 0..2 {
                let got = slot.covariance(p, q).unwrap();
                assert_eq!(got.to_bits(), cov.get(p, q).to_bits());
            }
        }
    }

    #[test]
    fn degenerate_designs_fail_like_the_report() {
        let acc = MomentAccumulator::new(1, 1);
        // a = 0: the same typed refusal, and only once a slot is read.
        let null = GusParams::null(crate::LineageSchema::single("r"));
        let plan = ReadoutPlan::new(&null);
        assert!(matches!(
            plan.read(acc.total(), acc.y()),
            Err(CoreError::Degenerate(_))
        ));
        assert!(matches!(
            estimate_from_sample_moments(&null, &acc.snapshot()),
            Err(CoreError::Degenerate(_))
        ));
        // b_∅ = 0 (one WOR draw): an estimate, no variance.
        let one = GusParams::wor("r", 1, 100).unwrap();
        let mut acc = MomentAccumulator::new(1, 1);
        acc.push_scalar(&[42], 7.0).unwrap();
        let plan = ReadoutPlan::new(&one);
        let slot = plan.read(acc.total(), acc.y()).unwrap();
        assert!((slot.estimate(0) - 700.0).abs() < 1e-9);
        assert_eq!(slot.covariance(0, 0), None);
        // Arity is checked once per slot.
        let two = MomentAccumulator::new(2, 1);
        assert!(matches!(
            plan.read(two.total(), two.y()),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }
}
