//! The readout as one linear functional — what a tick computes **once** and
//! applies to every slot.
//!
//! Theorem 1 and the Section 6.3 recursion are both linear in the sample
//! moments: every `Ŷ_S` is a triangular combination of the `Y_T` (`T ⊇ S`),
//! and `σ̂² = Σ_S (c_S/a²)·Ŷ_S − Ŷ_∅` a combination of those. Composed, the
//! whole variance readout is one weight vector `w(GUS)`:
//!
//! ```text
//! Cov[p,q] = Σ_S w_S · Y_S[p,q]
//! ```
//!
//! `w` depends on the GUS alone, not on the data — and by Proposition 5 a
//! group's indicator is just another selection, so the *same* `w` reads
//! every group of a `GROUP BY` (the accumulator-side form of Szegedy and
//! Thorup's point that one sample answers every subset sum with a
//! per-subset variance that needs no per-subset re-analysis of the
//! sampler). A [`ReadoutPlan`] is that vector plus `a`; reading a slot with
//! it is a `2ⁿ`-term dot product per covariance entry — no clone of the
//! moment matrices, no coefficient transform, no allocation.
//!
//! The weights come from running the recursion backwards. Write the target
//! as `Σ_S g_S·Ŷ_S` with `g_S = c_S/a² − [S = ∅]` and substitute
//! `Ŷ_S = (Y_S − Σ_{∅≠V⊆S^c} d_{S,V}·Ŷ_{S∪V}) / b_S` for the smallest `S`
//! first: `Y_S` picks up `w_S = g_S/b_S`, and each strict superset's
//! coefficient `g_{S∪V}` loses `w_S·d_{S,V}` — by the time a set is
//! reached, every subset has already been folded into its coefficient.
//!
//! [`crate::estimate_from_sample_moments`] stays the definition (it
//! materializes every `Ŷ_S`, which Section 8's variance prediction needs);
//! a plan readout equals it bit for bit on the estimates (`total / a` on
//! both routes) and to float association on the covariance —
//! `tests/readout_plan.rs` is the generated differential.

use crate::error::CoreError;
use crate::moments::MomentMatrix;
use crate::params::GusParams;
use crate::relset::RelSet;
use crate::Result;

/// Everything about a readout that depends on the GUS alone: `a`, and the
/// variance functional's weights when every `b_S > 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadoutPlan {
    n: usize,
    a: f64,
    /// `w_S` by `S.index()`; `None` when some `b_S = 0` (no variance is
    /// estimable — a WOR sample of size 1, say — but estimates still are).
    weights: Option<Box<[f64]>>,
}

impl ReadoutPlan {
    /// The plan for reading slots accumulated under `gus`. Never fails: a
    /// GUS with `a = 0` yields a plan whose every [`ReadoutPlan::read`] is
    /// the typed [`CoreError::Degenerate`] the report route gives, so a
    /// readout with no slot to read (a `GROUP BY` that has found no group)
    /// stays an empty answer rather than an error.
    pub fn new(gus: &GusParams) -> ReadoutPlan {
        ReadoutPlan {
            n: gus.n(),
            a: gus.a(),
            weights: variance_weights(gus),
        }
    }

    /// The weights `w_S` of the variance functional, by `S.index()`, when
    /// variance is estimable.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Bind the plan to one slot's running totals `ΣF` and sample moments
    /// `Y_S` (`y[S.index()]`, as [`crate::MomentAccumulator::y`] and
    /// [`crate::Moments::y`] hold them).
    pub fn read<'a>(&'a self, total: &'a [f64], y: &'a [MomentMatrix]) -> Result<SlotReadout<'a>> {
        if y.len() != 1usize << self.n {
            return Err(CoreError::DimensionMismatch {
                expected: 1usize << self.n,
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

/// `w_S` for every `S`, or `None` when some `b_S ≤ 0` (or `a ≤ 0`).
fn variance_weights(gus: &GusParams) -> Option<Box<[f64]>> {
    let (n, a) = (gus.n(), gus.a());
    if a <= 0.0 || gus.b_table().iter().any(|b| *b <= 0.0) {
        return None;
    }
    // g_S = c_S/a² − [S = ∅]: the coefficient of Ŷ_S in Theorem 1.
    let mut g: Vec<f64> = gus.c_coeffs().iter().map(|c| c / (a * a)).collect();
    g[RelSet::EMPTY.index()] -= 1.0;
    let mut order: Vec<usize> = (0..g.len()).collect();
    order.sort_by_key(|s| s.count_ones());
    let mut w = vec![0.0; g.len()];
    for s_idx in order {
        let s = RelSet::from_bits(s_idx as u32);
        let d = gus.d_coeffs_for(s);
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
    y: &'a [MomentMatrix],
}

impl SlotReadout<'_> {
    /// Unbiased point estimate of dimension `p`: `ΣF_p / a` (Theorem 1).
    pub fn estimate(&self, p: usize) -> f64 {
        self.total[p] / self.plan.a
    }

    /// Estimated covariance of dimensions `p` and `q` — unclamped, so a
    /// diagonal entry can be slightly negative by chance — or `None` when
    /// the GUS admits no variance estimate.
    pub fn covariance(&self, p: usize, q: usize) -> Option<f64> {
        let w = self.plan.weights.as_deref()?;
        Some(w.iter().zip(self.y).map(|(w, y)| w * y.get(p, q)).sum())
    }
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
    fn join_readout_matches_the_report() {
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
                let (got, want) = (slot.covariance(p, q).unwrap(), cov.get(p, q));
                assert!((got - want).abs() <= 1e-12 * want.abs(), "{got} vs {want}");
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
