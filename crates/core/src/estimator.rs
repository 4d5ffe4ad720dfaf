//! The **SBox** — the paper's statistical estimator component (Section 6).
//!
//! The SBox sits between the query plan and the aggregate. It consumes, for
//! every result tuple, its **lineage** (one id per base relation) and its
//! aggregate value(s), plus the parameters of the single top-level GUS
//! quasi-operator produced by the SOA rewriter. From these it computes:
//!
//! 1. the unbiased point estimate `X = (1/a) Σ f(t)` (Theorem 1),
//! 2. the sample statistics `Y_S` (grouped second moments),
//! 3. the variance estimate `σ̂² = Σ_S w_S·Y_S` — Theorem 1 with the
//!    Section 6.3 unbiasing folded into one weight vector
//!    ([`crate::ReadoutPlan`]), and
//! 4. normal / Chebyshev confidence intervals and `QUANTILE` bounds.
//!
//! The SBox is aggregate-vector-valued: pushing `k` values per tuple yields a
//! `k×k` covariance estimate, which powers the delta-method AVG (see
//! [`crate::delta`]).

use std::sync::Arc;

use crate::accumulator::MomentAccumulator;
use crate::ci::{chebyshev_ci, normal_ci, quantile_bound, ConfidenceInterval};
use crate::error::CoreError;
use crate::moments::{MomentMatrix, Moments};
use crate::params::GusParams;
use crate::readout::{variance_reading, ReadoutPlan};
use crate::relset::LineageSchema;
use crate::Result;

/// Streaming estimator for SUM-like aggregates under a GUS sampling method.
#[derive(Debug)]
pub struct SBox {
    gus: GusParams,
    acc: MomentAccumulator,
}

impl SBox {
    /// An SBox for a single SUM-like aggregate under `gus`.
    pub fn new(gus: GusParams) -> SBox {
        SBox::with_dims(gus, 1)
    }

    /// An SBox tracking `dims` aggregates simultaneously (shared lineage).
    pub fn with_dims(gus: GusParams, dims: usize) -> SBox {
        let n = gus.n();
        SBox {
            gus,
            acc: MomentAccumulator::new(n, dims),
        }
    }

    /// The GUS parameters this SBox analyzes under.
    pub fn gus(&self) -> &GusParams {
        &self.gus
    }

    /// Consume one result tuple: lineage ids (aligned with the GUS lineage
    /// schema) and the aggregate vector.
    pub fn push(&mut self, lineage: &[u64], f: &[f64]) -> Result<()> {
        self.acc.push(lineage, f)
    }

    /// Scalar convenience for `dims == 1`.
    pub fn push_scalar(&mut self, lineage: &[u64], f: f64) -> Result<()> {
        self.acc.push_scalar(lineage, f)
    }

    /// Finish consuming tuples and produce the estimate report.
    pub fn finish(self) -> Result<EstimateReport> {
        self.acc.report(&self.gus)
    }
}

/// Compute an [`EstimateReport`] from already-accumulated *sample* moments.
///
/// Split out of [`SBox::finish`] so callers that keep the raw moments around
/// can reuse them.
pub fn estimate_from_sample_moments(gus: &GusParams, sample: &Moments) -> Result<EstimateReport> {
    EstimateReport::of(gus, sample.clone())
}

/// Exact (oracle) variance of dimension `dim` given **population** moments —
/// the right-hand side of Theorem 1 evaluated exactly, which is the
/// readout of moments "sampled" by the identity: `w(identity, gus)`. NaN
/// when `gus` has `a = 0` or the moments are over another lineage arity.
/// Used by tests and the oracle baseline.
pub fn exact_variance(gus: &GusParams, population: &Moments, dim: usize) -> f64 {
    let identity = GusParams::identity(gus.schema().clone());
    ReadoutPlan::between(&identity, gus)
        .ok()
        .and_then(|plan| {
            plan.read(&population.total, &population.y_flat())
                .ok()?
                .covariance(dim, dim)
        })
        .unwrap_or(f64::NAN)
}

/// `sample` is over `gus`'s lineage arity.
fn check_arity(gus: &GusParams, sample: &Moments) -> Result<()> {
    if sample.n != gus.n() {
        return Err(CoreError::DimensionMismatch {
            expected: gus.n(),
            got: sample.n,
        });
    }
    Ok(())
}

/// The SBox output: point estimates and estimated covariance, plus the
/// sample moments they were read from (Section 8's "choosing sampling
/// parameters" reads the same moments for *other* schemes).
#[derive(Debug, Clone)]
pub struct EstimateReport {
    /// The design `estimate` and `covariance` are of.
    gus: GusParams,
    /// The design `sample` was drawn under: `gus` itself, or under Section
    /// 7 sub-sampling `gus` compacted with the sub-sampler.
    sampled: GusParams,
    /// Boxed: a report rides inside every scalar batch answer.
    sample: Box<Moments>,
    /// Unbiased point estimate per aggregate dimension.
    pub estimate: Vec<f64>,
    /// Estimated covariance matrix of the estimators, when estimable.
    pub covariance: Option<MomentMatrix>,
    /// Per covariance entry, the sum of its terms' magnitudes: the scale
    /// its rounding is judged against ([`variance_reading`]).
    scale: Option<MomentMatrix>,
    /// Aggregate dimension.
    pub dims: usize,
    /// Number of result tuples consumed.
    pub m: u64,
}

impl EstimateReport {
    /// `sample`'s report under the design it was drawn under: estimates
    /// `ΣF / a` and the tick's readout `w(gus, gus)`. A design with `a = 0`
    /// is a typed refusal.
    pub(crate) fn of(gus: &GusParams, sample: Moments) -> Result<EstimateReport> {
        check_arity(gus, &sample)?;
        let plan = ReadoutPlan::new(gus);
        let y = sample.y_flat();
        let slot = plan.read(&sample.total, &y)?;
        let estimate = (0..sample.dims).map(|p| slot.estimate(p)).collect();
        EstimateReport::between(gus, gus, sample, estimate)
    }

    /// `estimate` of `target`'s estimator, with the covariance `sample` —
    /// drawn under `sampled` — says it has: `w(sampled, target)` read
    /// through [`ReadoutPlan::between`], entry by entry, exactly as a tick
    /// reads it. No covariance when `sampled` admits no variance estimate
    /// (some `b_S = 0`, or `a = 0`: a sub-sample of nothing). Section 7
    /// sub-sampling is the one caller with two designs: its estimate is the
    /// full sample's, its covariance the sub-sample's.
    pub fn between(
        sampled: &GusParams,
        target: &GusParams,
        sample: Moments,
        estimate: Vec<f64>,
    ) -> Result<EstimateReport> {
        check_arity(sampled, &sample)?;
        let dims = sample.dims;
        if estimate.len() != dims {
            return Err(CoreError::DimensionMismatch {
                expected: dims,
                got: estimate.len(),
            });
        }
        let plan = ReadoutPlan::between(sampled, target)?;
        // Weights exist only where the sampled design has a > 0, so the
        // read cannot refuse.
        let (covariance, scale) = match plan.weights() {
            Some(_) => {
                let y = sample.y_flat();
                let slot = plan.read(&sample.total, &y)?;
                let entry = |p, q| slot.entry(p, q).expect("the plan has weights");
                (
                    Some(MomentMatrix::from_fn(dims, |p, q| entry(p, q).0)),
                    Some(MomentMatrix::from_fn(dims, |p, q| entry(p, q).1)),
                )
            }
            None => (None, None),
        };
        Ok(EstimateReport {
            gus: target.clone(),
            sampled: sampled.clone(),
            estimate,
            covariance,
            scale,
            dims,
            m: sample.count,
            sample: Box::new(sample),
        })
    }

    /// The lineage schema of the analysis.
    pub fn schema(&self) -> &Arc<LineageSchema> {
        self.gus.schema()
    }

    /// The GUS the estimate was produced under.
    pub fn gus(&self) -> &GusParams {
        &self.gus
    }

    /// Covariance entry `(p, q)` with its scale, as [`SlotReadout::entry`]
    /// reads it; `None` when variance is not estimable.
    ///
    /// [`SlotReadout::entry`]: crate::SlotReadout::entry
    pub fn entry(&self, p: usize, q: usize) -> Option<(f64, f64)> {
        let (cov, scale) = self.covariance.as_ref().zip(self.scale.as_ref())?;
        Some((cov.get(p, q), scale.get(p, q)))
    }

    /// Estimated variance of dimension `dim`, as intervals read it
    /// ([`variance_reading`] of [`EstimateReport::raw_variance`]): an error
    /// when it is not estimable or negative beyond rounding.
    pub fn variance(&self, dim: usize) -> Result<f64> {
        let (raw, scale) = self.entry(dim, dim).ok_or_else(|| {
            CoreError::Degenerate("variance is not estimable for this GUS/sample".into())
        })?;
        variance_reading(raw, scale).ok_or_else(|| {
            CoreError::Degenerate(format!(
                "variance estimate {raw} is negative beyond rounding: no interval yet"
            ))
        })
    }

    /// The variance estimate as computed, unclamped (can be negative by
    /// chance).
    pub fn raw_variance(&self, dim: usize) -> Result<f64> {
        let cov = self.covariance.as_ref().ok_or_else(|| {
            CoreError::Degenerate("variance is not estimable for this GUS/sample".into())
        })?;
        Ok(cov.get(dim, dim))
    }

    /// Estimated standard error of dimension `dim`.
    pub fn std_error(&self, dim: usize) -> Result<f64> {
        Ok(self.variance(dim)?.sqrt())
    }

    /// Two-sided normal CI for dimension `dim`.
    pub fn ci_normal(&self, dim: usize, level: f64) -> Result<ConfidenceInterval> {
        normal_ci(self.estimate[dim], self.variance(dim)?, level)
    }

    /// Two-sided Chebyshev CI for dimension `dim`.
    pub fn ci_chebyshev(&self, dim: usize, level: f64) -> Result<ConfidenceInterval> {
        chebyshev_ci(self.estimate[dim], self.variance(dim)?, level)
    }

    /// One-sided quantile bound (the `QUANTILE(SUM(e), q)` view).
    pub fn quantile(&self, dim: usize, q: f64) -> Result<f64> {
        quantile_bound(self.estimate[dim], self.variance(dim)?, q)
    }

    /// Predict the variance this query would have under a **different** GUS
    /// method (same lineage schema) — Section 8's "choosing sampling
    /// parameters": the sample moments read through `w(sampled, other)`
    /// estimate `other`'s Theorem 1 variance, unbiasedly. The prediction is
    /// read as a variance is ([`variance_reading`], against its own terms'
    /// magnitudes): one negative beyond rounding is an error, not 0 — this
    /// sample cannot predict `other`'s spread yet.
    pub fn predict_variance(&self, other: &GusParams, dim: usize) -> Result<f64> {
        let plan = ReadoutPlan::between(&self.sampled, other)?;
        if other.a() <= 0.0 {
            return Err(CoreError::Degenerate("target GUS has a = 0".into()));
        }
        let (raw, scale) = plan
            .read(&self.sample.total, &self.sample.y_flat())?
            .entry(dim, dim)
            .ok_or_else(|| {
                CoreError::Degenerate(
                    "some b_S = 0 under the sampled design; variance prediction impossible".into(),
                )
            })?;
        variance_reading(raw, scale).ok_or_else(|| {
            CoreError::Degenerate(format!(
                "predicted variance {raw} is negative beyond rounding: not predictable from this \
                 sample"
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::GroupedMoments;

    /// Population: single relation, values 1..=N.
    fn population_moments(n_rows: u64) -> Moments {
        let mut acc = GroupedMoments::new(1, 1);
        for i in 1..=n_rows {
            acc.push_scalar(&[i], i as f64).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn exact_variance_matches_bernoulli_closed_form() {
        // Var[(1/p)Σ_{sampled} f] = ((1−p)/p)·Σ f².
        let p = 0.2;
        let pop = population_moments(100);
        let gus = GusParams::bernoulli("r", p).unwrap();
        let sum_sq: f64 = (1..=100u64).map(|i| (i * i) as f64).sum();
        let v = exact_variance(&gus, &pop, 0);
        let expect = (1.0 - p) / p * sum_sq;
        assert!((v - expect).abs() < 1e-6 * expect, "{v} vs {expect}");
    }

    #[test]
    fn exact_variance_matches_wor_closed_form() {
        // Var = (N−n)/(n(N−1)) · (N·y_1 − y_∅).
        let big_n = 50u64;
        let n = 10u64;
        let pop = population_moments(big_n);
        let gus = GusParams::wor("r", n, big_n).unwrap();
        let y1: f64 = (1..=big_n).map(|i| (i * i) as f64).sum();
        let y0: f64 = {
            let s: f64 = (1..=big_n).map(|i| i as f64).sum();
            s * s
        };
        let expect =
            (big_n - n) as f64 / (n as f64 * (big_n - 1) as f64) * (big_n as f64 * y1 - y0);
        let v = exact_variance(&gus, &pop, 0);
        assert!(
            (v - expect).abs() < 1e-6 * expect.abs().max(1.0),
            "{v} vs {expect}"
        );
    }

    #[test]
    fn identity_gus_gives_exact_answer_zero_variance() {
        let schema = LineageSchema::single("r");
        let gus = GusParams::identity(schema);
        let mut sbox = SBox::new(gus);
        for i in 1..=10u64 {
            sbox.push_scalar(&[i], i as f64).unwrap();
        }
        let rep = sbox.finish().unwrap();
        assert!((rep.estimate[0] - 55.0).abs() < 1e-9);
        assert!(rep.variance(0).unwrap().abs() < 1e-6);
        let ci = rep.ci_normal(0, 0.95).unwrap();
        assert!(ci.width() < 1e-3);
    }

    #[test]
    fn estimate_scales_by_inverse_a() {
        let gus = GusParams::bernoulli("r", 0.5).unwrap();
        let mut sbox = SBox::new(gus);
        sbox.push_scalar(&[1], 3.0).unwrap();
        sbox.push_scalar(&[2], 5.0).unwrap();
        let rep = sbox.finish().unwrap();
        assert!((rep.estimate[0] - 16.0).abs() < 1e-12); // (3+5)/0.5
        assert_eq!(rep.m, 2);
    }

    #[test]
    fn null_gus_cannot_estimate() {
        let gus = GusParams::null(LineageSchema::single("r"));
        let sbox = SBox::new(gus);
        assert!(matches!(sbox.finish(), Err(CoreError::Degenerate(_))));
    }

    #[test]
    fn wor_size_one_estimate_ok_variance_degenerate() {
        let gus = GusParams::wor("r", 1, 100).unwrap();
        let mut sbox = SBox::new(gus);
        sbox.push_scalar(&[42], 7.0).unwrap();
        let rep = sbox.finish().unwrap();
        assert!((rep.estimate[0] - 700.0).abs() < 1e-9);
        assert!(rep.covariance.is_none());
        assert!(rep.variance(0).is_err());
        assert!(rep.ci_normal(0, 0.95).is_err());
    }

    #[test]
    fn full_inclusion_predicts_from_the_population_moments() {
        // With a = 1 Bernoulli the sample is the population: a prediction
        // for Bernoulli(q) is the closed form ((1−q)/q)·y_r over it, and
        // for the identity it is 0 — what exact_variance says of both.
        let gus = GusParams::bernoulli("r", 1.0).unwrap();
        let mut sbox = SBox::new(gus);
        for i in 1..=5u64 {
            sbox.push_scalar(&[i], i as f64).unwrap();
        }
        let rep = sbox.finish().unwrap();
        let q = 0.2;
        let design = GusParams::bernoulli("r", q).unwrap();
        // y_r = 1+4+9+16+25 = 55.
        let want = (1.0 - q) / q * 55.0;
        let got = rep.predict_variance(&design, 0).unwrap();
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        let exact = exact_variance(&design, &population_moments(5), 0);
        assert!((exact - want).abs() < 1e-9, "{exact} vs {want}");
        let identity = GusParams::identity(rep.schema().clone());
        assert!(rep.predict_variance(&identity, 0).unwrap().abs() < 1e-9);
    }

    #[test]
    fn predict_variance_recovers_own_variance() {
        let gus = GusParams::bernoulli("r", 0.5).unwrap();
        let mut sbox = SBox::new(gus.clone());
        for i in 1..=50u64 {
            if i % 2 == 0 {
                sbox.push_scalar(&[i], i as f64).unwrap();
            }
        }
        let rep = sbox.finish().unwrap();
        let own = rep.variance(0).unwrap();
        let predicted = rep.predict_variance(&gus, 0).unwrap();
        assert!((own - predicted).abs() < 1e-9 * own.max(1.0));
    }

    #[test]
    fn predict_variance_schema_mismatch_rejected() {
        let gus = GusParams::bernoulli("r", 0.5).unwrap();
        let mut sbox = SBox::new(gus);
        sbox.push_scalar(&[1], 1.0).unwrap();
        let rep = sbox.finish().unwrap();
        let other = GusParams::bernoulli("s", 0.5).unwrap();
        assert!(rep.predict_variance(&other, 0).is_err());
    }

    #[test]
    fn lineage_arity_mismatch_rejected() {
        let gl = GusParams::bernoulli("l", 0.5).unwrap();
        let go = GusParams::bernoulli("o", 0.5).unwrap();
        let mut sbox = SBox::new(gl.join(&go).unwrap());
        assert!(sbox.push_scalar(&[1], 1.0).is_err());
        assert!(sbox.push_scalar(&[1, 2], 1.0).is_ok());
    }

    #[test]
    fn empty_sample_gives_zero_estimate() {
        let gus = GusParams::bernoulli("r", 0.5).unwrap();
        let rep = SBox::new(gus).finish().unwrap();
        assert_eq!(rep.estimate[0], 0.0);
        assert_eq!(rep.variance(0).unwrap(), 0.0);
        assert_eq!(rep.m, 0);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let gus = GusParams::bernoulli("r", 0.5).unwrap();
        let mut sbox = SBox::new(gus);
        for i in 1..=20u64 {
            sbox.push_scalar(&[i], 1.0).unwrap();
        }
        let rep = sbox.finish().unwrap();
        let q05 = rep.quantile(0, 0.05).unwrap();
        let q50 = rep.quantile(0, 0.50).unwrap();
        let q95 = rep.quantile(0, 0.95).unwrap();
        assert!(q05 < q50 && q50 < q95);
        // z(0.5) from the rational approximation is ~1e-9, not exactly 0.
        assert!((q50 - rep.estimate[0]).abs() < 1e-6 * (1.0 + rep.estimate[0].abs()));
    }
}
