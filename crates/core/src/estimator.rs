//! The **SBox** — the paper's statistical estimator component (Section 6).
//!
//! The SBox sits between the query plan and the aggregate. It consumes, for
//! every result tuple, its **lineage** (one id per base relation) and its
//! aggregate value(s), plus the parameters of the single top-level GUS
//! quasi-operator produced by the SOA rewriter. From these it computes:
//!
//! 1. the unbiased point estimate `X = (1/a) Σ f(t)` (Theorem 1),
//! 2. the sample statistics `Y_S` (grouped second moments),
//! 3. the unbiased moment estimates `Ŷ_S` via the Section 6.3 recursion,
//! 4. the variance estimate `σ̂² = Σ_S (c_S/a²)·Ŷ_S − Ŷ_∅`, and
//! 5. normal / Chebyshev confidence intervals and `QUANTILE` bounds.
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
use crate::relset::{LineageSchema, RelSet};
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
/// (e.g. the Section 7 sub-sampled estimator) can reuse them.
pub fn estimate_from_sample_moments(gus: &GusParams, sample: &Moments) -> Result<EstimateReport> {
    if sample.n != gus.n() {
        return Err(CoreError::DimensionMismatch {
            expected: gus.n(),
            got: sample.n,
        });
    }
    let a = gus.a();
    if a <= 0.0 {
        return Err(CoreError::Degenerate(
            "GUS a = 0: nothing can be estimated from a sampler that blocks everything".into(),
        ));
    }
    let estimate: Vec<f64> = sample.total.iter().map(|t| t / a).collect();
    let y_hat = unbiased_y_hats(gus, sample);
    let covariance = y_hat
        .as_ref()
        .ok()
        .map(|yh| covariance_from_y(gus, yh, sample.dims));
    Ok(EstimateReport {
        schema: gus.schema().clone(),
        gus: gus.clone(),
        estimate,
        covariance,
        y_hat: y_hat.ok(),
        dims: sample.dims,
        m: sample.count,
    })
}

/// The Section 6.3 recursion: unbiased `Ŷ_S` from sample `Y_S`.
///
/// Processes `S` in decreasing cardinality:
/// `Ŷ_S = (Y_S − Σ_{∅≠V⊆S^c} d_{S,V}·Ŷ_{S∪V}) / b_S`, starting from
/// `Ŷ_full = Y_full / a`. Fails with [`CoreError::Degenerate`] when some
/// `b_S = 0` (e.g. a WOR sample of size 1: a single draw carries no variance
/// information), in which case the point estimate is still available.
pub fn unbiased_y_hats(gus: &GusParams, sample: &Moments) -> Result<Vec<MomentMatrix>> {
    let n = gus.n();
    let size = 1usize << n;
    let mut order: Vec<usize> = (0..size).collect();
    order.sort_by_key(|s| std::cmp::Reverse(s.count_ones()));
    let mut y_hat: Vec<Option<MomentMatrix>> = vec![None; size];
    for s_idx in order {
        let s = RelSet::from_bits(s_idx as u32);
        let d = gus.d_coeffs_for(s);
        let b_s = d[RelSet::EMPTY.index()];
        if b_s <= 0.0 {
            return Err(CoreError::Degenerate(format!(
                "b_{} = 0: the pair probability needed to unbias Y is zero",
                gus.schema().display_set(s)
            )));
        }
        let mut acc = sample.y[s_idx].clone();
        for v in s.complement(n).subsets() {
            if v.is_empty() {
                continue;
            }
            let dv = d[v.index()];
            if dv != 0.0 {
                let superset = s.union(v).index();
                let yh = y_hat[superset]
                    .as_ref()
                    .expect("supersets are processed before subsets");
                acc.add_scaled(yh, -dv);
            }
        }
        acc.scale(1.0 / b_s);
        y_hat[s_idx] = Some(acc);
    }
    Ok(y_hat
        .into_iter()
        .map(|m| m.expect("all computed"))
        .collect())
}

/// Theorem 1 variance/covariance from moment matrices (exact if `y` are the
/// population moments, estimated if they are `Ŷ_S`):
/// `Cov[p,q] = Σ_S (c_S/a²)·y_S[p,q] − y_∅[p,q]`.
///
/// The `− y_∅` is folded into `y_∅`'s coefficient before anything is
/// multiplied: `y_∅ = (Σf)²` dwarfs the variance on any sizeable sample, and
/// adding it in only to take it out again would round the variance to
/// `y_∅`'s last place (for a Bernoulli design the coefficient `c_∅/a² − 1`
/// is exactly 0 and `y_∅` drops out, as it should).
pub fn covariance_from_y(gus: &GusParams, y: &[MomentMatrix], dims: usize) -> MomentMatrix {
    let c = gus.c_coeffs();
    let a2 = gus.a() * gus.a();
    let mut cov = MomentMatrix::zero(dims);
    for (s_idx, y_s) in y.iter().enumerate() {
        let own = if s_idx == RelSet::EMPTY.index() {
            1.0
        } else {
            0.0
        };
        cov.add_scaled(y_s, c[s_idx] / a2 - own);
    }
    cov
}

/// Exact (oracle) variance of dimension `dim` given **population** moments —
/// the right-hand side of Theorem 1 evaluated exactly. Used by tests and the
/// oracle baseline.
pub fn exact_variance(gus: &GusParams, population: &Moments, dim: usize) -> f64 {
    covariance_from_y(gus, &population.y, population.dims).get(dim, dim)
}

/// The SBox output: point estimates, estimated covariance, and the unbiased
/// `Ŷ_S` (exposed because Section 8's "choosing sampling parameters"
/// application plugs *other* schemes' coefficients into the same `Ŷ_S`).
#[derive(Debug, Clone)]
pub struct EstimateReport {
    schema: Arc<LineageSchema>,
    gus: GusParams,
    /// Unbiased point estimate per aggregate dimension.
    pub estimate: Vec<f64>,
    /// Estimated covariance matrix of the estimators, when estimable.
    pub covariance: Option<MomentMatrix>,
    /// Unbiased estimates `Ŷ_S` of the population `y_S`, when estimable.
    pub y_hat: Option<Vec<MomentMatrix>>,
    /// Aggregate dimension.
    pub dims: usize,
    /// Number of result tuples consumed.
    pub m: u64,
}

impl EstimateReport {
    /// Assemble a report from independently computed parts.
    ///
    /// Needed by the Section 7 sub-sampled estimator, where the *point
    /// estimate* comes from the full sample under the original GUS while the
    /// `Ŷ_S`/covariance come from a sub-sample under the compacted GUS.
    pub fn from_parts(
        gus: GusParams,
        estimate: Vec<f64>,
        covariance: Option<MomentMatrix>,
        y_hat: Option<Vec<MomentMatrix>>,
        dims: usize,
        m: u64,
    ) -> EstimateReport {
        EstimateReport {
            schema: gus.schema().clone(),
            gus,
            estimate,
            covariance,
            y_hat,
            dims,
            m,
        }
    }

    /// The lineage schema of the analysis.
    pub fn schema(&self) -> &Arc<LineageSchema> {
        &self.schema
    }

    /// The GUS the estimate was produced under.
    pub fn gus(&self) -> &GusParams {
        &self.gus
    }

    /// Estimated variance of dimension `dim`.
    ///
    /// Negative values (possible in small samples, since `σ̂²` is unbiased
    /// but not nonnegative) are clamped to 0 for interval construction; the
    /// raw value is available via [`EstimateReport::raw_variance`].
    pub fn variance(&self, dim: usize) -> Result<f64> {
        Ok(self.raw_variance(dim)?.max(0.0))
    }

    /// Unclamped variance estimate (can be slightly negative by chance).
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
    /// parameters": the unbiased `Ŷ_S` from one sampling instance are valid
    /// estimates of the population `y_S`, so any other scheme's coefficients
    /// can be plugged in.
    pub fn predict_variance(&self, other: &GusParams, dim: usize) -> Result<f64> {
        if other.schema() != &self.schema {
            return Err(CoreError::SchemaMismatch {
                left: self.schema.to_string(),
                right: other.schema().to_string(),
            });
        }
        let y_hat = self.y_hat.as_ref().ok_or_else(|| {
            CoreError::Degenerate("Ŷ_S unavailable; variance prediction impossible".into())
        })?;
        if other.a() <= 0.0 {
            return Err(CoreError::Degenerate("target GUS has a = 0".into()));
        }
        Ok(covariance_from_y(other, y_hat, self.dims)
            .get(dim, dim)
            .max(0.0))
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
    fn y_hat_unbiased_under_full_inclusion() {
        // With a = 1 Bernoulli, Ŷ_S must equal the (now fully observed) y_S.
        let gus = GusParams::bernoulli("r", 1.0).unwrap();
        let mut sbox = SBox::new(gus);
        for i in 1..=5u64 {
            sbox.push_scalar(&[i], i as f64).unwrap();
        }
        let rep = sbox.finish().unwrap();
        let yh = rep.y_hat.unwrap();
        // y_∅ = 15² = 225, y_{r} = 1+4+9+16+25 = 55.
        assert!((yh[0].get(0, 0) - 225.0).abs() < 1e-9);
        assert!((yh[1].get(0, 0) - 55.0).abs() < 1e-9);
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
