//! Delta-method estimation for non-linear combinations of SUM-like
//! aggregates — the extension sketched in Section 9 of the paper
//! ("Average and non-linear combinations of SUM-like aggregates").
//!
//! `AVG(e) = SUM(e) / SUM(1)` is a ratio of two *correlated* GUS estimators.
//! The SBox already produces the joint covariance matrix of any vector of
//! SUM estimates (the bilinear extension of Theorem 1), so a first-order
//! Taylor expansion gives
//!
//! ```text
//! Var(N/D) ≈ (Var_N − 2R·Cov(N,D) + R²·Var_D) / μ_D²   with R = μ_N/μ_D.
//! ```

use crate::error::CoreError;
use crate::Result;

/// A delta-method estimate: point value and approximate variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaEstimate {
    /// The plug-in point estimate `g(X̂)`.
    pub value: f64,
    /// First-order variance approximation `∇gᵀ Σ ∇g`, unclamped: like the
    /// `σ̂²` it is formed from, it can be negative by chance.
    pub variance: f64,
}

impl DeltaEstimate {
    /// Standard error.
    pub fn std_error(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Two-sided normal interval for the transformed quantity.
    pub fn ci_normal(&self, level: f64) -> Result<crate::ci::ConfidenceInterval> {
        crate::ci::normal_ci(self.value, self.variance, level)
    }
}

/// Ratio estimator `μ_N / μ_D` with delta-method variance, from the two
/// estimates `(μ_N, μ_D)` and their covariance entries
/// `[Var_N, Cov(N,D), Var_D]`. This is `AVG` when `N` accumulates `f` and
/// `D` accumulates the constant 1 (or the non-null indicator).
pub fn ratio_of(
    (mu_n, mu_d): (f64, f64),
    [var_n, cov_nd, var_d]: [f64; 3],
) -> Result<DeltaEstimate> {
    if mu_d == 0.0 {
        return Err(CoreError::Degenerate(
            "denominator estimate is zero; ratio undefined".into(),
        ));
    }
    let r = mu_n / mu_d;
    Ok(DeltaEstimate {
        value: r,
        variance: (var_n - 2.0 * r * cov_nd + r * r * var_d) / (mu_d * mu_d),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EstimateReport, SBox};
    use crate::params::GusParams;

    /// Build a 2-dim report: dim 0 accumulates f, dim 1 accumulates 1
    /// (COUNT), under Bernoulli(p) with a deterministic "sample".
    fn avg_report(p: f64, values: &[f64]) -> EstimateReport {
        let gus = GusParams::bernoulli("r", p).unwrap();
        let mut sbox = SBox::with_dims(gus, 2);
        for (i, &v) in values.iter().enumerate() {
            sbox.push(&[i as u64], &[v, 1.0]).unwrap();
        }
        sbox.finish().unwrap()
    }

    /// `AVG` off a report built by [`avg_report`].
    fn ratio(rep: &EstimateReport) -> Result<DeltaEstimate> {
        let cov = rep.covariance.as_ref().unwrap();
        ratio_of(
            (rep.estimate[0], rep.estimate[1]),
            [cov.get(0, 0), cov.get(0, 1), cov.get(1, 1)],
        )
    }

    #[test]
    fn ratio_point_estimate_is_sample_mean() {
        // AVG via ratio of scaled sums: the 1/a factors cancel, so the point
        // estimate is exactly the sample mean.
        let rep = avg_report(0.5, &[2.0, 4.0, 9.0]);
        let est = ratio(&rep).unwrap();
        assert!((est.value - 5.0).abs() < 1e-12);
        assert!(est.variance >= 0.0);
    }

    #[test]
    fn ratio_with_constant_values_has_tiny_variance() {
        // If every tuple carries the same f, AVG is deterministic: the
        // delta-method variance collapses (numerator and denominator are
        // perfectly correlated).
        let rep = avg_report(0.5, &[3.0; 40]);
        let est = ratio(&rep).unwrap();
        assert!((est.value - 3.0).abs() < 1e-12);
        assert!(
            est.variance.abs() < 1e-6 * 9.0,
            "variance = {}",
            est.variance
        );
    }

    #[test]
    fn ratio_ci_contains_point() {
        let rep = avg_report(0.3, &[1.0, 2.0, 3.0, 10.0]);
        let est = ratio(&rep).unwrap();
        let ci = est.ci_normal(0.95).unwrap();
        assert!(ci.contains(est.value));
        assert!((est.std_error() * est.std_error() - est.variance).abs() < 1e-12);
    }

    #[test]
    fn ratio_variance_is_not_clamped() {
        // A covariance estimate need not be positive semidefinite: the
        // delta variance it gives can be negative, and is reported as is.
        let est = ratio_of((1.0, 1.0), [1.0, 5.0, 1.0]).unwrap();
        assert_eq!(est.variance, -8.0);
    }

    #[test]
    fn zero_denominator_rejected() {
        let gus = GusParams::bernoulli("r", 0.5).unwrap();
        let rep = SBox::with_dims(gus, 2).finish().unwrap();
        assert!(ratio(&rep).is_err());
    }

    #[test]
    fn ratio_matches_smooth_function_formulation() {
        let rep = avg_report(0.4, &[2.0, 6.0, 7.0, 9.0]);
        let r = ratio(&rep).unwrap();
        let mu_n = rep.estimate[0];
        let mu_d = rep.estimate[1];
        // The delta method for g(n, d) = n/d: ∇g = (1/d, −n/d²) and
        // Var ≈ ∇gᵀ Σ ∇g.
        let grad = [1.0 / mu_d, -mu_n / (mu_d * mu_d)];
        let cov = rep.covariance.as_ref().unwrap();
        let var: f64 = (0..2)
            .flat_map(|p| (0..2).map(move |q| (p, q)))
            .map(|(p, q)| grad[p] * grad[q] * cov.get(p, q))
            .sum();
        assert!((r.value - mu_n / mu_d).abs() < 1e-12);
        assert!((r.variance - var).abs() < 1e-9 * (1.0 + r.variance));
    }
}
