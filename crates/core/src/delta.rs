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
//!
//! A general smooth function `g` of the estimate vector is supported through
//! a caller-supplied gradient.

use crate::error::CoreError;
use crate::estimator::EstimateReport;
use crate::Result;

/// A delta-method estimate: point value and approximate variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaEstimate {
    /// The plug-in point estimate `g(X̂)`.
    pub value: f64,
    /// First-order variance approximation `∇gᵀ Σ ∇g` (clamped at 0).
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
    let var = (var_n - 2.0 * r * cov_nd + r * r * var_d) / (mu_d * mu_d);
    Ok(DeltaEstimate {
        value: r,
        variance: var.max(0.0),
    })
}

/// General delta method: `g(X̂)` with variance `∇gᵀ Σ ∇g`, where `grad` is
/// the gradient of `g` evaluated at the estimate vector.
pub fn smooth_function(report: &EstimateReport, value: f64, grad: &[f64]) -> Result<DeltaEstimate> {
    let cov = report.covariance.as_ref().ok_or_else(|| {
        CoreError::Degenerate("covariance unavailable: delta variance cannot be formed".into())
    })?;
    if grad.len() != report.dims {
        return Err(CoreError::DimensionMismatch {
            expected: report.dims,
            got: grad.len(),
        });
    }
    let mut var = 0.0;
    for (p, gp) in grad.iter().enumerate() {
        for (q, gq) in grad.iter().enumerate() {
            var += gp * gq * cov.get(p, q);
        }
    }
    Ok(DeltaEstimate {
        value,
        variance: var.max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::SBox;
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
    fn zero_denominator_rejected() {
        let gus = GusParams::bernoulli("r", 0.5).unwrap();
        let rep = SBox::with_dims(gus, 2).finish().unwrap();
        assert!(ratio(&rep).is_err());
    }

    #[test]
    fn smooth_function_linear_matches_direct_variance() {
        // g(x) = x₀ with gradient (1, 0) must reproduce Var(X₀).
        let rep = avg_report(0.5, &[1.0, 5.0, 7.0]);
        let est = smooth_function(&rep, rep.estimate[0], &[1.0, 0.0]).unwrap();
        assert!((est.variance - rep.variance(0).unwrap()).abs() < 1e-9);
        assert!((est.value - rep.estimate[0]).abs() < 1e-12);
    }

    #[test]
    fn smooth_function_gradient_arity_checked() {
        let rep = avg_report(0.5, &[1.0]);
        assert!(smooth_function(&rep, 0.0, &[1.0]).is_err());
    }

    #[test]
    fn ratio_matches_smooth_function_formulation() {
        let rep = avg_report(0.4, &[2.0, 6.0, 7.0, 9.0]);
        let r = ratio(&rep).unwrap();
        let mu_n = rep.estimate[0];
        let mu_d = rep.estimate[1];
        // ∇(n/d) = (1/d, −n/d²)
        let grad = [1.0 / mu_d, -mu_n / (mu_d * mu_d)];
        let s = smooth_function(&rep, mu_n / mu_d, &grad).unwrap();
        assert!((r.value - s.value).abs() < 1e-12);
        assert!((r.variance - s.variance).abs() < 1e-9 * (1.0 + r.variance));
    }
}
