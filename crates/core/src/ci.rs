//! Confidence intervals (Section 6.4 of the paper).
//!
//! Two flavours, exactly as the paper offers:
//! * **optimistic** normal intervals — `μ̂ ± z_{(1+γ)/2}·σ̂` (for γ = 0.95
//!   this is the paper's `μ̂ ± 1.96σ̂`), justified by the near-normality of
//!   sums of many loosely-interacting parts, and
//! * **pessimistic** Chebyshev intervals — `μ̂ ± σ̂/√(1−γ)` (for γ = 0.95,
//!   `μ̂ ± 4.47σ̂`), valid for *any* distribution.
//!
//! Plus one-sided quantile bounds for the paper's `QUANTILE(SUM(…), q)` view
//! syntax: `μ̂ + Φ⁻¹(q)·σ̂`.

use std::fmt;

use crate::error::CoreError;
use crate::normal::inv_normal_cdf;
use crate::Result;

/// Which bound family produced an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CiMethod {
    /// Normal-approximation (optimistic) bounds.
    Normal,
    /// Chebyshev (pessimistic, distribution-free) bounds.
    Chebyshev,
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
    /// Coverage level γ ∈ (0,1), e.g. 0.95.
    pub level: f64,
    /// Bound family.
    pub method: CiMethod,
}

impl ConfidenceInterval {
    /// Interval width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// True iff `x` lies inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Half-width relative to the centre, as a dimensionless error measure.
    pub fn relative_half_width(&self) -> f64 {
        let centre = (self.lo + self.hi) / 2.0;
        if centre == 0.0 {
            f64::INFINITY
        } else {
            (self.width() / 2.0) / centre.abs()
        }
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = match self.method {
            CiMethod::Normal => "normal",
            CiMethod::Chebyshev => "chebyshev",
        };
        write!(
            f,
            "[{:.6}, {:.6}] ({:.0}% {m})",
            self.lo,
            self.hi,
            self.level * 100.0
        )
    }
}

/// `√variance`, or a typed refusal of a variance no interval can be built
/// on.
fn std_dev(variance: f64) -> Result<f64> {
    if !variance.is_finite() || variance < 0.0 {
        return Err(CoreError::Degenerate(format!(
            "variance {variance} is not a finite non-negative number"
        )));
    }
    Ok(variance.sqrt())
}

/// The multipliers of one coverage level — `z = Φ⁻¹((1+γ)/2)` and the
/// Chebyshev `k = 1/√(1−γ)` — settled once and applied to any number of
/// `(mean, variance)` pairs: a grouped tick reads thousands of slots at one
/// level, and `Φ⁻¹` is the expensive part of an interval.
#[derive(Debug, Clone, Copy)]
pub struct CiLevel {
    level: f64,
    z: f64,
    k: f64,
}

impl CiLevel {
    /// The multipliers of coverage `level` ∈ (0,1).
    pub fn new(level: f64) -> Result<CiLevel> {
        if !(0.0 < level && level < 1.0) {
            return Err(CoreError::InvalidParam(format!(
                "confidence level {level} must be in (0,1)"
            )));
        }
        Ok(CiLevel {
            level,
            z: inv_normal_cdf((1.0 + level) / 2.0),
            k: 1.0 / (1.0 - level).sqrt(),
        })
    }

    /// The coverage level γ.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Two-sided normal interval `mean ± z·σ`.
    pub fn normal(&self, mean: f64, variance: f64) -> Result<ConfidenceInterval> {
        self.interval(mean, variance, self.z, CiMethod::Normal)
    }

    /// Two-sided Chebyshev interval `mean ± k·σ`:
    /// `P(|X−μ| ≥ kσ) ≤ 1/k²`, so `k = 1/√(1−level)`.
    pub fn chebyshev(&self, mean: f64, variance: f64) -> Result<ConfidenceInterval> {
        self.interval(mean, variance, self.k, CiMethod::Chebyshev)
    }

    fn interval(
        &self,
        mean: f64,
        variance: f64,
        width: f64,
        method: CiMethod,
    ) -> Result<ConfidenceInterval> {
        let sd = std_dev(variance)?;
        Ok(ConfidenceInterval {
            lo: mean - width * sd,
            hi: mean + width * sd,
            level: self.level,
            method,
        })
    }
}

/// Two-sided normal interval at coverage `level`.
pub fn normal_ci(mean: f64, variance: f64, level: f64) -> Result<ConfidenceInterval> {
    CiLevel::new(level)?.normal(mean, variance)
}

/// Two-sided Chebyshev interval at coverage `level`.
pub fn chebyshev_ci(mean: f64, variance: f64, level: f64) -> Result<ConfidenceInterval> {
    CiLevel::new(level)?.chebyshev(mean, variance)
}

/// One-sided quantile bound: the value `v` with `P(true answer ≤ v) ≈ q`
/// under the normal approximation — the paper's `QUANTILE(SUM(…), q)`.
pub fn quantile_bound(mean: f64, variance: f64, q: f64) -> Result<f64> {
    Ok(mean + inv_normal_cdf(q) * std_dev(variance)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_95_uses_1_96() {
        let ci = normal_ci(100.0, 4.0, 0.95).unwrap();
        // σ = 2 → half-width ≈ 3.92
        assert!((ci.lo - (100.0 - 3.9199)).abs() < 1e-3);
        assert!((ci.hi - (100.0 + 3.9199)).abs() < 1e-3);
        assert!(ci.contains(100.0));
        assert!(!ci.contains(110.0));
    }

    #[test]
    fn chebyshev_95_uses_4_47() {
        // The paper's Section 6.4 constant: 4.47σ̂ at 95%.
        let ci = chebyshev_ci(0.0, 1.0, 0.95).unwrap();
        assert!((ci.hi - 4.4721).abs() < 1e-3, "hi = {}", ci.hi);
        assert!((ci.lo + 4.4721).abs() < 1e-3);
    }

    #[test]
    fn chebyshev_wider_than_normal() {
        let n = normal_ci(5.0, 2.0, 0.95).unwrap();
        let c = chebyshev_ci(5.0, 2.0, 0.95).unwrap();
        assert!(c.width() > n.width());
        // "at the expense of a factor of 2 in width" (paper): 4.47/1.96 ≈ 2.28
        assert!((c.width() / n.width() - 4.4721 / 1.95996).abs() < 1e-3);
    }

    #[test]
    fn quantile_bounds_match_view_semantics() {
        // The intro's APPROX view: lo at q=0.05, hi at q=0.95.
        let lo = quantile_bound(100.0, 4.0, 0.05).unwrap();
        let hi = quantile_bound(100.0, 4.0, 0.95).unwrap();
        assert!(lo < 100.0 && hi > 100.0);
        assert!((hi - (100.0 + 1.6449 * 2.0)).abs() < 1e-3);
        assert!((lo + hi - 200.0).abs() < 1e-9); // symmetric around the mean
    }

    #[test]
    fn zero_variance_degenerates_to_point() {
        let ci = normal_ci(7.0, 0.0, 0.95).unwrap();
        assert_eq!(ci.lo, 7.0);
        assert_eq!(ci.hi, 7.0);
        assert_eq!(ci.width(), 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(normal_ci(0.0, -1.0, 0.95).is_err());
        assert!(normal_ci(0.0, f64::NAN, 0.95).is_err());
        assert!(normal_ci(0.0, 1.0, 0.0).is_err());
        assert!(normal_ci(0.0, 1.0, 1.0).is_err());
        assert!(chebyshev_ci(0.0, 1.0, 1.5).is_err());
    }

    #[test]
    fn relative_half_width() {
        let ci = normal_ci(100.0, 4.0, 0.95).unwrap();
        assert!((ci.relative_half_width() - 0.0392).abs() < 1e-3);
        let ci0 = normal_ci(0.0, 4.0, 0.95).unwrap();
        assert!(ci0.relative_half_width().is_infinite());
    }

    #[test]
    fn display_mentions_method_and_level() {
        let ci = chebyshev_ci(1.0, 1.0, 0.9).unwrap();
        let s = ci.to_string();
        assert!(s.contains("90%"));
        assert!(s.contains("chebyshev"));
    }
}
