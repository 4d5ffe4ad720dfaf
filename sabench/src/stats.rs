//! Order statistics for timing samples.

/// Median, quartiles and count of one sample: what every timing is
/// reported as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0..=1) with linear interpolation between order
/// statistics. Empty samples read as 0.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_of_sorted(&sorted(samples), q)
}

fn quantile_of_sorted(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    Summary {
        median: quantile_of_sorted(&v, 0.5),
        q1: quantile_of_sorted(&v, 0.25),
        q3: quantile_of_sorted(&v, 0.75),
        n: v.len(),
    }
}

/// The quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the rule the benchmark driver judges run-to-run spread by. Needs at
/// least two values.
pub fn python_quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median, by the driver's rule.
pub fn spread_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = python_quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(summarize(&v).n, 4);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(python_quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(python_quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(python_quartiles(&[1.0]), None);
        assert_eq!(spread_share(&v), Some(1.0));
    }
}
