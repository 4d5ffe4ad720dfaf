//! Möbius/zeta transforms over the subset lattice.
//!
//! Theorem 1 needs `c_S = Σ_{T⊆S} (−1)^{|S\T|} b_T` (the Möbius transform of
//! the pair-probability table `b̄`), and the unbiased `Ŷ_S` recursion of
//! Section 6.3 needs `d_{S,V} = Σ_{W⊆V} (−1)^{|V\W|} b_{S∪W}` for every `S`
//! and `V ⊆ S^c`. Both are computed here.
//!
//! The in-place transforms run in `O(2ⁿ·n)`; a direct `O(4ⁿ)` evaluation is
//! kept (and differential-tested) as `moebius_transform_naive` because the
//! fast version is the one numeric kernel everything else trusts.

use crate::relset::RelSet;

/// Subset Möbius transform: `out[S] = Σ_{T⊆S} (−1)^{|S\T|} f[T]`.
///
/// `f.len()` must be a power of two (`2ⁿ`).
pub fn moebius_transform(f: &[f64]) -> Vec<f64> {
    let mut out = f.to_vec();
    let n = log2_len(f.len());
    for i in 0..n {
        let bit = 1usize << i;
        for s in 0..f.len() {
            if s & bit != 0 {
                out[s] -= out[s ^ bit];
            }
        }
    }
    out
}

/// Subset zeta transform (inverse of [`moebius_transform`]):
/// `out[S] = Σ_{T⊆S} f[T]`.
pub fn zeta_transform(f: &[f64]) -> Vec<f64> {
    let mut out = f.to_vec();
    let n = log2_len(f.len());
    for i in 0..n {
        let bit = 1usize << i;
        for s in 0..f.len() {
            if s & bit != 0 {
                out[s] += out[s ^ bit];
            }
        }
    }
    out
}

/// Direct `O(4ⁿ)` Möbius transform, for differential testing.
pub fn moebius_transform_naive(f: &[f64]) -> Vec<f64> {
    let n = log2_len(f.len());
    debug_assert!(n <= 32);
    (0..f.len())
        .map(|s| {
            let set = RelSet::from_bits(s as u32);
            let mut acc = 0.0;
            for t in set.subsets() {
                let sign = if (set.len() - t.len()).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                acc += sign * f[t.index()];
            }
            acc
        })
        .collect()
}

/// All `d_{S,V}` coefficients of the unbiased `Ŷ_S` recursion:
/// `d_{S,V} = Σ_{W⊆V} (−1)^{|V\W|} b_{S∪W}` for `V ⊆ S^c`.
///
/// Returns, for the given `S`, a dense table indexed by `V.index()` (entries
/// with `V ⊄ S^c` are zero). `E[Y_S] = Σ_{V⊆S^c} d_{S,V} · y_{S∪V}`.
pub fn d_coeffs_for(b: &[f64], s: RelSet, n: usize) -> Vec<f64> {
    let size = 1usize << n;
    debug_assert_eq!(b.len(), size);
    let comp = s.complement(n);
    let mut d = vec![0.0; size];
    for v in comp.subsets() {
        let mut acc = 0.0;
        for w in v.subsets() {
            let sign = if (v.len() - w.len()).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            acc += sign * b[s.union(w).index()];
        }
        d[v.index()] = acc;
    }
    d
}

fn log2_len(len: usize) -> usize {
    assert!(len.is_power_of_two(), "table length {len} not a power of 2");
    len.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-12, "{x} != {y}");
        }
    }

    #[test]
    fn moebius_matches_naive() {
        // 3 relations, arbitrary values.
        let b: Vec<f64> = (0..8)
            .map(|i| (i as f64 * 0.37 + 0.11).sin().abs())
            .collect();
        close(&moebius_transform(&b), &moebius_transform_naive(&b));
    }

    #[test]
    fn moebius_zeta_roundtrip() {
        let b: Vec<f64> = (0..16).map(|i| (i as f64).cos()).collect();
        close(&zeta_transform(&moebius_transform(&b)), &b);
        close(&moebius_transform(&zeta_transform(&b)), &b);
    }

    #[test]
    fn bernoulli_c_coefficients() {
        // n=1 Bernoulli(p): b = [p², p]; c_∅ = p², c_{1} = p − p².
        let p = 0.1;
        let c = moebius_transform(&[p * p, p]);
        assert!((c[0] - p * p).abs() < 1e-15);
        assert!((c[1] - (p - p * p)).abs() < 1e-15);
    }

    #[test]
    fn c_sums_telescope_to_b_full() {
        // Σ_S c_S = b_full (zeta at the full set).
        let b: Vec<f64> = (0..8).map(|i| 0.1 + 0.05 * i as f64).collect();
        let c = moebius_transform(&b);
        let total: f64 = c.iter().sum();
        assert!((total - b[7]).abs() < 1e-12);
    }

    #[test]
    fn d_empty_v_is_b_s() {
        let b: Vec<f64> = (0..8).map(|i| (i as f64 + 1.0) * 0.05).collect();
        for s_bits in 0..8u32 {
            let s = RelSet::from_bits(s_bits);
            let d = d_coeffs_for(&b, s, 3);
            assert!((d[0] - b[s.index()]).abs() < 1e-15);
        }
    }

    #[test]
    fn d_full_s_has_only_empty_v() {
        let b: Vec<f64> = (0..4).map(|i| (i as f64 + 1.0) * 0.1).collect();
        let s = RelSet::full(2);
        let d = d_coeffs_for(&b, s, 2);
        assert!((d[0] - b[3]).abs() < 1e-15);
        // All other entries must be zero (V must be ⊆ S^c = ∅).
        assert_eq!(&d[1..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn d_matches_hand_computation_single_rel() {
        // n=1, S=∅: d_{∅,∅} = b_∅, d_{∅,{1}} = b_{1} − b_∅.
        let p = 0.3;
        let b = vec![p * p, p];
        let d = d_coeffs_for(&b, RelSet::EMPTY, 1);
        assert!((d[0] - p * p).abs() < 1e-15);
        assert!((d[1] - (p - p * p)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "not a power of 2")]
    fn non_power_of_two_rejected() {
        moebius_transform(&[1.0, 2.0, 3.0]);
    }
}
