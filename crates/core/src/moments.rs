//! Grouped second-moment accumulation: the `y_S` / `Y_S` terms.
//!
//! Theorem 1's variance is a linear combination of the data-dependent terms
//!
//! ```text
//! y_S = Σ_{t_S} ( Σ_{t_{S^c}} f(t) )²
//! ```
//!
//! — group the result tuples by their lineage restricted to `S`, sum `f`
//! within each group, square, and add up. Evaluated over the *population*
//! this gives the exact `y_S`; evaluated over the *sample* it gives the `Y_S`
//! statistics that Section 6.3 turns into unbiased estimates `Ŷ_S`.
//!
//! The accumulator generalizes `f` to a small vector (dimension `k`), so the
//! same pass produces the cross-moment matrices
//! `y_S[p][q] = Σ_groups (ΣF_p)(ΣF_q)` needed for covariances (and hence for
//! the delta-method AVG of Section 9).
//!
//! Grouping keys are 128-bit lineage fingerprints (see
//! [`crate::hash::fingerprint128`]): component hashes are salted by relation
//! index and combined with wrapping addition, so a key never allocates and
//! collisions are vanishingly unlikely (≈ m²/2¹²⁹).

use crate::error::CoreError;
use crate::hash::{fingerprint128, rel_salts, subset_key, FxHashMap};
use crate::relset::RelSet;
use crate::Result;

/// A small dense symmetric `k×k` matrix of cross moments.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentMatrix {
    k: usize,
    data: Vec<f64>,
}

impl MomentMatrix {
    /// The zero matrix of dimension `k`.
    pub fn zero(k: usize) -> MomentMatrix {
        MomentMatrix {
            k,
            data: vec![0.0; k * k],
        }
    }

    /// The `k×k` matrix whose entry `(p, q)` is `entry(p, q)`.
    pub(crate) fn from_fn(k: usize, mut entry: impl FnMut(usize, usize) -> f64) -> MomentMatrix {
        MomentMatrix {
            k,
            data: (0..k * k).map(|i| entry(i / k, i % k)).collect(),
        }
    }

    /// Dimension `k`.
    pub fn dim(&self) -> usize {
        self.k
    }

    /// Entry `(p, q)`.
    pub fn get(&self, p: usize, q: usize) -> f64 {
        self.data[p * self.k + q]
    }

    /// Add the outer product `v·vᵀ`.
    pub fn add_outer(&mut self, v: &[f64]) {
        debug_assert_eq!(v.len(), self.k);
        add_outer_scaled(&mut self.data, v, 1.0);
    }

    /// `self += scale · other`.
    pub fn add_scaled(&mut self, other: &MomentMatrix, scale: f64) {
        debug_assert_eq!(self.k, other.k);
        for (d, o) in self.data.iter_mut().zip(other.data.iter()) {
            *d += scale * o;
        }
    }

    /// `self *= scale`.
    pub fn scale(&mut self, scale: f64) {
        for d in &mut self.data {
            *d *= scale;
        }
    }
}

/// `y += scale · v·vᵀ` over one row-major `k×k` block, `k = v.len()` (with
/// `scale = -1` this retracts a previously added outer product — the delta
/// update the incremental accumulator uses).
pub(crate) fn add_outer_scaled(y: &mut [f64], v: &[f64], scale: f64) {
    let k = v.len();
    debug_assert_eq!(y.len(), k * k);
    for p in 0..k {
        for q in 0..k {
            y[p * k + q] += scale * v[p] * v[q];
        }
    }
}

/// `y += Σ_r f_r·f_rᵀ` over the rows of a column-major chunk (`cols` holds
/// one equal-length value column per dimension): every row's outer product
/// at once, as `k(k+1)/2` column dot products.
pub(crate) fn add_gram(y: &mut [f64], cols: &[&[f64]]) {
    let k = cols.len();
    debug_assert_eq!(y.len(), k * k);
    for p in 0..k {
        for q in p..k {
            let d = dot(cols[p], cols[q]);
            y[p * k + q] += d;
            if p != q {
                y[q * k + p] += d;
            }
        }
    }
}

/// `Σ a[r]·b[r]`, summed in four independent lanes so the loop vectorizes
/// (a single running sum is one add latency per row).
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = a4
        .remainder()
        .iter()
        .zip(b4.remainder())
        .map(|(x, y)| x * y)
        .sum();
    let mut lanes = [0.0f64; 4];
    for (x, y) in a4.zip(b4) {
        for (lane, (x, y)) in lanes.iter_mut().zip(x.iter().zip(y)) {
            *lane += x * y;
        }
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// One-pass accumulator of the `2ⁿ` grouped second moments of a result set:
/// per-group `ΣF` vectors, squared once in [`GroupedMoments::finish`]. This
/// is the definition of `y_S` transcribed — the **reference** the
/// incremental [`crate::MomentAccumulator`] is tested against; no estimator
/// runs on it.
#[derive(Debug)]
pub struct GroupedMoments {
    n: usize,
    dims: usize,
    salts: Vec<u64>,
    /// For each nonempty `S` (indexed by `S.index()`): fingerprint → ΣF
    /// vector. `S = ∅` is tracked by `total` alone (a single group).
    groups: Vec<FxHashMap<u128, Vec<f64>>>,
    total: Vec<f64>,
    count: u64,
}

impl GroupedMoments {
    /// An accumulator over `n` base relations and `dims` aggregate
    /// dimensions.
    pub fn new(n: usize, dims: usize) -> GroupedMoments {
        assert!(dims >= 1, "at least one aggregate dimension required");
        GroupedMoments {
            n,
            dims,
            salts: rel_salts(n),
            groups: (0..1usize << n).map(|_| FxHashMap::default()).collect(),
            total: vec![0.0; dims],
            count: 0,
        }
    }

    /// Number of base relations.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Aggregate dimension `k`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of rows consumed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Consume one result tuple: its per-base-relation lineage ids and its
    /// aggregate vector.
    pub fn push(&mut self, lineage: &[u64], f: &[f64]) -> Result<()> {
        if lineage.len() != self.n {
            return Err(CoreError::DimensionMismatch {
                expected: self.n,
                got: lineage.len(),
            });
        }
        if f.len() != self.dims {
            return Err(CoreError::DimensionMismatch {
                expected: self.dims,
                got: f.len(),
            });
        }
        self.count += 1;
        for (t, v) in self.total.iter_mut().zip(f) {
            *t += v;
        }
        // Per-relation fingerprints once, then combine per subset.
        let mut fp = [0u128; crate::relset::MAX_RELS];
        for i in 0..self.n {
            fp[i] = fingerprint128(self.salts[i], lineage[i]);
        }
        for s_idx in 1..1usize << self.n {
            let key = subset_key(&fp, RelSet::from_bits(s_idx as u32));
            let entry = self.groups[s_idx]
                .entry(key)
                .or_insert_with(|| vec![0.0; self.dims]);
            for (e, v) in entry.iter_mut().zip(f) {
                *e += v;
            }
        }
        Ok(())
    }

    /// Scalar convenience for `dims == 1`.
    pub fn push_scalar(&mut self, lineage: &[u64], f: f64) -> Result<()> {
        self.push(lineage, &[f])
    }

    /// Finish: produce the `y_S` cross-moment matrices and the totals.
    pub fn finish(self) -> Moments {
        let mut y = Vec::with_capacity(1usize << self.n);
        // S = ∅: one group containing everything.
        let mut m0 = MomentMatrix::zero(self.dims);
        m0.add_outer(&self.total);
        y.push(m0);
        for s_idx in 1..1usize << self.n {
            let mut m = MomentMatrix::zero(self.dims);
            for sums in self.groups[s_idx].values() {
                m.add_outer(sums);
            }
            y.push(m);
        }
        Moments {
            n: self.n,
            dims: self.dims,
            y,
            total: self.total,
            count: self.count,
        }
    }
}

/// The finished grouped moments of a result set: `y[S]` for every `S`,
/// plus the plain totals `ΣF` and the row count.
#[derive(Debug, Clone)]
pub struct Moments {
    /// Number of base relations.
    pub n: usize,
    /// Aggregate dimension.
    pub dims: usize,
    /// `y[S.index()]` — cross-moment matrix for grouping set `S`.
    pub y: Vec<MomentMatrix>,
    /// `ΣF` per dimension.
    pub total: Vec<f64>,
    /// Number of rows consumed.
    pub count: u64,
}

impl Moments {
    /// Scalar `y_S` for dimension 0 (the common single-aggregate case).
    pub fn y_scalar(&self, s: RelSet) -> f64 {
        self.y[s.index()].get(0, 0)
    }

    /// `y` laid end to end — the row-major `Y_S` blocks by `S.index()` — as
    /// an accumulator slot keeps them and a [`crate::ReadoutPlan`] reads
    /// them.
    pub fn y_flat(&self) -> Vec<f64> {
        self.y.iter().flat_map(|m| m.data.iter().copied()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic result set over 2 relations.
    ///
    /// rows: (l-id, o-id, f)
    fn sample_rows() -> Vec<([u64; 2], f64)> {
        vec![
            ([1, 10], 2.0),
            ([2, 10], 3.0),
            ([3, 20], 5.0),
            ([1, 20], 7.0),
        ]
    }

    fn acc_rows() -> Moments {
        let mut acc = GroupedMoments::new(2, 1);
        for (lin, f) in sample_rows() {
            acc.push_scalar(&lin, f).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn y_empty_is_square_of_total() {
        let m = acc_rows();
        let total = 2.0 + 3.0 + 5.0 + 7.0;
        assert!((m.y_scalar(RelSet::EMPTY) - total * total).abs() < 1e-12);
        assert_eq!(m.count, 4);
        assert!((m.total[0] - total).abs() < 1e-12);
    }

    #[test]
    fn y_by_first_relation_groups_on_l() {
        let m = acc_rows();
        // groups by l: {1: 2+7=9}, {2: 3}, {3: 5} → 81 + 9 + 25 = 115
        assert!((m.y_scalar(RelSet::singleton(0)) - 115.0).abs() < 1e-12);
    }

    #[test]
    fn y_by_second_relation_groups_on_o() {
        let m = acc_rows();
        // groups by o: {10: 5}, {20: 12} → 25 + 144 = 169
        assert!((m.y_scalar(RelSet::singleton(1)) - 169.0).abs() < 1e-12);
    }

    #[test]
    fn y_full_is_sum_of_squares_for_distinct_lineage() {
        let m = acc_rows();
        // all four rows have distinct (l,o) lineage
        let expect = 4.0 + 9.0 + 25.0 + 49.0;
        assert!((m.y_scalar(RelSet::full(2)) - expect).abs() < 1e-12);
    }

    #[test]
    fn duplicate_full_lineage_rows_group_together() {
        // The accumulator must group, not assume distinctness.
        let mut acc = GroupedMoments::new(1, 1);
        acc.push_scalar(&[7], 1.0).unwrap();
        acc.push_scalar(&[7], 2.0).unwrap();
        let m = acc.finish();
        assert!((m.y_scalar(RelSet::singleton(0)) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn cross_moments_are_products_of_group_sums() {
        let mut acc = GroupedMoments::new(1, 2);
        acc.push(&[1], &[1.0, 10.0]).unwrap();
        acc.push(&[1], &[2.0, 20.0]).unwrap();
        acc.push(&[2], &[4.0, 40.0]).unwrap();
        let m = acc.finish();
        let y1 = &m.y[RelSet::singleton(0).index()];
        // groups: {1: (3,30)}, {2: (4,40)}
        assert!((y1.get(0, 0) - (9.0 + 16.0)).abs() < 1e-12);
        assert!((y1.get(0, 1) - (90.0 + 160.0)).abs() < 1e-12);
        assert!((y1.get(1, 1) - (900.0 + 1600.0)).abs() < 1e-12);
        assert!((y1.get(0, 1) - y1.get(1, 0)).abs() < 1e-12); // symmetric
    }

    #[test]
    fn arity_checks() {
        let mut acc = GroupedMoments::new(2, 1);
        assert!(acc.push_scalar(&[1], 1.0).is_err());
        assert!(acc.push(&[1, 2], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn empty_input_gives_zero_moments() {
        let m = GroupedMoments::new(2, 1).finish();
        for s in 0..4u32 {
            assert_eq!(m.y_scalar(RelSet::from_bits(s)), 0.0);
        }
        assert_eq!(m.count, 0);
    }

    #[test]
    fn matrix_ops() {
        let mut m = MomentMatrix::zero(2);
        m.add_outer(&[1.0, 2.0]);
        let mut n = MomentMatrix::zero(2);
        n.add_outer(&[3.0, 4.0]);
        m.add_scaled(&n, 0.5);
        assert!((m.get(0, 0) - (1.0 + 4.5)).abs() < 1e-12);
        m.scale(2.0);
        assert!((m.get(1, 1) - 2.0 * (4.0 + 8.0)).abs() < 1e-12);
        assert_eq!(m.dim(), 2);
    }
}
