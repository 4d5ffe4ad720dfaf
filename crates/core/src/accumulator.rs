//! Incremental, merge-able moment accumulation — the one moment path every
//! estimator (the [`crate::SBox`], batch and online queries) runs on.
//!
//! The textbook way to get `y_S` stores per-group `ΣF` vectors and squares
//! them once at the end ([`crate::moments::GroupedMoments`], kept as the
//! reference the tests compare against). That cannot answer "what is the
//! estimate *right now*?" without an `O(#groups)` pass.
//!
//! [`MomentAccumulator`] trades a small constant per push for an **O(1)
//! readout in the number of consumed rows**: the `y_S` cross-moment matrices
//! are maintained incrementally. When a tuple with aggregate vector `f`
//! lands in a group whose running sum is `g`, the group's contribution to
//! `y_S` changes from `g·gᵀ` to `(g+f)(g+f)ᵀ`, so
//!
//! ```text
//! y_S += (g+f)(g+f)ᵀ − g·gᵀ
//! ```
//!
//! — a rank-two delta per subset `S`. [`MomentAccumulator::snapshot`] then
//! just clones the `2ⁿ` small matrices (no pass over groups or rows), which
//! makes estimate, variance and confidence intervals readable after *every*
//! chunk of an online aggregation loop.
//!
//! Accumulators over the same lineage schema are **merge-able**
//! ([`MomentAccumulator::merge`]): shards can consume disjoint chunk ranges
//! in parallel and be combined associatively, with groups shared across
//! shards re-linked through the same rank-two delta. Merging is `O(groups
//! in the absorbed shard)`, never `O(rows)`. The type is plain data
//! (`Send + Sync + Clone`) — `sa-online`'s worker pool moves shard
//! accumulators across threads and merges deltas on a coordinator; that
//! surface is pinned by a compile-time assertion in this module's tests.
//!
//! Up to floating-point associativity, a `MomentAccumulator` fed any chunk
//! split (and merged in any shape) agrees with `GroupedMoments` fed the same
//! rows — the property `tests/proptests.rs` pins down.

use crate::error::CoreError;
use crate::estimator::{estimate_from_sample_moments, EstimateReport};
use crate::hash::{fingerprint128, rel_salts, subset_key, FxHashMap};
use crate::moments::{MomentMatrix, Moments};
use crate::params::GusParams;
use crate::relset::RelSet;
use crate::Result;

/// Streaming, merge-able accumulator of the `2ⁿ` grouped second moments
/// with O(1)-in-rows readout.
#[derive(Debug, Clone)]
pub struct MomentAccumulator {
    n: usize,
    dims: usize,
    salts: Vec<u64>,
    /// For each nonempty `S` (indexed by `S.index()`): fingerprint → running
    /// ΣF vector of that group. `S = ∅` needs no map (one global group).
    groups: Vec<FxHashMap<u128, Vec<f64>>>,
    /// Incrementally maintained `y_S` for every `S` (∅ included).
    y: Vec<MomentMatrix>,
    total: Vec<f64>,
    count: u64,
}

impl MomentAccumulator {
    /// An accumulator over `n` base relations and `dims` aggregate
    /// dimensions.
    pub fn new(n: usize, dims: usize) -> MomentAccumulator {
        assert!(dims >= 1, "at least one aggregate dimension required");
        MomentAccumulator {
            n,
            dims,
            salts: rel_salts(n),
            groups: (0..1usize << n).map(|_| FxHashMap::default()).collect(),
            y: (0..1usize << n).map(|_| MomentMatrix::zero(dims)).collect(),
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

    /// Number of rows consumed (across all merged shards).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running totals `ΣF` per dimension.
    pub fn total(&self) -> &[f64] {
        &self.total
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
        // S = ∅: the single global group is the running total.
        self.y[RelSet::EMPTY.index()].add_outer_scaled(&self.total, -1.0);
        for (t, v) in self.total.iter_mut().zip(f) {
            *t += v;
        }
        self.y[RelSet::EMPTY.index()].add_outer(&self.total);
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
            self.y[s_idx].add_outer_scaled(entry, -1.0);
            for (e, v) in entry.iter_mut().zip(f) {
                *e += v;
            }
            self.y[s_idx].add_outer(entry);
        }
        Ok(())
    }

    /// Scalar convenience for `dims == 1`.
    pub fn push_scalar(&mut self, lineage: &[u64], f: f64) -> Result<()> {
        self.push(lineage, &[f])
    }

    /// Consume a whole columnar chunk of result tuples: `lineage` holds one
    /// id column per base relation, `f` one value column per aggregate
    /// dimension, all of equal length. Equivalent to pushing each row (up
    /// to float associativity — the same 1e-9 class as shard merging), but
    /// amortized: the `S = ∅` rank-two delta collapses to **one**
    /// retract/add pair per batch instead of two outer products per row,
    /// arity checks hoist out of the row loop, and a tuple landing in a
    /// fresh lineage group skips the retract of its zero vector entirely
    /// (exact — the retract would subtract `0·0ᵀ`).
    pub fn push_batch(&mut self, lineage: &[&[u64]], f: &[&[f64]]) -> Result<()> {
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
        let rows = f
            .first()
            .map(|c| c.len())
            .or_else(|| lineage.first().map(|c| c.len()))
            .unwrap_or(0);
        for col in lineage
            .iter()
            .map(|c| c.len())
            .chain(f.iter().map(|c| c.len()))
        {
            if col != rows {
                return Err(CoreError::DimensionMismatch {
                    expected: rows,
                    got: col,
                });
            }
        }
        if rows == 0 {
            return Ok(());
        }
        self.count += rows as u64;
        // S = ∅: the single global group — retract once, replay every row's
        // contribution to the running total, re-add once.
        self.y[RelSet::EMPTY.index()].add_outer_scaled(&self.total, -1.0);
        let mut fp = [0u128; crate::relset::MAX_RELS];
        for r in 0..rows {
            for (t, col) in self.total.iter_mut().zip(f) {
                *t += col[r];
            }
            for i in 0..self.n {
                fp[i] = fingerprint128(self.salts[i], lineage[i][r]);
            }
            for s_idx in 1..1usize << self.n {
                let key = subset_key(&fp, RelSet::from_bits(s_idx as u32));
                match self.groups[s_idx].entry(key) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let entry = e.get_mut();
                        self.y[s_idx].add_outer_scaled(entry, -1.0);
                        for (d, col) in entry.iter_mut().zip(f) {
                            *d += col[r];
                        }
                        self.y[s_idx].add_outer(entry);
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        let entry = v.insert(f.iter().map(|col| col[r]).collect());
                        self.y[s_idx].add_outer(entry);
                    }
                }
            }
        }
        self.y[RelSet::EMPTY.index()].add_outer(&self.total);
        Ok(())
    }

    /// Absorb another accumulator over the same lineage schema — the shard
    /// merge. Groups present in both shards are combined through the same
    /// rank-two delta the per-row path uses, so the result is exactly what a
    /// single accumulator fed both row streams would hold (up to float
    /// associativity). Cost: `O(groups in other)`.
    pub fn merge(&mut self, other: &MomentAccumulator) -> Result<()> {
        if other.n != self.n {
            return Err(CoreError::DimensionMismatch {
                expected: self.n,
                got: other.n,
            });
        }
        if other.dims != self.dims {
            return Err(CoreError::DimensionMismatch {
                expected: self.dims,
                got: other.dims,
            });
        }
        self.count += other.count;
        self.y[RelSet::EMPTY.index()].add_outer_scaled(&self.total, -1.0);
        for (t, v) in self.total.iter_mut().zip(&other.total) {
            *t += v;
        }
        self.y[RelSet::EMPTY.index()].add_outer(&self.total);
        for s_idx in 1..1usize << self.n {
            for (key, osum) in &other.groups[s_idx] {
                let entry = self.groups[s_idx]
                    .entry(*key)
                    .or_insert_with(|| vec![0.0; self.dims]);
                self.y[s_idx].add_outer_scaled(entry, -1.0);
                for (e, v) in entry.iter_mut().zip(osum) {
                    *e += v;
                }
                self.y[s_idx].add_outer(entry);
            }
        }
        Ok(())
    }

    /// The current moments, as a cheap copy of the maintained state: `O(2ⁿ
    /// k²)`, independent of how many rows were consumed.
    pub fn snapshot(&self) -> Moments {
        Moments {
            n: self.n,
            dims: self.dims,
            y: self.y.clone(),
            total: self.total.clone(),
            count: self.count,
        }
    }

    /// Produce the full [`EstimateReport`] (point estimates, variance, `Ŷ_S`)
    /// for the rows consumed so far, under `gus`. Does **not** consume the
    /// accumulator — the online loop calls this after every chunk.
    pub fn report(&self, gus: &GusParams) -> Result<EstimateReport> {
        estimate_from_sample_moments(gus, &self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::GroupedMoments;

    /// rows: (l-id, o-id, f) over 2 relations — same fixture as the batch
    /// accumulator tests.
    fn sample_rows() -> Vec<([u64; 2], f64)> {
        vec![
            ([1, 10], 2.0),
            ([2, 10], 3.0),
            ([3, 20], 5.0),
            ([1, 20], 7.0),
        ]
    }

    fn batch(rows: &[([u64; 2], f64)]) -> Moments {
        let mut acc = GroupedMoments::new(2, 1);
        for (lin, f) in rows {
            acc.push_scalar(lin, *f).unwrap();
        }
        acc.finish()
    }

    fn assert_moments_eq(a: &Moments, b: &Moments, tol: f64) {
        assert_eq!(a.count, b.count);
        for (x, y) in a.total.iter().zip(&b.total) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
        for s in 0..a.y.len() {
            for p in 0..a.dims {
                for q in 0..a.dims {
                    let (x, y) = (a.y[s].get(p, q), b.y[s].get(p, q));
                    assert!(
                        (x - y).abs() < tol * (1.0 + x.abs()),
                        "y[{s}][{p},{q}]: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_matches_batch_at_every_prefix() {
        let rows = sample_rows();
        let mut acc = MomentAccumulator::new(2, 1);
        for k in 0..rows.len() {
            acc.push_scalar(&rows[k].0, rows[k].1).unwrap();
            assert_moments_eq(&acc.snapshot(), &batch(&rows[..=k]), 1e-12);
        }
    }

    #[test]
    fn merge_of_shards_matches_single_pass() {
        let rows = sample_rows();
        for split in 0..=rows.len() {
            let mut left = MomentAccumulator::new(2, 1);
            for (lin, f) in &rows[..split] {
                left.push_scalar(lin, *f).unwrap();
            }
            let mut right = MomentAccumulator::new(2, 1);
            for (lin, f) in &rows[split..] {
                right.push_scalar(lin, *f).unwrap();
            }
            left.merge(&right).unwrap();
            assert_moments_eq(&left.snapshot(), &batch(&rows), 1e-12);
        }
    }

    #[test]
    fn push_batch_matches_per_row_pushes() {
        let rows = sample_rows();
        let mut per_row = MomentAccumulator::new(2, 1);
        for (lin, f) in &rows {
            per_row.push_scalar(lin, *f).unwrap();
        }
        // One batch push of the same rows in column-major form.
        let l0: Vec<u64> = rows.iter().map(|(l, _)| l[0]).collect();
        let l1: Vec<u64> = rows.iter().map(|(l, _)| l[1]).collect();
        let fv: Vec<f64> = rows.iter().map(|(_, f)| *f).collect();
        let mut batched = MomentAccumulator::new(2, 1);
        batched.push_batch(&[&l0, &l1], &[&fv]).unwrap();
        assert_moments_eq(&batched.snapshot(), &per_row.snapshot(), 1e-12);
        // Splitting the batch at any point changes nothing.
        for split in 0..=rows.len() {
            let mut acc = MomentAccumulator::new(2, 1);
            acc.push_batch(&[&l0[..split], &l1[..split]], &[&fv[..split]])
                .unwrap();
            acc.push_batch(&[&l0[split..], &l1[split..]], &[&fv[split..]])
                .unwrap();
            assert_moments_eq(&acc.snapshot(), &per_row.snapshot(), 1e-12);
        }
    }

    #[test]
    fn push_batch_multi_dim_and_arity_checks() {
        let mut batched = MomentAccumulator::new(1, 2);
        let mut per_row = MomentAccumulator::new(1, 2);
        let lin = [1u64, 1, 2];
        let f0 = [1.0, 2.0, 4.0];
        let f1 = [10.0, 20.0, 40.0];
        batched.push_batch(&[&lin], &[&f0, &f1]).unwrap();
        for i in 0..3 {
            per_row.push(&[lin[i]], &[f0[i], f1[i]]).unwrap();
        }
        assert_moments_eq(&batched.snapshot(), &per_row.snapshot(), 1e-12);
        // Wrong relation count, dim count, or ragged columns.
        let mut acc = MomentAccumulator::new(2, 1);
        assert!(acc.push_batch(&[&lin], &[&f0]).is_err());
        assert!(acc.push_batch(&[&lin, &lin], &[&f0, &f1]).is_err());
        assert!(acc.push_batch(&[&lin, &lin[..2]], &[&f0]).is_err());
        assert_eq!(acc.count(), 0, "failed batch must not half-apply");
        // Empty batch is a no-op.
        acc.push_batch(&[&[], &[]], &[&[]]).unwrap();
        assert_eq!(acc.count(), 0);
    }

    #[test]
    fn merge_is_group_aware_across_shards() {
        // The same lineage id split across shards must end up in ONE group:
        // y_{r} = (1+2)² = 9, not 1² + 2² = 5.
        let mut a = MomentAccumulator::new(1, 1);
        a.push_scalar(&[7], 1.0).unwrap();
        let mut b = MomentAccumulator::new(1, 1);
        b.push_scalar(&[7], 2.0).unwrap();
        a.merge(&b).unwrap();
        let m = a.snapshot();
        assert!((m.y_scalar(RelSet::singleton(0)) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn multi_dim_cross_moments_match_batch() {
        let mut inc = MomentAccumulator::new(1, 2);
        let mut bat = GroupedMoments::new(1, 2);
        let rows: &[([u64; 1], [f64; 2])] =
            &[([1], [1.0, 10.0]), ([1], [2.0, 20.0]), ([2], [4.0, 40.0])];
        for (lin, f) in rows {
            inc.push(lin, f).unwrap();
            bat.push(lin, f).unwrap();
        }
        assert_moments_eq(&inc.snapshot(), &bat.finish(), 1e-12);
    }

    #[test]
    fn report_is_readable_mid_stream() {
        let gus = GusParams::bernoulli("r", 0.5).unwrap();
        let mut acc = MomentAccumulator::new(1, 1);
        acc.push_scalar(&[1], 3.0).unwrap();
        let r1 = acc.report(&gus).unwrap();
        assert!((r1.estimate[0] - 6.0).abs() < 1e-12);
        acc.push_scalar(&[2], 5.0).unwrap();
        let r2 = acc.report(&gus).unwrap();
        assert!((r2.estimate[0] - 16.0).abs() < 1e-12);
        assert_eq!(r2.m, 2);
        assert!(r2.variance(0).unwrap() >= 0.0);
    }

    #[test]
    fn arity_and_merge_mismatches_rejected() {
        let mut acc = MomentAccumulator::new(2, 1);
        assert!(acc.push_scalar(&[1], 1.0).is_err());
        assert!(acc.push(&[1, 2], &[1.0, 2.0]).is_err());
        let other = MomentAccumulator::new(1, 1);
        assert!(acc.merge(&other).is_err());
        let other = MomentAccumulator::new(2, 2);
        assert!(acc.merge(&other).is_err());
    }

    #[test]
    fn accumulators_are_send_sync_clone() {
        // The shard-parallel online driver moves accumulators into worker
        // threads and clones/merges them on a coordinator; a field change
        // that breaks Send/Sync/Clone must fail here, at compile time.
        fn assert_shardable<T: Send + Sync + Clone>() {}
        assert_shardable::<MomentAccumulator>();
        assert_shardable::<crate::GroupedMomentAccumulator<Vec<u64>>>();
    }

    #[test]
    fn empty_accumulator_snapshot_is_zero() {
        let m = MomentAccumulator::new(2, 1).snapshot();
        for s in 0..4u32 {
            assert_eq!(m.y_scalar(RelSet::from_bits(s)), 0.0);
        }
        assert_eq!(m.count, 0);
    }
}
