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
//! are maintained incrementally. When tuples with aggregate vectors summing
//! to `Δ` land in a lineage group whose running sum is `g`, the group's
//! contribution to `y_S` changes from `g·gᵀ` to `(g+Δ)(g+Δ)ᵀ`, so
//!
//! ```text
//! y_S += (g+Δ)(g+Δ)ᵀ − g·gᵀ
//! ```
//!
//! — a rank-two delta per subset `S`. A readout then touches only the `2ⁿ`
//! small matrices (no pass over groups or rows), which makes estimate,
//! variance and confidence intervals readable after *every* chunk of an
//! online aggregation loop: [`MomentAccumulator::y`] under a
//! [`crate::ReadoutPlan`] is what a tick does (a dot product per covariance
//! entry, in place), and [`MomentAccumulator::report`] the same readout
//! collected into an [`EstimateReport`].
//!
//! # Two modes
//!
//! The **general** accumulator ([`MomentAccumulator::new`]) assumes nothing
//! about its input and keeps a lineage table for every non-empty `S`.
//!
//! The **lineage-distinct** accumulator
//! ([`MomentAccumulator::with_lineage`]) is promised that no two tuples it
//! will ever see — across every shard merged into it — share their full
//! lineage. Then every lineage group of `S` = *all relations* is a single
//! tuple and
//!
//! ```text
//! y_full = Σ f·fᵀ
//! ```
//!
//! is a running sum: no key, no probe, no entry, and `merge` is a matrix
//! add (the accumulator form of Szegedy–Thorup's observation that under
//! per-item sampling the variance of a subset sum is a sum of per-item
//! terms). A single-table query owns **no** lineage table at all; a 2-way
//! join keeps the two single-relation tables and drops the largest, the
//! pair table. The promise is a property of the plan — `sa-plan`'s
//! `SoaAnalysis::lineage_distinct` derives it and `sa-online` passes it on;
//! it is not checked here, and a tuple stream that breaks it (`SYSTEM`'s
//! block lineage) must use the general mode. The two modes never mix:
//! merging one into the other is [`CoreError::LineageModeMismatch`].
//!
//! # Slab layout
//!
//! A kept table is a `key → offset` index over one flat `Vec<f64>` of
//! `dims`-wide `ΣF` rows — no allocation per lineage group. A
//! single-relation `S` is keyed by the raw `u64` lineage id (exact); a
//! larger `S` by the 128-bit fingerprint of the projected lineage.
//! [`MomentAccumulator::push_batch`] walks a chunk once per `S` and folds
//! each run of consecutive equal keys (a join's probe rows sharing one
//! build row, say) into **one** retract/add/re-add.
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
//! Up to floating-point associativity, a `MomentAccumulator` of either mode
//! fed any chunk split (and merged in any shape) agrees with
//! `GroupedMoments` fed the same rows — the property this module's
//! generated differential and `tests/proptests.rs` pin down.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

use crate::error::CoreError;
use crate::estimator::EstimateReport;
use crate::hash::{fingerprint128, rel_salt, subset_key, FoldedFxHasher};
use crate::moments::{MomentMatrix, Moments};
use crate::params::GusParams;
use crate::relset::RelSet;
use crate::Result;

/// The lineage groups of one relation subset: key → offset of the group's
/// `dims`-wide running `ΣF` row in one flat slab.
#[derive(Debug, Clone)]
struct Slab<K> {
    rows: HashMap<K, usize, BuildHasherDefault<FoldedFxHasher>>,
    sums: Vec<f64>,
}

impl<K> Default for Slab<K> {
    fn default() -> Self {
        Slab {
            rows: HashMap::default(),
            sums: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash> Slab<K> {
    /// Let `grow` add to the `ΣF` row `g` of `key` (created zero on first
    /// touch) and carry `y` along: `y += (g+Δ)(g+Δ)ᵀ − g·gᵀ`. A fresh
    /// group skips the retract of its zero vector (exact — it would
    /// subtract `0·0ᵀ`).
    fn update(&mut self, key: K, dims: usize, y: &mut MomentMatrix, grow: impl FnOnce(&mut [f64])) {
        let end = self.sums.len();
        let at = *self.rows.entry(key).or_insert(end);
        if at == end {
            self.sums.resize(end + dims, 0.0);
        }
        let sum = &mut self.sums[at..at + dims];
        if at != end {
            y.add_outer_scaled(sum, -1.0);
        }
        grow(sum);
        y.add_outer(sum);
    }

    /// Absorb a column-major chunk (`f`: one value column per dimension)
    /// whose row `r` belongs to group `key_at(r)`: one [`Slab::update`]
    /// per run of consecutive equal keys.
    fn push_runs(&mut self, y: &mut MomentMatrix, f: &[&[f64]], key_at: impl Fn(usize) -> K) {
        let rows = f[0].len();
        let mut r = 0;
        while r < rows {
            let key = key_at(r);
            self.update(key, f.len(), y, |sum| loop {
                for (d, col) in sum.iter_mut().zip(f) {
                    *d += col[r];
                }
                r += 1;
                if r == rows || key_at(r) != key {
                    break;
                }
            });
        }
    }

    /// Absorb every group of `other`, re-linking the shared ones.
    fn merge(&mut self, other: &Slab<K>, dims: usize, y: &mut MomentMatrix) {
        for (&key, &at) in &other.rows {
            let add = &other.sums[at..at + dims];
            self.update(key, dims, y, |sum| add_to(sum, add));
        }
    }
}

/// `sum += add`, element by element.
fn add_to(sum: &mut [f64], add: &[f64]) {
    for (s, a) in sum.iter_mut().zip(add) {
        *s += a;
    }
}

/// How one relation subset `S` tracks its lineage groups.
#[derive(Debug, Clone)]
enum Groups {
    /// No table: `S = ∅` is one global group whose `ΣF` is the running
    /// total, and the full set of a lineage-distinct accumulator has only
    /// single-tuple groups (`y_S = Σ f·fᵀ`).
    Implicit,
    /// `S = {rel}`, keyed exactly by the raw lineage id.
    ById { rel: usize, slab: Slab<u64> },
    /// `|S| ≥ 2`, keyed by the fingerprint of the `S`-projected lineage.
    ByFingerprint(Slab<u128>),
}

impl Groups {
    fn is_fingerprinted(&self) -> bool {
        matches!(self, Groups::ByFingerprint(_))
    }
}

/// Streaming, merge-able accumulator of the `2ⁿ` grouped second moments
/// with O(1)-in-rows readout.
#[derive(Debug, Clone)]
pub struct MomentAccumulator {
    n: usize,
    dims: usize,
    lineage_distinct: bool,
    /// How each `S` (indexed by `S.index()`) tracks its lineage groups.
    groups: Vec<Groups>,
    /// Incrementally maintained `y_S` for every `S` (∅ included).
    y: Vec<MomentMatrix>,
    total: Vec<f64>,
    count: u64,
}

impl MomentAccumulator {
    /// A general accumulator over `n` base relations and `dims` aggregate
    /// dimensions: any tuple stream, a lineage table for every non-empty
    /// relation subset.
    pub fn new(n: usize, dims: usize) -> MomentAccumulator {
        MomentAccumulator::with_lineage(n, dims, false)
    }

    /// An accumulator for a tuple stream that is `lineage_distinct` — no
    /// two tuples, across every shard ever merged in, share their full
    /// lineage — or not (`false` is [`MomentAccumulator::new`]). See the
    /// module docs for what the promise buys.
    pub fn with_lineage(n: usize, dims: usize, lineage_distinct: bool) -> MomentAccumulator {
        assert!(dims >= 1, "at least one aggregate dimension required");
        let full = (1usize << n) - 1;
        let groups = (0..=full)
            .map(|s_idx| {
                if s_idx == 0 || (lineage_distinct && s_idx == full) {
                    Groups::Implicit
                } else if s_idx.is_power_of_two() {
                    Groups::ById {
                        rel: s_idx.trailing_zeros() as usize,
                        slab: Slab::default(),
                    }
                } else {
                    Groups::ByFingerprint(Slab::default())
                }
            })
            .collect();
        MomentAccumulator {
            n,
            dims,
            lineage_distinct,
            groups,
            y: (0..=full).map(|_| MomentMatrix::zero(dims)).collect(),
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

    /// The maintained sample moments `Y_S`, by `S.index()` — what a
    /// [`crate::ReadoutPlan`] reads in place.
    pub fn y(&self) -> &[MomentMatrix] {
        &self.y
    }

    /// Lineage groups held in memory, summed over every relation subset —
    /// what the accumulator's size grows with. A lineage-distinct
    /// accumulator over one relation holds none.
    pub fn lineage_entries(&self) -> usize {
        self.groups
            .iter()
            .map(|g| match g {
                Groups::Implicit => 0,
                Groups::ById { slab, .. } => slab.rows.len(),
                Groups::ByFingerprint(slab) => slab.rows.len(),
            })
            .sum()
    }

    /// `n` lineage columns and `dims` value columns, or a typed refusal.
    fn check_shape(&self, n: usize, dims: usize) -> Result<()> {
        for (expected, got) in [(self.n, n), (self.dims, dims)] {
            if got != expected {
                return Err(CoreError::DimensionMismatch { expected, got });
            }
        }
        Ok(())
    }

    /// Consume one result tuple: its per-base-relation lineage ids and its
    /// aggregate vector.
    pub fn push(&mut self, lineage: &[u64], f: &[f64]) -> Result<()> {
        self.check_shape(lineage.len(), f.len())?;
        self.count += 1;
        // S = ∅: the single global group is the running total.
        self.y[RelSet::EMPTY.index()].add_outer_scaled(&self.total, -1.0);
        add_to(&mut self.total, f);
        self.y[RelSet::EMPTY.index()].add_outer(&self.total);
        let mut fps = [0u128; crate::relset::MAX_RELS];
        if self.groups.iter().any(Groups::is_fingerprinted) {
            for (i, id) in lineage.iter().enumerate() {
                fps[i] = fingerprint128(rel_salt(i), *id);
            }
        }
        let dims = self.dims;
        for (s_idx, (groups, y)) in self.groups.iter_mut().zip(&mut self.y).enumerate().skip(1) {
            match groups {
                Groups::Implicit => y.add_outer(f),
                Groups::ById { rel, slab } => {
                    slab.update(lineage[*rel], dims, y, |sum| add_to(sum, f))
                }
                Groups::ByFingerprint(slab) => {
                    let key = subset_key(&fps, RelSet::from_bits(s_idx as u32));
                    slab.update(key, dims, y, |sum| add_to(sum, f))
                }
            }
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
    /// retract/add pair per batch, every kept `S` pays one per run of
    /// consecutive equal keys, and an implicit full set pays none.
    pub fn push_batch(&mut self, lineage: &[&[u64]], f: &[&[f64]]) -> Result<()> {
        self.check_shape(lineage.len(), f.len())?;
        let rows = f[0].len();
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
        // S = ∅: the single global group — retract once, add every row to
        // the running total, re-add once.
        self.y[RelSet::EMPTY.index()].add_outer_scaled(&self.total, -1.0);
        for (t, col) in self.total.iter_mut().zip(f) {
            for v in *col {
                *t += v;
            }
        }
        self.y[RelSet::EMPTY.index()].add_outer(&self.total);
        // Per-relation fingerprints once per row (row-major), and only
        // when some subset is keyed by them.
        let n = self.n;
        let fps: Vec<u128> = if self.groups.iter().any(Groups::is_fingerprinted) {
            (0..rows)
                .flat_map(|r| (0..n).map(move |i| fingerprint128(rel_salt(i), lineage[i][r])))
                .collect()
        } else {
            Vec::new()
        };
        for (s_idx, (groups, y)) in self.groups.iter_mut().zip(&mut self.y).enumerate().skip(1) {
            match groups {
                Groups::Implicit => y.add_gram(f),
                Groups::ById { rel, slab } => slab.push_runs(y, f, |r| lineage[*rel][r]),
                Groups::ByFingerprint(slab) => {
                    let s = RelSet::from_bits(s_idx as u32);
                    slab.push_runs(y, f, |r| subset_key(&fps[r * n..][..n], s));
                }
            }
        }
        Ok(())
    }

    /// Absorb another accumulator over the same lineage schema — the shard
    /// merge. Groups present in both shards are combined through the same
    /// rank-two delta the push path uses, so the result is exactly what a
    /// single accumulator fed both row streams would hold (up to float
    /// associativity). Cost: `O(groups in other)`; an implicit full set is
    /// a matrix add. Both must be of one mode.
    pub fn merge(&mut self, other: &MomentAccumulator) -> Result<()> {
        self.check_shape(other.n, other.dims)?;
        if other.lineage_distinct != self.lineage_distinct {
            return Err(CoreError::LineageModeMismatch);
        }
        self.count += other.count;
        self.y[RelSet::EMPTY.index()].add_outer_scaled(&self.total, -1.0);
        add_to(&mut self.total, &other.total);
        self.y[RelSet::EMPTY.index()].add_outer(&self.total);
        let ours = self.groups.iter_mut().zip(&mut self.y);
        let theirs = other.groups.iter().zip(&other.y);
        for ((groups, y), (other_groups, other_y)) in ours.zip(theirs).skip(1) {
            match (groups, other_groups) {
                (Groups::Implicit, Groups::Implicit) => y.add_scaled(other_y, 1.0),
                (Groups::ById { slab, .. }, Groups::ById { slab: other, .. }) => {
                    slab.merge(other, self.dims, y)
                }
                (Groups::ByFingerprint(slab), Groups::ByFingerprint(other)) => {
                    slab.merge(other, self.dims, y)
                }
                _ => unreachable!("same n and mode lay the subsets out identically"),
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

    /// Produce the full [`EstimateReport`] (point estimates, covariance, and
    /// the moments for variance prediction) for the rows consumed so far,
    /// under `gus`. Does **not** consume the accumulator. It clones the `2ⁿ`
    /// matrices and re-derives the GUS's weights on every call; a loop
    /// reading many slots under one GUS builds a [`crate::ReadoutPlan`] once
    /// instead — and reads the same bits.
    pub fn report(&self, gus: &GusParams) -> Result<EstimateReport> {
        EstimateReport::of(gus, self.snapshot())
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
