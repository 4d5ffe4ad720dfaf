//! Incremental, merge-able moment accumulation — the one moment path every
//! estimator (the [`crate::SBox`], batch and online queries, scalar and
//! `GROUP BY`) runs on.
//!
//! The textbook way to get `y_S` stores per-group `ΣF` vectors and squares
//! them once at the end ([`crate::moments::GroupedMoments`], kept as the
//! reference the tests compare against), which cannot say what the estimate
//! is *right now* without an `O(#groups)` pass. Here the `y_S` are
//! maintained as rows arrive: when tuples summing to `Δ` land in a lineage
//! group whose running sum is `g`,
//!
//! ```text
//! y_S += (g+Δ)(g+Δ)ᵀ − g·gᵀ
//! ```
//!
//! — a rank-two delta per subset `S` — so a readout touches only `2ⁿ` small
//! matrices, after every chunk: a [`MomentSlot::y`] under a
//! [`crate::ReadoutPlan`] is what a tick reads in place, and
//! [`MomentSlot::report`] the same readout as an [`EstimateReport`].
//!
//! # Slots over shared slabs
//!
//! By Proposition 5 a `GROUP BY` group's indicator is just another
//! selection, so a group is a **slot** of the same arithmetic: a row count,
//! `k` totals `ΣF` and the `2ⁿ·k²` moments `Y_S`, stored slot-major so that
//! reading every slot is a linear walk. [`MomentAccumulator`] is one slot;
//! [`crate::GroupedMomentAccumulator`] a key → slot index over many. A kept
//! `S` has **one** lineage table over all slots: a (slot, key) → offset
//! index over one flat `Vec<f64>` of `dims`-wide `ΣF` rows, so neither a
//! lineage group nor a slot allocates. A single-relation `S` is keyed by
//! the raw `u64` lineage id (exact), a larger one by the 128-bit fingerprint
//! of the projected lineage. A push walks a chunk once per `S` and folds
//! each run of consecutive equal keys (a join's probe rows sharing one build
//! row) into **one** retract/add/re-add; a single row is a batch of one.
//!
//! # Distinct subsets
//!
//! An accumulator is built with the **family** of relation subsets on which
//! the tuples it will see — across every shard merged in — are distinct: no
//! two share their `S`-projected lineage
//! ([`MomentAccumulator::with_lineage`]). Distinctness is an up-set (tuples
//! distinct on `S` are distinct on every `S′ ⊇ S`), so a list of sets names
//! the up-set above it. Every `S` in the up-set has only single-tuple
//! groups, so `y_S = Σ f·fᵀ` is a running sum: no key, no probe, no entry,
//! and `merge` is a matrix add (the accumulator form of Szegedy–Thorup's
//! observation that under per-item sampling a subset sum's variance is a
//! sum of per-item terms). Every other non-empty `S` keeps its table; the
//! empty family ([`MomentAccumulator::new`]) is the general accumulator.
//!
//! The family is the stream's (`sa-exec`'s `ChunkStream::distinct`),
//! unchecked here: a single-table query owns no lineage table in any slot,
//! `lineitem ⋈ orders` on the unique `o_orderkey` keeps only the `{orders}`
//! table, and `SYSTEM`'s block lineage gives the empty family. Every slot
//! shares the family, and merging two accumulators whose families differ
//! is [`CoreError::LineageModeMismatch`].
//!
//! Accumulators over one lineage schema **merge** associatively
//! ([`MomentAccumulator::merge`]): the absorbed side's slots map onto ours
//! (new ones appended) and groups shared across shards re-link through the
//! same rank-two delta, at `O(lineage groups absorbed)`, never `O(rows)`.
//! The types are plain data (`Send + Sync + Clone`, pinned in this module's
//! tests) that `sa-online`'s worker pool moves across threads. Fed any
//! chunk split and merged in any shape, an accumulator over any family its
//! rows honour agrees with `GroupedMoments` fed the same rows, slot by slot,
//! up to float associativity (`tests/accumulator_modes.rs`,
//! `tests/proptests.rs`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

use crate::error::CoreError;
use crate::estimator::EstimateReport;
use crate::hash::{fingerprint128, rel_salt, subset_key, FoldedFxHasher};
use crate::moments::{add_gram, add_outer_scaled, MomentMatrix, Moments};
use crate::params::GusParams;
use crate::relset::{RelSet, MAX_RELS};
use crate::Result;

/// The lineage groups of one relation subset, in every slot: (slot, key) →
/// offset of the group's `dims`-wide running `ΣF` row in one flat slab.
#[derive(Debug, Clone, Default)]
struct Slab<K> {
    rows: HashMap<(usize, K), usize, BuildHasherDefault<FoldedFxHasher>>,
    sums: Vec<f64>,
}

impl<K: Copy + Eq + Hash> Slab<K> {
    /// Let `grow` add to the `ΣF` row `g` of `key` (created zero on first
    /// touch) and carry the slot's `y` block along: `y += (g+Δ)(g+Δ)ᵀ −
    /// g·gᵀ`. A fresh group skips the retract of its zero vector (exact — it
    /// would subtract `0·0ᵀ`).
    fn update(
        &mut self,
        key: (usize, K),
        dims: usize,
        y: &mut [f64],
        grow: impl FnOnce(&mut [f64]),
    ) {
        let end = self.sums.len();
        let at = *self.rows.entry(key).or_insert(end);
        if at == end {
            self.sums.resize(end + dims, 0.0);
        }
        let sum = &mut self.sums[at..at + dims];
        if at != end {
            add_outer_scaled(y, sum, -1.0);
        }
        grow(sum);
        add_outer_scaled(y, sum, 1.0);
    }

    /// Absorb a column-major chunk (`f`: one value column per dimension)
    /// into `slot`, whose row `r` belongs to group `key_at(r)`: one
    /// [`Slab::update`] per run of consecutive equal keys.
    fn push_runs(&mut self, slot: usize, y: &mut [f64], f: &[&[f64]], key_at: impl Fn(usize) -> K) {
        let rows = f[0].len();
        let mut r = 0;
        while r < rows {
            let key = key_at(r);
            self.update((slot, key), f.len(), y, |sum| loop {
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

    /// Absorb every group of `other`, its slot `i` landing on our slot
    /// `onto[i]`, whose `y` block of this subset starts at `y_at(slot)` in
    /// `values`; shared groups are re-linked.
    fn merge(
        &mut self,
        other: &Slab<K>,
        dims: usize,
        onto: &[usize],
        values: &mut [f64],
        y_at: impl Fn(usize) -> usize,
    ) {
        for (&(slot, key), &at) in &other.rows {
            let slot = onto[slot];
            let y = &mut values[y_at(slot)..][..dims * dims];
            let add = &other.sums[at..at + dims];
            self.update((slot, key), dims, y, |sum| add_to(sum, add));
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
    /// No table: `S = ∅` is one global group per slot whose `ΣF` is the
    /// slot's running total, and a distinct `S` has only single-tuple
    /// groups (`y_S = Σ f·fᵀ`).
    Implicit,
    /// `S = {rel}`, keyed exactly by the raw lineage id.
    ById { rel: usize, slab: Slab<u64> },
    /// `|S| ≥ 2`, keyed by the fingerprint of the `S`-projected lineage.
    ByFingerprint(Slab<u128>),
}

/// All moment arithmetic, indexed by slot position: per slot a row count,
/// the totals and the `Y_S`, and one lineage table per kept `S` shared by
/// every slot.
#[derive(Debug, Clone)]
pub(crate) struct Slots {
    n: usize,
    dims: usize,
    /// How each `S` (indexed by `S.index()`) tracks its lineage groups.
    groups: Vec<Groups>,
    /// Rows consumed, per slot.
    counts: Vec<u64>,
    /// Slot-major: slot `i`'s `ΣF` (`dims` values) followed by its `Y_S`
    /// (row-major `dims × dims` blocks by `S.index()`, ∅ first), starting
    /// at `i · stride`.
    values: Vec<f64>,
}

impl Slots {
    /// No slot yet, over `n` base relations and `dims` aggregate dimensions,
    /// for tuples distinct on every superset of a set in `distinct`.
    pub(crate) fn new(n: usize, dims: usize, distinct: &[RelSet]) -> Slots {
        assert!(dims >= 1, "at least one aggregate dimension required");
        assert!(
            n <= MAX_RELS,
            "a lineage schema has at most {MAX_RELS} base relations, got {n}"
        );
        let full = RelSet::full(n);
        assert!(
            distinct.iter().all(|d| d.is_subset_of(full)),
            "a distinct set names a relation outside the {n}-relation schema"
        );
        let groups = (0..=full.index())
            .map(|s_idx| {
                let s = RelSet::from_bits(s_idx as u32);
                if s.is_empty() || distinct.iter().any(|d| d.is_subset_of(s)) {
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
        Slots {
            n,
            dims,
            groups,
            counts: Vec::new(),
            values: Vec::new(),
        }
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn dims(&self) -> usize {
        self.dims
    }

    /// Values per slot: the totals and the `2ⁿ` moment blocks.
    fn stride(&self) -> usize {
        self.dims + ((self.dims * self.dims) << self.n)
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// `at`, once an empty slot is appended there if it is one past the
    /// end.
    pub(crate) fn ensure(&mut self, at: usize) -> usize {
        if at == self.len() {
            self.values.resize(self.values.len() + self.stride(), 0.0);
            self.counts.push(0);
        }
        at
    }

    /// Rows consumed across every slot.
    pub(crate) fn rows(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Lineage groups held in memory, summed over every relation subset and
    /// slot.
    pub(crate) fn lineage_entries(&self) -> usize {
        self.groups
            .iter()
            .map(|g| match g {
                Groups::Implicit => 0,
                Groups::ById { slab, .. } => slab.rows.len(),
                Groups::ByFingerprint(slab) => slab.rows.len(),
            })
            .sum()
    }

    /// The slot at `at`.
    pub(crate) fn slot(&self, at: usize) -> MomentSlot<'_> {
        let stride = self.stride();
        let (total, y) = self.values[at * stride..][..stride].split_at(self.dims);
        MomentSlot {
            n: self.n,
            count: self.counts[at],
            total,
            y,
        }
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

    /// Validate a columnar chunk — one id column per base relation, one
    /// value column per dimension, all of equal length — and return its row
    /// count. Nothing is touched, so a refused chunk cannot half-apply.
    pub(crate) fn check_batch(&self, lineage: &[&[u64]], f: &[&[f64]]) -> Result<usize> {
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
        Ok(rows)
    }

    /// Consume a chunk [`Slots::check_batch`] accepted into slot `at`: the
    /// `S = ∅` rank-two delta collapses to **one** retract/add pair, every
    /// kept `S` pays one per run of consecutive equal keys, and a distinct
    /// `S` pays none.
    pub(crate) fn push_batch(&mut self, at: usize, lineage: &[&[u64]], f: &[&[f64]]) {
        let (n, dims, stride) = (self.n, self.dims, self.stride());
        let rows = f[0].len();
        self.counts[at] += rows as u64;
        let (total, y) = self.values[at * stride..][..stride].split_at_mut(dims);
        // S = ∅: the slot's single global group — retract once, add every
        // row to the running total, re-add once.
        let y_empty = &mut y[..dims * dims];
        add_outer_scaled(y_empty, total, -1.0);
        for (t, col) in total.iter_mut().zip(f) {
            for v in *col {
                *t += v;
            }
        }
        add_outer_scaled(y_empty, total, 1.0);
        // Per-relation fingerprints once per row (row-major), and only
        // when some subset is keyed by them.
        let fps: Vec<u128> = if self
            .groups
            .iter()
            .any(|g| matches!(g, Groups::ByFingerprint(_)))
        {
            (0..rows)
                .flat_map(|r| (0..n).map(move |i| fingerprint128(rel_salt(i), lineage[i][r])))
                .collect()
        } else {
            Vec::new()
        };
        let blocks = y.chunks_exact_mut(dims * dims);
        for (s_idx, (groups, y)) in self.groups.iter_mut().zip(blocks).enumerate().skip(1) {
            match groups {
                Groups::Implicit => add_gram(y, f),
                Groups::ById { rel, slab } => slab.push_runs(at, y, f, |r| lineage[*rel][r]),
                Groups::ByFingerprint(slab) => {
                    let s = RelSet::from_bits(s_idx as u32);
                    slab.push_runs(at, y, f, |r| subset_key(&fps[r * n..][..n], s));
                }
            }
        }
    }

    /// Absorb `other` — the shard merge. `onto` yields, for each of
    /// `other`'s slots in order, the position it lands on here: an
    /// existing slot, or the next one, appended. Groups present in both
    /// combine through the same rank-two delta the push path uses, so the
    /// result is what one accumulator fed both row streams would hold (up
    /// to float associativity). Shape and distinct family are checked
    /// before `onto` is consumed or anything is touched.
    pub(crate) fn merge(
        &mut self,
        other: &Slots,
        onto: impl IntoIterator<Item = usize>,
    ) -> Result<()> {
        self.check_shape(other.n, other.dims)?;
        let implicit = |g: &Groups| matches!(g, Groups::Implicit);
        if !self
            .groups
            .iter()
            .map(implicit)
            .eq(other.groups.iter().map(implicit))
        {
            return Err(CoreError::LineageModeMismatch);
        }
        let onto: Vec<usize> = onto.into_iter().map(|at| self.ensure(at)).collect();
        assert_eq!(onto.len(), other.len(), "one position per absorbed slot");
        let (dims, stride) = (self.dims, self.stride());
        let kk = dims * dims;
        for (theirs, &ours) in onto.iter().enumerate() {
            self.counts[ours] += other.counts[theirs];
            let (total, y) = self.values[ours * stride..][..stride].split_at_mut(dims);
            let (their_total, their_y) = other.values[theirs * stride..][..stride].split_at(dims);
            add_outer_scaled(&mut y[..kk], total, -1.0);
            add_to(total, their_total);
            add_outer_scaled(&mut y[..kk], total, 1.0);
            for (s_idx, groups) in self.groups.iter().enumerate().skip(1) {
                if let Groups::Implicit = groups {
                    add_to(&mut y[s_idx * kk..][..kk], &their_y[s_idx * kk..][..kk]);
                }
            }
        }
        let ours = self.groups.iter_mut().zip(&other.groups).enumerate();
        for (s_idx, (groups, theirs)) in ours.skip(1) {
            let y_at = |slot: usize| slot * stride + dims + s_idx * kk;
            match (groups, theirs) {
                (Groups::Implicit, Groups::Implicit) => {}
                (Groups::ById { slab, .. }, Groups::ById { slab: theirs, .. }) => {
                    slab.merge(theirs, dims, &onto, &mut self.values, y_at)
                }
                (Groups::ByFingerprint(slab), Groups::ByFingerprint(theirs)) => {
                    slab.merge(theirs, dims, &onto, &mut self.values, y_at)
                }
                _ => unreachable!("same n and family lay the subsets out identically"),
            }
        }
        Ok(())
    }
}

/// One slot of an accumulator, borrowed: its row count, running totals and
/// sample moments, and the readouts built on them.
#[derive(Debug, Clone, Copy)]
pub struct MomentSlot<'a> {
    n: usize,
    count: u64,
    total: &'a [f64],
    y: &'a [f64],
}

impl<'a> MomentSlot<'a> {
    /// Number of rows consumed into this slot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running totals `ΣF` per dimension.
    pub fn total(&self) -> &'a [f64] {
        self.total
    }

    /// The maintained sample moments `Y_S`: row-major `k×k` blocks by
    /// `S.index()`, laid end to end — what a [`crate::ReadoutPlan`] reads
    /// in place.
    pub fn y(&self) -> &'a [f64] {
        self.y
    }

    /// The current moments, as a copy of the maintained state: `O(2ⁿ k²)`,
    /// independent of how many rows were consumed.
    pub fn snapshot(&self) -> Moments {
        let dims = self.total.len();
        let y = self
            .y
            .chunks_exact(dims * dims)
            .map(|block| MomentMatrix::from_fn(dims, |p, q| block[p * dims + q]))
            .collect();
        Moments {
            n: self.n,
            dims,
            y,
            total: self.total.to_vec(),
            count: self.count,
        }
    }

    /// The full [`EstimateReport`] (point estimates, covariance, and the
    /// moments for variance prediction) for the rows consumed so far, under
    /// `gus`. It copies the `2ⁿ` matrices and re-derives the GUS's weights
    /// on every call; a loop reading many slots under one GUS builds a
    /// [`crate::ReadoutPlan`] once instead — and reads the same bits.
    pub fn report(&self, gus: &GusParams) -> Result<EstimateReport> {
        EstimateReport::of(gus, self.snapshot())
    }
}

/// Streaming, merge-able accumulator of the `2ⁿ` grouped second moments
/// with O(1)-in-rows readout: one slot.
#[derive(Debug, Clone)]
pub struct MomentAccumulator {
    /// Exactly one slot, at position 0.
    slots: Slots,
}

impl MomentAccumulator {
    /// A general accumulator over `n` base relations and `dims` aggregate
    /// dimensions: any tuple stream, a lineage table for every non-empty
    /// relation subset — the empty distinct family.
    pub fn new(n: usize, dims: usize) -> MomentAccumulator {
        MomentAccumulator::with_lineage(n, dims, &[])
    }

    /// An accumulator for a tuple stream that is distinct on every superset
    /// of a set in `distinct`: no two tuples, across every shard ever merged
    /// in, share their projection on such a set. See the module docs for
    /// what the promise buys.
    ///
    /// # Panics
    ///
    /// When `dims` is 0, `n` exceeds [`MAX_RELS`] or a set of `distinct`
    /// names a relation past `n`.
    pub fn with_lineage(n: usize, dims: usize, distinct: &[RelSet]) -> MomentAccumulator {
        let mut slots = Slots::new(n, dims, distinct);
        slots.ensure(0);
        MomentAccumulator { slots }
    }

    /// The one slot.
    pub fn slot(&self) -> MomentSlot<'_> {
        self.slots.slot(0)
    }

    /// Number of rows consumed (across all merged shards).
    pub fn count(&self) -> u64 {
        self.slot().count()
    }

    /// Running totals `ΣF` per dimension.
    pub fn total(&self) -> &[f64] {
        self.slot().total()
    }

    /// The maintained sample moments `Y_S` (see [`MomentSlot::y`]).
    pub fn y(&self) -> &[f64] {
        self.slot().y()
    }

    /// Lineage groups held in memory, summed over every relation subset —
    /// what the accumulator's size grows with. One over a single relation
    /// whose tuples are distinct on it holds none.
    pub fn lineage_entries(&self) -> usize {
        self.slots.lineage_entries()
    }

    /// Consume one result tuple: its per-base-relation lineage ids and its
    /// aggregate vector — a batch of one row.
    pub fn push(&mut self, lineage: &[u64], f: &[f64]) -> Result<()> {
        let lineage: Vec<&[u64]> = lineage.iter().map(std::slice::from_ref).collect();
        let f: Vec<&[f64]> = f.iter().map(std::slice::from_ref).collect();
        self.push_batch(&lineage, &f)
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
    /// consecutive equal keys, and a distinct `S` pays none.
    pub fn push_batch(&mut self, lineage: &[&[u64]], f: &[&[f64]]) -> Result<()> {
        if self.slots.check_batch(lineage, f)? > 0 {
            self.slots.push_batch(0, lineage, f);
        }
        Ok(())
    }

    /// Absorb another accumulator over the same lineage schema — the shard
    /// merge. Groups present in both shards are combined through the same
    /// rank-two delta the push path uses, so the result is exactly what a
    /// single accumulator fed both row streams would hold (up to float
    /// associativity). Cost: `O(lineage groups in other)`; a distinct `S`
    /// is a matrix add. Both must share one distinct family.
    pub fn merge(&mut self, other: &MomentAccumulator) -> Result<()> {
        self.slots.merge(&other.slots, [0])
    }

    /// The current moments, as a cheap copy of the maintained state: `O(2ⁿ
    /// k²)`, independent of how many rows were consumed.
    pub fn snapshot(&self) -> Moments {
        self.slot().snapshot()
    }

    /// Produce the full [`EstimateReport`] for the rows consumed so far,
    /// under `gus` (see [`MomentSlot::report`]). Does **not** consume the
    /// accumulator.
    pub fn report(&self, gus: &GusParams) -> Result<EstimateReport> {
        self.slot().report(gus)
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
    #[should_panic(expected = "at most 16 base relations, got 17")]
    fn arity_beyond_max_rels_panics_at_construction() {
        // Past the cap the accumulator would lay out 2¹⁷ subsets; refuse at
        // construction, not at the first push.
        MomentAccumulator::with_lineage(MAX_RELS + 1, 1, &[]);
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
