//! Per-group incremental moment accumulation — the state behind every
//! online and batch query.
//!
//! A group's SUM is the SUM-like aggregate of `f_g(t) = f(t)·1{key(t) = g}`
//! (the indicator is a selection, Proposition 5), so the same top GUS
//! analyzes every group, and a group needs a **slot** of the one moment
//! arithmetic in `accumulator.rs`, not an object of its own.
//! [`GroupedMomentAccumulator`] is a key → slot index ([`FpMap`]) over
//! those slots; it holds no arithmetic. Each discovered group is an
//! O(1)-in-rows readout of its [`MomentSlot`], one [`crate::ReadoutPlan`]
//! per tick reads them all, and slots stay in **discovery order**
//! ([`GroupedMomentAccumulator::iter`]), which pushes and merges only
//! append to — so a progressive readout updates the groups it knows in
//! place and finds new ones in the tail. A scalar query is the one-key
//! case. Keys are generic (`K: Eq + Hash`): the online driver's are the
//! evaluated `GROUP BY` tuples (empty for a scalar query); fingerprint
//! salts are deterministic ([`crate::hash::rel_salts`]), so independently
//! built shards merge exactly.

use std::hash::Hash;

use crate::accumulator::{MomentSlot, Slots};
use crate::hash::FpMap;
use crate::relset::RelSet;
use crate::Result;

/// A key → slot index over one accumulator's slots, with push, shard merge,
/// and O(1)-in-rows per-group readout. A key's position in the [`FpMap`]
/// (dense, in discovery order, found by fingerprint, the stored key
/// deciding) is its slot.
#[derive(Debug, Clone)]
pub struct GroupedMomentAccumulator<K> {
    index: FpMap<K>,
    slots: Slots,
}

impl<K: Eq + Hash> GroupedMomentAccumulator<K> {
    /// A general accumulator over `n` base relations and `dims` aggregate
    /// dimensions per group.
    pub fn new(n: usize, dims: usize) -> GroupedMomentAccumulator<K> {
        GroupedMomentAccumulator::with_lineage(n, dims, &[])
    }

    /// An accumulator whose every slot is promised the `distinct` family of
    /// [`crate::MomentAccumulator::with_lineage`].
    pub fn with_lineage(n: usize, dims: usize, distinct: &[RelSet]) -> GroupedMomentAccumulator<K> {
        GroupedMomentAccumulator {
            index: FpMap::new(),
            slots: Slots::new(n, dims, distinct),
        }
    }

    /// The slot of `key`, created on first touch.
    fn slot(&mut self, key: K) -> usize {
        self.slots.ensure(self.index.insert(key))
    }

    /// Number of base relations.
    pub fn n(&self) -> usize {
        self.slots.n()
    }

    /// Aggregate dimension `k` of every group.
    pub fn dims(&self) -> usize {
        self.slots.dims()
    }

    /// Total rows consumed across all groups (and merged shards).
    pub fn count(&self) -> u64 {
        self.slots.rows()
    }

    /// Number of groups discovered so far.
    pub fn group_count(&self) -> usize {
        self.index.len()
    }

    /// Lineage groups held in memory across every slot (see
    /// [`crate::MomentAccumulator::lineage_entries`]).
    pub fn lineage_entries(&self) -> usize {
        self.slots.lineage_entries()
    }

    /// Consume one result tuple of group `key`: its per-base-relation
    /// lineage ids and its aggregate vector — a batch of one row.
    pub fn push(&mut self, key: K, lineage: &[u64], f: &[f64]) -> Result<()> {
        let lineage: Vec<&[u64]> = lineage.iter().map(std::slice::from_ref).collect();
        let f: Vec<&[f64]> = f.iter().map(std::slice::from_ref).collect();
        self.push_batch(key, &lineage, &f)
    }

    /// Scalar convenience for `dims == 1`.
    pub fn push_scalar(&mut self, key: K, lineage: &[u64], f: f64) -> Result<()> {
        self.push(key, lineage, &[f])
    }

    /// Consume a whole chunk partition of one group: `lineage` holds one id
    /// column per base relation, `f` one value column per dimension (see
    /// [`crate::MomentAccumulator::push_batch`]). The grouped online driver
    /// partitions each chunk by key once and lands every partition here —
    /// the key is hashed (and, for a new group, stored) once per partition
    /// instead of once per row. The chunk is validated before the key is
    /// looked at, so a bad push — or an empty one — leaves no phantom group.
    pub fn push_batch(&mut self, key: K, lineage: &[&[u64]], f: &[&[f64]]) -> Result<()> {
        if self.slots.check_batch(lineage, f)? > 0 {
            let at = self.slot(key);
            self.slots.push_batch(at, lineage, f);
        }
        Ok(())
    }

    /// The slot of one group, if discovered.
    pub fn group(&self, key: &K) -> Option<MomentSlot<'_>> {
        self.index.get(key).map(|at| self.slots.slot(at))
    }

    /// Iterate over `(key, slot)` pairs in discovery order: the order keys
    /// were first pushed, then — for groups adopted by
    /// [`GroupedMomentAccumulator::merge`] — the absorbed side's order.
    /// Positions are stable; new groups only ever extend the sequence.
    pub fn iter(&self) -> impl Iterator<Item = (&K, MomentSlot<'_>)> {
        self.index
            .iter()
            .enumerate()
            .map(|(at, key)| (key, self.slots.slot(at)))
    }

    /// Absorb another grouped accumulator over the same schema and of the
    /// same mode — the shard merge. Groups shared by both shards combine
    /// exactly (same keys and fingerprint salts, same rank-two delta);
    /// groups unique to `other` are appended in `other`'s discovery order,
    /// and only they clone their key.
    /// Cost: `O(groups in other + their lineage groups)`, never `O(rows)`.
    pub fn merge(&mut self, other: &GroupedMomentAccumulator<K>) -> Result<()>
    where
        K: Clone,
    {
        let index = &mut self.index;
        let onto = other
            .index
            .iter()
            .map(|key| index.get(key).unwrap_or_else(|| index.insert(key.clone())));
        self.slots.merge(&other.slots, onto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::moments::GroupedMoments;
    use crate::relset::RelSet;

    /// rows: (group, lineage over 1 relation, f).
    fn sample_rows() -> Vec<(u32, [u64; 1], f64)> {
        vec![
            (0, [1], 2.0),
            (1, [2], 3.0),
            (0, [3], 5.0),
            (1, [1], 7.0),
            (2, [4], 11.0),
            (0, [1], 13.0),
        ]
    }

    fn batch_for_group(rows: &[(u32, [u64; 1], f64)], g: u32) -> crate::moments::Moments {
        let mut acc = GroupedMoments::new(1, 1);
        for (key, lin, f) in rows {
            if *key == g {
                acc.push_scalar(lin, *f).unwrap();
            }
        }
        acc.finish()
    }

    #[test]
    fn per_group_moments_match_independent_batch_passes() {
        let rows = sample_rows();
        let mut acc: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(1, 1);
        for (key, lin, f) in &rows {
            acc.push_scalar(*key, lin, *f).unwrap();
        }
        assert_eq!(acc.group_count(), 3);
        assert_eq!(acc.count(), rows.len() as u64);
        for g in 0..3u32 {
            let m = acc.group(&g).unwrap().snapshot();
            let b = batch_for_group(&rows, g);
            assert_eq!(m.count, b.count);
            for s in 0..2u32 {
                let (x, y) = (
                    m.y_scalar(RelSet::from_bits(s)),
                    b.y_scalar(RelSet::from_bits(s)),
                );
                assert!((x - y).abs() < 1e-12, "group {g} y[{s}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn shard_merge_matches_single_pass_at_every_split() {
        let rows = sample_rows();
        let single = {
            let mut acc: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(1, 1);
            for (key, lin, f) in &rows {
                acc.push_scalar(*key, lin, *f).unwrap();
            }
            acc
        };
        for split in 0..=rows.len() {
            let mut left: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(1, 1);
            for (key, lin, f) in &rows[..split] {
                left.push_scalar(*key, lin, *f).unwrap();
            }
            let mut right: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(1, 1);
            for (key, lin, f) in &rows[split..] {
                right.push_scalar(*key, lin, *f).unwrap();
            }
            left.merge(&right).unwrap();
            assert_eq!(left.count(), single.count());
            assert_eq!(left.group_count(), single.group_count());
            for g in 0..3u32 {
                let (m, s) = (
                    left.group(&g).unwrap().snapshot(),
                    single.group(&g).unwrap().snapshot(),
                );
                for bits in 0..2u32 {
                    let (x, y) = (
                        m.y_scalar(RelSet::from_bits(bits)),
                        s.y_scalar(RelSet::from_bits(bits)),
                    );
                    assert!((x - y).abs() < 1e-12, "split {split} group {g}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn merge_links_lineage_groups_across_shards() {
        // Same group key AND same lineage id split across shards must fold
        // into one lineage group: y = (1+2)² = 9, not 1² + 2² = 5.
        let mut a: GroupedMomentAccumulator<&str> = GroupedMomentAccumulator::new(1, 1);
        a.push_scalar("g", &[7], 1.0).unwrap();
        let mut b: GroupedMomentAccumulator<&str> = GroupedMomentAccumulator::new(1, 1);
        b.push_scalar("g", &[7], 2.0).unwrap();
        a.merge(&b).unwrap();
        let m = a.group(&"g").unwrap().snapshot();
        assert!((m.y_scalar(RelSet::singleton(0)) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn bad_pushes_leave_no_phantom_group() {
        let mut acc: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(2, 1);
        assert!(acc.push_scalar(0, &[1], 1.0).is_err()); // lineage arity
        assert!(acc.push(0, &[1, 2], &[1.0, 2.0]).is_err()); // dims
        assert_eq!(acc.group_count(), 0);
        assert_eq!(acc.count(), 0);
    }

    #[test]
    fn push_batch_matches_per_row_and_validates_first() {
        let rows = sample_rows();
        let mut per_row: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(1, 1);
        for (key, lin, f) in &rows {
            per_row.push_scalar(*key, lin, *f).unwrap();
        }
        // Partition the rows by group and feed each partition as one batch.
        let mut batched: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(1, 1);
        for g in 0..3u32 {
            let lin: Vec<u64> = rows
                .iter()
                .filter(|(k, _, _)| *k == g)
                .map(|(_, l, _)| l[0])
                .collect();
            let f: Vec<f64> = rows
                .iter()
                .filter(|(k, _, _)| *k == g)
                .map(|(_, _, f)| *f)
                .collect();
            batched.push_batch(g, &[&lin], &[&f]).unwrap();
        }
        assert_eq!(batched.count(), per_row.count());
        assert_eq!(batched.group_count(), per_row.group_count());
        for g in 0..3u32 {
            let (a, b) = (
                batched.group(&g).unwrap().snapshot(),
                per_row.group(&g).unwrap().snapshot(),
            );
            for bits in 0..2u32 {
                let (x, y) = (
                    a.y_scalar(RelSet::from_bits(bits)),
                    b.y_scalar(RelSet::from_bits(bits)),
                );
                assert!((x - y).abs() < 1e-12, "group {g}: {x} vs {y}");
            }
        }
        // Bad batches leave no phantom group (validated before the map).
        let mut acc: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(2, 1);
        assert!(acc.push_batch(9, &[&[1, 2]], &[&[1.0, 2.0]]).is_err());
        assert!(acc.push_batch(9, &[&[1], &[2]], &[&[1.0], &[2.0]]).is_err());
        assert!(acc.push_batch(9, &[&[1], &[2, 3]], &[&[1.0]]).is_err());
        assert_eq!(acc.group_count(), 0);
        // Empty batch is a no-op that creates no group either.
        acc.push_batch(9, &[&[], &[]], &[&[]]).unwrap();
        assert_eq!(acc.group_count(), 0);
        assert_eq!(acc.count(), 0);
    }

    #[test]
    fn fingerprint_buckets_resolve_collisions_by_stored_key() {
        // Force a bucket collision by using a key type whose hash is
        // constant; distinct keys must stay distinct groups.
        #[derive(PartialEq, Eq, Clone, Debug)]
        struct SameHash(u32);
        impl std::hash::Hash for SameHash {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                state.write_u64(42);
            }
        }
        let mut acc: GroupedMomentAccumulator<SameHash> = GroupedMomentAccumulator::new(1, 1);
        acc.push_scalar(SameHash(0), &[1], 2.0).unwrap();
        acc.push_scalar(SameHash(1), &[1], 5.0).unwrap();
        acc.push_scalar(SameHash(0), &[2], 3.0).unwrap();
        assert_eq!(acc.group_count(), 2);
        let g0 = acc.group(&SameHash(0)).unwrap();
        assert_eq!(g0.count(), 2);
        assert!((g0.total()[0] - 5.0).abs() < 1e-12);
        let g1 = acc.group(&SameHash(1)).unwrap();
        assert!((g1.total()[0] - 5.0).abs() < 1e-12);
        assert_eq!(g1.count(), 1);
        // Merge across shards with colliding fingerprints stays group-aware.
        let mut other: GroupedMomentAccumulator<SameHash> = GroupedMomentAccumulator::new(1, 1);
        other.push_scalar(SameHash(1), &[1], 7.0).unwrap();
        other.push_scalar(SameHash(2), &[9], 1.0).unwrap();
        acc.merge(&other).unwrap();
        assert_eq!(acc.group_count(), 3);
        assert!((acc.group(&SameHash(1)).unwrap().total()[0] - 12.0).abs() < 1e-12);
    }

    #[test]
    fn discovery_order_is_stable_and_merge_appends_in_the_absorbed_order() {
        let mut acc: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(1, 1);
        for (i, g) in [7u32, 3, 7, 9, 3, 1].into_iter().enumerate() {
            acc.push_scalar(g, &[i as u64], 1.0).unwrap();
        }
        let order =
            |a: &GroupedMomentAccumulator<u32>| a.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        assert_eq!(order(&acc), vec![7, 3, 9, 1]);
        let mut delta: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(1, 1);
        for (i, g) in [5u32, 9, 2, 5, 8].into_iter().enumerate() {
            delta.push_scalar(g, &[100 + i as u64], 1.0).unwrap();
        }
        acc.merge(&delta).unwrap();
        // The known prefix has not moved; 9 was shared; 5, 2, 8 follow in
        // the order `delta` discovered them.
        assert_eq!(order(&acc), vec![7, 3, 9, 1, 5, 2, 8]);
        assert_eq!(acc.group(&5).map(|a| a.count()), Some(2));
    }

    #[test]
    fn merge_clones_a_key_only_for_a_group_it_adopts() {
        use std::cell::Cell;
        thread_local!(static CLONES: Cell<u32> = const { Cell::new(0) });
        #[derive(PartialEq, Eq, Hash, Debug)]
        struct Counted(u32);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.with(|c| c.set(c.get() + 1));
                Counted(self.0)
            }
        }
        let mut acc: GroupedMomentAccumulator<Counted> = GroupedMomentAccumulator::new(1, 1);
        let mut delta: GroupedMomentAccumulator<Counted> = GroupedMomentAccumulator::new(1, 1);
        for g in 0..5 {
            acc.push_scalar(Counted(g), &[1], 1.0).unwrap();
            delta.push_scalar(Counted(g), &[2], 1.0).unwrap();
        }
        delta.push_scalar(Counted(9), &[3], 1.0).unwrap();
        acc.merge(&delta).unwrap();
        assert_eq!(acc.group_count(), 6);
        assert_eq!(CLONES.with(Cell::get), 1, "only group 9 is new");
    }

    #[test]
    fn every_slot_inherits_the_mode_and_modes_do_not_merge() {
        let row = [RelSet::singleton(0)];
        let mut distinct: GroupedMomentAccumulator<u32> =
            GroupedMomentAccumulator::with_lineage(1, 1, &row);
        let mut general: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(1, 1);
        for (key, lin, f) in sample_rows().iter().take(5) {
            distinct.push_scalar(*key, lin, *f).unwrap();
            general.push_scalar(*key, lin, *f).unwrap();
        }
        assert_eq!(distinct.lineage_entries(), 0);
        assert_eq!(general.lineage_entries(), 5);
        for g in 0..3u32 {
            let (d, r) = (
                distinct.group(&g).unwrap().snapshot(),
                general.group(&g).unwrap().snapshot(),
            );
            let s = RelSet::singleton(0);
            assert!((d.y_scalar(s) - r.y_scalar(s)).abs() < 1e-12);
        }
        // Typed, even when the absorbed side is empty.
        assert_eq!(
            general.merge(&GroupedMomentAccumulator::with_lineage(1, 1, &row)),
            Err(CoreError::LineageModeMismatch)
        );
        assert_eq!(
            distinct.merge(&general),
            Err(CoreError::LineageModeMismatch)
        );
    }

    #[test]
    fn merge_schema_mismatches_rejected() {
        let mut acc: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(2, 1);
        assert!(acc
            .merge(&GroupedMomentAccumulator::<u32>::new(1, 1))
            .is_err());
        assert!(acc
            .merge(&GroupedMomentAccumulator::<u32>::new(2, 2))
            .is_err());
    }
}
