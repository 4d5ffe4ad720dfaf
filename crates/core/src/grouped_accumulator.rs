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
//! evaluated `GROUP BY` tuples (empty for a scalar query), a chunk's rows
//! looked up here once each ([`GroupedMomentAccumulator::push_rows`]): the
//! index is the only key → group map. Fingerprints are deterministic
//! ([`FpMap::fingerprint`], [`crate::hash::rel_salts`]), so independently
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

    /// Consume a whole chunk of one group: `lineage` holds one id column
    /// per base relation, `f` one value column per dimension (see
    /// [`crate::MomentAccumulator::push_batch`]). The key is hashed (and,
    /// for a new group, stored) once per chunk instead of once per row. The
    /// chunk is validated before the key is looked at, so a bad push — or
    /// an empty one — leaves no phantom group.
    pub fn push_batch(&mut self, key: K, lineage: &[&[u64]], f: &[&[f64]]) -> Result<()> {
        if self.slots.check_batch(lineage, f)? > 0 {
            let at = self.slots.ensure(self.index.insert(key));
            self.slots.push_batch(at, lineage, f);
        }
        Ok(())
    }

    /// Consume a chunk of many groups, each row finding its group once:
    /// row `i`'s key has fingerprint `fps[i]` (what [`FpMap::fingerprint`]
    /// gives for it), `is(i, key)` says whether it equals a stored `key`,
    /// and `key(i)` builds it — called only for a group the chunk
    /// discovers. Each slot the chunk touches then takes its rows, in chunk
    /// order, as one [`GroupedMomentAccumulator::push_batch`] would, slots
    /// in the order the chunk first touches them. The chunk is validated
    /// before any row is looked up, so a refused chunk interns no group.
    pub fn push_rows(
        &mut self,
        fps: &[u64],
        is: impl Fn(usize, &K) -> bool,
        mut key: impl FnMut(usize) -> K,
        lineage: &[&[u64]],
        f: &[&[f64]],
    ) -> Result<()> {
        let rows = self.slots.check_batch(lineage, f)?;
        assert_eq!(fps.len(), rows, "one fingerprint per row");
        // Row → part: the slots the chunk touches, numbered as it first
        // touches them (`part_of_slot`, `u32::MAX` for the rest), each part
        // a (slot, row count) pair.
        let mut part_of_slot = vec![u32::MAX; self.index.len()];
        let mut parts: Vec<(usize, usize)> = Vec::new();
        let mut part_of_row = Vec::with_capacity(rows);
        for (i, &fp) in fps.iter().enumerate() {
            let at = self.index.find(fp, |k| is(i, k)).unwrap_or_else(|| {
                part_of_slot.push(u32::MAX);
                self.slots.ensure(self.index.append(fp, key(i)))
            });
            let part = &mut part_of_slot[at];
            if *part == u32::MAX {
                *part = parts.len() as u32;
                parts.push((at, 0));
            }
            parts[*part as usize].1 += 1;
            part_of_row.push(*part as usize);
        }
        // Counting sort of the rows by part: each part's cursor starts where
        // the one before it ends and, once every row is placed, stands at
        // its own end.
        let mut placed = 0;
        for (_, n) in &mut parts {
            (*n, placed) = (placed, placed + *n);
        }
        let mut by_part = vec![0; rows];
        for (i, &part) in part_of_row.iter().enumerate() {
            by_part[parts[part].1] = i;
            parts[part].1 += 1;
        }
        let (lineage, f) = (gather(lineage, &by_part), gather(f, &by_part));
        let (mut part_lineage, mut part_f) = (Vec::new(), Vec::new());
        let mut start = 0;
        for (at, end) in parts {
            part_lineage.clear();
            part_lineage.extend(lineage.iter().map(|c| &c[start..end]));
            part_f.clear();
            part_f.extend(f.iter().map(|c| &c[start..end]));
            self.slots.push_batch(at, &part_lineage, &part_f);
            start = end;
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

/// The `rows` of every column, in order.
fn gather<T: Copy>(cols: &[&[T]], rows: &[usize]) -> Vec<Vec<T>> {
    cols.iter()
        .map(|col| rows.iter().map(|&r| col[r]).collect())
        .collect()
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

    /// `acc`'s slots, key by key in discovery order, as exact bits.
    fn slot_bits(acc: &GroupedMomentAccumulator<u32>) -> Vec<(u32, u64, Vec<u64>)> {
        acc.iter()
            .map(|(key, slot)| {
                let bits = slot.total().iter().chain(slot.y()).map(|v| v.to_bits());
                (*key, slot.count(), bits.collect())
            })
            .collect()
    }

    /// `push_rows` with `keys[i]` as row `i`'s key, fingerprinted as the
    /// index fingerprints it (or all under `forced`, when given).
    fn push_keyed(
        acc: &mut GroupedMomentAccumulator<u32>,
        keys: &[u32],
        forced: Option<u64>,
        lineage: &[&[u64]],
        f: &[&[f64]],
    ) -> Result<()> {
        let fps: Vec<u64> = keys
            .iter()
            .map(|k| forced.unwrap_or_else(|| FpMap::fingerprint(k)))
            .collect();
        acc.push_rows(&fps, |i, k| keys[i] == *k, |i| keys[i], lineage, f)
    }

    #[test]
    fn push_rows_is_one_push_batch_per_group_in_chunk_order() {
        // Two relations, so every kept `S` keeps a lineage table; lineage
        // ids come in runs (one push pays per run of equal ids) and keys
        // are dealt in a shuffled order; values that do not add exactly, so
        // any other summation order moves a bit.
        let rows = 97;
        let mut draw = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            draw = crate::hash::splitmix64(draw);
            draw
        };
        let keys: Vec<u32> = (0..rows).map(|_| (next() % 7) as u32 * 3).collect();
        let a: Vec<u64> = (0..rows as u64).map(|r| r / 4).collect();
        let b: Vec<u64> = (0..rows).map(|_| next() % 5).collect();
        let v: Vec<f64> = (0..rows).map(|r| 0.1 * r as f64 + 1.0 / 3.0).collect();
        let w: Vec<f64> = (0..rows).map(|_| (next() % 1000) as f64 * 1.1).collect();
        let (lineage, f): ([&[u64]; 2], [&[f64]; 2]) = ([&a, &b], [&v, &w]);
        // Each chunk once through `push_rows`, and once as one `push_batch`
        // per key, keys in first-seen order, rows in chunk order.
        let (mut by_rows, mut by_batch) = (
            GroupedMomentAccumulator::new(2, 2),
            GroupedMomentAccumulator::new(2, 2),
        );
        for chunk in [0..40, 40..41, 41..rows] {
            let cut = |c: &[u64]| c[chunk.clone()].to_vec();
            let (lin, val) = (lineage.map(cut), f.map(|c| c[chunk.clone()].to_vec()));
            let keys = &keys[chunk.clone()];
            let lin_refs: Vec<&[u64]> = lin.iter().map(Vec::as_slice).collect();
            let val_refs: Vec<&[f64]> = val.iter().map(Vec::as_slice).collect();
            push_keyed(&mut by_rows, keys, None, &lin_refs, &val_refs).unwrap();
            let mut seen = Vec::new();
            for &k in keys {
                if seen.contains(&k) {
                    continue;
                }
                seen.push(k);
                let mine: Vec<usize> = (0..keys.len()).filter(|&i| keys[i] == k).collect();
                let pick = |c: &Vec<u64>| mine.iter().map(|&i| c[i]).collect::<Vec<_>>();
                let lin: Vec<Vec<u64>> = lin.iter().map(pick).collect();
                let val: Vec<Vec<f64>> = val
                    .iter()
                    .map(|c| mine.iter().map(|&i| c[i]).collect())
                    .collect();
                let lin: Vec<&[u64]> = lin.iter().map(Vec::as_slice).collect();
                let val: Vec<&[f64]> = val.iter().map(Vec::as_slice).collect();
                by_batch.push_batch(k, &lin, &val).unwrap();
            }
        }
        assert!(by_rows.group_count() >= 5);
        assert!(by_rows.lineage_entries() > 0);
        assert_eq!(by_rows.lineage_entries(), by_batch.lineage_entries());
        assert_eq!(slot_bits(&by_rows), slot_bits(&by_batch));
    }

    #[test]
    fn refused_push_rows_intern_no_group() {
        let mut acc: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(2, 1);
        let keys = [4, 5];
        // One lineage column for two relations; three value rows for two
        // ids.
        assert!(push_keyed(&mut acc, &keys, None, &[&[1, 2]], &[&[1.0, 2.0]]).is_err());
        assert!(push_keyed(&mut acc, &keys, None, &[&[1, 2], &[3, 4]], &[&[1.0; 3]]).is_err());
        assert_eq!(acc.group_count(), 0);
        assert_eq!(acc.count(), 0);
        push_keyed(&mut acc, &[], None, &[&[], &[]], &[&[]]).unwrap();
        assert_eq!(acc.group_count(), 0);
    }

    #[test]
    fn keys_under_one_forced_fingerprint_stay_two_slots() {
        let mut acc: GroupedMomentAccumulator<u32> = GroupedMomentAccumulator::new(1, 1);
        let keys = [8, 3, 8, 8, 3];
        let ids: [u64; 5] = [1, 2, 3, 4, 5];
        let f = [1.0, 10.0, 2.0, 4.0, 20.0];
        push_keyed(&mut acc, &keys, Some(42), &[&ids], &[&f]).unwrap();
        push_keyed(&mut acc, &[3], Some(42), &[&[6]], &[&[40.0]]).unwrap();
        let got: Vec<(u32, u64, f64)> = acc
            .iter()
            .map(|(k, slot)| (*k, slot.count(), slot.total()[0]))
            .collect();
        assert_eq!(got, vec![(8, 3, 7.0), (3, 3, 70.0)]);
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
