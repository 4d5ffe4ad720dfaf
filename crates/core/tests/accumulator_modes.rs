//! Generated differential of the accumulator over a distinct family against
//! the definition of `y_S`.
//!
//! A family is drawn (up to three relation subsets, the empty family
//! included) and the generated rows are thinned until they honour it: no
//! two rows share their projection on any set of it. On those rows — arity
//! 1–3 × dims 1–5 × arbitrary chunk splits × arbitrary merge trees — the
//! [`MomentAccumulator`] promised the family, the general one and the
//! one-pass [`GroupedMoments`] reference agree on every `y_S` to 1e-9, and
//! the promised one holds exactly the general one's entries less one per
//! row for every `S` of the family's up-set. With deliberate duplicates the
//! general accumulator still matches the reference, so the slab tables and
//! the run collapse are pinned on both paths; the empty family is the
//! general accumulator, bit for bit.
//!
//! The same generator with a group axis — rows keyed from a pool of five,
//! a key only one shard sees, a lineage id under two keys — pins that a
//! [`GroupedMomentAccumulator`] is slots of that arithmetic over shared
//! lineage tables: every group's moments are the reference fed that
//! group's rows, lineage entries add up over groups, and one key reads, to
//! the bit, what the one-slot accumulator reads. Accumulators over
//! different families refuse to merge.

use std::collections::HashSet;

use proptest::prelude::*;
use sa_core::{
    CoreError, GroupedMomentAccumulator, GroupedMoments, MomentAccumulator, Moments, RelSet,
};

const TOL: f64 = 1e-9;

/// One result tuple: lineage (one id per relation) and aggregate vector.
type Row = (Vec<u64>, Vec<f64>);

/// Shape raw draws into `n`-relation, `dims`-dimension rows. Ids come from
/// a range small enough that every proper projection repeats; `clustered`
/// sorts by the first relation's id so chunks hold runs of equal keys.
fn rows_of(raw: &[Row], n: usize, dims: usize, clustered: bool) -> Vec<Row> {
    let range = [64, 8, 4][n - 1];
    let mut rows: Vec<Row> = raw
        .iter()
        .map(|(ids, f)| {
            (
                ids[..n].iter().map(|id| id % range).collect(),
                f[..dims].to_vec(),
            )
        })
        .collect();
    if clustered {
        rows.sort_by_key(|(ids, _)| ids[0]);
    }
    rows
}

/// A family over `n` relations: each raw draw names a non-empty subset.
fn family_of(raw: &[u32], n: usize) -> Vec<RelSet> {
    let subsets = (1u32 << n) - 1;
    raw.iter()
        .map(|bits| RelSet::from_bits(bits % subsets + 1))
        .collect()
}

/// The non-empty subsets of `n` relations that contain a set of `family`:
/// the ones the promised accumulator keeps no table for.
fn up_set(family: &[RelSet], n: usize) -> Vec<RelSet> {
    (1u32..1 << n)
        .map(RelSet::from_bits)
        .filter(|s| family.iter().any(|d| d.is_subset_of(*s)))
        .collect()
}

/// The rows of `rows`, in order, whose projection on every set of
/// `family` no earlier kept row shares.
fn honouring<T: Clone>(rows: &[T], family: &[RelSet], ids: impl Fn(&T) -> &[u64]) -> Vec<T> {
    let mut seen = HashSet::new();
    rows.iter()
        .filter(|row| {
            let keys: Vec<(RelSet, Vec<u64>)> = family
                .iter()
                .map(|d| (*d, d.iter().map(|i| ids(row)[i]).collect()))
                .collect();
            let fresh = keys.iter().all(|key| !seen.contains(key));
            if fresh {
                seen.extend(keys);
            }
            fresh
        })
        .cloned()
        .collect()
}

/// A row of a `GROUP BY`: its key and the row.
type KeyedRow = (u8, Row);

/// `chunk` column-major — one id column per relation, one value column per
/// dimension — handed to `push` as slices.
fn with_columns<T>(
    chunk: &[Row],
    n: usize,
    dims: usize,
    push: impl FnOnce(&[&[u64]], &[&[f64]]) -> T,
) -> T {
    let lineage: Vec<Vec<u64>> = (0..n)
        .map(|i| chunk.iter().map(|(ids, _)| ids[i]).collect())
        .collect();
    let f: Vec<Vec<f64>> = (0..dims)
        .map(|d| chunk.iter().map(|(_, f)| f[d]).collect())
        .collect();
    let lineage: Vec<&[u64]> = lineage.iter().map(Vec::as_slice).collect();
    let f: Vec<&[f64]> = f.iter().map(Vec::as_slice).collect();
    push(&lineage, &f)
}

fn push_chunk(acc: &mut MomentAccumulator, chunk: &[Row], n: usize, dims: usize) {
    with_columns(chunk, n, dims, |lineage, f| acc.push_batch(lineage, f)).unwrap();
}

/// Push `chunk` as the grouped online driver does: one batch per key, keys
/// in first-seen order, rows in chunk order within each.
fn push_partitions(
    acc: &mut GroupedMomentAccumulator<u8>,
    chunk: &[KeyedRow],
    n: usize,
    dims: usize,
) {
    let mut keys: Vec<u8> = Vec::new();
    for (key, _) in chunk {
        if !keys.contains(key) {
            keys.push(*key);
        }
    }
    for key in keys {
        let part: Vec<Row> = chunk
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, row)| row.clone())
            .collect();
        with_columns(&part, n, dims, |lineage, f| acc.push_batch(key, lineage, f)).unwrap();
    }
}

/// How rows reach the accumulator that is read: cut into chunks of the
/// sizes `cuts` cycles through, the chunks dealt to `shards` accumulators
/// as `picks` says, and the shards merged two at a time — which two, and
/// which way round, again by `picks` — until one is left.
struct Deal<'a> {
    cuts: &'a [usize],
    shards: usize,
    picks: &'a [usize],
}

impl Deal<'_> {
    /// Deal `rows`, then `lonely` as one more chunk to a single shard, and
    /// merge.
    fn run<T, A>(
        &self,
        rows: &[T],
        lonely: &[T],
        new: impl Fn() -> A,
        push: impl Fn(&mut A, &[T]),
        merge: impl Fn(&mut A, &A),
    ) -> A {
        let mut pick = self.picks.iter().copied().cycle();
        let mut accs: Vec<A> = (0..self.shards).map(|_| new()).collect();
        let (mut at, mut sizes) = (0, self.cuts.iter().copied().cycle());
        while at < rows.len() {
            let end = (at + sizes.next().unwrap()).min(rows.len());
            let shard = pick.next().unwrap() % self.shards;
            push(&mut accs[shard], &rows[at..end]);
            at = end;
        }
        if !lonely.is_empty() {
            push(&mut accs[self.picks[0] % self.shards], lonely);
        }
        while accs.len() > 1 {
            let from = accs.swap_remove(pick.next().unwrap() % accs.len());
            let into = pick.next().unwrap() % accs.len();
            merge(&mut accs[into], &from);
        }
        accs.pop().unwrap()
    }
}

fn accumulate(
    rows: &[Row],
    (n, dims, distinct): (usize, usize, &[RelSet]),
    cuts: &[usize],
    shards: usize,
    picks: &[usize],
) -> MomentAccumulator {
    Deal {
        cuts,
        shards,
        picks,
    }
    .run(
        rows,
        &[],
        || MomentAccumulator::with_lineage(n, dims, distinct),
        |acc, chunk| push_chunk(acc, chunk, n, dims),
        |into, from| into.merge(from).unwrap(),
    )
}

fn accumulate_grouped(
    rows: &[KeyedRow],
    lonely: &[KeyedRow],
    (n, dims, distinct): (usize, usize, &[RelSet]),
    deal: &Deal,
) -> GroupedMomentAccumulator<u8> {
    deal.run(
        rows,
        lonely,
        || GroupedMomentAccumulator::with_lineage(n, dims, distinct),
        |acc, chunk| push_partitions(acc, chunk, n, dims),
        |into, from| into.merge(from).unwrap(),
    )
}

fn reference(rows: &[Row], n: usize, dims: usize) -> Moments {
    let mut m = GroupedMoments::new(n, dims);
    for (ids, f) in rows {
        m.push(ids, f).unwrap();
    }
    m.finish()
}

fn assert_moments_close(got: &Moments, want: &Moments, what: &str) {
    assert_eq!(got.count, want.count, "{what}: count");
    for (x, y) in got.total.iter().zip(&want.total) {
        assert!(
            (x - y).abs() <= TOL * (1.0 + y.abs()),
            "{what}: total {x} vs {y}"
        );
    }
    for s in 0..want.y.len() {
        for p in 0..want.dims {
            for q in 0..want.dims {
                let (x, y) = (got.y[s].get(p, q), want.y[s].get(p, q));
                assert!(
                    (x - y).abs() <= TOL * (1.0 + y.abs()),
                    "{what}: y[{s}][{p},{q}] {x} vs {y}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn both_modes_match_the_reference_on_any_split_and_merge_tree(
        n in 1usize..4,
        dims in 1usize..6,
        raw in prop::collection::vec(
            (prop::collection::vec(0u64..64, 3usize), prop::collection::vec(-50.0f64..50.0, 5usize)),
            0..70,
        ),
        family in prop::collection::vec(0u32..1000, 0..4),
        clustered in any::<bool>(),
        cuts in prop::collection::vec(1usize..12, 1..6),
        shards in 1usize..5,
        picks in prop::collection::vec(0usize..1000, 1..12),
    ) {
        let family = family_of(&family, n);
        let with_duplicates = rows_of(&raw, n, dims, clustered);
        let rows = honouring(&with_duplicates, &family, |(ids, _)| ids);

        let want = reference(&rows, n, dims);
        let general = accumulate(&rows, (n, dims, &[]), &cuts, shards, &picks);
        let distinct = accumulate(&rows, (n, dims, &family), &cuts, shards, &picks);
        assert_moments_close(&general.snapshot(), &want, "general, honouring");
        assert_moments_close(&distinct.snapshot(), &want, &format!("family {family:?}"));
        // The promised accumulator holds every table but the up-set's,
        // whose groups are the rows themselves.
        prop_assert_eq!(
            distinct.lineage_entries() + up_set(&family, n).len() * rows.len(),
            general.lineage_entries()
        );

        let want = reference(&with_duplicates, n, dims);
        let general = accumulate(&with_duplicates, (n, dims, &[]), &cuts, shards, &picks);
        assert_moments_close(&general.snapshot(), &want, "general, with duplicates");
        // The empty family is the general accumulator, bit for bit.
        let empty = Deal { cuts: &cuts, shards, picks: &picks }.run(
            &with_duplicates,
            &[],
            || MomentAccumulator::new(n, dims),
            |acc, chunk| push_chunk(acc, chunk, n, dims),
            |into, from| into.merge(from).unwrap(),
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(empty.total()), bits(general.total()));
        prop_assert_eq!(bits(empty.y()), bits(general.y()));
        prop_assert_eq!(empty.lineage_entries(), general.lineage_entries());
    }

    #[test]
    fn every_group_is_a_slot_of_the_same_arithmetic(
        n in 1usize..4,
        dims in 1usize..6,
        raw in prop::collection::vec(
            (prop::collection::vec(0u64..64, 3usize), prop::collection::vec(-50.0f64..50.0, 5usize)),
            0..70,
        ),
        keys in prop::collection::vec(0u8..4, 70usize),
        family in prop::collection::vec(0u32..1000, 0..4),
        clustered in any::<bool>(),
        cuts in prop::collection::vec(1usize..12, 1..6),
        shards in 1usize..5,
        picks in prop::collection::vec(0usize..1000, 1..12),
    ) {
        let family = family_of(&family, n);
        let deal = Deal { cuts: &cuts, shards, picks: &picks };
        let mut with_duplicates: Vec<KeyedRow> =
            keys.iter().copied().zip(rows_of(&raw, n, dims, clustered)).collect();
        // Relation 0's id 100 — outside every generated range — under keys
        // 0 and 1. A family with a set inside `{0}` keeps only the first.
        with_duplicates.push((0, ([100, 1, 1][..n].to_vec(), vec![1.5; dims])));
        with_duplicates.push((1, ([100, 2, 2][..n].to_vec(), vec![-2.5; dims])));
        // Key 4 reaches one shard only, as a chunk of its own.
        let lonely: Vec<KeyedRow> = vec![(4, (vec![1000; n], vec![4.0; dims]))];
        let honoured = honouring(&with_duplicates, &family, |(_, (ids, _))| ids);

        for (rows, distinct) in [
            (&honoured, &[][..]),
            (&honoured, &family[..]),
            (&with_duplicates, &[][..]),
        ] {
            let acc = accumulate_grouped(rows, &lonely, (n, dims, distinct), &deal);
            let all: Vec<&KeyedRow> = rows.iter().chain(&lonely).collect();
            let mut group_keys: Vec<u8> = all.iter().map(|(key, _)| *key).collect();
            group_keys.sort_unstable();
            group_keys.dedup();
            prop_assert_eq!(acc.group_count(), group_keys.len());
            prop_assert_eq!(acc.count(), all.len() as u64);
            let mut entries = 0;
            for key in group_keys {
                let own: Vec<Row> = all
                    .iter()
                    .filter(|(k, _)| *k == key)
                    .map(|(_, row)| row.clone())
                    .collect();
                let slot = acc.group(&key).unwrap();
                let what = format!("group {key}, family {distinct:?}");
                assert_moments_close(&slot.snapshot(), &reference(&own, n, dims), &what);
                let mut alone = MomentAccumulator::with_lineage(n, dims, distinct);
                push_chunk(&mut alone, &own, n, dims);
                entries += alone.lineage_entries();
            }
            // One table per subset over every slot holds exactly the
            // groups' own tables.
            prop_assert_eq!(acc.lineage_entries(), entries);
        }

        // One key: the same pushes read the same bits as the one-slot
        // accumulator, over either family.
        for (rows, distinct) in [(&with_duplicates, &[][..]), (&honoured, &family[..])] {
            let mut grouped = GroupedMomentAccumulator::with_lineage(n, dims, distinct);
            let mut scalar = MomentAccumulator::with_lineage(n, dims, distinct);
            let plain: Vec<Row> = rows.iter().map(|(_, row)| row.clone()).collect();
            let (mut at, mut sizes) = (0, cuts.iter().copied().cycle());
            while at < plain.len() {
                let end = (at + sizes.next().unwrap()).min(plain.len());
                with_columns(&plain[at..end], n, dims, |lineage, f| grouped.push_batch((), lineage, f))
                    .unwrap();
                push_chunk(&mut scalar, &plain[at..end], n, dims);
                at = end;
            }
            let slot = grouped.group(&()).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(slot.count(), scalar.count());
            prop_assert_eq!(bits(slot.total()), bits(scalar.total()));
            prop_assert_eq!(bits(slot.y()), bits(scalar.y()));
        }
    }
}

#[test]
fn modes_do_not_merge() {
    let (r0, r1) = (RelSet::singleton(0), RelSet::singleton(1));
    let families: [&[RelSet]; 4] = [&[], &[r0.union(r1)], &[r0], &[r1]];
    for (i, ours) in families.iter().enumerate() {
        for (j, theirs) in families.iter().enumerate() {
            let mut acc = MomentAccumulator::with_lineage(2, 1, ours);
            let mut other = MomentAccumulator::with_lineage(2, 1, theirs);
            for a in [&mut acc, &mut other] {
                a.push_scalar(&[1, 2], 3.0).unwrap();
            }
            let merged = acc.merge(&other);
            if i == j {
                assert_eq!(merged, Ok(()));
                assert_eq!(acc.count(), 2);
            } else {
                assert_eq!(
                    merged,
                    Err(CoreError::LineageModeMismatch),
                    "{ours:?} ← {theirs:?}"
                );
                // A refused merge leaves the target as it was.
                assert_eq!(acc.count(), 1);
            }
        }
    }
    // Entries: a table per subset outside the up-set, one group each.
    let entries = |family: &[RelSet]| {
        let mut acc = MomentAccumulator::with_lineage(2, 1, family);
        acc.push_scalar(&[1, 2], 3.0).unwrap();
        acc.lineage_entries()
    };
    assert_eq!(families.map(entries), [3, 2, 1, 1]);
    // One up-set named two ways is one family.
    let mut minimal = MomentAccumulator::with_lineage(2, 1, &[r0]);
    let redundant = MomentAccumulator::with_lineage(2, 1, &[r0.union(r1), r0]);
    assert_eq!(minimal.merge(&redundant), Ok(()));
    let mut grouped = GroupedMomentAccumulator::<u8>::with_lineage(2, 1, &[r0]);
    assert_eq!(
        grouped.merge(&GroupedMomentAccumulator::with_lineage(2, 1, &[r1])),
        Err(CoreError::LineageModeMismatch)
    );
}
