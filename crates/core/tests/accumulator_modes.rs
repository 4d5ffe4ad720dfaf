//! Generated differential of the two accumulator modes against the
//! definition of `y_S`.
//!
//! On duplicate-free lineage — arity 1–3 × dims 1–5 × arbitrary chunk
//! splits × arbitrary merge trees — the lineage-distinct
//! [`MomentAccumulator`], the general one and the one-pass
//! [`GroupedMoments`] reference agree on every `y_S` to 1e-9. With
//! deliberate duplicates the general accumulator still matches the
//! reference, so the slab tables and the run collapse are pinned on both
//! paths.

use std::collections::HashSet;

use proptest::prelude::*;
use sa_core::{CoreError, GroupedMoments, MomentAccumulator, Moments};

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

fn push_chunk(acc: &mut MomentAccumulator, chunk: &[Row], n: usize, dims: usize) {
    let lineage: Vec<Vec<u64>> = (0..n)
        .map(|i| chunk.iter().map(|(ids, _)| ids[i]).collect())
        .collect();
    let f: Vec<Vec<f64>> = (0..dims)
        .map(|d| chunk.iter().map(|(_, f)| f[d]).collect())
        .collect();
    let lineage: Vec<&[u64]> = lineage.iter().map(Vec::as_slice).collect();
    let f: Vec<&[f64]> = f.iter().map(Vec::as_slice).collect();
    acc.push_batch(&lineage, &f).unwrap();
}

/// Cut `rows` into chunks of the sizes `cuts` cycles through, deal the
/// chunks to `shards` accumulators as `picks` says, and merge the shards
/// two at a time — which two, and which way round, again by `picks` —
/// until one is left.
fn accumulate(
    rows: &[Row],
    (n, dims, distinct): (usize, usize, bool),
    cuts: &[usize],
    shards: usize,
    picks: &[usize],
) -> MomentAccumulator {
    let mut pick = picks.iter().copied().cycle();
    let mut accs: Vec<MomentAccumulator> = (0..shards)
        .map(|_| MomentAccumulator::with_lineage(n, dims, distinct))
        .collect();
    let (mut at, mut sizes) = (0, cuts.iter().copied().cycle());
    while at < rows.len() {
        let end = (at + sizes.next().unwrap()).min(rows.len());
        let shard = pick.next().unwrap() % shards;
        push_chunk(&mut accs[shard], &rows[at..end], n, dims);
        at = end;
    }
    while accs.len() > 1 {
        let from = accs.swap_remove(pick.next().unwrap() % accs.len());
        let into = pick.next().unwrap() % accs.len();
        accs[into].merge(&from).unwrap();
    }
    accs.pop().unwrap()
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
        clustered in any::<bool>(),
        cuts in prop::collection::vec(1usize..12, 1..6),
        shards in 1usize..5,
        picks in prop::collection::vec(0usize..1000, 1..12),
    ) {
        let with_duplicates = rows_of(&raw, n, dims, clustered);
        let mut seen = HashSet::new();
        let duplicate_free: Vec<Row> = with_duplicates
            .iter()
            .filter(|(ids, _)| seen.insert(ids.clone()))
            .cloned()
            .collect();

        let want = reference(&duplicate_free, n, dims);
        let general = accumulate(&duplicate_free, (n, dims, false), &cuts, shards, &picks);
        let distinct = accumulate(&duplicate_free, (n, dims, true), &cuts, shards, &picks);
        assert_moments_close(&general.snapshot(), &want, "general, duplicate-free");
        assert_moments_close(&distinct.snapshot(), &want, "distinct");
        // The distinct mode holds every table but the full set's, whose
        // groups are the tuples themselves.
        prop_assert_eq!(
            distinct.lineage_entries() + duplicate_free.len(),
            general.lineage_entries()
        );
        if n == 1 {
            prop_assert_eq!(distinct.lineage_entries(), 0);
        }

        let want = reference(&with_duplicates, n, dims);
        let general = accumulate(&with_duplicates, (n, dims, false), &cuts, shards, &picks);
        assert_moments_close(&general.snapshot(), &want, "general, with duplicates");
    }
}

#[test]
fn modes_do_not_merge() {
    let mut general = MomentAccumulator::new(2, 1);
    let mut distinct = MomentAccumulator::with_lineage(2, 1, true);
    for acc in [&mut general, &mut distinct] {
        acc.push_scalar(&[1, 2], 3.0).unwrap();
    }
    assert_eq!(
        general.merge(&distinct),
        Err(CoreError::LineageModeMismatch)
    );
    assert_eq!(
        distinct.merge(&general),
        Err(CoreError::LineageModeMismatch)
    );
    // A refused merge leaves the target as it was.
    assert_eq!((general.count(), distinct.count()), (1, 1));
    assert_eq!(
        (general.lineage_entries(), distinct.lineage_entries()),
        (3, 2)
    );
}
