//! The prefix factor of a one-pass union, checked by enumeration.
//!
//! A union of samples streamed in one pass gives both branches the same
//! scan prefix `P` of each relation, so mid-stream its realized sample is
//! `(S₁ ∪ S₂) ∩ P` and its design `union(G₁, G₂) ⊙ WOR(k, N)` (Proposition 7,
//! then Proposition 8 with the prefix independent of the samplers). On
//! populations small enough to list every outcome of every sampler and
//! every `k`-prefix, the inclusion probabilities `P(t ∈ S)` and
//! `P(t, t′ ∈ S)` are exact sums, and must be that design's `a` and `b_T`
//! to 1e-12 — for two Bernoulli branches, two WOR branches, and a union
//! whose branches sample both sides of a join, prefixed on one side. The
//! per-branch composition `union(G₁ ⊙ W, G₂ ⊙ W)`, which would describe
//! branches with prefixes of their own, must miss.

use sa_core::{GusParams, LineageSchema, RelSet};

/// One sampler's outcomes over `n` units: `(probability, kept-set bitmask)`.
type Outcomes = Vec<(f64, u32)>;

fn bernoulli(n: u32, p: f64) -> Outcomes {
    (0..1u32 << n)
        .map(|m| {
            let k = m.count_ones() as i32;
            (p.powi(k) * (1.0 - p).powi(n as i32 - k), m)
        })
        .collect()
}

/// A uniform `k`-subset of `n` units: a WOR draw, and a random-order prefix.
fn wor(n: u32, k: u32) -> Outcomes {
    let sets: Vec<u32> = (0..1u32 << n).filter(|m| m.count_ones() == k).collect();
    let w = 1.0 / sets.len() as f64;
    sets.into_iter().map(|m| (w, m)).collect()
}

/// Every combination of independent samplers' outcomes, with its
/// probability.
fn worlds(samplers: &[Outcomes]) -> Vec<(f64, Vec<u32>)> {
    samplers
        .iter()
        .fold(vec![(1.0, Vec::new())], |acc, outcomes| {
            acc.iter()
                .flat_map(|(w, sets)| {
                    outcomes.iter().map(move |&(p, m)| {
                        let mut sets = sets.clone();
                        sets.push(m);
                        (w * p, sets)
                    })
                })
                .collect()
        })
}

/// `P(t ∈ S)` for every tuple, and `P(t, t′ ∈ S)` for every pair of
/// distinct tuples with the set of relations they agree on, where a world
/// keeps the tuples `kept` says.
fn inclusion(
    worlds: &[(f64, Vec<u32>)],
    tuples: &[Vec<u32>],
    kept: impl Fn(&[u32], &[u32]) -> bool,
) -> (Vec<f64>, Vec<(RelSet, f64)>) {
    let mut single = vec![0.0; tuples.len()];
    let mut pairs = Vec::new();
    for (i, t) in tuples.iter().enumerate() {
        for (j, u) in tuples.iter().enumerate().skip(i + 1) {
            let agree = (0..t.len()).filter(|&r| t[r] == u[r]);
            let agree = agree.fold(RelSet::EMPTY, RelSet::with);
            pairs.push((agree, (i, j)));
        }
    }
    let mut joint = vec![0.0; pairs.len()];
    for (w, sets) in worlds {
        let inside: Vec<bool> = tuples.iter().map(|t| kept(sets, t)).collect();
        for (s, &k) in single.iter_mut().zip(&inside) {
            *s += if k { *w } else { 0.0 };
        }
        for (p, &(_, (i, j))) in joint.iter_mut().zip(&pairs) {
            *p += if inside[i] && inside[j] { *w } else { 0.0 };
        }
    }
    let pairs = pairs
        .into_iter()
        .zip(joint)
        .map(|((t, _), p)| (t, p))
        .collect();
    (single, pairs)
}

/// The largest gap between the enumerated probabilities and `gus`.
fn gap(gus: &GusParams, (single, pairs): &(Vec<f64>, Vec<(RelSet, f64)>)) -> f64 {
    let a = single.iter().map(|p| (p - gus.a()).abs());
    let b = pairs.iter().map(|&(t, p)| (p - gus.b(t)).abs());
    a.chain(b).fold(0.0, f64::max)
}

/// Assert the one-pass design matches the enumeration and the per-branch
/// composition does not (whenever the prefix is partial).
fn check(
    what: &str,
    k: u64,
    n: u64,
    enumerated: &(Vec<f64>, Vec<(RelSet, f64)>),
    g1: &GusParams,
    g2: &GusParams,
    prefix: &GusParams,
) {
    let one_pass = g1.union(g2).unwrap().compact(prefix).unwrap();
    let err = gap(&one_pass, enumerated);
    assert!(
        err < 1e-12,
        "{what} k={k}: union(G₁, G₂) ⊙ WOR misses by {err}"
    );
    let per_branch = g1
        .compact(prefix)
        .unwrap()
        .union(&g2.compact(prefix).unwrap())
        .unwrap();
    if 0 < k && k < n {
        let err = gap(&per_branch, enumerated);
        assert!(
            err > 1e-6,
            "{what} k={k}: per-branch prefixes fit too ({err})"
        );
    }
}

#[test]
fn bernoulli_branches_under_one_prefix() {
    for n in 2..=6u32 {
        let tuples: Vec<Vec<u32>> = (0..n).map(|r| vec![r]).collect();
        for k in 0..=n {
            let (p1, p2) = (0.3, 0.55);
            let all = worlds(&[bernoulli(n, p1), bernoulli(n, p2), wor(n, k)]);
            let kept = |s: &[u32], t: &[u32]| ((s[0] | s[1]) & s[2]) >> t[0] & 1 == 1;
            let enumerated = inclusion(&all, &tuples, kept);
            let g = |p| GusParams::bernoulli("r", p).unwrap();
            let prefix = GusParams::wor("r", k.into(), n.into()).unwrap();
            check(
                "bernoulli",
                k.into(),
                n.into(),
                &enumerated,
                &g(p1),
                &g(p2),
                &prefix,
            );
        }
    }
}

#[test]
fn wor_branches_under_one_prefix() {
    for n in 2..=6u32 {
        let tuples: Vec<Vec<u32>> = (0..n).map(|r| vec![r]).collect();
        for (k1, k2) in [(1, 1), (1, n - 1), (n / 2, n / 2 + 1)] {
            for k in 0..=n {
                let all = worlds(&[wor(n, k1), wor(n, k2), wor(n, k)]);
                let kept = |s: &[u32], t: &[u32]| ((s[0] | s[1]) & s[2]) >> t[0] & 1 == 1;
                let enumerated = inclusion(&all, &tuples, kept);
                let g = |size: u32| GusParams::wor("r", size.into(), n.into()).unwrap();
                let prefix = g(k);
                check(
                    "wor",
                    k.into(),
                    n.into(),
                    &enumerated,
                    &g(k1),
                    &g(k2),
                    &prefix,
                );
            }
        }
    }
}

#[test]
fn a_union_over_a_join_prefixed_on_one_side() {
    // Branch i samples r with p_i and s with q_i; the union keeps a tuple
    // one branch keeps whole. r streams (a k-prefix of 3 rows); s is a
    // join's build side, fully read.
    let (nr, ns) = (3u32, 2u32);
    let (p, q) = ([0.4, 0.7], [0.6, 0.25]);
    let schema = LineageSchema::new(&["r", "s"]).unwrap();
    let tuples: Vec<Vec<u32>> = (0..nr)
        .flat_map(|r| (0..ns).map(move |s| vec![r, s]))
        .collect();
    let branch = |i: usize| {
        GusParams::bernoulli("r", p[i])
            .unwrap()
            .compose(&GusParams::bernoulli("s", q[i]).unwrap())
            .unwrap()
            .embed_by_name(schema.clone())
            .unwrap()
    };
    for k in 0..=nr {
        let all = worlds(&[
            bernoulli(nr, p[0]),
            bernoulli(ns, q[0]),
            bernoulli(nr, p[1]),
            bernoulli(ns, q[1]),
            wor(nr, k),
        ]);
        let kept = |s: &[u32], t: &[u32]| {
            let has = |m: u32, id: u32| m >> id & 1 == 1;
            let whole = |b: usize| has(s[2 * b], t[0]) && has(s[2 * b + 1], t[1]);
            (whole(0) || whole(1)) && has(s[4], t[0])
        };
        let enumerated = inclusion(&all, &tuples, kept);
        let prefix = GusParams::wor("r", k.into(), nr.into())
            .unwrap()
            .embed_by_name(schema.clone())
            .unwrap();
        check(
            "join",
            k.into(),
            nr.into(),
            &enumerated,
            &branch(0),
            &branch(1),
            &prefix,
        );
    }
}
