//! GUS parameters `G(a, b̄)` and the operations of the sampling algebra.
//!
//! A [`GusParams`] records, for a generalized-uniform-sampling process over a
//! [`LineageSchema`] of `n` base relations (Definition 1 of the paper):
//!
//! * `a = P[t ∈ 𝓡]` — first-order inclusion probability (identical for all
//!   `t` by uniformity), and
//! * `b_T = P[t, t' ∈ 𝓡 | T(t,t') = T]` for every `T ⊆ {1..n}` — the pair
//!   inclusion probability given that `t` and `t'` agree on *exactly* the
//!   base relations in `T` — stored densely, indexed by `RelSet::index()`.
//!
//! The algebra (Propositions 4–9) lives here as methods: [`GusParams::join`]
//! (disjoint lineage), [`GusParams::compact`] (stacking on the same lineage),
//! [`GusParams::union`] (combining two independent samples),
//! [`GusParams::compose`] (multi-dimensional design, an alias of `join`), and
//! [`GusParams::embed`] (re-expressing a method over a wider lineage schema,
//! which is what makes Proposition 4's identity insertions and the rewriter's
//! bookkeeping trivial).

use std::fmt;
use std::sync::Arc;

use crate::coeffs::{d_coeffs_for, moebius_transform};
use crate::error::CoreError;
use crate::relset::{map_set, LineageSchema, RelSet};
use crate::Result;

/// Tolerance for probability-range validation. Combinators multiply a chain
/// of probabilities, so tiny negative excursions from rounding are tolerated
/// and clamped.
const PROB_EPS: f64 = 1e-9;

/// The parameters `G(a, b̄)` of a GUS method over a lineage schema.
#[derive(Debug, Clone)]
pub struct GusParams {
    schema: Arc<LineageSchema>,
    a: f64,
    /// Dense table of `b_T`, indexed by `T.index()`; length `2^n`.
    b: Box<[f64]>,
    /// The relations this method actually samples (bits where the process is
    /// not trivially "keep everything"). Purely diagnostic; the algebra is
    /// correct regardless.
    support: RelSet,
}

impl GusParams {
    /// Build from raw parts, validating ranges and table length.
    pub fn new(schema: Arc<LineageSchema>, a: f64, b: Vec<f64>) -> Result<GusParams> {
        let n = schema.n();
        if b.len() != 1usize << n {
            return Err(CoreError::InvalidParam(format!(
                "b̄ table has {} entries, expected 2^{n}",
                b.len()
            )));
        }
        validate_prob("a", a)?;
        let mut b = b;
        for (i, v) in b.iter_mut().enumerate() {
            validate_prob(&format!("b[{i:#b}]"), *v)?;
            *v = v.clamp(0.0, 1.0);
        }
        Ok(GusParams {
            support: schema.full(),
            schema,
            a: a.clamp(0.0, 1.0),
            b: b.into_boxed_slice(),
        })
    }

    /// Proposition 4: the identity quasi-operator `G(1, 1̄)` — keeps
    /// everything, may be inserted anywhere in a plan.
    pub fn identity(schema: Arc<LineageSchema>) -> GusParams {
        let len = 1usize << schema.n();
        GusParams {
            schema,
            a: 1.0,
            b: vec![1.0; len].into_boxed_slice(),
            support: RelSet::EMPTY,
        }
    }

    /// The null method `G(0, 0̄)` — blocks everything (the additive identity
    /// of Theorem 2's semiring structure).
    pub fn null(schema: Arc<LineageSchema>) -> GusParams {
        let len = 1usize << schema.n();
        GusParams {
            support: schema.full(),
            schema,
            a: 0.0,
            b: vec![0.0; len].into_boxed_slice(),
        }
    }

    /// Figure 1, row 1 — Bernoulli(p) over a single relation:
    /// `a = p, b_∅ = p², b_R = p`.
    pub fn bernoulli(relation: impl AsRef<str>, p: f64) -> Result<GusParams> {
        validate_prob("p", p)?;
        let schema = LineageSchema::single(relation);
        Ok(GusParams {
            schema,
            a: p,
            b: vec![p * p, p].into_boxed_slice(),
            support: RelSet::singleton(0),
        })
    }

    /// Figure 1, row 2 — fixed-size sampling without replacement of `n` out
    /// of `population` tuples: `a = n/N, b_∅ = n(n−1)/(N(N−1)), b_R = n/N`.
    pub fn wor(relation: impl AsRef<str>, n: u64, population: u64) -> Result<GusParams> {
        if population == 0 || n > population {
            return Err(CoreError::InvalidParam(format!(
                "WOR sample size {n} out of population {population}"
            )));
        }
        let schema = LineageSchema::single(relation);
        let nn = n as f64;
        let cap = population as f64;
        let a = nn / cap;
        let b_empty = if population > 1 {
            nn * (nn - 1.0) / (cap * (cap - 1.0))
        } else {
            // Population of one: two *distinct* tuples cannot exist, so b_∅
            // is vacuous; define it as 0.
            0.0
        };
        Ok(GusParams {
            schema,
            a,
            b: vec![b_empty, a].into_boxed_slice(),
            support: RelSet::singleton(0),
        })
    }

    /// The lineage schema.
    pub fn schema(&self) -> &Arc<LineageSchema> {
        &self.schema
    }

    /// Number of base relations `n`.
    pub fn n(&self) -> usize {
        self.schema.n()
    }

    /// First-order inclusion probability `a`.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Pair inclusion probability `b_T`.
    pub fn b(&self, t: RelSet) -> f64 {
        self.b[t.index()]
    }

    /// The whole `b̄` table, indexed by `RelSet::index()`.
    pub fn b_table(&self) -> &[f64] {
        &self.b
    }

    /// `b_T` looked up by relation names.
    pub fn b_named<S: AsRef<str>>(&self, names: &[S]) -> Result<f64> {
        Ok(self.b(self.schema.rel_set(names)?))
    }

    /// Relations this method actually samples.
    pub fn support(&self) -> RelSet {
        self.support
    }

    /// A proper sampler satisfies `b_full = a` (a pair agreeing on every
    /// relation is a single tuple). Quasi-operators produced mid-rewrite
    /// always satisfy this too; the check tolerates rounding.
    pub fn is_proper(&self) -> bool {
        (self.b[self.schema.full().index()] - self.a).abs() <= 1e-9 * (1.0 + self.a)
    }

    /// Theorem 1's `c_S = Σ_{T⊆S} (−1)^{|S\T|} b_T` for all `S`, dense.
    pub fn c_coeffs(&self) -> Vec<f64> {
        moebius_transform(&self.b)
    }

    /// Section 6.3's `d_{S,V}` table for a fixed `S` (see
    /// [`crate::coeffs::d_coeffs_for`]).
    pub fn d_coeffs_for(&self, s: RelSet) -> Vec<f64> {
        d_coeffs_for(&self.b, s, self.n())
    }

    /// Re-express this method over a wider lineage `target`.
    ///
    /// `mapping[i]` gives the bit in `target` of this schema's relation `i`.
    /// Relations of `target` outside the image are untouched by the process
    /// (sampled with probability 1), so
    /// `b'_T = b_{pullback(T ∩ image)}` and `a' = a`: whether two tuples
    /// agree on an unsampled relation cannot change their joint survival.
    pub fn embed(&self, target: Arc<LineageSchema>, mapping: &[usize]) -> Result<GusParams> {
        if mapping.len() != self.n() {
            return Err(CoreError::DimensionMismatch {
                expected: self.n(),
                got: mapping.len(),
            });
        }
        for &m in mapping {
            if m >= target.n() {
                return Err(CoreError::InvalidParam(format!(
                    "mapping target bit {m} out of range for {target}"
                )));
            }
        }
        let tn = target.n();
        let mut b = vec![0.0; 1usize << tn];
        for (t_idx, slot) in b.iter_mut().enumerate() {
            let t = RelSet::from_bits(t_idx as u32);
            // Pull back T ∩ image through the mapping.
            let mut back = RelSet::EMPTY;
            for (i, &m) in mapping.iter().enumerate() {
                if t.contains(m) {
                    back = back.with(i);
                }
            }
            *slot = self.b[back.index()];
        }
        Ok(GusParams {
            schema: target,
            a: self.a,
            b: b.into_boxed_slice(),
            support: map_set(self.support, mapping),
        })
    }

    /// Embed by relation names: each of this schema's relations must appear
    /// in `target`.
    pub fn embed_by_name(&self, target: Arc<LineageSchema>) -> Result<GusParams> {
        let mapping: Result<Vec<usize>> = self
            .schema
            .names()
            .iter()
            .map(|nm| {
                target.bit(nm).ok_or_else(|| CoreError::UnknownRelation {
                    name: nm.to_string(),
                })
            })
            .collect();
        self.embed(target, &mapping?)
    }

    /// Proposition 6 (join) / Proposition 9 (composition): combine two
    /// independent GUS methods over **disjoint** lineage schemas.
    ///
    /// `a = a₁a₂`, `b_T = b₁_{T∩L₁} · b₂_{T∩L₂}`.
    pub fn join(&self, other: &GusParams) -> Result<GusParams> {
        let (schema, map_l, map_r) = LineageSchema::merge(&self.schema, &other.schema)?;
        let left = self.embed(schema.clone(), &map_l)?;
        let right = other.embed(schema, &map_r)?;
        // After embedding, the product over the merged schema is exactly the
        // proposition's formula.
        left.compact(&right)
    }

    /// Proposition 9's name for [`GusParams::join`]: composition of sampling
    /// methods over different relations into a multi-dimensional design.
    pub fn compose(&self, other: &GusParams) -> Result<GusParams> {
        self.join(other)
    }

    /// Proposition 8 (compaction): stack two independent GUS processes over
    /// the **same** lineage schema — `G₁(G₂(R))`, or equivalently intersect
    /// two independent samples. `a = a₁a₂`, `b_T = b₁_T·b₂_T`.
    pub fn compact(&self, other: &GusParams) -> Result<GusParams> {
        self.check_same_schema(other)?;
        let b = self
            .b
            .iter()
            .zip(other.b.iter())
            .map(|(x, y)| x * y)
            .collect::<Vec<f64>>();
        Ok(GusParams {
            schema: self.schema.clone(),
            a: self.a * other.a,
            b: b.into_boxed_slice(),
            support: self.support.union(other.support),
        })
    }

    /// Proposition 7 (union): combine two **independent** samples of the same
    /// expression. `a = a₁+a₂−a₁a₂`,
    /// `b_T = 2a−1 + (1−2a₁+b₁_T)(1−2a₂+b₂_T)`.
    pub fn union(&self, other: &GusParams) -> Result<GusParams> {
        self.check_same_schema(other)?;
        let a = self.a + other.a - self.a * other.a;
        let b = self
            .b
            .iter()
            .zip(other.b.iter())
            .map(|(&b1, &b2)| {
                let v = 2.0 * a - 1.0 + (1.0 - 2.0 * self.a + b1) * (1.0 - 2.0 * other.a + b2);
                v.clamp(0.0, 1.0)
            })
            .collect::<Vec<f64>>();
        Ok(GusParams {
            schema: self.schema.clone(),
            a,
            b: b.into_boxed_slice(),
            support: self.support.union(other.support),
        })
    }

    fn check_same_schema(&self, other: &GusParams) -> Result<()> {
        if self.schema != other.schema {
            return Err(CoreError::SchemaMismatch {
                left: self.schema.to_string(),
                right: other.schema.to_string(),
            });
        }
        Ok(())
    }

    /// Approximate structural equality (same schema, `a` and `b̄` within
    /// `tol`), used by tests and the rewriter's verification mode.
    pub fn approx_eq(&self, other: &GusParams, tol: f64) -> bool {
        self.schema == other.schema
            && (self.a - other.a).abs() <= tol
            && self
                .b
                .iter()
                .zip(other.b.iter())
                .all(|(x, y)| (x - y).abs() <= tol)
    }
}

impl fmt::Display for GusParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G(a={:.6e}; ", self.a)?;
        let n = self.n();
        for (i, t_idx) in (0..1usize << n).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let t = RelSet::from_bits(t_idx as u32);
            write!(f, "b{}={:.6e}", self.schema.display_set(t), self.b[t_idx])?;
        }
        write!(f, ")")
    }
}

fn validate_prob(name: &str, v: f64) -> Result<()> {
    if !v.is_finite() || !(-PROB_EPS..=1.0 + PROB_EPS).contains(&v) {
        return Err(CoreError::InvalidParam(format!(
            "{name} = {v} is not a probability"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn bernoulli_figure1() {
        let g = GusParams::bernoulli("l", 0.1).unwrap();
        assert!((g.a() - 0.1).abs() < TOL);
        assert!((g.b(RelSet::EMPTY) - 0.01).abs() < TOL);
        assert!((g.b(RelSet::singleton(0)) - 0.1).abs() < TOL);
        assert!(g.is_proper());
    }

    #[test]
    fn wor_figure1() {
        // The paper's WOR(1000, 150000) from Example 2.
        let g = GusParams::wor("o", 1000, 150_000).unwrap();
        assert!((g.a() - 6.6667e-3).abs() < 1e-7);
        assert!((g.b(RelSet::EMPTY) - 4.44e-5).abs() < 1e-7);
        assert!((g.b(RelSet::singleton(0)) - 6.6667e-3).abs() < 1e-7);
        assert!(g.is_proper());
    }

    #[test]
    fn example1_join_parameters() {
        // Example 1/3 of the paper: B(0.1) on lineitem ⋈ WOR(1000/150000) on
        // orders. Gold values printed in the paper (4 significant digits).
        let gl = GusParams::bernoulli("l", 0.1).unwrap();
        let go = GusParams::wor("o", 1000, 150_000).unwrap();
        let g = gl.join(&go).unwrap();
        let b = |names: &[&str]| g.b_named(names).unwrap();
        assert!((g.a() - 6.667e-4).abs() < 1e-7);
        assert!((b(&[]) - 4.44e-7).abs() < 1e-9);
        assert!((b(&["o"]) - 6.667e-5).abs() < 1e-8);
        assert!((b(&["l"]) - 4.44e-6).abs() < 1e-8);
        assert!((b(&["l", "o"]) - 6.667e-4).abs() < 1e-7);
        assert!(g.is_proper());
    }

    #[test]
    fn example5_bidimensional_bernoulli() {
        // Example 5: B(0.2) ∘ B(0.3) → a=0.06, b_∅=0.0036, b_o=0.012,
        // b_l=0.018, b_lo=0.06.
        let g = GusParams::bernoulli("l", 0.2)
            .unwrap()
            .compose(&GusParams::bernoulli("o", 0.3).unwrap())
            .unwrap();
        let b = |names: &[&str]| g.b_named(names).unwrap();
        assert!((g.a() - 0.06).abs() < TOL);
        assert!((b(&[]) - 0.0036).abs() < TOL);
        assert!((b(&["o"]) - 0.012).abs() < TOL);
        assert!((b(&["l"]) - 0.018).abs() < TOL);
        assert!((b(&["l", "o"]) - 0.06).abs() < TOL);
    }

    #[test]
    fn identity_is_neutral_for_compact() {
        let g = GusParams::bernoulli("l", 0.25).unwrap();
        let id = GusParams::identity(g.schema().clone());
        let c = g.compact(&id).unwrap();
        assert!(c.approx_eq(&g, TOL));
    }

    #[test]
    fn null_is_neutral_for_union_and_absorbing_for_compact() {
        let g = GusParams::bernoulli("l", 0.25).unwrap();
        let z = GusParams::null(g.schema().clone());
        assert!(g.union(&z).unwrap().approx_eq(&g, TOL));
        assert!(g.compact(&z).unwrap().approx_eq(&z, TOL));
    }

    #[test]
    fn union_of_two_bernoullis_is_bernoulli_of_or() {
        // Two independent Bernoulli(p) samples of the same relation unioned:
        // a tuple survives iff either coin keeps it → Bernoulli(1-(1-p)²),
        // and distinct tuples stay independent.
        let p1 = 0.2;
        let p2 = 0.5;
        let g = GusParams::bernoulli("r", p1)
            .unwrap()
            .union(&GusParams::bernoulli("r", p2).unwrap())
            .unwrap();
        let q = 1.0 - (1.0 - p1) * (1.0 - p2);
        assert!((g.a() - q).abs() < TOL);
        assert!((g.b(RelSet::EMPTY) - q * q).abs() < TOL);
        assert!((g.b(RelSet::singleton(0)) - q).abs() < TOL);
        assert!(g.is_proper());
    }

    #[test]
    fn compact_of_two_bernoullis_multiplies() {
        let g = GusParams::bernoulli("r", 0.4)
            .unwrap()
            .compact(&GusParams::bernoulli("r", 0.5).unwrap())
            .unwrap();
        assert!((g.a() - 0.2).abs() < TOL);
        assert!((g.b(RelSet::EMPTY) - 0.04).abs() < TOL);
        assert!(g.is_proper());
    }

    #[test]
    fn join_requires_disjoint_lineage() {
        let g = GusParams::bernoulli("l", 0.1).unwrap();
        assert!(matches!(
            g.join(&GusParams::bernoulli("l", 0.2).unwrap()),
            Err(CoreError::LineageOverlap { .. })
        ));
    }

    #[test]
    fn compact_requires_same_schema() {
        let g = GusParams::bernoulli("l", 0.1).unwrap();
        let h = GusParams::bernoulli("o", 0.1).unwrap();
        assert!(matches!(
            g.compact(&h),
            Err(CoreError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn embed_keeps_marginals() {
        let g = GusParams::bernoulli("l", 0.1).unwrap();
        let target = LineageSchema::new(&["o", "l"]).unwrap();
        let e = g.embed_by_name(target.clone()).unwrap();
        assert!((e.a() - 0.1).abs() < TOL);
        // Agreement on `o` alone does not change survival of an `l` pair.
        assert!((e.b_named(&["o"]).unwrap() - 0.01).abs() < TOL);
        assert!((e.b_named(&["l"]).unwrap() - 0.1).abs() < TOL);
        assert!((e.b_named(&["l", "o"]).unwrap() - 0.1).abs() < TOL);
        assert!((e.b_named::<&str>(&[]).unwrap() - 0.01).abs() < TOL);
        assert_eq!(e.support(), RelSet::singleton(1));
    }

    #[test]
    fn embed_then_compact_equals_join() {
        let gl = GusParams::bernoulli("l", 0.1).unwrap();
        let go = GusParams::wor("o", 10, 100).unwrap();
        let joined = gl.join(&go).unwrap();
        let target = joined.schema().clone();
        let alt = gl
            .embed_by_name(target.clone())
            .unwrap()
            .compact(&go.embed_by_name(target).unwrap())
            .unwrap();
        assert!(joined.approx_eq(&alt, TOL));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(GusParams::bernoulli("l", 1.5).is_err());
        assert!(GusParams::bernoulli("l", -0.1).is_err());
        assert!(GusParams::wor("o", 11, 10).is_err());
        assert!(GusParams::wor("o", 1, 0).is_err());
        let schema = LineageSchema::single("r");
        assert!(GusParams::new(schema.clone(), 0.5, vec![0.1]).is_err()); // wrong len
        assert!(GusParams::new(schema, f64::NAN, vec![0.1, 0.2]).is_err());
    }

    #[test]
    fn wor_full_population_is_identity_like() {
        let g = GusParams::wor("r", 5, 5).unwrap();
        assert!((g.a() - 1.0).abs() < TOL);
        assert!((g.b(RelSet::EMPTY) - 1.0).abs() < TOL);
    }

    #[test]
    fn wor_single_tuple_population() {
        let g = GusParams::wor("r", 1, 1).unwrap();
        assert!((g.a() - 1.0).abs() < TOL);
        assert_eq!(g.b(RelSet::EMPTY), 0.0); // vacuous
    }

    #[test]
    fn display_contains_parameters() {
        let g = GusParams::bernoulli("l", 0.1).unwrap();
        let s = g.to_string();
        assert!(s.contains("a=1.0"), "{s}");
        assert!(s.contains("b{l}"), "{s}");
    }

    /// The semiring caveat: compaction does NOT
    /// distribute over union at the parameter level, because the union
    /// formula assumes its two arms are *independent* samples while the
    /// distributed form shares one compaction process across both arms.
    /// Event-level distributivity (g ∧ (h ∨ k) = (g∧h) ∨ (g∧k) for a shared
    /// g) is a statement about one process, not about parameters.
    #[test]
    fn compaction_does_not_distribute_over_union() {
        let g = GusParams::bernoulli("r", 0.5).unwrap();
        let h = GusParams::bernoulli("r", 0.4).unwrap();
        let k = GusParams::bernoulli("r", 0.3).unwrap();
        let lhs = g.compact(&h.union(&k).unwrap()).unwrap();
        let rhs = g
            .compact(&h)
            .unwrap()
            .union(&g.compact(&k).unwrap())
            .unwrap();
        // First moments already differ: a_lhs = 0.5·(0.4+0.3−0.12) = 0.29,
        // a_rhs = 0.2+0.15−0.03 = 0.32 (the shared `g` got double-counted as
        // if independent).
        assert!((lhs.a() - 0.29).abs() < 1e-12);
        assert!((rhs.a() - 0.32).abs() < 1e-12);
        assert!(!lhs.approx_eq(&rhs, 1e-6));
    }
}
