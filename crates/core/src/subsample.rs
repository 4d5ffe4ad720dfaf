//! Lineage-driven Bernoulli sub-sampling — the Section 7 efficiency device.
//!
//! Estimating the `Y_S` terms costs a pass of `2ⁿ` group-bys over the whole
//! result; Section 7 observes that a *sub-sample* of ~10 000 result tuples
//! suffices for the `Ŷ_S` (the point estimate still uses every tuple). For
//! the sub-sample to be analyzable it must itself be a GUS method, which the
//! paper achieves with **pseudo-random functions combining a per-relation
//! seed with the tuple's lineage**: the same base tuple always receives the
//! same keep/drop decision, wherever it appears in the result. The memory
//! cost is one seed per base relation.
//!
//! [`LineageBernoulli`] implements exactly that: relation `i` keeps lineage
//! id `x` iff [`crate::hash::coin`]`(seed_i, p_i, x)` — the coin the
//! executor's samplers toss too; a result tuple survives iff all of its base
//! components survive. Its GUS translation is the
//! multi-dimensional Bernoulli of Example 5 (composition, Proposition 9),
//! and the analysis of "sub-sample of a sampled plan" is compaction
//! (Proposition 8) — the Figure 5 pipeline.

use std::sync::Arc;

use crate::error::CoreError;
use crate::hash::{coin, splitmix64};
use crate::params::GusParams;
use crate::relset::{LineageSchema, RelSet};
use crate::Result;

/// A deterministic multi-dimensional Bernoulli filter on lineage.
#[derive(Debug, Clone)]
pub struct LineageBernoulli {
    schema: Arc<LineageSchema>,
    /// Per-relation keep probability (1.0 = relation not sub-sampled).
    probs: Vec<f64>,
    /// Per-relation seed for the pseudo-random function.
    seeds: Vec<u64>,
}

impl LineageBernoulli {
    /// Build a filter over `schema` with per-relation probabilities `probs`
    /// (aligned with the schema's bit order), derived deterministically from
    /// a master `seed`.
    pub fn new(schema: Arc<LineageSchema>, probs: &[f64], seed: u64) -> Result<LineageBernoulli> {
        if probs.len() != schema.n() {
            return Err(CoreError::DimensionMismatch {
                expected: schema.n(),
                got: probs.len(),
            });
        }
        for (i, &p) in probs.iter().enumerate() {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(CoreError::InvalidParam(format!(
                    "sub-sampling probability p[{i}] = {p} not in [0,1]"
                )));
            }
        }
        let seeds: Vec<u64> = (0..schema.n() as u64)
            .map(|i| splitmix64(seed ^ splitmix64(i.wrapping_mul(0x2545_F491_4F6C_DD1D))))
            .collect();
        Ok(LineageBernoulli {
            schema,
            probs: probs.to_vec(),
            seeds,
        })
    }

    /// Uniform probability on every relation.
    pub fn uniform(schema: Arc<LineageSchema>, p: f64, seed: u64) -> Result<LineageBernoulli> {
        let probs = vec![p; schema.n()];
        LineageBernoulli::new(schema, &probs, seed)
    }

    /// The lineage schema.
    pub fn schema(&self) -> &Arc<LineageSchema> {
        &self.schema
    }

    /// Per-relation probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Keep/drop decision for one base tuple of relation `rel`.
    ///
    /// Deterministic in `(seed, rel, lineage id)` — the GUS filter property:
    /// "if it decides to eliminate a tuple from a base relation, it has to do
    /// so in all result tuples in which it appears".
    #[inline]
    pub fn keeps_component(&self, rel: usize, lineage_id: u64) -> bool {
        coin(self.seeds[rel], self.probs[rel], lineage_id)
    }

    /// Keep/drop decision for a whole result tuple (all components must
    /// survive).
    #[inline]
    pub fn keeps(&self, lineage: &[u64]) -> bool {
        debug_assert_eq!(lineage.len(), self.schema.n());
        lineage
            .iter()
            .enumerate()
            .all(|(i, &id)| self.keeps_component(i, id))
    }

    /// The GUS translation: the composition (Proposition 9) of per-relation
    /// Bernoulli methods — Example 5's multi-dimensional Bernoulli.
    ///
    /// `a = Π pᵢ`, `b_T = Π_{i∈T} pᵢ · Π_{i∉T} pᵢ²`.
    pub fn gus(&self) -> GusParams {
        let n = self.schema.n();
        let mut b = vec![0.0; 1usize << n];
        let mut a = 1.0;
        for &p in &self.probs {
            a *= p;
        }
        for (t_idx, slot) in b.iter_mut().enumerate() {
            let t = RelSet::from_bits(t_idx as u32);
            let mut v = 1.0;
            for (i, &p) in self.probs.iter().enumerate() {
                v *= if t.contains(i) { p } else { p * p };
            }
            *slot = v;
        }
        GusParams::new(self.schema.clone(), a, b).expect("probabilities validated on construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_lo() -> Arc<LineageSchema> {
        LineageSchema::new(&["l", "o"]).unwrap()
    }

    #[test]
    fn deterministic_decisions() {
        let f = LineageBernoulli::uniform(schema_lo(), 0.5, 42).unwrap();
        for id in 0..100u64 {
            assert_eq!(f.keeps_component(0, id), f.keeps_component(0, id));
        }
        // keeps() = AND of components.
        for l in 0..20u64 {
            for o in 0..20u64 {
                assert_eq!(
                    f.keeps(&[l, o]),
                    f.keeps_component(0, l) && f.keeps_component(1, o)
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_samples() {
        let f1 = LineageBernoulli::uniform(schema_lo(), 0.5, 1).unwrap();
        let f2 = LineageBernoulli::uniform(schema_lo(), 0.5, 2).unwrap();
        let diff = (0..1000u64)
            .filter(|&i| f1.keeps_component(0, i) != f2.keeps_component(0, i))
            .count();
        assert!(diff > 300, "only {diff} decisions differ");
    }

    #[test]
    fn keep_rate_approximates_probability() {
        let f = LineageBernoulli::uniform(schema_lo(), 0.3, 7).unwrap();
        let kept = (0..100_000u64).filter(|&i| f.keeps_component(1, i)).count();
        let rate = kept as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn probability_one_keeps_everything() {
        let f = LineageBernoulli::new(schema_lo(), &[1.0, 0.5], 3).unwrap();
        assert!((0..10_000u64).all(|i| f.keeps_component(0, i)));
        // Even the id whose mix is u64::MAX, the one a `hash < p·2⁶⁴`
        // test alone would drop at p = 1.
        let edge = crate::hash::tests::splitmix64_inverse(u64::MAX) ^ f.seeds[0];
        assert!(f.keeps_component(0, edge));
    }

    #[test]
    fn probability_zero_keeps_nothing() {
        let f = LineageBernoulli::new(schema_lo(), &[0.0, 0.5], 3).unwrap();
        assert!((0..10_000u64).all(|i| !f.keeps_component(0, i)));
    }

    #[test]
    fn gus_matches_example5() {
        // Example 5: B(0.2, 0.3) → a=0.06, b_∅=0.0036, b_o=0.012, b_l=0.018,
        // b_lo=0.06.
        let f = LineageBernoulli::new(schema_lo(), &[0.2, 0.3], 0).unwrap();
        let g = f.gus();
        let b = |names: &[&str]| g.b_named(names).unwrap();
        assert!((g.a() - 0.06).abs() < 1e-12);
        assert!((b(&[]) - 0.0036).abs() < 1e-12);
        assert!((b(&["o"]) - 0.012).abs() < 1e-12);
        assert!((b(&["l"]) - 0.018).abs() < 1e-12);
        assert!((b(&["l", "o"]) - 0.06).abs() < 1e-12);
        assert!(g.is_proper());
    }

    #[test]
    fn gus_equals_composition_of_bernoullis() {
        let f = LineageBernoulli::new(schema_lo(), &[0.2, 0.3], 0).unwrap();
        let composed = GusParams::bernoulli("l", 0.2)
            .unwrap()
            .compose(&GusParams::bernoulli("o", 0.3).unwrap())
            .unwrap();
        assert!(f.gus().approx_eq(&composed, 1e-12));
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(LineageBernoulli::uniform(schema_lo(), 1.5, 0).is_err());
        assert!(LineageBernoulli::uniform(schema_lo(), -0.1, 0).is_err());
        assert!(LineageBernoulli::new(schema_lo(), &[0.5], 0).is_err());
    }

    #[test]
    fn joint_keep_rate_is_product() {
        let f = LineageBernoulli::new(schema_lo(), &[0.5, 0.4], 11).unwrap();
        let mut kept = 0u32;
        let trials = 40_000u64;
        for i in 0..trials {
            // Distinct ids per relation so decisions are independent.
            if f.keeps(&[i, i + 1_000_000]) {
                kept += 1;
            }
        }
        let rate = kept as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.01, "rate = {rate}");
    }
}
