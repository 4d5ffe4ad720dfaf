//! Sampling operators and their GUS translations.
//!
//! Each [`SamplingMethod`] is (a) a [`Keep`] predicate on lineage ids,
//! drawn from one seed by [`SamplingMethod::keep`] — the one definition of
//! what a realization keeps, which the stream, the row oracle and the
//! Monte-Carlo check all read — and (b) a single-relation [`GusParams`]
//! (the Figure 1 table of the paper), which is the entry point of the SOA
//! rewriter.
//!
//! The `SYSTEM` method (block-level Bernoulli, mirroring the SQL standard's
//! implementation-defined `TABLESAMPLE SYSTEM`) is the reason lineage
//! granularity is configurable: tuples in one block live or die together, so
//! pair-inclusion probabilities depend on block co-residency — not
//! expressible over row lineage, but *exactly* Bernoulli over **block**
//! lineage, and its keep is the Bernoulli coin over block ids.
//! [`SamplingMethod::lineage_unit`] tells the executor which id to report
//! for tuples of that relation.

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sa_core::hash::coin;
use sa_core::GusParams;
use sa_storage::Table;

use crate::error::SamplingError;
use crate::Result;

/// Which identifier the executor must report as lineage for a sampled
/// relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineageUnit {
    /// Per-row lineage (the default).
    Row,
    /// Per-block lineage (block-level sampling: the block is the sampling
    /// unit, so it is also the lineage unit).
    Block,
}

/// A uniform sampling operator over one base relation.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplingMethod {
    /// Tuple-level Bernoulli sampling with inclusion probability `p`
    /// (`TABLESAMPLE (p·100 PERCENT)`).
    Bernoulli {
        /// Inclusion probability.
        p: f64,
    },
    /// Fixed-size uniform sampling without replacement
    /// (`TABLESAMPLE (size ROWS)`).
    Wor {
        /// Number of rows to draw.
        size: u64,
    },
    /// Block-level Bernoulli sampling (`TABLESAMPLE SYSTEM (p·100 PERCENT)`):
    /// each block is kept with probability `p`, tuples ride along with their
    /// block.
    System {
        /// Block inclusion probability.
        p: f64,
    },
}

/// What one realization of a sampler keeps: a predicate on its relation's
/// lineage unit — the row id, or the block id under `SYSTEM` — drawn from
/// one seed by [`SamplingMethod::keep`]. A unit's fate is a function of its
/// id alone, so whoever reads it, in whatever order or chunking, sees one
/// sample.
#[derive(Debug, Clone)]
pub enum Keep {
    /// Bernoulli(`p`), and `SYSTEM` over block ids: the unit's [`coin`]
    /// under `seed`.
    Coin {
        /// The coin's seed.
        seed: u64,
        /// Inclusion probability.
        p: f64,
    },
    /// WOR: the row ids drawn from the seed, one bit per row of the table.
    Rows(Arc<[u64]>),
}

impl Keep {
    /// Does this sampler keep unit `id`?
    #[inline]
    pub fn keeps(&self, id: u64) -> bool {
        match self {
            Keep::Coin { seed, p } => coin(*seed, *p, id),
            Keep::Rows(bits) => bits[(id / 64) as usize] >> (id % 64) & 1 == 1,
        }
    }

    /// Clear `mask[i]` wherever this sampler drops unit `ids[i]`.
    #[inline]
    pub fn narrow(&self, ids: &[u64], mask: &mut [bool]) {
        for (m, &id) in mask.iter_mut().zip(ids) {
            *m &= self.keeps(id);
        }
    }
}

impl SamplingMethod {
    /// Validate the specification (probability ranges; sizes are checked
    /// against the table by [`SamplingMethod::keep`] and
    /// [`SamplingMethod::gus`]).
    pub fn validate(&self) -> Result<()> {
        match self {
            SamplingMethod::Bernoulli { p } | SamplingMethod::System { p } => {
                if !(0.0..=1.0).contains(p) || !p.is_finite() {
                    return Err(SamplingError::InvalidSpec(format!(
                        "probability {p} not in [0,1]"
                    )));
                }
            }
            SamplingMethod::Wor { .. } => {}
        }
        Ok(())
    }

    /// The lineage granularity the executor must use for this relation.
    pub fn lineage_unit(&self) -> LineageUnit {
        match self {
            SamplingMethod::System { .. } => LineageUnit::Block,
            _ => LineageUnit::Row,
        }
    }

    /// The single-relation GUS parameters of this method applied to `table`,
    /// registered under relation name `relation` (Figure 1 of the paper,
    /// plus the block-lineage translation of `SYSTEM`).
    pub fn gus(&self, relation: &str, table: &Table) -> Result<GusParams> {
        self.validate()?;
        match self {
            SamplingMethod::Bernoulli { p } => Ok(GusParams::bernoulli(relation, *p)?),
            // Block-level Bernoulli is row-level Bernoulli over block ids.
            SamplingMethod::System { p } => Ok(GusParams::bernoulli(relation, *p)?),
            SamplingMethod::Wor { size } => {
                let population = table.row_count();
                if *size > population {
                    return Err(SamplingError::InvalidSpec(format!(
                        "WOR size {size} exceeds population {population} of `{relation}`"
                    )));
                }
                Ok(GusParams::wor(relation, *size, population)?)
            }
        }
    }

    /// The realization of this method over `table` that `seed` draws:
    /// Bernoulli keeps a row, and `SYSTEM` a block, iff its [`coin`] under
    /// `seed` comes up; WOR keeps `size` row ids drawn by Floyd's algorithm
    /// off a generator seeded with `seed`.
    pub fn keep(&self, seed: u64, table: &Table) -> Result<Keep> {
        self.validate()?;
        match self {
            SamplingMethod::Bernoulli { p } | SamplingMethod::System { p } => {
                Ok(Keep::Coin { seed, p: *p })
            }
            SamplingMethod::Wor { size } => {
                let n = table.row_count();
                if *size > n {
                    return Err(SamplingError::InvalidSpec(format!(
                        "WOR size {size} exceeds population {n}"
                    )));
                }
                Ok(Keep::Rows(floyd(
                    n,
                    *size,
                    &mut StdRng::seed_from_u64(seed),
                )))
            }
        }
    }
}

impl fmt::Display for SamplingMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingMethod::Bernoulli { p } => write!(f, "B{p}"),
            SamplingMethod::Wor { size } => write!(f, "WOR{size}"),
            SamplingMethod::System { p } => write!(f, "SYSTEM{p}"),
        }
    }
}

/// Robert Floyd's algorithm: `k` distinct uniform draws from `0..n` in
/// `O(k)` expected draws, as a bitmap of `n` bits.
fn floyd(n: u64, k: u64, rng: &mut StdRng) -> Arc<[u64]> {
    let mut bits = vec![0u64; n.div_ceil(64) as usize];
    // Set `id`'s bit; false if it was already set.
    let mut insert = |id: u64| {
        let (word, bit) = (&mut bits[(id / 64) as usize], 1u64 << (id % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    };
    for j in n - k..n {
        if !insert(rng.random_range(0..=j)) {
            insert(j);
        }
    }
    bits.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn table(rows: u64, block_rows: usize) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new("t", schema).with_block_rows(block_rows);
        for i in 0..rows {
            b.push_row(&[Value::Int(i as i64)]).unwrap();
        }
        b.finish().unwrap()
    }

    /// The row ids of `t` that `m`'s keep under `seed` keeps, ascending:
    /// each row is judged by its lineage unit (its block under `SYSTEM`).
    fn kept(m: &SamplingMethod, t: &Table, seed: u64) -> Result<Vec<u64>> {
        let keep = m.keep(seed, t)?;
        let rows: Vec<u64> = (0..t.row_count()).collect();
        let units: Vec<u64> = match m.lineage_unit() {
            LineageUnit::Row => rows.clone(),
            LineageUnit::Block => rows.iter().map(|&r| t.block_of(r)).collect(),
        };
        let mut mask = vec![true; rows.len()];
        keep.narrow(&units, &mut mask);
        Ok(rows
            .into_iter()
            .zip(mask)
            .filter(|&(_, m)| m)
            .map(|(r, _)| r)
            .collect())
    }

    #[test]
    fn bernoulli_rate() {
        let t = table(20_000, 256);
        let ids = kept(&SamplingMethod::Bernoulli { p: 0.25 }, &t, 1).unwrap();
        let rate = ids.len() as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate = {rate}");
        // Distinct and in order.
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn wor_exact_size_distinct() {
        let t = table(1000, 256);
        let ids = kept(&SamplingMethod::Wor { size: 137 }, &t, 2).unwrap();
        assert_eq!(ids.len(), 137);
        assert!(ids.windows(2).all(|w| w[0] < w[1])); // distinct + sorted
        assert!(ids.iter().all(|&i| i < 1000));
    }

    #[test]
    fn wor_full_population() {
        let t = table(50, 256);
        let ids = kept(&SamplingMethod::Wor { size: 50 }, &t, 3).unwrap();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn wor_oversize_rejected() {
        let t = table(10, 256);
        assert!(SamplingMethod::Wor { size: 11 }.keep(0, &t).is_err());
        assert!(SamplingMethod::Wor { size: 11 }.gus("t", &t).is_err());
    }

    #[test]
    fn wor_is_uniform_over_rows() {
        // Each row should appear in roughly trials·k/n samples.
        let t = table(20, 256);
        let mut counts = [0u32; 20];
        for seed in 0..2000 {
            for id in kept(&SamplingMethod::Wor { size: 5 }, &t, seed).unwrap() {
                counts[id as usize] += 1;
            }
        }
        // Expected 500 each; allow ±20%.
        for (i, &c) in counts.iter().enumerate() {
            assert!((400..600).contains(&c), "row {i} drawn {c} times");
        }
    }

    #[test]
    fn system_keeps_whole_blocks() {
        let t = table(1000, 100); // 10 blocks
        let ids = kept(&SamplingMethod::System { p: 0.5 }, &t, 4).unwrap();
        // Every kept block must be complete.
        let mut blocks: Vec<u64> = ids.iter().map(|&i| i / 100).collect();
        blocks.dedup();
        for b in &blocks {
            let members = ids.iter().filter(|&&i| i / 100 == *b).count();
            assert_eq!(members, 100, "block {b} incomplete");
        }
    }

    #[test]
    fn system_lineage_unit_is_block() {
        assert_eq!(
            SamplingMethod::System { p: 0.1 }.lineage_unit(),
            LineageUnit::Block
        );
        assert_eq!(
            SamplingMethod::Bernoulli { p: 0.1 }.lineage_unit(),
            LineageUnit::Row
        );
    }

    #[test]
    fn gus_translations_match_figure1() {
        let t = table(150, 256);
        let g = SamplingMethod::Bernoulli { p: 0.1 }.gus("l", &t).unwrap();
        assert!((g.a() - 0.1).abs() < 1e-12);
        assert!((g.b_named::<&str>(&[]).unwrap() - 0.01).abs() < 1e-12);

        let g = SamplingMethod::Wor { size: 15 }.gus("o", &t).unwrap();
        assert!((g.a() - 0.1).abs() < 1e-12);
        let expect = 15.0 * 14.0 / (150.0 * 149.0);
        assert!((g.b_named::<&str>(&[]).unwrap() - expect).abs() < 1e-12);

        // SYSTEM is Bernoulli over blocks.
        let g = SamplingMethod::System { p: 0.2 }.gus("s", &t).unwrap();
        assert!((g.a() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn invalid_probabilities_rejected() {
        let t = table(10, 256);
        for m in [
            SamplingMethod::Bernoulli { p: -0.1 },
            SamplingMethod::Bernoulli { p: 1.1 },
            SamplingMethod::System { p: f64::NAN },
        ] {
            assert!(m.validate().is_err());
            assert!(m.keep(0, &t).is_err());
        }
    }

    #[test]
    fn empty_table_edge_cases() {
        let t = table(0, 256);
        assert!(kept(&SamplingMethod::Bernoulli { p: 0.5 }, &t, 0)
            .unwrap()
            .is_empty());
        assert!(kept(&SamplingMethod::Wor { size: 0 }, &t, 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn display_renderings() {
        assert_eq!(SamplingMethod::Bernoulli { p: 0.1 }.to_string(), "B0.1");
        assert_eq!(SamplingMethod::Wor { size: 1000 }.to_string(), "WOR1000");
        assert_eq!(SamplingMethod::System { p: 0.5 }.to_string(), "SYSTEM0.5");
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let t = table(500, 64);
        for m in [
            SamplingMethod::Bernoulli { p: 0.3 },
            SamplingMethod::Wor { size: 77 },
            SamplingMethod::System { p: 0.4 },
        ] {
            assert_eq!(kept(&m, &t, 99).unwrap(), kept(&m, &t, 99).unwrap());
        }
    }
}
