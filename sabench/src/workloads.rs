//! The six workloads, frozen here so later PRs can change the engine (and
//! `sa_bench::workloads`) without moving the benchmark.
//!
//! Each workload is one query shape over one dataset, chosen so a different
//! layer owns most of its time; see the README for the layer → metric map.

use sa_core::hash::splitmix64;
use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use sa_tpch::{gen_lineitem, gen_orders, TpchConfig};

/// Rows per pulled chunk for every analytic workload (one snapshot tick per
/// chunk). The served workload keeps the server's own default.
pub const CHUNK_ROWS: usize = 4096;

/// Which data a workload runs over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    /// TPC-H `orders` + `lineitem`, optionally with Zipf-skewed `l_partkey`.
    Tpch { part_skew: Option<f64> },
    /// The 16×Int `wide` table.
    Wide,
}

/// How the workload reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Access {
    /// In-process `Engine` over the generated in-RAM catalog.
    InRam,
    /// In-process `Engine` over persisted, memory-mapped `.sac` files.
    Mapped,
    /// A server child process over the mapped files, driven over TCP.
    Served,
}

/// Data sizes. `--quick` shrinks them so the smoke test runs in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    pub tpch_scale: f64,
    pub wide_rows: u64,
    /// Factor on every query's ε: a smaller table needs a looser target
    /// for the rule to fire at the same share of the scan.
    pub epsilon_factor: f64,
}

impl Sizes {
    /// lineitem ≈ 1.5M rows (≈ 100 MB of `.sac`), wide = 1M rows (128 MB):
    /// the largest inputs whose set-up can run three times inside one
    /// driver run. Everything fits the page cache, so mapped numbers are
    /// page-cache-hot sandbox numbers, not device numbers.
    pub const FULL: Sizes = Sizes {
        tpch_scale: 0.25,
        wide_rows: 1_000_000,
        epsilon_factor: 1.0,
    };
    /// 1/64 of the rows, so 8× the ε.
    pub const QUICK: Sizes = Sizes {
        tpch_scale: 0.25 / 64.0,
        wide_rows: 1_000_000 / 64,
        epsilon_factor: 8.0,
    };
}

/// One SQL query, kept in parts so the harness can render its three
/// forms: with the accuracy clause (converge), without (exhaustion), and
/// with sampling stripped too (the exact answer).
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub select: &'static str,
    /// `(table, TABLESAMPLE percent)` in FROM order.
    pub tables: &'static [(&'static str, Option<u32>)],
    pub filter: Option<&'static str>,
    pub group_by: Option<&'static str>,
    /// `WITHIN ε PERCENT CONFIDENCE 95`, tuned so the rule fires at
    /// 10–60% of the scan.
    pub epsilon_percent: f64,
    /// Grouped queries judge the target on the K largest groups only.
    pub ci_top_k: Option<usize>,
}

/// Which form of a [`Query`] to render.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Form {
    Converge,
    Exhaust,
    Exact,
}

impl Query {
    pub fn sql(&self, form: Form) -> String {
        let from: Vec<String> = self
            .tables
            .iter()
            .map(|(t, pct)| match pct {
                Some(p) if form != Form::Exact => format!("{t} TABLESAMPLE ({p} PERCENT)"),
                _ => t.to_string(),
            })
            .collect();
        let mut sql = format!("SELECT {} FROM {}", self.select, from.join(", "));
        if let Some(f) = self.filter {
            sql.push_str(&format!(" WHERE {f}"));
        }
        if let Some(g) = self.group_by {
            sql.push_str(&format!(" GROUP BY {g}"));
        }
        if form == Form::Converge {
            sql.push_str(&format!(
                " WITHIN {} PERCENT CONFIDENCE 95",
                self.epsilon_percent
            ));
        }
        sql
    }
}

/// A workload as declared: sizes relative to [`Sizes`].
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line: why the workload exists (also `why` in BENCHMARK.json).
    pub why: &'static str,
    pub dataset: Dataset,
    pub access: Access,
    /// Share of [`Sizes::tpch_scale`] this workload generates.
    pub size_share: f64,
    /// Analytic workloads run `queries[0]`; the served workload cycles a
    /// seeded mix of all of them.
    pub queries: &'static [Query],
}

/// A workload at concrete sizes, ready to generate and run.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub access: Access,
    pub sizes: Sizes,
    pub queries: Vec<Query>,
}

const LINEITEM_90: &[(&str, Option<u32>)] = &[("lineitem", Some(90))];
const LINEITEM_50: &[(&str, Option<u32>)] = &[("lineitem", Some(50))];

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "scan_mapped",
        why: "dense range gather of four f64 columns off the mapped catalog: sa-storage owns the time, kernels do not",
        dataset: Dataset::Tpch { part_skew: None },
        access: Access::Mapped,
        size_share: 1.0,
        queries: &[Query {
            select: "SUM(l_quantity), SUM(l_extendedprice), SUM(l_discount), SUM(l_tax), COUNT(*)",
            tables: LINEITEM_90,
            filter: None,
            group_by: None,
            epsilon_percent: 0.3,
            ci_top_k: None,
        }],
    },
    Spec {
        name: "filter_expr",
        why: "in-RAM Q6-style filter and arithmetic: sa-expr kernels dominate and the gather is a memcpy",
        dataset: Dataset::Tpch { part_skew: None },
        access: Access::InRam,
        size_share: 1.0,
        queries: &[Query {
            select: "SUM(l_extendedprice * l_discount)",
            tables: LINEITEM_90,
            filter: Some(
                "l_discount >= 0.02 AND l_discount <= 0.08 AND l_quantity < 24 \
                 AND l_extendedprice * (1 - l_discount) * (1 + l_tax) > 20000",
            ),
            group_by: None,
            epsilon_percent: 1.0,
            ci_top_k: None,
        }],
    },
    Spec {
        name: "join_converge",
        why: "two-table sampled join: the build side blocks the first estimate, probe and arity-2 lineage dominate",
        dataset: Dataset::Tpch { part_skew: None },
        access: Access::InRam,
        // Half the rows: a converge run is then ≈ 0.2 s rather than 0.4 s,
        // so a run's window holds enough of them for a median.
        size_share: 0.5,
        queries: &[Query {
            select: "SUM(l_quantity)",
            tables: &[("lineitem", Some(50)), ("orders", Some(50))],
            filter: Some("l_orderkey = o_orderkey"),
            group_by: None,
            epsilon_percent: 1.0,
            ci_top_k: None,
        }],
    },
    Spec {
        name: "grouped_skew",
        why: "GROUP BY a Zipf-skewed key: thousands of small accumulators and a per-group readout every tick",
        dataset: Dataset::Tpch {
            part_skew: Some(1.2),
        },
        access: Access::InRam,
        // The driver reads every group out on every tick, so a full-size
        // table would spend minutes per pass: a fifth of the rows (and of
        // the parts, so ≈ 10k groups) keeps a pass under a second.
        size_share: 0.2,
        queries: &[Query {
            select: "l_partkey, SUM(l_extendedprice)",
            tables: LINEITEM_90,
            filter: None,
            group_by: Some("l_partkey"),
            epsilon_percent: 25.0,
            ci_top_k: Some(100),
        }],
    },
    Spec {
        name: "wide_sparse_mapped",
        why: "3% of a 16-column mapped table survive a fused predicate: sparse gather and page skipping, not dense ranges",
        dataset: Dataset::Wide,
        access: Access::Mapped,
        size_share: 1.0,
        queries: &[Query {
            select: "SUM(c11)",
            tables: &[("wide", None)],
            filter: Some("c3 = 0"),
            group_by: None,
            epsilon_percent: 1.5,
            ci_top_k: None,
        }],
    },
    Spec {
        name: "serve_shared",
        why: "closed loop of clients over TCP on one shared scan: hub, admission, protocol and socket dominate short queries",
        dataset: Dataset::Tpch { part_skew: None },
        access: Access::Served,
        size_share: 1.0,
        // Selectivity ≈ 100% / 10% / 1.5%. The server reports progress
        // every 8th chunk of 1024 rows: the first two templates converge
        // before that and answer in one write, the third streams progress
        // lines first — so the mix spans sub-millisecond to tens of ms.
        queries: &[
            Query {
                select: "SUM(l_quantity)",
                tables: LINEITEM_50,
                filter: None,
                group_by: None,
                epsilon_percent: 3.0,
                ci_top_k: None,
            },
            Query {
                select: "SUM(l_extendedprice)",
                tables: LINEITEM_50,
                filter: Some("l_quantity < 6"),
                group_by: None,
                epsilon_percent: 15.0,
                ci_top_k: None,
            },
            Query {
                select: "SUM(l_extendedprice)",
                tables: LINEITEM_50,
                filter: Some("l_quantity < 6 AND l_discount > 0.085"),
                group_by: None,
                epsilon_percent: 15.0,
                ci_top_k: None,
            },
        ],
    },
];

/// The workload `name` at `sizes`.
pub fn find(name: &str, sizes: Sizes) -> Option<Workload> {
    let spec = WORKLOADS.iter().find(|w| w.name == name)?;
    Some(Workload {
        name: spec.name,
        dataset: spec.dataset,
        access: spec.access,
        sizes: Sizes {
            tpch_scale: sizes.tpch_scale * spec.size_share,
            ..sizes
        },
        queries: spec
            .queries
            .iter()
            .map(|q| Query {
                // The parser accepts (0, 100].
                epsilon_percent: (q.epsilon_percent * sizes.epsilon_factor).min(90.0),
                ..*q
            })
            .collect(),
    })
}

/// The `i`-th query seed of a run: distinct per `(seed, stream, i)`.
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(i))
}

/// Generate a workload's dataset from `seed` (in RAM).
pub fn generate(w: &Workload, seed: u64) -> Catalog {
    let sizes = w.sizes;
    let mut catalog = Catalog::new();
    match w.dataset {
        Dataset::Tpch { part_skew } => {
            let mut config = TpchConfig::scale(sizes.tpch_scale).with_seed(seed);
            if let Some(theta) = part_skew {
                config = config.with_part_skew(theta);
            }
            let card = config.cardinalities();
            let orders = gen_orders(&config, &card);
            let lineitem = gen_lineitem(&config, &card, &orders);
            catalog.register(orders).expect("fresh catalog");
            catalog.register(lineitem).expect("fresh catalog");
        }
        Dataset::Wide => catalog
            .register(wide_table(sizes.wide_rows, seed))
            .expect("fresh catalog"),
    }
    catalog
}

/// `wide`: 16 Int columns. `c3` is the block ordinal modulo 32 — constant
/// within a 256-row block, so `c3 = 0` keeps 1/32 of the rows in whole
/// blocks and the fused scan can skip the other pages. `c11` is the seeded
/// payload being summed (so a scan prefix is a fair sample of it); the
/// other fourteen columns are dead weight a pruned scan never touches.
fn wide_table(rows: u64, seed: u64) -> sa_storage::Table {
    const BLOCK: u64 = 256;
    let schema = Schema::new(
        (0..16)
            .map(|i| Field::new(format!("c{i}"), DataType::Int))
            .collect(),
    )
    .expect("static schema");
    let mut b = TableBuilder::new("wide", schema).with_block_rows(BLOCK as usize);
    b.reserve(rows as usize);
    let mut row = vec![Value::Int(0); 16];
    for i in 0..rows {
        for (col, cell) in row.iter_mut().enumerate() {
            *cell = Value::Int(match col {
                3 => ((i / BLOCK) % 32) as i64,
                11 => (splitmix64(seed ^ i) % 1000) as i64,
                _ => col as i64 * 1000 + (i % 7) as i64,
            });
        }
        b.push_row(&row).expect("typed row");
    }
    b.finish().expect("equal columns")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_renders_its_three_forms() {
        let w = find("join_converge", Sizes::FULL).unwrap();
        let q = &w.queries[0];
        assert_eq!(
            q.sql(Form::Converge),
            "SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (50 PERCENT), \
             orders TABLESAMPLE (50 PERCENT) WHERE l_orderkey = o_orderkey \
             WITHIN 1 PERCENT CONFIDENCE 95"
        );
        assert!(!q.sql(Form::Exhaust).contains("WITHIN"));
        assert_eq!(
            q.sql(Form::Exact),
            "SELECT SUM(l_quantity) FROM lineitem, orders WHERE l_orderkey = o_orderkey"
        );
        let quick = find("join_converge", Sizes::QUICK).unwrap();
        assert!(quick.queries[0]
            .sql(Form::Converge)
            .contains("WITHIN 8 PERCENT"));
    }

    #[test]
    fn every_query_binds_against_its_dataset() {
        for spec in WORKLOADS {
            let w = find(spec.name, Sizes::QUICK).unwrap();
            let catalog = generate(&w, 1);
            for q in &w.queries {
                for form in [Form::Converge, Form::Exhaust, Form::Exact] {
                    sa_sql::plan_online_grouped_sql(&q.sql(form), &catalog)
                        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                }
            }
        }
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        for name in ["filter_expr", "wide_sparse_mapped"] {
            let w = find(name, Sizes::QUICK).unwrap();
            let table = |seed| {
                let c = generate(&w, seed);
                let (_, t) = c.iter().last().unwrap();
                (0..t.row_count().min(50))
                    .map(|r| t.row(r).unwrap())
                    .collect::<Vec<_>>()
            };
            assert_eq!(table(3), table(3));
            assert_ne!(table(3), table(4));
        }
    }
}
