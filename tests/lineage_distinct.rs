//! The plan property behind the map-free accumulator, and the count that
//! shows it at work.
//!
//! * `SoaAnalysis::lineage_distinct` promises that a plan's tuple stream
//!   never repeats a full lineage. A generated walk over plan shape ×
//!   sampler × seed × chunk size × `shuffle_scan` × 1 or 4 slices (the
//!   union-of-samples shape included) drains the stream and checks the
//!   promise tuple by tuple; a shared-hub cursor attached mid-table is
//!   checked the same way. `SYSTEM` plans report `false` — a block's rows
//!   share its id — keep the general accumulator, and whatever the mode the
//!   exhausted `Engine` run equals the batch `SBox` (the general
//!   accumulator, fed row by row) to 1e-9.
//! * `QueryResult::lineage_entries` counts the lineage groups the
//!   accumulator held: none for a single-table row-sampled query, scalar or
//!   grouped; for `lineitem ⋈ orders` the distinct sampled `l` ids plus the
//!   distinct sampled `o` ids, and no entry per pair.

mod support;

use std::collections::HashSet;

use proptest::prelude::*;

use sampling_algebra::exec::{f_vector, layout_dims, open_shared_stream};
use sampling_algebra::prelude::*;

/// Drain `streams` into the lineage tuples they emit, in order.
fn lineage_of(streams: Vec<ChunkStream>, hint: usize) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    for stream in streams {
        out.extend(
            stream
                .collect_rows(hint)
                .unwrap()
                .into_iter()
                .map(|r| r.lineage),
        );
    }
    out
}

fn distinct<T: std::hash::Hash + Eq>(items: impl IntoIterator<Item = T>) -> usize {
    items.into_iter().collect::<HashSet<T>>().len()
}

/// The ids of `lineage` at the relations in bit set `s`.
fn projected(lineage: &[u64], s: usize) -> Vec<u64> {
    let in_s = |i: &usize| s >> i & 1 == 1;
    (0..lineage.len())
        .filter(in_s)
        .map(|i| lineage[i])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_lineage_distinct_plan_never_repeats_a_full_lineage(
        shape in 0u8..5,
        sampler in 0u8..3,
        p in 0.2f64..1.0,
        size in 1u64..600,
        seed in 0u64..10_000,
        chunk_rows in 1usize..400,
        shuffle_scan in any::<bool>(),
    ) {
        let catalog = support::catalog();
        let method = match sampler {
            0 => SamplingMethod::Bernoulli { p },
            1 => SamplingMethod::Wor { size },
            _ => SamplingMethod::System { p },
        };
        let (plan, group_by) = support::shaped_plan(shape, method.clone());
        let LogicalPlan::Aggregate { aggs, input } = &plan else {
            unreachable!("every shape is an aggregate")
        };
        let analysis = rewrite(&plan, &catalog).unwrap();
        let row_level = !matches!(method, SamplingMethod::System { .. });
        prop_assert_eq!(analysis.lineage_distinct, row_level);

        for jobs in [1usize, 4] {
            let exec = ExecOptions { seed, shuffle_scan, ..Default::default() };
            let streams = open_stream_partitioned(input, &catalog, &exec, jobs).unwrap();
            let layout = layout_dims(aggs, streams[0].schema()).unwrap();
            let mut sbox = SBox::with_dims(analysis.gus.clone(), layout.dims());
            let mut lineage = Vec::new();
            for stream in streams {
                for row in stream.collect_rows(chunk_rows).unwrap() {
                    sbox.push(&row.lineage, &f_vector(&layout, &row).unwrap()).unwrap();
                    lineage.push(row.lineage);
                }
            }
            if analysis.lineage_distinct {
                prop_assert_eq!(distinct(&lineage), lineage.len(), "a full lineage repeated");
            }
            if !group_by.is_empty() {
                continue; // the scalar readout below has no keys to compare
            }

            // The Engine realizes the same sample; its accumulator is in
            // the plan's mode, the SBox's is always general.
            let r = Engine::new(catalog.clone())
                .session()
                .query_plan(&plan)
                .options(QueryOptions {
                    seed,
                    chunk_rows,
                    shuffle_scan,
                    parallelism: jobs,
                    ..Default::default()
                })
                .run()
                .unwrap();
            prop_assert_eq!(r.reason, StopReason::Exhausted);
            let snapshot = support::scalar(&r);
            prop_assert_eq!(snapshot.rows, lineage.len() as u64);
            let report = sbox.finish().unwrap();
            for (d, (agg, want)) in snapshot.aggs.iter().zip(&report.estimate).enumerate().take(2) {
                // SUM and COUNT are dimensions 0 and 1 of every shape.
                prop_assert!(
                    (agg.estimate - want).abs() <= 1e-9 * (1.0 + want.abs()),
                    "{}: {} vs {}", agg.name, agg.estimate, want
                );
                match (agg.variance, report.variance(d).ok()) {
                    (Some(got), Some(want)) => prop_assert!(
                        (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                        "{}: variance {} vs {}", agg.name, got, want
                    ),
                    (got, want) => prop_assert_eq!(got.is_some(), want.is_some()),
                }
            }
            // What the accumulator held says which path it took: a general
            // one keeps a group per distinct lineage of every subset.
            let general: usize = (1usize..1 << analysis.schema.n())
                .map(|s| distinct(lineage.iter().map(|l| projected(l, s))))
                .sum();
            let full = if analysis.lineage_distinct { lineage.len() } else { 0 };
            prop_assert_eq!(r.lineage_entries, general - full);
            if !row_level && !lineage.is_empty() {
                prop_assert!(r.lineage_entries > 0, "SYSTEM takes the general path");
            }
        }
    }
}

/// A cursor attached to the shared hub mid-table goes round exactly once:
/// every row id at most once, wherever it started.
#[test]
fn a_shared_cursor_started_mid_table_never_repeats_a_row() {
    let engine = Engine::builder(support::catalog())
        .shared_scans(true)
        .scan_window(64, 1 << 17)
        .build();
    let hub = engine.shared_scan("t").expect("table exists");
    support::warm_hub(&hub, engine.catalog(), 200);
    assert!(hub.stats().head >= 200 && hub.stats().head < 600);

    let (plan, _) = support::shaped_plan(1, SamplingMethod::Bernoulli { p: 0.7 });
    assert!(rewrite(&plan, engine.catalog()).unwrap().lineage_distinct);
    let LogicalPlan::Aggregate { input, .. } = &plan else {
        unreachable!()
    };
    let exec = ExecOptions {
        seed: 5,
        ..Default::default()
    };
    let stream = open_shared_stream(input, engine.catalog(), &exec, &hub).unwrap();
    let lineage = lineage_of(vec![stream], 100);
    assert!(lineage.len() > 100, "{} rows", lineage.len());
    assert_eq!(distinct(&lineage), lineage.len());
    // It did wrap: rows from before the attach point are in the sample.
    assert!(lineage.iter().any(|l| l[0] < 200) && lineage.iter().any(|l| l[0] >= 400));
}

#[test]
fn a_single_table_query_holds_no_lineage_entries_and_a_join_none_per_pair() {
    let catalog = generate(&TpchConfig::scale(0.002).with_seed(11));
    let engine = Engine::new(catalog.clone());
    let run = |sql: &str| {
        let r = engine.session().query(sql).seed(7).run().unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        r
    };

    let scalar =
        run("SELECT SUM(l_quantity), AVG(l_discount) FROM lineitem TABLESAMPLE (40 PERCENT)");
    assert!(scalar.analysis.lineage_distinct);
    assert!(support::scalar(&scalar).rows > 4000);
    assert_eq!(scalar.lineage_entries, 0);

    let grouped =
        run("SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (40 PERCENT) GROUP BY l_returnflag");
    assert_eq!(support::grouped(&grouped).groups.len(), 3);
    assert_eq!(grouped.lineage_entries, 0);

    // SYSTEM keeps its one table: a group per sampled block.
    let system = run("SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE SYSTEM (40)");
    assert!(!system.analysis.lineage_distinct);
    let blocks = system.lineage_entries;
    assert!(blocks > 0 && (blocks as u64) < support::scalar(&system).rows);

    let sql = "SELECT SUM(l_extendedprice) \
               FROM lineitem TABLESAMPLE (30 PERCENT), orders TABLESAMPLE (1500 ROWS) \
               WHERE l_orderkey = o_orderkey";
    let join = run(sql);
    assert!(join.analysis.lineage_distinct);
    let plan = plan_sql(sql, &catalog).unwrap();
    let LogicalPlan::Aggregate { input, .. } = &plan else {
        unreachable!()
    };
    let exec = ExecOptions {
        seed: 7,
        ..Default::default()
    };
    let lineage = lineage_of(vec![open_stream(input, &catalog, &exec).unwrap()], 4096);
    assert_eq!(lineage.len() as u64, support::scalar(&join).rows);
    let (l_ids, o_ids) = (
        distinct(lineage.iter().map(|l| l[0])),
        distinct(lineage.iter().map(|l| l[1])),
    );
    // Every lineitem row joins one order, so the pairs are as many as the
    // `l` ids — and none of them is stored.
    assert_eq!(l_ids, lineage.len());
    assert!(o_ids > 100 && o_ids < l_ids);
    assert_eq!(join.lineage_entries, l_ids + o_ids);
}
