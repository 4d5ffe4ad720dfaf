//! The stream property behind the table-free accumulator, and the count
//! that shows it at work.
//!
//! * `ChunkStream::distinct` promises a family of relation subsets on which
//!   the stream never repeats a projected lineage. A generated walk over
//!   plan shape × sampler × seed × chunk size × `shuffle_scan` × 1 or 4
//!   slices (the union-of-samples shape and a join on a unique build key
//!   included) drains the stream and checks every set of the family's
//!   up-set tuple by tuple; a shared-hub cursor attached mid-table is
//!   checked the same way. `SYSTEM` streams report the empty family — a
//!   block's rows share its id — and keep every table, and whatever the
//!   family the exhausted `Engine` run equals the batch `SBox` (the
//!   general accumulator, fed row by row) to 1e-9.
//! * `QueryResult::lineage_entries` counts the lineage groups the
//!   accumulator held: none for a single-table row-sampled query, scalar,
//!   grouped or sub-sampled; for `lineitem ⋈ orders` built on the unique
//!   `o_orderkey` only the distinct sampled `o` ids; and for the same join
//!   built on `lineitem`, whose keys repeat, the `l` ids too — and never an
//!   entry per pair.

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

/// The non-empty subsets of `n` relations that contain a set of `family`.
fn up_set(family: &[RelSet], n: usize) -> Vec<usize> {
    (1usize..1 << n)
        .filter(|&s| {
            family
                .iter()
                .any(|d| d.is_subset_of(RelSet::from_bits(s as u32)))
        })
        .collect()
}

/// The lineage `plan`'s stream emits at `seed`, its `distinct` family, and
/// the general accumulator's report over it (the batch `SBox`, fed row by
/// row).
fn general_run(
    catalog: &Catalog,
    plan: &LogicalPlan,
    seed: u64,
) -> (Vec<Vec<u64>>, Vec<RelSet>, EstimateReport) {
    let LogicalPlan::Aggregate { aggs, input } = plan else {
        unreachable!("an aggregate plan")
    };
    let exec = ExecOptions {
        seed,
        ..Default::default()
    };
    let stream = open_stream(input, catalog, &exec).unwrap();
    let family = stream.distinct();
    let layout = layout_dims(aggs, stream.schema()).unwrap();
    let gus = rewrite(plan, catalog).unwrap().gus;
    let mut sbox = SBox::with_dims(gus, layout.dims());
    let mut lineage = Vec::new();
    for row in stream.collect_rows(4096).unwrap() {
        sbox.push(&row.lineage, &f_vector(&layout, &row).unwrap())
            .unwrap();
        lineage.push(row.lineage);
    }
    (lineage, family, sbox.finish().unwrap())
}

/// `got` within 1e-9 of `want`, relative to its size.
fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * (1.0 + want.abs())
}

/// `r`'s first aggregate — estimate and variance — is the general report's.
fn assert_reads(r: &QueryResult, want: &EstimateReport) {
    let agg = &support::scalar(r).aggs[0];
    assert!(close(agg.estimate, want.estimate[0]), "{agg:?} vs {want:?}");
    let variance = want.variance(0).unwrap();
    assert!(
        close(agg.variance.unwrap(), variance),
        "{agg:?} vs {variance}"
    );
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
        let n = analysis.schema.n();

        for jobs in [1usize, 4] {
            let exec = ExecOptions { seed, shuffle_scan, ..Default::default() };
            let streams = open_stream_partitioned(input, &catalog, &exec, jobs).unwrap();
            let family = streams[0].distinct();
            for stream in &streams {
                prop_assert_eq!(&stream.distinct(), &family, "workers share one family");
            }
            prop_assert_eq!(family.is_empty(), !row_level);
            if shape == 2 && row_level {
                // `d`'s keys are unique, so a `t` row meets one `d` row.
                prop_assert_eq!(&family, &vec![RelSet::singleton(0)]);
            }
            let layout = layout_dims(aggs, streams[0].schema()).unwrap();
            let mut sbox = SBox::with_dims(analysis.gus.clone(), layout.dims());
            let mut lineage = Vec::new();
            for stream in streams {
                for row in stream.collect_rows(chunk_rows).unwrap() {
                    sbox.push(&row.lineage, &f_vector(&layout, &row).unwrap()).unwrap();
                    lineage.push(row.lineage);
                }
            }
            let up = up_set(&family, n);
            for &s in &up {
                prop_assert_eq!(
                    distinct(lineage.iter().map(|l| projected(l, s))),
                    lineage.len(),
                    "a lineage projected on {:b} repeated", s
                );
            }
            if !group_by.is_empty() {
                continue; // the scalar readout below has no keys to compare
            }

            // The Engine realizes the same sample; its accumulator is
            // promised the stream's family, the SBox's is always general.
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
            // What the accumulator held says which tables it kept: a
            // general one keeps a group per distinct lineage of every
            // subset, the Engine's none for the up-set's.
            let general: usize = (1usize..1 << n)
                .map(|s| distinct(lineage.iter().map(|l| projected(l, s))))
                .sum();
            prop_assert_eq!(r.lineage_entries, general - up.len() * lineage.len());
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
    let LogicalPlan::Aggregate { input, .. } = &plan else {
        unreachable!()
    };
    let exec = ExecOptions {
        seed: 5,
        ..Default::default()
    };
    let stream = open_shared_stream(input, engine.catalog(), &exec, &hub).unwrap();
    assert_eq!(stream.distinct(), vec![RelSet::singleton(0)]);
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
    assert!(support::scalar(&scalar).rows > 4000);
    assert_eq!(scalar.lineage_entries, 0);

    let grouped =
        run("SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (40 PERCENT) GROUP BY l_returnflag");
    assert_eq!(support::grouped(&grouped).groups.len(), 3);
    assert_eq!(grouped.lineage_entries, 0);

    // SYSTEM keeps its one table: a group per sampled block.
    let system = run("SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE SYSTEM (40)");
    let blocks = system.lineage_entries;
    assert!(blocks > 0 && (blocks as u64) < support::scalar(&system).rows);

    let sql = "SELECT SUM(l_extendedprice) \
               FROM lineitem TABLESAMPLE (30 PERCENT), orders TABLESAMPLE (1500 ROWS) \
               WHERE l_orderkey = o_orderkey";
    let join = run(sql);
    let (lineage, family, want) = general_run(&catalog, &plan_sql(sql, &catalog).unwrap(), 7);
    assert_eq!(lineage.len() as u64, support::scalar(&join).rows);
    let (l_ids, o_ids) = (
        distinct(lineage.iter().map(|l| l[0])),
        distinct(lineage.iter().map(|l| l[1])),
    );
    // The build is on `orders`, whose key is unique: every lineitem row
    // joins one order, so the pairs are as many as the `l` ids, and
    // neither the pairs nor the `l` ids are stored.
    assert_eq!(family, vec![RelSet::singleton(0)]);
    assert_eq!(l_ids, lineage.len());
    assert!(o_ids > 100 && o_ids < l_ids);
    assert_eq!(join.lineage_entries, o_ids);
    assert_reads(&join, &want);
}

#[test]
fn a_join_built_on_repeating_keys_keeps_both_tables() {
    let catalog = generate(&TpchConfig::scale(0.002).with_seed(11));
    let sql = "SELECT SUM(l_extendedprice) \
               FROM orders TABLESAMPLE (1500 ROWS), lineitem TABLESAMPLE (30 PERCENT) \
               WHERE l_orderkey = o_orderkey";
    let r = Engine::new(catalog.clone())
        .session()
        .query(sql)
        .seed(7)
        .run()
        .unwrap();
    assert_eq!(r.reason, StopReason::Exhausted);
    let (lineage, family, want) = general_run(&catalog, &plan_sql(sql, &catalog).unwrap(), 7);
    assert_eq!(lineage.len() as u64, support::scalar(&r).rows);
    // An order meets each of its sampled lineitems: the `o` ids repeat.
    let (o_ids, l_ids) = (
        distinct(lineage.iter().map(|l| l[0])),
        distinct(lineage.iter().map(|l| l[1])),
    );
    assert_eq!(family, vec![RelSet::full(2)]);
    assert_eq!(l_ids, lineage.len());
    assert!(o_ids > 100 && o_ids < l_ids);
    assert_eq!(r.lineage_entries, l_ids + o_ids);
    assert_reads(&r, &want);
}

#[test]
fn a_subsample_of_a_distinct_stream_holds_what_the_whole_sample_holds() {
    let engine = Engine::new(support::catalog());
    for (shape, p) in [(0, 0.5), (2, 0.9)] {
        let (plan, _) = support::shaped_plan(shape, SamplingMethod::Bernoulli { p });
        let query = || engine.session().query_plan(&plan).seed(7);
        let whole = query().batch().unwrap();
        // A target no smaller than the sample: nothing is sub-sampled.
        let all = query().subsample(1 << 20).batch().unwrap();
        let some = query().subsample(60).batch().unwrap();
        assert_eq!(all.lineage_entries, whole.lineage_entries, "shape {shape}");
        assert!(
            some.lineage_entries <= whole.lineage_entries,
            "shape {shape}"
        );
        if shape == 0 {
            assert_eq!(whole.lineage_entries, 0);
            assert_eq!(some.lineage_entries, 0);
        } else {
            // `t ⋈ d` on `d`'s unique key keeps only the `{d}` table.
            assert!(whole.lineage_entries > 0 && whole.lineage_entries <= 12);
        }
        for (got, want) in support::scalar(&all)
            .aggs
            .iter()
            .zip(&support::scalar(&whole).aggs)
        {
            assert!(close(got.estimate, want.estimate), "{got:?} vs {want:?}");
            match (got.variance, want.variance) {
                (Some(g), Some(w)) => assert!(close(g, w), "{got:?} vs {want:?}"),
                (g, w) => assert_eq!(g.is_some(), w.is_some()),
            }
        }
    }
}
