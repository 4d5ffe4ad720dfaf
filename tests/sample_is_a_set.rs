//! A sample is a set: every sampler keeps a row by a function of its id,
//! drawn once per `(plan, seed)`, so *which* tuples a plan realizes does
//! not depend on how the rows are visited. For every sampler shape — a
//! union of samples, over one table or over a join, included — the sorted
//! lineage tuples are identical across worker counts, chunk sizes, scan
//! orders and shared-scan hubs at any attach origin. A union therefore runs
//! at `--jobs N` like any other plan, every shape rides a hub, and each
//! exhausted run equals its private batch estimate.

mod support;

use std::sync::Arc;

use sampling_algebra::exec::{open_shared_stream, SharedTableScan};
use sampling_algebra::prelude::*;

/// The sampler shapes over [`support::catalog`]'s `t` (600 rows in 16-row
/// blocks) and `d` (12 rows), as aggregate inputs.
fn shapes() -> Vec<(&'static str, LogicalPlan)> {
    let t = |m: SamplingMethod| LogicalPlan::scan("t").sample(m);
    let d = |m: SamplingMethod| LogicalPlan::scan("d").sample(m);
    let join = |pt: f64, pd: f64| {
        t(SamplingMethod::Bernoulli { p: pt }).join_on(
            d(SamplingMethod::Bernoulli { p: pd }),
            col("k").eq(col("dk")),
        )
    };
    vec![
        ("bernoulli", t(SamplingMethod::Bernoulli { p: 0.4 })),
        ("system", t(SamplingMethod::System { p: 0.4 })),
        ("wor", t(SamplingMethod::Wor { size: 150 })),
        ("bernoulli ⋈ bernoulli", join(0.5, 0.6)),
        (
            "union over one table",
            t(SamplingMethod::Bernoulli { p: 0.3 })
                .union_samples(t(SamplingMethod::Bernoulli { p: 0.4 })),
        ),
        (
            "union over a join",
            join(0.5, 0.6).union_samples(join(0.4, 0.7)),
        ),
    ]
}

/// The sorted lineage tuples a stream (or a set of worker streams) emits.
fn sorted(streams: Vec<ChunkStream>, chunk: usize) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = streams
        .into_iter()
        .flat_map(|s| s.collect_rows(chunk).unwrap())
        .map(|row| row.lineage)
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn every_sampler_realizes_one_set_in_every_mode() {
    let catalog = support::catalog();
    for (name, plan) in shapes() {
        for seed in [3, 17] {
            let realized = |jobs: usize, chunk: usize, shuffle_scan: bool| {
                let opts = ExecOptions {
                    seed,
                    shuffle_scan,
                    ..Default::default()
                };
                sorted(
                    open_stream_partitioned(&plan, &catalog, &opts, jobs).unwrap(),
                    chunk,
                )
            };
            let reference = realized(1, 4096, false);
            assert!(!reference.is_empty(), "{name} seed {seed}");
            for jobs in [1, 2, 4, 7] {
                for chunk in [1, 37, 4096] {
                    for shuffle in [false, true] {
                        assert_eq!(
                            realized(jobs, chunk, shuffle),
                            reference,
                            "{name} seed {seed}: jobs {jobs}, chunk {chunk}, shuffled {shuffle}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_sampler_shape_is_the_same_set_on_a_hub_at_any_origin() {
    let catalog = support::catalog();
    let opts = ExecOptions {
        seed: 5,
        ..Default::default()
    };
    for (name, plan) in shapes() {
        let private = sorted(vec![open_stream(&plan, &catalog, &opts).unwrap()], 37);
        for origin in [0, 200, 450] {
            let hub = Arc::new(SharedTableScan::new(catalog.get("t").unwrap(), 50));
            support::warm_hub(&hub, &catalog, origin);
            let shared = open_shared_stream(&plan, &catalog, &opts, &hub).unwrap();
            assert_eq!(sorted(vec![shared], 37), private, "{name}: origin {origin}");
        }
    }
}

/// Every number of an exhausted answer: rows, and per group the estimate
/// and variance of every aggregate.
type Numbers = (u64, Vec<(Vec<Value>, f64, f64)>);

fn numbers(rows: u64, groups: Vec<(Vec<Value>, &[AggResult])>) -> Numbers {
    let cells = groups
        .into_iter()
        .flat_map(|(key, aggs)| {
            aggs.iter()
                .map(move |a| (key.clone(), a.estimate, a.variance.unwrap_or(f64::NAN)))
        })
        .collect();
    (rows, cells)
}

/// The numbers of a result that must have exhausted its sample: a run to
/// the end, or a batch.
fn exhausted(name: &str, run: QueryResult) -> Numbers {
    assert_eq!(run.reason, StopReason::Exhausted, "{name}");
    match &run.snapshot {
        Snapshot::Scalar(s) => numbers(s.rows, vec![(vec![], &s.aggs[..])]),
        Snapshot::Grouped(s) => numbers(
            s.rows,
            s.groups
                .iter()
                .map(|g| (g.key.clone(), &g.aggs[..]))
                .collect(),
        ),
    }
}

/// One sample, and every estimate and variance to 1e-9.
fn assert_agree(name: &str, run: &Numbers, batch: &Numbers) {
    assert_eq!(run.0, batch.0, "{name}: one sample");
    assert_eq!(run.1.len(), batch.1.len(), "{name}");
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * (1.0 + y.abs());
    for ((rk, re, rv), (bk, be, bv)) in run.1.iter().zip(&batch.1) {
        assert_eq!(rk, bk, "{name}");
        assert!(close(*re, *be), "{name} {rk:?}: {re} vs {be}");
        assert!(close(*rv, *bv), "{name} {rk:?}: variance {rv} vs {bv}");
    }
}

fn aggregate(input: LogicalPlan) -> LogicalPlan {
    input.aggregate(vec![AggSpec::sum(col("v"), "s"), AggSpec::count_star("n")])
}

#[test]
fn a_union_runs_at_jobs_n_and_exhausts_to_its_batch_estimate() {
    let engine = Engine::new(support::catalog());
    for (name, input) in shapes().into_iter().skip(4) {
        let plan = aggregate(input);
        for group_by in [vec![], vec![col("k")]] {
            let query = || {
                engine
                    .session()
                    .query_plan(&plan)
                    .group_by(group_by.clone())
                    .seed(11)
                    .chunk_rows(64)
            };
            let run = exhausted(name, query().jobs(4).run().unwrap());
            let batch = exhausted(name, query().batch().unwrap());
            assert_agree(name, &run, &batch);
        }
    }
}

#[test]
fn every_sampler_shape_rides_a_hub_to_its_private_batch_estimate() {
    let private = Engine::new(support::catalog());
    for (name, input) in shapes() {
        let plan = aggregate(input);
        for group_by in [vec![], vec![col("k")]] {
            let want = private
                .session()
                .query_plan(&plan)
                .group_by(group_by.clone())
                .seed(11)
                .batch()
                .unwrap();
            let want = exhausted(name, want);
            for origin in [0, 200, 450] {
                let engine = Engine::builder(support::catalog())
                    .shared_scans(true)
                    .scan_window(64, 1 << 17)
                    .build();
                let hub = engine.shared_scan("t").unwrap();
                support::warm_hub(&hub, engine.catalog(), origin);
                let served = hub.stats().rows_served;
                let run = engine
                    .session()
                    .query_plan(&plan)
                    .group_by(group_by.clone())
                    .seed(11)
                    .chunk_rows(64)
                    .run()
                    .unwrap();
                assert_eq!(
                    hub.stats().rows_served,
                    served + 600,
                    "{name}: rode the hub"
                );
                assert_agree(name, &exhausted(name, run), &want);
            }
        }
    }
}
