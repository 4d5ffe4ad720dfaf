//! Scan-order robustness: the opt-in seeded shuffled scan.
//!
//! Online aggregation's population scaling treats the scanned prefix as a
//! without-replacement draw from the table — an assumption a physically
//! *sorted* table violates as badly as possible. These tests pin both
//! sides of the trade: on a value-sorted table, mid-scan intervals keep
//! missing the truth until `shuffle_scan` restores the random-order
//! assumption, and the shuffled scan itself stays byte-reproducible per
//! seed, composes with union plans and partitioned workers, and bypasses
//! shared-scan hubs instead of corrupting them. The sampler axis is
//! tuple-level Bernoulli and block-level `SYSTEM`: under `SYSTEM` the
//! consumed prefix is counted in blocks, the unit the variance is summed
//! over, in whatever order the scan visits them.

use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use sampling_algebra::prelude::*;

/// A worst-case table for prefix scaling: 20 000 rows whose values grow
/// with physical position (`v = i`), in 64-row blocks so the shuffle has
/// enough blocks to permute. `SUM(v)` truth is 19 999·20 000/2.
fn sorted_catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema).with_block_rows(64);
    for i in 0..20_000 {
        b.push_row(&[Value::Int(i % 10), Value::Float(i as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

const TRUTH: f64 = 19_999.0 * 20_000.0 / 2.0;

/// Blocks of [`sorted_catalog`]'s table: ⌈20 000 / 64⌉.
const BLOCKS: u64 = 313;

/// The sampler axis: both at rate one half, per tuple and per block.
const SAMPLERS: [SamplingMethod; 2] = [
    SamplingMethod::Bernoulli { p: 0.5 },
    SamplingMethod::System { p: 0.5 },
];

fn sum_plan(method: &SamplingMethod) -> LogicalPlan {
    LogicalPlan::scan("t")
        .sample(method.clone())
        .aggregate(vec![AggSpec::sum(col("v"), "s")])
}

/// Relative standard deviation of the `SUM(v)` estimate from `units`
/// sampling units (rows, or blocks) each included with probability `pi`:
/// unit totals spread like a uniform variate on (0, max), so their squared
/// coefficient of variation is 1/3 and `σ²/μ² = (1 − π)/π · (1 + 1/3)/units`.
fn rel_sigma(pi: f64, units: u64) -> f64 {
    ((1.0 - pi) / pi * (4.0 / 3.0) / units as f64).sqrt()
}

fn mid_scan_covers(engine: &Engine, method: &SamplingMethod, seed: u64, shuffle: bool) -> bool {
    let r = engine
        .session()
        .query_plan(&sum_plan(method))
        .seed(seed)
        .chunk_rows(256)
        .confidence(0.99)
        .rows(1000)
        .shuffle_scan(shuffle)
        .run()
        .unwrap();
    assert_eq!(r.reason, StopReason::RowBudget, "seed {seed} ran dry");
    let Snapshot::Scalar(s) = r.snapshot else {
        panic!()
    };
    assert!(
        s.progress.iter().any(|&(c, a)| c < a),
        "seed {seed} exhausted the scan"
    );
    s.aggs[0]
        .ci_chebyshev
        .as_ref()
        .is_some_and(|ci| ci.contains(TRUTH))
}

/// The adversarial case the shuffle exists for: on a value-sorted table a
/// mid-scan 99% Chebyshev interval almost never contains the truth under
/// the physical scan order (the prefix only saw the smallest values), and
/// almost always does once the block order is shuffled.
#[test]
fn sorted_table_mid_scan_needs_the_shuffle() {
    let engine = Engine::new(sorted_catalog());
    for method in &SAMPLERS {
        let physical: u32 = (0..10)
            .filter(|&s| mid_scan_covers(&engine, method, s, false))
            .count() as u32;
        let shuffled: u32 = (0..10)
            .filter(|&s| mid_scan_covers(&engine, method, s, true))
            .count() as u32;
        assert!(
            physical <= 2,
            "{method:?}: physical order covered {physical}/10 on a sorted table — the \
             adversarial setup lost its teeth"
        );
        assert!(
            shuffled >= 8,
            "{method:?}: shuffled order covered only {shuffled}/10"
        );
    }
}

/// `(seed, shuffle_scan)` fully determines the run: two identical
/// invocations produce bit-identical snapshot sequences, and a different
/// seed produces a different one.
#[test]
fn shuffled_replays_are_byte_identical() {
    let engine = Engine::new(sorted_catalog());
    for method in &SAMPLERS {
        replays_byte_identically(&engine, method);
    }
}

fn replays_byte_identically(engine: &Engine, method: &SamplingMethod) {
    let trace = |seed: u64| {
        let mut snaps: Vec<(u64, u64)> = Vec::new();
        engine
            .session()
            .query_plan(&sum_plan(method))
            .seed(seed)
            .chunk_rows(256)
            .rows(1500)
            .shuffle_scan(true)
            .run_with(|s| {
                if let Snapshot::Scalar(p) = s {
                    snaps.push((p.rows, p.aggs[0].estimate.to_bits()));
                }
            })
            .unwrap();
        snaps
    };
    let a = trace(7);
    let b = trace(7);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must replay byte-identically");
    assert_ne!(a, trace(8), "different seeds must shuffle differently");
}

/// The shuffle composes with a `UnionSamples` plan: every branch scans the
/// same permuted block order, dedup still works on physical lineage, and
/// the mid-scan interval covers the truth on the sorted table.
#[test]
fn shuffle_composes_with_union_plans() {
    let engine = Engine::new(sorted_catalog());
    let branch = || LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.3 });
    let plan = branch()
        .union_samples(branch())
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let mut covered = 0u32;
    for seed in 0..10u64 {
        let r = engine
            .session()
            .query_plan(&plan)
            .seed(seed)
            .chunk_rows(256)
            .confidence(0.99)
            .rows(1200)
            .shuffle_scan(true)
            .run()
            .unwrap();
        assert_eq!(r.reason, StopReason::RowBudget);
        let Snapshot::Scalar(s) = r.snapshot else {
            panic!()
        };
        if s.aggs[0]
            .ci_chebyshev
            .as_ref()
            .is_some_and(|ci| ci.contains(TRUTH))
        {
            covered += 1;
        }
    }
    assert!(covered >= 8, "union+shuffle covered only {covered}/10");
}

/// `--jobs N` slices the shuffled block permutation across workers: the
/// run completes, stays deterministic per seed, and the exhaustive
/// estimate lands on the truth's scale (it is a plain Bernoulli sample of
/// the whole table, just gathered in a different order).
#[test]
fn shuffle_composes_with_partitioned_workers() {
    let engine = Engine::new(sorted_catalog());
    // Bernoulli keeps its 5% (> 6σ over 20 000 rows); SYSTEM's sampling
    // unit is one of 313 blocks, so its band is 4.5σ of that design.
    let tolerances = [0.05, 4.5 * rel_sigma(0.5, BLOCKS)];
    for (method, tolerance) in SAMPLERS.iter().zip(tolerances) {
        partitioned_shuffle_replays_on_scale(&engine, method, tolerance);
    }
}

fn partitioned_shuffle_replays_on_scale(engine: &Engine, method: &SamplingMethod, tolerance: f64) {
    let run = || {
        let r = engine
            .session()
            .query_plan(&sum_plan(method))
            .seed(13)
            .chunk_rows(512)
            .jobs(3)
            .shuffle_scan(true)
            .run()
            .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        let Snapshot::Scalar(s) = r.snapshot else {
            panic!()
        };
        s.aggs[0].estimate
    };
    let e1 = run();
    assert_eq!(
        e1.to_bits(),
        run().to_bits(),
        "parallel shuffle must replay"
    );
    assert!(
        (e1 - TRUTH).abs() < tolerance * TRUTH,
        "{method:?}: exhaustive estimate {e1} vs truth {TRUTH}"
    );
}

/// Stream level: `SYSTEM` over a shuffled scan reports the blocks the scan
/// has actually visited — strictly fewer than the table holds until the
/// scan's last range is reached, exactly all of them once the stream
/// drains — and three partitioned slices sum to the same totals.
#[test]
fn system_over_shuffle_counts_visited_blocks() {
    let c = sorted_catalog();
    let plan = LogicalPlan::scan("t").sample(SamplingMethod::System { p: 0.5 });
    let opts = ExecOptions {
        seed: 5,
        shuffle_scan: true,
        ..Default::default()
    };
    for parts in [1, 3] {
        let mut streams = open_stream_partitioned(&plan, &c, &opts, parts).unwrap();
        let summed = |streams: &[ChunkStream]| {
            streams.iter().fold((0, 0), |(consumed, available), s| {
                let (c, a) = s.progress()[0];
                (consumed + c, available + a)
            })
        };
        assert_eq!(summed(&streams), (0, BLOCKS), "parts={parts}");
        let mut seen = Vec::new();
        for w in 0..parts {
            loop {
                let exhausted = streams[w].next_batch(32).unwrap().is_empty();
                seen.push(summed(&streams));
                if exhausted {
                    break;
                }
            }
        }
        assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0), "parts={parts}");
        assert!(seen.iter().all(|&(_, available)| available == BLOCKS));
        assert_eq!(seen.last(), Some(&(BLOCKS, BLOCKS)), "parts={parts}");
        // A block counts once the scan is inside it, so every block is
        // reported only from the last one on: at most its two 32-row pulls
        // and the empty one (a sweep of dropped blocks ending the order
        // takes one).
        let full = seen.iter().position(|&(c, _)| c == BLOCKS).unwrap();
        assert!(full > BLOCKS as usize / 4, "parts={parts}");
        assert!(
            seen.len() - full <= 3,
            "parts={parts}: {BLOCKS} blocks reported {} pulls before the scan drained",
            seen.len() - full - 1
        );
    }
}

/// [`sorted_catalog`]'s shape with the trend taken out: every row of block
/// `b` holds `b mod 16 + ½`, so block totals still spread like a uniform
/// variate (squared coefficient of variation ⅓, as on the sorted table)
/// but every worker's slice looks like every other. On the sorted table
/// workers that run unevenly make the summed prefix a lopsided stratified
/// sample — the scan-order caveat, N times over — which is not what this
/// test is about. Returns the catalog and the exact `SUM(v)`.
fn striped_catalog() -> (Catalog, f64) {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
    let mut b = TableBuilder::new("t", schema).with_block_rows(64);
    let mut truth = 0.0;
    for i in 0..20_000 {
        let v = (i / 64 % 16) as f64 + 0.5;
        truth += v;
        b.push_row(&[Value::Float(v)]).unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    (c, truth)
}

/// Estimator level: a mid-scan `SYSTEM` estimate over a shuffled scan
/// targets the whole table (the visited blocks are a WOR draw of the
/// blocks, compacted onto the plan's GUS), at `jobs` 1 and N — both a
/// quarter of the way in and where a `WITHIN 20 PERCENT CONFIDENCE 95`
/// rule stops it, which is before the scan ends.
#[test]
fn system_over_shuffle_estimates_the_whole_table() {
    const SEEDS: u64 = 100;
    let (catalog, truth) = striped_catalog();
    let engine = Engine::new(catalog);
    let plan = sum_plan(&SamplingMethod::System { p: 0.5 });
    // One seed's estimate from a quarter of the blocks, each kept with
    // probability one half, has relative σ ≈ 17%, so the mean of 100 seeds
    // has ≈ 1.7%. A stop at ±20% is tighter per seed, but stopping when
    // the *relative* width first dips under ε favours the seeds that run
    // high — up to about a tenth on this data, and the rule's property, not
    // the scan's.
    let band = 0.15;
    assert!(band > 4.0 * rel_sigma(0.25 * 0.5, BLOCKS) / (SEEDS as f64).sqrt());
    for jobs in [1, 4] {
        let query = |seed: u64| {
            engine
                .session()
                .query_plan(&plan)
                .seed(seed)
                .chunk_rows(64)
                .jobs(jobs)
                .shuffle_scan(true)
        };
        let (mut quarter, mut stop) = (0.0, 0.0);
        for seed in 0..SEEDS {
            // No rule: of the whole run, the snapshot nearest 25% coverage.
            let mut nearest = (f64::INFINITY, f64::NAN);
            query(seed)
                .run_with(|s| {
                    let Snapshot::Scalar(p) = s else { panic!() };
                    let (consumed, available) = p.progress[0];
                    let off = (consumed as f64 / available as f64 - 0.25).abs();
                    if off < nearest.0 {
                        nearest = (off, p.aggs[0].estimate);
                    }
                })
                .unwrap();
            quarter += nearest.1 / SEEDS as f64;

            let r = query(seed).within(0.2, 0.95).run().unwrap();
            assert_eq!(r.reason, StopReason::CiConverged, "jobs={jobs} seed={seed}");
            let Snapshot::Scalar(s) = r.snapshot else {
                panic!()
            };
            let (consumed, available) = s.progress[0];
            assert_eq!(available, BLOCKS);
            assert!(
                consumed < available,
                "jobs={jobs} seed={seed}: stopped at full block coverage"
            );
            stop += s.aggs[0].estimate / SEEDS as f64;
        }
        for (what, mean) in [("25% coverage", quarter), ("the CI stop", stop)] {
            assert!(
                (mean - truth).abs() < band * truth,
                "jobs={jobs}: mean estimate at {what} is {mean}, truth {truth}"
            );
        }
    }
}

/// A shuffled query on a shared-scan engine silently takes a private
/// stream instead of the sequential broadcast hub — the hub is never even
/// created — so co-running physical-order queries keep their bus.
#[test]
fn shuffle_bypasses_shared_scan_hubs() {
    let engine = Engine::builder(sorted_catalog()).shared_scans(true).build();
    let r = engine
        .session()
        .query_plan(&sum_plan(&SAMPLERS[0]))
        .seed(3)
        .rows(1000)
        .shuffle_scan(true)
        .run()
        .unwrap();
    assert_eq!(r.reason, StopReason::RowBudget);
    assert!(
        engine.scan_stats("t").is_none(),
        "shuffled query must not open a shared-scan hub"
    );
    // A physical-order query on the same engine still rides the hub.
    engine
        .session()
        .query_plan(&sum_plan(&SAMPLERS[0]))
        .seed(3)
        .rows(1000)
        .run()
        .unwrap();
    assert!(engine.scan_stats("t").is_some());
}
