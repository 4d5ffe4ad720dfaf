//! Shared scan cursors through the engine, end to end: a session that
//! attaches to the circular scan mid-stream (a scan-prefix origin shift)
//! must read out *exactly* a private batch run at exhaustion, keep
//! Chebyshev coverage across trials, and N concurrent sessions over one
//! table must cost ~1 table scan between them.

mod support;

use sampling_algebra::prelude::*;
use sampling_algebra::tpch::Zipf;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// `t(k, v)`: `rows` rows, v cycling 1..=7 (mean 4.0), k cycling 0..10.
fn catalog(rows: i64) -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema);
    for i in 0..rows {
        b.push_row(&[Value::Int(i % 10), Value::Float(1.0 + (i % 7) as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

fn sum_plan(p: f64) -> LogicalPlan {
    LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p })
        .aggregate(vec![AggSpec::sum(col("v"), "s")])
}

/// Advance the hub's head to at least `target` rows, so the next session
/// attaches mid-scan at that origin.
fn warm_hub(engine: &Engine, target: u64) -> u64 {
    let hub = engine.shared_scan("t").expect("table exists");
    support::warm_hub(&hub, engine.catalog(), target);
    hub.stats().head
}

/// A session attaching at 30% / 60% scan progress must, at exhaustion,
/// equal a private `.batch()` of the same plan and seed to 1e-9: the
/// attach origin changes neither the realized sample (samplers keep rows by
/// their ids) nor the estimate, once the Prop-8 WOR(consumed, total)
/// factor degenerates.
#[test]
fn mid_attach_exhaustion_equals_batch_estimator() {
    let rows = 3000u64;
    let plan = sum_plan(0.3);
    let private = Engine::new(catalog(rows as i64))
        .session()
        .query_plan(&plan)
        .seed(9)
        .batch()
        .unwrap();
    let batch = private.snapshot.as_scalar().unwrap();
    for warm_frac in [0.3, 0.6] {
        let engine = Engine::builder(catalog(rows as i64))
            .shared_scans(true)
            .scan_window(250, 1 << 17)
            .build();
        let origin = warm_hub(&engine, (rows as f64 * warm_frac) as u64);
        assert!(origin >= (rows as f64 * warm_frac) as u64 && origin < rows);
        let r = engine
            .session()
            .query_plan(&plan)
            .seed(9)
            .chunk_rows(128)
            .run()
            .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(engine.shared_scan("t").unwrap().stats().head, origin + rows);
        let snap = r.snapshot.as_scalar().unwrap();
        assert_eq!(snap.progress[0], (rows, rows), "full revolution consumed");
        assert_eq!(snap.rows, batch.rows, "warm {warm_frac}: one sample");
        let (eo, eb) = (snap.aggs[0].estimate, batch.aggs[0].estimate);
        assert!(eo > 0.0);
        assert!(
            (eo - eb).abs() < 1e-9 * (1.0 + eo.abs()),
            "warm {warm_frac}: online {eo} vs batch {eb}"
        );
        let (vo, vb) = (
            snap.aggs[0].variance.unwrap(),
            batch.aggs[0].variance.unwrap(),
        );
        assert!(
            (vo - vb).abs() < 1e-9 * (1.0 + vb.abs()),
            "warm {warm_frac}: online {vo} vs batch {vb}"
        );
    }
}

/// 100 seeded trials over a Zipf-skewed table, each attaching the session
/// at a different mid-scan origin: the estimates stay unbiased and the 99%
/// Chebyshev intervals keep ≥ 96% coverage of the true SUM — rotation of
/// the scan origin does not disturb the estimator's statistics.
#[test]
fn mid_attach_coverage_trial() {
    let zipf = Zipf::new(40, 1.3);
    let mut rng = StdRng::seed_from_u64(20_130_826);
    let values: Vec<f64> = (0..4000)
        .map(|_| 1.0 + zipf.sample(&mut rng) as f64)
        .collect();
    let truth: f64 = values.iter().sum();
    let build = || {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        for v in &values {
            b.push_row(&[Value::Float(*v)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    };
    let plan = LogicalPlan::scan("t")
        .sample(SamplingMethod::Bernoulli { p: 0.4 })
        .aggregate(vec![AggSpec::sum(col("v"), "s")]);
    let mut covered = 0u32;
    for seed in 0..100u64 {
        let engine = Engine::builder(build())
            .shared_scans(true)
            .scan_window(250, 1 << 17)
            .build();
        warm_hub(&engine, (seed * 131) % 4000);
        let r = engine
            .session()
            .query_plan(&plan)
            .seed(seed)
            .chunk_rows(256)
            .confidence(0.99)
            .run()
            .unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        let snap = r.snapshot.as_scalar().unwrap();
        if snap.aggs[0].ci_chebyshev.as_ref().unwrap().contains(truth) {
            covered += 1;
        }
    }
    assert!(
        covered >= 96,
        "99% Chebyshev coverage with mid-scan attach: {covered}/100"
    );
}

/// The serving claim, pinned: 4 concurrent sessions over one table via the
/// shared scan cursor gather at most 1.5× the rows a single query's scan
/// gathers. A gate cursor (attached but never pulled) plus a small lag
/// window keeps every session's attach origin within `lag` of row 0, so the
/// bound holds for any thread schedule: gathered ≤ n + lag.
#[test]
fn four_concurrent_sessions_cost_about_one_scan() {
    let n = 20_000u64;

    // Baseline: one query through its own engine gathers exactly n rows.
    let single = Engine::builder(catalog(n as i64))
        .shared_scans(true)
        .build();
    single
        .session()
        .query_plan(&sum_plan(0.5))
        .chunk_rows(512)
        .run()
        .unwrap();
    assert_eq!(single.scan_stats("t").unwrap().rows_gathered, n);

    let lag = n / 4; // 1.25× bound, comfortably under the 1.5× budget
    let engine = Engine::builder(catalog(n as i64))
        .shared_scans(true)
        .scan_window(256, lag)
        .build();
    let hub = engine.shared_scan("t").unwrap();
    let gate = hub.attach();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let engine = engine.clone();
                scope.spawn(move || {
                    engine
                        .session()
                        .query_plan(&sum_plan(0.5))
                        .seed(i)
                        .chunk_rows(512)
                        .run()
                        .unwrap()
                })
            })
            .collect();
        // All four sessions attach (within `lag` of the origin) before the
        // gate releases the window.
        while hub.stats().attached < 5 {
            std::thread::yield_now();
        }
        drop(gate);
        for h in handles {
            let r = h.join().unwrap();
            assert_eq!(r.reason, StopReason::Exhausted);
            assert_eq!(
                r.snapshot.as_scalar().unwrap().progress[0],
                (n, n),
                "each session consumed one full revolution"
            );
        }
    });

    let gathered = engine.scan_stats("t").unwrap().rows_gathered;
    assert!(gathered >= n, "at least one full scan: {gathered}");
    assert!(
        gathered as f64 <= 1.5 * n as f64,
        "4 concurrent sessions gathered {gathered} rows, over 1.5× a single \
         query's {n}-row scan"
    );
    assert_eq!(engine.scan_stats("t").unwrap().attached, 0);
}

/// Engines without `shared_scans(true)` keep private scans: no hub is
/// created by queries, and every scan starts at row 0, so the arrival
/// order — hence each mid-stream snapshot and where a CI rule stops — does
/// not depend on the queries run before (the realized sample never does).
#[test]
fn private_scans_by_default() {
    let engine = Engine::new(catalog(2000));
    let r1 = engine
        .session()
        .query_plan(&sum_plan(0.5))
        .seed(3)
        .run()
        .unwrap();
    let r2 = engine
        .session()
        .query_plan(&sum_plan(0.5))
        .seed(3)
        .run()
        .unwrap();
    assert!(engine.scan_stats("t").is_none(), "no hub without opt-in");
    // Same seed, private scans: identical realizations regardless of the
    // first query having run.
    let (e1, e2) = (
        r1.snapshot.as_scalar().unwrap().aggs[0].estimate,
        r2.snapshot.as_scalar().unwrap().aggs[0].estimate,
    );
    assert_eq!(e1, e2);
}
