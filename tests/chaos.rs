//! Seeded chaos suite: deterministic fault injection against the full
//! serving stack. Pins the robustness invariants:
//!
//! - a worker panic at a chunk boundary is contained: the query completes
//!   `reason=degraded` (scalar AND grouped), no poisoned lock escapes, and
//!   admission slots / shared-scan cursors all return to zero;
//! - a hard deadline cancels-and-reports the last valid snapshot;
//! - transient injected I/O faults are retried and leave the estimate
//!   byte-identical to a fault-free run (`f64::to_bits`);
//! - a torn page surfaces as a typed corruption error, never a panic;
//! - with no faults armed, repeated seeded runs are byte-identical;
//! - everything injected is visible in the metrics dump.
//!
//! The failpoint registry is process-global, so every test here holds one
//! static mutex (with poison recovery — a failing chaos test must not
//! wedge its siblings).

use std::sync::Mutex;
use std::time::Duration;

use sampling_algebra::fault;
use sampling_algebra::prelude::*;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

const SUM: &str = "SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT)";
const GROUPED_SUM: &str = "SELECT k, SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT) GROUP BY k";

#[test]
fn worker_panic_degrades_scalar_query_and_releases_everything() {
    let _g = guard();
    fault::reset();
    let engine = Engine::builder(catalog(50_000))
        .metrics(true)
        .shared_scans(true)
        .build();
    fault::install("worker.chunk.panic=hit:3", 1).unwrap();
    let run = engine
        .session()
        .query(SUM)
        .seed(1)
        .jobs(4)
        .chunk_rows(512)
        .run();
    fault::reset();
    let run = run.unwrap();
    assert_eq!(run.reason, StopReason::Degraded, "{:?}", run.reason);
    let Snapshot::Scalar(s) = &run.snapshot else {
        panic!("scalar query");
    };
    assert!(s.aggs[0].estimate.is_finite());
    // The contained panic must give back the admission slot and any scan
    // cursor, and must be counted.
    assert_eq!(engine.active_queries(), 0);
    let attached = engine.scan_stats("t").map_or(0, |st| st.attached);
    assert_eq!(attached, 0, "degraded query leaked a scan cursor");
    assert!(
        engine
            .metrics()
            .counter("sa_worker_panics_contained_total")
            .unwrap_or(0)
            >= 1
    );
    assert_eq!(
        engine
            .metrics()
            .counter("sa_queries_finished_total{reason=\"degraded\"}"),
        Some(1)
    );
    // No poisoned lock escaped: the same engine must serve the next query
    // (same shards, same pools) to clean exhaustion.
    let clean = engine
        .session()
        .query(SUM)
        .seed(2)
        .jobs(4)
        .chunk_rows(512)
        .run()
        .unwrap();
    assert_eq!(clean.reason, StopReason::Exhausted);
}

#[test]
fn worker_panic_degrades_grouped_query_too() {
    let _g = guard();
    fault::reset();
    let engine = Engine::builder(catalog(50_000)).metrics(true).build();
    fault::install("worker.chunk.panic=hit:4", 2).unwrap();
    let run = engine
        .session()
        .query(GROUPED_SUM)
        .seed(3)
        .jobs(4)
        .chunk_rows(512)
        .run();
    fault::reset();
    let run = run.unwrap();
    assert_eq!(run.reason, StopReason::Degraded, "{:?}", run.reason);
    let Snapshot::Grouped(s) = &run.snapshot else {
        panic!("grouped query");
    };
    for g in &s.groups {
        assert!(g.aggs[0].estimate.is_finite());
    }
    assert_eq!(engine.active_queries(), 0);
    let clean = engine
        .session()
        .query(GROUPED_SUM)
        .seed(4)
        .jobs(4)
        .run()
        .unwrap();
    assert_eq!(clean.reason, StopReason::Exhausted);
    let Snapshot::Grouped(s) = &clean.snapshot else {
        panic!("grouped query");
    };
    assert_eq!(s.groups.len(), 10);
}

/// The in-thread pull and the worker pool feed one `tick`, so a snapshot
/// means the same thing whichever produced it, for either query shape:
/// `chunk` counts ticks from 1 without gaps, `rows` never shrinks, the last
/// callback is the result's snapshot, and there were `chunks` callbacks.
/// The stop ladder is shared too: a row budget ends both sources
/// `RowBudget`, and a contained worker panic ends the pool `Degraded`.
#[test]
fn both_sources_share_one_tick() {
    let _g = guard();
    fault::reset();
    let engine = Engine::new(catalog(50_000));
    let run = |sql: &str, jobs: usize, budget: u64| {
        let mut seen: Vec<Snapshot> = Vec::new();
        let r = engine
            .session()
            .query(sql)
            .seed(9)
            .jobs(jobs)
            .chunk_rows(256)
            .rows(budget)
            .run_with(|s| seen.push(s.clone()))
            .unwrap();
        let case = format!("{sql} at jobs = {jobs}");
        assert_eq!(seen.len() as u64, r.chunks, "{case}");
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.chunk(), i as u64 + 1, "{case}");
            assert_eq!(s.as_grouped().is_some(), sql == GROUPED_SUM, "{case}");
        }
        assert!(
            seen.windows(2).all(|w| w[0].rows() <= w[1].rows()),
            "{case}"
        );
        let last = seen.last().expect("a run ends on a tick");
        assert_eq!(
            format!("{last:?}"),
            format!("{:?}", r.snapshot),
            "{case}: the last callback is the result's snapshot"
        );
        r
    };
    for sql in [SUM, GROUPED_SUM] {
        for jobs in [1, 4] {
            let r = run(sql, jobs, 4_000);
            assert_eq!(r.reason, StopReason::RowBudget, "{sql} at jobs = {jobs}");
            assert!(r.snapshot.rows() >= 4_000);
        }
        // No budget the healthy workers could reach while the panic is
        // still unwinding: degraded must outrank their exhaustion.
        fault::install("worker.chunk.panic=hit:3", 5).unwrap();
        let r = run(sql, 4, u64::MAX);
        fault::reset();
        assert_eq!(r.reason, StopReason::Degraded, "{sql}");
    }
}

#[test]
fn deadline_cancels_and_reports_the_last_valid_snapshot() {
    let _g = guard();
    fault::reset();
    let engine = Engine::builder(catalog(800_000)).metrics(true).build();
    let run = engine
        .session()
        .query(SUM)
        .seed(5)
        .chunk_rows(512)
        .deadline(Duration::from_millis(1))
        .run()
        .unwrap();
    assert_eq!(run.reason, StopReason::Deadline, "{:?}", run.reason);
    let Snapshot::Scalar(s) = &run.snapshot else {
        panic!("scalar query");
    };
    // The deadline fired mid-scan: a strict prefix was absorbed, and the
    // readout over it is a well-formed estimate (Prop 8 — the prefix is a
    // WOR(consumed, N) sample; see docs/estimation-notes.md §9).
    assert!(s.rows > 0, "deadline before the first chunk");
    assert!(s.aggs[0].estimate.is_finite());
    assert!(s.aggs[0].ci_normal.is_some());
    assert_eq!(
        engine
            .metrics()
            .counter("sa_queries_finished_total{reason=\"deadline\"}"),
        Some(1)
    );
    assert_eq!(engine.active_queries(), 0);
}

/// With nothing armed, a seeded run is a pure function of (query, seed):
/// rerunning must reproduce the estimate to the bit.
#[test]
fn failpoints_disabled_runs_are_byte_identical() {
    let _g = guard();
    fault::reset();
    let estimate = |seed: u64| -> u64 {
        let engine = Engine::builder(catalog(20_000)).build();
        let run = engine
            .session()
            .query(SUM)
            .seed(seed)
            .chunk_rows(512)
            .run()
            .unwrap();
        assert_eq!(run.reason, StopReason::Exhausted);
        let Snapshot::Scalar(s) = &run.snapshot else {
            panic!("scalar query");
        };
        s.aggs[0].estimate.to_bits()
    };
    assert_eq!(estimate(11), estimate(11));
    assert_ne!(estimate(11), estimate(12), "different seeds, same sample?");
}

/// Benign fault sites (latency, retried transient I/O) perturb timing but
/// never data: the estimate stays byte-identical to the fault-free run,
/// which existing suites pin equal to the batch estimator on the same
/// realized sample.
#[test]
fn retried_and_delayed_faults_leave_the_estimate_byte_identical() {
    let _g = guard();
    fault::reset();
    let run_once = || -> u64 {
        let engine = Engine::builder(catalog(20_000)).build();
        let run = engine
            .session()
            .query(SUM)
            .seed(21)
            .chunk_rows(512)
            .run()
            .unwrap();
        assert_eq!(run.reason, StopReason::Exhausted);
        let Snapshot::Scalar(s) = &run.snapshot else {
            panic!("scalar query");
        };
        s.aggs[0].estimate.to_bits()
    };
    let clean = run_once();

    let retries_before = sampling_algebra::storage::retries_total();
    fault::install(
        "storage.page_read.io=hit:1,storage.page_read.latency=hit:2",
        21,
    )
    .unwrap();
    let faulted = run_once();
    let fired = fault::total_fired();
    fault::reset();
    assert!(fired >= 2, "both sites should have fired, got {fired}");
    assert!(
        sampling_algebra::storage::retries_total() > retries_before,
        "the transient i/o fault must go through the retry path"
    );
    assert_eq!(
        clean, faulted,
        "benign faults must not change the realized estimate"
    );
}

#[test]
fn torn_page_surfaces_as_a_typed_error_not_a_panic() {
    let _g = guard();
    fault::reset();
    let engine = Engine::builder(catalog(20_000)).metrics(true).build();
    fault::install("storage.page_read.torn=hit:1", 31).unwrap();
    let result = engine.session().query(SUM).seed(31).run();
    fault::reset();
    let err = result.expect_err("a torn page must fail the query");
    let msg = err.to_string().to_lowercase();
    assert!(msg.contains("corrupt") || msg.contains("torn"), "{msg}");
    assert_eq!(engine.active_queries(), 0, "failed query leaked its slot");
    // The engine survives: the next query runs clean.
    let clean = engine.session().query(SUM).seed(32).run().unwrap();
    assert_eq!(clean.reason, StopReason::Exhausted);
}

/// A persistent (non-transient) I/O fault exhausts the bounded retries and
/// surfaces as a typed I/O error.
#[test]
fn persistent_io_fault_exhausts_retries_into_a_typed_error() {
    let _g = guard();
    fault::reset();
    let engine = Engine::builder(catalog(20_000)).build();
    fault::install("storage.page_read.io=1.0", 41).unwrap();
    let result = engine.session().query(SUM).seed(41).run();
    fault::reset();
    let err = result.expect_err("a persistent i/o fault must fail the query");
    let msg = err.to_string();
    assert!(msg.contains("i/o fault persisted"), "{msg}");
    assert_eq!(engine.active_queries(), 0);
}

/// Everything injected is observable: site counters and storage retry /
/// corruption totals ride along in the Prometheus dump.
#[test]
fn injected_faults_surface_in_the_metrics_dump() {
    let _g = guard();
    fault::reset();
    let engine = Engine::builder(catalog(20_000)).metrics(true).build();
    fault::install("storage.page_read.latency=hit:1", 51).unwrap();
    let run = engine.session().query(SUM).seed(51).run();
    let dump = engine.render_prometheus();
    fault::reset();
    run.unwrap();
    assert!(dump.contains("sa_storage_read_retries_total"), "{dump}");
    assert!(dump.contains("sa_storage_corrupt_pages_total"), "{dump}");
    assert!(
        dump.contains("sa_fault_site_evals_total{site=\"storage.page_read.latency\"}"),
        "{dump}"
    );
    assert!(
        dump.contains("sa_fault_site_fired_total{site=\"storage.page_read.latency\"} 1"),
        "{dump}"
    );
}
