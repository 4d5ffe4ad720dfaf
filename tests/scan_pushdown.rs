//! Pushdown actually prunes — pinned through the scan observability
//! counters, not timings.
//!
//! A two-column query over a 16-column table must gather exactly the two
//! needed segments (`sa_scan_cols_gathered_total`, counted once per
//! logical scan, so the pin is `--jobs`-independent); a selective
//! predicate fused into the scan must drop its rows *before* batch
//! materialization (`rows_gathered < rows_scanned`) and skip whole pages
//! whose rows all fail, each counted once (`pages_skipped` = 31 of 32,
//! whatever the pull size splits). All of it holds on both
//! backends — in-RAM and memory-mapped — sequentially and at 4 workers,
//! and the engine surfaces the same counters end to end.

use std::sync::OnceLock;

use sampling_algebra::exec::{open_stream_partitioned, ExecOptions, ScanObs};
use sampling_algebra::online::Registry;
use sampling_algebra::prelude::*;
use sampling_algebra::storage::{open_catalog_dir, persist_catalog};

const ROWS: i64 = 2048;
const BLOCK: usize = 64;

/// `w`: 16 Int columns over 2048 rows, block size 64. `c3` is the block
/// ordinal (constant within a block, so an equality predicate on it keeps
/// exactly one 64-row block); `c11` varies per row.
fn build_catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(
        (0..16)
            .map(|i| Field::new(format!("c{i}"), DataType::Int))
            .collect(),
    )
    .unwrap();
    let mut b = TableBuilder::new("w", schema).with_block_rows(BLOCK);
    for i in 0..ROWS {
        let row: Vec<Value> = (0..16)
            .map(|col| match col {
                3 => Value::Int(i / BLOCK as i64),
                11 => Value::Int(i),
                _ => Value::Int(col * 1000 + i % 7),
            })
            .collect();
        b.push_row(&row).unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

fn mapped_catalog() -> Catalog {
    static DIR: OnceLock<std::path::PathBuf> = OnceLock::new();
    let dir = DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("sa-scan-pushdown-{}", std::process::id()));
        persist_catalog(&build_catalog(), &dir).unwrap();
        dir
    });
    open_catalog_dir(dir).unwrap()
}

/// `SELECT c11 FROM w WHERE c3 = 5` as a stream plan: reads columns
/// {3, 11} of 16, keeps exactly one block's 64 rows.
fn two_col_plan() -> LogicalPlan {
    LogicalPlan::scan("w")
        .filter(col("c3").eq(lit(5i64)))
        .project(vec![(col("c11"), "x".into())])
}

/// Drain `plan` over `catalog` with `jobs` workers at `seed`, `hint` rows
/// per pull, and a live scan-obs registry; returns (rows yielded, metrics
/// snapshot).
fn drain(
    catalog: &Catalog,
    plan: &LogicalPlan,
    jobs: usize,
    seed: u64,
    hint: usize,
) -> (usize, sampling_algebra::online::MetricsSnapshot) {
    let registry = Registry::new();
    let opts = ExecOptions {
        seed,
        scan_obs: ScanObs::new(&registry),
        ..Default::default()
    };
    let streams = open_stream_partitioned(plan, catalog, &opts, jobs).unwrap();
    let mut rows = 0;
    for s in streams {
        rows += s.collect_rows(hint).unwrap().len();
    }
    (rows, registry.snapshot())
}

/// [`two_col_plan`] over `w TABLESAMPLE BERNOULLI(5%)`: the coin keeps a
/// few rows of block 5, or none.
fn sampled_two_col_plan() -> LogicalPlan {
    LogicalPlan::scan("w")
        .sample(SamplingMethod::Bernoulli { p: 0.05 })
        .filter(col("c3").eq(lit(5i64)))
        .project(vec![(col("c11"), "x".into())])
}

#[test]
fn two_column_query_gathers_two_segments_and_skips_failed_pages() {
    for catalog in [build_catalog(), mapped_catalog()] {
        for jobs in [1usize, 4] {
            // 64 pulls whole blocks; 100 and 37 split blocks across pulls,
            // and each split block is still one page.
            for hint in [64, 100, 37] {
                let cell = format!("jobs={jobs} hint={hint}");
                let (rows, m) = drain(&catalog, &two_col_plan(), jobs, 7, hint);
                // The predicate keeps exactly block 5: 64 of 2048 rows.
                assert_eq!(rows, BLOCK, "{cell}");
                // 2 of 16 column segments, counted once per logical scan —
                // identical at any worker count.
                assert_eq!(m.counter("sa_scan_cols_gathered_total"), Some(2), "{cell}");
                // Every row had its chance; only the survivors were ever
                // materialized into a batch.
                assert_eq!(
                    m.counter("sa_scan_rows_scanned_total"),
                    Some(ROWS as u64),
                    "{cell}"
                );
                assert_eq!(
                    m.counter("sa_scan_rows_gathered_total"),
                    Some(BLOCK as u64),
                    "{cell}"
                );
                // 31 of 32 blocks hold no survivor: each is one skipped
                // page, counted once.
                assert_eq!(m.counter("sa_scan_pages_skipped_total"), Some(31), "{cell}");
                // Sampled, the coin runs first: block 5 is a touched page
                // iff it keeps one of its rows.
                for seed in 0..6 {
                    let cell = format!("{cell} seed={seed} Bernoulli(5%)");
                    let (rows, m) = drain(&catalog, &sampled_two_col_plan(), jobs, seed, hint);
                    assert_eq!(m.counter("sa_scan_cols_gathered_total"), Some(2), "{cell}");
                    assert_eq!(
                        m.counter("sa_scan_rows_scanned_total"),
                        Some(ROWS as u64),
                        "{cell}"
                    );
                    assert_eq!(
                        m.counter("sa_scan_rows_gathered_total"),
                        Some(rows as u64),
                        "{cell}"
                    );
                    let skipped = if rows > 0 { 31 } else { 32 };
                    assert_eq!(
                        m.counter("sa_scan_pages_skipped_total"),
                        Some(skipped),
                        "{cell}: {rows} rows survive"
                    );
                }
            }
        }
    }
}

/// Without a predicate the scan still prunes columns but gathers every row
/// — `rows_gathered == rows_scanned` separates projection pruning from
/// predicate pushdown in the counters.
#[test]
fn projection_only_prunes_columns_not_rows() {
    let plan = LogicalPlan::scan("w").project(vec![(col("c11"), "x".into())]);
    for catalog in [build_catalog(), mapped_catalog()] {
        let (rows, m) = drain(&catalog, &plan, 1, 7, 100);
        assert_eq!(rows, ROWS as usize);
        assert_eq!(m.counter("sa_scan_cols_gathered_total"), Some(1));
        assert_eq!(m.counter("sa_scan_rows_scanned_total"), Some(ROWS as u64));
        assert_eq!(m.counter("sa_scan_rows_gathered_total"), Some(ROWS as u64));
        assert_eq!(m.counter("sa_scan_pages_skipped_total"), Some(0));
    }
}

/// `disable_pushdown` restores the unpruned scan: all 16 segments, every
/// row materialized — and the realized output is identical either way.
#[test]
fn disabling_pushdown_gathers_everything_with_identical_output() {
    let plan = two_col_plan();
    let catalog = mapped_catalog();
    let registry = Registry::new();
    let off = ExecOptions {
        seed: 7,
        disable_pushdown: true,
        scan_obs: ScanObs::new(&registry),
        ..Default::default()
    };
    let rows_off: Vec<_> = open_stream_partitioned(&plan, &catalog, &off, 1)
        .unwrap()
        .remove(0)
        .collect_rows(100)
        .unwrap();
    let m = registry.snapshot();
    assert_eq!(m.counter("sa_scan_cols_gathered_total"), Some(16));
    assert_eq!(m.counter("sa_scan_rows_gathered_total"), Some(ROWS as u64));

    let on = ExecOptions {
        seed: 7,
        ..Default::default()
    };
    let rows_on: Vec<_> = open_stream_partitioned(&plan, &catalog, &on, 1)
        .unwrap()
        .remove(0)
        .collect_rows(100)
        .unwrap();
    assert_eq!(rows_on, rows_off);
}

/// The engine wires the same counters end to end: an aggregate over two of
/// sixteen columns, driven at `--jobs 4` over the mapped backend, reports
/// the pruned gather in its metrics surface.
#[test]
fn engine_reports_pruned_gather_at_jobs_4() {
    let plan = LogicalPlan::scan("w")
        .filter(col("c3").eq(lit(5i64)))
        .aggregate(vec![AggSpec::sum(col("c11"), "s")]);
    for catalog in [build_catalog(), mapped_catalog()] {
        let engine = Engine::builder(catalog).metrics(true).build();
        let r = engine
            .session()
            .query_plan(&plan)
            .seed(3)
            .jobs(4)
            .run()
            .unwrap();
        // Block 5 holds c11 = 320..384: SUM = 64 * (320 + 383) / 2.
        let agg = &r.snapshot.as_scalar().unwrap().aggs[0];
        assert_eq!(agg.estimate, (320..384).sum::<i64>() as f64);
        let m = engine.metrics();
        assert_eq!(m.counter("sa_scan_cols_gathered_total"), Some(2));
        assert_eq!(m.counter("sa_scan_rows_scanned_total"), Some(ROWS as u64));
        assert_eq!(m.counter("sa_scan_rows_gathered_total"), Some(64));
        assert!(m.counter("sa_scan_pages_skipped_total").unwrap() > 0);
    }
}
