//! Online aggregation: watch the estimate converge, stop when it is good
//! enough.
//!
//! Runs the paper's kind of `TABLESAMPLE` aggregate progressively through
//! the [`Engine`]/[`Session`] API: the sampled plan streams in chunks, the
//! incremental accumulator keeps estimate/variance O(1)-readable, and the
//! query stops as soon as the 95% interval is within ±2% of the estimate —
//! then compares against the batch answer over the full sample and the
//! exact answer. A second act does the same for a `GROUP BY` query with
//! **per-group** stopping: the query only quits once every return flag's
//! interval is tight enough.
//!
//! ```sh
//! cargo run --release --example online_aggregation
//! ```

use sampling_algebra::prelude::*;
use sampling_algebra::sql::plan_online_sql;

fn main() {
    // 1. Data: TPC-H at a scale where batch execution is already noticeable.
    let catalog = generate(&TpchConfig::scale(0.01).with_seed(42));
    let li = catalog.get("lineitem").unwrap().row_count();
    println!("data: lineitem = {li} rows\n");

    // The engine owns the catalog and the serving policy; sessions hand out
    // queries with one fluent surface.
    let engine = Engine::new(catalog);

    // 2. The query carries its own stopping rule in SQL.
    let sql = "SELECT SUM(l_extendedprice * l_discount) AS revenue \
               FROM lineitem TABLESAMPLE (25 PERCENT) \
               WITHIN 2 PERCENT CONFIDENCE 95";
    println!("query:\n  {sql}\n");

    // 3. Progressive run on a worker thread: `.online()` returns a handle
    //    whose snapshot iterator streams live progress.
    println!(
        "{:>8} {:>9} {:>16} {:>12} {:>8}",
        "rows", "scanned", "estimate", "±half", "rel"
    );
    let handle = engine
        .session()
        .query(sql)
        .seed(7)
        .chunk_rows(2000)
        .online()
        .expect("query admitted");
    for snap in handle.snapshots() {
        let s = snap.as_scalar().expect("scalar query");
        let a = &s.aggs[0];
        let (half, rel) = match &a.ci_normal {
            Some(ci) => (
                format!("{:.0}", ci.width() / 2.0),
                format!("{:.2}%", ci.relative_half_width() * 100.0),
            ),
            None => ("—".into(), "—".into()),
        };
        let scanned = s
            .progress
            .iter()
            .map(|(c, n)| if *n == 0 { 1.0 } else { *c as f64 / *n as f64 })
            .fold(1.0f64, f64::min);
        println!(
            "{:>8} {:>8.1}% {:>16.2} {:>12} {:>8}",
            s.rows,
            scanned * 100.0,
            a.estimate,
            half,
            rel
        );
    }
    let result = handle.wait().expect("online run succeeds");

    println!(
        "\nstopped: {} after {} of the sample's tuples ({} chunks)\n",
        result.reason,
        result.snapshot.rows(),
        result.chunks
    );

    // 4. Compare: online early stop vs batch over the full sample vs exact.
    let (plan, _) = plan_online_sql(sql, engine.catalog()).unwrap();
    let batch = engine.session().query_plan(&plan).seed(7).batch().unwrap();
    let batch = batch.snapshot.as_scalar().unwrap();
    let exact = engine.session().query_plan(&plan).exact().unwrap();
    let exact = exact.snapshot.as_scalar().unwrap().aggs[0].estimate;
    let online_est = result.snapshot.as_scalar().unwrap().aggs[0].estimate;
    println!("online estimate (early stop)  : {online_est:.2}");
    println!(
        "batch estimate (full sample)  : {:.2}",
        batch.aggs[0].estimate
    );
    println!("exact answer                  : {exact:.2}");
    println!(
        "online error vs exact         : {:.2}%  (target was ±2% at 95%)",
        (online_est - exact).abs() / exact * 100.0
    );
    let ci = result.snapshot.as_scalar().unwrap().aggs[0]
        .ci_normal
        .unwrap();
    println!(
        "final interval contains exact : {}",
        if ci.contains(exact) { "yes" } else { "no" }
    );

    // 5. Grouped online aggregation: every group carries its own interval,
    //    and the stopping rule is judged per group — the query runs until the
    //    slowest group's interval is within ±5%. `GROUP BY` in the SQL is all
    //    it takes: the result comes back as the grouped Snapshot variant.
    //    (For long-tailed group counts, `.ci_top_k(k)` would let the K
    //    heaviest groups drive termination; three flags need no policy.)
    let gsql = "SELECT l_returnflag, SUM(l_extendedprice) AS revenue \
                FROM lineitem TABLESAMPLE (25 PERCENT) \
                GROUP BY l_returnflag \
                WITHIN 5 PERCENT CONFIDENCE 95";
    println!("\ngrouped query:\n  {gsql}\n");
    let grouped = engine
        .session()
        .query(gsql)
        .seed(7)
        .chunk_rows(2000)
        .run_with(|snap| {
            let s = snap.as_grouped().expect("grouped query");
            let per_group: Vec<String> = s
                .groups
                .iter()
                .map(|g| {
                    format!(
                        "{}={:.3e}{}",
                        g.key[0],
                        g.aggs[0].estimate,
                        if g.converged { "*" } else { "" }
                    )
                })
                .collect();
            println!(
                "{:>8} rows  {:>2} groups (+{} new)  worst rel {:>6}  [{}]",
                s.rows,
                s.groups.len(),
                s.new_groups,
                s.rel_half_width
                    .map(|r| format!("{:.2}%", r * 100.0))
                    .unwrap_or_else(|| "—".into()),
                per_group.join(" ")
            );
        })
        .expect("grouped online run succeeds");
    println!(
        "\nstopped: {} after {} tuples ({} chunks); * marks converged groups\n",
        grouped.reason,
        grouped.snapshot.rows(),
        grouped.chunks
    );

    // 6. Per-group comparison against the exact grouped answer.
    let exact_groups = engine.session().query(gsql).exact().unwrap();
    let exact_groups = &exact_groups.snapshot.as_grouped().unwrap().groups;
    println!(
        "{:<6} {:>16} {:>16} {:>9} {:>9}",
        "flag", "estimate", "exact", "error", "covered"
    );
    for g in &grouped.snapshot.as_grouped().unwrap().groups {
        let truth = exact_groups
            .iter()
            .find(|e| e.key == g.key)
            .expect("a sampled group exists in the data")
            .aggs[0]
            .estimate;
        let est = g.aggs[0].estimate;
        let ci = g.aggs[0].ci_normal.as_ref().unwrap();
        println!(
            "{:<6} {:>16.2} {:>16.2} {:>8.2}% {:>9}",
            g.key[0].to_string(),
            est,
            truth,
            (est - truth).abs() / truth * 100.0,
            if ci.contains(truth) { "yes" } else { "no" }
        );
    }

    // 7. Shard parallelism: the same query over 4 worker threads. Each
    //    worker consumes a disjoint slice of the sampled plan into a
    //    thread-local accumulator; the coordinator merges per-shard deltas
    //    at every snapshot and judges the stopping rule on the global
    //    state. At forced exhaustion the merged readout equals the batch
    //    estimator on the realized sample (to 1e-9) at any worker count.
    println!("\nsame scalar query, 4 worker threads (--jobs 4):");
    let mut ticks = 0u64;
    let parallel = engine
        .session()
        .query(sql)
        .seed(7)
        .chunk_rows(2000)
        .jobs(4)
        .run_with(|_| ticks += 1)
        .expect("parallel run");
    println!(
        "stopped: {} after {} tuples in {} snapshot ticks; estimate {:.2} \
         (sequential early stop was {:.2})",
        parallel.reason,
        parallel.snapshot.rows(),
        ticks,
        parallel.snapshot.as_scalar().unwrap().aggs[0].estimate,
        online_est
    );
}
