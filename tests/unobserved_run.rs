//! `.run()` hands no snapshot out, so its ticks only judge the stop and the
//! accumulator is read out once, at the stop; `run_with` reads every tick
//! out for its callback. Both must end on the same result: same stop
//! reason, tick count, lineage entries and report, and the same final
//! snapshot — its `chunk`, `rows`, `new_groups` (the last tick's
//! discoveries, not every group), each group's `tracked` and `converged` —
//! bar the clock.
//!
//! At `jobs = 1` a run is a function of its options, so the two results
//! must agree as `Debug` strings with `elapsed` zeroed, over the
//! `shaped_plan` shapes × three samplers × seeds 0–5 × five rules (none, a
//! row budget, `deadline 0`, a CI target, and no rule under
//! `adaptive_chunks`; the last two read every tick's interval). At `jobs = 4` the coordinator
//! ticks whenever a worker pings, so the tick count and where a budget
//! lands follow the thread schedule; there the pin compares what the
//! schedule does not decide.

mod support;

use std::time::Duration;

use sampling_algebra::prelude::*;
use support::{catalog, grouped, shaped_plan};

#[derive(Clone, Copy, Debug)]
enum Rule {
    Exhaustive,
    Rows(u64),
    DeadlineZero,
    Ci,
    Adaptive,
}

const RULES: [Rule; 5] = [
    Rule::Exhaustive,
    Rule::Rows(120),
    Rule::DeadlineZero,
    Rule::Ci,
    Rule::Adaptive,
];

fn methods() -> [SamplingMethod; 3] {
    [
        SamplingMethod::Bernoulli { p: 0.5 },
        SamplingMethod::Wor { size: 150 },
        SamplingMethod::System { p: 0.5 },
    ]
}

/// Small chunks, so a run over `support::catalog`'s 600 rows takes many
/// ticks.
fn query(
    catalog: &Catalog,
    (plan, group_by): &(LogicalPlan, Vec<Expr>),
    seed: u64,
    jobs: usize,
    rule: Rule,
) -> QueryBuilder {
    let q = support::query(plan, catalog, seed, 0.95)
        .group_by(group_by.clone())
        .jobs(jobs)
        .chunk_rows(24);
    match rule {
        Rule::Exhaustive => q,
        Rule::Rows(n) => q.rows(n),
        Rule::DeadlineZero => q.deadline(Duration::ZERO),
        Rule::Ci => q.within(0.3, 0.9),
        Rule::Adaptive => q.adaptive_chunks(true),
    }
}

/// The whole result as text, the clock zeroed: `Debug` prints every f64 so
/// that it round-trips, so equal renderings are equal bits.
fn rendered(mut r: QueryResult) -> String {
    match &mut r.snapshot {
        Snapshot::Scalar(s) => s.elapsed = Duration::ZERO,
        Snapshot::Grouped(s) => s.elapsed = Duration::ZERO,
    }
    format!("{r:?}")
}

#[test]
fn at_one_worker_run_ends_on_run_withs_result_bit_for_bit() {
    let c = catalog();
    let (mut cells, mut multi_tick, mut adapted, mut converged) = (0, 0, 0, 0);
    for shape in 0..5u8 {
        for method in methods() {
            let plan = shaped_plan(shape, method.clone());
            for seed in 0..6 {
                let mut exhaustive_ticks = 0;
                for rule in RULES {
                    let what = format!("shape {shape}, {method:?}, seed {seed}, {rule:?}");
                    let q = || query(&c, &plan, seed, 1, rule);
                    let observed = q().run_with(|_| {}).expect(&what);
                    let unobserved = q().run().expect(&what);
                    assert_eq!(observed.chunks, observed.snapshot.chunk(), "{what}");
                    match rule {
                        Rule::Exhaustive => exhaustive_ticks = observed.chunks,
                        Rule::Adaptive => {
                            adapted += usize::from(observed.chunks < exhaustive_ticks)
                        }
                        _ => {}
                    }
                    multi_tick += usize::from(observed.chunks > 2);
                    converged += usize::from(observed.reason == StopReason::CiConverged);
                    assert_eq!(rendered(unobserved), rendered(observed), "{what}");
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 5 * 3 * 6 * RULES.len());
    // The grid must exercise what it pins: runs of many ticks, whose last
    // snapshot has predecessors, CI targets met mid-run, and adaptive runs
    // whose hint grew.
    assert!(
        multi_tick > cells / 2,
        "{multi_tick} of {cells} ran > 2 ticks"
    );
    assert!(converged > 30, "{converged} runs met their CI target");
    assert!(adapted > 30, "{adapted} adaptive runs took fewer ticks");
}

#[test]
fn a_grouped_runs_last_snapshot_counts_only_the_last_ticks_discoveries() {
    // Every group of `support::catalog`'s `k` turns up in the first ticks:
    // the final snapshot of a long run discovers nothing.
    let c = catalog();
    let plan = shaped_plan(4, SamplingMethod::Bernoulli { p: 0.5 });
    for seed in 0..6 {
        let r = query(&c, &plan, seed, 1, Rule::Exhaustive).run().unwrap();
        let s = grouped(&r);
        assert!(r.chunks > 5, "seed {seed}: {} ticks", r.chunks);
        assert_eq!(s.groups.len(), 12, "seed {seed}");
        assert_eq!(s.new_groups, 0, "seed {seed}");
    }
}

/// What a final result says that the thread schedule does not decide.
fn scheduling_free(r: &QueryResult, what: &str) -> String {
    let s = &r.snapshot;
    assert_eq!(r.chunks, s.chunk(), "{what}");
    let groups = match s {
        Snapshot::Scalar(_) => Vec::new(),
        Snapshot::Grouped(g) => {
            assert!(g.new_groups as usize <= g.groups.len(), "{what}");
            assert_eq!(
                g.groups.iter().map(|g| g.sample_rows).sum::<u64>(),
                g.rows,
                "{what}"
            );
            g.groups
                .iter()
                .map(|g| {
                    format!(
                        "{:?} {} {} {}",
                        g.key, g.sample_rows, g.tracked, g.converged
                    )
                })
                .collect()
        }
    };
    match r.reason {
        // The realized sample is the sequential run's: everything but the
        // tick count and the merge's rounding.
        StopReason::Exhausted => format!(
            "exhausted: {} rows, {} lineage entries, {:?}, report m {:?}",
            s.rows(),
            r.lineage_entries,
            groups,
            r.report.as_ref().map(|r| r.m)
        ),
        // The first tick stops the run: every group it shows is new to it.
        StopReason::Deadline => {
            if let Snapshot::Grouped(g) = s {
                assert_eq!(g.new_groups as usize, g.groups.len(), "{what}");
            }
            format!("deadline at tick {}", r.chunks)
        }
        reason => format!("{reason:?}"),
    }
}

/// `a` and `b` estimate the same aggregates to 1e-9 (merge order rounds).
fn same_estimates(a: &QueryResult, b: &QueryResult, what: &str) {
    let aggs = |r: &QueryResult| -> Vec<f64> {
        match &r.snapshot {
            Snapshot::Scalar(s) => s.aggs.iter().map(|a| a.estimate).collect(),
            Snapshot::Grouped(g) => g
                .groups
                .iter()
                .flat_map(|g| g.aggs.iter().map(|a| a.estimate))
                .collect(),
        }
    };
    let (x, y) = (aggs(a), aggs(b));
    assert_eq!(x.len(), y.len(), "{what}");
    for (x, y) in x.iter().zip(&y) {
        let close = (x - y).abs() <= 1e-9 * (1.0 + x.abs()) || (x.is_nan() && y.is_nan());
        assert!(close, "{what}: {x} vs {y}");
    }
}

#[test]
fn at_four_workers_run_ends_where_run_with_ends() {
    let c = catalog();
    for shape in 0..5u8 {
        for method in methods() {
            let plan = shaped_plan(shape, method.clone());
            for seed in 0..6 {
                for rule in [Rule::Exhaustive, Rule::Rows(120), Rule::DeadlineZero] {
                    let what = format!("shape {shape}, {method:?}, seed {seed}, {rule:?}");
                    let q = || query(&c, &plan, seed, 4, rule);
                    let observed = q().run_with(|_| {}).expect(&what);
                    let unobserved = q().run().expect(&what);
                    // A rule can fire on the tick that drains the last
                    // worker, which then reports exhaustion.
                    for r in [&observed, &unobserved] {
                        let allowed = match rule {
                            Rule::Rows(_) => r.reason == StopReason::RowBudget,
                            Rule::DeadlineZero => r.reason == StopReason::Deadline,
                            _ => false,
                        };
                        assert!(
                            allowed || r.reason == StopReason::Exhausted,
                            "{what}: {:?}",
                            r.reason
                        );
                        if r.reason == StopReason::RowBudget {
                            assert!(r.snapshot.rows() >= 120, "{what}");
                        }
                    }
                    if observed.reason == unobserved.reason {
                        if observed.reason == StopReason::Exhausted {
                            same_estimates(&observed, &unobserved, &what);
                        }
                        assert_eq!(
                            scheduling_free(&unobserved, &what),
                            scheduling_free(&observed, &what),
                            "{what}"
                        );
                    }
                }
            }
        }
    }
}
