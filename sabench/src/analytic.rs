//! End-to-end measurement of the analytic workloads through `Engine`, with
//! tracing off: time to first snapshot, time to ε, exhaustion throughput,
//! and the output checks that guard them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sa_exec::AggResult;
use sa_online::{Engine, QueryBuilder, QueryResult, Snapshot, StopReason};
use sa_storage::{Catalog, Value};

use crate::workloads::{Form, Query, CHUNK_ROWS};

/// Seed streams, so the phases of a run draw distinct query seeds.
pub const STREAM_CONVERGE: u64 = 1;
pub const STREAM_EXHAUST: u64 = 2;

/// One estimate of an answer: a scalar aggregate, or one aggregate of one
/// group.
#[derive(Debug, Clone, PartialEq)]
pub struct Est {
    pub estimate: f64,
    pub variance: Option<f64>,
    /// The normal interval at the run's confidence.
    pub ci: Option<(f64, f64)>,
}

/// An answer keyed by `(rendered group key, aggregate index)`; scalar
/// answers use the empty group key.
pub type Answer = BTreeMap<(String, usize), Est>;

pub fn render_key(key: &[Value]) -> String {
    key.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

pub fn insert_aggs(out: &mut Answer, key: &str, aggs: &[AggResult]) {
    for (i, a) in aggs.iter().enumerate() {
        out.insert(
            (key.to_string(), i),
            Est {
                estimate: a.estimate,
                variance: a.variance,
                ci: a.ci_normal.map(|ci| (ci.lo, ci.hi)),
            },
        );
    }
}

/// The estimates of a snapshot. `tracked_only` keeps just the groups the
/// stopping rule judged (all of them unless the query set `ci_top_k`).
pub fn answer_of(snapshot: &Snapshot, tracked_only: bool) -> Answer {
    let mut out = Answer::new();
    match snapshot {
        Snapshot::Scalar(s) => insert_aggs(&mut out, "", &s.aggs),
        Snapshot::Grouped(s) => {
            for g in s.groups.iter().filter(|g| g.tracked || !tracked_only) {
                insert_aggs(&mut out, &render_key(&g.key), &g.aggs);
            }
        }
    }
    out
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
}

/// Largest relative difference between two answers' estimates and
/// variances; infinite when their key sets differ.
pub fn max_rel_diff(a: &Answer, b: &Answer) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .map(|(k, ea)| match b.get(k) {
            Some(eb) => {
                let variance = match (ea.variance, eb.variance) {
                    (Some(va), Some(vb)) => rel_diff(va, vb),
                    (None, None) => 0.0,
                    _ => f64::INFINITY,
                };
                rel_diff(ea.estimate, eb.estimate).max(variance)
            }
            None => f64::INFINITY,
        })
        .fold(0.0, f64::max)
}

/// A workload query bound to an engine, ready to run in any form.
pub struct Runner<'a> {
    pub engine: &'a Engine,
    pub query: &'a Query,
}

impl Runner<'_> {
    pub fn builder(&self, form: Form, seed: u64) -> QueryBuilder {
        let mut b = self
            .engine
            .session()
            .query(&self.query.sql(form))
            .seed(seed)
            .chunk_rows(CHUNK_ROWS);
        if let Some(k) = self.query.ci_top_k {
            b = b.ci_top_k(k);
        }
        b
    }

    /// The exact answer: the query with sampling stripped, run once to
    /// exhaustion (an unsampled plan's exhaustion readout is the answer).
    pub fn exact(&self) -> Result<Answer, String> {
        let r = self
            .builder(Form::Exact, 0)
            .chunk_rows(1 << 16)
            .run()
            .map_err(|e| format!("exact query: {e}"))?;
        if r.reason != StopReason::Exhausted {
            return Err(format!("exact query stopped with {}", r.reason));
        }
        Ok(answer_of(&r.snapshot, false))
    }
}

/// Σ `row_count` of the query's base tables: the rows an exhaustion pass
/// must consider, whatever the plan does with them.
pub fn base_rows(catalog: &Catalog, query: &Query) -> u64 {
    query
        .tables
        .iter()
        .map(|(t, _)| catalog.get(t).map(|t| t.row_count()).unwrap_or(0))
        .sum()
}

/// One run to the accuracy target.
#[derive(Debug, Clone, Default)]
pub struct ConvergeRun {
    pub ttfs_ms: f64,
    pub tte_ms: f64,
    pub rows_at_stop: u64,
    pub scan_share_at_stop: f64,
    pub snapshots: u64,
    /// Intervals at stop judged against the exact answer, and how many of
    /// them did not contain it.
    pub intervals: u64,
    pub misses: u64,
    /// `Some(why)` when the run counts as a failed operation.
    pub failure: Option<String>,
}

/// Smallest per-relation scan coverage of a snapshot.
pub fn scan_share(snapshot: &Snapshot) -> f64 {
    snapshot
        .progress()
        .iter()
        .filter(|&&(_, available)| available > 0)
        .map(|&(consumed, available)| consumed.min(available) as f64 / available as f64)
        .fold(1.0, f64::min)
}

/// Count the intervals of `got` that miss `exact`.
pub fn judge(got: &Answer, exact: &Answer) -> (u64, u64) {
    let (mut intervals, mut misses) = (0, 0);
    for (k, est) in got {
        let (Some((lo, hi)), Some(truth)) = (est.ci, exact.get(k)) else {
            continue;
        };
        intervals += 1;
        if !(lo <= truth.estimate && truth.estimate <= hi) {
            misses += 1;
        }
    }
    (intervals, misses)
}

pub fn converge_once(runner: &Runner, seed: u64, exact: &Answer) -> ConvergeRun {
    let mut first: Option<Duration> = None;
    let start = Instant::now();
    let result = runner.builder(Form::Converge, seed).run_with(|snap| {
        if first.is_none() && snap.rel_half_width().is_some() {
            first = Some(start.elapsed());
        }
    });
    let tte = start.elapsed();
    let mut run = ConvergeRun {
        tte_ms: tte.as_secs_f64() * 1e3,
        ttfs_ms: first.unwrap_or(tte).as_secs_f64() * 1e3,
        ..Default::default()
    };
    match result {
        Err(e) => run.failure = Some(format!("converge run failed: {e}")),
        Ok(r) => {
            run.rows_at_stop = r.snapshot.rows();
            run.scan_share_at_stop = scan_share(&r.snapshot);
            run.snapshots = r.chunks;
            if r.reason != StopReason::CiConverged {
                run.failure = Some(format!("converge run stopped with {}", r.reason));
            }
            (run.intervals, run.misses) = judge(&answer_of(&r.snapshot, true), exact);
        }
    }
    run
}

/// Make the allocator pay now what it deferred when the last big query's
/// accumulators were freed. glibc parks freed chunks and coalesces them on
/// the next large request, which costs a fifth of a second after a
/// full-size pass and would land inside whatever is timed next. A user's
/// next query does pay it, so end-to-end runs never call this; the traced
/// run does, before each pass it attributes to layers.
pub fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(100_000)));
}

/// One run to exhaustion: wall seconds and the final result.
pub fn exhaust_once(runner: &Runner, seed: u64, jobs: usize) -> Result<(f64, QueryResult), String> {
    let start = Instant::now();
    let r = runner
        .builder(Form::Exhaust, seed)
        .jobs(jobs)
        .run()
        .map_err(|e| format!("exhaustion run failed: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    if r.reason != StopReason::Exhausted {
        return Err(format!("exhaustion run stopped with {}", r.reason));
    }
    Ok((secs, r))
}

/// An exhaustion readout must sit within 6σ of the exact answer (an
/// unsampled plan has σ = 0 and must hit it). This is a sanity bound, far
/// outside any honest interval, so it never fires by chance.
pub fn check_exhaustion_against_exact(got: &Answer, exact: &Answer) -> Result<(), String> {
    for (k, est) in got {
        let Some(truth) = exact.get(k) else {
            return Err(format!("exhaustion produced unknown key {k:?}"));
        };
        let sigma = est.variance.unwrap_or(0.0).max(0.0).sqrt();
        let slack = 6.0 * sigma + 1e-9 * truth.estimate.abs();
        if (est.estimate - truth.estimate).abs() > slack {
            return Err(format!(
                "exhaustion estimate {} for {k:?} is more than 6σ ({sigma}) from exact {}",
                est.estimate, truth.estimate
            ));
        }
    }
    Ok(())
}

/// The hand-driven pass and the `Engine` realize the same sample on the
/// same seed, so the hand-driven exhaustion readout must agree with
/// `engine_answer` — the Engine's, on `seed` — to 1e-9 (estimates and
/// variances, every group): the online driver's final answer is the batch
/// estimator's on the sample it consumed.
pub fn check_hand_driven(hand: &Answer, engine_answer: &Answer) -> Result<(), String> {
    let diff = max_rel_diff(engine_answer, hand);
    if diff.is_nan() || diff > 1e-9 {
        return Err(format!(
            "hand-driven exhaustion differs from the Engine's by {diff:e} relative"
        ));
    }
    Ok(())
}
