//! Answers pinned by digest, across commits.
//!
//! Every other pin either carries a tolerance or compares two paths of one
//! build. This one compares a build with the answers recorded in
//! `tests/answer_digest.txt`: one `cell digest` line per cell, each digest
//! every number the cell produced, folded as `to_bits` through
//! `splitmix64` into one `u64`. A change that moves an answer in its last
//! bit moves its cell's digest.
//!
//! - **Engine half.** The five `shaped_plan` shapes × samplers {none,
//!   Bernoulli 0.5, WOR 150, `SYSTEM` 0.5} × seeds 0–5 × chunk {64, 37} ×
//!   {no rule, `within(0.05, 0.95)`} × terminals {`run_with`'s ticks,
//!   `.run()`, `.batch()`, `.subsample(80).batch()`}. A cell folds every
//!   snapshot it sees (estimates, variances, both ends of both intervals or
//!   their absence, rows, coverage, the GUS, each group's key and rows) and
//!   the result around it; a cell the engine refuses folds its error text.
//! - **Key shapes.** The same grid over the keys the five shapes miss:
//!   `GROUP BY s` (a dictionary string, NULL keys included),
//!   `GROUP BY (k, s)`, and the θ-join `v > w`, which has no equi-key.
//! - **Stream half.** Each shape's aggregate input, opened with
//!   `open_stream` with pushdown on and off under the same samplers, seeds
//!   and two pull hints, folds every pull's cells, lineage and coverage.
//!   The engine cannot turn pushdown off, so this is what pins the plans
//!   whose filter stays an operator of its own.
//!
//! The plans run over `support::inexact_catalog`, whose sums round, so
//! their order shows in the last bit.
//!
//! Only what is deterministic is pinned: one worker, no wall-clock rule.
//! The interval ends go through the normal quantile's `ln` and `exp`,
//! whose last bit is the platform `libm`'s: the digests hold for the
//! pinned toolchain on x86-64 Linux.
//!
//! On a mismatch the test prints every differing, missing or stale cell
//! with the line that would replace it. A change that moves answers on
//! purpose edits the file by those lines and says which cells moved, and
//! why.

mod support;

use std::collections::BTreeMap;

use sampling_algebra::core::hash::splitmix64;
use sampling_algebra::prelude::*;
use support::{inexact_catalog, stacked_plan};

/// The committed digests: `cell digest` per line.
const DIGESTS: &str = include_str!("answer_digest.txt");

const SEEDS: std::ops::Range<u64> = 0..6;

/// Every plan of the grid over `t` sampled by `stack`, by its cell-name
/// tag, with its GROUP BY keys: the five `stacked_plan` shapes, then the
/// key shapes. A GROUP BY key does not reach the stream, so the stream
/// half takes the five shapes and the θ-join only (`streamed`).
fn plans(stack: &[SamplingMethod], streamed: bool) -> Vec<(String, LogicalPlan, Vec<Expr>)> {
    let mut plans: Vec<_> = (0..5u8)
        .map(|shape| {
            let (plan, group_by) = stacked_plan(shape, stack);
            (format!("shape{shape}"), plan, group_by)
        })
        .collect();
    let (grouped, _) = stacked_plan(4, stack);
    if !streamed {
        plans.push(("group_s".into(), grouped.clone(), vec![col("s")]));
        plans.push(("group_ks".into(), grouped, vec![col("k"), col("s")]));
    }
    let sampled = stack
        .iter()
        .fold(LogicalPlan::scan("t"), |plan, m| plan.sample(m.clone()));
    let sum = col("v").add(col("w"));
    let theta = sampled
        .join_on(
            LogicalPlan::scan("d").sample(SamplingMethod::Bernoulli { p: 0.75 }),
            col("v").gt(col("w")),
        )
        .aggregate(vec![
            AggSpec::sum(sum.clone(), "s"),
            AggSpec::count_star("n"),
            AggSpec::avg(sum, "a"),
        ]);
    plans.push(("theta".into(), theta, vec![]));
    plans
}

/// Each sampler of the grid with its cell-name tag; `None` leaves `t`
/// unsampled (the identity GUS).
fn samplers() -> [(&'static str, Option<SamplingMethod>); 4] {
    [
        ("none", None),
        ("bernoulli0.5", Some(SamplingMethod::Bernoulli { p: 0.5 })),
        ("wor150", Some(SamplingMethod::Wor { size: 150 })),
        ("system0.5", Some(SamplingMethod::System { p: 0.5 })),
    ]
}

/// A running digest: each word goes in through one `splitmix64`.
struct Fold(u64);

impl Fold {
    fn u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn opt(&mut self, x: Option<f64>) {
        match x {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
        }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        for w in b.chunks(8) {
            let mut word = [0u8; 8];
            word[..w.len()].copy_from_slice(w);
            self.u64(u64::from_le_bytes(word));
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u64(0),
            Value::Bool(b) => {
                self.u64(1);
                self.u64(u64::from(*b));
            }
            Value::Int(i) => {
                self.u64(2);
                self.u64(*i as u64);
            }
            Value::Float(x) => {
                self.u64(3);
                self.f64(*x);
            }
            Value::Str(s) => {
                self.u64(4);
                self.bytes(s.as_bytes());
            }
        }
    }

    fn progress(&mut self, progress: &[(u64, u64)]) {
        self.u64(progress.len() as u64);
        for &(consumed, available) in progress {
            self.u64(consumed);
            self.u64(available);
        }
    }

    fn gus(&mut self, gus: &GusParams) {
        self.f64(gus.a());
        self.u64(gus.b_table().len() as u64);
        for &b in gus.b_table() {
            self.f64(b);
        }
    }

    fn ci(&mut self, ci: Option<&ConfidenceInterval>) {
        self.opt(ci.map(|c| c.lo));
        self.opt(ci.map(|c| c.hi));
    }

    fn aggs(&mut self, aggs: &[AggResult]) {
        self.u64(aggs.len() as u64);
        for a in aggs {
            self.f64(a.estimate);
            self.opt(a.variance);
            self.ci(a.ci_normal.as_ref());
            self.ci(a.ci_chebyshev.as_ref());
            self.opt(a.quantile_bound);
        }
    }

    fn snapshot(&mut self, s: &Snapshot) {
        match s {
            Snapshot::Scalar(s) => {
                self.u64(0);
                self.u64(s.chunk);
                self.u64(s.rows);
                self.aggs(&s.aggs);
                self.opt(s.rel_half_width);
                self.f64(s.confidence);
                self.progress(&s.progress);
                self.gus(&s.gus);
            }
            Snapshot::Grouped(g) => {
                self.u64(1);
                self.u64(g.chunk);
                self.u64(g.rows);
                self.u64(g.new_groups);
                self.opt(g.rel_half_width);
                self.f64(g.confidence);
                self.progress(&g.progress);
                self.gus(&g.gus);
                self.u64(g.groups.len() as u64);
                for group in &g.groups {
                    self.u64(group.key.len() as u64);
                    for v in &group.key {
                        self.value(v);
                    }
                    self.aggs(&group.aggs);
                    self.u64(group.sample_rows);
                    self.opt(group.rel_half_width);
                    self.u64(u64::from(group.converged));
                    self.u64(u64::from(group.tracked));
                }
            }
        }
    }

    fn result(&mut self, r: &QueryResult) {
        self.bytes(format!("{:?}", r.reason).as_bytes());
        self.u64(r.chunks);
        self.u64(r.lineage_entries as u64);
        self.snapshot(&r.snapshot);
        match &r.report {
            None => self.u64(0),
            Some(report) => {
                self.u64(1);
                self.u64(report.m);
                self.u64(report.dims as u64);
                for &e in &report.estimate {
                    self.f64(e);
                }
                match &report.covariance {
                    None => self.u64(0),
                    Some(cov) => {
                        self.u64(1);
                        for p in 0..cov.dim() {
                            for q in 0..cov.dim() {
                                self.f64(cov.get(p, q));
                            }
                        }
                    }
                }
            }
        }
    }

    fn outcome(&mut self, r: Result<QueryResult, Error>) {
        match r {
            Ok(r) => {
                self.u64(0);
                self.result(&r);
            }
            Err(e) => {
                self.u64(1);
                self.bytes(e.to_string().as_bytes());
            }
        }
    }
}

/// A terminal past `run_with`, by its cell-name tag.
type Terminal = fn(QueryBuilder) -> Result<QueryResult, Error>;

/// Every engine cell's digest, by cell name.
fn engine_cells() -> BTreeMap<String, u64> {
    let c = inexact_catalog();
    let mut cells = BTreeMap::new();
    for (tag, sampler) in samplers() {
        for (shape, plan, group_by) in plans(sampler.as_slice(), false) {
            for seed in SEEDS {
                for chunk in [64usize, 37] {
                    for within in [false, true] {
                        let q = || {
                            let q = support::query(&plan, &c, seed, 0.95)
                                .group_by(group_by.clone())
                                .chunk_rows(chunk);
                            if within {
                                q.within(0.05, 0.95)
                            } else {
                                q
                            }
                        };
                        let rule = if within { "within" } else { "norule" };
                        let name = |terminal: &str| {
                            format!(
                                "engine/{shape}/{tag}/seed{seed}/chunk{chunk}/{rule}/{terminal}"
                            )
                        };
                        let mut f = Fold(0);
                        let r = q().run_with(|s| f.snapshot(s));
                        f.outcome(r);
                        cells.insert(name("run_with"), f.0);
                        let terminals: [(&str, Terminal); 3] = [
                            ("run", |q| q.run()),
                            ("batch", |q| q.batch()),
                            ("subsample80", |q| q.subsample(80).batch()),
                        ];
                        for (terminal, go) in terminals {
                            let mut f = Fold(0);
                            f.outcome(go(q()));
                            cells.insert(name(terminal), f.0);
                        }
                    }
                }
            }
        }
    }
    cells
}

/// Every stream cell's digest, by cell name.
fn stream_cells() -> BTreeMap<String, u64> {
    let c = inexact_catalog();
    let mut cells = BTreeMap::new();
    for (tag, sampler) in samplers() {
        for (shape, plan, _) in plans(sampler.as_slice(), true) {
            let input = match plan {
                LogicalPlan::Aggregate { input, .. } => input,
                other => panic!("shape {shape} is not an aggregate: {other:?}"),
            };
            for seed in SEEDS {
                for hint in [64usize, 37] {
                    for pushdown in [true, false] {
                        let opts = ExecOptions {
                            seed,
                            disable_pushdown: !pushdown,
                            ..Default::default()
                        };
                        let mut f = Fold(0);
                        match pull_all(&input, &c, &opts, hint, &mut f) {
                            Ok(()) => f.u64(0),
                            Err(e) => {
                                f.u64(1);
                                f.bytes(e.to_string().as_bytes());
                            }
                        }
                        let mode = if pushdown { "pushdown" } else { "nopushdown" };
                        let name = format!("stream/{shape}/{tag}/seed{seed}/hint{hint}/{mode}");
                        cells.insert(name, f.0);
                    }
                }
            }
        }
    }
    cells
}

/// Pull `plan`'s stream dry, folding each pull's rows, lineage and the
/// coverage after it.
fn pull_all(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    hint: usize,
    f: &mut Fold,
) -> Result<(), sampling_algebra::exec::ExecError> {
    let mut s = open_stream(plan, catalog, opts)?;
    loop {
        let chunk = s.next_batch(hint)?;
        f.u64(chunk.rows() as u64);
        for row in chunk.to_rows() {
            for v in &row.values {
                f.value(v);
            }
            for &id in &row.lineage {
                f.u64(id);
            }
        }
        f.progress(&s.progress());
        if chunk.is_empty() {
            return Ok(());
        }
    }
}

/// Compare `cells` against the committed lines under `prefix`, printing
/// every differing, missing or stale cell before failing.
fn check(prefix: &str, cells: BTreeMap<String, u64>) {
    let mut pinned: BTreeMap<&str, &str> = DIGESTS
        .lines()
        .filter(|l| l.starts_with(prefix))
        .map(|l| l.split_once(' ').expect("a line is `cell digest`"))
        .collect();
    let mut wrong = Vec::new();
    for (cell, digest) in &cells {
        let line = format!("{cell} {digest:016x}");
        match pinned.remove(cell.as_str()) {
            Some(d) if d == format!("{digest:016x}") => {}
            Some(d) => wrong.push(format!("differs (pinned {d}): {line}")),
            None => wrong.push(format!("missing: {line}")),
        }
    }
    for cell in pinned.keys() {
        wrong.push(format!("stale, no such cell: {cell}"));
    }
    for w in &wrong {
        eprintln!("{w}");
    }
    assert!(
        wrong.is_empty(),
        "{} of {} `{prefix}` cells do not match tests/answer_digest.txt (listed above)",
        wrong.len(),
        cells.len()
    );
}

#[test]
fn engine_answers_match_their_pinned_digests() {
    let cells = engine_cells();
    assert_eq!(cells.len(), 8 * 4 * SEEDS.count() * 2 * 2 * 4);
    check("engine/", cells);
}

#[test]
fn stream_pulls_match_their_pinned_digests() {
    let cells = stream_cells();
    assert_eq!(cells.len(), 6 * 4 * SEEDS.count() * 2 * 2);
    check("stream/", cells);
}
