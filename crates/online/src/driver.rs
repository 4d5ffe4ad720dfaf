//! The progressive query loop: stream chunks, update moments, snapshot,
//! stop when the rule fires.
//!
//! `drive` is what every `QueryBuilder` terminal executes. It rewrites
//! the plan once (the SOA analysis — and hence the top GUS — does not
//! depend on how much of the sample has been consumed), opens a chunked
//! [`sa_exec::open_stream`] over the aggregate's input, and then loops:
//!
//! 1. pull the next chunk of sampled result tuples,
//! 2. push it into the query's incremental accumulator, one slot per
//!    `GROUP BY` key (so estimate/variance are O(1) to read out — nothing
//!    is ever recomputed from scratch),
//! 3. **tick**, in two parts:
//!    * the **judge** runs on every tick: the stop ladder (`judge_stop`)
//!      from the tick count, the accumulator's row count, the clock and the
//!      exhausted, degraded, cancelled and deadline flags;
//!    * the **readout** runs only when something reads the snapshot — a
//!      caller's callback, a CI target or `adaptive_chunks` (both read its
//!      relative half-width), or the tick whose judge stops the run. It
//!      scales the GUS to the scan progress, derives that GUS's readout plan
//!      (`a` and the variance functional's weights — once, however many
//!      slots are read) and reads the accumulator out into a
//!      [`crate::Snapshot`], updating the previous readout in place. A CI
//!      target is judged on the snapshot, so there the readout comes first.
//!
//!    An unobserved `.run()` with no CI target is thus the judge alone on
//!    every tick but its last, and reads the accumulator out once, at the
//!    stop — into the snapshot an observed run ends on, field for field
//!    (bar `elapsed`): the tick count and the previous tick's group count
//!    are kept by the loop, not read off the last snapshot,
//! 4. stop when the tick says so.
//!
//! There is one loop and one tick. What varies is factored out on two
//! axes:
//!
//! * **the query's shape** (`QueryShape`): a scalar query is a grouped
//!   query with zero keys, so `Scalar` and `grouped::Grouped` feed the same
//!   [`GroupedMomentAccumulator`] — the scalar shape's one slot is the
//!   empty key's — and differ only in how a chunk is pushed into it and how
//!   it is read out;
//! * **where chunks come from**: this thread pulling one stream
//!   (`parallelism = 1`), or the worker pool of `parallel.rs`
//!   pulling one slice each and merging (`parallelism = N`). The
//!   sequential run is the pool without threads — and without the
//!   per-chunk delta + merge, which is what keeps a fixed seed's replay
//!   bit-identical.
//!
//! `.batch()` is the same loop with the ticks suppressed: one readout,
//! at exhaustion (see `batch.rs`).
//!
//! [`QueryOptions::adaptive_chunks`] grows the pull hint of step 1 while
//! the interval has stopped tightening; it is a property of the in-thread
//! pull, so the worker pool — which pulls at a fixed `chunk_rows` —
//! ignores it.
//!
//! ## Scan-progress scaling
//!
//! A prefix of the sampled stream only gives the *scanned part* of each base
//! relation a chance to appear, so the raw prefix estimate covers the
//! scanned prefix, not the full population. The classical online-aggregation
//! fix (Hellerstein et al.) assumes tuples are scanned in random order, so
//! the scanned prefix of `k` of `N` sampling units is itself a uniform
//! WOR(`k`, `N`) sample — which is a GUS, and **compacts onto the plan's top
//! GUS by Proposition 8**. Each tick therefore reads its snapshot under
//! `gus_plan ⊙ Π_r WOR(k_r, N_r)` using the stream's per-relation coverage
//! ([`ChunkStream::progress`], walked once per tick): mid-stream
//! estimates target the full answer, their intervals account for both the
//! not-yet-scanned data *and* the plan's own sampling, and at exhaustion
//! every factor degenerates to the identity, so the final readout **equals
//! the batch estimator's output** on the consumed sample. A union of
//! samples is no exception: its one pass shares one prefix per relation,
//! so its sample is `(S₁ ∪ S₂) ∩ P` and its design
//! `union(G₁, G₂) ⊙ WOR(k, N)`.
//!
//! Online mode is meaningful when the plan actually samples: the interval
//! then tightens as the sample streams in. An unsampled plan still gets the
//! scan-progress factor (estimating the full scan from the prefix), but no
//! sampling variance of its own.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sa_core::{
    CiLevel, GroupedMomentAccumulator, GusParams, MomentAccumulator, MomentSlot, ReadoutPlan,
};
use sa_exec::{layout_dims, open_stream_partitioned, AggResult};
use sa_exec::{open_shared_stream, SharedTableScan};
use sa_exec::{BatchDimEval, ChunkStream, ColumnarChunk, DimLayout, ExecError, ExecOptions};
use sa_expr::Expr;
use sa_plan::{rewrite, AggSpec, LogicalPlan, SoaAnalysis, StopReason};
use sa_storage::{Catalog, SchemaRef, Value};

use crate::api::{QueryOptions, QueryResult, Snapshot};
use crate::error::Error;
use crate::grouped::Grouped;
use crate::parallel::{run_worker_pool, PoolObs};
use crate::Result;

/// Hard cap multiplier for [`QueryOptions::adaptive_chunks`]: the pull
/// hint never exceeds `chunk_rows × 64`.
const ADAPTIVE_CHUNK_CAP_FACTOR: usize = 64;

/// One step of the adaptive chunk policy: double `cur` (up to `cap`) when
/// the relative CI half-width `rel` improved by less than 10% over `prev`.
fn adapt_chunk_hint(cur: usize, cap: usize, prev: &mut Option<f64>, rel: Option<f64>) -> usize {
    let mut next = cur;
    if let (Some(p), Some(r)) = (*prev, rel) {
        if p.is_finite() && r.is_finite() && r > 0.9 * p {
            next = cur.saturating_mul(2).min(cap);
        }
    }
    *prev = rel;
    next
}

/// How a progressive run is wired into its surroundings: an optional
/// cancellation flag (set by [`crate::QueryHandle::cancel`]) and an
/// optional shared scan hub the stream should attach to instead of opening
/// a private scan. The default is no cancellation and private scans; the
/// [`crate::Engine`] fills both in.
#[derive(Default, Clone)]
pub(crate) struct RunCtx {
    /// Checked once per snapshot tick; when set, the loop stops with
    /// [`StopReason::Cancelled`] after emitting the tick's snapshot.
    pub(crate) cancel: Option<Arc<AtomicBool>>,
    /// Attach the (sequential) stream to this shared circular scan; the
    /// attach origin becomes a scan-prefix origin shift in the Prop-8
    /// scaling. Ignored for `parallelism > 1`.
    pub(crate) shared: Option<Arc<SharedTableScan>>,
    /// Worker-pool observability handles (disabled by default —
    /// uninstrumented engines record nothing).
    pub(crate) pool: PoolObs,
    /// Streaming-scan observability handles threaded into
    /// [`sa_exec::ExecOptions`] (disabled by default).
    pub(crate) scan_obs: sa_exec::ScanObs,
}

impl RunCtx {
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel
            .as_deref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

/// The state of the estimate after one chunk of the progressive loop.
#[derive(Debug, Clone)]
pub struct ProgressSnapshot {
    /// 1-based snapshot index. In the sequential loop (`parallelism = 1`)
    /// this equals the number of pulled chunks; with workers it counts
    /// coordinator ticks, each of which may absorb several worker chunks.
    pub chunk: u64,
    /// Cumulative sampled result tuples consumed.
    pub rows: u64,
    /// Per-aggregate estimates with intervals, in `SELECT`-list order,
    /// judged at the stopping rule's confidence level.
    pub aggs: Vec<AggResult>,
    /// Worst (largest) relative CI half-width across the aggregates at the
    /// rule's confidence, `None` while some variance is not yet estimable.
    pub rel_half_width: Option<f64>,
    /// Confidence level the snapshot's intervals were computed at.
    pub confidence: f64,
    /// Per-relation `(consumed, available)` scan coverage, aligned with the
    /// plan's lineage schema (see [`ChunkStream::progress`]).
    pub progress: Vec<(u64, u64)>,
    /// The GUS the snapshot was read under: the plan GUS compacted with the
    /// scan-progress factors (the plan GUS itself once the stream is
    /// exhausted).
    pub gus: GusParams,
    /// Wall time since the loop started.
    pub elapsed: Duration,
}

/// What differs between query shapes — the two things the one loop
/// ([`drive_shape`]) cannot do for itself: push a chunk into the query's
/// accumulator, and read it out through a tick's plan. Both shapes feed one
/// [`GroupedMomentAccumulator`], one slot per key: [`Scalar`] is the
/// zero-key case, whose one slot is the empty key's;
/// [`crate::grouped::Grouped`] is `Scalar` plus keys (a group indicator is
/// just another selection, Proposition 5, so every group is a scalar
/// readout of its own slot under the same GUS, hence through the same
/// plan).
pub(crate) trait QueryShape<'p>: Sized + Sync {
    /// What a readout keeps from one tick to the next beside the snapshot
    /// itself; the loop owns it next to `last`.
    type Tick: Default;
    /// Specialize the opened aggregate's `scalar` shape to `group_by`,
    /// compiled against the stream's output `schema`.
    fn compile(scalar: Scalar<'p>, group_by: &[Expr], schema: &SchemaRef) -> Result<Self>;
    /// Accumulate one columnar chunk (a no-op on the empty, exhaustion
    /// chunk).
    fn push(
        &self,
        acc: &mut GroupedMomentAccumulator<Vec<Value>>,
        chunk: &ColumnarChunk,
    ) -> Result<()>;
    /// Read `acc` out under `head`'s plan into this tick's snapshot. `prev`
    /// is the previous tick's snapshot, handed over for good: the readout
    /// overwrites its numbers and returns it, so a tick allocates for what
    /// is new, not for what it already showed (callbacks only ever borrow a
    /// snapshot; whoever wants to keep one clones it).
    fn read(
        &self,
        acc: &GroupedMomentAccumulator<Vec<Value>>,
        head: TickHead,
        prev: Option<Snapshot>,
        tick: &mut Self::Tick,
        opts: &QueryOptions,
    ) -> Result<Snapshot>;
}

/// What a tick has settled before the shape reads the accumulator out —
/// the snapshot fields that do not depend on the query's shape.
pub(crate) struct TickHead {
    /// 1-based tick count: the loop keeps it, so a tick that was not read
    /// out still counts.
    pub(crate) chunk: u64,
    /// Groups the accumulator held at the previous tick, read out or not:
    /// the ones after them in discovery order are this tick's `new_groups`.
    pub(crate) known_groups: usize,
    /// The interval multipliers of the run's confidence level.
    pub(crate) level: CiLevel,
    /// `gus`'s readout plan: every slot of this tick is read through it.
    pub(crate) plan: ReadoutPlan,
    pub(crate) progress: Vec<(u64, u64)>,
    pub(crate) gus: GusParams,
    /// When the loop started; a snapshot's `elapsed` is read off it after
    /// the readout, so a time budget sees the readout's cost.
    pub(crate) start: Instant,
}

/// The zero-key shape, and the part every shape shares: the `SELECT`
/// list's aggregates laid onto SBox dimensions and compiled for batch
/// evaluation against the stream's schema.
pub(crate) struct Scalar<'p> {
    pub(crate) aggs: &'p [AggSpec],
    pub(crate) layout: DimLayout,
    pub(crate) dim_eval: BatchDimEval,
    /// Base relations in the lineage schema.
    pub(crate) n: usize,
}

impl Scalar<'_> {
    /// One accumulator slot — the whole sample, or one group's share of it
    /// — read out through the tick's plan into `aggs` (overwritten in place
    /// when it already holds this slot's previous readout); returns the
    /// worst relative CI half-width across the aggregates.
    pub(crate) fn read_slot(
        &self,
        slot: MomentSlot<'_>,
        head: &TickHead,
        aggs: &mut Vec<AggResult>,
    ) -> Result<Option<f64>> {
        let readout = head.plan.read(slot.total(), slot.y())?;
        self.layout
            .read_slot(self.aggs, &readout, &head.level, aggs);
        Ok(worst_rel_half_width(aggs))
    }
}

/// `read` of the scalar shape's one slot — the empty key's — or, before its
/// first row has arrived, of an empty sample's.
pub(crate) fn read_scalar_slot<T>(
    acc: &GroupedMomentAccumulator<Vec<Value>>,
    read: impl FnOnce(MomentSlot<'_>) -> T,
) -> T {
    match acc.group(&Vec::new()) {
        Some(slot) => read(slot),
        None => read(MomentAccumulator::new(acc.n(), acc.dims()).slot()),
    }
}

impl<'p> QueryShape<'p> for Scalar<'p> {
    type Tick = ();

    fn compile(scalar: Scalar<'p>, _group_by: &[Expr], _schema: &SchemaRef) -> Result<Self> {
        Ok(scalar)
    }

    /// The whole chunk lands in the one slot, unpartitioned.
    fn push(
        &self,
        acc: &mut GroupedMomentAccumulator<Vec<Value>>,
        chunk: &ColumnarChunk,
    ) -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let f_cols = self.dim_eval.eval(&chunk.batch)?;
        let lineage: Vec<&[u64]> = chunk.lineage.iter().map(|l| l.as_slice()).collect();
        let f: Vec<&[f64]> = f_cols.iter().map(|c| c.as_slice()).collect();
        acc.push_batch(Vec::new(), &lineage, &f)
            .map_err(Error::Core)
    }

    fn read(
        &self,
        acc: &GroupedMomentAccumulator<Vec<Value>>,
        head: TickHead,
        prev: Option<Snapshot>,
        _tick: &mut (),
        _opts: &QueryOptions,
    ) -> Result<Snapshot> {
        let mut aggs = match prev {
            Some(Snapshot::Scalar(s)) => s.aggs,
            _ => Vec::new(),
        };
        let rel_half_width = read_scalar_slot(acc, |slot| self.read_slot(slot, &head, &mut aggs))?;
        Ok(Snapshot::Scalar(ProgressSnapshot {
            chunk: head.chunk,
            rows: acc.count(),
            aggs,
            rel_half_width,
            confidence: head.level.level(),
            progress: head.progress,
            gus: head.gus,
            elapsed: head.start.elapsed(),
        }))
    }
}

/// Who hears of a run's ticks. The default is nobody: the batch terminal,
/// and the crate's own tests of the loop.
#[derive(Default)]
pub(crate) struct Listeners<'l> {
    /// Called on every tick, read out or not, with the sampled rows consumed
    /// so far (the engine's per-tick metrics).
    pub(crate) on_tick: Option<&'l mut dyn FnMut(u64)>,
    /// Lent every tick's snapshot, the final one included. `None` means no
    /// caller reads a snapshot mid-run, so a tick is read out only when the
    /// stop rule needs its interval or when it stops the run.
    pub(crate) on_snapshot: Option<&'l mut dyn FnMut(&Snapshot)>,
}

/// Run `plan`: zero keys is the scalar shape, anything else the grouped
/// one. `every_chunk = false` is the batch terminal (see [`drive_shape`]).
pub(crate) fn drive(
    plan: &LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
    opts: &QueryOptions,
    ctx: &RunCtx,
    every_chunk: bool,
    listeners: Listeners<'_>,
) -> Result<QueryResult> {
    if group_by.is_empty() {
        drive_shape::<Scalar>(plan, group_by, catalog, opts, ctx, every_chunk, listeners)
    } else {
        drive_shape::<Grouped>(plan, group_by, catalog, opts, ctx, every_chunk, listeners)
    }
}

#[cfg(test)]
thread_local! {
    /// Readouts (`QueryShape::read` calls) the loop has made on this thread:
    /// what the pins of the unobserved tick count.
    pub(crate) static READOUTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The one loop. Opens the aggregate, compiles the shape, and feeds chunks
/// to the query's accumulator until a tick says stop; a scalar result also
/// carries its one slot's report, read under the last tick's GUS.
///
/// The only fork is where chunks come from. With one stream this thread
/// pulls it and pushes every chunk straight into the one accumulator (no
/// delta, no merge — so a fixed seed replays bit for bit); with one stream
/// per worker, [`run_worker_pool`] does the pulling and hands its merged
/// state to the same `tick`.
///
/// `every_chunk = false` is the batch terminal: no mid-stream tick, the
/// streams drained one after the other on this thread (their coverage
/// summed, as the worker pool sums it), and the one final readout taken
/// under the plan GUS itself (every scan-progress factor is the identity
/// at exhaustion).
fn drive_shape<'p, S: QueryShape<'p>>(
    plan: &'p LogicalPlan,
    group_by: &[Expr],
    catalog: &Catalog,
    opts: &QueryOptions,
    ctx: &RunCtx,
    every_chunk: bool,
    listeners: Listeners<'_>,
) -> Result<QueryResult> {
    let Listeners {
        mut on_tick,
        mut on_snapshot,
    } = listeners;
    let OpenedAggregate {
        analysis,
        streams,
        scalar,
    } = open_aggregate(plan, catalog, opts, ctx, group_by)?;
    // Every stream of one open reports one family (they share each join's
    // build), so every worker's accumulator merges into the global one.
    let (n, dims, distinct) = (scalar.n, scalar.layout.dims(), streams[0].distinct());
    let fresh = || GroupedMomentAccumulator::with_lineage(n, dims, &distinct);
    let shape = S::compile(scalar, group_by, streams[0].schema())?;
    let level = CiLevel::new(opts.rule.confidence_or(opts.confidence)).map_err(Error::Core)?;
    let start = Instant::now();
    let mut kept = S::Tick::default();
    let pool = every_chunk && streams.len() > 1;
    // Who reads a mid-run snapshot: a caller, a CI target (judged on the
    // snapshot's interval) or the in-thread pull's adaptive chunk hint.
    let read_every_tick =
        on_snapshot.is_some() || opts.rule.ci_target.is_some() || (opts.adaptive_chunks && !pool);
    let (mut ticks, mut known_groups) = (0u64, 0usize);
    // One tick: judge the stop ladder, and read the accumulator out — scale
    // the GUS to the scan progress, plan its readout, read — when something
    // reads the snapshot. `last` is the previous readout going in — handed
    // to the readout to update in place — and this one coming out.
    let mut tick = |last: &mut Option<Snapshot>,
                    acc: &GroupedMomentAccumulator<Vec<Value>>,
                    progress: Vec<(u64, u64)>,
                    exhausted: bool,
                    degraded: bool|
     -> Result<Option<StopReason>> {
        ticks += 1;
        let judge = |rel_half_width, rows, elapsed| {
            judge_stop(
                opts,
                degraded,
                exhausted,
                ctx.cancelled(),
                rel_half_width,
                rows,
                elapsed,
            )
        };
        // Without a reader the judge goes first, on what needs no readout;
        // it can only miss a CI target, and then every tick is read.
        let mut reason = None;
        if !read_every_tick {
            reason = judge(None, acc.count(), start.elapsed());
        }
        let read = if read_every_tick || reason.is_some() {
            let gus = if every_chunk {
                scan_scaled_gus(&analysis.gus, &progress)?
            } else {
                analysis.gus.clone()
            };
            let head = TickHead {
                chunk: ticks,
                known_groups,
                level,
                plan: ReadoutPlan::new(&gus),
                progress,
                gus,
                start,
            };
            #[cfg(test)]
            READOUTS.with(|n| n.set(n.get() + 1));
            let snapshot = shape.read(acc, head, last.take(), &mut kept, opts)?;
            if read_every_tick {
                reason = judge(
                    snapshot.rel_half_width(),
                    snapshot.rows(),
                    snapshot.elapsed(),
                );
            }
            Some(snapshot)
        } else {
            None
        };
        if let Some(on_tick) = on_tick.as_mut() {
            on_tick(acc.count());
        }
        if let Some(snapshot) = read {
            if let Some(on_snapshot) = on_snapshot.as_mut() {
                on_snapshot(&snapshot);
            }
            *last = Some(snapshot);
        }
        known_groups = acc.group_count();
        Ok(reason)
    };
    let mut last = None;
    let (acc, reason) = if pool {
        run_worker_pool(
            streams,
            opts.chunk_rows,
            &ctx.pool,
            fresh,
            |acc, chunk| shape.push(acc, chunk),
            |merged, progress, exhausted, degraded| {
                // Workers see disjoint slices of one scan, so the summed
                // coverage is a per-relation prefix.
                tick(&mut last, merged, progress.to_vec(), exhausted, degraded)
            },
        )?
    } else {
        let mut acc = fresh();
        // The coverage of the slices drained before the current one.
        let mut drained = vec![(0, 0); n];
        let mut streams = streams.into_iter();
        let mut stream = streams.next().expect("open_aggregate yields >= 1 stream");
        let mut hint = opts.chunk_rows;
        let cap = opts.chunk_rows.saturating_mul(ADAPTIVE_CHUNK_CAP_FACTOR);
        let mut prev_rel: Option<f64> = None;
        let reason = loop {
            let chunk = stream.next_batch(hint)?;
            let exhausted = chunk.is_empty();
            shape.push(&mut acc, &chunk)?;
            if exhausted {
                // Only a batch holds more than one stream here: the slices
                // `.run()` would hand its workers, drained in worker order.
                if let Some(next) = streams.next() {
                    add_coverage(&mut drained, &stream.progress());
                    stream = next;
                    continue;
                }
            } else if !every_chunk {
                continue;
            }
            let mut progress = stream.progress();
            add_coverage(&mut progress, &drained);
            if let Some(reason) = tick(&mut last, &acc, progress, exhausted, false)? {
                break reason;
            }
            if opts.adaptive_chunks {
                let rel = last.as_ref().and_then(Snapshot::rel_half_width);
                hint = adapt_chunk_hint(hint, cap, &mut prev_rel, rel);
            }
        };
        (acc, reason)
    };
    let snapshot = last.expect("a run ends on a tick");
    let report = if group_by.is_empty() {
        Some(read_scalar_slot(&acc, |slot| slot.report(snapshot.gus()))?)
    } else {
        None
    };
    Ok(QueryResult {
        reason,
        chunks: snapshot.chunk(),
        snapshot,
        lineage_entries: acc.lineage_entries(),
        analysis,
        report,
    })
}

/// Add one slice's per-relation `(consumed, available)` coverage into
/// `total`: slices of one scan are disjoint, so their sum is the scan's.
pub(crate) fn add_coverage(total: &mut [(u64, u64)], slice: &[(u64, u64)]) {
    for (t, &(consumed, available)) in total.iter_mut().zip(slice) {
        t.0 += consumed;
        t.1 += available;
    }
}

/// Why a tick stops the loop, if it does — one precedence ladder for
/// every shape and chunk source. Highest first:
///
/// 1. **degraded** — a fault was contained mid-run (a panicked worker
///    shard). The absorbed prefix is still a valid, merely smaller, sample
///    and the tick's snapshot reads exactly it; this outranks even
///    exhaustion because the realized sample is not the full one.
/// 2. **exhausted** — the stream drained.
/// 3. **cancelled** — the tick's snapshot is still emitted: the accumulated
///    prefix is a valid mid-stream estimate.
/// 4. **deadline** — the imposed bound, checked before the rule so a
///    simultaneous soft time-budget stop reports it.
/// 5. the caller's **rule** (CI target, row budget, time budget).
fn judge_stop(
    opts: &QueryOptions,
    degraded: bool,
    exhausted: bool,
    cancelled: bool,
    rel_half_width: Option<f64>,
    rows: u64,
    elapsed: Duration,
) -> Option<StopReason> {
    if degraded {
        Some(StopReason::Degraded)
    } else if exhausted {
        Some(StopReason::Exhausted)
    } else if cancelled {
        Some(StopReason::Cancelled)
    } else if opts.deadline.is_some_and(|d| elapsed >= d) {
        Some(StopReason::Deadline)
    } else {
        opts.rule.should_stop(rel_half_width, rows, elapsed)
    }
}

/// The validated, opened state every query starts from. For
/// `parallelism = 1` there is exactly one stream; for `N > 1`, `streams`
/// holds one disjoint slice per worker.
pub(crate) struct OpenedAggregate<'p> {
    pub(crate) analysis: SoaAnalysis,
    pub(crate) streams: Vec<ChunkStream>,
    pub(crate) scalar: Scalar<'p>,
}

/// Reject option values no run can honour, each of which would otherwise
/// fail silently: the option table's range rules (the ones
/// [`QueryOptions::set`] checks), an ε that disarms the CI target, and a
/// `subsample_target` under `observed` GROUP BY keys, which §7 has no
/// grouped form for.
pub(crate) fn validate_options(opts: &QueryOptions, observed: &[Expr]) -> Result<()> {
    opts.check_ranges()?;
    let in_unit = |x: f64| x > 0.0 && x < 1.0;
    let target = opts.rule.ci_target;
    let problem = if let Some(t) = target.filter(|t| !in_unit(t.confidence)) {
        format!(
            "rule.ci_target.confidence (`.within(ε, γ)`) must be strictly between 0 and 1, got {}",
            t.confidence
        )
    } else if let Some(t) = target.filter(|t| t.epsilon.is_nan() || t.epsilon <= 0.0) {
        format!(
            "rule.ci_target.epsilon (`.within(ε, γ)`) must be positive, got {}",
            t.epsilon
        )
    } else if opts.subsample_target.is_some() && !observed.is_empty() {
        "subsample_target (`.subsample(n)`) applies to scalar queries only: a GROUP BY \
         estimates every group's variance from every tuple"
            .into()
    } else {
        return Ok(());
    };
    Err(Error::InvalidOptions(problem))
}

/// Validate the options and plan shape, run the one-time SOA rewrite, open
/// the chunked stream(s) over the aggregate's input, and lay the aggregates
/// onto SBox dimensions — the preamble every `QueryBuilder` terminal
/// shares. `observed` are the caller's GROUP BY keys.
pub(crate) fn open_aggregate<'p>(
    plan: &'p LogicalPlan,
    catalog: &Catalog,
    opts: &QueryOptions,
    ctx: &RunCtx,
    observed: &[Expr],
) -> Result<OpenedAggregate<'p>> {
    validate_options(opts, observed)?;
    let analysis = rewrite(plan, catalog).map_err(ExecError::Plan)?;
    let LogicalPlan::Aggregate { aggs, input } = plan else {
        return Err(Error::Unsupported(
            "the query plan needs an Aggregate at its root: `query_plan(..)` estimates the \
             aggregates of an `Aggregate` node (`.run()` progressively, `.batch()` in one pass)"
                .into(),
        ));
    };
    let exec_opts = ExecOptions {
        seed: opts.seed,
        shuffle_scan: opts.shuffle_scan,
        scan_obs: ctx.scan_obs.clone(),
        // The stream carries the aggregate's INPUT; analyze the full plan
        // (plus the caller's GROUP BY keys) so the scans prune down to what
        // the estimator actually reads, not the input's whole schema.
        scan_cols: Some(sa_plan::ScanColumnMap::analyze_with(plan, observed)),
        ..Default::default()
    };
    let streams = match (&ctx.shared, opts.parallelism) {
        // Attach the sequential loop to the engine's shared circular scan:
        // the same realized sample (samplers keep rows by their ids), but
        // the scan origin is wherever the hub's head currently is — a
        // scan-prefix origin shift the Prop-8 scaling is invariant to.
        // A shuffled scan cannot ride the hub (its gather order is shared
        // state), so it always opens a private stream.
        (Some(hub), 1) if !opts.shuffle_scan => {
            vec![open_shared_stream(input, catalog, &exec_opts, hub)?]
        }
        _ => open_stream_partitioned(input, catalog, &exec_opts, opts.parallelism)?,
    };
    let layout = layout_dims(aggs, streams[0].schema())?;
    let scalar = Scalar {
        aggs,
        dim_eval: layout.compile_batch(streams[0].schema())?,
        layout,
        n: analysis.schema.n(),
    };
    Ok(OpenedAggregate {
        analysis,
        streams,
        scalar,
    })
}

/// The plan's GUS compacted with one WOR(consumed, available) factor per
/// partially scanned relation — the random-scan-order prefix model
/// (Proposition 8). Fully covered relations contribute the identity;
/// relations with nothing consumed yet are skipped too (the estimate is 0
/// there and a 0-draw WOR would be the degenerate null sampler). `progress`
/// is aligned with the GUS's lineage schema and may be a single stream's
/// report or the element-wise sum over partitioned workers — slice-relative
/// coverage sums to the true per-relation prefix.
fn scan_scaled_gus(plan_gus: &GusParams, progress: &[(u64, u64)]) -> Result<GusParams> {
    let mut gus = plan_gus.clone();
    for (name, &(consumed, available)) in plan_gus.schema().names().iter().zip(progress) {
        if consumed == 0 || consumed >= available {
            continue;
        }
        let prefix = GusParams::wor(name, consumed, available)
            .and_then(|g| g.embed_by_name(plan_gus.schema().clone()))
            .and_then(|g| gus.compact(&g))
            .map_err(ExecError::Core)?;
        gus = prefix;
    }
    Ok(gus)
}

/// The largest relative CI half-width across the aggregates, `None` when
/// any variance is not yet estimable (so a CI target cannot fire early on
/// partial information).
pub(crate) fn worst_rel_half_width(aggs: &[AggResult]) -> Option<f64> {
    let mut worst = 0.0f64;
    for a in aggs {
        let ci = a.ci_normal.as_ref()?;
        worst = worst.max(ci.relative_half_width());
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_exec::{f_vector, open_stream};
    use sa_expr::col;
    use sa_plan::{AggSpec, StoppingRule};
    use sa_sampling::SamplingMethod;
    use sa_storage::{DataType, Field, Schema, TableBuilder, Value};

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

    /// The loop with zero keys as the engine drives it, minus the engine:
    /// private scan, no cancellation, no metrics.
    fn run(
        plan: &LogicalPlan,
        catalog: &Catalog,
        opts: &QueryOptions,
        mut on_snapshot: impl FnMut(&ProgressSnapshot),
    ) -> Result<QueryResult> {
        let mut on_snapshot =
            |s: &Snapshot| on_snapshot(s.as_scalar().expect("zero keys read out scalar"));
        let listeners = Listeners {
            on_snapshot: Some(&mut on_snapshot),
            ..Default::default()
        };
        drive(
            plan,
            &[],
            catalog,
            opts,
            &RunCtx::default(),
            true,
            listeners,
        )
    }

    fn scalar(r: &QueryResult) -> &ProgressSnapshot {
        r.snapshot.as_scalar().expect("zero keys read out scalar")
    }

    fn sum_plan(p: f64) -> LogicalPlan {
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p })
            .aggregate(vec![AggSpec::sum(col("v"), "s")])
    }

    #[test]
    fn snapshots_are_emitted_per_chunk_and_monotone() {
        let c = catalog(5000);
        let opts = QueryOptions {
            seed: 3,
            chunk_rows: 256,
            ..Default::default()
        };
        let mut rows_seen = Vec::new();
        let r = run(&sum_plan(0.5), &c, &opts, |s| rows_seen.push(s.rows)).unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(r.chunks as usize, rows_seen.len());
        assert!(rows_seen.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rows_seen.last().unwrap(), r.snapshot.rows());
        assert!(r.snapshot.rows() > 1000, "50% of 5000 ≈ 2500");
    }

    #[test]
    fn exhausted_run_matches_batch_estimate() {
        let c = catalog(4000);
        let plan = sum_plan(0.3);
        let opts = QueryOptions {
            seed: 9,
            chunk_rows: 128,
            ..Default::default()
        };
        let online = run(&plan, &c, &opts, |_| {}).unwrap();
        // Batch over the SAME sample realization: collect the stream.
        let LogicalPlan::Aggregate { aggs, input } = &plan else {
            unreachable!()
        };
        let mut stream = open_stream(
            input,
            &c,
            &ExecOptions {
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        let layout = layout_dims(aggs, stream.schema()).unwrap();
        let mut batch = sa_core::GroupedMoments::new(1, layout.dims());
        loop {
            let chunk = stream.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                batch
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
        let report =
            sa_core::estimate_from_sample_moments(&online.analysis.gus, &batch.finish()).unwrap();
        let est = scalar(&online).aggs[0].estimate;
        assert!((est - report.estimate[0]).abs() < 1e-9 * (1.0 + est.abs()));
        let (vo, vb) = (
            scalar(&online).aggs[0].variance.unwrap(),
            report.variance(0).unwrap(),
        );
        assert!((vo - vb).abs() < 1e-9 * (1.0 + vb.abs()), "{vo} vs {vb}");
    }

    #[test]
    fn scan_scaling_targets_the_full_population() {
        // 20k rows of mean 4.0 → truth 80k. Stop after ~1/10 of the sample:
        // the scaled estimate must be near the full answer, the same run's
        // accumulator read under the plan GUS alone (the raw prefix
        // estimate) near a tenth of it.
        let c = catalog(20_000);
        let truth = 80_000.0; // v cycles 1..=7 (mean 4.0) over 20k rows
        let opts = QueryOptions {
            seed: 2,
            chunk_rows: 200,
            rule: StoppingRule::rows(1800),
            ..Default::default()
        };
        let plan = sum_plan(0.9);
        let scaled = run(&plan, &c, &opts, |_| {}).unwrap();
        // The same prefix read under the plan GUS: the run's chunks, pulled
        // again from the same stream.
        let LogicalPlan::Aggregate { aggs, input } = &plan else {
            unreachable!()
        };
        let exec = ExecOptions {
            seed: 2,
            ..Default::default()
        };
        let mut stream = open_stream(input, &c, &exec).unwrap();
        let layout = layout_dims(aggs, stream.schema()).unwrap();
        let mut prefix = sa_core::GroupedMoments::new(1, layout.dims());
        for _ in 0..scaled.chunks {
            for row in &stream.next_chunk(200).unwrap() {
                prefix
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
        let raw =
            sa_core::estimate_from_sample_moments(&scaled.analysis.gus, &prefix.finish()).unwrap();
        assert_eq!(raw.m, scaled.snapshot.rows());
        let (es, er) = (scalar(&scaled).aggs[0].estimate, raw.estimate[0]);
        assert!(
            (es - truth).abs() < 0.1 * truth,
            "scaled {es} should be near {truth}"
        );
        assert!(
            er < 0.25 * truth,
            "raw prefix estimate {er} should cover only ~1/10 of {truth}"
        );
        // Scaled intervals are wider: they also carry the unscanned-data
        // uncertainty.
        assert!(scalar(&scaled).aggs[0].variance.unwrap() > raw.variance(0).unwrap());
    }

    #[test]
    fn row_budget_stops_early() {
        let c = catalog(20_000);
        let opts = QueryOptions {
            seed: 1,
            chunk_rows: 100,
            rule: StoppingRule::rows(500),
            ..Default::default()
        };
        let r = run(&sum_plan(0.9), &c, &opts, |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::RowBudget);
        assert!(r.snapshot.rows() >= 500);
        assert!(
            r.snapshot.rows() < 2000,
            "stopped long before the ~18k sample drained: {}",
            r.snapshot.rows()
        );
    }

    #[test]
    fn time_budget_stops() {
        let c = catalog(2000);
        let opts = QueryOptions {
            seed: 1,
            chunk_rows: 10,
            rule: StoppingRule::time(Duration::ZERO),
            ..Default::default()
        };
        let r = run(&sum_plan(0.9), &c, &opts, |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::TimeBudget);
        assert_eq!(r.chunks, 1);
    }

    #[test]
    fn ci_rule_converges_on_big_sample() {
        let c = catalog(50_000);
        let opts = QueryOptions {
            seed: 4,
            chunk_rows: 512,
            rule: StoppingRule::ci(0.05, 0.95),
            ..Default::default()
        };
        let r = run(&sum_plan(0.5), &c, &opts, |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::CiConverged);
        assert!(r.snapshot.rel_half_width().unwrap() <= 0.05);
        // It genuinely stopped early.
        assert!(r.snapshot.rows() < 20_000, "rows = {}", r.snapshot.rows());
    }

    #[test]
    fn sql_within_clause_drives_the_rule() {
        let engine = crate::Engine::new(catalog(50_000));
        let mut snaps = 0u64;
        let r = engine
            .session()
            .query(
                "SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT) \
                 WITHIN 5 PERCENT CONFIDENCE 95",
            )
            .seed(4)
            .chunk_rows(512)
            .run_with(|_| snaps += 1)
            .unwrap();
        assert_eq!(r.reason, StopReason::CiConverged);
        assert_eq!(snaps, r.chunks);
        assert!((r.snapshot.confidence() - 0.95).abs() < 1e-12);
    }

    /// Field for field and to the bit: both routes read one functional.
    fn assert_same_agg(got: &AggResult, want: &AggResult, what: &str) {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        assert_eq!((&got.name, got.func), (&want.name, want.func), "{what}");
        assert_eq!(
            got.estimate.to_bits(),
            want.estimate.to_bits(),
            "{what} {}",
            got.name
        );
        assert_eq!(
            bits(got.variance),
            bits(want.variance),
            "{what} {}",
            got.name
        );
        assert_eq!(
            bits(got.quantile_bound),
            bits(want.quantile_bound),
            "{what} {}",
            got.name
        );
        for (g, w) in [
            (&got.ci_normal, &want.ci_normal),
            (&got.ci_chebyshev, &want.ci_chebyshev),
        ] {
            let key = |ci: &Option<sa_core::ConfidenceInterval>| {
                ci.map(|ci| {
                    (
                        ci.level.to_bits(),
                        ci.method,
                        ci.lo.to_bits(),
                        ci.hi.to_bits(),
                    )
                })
            };
            assert_eq!(key(g), key(w), "{what} {}: interval", got.name);
        }
    }

    #[test]
    fn the_plan_route_reads_what_the_report_route_reads() {
        // Every aggregate kind the layout knows — SUM, COUNT(*), AVG (the
        // delta-method ratio) and QUANTILE bounds — read through a tick's
        // plan must be what `agg_results_from_report` makes of the same
        // slot's report: mid-stream under Prop-8 scaled designs, at
        // exhaustion under the plan GUS, with no variance (one scanned row)
        // and with no rows at all.
        let c = catalog(3000);
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.6 })
            .aggregate(vec![
                AggSpec::sum(col("v"), "s").with_quantile(0.9),
                AggSpec::count_star("n"),
                AggSpec::avg(col("v"), "a").with_quantile(0.05),
                AggSpec::avg(col("k"), "ak"),
            ]);
        let opts = QueryOptions {
            seed: 5,
            ..Default::default()
        };
        let OpenedAggregate {
            analysis,
            mut streams,
            scalar,
        } = open_aggregate(&plan, &c, &opts, &RunCtx::default(), &[]).unwrap();
        let mut stream = streams.pop().unwrap();
        let mut acc = GroupedMomentAccumulator::with_lineage(
            scalar.n,
            scalar.layout.dims(),
            &stream.distinct(),
        );
        let check = |slot: MomentSlot<'_>, gus: &GusParams, confidence: f64, what: &str| {
            let head = TickHead {
                chunk: 1,
                known_groups: 0,
                level: CiLevel::new(confidence).unwrap(),
                plan: ReadoutPlan::new(gus),
                progress: Vec::new(),
                gus: gus.clone(),
                start: Instant::now(),
            };
            let report = slot.report(gus).unwrap();
            let want =
                sa_exec::agg_results_from_report(scalar.aggs, &scalar.layout, &report, confidence);
            // Once into a fresh vector, once over a stale previous readout.
            let mut fresh = Vec::new();
            let rel = scalar.read_slot(slot, &head, &mut fresh).unwrap();
            let mut reused = want.clone();
            for r in &mut reused {
                (r.estimate, r.variance, r.ci_normal) = (-1.0, Some(-1.0), None);
                r.quantile_bound = Some(f64::NAN);
            }
            assert_eq!(scalar.read_slot(slot, &head, &mut reused).unwrap(), rel);
            assert_eq!((fresh.len(), reused.len()), (want.len(), want.len()));
            for ((f, r), w) in fresh.iter().zip(&reused).zip(&want) {
                assert_same_agg(f, w, what);
                assert_same_agg(r, w, what);
            }
            assert_eq!(
                rel.map(f64::to_bits),
                worst_rel_half_width(&want).map(f64::to_bits),
                "{what}: rel"
            );
        };
        let prefix = |k: u64| {
            GusParams::wor("t", k, 3000)
                .and_then(|g| analysis.gus.compact(&g))
                .unwrap()
        };
        read_scalar_slot(&acc, |slot| check(slot, &analysis.gus, 0.95, "empty"));
        let mut pulled = 0;
        loop {
            let chunk = stream
                .next_batch(if pulled == 0 { 1 } else { 700 })
                .unwrap();
            if chunk.is_empty() {
                break;
            }
            scalar.push(&mut acc, &chunk).unwrap();
            pulled += 1;
            let (scanned, _) = stream.progress()[0];
            let slot = acc.group(&Vec::new()).unwrap();
            check(slot, &prefix(scanned), 0.95, "mid-stream");
            check(slot, &prefix(scanned), 0.5, "mid-stream at 50%");
        }
        assert!(pulled > 3);
        let slot = acc.group(&Vec::new()).unwrap();
        check(slot, &analysis.gus, 0.99, "exhausted");
        // One scanned unit: b_∅ = 0, estimates without variance on both.
        check(slot, &prefix(1), 0.95, "no variance");
        // a = 0 is the same typed refusal.
        let blocked = GusParams::bernoulli("t", 0.0).unwrap();
        let head = TickHead {
            chunk: 1,
            known_groups: 0,
            level: CiLevel::new(0.95).unwrap(),
            plan: ReadoutPlan::new(&blocked),
            progress: Vec::new(),
            gus: blocked.clone(),
            start: Instant::now(),
        };
        let by_plan = scalar.read_slot(slot, &head, &mut Vec::new()).unwrap_err();
        let by_report = Error::Core(slot.report(&blocked).unwrap_err());
        assert_eq!(by_plan.to_string(), by_report.to_string());
        assert!(matches!(
            by_plan,
            Error::Core(sa_core::CoreError::Degenerate(_))
        ));
    }

    #[test]
    fn stop_precedence_is_one_ladder() {
        // Every tick's verdict, highest rung first. The rule and the
        // deadline are both armed (zero budgets fire on any elapsed time),
        // so each row shows the rung above them winning.
        let armed = QueryOptions {
            rule: StoppingRule::time(Duration::ZERO),
            deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        let soft_only = QueryOptions {
            deadline: None,
            ..armed.clone()
        };
        let idle = QueryOptions::default();
        // (options, degraded, exhausted, cancelled) → reason
        let table = [
            (&armed, true, true, true, Some(StopReason::Degraded)),
            (&armed, true, false, false, Some(StopReason::Degraded)),
            (&armed, false, true, true, Some(StopReason::Exhausted)),
            (&armed, false, false, true, Some(StopReason::Cancelled)),
            (&armed, false, false, false, Some(StopReason::Deadline)),
            (
                &soft_only,
                false,
                false,
                false,
                Some(StopReason::TimeBudget),
            ),
            (&idle, false, false, false, None),
            (&idle, false, false, true, Some(StopReason::Cancelled)),
            (&idle, false, true, false, Some(StopReason::Exhausted)),
        ];
        for (opts, degraded, exhausted, cancelled, want) in table {
            let got = judge_stop(
                opts,
                degraded,
                exhausted,
                cancelled,
                Some(0.5),
                10,
                Duration::from_millis(1),
            );
            assert_eq!(
                got, want,
                "degraded={degraded} exhausted={exhausted} cancelled={cancelled} \
                 deadline={:?}",
                opts.deadline
            );
        }
    }

    fn union_plan(p: f64) -> LogicalPlan {
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p }))
            .aggregate(vec![AggSpec::sum(col("v"), "s")])
    }

    #[test]
    fn union_scaling_runs_online_and_matches_batch_at_exhaustion() {
        // The union plan scales to the population mid-stream, and at
        // exhaustion its WOR factor is the identity, so the readout equals
        // the batch union estimator on the same realized sample.
        let c = catalog(2000);
        let plan = union_plan(0.4);
        let opts = QueryOptions {
            seed: 6,
            chunk_rows: 128,
            ..Default::default()
        };
        let online = run(&plan, &c, &opts, |_| {}).unwrap();
        assert_eq!(online.reason, StopReason::Exhausted);
        assert!(online.snapshot.rows() > 0);
        let LogicalPlan::Aggregate { aggs, input } = &plan else {
            unreachable!()
        };
        let exec_opts = ExecOptions {
            seed: 6,
            ..Default::default()
        };
        let mut stream = open_stream(input, &c, &exec_opts).unwrap();
        let layout = layout_dims(aggs, stream.schema()).unwrap();
        let mut batch = sa_core::GroupedMoments::new(online.analysis.schema.n(), layout.dims());
        loop {
            let chunk = stream.next_chunk(4096).unwrap();
            if chunk.is_empty() {
                break;
            }
            for row in &chunk {
                batch
                    .push(&row.lineage, &f_vector(&layout, row).unwrap())
                    .unwrap();
            }
        }
        let report =
            sa_core::estimate_from_sample_moments(&online.analysis.gus, &batch.finish()).unwrap();
        let est = scalar(&online).aggs[0].estimate;
        assert!(
            (est - report.estimate[0]).abs() < 1e-9 * (1.0 + est.abs()),
            "{est} vs {}",
            report.estimate[0]
        );
        let (vo, vb) = (
            scalar(&online).aggs[0].variance.unwrap(),
            report.variance(0).unwrap(),
        );
        assert!((vo - vb).abs() < 1e-9 * (1.0 + vb.abs()), "{vo} vs {vb}");
    }

    #[test]
    fn union_mid_scan_scaling_targets_the_population() {
        // Stop the union run early: the scaled estimate must target the
        // full answer, not the scanned prefix of it.
        let c = catalog(20_000);
        let truth = 80_000.0; // v cycles 1..=7 (mean 4.0) over 20k rows
        let opts = QueryOptions {
            seed: 11,
            chunk_rows: 200,
            rule: StoppingRule::rows(1500),
            ..Default::default()
        };
        let r = run(&union_plan(0.5), &c, &opts, |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::RowBudget);
        let (consumed, available) = r.snapshot.progress()[0];
        assert!(consumed < available, "stopped mid-scan");
        let est = scalar(&r).aggs[0].estimate;
        assert!(
            (est - truth).abs() < 0.15 * truth,
            "scaled union estimate {est} should be near {truth}"
        );
    }

    #[test]
    fn union_plans_still_refuse_partitioned_workers() {
        // The parallel path partitions a union's spine like any other
        // plan: two workers emit the sequential run's sample, so the
        // exhausted readouts agree.
        let c = catalog(2000);
        let opts = |parallelism: usize| QueryOptions {
            seed: 6,
            chunk_rows: 128,
            parallelism,
            ..Default::default()
        };
        let parallel = run(&union_plan(0.4), &c, &opts(2), |_| {}).unwrap();
        let sequential = run(&union_plan(0.4), &c, &opts(1), |_| {}).unwrap();
        assert_eq!(parallel.reason, StopReason::Exhausted);
        assert_eq!(parallel.snapshot.rows(), sequential.snapshot.rows());
        assert!(parallel.snapshot.rows() > 0);
        let (es, ep) = (
            scalar(&sequential).aggs[0].estimate,
            scalar(&parallel).aggs[0].estimate,
        );
        assert!((es - ep).abs() < 1e-9 * (1.0 + es.abs()), "{es} vs {ep}");
    }

    #[test]
    fn zero_chunk_rows_rejected() {
        // chunk_rows = 0 would degenerate next_chunk's hint into 1-row
        // pulls (a snapshot per row); the driver refuses it up front.
        let c = catalog(100);
        let opts = QueryOptions {
            chunk_rows: 0,
            ..Default::default()
        };
        let err = run(&sum_plan(0.5), &c, &opts, |_| {}).unwrap_err();
        assert!(matches!(err, Error::InvalidOptions(_)), "{err}");
        assert!(err.to_string().contains("chunk_rows"), "{err}");
    }

    #[test]
    fn non_aggregate_root_rejected() {
        let c = catalog(10);
        let err = run(
            &LogicalPlan::scan("t"),
            &c,
            &QueryOptions::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn empty_sample_still_produces_a_final_snapshot() {
        // Empty table → empty stream on the very first pull; the loop must
        // still emit one snapshot and stop as Exhausted. (A `p = 0` sampler,
        // by contrast, is a degenerate GUS with a = 0 and errors, exactly
        // as `.batch()` does.)
        let c = catalog(0);
        let r = run(&sum_plan(0.5), &c, &QueryOptions::default(), |_| {}).unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(r.chunks, 1);
        assert_eq!(r.snapshot.rows(), 0);
        assert_eq!(scalar(&r).aggs[0].estimate, 0.0);
        let degenerate = run(&sum_plan(0.0), &c, &QueryOptions::default(), |_| {});
        assert!(matches!(degenerate, Err(Error::Core(_))));
    }
}
