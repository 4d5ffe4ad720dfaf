//! The shard-parallel worker pool behind `parallelism > 1`.
//!
//! The paper's estimator makes parallel online aggregation almost free:
//! second-moment state composes exactly under
//! [`sa_core::GroupedMomentAccumulator::merge`] (the same rank-two delta
//! algebra the push path uses; a delta's slots land on the global
//! accumulator's by key, new groups appended), so N workers can consume
//! disjoint slices of the sampled plan and the coordinator can read the
//! *global* estimate at any time by absorbing the workers' queued deltas —
//! never touching a row twice. Both query shapes feed the same accumulator
//! type (the scalar shape's one slot is the empty key's), so the pool knows
//! one.
//!
//! Topology: [`sa_exec::open_stream_partitioned`] hands each worker thread
//! its own [`ChunkStream`] over a disjoint, deterministic slice. Workers
//! loop pull-chunk → accumulate it into a fresh local **delta** (all
//! per-row work happens outside any lock) → queue the delta on the shard
//! slot (an O(1) push under a mutex only the coordinator ever contends
//! on) → ping the coordinator. The coordinator wakes on pings (batching
//! whatever is already pending), takes each shard's queued deltas, absorbs
//! them into one persistent global accumulator — because merge composes
//! exactly,
//! `global ⊕ δ₁ ⊕ δ₂ ⊕ …` equals a single accumulator fed every row, so
//! per-tick cost is proportional to the *new* rows, never the total — sums
//! per-shard scan progress (slices report slice-relative `(consumed,
//! available)`, so the sums are true per-relation coverage and the Prop-8
//! prefix scaling is unchanged), and hands the merged state to `judge` —
//! the driver's one `tick`, the very function the in-thread pull of
//! `parallelism = 1` calls, so a snapshot and a stop verdict mean the same
//! thing from either source. On stop it raises a cancellation flag;
//! workers observe it at their next chunk boundary. Workers always pull at
//! the fixed `chunk_rows`: `adaptive_chunks` belongs to the in-thread pull.
//!
//! Mid-run snapshot *timing* depends on thread scheduling (which worker
//! pings first), and so does the merge interleaving — estimates are exact
//! up to floating-point associativity of the merge order (the exhaustion
//! readout equals the batch estimator on the realized union sample to
//! 1e-9, pinned by `tests/parallel_online.rs`).
//!
//! ## Panic containment
//!
//! A worker that panics (a bug in an expression kernel, or an injected
//! `worker.chunk.panic` fault) must not take the query down: the pull +
//! accumulate step runs under [`std::panic::catch_unwind`], and on a panic
//! the shard **discards its pending (never-absorbed) deltas and rolls its
//! published scan progress back to the last coordinator drain** before
//! marking itself done. Discarding the deltas without the progress
//! rollback would desynchronize the sample from its claimed Prop-8
//! coverage and bias the readout; with it, the surviving global state
//! covers exactly the absorbed prefix — a valid, merely smaller, sample.
//! The coordinator observes the `panicked` flag and judges one final tick
//! with `degraded = true`, which the tick's stop ladder reports as
//! [`sa_plan::StopReason::Degraded`]. Shard locks are acquired with
//! explicit poison recovery everywhere, so even a panic at an unexpected
//! point cannot wedge the pool.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use sa_core::GroupedMomentAccumulator;
use sa_exec::{ChunkStream, ColumnarChunk};
use sa_obs::{Counter, Histogram};
use sa_storage::Value;

use crate::driver::add_coverage;
use crate::error::Error;
use crate::Result;

/// The worker pool's observability handles, threaded in through
/// [`crate::driver::RunCtx`]. The default (disabled) handles make every
/// update a single untaken branch, so uninstrumented engines pay nothing.
#[derive(Clone, Default)]
pub(crate) struct PoolObs {
    /// Chunks accumulated by workers (`sa_worker_chunks_total`).
    pub(crate) chunks: Counter,
    /// Rows accumulated by workers (`sa_worker_rows_total`); together with
    /// wall time this gives rows/s per worker.
    pub(crate) rows: Counter,
    /// Backpressure episodes: a worker parked because its un-drained
    /// deltas hit the bound (`sa_worker_backpressure_stalls_total`).
    pub(crate) stalls: Counter,
    /// Wall time of one coordinator drain-and-merge tick
    /// (`sa_coordinator_merge_us`).
    pub(crate) merge_us: Histogram,
    /// Worker panics contained by the pool — the query degraded instead of
    /// dying (`sa_worker_panics_contained_total`).
    pub(crate) panics: Counter,
}

/// One worker's published state: per-chunk delta accumulators queued since
/// the coordinator last drained (each built *outside* the lock — publishing
/// is an O(1) `Vec::push`, so the coordinator never waits on a chunk's
/// accumulation), the latest slice-relative scan progress, and whether the
/// stream has drained.
struct ShardState {
    deltas: Vec<GroupedMomentAccumulator<Vec<Value>>>,
    /// Rows across `deltas` not yet drained by the coordinator — the
    /// backpressure quantity.
    pending_rows: u64,
    progress: Vec<(u64, u64)>,
    /// `progress` as of the coordinator's last drain — everything queued at
    /// that instant was taken, so this is exactly the coverage of the
    /// *absorbed* chunks. A contained panic rolls `progress` back to it,
    /// keeping the discarded pending deltas out of the claimed coverage.
    progress_at_drain: Vec<(u64, u64)>,
    exhausted: bool,
    /// The worker panicked and was contained; the shard's published state
    /// covers only its absorbed prefix. The coordinator turns this into a
    /// `degraded` final tick.
    panicked: bool,
    error: Option<Error>,
}

/// One worker's slot: its state plus the condvar the coordinator signals
/// after draining the delta (backpressure release).
struct Shard {
    state: Mutex<ShardState>,
    drained: Condvar,
}

/// Lock a shard with explicit poison recovery: a panic elsewhere (always
/// contained by the pool) must never cascade into a poisoned-lock panic on
/// a healthy thread. `ShardState` is plain data — every mutation below is
/// a complete, consistent update, so the recovered view is always usable.
fn lock_shard(m: &Mutex<ShardState>) -> MutexGuard<'_, ShardState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drive `streams.len()` worker threads over their disjoint slices and
/// judge the stopping rule on the merged state after every tick.
///
/// `push_chunk` accumulates one whole columnar chunk into a shard-local
/// delta (the per-chunk batch path — workers never touch rows one at a
/// time). `judge` is called on the coordinator thread with the merged
/// accumulator, the summed per-relation progress, whether *every* shard
/// has drained, and whether any shard's worker panicked and was contained;
/// it judges the stop — reading the snapshot out only when something reads
/// it — and returns `Some(reason)` to stop (it must
/// return `Some` when `exhausted` or `degraded` is true — there will be no
/// further tick). The final merged accumulator and the stop reason are
/// returned; workers are joined before this function returns.
pub(crate) fn run_worker_pool<P, J>(
    streams: Vec<ChunkStream>,
    chunk_rows: usize,
    obs: &PoolObs,
    fresh: impl Fn() -> GroupedMomentAccumulator<Vec<Value>> + Sync,
    push_chunk: P,
    mut judge: J,
) -> Result<(GroupedMomentAccumulator<Vec<Value>>, sa_plan::StopReason)>
where
    P: Fn(&mut GroupedMomentAccumulator<Vec<Value>>, &ColumnarChunk) -> Result<()> + Sync,
    J: FnMut(
        &GroupedMomentAccumulator<Vec<Value>>,
        &[(u64, u64)],
        bool,
        bool,
    ) -> Result<Option<sa_plan::StopReason>>,
{
    let nrels = streams.first().map(|s| s.relations().len()).unwrap_or(0);
    // Backpressure: a worker pauses once its un-drained deltas hold two
    // chunks' worth of rows, until the coordinator drains them. This bounds
    // the overshoot past a stopping rule (and the delta memory) to
    // O(workers × chunk_rows) without throttling steady-state throughput —
    // the coordinator drains every tick.
    let backpressure = (chunk_rows.max(1) as u64).saturating_mul(2);
    let shards: Vec<Shard> = streams
        .iter()
        .map(|s| Shard {
            state: Mutex::new(ShardState {
                deltas: Vec::new(),
                pending_rows: 0,
                progress: s.progress(),
                progress_at_drain: s.progress(),
                exhausted: false,
                panicked: false,
                error: None,
            }),
            drained: Condvar::new(),
        })
        .collect();
    let cancel = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        for (stream, shard) in streams.into_iter().zip(&shards) {
            let tx = tx.clone();
            let cancel = &cancel;
            let push_chunk = &push_chunk;
            let fresh = &fresh;
            scope.spawn(move || {
                worker_loop(
                    stream,
                    chunk_rows,
                    backpressure,
                    shard,
                    obs,
                    fresh,
                    push_chunk,
                    cancel,
                    tx,
                )
            });
        }
        drop(tx); // the coordinator's recv() errors once every worker exits
        let mut global = fresh();
        let out = (|| {
            let mut last_judged: Option<u64> = None;
            loop {
                // Wait for at least one completed chunk, then fold in
                // everything already pending — a fast worker must not build
                // a snapshot backlog the coordinator can never drain.
                if rx.recv().is_ok() {
                    while rx.try_recv().is_ok() {}
                }
                // Instant::now only when a histogram is listening — the
                // uninstrumented pool's tick stays syscall-free here.
                let merge_start = obs.merge_us.enabled().then(Instant::now);
                let mut progress = vec![(0u64, 0u64); nrels];
                let mut exhausted = true;
                let mut degraded = false;
                for shard in &shards {
                    // Take the queued deltas under the lock (an O(1) swap),
                    // merge outside it — the worker accumulates its next
                    // chunk meanwhile.
                    let deltas = {
                        let mut s = lock_shard(&shard.state);
                        if let Some(e) = &s.error {
                            return Err(e.clone());
                        }
                        add_coverage(&mut progress, &s.progress);
                        exhausted &= s.exhausted;
                        degraded |= s.panicked;
                        s.pending_rows = 0;
                        s.progress_at_drain = s.progress.clone();
                        std::mem::take(&mut s.deltas)
                    };
                    shard.drained.notify_all();
                    for delta in &deltas {
                        global.merge(delta)?;
                    }
                }
                if let Some(t) = merge_start {
                    obs.merge_us.record(t.elapsed().as_micros() as u64);
                }
                // A ping with no new rows (a worker's final empty pull, a
                // backpressure re-ping) would replay the previous snapshot
                // verbatim; skip it unless it is the first tick or carries
                // the exhaustion or degradation verdict. Quiet gaps are
                // bounded by one chunk, so a time budget still fires
                // promptly.
                if last_judged == Some(global.count()) && !exhausted && !degraded {
                    continue;
                }
                last_judged = Some(global.count());
                if let Some(reason) = judge(&global, &progress, exhausted, degraded)? {
                    return Ok(reason);
                }
            }
        })();
        // Stop, error or panic: workers observe the flag at their next
        // chunk boundary (waking any that were blocked on backpressure);
        // the scope joins them before returning.
        cancel.store(true, Ordering::Relaxed);
        for shard in &shards {
            let _guard = lock_shard(&shard.state);
            shard.drained.notify_all();
        }
        out.map(|reason| (global, reason))
    })
}

/// One worker: pull a columnar chunk, accumulate it into a fresh local
/// delta **outside the lock** (the expensive per-chunk work — compiled
/// expression eval, batch moment pushes, fingerprinting — never blocks the
/// coordinator), publish the delta with an O(1) queue push, ping the
/// coordinator — pausing under backpressure — until drained, cancelled or
/// failed.
#[allow(clippy::too_many_arguments)]
fn worker_loop<P>(
    mut stream: ChunkStream,
    chunk_rows: usize,
    backpressure: u64,
    shard: &Shard,
    obs: &PoolObs,
    fresh: &(impl Fn() -> GroupedMomentAccumulator<Vec<Value>> + Sync),
    push_chunk: &P,
    cancel: &AtomicBool,
    tx: mpsc::Sender<()>,
) where
    P: Fn(&mut GroupedMomentAccumulator<Vec<Value>>, &ColumnarChunk) -> Result<()> + Sync,
{
    let fail = |e: Error| {
        let mut s = lock_shard(&shard.state);
        s.error = Some(e);
        drop(s);
        let _ = tx.send(());
    };
    loop {
        if cancel.load(Ordering::Relaxed) {
            return;
        }
        // The pull + accumulate step is the only per-row code on this
        // thread; contain any panic in it (a kernel bug, or an injected
        // `worker.chunk.panic` fault) so the query degrades instead of
        // dying. AssertUnwindSafe is sound because a panicking iteration
        // abandons the shard: `stream` and the local delta are never
        // observed again.
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if sa_fault::hit(sa_fault::sites::WORKER_STALL) {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            if sa_fault::hit(sa_fault::sites::WORKER_PANIC) {
                panic!("injected fault: worker panic at a chunk boundary");
            }
            let chunk = stream.next_batch(chunk_rows)?;
            let exhausted = chunk.is_empty();
            let mut delta = None;
            if !exhausted {
                let mut local = fresh();
                push_chunk(&mut local, &chunk)?;
                delta = Some(local);
            }
            Ok::<_, Error>((delta, chunk.rows(), exhausted))
        }));
        let (delta, chunk_len, exhausted) = match step {
            Ok(Ok(v)) => v,
            Ok(Err(e)) => return fail(e),
            Err(_panic) => {
                // Contained: discard the pending (never-absorbed) deltas
                // AND roll the published coverage back to the last drain —
                // the surviving global state then covers exactly the
                // absorbed prefix, so the degraded readout stays an
                // unbiased (smaller) sample estimate.
                let mut s = lock_shard(&shard.state);
                s.deltas.clear();
                s.pending_rows = 0;
                s.progress = s.progress_at_drain.clone();
                s.exhausted = true;
                s.panicked = true;
                drop(s);
                obs.panics.inc();
                let _ = tx.send(());
                return;
            }
        };
        let mut s = lock_shard(&shard.state);
        if let Some(local) = delta {
            s.deltas.push(local);
            s.pending_rows += chunk_len as u64;
            obs.chunks.inc();
            obs.rows.add(chunk_len as u64);
        }
        s.progress = stream.progress();
        s.exhausted = exhausted;
        // Backpressure: once the un-drained deltas hold two chunks' worth
        // of rows, wait for the coordinator to drain them — running further
        // ahead only grows the overshoot past a stopping rule the
        // coordinator has not judged yet.
        let mut stall_counted = false;
        while s.pending_rows >= backpressure && !cancel.load(Ordering::Relaxed) {
            if !stall_counted {
                // One stall per episode, not per spurious wake.
                obs.stalls.inc();
                stall_counted = true;
            }
            // The ping must be in flight before parking, or the coordinator
            // may never wake to drain us.
            let _ = tx.send(());
            s = shard.drained.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        drop(s);
        // The coordinator may already have stopped and dropped the
        // receiver; that just means nobody needs the ping.
        let _ = tx.send(());
        if exhausted {
            return;
        }
    }
}
