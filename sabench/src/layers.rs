//! The traced run of one workload (`--trace 1`): per-layer numbers, each
//! taken from outside the layer by timing calls into its public functions.
//!
//! Analytic workloads are replayed hand-driven with a tracer on (see
//! `handdriven.rs`); what happens inside `next_batch` — the storage gather
//! and a pushed-down or streamed predicate — is replayed in isolation as
//! sibling spans, and the executor's own time is `next_batch` minus those.
//! The served workload gets client-side spans per exchange.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sa_core::MomentAccumulator;
use sa_exec::layout_dims;
use sa_expr::{compile, Expr};
use sa_online::Engine;
use sa_plan::{rewrite, LogicalPlan, ScanColumnMap};
use sa_sampling::SamplingMethod;
use sa_storage::{Catalog, Schema, Table};

use crate::analytic::{
    answer_of, check_hand_driven, converge_once, exhaust_once, settle_allocator, ConvergeRun,
    Runner, STREAM_CONVERGE, STREAM_EXHAUST,
};
use crate::e2e::{
    clients, closed_loop, nproc, score_replies, served_exact, setup_served, Config, Ops, Outcome,
    ServedSamples, SERVED_MIX,
};
use crate::handdriven::{hand_driven, plan_query, push_scalar, HandDriven};
use crate::json::Json;
use crate::metrics::{declared, Metrics};
use crate::serve::{Client, Reply};
use crate::setup::setup_analytic;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workloads::{derive_seed, Access, Form, Query, Workload, CHUNK_ROWS};

/// Shares of `--seconds` given to each block of the traced run.
const CONVERGE_SHARE: f64 = 0.2;
const ENGINE_SHARE: f64 = 0.1;
const OBS_SHARE: f64 = 0.15;
const HAND_SHARE: f64 = 0.2;
/// The served workload's: one connection alone, then the closed loop.
const SOLO_SHARE: f64 = 0.3;
const LOOP_SHARE: f64 = 0.5;
/// Traced hand-driven passes at most: enough for a median, and the span
/// file stays small on workloads whose pass takes milliseconds.
const MAX_TRACED_PASSES: usize = 7;
/// Repetitions of the isolated scan replay (a pass over the base tables).
const REPLAY_REPS: usize = 3;
/// Repetitions of each front-end call (`plan`, `rewrite`, `compile`).
const FRONT_END_REPS: usize = 100;

/// One traced run: the per-layer metrics and the spans behind them.
pub fn run(w: &Workload, cfg: &Config) -> Result<(Outcome, Json), String> {
    let mut tracer = Tracer::on();
    let mut outcome = match w.access {
        Access::Served => run_served(w, cfg, &mut tracer),
        _ => run_analytic(w, cfg, &mut tracer),
    }?;
    // Every workload reports every declared layer metric; the ones that do
    // not apply to it read 0.
    for def in &declared().per_layer {
        if !outcome.metrics.0.contains_key(def.name.as_str()) {
            outcome.metrics.set(&def.name, 0.0);
        }
    }
    Ok((outcome, tracer.to_json()))
}

/// Call `f` until `budget` is spent and it has run at least `min` times;
/// collect what it returns.
fn repeat<T>(
    budget: Duration,
    min: usize,
    f: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    repeat_up_to(budget, min, usize::MAX, f)
}

/// [`repeat`], but never more than `max` times.
fn repeat_up_to<T>(
    budget: Duration,
    min: usize,
    max: usize,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < max && (start.elapsed() < budget || out.len() < min) {
        out.push(f(out.len())?);
    }
    Ok(out)
}

fn share_of(cfg: &Config, share: f64) -> Duration {
    Duration::from_secs_f64(cfg.seconds * share)
}

fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn micros(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

fn run_analytic(w: &Workload, cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut m = Metrics::default();
    let ready = setup_analytic(w, cfg.seed)?;
    m.set("tpch.generate_s", ready.times.generate_s);
    m.set("storage.persist_s", ready.times.persist_s);
    m.set("storage.open_mapped_ms", ready.times.open_mapped_ms);
    let catalog = ready.engine.catalog().clone();
    let query = &w.queries[0];
    let runner = Runner {
        engine: &ready.engine,
        query,
    };
    let exact = runner.exact()?;

    // Where the rule stops: exact per seed, so if `tte_ms` moves and these
    // do not, the change is speed; if these move, it is statistical.
    let runs = repeat(share_of(cfg, CONVERGE_SHARE), 10, |i| {
        let run = converge_once(
            &runner,
            derive_seed(cfg.seed, STREAM_CONVERGE, i as u64),
            &exact,
        );
        ops.record(run.failure.clone().map_or(Ok(()), Err));
        Ok(run)
    })?;
    let column = |f: fn(&ConvergeRun) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    m.set("online.tte_p90_ms", quantile(&column(|r| r.tte_ms), 0.9));
    m.set_median("online.rows_at_stop", &column(|r| r.rows_at_stop as f64));
    m.set_median(
        "online.scan_share_at_stop",
        &column(|r| r.scan_share_at_stop),
    );
    m.set_median("online.snapshots", &column(|r| r.snapshots as f64));
    let intervals: u64 = runs.iter().map(|r| r.intervals).sum();
    let misses: u64 = runs.iter().map(|r| r.misses).sum();
    m.set(
        "online.ci_miss_share",
        misses as f64 / intervals.max(1) as f64,
    );

    front_end(&catalog, query, &mut m)?;

    // The Engine's exhaustion wall, sequential and with C workers.
    let seed = derive_seed(cfg.seed, STREAM_EXHAUST, 0);
    let engine_wall = median(&repeat(share_of(cfg, ENGINE_SHARE), 2, |_| {
        settle_allocator();
        exhaust_once(&runner, seed, 1).map(|(s, _)| s)
    })?);
    if nproc() > 1 {
        let parallel = median(&repeat(share_of(cfg, ENGINE_SHARE), 2, |_| {
            settle_allocator();
            exhaust_once(&runner, seed, clients()).map(|(s, _)| s)
        })?);
        m.set("online.jobs_n_over_jobs1", parallel / engine_wall);
    }

    metrics_on_off(&catalog, query, seed, cfg, &mut m)?;

    // Hand-driven passes, untraced and traced in turn.
    let mut off = Tracer::off();
    let mut untraced = Vec::new();
    let mut traced: Vec<(u32, HandDriven)> = Vec::new();
    repeat_up_to(share_of(cfg, HAND_SHARE), 2, MAX_TRACED_PASSES, |_| {
        untraced.push(hand_driven(&catalog, query, seed, &mut off, false)?.wall_s);
        let pass = hand_driven(&catalog, query, seed, tracer, false)?;
        traced.push((tracer.query_id(), pass));
        Ok(())
    })?;
    // One more pass keeps the stream's chunks, for the merge replay. Holding
    // them costs memory traffic, so its times are not used.
    let recorded = hand_driven(&catalog, query, seed, &mut off, true)?;
    // Otherwise the trace measured different work than the Engine does.
    let (_, engine_result) = exhaust_once(&runner, seed, 1)?;
    ops.record(check_hand_driven(
        &traced[0].1.answer,
        &answer_of(&engine_result.snapshot, false),
    ));
    // Fastest pass against fastest pass: interference only ever adds time,
    // and the difference looked for is far smaller than the sandbox's noise.
    let traced_wall: Vec<f64> = traced.iter().map(|(_, p)| p.wall_s).collect();
    m.set(
        "trace.overhead_share",
        (fastest(&traced_wall) - fastest(&untraced)) / fastest(&untraced),
    );

    // Isolated replays of what `next_batch` does inside.
    let replays = (0..REPLAY_REPS)
        .map(|_| replay_scans(&catalog, query, tracer))
        .collect::<Result<Vec<_>, _>>()?;
    let replay = |f: fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let base_rows = replay(|r| r.range_rows);
    m.set(
        "storage.range_gather_ns_per_row",
        replay(|r| r.range_ns / r.range_rows),
    );
    m.set(
        "storage.range_gather_bytes_per_row",
        replay(|r| r.range_bytes / r.range_rows),
    );
    m.set(
        "storage.sparse_gather_ns_per_row",
        replay(|r| r.sparse_ns / r.sparse_rows.max(1.0)),
    );
    m.set(
        "expr.mask_ns_per_row",
        replay(|r| r.mask_ns / r.mask_rows.max(1.0)),
    );
    m.set(
        "expr.mask_selectivity",
        replay(|r| r.mask_true / r.mask_rows.max(1.0)),
    );
    m.set("storage.read_retries", sa_storage::retries_total() as f64);
    m.set(
        "storage.corrupt_pages",
        sa_storage::corrupt_pages_total() as f64,
    );

    // Per-layer numbers of the traced passes, each the median over passes.
    let per_pass = |f: &dyn Fn(u32, &HandDriven) -> f64| -> f64 {
        median(&traced.iter().map(|(q, p)| f(*q, p)).collect::<Vec<_>>())
    };
    let ns = |q: u32, name: &str| tracer.total_ns(q, name) as f64;
    let rows_out = traced[0].1.rows_out.max(1) as f64;
    let chunks = traced[0].1.chunks as f64;
    m.set(
        "exec.open_stream_ms",
        per_pass(&|q, _| ns(q, "exec.open_stream") / 1e6),
    );
    m.set(
        "exec.first_batch_ms",
        per_pass(&|q, _| tracer.first_ns(q, "exec.next_batch") as f64 / 1e6),
    );
    let next_batch = per_pass(&|q, _| ns(q, "exec.next_batch"));
    m.set("exec.next_batch_ns_per_row", next_batch / base_rows);
    m.set("exec.rows_out_per_row_in", rows_out / base_rows);
    m.set("exec.chunks", chunks);
    let dim_eval = per_pass(&|q, _| ns(q, "expr.dim_eval"));
    m.set("expr.f64_ns_per_row", dim_eval / rows_out);
    let push = per_pass(&|q, _| ns(q, "core.push"));
    let grouped_push = per_pass(&|q, _| ns(q, "core.grouped_push"));
    m.set("core.push_ns_per_row", push / rows_out);
    m.set("core.grouped_push_ns_per_row", grouped_push / rows_out);
    m.set("core.groups", traced[0].1.groups as f64);
    let readout = per_pass(&|q, _| ns(q, "core.readout"));
    m.set("core.readout_us", readout / chunks / 1e3);
    m.set("core.merge_us", merge_micros(&recorded, &catalog, query)?);

    // Layer self times of the hand-driven wall: each span minus its
    // children, summed by layer. The replays then move what happened
    // inside the executor's calls out to storage and expr.
    let by_layer: Vec<_> = traced
        .iter()
        .map(|(q, _)| tracer.self_ns_by_layer(*q))
        .collect();
    let self_ns = |layer: &str| {
        let per_pass: Vec<f64> = by_layer
            .iter()
            .map(|pass| *pass.get(layer).unwrap_or(&0) as f64)
            .collect();
        median(&per_pass)
    };
    let storage = replay(|r| r.range_ns + r.sparse_ns);
    let mask = replay(|r| r.mask_engine_ns);
    let exec_self = (self_ns("exec") - storage - mask).max(0.0);
    m.set("exec.self_ns_per_row", exec_self / base_rows);
    let wall = per_pass(&|q, _| ns(q, "query"));
    let shares = [
        ("share.sql", self_ns("sql")),
        ("share.plan", self_ns("plan")),
        ("share.expr", self_ns("expr") + mask),
        ("share.exec", exec_self),
        ("share.storage", storage),
        ("share.core", self_ns("core")),
        ("share.online", self_ns("online")),
    ];
    for (name, layer_ns) in shares {
        m.set(name, layer_ns / wall);
    }
    m.set(
        "trace.self_sum_over_wall",
        shares.iter().map(|(_, layer_ns)| layer_ns).sum::<f64>() / wall,
    );
    // What the Engine adds on top of the calls the harness made by hand:
    // ticks, Prop-8 compaction, judging, snapshots, the callback.
    let hand_calls = self_ns("exec") + self_ns("expr") + self_ns("core");
    m.set(
        "online.self_share",
        (engine_wall * 1e9 - hand_calls) / (engine_wall * 1e9),
    );
    Ok(Outcome { ops, metrics: m })
}

/// `sql.plan_us`, `plan.rewrite_us`, `expr.compile_us`: the front end a
/// query passes before its first row, which short served queries feel.
fn front_end(catalog: &Catalog, query: &Query, m: &mut Metrics) -> Result<(), String> {
    let sql = query.sql(Form::Converge);
    let (plan, group_by) = plan_query(catalog, &sql)?;
    let LogicalPlan::Aggregate { aggs, input } = &plan else {
        return Err("plan root is not an aggregate".into());
    };
    let schema = input
        .schema(catalog)
        .map_err(|e| format!("input schema: {e}"))?;
    let (mut plan_us, mut rewrite_us, mut compile_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..FRONT_END_REPS {
        plan_us.push(micros(|| {
            std::hint::black_box(plan_query(catalog, &sql).is_ok());
        }));
        rewrite_us.push(micros(|| {
            std::hint::black_box(rewrite(&plan, catalog).is_ok());
        }));
        compile_us.push(micros(|| {
            let layout = layout_dims(aggs, &schema).and_then(|l| l.compile_batch(&schema));
            let keys: Vec<_> = group_by.iter().map(|e| compile(e, &schema)).collect();
            std::hint::black_box((layout.is_ok(), keys.len()));
        }));
    }
    m.set_median("sql.plan_us", &plan_us);
    m.set_median("plan.rewrite_us", &rewrite_us);
    m.set_median("expr.compile_us", &compile_us);
    Ok(())
}

/// `obs.metrics_on_share`: exhaustion with `EngineBuilder::metrics(true)`
/// against off, interleaved so drift hits both alike. The metrics-on engine
/// also yields the scan counters, which are exact counts.
fn metrics_on_off(
    catalog: &Catalog,
    query: &Query,
    seed: u64,
    cfg: &Config,
    m: &mut Metrics,
) -> Result<(), String> {
    let off = Engine::new(catalog.clone());
    let on = Engine::builder(catalog.clone()).metrics(true).build();
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    repeat(share_of(cfg, OBS_SHARE), 2, |_| {
        for (engine, secs) in [(&off, &mut off_s), (&on, &mut on_s)] {
            let runner = Runner { engine, query };
            settle_allocator();
            secs.push(exhaust_once(&runner, seed, 1)?.0);
        }
        Ok(())
    })?;
    // Fastest against fastest, as for the tracing overhead.
    m.set(
        "obs.metrics_on_share",
        (fastest(&on_s) - fastest(&off_s)) / fastest(&off_s),
    );
    let snap = on.metrics();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let queries = on_s.len() as f64;
    m.set(
        "storage.pages_skipped",
        counter("sa_scan_pages_skipped_total") / queries,
    );
    m.set(
        "storage.rows_gathered_share",
        counter("sa_scan_rows_gathered_total") / counter("sa_scan_rows_scanned_total").max(1.0),
    );
    Ok(())
}

/// `core.merge_us`: the coordinator's chunk-delta merge — one chunk's
/// accumulator merged into the running total, per recorded chunk.
fn merge_micros(pass: &HandDriven, catalog: &Catalog, query: &Query) -> Result<f64, String> {
    let (plan, group_by) = plan_query(catalog, &query.sql(Form::Exhaust))?;
    let LogicalPlan::Aggregate { aggs, .. } = &plan else {
        return Err("plan root is not an aggregate".into());
    };
    if !group_by.is_empty() {
        return Ok(0.0); // the scalar merge is the one `jobs = N` pays per chunk
    }
    let layout = layout_dims(aggs, &pass.schema).map_err(|e| format!("layout: {e}"))?;
    let dim_eval = layout
        .compile_batch(&pass.schema)
        .map_err(|e| format!("compile: {e}"))?;
    let arity = pass.recorded.first().map_or(1, |c| c.lineage.len());
    let mut total = MomentAccumulator::new(arity, layout.dims());
    let mut us = Vec::new();
    for chunk in pass.recorded.iter().take(64) {
        let mut delta = MomentAccumulator::new(arity, layout.dims());
        let f_cols = dim_eval
            .eval(&chunk.batch)
            .map_err(|e| format!("dim eval: {e}"))?;
        push_scalar(&mut delta, chunk, &f_cols)?;
        us.push(micros(|| {
            std::hint::black_box(total.merge(&delta).is_ok());
        }));
    }
    Ok(median(&us))
}

/// One base-table scan of a plan, with the predicate that sits on it.
struct ScanShape {
    table: Arc<Table>,
    alias: String,
    /// Product of the Bernoulli rates between the scan and the node being
    /// walked: the share of scanned rows that reach a streamed filter.
    sample_share: f64,
    predicate: Option<Predicate>,
}

struct Predicate {
    expr: Expr,
    /// Sits directly on the scan, so the executor pushes it into the
    /// gather: predicate columns dense, the rest only for survivors.
    fused: bool,
    /// Share of the scanned rows the engine evaluates it on.
    masked_share: f64,
}

fn scan_shapes(
    plan: &LogicalPlan,
    catalog: &Catalog,
    out: &mut Vec<ScanShape>,
) -> Result<Vec<usize>, String> {
    Ok(match plan {
        LogicalPlan::Scan { table, alias } => {
            out.push(ScanShape {
                table: catalog.get(table).map_err(|e| e.to_string())?,
                alias: alias.clone(),
                sample_share: 1.0,
                predicate: None,
            });
            vec![out.len() - 1]
        }
        LogicalPlan::Sample { method, input } => {
            let ids = scan_shapes(input, catalog, out)?;
            if let (SamplingMethod::Bernoulli { p }, [id]) = (method, ids.as_slice()) {
                out[*id].sample_share *= p;
            }
            ids
        }
        LogicalPlan::Filter { predicate, input } => {
            let ids = scan_shapes(input, catalog, out)?;
            // A single-table predicate is a mask over that table's rows; a
            // predicate over a join's output is the executor's own work.
            if let [id] = ids.as_slice() {
                let shape = &mut out[*id];
                if shape.predicate.is_none() {
                    shape.predicate = Some(Predicate {
                        expr: predicate.clone(),
                        fused: matches!(**input, LogicalPlan::Scan { .. }),
                        masked_share: shape.sample_share,
                    });
                }
            }
            ids
        }
        LogicalPlan::Project { input, .. } | LogicalPlan::Aggregate { input, .. } => {
            scan_shapes(input, catalog, out)?
        }
        LogicalPlan::Join { left, right, .. } | LogicalPlan::UnionSamples { left, right } => {
            let mut ids = scan_shapes(left, catalog, out)?;
            ids.extend(scan_shapes(right, catalog, out)?);
            ids
        }
    })
}

/// Totals of one isolated replay of a plan's scans (ns and rows as f64).
#[derive(Debug, Default)]
struct Replay {
    range_ns: f64,
    range_rows: f64,
    range_bytes: f64,
    sparse_ns: f64,
    sparse_rows: f64,
    mask_ns: f64,
    mask_rows: f64,
    mask_true: f64,
    /// `mask_ns` scaled to the rows the engine masks (a streamed filter
    /// sees only the sampled share).
    mask_engine_ns: f64,
}

fn projected(schema: &Schema, cols: &[usize]) -> Result<Schema, String> {
    Schema::new(cols.iter().map(|&c| schema.field(c).clone()).collect())
        .map_err(|e| format!("projected schema: {e}"))
}

/// Replay, scan by scan and in `CHUNK_ROWS` ranges, what the executor asks
/// of storage and of the mask kernels: `Table::batch_range_cols` over the
/// needed columns, `eval_mask` of the scan's predicate, and — where the
/// predicate is fused into the scan — `gather_rows_cols` of the remaining
/// columns for the survivors only.
fn replay_scans(catalog: &Catalog, query: &Query, tracer: &mut Tracer) -> Result<Replay, String> {
    let (plan, group_by) = plan_query(catalog, &query.sql(Form::Exhaust))?;
    let map = ScanColumnMap::analyze_with(&plan, &group_by);
    let mut shapes = Vec::new();
    scan_shapes(&plan, catalog, &mut shapes)?;
    tracer.next_query();
    let q = tracer.query_id();
    let mut out = Replay::default();
    for shape in &shapes {
        let table = &shape.table;
        let schema = table.schema();
        let needed = map
            .project_indices(&shape.alias, schema)
            .unwrap_or_else(|| (0..table.column_count()).collect());
        let (dense, late, mask) = match &shape.predicate {
            Some(p) if p.fused => {
                let mut pred_cols: Vec<usize> = p
                    .expr
                    .columns_used()
                    .iter()
                    .map(|name| schema.index_of(name).map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
                pred_cols.sort_unstable();
                pred_cols.dedup();
                let late: Vec<usize> = needed
                    .iter()
                    .copied()
                    .filter(|c| !pred_cols.contains(c))
                    .collect();
                (pred_cols, late, Some(p))
            }
            other => (needed, Vec::new(), other.as_ref()),
        };
        let kernel = mask
            .map(|p| compile(&p.expr, &projected(schema, &dense)?).map_err(|e| e.to_string()))
            .transpose()?;
        let rows = table.row_count();
        out.range_rows += rows as f64;
        out.range_bytes += (rows * 8 * dense.len() as u64) as f64;
        let mut start = 0;
        while start < rows {
            let end = (start + CHUNK_ROWS as u64).min(rows);
            let batch = tracer
                .span("replay.storage.range_gather", "storage", || {
                    table.batch_range_cols(start, end, &dense)
                })
                .map_err(|e| format!("range gather: {e}"))?;
            if let Some(kernel) = &kernel {
                let keep = tracer
                    .span("replay.expr.mask", "expr", || kernel.eval_mask(&batch))
                    .map_err(|e| format!("mask: {e}"))?;
                out.mask_rows += keep.len() as f64;
                let ids: Vec<u64> = (start..end)
                    .zip(&keep)
                    .filter(|(_, &k)| k)
                    .map(|(r, _)| r)
                    .collect();
                out.mask_true += ids.len() as f64;
                if mask.is_some_and(|p| p.fused) {
                    out.sparse_rows += ids.len() as f64;
                    tracer
                        .span("replay.storage.sparse_gather", "storage", || {
                            table.gather_rows_cols(&ids, &late)
                        })
                        .map_err(|e| format!("sparse gather: {e}"))?;
                }
            }
            start = end;
        }
        let mask_ns = tracer.total_ns(q, "replay.expr.mask") as f64 - out.mask_ns;
        out.mask_ns += mask_ns;
        out.mask_engine_ns += mask_ns * mask.map_or(1.0, |p| p.masked_share);
    }
    out.range_ns = tracer.total_ns(q, "replay.storage.range_gather") as f64;
    out.sparse_ns = tracer.total_ns(q, "replay.storage.sparse_gather") as f64;
    Ok(out)
}

fn run_served(w: &Workload, cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut m = Metrics::default();
    let served = setup_served(w, cfg.seed)?;
    m.set("tpch.generate_s", served.times.generate_s);
    m.set("storage.persist_s", served.times.persist_s);
    let (engine, exact) = served_exact(w, &served)?;
    let addr = served.server.addr;
    let sqls: Vec<String> = w.queries.iter().map(|q| q.sql(Form::Converge)).collect();

    // The wire alone: connection set-up and a PING round trip.
    let mut connect_us = Vec::new();
    tracer.next_query();
    for _ in 0..20 {
        let t = Instant::now();
        let mut c = tracer.span("client.connect", "harness", || Client::connect(addr))?;
        c.command("PING")?;
        connect_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.set_median("server.conn_setup_us", &connect_us);
    let mut solo = Client::connect(addr)?;
    let mut ping_us = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        solo.command("PING")?;
        ping_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.set_median("server.ping_rtt_us", &ping_us);

    // One connection alone, then the same seeded mix in process: the
    // difference is what the server and the wire add to a query.
    let mut solo_ms = Vec::new();
    let mut inproc_ms = Vec::new();
    repeat(share_of(cfg, SOLO_SHARE), 30, |i| {
        let qseed = derive_seed(cfg.seed, 99, i as u64);
        let template = SERVED_MIX[(qseed % SERVED_MIX.len() as u64) as usize];
        solo.command(&format!("SEED {qseed}"))?;
        tracer.next_query();
        let span = tracer.begin("client.exchange", "harness");
        let reply = solo.query(&sqls[template])?;
        tracer.end(span);
        tracer.split(
            span,
            "client.first_line",
            "client.done",
            reply.first_line_ms,
        );
        solo_ms.push(reply.total_ms);
        let runner = Runner {
            engine: &engine,
            query: &w.queries[template],
        };
        let t = Instant::now();
        let run = converge_once(&runner, qseed, &exact[template]);
        inproc_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ops.record(run.failure.map_or(Ok(()), Err));
        ops.record(reply.fin.map(|_| ()));
        Ok(())
    })?;
    m.set_median("server.solo_query_p50_ms", &solo_ms);
    m.set("server.overhead_ms", median(&solo_ms) - median(&inproc_ms));
    drop(solo);

    // The closed loop, with the hub's gather counter read around it.
    let mut stats = Client::connect(addr)?;
    let gathered = "sa_shared_scan_rows_gathered_total";
    let rejected = "sa_queries_rejected_total";
    let before = (stats.stat(gathered)?, stats.stat(rejected)?);
    let (logs, wall) = closed_loop(
        &served,
        w,
        Form::Converge,
        cfg.seed,
        share_of(cfg, LOOP_SHARE),
        30,
    );
    let after = (stats.stat(gathered)?, stats.stat(rejected)?);
    drop(stats);
    let mut samples = ServedSamples::default();
    score_replies(logs, Form::Converge, &exact, &mut ops, &mut samples);
    let done = samples.replies.len().max(1) as f64;
    let column = |f: fn(&Reply) -> f64| -> Vec<f64> { samples.replies.iter().map(f).collect() };
    m.set(
        "exec.hub_rows_gathered_per_query",
        (after.0 - before.0) / done,
    );
    m.set("online.busy_rejects", after.1 - before.1);
    m.set(
        "online.ci_miss_share",
        samples.misses as f64 / samples.intervals.max(1) as f64,
    );
    m.set_median("server.first_line_ms", &column(|r| r.first_line_ms));
    m.set_median("server.bytes_per_query", &column(|r| r.bytes as f64));
    m.set_median("server.lines_per_query", &column(|r| r.lines as f64));
    m.set("online.tte_p90_ms", quantile(&column(|r| r.total_ms), 0.9));
    m.set(
        "server.query_p99_ms",
        quantile(&column(|r| r.total_ms), 0.99),
    );
    m.set("server.queries_per_s", done / wall);
    let rows_at_stop: Vec<f64> = samples
        .replies
        .iter()
        .filter_map(|r| r.fin.as_ref().ok().map(|f| f.rows as f64))
        .collect();
    m.set_median("online.rows_at_stop", &rows_at_stop);

    front_end(engine.catalog(), &w.queries[0], &mut m)?;
    ops.record(served.server.stop());
    Ok(Outcome { ops, metrics: m })
}
