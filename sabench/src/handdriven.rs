//! The harness playing the online driver with public calls only:
//! `plan_online_grouped_sql` → `rewrite` → `open_stream` → loop
//! { `next_batch` → `BatchDimEval::eval` → `push_batch` → `report` }.
//!
//! It serves two purposes. Its final readout is the batch estimator over
//! the very sample the `Engine` realizes on the same seed, so the two must
//! agree to 1e-9 — the output check every run makes. And with a tracer on,
//! each call into a layer is a span, which is where the per-layer numbers
//! come from.

use std::collections::HashMap;
use std::time::Instant;

use sa_core::{GroupedMomentAccumulator, GusParams, MomentAccumulator};
use sa_exec::{
    agg_results_from_report, layout_dims, open_stream, AggResult, BatchDimEval, ColumnarChunk,
    DimLayout, ExecOptions,
};
use sa_expr::{compile, CompiledExpr, Expr};
use sa_plan::{rewrite, AggSpec, LogicalPlan, ScanColumnMap};
use sa_sql::plan_online_grouped_sql;
use sa_storage::{Catalog, SchemaRef, Value};

use crate::analytic::{insert_aggs, render_key, settle_allocator, Answer};
use crate::trace::Tracer;
use crate::workloads::{Form, Query, CHUNK_ROWS};

/// The level intervals are read at, as `QueryOptions::default` has it.
const CONFIDENCE: f64 = 0.95;

/// What one hand-driven pass produced.
pub struct HandDriven {
    /// The exhaustion readout (every group for a grouped query).
    pub answer: Answer,
    pub wall_s: f64,
    pub chunks: u64,
    pub rows_out: u64,
    pub groups: usize,
    /// The stream's chunks, when asked for (the replays' input), and the
    /// schema their batches are laid out in.
    pub recorded: Vec<ColumnarChunk>,
    pub schema: SchemaRef,
}

/// Scalar or per-group moment state.
enum Acc {
    Scalar(MomentAccumulator),
    Grouped {
        acc: GroupedMomentAccumulator<Vec<Value>>,
        keys: Vec<CompiledExpr>,
    },
}

/// One group's rows of a chunk: its key, and per relation / per dimension
/// the lineage ids and `f` values of those rows.
struct GroupRows {
    key: Vec<Value>,
    lineage: Vec<Vec<u64>>,
    f: Vec<Vec<f64>>,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("hand-driven {what}: {e}")
}

/// Parse and bind `sql` as the Engine does: the aggregate plan and its
/// `GROUP BY` expressions.
pub fn plan_query(catalog: &Catalog, sql: &str) -> Result<(LogicalPlan, Vec<Expr>), String> {
    plan_online_grouped_sql(sql, catalog)
        .map(|(plan, group_by, _)| (plan, group_by))
        .map_err(|e| err("plan", e))
}

/// Run `query` to exhaustion by hand. The plan, seed, chunk size and
/// needed-column analysis are exactly what `Engine` uses, so the realized
/// sample is the same.
pub fn hand_driven(
    catalog: &Catalog,
    query: &Query,
    seed: u64,
    tracer: &mut Tracer,
    record: bool,
) -> Result<HandDriven, String> {
    settle_allocator();
    tracer.next_query();
    let start = Instant::now();
    let root = tracer.begin("query", "harness");
    let sql = query.sql(Form::Exhaust);
    let (plan, group_by) = tracer.span("sql.plan", "sql", || plan_query(catalog, &sql))?;
    let analysis = tracer
        .span("plan.rewrite", "plan", || rewrite(&plan, catalog))
        .map_err(|e| err("rewrite", e))?;
    let LogicalPlan::Aggregate { aggs, input } = &plan else {
        return Err("hand-driven: plan root is not an aggregate".into());
    };
    let opts = ExecOptions {
        seed,
        scan_cols: Some(ScanColumnMap::analyze_with(&plan, &group_by)),
        ..Default::default()
    };
    let mut stream = tracer
        .span("exec.open_stream", "exec", || {
            open_stream(input, catalog, &opts)
        })
        .map_err(|e| err("open_stream", e))?;
    let compile_span = tracer.begin("expr.compile", "expr");
    let layout = layout_dims(aggs, stream.schema()).map_err(|e| err("layout", e))?;
    let dim_eval = layout
        .compile_batch(stream.schema())
        .map_err(|e| err("compile", e))?;
    let keys: Vec<CompiledExpr> = group_by
        .iter()
        .map(|e| compile(e, stream.schema()))
        .collect::<Result<_, _>>()
        .map_err(|e| err("compile keys", e))?;
    tracer.end(compile_span);

    let n = analysis.schema.n();
    let mut acc = if keys.is_empty() {
        Acc::Scalar(MomentAccumulator::new(n, layout.dims()))
    } else {
        Acc::Grouped {
            acc: GroupedMomentAccumulator::new(n, layout.dims()),
            keys,
        }
    };
    let mut out = HandDriven {
        answer: Answer::new(),
        wall_s: 0.0,
        chunks: 0,
        rows_out: 0,
        groups: 0,
        recorded: Vec::new(),
        schema: stream.schema().clone(),
    };
    loop {
        let chunk = tracer
            .span("exec.next_batch", "exec", || stream.next_batch(CHUNK_ROWS))
            .map_err(|e| err("next_batch", e))?;
        out.chunks += 1;
        out.rows_out += chunk.rows() as u64;
        push_chunk(&mut acc, &dim_eval, &chunk, tracer)?;
        // One readout per chunk, the exhausted one included, as the
        // driver's tick does. At exhaustion the plan GUS is the design.
        let estimates = tracer.span("core.readout", "core", || {
            readout(&acc, aggs, &layout, &analysis.gus)
        })?;
        if chunk.is_empty() {
            for (key, aggs) in &estimates {
                insert_aggs(&mut out.answer, &render_key(key), aggs);
            }
            break;
        }
        if record {
            out.recorded.push(chunk);
        }
    }
    tracer.end(root);
    out.wall_s = start.elapsed().as_secs_f64();
    out.groups = match &acc {
        Acc::Scalar(_) => 0,
        Acc::Grouped { acc, .. } => acc.group_count(),
    };
    Ok(out)
}

fn push_chunk(
    acc: &mut Acc,
    dim_eval: &BatchDimEval,
    chunk: &ColumnarChunk,
    tracer: &mut Tracer,
) -> Result<(), String> {
    if chunk.is_empty() {
        return Ok(());
    }
    let f_cols = tracer
        .span("expr.dim_eval", "expr", || dim_eval.eval(&chunk.batch))
        .map_err(|e| err("dim eval", e))?;
    match acc {
        Acc::Scalar(acc) => tracer.span("core.push", "core", || push_scalar(acc, chunk, &f_cols)),
        Acc::Grouped { acc, keys } => {
            let key_cols = tracer
                .span("expr.group_keys", "expr", || {
                    keys.iter()
                        .map(|k| k.eval_column(&chunk.batch))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| err("group keys", e))?;
            // Routing rows to their group is the online driver's work
            // (`sa-online` does it between the kernels and the pushes).
            // One span for the chunk's routing and one for its pushes: a
            // span per group would be thousands per chunk.
            let span = tracer.begin("online.partition", "online");
            let mut slots: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut groups: Vec<GroupRows> = Vec::new();
            for row in 0..chunk.rows() {
                let key: Vec<Value> = key_cols.iter().map(|c| c.value(row)).collect();
                let slot = *slots.entry(key).or_insert_with_key(|key| {
                    groups.push(GroupRows {
                        key: key.clone(),
                        lineage: vec![Vec::new(); chunk.lineage.len()],
                        f: vec![Vec::new(); f_cols.len()],
                    });
                    groups.len() - 1
                });
                let group = &mut groups[slot];
                for (out, l) in group.lineage.iter_mut().zip(&chunk.lineage) {
                    out.push(l[row]);
                }
                for (out, c) in group.f.iter_mut().zip(&f_cols) {
                    out.push(c[row]);
                }
            }
            tracer.end(span);
            tracer
                .span("core.grouped_push", "core", || {
                    groups.into_iter().try_for_each(|g| {
                        let lineage: Vec<&[u64]> = g.lineage.iter().map(Vec::as_slice).collect();
                        let f: Vec<&[f64]> = g.f.iter().map(Vec::as_slice).collect();
                        acc.push_batch(g.key, &lineage, &f)
                    })
                })
                .map_err(|e| err("grouped push_batch", e))?;
            Ok(())
        }
    }
}

/// `MomentAccumulator::push_batch` of one chunk's lineage and `f` columns.
pub fn push_scalar(
    acc: &mut MomentAccumulator,
    chunk: &ColumnarChunk,
    f_cols: &[Vec<f64>],
) -> Result<(), String> {
    let lineage: Vec<&[u64]> = chunk.lineage.iter().map(Vec::as_slice).collect();
    let f: Vec<&[f64]> = f_cols.iter().map(Vec::as_slice).collect();
    acc.push_batch(&lineage, &f)
        .map_err(|e| err("push_batch", e))
}

/// One group's key (empty for a scalar query) and its aggregates.
type GroupReadout<'a> = (&'a [Value], Vec<AggResult>);

/// Estimate, variance and interval of every aggregate, per group.
fn readout<'a>(
    acc: &'a Acc,
    aggs: &[AggSpec],
    layout: &DimLayout,
    gus: &GusParams,
) -> Result<Vec<GroupReadout<'a>>, String> {
    match acc {
        Acc::Scalar(acc) => {
            let report = acc.report(gus).map_err(|e| err("report", e))?;
            Ok(vec![(
                &[],
                agg_results_from_report(aggs, layout, &report, CONFIDENCE),
            )])
        }
        Acc::Grouped { acc, .. } => acc
            .iter()
            .map(|(key, slot)| {
                let report = slot.report(gus).map_err(|e| err("group report", e))?;
                Ok((
                    key.as_slice(),
                    agg_results_from_report(aggs, layout, &report, CONFIDENCE),
                ))
            })
            .collect(),
    }
}
