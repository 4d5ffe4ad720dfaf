//! The row executor — the **reference implementation** the columnar stream
//! is tested against, plus the vocabulary ([`ExecOptions`], [`Row`]) both
//! share.
//!
//! [`execute`] runs a [`LogicalPlan`] while carrying **lineage** — one id
//! per base relation — through every operator. Lineage is the paper's
//! Section 6.2 requirement: "all there is needed is to carry IDs of tuples
//! through the query plan and make them available, together with the
//! aggregate, to the SBox". A scan emits its row id (or block id when the
//! relation is `SYSTEM`-sampled), selection leaves lineage untouched, and a
//! join concatenates the lineage of the matching tuples.
//!
//! It samples at the **root**: the plan runs unsampled, and the tuples kept
//! are those whose whole lineage the plan's sampler design keeps — the same
//! design, drawn from the same seed, that [`crate::open_stream`] applies at
//! its scans. GUS samplers commute with selection and join (Propositions
//! 6–8), so the two realize one sample, and their differential checks that
//! commutation.
//!
//! It is deliberately the simplest thing that can be right — materialized
//! row vectors between operators, the `sa_expr::eval` interpreter per row,
//! a `Value`-keyed hash join, nested loops otherwise — because no query
//! runs on it: every `QueryBuilder` terminal drains [`crate::open_stream`].
//! The differential tests (`stream.rs`, `tests/columnar_equivalence.rs`)
//! execute the same plans here and require the same tuples and lineage.

use std::collections::HashMap;
use std::sync::Arc;

use sa_expr::{bind, eval, eval_predicate, BinOp, Expr};
use sa_plan::LogicalPlan;
use sa_sampling::LineageUnit;
use sa_storage::{Catalog, Schema, SchemaRef, Table, Value};

use crate::error::ExecError;
use crate::stream::design;
use crate::Result;

/// One materialized result row: its column values and its lineage (one id
/// per base relation of the subtree that produced it, in scan order).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Column values, aligned with the producing node's schema.
    pub values: Vec<Value>,
    /// Lineage ids, aligned with the subtree's base relations.
    pub lineage: Vec<u64>,
}

/// A materialized result: schema, rows, and the base-relation aliases whose
/// ids appear in each row's lineage (in order).
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output schema.
    pub schema: SchemaRef,
    /// Materialized rows.
    pub rows: Vec<Row>,
    /// Base-relation aliases, aligned with `Row::lineage`.
    pub relations: Vec<String>,
}

/// Execution options.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Seed for all sampling operators in the plan (drawn in traversal
    /// order, so a given `(plan, seed)` pair is reproducible).
    pub seed: u64,
    /// Visit each streaming scan's blocks in a seeded random order instead
    /// of physical order (see [`crate::open_stream`]). This makes the
    /// online driver's random-scan-order assumption true by construction
    /// on sorted or clustered data. Off by default; the row executor
    /// ignores it. It changes the order the sample streams in, never which
    /// tuples it holds, and the order is byte-reproducible per seed.
    pub shuffle_scan: bool,
    /// Disable projection/predicate pushdown into the streaming scans:
    /// every scan gathers every column and `Filter`s stay separate
    /// operators. The realized sample, lineage and estimates are identical
    /// either way (pruning only drops columns nothing downstream reads, and
    /// a predicate is only fused when no sampler sits between it and the
    /// scan) — this switch exists for benchmark baselines and for the
    /// differential tests that pin that equivalence.
    pub disable_pushdown: bool,
    /// Observability handles for the streaming scans (disabled no-ops by
    /// default; see [`ScanObs::new`]).
    pub scan_obs: ScanObs,
    /// Needed-column analysis override for projection pushdown. `None`
    /// (the default) analyzes the streamed plan itself, with its root
    /// output fully observed. A caller that streams a *sub*-plan and reads
    /// only part of its output — the online driver streams the aggregate's
    /// input but evaluates just the aggregate arguments and GROUP BY keys —
    /// passes the analysis of the full consuming plan here instead.
    pub scan_cols: Option<sa_plan::ScanColumnMap>,
}

/// Observability handles for the streaming scans. The default (disabled)
/// handles make every update a single untaken branch; [`ScanObs::new`]
/// wires the `sa_scan_*` counters into a live [`sa_obs::Registry`].
#[derive(Debug, Clone, Default)]
pub struct ScanObs {
    /// Column segments gathered, counted once per logical scan per stream
    /// open (a 2-column query over a 16-column table adds 2).
    pub cols_gathered: sa_obs::Counter,
    /// Blocks (pages) of a scan range whose rows were all dropped by a
    /// scan-level predicate — their non-predicate columns were never
    /// materialized into a batch.
    pub pages_skipped: sa_obs::Counter,
    /// Rows the streaming scans consumed (every row that had its chance to
    /// reach the output, before any scan-level predicate).
    pub rows_scanned: sa_obs::Counter,
    /// Rows the streaming scans materialized into batches (after the
    /// scan-level predicate; equals `rows_scanned` when nothing is pushed).
    pub rows_gathered: sa_obs::Counter,
}

impl ScanObs {
    /// Handles recording into `registry` under the `sa_scan_*` names.
    pub fn new(registry: &sa_obs::Registry) -> ScanObs {
        ScanObs {
            cols_gathered: registry.counter("sa_scan_cols_gathered_total"),
            pages_skipped: registry.counter("sa_scan_pages_skipped_total"),
            rows_scanned: registry.counter("sa_scan_rows_scanned_total"),
            rows_gathered: registry.counter("sa_scan_rows_gathered_total"),
        }
    }
}

/// Execute a (non-aggregate) plan row at a time. Aggregation happens above
/// the tuples, in the estimator — pass the aggregate's *input*.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog, opts: &ExecOptions) -> Result<ResultSet> {
    plan.validate(catalog)?;
    let keeps = design(plan, catalog, opts.seed)?.whole();
    let mut out = exec_node(plan, catalog)?;
    let lineage: Vec<Vec<u64>> = (0..out.relations.len())
        .map(|i| out.rows.iter().map(|r| r.lineage[i]).collect())
        .collect();
    let mut kept = keeps.mask(&lineage).into_iter();
    out.rows
        .retain(|_| kept.next().expect("one mask lane per row"));
    Ok(out)
}

/// `plan` unsampled, except that a `SYSTEM` sampler still reports its
/// relation's lineage as block ids.
fn exec_node(plan: &LogicalPlan, catalog: &Catalog) -> Result<ResultSet> {
    match plan {
        LogicalPlan::Scan { table, alias } => scan(catalog, table, alias),
        LogicalPlan::Sample { method, input } => {
            let mut inner = exec_node(input, catalog)?;
            if method.lineage_unit() == LineageUnit::Block {
                let base = base_table(input, catalog)?;
                for row in &mut inner.rows {
                    let id = row.lineage.last_mut().expect("scan lineage");
                    *id = base.block_of(*id);
                }
            }
            Ok(inner)
        }
        LogicalPlan::Filter { predicate, input } => {
            let inner = exec_node(input, catalog)?;
            let bound = bind(predicate, &inner.schema)?;
            let mut rows = Vec::with_capacity(inner.rows.len());
            for row in inner.rows {
                if eval_predicate(&bound, &row.values)? {
                    rows.push(row);
                }
            }
            Ok(ResultSet {
                schema: inner.schema,
                rows,
                relations: inner.relations,
            })
        }
        LogicalPlan::Join {
            condition,
            left,
            right,
        } => {
            let l = exec_node(left, catalog)?;
            let r = exec_node(right, catalog)?;
            join(l, r, condition.as_ref())
        }
        LogicalPlan::Project { exprs, input } => {
            let inner = exec_node(input, catalog)?;
            let mut bound = Vec::with_capacity(exprs.len());
            let mut fields = Vec::with_capacity(exprs.len());
            for (e, name) in exprs {
                let be = bind(e, &inner.schema)?;
                let dt =
                    sa_expr::data_type(&be, &inner.schema)?.unwrap_or(sa_storage::DataType::Float);
                fields.push(sa_storage::Field::new(name, dt));
                bound.push(be);
            }
            let schema = Arc::new(Schema::new(fields).map_err(ExecError::Storage)?);
            let mut rows = Vec::with_capacity(inner.rows.len());
            for row in inner.rows {
                let values: Result<Vec<Value>> = bound
                    .iter()
                    .map(|e| eval(e, &row.values).map_err(ExecError::Expr))
                    .collect();
                rows.push(Row {
                    values: values?,
                    lineage: row.lineage,
                });
            }
            Ok(ResultSet {
                schema,
                rows,
                relations: inner.relations,
            })
        }
        LogicalPlan::Aggregate { .. } => Err(ExecError::Unsupported(
            "execute runs the aggregate's input; strip the Aggregate root".into(),
        )),
        // Both branches are one expression (validated): the root mask ORs
        // their samplers over it.
        LogicalPlan::UnionSamples { left, .. } => exec_node(left, catalog),
    }
}

pub(crate) fn scan_schema(
    catalog: &Catalog,
    table: &str,
    alias: &str,
) -> Result<(Arc<Table>, SchemaRef)> {
    let t = catalog.get(table)?;
    let schema = if alias == table {
        t.schema().clone()
    } else {
        Arc::new(t.schema().qualify_all(alias))
    };
    Ok((t, schema))
}

fn scan(catalog: &Catalog, table: &str, alias: &str) -> Result<ResultSet> {
    let (t, schema) = scan_schema(catalog, table, alias)?;
    let n = t.row_count();
    let mut rows = Vec::with_capacity(n as usize);
    for rid in 0..n {
        rows.push(Row {
            values: t.row(rid)?,
            lineage: vec![rid],
        });
    }
    Ok(ResultSet {
        schema,
        rows,
        relations: vec![alias.to_string()],
    })
}

/// The base table under a Sample*/Scan chain (needed for block structure and
/// WOR population checks).
pub(crate) fn base_table(mut node: &LogicalPlan, catalog: &Catalog) -> Result<Arc<Table>> {
    loop {
        match node {
            LogicalPlan::Scan { table, .. } => return Ok(catalog.get(table)?),
            LogicalPlan::Sample { input, .. } => node = input,
            other => {
                return Err(ExecError::Unsupported(format!(
                    "sample over non-base relation {}",
                    other.node_label()
                )))
            }
        }
    }
}

fn join(l: ResultSet, r: ResultSet, condition: Option<&Expr>) -> Result<ResultSet> {
    let schema = Arc::new(l.schema.join(&r.schema)?);
    let mut relations = l.relations.clone();
    relations.extend(r.relations.iter().cloned());

    // Split the condition into hashable equi-pairs and a residual predicate.
    let (keys, residual) = match condition {
        None => (vec![], None),
        Some(c) => split_join_condition(c, &l.schema, &r.schema)?,
    };
    let residual_bound = residual.map(|e| bind(&e, &schema)).transpose()?;

    let mut out_rows = Vec::new();
    if keys.is_empty() {
        // Nested loop (cross product or arbitrary θ).
        for lr in &l.rows {
            for rr in &r.rows {
                let mut values = lr.values.clone();
                values.extend(rr.values.iter().cloned());
                if let Some(pred) = &residual_bound {
                    if !eval_predicate(pred, &values)? {
                        continue;
                    }
                }
                let mut lineage = lr.lineage.clone();
                lineage.extend(rr.lineage.iter().copied());
                out_rows.push(Row { values, lineage });
            }
        }
    } else {
        // Hash join: build on the right, probe from the left.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (i, rr) in r.rows.iter().enumerate() {
            let key: Vec<Value> = keys.iter().map(|(_, ri)| rr.values[*ri].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue; // NULL keys never match
            }
            table.entry(key).or_default().push(i);
        }
        for lr in &l.rows {
            let key: Vec<Value> = keys.iter().map(|(li, _)| lr.values[*li].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            let Some(matches) = table.get(&key) else {
                continue;
            };
            for &i in matches {
                let rr = &r.rows[i];
                let mut values = lr.values.clone();
                values.extend(rr.values.iter().cloned());
                if let Some(pred) = &residual_bound {
                    if !eval_predicate(pred, &values)? {
                        continue;
                    }
                }
                let mut lineage = lr.lineage.clone();
                lineage.extend(rr.lineage.iter().copied());
                out_rows.push(Row { values, lineage });
            }
        }
    }
    Ok(ResultSet {
        schema,
        rows: out_rows,
        relations,
    })
}

/// Equi-key column index pairs of a hash join: `(left index, right index)`.
pub(crate) type EquiKeys = Vec<(usize, usize)>;

/// Extract `(left index, right index)` equi-key pairs from a conjunctive
/// join condition; everything else becomes the residual predicate.
pub(crate) fn split_join_condition(
    condition: &Expr,
    left: &Schema,
    right: &Schema,
) -> Result<(EquiKeys, Option<Expr>)> {
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in condition.split_conjuncts() {
        if let Expr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = conjunct
        {
            if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
                match (left.index_of(ca), right.index_of(cb)) {
                    (Ok(li), Ok(ri)) => {
                        keys.push((li, ri));
                        continue;
                    }
                    _ => {
                        if let (Ok(li), Ok(ri)) = (left.index_of(cb), right.index_of(ca)) {
                            keys.push((li, ri));
                            continue;
                        }
                    }
                }
            }
        }
        residual.push(conjunct.clone());
    }
    // Literal TRUE residuals are dropped.
    let residual: Vec<Expr> = residual
        .into_iter()
        .filter(|e| *e != sa_expr::lit(true))
        .collect();
    let residual = if residual.is_empty() {
        None
    } else {
        Some(Expr::conjoin(residual))
    };
    Ok((keys, residual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_expr::{col, lit};
    use sa_sampling::SamplingMethod;
    use sa_storage::{DataType, Field, TableBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema.clone()).with_block_rows(2);
        for i in 0..6 {
            b.push_row(&[Value::Int(i % 3), Value::Float(i as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let schema2 = Schema::new(vec![
            Field::new("k2", DataType::Int),
            Field::new("w", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("u", schema2);
        for i in 0..3 {
            b.push_row(&[Value::Int(i), Value::Float(10.0 * i as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    #[test]
    fn scan_carries_row_id_lineage() {
        let rs = execute(&LogicalPlan::scan("t"), &catalog(), &ExecOptions::default()).unwrap();
        assert_eq!(rs.rows.len(), 6);
        assert_eq!(rs.rows[4].lineage, vec![4]);
        assert_eq!(rs.relations, vec!["t"]);
    }

    #[test]
    fn filter_keeps_lineage() {
        let plan = LogicalPlan::scan("t").filter(col("v").gt_eq(lit(4.0)));
        let rs = execute(&plan, &catalog(), &ExecOptions::default()).unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0].lineage, vec![4]);
        assert_eq!(rs.rows[1].lineage, vec![5]);
    }

    #[test]
    fn hash_join_concatenates_lineage() {
        let plan = LogicalPlan::scan("t").join_on(LogicalPlan::scan("u"), col("k").eq(col("k2")));
        let rs = execute(&plan, &catalog(), &ExecOptions::default()).unwrap();
        // Each t row matches exactly one u row (k in 0..3).
        assert_eq!(rs.rows.len(), 6);
        for row in &rs.rows {
            assert_eq!(row.lineage.len(), 2);
            // t.k == u.k2
            assert_eq!(row.values[0], row.values[2]);
            // u lineage = k2 value (u row ids coincide with k2 here).
            assert_eq!(row.lineage[1], row.values[2].as_i64().unwrap() as u64);
        }
        assert_eq!(rs.relations, vec!["t", "u"]);
    }

    #[test]
    fn cross_product_counts() {
        let plan = LogicalPlan::scan("t").cross(LogicalPlan::scan("u"));
        let rs = execute(&plan, &catalog(), &ExecOptions::default()).unwrap();
        assert_eq!(rs.rows.len(), 18);
    }

    #[test]
    fn theta_join_residual_predicate() {
        // join on k = k2 AND v > w
        let plan = LogicalPlan::scan("t").join_on(
            LogicalPlan::scan("u"),
            col("k").eq(col("k2")).and(col("v").gt(col("w"))),
        );
        let rs = execute(&plan, &catalog(), &ExecOptions::default()).unwrap();
        for row in &rs.rows {
            let v = row.values[1].as_f64().unwrap();
            let w = row.values[3].as_f64().unwrap();
            assert!(v > w);
        }
        // rows: t(k,v): (0,0)(1,1)(2,2)(0,3)(1,4)(2,5); u(k2,w): (0,0)(1,10)(2,20)
        // matches with v>w: (0,3) only... and (0,0) fails 0>0.
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut c = catalog();
        let schema = Schema::new(vec![Field::new("k3", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new("n", schema);
        b.push_row(&[Value::Null]).unwrap();
        b.push_row(&[Value::Int(1)]).unwrap();
        c.register(b.finish().unwrap()).unwrap();
        let plan = LogicalPlan::scan("n").join_on(LogicalPlan::scan("u"), col("k3").eq(col("k2")));
        let rs = execute(&plan, &c, &ExecOptions::default()).unwrap();
        assert_eq!(rs.rows.len(), 1); // only k3=1 matches
    }

    #[test]
    fn bernoulli_sample_filters_rows() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
        let rs = execute(
            &plan,
            &catalog(),
            &ExecOptions {
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(rs.rows.len() <= 6);
        // Reproducible.
        let rs2 = execute(
            &plan,
            &catalog(),
            &ExecOptions {
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(rs.rows.len(), rs2.rows.len());
    }

    #[test]
    fn wor_sample_exact_count_distinct_lineage() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Wor { size: 4 });
        let rs = execute(
            &plan,
            &catalog(),
            &ExecOptions {
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 4);
        let mut ids: Vec<u64> = rs.rows.iter().map(|r| r.lineage[0]).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "WOR must be distinct");
    }

    #[test]
    fn system_sample_rewrites_lineage_to_blocks() {
        // t has block_rows=2 → blocks {0,1,2}.
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::System { p: 1.0 });
        let rs = execute(&plan, &catalog(), &ExecOptions::default()).unwrap();
        assert_eq!(rs.rows.len(), 6);
        for (i, row) in rs.rows.iter().enumerate() {
            assert_eq!(row.lineage, vec![(i as u64) / 2]);
        }
    }

    #[test]
    fn project_evaluates_expressions() {
        let plan = LogicalPlan::scan("t").project(vec![(col("v").mul(lit(2.0)), "vv".into())]);
        let rs = execute(&plan, &catalog(), &ExecOptions::default()).unwrap();
        assert_eq!(rs.rows[3].values, vec![Value::Float(6.0)]);
        assert_eq!(rs.rows[3].lineage, vec![3]); // lineage survives projection
        assert!(rs.schema.index_of("vv").is_ok());
    }

    #[test]
    fn different_seeds_differ() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
        let sizes: std::collections::HashSet<usize> = (0..20)
            .map(|s| {
                execute(
                    &plan,
                    &catalog(),
                    &ExecOptions {
                        seed: s,
                        ..Default::default()
                    },
                )
                .unwrap()
                .rows
                .len()
            })
            .collect();
        assert!(sizes.len() > 1, "sampling ignored the seed");
    }

    #[test]
    fn system_union_keeps_whole_blocks() {
        // Every row of a block either branch keeps is in the union: the
        // rows share the block's lineage id, but they are distinct tuples,
        // not duplicates of one. The oracle and the stream keep one set.
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new("b", schema).with_block_rows(16);
        for i in 0..600 {
            b.push_row(&[Value::Int(i)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let plan = LogicalPlan::scan("b")
            .sample(SamplingMethod::System { p: 0.5 })
            .union_samples(LogicalPlan::scan("b").sample(SamplingMethod::System { p: 0.3 }));
        for seed in 0..3 {
            let opts = ExecOptions {
                seed,
                ..Default::default()
            };
            let rs = execute(&plan, &c, &opts).unwrap();
            let mut per_block = std::collections::BTreeMap::<u64, u64>::new();
            for row in &rs.rows {
                *per_block.entry(row.lineage[0]).or_default() += 1;
            }
            assert!(!per_block.is_empty(), "seed {seed}");
            for (&block, &rows) in &per_block {
                assert_eq!(
                    rows,
                    (600 - block * 16).min(16),
                    "seed {seed}, block {block}"
                );
            }
            let streamed = crate::open_stream(&plan, &c, &opts)
                .unwrap()
                .collect_rows(64)
                .unwrap();
            assert_eq!(rs.rows, streamed, "seed {seed}");
        }
    }
}
