//! Aggregates onto SBox dimensions: the layout every estimator shares.
//!
//! The SBox (Section 6.2) sees only lineage ids and a vector `f(t)` per
//! result tuple. [`layout_dims`] maps a `SELECT` list onto those vector
//! dimensions (`AVG` takes two — numerator and denominator of the
//! delta-method ratio), [`BatchDimEval`] computes every dimension's `f`
//! column for a whole columnar batch, and [`agg_results_from_report`] turns
//! an [`EstimateReport`] over those dimensions back into per-aggregate
//! estimates with confidence intervals and `QUANTILE(…)` bounds —
//! [`DimLayout::read_slot`] does the same for a slot seen through a tick's
//! [`sa_core::ReadoutPlan`], in place and without building a report.

use sa_core::{
    ratio_of, variance_reading, CiLevel, ConfidenceInterval, EstimateReport, SlotReadout,
};
use sa_expr::{bind, eval_f64, Expr};
use sa_plan::{AggFunc, AggSpec};

use crate::error::ExecError;
use crate::Result;

/// The report for one aggregate in the `SELECT` list.
#[derive(Debug, Clone)]
pub struct AggResult {
    /// Output name.
    pub name: String,
    /// The aggregate function.
    pub func: AggFunc,
    /// Unbiased point estimate (for `QUANTILE` specs this is still the point
    /// estimate; the bound is in [`AggResult::quantile_bound`]).
    pub estimate: f64,
    /// Estimated variance, when estimable.
    pub variance: Option<f64>,
    /// Normal confidence interval at the requested level.
    pub ci_normal: Option<ConfidenceInterval>,
    /// Chebyshev confidence interval at the requested level.
    pub ci_chebyshev: Option<ConfidenceInterval>,
    /// The requested `QUANTILE(agg, q)` bound, if the spec asked for one.
    pub quantile_bound: Option<f64>,
}

/// Layout of aggregate specs onto SBox dimensions.
#[derive(Debug)]
pub struct DimLayout {
    /// For each agg: (dimension of the numerator, optional denominator dim).
    per_agg: Vec<(usize, Option<usize>)>,
    /// Bound argument expression per dimension (`None` = constant 1).
    dim_exprs: Vec<Option<Expr>>,
    /// For COUNT(expr) dims: count non-null rather than sum.
    dim_is_count: Vec<bool>,
}

impl DimLayout {
    /// Number of SBox dimensions.
    pub fn dims(&self) -> usize {
        self.dim_exprs.len()
    }

    /// Per-aggregate (numerator dim, optional denominator dim).
    pub fn per_agg(&self) -> &[(usize, Option<usize>)] {
        &self.per_agg
    }
}

/// Map aggregate specs onto SBox dimensions, binding their argument
/// expressions against the sampled result's `schema`. `AVG(e)` takes two
/// dimensions, `SUM(e)` over `COUNT(e)` — numerator and denominator of the
/// delta-method ratio, both skipping NULL arguments.
pub fn layout_dims(aggs: &[AggSpec], schema: &sa_storage::Schema) -> Result<DimLayout> {
    let mut per_agg = Vec::with_capacity(aggs.len());
    let mut dim_exprs = Vec::new();
    let mut dim_is_count = Vec::new();
    for a in aggs {
        match a.func {
            AggFunc::Sum => {
                let e = a.expr.as_ref().ok_or_else(|| {
                    ExecError::Unsupported("SUM requires an argument expression".into())
                })?;
                dim_exprs.push(Some(bind(e, schema)?));
                dim_is_count.push(false);
                per_agg.push((dim_exprs.len() - 1, None));
            }
            AggFunc::Count => {
                dim_exprs.push(a.expr.as_ref().map(|e| bind(e, schema)).transpose()?);
                dim_is_count.push(true);
                per_agg.push((dim_exprs.len() - 1, None));
            }
            AggFunc::Avg => {
                let e = a.expr.as_ref().ok_or_else(|| {
                    ExecError::Unsupported("AVG requires an argument expression".into())
                })?;
                // SQL's AVG is SUM(e) / COUNT(e): NULL arguments leave both.
                let bound = bind(e, schema)?;
                dim_exprs.push(Some(bound.clone()));
                dim_is_count.push(false);
                dim_exprs.push(Some(bound));
                dim_is_count.push(true);
                per_agg.push((dim_exprs.len() - 2, Some(dim_exprs.len() - 1)));
            }
        }
    }
    Ok(DimLayout {
        per_agg,
        dim_exprs,
        dim_is_count,
    })
}

/// The per-row aggregate vector `f(t)` of a result row under `layout`,
/// through the row interpreter — the reference [`BatchDimEval::eval`] is
/// tested against; no query path calls it.
pub fn f_vector(layout: &DimLayout, row: &crate::exec::Row) -> Result<Vec<f64>> {
    let mut f = Vec::with_capacity(layout.dim_exprs.len());
    for (e, is_count) in layout.dim_exprs.iter().zip(&layout.dim_is_count) {
        let v = match e {
            None => 1.0, // COUNT(*)
            Some(e) => {
                let val = eval_f64(e, &row.values)?;
                if *is_count {
                    if val.is_some() {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    val.unwrap_or(0.0) // SUM skips NULLs
                }
            }
        };
        f.push(v);
    }
    Ok(f)
}

/// Compiled batch evaluator of a [`DimLayout`]: computes every SBox
/// dimension's `f` column for a whole [`sa_storage::ColumnarBatch`] at once
/// (type-resolved once, no per-row expression dispatch), to feed
/// `MomentAccumulator::push_batch` from [`crate::ChunkStream::next_batch`].
#[derive(Debug)]
pub struct BatchDimEval {
    kernels: Vec<Option<sa_expr::CompiledExpr>>,
    is_count: Vec<bool>,
}

impl DimLayout {
    /// Compile this layout's dimension expressions for batch evaluation
    /// against `schema` (the stream's output schema — the same one the
    /// layout was bound against).
    pub fn compile_batch(&self, schema: &sa_storage::Schema) -> Result<BatchDimEval> {
        let kernels = self
            .dim_exprs
            .iter()
            .map(|e| {
                e.as_ref()
                    .map(|e| sa_expr::compile(e, schema))
                    .transpose()
                    .map_err(ExecError::Expr)
            })
            .collect::<Result<_>>()?;
        Ok(BatchDimEval {
            kernels,
            is_count: self.dim_is_count.clone(),
        })
    }
}

impl BatchDimEval {
    /// Number of SBox dimensions.
    pub fn dims(&self) -> usize {
        self.kernels.len()
    }

    /// The per-dimension `f` columns of a batch (`dims × rows`), with the
    /// exact [`f_vector`] semantics: `COUNT(*)` dims are 1, `COUNT(expr)`
    /// dims (an AVG denominator is one) are the non-null indicator, SUM
    /// dims treat NULL as 0.
    pub fn eval(&self, batch: &sa_storage::ColumnarBatch) -> Result<Vec<Vec<f64>>> {
        let rows = batch.rows();
        let mut out = Vec::with_capacity(self.kernels.len());
        for (k, is_count) in self.kernels.iter().zip(&self.is_count) {
            let col = match k {
                None => vec![1.0; rows], // COUNT(*)
                Some(k) => {
                    let (mut vals, validity) = k.eval_f64(batch).map_err(ExecError::Expr)?;
                    if *is_count {
                        match validity {
                            None => vals.iter_mut().for_each(|v| *v = 1.0),
                            Some(validity) => {
                                for (v, ok) in vals.iter_mut().zip(validity) {
                                    *v = if ok { 1.0 } else { 0.0 };
                                }
                            }
                        }
                    } else if let Some(validity) = validity {
                        for (v, ok) in vals.iter_mut().zip(validity) {
                            if !ok {
                                *v = 0.0; // SUM skips NULLs
                            }
                        }
                    }
                    vals
                }
            };
            out.push(col);
        }
        Ok(out)
    }
}

/// A drained result as the SBox sees it — lineage and `f` columns only,
/// one entry per result tuple.
#[derive(Debug, Clone)]
pub struct DrainedSample {
    /// One lineage id column per base relation.
    pub lineage: Vec<Vec<u64>>,
    /// One `f` column per SBox dimension.
    pub f: Vec<Vec<f64>>,
}

impl DrainedSample {
    /// An empty sample over `relations` base relations and `dims` dimensions.
    pub fn new(relations: usize, dims: usize) -> DrainedSample {
        DrainedSample {
            lineage: vec![Vec::new(); relations],
            f: vec![Vec::new(); dims],
        }
    }

    /// Drain `input` — an aggregate's input, sampled per `opts` — through
    /// the columnar stream and keep what the SBox sees of `aggs`.
    pub fn collect(
        input: &sa_plan::LogicalPlan,
        aggs: &[AggSpec],
        catalog: &sa_storage::Catalog,
        opts: &crate::ExecOptions,
    ) -> Result<DrainedSample> {
        let mut stream = crate::open_stream(input, catalog, opts)?;
        let dim_eval = layout_dims(aggs, stream.schema())?.compile_batch(stream.schema())?;
        let mut sample = DrainedSample::new(stream.relations().len(), dim_eval.dims());
        stream.drain(4096, |chunk| sample.push(&dim_eval, chunk))?;
        Ok(sample)
    }

    /// Number of result tuples held.
    pub fn rows(&self) -> usize {
        self.f.first().map_or(0, Vec::len)
    }

    /// Append one chunk: its lineage columns and `dim_eval`'s `f` columns.
    pub fn push(&mut self, dim_eval: &BatchDimEval, chunk: &crate::ColumnarChunk) -> Result<()> {
        for (all, col) in self.f.iter_mut().zip(dim_eval.eval(&chunk.batch)?) {
            all.extend(col);
        }
        for (all, col) in self.lineage.iter_mut().zip(&chunk.lineage) {
            all.extend_from_slice(col);
        }
        Ok(())
    }
}

/// Turn a (possibly mid-stream) [`EstimateReport`] into per-aggregate
/// results — point estimate, variance, both CI flavours and the `QUANTILE`
/// bound — resolving delta-method `AVG` ratios.
pub fn agg_results_from_report(
    aggs: &[AggSpec],
    layout: &DimLayout,
    report: &EstimateReport,
    confidence: f64,
) -> Vec<AggResult> {
    let level = CiLevel::new(confidence).ok();
    let mut out = Vec::new();
    read_aggs(
        &mut out,
        aggs,
        layout,
        level.as_ref(),
        |d| report.estimate[d],
        |p, q| report.entry(p, q),
    );
    out
}

impl DimLayout {
    /// Read one accumulator slot — seen through the tick's
    /// [`sa_core::ReadoutPlan`] as `slot` — into `out`: the same results
    /// [`agg_results_from_report`] gives for that slot's report, with no
    /// report built. An `out` already holding this `SELECT` list's results
    /// (a previous tick's) has their numbers overwritten in place; an empty
    /// one is filled.
    pub fn read_slot(
        &self,
        aggs: &[AggSpec],
        slot: &SlotReadout<'_>,
        level: &CiLevel,
        out: &mut Vec<AggResult>,
    ) {
        read_aggs(
            out,
            aggs,
            self,
            Some(level),
            |d| slot.estimate(d),
            |p, q| slot.entry(p, q),
        );
    }
}

/// The per-aggregate arithmetic of a readout, whichever route feeds it:
/// `estimate_of(d)` is dimension `d`'s point estimate, `entry(p, q)` the
/// (unclamped) covariance entry with its scale, or `None` when variance is
/// not estimable. A variance is read through [`variance_reading`]: an
/// aggregate any of whose dimensions reads negative beyond rounding keeps
/// its point estimate with no variance and no interval. `AVG` is the
/// delta-method ratio of its two dimensions (NaN with no variance when the
/// ratio cannot be formed); intervals come from `level` (`None`: an invalid
/// confidence, no intervals), the `QUANTILE` bound from its own `Φ⁻¹(q)`.
fn read_aggs(
    out: &mut Vec<AggResult>,
    aggs: &[AggSpec],
    layout: &DimLayout,
    level: Option<&CiLevel>,
    estimate_of: impl Fn(usize) -> f64,
    entry: impl Fn(usize, usize) -> Option<(f64, f64)>,
) {
    if out.len() != aggs.len() {
        out.clear();
        out.extend(aggs.iter().map(|spec| AggResult {
            name: spec.alias.clone(),
            func: spec.func,
            estimate: f64::NAN,
            variance: None,
            ci_normal: None,
            ci_chebyshev: None,
            quantile_bound: None,
        }));
    }
    for ((res, spec), &(num, den)) in out.iter_mut().zip(aggs).zip(&layout.per_agg) {
        let (estimate, variance) = match den {
            None => (
                estimate_of(num),
                entry(num, num).and_then(|(v, scale)| variance_reading(v, scale)),
            ),
            Some(den) => (entry(num, num).zip(entry(num, den)).zip(entry(den, den)))
                .and_then(|(((vn, sn), (cnd, snd)), (vd, sd))| {
                    let mu_d = estimate_of(den);
                    let d = ratio_of((estimate_of(num), mu_d), [vn, cnd, vd]).ok()?;
                    let r = d.value;
                    let scale = (sn + 2.0 * r.abs() * snd + r * r * sd) / (mu_d * mu_d);
                    let readable = variance_reading(vn, sn).and(variance_reading(vd, sd));
                    Some((r, readable.and(variance_reading(d.variance, scale))))
                })
                .unwrap_or((f64::NAN, None)),
        };
        let at_level = level.zip(variance);
        res.estimate = estimate;
        res.variance = variance;
        res.ci_normal = at_level.and_then(|(l, v)| l.normal(estimate, v).ok());
        res.ci_chebyshev = at_level.and_then(|(l, v)| l.chebyshev(estimate, v).ok());
        res.quantile_bound = spec
            .quantile
            .and_then(|q| variance.and_then(|v| sa_core::quantile_bound(estimate, v, q).ok()));
    }
}
