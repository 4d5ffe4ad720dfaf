//! # sa-baselines — the estimators the paper argues against (and with)
//!
//! The related-work section of the paper motivates GUS by the failure of
//! simpler analyses on joins. This crate implements those comparison points
//! so the evaluation can demonstrate the failure concretely:
//!
//! * [`naive_clt`] — treat the result tuples as independently included with
//!   probability `a` and apply the CLT. Correct for a single
//!   Bernoulli-sampled table (it coincides with the GUS formula there) but
//!   **ignores the correlation joins induce** ("if t is not selected,
//!   neither result tuple can exist"), so its intervals under-cover on
//!   multi-table queries.
//! * [`bootstrap`] — resample the result tuples with replacement and take
//!   percentile intervals; equally blind to join correlation.
//! * [`oracle_variance`] — the *true* Theorem-1 variance computed from the
//!   full population (drain the sampling-free plan, accumulate exact
//!   `y_S`, apply the GUS coefficients). The gold standard coverage
//!   experiments calibrate against.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sa_core::{exact_variance, normal_ci, ConfidenceInterval, MomentAccumulator};
use sa_exec::{DrainedSample, ExecOptions};
use sa_online::{Engine, QueryResult};
use sa_plan::{rewrite, AggFunc, AggSpec, LogicalPlan};
use sa_storage::Catalog;

/// Seed tweak for the bootstrap's own RNG stream.
const BOOTSTRAP_SEED_SALT: u64 = 0xb001_57ab_1e5e_ed00;

/// Result of a baseline estimator.
#[derive(Debug, Clone)]
pub struct BaselineEstimate {
    /// Point estimate of the aggregate.
    pub estimate: f64,
    /// The method's (possibly wrong) variance belief.
    pub variance: f64,
    /// The method's confidence interval.
    pub ci: ConfidenceInterval,
}

/// Naive IID-CLT estimate from the sampled result's `f` values under
/// first-order inclusion probability `a`.
///
/// `X = (1/a)Σf`; pretending inclusions are independent Bernoulli(a) gives
/// `V̂ar = (1−a)/a² · Σ_sample f²`.
pub fn naive_clt(fs: &[f64], a: f64, level: f64) -> sa_core::Result<BaselineEstimate> {
    if a <= 0.0 || a > 1.0 {
        return Err(sa_core::CoreError::InvalidParam(format!(
            "inclusion probability a = {a}"
        )));
    }
    let total: f64 = fs.iter().sum();
    let estimate = total / a;
    let sum_sq: f64 = fs.iter().map(|f| f * f).sum();
    let variance = (1.0 - a) / (a * a) * sum_sq;
    let ci = normal_ci(estimate, variance, level)?;
    Ok(BaselineEstimate {
        estimate,
        variance,
        ci,
    })
}

/// Bootstrap percentile interval: resample the result tuples with
/// replacement `resamples` times, re-estimate `(1/a)Σf`, and take the
/// empirical `(1±level)/2` quantiles.
pub fn bootstrap(
    fs: &[f64],
    a: f64,
    level: f64,
    resamples: u32,
    seed: u64,
) -> sa_core::Result<BaselineEstimate> {
    if a <= 0.0 || a > 1.0 {
        return Err(sa_core::CoreError::InvalidParam(format!(
            "inclusion probability a = {a}"
        )));
    }
    if !(0.0 < level && level < 1.0) {
        return Err(sa_core::CoreError::InvalidParam(format!(
            "confidence level {level}"
        )));
    }
    let total: f64 = fs.iter().sum();
    let estimate = total / a;
    if fs.is_empty() {
        let ci = normal_ci(0.0, 0.0, level)?;
        return Ok(BaselineEstimate {
            estimate: 0.0,
            variance: 0.0,
            ci,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = Vec::with_capacity(resamples as usize);
    for _ in 0..resamples {
        let mut s = 0.0;
        for _ in 0..fs.len() {
            s += fs[rng.random_range(0..fs.len())];
        }
        stats.push(s / a);
    }
    stats.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
    let lo_idx = (((1.0 - level) / 2.0) * (resamples as f64 - 1.0)).round() as usize;
    let hi_idx = (((1.0 + level) / 2.0) * (resamples as f64 - 1.0)).round() as usize;
    let mean: f64 = stats.iter().sum::<f64>() / stats.len() as f64;
    let variance: f64 =
        stats.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / stats.len() as f64;
    Ok(BaselineEstimate {
        estimate,
        variance,
        ci: ConfidenceInterval {
            lo: stats[lo_idx],
            hi: stats[hi_idx],
            level,
            method: sa_core::CiMethod::Normal,
        },
    })
}

/// The exact Theorem-1 variance of the plan's estimator, computed from the
/// full population (no sampling executed). The first aggregate must be
/// `SUM`/`COUNT`.
pub fn oracle_variance(plan: &LogicalPlan, catalog: &Catalog) -> sa_exec::Result<f64> {
    let analysis = rewrite(plan, catalog)?;
    let LogicalPlan::Aggregate { aggs, input } = &analysis.core else {
        return Err(sa_exec::ExecError::Unsupported(
            "oracle_variance requires an aggregate plan".into(),
        ));
    };
    let spec = aggs
        .first()
        .ok_or_else(|| sa_exec::ExecError::Unsupported("no aggregates".into()))?;
    if spec.func == AggFunc::Avg {
        return Err(sa_exec::ExecError::Unsupported(
            "oracle variance for AVG is a delta-method quantity; use SUM/COUNT".into(),
        ));
    }
    let (lineage, f) = drain_first_agg(input, spec, catalog, 0)?;
    let mut acc = MomentAccumulator::new(analysis.schema.n(), 1);
    let lineage: Vec<&[u64]> = lineage.iter().map(Vec::as_slice).collect();
    acc.push_batch(&lineage, &[&f])
        .map_err(sa_exec::ExecError::Core)?;
    Ok(exact_variance(&analysis.gus, &acc.snapshot(), 0))
}

/// What the SBox sees of `spec` over `input` (an aggregate's input, sampled
/// per `seed`): the lineage columns and the `f` column (for `AVG`, its
/// numerator).
fn drain_first_agg(
    input: &LogicalPlan,
    spec: &AggSpec,
    catalog: &Catalog,
    seed: u64,
) -> sa_exec::Result<(Vec<Vec<u64>>, Vec<f64>)> {
    let opts = ExecOptions {
        seed,
        ..Default::default()
    };
    let mut sample = DrainedSample::collect(input, std::slice::from_ref(spec), catalog, &opts)?;
    Ok((sample.lineage, sample.f.swap_remove(0)))
}

/// One head-to-head run of all estimators on the same sampled execution.
#[derive(Debug, Clone)]
pub struct ComparisonRun {
    /// Ground-truth answer (sampling-free execution).
    pub exact: f64,
    /// The GUS/SBox estimate and interval.
    pub gus: sa_exec::AggResult,
    /// Naive IID-CLT baseline.
    pub naive: BaselineEstimate,
    /// Bootstrap percentile baseline.
    pub bootstrap: BaselineEstimate,
    /// True Theorem-1 variance (oracle).
    pub oracle_variance: f64,
}

/// Run GUS, naive CLT and bootstrap on the *same* sampled execution of
/// `plan` (first aggregate only), plus the exact answer and oracle variance.
pub fn compare_estimators(
    plan: &LogicalPlan,
    catalog: &Catalog,
    seed: u64,
    level: f64,
    bootstrap_resamples: u32,
) -> sa_online::Result<ComparisonRun> {
    let LogicalPlan::Aggregate { aggs, input } = plan else {
        return Err(sa_online::Error::Unsupported(
            "comparison requires an aggregate plan".into(),
        ));
    };
    let session = Engine::new(catalog.clone()).session();
    let query = || session.query_plan(plan).seed(seed).confidence(level);
    let approx = query().batch()?;
    let a = approx.analysis.gus.a();
    let exact = query().exact()?;
    let first = |r: &QueryResult| {
        let s = r.snapshot.as_scalar().expect("no GROUP BY keys were given");
        s.aggs[0].clone()
    };

    // The stream is deterministic in the seed: draining it again yields the
    // very tuples the batch estimate saw, as raw f values for the baselines.
    let (_, fs) = drain_first_agg(input, &aggs[0], catalog, seed)?;
    let naive = naive_clt(&fs, a, level)?;
    let boot = bootstrap(
        &fs,
        a,
        level,
        bootstrap_resamples,
        seed ^ BOOTSTRAP_SEED_SALT,
    )?;
    Ok(ComparisonRun {
        exact: first(&exact).estimate,
        gus: first(&approx),
        naive,
        bootstrap: boot,
        oracle_variance: oracle_variance(plan, catalog)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_expr::col;
    use sa_plan::AggSpec;
    use sa_sampling::SamplingMethod;
    use sa_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..500 {
            b.push_row(&[Value::Int(i % 50), Value::Float(1.0 + (i % 7) as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        // Dimension table: each k joins 4 rows (fan-out causes correlation).
        let schema = Schema::new(vec![
            Field::new("dk", DataType::Int),
            Field::new("w", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("d", schema);
        for i in 0..200 {
            b.push_row(&[Value::Int(i % 50), Value::Float(2.0)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    #[test]
    fn naive_matches_gus_on_single_bernoulli_table() {
        // For one Bernoulli table the naive analysis IS the GUS analysis.
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.3 })
            .aggregate(vec![AggSpec::sum(col("v"), "s")]);
        let run = compare_estimators(&plan, &catalog(), 5, 0.95, 200).unwrap();
        let gus_var = run.gus.variance.unwrap();
        assert!(
            (run.naive.variance - gus_var).abs() < 1e-6 * gus_var.max(1.0),
            "naive {} vs gus {}",
            run.naive.variance,
            gus_var
        );
    }

    #[test]
    fn naive_underestimates_variance_on_joins() {
        // Sampling t then joining d (fan-out 4): result tuples sharing a t
        // tuple are perfectly correlated; naive treats them as independent
        // and underestimates.
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.3 })
            .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")))
            .aggregate(vec![AggSpec::sum(col("w"), "s")]);
        let cat = catalog();
        let run = compare_estimators(&plan, &cat, 5, 0.95, 200).unwrap();
        // Oracle (true) variance exceeds the naive belief substantially.
        assert!(
            run.oracle_variance > 2.0 * run.naive.variance,
            "oracle {} vs naive {}",
            run.oracle_variance,
            run.naive.variance
        );
        // And the GUS estimate tracks the oracle much better (within 3× on
        // a single draw).
        let gus_var = run.gus.variance.unwrap();
        assert!(
            gus_var > run.oracle_variance / 3.0 && gus_var < run.oracle_variance * 3.0,
            "gus {} vs oracle {}",
            gus_var,
            run.oracle_variance
        );
    }

    #[test]
    fn oracle_matches_closed_form_single_table() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.2 })
            .aggregate(vec![AggSpec::sum(col("v"), "s")]);
        let cat = catalog();
        let v = oracle_variance(&plan, &cat).unwrap();
        // ((1−p)/p)·Σf² over the population.
        let t = cat.get("t").unwrap();
        let col_v = t.schema().index_of("t.v").unwrap();
        let sum_sq: f64 = (0..t.row_count())
            .map(|r| {
                let f = t.value(r, col_v).unwrap().as_f64().unwrap();
                f * f
            })
            .sum();
        let expect = 0.8 / 0.2 * sum_sq;
        assert!((v - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn bootstrap_interval_contains_its_estimate() {
        let fs: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        let b = bootstrap(&fs, 0.5, 0.95, 500, 7).unwrap();
        assert!(b.ci.lo <= b.estimate && b.estimate <= b.ci.hi);
        assert!(b.variance > 0.0);
    }

    #[test]
    fn bootstrap_empty_sample() {
        let b = bootstrap(&[], 0.5, 0.95, 100, 0).unwrap();
        assert_eq!(b.estimate, 0.0);
        assert_eq!(b.ci.width(), 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(naive_clt(&[1.0], 0.0, 0.95).is_err());
        assert!(naive_clt(&[1.0], 1.5, 0.95).is_err());
        assert!(bootstrap(&[1.0], 0.5, 1.5, 10, 0).is_err());
    }

    #[test]
    fn oracle_avg_unsupported() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .aggregate(vec![AggSpec::avg(col("v"), "a")]);
        assert!(oracle_variance(&plan, &catalog()).is_err());
    }
}
