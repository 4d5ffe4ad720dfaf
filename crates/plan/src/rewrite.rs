//! The SOA-equivalence rewriter (Section 4 of the paper).
//!
//! Given a query plan containing sampling operators, derive an
//! SOA-equivalent plan of the special form *single GUS quasi-operator
//! directly below the aggregate*, whose parameters feed Theorem 1. The
//! transformation is **analysis only** — the original plan is what executes;
//! this module just computes the top GUS's `(a, b̄)` by:
//!
//! 1. translating every concrete sampling operator into a GUS quasi-operator
//!    (Section 4.2, the Figure 1 table),
//! 2. inserting identity GUS `G(1,1̄)` over unsampled relations (Prop. 4),
//! 3. commuting GUS with selections unchanged (Prop. 5),
//! 4. merging the GUS of join operands (Prop. 6), and
//! 5. compacting stacked samplers (Prop. 8),
//!
//! working bottom-up exactly as the paper's Figure 4 walk-through. Every
//! application is recorded in a [`RewriteTrace`] so examples and experiments
//! can print the same step-by-step tables as the paper.

use std::fmt;
use std::sync::Arc;

use sa_core::{GusParams, LineageSchema, RelSet};
use sa_sampling::{LineageUnit, SamplingMethod};
use sa_storage::Catalog;

use crate::error::PlanError;
use crate::plan::LogicalPlan;
use crate::Result;

/// Which algebra rule a rewrite step applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Section 4.2: concrete sampling method → GUS quasi-operator.
    TranslateSampling,
    /// Proposition 4: insert `G(1,1̄)` over an unsampled relation.
    IdentityInsertion,
    /// Proposition 5: GUS commutes with selection.
    SelectionCommute,
    /// Proposition 6: GUS operators merge across a join.
    JoinCommute,
    /// Proposition 8: stacked GUS operators compact.
    Compaction,
    /// Proposition 7: union of two independent samples of one expression.
    UnionSamples,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::TranslateSampling => "translate (Sec 4.2)",
            Rule::IdentityInsertion => "identity (Prop 4)",
            Rule::SelectionCommute => "σ-commute (Prop 5)",
            Rule::JoinCommute => "⋈-commute (Prop 6)",
            Rule::Compaction => "compaction (Prop 8)",
            Rule::UnionSamples => "∪-merge (Prop 7)",
        })
    }
}

/// One recorded rewrite step.
#[derive(Debug, Clone)]
pub struct RewriteStep {
    /// The rule applied.
    pub rule: Rule,
    /// Human-readable description (which operators, which relations).
    pub description: String,
    /// The GUS parameters of the affected subtree *after* the step.
    pub gus: GusParams,
}

/// The ordered list of rewrite steps, renderable like the paper's figures.
#[derive(Debug, Clone, Default)]
pub struct RewriteTrace {
    /// Steps in application order (bottom-up, left-to-right).
    pub steps: Vec<RewriteStep>,
}

impl RewriteTrace {
    fn push(&mut self, rule: Rule, description: impl Into<String>, gus: &GusParams) {
        self.steps.push(RewriteStep {
            rule,
            description: description.into(),
            gus: gus.clone(),
        });
    }

    /// Render the trace as numbered lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "{:>2}. {:<22} {}\n",
                i + 1,
                s.rule.to_string(),
                s.description
            ));
        }
        out
    }
}

/// The result of the SOA rewriting: everything the SBox needs.
#[derive(Debug, Clone)]
pub struct SoaAnalysis {
    /// The plan with all sampling operators removed (the relational subtree
    /// that sits below the single top GUS in the SOA-equivalent plan).
    pub core: LogicalPlan,
    /// The single top-level GUS quasi-operator's parameters.
    pub gus: GusParams,
    /// The plan's lineage schema (base-relation aliases in scan order).
    pub schema: Arc<LineageSchema>,
    /// Per-relation lineage granularity (row, or block for `SYSTEM`).
    pub lineage_units: Vec<LineageUnit>,
    /// The applied rewrite steps.
    pub trace: RewriteTrace,
}

impl SoaAnalysis {
    /// Render the top GUS as a parameter table in the style of the paper's
    /// Figure 4/5 coefficient tables.
    pub fn gus_table(&self) -> String {
        render_gus_table(&self.gus)
    }
}

/// Render any GUS parameter set as a `b_T`-per-subset table.
pub fn render_gus_table(gus: &GusParams) -> String {
    let mut out = format!("a = {:.4e}\n", gus.a());
    let n = gus.n();
    for t_idx in 0..1usize << n {
        let t = RelSet::from_bits(t_idx as u32);
        out.push_str(&format!(
            "b{:<12} = {:.4e}\n",
            gus.schema().display_set(t),
            gus.b(t)
        ));
    }
    out
}

/// Rewrite `plan` into its SOA-equivalent single-top-GUS form.
pub fn rewrite(plan: &LogicalPlan, catalog: &Catalog) -> Result<SoaAnalysis> {
    plan.validate(catalog)?;
    let rels = plan.base_relations();
    let schema = LineageSchema::new(&rels)?;
    let lineage_units = lineage_units(plan)?;
    let mut trace = RewriteTrace::default();
    let (core, gus) = analyze(plan, catalog, &schema, &mut trace)?;
    Ok(SoaAnalysis {
        core,
        gus,
        schema,
        lineage_units,
        trace,
    })
}

/// Per-relation lineage granularity, validating that `SYSTEM` sampling is
/// not stacked with row-level sampling (mixed granularities have no GUS
/// representation at either level).
fn lineage_units(plan: &LogicalPlan) -> Result<Vec<LineageUnit>> {
    let per_rel = plan.sampling_per_relation();
    let mut units = Vec::with_capacity(per_rel.len());
    for (rel, stack) in plan.base_relations().iter().zip(&per_rel) {
        let has_system = stack
            .iter()
            .any(|m| matches!(m, SamplingMethod::System { .. }));
        if has_system && stack.len() > 1 {
            return Err(PlanError::Malformed(format!(
                "relation `{rel}` stacks SYSTEM (block-level) sampling with other samplers: \
                 mixed lineage granularity is not a GUS"
            )));
        }
        units.push(if has_system {
            LineageUnit::Block
        } else {
            LineageUnit::Row
        });
    }
    Ok(units)
}

/// Bottom-up analysis: returns the sampling-free core plan of the subtree
/// and its accumulated GUS over the **global** lineage schema.
fn analyze(
    node: &LogicalPlan,
    catalog: &Catalog,
    global: &Arc<LineageSchema>,
    trace: &mut RewriteTrace,
) -> Result<(LogicalPlan, GusParams)> {
    match node {
        LogicalPlan::Scan { table, alias } => {
            let gus = GusParams::identity(global.clone());
            trace.push(
                Rule::IdentityInsertion,
                format!("G(1,1̄) over unsampled relation `{alias}` (table `{table}`)"),
                &gus,
            );
            Ok((node.clone(), gus))
        }
        LogicalPlan::Sample { method, input } => {
            let (core, inner_gus) = analyze(input, catalog, global, trace)?;
            // validate() guarantees the chain below is Sample*/Scan.
            let (alias, table_name) = base_of(input)?;
            let table = catalog.get(table_name)?;
            let local = method.gus(alias, &table)?;
            let embedded = local.embed_by_name(global.clone())?;
            trace.push(
                Rule::TranslateSampling,
                format!(
                    "{method} on `{alias}` → GUS with a={:.4e}, b_∅={:.4e}, b_{{{alias}}}={:.4e}",
                    local.a(),
                    local.b(RelSet::EMPTY),
                    local.b(RelSet::singleton(0)),
                ),
                &embedded,
            );
            let was_sampled = !inner_gus.support().is_empty();
            let gus = inner_gus.compact(&embedded)?;
            if was_sampled {
                trace.push(
                    Rule::Compaction,
                    format!("stacked samplers on `{alias}` compact (Prop 8)"),
                    &gus,
                );
            }
            Ok((core, gus))
        }
        LogicalPlan::Filter { predicate, input } => {
            let (core, gus) = analyze(input, catalog, global, trace)?;
            trace.push(
                Rule::SelectionCommute,
                format!("σ[{predicate}] commutes with GUS unchanged"),
                &gus,
            );
            Ok((
                LogicalPlan::Filter {
                    predicate: predicate.clone(),
                    input: Box::new(core),
                },
                gus,
            ))
        }
        LogicalPlan::Join {
            condition,
            left,
            right,
        } => {
            let (core_l, gus_l) = analyze(left, catalog, global, trace)?;
            let (core_r, gus_r) = analyze(right, catalog, global, trace)?;
            if !gus_l.support().is_disjoint(gus_r.support()) {
                // Unreachable after alias validation, but kept as defense.
                return Err(PlanError::Core(sa_core::CoreError::LineageOverlap {
                    name: "join operands share sampled lineage".into(),
                }));
            }
            let gus = gus_l.compact(&gus_r)?;
            trace.push(
                Rule::JoinCommute,
                format!(
                    "join merges G(a₁={:.3e}) and G(a₂={:.3e}) → a={:.3e}",
                    gus_l.a(),
                    gus_r.a(),
                    gus.a()
                ),
                &gus,
            );
            Ok((
                LogicalPlan::Join {
                    condition: condition.clone(),
                    left: Box::new(core_l),
                    right: Box::new(core_r),
                },
                gus,
            ))
        }
        LogicalPlan::Project { exprs, input } => {
            let (core, gus) = analyze(input, catalog, global, trace)?;
            Ok((
                LogicalPlan::Project {
                    exprs: exprs.clone(),
                    input: Box::new(core),
                },
                gus,
            ))
        }
        LogicalPlan::Aggregate { aggs, input } => {
            let (core, gus) = analyze(input, catalog, global, trace)?;
            Ok((
                LogicalPlan::Aggregate {
                    aggs: aggs.clone(),
                    input: Box::new(core),
                },
                gus,
            ))
        }
        LogicalPlan::UnionSamples { left, right } => {
            let (core_l, gus_l) = analyze(left, catalog, global, trace)?;
            let (_core_r, gus_r) = analyze(right, catalog, global, trace)?;
            // validate() guarantees both branches strip to the same core.
            let gus = gus_l.union(&gus_r)?;
            trace.push(
                Rule::UnionSamples,
                format!(
                    "union of independent samples merges G(a₁={:.3e}) ∪ G(a₂={:.3e}) → a={:.3e}",
                    gus_l.a(),
                    gus_r.a(),
                    gus.a()
                ),
                &gus,
            );
            Ok((core_l, gus))
        }
    }
}

/// The `(alias, table)` of the base relation under a Sample*/Scan chain.
fn base_of(mut node: &LogicalPlan) -> Result<(&str, &str)> {
    loop {
        match node {
            LogicalPlan::Scan { table, alias } => return Ok((alias, table)),
            LogicalPlan::Sample { input, .. } => node = input,
            other => {
                return Err(PlanError::SampleNotOnBaseRelation {
                    subtree: other.node_label(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggSpec;
    use sa_expr::{col, lit};
    use sa_storage::{DataType, Field, Schema, TableBuilder, Value};

    /// Catalog with the paper's cardinalities: orders has 150 000 rows (so
    /// WOR(1000) reproduces Example 2's numbers); others small.
    fn paper_catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, key, rows) in [
            ("lineitem", "l_orderkey", 600u64),
            ("orders", "o_orderkey", 150_000),
            ("customer", "c_custkey", 100),
            ("part", "p_partkey", 100),
        ] {
            let schema = Schema::new(vec![
                Field::new(key, DataType::Int),
                Field::new("v", DataType::Float),
            ])
            .unwrap();
            let mut b = TableBuilder::new(name, schema);
            b.reserve(rows as usize);
            for i in 0..rows {
                b.push_row(&[Value::Int(i as i64), Value::Float(1.0)])
                    .unwrap();
            }
            c.register(b.finish().unwrap()).unwrap();
        }
        c
    }

    fn query1() -> LogicalPlan {
        LogicalPlan::scan("lineitem")
            .sample(SamplingMethod::Bernoulli { p: 0.1 })
            .join_on(
                LogicalPlan::scan("orders").sample(SamplingMethod::Wor { size: 1000 }),
                col("l_orderkey").eq(col("o_orderkey")),
            )
            .aggregate(vec![AggSpec::sum(col("lineitem.v"), "s")])
    }

    #[test]
    fn query1_reproduces_example3_coefficients() {
        // Figure 2 / Example 3 gold numbers.
        let analysis = rewrite(&query1(), &paper_catalog()).unwrap();
        let g = &analysis.gus;
        let b = |names: &[&str]| g.b_named(names).unwrap();
        assert!((g.a() - 6.667e-4).abs() < 1e-7);
        assert!((b(&[]) - 4.44e-7).abs() < 5e-10);
        assert!((b(&["orders"]) - 6.667e-5).abs() < 5e-8);
        assert!((b(&["lineitem"]) - 4.44e-6).abs() < 5e-9);
        assert!((b(&["lineitem", "orders"]) - 6.667e-4).abs() < 1e-7);
        assert!(g.is_proper());
    }

    #[test]
    fn query1_core_plan_has_no_samples() {
        let analysis = rewrite(&query1(), &paper_catalog()).unwrap();
        fn has_sample(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Sample { .. } => true,
                LogicalPlan::Scan { .. } => false,
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Aggregate { input, .. } => has_sample(input),
                LogicalPlan::Join { left, right, .. }
                | LogicalPlan::UnionSamples { left, right } => {
                    has_sample(left) || has_sample(right)
                }
            }
        }
        assert!(!has_sample(&analysis.core));
        // Aggregate is preserved at the root.
        assert!(matches!(analysis.core, LogicalPlan::Aggregate { .. }));
    }

    #[test]
    fn figure4_four_relation_plan() {
        // Example 4: ((B0.1(l) ⋈ W1000(o)) ⋈ c) ⋈ B0.5(p).
        let plan = LogicalPlan::scan("lineitem")
            .sample(SamplingMethod::Bernoulli { p: 0.1 })
            .join_on(
                LogicalPlan::scan("orders").sample(SamplingMethod::Wor { size: 1000 }),
                col("l_orderkey").eq(col("o_orderkey")),
            )
            .join_on(LogicalPlan::scan("customer"), lit(true))
            .join_on(
                LogicalPlan::scan("part").sample(SamplingMethod::Bernoulli { p: 0.5 }),
                lit(true),
            )
            .aggregate(vec![AggSpec::sum(col("lineitem.v"), "s")]);
        let analysis = rewrite(&plan, &paper_catalog()).unwrap();
        let g = &analysis.gus;
        let b = |names: &[&str]| g.b_named(names).unwrap();
        // Figure 4's G(a₁₂₃) table (paper prints 4 significant digits).
        assert!((g.a() - 3.334e-4).abs() < 1e-7);
        assert!((b(&[]) - 1.11e-7).abs() < 1e-9);
        assert!((b(&["part"]) - 2.22e-7).abs() < 2e-9);
        assert!((b(&["customer"]) - 1.11e-7).abs() < 1e-9);
        assert!((b(&["customer", "part"]) - 2.22e-7).abs() < 2e-9);
        assert!((b(&["orders"]) - 1.667e-5).abs() < 2e-8);
        assert!((b(&["orders", "part"]) - 3.335e-5).abs() < 4e-8);
        assert!((b(&["orders", "customer"]) - 1.667e-5).abs() < 2e-8);
        assert!((b(&["orders", "customer", "part"]) - 3.335e-5).abs() < 4e-8);
        assert!((b(&["lineitem"]) - 1.11e-6).abs() < 2e-9);
        assert!((b(&["lineitem", "part"]) - 2.22e-6).abs() < 4e-9);
        assert!((b(&["lineitem", "customer"]) - 1.11e-6).abs() < 2e-9);
        assert!((b(&["lineitem", "customer", "part"]) - 2.22e-6).abs() < 4e-9);
        assert!((b(&["lineitem", "orders"]) - 1.667e-4).abs() < 2e-7);
        assert!((b(&["lineitem", "orders", "part"]) - 3.334e-4).abs() < 4e-7);
        assert!((b(&["lineitem", "orders", "customer"]) - 1.667e-4).abs() < 2e-7);
        assert!((b(&["lineitem", "orders", "customer", "part"]) - 3.334e-4).abs() < 4e-7);
        assert!(g.is_proper());
    }

    #[test]
    fn unsampled_plan_gets_identity_gus() {
        let plan = LogicalPlan::scan("lineitem")
            .join_on(
                LogicalPlan::scan("orders"),
                col("l_orderkey").eq(col("o_orderkey")),
            )
            .aggregate(vec![AggSpec::count_star("c")]);
        let analysis = rewrite(&plan, &paper_catalog()).unwrap();
        assert!((analysis.gus.a() - 1.0).abs() < 1e-12);
        assert!(analysis.gus.support().is_empty());
    }

    #[test]
    fn stacked_bernoulli_compacts() {
        let plan = LogicalPlan::scan("lineitem")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .aggregate(vec![AggSpec::count_star("c")]);
        let analysis = rewrite(&plan, &paper_catalog()).unwrap();
        assert!((analysis.gus.a() - 0.2).abs() < 1e-12);
        assert!((analysis.gus.b_named::<&str>(&[]).unwrap() - 0.04).abs() < 1e-12);
        assert!(analysis
            .trace
            .steps
            .iter()
            .any(|s| s.rule == Rule::Compaction));
    }

    #[test]
    fn selection_does_not_change_gus() {
        let plan = LogicalPlan::scan("lineitem")
            .sample(SamplingMethod::Bernoulli { p: 0.3 })
            .filter(col("v").gt(lit(0.5)))
            .aggregate(vec![AggSpec::sum(col("v"), "s")]);
        let analysis = rewrite(&plan, &paper_catalog()).unwrap();
        let direct = GusParams::bernoulli("lineitem", 0.3).unwrap();
        assert!((analysis.gus.a() - direct.a()).abs() < 1e-12);
        assert!(analysis
            .trace
            .steps
            .iter()
            .any(|s| s.rule == Rule::SelectionCommute));
    }

    #[test]
    fn system_sampling_uses_block_lineage() {
        let plan = LogicalPlan::scan("lineitem")
            .sample(SamplingMethod::System { p: 0.25 })
            .aggregate(vec![AggSpec::count_star("c")]);
        let analysis = rewrite(&plan, &paper_catalog()).unwrap();
        assert_eq!(analysis.lineage_units, vec![LineageUnit::Block]);
        assert!((analysis.gus.a() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn system_stacked_with_row_sampler_rejected() {
        let plan = LogicalPlan::scan("lineitem")
            .sample(SamplingMethod::System { p: 0.25 })
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .aggregate(vec![AggSpec::count_star("c")]);
        assert!(matches!(
            rewrite(&plan, &paper_catalog()),
            Err(PlanError::Malformed(_))
        ));
    }

    #[test]
    fn trace_records_all_rules_for_query1() {
        let analysis = rewrite(&query1(), &paper_catalog()).unwrap();
        let rules: Vec<Rule> = analysis.trace.steps.iter().map(|s| s.rule).collect();
        assert!(rules.contains(&Rule::TranslateSampling));
        assert!(rules.contains(&Rule::JoinCommute));
        let rendered = analysis.trace.render();
        assert!(rendered.contains("B0.1"), "{rendered}");
        assert!(rendered.contains("WOR1000"), "{rendered}");
    }

    #[test]
    fn gus_table_renders_all_subsets() {
        let analysis = rewrite(&query1(), &paper_catalog()).unwrap();
        let table = analysis.gus_table();
        assert!(table.contains("a = 6.6"), "{table}");
        assert!(table.contains("b{lineitem,orders}"), "{table}");
        // 2 relations -> 4 b-rows + a row.
        assert_eq!(table.lines().count(), 5);
    }

    #[test]
    fn rewriter_scales_to_ten_relations() {
        // The paper's claim: "this process need not take more than a few
        // milliseconds even for plans involving 10 relations".
        let mut c = Catalog::new();
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]).unwrap();
        for i in 0..10 {
            let mut b = TableBuilder::new(format!("r{i}"), schema.clone());
            for j in 0..100 {
                b.push_row(&[Value::Int(j)]).unwrap();
            }
            c.register(b.finish().unwrap()).unwrap();
        }
        let mut plan = LogicalPlan::scan("r0").sample(SamplingMethod::Bernoulli { p: 0.5 });
        for i in 1..10 {
            plan = plan.join_on(
                LogicalPlan::scan(format!("r{i}")).sample(SamplingMethod::Bernoulli { p: 0.5 }),
                lit(true),
            );
        }
        let plan = plan.aggregate(vec![AggSpec::count_star("c")]);
        let t0 = std::time::Instant::now();
        let analysis = rewrite(&plan, &c).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(analysis.schema.n(), 10);
        assert!((analysis.gus.a() - 0.5f64.powi(10)).abs() < 1e-12);
        // Generous bound (debug builds); release is far faster.
        assert!(elapsed.as_millis() < 2000, "rewrite took {elapsed:?}");
    }
}
