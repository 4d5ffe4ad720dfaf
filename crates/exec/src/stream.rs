//! Chunked, pull-based plan execution — the one executor queries run on.
//!
//! An online-aggregation consumer wants the first tuples of the sampled
//! result immediately, an estimate after every chunk, and the right to stop
//! early; a batch consumer wants the same tuples, all of them. Both get
//! them here: [`open_stream`] compiles a (non-aggregate) plan into a small
//! Volcano-style operator tree that yields result tuples a chunk at a time
//! — with full per-base-relation lineage, identical in content to what the
//! row-at-a-time reference executor ([`crate::execute`]) produces.
//!
//! ## Columnar batches
//!
//! Operators exchange [`ColumnarChunk`]s — typed column vectors gathered
//! straight from `sa-storage` columns plus per-relation lineage columns —
//! and evaluate filters/projections through `sa-expr`'s *compiled*
//! expressions ([`sa_expr::compile()`]): type dispatch happens once at open,
//! per-chunk work is tight loops over `i64`/`f64`/`bool`/dictionary-code
//! slices, and no per-row `Vec<Value>` is allocated on the hot path. A
//! `Filter` directly on a scan fuses into its gather. A join keys its hash
//! table by the one key kernel's fingerprint of the equi-key cells
//! ([`crate::key_fingerprint`]) and checks each candidate's stored key
//! ([`crate::keys_eq`]), so a fingerprint collision can never produce a
//! wrong join; a join without equi-keys is the one-bucket case of the same
//! operator. [`ChunkStream::next_batch`] exposes the columnar chunks;
//! [`ChunkStream::next_chunk`] is a thin adapter that materializes
//! [`Row`]s for row-at-a-time consumers.
//!
//! ## One scan node, one coverage walk
//!
//! Every scan is the same leaf: an ordered list of block-aligned row ranges
//! and a cursor. The physical scan is the one range of its slice;
//! [`crate::ExecOptions::shuffle_scan`] visits the slice's blocks in a
//! seeded random order; a stream opened on a shared hub
//! ([`open_shared_stream`]) visits the rotation `[o, N)`, `[0, o)` from the
//! hub's head `o` and has its rows served off the hub's bus instead of
//! gathered from the table. It is the same node each time, with another
//! list or another row source, so pushdown, partitioning and coverage
//! cannot differ between them. Coverage — how
//! much of each relation has had its chance to reach the output, the
//! WOR(k, N) prefix that Proposition 8 compacts onto the plan's GUS — is
//! one recursion over the operators ([`ChunkStream::progress`]). `SYSTEM`
//! reads its block coverage off the ranges the scan actually visited, so it
//! is right in any visit order.
//!
//! ## A sample is a set
//!
//! Every sampler is its [`Keep`], a predicate on its relation's sampling
//! unit drawn at open ([`sa_sampling::SamplingMethod::keep`]): Bernoulli
//! keeps a row, and `SYSTEM` a block, iff its coin under the operator's
//! seed comes up; WOR keeps the row ids it drew at open. Each scan runs its
//! relation's stacked samplers on the row ids of the range it is about to
//! read, before it gathers a column, so the realized sample is a pure
//! function of `(plan, seed)`: not of the worker count or slice boundaries,
//! the scan order, a hub's attach origin or the chunk size. A pushed-down
//! predicate then sees only the rows the samplers kept (Proposition 5: a
//! GUS commutes with selection).
//!
//! `UnionSamples` runs in one pass over the expression its branches share:
//! each scan keeps the rows some branch keeps, which decides a union over
//! one relation; a union spanning several relations also judges each whole
//! tuple, which is in the union iff one branch keeps every component of its
//! lineage (Proposition 7). No set of seen lineages is kept, so a union
//! partitions like any other plan.
//!
//! Scans, samplers, filters and projections stream; a join materializes
//! its **build** (right) side at open — by draining that subtree through
//! this same operator tree — and streams the probe side through it: the
//! classic streaming hash join.
//!
//! Randomness: every sampler's seed is drawn at open from a master RNG
//! seeded with [`crate::ExecOptions::seed`], one per operator in plan
//! traversal order; the shuffle's permutations derive from the seed apart
//! from it, so turning the shuffle on moves no sampler's seed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sa_core::hash::{splitmix64, FxHashMap};
use sa_core::RelSet;
use sa_expr::{bind, compile, CompiledExpr};
use sa_plan::{LogicalPlan, ScanColumnMap};
use sa_sampling::{Keep, LineageUnit};
use sa_storage::{Catalog, ColumnVec, ColumnarBatch, Schema, SchemaRef, Table};

use crate::columnar::{key_fingerprint, keys_eq, ColumnarChunk};
use crate::error::ExecError;
use crate::exec::{base_table, scan_schema, split_join_condition, ExecOptions, Row, ScanObs};
use crate::shared::{SharedScanCursor, SharedTableScan};
use crate::Result;

/// A chunked executor over a (non-aggregate) plan. Obtained from
/// [`open_stream`]; columnar chunks come out of [`ChunkStream::next_batch`]
/// (and materialized rows out of the [`ChunkStream::next_chunk`] adapter).
#[derive(Debug)]
pub struct ChunkStream {
    schema: SchemaRef,
    relations: Vec<String>,
    root: Node,
    rows_out: u64,
}

impl ChunkStream {
    /// Output schema of the streamed rows.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Base-relation aliases aligned with each row's lineage.
    pub fn relations(&self) -> &[String] {
        &self.relations
    }

    /// Total rows yielded so far.
    pub fn rows_yielded(&self) -> u64 {
        self.rows_out
    }

    /// Pull the next columnar chunk of roughly `hint` rows (operators may
    /// over- or under-fill; a join chunk, e.g., carries every match of its
    /// probe rows). An **empty chunk means the stream is exhausted** —
    /// operators keep pulling internally until they can either emit a row
    /// or prove there are none left.
    pub fn next_batch(&mut self, hint: usize) -> Result<ColumnarChunk> {
        let hint = hint.max(1);
        let chunk = self.root.next_batch(hint)?;
        self.rows_out += chunk.rows() as u64;
        Ok(chunk)
    }

    /// Row-at-a-time adapter over [`ChunkStream::next_batch`]: the same
    /// tuples, materialized as [`Row`]s.
    pub fn next_chunk(&mut self, hint: usize) -> Result<Vec<Row>> {
        Ok(self.next_batch(hint)?.to_rows())
    }

    /// Per-relation **coverage** of the stream so far, aligned with
    /// [`ChunkStream::relations`]: `(consumed, available)` sampling units of
    /// each base relation whose tuples have had the chance to reach the
    /// output yet. A scan that has consumed `k` of its `N` rows reports
    /// `(k, N)`, whatever its samplers keep of them; a join's build side,
    /// materialized at open, reports complete coverage; `SYSTEM`-sampled
    /// relations count blocks (their sampling/lineage unit).
    ///
    /// Online aggregation uses this to scale mid-stream estimates to the
    /// full population: under a random scan order, the consumed prefix is a
    /// WOR(`consumed`, `available`) sample of the relation, independent of
    /// every sampler's keep predicate, which compacts onto the plan's GUS
    /// (Proposition 8). A union's one pass shares one prefix per relation,
    /// so this holds for unions too.
    pub fn progress(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.relations.len());
        self.root.progress(&mut out);
        debug_assert_eq!(out.len(), self.relations.len());
        out
    }

    /// The minimal sets of the family of relation subsets on which the
    /// stream's tuples are **distinct** — no two tuples, across every
    /// worker stream of one open, share their projected lineage — as bit
    /// sets over [`ChunkStream::relations`]. A stream distinct on `S` is
    /// distinct on every superset of it. A scan with row lineage is
    /// distinct on its relation, `SYSTEM`'s block lineage on nothing; a
    /// filter, projection, sampler or union of samples keeps its input's
    /// family; a join is distinct on `A ∪ B` for a set `A` of its probe
    /// side's family and `B` of its build side's, and a hash join whose
    /// build keys are unique also on the probe side's own sets. Workers
    /// share each build, so every stream of one open reports one family:
    /// what `sa_core::MomentAccumulator::with_lineage` is promised.
    pub fn distinct(&self) -> Vec<RelSet> {
        self.root.distinct()
    }

    /// Pull the stream dry, `hint` rows at a time, handing every non-empty
    /// chunk to `sink` — the one drain loop behind the batch terminal, the
    /// baselines and [`ChunkStream::collect_rows`].
    pub fn drain<E: From<ExecError>>(
        &mut self,
        hint: usize,
        mut sink: impl FnMut(&ColumnarChunk) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        loop {
            let chunk = self.next_batch(hint)?;
            if chunk.is_empty() {
                return Ok(());
            }
            sink(&chunk)?;
        }
    }

    /// Drain the stream into one vector (testing / fallback convenience).
    pub fn collect_rows(mut self, hint: usize) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        self.drain(hint, |chunk| {
            out.extend(chunk.to_rows());
            Ok::<(), ExecError>(())
        })?;
        Ok(out)
    }
}

/// Compile `plan` into a pull-based [`ChunkStream`]. The plan must not
/// contain an `Aggregate` node — the online driver aggregates incrementally
/// on top of the stream (pass the aggregate's *input* subtree).
pub fn open_stream(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> Result<ChunkStream> {
    let mut streams = open_stream_partitioned(plan, catalog, opts, 1)?;
    Ok(streams.pop().expect("one partition yields one stream"))
}

/// Compile `plan` into `parts` [`ChunkStream`]s over **disjoint,
/// deterministic slices** of the sampled data, for shard-parallel online
/// aggregation (`sa-online` drives one worker thread per stream).
///
/// The streaming **scan spine** is split into `parts` contiguous,
/// block-aligned row slices (block alignment keeps `SYSTEM` blocks whole
/// per worker), so summed per-worker [`ChunkStream::progress`] is a true
/// per-relation `(consumed, available)` coverage and the Prop-8 prefix
/// compaction keeps working. Samplers keep rows by functions of their ids
/// drawn once at open, and join build sides are materialized once and
/// shared behind `Arc`: the workers stream exactly the tuples of
/// [`open_stream`], unions included, cut at the slice boundaries — and in
/// its order, concatenated by worker index, unless the scan is shuffled.
///
/// With [`ExecOptions::shuffle_scan`] set, each worker visits its own
/// block slice in a seeded random order (slices stay disjoint, coverage
/// still sums); the permutation is fixed by `(seed, parts, worker)`.
/// `parts == 1` IS the sequential stream ([`open_stream`] delegates here).
pub fn open_stream_partitioned(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    parts: usize,
) -> Result<Vec<ChunkStream>> {
    if parts == 0 {
        return Err(ExecError::Unsupported(
            "open_stream_partitioned needs at least one partition".into(),
        ));
    }
    open(plan, catalog, opts, parts, None)
}

/// The `(table, alias)` of `plan`'s spine scan: the scan its stream reads
/// outside every join's build side — the left input all the way down.
fn spine_scan(plan: &LogicalPlan) -> (&str, &str) {
    match plan {
        LogicalPlan::Scan { table, alias } => (table, alias),
        LogicalPlan::Sample { input, .. }
        | LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Join { left: input, .. }
        | LogicalPlan::UnionSamples { left: input, .. } => spine_scan(input),
    }
}

/// The table of `plan`'s spine scan — the scan [`open_shared_stream`] has a
/// hub serve — and the table-schema column indices it gathers under `map`'s
/// analysis (`None` = every column): what a hub manager needs to pick or
/// create a covering [`SharedTableScan`]. Mirrors the pruning the stream
/// build performs, so the attach can never be rejected for missing columns.
pub fn shared_scan_needs<'p>(
    plan: &'p LogicalPlan,
    catalog: &Catalog,
    map: &ScanColumnMap,
) -> Result<(&'p str, Option<Vec<usize>>)> {
    let (table, alias) = spine_scan(plan);
    let (_, schema) = scan_schema(catalog, table, alias)?;
    Ok((table, map.project_indices(alias, &schema)))
}

/// [`open_stream`] with `scan` serving the rows of the plan's spine scan —
/// one revolution from the hub's head, sharing the gather work with every
/// other cursor on the hub (see [`SharedTableScan`]). Every other scan, a
/// join's build side included, stays private. The realized sample, the
/// compiled expressions and the fused operators are [`open_stream`]'s; only
/// the order rows arrive in differs. The hub must be over the spine's table,
/// and a shuffled scan cannot ride it (its gather order is shared state).
pub fn open_shared_stream(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    scan: &Arc<SharedTableScan>,
) -> Result<ChunkStream> {
    Ok(open(plan, catalog, opts, 1, Some(scan))?
        .pop()
        .expect("one partition yields one stream"))
}

/// A relation's stacked samplers: a unit survives iff every one keeps it.
type Stack = Vec<Keep>;

/// What a plan keeps of its whole lineage: the tuples for which, in some
/// branch, every lineage column's stack keeps its id — Proposition 7's
/// union ORs branches, a join (Proposition 6) and stacked samplers
/// (Proposition 8) AND what they keep.
#[derive(Debug)]
pub(crate) struct Keeps {
    /// Per branch, one stack per lineage column.
    branches: Vec<Vec<Stack>>,
}

impl Keeps {
    /// Which tuples of `lineage` (one id column per relation) are kept.
    pub(crate) fn mask(&self, lineage: &[Vec<u64>]) -> Vec<bool> {
        let rows = lineage.first().map_or(0, Vec::len);
        let branch = |stacks: &Vec<Stack>| {
            let mut mask = vec![true; rows];
            for (stack, ids) in stacks.iter().zip(lineage) {
                for keep in stack {
                    keep.narrow(ids, &mut mask);
                }
            }
            mask
        };
        let (first, rest) = self.branches.split_first().expect("a design has a branch");
        let mut out = branch(first);
        for stacks in rest {
            for (o, m) in out.iter_mut().zip(branch(stacks)) {
                *o |= m;
            }
        }
        out
    }
}

/// A plan's samplers, drawn at open by [`design`]: what the plan keeps of
/// its whole lineage, and what the build needs to hand each relation's
/// scan its share of it.
pub(crate) struct Design {
    /// [`Keeps::branches`] over the plan's relations, in scan order.
    branches: Vec<Vec<Stack>>,
    /// Per relation, [`ScanSampler::block_rows`] of its scan's sampler.
    units: Vec<Option<u64>>,
    /// Some union spans several relations, so the per-relation ORs its
    /// scans apply admit tuples no one branch keeps whole.
    spans: bool,
}

impl Design {
    /// What the plan keeps, judged on each tuple's whole lineage.
    pub(crate) fn whole(self) -> Keeps {
        Keeps {
            branches: self.branches,
        }
    }
}

/// Draw `plan`'s samplers from `seed` — what both executors keep: the
/// stream at its scans, the row oracle ([`crate::execute`]) at its root.
pub(crate) fn design(plan: &LogicalPlan, catalog: &Catalog, seed: u64) -> Result<Design> {
    draw(plan, catalog, &mut StdRng::seed_from_u64(seed))
}

/// One seed per sampler off `master`, in plan traversal order (a join's
/// build side off a seed of its own), each handed to
/// [`sa_sampling::SamplingMethod::keep`].
fn draw(plan: &LogicalPlan, catalog: &Catalog, master: &mut StdRng) -> Result<Design> {
    match plan {
        LogicalPlan::Scan { .. } => Ok(Design {
            branches: vec![vec![Vec::new()]],
            units: vec![None],
            spans: false,
        }),
        LogicalPlan::Sample { method, input } => {
            let table = base_table(input, catalog)?;
            // Validation puts WOR straight on its scan, so the positions
            // it draws out of the table's rows are row ids.
            let keep = method.keep(master.random(), &table)?;
            let unit =
                (method.lineage_unit() == LineageUnit::Block).then(|| table.block_rows() as u64);
            // A sampler sits on a Sample*/Scan chain: one branch, one relation.
            let mut d = draw(input, catalog, master)?;
            let stack = &mut d.branches[0][0];
            stack.push(keep);
            d.units[0] = d.units[0].or(unit);
            if d.units[0].is_some() && stack.len() > 1 {
                return Err(ExecError::Unsupported(
                    "SYSTEM (block-level) sampling stacked with another sampler on one \
                     relation mixes lineage units: it is not a GUS"
                        .into(),
                ));
            }
            Ok(d)
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. } => draw(input, catalog, master),
        LogicalPlan::Join { left, right, .. } => {
            let l = draw(left, catalog, master)?;
            let r = draw(right, catalog, &mut StdRng::seed_from_u64(master.random()))?;
            Ok(Design {
                branches: l
                    .branches
                    .iter()
                    .flat_map(|a| r.branches.iter().map(move |b| [&a[..], b].concat()))
                    .collect(),
                units: [l.units, r.units].concat(),
                spans: l.spans || r.spans,
            })
        }
        LogicalPlan::UnionSamples { left, right } => {
            let mut d = draw(left, catalog, master)?;
            let r = draw(right, catalog, master)?;
            d.spans |= r.spans || d.units.len() > 1;
            d.branches.extend(r.branches);
            Ok(d)
        }
    }
}

/// Validate `plan`, draw its samplers ([`design`]) and build one stream per
/// worker, the spine scan served by `hub` if one is given — how every
/// stream opens.
fn open(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    parts: usize,
    hub: Option<&Arc<SharedTableScan>>,
) -> Result<Vec<ChunkStream>> {
    plan.validate(catalog)?;
    let design = design(plan, catalog, opts.seed)?;
    let ctx = BuildCtx::new(plan, catalog, opts, parts, hub, &design);
    let (mut nodes, schema, relations) = build_partitioned(plan, &ctx)?;
    if design.spans {
        // A tuple of a union spanning several relations is in it iff one
        // branch keeps all its components, not each by some branch of its
        // own.
        let keeps = Arc::new(design.whole());
        nodes = nodes
            .into_iter()
            .map(|input| Node::Sample {
                keeps: keeps.clone(),
                input: Box::new(input),
            })
            .collect();
    }
    Ok(nodes
        .into_iter()
        .map(|root| ChunkStream {
            schema: schema.clone(),
            relations: relations.clone(),
            root,
            rows_out: 0,
        })
        .collect())
}

/// Build-time context threaded through [`build_partitioned`]: the catalog,
/// the partitioning shape, each relation's samplers, and the pushdown
/// configuration derived from [`ExecOptions`] and the plan's needed-column
/// analysis.
#[derive(Clone)]
struct BuildCtx<'a> {
    catalog: &'a Catalog,
    parts: usize,
    shuffle: bool,
    /// [`ExecOptions::seed`], which the shuffled scans' permutations derive
    /// from.
    seed: u64,
    /// Fuse a `Filter`'s compiled predicate into a directly-underlying scan
    /// node, sampled or not; off under [`ExecOptions::disable_pushdown`].
    fuse: bool,
    /// The hub serving the spine scan's rows ([`open_shared_stream`]);
    /// [`materialize`] clears it, so a join's build side stays private.
    hub: Option<Arc<SharedTableScan>>,
    /// Per-alias needed-column sets (empty — prune nothing — when pushdown
    /// is disabled).
    cols: ScanColumnMap,
    obs: ScanObs,
    /// What each sampled relation's scan keeps. A branch that leaves the
    /// relation unsampled keeps all of it, and its scan gets no sampler.
    samplers: FxHashMap<String, Arc<ScanSampler>>,
}

impl<'a> BuildCtx<'a> {
    fn new(
        plan: &LogicalPlan,
        catalog: &'a Catalog,
        opts: &ExecOptions,
        parts: usize,
        hub: Option<&Arc<SharedTableScan>>,
        design: &Design,
    ) -> BuildCtx<'a> {
        let pushdown = !opts.disable_pushdown;
        let samplers = plan
            .base_relations()
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| design.branches.iter().all(|b| !b[i].is_empty()))
            .map(|(i, alias)| {
                let sampler = ScanSampler {
                    branches: design.branches.iter().map(|b| b[i].clone()).collect(),
                    block_rows: design.units[i],
                };
                (alias.to_string(), Arc::new(sampler))
            })
            .collect();
        BuildCtx {
            catalog,
            parts,
            shuffle: opts.shuffle_scan,
            seed: opts.seed,
            fuse: pushdown,
            hub: hub.cloned(),
            cols: if pushdown {
                match &opts.scan_cols {
                    Some(map) => map.clone(),
                    None => ScanColumnMap::analyze(plan),
                }
            } else {
                ScanColumnMap::default()
            },
            obs: opts.scan_obs.clone(),
            samplers,
        }
    }
}

/// What a streaming scan node gathers per chunk: the (possibly pruned)
/// output column set, its relation's samplers, an optional scan-level
/// predicate, and the scan observability handles. Built in
/// [`build_partitioned`]'s scan arm and extended with a predicate by its
/// `Filter` arm. Its one [`ScanGather::gather`] serves every scan: an
/// unsampled one is the case where the identity sampler keeps every id.
#[derive(Debug)]
struct ScanGather {
    /// Output columns as ascending indices into the table schema; `None`
    /// gathers every column (the scan's output schema is pruned to match,
    /// so downstream compiled expressions see consistent positions).
    cols: Option<Arc<Vec<usize>>>,
    /// The relation's samplers; `None` (the identity) when no branch
    /// samples it.
    sampler: Option<Arc<ScanSampler>>,
    /// A predicate pushed into the scan (a `Filter` that sat directly on
    /// it): rows it drops never materialize into a batch.
    predicate: Option<Box<ScanPredicate>>,
    obs: ScanObs,
}

/// What one relation's scan keeps, decided on ids alone: a unit survives
/// iff, in some branch, every sampler of the relation's stack keeps it.
#[derive(Debug)]
struct ScanSampler {
    /// The relation's stack in each of the plan's branches.
    branches: Vec<Stack>,
    /// `Some(rows)` for a `SYSTEM`-sampled relation: its sampling and
    /// lineage unit is the `rows`-row block, so the stacks judge block ids
    /// and its tuples carry them.
    block_rows: Option<u64>,
}

impl ScanSampler {
    /// The row ids of `[from, upto)` kept, ascending. One sampler on one
    /// branch, the common case, is asked directly: walking the branches
    /// and stacks per row costs several times the coin.
    fn kept(&self, from: u64, upto: u64) -> Vec<u64> {
        match &self.branches[..] {
            [stack] if stack.len() == 1 => self.select(from, upto, |unit| stack[0].keeps(unit)),
            branches => self.select(from, upto, |unit| {
                branches
                    .iter()
                    .any(|stack| stack.iter().all(|keep| keep.keeps(unit)))
            }),
        }
    }

    /// The row ids of `[from, upto)` whose unit `keeps` keeps, ascending.
    /// `SYSTEM` tosses one coin per block and keeps or drops the block's
    /// rows whole.
    fn select(&self, from: u64, upto: u64, keeps: impl Fn(u64) -> bool) -> Vec<u64> {
        match self.block_rows {
            None => {
                // Branch-free: write every id, step past the kept ones.
                let mut out = vec![0; (upto - from) as usize];
                let mut kept = 0;
                for id in from..upto {
                    out[kept] = id;
                    kept += usize::from(keeps(id));
                }
                out.truncate(kept);
                out
            }
            Some(_) if from >= upto => Vec::new(),
            Some(br) => (from / br..=(upto - 1) / br)
                .filter(|&b| keeps(b))
                .flat_map(|b| (b * br).max(from)..((b + 1) * br).min(upto))
                .collect(),
        }
    }
}

/// A scan-level predicate: the compiled mask expression remapped onto the
/// gather order of its own columns.
#[derive(Debug)]
struct ScanPredicate {
    /// Compiled mask; its column indices point into `table_cols` positions
    /// (the predicate columns are gathered first, alone).
    expr: CompiledExpr,
    /// The predicate's columns as ascending table-schema indices.
    table_cols: Vec<usize>,
    /// For each scan output position, where to find the column after the
    /// mask: `PredCol(i)` reuses already-gathered `table_cols[i]`,
    /// `LateCol(j)` is the j-th late-gathered remaining column.
    out_map: Vec<OutCol>,
    /// The late-gathered columns (output columns not read by the
    /// predicate), ascending table-schema indices.
    late_cols: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
enum OutCol {
    /// Position within [`ScanPredicate::table_cols`].
    PredCol(usize),
    /// Position within [`ScanPredicate::late_cols`].
    LateCol(usize),
}

/// The positions a predicate mask selects, ascending.
fn selection(mask: &[bool]) -> Vec<u32> {
    mask.iter()
        .enumerate()
        .filter(|(_, &m)| m)
        .map(|(i, _)| i as u32)
        .collect()
}

impl ScanGather {
    /// The scan's output columns as table-schema indices.
    fn out_cols(&self, table: &Table) -> Vec<usize> {
        match &self.cols {
            Some(c) => c.as_ref().clone(),
            None => (0..table.column_count()).collect(),
        }
    }

    /// This gather extended with `compiled`, a predicate over the scan's
    /// output schema: map its columns back to table indices, remap the
    /// expression onto their gather positions, and precompute where each
    /// output column comes from after masking.
    fn with_predicate(&self, compiled: &CompiledExpr, table: &Table) -> ScanGather {
        let out = self.out_cols(table);
        let mut used = compiled.columns_used();
        used.sort_unstable();
        used.dedup();
        let table_cols: Vec<usize> = used.iter().map(|&i| out[i]).collect();
        let mut expr = compiled.clone();
        expr.remap_columns(&|old| {
            used.binary_search(&old)
                .expect("columns_used covers every referenced column")
        });
        let late_cols: Vec<usize> = out
            .iter()
            .copied()
            .filter(|c| !table_cols.contains(c))
            .collect();
        let out_map = out
            .iter()
            .map(|c| match table_cols.iter().position(|t| t == c) {
                Some(i) => OutCol::PredCol(i),
                None => {
                    OutCol::LateCol(late_cols.iter().position(|l| l == c).expect("late column"))
                }
            })
            .collect();
        ScanGather {
            cols: self.cols.clone(),
            sampler: self.sampler.clone(),
            predicate: Some(Box::new(ScanPredicate {
                expr,
                table_cols,
                out_map,
                late_cols,
            })),
            obs: self.obs.clone(),
        }
    }

    /// Gather rows `[from, upto)` of `table` — or the prefix of them `hub`
    /// serves, when a hub cursor is the row source — into a chunk with
    /// physical row-id lineage (block ids under `SYSTEM`); also returns
    /// how many rows that consumed. In order: the ids the samplers keep,
    /// decided on ids alone; the first columns (the predicate's, or every
    /// output column) of the kept rows, by the dense range gather when the
    /// range keeps every row; the predicate over those rows only, so a row
    /// the samplers drop cannot raise in it; the late columns of the rows
    /// both keep. A private scan never touches a row the samplers drop; a
    /// hub serves its range whole and the kept rows are picked from it. A
    /// chunk may come back empty without meaning exhaustion (callers
    /// loop). `touched` is the scan's page-count state
    /// ([`ScanGather::count_skipped`]).
    fn gather(
        &self,
        table: &Table,
        hub: &mut Option<SharedScanCursor>,
        from: u64,
        upto: u64,
        touched: &mut Option<u64>,
    ) -> Result<(ColumnarChunk, u64)> {
        let first = match &self.predicate {
            Some(pred) => Some(pred.table_cols.as_slice()),
            None => self.cols.as_deref().map(Vec::as_slice),
        };
        // The ids the samplers keep, `None` for the identity sampler of an
        // unsampled scan (Proposition 4).
        let kept = |upto: u64| self.sampler.as_ref().map(|s| s.kept(from, upto));
        let (batch, kept, n) = match hub {
            Some(cursor) => {
                let served = cursor.range(from, upto, first)?;
                let n = served.rows() as u64;
                let kept = kept(from + n);
                let batch = match &kept {
                    Some(ids) if ids.len() as u64 != n => {
                        let at: Vec<u32> = ids.iter().map(|&id| (id - from) as u32).collect();
                        served.take(&at)
                    }
                    _ => served,
                };
                (batch, kept, n)
            }
            None => {
                let kept = kept(upto);
                let batch = match (&kept, first) {
                    (Some(ids), cols) if ids.len() as u64 != upto - from => match cols {
                        Some(cols) => table.gather_rows_cols(ids, cols),
                        None => table.gather_rows_cols(ids, &self.out_cols(table)),
                    },
                    (_, None) => table.batch_range(from, upto),
                    (_, Some(cols)) => table.batch_range_cols(from, upto, cols),
                }
                .map_err(ExecError::Storage)?;
                (batch, kept, upto - from)
            }
        };
        self.obs.rows_scanned.add(n);
        let (batch, ids) = match &self.predicate {
            None => (batch, kept.unwrap_or_else(|| (from..from + n).collect())),
            Some(pred) => {
                let selected = selection(&pred.expr.eval_mask(&batch)?);
                let ids: Vec<u64> = match &kept {
                    None => selected.iter().map(|&i| from + i as u64).collect(),
                    Some(kept) => selected.iter().map(|&i| kept[i as usize]).collect(),
                };
                let mut late: Vec<Option<ColumnVec>> = table
                    .gather_rows_cols(&ids, &pred.late_cols)
                    .map_err(ExecError::Storage)?
                    .into_columns()
                    .into_iter()
                    .map(Some)
                    .collect();
                let columns = pred
                    .out_map
                    .iter()
                    .map(|&m| match m {
                        OutCol::PredCol(i) => batch.column(i).take(&selected),
                        OutCol::LateCol(j) => late[j].take().expect("one output per late column"),
                    })
                    .collect();
                (ColumnarBatch::new(columns, ids.len()), ids)
            }
        };
        self.count_skipped(table, from, from + n, &ids, touched);
        self.obs.rows_gathered.add(ids.len() as u64);
        let lineage = match self.sampler.as_ref().and_then(|s| s.block_rows) {
            Some(br) => ids.iter().map(|id| id / br).collect(),
            None => ids,
        };
        let chunk = ColumnarChunk {
            batch,
            lineage: vec![lineage],
        };
        Ok((chunk, n))
    }

    /// Page accounting: count, once each, the blocks whose last row the
    /// gather of `[from, end)` passed and none of whose rows reached the
    /// output (`ids`, ascending). Such a block was never gathered past the
    /// predicate's columns; under `SYSTEM` without a predicate it is a
    /// dropped block. `touched` carries the block of the scan's last
    /// surviving row across gathers, so a block that straddles two gathers
    /// is judged on all its rows. A range ends on a block boundary or at
    /// the table's last row, so no block is left half judged.
    fn count_skipped(
        &self,
        table: &Table,
        from: u64,
        end: u64,
        ids: &[u64],
        touched: &mut Option<u64>,
    ) {
        if from >= end {
            return;
        }
        let br = table.block_rows() as u64;
        if ids.len() as u64 == end - from {
            // Every row survived, so every block passed was touched.
            *touched = Some((end - 1) / br);
            return;
        }
        let first = from / br;
        // The blocks `[first, done)` end inside this gather.
        let done = if end.is_multiple_of(br) || end == table.row_count() {
            end.div_ceil(br)
        } else {
            end / br
        };
        let judged = &ids[..ids.partition_point(|&id| id < done * br)];
        let mut hit = judged.chunk_by(|a, b| a / br == b / br).count() as u64;
        if first < done
            && *touched == Some(first)
            && judged.first().is_none_or(|&id| id / br != first)
        {
            hit += 1;
        }
        self.obs.pages_skipped.add(done - first - hit);
        if let Some(&last) = ids.last() {
            *touched = Some(last / br);
        }
    }
}

/// One operator of the streaming pipeline. Every operator transforms whole
/// [`ColumnarChunk`]s.
#[derive(Debug)]
enum Node {
    /// Base-table scan: visits the block-aligned row ranges of `order` one
    /// after the other, rows inside a range in physical order, gathering
    /// column slices straight from storage plus a lineage column of physical
    /// row ids. The physical scan is the one range `[start, end)` of its
    /// slice (a full scan has `start = 0`, `end = row_count`); a shuffled
    /// scan ([`ExecOptions::shuffle_scan`]) is the slice's blocks, one range
    /// each, in a seeded random order — so columnar gathers stay batched
    /// while the consumed prefix becomes a uniform random set of blocks,
    /// making the online driver's random-scan-order assumption true by
    /// construction. A chunk never crosses a range boundary. What gets
    /// gathered — the pruned column set, the relation's samplers and an
    /// optional pushed-down predicate — lives in [`ScanGather`]. Under
    /// `SYSTEM` the lineage, the coverage and the distinct family are the
    /// block's.
    Scan {
        table: Arc<Table>,
        /// The row source when it is not `table`: a cursor on a shared hub
        /// over it, serving the rotation `[o, N)`, `[0, o)` from its attach
        /// origin `o` at most one bus chunk per gather.
        hub: Option<SharedScanCursor>,
        /// Row ranges `[start, end)` in visit order. Every start is a block
        /// boundary and the ranges are disjoint, so only the range holding
        /// the table's last row can end in a ragged block.
        order: Vec<(u64, u64)>,
        /// Index into `order` of the range currently draining.
        at: usize,
        /// Rows consumed of `order[at]`.
        offset: u64,
        /// Rows of the fully visited ranges before `at`.
        done: u64,
        /// Rows of the whole slice.
        total: u64,
        /// The block of the last row that reached the output, so each
        /// skipped page is counted once ([`ScanGather::count_skipped`]).
        touched: Option<u64>,
        gather: ScanGather,
    },
    /// The root of a plan whose union spans several relations: keeps the
    /// tuples the whole plan's [`Keeps`] keeps, judged on each tuple's full
    /// lineage. Every other sampler runs inside its relation's scan.
    Sample { keeps: Arc<Keeps>, input: Box<Node> },
    /// Relational selection (compiled predicate → mask → compact).
    Filter {
        predicate: CompiledExpr,
        input: Box<Node>,
    },
    /// Projection (compiled kernels evaluated per chunk).
    Project {
        exprs: Vec<CompiledExpr>,
        input: Box<Node>,
    },
    /// Streaming hash join, the one join operator: build side materialized
    /// and fingerprint-keyed, probe side streamed, the residual applied to
    /// each matched pair. A join without equi-keys (a cross product or a
    /// θ-join) is its one-bucket case: every probe row meets every build
    /// row, in build order. The build sits behind `Arc` so partitioned
    /// worker streams share one materialization.
    HashJoin {
        probe: Box<Node>,
        build: Arc<JoinBuild>,
        residual: Option<CompiledExpr>,
    },
}

/// Build one operator tree per worker over disjoint slices; returns
/// `(nodes, schema, relations)` with `nodes.len() == parts`. This is THE
/// builder — the sequential stream is simply `parts == 1` (one full-range
/// slice), so the traversal and the compiled expressions cannot drift
/// between the sequential and partitioned paths. Sampling operators build
/// nothing of their own: the scan under them carries the relation's
/// samplers ([`BuildCtx::samplers`]) in its gather, and a union builds the
/// expression its branches share once.
fn build_partitioned(
    plan: &LogicalPlan,
    ctx: &BuildCtx<'_>,
) -> Result<(Vec<Node>, SchemaRef, Vec<String>)> {
    let parts = ctx.parts;
    match plan {
        LogicalPlan::Scan { table, alias } => {
            let (t, schema) = scan_schema(ctx.catalog, table, alias)?;
            // Projection pushdown: prune the scan to the columns the rest
            // of the plan can observe. The scan's output schema shrinks to
            // match (same field order), so downstream name-based binding
            // and compiled column positions stay consistent; lineage row
            // ids ride beside the batch and need no column at all.
            let (schema, cols) = match ctx.cols.project_indices(alias, &schema) {
                None => (schema, None),
                Some(idx) => {
                    let fields: Vec<_> = idx.iter().map(|&i| schema.fields()[i].clone()).collect();
                    let pruned = Arc::new(Schema::new(fields).map_err(ExecError::Storage)?);
                    (pruned, Some(Arc::new(idx)))
                }
            };
            ctx.obs
                .cols_gathered
                .add(cols.as_ref().map_or(t.column_count(), |c| c.len()) as u64);
            if let Some(hub) = &ctx.hub {
                if hub.table().name() != table.as_str() {
                    return Err(ExecError::Unsupported(format!(
                        "shared scan hub is over table '{}' but the plan scans '{table}'",
                        hub.table().name()
                    )));
                }
                if ctx.shuffle {
                    // Callers (sa-online) bypass the hub for shuffled
                    // queries instead of hitting this.
                    return Err(ExecError::Unsupported(
                        "shuffle_scan cannot ride a shared scan cursor: the hub's gather order \
                         is shared state — open a private stream for shuffled queries"
                            .into(),
                    ));
                }
            }
            let block_rows = t.block_rows() as u64;
            let rows = t.row_count();
            let blocks = t.block_count();
            // Contiguous block-aligned slices: worker w owns blocks
            // [blocks·w/parts, blocks·(w+1)/parts). Some slices are empty
            // when there are fewer blocks than workers — they just drain
            // immediately (oversubscription degrades gracefully).
            let nodes = (0..parts as u64)
                .map(|w| {
                    let lo = blocks * w / parts as u64;
                    let hi = blocks * (w + 1) / parts as u64;
                    let row = |block: u64| (block * block_rows).min(rows);
                    // The visit order: the slice as one range; on a hub
                    // (one worker) the table's rotation from the cursor's
                    // origin, a block boundary; or — shuffled — one range
                    // per block under a seeded Fisher–Yates over the
                    // worker's own blocks: slices stay disjoint, progress
                    // still sums, and the permutation is fixed by
                    // (seed, parts, w).
                    let (hub, order) = match &ctx.hub {
                        Some(hub) => {
                            let cursor = hub.attach_columns(cols.as_deref().map(Vec::as_slice))?;
                            let o = cursor.physical_origin();
                            (Some(cursor), vec![(o, rows), (0, o)])
                        }
                        None if ctx.shuffle => {
                            let mut order: Vec<(u64, u64)> =
                                (lo..hi).map(|b| (row(b), row(b + 1))).collect();
                            let mut rng =
                                StdRng::seed_from_u64(splitmix64(ctx.seed ^ splitmix64(w)));
                            for i in (1..order.len()).rev() {
                                let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
                                order.swap(i, j);
                            }
                            (None, order)
                        }
                        None => (None, vec![(row(lo), row(hi))]),
                    };
                    Ok(Node::Scan {
                        table: t.clone(),
                        hub,
                        order,
                        at: 0,
                        offset: 0,
                        done: 0,
                        total: row(hi) - row(lo),
                        touched: None,
                        gather: ScanGather {
                            cols: cols.clone(),
                            sampler: ctx.samplers.get(alias.as_str()).cloned(),
                            predicate: None,
                            obs: ctx.obs.clone(),
                        },
                    })
                })
                .collect::<Result<_>>()?;
            Ok((nodes, schema, vec![alias.clone()]))
        }
        // The scan below carries the sampler; the right branch of a union
        // is the left one's expression, sampled differently.
        LogicalPlan::Sample { input, .. } | LogicalPlan::UnionSamples { left: input, .. } => {
            build_partitioned(input, ctx)
        }
        LogicalPlan::Filter { predicate, input } => {
            let (inputs, schema, relations) = build_partitioned(input, ctx)?;
            let compiled = compile(predicate, &schema)?;
            // Predicate pushdown: a Filter sitting directly on a scan node
            // fuses into the scan's gather — its dropped rows never
            // materialize. A sampled scan's coin runs first, so the
            // predicate sees exactly the rows it would unfused. A scan
            // already carrying a predicate keeps the second Filter as an
            // operator (compiled masks don't compose).
            let nodes = inputs
                .into_iter()
                .map(|mut node| match &mut node {
                    Node::Scan { table, gather, .. } if ctx.fuse && gather.predicate.is_none() => {
                        *gather = gather.with_predicate(&compiled, table);
                        node
                    }
                    _ => Node::Filter {
                        predicate: compiled.clone(),
                        input: Box::new(node),
                    },
                })
                .collect();
            Ok((nodes, schema, relations))
        }
        LogicalPlan::Project { exprs, input } => {
            let (inputs, in_schema, relations) = build_partitioned(input, ctx)?;
            let mut compiled = Vec::with_capacity(exprs.len());
            let mut fields = Vec::with_capacity(exprs.len());
            for (e, name) in exprs {
                let be = bind(e, &in_schema)?;
                let dt =
                    sa_expr::data_type(&be, &in_schema)?.unwrap_or(sa_storage::DataType::Float);
                fields.push(sa_storage::Field::new(name, dt));
                compiled.push(compile(&be, &in_schema)?);
            }
            let schema = Arc::new(Schema::new(fields).map_err(ExecError::Storage)?);
            let nodes = inputs
                .into_iter()
                .map(|node| Node::Project {
                    exprs: compiled.clone(),
                    input: Box::new(node),
                })
                .collect();
            Ok((nodes, schema, relations))
        }
        LogicalPlan::Join {
            condition,
            left,
            right,
        } => {
            let (probes, l_schema, l_rels) = build_partitioned(left, ctx)?;
            // Build side: materialized ONCE and shared behind Arc by every
            // worker, which probe it with their own slices.
            let (build_chunk, r_schema, r_rels, r_distinct) = materialize(right, ctx)?;
            let schema = Arc::new(l_schema.join(&r_schema)?);
            let (keys, residual) = match condition {
                None => (vec![], None),
                Some(c) => split_join_condition(c, &l_schema, &r_schema)?,
            };
            let residual = residual.map(|e| compile(&e, &schema)).transpose()?;
            // The build's relations follow the probe's in the lineage.
            let shift = l_rels.len();
            let distinct = r_distinct
                .iter()
                .map(|s| RelSet::from_bits(s.bits() << shift))
                .collect();
            let build = Arc::new(JoinBuild::new(build_chunk, r_rels.len(), keys, distinct));
            let mut relations = l_rels;
            relations.extend(r_rels);
            let nodes = probes
                .into_iter()
                .map(|probe| Node::HashJoin {
                    probe: Box::new(probe),
                    build: build.clone(),
                    residual: residual.clone(),
                })
                .collect();
            Ok((nodes, schema, relations))
        }
        LogicalPlan::Aggregate { .. } => Err(ExecError::Unsupported(
            "open_stream streams the aggregate's input; strip the Aggregate root and \
             accumulate incrementally (see sa-online)"
                .into(),
        )),
    }
}

/// Rows per pull while draining a subtree that must be materialized.
const MATERIALIZE_CHUNK_ROWS: usize = 1 << 16;

/// Drain `plan` — a join's build side — into one chunk through the same
/// operator tree a stream would run: a single private partition in physical
/// scan order (the result is consumed whole, so neither slicing, shuffling
/// nor a hub's rotation applies). Also returns the tree's
/// [`ChunkStream::distinct`] family.
fn materialize(
    plan: &LogicalPlan,
    ctx: &BuildCtx<'_>,
) -> Result<(ColumnarChunk, SchemaRef, Vec<String>, Vec<RelSet>)> {
    let whole = BuildCtx {
        parts: 1,
        shuffle: false,
        hub: None,
        ..ctx.clone()
    };
    let (mut nodes, schema, relations) = build_partitioned(plan, &whole)?;
    let mut node = nodes.pop().expect("one partition yields one node");
    let distinct = node.distinct();
    // The exhausted pull's empty chunk still has the subtree's column
    // shape: it stands in for the result when nothing else came out.
    let mut parts = Vec::new();
    loop {
        let chunk = node.next_batch(MATERIALIZE_CHUNK_ROWS)?;
        let exhausted = chunk.is_empty();
        if !exhausted || parts.is_empty() {
            parts.push(chunk);
        }
        if exhausted {
            break;
        }
    }
    Ok((ColumnarChunk::concat(parts), schema, relations, distinct))
}

impl Node {
    /// Pull roughly `hint` rows as one columnar chunk. Invariant: an empty
    /// return means this operator is exhausted — filtering operators keep
    /// pulling until they can emit at least one row or their input drains.
    fn next_batch(&mut self, hint: usize) -> Result<ColumnarChunk> {
        match self {
            Node::Scan {
                table,
                hub,
                order,
                at,
                offset,
                done,
                touched,
                gather,
                ..
            } => {
                while let Some(&(start, end)) = order.get(*at) {
                    let from = start + *offset;
                    if from >= end {
                        *done += *offset;
                        *offset = 0;
                        *at += 1;
                        continue;
                    }
                    let upto = from.saturating_add(hint as u64).min(end);
                    let (chunk, served) = gather.gather(table, hub, from, upto, touched)?;
                    // `offset` counts *consumed* rows — every row served
                    // had its chance, whatever a pushed predicate dropped —
                    // so Prop-8 coverage is unchanged.
                    *offset += served;
                    // A pushed-down predicate can empty a whole range; an
                    // empty chunk is the exhaustion signal upstream, so keep
                    // scanning until a row survives or the slice drains.
                    if !chunk.is_empty() {
                        return Ok(chunk);
                    }
                }
                // Exhausted: an empty chunk with the scan's column shape.
                Ok(gather.gather(table, hub, 0, 0, touched)?.0)
            }
            Node::Sample { keeps, input } => loop {
                let chunk = input.next_batch(hint)?;
                if chunk.is_empty() {
                    return Ok(chunk);
                }
                let mask = keeps.mask(&chunk.lineage);
                if mask.iter().any(|&m| m) {
                    return Ok(chunk.filter(&mask));
                }
            },
            Node::Filter { predicate, input } => loop {
                let chunk = input.next_batch(hint)?;
                if chunk.is_empty() {
                    return Ok(chunk);
                }
                let mask = predicate.eval_mask(&chunk.batch)?;
                if mask.iter().any(|&m| m) {
                    return Ok(chunk.filter(&mask));
                }
            },
            Node::Project { exprs, input } => {
                let chunk = input.next_batch(hint)?;
                let rows = chunk.rows();
                let columns = exprs
                    .iter()
                    .map(|e| e.eval_column(&chunk.batch))
                    .collect::<sa_expr::Result<Vec<_>>>()?;
                Ok(ColumnarChunk {
                    batch: ColumnarBatch::new(columns, rows),
                    lineage: chunk.lineage,
                })
            }
            Node::HashJoin {
                probe,
                build,
                residual,
            } => loop {
                let chunk = probe.next_batch(hint)?;
                if chunk.is_empty() {
                    return join_output(&chunk, &[], build, &[], residual.as_ref());
                }
                let probe_cols: Vec<&ColumnVec> = build
                    .keys
                    .iter()
                    .map(|(li, _)| chunk.batch.column(*li))
                    .collect();
                let build_cols: Vec<&ColumnVec> = build
                    .keys
                    .iter()
                    .map(|(_, ri)| build.chunk.batch.column(*ri))
                    .collect();
                let mut probe_idx: Vec<u32> = Vec::new();
                let mut build_idx: Vec<u32> = Vec::new();
                for i in 0..chunk.rows() {
                    for j in build.chain(key_fingerprint(&probe_cols, i)) {
                        // Stored-key equality check: a fingerprint
                        // collision can never fabricate a match, and a
                        // NULL-keyed probe row finds no NULL-keyed build
                        // row to equal.
                        if keys_eq(&probe_cols, i, &build_cols, j as usize) {
                            probe_idx.push(i as u32);
                            build_idx.push(j);
                        }
                    }
                }
                let out = join_output(&chunk, &probe_idx, build, &build_idx, residual.as_ref())?;
                if !out.is_empty() {
                    return Ok(out);
                }
            },
        }
    }

    /// Append this subtree's coverage to `out`, one entry per relation in
    /// scan order — the one recursion over operators that computes it.
    fn progress(&self, out: &mut Vec<(u64, u64)>) {
        match self {
            // Coverage is relative to this node's slice, so a partitioned
            // set of workers sums to the whole relation's `(consumed,
            // available)`. Whatever the visit order, the consumed rows are
            // whole ranges plus a prefix of the current one: a row prefix of
            // the slice in physical order, a seeded-random set of blocks —
            // a WOR(consumed, available) draw of the slice by construction —
            // when shuffled.
            //
            // A `SYSTEM`-sampled relation's unit is the block, so its
            // coverage is the blocks of the ranges its scan has visited —
            // dropped blocks included: fully visited ranges count their
            // blocks, the current one up to its cursor — a partially
            // scanned block counts as covered (its tuples had their chance
            // as a group; the boundary error is at most one block). Range
            // starts are block-aligned and at most one range is ragged, so
            // rows round up to blocks per term, and per-worker slices sum to
            // the full block count.
            Node::Scan {
                offset,
                done,
                total,
                gather,
                ..
            } => out.push(match gather.sampler.as_ref().and_then(|s| s.block_rows) {
                None => (done + offset, *total),
                Some(unit) => (
                    done.div_ceil(unit) + offset.div_ceil(unit),
                    total.div_ceil(unit),
                ),
            }),
            Node::Sample { input, .. }
            | Node::Filter { input, .. }
            | Node::Project { input, .. } => input.progress(out),
            // Build sides are fully materialized: complete coverage.
            Node::HashJoin { probe, build, .. } => {
                probe.progress(out);
                out.extend(std::iter::repeat_n((1, 1), build.n_rels));
            }
        }
    }

    /// The minimal sets of this subtree's [`ChunkStream::distinct`] family,
    /// over its relations in scan order — the one recursion that computes
    /// it.
    fn distinct(&self) -> Vec<RelSet> {
        match self {
            // A worker's slice visits each of its rows once, slices are
            // disjoint, and a hub cursor goes round once; but every row of a
            // `SYSTEM` block carries the block's id.
            Node::Scan { gather, .. } => match gather.sampler.as_ref().and_then(|s| s.block_rows) {
                None => vec![RelSet::singleton(0)],
                Some(_) => Vec::new(),
            },
            Node::Sample { input, .. }
            | Node::Filter { input, .. }
            | Node::Project { input, .. } => input.distinct(),
            Node::HashJoin { probe, build, .. } => build.distinct_with(probe.distinct()),
        }
    }
}

/// Assemble a join's output chunk from matched (probe, build) index pairs:
/// gather both sides, concatenate columns and lineage, apply the residual.
fn join_output(
    probe: &ColumnarChunk,
    probe_idx: &[u32],
    build: &JoinBuild,
    build_idx: &[u32],
    residual: Option<&CompiledExpr>,
) -> Result<ColumnarChunk> {
    let left = probe.take(probe_idx);
    let right = build.chunk.take(build_idx);
    let mut lineage = left.lineage;
    lineage.extend(right.lineage);
    let combined = ColumnarChunk {
        batch: left.batch.concat_columns(right.batch),
        lineage,
    };
    match residual {
        None => Ok(combined),
        Some(pred) => {
            let mask = pred.eval_mask(&combined.batch)?;
            Ok(combined.filter(&mask))
        }
    }
}

/// The end of a [`JoinBuild`] chain.
const CHAIN_END: u32 = u32::MAX;

/// A join's materialized build side: the columnar build rows, shared (via
/// `Arc`) by every worker stream that probes them, plus a flat
/// fingerprint-keyed hash table: the 64-bit [`key_fingerprint`] maps to
/// the first build row carrying it, and `next` chains each row to the next
/// one in its bucket, in build order. A row with a NULL key cell is in no
/// bucket. Probes verify actual key equality ([`keys_eq`]) against the
/// stored rows, so fingerprint collisions cost a comparison, never
/// correctness. Without equi-keys every row shares the one fingerprint of
/// no cells, so the one bucket holds the whole build in build order.
#[derive(Debug)]
struct JoinBuild {
    chunk: ColumnarChunk,
    n_rels: usize,
    keys: crate::exec::EquiKeys,
    /// Key fingerprint → the bucket's first build row.
    heads: FxHashMap<u64, u32>,
    /// Per build row, the next row of its bucket, or [`CHAIN_END`].
    next: Vec<u32>,
    /// The build has equi-keys and no bucket holds two rows — not even two
    /// of different keys — so a probe row, which looks in its own bucket
    /// only, matches at most one build row. A keyless build is never
    /// unique, even with one row: its probe rows meet every build row.
    unique: bool,
    /// The build side's [`ChunkStream::distinct`] family, its relations
    /// placed after the probe side's.
    distinct: Vec<RelSet>,
}

impl JoinBuild {
    fn new(
        chunk: ColumnarChunk,
        n_rels: usize,
        keys: crate::exec::EquiKeys,
        distinct: Vec<RelSet>,
    ) -> Self {
        assert!(
            chunk.rows() < CHAIN_END as usize,
            "a join build side holds fewer than {CHAIN_END} rows"
        );
        let mut heads = FxHashMap::default();
        heads.reserve(chunk.rows());
        let mut next = vec![CHAIN_END; chunk.rows()];
        let mut unique = !keys.is_empty();
        let key_cols: Vec<&ColumnVec> =
            keys.iter().map(|(_, ri)| chunk.batch.column(*ri)).collect();
        // Last row first: each insert puts its row in front of the rows
        // after it, so a chain lists its bucket in build order.
        for i in (0..chunk.rows()).rev() {
            if key_cols.iter().any(|c| !c.is_valid(i)) {
                continue; // NULL keys never match: such a row is in no bucket
            }
            if let Some(after) = heads.insert(key_fingerprint(&key_cols, i), i as u32) {
                next[i] = after;
                unique = false;
            }
        }
        JoinBuild {
            chunk,
            n_rels,
            keys,
            heads,
            next,
            unique,
            distinct,
        }
    }

    /// The build rows in fingerprint `fp`'s bucket, in build order.
    fn chain(&self, fp: u64) -> impl Iterator<Item = u32> + '_ {
        let head = self.heads.get(&fp).copied();
        std::iter::successors(head, |&j| {
            Some(self.next[j as usize]).filter(|&n| n != CHAIN_END)
        })
    }

    /// The join's distinct family over a probe side distinct on `probe`:
    /// `A ∪ B` for each set `A` of the probe side and `B` of the build side
    /// (a pair is emitted once), and, when the build is unique, the probe
    /// side's own sets — keeping the minimal ones.
    fn distinct_with(&self, probe: Vec<RelSet>) -> Vec<RelSet> {
        let mut sets: Vec<RelSet> = probe
            .iter()
            .flat_map(|a| self.distinct.iter().map(|b| a.union(*b)))
            .collect();
        if self.unique {
            sets.extend(probe);
        }
        sets.sort_by_key(|s| (s.len(), s.bits()));
        let mut minimal: Vec<RelSet> = Vec::with_capacity(sets.len());
        for s in sets {
            if !minimal.iter().any(|m| m.is_subset_of(s)) {
                minimal.push(s);
            }
        }
        minimal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use sa_expr::{col, lit};
    use sa_sampling::SamplingMethod;
    use sa_storage::{DataType, Field, TableBuilder, Value};
    use std::collections::HashSet;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema).with_block_rows(16);
        for i in 0..200 {
            b.push_row(&[Value::Int(i % 10), Value::Float(i as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let schema2 = Schema::new(vec![
            Field::new("dk", DataType::Int),
            Field::new("w", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("d", schema2);
        for i in 0..10 {
            b.push_row(&[Value::Int(i), Value::Float(10.0 * i as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    /// The streamed rows of a plan must equal the reference row executor's,
    /// in order, for any chunk hint and seed: the oracle samples at the
    /// root and the stream at its scans, off one design.
    fn assert_stream_matches_batch(plan: &LogicalPlan, hint: usize) {
        let c = catalog();
        for seed in 0..3 {
            let opts = ExecOptions {
                seed,
                ..Default::default()
            };
            let batch = execute(plan, &c, &opts).unwrap();
            let stream = open_stream(plan, &c, &opts).unwrap();
            assert_eq!(stream.schema().as_ref(), batch.schema.as_ref());
            assert_eq!(stream.relations(), &batch.relations[..]);
            let rows = stream.collect_rows(hint).unwrap();
            assert_eq!(rows, batch.rows, "hint={hint}, seed={seed}");
        }
    }

    #[test]
    fn sampled_plans_match_batch() {
        // One case per sampler, with a filter and a sampled build side
        // between the scan samplers and the oracle's root.
        for method in [
            SamplingMethod::Bernoulli { p: 0.4 },
            SamplingMethod::System { p: 0.5 },
            SamplingMethod::Wor { size: 60 },
        ] {
            let plan = LogicalPlan::scan("t")
                .sample(method)
                .filter(col("v").lt(lit(150.0)))
                .join_on(
                    LogicalPlan::scan("d").sample(SamplingMethod::Bernoulli { p: 0.6 }),
                    col("k").eq(col("dk")),
                );
            for hint in [1, 9, 512] {
                assert_stream_matches_batch(&plan, hint);
            }
        }
    }

    #[test]
    fn scan_filter_project_match_batch_for_many_hints() {
        let plan = LogicalPlan::scan("t")
            .filter(col("v").gt_eq(lit(25.0)))
            .project(vec![(col("v").mul(lit(2.0)), "vv".into())]);
        for hint in [1, 3, 64, 1000] {
            assert_stream_matches_batch(&plan, hint);
        }
    }

    #[test]
    fn hash_join_matches_batch() {
        let plan = LogicalPlan::scan("t").join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        for hint in [1, 7, 512] {
            assert_stream_matches_batch(&plan, hint);
        }
    }

    #[test]
    fn materialized_subtrees_match_batch() {
        // A join's build side and a fixed-size sampler's input are drained
        // through the stream's own operators — here a sampler that keeps
        // every row, a filter and a projection under the build, and a WOR
        // of the whole table — and must still yield the row executor's
        // tuples.
        let build = LogicalPlan::scan("d")
            .sample(SamplingMethod::Bernoulli { p: 1.0 })
            .filter(col("w").gt(lit(-1.0)))
            .project(vec![
                (col("dk"), "dk".into()),
                (col("w").div(col("dk")), "ratio".into()),
            ]);
        let join = LogicalPlan::scan("t").join_on(build, col("k").eq(col("dk")));
        let whole_wor = LogicalPlan::scan("t")
            .sample(SamplingMethod::Wor { size: 200 })
            .filter(col("v").lt(lit(150.0)));
        for hint in [1, 9, 512] {
            assert_stream_matches_batch(&join, hint);
            assert_stream_matches_batch(&whole_wor, hint);
        }
    }

    #[test]
    fn theta_and_cross_joins_match_batch() {
        // v > w is not an equi-condition → the keyless join's one bucket,
        // with the residual on every pair.
        let theta = LogicalPlan::scan("t").join_on(LogicalPlan::scan("d"), col("v").gt(col("w")));
        let cross = LogicalPlan::scan("t").cross(LogicalPlan::scan("d"));
        for hint in [1, 4, 300] {
            assert_stream_matches_batch(&theta, hint);
            assert_stream_matches_batch(&cross, hint);
        }
    }

    #[test]
    fn chunk_sizes_do_not_change_the_sample() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.3 });
        let c = catalog();
        let collect = |hint: usize| {
            open_stream(
                &plan,
                &c,
                &ExecOptions {
                    seed: 11,
                    ..Default::default()
                },
            )
            .unwrap()
            .collect_rows(hint)
            .unwrap()
        };
        let small = collect(2);
        let big = collect(500);
        assert_eq!(small, big, "sample realization must be chunk-independent");
        assert!(!small.is_empty() && small.len() < 200);
    }

    #[test]
    fn different_seeds_stream_different_samples() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
        let c = catalog();
        let sizes: HashSet<usize> = (0..20)
            .map(|s| {
                open_stream(
                    &plan,
                    &c,
                    &ExecOptions {
                        seed: s,
                        ..Default::default()
                    },
                )
                .unwrap()
                .collect_rows(64)
                .unwrap()
                .len()
            })
            .collect();
        assert!(sizes.len() > 1, "seed ignored");
    }

    #[test]
    fn system_sampling_rewrites_lineage_to_blocks() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::System { p: 1.0 });
        let c = catalog();
        let rows = open_stream(&plan, &c, &ExecOptions::default())
            .unwrap()
            .collect_rows(13)
            .unwrap();
        assert_eq!(rows.len(), 200);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.lineage, vec![(i as u64) / 16]);
        }
    }

    #[test]
    fn wor_sample_streams_exact_count() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Wor { size: 40 });
        let c = catalog();
        let rows = open_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap()
        .collect_rows(7)
        .unwrap();
        assert_eq!(rows.len(), 40);
        let distinct: HashSet<u64> = rows.iter().map(|r| r.lineage[0]).collect();
        assert_eq!(distinct.len(), 40);
    }

    #[test]
    fn union_samples_dedups_by_lineage() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.4 }));
        let c = catalog();
        let rows = open_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap()
        .collect_rows(16)
        .unwrap();
        let distinct: HashSet<&Vec<u64>> = rows.iter().map(|r| &r.lineage).collect();
        assert_eq!(distinct.len(), rows.len(), "duplicate lineage survived");
    }

    #[test]
    fn progress_tracks_scan_coverage() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        let c = catalog();
        let mut s = open_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // Probe side untouched, build side already complete.
        assert_eq!(s.progress(), vec![(0, 200), (1, 1)]);
        let mut last = 0;
        while !s.next_chunk(32).unwrap().is_empty() {
            let p = s.progress();
            assert!(p[0].0 > last && p[0].0 <= 200, "monotone scan coverage");
            last = p[0].0;
            assert_eq!(p[0].1, 200);
            assert_eq!(p[1], (1, 1));
        }
        assert_eq!(s.progress()[0], (200, 200), "drained scan is complete");
    }

    #[test]
    fn progress_counts_blocks_for_system_sampling() {
        // t has block_rows = 16 → 13 blocks (200 rows).
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::System { p: 1.0 });
        let c = catalog();
        let mut s = open_stream(&plan, &c, &ExecOptions::default()).unwrap();
        assert_eq!(s.progress(), vec![(0, 13)]);
        s.next_chunk(20).unwrap(); // 20 rows scanned → 2 blocks covered
        assert_eq!(s.progress(), vec![(2, 13)]);
        while !s.next_chunk(64).unwrap().is_empty() {}
        assert_eq!(s.progress(), vec![(13, 13)]);
    }

    #[test]
    fn progress_over_wor_counts_its_scan_prefix() {
        // WOR keeps the row ids it drew at open as its scan streams by, so
        // its coverage is the scan's: every row it emits lies in the prefix.
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Wor { size: 40 });
        let c = catalog();
        let mut s = open_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(s.progress(), vec![(0, 200)]);
        let mut rows = 0;
        loop {
            let chunk = s.next_chunk(15).unwrap();
            let (consumed, available) = s.progress()[0];
            assert_eq!(available, 200);
            if chunk.is_empty() {
                assert_eq!(consumed, 200);
                break;
            }
            assert!(chunk.iter().all(|r| r.lineage[0] < consumed));
            rows += chunk.len();
        }
        assert_eq!(rows, 40);
    }

    #[test]
    fn union_progress_is_not_complete_until_both_branches_drain() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.4 }));
        let c = catalog();
        let mut s = open_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let mut complete_since = None;
        let mut chunks = 0;
        loop {
            let chunk = s.next_chunk(16).unwrap();
            let (consumed, total) = s.progress()[0];
            if chunk.is_empty() {
                assert_eq!((consumed, total), (200, 200));
                break;
            }
            chunks += 1;
            // Once coverage claims completion, no further rows may arrive.
            assert!(
                complete_since.is_none(),
                "rows arrived after completion was claimed at chunk {complete_since:?}"
            );
            if consumed >= total {
                complete_since = Some(chunks);
            }
        }
    }

    #[test]
    fn system_stacked_with_a_row_sampler_is_refused() {
        // Block and row keeps on one relation read different units: no GUS,
        // and the stream refuses it as the rewriter does.
        let c = catalog();
        for plan in [
            LogicalPlan::scan("t")
                .sample(SamplingMethod::Wor { size: 40 })
                .sample(SamplingMethod::System { p: 1.0 }),
            LogicalPlan::scan("t")
                .sample(SamplingMethod::System { p: 0.5 })
                .sample(SamplingMethod::Bernoulli { p: 0.5 }),
        ] {
            let err = open_stream(&plan, &c, &ExecOptions::default()).unwrap_err();
            assert!(matches!(err, ExecError::Unsupported(_)), "{err}");
        }
    }

    /// Drain a stream into rows with the given chunk hint.
    fn drain(mut s: ChunkStream, hint: usize) -> Vec<Row> {
        let mut out = Vec::new();
        loop {
            let chunk = s.next_chunk(hint).unwrap();
            if chunk.is_empty() {
                return out;
            }
            out.extend(chunk);
        }
    }

    /// Element-wise sum of per-worker progress reports.
    fn summed_progress(streams: &[ChunkStream]) -> Vec<(u64, u64)> {
        let mut total = vec![(0u64, 0u64); streams[0].relations().len()];
        for s in streams {
            for (t, (c, n)) in total.iter_mut().zip(s.progress()) {
                t.0 += c;
                t.1 += n;
            }
        }
        total
    }

    #[test]
    fn partitioned_streams_are_sendable() {
        fn assert_send<T: Send>() {}
        assert_send::<ChunkStream>();
    }

    #[test]
    fn one_partition_is_the_sequential_stream() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .filter(col("v").gt_eq(lit(10.0)));
        let c = catalog();
        let opts = ExecOptions {
            seed: 11,
            ..Default::default()
        };
        let seq = open_stream(&plan, &c, &opts)
            .unwrap()
            .collect_rows(64)
            .unwrap();
        let mut parts = open_stream_partitioned(&plan, &c, &opts, 1).unwrap();
        assert_eq!(parts.len(), 1);
        let rows = parts.pop().unwrap().collect_rows(64).unwrap();
        assert_eq!(rows, seq, "parts = 1 must be byte-identical to open_stream");
    }

    #[test]
    fn partitioned_scan_concatenates_to_the_sequential_rows() {
        // No per-tuple Bernoulli on the spine → the union of the worker
        // slices IS the sequential realization, in worker-index order.
        let c = catalog();
        for plan in [
            LogicalPlan::scan("t"),
            LogicalPlan::scan("t")
                .filter(col("v").gt_eq(lit(25.0)))
                .project(vec![(col("v").mul(lit(2.0)), "vv".into())]),
            LogicalPlan::scan("t").sample(SamplingMethod::Wor { size: 40 }),
            LogicalPlan::scan("t").sample(SamplingMethod::System { p: 0.6 }),
            LogicalPlan::scan("t").join_on(LogicalPlan::scan("d"), col("k").eq(col("dk"))),
        ] {
            let opts = ExecOptions {
                seed: 5,
                ..Default::default()
            };
            let seq = open_stream(&plan, &c, &opts)
                .unwrap()
                .collect_rows(32)
                .unwrap();
            for parts in [2usize, 3, 5] {
                let streams = open_stream_partitioned(&plan, &c, &opts, parts).unwrap();
                assert_eq!(streams.len(), parts);
                let rows: Vec<Row> = streams.into_iter().flat_map(|s| drain(s, 17)).collect();
                assert_eq!(rows, seq, "parts={parts} plan={plan:?}");
            }
        }
    }

    #[test]
    fn partitioned_bernoulli_slices_are_disjoint_and_deterministic() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
        let c = catalog();
        let opts = ExecOptions {
            seed: 9,
            ..Default::default()
        };
        let collect = || -> Vec<Vec<Row>> {
            open_stream_partitioned(&plan, &c, &opts, 4)
                .unwrap()
                .into_iter()
                .map(|s| drain(s, 16))
                .collect()
        };
        let a = collect();
        assert_eq!(a, collect(), "same (plan, seed, parts) must replay exactly");
        let all: Vec<u64> = a.iter().flatten().map(|r| r.lineage[0]).collect();
        let distinct: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "worker slices must be disjoint");
        assert!(all.len() > 50 && all.len() < 150, "p=0.5 of 200 rows");
        // Worker slices are contiguous and ordered: every row of worker w
        // precedes every row of worker w+1.
        for w in 1..a.len() {
            let prev_max = a[w - 1].iter().map(|r| r.lineage[0]).max();
            let cur_min = a[w].iter().map(|r| r.lineage[0]).min();
            if let (Some(p), Some(c)) = (prev_max, cur_min) {
                assert!(p < c, "slice {w} overlaps slice {}", w - 1);
            }
        }
    }

    #[test]
    fn partitioned_progress_sums_to_full_relation_coverage() {
        // t: 200 rows; d joins as a fully-materialized build side.
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        let c = catalog();
        let mut streams = open_stream_partitioned(
            &plan,
            &c,
            &ExecOptions {
                seed: 1,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        assert_eq!(summed_progress(&streams), vec![(0, 200), (3, 3)]);
        let mut last = 0u64;
        loop {
            let mut any = false;
            for s in streams.iter_mut() {
                any |= !s.next_chunk(16).unwrap().is_empty();
            }
            let p = summed_progress(&streams);
            assert!(p[0].0 >= last && p[0].1 == 200, "monotone summed coverage");
            last = p[0].0;
            if !any {
                break;
            }
        }
        assert_eq!(summed_progress(&streams)[0], (200, 200));
    }

    #[test]
    fn partitioned_system_blocks_sum_to_block_count() {
        // 200 rows, block_rows 16 → 13 blocks split over 4 workers.
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::System { p: 1.0 });
        let c = catalog();
        let mut streams = open_stream_partitioned(&plan, &c, &ExecOptions::default(), 4).unwrap();
        assert_eq!(summed_progress(&streams)[0], (0, 13));
        for s in streams.iter_mut() {
            while !s.next_chunk(64).unwrap().is_empty() {}
        }
        assert_eq!(summed_progress(&streams)[0], (13, 13));
    }

    #[test]
    fn oversubscribed_partitioning_degrades_gracefully() {
        // d has 10 rows (one block): far more workers than blocks — extra
        // workers get empty slices and drain immediately.
        let plan = LogicalPlan::scan("d");
        let c = catalog();
        let streams = open_stream_partitioned(&plan, &c, &ExecOptions::default(), 64).unwrap();
        assert_eq!(streams.len(), 64);
        let rows: Vec<Row> = streams.into_iter().flat_map(|s| drain(s, 4)).collect();
        assert_eq!(rows.len(), 10, "every row exactly once");
    }

    #[test]
    fn partitioned_aggregate_and_zero_parts_rejected() {
        let c = catalog();
        let agg = LogicalPlan::scan("t").aggregate(vec![sa_plan::AggSpec::count_star("c")]);
        assert!(open_stream_partitioned(&agg, &c, &ExecOptions::default(), 2).is_err());
        let scan = LogicalPlan::scan("t");
        assert!(open_stream_partitioned(&scan, &c, &ExecOptions::default(), 0).is_err());
    }

    #[test]
    fn aggregate_root_rejected() {
        let plan = LogicalPlan::scan("t").aggregate(vec![sa_plan::AggSpec::count_star("c")]);
        assert!(open_stream(&plan, &catalog(), &ExecOptions::default()).is_err());
    }

    #[test]
    fn exhausted_stream_keeps_returning_empty() {
        let plan = LogicalPlan::scan("d");
        let mut s = open_stream(&plan, &catalog(), &ExecOptions::default()).unwrap();
        let mut total = 0;
        loop {
            let chunk = s.next_chunk(4).unwrap();
            if chunk.is_empty() {
                break;
            }
            total += chunk.len();
        }
        assert_eq!(total, 10);
        assert_eq!(s.rows_yielded(), 10);
        assert!(s.next_chunk(4).unwrap().is_empty());
    }

    #[test]
    fn filter_under_project_fuses_and_matches_unfused() {
        // With pushdown on, a Filter directly on a Scan is eaten by the
        // scan itself (masked before materialization); with pushdown off,
        // Project(Filter(x)) stays a plain Project over a plain Filter.
        // Both shapes must produce identical rows.
        let fused = LogicalPlan::scan("t")
            .filter(col("v").gt_eq(lit(25.0)).and(col("k").lt(lit(8i64))))
            .project(vec![
                (col("v").mul(lit(2.0)), "vv".into()),
                (col("k"), "k".into()),
            ]);
        let c = catalog();
        let streams = open_stream_partitioned(&fused, &c, &ExecOptions::default(), 1).unwrap();
        match &streams[0].root {
            Node::Project { input, .. } => assert!(
                matches!(&**input, Node::Scan { gather, .. } if gather.predicate.is_some()),
                "filter directly on a scan must push into the scan"
            ),
            other => panic!("expected Project over predicated Scan, got {other:?}"),
        }
        let off = ExecOptions {
            disable_pushdown: true,
            ..Default::default()
        };
        let streams = open_stream_partitioned(&fused, &c, &off, 1).unwrap();
        match &streams[0].root {
            Node::Project { input, .. } => assert!(
                matches!(&**input, Node::Filter { input, .. }
                    if matches!(&**input, Node::Scan { gather, .. } if gather.predicate.is_none())),
                "with pushdown off, a filter under a project stays its own operator: {input:?}"
            ),
            other => panic!("expected Project over Filter over Scan, got {other:?}"),
        }
        for hint in [1, 9, 100] {
            assert_stream_matches_batch(&fused, hint);
        }
    }

    #[test]
    fn a_sampled_scan_under_a_filter_is_one_scan_node() {
        // The samplers and the predicate ride one gather: no sampler node
        // above the scan, on a private scan, a worker's slice or a hub
        // cursor alike, for a union over one relation too. Only a union
        // spanning relations keeps a sampler node, at its root.
        let c = catalog();
        let pred = col("v").gt_eq(lit(25.0));
        let sampled = |m: SamplingMethod| LogicalPlan::scan("t").sample(m);
        let plans = [
            sampled(SamplingMethod::Bernoulli { p: 0.5 }),
            sampled(SamplingMethod::Wor { size: 60 }),
            sampled(SamplingMethod::System { p: 0.5 }),
            sampled(SamplingMethod::Bernoulli { p: 0.5 })
                .union_samples(sampled(SamplingMethod::Bernoulli { p: 0.3 })),
        ];
        let one_scan = |node: &Node, branches: usize| {
            matches!(node, Node::Scan { gather, .. }
                if gather.predicate.is_some()
                    && gather.sampler.as_ref().is_some_and(|s| s.branches.len() == branches))
        };
        for plan in &plans {
            let branches = if matches!(plan, LogicalPlan::UnionSamples { .. }) {
                2
            } else {
                1
            };
            let plan = plan.clone().filter(pred.clone());
            for parts in [1, 3] {
                for s in open_stream_partitioned(&plan, &c, &ExecOptions::default(), parts).unwrap()
                {
                    assert!(one_scan(&s.root, branches), "{plan:?}: {:?}", s.root);
                }
            }
            let hub = warmed_hub(&c, "t", 32, 64);
            let s = open_shared_stream(&plan, &c, &ExecOptions::default(), &hub).unwrap();
            assert!(
                one_scan(&s.root, branches),
                "{plan:?} on a hub: {:?}",
                s.root
            );
            for hint in [1, 9, 100] {
                assert_stream_matches_batch(&plan, hint);
            }
        }
        let spans = sampled(SamplingMethod::Bernoulli { p: 0.5 })
            .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")))
            .union_samples(LogicalPlan::scan("t").join_on(
                LogicalPlan::scan("d").sample(SamplingMethod::Bernoulli { p: 0.5 }),
                col("k").eq(col("dk")),
            ));
        let s = open_stream(&spans, &c, &ExecOptions::default()).unwrap();
        assert!(matches!(s.root, Node::Sample { .. }), "{:?}", s.root);
    }

    #[test]
    fn fused_filter_project_drains_cleanly_under_another_project() {
        // Regression: the fused operator's exhaustion chunk must carry the
        // PROJECTED column layout (kernels are remapped onto `used`), or an
        // expression-evaluating consumer above — here an outer Project —
        // errors on the final empty pull instead of draining.
        let plan = LogicalPlan::scan("t")
            .filter(col("v").gt_eq(lit(10.0)))
            .project(vec![(col("v").mul(lit(2.0)), "x".into())])
            .project(vec![(col("x").add(lit(1.0)), "y".into())]);
        for hint in [1, 7, 1000] {
            assert_stream_matches_batch(&plan, hint);
        }
        // Exhaustion also stays clean when the fused operator feeds a
        // join's probe side (join_output evaluates over the empty chunk).
        let joined = LogicalPlan::scan("t")
            .filter(col("v").gt_eq(lit(10.0)))
            .project(vec![(col("k"), "k".into())])
            .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        assert_stream_matches_batch(&joined, 64);
    }

    #[test]
    fn columnar_batches_match_row_adapter() {
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.6 })
            .filter(col("v").gt_eq(lit(10.0)));
        let c = catalog();
        let opts = ExecOptions {
            seed: 4,
            ..Default::default()
        };
        let mut via_batch = open_stream(&plan, &c, &opts).unwrap();
        let mut via_rows = open_stream(&plan, &c, &opts).unwrap();
        loop {
            let batch = via_batch.next_batch(33).unwrap();
            let rows = via_rows.next_chunk(33).unwrap();
            assert_eq!(batch.to_rows(), rows);
            if rows.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn nan_join_keys_match_like_the_row_executor() {
        // Value::total_cmp says NaN == NaN, and the row executor's
        // Value-keyed hash join honours that — the fingerprint join must
        // too (hash_cell already hashes every NaN identically; cell_eq
        // must agree).
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Float),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("l", schema);
        for v in [f64::NAN, 1.0, 2.0, f64::NAN] {
            b.push_row(&[Value::Float(v), Value::Float(10.0)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let schema = Schema::new(vec![
            Field::new("rk", DataType::Float),
            Field::new("w", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("r", schema);
        for v in [f64::NAN, 2.0] {
            b.push_row(&[Value::Float(v), Value::Float(20.0)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let plan = LogicalPlan::scan("l").join_on(LogicalPlan::scan("r"), col("k").eq(col("rk")));
        let batch = execute(&plan, &c, &ExecOptions::default()).unwrap();
        let rows = open_stream(&plan, &c, &ExecOptions::default())
            .unwrap()
            .collect_rows(8)
            .unwrap();
        assert_eq!(rows.len(), 3, "two NaN matches + the 2.0 match");
        assert_eq!(rows, batch.rows);
    }

    #[test]
    fn shared_stream_at_origin_zero_matches_private_stream() {
        // A fresh hub's first cursor starts at physical row 0, and the
        // Bernoulli seed derivation is identical to the private path — so
        // the realization must be byte-identical to open_stream.
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.4 })
            .filter(col("v").gt_eq(lit(10.0)))
            .project(vec![(col("v").mul(lit(2.0)), "vv".into())]);
        let c = catalog();
        let opts = ExecOptions {
            seed: 11,
            ..Default::default()
        };
        let private = open_stream(&plan, &c, &opts)
            .unwrap()
            .collect_rows(64)
            .unwrap();
        let hub = Arc::new(SharedTableScan::new(c.get("t").unwrap(), 32));
        let shared = open_shared_stream(&plan, &c, &opts, &hub)
            .unwrap()
            .collect_rows(17)
            .unwrap();
        assert_eq!(shared, private);
        assert_eq!(hub.rows_gathered(), 200);
    }

    /// A hub over `table` whose head has passed `origin` rows, so the next
    /// stream attaches mid-table, at the first bus chunk boundary from there.
    fn warmed_hub(c: &Catalog, table: &str, bus_rows: usize, origin: u64) -> Arc<SharedTableScan> {
        let hub = Arc::new(SharedTableScan::new(c.get(table).unwrap(), bus_rows));
        let scan = LogicalPlan::scan(table);
        let mut warm = open_shared_stream(&scan, c, &ExecOptions::default(), &hub).unwrap();
        while warm.progress()[0].0 < origin {
            warm.next_batch(bus_rows).unwrap();
        }
        hub
    }

    /// `rows` ordered by lineage: what a stream realizes, whatever the order
    /// it arrived in.
    fn by_lineage(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| a.lineage.cmp(&b.lineage));
        rows
    }

    #[test]
    fn shared_stream_progress_covers_the_whole_relation() {
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
        let c = catalog();
        // Advance the hub so the stream attaches mid-scan.
        let hub = warmed_hub(&c, "t", 64, 1);
        let mut s = open_shared_stream(
            &plan,
            &c,
            &ExecOptions {
                seed: 3,
                ..Default::default()
            },
            &hub,
        )
        .unwrap();
        assert_eq!(s.progress(), vec![(0, 200)]);
        let mut last = 0;
        while !s.next_chunk(32).unwrap().is_empty() {
            let (consumed, total) = s.progress()[0];
            assert!(consumed > last && total == 200);
            last = consumed;
        }
        assert_eq!(s.progress(), vec![(200, 200)], "full circular coverage");
    }

    #[test]
    fn join_system_and_wor_plans_ride_a_shared_scan() {
        // Any plan rides a hub over its spine table — here from mid-table —
        // and realizes the tuples of its private stream, in rotated order;
        // the join's build side `d` stays private.
        let c = catalog();
        let opts = ExecOptions {
            seed: 7,
            ..Default::default()
        };
        let join = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        let system = LogicalPlan::scan("t").sample(SamplingMethod::System { p: 0.5 });
        let wor = LogicalPlan::scan("t").sample(SamplingMethod::Wor { size: 40 });
        for plan in [&join, &system, &wor] {
            let private = open_stream(plan, &c, &opts)
                .unwrap()
                .collect_rows(64)
                .unwrap();
            let hub = warmed_hub(&c, "t", 64, 100);
            let shared = open_shared_stream(plan, &c, &opts, &hub)
                .unwrap()
                .collect_rows(17)
                .unwrap();
            assert_ne!(shared, private, "{plan:?}: attached at row 128");
            assert_eq!(by_lineage(shared), by_lineage(private), "{plan:?}");
            assert_eq!(hub.stats().rows_served, 128 + 200, "{plan:?}");
        }
        // A hub over another table than the spine's is refused.
        let other = LogicalPlan::scan("d");
        let hub = Arc::new(SharedTableScan::new(c.get("t").unwrap(), 64));
        let err = open_shared_stream(&other, &c, &ExecOptions::default(), &hub).unwrap_err();
        assert!(err.to_string().contains("'t'"), "{err}");
    }

    #[test]
    fn a_filter_fuses_into_a_scan_on_a_hub() {
        // The predicate's columns come off the bus and the survivors' other
        // columns off the table, as in a private fused scan, which emits the
        // same tuples; every row counts as scanned, only survivors as
        // gathered.
        let c = catalog();
        let plan = LogicalPlan::scan("t").filter(col("k").lt(lit(3i64)));
        let private = open_stream(&plan, &c, &ExecOptions::default())
            .unwrap()
            .collect_rows(64)
            .unwrap();
        for origin in [0, 64, 150] {
            let hub = warmed_hub(&c, "t", 64, origin);
            let registry = sa_obs::Registry::new();
            let opts = ExecOptions {
                scan_obs: ScanObs::new(&registry),
                ..Default::default()
            };
            let stream = open_shared_stream(&plan, &c, &opts, &hub).unwrap();
            assert!(
                matches!(&stream.root, Node::Scan { hub: Some(_), gather, .. } if gather.predicate.is_some()),
                "origin {origin}: {:?}",
                stream.root
            );
            let rows = stream.collect_rows(64).unwrap();
            assert_eq!(by_lineage(rows), private, "origin {origin}");
            let m = registry.snapshot();
            assert_eq!(m.counter("sa_scan_rows_scanned_total"), Some(200));
            assert_eq!(
                m.counter("sa_scan_rows_gathered_total"),
                Some(private.len() as u64)
            );
            assert!(private.len() < 200);
        }
    }

    #[test]
    fn system_on_a_hub_covers_each_block_once() {
        // Bus chunks hold whole blocks, so the rotation starts on a block
        // boundary: the blocks of [o, N) and of [0, o) sum to the table's
        // 13 (16-row blocks, the last ragged).
        let c = catalog();
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::System { p: 1.0 });
        let hub = warmed_hub(&c, "t", 50, 100);
        let mut s = open_shared_stream(&plan, &c, &ExecOptions::default(), &hub).unwrap();
        assert_eq!(s.progress(), vec![(0, 13)]);
        let (mut last, mut first) = (0, None);
        loop {
            let chunk = s.next_chunk(20).unwrap();
            let (blocks, total) = s.progress()[0];
            assert!(blocks >= last && total == 13, "{blocks} of {total}");
            last = blocks;
            let Some(row) = chunk.first() else { break };
            first.get_or_insert(row.lineage[0]);
        }
        assert_eq!(first, Some(8), "attached at row 128, block 8");
        assert_eq!(last, 13);
    }

    #[test]
    fn join_fingerprint_table_checks_stored_keys() {
        // Cross-type keys: t.k is Int, join against a Float-typed key
        // column — numeric equality must hold and the fingerprint bucket's
        // stored-key verification must reject non-equal keys that share a
        // bucket.
        let mut c = catalog();
        let schema = Schema::new(vec![
            Field::new("fk", DataType::Float),
            Field::new("u", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("f", schema);
        for i in 0..10 {
            b.push_row(&[Value::Float(i as f64), Value::Float(100.0 + i as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let plan = LogicalPlan::scan("t").join_on(LogicalPlan::scan("f"), col("k").eq(col("fk")));
        let batch = execute(&plan, &c, &ExecOptions::default()).unwrap();
        let rows = open_stream(&plan, &c, &ExecOptions::default())
            .unwrap()
            .collect_rows(64)
            .unwrap();
        assert_eq!(rows, batch.rows);
        assert_eq!(rows.len(), 200, "every t row matches exactly one f row");
    }

    fn shuffled(seed: u64) -> ExecOptions {
        ExecOptions {
            seed,
            shuffle_scan: true,
            ..Default::default()
        }
    }

    #[test]
    fn shuffled_scan_permutes_blocks_and_covers_every_row() {
        // An unsampled shuffled scan emits every row exactly once, in a
        // non-physical order (13 blocks of 16 rows — the identity
        // permutation would be astronomically unlucky across seeds).
        let c = catalog();
        let plan = LogicalPlan::scan("t");
        let mut permuted = false;
        for seed in 0..4 {
            let rows = open_stream(&plan, &c, &shuffled(seed))
                .unwrap()
                .collect_rows(64)
                .unwrap();
            assert_eq!(rows.len(), 200);
            let mut ids: Vec<u64> = rows.iter().map(|r| r.lineage[0]).collect();
            if ids.windows(2).any(|w| w[0] > w[1]) {
                permuted = true;
            }
            ids.sort_unstable();
            assert_eq!(ids, (0..200).collect::<Vec<u64>>(), "seed={seed}");
        }
        assert!(permuted, "no seed permuted the block order");
    }

    #[test]
    fn shuffled_scan_is_byte_reproducible_and_chunk_independent() {
        let c = catalog();
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.4 });
        let collect = |hint: usize| {
            open_stream(&plan, &c, &shuffled(9))
                .unwrap()
                .collect_rows(hint)
                .unwrap()
        };
        let a = collect(3);
        let b = collect(512);
        assert_eq!(a, b, "same seed, same realization, any chunk hint");
        let other = open_stream(&plan, &c, &shuffled(10))
            .unwrap()
            .collect_rows(64)
            .unwrap();
        assert_ne!(a, other, "the shuffle seed must matter");
    }

    #[test]
    fn shuffled_scan_keeps_physical_lineage_and_progress() {
        // Lineage ids stay physical row positions (the estimator keys on
        // them); progress counts emitted rows against the full table.
        let c = catalog();
        let plan = LogicalPlan::scan("t");
        let mut stream = open_stream(&plan, &c, &shuffled(5)).unwrap();
        // A shuffled scan under-fills the hint at block boundaries (one
        // permuted block per gather keeps the columnar copy contiguous).
        let chunk = stream.next_batch(48).unwrap();
        assert_eq!(chunk.rows(), 16, "one 16-row block per gather");
        for ids in &chunk.lineage {
            assert!(ids.iter().all(|&i| i < 200));
        }
        assert_eq!(stream.progress(), vec![(16, 200)]);
    }

    #[test]
    fn shuffled_scan_partitions_stay_disjoint_and_exhaustive() {
        let c = catalog();
        let plan = LogicalPlan::scan("t");
        let streams = open_stream_partitioned(&plan, &c, &shuffled(21), 3).unwrap();
        let mut all: Vec<u64> = Vec::new();
        for s in streams {
            let rows = s.collect_rows(32).unwrap();
            all.extend(rows.iter().map(|r| r.lineage[0]));
        }
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn shuffle_off_keeps_the_physical_scan_order() {
        // Off, the scan is the one physical range: lineage comes out in
        // row order.
        let c = catalog();
        let plan = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
        let off = ExecOptions {
            seed: 3,
            shuffle_scan: false,
            ..Default::default()
        };
        let rows = open_stream(&plan, &c, &off)
            .unwrap()
            .collect_rows(64)
            .unwrap();
        let ids: Vec<u64> = rows.iter().map(|r| r.lineage[0]).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "off-mode lineage must stay monotone (physical scan order)"
        );
    }

    /// One pulled chunk: its lineage ids and the coverage reported after it.
    type Pull = (Vec<Vec<u64>>, Vec<(u64, u64)>);

    /// Every pull until the stream drains.
    fn trace(stream: &mut ChunkStream, hint: usize) -> Vec<Pull> {
        let mut out = Vec::new();
        loop {
            let chunk = stream.next_batch(hint).unwrap();
            let exhausted = chunk.is_empty();
            out.push((chunk.lineage, stream.progress()));
            if exhausted {
                return out;
            }
        }
    }

    #[test]
    fn physical_scan_is_the_one_range_order() {
        // "Physical = shuffled with the identity order", checked: the scan
        // leaf the builder makes with the flag off behaves — chunk
        // boundaries, lineage ids, coverage after every chunk — like a
        // one-range visit order over the worker's slice written out by
        // hand, and the plain scan matches plain arithmetic.
        fn scan_leaf(node: &mut Node) -> &mut Node {
            match node {
                Node::Filter { input, .. } => scan_leaf(input),
                leaf => leaf,
            }
        }
        let c = catalog();
        let scan = LogicalPlan::scan("t");
        let plans = [
            scan.clone(),
            scan.clone().sample(SamplingMethod::Bernoulli { p: 0.5 }),
            scan.clone().sample(SamplingMethod::System { p: 0.5 }),
            scan.clone().filter(col("k").lt(lit(3i64))),
        ];
        let opts = ExecOptions {
            seed: 11,
            ..Default::default()
        };
        for (plan, parts, hint) in plans.iter().flat_map(|plan| {
            [1usize, 3]
                .into_iter()
                .flat_map(move |parts| [1, 7, 4096, usize::MAX].map(|hint| (plan, parts, hint)))
        }) {
            let mut built = open_stream_partitioned(plan, &c, &opts, parts).unwrap();
            let mut by_hand = open_stream_partitioned(plan, &c, &opts, parts).unwrap();
            for (w, (built, by_hand)) in built.iter_mut().zip(&mut by_hand).enumerate() {
                // 200 rows in 13 blocks of 16: worker w owns blocks
                // [13·w/parts, 13·(w+1)/parts).
                let start = (13 * w / parts * 16) as u64;
                let end = ((13 * (w + 1) / parts * 16) as u64).min(200);
                let Node::Scan {
                    order,
                    at,
                    offset,
                    done,
                    total,
                    ..
                } = scan_leaf(&mut by_hand.root)
                else {
                    panic!("these chains bottom out in a scan");
                };
                (*order, *at, *offset, *done, *total) = (vec![(start, end)], 0, 0, 0, end - start);
                let got = trace(built, hint);
                assert_eq!(got, trace(by_hand, hint), "parts={parts} w={w} hint={hint}");
                if *plan == scan {
                    let step = (hint as u64).min(end - start);
                    let mut want: Vec<_> = (1..=(end - start).div_ceil(step))
                        .map(|k| {
                            let from = start + (k - 1) * step;
                            let upto = (start + k * step).min(end);
                            (
                                vec![(from..upto).collect()],
                                vec![(upto - start, end - start)],
                            )
                        })
                        .collect();
                    want.push((vec![vec![]], vec![(end - start, end - start)]));
                    assert_eq!(got, want, "parts={parts} w={w} hint={hint}");
                }
            }
        }
    }

    #[test]
    fn shuffled_scan_refuses_shared_hubs() {
        let c = catalog();
        let hub = Arc::new(SharedTableScan::new(c.get("t").unwrap(), 64));
        let err = open_shared_stream(&LogicalPlan::scan("t"), &c, &shuffled(1), &hub).unwrap_err();
        assert!(err.to_string().contains("shared"), "{err}");
    }

    #[test]
    fn union_streams_in_one_pass_over_one_prefix() {
        // Both branches are read off one scan: lineage ascends across the
        // whole stream (a second pass would start over at row 0), no tuple
        // repeats, and the coverage is that one scan's prefix.
        let c = catalog();
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p: 0.5 })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 }));
        let mut stream = open_stream(&plan, &c, &ExecOptions::default()).unwrap();
        let (mut ids, mut scanned) = (Vec::new(), 0);
        loop {
            let chunk = stream.next_batch(16).unwrap();
            let (consumed, available) = stream.progress()[0];
            assert!(consumed >= scanned && available == 200);
            assert!(chunk.lineage[0].iter().all(|&id| id < consumed));
            scanned = consumed;
            if chunk.is_empty() {
                break;
            }
            ids.extend_from_slice(&chunk.lineage[0]);
        }
        assert_eq!(scanned, 200);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "one ascending pass");
        // Each row is in the union with probability 1 − 0.5² = 0.75.
        assert!((120..180).contains(&ids.len()), "{} of 200", ids.len());
    }

    #[test]
    fn a_system_union_keeps_every_row_of_a_kept_block() {
        // A block's rows share its lineage id: a union that keeps the block
        // keeps all of them, not one row per id.
        let plan = LogicalPlan::scan("t")
            .sample(SamplingMethod::System { p: 1.0 })
            .union_samples(LogicalPlan::scan("t").sample(SamplingMethod::System { p: 0.5 }));
        let rows = open_stream(&plan, &catalog(), &ExecOptions::default())
            .unwrap()
            .collect_rows(16)
            .unwrap();
        assert_eq!(rows.len(), 200);
    }

    #[test]
    fn a_union_over_a_join_keeps_a_tuple_one_branch_keeps_whole() {
        // Branch 1 keeps half of t and all of d, branch 2 all of t and none
        // of d: each scan on its own keeps every row some branch keeps —
        // all of t, all of d — but only branch 1's tuples are in the union,
        // exactly the tuples branch 1 alone realizes under the same seed
        // (its samplers take the first seeds either way).
        let c = catalog();
        let branch = |pt: f64, pd: f64| {
            LogicalPlan::scan("t")
                .sample(SamplingMethod::Bernoulli { p: pt })
                .join_on(
                    LogicalPlan::scan("d").sample(SamplingMethod::Bernoulli { p: pd }),
                    col("k").eq(col("dk")),
                )
        };
        let union = branch(0.5, 1.0).union_samples(branch(1.0, 0.0));
        for seed in 0..4 {
            let opts = ExecOptions {
                seed,
                ..Default::default()
            };
            let rows = open_stream(&union, &c, &opts)
                .unwrap()
                .collect_rows(32)
                .unwrap();
            let alone = open_stream(&branch(0.5, 1.0), &c, &opts)
                .unwrap()
                .collect_rows(32)
                .unwrap();
            assert_eq!(rows, alone, "seed {seed}");
            assert!(rows.len() > 50 && rows.len() < 150, "{}", rows.len());
            // At four workers the same tuples come out, sliced.
            let sliced: Vec<Row> = open_stream_partitioned(&union, &c, &opts, 4)
                .unwrap()
                .into_iter()
                .flat_map(|s| drain(s, 7))
                .collect();
            assert_eq!(sliced, rows, "seed {seed}");
        }
    }

    /// The family every stream of `plan`'s 1- and 3-way opens reports (they
    /// must agree).
    fn family(c: &Catalog, plan: &LogicalPlan) -> Vec<RelSet> {
        let opts = ExecOptions {
            seed: 3,
            ..Default::default()
        };
        let one = open_stream(plan, c, &opts).unwrap().distinct();
        for s in open_stream_partitioned(plan, c, &opts, 3).unwrap() {
            assert_eq!(s.distinct(), one, "workers share the one build");
        }
        one
    }

    #[test]
    fn lineage_is_distinct_unless_some_relation_has_block_lineage() {
        let c = catalog();
        let (t, d) = (RelSet::singleton(0), RelSet::singleton(1));
        let bernoulli = SamplingMethod::Bernoulli { p: 0.5 };
        let system = SamplingMethod::System { p: 0.5 };
        let on = || col("k").eq(col("dk"));
        let sampled = |m: &SamplingMethod| LogicalPlan::scan("t").sample(m.clone());
        assert_eq!(family(&c, &LogicalPlan::scan("t")), vec![t]);
        assert_eq!(
            family(&c, &sampled(&bernoulli).filter(col("v").lt(lit(9.0)))),
            vec![t]
        );
        // Every row of a sampled block carries the block's id.
        assert_eq!(family(&c, &sampled(&system)), vec![]);
        let union = sampled(&bernoulli).union_samples(sampled(&SamplingMethod::Wor { size: 9 }));
        assert_eq!(family(&c, &union), vec![t]);
        // `d`'s keys are unique: a `t` row matches one `d` row at most, so
        // the join is distinct on `{t}` — unless `t`'s ids are blocks.
        let d_side = LogicalPlan::scan("d").sample(bernoulli.clone());
        assert_eq!(
            family(&c, &sampled(&bernoulli).join_on(d_side.clone(), on())),
            vec![t]
        );
        assert_eq!(
            family(&c, &sampled(&system).join_on(d_side.clone(), on())),
            vec![]
        );
        let d_blocks = LogicalPlan::scan("d").sample(system.clone());
        assert_eq!(
            family(&c, &sampled(&bernoulli).join_on(d_blocks, on())),
            vec![t]
        );
        // Built on `t`, whose keys repeat: only the pair is distinct.
        let t_build = d_side.clone().join_on(sampled(&bernoulli), on());
        assert_eq!(family(&c, &t_build), vec![t.union(d)]);
        // A keyless join pairs each probe row with every build row.
        assert_eq!(
            family(&c, &sampled(&bernoulli).cross(d_side)),
            vec![t.union(d)]
        );
    }

    #[test]
    fn a_two_row_bucket_keeps_the_probe_side_out_of_the_family() {
        // `e`'s ten rows carry five keys, two rows each: every `t` row
        // with a key below 5 meets two of them, in build order.
        let mut c = catalog();
        let schema = Schema::new(vec![
            Field::new("ek", DataType::Int),
            Field::new("x", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("e", schema);
        for i in 0..10 {
            b.push_row(&[Value::Int(i % 5), Value::Float(i as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let plan = LogicalPlan::scan("t").join_on(LogicalPlan::scan("e"), col("k").eq(col("ek")));
        assert_eq!(family(&c, &plan), vec![RelSet::full(2)]);
        let rows = open_stream(&plan, &c, &ExecOptions::default())
            .unwrap()
            .collect_rows(64)
            .unwrap();
        assert_eq!(
            rows,
            execute(&plan, &c, &ExecOptions::default()).unwrap().rows
        );
        let t_ids: HashSet<u64> = rows.iter().map(|r| r.lineage[0]).collect();
        assert_eq!((rows.len(), t_ids.len()), (200, 100));
    }

    #[test]
    fn progress_tree_flattens_union_free_joins() {
        let c = catalog();
        let plan = LogicalPlan::scan("t").join_on(LogicalPlan::scan("d"), col("k").eq(col("dk")));
        let mut stream = open_stream(&plan, &c, &ExecOptions::default()).unwrap();
        stream.next_batch(32).unwrap();
        let cov = stream.progress();
        assert_eq!(cov.len(), 2, "probe relation first, build relation after");
        assert_eq!(cov[1], (1, 1), "materialized build side is fully covered");
    }
}
