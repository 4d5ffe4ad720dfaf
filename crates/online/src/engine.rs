//! The serving layer: an owned [`Engine`] hands out [`Session`]s; a
//! session builds queries with one fluent surface and runs them online
//! (streaming snapshots through a [`QueryHandle`]), synchronously, or as a
//! one-shot batch.
//!
//! ```text
//! Engine (catalog, defaults, admission, shared scans)
//!   └─ session() ─▶ Session (its queries' options, seeded per session)
//!        └─ query(sql) / query_plan(&plan) ─▶ QueryBuilder
//!             .within(0.05, 0.95).seed(7)...
//!             ├─ .run() / .run_with(cb) ─▶ QueryResult   (synchronous)
//!             ├─ .online()              ─▶ QueryHandle   (spawned thread:
//!             │                            snapshot iterator + cancel + wait)
//!             └─ .batch() / .exact()    ─▶ QueryResult   (the same stream,
//!                                          drained and read out once)
//! ```
//!
//! ## Seeds
//!
//! Each session starts from the engine's default options with a stable seed,
//! `splitmix64(default_seed + ordinal)`, so the i-th session of an engine
//! always sees the same sample realization — estimates stay *comparable
//! across sessions and restarts* in the spirit of coordinated sampling
//! (keep the randomness fixed, vary the query). A client sets its session's
//! options by name ([`QueryOptions::set`]); `.seed(s)` overrides one query.
//!
//! ## Admission control
//!
//! [`EngineBuilder::max_concurrent`] bounds the queries in flight; past the
//! bound, terminals fail fast with [`Error::Busy`] instead of queueing —
//! the serving front-end decides whether to retry or shed load.
//!
//! ## Shared scans
//!
//! With [`EngineBuilder::shared_scans`] enabled, concurrent sequential
//! queries over the same table attach to one circular columnar scan
//! ([`SharedTableScan`]): N queries cost ~1 table scan. A query attaching
//! mid-scan starts at the hub's current head — a scan-prefix *origin
//! shift* that the Proposition-8 WOR(consumed, total) scaling is invariant
//! to, so estimates and intervals are exactly as if the query had its own
//! scan (see `docs/estimation-notes.md`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use sa_core::hash::splitmix64;
use sa_exec::shared::{DEFAULT_BUS_ROWS, DEFAULT_MAX_LAG_ROWS};
use sa_exec::{shared_scan_needs, ScanObs, SharedScanStats, SharedTableScan};
use sa_expr::Expr;
use sa_obs::{Counter, EventKind, Gauge, Histogram, MetricsSnapshot, Registry};
use sa_plan::{LogicalPlan, StopReason};
use sa_sql::plan_online_grouped_sql;
use sa_storage::Catalog;

use crate::api::{QueryOptions, QueryResult, Snapshot};
use crate::batch::drain_batch;
use crate::driver::{drive, Listeners, RunCtx};
use crate::error::Error;
use crate::parallel::PoolObs;
use crate::Result;

/// Everything sessions share, behind one allocation.
struct EngineInner {
    catalog: Catalog,
    defaults: QueryOptions,
    max_concurrent: usize,
    shared_scans: bool,
    bus_rows: usize,
    max_lag_rows: u64,
    /// Shared circular scan hubs, per table, created on first use. A table
    /// usually has one hub; projection pushdown can add column-pruned hubs
    /// beside the full one (a query reuses any hub whose column set covers
    /// its needs — see [`Engine::covering_hub`]).
    scans: Mutex<HashMap<String, Vec<Arc<SharedTableScan>>>>,
    /// Queries in flight (admission control).
    active: AtomicUsize,
    /// Session ordinal counter (seed derivation).
    sessions: AtomicU64,
    /// Query ordinal counter (event correlation ids).
    queries: AtomicU64,
    /// Metrics and event handles ([`EngineObs::disabled`] unless the
    /// engine was built with [`EngineBuilder::metrics`]).
    obs: EngineObs,
}

/// The engine's observability handles, pre-registered at build time so
/// every series exists from the first scrape (a counter that has never
/// fired still renders as `0`). Disabled handles (the default) turn every
/// update into one untaken branch — see the `sa-obs` crate docs for the
/// hot-path contract.
struct EngineObs {
    registry: Registry,
    sessions_opened: Counter,
    queries_started: Counter,
    /// Indexed by [`reason_ix`]: one labeled counter per stop reason.
    queries_finished: [Counter; 7],
    queries_rejected: Counter,
    query_errors: Counter,
    batch_queries: Counter,
    snapshots: Counter,
    rows_consumed: Counter,
    active_queries: Gauge,
    query_duration_us: Histogram,
    first_snapshot_us: Histogram,
    stop_scan_permille: Histogram,
    /// Handles the worker pool updates (cloned into each query's
    /// [`RunCtx`]).
    pool: PoolObs,
    /// Handles the scan layer updates (columns gathered, pages skipped by
    /// pushed-down predicates) — cloned into each query's [`RunCtx`].
    scan: ScanObs,
}

/// The fixed index of each stop reason in `queries_finished` (and the
/// `reason=` label value it was registered under).
fn reason_ix(reason: StopReason) -> usize {
    match reason {
        StopReason::CiConverged => 0,
        StopReason::RowBudget => 1,
        StopReason::TimeBudget => 2,
        StopReason::Exhausted => 3,
        StopReason::Cancelled => 4,
        StopReason::Deadline => 5,
        StopReason::Degraded => 6,
    }
}

/// [`StopReason`]'s display form as a static string (journal events store
/// no allocations).
fn reason_str(reason: StopReason) -> &'static str {
    match reason {
        StopReason::CiConverged => "ci-converged",
        StopReason::RowBudget => "row-budget",
        StopReason::TimeBudget => "time-budget",
        StopReason::Exhausted => "exhausted",
        StopReason::Cancelled => "cancelled",
        StopReason::Deadline => "deadline",
        StopReason::Degraded => "degraded",
    }
}

impl EngineObs {
    fn new(registry: Registry) -> EngineObs {
        // Shared-scan counters are owned by the hubs (`with_observer`), but
        // registering the names here makes the series visible before the
        // first hub exists.
        registry.counter("sa_shared_scan_rows_gathered_total");
        registry.counter("sa_shared_scan_rows_served_total");
        registry.counter("sa_shared_scan_attach_total");
        registry.counter("sa_shared_scan_detach_total");
        registry.counter("sa_shared_scan_lag_stalls_total");
        EngineObs {
            sessions_opened: registry.counter("sa_sessions_opened_total"),
            queries_started: registry.counter("sa_queries_started_total"),
            queries_finished: [
                registry.counter("sa_queries_finished_total{reason=\"ci-converged\"}"),
                registry.counter("sa_queries_finished_total{reason=\"row-budget\"}"),
                registry.counter("sa_queries_finished_total{reason=\"time-budget\"}"),
                registry.counter("sa_queries_finished_total{reason=\"exhausted\"}"),
                registry.counter("sa_queries_finished_total{reason=\"cancelled\"}"),
                registry.counter("sa_queries_finished_total{reason=\"deadline\"}"),
                registry.counter("sa_queries_finished_total{reason=\"degraded\"}"),
            ],
            queries_rejected: registry.counter("sa_queries_rejected_total"),
            query_errors: registry.counter("sa_query_errors_total"),
            batch_queries: registry.counter("sa_batch_queries_total"),
            snapshots: registry.counter("sa_snapshots_emitted_total"),
            rows_consumed: registry.counter("sa_rows_consumed_total"),
            active_queries: registry.gauge("sa_active_queries"),
            query_duration_us: registry.histogram("sa_query_duration_us"),
            first_snapshot_us: registry.histogram("sa_time_to_first_snapshot_us"),
            stop_scan_permille: registry.histogram("sa_stop_scan_permille"),
            pool: PoolObs {
                chunks: registry.counter("sa_worker_chunks_total"),
                rows: registry.counter("sa_worker_rows_total"),
                stalls: registry.counter("sa_worker_backpressure_stalls_total"),
                merge_us: registry.histogram("sa_coordinator_merge_us"),
                panics: registry.counter("sa_worker_panics_contained_total"),
            },
            scan: ScanObs::new(&registry),
            registry,
        }
    }

    fn disabled() -> EngineObs {
        EngineObs {
            registry: Registry::disabled(),
            sessions_opened: Counter::default(),
            queries_started: Counter::default(),
            queries_finished: Default::default(),
            queries_rejected: Counter::default(),
            query_errors: Counter::default(),
            batch_queries: Counter::default(),
            snapshots: Counter::default(),
            rows_consumed: Counter::default(),
            active_queries: Gauge::default(),
            query_duration_us: Histogram::default(),
            first_snapshot_us: Histogram::default(),
            stop_scan_permille: Histogram::default(),
            pool: PoolObs::default(),
            scan: ScanObs::default(),
        }
    }
}

/// The owned query engine: a catalog plus the serving policy (default
/// options, per-session seeds, admission control, shared scan hubs).
/// Cheap to clone — clones share the same engine state.
///
/// ```
/// use sa_online::Engine;
/// use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
///
/// let mut catalog = Catalog::new();
/// let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
/// let mut b = TableBuilder::new("t", schema);
/// for i in 0..20_000 { b.push_row(&[Value::Float(1.0 + (i % 5) as f64)]).unwrap(); }
/// catalog.register(b.finish().unwrap()).unwrap();
///
/// let engine = Engine::new(catalog);
/// let session = engine.session();
/// let result = session
///     .query("SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT)")
///     .within(0.05, 0.95)
///     .seed(7)
///     .run()
///     .unwrap();
/// let agg = &result.snapshot.as_scalar().unwrap().aggs[0];
/// assert!((agg.estimate - 60_000.0).abs() < 6_000.0);
/// ```
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

/// Configures and builds an [`Engine`].
pub struct EngineBuilder {
    catalog: Catalog,
    defaults: QueryOptions,
    max_concurrent: usize,
    shared_scans: bool,
    bus_rows: usize,
    max_lag_rows: u64,
    metrics: bool,
}

impl EngineBuilder {
    /// Default [`QueryOptions`] every query starts from (the builder's
    /// setters override per query; the seed is further specialized per
    /// session).
    pub fn defaults(mut self, defaults: QueryOptions) -> EngineBuilder {
        self.defaults = defaults;
        self
    }

    /// Bound the queries in flight: past the bound, query terminals fail
    /// fast with [`Error::Busy`]. Default: unbounded.
    pub fn max_concurrent(mut self, max: usize) -> EngineBuilder {
        self.max_concurrent = max;
        self
    }

    /// Attach concurrent single-worker queries over one table to a shared
    /// circular scan of their spine table (N queries ≈ 1 table scan).
    /// Default off. The realized sample is the same either way; what a hub
    /// changes is the arrival order — rows come from wherever its head is
    /// — and so the mid-stream snapshots and where a CI rule stops, which
    /// then depend on engine history. A private scan starts at row 0.
    pub fn shared_scans(mut self, on: bool) -> EngineBuilder {
        self.shared_scans = on;
        self
    }

    /// Tune the shared scan hubs: rows per bus chunk and the maximum lag
    /// (in rows) the fastest reader may build over the slowest before it
    /// blocks.
    pub fn scan_window(mut self, bus_rows: usize, max_lag_rows: u64) -> EngineBuilder {
        self.bus_rows = bus_rows;
        self.max_lag_rows = max_lag_rows;
        self
    }

    /// Record metrics and structured events into an [`sa_obs::Registry`]
    /// owned by the engine — read them back via [`Engine::metrics`],
    /// [`Engine::registry`] or [`Engine::render_prometheus`]. Default off:
    /// every would-be metric update is then a single untaken branch, and
    /// instrumentation can never perturb the realized sample either way
    /// (pinned by `tests/observability.rs`).
    pub fn metrics(mut self, on: bool) -> EngineBuilder {
        self.metrics = on;
        self
    }

    /// Build the engine.
    pub fn build(self) -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                catalog: self.catalog,
                defaults: self.defaults,
                max_concurrent: self.max_concurrent,
                shared_scans: self.shared_scans,
                bus_rows: self.bus_rows,
                max_lag_rows: self.max_lag_rows,
                scans: Mutex::new(HashMap::new()),
                active: AtomicUsize::new(0),
                sessions: AtomicU64::new(0),
                queries: AtomicU64::new(0),
                obs: if self.metrics {
                    EngineObs::new(Registry::new())
                } else {
                    EngineObs::disabled()
                },
            }),
        }
    }
}

impl Engine {
    /// An engine over `catalog` with default policy (no concurrency bound,
    /// private scans, [`QueryOptions::default`] defaults).
    pub fn new(catalog: Catalog) -> Engine {
        Engine::builder(catalog).build()
    }

    /// Start configuring an engine over `catalog`.
    pub fn builder(catalog: Catalog) -> EngineBuilder {
        EngineBuilder {
            catalog,
            defaults: QueryOptions::default(),
            max_concurrent: usize::MAX,
            shared_scans: false,
            bus_rows: DEFAULT_BUS_ROWS,
            max_lag_rows: DEFAULT_MAX_LAG_ROWS,
            metrics: false,
        }
    }

    /// The engine's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// Open a session: a stable identity whose options are the engine's
    /// defaults with a seed derived from the default seed and the session
    /// ordinal, so the i-th session always samples the same realization
    /// (override per query with [`QueryBuilder::seed`]).
    pub fn session(&self) -> Session {
        let ordinal = self.inner.sessions.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.obs.sessions_opened.inc();
        let mut opts = self.inner.defaults.clone();
        opts.seed = splitmix64(opts.seed.wrapping_add(ordinal));
        Session {
            engine: self.clone(),
            id: ordinal,
            opts,
        }
    }

    /// Queries currently in flight (admitted, not yet finished).
    pub fn active_queries(&self) -> usize {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// The engine's metrics registry — disabled (every read empty, every
    /// write a no-op) unless the engine was built with
    /// [`EngineBuilder::metrics`]. Hand it to custom components (extra
    /// [`SharedTableScan::with_observer`] hubs, a server front-end) so
    /// their series land in the same scrape.
    pub fn registry(&self) -> &Registry {
        &self.inner.obs.registry
    }

    /// A point-in-time snapshot of every engine metric (empty when metrics
    /// are off).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.obs.registry.snapshot()
    }

    /// Render the engine's metrics in Prometheus text exposition format,
    /// with live per-table shared-scan gauges appended (attached cursors
    /// and hub head position per hub). Empty when metrics are off.
    pub fn render_prometheus(&self) -> String {
        if !self.inner.obs.registry.enabled() {
            return String::new();
        }
        let mut out = self.inner.obs.registry.render_prometheus();
        let scans = self.inner.scans.lock().unwrap_or_else(|e| e.into_inner());
        let mut tables: Vec<&String> = scans.keys().collect();
        tables.sort();
        // One series per hub: the full-column hub keeps the bare
        // `{table=...}` labels; pruned hubs add their column set so the
        // series stay distinct.
        let labels = |t: &str, hub: &SharedTableScan| match hub.columns() {
            None => format!("{{table=\"{t}\"}}"),
            Some(cols) => {
                let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
                format!("{{table=\"{t}\",cols=\"{}\"}}", cols.join(","))
            }
        };
        if !tables.is_empty() {
            out.push_str("# TYPE sa_shared_scan_attached gauge\n");
            for t in &tables {
                for hub in &scans[t.as_str()] {
                    out.push_str(&format!(
                        "sa_shared_scan_attached{} {}\n",
                        labels(t, hub),
                        hub.stats().attached
                    ));
                }
            }
            out.push_str("# TYPE sa_shared_scan_head gauge\n");
            for t in &tables {
                for hub in &scans[t.as_str()] {
                    out.push_str(&format!(
                        "sa_shared_scan_head{} {}\n",
                        labels(t, hub),
                        hub.stats().head
                    ));
                }
            }
        }
        drop(scans);
        // Process-global resilience counters: checksum verification and
        // retry totals from the storage layer (which has no engine handle)
        // and the deterministic fault-injection registry. A zero reads as
        // "no faults seen"; the fault-site series only appear while a
        // `--fault` spec is installed.
        out.push_str("# TYPE sa_storage_read_retries_total counter\n");
        out.push_str(&format!(
            "sa_storage_read_retries_total {}\n",
            sa_storage::retries_total()
        ));
        out.push_str("# TYPE sa_storage_corrupt_pages_total counter\n");
        out.push_str(&format!(
            "sa_storage_corrupt_pages_total {}\n",
            sa_storage::corrupt_pages_total()
        ));
        let sites = sa_fault::snapshot();
        if !sites.is_empty() {
            out.push_str("# TYPE sa_fault_site_evals_total counter\n");
            for (site, evals, _) in &sites {
                out.push_str(&format!(
                    "sa_fault_site_evals_total{{site=\"{site}\"}} {evals}\n"
                ));
            }
            out.push_str("# TYPE sa_fault_site_fired_total counter\n");
            for (site, _, fired) in &sites {
                out.push_str(&format!(
                    "sa_fault_site_fired_total{{site=\"{site}\"}} {fired}\n"
                ));
            }
        }
        out
    }

    /// The shared scan hub for `table`, created on first use — public so
    /// tests and tools can warm a hub to a given head position or hold a
    /// gate cursor on it. Works regardless of the `shared_scans` toggle
    /// (which only controls whether *queries* attach automatically).
    pub fn shared_scan(&self, table: &str) -> Result<Arc<SharedTableScan>> {
        self.covering_hub(table, None)
    }

    /// A hub over `table` whose column set covers `needed` (`None` = every
    /// column), reusing any existing covering hub — the full hub serves
    /// every pruned query that arrives after it — and creating a pruned
    /// one keyed to exactly `needed` otherwise. Creating one first drops
    /// the table's hubs no cursor reads, so a long-running engine keeps no
    /// hub (and no gauge series) per column set it has ever seen; a query
    /// already holding a dropped hub's `Arc` still attaches to it.
    fn covering_hub(
        &self,
        table: &str,
        needed: Option<Vec<usize>>,
    ) -> Result<Arc<SharedTableScan>> {
        let mut scans = self.inner.scans.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hubs) = scans.get(table) {
            if let Some(hub) = hubs.iter().find(|h| h.covers(needed.as_deref())) {
                return Ok(Arc::clone(hub));
            }
        }
        let t = self.inner.catalog.get(table)?;
        let mut hub = SharedTableScan::new(t, self.inner.bus_rows)
            .with_max_lag_rows(self.inner.max_lag_rows)
            .with_observer(&self.inner.obs.registry);
        if let Some(cols) = needed {
            hub = hub.with_columns(cols);
        }
        let hub = Arc::new(hub);
        let hubs = scans.entry(table.to_string()).or_default();
        hubs.retain(|h| h.stats().attached > 0);
        hubs.push(Arc::clone(&hub));
        Ok(hub)
    }

    /// Live stats of `table`'s shared scan hub, if one exists (the
    /// full-column hub when both full and pruned hubs are live).
    pub fn scan_stats(&self, table: &str) -> Option<SharedScanStats> {
        let scans = self.inner.scans.lock().unwrap_or_else(|e| e.into_inner());
        let hubs = scans.get(table)?;
        hubs.iter()
            .find(|h| h.columns().is_none())
            .or_else(|| hubs.first())
            .map(|h| h.stats())
    }

    /// Admit one query for `session` or fail fast with [`Error::Busy`]
    /// (counted as an admission rejection).
    fn admit(&self, session: u64) -> Result<AdmitGuard> {
        let max = self.inner.max_concurrent;
        let mut cur = self.inner.active.load(Ordering::Relaxed);
        loop {
            if cur >= max {
                self.inner.obs.queries_rejected.inc();
                self.inner.obs.registry.record(EventKind::SessionRejected {
                    session,
                    active: cur as u64,
                });
                return Err(Error::Busy { active: cur, max });
            }
            match self.inner.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.obs.active_queries.add(1);
                    return Ok(AdmitGuard(self.clone()));
                }
                Err(now) => cur = now,
            }
        }
    }

    /// The shared hub over the plan's spine table that the query should
    /// attach to, if shared scans are on and the query runs on one worker.
    fn shared_hub(
        &self,
        plan: &LogicalPlan,
        group_by: &[Expr],
        opts: &QueryOptions,
    ) -> Result<Option<Arc<SharedTableScan>>> {
        if !self.inner.shared_scans || opts.parallelism != 1 || opts.shuffle_scan {
            // A shuffled scan's gather order is per-query state; it cannot
            // ride the hub's shared cursor, so it opens a private stream.
            return Ok(None);
        }
        let LogicalPlan::Aggregate { input, .. } = plan else {
            return Ok(None);
        };
        // Mirror the driver's pruning (full plan + GROUP BY keys) so the
        // hub's column set covers what the spine scan will ask for — its
        // attach can then never be rejected.
        let map = sa_plan::ScanColumnMap::analyze_with(plan, group_by);
        let (table, needed) = shared_scan_needs(input, &self.inner.catalog, &map)?;
        Ok(Some(self.covering_hub(table, needed)?))
    }

    /// How a query is wired into this engine: its cancellation flag, the
    /// shared hub its spine scan reads (if any), and the metric handles its
    /// workers and scans record into.
    fn run_ctx(
        &self,
        plan: &LogicalPlan,
        group_by: &[Expr],
        opts: &QueryOptions,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Result<RunCtx> {
        Ok(RunCtx {
            cancel,
            shared: self.shared_hub(plan, group_by, opts)?,
            pool: self.inner.obs.pool.clone(),
            scan_obs: self.inner.obs.scan.clone(),
        })
    }
}

/// Decrements the in-flight counter when a query finishes (however it
/// finishes).
struct AdmitGuard(Engine);

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.0.inner.active.fetch_sub(1, Ordering::AcqRel);
        self.0.inner.obs.active_queries.add(-1);
    }
}

/// A client identity handed out by [`Engine::session`]: the engine handle
/// and the [`QueryOptions`] its queries start from (its option state).
#[derive(Clone)]
pub struct Session {
    engine: Engine,
    id: u64,
    opts: QueryOptions,
}

impl Session {
    /// The session's ordinal (1-based, in `Engine::session` call order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session's seed (the default for its queries).
    pub fn seed(&self) -> u64 {
        self.opts.seed
    }

    /// The options the session's next queries start from, to set by name
    /// ([`QueryOptions::set`]) or by field.
    pub fn options_mut(&mut self) -> &mut QueryOptions {
        &mut self.opts
    }

    /// The engine this session belongs to.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Build a query from SQL. `GROUP BY` decides scalar vs. grouped; a
    /// `WITHIN ε PERCENT CONFIDENCE γ` clause becomes the CI stopping
    /// target (overriding one set on the builder).
    pub fn query(&self, sql: &str) -> QueryBuilder {
        self.builder(QueryInput::Sql(sql.to_string()))
    }

    /// Build a query from a logical plan (the root must be an aggregate).
    /// Add [`QueryBuilder::group_by`] expressions for a grouped run.
    pub fn query_plan(&self, plan: &LogicalPlan) -> QueryBuilder {
        self.builder(QueryInput::Plan(plan.clone()))
    }

    fn builder(&self, input: QueryInput) -> QueryBuilder {
        QueryBuilder {
            engine: self.engine.clone(),
            session: self.id,
            input,
            group_by: Vec::new(),
            opts: self.opts.clone(),
        }
    }
}

enum QueryInput {
    Sql(String),
    Plan(LogicalPlan),
}

/// One fluent surface for configuring and running a query.
pub struct QueryBuilder {
    engine: Engine,
    session: u64,
    input: QueryInput,
    group_by: Vec<Expr>,
    pub(crate) opts: QueryOptions,
}

impl QueryBuilder {
    /// Stop when every (tracked) aggregate's relative CI half-width is
    /// ≤ `epsilon` at `confidence` — the `WITHIN ε PERCENT CONFIDENCE γ`
    /// clause.
    pub fn within(mut self, epsilon: f64, confidence: f64) -> QueryBuilder {
        self.opts.rule = self.opts.rule.with_ci_target(epsilon, confidence);
        self
    }

    /// Seed for the plan's sampling operators, overriding the session's
    /// seed for this query.
    pub fn seed(mut self, seed: u64) -> QueryBuilder {
        self.opts.seed = seed;
        self
    }

    /// Stop after consuming at least `rows` result tuples.
    pub fn rows(mut self, rows: u64) -> QueryBuilder {
        self.opts.rule = self.opts.rule.with_row_budget(rows);
        self
    }

    /// Stop after `budget` of wall-clock time.
    pub fn time(mut self, budget: Duration) -> QueryBuilder {
        self.opts.rule = self.opts.rule.with_time_budget(budget);
        self
    }

    /// Hard wall-clock deadline, checked on every tick (see
    /// [`QueryOptions::deadline`]; distinct from the soft [`QueryBuilder::time`]
    /// budget, and winning over it). A zero `deadline` stops the query at
    /// its first tick; by name, `deadline 0` clears the deadline instead.
    pub fn deadline(mut self, deadline: Duration) -> QueryBuilder {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Confidence level for reported intervals when no CI target is set.
    pub fn confidence(mut self, confidence: f64) -> QueryBuilder {
        self.opts.confidence = confidence;
        self
    }

    /// Target rows per pulled chunk.
    pub fn chunk_rows(mut self, rows: usize) -> QueryBuilder {
        self.opts.chunk_rows = rows;
        self
    }

    /// Worker threads driving the sampled plan (`> 1` disables shared-scan
    /// attach for this query).
    pub fn jobs(mut self, jobs: usize) -> QueryBuilder {
        self.opts.parallelism = jobs;
        self
    }

    /// Grow the pull hint as the estimate stabilizes (`jobs = 1` only;
    /// see [`QueryOptions::adaptive_chunks`]).
    pub fn adaptive_chunks(mut self, on: bool) -> QueryBuilder {
        self.opts.adaptive_chunks = on;
        self
    }

    /// Visit the base table's blocks in a seeded random permutation —
    /// restores the random-scan-order assumption on physically ordered
    /// tables (see [`QueryOptions::shuffle_scan`]).
    pub fn shuffle_scan(mut self, on: bool) -> QueryBuilder {
        self.opts.shuffle_scan = on;
        self
    }

    /// Grouped runs: judge the CI target on only the top-`k` groups by
    /// absolute estimate.
    pub fn ci_top_k(mut self, k: usize) -> QueryBuilder {
        self.opts.ci_top_k = Some(k);
        self
    }

    /// Group a plan query by these expressions (SQL queries carry their
    /// own `GROUP BY`).
    pub fn group_by(mut self, exprs: Vec<Expr>) -> QueryBuilder {
        self.group_by = exprs;
        self
    }

    /// Replace the whole option set (the other setters tweak fields on top
    /// of the session's options; this swaps everything, seed included).
    pub fn options(mut self, opts: QueryOptions) -> QueryBuilder {
        self.opts = opts;
        self
    }

    /// Run synchronously to the stopping rule. Nobody sees a mid-run
    /// snapshot, so the ticks only judge the stop — from the row count and
    /// the clock — and the accumulator is read out once, at the stop, into
    /// the result [`QueryBuilder::run_with`] returns for the same options
    /// (bar `elapsed`). A CI target is judged on every tick's interval, so
    /// under one (or `adaptive_chunks`) every tick is still read out.
    pub fn run(self) -> Result<QueryResult> {
        self.run_here(None)
    }

    /// Run synchronously, lending `on_snapshot` every snapshot after its
    /// tick (including the final one); a caller that keeps one clones it.
    pub fn run_with(self, mut on_snapshot: impl FnMut(&Snapshot)) -> Result<QueryResult> {
        self.run_here(Some(&mut on_snapshot))
    }

    /// Admit the query and run it on this thread.
    fn run_here(self, on_snapshot: Option<&mut dyn FnMut(&Snapshot)>) -> Result<QueryResult> {
        let _guard = self.engine.admit(self.session)?;
        execute(
            &self.engine,
            self.session,
            self.input,
            self.group_by,
            self.opts,
            None,
            on_snapshot,
        )
    }

    /// Run on a background thread, returning a [`QueryHandle`] that
    /// streams snapshots, supports cancellation, and yields the final
    /// result.
    pub fn online(self) -> Result<QueryHandle> {
        let guard = self.engine.admit(self.session)?;
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let engine = self.engine;
        let session = self.session;
        let input = self.input;
        let group_by = self.group_by;
        let opts = self.opts;
        let cancel_in = Arc::clone(&cancel);
        let join = thread::Builder::new()
            .name("sa-query".into())
            .spawn(move || {
                let _guard = guard; // released when the query finishes
                execute(
                    &engine,
                    session,
                    input,
                    group_by,
                    opts,
                    Some(cancel_in),
                    Some(&mut |snap: &Snapshot| {
                        // A receiver that went away is cancellation by
                        // disinterest, not an error.
                        let _ = tx.send(snap.clone());
                    }),
                )
            })
            .map_err(|e| Error::Unsupported(format!("cannot spawn query worker: {e}")))?;
        Ok(QueryHandle {
            cancel,
            rx,
            join: Some(join),
        })
    }

    /// Sub-sample the variance estimation of a scalar [`QueryBuilder::batch`]
    /// down to about `rows` tuples (see [`QueryOptions::subsample_target`]);
    /// with GROUP BY keys every terminal refuses it as
    /// [`Error::InvalidOptions`].
    pub fn subsample(mut self, rows: u64) -> QueryBuilder {
        self.opts.subsample_target = Some(rows);
        self
    }

    /// The paper's one-shot estimator: drain the whole sample — the very
    /// stream [`QueryBuilder::run`] opens for the same options — and read
    /// the estimates and intervals out once, into the [`QueryResult`] that
    /// run returns (one snapshot, [`StopReason::Exhausted`]). No stopping
    /// rule; at `jobs = 1` every number equals `.run()`'s exhaustion
    /// readout bit for bit, provided that run pulls fixed-size chunks
    /// (`adaptive_chunks = false`, the default). The batch ignores
    /// `adaptive_chunks`: a run that grows its pulls realizes the same
    /// sample but sums it across other chunk boundaries, so it agrees to
    /// float rounding (1e-9 relative), not to the bit.
    pub fn batch(self) -> Result<QueryResult> {
        self.drain(false)
    }

    /// Ground truth: [`QueryBuilder::batch`] over the plan with every
    /// sampling operator stripped (the SOA rewrite's sampling-free core),
    /// so each "estimate" is the exact aggregate with zero variance.
    pub fn exact(self) -> Result<QueryResult> {
        self.drain(true)
    }

    fn drain(self, strip_sampling: bool) -> Result<QueryResult> {
        let _guard = self.engine.admit(self.session)?;
        self.engine.inner.obs.batch_queries.inc();
        let (mut plan, group_by, opts) =
            resolve(&self.engine, self.input, self.group_by, self.opts)?;
        if strip_sampling {
            plan = sa_plan::rewrite(&plan, self.engine.catalog())?.core;
        }
        let ctx = self.engine.run_ctx(&plan, &group_by, &opts, None)?;
        drain_batch(&plan, &group_by, self.engine.catalog(), &opts, &ctx)
    }
}

/// Turn the builder's input into a runnable `(plan, group_by, options)`
/// triple: SQL is parsed and bound, its `WITHIN` clause overrides the CI
/// target, and its `GROUP BY` list decides scalar vs. grouped.
fn resolve(
    engine: &Engine,
    input: QueryInput,
    group_by: Vec<Expr>,
    mut opts: QueryOptions,
) -> Result<(LogicalPlan, Vec<Expr>, QueryOptions)> {
    match input {
        QueryInput::Sql(sql) => {
            if !group_by.is_empty() {
                return Err(Error::InvalidOptions(
                    "group_by() applies to plan queries; SQL queries carry their own GROUP BY"
                        .into(),
                ));
            }
            let (plan, group_by, rule) = plan_online_grouped_sql(&sql, engine.catalog())?;
            if let Some(rule) = rule {
                opts.rule.ci_target = rule.ci_target;
            }
            Ok((plan, group_by, opts))
        }
        QueryInput::Plan(plan) => Ok((plan, group_by, opts)),
    }
}

/// The scan fraction at stop, in permille: the *worst* (smallest)
/// per-relation coverage of the final snapshot — 1000 means every relation
/// was fully scanned.
fn scan_permille(progress: &[(u64, u64)]) -> u64 {
    progress
        .iter()
        .filter(|&&(_, available)| available > 0)
        .map(|&(consumed, available)| consumed.min(available) * 1000 / available)
        .min()
        .unwrap_or(1000)
}

/// The one dispatch point every progressive terminal funnels into:
/// resolve the input, pick the shared scan hub if shared scans apply, and
/// run the progressive loop. `on_snapshot` is the caller's, if it reads
/// snapshots; the metrics hear of every tick either way.
///
/// All instrumentation lives here and in the components the run context
/// carries — never inside the per-row paths — so an instrumented run
/// consumes the byte-identical sample realization an uninstrumented run
/// does (pinned by `tests/observability.rs`).
fn execute(
    engine: &Engine,
    session: u64,
    input: QueryInput,
    group_by: Vec<Expr>,
    opts: QueryOptions,
    cancel: Option<Arc<AtomicBool>>,
    on_snapshot: Option<&mut dyn FnMut(&Snapshot)>,
) -> Result<QueryResult> {
    let obs = &engine.inner.obs;
    let query = engine.inner.queries.fetch_add(1, Ordering::Relaxed) + 1;
    let (plan, group_by, opts) = resolve(engine, input, group_by, opts)?;
    let ctx = engine.run_ctx(&plan, &group_by, &opts, cancel)?;
    obs.queries_started.inc();
    obs.registry
        .record(EventKind::QueryStarted { session, query });
    let start = Instant::now();
    let mut first = true;
    let mut prev_rows = 0u64;
    let mut tick = |rows: u64| {
        if first {
            first = false;
            if obs.first_snapshot_us.enabled() {
                obs.first_snapshot_us
                    .record(start.elapsed().as_micros() as u64);
            }
        }
        obs.snapshots.inc();
        obs.rows_consumed.add(rows.saturating_sub(prev_rows));
        obs.registry
            .record(EventKind::SnapshotEmitted { query, rows });
        prev_rows = rows;
    };
    let listeners = Listeners {
        on_tick: Some(&mut tick),
        // Shorten the callback's lifetime to the metrics hook's.
        on_snapshot: on_snapshot.map(|f| f as &mut dyn FnMut(&Snapshot)),
    };
    let result = drive(
        &plan,
        &group_by,
        engine.catalog(),
        &opts,
        &ctx,
        true,
        listeners,
    );
    match &result {
        Ok(r) => {
            if obs.query_duration_us.enabled() {
                obs.query_duration_us
                    .record(start.elapsed().as_micros() as u64);
            }
            obs.queries_finished[reason_ix(r.reason)].inc();
            let permille = scan_permille(r.snapshot.progress());
            obs.stop_scan_permille.record(permille);
            obs.registry.record(EventKind::RuleFired {
                query,
                reason: reason_str(r.reason),
                scan_permille: permille,
            });
        }
        Err(_) => obs.query_errors.inc(),
    }
    result
}

/// A running online query: snapshots stream out as they are produced;
/// [`QueryHandle::cancel`] stops the loop at its next tick (the final
/// snapshot is still a valid mid-stream estimate, reported with
/// [`sa_plan::StopReason::Cancelled`]); [`QueryHandle::wait`] joins the
/// worker and returns the final [`QueryResult`]. Dropping the handle
/// cancels the query.
pub struct QueryHandle {
    cancel: Arc<AtomicBool>,
    rx: mpsc::Receiver<Snapshot>,
    join: Option<thread::JoinHandle<Result<QueryResult>>>,
}

impl QueryHandle {
    /// Ask the query to stop at its next snapshot tick. Idempotent; the
    /// loop finishes with [`sa_plan::StopReason::Cancelled`] unless a
    /// stopping rule or exhaustion wins the race.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Blocking iterator over the snapshots as the worker produces them;
    /// ends when the query finishes.
    pub fn snapshots(&self) -> impl Iterator<Item = Snapshot> + '_ {
        self.rx.iter()
    }

    /// The next snapshot if one is already queued (non-blocking).
    pub fn try_snapshot(&self) -> Option<Snapshot> {
        self.rx.try_recv().ok()
    }

    /// Has the worker finished (result ready, [`QueryHandle::wait`] will
    /// not block)?
    pub fn is_finished(&self) -> bool {
        self.join.as_ref().is_none_or(|j| j.is_finished())
    }

    /// Wait for the query to finish and return the final result.
    pub fn wait(mut self) -> Result<QueryResult> {
        let join = self.join.take().expect("wait consumes the handle");
        join.join()
            .map_err(|_| Error::Unsupported("query worker panicked".into()))?
    }
}

impl Drop for QueryHandle {
    fn drop(&mut self) {
        // An abandoned handle should not keep burning a worker (or an
        // admission slot) on a query nobody can observe any more.
        self.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_expr::col;
    use sa_plan::{AggSpec, StopReason};
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

    fn sum_plan(p: f64) -> LogicalPlan {
        LogicalPlan::scan("t")
            .sample(SamplingMethod::Bernoulli { p })
            .aggregate(vec![AggSpec::sum(sa_expr::col("v"), "s")])
    }

    #[test]
    fn sessions_get_stable_distinct_seeds() {
        let c = catalog(10);
        let a = Engine::new(c);
        let (s1, s2) = (a.session(), a.session());
        assert_eq!(s1.id(), 1);
        assert_eq!(s2.id(), 2);
        assert_ne!(s1.seed(), s2.seed());
        // A second engine with the same defaults derives the same seeds:
        // session i is reproducible across restarts.
        let b = Engine::new(catalog(10));
        assert_eq!(b.session().seed(), s1.seed());
        assert_eq!(b.session().seed(), s2.seed());
    }

    #[test]
    fn sql_group_by_becomes_a_grouped_snapshot() {
        let engine = Engine::new(catalog(4000));
        let r = engine
            .session()
            .query("SELECT k, SUM(v) AS s FROM t TABLESAMPLE (60 PERCENT) GROUP BY k")
            .seed(3)
            .run()
            .unwrap();
        let g = r.snapshot.as_grouped().expect("grouped variant");
        assert_eq!(g.groups.len(), 10);
        assert!(r.snapshot.as_scalar().is_none());
        // And the scalar query comes back scalar.
        let r = engine
            .session()
            .query("SELECT SUM(v) AS s FROM t TABLESAMPLE (60 PERCENT)")
            .run()
            .unwrap();
        assert!(r.snapshot.as_scalar().is_some());
    }

    #[test]
    fn sql_within_clause_sets_the_ci_target() {
        let engine = Engine::new(catalog(50_000));
        let r = engine
            .session()
            .query(
                "SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT) \
                 WITHIN 5 PERCENT CONFIDENCE 95",
            )
            .seed(4)
            .chunk_rows(512)
            .run()
            .unwrap();
        assert_eq!(r.reason, StopReason::CiConverged);
        assert!(r.snapshot.rel_half_width().unwrap() <= 0.05);
    }

    #[test]
    fn online_handle_streams_snapshots_and_waits() {
        let engine = Engine::new(catalog(5000));
        let handle = engine
            .session()
            .query_plan(&sum_plan(0.5))
            .seed(3)
            .chunk_rows(256)
            .online()
            .unwrap();
        let mut rows_seen = Vec::new();
        for snap in handle.snapshots() {
            rows_seen.push(snap.rows());
        }
        let r = handle.wait().unwrap();
        assert_eq!(r.reason, StopReason::Exhausted);
        assert_eq!(r.chunks as usize, rows_seen.len());
        assert!(rows_seen.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rows_seen.last().unwrap(), r.snapshot.rows());
    }

    #[test]
    fn cancellation_stops_with_a_valid_mid_stream_snapshot() {
        let engine = Engine::new(catalog(200_000));
        let handle = engine
            .session()
            .query_plan(&sum_plan(0.9))
            .seed(1)
            .chunk_rows(64)
            .online()
            .unwrap();
        // Cancel as soon as the first snapshot proves the loop is running.
        let first = handle.snapshots().next().expect("at least one snapshot");
        handle.cancel();
        let r = handle.wait().unwrap();
        assert_eq!(r.reason, StopReason::Cancelled);
        assert!(r.snapshot.rows() >= first.rows());
        let (consumed, available) = r.snapshot.progress()[0];
        assert!(consumed < available, "cancelled before exhaustion");
        // The mid-stream estimate still targets the full population.
        let est = r.snapshot.as_scalar().unwrap().aggs[0].estimate;
        let truth = 200_000.0 * 4.0; // v cycles 1..=7, mean 4.0
        assert!(
            (est - truth).abs() < 0.5 * truth,
            "estimate {est} vs {truth}"
        );
    }

    #[test]
    fn admission_control_rejects_past_the_bound_and_recovers() {
        let engine = Engine::builder(catalog(500_000)).max_concurrent(1).build();
        let handle = engine
            .session()
            .query_plan(&sum_plan(0.9))
            .chunk_rows(64)
            .online()
            .unwrap();
        // The running query holds the only slot.
        let err = engine
            .session()
            .query_plan(&sum_plan(0.5))
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Busy { active: 1, max: 1 }), "{err}");
        assert_eq!(engine.active_queries(), 1);
        handle.cancel();
        handle.wait().unwrap();
        // Slot released: the next query is admitted.
        assert_eq!(engine.active_queries(), 0);
        engine.session().query_plan(&sum_plan(0.5)).run().unwrap();
    }

    #[test]
    fn batch_terminal_runs_the_one_shot_estimator() {
        let engine = Engine::new(catalog(2000));
        let out = engine
            .session()
            .query("SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT)")
            .seed(7)
            .batch()
            .unwrap();
        let r = out.snapshot.as_scalar().expect("scalar batch");
        assert!((r.aggs[0].estimate - 8000.0).abs() < 1600.0);
        let out = engine
            .session()
            .query_plan(&sum_plan(0.5))
            .group_by(vec![col("k")])
            .batch()
            .unwrap();
        let r = out.snapshot.as_grouped().expect("grouped batch");
        assert_eq!(r.groups.len(), 10);
    }

    #[test]
    fn group_by_on_sql_input_is_rejected() {
        let engine = Engine::new(catalog(100));
        let err = engine
            .session()
            .query("SELECT SUM(v) AS s FROM t")
            .group_by(vec![col("k")])
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidOptions(_)), "{err}");
    }

    #[test]
    fn invalid_options_are_rejected_by_every_terminal() {
        // Each of these used to run and quietly misbehave: intervals all
        // `None`, or a CI target that could never fire.
        let engine = Engine::new(catalog(1000));
        type Tweak = fn(QueryBuilder) -> QueryBuilder;
        let table: [(&str, Tweak); 11] = [
            ("chunk_rows", |q| q.chunk_rows(0)),
            ("parallelism", |q| q.jobs(0)),
            ("confidence", |q| q.confidence(1.5)),
            ("confidence", |q| q.confidence(0.0)),
            ("confidence", |q| q.confidence(f64::NAN)),
            ("ci_target.confidence", |q| q.within(0.05, 1.0)),
            ("ci_target.epsilon", |q| q.within(0.0, 0.95)),
            ("ci_target.epsilon", |q| q.within(-1.0, 0.95)),
            ("ci_target.epsilon", |q| q.within(f64::NAN, 0.95)),
            ("ci_top_k", |q| q.ci_top_k(0)),
            // Valid on a scalar query; every row here runs under GROUP BY.
            ("subsample_target", |q| q.subsample(100)),
        ];
        for (row, (field, tweak)) in table.into_iter().enumerate() {
            let query = || {
                let plan = sum_plan(0.5);
                tweak(engine.session().query_plan(&plan).group_by(vec![col("k")]))
            };
            let errs = [
                query().run().unwrap_err(),
                query().online().unwrap().wait().unwrap_err(),
                query().batch().unwrap_err(),
            ];
            for err in errs {
                assert!(matches!(err, Error::InvalidOptions(_)), "row {row}: {err}");
                assert!(err.to_string().contains(field), "row {row}: {err}");
            }
        }
        assert_eq!(engine.active_queries(), 0);
    }

    #[test]
    fn shared_scans_attach_queries_to_one_hub() {
        let engine = Engine::builder(catalog(3000)).shared_scans(true).build();
        let r1 = engine.session().query_plan(&sum_plan(0.5)).run().unwrap();
        assert_eq!(r1.reason, StopReason::Exhausted);
        let stats = engine.scan_stats("t").expect("hub created by the query");
        assert_eq!(stats.rows_gathered, 3000, "one full scan");
        assert_eq!(stats.attached, 0, "cursor released at exhaustion");
        // A second query revolves the same hub once more.
        engine.session().query_plan(&sum_plan(0.5)).run().unwrap();
        assert_eq!(engine.scan_stats("t").unwrap().rows_gathered, 6000);
        // Parallel queries keep private partitioned scans.
        engine
            .session()
            .query_plan(&sum_plan(0.5))
            .jobs(2)
            .run()
            .unwrap();
        assert_eq!(engine.scan_stats("t").unwrap().rows_gathered, 6000);
    }

    #[test]
    fn idle_hubs_are_dropped_before_a_new_column_set_gets_one() {
        // Six queries, one after another, each reading one column of its
        // own: each needs a new pruned hub, and the idle one before it goes.
        let mut c = Catalog::new();
        let names: Vec<String> = (0..6).map(|i| format!("c{i}")).collect();
        let fields = names.iter().map(|n| Field::new(n, DataType::Float));
        let mut b = TableBuilder::new("t", Schema::new(fields.collect()).unwrap());
        for i in 0..500 {
            b.push_row(&vec![Value::Float(i as f64); 6]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let engine = Engine::builder(c).shared_scans(true).metrics(true).build();
        for name in &names {
            let plan = LogicalPlan::scan("t")
                .sample(SamplingMethod::Bernoulli { p: 0.5 })
                .aggregate(vec![AggSpec::sum(col(name), "s")]);
            engine.session().query_plan(&plan).run().unwrap();
        }
        let dump = engine.render_prometheus();
        let series: Vec<&str> = dump
            .lines()
            .filter(|l| l.starts_with("sa_shared_scan_attached{table=\"t\""))
            .collect();
        assert_eq!(
            series,
            ["sa_shared_scan_attached{table=\"t\",cols=\"5\"} 0"]
        );
        assert_eq!(
            engine.metrics().counter("sa_shared_scan_attach_total"),
            Some(6)
        );
    }

    #[test]
    fn wait_after_cancel_returns_cancelled_with_the_terminal_snapshot() {
        // Regression: wait() directly after cancel() — without pumping the
        // snapshot channel — must join cleanly and report the unambiguous
        // terminal reason, with the final snapshot equal to the last one
        // the channel delivered.
        let engine = Engine::new(catalog(500_000));
        let handle = engine
            .session()
            .query_plan(&sum_plan(0.9))
            .seed(5)
            .chunk_rows(64)
            .online()
            .unwrap();
        handle.snapshots().next().expect("running");
        handle.cancel();
        let r = handle.wait().unwrap();
        assert_eq!(r.reason, StopReason::Cancelled);
        assert!(
            r.snapshot.rows() > 0,
            "terminal snapshot is a real estimate"
        );
    }

    #[test]
    fn double_cancel_is_idempotent_and_unambiguous() {
        let engine = Engine::new(catalog(500_000));
        let handle = engine
            .session()
            .query_plan(&sum_plan(0.9))
            .seed(6)
            .chunk_rows(64)
            .online()
            .unwrap();
        handle.cancel();
        handle.cancel(); // second cancel must be a no-op, not a panic/race
        let mut last_rows = 0;
        for snap in handle.snapshots() {
            last_rows = snap.rows();
        }
        let r = handle.wait().unwrap();
        assert_eq!(r.reason, StopReason::Cancelled);
        // The channel's last snapshot IS the terminal snapshot.
        assert_eq!(r.snapshot.rows(), last_rows);
        let (consumed, available) = r.snapshot.progress()[0];
        assert!(consumed < available, "cancelled well before exhaustion");
    }

    #[test]
    fn metrics_engine_counts_the_query_lifecycle() {
        let engine = Engine::builder(catalog(4000)).metrics(true).build();
        assert!(engine.registry().enabled());
        let r = engine
            .session()
            .query_plan(&sum_plan(0.5))
            .seed(2)
            .chunk_rows(256)
            .run()
            .unwrap();
        let snap = engine.metrics();
        assert_eq!(snap.counter("sa_sessions_opened_total"), Some(1));
        assert_eq!(snap.counter("sa_queries_started_total"), Some(1));
        assert_eq!(
            snap.counter("sa_queries_finished_total{reason=\"exhausted\"}"),
            Some(1)
        );
        assert_eq!(snap.counter("sa_snapshots_emitted_total"), Some(r.chunks));
        assert_eq!(
            snap.counter("sa_rows_consumed_total"),
            Some(r.snapshot.rows())
        );
        assert_eq!(snap.gauge("sa_active_queries"), Some(0));
        let dur = snap.histogram("sa_query_duration_us").unwrap();
        assert_eq!(dur.count, 1);
        let scan = snap.histogram("sa_stop_scan_permille").unwrap();
        assert_eq!((scan.count, scan.max), (1, 1000), "exhausted = full scan");
        let ttfs = snap.histogram("sa_time_to_first_snapshot_us").unwrap();
        assert_eq!(ttfs.count, 1);
        // The journal tells the same story, in order.
        let (events, _) = engine.registry().events();
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::QueryStarted { .. } => "started",
                EventKind::SnapshotEmitted { .. } => "snap",
                EventKind::RuleFired { .. } => "fired",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds.first(), Some(&"started"));
        assert_eq!(kinds.last(), Some(&"fired"));
        assert_eq!(
            kinds.iter().filter(|k| **k == "snap").count() as u64,
            r.chunks
        );
    }

    #[test]
    fn uninstrumented_engine_reads_empty_metrics() {
        let engine = Engine::new(catalog(100));
        engine.session().query_plan(&sum_plan(0.5)).run().unwrap();
        assert!(!engine.registry().enabled());
        assert_eq!(engine.metrics(), MetricsSnapshot::default());
        assert_eq!(engine.render_prometheus(), "");
    }

    #[test]
    fn rejected_queries_count_as_admission_rejections() {
        let engine = Engine::builder(catalog(500_000))
            .max_concurrent(1)
            .metrics(true)
            .build();
        let handle = engine
            .session()
            .query_plan(&sum_plan(0.9))
            .chunk_rows(64)
            .online()
            .unwrap();
        handle.snapshots().next().expect("running");
        let err = engine
            .session()
            .query_plan(&sum_plan(0.5))
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Busy { .. }));
        handle.cancel();
        handle.wait().unwrap();
        let snap = engine.metrics();
        assert_eq!(snap.counter("sa_queries_rejected_total"), Some(1));
        assert_eq!(
            snap.counter("sa_queries_finished_total{reason=\"cancelled\"}"),
            Some(1)
        );
        let (events, _) = engine.registry().events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SessionRejected { active: 1, .. })));
    }

    #[test]
    fn dropping_a_handle_cancels_the_query() {
        let engine = Engine::builder(catalog(500_000)).max_concurrent(1).build();
        let handle = engine
            .session()
            .query_plan(&sum_plan(0.9))
            .chunk_rows(64)
            .online()
            .unwrap();
        handle.snapshots().next().expect("running");
        drop(handle);
        // The worker notices the cancel at its next tick and releases the
        // admission slot.
        for _ in 0..200 {
            if engine.active_queries() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(engine.active_queries(), 0);
        engine.session().query_plan(&sum_plan(0.5)).run().unwrap();
    }
}
