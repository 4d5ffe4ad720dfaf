//! Shared circular scan hubs — N concurrent queries, ~1 table scan.
//!
//! A [`SharedTableScan`] is a *scan hub* for one base table: it gathers the
//! table's rows into columnar chunks **once**, in a circular order, and any
//! number of [`SharedScanCursor`]s read the same chunk bus. A cursor that
//! attaches while the scan is at physical position `o` reads the rows in
//! the rotated order `o, o+1, …, N−1, 0, …, o−1` and detaches after one
//! full revolution — so late-arriving queries never restart the scan, and
//! `k` concurrent queries cost roughly one scan instead of `k`.
//!
//! ## Why the estimates stay correct (mid-scan attach = origin shift)
//!
//! Online aggregation scales a mid-stream readout by treating the consumed
//! scan prefix as a WOR(`consumed`, `N`) sample of the relation
//! (Proposition 8 of the paper — see `ChunkStream::progress`). That factor
//! depends only on *how many* of the `N` rows have had the chance to reach
//! the output, never on *which* physical positions they occupy: a
//! WOR(`k`, `N`) design is invariant under any fixed permutation of the
//! relation, and a circular shift is one. So a cursor that attaches
//! mid-scan at origin `o` reports the same `(consumed, N)` coverage shape
//! as a fresh scan, the compaction applies unchanged, and at exhaustion
//! (`consumed == N`) the factor degenerates to identity — the readout *is*
//! the batch estimate over the full sample.
//!
//! ## Mechanics
//!
//! A cursor is a reader slot, not a scan: the stream's one scan leaf owns
//! the visit order (`[o, N)` then `[0, o)`), the pruned columns and any
//! pushed-down predicate, and asks its cursor for the rows of each pull
//! ([`SharedScanCursor::range`]). The hub keeps a monotone **virtual head**
//! (rows produced since the hub was created; `head mod N` is the physical
//! scan position) and a window of produced bus chunks of whole table
//! blocks, so every attach origin is a block boundary. A cursor behind the
//! head serves up to the end of the window chunk holding its position; a
//! cursor *at* the head first produces the next chunk. Chunks every
//! attached cursor has passed are evicted; a producer pauses (condvar)
//! while the window would exceed `max_lag_rows`, so one slow reader bounds
//! memory, not correctness. Cursors detach on exhaustion and on drop — a
//! cancelled query can never wedge the hub.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use sa_obs::{Counter, EventKind, Registry};
use sa_storage::{ColumnarBatch, Table};

use crate::error::ExecError;
use crate::Result;

/// Default rows per produced bus chunk.
pub const DEFAULT_BUS_ROWS: usize = 4096;

/// Default window bound, in rows, between the head and the slowest cursor.
pub const DEFAULT_MAX_LAG_ROWS: u64 = 1 << 17;

/// A circular scan hub over one table; see the module docs. Cheap to share
/// (`Arc`), safe to attach from any thread.
#[derive(Debug)]
pub struct SharedTableScan {
    table: Arc<Table>,
    /// Columns the hub gathers into its bus chunks, as ascending table-
    /// schema indices; `None` gathers every column. A cursor can read any
    /// subset of the hub's set ([`SharedTableScan::attach_columns`]), so an
    /// engine keys hub reuse by column-set coverage.
    cols: Option<Vec<usize>>,
    bus_rows: usize,
    max_lag_rows: u64,
    /// Locked with explicit poison recovery everywhere: a reader thread
    /// that panics mid-query (always contained upstream) must not wedge
    /// every other query sharing the hub. Every mutation of `HubState`
    /// under the lock is a complete, consistent update, so the recovered
    /// view is always usable.
    state: Mutex<HubState>,
    turned: Condvar,
    obs: HubObs,
}

/// The hub's observability handles. Counter names are engine-global (same
/// name → same cell across hubs), so totals aggregate naturally; the
/// default (disabled) handles make every update a single untaken branch.
#[derive(Debug, Default)]
struct HubObs {
    registry: Registry,
    rows_gathered: Counter,
    rows_served: Counter,
    attaches: Counter,
    detaches: Counter,
    lag_stalls: Counter,
}

#[derive(Debug)]
struct HubState {
    /// Virtual scan position: total rows produced since hub creation.
    /// `head % row_count` is the physical position the scan is at.
    head: u64,
    /// Produced chunks covering the contiguous virtual range
    /// `[window start, head)`; front chunks are evicted once every attached
    /// cursor has passed them.
    window: VecDeque<BusChunk>,
    /// Virtual consumed-up-to position of each attached cursor (`None` =
    /// free slot).
    readers: Vec<Option<u64>>,
    /// Total rows gathered from storage — the "N queries ≈ 1 scan" counter.
    rows_gathered: u64,
    /// Total rows served to cursors (every cursor's consumption summed).
    /// `rows_served / rows_gathered` is the sharing amplification ratio.
    rows_served: u64,
}

#[derive(Debug)]
struct BusChunk {
    /// Virtual position of the chunk's first row.
    start: u64,
    batch: ColumnarBatch,
}

/// A point-in-time snapshot of a hub's counters (for tests, benches and the
/// server's observability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedScanStats {
    /// Total rows gathered from storage since the hub was created.
    pub rows_gathered: u64,
    /// Total rows served to cursors; `rows_served / rows_gathered` is the
    /// hub's sharing amplification (≈ concurrent cursors per scan).
    pub rows_served: u64,
    /// Rows in the underlying table.
    pub table_rows: u64,
    /// Currently attached cursors.
    pub attached: usize,
    /// Virtual head position (`rows_gathered` twin; kept separate so a
    /// future partial-chunk producer can diverge them).
    pub head: u64,
}

impl SharedTableScan {
    /// A hub over `table` producing chunks of `bus_rows` rows, rounded up
    /// to whole table blocks, with the default lag window.
    pub fn new(table: Arc<Table>, bus_rows: usize) -> SharedTableScan {
        let block = table.block_rows().max(1);
        SharedTableScan {
            bus_rows: bus_rows.max(1).div_ceil(block).saturating_mul(block),
            table,
            cols: None,
            max_lag_rows: DEFAULT_MAX_LAG_ROWS,
            state: Mutex::new(HubState {
                head: 0,
                window: VecDeque::new(),
                readers: Vec::new(),
                rows_gathered: 0,
                rows_served: 0,
            }),
            turned: Condvar::new(),
            obs: HubObs::default(),
        }
    }

    /// Override the window bound between the head and the slowest cursor
    /// (clamped to at least one bus chunk).
    pub fn with_max_lag_rows(mut self, rows: u64) -> SharedTableScan {
        self.max_lag_rows = rows.max(self.bus_rows as u64);
        self
    }

    /// Restrict the hub to gathering `cols` (table-schema indices; sorted
    /// and deduplicated here). A full set collapses back to "all columns".
    /// Only cursors whose needs are a subset of the hub's set can attach
    /// ([`SharedTableScan::attach_columns`]).
    pub fn with_columns(mut self, mut cols: Vec<usize>) -> SharedTableScan {
        cols.sort_unstable();
        cols.dedup();
        self.cols = if cols.len() == self.table.column_count() {
            None
        } else {
            Some(cols)
        };
        self
    }

    /// The hub's gathered column set (`None` = every column).
    pub fn columns(&self) -> Option<&[usize]> {
        self.cols.as_deref()
    }

    /// Does this hub gather every column in `needed` (`None` = all)?
    pub fn covers(&self, needed: Option<&[usize]>) -> bool {
        match (&self.cols, needed) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(have), Some(need)) => need.iter().all(|c| have.contains(c)),
        }
    }

    /// Report this hub's activity to `registry`: engine-global
    /// `sa_shared_scan_*` counters (shared across hubs by name) plus
    /// `CursorAttached` journal events. A disabled registry leaves the hub
    /// uninstrumented (the default).
    pub fn with_observer(mut self, registry: &Registry) -> SharedTableScan {
        self.obs = HubObs {
            registry: registry.clone(),
            rows_gathered: registry.counter("sa_shared_scan_rows_gathered_total"),
            rows_served: registry.counter("sa_shared_scan_rows_served_total"),
            attaches: registry.counter("sa_shared_scan_attach_total"),
            detaches: registry.counter("sa_shared_scan_detach_total"),
            lag_stalls: registry.counter("sa_shared_scan_lag_stalls_total"),
        };
        self
    }

    /// The scanned table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// Current counters.
    pub fn stats(&self) -> SharedScanStats {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        SharedScanStats {
            rows_gathered: st.rows_gathered,
            rows_served: st.rows_served,
            table_rows: self.table.row_count(),
            attached: st.readers.iter().flatten().count(),
            head: st.head,
        }
    }

    /// Total rows gathered from storage since the hub was created.
    pub fn rows_gathered(&self) -> u64 {
        self.stats().rows_gathered
    }

    /// Attach a cursor at the current head: it will serve every table row
    /// exactly once, starting from the scan's current physical position.
    ///
    /// An attached cursor holds a window slot: read it to exhaustion or drop
    /// it, or it backpressures the other cursors once they run
    /// `max_lag_rows` ahead.
    pub fn attach(self: &Arc<Self>) -> SharedScanCursor {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let slot = match st.readers.iter().position(Option::is_none) {
            Some(free) => free,
            None => {
                st.readers.push(None);
                st.readers.len() - 1
            }
        };
        st.readers[slot] = Some(st.head);
        self.obs.attaches.inc();
        self.obs.registry.record(EventKind::CursorAttached {
            head: st.head,
            attached: st.readers.iter().flatten().count() as u64,
        });
        SharedScanCursor {
            origin: st.head,
            consumed: 0,
            total: self.table.row_count(),
            slot,
            detached: false,
            hub: self.clone(),
        }
    }

    /// [`SharedTableScan::attach`] for a reader of the `needed` columns
    /// (ascending table-schema indices; `None` = every column). Fails when
    /// the hub does not gather all of them — the hub's bus chunks are shared
    /// state one query cannot widen.
    pub fn attach_columns(self: &Arc<Self>, needed: Option<&[usize]>) -> Result<SharedScanCursor> {
        if !self.covers(needed) {
            return Err(ExecError::Unsupported(format!(
                "shared scan hub over '{}' gathers columns {:?} but the query needs {:?} — \
                 open a wider hub or a private stream",
                self.table.name(),
                self.cols,
                needed
            )));
        }
        Ok(self.attach())
    }

    /// Drop window chunks every attached cursor has passed.
    fn evict(&self, st: &mut HubState) {
        let Some(min) = st.readers.iter().flatten().copied().min() else {
            st.window.clear();
            return;
        };
        while let Some(front) = st.window.front() {
            if front.start + front.batch.rows() as u64 <= min {
                st.window.pop_front();
            } else {
                break;
            }
        }
    }

    /// Release a cursor's slot (idempotent via the cursor's flag).
    fn detach(&self, slot: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.readers[slot] = None;
        self.obs.detaches.inc();
        self.evict(&mut st);
        self.turned.notify_all();
    }
}

/// One reader of a [`SharedTableScan`]: a window slot that serves the
/// table's rows in circular order from its attach origin, each once, and
/// detaches after one full revolution. It serves only what it is asked
/// for: the scan leaf it feeds owns the visit order, the columns, any
/// pushed-down predicate and the physical row-id lineage, exactly as over a
/// private table, so everything downstream (samplers, the SBox, Prop-8
/// scaling) is origin-oblivious.
#[derive(Debug)]
pub struct SharedScanCursor {
    /// Virtual head position at attach; `origin % total` is the physical
    /// first row this cursor serves.
    origin: u64,
    /// Rows served so far (0..=total).
    consumed: u64,
    total: u64,
    slot: usize,
    detached: bool,
    hub: Arc<SharedTableScan>,
}

impl SharedScanCursor {
    /// `(consumed, available)` row coverage — the Prop-8 scaling input.
    pub fn progress(&self) -> (u64, u64) {
        (self.consumed, self.total)
    }

    /// Physical row id of the first row this cursor serves.
    pub fn physical_origin(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.origin % self.total
        }
    }

    /// Serve the table rows `[from, upto)` of `cols` (ascending table-schema
    /// indices the hub gathers; `None` = all of the hub's) — or, when the
    /// bus chunk holding `from` ends first, the rows up to its end: at least
    /// one row of a non-empty range. `from` must be this cursor's next row
    /// and the range must stay inside its revolution, `[o, N)` then
    /// `[0, o)`. Serving the revolution's last row releases the hub slot;
    /// an exhausted cursor serves zero rows.
    pub fn range(&mut self, from: u64, upto: u64, cols: Option<&[usize]>) -> Result<ColumnarBatch> {
        let hub = self.hub.clone();
        let cols = cols.or(hub.cols.as_deref());
        if from >= upto || self.consumed >= self.total {
            return match cols {
                None => hub.table.batch_range(from, from),
                Some(cols) => hub.table.batch_range_cols(from, from, cols),
            }
            .map_err(ExecError::Storage);
        }
        debug_assert_eq!(
            from,
            (self.origin + self.consumed) % self.total,
            "a cursor serves its revolution in order"
        );
        let mut st = hub.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut stall_counted = false;
        loop {
            let pos = self.origin + self.consumed;
            if pos < st.head {
                // Behind the head: serve from the published window.
                let bus = st
                    .window
                    .iter()
                    .find(|c| pos < c.start + c.batch.rows() as u64)
                    .expect("window covers every attached cursor's position");
                debug_assert!(pos >= bus.start, "cursor fell out of the window");
                let offset = (pos - bus.start) as usize;
                let take = (bus.batch.rows() - offset).min((upto - from) as usize);
                let out = match cols {
                    None => bus.batch.slice(offset, take),
                    Some(cols) => ColumnarBatch::new(
                        cols.iter()
                            .map(|&c| {
                                let at = hub.cols.as_ref().map_or(c, |have| {
                                    have.binary_search(&c).expect("the hub gathers it")
                                });
                                bus.batch.column(at).slice(offset, take)
                            })
                            .collect(),
                        take,
                    ),
                };
                self.consumed += take as u64;
                st.rows_served += take as u64;
                hub.obs.rows_served.add(take as u64);
                if self.consumed >= self.total {
                    // Exhausted: release the slot NOW so this cursor can
                    // never become the laggard that stalls the hub while
                    // the owning query finishes up.
                    st.readers[self.slot] = None;
                    self.detached = true;
                    hub.obs.detaches.inc();
                } else {
                    st.readers[self.slot] = Some(pos + take as u64);
                }
                hub.evict(&mut st);
                hub.turned.notify_all();
                return Ok(out);
            }
            // At the head: produce the next chunk — unless the window would
            // outrun the slowest cursor, in which case wait for it to
            // consume (or detach).
            let min = st.readers.iter().flatten().copied().min().unwrap_or(pos);
            if st.head.saturating_sub(min) >= hub.max_lag_rows {
                if !stall_counted {
                    // One stall event per episode, not per spurious wake.
                    hub.obs.lag_stalls.inc();
                    stall_counted = true;
                }
                st = hub.turned.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            let phys = st.head % self.total;
            let upto = phys.saturating_add(hub.bus_rows as u64).min(self.total);
            let batch = match &hub.cols {
                None => hub.table.batch_range(phys, upto),
                Some(cols) => hub.table.batch_range_cols(phys, upto, cols),
            }
            .map_err(ExecError::Storage)?;
            let start = st.head;
            st.window.push_back(BusChunk { start, batch });
            st.head += upto - phys;
            st.rows_gathered += upto - phys;
            hub.obs.rows_gathered.add(upto - phys);
            hub.turned.notify_all();
            // Loop: pos is now behind the head and gets served above.
        }
    }

    fn release(&mut self) {
        if !self.detached {
            self.detached = true;
            self.hub.detach(self.slot);
        }
    }
}

impl Drop for SharedScanCursor {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_storage::{DataType, Field, Schema, TableBuilder, Value};

    /// `t(k, v)` with `k = v = row id`, in `block_rows`-row blocks.
    fn table_in_blocks(rows: i64, block_rows: usize) -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema).with_block_rows(block_rows);
        for i in 0..rows {
            b.push_row(&[Value::Int(i), Value::Float(i as f64)])
                .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn table(rows: i64) -> Arc<Table> {
        table_in_blocks(rows, 64)
    }

    /// One read of at most `hint` rows, asked the way the scan leaf asks:
    /// from the cursor's next row to the end of the range, `[o, N)` or
    /// `[0, o)`, it lies in. Returns the ids of the rows served, read off
    /// their `k` column (empty once the revolution is done).
    fn pull(cursor: &mut SharedScanCursor, hint: u64) -> Vec<u64> {
        let (consumed, n) = cursor.progress();
        if consumed == n {
            assert!(cursor.range(0, 0, None).unwrap().is_empty());
            return Vec::new();
        }
        let o = cursor.physical_origin();
        let from = (o + consumed) % n;
        let end = if from >= o { n } else { o };
        let batch = cursor.range(from, (from + hint).min(end), None).unwrap();
        let ids: Vec<u64> = (0..batch.rows())
            .map(|r| match batch.column(0).value(r) {
                Value::Int(k) => k as u64,
                other => panic!("k is an Int column, got {other:?}"),
            })
            .collect();
        assert_eq!(ids, (from..from + ids.len() as u64).collect::<Vec<_>>());
        ids
    }

    fn drain_ids(cursor: &mut SharedScanCursor, hint: u64) -> Vec<u64> {
        let mut ids = Vec::new();
        loop {
            let chunk = pull(cursor, hint);
            if chunk.is_empty() {
                return ids;
            }
            ids.extend(chunk);
        }
    }

    #[test]
    fn single_cursor_sees_every_row_in_order() {
        let hub = Arc::new(SharedTableScan::new(table(500), 128));
        let mut c = hub.attach();
        assert_eq!(c.progress(), (0, 500));
        let ids = drain_ids(&mut c, 97);
        assert_eq!(ids, (0..500).collect::<Vec<u64>>());
        assert_eq!(c.progress(), (500, 500));
        assert_eq!(hub.rows_gathered(), 500);
    }

    #[test]
    fn mid_attach_cursor_sees_rotated_order_exactly_once() {
        let hub = Arc::new(SharedTableScan::new(table(300), 50));
        let mut warm = hub.attach();
        let mut seen = 0u64;
        while seen < 110 {
            seen += pull(&mut warm, 40).len() as u64;
        }
        drop(warm);
        let mut late = hub.attach();
        // The cursor attaches at the hub's head, which has advanced at
        // least as far as the warm cursor consumed (production is
        // bus-chunk granular, so it may sit a little ahead).
        let o = late.physical_origin();
        assert!(o >= seen && o < 300, "origin {o}, warm consumed {seen}");
        let ids = drain_ids(&mut late, 64);
        let expected: Vec<u64> = (o..300).chain(0..o).collect();
        assert_eq!(ids, expected, "rotated order, each row exactly once");
    }

    #[test]
    fn concurrent_cursors_share_one_scan() {
        let n = 20_000u64;
        let hub = Arc::new(SharedTableScan::new(table(n as i64), 256));
        // Attach all four BEFORE any pulls: the scan cost must be exactly
        // one revolution.
        let mut cursors: Vec<SharedScanCursor> = (0..4).map(|_| hub.attach()).collect();
        std::thread::scope(|s| {
            for c in cursors.iter_mut() {
                s.spawn(move || {
                    let ids = drain_ids(c, 100);
                    assert_eq!(ids.len(), n as usize);
                });
            }
        });
        assert_eq!(hub.rows_gathered(), n, "4 cursors, exactly 1 scan");
        assert_eq!(hub.stats().attached, 0, "exhausted cursors detach");
    }

    #[test]
    fn gated_concurrent_cursors_cost_about_one_scan() {
        // A "gate" cursor that never consumes holds the head within
        // max_lag_rows of the origin, so however the threads are scheduled,
        // every cursor attaches near row 0; once the gate drops, the hub
        // performs one revolution plus at most the lag window.
        let n = 20_000u64;
        let lag = 512u64;
        let hub = Arc::new(SharedTableScan::new(table(n as i64), 128).with_max_lag_rows(lag));
        let gate = hub.attach();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let hub = hub.clone();
                    s.spawn(move || {
                        let mut c = hub.attach();
                        drain_ids(&mut c, 64).len()
                    })
                })
                .collect();
            while hub.stats().attached < 5 {
                std::thread::yield_now();
            }
            drop(gate);
            for w in workers {
                assert_eq!(w.join().unwrap(), n as usize);
            }
        });
        let gathered = hub.rows_gathered();
        assert!(
            gathered <= n + lag,
            "expected ~1 shared scan, gathered {gathered} of {n} rows"
        );
    }

    #[test]
    fn slow_cursor_bounds_the_window_not_correctness() {
        let n = 4_000u64;
        let hub = Arc::new(SharedTableScan::new(table(n as i64), 64).with_max_lag_rows(256));
        let mut slow = hub.attach();
        let mut fast = hub.attach();
        let (fast_ids, slow_ids) = std::thread::scope(|s| {
            let fast = s.spawn(move || drain_ids(&mut fast, 64));
            // The slow cursor trickles; the fast one must wait at the lag
            // bound rather than outrun it.
            let mut ids = Vec::new();
            loop {
                let chunk = pull(&mut slow, 16);
                if chunk.is_empty() {
                    break;
                }
                ids.extend(chunk);
                std::thread::yield_now();
            }
            (fast.join().unwrap(), ids)
        });
        assert_eq!(fast_ids, (0..n).collect::<Vec<u64>>());
        assert_eq!(slow_ids, fast_ids);
        assert_eq!(hub.rows_gathered(), n);
    }

    #[test]
    fn dropped_cursor_releases_the_hub() {
        let n = 2_000u64;
        let hub = Arc::new(SharedTableScan::new(table(n as i64), 32).with_max_lag_rows(64));
        let stalled = hub.attach(); // never pulled
        let mut active = hub.attach();
        let mut got = 0u64;
        // The active cursor can advance up to the lag bound...
        for _ in 0..2 {
            got += pull(&mut active, 32).len() as u64;
        }
        assert!(got > 0);
        drop(stalled); // ...and dropping the stalled cursor unblocks the rest.
        let rest = drain_ids(&mut active, 128);
        assert_eq!(got + rest.len() as u64, n);
        assert_eq!(hub.stats().attached, 0);
    }

    #[test]
    fn empty_table_cursor_is_immediately_exhausted() {
        let hub = Arc::new(SharedTableScan::new(table(0), 16));
        let mut c = hub.attach();
        assert_eq!(c.progress(), (0, 0));
        let chunk = c.range(0, 8, None).unwrap();
        assert!(chunk.is_empty());
        assert_eq!(chunk.columns().len(), 2, "empty chunk keeps the layout");
        assert_eq!(hub.rows_gathered(), 0);
    }

    #[test]
    fn observed_hub_reports_amplification_and_attach_lifecycle() {
        let reg = Registry::new();
        let hub = Arc::new(SharedTableScan::new(table(1000), 128).with_observer(&reg));
        let mut a = hub.attach();
        let mut b = hub.attach();
        assert_eq!(drain_ids(&mut a, 256).len(), 1000);
        assert_eq!(drain_ids(&mut b, 256).len(), 1000);
        let stats = hub.stats();
        assert_eq!(stats.rows_gathered, 1000, "two cursors, one scan");
        assert_eq!(stats.rows_served, 2000, "amplification = 2x");
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("sa_shared_scan_rows_gathered_total"),
            Some(1000)
        );
        assert_eq!(snap.counter("sa_shared_scan_rows_served_total"), Some(2000));
        assert_eq!(snap.counter("sa_shared_scan_attach_total"), Some(2));
        assert_eq!(snap.counter("sa_shared_scan_detach_total"), Some(2));
        let (events, _) = reg.events();
        let attaches = events
            .iter()
            .filter(|e| matches!(e.kind, sa_obs::EventKind::CursorAttached { .. }))
            .count();
        assert_eq!(attaches, 2);
    }

    #[test]
    fn uninstrumented_hub_still_tracks_rows_served() {
        let hub = Arc::new(SharedTableScan::new(table(100), 32));
        let mut c = hub.attach();
        drain_ids(&mut c, 50);
        assert_eq!(hub.stats().rows_served, 100);
    }

    #[test]
    fn replay_after_full_revolutions_restores_the_origin() {
        // After k full revolutions the head returns to the same physical
        // position — a replay cursor sees the identical row order, which is
        // what lets tests reproduce a mid-attach realization.
        let hub = Arc::new(SharedTableScan::new(table(100), 16));
        let mut warm = hub.attach();
        let mut seen = 0;
        while seen < 37 {
            seen += pull(&mut warm, 10).len();
        }
        drop(warm);
        let mut a = hub.attach();
        let ids_a = drain_ids(&mut a, 9);
        let mut b = hub.attach();
        let ids_b = drain_ids(&mut b, 23);
        assert_eq!(a.physical_origin(), b.physical_origin());
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn bus_chunks_hold_whole_blocks() {
        // 50 rows over 16-row blocks round up to 64: a read as wide as the
        // table ends where its bus chunk ends, so the reads start where the
        // chunks do — and so does a cursor attached after them.
        let hub = Arc::new(SharedTableScan::new(table_in_blocks(200, 16), 50));
        let mut c = hub.attach();
        let mut starts = Vec::new();
        loop {
            let ids = pull(&mut c, 200);
            let Some(&first) = ids.first() else { break };
            starts.push(first);
        }
        assert_eq!(starts, [0, 64, 128, 192]);
        let mut warm = hub.attach();
        pull(&mut warm, 1);
        drop(warm);
        assert_eq!(hub.attach().physical_origin(), 64);
    }
}
