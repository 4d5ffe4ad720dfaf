//! Shared circular scan cursors — N concurrent queries, ~1 table scan.
//!
//! A [`SharedTableScan`] is a *scan hub* for one base table: it gathers the
//! table's rows into columnar chunks **once**, in a circular order, and any
//! number of [`SharedScanCursor`]s ride the same chunk bus. A cursor that
//! attaches while the scan is at physical position `o` simply sees the rows
//! in the rotated order `o, o+1, …, N−1, 0, …, o−1` and detaches after one
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
//! The hub keeps a monotone **virtual head** (total rows produced since the
//! hub was created; `head mod N` is the physical scan position) and a small
//! window of produced chunks. A cursor whose position is behind the head
//! serves itself from the window; a cursor *at* the head produces the next
//! chunk (bounded by `bus_rows`, never wrapping past the table end inside
//! one chunk) and publishes it. Chunks wholly behind the slowest attached
//! cursor are evicted; a producer pauses (condvar) when the window would
//! exceed `max_lag_rows`, so one slow consumer bounds memory, not
//! correctness. Cursors detach on exhaustion and on drop — a cancelled
//! query can never wedge the hub.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use sa_obs::{Counter, EventKind, Registry};
use sa_storage::Table;

use crate::columnar::ColumnarChunk;
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
    /// schema indices; `None` gathers every column. A cursor can select any
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
    chunk: ColumnarChunk,
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
    /// A hub over `table` producing chunks of `bus_rows` rows (clamped to at
    /// least 1), with the default lag window.
    pub fn new(table: Arc<Table>, bus_rows: usize) -> SharedTableScan {
        SharedTableScan {
            table,
            cols: None,
            bus_rows: bus_rows.max(1),
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

    /// Attach a cursor at the current head: it will see every table row
    /// exactly once, starting from the scan's current physical position.
    /// The cursor carries the hub's full column set; use
    /// [`SharedTableScan::attach_columns`] for a pruned view.
    ///
    /// An attached cursor holds a window slot: pull it to exhaustion or drop
    /// it, or it backpressures the other cursors once they run
    /// `max_lag_rows` ahead.
    pub fn attach(self: &Arc<Self>) -> SharedScanCursor {
        self.attach_select(None, self.cols.clone())
    }

    /// Attach a cursor that sees only `needed` columns (ascending table-
    /// schema indices; `None` = every table column). Fails when the hub
    /// does not gather all of them — the hub's bus chunks are shared state
    /// one query cannot widen.
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
        let (sel, out_cols) = match (needed, &self.cols) {
            // Everything the hub carries (which is everything, per covers).
            (None, _) => (None, self.cols.clone()),
            (Some(need), None) => {
                // The hub gathers every column, so bus positions ARE table
                // indices; a full `need` collapses to the identity view.
                if need.len() == self.table.column_count() {
                    (None, None)
                } else {
                    (Some(need.to_vec()), Some(need.to_vec()))
                }
            }
            (Some(need), Some(have)) => {
                let sel: Vec<usize> = need
                    .iter()
                    .map(|c| {
                        have.iter()
                            .position(|h| h == c)
                            .expect("covers() admitted every needed column")
                    })
                    .collect();
                if sel.len() == have.len() && sel.iter().enumerate().all(|(i, &p)| i == p) {
                    (None, Some(need.to_vec()))
                } else {
                    (Some(sel), Some(need.to_vec()))
                }
            }
        };
        Ok(self.attach_select(sel, out_cols))
    }

    fn attach_select(
        self: &Arc<Self>,
        sel: Option<Vec<usize>>,
        out_cols: Option<Vec<usize>>,
    ) -> SharedScanCursor {
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
            sel,
            out_cols,
            hub: self.clone(),
        }
    }

    /// Drop window chunks every attached cursor has passed.
    fn evict(&self, st: &mut HubState) {
        let Some(min) = st.readers.iter().flatten().copied().min() else {
            st.window.clear();
            return;
        };
        while let Some(front) = st.window.front() {
            if front.start + front.chunk.rows() as u64 <= min {
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

/// One query's view of a [`SharedTableScan`]: a stream of the table's rows
/// in circular order from the cursor's attach origin, exhausted after one
/// full revolution. Chunks carry **physical** row-id lineage, exactly like
/// a private scan, so everything downstream (samplers, the SBox, Prop-8
/// scaling) is origin-oblivious.
#[derive(Debug)]
pub struct SharedScanCursor {
    /// Virtual head position at attach; `origin % total` is the physical
    /// first row this cursor sees.
    origin: u64,
    /// Rows consumed so far (0..=total).
    consumed: u64,
    total: u64,
    slot: usize,
    detached: bool,
    /// Positions within the hub's bus-chunk columns this cursor emits
    /// (`None` = every hub column, the common case).
    sel: Option<Vec<usize>>,
    /// The cursor's output columns as table-schema indices (`None` = all);
    /// used to shape the zero-row exhaustion chunk.
    out_cols: Option<Vec<usize>>,
    hub: Arc<SharedTableScan>,
}

impl SharedScanCursor {
    /// `(consumed, available)` row coverage — the Prop-8 scaling input.
    pub fn progress(&self) -> (u64, u64) {
        (self.consumed, self.total)
    }

    /// Physical row id of the first row this cursor sees.
    pub fn physical_origin(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.origin % self.total
        }
    }

    /// The hub this cursor rides.
    pub fn hub(&self) -> &Arc<SharedTableScan> {
        &self.hub
    }

    /// Pull up to `hint` rows (never more than one bus chunk). An empty
    /// chunk means the revolution is complete; the cursor has then released
    /// its hub slot.
    pub fn next_batch(&mut self, hint: usize) -> Result<ColumnarChunk> {
        if self.consumed >= self.total {
            self.release();
            return self.empty_chunk();
        }
        let hub = self.hub.clone();
        let mut st = hub.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut stall_counted = false;
        loop {
            let pos = self.origin + self.consumed;
            if pos < st.head {
                // Behind the head: serve a slice of the published window.
                let bus = st
                    .window
                    .iter()
                    .find(|c| pos < c.start + c.chunk.rows() as u64)
                    .expect("window covers every attached cursor's position");
                debug_assert!(pos >= bus.start, "cursor fell out of the window");
                let offset = (pos - bus.start) as usize;
                let take = (bus.chunk.rows() - offset)
                    .min(hint.max(1))
                    .min((self.total - self.consumed) as usize);
                let mut out = bus.chunk.slice(offset, take);
                if let Some(sel) = &self.sel {
                    out.batch = out.batch.select_columns(sel);
                }
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
            let produced = upto - phys;
            let start = st.head;
            st.window.push_back(BusChunk {
                start,
                chunk: ColumnarChunk {
                    batch,
                    lineage: vec![(phys..upto).collect()],
                },
            });
            st.head += produced;
            st.rows_gathered += produced;
            hub.obs.rows_gathered.add(produced);
            hub.turned.notify_all();
            // Loop: pos is now behind the head and gets served above.
        }
    }

    /// A zero-row chunk with this cursor's column layout (the exhaustion
    /// signal expected by the streaming operators above).
    fn empty_chunk(&self) -> Result<ColumnarChunk> {
        let batch = match &self.out_cols {
            None => self.hub.table.batch_range(0, 0),
            Some(cols) => self.hub.table.batch_range_cols(0, 0, cols),
        }
        .map_err(ExecError::Storage)?;
        Ok(ColumnarChunk {
            batch,
            lineage: vec![Vec::new()],
        })
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

    fn table(rows: i64) -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema).with_block_rows(64);
        for i in 0..rows {
            b.push_row(&[Value::Int(i), Value::Float(i as f64)])
                .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn drain_ids(cursor: &mut SharedScanCursor, hint: usize) -> Vec<u64> {
        let mut ids = Vec::new();
        loop {
            let chunk = cursor.next_batch(hint).unwrap();
            if chunk.is_empty() {
                return ids;
            }
            ids.extend(chunk.lineage[0].iter().copied());
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
            let chunk = warm.next_batch(40).unwrap();
            seen += chunk.rows() as u64;
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
                let chunk = slow.next_batch(16).unwrap();
                if chunk.is_empty() {
                    break;
                }
                ids.extend(chunk.lineage[0].iter().copied());
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
            got += active.next_batch(32).unwrap().rows() as u64;
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
        let chunk = c.next_batch(8).unwrap();
        assert!(chunk.is_empty());
        assert_eq!(
            chunk.batch.columns().len(),
            2,
            "empty chunk keeps the layout"
        );
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
            seen += warm.next_batch(10).unwrap().rows();
        }
        drop(warm);
        let mut a = hub.attach();
        let ids_a = drain_ids(&mut a, 9);
        let mut b = hub.attach();
        let ids_b = drain_ids(&mut b, 23);
        assert_eq!(a.physical_origin(), b.physical_origin());
        assert_eq!(ids_a, ids_b);
    }
}
