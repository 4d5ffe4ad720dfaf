//! What a grouped tick costs, as a count rather than a clock: heap
//! allocations per tick, through a counting global allocator.
//!
//! A tick reads every discovered group's slot through one readout plan into
//! the snapshot it built last time, so once discovery has plateaued a tick
//! allocates for its own bookkeeping (the scaled GUS, the plan, the pulled
//! chunk) and nothing per group. Before the readout went in place a tick
//! cloned every key, built a fresh `Vec<AggResult>` with fresh name strings
//! per group, and ran the §6.3 recursion over cloned matrices for each —
//! upwards of fifteen allocations per group and tick.
//!
//! The push is the other per-tick cost: a row finds its group once, in the
//! accumulator's key index, so a chunk that deals every known group builds
//! no key and allocates nothing per group either.
//!
//! Discovery is the last part: a group's first appearance costs its key
//! and its share of storage that grows by doubling, not an accumulator
//! object of its own.
//!
//! The counter is per thread and a run at `jobs = 1` never leaves the
//! calling thread, so each test counts only its own queries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sampling_algebra::prelude::*;

struct Counting;

thread_local! {
    /// Allocations (and reallocations) made by this thread. `const`
    /// initialization and no destructor: safe to touch from the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size`
        // is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `t(g, v)`: `4·groups` rows dealing the keys `0..groups` round-robin — so
/// the first chunks discover every group — then a long tail dealing the
/// first `hot` keys round-robin, so later chunks discover nothing.
fn plateau_catalog(groups: i64, hot: i64, rows: i64) -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema);
    for i in 0..rows {
        let g = if i < 4 * groups { i % groups } else { i % hot };
        b.push_row(&[Value::Int(g), Value::Float(1.0 + (i % 7) as f64)])
            .unwrap();
    }
    c.register(b.finish().unwrap()).unwrap();
    c
}

/// Run the grouped query until `row_budget` sampled rows are in; returns
/// the allocations the whole run made, its tick count and its group count.
/// An observed run: `.run()` reads the accumulator out only at the stop,
/// and what is counted here is every tick's readout. The callback only
/// borrows each snapshot, so nothing here is a caller's copy.
fn run_to(catalog: &Catalog, row_budget: u64) -> (u64, u64, usize) {
    let engine = Engine::new(catalog.clone());
    let query = engine
        .session()
        .query("SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t TABLESAMPLE (90 PERCENT) GROUP BY g")
        .seed(5)
        .chunk_rows(4096)
        .ci_top_k(50)
        .rows(row_budget);
    let before = ALLOCATIONS.with(Cell::get);
    let r = query.run_with(|_| {}).unwrap();
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(r.reason, StopReason::RowBudget);
    let groups = r.snapshot.as_grouped().expect("GROUP BY").groups.len();
    (made, r.chunks, groups)
}

/// Allocations per tick (pull, push and readout of one chunk) once
/// discovery has plateaued on a tail over `hot` keys, and the group count
/// they were measured at: two runs of one seed that differ only in how
/// many plateau ticks they take, so the difference of their totals is those
/// ticks' allocations exactly.
fn steady_tick_allocations(groups: i64, hot: i64) -> (f64, usize) {
    let catalog = plateau_catalog(groups, hot, 4 * groups + 14 * 4096);
    let discovered = (4 * groups + 2 * 4096) as u64;
    let (short, short_ticks, short_groups) = run_to(&catalog, discovered);
    let (long, long_ticks, long_groups) = run_to(&catalog, discovered + 8 * 3600);
    assert_eq!(short_groups, long_groups, "discovery had plateaued");
    assert!(
        long_ticks >= short_ticks + 7,
        "{short_ticks} → {long_ticks}"
    );
    let per_tick = (long - short) as f64 / (long_ticks - short_ticks) as f64;
    (per_tick, long_groups)
}

/// Steady-state ticks over 1000 and 2000 groups, the plateau's tail over
/// `hot(groups)` keys: a thousand more groups add nothing a tick allocates
/// for. The counts differ by what a chunk's per-part vectors happen to
/// grow to, not by anything proportional to the groups read or pushed.
/// Returns the larger run's allocations per tick and its group count.
fn assert_ticks_flat_in_groups(hot: impl Fn(i64) -> i64) -> (f64, usize) {
    let (small, small_groups) = steady_tick_allocations(1000, hot(1000));
    let (large, large_groups) = steady_tick_allocations(2000, hot(2000));
    assert!(small_groups >= 990 && large_groups >= 1980);
    let extra = large - small;
    assert!(
        extra.abs() <= 0.02 * (large_groups - small_groups) as f64,
        "{} more groups cost {extra:.1} more allocations a tick ({small:.0} vs {large:.0})",
        large_groups - small_groups
    );
    (large, large_groups)
}

#[test]
fn a_tick_that_discovers_nothing_allocates_nothing_per_group() {
    // Later chunks push 16 hot keys: only the readout visits every group.
    let (large, large_groups) = assert_ticks_flat_in_groups(|_| 16);
    // At most one allocation per group and tick on average (it is far
    // fewer).
    let per_group = large / large_groups as f64;
    assert!(
        per_group <= 1.0,
        "{per_group:.2} allocations per group and tick ({large:.0} a tick)"
    );
}

#[test]
fn a_tick_over_known_groups_allocates_nothing_per_group() {
    // Every later chunk deals every known key: a push that built a key per
    // chunk and group (a chunk-local key index in front of the
    // accumulator's) would allocate about one more per group and tick.
    assert_ticks_flat_in_groups(|groups| groups);
}

/// Allocations per group that discovering it costs: two runs of one seed to
/// one row budget, past the end of discovery in both, over catalogs whose
/// discovery phases deal 1000 and 2000 keys — the difference of their
/// totals over the difference of their group counts. Both runs take the
/// same ticks (the sampler draws one coin per row, whatever the row holds),
/// and a tick's readout allocates nothing per known group (the test
/// above), so what is left is what a group's first appearance costs.
fn discovery_allocations_per_group() -> f64 {
    let budget = (4 * 2000 + 2 * 4096) as u64;
    let run = |groups: i64| run_to(&plateau_catalog(groups, 16, 4 * groups + 14 * 4096), budget);
    let (small, small_ticks, small_groups) = run(1000);
    let (large, large_ticks, large_groups) = run(2000);
    assert_eq!(small_ticks, large_ticks, "one budget, one tick count");
    assert!(small_groups >= 990 && large_groups >= 1980);
    (large - small) as f64 / (large_groups - small_groups) as f64
}

#[test]
fn discovering_a_group_costs_its_key_not_a_slot_object() {
    // About five: the key tuple built when the group is discovered (kept
    // as its index entry; a later chunk holding the group's rows builds
    // none), and the snapshot entry a tick builds for a group it shows
    // first (key, aggregate list, two names). A group's slot is a stride of
    // shared vectors, not an accumulator owning heap blocks of its own.
    let per_group = discovery_allocations_per_group();
    assert!(
        per_group <= 5.5,
        "{per_group:.2} allocations per discovered group"
    );
}
