//! The options and result surface of the Engine/Session API.
//!
//! One flat [`QueryOptions`] configures every terminal — scalar vs. grouped
//! is decided by the query (its `GROUP BY` list), online vs. batch by the
//! terminal called — and [`Snapshot`] / [`QueryResult`] make the result
//! shape a variant rather than a separate entry point.

use std::time::Duration;

use sa_core::{EstimateReport, GusParams};
use sa_plan::{SoaAnalysis, StopReason, StoppingRule};

use crate::driver::ProgressSnapshot;
use crate::error::Error;
use crate::grouped::GroupedProgressSnapshot;
use crate::Result;

/// Options for one query run through the [`crate::Engine`]. Fields a
/// terminal has no use for are ignored by it: scalar queries ignore
/// `ci_top_k`; [`crate::QueryBuilder::batch`] drains the whole sample, so it
/// ignores the stopping rule, `deadline` and `adaptive_chunks`; the
/// progressive terminals ignore `subsample_target` on a scalar query. With
/// GROUP BY keys `subsample_target` is not ignored but refused, by every
/// terminal ([`crate::Error::InvalidOptions`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOptions {
    /// Seed for the plan's sampling operators (the streamed sample
    /// realization is fully determined by `(plan, seed)`; sessions assign a
    /// stable per-session seed so estimates stay comparable across runs).
    pub seed: u64,
    /// Target rows per pulled chunk (operators may over/under-fill).
    pub chunk_rows: usize,
    /// Confidence level for reported intervals when the stopping rule has
    /// no CI target of its own.
    pub confidence: f64,
    /// When to stop early. [`StoppingRule::exhaustive`] runs the whole
    /// sample. For grouped queries the rule's CI target is judged per
    /// group.
    pub rule: StoppingRule,
    /// Number of worker threads driving the sampled plan. `1` (the
    /// default) runs the classic single-threaded loop — byte-identical
    /// snapshots for a fixed seed, and the only mode that can attach to an
    /// engine's shared scan. `0` is rejected.
    pub parallelism: usize,
    /// Grow the pull hint (doubling, up to 64 × `chunk_rows`) while the
    /// relative CI half-width has stopped improving by 10% a tick: fewer,
    /// larger snapshots over the same realized sample. It applies to the
    /// in-thread pull of `parallelism = 1` only — pool workers pull at the
    /// fixed `chunk_rows` and ignore it, as does
    /// [`crate::QueryBuilder::batch`]. Default `false`.
    pub adaptive_chunks: bool,
    /// Visit the base table's blocks in a seeded random permutation
    /// instead of physical order (`--shuffle-scan` in the CLI). The
    /// scan-progress scaling assumes the scanned prefix is a uniform random
    /// subset of the sampling units; on physically ordered (e.g.
    /// value-sorted) tables that assumption fails and mid-stream intervals
    /// undercover. Shuffling restores it at the block level, and changes
    /// the order the sample arrives in, not the sample. The permutation is
    /// fully determined by `(seed, parallelism, worker)`, so runs stay
    /// byte-reproducible; shuffled queries always open a private
    /// scan (they cannot attach to a shared hub, whose gather order is
    /// shared state). Default `false` — physical scan order, which keeps
    /// columnar gathers perfectly sequential.
    pub shuffle_scan: bool,
    /// Grouped queries only: judge the CI stopping target on the `K`
    /// groups with the largest absolute (first-aggregate) estimates — the
    /// long-tail policy. Tail groups are still estimated and reported;
    /// they just cannot postpone termination. Ignored by scalar queries.
    /// `None` (default): every discovered group must meet the target.
    pub ci_top_k: Option<usize>,
    /// Hard wall-clock deadline for the whole query. When it expires the
    /// loop cancels itself and reports the last valid snapshot with
    /// [`StopReason::Deadline`] — still an unbiased scan-prefix estimate.
    /// Unlike [`StoppingRule::with_time_budget`] (a soft stop criterion the
    /// rule *wants*), the deadline is an upper bound the serving layer
    /// *imposes*; both can be set and the deadline always wins. `None`
    /// (default): no deadline. `Some(Duration::ZERO)` stops the query at
    /// its first tick, while the option table's `deadline 0` means `None`.
    pub deadline: Option<Duration>,
    /// [`crate::QueryBuilder::batch`], scalar queries only: estimate the
    /// `Ŷ_S` variance terms from a deterministic lineage-hash sub-sample of
    /// roughly this many result tuples (Section 7) — the point estimate
    /// still uses every tuple. `None` (default): variance from the full
    /// result. Section 7 has no grouped form: setting this together with
    /// GROUP BY keys is [`crate::Error::InvalidOptions`].
    pub subsample_target: Option<u64>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            seed: 0,
            chunk_rows: 1024,
            confidence: 0.95,
            rule: StoppingRule::exhaustive(),
            parallelism: 1,
            adaptive_chunks: false,
            shuffle_scan: false,
            ci_top_k: None,
            deadline: None,
            subsample_target: None,
        }
    }
}

/// One row of the option table: the name a front end sets, its value
/// syntax, what a rejected value needs (naming the field), the parse into
/// the field (`false` if the text does not parse), and the range rule on
/// the field alone (`validate_options` runs it too).
struct OptionRow {
    name: &'static str,
    syntax: &'static str,
    needs: &'static str,
    parse: fn(&mut QueryOptions, &str) -> bool,
    valid: fn(&QueryOptions) -> bool,
}

fn on_off(v: &str) -> Option<bool> {
    [("on", true), ("off", false)]
        .into_iter()
        .find_map(|(word, on)| v.eq_ignore_ascii_case(word).then_some(on))
}

/// `off` for `None`, else a number.
fn or_off<T: std::str::FromStr>(v: &str) -> Option<Option<T>> {
    if v.eq_ignore_ascii_case("off") {
        return Some(None);
    }
    v.parse().ok().map(Some)
}

/// The query options every front end sets by name: `sa`'s `--NAME VALUE`
/// flags and `\NAME VALUE` commands, `sa-server`'s `--seed` and its
/// `SEED`, `SHUFFLE` and `DEADLINE` verbs. The stopping rule is the SQL `WITHIN`
/// clause's, and `subsample_target` the batch terminal's argument.
static OPTION_TABLE: [OptionRow; 8] = [
    OptionRow {
        name: "seed",
        syntax: "N",
        needs: "a non-negative integer (`seed`)",
        parse: |o, v| v.parse().map(|n| o.seed = n).is_ok(),
        valid: |_| true,
    },
    OptionRow {
        name: "chunk",
        syntax: "ROWS",
        needs: "a positive row count (`chunk_rows` ≥ 1)",
        parse: |o, v| v.parse().map(|n| o.chunk_rows = n).is_ok(),
        valid: |o| o.chunk_rows >= 1,
    },
    OptionRow {
        name: "jobs",
        syntax: "N",
        needs: "a positive worker count (`parallelism` ≥ 1)",
        parse: |o, v| v.parse().map(|n| o.parallelism = n).is_ok(),
        valid: |o| o.parallelism >= 1,
    },
    OptionRow {
        name: "confidence",
        syntax: "LEVEL",
        needs: "a level strictly between 0 and 1 (`confidence`)",
        parse: |o, v| v.parse().map(|c| o.confidence = c).is_ok(),
        valid: |o| o.confidence > 0.0 && o.confidence < 1.0,
    },
    OptionRow {
        name: "top-k",
        syntax: "K|off",
        needs: "a positive group count or `off` (`ci_top_k` ≥ 1)",
        parse: |o, v| or_off(v).map(|k| o.ci_top_k = k).is_some(),
        valid: |o| o.ci_top_k != Some(0),
    },
    OptionRow {
        name: "deadline",
        syntax: "MS|off",
        needs: "milliseconds, 0 or `off` to clear (`deadline`)",
        parse: |o, v| {
            let ms = or_off::<u64>(v).map(|ms| ms.filter(|&ms| ms > 0));
            ms.map(|ms| o.deadline = ms.map(Duration::from_millis))
                .is_some()
        },
        valid: |_| true,
    },
    OptionRow {
        name: "adaptive",
        syntax: "on|off",
        needs: "`on` or `off` (`adaptive_chunks`)",
        parse: |o, v| on_off(v).map(|on| o.adaptive_chunks = on).is_some(),
        valid: |_| true,
    },
    OptionRow {
        name: "shuffle",
        syntax: "on|off",
        needs: "`on` or `off` (`shuffle_scan`)",
        parse: |o, v| on_off(v).map(|on| o.shuffle_scan = on).is_some(),
        valid: |_| true,
    },
];

impl OptionRow {
    fn problem(&self) -> Error {
        Error::InvalidOptions(format!("{} needs {}", self.name, self.needs))
    }
}

fn row(name: &str) -> Result<&'static OptionRow> {
    OPTION_TABLE
        .iter()
        .find(|r| r.name == name)
        .ok_or_else(|| Error::InvalidOptions(format!("unknown option `{name}`")))
}

impl QueryOptions {
    /// The option table's names with their value syntax, in table order.
    pub fn names() -> impl Iterator<Item = (&'static str, &'static str)> {
        OPTION_TABLE.iter().map(|r| (r.name, r.syntax))
    }

    /// Set the option `name` (a row of [`QueryOptions::names`]) from text.
    /// A value that does not parse or breaks the row's range rule is
    /// [`Error::InvalidOptions`] naming the option, and changes nothing.
    pub fn set(&mut self, name: &str, value: &str) -> Result<()> {
        let row = row(name)?;
        let mut next = self.clone();
        if !(row.parse)(&mut next, value.trim()) || !(row.valid)(&next) {
            return Err(row.problem());
        }
        *self = next;
        Ok(())
    }

    /// Every row's range rule: the first field out of range is the
    /// [`Error::InvalidOptions`] that `set` would give it.
    pub(crate) fn check_ranges(&self) -> Result<()> {
        OPTION_TABLE
            .iter()
            .find(|r| !(r.valid)(self))
            .map_or(Ok(()), |r| Err(r.problem()))
    }
}

/// One progressive snapshot, scalar or grouped — the unified shape a
/// [`crate::QueryHandle`] streams and a [`QueryResult`] finishes with.
#[derive(Debug, Clone)]
pub enum Snapshot {
    /// A scalar query's snapshot (no `GROUP BY`).
    Scalar(ProgressSnapshot),
    /// A grouped query's snapshot (one entry per discovered group).
    Grouped(GroupedProgressSnapshot),
}

impl Snapshot {
    /// Cumulative sampled result tuples consumed.
    pub fn rows(&self) -> u64 {
        match self {
            Snapshot::Scalar(s) => s.rows,
            Snapshot::Grouped(s) => s.rows,
        }
    }

    /// 1-based snapshot index.
    pub fn chunk(&self) -> u64 {
        match self {
            Snapshot::Scalar(s) => s.chunk,
            Snapshot::Grouped(s) => s.chunk,
        }
    }

    /// Worst (largest) relative CI half-width the stopping rule is judged
    /// on (tracked groups only, for grouped snapshots).
    pub fn rel_half_width(&self) -> Option<f64> {
        match self {
            Snapshot::Scalar(s) => s.rel_half_width,
            Snapshot::Grouped(s) => s.rel_half_width,
        }
    }

    /// Confidence level the snapshot's intervals were computed at.
    pub fn confidence(&self) -> f64 {
        match self {
            Snapshot::Scalar(s) => s.confidence,
            Snapshot::Grouped(s) => s.confidence,
        }
    }

    /// Per-relation `(consumed, available)` scan coverage.
    pub fn progress(&self) -> &[(u64, u64)] {
        match self {
            Snapshot::Scalar(s) => &s.progress,
            Snapshot::Grouped(s) => &s.progress,
        }
    }

    /// The GUS the snapshot was read under.
    pub fn gus(&self) -> &GusParams {
        match self {
            Snapshot::Scalar(s) => &s.gus,
            Snapshot::Grouped(s) => &s.gus,
        }
    }

    /// Wall time since the loop started.
    pub fn elapsed(&self) -> Duration {
        match self {
            Snapshot::Scalar(s) => s.elapsed,
            Snapshot::Grouped(s) => s.elapsed,
        }
    }

    /// The scalar snapshot, if this is one.
    pub fn as_scalar(&self) -> Option<&ProgressSnapshot> {
        match self {
            Snapshot::Scalar(s) => Some(s),
            Snapshot::Grouped(_) => None,
        }
    }

    /// The grouped snapshot, if this is one.
    pub fn as_grouped(&self) -> Option<&GroupedProgressSnapshot> {
        match self {
            Snapshot::Scalar(_) => None,
            Snapshot::Grouped(s) => Some(s),
        }
    }
}

/// The outcome of every terminal — `.run()`, `.online()`, `.batch()` and
/// `.exact()`: scalar vs. grouped is a variant of
/// [`QueryResult::snapshot`], not a separate entry point.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Why the loop stopped.
    pub reason: StopReason,
    /// The last emitted snapshot (the final estimates).
    pub snapshot: Snapshot,
    /// Number of snapshots read out: one for `.batch()` and `.exact()`.
    pub chunks: u64,
    /// Lineage groups the moment accumulator held when the loop stopped
    /// (`sa_core::MomentAccumulator::lineage_entries`, summed over groups
    /// for a grouped query) — what its memory grew with. None is held for
    /// a relation subset the stream's tuples are distinct on
    /// (`sa_exec::ChunkStream::distinct`): zero for a single-table query
    /// with row lineage, and a join on a unique build key holds no
    /// probe-side table either (`lineitem ⋈ orders` on `o_orderkey` keeps
    /// only the `{orders}` one).
    pub lineage_entries: usize,
    /// The SOA analysis (top GUS, lineage schema, rewrite trace).
    pub analysis: SoaAnalysis,
    /// A scalar query's multi-dimensional estimate report, read under the
    /// last snapshot's GUS (for variance prediction and delta-method
    /// post-processing); `report.m` is the number of tuples the variance
    /// was estimated from, fewer than `snapshot.rows()` under Section 7
    /// sub-sampling. `None` under GROUP BY.
    pub report: Option<EstimateReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, QueryBuilder};

    #[test]
    fn every_option_row_round_trips() {
        let engine = Engine::new(sa_storage::Catalog::new());
        let session = engine.session();
        let base = session.query("").opts;
        let text = |name: &str, value: &str| {
            let mut o = base.clone();
            o.set(name, value)
                .unwrap_or_else(|e| panic!("{name} {value}: {e}"));
            o
        };
        // Every documented valid form sets what the typed setter sets.
        type Typed = fn(QueryBuilder) -> QueryBuilder;
        let valid: [(&str, &[&str], Typed); 16] = [
            ("seed", &["7", " 7 ", "+7"], |q| q.seed(7)),
            ("seed", &["18446744073709551615"], |q| q.seed(u64::MAX)),
            ("chunk", &["500"], |q| q.chunk_rows(500)),
            ("chunk", &["1"], |q| q.chunk_rows(1)),
            ("jobs", &["2"], |q| q.jobs(2)),
            ("jobs", &["1"], |q| q.jobs(1)),
            ("confidence", &["0.9", "9e-1"], |q| q.confidence(0.9)),
            ("top-k", &["5"], |q| q.ci_top_k(5)),
            ("top-k", &["off", "OFF"], |q| q),
            ("deadline", &["250"], |q| {
                q.deadline(Duration::from_millis(250))
            }),
            ("deadline", &["0", "off", "Off"], |q| q),
            ("adaptive", &["on", "ON"], |q| q.adaptive_chunks(true)),
            ("adaptive", &["off"], |q| q.adaptive_chunks(false)),
            ("shuffle", &["on", "On"], |q| q.shuffle_scan(true)),
            ("shuffle", &["off", "OFF"], |q| q.shuffle_scan(false)),
            ("confidence", &["0.5"], |q| q.confidence(0.5)),
        ];
        for (name, forms, typed) in valid {
            let want = typed(session.query("")).opts;
            for form in forms {
                assert_eq!(text(name, form), want, "{name} {form}");
            }
        }
        // `off` and `0` clear what an earlier value set.
        let mut o = text("top-k", "5");
        o.set("top-k", "off").unwrap();
        assert_eq!(o, base);
        let mut o = text("deadline", "250");
        o.set("deadline", "0").unwrap();
        assert_eq!(o, base);
        assert!(QueryOptions::names().all(|(name, _)| valid.iter().any(|v| v.0 == name)));

        // Malformed text and out-of-range values name the row and change
        // nothing.
        let invalid: [(&str, &[&str]); 8] = [
            ("seed", &["x", "-1", "1.5", "", "18446744073709551616"]),
            ("chunk", &["0", "-3", "x", ""]),
            ("jobs", &["0", "two", "-1"]),
            ("confidence", &["0", "1", "1.5", "-0.1", "NaN", "95%"]),
            ("top-k", &["0", "-1", "all"]),
            ("deadline", &["soon", "-5", "1.5", "on"]),
            ("adaptive", &["maybe", "1", ""]),
            ("shuffle", &["yes", "offf"]),
        ];
        for (name, values) in invalid {
            for value in values {
                let mut o = base.clone();
                match o.set(name, value) {
                    Err(Error::InvalidOptions(msg)) => {
                        assert!(msg.starts_with(&format!("{name} needs ")), "{msg}")
                    }
                    other => panic!("{name} {value:?}: {other:?}"),
                }
                assert_eq!(o, base, "{name} {value:?} left a change behind");
            }
        }
        assert!(base.clone().set("rule", "on").is_err());

        // One range rule: the table and the typed API's validation give
        // one message.
        let typed: [(&str, &str, Typed); 4] = [
            ("chunk", "0", |q| q.chunk_rows(0)),
            ("jobs", "0", |q| q.jobs(0)),
            ("confidence", "1.5", |q| q.confidence(1.5)),
            ("top-k", "0", |q| q.ci_top_k(0)),
        ];
        for (name, value, tweak) in typed {
            let by_name = base.clone().set(name, value).unwrap_err();
            let opts = tweak(session.query("")).opts;
            let by_field = crate::driver::validate_options(&opts, &[]).unwrap_err();
            assert_eq!(by_name, by_field, "{name} {value}");
        }
    }
}
