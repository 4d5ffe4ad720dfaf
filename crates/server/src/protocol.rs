//! The line protocol `sa-server` speaks.
//!
//! One UTF-8 line per message, newline-terminated, both ways. Requests:
//!
//! ```text
//! SEED <n>         set that option of the connection's session  → OK
//! SHUFFLE on|off   for subsequent queries (`QueryOptions::set`;
//! DEADLINE <ms>    a `DEADLINE` of 0 or `off` clears)
//! QUERY <sql>      run a TABLESAMPLE aggregate query            → see below
//! STATS            dump engine metrics                          → see below
//! PING             liveness probe                               → OK
//! SHUTDOWN         drain the whole server gracefully            → OK
//! QUIT             close the connection
//! ```
//!
//! A query cut short by its `DEADLINE` still answers a well-formed
//! `FINAL reason=deadline …` line: the estimate over the prefix absorbed so
//! far is itself unbiased (a deadline run is a WOR(consumed, N) sample —
//! see `docs/estimation-notes.md` §9), so clients can use it.
//!
//! `SHUTDOWN` acknowledges with `OK` and then stops the server accepting
//! new connections; in-flight queries drain under the server's drain
//! deadline (past it they are cancelled and still answer `FINAL
//! reason=cancelled`), after which every connection closes.
//!
//! A `QUERY` answers with a stream of progress lines and always terminates
//! with `DONE`:
//!
//! ```text
//! SNAP rows=<n> chunk=<c> estimate=<e> rel=<r|na>        (scalar, throttled)
//! SNAP rows=<n> chunk=<c> groups=<g> rel=<r|na>          (grouped, throttled)
//! GROUP key=<k> estimate=<e> rel=<r|na>                  (grouped, at the end)
//! FINAL reason=<stop-reason> rows=<n> estimate=<e> ci=<lo>..<hi>
//! FINAL reason=<stop-reason> rows=<n> groups=<g>
//! DONE
//! ```
//!
//! `STATS` answers the engine's metrics in Prometheus text exposition
//! format (`# TYPE` comments, one `name value` sample per line — counters,
//! gauges, and latency summaries with p50/p95/p99 quantile samples),
//! terminated by `DONE`. The engine behind [`crate::Server::bind`] always
//! records metrics, so the dump is never empty.
//!
//! Failures (bad request, planning error, admission rejection) answer
//! `ERR <message>` — still followed by `DONE` for `QUERY` so clients can
//! treat `DONE` as the universal exchange terminator.

use sa_online::{GroupedProgressSnapshot, ProgressSnapshot, QueryResult, Snapshot};

/// The option-table rows a client may set, each by the verb that is its
/// name in capitals: `SEED`, `SHUFFLE` and `DEADLINE`. The worker count
/// and chunk size are the server's to choose.
pub const OPTION_VERBS: [&str; 3] = ["seed", "shuffle", "deadline"];

/// A parsed client request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `QUERY <sql>`: run an approximate aggregate query.
    Query(String),
    /// `SEED`, `SHUFFLE` or `DEADLINE`: set that [`OPTION_VERBS`] row for
    /// the connection's subsequent queries. The value is the session's to
    /// check ([`sa_online::QueryOptions::set`]); one it refuses is an `ERR`.
    Set(String, String),
    /// `SHUTDOWN`: begin a graceful server-wide drain.
    Shutdown,
    /// `STATS`: dump engine metrics in Prometheus text format.
    Stats,
    /// `PING`: liveness probe.
    Ping,
    /// `QUIT`: close the connection.
    Quit,
}

/// Parse one request line. Keywords are case-insensitive; the SQL payload
/// is taken verbatim.
pub fn parse(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
    match verb.to_ascii_uppercase().as_str() {
        "QUERY" if !rest.trim().is_empty() => Ok(Request::Query(rest.trim().to_string())),
        "QUERY" => Err("QUERY needs SQL".into()),
        option if OPTION_VERBS.iter().any(|v| v.eq_ignore_ascii_case(option)) => Ok(Request::Set(
            option.to_ascii_lowercase(),
            rest.trim().to_string(),
        )),
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "QUIT" => Ok(Request::Quit),
        other => Err(format!("unknown request `{other}`")),
    }
}

fn fmt_rel(rel: Option<f64>) -> String {
    rel.map(|r| format!("{r:.6}"))
        .unwrap_or_else(|| "na".into())
}

/// Render a progress snapshot as one `SNAP` line.
pub fn snap_line(snap: &Snapshot) -> String {
    match snap {
        Snapshot::Scalar(s) => format!(
            "SNAP rows={} chunk={} estimate={} rel={}",
            s.rows,
            s.chunk,
            s.aggs[0].estimate,
            fmt_rel(snap.rel_half_width()),
        ),
        Snapshot::Grouped(s) => format!(
            "SNAP rows={} chunk={} groups={} rel={}",
            s.rows,
            s.chunk,
            s.groups.len(),
            fmt_rel(snap.rel_half_width()),
        ),
    }
}

fn scalar_final(s: &ProgressSnapshot, reason: &str) -> Vec<String> {
    let ci = s.aggs[0]
        .ci_normal
        .as_ref()
        .map(|ci| format!("{}..{}", ci.lo, ci.hi))
        .unwrap_or_else(|| "na".into());
    vec![format!(
        "FINAL reason={reason} rows={} estimate={} ci={ci}",
        s.rows, s.aggs[0].estimate,
    )]
}

fn grouped_final(s: &GroupedProgressSnapshot, reason: &str) -> Vec<String> {
    let mut lines: Vec<String> = s
        .groups
        .iter()
        .map(|g| {
            let key: Vec<String> = g.key.iter().map(|v| v.to_string()).collect();
            format!(
                "GROUP key={} estimate={} rel={}",
                key.join(","),
                g.aggs[0].estimate,
                fmt_rel(g.rel_half_width),
            )
        })
        .collect();
    lines.push(format!(
        "FINAL reason={reason} rows={} groups={}",
        s.rows,
        s.groups.len(),
    ));
    lines
}

/// Render a finished query as its `GROUP`*/`FINAL` lines (no `DONE`).
pub fn final_lines(result: &QueryResult) -> Vec<String> {
    let reason = result.reason.to_string();
    match &result.snapshot {
        Snapshot::Scalar(s) => scalar_final(s, &reason),
        Snapshot::Grouped(s) => grouped_final(s, &reason),
    }
}

/// Render an error as one `ERR` line (newlines squashed so the line
/// protocol stays line-shaped).
pub fn err_line(msg: &str) -> String {
    format!("ERR {}", msg.replace(['\n', '\r'], " "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse() {
        assert_eq!(
            parse("QUERY SELECT 1"),
            Ok(Request::Query("SELECT 1".into()))
        );
        assert_eq!(parse("query select sum(v) from t"), {
            Ok(Request::Query("select sum(v) from t".into()))
        });
        let set = |name: &str, value: &str| Ok(Request::Set(name.into(), value.into()));
        assert_eq!(parse("SEED 42"), set("seed", "42"));
        assert_eq!(parse("SHUFFLE on"), set("shuffle", "on"));
        assert_eq!(parse("shuffle OFF"), set("shuffle", "OFF"));
        // A value is checked where it is set, by the session's option table.
        assert_eq!(parse("SHUFFLE maybe"), set("shuffle", "maybe"));
        assert_eq!(parse("DEADLINE 250"), set("deadline", "250"));
        assert_eq!(parse("deadline off"), set("deadline", "off"));
        assert_eq!(parse("DEADLINE 0"), set("deadline", "0"));
        assert_eq!(parse("DEADLINE soon"), set("deadline", "soon"));
        assert_eq!(parse("SHUTDOWN"), Ok(Request::Shutdown));
        assert_eq!(parse("stats"), Ok(Request::Stats));
        assert_eq!(parse(" PING "), Ok(Request::Ping));
        assert_eq!(parse("quit"), Ok(Request::Quit));
        assert!(parse("QUERY").is_err());
        assert_eq!(parse("SEED x"), set("seed", "x"));
        assert!(parse("EXPLAIN SELECT 1").is_err());
    }

    #[test]
    fn err_lines_stay_single_line() {
        assert_eq!(err_line("a\nb\r\nc"), "ERR a b  c");
    }
}
