//! Smoke tests for the `sa` shell binary: one-shot queries, grouped output,
//! and the interactive command loop over a pipe.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};

fn sa() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_sa"));
    c.arg("--tpch").arg("0.001").arg("--seed").arg("7");
    c
}

/// Wall-clock columns differ run to run; drop them, compare the rest.
fn strip_times(s: &str) -> String {
    s.lines()
        .map(|l| {
            let t = l.trim_end();
            if t.ends_with("ms)") {
                // "stopped: … (N ms)" → drop the parenthetical.
                t.rsplit_once(" (").map(|(h, _)| h).unwrap_or(t).to_string()
            } else if t.ends_with("ms") {
                // snapshot line → drop the trailing elapsed column.
                t.rsplit_once(' ').map(|(h, _)| h).unwrap_or(t).to_string()
            } else {
                t.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn one_shot_scalar_query() {
    let out = sa()
        .arg("--query")
        .arg("SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (20 PERCENT)")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("estimate"), "{stdout}");
    assert!(stdout.contains('q'), "{stdout}");
    assert!(stdout.contains("normal"), "{stdout}");
}

#[test]
fn one_shot_grouped_query() {
    let out = sa()
        .arg("--query")
        .arg(
            "SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (30 PERCENT) \
             GROUP BY l_returnflag",
        )
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("observed groups"), "{stdout}");
    // All three return flags should appear at 30%.
    for flag in ["A", "N", "R"] {
        assert!(stdout.contains(flag), "missing group {flag}: {stdout}");
    }
}

#[test]
fn interactive_commands() {
    let mut child = sa()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let stdin = child.stdin.as_mut().expect("piped stdin");
    writeln!(stdin, "\\tables").unwrap();
    writeln!(stdin, "\\seed 9").unwrap();
    writeln!(
        stdin,
        "SELECT COUNT(*) AS n FROM orders TABLESAMPLE (50 PERCENT);"
    )
    .unwrap();
    writeln!(stdin, "\\exact SELECT COUNT(*) AS n FROM orders").unwrap();
    writeln!(
        stdin,
        "\\trace SELECT COUNT(*) FROM orders TABLESAMPLE (50 PERCENT)"
    )
    .unwrap();
    writeln!(stdin, "\\quit").unwrap();
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lineitem"), "{stdout}"); // \tables
    assert!(stdout.contains("seed = 9"), "{stdout}");
    assert!(stdout.contains("estimate"), "{stdout}");
    assert!(stdout.contains("exact"), "{stdout}");
    assert!(stdout.contains("rewrite steps"), "{stdout}"); // \trace
    assert!(stdout.contains("top GUS"), "{stdout}");
}

/// The estimate and std-err columns of the last table row for `name`.
fn agg_row(stdout: &str, name: &str) -> (String, String) {
    let row = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with(name))
        .unwrap_or_else(|| panic!("no {name} row: {stdout}"));
    let mut cols = row.split_whitespace().skip(1);
    (
        cols.next().expect("estimate column").to_string(),
        cols.next().expect("std err column").to_string(),
    )
}

/// The number right before `unit` (e.g. "1158 result tuples" → 1158).
fn count_before(stdout: &str, unit: &str) -> u64 {
    let head = stdout
        .split(unit)
        .next()
        .filter(|h| h.len() < stdout.len())
        .unwrap_or_else(|| panic!("no `{unit}` in: {stdout}"));
    let digits = head.trim_end().rsplit(|c: char| !c.is_ascii_digit()).next();
    digits.unwrap().parse().expect("a count")
}

#[test]
fn batch_and_online_print_one_answer() {
    // Same --seed, with and without --online: both drain the same stream,
    // so the batch estimate IS the exhausted online estimate.
    let run = |online: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sa"));
        cmd.args(["--tpch", "0.002", "--seed", "7"]);
        if online {
            cmd.arg("--online");
        }
        let out = cmd
            .arg("--query")
            .arg("SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (10 PERCENT)")
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (batch, online) = (run(false), run(true));
    assert!(online.contains("stopped: exhausted"), "{online}");
    assert_eq!(agg_row(&batch, "col0"), agg_row(&online, "col0"));
    assert_eq!(
        count_before(&batch, " result tuples"),
        count_before(&online, " rows in "),
        "batch:\n{batch}\nonline:\n{online}"
    );
}

#[test]
fn subsample_and_exact_run_through_the_drain() {
    let mut child = sa()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let stdin = child.stdin.as_mut().expect("piped stdin");
    let sql = "SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (50 PERCENT)";
    writeln!(stdin, "{sql};").unwrap();
    writeln!(stdin, "\\seed 7").unwrap(); // the batch query advanced the seed
    writeln!(stdin, "\\subsample 300").unwrap();
    writeln!(stdin, "{sql};").unwrap();
    writeln!(stdin, "\\exact SELECT COUNT(*) AS n FROM orders").unwrap();
    writeln!(
        stdin,
        "\\exact SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag"
    )
    .unwrap();
    // Still under \subsample 300: a grouped batch has no §7 path and says so.
    writeln!(
        stdin,
        "SELECT l_returnflag, COUNT(*) AS n FROM lineitem TABLESAMPLE (50 PERCENT) \
         GROUP BY l_returnflag;"
    )
    .unwrap();
    writeln!(stdin, "\\quit").unwrap();
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\\subsample applies to scalar queries"),
        "{stdout}"
    );
    // \subsample: same sample, same point estimate, fewer variance tuples.
    let (full, sub) = stdout
        .split_once("variance from ~300 tuples")
        .unwrap_or_else(|| panic!("no \\subsample ack: {stdout}"));
    assert_eq!(agg_row(full, "q").0, agg_row(sub, "q").0, "{stdout}");
    let tuples = count_before(sub, " result tuples");
    let used = count_before(sub, "; top GUS");
    assert_eq!(tuples, count_before(full, " result tuples"));
    assert!(
        used < tuples && used > 100,
        "variance from {used} of {tuples}"
    );
    // \exact: orders has 1500 rows at this scale; the grouped form prints
    // one line per return flag, summing to lineitem's 5971 rows.
    assert!(stdout.contains("exact: [1500.0]"), "{stdout}");
    let per_flag: f64 = ["A", "N", "R"]
        .iter()
        .map(|flag| {
            let line = stdout
                .lines()
                .find(|l| l.starts_with(flag) && l.trim_end().ends_with(']'))
                .unwrap_or_else(|| panic!("no exact row for {flag}: {stdout}"));
            let value = line
                .rsplit('[')
                .next()
                .unwrap()
                .trim_end()
                .trim_end_matches(']');
            value.parse::<f64>().expect("a count")
        })
        .sum();
    assert_eq!(per_flag, 5971.0, "lineitem's row count: {stdout}");
}

#[test]
fn jobs_flag_drives_parallel_online_query() {
    // The shard-parallel path end to end: --jobs 4 must run the online
    // query to a stop and print the same summary shape as --jobs 1.
    let out = Command::new(env!("CARGO_BIN_EXE_sa"))
        .args([
            "--tpch", "0.002", "--seed", "7", "--chunk", "600", "--jobs", "4", "--online",
        ])
        .arg("--query")
        .arg(
            "SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (60 PERCENT) \
             WITHIN 5 PERCENT CONFIDENCE 95",
        )
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stopped: ci-converged"), "{stdout}");
    assert!(stdout.contains("final normal CI"), "{stdout}");
}

#[test]
fn jobs_zero_flag_rejected() {
    let out = sa()
        .args(["--jobs", "0", "--online"])
        .arg("--query")
        .arg("SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (20 PERCENT)")
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "--jobs 0 must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--jobs"), "{stderr}");
}

#[test]
fn interactive_jobs_command() {
    let mut child = sa()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let stdin = child.stdin.as_mut().expect("piped stdin");
    writeln!(stdin, "\\jobs 0").unwrap(); // rejected, session survives
    writeln!(stdin, "\\jobs 2").unwrap();
    writeln!(
        stdin,
        "\\online SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (40 PERCENT)"
    )
    .unwrap();
    writeln!(stdin, "\\quit").unwrap();
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\\jobs needs a positive worker count"),
        "{stdout}"
    );
    assert!(stdout.contains("jobs = 2 workers"), "{stdout}");
    assert!(stdout.contains("stopped: exhausted"), "{stdout}");
}

#[test]
fn one_shot_online_query_with_stopping_rule() {
    // Deterministic workload (fixed --seed): the ε/δ rule must fire before
    // the 60% sample drains, and the run must say so.
    let out = Command::new(env!("CARGO_BIN_EXE_sa"))
        .args([
            "--tpch", "0.002", "--seed", "7", "--chunk", "600", "--online",
        ])
        .arg("--query")
        .arg(
            "SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (60 PERCENT) \
             WITHIN 5 PERCENT CONFIDENCE 95",
        )
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stopped: ci-converged"), "{stdout}");
    // Live progress lines: header plus at least two snapshots.
    assert!(stdout.contains("±half-width"), "{stdout}");
    assert!(stdout.matches("ms").count() >= 2, "{stdout}");
    assert!(stdout.contains("final normal CI"), "{stdout}");
    // Reproducible: the same seed gives byte-identical progress.
    let again = Command::new(env!("CARGO_BIN_EXE_sa"))
        .args([
            "--tpch", "0.002", "--seed", "7", "--chunk", "600", "--online",
        ])
        .arg("--query")
        .arg(
            "SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (60 PERCENT) \
             WITHIN 5 PERCENT CONFIDENCE 95",
        )
        .output()
        .expect("binary runs");
    assert_eq!(
        strip_times(&stdout),
        strip_times(&String::from_utf8_lossy(&again.stdout))
    );
}

#[test]
fn one_shot_online_grouped_query_with_per_group_stopping() {
    // GROUP BY + WITHIN: live per-group snapshot tables, per-group stopping,
    // and byte-identical output across two runs with the same seed.
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_sa"))
            .args([
                "--tpch", "0.002", "--seed", "42", "--chunk", "800", "--online",
            ])
            .arg("--query")
            .arg(
                "SELECT l_returnflag, SUM(l_quantity) AS q \
                 FROM lineitem TABLESAMPLE (30 PERCENT) \
                 GROUP BY l_returnflag \
                 WITHIN 10 PERCENT CONFIDENCE 95",
            )
            .output()
            .expect("binary runs")
    };
    let out = run();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Live per-group snapshot tables: chunk headers plus one line per group.
    assert!(stdout.contains("groups (+"), "{stdout}");
    assert!(stdout.contains("worst rel"), "{stdout}");
    for flag in ["A", "N", "R"] {
        assert!(
            stdout.matches(&format!("\n    {flag}")).count() >= 2,
            "expected repeated snapshot lines for group {flag}: {stdout}"
        );
    }
    // Per-group stopping fired before exhaustion, and the summary table
    // reports every group.
    assert!(stdout.contains("stopped: ci-converged"), "{stdout}");
    assert!(stdout.contains("final normal CI"), "{stdout}");
    assert!(stdout.contains("(3 observed groups)"), "{stdout}");
    // Reproducible: the same seed gives byte-identical progress.
    let again = run();
    assert_eq!(
        strip_times(&stdout),
        strip_times(&String::from_utf8_lossy(&again.stdout))
    );
}

#[test]
fn chunk_zero_flag_rejected() {
    // Regression: `--chunk 0` must be rejected at the CLI boundary with a
    // clear error instead of degenerating the pull loop into 1-row chunks.
    let out = Command::new(env!("CARGO_BIN_EXE_sa"))
        .args(["--tpch", "0.001", "--chunk", "0", "--online"])
        .arg("--query")
        .arg("SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (20 PERCENT)")
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "--chunk 0 must fail");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("positive row count"), "{stderr}");
}

#[test]
fn interactive_chunk_zero_rejected_and_session_survives() {
    // Regression: `\chunk 0` is refused, the previous chunk size stays in
    // effect, and the shell keeps working.
    let mut child = sa()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let stdin = child.stdin.as_mut().expect("piped stdin");
    writeln!(stdin, "\\chunk 500").unwrap();
    writeln!(stdin, "\\chunk 0").unwrap();
    writeln!(
        stdin,
        "\\online SELECT COUNT(*) AS n FROM orders TABLESAMPLE (80 PERCENT)"
    )
    .unwrap();
    writeln!(stdin, "\\quit").unwrap();
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chunk = 500"), "{stdout}");
    assert!(stdout.contains("positive row count"), "{stdout}");
    assert!(stdout.contains("stopped: exhausted"), "{stdout}");
}

#[test]
fn deadline_zero_flag_means_no_deadline() {
    // `--deadline 0` clears the deadline, as the server's `DEADLINE 0`
    // does; it used to stop the query at its first tick.
    let out = Command::new(env!("CARGO_BIN_EXE_sa"))
        .args(["--tpch", "0.002", "--seed", "7", "--chunk", "600"])
        .args(["--deadline", "0", "--online"])
        .arg("--query")
        .arg("SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (40 PERCENT)")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stopped: exhausted"), "{stdout}");
}

#[test]
fn connect_refuses_options_the_server_cannot_take() {
    // The protocol carries seed, shuffle and deadline only: any other
    // option flag exits 2 before connecting, naming the flag, instead of
    // running the query without it.
    let refused: [&[&str]; 5] = [
        &["--jobs", "3"],
        &["--chunk", "50"],
        &["--adaptive-chunks"],
        &["--confidence", "0.9"],
        &["--top-k", "2"],
    ];
    for flags in refused {
        let out = Command::new(env!("CARGO_BIN_EXE_sa"))
            .args(["--connect", "127.0.0.1:9", "--seed", "7", "--shuffle-scan"])
            .args(flags)
            .args(["--query", "SELECT SUM(l_quantity) FROM lineitem"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!(
            "{} cannot be sent to sa-server; it accepts seed, shuffle, deadline",
            flags[0]
        );
        assert!(stderr.contains(&want), "{stderr}");
    }
}

#[test]
fn interactive_option_table_commands() {
    // The rows only the typed API reached before: `\confidence`,
    // `\top-k` and `\deadline`, acknowledged or refused like the rest.
    let mut child = sa()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let stdin = child.stdin.as_mut().expect("piped stdin");
    for line in [
        "\\confidence 0.9",
        "\\confidence 1.5",
        "\\top-k 2",
        "\\deadline 0",
        "\\online SELECT COUNT(*) AS n FROM orders TABLESAMPLE (80 PERCENT)",
        "\\quit",
    ] {
        writeln!(stdin, "{line}").unwrap();
    }
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("confidence = 0.9"), "{stdout}");
    assert!(stdout.contains("\\confidence needs a level"), "{stdout}");
    assert!(stdout.contains("top-k = 2 groups"), "{stdout}");
    assert!(stdout.contains("deadline off"), "{stdout}");
    assert!(stdout.contains("stopped: exhausted"), "{stdout}");
    assert!(stdout.contains("(90% normal)"), "{stdout}");
}

#[test]
fn interactive_online_command() {
    let mut child = sa()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let stdin = child.stdin.as_mut().expect("piped stdin");
    writeln!(stdin, "\\chunk 500").unwrap();
    writeln!(
        stdin,
        "\\online SELECT COUNT(*) AS n FROM orders TABLESAMPLE (80 PERCENT)"
    )
    .unwrap();
    writeln!(stdin, "\\online SELECT nope FROM nothing").unwrap();
    writeln!(stdin, "\\quit").unwrap();
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chunk = 500"), "{stdout}");
    // No accuracy clause → the loop drains the sample.
    assert!(stdout.contains("stopped: exhausted"), "{stdout}");
    assert!(stdout.contains("final normal CI"), "{stdout}");
    // Errors are values; the shell survives them.
    assert!(stdout.contains("error:"), "{stdout}");
}

#[test]
fn bad_sql_reports_error_and_continues() {
    let mut child = sa()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let stdin = child.stdin.as_mut().expect("piped stdin");
    writeln!(stdin, "SELECT FROM nothing").unwrap();
    writeln!(
        stdin,
        "SELECT COUNT(*) AS n FROM orders TABLESAMPLE (10 PERCENT);"
    )
    .unwrap();
    writeln!(stdin, "\\quit").unwrap();
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error:"), "{stdout}");
    assert!(stdout.contains("estimate"), "survived the error: {stdout}");
}

/// `sa … | head -1`: a reader that goes away mid-stream ends `sa` like any
/// Unix filter — silently, not with a `println!` panic and exit code 101.
/// The query prints far more than a pipe buffers, so the child is still
/// writing when the read end closes.
#[test]
fn closed_stdout_ends_the_process_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sa"))
        .args(["--tpch", "0.01", "--seed", "7", "--chunk", "10", "--online"])
        .args([
            "--query",
            "SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (50 PERCENT)",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("one line arrives");
    assert!(!first.is_empty());
    drop(stdout);
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

/// The `sa-server` binary belongs to another package, so cargo hands this
/// suite no path to it: build it (a link at most — the library is a
/// dependency of this package) into the directory `sa` came from.
#[cfg(unix)]
fn sa_server() -> Command {
    let bin_dir = std::path::Path::new(env!("CARGO_BIN_EXE_sa"))
        .parent()
        .expect("sa sits in a profile directory");
    let mut build = Command::new(env!("CARGO"));
    build
        .args(["build", "--offline", "--quiet", "-p", "sa-server"])
        .args(["--bin", "sa-server", "--target-dir"])
        .arg(bin_dir.parent().expect("profile directory sits in target"))
        .current_dir(env!("CARGO_MANIFEST_DIR"));
    if bin_dir.ends_with("release") {
        build.arg("--release");
    }
    assert!(build.status().expect("cargo runs").success());
    Command::new(bin_dir.join("sa-server"))
}

/// SIGTERM with stderr on a closed pipe: the drain must start before the
/// server says anything, so the in-flight query still gets its `FINAL` and
/// the process exits 0 — the signal monitor used to panic on its own log
/// line and the server never drained.
#[cfg(unix)]
#[test]
fn server_drains_on_sigterm_with_stderr_closed() {
    /// A failed assertion must not leave the server running.
    struct Reaped(std::process::Child);
    impl Drop for Reaped {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut server = Reaped(
        sa_server()
            .args(["--tpch", "0.01", "--seed", "42", "--addr", "127.0.0.1:0"])
            .args(["--drain-ms", "10000"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sa-server spawns"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("READY line");
    let addr = ready
        .trim()
        .strip_prefix("READY ")
        .unwrap_or_else(|| panic!("expected READY, got {ready:?}"));
    // Everything the server says at start-up precedes READY; from here on
    // its stderr is a closed pipe.
    drop(server.0.stderr.take());

    // An exhaustive query, in flight once its first snapshot arrives.
    // A server that never drains keeps the connection open: fail, not hang.
    let conn = std::net::TcpStream::connect(addr).expect("server accepts");
    conn.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout sets");
    let mut tx = conn.try_clone().expect("socket clones");
    writeln!(
        tx,
        "QUERY SELECT SUM(l_quantity) AS q FROM lineitem TABLESAMPLE (50 PERCENT)"
    )
    .unwrap();
    let mut lines = BufReader::new(conn).lines();
    let first = lines.next().expect("a snapshot").expect("socket reads");
    assert!(!first.starts_with("ERR"), "{first}");
    let term = Command::new("kill")
        .args(["-TERM", &server.0.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let rest: Vec<String> = lines.map(|l| l.expect("socket reads")).collect();
    assert!(
        rest.iter().any(|l| l.starts_with("FINAL reason=")),
        "in-flight query lost its answer: {rest:?}"
    );
    assert_eq!(rest.last().map(String::as_str), Some("DONE"));
    let status = server.0.wait().expect("server exits");
    assert!(status.success(), "server exited {status}");
    // The final STATS dump still goes to the (open) stdout.
    let mut stats = String::new();
    stdout.read_to_string(&mut stats).expect("stdout reads");
    assert!(stats.contains("sa_queries_finished_total"), "{stats}");
}
