//! `sa` — an interactive approximate-query shell over TPC-H-style data.
//!
//! The tool the paper envisions: type a `TABLESAMPLE` aggregate query, get an
//! unbiased estimate with confidence intervals (and, with `GROUP BY`,
//! per-group intervals). Commands:
//!
//! ```text
//! sa --tpch 0.01 [--seed 42]            # start with generated data
//! sa --tpch 1.0 --persist ./tpch1       # generate once, write .sac files
//! sa --data ./tpch1 --query "SELECT …"  # reopen memory-mapped (out of core)
//! sa --tpch 0.01 --query "SELECT …"     # one-shot, non-interactive
//! sa --online --query "SELECT … WITHIN 5 PERCENT CONFIDENCE 95"
//!                                       # one-shot online aggregation
//! sa --connect HOST:PORT --query "…"    # run against a remote sa-server
//! sa --connect HOST:PORT --stats        # dump a remote server's metrics
//! sa --tpch 0.01 --online --query "…" --stats-json out.json
//!                                       # write engine metrics as JSON on exit
//! ```
//!
//! `--NAME VALUE` sets a row of the query option table ([`QueryOptions::set`]:
//! `seed`, `chunk`, `jobs`, `confidence`, `top-k`, `deadline`, `adaptive`,
//! `shuffle`); `--adaptive-chunks` and `--shuffle-scan` are `--adaptive on`
//! and `--shuffle on`. `--seed` (42 by default) also seeds the data
//! generator, so a given invocation is fully reproducible.
//!
//! `--connect ADDR` turns the binary into a thin client for `sa-server`:
//! the seed and any `--shuffle`/`--deadline` are sent as the server's
//! option verbs (any other option flag is refused, exit 2), the query over
//! the line protocol, progress (`SNAP`/`GROUP`) and final (`FINAL`) lines
//! are relayed to stdout, and the process exits 0 on `DONE` and 1 on `ERR`.
//!
//! Inside the shell:
//!
//! ```text
//! SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (10 PERCENT);
//! \online SELECT …      progressive estimation with live snapshots
//!                       (add WITHIN ε PERCENT CONFIDENCE γ to stop early)
//! \exact SELECT …       run without sampling (ground truth)
//! \trace SELECT …       show the SOA rewrite trace and top GUS table
//! \tables               list tables
//! \NAME VALUE           set a query option for the next queries, as the
//!                       `--NAME VALUE` flag does (`\seed 9`, `\chunk 500`,
//!                       `\jobs 2`, `\shuffle on`, `\deadline off`, …)
//! \subsample N          estimate variance from ~N tuples (§7); 0 = off
//! \stats                dump engine metrics (Prometheus text format)
//! \quit
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use sampling_algebra::prelude::*;
use sampling_algebra::server::protocol::OPTION_VERBS;
use sampling_algebra::sql::plan_grouped_sql;

/// Shell state: the session whose options every query starts from, plus
/// the batch estimate's §7 knob.
struct Shell {
    session: Session,
    subsample: Option<u64>,
}

/// Let a closed stdout (`sa --online … | head -3`) end the process the way
/// it ends any Unix filter. The Rust runtime starts with SIGPIPE ignored,
/// which turns the next `println!` into a panic and exit code 101; putting
/// the default disposition back makes that write fatal and silent instead.
/// Socket writes in client mode are unaffected (std sends them with
/// `MSG_NOSIGNAL`).
#[cfg(unix)]
fn die_quietly_on_closed_pipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `signal(2)` with `SIG_DFL` (0) runs no code of ours, and this
    // is the first thing `main` does — no other thread exists yet.
    unsafe {
        signal(13, 0); // SIGPIPE, SIG_DFL
    }
}

#[cfg(not(unix))]
fn die_quietly_on_closed_pipe() {}

fn main() {
    die_quietly_on_closed_pipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.005f64;
    let mut opts = QueryOptions {
        seed: 42,
        ..QueryOptions::default()
    };
    // The option flags given, as (flag, option, value): what connect mode
    // forwards or refuses.
    let mut given: Vec<(String, &str, String)> = Vec::new();
    let mut online = false;
    let mut one_shot: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut persist_dir: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut stats = false;
    let mut stats_json: Option<String> = None;
    let mut fault_spec: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tpch" => scale = arg(&mut it, a, "a scale factor"),
            "--adaptive-chunks" => given.push((a.clone(), "adaptive", "on".into())),
            "--shuffle-scan" => given.push((a.clone(), "shuffle", "on".into())),
            "--online" => online = true,
            "--query" => one_shot = Some(arg(&mut it, a, "SQL")),
            "--connect" => connect = Some(arg(&mut it, a, "HOST:PORT")),
            "--persist" => persist_dir = Some(arg(&mut it, a, "a directory")),
            "--data" => data_dir = Some(arg(&mut it, a, "a directory")),
            "--fault" => fault_spec = Some(arg(&mut it, a, "`site=spec,…`")),
            "--stats" => stats = true,
            "--stats-json" => stats_json = Some(arg(&mut it, a, "a file path")),
            "-h" | "--help" => {
                let options: Vec<String> = QueryOptions::names()
                    .map(|(name, syntax)| format!("[--{name} {syntax}]"))
                    .collect();
                eprintln!(
                    "usage: sa [--tpch SCALE | --data DIR] [--persist DIR] [--online] \
                     [--fault SPEC] [--connect HOST:PORT] [--query SQL] [--stats] \
                     [--stats-json PATH] [--adaptive-chunks] [--shuffle-scan] {}",
                    options.join(" ")
                );
                return;
            }
            flag => match flag.strip_prefix("--").and_then(option_name) {
                Some(name) => {
                    given.push((flag.into(), name, it.next().cloned().unwrap_or_default()))
                }
                None => die(&format!("unknown flag `{flag}`")),
            },
        }
    }
    for (_, name, value) in &given {
        if let Err(e) = opts.set(name, value) {
            die(&format!("--{}", problem(e)));
        }
    }
    let seed = opts.seed;

    if let Some(spec) = &fault_spec {
        sampling_algebra::fault::install(spec, seed)
            .unwrap_or_else(|e| die(&format!("bad --fault: {e}")));
        eprintln!("fault injection armed: {spec} (seed {seed})");
    }

    if let Some(addr) = connect {
        if stats {
            run_stats_client(&addr);
        }
        let sql = one_shot.unwrap_or_else(|| die("--connect needs --query SQL"));
        // The seed always goes; the other options only by the server's
        // option verbs, and one it has no verb for is refused, not dropped.
        let mut requests = vec![format!("SEED {seed}")];
        for (flag, name, value) in &given {
            if !OPTION_VERBS.contains(name) {
                die(&format!(
                    "{flag} cannot be sent to sa-server; it accepts {}",
                    OPTION_VERBS.join(", ")
                ));
            }
            if *name != "seed" {
                requests.push(format!("{} {value}", name.to_ascii_uppercase()));
            }
        }
        requests.push(format!("QUERY {}", sql.replace('\n', " ")));
        run_client(&addr, &requests);
    }

    let catalog = match &data_dir {
        Some(dir) => {
            eprintln!("opening mapped catalog from {dir} …");
            sampling_algebra::storage::open_catalog_dir(std::path::Path::new(dir))
                .unwrap_or_else(|e| die(&format!("cannot open --data {dir}: {e}")))
        }
        None => {
            eprintln!("generating TPC-H data at scale {scale} (seed {seed}) …");
            generate(&TpchConfig::scale(scale).with_seed(seed))
        }
    };
    if let Some(dir) = &persist_dir {
        let written =
            sampling_algebra::storage::persist_catalog(&catalog, std::path::Path::new(dir))
                .unwrap_or_else(|e| die(&format!("cannot persist to {dir}: {e}")));
        for (name, bytes) in &written {
            eprintln!("wrote {dir}/{name}.sac ({bytes} bytes)");
        }
        if one_shot.is_none() {
            // Persist-only invocation: the data is on disk, nothing to run.
            return;
        }
    }
    // The same seed drives the sampling operators: one `--seed` makes the
    // whole run — data, samples, online loop — reproducible. Metrics are
    // always on in the shell so `\stats` / `--stats-json` have data.
    let mut session = Engine::builder(catalog).metrics(true).build().session();
    *session.options_mut() = opts;
    let mut shell = Shell {
        session,
        subsample: None,
    };

    if let Some(sql) = one_shot {
        if online {
            run_progressive(&mut shell, &sql);
        } else {
            run_line(&mut shell, &sql);
        }
        write_stats_json(&shell, stats_json.as_deref());
        return;
    }
    if online {
        die("--online needs --query SQL (or use \\online inside the shell)");
    }

    eprintln!("sa — sampling-algebra shell. \\quit to exit, \\tables for tables.");
    let stdin = std::io::stdin();
    loop {
        eprint!("sa> ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\quit" || line == "\\q" {
            break;
        }
        run_line(&mut shell, line);
    }
    write_stats_json(&shell, stats_json.as_deref());
}

/// Dump the engine's metrics snapshot as JSON to `path` (no-op without one).
fn write_stats_json(shell: &Shell, path: Option<&str>) {
    let Some(path) = path else { return };
    match std::fs::write(path, shell.session.engine().metrics().to_json()) {
        Ok(()) => eprintln!("wrote engine metrics to {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The value after `flag`, parsed, or exit 2 saying what `flag` needs.
fn arg<T: std::str::FromStr>(it: &mut std::slice::Iter<String>, flag: &str, what: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

/// `name` as a row of the query option table.
fn option_name(name: &str) -> Option<&'static str> {
    QueryOptions::names().map(|(n, _)| n).find(|n| *n == name)
}

/// The shell's answer to a `\NAME VALUE` the option table took.
fn ack(o: &QueryOptions, name: &str) -> String {
    match name {
        "seed" => format!("seed = {}", o.seed),
        "chunk" => format!("chunk = {} rows", o.chunk_rows),
        "jobs" => {
            let n = o.parallelism;
            format!("jobs = {n} worker{}", if n == 1 { "" } else { "s" })
        }
        "confidence" => format!("confidence = {}", o.confidence),
        "top-k" => o
            .ci_top_k
            .map_or("top-k off".into(), |k| format!("top-k = {k} groups")),
        "deadline" => o.deadline.map_or("deadline off".into(), |d| {
            format!("deadline = {} ms", d.as_millis())
        }),
        "adaptive" if o.adaptive_chunks => "adaptive chunks on (grow up to 64× once the CI \
            stalls; jobs = 1 only — pool workers pull fixed chunks)"
            .into(),
        "adaptive" => "adaptive chunks off".into(),
        "shuffle" if o.shuffle_scan => "shuffled scan on (seeded random block order)".into(),
        "shuffle" => "shuffled scan off (physical block order)".into(),
        other => format!("{other} set"),
    }
}

/// What the option table says a rejected value needs (`chunk needs …`).
fn problem(e: Error) -> String {
    match e {
        Error::InvalidOptions(msg) => msg,
        other => other.to_string(),
    }
}

/// Connect to `sa-server` and send `requests`, one line each; the replies
/// are the caller's to read.
fn send(addr: &str, requests: &[String]) -> TcpStream {
    let stream =
        TcpStream::connect(addr).unwrap_or_else(|e| die(&format!("cannot connect {addr}: {e}")));
    for request in requests {
        writeln!(&stream, "{request}")
            .unwrap_or_else(|e| die(&format!("cannot send request: {e}")));
    }
    stream
}

/// Thin client for `sa-server`: send the option requests and the `QUERY`,
/// relay response lines to stdout until the terminator, exit 0 on `DONE` /
/// 1 on `ERR`.
fn run_client(addr: &str, requests: &[String]) -> ! {
    let stream = send(addr, requests);
    let mut failed = false;
    for line in BufReader::new(stream).lines() {
        let line = line.unwrap_or_else(|e| die(&format!("connection lost: {e}")));
        match line.as_str() {
            "OK" => continue, // option acknowledgement
            "DONE" => std::process::exit(if failed { 1 } else { 0 }),
            other => {
                println!("{other}");
                if other.starts_with("ERR ") {
                    failed = true;
                }
            }
        }
    }
    die("server closed the connection before DONE");
}

/// Thin client for the `STATS` request: relay the Prometheus dump to stdout.
fn run_stats_client(addr: &str) -> ! {
    let stream = send(addr, &["STATS".into()]);
    for line in BufReader::new(stream).lines() {
        let line = line.unwrap_or_else(|e| die(&format!("connection lost: {e}")));
        if line == "DONE" {
            std::process::exit(0);
        }
        if let Some(msg) = line.strip_prefix("ERR ") {
            // A server without STATS support replies ERR with no DONE.
            die(&format!("server rejected STATS: {msg}"));
        }
        println!("{line}");
    }
    die("server closed the connection before DONE");
}

fn run_line(shell: &mut Shell, line: &str) {
    if let Some(rest) = line.strip_prefix('\\') {
        let (cmd, arg) = rest.split_once(' ').unwrap_or((rest, ""));
        match cmd {
            "tables" => {
                for (name, table) in shell.session.engine().catalog().iter() {
                    println!(
                        "{name:<12} {:>10} rows   {}",
                        table.row_count(),
                        table.schema()
                    );
                }
            }
            "subsample" => match arg.trim().parse::<u64>() {
                Ok(0) => {
                    shell.subsample = None;
                    println!("sub-sampling off");
                }
                Ok(n) => {
                    shell.subsample = Some(n);
                    println!("variance from ~{n} tuples (§7)");
                }
                Err(_) => println!("\\subsample needs a number (0 = off)"),
            },
            "online" => run_progressive(shell, arg),
            "exact" => run_exact(shell, arg),
            "trace" => run_trace(shell, arg),
            "stats" => print!("{}", shell.session.engine().render_prometheus()),
            name => match option_name(name) {
                Some(name) => {
                    let opts = shell.session.options_mut();
                    match opts.set(name, arg) {
                        Ok(()) => println!("{}", ack(opts, name)),
                        Err(e) => println!("\\{}", problem(e)),
                    }
                }
                None => println!("unknown command \\{cmd}"),
            },
        }
        return;
    }
    run_estimate(shell, line);
}

fn run_estimate(shell: &mut Shell, sql: &str) {
    let mut out = match shell.subsample {
        Some(n) => shell.session.query(sql).subsample(n).batch(),
        None => shell.session.query(sql).batch(),
    };
    // §7 sub-sampling is scalar-only and the engine refuses it on a GROUP
    // BY by type, before it scans anything: run that one on every tuple.
    let refused = shell.subsample.is_some() && matches!(out, Err(Error::InvalidOptions(_)));
    if refused {
        out = shell.session.query(sql).batch();
    }
    match out {
        Ok(r) => {
            print_result(&r);
            if refused {
                println!("(\\subsample applies to scalar queries; GROUP BY used every tuple)");
            }
        }
        Err(e) => println!("error: {e}"),
    }
    next_seed(shell);
}

/// Advance the session's seed: a fresh sample for the next query.
fn next_seed(shell: &mut Shell) {
    let seed = &mut shell.session.options_mut().seed;
    *seed = seed.wrapping_add(1);
}

/// Progressive estimation through the engine: print one line (scalar) or one
/// table (grouped) per snapshot, then the final estimates and why the query
/// stopped. A `WITHIN … CONFIDENCE …` clause in the SQL sets the stopping
/// rule; scalar vs. grouped is decided by `GROUP BY`.
fn run_progressive(shell: &mut Shell, sql: &str) {
    let result = shell.session.query(sql).run_with({
        let mut header = false;
        move |snap| match snap {
            Snapshot::Scalar(s) => {
                if !header {
                    header = true;
                    println!(
                        "{:>10} {:>9} {:>16} {:>14} {:>8} {:>9}",
                        "rows", "scanned", "estimate", "±half-width", "rel", "elapsed"
                    );
                }
                print_snapshot_line(s);
            }
            Snapshot::Grouped(s) => print_grouped_snapshot(s),
        }
    });
    match result {
        Ok(r) => print_result(&r),
        Err(e) => println!("error: {e}"),
    }
    next_seed(shell);
}

/// Smallest per-relation scan fraction — the pessimistic "scanned" column.
fn min_scan_fraction(progress: &[(u64, u64)]) -> f64 {
    progress
        .iter()
        .map(|(c, n)| if *n == 0 { 1.0 } else { *c as f64 / *n as f64 })
        .fold(1.0f64, f64::min)
}

fn print_snapshot_line(s: &ProgressSnapshot) {
    // Lead aggregate drives the live line; the summary prints all of them.
    let a = &s.aggs[0];
    let (half, rel) = match &a.ci_normal {
        Some(ci) => (
            format!("{:.2}", ci.width() / 2.0),
            format!("{:.2}%", ci.relative_half_width() * 100.0),
        ),
        None => ("—".into(), "—".into()),
    };
    println!(
        "{:>10} {:>8.1}% {:>16.4} {:>14} {:>8} {:>7}ms",
        s.rows,
        min_scan_fraction(&s.progress) * 100.0,
        a.estimate,
        half,
        rel,
        s.elapsed.as_millis()
    );
}

/// One compact table per grouped snapshot: a chunk header line, then one
/// line per (group, aggregate). Deterministic for a fixed seed — no wall
/// times — so seeded runs are byte-reproducible.
fn print_grouped_snapshot(s: &GroupedProgressSnapshot) {
    let worst = s
        .rel_half_width
        .map(|r| format!("{:.2}%", r * 100.0))
        .unwrap_or_else(|| "—".into());
    println!(
        "[chunk {:>4}] {:>9} rows {:>6.1}% scanned {:>3} groups (+{} new) worst rel {}",
        s.chunk,
        s.rows,
        min_scan_fraction(&s.progress) * 100.0,
        s.groups.len(),
        s.new_groups,
        worst
    );
    for g in &s.groups {
        let key: Vec<String> = g.key.iter().map(|v| v.to_string()).collect();
        for a in &g.aggs {
            let (half, rel) = match &a.ci_normal {
                Some(ci) => (
                    format!("{:.2}", ci.width() / 2.0),
                    format!("{:.2}%", ci.relative_half_width() * 100.0),
                ),
                None => ("—".into(), "—".into()),
            };
            let mark = if g.converged {
                "  ok"
            } else if !g.tracked {
                "  (untracked)"
            } else {
                ""
            };
            println!(
                "    {:<20} {:<12} {:>16.4} {:>14} {:>8}{}",
                key.join(","),
                a.name,
                a.estimate,
                half,
                rel,
                mark
            );
        }
    }
}

/// A finished query — the batch answer, or an `\online` run's final
/// snapshot — rendered per result shape.
fn print_result(r: &QueryResult) {
    println!(
        "stopped: {} after {} rows in {} chunks ({} ms)",
        r.reason,
        r.snapshot.rows(),
        r.chunks,
        r.snapshot.elapsed().as_millis()
    );
    let se_ci = |a: &AggResult| match (&a.variance, &a.ci_normal) {
        (Some(v), Some(ci)) => (format!("{:.4}", v.sqrt()), format!("{ci}")),
        _ => ("—".into(), "(not estimable)".into()),
    };
    match &r.snapshot {
        Snapshot::Scalar(s) => {
            println!(
                "{:<16} {:>16} {:>14} {:>34}",
                "aggregate", "estimate", "std err", "final normal CI"
            );
            for a in &s.aggs {
                let (se, ci) = se_ci(a);
                let mut row = format!("{:<16} {:>16.4} {:>14} {:>34}", a.name, a.estimate, se, ci);
                if let Some(q) = a.quantile_bound {
                    row.push_str(&format!("   quantile bound: {q:.4}"));
                }
                println!("{row}");
            }
            if let Some(report) = &r.report {
                println!(
                    "({} result tuples; variance from {}; top GUS a = {:.4e})",
                    s.rows,
                    report.m,
                    r.analysis.gus.a()
                );
            }
        }
        Snapshot::Grouped(s) => {
            println!(
                "{:<20} {:<12} {:>16} {:>14} {:>34} {:>8}",
                s.group_exprs.join(", "),
                "aggregate",
                "estimate",
                "std err",
                "final normal CI",
                "tuples"
            );
            for g in &s.groups {
                let key: Vec<String> = g.key.iter().map(|v| v.to_string()).collect();
                for a in &g.aggs {
                    let (se, ci) = se_ci(a);
                    println!(
                        "{:<20} {:<12} {:>16.4} {:>14} {:>34} {:>8}",
                        key.join(","),
                        a.name,
                        a.estimate,
                        se,
                        ci,
                        g.sample_rows
                    );
                }
            }
            println!("({} observed groups)", s.groups.len());
        }
    }
}

fn run_exact(shell: &Shell, sql: &str) {
    let estimates = |aggs: &[AggResult]| aggs.iter().map(|a| a.estimate).collect::<Vec<f64>>();
    match shell.session.query(sql).exact().map(|r| r.snapshot) {
        Ok(Snapshot::Scalar(s)) => println!("exact: {:?}", estimates(&s.aggs)),
        Ok(Snapshot::Grouped(s)) => {
            for g in &s.groups {
                let key: Vec<String> = g.key.iter().map(|v| v.to_string()).collect();
                println!("{:<24} {:?}", key.join(","), estimates(&g.aggs));
            }
        }
        Err(e) => println!("error: {e}"),
    }
}

fn run_trace(shell: &Shell, sql: &str) {
    let (plan, _) = match plan_grouped_sql(sql, shell.session.engine().catalog()) {
        Ok(p) => p,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    println!("plan:\n{}", plan.display_tree());
    match rewrite(&plan, shell.session.engine().catalog()) {
        Ok(analysis) => {
            println!("rewrite steps:\n{}", analysis.trace.render());
            println!("top GUS:\n{}", analysis.gus_table());
        }
        Err(e) => println!("error: {e}"),
    }
}
