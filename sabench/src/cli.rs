//! The command line: argument parsing, the run plan behind `--workload`
//! and `--all`, the `--out` report and `--list`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::e2e::{clients, nproc, Config, Outcome};
use crate::json::{self, Json};
use crate::metrics::{declared, Better};
use crate::setup::WorkDir;
use crate::workloads::{self, Sizes, Workload, WORKLOADS};
use crate::{compare, e2e, layers, serve};

#[derive(Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    list: bool,
    compare: Option<(PathBuf, PathBuf)>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sabench --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--quick] \
         [--out FILE] [--spans FILE]\n\
         \x20      sabench --all [--seed S] [--runs N] [--seconds T] [--quick] [--out FILE] \
         [--spans FILE]\n\
         \x20      sabench --compare BASE.json NEW.json\n\
         \x20      sabench --list"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut out = Args {
        seed: 1,
        runs: 5,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => out.workload = Some(value()),
            "--all" => out.all = true,
            "--list" => out.list = true,
            "--compare" => out.compare = Some((value().into(), value().into())),
            "--seed" => out.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => out.seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--runs" => out.runs = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                out.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => out.quick = true,
            "--out" => out.out = Some(value().into()),
            "--spans" => out.spans = Some(value().into()),
            _ => usage(),
        }
    }
    out
}

/// The result of one run, in the driver's shape (`detailed` adds
/// direction, quartiles and sample counts for the `--out` report).
fn result_pairs(
    outcome: &Outcome,
    trace: bool,
    detailed: bool,
) -> Result<Vec<(&'static str, Json)>, String> {
    let d = declared();
    let defs = if trace { &d.per_layer } else { &d.end_to_end };
    Ok(vec![
        ("correct", Json::Bool(outcome.ops.failed == 0)),
        ("attempted", Json::Num(outcome.ops.attempted as f64)),
        ("failed", Json::Num(outcome.ops.failed as f64)),
        ("metrics", outcome.metrics.render(defs, detailed)?),
    ])
}

/// One run of one workload. Traced runs also return their spans.
fn run_one(w: &Workload, cfg: &Config, trace: bool) -> Result<(Outcome, Option<Json>), String> {
    let (outcome, spans) = if trace {
        let (outcome, spans) = layers::run(w, cfg)?;
        (outcome, Some(spans))
    } else {
        (e2e::run(w, cfg)?, None)
    };
    for why in &outcome.ops.failures {
        eprintln!("sabench: {}: failed operation: {why}", w.name);
    }
    Ok((outcome, spans))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were taken.
fn meta(args: &Args, sizes: Sizes, seconds: f64) -> Json {
    let mut pairs = vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("clients", Json::Num(clients() as f64)),
        ("tpch_scale", Json::Num(sizes.tpch_scale)),
        ("wide_rows", Json::Num(sizes.wide_rows as f64)),
        ("chunk_rows", Json::Num(workloads::CHUNK_ROWS as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("runs", Json::Num(args.runs as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(args.quick)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "storage",
            Json::str("everything fits the page cache: mapped numbers are page-cache-hot sandbox numbers, not device numbers"),
        ),
    ];
    if nproc() == 1 {
        pairs.push((
            "caveat",
            Json::str("one core: no parallel number here says anything about speed-up"),
        ));
    }
    Json::obj(pairs)
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn list() {
    let d = declared();
    println!("workloads:");
    for (name, spec) in d.workloads.iter().zip(WORKLOADS) {
        println!("  {name}: {}", spec.why);
    }
    for (title, defs) in [("end_to_end", &d.end_to_end), ("per_layer", &d.per_layer)] {
        println!("{title}:");
        for def in defs {
            let better = match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            match def.bound {
                Some(b) => println!(
                    "  {} ({}, {better} is better, bound {b})",
                    def.name, def.unit
                ),
                None => println!("  {} ({}, {better} is better)", def.name, def.unit),
            }
        }
    }
}

/// One run of `--workload`: print the driver's result line, and write the
/// detailed report and the spans where asked.
fn run_workload(args: &Args, name: &str) -> Result<(), String> {
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let seconds = args.seconds.unwrap_or(declared().run_seconds);
    let w = workloads::find(name, sizes).ok_or_else(|| format!("no workload `{name}`"))?;
    let cfg = Config {
        seed: args.seed,
        seconds,
    };
    let (outcome, spans) = run_one(&w, &cfg, args.trace)?;
    if let (Some(path), Some(spans)) = (&args.spans, spans) {
        write(path, &Json::obj(vec![(name, spans)]))?;
    }
    if let Some(path) = &args.out {
        let mut run = vec![
            ("workload", Json::str(name)),
            ("seed", Json::Num(args.seed as f64)),
            ("trace", Json::Num(args.trace as u8 as f64)),
        ];
        run.extend(result_pairs(&outcome, args.trace, true)?);
        write(path, &report(args, sizes, seconds, vec![Json::obj(run)]))?;
    }
    // The driver reads the last line of stdout.
    println!(
        "{}",
        Json::obj(result_pairs(&outcome, args.trace, false)?).render()
    );
    Ok(())
}

fn report(args: &Args, sizes: Sizes, seconds: f64, runs: Vec<Json>) -> Json {
    Json::obj(vec![
        ("meta", meta(args, sizes, seconds)),
        ("runs", Json::Arr(runs)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
    ])
}

/// `--all`: for every workload, `--runs` end-to-end runs on consecutive
/// seeds and one traced run — each in a process of its own, as the driver
/// runs them, so no run inherits another's heap (`peak_rss_mb`) or caches.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let dir = WorkDir::create("all")?;
    let (run_file, spans_file) = (dir.path().join("run.json"), dir.path().join("spans.json"));
    let mut runs = Vec::new();
    let mut spans = Vec::new();
    let mut meta = Json::Null;
    for spec in WORKLOADS {
        let plan = (0..args.runs as u64)
            .map(|i| (args.seed + i, false))
            .chain([(args.seed, true)]);
        for (seed, trace) in plan {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", spec.name, "--seed", &seed.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&run_file)
                .arg("--spans")
                .arg(&spans_file);
            if let Some(seconds) = args.seconds {
                child.args(["--seconds", &seconds.to_string()]);
            }
            if args.quick {
                child.arg("--quick");
            }
            let out = child
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn run: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "{} seed {seed} trace {}: run failed",
                    spec.name, trace as u8
                ));
            }
            eprintln!(
                "sabench: {} seed {seed} trace {}: {}",
                spec.name,
                trace as u8,
                String::from_utf8_lossy(&out.stdout).trim()
            );
            let doc = read(&run_file)?;
            runs.extend(
                doc.get("runs")
                    .map(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            );
            meta = doc.get("meta").cloned().unwrap_or(Json::Null);
            if trace {
                spans.push((
                    spec.name,
                    read(&spans_file)?
                        .get(spec.name)
                        .cloned()
                        .unwrap_or(Json::Null),
                ));
            }
        }
    }
    if let Some(path) = &args.spans {
        write(path, &Json::obj(spans))?;
    }
    let n = runs.len();
    if let Some(path) = &args.out {
        // The children's `meta` describes one run each; the plan is ours.
        if let Json::Obj(pairs) = &mut meta {
            for (key, value) in pairs.iter_mut() {
                match key.as_str() {
                    "seed" => *value = Json::Num(args.seed as f64),
                    "runs" => *value = Json::Num(args.runs as f64),
                    _ => {}
                }
            }
        }
        write(
            path,
            &Json::obj(vec![
                ("meta", meta),
                ("runs", Json::Arr(runs)),
                ("claim", Json::Null),
            ]),
        )?;
    }
    println!(
        "{}",
        Json::obj(vec![("runs", Json::Num(n as f64))]).render()
    );
    Ok(())
}

pub fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir] = raw.as_slice() {
        if flag == "--serve" {
            if let Err(e) = serve::serve(Path::new(dir)) {
                eprintln!("sabench --serve: {e}");
                std::process::exit(1);
            }
            return;
        }
    }
    let args = parse_args(&raw);
    let outcome = if args.list {
        list();
        Ok(true)
    } else if let Some((base, new)) = &args.compare {
        read(base).and_then(|b| compare::compare(&b, &read(new)?))
    } else if let (Some(name), false) = (&args.workload, args.all) {
        run_workload(&args, name).map(|()| true)
    } else if args.all && args.workload.is_none() {
        run_all(&args).map(|()| true)
    } else {
        usage()
    };
    match outcome {
        // A run that finished reports through its JSON (`correct`), not its
        // exit code; `--compare` exits 1 on a regression.
        Ok(ok) => std::process::exit(!ok as i32),
        Err(e) => {
            eprintln!("sabench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BENCHMARK_JSON;

    /// `BENCHMARK.json` and the workload table name the same workloads, in
    /// the same order, for the same reasons.
    #[test]
    fn workloads_match_benchmark_json() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let declared: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let specs: Vec<(&str, &str)> = WORKLOADS.iter().map(|s| (s.name, s.why)).collect();
        assert_eq!(declared, specs);
    }
}
