//! Drive the built binary the way the benchmark driver does, at `--quick`
//! sizes: every workload must emit every declared metric of both kinds of
//! run, with a finite value and no failed operation. This also keeps the
//! harness compiling against the engine's API.

use std::path::Path;
use std::process::Command;

use sabench::json::{self, Json};
use sabench::metrics::declared;

fn sabench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sabench"))
        .args(args)
        // The harness keeps its scratch files under the current directory.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run sabench")
}

fn last_line_json(out: &std::process::Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sabench failed: {stderr}");
    let line = stdout.lines().last().expect("a result line");
    json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let d = declared();
    for workload in &d.workloads {
        for (trace, defs) in [("0", &d.end_to_end), ("1", &d.per_layer)] {
            let out = sabench(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "0.3",
                "--trace",
                trace,
                "--quick",
            ]);
            let result = last_line_json(&out);
            let context = format!("{workload} --trace {trace}: {}", result.render());
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{context}");
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object: {context}")
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let declared: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(names, declared, "{context}");
            for ((name, m), def) in metrics.iter().zip(defs.iter()) {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {context}");
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(def.unit.as_str())
                );
                if trace == "0" {
                    assert!(value > Some(0.0), "{name} must never be 0: {context}");
                }
            }
        }
    }
}

#[test]
fn all_writes_a_report_that_compares_clean_against_itself() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (report, spans) = (tmp.join("report.json"), tmp.join("spans.json"));
    let out = sabench(&[
        "--all",
        "--quick",
        "--seconds",
        "0.2",
        "--runs",
        "2",
        "--out",
        report.to_str().unwrap(),
        "--spans",
        spans.to_str().unwrap(),
    ]);
    last_line_json(&out);
    let doc = json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let d = declared();
    // Two end-to-end runs and one traced run per workload; no claim.
    assert_eq!(
        doc.get("runs").unwrap().as_arr().len(),
        3 * d.workloads.len()
    );
    assert_eq!(doc.get("claim"), Some(&Json::Null));
    assert!(doc.get("meta").and_then(|m| m.get("nproc")).is_some());
    let traced = json::parse(&std::fs::read_to_string(&spans).unwrap()).unwrap();
    for workload in &d.workloads {
        let spans = traced.get(workload).map(Json::as_arr).unwrap_or_default();
        assert!(!spans.is_empty(), "{workload}: no spans");
        assert!(spans[0].get("start_ns").is_some());
    }
    // A report never regresses against itself, so --compare exits 0.
    let path = report.to_str().unwrap();
    let cmp = sabench(&["--compare", path, path]);
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(!table.contains("WORSE"), "{table}");
    assert!(table.contains("scan_mapped"), "{table}");
}

#[test]
fn list_prints_the_declared_names() {
    let out = sabench(&["--list"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    let d = declared();
    for name in d
        .workloads
        .iter()
        .chain(d.end_to_end.iter().map(|m| &m.name))
        .chain(d.per_layer.iter().map(|m| &m.name))
    {
        assert!(text.contains(name.as_str()), "--list lacks {name}");
    }
}
