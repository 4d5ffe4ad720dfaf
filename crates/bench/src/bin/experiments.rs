//! `experiments` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p sa-bench --bin experiments -- all
//! cargo run --release -p sa-bench --bin experiments -- figure1 query1 figure4 figure5
//! cargo run --release -p sa-bench --bin experiments -- coverage --trials 100
//! cargo run --release -p sa-bench --bin experiments -- overhead --budget 5
//! ```
//!
//! Output is markdown; `all` prints the full report EXPERIMENTS.md is built
//! from. `overhead` is not part of `all`: it is a gate on this machine's
//! clock, not a figure of the paper — with `--budget PCT` it exits 1 when
//! turning the metrics on costs more than PCT percent of an exhaustion run.

use sa_bench::{exp_accuracy, exp_applications, exp_figures, exp_runtime};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trials: u64 = 200;
    let mut budget: Option<f64> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trials" => {
                trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--trials needs a number"));
            }
            "--budget" => {
                // Recording costs something, so a budget of zero cannot be
                // met; a run that seems to meet it measured noise.
                budget = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|pct| *pct > 0.0)
                        .unwrap_or_else(|| usage("--budget needs a positive percentage")),
                );
            }
            "-h" | "--help" => usage(""),
            name => selected.push(name.to_string()),
        }
    }
    if selected.is_empty() {
        usage("no experiment selected");
    }
    if selected.iter().any(|s| s == "all") {
        selected = vec![
            "figure1".into(),
            "query1".into(),
            "figure4".into(),
            "figure5".into(),
            "coverage".into(),
            "runtime".into(),
            "comparison".into(),
            "applications".into(),
        ];
    }
    println!("# Experiment report — A Sampling Algebra for Aggregate Estimation\n");
    for name in &selected {
        let report = match name.as_str() {
            "figure1" => exp_figures::figure1(),
            "query1" => exp_figures::query1(),
            "figure4" => exp_figures::figure4(),
            "figure5" => exp_figures::figure5(),
            "coverage" => exp_accuracy::coverage(trials),
            "comparison" => exp_accuracy::comparison(trials),
            "runtime" => exp_runtime::runtime(),
            "applications" => exp_applications::applications(),
            "overhead" => {
                let (report, overhead) = exp_runtime::metrics_overhead();
                if budget.is_some_and(|pct| overhead > pct) {
                    eprintln!("{report}metrics overhead exceeds the budget");
                    std::process::exit(1);
                }
                report
            }
            other => usage(&format!("unknown experiment `{other}`")),
        };
        println!("{report}");
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: experiments [--trials N] [--budget PCT] <experiment>...\n\
         experiments: figure1 query1 figure4 figure5 coverage runtime comparison applications all\n\
         gate: overhead (metrics on vs off; exit 1 beyond --budget PCT percent)"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
