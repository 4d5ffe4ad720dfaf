//! `sabench --compare BASE.json NEW.json`: one row per workload ×
//! end-to-end metric, judged against the bound `BENCHMARK.json` fixes for
//! the metric.
//!
//! A row is `worse` when the new median is worse than the base median by
//! more than the bound, `unresolved` when either side's run-to-run spread
//! (interquartile distance over median, the driver's rule) exceeds the
//! bound or cannot be computed — never `unchanged` in that case — and `ok`
//! otherwise. Every ratio is printed with its base.

use crate::json::Json;
use crate::metrics::{declared, Better, MetricDef};
use crate::stats::{median, spread_share};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The values of `metric` over the end-to-end runs of `workload` in a
/// report written by `--out`.
fn values(report: &Json, workload: &str, metric: &str) -> Vec<f64> {
    report
        .get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

pub fn judge(def: &MetricDef, base: &[f64], new: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let (b, n) = (median(base), median(new));
    let worse = match def.better {
        Better::Lower => n > b * (1.0 + bound),
        Better::Higher => n < b * (1.0 - bound),
    };
    let resolved = |v: &[f64]| spread_share(v).is_some_and(|s| s <= bound);
    if worse {
        Verdict::Worse
    } else if resolved(base) && resolved(new) {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

/// Print the comparison; `Ok(true)` when no row is `worse`.
pub fn compare(base: &Json, new: &Json) -> Result<bool, String> {
    let d = declared();
    let spread = |v: &[f64]| spread_share(v).map_or("n/a".into(), |s| format!("{:.1}%", s * 100.0));
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>6} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "base median",
        "new median",
        "new/base",
        "bound",
        "spread b",
        "spread n"
    );
    let mut all_ok = true;
    let mut rows = 0;
    for workload in &d.workloads {
        for def in &d.end_to_end {
            let (b, n) = (
                values(base, workload, &def.name),
                values(new, workload, &def.name),
            );
            if b.is_empty() || n.is_empty() {
                continue;
            }
            rows += 1;
            let verdict = judge(def, &b, &n);
            all_ok &= verdict != Verdict::Worse;
            println!(
                "{:<20} {:<20} {:>14.6} {:>14.6} {:>9.4} {:>5.0}% {:>8} {:>8}  {}",
                workload,
                format!("{} ({})", def.name, def.unit),
                median(&b),
                median(&n),
                median(&n) / median(&b),
                def.bound.unwrap_or(0.0) * 100.0,
                spread(&b),
                spread(&n),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }
    if rows == 0 {
        return Err("the two reports share no workload with end-to-end runs".into());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        let lower = def(Better::Lower);
        assert_eq!(judge(&lower, &steady, &steady), Verdict::Ok);
        assert_eq!(judge(&lower, &steady, &slower), Verdict::Worse);
        assert_eq!(judge(&lower, &slower, &steady), Verdict::Ok);
        // Spread wider than the bound: never "ok", whatever the medians say.
        assert_eq!(judge(&lower, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&lower, &steady, &[100.0]), Verdict::Unresolved);
        let higher = def(Better::Higher);
        assert_eq!(judge(&higher, &slower, &steady), Verdict::Worse);
        assert_eq!(judge(&higher, &steady, &slower), Verdict::Ok);
    }

    #[test]
    fn values_come_from_end_to_end_runs_only() {
        let run = |trace: f64, v: f64| {
            Json::obj(vec![
                ("workload", Json::str("scan_mapped")),
                ("trace", Json::Num(trace)),
                (
                    "metrics",
                    Json::obj(vec![("tte_ms", Json::obj(vec![("value", Json::Num(v))]))]),
                ),
            ])
        };
        let report = Json::obj(vec![(
            "runs",
            Json::Arr(vec![run(0.0, 1.0), run(1.0, 9.0), run(0.0, 2.0)]),
        )]);
        assert_eq!(values(&report, "scan_mapped", "tte_ms"), vec![1.0, 2.0]);
        assert!(values(&report, "filter_expr", "tte_ms").is_empty());
    }
}
