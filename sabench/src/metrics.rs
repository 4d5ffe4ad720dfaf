//! The metric vocabulary. `BENCHMARK.json` is the single source of names,
//! units, directions and bounds: it is compiled in, `--list` prints it, and
//! a run refuses to report a set of metrics that differs from it.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::json::{self, Json};
use crate::stats::{summarize, Summary};

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end metrics only: the share of the base median by which the
    /// metric may get worse before it counts as a regression.
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// The declarations, parsed once.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(parse_declared)
}

fn parse_declared() -> Declared {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let defs = |key: &str| -> Vec<MetricDef> {
        doc.get(key)
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
                MetricDef {
                    name: text("name").to_string(),
                    unit: text("unit").to_string(),
                    better: if text("better") == "higher" {
                        Better::Higher
                    } else {
                        Better::Lower
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                }
            })
            .collect()
    };
    Declared {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds"),
        workloads: doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
            .collect(),
        end_to_end: defs("end_to_end"),
        per_layer: defs("per_layer"),
    }
}

/// One measured value: a plain number, or the median of a sample with its
/// quartiles and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub spread: Option<Summary>,
}

/// The metrics one run produced, by name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Measured>);

impl Metrics {
    /// A count, a ratio, or a single timing.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(
            name.to_string(),
            Measured {
                value,
                spread: None,
            },
        );
    }

    /// The median of `samples` (0 when empty), with quartiles and count.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        let s = summarize(samples);
        self.0.insert(
            name.to_string(),
            Measured {
                value: s.median,
                spread: Some(s),
            },
        );
    }

    /// Check the produced names against the declared ones and render the
    /// driver's `metrics` object (`{name: {value, unit}}`) in declared
    /// order.
    pub fn render(&self, defs: &[MetricDef], detailed: bool) -> Result<Json, String> {
        let declared: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        let extra: Vec<&String> = self
            .0
            .keys()
            .filter(|k| !declared.contains(&k.as_str()))
            .collect();
        let missing: Vec<&&str> = declared
            .iter()
            .filter(|d| !self.0.contains_key(**d))
            .collect();
        if !extra.is_empty() || !missing.is_empty() {
            return Err(format!(
                "metrics differ from BENCHMARK.json: undeclared {extra:?}, missing {missing:?}"
            ));
        }
        Ok(Json::Obj(
            defs.iter()
                .map(|d| {
                    let m = self.0[d.name.as_str()];
                    let mut pairs =
                        vec![("value", Json::Num(m.value)), ("unit", Json::str(&d.unit))];
                    if detailed {
                        pairs.push((
                            "better",
                            Json::str(match d.better {
                                Better::Lower => "lower",
                                Better::Higher => "higher",
                            }),
                        ));
                        if let Some(s) = m.spread {
                            pairs.push(("q1", Json::Num(s.q1)));
                            pairs.push(("q3", Json::Num(s.q3)));
                            pairs.push(("n", Json::Num(s.n as f64)));
                        }
                    }
                    (d.name.clone(), Json::obj(pairs))
                })
                .collect(),
        ))
    }
}
