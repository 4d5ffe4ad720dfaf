//! `sabench` — the layered benchmark of the sampling-algebra engine.
//!
//! ```sh
//! sabench --workload NAME --seed S --seconds T --trace 0|1     # one run: the driver's contract
//! sabench --all --seed S --runs N --out FILE [--spans FILE]    # every workload, both kinds of run
//! sabench --compare BASE.json NEW.json                         # verdict per workload × metric
//! sabench --list                                               # the names in BENCHMARK.json
//! ```
//!
//! `--quick` shrinks the data 64× (a smoke run). See `README.md` beside
//! this package for what is measured and why.

pub mod analytic;
pub mod cli;
pub mod compare;
pub mod e2e;
pub mod handdriven;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workloads;
