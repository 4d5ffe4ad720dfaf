//! # sa-bench — the experiment suite
//!
//! One module per experiment family:
//!
//! * [`exp_figures`] — E1–E4: the paper's printed artifacts (Figures 1–5,
//!   Examples 1–6).
//! * [`exp_accuracy`] — E5 (coverage/accuracy) and E7 (comparison against
//!   naive estimators).
//! * [`exp_runtime`] — E6: rewriter latency, SBox cost scaling, Section 7
//!   sub-sampling.
//! * [`exp_applications`] — E8: the Section 8 applications.
//!
//! The `experiments` binary drives them (`cargo run --release -p sa-bench
//! --bin experiments -- all`) and carries the metrics-overhead gate
//! (`experiments overhead --budget 5`). Performance is measured by the
//! `sabench` package at the repository root, not here.

#![warn(missing_docs)]

pub mod exp_accuracy;
pub mod exp_applications;
pub mod exp_figures;
pub mod exp_runtime;
pub mod workloads;
