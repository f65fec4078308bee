//! # perfbench — the repository benchmark
//!
//! Runs one workload (`fig2` or `scaling-grid`) through the
//! public API of the simulator crates in a single process with one engine
//! worker, checks every output, and reports end-to-end metrics (tracing
//! off) or per-layer metrics (a traced run). See `README.md` in this
//! directory for the metric definitions and how to run it.

#![forbid(unsafe_code)]

pub mod bench;
pub mod host;
pub mod layers;
pub mod paper;
pub mod report;
pub mod workload;
