//! # snitch-telemetry — host-side observability for the experiment engine
//!
//! `snitch-trace` answers "where did the *simulated* cycles go"; this crate
//! answers the same question for the *host*: which wall-seconds of a sweep
//! went to compiling programs, constructing clusters, resetting them,
//! simulating, collecting ordered results and writing sinks — per job and
//! per worker. It exists because the engine's multi-worker scaling cannot
//! be fixed blind: the attribution built here is what names the dominant
//! cost before the executor is reworked.
//!
//! * [`span`] — the span vocabulary: a [`Phase`] taxonomy (one variant per
//!   executor stage) and [`Span`]s tagged with worker, job index and
//!   nanosecond timestamps relative to the collector's epoch;
//! * [`collector`] — the [`Telemetry`] handle the engine records into.
//!   Mirroring `snitch_trace::Tracer`, a disabled handle is zero-cost: no
//!   clock is read, no span is constructed, nothing allocates — the hook
//!   is one `Option` branch;
//! * [`timeline`] — the analyzer: per-worker utilization timelines and a
//!   phase-attribution [`Report`] (busy/idle split, startup skew,
//!   inter-job gaps, result-barrier wait);
//! * [`metrics`] — the machine-readable `METRICS.json` sink (JSON-lines)
//!   plus a dependency-free line validator;
//! * [`chrome`] — a Chrome trace-event export of host spans (one track per
//!   worker, built on `snitch_trace::chrome::Doc`, loadable in Perfetto);
//! * [`guard`] — the min-of-N interleaved overhead guard (disabled hook vs
//!   bare path, within 2%) and the [`guard::Verdict`] every `perf-report`
//!   guard reports through.
//!
//! Telemetry is strictly host-side: it never touches `ProgramKey`,
//! `ClusterConfig` or `RunRecord` serialization, so a sweep run under
//! telemetry produces byte-identical result files to one without.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod collector;
pub mod guard;
pub mod metrics;
pub mod span;
pub mod timeline;

pub use collector::Telemetry;
pub use span::{Phase, Span, MAIN_WORKER};
pub use timeline::{Report, WorkerSummary};
