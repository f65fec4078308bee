//! # snitch-trace — cycle-accurate tracing and dual-issue profiling
//!
//! The simulator's aggregate [`Stats`] counters can report a final IPC but
//! not *where* a kernel overlaps, stalls or serializes. This crate is the
//! observability layer underneath those counters:
//!
//! * [`event`] — the typed event vocabulary: issue/retire per lane, stalls
//!   with a cause from the [`event::StallCause`] taxonomy (one variant per
//!   `Stats::stall_*` counter), SSR stream beats, TCDM bank conflicts, DMA
//!   activity and barrier arrive/release, all tagged with hart and cycle;
//! * [`tracer`] — the [`Tracer`] event collector the simulator's units emit
//!   into. The hook is a single `Option` branch when tracing is off: no
//!   event is constructed and nothing allocates;
//! * [`profile`] — analyzers that turn an event stream into the paper's
//!   figures: per-cycle dual-issue occupancy (integer lane vs FREP lane),
//!   stall-cause attribution that cross-checks `Stats` counter-for-counter,
//!   and automatic steady-state window detection for IPC extraction;
//! * [`chrome`] — a Chrome trace-event JSON sink (loadable in Perfetto, one
//!   track per hart lane) plus a schema validator;
//! * [`json`] — the workspace's one JSON reader (a [`json::Value`] tree or
//!   a member-by-member walk) and its one string escaper;
//! * [`text`] — an annotated text trace (cycle, pc, disassembly, stall
//!   cause) for terminals and diffs.
//!
//! The crate depends only on `snitch-riscv` (for [`Inst`] and its
//! disassembly); `snitch-sim` depends on it to emit events, and the engine
//! and drivers consume the analyzers and sinks.
//!
//! [`Stats`]: https://docs.rs/snitch-sim
//! [`Inst`]: snitch_riscv::inst::Inst

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod profile;
pub mod text;
pub mod tracer;

pub use event::{EventKind, Lane, StallCause, TraceEvent, CLUSTER_HART};
pub use profile::{Occupancy, Profile};
pub use tracer::Tracer;
