//! # snitch-profile — guest-side cycle profiling
//!
//! `Stats` says *how many* cycles a kernel spent stalled per cause;
//! `snitch-trace` can replay *each* cycle but costs an event per cycle.
//! This crate is the layer between the two: an exact, always-on-capable
//! histogram that charges **every simulated cycle to a program counter**
//! (the executing or blocking instruction), subdivided by the 13-cause
//! [`StallCause`] taxonomy, per hart.
//!
//! * [`profiler`] — the [`Profiler`] collector the simulator charges into.
//!   The hook follows the `Tracer` discipline: one `Option` branch when no
//!   profiler is attached and plain array adds when one is, charged from
//!   inside the simulator's block-burst run loop like every other booking;
//! * [`region`] — resolves pcs to `ProgramBuilder` label spans
//!   ([`Program::labels`]), e.g. the COPIFT codegen's standard
//!   `prologue`/`spill`/`body`/`reduce` region labels;
//! * [`report`] — analyzers: top-N hot pcs and per-region cycle/stall
//!   breakdowns;
//! * sinks, all byte-stable: [`disasm`] (annotated disassembly listing with
//!   cycle/stall columns), [`flame`] (collapsed-stack flamegraph text,
//!   `region;pc` frames weighted by cycles, plus a validator), and
//!   [`perfetto`] (counter tracks over the pc axis on the shared
//!   [`snitch_trace::chrome::Doc`] builder).
//!
//! The crate depends only on `snitch-riscv`, `snitch-asm` and
//! `snitch-trace`; `snitch-sim` depends on it to charge cycles, and the
//! engine carries finished profiles on its run records.
//!
//! [`Program::labels`]: snitch_asm::Program::labels

#![forbid(unsafe_code)]

pub mod disasm;
pub mod flame;
pub mod perfetto;
pub mod profiler;
pub mod region;
pub mod report;

pub use profiler::{Profiler, NUM_CAUSES};
pub use region::RegionMap;
pub use report::{hot_pcs, regions, PcReport, RegionReport};
pub use snitch_trace::{Lane, StallCause};
