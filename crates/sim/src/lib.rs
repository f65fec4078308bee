//! Cycle-accurate simulator of a Snitch compute cluster.
//!
//! Models the evaluation platform of the COPIFT paper (Colagrande & Benini,
//! DAC 2025): a single-issue in-order RV32 integer core with a decoupled FP
//! subsystem providing *pseudo dual-issue* execution via the FREP hardware
//! loop, three SSR/ISSR stream semantic registers, a 32-bank TCDM scratchpad,
//! an L0 instruction buffer and a cluster DMA engine.
//!
//! The timing model captures the mechanisms the paper's evaluation hinges on:
//!
//! * one integer issue slot per cycle; FP instructions consume it on offload,
//!   so RV32G baselines cannot exceed IPC 1;
//! * FREP replays issue from the sequencer concurrently with integer
//!   execution (peak IPC 2), with offload-FIFO backpressure bounding
//!   integer-thread run-ahead;
//! * FP→integer write-backs (Type 3 dependencies) serialize the core;
//! * the single ALU/mul write-back port structural hazard (the LCG stalls);
//! * L0 instruction-buffer hits/misses (I$ energy, loop-body capacity);
//! * TCDM bank conflicts among core, FP LSU, SSRs and DMA.
//!
//! See `DESIGN.md` for parameter provenance and modelled deviations, and
//! [`cluster::Cluster`] for the entry point.

#![forbid(unsafe_code)]

mod block;
mod charge;
pub mod cluster;
pub mod config;
pub mod core;
pub mod dma;
pub mod error;
pub mod fpss;
pub mod icache;
pub mod mem;
mod memo;
pub mod ssr;
pub mod stats;
pub mod system;
#[cfg(any(test, feature = "testing"))]
pub mod testing;

pub use cluster::Cluster;
pub use config::{ClusterConfig, SystemConfig};
pub use error::{RunError, SimFault};
pub use stats::Stats;
pub use system::System;
