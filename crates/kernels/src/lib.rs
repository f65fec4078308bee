//! The COPIFT workload catalog: the paper's six mixed integer/floating-point
//! workloads plus an auto-compiled extended suite, each as a golden Rust
//! model, an optimized RV32G baseline program and a COPIFT-accelerated
//! program, plus the run/validate harness.
//!
//! | Kernel | Domain | Module |
//! |--------|--------|--------|
//! | `exp` | vector exponential (softmax motif) | [`expf`] |
//! | `log` | vector logarithm (ISSR showcase) | [`logf`] |
//! | `poly_lcg`, `pi_lcg`, `poly_xoshiro128p`, `pi_xoshiro128p` | hit-and-miss Monte Carlo | [`mc`] |
//! | `sigmoid` | polynomial logistic over LCG inputs | [`sigmoid`] |
//! | `dot_lcg` | dot product with an LCG-generated vector | [`dot_lcg`] |
//! | `softmax` | softmax exp+reduce denominator pass | [`softmax`] |
//!
//! The first six are hand-scheduled reproductions of the paper's Figure 2
//! suite; the extended three are *compiled* from plain loop bodies by
//! [`copift::codegen`] — the paper's Steps 3–7 applied automatically.
//!
//! All simulated results are validated **bit-exactly** against the golden
//! models. [`registry`] is the open catalog the benchmarks drive: the
//! [`registry::Workload`] trait describes one workload, [`registry::Kernel`]
//! is the copyable handle grids and caches key on, and
//! [`registry::register`] adds workloads at runtime. [`paper`] holds the
//! paper's published Table I and Figure 2 values the drivers compare against.

#![forbid(unsafe_code)]

pub mod dot_lcg;
pub mod expf;
pub mod gemm_tiled;
pub mod golden;
pub mod harness;
pub mod logf;
pub mod mc;
pub mod paper;
pub mod registry;
pub mod sigmoid;
pub mod softmax;

pub use harness::{HarnessError, RunOutcome, SteadyState};
pub use registry::{register, Kernel, RegistryError, Variant, Workload};
