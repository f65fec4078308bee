//! The open workload registry: every kernel the harness can run, behind one
//! pluggable catalog.
//!
//! The paper's six Figure-2 workloads used to be a closed `enum`; the
//! registry now separates **what a workload is** (the [`Workload`] trait:
//! name, program builders, golden expectations, operating points) from
//! **how callers refer to one** (the [`Kernel`] handle, a copyable index
//! into the catalog). The built-in catalog ships the six paper kernels plus
//! the auto-compiled extended suite ([`sigmoid`], [`dot_lcg`],
//! [`softmax`]); downstream code can add more at runtime with [`register`].
//!
//! [`Kernel::all`] enumerates the full catalog, [`Kernel::paper`] the six
//! Figure-2 workloads, and [`Kernel::from_name`] resolves the names the
//! `sweep` CLI and the result sinks print.

use std::sync::RwLock;

use snitch_asm::program::Program;
use snitch_energy::EnergyModel;
use snitch_sim::config::{ClusterConfig, SystemConfig};
use snitch_sim::system::System;

use crate::golden::{mc_hits, Integrand, Rng};
use crate::harness::{HarnessError, RunOutcome};
use crate::{dot_lcg, expf, gemm_tiled, logf, mc, sigmoid, softmax};

/// Code variant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// Snitch-optimized RV32G baseline.
    Baseline,
    /// COPIFT-accelerated (FREP + SSR + custom-1 extensions).
    Copift,
}

impl Variant {
    /// Both variants, baseline first.
    #[must_use]
    pub fn all() -> [Variant; 2] {
        [Variant::Baseline, Variant::Copift]
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Variant::Baseline => "base",
            Variant::Copift => "copift",
        }
    }

    /// Parses a display name (as printed by [`name`](Self::name)).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Variant> {
        Variant::all().into_iter().find(|v| v.name() == name)
    }
}

/// One runnable workload: everything the engine, the sweep CLI and the
/// validation harness need to build, run and check a kernel.
///
/// Implementations are registered in the static catalog (built-ins) or at
/// runtime via [`register`]; callers address them through [`Kernel`].
pub trait Workload: Sync {
    /// The kernel's catalog name (what `sweep --kernels` accepts and the
    /// result sinks print). Must be unique within the catalog.
    fn name(&self) -> &'static str;

    /// One-line description for catalog listings.
    fn description(&self) -> &'static str;

    /// Builds the program for `variant` with problem size `n` (points or
    /// vector elements) and block size `block` (ignored by workloads
    /// without blocking).
    ///
    /// # Panics
    ///
    /// Panics on violated size constraints (see the kernel modules).
    fn build(&self, variant: Variant, n: usize, block: usize) -> Program;

    /// Cores-aware build for data-parallel workloads: the program for a
    /// cluster of `cores` compute cores. The default ignores `cores` and
    /// builds the (hart-0-only) single-core program, which behaves
    /// identically on any cluster size.
    fn build_for(&self, variant: Variant, n: usize, block: usize, cores: usize) -> Program {
        let _ = cores;
        self.build(variant, n, block)
    }

    /// Grid-aware build for multi-cluster workloads: the program for a
    /// system of `clusters` clusters of `cores` compute cores each. The
    /// default ignores `clusters` and builds the per-cluster program — on a
    /// multi-cluster system every cluster then runs the same work, which is
    /// correct for cluster-oblivious kernels (their outputs live in TCDM
    /// and validation reads cluster 0). Tiled workloads override this to
    /// split work by the cluster-id CSR.
    fn build_grid(
        &self,
        variant: Variant,
        n: usize,
        block: usize,
        cores: usize,
        clusters: usize,
    ) -> Program {
        let _ = clusters;
        self.build_for(variant, n, block, cores)
    }

    /// Golden expectations: `(symbol, values)` checked bit-exactly after a
    /// run.
    fn expected(&self, variant: Variant, n: usize) -> Vec<(&'static str, Vec<u64>)>;

    /// A representative operating point `(n, block)` for steady-state
    /// measurements (Figure 2 and the extended suite).
    fn operating_point(&self) -> (usize, usize);

    /// A small validation-friendly `(n, block)` for smoke batches.
    fn smoke_point(&self) -> (usize, usize) {
        (512, 64)
    }

    /// Whether this is a hit-and-miss Monte Carlo workload (Table I groups
    /// those at 8 points per unit).
    fn is_mc(&self) -> bool {
        false
    }

    /// Whether the steady-state `(n, 2n)` differencing methodology applies:
    /// the workload must be able to run at twice its operating size. Tiled
    /// workloads whose TCDM footprint grows with n² opt out — they are
    /// measured on the cores × clusters scaling grid instead.
    fn steady_measurable(&self) -> bool {
        true
    }

    /// Whether the workload belongs to the paper's Figure 2 suite (fixed
    /// paper-comparison batches enumerate only these).
    fn in_figure2(&self) -> bool {
        false
    }
}

// --------------------------------------------------------------- built-ins

/// One of the four hit-and-miss Monte Carlo workloads.
struct McWorkload {
    name: &'static str,
    description: &'static str,
    integrand: Integrand,
    rng: Rng,
}

impl Workload for McWorkload {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn build(&self, variant: Variant, n: usize, block: usize) -> Program {
        match variant {
            Variant::Baseline => mc::baseline(self.integrand, self.rng, n),
            Variant::Copift => mc::copift(self.integrand, self.rng, n, block),
        }
    }
    fn expected(&self, variant: Variant, n: usize) -> Vec<(&'static str, Vec<u64>)> {
        let hits = mc_hits(self.integrand, self.rng, n);
        let bits = match variant {
            Variant::Baseline => hits as u64, // u32 count, zero-padded
            Variant::Copift => hits.to_bits(),
        };
        vec![("result", vec![bits])]
    }
    fn operating_point(&self) -> (usize, usize) {
        (8192, 256)
    }
    fn smoke_point(&self) -> (usize, usize) {
        (512, 128)
    }
    fn is_mc(&self) -> bool {
        true
    }
    fn in_figure2(&self) -> bool {
        true
    }
}

/// The vector-exponential workload (paper Fig. 1).
struct ExpfWorkload;

impl Workload for ExpfWorkload {
    fn name(&self) -> &'static str {
        "exp"
    }
    fn description(&self) -> &'static str {
        "vector exponential (glibc method, hand-written 3-phase pipeline)"
    }
    fn build(&self, variant: Variant, n: usize, block: usize) -> Program {
        match variant {
            Variant::Baseline => expf::baseline(n, block),
            Variant::Copift => expf::copift(n, block),
        }
    }
    fn expected(&self, _variant: Variant, n: usize) -> Vec<(&'static str, Vec<u64>)> {
        // `y_out` aliases the live output window inside `y_main`
        // (one dummy block in; see `expf::alloc_io`).
        vec![("y_out", expf::golden_outputs(n))]
    }
    fn operating_point(&self) -> (usize, usize) {
        (2048, 128)
    }
    fn in_figure2(&self) -> bool {
        true
    }
}

/// The vector-logarithm workload (ISSR showcase).
struct LogfWorkload;

impl Workload for LogfWorkload {
    fn name(&self) -> &'static str {
        "log"
    }
    fn description(&self) -> &'static str {
        "vector logarithm (glibc method, ISSR indirection showcase)"
    }
    fn build(&self, variant: Variant, n: usize, block: usize) -> Program {
        match variant {
            Variant::Baseline => logf::baseline(n),
            Variant::Copift => logf::copift(n, block),
        }
    }
    fn expected(&self, _variant: Variant, n: usize) -> Vec<(&'static str, Vec<u64>)> {
        vec![("y_data", logf::golden_outputs(n))]
    }
    fn operating_point(&self) -> (usize, usize) {
        (2048, 128)
    }
    fn in_figure2(&self) -> bool {
        true
    }
}

/// The auto-compiled polynomial-logistic workload.
struct SigmoidWorkload;

impl Workload for SigmoidWorkload {
    fn name(&self) -> &'static str {
        "sigmoid"
    }
    fn description(&self) -> &'static str {
        "polynomial logistic over LCG-generated inputs (auto-compiled COPIFT)"
    }
    fn build(&self, variant: Variant, n: usize, block: usize) -> Program {
        match variant {
            Variant::Baseline => sigmoid::baseline(n),
            Variant::Copift => sigmoid::copift(n, block),
        }
    }
    fn expected(&self, _variant: Variant, n: usize) -> Vec<(&'static str, Vec<u64>)> {
        vec![("y_out", sigmoid::golden_outputs(n))]
    }
    fn operating_point(&self) -> (usize, usize) {
        // TCDM-resident output: 2n doubles must leave room in the 128 KiB
        // scratchpad at the steady-state measurement's doubled size.
        (4096, 256)
    }
    fn smoke_point(&self) -> (usize, usize) {
        (512, 128)
    }
}

/// The auto-compiled dot-product workload.
struct DotLcgWorkload;

impl Workload for DotLcgWorkload {
    fn name(&self) -> &'static str {
        "dot_lcg"
    }
    fn description(&self) -> &'static str {
        "dot product with an LCG-generated vector (auto-compiled COPIFT)"
    }
    fn build(&self, variant: Variant, n: usize, block: usize) -> Program {
        match variant {
            Variant::Baseline => dot_lcg::baseline(n),
            Variant::Copift => dot_lcg::copift(n, block),
        }
    }
    fn expected(&self, _variant: Variant, n: usize) -> Vec<(&'static str, Vec<u64>)> {
        vec![("result", dot_lcg::golden_result(n))]
    }
    fn operating_point(&self) -> (usize, usize) {
        // TCDM-resident input: same 128 KiB bound as `sigmoid`.
        (4096, 256)
    }
    fn smoke_point(&self) -> (usize, usize) {
        (512, 128)
    }
}

/// The auto-compiled softmax exp+reduce workload.
struct SoftmaxWorkload;

impl Workload for SoftmaxWorkload {
    fn name(&self) -> &'static str {
        "softmax"
    }
    fn description(&self) -> &'static str {
        "softmax exp+reduce denominator pass (auto-compiled COPIFT, FP-only)"
    }
    fn build(&self, variant: Variant, n: usize, block: usize) -> Program {
        match variant {
            Variant::Baseline => softmax::baseline(n),
            Variant::Copift => softmax::copift(n, block),
        }
    }
    fn expected(&self, _variant: Variant, n: usize) -> Vec<(&'static str, Vec<u64>)> {
        let (ys, sums) = softmax::golden(n);
        vec![("y_out", ys), ("result", sums)]
    }
    fn operating_point(&self) -> (usize, usize) {
        (2048, 128)
    }
}

/// A data-parallel (SPMD) Monte Carlo workload: trials split over every
/// compute core of the cluster, per-hart mid-stream seeds, a hardware
/// barrier, and a TCDM tree reduction on hart 0. The aggregate is bit-exact
/// equal to the single-core golden model for **any** core count, because
/// the per-hart seed tables reproduce the global draw sequence chunk for
/// chunk and all partial sums are integer-valued doubles.
struct McParWorkload {
    name: &'static str,
    description: &'static str,
    integrand: Integrand,
    rng: Rng,
}

impl Workload for McParWorkload {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn build(&self, variant: Variant, n: usize, block: usize) -> Program {
        self.build_for(variant, n, block, 1)
    }
    fn build_for(&self, variant: Variant, n: usize, block: usize, cores: usize) -> Program {
        match variant {
            Variant::Baseline => mc::baseline_par(self.integrand, self.rng, n, cores),
            Variant::Copift => mc::copift_par(self.integrand, self.rng, n, block, cores),
        }
    }
    fn expected(&self, variant: Variant, n: usize) -> Vec<(&'static str, Vec<u64>)> {
        // The cluster-wide aggregate equals the single-core golden model
        // regardless of how many harts produced it.
        let hits = mc_hits(self.integrand, self.rng, n);
        let bits = match variant {
            Variant::Baseline => hits as u64,
            Variant::Copift => hits.to_bits(),
        };
        vec![("result", vec![bits])]
    }
    fn operating_point(&self) -> (usize, usize) {
        // Valid across the whole 1..=8 cores scaling axis: at 8 cores each
        // hart still owns 16 blocks of 128 points.
        (16384, 128)
    }
    fn smoke_point(&self) -> (usize, usize) {
        // 8 harts × 2 blocks of 32 points at the largest cluster.
        (512, 32)
    }
    fn is_mc(&self) -> bool {
        true
    }
}

/// The tiled L2-staged GEMM: the first workload whose program depends on
/// the full `(cores, clusters)` grid shape, so [`Workload::build_grid`] is
/// its primary builder and the narrower entry points build degenerate
/// grids. `n` is the matrix dimension `d`; `block` is unused (the tile
/// split is fixed by the grid shape).
struct GemmTiledWorkload;

impl Workload for GemmTiledWorkload {
    fn name(&self) -> &'static str {
        "gemm_tiled"
    }
    fn description(&self) -> &'static str {
        "tiled f64 GEMM staged L2->TCDM via inter-cluster DMA (grid-tiled)"
    }
    fn build(&self, variant: Variant, n: usize, block: usize) -> Program {
        self.build_grid(variant, n, block, 1, 1)
    }
    fn build_for(&self, variant: Variant, n: usize, block: usize, cores: usize) -> Program {
        self.build_grid(variant, n, block, cores, 1)
    }
    fn build_grid(
        &self,
        variant: Variant,
        n: usize,
        _block: usize,
        cores: usize,
        clusters: usize,
    ) -> Program {
        match variant {
            Variant::Baseline => gemm_tiled::baseline(n, cores, clusters),
            Variant::Copift => gemm_tiled::copift(n, cores, clusters),
        }
    }
    fn expected(&self, _variant: Variant, n: usize) -> Vec<(&'static str, Vec<u64>)> {
        // Both variants reduce k-ascending with fused multiply-adds: one
        // golden for every shape.
        vec![("c_data", gemm_tiled::golden_outputs(n))]
    }
    fn operating_point(&self) -> (usize, usize) {
        // d = 64 divides evenly for every cores x clusters shape on the
        // scaling axes (up to 4 clusters x 8 cores = 32 row owners).
        (64, 0)
    }
    fn smoke_point(&self) -> (usize, usize) {
        (32, 0)
    }
    fn steady_measurable(&self) -> bool {
        // 2n = 128 would need 3·128²·8 B of TCDM per cluster; the grid
        // drivers measure this kernel instead.
        false
    }
}

/// The built-in catalog: the paper's six Figure-2 workloads (in the paper's
/// order of increasing expected speedup `S′`) followed by the extended
/// suite.
static BUILTINS: [&dyn Workload; 12] = [
    &McWorkload {
        name: "pi_xoshiro128p",
        description: "Monte Carlo pi, xoshiro128+ draws (integer-heavy, no multiplies)",
        integrand: Integrand::Pi,
        rng: Rng::Xoshiro128p,
    },
    &McWorkload {
        name: "poly_xoshiro128p",
        description: "Monte Carlo degree-5 polynomial, xoshiro128+ draws",
        integrand: Integrand::Poly,
        rng: Rng::Xoshiro128p,
    },
    &McWorkload {
        name: "pi_lcg",
        description: "Monte Carlo pi, LCG draws (write-back-port hazard)",
        integrand: Integrand::Pi,
        rng: Rng::Lcg,
    },
    &McWorkload {
        name: "poly_lcg",
        description: "Monte Carlo degree-5 polynomial, LCG draws",
        integrand: Integrand::Poly,
        rng: Rng::Lcg,
    },
    &LogfWorkload,
    &ExpfWorkload,
    &SigmoidWorkload,
    &DotLcgWorkload,
    &SoftmaxWorkload,
    &McParWorkload {
        name: "pi_lcg_par",
        description: "data-parallel Monte Carlo pi, LCG draws (cluster scaling)",
        integrand: Integrand::Pi,
        rng: Rng::Lcg,
    },
    &McParWorkload {
        name: "pi_xoshiro128p_par",
        description: "data-parallel Monte Carlo pi, xoshiro128+ draws (cluster scaling)",
        integrand: Integrand::Pi,
        rng: Rng::Xoshiro128p,
    },
    &GemmTiledWorkload,
];

/// Workloads added at runtime via [`register`].
static EXTENSIONS: RwLock<Vec<&'static dyn Workload>> = RwLock::new(Vec::new());

/// A workload could not be added to the catalog.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RegistryError {
    /// A cataloged workload already uses this name.
    DuplicateName(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::DuplicateName(name) => {
                write!(f, "a workload named `{name}` is already cataloged")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Adds a workload to the catalog and returns its handle. The workload is
/// immediately visible to [`Kernel::all`], [`Kernel::from_name`] and every
/// engine grid built afterwards.
///
/// # Errors
///
/// Returns [`RegistryError::DuplicateName`] if the name is already taken.
pub fn register(workload: &'static dyn Workload) -> Result<Kernel, RegistryError> {
    let mut ext = EXTENSIONS.write().unwrap();
    let name = workload.name();
    let taken = BUILTINS.iter().any(|w| w.name() == name) || ext.iter().any(|w| w.name() == name);
    if taken {
        return Err(RegistryError::DuplicateName(name.to_string()));
    }
    let index = BUILTINS.len() + ext.len();
    ext.push(workload);
    Ok(Kernel(u16::try_from(index).expect("catalog smaller than 2^16")))
}

/// A cataloged kernel: a copyable, hashable handle into the workload
/// registry (the former closed enum, now open). The paper's six workloads
/// remain addressable by their historical names (`Kernel::PiLcg`, ...).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kernel(u16);

#[allow(non_upper_case_globals)]
impl Kernel {
    /// Monte Carlo π with xoshiro128+.
    pub const PiXoshiro: Kernel = Kernel(0);
    /// Monte Carlo polynomial with xoshiro128+.
    pub const PolyXoshiro: Kernel = Kernel(1);
    /// Monte Carlo π with the LCG.
    pub const PiLcg: Kernel = Kernel(2);
    /// Monte Carlo polynomial with the LCG.
    pub const PolyLcg: Kernel = Kernel(3);
    /// Vector logarithm.
    pub const Logf: Kernel = Kernel(4);
    /// Vector exponential.
    pub const Expf: Kernel = Kernel(5);
    /// Polynomial logistic (extended suite, auto-compiled).
    pub const Sigmoid: Kernel = Kernel(6);
    /// LCG dot product (extended suite, auto-compiled).
    pub const DotLcg: Kernel = Kernel(7);
    /// Softmax exp+reduce (extended suite, auto-compiled).
    pub const Softmax: Kernel = Kernel(8);
    /// Data-parallel Monte Carlo π with the LCG (cluster scaling).
    pub const PiLcgPar: Kernel = Kernel(9);
    /// Data-parallel Monte Carlo π with xoshiro128+ (cluster scaling).
    pub const PiXoshiroPar: Kernel = Kernel(10);
    /// Tiled f64 GEMM staged through L2 (multi-cluster scaling).
    pub const GemmTiled: Kernel = Kernel(11);
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({})", self.name())
    }
}

impl Kernel {
    /// The full catalog, built-ins first (the six Figure-2 workloads in the
    /// paper's order, then the extended suite, then runtime registrations).
    #[must_use]
    pub fn all() -> Vec<Kernel> {
        let total = BUILTINS.len() + EXTENSIONS.read().unwrap().len();
        (0..total).map(|i| Kernel(i as u16)).collect()
    }

    /// The six paper workloads, in Figure 2 order.
    #[must_use]
    pub fn paper() -> Vec<Kernel> {
        Kernel::all().into_iter().filter(|k| k.workload().in_figure2()).collect()
    }

    /// The cataloged workloads beyond the paper's Figure 2 suite.
    #[must_use]
    pub fn extended() -> Vec<Kernel> {
        Kernel::all().into_iter().filter(|k| !k.workload().in_figure2()).collect()
    }

    /// Parses a catalog name (as printed by [`name`](Self::name)).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kernel> {
        Kernel::all().into_iter().find(|k| k.name() == name)
    }

    /// The workload behind this handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not come from this process's catalog.
    #[must_use]
    pub fn workload(self) -> &'static dyn Workload {
        let i = self.0 as usize;
        if i < BUILTINS.len() {
            BUILTINS[i]
        } else {
            EXTENSIONS.read().unwrap()[i - BUILTINS.len()]
        }
    }

    /// The kernel's catalog name.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.workload().name()
    }

    /// One-line description for catalog listings.
    #[must_use]
    pub fn description(self) -> &'static str {
        self.workload().description()
    }

    /// Whether this is a Monte Carlo kernel.
    #[must_use]
    pub fn is_mc(self) -> bool {
        self.workload().is_mc()
    }

    /// Builds the program for `variant` with problem size `n` (points or
    /// vector elements) and block size `block` (ignored by kernels without
    /// blocking).
    ///
    /// # Panics
    ///
    /// Panics on size constraints violated (see the kernel modules).
    #[must_use]
    pub fn build(self, variant: Variant, n: usize, block: usize) -> Program {
        self.workload().build(variant, n, block)
    }

    /// Builds the program for a cluster of `cores` compute cores. For
    /// workloads without a data-parallel implementation this is the
    /// single-core program (which boots only hart 0 on any cluster).
    ///
    /// # Panics
    ///
    /// Panics on violated size constraints (see the kernel modules).
    #[must_use]
    pub fn build_for(self, variant: Variant, n: usize, block: usize, cores: usize) -> Program {
        self.workload().build_for(variant, n, block, cores)
    }

    /// Builds the program for a system of `clusters` clusters of `cores`
    /// compute cores each. Workloads without a tiled implementation get
    /// their per-cluster program (see [`Workload::build_grid`]).
    ///
    /// # Panics
    ///
    /// Panics on violated size constraints (see the kernel modules).
    #[must_use]
    pub fn build_grid(
        self,
        variant: Variant,
        n: usize,
        block: usize,
        cores: usize,
        clusters: usize,
    ) -> Program {
        self.workload().build_grid(variant, n, block, cores, clusters)
    }

    /// Golden expectations: `(symbol, values)` checked after a run.
    #[must_use]
    pub fn expected(self, variant: Variant, n: usize) -> Vec<(&'static str, Vec<u64>)> {
        self.workload().expected(variant, n)
    }

    /// Runs and validates; returns the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError`] on simulation failure or golden mismatch.
    pub fn run(self, variant: Variant, n: usize, block: usize) -> Result<RunOutcome, HarnessError> {
        self.run_with(variant, n, block, ClusterConfig::default())
    }

    /// Runs with a custom system configuration (for ablations, multi-core
    /// and multi-cluster scaling — the program is built for the config's
    /// core and cluster counts). Accepts a plain [`ClusterConfig`] (a
    /// single-cluster system) via `Into`.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError`] on simulation failure or golden mismatch.
    pub fn run_with(
        self,
        variant: Variant,
        n: usize,
        block: usize,
        cfg: impl Into<SystemConfig>,
    ) -> Result<RunOutcome, HarnessError> {
        let cfg = cfg.into();
        let program = self.build_grid(variant, n, block, cfg.cluster.cores, cfg.clusters);
        // A fresh system needs no reset.
        self.run_loaded(&mut System::new(cfg), variant, n, &program)
    }

    /// Runs on a system known to be in its just-constructed (or freshly
    /// [`reset`](System::reset)) state: load, run, validate, report. The
    /// engine calls it on a system it resets between jobs, timing the reset
    /// on its own.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError`] on simulation failure or golden mismatch.
    pub fn run_loaded(
        self,
        system: &mut System,
        variant: Variant,
        n: usize,
        program: &Program,
    ) -> Result<RunOutcome, HarnessError> {
        system.load_program(program);
        let stats = system.run()?;
        self.check(variant, n, program, system)?;
        let report = EnergyModel::gf12lp().report(&stats);
        Ok(RunOutcome {
            total_cycles: stats.cycles,
            power_mw: report.avg_power_mw,
            energy_uj: report.energy_uj,
            stats,
        })
    }

    /// Validates a completed run's outputs bit-exactly against the golden
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Mismatch`] on any output bit difference, or
    /// [`HarnessError::Run`] if an output address is unmapped.
    pub fn check(
        self,
        variant: Variant,
        n: usize,
        program: &Program,
        system: &System,
    ) -> Result<(), HarnessError> {
        for (symbol, golden) in self.expected(variant, n) {
            let base = program
                .symbol(symbol)
                .unwrap_or_else(|| panic!("program lacks output symbol `{symbol}`"));
            crate::harness::check_words(system, base, &golden, symbol)?;
        }
        Ok(())
    }

    /// A representative operating point `(n, block)` for steady-state
    /// measurements (Figure 2).
    #[must_use]
    pub fn operating_point(self) -> (usize, usize) {
        self.workload().operating_point()
    }

    /// A small validation-friendly `(n, block)` for smoke batches.
    #[must_use]
    pub fn smoke_point(self) -> (usize, usize) {
        self.workload().smoke_point()
    }

    /// Whether the steady-state `(n, 2n)` differencing methodology applies
    /// (see [`Workload::steady_measurable`]).
    #[must_use]
    pub fn steady_measurable(self) -> bool {
        self.workload().steady_measurable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_sim::cluster::Cluster;

    #[test]
    fn names_follow_figure2_order_then_extended() {
        let names: Vec<&str> = Kernel::all().iter().map(|k| k.name()).collect();
        assert_eq!(
            &names[..12],
            &[
                "pi_xoshiro128p",
                "poly_xoshiro128p",
                "pi_lcg",
                "poly_lcg",
                "log",
                "exp",
                "sigmoid",
                "dot_lcg",
                "softmax",
                "pi_lcg_par",
                "pi_xoshiro128p_par",
                "gemm_tiled"
            ]
        );
        let paper: Vec<&str> = Kernel::paper().iter().map(|k| k.name()).collect();
        assert_eq!(
            paper,
            vec!["pi_xoshiro128p", "poly_xoshiro128p", "pi_lcg", "poly_lcg", "log", "exp"]
        );
    }

    #[test]
    fn mc_baseline_pi_lcg_validates() {
        let r = Kernel::PiLcg.run(Variant::Baseline, 64, 0).expect("runs and validates");
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn names_round_trip_through_from_name() {
        for k in Kernel::all() {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
        }
        for v in Variant::all() {
            assert_eq!(Variant::from_name(v.name()), Some(v));
        }
        assert_eq!(Kernel::from_name("nope"), None);
        assert_eq!(Variant::from_name("nope"), None);
    }

    #[test]
    fn historical_handles_resolve_to_their_names() {
        assert_eq!(Kernel::PiXoshiro.name(), "pi_xoshiro128p");
        assert_eq!(Kernel::PolyXoshiro.name(), "poly_xoshiro128p");
        assert_eq!(Kernel::PiLcg.name(), "pi_lcg");
        assert_eq!(Kernel::PolyLcg.name(), "poly_lcg");
        assert_eq!(Kernel::Logf.name(), "log");
        assert_eq!(Kernel::Expf.name(), "exp");
        assert_eq!(Kernel::Sigmoid.name(), "sigmoid");
        assert_eq!(Kernel::DotLcg.name(), "dot_lcg");
        assert_eq!(Kernel::Softmax.name(), "softmax");
        assert_eq!(Kernel::PiLcgPar.name(), "pi_lcg_par");
        assert_eq!(Kernel::PiXoshiroPar.name(), "pi_xoshiro128p_par");
        assert_eq!(Kernel::GemmTiled.name(), "gemm_tiled");
    }

    #[test]
    fn eight_core_pi_lcg_par_matches_the_single_core_golden_model() {
        // The acceptance bar of the multi-core tentpole: 8 harts, trials
        // split with mid-stream seeds, barrier, TCDM tree reduction — the
        // aggregate must be BIT-exact equal to the single-core golden model,
        // with real TCDM contention and per-hart statistics rolling up.
        let (n, block, cores) = (1024usize, 32usize, 8usize);
        let cfg = ClusterConfig { cores, ..ClusterConfig::default() };
        let program = Kernel::PiLcgPar.build_for(Variant::Copift, n, block, cores);
        assert!(program.parallel(), "the data-parallel program is SPMD");
        let mut cluster = Cluster::new(cfg);
        cluster.load_program(&program);
        let stats = cluster.run().expect("8-core run completes");
        // Bit-exact aggregate (run_with would also validate; assert the
        // raw memory word explicitly here).
        let result = cluster.mem().read(program.symbol("result").unwrap(), 8).unwrap();
        let golden = crate::golden::mc_hits(Integrand::Pi, Rng::Lcg, n);
        assert_eq!(result, golden.to_bits(), "aggregate must equal the single-core golden model");
        // Eight harts hammering a shared TCDM must actually contend.
        assert!(stats.tcdm_conflicts > 0, "expected TCDM bank contention across 8 harts");
        assert!(stats.stall_barrier > 0, "harts synchronized at the hardware barrier");
        // Per-hart statistics exist and roll up.
        let per_hart: u64 = (0..cores).map(|h| cluster.core_stats(h).int_issued).sum();
        assert_eq!(stats.int_issued, per_hart);
        assert!((0..cores).all(|h| cluster.core_stats(h).fp_issued_seq > 0));
        // And the full harness path validates the same program.
        Kernel::PiLcgPar
            .run_with(
                Variant::Copift,
                n,
                block,
                ClusterConfig { cores, ..ClusterConfig::default() },
            )
            .expect("harness validation of the 8-core run");
    }

    #[test]
    fn parallel_kernels_validate_across_core_counts_and_variants() {
        for kernel in [Kernel::PiLcgPar, Kernel::PiXoshiroPar] {
            for cores in [1usize, 2, 3, 8] {
                let cfg = ClusterConfig { cores, ..ClusterConfig::default() };
                kernel
                    .run_with(Variant::Baseline, 768, 0, cfg.clone())
                    .unwrap_or_else(|e| panic!("{} base x{cores}: {e}", kernel.name()));
                kernel
                    .run_with(Variant::Copift, 768, 16, cfg)
                    .unwrap_or_else(|e| panic!("{} copift x{cores}: {e}", kernel.name()));
            }
        }
    }

    /// A minimal runtime-registered workload: writes one constant word.
    struct ConstWorkload;

    impl Workload for ConstWorkload {
        fn name(&self) -> &'static str {
            "const42"
        }
        fn description(&self) -> &'static str {
            "test workload"
        }
        fn build(&self, _variant: Variant, _n: usize, _block: usize) -> Program {
            use snitch_asm::builder::ProgramBuilder;
            use snitch_riscv::reg::IntReg;
            let mut b = ProgramBuilder::new();
            let out = b.tcdm_reserve("result", 8, 8);
            b.li_u(IntReg::A0, out);
            b.li(IntReg::A1, 42);
            b.sw(IntReg::A1, IntReg::A0, 0);
            b.ecall();
            b.build().unwrap()
        }
        fn expected(&self, _variant: Variant, _n: usize) -> Vec<(&'static str, Vec<u64>)> {
            vec![("result", vec![42u64])]
        }
        fn operating_point(&self) -> (usize, usize) {
            (64, 16)
        }
    }

    #[test]
    fn runtime_registration_extends_the_catalog() {
        // Registration mutates the process-wide catalog for the rest of this
        // test binary: once this test has run, `const42` is part of
        // `Kernel::all()` and `Kernel::extended()`. Tests in this binary must
        // therefore never assert an exact catalog size or an exact extended
        // list — check the first `BUILTINS.len()` entries (a stable prefix)
        // or membership instead.
        static W: ConstWorkload = ConstWorkload;
        let handle = register(&W).expect("first registration succeeds");
        assert_eq!(Kernel::from_name("const42"), Some(handle));
        assert!(Kernel::all().contains(&handle));
        assert!(!Kernel::paper().contains(&handle), "registered kernels are not paper kernels");
        // The handle runs through the standard harness.
        let r = handle.run(Variant::Baseline, 64, 16).expect("validates");
        assert!(r.total_cycles > 0);
        // Names stay unique.
        assert_eq!(register(&W), Err(RegistryError::DuplicateName("const42".to_string())));
    }

    #[test]
    fn run_on_reused_cluster_matches_fresh_run() {
        let (n, block) = (64, 16);
        let program = Kernel::PolyLcg.build(Variant::Copift, n, block);
        let fresh = Kernel::PolyLcg
            .run_loaded(&mut System::new(SystemConfig::default()), Variant::Copift, n, &program)
            .expect("fresh run validates");
        let mut system = System::new(SystemConfig::default());
        // Dirty the system with an unrelated kernel first.
        let other = Kernel::PiLcg.build(Variant::Baseline, 64, 0);
        Kernel::PiLcg
            .run_loaded(&mut system, Variant::Baseline, 64, &other)
            .expect("warm-up run validates");
        system.reset();
        let reused = Kernel::PolyLcg
            .run_loaded(&mut system, Variant::Copift, n, &program)
            .expect("reused run validates");
        assert_eq!(fresh.stats, reused.stats, "reuse must not perturb timing");
    }
}
