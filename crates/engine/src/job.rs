//! The job model: one simulation job and the constructors that expand
//! experiment matrices into batches.
//!
//! All constructors produce jobs in a **deterministic order** (row-major
//! over their input axes); the executor preserves that order in its results,
//! so batch expansion fully defines the layout of every result file.

use snitch_kernels::registry::{Kernel, Variant};
use snitch_sim::config::{ClusterConfig, SystemConfig};

use crate::cache::ProgramKey;

/// One simulation job: which program to run under which configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct JobSpec {
    /// Workload.
    pub kernel: Kernel,
    /// Code variant.
    pub variant: Variant,
    /// Problem size (points or vector elements).
    pub n: usize,
    /// DMA/tiling block size (ignored by kernels without blocking).
    pub block: usize,
    /// System configuration to simulate under (a single default cluster
    /// unless the job says otherwise).
    pub config: SystemConfig,
}

impl JobSpec {
    /// A job at the default single-cluster configuration.
    #[must_use]
    pub fn new(kernel: Kernel, variant: Variant, n: usize, block: usize) -> Self {
        JobSpec { kernel, variant, n, block, config: SystemConfig::default() }
    }

    /// Replaces the system configuration. Accepts a plain
    /// [`ClusterConfig`] (a single-cluster system) via `Into`.
    #[must_use]
    pub fn with_config(mut self, config: impl Into<SystemConfig>) -> Self {
        self.config = config.into();
        self
    }

    /// Requests a cycle-accurate event trace of this job: the run's
    /// [`RunRecord`](crate::record::RunRecord) will carry the recorded
    /// events. The request rides on `config.trace`, which is excluded from
    /// both the program-cache key and the configuration fingerprint — a
    /// traced job compiles no extra program, simulates bit-identically, and
    /// serializes to the same JSON-lines/CSV rows as its untraced twin.
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.config.cluster.trace = true;
        self
    }

    /// Whether this job requests an event trace.
    #[must_use]
    pub fn trace(&self) -> bool {
        self.config.cluster.trace
    }

    /// Requests a per-pc cycle/stall profile of this job: the run's
    /// [`RunRecord`](crate::record::RunRecord) will carry the finished
    /// [`Profiler`](snitch_profile::Profiler). Like [`traced`](Self::traced)
    /// the request rides on `config.profile`, which is excluded from the
    /// program-cache key and the configuration fingerprint — a profiled job
    /// compiles no extra program, simulates bit-identically (block bursts
    /// stay engaged) and serializes to the same JSON-lines/CSV rows as its
    /// unprofiled twin.
    #[must_use]
    pub fn profiled(mut self) -> Self {
        self.config.cluster.profile = true;
        self
    }

    /// Whether this job requests a cycle profile.
    #[must_use]
    pub fn profile(&self) -> bool {
        self.config.cluster.profile
    }

    /// The program-cache key: timing-configuration changes never rebuild
    /// programs, but the grid shape does (data-parallel programs bake the
    /// core count into seed tables and reductions; tiled programs bake the
    /// cluster count into their DMA descriptors), so programs for different
    /// shapes never collide in the cache.
    #[must_use]
    pub fn program_key(&self) -> ProgramKey {
        ProgramKey {
            kernel: self.kernel,
            variant: self.variant,
            n: self.n,
            block: self.block,
            cores: self.config.cluster.cores,
            clusters: self.config.clusters,
        }
    }

    /// Human-readable job label, e.g. `exp/copift/n2048/b128`. Multi-core
    /// jobs append `/cN` (cores per cluster); multi-cluster jobs append
    /// `/xN` (cluster count) after that — `gemm_tiled/copift/n64/b0/c8/x4`
    /// is the 4-cluster, 8-cores-per-cluster shape.
    #[must_use]
    pub fn label(&self) -> String {
        use std::fmt::Write as _;
        let mut label =
            format!("{}/{}/n{}/b{}", self.kernel.name(), self.variant.name(), self.n, self.block);
        if self.config.cluster.cores > 1 {
            let _ = write!(label, "/c{}", self.config.cluster.cores);
        }
        if self.config.clusters > 1 {
            let _ = write!(label, "/x{}", self.config.clusters);
        }
        label
    }

    /// Full four-axis matrix expansion: every `kernel × variant × (n, block)
    /// × config` combination, row-major in that axis order. Accepts slices
    /// of [`ClusterConfig`] (single-cluster systems) or [`SystemConfig`].
    #[must_use]
    pub fn grid_with_configs<C: Clone + Into<SystemConfig>>(
        kernels: &[Kernel],
        variants: &[Variant],
        points: &[(usize, usize)],
        configs: &[C],
    ) -> Vec<JobSpec> {
        let mut jobs =
            Vec::with_capacity(kernels.len() * variants.len() * points.len() * configs.len());
        for &kernel in kernels {
            for &variant in variants {
                for &(n, block) in points {
                    for config in configs {
                        jobs.push(JobSpec {
                            kernel,
                            variant,
                            n,
                            block,
                            config: config.clone().into(),
                        });
                    }
                }
            }
        }
        jobs
    }

    /// Three-axis matrix at the default configuration.
    #[must_use]
    pub fn grid(
        kernels: &[Kernel],
        variants: &[Variant],
        points: &[(usize, usize)],
    ) -> Vec<JobSpec> {
        Self::grid_with_configs(kernels, variants, points, &[SystemConfig::default()])
    }
}

/// Free-function alias of [`JobSpec::grid`], for readable call sites.
#[must_use]
pub fn grid(kernels: &[Kernel], variants: &[Variant], points: &[(usize, usize)]) -> Vec<JobSpec> {
    JobSpec::grid(kernels, variants, points)
}

/// Steady-state measurement pairs: every given kernel, both variants, at
/// the kernel's operating point `n` and at `2n` (steady-state measurements
/// difference the two sizes). `4 × kernels.len()` jobs, kernel-major in the
/// given order.
#[must_use]
pub fn steady_pairs(kernels: &[Kernel]) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(4 * kernels.len());
    for &kernel in kernels {
        let (n, block) = kernel.operating_point();
        for variant in Variant::all() {
            jobs.push(JobSpec::new(kernel, variant, n, block));
            jobs.push(JobSpec::new(kernel, variant, 2 * n, block));
        }
    }
    jobs
}

/// The full Figure 2 batch: [`steady_pairs`] over the paper's six kernels
/// (24 jobs, Figure 2 order).
#[must_use]
pub fn figure2() -> Vec<JobSpec> {
    steady_pairs(&Kernel::paper())
}

/// The extended-suite batch: [`steady_pairs`] over every cataloged kernel
/// beyond the paper's Figure 2 suite that supports the `(n, 2n)`
/// steady-state methodology (the tiled kernels opt out — the scaling-grid
/// batch measures them instead).
#[must_use]
pub fn extended() -> Vec<JobSpec> {
    let kernels: Vec<Kernel> =
        Kernel::extended().into_iter().filter(|k| k.steady_measurable()).collect();
    steady_pairs(&kernels)
}

/// The paper's Figure 3 block sizes.
pub const FIG3_BLOCKS: [usize; 7] = [32, 48, 64, 96, 128, 192, 256];
/// The paper's Figure 3 problem sizes.
pub const FIG3_SIZES: [usize; 8] = [768, 1536, 3072, 6144, 12288, 24576, 49152, 98304];

/// A Figure 3-style grid: `poly_lcg` COPIFT over `sizes × blocks`,
/// size-major (one row of the figure at a time).
#[must_use]
pub fn figure3(sizes: &[usize], blocks: &[usize]) -> Vec<JobSpec> {
    let points: Vec<(usize, usize)> =
        sizes.iter().flat_map(|&n| blocks.iter().map(move |&b| (n, b))).collect();
    JobSpec::grid(&[Kernel::PolyLcg], &[Variant::Copift], &points)
}

/// [`figure3`] at the paper's own axes ([`FIG3_SIZES`] × [`FIG3_BLOCKS`]):
/// the full 56-cell grid.
#[must_use]
pub fn figure3_paper() -> Vec<JobSpec> {
    figure3(&FIG3_SIZES, &FIG3_BLOCKS)
}

/// The smoke batch: every cataloged kernel, both variants, at each
/// kernel's small validation-friendly smoke point (kernel-major in catalog
/// order; 2 jobs per cataloged kernel).
#[must_use]
pub fn smoke() -> Vec<JobSpec> {
    let kernels = Kernel::all();
    let mut jobs = Vec::with_capacity(2 * kernels.len());
    for kernel in kernels {
        let (n, block) = kernel.smoke_point();
        for variant in Variant::all() {
            jobs.push(JobSpec::new(kernel, variant, n, block));
        }
    }
    jobs
}

/// The multicore smoke batch: the tiled and the data-parallel kernel on one
/// 8-core cluster at their smoke points, both variants (4 jobs; the
/// `multicore` line of `BENCH_sim.json`).
#[must_use]
pub fn multicore() -> Vec<JobSpec> {
    let config = ClusterConfig { cores: 8, ..ClusterConfig::default() };
    let jobs = [Kernel::GemmTiled, Kernel::PiLcgPar].into_iter().flat_map(|kernel| {
        let (n, block) = kernel.smoke_point();
        Variant::all().into_iter().map(move |variant| JobSpec::new(kernel, variant, n, block))
    });
    jobs.map(|job| job.with_config(config.clone())).collect()
}

/// Replicates one job across many configurations (ablations). The compiled
/// program is shared by all replicas through the program cache. Accepts
/// slices of [`ClusterConfig`] or [`SystemConfig`].
#[must_use]
pub fn config_sweep<C: Clone + Into<SystemConfig>>(base: &JobSpec, configs: &[C]) -> Vec<JobSpec> {
    configs.iter().map(|c| base.clone().with_config(c.clone())).collect()
}

/// The canonical core-scaling axis, shared by the sweep CLI's `scaling`
/// preset and the bench `scaling` driver so both always produce the same
/// batch.
pub const SCALING_CORES: [usize; 4] = [1, 2, 4, 8];

/// The canonical cluster-count axis of the 2-D (cores × clusters) scaling
/// grid.
pub const SCALING_CLUSTERS: [usize; 3] = [1, 2, 4];

/// The data-parallel kernels of the canonical scaling batch.
#[must_use]
pub fn scaling_kernels() -> [Kernel; 2] {
    [Kernel::PiLcgPar, Kernel::PiXoshiroPar]
}

/// The canonical cluster-scaling batch: [`scaling_kernels`] ×
/// both variants × [`SCALING_CORES`] at the kernels' shared operating
/// point (16 jobs; the EXPERIMENTS.md "Cluster scaling" table).
#[must_use]
pub fn scaling_default() -> Vec<JobSpec> {
    let (n, block) = Kernel::PiLcgPar.operating_point();
    scaling(&scaling_kernels(), &SCALING_CORES, n, block)
}

/// Cluster-scaling batch: every `kernel × variant × cores` combination at a
/// fixed `(n, block)` operating point, kernel-major then variant-major then
/// cores in the given order (the layout the `scaling` driver's table
/// assumes). Each cores value builds its own program — data-parallel
/// workloads bake the cluster size into their code.
#[must_use]
pub fn scaling(kernels: &[Kernel], cores: &[usize], n: usize, block: usize) -> Vec<JobSpec> {
    scaling_grid(kernels, cores, &[1], n, block)
}

/// The canonical 2-D scaling grid: `gemm_tiled` × both variants ×
/// [`SCALING_CORES`] × [`SCALING_CLUSTERS`] at the kernel's operating point
/// (24 jobs; the EXPERIMENTS.md "Cores × clusters scaling" table).
#[must_use]
pub fn scaling_grid_default() -> Vec<JobSpec> {
    let (n, block) = Kernel::GemmTiled.operating_point();
    scaling_grid(&[Kernel::GemmTiled], &SCALING_CORES, &SCALING_CLUSTERS, n, block)
}

/// 2-D scaling batch over the full system shape: every `kernel × variant ×
/// clusters × cores` combination at a fixed `(n, block)` operating point,
/// kernel-major, then variant, then clusters, with cores innermost (one
/// table row per clusters value in the drivers). Every grid shape builds
/// its own program — tiled workloads bake both counts into their code.
#[must_use]
pub fn scaling_grid(
    kernels: &[Kernel],
    cores: &[usize],
    clusters: &[usize],
    n: usize,
    block: usize,
) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(kernels.len() * 2 * cores.len() * clusters.len());
    for &kernel in kernels {
        for variant in Variant::all() {
            for &x in clusters {
                for &c in cores {
                    let config = SystemConfig {
                        cluster: ClusterConfig { cores: c, ..ClusterConfig::default() },
                        clusters: x,
                    };
                    jobs.push(JobSpec::new(kernel, variant, n, block).with_config(config));
                }
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_row_major_and_complete() {
        let jobs = grid(&[Kernel::PiLcg, Kernel::Logf], &Variant::all(), &[(64, 16), (128, 16)]);
        assert_eq!(jobs.len(), 8);
        let labels: Vec<String> = jobs.iter().map(JobSpec::label).collect();
        assert_eq!(labels[0], "pi_lcg/base/n64/b16");
        assert_eq!(labels[1], "pi_lcg/base/n128/b16");
        assert_eq!(labels[2], "pi_lcg/copift/n64/b16");
        assert_eq!(labels[7], "log/copift/n128/b16");
    }

    #[test]
    fn figure2_covers_all_paper_kernels_twice_per_variant() {
        let jobs = figure2();
        assert_eq!(jobs.len(), 24);
        for kernel in Kernel::paper() {
            let (n, block) = kernel.operating_point();
            for variant in Variant::all() {
                for size in [n, 2 * n] {
                    assert!(
                        jobs.iter().any(|j| j.kernel == kernel
                            && j.variant == variant
                            && j.n == size
                            && j.block == block),
                        "missing {}/{}/{size}",
                        kernel.name(),
                        variant.name()
                    );
                }
            }
        }
    }

    #[test]
    fn smoke_and_extended_enumerate_the_catalog() {
        let catalog = Kernel::all();
        let smoke_jobs = smoke();
        assert_eq!(smoke_jobs.len(), 2 * catalog.len());
        for kernel in &catalog {
            assert!(
                smoke_jobs.iter().any(|j| j.kernel == *kernel),
                "{} missing from the smoke batch",
                kernel.name()
            );
        }
        let ext = extended();
        let steady = Kernel::extended().into_iter().filter(|k| k.steady_measurable()).count();
        assert_eq!(ext.len(), 4 * steady);
        assert!(ext.iter().all(|j| !Kernel::paper().contains(&j.kernel)));
        assert!(
            ext.iter().all(|j| j.kernel.name() != "gemm_tiled"),
            "the tiled kernel cannot run at 2n; the scaling-grid batch measures it"
        );
        assert!(ext.iter().any(|j| j.kernel.name() == "sigmoid"));
        assert!(ext.iter().any(|j| j.kernel.name() == "softmax"));
        assert!(ext.iter().any(|j| j.kernel.name() == "dot_lcg"));
    }

    #[test]
    fn scaling_batch_layout_labels_and_keys() {
        let jobs = scaling(&[Kernel::PiLcgPar], &[1, 8], 512, 32);
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].label(), "pi_lcg_par/base/n512/b32");
        assert_eq!(jobs[1].label(), "pi_lcg_par/base/n512/b32/c8");
        assert_eq!(jobs[1].config.cluster.cores, 8);
        // Different core counts never share a compiled program.
        assert_ne!(jobs[0].program_key(), jobs[1].program_key());
        assert_eq!(jobs[1].program_key().cores, 8);
    }

    #[test]
    fn grid_labels_append_cores_then_clusters() {
        let jobs = scaling_grid(&[Kernel::GemmTiled], &[1, 8], &[1, 4], 64, 0);
        assert_eq!(jobs.len(), 8);
        let labels: Vec<String> = jobs.iter().map(JobSpec::label).collect();
        // clusters-major with cores innermost; /cN before /xN.
        assert_eq!(labels[0], "gemm_tiled/base/n64/b0");
        assert_eq!(labels[1], "gemm_tiled/base/n64/b0/c8");
        assert_eq!(labels[2], "gemm_tiled/base/n64/b0/x4");
        assert_eq!(labels[3], "gemm_tiled/base/n64/b0/c8/x4");
        // Different cluster counts never share a compiled program.
        assert_ne!(jobs[0].program_key(), jobs[2].program_key());
        assert_eq!(jobs[3].program_key().clusters, 4);
        // Single-cluster keys and labels are identical to the pre-system
        // forms (the `/x` suffix and the key's clusters axis are inert).
        assert_eq!(jobs[0].program_key().clusters, 1);
    }

    #[test]
    fn config_sweep_shares_the_program_key() {
        let base = JobSpec::new(Kernel::PiLcg, Variant::Baseline, 64, 0);
        let sweep = config_sweep(
            &base,
            &[
                ClusterConfig::default(),
                ClusterConfig { int_wb_ports: 2, ..ClusterConfig::default() },
            ],
        );
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0].program_key(), sweep[1].program_key());
        assert_ne!(sweep[0].config, sweep[1].config);
    }
}
