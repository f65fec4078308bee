//! Measurement code for the `experiments` driver, which regenerates the
//! COPIFT paper's Table I and Figures 2–3 in `EXPERIMENTS.md`.
//!
//! All batched measurements run through [`snitch_engine`]: each section
//! expands its experiment matrix into a job batch, the engine fans the
//! batch across worker threads (caching compiled programs), and the
//! steady-state derivations here consume the ordered records. This module
//! is the **only** place steady-state measure logic lives.

#![forbid(unsafe_code)]

use copift::estimate::{self, MixCounts};
use snitch_engine::job::{FIG3_BLOCKS, SCALING_CORES};
use snitch_engine::{job, Engine, JobSpec, RunRecord};
use snitch_kernels::harness::steady_state;
use snitch_kernels::registry::{Kernel, Variant};
use snitch_kernels::SteadyState;
use snitch_sim::config::ClusterConfig;
use snitch_sim::stats::Stats;

/// Runs `job` once per cluster configuration (sharing one compiled
/// program) and returns the stats in `configs` order.
///
/// # Panics
///
/// Panics if any run fails validation.
#[must_use]
pub fn config_sweep(engine: &Engine, job: &JobSpec, configs: &[ClusterConfig]) -> Vec<Stats> {
    engine.run(&job::config_sweep(job, configs)).iter().map(|r| stats_of(r).clone()).collect()
}

/// The stats of a record, panicking loudly on a failed job.
fn stats_of(record: &RunRecord) -> &Stats {
    assert!(
        record.ok,
        "{} failed: {}",
        record.job.label(),
        record.error.as_deref().unwrap_or("unknown error")
    );
    record.stats.as_ref().expect("successful records carry stats")
}

/// One Figure 2 row: baseline and COPIFT steady-state measurements plus the
/// derived comparisons.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Kernel.
    pub kernel: Kernel,
    /// Baseline steady state.
    pub base: SteadyState,
    /// COPIFT steady state.
    pub copift: SteadyState,
}

impl Fig2Row {
    /// Measures the paper's six kernels as one engine batch (24 simulations
    /// fanned across the engine's workers). Results are identical to
    /// measuring each kernel serially; only wall-clock differs.
    ///
    /// # Panics
    ///
    /// Panics if any run fails validation.
    #[must_use]
    pub fn measure_all(engine: &Engine) -> Vec<Fig2Row> {
        Self::measure_suite(engine, &Kernel::paper())
    }

    /// Measures an arbitrary kernel list (e.g. [`Kernel::extended`] for the
    /// extended suite, or the whole catalog) as one engine batch of
    /// steady-state pairs, four simulations per kernel. Kernels that don't
    /// support the `(n, 2n)` methodology ([`Kernel::steady_measurable`])
    /// are skipped — the scaling grid measures those.
    ///
    /// # Panics
    ///
    /// Panics if any run fails validation.
    #[must_use]
    pub fn measure_suite(engine: &Engine, kernels: &[Kernel]) -> Vec<Fig2Row> {
        let kernels: Vec<Kernel> =
            kernels.iter().copied().filter(|k| k.steady_measurable()).collect();
        let jobs = job::steady_pairs(&kernels);
        let records = engine.run(&jobs);
        // steady_pairs() is kernel-major: [base n, base 2n, copift n, copift 2n].
        kernels
            .iter()
            .zip(records.chunks_exact(4))
            .map(|(&kernel, chunk)| {
                let (n, _) = kernel.operating_point();
                Fig2Row {
                    kernel,
                    base: steady_state(stats_of(&chunk[0]), n, stats_of(&chunk[1]), 2 * n),
                    copift: steady_state(stats_of(&chunk[2]), n, stats_of(&chunk[3]), 2 * n),
                }
            })
            .collect()
    }

    /// Steady-state speedup (cycles per element ratio).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.base.cycles_per_elem / self.copift.cycles_per_elem
    }

    /// Energy improvement (energy per element ratio).
    #[must_use]
    pub fn energy_improvement(&self) -> f64 {
        self.base.energy_per_elem_nj / self.copift.energy_per_elem_nj
    }

    /// Power ratio (COPIFT / base).
    #[must_use]
    pub fn power_ratio(&self) -> f64 {
        self.copift.power_mw / self.base.power_mw
    }

    /// Expected IPC `I′` from the measured steady-state instruction mix
    /// (Eq. 2 evaluated on dynamic counts).
    #[must_use]
    pub fn i_prime(&self) -> f64 {
        estimate::i_prime(dynamic_mix(&self.copift))
    }

    /// Expected speedup `S′` from measured mixes (Eq. 1).
    #[must_use]
    pub fn s_prime(&self) -> f64 {
        estimate::s_prime(dynamic_mix(&self.base), dynamic_mix(&self.copift))
    }
}

/// The dynamic instruction mix of a steady state's measured window.
fn dynamic_mix(ss: &SteadyState) -> MixCounts {
    MixCounts { n_int: ss.delta.int_issued, n_fp: ss.delta.fp_instructions() }
}

/// Renders extended-suite measurement rows as the EXPERIMENTS.md markdown
/// table.
#[must_use]
pub fn extended_tables(rows: &[Fig2Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| kernel | IPC base | IPC COPIFT | power base | power COPIFT | speedup | energy imp. | I′ (exp.) | S′ (exp.) |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.1} | {:.1} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.kernel.name(),
            r.base.ipc,
            r.copift.ipc,
            r.base.power_mw,
            r.copift.power_mw,
            r.speedup(),
            r.energy_improvement(),
            r.i_prime(),
            r.s_prime(),
        );
    }
    out
}

/// One row of a scaling table: the stats of one `(kernel, variant)` at one
/// cluster count, for every core count of [`SCALING_CORES`] in order.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Kernel.
    pub kernel: Kernel,
    /// Code variant.
    pub variant: Variant,
    /// Cluster count of this row.
    pub clusters: usize,
    /// Stats per core count.
    pub stats: Vec<Stats>,
}

impl ScalingRow {
    /// Parallel speedup at the top core count relative to the row's
    /// single-core run (scaling within a fixed cluster count).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.stats[0].cycles as f64 / self.stats[self.stats.len() - 1].cycles as f64
    }
}

/// Runs a scaling batch whose core counts are innermost, one row per
/// [`SCALING_CORES`]-long chunk.
fn scaling_rows_of(engine: &Engine, jobs: &[JobSpec]) -> Vec<ScalingRow> {
    let records = engine.run(jobs);
    records
        .chunks_exact(SCALING_CORES.len())
        .map(|chunk| {
            let job = &chunk[0].job;
            ScalingRow {
                kernel: job.kernel,
                variant: job.variant,
                clusters: job.config.clusters,
                stats: chunk.iter().map(|r| stats_of(r).clone()).collect(),
            }
        })
        .collect()
}

/// Measures the data-parallel kernels over the [`SCALING_CORES`] axis at
/// their shared operating point, as one engine batch (16 simulations, one
/// compiled program per core count). Every run validates bit-exactly
/// against the single-core golden model — the decomposition guarantee of
/// the per-hart seed tables.
///
/// # Panics
///
/// Panics if any run fails validation.
#[must_use]
pub fn scaling_rows(engine: &Engine) -> Vec<ScalingRow> {
    scaling_rows_of(engine, &job::scaling_default())
}

/// Measures the tiled GEMM over the [`SCALING_CORES`] ×
/// [`SCALING_CLUSTERS`](job::SCALING_CLUSTERS) grid at its operating point,
/// as one engine batch (one compiled program per grid shape). Every run validates bit-exactly against the
/// single-cluster golden model — the decomposition guarantee of the
/// block-cyclic row ownership (DESIGN.md §18).
///
/// # Panics
///
/// Panics if any run fails validation.
#[must_use]
pub fn scaling_grid_rows(engine: &Engine) -> Vec<ScalingRow> {
    scaling_rows_of(engine, &job::scaling_grid_default())
}

/// Renders scaling rows as an EXPERIMENTS.md markdown table: cycles per
/// core count, the speedup at the top count, and the `top` column (name,
/// counter) of the top-count run. `with_clusters` adds a clusters column.
#[must_use]
pub fn scaling_table(
    rows: &[ScalingRow],
    with_clusters: bool,
    top: (&str, fn(&Stats) -> u64),
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut header = String::from("| kernel | variant |");
    if with_clusters {
        header.push_str(" clusters |");
    }
    for c in SCALING_CORES {
        let _ = write!(header, " {c} core{} |", if c == 1 { "" } else { "s" });
    }
    let cores = SCALING_CORES[SCALING_CORES.len() - 1];
    let _ = writeln!(out, "{header} speedup @{cores} | {} @{cores} |", top.0);
    let columns = SCALING_CORES.len() + 4 + usize::from(with_clusters);
    let _ = writeln!(out, "|{}", "---|".repeat(columns));
    for r in rows {
        let mut line = format!("| {} | {} |", r.kernel.name(), r.variant.name());
        if with_clusters {
            let _ = write!(line, " {} |", r.clusters);
        }
        for s in &r.stats {
            let _ = write!(line, " {} |", s.cycles);
        }
        let last = &r.stats[r.stats.len() - 1];
        let _ = writeln!(out, "{line} {:.2}× | {} |", r.speedup(), (top.1)(last));
    }
    out
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The full Figure 3 IPC grid, `grid[size_index][block_index]` — full-run
/// IPC of `poly_lcg` COPIFT with prologue and epilogue included (the point
/// of the figure) — computed as one engine batch (56 simulations).
///
/// # Panics
///
/// Panics if any run fails validation.
#[must_use]
pub fn fig3_grid(engine: &Engine) -> Vec<Vec<f64>> {
    let jobs = job::figure3_paper();
    let records = engine.run(&jobs);
    records
        .chunks_exact(FIG3_BLOCKS.len())
        .map(|row| row.iter().map(|r| stats_of(r).ipc()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_engine::job::FIG3_SIZES;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fig3_axes_are_valid_configs() {
        for &b in &FIG3_BLOCKS {
            for &n in &FIG3_SIZES {
                assert_eq!(n % b, 0, "block {b} must divide size {n}");
                assert!(n / b >= 2);
                assert_eq!(b % 8, 0);
            }
        }
    }

    #[test]
    fn engine_rows_match_serial_measurement() {
        // The engine path must reproduce the serial path bit-for-bit.
        let rows = Fig2Row::measure_all(&Engine::new(2));
        let (kernel, (n, block)) = (Kernel::PiLcg, Kernel::PiLcg.operating_point());
        let serial = |variant| {
            let run = |n| kernel.run(variant, n, block).expect("run validates").stats;
            steady_state(&run(n), n, &run(2 * n), 2 * n)
        };
        let serial =
            Fig2Row { kernel, base: serial(Variant::Baseline), copift: serial(Variant::Copift) };
        let row = rows.iter().find(|r| r.kernel == kernel).expect("pi_lcg row");
        assert_eq!(row.base.delta, serial.base.delta);
        assert_eq!(row.copift.delta, serial.copift.delta);
        assert!((row.speedup() - serial.speedup()).abs() < 1e-12);
    }
}

/// One row of the overlap-profile table: the trace-level per-cycle lane
/// occupancy of one `(kernel, variant)` run at its smoke point, plus the
/// analyzed [`Profile`](snitch_trace::Profile) for further rendering.
#[derive(Clone, Debug)]
pub struct OverlapRow {
    /// Kernel.
    pub kernel: Kernel,
    /// Code variant.
    pub variant: Variant,
    /// Total cycles of the run.
    pub cycles: u64,
    /// Full-run IPC.
    pub ipc: f64,
    /// The analyzed trace.
    pub profile: snitch_trace::Profile,
    /// Hart-0 lane occupancy over the full run.
    pub occupancy: snitch_trace::Occupancy,
}

/// Traces the paper's six kernels in both variants at their smoke points
/// (one engine batch of 12 traced jobs; every run validates bit-exactly
/// before its trace counts) and analyzes hart 0's lane occupancy.
///
/// # Panics
///
/// Panics if any run fails validation.
#[must_use]
pub fn overlap_rows(engine: &Engine) -> Vec<OverlapRow> {
    let mut jobs = Vec::new();
    for kernel in Kernel::paper() {
        let (n, block) = kernel.smoke_point();
        for variant in Variant::all() {
            jobs.push(snitch_engine::JobSpec::new(kernel, variant, n, block).traced());
        }
    }
    let records = engine.run(&jobs);
    records
        .iter()
        .map(|r| {
            let stats = stats_of(r);
            let events = r.trace.as_deref().expect("traced job carries events");
            let profile = snitch_trace::Profile::new(events, stats.cycles);
            let occupancy = profile.occupancy(0);
            OverlapRow {
                kernel: r.job.kernel,
                variant: r.job.variant,
                cycles: stats.cycles,
                ipc: stats.ipc(),
                profile,
                occupancy,
            }
        })
        .collect()
}

/// Renders overlap rows as the EXPERIMENTS.md markdown table.
#[must_use]
pub fn overlap_tables(rows: &[OverlapRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| kernel | variant | cycles | IPC | steady IPC | overlap % | core-only % | frep-only % | idle % |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        let occ = &r.occupancy;
        let pct = |n: u64| 100.0 * n as f64 / occ.window as f64;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.3} | {:.3} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.kernel.name(),
            r.variant.name(),
            r.cycles,
            r.ipc,
            r.profile.steady_ipc(),
            pct(occ.overlap),
            pct(occ.core_busy - occ.overlap),
            pct(occ.frep_busy - occ.overlap),
            pct(occ.idle),
        );
    }
    out
}

/// An ASCII strip of one row's hart-0 steady-state occupancy (the
/// Perfetto-screenshot-equivalent text view), at most `width` cycles wide.
#[must_use]
pub fn overlap_strip(row: &OverlapRow, width: u64) -> String {
    let steady = row.profile.steady_window();
    let window = steady.start..(steady.start + width).min(steady.end);
    format!(
        "{}/{} steady-state occupancy, cycles [{}, {}) (█ = lane issued):\n\n```text\n{}```\n",
        row.kernel.name(),
        row.variant.name(),
        window.start,
        window.end,
        row.profile.ascii_timeline(0, &window, width as usize),
    )
}
