//! Paper fidelity: the steady-state Figure 2 numbers derived from a batch's
//! records, compared with the paper's own values.

use snitch_engine::RunRecord;
use snitch_kernels::harness::steady_state;
use snitch_kernels::SteadyState;

/// One kernel's paper values: `(name, IPC base, IPC COPIFT, speedup,
/// energy improvement)`.
type PaperRow = (&'static str, f64, f64, f64, f64);

/// The paper's Figure 2a (steady-state IPC) and Figure 2c (speedup, energy
/// improvement), in Figure 2 kernel order. Transcribed from the "paper"
/// columns of the Figure 2a and Figure 2c tables in `EXPERIMENTS.md`.
pub const PAPER: [PaperRow; 6] = [
    ("pi_xoshiro128p", 0.96, 1.24, 1.15, 1.12),
    ("poly_xoshiro128p", 0.96, 1.36, 1.26, 1.22),
    ("pi_lcg", 0.86, 1.50, 1.32, 1.17),
    ("poly_lcg", 0.89, 1.75, 1.58, 1.34),
    ("log", 0.92, 1.48, 1.62, 1.61),
    ("exp", 0.92, 1.63, 2.05, 1.93),
];

/// The measured steady state of one Figure 2 kernel.
#[derive(Clone, Debug)]
pub struct Row {
    /// Baseline steady state.
    pub base: SteadyState,
    /// COPIFT steady state.
    pub copift: SteadyState,
}

impl Row {
    /// Steady-state speedup (cycles-per-element ratio).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.base.cycles_per_elem / self.copift.cycles_per_elem
    }

    /// Energy improvement (energy-per-element ratio).
    #[must_use]
    pub fn energy_improvement(&self) -> f64 {
        self.base.energy_per_elem_nj / self.copift.energy_per_elem_nj
    }
}

/// The Figure 2 steady state of a batch, one row per paper kernel.
#[derive(Clone, Debug)]
pub struct Fidelity {
    /// Rows in [`PAPER`] order.
    pub rows: Vec<Row>,
}

impl Fidelity {
    /// Derives the steady state from the records of `job::figure2()`
    /// (kernel-major `[base n, base 2n, copift n, copift 2n]`). Returns
    /// `None` if the batch does not have that shape or any job failed.
    #[must_use]
    pub fn from_records(records: &[RunRecord]) -> Option<Fidelity> {
        if records.len() != 4 * PAPER.len() {
            return None;
        }
        let mut rows = Vec::with_capacity(PAPER.len());
        for (chunk, paper) in records.chunks_exact(4).zip(PAPER) {
            if chunk.iter().any(|r| r.job.kernel.name() != paper.0) {
                return None;
            }
            let n = chunk[0].job.n;
            let stats = |i: usize| chunk[i].stats.as_ref().filter(|_| chunk[i].ok);
            let pair =
                |a: usize, b: usize| Some(steady_state(stats(a)?, n, stats(b)?, chunk[b].job.n));
            rows.push(Row { base: pair(0, 1)?, copift: pair(2, 3)? });
        }
        Some(Fidelity { rows })
    }

    /// Geometric-mean speedup.
    #[must_use]
    pub fn geomean_speedup(&self) -> f64 {
        geomean(self.rows.iter().map(Row::speedup))
    }

    /// Geometric-mean energy improvement.
    #[must_use]
    pub fn geomean_energy(&self) -> f64 {
        geomean(self.rows.iter().map(Row::energy_improvement))
    }

    /// Highest steady-state COPIFT IPC.
    #[must_use]
    pub fn peak_ipc(&self) -> f64 {
        self.rows.iter().map(|r| r.copift.ipc).fold(0.0, f64::max)
    }

    /// Mean absolute % error of the 12 IPCs (base and COPIFT per kernel).
    #[must_use]
    pub fn ipc_mape_pct(&self) -> f64 {
        let pairs =
            self.rows.iter().zip(PAPER).flat_map(|(r, p)| [(r.base.ipc, p.1), (r.copift.ipc, p.2)]);
        mape_pct(pairs)
    }

    /// Mean absolute % error of the 6 speedups.
    #[must_use]
    pub fn speedup_mape_pct(&self) -> f64 {
        mape_pct(self.rows.iter().zip(PAPER).map(|(r, p)| (r.speedup(), p.3)))
    }

    /// Mean absolute % error of the 6 energy improvements.
    #[must_use]
    pub fn energy_mape_pct(&self) -> f64 {
        mape_pct(self.rows.iter().zip(PAPER).map(|(r, p)| (r.energy_improvement(), p.4)))
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    (sum / f64::from(n)).exp()
}

/// Mean of `|ours - paper| / paper`, in percent.
fn mape_pct(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (sum, n) =
        pairs.fold((0.0, 0u32), |(s, n), (ours, paper)| (s + (ours - paper).abs() / paper, n + 1));
    100.0 * sum / f64::from(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_kernels::Kernel;

    #[test]
    fn paper_table_follows_figure2_kernel_order() {
        let names: Vec<&str> = Kernel::paper().iter().map(|k| k.name()).collect();
        let paper: Vec<&str> = PAPER.iter().map(|p| p.0).collect();
        assert_eq!(names, paper);
    }

    #[test]
    fn mape_of_exact_values_is_zero() {
        assert_eq!(mape_pct([(2.0, 2.0), (1.0, 1.0)].into_iter()), 0.0);
        assert!((mape_pct([(1.1, 1.0), (0.9, 1.0)].into_iter()) - 10.0).abs() < 1e-9);
        assert!((geomean([1.0, 4.0].into_iter()) - 2.0).abs() < 1e-12);
    }
}
