//! Run-and-validate harness: the outcome and error of a validated kernel
//! run (`Kernel::run_loaded` executes it), the bit-exact comparison against
//! the golden models, and steady-state metrics by differencing two problem
//! sizes (which cancels setup, prologue and epilogue contributions — the
//! paper's "steady-state iteration" measurements).

use snitch_energy::EnergyModel;
use snitch_sim::error::RunError;
use snitch_sim::stats::Stats;
use snitch_sim::system::System;

/// Result of one validated kernel run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Full-run statistics.
    pub stats: Stats,
    /// Total cycles (convenience alias of `stats.cycles`).
    pub total_cycles: u64,
    /// Average power over the run (calibrated model), mW.
    pub power_mw: f64,
    /// Total energy, µJ.
    pub energy_uj: f64,
}

/// Validation or execution failure.
#[derive(Debug)]
pub enum HarnessError {
    /// The simulator aborted.
    Run(RunError),
    /// Simulated output disagrees with the golden model.
    Mismatch {
        /// What was being compared.
        what: String,
        /// Element index.
        index: usize,
        /// Simulated bits.
        got: u64,
        /// Golden bits.
        want: u64,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Run(e) => write!(f, "simulation failed: {e}"),
            HarnessError::Mismatch { what, index, got, want } => {
                write!(f, "golden mismatch in {what}[{index}]: got {got:#018x}, want {want:#018x}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<RunError> for HarnessError {
    fn from(e: RunError) -> Self {
        HarnessError::Run(e)
    }
}

/// Compares `golden` 64-bit words against system memory starting at `base`
/// — the one bit-exact comparison loop every validation path shares. L2
/// addresses read the canonical (post-merge) contents; everything else
/// reads cluster 0.
///
/// # Errors
///
/// Returns [`HarnessError::Mismatch`] on the first differing word, or
/// [`HarnessError::Run`] if an address is unmapped.
pub fn check_words(
    system: &System,
    base: u32,
    golden: &[u64],
    what: &str,
) -> Result<(), HarnessError> {
    for (i, want) in golden.iter().enumerate() {
        let got = system
            .read_mem(base + (i as u32) * 8, 8)
            .map_err(|e| HarnessError::Run(RunError::Fault(e.into())))?;
        if got != *want {
            return Err(HarnessError::Mismatch {
                what: what.to_string(),
                index: i,
                got,
                want: *want,
            });
        }
    }
    Ok(())
}

/// Steady-state metrics derived by differencing two runs of the same kernel
/// at different problem sizes.
#[derive(Clone, Debug)]
pub struct SteadyState {
    /// Steady-state instructions per cycle.
    pub ipc: f64,
    /// Cycles per processed element (point / vector entry).
    pub cycles_per_elem: f64,
    /// Steady-state average power, mW.
    pub power_mw: f64,
    /// Steady-state energy per element, nJ.
    pub energy_per_elem_nj: f64,
    /// The differenced counters.
    pub delta: Stats,
}

/// Computes steady-state metrics from two validated runs: `(stats_small,
/// n_small)` and `(stats_large, n_large)`.
#[must_use]
pub fn steady_state(small: &Stats, n_small: usize, large: &Stats, n_large: usize) -> SteadyState {
    assert!(n_large > n_small, "need two distinct problem sizes");
    let delta = large.delta_since(small);
    let elems = (n_large - n_small) as f64;
    let ipc = delta.ipc();
    let cycles_per_elem = delta.cycles as f64 / elems;
    let report = EnergyModel::gf12lp().report(&delta);
    SteadyState {
        ipc,
        cycles_per_elem,
        power_mw: report.avg_power_mw,
        energy_per_elem_nj: report.energy_uj * 1e3 / elems,
        delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_asm::builder::ProgramBuilder;
    use snitch_asm::program::Program;
    use snitch_riscv::reg::IntReg;
    use snitch_sim::config::SystemConfig;

    /// Runs a program that stores 41 to its `out` word.
    fn stored_41() -> (Program, System) {
        let mut b = ProgramBuilder::new();
        let out = b.tcdm_reserve("out", 8, 8);
        b.li_u(IntReg::A0, out);
        b.li(IntReg::A1, 41);
        b.sw(IntReg::A1, IntReg::A0, 0);
        b.ecall();
        let p = b.build().unwrap();
        let mut system = System::new(SystemConfig::default());
        system.load_program(&p);
        system.run().expect("program completes");
        (p, system)
    }

    #[test]
    fn validation_catches_wrong_output() {
        let (p, system) = stored_41();
        let out = p.symbol("out").unwrap();
        let err = check_words(&system, out, &[42], "out").expect_err("must detect mismatch");
        match err {
            HarnessError::Mismatch { what, index, got, want } => {
                assert_eq!((what.as_str(), index, got, want), ("out", 0, 41, 42));
            }
            other @ HarnessError::Run(_) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn validation_accepts_correct_output() {
        let (p, system) = stored_41();
        check_words(&system, p.symbol("out").unwrap(), &[41], "out").expect("output matches");
    }
}
