//! Analytical speedup and IPC estimators (paper Equations 1–3).
//!
//! These are the quantities Table I reports: assuming similar per-thread
//! IPCs, the speedup of dual-issue execution is approximated from static
//! instruction counts alone:
//!
//! * `S′ = (n_int^base + n_fp^base) / max(n_int^copift, n_fp^copift)` (Eq. 1)
//! * `I′ = (n_int^copift + n_fp^copift) / max(n_int^copift, n_fp^copift)` (Eq. 2)
//! * `S″ = I″ = 1 + TI`, with thread imbalance
//!   `TI = min(n_int, n_fp) / max(n_int, n_fp)` over the *baseline* counts
//!   (Eq. 3, using `a + b = max(a,b) + min(a,b)`).
//!
//! The paper's Table I values live in `snitch_kernels::paper`, whose tests
//! check that these estimators reproduce them.

use snitch_riscv::inst::Inst;

/// Static instruction mix of one steady-state loop iteration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MixCounts {
    /// Integer-thread instructions (including FREP/SSR configuration).
    pub n_int: u64,
    /// FP-thread instructions.
    pub n_fp: u64,
}

impl MixCounts {
    /// Counts the mix of an instruction sequence.
    #[must_use]
    pub fn of(body: &[Inst]) -> Self {
        let n_fp = body.iter().filter(|i| i.is_fp()).count() as u64;
        MixCounts { n_int: body.len() as u64 - n_fp, n_fp }
    }

    /// Total instructions.
    #[must_use]
    pub fn total(self) -> u64 {
        self.n_int + self.n_fp
    }

    /// The larger thread's count (the dual-issue critical path).
    #[must_use]
    pub fn critical(self) -> u64 {
        self.n_int.max(self.n_fp)
    }
}

/// Thread imbalance `TI = min / max` of a mix (paper Eq. 3 context;
/// 0 for an empty or single-domain mix).
#[must_use]
#[allow(clippy::manual_is_multiple_of, clippy::if_not_else)]
pub fn thread_imbalance(mix: MixCounts) -> f64 {
    if mix.critical() == 0 {
        0.0
    } else {
        mix.n_int.min(mix.n_fp) as f64 / mix.critical() as f64
    }
}

/// Expected speedup `S′` from baseline and COPIFT mixes (Eq. 1).
#[must_use]
pub fn s_prime(base: MixCounts, copift: MixCounts) -> f64 {
    base.total() as f64 / copift.critical().max(1) as f64
}

/// Expected IPC `I′` of the COPIFT variant (Eq. 2), assuming one
/// instruction per thread per cycle on the critical thread.
#[must_use]
pub fn i_prime(copift: MixCounts) -> f64 {
    copift.total() as f64 / copift.critical().max(1) as f64
}

/// First-order speedup estimate `S″ = 1 + TI` from the baseline mix alone
/// (Eq. 3).
#[must_use]
pub fn s_double_prime(base: MixCounts) -> f64 {
    1.0 + thread_imbalance(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(n_int: u64, n_fp: u64) -> MixCounts {
        MixCounts { n_int, n_fp }
    }

    #[test]
    fn identity_s_double_prime_equals_one_plus_ti() {
        // Property over a grid of mixes (the paper's footnote identity).
        for n_int in [1u64, 3, 17, 44, 172] {
            for n_fp in [1u64, 5, 52, 80] {
                let m = mix(n_int, n_fp);
                let lhs = m.total() as f64 / m.critical() as f64;
                assert!((lhs - s_double_prime(m)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn counts_from_instructions() {
        use snitch_asm::builder::ProgramBuilder;
        use snitch_riscv::reg::{FpReg, IntReg};
        let mut b = ProgramBuilder::new();
        b.add(IntReg::A0, IntReg::A1, IntReg::A2);
        b.fadd_d(FpReg::FA0, FpReg::FA1, FpReg::FA2);
        b.frep_o(IntReg::T0, 1, 0, 0); // integer-side config
        b.copift_flt_d(FpReg::FA0, FpReg::FA1, FpReg::FA2); // FP thread
        let m = MixCounts::of(b.build().unwrap().text());
        assert_eq!(m, mix(2, 2));
    }

    #[test]
    fn degenerate_mixes() {
        assert_eq!(thread_imbalance(mix(0, 0)), 0.0);
        assert_eq!(s_double_prime(mix(10, 0)), 1.0, "pure integer code cannot speed up");
        assert_eq!(i_prime(mix(0, 0)), 0.0);
    }
}
