//! Step 7: FREP mapping — fusing the FP phases into one hardware loop that
//! precedes the integer loop.
//!
//! Since iteration 0 of an FREP body is issued by the integer core, the FREP
//! loop must come *first* in each block iteration so its replays overlap the
//! integer phase. When a block iteration executes several FP phases (on
//! different data blocks, per the software pipeline), they are fused into a
//! single body so the integer thread overlaps all of them.
//!
//! This module also checks FREP legality: a body instruction must not touch
//! the integer register file — the exact restriction the COPIFT ISA
//! extensions lift for conversions and comparisons.

use snitch_riscv::inst::Inst;

use crate::dfg::{Dfg, Domain};
use crate::partition::Partition;

/// Why an instruction cannot appear in an FREP body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FrepViolation {
    /// Offending instruction.
    pub inst: Inst,
    /// Node index in the original body.
    pub node: usize,
    /// Human-readable reason and remedy.
    pub reason: String,
}

/// The fused FREP plan for one steady-state block iteration.
#[derive(Clone, Debug)]
pub struct FrepPlan {
    /// Fused FP body (phase order preserved; each phase operates on its own
    /// pipelined data block at run time).
    pub body: Vec<Inst>,
    /// Source phase indices fused into the body.
    pub fused_phases: Vec<usize>,
    /// Violations that must be fixed (by SSR mapping or the COPIFT ISA
    /// extensions) before the body is FREP-legal.
    pub violations: Vec<FrepViolation>,
}

impl FrepPlan {
    /// Builds the plan from a partition: concatenates all FP phases.
    #[must_use]
    pub fn of(dfg: &Dfg, partition: &Partition) -> FrepPlan {
        let mut body = Vec::new();
        let mut fused_phases = Vec::new();
        let mut violations = Vec::new();
        for (p, phase) in partition.phases.iter().enumerate() {
            if phase.domain != Domain::Fp {
                continue;
            }
            fused_phases.push(p);
            for &n in &phase.nodes {
                let inst = dfg.insts()[n];
                if !inst.frep_legal() {
                    violations.push(FrepViolation { inst, node: n, reason: remedy(&inst) });
                }
                body.push(inst);
            }
        }
        FrepPlan { body, fused_phases, violations }
    }

    /// Whether the body is already FREP-legal.
    #[must_use]
    pub fn is_legal(&self) -> bool {
        self.violations.is_empty()
    }
}

fn remedy(inst: &Inst) -> String {
    match inst {
        Inst::Flw { .. } | Inst::Fld { .. } | Inst::Fsw { .. } | Inst::Fsd { .. } => {
            format!("`{inst}` consumes an integer base address: map the access to an SSR (Step 6)")
        }
        i if i.fp_writes_int_rf() || i.fp_reads_int_rf() => format!(
            "`{inst}` crosses register files: use the COPIFT custom-1 replacement and spill \
             the integer communication through memory (paper §II-B)"
        ),
        _ => format!("`{inst}` is not an FP-subsystem instruction"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::fig1b_expf_body;

    #[test]
    fn expf_fuses_two_fp_phases() {
        let body = fig1b_expf_body();
        let dfg = Dfg::build(&body);
        let part = Partition::of(&dfg).unwrap();
        let plan = FrepPlan::of(&dfg, &part);
        assert_eq!(plan.fused_phases, vec![0, 2]);
        assert_eq!(plan.body.len(), 13);
        // The raw body still holds explicit loads/stores: Step 6 must map
        // them to SSRs before the loop is legal.
        assert!(!plan.is_legal());
        assert_eq!(plan.violations.len(), 4, "fld x, fsd ki, fld t, fsd y");
        assert!(plan.violations.iter().all(|v| v.reason.contains("SSR")));
    }

    #[test]
    fn cross_rf_instructions_point_to_copift_extensions() {
        use snitch_asm::builder::ProgramBuilder;
        use snitch_riscv::reg::{FpReg, IntReg};
        let mut b = ProgramBuilder::new();
        b.fcvt_d_w(FpReg::FA0, IntReg::A0);
        b.flt_d(IntReg::A1, FpReg::FA0, FpReg::FA1);
        let dfg = Dfg::build(b.build().unwrap().text());
        let part = Partition::of(&dfg).unwrap();
        let plan = FrepPlan::of(&dfg, &part);
        assert_eq!(plan.violations.len(), 2);
        assert!(plan.violations.iter().all(|v| v.reason.contains("custom-1")));
    }

    #[test]
    fn copift_replacements_are_legal() {
        use snitch_asm::builder::ProgramBuilder;
        use snitch_riscv::reg::FpReg;
        let mut b = ProgramBuilder::new();
        b.copift_fcvt_d_wu(FpReg::FA0, FpReg::FT0);
        b.copift_flt_d(FpReg::FA1, FpReg::FA0, FpReg::FA2);
        b.fmadd_d(FpReg::FA3, FpReg::FA0, FpReg::FA1, FpReg::FA3);
        let dfg = Dfg::build(b.build().unwrap().text());
        let part = Partition::of(&dfg).unwrap();
        let plan = FrepPlan::of(&dfg, &part);
        assert!(plan.is_legal());
        assert_eq!(plan.body.len(), 3);
    }
}
