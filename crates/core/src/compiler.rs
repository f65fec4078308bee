//! The end-to-end COPIFT analysis pipeline (Steps 1–7 as one call).
//!
//! [`analyze`] runs the whole methodology on a loop body and returns every
//! intermediate artifact plus the Table-I-style static estimates, so a
//! developer (or the `snitch-kernels` crate) can follow the paper's workflow:
//! inspect the partition, size the buffers, check FREP legality, pick a
//! block size, and emit the final mixed program.

use snitch_riscv::inst::Inst;

use crate::dfg::Dfg;
use crate::estimate::{i_prime, s_double_prime, thread_imbalance, MixCounts};
use crate::frepmap::FrepPlan;
use crate::partition::Partition;
use crate::schedule::{reorder, TilingPlan};

/// Everything the methodology derives from a loop body.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Step 1: the data-flow graph with classified dependencies.
    pub dfg: Dfg,
    /// Step 2: the phase partition.
    pub partition: Partition,
    /// Step 3: the reordered (phase-grouped) body.
    pub reordered: Vec<Inst>,
    /// Steps 4–5: buffers with replication counts and the block schedule.
    pub tiling: TilingPlan,
    /// Step 7 (with Step 6 prerequisites as diagnostics): the fused FREP
    /// body and its legality violations.
    pub frep: FrepPlan,
    /// Static instruction mix of the input body.
    pub mix: MixCounts,
    /// Thread imbalance `TI` of the input body.
    pub ti: f64,
    /// First-order expected speedup `S″ = 1 + TI` (Eq. 3).
    pub s_double_prime: f64,
    /// Expected dual-issue IPC `I′` of the body if executed as two threads
    /// (Eq. 2 applied to the input mix).
    pub i_prime: f64,
}

/// Error for bodies the methodology cannot handle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AnalyzeError {
    /// The body is empty.
    EmptyBody,
    /// The body contains control flow (must be a straight-line loop body).
    ControlFlow {
        /// Index of the offending instruction.
        node: usize,
    },
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::EmptyBody => write!(f, "empty loop body"),
            AnalyzeError::ControlFlow { node } => {
                write!(f, "control flow at body instruction {node}; pass a straight-line body")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Runs Steps 1–7 on a straight-line loop body.
///
/// # Errors
///
/// Returns [`AnalyzeError`] for empty bodies or bodies with control flow.
///
/// # Example
///
/// ```
/// use copift::compiler::analyze;
/// use snitch_asm::builder::ProgramBuilder;
/// use snitch_riscv::reg::{FpReg, IntReg};
///
/// // A toy mixed body: integer index math feeding an FP accumulate.
/// let mut b = ProgramBuilder::new();
/// b.lw(IntReg::A0, IntReg::A1, 0);
/// b.sw(IntReg::A0, IntReg::A2, 0);
/// b.fld(FpReg::FA0, IntReg::A2, 0);
/// b.fadd_d(FpReg::FA1, FpReg::FA1, FpReg::FA0);
/// let body = b.build().unwrap().text().to_vec();
///
/// let analysis = analyze(&body)?;
/// assert_eq!(analysis.partition.len(), 2); // Int phase, then FP phase
/// # Ok::<(), copift::compiler::AnalyzeError>(())
/// ```
pub fn analyze(body: &[Inst]) -> Result<Analysis, AnalyzeError> {
    if body.is_empty() {
        return Err(AnalyzeError::EmptyBody);
    }
    if let Some(node) = body.iter().position(Inst::is_control_flow) {
        return Err(AnalyzeError::ControlFlow { node });
    }
    let dfg = Dfg::build(body);
    let partition = Partition::of(&dfg).expect("non-empty body");
    debug_assert!(partition.is_acyclic(&dfg), "partition must respect dependencies");
    let reordered = reorder(&dfg, &partition);
    let tiling = TilingPlan::of(&dfg, &partition);
    let frep = FrepPlan::of(&dfg, &partition);
    let mix = MixCounts::of(body);
    Ok(Analysis {
        ti: thread_imbalance(mix),
        s_double_prime: s_double_prime(mix),
        i_prime: i_prime(mix),
        dfg,
        partition,
        reordered,
        tiling,
        frep,
        mix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::fig1b_expf_body;

    #[test]
    fn full_pipeline_on_expf() {
        let a = analyze(&fig1b_expf_body()).unwrap();
        assert_eq!(a.mix.n_int, 10);
        assert_eq!(a.mix.n_fp, 13);
        assert_eq!(a.partition.len(), 3);
        assert_eq!(a.tiling.buffers.len(), 3);
        assert_eq!(a.reordered.len(), 23);
        assert!((a.ti - 10.0 / 13.0).abs() < 1e-12);
        assert!((a.s_double_prime - (1.0 + 10.0 / 13.0)).abs() < 1e-12);
    }

    #[test]
    fn rejects_control_flow() {
        use snitch_asm::builder::ProgramBuilder;
        use snitch_riscv::reg::IntReg;
        let mut b = ProgramBuilder::new();
        b.label("x");
        b.addi(IntReg::A0, IntReg::A0, -1);
        b.bnez(IntReg::A0, "x");
        let body = b.build().unwrap().text().to_vec();
        assert_eq!(analyze(&body).unwrap_err(), AnalyzeError::ControlFlow { node: 1 });
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(analyze(&[]).unwrap_err(), AnalyzeError::EmptyBody);
    }
}
