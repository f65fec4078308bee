//! Block compilation: the whole text section pre-lowered into compact
//! micro-ops for the block burst, the cluster's run loop.
//!
//! `Decoded` keeps the full [`Inst`] and re-matches it on every issue
//! attempt; a [`BlockInst`] instead pre-resolves everything that is static
//! per pc — the operand scoreboard indices, immediate values, pc-relative
//! targets (`auipc`, `jal`, branch targets) and mul/div latencies — so the
//! burst loop in `cluster.rs` issues with one small match and no decode
//! work. Ops whose semantics depend on cluster state machines (CSRs
//! including the barrier and FPU fence, SSR configuration, DMA commands)
//! compile to [`BlockOp::Generic`] and delegate to the generic issue path
//! (`IntCore::step`) instruction-for-instruction, so they can never drift
//! from it.
//!
//! The cache is keyed purely by pc: entry `i` corresponds to
//! `TEXT_BASE + 4*i`, in lockstep with `Cluster::text`. It is rebuilt by
//! `load_program` and cleared by `reset` (text is immutable between loads,
//! so there is no other invalidation source). Nothing *dynamic* — sequencer
//! and SSR state, DMA activity, barrier occupancy — is keyed here: the
//! burst loop steps those units every cycle exactly as the reference
//! stepper does.

use snitch_asm::layout;
use snitch_riscv::csr::CSR_FPU_FENCE;
use snitch_riscv::inst::Inst;
use snitch_riscv::ops::{AluImmOp, AluOp, BranchOp, CsrOp, LoadOp, StoreOp};
use snitch_riscv::reg::IntReg;

use crate::config::ClusterConfig;
use crate::core::Decoded;

/// How an FP offload's captured integer operand is computed at issue time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OffloadVal {
    /// No integer operand travels with the offload.
    None,
    /// `rs1 + offset` (FP loads and stores).
    Addr { rs1: u8, offset: i32 },
    /// A plain register read (`fcvt`/`fmv` int sources, FREP repeat counts).
    Reg { rs1: u8 },
}

/// One pre-lowered micro-op. Register operands are raw indices; pc-relative
/// values are resolved against the op's own pc at compile time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BlockOp {
    Lui {
        value: u32,
    },
    /// `pc + imm`, precomputed.
    Auipc {
        value: u32,
    },
    AluImm {
        op: AluImmOp,
        rs1: u8,
        imm: i32,
    },
    AluReg {
        op: AluOp,
        rs1: u8,
        rs2: u8,
        latency: u32,
    },
    Load {
        op: LoadOp,
        rs1: u8,
        offset: i32,
    },
    Store {
        op: StoreOp,
        rs1: u8,
        rs2: u8,
        offset: i32,
    },
    Branch {
        op: BranchOp,
        rs1: u8,
        rs2: u8,
        taken_pc: u32,
    },
    Jal {
        target: u32,
    },
    Jalr {
        rs1: u8,
        offset: i32,
    },
    Fence,
    /// `ecall`/`ebreak`: halts without advancing the pc.
    Ecall,
    /// FP/FREP offload into the FP subsystem (the actual [`Inst`] is read
    /// from the parallel `text` entry at issue time; `meta` is its
    /// pre-extracted issue metadata, saved here so the offload path never
    /// re-derives it).
    Offload {
        val: OffloadVal,
        meta: crate::fpss::FpMeta,
        is_frep: bool,
        writes_int_rf: bool,
    },
    /// The canonical FPU fence (`csrrs x0, fpu_fence, x0`): executes through
    /// the generic issue path like [`Generic`](Self::Generic), but while the
    /// FP subsystem has queued work `IntCore::step_block` recognizes that
    /// the only possible outcome is one Fence stall and skips the delegated
    /// call.
    FenceWait,
    /// Delegated to `IntCore::step` (CSR, SSR config, DMA, unknown ops).
    Generic,
}

/// A pre-compiled instruction: the micro-op plus its integer hazard
/// operands. Index 0 is x0, whose scoreboard slot is always ready, so it
/// doubles as the "no operand" sentinel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockInst {
    pub(crate) op: BlockOp,
    /// Integer source register indices for the issue hazard scan (same
    /// collapsed order as [`Decoded::int_srcs`]).
    pub(crate) srcs: [u8; 2],
    /// Integer destination register index (0 when none).
    pub(crate) dst: u8,
}

impl BlockInst {
    fn compile(d: &Decoded, pc: u32, cfg: &ClusterConfig) -> Self {
        let srcs = [reg_index(d.int_srcs[0]), reg_index(d.int_srcs[1])];
        let dst = reg_index(d.int_dst);
        let op = if d.inst.is_fp() || d.inst.is_frep() {
            let val = match d.inst {
                Inst::Flw { rs1, offset, .. }
                | Inst::Fld { rs1, offset, .. }
                | Inst::Fsw { rs1, offset, .. }
                | Inst::Fsd { rs1, offset, .. } => OffloadVal::Addr { rs1: rs1.index(), offset },
                Inst::FpCvtI2F { rs1, .. } | Inst::FpMvX2F { rs1, .. } => {
                    OffloadVal::Reg { rs1: rs1.index() }
                }
                Inst::FrepO { rep, .. } | Inst::FrepI { rep, .. } => {
                    OffloadVal::Reg { rs1: rep.index() }
                }
                _ => OffloadVal::None,
            };
            BlockOp::Offload {
                val,
                meta: crate::fpss::FpMeta::of(&d.inst),
                is_frep: d.inst.is_frep(),
                writes_int_rf: d.inst.fp_writes_int_rf(),
            }
        } else {
            match d.inst {
                Inst::Lui { imm, .. } => BlockOp::Lui { value: imm as u32 },
                Inst::Auipc { imm, .. } => BlockOp::Auipc { value: pc.wrapping_add(imm as u32) },
                Inst::OpImm { op, rs1, imm, .. } => BlockOp::AluImm { op, rs1: rs1.index(), imm },
                Inst::OpReg { op, rs1, rs2, .. } => BlockOp::AluReg {
                    op,
                    rs1: rs1.index(),
                    rs2: rs2.index(),
                    latency: if op.is_div() {
                        cfg.div_latency
                    } else if op.is_muldiv() {
                        cfg.mul_latency
                    } else {
                        1
                    },
                },
                Inst::Jal { offset, .. } => BlockOp::Jal { target: pc.wrapping_add(offset as u32) },
                Inst::Jalr { rs1, offset, .. } => BlockOp::Jalr { rs1: rs1.index(), offset },
                Inst::Branch { op, rs1, rs2, offset } => BlockOp::Branch {
                    op,
                    rs1: rs1.index(),
                    rs2: rs2.index(),
                    taken_pc: pc.wrapping_add(offset as u32),
                },
                Inst::Load { op, rs1, offset, .. } => {
                    BlockOp::Load { op, rs1: rs1.index(), offset }
                }
                Inst::Store { op, rs2, rs1, offset } => {
                    BlockOp::Store { op, rs1: rs1.index(), rs2: rs2.index(), offset }
                }
                Inst::Fence => BlockOp::Fence,
                Inst::Ecall | Inst::Ebreak => BlockOp::Ecall,
                // Only the canonical zero-register encoding: any other
                // fence-CSR form could carry real hazards or a write.
                Inst::Csr { op: CsrOp::Rs, rd, csr: CSR_FPU_FENCE, src: 0 } if rd.is_zero() => {
                    BlockOp::FenceWait
                }
                _ => BlockOp::Generic,
            }
        };
        BlockInst { op, srcs, dst }
    }
}

fn reg_index(r: Option<IntReg>) -> u8 {
    r.map_or(0, IntReg::index)
}

/// The compiled text section: one [`BlockInst`] per `text` entry, indexed
/// by `(pc - TEXT_BASE) / 4`.
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockCache {
    ops: Vec<BlockInst>,
}

impl BlockCache {
    /// Rebuilds the cache for a freshly loaded text section, reusing the
    /// allocation.
    pub(crate) fn recompile(&mut self, text: &[Decoded], cfg: &ClusterConfig) {
        self.ops.clear();
        self.ops.reserve(text.len());
        for (i, d) in text.iter().enumerate() {
            let pc = layout::TEXT_BASE.wrapping_add(i as u32 * 4);
            self.ops.push(BlockInst::compile(d, pc, cfg));
        }
    }

    /// Drops the compiled ops (on `Cluster::reset`, mirroring `text`).
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
    }

    /// The compiled micro-ops, parallel to the text section.
    pub(crate) fn ops(&self) -> &[BlockInst] {
        &self.ops
    }
}
