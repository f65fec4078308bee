//! The in-order single-issue integer core.
//!
//! Timing model (see `DESIGN.md` §3):
//!
//! * one instruction issued per cycle at most; FP instructions occupy the
//!   issue slot and are pushed into the FPSS offload FIFO;
//! * a scoreboard tracks per-register readiness; reads of a register pending
//!   an FP→int write-back stall (Type 3 serialization);
//! * the ALU and the multi-cycle mul/div unit share one register-file
//!   write-back port: an instruction whose write-back cycle is already
//!   claimed stalls at issue — the structural hazard the paper identifies in
//!   the LCG kernels. Loads and FPSS responses return on a separate port;
//! * taken branches pay a fixed refill penalty;
//! * `scfgwi` to a busy streamer stalls until the stream completes, and the
//!   FPU-fence CSR stalls until the FP subsystem and streamers drain.

use snitch_riscv::csr::{
    SsrCfgWord, CSR_BARRIER, CSR_CLUSTER_ID, CSR_FPU_FENCE, CSR_MCYCLE, CSR_MHARTID, CSR_MINSTRET,
    CSR_SSR,
};
use snitch_riscv::inst::Inst;
use snitch_riscv::meta::RegRef;
use snitch_riscv::ops::{CsrOp, DmaOp, LoadOp};
use snitch_riscv::reg::IntReg;
use snitch_trace::{EventKind, Lane, StallCause};

use crate::charge::Charge;
use crate::config::ClusterConfig;
use crate::dma::Dma;
use crate::error::SimFault;
use crate::fpss::{Fpss, OffloadEntry};
use crate::icache::L0Cache;
use crate::mem::{Memory, TcdmArbiter, TcdmPort};
use crate::ssr::Ssr;
use crate::stats::Stats;
use snitch_asm::layout;

/// Sentinel `ready_at` for a register awaiting an FP→int write-back.
const PENDING_FP: u64 = u64::MAX;

/// The largest `mul_latency`/`div_latency` a core accepts: the write-back
/// claim ring spans the longest latency, so this bounds its size.
pub const MAX_INT_LATENCY: u32 = 1 << 16;

/// A pre-decoded instruction with the integer-side metadata the issue stage
/// needs every cycle.
#[derive(Clone, Copy, Debug)]
pub struct Decoded {
    /// The instruction.
    pub inst: Inst,
    /// Integer source registers (at most two).
    pub int_srcs: [Option<IntReg>; 2],
    /// Integer destination register, if any.
    pub int_dst: Option<IntReg>,
}

impl Decoded {
    /// Pre-decodes an instruction.
    #[must_use]
    pub fn new(inst: Inst) -> Self {
        let mut int_srcs = [None, None];
        let mut n = 0;
        for u in inst.uses() {
            if let RegRef::Int(r) = u {
                if !r.is_zero() && n < 2 && !int_srcs.contains(&Some(r)) {
                    int_srcs[n] = Some(r);
                    n += 1;
                }
            }
        }
        let int_dst = inst.defs().into_iter().find_map(|d| match d {
            RegRef::Int(r) => Some(r),
            RegRef::Fp(_) => None,
        });
        // FP instructions that write the integer RF also define an int reg.
        let int_dst = int_dst.or(match inst {
            Inst::FpCmp { rd, .. }
            | Inst::FpCvtF2I { rd, .. }
            | Inst::FpMvF2X { rd, .. }
            | Inst::FpClass { rd, .. } => {
                if rd.is_zero() {
                    None
                } else {
                    Some(rd)
                }
            }
            _ => None,
        });
        Decoded { inst, int_srcs, int_dst }
    }
}

/// Progress of a hart through the cluster hardware barrier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BarrierState {
    /// Not at a barrier.
    Idle,
    /// Arrived; stalled until every hart arrives (or halts).
    Waiting,
    /// Released by the cluster; the barrier CSR read completes next issue.
    Released,
}

/// The integer core.
#[derive(Clone, Debug)]
pub struct IntCore {
    hart_id: u32,
    /// Index of this core's cluster in the system (the `CSR_CLUSTER_ID`
    /// value). Physical identity: survives [`reset`](Self::reset).
    cluster_id: u32,
    pc: u32,
    regs: [u32; 32],
    ready_at: [u64; 32],
    stall_until: u64,
    /// Claimed ALU/mul write-back port slots, `(cycle, claims)` at slot
    /// `cycle & (len - 1)`. Every live claim lies in `now..=now + latency`
    /// and the ring is longer than the longest latency, so live claims
    /// never share a slot; a slot tagged with another cycle holds a past
    /// claim, which no later query can match.
    wb_claims: Box<[(u64, u32)]>,
    halted: bool,
    barrier: BarrierState,
}

impl IntCore {
    /// Creates core `hart_id` with `pc` at the text base, its write-back
    /// claim ring sized for `cfg`'s mul/div latencies.
    ///
    /// # Panics
    ///
    /// Panics if either latency exceeds [`MAX_INT_LATENCY`].
    #[must_use]
    pub fn new(hart_id: u32, cfg: &ClusterConfig) -> Self {
        let latency = cfg.mul_latency.max(cfg.div_latency);
        assert!(
            latency <= MAX_INT_LATENCY,
            "integer mul/div latency {latency} above the supported {MAX_INT_LATENCY} cycles"
        );
        IntCore {
            hart_id,
            cluster_id: 0,
            pc: layout::TEXT_BASE,
            regs: [0; 32],
            ready_at: [0; 32],
            stall_until: 0,
            wb_claims: vec![(u64::MAX, 0); (latency as usize + 1).next_power_of_two()].into(),
            halted: false,
            barrier: BarrierState::Idle,
        }
    }

    /// This core's hart id (the `mhartid` CSR value).
    #[must_use]
    pub fn hart_id(&self) -> u32 {
        self.hart_id
    }

    /// Sets the cluster id visible through `CSR_CLUSTER_ID` (assigned by the
    /// `System` when placing the cluster in the grid).
    pub fn set_cluster_id(&mut self, cluster_id: u32) {
        self.cluster_id = cluster_id;
    }

    /// Restores boot state (pc at the text base, zeroed registers and
    /// scoreboard, no stalls, not halted), reusing the write-back claim
    /// ring — the allocation-free equivalent of `IntCore::new(hart_id, cfg)`.
    pub fn reset(&mut self, hart_id: u32) {
        self.hart_id = hart_id;
        self.pc = layout::TEXT_BASE;
        self.regs = [0; 32];
        self.ready_at = [0; 32];
        self.stall_until = 0;
        self.wb_claims.fill((u64::MAX, 0));
        self.halted = false;
        self.barrier = BarrierState::Idle;
    }

    /// Whether the core is stalled at the cluster hardware barrier.
    #[must_use]
    pub fn barrier_waiting(&self) -> bool {
        self.barrier == BarrierState::Waiting
    }

    /// Releases the core from the barrier (called by the cluster once every
    /// hart has arrived or halted).
    pub fn release_barrier(&mut self) {
        debug_assert_eq!(self.barrier, BarrierState::Waiting);
        self.barrier = BarrierState::Released;
    }

    /// Parks the core in the halted state without executing anything — used
    /// for secondary harts booting a non-parallel (hart-0-only) program.
    pub fn force_halt(&mut self) {
        self.halted = true;
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether the core has executed `ecall`/`ebreak`.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The first cycle at which this core will attempt to issue again. While
    /// `stall_until > now` the core is in a *silent* stall (a taken branch's
    /// refill window, charged in full at branch time): `step` returns
    /// without touching any counter, which is what lets the cluster's block
    /// burst skip the hart as silent.
    #[must_use]
    pub fn stall_until(&self) -> u64 {
        self.stall_until
    }

    /// Reads an integer register (for the harness).
    #[must_use]
    pub fn reg(&self, r: IntReg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Delivers a completed FP→int write-back.
    pub fn apply_writeback(&mut self, rd: IntReg, value: u32, now: u64) {
        if !rd.is_zero() {
            self.regs[rd.index() as usize] = value;
            self.ready_at[rd.index() as usize] = now;
        }
    }

    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn wb_slot(&self, cycle: u64) -> usize {
        cycle as usize & (self.wb_claims.len() - 1)
    }

    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn can_claim_wb(&self, cycle: u64, ports: u32) -> bool {
        let (c, n) = self.wb_claims[self.wb_slot(cycle)];
        c != cycle || n < ports
    }

    /// Claims a write-back port slot at `cycle`, overwriting the past claim
    /// the slot may hold.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn claim_wb(&mut self, cycle: u64) {
        let slot = &mut self.wb_claims[self.wb_slot(cycle)];
        if slot.0 == cycle {
            slot.1 += 1;
        } else {
            *slot = (cycle, 1);
        }
    }

    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn write_reg(&mut self, rd: u8, value: u32, ready_at: u64) {
        if rd != 0 {
            self.regs[usize::from(rd)] = value;
            self.ready_at[usize::from(rd)] = ready_at;
        }
    }

    /// Scoreboard check in issue order (sources, then the destination; index
    /// 0 is x0, whose slot is always ready): books the first hazard's stall
    /// and returns whether the issue must wait.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn operand_hazard<const HOOKED: bool>(
        &self,
        now: u64,
        regs: impl IntoIterator<Item = u8>,
        charge: &mut Charge<'_, HOOKED>,
    ) -> bool {
        for r in regs {
            let ready = self.ready_at[usize::from(r)];
            if ready > now {
                let cause =
                    if ready == PENDING_FP { StallCause::FpPending } else { StallCause::IntRaw };
                charge.stall(now, self.pc, cause, 1);
                return true;
            }
        }
        false
    }

    /// One issue attempt through the generic issue path: decodes the
    /// [`Inst`] itself, so it handles every op. The block burst delegates
    /// CSR, SSR-config and DMA micro-ops and misaligned pcs to it, and the
    /// reference stepper issues every instruction through it. Returns `Err`
    /// on machine faults; sets [`halted`](Self::halted) on `ecall`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<const HOOKED: bool>(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        text: &[Decoded],
        l0: &mut L0Cache,
        mem: &mut Memory,
        arb: &mut TcdmArbiter,
        fpss: &mut Fpss,
        ssrs: &mut [Ssr; 3],
        dma: &mut Dma,
        charge: &mut Charge<'_, HOOKED>,
    ) -> Result<(), SimFault> {
        if self.halted {
            return Ok(());
        }
        if self.stall_until > now {
            return Ok(());
        }
        let idx = (self.pc.wrapping_sub(layout::TEXT_BASE) / 4) as usize;
        let Some(d) = text.get(idx) else {
            return Err(SimFault::new(format!("pc {:#010x} outside text section", self.pc)));
        };
        let d = *d;

        // ---- operand readiness ----
        let operands = d.int_srcs.iter().chain([&d.int_dst]).flatten();
        if self.operand_hazard(now, operands.map(|r| r.index()), charge) {
            return Ok(());
        }

        // ---- FP-domain offload (incl. FREP markers) ----
        if d.inst.is_fp() || d.inst.is_frep() {
            if !fpss.can_accept() {
                charge.stall(now, self.pc, StallCause::OffloadFull, 1);
                return Ok(());
            }
            let int_val = match d.inst {
                Inst::Flw { rs1, offset, .. }
                | Inst::Fld { rs1, offset, .. }
                | Inst::Fsw { rs1, offset, .. }
                | Inst::Fsd { rs1, offset, .. } => {
                    Some(self.regs[rs1.index() as usize].wrapping_add(offset as u32))
                }
                Inst::FpCvtI2F { rs1, .. } | Inst::FpMvX2F { rs1, .. } => {
                    Some(self.regs[rs1.index() as usize])
                }
                Inst::FrepO { rep, .. } | Inst::FrepI { rep, .. } => {
                    Some(self.regs[rep.index() as usize])
                }
                _ => None,
            };
            if d.inst.fp_writes_int_rf() {
                if let Some(rd) = d.int_dst {
                    self.ready_at[rd.index() as usize] = PENDING_FP;
                }
            }
            fpss.offload(OffloadEntry::at(d.inst, int_val, self.pc));
            let lane = if d.inst.is_fp() { Lane::FpCore } else { Lane::Int };
            self.fetched(now, lane, d.inst, l0, charge);
            self.pc = self.pc.wrapping_add(4);
            return Ok(());
        }

        // ---- integer-side execution ----
        match d.inst {
            Inst::Lui { rd, imm } => {
                if !self.issue_alu_like(now, cfg, l0, d.inst, rd.index(), imm as u32, 1, charge) {
                    return Ok(());
                }
            }
            Inst::Auipc { rd, imm } => {
                let v = self.pc.wrapping_add(imm as u32);
                if !self.issue_alu_like(now, cfg, l0, d.inst, rd.index(), v, 1, charge) {
                    return Ok(());
                }
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                let v = op.eval(self.regs[rs1.index() as usize], imm);
                if !self.issue_alu_like(now, cfg, l0, d.inst, rd.index(), v, 1, charge) {
                    return Ok(());
                }
            }
            Inst::OpReg { op, rd, rs1, rs2 } => {
                let lat = if op.is_div() {
                    cfg.div_latency
                } else if op.is_muldiv() {
                    cfg.mul_latency
                } else {
                    1
                };
                let v = op.eval(self.regs[rs1.index() as usize], self.regs[rs2.index() as usize]);
                if !self.issue_alu_like(now, cfg, l0, d.inst, rd.index(), v, lat, charge) {
                    return Ok(());
                }
            }
            Inst::Jal { rd, offset } => {
                let target = self.pc.wrapping_add(offset as u32);
                self.jump(now, cfg, l0, d.inst, rd.index(), target, charge);
                return Ok(());
            }
            Inst::Jalr { rd, rs1, offset } => {
                let target = self.regs[rs1.index() as usize].wrapping_add(offset as u32) & !1;
                self.jump(now, cfg, l0, d.inst, rd.index(), target, charge);
                return Ok(());
            }
            Inst::Branch { op, rs1, rs2, offset } => {
                let taken =
                    op.taken(self.regs[rs1.index() as usize], self.regs[rs2.index() as usize]);
                let target = self.pc.wrapping_add(offset as u32);
                self.branch(now, cfg, l0, d.inst, taken.then_some(target), charge);
                return Ok(());
            }
            Inst::Load { op, rd, rs1, offset } => {
                // Integer loads may not bypass queued FP stores (single-
                // thread memory ordering; see Fpss::has_pending_stores).
                if fpss.has_pending_stores() {
                    charge.stall(now, self.pc, StallCause::StoreOrder, 1);
                    return Ok(());
                }
                let addr = self.regs[rs1.index() as usize].wrapping_add(offset as u32);
                let Some(extra) = self.lsu_access(addr, cfg, arb, charge.stats) else {
                    charge.stall(now, self.pc, StallCause::TcdmConflict, 1);
                    return Ok(());
                };
                let v = load_value(op, mem.read(addr, op.size()).map_err(SimFault::from)?);
                self.write_reg(rd.index(), v, now + u64::from(cfg.load_latency + extra));
                self.fetched(now, Lane::Int, d.inst, l0, charge);
            }
            Inst::Store { op, rs2, rs1, offset } => {
                let addr = self.regs[rs1.index() as usize].wrapping_add(offset as u32);
                if self.lsu_access(addr, cfg, arb, charge.stats).is_none() {
                    charge.stall(now, self.pc, StallCause::TcdmConflict, 1);
                    return Ok(());
                }
                mem.write(addr, op.size(), u64::from(self.regs[rs2.index() as usize]))
                    .map_err(SimFault::from)?;
                self.fetched(now, Lane::Int, d.inst, l0, charge);
            }
            Inst::Fence => self.fetched(now, Lane::Int, d.inst, l0, charge),
            Inst::Ecall | Inst::Ebreak => {
                self.fetched(now, Lane::Int, d.inst, l0, charge);
                self.halted = true;
                return Ok(());
            }
            Inst::Csr { op, rd, csr, src } => {
                if !self.issue_csr(now, cfg, l0, d.inst, op, rd, csr, src, fpss, ssrs, charge) {
                    return Ok(());
                }
            }
            Inst::Scfgwi { value, addr } => {
                let Some((word, i)) = SsrCfgWord::from_addr(addr) else {
                    return Err(SimFault::new(format!("invalid ssr config address {addr:#x}")));
                };
                if ssrs[i].busy() {
                    charge.stall(now, self.pc, StallCause::SsrCfg, 1);
                    return Ok(());
                }
                ssrs[i].write_cfg(word, self.regs[value.index() as usize]);
                self.fetched(now, Lane::Int, d.inst, l0, charge);
            }
            Inst::Scfgri { rd, addr } => {
                let Some((word, i)) = SsrCfgWord::from_addr(addr) else {
                    return Err(SimFault::new(format!("invalid ssr config address {addr:#x}")));
                };
                let v = ssrs[i].read_cfg(word);
                if !self.issue_alu_like(now, cfg, l0, d.inst, rd.index(), v, 1, charge) {
                    return Ok(());
                }
            }
            Inst::Dma { op, rd, rs1, rs2, imm5: _ } => {
                let a = self.regs[rs1.index() as usize];
                let b = self.regs[rs2.index() as usize];
                match op {
                    DmaOp::Src => dma.set_src(a),
                    DmaOp::Dst => dma.set_dst(a),
                    DmaOp::Str => dma.set_strides(a, b),
                    DmaOp::Rep => dma.set_reps(a),
                    DmaOp::CpyI | DmaOp::StatI => {
                        let v = if op == DmaOp::CpyI { dma.start(a) } else { dma.outstanding() };
                        if self.issue_alu_like(now, cfg, l0, d.inst, rd.index(), v, 1, charge) {
                            self.pc = self.pc.wrapping_add(4);
                        }
                        return Ok(());
                    }
                }
                self.fetched(now, Lane::Int, d.inst, l0, charge);
            }
            other => {
                return Err(SimFault::new(format!("unhandled integer instruction `{other}`")));
            }
        }
        self.pc = self.pc.wrapping_add(4);
        Ok(())
    }

    /// Issues an ALU-like operation writing register `rd` with `latency` on
    /// the shared write-back port. Returns false (and books a stall) if the
    /// port is already claimed for the write-back cycle.
    #[allow(clippy::too_many_arguments, clippy::inline_always)]
    #[inline(always)]
    fn issue_alu_like<const HOOKED: bool>(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        l0: &mut L0Cache,
        inst: Inst,
        rd: u8,
        value: u32,
        latency: u32,
        charge: &mut Charge<'_, HOOKED>,
    ) -> bool {
        let Some(wb_cycle) = self.claim_result(now, cfg, rd, latency, charge) else {
            return false;
        };
        self.write_reg(rd, value, wb_cycle);
        self.fetched(now, Lane::Int, inst, l0, charge);
        true
    }

    /// `jal`/`jalr`: the link write on the shared port, then the redirect to
    /// `target` (computed by the caller from the pre-issue registers, since
    /// `rd` may alias `rs1`).
    #[allow(clippy::too_many_arguments, clippy::inline_always)]
    #[inline(always)]
    fn jump<const HOOKED: bool>(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        l0: &mut L0Cache,
        inst: Inst,
        rd: u8,
        target: u32,
        charge: &mut Charge<'_, HOOKED>,
    ) {
        let link = self.pc.wrapping_add(4);
        if self.issue_alu_like(now, cfg, l0, inst, rd, link, 1, charge) {
            self.redirect(now, cfg, target, charge);
        }
    }

    /// A conditional branch that has issued: redirects to `taken` or falls
    /// through.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn branch<const HOOKED: bool>(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        l0: &mut L0Cache,
        inst: Inst,
        taken: Option<u32>,
        charge: &mut Charge<'_, HOOKED>,
    ) {
        self.fetched(now, Lane::Int, inst, l0, charge);
        match taken {
            Some(target) => self.redirect(now, cfg, target, charge),
            None => self.pc = self.pc.wrapping_add(4),
        }
    }

    /// Taken-branch/jump tail: books the refill window against the branch's
    /// own pc (its first lost cycle is the next one), then moves the pc.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn redirect<const HOOKED: bool>(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        target: u32,
        charge: &mut Charge<'_, HOOKED>,
    ) {
        charge.stall(now + 1, self.pc, StallCause::Branch, cfg.branch_penalty);
        self.pc = target;
        self.stall_until = now + 1 + u64::from(cfg.branch_penalty);
    }

    /// Routes a core LSU access to `addr`: arbitrates a TCDM bank and counts
    /// the access against its memory level. Returns the latency beyond the
    /// TCDM load latency, or `None` when the bank grant was lost this cycle.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn lsu_access(
        &self,
        addr: u32,
        cfg: &ClusterConfig,
        arb: &mut TcdmArbiter,
        stats: &mut Stats,
    ) -> Option<u32> {
        if layout::is_tcdm(addr) {
            if !arb.request(TcdmPort::CoreLsu(self.hart_id as u8), addr) {
                return None;
            }
            stats.tcdm_core_accesses += 1;
            Some(0)
        } else if layout::is_main(addr) {
            stats.main_mem_accesses += 1;
            Some(cfg.main_mem_extra_latency)
        } else {
            // Shared L2 or a cluster alias window: interconnect path.
            stats.l2_accesses += 1;
            Some(cfg.l2_latency)
        }
    }

    /// Fetch-path accounting; called exactly once per issued instruction
    /// (`self.pc` still addresses it — the advance happens afterwards), so
    /// it is the core slot's single issue-booking site.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn fetched<const HOOKED: bool>(
        &mut self,
        now: u64,
        lane: Lane,
        inst: Inst,
        l0: &mut L0Cache,
        charge: &mut Charge<'_, HOOKED>,
    ) {
        if l0.fetch(self.pc.wrapping_sub(layout::TEXT_BASE) >> 2) {
            charge.stats.l0_hits += 1;
        } else {
            charge.stats.l0_misses += 1;
        }
        charge.issue(now, self.pc, lane, inst);
    }
}

/// Sign- or zero-extends a loaded value to the register width.
fn load_value(op: LoadOp, raw: u64) -> u32 {
    match op {
        LoadOp::Lb => (raw as i8) as i32 as u32,
        LoadOp::Lh => (raw as i16) as i32 as u32,
        _ => raw as u32,
    }
}

impl IntCore {
    #[allow(clippy::too_many_arguments)]
    fn issue_csr<const HOOKED: bool>(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        l0: &mut L0Cache,
        inst: Inst,
        op: CsrOp,
        rd: IntReg,
        csr: u16,
        src: u8,
        fpss: &mut Fpss,
        ssrs: &mut [Ssr; 3],
        charge: &mut Charge<'_, HOOKED>,
    ) -> bool {
        let old: u32 = match csr {
            CSR_SSR => u32::from(fpss.ssr_enabled()),
            CSR_FPU_FENCE => {
                let drained = fpss.drained(now) && ssrs.iter().all(|s| !s.busy());
                if !drained {
                    charge.stall(now, self.pc, StallCause::Fence, 1);
                    return false;
                }
                0
            }
            CSR_BARRIER => match self.barrier {
                BarrierState::Released => {
                    // Every hart has arrived; the read completes now.
                    self.barrier = BarrierState::Idle;
                    0
                }
                BarrierState::Idle | BarrierState::Waiting => {
                    // Arrive (idempotently) and stall until the cluster
                    // releases all waiting harts in one cycle.
                    if self.barrier == BarrierState::Idle {
                        charge.event(now, || EventKind::BarrierArrive);
                    }
                    self.barrier = BarrierState::Waiting;
                    charge.stall(now, self.pc, StallCause::Barrier, 1);
                    return false;
                }
            },
            CSR_MHARTID => self.hart_id,
            CSR_CLUSTER_ID => self.cluster_id,
            CSR_MCYCLE => now as u32,
            CSR_MINSTRET => charge.stats.instructions() as u32,
            _ => 0,
        };
        let wmask: Option<u32> = match op {
            CsrOp::Rw | CsrOp::Rwi => Some(self.src_value(op, src)),
            CsrOp::Rs | CsrOp::Rsi => {
                let v = self.src_value(op, src);
                if v == 0 {
                    None
                } else {
                    Some(old | v)
                }
            }
            CsrOp::Rc | CsrOp::Rci => {
                let v = self.src_value(op, src);
                if v == 0 {
                    None
                } else {
                    Some(old & !v)
                }
            }
        };
        if let Some(new) = wmask {
            if csr == CSR_SSR {
                fpss.set_ssr_enabled(new & 1 != 0);
            }
            // Other CSRs are read-only or scratch in this model.
        }
        self.issue_alu_like(now, cfg, l0, inst, rd.index(), old, 1, charge)
    }

    fn src_value(&self, op: CsrOp, src: u8) -> u32 {
        if op.is_imm() {
            u32::from(src)
        } else {
            self.regs[usize::from(src)]
        }
    }
}

/// The block-compiled issue path: the same hazard scan order, stall causes,
/// write-back port claims, pc updates and bookings as `step` — through the
/// same helpers — but driven by pre-lowered `BlockInst` micro-ops instead of
/// re-matching [`Inst`] every cycle. The differential suite in
/// `tests/block_compile.rs` pins the equivalence against the reference
/// stepper, which issues through `step` alone.
impl IntCore {
    /// One issue attempt on the fast path. Callers guarantee the core is
    /// not halted and not inside a `stall_until` window. Forced inline, with
    /// every helper it issues through, into the burst's per-hart cycle: left
    /// to the compiler, the chain stays a run of out-of-line calls per
    /// simulated cycle.
    #[allow(clippy::too_many_arguments, clippy::inline_always)]
    #[inline(always)]
    pub(crate) fn step_block<const HOOKED: bool>(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        text: &[Decoded],
        blocks: &[crate::block::BlockInst],
        l0: &mut L0Cache,
        mem: &mut Memory,
        arb: &mut TcdmArbiter,
        fpss: &mut Fpss,
        ssrs: &mut [Ssr; 3],
        dma: &mut Dma,
        charge: &mut Charge<'_, HOOKED>,
    ) -> Result<(), SimFault> {
        use crate::block::BlockOp;
        debug_assert!(!self.halted && self.stall_until <= now);
        // Pre-lowered pc-relative values assume a word-aligned pc; a
        // misaligned jump target takes the generic issue path.
        if self.pc & 3 != 0 {
            return self.step(now, cfg, text, l0, mem, arb, fpss, ssrs, dma, charge);
        }
        // A hart waiting at the barrier re-reads the barrier CSR every cycle
        // until the cluster releases it, and that read can only stall: its
        // operands were ready when it arrived, and a hart that issues
        // nothing can only see registers become ready.
        if self.barrier == BarrierState::Waiting {
            charge.stall(now, self.pc, StallCause::Barrier, 1);
            return Ok(());
        }
        let idx = (self.pc.wrapping_sub(layout::TEXT_BASE) / 4) as usize;
        let Some(b) = blocks.get(idx) else {
            return Err(SimFault::new(format!("pc {:#010x} outside text section", self.pc)));
        };
        let b = *b;
        match b.op {
            // The canonical FPU fence with FP work still queued (not idle
            // implies not drained) can only lose the slot to a Fence stall:
            // book it without the delegated call (`x0` carries no hazards).
            BlockOp::FenceWait if !fpss.idle_now() => {
                charge.stall(now, self.pc, StallCause::Fence, 1);
                return Ok(());
            }
            // CSR (barrier, fences, SSR enable), SSR-config and DMA micro-ops
            // keep their stateful semantics by delegating to the generic
            // issue path, which redoes its own housekeeping and hazard scan.
            BlockOp::Generic | BlockOp::FenceWait => {
                return self.step(now, cfg, text, l0, mem, arb, fpss, ssrs, dma, charge);
            }
            _ => {}
        }
        if self.operand_hazard(now, [b.srcs[0], b.srcs[1], b.dst], charge) {
            return Ok(());
        }
        let mut timing = Timed { now, cfg, l0, arb, charge };
        self.issue(b, text[idx].inst, mem, fpss, &mut timing)?;
        Ok(())
    }

    /// Claims the write-back port for a result into `rd` after `latency`
    /// cycles. Returns the write-back cycle, or `None` (and books a stall)
    /// if the port is already claimed for it.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn claim_result<const HOOKED: bool>(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        rd: u8,
        latency: u32,
        charge: &mut Charge<'_, HOOKED>,
    ) -> Option<u64> {
        let wb_cycle = now + u64::from(latency);
        if rd != 0 {
            if !self.can_claim_wb(wb_cycle, cfg.int_wb_ports) {
                charge.stall(now, self.pc, StallCause::WbPort, 1);
                return None;
            }
            self.claim_wb(wb_cycle);
        }
        Some(wb_cycle)
    }

    /// Issues the block op `b` (instruction `inst`) at the pc, whose
    /// operands are ready: its structural hazards and bookkeeping through
    /// `timing`, around its functional effect (result register, memory
    /// access or offload, pc). The timed burst issues through [`Timed`]
    /// and a memo replay through [`Replayed`]: one source, compiled once
    /// per timing. Returns whether the issue redirected the pc, or `None`
    /// when the slot was lost (or the replay refused the access).
    #[allow(clippy::inline_always)]
    #[inline(always)]
    pub(crate) fn issue(
        &mut self,
        b: crate::block::BlockInst,
        inst: Inst,
        mem: &mut Memory,
        fpss: &mut Fpss,
        timing: &mut impl IssueTiming,
    ) -> Result<Option<bool>, SimFault> {
        use crate::block::{BlockOp, OffloadVal};
        match b.op {
            BlockOp::Offload { val, meta, is_frep, writes_int_rf } => {
                if !timing.offload(self, fpss) {
                    return Ok(None);
                }
                let int_val = match val {
                    OffloadVal::None => None,
                    OffloadVal::Addr { rs1, offset } => {
                        Some(self.regs[rs1 as usize].wrapping_add(offset as u32))
                    }
                    OffloadVal::Reg { rs1 } => Some(self.regs[rs1 as usize]),
                };
                if writes_int_rf && b.dst != 0 {
                    self.ready_at[b.dst as usize] = PENDING_FP;
                }
                fpss.offload(OffloadEntry::with_meta(inst, int_val, meta, self.pc));
                let lane = if is_frep { Lane::Int } else { Lane::FpCore };
                timing.fetched(self, lane, inst);
            }
            BlockOp::Lui { value } | BlockOp::Auipc { value } => {
                if !self.issue_result(b.dst, value, 1, inst, timing) {
                    return Ok(None);
                }
            }
            BlockOp::AluImm { op, rs1, imm } => {
                let v = op.eval(self.regs[rs1 as usize], imm);
                if !self.issue_result(b.dst, v, 1, inst, timing) {
                    return Ok(None);
                }
            }
            BlockOp::AluReg { op, rs1, rs2, latency } => {
                let v = op.eval(self.regs[rs1 as usize], self.regs[rs2 as usize]);
                if !self.issue_result(b.dst, v, latency, inst, timing) {
                    return Ok(None);
                }
            }
            BlockOp::Jal { target } => {
                let link = self.pc.wrapping_add(4);
                if !self.issue_result(b.dst, link, 1, inst, timing) {
                    return Ok(None);
                }
                timing.redirect(self, target);
                return Ok(Some(true));
            }
            BlockOp::Jalr { rs1, offset } => {
                // The target comes from the pre-issue registers: `rd` may
                // alias `rs1`.
                let target = self.regs[rs1 as usize].wrapping_add(offset as u32) & !1;
                let link = self.pc.wrapping_add(4);
                if !self.issue_result(b.dst, link, 1, inst, timing) {
                    return Ok(None);
                }
                timing.redirect(self, target);
                return Ok(Some(true));
            }
            BlockOp::Branch { op, rs1, rs2, taken_pc } => {
                let taken = op.taken(self.regs[rs1 as usize], self.regs[rs2 as usize]);
                timing.fetched(self, Lane::Int, inst);
                if taken {
                    timing.redirect(self, taken_pc);
                } else {
                    self.pc = self.pc.wrapping_add(4);
                }
                return Ok(Some(taken));
            }
            BlockOp::Load { op, rs1, offset } => {
                let addr = self.regs[rs1 as usize].wrapping_add(offset as u32);
                let Some(ready) = timing.load(self, fpss, mem, addr, op.size()) else {
                    return Ok(None);
                };
                let v = load_value(op, mem.read(addr, op.size()).map_err(SimFault::from)?);
                self.write_reg(b.dst, v, ready);
                timing.fetched(self, Lane::Int, inst);
            }
            BlockOp::Store { op, rs1, rs2, offset } => {
                let addr = self.regs[rs1 as usize].wrapping_add(offset as u32);
                if !timing.store(self, mem, addr, op.size()) {
                    return Ok(None);
                }
                mem.write(addr, op.size(), u64::from(self.regs[rs2 as usize]))
                    .map_err(SimFault::from)?;
                timing.fetched(self, Lane::Int, inst);
            }
            BlockOp::Fence => timing.fetched(self, Lane::Int, inst),
            BlockOp::Ecall => {
                timing.fetched(self, Lane::Int, inst);
                self.halted = true;
                return Ok(Some(false));
            }
            BlockOp::Generic | BlockOp::FenceWait => {
                unreachable!("dispatched to the generic issue path")
            }
        }
        self.pc = self.pc.wrapping_add(4);
        Ok(Some(false))
    }

    /// An ALU-like issue writing `value` into `rd` after `latency` cycles:
    /// claims the write-back port through `timing`, then writes the
    /// register and books the fetch. Returns false if the slot was lost.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn issue_result(
        &mut self,
        rd: u8,
        value: u32,
        latency: u32,
        inst: Inst,
        timing: &mut impl IssueTiming,
    ) -> bool {
        let Some(ready) = timing.claim(self, rd, latency) else {
            return false;
        };
        self.write_reg(rd, value, ready);
        timing.fetched(self, Lane::Int, inst);
        true
    }
}

/// The timing of a block-op issue, which [`IntCore::issue`] calls around
/// the op's functional effect: the structural hazards that lose the issue
/// slot, and the port, fetch and redirect bookkeeping of an issue that
/// goes ahead.
pub(crate) trait IssueTiming {
    /// An offload: whether the FPSS accepts it.
    fn offload(&mut self, core: &IntCore, fpss: &Fpss) -> bool;
    /// A result into `rd` after `latency` cycles: claims its write-back
    /// port. Returns the register's ready time.
    fn claim(&mut self, core: &mut IntCore, rd: u8, latency: u32) -> Option<u64>;
    /// A load of `len` bytes at `addr`: queued FP stores, then the bank.
    /// Returns the register's ready time.
    fn load(
        &mut self,
        core: &IntCore,
        fpss: &Fpss,
        mem: &Memory,
        addr: u32,
        len: u32,
    ) -> Option<u64>;
    /// A store of `len` bytes at `addr`: the bank.
    fn store(&mut self, core: &IntCore, mem: &Memory, addr: u32, len: u32) -> bool;
    /// The instruction at the pc issued from `lane`.
    fn fetched(&mut self, core: &mut IntCore, lane: Lane, inst: Inst);
    /// A taken branch or a jump to `target`.
    fn redirect(&mut self, core: &mut IntCore, target: u32);
}

/// The timed issue at cycle `now`: each lost slot books its stall, each
/// issue its fetch, claims and refill window.
pub(crate) struct Timed<'a, 'c, const HOOKED: bool> {
    now: u64,
    cfg: &'a ClusterConfig,
    l0: &'a mut L0Cache,
    arb: &'a mut TcdmArbiter,
    charge: &'a mut Charge<'c, HOOKED>,
}

impl<const HOOKED: bool> IssueTiming for Timed<'_, '_, HOOKED> {
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn offload(&mut self, core: &IntCore, fpss: &Fpss) -> bool {
        if fpss.can_accept() {
            return true;
        }
        self.charge.stall(self.now, core.pc, StallCause::OffloadFull, 1);
        false
    }

    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn claim(&mut self, core: &mut IntCore, rd: u8, latency: u32) -> Option<u64> {
        core.claim_result(self.now, self.cfg, rd, latency, self.charge)
    }

    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn load(
        &mut self,
        core: &IntCore,
        fpss: &Fpss,
        _mem: &Memory,
        addr: u32,
        _len: u32,
    ) -> Option<u64> {
        if fpss.has_pending_stores() {
            self.charge.stall(self.now, core.pc, StallCause::StoreOrder, 1);
            return None;
        }
        let Some(extra) = core.lsu_access(addr, self.cfg, self.arb, self.charge.stats) else {
            self.charge.stall(self.now, core.pc, StallCause::TcdmConflict, 1);
            return None;
        };
        Some(self.now + u64::from(self.cfg.load_latency + extra))
    }

    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn store(&mut self, core: &IntCore, _mem: &Memory, addr: u32, _len: u32) -> bool {
        if core.lsu_access(addr, self.cfg, self.arb, self.charge.stats).is_none() {
            self.charge.stall(self.now, core.pc, StallCause::TcdmConflict, 1);
            return false;
        }
        true
    }

    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn fetched(&mut self, core: &mut IntCore, lane: Lane, inst: Inst) {
        core.fetched(self.now, lane, inst, self.l0, self.charge);
    }

    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn redirect(&mut self, core: &mut IntCore, target: u32) {
        core.redirect(self.now, self.cfg, target, self.charge);
    }
}

/// A memo replay's issue (see `memo.rs`): the recorded window already
/// passed every hazard and the memo restores its scoreboard, claims and
/// fetches afterwards, so only the pc moves. `access` sees each load's or
/// store's bytes, as `(mem, addr, len, is_store)`, and may refuse them.
pub(crate) struct Replayed<F>(pub(crate) F);

impl<F: FnMut(&Memory, u32, u32, bool) -> bool> IssueTiming for Replayed<F> {
    fn offload(&mut self, _core: &IntCore, fpss: &Fpss) -> bool {
        fpss.can_accept()
    }

    fn claim(&mut self, _core: &mut IntCore, _rd: u8, _latency: u32) -> Option<u64> {
        Some(0)
    }

    fn load(
        &mut self,
        _core: &IntCore,
        _fpss: &Fpss,
        mem: &Memory,
        addr: u32,
        len: u32,
    ) -> Option<u64> {
        (self.0)(mem, addr, len, false).then_some(0)
    }

    fn store(&mut self, _core: &IntCore, mem: &Memory, addr: u32, len: u32) -> bool {
        (self.0)(mem, addr, len, true)
    }

    fn fetched(&mut self, _core: &mut IntCore, _lane: Lane, _inst: Inst) {}

    fn redirect(&mut self, core: &mut IntCore, target: u32) {
        core.pc = target;
    }
}

/// The scoreboard and port state of an [`IntCore`] normalized to a cycle:
/// what a memo replay does not recompute and restores instead (see
/// `memo.rs`).
#[derive(Clone, Debug)]
pub(crate) struct IntTimers {
    /// `stall_until` past the reference cycle (0 when not stalled).
    stall: u32,
    /// The registers not ready at the reference cycle, with `ready_at`
    /// past it (`u32::MAX` when pending an FP→int write-back).
    ready: Box<[(u8, u32)]>,
    /// Live write-back port claims, `(cycles ahead, claims)`.
    claims: Box<[(u32, u32)]>,
}

impl IntTimers {
    /// Host bytes held beyond the struct.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.ready.len() * 8 + self.claims.len() * 8
    }
}

/// The memo's view of the integer core (see `memo.rs`).
impl IntCore {
    /// Whether the core can start a memo window: running, not at a
    /// barrier, and at a word-aligned pc.
    pub(crate) fn memo_ready(&self) -> bool {
        !self.halted && self.barrier == BarrierState::Idle && self.pc.trailing_zeros() >= 2
    }

    /// The text word index of the pc.
    pub(crate) fn pc_word(&self) -> usize {
        (self.pc.wrapping_sub(layout::TEXT_BASE) / 4) as usize
    }

    /// Appends the timing state to a memo key, normalized to `now`: the pc,
    /// the refill window, the scoreboard (pending FP→int write-backs kept
    /// distinct) and the live write-back port claims.
    pub(crate) fn encode_key(&self, now: u64, key: &mut crate::memo::KeyBuf) {
        key.put_pc(self.pc);
        key.put(self.stall_until.saturating_sub(now));
        key.put_offsets(&self.ready_at, now);
        for (off, n) in self.live_claims(now) {
            key.put(u64::from(off));
            key.put(u64::from(n));
        }
        key.put(u64::MAX);
    }

    /// The write-back claims at or after `now`, in cycle order.
    fn live_claims(&self, now: u64) -> impl Iterator<Item = (u32, u32)> + '_ {
        let len = self.wb_claims.len() as u64;
        (0..len).filter_map(move |k| {
            let (cycle, n) = self.wb_claims[self.wb_slot(now + k)];
            (cycle == now + k).then_some((k as u32, n))
        })
    }

    /// The scoreboard and port state normalized to `now`.
    pub(crate) fn timers(&self, now: u64) -> IntTimers {
        IntTimers {
            stall: self.stall_until.saturating_sub(now) as u32,
            ready: (0..32u8)
                .filter(|&r| self.ready_at[usize::from(r)] > now)
                .map(|r| match self.ready_at[usize::from(r)] {
                    PENDING_FP => (r, u32::MAX),
                    t => (r, (t - now) as u32),
                })
                .collect(),
            claims: self.live_claims(now).collect(),
        }
    }

    /// Restores [`timers`](Self::timers) taken on the same timing state,
    /// normalized to `now`. A slot outside the restored claims only holds
    /// a claim of a cycle before `now`, which no later query matches.
    pub(crate) fn set_timers(&mut self, t: &IntTimers, now: u64) {
        self.stall_until = now + u64::from(t.stall);
        for slot in self.wb_claims.iter_mut().filter(|s| s.0 >= now) {
            *slot = (u64::MAX, 0);
        }
        self.ready_at = [now; 32];
        for &(r, off) in &t.ready {
            self.ready_at[usize::from(r)] =
                if off == u32::MAX { PENDING_FP } else { now + u64::from(off) };
        }
        for &(off, n) in &t.claims {
            let cycle = now + u64::from(off);
            let slot = self.wb_slot(cycle);
            self.wb_claims[slot] = (cycle, n);
        }
    }

    /// Copies every field a memo replay can change from `other`.
    pub(crate) fn restore_from(&mut self, other: &IntCore) {
        self.pc = other.pc;
        self.regs = other.regs;
        self.ready_at = other.ready_at;
    }

    /// Whether the memo can replay the instruction at the pc: no indirect
    /// jump, halt, CSR, SSR-config or DMA operation.
    pub(crate) fn replayable(&self, blocks: &[crate::block::BlockInst]) -> bool {
        use crate::block::BlockOp;
        !matches!(
            blocks.get(self.pc_word()).map(|b| b.op),
            None | Some(
                BlockOp::Jalr { .. } | BlockOp::Ecall | BlockOp::FenceWait | BlockOp::Generic
            )
        ) && self.pc.trailing_zeros() >= 2
    }

    /// The address the core LSU requests for the load or store at the pc.
    pub(crate) fn lsu_addr(&self, blocks: &[crate::block::BlockInst]) -> Option<u32> {
        use crate::block::BlockOp;
        match blocks.get(self.pc_word())?.op {
            BlockOp::Load { rs1, offset, .. } | BlockOp::Store { rs1, offset, .. } => {
                Some(self.regs[usize::from(rs1)].wrapping_add(offset as u32))
            }
            _ => None,
        }
    }

    /// Replays the recorded issue of the instruction at the pc through
    /// [`issue`](Self::issue) with the [`Replayed`] timing. Returns
    /// whether the issue redirected the pc, or `None` when it cannot be
    /// replayed (the memo then falls back to timed execution).
    #[allow(clippy::inline_always)]
    #[inline(always)]
    pub(crate) fn replay_issue(
        &mut self,
        text: &[Decoded],
        blocks: &[crate::block::BlockInst],
        mem: &mut Memory,
        fpss: &mut Fpss,
        access: impl FnMut(&Memory, u32, u32, bool) -> bool,
    ) -> Option<bool> {
        use crate::block::BlockOp;
        let idx = self.pc_word();
        let b = *blocks.get(idx)?;
        if matches!(
            b.op,
            BlockOp::Jalr { .. } | BlockOp::Ecall | BlockOp::FenceWait | BlockOp::Generic
        ) {
            return None;
        }
        self.issue(b, text[idx].inst, mem, fpss, &mut Replayed(access)).ok().flatten()
    }

    /// Delivers the FP→int write-backs due at `now`, as the burst does at
    /// the start of the hart's cycle.
    pub(crate) fn replay_writebacks(&mut self, fpss: &mut Fpss, now: u64) {
        fpss.drain_int_writebacks(now, |wb| self.apply_writeback(wb.rd, wb.value, now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_riscv::ops::{AluImmOp, AluOp};

    #[test]
    fn decoded_extracts_int_metadata() {
        let d = Decoded::new(Inst::OpReg {
            op: AluOp::Add,
            rd: IntReg::A0,
            rs1: IntReg::A1,
            rs2: IntReg::A2,
        });
        assert_eq!(d.int_srcs, [Some(IntReg::A1), Some(IntReg::A2)]);
        assert_eq!(d.int_dst, Some(IntReg::A0));

        // Duplicate sources collapse; x0 is ignored.
        let d = Decoded::new(Inst::OpReg {
            op: AluOp::Add,
            rd: IntReg::ZERO,
            rs1: IntReg::A1,
            rs2: IntReg::A1,
        });
        assert_eq!(d.int_srcs, [Some(IntReg::A1), None]);
        assert_eq!(d.int_dst, None);
    }

    #[test]
    fn decoded_flags_fp_to_int_destinations() {
        let d = Decoded::new(Inst::FpCmp {
            op: snitch_riscv::ops::FpCmpOp::Lt,
            fmt: snitch_riscv::ops::FpFmt::D,
            rd: IntReg::A0,
            rs1: snitch_riscv::reg::FpReg::FA0,
            rs2: snitch_riscv::reg::FpReg::FA1,
        });
        assert_eq!(d.int_dst, Some(IntReg::A0));
    }

    #[test]
    fn wb_port_claims() {
        let mut c = IntCore::new(0, &ClusterConfig::default());
        assert!(c.can_claim_wb(5, 1));
        c.claim_wb(5);
        assert!(!c.can_claim_wb(5, 1));
        assert!(c.can_claim_wb(5, 2));
        assert!(c.can_claim_wb(6, 1));
        c.reset(0);
        assert!(c.can_claim_wb(5, 1), "reset drops every claim");
    }

    /// The claim ring must answer every port query exactly like the plain
    /// list of `(cycle, claims)` it replaced (find, prune the past, push),
    /// for one and two ports and for latencies well past any fixed ring
    /// size, across clock jumps, and again after a reset.
    #[test]
    fn wb_claim_ring_matches_list_model() {
        #[derive(Default)]
        struct List(Vec<(u64, u32)>);
        impl List {
            fn can_claim(&self, cycle: u64, ports: u32) -> bool {
                self.0.iter().find(|&&(c, _)| c == cycle).is_none_or(|&(_, n)| n < ports)
            }
            fn claim(&mut self, cycle: u64, now: u64) {
                if let Some(e) = self.0.iter_mut().find(|e| e.0 == cycle) {
                    e.1 += 1;
                } else {
                    self.0.retain(|&(c, _)| c >= now);
                    self.0.push((cycle, 1));
                }
            }
        }

        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (mul_latency, div_latency) in [(2, 12), (3, 100), (1, 2), (0, 5), (7, 300)] {
            for ports in [1, 2] {
                let cfg = ClusterConfig { mul_latency, div_latency, ..ClusterConfig::default() };
                let mut ring = IntCore::new(0, &cfg);
                for round in 0..2 {
                    let mut list = List::default();
                    let (mut now, mut denied) = (0u64, 0);
                    for step in 0..20_000 {
                        let latency = match next() % 8 {
                            0..=3 => 1,
                            4 | 5 => mul_latency,
                            _ => div_latency,
                        };
                        let cycle = now + u64::from(latency);
                        let free = list.can_claim(cycle, ports);
                        assert_eq!(
                            ring.can_claim_wb(cycle, ports),
                            free,
                            "mul {mul_latency} div {div_latency} ports {ports} round {round} \
                             step {step}"
                        );
                        if free {
                            list.claim(cycle, now);
                            ring.claim_wb(cycle);
                        } else {
                            denied += 1;
                        }
                        // Mostly one issue attempt per cycle; sometimes a
                        // jump, as across a branch refill or a silent skip.
                        now += if next() % 16 == 0 { next() % 400 } else { 1 };
                    }
                    assert!(denied > 0, "the stream must exercise port conflicts");
                    ring.reset(0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "above the supported")]
    fn absurd_latencies_are_refused() {
        let cfg = ClusterConfig { div_latency: MAX_INT_LATENCY + 1, ..ClusterConfig::default() };
        let _ = IntCore::new(0, &cfg);
    }

    #[test]
    fn decoded_addi_sources() {
        let d = Decoded::new(Inst::OpImm {
            op: AluImmOp::Addi,
            rd: IntReg::A0,
            rs1: IntReg::ZERO,
            imm: 5,
        });
        assert_eq!(d.int_srcs, [None, None]);
    }
}
