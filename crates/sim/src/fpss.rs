//! The FP subsystem (FPSS): offload FIFO, FREP sequencer, FPU timing and the
//! SSR register interface.
//!
//! FP instructions are issued by the integer core and pushed into an offload
//! FIFO (each push consumes one integer issue slot — this is why baseline
//! RV32G code can never exceed IPC 1). The sequencer pops the FIFO in order;
//! an `frep.o` marker makes it capture the next `max_inst` FP instructions
//! into a ring buffer while issuing them once (iteration 0), then replay the
//! ring `rep` more times *without* involving the integer core — Snitch's
//! *pseudo dual-issue*. Only one hardware loop is active at a time; later
//! offloads queue in the FIFO, whose backpressure bounds how far the integer
//! thread can run ahead (this is what makes COPIFT's double/triple buffering
//! sufficient).

use snitch_riscv::inst::Inst;
use snitch_riscv::meta::InstClass;
use snitch_riscv::ops::{f64_to_i32, f64_to_u32, FpAluOp, FpCmpOp, FpFmt, IntCvt, SgnjOp};
use snitch_riscv::reg::{FpReg, IntReg};
use snitch_trace::{EventKind, Lane, StallCause};

use crate::charge::Charge;
use crate::config::ClusterConfig;
use crate::error::SimFault;
use crate::mem::{Memory, TcdmArbiter};
use crate::ssr::Ssr;
use snitch_asm::layout;

/// Register-index sentinel in [`FpMeta`]: no register in this slot.
const NO_REG: u8 = 0xFF;

/// Pre-lowered issue metadata of one FP instruction: operand register
/// indices and the resource class, extracted from the [`Inst`] once when the
/// [`OffloadEntry`] is built so the per-cycle issue path (which runs again
/// on every stall retry and every sequencer replay) never re-matches the
/// instruction encoding. The block cache precomputes it per pc so the burst
/// offload path skips even that one-time extraction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FpMeta {
    /// FP source register indices in operand order ([`NO_REG`] = empty slot).
    srcs: [u8; 3],
    /// FP destination register index ([`NO_REG`] = none).
    dst: u8,
    /// Execution-resource class (drives latency and the op counters).
    class: InstClass,
}

impl FpMeta {
    pub(crate) fn of(inst: &Inst) -> Self {
        let s = fp_sources(inst);
        FpMeta {
            srcs: [
                s[0].map_or(NO_REG, FpReg::index),
                s[1].map_or(NO_REG, FpReg::index),
                s[2].map_or(NO_REG, FpReg::index),
            ],
            dst: fp_dest(inst).map_or(NO_REG, FpReg::index),
            class: inst.class(),
        }
    }
}

/// An instruction offloaded by the integer core, with any integer operand
/// captured at issue time (register value, computed address, or FREP
/// repetition count).
#[derive(Clone, Copy, Debug)]
pub struct OffloadEntry {
    /// The offloaded instruction (an FP instruction or an FREP marker).
    pub inst: Inst,
    /// Captured integer operand, if the instruction consumes one.
    pub int_val: Option<u32>,
    /// Pre-lowered issue metadata (kept consistent with `inst` by
    /// construction; staggered replays remap both together).
    meta: FpMeta,
    /// The pc the core issued this instruction from — the profiler's charge
    /// point for FPU-side stalls and sequencer replays (staggering remaps
    /// registers, never the pc).
    pc: u32,
}

impl OffloadEntry {
    /// Builds an offload entry, pre-lowering the issue metadata. Harness
    /// constructor: charges attribute to pc 0 (outside any program text).
    #[must_use]
    pub fn new(inst: Inst, int_val: Option<u32>) -> Self {
        OffloadEntry { inst, int_val, meta: FpMeta::of(&inst), pc: 0 }
    }

    /// [`new`](Self::new) with the issue pc attached (the core's path).
    pub(crate) fn at(inst: Inst, int_val: Option<u32>, pc: u32) -> Self {
        OffloadEntry { inst, int_val, meta: FpMeta::of(&inst), pc }
    }

    /// Builds an offload entry from metadata already extracted for this
    /// exact instruction (the block cache's per-pc copy).
    pub(crate) fn with_meta(inst: Inst, int_val: Option<u32>, meta: FpMeta, pc: u32) -> Self {
        OffloadEntry { inst, int_val, meta, pc }
    }
}

/// The offload FIFO: a fixed ring of `depth` slots, allocated once. Pushes
/// and pops move a head index and a length; nothing grows or shifts.
#[derive(Clone, Debug)]
struct FifoRing<T> {
    slots: Box<[T]>,
    /// Index of the oldest entry.
    head: usize,
    len: usize,
}

impl<T: Copy> FifoRing<T> {
    /// An empty ring of `depth` slots, each initialised to `fill` (never
    /// read: a slot is written before it is read).
    fn new(depth: usize, fill: T) -> Self {
        FifoRing { slots: vec![fill; depth].into_boxed_slice(), head: 0, len: 0 }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// The oldest entry.
    fn front(&self) -> Option<T> {
        (self.len > 0).then(|| self.slots[self.head])
    }

    /// Appends `value`. Callers check [`is_full`](Self::is_full) first.
    fn push_back(&mut self, value: T) {
        debug_assert!(!self.is_full(), "push into a full ring");
        let mut tail = self.head + self.len;
        if tail >= self.slots.len() {
            tail -= self.slots.len();
        }
        self.slots[tail] = value;
        self.len += 1;
    }

    /// Drops the oldest entry. Callers check it exists.
    fn pop_front(&mut self) {
        debug_assert!(!self.is_empty(), "pop from an empty ring");
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
        self.len -= 1;
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SeqState {
    Idle,
    Capture { remaining: u8, rep: u32, stagger_max: u8, stagger_mask: u8, inst_major: bool },
    Replay(Replay),
}

/// The sequencer's position in a replay: the ring slot and iteration of the
/// next instruction to issue. `inst_major` = `frep.i`: each instruction
/// repeats back-to-back before the next; otherwise (`frep.o`) the whole
/// sequence repeats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Replay {
    iter: u32,
    total: u32,
    pos: usize,
    stagger_max: u8,
    stagger_mask: u8,
    inst_major: bool,
    /// The register stagger of this iteration, `iter % (stagger_max + 1)`,
    /// carried along so no division runs per replay.
    offset: u8,
}

impl Replay {
    /// The first replayed issue after the capture pass (iteration 0) of a
    /// `total`-iteration loop.
    fn first(total: u32, stagger_max: u8, stagger_mask: u8, inst_major: bool) -> Self {
        Replay {
            iter: 1,
            total,
            pos: 0,
            stagger_max,
            stagger_mask,
            inst_major,
            offset: u8::from(stagger_max > 0),
        }
    }

    /// The position after this one has issued, over a body of `len`
    /// instructions; `None` once the loop is done. Sequence-major (`frep.o`)
    /// wraps positions per iteration; instruction-major (`frep.i`) exhausts
    /// each instruction's repetitions before moving on. The capture pass
    /// already issued each instruction once, so `frep.i` replays instruction
    /// `pos` from iteration 1 onwards.
    fn next(self, len: usize) -> Option<Self> {
        if self.inst_major {
            if self.iter + 1 < self.total {
                Some(self.next_iter(self.pos))
            } else if self.pos + 1 < len {
                let first = Self::first(self.total, self.stagger_max, self.stagger_mask, true);
                Some(Replay { pos: self.pos + 1, ..first })
            } else {
                None
            }
        } else if self.pos + 1 < len {
            Some(Replay { pos: self.pos + 1, ..self })
        } else if self.iter + 1 < self.total {
            Some(self.next_iter(0))
        } else {
            None
        }
    }

    /// Iteration `iter + 1` at ring slot `pos`: the stagger offset steps by
    /// one and wraps after `stagger_max`.
    fn next_iter(self, pos: usize) -> Self {
        let offset = if self.offset == self.stagger_max { 0 } else { self.offset + 1 };
        Replay { iter: self.iter + 1, pos, offset, ..self }
    }
}

/// A completed FP→integer write-back to deliver to the core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntWriteback {
    /// Destination integer register.
    pub rd: IntReg,
    /// Value to write.
    pub value: u32,
}

/// The FP subsystem.
#[derive(Clone, Debug)]
pub struct Fpss {
    fifo: FifoRing<OffloadEntry>,
    ring: Vec<OffloadEntry>,
    ring_capacity: usize,
    seq: SeqState,
    regs: [u64; 32],
    ready_at: [u64; 32],
    ssr_enabled: bool,
    pending_stores: usize,
    divsqrt_busy_until: u64,
    busy_until: u64,
    int_wb: Vec<(u64, IntWriteback)>,
    /// FPU results bound for an SSR write stream, `(due cycle, ssr, bits)`
    /// in issue order.
    ssr_pushes: Vec<(u64, usize, u64)>,
}

impl Fpss {
    /// Creates an idle FP subsystem.
    #[must_use]
    pub fn new(cfg: &ClusterConfig) -> Self {
        Fpss {
            fifo: FifoRing::new(cfg.offload_fifo_depth, OffloadEntry::new(Inst::Fence, None)),
            ring: Vec::with_capacity(cfg.sequencer_depth),
            ring_capacity: cfg.sequencer_depth,
            seq: SeqState::Idle,
            regs: [0; 32],
            ready_at: [0; 32],
            ssr_enabled: false,
            pending_stores: 0,
            divsqrt_busy_until: 0,
            busy_until: 0,
            int_wb: Vec::new(),
            ssr_pushes: Vec::new(),
        }
    }

    /// Restores the just-constructed state (empty queues, zeroed register
    /// file, SSR semantics off), reusing every buffer — the allocation-free
    /// equivalent of `Fpss::new(cfg)` for the same configuration.
    pub fn reset(&mut self) {
        self.fifo.clear();
        self.ring.clear();
        self.seq = SeqState::Idle;
        self.regs = [0; 32];
        self.ready_at = [0; 32];
        self.ssr_enabled = false;
        self.pending_stores = 0;
        self.divsqrt_busy_until = 0;
        self.busy_until = 0;
        self.int_wb.clear();
        self.ssr_pushes.clear();
    }

    /// Whether the offload FIFO can accept another instruction.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        !self.fifo.is_full()
    }

    /// Pushes an offloaded instruction (the core's issue slot for it).
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full; callers check [`can_accept`](Self::can_accept).
    pub fn offload(&mut self, entry: OffloadEntry) {
        assert!(self.can_accept(), "offload into full FIFO");
        if entry.meta.class == InstClass::FpStore {
            self.pending_stores += 1;
        }
        self.fifo.push_back(entry);
    }

    /// Whether FP stores are still queued (not yet performed). Integer loads
    /// must wait for them to preserve the single-thread memory ordering the
    /// baseline RV32G kernels rely on (e.g. `fsd ki; lw ki` in the paper's
    /// Fig. 1b).
    #[must_use]
    pub fn has_pending_stores(&self) -> bool {
        self.pending_stores > 0
    }

    /// Sets the SSR register-semantics enable (CSR 0x7C0 bit 0).
    pub fn set_ssr_enabled(&mut self, enabled: bool) {
        self.ssr_enabled = enabled;
    }

    /// Whether SSR semantics are currently enabled.
    #[must_use]
    pub fn ssr_enabled(&self) -> bool {
        self.ssr_enabled
    }

    /// Reads an FP register (for the harness / debugging).
    #[must_use]
    pub fn reg(&self, r: FpReg) -> u64 {
        self.regs[r.index() as usize]
    }

    /// Whether everything issued has completed and nothing is pending
    /// (the FPU-fence condition, not counting SSR streamer drain).
    #[must_use]
    pub fn drained(&self, now: u64) -> bool {
        self.fifo.is_empty()
            && self.seq == SeqState::Idle
            && self.int_wb.is_empty()
            && self.ssr_pushes.is_empty()
            && self.busy_until <= now
    }

    /// Delivers FP→integer write-backs due at `now` to `apply`, in issue
    /// order (called by the cluster before the core issues, so results are
    /// visible the cycle they retire). Allocation-free: the pending list is
    /// drained in place — this runs for every hart every cycle.
    pub fn drain_int_writebacks(&mut self, now: u64, mut apply: impl FnMut(IntWriteback)) {
        if self.int_wb.is_empty() {
            return;
        }
        self.int_wb.retain(|&(cycle, wb)| {
            if cycle <= now {
                apply(wb);
                false
            } else {
                true
            }
        });
    }

    /// Whether the subsystem has nothing queued and nothing in flight to
    /// deliver — a cycle of `step` would be a pure no-op.
    /// Unlike [`drained`](Self::drained), in-flight latency (`busy_until`)
    /// does not matter here: it produces no action by itself.
    #[must_use]
    pub fn idle_now(&self) -> bool {
        self.fifo.is_empty()
            && self.seq == SeqState::Idle
            && self.int_wb.is_empty()
            && self.ssr_pushes.is_empty()
    }

    /// One cycle of FPSS work: deliver due SSR pushes, then let the
    /// sequencer/FPU issue at most one operation.
    ///
    /// # Errors
    ///
    /// Returns a [`SimFault`] on malformed programs (FREP body overflow or
    /// non-FP instructions inside a capture) and on memory faults.
    pub(crate) fn step<const HOOKED: bool>(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        mem: &mut Memory,
        arb: &mut TcdmArbiter,
        ssrs: &mut [Ssr; 3],
        charge: &mut Charge<'_, HOOKED>,
    ) -> Result<(), SimFault> {
        self.deliver_ssr_pushes(now, ssrs);
        // At most one FREP marker per cycle, then one issue attempt; each
        // state issues its `candidate` and moves on as `advance` does.
        match self.seq {
            SeqState::Idle => {
                let Some(front) = self.fifo.front() else {
                    return Ok(());
                };
                if front.inst.is_frep() {
                    self.begin_frep(&front)?;
                    return self.step_capture(now, cfg, mem, arb, ssrs, charge);
                }
                if self.try_issue(&front, Lane::FpCore, now, cfg, mem, arb, ssrs, charge)? {
                    self.fifo.pop_front();
                    charge.fpu_issue();
                }
                Ok(())
            }
            SeqState::Capture { .. } => self.step_capture(now, cfg, mem, arb, ssrs, charge),
            SeqState::Replay(replay) => {
                charge.stats.seq_active_cycles += 1;
                let staggered = self.replayed(replay);
                if self.try_issue(&staggered, Lane::FpSeq, now, cfg, mem, arb, ssrs, charge)? {
                    charge.issue(now, staggered.pc, Lane::FpSeq, staggered.inst);
                    charge.fpu_issue();
                    self.replay_next(replay);
                }
                Ok(())
            }
        }
    }

    /// A cycle of a capturing sequencer: the FIFO head issues and joins
    /// the loop body.
    fn step_capture<const HOOKED: bool>(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        mem: &mut Memory,
        arb: &mut TcdmArbiter,
        ssrs: &mut [Ssr; 3],
        charge: &mut Charge<'_, HOOKED>,
    ) -> Result<(), SimFault> {
        let Some(front) = self.fifo.front() else {
            return Ok(());
        };
        if !front.inst.is_fp() {
            return Err(SimFault::new(format!(
                "non-FP instruction `{}` inside an FREP body",
                front.inst
            )));
        }
        if self.try_issue(&front, Lane::FpCore, now, cfg, mem, arb, ssrs, charge)? {
            charge.fpu_issue();
            self.capture(front);
        }
        Ok(())
    }

    /// Delivers due FPU results into SSR write FIFOs, in issue order: a
    /// stream stores same-cycle results in the order they were issued.
    /// Returns whether any was due.
    #[inline]
    pub(crate) fn deliver_ssr_pushes(&mut self, now: u64, ssrs: &mut [Ssr; 3]) -> bool {
        if self.ssr_pushes.is_empty() {
            return false;
        }
        let before = self.ssr_pushes.len();
        self.ssr_pushes.retain(|&(due, ssr, bits)| {
            if due <= now {
                ssrs[ssr].push(bits);
                false
            } else {
                true
            }
        });
        self.ssr_pushes.len() != before
    }

    /// Whether an idle sequencer faces an FREP marker at the FIFO head: the
    /// next [`begin_frep`](Self::begin_frep) takes it. Returns its repeat
    /// count.
    pub(crate) fn pending_frep(&self) -> Option<u32> {
        match (self.seq, self.fifo.front()) {
            (SeqState::Idle, Some(e)) if e.inst.is_frep() => Some(e.int_val.unwrap_or(0)),
            _ => None,
        }
    }

    /// An idle sequencer facing the FREP marker `front` at the FIFO head
    /// pops it and starts capturing the loop body.
    fn begin_frep(&mut self, front: &OffloadEntry) -> Result<(), SimFault> {
        let (max_inst, stagger_max, stagger_mask, inst_major) = match front.inst {
            Inst::FrepO { max_inst, stagger_max, stagger_mask, .. } => {
                (max_inst, stagger_max, stagger_mask, false)
            }
            Inst::FrepI { max_inst, stagger_max, stagger_mask, .. } => {
                (max_inst, stagger_max, stagger_mask, true)
            }
            _ => return Ok(()),
        };
        if usize::from(max_inst) > self.ring_capacity {
            return Err(SimFault::new(format!(
                "frep body of {max_inst} exceeds sequencer depth {}",
                self.ring_capacity
            )));
        }
        self.fifo.pop_front();
        self.ring.clear();
        let rep = front.int_val.unwrap_or(0);
        self.seq =
            SeqState::Capture { remaining: max_inst, rep, stagger_max, stagger_mask, inst_major };
        Ok(())
    }

    /// The instruction the FPU tries to issue next, with the lane it issues
    /// from: the FIFO head (issued once, or captured into the loop body),
    /// or the sequencer's staggered replay of a ring slot.
    pub(crate) fn candidate(&self) -> Option<(OffloadEntry, Lane)> {
        match self.seq {
            SeqState::Idle | SeqState::Capture { .. } => {
                self.fifo.front().map(|front| (front, Lane::FpCore))
            }
            SeqState::Replay(replay) => Some((self.replayed(replay), Lane::FpSeq)),
        }
    }

    /// The ring slot `replay` issues, staggered.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn replayed(&self, replay: Replay) -> OffloadEntry {
        let mut staggered = self.ring[replay.pos];
        stagger_entry(&mut staggered, replay.stagger_mask, replay.offset);
        staggered
    }

    /// Moves the FIFO and the sequencer past the [`candidate`](Self::candidate)
    /// `entry` that just issued.
    fn advance(&mut self, entry: OffloadEntry) {
        match self.seq {
            SeqState::Idle => self.fifo.pop_front(),
            SeqState::Capture { .. } => self.capture(entry),
            SeqState::Replay(replay) => self.replay_next(replay),
        }
    }

    /// Moves a capturing sequencer past the FIFO head `entry`, which
    /// issued: it joins the loop body, and the last body instruction
    /// starts the replay (or ends a loop of one iteration).
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn capture(&mut self, entry: OffloadEntry) {
        let SeqState::Capture { remaining, rep, stagger_max, stagger_mask, inst_major } = self.seq
        else {
            unreachable!("capture outside the capture state");
        };
        self.fifo.pop_front();
        self.ring.push(entry);
        let remaining = remaining - 1;
        self.seq = if remaining > 0 {
            SeqState::Capture { remaining, rep, stagger_max, stagger_mask, inst_major }
        } else if rep > 0 {
            SeqState::Replay(Replay::first(rep + 1, stagger_max, stagger_mask, inst_major))
        } else {
            self.ring.clear();
            SeqState::Idle
        };
    }

    /// Moves a replaying sequencer past the issued position `replay`.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn replay_next(&mut self, replay: Replay) {
        if let Some(next) = replay.next(self.ring.len()) {
            self.seq = SeqState::Replay(next);
        } else {
            self.seq = SeqState::Idle;
            self.ring.clear();
        }
    }

    /// Attempts to issue one FP instruction to the FPU. Returns whether it
    /// issued (false = stall this cycle). `lane` tags the trace events with
    /// the issue slot the instruction came from (core offload vs sequencer).
    /// Forced inline into [`step`](Self::step), so a cycle of FP issue is
    /// one call from the burst instead of two.
    #[allow(clippy::too_many_arguments, clippy::inline_always)]
    #[inline(always)]
    fn try_issue<const HOOKED: bool>(
        &mut self,
        entry: &OffloadEntry,
        lane: Lane,
        now: u64,
        cfg: &ClusterConfig,
        mem: &mut Memory,
        arb: &mut TcdmArbiter,
        ssrs: &mut [Ssr; 3],
        charge: &mut Charge<'_, HOOKED>,
    ) -> Result<bool, SimFault> {
        let meta = entry.meta;
        let ssr_on = self.ssr_enabled;

        // --- hazard checks (no side effects until all pass) ---
        // An instruction reading a stream register in several operand slots
        // pops one element per slot, so availability is counted per SSR.
        let mut pops_needed = [0usize; 3];
        for &s in &meta.srcs {
            if s == NO_REG {
                continue;
            }
            if ssr_on && s < 3 {
                pops_needed[s as usize] += 1;
            } else if self.ready_at[s as usize] > now {
                charge.stall(now, entry.pc, StallCause::FpuRaw, 1);
                return Ok(false);
            }
        }
        if ssr_on {
            for (i, &needed) in pops_needed.iter().enumerate() {
                if needed > 0 && ssrs[i].available_elements() < needed {
                    charge.stall(now, entry.pc, StallCause::FpuSsr, 1);
                    return Ok(false);
                }
            }
        }
        if meta.dst != NO_REG {
            if ssr_on && meta.dst < 3 {
                if !ssrs[meta.dst as usize].write_ready() {
                    charge.stall(now, entry.pc, StallCause::FpuSsr, 1);
                    return Ok(false);
                }
            } else if self.ready_at[meta.dst as usize] > now {
                charge.stall(now, entry.pc, StallCause::FpuRaw, 1);
                return Ok(false);
            }
        }
        let class = meta.class;
        if class == InstClass::FpDivSqrt && self.divsqrt_busy_until > now {
            charge.stall(now, entry.pc, StallCause::FpuRaw, 1);
            return Ok(false);
        }
        // Memory operations arbitrate last (a grant must not be wasted).
        if matches!(class, InstClass::FpLoad | InstClass::FpStore) {
            let addr = entry.int_val.expect("fp load/store carries its address");
            if layout::is_tcdm(addr) {
                if !arb.request(crate::mem::TcdmPort::FpLsu(charge.hart()), addr) {
                    charge.stall(now, entry.pc, StallCause::FpuTcdm, 1);
                    return Ok(false);
                }
                charge.stats.tcdm_fp_accesses += 1;
            } else if layout::is_main(addr) {
                charge.stats.main_mem_accesses += 1;
            } else {
                charge.stats.l2_accesses += 1;
            }
        }
        self.execute(entry, lane, now, cfg, mem, ssrs, charge)?;
        Ok(true)
    }

    /// Executes an FP instruction whose issue every hazard check and the
    /// bank arbitration allowed: books its op counter, computes its result
    /// (popping SSR operands) and schedules the result's write-back. The
    /// memo's replay issues through this too.
    #[allow(clippy::too_many_arguments, clippy::inline_always)]
    #[inline(always)]
    pub(crate) fn execute<const HOOKED: bool>(
        &mut self,
        entry: &OffloadEntry,
        lane: Lane,
        now: u64,
        cfg: &ClusterConfig,
        mem: &mut Memory,
        ssrs: &mut [Ssr; 3],
        charge: &mut Charge<'_, HOOKED>,
    ) -> Result<(), SimFault> {
        let inst = entry.inst;
        let meta = entry.meta;
        let ssr_on = self.ssr_enabled;
        let class = meta.class;
        let latency = match class {
            InstClass::FpMulAdd => {
                charge.stats.fpu_muladd_ops += 1;
                cfg.fpu_lat_muladd
            }
            InstClass::FpShort => {
                charge.stats.fpu_short_ops += 1;
                cfg.fpu_lat_short
            }
            InstClass::FpCvt => {
                charge.stats.fpu_cvt_ops += 1;
                cfg.fpu_lat_cvt
            }
            InstClass::FpDivSqrt => {
                charge.stats.fpu_divsqrt_ops += 1;
                self.divsqrt_busy_until = now + u64::from(cfg.fpu_lat_divsqrt);
                cfg.fpu_lat_divsqrt
            }
            InstClass::FpLoad => {
                charge.stats.fp_mem_ops += 1;
                let addr = entry.int_val.expect("checked above");
                let mut l = cfg.fp_load_latency;
                if layout::is_main(addr) {
                    l += cfg.main_mem_extra_latency;
                } else if !layout::is_tcdm(addr) {
                    // Shared L2 or a cluster alias window.
                    l += cfg.l2_latency;
                }
                l
            }
            InstClass::FpStore => {
                charge.stats.fp_mem_ops += 1;
                debug_assert!(self.pending_stores > 0);
                self.pending_stores -= 1;
                1
            }
            other => {
                return Err(SimFault::new(format!(
                    "instruction `{inst}` (class {other:?}) reached the FPU"
                )))
            }
        };

        // Gather operand bits, popping SSR streams.
        let mut bits = [0u64; 3];
        for (slot, &s) in meta.srcs.iter().enumerate() {
            if s == NO_REG {
                continue;
            }
            bits[slot] =
                if ssr_on && s < 3 { ssrs[s as usize].pop() } else { self.regs[s as usize] };
        }

        let outcome = exec_fp(&inst, bits, entry.int_val, mem)?;
        let done_at = now + u64::from(latency);
        self.busy_until = self.busy_until.max(done_at);
        charge.event(done_at, || EventKind::Retire { lane, inst });
        match outcome {
            Outcome::Fp(value) => {
                debug_assert_ne!(meta.dst, NO_REG, "fp-result instruction has an fp destination");
                if ssr_on && meta.dst < 3 {
                    let i = meta.dst as usize;
                    ssrs[i].reserve_write();
                    self.ssr_pushes.push((done_at, i, value));
                } else {
                    self.regs[meta.dst as usize] = value;
                    self.ready_at[meta.dst as usize] = done_at;
                }
            }
            Outcome::Int(rd, value) => {
                if !rd.is_zero() {
                    self.int_wb.push((done_at, IntWriteback { rd, value }));
                }
            }
            Outcome::None => {}
        }
        Ok(())
    }
}

/// The memo's view of the FP subsystem (see `memo.rs`): its timing state
/// as key bytes, the functional replay of recorded actions, and the
/// snapshot a failed replay restores.
impl Fpss {
    /// Whether an FP→int write-back is due at `now`: the cycle's drain
    /// delivers at least one.
    pub(crate) fn writeback_due(&self, now: u64) -> bool {
        self.int_wb.iter().any(|&(due, _)| due <= now)
    }

    /// Whether an SSR push is due at `now`: the cycle's delivery moves at
    /// least one result into its write FIFO.
    pub(crate) fn ssr_push_due(&self, now: u64) -> bool {
        self.ssr_pushes.iter().any(|&(due, _, _)| due <= now)
    }

    /// Appends the timing state to a memo key, normalized to `now`: the
    /// pcs of the queued and captured instructions (which fix every
    /// instruction and its metadata), the sequencer position with its
    /// iterations left (capped), the register scoreboard, the
    /// unit busy times, the SSR enable, the queued stores and the due
    /// offsets of pending write-backs and SSR pushes. Operand values and
    /// addresses are not timing state: the memo validates them on replay.
    pub(crate) fn encode_key(&self, now: u64, key: &mut crate::memo::KeyBuf) {
        key.put(self.fifo.len as u64);
        for i in 0..self.fifo.len {
            key.put_pc(self.fifo.slots[(self.fifo.head + i) % self.fifo.slots.len()].pc);
        }
        match self.seq {
            SeqState::Idle => key.put(0),
            SeqState::Capture { remaining, rep, stagger_max, stagger_mask, inst_major } => {
                key.put(1 | u64::from(inst_major) << 2);
                key.put(u64::from(remaining));
                key.put_count(rep);
                key.put(u64::from(stagger_max) | u64::from(stagger_mask) << 8);
            }
            SeqState::Replay(r) => {
                key.put(2 | u64::from(r.inst_major) << 2);
                if r.inst_major {
                    // Each instruction restarts the count: keyed whole.
                    key.put(u64::from(r.total));
                    key.put(u64::from(r.iter));
                } else {
                    key.put_count(r.total - r.iter);
                }
                key.put(r.pos as u64);
                key.put(
                    u64::from(r.stagger_max)
                        | u64::from(r.stagger_mask) << 8
                        | u64::from(r.offset) << 16,
                );
            }
        }
        key.put(self.ring.len() as u64);
        for e in &self.ring {
            key.put_pc(e.pc);
        }
        key.put_offsets(&self.ready_at, now);
        key.put(self.busy_until.saturating_sub(now));
        key.put(self.divsqrt_busy_until.saturating_sub(now));
        key.put(u64::from(self.ssr_enabled) | (self.pending_stores as u64) << 1);
        key.put(self.int_wb.len() as u64);
        for &(due, wb) in &self.int_wb {
            key.put(due.saturating_sub(now));
            key.put(u64::from(wb.rd.index()));
        }
        key.put(self.ssr_pushes.len() as u64);
        for &(due, ssr, _) in &self.ssr_pushes {
            key.put(due.saturating_sub(now) << 2 | ssr as u64);
        }
    }

    /// The sequencer's count of iterations left, which a memo key caps
    /// (see `memo::Counts`): of the replay of an `frep.o`, or of the loop
    /// being captured.
    pub(crate) fn memo_count(&self) -> Option<u32> {
        match self.seq {
            SeqState::Capture { rep, .. } => Some(rep),
            SeqState::Replay(r) if !r.inst_major => Some(r.total - r.iter),
            _ => None,
        }
    }

    /// Copies every field a memo replay can change from `other`, reusing
    /// this subsystem's buffers.
    pub(crate) fn restore_from(&mut self, other: &Fpss) {
        self.fifo.slots.copy_from_slice(&other.fifo.slots);
        self.fifo.head = other.fifo.head;
        self.fifo.len = other.fifo.len;
        self.ring.clone_from(&other.ring);
        self.seq = other.seq;
        self.regs = other.regs;
        self.ready_at = other.ready_at;
        self.pending_stores = other.pending_stores;
        self.divsqrt_busy_until = other.divsqrt_busy_until;
        self.busy_until = other.busy_until;
        self.int_wb.clone_from(&other.int_wb);
        self.ssr_pushes.clone_from(&other.ssr_pushes);
    }

    /// Replays a recorded FREP marker: pops it and starts the capture.
    pub(crate) fn replay_frep(&mut self) -> Result<(), SimFault> {
        let front = self.fifo.front().expect("a pending FREP marker");
        self.begin_frep(&front)
    }

    /// Replays a recorded FPU issue of the [`candidate`](Self::candidate)
    /// `entry` without its hazard checks, which the recorded timing
    /// already passed: the same execution, write-backs and sequencer
    /// advance as the timed issue. Counters go to `charge`, which the
    /// replay discards (the memo applies the recorded counter deltas).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn replay_issue(
        &mut self,
        entry: &OffloadEntry,
        lane: Lane,
        now: u64,
        cfg: &ClusterConfig,
        mem: &mut Memory,
        ssrs: &mut [Ssr; 3],
        charge: &mut Charge<'_, false>,
    ) -> Result<(), SimFault> {
        self.execute(entry, lane, now, cfg, mem, ssrs, charge)?;
        self.advance(*entry);
        Ok(())
    }
}

impl OffloadEntry {
    /// The memory bytes this instruction accesses, as `(addr, len, is_store)`.
    pub(crate) fn mem_span(&self) -> Option<(u32, u32, bool)> {
        let addr = self.int_val?;
        match self.inst {
            Inst::Flw { .. } => Some((addr, 4, false)),
            Inst::Fld { .. } => Some((addr, 8, false)),
            Inst::Fsw { .. } => Some((addr, 4, true)),
            Inst::Fsd { .. } => Some((addr, 8, true)),
            _ => None,
        }
    }
}

/// Result routing of one FP instruction.
enum Outcome {
    Fp(u64),
    Int(IntReg, u32),
    None,
}

/// FP source registers of an instruction, in operand order.
fn fp_sources(inst: &Inst) -> [Option<FpReg>; 3] {
    match *inst {
        Inst::FpOp { op: FpAluOp::Sqrt, rs1, .. } => [Some(rs1), None, None],
        Inst::FpOp { rs1, rs2, .. } | Inst::FpSgnj { rs1, rs2, .. } => [Some(rs1), Some(rs2), None],
        Inst::FpFma { rs1, rs2, rs3, .. } => [Some(rs1), Some(rs2), Some(rs3)],
        Inst::FpCmp { rs1, rs2, .. } | Inst::CopiftCmp { rs1, rs2, .. } => {
            [Some(rs1), Some(rs2), None]
        }
        Inst::FpCvtF2I { rs1, .. }
        | Inst::FpCvtF2F { rs1, .. }
        | Inst::FpMvF2X { rs1, .. }
        | Inst::FpClass { rs1, .. }
        | Inst::CopiftCvtF2I { rs1, .. }
        | Inst::CopiftCvtI2F { rs1, .. }
        | Inst::CopiftClass { rs1, .. } => [Some(rs1), None, None],
        Inst::Fsw { rs2, .. } | Inst::Fsd { rs2, .. } => [Some(rs2), None, None],
        // Integer-sourced and load instructions have no FP sources.
        Inst::FpCvtI2F { .. } | Inst::FpMvX2F { .. } | Inst::Flw { .. } | Inst::Fld { .. } => {
            [None, None, None]
        }
        _ => [None, None, None],
    }
}

/// FP destination register of an instruction, if any.
fn fp_dest(inst: &Inst) -> Option<FpReg> {
    match *inst {
        Inst::Flw { rd, .. }
        | Inst::Fld { rd, .. }
        | Inst::FpOp { rd, .. }
        | Inst::FpFma { rd, .. }
        | Inst::FpSgnj { rd, .. }
        | Inst::FpCvtI2F { rd, .. }
        | Inst::FpCvtF2F { rd, .. }
        | Inst::FpMvX2F { rd, .. }
        | Inst::CopiftCmp { rd, .. }
        | Inst::CopiftCvtF2I { rd, .. }
        | Inst::CopiftCvtI2F { rd, .. }
        | Inst::CopiftClass { rd, .. } => Some(rd),
        _ => None,
    }
}

/// Applies FREP register staggering: operand fields selected by `mask`
/// (bit 0 = rd, 1 = rs1, 2 = rs2, 3 = rs3) are offset by the iteration
/// index. SSR-candidate registers (`ft0..ft2`) are never staggered, and
/// staggered indices wrap within `f3..f31` so they cannot collide with the
/// stream registers.
fn stagger_entry(entry: &mut OffloadEntry, mask: u8, offset: u8) {
    if mask == 0 || offset == 0 {
        return;
    }
    let remap = |r: FpReg, bit: u8| -> FpReg {
        if mask & (1 << bit) == 0 || r.is_ssr_candidate() {
            r
        } else {
            FpReg::new(3 + (r.index() - 3 + offset) % 29)
        }
    };
    let inst = match entry.inst {
        Inst::FpOp { op, fmt, rd, rs1, rs2 } => {
            Inst::FpOp { op, fmt, rd: remap(rd, 0), rs1: remap(rs1, 1), rs2: remap(rs2, 2) }
        }
        Inst::FpFma { op, fmt, rd, rs1, rs2, rs3 } => Inst::FpFma {
            op,
            fmt,
            rd: remap(rd, 0),
            rs1: remap(rs1, 1),
            rs2: remap(rs2, 2),
            rs3: remap(rs3, 3),
        },
        Inst::FpSgnj { op, fmt, rd, rs1, rs2 } => {
            Inst::FpSgnj { op, fmt, rd: remap(rd, 0), rs1: remap(rs1, 1), rs2: remap(rs2, 2) }
        }
        Inst::CopiftCmp { op, rd, rs1, rs2 } => {
            Inst::CopiftCmp { op, rd: remap(rd, 0), rs1: remap(rs1, 1), rs2: remap(rs2, 2) }
        }
        Inst::CopiftCvtF2I { to, rd, rs1 } => {
            Inst::CopiftCvtF2I { to, rd: remap(rd, 0), rs1: remap(rs1, 1) }
        }
        Inst::CopiftCvtI2F { from, rd, rs1 } => {
            Inst::CopiftCvtI2F { from, rd: remap(rd, 0), rs1: remap(rs1, 1) }
        }
        Inst::CopiftClass { rd, rs1 } => Inst::CopiftClass { rd: remap(rd, 0), rs1: remap(rs1, 1) },
        Inst::FpCvtF2F { to, rd, rs1 } => {
            Inst::FpCvtF2F { to, rd: remap(rd, 0), rs1: remap(rs1, 1) }
        }
        _ => return,
    };
    entry.inst = inst;
    // Remap the pre-lowered metadata in lockstep: every staggerable variant
    // lists its FP sources in `rs1, rs2, rs3` operand order, so source slot
    // `i` pairs with mask bit `i + 1` and the destination with bit 0.
    let remap_idx = |r: u8, bit: u8| -> u8 {
        if r == NO_REG || mask & (1 << bit) == 0 || r < 3 {
            r
        } else {
            3 + (r - 3 + offset) % 29
        }
    };
    entry.meta.dst = remap_idx(entry.meta.dst, 0);
    for (i, s) in entry.meta.srcs.iter_mut().enumerate() {
        *s = remap_idx(*s, i as u8 + 1);
    }
}

const F32_SIGN: u32 = 0x8000_0000;
const F64_SIGN: u64 = 0x8000_0000_0000_0000;

fn nan_box(bits32: u32) -> u64 {
    0xFFFF_FFFF_0000_0000 | u64::from(bits32)
}

fn f32_of(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

/// RISC-V `fclass` result mask of a value with `sign`, in the category
/// `class` (which cannot tell a signaling NaN from a quiet one), where
/// `quiet` is the mantissa's most significant bit.
fn class_mask(class: std::num::FpCategory, sign: bool, quiet: bool) -> u32 {
    use std::num::FpCategory;
    let bit = match (class, sign) {
        (FpCategory::Nan, _) => return if quiet { 1 << 9 } else { 1 << 8 },
        (FpCategory::Infinite, true) => 0,
        (FpCategory::Normal, true) => 1,
        (FpCategory::Subnormal, true) => 2,
        (FpCategory::Zero, true) => 3,
        (FpCategory::Zero, false) => 4,
        (FpCategory::Subnormal, false) => 5,
        (FpCategory::Normal, false) => 6,
        (FpCategory::Infinite, false) => 7,
    };
    1 << bit
}

/// `fclass.d` of the register bits.
fn classify_f64(bits: u64) -> u32 {
    let v = f64::from_bits(bits);
    class_mask(v.classify(), bits & F64_SIGN != 0, bits & 0x0008_0000_0000_0000 != 0)
}

/// `fclass.s` of the register bits: classified as a single, without
/// widening (which would read every subnormal as normal and quiet every
/// signaling NaN). A value that is not NaN-boxed reads as the canonical
/// quiet NaN.
fn classify_f32(bits: u64) -> u32 {
    if bits >> 32 != 0xFFFF_FFFF {
        return 1 << 9;
    }
    let (b, v) = (bits as u32, f32_of(bits));
    class_mask(v.classify(), b & F32_SIGN != 0, b & 0x0040_0000 != 0)
}

/// Functional evaluation of one FP instruction on operand `bits`
/// (gathered in [`fp_sources`] order).
fn exec_fp(
    inst: &Inst,
    bits: [u64; 3],
    int_val: Option<u32>,
    mem: &mut Memory,
) -> Result<Outcome, SimFault> {
    Ok(match *inst {
        Inst::Flw { .. } => {
            let addr = int_val.expect("flw address");
            let v = mem.read(addr, 4).map_err(SimFault::from)?;
            Outcome::Fp(nan_box(v as u32))
        }
        Inst::Fld { .. } => {
            let addr = int_val.expect("fld address");
            Outcome::Fp(mem.read(addr, 8).map_err(SimFault::from)?)
        }
        Inst::Fsw { .. } => {
            let addr = int_val.expect("fsw address");
            mem.write(addr, 4, bits[0] & 0xFFFF_FFFF).map_err(SimFault::from)?;
            Outcome::None
        }
        Inst::Fsd { .. } => {
            let addr = int_val.expect("fsd address");
            mem.write(addr, 8, bits[0]).map_err(SimFault::from)?;
            Outcome::None
        }
        Inst::FpOp { op, fmt: FpFmt::D, .. } => {
            let (a, b) = (f64::from_bits(bits[0]), f64::from_bits(bits[1]));
            let r = match op {
                FpAluOp::Add => a + b,
                FpAluOp::Sub => a - b,
                FpAluOp::Mul => a * b,
                FpAluOp::Div => a / b,
                FpAluOp::Sqrt => a.sqrt(),
                FpAluOp::Min => a.min(b),
                FpAluOp::Max => a.max(b),
            };
            Outcome::Fp(r.to_bits())
        }
        Inst::FpOp { op, fmt: FpFmt::S, .. } => {
            let (a, b) = (f32_of(bits[0]), f32_of(bits[1]));
            let r = match op {
                FpAluOp::Add => a + b,
                FpAluOp::Sub => a - b,
                FpAluOp::Mul => a * b,
                FpAluOp::Div => a / b,
                FpAluOp::Sqrt => a.sqrt(),
                FpAluOp::Min => a.min(b),
                FpAluOp::Max => a.max(b),
            };
            Outcome::Fp(nan_box(r.to_bits()))
        }
        Inst::FpFma { op, fmt: FpFmt::D, .. } => {
            let r = op.eval_f64(
                f64::from_bits(bits[0]),
                f64::from_bits(bits[1]),
                f64::from_bits(bits[2]),
            );
            Outcome::Fp(r.to_bits())
        }
        Inst::FpFma { op, fmt: FpFmt::S, .. } => {
            let r = op.eval_f32(f32_of(bits[0]), f32_of(bits[1]), f32_of(bits[2]));
            Outcome::Fp(nan_box(r.to_bits()))
        }
        Inst::FpSgnj { op, fmt: FpFmt::D, .. } => {
            let (a, b) = (bits[0], bits[1]);
            let sign = match op {
                SgnjOp::Sgnj => b & F64_SIGN,
                SgnjOp::Sgnjn => !b & F64_SIGN,
                SgnjOp::Sgnjx => (a ^ b) & F64_SIGN,
            };
            Outcome::Fp((a & !F64_SIGN) | sign)
        }
        Inst::FpSgnj { op, fmt: FpFmt::S, .. } => {
            let (a, b) = (bits[0] as u32, bits[1] as u32);
            let sign = match op {
                SgnjOp::Sgnj => b & F32_SIGN,
                SgnjOp::Sgnjn => !b & F32_SIGN,
                SgnjOp::Sgnjx => (a ^ b) & F32_SIGN,
            };
            Outcome::Fp(nan_box((a & !F32_SIGN) | sign))
        }
        Inst::FpCmp { op, fmt, rd, .. } => {
            let r = cmp_bits(op, fmt, bits);
            Outcome::Int(rd, r)
        }
        Inst::FpCvtF2I { to, fmt, rd, .. } => {
            let v = match fmt {
                FpFmt::D => f64::from_bits(bits[0]),
                FpFmt::S => f64::from(f32_of(bits[0])),
            };
            let r = match to {
                IntCvt::W => f64_to_i32(v) as u32,
                IntCvt::Wu => f64_to_u32(v),
            };
            Outcome::Int(rd, r)
        }
        Inst::FpCvtI2F { from, fmt, .. } => {
            let iv = int_val.expect("fcvt from integer operand");
            let v = match from {
                IntCvt::W => f64::from(iv as i32),
                IntCvt::Wu => f64::from(iv),
            };
            match fmt {
                FpFmt::D => Outcome::Fp(v.to_bits()),
                FpFmt::S => Outcome::Fp(nan_box((v as f32).to_bits())),
            }
        }
        Inst::FpCvtF2F { to: FpFmt::D, .. } => Outcome::Fp(f64::from(f32_of(bits[0])).to_bits()),
        Inst::FpCvtF2F { to: FpFmt::S, .. } => {
            Outcome::Fp(nan_box((f64::from_bits(bits[0]) as f32).to_bits()))
        }
        Inst::FpMvF2X { rd, .. } => Outcome::Int(rd, bits[0] as u32),
        Inst::FpMvX2F { .. } => Outcome::Fp(nan_box(int_val.expect("fmv.w.x operand"))),
        Inst::FpClass { fmt, rd, .. } => {
            let mask = match fmt {
                FpFmt::D => classify_f64(bits[0]),
                FpFmt::S => classify_f32(bits[0]),
            };
            Outcome::Int(rd, mask)
        }
        // ---- COPIFT custom-1: identical arithmetic, FP register file only.
        Inst::CopiftCmp { op, .. } => Outcome::Fp(u64::from(cmp_bits(op, FpFmt::D, bits))),
        Inst::CopiftCvtF2I { to, .. } => {
            let v = f64::from_bits(bits[0]);
            let r = match to {
                IntCvt::W => f64_to_i32(v) as u32,
                IntCvt::Wu => f64_to_u32(v),
            };
            Outcome::Fp(u64::from(r))
        }
        Inst::CopiftCvtI2F { from, .. } => {
            let low = bits[0] as u32;
            let v = match from {
                IntCvt::W => f64::from(low as i32),
                IntCvt::Wu => f64::from(low),
            };
            Outcome::Fp(v.to_bits())
        }
        Inst::CopiftClass { .. } => Outcome::Fp(u64::from(classify_f64(bits[0]))),
        ref other => {
            return Err(SimFault::new(format!("`{other}` is not an FP instruction")));
        }
    })
}

fn cmp_bits(op: FpCmpOp, fmt: FpFmt, bits: [u64; 3]) -> u32 {
    let r = match fmt {
        FpFmt::D => op.eval_f64(f64::from_bits(bits[0]), f64::from_bits(bits[1])),
        FpFmt::S => op.eval_f32(f32_of(bits[0]), f32_of(bits[1])),
    };
    u32::from(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;
    use snitch_riscv::csr::SsrCfgWord;
    use snitch_riscv::ops::FmaOp;

    /// The cluster-side state one FP subsystem steps against.
    struct Harness {
        cfg: ClusterConfig,
        mem: Memory,
        arb: TcdmArbiter,
        ssrs: [Ssr; 3],
        stats: Stats,
    }

    impl Harness {
        fn new(cfg: ClusterConfig) -> Self {
            let ssrs = [
                Ssr::new(cfg.ssr_fifo_depth),
                Ssr::new(cfg.ssr_fifo_depth),
                Ssr::new(cfg.ssr_fifo_depth),
            ];
            Harness {
                cfg,
                mem: Memory::new(),
                arb: TcdmArbiter::new(32),
                ssrs,
                stats: Stats::default(),
            }
        }

        /// One cycle of `fpss` on hart 0, untraced and unprofiled.
        fn step(&mut self, fpss: &mut Fpss, now: u64) -> Result<(), SimFault> {
            self.arb.begin_cycle();
            let (mut tracer, mut profiler) = (None, None);
            let mut charge = Charge::<false>::new(0, &mut self.stats, &mut tracer, &mut profiler);
            fpss.step(now, &self.cfg, &mut self.mem, &mut self.arb, &mut self.ssrs, &mut charge)
        }

        /// Steps `fpss` from cycle 0 until it drains; returns the drain cycle.
        fn run(&mut self, fpss: &mut Fpss) -> u64 {
            let mut now = 0;
            while !fpss.drained(now) {
                self.step(fpss, now).unwrap();
                now += 1;
                assert!(now < 100, "the FP subsystem must drain");
            }
            now
        }
    }

    /// The write-backs due at `now`, in delivery order.
    fn due_writebacks(fpss: &mut Fpss, now: u64) -> Vec<IntWriteback> {
        let mut due = Vec::new();
        fpss.drain_int_writebacks(now, |wb| due.push(wb));
        due
    }

    fn fp(inst: Inst) -> OffloadEntry {
        OffloadEntry::new(inst, None)
    }

    #[test]
    fn fadd_completes_with_latency() {
        let mut h = Harness::new(ClusterConfig::default());
        let mut fpss = Fpss::new(&h.cfg);
        fpss.regs[FpReg::FA1.index() as usize] = 2.0f64.to_bits();
        fpss.regs[FpReg::FA2.index() as usize] = 3.0f64.to_bits();
        fpss.offload(fp(Inst::FpOp {
            op: FpAluOp::Add,
            fmt: FpFmt::D,
            rd: FpReg::FA0,
            rs1: FpReg::FA1,
            rs2: FpReg::FA2,
        }));
        h.step(&mut fpss, 0).unwrap();
        assert_eq!(f64::from_bits(fpss.reg(FpReg::FA0)), 5.0);
        assert!(!fpss.drained(0), "latency still in flight");
        assert!(fpss.drained(u64::from(h.cfg.fpu_lat_muladd)));
        assert_eq!(h.stats.fpu_muladd_ops, 1);
    }

    #[test]
    fn raw_dependency_stalls_issue() {
        let mut h = Harness::new(ClusterConfig::default());
        let mut fpss = Fpss::new(&h.cfg);
        fpss.offload(fp(Inst::FpOp {
            op: FpAluOp::Add,
            fmt: FpFmt::D,
            rd: FpReg::FA0,
            rs1: FpReg::FA1,
            rs2: FpReg::FA2,
        }));
        fpss.offload(fp(Inst::FpOp {
            op: FpAluOp::Mul,
            fmt: FpFmt::D,
            rd: FpReg::FA3,
            rs1: FpReg::FA0, // depends on previous
            rs2: FpReg::FA2,
        }));
        let mut issue_cycles = Vec::new();
        for now in 0..10u64 {
            let before = h.stats.fpu_busy_cycles;
            h.step(&mut fpss, now).unwrap();
            if h.stats.fpu_busy_cycles > before {
                issue_cycles.push(now);
            }
        }
        assert_eq!(issue_cycles, vec![0, u64::from(ClusterConfig::default().fpu_lat_muladd)]);
        assert!(h.stats.fpu_stall_raw > 0);
    }

    #[test]
    fn frep_replays_without_core_issues() {
        let mut h = Harness::new(ClusterConfig::default());
        let mut fpss = Fpss::new(&h.cfg);
        fpss.regs[FpReg::FA1.index() as usize] = 1.0f64.to_bits();
        // frep.o with rep = 3 (4 total iterations) over a 1-instruction body
        // accumulating fa0 += fa1.
        fpss.offload(OffloadEntry::new(
            Inst::FrepO { rep: IntReg::T0, max_inst: 1, stagger_max: 0, stagger_mask: 0 },
            Some(3),
        ));
        fpss.offload(fp(Inst::FpOp {
            op: FpAluOp::Add,
            fmt: FpFmt::D,
            rd: FpReg::FA0,
            rs1: FpReg::FA0,
            rs2: FpReg::FA1,
        }));
        h.run(&mut fpss);
        assert_eq!(f64::from_bits(fpss.reg(FpReg::FA0)), 4.0);
        assert_eq!(h.stats.fp_issued_seq, 3, "three replayed iterations");
        assert!(h.stats.seq_active_cycles >= 3);
    }

    #[test]
    fn frep_body_overflow_is_a_fault() {
        let mut h = Harness::new(ClusterConfig { sequencer_depth: 2, ..ClusterConfig::default() });
        let mut fpss = Fpss::new(&h.cfg);
        fpss.offload(OffloadEntry::new(
            Inst::FrepO { rep: IntReg::T0, max_inst: 3, stagger_max: 0, stagger_mask: 0 },
            Some(1),
        ));
        let err = h.step(&mut fpss, 0).unwrap_err();
        assert!(err.to_string().contains("sequencer depth"));
    }

    #[test]
    fn int_writeback_is_delivered_after_latency() {
        let mut h = Harness::new(ClusterConfig::default());
        let mut fpss = Fpss::new(&h.cfg);
        fpss.regs[FpReg::FA0.index() as usize] = 1.0f64.to_bits();
        fpss.regs[FpReg::FA1.index() as usize] = 2.0f64.to_bits();
        fpss.offload(fp(Inst::FpCmp {
            op: FpCmpOp::Lt,
            fmt: FpFmt::D,
            rd: IntReg::A0,
            rs1: FpReg::FA0,
            rs2: FpReg::FA1,
        }));
        h.step(&mut fpss, 0).unwrap();
        assert!(due_writebacks(&mut fpss, 0).is_empty());
        let wbs = due_writebacks(&mut fpss, u64::from(h.cfg.fpu_lat_short));
        assert_eq!(wbs, vec![IntWriteback { rd: IntReg::A0, value: 1 }]);
        assert!(due_writebacks(&mut fpss, u64::MAX).is_empty(), "delivered exactly once");
    }

    #[test]
    fn copift_ops_stay_in_fp_rf() {
        let mut h = Harness::new(ClusterConfig::default());
        let mut fpss = Fpss::new(&h.cfg);
        fpss.regs[FpReg::FA1.index() as usize] = 3.0f64.to_bits();
        fpss.regs[FpReg::FA2.index() as usize] = 7.0f64.to_bits();
        fpss.offload(fp(Inst::CopiftCmp {
            op: FpCmpOp::Lt,
            rd: FpReg::FA0,
            rs1: FpReg::FA1,
            rs2: FpReg::FA2,
        }));
        fpss.offload(fp(Inst::CopiftCvtI2F { from: IntCvt::W, rd: FpReg::FA3, rs1: FpReg::FA0 }));
        let now = h.run(&mut fpss);
        assert_eq!(fpss.reg(FpReg::FA0), 1, "comparison result as integer bits");
        assert_eq!(f64::from_bits(fpss.reg(FpReg::FA3)), 1.0, "converted to double");
        assert!(due_writebacks(&mut fpss, now).is_empty(), "no integer RF traffic");
    }

    #[test]
    fn classify_covers_all_classes() {
        let d = |v: f64| classify_f64(v.to_bits());
        assert_eq!(d(f64::NEG_INFINITY), 1 << 0);
        assert_eq!(d(-1.5), 1 << 1);
        assert_eq!(d(-f64::MIN_POSITIVE / 2.0), 1 << 2);
        assert_eq!(d(-0.0), 1 << 3);
        assert_eq!(d(0.0), 1 << 4);
        assert_eq!(d(f64::MIN_POSITIVE / 2.0), 1 << 5);
        assert_eq!(d(2.5), 1 << 6);
        assert_eq!(d(f64::INFINITY), 1 << 7);
        assert_eq!(classify_f64(0x7FF0_0000_0000_0001), 1 << 8, "signaling NaN");
        assert_eq!(d(f64::NAN), 1 << 9);
    }

    /// `fclass.s` through the FPU: single subnormals and signaling NaNs
    /// keep their class (no widening to double), and a register that is not
    /// NaN-boxed reads as the canonical quiet NaN.
    #[test]
    fn fclass_s_classifies_the_single() {
        let class = |bits: u64| {
            let mut h = Harness::new(ClusterConfig::default());
            let mut fpss = Fpss::new(&h.cfg);
            fpss.regs[FpReg::FA0.index() as usize] = bits;
            fpss.offload(fp(Inst::FpClass { fmt: FpFmt::S, rd: IntReg::A0, rs1: FpReg::FA0 }));
            h.step(&mut fpss, 0).unwrap();
            due_writebacks(&mut fpss, u64::MAX)[0].value
        };
        let s = |v: f32| nan_box(v.to_bits());
        assert_eq!(class(s(f32::NEG_INFINITY)), 1 << 0);
        assert_eq!(class(s(-1.5)), 1 << 1);
        assert_eq!(class(s(-f32::MIN_POSITIVE / 2.0)), 1 << 2, "negative subnormal");
        assert_eq!(class(s(-0.0)), 1 << 3);
        assert_eq!(class(s(0.0)), 1 << 4);
        assert_eq!(class(s(f32::MIN_POSITIVE / 2.0)), 1 << 5, "positive subnormal");
        assert_eq!(class(s(2.5)), 1 << 6);
        assert_eq!(class(s(f32::INFINITY)), 1 << 7);
        assert_eq!(class(nan_box(0x7F80_0001)), 1 << 8, "signaling NaN");
        assert_eq!(class(s(f32::NAN)), 1 << 9);
        assert_eq!(class(1.0f64.to_bits()), 1 << 9, "not NaN-boxed");
    }

    #[test]
    fn cvt_saturation() {
        assert_eq!(f64_to_i32(f64::NAN), i32::MAX);
        assert_eq!(f64_to_i32(1e300), i32::MAX);
        assert_eq!(f64_to_i32(-1e300), i32::MIN);
        assert_eq!(f64_to_i32(-3.7), -3, "truncation toward zero");
        assert_eq!(f64_to_u32(-1.0), 0);
        assert_eq!(f64_to_u32(4.9), 4);
        assert_eq!(f64_to_u32(1e300), u32::MAX);
    }

    /// The offload ring against a `VecDeque` model: every push, pop, front
    /// and fullness test agrees, at several depths, across many
    /// wrap-arounds and after `clear`.
    #[test]
    fn fifo_ring_matches_a_deque_model() {
        use std::collections::VecDeque;
        for depth in [1usize, 2, 3, 8] {
            let mut ring = FifoRing::new(depth, 0u32);
            let mut model = VecDeque::new();
            let mut rng = 0x9e37_79b9_7f4a_7c15_u64 ^ depth as u64;
            let mut next = 0u32;
            for step in 0..2000 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                match rng % 9 {
                    0..=3 if model.len() < depth => {
                        ring.push_back(next);
                        model.push_back(next);
                        next += 1;
                    }
                    0..=6 if !model.is_empty() => {
                        ring.pop_front();
                        model.pop_front();
                    }
                    7 if step % 50 == 7 => {
                        ring.clear();
                        model.clear();
                    }
                    _ => {}
                }
                assert_eq!(ring.front(), model.front().copied(), "depth {depth}, step {step}");
                assert_eq!(ring.is_empty(), model.is_empty(), "depth {depth}, step {step}");
                assert_eq!(ring.is_full(), model.len() == depth, "depth {depth}, step {step}");
            }
            assert!(next > 4 * depth as u32, "depth {depth}: the ring wrapped repeatedly");
        }
    }

    /// The stagger offset the replay carries equals `iter % (stagger_max +
    /// 1)` at every replayed issue, and the walk visits every (slot,
    /// iteration) pair after the capture pass exactly once, in `frep.o` and
    /// `frep.i` order.
    #[test]
    fn carried_stagger_offset_matches_the_iteration_modulus() {
        for inst_major in [false, true] {
            for stagger_max in 0..=3u8 {
                for len in 1..=3usize {
                    for total in 2..=9u32 {
                        let mut visits = Vec::new();
                        let mut at = Some(Replay::first(total, stagger_max, 0b1, inst_major));
                        while let Some(r) = at {
                            let want = (r.iter % (u32::from(stagger_max) + 1)) as u8;
                            assert_eq!(
                                r.offset, want,
                                "inst_major {inst_major}, stagger_max {stagger_max}, len {len}, \
                                 total {total}, iter {}",
                                r.iter
                            );
                            visits.push((r.pos, r.iter));
                            at = r.next(len);
                        }
                        let expected: Vec<(usize, u32)> = if inst_major {
                            (0..len).flat_map(|p| (1..total).map(move |i| (p, i))).collect()
                        } else {
                            (1..total).flat_map(|i| (0..len).map(move |p| (p, i))).collect()
                        };
                        assert_eq!(visits, expected, "issue order (inst_major {inst_major})");
                    }
                }
            }
        }
    }

    /// Three results bound for one SSR write stream and due in the same
    /// cycle reach memory in issue order: an `fmadd` (latency 3), an
    /// `fcvt.d.s` (latency 2) and an `fsgnj` (latency 1), issued on cycles
    /// 0, 1 and 2, all retire on cycle 3.
    #[test]
    fn same_cycle_ssr_writes_store_in_issue_order() {
        let mut h = Harness::new(ClusterConfig::default());
        h.ssrs[0].write_cfg(SsrCfgWord::Status, 1); // write stream
        h.ssrs[0].write_cfg(SsrCfgWord::Bound(0), 2);
        h.ssrs[0].write_cfg(SsrCfgWord::Stride(0), 8);
        h.ssrs[0].write_cfg(SsrCfgWord::Base, layout::TCDM_BASE);
        let mut fpss = Fpss::new(&h.cfg);
        fpss.set_ssr_enabled(true);
        fpss.regs[FpReg::FA1.index() as usize] = 0.5f64.to_bits();
        fpss.regs[FpReg::FA2.index() as usize] = 2.0f64.to_bits();
        fpss.regs[FpReg::FA4.index() as usize] = nan_box(2.0f32.to_bits());
        fpss.regs[FpReg::FA5.index() as usize] = 3.0f64.to_bits();
        fpss.offload(fp(Inst::FpFma {
            op: FmaOp::Madd,
            fmt: FpFmt::D,
            rd: FpReg::FT0,
            rs1: FpReg::FA1,
            rs2: FpReg::FA2,
            rs3: FpReg::FA3,
        }));
        fpss.offload(fp(Inst::FpCvtF2F { to: FpFmt::D, rd: FpReg::FT0, rs1: FpReg::FA4 }));
        fpss.offload(fp(Inst::FpSgnj {
            op: SgnjOp::Sgnj,
            fmt: FpFmt::D,
            rd: FpReg::FT0,
            rs1: FpReg::FA5,
            rs2: FpReg::FA5,
        }));
        for now in 0..8 {
            h.step(&mut fpss, now).unwrap();
            h.ssrs[0].step(&mut h.mem, &mut h.arb, crate::mem::TcdmPort::Ssr(0, 0)).unwrap();
        }
        assert!(fpss.drained(8) && !h.ssrs[0].busy(), "all three results stored");
        let stored: Vec<f64> =
            (0..3).map(|i| h.mem.read_f64(layout::TCDM_BASE + 8 * i).unwrap()).collect();
        assert_eq!(stored, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn stagger_remaps_selected_fields() {
        let entry = fp(Inst::FpFma {
            op: FmaOp::Madd,
            fmt: FpFmt::D,
            rd: FpReg::FA0,
            rs1: FpReg::FT0, // SSR candidate: never staggered
            rs2: FpReg::FA1,
            rs3: FpReg::FA0,
        });
        let mut s = entry;
        stagger_entry(&mut s, 0b1001, 2); // rd and rs3
        match s.inst {
            Inst::FpFma { rd, rs1, rs2, rs3, .. } => {
                assert_eq!(rd, FpReg::new(12));
                assert_eq!(rs1, FpReg::FT0);
                assert_eq!(rs2, FpReg::FA1, "unselected field untouched");
                assert_eq!(rs3, FpReg::new(12));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
