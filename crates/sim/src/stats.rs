//! Execution statistics and activity counters.
//!
//! [`Stats`] is both the performance report (cycles, issues, stalls) and the
//! activity interface consumed by the `snitch-energy` power model: every
//! energy-relevant event in the cluster increments exactly one counter here.

use snitch_trace::StallCause;

/// Counters collected over a simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total elapsed cycles.
    pub cycles: u64,

    // ---- instruction issue ----
    /// Integer-side instructions issued by the core (everything that is not
    /// offloaded to the FP subsystem, including FREP/SSR/DMA configuration).
    pub int_issued: u64,
    /// FP instructions issued by the integer core (offload pass-through,
    /// i.e. iteration 0 of FREP bodies and all non-FREP FP instructions).
    pub fp_issued_core: u64,
    /// FP instructions issued by the FREP sequencer (replayed iterations) —
    /// the *pseudo dual-issue* instructions.
    pub fp_issued_seq: u64,

    // ---- integer core stalls (cycles) ----
    /// Core stalled waiting on a busy integer source/destination register.
    pub stall_int_raw: u64,
    /// Core stalled because the single RF write-back port was already claimed
    /// for the cycle its result would retire (the paper's LCG hazard).
    pub stall_wb_port: u64,
    /// Core stalled pushing into a full offload FIFO.
    pub stall_offload_full: u64,
    /// Core stalled on an integer register pending an FP→int write-back
    /// (Type 3 serialization).
    pub stall_fp_pending: u64,
    /// Core stalled reconfiguring a still-active SSR streamer.
    pub stall_ssr_cfg: u64,
    /// Core stalled on the FPU fence CSR.
    pub stall_fence: u64,
    /// Cycles lost to taken-branch pipeline refill.
    pub stall_branch: u64,
    /// Core stalled on a TCDM bank conflict.
    pub stall_tcdm_conflict: u64,
    /// Integer load stalled behind queued FP stores (memory ordering).
    pub stall_store_order: u64,
    /// Core stalled at the cluster hardware barrier.
    pub stall_barrier: u64,

    // ---- instruction fetch ----
    /// Fetches served by the L0 loop buffer.
    pub l0_hits: u64,
    /// Fetches that missed L0 and were served by the L1 instruction cache.
    pub l0_misses: u64,

    // ---- FP subsystem ----
    /// FPU operations executed, by latency class.
    pub fpu_muladd_ops: u64,
    /// Short FP ops (compare/sign-inject/move/classify/COPIFT).
    pub fpu_short_ops: u64,
    /// Conversions.
    pub fpu_cvt_ops: u64,
    /// Divide/sqrt operations.
    pub fpu_divsqrt_ops: u64,
    /// FP loads/stores executed by the FP LSU (explicit, non-SSR).
    pub fp_mem_ops: u64,
    /// Cycles the FPU issued an operation.
    pub fpu_busy_cycles: u64,
    /// Cycles the sequencer was replaying (hardware-loop active).
    pub seq_active_cycles: u64,
    /// FPU issue stalled on a busy FP register.
    pub fpu_stall_raw: u64,
    /// FPU issue stalled on an empty SSR read FIFO or full SSR write FIFO.
    pub fpu_stall_ssr: u64,
    /// FPU issue stalled on a TCDM conflict for an FP load/store.
    pub fpu_stall_tcdm: u64,

    // ---- memory system ----
    /// TCDM accesses by the core LSU.
    pub tcdm_core_accesses: u64,
    /// TCDM accesses by the FP LSU.
    pub tcdm_fp_accesses: u64,
    /// TCDM accesses by the SSR streamers (data + index beats).
    pub tcdm_ssr_accesses: u64,
    /// TCDM accesses by the DMA engine.
    pub tcdm_dma_accesses: u64,
    /// Requests denied by the bank arbiter (retried next cycle).
    pub tcdm_conflicts: u64,
    /// Core accesses to main memory (slow path).
    pub main_mem_accesses: u64,
    /// Core accesses to the shared L2 region (interconnect path).
    pub l2_accesses: u64,

    // ---- SSR / DMA ----
    /// Data elements streamed per SSR.
    pub ssr_beats: [u64; 3],
    /// Cycles each SSR streamer was enabled (armed and not done).
    pub ssr_active_cycles: [u64; 3],
    /// Cycles the DMA engine was moving data (a beat performed). This is
    /// what the energy model charges per-cycle DMA activity against; cycles
    /// an active transfer lost to bank arbitration are counted separately
    /// in [`dma_blocked_cycles`](Self::dma_blocked_cycles).
    pub dma_busy_cycles: u64,
    /// Cycles an active DMA transfer was stalled by TCDM bank arbitration
    /// (no data moved, no datapath energy charged).
    pub dma_blocked_cycles: u64,
    /// 64-bit beats transferred by the DMA.
    pub dma_beats: u64,
    /// Cycles DMA segments spent in interconnect setup (L2 access latency
    /// plus per-hop latency for L2 / remote-cluster targets).
    pub dma_hop_cycles: u64,
}

impl Stats {
    /// Total instructions executed (integer + FP pass-through + sequencer
    /// replays).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.int_issued + self.fp_issued_core + self.fp_issued_seq
    }

    /// Total FP instructions executed.
    #[must_use]
    pub fn fp_instructions(&self) -> u64 {
        self.fp_issued_core + self.fp_issued_seq
    }

    /// Instructions per cycle over the whole run.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions() as f64 / self.cycles as f64
        }
    }

    /// The counter field tracking `cause` — the single mapping between the
    /// trace-event stall taxonomy and these counters. The simulator's single
    /// charge path books every stall through [`add_stall`](Self::add_stall)
    /// in the same call that emits the stall event and the profiler charge,
    /// so trace attribution and counters agree by construction.
    fn stall_field(&mut self, cause: StallCause) -> &mut u64 {
        match cause {
            StallCause::IntRaw => &mut self.stall_int_raw,
            StallCause::WbPort => &mut self.stall_wb_port,
            StallCause::OffloadFull => &mut self.stall_offload_full,
            StallCause::FpPending => &mut self.stall_fp_pending,
            StallCause::SsrCfg => &mut self.stall_ssr_cfg,
            StallCause::Fence => &mut self.stall_fence,
            StallCause::Branch => &mut self.stall_branch,
            StallCause::TcdmConflict => &mut self.stall_tcdm_conflict,
            StallCause::StoreOrder => &mut self.stall_store_order,
            StallCause::Barrier => &mut self.stall_barrier,
            StallCause::FpuRaw => &mut self.fpu_stall_raw,
            StallCause::FpuSsr => &mut self.fpu_stall_ssr,
            StallCause::FpuTcdm => &mut self.fpu_stall_tcdm,
        }
    }

    /// Adds `cycles` lost cycles to the counter tracking `cause`.
    pub fn add_stall(&mut self, cause: StallCause, cycles: u64) {
        *self.stall_field(cause) += cycles;
    }

    /// Reads the counter tracking `cause`.
    #[must_use]
    pub fn stall_by_cause(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::IntRaw => self.stall_int_raw,
            StallCause::WbPort => self.stall_wb_port,
            StallCause::OffloadFull => self.stall_offload_full,
            StallCause::FpPending => self.stall_fp_pending,
            StallCause::SsrCfg => self.stall_ssr_cfg,
            StallCause::Fence => self.stall_fence,
            StallCause::Branch => self.stall_branch,
            StallCause::TcdmConflict => self.stall_tcdm_conflict,
            StallCause::StoreOrder => self.stall_store_order,
            StallCause::Barrier => self.stall_barrier,
            StallCause::FpuRaw => self.fpu_stall_raw,
            StallCause::FpuSsr => self.fpu_stall_ssr,
            StallCause::FpuTcdm => self.fpu_stall_tcdm,
        }
    }

    /// Adds `other` field-wise into `self` (the per-core → cluster and
    /// per-cluster → system rollup; `cycles` is deliberately excluded —
    /// elapsed time does not sum across cores stepping in lockstep, the
    /// caller sets it).
    ///
    /// Addition saturates per counter, mirroring
    /// [`delta_since`](Self::delta_since): a rollup over many clusters of a
    /// pathological run must clamp at `u64::MAX` rather than panic in debug
    /// builds or silently wrap in release builds.
    pub fn accumulate(&mut self, other: &Stats) {
        let (a, b) = (self.counters(), other.counters());
        self.set_counters(&std::array::from_fn(|i| a[i].saturating_add(b[i])));
    }

    /// Difference of two stats snapshots (for steady-state windows):
    /// `self - earlier`, field by field.
    ///
    /// Subtraction saturates at zero per counter: steady-state window
    /// extraction differences snapshots taken mid-run (or from distinct
    /// runs whose prologues differ by a few cycles), and a window analysis
    /// must degrade to a zero delta rather than take the caller down.
    #[must_use]
    pub fn delta_since(&self, earlier: &Stats) -> Stats {
        let (a, b) = (self.counters(), earlier.counters());
        let mut d =
            Stats { cycles: self.cycles.saturating_sub(earlier.cycles), ..Stats::default() };
        d.set_counters(&std::array::from_fn(|i| a[i].saturating_sub(b[i])));
        d
    }
}

/// Lists every counter of [`Stats`] except `cycles`, in a fixed order, to
/// the macro `$m`: scalar fields by name, then the per-SSR arrays.
macro_rules! counters {
    ($m:ident) => {
        $m! {
            [
                int_issued,
                fp_issued_core,
                fp_issued_seq,
                stall_int_raw,
                stall_wb_port,
                stall_offload_full,
                stall_fp_pending,
                stall_ssr_cfg,
                stall_fence,
                stall_branch,
                stall_tcdm_conflict,
                stall_store_order,
                stall_barrier,
                l0_hits,
                l0_misses,
                fpu_muladd_ops,
                fpu_short_ops,
                fpu_cvt_ops,
                fpu_divsqrt_ops,
                fp_mem_ops,
                fpu_busy_cycles,
                seq_active_cycles,
                fpu_stall_raw,
                fpu_stall_ssr,
                fpu_stall_tcdm,
                tcdm_core_accesses,
                tcdm_fp_accesses,
                tcdm_ssr_accesses,
                tcdm_dma_accesses,
                tcdm_conflicts,
                main_mem_accesses,
                l2_accesses,
                dma_busy_cycles,
                dma_blocked_cycles,
                dma_beats,
                dma_hop_cycles,
            ],
            [ssr_beats, ssr_active_cycles]
        }
    };
}

macro_rules! counter_access {
    ([$($f:ident),* $(,)?], [$($a:ident),*]) => {
        /// The number of counters [`Stats::counters`] lists.
        pub(crate) const COUNTERS: usize = [$(stringify!($f)),*].len() + 3 * [$(stringify!($a)),*].len();

        impl Stats {
            /// Every counter but `cycles`, in a fixed order (the index
            /// [`add_counter`](Self::add_counter) takes).
            pub(crate) fn counters(&self) -> [u64; COUNTERS] {
                let mut out = [0; COUNTERS];
                let all = [$(self.$f),* $(, self.$a[0], self.$a[1], self.$a[2])*];
                out.copy_from_slice(&all);
                out
            }

            /// Overwrites every counter but `cycles` from `c`, in the
            /// order of [`counters`](Self::counters).
            pub(crate) fn set_counters(&mut self, c: &[u64; COUNTERS]) {
                let mut it = c.iter().copied();
                let mut next = || it.next().unwrap_or_default();
                $(self.$f = next();)*
                $(self.$a = [next(), next(), next()];)*
            }
        }
    };
}

counters!(counter_access);

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cycles            {:>12}", self.cycles)?;
        writeln!(
            f,
            "instructions      {:>12}  (int {} + fp-core {} + fp-seq {})",
            self.instructions(),
            self.int_issued,
            self.fp_issued_core,
            self.fp_issued_seq
        )?;
        writeln!(f, "ipc               {:>12.3}", self.ipc())?;
        writeln!(
            f,
            "stalls: raw {} wb-port {} offload {} fp-pending {} ssr-cfg {} fence {} branch {} tcdm {} barrier {}",
            self.stall_int_raw,
            self.stall_wb_port,
            self.stall_offload_full,
            self.stall_fp_pending,
            self.stall_ssr_cfg,
            self.stall_fence,
            self.stall_branch,
            self.stall_tcdm_conflict,
            self.stall_barrier
        )?;
        writeln!(f, "l0: hits {} misses {}", self.l0_hits, self.l0_misses)?;
        writeln!(
            f,
            "fpu ops: muladd {} short {} cvt {} divsqrt {} mem {}",
            self.fpu_muladd_ops,
            self.fpu_short_ops,
            self.fpu_cvt_ops,
            self.fpu_divsqrt_ops,
            self.fp_mem_ops
        )?;
        writeln!(
            f,
            "tcdm: core {} fp {} ssr {} dma {} conflicts {}  l2: {}",
            self.tcdm_core_accesses,
            self.tcdm_fp_accesses,
            self.tcdm_ssr_accesses,
            self.tcdm_dma_accesses,
            self.tcdm_conflicts,
            self.l2_accesses
        )?;
        write!(
            f,
            "ssr beats {:?}  dma: busy {} blocked {} beats {} hop {}",
            self.ssr_beats,
            self.dma_busy_cycles,
            self.dma_blocked_cycles,
            self.dma_beats,
            self.dma_hop_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(Stats::default().ipc(), 0.0);
    }

    #[test]
    fn instructions_sum_all_sources() {
        let s = Stats { int_issued: 10, fp_issued_core: 5, fp_issued_seq: 20, ..Stats::default() };
        assert_eq!(s.instructions(), 35);
        assert_eq!(s.fp_instructions(), 25);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let early = Stats { cycles: 100, int_issued: 50, ssr_beats: [1, 2, 3], ..Stats::default() };
        let late =
            Stats { cycles: 300, int_issued: 170, ssr_beats: [11, 22, 33], ..Stats::default() };
        let d = late.delta_since(&early);
        assert_eq!(d.cycles, 200);
        assert_eq!(d.int_issued, 120);
        assert_eq!(d.ssr_beats, [10, 20, 30]);
    }

    #[test]
    fn delta_saturates_on_reversed_counters() {
        // A mid-run snapshot pair can have individual counters "go
        // backwards" (e.g. comparing windows of two separate runs); the
        // delta must clamp at zero per field instead of panicking.
        let early = Stats { cycles: 100, int_issued: 80, ssr_beats: [5, 0, 0], ..Stats::default() };
        let late = Stats { cycles: 300, int_issued: 40, ssr_beats: [2, 9, 0], ..Stats::default() };
        let d = late.delta_since(&early);
        assert_eq!(d.cycles, 200);
        assert_eq!(d.int_issued, 0, "reversed counter clamps to zero");
        assert_eq!(d.ssr_beats, [0, 9, 0]);
        // And the fully reversed pair is all zeros, not a panic.
        let z = early.delta_since(&late);
        assert_eq!(z.cycles, 0);
    }

    #[test]
    fn accumulate_saturates_instead_of_wrapping() {
        let mut total = Stats {
            int_issued: u64::MAX - 5,
            ssr_beats: [u64::MAX, 0, 3],
            dma_hop_cycles: 10,
            ..Stats::default()
        };
        let part = Stats {
            int_issued: 100,
            l2_accesses: 7,
            ssr_beats: [1, 2, 3],
            dma_hop_cycles: 4,
            ..Stats::default()
        };
        total.accumulate(&part);
        assert_eq!(total.int_issued, u64::MAX, "per-counter saturation, not wraparound");
        assert_eq!(total.ssr_beats, [u64::MAX, 2, 6]);
        assert_eq!(total.l2_accesses, 7);
        assert_eq!(total.dma_hop_cycles, 14);
        assert_eq!(total.cycles, 0, "cycles stay caller-owned");
    }

    #[test]
    fn stall_accessors_cover_every_cause() {
        let mut s = Stats::default();
        for (i, cause) in StallCause::all().into_iter().enumerate() {
            s.add_stall(cause, (i + 1) as u64);
        }
        for (i, cause) in StallCause::all().into_iter().enumerate() {
            assert_eq!(s.stall_by_cause(cause), (i + 1) as u64, "{cause}");
        }
        // Spot-check the mapping against the named fields.
        assert_eq!(s.stall_int_raw, 1);
        assert_eq!(s.stall_barrier, 10);
        assert_eq!(s.fpu_stall_tcdm, 13);
    }
}
