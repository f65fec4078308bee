//! The cluster top level: wiring, the cycle loop and the public run API.

use snitch_asm::program::Program;
use snitch_profile::Profiler;
use snitch_riscv::reg::{FpReg, IntReg};
use snitch_trace::{EventKind, TraceEvent, Tracer, CLUSTER_HART};

use crate::block::BlockCache;
use crate::charge::Charge;
use crate::config::ClusterConfig;
use crate::core::{Decoded, IntCore};
use crate::dma::Dma;
use crate::error::{RunError, SimFault};
use crate::fpss::Fpss;
use crate::icache::L0Cache;
use crate::mem::{Memory, TcdmArbiter, TcdmPort};
use crate::ssr::Ssr;
use crate::stats::Stats;

#[cfg(any(test, feature = "testing"))]
mod reference;

/// Cycles without any unit making progress before a deadlock is declared.
const DEADLOCK_WINDOW: u64 = 50_000;

/// The issue counters a hart's work moves: the core slot (integer issues
/// and FP offloads) and the FPU (every FP issue, core or sequencer). They
/// change ⇔ the hart did work this cycle — the deadlock detector's progress
/// signal.
fn issue_work(stats: &Stats) -> u64 {
    stats.int_issued + stats.fp_issued_core + stats.fpu_busy_cycles
}

/// Books the cluster-shared events of cycle `now`, after the DMA step: the
/// DMA engine's TCDM accesses, then the arbiter's newly denied requests.
fn trace_shared_units(tracer: &mut Tracer, now: u64, dma_accesses: u32, new_conflicts: u64) {
    if dma_accesses > 0 {
        tracer.record(now, CLUSTER_HART, EventKind::DmaActive { count: dma_accesses });
    }
    if new_conflicts > 0 {
        tracer.record(now, CLUSTER_HART, EventKind::BankConflicts { count: new_conflicts as u32 });
    }
}

/// The hardware barrier: once `waiting` harts have arrived and every other
/// hart has halted, releases every waiting hart in the same cycle (halted
/// harts count as arrived, so a partial shutdown can never deadlock the
/// rest). Returns the new number of waiting harts.
fn release_barrier(
    units: &mut [CoreUnit],
    tracer: &mut Option<Tracer>,
    now: u64,
    waiting: usize,
    halted: usize,
) -> usize {
    if waiting == 0 || waiting + halted < units.len() {
        return waiting;
    }
    for unit in units.iter_mut().filter(|u| u.core.barrier_waiting()) {
        unit.core.release_barrier();
        if let Some(t) = tracer {
            t.record(now, unit.core.hart_id() as u8, EventKind::BarrierRelease);
        }
    }
    0
}

/// Everything private to one compute core (hart): the integer pipeline, its
/// FP subsystem, the three SSR streamers, the L0 instruction buffer and the
/// hart's own statistics. The TCDM, its bank arbiter, the DMA engine and the
/// hardware barrier are cluster-shared.
#[derive(Clone, Debug)]
struct CoreUnit {
    core: IntCore,
    fpss: Fpss,
    ssrs: [Ssr; 3],
    l0: L0Cache,
    stats: Stats,
}

impl CoreUnit {
    fn new(hart: u32, cfg: &ClusterConfig) -> Self {
        CoreUnit {
            core: IntCore::new(hart, cfg),
            fpss: Fpss::new(cfg),
            ssrs: [
                Ssr::new(cfg.ssr_fifo_depth),
                Ssr::new(cfg.ssr_fifo_depth),
                Ssr::new(cfg.ssr_fifo_depth),
            ],
            l0: L0Cache::new(cfg.l0_capacity),
            stats: Stats::default(),
        }
    }

    /// Whether every call of a cycle would be a no-op for this hart: halted
    /// or inside its `stall_until` window, with an idle FP subsystem and
    /// quiescent streamers.
    fn silent(&self, now: u64) -> bool {
        (self.core.halted() || self.core.stall_until() > now)
            && self.fpss.idle_now()
            && self.ssrs.iter().all(Ssr::quiescent)
    }

    /// Whether the FP subsystem has retired all its work and no streamer is
    /// busy: the post-halt drain's exit test.
    fn drained(&self, now: u64) -> bool {
        self.fpss.drained(now) && !self.ssrs.iter().any(Ssr::busy)
    }

    /// One burst cycle of this (non-silent) hart, in the reference order:
    /// FP→int write-backs, one issue through the block cache, the FP
    /// subsystem and the streamers — each skipped when provably a no-op.
    /// Returns whether the hart made progress (issued, or streamed a beat).
    #[allow(clippy::too_many_arguments, clippy::inline_always)]
    #[inline(always)]
    fn burst_cycle(
        &mut self,
        now: u64,
        cfg: &ClusterConfig,
        text: &[Decoded],
        blocks: &BlockCache,
        mem: &mut Memory,
        arb: &mut TcdmArbiter,
        dma: &mut Dma,
        tracer: &mut Option<Tracer>,
        profiler: &mut Option<Profiler>,
    ) -> Result<bool, SimFault> {
        let CoreUnit { core, fpss, ssrs, l0, stats } = self;
        let issued_before = issue_work(stats);
        fpss.drain_int_writebacks(now, |wb| core.apply_writeback(wb.rd, wb.value, now));
        let hart = core.hart_id() as u8;
        let mut charge = Charge::new(hart, stats, tracer, profiler);
        if !core.halted() && core.stall_until() <= now {
            core.step_block(
                now,
                cfg,
                text,
                blocks.ops(),
                l0,
                mem,
                arb,
                fpss,
                ssrs,
                dma,
                &mut charge,
            )?;
        }
        // Checked after the issue: a just-offloaded op must step this
        // cycle. When still idle, `step` is a pure no-op.
        if !fpss.idle_now() {
            fpss.step(now, cfg, mem, arb, ssrs, &mut charge)?;
        }
        let mut progressed = false;
        for (i, ssr) in ssrs.iter_mut().enumerate() {
            if ssr.quiescent() {
                continue;
            }
            let accesses = ssr.step(mem, arb, TcdmPort::Ssr(hart, i as u8))?;
            charge.stats.tcdm_ssr_accesses += u64::from(accesses);
            progressed |= accesses > 0;
            if accesses > 0 {
                charge.event(now, || EventKind::SsrBeat { ssr: i as u8, count: accesses });
            }
            if ssr.armed() {
                charge.stats.ssr_active_cycles[i] += 1;
            }
            charge.stats.ssr_beats[i] = ssr.beats();
        }
        Ok(progressed || issue_work(charge.stats) != issued_before)
    }
}

/// A simulated Snitch compute cluster: `cores` integer cores, each with its
/// own FP subsystem, three SSR streamers and L0 instruction buffer, all
/// sharing the banked TCDM (through the bank arbiter), one DMA engine and a
/// hardware barrier.
///
/// Single-core programs (the default) boot only hart 0; SPMD programs built
/// with [`ProgramBuilder::parallel`](snitch_asm::builder::ProgramBuilder::parallel)
/// boot every hart at the entry point and branch on `mhartid`.
///
/// # Example
///
/// ```
/// use snitch_asm::builder::ProgramBuilder;
/// use snitch_riscv::reg::IntReg;
/// use snitch_sim::cluster::Cluster;
/// use snitch_sim::config::ClusterConfig;
///
/// let mut b = ProgramBuilder::new();
/// b.li(IntReg::A0, 21);
/// b.add(IntReg::A0, IntReg::A0, IntReg::A0);
/// b.ecall();
/// let program = b.build()?;
///
/// let mut cluster = Cluster::new(ClusterConfig::default());
/// cluster.load_program(&program);
/// let stats = cluster.run()?;
/// assert_eq!(cluster.int_reg(IntReg::A0), 42);
/// assert!(stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    text: Vec<Decoded>,
    units: Vec<CoreUnit>,
    dma: Dma,
    mem: Memory,
    arb: TcdmArbiter,
    /// Cluster-level rollup of all per-hart statistics plus the shared
    /// counters (refreshed at the end of every `run`).
    stats: Stats,
    /// TCDM accesses performed by the shared DMA engine.
    tcdm_dma_accesses: u64,
    cycle: u64,
    /// Last cycle on which any unit did observable work (issued, streamed a
    /// beat, moved a DMA byte) — maintained O(1) per cycle from what each
    /// unit's step reports; the deadlock detector counts from it.
    last_progress_cycle: u64,
    /// Harts currently halted (maintained on the `ecall` transition, so the
    /// run loop's exit test is one integer compare instead of an all-units
    /// scan per cycle).
    halted_count: usize,
    /// Harts currently stalled at the hardware barrier (maintained on
    /// arrive/release transitions, same reasoning).
    barrier_waiting_count: usize,
    /// Runs the per-cycle reference stepper instead of the block burst (the
    /// differential suites' oracle; see `set_block_compile`).
    #[cfg(any(test, feature = "testing"))]
    stepped: bool,
    /// Cycles executed inside the block burst (diagnostic; not part of
    /// [`Stats`] — replayed cycles are ordinary elapsed cycles).
    block_replayed_cycles: u64,
    /// The text section pre-lowered into burst micro-ops (rebuilt by
    /// [`load_program`](Self::load_program)).
    blocks: BlockCache,
    /// Event collector, attached when `cfg.trace` is set (or explicitly via
    /// [`attach_tracer`](Self::attach_tracer)). `None` is the hot path:
    /// every emission site is a single branch and constructs nothing.
    tracer: Option<Tracer>,
    /// Cycle-profile collector, attached when `cfg.profile` is set (or
    /// explicitly via [`attach_profiler`](Self::attach_profiler)). Charges
    /// are O(1) array increments.
    profiler: Option<Profiler>,
}

impl Cluster {
    /// Creates an empty cluster.
    #[must_use]
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(
            (1..=32).contains(&cfg.cores),
            "cluster size {} outside the supported 1..=32 cores",
            cfg.cores
        );
        let units = (0..cfg.cores).map(|h| CoreUnit::new(h as u32, &cfg)).collect();
        let dma = Dma::with_interconnect(
            cfg.dma_bytes_per_cycle,
            cfg.l2_latency,
            cfg.l2_bytes_per_cycle,
            cfg.hop_latency,
        );
        let arb = TcdmArbiter::new(cfg.tcdm_banks);
        let tracer = cfg.trace.then(Tracer::new);
        let profiler = cfg.profile.then(Profiler::new);
        Cluster {
            cfg,
            text: Vec::new(),
            units,
            dma,
            mem: Memory::new(),
            arb,
            stats: Stats::default(),
            tcdm_dma_accesses: 0,
            cycle: 0,
            last_progress_cycle: 0,
            halted_count: 0,
            barrier_waiting_count: 0,
            #[cfg(any(test, feature = "testing"))]
            stepped: false,
            block_replayed_cycles: 0,
            blocks: BlockCache::default(),
            tracer,
            profiler,
        }
    }

    /// Loads a program (text + memory images) and resets execution state.
    /// Non-parallel programs boot only hart 0 (secondary harts park halted);
    /// [`Program::parallel`] programs boot every hart at the entry point.
    pub fn load_program(&mut self, program: &Program) {
        self.text = program.text().iter().copied().map(Decoded::new).collect();
        self.blocks.recompile(&self.text, &self.cfg);
        self.mem.load_images(program.tcdm_image(), program.main_image());
        self.mem.load_l2(program.l2_image());
        let mut halted = 0;
        for (h, unit) in self.units.iter_mut().enumerate() {
            unit.core.reset(h as u32);
            if h > 0 && !program.parallel() {
                unit.core.force_halt();
                halted += 1;
            }
        }
        self.halted_count = halted;
        self.barrier_waiting_count = 0;
        if let Some(p) = &mut self.profiler {
            p.size(self.units.len(), self.text.len());
        }
    }

    /// Restores the cluster to its just-constructed state while reusing
    /// the per-unit queues and tables, and drops the guest memory in
    /// constant time (the next [`load_program`](Self::load_program) sizes
    /// each memory region afresh to its image), so one `Cluster` can
    /// execute a stream of jobs at a reset cost independent of what the
    /// previous job touched.
    ///
    /// After `reset()` + [`load_program`](Self::load_program), a run is
    /// bit-identical (results *and* [`Stats`]) to one on a fresh
    /// `Cluster::new(cfg)` — the determinism guarantee `snitch-engine`'s
    /// worker pool relies on, pinned by the reset/fresh-equivalence tests.
    pub fn reset(&mut self) {
        self.text.clear();
        self.mem.clear();
        for (h, unit) in self.units.iter_mut().enumerate() {
            unit.core.reset(h as u32);
            unit.fpss.reset();
            for ssr in &mut unit.ssrs {
                ssr.reset();
            }
            unit.l0.reset();
            unit.stats = Stats::default();
        }
        self.dma.reset();
        self.arb.reset();
        self.stats = Stats::default();
        self.tcdm_dma_accesses = 0;
        self.cycle = 0;
        self.last_progress_cycle = 0;
        self.halted_count = 0;
        self.barrier_waiting_count = 0;
        self.block_replayed_cycles = 0;
        self.blocks.clear();
        self.tracer = self.cfg.trace.then(Tracer::new);
        self.profiler = self.cfg.profile.then(Profiler::new);
    }

    /// Takes the cluster back to the state `load_program(program)` left it
    /// in before a run: [`reset`](Self::reset) and reload, but keeping the
    /// attached profiler and the attached tracer with its first `trace_len`
    /// events (those recorded before the run).
    pub(crate) fn rewind(&mut self, program: &Program, trace_len: usize) {
        let (mut tracer, profiler) = (self.tracer.take(), self.profiler.take());
        self.reset();
        if let Some(t) = &mut tracer {
            t.truncate(trace_len);
        }
        (self.tracer, self.profiler) = (tracer, profiler);
        self.load_program(program);
    }

    /// The current cycle.
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The configuration this cluster was built with.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of compute cores in this cluster.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.units.len()
    }

    /// The cluster-level statistics rollup: per-hart counters summed, plus
    /// the shared DMA/arbiter counters. With `cores = 1` this is exactly the
    /// single core's statistics.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The statistics of one hart (cluster-shared counters — DMA, TCDM
    /// conflicts — are reported only in the [`stats`](Self::stats) rollup).
    ///
    /// # Panics
    ///
    /// Panics if `hart >= cores`.
    #[must_use]
    pub fn core_stats(&self, hart: usize) -> &Stats {
        &self.units[hart].stats
    }

    /// The data memory (for result validation after a run).
    #[must_use]
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable data memory (for the `System`'s L2 / peer-window sync).
    pub(crate) fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Places this cluster at index `cluster_id` of a `clusters`-cluster
    /// system: every core's `CSR_CLUSTER_ID` reads the index, and the other
    /// clusters' TCDM alias windows become mapped (snapshot-backed).
    /// Identity is physical — it survives [`reset`](Self::reset).
    pub fn join_system(&mut self, clusters: usize, cluster_id: usize) {
        for unit in &mut self.units {
            unit.core.set_cluster_id(cluster_id as u32);
        }
        self.mem.enable_peers(clusters, cluster_id);
    }

    /// Attaches an event collector (replacing any existing one). A cluster
    /// built from a [`ClusterConfig`] with `trace` set already carries a
    /// recording tracer; this entry point attaches one explicitly. Traced or
    /// not, the run takes the same block burst.
    ///
    /// Note that [`reset`](Self::reset) restores the config-driven state:
    /// a fresh (empty) tracer when `cfg.trace` is set, none otherwise.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// The events recorded so far, if a tracer is attached.
    #[must_use]
    pub fn trace_events(&self) -> Option<&[TraceEvent]> {
        self.tracer.as_ref().map(Tracer::events)
    }

    /// Detaches the tracer (if any) and returns it with its events.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Attaches a cycle-profile collector (replacing any existing one). A
    /// cluster built from a [`ClusterConfig`] with `profile` set already
    /// carries a recording profiler; this entry point attaches one
    /// explicitly. Attach *before* [`load_program`](Self::load_program),
    /// which sizes the histograms to the text section.
    ///
    /// Note that [`reset`](Self::reset) restores the config-driven state:
    /// a fresh profiler when `cfg.profile` is set, none otherwise.
    pub fn attach_profiler(&mut self, profiler: Profiler) {
        self.profiler = Some(profiler);
    }

    /// The cycle profile collected so far, if a profiler is attached.
    #[must_use]
    pub fn profile(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Detaches the profiler (if any) and returns it with its histograms.
    pub fn take_profiler(&mut self) -> Option<Profiler> {
        self.profiler.take()
    }

    /// Reads an integer register of hart 0.
    #[must_use]
    pub fn int_reg(&self, r: IntReg) -> u32 {
        self.int_reg_of(0, r)
    }

    /// Reads an integer register of `hart`.
    ///
    /// # Panics
    ///
    /// Panics if `hart >= cores`.
    #[must_use]
    pub fn int_reg_of(&self, hart: usize, r: IntReg) -> u32 {
        self.units[hart].core.reg(r)
    }

    /// Reads an FP register's raw bits (hart 0).
    #[must_use]
    pub fn fp_reg(&self, r: FpReg) -> u64 {
        self.fp_reg_of(0, r)
    }

    /// Reads an FP register's raw bits of `hart`.
    ///
    /// # Panics
    ///
    /// Panics if `hart >= cores`.
    #[must_use]
    pub fn fp_reg_of(&self, hart: usize, r: FpReg) -> u64 {
        self.units[hart].fpss.reg(r)
    }

    /// Whether every hart has halted (`ecall`).
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted_count == self.units.len()
    }

    /// Always 0: the run loop has no quiescent skip any more (the block
    /// burst's silent jump covers those windows). Kept because
    /// `perfbench/src/layers.rs` reads it.
    #[must_use]
    pub fn skipped_cycles(&self) -> u64 {
        0
    }

    /// Cycles executed inside the block burst: every elapsed cycle, unless
    /// the reference stepper ran the cluster. Diagnostic only: replayed
    /// cycles are ordinary elapsed cycles in every statistic.
    #[must_use]
    pub fn block_replayed_cycles(&self) -> u64 {
        self.block_replayed_cycles
    }

    /// Recomputes the cluster rollup from the per-hart statistics and the
    /// shared DMA/arbiter counters.
    fn refresh_rollup(&mut self) {
        let mut roll = Stats::default();
        for unit in &mut self.units {
            unit.stats.cycles = self.cycle;
            roll.accumulate(&unit.stats);
        }
        roll.cycles = self.cycle;
        roll.tcdm_dma_accesses = self.tcdm_dma_accesses;
        roll.dma_busy_cycles = self.dma.busy_cycles();
        roll.dma_blocked_cycles = self.dma.blocked_cycles();
        roll.dma_beats = self.dma.beats();
        roll.dma_hop_cycles = self.dma.hop_cycles();
        roll.tcdm_conflicts = self.arb.conflicts();
        self.stats = roll;
    }

    /// Runs until every hart executes `ecall` and the FP work in flight
    /// retires.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Timeout`] if the watchdog limit is reached,
    /// [`RunError::Deadlock`] if no unit makes progress for an extended
    /// window, and [`RunError::Fault`] on machine faults.
    pub fn run(&mut self) -> Result<Stats, RunError> {
        let result = self.run_inner(u64::MAX);
        self.refresh_rollup();
        result.map(|_| self.stats.clone())
    }

    /// [`run`](Self::run), pausing once the clock reaches `until`:
    /// `Ok(None)` means paused, and calling again resumes. Pausing changes
    /// nothing the run computes: the burst stops at exactly `until` and
    /// resumes from the state it left, and the post-halt drain never pauses.
    pub(crate) fn run_until(&mut self, until: u64) -> Result<Option<Stats>, RunError> {
        match self.run_inner(until) {
            Ok(false) => Ok(None),
            result => {
                self.refresh_rollup();
                result.map(|_| Some(self.stats.clone()))
            }
        }
    }

    /// Runs to completion, or until the clock reaches `until`; returns
    /// whether the run completed.
    fn run_inner(&mut self, until: u64) -> Result<bool, RunError> {
        if self.text.is_empty() {
            return Err(RunError::PcOutOfRange { pc: self.units[0].core.pc() });
        }
        #[cfg(any(test, feature = "testing"))]
        if self.stepped {
            return self.run_stepped(until);
        }
        if self.block_burst(self.cfg.max_cycles.min(until))? {
            Ok(true)
        } else if self.cycle >= self.cfg.max_cycles {
            Err(RunError::Timeout { cycles: self.cycle })
        } else {
            Ok(false)
        }
    }

    /// The run loop. Each cycle follows the reference order — arbiter
    /// cycle, then hart by hart write-back drain, issue, FP subsystem and
    /// streamers, then the DMA engine, then the barrier release — and emits
    /// the same trace events at the same points, but issues through the
    /// block cache and skips every call that is provably a no-op: harts
    /// that are *silent* (halted or inside their `stall_until` window, with
    /// an idle FP subsystem and quiescent streamers), idle FP subsystems,
    /// quiescent streamers and an idle DMA engine. A cycle on which every
    /// hart is silent, some hart still runs, the DMA engine is idle and
    /// nobody waits at the barrier jumps straight to the earliest resume
    /// cycle, clamped to `stop` and to the deadlock deadline.
    ///
    /// Once every hart has halted, the loop keeps stepping cycle by cycle,
    /// past `stop`, until every FP subsystem has drained and no streamer is
    /// busy, so post-run register and memory reads are complete.
    ///
    /// Returns `Ok(true)` when the run completed and `Ok(false)` at cycle
    /// `stop` (the timeout or the pause boundary). Reports
    /// [`RunError::Deadlock`] after [`DEADLOCK_WINDOW`] cycles without
    /// progress, or of draining.
    fn block_burst(&mut self, stop: u64) -> Result<bool, RunError> {
        let start = self.cycle;
        let mut burst = Burst {
            conflicts_seen: self.arb.conflicts(),
            cfg: &self.cfg,
            text: &self.text,
            units: &mut self.units,
            dma: &mut self.dma,
            mem: &mut self.mem,
            arb: &mut self.arb,
            tcdm_dma_accesses: &mut self.tcdm_dma_accesses,
            blocks: &self.blocks,
            tracer: &mut self.tracer,
            profiler: &mut self.profiler,
            now: start,
            last_progress: self.last_progress_cycle,
            halted: self.halted_count,
            waiting: self.barrier_waiting_count,
        };
        let result = burst.run(stop);
        let Burst { now, last_progress, halted, waiting, .. } = burst;
        self.cycle = now;
        self.last_progress_cycle = last_progress;
        self.halted_count = halted;
        self.barrier_waiting_count = waiting;
        self.block_replayed_cycles += now - start;
        result
    }
}

/// The program counter of the first non-halted hart (hart 0 when all have
/// halted) — the most useful single pc for a deadlock report.
fn stuck_pc(units: &[CoreUnit]) -> u32 {
    units.iter().find(|u| !u.core.halted()).unwrap_or(&units[0]).core.pc()
}

/// One [`Cluster::block_burst`] call: the cluster's parts it drives and its
/// run-loop counters, written back when the burst returns.
struct Burst<'c> {
    cfg: &'c ClusterConfig,
    text: &'c [Decoded],
    units: &'c mut [CoreUnit],
    dma: &'c mut Dma,
    mem: &'c mut Memory,
    arb: &'c mut TcdmArbiter,
    tcdm_dma_accesses: &'c mut u64,
    blocks: &'c BlockCache,
    tracer: &'c mut Option<Tracer>,
    profiler: &'c mut Option<Profiler>,
    now: u64,
    last_progress: u64,
    halted: usize,
    waiting: usize,
    /// The arbiter's conflict count the tracer has seen (conflicts only
    /// change inside a cycle, so this is also the count at its start).
    conflicts_seen: u64,
}

impl Burst<'_> {
    /// Runs until every hart has halted, then drains; see
    /// [`Cluster::block_burst`]. The drain has a loop of its own so the
    /// running loop carries none of its tests.
    fn run(&mut self, stop: u64) -> Result<bool, RunError> {
        while self.halted < self.units.len() {
            if self.now >= stop {
                return Ok(false);
            }
            let (progressed, silent_until) = self.cycle()?;
            if let Some(wake) = silent_until {
                // Nothing acted and nothing can until the earliest resume:
                // jump there. (A silent cycle makes no progress.)
                self.now = wake.min(stop).min(self.last_progress + DEADLOCK_WINDOW + 1);
            } else {
                self.now += 1;
                if progressed {
                    self.last_progress = self.now;
                }
            }
            if self.now - self.last_progress > DEADLOCK_WINDOW {
                return Err(RunError::Deadlock { cycle: self.now, pc: stuck_pc(self.units) });
            }
        }
        let drain_start = self.now;
        while !self.units.iter().all(|u| u.drained(self.now)) {
            self.cycle()?;
            self.now += 1;
            if self.now - drain_start > DEADLOCK_WINDOW {
                return Err(RunError::Deadlock { cycle: self.now, pc: stuck_pc(self.units) });
            }
        }
        Ok(true)
    }

    /// One cycle at `now`, without advancing the clock. Returns whether any
    /// unit made progress and, when every hart was silent, the DMA engine
    /// idle and nobody waits at the barrier, the earliest resume cycle over
    /// the running harts (`u64::MAX` when none runs). A fault aborts the
    /// cycle; the halt and barrier transitions seen so far still count.
    /// Forced inline into both loops, and [`CoreUnit::burst_cycle`] into
    /// it: left to the compiler, one of them is outlined and the one-hart
    /// loop pays a call per simulated cycle.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn cycle(&mut self) -> Result<(bool, Option<u64>), SimFault> {
        let now = self.now;
        self.arb.begin_cycle();
        let mut progressed = false;
        let mut all_silent = true;
        let mut wake = u64::MAX;
        for unit in self.units.iter_mut() {
            if unit.silent(now) {
                if !unit.core.halted() {
                    wake = wake.min(unit.core.stall_until());
                }
                continue;
            }
            all_silent = false;
            let (was_halted, was_waiting) = (unit.core.halted(), unit.core.barrier_waiting());
            let r = unit.burst_cycle(
                now,
                self.cfg,
                self.text,
                self.blocks,
                self.mem,
                self.arb,
                self.dma,
                self.tracer,
                self.profiler,
            );
            self.halted += usize::from(!was_halted && unit.core.halted());
            self.waiting += usize::from(!was_waiting && unit.core.barrier_waiting());
            progressed |= r?;
        }
        let mut dma_accesses = 0;
        if !self.dma.idle() {
            all_silent = false;
            let dma_beats_before = self.dma.beats();
            dma_accesses = self.dma.step(self.mem, self.arb)?;
            *self.tcdm_dma_accesses += u64::from(dma_accesses);
            progressed |= self.dma.beats() != dma_beats_before;
        }
        if let Some(t) = self.tracer.as_mut() {
            let conflicts = self.arb.conflicts();
            trace_shared_units(t, now, dma_accesses, conflicts - self.conflicts_seen);
            self.conflicts_seen = conflicts;
        }
        self.waiting = release_barrier(self.units, self.tracer, now, self.waiting, self.halted);
        Ok((progressed, (all_silent && self.waiting == 0).then_some(wake)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_asm::builder::ProgramBuilder;
    use snitch_asm::layout::TCDM_BASE;
    use snitch_riscv::reg::FpReg;

    fn run_program(build: impl FnOnce(&mut ProgramBuilder)) -> (Cluster, Stats) {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let p = b.build().expect("assembles");
        let mut c = Cluster::new(ClusterConfig::default());
        c.load_program(&p);
        let stats = c.run().expect("runs to completion");
        (c, stats)
    }

    #[test]
    fn arithmetic_and_branches() {
        // Sum 1..=10 with a loop.
        let (c, stats) = run_program(|b| {
            b.li(IntReg::A0, 10);
            b.li(IntReg::A1, 0);
            b.label("loop");
            b.add(IntReg::A1, IntReg::A1, IntReg::A0);
            b.addi(IntReg::A0, IntReg::A0, -1);
            b.bnez(IntReg::A0, "loop");
            b.ecall();
        });
        assert_eq!(c.int_reg(IntReg::A1), 55);
        // 3 insts * 10 iterations + 2 li + ecall = 33 issued.
        assert_eq!(stats.int_issued, 33);
        // 9 taken branches * 2-cycle penalty.
        assert_eq!(stats.stall_branch, 18);
    }

    #[test]
    fn load_store_roundtrip() {
        let (c, _) = run_program(|b| {
            let buf = b.tcdm_u32("buf", &[7, 0]);
            b.li_u(IntReg::A0, buf);
            b.lw(IntReg::A1, IntReg::A0, 0);
            b.slli(IntReg::A1, IntReg::A1, 2);
            b.sw(IntReg::A1, IntReg::A0, 4);
            b.ecall();
        });
        assert_eq!(c.mem().read(TCDM_BASE + 4, 4).unwrap(), 28);
    }

    #[test]
    fn load_use_stall_costs_one_cycle() {
        // lw then immediately use: one RAW stall cycle (load_latency 2).
        let (_, stats) = run_program(|b| {
            let buf = b.tcdm_u32("buf", &[5]);
            b.li_u(IntReg::A0, buf);
            b.lw(IntReg::A1, IntReg::A0, 0);
            b.addi(IntReg::A1, IntReg::A1, 1);
            b.ecall();
        });
        assert_eq!(stats.stall_int_raw, 1);
    }

    #[test]
    fn mul_wb_port_structural_hazard() {
        // mul (wb at +2) followed by an independent ALU op (wb at +2 from the
        // next cycle → collision): exactly the paper's LCG hazard.
        let (_, stats) = run_program(|b| {
            b.li(IntReg::A0, 3);
            b.li(IntReg::A1, 4);
            b.li(IntReg::A3, 1);
            b.mul(IntReg::A2, IntReg::A0, IntReg::A1);
            b.addi(IntReg::A4, IntReg::A3, 1); // independent, collides on WB
            b.ecall();
        });
        assert_eq!(stats.stall_wb_port, 1);
    }

    #[test]
    fn two_wb_ports_remove_the_hazard() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::A0, 3);
        b.li(IntReg::A1, 4);
        b.li(IntReg::A3, 1);
        b.mul(IntReg::A2, IntReg::A0, IntReg::A1);
        b.addi(IntReg::A4, IntReg::A3, 1);
        b.ecall();
        let p = b.build().unwrap();
        let cfg = ClusterConfig { int_wb_ports: 2, ..ClusterConfig::default() };
        let mut c = Cluster::new(cfg);
        c.load_program(&p);
        let stats = c.run().unwrap();
        assert_eq!(stats.stall_wb_port, 0);
    }

    #[test]
    fn fp_offload_and_fence() {
        let (c, stats) = run_program(|b| {
            let xs = b.tcdm_f64("xs", &[1.5, 2.25]);
            b.li_u(IntReg::A0, xs);
            b.fld(FpReg::FA0, IntReg::A0, 0);
            b.fld(FpReg::FA1, IntReg::A0, 8);
            b.fadd_d(FpReg::FA2, FpReg::FA0, FpReg::FA1);
            b.fsd(FpReg::FA2, IntReg::A0, 8);
            b.fpu_fence();
            b.ecall();
        });
        assert_eq!(c.mem().read_f64(TCDM_BASE + 8).unwrap(), 3.75);
        assert_eq!(stats.fp_issued_core, 4);
        assert_eq!(stats.fp_issued_seq, 0, "no FREP in this program");
        assert!(stats.stall_fence > 0, "fence waited for the FPU");
    }

    #[test]
    fn fp_to_int_writeback_serializes() {
        let (c, stats) = run_program(|b| {
            let xs = b.tcdm_f64("xs", &[1.0, 2.0]);
            b.li_u(IntReg::A0, xs);
            b.fld(FpReg::FA0, IntReg::A0, 0);
            b.fld(FpReg::FA1, IntReg::A0, 8);
            b.flt_d(IntReg::A1, FpReg::FA0, FpReg::FA1);
            b.addi(IntReg::A2, IntReg::A1, 10); // waits for the FPSS
            b.ecall();
        });
        assert_eq!(c.int_reg(IntReg::A2), 11);
        assert!(stats.stall_fp_pending > 0, "Type 3 dependency stalled the core");
    }

    #[test]
    fn frep_dual_issue_overlaps_int_work() {
        // FP thread: 4-instruction body accumulating from fa1..fa4 into
        // fs0..fs3, replayed 32 times. Int thread: independent counter loop.
        // Dual issue ⇒ both retire concurrently, IPC > 1.
        let (c, stats) = run_program(|b| {
            let xs = b.tcdm_f64("xs", &[0.25, 0.5, 1.0, 2.0]);
            b.li_u(IntReg::A0, xs);
            b.fld(FpReg::FA1, IntReg::A0, 0);
            b.fld(FpReg::FA2, IntReg::A0, 8);
            b.fld(FpReg::FA3, IntReg::A0, 16);
            b.fld(FpReg::FA4, IntReg::A0, 24);
            b.li(IntReg::T0, 31); // 32 total iterations
            b.frep_o(IntReg::T0, 4, 0, 0);
            b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FA1);
            b.fadd_d(FpReg::FS1, FpReg::FS1, FpReg::FA2);
            b.fadd_d(FpReg::FS2, FpReg::FS2, FpReg::FA3);
            b.fadd_d(FpReg::FS3, FpReg::FS3, FpReg::FA4);
            // Integer thread: unrolled busy loop (32 iterations x 4 adds),
            // so the taken-branch penalty does not dominate.
            b.li(IntReg::A1, 32);
            b.label("int_loop");
            b.addi(IntReg::T3, IntReg::T3, 1);
            b.addi(IntReg::T4, IntReg::T4, 1);
            b.addi(IntReg::T5, IntReg::T5, 1);
            b.addi(IntReg::A1, IntReg::A1, -1);
            b.bnez(IntReg::A1, "int_loop");
            b.fpu_fence();
            b.ecall();
        });
        assert_eq!(f64::from_bits(c.fp_reg(FpReg::FS0)), 8.0);
        assert_eq!(f64::from_bits(c.fp_reg(FpReg::FS1)), 16.0);
        assert_eq!(f64::from_bits(c.fp_reg(FpReg::FS2)), 32.0);
        assert_eq!(f64::from_bits(c.fp_reg(FpReg::FS3)), 64.0);
        assert_eq!(stats.fp_issued_seq, 4 * 31, "31 replayed iterations");
        // The replays overlap the integer loop: far fewer cycles than
        // sequential execution would need.
        assert!(
            stats.cycles < stats.instructions(),
            "dual issue must beat one-per-cycle: {} cycles for {} instructions",
            stats.cycles,
            stats.instructions()
        );
    }

    #[test]
    fn deadlock_is_detected() {
        // Reconfiguring an armed SSR stream that nothing consumes stalls the
        // core forever while no unit makes progress.
        let mut b = ProgramBuilder::new();
        use snitch_riscv::csr::SsrCfgWord;
        b.li(IntReg::A0, 3); // 4 elements
        b.scfgwi(IntReg::A0, 0, SsrCfgWord::Bound(0));
        b.li(IntReg::A0, 8);
        b.scfgwi(IntReg::A0, 0, SsrCfgWord::Stride(0));
        b.li_u(IntReg::A0, TCDM_BASE);
        b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // arms; nobody consumes
        b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // stalls forever
        b.ecall();
        let p = b.build().unwrap();
        let run = |burst: bool| {
            let mut c = Cluster::new(ClusterConfig::default());
            c.set_block_compile(burst);
            c.load_program(&p);
            c.run()
        };
        match (run(true), run(false)) {
            (
                Err(RunError::Deadlock { cycle, pc }),
                Err(RunError::Deadlock { cycle: ref_cycle, pc: ref_pc }),
            ) => {
                assert_eq!((cycle, pc), (ref_cycle, ref_pc), "burst vs reference stepper");
                assert!(cycle > DEADLOCK_WINDOW);
            }
            other => panic!("expected two deadlocks, got {other:?}"),
        }
    }

    #[test]
    fn ssr_streaming_feeds_fpu() {
        // Sum 8 doubles via SSR 0 + FREP, no explicit loads.
        let (c, stats) = run_program(|b| {
            use snitch_riscv::csr::SsrCfgWord;
            let xs = b.tcdm_f64("xs", &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
            b.li(IntReg::T1, 7);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Bound(0));
            b.li(IntReg::T1, 8);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Stride(0));
            b.li(IntReg::T1, 0);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Status);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Repeat);
            b.li_u(IntReg::T1, xs);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Base);
            b.ssr_enable();
            b.li(IntReg::T0, 7);
            b.frep_o(IntReg::T0, 1, 0, 0);
            b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FT0);
            b.fpu_fence();
            b.ssr_disable();
            b.ecall();
        });
        assert_eq!(f64::from_bits(c.fp_reg(FpReg::FS0)), 36.0);
        assert_eq!(stats.ssr_beats[0], 8);
        assert_eq!(stats.fp_mem_ops, 0, "no explicit FP loads");
    }

    #[test]
    fn dma_copy_then_compute() {
        let (c, stats) = run_program(|b| {
            use snitch_asm::layout::MAIN_BASE;
            let _src = b.main_f32("src", &[0.0; 4]); // placeholder; real data below
            let dst = b.tcdm_reserve("dst", 32, 8);
            // Write known doubles into main memory image instead.
            b.li_u(IntReg::A0, MAIN_BASE);
            b.li_u(IntReg::A1, 0x40080000); // 3.0 high word
            b.sw(IntReg::A1, IntReg::A0, 4);
            b.sw(IntReg::ZERO, IntReg::A0, 0);
            b.dmsrc(IntReg::A0);
            b.li_u(IntReg::A2, dst);
            b.dmdst(IntReg::A2);
            b.li(IntReg::A3, 8);
            b.dmcpyi(IntReg::A4, IntReg::A3);
            b.label("wait");
            b.dmstati(IntReg::A5);
            b.bnez(IntReg::A5, "wait");
            b.fld(FpReg::FA0, IntReg::A2, 0);
            b.fpu_fence();
            b.ecall();
        });
        assert_eq!(f64::from_bits(c.fp_reg(FpReg::FA0)), 3.0);
        assert!(stats.dma_beats > 0);
        assert!(stats.dma_busy_cycles > 0);
    }

    #[test]
    fn ipc_never_exceeds_two() {
        let (_, stats) = run_program(|b| {
            b.li(IntReg::T0, 63);
            b.frep_o(IntReg::T0, 2, 0, 0);
            b.fadd_d(FpReg::FS0, FpReg::FS1, FpReg::FS2);
            b.fadd_d(FpReg::FS3, FpReg::FS4, FpReg::FS5);
            b.li(IntReg::A1, 200);
            b.label("l");
            b.addi(IntReg::A1, IntReg::A1, -1);
            b.bnez(IntReg::A1, "l");
            b.fpu_fence();
            b.ecall();
        });
        assert!(stats.ipc() <= 2.0);
    }

    #[test]
    fn frep_i_repeats_instruction_major() {
        // Stream [1..6]; body = two accumulating adds. frep.o interleaves
        // (fs0 gets 1,3,5), frep.i exhausts each instruction first
        // (fs0 gets 1,2,3) — note the capture pass issues the sequence once
        // (fs0:1, fs1:2), then frep.i replays instruction-major
        // (fs0: 3,4; fs1: 5,6).
        let run = |inst_major: bool| {
            let (c, _) = run_program(|b| {
                use snitch_riscv::csr::SsrCfgWord;
                let xs = b.tcdm_f64("xs", &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
                b.li(IntReg::T1, 0);
                b.scfgwi(IntReg::T1, 0, SsrCfgWord::Status);
                b.scfgwi(IntReg::T1, 0, SsrCfgWord::Repeat);
                b.li(IntReg::T1, 5);
                b.scfgwi(IntReg::T1, 0, SsrCfgWord::Bound(0));
                b.li(IntReg::T1, 8);
                b.scfgwi(IntReg::T1, 0, SsrCfgWord::Stride(0));
                b.li_u(IntReg::T1, xs);
                b.scfgwi(IntReg::T1, 0, SsrCfgWord::Base);
                b.ssr_enable();
                b.li(IntReg::T0, 2); // 3 total repetitions
                if inst_major {
                    b.frep_i(IntReg::T0, 2, 0, 0);
                } else {
                    b.frep_o(IntReg::T0, 2, 0, 0);
                }
                b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FT0);
                b.fadd_d(FpReg::FS1, FpReg::FS1, FpReg::FT0);
                b.fpu_fence();
                b.ssr_disable();
                b.ecall();
            });
            (f64::from_bits(c.fp_reg(FpReg::FS0)), f64::from_bits(c.fp_reg(FpReg::FS1)))
        };
        assert_eq!(run(false), (1.0 + 3.0 + 5.0, 2.0 + 4.0 + 6.0), "frep.o sequence-major");
        assert_eq!(run(true), (1.0 + 3.0 + 4.0, 2.0 + 5.0 + 6.0), "frep.i instruction-major");
    }

    #[test]
    fn stagger_breaks_accumulator_chains() {
        // A single accumulating fadd with 4-way rd/rs1 staggering spreads
        // the sum over fs0..fs3 (f8..f11), exactly like a 4x unrolled body.
        let (c, stats) = run_program(|b| {
            use snitch_riscv::csr::SsrCfgWord;
            let xs: Vec<f64> = (1..=16).map(f64::from).collect();
            let xaddr = b.tcdm_f64("xs", &xs);
            b.li(IntReg::T1, 0);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Status);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Repeat);
            b.li(IntReg::T1, 15);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Bound(0));
            b.li(IntReg::T1, 8);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Stride(0));
            b.li_u(IntReg::T1, xaddr);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Base);
            b.ssr_enable();
            b.li(IntReg::T0, 15); // 16 iterations
                                  // stagger_max 3 (4-way), mask 0b011: rd and rs1.
            b.frep_o(IntReg::T0, 1, 3, 0b011);
            b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FT0);
            b.fpu_fence();
            b.ssr_disable();
            b.ecall();
        });
        let parts: Vec<f64> = (8..12).map(|i| f64::from_bits(c.fp_reg(FpReg::new(i)))).collect();
        // Iteration n accumulates into f(8 + n%4): fs0 = 1+5+9+13, etc.
        assert_eq!(parts, vec![28.0, 32.0, 36.0, 40.0]);
        assert_eq!(parts.iter().sum::<f64>(), 136.0);
        // The staggered chains avoid back-to-back RAW stalls.
        assert!(stats.fpu_stall_raw < 16);
    }

    #[test]
    fn reset_makes_back_to_back_runs_identical() {
        // A program exercising every stateful unit: DMA, SSR streaming,
        // FREP replay, TCDM traffic and integer work.
        let mut b = ProgramBuilder::new();
        {
            use snitch_riscv::csr::SsrCfgWord;
            let xs = b.tcdm_f64("xs", &[1.0, 2.0, 3.0, 4.0]);
            b.li(IntReg::T1, 3);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Bound(0));
            b.li(IntReg::T1, 8);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Stride(0));
            b.li(IntReg::T1, 0);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Status);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Repeat);
            b.li_u(IntReg::T1, xs);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Base);
            b.ssr_enable();
            b.li(IntReg::T0, 3);
            b.frep_o(IntReg::T0, 1, 0, 0);
            b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FT0);
            b.fpu_fence();
            b.ssr_disable();
            b.ecall();
        }
        let p = b.build().unwrap();

        let mut c = Cluster::new(ClusterConfig::default());
        c.load_program(&p);
        let first = c.run().expect("first run");
        let result1 = f64::from_bits(c.fp_reg(FpReg::FS0));

        c.reset();
        c.load_program(&p);
        let second = c.run().expect("second run");
        let result2 = f64::from_bits(c.fp_reg(FpReg::FS0));

        assert_eq!(first, second, "stats must be bit-identical across reset");
        assert_eq!(result1, result2);
        assert_eq!(result1, 10.0);

        // And both match a completely fresh cluster.
        let mut fresh = Cluster::new(ClusterConfig::default());
        fresh.load_program(&p);
        let third = fresh.run().expect("fresh run");
        assert_eq!(first, third, "reset must be indistinguishable from fresh construction");
    }

    #[test]
    fn spmd_barrier_and_mhartid_synchronize_harts() {
        // Each hart writes (hart id + 1) into its slot, everyone meets at
        // the barrier, then hart 0 sums the slots.
        let cores = 4usize;
        let mut b = ProgramBuilder::new();
        b.parallel();
        let slots = b.tcdm_reserve("slots", cores * 4, 4);
        b.csrr_mhartid(IntReg::A0);
        b.slli(IntReg::A1, IntReg::A0, 2);
        b.li_u(IntReg::A2, slots);
        b.add(IntReg::A1, IntReg::A1, IntReg::A2);
        b.addi(IntReg::A3, IntReg::A0, 1);
        b.sw(IntReg::A3, IntReg::A1, 0);
        b.barrier();
        b.bnez(IntReg::A0, "done");
        b.li(IntReg::A4, 0);
        for h in 0..cores {
            b.lw(IntReg::A5, IntReg::A2, (4 * h) as i32);
            b.add(IntReg::A4, IntReg::A4, IntReg::A5);
        }
        b.label("done");
        b.ecall();
        let p = b.build().unwrap();

        let mut c = Cluster::new(ClusterConfig { cores, ..ClusterConfig::default() });
        c.load_program(&p);
        let stats = c.run().expect("spmd program runs");
        assert_eq!(c.int_reg_of(0, IntReg::A4), (1..=cores as u32).sum::<u32>());
        assert!(stats.stall_barrier > 0, "someone waited at the barrier");
        // Every hart saw its own id.
        for h in 0..cores {
            assert_eq!(c.int_reg_of(h, IntReg::A0), h as u32);
        }
        // The rollup is the sum of the per-hart counters.
        let issued: u64 = (0..cores).map(|h| c.core_stats(h).int_issued).sum();
        assert_eq!(stats.int_issued, issued);
        assert!(c.core_stats(1).int_issued > 0);
    }

    #[test]
    fn non_parallel_program_boots_only_hart_zero() {
        // A hart-0-only program must behave bit-identically on any cluster
        // size: secondary harts park halted and never touch the TCDM.
        let mut b = ProgramBuilder::new();
        b.li(IntReg::A0, 21);
        b.add(IntReg::A0, IntReg::A0, IntReg::A0);
        b.ecall();
        let p = b.build().unwrap();

        let mut single = Cluster::new(ClusterConfig::default());
        single.load_program(&p);
        let s1 = single.run().unwrap();

        let mut octa = Cluster::new(ClusterConfig { cores: 8, ..ClusterConfig::default() });
        octa.load_program(&p);
        let s8 = octa.run().unwrap();

        assert_eq!(octa.int_reg_of(0, IntReg::A0), 42);
        assert_eq!(s1, s8, "idle harts must not perturb a single-core program");
        for h in 1..8 {
            assert_eq!(octa.core_stats(h).int_issued, 0);
        }
    }

    #[test]
    fn barrier_on_a_single_core_is_cheap() {
        let (_, stats) = run_program(|b| {
            b.parallel();
            b.li(IntReg::A0, 7);
            b.barrier();
            b.addi(IntReg::A0, IntReg::A0, 1);
            b.ecall();
        });
        // Arrive (stall one cycle), release, retire: no deadlock, tiny cost.
        assert!(stats.stall_barrier >= 1);
        assert!(stats.cycles < 20);
    }

    #[test]
    fn traced_run_mirrors_stats_and_perturbs_nothing() {
        use snitch_riscv::csr::SsrCfgWord;
        use snitch_trace::{EventKind, Lane, StallCause};
        // A program exercising both lanes, SSR streaming and stalls.
        let mut b = ProgramBuilder::new();
        let xs = b.tcdm_f64("xs", &[1.0, 2.0, 3.0, 4.0]);
        b.li(IntReg::T1, 3);
        b.scfgwi(IntReg::T1, 0, SsrCfgWord::Bound(0));
        b.li(IntReg::T1, 8);
        b.scfgwi(IntReg::T1, 0, SsrCfgWord::Stride(0));
        b.li(IntReg::T1, 0);
        b.scfgwi(IntReg::T1, 0, SsrCfgWord::Status);
        b.scfgwi(IntReg::T1, 0, SsrCfgWord::Repeat);
        b.li_u(IntReg::T1, xs);
        b.scfgwi(IntReg::T1, 0, SsrCfgWord::Base);
        b.ssr_enable();
        b.li(IntReg::T0, 3);
        b.frep_o(IntReg::T0, 1, 0, 0);
        b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FT0);
        b.li(IntReg::A1, 8);
        b.label("l");
        b.addi(IntReg::A1, IntReg::A1, -1);
        b.bnez(IntReg::A1, "l");
        b.fpu_fence();
        b.ssr_disable();
        b.ecall();
        let p = b.build().unwrap();

        let mut plain = Cluster::new(ClusterConfig::default());
        plain.load_program(&p);
        let untraced = plain.run().unwrap();
        assert!(plain.trace_events().is_none(), "tracing is off by default");

        let mut traced = Cluster::new(ClusterConfig::traced());
        traced.load_program(&p);
        let stats = traced.run().unwrap();
        assert_eq!(stats, untraced, "tracing must not perturb the simulation");
        assert_eq!(traced.block_replayed_cycles(), stats.cycles, "the burst runs traced runs");

        let events = traced.trace_events().expect("cfg.trace attaches a tracer");
        // Issue events mirror the issue counters lane for lane.
        let lane_count = |want: Lane| {
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Issue { lane, .. } if lane == want))
                .count() as u64
        };
        assert_eq!(lane_count(Lane::Int), stats.int_issued);
        assert_eq!(lane_count(Lane::FpCore), stats.fp_issued_core);
        assert_eq!(lane_count(Lane::FpSeq), stats.fp_issued_seq);
        // Stall events mirror every stall counter, cause for cause.
        for cause in StallCause::all() {
            let traced_cycles: u64 = events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Stall { cause: c, cycles } if c == cause => Some(u64::from(cycles)),
                    _ => None,
                })
                .sum();
            assert_eq!(traced_cycles, stats.stall_by_cause(cause), "{cause}");
        }
        // Stream beats mirror the SSR access counter.
        let beats: u64 = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SsrBeat { count, .. } => Some(u64::from(count)),
                _ => None,
            })
            .sum();
        assert_eq!(beats, stats.tcdm_ssr_accesses);
        // Reset restores a fresh, empty tracer (config-driven).
        traced.reset();
        assert_eq!(traced.trace_events(), Some(&[][..]));
    }

    #[test]
    fn profiled_run_mirrors_stats_and_perturbs_nothing() {
        use snitch_riscv::csr::SsrCfgWord;
        use snitch_trace::{Lane, StallCause};
        // Both lanes, SSR streaming, FREP replay, branches and fences — every
        // charge path the profiler hooks.
        let mut b = ProgramBuilder::new();
        let xs = b.tcdm_f64("xs", &[1.0, 2.0, 3.0, 4.0]);
        b.li(IntReg::T1, 3);
        b.scfgwi(IntReg::T1, 0, SsrCfgWord::Bound(0));
        b.li(IntReg::T1, 8);
        b.scfgwi(IntReg::T1, 0, SsrCfgWord::Stride(0));
        b.li(IntReg::T1, 0);
        b.scfgwi(IntReg::T1, 0, SsrCfgWord::Status);
        b.scfgwi(IntReg::T1, 0, SsrCfgWord::Repeat);
        b.li_u(IntReg::T1, xs);
        b.scfgwi(IntReg::T1, 0, SsrCfgWord::Base);
        b.ssr_enable();
        b.li(IntReg::T0, 3);
        b.frep_o(IntReg::T0, 1, 0, 0);
        b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FT0);
        b.li(IntReg::A1, 8);
        b.label("l");
        b.addi(IntReg::A1, IntReg::A1, -1);
        b.bnez(IntReg::A1, "l");
        b.fpu_fence();
        b.ssr_disable();
        b.ecall();
        let p = b.build().unwrap();

        let mut plain = Cluster::new(ClusterConfig::default());
        plain.load_program(&p);
        let unprofiled = plain.run().unwrap();
        assert!(plain.profile().is_none(), "profiling is off by default");

        let mut profiled = Cluster::new(ClusterConfig::profiled());
        profiled.load_program(&p);
        let stats = profiled.run().unwrap();
        assert_eq!(stats, unprofiled, "profiling must not perturb the simulation");
        assert_eq!(profiled.block_replayed_cycles(), stats.cycles, "the burst runs every cycle");

        let profile = profiled.profile().expect("cfg.profile attaches a profiler");
        // Issue histograms mirror the issue counters lane for lane...
        assert_eq!(profile.issued_total(Lane::Int), stats.int_issued);
        assert_eq!(profile.issued_total(Lane::FpCore), stats.fp_issued_core);
        assert_eq!(profile.issued_total(Lane::FpSeq), stats.fp_issued_seq);
        // ...and the stall histograms every stall counter, cause for cause.
        for cause in StallCause::all() {
            assert_eq!(profile.stall_total(cause), stats.stall_by_cause(cause), "{cause}");
        }
        // Reset restores a fresh, empty profiler (config-driven).
        profiled.reset();
        assert_eq!(profiled.profile().map(snitch_profile::Profiler::core_cycles_total), Some(0));
    }

    #[test]
    fn fault_mid_cycle_still_commits_halt_transitions() {
        // Hart 0 halts (`ecall`) in the very cycle hart 1 faults on an
        // unmapped load. The aborted cycle must still record hart 0's halt
        // transition — the counter-maintained `halted()` may never go stale.
        let mut b = ProgramBuilder::new();
        b.parallel();
        b.csrr_mhartid(IntReg::A0); // cycle 0
        b.beqz(IntReg::A0, "h0"); // cycle 1: hart 0 taken (+2 refill)
        b.li_u(IntReg::A1, 0x0300_0000); // hart 1: cycle 2, unmapped address
        b.nop(); // hart 1: cycle 3
        b.lw(IntReg::A2, IntReg::A1, 0); // hart 1: cycle 4 — faults
        b.label("h0");
        b.ecall(); // hart 0: cycle 4 — halts
        let p = b.build().unwrap();

        let mut c = Cluster::new(ClusterConfig { cores: 2, ..ClusterConfig::default() });
        c.load_program(&p);
        match c.run() {
            Err(RunError::Fault(_)) => {}
            other => panic!("expected a machine fault, got {other:?}"),
        }
        assert_eq!(c.halted_count, 1, "hart 0's same-cycle halt must be counted");
        assert!(!c.halted());
    }

    #[test]
    fn mcycle_and_minstret_readable() {
        let (c, _) = run_program(|b| {
            use snitch_riscv::csr::CSR_MCYCLE;
            use snitch_riscv::ops::CsrOp;
            b.nop();
            b.nop();
            b.inst(snitch_riscv::inst::Inst::Csr {
                op: CsrOp::Rs,
                rd: IntReg::A0,
                csr: CSR_MCYCLE,
                src: 0,
            });
            b.ecall();
        });
        assert!(c.int_reg(IntReg::A0) >= 2);
    }
}
