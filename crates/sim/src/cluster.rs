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

/// Cycles without any unit making progress before a deadlock is declared.
const DEADLOCK_WINDOW: u64 = 50_000;

/// Consecutive progress-free cycles after which a block burst hands back to
/// the generic loop. Far below [`DEADLOCK_WINDOW`], so a genuinely stuck
/// program spends the bulk of its deadlock window — and reports the error —
/// on the reference path, at exactly the reference cycle.
const BLOCK_STUCK_EXIT: u64 = 64;

/// The issue counters a hart's work moves: the core slot (integer issues
/// and FP offloads) and the FPU (every FP issue, core or sequencer). They
/// change ⇔ the hart did work this cycle — the deadlock detector's progress
/// signal.
fn issue_work(stats: &Stats) -> u64 {
    stats.int_issued + stats.fp_issued_core + stats.fpu_busy_cycles
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
            core: IntCore::new(hart),
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

    /// One burst cycle of this (non-silent) hart, in the stepper's order:
    /// FP→int write-backs, one issue through the block cache, the FP
    /// subsystem and the streamers — each skipped when provably a no-op.
    /// Returns whether the hart made progress (issued, or streamed a beat).
    #[allow(clippy::too_many_arguments)]
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
    /// counters (refreshed at the end of every public `step`/`run`).
    stats: Stats,
    /// TCDM accesses performed by the shared DMA engine.
    tcdm_dma_accesses: u64,
    cycle: u64,
    /// Last cycle on which any unit did observable work (issued, streamed a
    /// beat, moved a DMA byte) — maintained O(1) per cycle from what each
    /// unit's step reports, replacing the per-cycle `progress_signature()`
    /// counter scan of earlier revisions.
    last_progress_cycle: u64,
    /// Harts currently halted (maintained on the `ecall` transition, so the
    /// run loop's exit test is one integer compare instead of an all-units
    /// scan per cycle).
    halted_count: usize,
    /// Harts currently stalled at the hardware barrier (maintained on
    /// arrive/release transitions, same reasoning).
    barrier_waiting_count: usize,
    /// Quiescent-skip fast path enable (on by default; see
    /// [`set_quiescent_skip`](Self::set_quiescent_skip)).
    skip: bool,
    /// Cycles the run loop advanced without stepping any unit (diagnostic;
    /// not part of [`Stats`] — skipped cycles are ordinary elapsed cycles).
    skipped_cycles: u64,
    /// Block-compiled fast path enable (on by default; see
    /// [`set_block_compile`](Self::set_block_compile)).
    block: bool,
    /// Cycles executed inside block bursts (diagnostic; not part of
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
    /// explicitly via [`attach_profiler`](Self::attach_profiler)). Unlike a
    /// recording tracer it keeps the block-burst fast path engaged — charges
    /// are O(1) array increments, not event records.
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
            skip: true,
            skipped_cycles: 0,
            block: true,
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
    /// The quiescent-skip setting is restored to its default (enabled).
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
        self.skip = true;
        self.skipped_cycles = 0;
        self.block = true;
        self.block_replayed_cycles = 0;
        self.blocks.clear();
        self.tracer = self.cfg.trace.then(Tracer::new);
        self.profiler = self.cfg.profile.then(Profiler::new);
    }

    /// Takes the cluster back to the state `load_program(program)` left it
    /// in before a run: [`reset`](Self::reset) and reload, but keeping the
    /// block-compile and quiescent-skip settings, the attached profiler and
    /// the attached tracer with its first `trace_len` events (those recorded
    /// before the run).
    pub(crate) fn rewind(&mut self, program: &Program, trace_len: usize) {
        let (block, skip) = (self.block, self.skip);
        let (mut tracer, profiler) = (self.tracer.take(), self.profiler.take());
        self.reset();
        if let Some(t) = &mut tracer {
            t.truncate(trace_len);
        }
        (self.block, self.skip, self.tracer, self.profiler) = (block, skip, tracer, profiler);
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
    /// recording tracer; this entry point exists for instrumentation that
    /// needs explicit control (e.g. attaching a [`Tracer::paused`] collector
    /// to measure the disabled hook's overhead).
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
    /// carries a recording profiler; this entry point exists for
    /// instrumentation that needs explicit control (e.g. attaching a
    /// [`Profiler::paused`] collector to measure the disabled hook's
    /// overhead). Attach *before* [`load_program`](Self::load_program),
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

    /// Enables or disables the quiescent-skip fast path (on by default).
    ///
    /// With skip enabled, `run` advances the cluster clock directly to the
    /// next wake event whenever every unit is provably silent (see
    /// `DESIGN.md` §13); results, [`Stats`] and traces are bit-identical
    /// either way — the force-stepped mode exists as the reference for the
    /// equivalence tests. [`reset`](Self::reset) restores the default.
    pub fn set_quiescent_skip(&mut self, enabled: bool) {
        self.skip = enabled;
    }

    /// Cycles the run loop fast-forwarded through provably silent windows
    /// instead of stepping them (0 with skip disabled). Diagnostic only:
    /// skipped cycles are ordinary elapsed cycles in every statistic.
    #[must_use]
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Enables or disables the block-compiled fast path (on by default).
    ///
    /// With block compilation enabled, `run` drives every hart through
    /// pre-lowered micro-ops in a tight burst loop instead of the generic
    /// all-units stepper (see `DESIGN.md` §15); results, [`Stats`]
    /// and error cycles are bit-identical either way — the force-stepped
    /// mode exists as the reference for the differential suite in
    /// `tests/block_compile.rs`. [`reset`](Self::reset) restores the
    /// default.
    pub fn set_block_compile(&mut self, enabled: bool) {
        self.block = enabled;
    }

    /// Cycles executed inside block bursts (0 with block compilation
    /// disabled). Diagnostic only: replayed cycles are ordinary elapsed
    /// cycles in every statistic, disjoint from
    /// [`skipped_cycles`](Self::skipped_cycles).
    #[must_use]
    pub fn block_replayed_cycles(&self) -> u64 {
        self.block_replayed_cycles
    }

    /// Advances the cluster by one cycle and refreshes the statistics
    /// rollup.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Fault`] on machine faults.
    pub fn step(&mut self) -> Result<(), RunError> {
        let result = self.step_units().map(|_| ());
        self.refresh_rollup();
        result
    }

    /// One cycle of work for every unit, without the rollup refresh (the
    /// hot path; `run` refreshes once at the end). Returns whether any unit
    /// made observable progress (issued an instruction, streamed a beat,
    /// moved a DMA byte) — the deadlock detector's progress signal,
    /// gathered here for free instead of re-scanning every counter.
    fn step_units(&mut self) -> Result<bool, RunError> {
        let now = self.cycle;
        self.arb.begin_cycle();
        let conflicts_before = self.arb.conflicts();
        let dma_beats_before = self.dma.beats();
        let mut progressed = false;
        let mut halted_count = self.halted_count;
        let mut barrier_waiting = self.barrier_waiting_count;
        let mut fault = None;

        // Destructured so the per-unit loop can borrow the shared units and
        // the tracer alongside `self.units` without aliasing `self`.
        let Cluster {
            cfg, text, units, dma, mem, arb, tracer, profiler, tcdm_dma_accesses, ..
        } = self;

        'units: for unit in units.iter_mut() {
            let CoreUnit { core, fpss, ssrs, l0, stats } = unit;

            // Parked fast path: a halted hart with an idle FP subsystem and
            // quiescent streamers has provably nothing to do — every call
            // below would be a no-op (secondary harts of a non-parallel
            // program sit here for the whole run).
            if core.halted() && fpss.idle_now() && ssrs.iter().all(Ssr::quiescent) {
                continue;
            }

            let was_halted = core.halted();
            let was_waiting = core.barrier_waiting();
            let issued_before = issue_work(stats);

            // FP→int write-backs land before the core issues, so results
            // are visible the cycle they retire.
            fpss.drain_int_writebacks(now, |wb| core.apply_writeback(wb.rd, wb.value, now));

            let hart = core.hart_id() as u8;
            let mut charge = Charge::new(hart, stats, tracer, profiler);
            let core_result = core.step(now, cfg, text, l0, mem, arb, fpss, ssrs, dma, &mut charge);
            // Halt/barrier transitions happen only inside `core.step`;
            // commit them even when this or a later unit faults, so
            // `halted()` can never go stale on an aborted cycle.
            if !was_halted && core.halted() {
                halted_count += 1;
            }
            if !was_waiting && core.barrier_waiting() {
                barrier_waiting += 1;
            }
            if let Err(e) = core_result {
                fault = Some(e);
                break;
            }

            if let Err(e) = fpss.step(now, cfg, mem, arb, ssrs, &mut charge) {
                fault = Some(e);
                break;
            }

            for (i, ssr) in ssrs.iter_mut().enumerate() {
                let accesses = match ssr.step(mem, arb, TcdmPort::Ssr(hart, i as u8)) {
                    Ok(n) => n,
                    Err(e) => {
                        fault = Some(e.into());
                        break 'units;
                    }
                };
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

            progressed |= issue_work(charge.stats) != issued_before;
        }

        // A unit fault skips the DMA engine; a faulting DMA beat aborts the
        // cycle the same way.
        let dma_step = match fault {
            None => dma.step(mem, arb).map_err(SimFault::from),
            Some(e) => Err(e),
        };
        let dma_accesses = match dma_step {
            Ok(n) => n,
            Err(e) => {
                // The cycle is aborted (no advance), but the transition
                // counts observed so far are real and must land.
                self.halted_count = halted_count;
                self.barrier_waiting_count = barrier_waiting;
                return Err(RunError::Fault(e));
            }
        };
        *tcdm_dma_accesses += u64::from(dma_accesses);
        progressed |= dma.beats() != dma_beats_before;
        let new_conflicts = arb.conflicts() - conflicts_before;
        if let Some(t) = tracer {
            if dma_accesses > 0 {
                t.record(now, CLUSTER_HART, EventKind::DmaActive { count: dma_accesses });
            }
            if new_conflicts > 0 {
                t.record(
                    now,
                    CLUSTER_HART,
                    EventKind::BankConflicts { count: new_conflicts as u32 },
                );
            }
        }

        // Hardware barrier: release every waiting hart in the same cycle
        // once each hart has either arrived or halted. Halted harts count
        // as arrived so a partial shutdown can never deadlock the rest.
        if barrier_waiting > 0 && barrier_waiting + halted_count == units.len() {
            for unit in units.iter_mut() {
                if unit.core.barrier_waiting() {
                    unit.core.release_barrier();
                    if let Some(t) = tracer {
                        t.record(now, unit.core.hart_id() as u8, EventKind::BarrierRelease);
                    }
                }
            }
            barrier_waiting = 0;
        }

        self.halted_count = halted_count;
        self.barrier_waiting_count = barrier_waiting;
        self.cycle += 1;
        Ok(progressed)
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

    /// Runs until every hart executes `ecall`.
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
    /// nothing the run computes (the burst may exit at any cycle).
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
        let cores = self.units.len();
        let stop = self.cfg.max_cycles.min(until);
        while self.halted_count < cores {
            if self.cycle >= self.cfg.max_cycles {
                return Err(RunError::Timeout { cycles: self.cycle });
            }
            if self.cycle >= until {
                return Ok(false);
            }
            // Block burst: every hart executes through the pre-lowered
            // micro-ops until an exit condition hands control back here.
            if self.block_eligible() && self.block_burst(stop)? {
                continue;
            }
            // Quiescent skip: when every unit is provably silent, jump the
            // clock straight to the next wake event. Clamped to the timeout
            // and deadlock boundaries so both errors are still reported at
            // exactly the cycle a force-stepped loop would report them (and
            // to the pause).
            if self.skip {
                if let Some(wake) = self.quiescent_wake() {
                    let deadline = self.last_progress_cycle + DEADLOCK_WINDOW + 1;
                    let target = wake.min(stop).min(deadline);
                    if target > self.cycle {
                        self.skipped_cycles += target - self.cycle;
                        self.cycle = target;
                        if self.cycle - self.last_progress_cycle > DEADLOCK_WINDOW {
                            return Err(RunError::Deadlock {
                                cycle: self.cycle,
                                pc: self.stuck_pc(),
                            });
                        }
                        continue;
                    }
                }
            }
            if self.step_units()? {
                self.last_progress_cycle = self.cycle;
            } else if self.cycle - self.last_progress_cycle > DEADLOCK_WINDOW {
                return Err(RunError::Deadlock { cycle: self.cycle, pc: self.stuck_pc() });
            }
        }
        // Let in-flight FP work retire so post-run register/memory reads are
        // complete (bounded by the deadlock window).
        let drain_start = self.cycle;
        while self
            .units
            .iter()
            .any(|u| !u.fpss.drained(self.cycle) || u.ssrs.iter().any(super::ssr::Ssr::busy))
        {
            if self.skip {
                if let Some(wake) = self.quiescent_wake() {
                    let target = wake.min(drain_start + DEADLOCK_WINDOW + 1);
                    if target > self.cycle {
                        self.skipped_cycles += target - self.cycle;
                        self.cycle = target;
                        if self.cycle - drain_start > DEADLOCK_WINDOW {
                            return Err(RunError::Deadlock {
                                cycle: self.cycle,
                                pc: self.stuck_pc(),
                            });
                        }
                        continue;
                    }
                }
            }
            self.step_units()?;
            if self.cycle - drain_start > DEADLOCK_WINDOW {
                return Err(RunError::Deadlock { cycle: self.cycle, pc: self.stuck_pc() });
            }
        }
        Ok(true)
    }

    /// The block-burst entry gate: block compilation on and no recording
    /// tracer attached (the burst books issues and stalls through the same
    /// charge path, but skips silent harts, idle FP subsystems and quiescent
    /// streamers and so never emits the stepper's per-cycle SSR and cluster
    /// events). A paused tracer or a profiler keeps the burst engaged.
    fn block_eligible(&self) -> bool {
        self.block && !self.tracer.as_ref().is_some_and(Tracer::is_recording)
    }

    /// Runs every hart in a burst: the per-cycle loop of
    /// [`step_units`](Self::step_units) in the same order — arbiter cycle,
    /// then hart by hart write-back drain, issue, FP subsystem and
    /// streamers, then the DMA engine, then the barrier release — but
    /// issuing through the block cache and skipping every call that is
    /// provably a no-op: harts that are *silent* (halted or inside their
    /// `stall_until` window, with an idle FP subsystem and quiescent
    /// streamers), idle FP subsystems, quiescent streamers and an idle DMA
    /// engine. A cycle on which every hart is silent, the DMA engine idle
    /// and nobody waits at the barrier jumps straight to the earliest
    /// resume cycle.
    ///
    /// Exits back to the generic loop when every hart has halted, on a
    /// fault, at cycle `stop` (the timeout or the pause boundary), or after
    /// [`BLOCK_STUCK_EXIT`] progress-free cycles. Returns whether any
    /// cycles elapsed (`false` means the caller must fall through to the
    /// generic loop to guarantee forward progress).
    fn block_burst(&mut self, stop: u64) -> Result<bool, RunError> {
        let start = self.cycle;
        let mut now = start;
        let mut last_progress = self.last_progress_cycle;
        let mut halted_count = self.halted_count;
        let mut barrier_waiting = self.barrier_waiting_count;
        let mut fault = None;
        let Cluster {
            cfg,
            text,
            units,
            dma,
            mem,
            arb,
            tcdm_dma_accesses,
            blocks,
            tracer,
            profiler,
            ..
        } = self;
        let cores = units.len();
        'cycles: while halted_count < cores {
            if now >= stop || now - last_progress > BLOCK_STUCK_EXIT {
                break;
            }
            arb.begin_cycle();
            let mut progressed = false;
            // Whether every hart was silent, and the earliest resume cycle
            // over the silent running harts.
            let mut all_silent = true;
            let mut wake = u64::MAX;
            for unit in units.iter_mut() {
                if unit.silent(now) {
                    if !unit.core.halted() {
                        wake = wake.min(unit.core.stall_until());
                    }
                    continue;
                }
                all_silent = false;
                let (was_halted, was_waiting) = (unit.core.halted(), unit.core.barrier_waiting());
                let r = unit.burst_cycle(now, cfg, text, blocks, mem, arb, dma, tracer, profiler);
                // Halt/barrier transitions commit even when the cycle
                // faults, as in the stepper.
                halted_count += usize::from(!was_halted && unit.core.halted());
                barrier_waiting += usize::from(!was_waiting && unit.core.barrier_waiting());
                match r {
                    Ok(p) => progressed |= p,
                    Err(e) => {
                        fault = Some(e);
                        break 'cycles;
                    }
                }
            }
            if !dma.idle() {
                all_silent = false;
                let dma_beats_before = dma.beats();
                match dma.step(mem, arb) {
                    Ok(n) => *tcdm_dma_accesses += u64::from(n),
                    Err(e) => {
                        fault = Some(e.into());
                        break 'cycles;
                    }
                }
                progressed |= dma.beats() != dma_beats_before;
            }
            if barrier_waiting > 0 && barrier_waiting + halted_count == cores {
                for unit in units.iter_mut() {
                    if unit.core.barrier_waiting() {
                        unit.core.release_barrier();
                    }
                }
                barrier_waiting = 0;
            }
            if all_silent && barrier_waiting == 0 {
                // Nothing acted and nothing can until the earliest resume:
                // jump there, clamped so the stuck-exit and timeout
                // boundaries fire at exactly the cycles the checks above
                // would see. (A silent cycle makes no progress.)
                now = wake.min(stop).min(last_progress + BLOCK_STUCK_EXIT + 1);
            } else {
                now += 1;
                if progressed {
                    last_progress = now;
                }
            }
        }
        self.cycle = now;
        self.last_progress_cycle = last_progress;
        self.halted_count = halted_count;
        self.barrier_waiting_count = barrier_waiting;
        self.block_replayed_cycles += now - start;
        match fault {
            Some(e) => Err(RunError::Fault(e)),
            None => Ok(now > start),
        }
    }

    /// The program counter of the first non-halted hart (hart 0 when all
    /// have halted) — the most useful single pc for a deadlock report.
    fn stuck_pc(&self) -> u32 {
        self.units.iter().find(|u| !u.core.halted()).unwrap_or(&self.units[0]).core.pc()
    }

    /// When every unit is provably silent this cycle, the earliest future
    /// cycle at which any unit can act again; `None` when some unit may act
    /// (and count stalls or activity) on the very next step.
    ///
    /// The conditions are conservative by construction: every hart halted or
    /// inside a pre-charged `stall_until` window, every FP subsystem empty
    /// with only time-stamped deliveries in flight, every SSR streamer
    /// unarmed with no write data queued, no hart waiting at the barrier
    /// (barrier waits re-count a stall each cycle), and the DMA engine idle
    /// (an active transfer moves — or counts a blocked cycle — every cycle).
    fn quiescent_wake(&self) -> Option<u64> {
        if !self.dma.idle() || self.barrier_waiting_count > 0 {
            return None;
        }
        let now = self.cycle;
        let mut wake = u64::MAX;
        for unit in &self.units {
            if !unit.core.halted() {
                let resume = unit.core.stall_until();
                if resume <= now {
                    return None;
                }
                wake = wake.min(resume);
            }
            wake = wake.min(unit.fpss.quiescent_until(now)?);
            if !unit.ssrs.iter().all(Ssr::quiescent) {
                return None;
            }
        }
        (wake > now && wake < u64::MAX).then_some(wake)
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
        // An FPU fence that can never drain: SSR read stream armed with no
        // consumer... simpler: a branch spinning on a register that never
        // changes while nothing else progresses would still issue
        // instructions. Instead: fld from an SSR-armed... Use an infinite
        // self-loop with no instruction issue: branch to self *stalled* on an
        // FP-pending register that never resolves is impossible by
        // construction, so use scfgwi to a busy streamer that never drains.
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
        let mut c = Cluster::new(ClusterConfig::default());
        c.load_program(&p);
        match c.run() {
            Err(RunError::Deadlock { .. }) => {}
            other => panic!("expected deadlock, got {other:?}"),
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
        assert!(
            profiled.block_replayed_cycles() > 0,
            "the profiler must not disengage the block-burst fast path"
        );

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
