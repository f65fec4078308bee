//! The per-cycle reference stepper: the oracle the differential suites
//! compare the block burst against. Compiled only for tests and the
//! `testing` feature.
//!
//! Every cycle steps every hart that is not parked through the generic
//! issue path ([`IntCore::step`](crate::core::IntCore::step)), then its FP
//! subsystem and all three streamers, then the DMA engine, then the barrier
//! release. Nothing is skipped as silent and the clock never jumps, so each
//! elapsed cycle is one call of [`step_units`](Cluster::step_units).

use super::{
    release_barrier, stuck_pc, trace_shared_units, Charge, Cluster, CoreUnit, EventKind, RunError,
    SimFault, Ssr, TcdmPort, DEADLOCK_WINDOW,
};

impl Cluster {
    /// Runs the block burst (`true`, the default) or the reference stepper
    /// (`false`). Results, [`Stats`](crate::Stats), trace events, profiles
    /// and error cycles are identical either way. The setting survives
    /// [`reset`](Self::reset).
    pub fn set_block_compile(&mut self, enabled: bool) {
        self.stepped = !enabled;
    }

    /// The reference run loop: [`run_inner`](Self::run_inner) with every
    /// cycle stepped.
    pub(super) fn run_stepped(&mut self, until: u64) -> Result<bool, RunError> {
        if self.hooked() {
            self.run_stepped_as::<true>(until)
        } else {
            self.run_stepped_as::<false>(until)
        }
    }

    /// [`run_stepped`](Self::run_stepped) in the bare (`HOOKED = false`) or
    /// the hooked instantiation.
    fn run_stepped_as<const HOOKED: bool>(&mut self, until: u64) -> Result<bool, RunError> {
        let cores = self.units.len();
        while self.halted_count < cores {
            if self.cycle >= self.cfg.max_cycles {
                return Err(RunError::Timeout { cycles: self.cycle });
            }
            if self.cycle >= until {
                return Ok(false);
            }
            if self.step_units::<HOOKED>()? {
                self.last_progress_cycle = self.cycle;
            } else if self.cycle - self.last_progress_cycle > DEADLOCK_WINDOW {
                return Err(RunError::Deadlock { cycle: self.cycle, pc: stuck_pc(&self.units) });
            }
        }
        // Let in-flight FP work retire so post-run register/memory reads are
        // complete (bounded by the deadlock window).
        let drain_start = self.cycle;
        while !self.units.iter().all(|u| u.drained(self.cycle)) {
            self.step_units::<HOOKED>()?;
            if self.cycle - drain_start > DEADLOCK_WINDOW {
                return Err(RunError::Deadlock { cycle: self.cycle, pc: stuck_pc(&self.units) });
            }
        }
        Ok(true)
    }

    /// One cycle of work for every unit. Returns whether any unit made
    /// observable progress (issued an instruction, streamed a beat, moved a
    /// DMA byte).
    fn step_units<const HOOKED: bool>(&mut self) -> Result<bool, RunError> {
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

            // Parked: a halted hart with an idle FP subsystem and quiescent
            // streamers has provably nothing to do (secondary harts of a
            // non-parallel program sit here for the whole run).
            if core.halted() && fpss.idle_now() && ssrs.iter().all(Ssr::quiescent) {
                continue;
            }

            let was_halted = core.halted();
            let was_waiting = core.barrier_waiting();

            // FP→int write-backs land before the core issues, so results
            // are visible the cycle they retire.
            fpss.drain_int_writebacks(now, |wb| core.apply_writeback(wb.rd, wb.value, now));

            let hart = core.hart_id() as u8;
            let mut charge = Charge::<HOOKED>::new(hart, stats, tracer, profiler);
            let core_result = core.step(now, cfg, text, l0, mem, arb, fpss, ssrs, dma, &mut charge);
            // Halt/barrier transitions happen only inside `core.step`;
            // commit them even when this or a later unit faults.
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

            progressed |= charge.progressed;
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
        if HOOKED {
            if let Some(t) = tracer {
                trace_shared_units(t, now, dma_accesses, arb.conflicts() - conflicts_before);
            }
        }
        barrier_waiting =
            release_barrier::<HOOKED>(units, tracer, now, barrier_waiting, halted_count);

        self.halted_count = halted_count;
        self.barrier_waiting_count = barrier_waiting;
        self.cycle += 1;
        Ok(progressed)
    }
}
