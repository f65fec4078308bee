//! The single booking site for simulated cycles.
//!
//! Every issue slot a hart uses and every slot it loses is booked here, once,
//! into all three ledgers the simulator keeps: the hart's [`Stats`]
//! counters, the cluster's event [`Tracer`] and its cycle [`Profiler`]. The
//! block burst (the production run loop) and the reference stepper (its
//! test oracle) book through the same methods with the same arguments, so
//! counters, trace and profile agree by construction.
//!
//! The run loop is instantiated twice from one source, through the `HOOKED`
//! parameter of [`Charge`] and of everything that books through it. The
//! *bare* instantiation (`HOOKED = false`) runs when neither a tracer nor a
//! profiler is attached: every hook branch folds away at compile time, so
//! its bookings are plain counter increments. The *hooked* instantiation
//! (`HOOKED = true`) tests and feeds whichever collectors are attached. The
//! counters are bumped by the same statements in both, so the two agree on
//! every [`Stats`] field by construction.

use snitch_profile::Profiler;
use snitch_riscv::inst::Inst;
use snitch_trace::{EventKind, Lane, StallCause, Tracer};

use crate::stats::Stats;

/// One hart's view of the cycle ledgers for the duration of a step: its own
/// statistics plus the cluster's (optional) tracer and profiler, which only
/// the hooked instantiation (`HOOKED = true`) looks at.
///
/// Counters that are not issue or stall accounting (memory traffic, FPU op
/// mix, SSR activity) are bumped directly through [`stats`](Self::stats).
pub(crate) struct Charge<'a, const HOOKED: bool> {
    /// The hart's counters.
    pub(crate) stats: &'a mut Stats,
    tracer: &'a mut Option<Tracer>,
    profiler: &'a mut Option<Profiler>,
    hart: u8,
    /// Whether the hart did work since this charge was made: an issue on any
    /// lane or an FPU issue. The deadlock detector's progress signal.
    pub(crate) progressed: bool,
}

impl<'a, const HOOKED: bool> Charge<'a, HOOKED> {
    pub(crate) fn new(
        hart: u8,
        stats: &'a mut Stats,
        tracer: &'a mut Option<Tracer>,
        profiler: &'a mut Option<Profiler>,
    ) -> Self {
        Charge { stats, tracer, profiler, hart, progressed: false }
    }

    /// The hart this charge books against.
    pub(crate) fn hart(&self) -> u8 {
        self.hart
    }

    /// Books one issued instruction on `lane` at `pc`: the lane's issue
    /// counter, the profiler's per-pc issue histogram and the `Issue` event.
    /// Sequencer replays come from the FREP ring, not from a fetch, so their
    /// events carry no pc (the profiler still charges the capture pc).
    #[inline]
    pub(crate) fn issue(&mut self, now: u64, pc: u32, lane: Lane, inst: Inst) {
        match lane {
            Lane::Int => self.stats.int_issued += 1,
            Lane::FpCore => self.stats.fp_issued_core += 1,
            Lane::FpSeq => self.stats.fp_issued_seq += 1,
        }
        self.progressed = true;
        if HOOKED {
            if let Some(p) = self.profiler {
                p.issue(usize::from(self.hart), pc, lane);
            }
            if let Some(t) = self.tracer {
                let pc = (lane != Lane::FpSeq).then_some(pc);
                t.record(now, self.hart, EventKind::Issue { lane, pc, inst });
            }
        }
    }

    /// Books one instruction entering the FPU (from the offload FIFO or the
    /// sequencer): the FPU busy counter and the progress flag.
    #[inline]
    pub(crate) fn fpu_issue(&mut self) {
        self.stats.fpu_busy_cycles += 1;
        self.progressed = true;
    }

    /// Books `cycles` lost slots against `cause`, charged to the blocked
    /// instruction at `pc`. `now` is the first lost cycle: the current cycle
    /// for a failed issue attempt, the next one for a taken branch's refill
    /// window (the branch itself issues).
    #[inline]
    pub(crate) fn stall(&mut self, now: u64, pc: u32, cause: StallCause, cycles: u32) {
        if cycles == 0 {
            return;
        }
        self.stats.add_stall(cause, u64::from(cycles));
        if HOOKED {
            if let Some(p) = self.profiler {
                p.stall(usize::from(self.hart), pc, cause, u64::from(cycles));
            }
            if let Some(t) = self.tracer {
                t.record(now, self.hart, EventKind::Stall { cause, cycles });
            }
        }
    }

    /// Emits a trace-only event (retire, barrier arrival, SSR beats). `kind`
    /// is evaluated only when a tracer is attached.
    #[inline]
    pub(crate) fn event(&mut self, now: u64, kind: impl FnOnce() -> EventKind) {
        if HOOKED {
            if let Some(t) = self.tracer {
                t.record(now, self.hart, kind());
            }
        }
    }
}
