//! The [`Profiler`] collector: per-hart, per-pc issue and stall histograms.
//!
//! The accounting identity mirrors the simulator's own: on the **core
//! dimension**, every non-halted cycle of a hart is either an issue
//! ([`Lane::Int`] or [`Lane::FpCore`]) or a stall with one of the ten core
//! causes — taken branches pre-charge their whole refill penalty at issue
//! time, exactly as `Stats::stall_branch` counts it. The **sequencer
//! dimension** ([`Lane::FpSeq`] issues and the three `Fpu*` causes) runs
//! concurrently with the core's and is kept in the same per-pc arrays but
//! never mixed into core-cycle totals. Totals therefore cross-check against
//! `Stats` counter-for-counter.

use snitch_asm::layout;
use snitch_trace::{Lane, StallCause};

/// Number of stall causes ([`StallCause::all`]).
pub const NUM_CAUSES: usize = 13;

/// Index of a cause in the per-pc stall arrays, in [`StallCause::all`]
/// order.
#[must_use]
pub fn cause_index(cause: StallCause) -> usize {
    match cause {
        StallCause::IntRaw => 0,
        StallCause::WbPort => 1,
        StallCause::OffloadFull => 2,
        StallCause::FpPending => 3,
        StallCause::SsrCfg => 4,
        StallCause::Fence => 5,
        StallCause::Branch => 6,
        StallCause::TcdmConflict => 7,
        StallCause::StoreOrder => 8,
        StallCause::Barrier => 9,
        StallCause::FpuRaw => 10,
        StallCause::FpuSsr => 11,
        StallCause::FpuTcdm => 12,
    }
}

/// One hart's histograms, indexed by instruction index (pc-relative).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct HartProfile {
    /// Core-slot integer issues per pc.
    issued_int: Vec<u64>,
    /// Core-slot FP offload pushes per pc.
    issued_fp_core: Vec<u64>,
    /// Sequencer (FREP replay) issues per pc.
    issued_fp_seq: Vec<u64>,
    /// Stall cycles per pc and cause: `[idx * NUM_CAUSES + cause]`.
    stalls: Vec<u64>,
}

/// The cycle-profile collector and result.
///
/// Attach one to a cluster (`Cluster::attach_profiler`) before loading a
/// program; the load sizes the arrays to the text section.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Profiler {
    text_len: usize,
    harts: Vec<HartProfile>,
}

impl Profiler {
    /// A recording profiler (arrays are sized at program load).
    #[must_use]
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Sizes (and zeroes) the histograms for `harts` harts over a text
    /// section of `text_len` instructions.
    pub fn size(&mut self, harts: usize, text_len: usize) {
        self.text_len = text_len;
        self.harts.clear();
        self.harts.resize_with(harts, || HartProfile {
            issued_int: vec![0; text_len],
            issued_fp_core: vec![0; text_len],
            issued_fp_seq: vec![0; text_len],
            stalls: vec![0; text_len * NUM_CAUSES],
        });
    }

    /// Number of harts profiled.
    #[must_use]
    pub fn harts(&self) -> usize {
        self.harts.len()
    }

    /// Instructions in the profiled text section.
    #[must_use]
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    #[inline]
    fn idx(pc: u32) -> usize {
        (pc.wrapping_sub(layout::TEXT_BASE) / 4) as usize
    }

    /// Charges one issue slot at `pc` to `hart`.
    #[inline]
    pub fn issue(&mut self, hart: usize, pc: u32, lane: Lane) {
        let idx = Self::idx(pc);
        if let Some(h) = self.harts.get_mut(hart) {
            let counts = match lane {
                Lane::Int => &mut h.issued_int,
                Lane::FpCore => &mut h.issued_fp_core,
                Lane::FpSeq => &mut h.issued_fp_seq,
            };
            if let Some(c) = counts.get_mut(idx) {
                *c += 1;
            }
        }
    }

    /// Charges `cycles` stall cycles at the blocking instruction `pc`.
    #[inline]
    pub fn stall(&mut self, hart: usize, pc: u32, cause: StallCause, cycles: u64) {
        let idx = Self::idx(pc) * NUM_CAUSES + cause_index(cause);
        if let Some(c) = self.harts.get_mut(hart).and_then(|h| h.stalls.get_mut(idx)) {
            *c += cycles;
        }
    }

    // ------------------------------------------------------------- queries

    /// Issue count of one lane at instruction index `idx`, summed over
    /// harts.
    #[must_use]
    pub fn issued_at(&self, idx: usize, lane: Lane) -> u64 {
        self.harts
            .iter()
            .map(|h| match lane {
                Lane::Int => &h.issued_int,
                Lane::FpCore => &h.issued_fp_core,
                Lane::FpSeq => &h.issued_fp_seq,
            })
            .filter_map(|v| v.get(idx))
            .sum()
    }

    /// Stall cycles of one cause at instruction index `idx`, summed over
    /// harts.
    #[must_use]
    pub fn stall_at(&self, idx: usize, cause: StallCause) -> u64 {
        let slot = idx * NUM_CAUSES + cause_index(cause);
        self.harts.iter().filter_map(|h| h.stalls.get(slot)).sum()
    }

    /// Total issues of one lane across every pc and hart.
    #[must_use]
    pub fn issued_total(&self, lane: Lane) -> u64 {
        (0..self.text_len).map(|i| self.issued_at(i, lane)).sum()
    }

    /// Total stall cycles of one cause across every pc and hart.
    #[must_use]
    pub fn stall_total(&self, cause: StallCause) -> u64 {
        (0..self.text_len).map(|i| self.stall_at(i, cause)).sum()
    }

    /// Core-dimension cycles charged at `idx`: core-slot issues plus the
    /// ten core-cause stalls. Per hart these partition its non-halted
    /// cycles, so this is the flamegraph weight.
    #[must_use]
    pub fn core_cycles_at(&self, idx: usize) -> u64 {
        let stalls: u64 = StallCause::core().iter().map(|&c| self.stall_at(idx, c)).sum();
        self.issued_at(idx, Lane::Int) + self.issued_at(idx, Lane::FpCore) + stalls
    }

    /// Sequencer-dimension cycles charged at `idx`: FREP replays plus the
    /// three FPU-side stall causes. Concurrent with the core dimension.
    #[must_use]
    pub fn seq_cycles_at(&self, idx: usize) -> u64 {
        let fpu: u64 = [StallCause::FpuRaw, StallCause::FpuSsr, StallCause::FpuTcdm]
            .iter()
            .map(|&c| self.stall_at(idx, c))
            .sum();
        self.issued_at(idx, Lane::FpSeq) + fpu
    }

    /// All core-dimension cycles charged anywhere.
    #[must_use]
    pub fn core_cycles_total(&self) -> u64 {
        (0..self.text_len).map(|i| self.core_cycles_at(i)).sum()
    }

    /// The dominant stall cause at `idx`, if any cycles stalled there.
    #[must_use]
    pub fn dominant_stall_at(&self, idx: usize) -> Option<(StallCause, u64)> {
        StallCause::all()
            .into_iter()
            .map(|c| (c, self.stall_at(idx, c)))
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(_, n)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u32 = layout::TEXT_BASE;

    #[test]
    fn charges_accumulate_per_pc_and_cause() {
        let mut p = Profiler::new();
        p.size(2, 4);
        p.issue(0, BASE, Lane::Int);
        p.issue(0, BASE, Lane::Int);
        p.issue(1, BASE + 4, Lane::FpCore);
        p.issue(1, BASE + 8, Lane::FpSeq);
        p.stall(0, BASE + 4, StallCause::Branch, 3);
        p.stall(1, BASE + 4, StallCause::Branch, 1);
        p.stall(0, BASE + 12, StallCause::FpuSsr, 2);
        assert_eq!(p.issued_at(0, Lane::Int), 2);
        assert_eq!(p.issued_at(1, Lane::FpCore), 1);
        assert_eq!(p.stall_at(1, StallCause::Branch), 4);
        assert_eq!(p.stall_total(StallCause::Branch), 4);
        assert_eq!(p.issued_total(Lane::Int), 2);
        assert_eq!(p.core_cycles_at(1), 5, "fp-core issue + 4 branch cycles");
        assert_eq!(p.seq_cycles_at(2), 1);
        assert_eq!(p.seq_cycles_at(3), 2, "fpu stalls land on the sequencer dimension");
        assert_eq!(p.core_cycles_total(), 7);
        assert_eq!(p.dominant_stall_at(1), Some((StallCause::Branch, 4)));
        assert_eq!(p.dominant_stall_at(0), None);
    }

    #[test]
    fn out_of_range_charges_are_ignored() {
        let mut p = Profiler::new();
        p.size(1, 2);
        p.issue(0, BASE + 64, Lane::Int); // past the text
        p.issue(5, BASE, Lane::Int); // no such hart
        p.stall(0, BASE.wrapping_sub(4), StallCause::Fence, 1); // below base
        assert_eq!(p.core_cycles_total(), 0);
    }

    #[test]
    fn cause_index_matches_taxonomy_order() {
        for (i, c) in StallCause::all().into_iter().enumerate() {
            assert_eq!(cause_index(c), i);
        }
    }
}
