//! Analyzers: dual-issue occupancy, stall attribution, steady-state windows.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::event::{EventKind, StallCause, TraceEvent};

/// Per-cycle lane occupancy of one hart over a window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Occupancy {
    /// Window length in cycles.
    pub window: u64,
    /// Cycles the core issue slot was occupied (integer instructions and FP
    /// offload pushes).
    pub core_busy: u64,
    /// Cycles the FREP sequencer issued a replay (the dual-issue lane).
    pub frep_busy: u64,
    /// Cycles *both* lanes issued — the pseudo-dual-issue overlap.
    pub overlap: u64,
    /// Cycles neither lane issued.
    pub idle: u64,
}

impl Occupancy {
    /// Fraction of the window with both lanes issuing.
    #[must_use]
    pub fn overlap_frac(&self) -> f64 {
        if self.window == 0 {
            0.0
        } else {
            self.overlap as f64 / self.window as f64
        }
    }
}

#[derive(Clone, Debug, Default)]
struct HartProfile {
    /// Core-slot issue cycles (sorted; at most one issue per cycle).
    core: Vec<u64>,
    /// Sequencer issue cycles (sorted; at most one replay per cycle).
    frep: Vec<u64>,
    /// Lost cycles per cause.
    stalls: BTreeMap<StallCause, u64>,
}

/// An analyzed event stream: per-hart lane activity, stall attribution and
/// IPC extraction over arbitrary cycle windows.
#[derive(Clone, Debug)]
pub struct Profile {
    cycles: u64,
    harts: BTreeMap<u8, HartProfile>,
}

impl Profile {
    /// Analyzes `events` over a run of `cycles` total cycles.
    #[must_use]
    pub fn new(events: &[TraceEvent], cycles: u64) -> Self {
        let mut harts: BTreeMap<u8, HartProfile> = BTreeMap::new();
        for ev in events {
            match ev.kind {
                EventKind::Issue { lane, .. } => {
                    let h = harts.entry(ev.hart).or_default();
                    if lane.is_core_slot() {
                        h.core.push(ev.cycle);
                    } else {
                        h.frep.push(ev.cycle);
                    }
                }
                EventKind::Stall { cause, cycles: n } => {
                    *harts.entry(ev.hart).or_default().stalls.entry(cause).or_insert(0) +=
                        u64::from(n);
                }
                _ => {}
            }
        }
        for h in harts.values_mut() {
            h.core.sort_unstable();
            h.frep.sort_unstable();
        }
        Profile { cycles, harts }
    }

    /// Total cycles of the analyzed run.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Harts that produced issue or stall events, ascending.
    #[must_use]
    pub fn harts(&self) -> Vec<u8> {
        self.harts.keys().copied().collect()
    }

    /// Lane occupancy of `hart` over the full run.
    #[must_use]
    pub fn occupancy(&self, hart: u8) -> Occupancy {
        self.occupancy_in(hart, 0..self.cycles)
    }

    /// Lane occupancy of `hart` over a cycle window.
    #[must_use]
    pub fn occupancy_in(&self, hart: u8, window: Range<u64>) -> Occupancy {
        let len = window.end.saturating_sub(window.start);
        let Some(h) = self.harts.get(&hart) else {
            return Occupancy { window: len, core_busy: 0, frep_busy: 0, overlap: 0, idle: len };
        };
        let core = slice_in(&h.core, &window);
        let frep = slice_in(&h.frep, &window);
        let overlap = sorted_intersection(core, frep);
        let core_busy = core.len() as u64;
        let frep_busy = frep.len() as u64;
        Occupancy {
            window: len,
            core_busy,
            frep_busy,
            overlap,
            idle: len.saturating_sub(core_busy + frep_busy - overlap),
        }
    }

    /// Lost cycles attributed to `cause`, summed over all harts (or one).
    #[must_use]
    pub fn stall_cycles(&self, hart: Option<u8>, cause: StallCause) -> u64 {
        self.harts
            .iter()
            .filter(|(h, _)| hart.is_none_or(|want| **h == want))
            .map(|(_, p)| p.stalls.get(&cause).copied().unwrap_or(0))
            .sum()
    }

    /// Instructions issued (both lanes, all harts) inside a cycle window.
    #[must_use]
    pub fn instructions_in(&self, window: &Range<u64>) -> u64 {
        self.harts
            .values()
            .map(|h| (slice_in(&h.core, window).len() + slice_in(&h.frep, window).len()) as u64)
            .sum()
    }

    /// Instructions per cycle over a window. Over the full run
    /// (`0..cycles()`) this reproduces `Stats::ipc()` exactly: issue events
    /// and issue counters are incremented at the same sites.
    #[must_use]
    pub fn ipc_in(&self, window: &Range<u64>) -> f64 {
        let len = window.end.saturating_sub(window.start);
        if len == 0 {
            0.0
        } else {
            self.instructions_in(window) as f64 / len as f64
        }
    }

    /// Detects the steady-state window: the longest run of fixed-size cycle
    /// bins sustaining near-peak issue throughput — the per-iteration regime
    /// the paper's steady-state IPC figures describe — trimming warm-up
    /// (loads, SSR/FREP configuration), phase boundaries (fences, per-block
    /// reconfiguration) and cool-down (reduction, result stores). The
    /// near-peak threshold relaxes from 90% to 50% of the best bin until a
    /// long-enough run exists; falls back to the full run when the run is
    /// too short to bin or never settles.
    #[must_use]
    pub fn steady_window(&self) -> Range<u64> {
        const BIN: u64 = 64;
        let full = 0..self.cycles;
        let bins = self.cycles / BIN;
        if bins < 4 {
            return full;
        }
        let counts: Vec<u64> =
            (0..bins).map(|b| self.instructions_in(&(b * BIN..(b + 1) * BIN))).collect();
        let peak = *counts.iter().max().expect("at least four bins");
        if peak == 0 {
            return full;
        }
        let min_len = (bins as usize / 8).max(4);
        for tenths in (5..=9).rev() {
            let threshold = peak * tenths / 10;
            let (mut best, mut cur) = ((0usize, 0usize), (0usize, 0usize));
            for (i, &c) in counts.iter().enumerate() {
                if c >= threshold {
                    if cur.1 == 0 {
                        cur.0 = i;
                    }
                    cur.1 += 1;
                    if cur.1 > best.1 {
                        best = cur;
                    }
                } else {
                    cur.1 = 0;
                }
            }
            if best.1 >= min_len {
                return (best.0 as u64 * BIN)..((best.0 + best.1) as u64 * BIN);
            }
        }
        full
    }

    /// IPC over the detected steady-state window.
    #[must_use]
    pub fn steady_ipc(&self) -> f64 {
        self.ipc_in(&self.steady_window())
    }

    /// Busy intervals `[start, end)` of one lane of one hart, merging
    /// consecutive busy cycles (`frep` selects the sequencer lane).
    #[must_use]
    pub fn intervals(&self, hart: u8, frep: bool) -> Vec<(u64, u64)> {
        let Some(h) = self.harts.get(&hart) else { return Vec::new() };
        merge_consecutive(if frep { &h.frep } else { &h.core })
    }

    /// A fixed-width two-row ASCII occupancy timeline of `hart` over
    /// `window` — the terminal-friendly equivalent of the Perfetto view.
    /// Each column covers `ceil(window / width)` cycles; `█` marks a column
    /// with any issue in that lane, `·` an idle one.
    #[must_use]
    pub fn ascii_timeline(&self, hart: u8, window: &Range<u64>, width: usize) -> String {
        let len = window.end.saturating_sub(window.start);
        if len == 0 || width == 0 {
            return String::new();
        }
        let per_col = len.div_ceil(width as u64);
        let cols = len.div_ceil(per_col) as usize;
        let row = |frep: bool, label: &str| {
            let mut line = format!("{label:<5}");
            for c in 0..cols {
                let start = window.start + c as u64 * per_col;
                let col = start..(start + per_col).min(window.end);
                let occ = self.occupancy_in(hart, col);
                let busy = if frep { occ.frep_busy } else { occ.core_busy };
                line.push(if busy > 0 { '█' } else { '·' });
            }
            line
        };
        let mut out = row(false, "core");
        out.push('\n');
        out.push_str(&row(true, "frep"));
        out.push('\n');
        out
    }
}

/// The sub-slice of a sorted cycle list falling inside `window`.
fn slice_in<'a>(cycles: &'a [u64], window: &Range<u64>) -> &'a [u64] {
    let lo = cycles.partition_point(|&c| c < window.start);
    let hi = cycles.partition_point(|&c| c < window.end);
    &cycles[lo..hi]
}

/// Number of values present in both sorted slices.
fn sorted_intersection(a: &[u64], b: &[u64]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Merges a sorted cycle list into `[start, end)` intervals.
fn merge_consecutive(cycles: &[u64]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &c in cycles {
        match out.last_mut() {
            Some(last) if last.1 == c => last.1 = c + 1,
            _ => out.push((c, c + 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Lane;
    use snitch_riscv::inst::Inst;

    fn issue(cycle: u64, hart: u8, lane: Lane) -> TraceEvent {
        TraceEvent { cycle, hart, kind: EventKind::Issue { lane, pc: Some(0), inst: Inst::NOP } }
    }

    fn stall(cycle: u64, hart: u8, cause: StallCause, n: u32) -> TraceEvent {
        TraceEvent { cycle, hart, kind: EventKind::Stall { cause, cycles: n } }
    }

    #[test]
    fn occupancy_counts_overlap() {
        // Cycles: 0 int, 1 int+frep, 2 frep, 3 idle.
        let events = [
            issue(0, 0, Lane::Int),
            issue(1, 0, Lane::FpCore),
            issue(1, 0, Lane::FpSeq),
            issue(2, 0, Lane::FpSeq),
        ];
        let p = Profile::new(&events, 4);
        let occ = p.occupancy(0);
        assert_eq!(occ.core_busy, 2);
        assert_eq!(occ.frep_busy, 2);
        assert_eq!(occ.overlap, 1);
        assert_eq!(occ.idle, 1);
        assert_eq!(occ.overlap_frac(), 0.25);
        assert_eq!(p.instructions_in(&(0..4)), 4);
        assert_eq!(p.ipc_in(&(0..4)), 1.0);
        assert_eq!(p.intervals(0, false), vec![(0, 2)]);
        assert_eq!(p.intervals(0, true), vec![(1, 3)]);
    }

    #[test]
    fn attribution_sums_per_cause_and_hart() {
        let events = [
            stall(0, 0, StallCause::IntRaw, 1),
            stall(1, 0, StallCause::Branch, 2),
            stall(1, 1, StallCause::IntRaw, 1),
        ];
        let p = Profile::new(&events, 8);
        assert_eq!(p.stall_cycles(None, StallCause::IntRaw), 2);
        assert_eq!(p.stall_cycles(Some(0), StallCause::IntRaw), 1);
        assert_eq!(p.stall_cycles(None, StallCause::Branch), 2);
        assert_eq!(p.stall_cycles(None, StallCause::Fence), 0, "an absent cause reads 0");
    }

    #[test]
    fn steady_window_trims_ramp() {
        // 16 bins of 64 cycles: bins 0-1 cold (no issues), 2..=13 steady
        // (one issue per cycle), 14-15 cold again.
        let mut events = Vec::new();
        for c in 128..896 {
            events.push(issue(c, 0, Lane::Int));
        }
        let p = Profile::new(&events, 1024);
        let w = p.steady_window();
        assert_eq!(w, 128..896);
        assert_eq!(p.steady_ipc(), 1.0);
        // Full-run IPC is diluted by the cold bins.
        assert!(p.ipc_in(&(0..1024)) < 1.0);
    }

    #[test]
    fn short_runs_fall_back_to_the_full_window() {
        let p = Profile::new(&[issue(1, 0, Lane::Int)], 100);
        assert_eq!(p.steady_window(), 0..100);
    }

    #[test]
    fn ascii_timeline_marks_lanes() {
        let events = [issue(0, 0, Lane::Int), issue(2, 0, Lane::FpSeq)];
        let p = Profile::new(&events, 4);
        let art = p.ascii_timeline(0, &(0..4), 80);
        assert_eq!(art, "core █···\nfrep ··█·\n");
    }
}
