//! Steady-state memoization of the one-hart block burst (`DESIGN.md` §19).
//!
//! Every paper kernel is a long loop whose iterations repeat one dual-issue
//! schedule, and the burst would re-derive that schedule cycle by cycle.
//! Following `FastSim` (Schnarr & Larus, ASPLOS 1998), the memo splits a
//! window of cycles into its *timing*, which depends only on the hart's
//! timing state, and its *functional* effects, which depend on values:
//!
//! * **Key.** At a taken backward branch, the hart's timing state
//!   normalized to the clock is encoded as canonical bytes ([`KeyBuf`]):
//!   the pc, the refill window, both scoreboards, the write-back port
//!   claims, the queued and captured instructions by pc, the sequencer
//!   position, the busy times, the due offsets of pending write-backs and
//!   SSR pushes, every streamer's configuration and occupancy, and the
//!   arbiter's stalled ports. Counts that run out (sequencer iterations,
//!   stream steps) are capped at [`KEY_CAP`]; each window recorded under a
//!   key carries guards on the capped counts instead (a count above the
//!   window's length cannot run out inside it; a smaller one must match
//!   exactly). Keys are compared in full.
//! * **Miss.** A state (key and exact counts) is recorded on its second
//!   sighting. The window runs timed, through the same cycle code with an
//!   observer ([`Recording`], compiled into `CoreUnit::burst_cycle` only
//!   under its `RECORD` parameter) that writes a compact schedule: per
//!   cycle with functional effects, which units acted (write-back and
//!   SSR-push delivery, int issue and whether it redirected, FREP marker,
//!   FPU issue, SSR beats) and which requested a TCDM bank. It is extended
//!   across back-edges until it spans [`MIN_WINDOW`] cycles. The entry
//!   keeps the schedule, the length, the hart's counter deltas, the last
//!   progress, and the state no replay recomputes: the integer
//!   scoreboard, the port claims and the arbiter's stalled ports.
//! * **Hit.** The schedule is replayed functionally through the timed
//!   path's own code (`IntCore::issue` with the `Replayed` timing,
//!   `Fpss::execute`, `Ssr::perform`, the same `Memory` calls), validating
//!   everything the key leaves to values: every branch outcome, the grant
//!   pattern of same-cycle TCDM requests under their replayed banks, that
//!   every access stays in the TCDM, and the capped FREP repeat counts.
//!   Windows holding a fault, a halt, a CSR, SSR-config or DMA operation,
//!   an indirect jump or any access outside the TCDM are never recorded.
//!   A replay that validates commits the clock, counters, last progress
//!   and restored state; one that does not restores the hart's functional
//!   state (registers, queues, streams, stores) and runs the window timed.
//! * **Budget.** One cluster's table holds at most [`BUDGET`] bytes, so the
//!   memo adds a constant to a run's footprint; once a window does not
//!   fit, no recording starts. A window that fails validation runs timed and stays in the
//!   table.
//!
//! Only the bare instantiation of the run loop memoizes, and only for
//! one-hart clusters: the hooked instantiation books every cycle into a
//! trace or profile, and with more harts the arbitration between them is
//! not in the key. The bare/hooked and burst/stepper differential suites
//! are therefore also the memo-on/off oracle.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use snitch_asm::layout;
use snitch_profile::Profiler;
use snitch_trace::Tracer;

use crate::block::BlockCache;
use crate::charge::Charge;
use crate::cluster::{Burst, CoreUnit};
use crate::config::ClusterConfig;
use crate::core::{Decoded, IntCore, IntTimers};
use crate::error::SimFault;
use crate::fpss::Fpss;
use crate::mem::{Memory, TcdmArbiter};
use crate::ssr::Ssr;
use crate::stats::Stats;

/// Cycles a recorded window spans at least: it closes at the first taken
/// backward branch past this length, so short loops amortize their key.
const MIN_WINDOW: u64 = 64;

/// Cycles a window may span; a recording that reaches it without closing
/// is dropped.
const MAX_WINDOW: u64 = 256;

/// Cap on the counts in a key (iterations and stream steps left). A
/// count at the cap stands for any larger one; each entry's guards say
/// which counts it covers.
const KEY_CAP: u32 = 4;

/// Cap on the FREP repeat counts a schedule validates: above
/// [`MAX_WINDOW`], so a loop this long cannot end inside a window.
const REP_CAP: u32 = MAX_WINDOW as u32 + 1;

/// Guard bits: the index of the count in [`Counts`], and whether the count
/// must equal the guard's value (otherwise it must reach it).
const GUARD_INDEX: u32 = 28;
const EXACT: u32 = 1 << 27;

/// Host bytes the table of one cluster may hold; recordings past it are
/// not stored.
const BUDGET: usize = 24 * 1024;

/// Slots of the table of states seen once.
const SEEN: usize = 1024;

/// Schedule bits: which units acted in a cycle.
const DRAIN: u16 = 1 << 0;
const ISSUE: u16 = 1 << 1;
const TAKEN: u16 = 1 << 2;
const CORE_REQ: u16 = 1 << 3;
const PUSH: u16 = 1 << 4;
const MARKER: u16 = 1 << 5;
const FP_ISSUE: u16 = 1 << 6;
const FP_REQ: u16 = 1 << 7;
const SSR_BEAT: u16 = 1 << 8; // ..= 1 << 10, one per streamer
const SSR_REQ: u16 = 1 << 11; // ..= 1 << 13, one per streamer
const SSR_REQS: u16 = SSR_REQ * 0b111;
const REQS: u16 = CORE_REQ | FP_REQ | SSR_REQS;

/// Canonical key bytes: unsigned LEB128 values, so small offsets and pcs
/// take a byte or two.
#[derive(Default)]
pub(crate) struct KeyBuf(Vec<u8>);

impl KeyBuf {
    /// Appends `v`.
    #[inline]
    pub(crate) fn put(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }

    /// Appends a count, capped at [`KEY_CAP`].
    #[inline]
    pub(crate) fn put_count(&mut self, c: u32) {
        self.put(u64::from(c.min(KEY_CAP)));
    }

    /// Appends a text address as its word index.
    #[inline]
    pub(crate) fn put_pc(&mut self, pc: u32) {
        self.put(u64::from(pc.wrapping_sub(layout::TEXT_BASE) >> 2));
    }

    /// Appends a scoreboard normalized to `now`: a mask of the entries
    /// still in the future, then their offsets.
    pub(crate) fn put_offsets(&mut self, ready_at: &[u64; 32], now: u64) {
        let mut mask = 0u64;
        for (r, &t) in ready_at.iter().enumerate() {
            mask |= u64::from(t > now) << r;
        }
        self.put(mask);
        let mut m = mask;
        while m != 0 {
            self.put(ready_at[m.trailing_zeros() as usize] - now);
            m &= m - 1;
        }
    }
}

/// A schedule word with this bit set skips the number of cycles in its
/// other bits, in which nothing acted; any other word is the schedule
/// bits of one cycle.
const GAP: u16 = 1 << 15;

/// A recorded window.
struct Entry {
    len: u32,
    /// `last_progress` after the window, past its start.
    progress: u32,
    /// What the capped counts of the key must be (see [`guards`]).
    guards: Box<[u32]>,
    /// One word per cycle in which something acted, gaps run-length coded
    /// (see [`GAP`]).
    steps: Box<[u16]>,
    /// The capped repeat count of each FREP marker taken, in order.
    reps: Box<[u32]>,
    /// The text word of each int issue, in order: what the L0 buffer
    /// refetches.
    fetches: Box<[u16]>,
    /// The distinct words of `fetches`: when all are resident in the L0
    /// buffer, every refetch hits and changes nothing.
    words: Box<[u16]>,
    /// The hart's nonzero counter deltas over the window as `index << 26 |
    /// delta` (see `Stats::counters`), fetch counters excluded (the replay
    /// refetches).
    delta: Box<[u32]>,
    conflicts: u32,
    timers: IntTimers,
    stalled: u8,
}

/// Bits of a packed counter delta.
const DELTA_BITS: u32 = 26;

impl Entry {
    /// Host bytes the entry holds under `key`, with the table's share.
    fn bytes(&self, key: &[u8]) -> usize {
        std::mem::size_of::<(Box<[u8]>, Self)>()
            + key.len()
            + (self.steps.len() + self.fetches.len() + self.words.len()) * 2
            + (self.reps.len() + self.delta.len() + self.guards.len()) * 4
            + self.timers.heap_bytes()
    }

    /// Whether the window replays from a state with these counts.
    fn admits(&self, counts: &Counts) -> bool {
        self.guards.iter().all(|&g| {
            let c = counts[(g >> GUARD_INDEX) as usize].unwrap_or(0);
            let v = g & (EXACT - 1);
            if g & EXACT != 0 {
                c == v
            } else {
                c >= v
            }
        })
    }
}

/// A window being recorded.
pub(crate) struct Recording {
    key: Box<[u8]>,
    counts: Counts,
    start: u64,
    stats: Stats,
    conflicts: u64,
    steps: Vec<u16>,
    /// The window offset of the cycle after the last step.
    next: u64,
    reps: Vec<u32>,
    fetches: Vec<u16>,
    /// Cleared by anything the replay cannot reproduce.
    ok: bool,
    /// The schedule bits of the cycle being observed.
    acts: u16,
    /// The text word of the issue being observed, and whether it can be
    /// replayed.
    issuing: (usize, bool),
    /// The counters before the step being observed.
    seen: Seen,
}

/// A word-at-a-time multiplicative hasher for key bytes. The table
/// compares keys in full, so the hash only picks the bucket; keys are
/// simulator state, so a program crafted to collide can only slow its own
/// run's lookups.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn mix(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("eight bytes")));
        }
        for &b in chunks.remainder() {
            self.mix(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Work {
    fn default() -> Self {
        Work {
            key: KeyBuf::default(),
            seen: Box::new([0; SEEN]),
            snap: None,
            undo: Vec::new(),
            scratch: Stats::default(),
            #[cfg(any(test, feature = "testing"))]
            hits: 0,
            #[cfg(any(test, feature = "testing"))]
            fallbacks: 0,
        }
    }
}

/// The replay-mutable state of a hart, saved before a replay.
struct Snapshot {
    core: IntCore,
    fpss: Fpss,
    ssrs: [Ssr; 3],
}

/// One cluster's memo: the table of recorded windows, the recording in
/// progress and the scratch state of a replay.
#[derive(Default)]
pub(crate) struct Memo {
    table: HashMap<Box<[u8]>, Vec<Entry>, BuildHasherDefault<KeyHasher>>,
    /// Host bytes the table holds (see [`BUDGET`]).
    bytes: usize,
    /// Set when a recorded window did not fit the budget: no recording
    /// starts after it.
    full: bool,
    rec: Option<Recording>,
    work: Work,
}

/// The scratch state of a lookup and a replay.
struct Work {
    key: KeyBuf,
    /// Fingerprints of the states looked up without an entry,
    /// direct-mapped by their hash.
    seen: Box<[u32; SEEN]>,
    snap: Option<Box<Snapshot>>,
    /// Memory bytes a replay overwrote, as `(addr, len, old value)`.
    undo: Vec<(u32, u32, u64)>,
    /// Counters the replay's shared execution paths book into (discarded).
    scratch: Stats,
    /// Validated replays since the memo was made.
    #[cfg(any(test, feature = "testing"))]
    hits: u64,
    /// Replays that failed validation and ran timed.
    #[cfg(any(test, feature = "testing"))]
    fallbacks: u64,
}

impl Clone for Memo {
    /// A clone starts with an empty memo: entries are a cache.
    fn clone(&self) -> Self {
        Memo::default()
    }
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("entries", &self.table.len())
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

impl Memo {
    /// Validated replays since the memo was made.
    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn hits(&self) -> u64 {
        self.work.hits
    }

    /// Replays that failed validation, since the memo was made.
    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn fallbacks(&self) -> u64 {
        self.work.fallbacks
    }
}

/// The memoized run loop of a one-hart cluster.
impl Burst<'_> {
    /// Runs the one hart until it halts (`Ok(true)`) or the clock reaches
    /// `stop` (`Ok(false)`): the bare run loop, with a memo lookup at every
    /// taken backward branch outside a recording. The cluster's memo is
    /// made on the first call.
    pub(crate) fn run_memoized(&mut self, stop: u64) -> Result<bool, crate::RunError> {
        let mut memo = self.memo.take().unwrap_or_default();
        memo.rec = None;
        let result = self.run_with(&mut memo, stop);
        *self.memo = Some(memo);
        result
    }

    fn run_with(&mut self, memo: &mut Memo, stop: u64) -> Result<bool, crate::RunError> {
        let mut edge = false;
        while self.halted == 0 {
            if self.now >= stop {
                return Ok(false);
            }
            if edge && memo.rec.is_none() && self.memo_window(memo, stop) {
                continue;
            }
            let pc = self.units[0].core.pc();
            let (progressed, silent_until) = match memo.rec.as_mut() {
                Some(rec) => self.record_cycle(rec)?,
                None => self.cycle::<false, false>(None)?,
            };
            self.advance_clock(progressed, silent_until, stop);
            edge = self.units[0].core.pc() < pc;
            if memo.rec.is_some() {
                self.close_recording(memo, edge);
            }
            self.check_deadlock()?;
        }
        Ok(true)
    }

    /// One cycle of a recording window, kept out of the run loop's body.
    #[inline(never)]
    fn record_cycle(&mut self, rec: &mut Recording) -> Result<(bool, Option<u64>), SimFault> {
        self.cycle::<false, true>(Some(rec))
    }

    /// Ends the recording after a cycle: dropped when it saw something the
    /// replay cannot reproduce or grew too long, stored at a back-edge
    /// (`edge`) once long enough.
    #[inline(never)]
    fn close_recording(&mut self, memo: &mut Memo, edge: bool) {
        let Some(rec) = &memo.rec else {
            return;
        };
        let len = self.now - rec.start;
        if !rec.ok || len > MAX_WINDOW {
            memo.rec = None;
        } else if edge && len >= MIN_WINDOW {
            let rec = memo.rec.take().expect("checked above");
            let unit = &self.units[0];
            let mut delta = unit.stats.delta_since(&rec.stats);
            (delta.l0_hits, delta.l0_misses) = (0, 0);
            let Some(delta) = pack_delta(&delta) else {
                return;
            };
            let entry = Entry {
                len: len as u32,
                progress: (self.last_progress - rec.start) as u32,
                guards: guards(&rec.counts, len),
                steps: rec.steps.into(),
                reps: rec.reps.into(),
                words: {
                    let mut words = rec.fetches.clone();
                    words.sort_unstable();
                    words.dedup();
                    words.into()
                },
                fetches: rec.fetches.into(),
                delta,
                conflicts: (self.arb.conflicts() - rec.conflicts) as u32,
                timers: unit.core.timers(self.now),
                stalled: self.arb.stalled_mask(0),
            };
            let bytes = entry.bytes(&rec.key);
            memo.full = memo.bytes + bytes > BUDGET;
            if !memo.full {
                memo.bytes += bytes;
                let entries = memo.table.entry(rec.key).or_default();
                entries.reserve_exact(1);
                entries.push(entry);
            }
        }
    }

    /// At a window boundary: looks the hart's timing state up and replays
    /// the recorded window if it validates (returns `true`); otherwise
    /// starts a recording when the table can take one.
    #[inline(never)]
    fn memo_window(&mut self, memo: &mut Memo, stop: u64) -> bool {
        if !self.units[0].core.memo_ready() || !self.dma.idle() || self.waiting != 0 {
            return false;
        }
        let now = self.now;
        let Memo { table, full, work, .. } = memo;
        let key = &mut work.key;
        key.0.clear();
        let unit = &self.units[0];
        unit.core.encode_key(now, key);
        unit.fpss.encode_key(now, key);
        for ssr in &unit.ssrs {
            ssr.encode_key(key);
        }
        key.put(u64::from(self.arb.stalled_mask(0)));
        let counts = counts(unit);
        let found = table
            .get(work.key.0.as_slice())
            .and_then(|list| list.iter().find(|e| e.admits(&counts)));
        match found {
            None => {
                // Record a state (with its exact counts) only on its second
                // sighting: most states seen once are never seen again.
                let h = {
                    let mut hasher = KeyHasher::default();
                    hasher.write(&work.key.0);
                    for c in counts.iter().flatten() {
                        hasher.write_u32(*c);
                    }
                    hasher.finish()
                };
                let (slot, print) = (&mut work.seen[h as usize % SEEN], (h >> 32) as u32 | 1);
                let again = *slot == print;
                *slot = print;
                if !again || *full {
                    return false;
                }
            }
            Some(e) => {
                if now + u64::from(e.len) > stop
                    || now + u64::from(e.len) - self.last_progress > crate::cluster::DEADLOCK_WINDOW
                {
                    return false;
                }
                let unit = &mut self.units[0];
                if replay(e, unit, now, self.cfg, self.text, self.blocks, self.mem, self.arb, work)
                {
                    #[cfg(any(test, feature = "testing"))]
                    {
                        work.hits += 1;
                    }
                    commit(e, unit, now, self.arb);
                    self.now = now + u64::from(e.len);
                    self.last_progress = now + u64::from(e.progress);
                    return true;
                }
                // The window runs timed; the entry stays for the next visit.
                #[cfg(any(test, feature = "testing"))]
                {
                    work.fallbacks += 1;
                }
                return false;
            }
        }
        let unit = &self.units[0];
        memo.rec = Some(Recording {
            key: memo.work.key.0.as_slice().into(),
            counts,
            start: now,
            stats: unit.stats.clone(),
            conflicts: self.arb.conflicts(),
            steps: Vec::new(),
            next: 0,
            reps: Vec::new(),
            fetches: Vec::new(),
            ok: true,
            acts: 0,
            issuing: (0, false),
            seen: Seen::default(),
        });
        false
    }
}

/// The hart's counter deltas of a window, packed (see [`Entry::delta`]);
/// `None` if one does not fit.
fn pack_delta(delta: &Stats) -> Option<Box<[u32]>> {
    delta
        .counters()
        .into_iter()
        .enumerate()
        .filter(|&(_, d)| d > 0)
        .map(|(i, d)| (d < 1 << DELTA_BITS).then_some((i as u32) << DELTA_BITS | d as u32))
        .collect()
}

/// The counts a key caps, exact: the sequencer's iterations left, then
/// each streamer's steps left per dimension (see [`KeyBuf::put_count`]).
type Counts = [Option<u32>; 13];

fn counts(unit: &CoreUnit) -> Counts {
    let mut c = [None; 13];
    c[0] = unit.fpss.memo_count();
    for (i, ssr) in unit.ssrs.iter().enumerate() {
        c[1 + 4 * i..5 + 4 * i].copy_from_slice(&ssr.memo_counts());
    }
    c
}

/// The guards under which a window recorded from `counts` and spanning
/// `len` cycles replays exactly, for each count its key capped: no count
/// moves by more than one per cycle, so a count above `len` cannot run out
/// inside the window and any count above `len` behaves alike; a smaller
/// one is required exactly.
fn guards(counts: &Counts, len: u64) -> Box<[u32]> {
    counts
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let c = (*c).filter(|&c| c >= KEY_CAP)?;
            let guard = if u64::from(c) > len { len as u32 + 1 } else { EXACT | c };
            Some((i as u32) << GUARD_INDEX | guard)
        })
        .collect()
}

/// Applies a validated replay of `e` from `start`: the counters, the
/// refetches, the integer scoreboard and port claims, and the arbiter.
fn commit(e: &Entry, unit: &mut CoreUnit, start: u64, arb: &mut TcdmArbiter) {
    let end = start + u64::from(e.len);
    let mut counters = unit.stats.counters();
    for &d in &e.delta {
        let i = (d >> DELTA_BITS) as usize;
        counters[i] = counters[i].saturating_add(u64::from(d & ((1 << DELTA_BITS) - 1)));
    }
    unit.stats.set_counters(&counters);
    if e.words.iter().all(|&w| unit.l0.resident(u32::from(w))) {
        unit.stats.l0_hits += e.fetches.len() as u64;
    } else {
        for &word in &e.fetches {
            if unit.l0.fetch(u32::from(word)) {
                unit.stats.l0_hits += 1;
            } else {
                unit.stats.l0_misses += 1;
            }
        }
    }
    unit.core.set_timers(&e.timers, end);
    arb.set_stalled(0, e.stalled, u64::from(e.conflicts));
}

/// Replays `e` from `start` on the hart's functional state. On a
/// validation failure, restores that state and the memory, and returns
/// false.
#[allow(clippy::too_many_arguments)]
fn replay(
    e: &Entry,
    unit: &mut CoreUnit,
    start: u64,
    cfg: &ClusterConfig,
    text: &[Decoded],
    blocks: &BlockCache,
    mem: &mut Memory,
    arb: &TcdmArbiter,
    work: &mut Work,
) -> bool {
    let snap = work.snap.get_or_insert_with(|| {
        Box::new(Snapshot {
            core: unit.core.clone(),
            fpss: unit.fpss.clone(),
            ssrs: unit.ssrs.clone(),
        })
    });
    snap.core.restore_from(&unit.core);
    snap.fpss.restore_from(&unit.fpss);
    for (s, u) in snap.ssrs.iter_mut().zip(&unit.ssrs) {
        s.restore_from(u);
    }
    work.undo.clear();
    let ok = replay_steps(e, unit, start, cfg, text, blocks.ops(), mem, arb, work).is_some();
    if !ok {
        let snap = work.snap.as_ref().expect("saved above");
        unit.core.restore_from(&snap.core);
        unit.fpss.restore_from(&snap.fpss);
        for (u, s) in unit.ssrs.iter_mut().zip(&snap.ssrs) {
            u.restore_from(s);
        }
        for &(addr, len, old) in work.undo.iter().rev() {
            mem.write(addr, len, old).expect("restores a byte range it read");
        }
    }
    ok
}

/// Checks an access of the replay and logs what a store overwrites: every
/// access of a memoized window lies in the TCDM.
fn access(undo: &mut Vec<(u32, u32, u64)>, mem: &Memory, addr: u32, len: u32, store: bool) -> bool {
    if !layout::is_tcdm(addr) {
        return false;
    }
    if store {
        match mem.read(addr, len) {
            Ok(old) => undo.push((addr, len, old)),
            Err(_) => return false,
        }
    }
    true
}

/// The functional replay of `e`'s schedule; `None` at the first effect
/// that does not validate.
#[allow(clippy::too_many_arguments)]
fn replay_steps(
    e: &Entry,
    unit: &mut CoreUnit,
    start: u64,
    cfg: &ClusterConfig,
    text: &[Decoded],
    blocks: &[crate::block::BlockInst],
    mem: &mut Memory,
    arb: &TcdmArbiter,
    work: &mut Work,
) -> Option<()> {
    let CoreUnit { core, fpss, ssrs, .. } = unit;
    let Work { undo, scratch, .. } = work;
    let (mut tracer, mut profiler): (Option<Tracer>, Option<Profiler>) = (None, None);
    let mut charge = Charge::<false>::new(0, scratch, &mut tracer, &mut profiler);
    let mut reps = e.reps.iter();
    let mut next = start;
    for &a in &e.steps {
        if a & GAP != 0 {
            next += u64::from(a & !GAP);
            continue;
        }
        let now = next;
        next += 1;
        // Same-cycle requests, in arbitration order: `(bank, granted)`.
        let multi = (a & REQS).count_ones() > 1;
        let mut reqs = [(0usize, false); 5];
        let mut n = 0;
        let mut request = |addr: u32, granted: bool| {
            if multi {
                reqs[n] = (arb.bank_of(addr), granted);
                n += 1;
            }
            layout::is_tcdm(addr)
        };
        if a & DRAIN != 0 {
            core.replay_writebacks(fpss, now);
        }
        if a & CORE_REQ != 0 && !request(core.lsu_addr(blocks)?, a & ISSUE != 0) {
            return None;
        }
        if a & ISSUE != 0 {
            let taken = core.replay_issue(text, blocks, mem, fpss, |m, addr, len, store| {
                access(undo, m, addr, len, store)
            })?;
            if taken != (a & TAKEN != 0) {
                return None;
            }
        }
        if a & PUSH != 0 && !fpss.deliver_ssr_pushes(now, ssrs) {
            return None;
        }
        if a & MARKER != 0 {
            if fpss.pending_frep()?.min(REP_CAP) != *reps.next()? {
                return None;
            }
            fpss.replay_frep().ok()?;
        }
        if a & (FP_ISSUE | FP_REQ) != 0 {
            let (entry, lane) = fpss.candidate()?;
            if a & FP_REQ != 0 && !request(entry.int_val?, a & FP_ISSUE != 0) {
                return None;
            }
            if a & FP_ISSUE != 0 {
                if let Some((addr, len, store)) = entry.mem_span() {
                    if !access(undo, mem, addr, len, store) {
                        return None;
                    }
                }
                fpss.replay_issue(&entry, lane, now, cfg, mem, ssrs, &mut charge).ok()?;
            }
        }
        for (i, ssr) in ssrs.iter_mut().enumerate().take(if a & SSR_REQS == 0 { 0 } else { 3 }) {
            if a & (SSR_REQ << i) == 0 {
                continue;
            }
            if !ssr.wants_request() {
                return None;
            }
            let addr = ssr.request_addr();
            let beat = a & (SSR_BEAT << i) != 0;
            if !request(addr, beat) {
                return None;
            }
            if beat {
                if let Some((addr, len)) = ssr.store_span(addr) {
                    if !access(undo, mem, addr, len, true) {
                        return None;
                    }
                }
                ssr.perform(mem, addr).ok()?;
            }
        }
        // The arbiter grants a bank to the first request of the cycle;
        // every later request to it is denied.
        if multi {
            for k in 0..n {
                let (bank, granted) = reqs[k];
                if granted == reqs[..k].iter().any(|&(b, g)| g && b == bank) {
                    return None;
                }
            }
        }
    }
    Some(())
}

/// Counter readings one observed unit step is judged by.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Seen {
    issued: u64,
    fpu: u64,
    tcdm_core: u64,
    core_denied: u64,
    tcdm_fp: u64,
    fp_denied: u64,
    off_tcdm: u64,
}

impl Seen {
    fn of(s: &Stats) -> Self {
        Seen {
            issued: s.int_issued + s.fp_issued_core,
            fpu: s.fpu_busy_cycles,
            tcdm_core: s.tcdm_core_accesses,
            core_denied: s.stall_tcdm_conflict,
            tcdm_fp: s.tcdm_fp_accesses,
            fp_denied: s.fpu_stall_tcdm,
            off_tcdm: s.main_mem_accesses + s.l2_accesses,
        }
    }
}

/// The observer of a recording window: [`CoreUnit::burst_cycle`] calls
/// these around its steps when it records, and they write what acted into
/// the schedule.
impl Recording {
    /// Before the cycle's write-back drain.
    pub(crate) fn begin_cycle(&mut self, fpss: &Fpss, now: u64) {
        self.acts = if fpss.writeback_due(now) { DRAIN } else { 0 };
    }

    /// Before the integer core's issue attempt.
    pub(crate) fn before_issue(&mut self, core: &IntCore, blocks: &BlockCache, stats: &Stats) {
        self.issuing = (core.pc_word(), core.replayable(blocks.ops()));
        self.seen = Seen::of(stats);
    }

    /// After the integer core's issue attempt: whether it issued, whether
    /// that redirected the pc (a redirect is what sets a refill window),
    /// and whether it requested a TCDM bank.
    pub(crate) fn after_issue(&mut self, core: &IntCore, now: u64, stats: &Stats) {
        let (before, after) = (self.seen, Seen::of(stats));
        if after.issued != before.issued {
            let (word, replayable) = self.issuing;
            self.acts |= ISSUE;
            self.ok &= replayable && u16::try_from(word).is_ok();
            self.fetches.push(word as u16);
            if core.stall_until() > now {
                self.acts |= TAKEN;
            }
        }
        if after.tcdm_core != before.tcdm_core || after.core_denied != before.core_denied {
            self.acts |= CORE_REQ;
        }
        self.ok &= after.off_tcdm == before.off_tcdm;
    }

    /// Before the FP subsystem's step: due SSR pushes and an FREP marker.
    pub(crate) fn before_fp(&mut self, fpss: &Fpss, now: u64, stats: &Stats) {
        if fpss.ssr_push_due(now) {
            self.acts |= PUSH;
        }
        if let Some(rep) = fpss.pending_frep() {
            self.acts |= MARKER;
            self.reps.push(rep.min(REP_CAP));
        }
        self.seen = Seen::of(stats);
    }

    /// After the FP subsystem's step: whether the FPU issued and whether
    /// it requested a TCDM bank.
    pub(crate) fn after_fp(&mut self, stats: &Stats) {
        let (before, after) = (self.seen, Seen::of(stats));
        if after.fpu != before.fpu {
            self.acts |= FP_ISSUE;
        }
        if after.tcdm_fp != before.tcdm_fp || after.fp_denied != before.fp_denied {
            self.acts |= FP_REQ;
        }
        self.ok &= after.off_tcdm == before.off_tcdm;
    }

    /// Before streamer `i` steps.
    pub(crate) fn before_ssr(&mut self, i: usize, ssr: &Ssr) {
        if ssr.wants_request() {
            self.acts |= SSR_REQ << i;
            self.ok &= layout::is_tcdm(ssr.request_addr());
        }
    }

    /// Streamer `i` moved a beat.
    pub(crate) fn ssr_beat(&mut self, i: usize) {
        self.acts |= SSR_BEAT << i;
    }

    /// After the cycle: appends its schedule word.
    pub(crate) fn end_cycle(&mut self, now: u64) {
        if self.acts != 0 {
            let at = now - self.start;
            if at > self.next {
                self.steps.push(GAP | (at - self.next) as u16);
            }
            self.steps.push(self.acts);
            self.next = at + 1;
        }
    }
}
