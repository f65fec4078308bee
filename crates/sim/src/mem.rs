//! Data memory: TCDM scratchpad, main memory, and the per-cycle bank
//! arbiter.
//!
//! Functional state (byte contents) is separated from timing (bank grants).
//! Units request a bank through [`TcdmArbiter`] each cycle; a denied request
//! is retried the next cycle by the requesting unit.

use std::cell::{Cell, RefCell};

use snitch_asm::layout;

/// Identifies a TCDM master port for arbitration and statistics. With a
/// multi-core cluster every per-core unit is a distinct port, so the arbiter
/// can attribute a stalled request to its requester.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcdmPort {
    /// Integer-core load/store unit of hart `h`.
    CoreLsu(u8),
    /// FP-subsystem load/store unit of hart `h`.
    FpLsu(u8),
    /// SSR data mover `(hart, streamer 0..2)`.
    Ssr(u8, u8),
    /// Cluster DMA engine, source side.
    DmaSrc,
    /// Cluster DMA engine, destination side.
    DmaDst,
}

/// Per-cycle TCDM bank arbiter.
///
/// Banks are 64-bit wide and interleaved at 8-byte granularity (`addr >> 3`
/// selects the bank — matching the 64-bit banking the SSR and LSU data paths
/// assume). Each bank serves one request per cycle; the caller order in
/// the cluster's run loop establishes the fixed priority (hart 0 >
/// hart 1 > ... and, within a hart, core > FP LSU > SSR0..2; the DMA
/// engine arbitrates last).
///
/// A denied request is retried by the requesting unit every cycle until
/// granted, but is counted as **one** conflict, not one per retry cycle —
/// `conflicts` counts distinct stalled requests, so the statistic stays
/// linear in the amount of contention rather than in its duration.
///
/// Grants are tracked as a generation-stamped table: a bank is taken this
/// cycle iff its stamp equals the current cycle generation, so
/// [`begin_cycle`](Self::begin_cycle) is a single counter increment instead
/// of clearing the whole grant table (the per-cycle cost the simulator hot
/// loop pays even on cycles with no memory traffic).
#[derive(Clone, Debug)]
pub struct TcdmArbiter {
    banks: usize,
    /// Per-bank grant stamp; the bank is granted iff `granted[b] == gen`.
    granted: Vec<u64>,
    /// Current cycle generation (starts at 1 so a zeroed table is all-free).
    gen: u64,
    conflicts: u64,
    /// Ports whose in-flight request has already been counted as a conflict
    /// (cleared when the port's retry is finally granted).
    stalled: Vec<TcdmPort>,
}

impl TcdmArbiter {
    /// Creates an arbiter for `banks` banks.
    #[must_use]
    pub fn new(banks: usize) -> Self {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        TcdmArbiter { banks, granted: vec![0; banks], gen: 1, conflicts: 0, stalled: Vec::new() }
    }

    /// Invalidates all grants at the start of a cycle by advancing the grant
    /// generation. (Stall tracking persists: a request denied last cycle
    /// that retries this cycle is the same request.)
    pub fn begin_cycle(&mut self) {
        self.gen += 1;
    }

    /// Restores the just-constructed state, reusing the grant table — the
    /// allocation-free equivalent of `TcdmArbiter::new(banks)`.
    pub fn reset(&mut self) {
        self.granted.fill(0);
        self.gen = 1;
        self.conflicts = 0;
        self.stalled.clear();
    }

    /// The bank index serving `addr`.
    #[must_use]
    pub fn bank_of(&self, addr: u32) -> usize {
        ((addr >> 3) as usize) & (self.banks - 1)
    }

    /// Requests the bank serving `addr` for `port` this cycle. Returns
    /// whether the request was granted; a denied request is counted as one
    /// conflict the first time it is denied (retries of the same stalled
    /// request do not re-count).
    pub fn request(&mut self, port: TcdmPort, addr: u32) -> bool {
        let bank = self.bank_of(addr);
        if self.granted[bank] == self.gen {
            if !self.stalled.contains(&port) {
                self.conflicts += 1;
                self.stalled.push(port);
            }
            false
        } else {
            self.granted[bank] = self.gen;
            if let Some(i) = self.stalled.iter().position(|p| *p == port) {
                self.stalled.swap_remove(i);
            }
            true
        }
    }

    /// Returns the bank serving `addr` to the free pool for the remainder of
    /// the cycle. Used by multi-port units (the DMA engine) that must hold
    /// *all* their banks to make progress: a granted side whose partner was
    /// denied gives its bank back instead of blocking it for a transfer that
    /// cannot happen this cycle.
    pub fn release(&mut self, addr: u32) {
        let bank = self.bank_of(addr);
        debug_assert_eq!(self.granted[bank], self.gen, "release of an ungranted bank");
        self.granted[bank] = 0;
    }

    /// Total distinct stalled requests so far.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// The ports of hart `h` and of the DMA engine, in the bit order of
    /// [`stalled_mask`](Self::stalled_mask).
    fn memo_ports(h: u8) -> [TcdmPort; 7] {
        [
            TcdmPort::CoreLsu(h),
            TcdmPort::FpLsu(h),
            TcdmPort::Ssr(h, 0),
            TcdmPort::Ssr(h, 1),
            TcdmPort::Ssr(h, 2),
            TcdmPort::DmaSrc,
            TcdmPort::DmaDst,
        ]
    }

    /// Which ports of a one-hart cluster (hart `h`) have a request already
    /// counted as a conflict, one bit per port. Only membership matters to
    /// the arbiter, never the list order.
    pub(crate) fn stalled_mask(&self, h: u8) -> u8 {
        let ports = Self::memo_ports(h);
        self.stalled
            .iter()
            .fold(0, |m, p| m | ports.iter().position(|q| q == p).map_or(0, |i| 1 << i))
    }

    /// Replaces the stalled ports by those of `mask` (see
    /// [`stalled_mask`](Self::stalled_mask)) and adds `conflicts` distinct
    /// stalled requests: the arbiter's state after a memoized window.
    pub(crate) fn set_stalled(&mut self, h: u8, mask: u8, conflicts: u64) {
        self.stalled.clear();
        let ports = Self::memo_ports(h);
        self.stalled.extend((0..7).filter(|i| mask & (1 << i) != 0).map(|i| ports[i]));
        self.conflicts += conflicts;
    }
}

/// Growth step of a store past a region's backing (every region size in
/// the address map is a multiple of it).
const GROW_STEP: usize = 4096;

/// An empty watermark range.
const CLEAN: (usize, usize) = (usize::MAX, 0);

/// The contents of one region of the address map, backed by host memory
/// only as far as the program has written it.
///
/// The backing starts at the region's offset 0 and ends at the highest byte
/// an image, a sync or a store has written; every byte past it reads zero.
/// Callers check an access against the address map first, so the backing
/// never grows past its region.
#[derive(Clone, Debug)]
pub(crate) struct Region {
    bytes: Vec<u8>,
    /// Byte range written since the last clear: images, syncs and stores.
    written: (usize, usize),
    /// Byte range stored by the owning cluster's units since the last take
    /// (what the `System` applies from a peer window to its owner).
    touched: (usize, usize),
}

impl Default for Region {
    fn default() -> Self {
        Region { bytes: Vec::new(), written: CLEAN, touched: CLEAN }
    }
}

impl Region {
    /// Reads `len` bytes at `off` as a little-endian value; bytes past the
    /// backing read zero.
    #[inline]
    pub(crate) fn read(&self, off: usize, len: u32) -> u64 {
        if let Some(s) = self.bytes.get(off..off + len as usize) {
            return le_value(s);
        }
        let s = self.bytes.get(off..).unwrap_or_default();
        le_value(&s[..s.len().min(len as usize)])
    }

    /// Stores the `len` low-order bytes of `value` at `off` on behalf of the
    /// owning cluster's units, growing the backing in [`GROW_STEP`]s.
    #[inline]
    fn store(&mut self, off: usize, len: u32, value: u64) {
        let end = off + len as usize;
        if end > self.bytes.len() {
            self.grow(end.next_multiple_of(GROW_STEP));
        }
        let bytes = value.to_le_bytes();
        let s = &mut self.bytes[off..end];
        match s.len() {
            8 => s.copy_from_slice(&bytes),
            n => s.copy_from_slice(&bytes[..n]),
        }
        widen(&mut self.written, off, end);
        widen(&mut self.touched, off, end);
    }

    /// Overwrites `off..off + data.len()` from outside the owning cluster's
    /// units (an image, a sync-in, a remote store): counts as written, not
    /// as touched.
    pub(crate) fn put(&mut self, off: usize, data: &[u8]) {
        let end = off + data.len();
        if end > self.bytes.len() {
            self.grow(end);
        }
        self.bytes[off..end].copy_from_slice(data);
        widen(&mut self.written, off, end);
    }

    /// Backs `..len`. A region holding nothing (fresh or cleared) first
    /// releases its old allocation and takes exactly `len` bytes, so a
    /// reused memory follows the current job's footprint, not the largest
    /// one it has seen; a region holding bytes grows like any `Vec`.
    #[cold]
    fn grow(&mut self, len: usize) {
        if self.bytes.is_empty() {
            self.bytes = Vec::new();
            self.bytes.reserve_exact(len);
        }
        self.bytes.resize(len, 0);
    }

    /// Drops every byte and watermark in constant time: with nothing
    /// backed, everything reads zero.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.written = CLEAN;
        self.touched = CLEAN;
    }

    /// The bytes of watermark range `lo..hi`, as `(offset, bytes)`.
    fn span(&self, (lo, hi): (usize, usize)) -> Option<(usize, &[u8])> {
        (lo < hi).then(|| (lo, &self.bytes[lo..hi]))
    }

    /// The range written since the last clear.
    pub(crate) fn written(&self) -> Option<(usize, &[u8])> {
        self.span(self.written)
    }

    /// Host bytes allocated for the backing.
    pub(crate) fn backed_bytes(&self) -> usize {
        self.bytes.capacity()
    }
}

/// One bit per byte of a region: which bytes the owning cluster's units
/// read or stored since the last run began. Backed as far as the highest
/// marked byte, like a [`Region`].
#[derive(Clone, Debug, Default)]
pub(crate) struct ByteMask {
    words: Vec<u64>,
}

/// A mask with no byte set.
static NO_BYTES: ByteMask = ByteMask { words: Vec::new() };

impl ByteMask {
    /// Marks `lo..hi`.
    fn set(&mut self, lo: usize, hi: usize) {
        let last = (hi - 1) / 64;
        if last >= self.words.len() {
            self.words.resize((last + 1).next_multiple_of(GROW_STEP / 64), 0);
        }
        for w in lo / 64..=last {
            self.words[w] |= word_bits(w, lo, hi);
        }
    }

    fn clear(&mut self) {
        self.words.clear();
    }

    fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// One past the last byte the backing covers.
    fn end(&self) -> usize {
        self.words.len() * 64
    }

    /// The first maximal run of bytes marked both here and in `other` but
    /// not in `minus`, as `(start, end)`.
    fn first_common_run(&self, other: &ByteMask, minus: &ByteMask) -> Option<(usize, usize)> {
        let end = self.end().min(other.end());
        first_run(0, end, |w| self.word(w) & other.word(w) & !minus.word(w))
    }

    /// Every maximal run of marked bytes, in address order.
    fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let run = first_run(at, self.end(), |w| self.word(w))?;
            at = run.1;
            Some(run)
        })
    }
}

/// The first maximal run of bytes inside `lo..hi` whose bits are set in the
/// mask words `bits(w)`, as `(start, end)`.
fn first_run(lo: usize, hi: usize, bits: impl Fn(usize) -> u64) -> Option<(usize, usize)> {
    let live = |w: usize| bits(w) & word_bits(w, lo, hi);
    let mut w = lo / 64;
    let start = loop {
        if w.saturating_mul(64) >= hi {
            return None;
        }
        match live(w) {
            0 => w += 1,
            bits => break w * 64 + bits.trailing_zeros() as usize,
        }
    };
    let mut w = start / 64;
    let mut gaps = !live(w) & (u64::MAX << (start % 64));
    while gaps == 0 {
        w += 1;
        gaps = !live(w);
    }
    Some((start, w * 64 + gaps.trailing_zeros() as usize))
}

/// The bits of mask word `w` that fall inside byte range `lo..hi`.
fn word_bits(w: usize, lo: usize, hi: usize) -> u64 {
    let base = w * 64;
    let (s, e) = (lo.saturating_sub(base).min(64), hi.saturating_sub(base).min(64));
    if s >= e {
        0
    } else {
        (u64::MAX >> (64 - (e - s))) << s
    }
}

/// Indices into [`Memory`]'s region table: the TCDM, main memory, the L2
/// copy, then one remote-TCDM snapshot per cluster (`PEERS + k`).
const TCDM: usize = 0;
const MAIN: usize = 1;
const L2: usize = 2;
const PEERS: usize = 3;

/// Byte-addressable cluster memory (functional contents).
///
/// Each region of the address map is a `Region` backed only as far as
/// the job has written it, so a cluster costs host memory in proportion to
/// its program's footprint, not to the map.
#[derive(Clone, Debug)]
pub struct Memory {
    /// Every region, by the indices above. The L2 entry is a local copy in
    /// a multi-cluster `System`, which keeps the canonical contents, syncs
    /// them in before the cluster runs and merges the stored bytes back out
    /// afterwards; in a standalone run it *is* the L2. Peer snapshots
    /// back the remote alias windows (the own-cluster entry stays unused:
    /// the own window routes to the TCDM).
    regions: [Region; PEERS + layout::MAX_CLUSTERS],
    /// Clusters whose alias windows are mapped (0 until
    /// [`enable_peers`](Self::enable_peers)).
    clusters: usize,
    /// Which cluster this memory belongs to.
    self_cluster: usize,
    /// The L2 bytes this cluster's units (core, FP subsystem, streamers,
    /// DMA) read since the run began. A cell, because reads take `&self`.
    l2_reads: RefCell<ByteMask>,
    /// The L2 bytes this cluster's units stored since the run began.
    l2_stored: ByteMask,
    /// Whether this cluster's units read or wrote a remote alias window
    /// since the run began.
    peer_access: Cell<bool>,
}

/// Error for an access outside the mapped regions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemFault {
    /// Faulting byte address.
    pub addr: u32,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "access to unmapped address {:#010x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

/// The offset of `addr..addr + len` into the region `base..base + size`,
/// if the access lies wholly inside it (no overflow at the top of the
/// address space).
#[inline]
pub(crate) fn offset_in(addr: u32, len: u32, base: u32, size: u32) -> Option<usize> {
    let off = addr.wrapping_sub(base);
    (off < size && len <= size - off).then_some(off as usize)
}

impl Memory {
    /// Creates zeroed memory. Nothing is backed until an image, a sync or a
    /// store writes it.
    #[must_use]
    pub fn new() -> Self {
        Memory {
            regions: std::array::from_fn(|_| Region::default()),
            clusters: 0,
            self_cluster: 0,
            l2_reads: RefCell::default(),
            l2_stored: ByteMask::default(),
            peer_access: Cell::new(false),
        }
    }

    /// Loads initial images (from an assembled program).
    pub fn load_images(&mut self, tcdm: &[u8], main: &[u8]) {
        self.regions[TCDM].put(0, tcdm);
        self.regions[MAIN].put(0, main);
    }

    /// Loads the initial L2 image. Counts as sync-in, not as a write by
    /// this cluster's units.
    pub fn load_l2(&mut self, l2: &[u8]) {
        self.regions[L2].put(0, l2);
    }

    /// Maps the alias windows of an `clusters`-cluster system, identifying
    /// this memory as cluster `self_cluster`. The own window routes straight
    /// to the TCDM; remote windows get snapshots the `System` fills before
    /// each run.
    ///
    /// # Panics
    ///
    /// Panics if `self_cluster >= clusters` or `clusters` exceeds
    /// [`layout::MAX_CLUSTERS`].
    pub fn enable_peers(&mut self, clusters: usize, self_cluster: usize) {
        assert!(self_cluster < clusters && clusters <= layout::MAX_CLUSTERS);
        self.clusters = clusters;
        self.self_cluster = self_cluster;
        self.regions[PEERS..].iter_mut().for_each(Region::clear);
    }

    /// Zeroes all contents in constant time. After `clear` plus
    /// `load_images` the memory is indistinguishable from a freshly
    /// constructed one.
    pub fn clear(&mut self) {
        self.regions.iter_mut().for_each(Region::clear);
        self.begin_run();
    }

    /// Starts a run's access tracking: forgets the L2 reads, the L2 stored
    /// bytes and any remote-window access seen so far.
    pub(crate) fn begin_run(&mut self) {
        self.l2_reads.get_mut().clear();
        self.l2_stored.clear();
        self.peer_access.set(false);
    }

    /// Records a read of `off..off + len` in region `region` (L2 or a
    /// remote window; the TCDM and main memory are private and untracked).
    #[inline]
    fn note_read(&self, region: usize, off: usize, len: u32) {
        if region == L2 {
            self.l2_reads.borrow_mut().set(off, off + len as usize);
        } else {
            self.peer_access.set(true);
        }
    }

    /// Records a store to `off..off + len` in region `region`, as
    /// [`note_read`](Self::note_read) does for reads.
    #[inline]
    fn note_store(&mut self, region: usize, off: usize, len: u32) {
        if region == L2 {
            self.l2_stored.set(off, off + len as usize);
        } else {
            self.peer_access.set(true);
        }
    }

    /// Resolves an access to its region index and the offset into it, or
    /// faults when any byte of it is unmapped. The TCDM is checked first: it
    /// serves almost every access.
    #[inline]
    fn locate(&self, addr: u32, len: u32) -> Result<(usize, usize), MemFault> {
        if let Some(off) = offset_in(addr, len, layout::TCDM_BASE, layout::TCDM_SIZE) {
            return Ok((TCDM, off));
        }
        if let Some(off) = offset_in(addr, len, layout::MAIN_BASE, layout::MAIN_SIZE) {
            return Ok((MAIN, off));
        }
        if let Some(off) = offset_in(addr, len, layout::L2_BASE, layout::L2_SIZE) {
            return Ok((L2, off));
        }
        match layout::alias_cluster(addr) {
            Some((k, off)) if len <= layout::TCDM_SIZE - off => {
                if k == self.self_cluster {
                    Ok((TCDM, off as usize))
                } else if k < self.clusters {
                    Ok((PEERS + k, off as usize))
                } else {
                    Err(MemFault { addr })
                }
            }
            _ => Err(MemFault { addr }),
        }
    }

    /// Whether `addr..addr+len` is mapped.
    #[must_use]
    pub fn is_mapped(&self, addr: u32, len: u32) -> bool {
        self.locate(addr, len).is_ok()
    }

    // ---- System synchronisation (multi-cluster runs) ----

    /// Overwrites `l2[off..off+data.len()]` with canonical bytes from the
    /// `System`. Counts toward the written range but not as a store by the
    /// cluster's units.
    pub fn sync_l2_in(&mut self, off: usize, data: &[u8]) {
        self.regions[L2].put(off, data);
    }

    /// Overwrites peer `k`'s snapshot window with that cluster's actual TCDM
    /// bytes (same sync-in semantics as [`sync_l2_in`](Self::sync_l2_in)).
    pub fn sync_peer_in(&mut self, k: usize, off: usize, data: &[u8]) {
        self.regions[PEERS + k].put(off, data);
    }

    /// The L2 bytes this cluster's own units stored since the run began
    /// (or the last [`clear`](Self::clear)), run by run as
    /// `(offset, bytes)` in address order: exactly what the `System`
    /// merges into the canonical L2.
    pub fn l2_stored(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let l2 = &self.regions[L2].bytes;
        self.l2_stored.runs().map(move |(lo, hi)| (lo, &l2[lo..hi]))
    }

    /// The L2 bytes this cluster's units stored since the run began, one
    /// bit per byte.
    pub(crate) fn l2_stored_mask(&self) -> &ByteMask {
        &self.l2_stored
    }

    /// The first run of L2 bytes, as `(start, end)` offsets, that this
    /// cluster's units read since the run began and that are marked in
    /// `stored` (another cluster's [`l2_stored_mask`](Self::l2_stored_mask)),
    /// leaving out the bytes this cluster stored too if `except_own`.
    pub(crate) fn l2_read_of(&self, stored: &ByteMask, except_own: bool) -> Option<(usize, usize)> {
        let minus = if except_own { &self.l2_stored } else { &NO_BYTES };
        self.l2_reads.borrow().first_common_run(stored, minus)
    }

    /// Whether this cluster's units read or wrote a remote alias window
    /// since the run began.
    pub(crate) fn peer_access(&self) -> bool {
        self.peer_access.get()
    }

    /// The bytes this cluster stored into peer `k`'s alias window since the
    /// last take (to be applied to the owner's TCDM); resets the watermark.
    pub fn take_peer_touched(&mut self, k: usize) -> Option<(usize, &[u8])> {
        let region = &mut self.regions[PEERS + k];
        let range = std::mem::replace(&mut region.touched, CLEAN);
        region.span(range)
    }

    /// The TCDM range written so far (images + stores), for the `System`'s
    /// peer-snapshot refresh.
    #[must_use]
    pub fn tcdm_written(&self) -> Option<(usize, &[u8])> {
        self.regions[TCDM].written()
    }

    /// Overwrites `tcdm[off..]` with bytes another cluster stored through
    /// this cluster's alias window.
    pub fn apply_remote_tcdm(&mut self, off: usize, data: &[u8]) {
        self.regions[TCDM].put(off, data);
    }

    /// Host bytes allocated to back the regions.
    #[must_use]
    pub fn backed_bytes(&self) -> usize {
        self.regions.iter().map(Region::backed_bytes).sum()
    }

    /// Reads `len` (1, 2, 4 or 8) bytes as a little-endian value.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    #[inline]
    pub fn read(&self, addr: u32, len: u32) -> Result<u64, MemFault> {
        let (region, off) = self.locate(addr, len)?;
        if region >= L2 {
            self.note_read(region, off, len);
        }
        Ok(self.regions[region].read(off, len))
    }

    /// Writes `len` (1, 2, 4 or 8) low-order bytes of `value`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    #[inline]
    pub fn write(&mut self, addr: u32, len: u32, value: u64) -> Result<(), MemFault> {
        let (region, off) = self.locate(addr, len)?;
        self.regions[region].store(off, len, value);
        if region >= L2 {
            self.note_store(region, off, len);
        }
        Ok(())
    }

    /// Convenience: reads an `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    pub fn read_f64(&self, addr: u32) -> Result<f64, MemFault> {
        Ok(f64::from_bits(self.read(addr, 8)?))
    }
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

/// The little-endian value of up to eight bytes.
#[inline]
fn le_value(s: &[u8]) -> u64 {
    match *s {
        [b0] => u64::from(b0),
        [b0, b1] => u64::from(u16::from_le_bytes([b0, b1])),
        [b0, b1, b2, b3] => u64::from(u32::from_le_bytes([b0, b1, b2, b3])),
        [b0, b1, b2, b3, b4, b5, b6, b7] => u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]),
        _ => s.iter().rev().fold(0, |v, b| v << 8 | u64::from(*b)),
    }
}

/// Widens a watermark range to cover `lo..hi`.
fn widen(range: &mut (usize, usize), lo: usize, hi: usize) {
    range.0 = range.0.min(lo);
    range.1 = range.1.max(hi);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_tcdm() {
        let mut m = Memory::new();
        m.write(layout::TCDM_BASE + 16, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read(layout::TCDM_BASE + 16, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.read(layout::TCDM_BASE + 16, 4).unwrap(), 0x5566_7788);
        assert_eq!(m.read(layout::TCDM_BASE + 20, 4).unwrap(), 0x1122_3344);
        assert_eq!(m.read(layout::TCDM_BASE + 16, 1).unwrap(), 0x88);
    }

    #[test]
    fn read_write_roundtrip_main() {
        let mut m = Memory::new();
        m.write(layout::MAIN_BASE, 4, 0xdead_beef).unwrap();
        assert_eq!(m.read(layout::MAIN_BASE, 4).unwrap(), 0xdead_beef);
    }

    #[test]
    fn clear_zeroes_exactly_what_was_written() {
        let mut m = Memory::new();
        // Dirty both regions through every write path: direct writes and
        // image loads.
        m.write(layout::TCDM_BASE + 1000, 8, u64::MAX).unwrap();
        m.write(layout::TCDM_BASE + 64 * 1024, 4, 0xdead_beef).unwrap();
        m.write(layout::MAIN_BASE + 12_000_000, 8, 42).unwrap();
        m.load_images(&[1, 2, 3], &[4, 5]);
        m.clear();
        // Everything reads back zero, wherever it was written.
        for addr in [
            layout::TCDM_BASE,
            layout::TCDM_BASE + 1000,
            layout::TCDM_BASE + 64 * 1024,
            layout::MAIN_BASE,
            layout::MAIN_BASE + 12_000_000,
        ] {
            assert_eq!(m.read(addr, 8).unwrap(), 0, "{addr:#x} not cleared");
        }
        // And a cleared memory behaves like a fresh one for new writes.
        m.write(layout::TCDM_BASE + 8, 8, 7).unwrap();
        m.clear();
        assert_eq!(m.read(layout::TCDM_BASE + 8, 8).unwrap(), 0);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = Memory::new();
        assert!(m.read(0x0300_0000, 4).is_err());
        assert!(m.read(layout::TCDM_BASE + layout::TCDM_SIZE - 2, 8).is_err());
        // Beyond the backed part of an alias window.
        assert!(m.read(layout::CLUSTER_ALIAS_BASE + layout::TCDM_SIZE, 4).is_err());
        // A remote cluster's window faults until peers are enabled.
        assert!(m.read(layout::tcdm_alias_base(1), 4).is_err());
    }

    #[test]
    fn l2_round_trips_and_clears() {
        let mut m = Memory::new();
        m.write(layout::L2_BASE + 40, 8, 0xfeed_f00d).unwrap();
        assert_eq!(m.read(layout::L2_BASE + 40, 8).unwrap(), 0xfeed_f00d);
        let stored = |m: &Memory| m.l2_stored().map(|(off, b)| (off, b.len())).collect::<Vec<_>>();
        assert_eq!(stored(&m), [(40, 8)]);
        m.clear();
        assert_eq!(stored(&m), [], "clear forgets the stored bytes");
        assert_eq!(m.read(layout::L2_BASE + 40, 8).unwrap(), 0);
    }

    #[test]
    fn sync_in_is_not_a_local_write() {
        let mut m = Memory::new();
        m.load_l2(&[9; 16]);
        m.sync_l2_in(64, &[7; 8]);
        assert_eq!(m.read(layout::L2_BASE, 8).unwrap(), 0x0909_0909_0909_0909);
        assert_eq!(m.read(layout::L2_BASE + 64, 8).unwrap(), 0x0707_0707_0707_0707);
        assert_eq!(m.l2_stored().count(), 0, "sync-in must not mark bytes to merge out");
        m.clear();
        assert_eq!(m.read(layout::L2_BASE, 8).unwrap(), 0, "sync-in still counts for clear");
        assert_eq!(m.read(layout::L2_BASE + 64, 8).unwrap(), 0);
    }

    #[test]
    fn own_alias_window_routes_to_own_tcdm() {
        let mut m = Memory::new();
        m.write(layout::tcdm_alias_base(0) + 24, 8, 0xabcd).unwrap();
        assert_eq!(m.read(layout::TCDM_BASE + 24, 8).unwrap(), 0xabcd);
        // ... in an enabled multi-cluster system too, at the self index.
        let mut m = Memory::new();
        m.enable_peers(4, 2);
        m.write(layout::tcdm_alias_base(2) + 8, 4, 77).unwrap();
        assert_eq!(m.read(layout::TCDM_BASE + 8, 4).unwrap(), 77);
    }

    #[test]
    fn peer_windows_snapshot_and_track_remote_stores() {
        let mut m = Memory::new();
        m.enable_peers(2, 0);
        m.sync_peer_in(1, 0, &[1, 2, 3, 4]);
        assert_eq!(m.read(layout::tcdm_alias_base(1), 4).unwrap(), 0x0403_0201);
        assert_eq!(m.take_peer_touched(1), None, "snapshot fill is not a remote store");
        m.write(layout::tcdm_alias_base(1) + 2, 2, 0xbeef).unwrap();
        assert_eq!(
            m.take_peer_touched(1).map(|(off, b)| (off, b.to_vec())),
            Some((2, vec![0xef, 0xbe]))
        );
        // Windows of clusters outside the system stay unmapped.
        assert!(m.read(layout::tcdm_alias_base(2), 4).is_err());
        assert!(!m.is_mapped(layout::tcdm_alias_base(2), 4));
        assert!(m.is_mapped(layout::tcdm_alias_base(1), 4));
    }

    #[test]
    fn top_of_address_space_faults_instead_of_overflowing() {
        let mut m = Memory::new();
        for (addr, len) in [(0xFFFF_FFFC, 8), (0xFFFF_FFFF, 2), (u32::MAX - 6, 8)] {
            assert_eq!(m.read(addr, len), Err(MemFault { addr }));
            assert_eq!(m.write(addr, len, 1), Err(MemFault { addr }));
            assert!(!m.is_mapped(addr, len));
        }
        // The last bytes of each region, and accesses running past them.
        for (base, size) in [
            (layout::TCDM_BASE, layout::TCDM_SIZE),
            (layout::MAIN_BASE, layout::MAIN_SIZE),
            (layout::L2_BASE, layout::L2_SIZE),
        ] {
            assert_eq!(m.read(base + size - 8, 8), Ok(0));
            assert!(m.is_mapped(base + size - 8, 8));
            assert_eq!(m.write(base + size - 4, 8, 1), Err(MemFault { addr: base + size - 4 }));
            assert!(!m.is_mapped(base + size - 4, 8));
        }
    }

    #[test]
    fn backing_follows_the_footprint() {
        let mut m = Memory::new();
        assert_eq!(m.backed_bytes(), 0, "a fresh memory backs nothing");
        m.load_images(&[1; 100], &[2; 40]);
        assert_eq!(m.backed_bytes(), 140);
        // Mapped but unbacked bytes read zero, without backing anything.
        assert_eq!(m.read(layout::TCDM_BASE + 64 * 1024, 8), Ok(0));
        assert_eq!(m.read(layout::L2_BASE + 8, 4), Ok(0));
        // A read straddling the end of the backing: the backed half is real.
        assert_eq!(m.read(layout::TCDM_BASE + 96, 8), Ok(0x0101_0101));
        assert_eq!(m.backed_bytes(), 140);
        // A store past the end grows the backing to cover it.
        m.write(layout::TCDM_BASE + 5000, 8, u64::MAX).unwrap();
        assert!(m.backed_bytes() >= 5048);
        assert_eq!(m.read(layout::TCDM_BASE + 5000, 8), Ok(u64::MAX));
        assert_eq!(m.read(layout::TCDM_BASE + 96, 8), Ok(0x0101_0101));
        // Clear drops the contents; the next image sizes the backing afresh.
        m.clear();
        assert_eq!(m.read(layout::TCDM_BASE + 5000, 8), Ok(0));
        assert_eq!(m.read(layout::TCDM_BASE, 8), Ok(0));
        m.load_images(&[3; 16], &[4; 16]);
        assert_eq!(m.backed_bytes(), 32);
        assert_eq!(m.read(layout::TCDM_BASE + 12, 8), Ok(0x0303_0303));
    }

    #[test]
    fn byte_mask_finds_runs_across_words() {
        let mut m = ByteMask::default();
        m.set(60, 68);
        m.set(70, 72);
        m.set(200, 201);
        assert_eq!(m.runs().collect::<Vec<_>>(), [(60, 68), (70, 72), (200, 201)]);
        let bits = |w| m.word(w);
        assert_eq!(first_run(0, 1000, bits), Some((60, 68)));
        assert_eq!(first_run(64, 66, bits), Some((64, 66)), "clipped to the range");
        assert_eq!(first_run(68, 70, bits), None);
        assert_eq!(first_run(usize::MAX, 0, bits), None, "an empty range");
        let mut other = ByteMask::default();
        other.set(0, 300);
        let mut minus = ByteMask::default();
        minus.set(60, 66);
        assert_eq!(m.first_common_run(&other, &minus), Some((66, 68)));
        // Stored bytes in a gap between read bytes are not read.
        let mut gap = ByteMask::default();
        gap.set(68, 70);
        gap.set(72, 200);
        assert_eq!(m.first_common_run(&gap, &NO_BYTES), None);
        gap.set(199, 201);
        assert_eq!(m.first_common_run(&gap, &NO_BYTES), Some((200, 201)));
        m.clear();
        assert_eq!(m.runs().count(), 0);
    }

    #[test]
    fn l2_read_mask_covers_core_loads_and_dma_beats() {
        use crate::cluster::Cluster;
        use crate::config::ClusterConfig;
        use snitch_asm::builder::ProgramBuilder;
        use snitch_riscv::reg::IntReg;

        // Half a word loaded by the core, 64 bytes copied by the DMA engine.
        let mut b = ProgramBuilder::new();
        let word = b.l2_f64("word", &[1.0]);
        let block = b.l2_f64("block", &[2.0; 8]);
        let dst = b.tcdm_reserve("dst", 64, 8);
        b.li_u(IntReg::A0, word);
        b.lw(IntReg::A1, IntReg::A0, 0);
        b.li_u(IntReg::A0, block);
        b.dmsrc(IntReg::A0);
        b.li_u(IntReg::A0, dst);
        b.dmdst(IntReg::A0);
        b.li(IntReg::A1, 64);
        b.dmcpyi(IntReg::A2, IntReg::A1);
        b.label("wait");
        b.dmstati(IntReg::A3);
        b.bnez(IntReg::A3, "wait");
        b.ecall();
        let p = b.build().unwrap();
        let mut c = Cluster::new(ClusterConfig::default());
        c.load_program(&p);
        c.run().unwrap();
        let off = |addr: u32| (addr - layout::L2_BASE) as usize;
        let reads = c.mem().l2_reads.borrow().runs().collect::<Vec<_>>();
        let (word, block) = (off(word), off(block));
        assert_eq!(reads, [(word, word + 4), (block, block + 64)], "the load and every beat");
        assert!(!c.mem().peer_access());
        assert_eq!(c.mem().l2_stored().count(), 0, "reads store nothing");
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = Memory::new();
        m.write(layout::TCDM_BASE, 8, std::f64::consts::PI.to_bits()).unwrap();
        assert_eq!(m.read_f64(layout::TCDM_BASE).unwrap(), std::f64::consts::PI);
    }

    const P0: TcdmPort = TcdmPort::CoreLsu(0);
    const P1: TcdmPort = TcdmPort::CoreLsu(1);

    #[test]
    fn arbiter_grants_one_per_bank() {
        let mut a = TcdmArbiter::new(4);
        a.begin_cycle();
        assert!(a.request(P0, layout::TCDM_BASE)); // bank 0
        assert!(a.request(P0, layout::TCDM_BASE + 8)); // bank 1
        assert!(!a.request(P1, layout::TCDM_BASE + 4 * 8)); // bank 0 again: conflict
        assert_eq!(a.conflicts(), 1);
        a.begin_cycle();
        assert!(a.request(P1, layout::TCDM_BASE + 4 * 8)); // free again
    }

    #[test]
    fn stalled_request_counts_one_conflict_across_retries() {
        // Port 1 loses bank 0 to port 0 for five consecutive cycles, then
        // finally wins: that is ONE stalled request, not five conflicts.
        let mut a = TcdmArbiter::new(32);
        for _ in 0..5 {
            a.begin_cycle();
            assert!(a.request(P0, layout::TCDM_BASE));
            assert!(!a.request(P1, layout::TCDM_BASE));
        }
        a.begin_cycle();
        assert!(a.request(P1, layout::TCDM_BASE), "uncontended retry is granted");
        assert_eq!(a.conflicts(), 1, "retries of one stalled request must not re-count");
    }

    #[test]
    fn two_stream_conflict_count_is_pinned() {
        // Regression: two SSR-style streams walking the TCDM with 8-byte
        // stride, offset so they collide on every second element. Stream A
        // (higher priority) always wins; stream B conflicts once per
        // colliding element and then drains it the next cycle.
        // Pattern per element pair: cycle k — A@bank b granted, B@bank b
        // denied (1 conflict); cycle k+1 — B@bank b granted (A idle).
        let mut a = TcdmArbiter::new(32);
        let sa = TcdmPort::Ssr(0, 0);
        let sb = TcdmPort::Ssr(1, 0);
        let mut granted_b = 0;
        for elem in 0..8u32 {
            a.begin_cycle();
            assert!(a.request(sa, layout::TCDM_BASE + elem * 8));
            assert!(!a.request(sb, layout::TCDM_BASE + elem * 8));
            a.begin_cycle();
            assert!(a.request(sb, layout::TCDM_BASE + elem * 8));
            granted_b += 1;
        }
        assert_eq!(granted_b, 8);
        assert_eq!(a.conflicts(), 8, "exactly one conflict per colliding element");
        // Distinct ports stall independently: both denied in one cycle is
        // two conflicts.
        a.begin_cycle();
        assert!(a.request(P0, layout::TCDM_BASE));
        assert!(!a.request(sa, layout::TCDM_BASE));
        assert!(!a.request(sb, layout::TCDM_BASE));
        assert_eq!(a.conflicts(), 10);
    }

    #[test]
    fn released_bank_is_grantable_again_within_the_cycle() {
        let mut a = TcdmArbiter::new(4);
        a.begin_cycle();
        assert!(a.request(P0, layout::TCDM_BASE));
        a.release(layout::TCDM_BASE);
        assert!(a.request(P1, layout::TCDM_BASE), "released bank is free again");
        assert_eq!(a.conflicts(), 0, "a release is not a conflict");
        // The new grant is a real one: a third request conflicts.
        assert!(!a.request(TcdmPort::Ssr(0, 0), layout::TCDM_BASE));
        assert_eq!(a.conflicts(), 1);
    }

    #[test]
    fn grant_generations_reset_every_cycle() {
        // Many begin_cycle calls with no fill: grants never leak across
        // cycles (the generation-counter equivalent of clearing the table).
        let mut a = TcdmArbiter::new(4);
        for _ in 0..1000 {
            a.begin_cycle();
            assert!(a.request(P0, layout::TCDM_BASE));
            assert!(!a.request(P1, layout::TCDM_BASE));
        }
        a.begin_cycle();
        assert!(a.request(P1, layout::TCDM_BASE), "fresh cycle frees every bank");
    }

    #[test]
    fn bank_interleave_is_8_bytes() {
        let a = TcdmArbiter::new(32);
        assert_eq!(a.bank_of(layout::TCDM_BASE), a.bank_of(layout::TCDM_BASE + 7));
        assert_ne!(a.bank_of(layout::TCDM_BASE), a.bank_of(layout::TCDM_BASE + 8));
        assert_eq!(a.bank_of(layout::TCDM_BASE), a.bank_of(layout::TCDM_BASE + 32 * 8));
    }
}
