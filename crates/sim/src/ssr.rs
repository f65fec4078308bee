//! Stream semantic register (SSR) data movers, including ISSR indirection.
//!
//! Snitch maps the FP registers `ft0..ft2` onto three hardware streamers when
//! the SSR CSR is set: reads pop elements prefetched from an affine (or, for
//! ISSRs, indirect) address pattern; writes push results that a streamer
//! drains to memory. Streams are configured through `scfgwi` writes (see
//! [`snitch_riscv::csr::SsrCfgWord`]); writing the `Base` word arms the
//! streamer.
//!
//! Reconfiguring a streamer that is still active stalls the integer core
//! until the stream completes — the synchronization that makes the COPIFT
//! per-block SSR reprogramming safe.

use std::collections::VecDeque;

use snitch_riscv::csr::SsrCfgWord;

use crate::mem::{MemFault, Memory, TcdmArbiter, TcdmPort};

/// Shadow configuration written by `scfgwi`.
#[derive(Clone, Copy, Debug, Default)]
struct SsrConfig {
    write_mode: bool,
    indirect: bool,
    /// Active dimensions minus one (0..=3).
    dims: u8,
    /// Four-byte elements if true, else eight-byte.
    elem4: bool,
    bounds: [u32; 4],
    strides: [i32; 4],
    repeat: u32,
    base: u32,
    idx_base: u32,
    /// log2 of the index element size in bytes (0, 1 or 2).
    idx_size_log2: u8,
}

/// One SSR data mover.
#[derive(Clone, Debug)]
pub struct Ssr {
    cfg: SsrConfig,
    fifo_capacity: usize,
    active: bool,
    done_generating: bool,
    counters: [u32; 4],
    idx_counter: u32,
    pending_index: Option<u32>,
    data_fifo: VecDeque<u64>,
    write_reserved: usize,
    beats: u64,
}

impl Ssr {
    /// Creates an idle streamer with the given data-FIFO depth.
    #[must_use]
    pub fn new(fifo_capacity: usize) -> Self {
        assert!(fifo_capacity > 0);
        Ssr {
            cfg: SsrConfig::default(),
            fifo_capacity,
            active: false,
            done_generating: false,
            counters: [0; 4],
            idx_counter: 0,
            pending_index: None,
            data_fifo: VecDeque::with_capacity(fifo_capacity),
            write_reserved: 0,
            beats: 0,
        }
    }

    /// Restores the just-constructed idle state (configuration cleared,
    /// nothing armed, counters zeroed), reusing the data FIFO allocation —
    /// the allocation-free equivalent of `Ssr::new(fifo_capacity)`.
    pub fn reset(&mut self) {
        self.cfg = SsrConfig::default();
        self.active = false;
        self.done_generating = false;
        self.counters = [0; 4];
        self.idx_counter = 0;
        self.pending_index = None;
        self.data_fifo.clear();
        self.write_reserved = 0;
        self.beats = 0;
    }

    /// Whether the streamer still owns its configuration: it has been armed
    /// and has not finished generating/draining its stream. The core must
    /// stall configuration writes while this holds.
    #[must_use]
    pub fn busy(&self) -> bool {
        if !self.active {
            return false;
        }
        if self.cfg.write_mode {
            !(self.done_generating && self.data_fifo.is_empty() && self.write_reserved == 0)
        } else {
            // A read stream is released once all elements are generated and
            // consumed.
            !(self.done_generating && self.data_fifo.is_empty())
        }
    }

    /// Writes a configuration word. The caller must ensure `!self.busy()`.
    pub fn write_cfg(&mut self, word: SsrCfgWord, value: u32) {
        debug_assert!(!self.busy(), "configuration write to a busy streamer");
        match word {
            SsrCfgWord::Status => {
                self.cfg.write_mode = value & 1 != 0;
                self.cfg.dims = ((value >> 1) & 0b11) as u8;
                self.cfg.indirect = value & 0b1000 != 0;
                self.cfg.elem4 = value & 0b1_0000 != 0;
            }
            SsrCfgWord::Repeat => self.cfg.repeat = value,
            SsrCfgWord::Bound(d) => self.cfg.bounds[d as usize] = value,
            SsrCfgWord::Stride(d) => self.cfg.strides[d as usize] = value as i32,
            SsrCfgWord::IdxBase => self.cfg.idx_base = value,
            SsrCfgWord::IdxSize => self.cfg.idx_size_log2 = (value & 0b11) as u8,
            SsrCfgWord::Base => {
                self.cfg.base = value;
                self.arm();
            }
        }
    }

    /// Reads back a configuration word (`scfgri`).
    #[must_use]
    pub fn read_cfg(&self, word: SsrCfgWord) -> u32 {
        match word {
            SsrCfgWord::Status => {
                u32::from(self.cfg.write_mode)
                    | (u32::from(self.cfg.dims) << 1)
                    | (u32::from(self.cfg.indirect) << 3)
                    | (u32::from(self.cfg.elem4) << 4)
            }
            SsrCfgWord::Repeat => self.cfg.repeat,
            SsrCfgWord::Bound(d) => self.cfg.bounds[d as usize],
            SsrCfgWord::Stride(d) => self.cfg.strides[d as usize] as u32,
            SsrCfgWord::IdxBase => self.cfg.idx_base,
            SsrCfgWord::IdxSize => u32::from(self.cfg.idx_size_log2),
            SsrCfgWord::Base => self.cfg.base,
        }
    }

    fn arm(&mut self) {
        self.active = true;
        self.done_generating = false;
        self.counters = [0; 4];
        self.idx_counter = 0;
        self.pending_index = None;
        self.data_fifo.clear();
        self.write_reserved = 0;
    }

    fn elem_bytes(&self) -> u32 {
        if self.cfg.elem4 {
            4
        } else {
            8
        }
    }

    fn current_addr(&self) -> u32 {
        let mut addr = self.cfg.base;
        for d in 0..=self.cfg.dims as usize {
            addr = addr.wrapping_add((self.counters[d] as i64 * self.cfg.strides[d] as i64) as u32);
        }
        addr
    }

    /// Advances the affine counters; returns `false` when the pattern is
    /// exhausted.
    fn advance(&mut self) -> bool {
        for d in 0..=self.cfg.dims as usize {
            if self.counters[d] < self.cfg.bounds[d] {
                self.counters[d] += 1;
                return true;
            }
            self.counters[d] = 0;
        }
        false
    }

    // ------------------------------------------------------- FPU interface

    /// Read mode: whether an element is available to pop this cycle.
    #[must_use]
    pub fn read_available(&self) -> bool {
        !self.cfg.write_mode && !self.data_fifo.is_empty()
    }

    /// Read mode: number of elements available to pop this cycle.
    #[must_use]
    pub fn available_elements(&self) -> usize {
        if self.cfg.write_mode {
            0
        } else {
            self.data_fifo.len()
        }
    }

    /// Pops the next stream element (operand bits).
    ///
    /// # Panics
    ///
    /// Panics if no element is available (callers check
    /// [`read_available`](Self::read_available)).
    pub fn pop(&mut self) -> u64 {
        debug_assert!(self.read_available());
        self.data_fifo.pop_front().expect("ssr pop on empty fifo")
    }

    /// Write mode: whether the write FIFO can accept a reservation.
    #[must_use]
    pub fn write_ready(&self) -> bool {
        self.cfg.write_mode && self.data_fifo.len() + self.write_reserved < self.fifo_capacity
    }

    /// Reserves one write slot (at FPU issue time).
    pub fn reserve_write(&mut self) {
        debug_assert!(self.write_ready());
        self.write_reserved += 1;
    }

    /// Delivers a previously reserved write (at FPU completion time).
    pub fn push(&mut self, bits: u64) {
        debug_assert!(self.write_reserved > 0, "push without reservation");
        self.write_reserved -= 1;
        self.data_fifo.push_back(bits);
    }

    /// Total elements moved to/from memory.
    #[must_use]
    pub fn beats(&self) -> u64 {
        self.beats
    }

    /// Whether the streamer is armed (used for activity statistics).
    #[must_use]
    pub fn armed(&self) -> bool {
        self.active && !self.done_generating
    }

    /// Whether a cycle of streamer work would change nothing at all: not
    /// armed (so no prefetch/drain attempt and no activity accounting) and
    /// no queued write data left to store. A quiescent streamer can be
    /// skipped over by the cluster's fast path without perturbing a single
    /// counter. (Leftover *read* data waiting to be popped is quiescent:
    /// the streamer itself takes no action until the FPU pops.)
    #[must_use]
    pub fn quiescent(&self) -> bool {
        !self.armed() && (!self.cfg.write_mode || self.data_fifo.is_empty())
    }

    // ------------------------------------------------------------- timing

    /// One cycle of streamer work: fill the read FIFO or drain the write
    /// FIFO, with TCDM bank arbitration as `port`. Returns the number of
    /// TCDM accesses performed (0 or 1).
    ///
    /// # Errors
    ///
    /// Returns the [`MemFault`] of an index fetch, element fetch or element
    /// store to unmapped memory.
    pub fn step(
        &mut self,
        mem: &mut Memory,
        arb: &mut TcdmArbiter,
        port: TcdmPort,
    ) -> Result<u32, MemFault> {
        if !self.wants_request() {
            return Ok(0);
        }
        let addr = self.request_addr();
        if !arb.request(port, addr) {
            return Ok(0);
        }
        self.perform(mem, addr)?;
        Ok(1)
    }

    /// Whether a cycle of work requests a TCDM bank: an armed read stream
    /// with elements left to generate and room for the next one (and its
    /// repeats), or a write stream with data to drain.
    pub(crate) fn wants_request(&self) -> bool {
        if !self.active {
            return false;
        }
        if self.cfg.write_mode {
            return !self.data_fifo.is_empty();
        }
        let copies = self.cfg.repeat as usize + 1;
        !self.done_generating && self.data_fifo.len() + copies <= self.fifo_capacity.max(copies)
    }

    /// The address of the request [`wants_request`](Self::wants_request)
    /// announces: an indirect stream fetches its next index, then the
    /// element it selects; an affine stream walks its counters.
    pub(crate) fn request_addr(&self) -> u32 {
        if self.cfg.write_mode || !self.cfg.indirect {
            return self.current_addr();
        }
        match self.pending_index {
            None => {
                let idx_bytes = 1u32 << self.cfg.idx_size_log2;
                self.cfg.idx_base.wrapping_add(self.idx_counter * idx_bytes)
            }
            Some(idx) => self.cfg.base.wrapping_add(idx * self.elem_bytes()),
        }
    }

    /// The access the granted request at `addr` performs: an index fetch,
    /// an element fetch into the read FIFO, or the store of the write
    /// FIFO's oldest element.
    pub(crate) fn perform(&mut self, mem: &mut Memory, addr: u32) -> Result<(), MemFault> {
        if self.cfg.write_mode {
            let bits = *self.data_fifo.front().expect("a draining write stream holds data");
            mem.write(addr, self.elem_bytes(), bits)?;
            self.data_fifo.pop_front();
            self.beats += 1;
            if !self.advance() {
                // Anything pushed beyond the pattern would be a kernel bug;
                // the busy() condition keeps the streamer owned until drained.
                self.done_generating = true;
            }
        } else if self.cfg.indirect && self.pending_index.is_none() {
            let idx_bytes = 1u32 << self.cfg.idx_size_log2;
            self.pending_index = Some(mem.read(addr, idx_bytes)? as u32);
            self.idx_counter += 1;
        } else {
            let bits = mem.read(addr, self.elem_bytes())?;
            self.beats += 1;
            for _ in 0..=self.cfg.repeat {
                self.data_fifo.push_back(bits);
            }
            if !self.advance() {
                self.done_generating = true;
            }
            self.pending_index = None;
        }
        Ok(())
    }

    /// The bytes a write stream's next [`perform`](Self::perform) stores,
    /// as `(addr, len)`; `None` for a read stream.
    pub(crate) fn store_span(&self, addr: u32) -> Option<(u32, u32)> {
        self.cfg.write_mode.then(|| (addr, self.elem_bytes()))
    }

    /// Appends the streamer's timing state to a memo key: its configuration
    /// except the two base addresses, whether it is armed and done, its
    /// FIFO occupancy and reservations, whether an index is in flight, and
    /// the steps left per active dimension (capped). Addresses are not
    /// timing state: the memo validates every one on replay.
    pub(crate) fn encode_key(&self, key: &mut crate::memo::KeyBuf) {
        let c = &self.cfg;
        key.put(
            u64::from(c.write_mode)
                | u64::from(c.indirect) << 1
                | u64::from(c.elem4) << 2
                | u64::from(self.active) << 3
                | u64::from(self.done_generating) << 4
                | u64::from(self.pending_index.is_some()) << 5
                | u64::from(c.dims) << 6
                | u64::from(c.idx_size_log2) << 8,
        );
        key.put(u64::from(c.repeat));
        key.put(self.data_fifo.len() as u64);
        key.put(self.write_reserved as u64);
        for d in 0..=c.dims as usize {
            key.put(u64::from(c.bounds[d]));
            key.put(u64::from(c.strides[d] as u32));
            key.put_count(c.bounds[d] - self.counters[d]);
        }
    }

    /// The steps left per active dimension, which a memo key caps (see
    /// `memo::Counts`); `None` past the active dimensions.
    pub(crate) fn memo_counts(&self) -> [Option<u32>; 4] {
        std::array::from_fn(|d| {
            (d <= self.cfg.dims as usize).then(|| self.cfg.bounds[d] - self.counters[d])
        })
    }

    /// Copies every field a memo replay can change from `other`, reusing
    /// this streamer's FIFO allocation.
    pub(crate) fn restore_from(&mut self, other: &Ssr) {
        self.active = other.active;
        self.done_generating = other.done_generating;
        self.counters = other.counters;
        self.idx_counter = other.idx_counter;
        self.pending_index = other.pending_index;
        self.data_fifo.clone_from(&other.data_fifo);
        self.write_reserved = other.write_reserved;
        self.beats = other.beats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_asm::layout::TCDM_BASE;

    fn armed_read_ssr(bounds0: u32, stride0: i32) -> Ssr {
        let mut s = Ssr::new(4);
        s.write_cfg(SsrCfgWord::Status, 0); // read, 1-D, 8-byte
        s.write_cfg(SsrCfgWord::Bound(0), bounds0);
        s.write_cfg(SsrCfgWord::Stride(0), stride0 as u32);
        s.write_cfg(SsrCfgWord::Repeat, 0);
        s.write_cfg(SsrCfgWord::Base, TCDM_BASE);
        s
    }

    #[test]
    fn one_dimensional_read_stream() {
        let mut mem = Memory::new();
        for i in 0..4u64 {
            mem.write(TCDM_BASE + (i as u32) * 8, 8, 100 + i).unwrap();
        }
        let mut arb = TcdmArbiter::new(32);
        let mut s = armed_read_ssr(3, 8);
        assert!(s.busy());
        let mut popped = Vec::new();
        for _ in 0..16 {
            arb.begin_cycle();
            s.step(&mut mem, &mut arb, TcdmPort::Ssr(0, 0)).unwrap();
            if s.read_available() {
                popped.push(s.pop());
            }
        }
        assert_eq!(popped, vec![100, 101, 102, 103]);
        assert!(!s.busy(), "drained read stream releases the streamer");
        assert_eq!(s.beats(), 4);
    }

    #[test]
    fn repeat_serves_elements_multiple_times() {
        let mut mem = Memory::new();
        mem.write(TCDM_BASE, 8, 7).unwrap();
        mem.write(TCDM_BASE + 8, 8, 9).unwrap();
        let mut arb = TcdmArbiter::new(32);
        let mut s = Ssr::new(4);
        s.write_cfg(SsrCfgWord::Status, 0);
        s.write_cfg(SsrCfgWord::Bound(0), 1);
        s.write_cfg(SsrCfgWord::Stride(0), 8);
        s.write_cfg(SsrCfgWord::Repeat, 1);
        s.write_cfg(SsrCfgWord::Base, TCDM_BASE);
        let mut popped = Vec::new();
        for _ in 0..16 {
            arb.begin_cycle();
            s.step(&mut mem, &mut arb, TcdmPort::Ssr(0, 0)).unwrap();
            while s.read_available() {
                popped.push(s.pop());
            }
        }
        assert_eq!(popped, vec![7, 7, 9, 9]);
        assert_eq!(s.beats(), 2, "one memory beat per element despite repeats");
    }

    #[test]
    fn two_dimensional_stream_fuses_loops() {
        // 2-D: inner bound 2 (3 elements) stride 8; outer bound 1 (2 iters)
        // stride -16: addresses 0,8,16, 8,16,24... relative to base 16.
        let mut mem = Memory::new();
        for i in 0..6u64 {
            mem.write(TCDM_BASE + (i as u32) * 8, 8, i).unwrap();
        }
        let mut arb = TcdmArbiter::new(32);
        let mut s = Ssr::new(8);
        s.write_cfg(SsrCfgWord::Status, 0b010); // read, dims=1 (2-D)
        s.write_cfg(SsrCfgWord::Bound(0), 2);
        s.write_cfg(SsrCfgWord::Stride(0), 8);
        s.write_cfg(SsrCfgWord::Bound(1), 1);
        s.write_cfg(SsrCfgWord::Stride(1), (-16i32) as u32);
        s.write_cfg(SsrCfgWord::Base, TCDM_BASE + 16);
        let mut popped = Vec::new();
        for _ in 0..20 {
            arb.begin_cycle();
            s.step(&mut mem, &mut arb, TcdmPort::Ssr(0, 0)).unwrap();
            while s.read_available() {
                popped.push(s.pop());
            }
        }
        assert_eq!(popped, vec![2, 3, 4, 0, 1, 2]);
    }

    #[test]
    fn write_stream_drains_to_memory() {
        let mut mem = Memory::new();
        let mut arb = TcdmArbiter::new(32);
        let mut s = Ssr::new(4);
        s.write_cfg(SsrCfgWord::Status, 1); // write mode
        s.write_cfg(SsrCfgWord::Bound(0), 2);
        s.write_cfg(SsrCfgWord::Stride(0), 8);
        s.write_cfg(SsrCfgWord::Base, TCDM_BASE + 64);
        for v in [10u64, 11, 12] {
            assert!(s.write_ready());
            s.reserve_write();
            s.push(v);
        }
        assert!(s.busy());
        for _ in 0..8 {
            arb.begin_cycle();
            s.step(&mut mem, &mut arb, TcdmPort::Ssr(0, 0)).unwrap();
        }
        assert!(!s.busy());
        assert_eq!(mem.read(TCDM_BASE + 64, 8).unwrap(), 10);
        assert_eq!(mem.read(TCDM_BASE + 72, 8).unwrap(), 11);
        assert_eq!(mem.read(TCDM_BASE + 80, 8).unwrap(), 12);
    }

    #[test]
    fn indirect_stream_reads_via_index_list() {
        let mut mem = Memory::new();
        // Data table at base; index list picks elements 3, 0, 2.
        for i in 0..4u64 {
            mem.write(TCDM_BASE + (i as u32) * 8, 8, 200 + i).unwrap();
        }
        let idx_base = TCDM_BASE + 512;
        for (j, idx) in [3u16, 0, 2].iter().enumerate() {
            mem.write(idx_base + (j as u32) * 2, 2, u64::from(*idx)).unwrap();
        }
        let mut arb = TcdmArbiter::new(32);
        let mut s = Ssr::new(4);
        s.write_cfg(SsrCfgWord::Status, 0b1000); // read, indirect
        s.write_cfg(SsrCfgWord::Bound(0), 2); // 3 elements
        s.write_cfg(SsrCfgWord::IdxBase, idx_base);
        s.write_cfg(SsrCfgWord::IdxSize, 1); // 2-byte indices
        s.write_cfg(SsrCfgWord::Base, TCDM_BASE);
        let mut popped = Vec::new();
        for _ in 0..20 {
            arb.begin_cycle();
            s.step(&mut mem, &mut arb, TcdmPort::Ssr(0, 0)).unwrap();
            while s.read_available() {
                popped.push(s.pop());
            }
        }
        assert_eq!(popped, vec![203, 200, 202]);
        // Index + data beats both hit memory.
        assert_eq!(s.beats(), 3, "data beats");
    }

    #[test]
    fn four_byte_elements() {
        let mut mem = Memory::new();
        mem.write(TCDM_BASE, 4, 0xaaaa_bbbb).unwrap();
        mem.write(TCDM_BASE + 4, 4, 0xcccc_dddd).unwrap();
        let mut arb = TcdmArbiter::new(32);
        let mut s = Ssr::new(4);
        s.write_cfg(SsrCfgWord::Status, 0b1_0000); // read, 4-byte elems
        s.write_cfg(SsrCfgWord::Bound(0), 1);
        s.write_cfg(SsrCfgWord::Stride(0), 4);
        s.write_cfg(SsrCfgWord::Base, TCDM_BASE);
        let mut popped = Vec::new();
        for _ in 0..8 {
            arb.begin_cycle();
            s.step(&mut mem, &mut arb, TcdmPort::Ssr(0, 0)).unwrap();
            while s.read_available() {
                popped.push(s.pop());
            }
        }
        assert_eq!(popped, vec![0xaaaa_bbbb, 0xcccc_dddd]);
    }

    #[test]
    fn fifo_backpressure_stops_prefetch() {
        let mut mem = Memory::new();
        let mut arb = TcdmArbiter::new(32);
        let mut s = armed_read_ssr(63, 8);
        // Never pop: the streamer must stop at FIFO capacity.
        for _ in 0..32 {
            arb.begin_cycle();
            s.step(&mut mem, &mut arb, TcdmPort::Ssr(0, 0)).unwrap();
        }
        assert_eq!(s.beats(), 4, "prefetch limited by fifo depth");
    }
}
