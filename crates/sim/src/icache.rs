//! L0 instruction buffer model.
//!
//! Snitch places a small fully-associative L0 instruction buffer in front of
//! the shared L1 instruction cache. Loops that fit the L0 are served entirely
//! from it; larger loops thrash it (FIFO replacement with sequential reuse
//! yields no hits), so every fetch pays an L1 access — the paper uses exactly
//! this effect to explain why the `exp`/`log` COPIFT variants *reduce* I$
//! power: after separating the FP instructions, the integer loop body fits L0.
//!
//! The model is energy-oriented: hits and misses are counted per fetch, while
//! timing assumes the L0's next-line prefetcher hides the L1 latency (fetch
//! never stalls the core in this model; taken-branch refill is charged
//! separately by the core as the branch penalty).
//!
//! Implementation: this is queried once per issued instruction, so it sits on
//! the simulator's hottest path. Entries are keyed by text word index
//! (`(pc - TEXT_BASE) >> 2`, which the core computes anyway to index its
//! decoded text), so residency is one flag per word — an O(1) array lookup
//! with no hashing and no probing — and FIFO order is a fixed ring of
//! `capacity` slots. `fetch` allocates only the first time it sees a word
//! past the end of the flag table. Behavior (hit/miss per access, FIFO
//! eviction order) is identical to a set + queue model.

/// L0 instruction buffer with FIFO replacement.
#[derive(Clone, Debug)]
pub struct L0Cache {
    capacity: usize,
    /// Residency flag per text word index.
    resident: Vec<bool>,
    /// FIFO ring of resident word indices (eviction order).
    fifo: Vec<u32>,
    head: usize,
    len: usize,
    hits: u64,
    misses: u64,
}

impl L0Cache {
    /// Creates a buffer holding `capacity` instructions.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "L0 capacity must be positive");
        L0Cache {
            capacity,
            resident: Vec::new(),
            fifo: vec![0; capacity],
            head: 0,
            len: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Restores the just-constructed empty state, reusing both tables — the
    /// allocation-free equivalent of `L0Cache::new(capacity)`.
    pub fn reset(&mut self) {
        self.resident.fill(false);
        self.head = 0;
        self.len = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// Records a fetch of the instruction at text word index `word`;
    /// returns whether it hit.
    pub fn fetch(&mut self, word: u32) -> bool {
        let w = word as usize;
        if self.resident.get(w).copied().unwrap_or(false) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.len == self.capacity {
            let evicted = self.fifo[self.head];
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.len -= 1;
            self.resident[evicted as usize] = false;
        }
        let mut tail = self.head + self.len;
        if tail >= self.capacity {
            tail -= self.capacity;
        }
        self.fifo[tail] = word;
        self.len += 1;
        if w >= self.resident.len() {
            self.resident.resize(w + 1, false);
        }
        self.resident[w] = true;
        false
    }

    /// Fetches served from the buffer.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Fetches forwarded to the L1 instruction cache.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_loop_hits_after_first_iteration() {
        let mut c = L0Cache::new(8);
        for _ in 0..10 {
            for pc in (0..4 * 4).step_by(4) {
                c.fetch(pc);
            }
        }
        assert_eq!(c.misses(), 4);
        assert_eq!(c.hits(), 36);
    }

    #[test]
    fn loop_larger_than_capacity_thrashes() {
        // 12-instruction loop in an 8-entry FIFO: sequential reuse never hits.
        let mut c = L0Cache::new(8);
        for _ in 0..5 {
            for pc in (0..12 * 4).step_by(4) {
                c.fetch(pc);
            }
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 60);
    }

    #[test]
    fn boundary_loop_exactly_capacity_fits() {
        let mut c = L0Cache::new(8);
        for _ in 0..3 {
            for pc in (0..8 * 4).step_by(4) {
                c.fetch(pc);
            }
        }
        assert_eq!(c.misses(), 8);
        assert_eq!(c.hits(), 16);
    }

    /// The flag-table implementation must agree access-for-access with the
    /// obvious set + FIFO-queue reference model on adversarial patterns
    /// (re-fetch after eviction, capacity churn, table growth).
    #[test]
    fn matches_reference_model_on_pseudo_random_patterns() {
        use std::collections::{HashSet, VecDeque};

        struct Reference {
            capacity: usize,
            resident: HashSet<u32>,
            order: VecDeque<u32>,
        }
        impl Reference {
            fn fetch(&mut self, pc: u32) -> bool {
                if self.resident.contains(&pc) {
                    return true;
                }
                if self.order.len() == self.capacity {
                    let evicted = self.order.pop_front().unwrap();
                    self.resident.remove(&evicted);
                }
                self.order.push_back(pc);
                self.resident.insert(pc);
                false
            }
        }

        for capacity in [1usize, 3, 8, 16, 64] {
            let mut c = L0Cache::new(capacity);
            let mut r = Reference { capacity, resident: HashSet::new(), order: VecDeque::new() };
            // xorshift-ish pc stream biased toward collisions: addresses are
            // word-aligned and folded into a small window so home slots clash.
            let mut x: u32 = 0x9e37_79b9;
            for step in 0..20_000u32 {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                // Mix short sequential bursts (loop-like) with random jumps.
                let pc = if step % 7 < 5 {
                    (step % 97) * 4
                } else {
                    (x % (capacity as u32 * 4 + 13)) * 4
                };
                assert_eq!(c.fetch(pc), r.fetch(pc), "divergence at step {step} pc {pc:#x}");
            }
            assert_eq!(c.hits() + c.misses(), 20_000);
        }
    }
}
