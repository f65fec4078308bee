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
//! decoded text). Each word keeps the miss count at which it was last
//! inserted; since every miss inserts exactly one word, the resident set is
//! the words inserted by the last `capacity` misses, so a word is resident
//! iff `misses - stamp < capacity` — one array lookup and one compare, with
//! no eviction work. `fetch` allocates only the first time it sees a word
//! past the end of the stamp table. Behavior (hit/miss per access, FIFO
//! eviction order) is identical to a set + queue model.

/// L0 instruction buffer with FIFO replacement.
#[derive(Clone, Debug)]
pub struct L0Cache {
    capacity: u64,
    /// Per text word index, the miss count just after its latest insertion
    /// (`never` for words not inserted since the last reset).
    stamps: Vec<u64>,
    misses: u64,
}

impl L0Cache {
    /// Creates a buffer holding `capacity` instructions.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "L0 capacity must be positive");
        L0Cache { capacity: capacity as u64, stamps: Vec::new(), misses: 0 }
    }

    /// The stamp of a word never inserted: `misses - never` wraps to
    /// `misses + capacity`, which is never below `capacity`.
    fn never(&self) -> u64 {
        self.capacity.wrapping_neg()
    }

    /// Restores the just-constructed empty state, reusing the stamp table —
    /// the allocation-free equivalent of `L0Cache::new(capacity)`.
    pub fn reset(&mut self) {
        let never = self.never();
        self.stamps.fill(never);
        self.misses = 0;
    }

    /// Records a fetch of the instruction at text word index `word`;
    /// returns whether it hit.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    pub fn fetch(&mut self, word: u32) -> bool {
        let w = word as usize;
        if let Some(&stamp) = self.stamps.get(w) {
            if self.misses.wrapping_sub(stamp) < self.capacity {
                return true;
            }
        } else {
            let never = self.never();
            self.stamps.resize(w + 1, never);
        }
        self.misses += 1;
        self.stamps[w] = self.misses;
        false
    }

    /// Whether text word `word` is resident: its next fetch hits, and
    /// changes nothing.
    pub(crate) fn resident(&self, word: u32) -> bool {
        self.stamps.get(word as usize).is_some_and(|&s| self.misses.wrapping_sub(s) < self.capacity)
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

    /// Fetches the text words `0..body` `iterations` times; returns the
    /// (hits, misses) split.
    fn run_loop(c: &mut L0Cache, body: u32, iterations: u32) -> (u32, u32) {
        let hits = (0..iterations).flat_map(|_| 0..body).filter(|&w| c.fetch(w)).count() as u32;
        (hits, body * iterations - hits)
    }

    #[test]
    fn small_loop_hits_after_first_iteration() {
        let mut c = L0Cache::new(8);
        assert_eq!(run_loop(&mut c, 4, 10), (36, 4));
        assert_eq!(c.misses(), 4);
    }

    #[test]
    fn loop_larger_than_capacity_thrashes() {
        // 12-instruction loop in an 8-entry FIFO: sequential reuse never hits.
        let mut c = L0Cache::new(8);
        assert_eq!(run_loop(&mut c, 12, 5), (0, 60));
    }

    #[test]
    fn boundary_loop_exactly_capacity_fits() {
        let mut c = L0Cache::new(8);
        assert_eq!(run_loop(&mut c, 8, 3), (16, 8));
    }

    #[test]
    fn reset_forgets_every_resident_word() {
        let mut c = L0Cache::new(8);
        run_loop(&mut c, 8, 2);
        c.reset();
        assert_eq!(c.misses(), 0);
        // Misses on other words bring the count back to the stamps the
        // first run left behind; none of its words may read as resident.
        assert!((100..104).all(|w| !c.fetch(w)));
        assert!((0..8).all(|w| !c.fetch(w)));
    }

    /// The stamp table must agree access-for-access with the obvious set +
    /// FIFO-queue model at every capacity the sweeps use and beyond, on
    /// random streams mixing loop-like sequential runs, re-fetches just
    /// after eviction and jumps that grow the table — and again after a
    /// reset, which must leave no word resident.
    #[test]
    fn matches_set_plus_queue_model_on_random_streams() {
        use std::collections::{HashSet, VecDeque};

        struct Reference {
            capacity: usize,
            resident: HashSet<u32>,
            order: VecDeque<u32>,
        }
        impl Reference {
            fn fetch(&mut self, word: u32) -> bool {
                if self.resident.contains(&word) {
                    return true;
                }
                if self.order.len() == self.capacity {
                    let evicted = self.order.pop_front().unwrap();
                    self.resident.remove(&evicted);
                }
                self.order.push_back(word);
                self.resident.insert(word);
                false
            }
        }

        let mut x: u32 = 0x9e37_79b9;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        for capacity in 1..=64usize {
            let mut c = L0Cache::new(capacity);
            for round in 0..2 {
                let mut r =
                    Reference { capacity, resident: HashSet::new(), order: VecDeque::new() };
                // Words fold into a window a little larger than the buffer,
                // so eviction and re-fetch collide often.
                let window = capacity as u32 * 2 + 7;
                let mut word = 0;
                let mut hits = 0;
                for step in 0..4_000u32 {
                    word = if next() % 4 == 0 { next() % window } else { (word + 1) % window };
                    let hit = c.fetch(word);
                    assert_eq!(hit, r.fetch(word), "capacity {capacity} round {round} step {step}");
                    hits += u32::from(hit);
                }
                assert_eq!(c.misses(), u64::from(4_000 - hits));
                c.reset();
            }
        }
    }
}
