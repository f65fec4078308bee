//! The multi-cluster system: N identical [`Cluster`]s behind a shared L2.
//!
//! # Execution and memory-visibility model
//!
//! Results are those of running the clusters **sequentially to completion
//! in cluster-id order**; the system's elapsed cycles are the maximum over
//! clusters (they would run concurrently in hardware). The canonical L2
//! contents live here; each cluster's [`Memory`] holds
//! a local L2 copy that is synced in before the cluster runs and whose
//! stored bytes are merged back out afterwards. Remote-TCDM alias windows
//! work the same way, against per-cluster snapshot buffers.
//!
//! The resulting visibility rule is simple and deterministic: cluster `k`
//! observes the L2 and the TCDMs of clusters `j < k` *after* those clusters
//! completed, and the TCDMs of clusters `j > k` in their pre-run (image)
//! state. Programs that need cross-cluster dataflow in both directions must
//! structure it in cluster-id order (the tiled kernels do: every cluster
//! reads shared inputs from L2 and writes disjoint outputs back). Run-to-run
//! this is exactly reproducible, which is what the engine's determinism
//! contract needs. A cluster that reads L2 bytes only a later cluster
//! stores would see their pre-run value, which depends on the order, so
//! the run fails with [`RunError::OrderDependent`] instead. (Bytes the
//! reader stores too are exempt: a read-modify-write chain through them,
//! like a cross-cluster sum, is what the order defines. Remote windows are
//! not checked.)
//!
//! # Concurrent execution
//!
//! Straight after [`load_program`](System::load_program), [`run`](System::run)
//! executes the clusters concurrently, every cluster syncing in the pre-run
//! L2 and TCDM images. Each cluster's memory records, one bit per byte, the
//! L2 bytes its units read and those they stored. When no cluster touched a
//! remote window and no cluster read an L2 byte that an earlier cluster
//! stored, every cluster saw exactly what cluster-id order would have shown
//! it, and the stored bytes merge in that order. Otherwise cluster 0's run
//! stands (its inputs are the same in both orders), and clusters `1..` are
//! rewound to their loaded state — reset and reloaded from the program copy
//! the system keeps, with their settings and instrumentation — and re-run
//! in order. Either way the result is that of cluster-id order,
//! deterministic by construction.
//!
//! The clusters run in slices of 65,536 cycles. Between slices a later
//! cluster gives up once the attempt is lost for it: it touched a remote
//! window, or it read bytes that an earlier cluster stored and published
//! when it completed, or another later cluster gave up or failed. So a
//! cluster that waits on a flag an earlier cluster sets costs about a slice
//! after that cluster completes, not a run to the watchdog.
//!
//! The clusters share the calling thread plus one spawned thread per
//! hardware thread nobody else occupies: a caller counts itself, and a pool
//! of simulation workers (the engine's) counts its threads through
//! [`occupy_host_thread`]. A system inside a fully busy pool runs all its
//! clusters on its own thread, one after another, so nested threading
//! never exceeds the host's parallelism. The thread count changes only the
//! host time, never the result.
//!
//! A `clusters == 1` system delegates directly to [`Cluster::run`] with no
//! sync steps at all, so single-cluster runs are bit-identical — stats,
//! registers, memory and trace — to driving a [`Cluster`] by hand.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::{panic, thread};

use snitch_asm::layout;
use snitch_asm::program::Program;
use snitch_profile::Profiler;
use snitch_trace::{TraceEvent, Tracer};

use crate::cluster::Cluster;
use crate::config::SystemConfig;
use crate::error::RunError;
use crate::mem::{self, ByteMask, MemFault, Memory, Region};
use crate::stats::Stats;

/// Cycles a cluster of a concurrent run simulates between checks that its
/// result can still be kept.
const SLICE: u64 = 1 << 16;

/// Host threads of this process busy simulating: the threads counted by
/// [`occupy_host_thread`] plus those multi-cluster runs spawned. A count
/// that publishes no other data.
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether the current thread is counted in [`BUSY`].
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// The guard [`occupy_host_thread`] returns.
#[derive(Debug)]
#[must_use = "the thread counts as busy only while the guard lives"]
pub struct HostThread {
    counted: bool,
}

impl Drop for HostThread {
    fn drop(&mut self) {
        if self.counted {
            BUSY.fetch_sub(1, Ordering::Relaxed);
            COUNTED.set(false);
        }
    }
}

/// Counts the calling thread as busy simulating until the guard drops. A
/// multi-cluster [`System::run`] spawns threads only for the hardware
/// threads no counted thread occupies (it counts its caller itself), so a
/// pool of simulation workers that counts its threads never oversubscribes
/// the host. On a thread that is counted already, the guard counts nothing.
pub fn occupy_host_thread() -> HostThread {
    let counted = !COUNTED.replace(true);
    if counted {
        BUSY.fetch_add(1, Ordering::Relaxed);
    }
    HostThread { counted }
}

/// Hardware threads taken by a multi-cluster run for the threads it
/// spawned, handed back on drop.
struct Spare(usize);

impl Spare {
    /// Takes up to `want` hardware threads that no busy thread occupies.
    fn take(want: usize) -> Spare {
        static HARDWARE: OnceLock<usize> = OnceLock::new();
        let hardware =
            *HARDWARE.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get));
        let busy = BUSY
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                Some(busy + grant(want, hardware, busy))
            })
            .expect("the update always applies");
        Spare(grant(want, hardware, busy))
    }
}

/// How many of `want` threads fit beside `busy` on `hardware` threads.
fn grant(want: usize, hardware: usize, busy: usize) -> usize {
    want.min(hardware.saturating_sub(busy))
}

impl Drop for Spare {
    fn drop(&mut self) {
        BUSY.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Applies `f(index, item)` to every item, on the calling thread plus one
/// spawned thread per idle hardware thread (see [`occupy_host_thread`]),
/// each taking a contiguous chunk of items (the calling thread takes the
/// first). Results come back in item order; a panic on another thread
/// resumes on the caller with its original payload.
fn on_threads<T: Send, R: Send>(items: &mut [T], f: impl Fn(usize, &mut T) -> R + Sync) -> Vec<R> {
    let _caller = occupy_host_thread();
    let spare = Spare::take(items.len().saturating_sub(1));
    let chunk = items.len().div_ceil(spare.0 + 1);
    let run_all = |first: usize, chunk: &mut [T]| {
        chunk.iter_mut().enumerate().map(|(i, item)| f(first + i, item)).collect::<Vec<_>>()
    };
    thread::scope(|s| {
        let mut chunks = items.chunks_mut(chunk);
        let own = chunks.next().expect("at least one item");
        let others: Vec<_> =
            chunks.enumerate().map(|(i, c)| s.spawn(move || run_all((i + 1) * chunk, c))).collect();
        let mut results = run_all(0, own);
        for handle in others {
            results.extend(handle.join().unwrap_or_else(|panic| panic::resume_unwind(panic)));
        }
        results
    })
}

/// What the clusters of a concurrent run share: whether the attempt is
/// already lost for clusters `1..`, and the L2 bytes each cluster that
/// completed stored.
struct Attempt {
    /// A flag that publishes no other data (the stored masks go through
    /// their `OnceLock`s), so its accesses are relaxed.
    lost: AtomicBool,
    stored: Vec<OnceLock<ByteMask>>,
}

impl Attempt {
    fn new(clusters: usize) -> Self {
        Attempt {
            lost: AtomicBool::new(false),
            stored: (0..clusters).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Runs cluster `k` in slices of [`SLICE`] cycles. A cluster `k > 0`
    /// stops early (`None`) once the attempt is lost for it, so a cluster
    /// that waits for data an earlier one stores costs at most a slice
    /// after that one completes. Cluster 0 always runs to the end.
    fn run(&self, k: usize, cluster: &mut Cluster) -> Option<Result<(), RunError>> {
        let mut until = cluster.cycle();
        let result = loop {
            if k > 0 && self.is_lost(k, cluster.mem()) {
                self.lost.store(true, Ordering::Relaxed);
                return None;
            }
            until += SLICE;
            match cluster.run_until(until) {
                Ok(None) => {}
                Ok(Some(_)) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        match result {
            Ok(()) => drop(self.stored[k].set(cluster.mem().l2_stored_mask().clone())),
            Err(_) => self.lost.store(true, Ordering::Relaxed),
        }
        Some(result)
    }

    /// Whether cluster `k`'s concurrent result can no longer be kept: the
    /// attempt is lost, or `k` touched a remote window, or it read L2
    /// bytes that a completed earlier cluster stored.
    fn is_lost(&self, k: usize, mem: &Memory) -> bool {
        self.lost.load(Ordering::Relaxed)
            || mem.peer_access()
            || self.stored[..k]
                .iter()
                .filter_map(OnceLock::get)
                .any(|s| mem.l2_read_of(s, false).is_some())
    }
}

/// A system of one or more Snitch clusters sharing an L2 region.
#[derive(Clone, Debug)]
pub struct System {
    cfg: SystemConfig,
    clusters: Vec<Cluster>,
    /// Canonical shared-L2 contents (authoritative between cluster runs;
    /// unused by a single-cluster system). Its written range (image +
    /// merges) bounds how much each sync-in copies.
    l2: Region,
    /// System rollup, refreshed by [`run`](Self::run).
    stats: Stats,
    /// The program the clusters were loaded with (multi-cluster systems
    /// only), kept to rewind clusters `1..` when a concurrent run cannot be
    /// shown equal to cluster-id order. Taken by [`run`](Self::run): a
    /// system runs concurrently only straight after a load.
    pub(crate) program: Option<Program>,
    /// Whether the last run re-ran clusters `1..` in cluster-id order.
    pub(crate) reran: bool,
    /// Cycles clusters `1..` simulated in the concurrent attempt the last
    /// run discarded.
    pub(crate) discarded_cycles: u64,
}

impl System {
    /// Builds the system: `cfg.clusters` identical clusters.
    ///
    /// # Panics
    ///
    /// Panics if the cluster count is outside `1..=MAX_CLUSTERS`.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        assert!(
            (1..=layout::MAX_CLUSTERS).contains(&cfg.clusters),
            "system size {} outside the supported 1..={} clusters",
            cfg.clusters,
            layout::MAX_CLUSTERS
        );
        let mut clusters: Vec<Cluster> =
            (0..cfg.clusters).map(|_| Cluster::new(cfg.cluster.clone())).collect();
        if cfg.clusters > 1 {
            for (k, c) in clusters.iter_mut().enumerate() {
                c.join_system(cfg.clusters, k);
            }
        }
        System {
            cfg,
            clusters,
            l2: Region::default(),
            stats: Stats::default(),
            program: None,
            reran: false,
            discarded_cycles: 0,
        }
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Number of clusters.
    #[must_use]
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// One cluster, by index (for registers, per-cluster stats, tracer).
    #[must_use]
    pub fn cluster(&self, k: usize) -> &Cluster {
        &self.clusters[k]
    }

    /// Mutable cluster access (instrumentation attach points).
    pub fn cluster_mut(&mut self, k: usize) -> &mut Cluster {
        &mut self.clusters[k]
    }

    /// Loads the same SPMD program into every cluster and primes the
    /// canonical L2 from the program's L2 image.
    pub fn load_program(&mut self, program: &Program) {
        for c in &mut self.clusters {
            c.load_program(program);
        }
        if self.clusters.len() > 1 {
            self.l2.put(0, program.l2_image());
            self.program = Some(program.clone());
        }
    }

    /// Restores the just-constructed state (the per-cluster reset
    /// contract, plus the canonical L2).
    pub fn reset(&mut self) {
        for c in &mut self.clusters {
            c.reset();
        }
        self.l2.clear();
        self.stats = Stats::default();
        self.program = None;
        self.reran = false;
        self.discarded_cycles = 0;
    }

    /// Runs every cluster to completion with the results of cluster-id
    /// order and returns the system rollup: per-cluster stats summed
    /// (saturating), elapsed cycles = max over clusters.
    ///
    /// Straight after [`load_program`](Self::load_program) the clusters
    /// run concurrently, then are checked against cluster-id order (see
    /// the module docs); otherwise they run one after another.
    ///
    /// # Errors
    ///
    /// Returns the first cluster's [`RunError`] (faults abort the whole
    /// system run; the deadlock/watchdog contracts are per-cluster), or
    /// [`RunError::OrderDependent`] when a cluster read L2 bytes a later
    /// cluster stores.
    pub fn run(&mut self) -> Result<Stats, RunError> {
        if self.clusters.len() == 1 {
            let stats = self.clusters[0].run()?;
            self.stats = stats.clone();
            return Ok(stats);
        }
        (self.reran, self.discarded_cycles) = (false, 0);
        for c in &mut self.clusters {
            c.mem_mut().begin_run();
        }
        let loaded = self.clusters.iter().all(|c| c.stats().cycles == 0);
        match self.program.take().filter(|_| loaded) {
            Some(program) => self.run_concurrently(&program)?,
            None => self.run_in_order(0)?,
        }
        self.refuse_backward_dataflow()?;
        let mut roll = Stats::default();
        let mut cycles = 0;
        for c in &self.clusters {
            roll.accumulate(c.stats());
            cycles = cycles.max(c.stats().cycles);
        }
        roll.cycles = cycles;
        self.stats = roll.clone();
        Ok(roll)
    }

    /// Runs clusters `from..` one after another in cluster-id order.
    fn run_in_order(&mut self, from: usize) -> Result<(), RunError> {
        for k in from..self.clusters.len() {
            self.sync_in(k);
            self.clusters[k].run()?;
            self.merge_out(k);
        }
        Ok(())
    }

    /// Runs every cluster at once on the pre-run L2 and TCDM images, then
    /// keeps the result if it equals cluster-id order's. If it may not,
    /// cluster 0's run stands (its inputs are the same in both orders) and
    /// clusters `1..` are rewound to their loaded state and re-run in order.
    fn run_concurrently(&mut self, program: &Program) -> Result<(), RunError> {
        for k in 0..self.clusters.len() {
            self.sync_in(k);
        }
        let trace_lens: Vec<usize> =
            self.clusters.iter().map(|c| c.trace_events().map_or(0, <[_]>::len)).collect();
        let attempt = Attempt::new(self.clusters.len());
        let mut results = on_threads(&mut self.clusters, |k, c| attempt.run(k, c));
        if !attempt.lost.into_inner() && self.order_free() {
            for k in 0..self.clusters.len() {
                self.merge_out(k);
            }
            return Ok(());
        }
        self.reran = true;
        self.discarded_cycles = self.clusters[1..].iter().map(Cluster::cycle).sum();
        for (c, &len) in self.clusters.iter_mut().zip(&trace_lens).skip(1) {
            c.rewind(program, len);
        }
        results.swap_remove(0).expect("cluster 0 runs to the end")?;
        self.merge_out(0);
        self.run_in_order(1)
    }

    /// Whether a concurrent run saw what cluster-id order would have shown
    /// each cluster: no cluster touched a remote TCDM window, and no
    /// cluster read an L2 byte that an earlier cluster stored.
    fn order_free(&self) -> bool {
        self.clusters.iter().enumerate().all(|(k, reader)| {
            let mem = reader.mem();
            !mem.peer_access()
                && self.clusters[..k]
                    .iter()
                    .all(|w| mem.l2_read_of(w.mem().l2_stored_mask(), false).is_none())
        })
    }

    /// Refuses backward dataflow: cluster `k` read L2 bytes that a later
    /// cluster stored (and `k` itself did not, which would make them a
    /// read-modify-write chain that cluster order defines, like a
    /// cross-cluster sum), so it saw their pre-run value.
    fn refuse_backward_dataflow(&self) -> Result<(), RunError> {
        for (reader, r) in self.clusters.iter().enumerate() {
            for (writer, w) in self.clusters.iter().enumerate().skip(reader + 1) {
                if let Some((lo, hi)) = r.mem().l2_read_of(w.mem().l2_stored_mask(), true) {
                    let range = layout::L2_BASE + lo as u32..layout::L2_BASE + hi as u32;
                    return Err(RunError::OrderDependent { reader, writer, range });
                }
            }
        }
        Ok(())
    }

    /// Copies the canonical L2 and the peer-TCDM snapshots into cluster
    /// `k`'s memory before it runs.
    fn sync_in(&mut self, k: usize) {
        if let Some((off, live)) = self.l2.written() {
            self.clusters[k].mem_mut().sync_l2_in(off, live);
        }
        // Peer snapshots: cluster k sees every other cluster's TCDM as
        // written so far (post-run for j < k, pre-run images for j > k).
        for j in (0..self.clusters.len()).filter(|&j| j != k) {
            let [dst, src] = self.clusters.get_disjoint_mut([k, j]).expect("distinct clusters");
            if let Some((off, bytes)) = src.mem().tcdm_written() {
                dst.mem_mut().sync_peer_in(j, off, bytes);
            }
        }
    }

    /// Merges the L2 bytes cluster `k` stored into the canonical L2 and
    /// applies its remote-window stores to the owning clusters' TCDMs.
    fn merge_out(&mut self, k: usize) {
        for (off, bytes) in self.clusters[k].mem().l2_stored() {
            self.l2.put(off, bytes);
        }
        for j in (0..self.clusters.len()).filter(|&j| j != k) {
            let [src, dst] = self.clusters.get_disjoint_mut([k, j]).expect("distinct clusters");
            if let Some((off, bytes)) = src.mem_mut().take_peer_touched(j) {
                dst.mem_mut().apply_remote_tcdm(off, bytes);
            }
        }
    }

    /// The system statistics rollup from the last [`run`](Self::run).
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// One cluster's statistics rollup.
    #[must_use]
    pub fn cluster_stats(&self, k: usize) -> &Stats {
        self.clusters[k].stats()
    }

    /// Reads `len` (1, 2, 4 or 8) bytes as a little-endian value, routing
    /// L2 addresses to the canonical (post-merge) contents and everything
    /// else to cluster 0's memory — the single-cluster-compatible view the
    /// harness validates results through.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    pub fn read_mem(&self, addr: u32, len: u32) -> Result<u64, MemFault> {
        match mem::offset_in(addr, len, layout::L2_BASE, layout::L2_SIZE) {
            Some(off) if self.clusters.len() > 1 => Ok(self.l2.read(off, len)),
            _ => self.clusters[0].mem().read(addr, len),
        }
    }

    /// Convenience: reads an `f64` through [`read_mem`](Self::read_mem).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    pub fn read_f64(&self, addr: u32) -> Result<f64, MemFault> {
        Ok(f64::from_bits(self.read_mem(addr, 8)?))
    }

    /// Host bytes allocated to back guest memory: every cluster's regions
    /// plus the canonical L2.
    #[must_use]
    pub fn backed_bytes(&self) -> usize {
        self.l2.backed_bytes() + self.clusters.iter().map(|c| c.mem().backed_bytes()).sum::<usize>()
    }

    /// Whether every hart of every cluster has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.clusters.iter().all(Cluster::halted)
    }

    /// Runs every cluster on the block burst or on the reference stepper
    /// (see [`Cluster::set_block_compile`]; only with the `testing`
    /// feature).
    #[cfg(any(test, feature = "testing"))]
    pub fn set_block_compile(&mut self, enabled: bool) {
        for c in &mut self.clusters {
            c.set_block_compile(enabled);
        }
    }

    /// Cluster 0's recorded trace events, if a tracer is attached (the
    /// per-cluster trace contract: traces and profiles of a multi-cluster
    /// run report cluster 0).
    #[must_use]
    pub fn trace_events(&self) -> Option<&[TraceEvent]> {
        self.clusters[0].trace_events()
    }

    /// Detaches cluster 0's tracer.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.clusters[0].take_tracer()
    }

    /// Cluster 0's profiler, if one is attached.
    #[must_use]
    pub fn profile(&self) -> Option<&Profiler> {
        self.clusters[0].profile()
    }

    /// Detaches cluster 0's profiler.
    pub fn take_profiler(&mut self) -> Option<Profiler> {
        self.clusters[0].take_profiler()
    }

    /// Cycles executed inside block-compiled bursts, summed over clusters.
    /// Kept for the benchmark's layer pass (`perfbench/src/layers.rs`).
    #[must_use]
    pub fn block_replayed_cycles(&self) -> u64 {
        self.clusters.iter().map(Cluster::block_replayed_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::testing::run_in_cluster_order;
    use snitch_asm::builder::ProgramBuilder;
    use snitch_riscv::reg::IntReg;

    #[test]
    fn single_cluster_system_matches_bare_cluster() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::A0, 21);
        b.add(IntReg::A0, IntReg::A0, IntReg::A0);
        b.ecall();
        let p = b.build().unwrap();

        let mut sys = System::new(SystemConfig::default());
        sys.load_program(&p);
        let sys_stats = sys.run().unwrap();

        let mut c = Cluster::new(ClusterConfig::default());
        c.load_program(&p);
        let c_stats = c.run().unwrap();

        assert_eq!(sys_stats, c_stats, "clusters == 1 must delegate bit-identically");
        assert_eq!(sys.cluster(0).int_reg(IntReg::A0), 42);
    }

    #[test]
    fn cluster_id_csr_distinguishes_clusters() {
        let mut b = ProgramBuilder::new();
        let out = b.tcdm_reserve("out", 8, 8);
        b.csrr_cluster_id(IntReg::A0);
        b.li_u(IntReg::A1, out);
        b.sw(IntReg::A0, IntReg::A1, 0);
        b.ecall();
        let p = b.build().unwrap();

        let mut sys = System::new(SystemConfig::with_clusters(3));
        sys.load_program(&p);
        sys.run().unwrap();
        for k in 0..3 {
            assert_eq!(
                sys.cluster(k).mem().read(out, 4).unwrap(),
                k as u64,
                "cluster {k} reads its own id"
            );
        }
    }

    #[test]
    fn l2_writes_merge_in_cluster_order() {
        // Every cluster adds its (id + 1) into the same L2 word — the
        // sequential model makes this a well-defined sum.
        let mut b = ProgramBuilder::new();
        let acc = b.l2_reserve("acc", 8, 8);
        b.csrr_cluster_id(IntReg::A0);
        b.addi(IntReg::A0, IntReg::A0, 1);
        b.li_u(IntReg::A1, acc);
        b.lw(IntReg::A2, IntReg::A1, 0);
        b.add(IntReg::A2, IntReg::A2, IntReg::A0);
        b.sw(IntReg::A2, IntReg::A1, 0);
        b.ecall();
        let p = b.build().unwrap();

        let mut sys = System::new(SystemConfig::with_clusters(4));
        sys.load_program(&p);
        let stats = sys.run().unwrap();
        assert!(sys.reran, "clusters 1.. read what earlier clusters stored");
        assert_eq!(sys.read_mem(acc, 4).unwrap(), 1 + 2 + 3 + 4);
        assert!(stats.l2_accesses >= 8, "every cluster load+store hits L2");
        // System cycles are the max, not the sum.
        let per = (0..4).map(|k| sys.cluster_stats(k).cycles).collect::<Vec<_>>();
        assert_eq!(stats.cycles, per.iter().copied().max().unwrap());
    }

    #[test]
    fn remote_tcdm_stores_land_in_the_owner() {
        // Cluster 0 stores a value into cluster 1's TCDM through the alias
        // window; cluster 1 (running later) reads it from its own TCDM.
        let mut b = ProgramBuilder::new();
        let slot = b.tcdm_reserve("slot", 8, 8);
        let out = b.tcdm_reserve("out", 8, 8);
        b.csrr_cluster_id(IntReg::A0);
        b.bnez(IntReg::A0, "reader");
        // Cluster 0: write 99 into cluster 1's `slot`.
        b.li_u(IntReg::A1, layout::tcdm_alias_base(1) + (slot - layout::TCDM_BASE));
        b.li(IntReg::A2, 99);
        b.sw(IntReg::A2, IntReg::A1, 0);
        b.ecall();
        b.label("reader");
        // Cluster 1: copy `slot` into `out`.
        b.li_u(IntReg::A1, slot);
        b.lw(IntReg::A2, IntReg::A1, 0);
        b.li_u(IntReg::A3, out);
        b.sw(IntReg::A2, IntReg::A3, 0);
        b.ecall();
        let p = b.build().unwrap();

        let mut sys = System::new(SystemConfig::with_clusters(2));
        sys.load_program(&p);
        sys.run().unwrap();
        assert!(sys.reran, "cluster 0 stored through a remote window");
        assert_eq!(sys.cluster(1).mem().read(out, 4).unwrap(), 99);
        assert_eq!(sys.cluster(0).mem().read(out, 4).unwrap(), 0, "cluster 0 took the store path");
    }

    #[test]
    fn reset_then_rerun_is_bit_identical() {
        let mut b = ProgramBuilder::new();
        let acc = b.l2_f64("acc", &[1.5]);
        b.li_u(IntReg::A1, acc);
        b.lw(IntReg::A2, IntReg::A1, 0);
        b.sw(IntReg::A2, IntReg::A1, 8);
        b.ecall();
        let p = b.build().unwrap();
        let mut sys = System::new(SystemConfig::with_clusters(2));
        sys.load_program(&p);
        let first = sys.run().unwrap();
        let word = sys.read_mem(acc + 8, 4).unwrap();
        sys.reset();
        sys.load_program(&p);
        let second = sys.run().unwrap();
        assert_eq!(first, second);
        assert_eq!(sys.read_mem(acc + 8, 4).unwrap(), word);
    }

    #[test]
    fn interleaved_l2_stores_merge_without_overwriting() {
        // Cluster k stores word 2i + k of `rows` for i in 0..8, so each
        // cluster's stored range spans the other's words.
        let mut b = ProgramBuilder::new();
        let rows = b.l2_reserve("rows", 16 * 8, 8);
        b.csrr_cluster_id(IntReg::A0);
        b.slli(IntReg::A3, IntReg::A0, 3);
        b.li_u(IntReg::A1, rows);
        b.add(IntReg::A1, IntReg::A1, IntReg::A3);
        for i in 0..8 {
            b.addi(IntReg::A2, IntReg::A0, 10 * i + 1);
            b.sw(IntReg::A2, IntReg::A1, 16 * i);
        }
        b.ecall();
        let p = b.build().unwrap();

        let mut sys = System::new(SystemConfig::with_clusters(2));
        sys.load_program(&p);
        let concurrent = sys.run().unwrap();
        assert!(!sys.reran, "disjoint stores need no re-run");
        for j in 0..16u32 {
            let want = u64::from(j % 2 + 10 * (j / 2) + 1);
            assert_eq!(sys.read_mem(rows + 8 * j, 4).unwrap(), want, "word {j}");
        }
        sys.reset();
        sys.load_program(&p);
        assert_eq!(run_in_cluster_order(&mut sys).unwrap(), concurrent);
    }

    #[test]
    fn backward_l2_dataflow_is_refused() {
        // Cluster 1 stores a flag that cluster 0 (running first in
        // cluster-id order) reads.
        let mut b = ProgramBuilder::new();
        let flag = b.l2_reserve("flag", 8, 8);
        let out = b.tcdm_reserve("out", 8, 8);
        b.csrr_cluster_id(IntReg::A0);
        b.li_u(IntReg::A1, flag);
        b.bnez(IntReg::A0, "writer");
        b.lw(IntReg::A2, IntReg::A1, 0);
        b.li_u(IntReg::A3, out);
        b.sw(IntReg::A2, IntReg::A3, 0);
        b.ecall();
        b.label("writer");
        b.li(IntReg::A2, 7);
        b.sw(IntReg::A2, IntReg::A1, 0);
        b.ecall();
        let p = b.build().unwrap();

        let want = RunError::OrderDependent { reader: 0, writer: 1, range: flag..flag + 4 };
        let mut sys = System::new(SystemConfig::with_clusters(2));
        sys.load_program(&p);
        assert_eq!(sys.run(), Err(want.clone()));
        assert!(want.to_string().contains("cluster 0 read L2"), "{want}");
        sys.reset();
        sys.load_program(&p);
        assert_eq!(run_in_cluster_order(&mut sys), Err(want));
    }

    #[test]
    fn rerun_restores_settings_and_instrumentation() {
        // The forward-dataflow sum re-runs clusters 1..: the reference
        // stepper stays selected, and every cluster's tracer and profiler
        // hold exactly the events and charges of its run in cluster-id
        // order.
        let mut b = ProgramBuilder::new();
        let acc = b.l2_reserve("acc", 8, 8);
        b.li(IntReg::A4, 3);
        b.label("spin");
        b.addi(IntReg::A4, IntReg::A4, -1);
        b.bnez(IntReg::A4, "spin");
        b.csrr_cluster_id(IntReg::A0);
        b.li_u(IntReg::A1, acc);
        b.lw(IntReg::A2, IntReg::A1, 0);
        b.add(IntReg::A2, IntReg::A2, IntReg::A0);
        b.sw(IntReg::A2, IntReg::A1, 0);
        b.ecall();
        let p = b.build().unwrap();
        let run = |in_order: bool, instrumented: bool| {
            let mut sys = System::new(SystemConfig::with_clusters(3));
            sys.set_block_compile(false);
            for k in 0..3 {
                let c = sys.cluster_mut(k);
                if instrumented {
                    c.attach_tracer(Tracer::new());
                    c.attach_profiler(Profiler::new());
                }
            }
            sys.load_program(&p);
            if in_order {
                run_in_cluster_order(&mut sys).unwrap();
            } else {
                sys.run().unwrap();
                assert!(sys.reran);
            }
            for k in 0..3 {
                let c = sys.cluster(k);
                assert_eq!(c.block_replayed_cycles(), 0, "cluster {k}: block compilation off");
            }
            sys
        };
        for instrumented in [false, true] {
            let (concurrent, in_order) = (run(false, instrumented), run(true, instrumented));
            for k in 0..3 {
                let (c, o) = (concurrent.cluster(k), in_order.cluster(k));
                assert_eq!(c.stats(), o.stats(), "cluster {k}");
                assert_eq!(c.trace_events().is_some_and(|e| !e.is_empty()), instrumented);
                assert_eq!(c.trace_events(), o.trace_events(), "cluster {k}");
                assert_eq!(c.profile(), o.profile(), "cluster {k}");
            }
            assert_eq!(concurrent.read_mem(acc, 4), Ok(1 + 2));
        }
    }

    #[test]
    fn stored_bytes_between_read_bytes_are_not_order_dependent() {
        // L2 holds [in0, out, in1]: cluster 0 reads both inputs, cluster 1
        // stores into `out`, which lies inside the span of cluster 0's
        // reads but is never read.
        let mut b = ProgramBuilder::new();
        let in0 = b.l2_f64("in0", &[1.0]);
        let out = b.l2_reserve("out", 8, 8);
        let in1 = b.l2_f64("in1", &[2.0]);
        assert!(in0 < out && out < in1, "layout in0, out, in1");
        let sum = b.tcdm_reserve("sum", 8, 8);
        b.csrr_cluster_id(IntReg::A0);
        b.bnez(IntReg::A0, "writer");
        b.li_u(IntReg::A1, in0);
        b.lw(IntReg::A2, IntReg::A1, 4);
        b.li_u(IntReg::A1, in1);
        b.lw(IntReg::A3, IntReg::A1, 4);
        b.add(IntReg::A2, IntReg::A2, IntReg::A3);
        b.li_u(IntReg::A1, sum);
        b.sw(IntReg::A2, IntReg::A1, 0);
        b.ecall();
        b.label("writer");
        b.li(IntReg::A2, 5);
        b.li_u(IntReg::A1, out);
        b.sw(IntReg::A2, IntReg::A1, 0);
        b.ecall();
        let p = b.build().unwrap();

        let mut sys = System::new(SystemConfig::with_clusters(2));
        sys.load_program(&p);
        let concurrent = sys.run().unwrap();
        assert!(!sys.reran, "no cluster read what another stored");
        assert_eq!(sys.read_mem(out, 4), Ok(5));
        let high = |x: f64| x.to_bits() >> 32;
        assert_eq!(sys.cluster(0).mem().read(sum, 4), Ok(high(1.0) + high(2.0)));
        sys.reset();
        sys.load_program(&p);
        assert_eq!(run_in_cluster_order(&mut sys), Ok(concurrent));
    }

    #[test]
    fn a_later_cluster_waiting_on_an_earlier_one_stops_early() {
        // Cluster 1 spins until cluster 0 sets an L2 flag. In the
        // concurrent attempt it never sees the flag; it must give up soon
        // after cluster 0 completes instead of spinning to the watchdog.
        let mut b = ProgramBuilder::new();
        let flag = b.l2_reserve("flag", 8, 8);
        b.csrr_cluster_id(IntReg::A0);
        b.li_u(IntReg::A1, flag);
        b.bnez(IntReg::A0, "wait");
        b.li(IntReg::A2, 1);
        b.sw(IntReg::A2, IntReg::A1, 0);
        b.ecall();
        b.label("wait");
        b.lw(IntReg::A2, IntReg::A1, 0);
        b.beqz(IntReg::A2, "wait");
        b.ecall();
        let p = b.build().unwrap();

        let mut sys = System::new(SystemConfig::with_clusters(2));
        let watchdog = sys.config().cluster.max_cycles;
        sys.load_program(&p);
        let concurrent = sys.run().unwrap();
        assert!(sys.reran, "cluster 1 read the flag cluster 0 stored");
        // Cluster 0 runs a few dozen cycles, so cluster 1 stops a slice or
        // two after it starts, unless the host starves cluster 0's thread.
        assert!(
            sys.discarded_cycles < watchdog / 10,
            "cluster 1 spun {} cycles before the re-run",
            sys.discarded_cycles
        );
        assert!(sys.cluster_stats(1).cycles < SLICE, "the re-run sees the flag set");
        sys.reset();
        sys.load_program(&p);
        assert_eq!(run_in_cluster_order(&mut sys), Ok(concurrent));
    }

    #[test]
    fn a_run_takes_only_idle_hardware_threads() {
        assert_eq!(grant(3, 8, 1), 3, "a caller alone on a wide host");
        assert_eq!(grant(3, 2, 1), 1, "one worker on two hardware threads");
        assert_eq!(grant(3, 2, 2), 0, "every hardware thread runs a worker");
        assert_eq!(grant(3, 2, 5), 0, "more busy threads than hardware");
    }

    #[test]
    fn occupying_a_counted_thread_counts_nothing() {
        let outer = occupy_host_thread();
        let inner = occupy_host_thread();
        assert!(outer.counted && !inner.counted, "a nested claim counts nothing");
        drop(inner);
        assert!(COUNTED.get(), "dropping the nested claim keeps the count");
        drop(outer);
        assert!(!COUNTED.get());
    }

    #[test]
    fn a_panic_in_any_chunk_keeps_its_message() {
        let mut items = [0, 1, 2, 3];
        let outcome = std::panic::catch_unwind(move || {
            on_threads(&mut items, |_, x| assert!(*x != 3, "item {x} failed"))
        });
        let payload = outcome.expect_err("item 3 panics");
        let message = payload.downcast_ref::<String>().expect("a formatted message");
        assert_eq!(message, "item 3 failed");
        assert!(!COUNTED.get(), "unwinding hands the caller's count back");
        let doubled = on_threads(&mut [1, 2, 3], |k, x| (k, *x * 2));
        assert_eq!(doubled, [(0, 2), (1, 4), (2, 6)], "results and indices in item order");
    }
}
