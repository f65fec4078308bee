//! The multi-cluster system: N identical [`Cluster`]s behind a shared L2.
//!
//! # Execution and memory-visibility model
//!
//! Clusters execute **sequentially to completion in cluster-id order**; the
//! system's elapsed cycles are the maximum over clusters (they would run
//! concurrently in hardware). The canonical L2 contents live here; each
//! cluster's [`Memory`](crate::mem::Memory) holds a local L2 copy that is
//! synced in before the
//! cluster runs and whose self-written range is merged back out afterwards.
//! Remote-TCDM alias windows work the same way, against per-cluster snapshot
//! buffers.
//!
//! The resulting visibility rule is simple and deterministic: cluster `k`
//! observes the L2 and the TCDMs of clusters `j < k` *after* those clusters
//! completed, and the TCDMs of clusters `j > k` in their pre-run (image)
//! state. Programs that need cross-cluster dataflow in both directions must
//! structure it in cluster-id order (the tiled kernels do: every cluster
//! reads shared inputs from L2 and writes disjoint outputs back). Run-to-run
//! this is exactly reproducible, which is what the engine's determinism
//! contract needs.
//!
//! A `clusters == 1` system delegates directly to [`Cluster::run`] with no
//! sync steps at all, so single-cluster runs are bit-identical — stats,
//! registers, memory and trace — to driving a [`Cluster`] by hand.

use snitch_asm::layout;
use snitch_asm::program::Program;
use snitch_profile::Profiler;
use snitch_trace::{TraceEvent, Tracer};

use crate::cluster::Cluster;
use crate::config::SystemConfig;
use crate::error::RunError;
use crate::mem::{self, MemFault, Region};
use crate::stats::Stats;

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
        System { cfg, clusters, l2: Region::default(), stats: Stats::default() }
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
    }

    /// Runs every cluster to completion (in cluster-id order) and returns
    /// the system rollup: per-cluster stats summed (saturating), elapsed
    /// cycles = max over clusters.
    ///
    /// # Errors
    ///
    /// Returns the first cluster's [`RunError`] (faults abort the whole
    /// system run; the deadlock/watchdog contracts are per-cluster).
    pub fn run(&mut self) -> Result<Stats, RunError> {
        if self.clusters.len() == 1 {
            let stats = self.clusters[0].run()?;
            self.stats = stats.clone();
            return Ok(stats);
        }
        for k in 0..self.clusters.len() {
            self.sync_in(k);
            self.clusters[k].run()?;
            self.merge_out(k);
        }
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

    /// Merges cluster `k`'s L2 writes into the canonical L2 and applies its
    /// remote-window stores to the owning clusters' TCDMs.
    fn merge_out(&mut self, k: usize) {
        if let Some((off, bytes)) = self.clusters[k].mem_mut().take_l2_touched() {
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

    /// Forces block compilation on or off in every cluster (see
    /// [`Cluster::set_block_compile`]). [`reset`](Self::reset) restores the
    /// default.
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
    #[must_use]
    pub fn block_replayed_cycles(&self) -> u64 {
        self.clusters.iter().map(Cluster::block_replayed_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
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
}
