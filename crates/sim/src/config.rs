//! Cluster and system configuration.

/// Microarchitectural parameters of the simulated Snitch cluster.
///
/// Defaults follow the published Snitch core (Zaruba et al., IEEE TC 2021)
/// and the configuration used in the COPIFT paper (§III); every deviation is
/// called out in `DESIGN.md`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClusterConfig {
    // ---- cluster topology ----
    /// Number of compute cores (harts). Each core has its own integer
    /// pipeline, FP subsystem, SSR streamers and L0 buffer; all cores share
    /// the banked TCDM, the DMA engine and the hardware barrier. The paper's
    /// cluster has 8 compute cores (plus the DMA core, modelled as the
    /// shared engine).
    pub cores: usize,

    // ---- integer core ----
    /// Extra cycles lost on a taken branch or jump (pipeline refill).
    pub branch_penalty: u32,
    /// Cycles from issue of a TCDM load until the result writes back
    /// (dependent instructions can issue that cycle): load-use distance.
    pub load_latency: u32,
    /// Additional load latency when the access targets main memory instead
    /// of the TCDM.
    pub main_mem_extra_latency: u32,
    /// Integer multiply write-back latency. With a single RF write port this
    /// is the source of the structural hazards the paper blames for the LCG
    /// kernels' residual stalls. At most
    /// [`MAX_INT_LATENCY`](crate::core::MAX_INT_LATENCY), like `div_latency`.
    pub mul_latency: u32,
    /// Integer divide latency (non-pipelined).
    pub div_latency: u32,
    /// Number of integer register-file write ports (Snitch: 1).
    pub int_wb_ports: u32,

    // ---- instruction fetch ----
    /// L0 instruction-buffer capacity in instructions. The paper: loop bodies
    /// "less than 64 instructions ... entirely fit in Snitch's L0 I$".
    pub l0_capacity: usize,

    // ---- FP subsystem ----
    /// Depth of the accelerator offload FIFO between the integer core and
    /// the FP subsystem. Bounds integer-thread run-ahead.
    pub offload_fifo_depth: usize,
    /// FREP sequencer ring-buffer capacity in instructions.
    pub sequencer_depth: usize,
    /// FPU latency of add/sub/mul/FMA (pipelined).
    pub fpu_lat_muladd: u32,
    /// FPU latency of comparisons, sign injection, min/max, moves,
    /// classification and the COPIFT custom-1 instructions.
    pub fpu_lat_short: u32,
    /// FPU latency of conversions.
    pub fpu_lat_cvt: u32,
    /// FPU latency of divide/sqrt (iterative, non-pipelined).
    pub fpu_lat_divsqrt: u32,
    /// FP load latency from the TCDM.
    pub fp_load_latency: u32,

    // ---- SSR streamers ----
    /// Per-streamer data FIFO depth.
    pub ssr_fifo_depth: usize,

    // ---- TCDM ----
    /// Number of 64-bit TCDM banks.
    pub tcdm_banks: usize,

    // ---- DMA ----
    /// DMA throughput in bytes per cycle.
    pub dma_bytes_per_cycle: u32,

    // ---- system interconnect (L2 / inter-cluster) ----
    /// Extra cycles a core load pays to reach the shared L2, and the setup
    /// latency of a DMA segment touching L2.
    pub l2_latency: u32,
    /// L2 port bandwidth in bytes per cycle: DMA segments touching L2 (or a
    /// remote cluster) are clamped to `min(dma_bytes_per_cycle, this)`.
    pub l2_bytes_per_cycle: u32,
    /// One-way cluster-interconnect hop latency: DMA segments pay one hop to
    /// reach L2 and two hops to reach a remote cluster's TCDM.
    pub hop_latency: u32,

    // ---- harness ----
    /// Watchdog: abort the run after this many cycles.
    pub max_cycles: u64,
    /// Record a full instruction trace (costly; for debugging).
    pub trace: bool,
    /// Collect a per-pc cycle/stall profile (cheap; stays on the block-burst
    /// fast path).
    pub profile: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cores: 1,
            branch_penalty: 2,
            load_latency: 2,
            main_mem_extra_latency: 8,
            mul_latency: 2,
            div_latency: 12,
            int_wb_ports: 1,
            l0_capacity: 64,
            offload_fifo_depth: 8,
            sequencer_depth: 128,
            fpu_lat_muladd: 3,
            fpu_lat_short: 1,
            fpu_lat_cvt: 2,
            fpu_lat_divsqrt: 21,
            fp_load_latency: 2,
            ssr_fifo_depth: 4,
            tcdm_banks: 32,
            dma_bytes_per_cycle: 8,
            l2_latency: 12,
            l2_bytes_per_cycle: 8,
            hop_latency: 4,
            max_cycles: 200_000_000,
            trace: false,
            profile: false,
        }
    }
}

impl ClusterConfig {
    /// Configuration with tracing enabled.
    #[must_use]
    pub fn traced() -> Self {
        ClusterConfig { trace: true, ..ClusterConfig::default() }
    }

    /// Configuration with cycle profiling enabled.
    #[must_use]
    pub fn profiled() -> Self {
        ClusterConfig { profile: true, ..ClusterConfig::default() }
    }

    /// Canonical textual form of every timing-relevant parameter, used as
    /// the cache/sweep identity of a configuration. Two configs with equal
    /// `canonical()` produce identical simulations; `trace`, `profile` and
    /// `max_cycles` are excluded because they do not change architectural
    /// behavior (a watchdog abort is an error, not a result).
    #[must_use]
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "cores{};bp{};ll{};mm{};mul{};div{};wb{};l0:{};fifo{};seq{};fma{};fshort{};fcvt{};fdiv{};fld{};ssr{};banks{};dma{}",
            self.cores,
            self.branch_penalty,
            self.load_latency,
            self.main_mem_extra_latency,
            self.mul_latency,
            self.div_latency,
            self.int_wb_ports,
            self.l0_capacity,
            self.offload_fifo_depth,
            self.sequencer_depth,
            self.fpu_lat_muladd,
            self.fpu_lat_short,
            self.fpu_lat_cvt,
            self.fpu_lat_divsqrt,
            self.fp_load_latency,
            self.ssr_fifo_depth,
            self.tcdm_banks,
            self.dma_bytes_per_cycle,
        );
        // The interconnect parameters are appended only when they deviate
        // from the defaults: configurations that predate the System layer
        // must keep their published fingerprints (sweep rows join on them).
        let d = ClusterConfig::default();
        if (self.l2_latency, self.l2_bytes_per_cycle, self.hop_latency)
            != (d.l2_latency, d.l2_bytes_per_cycle, d.hop_latency)
        {
            let _ = write!(
                s,
                ";l2l{};l2bw{};hop{}",
                self.l2_latency, self.l2_bytes_per_cycle, self.hop_latency
            );
        }
        s
    }

    /// Stable 64-bit fingerprint of [`canonical`](Self::canonical) (FNV-1a;
    /// independent of platform, process and `HashMap` seeding). Sweep result
    /// records carry this so rows can be joined back to the exact
    /// configuration that produced them.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.canonical())
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Parameters of the whole simulated system: `clusters` identical Snitch
/// clusters (each described by `cluster`) behind a shared L2.
///
/// A `SystemConfig` with `clusters == 1` is *the same identity* as its inner
/// [`ClusterConfig`]: `canonical()` and `fingerprint()` match byte-for-byte,
/// so every sweep row and cache key produced before the System layer existed
/// remains valid.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SystemConfig {
    /// Per-cluster microarchitecture (identical across clusters).
    pub cluster: ClusterConfig,
    /// Number of clusters in the system (1..=[`MAX_CLUSTERS`]).
    ///
    /// [`MAX_CLUSTERS`]: snitch_asm::layout::MAX_CLUSTERS
    pub clusters: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig { cluster: ClusterConfig::default(), clusters: 1 }
    }
}

impl From<ClusterConfig> for SystemConfig {
    fn from(cluster: ClusterConfig) -> Self {
        SystemConfig { cluster, clusters: 1 }
    }
}

impl SystemConfig {
    /// Configuration with `clusters` clusters and default microarchitecture.
    #[must_use]
    pub fn with_clusters(clusters: usize) -> Self {
        SystemConfig { cluster: ClusterConfig::default(), clusters }
    }

    /// Compute cores per cluster (convenience passthrough).
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cluster.cores
    }

    /// Canonical textual identity: the inner cluster's [`canonical`]
    /// followed by a `;x{clusters}` suffix — appended only for multi-cluster
    /// systems so single-cluster identities stay unchanged.
    ///
    /// [`canonical`]: ClusterConfig::canonical
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut s = self.cluster.canonical();
        if self.clusters > 1 {
            use std::fmt::Write as _;
            let _ = write!(s, ";x{}", self.clusters);
        }
        s
    }

    /// Stable FNV-1a fingerprint of [`canonical`](Self::canonical); equals
    /// the inner [`ClusterConfig::fingerprint`] when `clusters == 1`.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_design_document() {
        let c = ClusterConfig::default();
        assert_eq!(c.cores, 1);
        assert_eq!(c.l0_capacity, 64);
        assert_eq!(c.tcdm_banks, 32);
        assert_eq!(c.int_wb_ports, 1);
        assert_eq!(c.mul_latency, 2);
        assert!(!c.trace);
        assert!(!c.profile);
    }

    #[test]
    fn fingerprint_tracks_timing_parameters_only() {
        let base = ClusterConfig::default();
        assert_eq!(base.fingerprint(), ClusterConfig::default().fingerprint());
        // Harness knobs do not change the identity...
        let traced = ClusterConfig { trace: true, max_cycles: 1, ..ClusterConfig::default() };
        assert_eq!(base.fingerprint(), traced.fingerprint());
        assert_eq!(base.fingerprint(), ClusterConfig::profiled().fingerprint());
        // ...but every timing knob does.
        let variants = [
            ClusterConfig { cores: 8, ..ClusterConfig::default() },
            ClusterConfig { branch_penalty: 3, ..ClusterConfig::default() },
            ClusterConfig { int_wb_ports: 2, ..ClusterConfig::default() },
            ClusterConfig { l0_capacity: 32, ..ClusterConfig::default() },
            ClusterConfig { offload_fifo_depth: 2, ..ClusterConfig::default() },
            ClusterConfig { sequencer_depth: 80, ..ClusterConfig::default() },
            ClusterConfig { fpu_lat_muladd: 4, ..ClusterConfig::default() },
            ClusterConfig { tcdm_banks: 16, ..ClusterConfig::default() },
        ];
        let mut prints: Vec<u64> = variants.iter().map(ClusterConfig::fingerprint).collect();
        prints.push(base.fingerprint());
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), variants.len() + 1, "all fingerprints distinct");
    }

    #[test]
    fn interconnect_params_only_appear_when_ablated() {
        let base = ClusterConfig::default();
        assert!(
            !base.canonical().contains("l2l"),
            "default canonical string must not grow a suffix: {}",
            base.canonical()
        );
        let slow = ClusterConfig { l2_latency: 20, ..ClusterConfig::default() };
        assert!(slow.canonical().ends_with(";l2l20;l2bw8;hop4"));
        assert_ne!(base.fingerprint(), slow.fingerprint());
        assert_ne!(
            slow.fingerprint(),
            ClusterConfig { hop_latency: 8, ..slow.clone() }.fingerprint()
        );
    }

    #[test]
    fn system_identity_collapses_to_cluster_identity_at_one_cluster() {
        let cluster = ClusterConfig::default();
        let sys = SystemConfig::default();
        assert_eq!(sys.clusters, 1);
        assert_eq!(sys.canonical(), cluster.canonical());
        assert_eq!(sys.fingerprint(), cluster.fingerprint());
        let sys8 = SystemConfig::from(ClusterConfig { cores: 8, ..ClusterConfig::default() });
        assert_eq!(
            sys8.fingerprint(),
            ClusterConfig { cores: 8, ..ClusterConfig::default() }.fingerprint()
        );
    }

    #[test]
    fn cluster_count_is_a_fingerprint_axis() {
        let prints: Vec<u64> =
            [1, 2, 4].iter().map(|&k| SystemConfig::with_clusters(k).fingerprint()).collect();
        assert_ne!(prints[0], prints[1]);
        assert_ne!(prints[1], prints[2]);
        assert!(SystemConfig::with_clusters(2).canonical().ends_with(";x2"));
        assert_eq!(SystemConfig::with_clusters(4).cores(), 1);
    }
}
