//! Differential test of concurrent multi-cluster execution against
//! cluster-id order: on every shape of the scaling grid, a `System` whose
//! clusters ran concurrently must leave exactly what running them one after
//! another leaves — every cluster's statistics, registers and TCDM, the
//! canonical L2 as `System::read_mem` shows it, and cluster 0's trace and
//! profile.

use snitch_asm::layout::{L2_BASE, TCDM_BASE, TCDM_SIZE};
use snitch_asm::program::Program;
use snitch_kernels::registry::{Kernel, Variant};
use snitch_profile::Profiler;
use snitch_riscv::reg::{FpReg, IntReg};
use snitch_sim::config::{ClusterConfig, SystemConfig};
use snitch_sim::system::System;
use snitch_sim::testing::{run_in_cluster_order, took_rerun};
use snitch_sim::Stats;
use snitch_trace::{TraceEvent, Tracer};

/// The scaling grid's shapes (`snitch_engine::job::scaling_grid_default`).
const CORES: [usize; 4] = [1, 2, 4, 8];
const CLUSTERS: [usize; 3] = [1, 2, 4];

/// The smallest `gemm_tiled` size every shape accepts
/// (`d % (clusters · cores) == 0`).
const D: usize = 32;

#[derive(Debug, PartialEq)]
struct Observation {
    stats: Vec<Stats>,
    regs: Vec<u64>,
    tcdm: Vec<u64>,
    l2: Vec<u64>,
    trace: Option<Vec<TraceEvent>>,
    profile: Option<Profiler>,
}

fn observe(
    program: &Program,
    cores: usize,
    clusters: usize,
    in_order: bool,
    traced: bool,
) -> Observation {
    let cluster = ClusterConfig { cores, ..ClusterConfig::default() };
    let mut sys = System::new(SystemConfig { cluster, clusters });
    if traced {
        sys.cluster_mut(0).attach_tracer(Tracer::new());
        sys.cluster_mut(0).attach_profiler(Profiler::new());
    }
    sys.load_program(program);
    let stats = if in_order { run_in_cluster_order(&mut sys) } else { sys.run() };
    let stats = stats.expect("gemm_tiled completes");
    assert!(!took_rerun(&sys), "gemm_tiled has no cross-cluster dataflow");
    assert_eq!(&stats, sys.stats());
    let mut obs = Observation {
        stats: (0..clusters).map(|k| sys.cluster_stats(k).clone()).collect(),
        regs: Vec::new(),
        tcdm: Vec::new(),
        l2: Vec::new(),
        trace: sys.trace_events().map(<[_]>::to_vec),
        profile: sys.profile().cloned(),
    };
    for k in 0..clusters {
        let c = sys.cluster(k);
        for h in 0..cores {
            obs.regs.extend((0..32).map(|r| u64::from(c.int_reg_of(h, IntReg::new(r)))));
            obs.regs.extend((0..32).map(|r| c.fp_reg_of(h, FpReg::new(r))));
        }
        let words = TCDM_SIZE / 8;
        obs.tcdm.extend((0..words).map(|i| c.mem().read(TCDM_BASE + i * 8, 8).expect("tcdm")));
    }
    let l2_words = program.l2_image().len() as u32 / 8;
    obs.l2 = (0..l2_words).map(|i| sys.read_mem(L2_BASE + i * 8, 8).unwrap()).collect();
    obs
}

#[test]
fn concurrent_clusters_equal_cluster_id_order_on_every_scaling_shape() {
    for variant in Variant::all() {
        for clusters in CLUSTERS {
            for cores in CORES {
                let program = Kernel::GemmTiled.build_grid(variant, D, 0, cores, clusters);
                // A recording tracer runs the reference stepper; untraced
                // runs take the block burst. Both paths meet every order.
                let traced = cores <= 2;
                let concurrent = observe(&program, cores, clusters, false, traced);
                let in_order = observe(&program, cores, clusters, true, traced);
                let shape = format!("{variant:?} c{cores}/x{clusters}");
                assert_eq!(concurrent.stats, in_order.stats, "{shape}: stats");
                assert_eq!(concurrent.regs, in_order.regs, "{shape}: registers");
                assert!(concurrent.tcdm == in_order.tcdm, "{shape}: TCDM diverges");
                assert!(concurrent.l2 == in_order.l2, "{shape}: L2 diverges");
                assert_eq!(concurrent.trace.is_some(), traced, "{shape}");
                assert!(concurrent.trace == in_order.trace, "{shape}: cluster 0 trace");
                assert!(concurrent.profile == in_order.profile, "{shape}: cluster 0 profile");
            }
        }
    }
}
