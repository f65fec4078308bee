//! Committed golden bytes for what the simulator emits.
//!
//! Three fixture families under `tests/goldens/` pin the output across
//! commits:
//!
//! * `single_cluster.{jsonl,csv}` — the result sinks of a fixed batch
//!   (generated before the multi-cluster `System` layer landed). The
//!   configuration fingerprint, the stats counters and the serialized field
//!   order are all load-bearing.
//! * `pi_lcg_par_copift_2core.trace.txt` — the text trace of a 2-hart run
//!   (both harts, barrier, TCDM-conflict and FPU stalls): event shapes,
//!   stamps and emission order.
//! * `pi_lcg_copift.folded` — the collapsed flamegraph of a profiled
//!   single-core run: per-pc issue and stall charges.
//! * `multi_cluster.{jsonl,csv}` — the result sinks of `gemm_tiled` on
//!   2- and 8-hart clusters in 1- and 2-cluster systems (barriers, DMA,
//!   L2 and TCDM arbitration across every hart).
//!
//! Every run here must keep producing these bytes exactly. Regenerate (only
//! for a deliberate, documented format change) with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p snitch-engine --test golden_sink
//! ```

use std::path::PathBuf;

use snitch_engine::{sink, Engine, JobSpec};
use snitch_kernels::registry::{Kernel, Variant};
use snitch_profile::{flame, RegionMap};
use snitch_sim::config::{ClusterConfig, SystemConfig};
use snitch_trace::text;

/// A fixed batch covering the serialization surface: default configs, a
/// config-ablated job (distinct fingerprint), and a multi-core job.
fn batch() -> Vec<JobSpec> {
    vec![
        JobSpec::new(Kernel::PiLcg, Variant::Baseline, 128, 0),
        JobSpec::new(Kernel::PiLcg, Variant::Copift, 128, 32),
        JobSpec::new(Kernel::Logf, Variant::Baseline, 64, 16),
        JobSpec::new(Kernel::Sigmoid, Variant::Copift, 128, 32),
        JobSpec::new(Kernel::Softmax, Variant::Baseline, 64, 16),
        JobSpec::new(Kernel::PiXoshiro, Variant::Baseline, 64, 0)
            .with_config(ClusterConfig { int_wb_ports: 2, ..ClusterConfig::default() }),
        JobSpec::new(Kernel::PiLcgPar, Variant::Copift, 512, 32)
            .with_config(ClusterConfig { cores: 8, ..ClusterConfig::default() }),
    ]
}

/// Compares `actual` against the committed fixture `name`, or rewrites the
/// fixture when `UPDATE_GOLDENS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed golden tests/goldens/{name}: {e}"));
    assert!(actual == want, "output diverged from the committed golden tests/goldens/{name}");
}

#[test]
fn single_cluster_sink_bytes_match_committed_goldens() {
    let records = Engine::new(2).run(&batch());
    assert!(records.iter().all(|r| r.ok), "every golden job validates");
    check_golden("single_cluster.jsonl", &sink::to_jsonl(&records));
    check_golden("single_cluster.csv", &sink::to_csv(&records));
}

/// `gemm_tiled` at n = 16, both variants, on the 2-core single-cluster
/// and the 8-core 2-cluster shapes.
#[test]
fn multi_cluster_sink_bytes_match_committed_goldens() {
    let shapes = [(2, 1), (8, 2)];
    let jobs: Vec<JobSpec> = [Variant::Baseline, Variant::Copift]
        .into_iter()
        .flat_map(|variant| {
            shapes.iter().map(move |&(cores, clusters)| {
                JobSpec::new(Kernel::GemmTiled, variant, 16, 0).with_config(SystemConfig {
                    cluster: ClusterConfig { cores, ..ClusterConfig::default() },
                    clusters,
                })
            })
        })
        .collect();
    let records = Engine::new(2).run(&jobs);
    assert!(records.iter().all(|r| r.ok), "every golden job validates");
    check_golden("multi_cluster.jsonl", &sink::to_jsonl(&records));
    check_golden("multi_cluster.csv", &sink::to_csv(&records));
}

/// The 2-hart text trace: both harts' issue, stall and retire events plus
/// the cluster-level barrier, SSR and bank-conflict events.
#[test]
fn two_core_text_trace_matches_committed_golden() {
    let job = JobSpec::new(Kernel::PiLcgPar, Variant::Copift, 128, 32)
        .with_config(ClusterConfig { cores: 2, ..ClusterConfig::default() })
        .traced();
    let records = Engine::new(1).run(&[job]);
    let record = &records[0];
    assert!(record.ok, "{:?}", record.error);
    let events = record.trace.as_deref().expect("traced job carries events");
    check_golden("pi_lcg_par_copift_2core.trace.txt", &text::render(events));
}

/// The collapsed flamegraph of a profiled single-core run (block bursts
/// engaged, so this pins the burst path's per-pc charges).
#[test]
fn flamegraph_matches_committed_golden() {
    let (n, block) = Kernel::PiLcg.smoke_point();
    let job = JobSpec::new(Kernel::PiLcg, Variant::Copift, n, block).profiled();
    let records = Engine::new(1).run(&[job]);
    let record = &records[0];
    assert!(record.ok, "{:?}", record.error);
    let profile = record.profile.as_ref().expect("profiled job carries a profile");
    let program = Kernel::PiLcg.build_for(Variant::Copift, n, block, 1);
    check_golden("pi_lcg_copift.folded", &flame::render(profile, &RegionMap::new(&program)));
}
