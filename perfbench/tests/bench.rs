//! The benchmark's own checks: execution-path shares partition the
//! per-cluster cycles, and the Figure 2 derivation reproduces the headline
//! numbers recorded in EXPERIMENTS.md.

use perfbench::layers;
use perfbench::paper::Fidelity;
use perfbench::workload::{traced_fig2, Workload};
use snitch_engine::Engine;

#[test]
fn path_shares_partition_per_cluster_cycles_on_scaling_grid() {
    let jobs = Workload::ScalingGrid.jobs();
    let pass = layers::pass(&jobs, &layers::setup(&jobs));
    assert!(pass.records.iter().all(|r| r.ok), "every grid job validates");
    let mut over_system_cycles = false;
    for (record, paths) in pass.records.iter().zip(&pass.paths) {
        let total = paths.cluster_cycles as f64;
        let shares =
            [paths.burst as f64 / total, paths.skip as f64 / total, paths.stepper() as f64 / total];
        for share in shares {
            assert!(
                (0.0..=1.0).contains(&share),
                "{}: share {share} outside [0, 1]",
                record.job.label()
            );
        }
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "{}: shares sum to {sum}", record.job.label());
        // A system's own cycle count is the maximum over its clusters, so
        // it understates the cycles the clusters executed between them.
        if record.job.config.clusters > 1 {
            assert!(paths.cluster_cycles > record.cycles, "{}", record.job.label());
        }
        over_system_cycles |= paths.burst > record.cycles;
    }
    assert!(
        over_system_cycles,
        "some multi-cluster row replays more burst cycles than its system cycle count, \
         which is why the shares must be taken over per-cluster cycles"
    );
    let total = pass.total_paths();
    let sum = total.burst + total.skip + total.stepper();
    assert_eq!(sum, total.cluster_cycles);
}

#[test]
fn fig2_steady_state_reproduces_experiments_md() {
    let records = Engine::new(1).run(&Workload::Fig2.jobs());
    let fidelity = Fidelity::from_records(&records).expect("every fig2 job validates");
    // EXPERIMENTS.md, Figure 2a and 2c summaries.
    assert_eq!(format!("{:.2}", fidelity.geomean_speedup()), "1.43");
    assert_eq!(format!("{:.2}", fidelity.geomean_energy()), "1.31");
    assert_eq!(format!("{:.2}", fidelity.peak_ipc()), "1.84");
}

#[test]
fn traced_batch_serializes_like_the_bare_batch() {
    let bare = Workload::Fig2.jobs();
    let traced = traced_fig2();
    let bare = layers::pass(&bare, &layers::setup(&bare));
    let traced = layers::pass(&traced, &layers::setup(&traced));
    for (b, t) in bare.records.iter().zip(&traced.records) {
        assert_eq!(b.json_line(), t.json_line());
        assert!(t.trace.as_ref().is_some_and(|e| !e.is_empty()), "{}", t.job.label());
    }
    assert_eq!(bare.total_paths().cluster_cycles, traced.total_paths().cluster_cycles);
    assert_eq!(traced.total_paths().burst, 0, "a recording tracer disengages bursts");
}
