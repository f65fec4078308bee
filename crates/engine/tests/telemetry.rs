//! Host-telemetry integration: spans and counters must observe a batch
//! without perturbing it — byte-identical sinks at any worker count, no
//! program-cache split, and a Chrome export that passes the shared
//! trace-document validator.

use snitch_engine::{job, sink, Engine, JobSpec};
use snitch_kernels::registry::{Kernel, Variant};
use snitch_sim::config::ClusterConfig;
use snitch_telemetry::{chrome, metrics, Phase, Report, Telemetry, MAIN_WORKER};

fn mixed_batch() -> Vec<JobSpec> {
    vec![
        JobSpec::new(Kernel::PiLcg, Variant::Baseline, 128, 0),
        JobSpec::new(Kernel::PiLcg, Variant::Copift, 128, 32),
        JobSpec::new(Kernel::Logf, Variant::Baseline, 64, 16),
        JobSpec::new(Kernel::Sigmoid, Variant::Copift, 128, 32),
        JobSpec::new(Kernel::PiXoshiro, Variant::Baseline, 64, 0)
            .with_config(ClusterConfig { int_wb_ports: 2, ..ClusterConfig::default() }),
    ]
}

#[test]
fn telemetry_enabled_sinks_are_byte_identical_across_worker_counts() {
    let jobs = mixed_batch();
    // The reference: telemetry fully disabled (the plain `run` path).
    let baseline_jsonl = sink::to_jsonl(&Engine::new(1).run(&jobs));
    let baseline_csv = sink::to_csv(&Engine::new(1).run(&jobs));
    for workers in [1, 2, 8] {
        let tel = Telemetry::new();
        let records = Engine::new(workers).run_with(&jobs, &tel);
        assert!(tel.spans().len() >= jobs.len(), "a span log was recorded");
        assert_eq!(
            baseline_jsonl,
            sink::to_jsonl(&records),
            "telemetry-enabled JSON-lines diverged at {workers} workers"
        );
        assert_eq!(
            baseline_csv,
            sink::to_csv(&records),
            "telemetry-enabled CSV diverged at {workers} workers"
        );
    }
}

#[test]
fn telemetry_does_not_split_the_program_cache() {
    // Same batch run with and without telemetry through one engine: the
    // second pass must be all cache hits — the handle must never leak into
    // ProgramKey or the job specs.
    let jobs = mixed_batch();
    let engine = Engine::new(2);
    let _ = engine.run_with(&jobs, &Telemetry::new());
    let misses_after_first = engine.cache().misses();
    assert_eq!(misses_after_first, jobs.len() as u64, "one build per distinct program");
    let _ = engine.run(&jobs);
    let _ = engine.run_with(&jobs, &Telemetry::new());
    assert_eq!(
        engine.cache().misses(),
        misses_after_first,
        "re-running with telemetry on or off must not compile anything new"
    );
    // Config fingerprints are equally telemetry-blind: records from both
    // paths serialize the same fingerprint set.
    let with_tel = sink::to_jsonl(&engine.run_with(&jobs, &Telemetry::new()));
    let without = sink::to_jsonl(&engine.run(&jobs));
    assert_eq!(with_tel, without);
}

#[test]
fn spans_cover_the_expected_phases() {
    let jobs = mixed_batch();
    let tel = Telemetry::new();
    let records = Engine::new(1).run_with(&jobs, &tel);
    assert!(records.iter().all(|r| r.ok));
    let spans = tel.spans();
    let count = |phase: Phase| spans.iter().filter(|s| s.phase == phase).count();
    assert_eq!(count(Phase::Compile), jobs.len(), "cold cache: every job compiles");
    assert_eq!(count(Phase::CacheHit), 0);
    assert_eq!(count(Phase::Simulate), jobs.len());
    assert_eq!(count(Phase::Reset), jobs.len());
    assert_eq!(count(Phase::Collect), 1, "one collection span on the main thread");
    assert!(count(Phase::Warm) >= 1, "at least one cluster construction");
    assert!(
        spans.iter().filter(|s| s.phase == Phase::Collect).all(|s| s.worker == MAIN_WORKER),
        "collection happens on the calling thread"
    );
    // Serial coverage: on one worker the span totals must account for the
    // measured wall time within 5% (the perf-report acceptance bar), minus
    // scheduler noise. Allow a generous floor here — CI machines stutter —
    // but the structure (spans covering most of the wall) must hold. The
    // mixed batch lasts about a millisecond in an optimized build, where a
    // few milliseconds of late wake-up (of the worker, or of the thread
    // that collects) would be most of its wall time. Coverage is measured
    // on the smoke batch instead, whose spans outlast such a hiccup many
    // times over.
    let smoke = job::smoke();
    let tel = Telemetry::new();
    let t0 = std::time::Instant::now();
    let records = Engine::new(1).run_with(&smoke, &tel);
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert!(records.iter().all(|r| r.ok));
    let report = Report::new(&tel.spans(), wall_ns);
    assert!(
        report.span_coverage() > 0.5,
        "serial span coverage collapsed: {:.1}%",
        100.0 * report.span_coverage()
    );
    // A second pass over a warm engine flips Compile to CacheHit.
    let engine = Engine::new(1);
    let _ = engine.run(&jobs);
    let warm_tel = Telemetry::new();
    let _ = engine.run_with(&jobs, &warm_tel);
    let warm_spans = warm_tel.spans();
    assert_eq!(warm_spans.iter().filter(|s| s.phase == Phase::CacheHit).count(), jobs.len());
    assert_eq!(warm_spans.iter().filter(|s| s.phase == Phase::Compile).count(), 0);
}

#[test]
fn chrome_export_of_a_multiworker_run_passes_the_shared_validator() {
    let jobs = job::smoke();
    let tel = Telemetry::new();
    let records = Engine::new(4).run_with(&jobs, &tel);
    assert!(records.iter().all(|r| r.ok));
    let spans = tel.spans();
    let json = chrome::render(&spans);
    let summary =
        snitch_trace::chrome::validate(&json).expect("host trace must be a valid document");
    assert_eq!(summary.complete, spans.len(), "one duration event per span");
    assert_eq!(summary.counters, jobs.len(), "one queue sample per job");
    assert!(json.contains("\"name\":\"worker 0\""));
    assert!(json.contains("\"name\":\"simulate\""));
}

#[test]
fn metrics_of_a_real_batch_validate_and_balance() {
    let jobs = mixed_batch();
    let tel = Telemetry::new();
    let t0 = std::time::Instant::now();
    let _ = Engine::new(2).run_with(&jobs, &tel);
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let report = Report::new(&tel.spans(), wall_ns);
    let rendered = metrics::render(2, &report);
    let lines = metrics::validate(&rendered).expect("rendered metrics validate");
    assert!(lines > 1 + 7, "batch + phases + at least one worker line");
    // The ledger balances: busy + idle == workers x wall, per worker.
    for w in &report.workers {
        assert_eq!(w.busy_ns + w.idle_ns(), report.wall_ns, "worker {} ledger", w.worker);
        assert!(w.startup_ns() + w.gap_ns() + w.barrier_ns() <= w.idle_ns() + 1);
    }
}
