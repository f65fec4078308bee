//! Guest-profiler integration: the profile is an exact decomposition of
//! `Stats` (counter for counter, on the block burst and on the reference
//! stepper),
//! fully deterministic across worker counts, and invisible to everything
//! else — byte-identical result sinks, no program-cache split.

use snitch_engine::{sink, Engine, JobSpec};
use snitch_kernels::registry::{Kernel, Variant};
use snitch_profile::{disasm, flame, perfetto, Lane, Profiler, RegionMap, StallCause};
use snitch_sim::config::ClusterConfig;
use snitch_sim::system::System;

/// Every paper kernel in both variants at its smoke point.
fn paper_batch() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for kernel in Kernel::paper() {
        let (n, block) = kernel.smoke_point();
        for variant in Variant::all() {
            jobs.push(JobSpec::new(kernel, variant, n, block));
        }
    }
    jobs
}

/// The profile must equal the run's `Stats` exactly: per-lane issue totals
/// and all 13 per-cause stall totals, for every paper kernel and variant —
/// charged by the block burst, which runs every cycle.
#[test]
fn profile_totals_mirror_stats_for_all_paper_kernels() {
    let jobs: Vec<JobSpec> = paper_batch().into_iter().map(JobSpec::profiled).collect();
    let records = Engine::new(2).run(&jobs);
    let (mut cycles, mut replayed) = (0u64, 0u64);
    for record in &records {
        let label = record.job.label();
        assert!(record.ok, "{label}: {:?}", record.error);
        let stats = record.stats.as_ref().expect("success carries stats");
        let profile = record.profile.as_ref().expect("profiled job carries a profile");
        assert_eq!(profile.issued_total(Lane::Int), stats.int_issued, "{label}: int issues");
        assert_eq!(
            profile.issued_total(Lane::FpCore),
            stats.fp_issued_core,
            "{label}: fp core issues"
        );
        assert_eq!(
            profile.issued_total(Lane::FpSeq),
            stats.fp_issued_seq,
            "{label}: fp sequencer issues"
        );
        for cause in StallCause::all() {
            assert_eq!(
                profile.stall_total(cause),
                stats.stall_by_cause(cause),
                "{label}: {cause} stalls"
            );
        }
        cycles += record.cycles;
        replayed += record.block_replayed_cycles;
    }
    assert_eq!(replayed, cycles, "the block burst runs every profiled cycle");
}

/// The same exact-mirror property on the reference stepper (block compile
/// off, the `testing`-feature oracle): the burst and the stepper must charge
/// identical profiles — the histograms, not just the totals.
#[test]
fn profile_is_identical_with_block_compile_off() {
    for kernel in Kernel::paper() {
        let (n, block) = kernel.smoke_point();
        for variant in Variant::all() {
            let program = kernel.build_for(variant, n, block, 1);
            let run = |bursts: bool| -> (Profiler, snitch_sim::stats::Stats) {
                let mut system = System::new(ClusterConfig::profiled().into());
                system.set_block_compile(bursts);
                let outcome = kernel
                    .run_loaded(&mut system, variant, n, &program)
                    .unwrap_or_else(|e| panic!("{}/{variant:?}: {e}", kernel.name()));
                (system.profile().expect("profiler attached").clone(), outcome.stats)
            };
            let (profile_on, stats_on) = run(true);
            let (profile_off, stats_off) = run(false);
            assert_eq!(stats_on, stats_off, "{}/{variant:?}: stats diverged", kernel.name());
            assert_eq!(
                profile_on,
                profile_off,
                "{}/{variant:?}: burst and reference profiles diverged",
                kernel.name()
            );
            for cause in StallCause::all() {
                assert_eq!(
                    profile_off.stall_total(cause),
                    stats_off.stall_by_cause(cause),
                    "{}/{variant:?}: {cause}",
                    kernel.name()
                );
            }
        }
    }
}

/// Profiles are bit-identical at any worker count, and so is every sink
/// rendered from them (the byte-stability contract of the reports).
#[test]
fn profiles_and_sinks_are_deterministic_across_worker_counts() {
    let jobs: Vec<JobSpec> = paper_batch().into_iter().map(JobSpec::profiled).collect();
    let reference = Engine::new(1).run(&jobs);
    for workers in [2, 8] {
        let records = Engine::new(workers).run(&jobs);
        for (r, base) in records.iter().zip(&reference) {
            assert_eq!(
                r.profile,
                base.profile,
                "{}: profile diverged at {workers} workers",
                base.job.label()
            );
        }
    }
    // Sinks: byte-stable given equal profiles (spot-check one COPIFT job).
    let copift = reference
        .iter()
        .find(|r| r.job.variant == Variant::Copift && r.job.kernel == Kernel::PolyLcg)
        .expect("batch contains poly_lcg/copift");
    let profile = copift.profile.as_ref().expect("profiled");
    let program =
        copift.job.kernel.build_for(copift.job.variant, copift.job.n, copift.job.block, 1);
    let map = RegionMap::new(&program);
    let flame_text = flame::render(profile, &map);
    assert_eq!(flame_text, flame::render(profile, &map));
    assert!(flame::validate(&flame_text).expect("flamegraph grammar") > 0);
    assert!(flame_text.lines().any(|l| l.starts_with("spill;")), "regions label the stacks");
    let listing = disasm::render(profile, &program);
    assert_eq!(listing, disasm::render(profile, &program));
    assert!(listing.contains("prologue:") && listing.contains("reduce:"));
    let json = perfetto::render(profile, &map);
    snitch_trace::chrome::validate(&json).expect("perfetto document validates");
}

/// Profiling must not perturb results or split the program cache: the
/// profiled batch serializes to the very same JSON-lines/CSV rows as the
/// unprofiled one, through the same cached programs.
#[test]
fn profiled_runs_match_unprofiled_rows_and_share_the_cache() {
    let jobs = paper_batch();
    let profiled: Vec<JobSpec> = jobs.iter().cloned().map(JobSpec::profiled).collect();
    let engine = Engine::new(2);
    let baseline = engine.run(&jobs);
    let misses = engine.cache().misses();
    let with_profile = engine.run(&profiled);
    assert_eq!(
        engine.cache().misses(),
        misses,
        "profiling must not compile anything new (ProgramKey is profile-blind)"
    );
    assert_eq!(
        sink::to_jsonl(&baseline),
        sink::to_jsonl(&with_profile),
        "profiled JSON-lines rows diverged"
    );
    assert_eq!(sink::to_csv(&baseline), sink::to_csv(&with_profile), "profiled CSV rows diverged");
    assert!(baseline.iter().all(|r| r.profile.is_none()), "unprofiled runs carry no profile");
    assert!(with_profile.iter().all(|r| r.profile.is_some()));
}
