//! Equivalence of the block-compiled fast path against the force-stepped
//! reference loop: pseudo-random programs (integer loops, FP and FREP
//! bodies, SSR streams, DMA copies with wait loops, barriers) must produce
//! bit-identical [`Stats`](snitch_sim::Stats) (including final cycle
//! counts), FP registers and memory with block compilation enabled and with
//! both fast paths disabled — plus engagement pins that the burst actually
//! fired, fallback pins that tracers and the deadlock/timeout watchdogs
//! behave identically, and ledger pins that the cycle profile equals the
//! per-hart counters on both paths.
//!
//! The program generator is the shared one in [`snitch_sim::testing`]; the
//! quiescent-skip path has its own suite in `quiescent_skip.rs`.

use snitch_asm::builder::ProgramBuilder;
use snitch_asm::layout::TCDM_BASE;
use snitch_asm::program::Program;
use snitch_profile::{Lane, Profiler, StallCause};
use snitch_riscv::csr::SsrCfgWord;
use snitch_riscv::reg::IntReg;
use snitch_sim::cluster::Cluster;
use snitch_sim::config::ClusterConfig;
use snitch_sim::error::RunError;
use snitch_sim::testing::{observe_with, random_program, Observation, Rng};
use snitch_sim::Stats;
use snitch_trace::Profile;

/// The reference arm: every fast path off, pure per-cycle stepping.
fn observe_stepped(program: &Program, cores: usize) -> Observation {
    observe_with(program, cores, |c| {
        c.set_block_compile(false);
        c.set_quiescent_skip(false);
    })
}

#[test]
fn block_matches_force_stepped_reference_on_random_programs() {
    let mut rng = Rng(0xb10c_cafe_f00d_0002);
    for case in 0..40 {
        let cores = [1, 1, 2, 4][rng.below(4) as usize];
        let frags = 3 + rng.below(5) as usize;
        let program = random_program(&mut rng, cores, frags);
        let fast = observe_with(&program, cores, |_| {}); // both fast paths on (defaults)
        let reference = observe_stepped(&program, cores);
        assert_eq!(fast.stats, reference.stats, "stats diverge (case {case}, cores {cores})");
        assert_eq!(fast.fp_regs, reference.fp_regs, "fp registers diverge (case {case})");
        assert_eq!(fast.tcdm, reference.tcdm, "memory diverges (case {case})");
    }
}

/// Engagement pin on the random population: single-core programs start with
/// every burst entry guard satisfied, so the fast path must fire on each of
/// them — and its counter stays disjoint from the quiescent-skip counter.
#[test]
fn block_burst_engages_on_random_single_core_programs() {
    let mut rng = Rng(0xb10c_cafe_f00d_0003);
    for case in 0..10 {
        let frags = 3 + rng.below(5) as usize;
        let program = random_program(&mut rng, 1, frags);
        let mut c = Cluster::new(ClusterConfig::default());
        c.load_program(&program);
        let stats = c.run().expect("random program completes");
        assert!(
            c.block_replayed_cycles() > 0,
            "burst never engaged (case {case}, {} cycles)",
            stats.cycles
        );
        assert!(
            c.block_replayed_cycles() + c.skipped_cycles() <= stats.cycles,
            "fast-path counters overlap (case {case})"
        );
    }
}

/// On a pure integer program the burst owns the run end to end: every
/// elapsed cycle is a replayed cycle, and the quiescent-skip path (which
/// would otherwise fast-forward the branch refill windows) never engages.
#[test]
fn block_burst_owns_a_pure_integer_run() {
    let mut b = ProgramBuilder::new();
    b.li(IntReg::A0, 500);
    b.label("spin");
    b.addi(IntReg::A0, IntReg::A0, -1);
    b.bnez(IntReg::A0, "spin");
    b.ecall();
    let p = b.build().unwrap();

    let mut c = Cluster::new(ClusterConfig::default());
    c.load_program(&p);
    let stats = c.run().unwrap();
    assert_eq!(c.block_replayed_cycles(), stats.cycles, "the whole run bursts");
    assert_eq!(c.skipped_cycles(), 0, "nothing left for the quiescent path");

    let mut reference = Cluster::new(ClusterConfig::default());
    reference.set_block_compile(false);
    reference.set_quiescent_skip(false);
    reference.load_program(&p);
    let ref_stats = reference.run().unwrap();
    assert_eq!(reference.block_replayed_cycles(), 0);
    assert_eq!(stats, ref_stats);
}

/// A recording tracer forces the stepper (the burst has no event hooks), so
/// traced runs must be cycle- and event-identical with block compilation on
/// vs off — and the engagement counter must stay at zero.
#[test]
fn traced_runs_are_event_identical_block_on_vs_off() {
    let mut rng = Rng(0xb10c_cafe_f00d_0004);
    let program = random_program(&mut rng, 1, 5);

    let run = |block: bool| {
        let mut c = Cluster::new(ClusterConfig::traced());
        c.set_block_compile(block);
        c.load_program(&program);
        let stats = c.run().expect("traced program completes");
        let replayed = c.block_replayed_cycles();
        let events = c.take_tracer().expect("cfg.trace attaches a tracer");
        (stats, replayed, events.into_events())
    };
    let (on_stats, on_replayed, on_events) = run(true);
    let (off_stats, _, off_events) = run(false);
    assert_eq!(on_replayed, 0, "a recording tracer must force the stepper");
    assert_eq!(on_stats, off_stats, "traced stats diverge");
    assert_eq!(on_events, off_events, "traced event streams diverge");
}

/// The deadlock watchdog must report the same cycle and pc with the burst
/// on and off (the burst bails out long before the deadlock window closes,
/// leaving the report to the reference path).
#[test]
fn deadlock_reported_at_identical_cycles_block_on_vs_off() {
    // An armed SSR stream nobody consumes: reconfiguring it stalls forever.
    let mut b = ProgramBuilder::new();
    b.li(IntReg::A0, 3);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Bound(0));
    b.li(IntReg::A0, 8);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Stride(0));
    b.li_u(IntReg::A0, TCDM_BASE);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // arms
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // stalls forever
    b.ecall();
    let p = b.build().unwrap();

    let run = |block: bool| {
        let mut c = Cluster::new(ClusterConfig::default());
        c.set_block_compile(block);
        c.set_quiescent_skip(block); // reference arm: everything off
        c.load_program(&p);
        c.run()
    };
    match (run(true), run(false)) {
        (
            Err(RunError::Deadlock { cycle: c1, pc: p1 }),
            Err(RunError::Deadlock { cycle: c2, pc: p2 }),
        ) => {
            assert_eq!((c1, p1), (c2, p2), "deadlock report must be cycle-identical");
        }
        other => panic!("expected two deadlocks, got {other:?}"),
    }
}

/// The timeout watchdog must fire at exactly `max_cycles` with the burst on
/// and off, even when the limit lands mid-burst (the burst clamps to it).
#[test]
fn timeout_reported_at_identical_cycles_block_on_vs_off() {
    let mut b = ProgramBuilder::new();
    b.li(IntReg::A0, 1_000_000);
    b.label("spin");
    b.addi(IntReg::A0, IntReg::A0, -1);
    b.bnez(IntReg::A0, "spin");
    b.ecall();
    let p = b.build().unwrap();

    let run = |block: bool, max_cycles: u64| {
        let mut c = Cluster::new(ClusterConfig { max_cycles, ..ClusterConfig::default() });
        c.set_block_compile(block);
        c.set_quiescent_skip(block);
        c.load_program(&p);
        c.run()
    };
    for max_cycles in 50..58 {
        match (run(true, max_cycles), run(false, max_cycles)) {
            (Err(RunError::Timeout { cycles: c1 }), Err(RunError::Timeout { cycles: c2 })) => {
                assert_eq!(c1, c2, "timeout at limit {max_cycles}");
                assert_eq!(c1, max_cycles);
            }
            other => panic!("expected two timeouts at limit {max_cycles}, got {other:?}"),
        }
    }
}

/// Issue totals per lane (`Int`, `FpCore`, `FpSeq`) and stall totals per
/// cause, in `StallCause::all()` order.
type Ledger = ([u64; 3], Vec<u64>);

const LANES: [Lane; 3] = [Lane::Int, Lane::FpCore, Lane::FpSeq];

fn stats_ledger(stats: &Stats) -> Ledger {
    let lanes = [stats.int_issued, stats.fp_issued_core, stats.fp_issued_seq];
    (lanes, StallCause::all().into_iter().map(|c| stats.stall_by_cause(c)).collect())
}

fn profile_ledger(profile: &Profiler) -> Ledger {
    let lanes = LANES.map(|lane| profile.issued_total(lane));
    (lanes, StallCause::all().into_iter().map(|c| profile.stall_total(c)).collect())
}

/// Runs `program` profiled, with the profiler sized to record harts
/// `0..recorded` only (charges from higher harts fall outside its
/// histograms), and returns the cluster after the run.
fn run_profiled(program: &Program, cores: usize, block: bool, recorded: usize) -> Cluster {
    let mut c = Cluster::new(ClusterConfig { cores, ..ClusterConfig::default() });
    c.set_block_compile(block);
    c.load_program(program);
    let mut profiler = Profiler::new();
    profiler.size(recorded, program.text().len());
    c.attach_profiler(profiler);
    c.run().expect("random program completes");
    c
}

/// The profile is an exact per-hart decomposition of the counters on the
/// random population — all three lanes and all thirteen causes — with block
/// compilation on and off, and the two paths charge identical histograms.
/// Per-hart profile totals come from prefix-sized profilers: recording harts
/// `0..=h` minus recording harts `0..h` leaves hart `h` alone.
#[test]
fn profiles_mirror_per_hart_stats_block_on_vs_off() {
    let mut rng = Rng(0xb10c_cafe_f00d_0005);
    for case in 0..24 {
        let cores = [1, 1, 2, 4][rng.below(4) as usize];
        let frags = 3 + rng.below(5) as usize;
        let program = random_program(&mut rng, cores, frags);
        let full_on = run_profiled(&program, cores, true, cores);
        let full_off = run_profiled(&program, cores, false, cores);
        assert_eq!(full_on.profile(), full_off.profile(), "histograms diverge (case {case})");
        if cores == 1 {
            assert!(full_on.block_replayed_cycles() > 0, "burst never engaged (case {case})");
        }
        for block in [true, false] {
            let mut below = ([0; 3], vec![0; StallCause::all().len()]);
            for hart in 0..cores {
                let c = run_profiled(&program, cores, block, hart + 1);
                let upto = profile_ledger(c.profile().expect("attached"));
                let own = (
                    std::array::from_fn(|i| upto.0[i] - below.0[i]),
                    upto.1.iter().zip(&below.1).map(|(a, b)| a - b).collect(),
                );
                assert_eq!(
                    own,
                    stats_ledger(c.core_stats(hart)),
                    "profile != stats (case {case}, hart {hart}, block {block})"
                );
                below = upto;
            }
        }
    }
}

/// One traced and profiled pass per shape: the trace-derived attribution
/// equals both the counters and the profile, hart by hart for the trace and
/// in total for the profile.
#[test]
fn trace_attribution_matches_stats_and_profile() {
    let mut rng = Rng(0xb10c_cafe_f00d_0006);
    for cores in [1, 2, 4] {
        let program = random_program(&mut rng, cores, 6);
        let cfg = ClusterConfig { cores, trace: true, profile: true, ..ClusterConfig::default() };
        let mut c = Cluster::new(cfg);
        c.load_program(&program);
        let stats = c.run().expect("random program completes");
        let trace =
            Profile::new(c.trace_events().expect("cfg.trace attaches a tracer"), stats.cycles);
        for hart in 0..cores {
            let own = c.core_stats(hart);
            let occ = trace.occupancy(hart as u8);
            assert_eq!(occ.core_busy, own.int_issued + own.fp_issued_core, "hart {hart}");
            assert_eq!(occ.frep_busy, own.fp_issued_seq, "hart {hart}");
            for cause in StallCause::all() {
                assert_eq!(
                    trace.stall_cycles(Some(hart as u8), cause),
                    own.stall_by_cause(cause),
                    "trace attribution of `{cause}` (cores {cores}, hart {hart})"
                );
            }
        }
        let profile = profile_ledger(c.profile().expect("cfg.profile attaches a profiler"));
        assert_eq!(profile, stats_ledger(&stats), "profile != stats (cores {cores})");
        let trace_stalls: Vec<u64> =
            StallCause::all().into_iter().map(|c| trace.stall_cycles(None, c)).collect();
        assert_eq!(trace_stalls, profile.1, "trace attribution != profile (cores {cores})");
    }
}
