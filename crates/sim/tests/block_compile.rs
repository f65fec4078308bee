//! Equivalence of the block-compiled fast path against the force-stepped
//! reference loop: pseudo-random programs (integer loops, FP and FREP
//! bodies, SSR streams, DMA copies with wait loops, barriers) on 1, 2 and 4
//! harts and the tiled GEMM on 8-hart clusters must produce bit-identical
//! [`Stats`](snitch_sim::Stats) (including final cycle counts), registers
//! and memory with block compilation enabled and with both fast paths
//! disabled — plus engagement pins that the burst actually fired, fallback
//! pins that tracers and the deadlock/timeout watchdogs behave identically,
//! and ledger pins that the cycle profile equals the per-hart counters on
//! both paths.
//!
//! The program generator is the shared one in [`snitch_sim::testing`]; the
//! quiescent-skip path has its own suite in `quiescent_skip.rs`.

use snitch_asm::builder::ProgramBuilder;
use snitch_asm::layout::{TCDM_BASE, TCDM_SIZE};
use snitch_asm::program::Program;
use snitch_kernels::registry::{Kernel, Variant};
use snitch_profile::{Lane, Profiler, StallCause};
use snitch_riscv::csr::SsrCfgWord;
use snitch_riscv::reg::{FpReg, IntReg};
use snitch_sim::cluster::Cluster;
use snitch_sim::config::{ClusterConfig, SystemConfig};
use snitch_sim::error::RunError;
use snitch_sim::system::System;
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

/// The same pin on SPMD programs: every hart runs, barriers and DMA copies
/// included, and the burst drives them all — so it fires on each seeded
/// 2- and 4-core program and owns most of its cycles.
#[test]
fn block_burst_engages_on_random_multi_core_programs() {
    let mut rng = Rng(0xb10c_cafe_f00d_0007);
    for case in 0..12 {
        let cores = [2, 4][case % 2];
        let frags = 3 + rng.below(5) as usize;
        let program = random_program(&mut rng, cores, frags);
        let mut c = Cluster::new(ClusterConfig { cores, ..ClusterConfig::default() });
        c.load_program(&program);
        let stats = c.run().expect("random program completes");
        let (replayed, skipped) = (c.block_replayed_cycles(), c.skipped_cycles());
        assert!(
            replayed > 0,
            "burst never engaged (case {case}, {cores} cores, {} cycles)",
            stats.cycles
        );
        assert!(replayed + skipped <= stats.cycles, "fast-path counters overlap (case {case})");
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

/// Runs `p` on a `cores`-hart cluster with every fast path on or off; with
/// them on, the burst must have engaged.
fn run_mode(p: &Program, cores: usize, max_cycles: u64, fast: bool) -> Result<u64, RunError> {
    let mut c = Cluster::new(ClusterConfig { cores, max_cycles, ..ClusterConfig::default() });
    c.set_block_compile(fast);
    c.set_quiescent_skip(fast);
    c.load_program(p);
    let result = c.run().map(|s| s.cycles);
    if fast {
        assert!(c.block_replayed_cycles() > 0, "the burst drives the harts");
    }
    result
}

/// A timeout landing mid-burst while four harts spin: reported at exactly
/// the limit with the burst on and off.
#[test]
fn multi_core_timeout_reported_at_identical_cycles_block_on_vs_off() {
    let mut b = ProgramBuilder::new();
    b.parallel();
    b.li(IntReg::A0, 1_000_000);
    b.label("spin");
    b.addi(IntReg::A0, IntReg::A0, -1);
    b.bnez(IntReg::A0, "spin");
    b.ecall();
    let p = b.build().unwrap();
    for max_cycles in (50..58).chain(1000..1004) {
        match (run_mode(&p, 4, max_cycles, true), run_mode(&p, 4, max_cycles, false)) {
            (Err(RunError::Timeout { cycles: c1 }), Err(RunError::Timeout { cycles: c2 })) => {
                assert_eq!(c1, c2, "timeout at limit {max_cycles}");
                assert_eq!(c1, max_cycles);
            }
            other => panic!("expected two timeouts at limit {max_cycles}, got {other:?}"),
        }
    }
}

/// A 2-hart barrier deadlock: hart 0 waits at the barrier while hart 1
/// stalls forever reconfiguring an armed SSR stream nobody consumes. The
/// report must carry the same cycle and pc with the burst on and off.
#[test]
fn barrier_deadlock_reported_at_identical_cycles_block_on_vs_off() {
    let mut b = ProgramBuilder::new();
    b.parallel();
    b.csrr_mhartid(IntReg::A1);
    b.bnez(IntReg::A1, "stuck");
    b.barrier();
    b.ecall();
    b.label("stuck");
    b.li(IntReg::A0, 3);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Bound(0));
    b.li(IntReg::A0, 8);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Stride(0));
    b.li_u(IntReg::A0, TCDM_BASE);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // arms
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // stalls forever
    b.barrier();
    b.ecall();
    let p = b.build().unwrap();
    let max_cycles = ClusterConfig::default().max_cycles;
    match (run_mode(&p, 2, max_cycles, true), run_mode(&p, 2, max_cycles, false)) {
        (
            Err(RunError::Deadlock { cycle: c1, pc: p1 }),
            Err(RunError::Deadlock { cycle: c2, pc: p2 }),
        ) => {
            assert_eq!((c1, p1), (c2, p2), "deadlock report must be cycle-identical");
        }
        other => panic!("expected two deadlocks, got {other:?}"),
    }
}

/// A DMA beat from or to unmapped memory is a machine fault, reported with
/// the faulting address at the same cycle with the burst on and off.
#[test]
fn dma_faults_reported_at_identical_cycles_block_on_vs_off() {
    let out = TCDM_BASE + 256;
    for (src, dst, bad) in [(0x1000, out, 0x1000), (TCDM_BASE, 0x1000, 0x1000)] {
        let mut b = ProgramBuilder::new();
        b.li_u(IntReg::A0, src);
        b.dmsrc(IntReg::A0);
        b.li_u(IntReg::A0, dst);
        b.dmdst(IntReg::A0);
        b.li(IntReg::A1, 16);
        b.dmcpyi(IntReg::A2, IntReg::A1);
        b.label("wait");
        b.dmstati(IntReg::A3);
        b.bnez(IntReg::A3, "wait");
        b.ecall();
        let p = b.build().unwrap();
        let run = |block: bool| {
            let mut c = Cluster::new(ClusterConfig::default());
            c.set_block_compile(block);
            c.set_quiescent_skip(block);
            c.load_program(&p);
            let result = c.run();
            assert_eq!(c.block_replayed_cycles() > 0, block, "the burst meets the fault");
            (result, c.stats().cycles)
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on, off, "dma fault {src:#x} -> {dst:#x}");
        match on.0 {
            Err(RunError::Fault(f)) => {
                assert!(f.to_string().contains(&format!("{bad:#010x}")), "{f}");
            }
            other => panic!("expected a fault for {src:#x} -> {dst:#x}, got {other:?}"),
        }
    }
}

/// A streamer reading or writing unmapped memory ends the run with a fault
/// at the same cycle with the burst on and off: an affine element fetch, an
/// indirect stream's index fetch and its element fetch, and an element
/// store.
#[test]
fn ssr_faults_reported_at_identical_cycles_block_on_vs_off() {
    const BAD: u32 = 0x1000;
    // (status word, index base, data base, push data through ft0)
    let cases = [
        ("affine fetch", 0, 0, BAD, false),
        ("index fetch", 0b1000, BAD, TCDM_BASE, false),
        ("indirect fetch", 0b1000, TCDM_BASE, BAD, false),
        ("store", 1, 0, BAD, true),
    ];
    for (what, status, idx_base, base, push) in cases {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::A0, status);
        b.scfgwi(IntReg::A0, 0, SsrCfgWord::Status);
        b.li(IntReg::A0, 3);
        b.scfgwi(IntReg::A0, 0, SsrCfgWord::Bound(0));
        b.li(IntReg::A0, 8);
        b.scfgwi(IntReg::A0, 0, SsrCfgWord::Stride(0));
        b.li_u(IntReg::A0, idx_base);
        b.scfgwi(IntReg::A0, 0, SsrCfgWord::IdxBase);
        b.li(IntReg::A0, 2);
        b.scfgwi(IntReg::A0, 0, SsrCfgWord::IdxSize);
        b.li_u(IntReg::A0, base);
        b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // arms
        b.ssr_enable();
        if push {
            b.li(IntReg::A1, 5);
            b.fcvt_d_w(FpReg::FT0, IntReg::A1);
        }
        // Integer work that keeps the hart running past the stream's first
        // access.
        b.li(IntReg::A1, 20);
        b.label("spin");
        b.addi(IntReg::A1, IntReg::A1, -1);
        b.bnez(IntReg::A1, "spin");
        b.ecall();
        let p = b.build().unwrap();
        let run = |block: bool| {
            let mut c = Cluster::new(ClusterConfig::default());
            c.set_block_compile(block);
            c.set_quiescent_skip(block);
            c.load_program(&p);
            let result = c.run();
            assert_eq!(c.block_replayed_cycles() > 0, block, "the burst meets the fault");
            (result, c.stats().clone())
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on, off, "ssr {what}");
        match on.0 {
            Err(RunError::Fault(f)) => {
                assert!(f.to_string().contains(&format!("{BAD:#010x}")), "{f}");
            }
            other => panic!("expected a fault for the ssr {what}, got {other:?}"),
        }
    }
}

/// Everything a tiled-GEMM system run leaves behind, hart by hart: each
/// hart's counters, integer and FP registers, then every cluster's TCDM and
/// the shared L2 result matrix.
#[derive(Debug, PartialEq)]
struct SystemObservation {
    hart_stats: Vec<Stats>,
    int_regs: Vec<u32>,
    fp_regs: Vec<u64>,
    tcdm: Vec<u64>,
    c_matrix: Vec<u64>,
}

fn observe_gemm(
    variant: Variant,
    n: usize,
    cores: usize,
    clusters: usize,
    fast: bool,
) -> SystemObservation {
    let program = Kernel::GemmTiled.build_grid(variant, n, 0, cores, clusters);
    let cluster = ClusterConfig { cores, ..ClusterConfig::default() };
    let mut sys = System::new(SystemConfig { cluster, clusters });
    sys.set_block_compile(fast);
    for k in 0..clusters {
        sys.cluster_mut(k).set_quiescent_skip(fast);
    }
    sys.load_program(&program);
    sys.run().expect("gemm_tiled completes");
    let mut obs = SystemObservation {
        hart_stats: Vec::new(),
        int_regs: Vec::new(),
        fp_regs: Vec::new(),
        tcdm: Vec::new(),
        c_matrix: Vec::new(),
    };
    for k in 0..clusters {
        let c = sys.cluster(k);
        if fast {
            assert!(c.block_replayed_cycles() > 0, "burst never engaged (cluster {k})");
        }
        for h in 0..cores {
            obs.hart_stats.push(c.core_stats(h).clone());
            obs.int_regs.extend((0..32).map(|r| c.int_reg_of(h, IntReg::new(r))));
            obs.fp_regs.extend((0..32).map(|r| c.fp_reg_of(h, FpReg::new(r))));
        }
        let words = TCDM_SIZE / 8;
        obs.tcdm.extend((0..words).map(|i| c.mem().read(TCDM_BASE + i * 8, 8).expect("tcdm")));
    }
    let c_data = program.symbol("c_data").expect("c_data symbol");
    obs.c_matrix = (0..(n * n) as u32).map(|i| sys.read_mem(c_data + i * 8, 8).unwrap()).collect();
    obs
}

/// The tiled GEMM on 8-hart clusters (barriers, DMA staging, L2 traffic and
/// TCDM contention across all harts), in one and two clusters: per-hart
/// counters, registers and memory identical with the burst on and off.
#[test]
fn gemm_tiled_multi_core_matches_force_stepped_reference() {
    for variant in Variant::all() {
        for clusters in [1, 2] {
            let fast = observe_gemm(variant, 32, 8, clusters, true);
            let reference = observe_gemm(variant, 32, 8, clusters, false);
            assert_eq!(fast.hart_stats, reference.hart_stats, "{variant:?} x{clusters}: stats");
            assert_eq!(fast.int_regs, reference.int_regs, "{variant:?} x{clusters}: int regs");
            assert_eq!(fast.fp_regs, reference.fp_regs, "{variant:?} x{clusters}: fp regs");
            assert!(fast.tcdm == reference.tcdm, "{variant:?} x{clusters}: TCDM diverges");
            assert_eq!(fast.c_matrix, reference.c_matrix, "{variant:?} x{clusters}: C matrix");
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
