//! Equivalence of the block burst (the only production run loop) against
//! the per-cycle reference stepper (`set_block_compile(false)`, compiled
//! only with the `testing` feature): pseudo-random programs (integer loops,
//! FP and FREP bodies, SSR streams, DMA copies with wait loops, barriers) on
//! 1, 2 and 4 harts and the tiled GEMM on 8-hart clusters must produce
//! bit-identical [`Stats`](snitch_sim::Stats) (including final cycle
//! counts), registers, memory and trace event streams on both — plus
//! engagement pins that the burst ran every cycle, pins that the deadlock,
//! timeout and fault reports carry the same cycle and pc, and ledger pins
//! that the cycle profile equals the per-hart counters on both. Each loop
//! is also compiled bare (no tracer or profiler attached) and hooked; the
//! two must compute the same run.
//!
//! The program generator is the shared one in [`snitch_sim::testing`].

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
use snitch_trace::{EventKind, Profile, TraceEvent, Tracer};

/// The reference arm: pure per-cycle stepping.
fn observe_stepped(program: &Program, cores: usize) -> Observation {
    observe_with(program, cores, |c| c.set_block_compile(false))
}

#[test]
fn block_matches_force_stepped_reference_on_random_programs() {
    let mut rng = Rng(0xb10c_cafe_f00d_0002);
    for case in 0..40 {
        let cores = [1, 1, 2, 4][rng.below(4) as usize];
        let frags = 3 + rng.below(5) as usize;
        let program = random_program(&mut rng, cores, frags);
        let fast = observe_with(&program, cores, |_| {}); // the burst (default)
        let reference = observe_stepped(&program, cores);
        assert_eq!(fast.stats, reference.stats, "stats diverge (case {case}, cores {cores})");
        assert_eq!(fast.fp_regs, reference.fp_regs, "fp registers diverge (case {case})");
        assert_eq!(fast.tcdm, reference.tcdm, "memory diverges (case {case})");
    }
}

/// Engagement pin on the random population: the burst runs every cycle of
/// each single-core program, including the post-halt drain.
#[test]
fn block_burst_engages_on_random_single_core_programs() {
    let mut rng = Rng(0xb10c_cafe_f00d_0003);
    for case in 0..10 {
        let frags = 3 + rng.below(5) as usize;
        let program = random_program(&mut rng, 1, frags);
        let mut c = Cluster::new(ClusterConfig::default());
        c.load_program(&program);
        let stats = c.run().expect("random program completes");
        assert_eq!(c.block_replayed_cycles(), stats.cycles, "case {case}");
    }
}

/// The same pin on SPMD programs: every hart runs, barriers and DMA copies
/// included, and the burst drives them all for every cycle.
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
        assert_eq!(c.block_replayed_cycles(), stats.cycles, "case {case}, {cores} cores");
    }
}

/// On pure integer programs the burst owns the run end to end, and equals
/// the stepper: straight-line ALU and multiply work (write-back port
/// hazards), and a 500-iteration branch spin whose 499 taken branches leave
/// 2-cycle silent refill windows that the burst jumps over and still
/// charges as branch stalls.
#[test]
fn block_burst_owns_a_pure_integer_run() {
    let mut straight = ProgramBuilder::new();
    straight.li(IntReg::A0, 3);
    for _ in 0..16 {
        straight.mul(IntReg::A1, IntReg::A0, IntReg::A0);
        straight.addi(IntReg::A2, IntReg::A0, 1);
        straight.add(IntReg::A0, IntReg::A1, IntReg::A2);
    }
    straight.ecall();
    let mut spin = ProgramBuilder::new();
    spin.li(IntReg::A0, 500);
    spin.label("spin");
    spin.addi(IntReg::A0, IntReg::A0, -1);
    spin.bnez(IntReg::A0, "spin");
    spin.ecall();

    for (name, b, stall_branch) in [("straight", straight, 0), ("spin", spin, 998)] {
        let p = b.build().unwrap();
        let mut c = Cluster::new(ClusterConfig::default());
        c.load_program(&p);
        let stats = c.run().unwrap();
        assert_eq!(c.block_replayed_cycles(), stats.cycles, "{name}: the whole run bursts");
        assert_eq!(stats.stall_branch, stall_branch, "{name}");

        let mut reference = Cluster::new(ClusterConfig::default());
        reference.set_block_compile(false);
        reference.load_program(&p);
        let ref_stats = reference.run().unwrap();
        assert_eq!(reference.block_replayed_cycles(), 0, "{name}");
        assert_eq!(stats, ref_stats, "{name}");
        assert_eq!(c.int_reg(IntReg::A0), reference.int_reg(IntReg::A0), "{name}");
    }
}

/// Runs `program` traced on the burst or on the stepper; returns the stats,
/// every hart's integer and FP registers and the event stream. The burst
/// arm must have run every cycle.
fn traced_run(program: &Program, cores: usize, burst: bool) -> (Stats, Vec<u64>, Vec<TraceEvent>) {
    let mut c = Cluster::new(ClusterConfig { cores, trace: true, ..ClusterConfig::default() });
    c.set_block_compile(burst);
    c.load_program(program);
    let stats = c.run().expect("traced program completes");
    if burst {
        assert_eq!(c.block_replayed_cycles(), stats.cycles, "the burst runs the traced run");
    }
    let mut regs = Vec::new();
    for h in 0..cores {
        regs.extend((0..32).map(|r| u64::from(c.int_reg_of(h, IntReg::new(r)))));
        regs.extend((0..32).map(|r| c.fp_reg_of(h, FpReg::new(r))));
    }
    (stats, regs, c.take_tracer().expect("cfg.trace attaches a tracer").into_events())
}

/// Traced runs take the burst, and its event stream equals the stepper's
/// event for event, along with the stats and registers, on the random
/// population at 1, 2 and 4 harts. The population must exercise every
/// event the burst emits outside the charge path: SSR beats, DMA activity,
/// bank conflicts and barrier releases.
#[test]
fn traced_runs_are_event_identical_block_on_vs_off() {
    let mut rng = Rng(0xb10c_cafe_f00d_0004);
    let mut seen = [false; 4];
    for case in 0..24 {
        let cores = [1, 2, 4][case % 3];
        let frags = 3 + rng.below(5) as usize;
        let program = random_program(&mut rng, cores, frags);
        let (on_stats, on_regs, on_events) = traced_run(&program, cores, true);
        let (off_stats, off_regs, off_events) = traced_run(&program, cores, false);
        assert_eq!(on_stats, off_stats, "traced stats diverge (case {case}, cores {cores})");
        assert_eq!(on_regs, off_regs, "registers diverge (case {case}, cores {cores})");
        assert!(on_events == off_events, "event streams diverge (case {case}, cores {cores})");
        for e in &on_events {
            match e.kind {
                EventKind::SsrBeat { .. } => seen[0] = true,
                EventKind::DmaActive { .. } => seen[1] = true,
                EventKind::BankConflicts { .. } => seen[2] = true,
                EventKind::BarrierRelease => seen[3] = true,
                _ => {}
            }
        }
    }
    assert_eq!(seen, [true; 4], "SSR, DMA, bank-conflict and barrier events all exercised");
}

/// The deadlock watchdog must report the same cycle and pc on the burst and
/// on the stepper.
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

/// Runs `p` on a `cores`-hart cluster on the burst or on the stepper; the
/// burst must have run every elapsed cycle.
fn run_mode(p: &Program, cores: usize, max_cycles: u64, burst: bool) -> Result<u64, RunError> {
    let mut c = Cluster::new(ClusterConfig { cores, max_cycles, ..ClusterConfig::default() });
    c.set_block_compile(burst);
    c.load_program(p);
    let result = c.run().map(|s| s.cycles);
    if burst {
        assert_eq!(c.block_replayed_cycles(), c.stats().cycles, "the burst drives the harts");
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

/// A drain that never ends: the hart halts with an armed SSR read stream
/// nobody consumes, so the streamer stays busy after the `ecall`. The
/// deadlock is counted from the first drain cycle, and reported at the same
/// cycle and pc on the burst and on the stepper.
#[test]
fn drain_deadlock_reported_at_identical_cycles_block_on_vs_off() {
    let mut b = ProgramBuilder::new();
    b.li(IntReg::A0, 15);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Bound(0));
    b.li(IntReg::A0, 8);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Stride(0));
    b.li_u(IntReg::A0, TCDM_BASE);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // arms
    b.ecall();
    let p = b.build().unwrap();
    let max_cycles = ClusterConfig::default().max_cycles;
    match (run_mode(&p, 1, max_cycles, true), run_mode(&p, 1, max_cycles, false)) {
        (
            Err(RunError::Deadlock { cycle: c1, pc: p1 }),
            Err(RunError::Deadlock { cycle: c2, pc: p2 }),
        ) => {
            assert_eq!((c1, p1), (c2, p2), "deadlock report must be cycle-identical");
            assert!(c1 > 50_000 && c1 < 50_100, "counted from the drain start: {c1}");
        }
        other => panic!("expected two deadlocks, got {other:?}"),
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

/// A run's result (final cycle count or error) and the state it leaves: the
/// cluster statistics rollup, every hart's integer and FP registers and the
/// first 16 KiB of the TCDM.
type Outcome = (Result<u64, RunError>, Stats, Vec<u64>, Vec<u64>);

/// Attaches collectors to a cluster (or none) before its program loads.
type Hook = fn(&mut Cluster);

/// Runs `p` on a `cores`-hart cluster, on the burst or on the stepper, with
/// `hook` attaching collectors (or none) before the program loads.
fn run_hooked(p: &Program, cores: usize, max_cycles: u64, burst: bool, hook: Hook) -> Outcome {
    let mut c = Cluster::new(ClusterConfig { cores, max_cycles, ..ClusterConfig::default() });
    c.set_block_compile(burst);
    hook(&mut c);
    c.load_program(p);
    let result = c.run().map(|s| s.cycles);
    let mut regs = Vec::new();
    for h in 0..cores {
        regs.extend((0..32).map(|r| u64::from(c.int_reg_of(h, IntReg::new(r)))));
        regs.extend((0..32).map(|r| c.fp_reg_of(h, FpReg::new(r))));
    }
    let tcdm = (0..2048).map(|i| c.mem().read(TCDM_BASE + i * 8, 8).expect("tcdm read")).collect();
    (result, c.stats().clone(), regs, tcdm)
}

/// The run loop is instantiated bare (no tracer or profiler attached: no
/// hook code) and hooked (either attached). Both must compute the same run:
/// identical stats, registers and memory on the random population at 1, 2
/// and 4 harts, and deadlocks and timeouts reported at the same cycle and
/// pc — on the burst and on the stepper alike.
#[test]
fn bare_and_hooked_instantiations_agree() {
    let hooks: [(&str, Hook); 3] = [
        ("traced", |c| c.attach_tracer(Tracer::new())),
        ("profiled", |c| c.attach_profiler(Profiler::new())),
        ("traced and profiled", |c| {
            c.attach_tracer(Tracer::new());
            c.attach_profiler(Profiler::new());
        }),
    ];
    let max = ClusterConfig::default().max_cycles;
    let mut cases = Vec::new();
    let mut rng = Rng(0xb10c_cafe_f00d_0009);
    for case in 0..18 {
        let cores = [1, 2, 4][case % 3];
        let frags = 3 + rng.below(5) as usize;
        cases.push((
            format!("random case {case}"),
            cores,
            random_program(&mut rng, cores, frags),
            max,
        ));
    }
    // An armed SSR stream nobody consumes: re-arming it stalls forever. On
    // two harts, hart 0 waits at the barrier meanwhile.
    let mut b = ProgramBuilder::new();
    b.parallel();
    b.csrr_mhartid(IntReg::A1);
    b.bnez(IntReg::A1, "stuck");
    b.barrier();
    b.ecall();
    b.label("stuck");
    b.li(IntReg::A0, 3);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Bound(0));
    b.li_u(IntReg::A0, TCDM_BASE);
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // arms
    b.scfgwi(IntReg::A0, 0, SsrCfgWord::Base); // stalls forever
    b.ecall();
    cases.push(("barrier deadlock".into(), 2, b.build().unwrap(), max));
    // The FPU waits forever on an SSR read stream that was never armed, and
    // the core waits behind it at the FPU fence. No beat ever moves, so the
    // deadlock is counted from the last issue.
    let mut b = ProgramBuilder::new();
    b.li(IntReg::A0, 5);
    b.ssr_enable();
    b.fadd_d(FpReg::FS0, FpReg::FT0, FpReg::FS1);
    b.fpu_fence();
    b.ecall();
    cases.push(("fence deadlock".into(), 1, b.build().unwrap(), max));
    let mut b = ProgramBuilder::new();
    b.parallel();
    b.li(IntReg::A0, 1_000_000);
    b.label("spin");
    b.addi(IntReg::A0, IntReg::A0, -1);
    b.bnez(IntReg::A0, "spin");
    b.ecall();
    let spin = b.build().unwrap();
    cases.push(("1-hart timeout".into(), 1, spin.clone(), 1001));
    cases.push(("4-hart timeout".into(), 4, spin, 1003));

    for (name, cores, p, max_cycles) in &cases {
        for burst in [true, false] {
            let bare = run_hooked(p, *cores, *max_cycles, burst, |_| {});
            let expected = match &bare.0 {
                Ok(_) => name.starts_with("random"),
                Err(RunError::Deadlock { .. }) => name.ends_with("deadlock"),
                Err(RunError::Timeout { .. }) => name.ends_with("timeout"),
                Err(_) => false,
            };
            assert!(expected, "{name}: unexpected outcome {:?}", bare.0);
            for (hook_name, hook) in hooks {
                let hooked = run_hooked(p, *cores, *max_cycles, burst, hook);
                assert!(
                    hooked == bare,
                    "{name}, {hook_name}, burst {burst}: bare and hooked diverge"
                );
            }
        }
    }
}

/// Everything a tiled-GEMM system run leaves behind, hart by hart: each
/// hart's counters, integer and FP registers, then every cluster's TCDM,
/// trace events and profile, and the shared L2 result matrix.
#[derive(Debug, PartialEq)]
struct SystemObservation {
    hart_stats: Vec<Stats>,
    int_regs: Vec<u32>,
    fp_regs: Vec<u64>,
    tcdm: Vec<u64>,
    events: Vec<TraceEvent>,
    profiles: Vec<Option<Profiler>>,
    c_matrix: Vec<u64>,
}

fn observe_gemm(
    variant: Variant,
    n: usize,
    cores: usize,
    clusters: usize,
    burst: bool,
    instrumented: bool,
) -> SystemObservation {
    let program = Kernel::GemmTiled.build_grid(variant, n, 0, cores, clusters);
    let cluster = ClusterConfig {
        cores,
        trace: instrumented,
        profile: instrumented,
        ..ClusterConfig::default()
    };
    let mut sys = System::new(SystemConfig { cluster, clusters });
    sys.set_block_compile(burst);
    sys.load_program(&program);
    sys.run().expect("gemm_tiled completes");
    let mut obs = SystemObservation {
        hart_stats: Vec::new(),
        int_regs: Vec::new(),
        fp_regs: Vec::new(),
        tcdm: Vec::new(),
        events: Vec::new(),
        profiles: Vec::new(),
        c_matrix: Vec::new(),
    };
    for k in 0..clusters {
        let c = sys.cluster(k);
        if burst {
            assert_eq!(c.block_replayed_cycles(), c.stats().cycles, "cluster {k}: burst cycles");
        }
        obs.events.extend_from_slice(c.trace_events().unwrap_or_default());
        obs.profiles.push(c.profile().cloned());
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
/// TCDM contention across all harts), in one and two clusters, plain and
/// traced and profiled: per-hart counters, registers, memory and every
/// cluster's event stream and profile identical on the burst and on the
/// stepper.
#[test]
fn gemm_tiled_multi_core_matches_force_stepped_reference() {
    for variant in Variant::all() {
        for (clusters, instrumented) in [(1, false), (2, false), (1, true), (2, true)] {
            let shape = format!("{variant:?} x{clusters} instrumented {instrumented}");
            let fast = observe_gemm(variant, 32, 8, clusters, true, instrumented);
            let reference = observe_gemm(variant, 32, 8, clusters, false, instrumented);
            assert_eq!(fast.hart_stats, reference.hart_stats, "{shape}: stats");
            assert_eq!(fast.int_regs, reference.int_regs, "{shape}: int regs");
            assert_eq!(fast.fp_regs, reference.fp_regs, "{shape}: fp regs");
            assert!(fast.tcdm == reference.tcdm, "{shape}: TCDM diverges");
            assert_eq!(fast.events.is_empty(), !instrumented, "{shape}");
            assert!(fast.events == reference.events, "{shape}: event streams diverge");
            assert!(fast.profiles.iter().all(|p| p.is_some() == instrumented), "{shape}");
            assert!(fast.profiles == reference.profiles, "{shape}: profiles diverge");
            assert_eq!(fast.c_matrix, reference.c_matrix, "{shape}: C matrix");
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
        assert_eq!(full_on.block_replayed_cycles(), full_on.stats().cycles, "case {case}");
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
        assert_eq!(c.block_replayed_cycles(), stats.cycles, "the burst runs the traced run");
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
