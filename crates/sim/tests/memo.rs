//! The steady-state memo against its oracles: a one-hart run of the bare
//! block burst (which memoizes) must equal the hooked burst and the
//! reference stepper (which never do) on counters, registers, memory and
//! error cycles — on the paper kernels, whose loops the memo replays, and
//! on the generator's loop-heavy programs, whose data-dependent exits make
//! replays fail validation and fall back.

use snitch_asm::builder::ProgramBuilder;
use snitch_asm::layout::TCDM_BASE;
use snitch_asm::program::Program;
use snitch_kernels::registry::{Kernel, Variant};
use snitch_profile::Profiler;
use snitch_riscv::reg::{FpReg, IntReg};
use snitch_sim::cluster::Cluster;
use snitch_sim::config::ClusterConfig;
use snitch_sim::error::RunError;
use snitch_sim::stats::Stats;
use snitch_sim::testing::{loop_program, Rng};

/// How a run is driven.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// The bare burst: memoized.
    Bare,
    /// The hooked burst (a profiler attached): never memoized.
    Hooked,
    /// The reference stepper.
    Stepped,
}

/// Everything compared after a run, plus the memo counters.
#[derive(Debug)]
struct Run {
    result: Result<Stats, RunError>,
    int_regs: Vec<u32>,
    fp_regs: Vec<u64>,
    tcdm: Vec<u64>,
    hits: u64,
    fallbacks: u64,
}

impl Run {
    /// The part the three modes must agree on.
    fn state(&self) -> (&Result<Stats, RunError>, &[u32], &[u64], &[u64]) {
        (&self.result, &self.int_regs, &self.fp_regs, &self.tcdm)
    }
}

fn run(program: &Program, cfg: ClusterConfig, mode: Mode, tcdm_words: u32) -> Run {
    let mut c = Cluster::new(cfg);
    match mode {
        Mode::Bare => {}
        Mode::Hooked => c.attach_profiler(Profiler::new()),
        Mode::Stepped => c.set_block_compile(false),
    }
    c.load_program(program);
    let result = c.run();
    Run {
        result,
        int_regs: (0..32).map(|r| c.int_reg(IntReg::new(r))).collect(),
        fp_regs: (0..32).map(|r| c.fp_reg(FpReg::new(r))).collect(),
        tcdm: (0..tcdm_words).map(|i| c.mem().read(TCDM_BASE + 8 * i, 8).unwrap()).collect(),
        hits: c.memo_hits(),
        fallbacks: c.memo_fallbacks(),
    }
}

/// Runs `program` in all three modes, asserts they agree and that only the
/// bare burst memoized; returns the bare run's memo counters.
fn agree(program: &Program, cfg: &ClusterConfig, what: &str, tcdm_words: u32) -> (u64, u64) {
    let bare = run(program, cfg.clone(), Mode::Bare, tcdm_words);
    for mode in [Mode::Hooked, Mode::Stepped] {
        let other = run(program, cfg.clone(), mode, tcdm_words);
        assert!(bare.state() == other.state(), "{what}: bare burst vs {mode:?} disagree");
        assert_eq!((other.hits, other.fallbacks), (0, 0), "{what}: {mode:?} must not memoize");
    }
    (bare.hits, bare.fallbacks)
}

#[test]
fn paper_kernels_memoize_and_match_the_oracles() {
    for kernel in Kernel::paper() {
        for variant in Variant::all() {
            let (n, block) = kernel.smoke_point();
            let program = kernel.build(variant, n, block);
            let what = format!("{} {}", kernel.name(), variant.name());
            let (hits, _) = agree(&program, &ClusterConfig::default(), &what, 4096);
            // The `exp` COPIFT threads drift against each other, so its
            // states rarely repeat at this size and the memo backs off.
            if (kernel.name(), variant) != ("exp", Variant::Copift) {
                assert!(hits > 0, "{what}: the steady loop must replay");
            }
        }
    }
}

#[test]
fn loop_programs_hit_and_fall_back_and_match_the_oracles() {
    let (mut hits, mut fallbacks) = (0, 0);
    for seed in 1..=12u64 {
        let program = loop_program(&mut Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)), 4);
        let (h, f) = agree(&program, &ClusterConfig::default(), &format!("seed {seed}"), 2048);
        hits += h;
        fallbacks += f;
    }
    assert!(hits > 0, "loop programs must replay windows");
    assert!(fallbacks > 0, "data-dependent exits must fail validation");
}

#[test]
fn memo_run_reports_a_fault_at_the_oracle_cycle() {
    // A store loop striding out of the TCDM: replayed windows first, then
    // a window whose stores leave the TCDM, which falls back and faults.
    let mut b = ProgramBuilder::new();
    b.li_u(IntReg::A0, TCDM_BASE);
    b.li(IntReg::A1, 400);
    b.label("top");
    b.sw(IntReg::A1, IntReg::A0, 0);
    b.addi(IntReg::A2, IntReg::A2, 3);
    b.addi(IntReg::A0, IntReg::A0, 512);
    b.addi(IntReg::A1, IntReg::A1, -1);
    b.bnez(IntReg::A1, "top");
    b.ecall();
    let program = b.build().unwrap();
    let bare = run(&program, ClusterConfig::default(), Mode::Bare, 64);
    let stepped = run(&program, ClusterConfig::default(), Mode::Stepped, 64);
    assert!(matches!(bare.result, Err(RunError::Fault(_))), "{:?}", bare.result);
    assert_eq!(bare.state(), stepped.state());
    assert!(bare.hits > 0, "the loop replays before it faults");
}

#[test]
fn memo_run_reports_timeouts_at_the_oracle_cycle() {
    let program = loop_program(&mut Rng(0xD1B5_4A32_D192_ED03), 4);
    let full = run(&program, ClusterConfig::default(), Mode::Stepped, 0);
    let cycles = full.result.expect("completes").cycles;
    for max_cycles in [cycles / 3, cycles / 2 + 7, cycles - 1] {
        let cfg = ClusterConfig { max_cycles, ..ClusterConfig::default() };
        let bare = run(&program, cfg.clone(), Mode::Bare, 0);
        let stepped = run(&program, cfg, Mode::Stepped, 0);
        assert!(matches!(bare.result, Err(RunError::Timeout { .. })), "{:?}", bare.result);
        assert_eq!(bare.state(), stepped.state(), "timeout at {max_cycles}");
    }
}
