//! Shared differential-testing harness (the `testing` feature).
//!
//! The seeded random multi-core program generator and the state-capture
//! helper used by the burst-vs-reference-stepper suite
//! (`tests/block_compile.rs`), and the hooks that run a multi-cluster
//! [`System`] in cluster-id order for `tests/system_order.rs`. The same
//! feature compiles the reference stepper itself
//! ([`Cluster::set_block_compile`]), the oracle those suites compare the
//! block burst against. One generator instead of per-suite copies: a
//! fragment kind added here is exercised against every run loop.
//!
//! Deterministic by construction (seeded xorshift, no external
//! property-testing dependency, as everywhere in the repo); not part
//! of the simulator API and compiled only with the `testing` feature.

use snitch_asm::builder::ProgramBuilder;
use snitch_asm::layout::{MAIN_BASE, TCDM_BASE};
use snitch_asm::program::Program;
use snitch_riscv::csr::SsrCfgWord;
use snitch_riscv::reg::{FpReg, IntReg};

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::error::RunError;
use crate::stats::Stats;
use crate::system::System;

/// Small xorshift PRNG for deterministic program generation.
pub struct Rng(pub u64);

impl Rng {
    /// The next raw 64-bit value. Not an `Iterator`: the stream is
    /// infinite and only ever consumed through the helpers below.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Emits one random program fragment; `tag` uniquifies labels.
fn fragment(b: &mut ProgramBuilder, rng: &mut Rng, tag: usize, parallel: bool) {
    match rng.below(7) {
        // Integer loop with a data-dependent tail (taken branches produce
        // the silent refill windows the burst jumps over).
        0 => {
            let iters = 2 + rng.below(6) as i32;
            b.li(IntReg::A1, iters);
            b.label(&format!("int{tag}"));
            b.addi(IntReg::T3, IntReg::T3, 3);
            b.mul(IntReg::T4, IntReg::T3, IntReg::A1);
            b.addi(IntReg::A1, IntReg::A1, -1);
            b.bnez(IntReg::A1, &format!("int{tag}"));
        }
        // FP block, sometimes fenced (unfenced blocks leave in-flight work
        // for the post-run drain loop to retire).
        1 => {
            b.li(IntReg::A2, 7 + tag as i32);
            b.fcvt_d_w(FpReg::FA1, IntReg::A2);
            b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FA1);
            b.fmul_d(FpReg::FS1, FpReg::FA1, FpReg::FA1);
            if rng.below(2) == 0 {
                b.fpu_fence();
            }
        }
        // FREP body replayed by the sequencer.
        2 => {
            b.li(IntReg::A2, 3 + tag as i32);
            b.fcvt_d_w(FpReg::FA2, IntReg::A2);
            b.li(IntReg::T0, rng.below(6) as i32 + 1);
            b.frep_o(IntReg::T0, 2, 0, 0);
            b.fadd_d(FpReg::FS2, FpReg::FS2, FpReg::FA2);
            b.fmadd_d(FpReg::FS3, FpReg::FA2, FpReg::FA2, FpReg::FS3);
            if rng.below(2) == 0 {
                b.fpu_fence();
            }
        }
        // SSR read stream summed through an FREP body.
        3 => {
            let n = 2 + rng.below(4) as u32; // elements
            let data: Vec<f64> = (0..n).map(|i| f64::from(i + tag as u32) * 0.5).collect();
            let xs = b.tcdm_f64(&format!("xs{tag}"), &data);
            b.li(IntReg::T1, 0);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Status);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Repeat);
            b.li(IntReg::T1, n as i32 - 1);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Bound(0));
            b.li(IntReg::T1, 8);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Stride(0));
            b.li_u(IntReg::T1, xs);
            b.scfgwi(IntReg::T1, 0, SsrCfgWord::Base);
            b.ssr_enable();
            b.li(IntReg::T0, n as i32 - 1);
            b.frep_o(IntReg::T0, 1, 0, 0);
            b.fadd_d(FpReg::FS4, FpReg::FS4, FpReg::FT0);
            b.fpu_fence();
            b.ssr_disable();
        }
        // DMA copy main→TCDM with a busy-wait loop; sometimes unaligned so
        // beats split at bank-line boundaries.
        4 => {
            let unaligned = rng.below(2) == 0;
            let dst = b.tcdm_reserve(&format!("dma{tag}"), 64, 8);
            b.li_u(IntReg::A3, MAIN_BASE + 128 * tag as u32);
            b.li(IntReg::A4, 0x55 + tag as i32);
            b.sw(IntReg::A4, IntReg::A3, 0);
            b.sw(IntReg::A4, IntReg::A3, 16);
            b.dmsrc(IntReg::A3);
            b.li_u(IntReg::A4, if unaligned { dst + 4 } else { dst });
            b.dmdst(IntReg::A4);
            b.li(IntReg::A5, 24);
            b.dmcpyi(IntReg::A6, IntReg::A5);
            b.label(&format!("dw{tag}"));
            b.dmstati(IntReg::A7);
            b.bnez(IntReg::A7, &format!("dw{tag}"));
        }
        // Per-hart store (hart-offset slot so SPMD runs stay racefree).
        5 => {
            let slots = b.tcdm_reserve(&format!("sl{tag}"), 32 * 4, 4);
            b.csrr_mhartid(IntReg::A1);
            b.slli(IntReg::A2, IntReg::A1, 2);
            b.li_u(IntReg::A3, slots);
            b.add(IntReg::A2, IntReg::A2, IntReg::A3);
            b.addi(IntReg::A4, IntReg::A1, 11 + tag as i32);
            b.sw(IntReg::A4, IntReg::A2, 0);
            b.lw(IntReg::A5, IntReg::A2, 0);
            b.add(IntReg::T5, IntReg::T5, IntReg::A5);
        }
        // Barrier (SPMD only; every hart passes through the same sequence).
        _ if parallel => {
            b.barrier();
        }
        // A long counted loop (one hart only: its data is not per hart).
        _ => loop_fragment(b, rng, tag),
    }
}

/// A counted loop of 64–512 iterations of the kind the steady-state memo
/// replays: integer ALU and multiply work, TCDM loads and stores whose
/// banks rotate at two different rates, an FP load feeding an FP→int
/// compare whose result may exit the loop early at a data-dependent
/// iteration, all behind an SSR-fed FREP body that overlaps the loop's
/// start. Single-hart only.
fn loop_fragment(b: &mut ProgramBuilder, rng: &mut Rng, tag: usize) {
    let n = 64 + rng.below(449) as usize;
    // Past `n`: no early exit.
    let exit_at = rng.below(2 * n as u64) as usize;
    let xs: Vec<f64> =
        (0..n).map(|i| if i == exit_at { 1e6 } else { (i % 7) as f64 * 0.5 }).collect();
    let xs = b.tcdm_f64(&format!("lx{tag}"), &xs);
    let ys = b.tcdm_reserve(&format!("ly{tag}"), 16 * n, 8);
    b.li(IntReg::T1, 0);
    b.scfgwi(IntReg::T1, 0, SsrCfgWord::Status);
    b.scfgwi(IntReg::T1, 0, SsrCfgWord::Repeat);
    b.li(IntReg::T1, n as i32 - 1);
    b.scfgwi(IntReg::T1, 0, SsrCfgWord::Bound(0));
    b.li(IntReg::T1, 8);
    b.scfgwi(IntReg::T1, 0, SsrCfgWord::Stride(0));
    b.li_u(IntReg::T1, xs);
    b.scfgwi(IntReg::T1, 0, SsrCfgWord::Base);
    b.ssr_enable();
    b.li(IntReg::T0, n as i32 - 1);
    b.frep_o(IntReg::T0, 1, 0, 0);
    b.fadd_d(FpReg::FS5, FpReg::FS5, FpReg::FT0);
    b.li(IntReg::A2, 1000);
    b.fcvt_d_w(FpReg::FA2, IntReg::A2);
    b.li_u(IntReg::A0, xs);
    b.li_u(IntReg::A3, ys);
    b.li(IntReg::A1, n as i32);
    let (top, exit) = (format!("lp{tag}"), format!("lq{tag}"));
    b.label(&top);
    b.fld(FpReg::FA1, IntReg::A0, 0);
    b.flt_d(IntReg::A4, FpReg::FA2, FpReg::FA1);
    b.lw(IntReg::T1, IntReg::A3, 0);
    b.add(IntReg::T2, IntReg::T2, IntReg::T1);
    b.mul(IntReg::T3, IntReg::T2, IntReg::A1);
    b.sw(IntReg::T3, IntReg::A3, 0);
    b.addi(IntReg::A0, IntReg::A0, 8);
    b.addi(IntReg::A3, IntReg::A3, 16);
    b.addi(IntReg::A1, IntReg::A1, -1);
    b.bnez(IntReg::A4, &exit);
    b.bnez(IntReg::A1, &top);
    b.label(&exit);
    b.fpu_fence();
    b.ssr_disable();
}

/// Builds a random program of `frags` fragments mixing integer loops, FP and
/// FREP bodies, SSR streams, DMA copies with wait loops and, for SPMD
/// shapes, barriers or, for one hart, long loops with data-dependent exits.
pub fn random_program(rng: &mut Rng, cores: usize, frags: usize) -> Program {
    let mut b = ProgramBuilder::new();
    if cores > 1 {
        b.parallel();
    }
    for tag in 0..frags {
        fragment(&mut b, rng, tag, cores > 1);
    }
    if cores > 1 {
        b.barrier();
    }
    b.ecall();
    b.build().expect("generated program assembles")
}

/// Builds a one-hart program of `frags` loop fragments (see
/// [`random_program`]), each long enough for the steady-state memo to
/// replay and most with a data-dependent early exit that fails a replay.
pub fn loop_program(rng: &mut Rng, frags: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for tag in 0..frags {
        loop_fragment(&mut b, rng, tag);
    }
    b.ecall();
    b.build().expect("generated program assembles")
}

/// Everything a differential suite compares bit-for-bit after a run.
#[derive(Debug, PartialEq)]
pub struct Observation {
    /// The cluster statistics rollup (includes the final cycle count).
    pub stats: Stats,
    /// All 32 FP registers of every hart, raw bits, hart-major.
    pub fp_regs: Vec<u64>,
    /// The first 16 KiB of the TCDM as 64-bit words (the generator allocates
    /// all data there).
    pub tcdm: Vec<u64>,
}

/// Runs `program` on a fresh `cores`-core cluster — `configure` picks the
/// execution mode (burst or reference stepper, tracers) before the program loads —
/// and captures the architectural state a differential suite compares.
///
/// # Panics
///
/// Panics if the program does not run to completion.
pub fn observe_with(
    program: &Program,
    cores: usize,
    configure: impl FnOnce(&mut Cluster),
) -> Observation {
    let cfg = ClusterConfig { cores, ..ClusterConfig::default() };
    let mut c = Cluster::new(cfg);
    configure(&mut c);
    c.load_program(program);
    let stats = c.run().expect("random program completes");
    let mut fp_regs = Vec::new();
    for h in 0..cores {
        for r in 0..32u8 {
            fp_regs.push(c.fp_reg_of(h, FpReg::new(r)));
        }
    }
    let tcdm: Vec<u64> =
        (0..2048).map(|i| c.mem().read(TCDM_BASE + i * 8, 8).expect("tcdm read")).collect();
    Observation { stats, fp_regs, tcdm }
}

/// Runs `system` with its clusters one after another in cluster-id order:
/// the reference a concurrent [`System::run`] must equal.
///
/// # Errors
///
/// As [`System::run`].
pub fn run_in_cluster_order(system: &mut System) -> Result<Stats, RunError> {
    system.program = None;
    system.run()
}

/// Whether the last [`System::run`] re-ran clusters `1..` in cluster-id
/// order because its concurrent run could not be shown equal to it.
#[must_use]
pub fn took_rerun(system: &System) -> bool {
    system.reran
}
