//! The mutant library: deliberately-broken programs, at least one per
//! check, each of which the verifier must flag with the *right* check id.
//! This is the negative half of the differential validation — the positive
//! half (verifier-clean programs run to completion) lives in
//! `differential.rs`.

use snitch_asm::builder::ProgramBuilder;
use snitch_asm::layout::{TCDM_BASE, TCDM_SIZE};
use snitch_riscv::csr::SsrCfgWord;
use snitch_riscv::reg::{FpReg, IntReg};
use snitch_sim::config::{ClusterConfig, SystemConfig};
use snitch_verify::{verify, CheckId, Severity};

/// Runs the verifier (on a 4-core cluster, so SPMD mutants analyze every
/// hart) and asserts a finding with exactly `(check, severity)` fired.
fn assert_caught(b: ProgramBuilder, check: CheckId, severity: Severity) {
    let p = b.build().unwrap();
    let config = ClusterConfig { cores: 4, ..ClusterConfig::default() };
    let diags = verify(&p, &SystemConfig::from(config));
    assert!(
        diags.iter().any(|d| d.check == check && d.severity == severity),
        "expected {severity:?} from {check:?}, got: {diags:?}"
    );
    if severity == Severity::Error {
        assert!(snitch_verify::has_errors(&diags));
    }
}

/// Arms stream `ssr` as an `n`-element read stream over fresh TCDM.
fn arm_read(b: &mut ProgramBuilder, ssr: usize, n: u32) {
    let base = b.tcdm_reserve("mutbuf", usize::try_from(n).unwrap() * 8, 8);
    b.li(IntReg::T0, 0);
    b.scfgwi(IntReg::T0, ssr, SsrCfgWord::Status);
    b.scfgwi(IntReg::T0, ssr, SsrCfgWord::Repeat);
    b.li(IntReg::T1, i32::try_from(n).unwrap() - 1);
    b.scfgwi(IntReg::T1, ssr, SsrCfgWord::Bound(0));
    b.li_u(IntReg::T2, base);
    b.scfgwi(IntReg::T2, ssr, SsrCfgWord::Base);
}

// ----------------------------------------------------------- frep-legality

#[test]
fn mutant_frep_body_exceeds_sequencer_depth() {
    let mut b = ProgramBuilder::new();
    b.li(IntReg::T0, 3);
    b.frep_o(IntReg::T0, 200, 0, 0); // depth is 128
    for _ in 0..200 {
        b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FS1);
    }
    b.ecall();
    assert_caught(b, CheckId::FrepLegality, Severity::Error);
}

#[test]
fn mutant_integer_op_inside_frep_body() {
    let mut b = ProgramBuilder::new();
    b.li(IntReg::T0, 3);
    b.frep_o(IntReg::T0, 2, 0, 0);
    b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FS1);
    b.addi(IntReg::A0, IntReg::A0, 1); // int core op in the FP body
    b.ecall();
    assert_caught(b, CheckId::FrepLegality, Severity::Error);
}

#[test]
fn mutant_frep_body_runs_past_text_end() {
    let mut b = ProgramBuilder::new();
    b.li(IntReg::T0, 1);
    b.frep_o(IntReg::T0, 8, 0, 0); // claims 8 body insts, only 1 follows
    b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FS1);
    assert_caught(b, CheckId::FrepLegality, Severity::Error);
}

#[test]
fn mutant_branch_into_frep_body() {
    let mut b = ProgramBuilder::new();
    let flag = b.tcdm_u32("flag", &[0]);
    b.li(IntReg::T0, 1);
    b.li_u(IntReg::T1, flag);
    b.lw(IntReg::T1, IntReg::T1, 0); // data-dependent: both paths live
    b.bnez(IntReg::T1, "inside");
    b.frep_o(IntReg::T0, 2, 0, 0);
    b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FS1);
    b.label("inside");
    b.fmul_d(FpReg::FS2, FpReg::FS2, FpReg::FS1); // 2nd body inst, jumped into
    b.ecall();
    assert_caught(b, CheckId::FrepLegality, Severity::Error);
}

// ---------------------------------------------------------- ssr-discipline

#[test]
fn mutant_read_of_unarmed_stream() {
    let mut b = ProgramBuilder::new();
    b.ssr_enable();
    b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FT0); // ft0 never armed
    b.ssr_disable();
    b.ecall();
    assert_caught(b, CheckId::SsrDiscipline, Severity::Error);
}

#[test]
fn mutant_write_to_read_mode_stream() {
    let mut b = ProgramBuilder::new();
    arm_read(&mut b, 1, 4);
    b.ssr_enable();
    b.fadd_d(FpReg::FT1, FpReg::FS0, FpReg::FS1); // writes the read stream
    b.ssr_disable();
    b.ecall();
    assert_caught(b, CheckId::SsrDiscipline, Severity::Error);
}

#[test]
fn mutant_reads_past_the_configured_bound() {
    let mut b = ProgramBuilder::new();
    arm_read(&mut b, 0, 2); // 2 elements armed...
    b.ssr_enable();
    b.li(IntReg::T3, 3);
    b.frep_o(IntReg::T3, 1, 0, 0); // ...4 pops issued
    b.fadd_d(FpReg::FS0, FpReg::FS0, FpReg::FT0);
    b.fpu_fence();
    b.ssr_disable();
    b.ecall();
    assert_caught(b, CheckId::SsrDiscipline, Severity::Error);
}

#[test]
fn mutant_stream_armed_but_never_used() {
    let mut b = ProgramBuilder::new();
    arm_read(&mut b, 2, 4);
    b.ecall();
    assert_caught(b, CheckId::SsrDiscipline, Severity::Warning);
}

// ----------------------------------------------------------- definite-init

#[test]
fn mutant_read_of_never_written_register() {
    let mut b = ProgramBuilder::new();
    b.fadd_d(FpReg::FS0, FpReg::FA3, FpReg::FA3); // fa3 never initialized
    b.ecall();
    assert_caught(b, CheckId::DefiniteInit, Severity::Warning);
}

// -------------------------------------------------------------- mem-bounds

#[test]
fn mutant_store_to_unmapped_address() {
    let mut b = ProgramBuilder::new();
    b.li_u(IntReg::A0, TCDM_BASE + TCDM_SIZE + 64); // past the TCDM end
    b.sw(IntReg::A1, IntReg::A0, 0);
    b.ecall();
    assert_caught(b, CheckId::MemBounds, Severity::Error);
}

#[test]
fn mutant_dma_to_unmapped_destination() {
    let mut b = ProgramBuilder::new();
    let buf = b.tcdm_f64("src", &[0.0; 8]);
    b.li_u(IntReg::A0, buf);
    b.dmsrc(IntReg::A0);
    b.li_u(IntReg::A1, 0x0300_0000); // hole below TCDM
    b.dmdst(IntReg::A1);
    b.li(IntReg::A2, 64);
    b.dmcpyi(IntReg::A3, IntReg::A2);
    b.ecall();
    assert_caught(b, CheckId::MemBounds, Severity::Error);
}

// ----------------------------------------------------- barrier-consistency

#[test]
fn mutant_hart_guarded_barrier() {
    let mut b = ProgramBuilder::new();
    b.parallel();
    b.csrr_mhartid(IntReg::A0);
    b.bnez(IntReg::A0, "skip"); // only hart 0 reaches the barrier
    b.barrier();
    b.label("skip");
    b.ecall();
    assert_caught(b, CheckId::BarrierConsistency, Severity::Error);
}

#[test]
fn mutant_library_covers_every_check() {
    // Meta-test: the cases above span all five check ids (and this file
    // holds the promised ≥10 mutants — one test per mutant).
    let covered = [
        CheckId::FrepLegality,
        CheckId::SsrDiscipline,
        CheckId::DefiniteInit,
        CheckId::MemBounds,
        CheckId::BarrierConsistency,
    ];
    assert_eq!(covered.len(), CheckId::all().len());
}
