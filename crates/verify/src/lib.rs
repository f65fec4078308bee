//! Static verification of compiled Snitch programs.
//!
//! [`verify`] takes a loaded [`Program`] plus the [`SystemConfig`] it will
//! run under (cluster shape and cluster count; a single-cluster
//! [`ClusterConfig`](snitch_sim::config::ClusterConfig) converts with
//! `SystemConfig::from`), reconstructs the per-hart control-flow
//! graph from the decoded text section, runs a forward abstract
//! interpretation (constant propagation, register-initialization masks, SSR
//! stream states, barrier counts — see [`interp`]), and evaluates a catalog
//! of checks over the converged states. The result is a list of structured,
//! severity-ranked [`Diagnostic`]s.
//!
//! The severity contract is calibrated against the simulator (and the
//! hardware it models):
//!
//! * [`Severity::Error`] — the program will fault, deadlock or is
//!   hardware-illegal (an FREP body the sequencer cannot replay, a read from
//!   an unarmed SSR stream, a store to an unmapped address, a barrier-count
//!   mismatch across harts). Error-free is what "verifies clean" means.
//! * [`Severity::Warning`] — well-defined under the simulator's semantics
//!   but fragile or wasteful (reads relying on the boot-time zeroed register
//!   files, streams left armed at exit, misaligned TCDM accesses that split
//!   bank lines).
//!
//! Checks, one module each under [`checks`]: FREP legality, SSR discipline,
//! definite initialization, statically-resolvable memory bounds, and barrier
//! consistency. For SPMD ([`Program::parallel`]) programs the dataflow runs
//! once per hart with `mhartid` bound to that hart's constant, so per-hart
//! addresses and branch decisions resolve exactly; diagnostics common to all
//! harts are collapsed to `hart: None`.

#![forbid(unsafe_code)]

use snitch_asm::program::Program;
use snitch_sim::config::SystemConfig;

pub mod cfg;
pub mod checks;
pub mod interp;

/// Which check produced a diagnostic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CheckId {
    /// FREP body shape: length vs the sequencer depth, non-FP or
    /// integer-RF-touching instructions in the body, branches into a body.
    FrepLegality,
    /// SSR stream discipline: `ft0..ft2` access vs enable/arm state,
    /// over-/under-consumed streams, reconfiguration of busy streams.
    SsrDiscipline,
    /// Reads of registers never written on some path from entry.
    DefiniteInit,
    /// Statically-resolved data accesses and DMA descriptors vs the memory
    /// map.
    MemBounds,
    /// Barrier-count agreement across the harts of an SPMD program.
    BarrierConsistency,
}

impl CheckId {
    /// Every check, in report order.
    #[must_use]
    pub const fn all() -> [CheckId; 5] {
        [
            CheckId::FrepLegality,
            CheckId::SsrDiscipline,
            CheckId::DefiniteInit,
            CheckId::MemBounds,
            CheckId::BarrierConsistency,
        ]
    }

    /// Stable kebab-case name (report rows, CI grep targets).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CheckId::FrepLegality => "frep-legality",
            CheckId::SsrDiscipline => "ssr-discipline",
            CheckId::DefiniteInit => "definite-init",
            CheckId::MemBounds => "mem-bounds",
            CheckId::BarrierConsistency => "barrier-consistency",
        }
    }
}

impl std::fmt::Display for CheckId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Diagnostic severity. `Error` means the program will fault, deadlock or is
/// hardware-illegal; `Warning` is a lint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Suspicious but well-defined under the simulator's semantics.
    Warning,
    /// Faults, deadlocks, or violates a hardware invariant.
    Error,
}

impl Severity {
    /// Lowercase name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding: where, what, how bad.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// The check that fired.
    pub check: CheckId,
    /// How bad it is.
    pub severity: Severity,
    /// Address of the offending instruction.
    pub addr: u32,
    /// The cluster the finding applies to; `None` when it holds on every
    /// cluster (always `None` for single-cluster systems).
    pub cluster: Option<u32>,
    /// The hart the finding applies to; `None` when it holds on every hart.
    pub hart: Option<u32>,
    /// Disassembly of the offending instruction.
    pub disasm: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}] {:#010x}", self.severity.name(), self.check, self.addr)?;
        if let Some(c) = self.cluster {
            write!(f, " cluster {c}")?;
        }
        if let Some(h) = self.hart {
            write!(f, " hart {h}")?;
        }
        write!(f, ": `{}` — {}", self.disasm, self.message)
    }
}

/// Whether any diagnostic is an [`Severity::Error`] (the "fails
/// verification" predicate).
#[must_use]
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Number of [`Severity::Error`] diagnostics.
#[must_use]
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| d.severity == Severity::Error).count()
}

/// Renders a text report: one header line, then one line per diagnostic.
#[must_use]
pub fn report(label: &str, diags: &[Diagnostic]) -> String {
    use std::fmt::Write as _;
    let errors = error_count(diags);
    let warnings = diags.len() - errors;
    let mut out = format!(
        "{label}: {}{errors} error(s), {warnings} warning(s)\n",
        if errors == 0 { "clean — " } else { "" }
    );
    for d in diags {
        let _ = writeln!(out, "  {d}");
    }
    out
}

/// Runs every check over `program` as it would execute under `config` and
/// returns the findings, deterministically ordered (errors first, then by
/// address, check, cluster, hart).
///
/// For multi-cluster systems the dataflow runs once per (cluster, hart)
/// pair with both the cluster-id CSR and `mhartid` bound to constants, so
/// cluster-role guards prune exactly like SPMD hart guards do. Findings
/// identical across every hart of a cluster collapse to `hart: None`;
/// findings identical across every cluster collapse to `cluster: None`.
#[must_use]
pub fn verify(program: &Program, config: &SystemConfig) -> Vec<Diagnostic> {
    let text = program.text();
    let graph = cfg::Cfg::build(text);
    let mut out = Vec::new();
    checks::frep::check(text, &config.cluster, &graph, &mut out);

    // One dataflow pass per (cluster, hart), with the identity CSRs bound
    // to constants, so per-hart addresses and branch decisions resolve
    // exactly. Single-core programs boot only hart 0 (of every cluster).
    let harts: Vec<u32> =
        if program.parallel() { (0..config.cluster.cores as u32).collect() } else { vec![0] };
    let clusters = config.clusters;
    let metas: std::rc::Rc<[interp::OpMeta]> = interp::OpMeta::table(text).into();
    let mut per_cluster: Vec<Vec<Diagnostic>> = Vec::with_capacity(clusters);
    for cluster in 0..clusters as u32 {
        let mut per_hart: Vec<Vec<Diagnostic>> = Vec::with_capacity(harts.len());
        let mut exits = Vec::with_capacity(harts.len());
        for &hart in &harts {
            let ctx = interp::HartCtx::new(cluster, hart);
            let flow = interp::analyze_with(text, std::rc::Rc::clone(&metas), &graph, ctx);
            let mut hd = Vec::new();
            // One fused walk drives all per-instruction checks: the walk
            // recomputes states by re-running the transfer function, so
            // sharing it costs one transfer per instruction instead of one
            // per check.
            let mut ssr = checks::ssr::Scan::new(hart);
            let mut init = checks::init::Scan::new(hart);
            flow.walk(text, |i, st, meta| {
                init.visit(text, i, st, meta, &mut hd);
                let (want_ssr, want_mem) = checks::interest(&text[i], meta);
                if want_ssr {
                    ssr.visit(text, i, st, meta, &mut hd);
                }
                if want_mem {
                    checks::mem::visit(text, i, st, hart, clusters, &mut hd);
                }
            });
            ssr.finish(text, &flow, &mut hd);
            exits.push(flow.exit);
            per_hart.push(hd);
        }
        let mut cd = collapse_common(per_hart, harts.len());
        checks::barrier::check(text, &graph, program.parallel(), &harts, &exits, &mut cd);
        for d in &mut cd {
            d.cluster = Some(cluster);
        }
        per_cluster.push(cd);
    }
    out.extend(collapse_clusters(per_cluster, clusters));

    out.sort_by(|a, b| {
        (b.severity, a.addr, a.check, a.cluster, a.hart, &a.message)
            .cmp(&(a.severity, b.addr, b.check, b.cluster, b.hart, &b.message))
    });
    out
}

/// Collapses diagnostics that fired identically on every hart into a single
/// `hart: None` finding; hart-specific findings keep their hart tag.
fn collapse_common(per_hart: Vec<Vec<Diagnostic>>, harts: usize) -> Vec<Diagnostic> {
    if harts <= 1 {
        // Single-hart analyses are reported hart-agnostically.
        let mut v: Vec<Diagnostic> = per_hart.into_iter().flatten().collect();
        for d in &mut v {
            d.hart = None;
        }
        return v;
    }
    let mut counts: std::collections::HashMap<(CheckId, Severity, u32, String), u32> =
        std::collections::HashMap::new();
    for diags in &per_hart {
        for d in diags {
            *counts.entry((d.check, d.severity, d.addr, d.message.clone())).or_insert(0) += 1;
        }
    }
    let mut out = Vec::new();
    let mut emitted: std::collections::HashSet<(CheckId, Severity, u32, String)> =
        std::collections::HashSet::new();
    for diags in per_hart {
        for mut d in diags {
            let key = (d.check, d.severity, d.addr, d.message.clone());
            if counts[&key] as usize == harts {
                if emitted.insert(key) {
                    d.hart = None;
                    out.push(d);
                }
            } else {
                out.push(d);
            }
        }
    }
    out
}

/// Collapses (already hart-collapsed) per-cluster diagnostics that fired
/// identically on every cluster into a single `cluster: None` finding;
/// cluster-specific findings keep their cluster tag. Single-cluster systems
/// report everything cluster-agnostically.
fn collapse_clusters(per_cluster: Vec<Vec<Diagnostic>>, clusters: usize) -> Vec<Diagnostic> {
    type Key = (CheckId, Severity, u32, Option<u32>, String);
    if clusters <= 1 {
        let mut v: Vec<Diagnostic> = per_cluster.into_iter().flatten().collect();
        for d in &mut v {
            d.cluster = None;
        }
        return v;
    }
    let key_of =
        |d: &Diagnostic| -> Key { (d.check, d.severity, d.addr, d.hart, d.message.clone()) };
    let mut counts: std::collections::HashMap<Key, u32> = std::collections::HashMap::new();
    for diags in &per_cluster {
        for d in diags {
            *counts.entry(key_of(d)).or_insert(0) += 1;
        }
    }
    let mut out = Vec::new();
    let mut emitted: std::collections::HashSet<Key> = std::collections::HashSet::new();
    for diags in per_cluster {
        for mut d in diags {
            let key = key_of(&d);
            if counts[&key] as usize == clusters {
                if emitted.insert(key) {
                    d.cluster = None;
                    out.push(d);
                }
            } else {
                out.push(d);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_asm::builder::ProgramBuilder;
    use snitch_riscv::reg::IntReg;
    use snitch_sim::config::ClusterConfig;

    #[test]
    fn trivial_program_is_clean() {
        let mut b = ProgramBuilder::new();
        b.li(IntReg::A0, 1);
        b.ecall();
        let p = b.build().unwrap();
        let diags = verify(&p, &SystemConfig::from(ClusterConfig::default()));
        assert!(!has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn report_renders_summary_and_lines() {
        let d = Diagnostic {
            check: CheckId::MemBounds,
            severity: Severity::Error,
            addr: 0x8000_0010,
            cluster: None,
            hart: Some(2),
            disasm: "sw a0, 0(a1)".to_string(),
            message: "store to unmapped address".to_string(),
        };
        let r = report("prog", std::slice::from_ref(&d));
        assert!(r.starts_with("prog: 1 error(s), 0 warning(s)"));
        assert!(r.contains("error[mem-bounds] 0x80000010 hart 2"));
        assert!(format!("{d}").contains("sw a0, 0(a1)"));
        assert!(has_errors(&[d]));
    }

    #[test]
    fn cluster_guarded_code_is_analyzed_per_cluster() {
        use snitch_asm::layout::tcdm_alias_base;
        // Only cluster 1 executes the faulting store (into an alias window
        // of a cluster the system does not have); the finding must come
        // back tagged with that cluster.
        let mut b = ProgramBuilder::new();
        b.csrr_cluster_id(IntReg::A0);
        b.li(IntReg::A1, 1);
        b.bne(IntReg::A0, IntReg::A1, "done");
        b.li_u(IntReg::A2, tcdm_alias_base(7));
        b.sw(IntReg::ZERO, IntReg::A2, 0);
        b.label("done");
        b.ecall();
        let p = b.build().unwrap();

        let diags = verify(&p, &SystemConfig::with_clusters(2));
        assert!(has_errors(&diags), "{diags:?}");
        let err = diags.iter().find(|d| d.severity == Severity::Error).unwrap();
        assert_eq!(err.cluster, Some(1), "{err}");
        assert!(format!("{err}").contains("cluster 1"));

        // A single-cluster system never takes the guarded path: clean.
        let diags1 = verify(&p, &SystemConfig::default());
        assert!(!has_errors(&diags1), "{diags1:?}");
    }

    #[test]
    fn findings_common_to_every_cluster_collapse() {
        let mut b = ProgramBuilder::new();
        b.li_u(IntReg::A0, 0x0300_0000);
        b.sw(IntReg::ZERO, IntReg::A0, 0);
        b.ecall();
        let p = b.build().unwrap();
        let diags = verify(&p, &SystemConfig::with_clusters(4));
        let errs: Vec<_> = diags.iter().filter(|d| d.severity == Severity::Error).collect();
        assert_eq!(errs.len(), 1, "{diags:?}");
        assert_eq!(errs[0].cluster, None);
    }

    #[test]
    fn check_ids_have_distinct_names() {
        let names: std::collections::HashSet<&str> =
            CheckId::all().iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), CheckId::all().len());
    }
}
