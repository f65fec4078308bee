//! Step 1: data-flow-graph construction and dependency classification.
//!
//! Builds the DFG of a straight-line loop body (one iteration of the kernel,
//! like Figure 1b/1c of the paper) and classifies every dependency between
//! the integer and floating-point *threads*:
//!
//! * **Type 1** — dynamic memory dependencies, from FP load/stores whose
//!   address is computed inside the body. A sub-class, *affine* Type 1, is
//!   recognised when the address is only advanced by constant pointer bumps
//!   (`addi p, p, c`): those streams can be absorbed by an SSR address
//!   generator outright.
//! * **Type 2** — static memory dependencies, from FP load/stores whose
//!   address is a loop-invariant base plus constant offset (spill buffers).
//! * **Type 3** — register dependencies through FP conversion, move and
//!   comparison instructions that touch both register files.
//!
//! Memory disambiguation uses symbolic bases: two accesses may alias only if
//! they are rooted at the same live-in base register (distinct kernel
//! pointers are assumed not to alias, as with C `restrict` arguments).

use std::collections::HashMap;

use snitch_asm::builder::ProgramBuilder;
use snitch_riscv::inst::Inst;
use snitch_riscv::meta::RegRef;
use snitch_riscv::ops::AluImmOp;
use snitch_riscv::reg::{FpReg, IntReg};

/// Which thread (register file + instruction set) a node belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Domain {
    /// Integer thread (RV32I/M instructions and FREP/SSR/DMA config).
    Int,
    /// Floating-point thread (instructions executed by the FPSS).
    Fp,
}

/// Cross-thread dependency classification (paper §II-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CrossDepType {
    /// Dynamic memory dependency via an FP load/store with a computed
    /// address; `affine` records whether the address evolves only by
    /// constant pointer increments.
    Type1 {
        /// Whether the address stream is an affine induction pattern.
        affine: bool,
    },
    /// Static memory dependency via an FP load/store at a loop-invariant
    /// address.
    Type2,
    /// Register dependency via a cross-register-file instruction.
    Type3,
}

/// Dependency kind on a DFG edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepKind {
    /// Value flows through a register.
    Reg(RegRef),
    /// Value flows through memory (store → load); `base` identifies the
    /// buffer object when the symbolic analysis could root the address at a
    /// live-in pointer.
    Mem {
        /// Live-in base register of the buffer, if known.
        base: Option<IntReg>,
    },
}

impl DepKind {
    /// Whether this is a memory-carried dependency.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, DepKind::Mem { .. })
    }
}

/// One DFG edge: `from` produces a value `to` consumes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DepEdge {
    /// Producer node (instruction index).
    pub from: usize,
    /// Consumer node.
    pub to: usize,
    /// What carries the value.
    pub kind: DepKind,
    /// Cross-thread classification, when the edge connects the two domains
    /// (or flows through an FP load/store).
    pub cross: Option<CrossDepType>,
}

/// The data-flow graph of one loop iteration.
#[derive(Clone, Debug)]
pub struct Dfg {
    insts: Vec<Inst>,
    domains: Vec<Domain>,
    edges: Vec<DepEdge>,
    live_in: Vec<RegRef>,
    live_out: Vec<RegRef>,
    fp_accesses: Vec<FpAccess>,
}

/// Symbolic address of a memory access: a base register (as live-in value)
/// plus constant offset, or an opaque dynamic value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SymAddr {
    /// `live-in base + constant` (the base may have been bumped by the
    /// tracked constant amount within the body).
    Static { base: IntReg, offset: i32 },
    /// `live-in base + data-dependent offset` (e.g. a table index): stays
    /// within the base's object but at an unknown offset.
    Indexed { base: IntReg },
    /// Fully computed address.
    Dynamic,
}

/// Address-pattern classification of one FP memory access, deciding how
/// Step 6 maps it to a streamer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessPattern {
    /// Affine induction stream (`x[i]`/`y[i]` with pointer bumps): paper
    /// Type 1 with an affine address stream — absorbed directly by an SSR
    /// address generator.
    InductionStream,
    /// Loop-invariant address (spill buffer): paper Type 2 — becomes a
    /// contiguous block stream after tiling.
    SpillStatic,
    /// Data-dependent address (table lookups): paper Type 1 general case —
    /// requires software prefetching (Fig. 1h) or an ISSR.
    Indirect,
}

/// One FP memory access with its mapping classification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FpAccess {
    /// Instruction index of the FP load/store.
    pub node: usize,
    /// Whether the access is a store.
    pub is_store: bool,
    /// Address-pattern classification.
    pub pattern: AccessPattern,
}

impl Dfg {
    /// Builds the DFG of `body` (one loop iteration, straight-line code).
    #[must_use]
    pub fn build(body: &[Inst]) -> Self {
        let domains: Vec<Domain> =
            body.iter().map(|i| if i.is_fp() { Domain::Fp } else { Domain::Int }).collect();

        // Track, per integer register, a symbolic value for address math:
        // either "live-in base + constant" or opaque.
        #[derive(Clone, Copy)]
        enum SymVal {
            BasePlus(IntReg, i32, bool), // base, offset, bumped-only (affine)
            BaseIndexed(IntReg),         // base + data-dependent offset
            Opaque,
        }
        let mut sym: HashMap<IntReg, SymVal> = HashMap::new();

        let mut last_def: HashMap<RegRef, usize> = HashMap::new();
        let mut live_in: Vec<RegRef> = Vec::new();
        let mut edges: Vec<DepEdge> = Vec::new();
        let mut fp_accesses: Vec<FpAccess> = Vec::new();
        // Memory accesses seen so far: (node, is_store, addr, bytes, fp-side)
        let mut mem_ops: Vec<(usize, bool, SymAddr, u32, bool)> = Vec::new();

        let addr_of = |inst: &Inst,
                       sym: &HashMap<IntReg, SymVal>|
         -> Option<(SymAddr, u32, bool)> {
            let (rs1, offset, bytes, fp) = match *inst {
                Inst::Load { op, rs1, offset, .. } => (rs1, offset, op.size(), false),
                Inst::Store { op, rs1, offset, .. } => (rs1, offset, op.size(), false),
                Inst::Flw { rs1, offset, .. } => (rs1, offset, 4, true),
                Inst::Fsw { rs1, offset, .. } => (rs1, offset, 4, true),
                Inst::Fld { rs1, offset, .. } => (rs1, offset, 8, true),
                Inst::Fsd { rs1, offset, .. } => (rs1, offset, 8, true),
                _ => return None,
            };
            let addr = match sym.get(&rs1) {
                None => SymAddr::Static { base: rs1, offset },
                Some(SymVal::BasePlus(b, c, _)) => SymAddr::Static { base: *b, offset: c + offset },
                Some(SymVal::BaseIndexed(b)) => SymAddr::Indexed { base: *b },
                Some(SymVal::Opaque) => SymAddr::Dynamic,
            };
            Some((addr, bytes, fp))
        };

        // Live-in pointers that the body itself advances (`addi p, p, c`)
        // carry induction streams.
        let bumped_bases: std::collections::HashSet<IntReg> = body
            .iter()
            .filter_map(|i| match *i {
                Inst::OpImm { op: AluImmOp::Addi, rd, rs1, imm } if rd == rs1 && imm != 0 => {
                    Some(rd)
                }
                _ => None,
            })
            .collect();

        for (i, inst) in body.iter().enumerate() {
            // Register uses → edges from last defs (or live-in).
            for u in inst.uses() {
                match last_def.get(&u) {
                    Some(&d) => {
                        let cross =
                            if domains[d] == domains[i] { None } else { Some(CrossDepType::Type3) };
                        edges.push(DepEdge { from: d, to: i, kind: DepKind::Reg(u), cross });
                    }
                    None => {
                        if !live_in.contains(&u) {
                            live_in.push(u);
                        }
                    }
                }
            }

            // Memory dependencies.
            if let Some((addr, bytes, fp)) = addr_of(inst, &sym) {
                let is_store =
                    matches!(inst, Inst::Store { .. } | Inst::Fsw { .. } | Inst::Fsd { .. });
                for &(j, j_store, j_addr, j_bytes, j_fp) in &mem_ops {
                    if !(is_store || j_store) {
                        continue; // load-load never conflicts
                    }
                    if !may_alias(addr, bytes, j_addr, j_bytes) {
                        continue;
                    }
                    let cross = if fp || j_fp {
                        let affine_of = |s: SymAddr| match s {
                            SymAddr::Static { base, .. } => {
                                if bumped_bases.contains(&base) {
                                    Some(true) // induction stream
                                } else {
                                    None // genuinely static
                                }
                            }
                            SymAddr::Indexed { .. } | SymAddr::Dynamic => Some(false),
                        };
                        let t = match (affine_of(addr), affine_of(j_addr)) {
                            (None, None) => CrossDepType::Type2,
                            (Some(false), _) | (_, Some(false)) => {
                                CrossDepType::Type1 { affine: false }
                            }
                            _ => CrossDepType::Type1 { affine: true },
                        };
                        Some(t)
                    } else {
                        None
                    };
                    let base = match addr {
                        SymAddr::Static { base, .. } | SymAddr::Indexed { base } => Some(base),
                        SymAddr::Dynamic => None,
                    };
                    edges.push(DepEdge { from: j, to: i, kind: DepKind::Mem { base }, cross });
                }
                mem_ops.push((i, is_store, addr, bytes, fp));
                if fp {
                    let pattern = match addr {
                        SymAddr::Static { base, .. } if bumped_bases.contains(&base) => {
                            AccessPattern::InductionStream
                        }
                        SymAddr::Static { .. } => AccessPattern::SpillStatic,
                        SymAddr::Indexed { .. } | SymAddr::Dynamic => AccessPattern::Indirect,
                    };
                    fp_accesses.push(FpAccess { node: i, is_store, pattern });
                }
            }

            // Update symbolic address tracking for integer defs.
            match *inst {
                Inst::OpImm { op: AluImmOp::Addi, rd, rs1, imm } => {
                    let v = match sym.get(&rs1) {
                        None => SymVal::BasePlus(rs1, imm, rd == rs1),
                        Some(SymVal::BasePlus(b, c, bumped)) => {
                            SymVal::BasePlus(*b, c + imm, *bumped && rd == rs1)
                        }
                        Some(SymVal::BaseIndexed(b)) => SymVal::BaseIndexed(*b),
                        Some(SymVal::Opaque) => SymVal::Opaque,
                    };
                    sym.insert(rd, v);
                }
                // `add rd, base, idx`: one known base object + one computed
                // offset stays within the base's object.
                Inst::OpReg { op: snitch_riscv::ops::AluOp::Add, rd, rs1, rs2 } => {
                    let base_of = |r: IntReg, sym: &HashMap<IntReg, SymVal>| match sym.get(&r) {
                        None => Some(r),
                        Some(SymVal::BasePlus(b, _, _) | SymVal::BaseIndexed(b)) => Some(*b),
                        Some(SymVal::Opaque) => None,
                    };
                    let v = match (base_of(rs1, &sym), base_of(rs2, &sym)) {
                        (Some(b), None) | (None, Some(b)) => SymVal::BaseIndexed(b),
                        _ => SymVal::Opaque,
                    };
                    sym.insert(rd, v);
                }
                _ => {
                    for d in inst.defs() {
                        if let RegRef::Int(r) = d {
                            sym.insert(r, SymVal::Opaque);
                        }
                    }
                }
            }

            // Record defs.
            for d in inst.defs() {
                last_def.insert(d, i);
            }
        }

        let live_out: Vec<RegRef> = last_def.keys().copied().collect();
        Dfg { insts: body.to_vec(), domains, edges, live_in, live_out, fp_accesses }
    }

    /// Every FP memory access with its Step 6 mapping classification.
    #[must_use]
    pub fn fp_accesses(&self) -> &[FpAccess] {
        &self.fp_accesses
    }

    /// The instructions (nodes) of the graph.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Per-node thread domain.
    #[must_use]
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// All dependency edges.
    #[must_use]
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Edges connecting the integer and FP threads (the edges COPIFT must
    /// cut or convert), including cross-thread memory flows.
    #[must_use]
    pub fn cross_edges(&self) -> Vec<DepEdge> {
        self.edges.iter().copied().filter(|e| e.cross.is_some()).collect()
    }

    /// Registers read before being written (loop-carried or parameters).
    #[must_use]
    pub fn live_in(&self) -> &[RegRef] {
        &self.live_in
    }

    /// Registers written by the body (candidates for loop-carried state).
    #[must_use]
    pub fn live_out(&self) -> &[RegRef] {
        &self.live_out
    }

    /// Registers that are both read-before-write and written: loop-carried
    /// state (accumulators, PRNG state, induction pointers).
    #[must_use]
    pub fn loop_carried(&self) -> Vec<RegRef> {
        self.live_in.iter().copied().filter(|r| self.live_out.contains(r)).collect()
    }

    /// Direct predecessors of a node.
    #[must_use]
    pub fn preds(&self, node: usize) -> Vec<usize> {
        self.edges.iter().filter(|e| e.to == node).map(|e| e.from).collect()
    }
}

fn may_alias(a: SymAddr, a_bytes: u32, b: SymAddr, b_bytes: u32) -> bool {
    match (a, b) {
        (SymAddr::Static { base: ba, offset: oa }, SymAddr::Static { base: bb, offset: ob }) => {
            // Distinct live-in bases are assumed not to alias.
            ba == bb && oa < ob + b_bytes as i32 && ob < oa + a_bytes as i32
        }
        // Base-indexed accesses stay within their base object.
        (
            SymAddr::Indexed { base: ba },
            SymAddr::Indexed { base: bb } | SymAddr::Static { base: bb, .. },
        )
        | (SymAddr::Static { base: ba, .. }, SymAddr::Indexed { base: bb }) => ba == bb,
        // A fully dynamic address may alias anything (conservative).
        (SymAddr::Dynamic, _) | (_, SymAddr::Dynamic) => true,
    }
}

/// The paper's Figure 1b expf loop body (one element, pointer bumps
/// omitted as in the paper's Step 1 discussion): the worked example that
/// [`crate::analyze`] and the experiment drivers run Steps 1–7 on.
#[must_use]
pub fn fig1b_expf_body() -> Vec<Inst> {
    let mut b = ProgramBuilder::new();
    let x = IntReg::A3; // input pointer (live-in)
    let y = IntReg::A4; // output pointer (live-in)
    let ki = IntReg::S2; // &ki spill slot (live-in)
    let t = IntReg::S3; // &t spill slot (live-in)
    let tbl = IntReg::S4; // exp2 table (live-in)
    b.fld(FpReg::FA3, x, 0); // 1
    b.fmul_d(FpReg::FA3, FpReg::FA3, FpReg::FS4); // 2  x*InvLn2N
    b.fadd_d(FpReg::FA1, FpReg::FA3, FpReg::FS5); // 3  +SHIFT
    b.fsd(FpReg::FA1, ki, 0); // 4
    b.lw(IntReg::A0, ki, 0); // 5
    b.andi(IntReg::A1, IntReg::A0, 0x1f); // 6
    b.slli(IntReg::A1, IntReg::A1, 3); // 7
    b.add(IntReg::A1, tbl, IntReg::A1); // 8
    b.lw(IntReg::A2, IntReg::A1, 0); // 9
    b.lw(IntReg::A1, IntReg::A1, 4); // 10
    b.slli(IntReg::A0, IntReg::A0, 0xf); // 11
    b.sw(IntReg::A2, t, 0); // 12
    b.add(IntReg::A0, IntReg::A0, IntReg::A1); // 13
    b.sw(IntReg::A0, t, 4); // 14
    b.fsub_d(FpReg::FA2, FpReg::FA1, FpReg::FS5); // 15
    b.fsub_d(FpReg::FA3, FpReg::FA3, FpReg::FA2); // 16
    b.fmadd_d(FpReg::FA2, FpReg::FS6, FpReg::FA3, FpReg::FS7); // 17
    b.fld(FpReg::FA0, t, 0); // 18
    b.fmadd_d(FpReg::FA4, FpReg::FS8, FpReg::FA3, FpReg::FS9); // 19
    b.fmul_d(FpReg::FA1, FpReg::FA3, FpReg::FA3); // 20
    b.fmadd_d(FpReg::FA4, FpReg::FA2, FpReg::FA1, FpReg::FA4); // 21
    b.fmul_d(FpReg::FA4, FpReg::FA4, FpReg::FA0); // 22
    b.fsd(FpReg::FA4, y, 0); // 23
    b.build().expect("the Fig. 1b body assembles").text().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_match_instruction_sets() {
        let body = fig1b_expf_body();
        let dfg = Dfg::build(&body);
        let n_fp = dfg.domains().iter().filter(|d| **d == Domain::Fp).count();
        let n_int = dfg.domains().iter().filter(|d| **d == Domain::Int).count();
        assert_eq!(n_fp, 13);
        assert_eq!(n_int, 10);
    }

    #[test]
    fn expf_cross_edges_match_paper() {
        let body = fig1b_expf_body();
        let dfg = Dfg::build(&body);
        // Paper Fig. 1c: fsd ki → lw ki (4→5), sw t → fld t (12→18, 14→18).
        // 0-based: 3→4, 11→17, 13→17, all static (Type 2).
        let mem_cross: Vec<(usize, usize)> =
            dfg.cross_edges().iter().filter(|e| e.kind.is_mem()).map(|e| (e.from, e.to)).collect();
        assert_eq!(mem_cross, vec![(3, 4), (11, 17), (13, 17)]);
        for e in dfg.cross_edges() {
            if e.kind.is_mem() {
                assert_eq!(e.cross, Some(CrossDepType::Type2));
            }
        }
    }

    #[test]
    fn type3_detected_for_conversions() {
        let mut b = ProgramBuilder::new();
        b.mul(IntReg::A0, IntReg::A1, IntReg::A2);
        b.fcvt_d_w(FpReg::FA0, IntReg::A0); // int → fp register dependency
        b.fadd_d(FpReg::FA1, FpReg::FA0, FpReg::FA0);
        b.flt_d(IntReg::A3, FpReg::FA1, FpReg::FA0); // fp → int
        b.add(IntReg::A4, IntReg::A3, IntReg::A3);
        let body = b.build().unwrap().text().to_vec();
        let dfg = Dfg::build(&body);
        let t3: Vec<(usize, usize)> = dfg
            .cross_edges()
            .iter()
            .filter(|e| e.cross == Some(CrossDepType::Type3))
            .map(|e| (e.from, e.to))
            .collect();
        assert!(t3.contains(&(0, 1)), "mul → fcvt.d.w");
        assert!(t3.contains(&(3, 4)), "flt.d → add");
    }

    #[test]
    fn type1_detected_for_computed_addresses() {
        // Scatter: FP store at a data-dependent index into a buffer, later
        // read back by the integer thread ⇒ Type 1.
        let mut b = ProgramBuilder::new();
        b.lw(IntReg::A0, IntReg::A1, 0); // load index
        b.slli(IntReg::A0, IntReg::A0, 3);
        b.add(IntReg::A0, IntReg::A2, IntReg::A0); // buf + idx*8
        b.fsd(FpReg::FA0, IntReg::A0, 0); // Type 1 store (not affine)
        b.lw(IntReg::A3, IntReg::A2, 0); // int read of the same object
        let body = b.build().unwrap().text().to_vec();
        let dfg = Dfg::build(&body);
        let t1: Vec<&DepEdge> = dfg
            .edges()
            .iter()
            .filter(|e| matches!(e.cross, Some(CrossDepType::Type1 { affine: false })))
            .collect();
        assert!(
            t1.iter().any(|e| e.from == 3 && e.to == 4),
            "indexed fp store → int load must be a Type 1 edge: {t1:?}"
        );
    }

    #[test]
    fn base_indexed_accesses_do_not_alias_other_objects() {
        // Table lookup via a computed index aliases only its own base
        // object: a store to a different live-in pointer gets no edge.
        let mut b = ProgramBuilder::new();
        b.lw(IntReg::A0, IntReg::A1, 0);
        b.slli(IntReg::A0, IntReg::A0, 3);
        b.add(IntReg::A0, IntReg::A2, IntReg::A0); // table + idx*8
        b.fld(FpReg::FA0, IntReg::A0, 0);
        b.fsd(FpReg::FA0, IntReg::A3, 0); // distinct object
        let body = b.build().unwrap().text().to_vec();
        let dfg = Dfg::build(&body);
        assert!(dfg.edges().iter().all(|e| !e.kind.is_mem()));
    }

    #[test]
    fn access_patterns_classified() {
        // fld through a self-incremented pointer is an induction stream
        // (paper: affine Type 1 → direct SSR mapping); a computed table
        // address is indirect; a fixed-base spill slot is static.
        let mut b = ProgramBuilder::new();
        b.fld(FpReg::FA0, IntReg::A0, 0); // induction stream (bump below)
        b.addi(IntReg::A0, IntReg::A0, 8);
        b.fsd(FpReg::FA0, IntReg::A1, 0); // spill slot
        b.lw(IntReg::A2, IntReg::A1, 0);
        b.slli(IntReg::A2, IntReg::A2, 3);
        b.add(IntReg::A2, IntReg::A3, IntReg::A2);
        b.fld(FpReg::FA1, IntReg::A2, 0); // indirect table access
        let body = b.build().unwrap().text().to_vec();
        let dfg = Dfg::build(&body);
        let patterns: Vec<AccessPattern> = dfg.fp_accesses().iter().map(|a| a.pattern).collect();
        assert_eq!(
            patterns,
            vec![
                AccessPattern::InductionStream,
                AccessPattern::SpillStatic,
                AccessPattern::Indirect
            ]
        );
    }

    #[test]
    fn expf_fp_accesses_are_spills_and_io() {
        let body = fig1b_expf_body();
        let dfg = Dfg::build(&body);
        // 4 FP memory ops: fld x, fsd ki, fld t, fsd y (pointer bumps are
        // omitted in the Fig. 1b excerpt, so x/y classify as static too).
        assert_eq!(dfg.fp_accesses().len(), 4);
        assert!(dfg.fp_accesses().iter().all(|a| a.pattern == AccessPattern::SpillStatic));
    }

    #[test]
    fn distinct_bases_do_not_alias() {
        let mut b = ProgramBuilder::new();
        b.sw(IntReg::A0, IntReg::A1, 0);
        b.fld(FpReg::FA0, IntReg::A2, 0); // different live-in base
        let body = b.build().unwrap().text().to_vec();
        let dfg = Dfg::build(&body);
        assert!(dfg.edges().iter().all(|e| !e.kind.is_mem()));
    }

    #[test]
    fn loop_carried_state_reported() {
        let mut b = ProgramBuilder::new();
        b.mul(IntReg::A0, IntReg::A0, IntReg::A1); // a0 = a0 * a1 (carried)
        b.add(IntReg::A2, IntReg::A0, IntReg::A1); // a2 fresh
        let body = b.build().unwrap().text().to_vec();
        let dfg = Dfg::build(&body);
        assert!(dfg.loop_carried().contains(&RegRef::Int(IntReg::A0)));
        assert!(!dfg.loop_carried().contains(&RegRef::Int(IntReg::A2)));
    }
}
