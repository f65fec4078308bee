//! Steps 3–5: instruction reordering, loop tiling and software pipelining.
//!
//! * **Step 3** reorders the loop body into consecutive single-domain groups
//!   following the phase order, preserving program order within each phase
//!   (which preserves all intra-phase dependencies).
//! * **Step 4** (loop tiling + fission) turns each phase into a loop over a
//!   block of `B` elements; every value crossing a phase boundary must be
//!   spilled to a block-sized buffer. [`TilingPlan`] enumerates those
//!   buffers.
//! * **Step 5** (software pipelining + multiple buffering) schedules phase
//!   `p` of block-iteration `j'` on data block `j' - p`, which requires
//!   `distance + 1` replicas of each buffer (paper: "the exact number of
//!   replicas for each buffer equals the distance between the subgraphs
//!   connected by the respective edge ... plus one").

use snitch_riscv::inst::Inst;
use snitch_riscv::meta::RegRef;

use crate::dfg::{DepKind, Dfg};
use crate::partition::Partition;

/// Step 3: the reordered loop body (phase-grouped instruction sequence).
#[must_use]
pub fn reorder(dfg: &Dfg, partition: &Partition) -> Vec<Inst> {
    let mut out = Vec::with_capacity(dfg.insts().len());
    for phase in &partition.phases {
        for &n in &phase.nodes {
            out.push(dfg.insts()[n]);
        }
    }
    out
}

/// What carries an inter-phase value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BufferKind {
    /// A register value that Step 4 spills to memory.
    RegSpill(RegRef),
    /// A value already flowing through a memory buffer in the original code.
    Mem,
}

/// One block-sized inter-phase communication buffer.
#[derive(Clone, Debug)]
pub struct BufferSpec {
    /// What the buffer carries.
    pub kind: BufferKind,
    /// Bytes per element (8 for doubles/spilled FP registers, 4 for words).
    pub elem_bytes: u32,
    /// Producing phase index.
    pub producer: usize,
    /// Consuming phase index.
    pub consumer: usize,
    /// Replicas required by the software-pipelined schedule (Step 5):
    /// `consumer - producer + 1`.
    pub replicas: usize,
}

impl BufferSpec {
    /// Total footprint for a block of `block` elements.
    #[must_use]
    pub fn footprint(&self, block: usize) -> usize {
        self.elem_bytes as usize * block * self.replicas
    }
}

/// Steps 4–5 output: buffers and the pipelined block schedule.
#[derive(Clone, Debug)]
pub struct TilingPlan {
    /// Inter-phase buffers (one per distinct crossing value).
    pub buffers: Vec<BufferSpec>,
    /// Number of phases (pipeline depth).
    pub depth: usize,
}

impl TilingPlan {
    /// Derives the plan from a partition.
    #[must_use]
    pub fn of(dfg: &Dfg, partition: &Partition) -> TilingPlan {
        let mut buffers: Vec<BufferSpec> = Vec::new();
        // Group cut edges by the value they carry: register edges by
        // (producer node, register); memory edges by the buffer object
        // (several stores into the same buffer are one spill value — e.g.
        // the two word-halves of expf's `t`).
        #[derive(PartialEq)]
        enum Key {
            Reg(usize, RegRef),
            MemBase(Option<snitch_riscv::reg::IntReg>),
        }
        let mut seen: Vec<(Key, Vec<usize>)> = Vec::new(); // key + producer nodes
        for e in &partition.cut_edges {
            let key = match e.kind {
                DepKind::Reg(r) => Key::Reg(e.from, r),
                DepKind::Mem { base } => Key::MemBase(base),
            };
            let producer = partition.assignment[e.from];
            let consumer = partition.assignment[e.to];
            let store_bytes = |node: usize| {
                dfg.insts()[node].mem_class().map_or(0, |m| match m {
                    snitch_riscv::meta::MemClass::Store { bytes }
                    | snitch_riscv::meta::MemClass::FpStore { bytes }
                    | snitch_riscv::meta::MemClass::Load { bytes }
                    | snitch_riscv::meta::MemClass::FpLoad { bytes } => bytes,
                })
            };
            if let Some(pos) = seen.iter().position(|(k, _)| *k == key) {
                // Same value/buffer: widen the distance, accumulate distinct
                // producer stores into the element size.
                if !seen[pos].1.contains(&e.from) {
                    seen[pos].1.push(e.from);
                    if matches!(key, Key::MemBase(_)) {
                        buffers[pos].elem_bytes += store_bytes(e.from);
                    }
                }
                let b = &mut buffers[pos];
                b.producer = b.producer.min(producer);
                b.consumer = b.consumer.max(consumer);
                b.replicas = b.consumer - b.producer + 1;
                continue;
            }
            let (kind, elem_bytes) = match e.kind {
                DepKind::Reg(r) => (
                    BufferKind::RegSpill(r),
                    match r {
                        RegRef::Fp(_) => 8,
                        RegRef::Int(_) => 4,
                    },
                ),
                DepKind::Mem { .. } => (BufferKind::Mem, store_bytes(e.from)),
            };
            seen.push((key, vec![e.from]));
            buffers.push(BufferSpec {
                kind,
                elem_bytes,
                producer,
                consumer,
                replicas: consumer - producer + 1,
            });
        }
        TilingPlan { buffers, depth: partition.len() }
    }

    /// Bytes of buffer storage needed per element of block size (the sum of
    /// all replicated buffers' per-element footprints).
    #[must_use]
    pub fn bytes_per_element(&self) -> usize {
        self.buffers.iter().map(|b| b.elem_bytes as usize * b.replicas).sum()
    }

    /// Largest block size fitting a scratchpad of `l1_bytes`, after
    /// reserving `reserved_bytes` (I/O arrays, tables, alignment slack).
    #[must_use]
    pub fn max_block(&self, l1_bytes: usize, reserved_bytes: usize) -> usize {
        let per_elem = self.bytes_per_element();
        if per_elem == 0 {
            return usize::MAX;
        }
        l1_bytes.saturating_sub(reserved_bytes) / per_elem
    }

    /// The data block that phase `p` works on during steady-state block
    /// iteration `j` (Step 5's schedule, Fig. 1g): `j - p`, or `None`
    /// during the prologue.
    #[must_use]
    pub fn block_for(&self, phase: usize, j: usize) -> Option<usize> {
        j.checked_sub(phase)
    }

    /// Number of block iterations (including prologue and epilogue) needed
    /// to process `n_blocks` data blocks: `n_blocks + depth - 1`.
    #[must_use]
    pub fn schedule_length(&self, n_blocks: usize) -> usize {
        if n_blocks == 0 {
            0
        } else {
            n_blocks + self.depth - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::fig1b_expf_body;
    use crate::dfg::Domain;

    fn expf_plan() -> (Dfg, Partition, TilingPlan) {
        let body = fig1b_expf_body();
        let dfg = Dfg::build(&body);
        let part = Partition::of(&dfg).unwrap();
        let plan = TilingPlan::of(&dfg, &part);
        (dfg, part, plan)
    }

    #[test]
    fn reorder_groups_by_phase_and_preserves_length() {
        let (dfg, part, _) = expf_plan();
        let r = reorder(&dfg, &part);
        assert_eq!(r.len(), dfg.insts().len());
        // Grouped: a run of FP, then Int, then FP instructions.
        let doms: Vec<bool> = r.iter().map(snitch_riscv::inst::Inst::is_fp).collect();
        let transitions = doms.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(transitions, 2, "three single-domain groups");
    }

    #[test]
    fn expf_buffers_match_paper() {
        // Paper Table I (Step 4): 5 buffers for expf — x, y streams plus
        // ki, t, w. The DFG cut contributes ki (mem), t (mem), w (reg fa4);
        // x and y are the kernel's I/O streams, not cut edges, so the plan
        // reports 3 inter-phase buffers.
        let (_, part, plan) = expf_plan();
        assert_eq!(part.len(), 3);
        assert_eq!(plan.buffers.len(), 3, "{:?}", plan.buffers);
        // w: produced by phase 0 (fmadd), consumed by phase 2 (fmul) ⇒
        // distance 2 ⇒ 3 replicas, exactly the paper's example.
        let w = plan
            .buffers
            .iter()
            .find(|b| matches!(b.kind, BufferKind::RegSpill(RegRef::Fp(_))))
            .expect("spilled fa4");
        assert_eq!(w.producer, 0);
        assert_eq!(w.consumer, 2);
        assert_eq!(w.replicas, 3);
        // ki: phase 0 → 1 ⇒ double buffering.
        let mem_bufs: Vec<&BufferSpec> =
            plan.buffers.iter().filter(|b| b.kind == BufferKind::Mem).collect();
        assert_eq!(mem_bufs.len(), 2);
        assert!(mem_bufs.iter().any(|b| b.producer == 0 && b.consumer == 1 && b.replicas == 2));
        assert!(mem_bufs.iter().any(|b| b.producer == 1 && b.consumer == 2 && b.replicas == 2));
    }

    #[test]
    fn pipeline_schedule_offsets_blocks() {
        let (_, _, plan) = expf_plan();
        assert_eq!(plan.depth, 3);
        assert_eq!(plan.block_for(0, 5), Some(5));
        assert_eq!(plan.block_for(2, 5), Some(3));
        assert_eq!(plan.block_for(2, 1), None, "prologue: phase 2 idle");
        assert_eq!(plan.schedule_length(10), 12);
        assert_eq!(plan.schedule_length(0), 0);
    }

    #[test]
    fn max_block_respects_l1() {
        let (_, _, plan) = expf_plan();
        let per_elem = plan.bytes_per_element();
        // w: 8 B x 3; ki: 8 B x 2 (fsd-produced); t: 8 B x 2 (two sw halves).
        assert_eq!(per_elem, 8 * 3 + 8 * 2 + 8 * 2);
        let max = plan.max_block(128 * 1024, 16 * 1024);
        assert_eq!(max, (128 * 1024 - 16 * 1024) / per_elem);
    }

    #[test]
    fn reorder_keeps_phase_internal_order() {
        let (dfg, part, _) = expf_plan();
        let r = reorder(&dfg, &part);
        // The integer phase must appear in original relative order:
        // extract int instructions from both and compare.
        let orig_int: Vec<String> = dfg
            .insts()
            .iter()
            .zip(dfg.domains())
            .filter(|(_, d)| **d == Domain::Int)
            .map(|(i, _)| i.to_string())
            .collect();
        let reord_int: Vec<String> =
            r.iter().filter(|i| !i.is_fp()).map(std::string::ToString::to_string).collect();
        assert_eq!(orig_int, reord_int);
    }
}
