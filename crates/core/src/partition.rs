//! Step 2: phase partitioning.
//!
//! Splits the DFG into an ordered sequence of single-domain *phases* with an
//! acyclic precedence relation (every edge goes forward), minimizing the
//! number of edges crossing phase boundaries — each crossing edge becomes a
//! spill buffer after tiling, so the cut size directly controls memory
//! traffic (paper: "it is important to minimize the number of edges between
//! subgraphs").
//!
//! Algorithm: nodes carry a parity constraint (phase domains alternate), so
//! each node has an ASAP phase (longest path from sources, +1 on every
//! domain change) and an ALAP phase. Nodes are then placed greedily in
//! reverse topological order at the slack position minimizing incremental
//! cut, followed by local-improvement sweeps. For the paper's kernel sizes
//! (≲ 100 nodes) this reproduces the published partitions exactly (see the
//! `expf` test).

use crate::dfg::{DepEdge, Dfg, Domain};

/// One phase: a maximal single-domain group of instructions with a fixed
/// position in the phase order.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Thread domain of every node in the phase.
    pub domain: Domain,
    /// Member nodes in original program order.
    pub nodes: Vec<usize>,
}

/// Result of Step 2.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Ordered phases (`phases[0]` executes logically first).
    pub phases: Vec<Phase>,
    /// Node → phase index.
    pub assignment: Vec<usize>,
    /// Edges crossing phase boundaries (each becomes inter-phase
    /// communication through memory after Step 4).
    pub cut_edges: Vec<DepEdge>,
}

impl Partition {
    /// Partitions a DFG. Returns `None` for an empty graph.
    #[must_use]
    pub fn of(dfg: &Dfg) -> Option<Partition> {
        let n = dfg.insts().len();
        if n == 0 {
            return None;
        }
        let domains = dfg.domains();
        let edges = dfg.edges();

        // The domain of phase p: established by the first phase's domain.
        // Try both start domains, keep the better cut.
        let best = [Domain::Fp, Domain::Int]
            .into_iter()
            .map(|start| assign(domains, edges, start))
            .min_by_key(|a| (cut_size(edges, a), a.iter().copied().max().unwrap_or(0)))?;

        let k = best.iter().copied().max().unwrap_or(0) + 1;
        let start_domain = phase_domain_table(&best, domains);
        let mut phases: Vec<Phase> =
            (0..k).map(|p| Phase { domain: start_domain(p), nodes: Vec::new() }).collect();
        for (node, &p) in best.iter().enumerate() {
            phases[p].nodes.push(node);
        }
        // Drop empty phases, compacting indices.
        let mut remap = vec![usize::MAX; k];
        let mut compact: Vec<Phase> = Vec::new();
        for (p, phase) in phases.into_iter().enumerate() {
            if !phase.nodes.is_empty() {
                remap[p] = compact.len();
                compact.push(phase);
            }
        }
        let assignment: Vec<usize> = best.iter().map(|&p| remap[p]).collect();
        let cut_edges =
            edges.iter().copied().filter(|e| assignment[e.from] != assignment[e.to]).collect();
        Some(Partition { phases: compact, assignment, cut_edges })
    }

    /// Number of phases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether the partition is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Validates the acyclic precedence relation: every DFG edge must point
    /// to the same or a later phase.
    #[must_use]
    pub fn is_acyclic(&self, dfg: &Dfg) -> bool {
        dfg.edges().iter().all(|e| self.assignment[e.from] <= self.assignment[e.to])
    }
}

fn phase_domain_table<'a>(
    assignment: &'a [usize],
    domains: &'a [Domain],
) -> impl Fn(usize) -> Domain + 'a {
    move |p: usize| {
        assignment
            .iter()
            .zip(domains)
            .find_map(|(&a, &d)| if a == p { Some(d) } else { None })
            .unwrap_or(Domain::Int)
    }
}

fn parity_of(domain: Domain, start: Domain) -> usize {
    usize::from(domain != start)
}

/// Greedy slack-based assignment with local improvement.
fn assign(domains: &[Domain], edges: &[DepEdge], start: Domain) -> Vec<usize> {
    let n = domains.len();
    // ASAP: longest path with +1 per domain change, parity-aligned.
    let mut asap = vec![0usize; n];
    for i in 0..n {
        let mut p = parity_of(domains[i], start);
        for e in edges.iter().filter(|e| e.to == i) {
            let min = if domains[e.from] == domains[i] { asap[e.from] } else { asap[e.from] + 1 };
            while p < min {
                p += 2; // keep parity
            }
        }
        asap[i] = p;
    }
    let max_phase = asap.iter().copied().max().unwrap_or(0);
    // ALAP from sinks.
    let mut alap = vec![0usize; n];
    for i in (0..n).rev() {
        let mut p = max_phase - (max_phase + parity_of(domains[i], start)) % 2;
        // ^ largest phase ≤ max_phase with this node's parity
        for e in edges.iter().filter(|e| e.from == i) {
            let limit =
                if domains[e.to] == domains[i] { alap[e.to] } else { alap[e.to].saturating_sub(1) };
            while p > limit {
                p = p.saturating_sub(2);
            }
        }
        alap[i] = p.max(asap[i]);
        if alap[i] < asap[i] {
            alap[i] = asap[i];
        }
    }

    // Greedy: place nodes in topological (program) order at the slack
    // position minimizing the cut against already-placed neighbours,
    // preferring earlier phases on ties (keeps FREP loops leading).
    let mut phase: Vec<usize> = asap.clone();
    let mut improved = true;
    let mut sweeps = 0;
    while improved && sweeps < 8 {
        improved = false;
        sweeps += 1;
        for i in 0..n {
            let (lo, hi) = (asap[i], alap[i]);
            if lo == hi {
                continue;
            }
            let mut best_p = phase[i];
            let mut best_cost = node_cut_cost(i, phase[i], &phase, edges, domains);
            let mut p = lo;
            while p <= hi {
                if p != phase[i] && legal_move(i, p, &phase, edges, domains) {
                    let c = node_cut_cost(i, p, &phase, edges, domains);
                    if c < best_cost {
                        best_cost = c;
                        best_p = p;
                    }
                }
                p += 2;
            }
            if best_p != phase[i] {
                phase[i] = best_p;
                improved = true;
            }
        }
    }
    phase
}

fn legal_move(
    node: usize,
    p: usize,
    phase: &[usize],
    edges: &[DepEdge],
    domains: &[Domain],
) -> bool {
    edges.iter().all(|e| {
        if e.to == node {
            let min =
                if domains[e.from] == domains[node] { phase[e.from] } else { phase[e.from] + 1 };
            p >= min
        } else if e.from == node {
            let max = if domains[e.to] == domains[node] { phase[e.to] } else { phase[e.to] - 1 };
            p <= max
        } else {
            true
        }
    })
}

fn node_cut_cost(
    node: usize,
    p: usize,
    phase: &[usize],
    edges: &[DepEdge],
    _domains: &[Domain],
) -> usize {
    edges
        .iter()
        .filter(|e| (e.to == node && phase[e.from] != p) || (e.from == node && phase[e.to] != p))
        .count()
}

fn cut_size(edges: &[DepEdge], assignment: &[usize]) -> usize {
    edges.iter().filter(|e| assignment[e.from] != assignment[e.to]).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::fig1b_expf_body;

    #[test]
    fn expf_partitions_into_three_phases() {
        let body = fig1b_expf_body();
        let dfg = Dfg::build(&body);
        let part = Partition::of(&dfg).expect("non-empty");
        // Paper Fig. 1c: FP Phase 0 → Int Phase 1 → FP Phase 2.
        assert_eq!(part.len(), 3, "phases: {:?}", part.phases);
        assert_eq!(part.phases[0].domain, Domain::Fp);
        assert_eq!(part.phases[1].domain, Domain::Int);
        assert_eq!(part.phases[2].domain, Domain::Fp);
        assert!(part.is_acyclic(&dfg));
        // The paper's cut: 4→5, 12→18, 14→18 (memory) and 21→22 (fa4),
        // 0-based: (3,4), (11,17), (13,17), (20,21).
        let mut cut: Vec<(usize, usize)> = part.cut_edges.iter().map(|e| (e.from, e.to)).collect();
        cut.sort_unstable();
        cut.dedup();
        assert_eq!(cut, vec![(3, 4), (11, 17), (13, 17), (20, 21)]);
    }

    #[test]
    fn expf_phase_membership_matches_paper() {
        let body = fig1b_expf_body();
        let dfg = Dfg::build(&body);
        let part = Partition::of(&dfg).unwrap();
        // 0-based: Phase 0 = {0,1,2,3,14,15,16,18,19,20},
        // Phase 1 = {4..13}, Phase 2 = {17,21,22}.
        assert_eq!(part.phases[0].nodes, vec![0, 1, 2, 3, 14, 15, 16, 18, 19, 20]);
        assert_eq!(part.phases[1].nodes, (4..=13).collect::<Vec<_>>());
        assert_eq!(part.phases[2].nodes, vec![17, 21, 22]);
    }

    #[test]
    fn pure_single_domain_code_is_one_phase() {
        use snitch_asm::builder::ProgramBuilder;
        use snitch_riscv::reg::IntReg;
        let mut b = ProgramBuilder::new();
        b.add(IntReg::A0, IntReg::A1, IntReg::A2);
        b.add(IntReg::A3, IntReg::A0, IntReg::A2);
        let dfg = Dfg::build(b.build().unwrap().text());
        let part = Partition::of(&dfg).unwrap();
        assert_eq!(part.len(), 1);
        assert!(part.cut_edges.is_empty());
    }

    #[test]
    fn empty_body_yields_none() {
        let dfg = Dfg::build(&[]);
        assert!(Partition::of(&dfg).is_none());
    }

    #[test]
    fn interleaved_independent_domains_need_two_phases() {
        use snitch_asm::builder::ProgramBuilder;
        use snitch_riscv::reg::{FpReg, IntReg};
        let mut b = ProgramBuilder::new();
        b.add(IntReg::A0, IntReg::A1, IntReg::A2);
        b.fadd_d(FpReg::FA0, FpReg::FA1, FpReg::FA2);
        b.add(IntReg::A3, IntReg::A0, IntReg::A2);
        b.fadd_d(FpReg::FA3, FpReg::FA0, FpReg::FA2);
        let dfg = Dfg::build(b.build().unwrap().text());
        let part = Partition::of(&dfg).unwrap();
        assert_eq!(part.len(), 2, "independent threads fold into one phase each");
        assert!(part.cut_edges.is_empty(), "no cross edges, no cut");
    }
}
