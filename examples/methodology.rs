//! The COPIFT methodology as a library: runs Steps 1–7 on the paper's
//! Figure 1b loop body and prints every artifact — the DFG's cross-thread
//! dependencies, the phase partition, the buffer/replication plan, FREP
//! legality diagnostics, and the Table I estimators.
//!
//! Run with: `cargo run --example methodology`

use copift_repro::copift::dfg::{fig1b_expf_body, CrossDepType};
use copift_repro::copift::{analyze, estimate};

fn main() {
    // The paper's Fig. 1b: one iteration of the expf kernel.
    let body = fig1b_expf_body();

    let a = analyze(&body).expect("straight-line body");

    println!("=== Step 1: DFG ({} nodes, {} edges) ===", body.len(), a.dfg.edges().len());
    for e in a.dfg.cross_edges() {
        let kind = match e.cross {
            Some(CrossDepType::Type1 { affine }) => {
                if affine {
                    "Type 1 (affine)"
                } else {
                    "Type 1"
                }
            }
            Some(CrossDepType::Type2) => "Type 2",
            Some(CrossDepType::Type3) => "Type 3",
            None => unreachable!(),
        };
        println!(
            "  {kind}: [{:>2}] {} -> [{:>2}] {}",
            e.from + 1,
            body[e.from],
            e.to + 1,
            body[e.to]
        );
    }

    println!("\n=== Step 2: partition into {} phases ===", a.partition.len());
    for (i, phase) in a.partition.phases.iter().enumerate() {
        let members: Vec<String> = phase.nodes.iter().map(|n| (n + 1).to_string()).collect();
        println!("  phase {i} ({:?}): instructions {}", phase.domain, members.join(", "));
    }
    println!("  cut edges: {}", a.partition.cut_edges.len());

    println!("\n=== Steps 4-5: buffers and replication ===");
    for buf in &a.tiling.buffers {
        println!(
            "  {:?}: {} B/elem, phases {} -> {}, {} replicas",
            buf.kind, buf.elem_bytes, buf.producer, buf.consumer, buf.replicas
        );
    }
    println!(
        "  {} B of buffers per block element; max block in 128 KiB TCDM: {}",
        a.tiling.bytes_per_element(),
        a.tiling.max_block(128 * 1024, 16 * 1024)
    );

    println!("\n=== Step 7: FREP legality of the fused FP body ===");
    for v in &a.frep.violations {
        println!("  [{:>2}] {}", v.node + 1, v.reason);
    }
    println!("  ({} violations; Step 6 SSR mapping and the COPIFT", a.frep.violations.len());
    println!("   custom-1 instructions resolve all of them, as in the paper)");

    println!("\n=== Estimators (Eqs. 1-3) ===");
    println!("  mix: {} int + {} FP", a.mix.n_int, a.mix.n_fp);
    println!("  TI = {:.3}, S'' = 1 + TI = {:.3}, I' = {:.3}", a.ti, a.s_double_prime, a.i_prime);
    let copift_mix = estimate::MixCounts { n_int: a.mix.n_int, n_fp: a.mix.n_fp - 4 };
    println!(
        "  with the 4 FP load/stores mapped to SSRs: S' = {:.3}",
        estimate::s_prime(a.mix, copift_mix)
    );
}
