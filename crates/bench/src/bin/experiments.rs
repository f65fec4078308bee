//! The one driver of the paper's tables: runs every experiment and writes
//! `EXPERIMENTS.md` (paper vs measured for Table I and every figure, the
//! extended suite, scaling, overlap and the configuration ablations).
//!
//! All measurements run through `snitch-engine` batches, fanned across the
//! host cores with one compiled program per distinct spec. Every paper
//! value comes from [`snitch_kernels::paper`]. The ablation claims are
//! asserted, so a regeneration that breaks one fails loudly.

use std::fmt::Write as _;

use copift::estimate::{i_prime, s_double_prime, s_prime, thread_imbalance, MixCounts};
use snitch_bench::{
    config_sweep, extended_tables, fig3_grid, geomean, overlap_rows, overlap_strip, overlap_tables,
    scaling_grid_rows, scaling_rows, scaling_table, Fig2Row, ScalingRow,
};
use snitch_engine::job::{FIG3_BLOCKS, FIG3_SIZES, SCALING_CLUSTERS, SCALING_CORES};
use snitch_engine::{Engine, JobSpec};
use snitch_kernels::registry::Variant;
use snitch_kernels::{paper, Kernel, SteadyState};
use snitch_sim::config::ClusterConfig;

fn main() {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# EXPERIMENTS — paper vs measured\n\n\
         Reproduction of *Dual-Issue Execution of Mixed Integer and Floating-Point\n\
         Workloads on Energy-Efficient In-Order RISC-V Cores* (DAC 2025) on the\n\
         `snitch-sim` cycle-accurate model with the `snitch-energy` power model.\n\
         Regenerate with `cargo run --release -p snitch-bench --bin experiments`.\n\
         Absolute numbers depend on the simulator/energy calibration documented in\n\
         DESIGN.md §9; the claims under test are the *shapes*: who wins, by what\n\
         factor, and where the trends bend.\n"
    );

    let engine = Engine::default();
    let rows: Vec<Fig2Row> = Fig2Row::measure_all(&engine);
    table1(&mut out, &rows);

    // ---- Figure 2 ----
    let _ = writeln!(out, "## Figure 2a — steady-state IPC\n");
    let _ =
        writeln!(out, "| kernel | base (paper) | base (ours) | COPIFT (paper) | COPIFT (ours) |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (r, p) in rows.iter().zip(paper::FIG2) {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.kernel.name(),
            p.ipc.0,
            r.base.ipc,
            p.ipc.1,
            r.copift.ipc
        );
    }
    let gains: Vec<f64> = rows.iter().map(|r| r.copift.ipc / r.base.ipc).collect();
    let peak = rows.iter().map(|r| r.copift.ipc).fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "\nGeomean IPC gain **{:.2}×** (paper {:.2}×); peak IPC **{peak:.2}** (paper {:.2}).\n",
        geomean(&gains),
        paper::GEOMEANS.ipc_gain,
        paper::peak_ipc(),
    );

    let _ = writeln!(out, "## Figure 2b — average power (mW)\n");
    let _ =
        writeln!(out, "| kernel | base (paper) | base (ours) | COPIFT (paper) | COPIFT (ours) |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (r, p) in rows.iter().zip(paper::FIG2) {
        let _ = writeln!(
            out,
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.kernel.name(),
            p.power_mw.0,
            r.base.power_mw,
            p.power_mw.1,
            r.copift.power_mw
        );
    }
    let ratios: Vec<f64> = rows.iter().map(Fig2Row::power_ratio).collect();
    let _ = writeln!(
        out,
        "\nGeomean power ratio **{:.3}×** (paper {:.2}×).\n",
        geomean(&ratios),
        paper::GEOMEANS.power_ratio
    );

    let _ = writeln!(out, "## Figure 2c — speedup and energy improvement\n");
    let _ = writeln!(
        out,
        "| kernel | speedup (paper) | speedup (ours) | energy imp. (paper) | energy imp. (ours) |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (r, p) in rows.iter().zip(paper::FIG2) {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.kernel.name(),
            p.speedup,
            r.speedup(),
            p.energy,
            r.energy_improvement()
        );
    }
    let sp: Vec<f64> = rows.iter().map(Fig2Row::speedup).collect();
    let ei: Vec<f64> = rows.iter().map(Fig2Row::energy_improvement).collect();
    let peak = paper::peak_speedup();
    let _ = writeln!(
        out,
        "\nGeomean speedup **{:.2}×** (paper {:.2}×); geomean energy improvement \
         **{:.2}×** (paper {:.2}×); peak speedup **{:.2}×** (paper {:.2}× on `{}`).\n",
        geomean(&sp),
        paper::GEOMEANS.speedup,
        geomean(&ei),
        paper::GEOMEANS.energy,
        sp.iter().fold(0.0f64, |a, &b| a.max(b)),
        peak.speedup,
        peak.kernel.name(),
    );
    let fig2 = rows.iter().zip(paper::FIG2);
    let _ = writeln!(
        out,
        "Mean absolute error vs the paper: IPC **{:.2}%** (12 bars), speedup **{:.2}%**, \
         energy improvement **{:.2}%** (6 bars each).\n",
        paper::mape_pct(
            fig2.clone().flat_map(|(r, p)| [(r.base.ipc, p.ipc.0), (r.copift.ipc, p.ipc.1)])
        ),
        paper::mape_pct(fig2.clone().map(|(r, p)| (r.speedup(), p.speedup))),
        paper::mape_pct(fig2.map(|(r, p)| (r.energy_improvement(), p.energy))),
    );

    // ---- Figure 3 ----
    let _ = writeln!(out, "## Figure 3 — poly_lcg COPIFT IPC over (problem size × block size)\n");
    let mut header = String::from("| n \\ B |");
    for b in FIG3_BLOCKS {
        let _ = write!(header, " {b} |");
    }
    let _ = writeln!(out, "{header} peak |");
    let _ = writeln!(out, "|{}", "---|".repeat(FIG3_BLOCKS.len() + 2));
    let grid = fig3_grid(&engine);
    for (i, &n) in FIG3_SIZES.iter().enumerate() {
        let mut line = format!("| {n} |");
        let mut best = (0usize, 0.0f64);
        for (j, _) in FIG3_BLOCKS.iter().enumerate() {
            let v = grid[i][j];
            if v > best.1 {
                best = (j, v);
            }
            let _ = write!(line, " {v:.3} |");
        }
        let _ = writeln!(out, "{line} B={} |", FIG3_BLOCKS[best.0]);
    }
    let _ = writeln!(
        out,
        "\nTrends to compare with the paper: IPC increases with problem size as\n\
         prologue/epilogue overheads amortize; small blocks converge at smaller n;\n\
         the per-size peak block grows with n; large-n IPC approaches the\n\
         steady-state Figure 2a value.\n"
    );

    // ---- Extended suite ----
    let _ = writeln!(out, "## Extended suite — beyond the paper\n");
    let _ = writeln!(
        out,
        "Steady-state measurements for the auto-compiled catalog kernels\n\
         (`copift::codegen` applied to plain loop bodies; no paper reference\n\
         exists). Sweep the same jobs with\n\
         `cargo run --release -p snitch-engine --bin sweep -- extended`.\n"
    );
    let ext_rows = Fig2Row::measure_suite(&engine, &Kernel::extended());
    out.push_str(&extended_tables(&ext_rows));
    let ext_sp: Vec<f64> = ext_rows.iter().map(Fig2Row::speedup).collect();
    let ext_ei: Vec<f64> = ext_rows.iter().map(Fig2Row::energy_improvement).collect();
    let _ = writeln!(
        out,
        "\nGeomean extended speedup **{:.2}×**, energy improvement **{:.2}×**.\n\
         `softmax` is FP-only: its COPIFT gain comes from SSR/FREP issue\n\
         elision alone, bounding the speedup well below the mixed kernels'\n\
         — and with no integer thread to dual-issue, its COPIFT power does\n\
         not rise above the baseline's. Its two-way partial-sum reduction\n\
         keeps the cross-iteration FP dependency it exists to stress on the\n\
         critical path in both variants.\n",
        geomean(&ext_sp),
        geomean(&ext_ei),
    );

    // ---- Cluster scaling ----
    let (sn, sblock) = Kernel::PiLcgPar.operating_point();
    let _ = writeln!(out, "## Cluster scaling — data-parallel kernels over compute cores\n");
    let _ = writeln!(
        out,
        "Full-run cycles of the data-parallel Monte Carlo kernels (trials split\n\
         across harts with mid-stream seed tables, hardware barrier, TCDM tree\n\
         reduction) at n = {sn}, block = {sblock}, over {SCALING_CORES:?} compute\n\
         cores sharing the banked TCDM. Every cell validates **bit-exactly**\n\
         against the single-core golden model (DESIGN.md §11). Sweep the same\n\
         jobs with `cargo run --release -p snitch-engine --bin sweep -- scaling`.\n"
    );
    let srows = scaling_rows(&engine);
    out.push_str(&scaling_table(&srows, false, ("conflicts", |s| s.tcdm_conflicts)));
    let top = SCALING_CORES[SCALING_CORES.len() - 1];
    let s8: Vec<f64> = srows.iter().map(ScalingRow::speedup).collect();
    let _ = writeln!(
        out,
        "\nGeomean {top}-core speedup **{:.2}×** (ideal {top}×). The gap to ideal is the\n\
         fixed prologue/epilogue (seed loads, barrier, reduction) plus TCDM bank\n\
         conflicts, which are zero on one core and grow with the hart count while\n\
         staying a small fraction of all accesses at 32 banks.\n",
        geomean(&s8),
    );

    // ---- Cores × clusters scaling ----
    let (gn, gblock) = Kernel::GemmTiled.operating_point();
    let _ = writeln!(out, "## Cores × clusters scaling — tiled GEMM over the system grid\n");
    let _ = writeln!(
        out,
        "Full-run cycles of the tiled f64 GEMM (operands staged from the shared\n\
         L2 into each cluster's TCDM over the inter-cluster DMA, block-cyclic\n\
         row ownership, per-cluster writeback of disjoint output rows) at\n\
         n = {gn}, block = {gblock}, over {SCALING_CORES:?} compute cores ×\n\
         {SCALING_CLUSTERS:?} clusters. Every cell validates **bit-exactly**\n\
         against the single-cluster golden model (DESIGN.md §18); the DMA hop\n\
         cycles column counts the modeled L2/interconnect setup latency the\n\
         tiles paid in transit. Sweep the same jobs with\n\
         `cargo run --release -p snitch-engine --bin sweep -- scaling-grid`.\n"
    );
    let grows = scaling_grid_rows(&engine);
    out.push_str(&scaling_table(&grows, true, ("DMA hop cycles", |s| s.dma_hop_cycles)));
    let _ = writeln!(
        out,
        "\nWithin a fixed cluster count, cores scale the compute loop; adding\n\
         clusters shrinks each cluster's row slice but repays a fixed staging\n\
         cost (the shared B tile is replicated into every TCDM), so cluster\n\
         scaling pays off once the per-cluster compute dominates the DMA hops\n\
         — the COPIFT rows, whose compute is already compressed by the\n\
         SSR/FREP stream path, feel the staging floor first.\n"
    );

    // ---- Overlap profile ----
    let _ = writeln!(out, "## Overlap profile — per-cycle dual-issue occupancy\n");
    let _ = writeln!(
        out,
        "The headline mechanism, observed directly: `snitch-trace` records every\n\
         issue slot per cycle and decomposes the run into *overlap* (integer core\n\
         and FREP sequencer issuing in the same cycle — the pseudo-dual-issue the\n\
         IPC > 1 numbers come from), *core-only*, *frep-only* and *idle* cycles.\n\
         Baselines never touch the sequencer, so their lanes are serialized by\n\
         construction; every COPIFT variant shows substantial concurrent lane\n\
         occupancy. \"Steady IPC\" is the automatic steady-state window (the longest\n\
         near-peak-throughput plateau, trimming prologue, per-block fences and\n\
         epilogue). Six paper kernels at their smoke points, hart 0; one run's\n\
         full timeline comes from the `trace` CLI, e.g.\n\
         `cargo run --release -p snitch-engine --bin trace -- --kernel pi_lcg`.\n"
    );
    let orows = overlap_rows(&engine);
    out.push_str(&overlap_tables(&orows));
    let _ = writeln!(
        out,
        "\nThe LCG kernels dual-issue hardest in their steady state (sequencer lane\n\
         saturated, steady IPC ≈ 1.9) because COPIFT moves the whole FP stream off\n\
         the integer thread, whose remaining stalls are the mul write-back-port\n\
         hazard; full-run IPC is diluted by the per-block fences visible as the\n\
         `fence` bars in the stall attribution. `pi_lcg/copift`'s steady state,\n\
         as an ASCII strip of the Perfetto timeline:\n"
    );
    if let Some(row) =
        orows.iter().find(|r| r.kernel == Kernel::PiLcg && r.variant == Variant::Copift)
    {
        out.push_str(&overlap_strip(row, 64));
    }
    let _ = writeln!(
        out,
        "\nTrace-derived stall attribution and IPC are asserted **equal to the\n\
         `Stats` counters, counter for counter**, for every paper kernel\n\
         (`crates/engine/tests/trace.rs`), so the timeline and the aggregate\n\
         tables can never tell different stories.\n"
    );

    ablations(&mut out, &engine);

    // ---- Host time (committed measurements, not regenerated here) ----
    out.push_str(host_time_sections(COMMITTED));

    // ---- Known deviations ----
    let _ = writeln!(
        out,
        "## Substitutions and deviations\n\n\
         * The RTL/QuestaSim platform is replaced by a cycle-accurate software\n\
           model and PrimeTime power by a calibrated event-energy model\n\
           (DESIGN.md §1, §9). Absolute mW track the paper's 37–46 mW window by\n\
           construction of two anchor points; per-kernel values are measured.\n\
         * The FREP sequencer ring holds 128 entries (Snitch's is smaller); the\n\
           paper's COPIFT branch also requires bodies of up to 80 instructions.\n\
           The FREP sequencer ring rows of the Ablations section quantify the\n\
           sensitivity.\n\
         * `logf` is TCDM-resident (no DMA streaming), so its baseline power is\n\
           slightly lower than the paper's 42.1 mW.\n\
         * Instruction counts differ by a few ops/element where the paper's\n\
           exact code is not published (e.g. our MC integer thread spills with\n\
           two `sw` per draw); Table I reports measured mixes side by side.\n"
    );

    std::fs::write("EXPERIMENTS.md", &out).expect("write EXPERIMENTS.md");
    println!("{out}");
    println!("written to EXPERIMENTS.md");
}

/// The EXPERIMENTS.md this binary is built from.
const COMMITTED: &str = include_str!("../../../../EXPERIMENTS.md");

/// The host-time sections of `doc`: everything from "Where the host time
/// goes" up to "Substitutions and deviations". Host timings cannot be
/// regenerated deterministically, so each of these sections is a committed
/// measurement, written into EXPERIMENTS.md once and carried over unchanged
/// by every regeneration.
fn host_time_sections(doc: &str) -> &str {
    let find =
        |heading| doc.find(heading).unwrap_or_else(|| panic!("EXPERIMENTS.md: no `{heading}`"));
    &doc[find("## Where the host time goes")..find("## Substitutions and deviations")]
}

/// A steady state's instruction mix per Table I unit: 8 points for the
/// Monte Carlo kernels, 4 elements for the vector kernels.
fn mix_per_unit(kernel: Kernel, ss: &SteadyState) -> MixCounts {
    let elems = ss.delta.cycles as f64 / ss.cycles_per_elem;
    let scale = if kernel.is_mc() { 8.0 } else { 4.0 } / elems;
    MixCounts {
        n_int: (ss.delta.int_issued as f64 * scale).round() as u64,
        n_fp: (ss.delta.fp_instructions() as f64 * scale).round() as u64,
    }
}

/// The Table I section: measured per-unit mixes and the Eq. 1–3 estimators
/// beside the paper's, then the Fig. 1b buffer plan.
fn table1(out: &mut String, rows: &[Fig2Row]) {
    let _ = writeln!(out, "## Table I — instruction mixes and estimators\n");
    let _ = writeln!(
        out,
        "Steady-state instruction mixes per unit of work (4 elements for the\n\
         vector kernels, 8 points for Monte Carlo), measured from the Figure 2\n\
         runs, with the thread imbalance TI and the Eq. 1–3 estimators evaluated\n\
         on them. Each cell reads *paper / ours*; a mix is `#int + #FP`.\n"
    );
    let _ = writeln!(out, "| kernel | base mix | TI | COPIFT mix | I′ | S″ | S′ |");
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    let m = |x: MixCounts| format!("{} + {}", x.n_int, x.n_fp);
    for (r, p) in rows.iter().zip(paper::TABLE1) {
        let base = mix_per_unit(r.kernel, &r.base);
        let cop = mix_per_unit(r.kernel, &r.copift);
        let _ = writeln!(
            out,
            "| {} | {} / {} | {:.2} / {:.2} | {} / {} | {:.2} / {:.2} | {:.2} / {:.2} | {:.2} / {:.2} |",
            r.kernel.name(),
            m(p.base),
            m(base),
            p.ti,
            thread_imbalance(base),
            m(p.copift),
            m(cop),
            p.i_prime,
            i_prime(cop),
            p.s_double_prime,
            s_double_prime(base),
            p.s_prime,
            s_prime(base, cop),
        );
    }
    let analysis =
        copift::analyze(&copift::dfg::fig1b_expf_body()).expect("the Fig. 1b body analyzes");
    let tiling = &analysis.tiling;
    let _ = writeln!(
        out,
        "\nBuffer plan of the paper's Fig. 1b `expf` body (Steps 2, 4–5): {} phases,\n\
         {} cut edges, {} buffers, {} B per element; the largest block that fits\n\
         L1 with 16 KiB reserved is {} elements.\n",
        analysis.partition.len(),
        analysis.partition.cut_edges.len(),
        tiling.buffers.len(),
        tiling.bytes_per_element(),
        tiling.max_block(128 * 1024, 16 * 1024),
    );
    let _ = writeln!(out, "| buffer | B/element | phases | replicas |");
    let _ = writeln!(out, "|---|---|---|---|");
    for b in &tiling.buffers {
        let _ = writeln!(
            out,
            "| `{:?}` | {} | {} → {} | {} |",
            b.kind, b.elem_bytes, b.producer, b.consumer, b.replicas
        );
    }
    out.push('\n');
}

/// The Ablations section: configuration sweeps over the design choices
/// DESIGN.md §4 calls out, each one job replicated across cluster
/// configurations. The claims are asserted.
fn ablations(out: &mut String, engine: &Engine) {
    let _ = writeln!(out, "## Ablations — cluster configuration sweeps\n");
    let _ = writeln!(
        out,
        "One job per ablation, replicated across cluster configurations (one\n\
         compiled program per job). Asserted on every regeneration: a second\n\
         integer write-back port removes the LCG baselines' structural-hazard\n\
         stalls, and a deeper offload FIFO never slows the kernel.\n"
    );
    let _ = writeln!(out, "| ablation | job | setting | cycles | L0 hits | L0 misses |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    let poly = JobSpec::new(Kernel::PolyLcg, Variant::Copift, 512, 128);
    /// One ablation: its name, the job, how a setting configures the
    /// cluster, and the settings swept.
    type Sweep = (&'static str, JobSpec, fn(&mut ClusterConfig, usize), &'static [usize]);
    let sweeps: [Sweep; 4] = [
        (
            "integer write-back ports",
            JobSpec::new(Kernel::PiLcg, Variant::Baseline, 512, 0),
            |c, v| c.int_wb_ports = v as u32,
            &[1, 2],
        ),
        (
            "L0 capacity",
            JobSpec::new(Kernel::Expf, Variant::Baseline, 256, 32),
            |c, v| c.l0_capacity = v,
            &[32, 64, 128],
        ),
        ("offload FIFO depth", poly.clone(), |c, v| c.offload_fifo_depth = v, &[2, 8, 16]),
        ("FREP sequencer ring", poly, |c, v| c.sequencer_depth = v, &[80, 128]),
    ];
    let cycles = sweeps.map(|(name, job, set, values)| {
        let configs: Vec<ClusterConfig> = values
            .iter()
            .map(|&v| {
                let mut c = ClusterConfig::default();
                set(&mut c, v);
                c
            })
            .collect();
        let stats = config_sweep(engine, &job, &configs);
        for (v, s) in values.iter().zip(&stats) {
            let _ = writeln!(
                out,
                "| {name} | `{}` | {v} | {} | {} | {} |",
                job.label(),
                s.cycles,
                s.l0_hits,
                s.l0_misses
            );
        }
        stats.iter().map(|s| s.cycles).collect::<Vec<u64>>()
    });
    let [wb, _, fifo, _] = &cycles;
    assert!(wb[1] < wb[0], "a second write-back port must remove LCG stalls");
    assert!(fifo[0] >= fifo[1], "a deeper FIFO must never slow the kernel");
    out.push('\n');
}
