//! Runs every experiment and writes `EXPERIMENTS.md` (paper vs measured for
//! every table and figure, plus the extended suite).
//!
//! All measurements run through `snitch-engine` batches (116 simulations
//! total), fanned across the host cores with one compiled program per
//! distinct spec.

use std::fmt::Write as _;

use snitch_bench::{
    extended_tables, fig3_grid, geomean, overlap_rows, overlap_strip, overlap_tables,
    scaling_grid_rows, scaling_grid_tables, scaling_rows, scaling_tables, Fig2Row, FIG3_BLOCKS,
    FIG3_SIZES, SCALING_CLUSTERS, SCALING_CORES,
};
use snitch_engine::Engine;
use snitch_kernels::registry::Variant;
use snitch_kernels::Kernel;

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

    // ---- Figure 2 ----
    let engine = Engine::default();
    let rows: Vec<Fig2Row> = Fig2Row::measure_all(&engine);
    let paper_ipc =
        [(0.96, 1.24), (0.96, 1.36), (0.86, 1.50), (0.89, 1.75), (0.92, 1.48), (0.92, 1.63)];
    let paper_power =
        [(37.9, 39.0), (37.4, 38.4), (41.5, 43.6), (38.7, 40.1), (42.1, 45.1), (41.8, 46.2)];
    let paper_speedup = [1.15, 1.26, 1.32, 1.58, 1.62, 2.05];
    let paper_energy = [1.12, 1.22, 1.17, 1.34, 1.61, 1.93];

    let _ = writeln!(out, "## Figure 2a — steady-state IPC\n");
    let _ =
        writeln!(out, "| kernel | base (paper) | base (ours) | COPIFT (paper) | COPIFT (ours) |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (r, p) in rows.iter().zip(paper_ipc) {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.kernel.name(),
            p.0,
            r.base.ipc,
            p.1,
            r.copift.ipc
        );
    }
    let gains: Vec<f64> = rows.iter().map(|r| r.copift.ipc / r.base.ipc).collect();
    let peak = rows.iter().map(|r| r.copift.ipc).fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "\nGeomean IPC gain **{:.2}×** (paper 1.62×); peak IPC **{peak:.2}** (paper 1.75).\n",
        geomean(&gains)
    );

    let _ = writeln!(out, "## Figure 2b — average power (mW)\n");
    let _ =
        writeln!(out, "| kernel | base (paper) | base (ours) | COPIFT (paper) | COPIFT (ours) |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (r, p) in rows.iter().zip(paper_power) {
        let _ = writeln!(
            out,
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.kernel.name(),
            p.0,
            r.base.power_mw,
            p.1,
            r.copift.power_mw
        );
    }
    let ratios: Vec<f64> = rows.iter().map(Fig2Row::power_ratio).collect();
    let _ = writeln!(out, "\nGeomean power ratio **{:.3}×** (paper 1.07×).\n", geomean(&ratios));

    let _ = writeln!(out, "## Figure 2c — speedup and energy improvement\n");
    let _ = writeln!(
        out,
        "| kernel | speedup (paper) | speedup (ours) | energy imp. (paper) | energy imp. (ours) |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for ((r, ps), pe) in rows.iter().zip(paper_speedup).zip(paper_energy) {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.kernel.name(),
            ps,
            r.speedup(),
            pe,
            r.energy_improvement()
        );
    }
    let sp: Vec<f64> = rows.iter().map(Fig2Row::speedup).collect();
    let ei: Vec<f64> = rows.iter().map(Fig2Row::energy_improvement).collect();
    let _ = writeln!(
        out,
        "\nGeomean speedup **{:.2}×** (paper 1.47×); geomean energy improvement \
         **{:.2}×** (paper 1.37×); peak speedup **{:.2}×** (paper 2.05× on `exp`).\n",
        geomean(&sp),
        geomean(&ei),
        sp.iter().fold(0.0f64, |a, &b| a.max(b))
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
         exists). Regenerate alone with\n\
         `cargo run --release -p snitch-bench --bin extended`, or sweep with\n\
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
         against the single-core golden model (DESIGN.md §11). Regenerate alone\n\
         with `cargo run --release -p snitch-bench --bin scaling`, or sweep with\n\
         `cargo run --release -p snitch-engine --bin sweep -- scaling`.\n"
    );
    let srows = scaling_rows(&engine);
    out.push_str(&scaling_tables(&srows));
    let last = SCALING_CORES.len() - 1;
    let top = SCALING_CORES[last];
    let s8: Vec<f64> = srows.iter().map(|r| r.speedup(last)).collect();
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
         tiles paid in transit. Regenerate alone with\n\
         `cargo run --release -p snitch-bench --bin scaling`, or sweep with\n\
         `cargo run --release -p snitch-engine --bin sweep -- scaling-grid`.\n"
    );
    let grows = scaling_grid_rows(&engine);
    out.push_str(&scaling_grid_tables(&grows));
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
         epilogue). Six paper kernels at their smoke points, hart 0; regenerate\n\
         with `cargo run --release -p snitch-bench --bin overlap`.\n"
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

    // ---- Host time (a committed measurement, not regenerated here) ----
    out.push_str(HOST_TIME);
    out.push_str(GUEST_MEMORY);
    out.push_str(CONCURRENT_CLUSTERS);

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
           `ablation_seq_depth` quantifies the sensitivity.\n\
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

/// "Where the host time goes" on `scaling-grid`: per-layer numbers of the
/// repository benchmark (`perfbench --trace 1`), before and after the block
/// burst learned to drive every hart. Host timings cannot be regenerated
/// deterministically, so this section is a committed measurement that the
/// binary copies through unchanged.
const HOST_TIME: &str = "\
## Where the host time goes — `scaling-grid` per layer

Host time of the `scaling-grid` batch (`gemm_tiled`, 24 jobs over 1–8
cores × 1–4 clusters, 18.66 M per-cluster cycles), split by layer with
`cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
scaling-grid --trace 1` on a 2-vCPU x86-64 container, one engine worker,
median of 3 runs per side. *Before*: the block burst engaged only while
a single hart ran; *after*: one burst loop drives every hart (DESIGN.md
§15) and the L0 buffer checks residency with one flag per text word.

| layer / metric | before | after |
|---|---:|---:|
| `sim.run_s` — cycle loop | 3.171 s | 2.017 s |
| `sim.run_ns_per_cycle` | 169.9 ns | 108.1 ns |
| `sim.burst_share` | 0.513 | 1.000 |
| `sim.stepper_share` | 0.424 | 0.000 |
| `sim.skip_share` | 0.063 | 0.000 |
| `sim.warm_s` — 24 × `System::new` | 0.211 s | 0.201 s |
| `kernels.check_s` — golden check | 0.023 s | 0.019 s |
| `sim.load_s` — load + block compile | 1.9 ms | 1.9 ms |
| `kernels.build_s`, `verify.verify_s` | 1.4 ms, 1.0 ms | 1.4 ms, 0.9 ms |
| `sim.reset_s`, `energy.report_s`, `engine.sink_s` | < 0.2 ms each | < 0.2 ms each |
| `wall_s_tail` — slowest engine pass | 4.248 s | 3.329 s |
| `sim.cluster_cycles` | 18,655,848 | 18,655,848 |

The simulated model is unchanged — `sim.cluster_cycles`, every `model.*`
counter and the sink bytes are identical — and the difference sits in the
run layer; the other layers move within run-to-run noise, which on this
host reaches ±20% between runs of the same commit. End to end (tracing
off, five interleaved pairs), `sim_mcycles_per_s` went from 7.62 to 9.04
M cycles/s in the median and `wall_s` from 2.45 to 2.06 s, better in
every pair; `fig2`, carried by the single-hart case of the same loop,
stayed level (0.253 → 0.246 s).

";

/// The third part of "Where the host time goes": a multi-cluster
/// `System` running its clusters on host threads. A committed
/// measurement, copied through unchanged like [`HOST_TIME`].
const CONCURRENT_CLUSTERS: &str = "\
### Concurrent clusters: a System's clusters on host threads

The same benchmark before and after `System::run` started running a
multi-cluster system's clusters on scoped threads, keeping the result
only when the run shows it equals cluster-id order (DESIGN.md §18). The
host is the 2-vCPU x86-64 container, one engine worker, so a system
gets the second hardware thread. The end-to-end rows come from ten
interleaved untraced pairs per workload at the benchmark's 50 s run
length, `sim.run_s` from ten interleaved traced pairs at 15 s; medians
with the quartiles in brackets.

| workload: metric | before | after | better in |
|---|---:|---:|---:|
| `scaling-grid`: `sim_mcycles_per_s` | 11.38 [11.22–12.01] | 16.19 [14.07–17.50] | 9 of 10 |
| `scaling-grid`: `wall_s` | 1.640 s [1.555–1.663] | 1.153 s [1.067–1.327] | 9 of 10 |
| `scaling-grid`: `peak_rss_mb` | 6.25 MiB [6.25–6.25] | 6.52 MiB [6.47–6.52] | 0 of 10 |
| `scaling-grid`: `setup_s` | 2.41 ms [2.24–2.50] | 2.61 ms [2.48–2.77] | 1 of 10 |
| `scaling-grid`: `sim.run_s` (traced) | 1.796 s [1.636–1.863] | 1.412 s [1.153–1.467] | 9 of 10 |
| `fig2`: `wall_s` | 0.193 s [0.190–0.197] | 0.192 s [0.191–0.195] | 5 of 10 |
| `fig2`: `peak_rss_mb` | 1.15 MiB [1.15–1.15] | 1.19 MiB [1.19–1.19] | 0 of 10 |
| `sim.cluster_cycles`, every `model.*`, fingerprints | identical | identical | |

`sim_mcycles_per_s` rose 1.42× in the median, by more than the
parent's 0.79 M cycles/s interquartile spread. The ceiling on two
threads is about 1.5×: the x2 and x4 jobs carry 67% of the per-cluster
cycles, and the x1 jobs still run on one thread. Every `gemm_tiled`
run passes the check (its clusters read only `A` and `B` and store
disjoint rows of `C`), so none re-runs. Peak memory rose 0.26 MiB,
inside the 10% bound: the program copy a system keeps to rewind its
clusters, the second thread's stack and heap, and the per-byte L2 read
masks (the split was not measured). `fig2` has one cluster per system
and its time stayed level; its peak memory rose 0.04 MiB (3%).

The gain above is for one engine worker. Under the engine's default
pool (one worker per hardware thread) every hardware thread is already
busy, and a system that spawned threads of its own would run up to P²
threads on P CPUs. So a system spawns threads only for hardware
threads no worker occupies (DESIGN.md §18). `sweep scaling-grid`
end to end (host wall time of the whole process), twelve rounds on the
same host, the three builds in rotating order, medians with quartiles:

| `sweep scaling-grid` | before | concurrent, every system takes `available_parallelism()` threads | concurrent, idle hardware threads only |
|---|---:|---:|---:|
| default pool (2 workers; same as `--workers 2` here) | 1.349 s [1.301–1.402] | 1.283 s [1.199–1.363] | 1.340 s [1.193–1.492] |
| `--workers 1` | 2.419 s [2.179–2.808] | 1.886 s [1.794–2.020] | 1.809 s [1.623–1.994] |

At the default pool all three are level: each beat the other in 6 or
7 of 12 rounds. An earlier 12-pair set of before against the final
build at the default pool had the final build faster in all 12, by
11% in the median, so this host cannot resolve a difference there
either way. At one worker the final build was faster than before in
12 of 12 rounds (1.32× in the median).

";

/// The memory half of "Where the host time goes": `System::new` cost and
/// peak resident memory before and after guest memory was backed by the
/// program's footprint instead of the address map. A committed
/// measurement, copied through unchanged like [`HOST_TIME`].
const GUEST_MEMORY: &str = "\
### Guest memory: backed by the footprint, not the address map

The same benchmark before and after every memory region (TCDM, main
memory, the L2 copies, the remote-TCDM snapshots and the canonical L2)
was backed only as far as the program writes it (DESIGN.md §13),
instead of allocating the whole 20 MiB map per cluster. `sim.warm_s`
is the median of 3 traced `scaling-grid` runs per side; `setup_s` and
`peak_rss_mb` come from ten interleaved untraced pairs per workload at
the benchmark's 50 s run length, medians with the range in brackets.

| layer / metric | before | after |
|---|---:|---:|
| `sim.warm_s` — 24 × `System::new` | 0.209 s | 0.0004 s |
| `setup_s` — `scaling-grid` | 0.0202 s | 0.0030 s |
| `peak_rss_mb` — `scaling-grid` | 173.3 MiB [173.2–173.5] | 6.25 MiB [6.25–6.25] |
| `peak_rss_mb` — `fig2` | 1.07 MiB [1.06–1.13] | 1.15 MiB [1.15–1.15] |
| `sim.cluster_cycles`, every `model.*` | identical | identical |

A fresh 8-core × 4-cluster `System` now backs no guest bytes; loaded
with `gemm_tiled` it backs its images, and after the run about 1.2 MiB
with the peer snapshots, where it used to hold 86 MiB. `fig2` grew by
about 0.09 MiB: its single cluster used to touch only the pages its
images covered inside the eager buffers, and now allocates each job's
images exactly, leaving freed heap chunks between jobs. End to end,
`scaling-grid` `wall_s` fell from 2.38 to 2.15 s in the median (better
in 8 of 10 pairs, but less than the 2.27–2.51 s interquartile spread of
the parent's runs, so unresolved); `fig2` stayed level (0.275 → 0.256
s, better in 6 of 10).

";
