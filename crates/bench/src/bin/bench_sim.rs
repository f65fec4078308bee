//! `bench_sim` — host-side simulator-throughput benchmark, throughput-
//! regression guard and tracing overhead guard.
//!
//! Runs the fixed smoke batch (every built-in kernel, both variants, small
//! sizes) on worker pools of 1, 4 and 8 and reports *simulated cycles per
//! host-second* per pool — the numbers that track the simulator's hot-path
//! performance across PRs. Engine pools are clamped to the host's
//! parallelism, so each line records the *effective* worker count, and a
//! pool that clamps to an already-measured size is not measured twice.
//! Writes one JSON line per pool to `BENCH_sim.json` in the current
//! directory, followed by one single-worker `multicore` line: `gemm_tiled`
//! and `pi_lcg_par` on an 8-core cluster at smoke size, both variants —
//! the shapes that run on the block burst only since it drives every hart.
//!
//! Three guards gate the CI smoke step:
//!
//! * **Throughput-regression guard**: the single-worker cycles/s of the
//!   smoke batch and of the multicore batch must each not drop more than
//!   20% below the committed `BENCH_sim.json` baseline (the workers-1 line
//!   of the same workload in the file in the current directory, read
//!   before it is overwritten). The comparison is refused when that line
//!   measured a different workload (another job count or simulated-cycle
//!   total). Wall-clock noise is damped by taking the fastest of several
//!   passes.
//! * **Tracing overhead guard**: re-running the batch with the trace hook
//!   compiled in and *attached but disabled* (a paused `Tracer`, the worst
//!   case for the hook's branches) must stay within 2% of the untraced
//!   path. The hook is required to be a no-op branch — no event
//!   construction, no allocation — and this guard is where that
//!   requirement is enforced.
//! * **Profiling overhead guard**: the same contract for the cycle-profiler
//!   hook (a paused `Profiler` attached): within 2% of the bare path and
//!   cycle-identical.
//!
//! Both overhead guards use the shared min-of-N interleaved recipe in
//! [`snitch_telemetry::guard`].

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use snitch_asm::program::Program;
use snitch_engine::{job, Engine, JobSpec};
use snitch_kernels::registry::{Kernel, Variant};
use snitch_profile::Profiler;
use snitch_sim::cluster::Cluster;
use snitch_sim::config::ClusterConfig;
use snitch_telemetry::guard;
use snitch_trace::Tracer;

/// The observation hook a guard pass attaches (always paused — the
/// worst case for the hook's branches: present, checked, never recording).
#[derive(Clone, Copy, PartialEq)]
enum Hook {
    None,
    Tracer,
    Profiler,
}

/// Timed passes per measurement (the guard compares minima over repeats).
/// Sized so one measurement spans a few hundred milliseconds: a 2% ratio of
/// a too-short window would gate CI on scheduler noise rather than on the
/// hook's cost.
const GUARD_PASSES: usize = 8;

/// One timed pass over the pre-built batch: reset, (optionally) attach a
/// paused hook, load, run. Returns (wall time, total simulated cycles).
fn guard_pass(programs: &[Program], hook: Hook) -> (Duration, u64) {
    let mut cluster = Cluster::new(ClusterConfig::default());
    let mut cycles = 0u64;
    let t0 = Instant::now();
    for _ in 0..GUARD_PASSES {
        for program in programs {
            cluster.reset();
            match hook {
                Hook::None => {}
                Hook::Tracer => cluster.attach_tracer(Tracer::paused()),
                Hook::Profiler => cluster.attach_profiler(Profiler::paused()),
            }
            cluster.load_program(program);
            let stats = cluster.run().expect("smoke program completes");
            cycles += std::hint::black_box(stats.cycles);
        }
    }
    (t0.elapsed(), cycles)
}

/// The hook overhead guard: wall time with a paused hook attached must stay
/// within [`guard::TOLERANCE`] of the bare path. `what` names the hook in
/// the guard's output ("tracing" / "profiling").
fn hook_overhead_guard(programs: &[Program], hook: Hook, what: &str) {
    // Simulation equality is exact and checked once, outside the timing.
    assert_eq!(
        guard_pass(programs, Hook::None).1,
        guard_pass(programs, hook).1,
        "a paused {what} hook must not perturb the simulation by a single cycle"
    );
    let time = |h| guard_pass(programs, h).0;
    match guard::overhead_guard(|| time(Hook::None), || time(hook)) {
        Ok(m) => eprintln!(
            "bench_sim: {what} overhead guard ok — disabled hook {:+.2}% vs bare \
             ({:.4}s vs {:.4}s over {GUARD_PASSES} passes, min of {}, attempt {}/{})",
            m.overhead_pct(),
            m.hooked.as_secs_f64(),
            m.bare.as_secs_f64(),
            guard::REPEATS,
            m.attempt,
            guard::ATTEMPTS,
        ),
        Err(m) => panic!(
            "{what}-disabled path is consistently more than {:.0}% slower than the bare path \
             ({:.4}s vs {:.4}s on the final attempt): the {what} hook must stay a no-op \
             branch with no allocation",
            (guard::TOLERANCE - 1.0) * 100.0,
            m.hooked.as_secs_f64(),
            m.bare.as_secs_f64(),
        ),
    }
}

/// Worker-pool sizes requested per run. The single-worker entry is the
/// per-core number the regression guard compares across commits; the
/// multi-worker entries track scaling of the engine's pool.
const WORKER_POOLS: [usize; 3] = [1, 4, 8];

/// Allowed single-worker slowdown relative to the committed baseline.
const REGRESSION_TOLERANCE: f64 = 0.80;

/// Timed passes per pool; each pool records its fastest.
const REGRESSION_ATTEMPTS: usize = 3;

/// The multicore batch: the data-parallel and the tiled kernel on one
/// 8-core cluster at their smoke points, both variants.
fn multicore_jobs() -> Vec<JobSpec> {
    let config = ClusterConfig { cores: 8, ..ClusterConfig::default() };
    let mut jobs = Vec::new();
    for kernel in [Kernel::GemmTiled, Kernel::PiLcgPar] {
        let (n, block) = kernel.smoke_point();
        for variant in Variant::all() {
            jobs.push(JobSpec::new(kernel, variant, n, block).with_config(config.clone()));
        }
    }
    jobs
}

/// One measured result line for a worker-pool size.
struct Measurement {
    /// The batch's name (`smoke` or `multicore`).
    workload: &'static str,
    /// The engine's effective worker count (the request clamped to the
    /// host's parallelism).
    workers: usize,
    jobs: usize,
    instructions: u64,
    cycles: u64,
    wall: f64,
}

impl Measurement {
    fn cycles_per_second(&self) -> f64 {
        self.cycles as f64 / self.wall
    }

    /// One JSON line. Multi-worker entries carry their throughput relative
    /// to the workers-1 entry of the same run (`scaling_vs_workers1`); the
    /// workers-1 line keeps the exact historical shape, since
    /// [`committed_baseline`] of future checkouts parses it.
    fn json_line(&self, scaling_vs_workers1: Option<f64>) -> String {
        let mut line = format!(
            "{{\"benchmark\":\"sim\",\"workload\":\"{}\",\"jobs\":{},\"workers\":{},\
             \"simulated_instructions\":{},\"simulated_cycles\":{},\
             \"wall_seconds\":{:.6},\"instructions_per_second\":{:.0},\
             \"cycles_per_second\":{:.0}}}",
            self.workload,
            self.jobs,
            self.workers,
            self.instructions,
            self.cycles,
            self.wall,
            self.instructions as f64 / self.wall,
            self.cycles_per_second(),
        );
        if let Some(ratio) = scaling_vs_workers1 {
            line.pop();
            let _ = write!(line, ",\"scaling_vs_workers1\":{ratio:.3}}}");
        }
        line
    }
}

/// Times one engine pass over a warm batch.
fn measure(engine: &Engine, workload: &'static str, jobs: &[JobSpec]) -> Measurement {
    let t0 = Instant::now();
    let records = engine.run(jobs);
    let wall = t0.elapsed().as_secs_f64();
    let failed = records.iter().filter(|r| !r.ok).count();
    assert_eq!(failed, 0, "{workload} batch must validate before its timing means anything");
    Measurement {
        workload,
        workers: engine.workers(),
        jobs: records.len(),
        instructions: records.iter().map(|r| r.instructions).sum(),
        cycles: records.iter().map(|r| r.cycles).sum(),
        wall,
    }
}

/// The fastest of [`REGRESSION_ATTEMPTS`] passes: on a noisy host a single
/// timing window over- or under-states reproducible throughput by tens of
/// percent in either direction.
fn fastest(engine: &Engine, workload: &'static str, jobs: &[JobSpec]) -> Measurement {
    (0..REGRESSION_ATTEMPTS)
        .map(|_| measure(engine, workload, jobs))
        .min_by(|a, b| a.wall.total_cmp(&b.wall))
        .expect("at least one pass")
}

/// A workers-1 line of a committed `BENCH_sim.json`: the workload it
/// measured and the throughput it recorded.
struct Baseline {
    jobs: usize,
    cycles: u64,
    cycles_per_second: f64,
}

/// The number after `"key":` in a flat JSON line.
fn json_number(line: &str, key: &str) -> Option<f64> {
    let tail = line.split(&format!("\"{key}\":")).nth(1)?;
    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
    digits.parse().ok()
}

/// Extracts the workers-1 entry of `workload` from a committed
/// `BENCH_sim.json` (JSON-lines). Returns `None` when the file, or the
/// workload's line, is absent or unparseable — a fresh checkout must not
/// fail its first benchmark run.
fn committed_baseline(contents: &str, workload: &str) -> Option<Baseline> {
    let tag = format!("\"workload\":\"{workload}\"");
    let line =
        contents.lines().find(|l| l.contains(&tag) && json_number(l, "workers") == Some(1.0))?;
    Some(Baseline {
        jobs: json_number(line, "jobs")? as usize,
        cycles: json_number(line, "simulated_cycles")? as u64,
        cycles_per_second: json_number(line, "cycles_per_second")?,
    })
}

/// The throughput-regression guard against the committed baseline.
fn regression_guard(best: &Measurement, baseline: Option<&Baseline>) {
    let workload = best.workload;
    let Some(base) = baseline else {
        eprintln!("bench_sim: no committed {workload} baseline found; regression guard skipped");
        return;
    };
    if (base.jobs, base.cycles) != (best.jobs, best.cycles) {
        eprintln!(
            "bench_sim: {workload} regression guard refused — the committed baseline measured \
             {} jobs and {} simulated cycles, this batch is {} jobs and {} cycles; commit the \
             regenerated BENCH_sim.json",
            base.jobs, base.cycles, best.jobs, best.cycles,
        );
        return;
    }
    let (rate, base_rate) = (best.cycles_per_second(), base.cycles_per_second);
    assert!(
        rate >= base_rate * REGRESSION_TOLERANCE,
        "simulator throughput regressed on the {workload} batch: {:.2} M cycles/s is more \
         than {:.0}% below the committed baseline of {:.2} M cycles/s (BENCH_sim.json)",
        rate / 1e6,
        (1.0 - REGRESSION_TOLERANCE) * 100.0,
        base_rate / 1e6,
    );
    eprintln!(
        "bench_sim: {workload} regression guard ok — {:.2} M cycles/s vs committed {:.2} M",
        rate / 1e6,
        base_rate / 1e6,
    );
}

fn main() {
    // The batch is fixed (built-in catalog only, deterministic order), so
    // runs are comparable across commits.
    let jobs = job::smoke();
    let committed = std::fs::read_to_string("BENCH_sim.json").unwrap_or_default();

    let engine1 = Engine::new(1);
    let _ = engine1.run(&jobs); // warm-up: compile every program into the cache
    let best = fastest(&engine1, "smoke", &jobs);
    regression_guard(&best, committed_baseline(&committed, "smoke").as_ref());

    // Multi-worker entries: same batch, bigger pools, so the perf
    // trajectory records scaling alongside the per-core number.
    let mut lines = vec![best.json_line(None)];
    let mut measured = vec![engine1.workers()];
    for requested in &WORKER_POOLS[1..] {
        let engine = Engine::new(*requested);
        if measured.contains(&engine.workers()) {
            eprintln!(
                "bench_sim: a {requested}-worker pool runs {} worker(s) on this host, \
                 already measured",
                engine.workers()
            );
            continue;
        }
        measured.push(engine.workers());
        let _ = engine.run(&jobs);
        // Interleave pool and workers-1 measurements and compare minima:
        // host clock drift over the benchmark's lifetime would otherwise
        // masquerade as a pool slowdown (the workers-1 entry is measured
        // first, when the process tends to run fastest).
        let mut m: Option<Measurement> = None;
        let mut base1: Option<Measurement> = None;
        for _ in 0..REGRESSION_ATTEMPTS {
            let pool = measure(&engine, "smoke", &jobs);
            if m.as_ref().is_none_or(|best| pool.wall < best.wall) {
                m = Some(pool);
            }
            let one = measure(&engine1, "smoke", &jobs);
            if base1.as_ref().is_none_or(|best| one.wall < best.wall) {
                base1 = Some(one);
            }
        }
        let m = m.expect("at least one attempt");
        let base_cps = base1.expect("at least one attempt").cycles_per_second();
        assert_eq!(
            m.cycles, best.cycles,
            "simulated cycles must be identical across worker counts"
        );
        let ratio = m.cycles_per_second() / base_cps;
        // Scaling clearly below 1.0 means the pool is a net loss on this
        // batch (the 5% band absorbs measurement noise at parity). Warn —
        // don't fail CI on it: `perf-report` attributes the loss phase by
        // phase.
        if ratio < 0.95 {
            eprintln!(
                "bench_sim: WARNING: workers={} runs {ratio:.2}x the single-worker \
                 throughput (< 1.0) — the pool is a net slowdown on the smoke batch; \
                 run `perf-report` for the phase attribution",
                m.workers
            );
        }
        lines.push(m.json_line(Some(ratio)));
    }

    // The multicore line: single worker, after the smoke lines (older
    // checkouts read the first workers-1 line as the smoke baseline).
    let multicore = multicore_jobs();
    let _ = engine1.run(&multicore);
    let best_multicore = fastest(&engine1, "multicore", &multicore);
    regression_guard(&best_multicore, committed_baseline(&committed, "multicore").as_ref());
    lines.push(best_multicore.json_line(None));

    let json = lines.join("\n") + "\n";
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    print!("{json}");
    eprintln!(
        "bench_sim: {} jobs, {} simulated instructions in {:.3}s single-worker \
         ({:.2} M inst/s)",
        best.jobs,
        best.instructions,
        best.wall,
        best.instructions as f64 / best.wall / 1e6,
    );

    // The overhead guards run the same smoke programs through a bare
    // cluster loop (no engine, no validation) so the comparison isolates
    // the simulator hot path the hooks sit on.
    let programs: Vec<Program> = jobs
        .iter()
        .map(|j| j.kernel.build_for(j.variant, j.n, j.block, j.config.cores()))
        .collect();
    hook_overhead_guard(&programs, Hook::Tracer, "tracing");
    hook_overhead_guard(&programs, Hook::Profiler, "profiling");
}
