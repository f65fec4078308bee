//! `perf-report` — the one program that times the engine on the smoke
//! batch: host phase attribution, throughput per worker pool, the
//! `BENCH_sim.json` lines and the guards CI gates on.
//!
//! ```text
//! perf-report                          # pools 1,4,8, every guard
//! perf-report --record                 # ... and rewrite BENCH_sim.json
//! perf-report --metrics METRICS.json --chrome host.trace.json
//! perf-report --validate METRICS.json  # schema-check an existing file
//! ```
//!
//! Engine pools are clamped to the host's parallelism, so each requested
//! pool is measured at its *effective* size, and a pool that clamps to an
//! already-measured size is not measured again. In each pool:
//!
//! * the first pass is **cold** (a fresh engine, so program compile and
//!   verification are paid) and runs with telemetry on. It feeds the phase
//!   report, the `batch`/`phase`/`worker` lines of `METRICS.json`, the
//!   scaling diagnosis and the verify guard, and warms the engine;
//! * every throughput comes from **warm** passes with telemetry off,
//!   repeated until they span [`WARM_WINDOW`], keeping the fastest. A
//!   multi-worker pool interleaves its passes with 1-worker ones, so host
//!   drift hits both. That ratio is the
//!   `scaling_vs_workers1` of `BENCH_sim.json` and the `scaling` line of
//!   `METRICS.json`.
//!
//! The run prints one `BENCH_sim.json` line per pool and a single-worker
//! `multicore` line (`gemm_tiled` and `pi_lcg_par` on one 8-core cluster).
//! Only `--record` writes them to `BENCH_sim.json` in the current directory,
//! so an ordinary run never moves the baseline it is judged against. Every
//! guard runs and reports through
//! [`guard::Verdict`]; the run fails if any guard fails:
//!
//! * **regression** (smoke and multicore): the 1-worker cycles/s may not
//!   drop more than 20% below the committed line of the same workload. The
//!   comparison is refused when that line measured other jobs or cycles;
//! * **telemetry overhead**: enabled telemetry within 2% of disabled;
//! * **verify overhead**: one cold verification pass within 5% of the cold
//!   passes' wall time.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use snitch_engine::{job, Engine, JobSpec};
use snitch_telemetry::guard::{self, Outcome, Verdict};
use snitch_telemetry::{chrome, metrics, Phase, Report, Telemetry, WorkerSummary};
use snitch_trace::json;

const USAGE: &str = "\
usage: perf-report [OPTIONS]

Times the engine on the smoke job grid per worker pool: cold-pass phase
attribution and scaling diagnosis, warm-pass throughput, the BENCH_sim.json
lines, and the regression, telemetry-overhead and verify-overhead guards.

Options:
  --workers LIST    worker pools to measure (default: 1,4,8; the 1-worker
                    pool always runs, each effective pool runs once)
  --metrics PATH    write METRICS.json lines for every measured pool
  --chrome PATH     write a Chrome/Perfetto trace of the last pool's cold pass
  --validate PATH   validate an existing METRICS.json file and exit
  --record          write the measured lines to BENCH_sim.json (the committed
                    baseline; refused when a regression guard fails)
";

/// The committed-baseline file in the current directory: always read,
/// rewritten only with `--record`.
const BENCH_FILE: &str = "BENCH_sim.json";

/// Wall time the warm passes of one throughput span at least; each
/// throughput keeps its fastest pass. A smoke pass takes tens of
/// milliseconds, and on a shared host a few such passes can all land in one
/// contended stretch, reading tens of percent slow: the window holds enough
/// passes that one of them runs clear.
const WARM_WINDOW: Duration = Duration::from_secs(1);

/// Allowed single-worker slowdown relative to the committed baseline.
const REGRESSION_TOLERANCE: f64 = 0.80;

struct Args {
    workers: Vec<usize>,
    metrics: Option<String>,
    chrome: Option<String>,
    validate: Option<String>,
    record: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workers: vec![1, 4, 8], metrics: None, chrome: None, validate: None, record: false };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--workers" => {
                args.workers = value_of("--workers")?
                    .split(',')
                    .map(|v| v.trim().parse().map_err(|_| format!("--workers: bad value `{v}`")))
                    .collect::<Result<_, _>>()?;
                if args.workers.contains(&0) {
                    return Err("--workers: counts must be positive".to_string());
                }
            }
            "--metrics" => args.metrics = Some(value_of("--metrics")?),
            "--chrome" => args.chrome = Some(value_of("--chrome")?),
            "--validate" => args.validate = Some(value_of("--validate")?),
            "--record" => args.record = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The distinct effective pools to measure, in request order and led by
/// the 1-worker pool (the regression guard's line and every scaling
/// ratio's base). `effective` maps a requested size to the size the
/// engine runs.
fn distinct_pools(requested: &[usize], effective: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut pools = vec![effective(1)];
    for &w in requested {
        let w = effective(w);
        if !pools.contains(&w) {
            pools.push(w);
        }
    }
    pools
}

/// A pool's cold pass: wall time, simulated cycles and span attribution.
struct Cold {
    workers: usize,
    wall_ns: u64,
    cycles: u64,
    report: Report,
}

impl Cold {
    fn cps(&self) -> f64 {
        self.cycles as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// The first pass of a fresh engine, with telemetry on.
fn cold_pass(engine: &Engine, jobs: &[JobSpec]) -> Cold {
    let tel = Telemetry::new();
    let t0 = Instant::now();
    let records = engine.run_with(jobs, &tel);
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert!(records.iter().all(|r| r.ok), "the smoke batch must validate");
    Cold {
        workers: engine.workers(),
        wall_ns,
        cycles: records.iter().map(|r| r.cycles).sum(),
        report: Report::new(&tel.spans(), wall_ns),
    }
}

/// One warm pass, telemetry off.
struct Warm {
    /// The batch's name (`smoke` or `multicore`).
    workload: &'static str,
    workers: usize,
    jobs: usize,
    instructions: u64,
    cycles: u64,
    wall: f64,
}

impl Warm {
    fn cps(&self) -> f64 {
        self.cycles as f64 / self.wall
    }

    /// One `BENCH_sim.json` line. Multi-worker lines carry their throughput
    /// relative to the 1-worker pool; the 1-worker line keeps the exact
    /// historical shape, since [`committed_baseline`] of future checkouts
    /// parses it.
    fn json_line(&self, scaling_vs_workers1: Option<f64>) -> String {
        let scaling = scaling_vs_workers1
            .map_or(String::new(), |r| format!(",\"scaling_vs_workers1\":{r:.3}"));
        format!(
            "{{\"benchmark\":\"sim\",\"workload\":\"{}\",\"jobs\":{},\"workers\":{},\
             \"simulated_instructions\":{},\"simulated_cycles\":{},\
             \"wall_seconds\":{:.6},\"instructions_per_second\":{:.0},\
             \"cycles_per_second\":{:.0}{scaling}}}",
            self.workload,
            self.jobs,
            self.workers,
            self.instructions,
            self.cycles,
            self.wall,
            self.instructions as f64 / self.wall,
            self.cps(),
        )
    }
}

fn warm_pass(engine: &Engine, workload: &'static str, jobs: &[JobSpec]) -> Warm {
    let t0 = Instant::now();
    let records = engine.run(jobs);
    let wall = t0.elapsed().as_secs_f64();
    assert!(records.iter().all(|r| r.ok), "the {workload} batch must validate");
    Warm {
        workload,
        workers: engine.workers(),
        jobs: records.len(),
        instructions: records.iter().map(|r| r.instructions).sum(),
        cycles: records.iter().map(|r| r.cycles).sum(),
        wall,
    }
}

/// The fastest of the given warm passes.
fn fastest(passes: Vec<Warm>) -> Warm {
    passes.into_iter().min_by(|a, b| a.wall.total_cmp(&b.wall)).expect("at least one pass")
}

/// Calls `pass` until the calls span [`WARM_WINDOW`] (at least once).
fn over_window<T>(mut pass: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = vec![pass()];
    while t0.elapsed() < WARM_WINDOW {
        out.push(pass());
    }
    out
}

fn warm_passes(engine: &Engine, workload: &'static str, jobs: &[JobSpec]) -> Vec<Warm> {
    over_window(|| warm_pass(engine, workload, jobs))
}

/// One measured pool.
struct Pool {
    cold: Cold,
    warm: Warm,
    /// Warm cycles/s of the 1-worker passes timed alongside `warm`.
    base_cps: f64,
}

impl Pool {
    /// Warm throughput relative to the 1-worker pool.
    fn scaling(&self) -> f64 {
        self.warm.cps() / self.base_cps
    }
}

/// A 1-worker line of a committed `BENCH_sim.json`.
#[derive(Debug, PartialEq)]
struct Baseline {
    jobs: usize,
    cycles: u64,
    cycles_per_second: f64,
}

/// The 1-worker line of `workload` in a committed `BENCH_sim.json`. `None`
/// when there is no such line: a missing file reads as empty, and a line
/// that does not parse is skipped, so a fresh checkout never fails its
/// first run.
fn committed_baseline(contents: &str, workload: &str) -> Option<Baseline> {
    contents.lines().find_map(|line| {
        let v = json::parse(line).ok()?;
        let number = |key| v.get(key).and_then(json::Value::as_f64);
        if v.get("workload")?.as_str()? != workload || number("workers")? != 1.0 {
            return None;
        }
        Some(Baseline {
            jobs: number("jobs")? as usize,
            cycles: number("simulated_cycles")? as u64,
            cycles_per_second: number("cycles_per_second")?,
        })
    })
}

/// The throughput-regression guard of one workload's 1-worker line.
fn regression_guard(best: &Warm, baseline: Option<&Baseline>) -> Verdict {
    let name = format!("{} regression", best.workload);
    let verdict = |outcome, detail| Verdict::new(&name, outcome, detail);
    let Some(base) = baseline else {
        return verdict(Outcome::Skipped, format!("no committed {BENCH_FILE} line"));
    };
    if (base.jobs, base.cycles) != (best.jobs, best.cycles) {
        return verdict(
            Outcome::Skipped,
            format!(
                "refused: the committed line measured {} jobs and {} simulated cycles, this \
                 batch is {} jobs and {} cycles; commit the regenerated {BENCH_FILE}",
                base.jobs, base.cycles, best.jobs, best.cycles
            ),
        );
    }
    let (rate, base_rate) = (best.cps(), base.cycles_per_second);
    let outcome =
        if rate >= base_rate * REGRESSION_TOLERANCE { Outcome::Held } else { Outcome::Failed };
    verdict(
        outcome,
        format!(
            "{:.2} M cycles/s vs committed {:.2} M (budget -{:.0}%)",
            rate / 1e6,
            base_rate / 1e6,
            (1.0 - REGRESSION_TOLERANCE) * 100.0
        ),
    )
}

/// The "where did the speedup go" comparison of the 1-worker cold pass and
/// the slowest other pool's: per-bucket worker-time ledger, largest first,
/// closing with the dominant cause.
fn diagnose(pools: &[Pool]) -> Vec<String> {
    let base = &pools[0].cold;
    let Some(worst) = pools[1..].iter().map(|p| &p.cold).min_by(|a, b| a.cps().total_cmp(&b.cps()))
    else {
        return vec![format!(
            "one distinct pool ran ({} worker): no scaling to diagnose",
            base.workers
        )];
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    // Worker-time ledger of the worst pool, against the base pool's busy
    // time as the "useful work" yardstick (the job set is identical).
    let budget_ns = worst.wall_ns * worst.report.workers.len().max(1) as u64;
    let sim_base = base.report.phase_total(Phase::Simulate);
    let sim_worst = worst.report.phase_total(Phase::Simulate);
    let idle = |f: fn(&WorkerSummary) -> u64| worst.report.workers.iter().map(f).sum();
    let mut buckets = [
        (
            format!(
                "simulation inflation (simulate span total grew {:.2}ms -> {:.2}ms for the \
                 same jobs: concurrent clusters contend for host memory bandwidth/caches)",
                ms(sim_base),
                ms(sim_worst)
            ),
            sim_worst.saturating_sub(sim_base),
        ),
        (
            "program assembly (compile + cache lookups)".to_string(),
            worst.report.phase_total(Phase::Compile) + worst.report.phase_total(Phase::CacheHit),
        ),
        ("cluster construction (warm)".to_string(), worst.report.phase_total(Phase::Warm)),
        ("cluster reset".to_string(), worst.report.phase_total(Phase::Reset)),
        (
            "worker startup skew (thread spawn to first span)".to_string(),
            idle(WorkerSummary::startup_ns),
        ),
        ("inter-job gaps (queue/slot handoff)".to_string(), idle(WorkerSummary::gap_ns)),
        (
            "collection-barrier wait (ran out of jobs early)".to_string(),
            idle(WorkerSummary::barrier_ns),
        ),
    ];
    buckets.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    let pct = |ns: u64| 100.0 * ns as f64 / budget_ns as f64;
    let mut lines = vec![
        format!(
            "cold passes, workers {} -> {}: {:.2}M -> {:.2}M cycles/s (ratio {:.2}, ideal {}.00)",
            base.workers,
            worst.workers,
            base.cps() / 1e6,
            worst.cps() / 1e6,
            worst.cps() / base.cps(),
            worst.workers
        ),
        format!(
            "worker-time budget at {} workers: {:.2}ms ({} x {:.2}ms wall); the same jobs took \
             {:.2}ms of simulate time at {} worker(s)",
            worst.workers,
            ms(budget_ns),
            worst.report.workers.len().max(1),
            ms(worst.wall_ns),
            ms(sim_base),
            base.workers
        ),
    ];
    for (label, ns) in buckets.iter().filter(|(_, ns)| *ns > 0) {
        lines.push(format!("  {:>6.1}% of budget  {:>9.2}ms  {label}", pct(*ns), ms(*ns)));
    }
    let (label, ns) = &buckets[0];
    lines.push(format!(
        "dominant cause: {label} ({:.2}ms, {:.1}% of the worker-time budget)",
        ms(*ns),
        pct(*ns)
    ));
    lines
}

/// Enabled telemetry against a disabled handle, on a warm engine.
fn telemetry_guard(engine: &Engine, jobs: &[JobSpec]) -> Verdict {
    let time = |tel: &Telemetry| {
        let t0 = Instant::now();
        let records = engine.run_with(jobs, tel);
        assert!(records.iter().all(|r| r.ok), "guard batch must validate");
        t0.elapsed()
    };
    let result = guard::overhead_guard(|| time(&Telemetry::off()), || time(&Telemetry::new()));
    Verdict::overhead("telemetry overhead", result)
}

/// Static verification's cost. Each cold pass re-verifies, but a real sweep
/// (many seeds and configs per program, one engine) verifies once per
/// distinct program and serves cached diagnostics after that. So the guard
/// charges ONE cold verification (the 1-worker pass's) against all cold
/// passes' wall time. The verify:compile ratio is reported, never gated: it
/// can never be small, since verification walks every instruction several
/// times per hart while assembly is a single emit pass.
fn verify_guard(pools: &[Pool]) -> Verdict {
    let base = &pools[0].cold.report;
    let (verify_ns, compile_ns) =
        (base.phase_total(Phase::Verify), base.phase_total(Phase::Compile));
    let wall_ns: u64 = pools.iter().map(|p| p.cold.wall_ns).sum();
    let pct = 100.0 * verify_ns as f64 / wall_ns as f64;
    let detail = format!(
        "{:.3}ms across {:.3}ms of cold passes ({pct:.2}%, budget 5%; {:.1}x the {:.3}ms \
         assembly time)",
        verify_ns as f64 / 1e6,
        wall_ns as f64 / 1e6,
        verify_ns as f64 / compile_ns.max(1) as f64,
        compile_ns as f64 / 1e6,
    );
    let outcome = if verify_ns * 20 > wall_ns { Outcome::Failed } else { Outcome::Held };
    Verdict::new("verify overhead", outcome, detail)
}

fn write(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("perf-report: writing {path}: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("perf-report: {msg}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.validate {
        let contents = std::fs::read_to_string(path).map_err(|e| e.to_string());
        return match contents.and_then(|c| metrics::validate(&c)) {
            Ok(n) => {
                println!("perf-report: {path}: {n} valid metric lines");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perf-report: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn run(args: &Args) -> Result<(), ExitCode> {
    // The batch is fixed (built-in catalog only, deterministic order), so
    // runs are comparable across commits.
    let jobs = job::smoke();
    let committed = std::fs::read_to_string(BENCH_FILE).unwrap_or_default();
    let sizes = distinct_pools(&args.workers, |w| Engine::new(w).workers());

    let engine1 = Engine::new(1);
    let cold = cold_pass(&engine1, &jobs);
    let warm = fastest(warm_passes(&engine1, "smoke", &jobs));
    let mut pools = vec![Pool { cold, base_cps: warm.cps(), warm }];
    for &size in &sizes[1..] {
        let engine = Engine::new(size);
        let cold = cold_pass(&engine, &jobs);
        let (warm, warm1): (Vec<_>, Vec<_>) = over_window(|| {
            (warm_pass(&engine, "smoke", &jobs), warm_pass(&engine1, "smoke", &jobs))
        })
        .into_iter()
        .unzip();
        let (warm, warm1) = (fastest(warm), fastest(warm1));
        assert_eq!(warm.cycles, warm1.cycles, "simulated cycles must not depend on the pool");
        pools.push(Pool { cold, warm, base_cps: warm1.cps() });
    }

    for p in &pools {
        println!("=== {} worker(s), cold pass with telemetry ===", p.cold.workers);
        print!("{}", p.cold.report.render_text());
        println!(
            "warm throughput (telemetry off, fastest pass of {:.1}s): {:.2}M simulated \
             cycles/s, {:.2}x the 1-worker pool\n",
            WARM_WINDOW.as_secs_f64(),
            p.warm.cps() / 1e6,
            p.scaling(),
        );
    }
    println!("--- scaling diagnosis ---");
    for line in diagnose(&pools) {
        println!("{line}");
    }

    // The multicore line: single worker, after the smoke lines (older
    // checkouts read the first 1-worker line as the smoke baseline).
    let multicore = job::multicore();
    let _ = engine1.run(&multicore);
    let multicore = fastest(warm_passes(&engine1, "multicore", &multicore));

    let verdicts = [
        regression_guard(&pools[0].warm, committed_baseline(&committed, "smoke").as_ref()),
        regression_guard(&multicore, committed_baseline(&committed, "multicore").as_ref()),
        telemetry_guard(&engine1, &jobs),
        verify_guard(&pools),
    ];

    let mut bench = String::new();
    for (i, p) in pools.iter().enumerate() {
        bench += &p.warm.json_line((i > 0).then(|| p.scaling()));
        bench.push('\n');
    }
    bench += &multicore.json_line(None);
    bench.push('\n');
    print!("{bench}");
    // Only `--record` moves the baseline, and a slow run never becomes it.
    if args.record {
        if verdicts[..2].iter().any(Verdict::failed) {
            eprintln!("perf-report: {BENCH_FILE} left as it was: a regression guard failed");
        } else {
            write(BENCH_FILE, &bench)?;
        }
    }

    if let Some(path) = &args.metrics {
        let mut out = String::new();
        for p in &pools {
            out += &metrics::render(p.cold.workers, &p.cold.report);
            out += &metrics::render_scaling("smoke", 1, p.base_cps, p.warm.workers, p.warm.cps());
        }
        debug_assert!(metrics::validate(&out).is_ok());
        write(path, &out)?;
    }
    if let Some(path) = &args.chrome {
        let last = &pools.last().expect("at least one pool").cold;
        write(path, &chrome::render(last.report.spans()))?;
    }

    for v in &verdicts {
        eprintln!("perf-report: {v}");
    }
    if verdicts.iter().any(Verdict::failed) {
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_record_rewrites_the_baseline() {
        let args = |argv: &[&str]| {
            parse_args(&argv.iter().map(ToString::to_string).collect::<Vec<_>>()).unwrap()
        };
        assert!(!args(&[]).record, "a plain run leaves BENCH_sim.json alone");
        assert!(!args(&["--metrics", "m.json"]).record);
        assert!(args(&["--record"]).record);
    }

    #[test]
    fn each_effective_pool_is_measured_once() {
        let two_threads = |w: usize| w.clamp(1, 2);
        assert_eq!(distinct_pools(&[1, 4, 8], two_threads), [1, 2], "4 and 8 both clamp to 2");
        assert_eq!(distinct_pools(&[4, 8], two_threads), [1, 2], "the 1-worker pool leads");
        assert_eq!(distinct_pools(&[1, 4, 8], |_| 1), [1], "a 1-thread host");
        assert_eq!(distinct_pools(&[8, 2, 4], |w| w), [1, 8, 2, 4], "request order");
    }

    const COMMITTED: &str = "\
{\"benchmark\":\"sim\",\"workload\":\"smoke\",\"jobs\":24,\"workers\":1,\"simulated_instructions\":505420,\"simulated_cycles\":615471,\"wall_seconds\":0.046159,\"instructions_per_second\":10949432,\"cycles_per_second\":13333579}
{\"benchmark\":\"sim\",\"workload\":\"smoke\",\"jobs\":24,\"workers\":2,\"simulated_instructions\":505420,\"simulated_cycles\":615471,\"wall_seconds\":0.027927,\"instructions_per_second\":18098167,\"cycles_per_second\":22038892,\"scaling_vs_workers1\":1.774}
";

    fn warm(cycles: u64, wall: f64) -> Warm {
        Warm { workload: "smoke", workers: 1, jobs: 24, instructions: 0, cycles, wall }
    }

    #[test]
    fn the_baseline_is_the_workloads_one_worker_line() {
        let base = committed_baseline(COMMITTED, "smoke").expect("the smoke line");
        assert_eq!(base, Baseline { jobs: 24, cycles: 615_471, cycles_per_second: 13_333_579.0 });
        // A line written by this program reads back as itself.
        let line = warm(615_471, 0.05).json_line(None);
        let read = committed_baseline(&line, "smoke").expect("own line");
        assert_eq!((read.jobs, read.cycles), (24, 615_471));
    }

    #[test]
    fn a_missing_or_malformed_baseline_is_skipped_not_fatal() {
        assert_eq!(committed_baseline("", "smoke"), None, "a missing file reads as empty");
        assert_eq!(committed_baseline(COMMITTED, "multicore"), None, "no multicore line");
        let malformed = format!("{{\"workload\":\"smoke\",\"workers\":1,\"jobs\":\n{COMMITTED}");
        assert!(committed_baseline(&malformed, "smoke").is_some(), "a bad line is skipped");
        let verdict = regression_guard(&warm(615_471, 0.05), None);
        assert_eq!(verdict.outcome, Outcome::Skipped);
    }

    #[test]
    fn a_baseline_of_another_workload_is_refused() {
        let base = committed_baseline(COMMITTED, "smoke");
        let verdict = regression_guard(&warm(615_472, 1.0), base.as_ref());
        assert_eq!(verdict.outcome, Outcome::Skipped, "slow, but another workload: {verdict}");
        assert!(verdict.detail.starts_with("refused"));
        let slow = regression_guard(&warm(615_471, 1.0), base.as_ref());
        assert!(slow.failed(), "{slow}");
        let fast = regression_guard(&warm(615_471, 0.04), base.as_ref());
        assert_eq!(fast.outcome, Outcome::Held, "{fast}");
    }
}
