//! One benchmark run: a cold engine pass, cold set-ups, a reference pass,
//! then interleaved warm engine passes (and, when tracing, traced and
//! untraced layer-pipeline passes) for the requested time, every output
//! checked. Each timing is the fastest of its samples (see [`fastest`]); the
//! tail is the 11th-slowest engine pass.

use std::time::{Duration, Instant};

use snitch_engine::{sink, Engine, JobSpec, RunRecord};

use crate::host::{self, Host};
use crate::layers::{self, Layer, Pass, Span};
use crate::paper::Fidelity;
use crate::workload::{self, Workload};

/// Cold set-ups before the first pass, and again after every engine pass,
/// so the set-up samples span the whole run like the pass samples do.
pub const SETUPS_PER_ROUND: usize = 3;
/// Fewest engine passes in an untraced run.
pub const MIN_PASSES: usize = 11;
/// Fewest traced passes (and untraced passes) per traced run.
pub const MIN_TRACED_PASSES: usize = 3;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Orders the interleaved passes; the job batches themselves are fixed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: u64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// One named measurement.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Options the run used.
    pub options: Options,
    /// Whether every output was correct.
    pub correct: bool,
    /// Jobs attempted over every pass.
    pub attempted: u64,
    /// Jobs that failed, or whose record differs from the reference.
    pub failed: u64,
    /// Workload fingerprint.
    pub fingerprint: u64,
    /// Host facts.
    pub host: Host,
    /// Wall time of every warm engine pass, in seconds, in run order.
    pub walls: Vec<f64>,
    /// Traced pass count.
    pub traced_passes: usize,
    /// End-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// The spans of the last traced pass.
    pub spans: Vec<Span>,
    /// Human-readable remarks (failures, validation status).
    pub notes: Vec<String>,
}

/// Compares every pass's records with the reference pass, job by job, on
/// the full serialized record (cycles, instructions, energy and the stall
/// and memory counters).
struct Checker {
    reference: Vec<String>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn new(reference: &[RunRecord]) -> Self {
        Checker {
            reference: reference.iter().map(RunRecord::json_line).collect(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn check(&mut self, records: &[RunRecord], what: &str) {
        self.attempted += self.reference.len().max(records.len()) as u64;
        self.failed += self.reference.len().abs_diff(records.len()) as u64;
        for (r, want) in records.iter().zip(&self.reference) {
            let differs = r.json_line() != *want;
            if !r.ok || differs {
                self.failed += 1;
                if self.notes.len() < 8 {
                    let why = r.error.as_deref().unwrap_or("record differs from the reference");
                    self.notes.push(format!("{what}: {}: {why}", r.job.label()));
                }
            }
        }
    }
}

/// Times of one traced pass: its wall time and each layer's total.
struct Traced {
    wall: Duration,
    layers: Vec<(Layer, Duration)>,
}

impl Traced {
    fn of(pass: &Pass) -> Self {
        let layers = Layer::ALL.iter().map(|&l| (l, layers::layer_time(&pass.spans, l))).collect();
        Traced { wall: pass.wall, layers }
    }

    fn layer(&self, layer: Layer) -> Duration {
        self.layers.iter().find(|(l, _)| *l == layer).map_or(Duration::ZERO, |(_, d)| *d)
    }

    /// The time every span covers: the layer calls' share of a pass.
    fn covered(&self) -> Duration {
        self.layers.iter().map(|(_, d)| *d).sum()
    }
}

/// Runs the benchmark.
///
/// # Panics
///
/// Panics only on a broken internal condition (no set-up was made).
#[must_use]
pub fn run(options: Options) -> Outcome {
    let jobs = options.workload.jobs();
    // The cold engine pass, which fills the program cache, comes first: the
    // peak resident memory read straight after it is the engine's alone,
    // before the benchmark's own set-ups and reference passes allocate.
    let engine = Engine::new(1);
    let cold = engine.run(&jobs);
    let rss = host::peak_rss_mib();

    // Cold set-ups: each is timed, then dropped, except the last, whose
    // programs every later pass uses.
    let mut setups: Vec<[Duration; 3]> = Vec::new();
    let setup = (0..SETUPS_PER_ROUND)
        .map(|_| timed_setup(&jobs, &mut setups))
        .last()
        .expect("at least one set-up");
    let setup = &setup;

    // The reference pass: every other pass must reproduce it record for record.
    let reference = layers::pass(&jobs, setup);
    let mut checker = Checker::new(&reference.records);
    checker.check(&reference.records, "reference pass");
    checker.check(&cold, "cold engine pass");
    drop(cold);
    let paths = reference.total_paths();
    let model = model_metrics(&reference.records);
    let instructions: u64 = reference.records.iter().map(|r| r.instructions).sum();
    let systems_built = reference.systems_built;

    // Paper fidelity comes from the untraced Figure 2 batch.
    let fidelity = if options.workload == Workload::Fig2 {
        Fidelity::from_records(&reference.records)
    } else {
        let fig2 = Workload::Fig2.jobs();
        Fidelity::from_records(&layers::pass(&fig2, &layers::setup(&fig2)).records)
    };
    drop(reference);
    let fingerprint = workload::fingerprint(&jobs, paths.cluster_cycles, engine.workers());

    // One round: a warm engine pass followed by more cold set-ups and, when
    // tracing, a traced and an untraced layer-pipeline pass, in an order the
    // seed shuffles anew every round.
    let mut steps = vec![Step::Engine];
    if options.trace {
        steps.extend([Step::Traced, Step::Untraced]);
    }
    let mut passes: Vec<Vec<Duration>> = Vec::new();
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut last_spans = Vec::new();
    let mut rng = SplitMix(options.seed);
    let budget = Duration::from_secs(options.seconds);
    let start = Instant::now();
    loop {
        for i in (1..steps.len()).rev() {
            steps.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        for step in &steps {
            match step {
                Step::Engine => {
                    passes.push(engine_pass(&engine, &jobs, &mut checker));
                    for _ in 0..SETUPS_PER_ROUND {
                        drop(timed_setup(&jobs, &mut setups));
                    }
                }
                Step::Traced => {
                    let pass = layers::pass(&jobs, setup);
                    checker.check(&pass.records, "traced pass");
                    traced.push(Traced::of(&pass));
                    last_spans = pass.spans;
                }
                Step::Untraced => {
                    let pass = layers::untraced_pass(&jobs, setup);
                    checker.check(&pass.records, "untraced pass");
                    untraced.push(pass.wall);
                }
            }
        }
        let enough = if options.trace {
            passes.len() >= MIN_TRACED_PASSES
        } else {
            passes.len() >= MIN_PASSES
        };
        if enough && start.elapsed() >= budget {
            break;
        }
    }

    // On `fig2`, the same batch with a recording tracer must serialize
    // identically, and it supplies the trace-layer counts.
    let trace_events = if options.workload == Workload::Fig2 {
        let traced_jobs = workload::traced_fig2();
        let pass = layers::pass(&traced_jobs, &layers::setup(&traced_jobs));
        checker.check(&pass.records, "traced fig2");
        pass.total_paths().trace_events
    } else {
        paths.trace_events
    };

    let host = Host::collect(engine.workers());
    let mut notes = std::mem::take(&mut checker.notes);
    let walls: Vec<Duration> = passes.iter().map(|p| p.iter().sum()).collect();
    let wall_s = fastest_pass(&passes);
    let setup_s = setup_fastest(&setups, 0);
    let peak_rss = rss.unwrap_or_else(|| {
        notes.push("peak RSS unavailable (no /proc/self/status)".into());
        0.0
    });
    let fidelity_metrics = if let Some(f) = &fidelity {
        notes.push(format!(
            "fig2 steady state: geomean speedup {:.2}x (paper 1.47x), energy improvement \
             {:.2}x (paper 1.37x), peak IPC {:.2} (paper 1.75)",
            f.geomean_speedup(),
            f.geomean_energy(),
            f.peak_ipc()
        ));
        [f.ipc_mape_pct(), f.speedup_mape_pct(), f.energy_mape_pct()]
    } else {
        checker.failed += 1;
        notes.push("the fig2 batch did not yield a steady state".into());
        [0.0; 3]
    };
    if !options.workload.has_paper_reference() {
        notes.push(format!(
            "{}: no paper reference, model unvalidated; paper.* are the fig2 batch's",
            options.workload.name()
        ));
    }
    let attempted = checker.attempted;
    let failed = checker.failed;
    let end_to_end = vec![
        metric("wall_s", "s", wall_s),
        metric("sim_mcycles_per_s", "Mcycles/s", paths.cluster_cycles as f64 / 1e6 / wall_s),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mb", "MiB", peak_rss),
        metric("job_ok_ratio", "ratio", 1.0 - failed as f64 / attempted.max(1) as f64),
        metric("paper.ipc_mape_pct", "%", fidelity_metrics[0]),
        metric("paper.speedup_mape_pct", "%", fidelity_metrics[1]),
        metric("paper.energy_mape_pct", "%", fidelity_metrics[2]),
    ];

    let per_layer = if traced.is_empty() {
        Vec::new()
    } else {
        let n = walls.len();
        notes.push(if n > 10 {
            format!(
                "wall_s_tail is the p{:.0} of {n} engine passes",
                100.0 * (n - 10) as f64 / n as f64
            )
        } else {
            format!("wall_s_tail is the slowest of {n} engine passes (fewer than eleven)")
        });
        let layer_s = |l: Layer| fastest(&traced.iter().map(|t| t.layer(l)).collect::<Vec<_>>());
        // Each round's engine pass set against the same round's traced and
        // untraced passes. Passes of one round run within a second of each
        // other and so mostly share the host's contention, which comes in
        // stretches of seconds: the median of the per-round figures moves
        // far less between runs than a difference of two minima.
        let rounds = || walls.iter().zip(&traced).zip(&untraced);
        // The engine pass less the time its layer calls take: the engine's
        // own executor, program cache and record assembly.
        let other_s = median_f64(
            rounds().map(|((e, t), _)| e.as_secs_f64() - t.covered().as_secs_f64()).collect(),
        );
        let coverage = median_f64(
            rounds().map(|((e, t), _)| t.covered().as_secs_f64() / e.as_secs_f64()).collect(),
        );
        let overhead = median_f64(
            rounds().map(|((_, t), u)| t.wall.as_secs_f64() / u.as_secs_f64() - 1.0).collect(),
        );
        let cycles = paths.cluster_cycles as f64;
        let run_s = layer_s(Layer::Run);
        let mut m = vec![
            metric("wall_s_tail", "s", tail(&walls)),
            metric("sim.run_s", "s", run_s),
            metric("sim.run_ns_per_cycle", "ns", run_s * 1e9 / cycles),
            metric("sim.stepper_share", "ratio", paths.stepper() as f64 / cycles),
            metric("sim.burst_share", "ratio", paths.burst as f64 / cycles),
            metric("sim.skip_share", "ratio", paths.skip as f64 / cycles),
            metric("sim.cluster_cycles", "count", cycles),
            metric("sim.instructions", "count", instructions as f64),
            metric("sim.warm_s", "s", layer_s(Layer::Warm)),
            metric("sim.systems_built", "count", systems_built as f64),
            metric("sim.reset_s", "s", layer_s(Layer::Reset)),
            metric("sim.load_s", "s", layer_s(Layer::Load)),
            metric("kernels.build_s", "s", setup_fastest(&setups, 1)),
            metric("kernels.programs", "count", setup.programs.len() as f64),
            metric("verify.verify_s", "s", setup_fastest(&setups, 2)),
            metric("verify.diagnostics", "count", setup.diagnostics() as f64),
            metric("kernels.check_s", "s", layer_s(Layer::Check)),
            metric("energy.report_s", "s", layer_s(Layer::Energy)),
            metric("engine.sink_s", "s", layer_s(Layer::Sink)),
            metric("engine.other_s", "s", other_s),
            metric("trace.events", "count", trace_events as f64),
            metric("trace.events_per_cycle", "ratio", trace_events as f64 / cycles),
        ];
        m.extend(model.iter().copied());
        m.push(metric("bench.trace_overhead_pct", "%", 100.0 * overhead));
        m.push(metric("bench.span_coverage", "ratio", coverage));
        m
    };

    if let Some(m) = end_to_end.iter().chain(&per_layer).find(|m| !m.value.is_finite()) {
        notes.push(format!("{} is not finite", m.name));
    }
    let finite = end_to_end.iter().chain(&per_layer).all(|m| m.value.is_finite());
    Outcome {
        options,
        correct: failed == 0 && finite,
        attempted,
        failed,
        fingerprint,
        host,
        walls: walls.iter().map(Duration::as_secs_f64).collect(),
        traced_passes: traced.len(),
        end_to_end,
        per_layer,
        spans: last_spans,
        notes,
    }
}

/// One warm engine pass, up to both sinks rendered. The batch runs as one
/// engine call per segment of consecutive jobs that share a system
/// configuration: with one worker the engine builds a fresh `System` at
/// every such boundary anyway, so the segments do the work of a single call
/// (plus one worker-thread spawn each). Returns the time of each segment,
/// then that of the sinks.
fn engine_pass(engine: &Engine, jobs: &[JobSpec], checker: &mut Checker) -> Vec<Duration> {
    let mut times = Vec::new();
    let mut records = Vec::with_capacity(jobs.len());
    for segment in jobs.chunk_by(|a, b| a.config == b.config) {
        let t0 = Instant::now();
        records.extend(engine.run(segment));
        times.push(t0.elapsed());
    }
    let t0 = Instant::now();
    std::hint::black_box((sink::to_jsonl(&records), sink::to_csv(&records)));
    times.push(t0.elapsed());
    checker.check(&records, "engine pass");
    times
}

/// A step of a measuring round.
#[derive(Clone, Copy)]
enum Step {
    /// A warm engine pass, then cold set-ups.
    Engine,
    /// A layer-pipeline pass with every call a span.
    Traced,
    /// The same pass with the recorder off.
    Untraced,
}

/// The simulated-machine counters of a batch, summed over its jobs. A
/// host-only change must leave every one of them bit-identical.
fn model_metrics(records: &[RunRecord]) -> [Metric; 8] {
    let stats: Vec<_> = records.iter().filter_map(|r| r.stats.as_ref()).collect();
    let sum =
        |f: &dyn Fn(&snitch_sim::stats::Stats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>();
    let cycles = sum(&|s| s.cycles) as f64;
    let instructions = sum(&|s| s.instructions()) as f64;
    [
        metric("model.cycles", "count", cycles),
        metric("model.ipc", "ratio", instructions / cycles),
        metric("model.fp_seq_share", "ratio", sum(&|s| s.fp_issued_seq) as f64 / instructions),
        metric(
            "model.stall_cycles",
            "count",
            records.iter().map(RunRecord::stall_cycles).sum::<u64>() as f64,
        ),
        metric("model.tcdm_conflicts", "count", sum(&|s| s.tcdm_conflicts) as f64),
        metric("model.l2_accesses", "count", sum(&|s| s.l2_accesses) as f64),
        metric("model.dma_hop_cycles", "count", sum(&|s| s.dma_hop_cycles) as f64),
        metric("model.energy_uj", "uJ", records.iter().map(|r| r.energy_uj).sum()),
    ]
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// One timed cold set-up; records `[wall, build, verify]` in `setups`.
fn timed_setup(jobs: &[JobSpec], setups: &mut Vec<[Duration; 3]>) -> layers::Setup {
    let s = layers::setup(jobs);
    let span = |l: Layer| layers::layer_time(&s.spans, l);
    setups.push([s.wall, span(Layer::Build), span(Layer::Verify)]);
    s
}

/// The fastest of column `i` of the set-up samples, in seconds.
fn setup_fastest(setups: &[[Duration; 3]], i: usize) -> f64 {
    fastest(&setups.iter().map(|s| s[i]).collect::<Vec<_>>())
}

/// The time of a pass without contention from outside the process: the
/// fastest time of each segment of the pass over every pass, summed, in
/// seconds. A `fig2` pass is one segment and this is its fastest pass; a
/// `scaling-grid` pass is 24 segments of about 0.1 s, so stretches of
/// contention lasting seconds rarely cover a segment in every pass.
fn fastest_pass(passes: &[Vec<Duration>]) -> f64 {
    let segments = passes.first().map_or(0, Vec::len);
    (0..segments).map(|i| fastest(&passes.iter().map(|p| p[i]).collect::<Vec<_>>())).sum()
}

/// The fastest of a set of durations (min-of-N), in seconds. On a shared
/// host 30-85% of passes run up to 1.9x slower for reasons outside the
/// program, and that share varies from run to run; it moves the median by
/// a third between runs, the minimum by a few percent.
fn fastest(samples: &[Duration]) -> f64 {
    samples.iter().min().map_or(0.0, Duration::as_secs_f64)
}

fn median_f64(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        f64::midpoint(v[mid - 1], v[mid])
    }
}

/// The highest sample with at least ten samples beyond it (the slowest
/// sample when there are fewer than eleven), in seconds.
fn tail(samples: &[Duration]) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    v.sort_by(|a, b| b.total_cmp(a));
    v.get(10).or(v.first()).copied().unwrap_or(0.0)
}

/// `SplitMix64`: a tiny seeded generator for the pass order.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert!((tail(&samples) - 0.090).abs() < 1e-12);
        let few: Vec<Duration> = (1..=3).map(Duration::from_millis).collect();
        assert!((tail(&few) - 0.003).abs() < 1e-12, "fewer than eleven: the slowest");
    }

    #[test]
    fn fastest_pass_sums_the_fastest_time_of_each_segment() {
        let ms = Duration::from_millis;
        let passes = vec![vec![ms(3), ms(1)], vec![ms(1), ms(3)]];
        assert!((fastest_pass(&passes) - 0.002).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median_f64(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
