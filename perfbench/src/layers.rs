//! The layer pipeline, driven from outside: the same calls the engine makes
//! for each job, made by the benchmark so that each crate's share of a pass
//! can be timed. Every span wraps one call into one crate's public API; no
//! span lives inside the program.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use snitch_asm::program::Program;
use snitch_energy::EnergyModel;
use snitch_engine::{sink, JobSpec, ProgramKey, RunRecord};
use snitch_kernels::RunOutcome;
use snitch_sim::config::SystemConfig;
use snitch_sim::system::System;
use snitch_verify::Diagnostic;

/// A layer boundary the benchmark times, named `crate.call`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `Kernel::build_grid`.
    Build,
    /// `snitch_verify::verify`.
    Verify,
    /// `System::new`.
    Warm,
    /// `System::reset`.
    Reset,
    /// `System::load_program` (includes block compilation).
    Load,
    /// `System::run`.
    Run,
    /// `Kernel::check` (golden model and compare).
    Check,
    /// `EnergyModel::report`.
    Energy,
    /// `sink::to_jsonl` and `sink::to_csv`.
    Sink,
}

impl Layer {
    /// Every layer.
    pub const ALL: [Layer; 9] = [
        Layer::Build,
        Layer::Verify,
        Layer::Warm,
        Layer::Reset,
        Layer::Load,
        Layer::Run,
        Layer::Check,
        Layer::Energy,
        Layer::Sink,
    ];

    /// The span name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Build => "kernels.build",
            Layer::Verify => "verify.verify",
            Layer::Warm => "sim.warm",
            Layer::Reset => "sim.reset",
            Layer::Load => "sim.load",
            Layer::Run => "sim.run",
            Layer::Check => "kernels.check",
            Layer::Energy => "energy.report",
            Layer::Sink => "engine.sink",
        }
    }
}

/// One timed call. Spans are children of the pass that recorded them;
/// `job` is the batch index of the job the call served, if any.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Job index within the batch.
    pub job: Option<u32>,
    /// Start, from the start of the pass.
    pub start: Duration,
    /// End, from the start of the pass.
    pub end: Duration,
}

impl Span {
    /// How long the call took.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Spans of one pass, kept in memory until the pass is over. A recorder
/// that is off makes the same calls and records nothing, so an untraced
/// pass differs from a traced one by the cost of the spans alone.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(on: bool) -> Self {
        Recorder { epoch: Instant::now(), on, spans: Vec::with_capacity(256) }
    }

    fn time<T>(&mut self, layer: Layer, job: Option<u32>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span { layer, job, start, end });
        out
    }

    fn finish(self) -> (Duration, Vec<Span>) {
        (self.epoch.elapsed(), self.spans)
    }
}

/// The total time of a pass's spans of `layer`.
#[must_use]
pub fn layer_time(spans: &[Span], layer: Layer) -> Duration {
    spans.iter().filter(|s| s.layer == layer).map(Span::duration).sum()
}

/// A built and verified program.
#[derive(Debug)]
pub struct Built {
    /// The program.
    pub program: Arc<Program>,
    /// Its static-verifier findings.
    pub diagnostics: Arc<Vec<Diagnostic>>,
}

/// The result of one cold set-up: every distinct program built and
/// verified, and one system constructed per distinct configuration.
#[derive(Debug)]
pub struct Setup {
    /// Programs by cache key.
    pub programs: HashMap<ProgramKey, Built>,
    /// Wall time of the whole set-up.
    pub wall: Duration,
    /// The build, verify and warm spans.
    pub spans: Vec<Span>,
}

impl Setup {
    /// Total static-verifier findings over the distinct programs.
    #[must_use]
    pub fn diagnostics(&self) -> usize {
        self.programs.values().map(|b| b.diagnostics.len()).sum()
    }
}

/// Cold set-up of `jobs`: builds and verifies each distinct program and
/// constructs (then drops) one system per distinct configuration.
#[must_use]
pub fn setup(jobs: &[JobSpec]) -> Setup {
    let mut rec = Recorder::new(true);
    let mut programs = HashMap::new();
    let mut configs: Vec<&SystemConfig> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let id = Some(i as u32);
        let key = job.program_key();
        if let Entry::Vacant(slot) = programs.entry(key) {
            let program = rec.time(Layer::Build, id, || {
                job.kernel.build_grid(key.variant, key.n, key.block, key.cores, key.clusters)
            });
            let diagnostics =
                rec.time(Layer::Verify, id, || snitch_verify::verify(&program, &job.config));
            let built = Built { program: Arc::new(program), diagnostics: Arc::new(diagnostics) };
            slot.insert(built);
        }
        if !configs.contains(&&job.config) {
            configs.push(&job.config);
            let system = rec.time(Layer::Warm, id, || System::new(job.config.clone()));
            drop(system);
        }
    }
    let (wall, spans) = rec.finish();
    Setup { programs, wall, spans }
}

/// Per-job execution-path counters, summed over the job's clusters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Paths {
    /// Simulated cycles summed over clusters (a system's own cycle count
    /// is the maximum over clusters).
    pub cluster_cycles: u64,
    /// Cycles replayed on the block-burst path.
    pub burst: u64,
    /// Cycles fast-forwarded by the quiescent skip.
    pub skip: u64,
    /// Recorded trace events (cluster 0; the traced batch is single-cluster).
    pub trace_events: u64,
}

impl Paths {
    /// Cycles on the reference stepper: the rest.
    #[must_use]
    pub fn stepper(&self) -> u64 {
        self.cluster_cycles.saturating_sub(self.burst + self.skip)
    }

    fn add(&mut self, other: Paths) {
        self.cluster_cycles += other.cluster_cycles;
        self.burst += other.burst;
        self.skip += other.skip;
        self.trace_events += other.trace_events;
    }
}

/// One pass over a batch through the layer pipeline.
#[derive(Debug)]
pub struct Pass {
    /// Records, in job order, assembled as the engine assembles them.
    pub records: Vec<RunRecord>,
    /// Per-job execution-path counters.
    pub paths: Vec<Paths>,
    /// Systems constructed during the pass (one per configuration change).
    pub systems_built: usize,
    /// Wall time of the pass, sinks included.
    pub wall: Duration,
    /// The layer spans (none for an untraced pass).
    pub spans: Vec<Span>,
}

impl Pass {
    /// Execution-path counters summed over the batch.
    #[must_use]
    pub fn total_paths(&self) -> Paths {
        let mut total = Paths::default();
        for p in &self.paths {
            total.add(*p);
        }
        total
    }
}

/// Runs `jobs` through the layer pipeline with the programs of `setup`,
/// reusing one system while the configuration stays the same (the engine's
/// single-worker schedule), and renders both sinks. Every call is a span.
///
/// # Panics
///
/// Panics if `setup` was made for a different batch (a job's program is
/// missing).
#[must_use]
pub fn pass(jobs: &[JobSpec], setup: &Setup) -> Pass {
    run_pass(jobs, setup, Recorder::new(true))
}

/// [`pass`] with the recorder off: the same calls, no spans.
///
/// # Panics
///
/// As [`pass`].
#[must_use]
pub fn untraced_pass(jobs: &[JobSpec], setup: &Setup) -> Pass {
    run_pass(jobs, setup, Recorder::new(false))
}

fn run_pass(jobs: &[JobSpec], setup: &Setup, mut rec: Recorder) -> Pass {
    let mut system: Option<System> = None;
    let mut systems_built = 0;
    let mut records = Vec::with_capacity(jobs.len());
    let mut paths = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let id = Some(i as u32);
        let built = &setup.programs[&job.program_key()];
        if snitch_verify::has_errors(&built.diagnostics) {
            let mut record = RunRecord::failure(job.clone(), "program failed verification".into());
            record.diagnostics = Arc::clone(&built.diagnostics);
            records.push(record);
            paths.push(Paths::default());
            continue;
        }
        if system.as_ref().is_none_or(|s| *s.config() != job.config) {
            system = Some(rec.time(Layer::Warm, id, || System::new(job.config.clone())));
            systems_built += 1;
        }
        let system = system.as_mut().expect("system was just ensured");
        let (record, job_paths) = run_job(&mut rec, id, job, built, system);
        records.push(record);
        paths.push(job_paths);
    }
    rec.time(Layer::Sink, None, || {
        std::hint::black_box((sink::to_jsonl(&records), sink::to_csv(&records)));
    });
    let (wall, spans) = rec.finish();
    Pass { records, paths, systems_built, wall, spans }
}

/// One job: reset, load, run, check, energy — then the record, as the
/// engine assembles it.
fn run_job(
    rec: &mut Recorder,
    id: Option<u32>,
    job: &JobSpec,
    built: &Built,
    system: &mut System,
) -> (RunRecord, Paths) {
    rec.time(Layer::Reset, id, || system.reset());
    rec.time(Layer::Load, id, || system.load_program(&built.program));
    let stats = match rec.time(Layer::Run, id, || system.run()) {
        Ok(stats) => stats,
        Err(e) => return (RunRecord::failure(job.clone(), e.to_string()), Paths::default()),
    };
    let clusters = 0..system.clusters();
    let paths = Paths {
        cluster_cycles: clusters.clone().map(|k| system.cluster_stats(k).cycles).sum(),
        burst: system.block_replayed_cycles(),
        skip: clusters.map(|k| system.cluster(k).skipped_cycles()).sum(),
        trace_events: system.trace_events().map_or(0, |e| e.len() as u64),
    };
    let checked =
        rec.time(Layer::Check, id, || job.kernel.check(job.variant, job.n, &built.program, system));
    if let Err(e) = checked {
        return (RunRecord::failure(job.clone(), e.to_string()), paths);
    }
    let report = rec.time(Layer::Energy, id, || EnergyModel::gf12lp().report(&stats));
    let outcome = RunOutcome {
        total_cycles: stats.cycles,
        power_mw: report.avg_power_mw,
        energy_uj: report.energy_uj,
        stats,
    };
    let mut record = RunRecord::success(job.clone(), &outcome);
    record.block_replayed_cycles = paths.burst;
    if job.trace() {
        record = record.with_trace(system.trace_events().unwrap_or_default().to_vec());
    }
    if job.profile() {
        if let Some(profile) = system.profile() {
            record = record.with_profile(profile.clone());
        }
    }
    record.diagnostics = Arc::clone(&built.diagnostics);
    (record, paths)
}
