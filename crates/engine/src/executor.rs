//! The parallel executor: a scoped-thread worker pool over a job batch.
//!
//! Workers pull jobs from a shared atomic cursor, so load-balancing is
//! dynamic, but each result lands in the slot of its job index — the
//! returned `Vec<RunRecord>` is always in batch order regardless of how the
//! OS schedules the workers. Each worker keeps one `System` alive and
//! [`reset`](snitch_sim::system::System::reset)s it between jobs with the
//! same configuration, reusing its clusters' unit trees.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use snitch_sim::system::{occupy_host_thread, System};
use snitch_telemetry::{Phase, Telemetry, MAIN_WORKER};

use crate::cache::ProgramCache;
use crate::job::JobSpec;
use crate::record::RunRecord;

/// Batched experiment executor.
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    cache: ProgramCache,
    allow_invalid: bool,
}

impl Default for Engine {
    /// An engine with one worker per available hardware thread.
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Engine::new(workers)
    }
}

impl Engine {
    /// An engine with a fixed worker count, clamped to at least 1 and to at
    /// most the host's available parallelism. Simulation workers are pure
    /// CPU burners, so a pool wider than the hardware only adds context
    /// switching and scales *backwards*; the run itself further caps the
    /// pool at the batch size, since an idle worker thread is pure spawn
    /// cost.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let cap = std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZero::get);
        Engine {
            workers: workers.clamp(1, cap.max(1)),
            cache: ProgramCache::new(),
            allow_invalid: false,
        }
    }

    /// Lets jobs whose program fails static verification run anyway (the
    /// `--allow-invalid` escape hatch). Diagnostics are still collected and
    /// attached to the records; only the fail-the-job behaviour is off.
    #[must_use]
    pub fn allow_invalid(mut self, allow: bool) -> Self {
        self.allow_invalid = allow;
        self
    }

    /// The worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The program cache (counters survive across batches, so several
    /// batches run through one engine share compiled programs).
    #[must_use]
    pub fn cache(&self) -> &ProgramCache {
        &self.cache
    }

    /// Runs every job in `jobs` and returns one record per job, **in job
    /// order**. Simulation failures and validation mismatches are captured
    /// in the records (`ok = false`), never panicked, so one bad
    /// configuration cannot take down a sweep.
    #[must_use]
    pub fn run(&self, jobs: &[JobSpec]) -> Vec<RunRecord> {
        self.run_with(jobs, &Telemetry::off())
    }

    /// [`run`](Self::run) with host telemetry: phase spans (cache lookup,
    /// cluster warm-up, reset, simulation, collection) land in `telemetry`
    /// along with the batch progress counters. `run` delegates here with a
    /// disabled handle, so there is exactly one execution path and a
    /// disabled hook costs one `Option` branch. Telemetry never influences
    /// scheduling, cache keys or records — results are byte-identical with
    /// it on, off, and at any worker count.
    #[must_use]
    pub fn run_with(&self, jobs: &[JobSpec], telemetry: &Telemetry) -> Vec<RunRecord> {
        telemetry.begin_batch(jobs.len() as u64);
        let slots: Vec<OnceLock<RunRecord>> = jobs.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let workers = self.workers.min(jobs.len()).max(1);
        std::thread::scope(|s| {
            for w in 0..workers {
                let tel = telemetry.clone();
                let (slots, cursor) = (&slots, &cursor);
                s.spawn(move || {
                    // Counted busy, so multi-cluster runs spawn threads
                    // only for hardware threads no worker occupies.
                    let _busy = occupy_host_thread();
                    let worker = u32::try_from(w).unwrap_or(u32::MAX - 1);
                    // One system per worker, rebuilt only on config change.
                    let mut system: Option<System> = None;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        tel.job_started();
                        // An illegal spec panics in Kernel::build (size
                        // asserts); contain it to this job's record so one
                        // bad spec cannot abort the whole sweep.
                        let record = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            self.exec(job, &mut system, worker, i as u32, &tel)
                        }))
                        .unwrap_or_else(|panic| {
                            // A panicked run leaves the system in an
                            // unknown state; drop it.
                            system = None;
                            RunRecord::failure(job.clone(), panic_message(panic.as_ref()))
                        });
                        slots[i].set(record).expect("each job index is claimed once");
                        tel.job_done();
                    }
                });
            }
        });
        // The scope exit above is the result barrier; assembling the ordered
        // vector afterwards is the collection phase.
        telemetry.time(MAIN_WORKER, None, Phase::Collect, || {
            slots.into_iter().map(|s| s.into_inner().expect("every job slot is filled")).collect()
        })
    }

    /// Runs one job, reusing `system` when its configuration matches.
    fn exec(
        &self,
        job: &JobSpec,
        system: &mut Option<System>,
        worker: u32,
        index: u32,
        tel: &Telemetry,
    ) -> RunRecord {
        let job_id = Some(index);
        let t0 = tel.start();
        let (program, hit) = self.cache.get_with_status(job.program_key());
        tel.finish(t0, worker, job_id, if hit { Phase::CacheHit } else { Phase::Compile });
        // Static verification, cached alongside the program: hard errors
        // fail the job before it ever reaches a cluster (unless the engine
        // was built with `allow_invalid`).
        let t0 = tel.start();
        let (diagnostics, verified_now) =
            self.cache.diagnostics_for(job.program_key(), &program, &job.config);
        if verified_now {
            tel.finish(t0, worker, job_id, Phase::Verify);
        }
        if snitch_verify::has_errors(&diagnostics) && !self.allow_invalid {
            let failed: Vec<&str> = {
                let mut ids: Vec<&str> = diagnostics
                    .iter()
                    .filter(|d| d.severity == snitch_verify::Severity::Error)
                    .map(|d| d.check.name())
                    .collect();
                ids.dedup();
                ids
            };
            let mut record = RunRecord::failure(
                job.clone(),
                format!(
                    "program failed static verification ({} error(s): {})",
                    snitch_verify::error_count(&diagnostics),
                    failed.join(", ")
                ),
            );
            record.diagnostics = diagnostics;
            return record;
        }
        let reusable = system.as_ref().is_some_and(|s| *s.config() == job.config);
        if !reusable {
            let built = tel.time(worker, job_id, Phase::Warm, || System::new(job.config.clone()));
            *system = Some(built);
        }
        let system = system.as_mut().expect("system was just ensured");
        tel.time(worker, job_id, Phase::Reset, || system.reset());
        let t0 = tel.start();
        let result = job.kernel.run_loaded(system, job.variant, job.n, &program);
        tel.finish(t0, worker, job_id, Phase::Simulate);
        let mut record = match result {
            Ok(outcome) => {
                let mut record = RunRecord::success(job.clone(), &outcome);
                record.block_replayed_cycles = system.block_replayed_cycles();
                record.cluster_cycles =
                    (0..system.clusters()).map(|k| system.cluster_stats(k).cycles).sum();
                if job.trace() {
                    // The reset just above ran before the load, so the
                    // attached tracer holds exactly this job's events.
                    let events = system.trace_events().unwrap_or_default().to_vec();
                    record = record.with_trace(events);
                }
                if job.profile() {
                    if let Some(profile) = system.profile() {
                        record = record.with_profile(profile.clone());
                    }
                }
                record
            }
            Err(e) => RunRecord::failure(job.clone(), e.to_string()),
        };
        record.diagnostics = diagnostics;
        record
    }
}

/// Extracts the human-readable message from a caught panic payload. The
/// caller must pass the payload itself (`Box::as_ref`), not a reference to
/// the `Box` — the latter would coerce the box into a second `dyn Any` layer
/// and defeat the downcasts.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("illegal job spec: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job;
    use snitch_kernels::registry::{Kernel, Variant};
    use snitch_sim::config::ClusterConfig;

    #[test]
    fn results_arrive_in_job_order() {
        // Mix job sizes so completion order differs from submission order.
        let jobs = vec![
            JobSpec::new(Kernel::PiLcg, Variant::Baseline, 256, 0),
            JobSpec::new(Kernel::PiLcg, Variant::Baseline, 16, 0),
            JobSpec::new(Kernel::PiLcg, Variant::Copift, 128, 32),
            JobSpec::new(Kernel::PiLcg, Variant::Baseline, 64, 0),
        ];
        let records = Engine::new(4).run(&jobs);
        assert_eq!(records.len(), 4);
        for (r, j) in records.iter().zip(&jobs) {
            assert_eq!(r.job, *j, "record order must match job order");
            assert!(r.ok, "{} must validate", j.label());
        }
    }

    #[test]
    fn worker_pool_is_clamped_to_host_parallelism() {
        let hw = std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZero::get);
        assert_eq!(Engine::new(0).workers(), 1, "zero workers clamps up to one");
        assert!(
            Engine::new(usize::MAX).workers() <= hw,
            "an oversubscribed pool must clamp down to the hardware threads"
        );
        assert_eq!(Engine::default().workers(), Engine::new(usize::MAX).workers());
    }

    #[test]
    fn failures_are_recorded_not_panicked() {
        // A one-cycle watchdog guarantees a timeout.
        let strangled = ClusterConfig { max_cycles: 1, ..ClusterConfig::default() };
        let jobs = vec![
            JobSpec::new(Kernel::PiLcg, Variant::Baseline, 64, 0),
            JobSpec::new(Kernel::PiLcg, Variant::Baseline, 64, 0).with_config(strangled),
        ];
        let records = Engine::new(2).run(&jobs);
        assert!(records[0].ok);
        assert!(!records[1].ok);
        assert!(records[1].error.as_deref().unwrap_or("").contains("simulation failed"));
    }

    #[test]
    fn illegal_spec_is_recorded_not_fatal() {
        // block 3 violates the MC COPIFT block constraints and panics in
        // Kernel::build; the sweep must survive and the other jobs succeed.
        let jobs = vec![
            JobSpec::new(Kernel::PiLcg, Variant::Baseline, 64, 0),
            JobSpec::new(Kernel::PiLcg, Variant::Copift, 64, 3),
            JobSpec::new(Kernel::PiLcg, Variant::Copift, 64, 32),
        ];
        let records = Engine::new(2).run(&jobs);
        assert!(records[0].ok);
        assert!(!records[1].ok);
        let error = records[1].error.as_deref().unwrap_or("");
        assert!(error.starts_with("illegal job spec:"), "got {error:?}");
        assert!(error.contains("block"), "the kernel's assert message must survive: {error:?}");
        assert!(records[2].ok, "jobs after the bad spec still run");
    }

    #[test]
    fn config_sweep_builds_each_program_once() {
        let base = JobSpec::new(Kernel::PiLcg, Variant::Baseline, 64, 0);
        let configs: Vec<ClusterConfig> = (1..=4)
            .map(|p| ClusterConfig { int_wb_ports: p, ..ClusterConfig::default() })
            .collect();
        let jobs = job::config_sweep(&base, &configs);
        let engine = Engine::new(2);
        let records = engine.run(&jobs);
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.ok));
        assert_eq!(engine.cache().misses(), 1, "one program serves all configs");
        assert_eq!(engine.cache().hits(), 3);
        // More write-back ports never hurt.
        assert!(records[1].cycles <= records[0].cycles);
    }
}
