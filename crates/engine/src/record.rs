//! Per-job result records and their serialized forms.

use snitch_kernels::harness::RunOutcome;
use snitch_sim::stats::Stats;
use snitch_trace::json::escape;
use snitch_trace::TraceEvent;

use crate::job::JobSpec;

/// The outcome of one engine job.
///
/// Serialization is fully deterministic: field order is fixed, floats use
/// Rust's shortest round-trip formatting, and no timestamps, durations or
/// host details are recorded — so a sweep's output is byte-identical across
/// runs and worker counts.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The job that produced this record.
    pub job: JobSpec,
    /// Whether the run completed *and* validated bit-exactly.
    pub ok: bool,
    /// Failure description when `ok` is false.
    pub error: Option<String>,
    /// Total cycles (0 on failure).
    pub cycles: u64,
    /// Total instructions (0 on failure).
    pub instructions: u64,
    /// Instructions per cycle (0 on failure).
    pub ipc: f64,
    /// Average power, mW (0 on failure).
    pub power_mw: f64,
    /// Total energy, µJ (0 on failure).
    pub energy_uj: f64,
    /// Fingerprint of the system configuration (joins rows to configs).
    /// Single-cluster fingerprints keep the historical cluster-only form;
    /// multi-cluster configurations hash in the cluster count, so every
    /// `/cN`/`/xN` grid cell gets its own `config` column value.
    pub config_fingerprint: u64,
    /// Full counter set of the run (absent on failure).
    pub stats: Option<Stats>,
    /// The recorded event trace, when the job requested one
    /// ([`JobSpec::traced`]). Never serialized into the JSON-lines/CSV
    /// sinks — render it with `snitch_trace::{chrome, text}`.
    pub trace: Option<Vec<TraceEvent>>,
    /// The finished cycle profile, when the job requested one
    /// ([`JobSpec::profiled`]). Like `trace`, never serialized into the
    /// JSON-lines/CSV sinks — render it with `snitch_profile`'s sinks.
    pub profile: Option<snitch_profile::Profiler>,
    /// Cycles the simulator spent on its block-compiled burst path (host
    /// observability, see `Cluster::block_replayed_cycles`). Like `trace`,
    /// never serialized: it describes the simulator run, not the simulated
    /// machine. Kept for the benchmark's layer pass
    /// (`perfbench/src/layers.rs`), which sets and reads it.
    pub block_replayed_cycles: u64,
    /// Static-verifier findings for the job's program (shared across every
    /// job built from the same cached program). Like `trace`, never
    /// serialized into the line sinks — render with `snitch_verify::report`.
    pub diagnostics: std::sync::Arc<Vec<snitch_verify::Diagnostic>>,
}

impl RunRecord {
    /// Record for a validated run.
    #[must_use]
    pub fn success(job: JobSpec, outcome: &RunOutcome) -> Self {
        let fingerprint = job.config.fingerprint();
        RunRecord {
            job,
            ok: true,
            error: None,
            cycles: outcome.stats.cycles,
            instructions: outcome.stats.instructions(),
            ipc: outcome.stats.ipc(),
            power_mw: outcome.power_mw,
            energy_uj: outcome.energy_uj,
            config_fingerprint: fingerprint,
            stats: Some(outcome.stats.clone()),
            trace: None,
            profile: None,
            block_replayed_cycles: 0,
            diagnostics: std::sync::Arc::new(Vec::new()),
        }
    }

    /// Attaches a recorded event trace.
    #[must_use]
    pub fn with_trace(mut self, events: Vec<TraceEvent>) -> Self {
        self.trace = Some(events);
        self
    }

    /// Attaches a finished cycle profile.
    #[must_use]
    pub fn with_profile(mut self, profile: snitch_profile::Profiler) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Record for a failed (fault/timeout/mismatch) run.
    #[must_use]
    pub fn failure(job: JobSpec, error: String) -> Self {
        let fingerprint = job.config.fingerprint();
        RunRecord {
            job,
            ok: false,
            error: Some(error),
            cycles: 0,
            instructions: 0,
            ipc: 0.0,
            power_mw: 0.0,
            energy_uj: 0.0,
            config_fingerprint: fingerprint,
            stats: None,
            trace: None,
            profile: None,
            block_replayed_cycles: 0,
            diagnostics: std::sync::Arc::new(Vec::new()),
        }
    }

    /// Sum of all integer-core stall cycles (0 on failure).
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.stats.as_ref().map_or(0, |s| {
            s.stall_int_raw
                + s.stall_wb_port
                + s.stall_offload_full
                + s.stall_fp_pending
                + s.stall_ssr_cfg
                + s.stall_fence
                + s.stall_branch
                + s.stall_tcdm_conflict
                + s.stall_store_order
        })
    }

    /// One JSON object on a single line (JSON-lines form).
    #[must_use]
    pub fn json_line(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"kernel\":{},\"variant\":{},\"n\":{},\"block\":{},\"config\":\"{:016x}\",\"ok\":{}",
            escape(self.job.kernel.name()),
            escape(self.job.variant.name()),
            self.job.n,
            self.job.block,
            self.config_fingerprint,
            self.ok,
        );
        if let Some(e) = &self.error {
            let _ = write!(s, ",\"error\":{}", escape(e));
        }
        let _ = write!(
            s,
            ",\"cycles\":{},\"instructions\":{},\"ipc\":{:?},\"power_mw\":{:?},\"energy_uj\":{:?}",
            self.cycles, self.instructions, self.ipc, self.power_mw, self.energy_uj,
        );
        if let Some(st) = &self.stats {
            let _ = write!(
                s,
                ",\"stats\":{{\"int_issued\":{},\"fp_issued_core\":{},\"fp_issued_seq\":{},\
                 \"stall_cycles\":{},\"stall_wb_port\":{},\"stall_branch\":{},\
                 \"stall_offload_full\":{},\"stall_fp_pending\":{},\"l0_hits\":{},\
                 \"l0_misses\":{},\"tcdm_conflicts\":{},\"ssr_beats\":{},\"dma_beats\":{}}}",
                st.int_issued,
                st.fp_issued_core,
                st.fp_issued_seq,
                self.stall_cycles(),
                st.stall_wb_port,
                st.stall_branch,
                st.stall_offload_full,
                st.stall_fp_pending,
                st.l0_hits,
                st.l0_misses,
                st.tcdm_conflicts,
                st.ssr_beats.iter().sum::<u64>(),
                st.dma_beats,
            );
        }
        s.push('}');
        s
    }

    /// The CSV header matching [`csv_row`](Self::csv_row).
    #[must_use]
    pub fn csv_header() -> &'static str {
        "kernel,variant,n,block,config,ok,cycles,instructions,ipc,power_mw,energy_uj,stall_cycles"
    }

    /// One CSV row.
    #[must_use]
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{:016x},{},{},{},{:?},{:?},{:?},{}",
            self.job.kernel.name(),
            self.job.variant.name(),
            self.job.n,
            self.job.block,
            self.config_fingerprint,
            self.ok,
            self.cycles,
            self.instructions,
            self.ipc,
            self.power_mw,
            self.energy_uj,
            self.stall_cycles(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_kernels::registry::{Kernel, Variant};

    #[test]
    fn failure_record_serializes_with_error() {
        let job = JobSpec::new(Kernel::PiLcg, Variant::Baseline, 64, 0);
        let r = RunRecord::failure(job, "simulation failed: watchdog".to_string());
        let line = r.json_line();
        assert!(line.contains("\"ok\":false"));
        assert!(line.contains("\"error\":\"simulation failed: watchdog\""));
        assert!(!line.contains("\"stats\""));
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
}
