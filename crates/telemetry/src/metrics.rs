//! The machine-readable metrics sink: `METRICS.json` lines plus a
//! dependency-free validator.
//!
//! One JSON object per line, every line carrying a `metric` discriminator:
//!
//! | metric    | meaning                                      |
//! |-----------|----------------------------------------------|
//! | `batch`   | one engine batch: wall, busy, idle, coverage |
//! | `phase`   | span time in one phase across the batch      |
//! | `worker`  | one worker's utilization and idle split      |
//! | `scaling` | a workers-N vs workers-base throughput ratio |
//!
//! Field order is fixed and floats use shortest round-trip formatting, so
//! metrics files diff cleanly; wall-clock derived *values* of course vary
//! run to run. [`validate`] checks syntax (with `snitch_trace::json`, the
//! reader `snitch_trace::chrome::validate` uses too) and the per-metric
//! required keys — CI runs it on every `perf-report` output.

use std::fmt::Write as _;

use snitch_trace::json::{self, Value};

use crate::span::Phase;
use crate::timeline::Report;

/// Renders the full JSON-lines metrics block for one batch: one `batch`
/// line, one `phase` line per phase, one `worker` line per pool worker.
/// `workers` is the configured pool size (the scope key joining the lines).
#[must_use]
pub fn render(workers: usize, report: &Report) -> String {
    let mut out = String::with_capacity(256 * (report.workers.len() + Phase::COUNT + 1));
    let _ = writeln!(
        out,
        "{{\"metric\":\"batch\",\"workers\":{workers},\"jobs\":{},\"wall_ns\":{},\
         \"busy_ns\":{},\"idle_ns\":{},\"span_coverage\":{:?}}}",
        report.jobs,
        report.wall_ns,
        report.busy_ns(),
        report.idle_ns(),
        report.span_coverage(),
    );
    for phase in Phase::all() {
        let _ = writeln!(
            out,
            "{{\"metric\":\"phase\",\"workers\":{workers},\"phase\":\"{}\",\"ns\":{}}}",
            phase.name(),
            report.phase_total(phase),
        );
    }
    for w in &report.workers {
        let _ = write!(
            out,
            "{{\"metric\":\"worker\",\"workers\":{workers},\"worker\":{},\"jobs\":{},\
             \"busy_ns\":{},\"idle_ns\":{},\"startup_ns\":{},\"gap_ns\":{},\"barrier_ns\":{}",
            w.worker,
            w.jobs,
            w.busy_ns,
            w.idle_ns(),
            w.startup_ns(),
            w.gap_ns(),
            w.barrier_ns(),
        );
        for phase in Phase::all() {
            let _ = write!(out, ",\"{}_ns\":{}", phase.name(), w.phase_ns[phase.index()]);
        }
        out.push_str("}\n");
    }
    out
}

/// Renders one `scaling` line: throughput at `workers` relative to the
/// `workers_base` measurement of the same workload.
#[must_use]
pub fn render_scaling(
    workload: &str,
    workers_base: usize,
    cps_base: f64,
    workers: usize,
    cps: f64,
) -> String {
    format!(
        "{{\"metric\":\"scaling\",\"workload\":\"{workload}\",\"workers_base\":{workers_base},\
         \"cps_base\":{cps_base:.0},\"workers\":{workers},\"cps\":{cps:.0},\
         \"ratio\":{:?}}}\n",
        cps / cps_base,
    )
}

/// Required keys per metric kind (the minimal schema CI enforces).
fn required_keys(metric: &str) -> Option<&'static [&'static str]> {
    match metric {
        "batch" => Some(&["workers", "jobs", "wall_ns", "busy_ns", "idle_ns", "span_coverage"]),
        "phase" => Some(&["workers", "phase", "ns"]),
        "worker" => Some(&["workers", "worker", "jobs", "busy_ns", "idle_ns", "barrier_ns"]),
        "scaling" => Some(&["workload", "workers_base", "workers", "ratio"]),
        _ => None,
    }
}

/// Validates a METRICS.json document: every non-empty line must be a
/// syntactically valid JSON object carrying a known `metric` discriminator
/// and that metric's required keys. Returns the number of metric lines.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate(contents: &str) -> Result<usize, String> {
    let mut lines = 0;
    for (lineno, line) in contents.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", lineno + 1);
        let object = json::parse(line).map_err(at)?;
        let metric = object
            .get("metric")
            .and_then(Value::as_str)
            .ok_or_else(|| at("no `metric` key".to_string()))?;
        let required =
            required_keys(metric).ok_or_else(|| at(format!("unknown metric `{metric}`")))?;
        if let Some(want) = required.iter().find(|k| object.get(k).is_none()) {
            return Err(at(format!("metric `{metric}` lacks key `{want}`")));
        }
        lines += 1;
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, MAIN_WORKER};

    fn sample_report() -> Report {
        let spans = [
            Span { worker: 0, job: Some(0), phase: Phase::Warm, start_ns: 0, end_ns: 10 },
            Span { worker: 0, job: Some(0), phase: Phase::Simulate, start_ns: 10, end_ns: 90 },
            Span {
                worker: MAIN_WORKER,
                job: None,
                phase: Phase::Collect,
                start_ns: 90,
                end_ns: 95,
            },
        ];
        Report::new(&spans, 100)
    }

    #[test]
    fn rendered_metrics_validate() {
        let mut doc = render(1, &sample_report());
        doc.push_str(&render_scaling("smoke", 1, 14.0e6, 8, 4.9e6));
        let lines = validate(&doc).expect("rendered metrics must validate");
        // 1 batch + 8 phases + 1 worker + 1 scaling.
        assert_eq!(lines, 11);
        assert!(doc.contains("\"metric\":\"batch\""));
        assert!(doc.contains("\"phase\":\"simulate\",\"ns\":80"));
        assert!(doc.contains("\"barrier_ns\":"));
        assert!(doc.contains("\"ratio\":0.35"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"metric\":\"nope\"}").is_err(), "unknown metric");
        assert!(validate("{\"metric\":\"phase\",\"workers\":1}").is_err(), "missing keys");
        assert!(validate("{\"workers\":1}").is_err(), "no metric key");
        assert!(validate(
            "{\"metric\":\"batch\",\"workers\":1,\"jobs\":2,\"wall_ns\":3,\
                           \"busy_ns\":1,\"idle_ns\":0,\"span_coverage\":0.9}"
        )
        .is_ok_and(|n| n == 1));
        assert_eq!(validate("\n\n").unwrap(), 0, "blank lines are skipped");
    }
}
