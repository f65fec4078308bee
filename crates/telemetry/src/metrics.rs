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
//! run to run. [`validate`] checks syntax and the per-metric required keys
//! the same way `snitch_trace::chrome::validate` checks trace documents —
//! CI runs it on every `perf-report` output.

use std::fmt::Write as _;

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

/// Renders one `burst` line: the batch's block-burst engagement — the
/// fraction of simulated cycles the simulator served on its block-compiled
/// fast path (`Cluster::block_replayed_cycles` summed over the records).
/// Both counts are per-cluster sums: `cycles` adds up every cluster's
/// cycles, not the systems' elapsed (max-over-clusters) cycles.
#[must_use]
pub fn render_burst(workers: usize, cycles: u64, replayed_cycles: u64) -> String {
    let engagement = if cycles == 0 { 0.0 } else { replayed_cycles as f64 / cycles as f64 };
    format!(
        "{{\"metric\":\"burst\",\"workers\":{workers},\"cycles\":{cycles},\
         \"replayed_cycles\":{replayed_cycles},\"engagement\":{engagement:?}}}\n"
    )
}

/// Required keys per metric kind (the minimal schema CI enforces).
fn required_keys(metric: &str) -> Option<&'static [&'static str]> {
    match metric {
        "batch" => Some(&["workers", "jobs", "wall_ns", "busy_ns", "idle_ns", "span_coverage"]),
        "phase" => Some(&["workers", "phase", "ns"]),
        "worker" => Some(&["workers", "worker", "jobs", "busy_ns", "idle_ns", "barrier_ns"]),
        "scaling" => Some(&["workload", "workers_base", "workers", "ratio"]),
        "burst" => Some(&["workers", "cycles", "replayed_cycles", "engagement"]),
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
        let keys = parse_object_keys(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let metric = keys
            .iter()
            .find(|(k, _)| k == "metric")
            .map(|(_, v)| v.clone())
            .ok_or_else(|| format!("line {}: no `metric` key", lineno + 1))?;
        let required = required_keys(&metric)
            .ok_or_else(|| format!("line {}: unknown metric `{metric}`", lineno + 1))?;
        for want in required {
            if !keys.iter().any(|(k, _)| k == want) {
                return Err(format!("line {}: metric `{metric}` lacks key `{want}`", lineno + 1));
            }
        }
        lines += 1;
    }
    Ok(lines)
}

/// Parses one JSON object, returning its top-level `(key, value-if-string)`
/// pairs (non-string values return an empty string). Validates the full
/// syntax of the line, nested values included.
fn parse_object_keys(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut p = Parser { s: s.as_bytes(), i: 0 };
    let keys = p.object()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(keys)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == want => {
                self.i += 1;
                Ok(())
            }
            other => Err(format!(
                "expected `{}` at offset {}, found {:?}",
                want as char,
                self.i,
                other.map(|b| b as char)
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.s.get(self.i) {
                        Some(b'u') => {
                            if self.i + 4 >= self.s.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            self.i += 5;
                            out.push('?');
                        }
                        Some(&c) => {
                            self.i += 1;
                            out.push(c as char);
                        }
                        None => return Err("truncated escape".to_string()),
                    }
                }
                Some(&c) => {
                    self.i += 1;
                    out.push(c as char);
                }
            }
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    /// Skips any JSON value, validating its syntax; returns the value when
    /// it is a string.
    fn value(&mut self) -> Result<Option<String>, String> {
        match self.peek() {
            Some(b'{') => {
                self.object()?;
                Ok(None)
            }
            Some(b'[') => {
                self.eat(b'[')?;
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(None);
                }
                loop {
                    self.value()?;
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(None);
                        }
                        other => return Err(format!("bad array at offset {}: {other:?}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Some),
            Some(b't') => self.literal("true").map(|()| None),
            Some(b'f') => self.literal("false").map(|()| None),
            Some(b'n') => self.literal("null").map(|()| None),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                self.i += 1;
                while self.s.get(self.i).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.i += 1;
                }
                Ok(None)
            }
            other => Err(format!("unexpected {other:?} at offset {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Vec<(String, String)>, String> {
        self.eat(b'{')?;
        let mut keys = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(keys);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            keys.push((key, value.unwrap_or_default()));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(keys);
                }
                other => return Err(format!("bad object at offset {}: {other:?}", self.i)),
            }
        }
    }
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
        doc.push_str(&render_burst(1, 1000, 990));
        let lines = validate(&doc).expect("rendered metrics must validate");
        // 1 batch + 8 phases + 1 worker + 1 scaling + 1 burst.
        assert_eq!(lines, 12);
        assert!(doc.contains("\"metric\":\"batch\""));
        assert!(doc.contains("\"phase\":\"simulate\",\"ns\":80"));
        assert!(doc.contains("\"barrier_ns\":"));
        assert!(doc.contains("\"ratio\":0.35"));
        assert!(doc.contains("\"metric\":\"burst\"") && doc.contains("\"engagement\":0.99"));
    }

    #[test]
    fn burst_line_handles_empty_batches() {
        let line = render_burst(4, 0, 0);
        assert!(line.contains("\"engagement\":0.0"), "no cycles means zero engagement: {line}");
        assert_eq!(validate(&line), Ok(1));
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
