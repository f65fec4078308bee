//! Rendering a run's outcome: a metric table for people, a full result
//! object (fingerprint, host facts, every metric, spans) for the ledger,
//! and the one-line summary that ends standard output.

use std::fmt::Write as _;

use crate::bench::{Metric, Outcome};

/// The human-readable table: every metric by name, value and unit.
#[must_use]
pub fn table(o: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} | {} engine passes, {} traced passes | fingerprint {:016x}",
        o.options.workload.name(),
        o.options.seed,
        o.walls.len(),
        o.traced_passes,
        o.fingerprint
    );
    let _ = writeln!(
        out,
        "host: nproc {} workers {} rev {} {}",
        o.host.nproc, o.host.workers, o.host.git_rev, o.host.rustc
    );
    for m in o.end_to_end.iter().chain(&o.per_layer) {
        let _ = writeln!(out, "  {:<26} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for note in &o.notes {
        let _ = writeln!(out, "note: {note}");
    }
    out
}

/// The full result object, keyed by the workload fingerprint.
#[must_use]
pub fn result_json(o: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":{},\"fingerprint\":\"{:016x}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{{\"nproc\":{},\"workers\":{},\"git_rev\":{},\"rustc\":{}}},\
         \"walls_s\":{:?},\"traced_passes\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
         \"end_to_end\":{},\"per_layer\":{},\"notes\":[",
        string(o.options.workload.name()),
        o.fingerprint,
        o.options.seed,
        o.options.seconds,
        o.options.trace,
        o.host.nproc,
        o.host.workers,
        string(&o.host.git_rev),
        string(o.host.rustc),
        o.walls,
        o.traced_passes,
        o.correct,
        o.attempted,
        o.failed,
        metrics(&o.end_to_end),
        metrics(&o.per_layer),
    );
    for (i, note) in o.notes.iter().enumerate() {
        let _ = write!(s, "{}{}", if i == 0 { "" } else { "," }, string(note));
    }
    s.push_str("],\"spans\":[");
    for (i, span) in o.spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\":{},\"parent\":\"pass\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
            if i == 0 { "" } else { "," },
            string(span.layer.name()),
            span.job.map_or("null".to_string(), |j| j.to_string()),
            span.start.as_nanos(),
            span.end.as_nanos()
        );
    }
    s.push_str("]}");
    s
}

/// The summary line: the end-to-end metrics of an untraced run, or the
/// per-layer metrics of a traced one.
#[must_use]
pub fn summary_json(o: &Outcome) -> String {
    let chosen = if o.options.trace { &o.per_layer } else { &o.end_to_end };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics(chosen)
    )
}

fn metrics(ms: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in ms.iter().enumerate() {
        // JSON has no NaN or infinity; a non-finite value is a bug upstream.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}{}:{{\"value\":{value},\"unit\":{}}}",
            if i == 0 { "" } else { "," },
            string(m.name),
            string(m.unit)
        );
    }
    s.push('}');
    s
}

/// A JSON string literal (quotes, backslashes and control characters
/// escaped).
fn string(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
