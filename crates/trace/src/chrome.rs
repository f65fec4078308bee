//! Chrome trace-event JSON sink (the format Perfetto and `chrome://tracing`
//! load) plus a dependency-free schema validator.
//!
//! Track layout: one *process* per hart (`pid` = hart id, `pid` 255 = the
//! cluster-shared units) and one *thread* per lane:
//!
//! | tid | track        | events                                   |
//! |-----|--------------|------------------------------------------|
//! | 0   | `core issue` | every core-slot issue (`X`, 1 cycle) and barrier instants (`i`) |
//! | 1   | `frep`       | every sequencer replay (`X`, 1 cycle)    |
//! | 2   | `fpu retire` | FPU completions (`X`, 1 cycle)           |
//! | 3   | `stall`      | lost issue slots (`X`, duration = lost cycles, name = cause) |
//!
//! SSR beats, DMA activity and TCDM bank conflicts render as counter (`C`)
//! series. Timestamps are cycles (1 cycle = 1 "µs" on the Perfetto axis).

use std::fmt::Write as _;

use crate::event::{EventKind, TraceEvent, CLUSTER_HART};
use crate::json::{self, escape, Value};

const TID_CORE: u8 = 0;
const TID_FREP: u8 = 1;
const TID_RETIRE: u8 = 2;
const TID_STALL: u8 = 3;

/// Incremental Chrome trace-event document builder: the shared assembly
/// layer under every trace-event sink in the workspace (the cycle-trace
/// [`render`] here and the host-span export in `snitch-telemetry`).
///
/// The builder owns the document framing — the `traceEvents` array, the
/// one-event-per-line layout, separators, and the closing `otherData`
/// stanza — so every sink produces documents with identical framing that
/// [`validate`] and Perfetto both accept. Event helpers emit keys in the
/// fixed order the golden tests pin (`ph`, `pid`, `tid`, `ts`, ...).
#[derive(Debug)]
pub struct Doc {
    out: String,
    first: bool,
}

impl Default for Doc {
    fn default() -> Self {
        Doc::new()
    }
}

impl Doc {
    /// An empty document (header written, no events).
    #[must_use]
    pub fn new() -> Self {
        Doc::with_capacity(256)
    }

    /// An empty document with a pre-sized output buffer.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut out = String::with_capacity(capacity);
        out.push_str("{\"traceEvents\":[");
        Doc { out, first: true }
    }

    /// Appends one pre-rendered event object (a complete `{...}` JSON
    /// value, no trailing separator).
    pub fn push(&mut self, event_json: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.out.push('\n');
        self.out.push_str(event_json);
        self.first = false;
    }

    /// Emits a `process_name` metadata record for `pid`.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.push(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":{}}}}}",
            escape(name)
        ));
    }

    /// Emits a `thread_name` metadata record for `(pid, tid)`.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.push(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{}}}}}",
            escape(name)
        ));
    }

    /// Emits a complete (`ph:"X"`) duration event. `args_json`, when given,
    /// must be a rendered JSON object (e.g. `{"job":"exp/base"}`).
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        ts: u64,
        dur: u64,
        name: &str,
        args_json: Option<&str>,
    ) {
        let mut line = format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":{}",
            escape(name)
        );
        if let Some(args) = args_json {
            let _ = write!(line, ",\"args\":{args}");
        }
        line.push('}');
        self.push(&line);
    }

    /// Emits a thread-scoped instant (`ph:"i"`, `s:"t"`) event.
    pub fn instant(&mut self, pid: u32, tid: u32, ts: u64, name: &str) {
        self.push(&format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":{}}}",
            escape(name)
        ));
    }

    /// Emits a counter (`ph:"C"`) sample: series `name`, one `field: value`
    /// argument.
    pub fn counter(&mut self, pid: u32, ts: u64, name: &str, field: &str, value: u64) {
        self.push(&format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"ts\":{ts},\"name\":{},\
             \"args\":{{\"{field}\":{value}}}}}",
            escape(name)
        ));
    }

    /// Closes the document, labeling the timestamp unit in `otherData`
    /// (cycle traces use `"cycle"`, host-span traces `"us"`).
    #[must_use]
    pub fn finish(mut self, time_unit: &str) -> String {
        let _ = write!(
            self.out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"timeUnit\":\"{time_unit}\"}}}}\n"
        );
        self.out
    }
}

/// Renders an event stream as a complete Chrome trace-event JSON document.
#[must_use]
pub fn render(events: &[TraceEvent]) -> String {
    let mut doc = Doc::with_capacity(events.len() * 96 + 256);

    // Metadata: name every hart process and lane thread that appears.
    let mut harts: Vec<u8> = events.iter().map(|e| e.hart).collect();
    harts.sort_unstable();
    harts.dedup();
    for &h in &harts {
        let pname = if h == CLUSTER_HART { "cluster".to_string() } else { format!("hart{h}") };
        doc.process_name(u32::from(h), &pname);
        if h == CLUSTER_HART {
            continue;
        }
        for (tid, tname) in [
            (TID_CORE, "core issue"),
            (TID_FREP, "frep"),
            (TID_RETIRE, "fpu retire"),
            (TID_STALL, "stall"),
        ] {
            doc.thread_name(u32::from(h), u32::from(tid), tname);
        }
    }

    // Counter samples are only emitted on active cycles; Perfetto holds a
    // counter at its last value, so each series needs a zero sample on the
    // first inactive cycle after activity or idle spans render as busy.
    let sampled: std::collections::HashSet<(u8, CounterSeries, u64)> = events
        .iter()
        .filter_map(|e| counter_series(&e.kind).map(|s| (e.hart, s, e.cycle)))
        .collect();
    let zero_after = |hart: u8, kind: &EventKind, cycle: u64| -> Option<(CounterSeries, u64)> {
        let series = counter_series(kind)?;
        if sampled.contains(&(hart, series, cycle + 1)) {
            return None;
        }
        Some((series, cycle + 1))
    };

    for ev in events {
        let (cycle, hart) = (ev.cycle, u32::from(ev.hart));
        match ev.kind {
            EventKind::Issue { lane, pc, inst } => {
                let tid = if lane.is_core_slot() { TID_CORE } else { TID_FREP };
                let args = pc.map(|pc| format!("{{\"pc\":\"{pc:#010x}\"}}"));
                doc.complete(hart, u32::from(tid), cycle, 1, &inst.to_string(), args.as_deref());
            }
            EventKind::Retire { lane, inst } => {
                let args = format!("{{\"lane\":\"{}\"}}", lane.tag());
                doc.complete(hart, u32::from(TID_RETIRE), cycle, 1, &inst.to_string(), Some(&args));
            }
            EventKind::Stall { cause, cycles } => {
                doc.complete(
                    hart,
                    u32::from(TID_STALL),
                    cycle,
                    u64::from(cycles),
                    &cause.to_string(),
                    None,
                );
            }
            EventKind::SsrBeat { ssr, count } => {
                doc.counter(hart, cycle, &format!("ssr{ssr}"), "beats", u64::from(count));
            }
            EventKind::BankConflicts { count } => {
                doc.counter(hart, cycle, "tcdm_conflicts", "new", u64::from(count));
            }
            EventKind::DmaActive { count } => {
                doc.counter(hart, cycle, "dma", "beats", u64::from(count));
            }
            EventKind::BarrierArrive => {
                doc.instant(hart, u32::from(TID_CORE), cycle, "barrier arrive");
            }
            EventKind::BarrierRelease => {
                doc.instant(hart, u32::from(TID_CORE), cycle, "barrier release");
            }
        }
        if let Some((series, cycle)) = zero_after(ev.hart, &ev.kind, cycle) {
            let (name, field) = series.labels();
            doc.counter(hart, cycle, &name, field, 0);
        }
    }
    doc.finish("cycle")
}

/// Identity of one counter series (per hart).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum CounterSeries {
    Ssr(u8),
    Conflicts,
    Dma,
}

impl CounterSeries {
    /// `(track name, args field)` of the series' samples.
    fn labels(self) -> (String, &'static str) {
        match self {
            CounterSeries::Ssr(i) => (format!("ssr{i}"), "beats"),
            CounterSeries::Conflicts => ("tcdm_conflicts".to_string(), "new"),
            CounterSeries::Dma => ("dma".to_string(), "beats"),
        }
    }
}

/// The counter series an event samples, if it is a counter event.
fn counter_series(kind: &EventKind) -> Option<CounterSeries> {
    match *kind {
        EventKind::SsrBeat { ssr, .. } => Some(CounterSeries::Ssr(ssr)),
        EventKind::BankConflicts { .. } => Some(CounterSeries::Conflicts),
        EventKind::DmaActive { .. } => Some(CounterSeries::Dma),
        _ => None,
    }
}

/// What [`validate`] found in a well-formed trace document.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Summary {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Complete (`ph:"X"`) duration events.
    pub complete: usize,
    /// Counter (`ph:"C"`) samples.
    pub counters: usize,
    /// Instant (`ph:"i"`) events.
    pub instants: usize,
    /// Metadata (`ph:"M"`) records.
    pub metadata: usize,
}

/// Validates a Chrome trace-event document: the whole string must be
/// syntactically valid JSON, the top level must carry a `traceEvents`
/// array, and every event object must carry the keys its phase requires
/// (`X`: `pid`/`tid`/`ts`/`dur`/`name`; `C`: `pid`/`ts`/`name`/`args`;
/// `i`: `pid`/`ts`/`name`; `M`: `pid`/`name`/`args`).
///
/// # Errors
///
/// Returns a description of the first syntax or schema violation.
pub fn validate(json: &str) -> Result<Summary, String> {
    let mut summary = Summary::default();
    let mut saw_trace_events = false;
    let mut p = json::Parser::new(json);
    p.object(|key, p| {
        if key != "traceEvents" {
            return p.value().map(drop);
        }
        saw_trace_events = true;
        p.array(|p| summary.count(&p.value()?))
    })?;
    p.end()?;
    if !saw_trace_events {
        return Err("document lacks a `traceEvents` array".to_string());
    }
    Ok(summary)
}

impl Summary {
    /// Checks one event's keys against its phase and counts it.
    fn count(&mut self, event: &Value) -> Result<(), String> {
        let (ph, index) =
            (event.get("ph").and_then(Value::as_str).unwrap_or_default(), self.events);
        let (required, counter): (&[&str], _) = match ph {
            "X" => (&["pid", "tid", "ts", "dur", "name"], &mut self.complete),
            "C" => (&["pid", "ts", "name", "args"], &mut self.counters),
            "i" => (&["pid", "ts", "name"], &mut self.instants),
            "M" => (&["pid", "name", "args"], &mut self.metadata),
            other => return Err(format!("unknown event phase `{other}`")),
        };
        if let Some(k) = required.iter().find(|k| event.get(k).is_none()) {
            return Err(format!("`{ph}` event #{index} lacks key `{k}`"));
        }
        *counter += 1;
        self.events += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Lane, StallCause};
    use snitch_riscv::inst::Inst;

    #[test]
    fn rendered_trace_validates() {
        let events = [
            TraceEvent {
                cycle: 0,
                hart: 0,
                kind: EventKind::Issue { lane: Lane::Int, pc: Some(0x8000_0000), inst: Inst::NOP },
            },
            TraceEvent {
                cycle: 1,
                hart: 0,
                kind: EventKind::Issue { lane: Lane::FpSeq, pc: None, inst: Inst::NOP },
            },
            TraceEvent {
                cycle: 1,
                hart: 0,
                kind: EventKind::Stall { cause: StallCause::Branch, cycles: 2 },
            },
            TraceEvent { cycle: 2, hart: 0, kind: EventKind::SsrBeat { ssr: 1, count: 1 } },
            TraceEvent { cycle: 2, hart: CLUSTER_HART, kind: EventKind::DmaActive { count: 4 } },
            TraceEvent { cycle: 3, hart: 0, kind: EventKind::BarrierArrive },
            TraceEvent { cycle: 4, hart: 0, kind: EventKind::BarrierRelease },
            TraceEvent {
                cycle: 5,
                hart: CLUSTER_HART,
                kind: EventKind::BankConflicts { count: 2 },
            },
            TraceEvent {
                cycle: 6,
                hart: 0,
                kind: EventKind::Retire { lane: Lane::FpSeq, inst: Inst::NOP },
            },
        ];
        let json = render(&events);
        let summary = validate(&json).expect("rendered trace must validate");
        assert_eq!(summary.complete, 4, "two issues, one stall, one retire");
        assert_eq!(summary.counters, 6, "each active sample is followed by a zero sample");
        assert_eq!(summary.instants, 2);
        assert!(summary.metadata >= 5, "process + 4 thread names for hart 0, plus cluster");
        assert!(json.contains("\"name\":\"frep\""), "one track per hart lane");
        assert!(json.contains("{\"beats\":0}"), "idle cycles drop the counter back to zero");
    }

    #[test]
    fn counter_series_zero_only_after_activity_ends() {
        // Active on cycles 1 and 2, idle from 3: one zero sample at 3, none
        // between the consecutive active samples.
        let events = [
            TraceEvent { cycle: 1, hart: 0, kind: EventKind::SsrBeat { ssr: 0, count: 1 } },
            TraceEvent { cycle: 2, hart: 0, kind: EventKind::SsrBeat { ssr: 0, count: 2 } },
        ];
        let json = render(&events);
        assert_eq!(validate(&json).unwrap().counters, 3);
        assert!(json.contains("\"ts\":3,\"name\":\"ssr0\",\"args\":{\"beats\":0}"));
        assert!(!json.contains("\"ts\":2,\"name\":\"ssr0\",\"args\":{\"beats\":0}"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate("{}").is_err(), "missing traceEvents");
        assert!(validate("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err(), "X without ts");
        assert!(validate("{\"traceEvents\":[").is_err(), "truncated");
        assert!(validate("{\"traceEvents\":[{\"ph\":\"Z\",\"pid\":0}]}").is_err(), "unknown phase");
        let ok = "{\"traceEvents\":[],\"otherData\":{\"x\":[1,2,null,true,-3.5e2]}}";
        assert_eq!(validate(ok).unwrap().events, 0);
    }
}
