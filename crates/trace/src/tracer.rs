//! The event collector the simulator emits into.

use crate::event::{EventKind, TraceEvent};

/// Collects [`TraceEvent`]s during a simulation run.
///
/// A cluster either carries no tracer at all (the untraced hot path: every
/// emission site is one `Option` branch, no event is constructed, nothing
/// allocates) or carries one of these. A *paused* tracer keeps the hook
/// plumbed in but records nothing — the state `perf-report`'s tracing
/// overhead guard measures against the untraced path.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Tracer {
    /// A recording tracer.
    #[must_use]
    pub fn new() -> Self {
        Tracer { enabled: true, events: Vec::new() }
    }

    /// A tracer that is attached but records nothing (for overhead
    /// measurements of the disabled hook).
    #[must_use]
    pub fn paused() -> Self {
        Tracer { enabled: false, events: Vec::new() }
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op when paused).
    #[inline]
    pub fn record(&mut self, cycle: u64, hart: u8, kind: EventKind) {
        if self.enabled {
            self.events.push(TraceEvent { cycle, hart, kind });
        }
    }

    /// The recorded events, in emission order (per-cycle, hart-major — the
    /// deterministic order the cluster steps its units in).
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the tracer, returning the recorded events.
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Drops every event after the first `len` (no-op if there are fewer).
    pub fn truncate(&mut self, len: usize) {
        self.events.truncate(len);
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallCause;

    #[test]
    fn records_in_order() {
        let mut t = Tracer::new();
        t.record(3, 0, EventKind::Stall { cause: StallCause::IntRaw, cycles: 1 });
        t.record(4, 1, EventKind::BarrierArrive);
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].cycle, 3);
        assert_eq!(t.events()[1].hart, 1);
    }

    #[test]
    fn paused_tracer_records_nothing() {
        let mut t = Tracer::paused();
        t.record(0, 0, EventKind::BarrierArrive);
        assert!(t.is_empty());
        assert!(!t.is_recording());
    }
}
