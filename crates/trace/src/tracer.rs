//! The event collector the simulator emits into.

use crate::event::{EventKind, TraceEvent};

/// Collects [`TraceEvent`]s during a simulation run.
///
/// A cluster either carries no tracer at all (the untraced hot path: every
/// emission site is one `Option` branch, no event is constructed, nothing
/// allocates) or carries one of these, which records every event.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    events: Vec<TraceEvent>,
}

impl Tracer {
    /// A recording tracer.
    #[must_use]
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Records one event.
    #[inline]
    pub fn record(&mut self, cycle: u64, hart: u8, kind: EventKind) {
        self.events.push(TraceEvent { cycle, hart, kind });
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
    fn default_tracer_records() {
        let mut t = Tracer::default();
        t.record(7, 2, EventKind::BarrierArrive);
        assert_eq!(t.len(), 1);
        assert_eq!((t.events()[0].cycle, t.events()[0].hart), (7, 2));
    }
}
