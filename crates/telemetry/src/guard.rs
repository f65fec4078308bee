//! The min-of-N interleaved overhead guard behind `perf-report`'s
//! telemetry guard, and the [`Verdict`] every one of its guards reports
//! through.
//!
//! A guard compares the wall time of a *hooked* path (an observation hook
//! switched on) against the *bare* path (the hook off). One round times
//! [`REPEATS`] pairs, alternating which path runs first so host drift
//! (frequency ramp, cache warm-up) hits both equally, and keeps each path's
//! minimum. The guard passes on the first round whose hooked minimum is
//! within [`TOLERANCE`] of the bare one and fails after [`ATTEMPTS`] rounds:
//! wall-clock noise on a shared host can exceed the tolerance in either
//! direction, while a real hook cost (an allocation, event construction on
//! the cold branch) is systematic and fails every round.

use std::fmt;
use std::time::Duration;

/// Allowed hooked-path slowdown relative to the bare path (2%).
pub const TOLERANCE: f64 = 1.02;
/// Measurement rounds before the guard fails.
pub const ATTEMPTS: usize = 3;
/// Interleaved measurement pairs per round.
pub const REPEATS: usize = 5;

/// The per-path minima of one guard round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Minima {
    /// Fastest bare-path measurement.
    pub bare: Duration,
    /// Fastest hooked-path measurement.
    pub hooked: Duration,
    /// The 1-based round these minima come from.
    pub attempt: usize,
}

impl Minima {
    /// The hooked path's overhead over the bare path, in percent.
    #[must_use]
    pub fn overhead_pct(&self) -> f64 {
        (self.hooked.as_secs_f64() / self.bare.as_secs_f64() - 1.0) * 100.0
    }

    fn within_tolerance(&self) -> bool {
        self.hooked.as_secs_f64() <= self.bare.as_secs_f64() * TOLERANCE
    }
}

/// Runs the guard. `bare` and `hooked` each perform one timed measurement
/// and return its wall time. Returns the passing round's minima, or the
/// last round's minima when every round exceeded [`TOLERANCE`].
pub fn overhead_guard(
    mut bare: impl FnMut() -> Duration,
    mut hooked: impl FnMut() -> Duration,
) -> Result<Minima, Minima> {
    let mut last = None;
    for attempt in 1..=ATTEMPTS {
        let mut m = Minima { bare: Duration::MAX, hooked: Duration::MAX, attempt };
        for rep in 0..REPEATS {
            if rep % 2 == 0 {
                m.bare = m.bare.min(bare());
                m.hooked = m.hooked.min(hooked());
            } else {
                m.hooked = m.hooked.min(hooked());
                m.bare = m.bare.min(bare());
            }
        }
        if m.within_tolerance() {
            return Ok(m);
        }
        last = Some(m);
    }
    Err(last.expect("at least one round"))
}

/// What a guard concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The bound held.
    Held,
    /// The bound broke: the run must fail.
    Failed,
    /// Nothing to compare against (no baseline, or one of another
    /// workload); not a failure.
    Skipped,
}

/// One guard's result, printed in one format: `<guard> guard ok: <detail>`
/// (or `FAILED`, `skipped`).
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// The guard's name, e.g. `tracing overhead`.
    pub guard: String,
    /// What it concluded.
    pub outcome: Outcome,
    /// What it measured, against which bound.
    pub detail: String,
}

impl Verdict {
    /// A verdict of the guard named `guard`.
    #[must_use]
    pub fn new(guard: &str, outcome: Outcome, detail: String) -> Self {
        Verdict { guard: guard.to_string(), outcome, detail }
    }

    /// The verdict of one [`overhead_guard`] run.
    #[must_use]
    pub fn overhead(guard: &str, result: Result<Minima, Minima>) -> Self {
        let (outcome, m) = match result {
            Ok(m) => (Outcome::Held, m),
            Err(m) => (Outcome::Failed, m),
        };
        let detail = format!(
            "hooked {:+.2}% vs bare ({:.2}ms vs {:.2}ms, min of {REPEATS}, round {}/{ATTEMPTS}; \
             budget {:.0}%)",
            m.overhead_pct(),
            m.hooked.as_secs_f64() * 1e3,
            m.bare.as_secs_f64() * 1e3,
            m.attempt,
            (TOLERANCE - 1.0) * 100.0,
        );
        Verdict::new(guard, outcome, detail)
    }

    /// Whether the run must fail.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.outcome == Outcome::Failed
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let word = match self.outcome {
            Outcome::Held => "ok",
            Outcome::Failed => "FAILED",
            Outcome::Skipped => "skipped",
        };
        write!(f, "{} guard {word}: {}", self.guard, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_paths_pass_on_the_first_round() {
        let m = overhead_guard(|| Duration::from_millis(10), || Duration::from_millis(10))
            .expect("equal paths pass");
        assert_eq!(m.attempt, 1);
        assert_eq!(m.overhead_pct(), 0.0);
    }

    #[test]
    fn a_systematic_overhead_fails_every_round() {
        let m = overhead_guard(|| Duration::from_millis(100), || Duration::from_millis(103))
            .expect_err("3% over a 2% budget fails");
        assert_eq!(m.attempt, ATTEMPTS);
        assert!((m.overhead_pct() - 3.0).abs() < 1e-9);
        let verdict = Verdict::overhead("telemetry overhead", Err(m));
        assert!(verdict.failed());
        assert_eq!(
            verdict.to_string(),
            "telemetry overhead guard FAILED: hooked +3.00% vs bare (103.00ms vs 100.00ms, \
             min of 5, round 3/3; budget 2%)"
        );
    }

    #[test]
    fn minima_absorb_noise_and_runs_alternate() {
        // The hooked path is slow on its first run only; the bare path's
        // calls are logged to check the alternation.
        let order = std::cell::RefCell::new(Vec::new());
        let mut hooked_runs = 0;
        let m = overhead_guard(
            || {
                order.borrow_mut().push('b');
                Duration::from_millis(10)
            },
            || {
                order.borrow_mut().push('h');
                hooked_runs += 1;
                Duration::from_millis(if hooked_runs == 1 { 50 } else { 10 })
            },
        )
        .expect("a one-off spike is noise");
        assert_eq!(m.attempt, 1);
        assert_eq!(order.into_inner().iter().collect::<String>(), "bhhbbhhbbh");
    }
}
