//! The benchmark's workloads: fixed job batches from `snitch_engine::job`,
//! plus the fingerprint that keys every result.

use snitch_engine::{job, JobSpec};

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The paper's Figure 2 batch: 24 single-core, single-cluster jobs,
    /// almost all cycles on the block-burst path.
    Fig2,
    /// The cores × clusters `gemm_tiled` grid: 24 jobs over 12 system
    /// shapes, mostly on the reference stepper.
    ScalingGrid,
}

impl Workload {
    /// Every workload, in the order the ledger interleaves them.
    pub const ALL: [Workload; 2] = [Workload::Fig2, Workload::ScalingGrid];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2 => "fig2",
            Workload::ScalingGrid => "scaling-grid",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The job batch, in engine job order.
    #[must_use]
    pub fn jobs(self) -> Vec<JobSpec> {
        match self {
            Workload::Fig2 => job::figure2(),
            Workload::ScalingGrid => job::scaling_grid_default(),
        }
    }

    /// Whether the paper has reference values for this batch. The
    /// `gemm_tiled` grid has none: its model is unvalidated.
    #[must_use]
    pub fn has_paper_reference(self) -> bool {
        self == Workload::Fig2
    }
}

/// The Figure 2 batch with a recording tracer and a profiler on every job
/// (bursts disengaged). `fig2` runs it once per run: its records must equal
/// the untraced ones, and it supplies the trace-layer counts.
#[must_use]
pub fn traced_fig2() -> Vec<JobSpec> {
    job::figure2().into_iter().map(|j| j.traced().profiled()).collect()
}

/// The workload fingerprint: FNV-1a over the ordered job labels (with each
/// job's trace and profile requests, which labels omit), the total
/// simulated per-cluster cycles and the *effective* engine worker count
/// (`Engine::workers()`, never the requested one). Two results may be
/// compared only when their fingerprints are equal.
#[must_use]
pub fn fingerprint(jobs: &[JobSpec], cluster_cycles: u64, workers: usize) -> u64 {
    let mut h = Fnv::default();
    for j in jobs {
        h.write(j.label().as_bytes());
        h.write(&[u8::from(j.trace()), u8::from(j.profile()), b'\n']);
    }
    h.write(&cluster_cycles.to_le_bytes());
    h.write(&(workers as u64).to_le_bytes());
    h.0
}

/// 64-bit FNV-1a: stable across hosts and toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("fig3"), None);
    }

    #[test]
    fn batches_have_the_documented_shape() {
        assert_eq!(Workload::Fig2.jobs().len(), 24);
        assert_eq!(Workload::ScalingGrid.jobs().len(), 24);
        let traced = traced_fig2();
        assert!(traced.iter().all(|j| j.trace() && j.profile()));
        let labels = |jobs: Vec<JobSpec>| jobs.iter().map(JobSpec::label).collect::<Vec<_>>();
        assert_eq!(labels(Workload::Fig2.jobs()), labels(traced));
    }

    #[test]
    fn fingerprint_tracks_labels_cycles_and_workers() {
        let jobs = Workload::Fig2.jobs();
        let base = fingerprint(&jobs, 1000, 1);
        assert_eq!(base, fingerprint(&jobs, 1000, 1));
        assert_ne!(base, fingerprint(&jobs, 1001, 1));
        assert_ne!(base, fingerprint(&jobs, 1000, 2));
        assert_ne!(base, fingerprint(&jobs[1..], 1000, 1));
        assert_ne!(base, fingerprint(&traced_fig2(), 1000, 1));
    }
}
