//! Host facts recorded with every result, and the peak-memory probe.

use std::path::Path;

/// What a result depends on besides the code: the hardware threads, the
/// effective worker count, the revision and the compiler.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The engine's effective worker count (`Engine::workers()`).
    pub workers: usize,
    /// The git revision of the working directory, or `unknown` outside a
    /// git checkout.
    pub git_rev: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
}

impl Host {
    /// Collects the facts for an engine with `workers` effective workers.
    #[must_use]
    pub fn collect(workers: usize) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            workers,
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }
}

/// Resolves `HEAD` by reading the git directory itself (no `git` process).
fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// The process's peak resident memory of its own, in MiB: the peak
/// resident set (`VmHWM`) less the file-backed and shared pages resident
/// now (`RssFile`, `RssShmem`). Those are the pages of the binary and its
/// libraries; how many of them a run maps depends on what the host's page
/// cache holds (fault-around maps cached neighbours too), which moved
/// `VmHWM` by 6% between identical `fig2` runs while the anonymous memory
/// stayed the same to the kilobyte. File pages stay mapped once touched, so
/// the difference is the anonymous peak. One process runs one workload, so
/// this is the workload's peak.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = |key: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    Some((kib("VmHWM:")? - kib("RssFile:")? - kib("RssShmem:")?) / 1024.0)
}
