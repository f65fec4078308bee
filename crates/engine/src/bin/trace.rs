//! `trace` — run one kernel with cycle-accurate tracing and emit its
//! profile: a Perfetto-loadable Chrome trace-event JSON, an optional
//! annotated text trace, and a terminal occupancy/stall summary.
//!
//! ```text
//! trace --kernel pi_lcg --variant copift --out trace.json
//! trace --kernel pi_lcg --variant copift --cores 8 --n 1024 --block 32 --out trace.json
//! trace --kernel exp --variant base --text trace.txt
//! ```
//!
//! The JSON is validated against the trace-event schema before it is
//! written, so a file this tool produces always loads in Perfetto
//! (<https://ui.perfetto.dev>).

use std::process::ExitCode;

use snitch_engine::{Engine, JobSpec};
use snitch_kernels::registry::{Kernel, Variant};
use snitch_sim::config::ClusterConfig;
use snitch_trace::{chrome, text, Profile, StallCause};

const USAGE: &str = "\
usage: trace --kernel NAME [OPTIONS]

Options:
  --kernel NAME   cataloged kernel to trace (required; see `sweep --help`)
  --variant V     base or copift (default: copift)
  --n N           problem size (default: the kernel's smoke point)
  --block B       block size (default: the kernel's smoke point)
  --cores N       compute cores to simulate (default: 1)
  --out PATH      write Chrome trace-event JSON (Perfetto-loadable)
  --text PATH     write the annotated text trace
  --quiet         suppress the terminal summary
";

struct Args {
    kernel: Kernel,
    variant: Variant,
    n: Option<usize>,
    block: Option<usize>,
    cores: usize,
    out: Option<String>,
    text: Option<String>,
    quiet: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kernel = None;
    let mut variant = Variant::Copift;
    let (mut n, mut block) = (None, None);
    let mut cores = 1usize;
    let (mut out, mut text) = (None, None);
    let mut quiet = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--kernel" => {
                let name = value_of("--kernel")?;
                kernel = Some(
                    Kernel::from_name(name).ok_or_else(|| format!("unknown kernel `{name}`"))?,
                );
            }
            "--variant" => {
                let name = value_of("--variant")?;
                variant =
                    Variant::from_name(name).ok_or_else(|| format!("unknown variant `{name}`"))?;
            }
            "--n" => n = Some(value_of("--n")?.parse().map_err(|_| "--n: bad value")?),
            "--block" => {
                block = Some(value_of("--block")?.parse().map_err(|_| "--block: bad value")?);
            }
            "--cores" => {
                cores = value_of("--cores")?.parse().map_err(|_| "--cores: bad value")?;
            }
            "--out" => out = Some(value_of("--out")?.clone()),
            "--text" => text = Some(value_of("--text")?.clone()),
            "--quiet" => quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let kernel = kernel.ok_or("--kernel is required")?;
    Ok(Args { kernel, variant, n, block, cores, out, text, quiet })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("trace: {msg}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let (smoke_n, smoke_block) = args.kernel.smoke_point();
    let (n, block) = (args.n.unwrap_or(smoke_n), args.block.unwrap_or(smoke_block));
    let config = ClusterConfig { cores: args.cores, ..ClusterConfig::default() };
    let job = JobSpec::new(args.kernel, args.variant, n, block).with_config(config).traced();
    let label = job.label();

    let records = Engine::new(1).run(std::slice::from_ref(&job));
    let record = &records[0];
    if !record.ok {
        eprintln!("trace: {label} failed: {}", record.error.as_deref().unwrap_or("unknown"));
        return ExitCode::FAILURE;
    }
    let events = record.trace.as_deref().expect("traced job carries events");
    let stats = record.stats.as_ref().expect("successful record carries stats");
    let profile = Profile::new(events, stats.cycles);

    if let Some(path) = &args.out {
        let json = chrome::render(events);
        let summary = match chrome::validate(&json) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("trace: internal error: emitted JSON fails its schema: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("trace: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "trace: wrote {path}: {} events ({} spans, {} counters) — load at ui.perfetto.dev",
            summary.events, summary.complete, summary.counters
        );
    }
    if let Some(path) = &args.text {
        if let Err(e) = std::fs::write(path, text::render(events)) {
            eprintln!("trace: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace: wrote {path}");
    }

    if !args.quiet {
        let steady = profile.steady_window();
        println!("{label}: {} cycles, IPC {:.3} (full run)", stats.cycles, stats.ipc());
        println!(
            "steady-state window [{}, {}): IPC {:.3}",
            steady.start,
            steady.end,
            profile.steady_ipc()
        );
        for hart in profile.harts() {
            let occ = profile.occupancy(hart);
            println!(
                "hart {hart}: core {} cycles, frep {} cycles, overlap {} ({:.1}% of run), idle {}",
                occ.core_busy,
                occ.frep_busy,
                occ.overlap,
                100.0 * occ.overlap_frac(),
                occ.idle
            );
        }
        let lost: Vec<_> = StallCause::all()
            .into_iter()
            .map(|cause| (cause, stats.stall_by_cause(cause)))
            .filter(|&(_, cycles)| cycles > 0)
            .collect();
        if !lost.is_empty() {
            println!("lost cycles by cause:");
            for (cause, cycles) in lost {
                println!("  {:<14} {cycles:>8}", cause.name());
            }
        }
        // A Perfetto-screenshot-equivalent glimpse of the steady state.
        let width = 72u64;
        let window = if steady.end - steady.start > width {
            steady.start..steady.start + width
        } else {
            steady.clone()
        };
        println!(
            "occupancy, cycles [{}, {}) (█ = lane issued, · = idle):",
            window.start, window.end
        );
        print!("{}", profile.ascii_timeline(0, &window, width as usize));
    }
    ExitCode::SUCCESS
}
