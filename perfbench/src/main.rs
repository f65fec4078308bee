//! `perfbench --workload <fig2|scaling-grid> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints the metric table, then the full result object on a line starting
//! `result ` (what the ledger keeps), then the summary JSON object as the
//! last line.

use std::process::ExitCode;

use perfbench::bench::{self, Options};
use perfbench::report;
use perfbench::workload::Workload;

const USAGE: &str = "usage: perfbench --workload <fig2|scaling-grid> --seed <n> \
                     --seconds <1..=600> --trace <0|1>";

fn main() -> ExitCode {
    let options = match parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = bench::run(options);
    print!("{}", report::table(&outcome));
    println!("result {}", report::result_json(&outcome));
    println!("{}", report::summary_json(&outcome));
    ExitCode::SUCCESS
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}
