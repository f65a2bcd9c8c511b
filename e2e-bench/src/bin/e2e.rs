//! `e2e` — run one benchmark workload, or compare two sets of runs.
//!
//! ```text
//! e2e --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]
//!     [--trace-dir DIR] [--work-dir DIR]
//! e2e --compare BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints a context line (workload, seed, nproc, rev, profile,
//! median calibration pass, sample counts, unscaled times, failures) and
//! then, as its last line, the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use proclus_e2e_bench::{compare, run, workload, Options, Workload};

const USAGE: &str = "usage: e2e --workload <fit-d20|fit-d100|serve-assign|serve-mixed> \
--seed <u64> [--seconds <s>] [--trace 0|1] [--smoke] [--trace-dir DIR] [--work-dir DIR]\n\
       e2e --compare BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]";

/// Default timed window: `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 25.0;

enum Command {
    Run(Options),
    Compare {
        base: PathBuf,
        change: PathBuf,
        benchmark: PathBuf,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut trace_dir = None;
    let mut work_root = PathBuf::from(".bench_work");
    let mut compare_dirs = None;
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs a u64")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--trace-dir" => trace_dir = Some(PathBuf::from(value()?)),
            "--work-dir" => work_root = PathBuf::from(value()?),
            "--benchmark" => benchmark = PathBuf::from(value()?),
            "--compare" => {
                let base = PathBuf::from(value()?);
                compare_dirs = Some((base, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some((base, change)) = compare_dirs {
        return Ok(Command::Compare {
            base,
            change,
            benchmark,
        });
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Options {
        workload,
        seed,
        seconds: seconds.unwrap_or(if smoke { 1.0 } else { DEFAULT_SECONDS }),
        trace,
        trace_dir: trace_dir.unwrap_or_else(|| work_root.join("trace")),
        work_dir: work_root.join(format!("run-{}", std::process::id())),
        smoke,
    }))
}

fn compare_dirs(base: &Path, change: &Path, benchmark: &Path) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let rules = compare::rules(&text)?;
    let (table, regressed) = compare::render(
        &compare::load_dir(base)?,
        &compare::load_dir(change)?,
        &rules,
    );
    print!("{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Compare {
            base,
            change,
            benchmark,
        }) => match compare_dirs(&base, &change, &benchmark) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("e2e: {e}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run(opts)) => match run(&opts) {
            Ok(report) => {
                for f in &report.failures {
                    eprintln!("e2e: failed: {f}");
                }
                println!(
                    "{}",
                    report.context_line(opts.workload.name(), opts.seed, opts.trace, opts.smoke)
                );
                println!("{}", report.result_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("e2e: {}: {e}", opts.workload.name());
                ExitCode::from(1)
            }
        },
    }
}
