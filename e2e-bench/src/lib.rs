//! End-to-end benchmark of this repository: full default-configuration
//! PROCLUS fits and the serving daemon under closed-loop load, each run
//! checking its own outputs, plus a traced run that breaks the time
//! down layer by layer and a pair comparison of two sets of runs. Times
//! are scaled to a reference host speed by a calibration kernel sampled
//! alongside the work (see [`speed`]).
//!
//! Durability rule: the benchmark calls only stable public APIs —
//! `ScenarioSpec`, `Proclus::new(..).seed(..)` with `fit` /
//! `fit_traced` and `RingRecorder`, `proclus_serve::{start,
//! http::read_request, router::handle, Response::write_to}` (with
//! `AppState::new` to replay in-process), `binio`,
//! `ProclusModel::assign_batch` and `ModelRegistry::{open,
//! current_generation_on_disk, load, publish}`. It imports nothing from
//! the optional layers (`pool`, `index`, `layout`, `kernel`, `cache`)
//! and sets none of their toggles, so those layers can be rewritten or
//! deleted without editing it; their counters are read by name.
//! See README.md for the workloads, metrics and pair protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

pub mod compare;
mod fit;
pub mod report;
pub mod serve;
pub mod speed;
pub mod stats;
mod trace;
pub mod workload;

pub use report::Report;
pub use workload::Workload;

/// Everything one run needs to know.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Where a traced run writes `spans.jsonl`.
    pub trace_dir: PathBuf,
    /// Scratch directory of this run (registries); removed at the end.
    pub work_dir: PathBuf,
    /// Shrink every workload to [`workload::SMOKE_ROWS`] rows.
    pub smoke: bool,
}

/// Run one workload and return what it measured.
///
/// # Errors
///
/// A failure to set up or to write the trace; wrong outputs are counted
/// in the report, not returned as errors.
pub fn run(opts: &Options) -> Result<Report, String> {
    let tracer = trace::Tracer::new(opts.trace);
    let calibrator = speed::Calibrator::default();
    let mut report = Report::default();
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("creating {}: {e}", opts.work_dir.display()))?;
    let outcome = match opts.workload {
        Workload::FitD20 | Workload::FitD100 => fit::run(opts, &tracer, &calibrator, &mut report),
        Workload::ServeAssign | Workload::ServeMixed => {
            serve::run(opts, &tracer, &calibrator, &mut report)
        }
    };
    report.calibration_s = calibrator.median_s();
    // Best effort: a leftover scratch directory must not fail the run.
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    outcome?;
    if opts.trace {
        let generate_ms: Vec<f64> = tracer
            .durations_us("scenario.generate")
            .iter()
            .map(|us| us / 1e3)
            .collect();
        report.median("scenario.generate_ms", &generate_ms, "ms");
        let path = opts.trace_dir.join("spans.jsonl");
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(report)
}
