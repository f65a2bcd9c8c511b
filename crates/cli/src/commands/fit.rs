//! `proclus fit` — run PROCLUS on a dataset file.

use crate::args::{ArgError, Args};
use crate::io::{assignment_labels, read_dataset, write_dataset};
use proclus_core::{Proclus, ProclusModel};
use proclus_math::DistanceKind;
use proclus_obs::json::Json;
use proclus_obs::{Fanout, JsonlRecorder, RingRecorder, TraceSummary};
use std::error::Error;
use std::io::Write;
use std::path::{Path, PathBuf};

pub const HELP: &str = "\
proclus fit — PROCLUS projected clustering (SIGMOD 1999)

  --input <path>    dataset file (.csv or binary) (required)
  --k <usize>       number of clusters (required)
  --l <f64>         average dimensions per cluster (required)
  --seed <u64>      PRNG seed [default 0]
  --restarts <n>    independent hill climbs [default 5]
  --threads <n>     worker threads for heavy passes [default 1]
  --metric <name>   manhattan | euclidean | chebyshev [default manhattan]
  --min-deviation <f> bad-medoid threshold factor [default 0.1]
  --paper-literal   disable the inner refinement (see DESIGN.md)
  --verbose         print the recorded trace summary (convergence,
                    swap history) plus fit diagnostics
  --trace-out <dir> stream events.jsonl + run.json into this directory
                    (inspect later with `proclus inspect-trace`)
  --out <path>      write points + assignment labels to this file
";

/// The flags of `proclus fit` that take no value.
pub const SWITCHES: &[&str] = &["paper-literal", "verbose"];

/// Ring capacity for the `--verbose` summary; old events are evicted
/// (and counted) beyond this, which the summary reports.
pub(crate) const VERBOSE_RING_CAPACITY: usize = 8192;

/// Parse a metric name.
pub fn parse_metric(name: &str) -> Result<DistanceKind, ArgError> {
    match name {
        "manhattan" => Ok(DistanceKind::Manhattan),
        "euclidean" => Ok(DistanceKind::Euclidean),
        "chebyshev" => Ok(DistanceKind::Chebyshev),
        other => Err(ArgError(format!(
            "--metric: unknown metric {other:?} (use manhattan, euclidean, chebyshev)"
        ))),
    }
}

/// The `params` object of the `run.json` manifest.
fn params_json(input: &Path, params: &Proclus, metric: &str, paper_literal: bool) -> Json {
    Json::Obj(vec![
        ("algorithm".into(), Json::Str("proclus".into())),
        ("input".into(), Json::Str(input.display().to_string())),
        ("k".into(), Json::Num(params.k as f64)),
        ("l".into(), Json::Num(params.l)),
        ("seed".into(), Json::Num(params.rng_seed as f64)),
        ("restarts".into(), Json::Num(params.restarts as f64)),
        ("threads".into(), Json::Num(params.threads as f64)),
        ("metric".into(), Json::Str(metric.into())),
        ("min_deviation".into(), Json::Num(params.min_deviation)),
        ("paper_literal".into(), Json::Bool(paper_literal)),
    ])
}

/// The `result` object of the `run.json` manifest.
fn result_json(model: &ProclusModel) -> Json {
    let sizes: Vec<Json> = model
        .clusters()
        .iter()
        .map(|c| Json::Num(c.members.len() as f64))
        .collect();
    Json::Obj(vec![
        ("clusters".into(), Json::Num(model.clusters().len() as f64)),
        ("objective".into(), Json::Num(model.objective())),
        (
            "iterative_objective".into(),
            Json::Num(model.iterative_objective()),
        ),
        ("rounds".into(), Json::Num(model.rounds() as f64)),
        (
            "improvements".into(),
            Json::Num(model.improvements() as f64),
        ),
        ("outliers".into(), Json::Num(model.outliers().len() as f64)),
        ("cluster_sizes".into(), Json::Arr(sizes)),
    ])
}

/// Run the command; prints the model summary.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let input = PathBuf::from(args.require("input")?);
    let k: usize = args.require_parsed("k")?;
    let l: f64 = args.require_parsed("l")?;
    let metric = args.get("metric").unwrap_or("manhattan").to_string();
    let paper_literal = args.switch("paper-literal");
    let mut params = Proclus::new(k, l)
        .seed(args.get_parsed("seed", 0u64)?)
        .restarts(args.get_parsed("restarts", 5usize)?)
        .threads(args.get_parsed("threads", 1usize)?)
        .min_deviation(args.get_parsed("min-deviation", 0.1)?)
        .distance(parse_metric(&metric)?);
    if paper_literal {
        params = params.inner_refinements(0);
    }
    let verbose = args.switch("verbose");
    let trace_dir = args.get("trace-out").map(PathBuf::from);
    let out_path = args.get("out").map(PathBuf::from);
    args.reject_unknown()?;

    let (points, _) = read_dataset(&input)?;

    // Recorders: a ring feeds the --verbose summary, a jsonl recorder
    // streams --trace-out; both at once fan out.
    let ring = verbose.then(|| RingRecorder::new(VERBOSE_RING_CAPACITY));
    let jsonl = match &trace_dir {
        Some(dir) => Some(JsonlRecorder::create(dir)?),
        None => None,
    };
    let model = match (&jsonl, &ring) {
        (Some(j), Some(r)) => params.fit_traced(&points, &Fanout::new(j, r))?,
        (Some(j), None) => params.fit_traced(&points, j)?,
        (None, Some(r)) => params.fit_traced(&points, r)?,
        (None, None) => params.fit(&points)?,
    };

    // Close the trace stream *before* reporting success: JsonlRecorder
    // stashes mid-stream write errors until finish, and a fit whose
    // trace was lost must fail (exit 74) rather than print a model
    // summary over a truncated events.jsonl.
    let manifest = match &jsonl {
        Some(jsonl) => Some(jsonl.finish(
            params_json(&input, &params, &metric, paper_literal),
            result_json(&model),
        )?),
        None => None,
    };

    writeln!(out, "{model}")?;
    if let Some(ring) = &ring {
        let summary = TraceSummary::from_events(&ring.events(), ring.dropped());
        write!(out, "{}", summary.render())?;
        writeln!(out, "diagnostics: {}", model.diagnostics())?;
    }
    if let Some(manifest) = manifest {
        writeln!(out, "trace written to {}", manifest.display())?;
    }
    if let Some(path) = out_path {
        write_dataset(&path, &points, Some(&assignment_labels(model.assignment())))?;
        writeln!(out, "assignment written to {}", path.display())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus_data::SyntheticSpec;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("proclus-cli-fit-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn fits_and_writes_assignment() {
        let input = tmp("in.csv");
        let out = tmp("out.csv");
        let data = SyntheticSpec::new(400, 6, 2, 3.0).seed(2).generate();
        crate::io::write_dataset(input.as_ref(), &data.points, None).unwrap();

        let args = Args::parse(
            toks(&format!("--input {input} --k 2 --l 3 --seed 1 --out {out}")),
            &["paper-literal"],
        )
        .unwrap();
        run(&args, &mut Vec::new()).unwrap();
        let (points, labels) = crate::io::read_dataset(out.as_ref()).unwrap();
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&out).ok();
        assert_eq!(points.rows(), 400);
        assert_eq!(labels.unwrap().len(), 400);
    }

    #[test]
    fn verbose_prints_diagnostics() {
        let input = tmp("verb.csv");
        let data = SyntheticSpec::new(300, 5, 2, 3.0).seed(4).generate();
        crate::io::write_dataset(input.as_ref(), &data.points, None).unwrap();
        let args = Args::parse(
            toks(&format!("--input {input} --k 2 --l 3 --verbose")),
            &["paper-literal", "verbose"],
        )
        .unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_file(&input).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("diagnostics:"), "{text}");
        assert!(text.contains("restarts"), "{text}");
        // The stable recorder-backed summary, not ad-hoc prints.
        assert!(text.contains("algorithm: proclus"), "{text}");
        assert!(text.contains("result: objective="), "{text}");
    }

    #[test]
    fn trace_out_writes_manifest_and_events() {
        let input = tmp("trace-in.csv");
        let dir =
            std::env::temp_dir().join(format!("proclus-cli-fit-trace-{}", std::process::id()));
        let data = SyntheticSpec::new(300, 5, 2, 3.0).seed(3).generate();
        crate::io::write_dataset(input.as_ref(), &data.points, None).unwrap();
        let args = Args::parse(
            toks(&format!(
                "--input {input} --k 2 --l 3 --trace-out {}",
                dir.display()
            )),
            &["paper-literal", "verbose"],
        )
        .unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        std::fs::remove_file(&input).ok();
        assert!(text.contains("trace written to"), "{text}");
        let manifest = std::fs::read_to_string(dir.join(proclus_obs::MANIFEST_FILE)).unwrap();
        assert!(manifest.contains("\"schema_version\":1"), "{manifest}");
        assert!(manifest.contains("\"algorithm\":\"proclus\""), "{manifest}");
        let events = std::fs::read_to_string(dir.join(proclus_obs::EVENTS_FILE)).unwrap();
        let first = events.lines().next().unwrap();
        assert!(first.contains("\"type\":\"fit_start\""), "{first}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--restarts 0` means one climb, and the manifest says so: the
    /// recorded `params.restarts` matches the `fit_start` event.
    #[test]
    fn zero_restarts_are_recorded_as_one() {
        let input = tmp("zero-restarts.csv");
        let dir = std::env::temp_dir().join(format!(
            "proclus-cli-fit-zero-restarts-{}",
            std::process::id()
        ));
        let data = SyntheticSpec::new(300, 5, 2, 3.0).seed(8).generate();
        crate::io::write_dataset(input.as_ref(), &data.points, None).unwrap();
        let args = Args::parse(
            toks(&format!(
                "--input {input} --k 2 --l 3 --restarts 0 --trace-out {}",
                dir.display()
            )),
            SWITCHES,
        )
        .unwrap();
        run(&args, &mut Vec::new()).unwrap();
        std::fs::remove_file(&input).ok();
        let manifest = std::fs::read_to_string(dir.join(proclus_obs::MANIFEST_FILE)).unwrap();
        let events = std::fs::read_to_string(dir.join(proclus_obs::EVENTS_FILE)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(manifest.contains("\"restarts\":1,"), "{manifest}");
        let first = events.lines().next().unwrap();
        assert!(first.contains("\"restarts\":1"), "{first}");
    }

    /// The retired `--no-index`, `--fast-math` and `--no-round-cache`
    /// switches are unknown flags now: wherever they appear, the command
    /// fails with a usage error (exit 2) instead of fitting.
    #[test]
    fn retired_switches_are_usage_errors() {
        let input = tmp("retired.csv");
        let data = SyntheticSpec::new(200, 5, 2, 2.0).seed(5).generate();
        crate::io::write_dataset(input.as_ref(), &data.points, None).unwrap();
        for flag in ["--no-index", "--fast-math", "--no-round-cache"] {
            // Last on the line the flag has no value to take; before
            // another option it swallows that option's name, leaving a
            // stray positional; after the options it swallows a switch
            // and is never read.
            for line in [
                format!("--input {input} --k 2 --l 2 {flag}"),
                format!("--input {input} {flag} --k 2 --l 2"),
                format!("--input {input} --k 2 --l 2 {flag} --verbose"),
            ] {
                let err: Box<dyn Error> = match Args::parse(toks(&line), SWITCHES) {
                    Err(e) => Box::new(e),
                    Ok(args) => run(&args, &mut Vec::new()).unwrap_err(),
                };
                assert!(err.downcast_ref::<ArgError>().is_some(), "{line}: {err}");
                assert_eq!(crate::exit_code_for(err.as_ref()), 2, "{line}: {err}");
            }
        }
        std::fs::remove_file(&input).ok();
    }

    /// `--trace-out` into an unwritable location must fail the command
    /// with a located I/O error (the CLI maps it to exit 74) and leave
    /// no truncated events.jsonl behind.
    #[test]
    fn unwritable_trace_dir_fails_with_located_io_error() {
        let input = tmp("badtrace.csv");
        let data = SyntheticSpec::new(200, 5, 2, 2.0).seed(5).generate();
        crate::io::write_dataset(input.as_ref(), &data.points, None).unwrap();
        // A *file* where the trace directory's parent should be makes
        // every create under it fail naturally (works even as root,
        // where permission bits are ignored).
        let blocker = tmp("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let trace_dir = format!("{blocker}/trace");
        let args = Args::parse(
            toks(&format!(
                "--input {input} --k 2 --l 2 --trace-out {trace_dir}"
            )),
            &["paper-literal"],
        )
        .unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        std::fs::remove_file(&input).ok();
        let msg = err.to_string();
        assert!(msg.contains(&trace_dir) || msg.contains(&blocker), "{msg}");
        assert_eq!(crate::exit_code_for(err.as_ref()), 74, "{msg}");
        assert!(!std::path::Path::new(&trace_dir)
            .join(proclus_obs::EVENTS_FILE)
            .exists());
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn metric_parsing() {
        assert_eq!(parse_metric("manhattan").unwrap(), DistanceKind::Manhattan);
        assert_eq!(parse_metric("euclidean").unwrap(), DistanceKind::Euclidean);
        assert!(parse_metric("cosine").is_err());
    }

    #[test]
    fn invalid_params_surface_as_errors() {
        let input = tmp("bad.csv");
        let data = SyntheticSpec::new(50, 4, 2, 2.0).seed(1).generate();
        crate::io::write_dataset(input.as_ref(), &data.points, None).unwrap();
        // l > d.
        let args = Args::parse(
            toks(&format!("--input {input} --k 2 --l 9")),
            &["paper-literal"],
        )
        .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn missing_input_file_errors() {
        let args = Args::parse(
            toks("--input /nonexistent/x.csv --k 2 --l 2"),
            &["paper-literal"],
        )
        .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }
}
