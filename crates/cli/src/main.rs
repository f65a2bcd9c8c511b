//! `proclus` — command-line interface to the projected-clustering
//! toolkit: dataset generation, PROCLUS / CLIQUE / ORCLUS runs, and
//! clustering evaluation.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod args;
mod commands;
mod io;

use args::{ArgError, Args};
use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
proclus — projected clustering toolkit (PROCLUS, SIGMOD 1999)

usage: proclus <command> [options]

commands:
  generate   synthesize a projected-cluster dataset (paper 4.1)
  scenario   generate a declarative workload scenario from a .scn spec
  fit        PROCLUS projected clustering
  clique     CLIQUE subspace clustering baseline
  orclus     generalized (oriented) projected clustering
  stream     continuous ingest with drift-triggered, gated rollover
  serve      resident HTTP server (upload / fit / assign / classify)
  evaluate   confusion matrix / ARI / NMI of two labeled files
  inspect    summarize a dataset file
  inspect-trace  summarize a fit, stream, serve or scenario trace
             written by --trace-out, or diff two of them phase by phase
  help       show this message (or `proclus <command> --help`)

Dataset files ending in .csv are text; any other extension uses the
compact binary format.

exit codes:
  0   success (including degraded-but-usable fits; see --verbose)
  2   usage error (bad flags or arguments)
  64  invalid algorithm parameters (k, l, tau, ...)
  65  malformed dataset content (bad CSV cell, corrupt binary, bad labels)
  66  input file missing or unreadable
  69  degenerate data / cluster collapse / non-convergence
  74  other I/O error
";

/// Map an error to its documented exit code by walking the concrete
/// error types a run can surface.
fn exit_code_for(e: &(dyn Error + 'static)) -> u8 {
    use proclus_core::{ProclusError, RegistryError, StreamError};
    use proclus_data::DataError;
    fn registry_code(re: &RegistryError) -> u8 {
        match re {
            // Registry I/O is never "missing input": the directory is
            // created on open, so any failure is a real I/O fault.
            RegistryError::Io { .. } => 74,
            RegistryError::Corrupt { .. } => 65,
        }
    }
    if e.downcast_ref::<ArgError>().is_some() {
        return 2;
    }
    if let Some(se) = e.downcast_ref::<StreamError>() {
        return match se {
            StreamError::Config(_) => 64,
            StreamError::Registry(re) => registry_code(re),
        };
    }
    if let Some(re) = e.downcast_ref::<RegistryError>() {
        return registry_code(re);
    }
    if let Some(se) = e.downcast_ref::<proclus_serve::ServeError>() {
        return match se {
            proclus_serve::ServeError::Bind { .. } => 74,
            proclus_serve::ServeError::Registry(re) => registry_code(re),
        };
    }
    if let Some(pe) = e.downcast_ref::<ProclusError>() {
        return match pe {
            ProclusError::InvalidParameters(_)
            | ProclusError::TooFewPoints { .. }
            | ProclusError::DimensionalityTooLow { .. } => 64,
            ProclusError::DegenerateData { .. }
            | ProclusError::ClusterCollapse { .. }
            | ProclusError::NonConvergence { .. } => 69,
        };
    }
    if let Some(de) = e.downcast_ref::<DataError>() {
        return match de {
            DataError::Io { source, .. } => match source.kind() {
                std::io::ErrorKind::NotFound | std::io::ErrorKind::PermissionDenied => 66,
                _ => 74,
            },
            _ => 65,
        };
    }
    if let Some(ce) = e.downcast_ref::<proclus_clique::CliqueError>() {
        return match ce {
            proclus_clique::CliqueError::InvalidTau(_) | proclus_clique::CliqueError::InvalidXi => {
                64
            }
            proclus_clique::CliqueError::EmptyDataset => 69,
        };
    }
    if e.downcast_ref::<proclus_orclus::OrclusError>().is_some() {
        return 64;
    }
    if e.downcast_ref::<proclus_eval::EvalError>().is_some()
        || e.downcast_ref::<io::MalformedDataset>().is_some()
        || e.downcast_ref::<commands::inspect_trace::MalformedTrace>()
            .is_some()
    {
        return 65;
    }
    if e.downcast_ref::<std::io::Error>().is_some() {
        return 74;
    }
    1
}

/// Signature shared by every subcommand entry point.
type Runner = fn(&Args, &mut dyn Write) -> Result<(), Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest: Vec<String> = argv.collect();
    let wants_help = rest.iter().any(|a| a == "--help" || a == "-h");

    let (help, switches, runner): (&str, &[&str], Runner) = match command.as_str() {
        "generate" => (
            commands::generate::HELP,
            &["no-labels"],
            commands::generate::run,
        ),
        "scenario" => (
            commands::scenario::HELP,
            &["print-canonical"],
            commands::scenario::run,
        ),
        "fit" => (
            commands::fit::HELP,
            commands::fit::SWITCHES,
            commands::fit::run,
        ),
        "clique" => (
            commands::clique::HELP,
            &["descriptions", "mdl"],
            commands::clique::run,
        ),
        "orclus" => (commands::orclus::HELP, &[], commands::orclus::run),
        "stream" => (
            commands::stream::HELP,
            commands::stream::SWITCHES,
            commands::stream::run,
        ),
        "serve" => (commands::serve::HELP, &[], commands::serve::run),
        "evaluate" => (commands::evaluate::HELP, &[], commands::evaluate::run),
        "inspect" => (commands::inspect::HELP, &[], commands::inspect::run),
        "inspect-trace" => (
            commands::inspect_trace::HELP,
            &[],
            commands::inspect_trace::run,
        ),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if wants_help {
        print!("{help}");
        return ExitCode::SUCCESS;
    }
    let pairs: &[&str] = if command == "inspect-trace" {
        commands::inspect_trace::PAIRS
    } else {
        &[]
    };
    let parsed = match Args::parse_with_pairs(rest, switches, pairs) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{help}");
            return ExitCode::from(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let result = runner(&parsed, &mut out).and_then(|()| Ok(out.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A closed pipe (e.g. `proclus ... | head`) is not an error.
        Err(e)
            if e.downcast_ref::<std::io::Error>()
                .is_some_and(|io| io.kind() == std::io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(exit_code_for(e.as_ref()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus_core::ProclusError;
    use proclus_data::DataError;

    fn code(e: impl Error + 'static) -> u8 {
        exit_code_for(&e)
    }

    #[test]
    fn exit_codes_by_error_class() {
        assert_eq!(code(ArgError("bad flag".into())), 2);
        assert_eq!(code(ProclusError::InvalidParameters("k".into())), 64);
        assert_eq!(code(ProclusError::TooFewPoints { needed: 5, got: 1 }), 64);
        assert_eq!(
            code(ProclusError::DegenerateData {
                reason: "nan".into()
            }),
            69
        );
        assert_eq!(code(ProclusError::ClusterCollapse { rounds: 3 }), 69);
        assert_eq!(code(ProclusError::NonConvergence { restarts: 5 }), 69);
        assert_eq!(
            code(DataError::Csv {
                path: "x.csv".into(),
                line: 2,
                column: Some(1),
                token: None,
                reason: "bad".into(),
            }),
            65
        );
        assert_eq!(
            code(DataError::io(
                std::path::Path::new("gone.csv"),
                std::io::Error::from(std::io::ErrorKind::NotFound),
            )),
            66
        );
        assert_eq!(
            code(DataError::io(
                std::path::Path::new("x.csv"),
                std::io::Error::other("disk on fire"),
            )),
            74
        );
        assert_eq!(code(proclus_clique::CliqueError::InvalidTau(0.0)), 64);
        assert_eq!(code(proclus_clique::CliqueError::EmptyDataset), 69);
        assert_eq!(
            code(proclus_eval::EvalError::LengthMismatch {
                output: 1,
                truth: 2
            }),
            65
        );
        assert_eq!(code(io::MalformedDataset("bad label".into())), 65);
        assert_eq!(
            code(commands::inspect_trace::MalformedTrace("bad line".into())),
            65
        );
        assert_eq!(code(std::io::Error::other("hup")), 74);
        assert_eq!(code(std::fmt::Error), 1);
    }

    #[test]
    fn stream_and_registry_errors_map_to_documented_codes() {
        use proclus_core::{RegistryError, StreamError};
        assert_eq!(
            code(StreamError::Config(ProclusError::InvalidParameters(
                "patience".into()
            ))),
            64
        );
        assert_eq!(
            code(StreamError::Registry(RegistryError::Io {
                path: "reg".into(),
                source: std::io::Error::other("disk"),
            })),
            74
        );
        assert_eq!(
            code(RegistryError::Corrupt {
                path: "gen-000001.prcm".into(),
                offset: 12,
                reason: "checksum mismatch".into(),
            }),
            65
        );
    }
}
