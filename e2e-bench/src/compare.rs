//! `e2e --compare BASE_DIR CHANGE_DIR`: verdicts for every (workload,
//! metric) pair from two sets of saved runs.
//!
//! Each file in a directory holds one run's standard output (context
//! line, then result line). Runs pair up per workload in (seed, file
//! name) order, so runs of the same seeds on both sides pair with each
//! other. The rules:
//!
//! * **gain** — the change wins at least nine tenths of the pairs (ties
//!   count for neither side) and the medians differ, in its favour, by
//!   more than the parent's interquartile range;
//! * **regression** — the change's median is worse than the parent's
//!   by more than the metric's bound (a share of the parent's median);
//! * **unresolved** — either side's interquartile range exceeds the
//!   bound, unless every change run beats every parent run;
//! * **unchanged** — none of the above.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use proclus_obs::json::{self, Json};

use crate::stats::{median, quartiles};

/// One saved run.
#[derive(Clone, Debug)]
pub struct RunFile {
    /// File name it came from.
    pub file: String,
    /// Workload name.
    pub workload: String,
    /// Seed of the run.
    pub seed: u64,
    /// Whether it was a traced run.
    pub trace: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// A metric's regression rule from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The outcome for one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A gain by the pair rule.
    Gain,
    /// Worse than the parent by more than the bound.
    Regression,
    /// Too noisy to call.
    Unresolved,
    /// Within the bound.
    Unchanged,
}

impl Kind {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Gain => "gain",
            Kind::Regression => "regression",
            Kind::Unresolved => "unresolved",
            Kind::Unchanged => "unchanged",
        }
    }
}

/// Both sides' quartiles, the pair tally and the resulting kind.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Parent (q1, median, q3).
    pub base: (f64, f64, f64),
    /// Change (q1, median, q3).
    pub change: (f64, f64, f64),
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The outcome.
    pub kind: Kind,
}

/// Apply the rules to paired samples (`base[i]` pairs with
/// `change[i]`); `None` with fewer than two runs on either side.
pub fn verdict(base: &[f64], change: &[f64], rule: &Rule) -> Option<Verdict> {
    let b = quartiles(base)?;
    let c = quartiles(change)?;
    let better = |x: f64, y: f64| {
        if rule.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(&bv, &cv)| better(cv, bv))
        .count();
    let worse_by = if rule.higher_is_better {
        b.1 - c.1
    } else {
        c.1 - b.1
    };
    let spread = |q: (f64, f64, f64)| (q.2 - q.0) / q.1.abs();
    let all_better = change
        .iter()
        .all(|&cv| base.iter().all(|&bv| better(cv, bv)));
    let kind = if wins * 10 >= pairs * 9 && worse_by < 0.0 && -worse_by > b.2 - b.0 {
        Kind::Gain
    } else if worse_by > rule.bound * b.1.abs() {
        Kind::Regression
    } else if (spread(b) > rule.bound || spread(c) > rule.bound) && !all_better {
        Kind::Unresolved
    } else {
        Kind::Unchanged
    };
    Some(Verdict {
        base: b,
        change: c,
        wins,
        pairs,
        kind,
    })
}

/// Read the end-to-end rules out of `BENCHMARK.json` text.
///
/// # Errors
///
/// Malformed JSON or a malformed `end_to_end` entry.
pub fn rules(benchmark: &str) -> Result<Vec<Rule>, String> {
    let v = json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str);
            let better = e.get("better").and_then(Json::as_str);
            let bound = e.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b @ ("higher" | "lower")), Some(bound)) => Ok(Rule {
                    name: n.to_string(),
                    higher_is_better: b == "higher",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {e}")),
            }
        })
        .collect()
}

/// Parse one saved run (its context line and its last line).
pub fn parse_run(file: &str, text: &str) -> Option<RunFile> {
    let context = text
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .find(|v| v.get("workload").is_some())?;
    let result = json::parse(text.lines().rev().find(|l| !l.trim().is_empty())?).ok()?;
    let Some(Json::Obj(members)) = result.get("metrics") else {
        return None;
    };
    let metrics = members
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Some(RunFile {
        file: file.to_string(),
        workload: context.get("workload")?.as_str()?.to_string(),
        seed: context.get("seed")?.as_usize()? as u64,
        trace: context.get("trace")?.as_bool()?,
        metrics,
    })
}

/// Load every run saved in `dir`, sorted by (seed, file name).
///
/// # Errors
///
/// An unreadable directory or file.
pub fn load_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if !path.is_file() {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path
            .file_name()
            .map_or(String::new(), |n| n.to_string_lossy().into_owned());
        match parse_run(&name, &text) {
            Some(run) => runs.push(run),
            None => eprintln!("compare: skipping {} (no run result)", path.display()),
        }
    }
    runs.sort_by(|a, b| (a.seed, &a.file).cmp(&(b.seed, &b.file)));
    Ok(runs)
}

/// `x` to five significant digits, so values of any magnitude keep the
/// table's columns aligned.
fn sig(x: f64) -> String {
    let magnitude = if x == 0.0 || !x.is_finite() {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (4 - magnitude).clamp(0, 12) as usize)
}

fn series(runs: &[RunFile], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Render the comparison of two sets of runs. Returns the report and
/// whether any pair regressed.
pub fn render(base: &[RunFile], change: &[RunFile], rules: &[Rule]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let workloads: Vec<&str> = {
        let mut w: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
        w.sort_unstable();
        w.dedup();
        w.retain(|w| change.iter().any(|r| r.workload == *w));
        w
    };
    let _ = writeln!(
        out,
        "{:<13} {:<13} {:>32} {:>32} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let q = |q: (f64, f64, f64)| format!("{} [{}, {}]", sig(q.1), sig(q.0), sig(q.2));
    for w in &workloads {
        for rule in rules {
            let b = series(base, w, false, &rule.name);
            let c = series(change, w, false, &rule.name);
            let line = match verdict(&b, &c, rule) {
                Some(v) => {
                    regressed |= v.kind == Kind::Regression;
                    format!(
                        "{:>32} {:>32} {:>7}  {}",
                        q(v.base),
                        q(v.change),
                        format!("{}/{}", v.wins, v.pairs),
                        v.kind.label()
                    )
                }
                None => format!(
                    "{:>32} {:>32} {:>7}  unresolved (fewer than 2 runs)",
                    b.len(),
                    c.len(),
                    ""
                ),
            };
            let _ = writeln!(out, "{w:<13} {:<13} {line}", rule.name);
        }
    }
    // Traced runs: per-layer medians side by side, no verdicts.
    let mut header = false;
    for w in &workloads {
        let names: Vec<&String> = base
            .iter()
            .filter(|r| r.workload == *w && r.trace)
            .flat_map(|r| r.metrics.keys())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for name in names {
            let (Some(b), Some(c)) = (
                median(&series(base, w, true, name)),
                median(&series(change, w, true, name)),
            ) else {
                continue;
            };
            if !header {
                let _ = writeln!(out, "\nper-layer medians (traced runs)");
                header = true;
            }
            let ratio = if b == 0.0 {
                String::from("n/a")
            } else {
                format!("{:.3}x", c / b)
            };
            let _ = writeln!(out, "{w:<13} {name:<30} {b:>14.5} {c:>14.5} {ratio:>9}");
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Rule {
        Rule {
            name: "latency_ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    fn noisy(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i * 7 % 10) as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn a_clear_win_in_every_pair_is_a_gain() {
        let base = noisy(100.0, 1.0);
        let change: Vec<f64> = base.iter().map(|b| b * 0.9).collect();
        let v = verdict(&base, &change, &lower(0.1)).unwrap();
        assert_eq!(v.kind, Kind::Gain);
        assert_eq!((v.wins, v.pairs), (10, 10));
    }

    #[test]
    fn eight_wins_in_ten_is_not_a_gain() {
        let base = noisy(100.0, 1.0);
        let mut change: Vec<f64> = base.iter().map(|b| b * 0.9).collect();
        change[0] = base[0] + 1.0;
        change[1] = base[1] + 1.0;
        let v = verdict(&base, &change, &lower(0.1)).unwrap();
        assert_eq!(v.wins, 8);
        assert_eq!(v.kind, Kind::Unchanged);
    }

    #[test]
    fn a_win_inside_the_parent_spread_is_not_a_gain() {
        let base = noisy(100.0, 10.0);
        let change: Vec<f64> = base.iter().map(|b| b - 0.5).collect();
        let v = verdict(&base, &change, &lower(0.25)).unwrap();
        assert_eq!(v.wins, 10);
        assert_eq!(v.kind, Kind::Unchanged);
    }

    #[test]
    fn worse_by_more_than_the_bound_is_a_regression() {
        let base = noisy(100.0, 1.0);
        let change = noisy(115.0, 1.0);
        assert_eq!(
            verdict(&base, &change, &lower(0.1)).unwrap().kind,
            Kind::Regression
        );
        // The same shift within a wider bound is not.
        assert_eq!(
            verdict(&base, &change, &lower(0.2)).unwrap().kind,
            Kind::Unchanged
        );
        // Direction matters: for a higher-is-better metric it is a gain.
        let higher = Rule {
            higher_is_better: true,
            ..lower(0.1)
        };
        assert_eq!(verdict(&base, &change, &higher).unwrap().kind, Kind::Gain);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = noisy(100.0, 30.0);
        let change = noisy(101.0, 30.0);
        assert_eq!(
            verdict(&base, &change, &lower(0.1)).unwrap().kind,
            Kind::Unresolved
        );
        // Unless every change run beats every parent run.
        let change = noisy(40.0, 5.0);
        let rule = lower(0.1);
        let v = verdict(&base, &change, &rule).unwrap();
        assert_ne!(v.kind, Kind::Unresolved);
    }

    #[test]
    fn table_values_keep_five_significant_digits() {
        assert_eq!(sig(25_535.794), "25536");
        assert_eq!(sig(597.41548), "597.42");
        assert_eq!(sig(0.009_212_79), "0.0092128");
        assert_eq!(sig(0.0), "0.0000");
    }

    #[test]
    fn too_few_runs_give_no_verdict() {
        assert!(verdict(&[1.0], &[1.0, 2.0], &lower(0.1)).is_none());
    }

    #[test]
    fn runs_and_rules_parse_from_their_files() {
        let text = "noise\n{\"workload\":\"fit-d20\",\"seed\":3,\"trace\":false}\n{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"fit_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n";
        let run = parse_run("a.json", text).unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.trace),
            ("fit-d20", 3, false)
        );
        assert_eq!(run.metrics.get("fit_s"), Some(&1.5));
        assert!(parse_run("b.json", "build failed\n").is_none());

        let r =
            rules(r#"{"end_to_end":[{"name":"fit_s","unit":"s","better":"lower","bound":0.1}]}"#)
                .unwrap();
        assert_eq!(
            r,
            vec![Rule {
                name: "fit_s".into(),
                higher_is_better: false,
                bound: 0.1
            }]
        );
        assert!(rules(r#"{"end_to_end":[{"name":"x","better":"sideways","bound":1}]}"#).is_err());

        let base = vec![
            run.clone(),
            RunFile {
                seed: 4,
                ..run.clone()
            },
        ];
        let (table, regressed) = render(&base, &base, &r);
        assert!(table.contains("fit-d20"), "{table}");
        assert!(table.contains("unchanged"), "{table}");
        assert!(!regressed);
    }
}
