//! What one run reports: metrics with units, operation counts, and the
//! two stdout lines (a context line, then the result line).

use proclus_obs::json;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// The value before scaling to the reference host speed, for
    /// time-derived metrics.
    pub raw: Option<f64>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (fits, requests, fit jobs, setup steps).
    pub attempted: u64,
    /// Attempted operations that failed or produced a wrong output.
    pub failed: u64,
    /// One line per failure kind (the first occurrence).
    pub failures: Vec<String>,
    /// Median seconds of one calibration pass over the run.
    pub calibration_s: Option<f64>,
}

impl Report {
    /// Record a metric summarizing `samples` samples.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            raw: None,
        });
    }

    /// Record a time-derived metric scaled to the reference host speed,
    /// keeping its `raw` value for the context line.
    pub fn scaled(&mut self, name: &str, value: f64, raw: f64, unit: &'static str, samples: usize) {
        self.metric(name, value, unit, samples);
        if let Some(m) = self.metrics.last_mut() {
            m.raw = Some(raw);
        }
    }

    /// Record the median of `values` (if any) as a metric.
    pub fn median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        if let Some(m) = crate::stats::median(values) {
            self.metric(name, m, unit, values.len());
        }
    }

    /// Record the median of `(raw, factor)` samples scaled by their
    /// factors, and the median of the raw values beside it. No samples
    /// record NaN, which makes the run incorrect.
    pub fn scaled_median(&mut self, name: &str, samples: &[(f64, f64)], unit: &'static str) {
        self.scaled_summary(name, samples, unit, crate::stats::median);
    }

    /// As [`Report::scaled_median`], with the mean.
    pub fn scaled_mean(&mut self, name: &str, samples: &[(f64, f64)], unit: &'static str) {
        self.scaled_summary(name, samples, unit, crate::stats::mean);
    }

    fn scaled_summary(
        &mut self,
        name: &str,
        samples: &[(f64, f64)],
        unit: &'static str,
        summary: fn(&[f64]) -> Option<f64>,
    ) {
        let scaled: Vec<f64> = samples.iter().map(|(raw, f)| raw * f).collect();
        let raw: Vec<f64> = samples.iter().map(|(raw, _)| *raw).collect();
        let of = |v: &[f64]| summary(v).unwrap_or(f64::NAN);
        self.scaled(name, of(&scaled), of(&raw), unit, samples.len());
    }

    /// Count one operation; `failure` describes it when it went wrong.
    pub fn op(&mut self, failure: Option<String>) {
        self.ops(1, failure.into_iter().map(|f| (1, f)));
    }

    /// Count `attempted` operations with `(count, description)` failures.
    pub fn ops(&mut self, attempted: u64, failures: impl IntoIterator<Item = (u64, String)>) {
        self.attempted += attempted;
        for (n, what) in failures {
            self.failed += n;
            if self.failures.len() < 16 && !self.failures.contains(&what) {
                self.failures.push(what);
            }
        }
    }

    /// Whether every output checked out and every metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, &m.name);
            out.push_str(":{\"value\":");
            // A non-finite value already made the run incorrect; keep
            // the line valid JSON.
            out.push_str(&format!(
                "{}",
                if m.value.is_finite() { m.value } else { 0.0 }
            ));
            out.push_str(",\"unit\":");
            json::write_str(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// The context line printed before the result: workload, seed,
    /// machine, build, the median calibration pass, per-metric sample
    /// counts and unscaled values, and failures.
    pub fn context_line(&self, workload: &str, seed: u64, trace: bool, smoke: bool) -> String {
        let mut out = String::from("{\"workload\":");
        json::write_str(&mut out, workload);
        out.push_str(&format!(
            ",\"seed\":{seed},\"trace\":{trace},\"smoke\":{smoke},\"nproc\":{},\"rev\":",
            nproc()
        ));
        json::write_str(&mut out, &git_rev());
        out.push_str(",\"profile\":");
        json::write_str(
            &mut out,
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
        out.push_str(&format!(
            ",\"calibration_us\":{},\"ops_attempted\":{},\"ops_failed\":{},\"samples\":{{",
            self.calibration_s
                .map_or("null".to_string(), |s| format!("{}", s * 1e6)),
            self.attempted,
            self.failed
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, &m.name);
            out.push_str(&format!(":{}", m.samples));
        }
        out.push_str("},\"raw\":{");
        for (i, (name, raw)) in self
            .metrics
            .iter()
            .filter_map(|m| Some((&m.name, m.raw?)))
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push_str(&format!(":{raw}"));
        }
        out.push_str("},\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, f);
        }
        out.push_str("]}");
        out
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a repository.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| reference.to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Errors
///
/// A message when `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.op(None);
        r.metric("latency_ms", 1.25, "ms", 3);
        let line = r.result_line();
        let v = json::parse(&line).unwrap();
        let json::Json::Obj(members) = &v else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("latency_ms")).unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("ms"));
        assert_eq!(v.get("correct").and_then(|x| x.as_bool()), Some(true));
    }

    #[test]
    fn a_failure_or_a_non_finite_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.ops(10, [(2, "bad body".to_string())]);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (10, 2));
        let mut r = Report::default();
        r.op(None);
        r.metric("x", f64::NAN, "ms", 1);
        assert!(!r.correct());
        assert!(json::parse(&r.result_line()).is_ok());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
