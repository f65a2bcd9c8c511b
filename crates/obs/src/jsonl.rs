//! [`JsonlRecorder`]: streams events to `<dir>/events.jsonl` and, on
//! [`JsonlRecorder::finish`], writes the aggregate run manifest to
//! `<dir>/run.json`.
//!
//! The event stream holds only deterministic search facts, so it is
//! byte-identical for every thread count; all measurements (span
//! timings, pool gauges) live exclusively in the manifest. I/O errors
//! mid-stream are stashed rather than panicked (workspace no-panic
//! policy) and surfaced by `finish` as a *located* error naming the
//! stream path and how many events made it out — and the truncated
//! `events.jsonl` is removed, so a failed trace can never masquerade
//! as a complete one.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::aggregate::Aggregate;
use crate::event::{Event, SCHEMA_VERSION};
use crate::json::{self, Json};
use crate::recorder::{Phase, Recorder};

/// File name of the event stream inside the trace directory.
pub const EVENTS_FILE: &str = "events.jsonl";
/// File name of the run manifest inside the trace directory.
pub const MANIFEST_FILE: &str = "run.json";

struct State {
    writer: BufWriter<Box<dyn Write + Send>>,
    error: Option<io::Error>,
    events_written: u64,
    events_lost: u64,
    aggregate: Aggregate,
}

/// Recorder that persists a run as `events.jsonl` + `run.json`.
pub struct JsonlRecorder {
    dir: PathBuf,
    /// Does `<dir>/events.jsonl` actually back the writer? True for
    /// [`JsonlRecorder::create`]; false for the injected-writer seam,
    /// where there is no partial file to clean up.
    owns_stream_file: bool,
    state: Mutex<State>,
}

impl JsonlRecorder {
    /// Create the trace directory (and parents) and open a fresh
    /// `events.jsonl` inside it, truncating any previous stream.
    ///
    /// # Errors
    ///
    /// I/O errors are returned with the offending path in the message,
    /// so a CLI can print them without extra bookkeeping.
    pub fn create(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.display())))?;
        let events_path = dir.join(EVENTS_FILE);
        let file = File::create(&events_path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", events_path.display())))?;
        Ok(Self::with_writer(dir, Box::new(file), true))
    }

    /// Build a recorder over an arbitrary writer instead of
    /// `<dir>/events.jsonl` — the injection seam the fault tests use to
    /// simulate mid-stream failures (ENOSPC, revoked handles) without
    /// needing a hostile filesystem. `dir` is still where `finish`
    /// writes the manifest.
    pub fn from_writer(dir: &Path, writer: Box<dyn Write + Send>) -> Self {
        Self::with_writer(dir, writer, false)
    }

    fn with_writer(dir: &Path, writer: Box<dyn Write + Send>, owns_stream_file: bool) -> Self {
        JsonlRecorder {
            dir: dir.to_path_buf(),
            owns_stream_file,
            state: Mutex::new(State {
                writer: BufWriter::new(writer),
                error: None,
                events_written: 0,
                events_lost: 0,
                aggregate: Aggregate::default(),
            }),
        }
    }

    /// The directory this recorder writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wrap a stream I/O error with its location and damage extent,
    /// and remove the truncated stream file so it cannot pass for a
    /// complete trace.
    fn stream_error(&self, err: &io::Error, written: u64, lost: u64) -> io::Error {
        let path = self.dir.join(EVENTS_FILE);
        if self.owns_stream_file {
            let _ = fs::remove_file(&path);
        }
        io::Error::new(
            err.kind(),
            format!(
                "{}: event stream write failed after {written} event(s) ({lost} more lost); \
                 partial stream removed: {err}",
                path.display()
            ),
        )
    }

    /// Flush the event stream and write the manifest. `params` and
    /// `result` are caller-provided JSON objects describing the fit's
    /// configuration and outcome; phases/counters/gauges come from the
    /// recorder's own aggregates. Returns the manifest path.
    ///
    /// Any I/O error stashed during streaming is returned here instead,
    /// located (stream path, events written/lost), with the partial
    /// `events.jsonl` removed; no manifest is written in that case.
    pub fn finish(&self, params: Json, result: Json) -> io::Result<PathBuf> {
        let mut state = self.lock();
        if let Some(err) = state.error.take() {
            return Err(self.stream_error(&err, state.events_written, state.events_lost));
        }
        if let Err(err) = state.writer.flush() {
            return Err(self.stream_error(&err, state.events_written, state.events_lost));
        }

        let mut manifest = String::with_capacity(512);
        manifest.push_str(&format!("{{\"schema_version\":{SCHEMA_VERSION}"));
        manifest.push_str(",\"env\":");
        json::write_json(&mut manifest, &env());
        manifest.push_str(",\"params\":");
        json::write_json(&mut manifest, &params);
        manifest.push_str(&format!(",\"events\":{}", state.events_written));

        manifest.push_str(",\"phases\":{");
        for (i, (phase, s)) in state.aggregate.spans().iter().enumerate() {
            if i > 0 {
                manifest.push(',');
            }
            manifest.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_us\":{},\"max_us\":{}}}",
                phase.name(),
                s.count,
                s.total.as_micros(),
                s.max.as_micros()
            ));
        }
        manifest.push('}');

        manifest.push_str(",\"counters\":{");
        for (i, (name, value)) in state.aggregate.counters().iter().enumerate() {
            if i > 0 {
                manifest.push(',');
            }
            manifest.push_str(&format!("\"{name}\":{value}"));
        }
        manifest.push('}');

        manifest.push_str(",\"gauges\":{");
        for (i, (name, g)) in state.aggregate.gauges().iter().enumerate() {
            if i > 0 {
                manifest.push(',');
            }
            manifest.push_str(&format!("\"{name}\":{{\"last\":"));
            json::write_f64(&mut manifest, g.last);
            manifest.push_str(",\"max\":");
            json::write_f64(&mut manifest, g.max);
            manifest.push('}');
        }
        manifest.push('}');

        manifest.push_str(",\"result\":");
        json::write_json(&mut manifest, &result);
        manifest.push_str("}\n");

        let path = self.dir.join(MANIFEST_FILE);
        fs::write(&path, manifest)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        Ok(path)
    }
}

/// The `env` object of the manifest: where the run happened, so two
/// manifests from different hosts or builds read as such. `nproc` is
/// the cores available to the process, `profile` the build profile and
/// `rev` the commit checked out in the working directory.
fn env() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("profile".into(), Json::Str(profile.into())),
        ("rev".into(), Json::Str(git_rev())),
    ])
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a repository.
fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| reference.to_string())
}

impl Recorder for JsonlRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, event: &Event) {
        let mut state = self.lock();
        if state.error.is_some() {
            // Already failed: count what keeps arriving so the final
            // error can report the full extent of the loss.
            state.events_lost += 1;
            return;
        }
        let line = event.to_json();
        let write = state
            .writer
            .write_all(line.as_bytes())
            .and_then(|_| state.writer.write_all(b"\n"));
        match write {
            Ok(()) => state.events_written += 1,
            Err(err) => state.error = Some(err),
        }
    }

    fn span(&self, phase: Phase, elapsed: Duration) {
        self.lock().aggregate.span(phase, elapsed);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.lock().aggregate.counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.lock().aggregate.gauge(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("proclus-obs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn streams_events_and_writes_manifest() {
        let dir = tmp_dir("stream");
        let rec = JsonlRecorder::create(&dir).unwrap();
        assert!(rec.enabled());
        let events = [
            Event::RestartStart {
                restart: 0,
                seed: 7,
            },
            Event::FitEnd {
                rounds: 3,
                improvements: 2,
                objective: 1.5,
                iterative_objective: 2.0,
                outliers: 0,
            },
        ];
        for e in &events {
            rec.event(e);
        }
        rec.span(Phase::Assign, Duration::from_micros(120));
        rec.span(Phase::Assign, Duration::from_micros(80));
        rec.counter("pool.dispatches", 5);
        rec.gauge("pool.workers", 4.0);

        let params = json::parse("{\"k\":2,\"l\":3}").unwrap();
        let result = json::parse("{\"objective\":1.5}").unwrap();
        let manifest_path = rec.finish(params, result).unwrap();
        assert_eq!(manifest_path, dir.join(MANIFEST_FILE));

        let stream = fs::read_to_string(dir.join(EVENTS_FILE)).unwrap();
        let lines: Vec<_> = stream.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, event) in lines.iter().zip(&events) {
            assert_eq!(Event::parse_line(line).unwrap().to_json(), event.to_json());
        }

        let manifest = json::parse(&fs::read_to_string(&manifest_path).unwrap()).unwrap();
        assert_eq!(
            manifest.get("schema_version").and_then(Json::as_usize),
            Some(SCHEMA_VERSION as usize)
        );
        assert_eq!(manifest.get("events").and_then(Json::as_usize), Some(2));
        let env = manifest.get("env").unwrap();
        assert!(env.get("nproc").and_then(Json::as_usize).unwrap() >= 1);
        let profile = env.get("profile").and_then(Json::as_str).unwrap();
        assert!(["debug", "release"].contains(&profile), "{profile}");
        assert!(!env.get("rev").and_then(Json::as_str).unwrap().is_empty());
        let assign = manifest
            .get("phases")
            .and_then(|p| p.get("assign"))
            .unwrap();
        assert_eq!(assign.get("count").and_then(Json::as_usize), Some(2));
        assert_eq!(assign.get("total_us").and_then(Json::as_usize), Some(200));
        assert_eq!(assign.get("max_us").and_then(Json::as_usize), Some(120));
        assert_eq!(
            manifest
                .get("counters")
                .and_then(|c| c.get("pool.dispatches"))
                .and_then(Json::as_usize),
            Some(5)
        );
        assert_eq!(
            manifest
                .get("gauges")
                .and_then(|g| g.get("pool.workers"))
                .and_then(|w| w.get("max"))
                .and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            manifest
                .get("result")
                .and_then(|r| r.get("objective"))
                .and_then(Json::as_f64),
            Some(1.5)
        );

        fs::remove_dir_all(&dir).unwrap();
    }

    /// Accepts `limit` bytes, then fails every write with the given
    /// error kind — an ENOSPC/dying-disk simulator.
    struct FailingWriter {
        limit: usize,
        written: usize,
        kind: io::ErrorKind,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written + buf.len() > self.limit {
                return Err(io::Error::new(self.kind, "no space left on device"));
            }
            self.written += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn mid_stream_failure_is_stashed_and_located_by_finish() {
        let dir = tmp_dir("enospc");
        fs::create_dir_all(&dir).unwrap();
        // Plant a stale stream: a failed run must not leave it looking
        // like this run's (complete) output.
        fs::write(dir.join(EVENTS_FILE), "{\"stale\":true}\n").unwrap();
        // Inject the failing backend through the writer seam but mark
        // the stream file owned, as a real create-backed recorder
        // hitting ENOSPC would be.
        let rec = JsonlRecorder {
            owns_stream_file: true,
            ..JsonlRecorder::from_writer(
                &dir,
                Box::new(FailingWriter {
                    limit: 64,
                    written: 0,
                    kind: io::ErrorKind::StorageFull,
                }),
            )
        };
        // Enough events to overflow the BufWriter and hit the full
        // device mid-stream (not just at the final flush), so later
        // events are counted as lost.
        for _ in 0..500 {
            rec.event(&Event::FitEnd {
                rounds: 3,
                improvements: 2,
                objective: 1.5,
                iterative_objective: 2.0,
                outliers: 0,
            });
        }
        let err = rec.finish(Json::Null, Json::Null).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let msg = err.to_string();
        assert!(msg.contains(EVENTS_FILE), "unlocated error: {msg}");
        assert!(msg.contains("event stream write failed after"), "{msg}");
        // The device died mid-stream, so a nonzero tail was lost.
        assert!(!msg.contains("(0 more lost)"), "{msg}");
        // The truncated stream was removed, not left as a fake trace.
        assert!(!dir.join(EVENTS_FILE).exists());
        assert!(!dir.join(MANIFEST_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_truncates_previous_stream() {
        let dir = tmp_dir("trunc");
        {
            let rec = JsonlRecorder::create(&dir).unwrap();
            rec.event(&Event::RestartStart {
                restart: 0,
                seed: 1,
            });
            rec.finish(Json::Null, Json::Null).unwrap();
        }
        {
            let rec = JsonlRecorder::create(&dir).unwrap();
            rec.finish(Json::Null, Json::Null).unwrap();
        }
        let stream = fs::read_to_string(dir.join(EVENTS_FILE)).unwrap();
        assert!(stream.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
