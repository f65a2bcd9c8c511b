//! The benchmark's own spans: one per call it makes into a layer.
//!
//! Spans carry a name, start and end (nanoseconds since the tracer was
//! created), the id of the span that caused them, and the id of the
//! request they belong to. They are kept in memory and written out as
//! `spans.jsonl` when the run ends. A disabled tracer records nothing
//! and reads no clock, so untraced runs pay nothing for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// Layer call this span wraps, e.g. `http.parse`.
    pub name: &'static str,
    /// Span that caused this one.
    pub parent: Option<u64>,
    /// Request this span belongs to, when it belongs to one.
    pub request: Option<u64>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`. `f` receives the new span's
    /// id (to parent child spans on), or `None` when disabled.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        // Relaxed: the id is a unique label and publishes no data.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                id,
                name,
                parent,
                request,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Duration in microseconds of the span named `name` of each request.
    pub fn request_us(&self, name: &str) -> BTreeMap<u64, f64> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| Some((s.request?, (s.end_ns - s.start_ns) as f64 / 1e3)))
            .collect()
    }

    /// Write every span as one JSON object per line to `path`, ordered
    /// by start time.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &spans {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.name,
                opt(s.parent),
                opt(s.request),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, None, |id| id), None);
        assert!(t.durations_us("x").is_empty());
    }

    #[test]
    fn spans_nest_and_round_trip_to_jsonl() {
        let t = Tracer::new(true);
        let child = t.span("outer", None, Some(7), |outer| {
            t.span("inner", outer, Some(7), |inner| (outer, inner))
        });
        assert_eq!(child, (Some(1), Some(2)));
        assert_eq!(t.durations_us("inner").len(), 1);
        assert_eq!(
            t.request_us("inner").keys().copied().collect::<Vec<_>>(),
            [7]
        );

        let dir = std::env::temp_dir().join(format!("e2e-trace-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let inner = proclus_obs::json::parse(lines[1]).unwrap();
        assert_eq!(inner.get("name").and_then(|v| v.as_str()), Some("inner"));
        assert_eq!(inner.get("parent").and_then(|v| v.as_usize()), Some(1));
        assert_eq!(inner.get("request").and_then(|v| v.as_usize()), Some(7));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
