//! **proclus-obs** — zero-dependency phase-level observability for the
//! proclus workspace.
//!
//! Every algorithm crate accepts a `&dyn Recorder` (default:
//! [`NoopRecorder`], free when disabled) and emits two kinds of data
//! through it:
//!
//! * **Events** ([`Event`], schema version [`SCHEMA_VERSION`]) —
//!   deterministic facts about the search: per-round locality sizes,
//!   chosen dimensions and their Z-scores, assignment counts,
//!   objectives, bad-medoid swap decisions, refinement outcomes. The
//!   event stream is a pure function of (params, data, seed): it is
//!   **byte-identical for every thread count**, extending the
//!   workspace's bit-identical-parallelism guarantee to the trace
//!   layer. This is what the invariant/metamorphic test tier consumes.
//! * **Measurements** (spans / counters / gauges) — wall-clock phase
//!   timings, worker-pool queue depths, dispatch counts. These are
//!   scheduling-dependent and therefore live only in aggregate form in
//!   the run manifest, never in the event stream.
//!
//! Recorders:
//!
//! * [`NoopRecorder`] — the default; reports disabled so hot loops skip
//!   event construction and clock reads entirely.
//! * [`RingRecorder`] — lock-cheap in-memory ring for tests and the
//!   CLI's `--verbose` summary.
//! * [`JsonlRecorder`] — streams `events.jsonl` and writes the
//!   `run.json` manifest (used by `fit --trace-out DIR`, consumed by
//!   `proclus inspect-trace`).
//!
//! The crate is deliberately dependency-free (the build environment is
//! offline): JSON reading/writing is hand-rolled in [`json`], with
//! non-finite floats carried as the marker strings `"inf"`, `"-inf"`,
//! `"nan"` (JSON has no literals for them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod aggregate;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod recorder;
pub mod ring;
pub mod summary;

pub use aggregate::{GaugeStats, SpanStats};
pub use event::{
    Event, GATE_STAGES, QUARANTINE_REASONS, ROLLOVER_REASONS, ROLLOVER_STATES, SCHEMA_VERSION,
};
pub use jsonl::{JsonlRecorder, EVENTS_FILE, MANIFEST_FILE};
pub use recorder::{timed, Fanout, NoopRecorder, Phase, Recorder};
pub use ring::RingRecorder;
pub use summary::{render_env, render_manifest, RoundPoint, SwapPoint, TraceSummary};
