//! The versioned, structured event schema every instrumented algorithm
//! emits (schema version [`SCHEMA_VERSION`]).
//!
//! Events are **facts about the search**, not measurements of the
//! machine: anything scheduling-dependent (wall-clock durations, worker
//! counts, queue high-water marks) is deliberately excluded and flows
//! through the recorder's span/counter/gauge channel into the run
//! manifest instead. That split is what lets the golden-manifest test
//! tier demand a **byte-identical** `events.jsonl` for every thread
//! count, extending the workspace's bit-identical-parallelism
//! guarantee to the trace layer.
//!
//! Each event is declared once, in the `events!` list below: its `type`
//! tag, then its fields in JSON order. [`Event::kind`],
//! [`Event::to_json`] and [`Event::from_json`] are generated from that
//! list, and every field type is written and read by one private codec
//! trait, so the writer and the reader cannot drift apart.

use crate::json::{self, Json};
use std::fmt::Write as _;

/// Version of the event schema written to `events.jsonl` and recorded
/// in `run.json`. Bump when a variant or field changes meaning.
pub const SCHEMA_VERSION: u32 = 1;

/// Declares [`Event`] and generates its codec. Each entry is
/// `Variant = "type_tag" { field: Type, ... }` with the fields in the
/// order they are written; `field: &'static str = SET` names the closed
/// vocabulary a string field is read back against.
macro_rules! events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $tag:literal {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty $(= $vocab:expr)? ),* $(,)?
        }
    ),* $(,)?) => {
        /// One structured fact emitted during a fit.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Event {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty ),* } ),*
        }

        /// Every `type` tag, in declaration order.
        #[cfg(test)]
        const KINDS: &[&str] = &[$($tag),*];

        impl Event {
            /// The event's `type` tag as written to JSON.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $tag, )*
                }
            }

            /// Serialize as one JSON object (no trailing newline). The
            /// field order is fixed, so equal events serialize to equal
            /// bytes.
            pub fn to_json(&self) -> String {
                let mut s = String::with_capacity(128);
                s.push_str("{\"type\":\"");
                s.push_str(self.kind());
                s.push('"');
                match self {
                    $( Event::$variant { $($field),* } => {
                        $(
                            s.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.write(&mut s);
                        )*
                    } )*
                }
                s.push('}');
                s
            }

            /// Reconstruct an event from a parsed JSON object.
            pub fn from_json(v: &Json) -> Result<Event, String> {
                let kind = v
                    .get("type")
                    .and_then(Json::as_str)
                    .ok_or("missing \"type\"")?;
                match kind {
                    $( $tag => Ok(Event::$variant {
                        $( $field: field(v, stringify!($field), vocab!($($vocab)?))?, )*
                    }), )*
                    other => Err(format!("unknown event type {other:?}")),
                }
            }
        }
    };
}

/// The vocabulary argument of a field read: the declared set, or none.
macro_rules! vocab {
    () => {
        &[]
    };
    ($set:expr) => {
        &$set
    };
}

events! {
    /// A fit began. Emitted once per `fit_traced` call.
    ///
    /// Deliberately excludes the thread count: events must be identical
    /// for every thread count (the manifest's gauges carry it).
    FitStart = "fit_start" {
        /// `"proclus"`, `"orclus"`, `"clique"`, `"kmeans"`, `"clarans"`.
        algorithm: &'static str = ALGORITHMS,
        /// Number of points.
        n: usize,
        /// Number of dimensions.
        d: usize,
        /// Target cluster count (0 when the algorithm has none, e.g. CLIQUE).
        k: usize,
        /// Average/target subspace dimensionality (0 when not applicable).
        l: f64,
        /// PRNG seed.
        seed: u64,
        /// Independent restarts the driver will attempt.
        restarts: usize,
    },
    /// One hill-climbing restart began (PROCLUS).
    RestartStart = "restart_start" {
        /// Restart index, `0..restarts`.
        restart: usize,
        /// Derived seed of this restart.
        seed: u64,
    },
    /// One hill-climbing round of the iterative phase (PROCLUS).
    Round = "round" {
        /// Restart this round belongs to.
        restart: usize,
        /// 1-based round number within the restart.
        round: usize,
        /// `|Lᵢ|` for every medoid (locality sizes).
        locality_sizes: Vec<usize>,
        /// The dimension sets `Dᵢ` chosen by FindDimensions this round.
        dims: Vec<Vec<usize>>,
        /// The Z-score of each chosen dimension, parallel to `dims`
        /// (raw averages when standardization is disabled).
        dim_scores: Vec<Vec<f64>>,
        /// `|Cᵢ|` after AssignPoints (sums to `n` — the iterative
        /// phase assigns every point).
        cluster_sizes: Vec<usize>,
        /// This round's objective.
        objective: f64,
        /// Best objective seen so far in this restart (after this round).
        best_objective: f64,
        /// Did this round improve on the previous best?
        improved: bool,
        /// Worker-pool dispatches issued during this round (identical
        /// for every thread count: the serial path counts the same
        /// block sweeps).
        pool_dispatches: u64,
        /// Row blocks processed by those dispatches.
        pool_blocks: u64,
    },
    /// The bad-medoid rule fired and medoids were replaced (PROCLUS).
    Swap = "swap" {
        /// Restart the swap belongs to.
        restart: usize,
        /// Round whose clustering was judged.
        round: usize,
        /// Cluster indices whose medoids were swapped out, ascending.
        bad: Vec<usize>,
        /// Cluster sizes of the *best* clustering the rule judged.
        cluster_sizes: Vec<usize>,
        /// The rule's threshold `(n/k)·min_deviation`.
        threshold: f64,
    },
    /// The refinement phase finished (PROCLUS).
    Refine = "refine" {
        /// Restart being refined.
        restart: usize,
        /// The medoid point indices of the refined model.
        medoids: Vec<usize>,
        /// Final dimension sets.
        dims: Vec<Vec<usize>>,
        /// Spheres of influence `Δᵢ` (infinite for k = 1).
        spheres: Vec<f64>,
        /// Points outside every sphere (outliers).
        outliers: usize,
        /// Final objective after outlier removal.
        objective: f64,
    },
    /// A generic per-step progress fact for the non-PROCLUS algorithms:
    /// ORCLUS merge phases, CLIQUE subspace levels, k-means / CLARANS
    /// iterations.
    Iteration = "iteration" {
        /// Algorithm name, as in [`Event::FitStart`].
        algorithm: &'static str = ALGORITHMS,
        /// Step index (phase / level / iteration), 0-based.
        step: usize,
        /// Working cluster (or dense-unit) count after the step.
        clusters: usize,
        /// Working subspace dimensionality (0 when not applicable).
        dimensionality: usize,
        /// Objective after the step (NaN when the algorithm does not
        /// evaluate one per step).
        objective: f64,
    },
    /// The fit finished and a model was produced.
    FitEnd = "fit_end" {
        /// Rounds (or steps) the returned model's search executed.
        rounds: usize,
        /// Rounds that improved the best objective.
        improvements: usize,
        /// Final objective.
        objective: f64,
        /// Best iterative-phase objective (equal to `objective` for
        /// algorithms without a separate refinement).
        iterative_objective: f64,
        /// Outliers in the final model.
        outliers: usize,
    },
    /// A streaming batch was offered to the stream server (accepted
    /// batches only — rejected ones emit [`Event::StreamQuarantine`]).
    StreamBatch = "stream_batch" {
        /// 1-based batch sequence number.
        batch: u64,
        /// Rows in the batch.
        rows: usize,
        /// Sliding-window fill after ingest.
        window: usize,
        /// Drift score of the window against the reservoir reference
        /// (NaN before the reference exists).
        drift_score: f64,
        /// Did the score exceed the configured threshold?
        drifted: bool,
    },
    /// A batch was rejected and quarantined; the live model keeps
    /// serving and the window is untouched.
    StreamQuarantine = "stream_quarantine" {
        /// 1-based batch sequence number.
        batch: u64,
        /// One of [`QUARANTINE_REASONS`].
        reason: &'static str = QUARANTINE_REASONS,
    },
    /// The drift detector's patience was exhausted — a rebuild begins.
    DriftDetected = "drift_detected" {
        /// Batch at which patience ran out.
        batch: u64,
        /// The triggering drift score.
        score: f64,
        /// The configured threshold it exceeded.
        threshold: f64,
    },
    /// One transition of the rollover state machine.
    RolloverTransition = "rollover_transition" {
        /// 1-based rebuild attempt this transition belongs to.
        rebuild: u64,
        /// Source state, one of [`ROLLOVER_STATES`].
        from: &'static str = ROLLOVER_STATES,
        /// Target state, one of [`ROLLOVER_STATES`].
        to: &'static str = ROLLOVER_STATES,
        /// Why, one of [`ROLLOVER_REASONS`].
        reason: &'static str = ROLLOVER_REASONS,
    },
    /// Gate scores at one rollover validation stage. NaN marks a score
    /// that could not be computed (degenerate labeling) — by contract
    /// an unscorable gate counts as *failed*, never as passed.
    RolloverGate = "rollover_gate" {
        /// Rebuild attempt being gated.
        rebuild: u64,
        /// `"shadow"` or `"canary"` (see [`GATE_STAGES`]).
        stage: &'static str = GATE_STAGES,
        /// Candidate projected silhouette on the window.
        silhouette: f64,
        /// Live-vs-candidate ARI over the canary subset.
        ari: f64,
        /// Fraction of canary points the live model still clusters.
        coverage: f64,
        /// Candidate/live mean serving-cost ratio on the canary subset.
        cost_ratio: f64,
        /// Outlier fraction of the candidate on the window.
        outlier_fraction: f64,
        /// Did the stage pass?
        passed: bool,
    },
    /// A candidate model was durably published to the registry.
    ModelPublished = "model_published" {
        /// Registry generation assigned to the model.
        generation: u64,
        /// Rebuild attempt that produced it.
        rebuild: u64,
        /// The published model's objective.
        objective: f64,
    },
    /// One HTTP request handled by the serving daemon.
    ///
    /// Deliberately excludes wall-clock latency and peer addresses:
    /// like every other event this is a fact about *what* the server
    /// did, so a replayed request sequence produces an identical
    /// trace (latency flows through the manifest's counters instead).
    ServeRequest = "serve_request" {
        /// Endpoint served, one of [`SERVE_ENDPOINTS`].
        endpoint: &'static str = SERVE_ENDPOINTS,
        /// HTTP status code of the response.
        status: u16,
    },
    /// One transition of a fit job through its lifecycle.
    ServeJob = "serve_job" {
        /// 1-based job sequence number (the numeric part of the job ID).
        job: u64,
        /// Source state, one of [`JOB_STATES`].
        from: &'static str = JOB_STATES,
        /// Target state, one of [`JOB_STATES`].
        to: &'static str = JOB_STATES,
    },
    /// A declarative scenario was generated — emitted once by `proclus
    /// scenario` before any rows are written, so a trace identifies the
    /// workload it ran against.
    ScenarioMeta = "scenario_meta" {
        /// Scenario name (the parser restricts it to `[a-z0-9-]+`, so
        /// it embeds in JSON without escaping).
        name: String,
        /// The spec's base PRNG seed.
        seed: u64,
        /// Epoch count (1 + drift schedule length).
        epochs: usize,
    },
}

/// The algorithm names [`Event::FitStart`] and [`Event::Iteration`]
/// carry.
const ALGORITHMS: [&str; 5] = ["proclus", "orclus", "clique", "kmeans", "clarans"];

/// The closed set of batch quarantine reasons.
pub const QUARANTINE_REASONS: [&str; 4] = [
    "empty_batch",
    "dimension_mismatch",
    "non_finite",
    "corrupt_chunk",
];

/// The closed set of rollover state names.
pub const ROLLOVER_STATES: [&str; 5] = ["idle", "shadow", "canary", "promoted", "rolled_back"];

/// The closed set of rollover transition reasons.
pub const ROLLOVER_REASONS: [&str; 6] = [
    "bootstrap",
    "drift",
    "gates_passed",
    "gate_failed",
    "fit_error",
    "publish_error",
];

/// The rollover validation stages that emit [`Event::RolloverGate`].
pub const GATE_STAGES: [&str; 2] = ["shadow", "canary"];

/// The closed set of serving endpoints named by [`Event::ServeRequest`]
/// (`"unknown"` covers unroutable paths, which still get a response).
pub const SERVE_ENDPOINTS: [&str; 12] = [
    "health", "upload", "datasets", "fit", "job", "jobs", "models", "model", "assign", "classify",
    "shutdown", "unknown",
];

/// The closed set of fit-job lifecycle states.
pub const JOB_STATES: [&str; 4] = ["queued", "running", "done", "failed"];

impl Event {
    /// Parse one `events.jsonl` line back into an [`Event`].
    pub fn parse_line(line: &str) -> Result<Event, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        Event::from_json(&v)
    }
}

/// Read member `key` of the event object `v`.
fn field<T: Field>(v: &Json, key: &str, vocab: &[&'static str]) -> Result<T, String> {
    let value = v.get(key).ok_or_else(|| format!("missing {key:?}"))?;
    T::read(value, vocab).ok_or_else(|| format!("invalid {key:?}: {value}"))
}

/// How one field type is written to and read from an event line.
trait Field: Sized {
    /// Append the value's JSON text to `out`.
    fn write(&self, out: &mut String);

    /// Read the value back. `vocab` is the closed set a `&'static str`
    /// must be one of (resolving to the static name keeps [`Event`]
    /// cheap); the other types ignore it.
    fn read(v: &Json, vocab: &[&'static str]) -> Option<Self>;
}

impl Field for usize {
    fn write(&self, out: &mut String) {
        json::write_usize(out, *self);
    }

    fn read(v: &Json, _: &[&'static str]) -> Option<Self> {
        v.as_usize()
    }
}

impl Field for u64 {
    fn write(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{self}");
    }

    fn read(v: &Json, _: &[&'static str]) -> Option<Self> {
        v.as_u64()
    }
}

impl Field for u16 {
    fn write(&self, out: &mut String) {
        json::write_usize(out, usize::from(*self));
    }

    fn read(v: &Json, _: &[&'static str]) -> Option<Self> {
        v.as_u64().and_then(|x| u16::try_from(x).ok())
    }
}

impl Field for f64 {
    fn write(&self, out: &mut String) {
        json::write_f64(out, *self);
    }

    fn read(v: &Json, _: &[&'static str]) -> Option<Self> {
        v.as_f64()
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(v: &Json, _: &[&'static str]) -> Option<Self> {
        v.as_bool()
    }
}

/// A vocabulary name: a name outside the declared set is a schema
/// violation, not data.
impl Field for &'static str {
    fn write(&self, out: &mut String) {
        json::write_str(out, self);
    }

    fn read(v: &Json, vocab: &[&'static str]) -> Option<Self> {
        let name = v.as_str()?;
        vocab.iter().find(|&&a| a == name).copied()
    }
}

/// The scenario name, the one open string field: it is held to the
/// scenario parser's `[a-z0-9-]+`, so round-tripping never needs JSON
/// string escaping.
impl Field for String {
    fn write(&self, out: &mut String) {
        json::write_str(out, self);
    }

    fn read(v: &Json, _: &[&'static str]) -> Option<Self> {
        let name = v.as_str()?;
        let valid = !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-');
        valid.then(|| name.to_string())
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.write(out);
        }
        out.push(']');
    }

    fn read(v: &Json, vocab: &[&'static str]) -> Option<Self> {
        v.as_arr()?.iter().map(|x| T::read(x, vocab)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::FitStart {
                algorithm: "proclus",
                n: 1000,
                d: 12,
                k: 4,
                l: 3.5,
                seed: 7,
                restarts: 5,
            },
            Event::RestartStart {
                restart: 2,
                seed: 99,
            },
            Event::Round {
                restart: 0,
                round: 3,
                locality_sizes: vec![10, 20],
                dims: vec![vec![0, 2], vec![1, 3, 4]],
                dim_scores: vec![vec![-1.5, -0.25], vec![-2.0, -1.0, 0.0]],
                cluster_sizes: vec![400, 600],
                objective: 1.25,
                best_objective: 1.25,
                improved: true,
                pool_dispatches: 3,
                pool_blocks: 12,
            },
            Event::Swap {
                restart: 1,
                round: 4,
                bad: vec![0, 3],
                cluster_sizes: vec![1, 500, 499, 0],
                threshold: 25.0,
            },
            Event::Refine {
                restart: 0,
                medoids: vec![17, 530],
                dims: vec![vec![0, 1], vec![2, 3]],
                spheres: vec![4.5, f64::INFINITY],
                outliers: 12,
                objective: 0.875,
            },
            Event::Iteration {
                algorithm: "orclus",
                step: 2,
                clusters: 8,
                dimensionality: 6,
                objective: f64::NAN,
            },
            Event::FitEnd {
                rounds: 21,
                improvements: 6,
                objective: 0.875,
                iterative_objective: 1.25,
                outliers: 12,
            },
            Event::StreamBatch {
                batch: 14,
                rows: 256,
                window: 2048,
                drift_score: 0.37,
                drifted: false,
            },
            Event::StreamQuarantine {
                batch: 15,
                reason: "corrupt_chunk",
            },
            Event::DriftDetected {
                batch: 19,
                score: 1.4,
                threshold: 0.6,
            },
            Event::RolloverTransition {
                rebuild: 2,
                from: "shadow",
                to: "canary",
                reason: "gates_passed",
            },
            Event::RolloverGate {
                rebuild: 2,
                stage: "canary",
                silhouette: 0.41,
                ari: f64::NAN,
                coverage: 0.125,
                cost_ratio: 1.02,
                outlier_fraction: 0.05,
                passed: true,
            },
            Event::ModelPublished {
                generation: 3,
                rebuild: 2,
                objective: 0.91,
            },
            Event::ServeRequest {
                endpoint: "assign",
                status: 200,
            },
            Event::ServeJob {
                job: 1,
                from: "queued",
                to: "running",
            },
            Event::ScenarioMeta {
                name: "zipf-sizes".to_string(),
                seed: 17,
                epochs: 3,
            },
        ]
    }

    #[test]
    fn events_roundtrip_through_json() {
        for e in samples() {
            let line = e.to_json();
            let back = Event::parse_line(&line).unwrap();
            // NaN != NaN, so compare through re-serialization.
            assert_eq!(back.to_json(), line, "{e:?}");
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        for e in samples() {
            assert_eq!(e.to_json(), e.clone().to_json());
        }
    }

    #[test]
    fn lines_are_single_line_json_objects() {
        for e in samples() {
            let line = e.to_json();
            assert!(!line.contains('\n'));
            assert!(line.starts_with("{\"type\":\""));
            assert!(crate::json::parse(&line).is_ok());
        }
    }

    #[test]
    fn parse_rejects_malformed_events() {
        assert!(Event::parse_line("not json").is_err());
        assert!(Event::parse_line("{\"type\":\"nope\"}").is_err());
        assert!(Event::parse_line("{\"no_type\":1}").is_err());
        assert!(Event::parse_line("{\"type\":\"round\",\"restart\":0}").is_err());
        assert!(
            Event::parse_line("{\"type\":\"fit_start\",\"algorithm\":\"mystery\",\"n\":1,\"d\":1,\"k\":1,\"l\":2,\"seed\":0,\"restarts\":1}")
                .is_err()
        );
    }

    #[test]
    fn stream_vocabularies_are_closed() {
        // Every static string the stream/rollover layer emits must be
        // in the vocabulary, or from_json would reject our own traces.
        for e in samples() {
            assert_eq!(
                Event::parse_line(&e.to_json()).unwrap().to_json(),
                e.to_json()
            );
        }
        assert!(Event::parse_line(
            "{\"type\":\"stream_quarantine\",\"batch\":1,\"reason\":\"cosmic_rays\"}"
        )
        .is_err());
        assert!(Event::parse_line(
            "{\"type\":\"rollover_transition\",\"rebuild\":1,\"from\":\"shadow\",\"to\":\"orbit\",\"reason\":\"drift\"}"
        )
        .is_err());
        assert!(Event::parse_line(
            "{\"type\":\"rollover_gate\",\"rebuild\":1,\"stage\":\"dress_rehearsal\",\"silhouette\":0,\"ari\":0,\"coverage\":0,\"cost_ratio\":1,\"outlier_fraction\":0,\"passed\":true}"
        )
        .is_err());
        assert!(Event::parse_line(
            "{\"type\":\"serve_request\",\"endpoint\":\"teapot\",\"status\":418}"
        )
        .is_err());
        assert!(Event::parse_line(
            "{\"type\":\"serve_job\",\"job\":1,\"from\":\"queued\",\"to\":\"vanished\"}"
        )
        .is_err());
    }

    #[test]
    fn every_variant_has_a_sample() {
        let sampled: Vec<&str> = samples().iter().map(Event::kind).collect();
        assert_eq!(
            sampled, KINDS,
            "samples() must hold one event per variant, in order"
        );
    }

    #[test]
    fn u64_fields_round_trip_exactly() {
        // Restart 1's derived seed in every multi-restart trace, above 2^53.
        for seed in [11_400_714_819_323_198_502, u64::MAX] {
            let e = Event::RestartStart { restart: 1, seed };
            let line = e.to_json();
            assert_eq!(
                line,
                format!("{{\"type\":\"restart_start\",\"restart\":1,\"seed\":{seed}}}")
            );
            assert_eq!(Event::parse_line(&line).unwrap(), e);
        }
        assert!(Event::parse_line(
            "{\"type\":\"restart_start\",\"restart\":1,\"seed\":18446744073709551616}"
        )
        .is_err());
        assert!(Event::parse_line(
            "{\"type\":\"serve_request\",\"endpoint\":\"fit\",\"status\":65536}"
        )
        .is_err());
    }

    #[test]
    fn scenario_names_keep_the_parser_charset() {
        for bad in ["", "Upper", "with space", "quo\\\"te"] {
            let line = format!(
                "{{\"type\":\"scenario_meta\",\"name\":\"{bad}\",\"seed\":1,\"epochs\":1}}"
            );
            assert!(Event::parse_line(&line).is_err(), "{line}");
        }
    }
}
