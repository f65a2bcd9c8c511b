//! Deterministic human-readable rendering of a recorded run.
//!
//! [`TraceSummary::from_events`] folds an event stream into the facts a
//! human asks first (what ran, how it converged, which medoids were
//! swapped); [`TraceSummary::render`] prints them with a fixed layout
//! so `fit --verbose` output is stable and testable.
//! [`render_manifest`] adds the measurement side (per-phase time
//! breakdown, counters, gauges) from a parsed `run.json` — that part is
//! timing-dependent, so only `inspect-trace` shows it.

use crate::event::Event;
use crate::json::Json;

/// Convergence record of one hill-climbing round.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundPoint {
    /// Restart the round belongs to.
    pub restart: usize,
    /// 1-based round number.
    pub round: usize,
    /// The round's objective.
    pub objective: f64,
    /// Best objective after the round.
    pub best_objective: f64,
    /// Did the round improve the best?
    pub improved: bool,
}

/// One bad-medoid replacement decision.
#[derive(Clone, Debug, PartialEq)]
pub struct SwapPoint {
    /// Restart the swap belongs to.
    pub restart: usize,
    /// Round whose clustering was judged.
    pub round: usize,
    /// Cluster indices replaced.
    pub bad: Vec<usize>,
    /// The `(n/k)·min_deviation` threshold in force.
    pub threshold: f64,
}

/// Facts folded out of one run's event stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Algorithm name from `fit_start` (empty if the stream had none).
    pub algorithm: String,
    /// `(n, d)` of the dataset.
    pub shape: Option<(usize, usize)>,
    /// `(k, l, seed, restarts)` from `fit_start`.
    pub config: Option<(usize, f64, u64, usize)>,
    /// Per-round convergence, in stream order.
    pub rounds: Vec<RoundPoint>,
    /// Bad-medoid swap history, in stream order.
    pub swaps: Vec<SwapPoint>,
    /// Per-step records from non-PROCLUS algorithms.
    pub iterations: Vec<(usize, usize, usize, f64)>,
    /// Refinement outcome `(medoid count, outliers, objective)`.
    pub refine: Option<(usize, usize, f64)>,
    /// `(rounds, improvements, objective, iterative_objective, outliers)`.
    pub end: Option<(usize, usize, f64, f64, usize)>,
    /// Events dropped before folding (ring eviction), reported so a
    /// truncated summary says so.
    pub dropped: u64,
    /// Accepted streaming batches (`stream_batch` events).
    pub stream_batches: usize,
    /// Quarantined batches `(batch, reason)`, in stream order.
    pub quarantines: Vec<(u64, String)>,
    /// Drift detections `(batch, score, threshold)`, in stream order.
    pub drifts: Vec<(u64, f64, f64)>,
    /// Rollover transitions `(rebuild, from, to, reason)`.
    pub transitions: Vec<(u64, String, String, String)>,
    /// Rollover gate outcomes `(rebuild, stage, passed)`.
    pub gates: Vec<(u64, String, bool)>,
    /// Published models `(generation, rebuild, objective)`.
    pub publishes: Vec<(u64, u64, f64)>,
    /// Scenario identity `(name, seed, epochs)` from `scenario_meta`,
    /// when the trace came from a declarative workload.
    pub scenario: Option<(String, u64, usize)>,
}

impl TraceSummary {
    /// Fold an event stream. `dropped` is the count of events evicted
    /// before the stream was captured (0 for a complete stream).
    pub fn from_events(events: &[Event], dropped: u64) -> Self {
        let mut s = TraceSummary {
            dropped,
            ..TraceSummary::default()
        };
        for e in events {
            match e {
                Event::FitStart {
                    algorithm,
                    n,
                    d,
                    k,
                    l,
                    seed,
                    restarts,
                } => {
                    s.algorithm = (*algorithm).to_string();
                    s.shape = Some((*n, *d));
                    s.config = Some((*k, *l, *seed, *restarts));
                }
                Event::RestartStart { .. } => {}
                Event::Round {
                    restart,
                    round,
                    objective,
                    best_objective,
                    improved,
                    ..
                } => s.rounds.push(RoundPoint {
                    restart: *restart,
                    round: *round,
                    objective: *objective,
                    best_objective: *best_objective,
                    improved: *improved,
                }),
                Event::Swap {
                    restart,
                    round,
                    bad,
                    threshold,
                    ..
                } => s.swaps.push(SwapPoint {
                    restart: *restart,
                    round: *round,
                    bad: bad.clone(),
                    threshold: *threshold,
                }),
                Event::Refine {
                    medoids,
                    outliers,
                    objective,
                    ..
                } => s.refine = Some((medoids.len(), *outliers, *objective)),
                Event::Iteration {
                    step,
                    clusters,
                    dimensionality,
                    objective,
                    ..
                } => s
                    .iterations
                    .push((*step, *clusters, *dimensionality, *objective)),
                Event::FitEnd {
                    rounds,
                    improvements,
                    objective,
                    iterative_objective,
                    outliers,
                } => {
                    s.end = Some((
                        *rounds,
                        *improvements,
                        *objective,
                        *iterative_objective,
                        *outliers,
                    ))
                }
                Event::StreamBatch { .. } => s.stream_batches += 1,
                Event::StreamQuarantine { batch, reason } => {
                    s.quarantines.push((*batch, (*reason).to_string()))
                }
                Event::DriftDetected {
                    batch,
                    score,
                    threshold,
                } => s.drifts.push((*batch, *score, *threshold)),
                Event::RolloverTransition {
                    rebuild,
                    from,
                    to,
                    reason,
                } => s.transitions.push((
                    *rebuild,
                    (*from).to_string(),
                    (*to).to_string(),
                    (*reason).to_string(),
                )),
                Event::RolloverGate {
                    rebuild,
                    stage,
                    passed,
                    ..
                } => s.gates.push((*rebuild, (*stage).to_string(), *passed)),
                Event::ModelPublished {
                    generation,
                    rebuild,
                    objective,
                } => s.publishes.push((*generation, *rebuild, *objective)),
                // The manifest's `serve.*` counters summarize serving.
                Event::ServeRequest { .. } | Event::ServeJob { .. } => {}
                Event::ScenarioMeta { name, seed, epochs } => {
                    s.scenario = Some((name.clone(), *seed, *epochs));
                }
            }
        }
        s
    }

    /// Render the summary with a fixed, timing-free layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some((name, seed, epochs)) = &self.scenario {
            out.push_str(&format!("scenario: {name}  seed={seed} epochs={epochs}\n"));
        }
        let algorithm = if self.algorithm.is_empty() {
            "(unknown)"
        } else {
            &self.algorithm
        };
        out.push_str(&format!("algorithm: {algorithm}"));
        if let Some((n, d)) = self.shape {
            out.push_str(&format!("  n={n} d={d}"));
        }
        if let Some((k, l, seed, restarts)) = self.config {
            out.push_str(&format!("  k={k} l={l} seed={seed} restarts={restarts}"));
        }
        out.push('\n');
        if self.dropped > 0 {
            out.push_str(&format!(
                "note: {} early events evicted; summary covers the tail only\n",
                self.dropped
            ));
        }
        if let Some((rounds, improvements, objective, iterative, outliers)) = self.end {
            out.push_str(&format!(
                "result: objective={objective} (iterative={iterative}) rounds={rounds} improvements={improvements} outliers={outliers}\n"
            ));
        }
        if !self.rounds.is_empty() {
            out.push_str("convergence (improving rounds):\n");
            for p in self.rounds.iter().filter(|p| p.improved) {
                out.push_str(&format!(
                    "  restart {} round {:>3}: objective={} best={}\n",
                    p.restart, p.round, p.objective, p.best_objective
                ));
            }
            let total = self.rounds.len();
            let improved = self.rounds.iter().filter(|p| p.improved).count();
            out.push_str(&format!(
                "  ({improved} improving of {total} recorded rounds)\n"
            ));
        }
        if !self.swaps.is_empty() {
            out.push_str("swap history:\n");
            for sw in &self.swaps {
                let bad: Vec<String> = sw.bad.iter().map(|b| b.to_string()).collect();
                out.push_str(&format!(
                    "  restart {} round {:>3}: replaced medoids [{}] (threshold {})\n",
                    sw.restart,
                    sw.round,
                    bad.join(","),
                    sw.threshold
                ));
            }
        }
        if !self.iterations.is_empty() {
            out.push_str("steps:\n");
            for (step, clusters, dimensionality, objective) in &self.iterations {
                out.push_str(&format!(
                    "  step {step}: clusters={clusters} dims={dimensionality} objective={objective}\n"
                ));
            }
        }
        if let Some((medoids, outliers, objective)) = self.refine {
            out.push_str(&format!(
                "refine: clusters={medoids} outliers={outliers} objective={objective}\n"
            ));
        }
        if self.stream_batches > 0 || !self.quarantines.is_empty() {
            out.push_str(&format!(
                "stream: {} accepted batches, {} quarantined, {} drift detections\n",
                self.stream_batches,
                self.quarantines.len(),
                self.drifts.len()
            ));
            for (batch, reason) in &self.quarantines {
                out.push_str(&format!("  batch {batch}: quarantined ({reason})\n"));
            }
            for (batch, score, threshold) in &self.drifts {
                out.push_str(&format!(
                    "  batch {batch}: drift detected (score {score} > threshold {threshold})\n"
                ));
            }
        }
        if !self.transitions.is_empty() {
            out.push_str("rollover decision log:\n");
            for (rebuild, from, to, reason) in &self.transitions {
                out.push_str(&format!("  rebuild {rebuild}: {from} -> {to} ({reason})\n"));
            }
            for (rebuild, stage, passed) in &self.gates {
                let verdict = if *passed { "passed" } else { "FAILED" };
                out.push_str(&format!("  rebuild {rebuild}: {stage} gate {verdict}\n"));
            }
            for (generation, rebuild, objective) in &self.publishes {
                out.push_str(&format!(
                    "  rebuild {rebuild}: published generation {generation} (objective {objective})\n"
                ));
            }
        }
        out
    }
}

/// The manifest's `env` object as one line of `key=value` pairs, in
/// file order (`nproc=2 profile=release rev=…`); `None` for a manifest
/// written before the block existed.
pub fn render_env(manifest: &Json) -> Option<String> {
    let Some(Json::Obj(members)) = manifest.get("env") else {
        return None;
    };
    let pairs: Vec<String> = members
        .iter()
        .map(|(key, value)| match value {
            Json::Str(s) => format!("{key}={s}"),
            other => format!("{key}={other}"),
        })
        .collect();
    Some(pairs.join(" "))
}

/// Render the measurement side of a parsed `run.json`: schema header,
/// environment, per-phase time breakdown, counters, gauges.
pub fn render_manifest(manifest: &Json) -> Result<String, String> {
    let version = manifest
        .get("schema_version")
        .and_then(Json::as_usize)
        .ok_or("manifest missing \"schema_version\"")?;
    let events = manifest
        .get("events")
        .and_then(Json::as_usize)
        .ok_or("manifest missing \"events\"")?;
    let mut out = format!("manifest: schema_version={version} events={events}\n");
    if let Some(env) = render_env(manifest) {
        out.push_str(&format!("env: {env}\n"));
    }

    if let Some(Json::Obj(phases)) = manifest.get("phases") {
        if !phases.is_empty() {
            let grand_total: u128 = phases
                .iter()
                .filter_map(|(_, p)| p.get("total_us").and_then(Json::as_usize))
                .map(|t| t as u128)
                .sum();
            out.push_str("phase breakdown:\n");
            for (name, p) in phases {
                let count = p.get("count").and_then(Json::as_usize).unwrap_or(0);
                let total = p.get("total_us").and_then(Json::as_usize).unwrap_or(0);
                let max = p.get("max_us").and_then(Json::as_usize).unwrap_or(0);
                let share = (total as u128 * 1000)
                    .checked_div(grand_total)
                    .map_or(0.0, |permille| permille as f64 / 10.0);
                out.push_str(&format!(
                    "  {name:<10} {share:>5.1}%  total={total}us  count={count}  max={max}us\n"
                ));
            }
        }
    }
    if let Some(Json::Obj(counters)) = manifest.get("counters") {
        if !counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in counters {
                if let Some(v) = v.as_usize() {
                    out.push_str(&format!("  {name} = {v}\n"));
                }
            }
        }
    }
    if let Some(Json::Obj(gauges)) = manifest.get("gauges") {
        if !gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, g) in gauges {
                let last = g.get("last").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let max = g.get("max").and_then(Json::as_f64).unwrap_or(f64::NAN);
                out.push_str(&format!("  {name}: last={last} max={max}\n"));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn stream() -> Vec<Event> {
        vec![
            Event::FitStart {
                algorithm: "proclus",
                n: 100,
                d: 8,
                k: 3,
                l: 2.0,
                seed: 42,
                restarts: 1,
            },
            Event::RestartStart {
                restart: 0,
                seed: 42,
            },
            Event::Round {
                restart: 0,
                round: 1,
                locality_sizes: vec![30, 40, 30],
                dims: vec![vec![0, 1], vec![2, 3], vec![4, 5]],
                dim_scores: vec![vec![-1.0; 2]; 3],
                cluster_sizes: vec![33, 34, 33],
                objective: 2.0,
                best_objective: 2.0,
                improved: true,
                pool_dispatches: 2,
                pool_blocks: 2,
            },
            Event::Round {
                restart: 0,
                round: 2,
                locality_sizes: vec![30, 40, 30],
                dims: vec![vec![0, 1], vec![2, 3], vec![4, 5]],
                dim_scores: vec![vec![-1.0; 2]; 3],
                cluster_sizes: vec![33, 34, 33],
                objective: 2.5,
                best_objective: 2.0,
                improved: false,
                pool_dispatches: 2,
                pool_blocks: 2,
            },
            Event::Swap {
                restart: 0,
                round: 2,
                bad: vec![1],
                cluster_sizes: vec![33, 34, 33],
                threshold: 3.3,
            },
            Event::Refine {
                restart: 0,
                medoids: vec![5, 50, 95],
                dims: vec![vec![0, 1], vec![2, 3], vec![4, 5]],
                spheres: vec![1.0, 2.0, 3.0],
                outliers: 4,
                objective: 1.75,
            },
            Event::FitEnd {
                rounds: 2,
                improvements: 1,
                objective: 1.75,
                iterative_objective: 2.0,
                outliers: 4,
            },
        ]
    }

    #[test]
    fn summary_folds_the_stream() {
        let s = TraceSummary::from_events(&stream(), 0);
        assert_eq!(s.algorithm, "proclus");
        assert_eq!(s.shape, Some((100, 8)));
        assert_eq!(s.config, Some((3, 2.0, 42, 1)));
        assert_eq!(s.rounds.len(), 2);
        assert_eq!(s.swaps.len(), 1);
        assert_eq!(s.refine, Some((3, 4, 1.75)));
        assert_eq!(s.end, Some((2, 1, 1.75, 2.0, 4)));
    }

    #[test]
    fn render_is_deterministic_and_mentions_key_facts() {
        let s = TraceSummary::from_events(&stream(), 0);
        let text = s.render();
        assert_eq!(text, s.render());
        assert!(text.contains("algorithm: proclus"));
        assert!(text.contains("objective=1.75"));
        assert!(text.contains("replaced medoids [1]"));
        assert!(text.contains("(1 improving of 2 recorded rounds)"));
        assert!(
            !text.contains("total=") && !text.contains('%'),
            "verbose summary must be timing-free"
        );
    }

    #[test]
    fn render_reports_eviction() {
        let s = TraceSummary::from_events(&stream()[5..], 5);
        assert!(s.render().contains("5 early events evicted"));
    }

    #[test]
    fn scenario_meta_leads_the_summary() {
        let mut events = vec![Event::ScenarioMeta {
            name: "zipf-sizes".to_string(),
            seed: 17,
            epochs: 4,
        }];
        events.extend(stream());
        let s = TraceSummary::from_events(&events, 0);
        assert_eq!(s.scenario, Some(("zipf-sizes".to_string(), 17, 4)));
        let text = s.render();
        assert!(
            text.starts_with("scenario: zipf-sizes  seed=17 epochs=4\n"),
            "{text}"
        );
        assert!(text.contains("algorithm: proclus"));
    }

    #[test]
    fn stream_and_rollover_events_fold_and_render() {
        let events = vec![
            Event::StreamBatch {
                batch: 1,
                rows: 100,
                window: 100,
                drift_score: f64::NAN,
                drifted: false,
            },
            Event::StreamQuarantine {
                batch: 2,
                reason: "corrupt_chunk",
            },
            Event::DriftDetected {
                batch: 5,
                score: 1.5,
                threshold: 0.6,
            },
            Event::RolloverTransition {
                rebuild: 1,
                from: "idle",
                to: "shadow",
                reason: "drift",
            },
            Event::RolloverGate {
                rebuild: 1,
                stage: "shadow",
                silhouette: 0.4,
                ari: f64::NAN,
                coverage: f64::NAN,
                cost_ratio: f64::NAN,
                outlier_fraction: 0.03,
                passed: true,
            },
            Event::RolloverTransition {
                rebuild: 1,
                from: "canary",
                to: "promoted",
                reason: "gates_passed",
            },
            Event::ModelPublished {
                generation: 2,
                rebuild: 1,
                objective: 0.9,
            },
        ];
        let s = TraceSummary::from_events(&events, 0);
        assert_eq!(s.stream_batches, 1);
        assert_eq!(s.quarantines, vec![(2, "corrupt_chunk".to_string())]);
        assert_eq!(s.drifts.len(), 1);
        assert_eq!(s.transitions.len(), 2);
        assert_eq!(s.gates, vec![(1, "shadow".to_string(), true)]);
        assert_eq!(s.publishes, vec![(2, 1, 0.9)]);
        let text = s.render();
        assert!(text.contains("1 accepted batches, 1 quarantined, 1 drift detections"));
        assert!(text.contains("batch 2: quarantined (corrupt_chunk)"));
        assert!(text.contains("rebuild 1: idle -> shadow (drift)"));
        assert!(text.contains("rebuild 1: canary -> promoted (gates_passed)"));
        assert!(text.contains("rebuild 1: shadow gate passed"));
        assert!(text.contains("published generation 2"));
    }

    /// Serve events add nothing to the summary: `inspect-trace`'s
    /// `serve health:` line reads the manifest's `serve.*` counters.
    #[test]
    fn serve_events_fold_and_render() {
        let events = vec![
            Event::ServeRequest {
                endpoint: "assign",
                status: 503,
            },
            Event::ServeJob {
                job: 1,
                from: "running",
                to: "done",
            },
        ];
        let s = TraceSummary::from_events(&events, 0);
        assert_eq!(s, TraceSummary::default());
        assert_eq!(s.render(), "algorithm: (unknown)\n");
    }

    #[test]
    fn manifest_rendering_breaks_down_phases() {
        let manifest = json::parse(
            "{\"schema_version\":1,\"events\":7,\
             \"phases\":{\"assign\":{\"count\":4,\"total_us\":300,\"max_us\":100},\
             \"dims\":{\"count\":4,\"total_us\":100,\"max_us\":40}},\
             \"counters\":{\"pool.dispatches\":8},\
             \"gauges\":{\"pool.workers\":{\"last\":1,\"max\":1}}}",
        )
        .unwrap();
        let text = render_manifest(&manifest).unwrap();
        assert!(text.contains("schema_version=1 events=7"));
        assert!(text.contains("assign"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("pool.dispatches = 8"));
        assert!(text.contains("pool.workers: last=1 max=1"));
    }

    #[test]
    fn manifest_rendering_rejects_garbage() {
        assert!(render_manifest(&Json::Null).is_err());
        assert!(render_manifest(&json::parse("{\"events\":1}").unwrap()).is_err());
    }
}
