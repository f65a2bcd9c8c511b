//! The Shadow → Canary → Promote rollover state machine.
//!
//! When the [`stream`](crate::stream) front end decides a rebuild is
//! due (bootstrap or drift), a *candidate* model is fitted on the
//! current window and driven through explicit gated stages before it
//! may replace the live model:
//!
//! ```text
//!            trigger (bootstrap | drift)
//! idle ────────────────────────────────────► shadow
//! shadow ── fit error ──────────────────────► rolled_back (fit_error)
//! shadow ── silhouette/objective/outlier ───► rolled_back (gate_failed)
//! shadow ── gates passed ───────────────────► canary
//! canary ── cost-ratio/ARI vs live ─────────► rolled_back (gate_failed)
//! canary ── registry publish failed ────────► rolled_back (publish_error)
//! canary ── gates passed, published ────────► promoted
//! ```
//!
//! * **Shadow**: the candidate is evaluated on its own fit window —
//!   projected silhouette (through the degeneracy-checked
//!   [`proclus_eval::checked_silhouette`]; a degenerate labeling is a
//!   NaN score and a *failed* gate, never a silent pass), a finite
//!   objective, and a bounded outlier fraction.
//! * **Canary**: a deterministic hash-selected subset of the window is
//!   served by *both* models and compared — mean nearest-medoid cost
//!   ratio, and live-vs-candidate agreement (ARI through
//!   [`proclus_eval::checked_agreement`]). The ARI gate is only
//!   *enforced* while the live model still covers enough of the canary
//!   (a live model that classifies everything as outliers is itself
//!   stale — that is drift evidence, not candidate failure).
//! * **Promote**: the candidate is atomically published to the
//!   registry; only a durable publish flips the serving pointer.
//!
//! Every transition and gate verdict is emitted as a typed event, so
//! `inspect-trace` can render the full decision log; all decisions are
//! pure functions of `(params, window, live, seeds)`.

use proclus_math::hash::{fnv1a64_continue, FNV1A_BASIS};
use proclus_math::Matrix;
use proclus_obs::{Event, Recorder};

use crate::model::ProclusModel;
use crate::params::Proclus;
use crate::registry::ModelRegistry;
use crate::stream::GateConfig;

/// The scores one gate stage observed. Fields that a stage does not
/// evaluate are NaN (shadow has no ARI; canary has no silhouette).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateScores {
    /// Candidate projected silhouette on the window (shadow stage).
    pub silhouette: f64,
    /// Live-vs-candidate ARI on the canary subset (canary stage).
    pub ari: f64,
    /// Fraction of canary points the live model still clusters.
    pub coverage: f64,
    /// Candidate/live mean nearest-medoid cost ratio on the canary.
    pub cost_ratio: f64,
    /// Fraction of the window the candidate calls outliers (shadow).
    pub outlier_fraction: f64,
    /// The stage's verdict.
    pub passed: bool,
}

impl GateScores {
    fn nan() -> Self {
        GateScores {
            silhouette: f64::NAN,
            ari: f64::NAN,
            coverage: f64::NAN,
            cost_ratio: f64::NAN,
            outlier_fraction: f64::NAN,
            passed: false,
        }
    }
}

/// How a rollover attempt ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RolloverOutcome {
    /// The candidate passed every gate and is now the serving model.
    Promoted {
        /// Registry generation assigned to the candidate.
        generation: u64,
    },
    /// The candidate was rejected; the previous model keeps serving.
    RolledBack {
        /// Stage at which the attempt died (`"shadow"` or `"canary"`).
        stage: &'static str,
        /// One of the `ROLLOVER_REASONS` vocabulary:
        /// `"fit_error"`, `"gate_failed"`, or `"publish_error"`.
        reason: &'static str,
    },
}

/// Full record of one rollover attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct RolloverReport {
    /// 1-based rebuild counter this attempt belongs to.
    pub rebuild: u64,
    /// What triggered it (`"bootstrap"` or `"drift"`).
    pub trigger: &'static str,
    /// Seed the candidate fit ran with.
    pub candidate_seed: u64,
    /// How the attempt ended.
    pub outcome: RolloverOutcome,
    /// Shadow-stage scores (None when the fit itself failed).
    pub shadow: Option<GateScores>,
    /// Canary-stage scores (None when shadow failed first).
    pub canary: Option<GateScores>,
}

fn transition(
    rec: &dyn Recorder,
    rebuild: u64,
    from: &'static str,
    to: &'static str,
    reason: &'static str,
) {
    if rec.enabled() {
        rec.event(&Event::RolloverTransition {
            rebuild,
            from,
            to,
            reason,
        });
    }
}

fn gate_event(rec: &dyn Recorder, rebuild: u64, stage: &'static str, s: &GateScores) {
    if rec.enabled() {
        rec.event(&Event::RolloverGate {
            rebuild,
            stage,
            silhouette: s.silhouette,
            ari: s.ari,
            coverage: s.coverage,
            cost_ratio: s.cost_ratio,
            outlier_fraction: s.outlier_fraction,
            passed: s.passed,
        });
    }
}

/// Deterministic canary membership: point `i` is a canary iff the
/// FNV-1a hash of `(stream seed, rebuild, i)` lands below the
/// configured fraction of the hash space (bucketed mod 10 000 so the
/// fraction resolves to basis points).
fn canary_indices(n: usize, seed: u64, rebuild: u64, fraction: f64) -> Vec<usize> {
    let cutoff = (fraction * 10_000.0) as u64;
    let mut out = Vec::new();
    for i in 0..n {
        let mut h = fnv1a64_continue(FNV1A_BASIS, &seed.to_le_bytes());
        h = fnv1a64_continue(h, &rebuild.to_le_bytes());
        h = fnv1a64_continue(h, &(i as u64).to_le_bytes());
        if h % 10_000 < cutoff {
            out.push(i);
        }
    }
    if out.is_empty() {
        // Degenerate fraction/window combination: compare on
        // everything rather than skip the stage.
        out.extend(0..n);
    }
    out
}

/// Fit a candidate on `window` and drive it through the state machine.
/// Returns the report plus — on promotion — the published model and
/// its generation (so the caller can swap its live model without
/// re-reading the registry).
///
/// The candidate seed is derived from the fit seed and the rebuild
/// counter (golden-ratio mixing), so every rebuild explores a distinct
/// but reproducible restart sequence.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    params: &Proclus,
    gates: &GateConfig,
    window: &Matrix,
    live: Option<&(u64, ProclusModel)>,
    registry: &mut ModelRegistry,
    rebuild: u64,
    trigger: &'static str,
    stream_seed: u64,
    rec: &dyn Recorder,
) -> (RolloverReport, Option<(u64, ProclusModel)>) {
    let candidate_seed = params
        .rng_seed
        .wrapping_add(rebuild.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut report = RolloverReport {
        rebuild,
        trigger,
        candidate_seed,
        outcome: RolloverOutcome::RolledBack {
            stage: "shadow",
            reason: "fit_error",
        },
        shadow: None,
        canary: None,
    };
    transition(rec, rebuild, "idle", "shadow", trigger);

    let fit_params = params.clone().seed(candidate_seed);
    let candidate = match fit_params.fit_traced(window, rec) {
        Ok(m) => m,
        Err(_) => {
            transition(rec, rebuild, "shadow", "rolled_back", "fit_error");
            return (report, None);
        }
    };

    // ---- Shadow: the candidate against its own window ----
    let n = window.rows();
    let mut shadow = GateScores::nan();
    shadow.outlier_fraction = if n == 0 {
        1.0
    } else {
        candidate.outliers().len() as f64 / n as f64
    };
    let silhouette_disabled = gates.min_silhouette <= -1.0;
    let cluster_views: Vec<(Vec<usize>, Vec<usize>)> = candidate
        .clusters()
        .iter()
        .map(|c| (c.members.clone(), c.dimensions.clone()))
        .collect();
    shadow.silhouette = proclus_eval::checked_silhouette(
        window,
        &cluster_views,
        params.distance,
        gates.silhouette_samples,
    )
    .unwrap_or(f64::NAN);
    let silhouette_ok = silhouette_disabled
        || (shadow.silhouette.is_finite() && shadow.silhouette >= gates.min_silhouette);
    shadow.passed = silhouette_ok
        && candidate.objective().is_finite()
        && shadow.outlier_fraction <= gates.max_outlier_fraction;
    gate_event(rec, rebuild, "shadow", &shadow);
    report.shadow = Some(shadow);
    if !shadow.passed {
        transition(rec, rebuild, "shadow", "rolled_back", "gate_failed");
        report.outcome = RolloverOutcome::RolledBack {
            stage: "shadow",
            reason: "gate_failed",
        };
        return (report, None);
    }
    transition(rec, rebuild, "shadow", "canary", "gates_passed");

    // ---- Canary: candidate vs live on a deterministic subset ----
    let canary = canary_indices(n, stream_seed, rebuild, gates.canary_fraction);
    let mut scores = GateScores::nan();
    scores.passed = true;
    if let Some((_, live_model)) = live {
        let mut live_labels: Vec<Option<usize>> = Vec::with_capacity(canary.len());
        let mut cand_labels: Vec<Option<usize>> = Vec::with_capacity(canary.len());
        let mut covered = 0usize;
        let mut live_cost = 0.0f64;
        let mut cand_cost = 0.0f64;
        for &i in &canary {
            let row = window.row(i);
            let l = live_model.classify(row);
            if l.is_some() {
                covered += 1;
            }
            live_labels.push(l);
            cand_labels.push(candidate.assignment()[i]);
            live_cost += live_model.nearest_cost(row).unwrap_or(f64::INFINITY);
            cand_cost += candidate.nearest_cost(row).unwrap_or(f64::INFINITY);
        }
        scores.coverage = covered as f64 / canary.len() as f64;
        scores.ari =
            proclus_eval::checked_agreement(&live_labels, &cand_labels).unwrap_or(f64::NAN);
        scores.cost_ratio = if cand_cost == 0.0 && live_cost == 0.0 {
            1.0
        } else {
            cand_cost / live_cost
        };
        let cost_ok = scores.cost_ratio.is_finite() && scores.cost_ratio <= gates.max_cost_ratio;
        // ARI is only *enforced* while the live model still covers the
        // canary; below the coverage floor it is recorded as evidence
        // but a stale live labeling must not veto its replacement.
        let ari_enforced = scores.coverage >= gates.min_live_coverage;
        let ari_ok =
            !ari_enforced || (scores.ari.is_finite() && scores.ari >= gates.min_canary_ari);
        scores.passed = cost_ok && ari_ok;
    }
    gate_event(rec, rebuild, "canary", &scores);
    report.canary = Some(scores);
    if !scores.passed {
        transition(rec, rebuild, "canary", "rolled_back", "gate_failed");
        report.outcome = RolloverOutcome::RolledBack {
            stage: "canary",
            reason: "gate_failed",
        };
        return (report, None);
    }

    // ---- Promote: only a durable publish flips the pointer ----
    match registry.publish(&candidate) {
        Ok(generation) => {
            transition(rec, rebuild, "canary", "promoted", "gates_passed");
            if rec.enabled() {
                rec.event(&Event::ModelPublished {
                    generation,
                    rebuild,
                    objective: candidate.objective(),
                });
            }
            report.outcome = RolloverOutcome::Promoted { generation };
            (report, Some((generation, candidate)))
        }
        Err(_) => {
            transition(rec, rebuild, "canary", "rolled_back", "publish_error");
            report.outcome = RolloverOutcome::RolledBack {
                stage: "canary",
                reason: "publish_error",
            };
            (report, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::stream::GateConfig;
    use proclus_obs::{NoopRecorder, RingRecorder};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn two_blob_window(n_per: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(2 * n_per * d);
        for b in 0..2 {
            let center = if b == 0 { 5.0 } else { 60.0 };
            for _ in 0..n_per {
                for _ in 0..d {
                    data.push(center + rng.random_range(-1.0..1.0));
                }
            }
        }
        Matrix::from_vec(data, 2 * n_per, d)
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("proclus-rollover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn canary_selection_is_deterministic_and_fraction_scaled() {
        let a = canary_indices(1_000, 7, 3, 0.25);
        let b = canary_indices(1_000, 7, 3, 0.25);
        assert_eq!(a, b);
        assert!(a.len() > 150 && a.len() < 350, "got {}", a.len());
        // Different rebuilds pick different subsets.
        let c = canary_indices(1_000, 7, 4, 0.25);
        assert_ne!(a, c);
        // Empty selection falls back to the whole window.
        assert_eq!(canary_indices(5, 7, 3, 1e-9), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bootstrap_run_promotes_and_emits_decision_log() {
        let dir = tmp_dir("bootstrap");
        let (mut reg, _) = ModelRegistry::open(&dir).unwrap();
        let rec = RingRecorder::new(256);
        let window = two_blob_window(60, 3, 42);
        let params = Proclus::new(2, 2.0).seed(9).restarts(1);
        let (report, promoted) = run(
            &params,
            &GateConfig::default(),
            &window,
            None,
            &mut reg,
            1,
            "bootstrap",
            0,
            &rec,
        );
        assert_eq!(report.outcome, RolloverOutcome::Promoted { generation: 1 });
        let (g, m) = promoted.unwrap();
        assert_eq!(g, 1);
        assert_eq!(m.clusters().len(), 2);
        assert!(report.shadow.unwrap().passed);
        assert!(report.canary.unwrap().passed);
        let kinds: Vec<&str> = rec.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"rollover_transition"));
        assert!(kinds.contains(&"rollover_gate"));
        assert!(kinds.contains(&"model_published"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn impossible_gate_rolls_back_in_shadow() {
        let dir = tmp_dir("gatefail");
        let (mut reg, _) = ModelRegistry::open(&dir).unwrap();
        let window = two_blob_window(60, 3, 42);
        let params = Proclus::new(2, 2.0).seed(9).restarts(1);
        let gates = GateConfig {
            min_silhouette: 0.999, // unreachable
            ..GateConfig::default()
        };
        let (report, promoted) = run(
            &params,
            &gates,
            &window,
            None,
            &mut reg,
            1,
            "bootstrap",
            0,
            &NoopRecorder,
        );
        assert!(promoted.is_none());
        assert_eq!(
            report.outcome,
            RolloverOutcome::RolledBack {
                stage: "shadow",
                reason: "gate_failed"
            }
        );
        assert!(reg.generations().is_empty(), "nothing may be published");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fit_error_rolls_back_without_partial_state() {
        let dir = tmp_dir("fiterr");
        let (mut reg, _) = ModelRegistry::open(&dir).unwrap();
        // 4 points cannot support k = 8.
        let window = two_blob_window(2, 3, 1);
        let params = Proclus::new(8, 2.0).restarts(1);
        let (report, promoted) = run(
            &params,
            &GateConfig::default(),
            &window,
            None,
            &mut reg,
            1,
            "bootstrap",
            0,
            &NoopRecorder,
        );
        assert!(promoted.is_none());
        assert_eq!(
            report.outcome,
            RolloverOutcome::RolledBack {
                stage: "shadow",
                reason: "fit_error"
            }
        );
        assert!(report.shadow.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degenerate_silhouette_is_nan_and_fails_never_passes() {
        let dir = tmp_dir("degenerate");
        let (mut reg, _) = ModelRegistry::open(&dir).unwrap();
        // One tight blob forced into k = 2: the fit succeeds but the
        // labeling is effectively degenerate or the silhouette tiny.
        let mut rng = StdRng::seed_from_u64(3);
        let mut data = Vec::new();
        for _ in 0..80 {
            for _ in 0..3 {
                data.push(5.0 + rng.random_range(-0.01..0.01));
            }
        }
        let window = Matrix::from_vec(data, 80, 3);
        let params = Proclus::new(2, 2.0).seed(1).restarts(1);
        let gates = GateConfig {
            min_silhouette: 0.9,
            ..GateConfig::default()
        };
        let (report, promoted) = run(
            &params,
            &gates,
            &window,
            None,
            &mut reg,
            1,
            "bootstrap",
            0,
            &NoopRecorder,
        );
        assert!(promoted.is_none(), "{report:?}");
        assert!(matches!(report.outcome, RolloverOutcome::RolledBack { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
