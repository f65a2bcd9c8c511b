//! The fit workloads, and the traced fits whose phase spans and
//! counters every workload reports as per-layer metrics.
//!
//! Only public, stable fit APIs are used: `Proclus::new(..).seed(..)`
//! with `fit` / `fit_traced` and a `RingRecorder`. Counters are read by
//! name, so a layer that is deleted simply reports zero.

use std::time::Instant;

use proclus_core::{Proclus, ProclusModel};
use proclus_data::GeneratedScenario;
use proclus_obs::{Phase, RingRecorder};

use crate::report::Report;
use crate::serve;
use crate::speed::{Calibrator, Timing};
use crate::trace::Tracer;
use crate::workload::{derive_seed, fit_params, model_digest, Workload, DEFAULT_SEED};
use crate::Options;

/// Lowest median ARI against the generator's ground truth a run may
/// report before it counts as failed. Single fits may land lower (a
/// hill climb can settle in a local optimum); the median of a working
/// build sits near 1 on every workload.
pub const ARI_FLOOR: f64 = 0.95;

/// Phases a PROCLUS fit records, in pipeline order.
pub const PHASES: [Phase; 7] = [
    Phase::Init,
    Phase::Index,
    Phase::Locality,
    Phase::Dims,
    Phase::Assign,
    Phase::Evaluate,
    Phase::Refine,
];

/// A fitted model with its wall time.
pub struct Timed {
    /// The model.
    pub model: ProclusModel,
    /// Wall-clock seconds of the `fit` call.
    pub secs: f64,
}

/// One traced fit paired with an untraced fit of the same inputs.
pub struct TracedPair {
    /// Untraced wall seconds.
    pub plain_secs: f64,
    /// Traced wall seconds.
    pub traced_secs: f64,
    /// What the traced fit recorded.
    pub recorder: RingRecorder,
    /// Hill-climb rounds over all restarts.
    pub rounds: usize,
    /// Rounds that improved the best objective.
    pub improvements: usize,
}

/// Fit `points` untraced.
///
/// # Errors
///
/// The fit's error, rendered.
pub fn fit(params: &Proclus, scenario: &GeneratedScenario) -> Result<Timed, String> {
    let t = Instant::now();
    let model = params
        .fit(&scenario.points)
        .map_err(|e| format!("fit failed: {e}"))?;
    Ok(Timed {
        model,
        secs: t.elapsed().as_secs_f64(),
    })
}

/// Fit traced, and check the traced model equals `plain`'s.
///
/// # Errors
///
/// The fit's error, or a digest mismatch between the two fits.
pub fn fit_traced_pair(
    params: &Proclus,
    scenario: &GeneratedScenario,
    plain: &Timed,
) -> Result<TracedPair, String> {
    // Events are built but not kept: only spans and counters are read.
    let recorder = RingRecorder::new(0);
    let t = Instant::now();
    let model = params
        .fit_traced(&scenario.points, &recorder)
        .map_err(|e| format!("traced fit failed: {e}"))?;
    let traced_secs = t.elapsed().as_secs_f64();
    if model_digest(&model) != model_digest(&plain.model) {
        return Err("traced fit produced a different model than the untraced fit".into());
    }
    Ok(TracedPair {
        plain_secs: plain.secs,
        traced_secs,
        rounds: model.diagnostics().total_rounds,
        improvements: model.improvements(),
        recorder,
    })
}

/// Adjusted Rand index of `model`'s assignment against the generator's
/// labels (outliers on either side excluded).
///
/// # Errors
///
/// A length mismatch between model and labels.
pub fn ari(model: &ProclusModel, scenario: &GeneratedScenario) -> Result<f64, String> {
    let truth: Vec<Option<usize>> = scenario.labels.iter().map(|l| l.cluster()).collect();
    proclus_eval::adjusted_rand_index(model.assignment(), &truth).map_err(|e| e.to_string())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of the fit pipeline from traced fits: phase time,
/// calls and share of the traced wall time; index, cache, pool and
/// layout counters as ratios with their bases; rounds; and the tracing
/// overhead against the paired untraced fits.
pub fn layer_metrics(pairs: &[TracedPair], report: &mut Report) {
    let per = |f: &dyn Fn(&TracedPair) -> f64| pairs.iter().map(f).collect::<Vec<f64>>();
    for phase in PHASES {
        let stats = |p: &TracedPair| p.recorder.span_stats(phase).unwrap_or_default();
        let name = phase.name();
        report.median(
            &format!("{name}.ms"),
            &per(&|p| stats(p).total.as_secs_f64() * 1e3),
            "ms",
        );
        report.median(
            &format!("{name}.calls"),
            &per(&|p| stats(p).count as f64),
            "count",
        );
        report.median(
            &format!("{name}.share"),
            &per(&|p| stats(p).total.as_secs_f64() / p.traced_secs),
            "ratio",
        );
    }
    report.median(
        "fit.phase_coverage",
        &per(&|p| {
            let sum: f64 = PHASES
                .iter()
                .filter_map(|&ph| p.recorder.span_stats(ph))
                .map(|s| s.total.as_secs_f64())
                .sum();
            sum / p.traced_secs
        }),
        "ratio",
    );
    report.median(
        "fit.trace_overhead",
        &per(&|p| p.traced_secs / p.plain_secs - 1.0),
        "ratio",
    );
    report.median("iterate.rounds", &per(&|p| p.rounds as f64), "count");
    report.median(
        "iterate.improvements",
        &per(&|p| p.improvements as f64),
        "count",
    );

    let c = |p: &TracedPair, name: &str| p.recorder.counter_value(name);
    let range_pruned = |p: &TracedPair| {
        c(p, "index.range_sketch_pruned")
            + c(p, "index.range_triangle_pruned")
            + c(p, "index.range_prefix_pruned")
    };
    let range_checks = |p: &TracedPair| range_pruned(p) + c(p, "index.range_verified");
    let nearest_checks =
        |p: &TracedPair| c(p, "index.nearest_pruned") + c(p, "index.nearest_verified");
    report.median(
        "index.range_pruned_ratio",
        &per(&|p| ratio(range_pruned(p), range_checks(p))),
        "ratio",
    );
    report.median(
        "index.range_checks",
        &per(&|p| range_checks(p) as f64),
        "count",
    );
    report.median(
        "index.nearest_pruned_ratio",
        &per(&|p| ratio(c(p, "index.nearest_pruned"), nearest_checks(p))),
        "ratio",
    );
    report.median(
        "index.nearest_checks",
        &per(&|p| nearest_checks(p) as f64),
        "count",
    );
    for (metric, stem) in [
        ("cache.fused_hit_ratio", "cache.fused_slot"),
        ("cache.column_hit_ratio", "cache.column"),
        ("cache.cluster_row_hit_ratio", "cache.cluster_row"),
    ] {
        let hits = format!("{stem}_hits");
        let recomputes = format!("{stem}_recomputes");
        report.median(
            metric,
            &per(&|p| ratio(c(p, &hits), c(p, &hits) + c(p, &recomputes))),
            "ratio",
        );
    }
    for name in ["pool.blocks", "pool.physical_blocks", "pool.dispatches"] {
        report.median(name, &per(&|p| c(p, name) as f64), "count");
    }
    report.median(
        "layout.columnar_share",
        &per(&|p| {
            let col = c(p, "layout.columnar_blocks");
            ratio(col, col + c(p, "layout.rowmajor_blocks"))
        }),
        "ratio",
    );
}

/// Run a fit workload: fit a fresh dataset per config (config `i` uses
/// data and fit seed `derive_seed(seed, i)`) until `seconds` of fitting
/// have elapsed, after one untimed warm-up fit of config 0. Each
/// generation and each fit is timed between two calibration samples.
///
/// # Errors
///
/// Only a failure to set up at all (unparsable spec, failed
/// generation); fits that fail or check out wrong are counted in the
/// report instead.
pub fn run(
    opts: &Options,
    tracer: &Tracer,
    calibrator: &Calibrator,
    report: &mut Report,
) -> Result<(), String> {
    let w = opts.workload;
    let mut setups = Vec::new();
    // Config `i`: its data (timed as one setup) and its fit parameters.
    let mut config = |i: u64| -> Result<(GeneratedScenario, Proclus), String> {
        let seed = derive_seed(opts.seed, i);
        let spec = w.spec(seed, opts.smoke)?;
        let (data, timing) = calibrator.time(|| {
            tracer.span("setup", None, None, |parent| {
                tracer.span("scenario.generate", parent, None, |_| spec.generate())
            })
        });
        setups.push(timing);
        let data = data.map_err(|e| format!("generating {}: {e}", w.name()))?;
        Ok((data, fit_params(&spec, seed)))
    };

    let mut first = Some(config(0)?);
    let digest0 = first.as_ref().and_then(|(data, params)| {
        let warm = tracer.span("fit.warmup", None, None, |_| fit(params, data));
        let digest = warm.as_ref().ok().map(|t| model_digest(&t.model));
        report.op(match (&warm, digest) {
            (Err(e), _) => Some(e.clone()),
            (Ok(_), Some(d)) => pinned_mismatch(w, opts, d),
            (Ok(_), None) => None,
        });
        digest
    });

    let mut fits = Vec::new();
    let mut aris = Vec::new();
    let mut pairs = Vec::new();
    let mut probe_input = None;
    let mut elapsed = 0.0;
    let mut i = 0u64;
    while elapsed < opts.seconds || i < 3 {
        let (scenario, params) = match first.take() {
            Some(c) => c,
            None => config(i)?,
        };
        let (timed, timing) =
            calibrator.time(|| tracer.span("fit", None, None, |_| fit(&params, &scenario)));
        elapsed += timing.raw_s;
        let timed = match timed {
            Ok(t) => t,
            Err(e) => {
                report.op(Some(e));
                i += 1;
                continue;
            }
        };
        let mut failure = None;
        if i == 0 && digest0 != Some(model_digest(&timed.model)) {
            failure = Some("refitting config 0 produced a different model".to_string());
        }
        match ari(&timed.model, &scenario) {
            Ok(a) => aris.push(a),
            Err(e) => failure = Some(e),
        }
        if tracer.enabled() {
            let t = Instant::now();
            match tracer.span("fit.traced", None, None, |_| {
                fit_traced_pair(&params, &scenario, &timed)
            }) {
                Ok(p) => pairs.push(p),
                Err(e) => failure = Some(e),
            }
            elapsed += t.elapsed().as_secs_f64();
        }
        report.op(failure);
        fits.push(timing);
        if i == 0 {
            probe_input = Some((scenario, timed.model));
        }
        i += 1;
    }

    if tracer.enabled() {
        layer_metrics(&pairs, report);
        if let Some((scenario, model)) = probe_input {
            let seen = serve::Seen::default();
            serve::probe(
                opts,
                tracer,
                report,
                &scenario.points,
                &model,
                serve::ASSIGN_BATCH_ROWS,
                seen,
            )?;
        }
    } else {
        let pairs = |ts: &[Timing], unit: f64| -> Vec<(f64, f64)> {
            ts.iter().map(|t| (t.raw_s * unit, t.scale)).collect()
        };
        report.scaled_median("setup_s", &pairs(&setups, 1.0), "s");
        report.scaled_median("op_p50_ms", &pairs(&fits, 1e3), "ms");
        let n = fits.len() as f64;
        report.scaled(
            "ops_per_s",
            n / fits.iter().map(|t| t.scaled_s()).sum::<f64>(),
            n / fits.iter().map(|t| t.raw_s).sum::<f64>(),
            "1/s",
            fits.len(),
        );
        report.median("ari", &aris, "ratio");
        report.metric("peak_rss_mb", crate::report::peak_rss_mb()?, "MB", 1);
    }
    report.op(ari_floor_failure(&aris));
    Ok(())
}

/// A failure message when the median ARI of a run is below [`ARI_FLOOR`].
pub fn ari_floor_failure(aris: &[f64]) -> Option<String> {
    match crate::stats::median(aris) {
        Some(m) if m >= ARI_FLOOR => None,
        Some(m) => Some(format!("median ARI {m:.4} is below the floor {ARI_FLOOR}")),
        None => Some("no fit produced an ARI".into()),
    }
}

/// A failure message when a default-seed, full-size run's first model
/// does not match the pinned digest.
pub fn pinned_mismatch(w: Workload, opts: &Options, digest: u64) -> Option<String> {
    let pinned = w.pinned_digest();
    (opts.seed == DEFAULT_SEED && !opts.smoke && digest != pinned).then(|| {
        format!(
            "{} model digest {digest:#018x} differs from the pinned {pinned:#018x}",
            w.name()
        )
    })
}
