//! Streaming tier: the drift → rebuild → Shadow → Canary → Promote
//! pipeline end to end, its determinism contract (decision log and
//! published bytes identical across thread counts, pinned by a golden
//! digest), and the rollback/recovery behavior under injected faults.

use proclus::core::{
    encode_model, GateConfig, Proclus, RolloverOutcome, StreamConfig, StreamServer,
};
use proclus::obs::JsonlRecorder;
use proclus::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("proclus-streamtest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Distribution A then distribution B (same cluster structure, all
/// coordinates shifted) — a stream that genuinely drifts.
fn drifting_batches() -> Vec<Matrix> {
    let a = SyntheticSpec::new(1_200, 8, 3, 3.0).seed(11).generate();
    let b = SyntheticSpec::new(1_200, 8, 3, 3.0).seed(12).generate();
    let mut batches = Vec::new();
    let slice = |points: &Matrix, start: usize, rows: usize, shift: f64| {
        let mut data = Vec::with_capacity(rows * points.cols());
        for r in start..start + rows {
            for v in points.row(r) {
                data.push(v + shift);
            }
        }
        Matrix::from_vec(data, rows, points.cols())
    };
    for i in 0..12 {
        batches.push(slice(&a.points, i * 100, 100, 0.0));
    }
    for i in 0..12 {
        batches.push(slice(&b.points, i * 100, 100, 55.0));
    }
    batches
}

fn scenario_params(threads: usize) -> (Proclus, StreamConfig, GateConfig) {
    (
        Proclus::new(3, 3.0).seed(17).restarts(2).threads(threads),
        StreamConfig {
            window: 800,
            min_fit_points: 400,
            reservoir: 128,
            projections: 8,
            drift_threshold: 0.6,
            patience: 2,
            cooldown: 2,
            seed: 5,
        },
        GateConfig::default(),
    )
}

struct ScenarioRun {
    events: Vec<u8>,
    /// (generation, trigger, candidate_seed, fit window, entry bytes)
    promotions: Vec<(u64, &'static str, u64, Matrix, Vec<u8>)>,
    rollbacks: u64,
}

/// Drive the drifting stream through a fresh registry, recording the
/// event stream and every promotion's effective fit window.
fn run_scenario(tag: &str, threads: usize) -> ScenarioRun {
    let registry = tmp(&format!("scn-reg-{tag}"));
    let trace = tmp(&format!("scn-trace-{tag}"));
    let (params, config, gates) = scenario_params(threads);
    let rec = JsonlRecorder::create(&trace).unwrap();
    let (mut server, recovery) = StreamServer::new(params, config, gates, &registry, &rec).unwrap();
    assert!(recovery.is_clean());
    let mut promotions = Vec::new();
    for batch in drifting_batches() {
        let report = server.ingest_batch(&batch);
        if let Some(roll) = &report.rollover {
            if let RolloverOutcome::Promoted { generation } = roll.outcome {
                // The window has not changed since the candidate was
                // fitted (the rollover ran inside this ingest).
                promotions.push((
                    generation,
                    roll.trigger,
                    roll.candidate_seed,
                    server.window_matrix(),
                    std::fs::read(server.registry().entry_path(generation)).unwrap(),
                ));
            }
        }
    }
    let rollbacks = server.diagnostics().rollbacks;
    rec.finish(
        proclus::obs::json::Json::Obj(Vec::new()),
        proclus::obs::json::Json::Obj(Vec::new()),
    )
    .unwrap();
    let events = std::fs::read(trace.join(proclus::obs::EVENTS_FILE)).unwrap();
    std::fs::remove_dir_all(&registry).ok();
    std::fs::remove_dir_all(&trace).ok();
    ScenarioRun {
        events,
        promotions,
        rollbacks,
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    proclus::math::fnv1a64(bytes)
}

/// Digest of the full event stream (ingest decisions, drift
/// detections, rollover transitions, gate scores, publishes) of the
/// golden drift scenario. A pure function of (params, data, seeds): if
/// it moves, the streaming decision path or the event schema changed —
/// both must be deliberate.
const GOLDEN_STREAM_EVENTS_FNV1A: u64 = 0x202D_34AC_F05F_A270;

#[test]
fn drift_scenario_promotes_twice_and_is_thread_invariant() {
    let serial = run_scenario("t1", 1);

    // Bootstrap promote on distribution A, drift-triggered promote on
    // distribution B. In between, one drift rebuild fits the *mixed*
    // transition window and is deterministically rejected at the
    // canary gate — the state machine rolls it back and retries after
    // the cooldown.
    assert_eq!(
        serial
            .promotions
            .iter()
            .map(|(g, t, ..)| (*g, *t))
            .collect::<Vec<_>>(),
        vec![(1, "bootstrap"), (2, "drift")],
        "expected bootstrap then drift promotion"
    );
    assert_eq!(
        serial.rollbacks, 1,
        "the mixed-window rebuild must roll back"
    );

    // The full decision log is byte-identical across thread counts.
    let parallel = run_scenario("t8", 8);
    assert_eq!(
        serial.events, parallel.events,
        "events.jsonl must be byte-identical for threads 1 and 8"
    );
    for ((g1, _, _, w1, b1), (g8, _, _, w8, b8)) in
        serial.promotions.iter().zip(&parallel.promotions)
    {
        assert_eq!(g1, g8);
        assert_eq!(w1, w8, "effective fit windows diverged");
        assert_eq!(b1, b8, "published entry bytes diverged");
    }

    assert_eq!(
        fnv1a64(&serial.events),
        GOLDEN_STREAM_EVENTS_FNV1A,
        "golden streaming event-stream digest moved — if the decision \
         path or event schema changed deliberately, update \
         GOLDEN_STREAM_EVENTS_FNV1A (got 0x{:016X})",
        fnv1a64(&serial.events)
    );

    // The decision log contains the full state machine: rebuild 2
    // (mixed window) dies at the canary gate, rebuild 3 promotes.
    let text = String::from_utf8(serial.events.clone()).unwrap();
    for needle in [
        "\"type\":\"drift_detected\"",
        "\"rebuild\":2,\"from\":\"idle\",\"to\":\"shadow\",\"reason\":\"drift\"",
        "\"rebuild\":2,\"from\":\"shadow\",\"to\":\"canary\",\"reason\":\"gates_passed\"",
        "\"rebuild\":2,\"from\":\"canary\",\"to\":\"rolled_back\",\"reason\":\"gate_failed\"",
        "\"rebuild\":3,\"from\":\"idle\",\"to\":\"shadow\",\"reason\":\"drift\"",
        "\"rebuild\":3,\"from\":\"canary\",\"to\":\"promoted\",\"reason\":\"gates_passed\"",
        "\"type\":\"model_published\"",
    ] {
        assert!(text.contains(needle), "decision log missing {needle}");
    }
    // Every line round-trips through the event parser byte for byte.
    for line in text.lines() {
        let ev = proclus::obs::Event::parse_line(line).unwrap();
        assert_eq!(ev.to_json(), line, "event line does not round-trip");
    }
}

/// The promoted registry entry is byte-identical to an *offline* fit
/// on the same effective window with the same derived seed — at both
/// thread counts. The registry stores exactly `encode_model(fit)`.
#[test]
fn promoted_model_is_byte_identical_to_offline_fit() {
    let run = run_scenario("offline", 1);
    assert_eq!(run.promotions.len(), 2);
    for (generation, _, candidate_seed, window, entry_bytes) in &run.promotions {
        for threads in [1usize, 8] {
            let (params, ..) = scenario_params(threads);
            let offline = params
                .seed(*candidate_seed)
                .fit(window)
                .unwrap_or_else(|e| panic!("offline refit of generation {generation}: {e}"));
            assert_eq!(
                &encode_model(&offline),
                entry_bytes,
                "offline fit (threads {threads}) diverged from published \
                 generation {generation}"
            );
        }
    }
}

/// An impossible canary gate after a healthy bootstrap: the rebuild
/// must roll back and the previous generation must keep serving.
#[test]
fn failing_gate_rolls_back_and_previous_model_keeps_serving() {
    let registry = tmp("gatefail-reg");
    let (params, config, _) = scenario_params(1);
    let gates = GateConfig {
        max_cost_ratio: 1e-9, // no candidate can beat the live cost 10^9-fold
        ..GateConfig::default()
    };
    let rec = proclus::obs::NoopRecorder;
    let (mut server, _) = StreamServer::new(params, config, gates, &registry, &rec).unwrap();
    let mut saw_rollback = false;
    for batch in drifting_batches() {
        let report = server.ingest_batch(&batch);
        if let Some(roll) = &report.rollover {
            match &roll.outcome {
                RolloverOutcome::Promoted { generation } => {
                    // Only the bootstrap (no live model, canary gates
                    // vacuous) may promote.
                    assert_eq!(*generation, 1, "{roll:?}");
                }
                RolloverOutcome::RolledBack { stage, reason } => {
                    assert_eq!(*stage, "canary");
                    assert_eq!(*reason, "gate_failed");
                    saw_rollback = true;
                }
            }
        }
    }
    assert!(saw_rollback, "drift rebuild never hit the failing gate");
    assert_eq!(server.live_generation(), Some(1), "gen 1 must keep serving");
    assert_eq!(server.registry().generations(), &[1]);
    assert!(server.diagnostics().rollbacks >= 1);
    std::fs::remove_dir_all(&registry).ok();
}

/// A corrupt candidate persist (the registry's temp path is blocked by
/// a directory): publish fails, the rebuild ends in rollback, the
/// previous model keeps serving, and no partial entry is visible.
#[test]
fn corrupt_candidate_persist_rolls_back_without_partial_state() {
    let registry = tmp("persistfail-reg");
    let (params, config, gates) = scenario_params(1);
    let rec = proclus::obs::NoopRecorder;
    let (mut server, _) = StreamServer::new(params, config, gates, &registry, &rec).unwrap();
    let mut blocked = false;
    let mut saw_publish_error = false;
    for batch in drifting_batches() {
        let report = server.ingest_batch(&batch);
        if let Some(roll) = &report.rollover {
            match &roll.outcome {
                RolloverOutcome::Promoted { generation } => {
                    assert_eq!(*generation, 1);
                    // Block the *next* publish: a directory where its
                    // temp file must be created makes File::create
                    // fail even when running as root.
                    std::fs::create_dir_all(registry.join("gen-000002.prcm.tmp")).unwrap();
                    blocked = true;
                }
                // The mixed-window rebuild may die at the canary gate
                // on its own; the *publish* fault must surface as a
                // publish_error rollback once a candidate passes.
                RolloverOutcome::RolledBack { reason, .. } if *reason == "gate_failed" => {
                    assert!(blocked, "unexpected rollback before the fault: {roll:?}");
                }
                RolloverOutcome::RolledBack { stage, reason } => {
                    assert!(blocked, "unexpected rollback before the fault: {roll:?}");
                    assert_eq!(*stage, "canary");
                    assert_eq!(*reason, "publish_error");
                    saw_publish_error = true;
                }
            }
        }
    }
    assert!(saw_publish_error, "the blocked publish never happened");
    assert_eq!(server.live_generation(), Some(1));
    assert!(!registry.join("gen-000002.prcm").exists());
    assert_eq!(
        std::fs::read_to_string(registry.join("CURRENT"))
            .unwrap()
            .trim(),
        "1"
    );
    std::fs::remove_dir_all(&registry).ok();
}

/// A crash mid-rollover (entry durably written, CURRENT never flipped)
/// plus assorted wreckage: reopening runs the recovery scan, the
/// previous model keeps serving, and the wreckage is quarantined —
/// never parsed, never fatal.
#[test]
fn mid_rollover_crash_recovers_with_previous_model_serving() {
    let registry = tmp("crash-reg");
    let (params, config, gates) = scenario_params(1);
    let rec = proclus::obs::NoopRecorder;

    // Session 1: bootstrap a generation-1 model.
    let promoted_model;
    {
        let (mut server, _) = StreamServer::new(
            params.clone(),
            config.clone(),
            gates.clone(),
            &registry,
            &rec,
        )
        .unwrap();
        for batch in drifting_batches().into_iter().take(6) {
            server.ingest_batch(&batch);
        }
        assert_eq!(server.live_generation(), Some(1));
        promoted_model = server.live().unwrap().clone();
    }

    // Simulated crash wreckage: a fully-written orphan entry (pointer
    // never flipped), a truncated entry, and a stray temp file.
    let orphan = encode_model(&promoted_model);
    std::fs::write(registry.join("gen-000002.prcm"), &orphan).unwrap();
    std::fs::write(
        registry.join("gen-000003.prcm"),
        &orphan[..orphan.len() / 3],
    )
    .unwrap();
    std::fs::write(registry.join("gen-000004.prcm.tmp"), b"interrupted").unwrap();

    // Session 2: recovery.
    let (server, recovery) = StreamServer::new(params, config, gates, &registry, &rec).unwrap();
    assert_eq!(
        server.live_generation(),
        Some(1),
        "CURRENT is the commit point — generation 1 must keep serving"
    );
    assert_eq!(recovery.valid, vec![1, 2]);
    assert_eq!(recovery.quarantined.len(), 2, "{recovery:?}");
    assert!(!recovery.current_repaired);
    assert!(registry.join("gen-000003.prcm.quarantined").exists());
    assert!(registry.join("gen-000004.prcm.tmp.quarantined").exists());
    // The recovered live model is byte-identical to what was promoted.
    assert_eq!(
        encode_model(server.live().unwrap()),
        encode_model(&promoted_model)
    );
    std::fs::remove_dir_all(&registry).ok();
}
