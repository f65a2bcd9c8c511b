//! Smoke tier of the end-to-end benchmark: every workload at smoke size
//! in both modes, the response check, and the tail-percentile rule.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proclus_core::ModelRegistry;
use proclus_e2e_bench::serve::{batches, closed_loop, Traffic, Verifier};
use proclus_e2e_bench::speed::Calibrator;
use proclus_e2e_bench::stats::tail_rank;
use proclus_e2e_bench::workload::{fit_params, Workload};
use proclus_obs::json::{self, Json};
use proclus_obs::NoopRecorder;
use proclus_serve::{start, ServeConfig};

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e-smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
    let entries = spec.get(key).and_then(Json::as_arr).expect("metric list");
    entries
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the `e2e` binary and return its parsed result line.
fn run_e2e(workload: &str, trace: bool) -> Json {
    let dir = scratch(&format!("{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--smoke",
            "--seconds",
            "0.5",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(&dir)
        .output()
        .expect("run e2e");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

#[test]
fn every_workload_emits_every_listed_metric_without_errors() {
    let e2e = listed("end_to_end");
    let layers = listed("per_layer");
    let started = Instant::now();
    std::thread::scope(|s| {
        let runs: Vec<_> = Workload::ALL
            .iter()
            .flat_map(|w| [(w.name(), false), (w.name(), true)])
            .map(|(w, trace)| (w, trace, s.spawn(move || run_e2e(w, trace))))
            .collect();
        for (w, trace, handle) in runs {
            let result = handle.join().expect("e2e run");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{w}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_usize),
                Some(0),
                "{w}"
            );
            assert!(result.get("attempted").and_then(Json::as_usize).unwrap() > 0);
            let metrics = result.get("metrics").unwrap();
            for (name, unit) in if trace { &layers } else { &e2e } {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w} trace={trace}: {name} missing"));
                let value = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{w}: {name} = {value}");
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
            }
        }
    });
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "smoke runs took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_wrong_expected_body_is_counted_as_failed() {
    let spec = Workload::ServeAssign.spec(1, true).unwrap();
    let data = spec.generate().unwrap();
    let model = fit_params(&spec, 1).fit(&data.points).unwrap();
    let dir = scratch("wrong-body");
    ModelRegistry::open(&dir)
        .unwrap()
        .0
        .publish(&model)
        .unwrap();
    let server = start(
        "127.0.0.1:0",
        ServeConfig {
            registry_dir: dir.clone(),
            queue_capacity: 1,
            threads: 1,
        },
        Arc::new(NoopRecorder),
    )
    .unwrap();
    let batches = batches(&data.points, 500).unwrap();
    let calibrator = Calibrator::default();
    let run = |verifier: &Verifier| {
        let traffic = Traffic {
            addr: server.addr(),
            batches: &batches,
            verifier,
            calibrator: &calibrator,
        };
        let now = Instant::now();
        closed_loop(&traffic, 1, now, now + Duration::from_millis(200))
    };

    let mut verifier = Verifier::new(std::slice::from_ref(&model), &batches).unwrap();
    let clean = run(&verifier);
    assert!(clean.attempted > 0);
    assert!(clean.failures.is_empty(), "{:?}", clean.failures);

    // One expected label flipped in batch 0: exactly its requests fail.
    let tail = &mut verifier.expected[0][0];
    let at = tail.iter().rposition(u8::is_ascii_digit).unwrap();
    tail[at] = if tail[at] == b'0' { b'1' } else { b'0' };
    let broken = run(&verifier);
    let failed: u64 = broken.failures.iter().map(|(n, _)| n).sum();
    let batch0 = broken.attempted.div_ceil(batches.requests.len() as u64);
    assert_eq!(failed, batch0, "{:?}", broken.failures);
    assert!(
        broken.failures[0].1.contains("differs"),
        "{:?}",
        broken.failures
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn p99_is_reported_only_with_ten_samples_beyond_it() {
    assert_eq!(tail_rank(999, 99.0), None, "9 samples beyond p99 of 999");
    assert_eq!(tail_rank(1000, 99.0), Some(990), "10 beyond p99 of 1000");
    assert_eq!(tail_rank(19, 50.0), None);
    assert_eq!(tail_rank(20, 50.0), Some(10));
    assert_eq!(tail_rank(0, 50.0), None);
}
