//! Serving tier: the resident `proclus-serve` daemon driven over real
//! TCP sockets — upload → fit → poll → assign end to end, ≥8
//! concurrent clients hammering assign while a fit runs, registry
//! promotions landing mid-traffic, corrupt-`CURRENT` startup recovery,
//! and graceful shutdown draining queued jobs.
//!
//! The serving determinism contract under test: the wire bytes of an
//! assign response are a pure function of (model bytes, request body),
//! pinned by a golden FNV-1a digest, and the assignment itself is
//! byte-identical to the offline `AssignPoints` pass over the same
//! matrix (the medoid coordinates are exact copies of training rows).

use proclus::core::{ModelRegistry, Proclus};
use proclus::data::binio;
use proclus::obs::json;
use proclus::obs::NoopRecorder;
use proclus::prelude::*;
use proclus::serve::{start, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Harness: tmp registries, a hand-rolled HTTP client, digests
// ---------------------------------------------------------------------

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("proclus-serve-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(tag: &str, queue: usize) -> ServerHandle {
    start(
        "127.0.0.1:0",
        ServeConfig {
            registry_dir: tmp(tag),
            queue_capacity: queue,
            threads: 1,
        },
        Arc::new(NoopRecorder),
    )
    .expect("bind ephemeral port")
}

/// One full `Connection: close` HTTP exchange: raw request bytes in,
/// raw response bytes out (read to EOF). This is deliberately *not*
/// the server's own parser — an independent client keeps the wire
/// format honest from the outside.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(raw).expect("send");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("receive");
    out
}

/// Build a request with a body, `Connection: close` framing.
fn request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Split a raw response into (status, headers, body).
fn parts(resp: &[u8]) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let split = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body split");
    let head = std::str::from_utf8(&resp[..split]).expect("ASCII head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let headers = lines
        .map(|l| {
            let (n, v) = l.split_once(':').expect("header colon");
            (n.trim().to_ascii_lowercase(), v.trim().to_string())
        })
        .collect();
    (status, headers, resp[split + 4..].to_vec())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn body_str(resp: &[u8]) -> String {
    let (_, _, body) = parts(resp);
    String::from_utf8(body).expect("UTF-8 body")
}

/// FNV-1a 64-bit — same dependency-free digest `tests/determinism.rs`
/// pins its golden event stream with.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shared workload: a seeded synthetic dataset uploaded as binary
/// (`PRCL`) so the wire bytes are platform-stable, and the fit params
/// every test fits it with.
const K: usize = 3;
const L: f64 = 3.0;
const SEED: u64 = 17;
const RESTARTS: usize = 2;

fn workload() -> (Matrix, Vec<u8>) {
    let data = SyntheticSpec::new(300, 8, 3, 3.0).seed(2024).generate();
    let bytes = binio::encode(&data.points, None).expect("encode");
    (data.points, bytes)
}

fn fit_body(dataset: &str) -> Vec<u8> {
    format!(
        "{{\"dataset\":\"{dataset}\",\"k\":{K},\"l\":{L},\"seed\":{SEED},\"restarts\":{RESTARTS}}}"
    )
    .into_bytes()
}

/// The offline twin of the server's fit job: identical params through
/// the identical builder.
fn offline_model(points: &Matrix) -> proclus::core::ProclusModel {
    Proclus::new(K, L)
        .seed(SEED)
        .restarts(RESTARTS)
        .threads(1)
        .distance(DistanceKind::Manhattan)
        .fit(points)
        .expect("offline fit")
}

/// Poll `GET /v1/jobs/{id}` until the job leaves queued/running.
fn wait_for_job(addr: SocketAddr, id: &str) -> String {
    for _ in 0..600 {
        let resp = exchange(addr, &request("GET", &format!("/v1/jobs/{id}"), b""));
        let body = body_str(&resp);
        if body.contains("\"state\":\"done\"") || body.contains("\"state\":\"failed\"") {
            return body;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("job {id} never finished");
}

// ---------------------------------------------------------------------
// End to end: upload → fit → poll → assign
// ---------------------------------------------------------------------

/// The golden digest of the full wire bytes (status line, headers,
/// body) of the canonical assign response below. The response carries
/// no clocks and no per-connection state, so this is a pure function
/// of (dataset seed, fit params, protocol rendering): if it moves,
/// either the search path, the model codec, or the wire format changed
/// — all must be deliberate (update the constant in the same commit).
const GOLDEN_ASSIGN_FNV1A: u64 = 0x8C32_C9A7_6837_F037;

#[test]
fn upload_fit_poll_assign_end_to_end() {
    let (points, upload) = workload();
    let server = start_server("e2e", 4);
    let addr = server.addr();

    // Upload (binary PRCL body).
    let resp = exchange(addr, &request("POST", "/v1/datasets/train", &upload));
    let (status, _, _) = parts(&resp);
    assert_eq!(status, 201, "{}", body_str(&resp));
    assert_eq!(
        body_str(&resp),
        "{\"dataset\":\"train\",\"rows\":300,\"cols\":8}\n"
    );

    // Fit: deterministic job id, queued state.
    let resp = exchange(addr, &request("POST", "/v1/fit", &fit_body("train")));
    let (status, _, _) = parts(&resp);
    assert_eq!(status, 202, "{}", body_str(&resp));
    assert!(body_str(&resp).starts_with("{\"job\":\"job-000001\""));

    // Poll until done; the job publishes generation 1.
    let done = wait_for_job(addr, "job-000001");
    assert!(done.contains("\"state\":\"done\""), "{done}");
    assert!(done.contains("\"generation\":1"), "{done}");

    // Assign the training matrix back through the server.
    let resp = exchange(addr, &request("POST", "/v1/assign", &upload));
    let (status, headers, body) = parts(&resp);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(header(&headers, "x-proclus-generation"), Some("1"));

    // Byte-identical to the offline AssignPoints pass: the expected
    // body is rendered with the same JSON writer the server uses.
    let model = offline_model(&points);
    let expected_assignment = model.assign_batch(&points).expect("offline assign");
    let mut expected = format!("{{\"generation\":1,\"count\":{}", expected_assignment.len());
    expected.push_str(",\"assignment\":");
    json::write_usize_arr(&mut expected, &expected_assignment);
    expected.push_str("}\n");
    assert_eq!(
        String::from_utf8(body).expect("UTF-8 body"),
        expected,
        "server assignment differs from offline AssignPoints"
    );

    // Pin the *entire* response — headers included — as the wire
    // determinism contract.
    assert_eq!(
        fnv1a64(&resp),
        GOLDEN_ASSIGN_FNV1A,
        "golden assign wire digest moved (got 0x{:016X})",
        fnv1a64(&resp)
    );

    // Classify takes the same body and reports the same generation.
    let resp = exchange(addr, &request("POST", "/v1/classify", &upload));
    let (status, headers, body) = parts(&resp);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-proclus-generation"), Some("1"));
    assert!(
        String::from_utf8_lossy(&body).starts_with("{\"generation\":1,\"count\":300,\"labels\":[")
    );

    server.shutdown();
}

/// A fit body's `"seed"` is read as the exact integer it spells, up to
/// `u64::MAX`; 2^64 is a 400, not a seed rounded to fit.
#[test]
fn fit_seed_is_read_exactly_up_to_u64_max() {
    let (_points, upload) = workload();
    let server = start_server("seed", 4);
    let addr = server.addr();
    let resp = exchange(addr, &request("POST", "/v1/datasets/train", &upload));
    assert_eq!(parts(&resp).0, 201);

    let body = br#"{"dataset":"train","k":3,"l":3,"seed":18446744073709551616}"#;
    let resp = exchange(addr, &request("POST", "/v1/fit", body));
    assert_eq!(parts(&resp).0, 400, "{}", body_str(&resp));

    let body = br#"{"dataset":"train","k":3,"l":3,"seed":18446744073709551615}"#;
    let resp = exchange(addr, &request("POST", "/v1/fit", body));
    assert_eq!(parts(&resp).0, 202, "{}", body_str(&resp));
    let done = wait_for_job(addr, "job-000001");
    assert!(done.contains("\"seed\":18446744073709551615,"), "{done}");
    server.shutdown();
}

/// A fit body's `"l"` is a finite JSON number. The non-finite marker
/// strings the event writer uses are strings, answered 400 at submit,
/// not queued as a job that can only fail.
#[test]
fn fit_l_must_be_a_finite_json_number() {
    let (_points, upload) = workload();
    let server = start_server("fit-l", 4);
    let addr = server.addr();
    let resp = exchange(addr, &request("POST", "/v1/datasets/d", &upload));
    assert_eq!(parts(&resp).0, 201);
    for l in ["\"nan\"", "\"inf\"", "\"-inf\"", "\"3\"", "null", "[3]"] {
        let body = format!("{{\"dataset\":\"d\",\"k\":2,\"l\":{l}}}");
        let resp = exchange(addr, &request("POST", "/v1/fit", body.as_bytes()));
        let (status, _, text) = parts(&resp);
        let text = String::from_utf8_lossy(&text);
        assert_eq!(status, 400, "{body}: {text}");
        assert!(text.contains("finite number"), "{body}: {text}");
    }
    let resp = exchange(
        addr,
        &request("POST", "/v1/fit", br#"{"dataset":"d","k":2,"l":2.5}"#),
    );
    assert_eq!(parts(&resp).0, 202, "{}", body_str(&resp));
    assert!(wait_for_job(addr, "job-000001").contains("\"state\":\"done\""));
    server.shutdown();
}

// ---------------------------------------------------------------------
// Concurrency: ≥8 clients hammering assign while a fit runs
// ---------------------------------------------------------------------

#[test]
fn concurrent_assigns_are_byte_identical_while_a_fit_runs() {
    let (_points, upload) = workload();
    let server = start_server("hammer", 4);
    let addr = server.addr();

    // Publish generation 1 so assigns have a model to serve.
    let resp = exchange(addr, &request("POST", "/v1/datasets/train", &upload));
    assert_eq!(parts(&resp).0, 201);
    let resp = exchange(addr, &request("POST", "/v1/fit", &fit_body("train")));
    assert_eq!(parts(&resp).0, 202);
    wait_for_job(addr, "job-000001");

    // Generation 1's reference body, taken single-threaded before the
    // storm.
    let reference = exchange(addr, &request("POST", "/v1/assign", &upload));
    let (status, headers, ref1) = parts(&reference);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-proclus-generation"), Some("1"));

    // Kick off a second, heavier fit to keep the worker busy while the
    // clients hammer (more restarts = longer job).
    let heavy =
        format!("{{\"dataset\":\"train\",\"k\":{K},\"l\":{L},\"seed\":{SEED},\"restarts\":25}}");
    let resp = exchange(addr, &request("POST", "/v1/fit", heavy.as_bytes()));
    assert_eq!(parts(&resp).0, 202, "{}", body_str(&resp));

    // The hammering clients race the second publish, so a response may
    // serve generation 1 or 2. The heavier fit is a different model
    // and may assign differently, so each response is checked against
    // the reference of the generation its header names.
    const CLIENTS: usize = 10;
    const ROUNDS: usize = 5;
    let mut threads = Vec::new();
    for _ in 0..CLIENTS {
        let upload = upload.clone();
        threads.push(std::thread::spawn(move || {
            (0..ROUNDS)
                .map(|_| {
                    let resp = exchange(addr, &request("POST", "/v1/assign", &upload));
                    let (status, headers, body) = parts(&resp);
                    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
                    let generation = header(&headers, "x-proclus-generation")
                        .expect("generation header")
                        .to_string();
                    (generation, body)
                })
                .collect::<Vec<_>>()
        }));
    }
    let responses: Vec<(String, Vec<u8>)> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();

    // The heavy fit still completes; generation 2's reference body is
    // an assign taken once it is done.
    let done = wait_for_job(addr, "job-000002");
    assert!(done.contains("\"state\":\"done\""), "{done}");
    assert!(done.contains("\"generation\":2"), "{done}");
    let resp = exchange(addr, &request("POST", "/v1/assign", &upload));
    let (status, headers, ref2) = parts(&resp);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-proclus-generation"), Some("2"));

    // Every response names generation 1 or 2, and its body is
    // byte-equal to that generation's reference.
    for (generation, body) in &responses {
        let want = match generation.as_str() {
            "1" => &ref1,
            "2" => &ref2,
            other => panic!("impossible generation {other} under load"),
        };
        assert!(
            body == want,
            "generation {generation} response diverged from its reference under load: {}",
            String::from_utf8_lossy(body)
        );
    }

    let resp = exchange(addr, &request("GET", "/healthz", b""));
    assert_eq!(parts(&resp).0, 200);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Registry interaction: promotions mid-traffic, corrupt CURRENT
// ---------------------------------------------------------------------

/// A cross-process promotion (a second registry handle publishing new
/// generations, as `proclus stream` would) lands mid-traffic: every
/// in-flight assign still answers from exactly one generation, and the
/// new generation is visible to later requests without a restart.
#[test]
fn promotion_during_inflight_assigns_is_one_generation_per_request() {
    let (points, upload) = workload();
    let dir = tmp("promote");
    let server = start(
        "127.0.0.1:0",
        ServeConfig {
            registry_dir: dir.clone(),
            queue_capacity: 2,
            threads: 1,
        },
        Arc::new(NoopRecorder),
    )
    .expect("bind");
    let addr = server.addr();

    // Generation 1 via the server's own fit path.
    let resp = exchange(addr, &request("POST", "/v1/datasets/train", &upload));
    assert_eq!(parts(&resp).0, 201);
    let resp = exchange(addr, &request("POST", "/v1/fit", &fit_body("train")));
    assert_eq!(parts(&resp).0, 202);
    wait_for_job(addr, "job-000001");

    // A "foreign" process promotes generations 2..=4 while clients
    // stream assigns.
    let model = offline_model(&points);
    let publisher = std::thread::spawn(move || {
        let (mut registry, _) = ModelRegistry::open(&dir).expect("reopen registry");
        for _ in 0..3 {
            registry.publish(&model).expect("publish");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    });

    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..40 {
        let resp = exchange(addr, &request("POST", "/v1/assign", &upload));
        let (status, headers, body) = parts(&resp);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let generation = header(&headers, "x-proclus-generation")
            .expect("generation header")
            .to_string();
        let body = String::from_utf8(body).expect("UTF-8 body");
        assert!(
            body.starts_with(&format!("{{\"generation\":{generation},")),
            "torn generation: header {generation}, body {body}"
        );
        seen.insert(generation);
    }
    publisher.join().expect("publisher");

    // After the dust settles the *next* request serves generation 4 —
    // the cross-process promotion is visible with no restart.
    let resp = exchange(addr, &request("POST", "/v1/assign", &upload));
    let (_, headers, _) = parts(&resp);
    assert_eq!(header(&headers, "x-proclus-generation"), Some("4"));
    assert!(
        seen.iter()
            .all(|g| ["1", "2", "3", "4"].contains(&g.as_str())),
        "impossible generations observed: {seen:?}"
    );
    server.shutdown();
}

/// A corrupt `CURRENT` at startup is *recovered* (repaired to the
/// newest valid generation and reported), never a crash: the PR7
/// contract extended to the server's boot path.
#[test]
fn corrupt_current_at_startup_surfaces_recovery_report_and_serves() {
    let (points, upload) = workload();
    let dir = tmp("corrupt-current");

    // A healthy registry with one generation…
    let (mut registry, _) = ModelRegistry::open(&dir).expect("create registry");
    registry.publish(&offline_model(&points)).expect("publish");
    drop(registry);
    // …whose CURRENT is then trashed (crash mid-write, say).
    std::fs::write(dir.join("CURRENT"), b"not-a-generation\n").expect("corrupt CURRENT");

    let server = start(
        "127.0.0.1:0",
        ServeConfig {
            registry_dir: dir,
            queue_capacity: 2,
            threads: 1,
        },
        Arc::new(NoopRecorder),
    )
    .expect("server must boot through a corrupt CURRENT");
    let report = server.state().recovery_report();
    assert!(report.current_repaired, "repair not reported: {report:?}");
    assert_eq!(report.valid, vec![1]);

    // And the repaired generation serves immediately.
    let resp = exchange(server.addr(), &request("POST", "/v1/assign", &upload));
    let (status, headers, _) = parts(&resp);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-proclus-generation"), Some("1"));
    server.shutdown();
}

// ---------------------------------------------------------------------
// Shutdown: queued jobs drain, then the server exits
// ---------------------------------------------------------------------

#[test]
fn graceful_shutdown_drains_queued_fit_jobs() {
    let (_points, upload) = workload();
    let server = start_server("drain", 4);
    let addr = server.addr();

    let resp = exchange(addr, &request("POST", "/v1/datasets/train", &upload));
    assert_eq!(parts(&resp).0, 201);
    // Two jobs: one starts running, one sits in the queue.
    for _ in 0..2 {
        let resp = exchange(addr, &request("POST", "/v1/fit", &fit_body("train")));
        assert_eq!(parts(&resp).0, 202, "{}", body_str(&resp));
    }
    let state = server.state().clone();
    // Shutdown must block until *both* jobs have run to completion.
    server.shutdown();
    let jobs = state.list_jobs();
    assert_eq!(jobs.len(), 2);
    for job in &jobs {
        assert!(
            matches!(job.state, proclus::serve::JobState::Done { .. }),
            "job {} not drained: {:?}",
            job.id,
            job.state
        );
    }
}
