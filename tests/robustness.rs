//! Fault-injection tier: every decoder driven with systematically
//! corrupted payloads, and full `fit` runs over seeded adversarial
//! datasets. The single invariant under test is **"typed error or
//! valid value — never a panic"**.

use proclus::baselines::{Clarans, KMeans};
use proclus::core::{GateConfig, StreamConfig, StreamServer};
use proclus::data::adversarial::all_cases;
use proclus::data::binio::{decode, encode};
use proclus::data::fault::FaultReader;
use proclus::data::io::{read_csv, write_csv};
use proclus::data::{encode_chunk, encode_chunk_stream, ChunkReader, DataError};
use proclus::obs::NoopRecorder;
use proclus::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::env;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn tmp(name: &str) -> std::path::PathBuf {
    env::temp_dir().join(format!("proclus-rb-{name}-{}", std::process::id()))
}

fn sample_dataset() -> GeneratedDataset {
    SyntheticSpec::new(40, 3, 2, 2.0).seed(77).generate()
}

/// Decode must return a typed error or a shape-consistent value.
fn assert_decode_sane(bytes: &[u8], what: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| decode(bytes)));
    match outcome {
        Err(_) => panic!("decode panicked on {what}"),
        Ok(Err(e)) => assert!(!e.to_string().is_empty(), "empty error on {what}"),
        Ok(Ok((m, labels))) => {
            assert_eq!(m.as_slice().len(), m.rows() * m.cols(), "shape on {what}");
            if let Some(l) = labels {
                assert_eq!(l.len(), m.rows(), "label count on {what}");
            }
        }
    }
}

#[test]
fn binio_survives_every_truncation() {
    let data = sample_dataset();
    let bytes = encode(&data.points, Some(&data.labels)).expect("encode");
    let fr = FaultReader::new(bytes);
    // The format's length-prefix check makes every proper prefix
    // invalid, so truncations must all be typed errors.
    for (cut, t) in fr.truncations().enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(t)));
        match outcome {
            Err(_) => panic!("decode panicked on truncation at byte {cut}"),
            Ok(r) => assert!(r.is_err(), "truncation at byte {cut} decoded Ok"),
        }
    }
}

#[test]
fn binio_survives_every_bit_flip() {
    let data = sample_dataset();
    let bytes = encode(&data.points, Some(&data.labels)).expect("encode");
    let fr = FaultReader::new(bytes);
    for (i, flipped) in fr.bit_flips().enumerate() {
        assert_decode_sane(&flipped, &format!("bit flip #{i}"));
    }
}

#[test]
fn binio_survives_garbage_runs() {
    let data = sample_dataset();
    let bytes = encode(&data.points, None).expect("encode");
    let fr = FaultReader::new(bytes);
    for (i, garbled) in fr.garbage_runs(0xFAA7, 128).iter().enumerate() {
        assert_decode_sane(garbled, &format!("garbage run #{i}"));
    }
    // Sanity: the pristine payload still decodes.
    let (m, labels) = decode(fr.pristine()).expect("pristine payload");
    assert_eq!(m.rows(), data.points.rows());
    assert!(labels.is_none());
}

#[test]
fn csv_reader_survives_faulted_files() {
    let data = sample_dataset();
    let pristine_path = tmp("pristine.csv");
    write_csv(&pristine_path, &data.points, Some(&data.labels)).expect("write");
    let bytes = std::fs::read(&pristine_path).expect("read back");
    std::fs::remove_file(&pristine_path).ok();
    let fr = FaultReader::new(bytes);

    let path = tmp("faulted.csv");
    let check = |payload: &[u8], what: &str| {
        std::fs::write(&path, payload).expect("write fault");
        let outcome = catch_unwind(AssertUnwindSafe(|| read_csv(&path)));
        match outcome {
            Err(_) => panic!("read_csv panicked on {what}"),
            Ok(Err(e)) => assert!(!e.to_string().is_empty(), "empty error on {what}"),
            Ok(Ok((m, labels))) => {
                assert_eq!(m.as_slice().len(), m.rows() * m.cols(), "shape on {what}");
                if let Some(l) = labels {
                    assert_eq!(l.len(), m.rows(), "label count on {what}");
                }
            }
        }
    };

    for cut in 0..fr.len() {
        check(fr.truncated(cut), &format!("truncation at byte {cut}"));
    }
    for (i, garbled) in fr.garbage_runs(0xC5F, 96).iter().enumerate() {
        check(garbled, &format!("garbage run #{i}"));
    }
    std::fs::remove_file(&path).ok();
}

/// A fit outcome is sane when it is a typed error with a message, or a
/// model whose assignment covers every input point.
fn assert_fit_sane<M, E: std::fmt::Display>(
    outcome: std::thread::Result<Result<M, E>>,
    rows: usize,
    assignment_len: impl Fn(&M) -> usize,
    what: &str,
) {
    match outcome {
        Err(_) => panic!("fit panicked on {what}"),
        Ok(Err(e)) => assert!(!e.to_string().is_empty(), "empty error on {what}"),
        Ok(Ok(m)) => assert_eq!(assignment_len(&m), rows, "assignment len on {what}"),
    }
}

#[test]
fn proclus_fit_survives_adversarial_datasets() {
    for seed in [1u64, 2, 3] {
        for case in all_cases(seed) {
            let rows = case.points.rows();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                Proclus::new(case.k, case.l).seed(seed).fit(&case.points)
            }));
            assert_fit_sane(
                outcome,
                rows,
                |m: &ProclusModel| m.assignment().len(),
                &format!("proclus/{}/seed{seed}", case.name),
            );
        }
    }
}

#[test]
fn clique_fit_survives_adversarial_datasets() {
    for case in all_cases(4) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Clique::new(8, 0.05)
                .max_subspace_dim(Some(2))
                .fit(&case.points)
        }));
        match outcome {
            Err(_) => panic!("clique panicked on {}", case.name),
            Ok(Err(e)) => assert!(!e.to_string().is_empty(), "{}", case.name),
            Ok(Ok(m)) => assert_eq!(m.n(), case.points.rows(), "{}", case.name),
        }
    }
}

#[test]
fn baselines_fit_survives_adversarial_datasets() {
    for case in all_cases(5) {
        let rows = case.points.rows();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            KMeans::new(case.k).seed(9).fit(&case.points)
        }));
        assert_fit_sane(
            outcome,
            rows,
            |m: &proclus::baselines::FlatClustering| m.assignment.len(),
            &format!("kmeans/{}", case.name),
        );
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Clarans::new(case.k)
                .seed(9)
                .max_neighbor(30)
                .fit(&case.points)
        }));
        assert_fit_sane(
            outcome,
            rows,
            |m: &proclus::baselines::FlatClustering| m.assignment.len(),
            &format!("clarans/{}", case.name),
        );
    }
}

#[test]
fn orclus_fit_survives_adversarial_datasets() {
    for case in all_cases(6) {
        let rows = case.points.rows();
        let l = case.points.cols().min(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Orclus::new(case.k, l).seed(3).fit(&case.points)
        }));
        assert_fit_sane(
            outcome,
            rows,
            |m: &OrclusModel| m.assignment.len(),
            &format!("orclus/{}", case.name),
        );
    }
}

#[test]
fn decoded_faulted_payloads_that_parse_still_fit_safely() {
    // End-to-end: a corrupted payload that happens to decode must still
    // go through a full fit without panicking (NaN/Inf cells included).
    let data = sample_dataset();
    let bytes = encode(&data.points, None).expect("encode");
    let fr = FaultReader::new(bytes);
    let mut fitted = 0usize;
    for garbled in fr.garbage_runs(0xBEEF, 64) {
        let Ok((m, _)) = decode(&garbled) else {
            continue;
        };
        if m.rows() < 8 || m.cols() < 2 {
            continue;
        }
        let rows = m.rows();
        let outcome = catch_unwind(AssertUnwindSafe(|| Proclus::new(2, 2.0).seed(1).fit(&m)));
        assert_fit_sane(
            outcome,
            rows,
            |m: &ProclusModel| m.assignment().len(),
            "decoded garbage payload",
        );
        fitted += 1;
    }
    // Most garbage runs only corrupt the f64 payload, so plenty of
    // corrupted-but-decodable matrices must have reached the fit.
    assert!(fitted > 10, "only {fitted} corrupted payloads decoded");
}

// ---------------------------------------------------------------------
// Streaming ingest under chunk-level faults. The invariant is the
// streaming analogue of "typed error or valid value": a damaged chunk
// is quarantined (recorded in the diagnostics and the decision log),
// the live model keeps serving at its generation, and the very next
// clean batch is accepted — never a panic, never a poisoned server.
// ---------------------------------------------------------------------

fn stream_blob(center: f64, rows: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(rows * d);
    for _ in 0..rows {
        for _ in 0..d {
            data.push(center + rng.random_range(-1.0..1.0));
        }
    }
    Matrix::from_vec(data, rows, d)
}

/// A server bootstrapped to a live generation-1 model (two separated
/// blobs, d = 3), ready to have faulted chunk streams thrown at it.
fn bootstrapped_server<'a>(dir: &std::path::Path, rec: &'a NoopRecorder) -> StreamServer<'a> {
    let _ = std::fs::remove_dir_all(dir);
    let params = Proclus::new(2, 2.0).seed(3).restarts(1);
    let config = StreamConfig {
        window: 128,
        min_fit_points: 64,
        reservoir: 32,
        // Effectively undriftable: these scenarios are about ingest
        // faults, not rollovers.
        drift_threshold: 1e9,
        ..StreamConfig::default()
    };
    let (mut server, report) =
        StreamServer::new(params, config, GateConfig::default(), dir, rec).expect("server");
    assert!(report.is_clean());
    for i in 0..6u64 {
        let center = if i % 2 == 0 { 5.0 } else { 60.0 };
        server.ingest_batch(&stream_blob(center, 16, 3, 300 + i));
    }
    assert_eq!(server.live_generation(), Some(1), "bootstrap fit failed");
    server
}

/// Drive a chunk byte stream into the server: intact frames are
/// ingested, decode failures are quarantined. Returns how many frames
/// went each way.
fn drive_chunks(server: &mut StreamServer<'_>, bytes: &[u8]) -> (usize, usize) {
    let (mut ok, mut corrupt) = (0usize, 0usize);
    for frame in ChunkReader::new(bytes) {
        match frame {
            Ok(batch) => {
                server.ingest_batch(&batch);
                ok += 1;
            }
            Err(_) => {
                server.quarantine_corrupt();
                corrupt += 1;
            }
        }
    }
    (ok, corrupt)
}

/// After any fault sequence the server must still be serving the
/// bootstrap generation and must accept a clean batch.
fn assert_still_serving(server: &mut StreamServer<'_>, what: &str) {
    assert_eq!(
        server.live_generation(),
        Some(1),
        "generation moved on {what}"
    );
    let before = server.diagnostics().accepted_points;
    let report = server.ingest_batch(&stream_blob(5.0, 16, 3, 999));
    assert!(report.accepted, "clean batch rejected after {what}");
    assert_eq!(server.diagnostics().accepted_points, before + 16);
}

fn pristine_chunk_stream() -> Vec<u8> {
    let points = stream_blob(5.0, 64, 3, 41);
    encode_chunk_stream(&points, 16).expect("encode stream")
}

#[test]
fn stream_survives_truncated_chunk_streams() {
    let dir = tmp("stream-trunc");
    let rec = NoopRecorder;
    let mut server = bootstrapped_server(&dir, &rec);
    let bytes = pristine_chunk_stream();
    // Every 97th prefix: covers mid-header, mid-payload and
    // mid-checksum cuts of several frames.
    for cut in (0..bytes.len()).step_by(97) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            drive_chunks(&mut server, &bytes[..cut])
        }));
        assert!(outcome.is_ok(), "panic on truncation at byte {cut}");
    }
    assert!(
        server
            .diagnostics()
            .quarantined
            .iter()
            .any(|(_, r)| *r == "corrupt_chunk"),
        "no truncation was quarantined"
    );
    assert_still_serving(&mut server, "truncated chunk streams");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_survives_bit_flipped_chunks() {
    let dir = tmp("stream-flip");
    let rec = NoopRecorder;
    let mut server = bootstrapped_server(&dir, &rec);
    let bytes = pristine_chunk_stream();
    let fr = FaultReader::new(bytes);
    for (i, flipped) in fr.bit_flips().enumerate().step_by(89) {
        let outcome = catch_unwind(AssertUnwindSafe(|| drive_chunks(&mut server, &flipped)));
        assert!(outcome.is_ok(), "panic on bit flip #{i}");
    }
    // Payload flips break the checksum; the reader resyncs and the
    // batch is quarantined rather than silently ingested.
    assert!(
        server
            .diagnostics()
            .quarantined
            .iter()
            .any(|(_, r)| *r == "corrupt_chunk"),
        "no bit flip was quarantined"
    );
    assert_still_serving(&mut server, "bit-flipped chunks");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_survives_garbage_runs_in_chunks() {
    let dir = tmp("stream-garbage");
    let rec = NoopRecorder;
    let mut server = bootstrapped_server(&dir, &rec);
    let fr = FaultReader::new(pristine_chunk_stream());
    for (i, garbled) in fr.garbage_runs(0x5EED, 48).iter().enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| drive_chunks(&mut server, garbled)));
        assert!(outcome.is_ok(), "panic on garbage run #{i}");
    }
    assert!(!server.diagnostics().quarantined.is_empty());
    assert_still_serving(&mut server, "garbage runs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_quarantines_flipped_checksum_but_resyncs_to_next_frame() {
    let dir = tmp("stream-cksum");
    let rec = NoopRecorder;
    let mut server = bootstrapped_server(&dir, &rec);
    let mut bytes = pristine_chunk_stream();
    // Flip one checksum byte of the FIRST frame only: its batch must be
    // quarantined while the remaining three frames still ingest.
    let frame_len = encode_chunk(&stream_blob(5.0, 16, 3, 41))
        .expect("frame")
        .len();
    bytes[frame_len - 1] ^= 0xFF;
    let (ok, corrupt) = drive_chunks(&mut server, &bytes);
    assert_eq!(
        (ok, corrupt),
        (3, 1),
        "reader failed to resync past the bad frame"
    );
    assert_eq!(
        server.diagnostics().quarantined.last().map(|(_, r)| *r),
        Some("corrupt_chunk")
    );
    assert_still_serving(&mut server, "flipped checksum");
    std::fs::remove_dir_all(&dir).ok();
}

/// A checksum failure invalidates the frame's own length field, so the
/// reader must not skip by it — and a stray `b"PRCK"` in a payload
/// must not fool the scan either. Frame 1 gets its row count shrunk
/// (so the announced length points mid-payload) *and* carries payload
/// cells whose little-endian bytes spell a plausible chunk header;
/// only full frame validation (checksum included) finds frames 2-3.
#[test]
fn length_corrupted_chunk_with_decoy_magic_resyncs_to_true_frames() {
    let decoy = f64::from_le_bytes(*b"PRCK\x01\x02\x00\x00");
    let b1 = Matrix::from_rows(&[[decoy, 1.5], [2.5, decoy]], 2);
    let b2 = Matrix::from_rows(&[[7.0, 8.0], [9.0, 10.0]], 2);
    let b3 = Matrix::from_rows(&[[11.0, 12.0]], 2);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&encode_chunk(&b1).expect("frame 1"));
    bytes.extend_from_slice(&encode_chunk(&b2).expect("frame 2"));
    bytes.extend_from_slice(&encode_chunk(&b3).expect("frame 3"));
    // Shrink frame 1's row count 2 → 1: checksum now fails and the
    // header announces a frame ending mid-payload.
    bytes[5..9].copy_from_slice(&1u32.to_le_bytes());
    let results: Vec<_> = ChunkReader::new(&bytes).collect();
    assert_eq!(results.len(), 3, "expected 1 error + 2 recovered chunks");
    let err = results[0].as_ref().expect_err("frame 1 must fail");
    assert!(err.to_string().contains("checksum"), "{err}");
    assert_eq!(results[1].as_ref().expect("frame 2"), &b2);
    assert_eq!(results[2].as_ref().expect("frame 3"), &b3);
}

#[test]
fn stream_quarantines_decodable_but_malformed_batches() {
    let dir = tmp("stream-malformed");
    let rec = NoopRecorder;
    let mut server = bootstrapped_server(&dir, &rec);

    // A frame that decodes fine but carries a NaN cell: the chunk layer
    // passes it through (checksums protect bytes, not semantics) and
    // the server's ingest validation quarantines it.
    let mut nan_batch = stream_blob(5.0, 8, 3, 77);
    nan_batch.set(2, 1, f64::NAN);
    let nan_frame = encode_chunk(&nan_batch).expect("nan frame");
    let (ok, corrupt) = drive_chunks(&mut server, &nan_frame);
    assert_eq!((ok, corrupt), (1, 0));
    assert_eq!(
        server.diagnostics().quarantined.last().map(|(_, r)| *r),
        Some("non_finite")
    );

    // A frame with the wrong dimensionality (d = 2 against a d = 3
    // server) is likewise quarantined, not fatal.
    let wrong = encode_chunk(&stream_blob(5.0, 8, 2, 78)).expect("2d frame");
    drive_chunks(&mut server, &wrong);
    assert_eq!(
        server.diagnostics().quarantined.last().map(|(_, r)| *r),
        Some("dimension_mismatch")
    );

    // An empty stream contributes nothing and breaks nothing.
    let (ok, corrupt) = drive_chunks(&mut server, &[]);
    assert_eq!((ok, corrupt), (0, 0));

    assert_still_serving(&mut server, "malformed-but-decodable batches");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Seeded, structure-aware fuzzing of the HTTP request parser
// ---------------------------------------------------------------------

/// Valid requests the fuzz loop mutates: CRLF and bare-LF framing, a
/// body, `Expect`, `Connection` and both protocol versions.
const HTTP_SEEDS: [&[u8]; 5] = [
    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    b"POST /v1/assign HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
    b"POST /v1/fit HTTP/1.1\r\nContent-Length: 13\r\nExpect: 100-continue\r\n\r\n{\"k\":3,\"l\":2}",
    b"POST /v1/datasets/d HTTP/1.0\nContent-Length: 7\nConnection: keep-alive\n\n1,2\n3,4",
    b"GET /v1/jobs/job-000001 HTTP/1.1\r\nConnection: close\r\nAccept: */*\r\n\r\n",
];

/// Fuzz cases per run: under half a second in a debug build.
const HTTP_FUZZ_CASES: usize = 50_000;

/// Byte ranges of the lines the parser reads as the request line and
/// the header block (up to, not including, the first empty line), each
/// with its `\n`.
fn head_lines(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut lines = Vec::new();
    let mut lo = 0;
    while let Some(nl) = bytes[lo..].iter().position(|&b| b == b'\n') {
        let hi = lo + nl + 1;
        if matches!(&bytes[lo..hi], b"\n" | b"\r\n") {
            break;
        }
        lines.push((lo, hi));
        lo = hi;
    }
    lines
}

/// Copy one header line to another place in the header block. A copied
/// `Content-Length` gets a different value half the time; returns
/// whether it did, i.e. whether the block now holds two conflicting
/// lengths.
fn duplicate_header(bytes: &mut Vec<u8>, rng: &mut StdRng) -> bool {
    let lines = head_lines(bytes);
    if lines.len() < 2 {
        return false;
    }
    let (lo, hi) = lines[rng.random_range(1..lines.len())];
    let mut copy = bytes[lo..hi].to_vec();
    let mut conflict = false;
    if copy.to_ascii_lowercase().starts_with(b"content-length:") && rng.random_bool(0.5) {
        let old = String::from_utf8_lossy(&copy[15..]).trim().to_string();
        if let Ok(n) = old.parse::<usize>() {
            let other = n + rng.random_range(1..20usize);
            copy = format!("Content-Length: {other}\r\n").into_bytes();
            conflict = true;
        }
    }
    let at = lines[rng.random_range(1..lines.len())].0;
    bytes.splice(at..at, copy);
    conflict
}

/// Mutated valid requests — truncated, spliced with another request,
/// byte-flipped, header lines duplicated — never panic the parser. An
/// accepted request's body is exactly its one `Content-Length` long,
/// and a rejection is an I/O error or carries a status.
#[test]
fn http_parser_survives_structure_aware_fuzzing() {
    use proclus::serve::http::{read_request, ParseError};

    let mut rng = StdRng::seed_from_u64(0x4854_5450);
    let (mut accepted, mut conflicts) = (0usize, 0usize);
    for case in 0..HTTP_FUZZ_CASES {
        let mut bytes = HTTP_SEEDS[rng.random_range(0..HTTP_SEEDS.len())].to_vec();
        // Whether the last mutation left two different lengths behind.
        let mut conflict = false;
        for _ in 0..rng.random_range(1..=3usize) {
            conflict = match rng.random_range(0..4u32) {
                0 => {
                    bytes.truncate(rng.random_range(0..=bytes.len()));
                    false
                }
                1 => {
                    let other = HTTP_SEEDS[rng.random_range(0..HTTP_SEEDS.len())];
                    bytes.truncate(rng.random_range(0..=bytes.len()));
                    bytes.extend_from_slice(&other[rng.random_range(0..=other.len())..]);
                    false
                }
                2 => {
                    for _ in 0..rng.random_range(1..=4usize) {
                        if !bytes.is_empty() {
                            let i = rng.random_range(0..bytes.len());
                            bytes[i] ^= 1 << rng.random_range(0..8u32);
                        }
                    }
                    false
                }
                _ => duplicate_header(&mut bytes, &mut rng),
            };
        }
        let mut interim = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            read_request(&mut bytes.as_slice(), &mut interim)
        }));
        let ctx = format!("case {case}: {:?}", String::from_utf8_lossy(&bytes));
        match outcome {
            Err(_) => panic!("read_request panicked on {ctx}"),
            Ok(Ok(None)) => assert!(bytes.is_empty(), "{ctx}: EOF on a non-empty input"),
            Ok(Ok(Some(req))) => {
                assert!(!conflict, "{ctx}: conflicting Content-Length accepted");
                let mut lengths: Vec<usize> = req
                    .headers
                    .iter()
                    .filter(|(n, _)| n == "content-length")
                    .map(|(_, v)| v.parse().unwrap_or_else(|_| panic!("{ctx}: length {v:?}")))
                    .collect();
                lengths.dedup();
                let framed = match lengths[..] {
                    [] => 0,
                    [n] => n,
                    _ => panic!("{ctx}: accepted lengths {lengths:?}"),
                };
                assert_eq!(req.body.len(), framed, "{ctx}: body length");
                accepted += 1;
            }
            Ok(Err(e)) => {
                assert!(
                    matches!(e, ParseError::Io(_)) || matches!(e.status(), Some(400 | 413 | 501)),
                    "{ctx}: {e:?} has no status"
                );
                conflicts += usize::from(conflict);
            }
        }
    }
    // The budget must reach both sides of the parser.
    assert!(accepted > 1_000, "only {accepted} requests accepted");
    assert!(
        conflicts > 100,
        "only {conflicts} conflicting lengths rejected"
    );
}

// ---------------------------------------------------------------------
// Seeded, structure-aware fuzzing of the `.scn` grammar and PRCM models
// ---------------------------------------------------------------------

/// Fuzz cases per run of the two loops below: under two seconds each
/// in a debug build.
const SCN_FUZZ_CASES: usize = 40_000;
const PRCM_FUZZ_CASES: usize = 50_000;

/// Accepted specs of at most this many cells are also generated.
const SCN_GENERATE_CELLS: usize = 4_096;

/// Values a mutation writes in place of a `.scn` value: the bounds of
/// every numeric type the grammar reads, non-finite spellings, and a
/// few small sizes so mutated specs still reach the generator.
const SCN_EDGE_TOKENS: [&str; 24] = [
    "0",
    "1",
    "2",
    "3",
    "7",
    "60",
    "-1",
    "-0",
    "0.5",
    "1.5",
    "nan",
    "inf",
    "-inf",
    "1e308",
    "-1e308",
    "1e307",
    "1e-308",
    "4294967296",
    "9223372036854775807",
    "18446744073709551615",
    "18446744073709551616",
    "on",
    "fixed",
    "x",
];

/// Keys a mutation inserts, with one unknown key.
const SCN_KEYS: [&str; 17] = [
    "scenario",
    "rows",
    "dims",
    "clusters",
    "cluster-dims",
    "outliers",
    "domain",
    "spread",
    "scale-max",
    "min-size-ratio",
    "seed",
    "distribution",
    "size-law",
    "rotate",
    "column",
    "epoch",
    "warp",
];

/// Every `.scn` the repository ships: the scenario zoo and the
/// end-to-end workloads.
fn scn_seeds() -> Vec<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seeds = Vec::new();
    for dir in ["scenarios", "e2e-bench/workloads"] {
        let mut paths: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "scn"))
            .collect();
        paths.sort();
        seeds.extend(paths.iter().map(|p| std::fs::read_to_string(p).unwrap()));
    }
    seeds
}

/// One line-level mutation: duplicate a line, delete one, replace one
/// of its values with an edge token, or insert a key line.
fn mutate_scn(lines: &mut Vec<String>, rng: &mut StdRng) {
    let token = |rng: &mut StdRng| SCN_EDGE_TOKENS[rng.random_range(0..SCN_EDGE_TOKENS.len())];
    let at = rng.random_range(0..=lines.len());
    match rng.random_range(0..4u32) {
        0 if !lines.is_empty() => {
            let copy = lines[rng.random_range(0..lines.len())].clone();
            lines.insert(at, copy);
        }
        1 if !lines.is_empty() => {
            lines.remove(at.min(lines.len() - 1));
        }
        2 if !lines.is_empty() => {
            let i = at.min(lines.len() - 1);
            let mut toks: Vec<String> = lines[i].split_whitespace().map(String::from).collect();
            if toks.len() > 1 {
                let j = rng.random_range(1..toks.len());
                toks[j] = token(rng).to_string();
            } else {
                toks.push(token(rng).to_string());
            }
            lines[i] = toks.join(" ");
        }
        _ => {
            let key = SCN_KEYS[rng.random_range(0..SCN_KEYS.len())];
            let values: Vec<&str> = (0..rng.random_range(0..=3usize))
                .map(|_| token(rng))
                .collect();
            lines.insert(at, format!("{key} {}", values.join(" ")));
        }
    }
}

/// Mutated `.scn` files never panic the parser or the generator. A
/// rejection names an existing line, or, when it is about the spec as
/// a whole (a missing `scenario` line, a failed `validate`), comes
/// only after every line was read: the same text with an unknown key
/// appended then fails at that appended line. An accepted spec
/// round-trips through its canonical text, and a small one generates
/// finite rows or fails with a typed error.
#[test]
fn scn_parser_survives_structure_aware_fuzzing() {
    let seeds = scn_seeds();
    assert!(seeds.len() >= 17, "only {} .scn seeds", seeds.len());
    let mut rng = StdRng::seed_from_u64(0x5343_4e46);
    let (mut accepted, mut located, mut whole, mut generated) = (0usize, 0, 0, 0);
    for case in 0..SCN_FUZZ_CASES {
        let seed = &seeds[rng.random_range(0..seeds.len())];
        let mut lines: Vec<String> = seed.lines().map(String::from).collect();
        for _ in 0..rng.random_range(1..=3usize) {
            mutate_scn(&mut lines, &mut rng);
        }
        let mut text = lines.join("\n");
        text.push('\n');
        let ctx = format!("case {case}: {text:?}");
        let parse = |text: &str| {
            catch_unwind(AssertUnwindSafe(|| ScenarioSpec::parse(text)))
                .unwrap_or_else(|_| panic!("parse panicked on {ctx}"))
        };
        let spec = match parse(&text) {
            Ok(spec) => spec,
            Err(DataError::InvalidSpec(msg)) => {
                let appended = parse(&format!("{text}bogus-key 1\n"));
                let Err(DataError::InvalidSpec(after)) = appended else {
                    panic!("{ctx}: appending a line changed {msg:?} into {appended:?}");
                };
                let line_of = |m: &str| {
                    m.strip_prefix("line ")
                        .and_then(|rest| rest.split_once(": "))
                        .and_then(|(n, _)| n.parse::<usize>().ok())
                };
                match line_of(&msg) {
                    Some(n) => {
                        assert!((1..=lines.len()).contains(&n), "{ctx}: {msg}");
                        assert_eq!(after, msg, "{ctx}");
                        located += 1;
                    }
                    None => {
                        assert_eq!(line_of(&after), Some(lines.len() + 1), "{ctx}: {msg}");
                        whole += 1;
                    }
                }
                continue;
            }
            Err(other) => panic!("{ctx}: untyped rejection {other:?}"),
        };
        accepted += 1;
        let canonical = spec.to_canonical();
        assert_eq!(parse(&canonical).as_ref().ok(), Some(&spec), "{ctx}");
        if spec.rows().saturating_mul(spec.cols()) > SCN_GENERATE_CELLS {
            continue;
        }
        match catch_unwind(AssertUnwindSafe(|| spec.generate())) {
            Err(_) => panic!("generate panicked on {ctx}"),
            Ok(Ok(g)) => {
                assert_eq!(g.points.rows(), spec.rows(), "{ctx}");
                assert!(g.points.as_slice().iter().all(|v| v.is_finite()), "{ctx}");
                generated += 1;
            }
            Ok(Err(e)) => assert!(matches!(e, DataError::InvalidSpec(_)), "{ctx}: {e}"),
        }
    }
    // The budget must reach every side of the parser and the generator.
    assert!(accepted > 5_000, "only {accepted} specs accepted");
    assert!(located > 10_000, "only {located} line-level rejections");
    assert!(whole > 1_000, "only {whole} whole-spec rejections");
    assert!(generated > 500, "only {generated} specs generated");
}

/// Set a random aligned 4- or 8-byte field of `body` to a boundary
/// value, so header counts, lengths and dimension indices take the
/// values the decoder must bound.
fn overwrite_field(body: &mut [u8], rng: &mut StdRng) {
    let wide = rng.random_bool(0.5);
    let width = if wide { 8 } else { 4 };
    if body.len() < width {
        return;
    }
    let at = rng.random_range(0..=body.len() - width);
    let value: u64 = match rng.random_range(0..6u32) {
        0 => 0,
        1 => 1,
        2 => rng.random_range(2..64),
        3 if wide => u64::MAX,
        3 => u64::from(u32::MAX),
        4 => f64::NAN.to_bits(),
        _ => 1 << rng.random_range(0..width as u32 * 8),
    };
    body[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
}

/// Mutated `PRCM` models never panic the decoder, nor the scans of a
/// model it accepts. Each mutation rewrites the FNV-1a trailer, so it
/// reaches the structural checks behind the checksum. An accepted
/// model assigns and classifies a batch of its own width to clusters
/// it has.
#[test]
fn prcm_decoder_survives_structure_aware_fuzzing() {
    use proclus::core::{decode_model, encode_model};
    use proclus::math::hash::fnv1a64;

    let data = sample_dataset();
    let seeds: Vec<Vec<u8>> = [
        DistanceKind::Manhattan,
        DistanceKind::Euclidean,
        DistanceKind::Chebyshev,
    ]
    .into_iter()
    .map(|metric| {
        let model = Proclus::new(2, 2.0)
            .seed(3)
            .distance(metric)
            .fit(&data.points)
            .unwrap();
        encode_model(&model)
    })
    .collect();
    let mut rng = StdRng::seed_from_u64(0x5052_434d);
    let (mut accepted, mut assigned) = (0usize, 0usize);
    for case in 0..PRCM_FUZZ_CASES {
        let seed = &seeds[rng.random_range(0..seeds.len())];
        let mut body = seed[..seed.len() - 8].to_vec();
        for _ in 0..rng.random_range(1..=3usize) {
            match rng.random_range(0..5u32) {
                0 => overwrite_field(&mut body, &mut rng),
                1 if !body.is_empty() => {
                    let i = rng.random_range(0..body.len());
                    body[i] ^= 1 << rng.random_range(0..8u32);
                }
                2 => body.truncate(rng.random_range(0..=body.len())),
                3 if !body.is_empty() => {
                    let lo = rng.random_range(0..body.len());
                    let hi = rng.random_range(lo..=body.len().min(lo + 64));
                    let at = rng.random_range(0..=body.len());
                    let span = body[lo..hi].to_vec();
                    body.splice(at..at, span);
                }
                _ if !body.is_empty() => {
                    let lo = rng.random_range(0..body.len());
                    let hi = rng.random_range(lo..=body.len().min(lo + 64));
                    body.drain(lo..hi);
                }
                _ => {}
            }
        }
        let mut bytes = body.clone();
        bytes.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        let ctx = format!("case {case}");
        let model = match catch_unwind(AssertUnwindSafe(|| decode_model(&bytes))) {
            Err(_) => panic!("decode_model panicked on {ctx}: {bytes:?}"),
            Ok(Err(e)) => {
                assert!(!e.to_string().is_empty(), "{ctx}: empty error");
                continue;
            }
            Ok(Ok(model)) => model,
        };
        accepted += 1;
        let (k, d) = (model.clusters().len(), model.dimensionality());
        // A model without clusters may claim any width; its batch is
        // empty so the claim allocates nothing.
        let rows = if k == 0 { 0 } else { 4 };
        let values = (0..rows * d)
            .map(|_| match rng.random_range(0..8u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => rng.random_range(-10.0..10.0),
            })
            .collect();
        let batch = Matrix::from_vec(values, rows, d);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            (model.assign_batch(&batch), model.classify_batch(&batch))
        }));
        let Ok((assign, classify)) = outcome else {
            panic!("a decoded model's scan panicked on {ctx}: {bytes:?}");
        };
        match (assign, classify) {
            (Ok(labels), Ok(classes)) => {
                assert_eq!(labels.len(), rows, "{ctx}");
                assert!(labels.iter().all(|&c| c < k), "{ctx}: {labels:?}");
                assert_eq!(classes.len(), rows, "{ctx}");
                assert!(classes.iter().flatten().all(|&c| c < k), "{ctx}");
                assigned += 1;
            }
            (Err(_), Err(_)) => assert_eq!(k, 0, "{ctx}: rejected a batch of its own width"),
            other => panic!("{ctx}: assign and classify disagree: {other:?}"),
        }
    }
    // The budget must get past the structural checks.
    assert!(accepted > 1_000, "only {accepted} models decoded");
    assert!(assigned > 1_000, "only {assigned} decoded models assigned");
}

// ---------------------------------------------------------------------
// Protocol fault injection: the resident server under wire-level abuse
// ---------------------------------------------------------------------
//
// Same invariant as every other decoder in this file — typed error or
// valid value, never a panic — lifted to the HTTP layer: every fault
// ends with the right status (or a silently dropped connection, when
// there is nothing left to answer), and the server keeps serving.

mod serve_faults {
    use proclus::obs::NoopRecorder;
    use proclus::serve::{start, ServeConfig, ServerHandle};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    fn server(tag: &str) -> ServerHandle {
        let dir =
            std::env::temp_dir().join(format!("proclus-rb-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        start(
            "127.0.0.1:0",
            ServeConfig {
                registry_dir: dir,
                queue_capacity: 2,
                threads: 1,
            },
            Arc::new(NoopRecorder),
        )
        .expect("bind")
    }

    /// Send raw bytes, read whatever comes back until EOF. A dropped
    /// connection yields an empty (or truncated) response — that is a
    /// legal outcome for faults the server cannot answer.
    fn exchange(addr: SocketAddr, raw: &[u8]) -> Vec<u8> {
        let mut s = TcpStream::connect(addr).expect("connect");
        let _ = s.write_all(raw);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        out
    }

    /// The liveness probe run after every fault: the server must still
    /// answer a clean health check.
    fn assert_still_serving(addr: SocketAddr, after: &str) {
        let resp = exchange(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let text = String::from_utf8_lossy(&resp);
        assert!(
            text.starts_with("HTTP/1.1 200 OK"),
            "server stopped serving after {after}: {text:?}"
        );
    }

    fn status_of(resp: &[u8]) -> String {
        String::from_utf8_lossy(resp)
            .lines()
            .next()
            .unwrap_or_default()
            .to_string()
    }

    /// Send a torn request and half-close, so the server observes EOF
    /// (not a 30 s read timeout) exactly as a crashed client looks.
    fn send_torn(addr: SocketAddr, raw: &[u8]) {
        let mut s = TcpStream::connect(addr).expect("connect");
        let _ = s.write_all(raw);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
    }

    #[test]
    fn torn_and_partial_requests_never_kill_the_server() {
        let server = server("torn");
        let addr = server.addr();
        // Torn at every interesting boundary of a valid request.
        let full = b"POST /v1/assign HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in [3, 10, 24, 30, 44, 46, full.len() - 2] {
            send_torn(addr, &full[..cut]);
            assert_still_serving(addr, &format!("request torn at byte {cut}"));
        }
        server.shutdown();
    }

    #[test]
    fn oversized_content_length_is_413_before_allocation() {
        let server = server("oversize");
        let addr = server.addr();
        // 10 GiB promised, zero bytes sent: the bound check must fire
        // on the header alone, never waiting for (or allocating) the
        // body.
        let resp = exchange(
            addr,
            b"POST /v1/assign HTTP/1.1\r\nContent-Length: 10737418240\r\n\r\n",
        );
        assert!(
            status_of(&resp).starts_with("HTTP/1.1 413"),
            "{}",
            status_of(&resp)
        );
        assert_still_serving(addr, "an oversized Content-Length");
        server.shutdown();
    }

    #[test]
    fn garbage_bytes_get_400_and_a_closed_connection() {
        let server = server("garbage");
        let addr = server.addr();
        let cases: &[&[u8]] = &[
            b"\x00\x01\x02\x03\r\n\r\n",
            b"lowercase verbs are not http\r\n\r\n",
            b"GET no-leading-slash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nheader without colon\r\n\r\n",
            b"POST /v1/fit HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        ];
        for (i, raw) in cases.iter().enumerate() {
            let resp = exchange(addr, raw);
            assert!(
                status_of(&resp).starts_with("HTTP/1.1 400"),
                "case {i}: {}",
                status_of(&resp)
            );
            assert_still_serving(addr, &format!("garbage case {i}"));
        }
        // Transfer-Encoding is unimplemented by design: 501, not 400.
        let resp = exchange(
            addr,
            b"POST /v1/fit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        );
        assert!(
            status_of(&resp).starts_with("HTTP/1.1 501"),
            "{}",
            status_of(&resp)
        );
        assert_still_serving(addr, "a chunked request");
        server.shutdown();
    }

    #[test]
    fn premature_disconnect_mid_body_is_survived() {
        let server = server("disconnect");
        let addr = server.addr();
        for sent in [0usize, 1, 50] {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"POST /v1/datasets/x HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
                .expect("headers");
            s.write_all(&vec![b'a'; sent]).expect("partial body");
            drop(s); // walk away mid-body
            assert_still_serving(addr, &format!("disconnect after {sent}/100 body bytes"));
        }
        server.shutdown();
    }

    #[test]
    fn malformed_upload_bodies_are_400_not_fatal() {
        let server = server("bad-upload");
        let addr = server.addr();
        // Correctly framed HTTP, hostile payloads: CSV garbage, a
        // truncated PRCL header, a PRCK frame cut mid-stream. Every
        // one must be a clean 400 through the decoder's typed-error
        // path.
        let bodies: &[&[u8]] = &[
            b"1.0,2.0\nnot,a,number\n",
            b"PRCL\x01",
            b"PRCKtruncated-frame",
            b"",
        ];
        for (i, body) in bodies.iter().enumerate() {
            let mut raw = format!(
                "POST /v1/datasets/d{i} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            raw.extend_from_slice(body);
            let resp = exchange(addr, &raw);
            assert!(
                status_of(&resp).starts_with("HTTP/1.1 400"),
                "upload case {i}: {}",
                status_of(&resp)
            );
            assert_still_serving(addr, &format!("malformed upload {i}"));
        }
        // And none of the rejects left a phantom dataset behind.
        let resp = exchange(
            addr,
            b"GET /v1/datasets HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let text = String::from_utf8_lossy(&resp);
        assert!(text.contains("{\"datasets\":[]}"), "{text}");
        server.shutdown();
    }

    /// A client that pipelines requests and never reads a reply fills
    /// both socket buffers, so its handler blocks mid-write. Shutdown
    /// joins every handler; the write timeout must let it drain anyway
    /// (within the 30 s timeout plus slack, not never).
    #[test]
    fn non_reading_client_cannot_stop_the_server_from_draining() {
        let server = server("noread");
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        // Once the server stalls it stops reading too; give up on the
        // rest of the burst instead of blocking the test.
        s.set_write_timeout(Some(Duration::from_secs(2)))
            .expect("write timeout");
        // Tens of MB of replies: far more than the socket buffers hold.
        let burst = b"GET /healthz HTTP/1.1\r\n\r\n".repeat(200_000);
        let _ = s.write_all(&burst);
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(());
        });
        let drained = done_rx.recv_timeout(Duration::from_secs(75));
        drop(s);
        assert!(
            drained.is_ok(),
            "shutdown hung behind a client that never reads its replies"
        );
    }
}
