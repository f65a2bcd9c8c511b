//! Request routing: URL space, JSON rendering, and the per-request
//! observability hooks.
//!
//! ```text
//! GET  /healthz                liveness + serving generation
//! POST /v1/datasets/{name}     upload (CSV, PRCL binary, or PRCK chunks)
//! GET  /v1/datasets            list uploads
//! POST /v1/fit                 queue a fit job (202, or 429 when full)
//! GET  /v1/jobs                job table
//! GET  /v1/jobs/{id}           one job
//! GET  /v1/models              registry generations + CURRENT
//! GET  /v1/models/{gen}        one generation's metadata
//! POST /v1/assign              AssignPoints over the serving model
//! POST /v1/classify            sphere-of-influence classification
//! POST /v1/shutdown            begin draining
//! ```
//!
//! Every response is JSON; assignment responses additionally carry the
//! serving generation in an `X-Proclus-Generation` header. Responses
//! are rendered with fixed field order and no clock-dependent content,
//! so a request replayed against the same model produces byte-identical
//! wire bytes — the offline determinism contract, extended to HTTP.

use proclus_data::chunks::{ChunkReader, CHUNK_MAGIC};
use proclus_data::{binio, io as data_io};
use proclus_math::Matrix;
use proclus_obs::{json, Counter, Event};
use std::path::Path;

use crate::error::{status_for_data, status_for_fit, status_for_registry};
use crate::http::{Request, Response};
use crate::state::{AppState, FitParams, JobRecord, JobState, SubmitError};

/// Handle one parsed request, recording the request event and status
/// counters on the way out.
pub fn handle(state: &AppState, req: &Request) -> Response {
    let (endpoint, resp) = route(state, req);
    let rec = state.recorder();
    rec.event(&Event::ServeRequest {
        endpoint,
        status: resp.status,
    });
    rec.counter(Counter::ServeRequests, 1);
    match resp.status {
        400..=499 => rec.counter(Counter::ServeStatus4xx, 1),
        500..=599 => rec.counter(Counter::ServeStatus5xx, 1),
        _ => {}
    }
    resp
}

/// An endpoint body: the state, the request, and the rest of the path
/// after a prefix route's trailing `/` (empty for an exact route).
type Handler = fn(&AppState, &Request, &str) -> Response;

/// The URL space, one row per endpoint: method, path, the endpoint's
/// name in [`proclus_obs::event::SERVE_ENDPOINTS`], and its body. A path
/// ending in `/` is a prefix whose remainder names the resource; no
/// request path matches two rows.
const ROUTES: [(&str, &str, &str, Handler); 11] = [
    ("GET", "/healthz", "health", |s, _, _| health(s)),
    ("POST", "/v1/datasets/", "upload", |s, r, name| {
        upload(s, name, &r.body)
    }),
    ("GET", "/v1/datasets", "datasets", |s, _, _| {
        list_datasets(s)
    }),
    ("POST", "/v1/fit", "fit", |s, r, _| submit_fit(s, r)),
    ("GET", "/v1/jobs", "jobs", |s, _, _| list_jobs(s)),
    ("GET", "/v1/jobs/", "job", |s, _, id| job(s, id)),
    ("GET", "/v1/models", "models", |s, _, _| list_models(s)),
    ("GET", "/v1/models/", "model", |s, _, generation| {
        model(s, generation)
    }),
    ("POST", "/v1/assign", "assign", |s, r, _| {
        assign(s, r, false)
    }),
    ("POST", "/v1/classify", "classify", |s, r, _| {
        assign(s, r, true)
    }),
    ("POST", "/v1/shutdown", "shutdown", |s, _, _| shutdown(s)),
];

fn route(state: &AppState, req: &Request) -> (&'static str, Response) {
    let path = req.path.as_str();
    for (method, route, endpoint, run) in ROUTES {
        let rest = if route.ends_with('/') {
            path.strip_prefix(route)
        } else {
            (path == route).then_some("")
        };
        let Some(rest) = rest else { continue };
        if req.method != method {
            let message = format!("{} is not valid for {path}; use {method}", req.method);
            return (endpoint, Response::error(405, &message));
        }
        return (endpoint, run(state, req, rest));
    }
    (
        "unknown",
        Response::error(404, &format!("no route for {path}")),
    )
}

// -- endpoint implementations ------------------------------------------

fn health(state: &AppState) -> Response {
    let generation = match state.serving_model() {
        Ok(Some((g, _))) => g.to_string(),
        Ok(None) => "null".to_string(),
        Err(e) => return Response::error(status_for_registry(&e), &e.to_string()),
    };
    let draining = state.is_draining();
    Response::json(
        200,
        format!("{{\"status\":\"ok\",\"draining\":{draining},\"generation\":{generation}}}\n"),
    )
}

/// Decode an upload body by sniffing its leading magic: `PRCL` is the
/// validated binary matrix, `PRCK` a chunk stream, anything else CSV.
fn decode_points(body: &[u8]) -> Result<Matrix, Response> {
    if body.is_empty() {
        return Err(Response::error(400, "empty body: expected points"));
    }
    if body.starts_with(binio::MAGIC) {
        let (points, _labels) = binio::decode(body)
            .map_err(|e| Response::error(status_for_data(&e), &e.to_string()))?;
        return Ok(points);
    }
    if body.starts_with(CHUNK_MAGIC) {
        let mut data: Vec<f64> = Vec::new();
        let mut rows = 0usize;
        let mut cols: Option<usize> = None;
        for chunk in ChunkReader::new(body) {
            let chunk = chunk.map_err(|e| Response::error(status_for_data(&e), &e.to_string()))?;
            match cols {
                None => cols = Some(chunk.cols()),
                Some(c) if c != chunk.cols() => {
                    return Err(Response::error(
                        400,
                        &format!("chunk width changed from {c} to {}", chunk.cols()),
                    ))
                }
                Some(_) => {}
            }
            rows += chunk.rows();
            data.extend_from_slice(chunk.as_slice());
        }
        let Some(cols) = cols else {
            return Err(Response::error(400, "chunk stream held no chunks"));
        };
        return Ok(Matrix::from_vec(data, rows, cols));
    }
    let (points, _labels) = data_io::read_csv_bytes(Path::new("<upload>"), body)
        .map_err(|e| Response::error(status_for_data(&e), &e.to_string()))?;
    Ok(points)
}

fn valid_dataset_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

fn upload(state: &AppState, name: &str, body: &[u8]) -> Response {
    if !valid_dataset_name(name) {
        return Response::error(400, &format!("invalid dataset name {name:?}"));
    }
    let points = match decode_points(body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    if points.rows() == 0 {
        return Response::error(400, "dataset has no rows");
    }
    let (rows, cols) = state.put_dataset(name, points);
    let mut out = String::new();
    out.push_str("{\"dataset\":");
    json::write_str(&mut out, name);
    out.push_str(&format!(",\"rows\":{rows},\"cols\":{cols}}}\n"));
    Response::json(201, out)
}

fn list_datasets(state: &AppState) -> Response {
    let mut out = String::from("{\"datasets\":[");
    for (i, (name, rows, cols)) in state.list_datasets().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_str(&mut out, &name);
        out.push_str(&format!(",\"rows\":{rows},\"cols\":{cols}}}"));
    }
    out.push_str("]}\n");
    Response::json(200, out)
}

fn submit_fit(state: &AppState, req: &Request) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "fit body is not UTF-8 JSON"),
    };
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("fit body is not JSON: {e}")),
    };
    let Some(dataset) = parsed.get("dataset").and_then(|v| v.as_str()) else {
        return Response::error(400, "fit body needs a string \"dataset\"");
    };
    let Some(k) = parsed.get("k").and_then(|v| v.as_usize()) else {
        return Response::error(400, "fit body needs an integer \"k\"");
    };
    // A JSON number only: `as_f64` would also read the writer's
    // non-finite marker strings ("nan", "inf", "-inf").
    let l = match parsed.get("l") {
        Some(&json::Json::Int(x)) => x as f64,
        Some(&json::Json::Num(v)) if v.is_finite() => v,
        _ => return Response::error(400, "fit body needs a finite number \"l\""),
    };
    let seed = match parsed.get("seed") {
        None => 0,
        Some(v) => match v.as_u64() {
            Some(s) => s,
            None => return Response::error(400, "\"seed\" must be an integer in 0..2^64"),
        },
    };
    let restarts = match parsed.get("restarts") {
        None => 1,
        Some(v) => match v.as_usize() {
            Some(r) if r > 0 => r,
            _ => return Response::error(400, "\"restarts\" must be a positive integer"),
        },
    };
    let params = FitParams {
        k,
        l,
        seed,
        restarts,
    };
    match state.submit_fit(dataset, params) {
        Ok(id) => {
            let mut out = String::from("{\"job\":");
            json::write_str(&mut out, &id);
            out.push_str(",\"state\":\"queued\"}\n");
            Response::json(202, out)
        }
        Err(SubmitError::QueueFull) => Response::error(
            429,
            &format!(
                "fit queue is full ({} jobs); retry after polling /v1/jobs",
                state.config().queue_capacity
            ),
        ),
        Err(SubmitError::ShuttingDown) => {
            Response::error(503, "server is draining; no new jobs accepted")
        }
        Err(SubmitError::UnknownDataset(name)) => {
            Response::error(404, &format!("dataset {name:?} has not been uploaded"))
        }
    }
}

fn render_job(out: &mut String, job: &JobRecord) {
    out.push_str("{\"job\":");
    json::write_str(out, &job.id);
    out.push_str(",\"dataset\":");
    json::write_str(out, &job.dataset);
    out.push_str(&format!(",\"k\":{},\"l\":", job.params.k));
    json::write_f64(out, job.params.l);
    out.push_str(&format!(
        ",\"seed\":{},\"restarts\":{},\"state\":\"{}\"",
        job.params.seed,
        job.params.restarts,
        job.state.name()
    ));
    match &job.state {
        JobState::Done {
            generation,
            objective,
        } => {
            out.push_str(&format!(",\"generation\":{generation},\"objective\":"));
            json::write_f64(out, *objective);
        }
        JobState::Failed { error } => {
            out.push_str(",\"error\":");
            json::write_str(out, error);
        }
        JobState::Queued | JobState::Running => {}
    }
    out.push('}');
}

fn job(state: &AppState, id: &str) -> Response {
    match state.job(id) {
        Some(job) => {
            let mut out = String::new();
            render_job(&mut out, &job);
            out.push('\n');
            Response::json(200, out)
        }
        None => Response::error(404, &format!("no job {id:?}")),
    }
}

fn list_jobs(state: &AppState) -> Response {
    let mut out = String::from("{\"jobs\":[");
    for (i, job) in state.list_jobs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_job(&mut out, job);
    }
    out.push_str("]}\n");
    Response::json(200, out)
}

fn list_models(state: &AppState) -> Response {
    let (generations, current) = state.registry_view();
    let mut out = String::from("{\"generations\":[");
    for (i, g) in generations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&g.to_string());
    }
    out.push_str("],\"current\":");
    match current {
        Some(g) => out.push_str(&g.to_string()),
        None => out.push_str("null"),
    }
    out.push_str("}\n");
    Response::json(200, out)
}

fn model(state: &AppState, generation: &str) -> Response {
    let Ok(generation) = generation.parse::<u64>() else {
        return Response::error(400, &format!("{generation:?} is not a generation number"));
    };
    let model = match state.load_generation(generation) {
        Ok(m) => m,
        Err(e) => {
            let status = match &e {
                proclus_core::registry::RegistryError::Io { source, .. }
                    if source.kind() == std::io::ErrorKind::NotFound =>
                {
                    404
                }
                other => status_for_registry(other),
            };
            return Response::error(status, &e.to_string());
        }
    };
    let mut out = format!(
        "{{\"generation\":{generation},\"clusters\":{},\"dimensionality\":{},\"points\":{},\"outliers\":{},\"objective\":",
        model.clusters().len(),
        model.dimensionality(),
        model.assignment().len(),
        model.outliers().len(),
    );
    json::write_f64(&mut out, model.objective());
    out.push_str(",\"dims\":[");
    for (i, c) in model.clusters().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_usize_arr(&mut out, &c.dimensions);
    }
    out.push_str("]}\n");
    Response::json(200, out)
}

fn assign(state: &AppState, req: &Request, classify: bool) -> Response {
    let points = match decode_points(&req.body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    // One Arc snapshot per request: the whole response is computed from
    // this one generation even if a promotion lands mid-request.
    let (generation, model) = match state.serving_model() {
        Ok(Some(pair)) => pair,
        Ok(None) => return Response::error(503, "no model published yet; run a fit first"),
        Err(e) => return Response::error(status_for_registry(&e), &e.to_string()),
    };
    let mut out = format!("{{\"generation\":{generation},\"count\":{}", points.rows());
    if classify {
        let labels = match model.classify_batch(&points) {
            Ok(l) => l,
            Err(e) => return Response::error(status_for_fit(&e), &e.to_string()),
        };
        out.push_str(",\"labels\":[");
        for (i, l) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match l {
                Some(c) => json::write_usize(&mut out, *c),
                None => out.push_str("null"),
            }
        }
        out.push(']');
    } else {
        let assignment = match model.assign_batch(&points) {
            Ok(a) => a,
            Err(e) => return Response::error(status_for_fit(&e), &e.to_string()),
        };
        out.push_str(",\"assignment\":");
        json::write_usize_arr(&mut out, &assignment);
    }
    out.push_str("}\n");
    Response::json(200, out).with_header("X-Proclus-Generation", generation.to_string())
}

fn shutdown(state: &AppState) -> Response {
    state.begin_shutdown();
    Response::json(202, "{\"status\":\"draining\"}\n".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServeConfig;
    use proclus_obs::NoopRecorder;
    use std::sync::Arc;

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn post(path: &str, body: &[u8]) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.to_vec(),
            keep_alive: true,
        }
    }

    fn test_state(tag: &str) -> (Arc<AppState>, std::sync::mpsc::Receiver<u64>) {
        let dir =
            std::env::temp_dir().join(format!("proclus-serve-router-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        AppState::new(
            ServeConfig {
                registry_dir: dir,
                queue_capacity: 2,
                threads: 1,
            },
            Arc::new(NoopRecorder),
        )
        .unwrap()
    }

    fn csv() -> Vec<u8> {
        let mut s = String::from("x0,x1\n");
        for i in 0..30 {
            let (a, b) = if i % 2 == 0 {
                (0.0, 50.0)
            } else {
                (9.0, -50.0)
            };
            s.push_str(&format!("{},{}\n", a + 0.01 * f64::from(i), b));
        }
        s.into_bytes()
    }

    #[test]
    fn unknown_routes_and_wrong_methods_are_typed() {
        let (s, _rx) = test_state("routes");
        assert_eq!(handle(&s, &get("/nope")).status, 404);
        assert_eq!(handle(&s, &post("/healthz", b"")).status, 405);
        assert_eq!(handle(&s, &get("/v1/datasets/abc")).status, 405);
        assert_eq!(handle(&s, &post("/v1/jobs/job-000001", b"")).status, 405);
    }

    #[test]
    fn every_routed_endpoint_is_in_the_event_vocabulary() {
        let names = ROUTES.iter().map(|&(_, _, endpoint, _)| endpoint);
        for endpoint in names.chain(["unknown"]) {
            assert!(
                proclus_obs::event::SERVE_ENDPOINTS.contains(&endpoint),
                "{endpoint}"
            );
        }
        // And every name in the vocabulary is routed, once.
        assert_eq!(ROUTES.len() + 1, proclus_obs::event::SERVE_ENDPOINTS.len());
    }

    #[test]
    fn upload_fit_poll_assign_lifecycle() {
        let (s, _rx) = test_state("lifecycle");
        let up = handle(&s, &post("/v1/datasets/train", &csv()));
        assert_eq!(up.status, 201, "{:?}", String::from_utf8_lossy(&up.body));

        let fit = handle(
            &s,
            &post("/v1/fit", br#"{"dataset":"train","k":2,"l":2,"seed":7}"#),
        );
        assert_eq!(fit.status, 202, "{:?}", String::from_utf8_lossy(&fit.body));
        assert!(String::from_utf8_lossy(&fit.body).contains("job-000001"));

        // Before the worker runs, assign has no model.
        assert_eq!(handle(&s, &post("/v1/assign", &csv())).status, 503);
        s.run_job(1);

        let job = handle(&s, &get("/v1/jobs/job-000001"));
        assert_eq!(job.status, 200);
        let body = String::from_utf8_lossy(&job.body).into_owned();
        assert!(body.contains("\"state\":\"done\""), "{body}");
        assert!(body.contains("\"generation\":1"), "{body}");

        let assign = handle(&s, &post("/v1/assign", &csv()));
        assert_eq!(assign.status, 200);
        assert!(assign
            .extra
            .iter()
            .any(|(n, v)| *n == "X-Proclus-Generation" && v == "1"));
        let body = String::from_utf8_lossy(&assign.body).into_owned();
        assert!(
            body.starts_with("{\"generation\":1,\"count\":30,\"assignment\":["),
            "{body}"
        );

        let classify = handle(&s, &post("/v1/classify", &csv()));
        assert_eq!(classify.status, 200);
        assert!(String::from_utf8_lossy(&classify.body).contains("\"labels\":["));

        let models = handle(&s, &get("/v1/models"));
        assert!(String::from_utf8_lossy(&models.body).contains("\"current\":1"));
        let model = handle(&s, &get("/v1/models/1"));
        assert_eq!(model.status, 200);
        assert!(String::from_utf8_lossy(&model.body).contains("\"clusters\":2"));
        assert_eq!(handle(&s, &get("/v1/models/99")).status, 404);
        assert_eq!(handle(&s, &get("/v1/models/xyz")).status, 400);

        std::fs::remove_dir_all(&s.config().registry_dir).unwrap();
    }

    #[test]
    fn malformed_bodies_are_client_errors() {
        let (s, _rx) = test_state("badbody");
        assert_eq!(handle(&s, &post("/v1/datasets/d", b"")).status, 400);
        assert_eq!(
            handle(&s, &post("/v1/datasets/d", b"x0\nnot-a-number\n")).status,
            400
        );
        assert_eq!(
            handle(&s, &post("/v1/datasets/bad name!", b"x0\n1\n")).status,
            400
        );
        assert_eq!(handle(&s, &post("/v1/fit", b"not json")).status, 400);
        assert_eq!(
            handle(&s, &post("/v1/fit", br#"{"dataset":"d"}"#)).status,
            400
        );
        assert_eq!(
            handle(&s, &post("/v1/fit", br#"{"dataset":"ghost","k":2,"l":2}"#)).status,
            404
        );
        assert_eq!(handle(&s, &get("/v1/jobs/job-000042")).status, 404);
        // A truncated PRCL binary upload is located, not fatal.
        let bad = binio::MAGIC.to_vec();
        assert_eq!(handle(&s, &post("/v1/datasets/d", &bad)).status, 400);
    }

    #[test]
    fn binary_and_chunked_uploads_roundtrip() {
        let (s, _rx) = test_state("binup");
        let (points, _) = data_io::read_csv_bytes(Path::new("<t>"), &csv()).unwrap();
        let bin = binio::encode(&points, None).unwrap();
        let up = handle(&s, &post("/v1/datasets/bin", &bin));
        assert_eq!(up.status, 201);
        assert!(String::from_utf8_lossy(&up.body).contains("\"rows\":30"));

        let chunked = proclus_data::chunks::encode_chunk_stream(&points, 7).unwrap();
        let up = handle(&s, &post("/v1/datasets/chunked", &chunked));
        assert_eq!(up.status, 201);
        assert_eq!(s.dataset("chunked").unwrap().as_slice(), points.as_slice());
    }

    #[test]
    fn shutdown_starts_draining_and_refuses_fits() {
        let (s, _rx) = test_state("shutdown");
        handle(&s, &post("/v1/datasets/d", &csv()));
        assert_eq!(handle(&s, &post("/v1/shutdown", b"")).status, 202);
        let resp = handle(&s, &post("/v1/fit", br#"{"dataset":"d","k":2,"l":2}"#));
        assert_eq!(resp.status, 503);
        let health = handle(&s, &get("/healthz"));
        assert!(String::from_utf8_lossy(&health.body).contains("\"draining\":true"));
    }
}
