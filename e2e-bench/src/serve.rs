//! The serving workloads, the HTTP client that drives them, and the
//! per-layer probe every traced run ends with.
//!
//! The daemon runs in-process through `proclus_serve::start`; clients
//! talk to it over loopback TCP exactly as remote callers would. Every
//! response is checked byte for byte against `assign_batch` of the
//! model that the `X-Proclus-Generation` header names, computed offline
//! from a reference fit of the same parameters.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proclus_core::{ModelRegistry, Proclus, ProclusModel};
use proclus_data::{binio, GeneratedScenario};
use proclus_math::Matrix;
use proclus_obs::{NoopRecorder, Recorder, RingRecorder};
use proclus_serve::http::read_request;
use proclus_serve::{router, start, AppState, ServeConfig, ServerHandle};

use crate::fit::{self, TracedPair};
use crate::report::Report;
use crate::speed::{self, Calibrator};
use crate::stats::{median, tail_rank, LatencyHist};
use crate::trace::Tracer;
use crate::workload::{derive_seed, fit_params, model_digest, Workload};
use crate::Options;

/// Rows per request on serve-assign (and in the fit workloads' probe).
pub(crate) const ASSIGN_BATCH_ROWS: usize = 256;
/// Rows per request on serve-mixed.
const MIXED_BATCH_ROWS: usize = 4_096;
/// Keep-alive connections on serve-assign: one per core of the 2-core
/// reference machine.
const ASSIGN_CONNECTIONS: usize = 2;
/// Distinct fit seeds serve-mixed cycles its fit jobs through.
const MIXED_SEEDS: u64 = 2;
/// Server boots per run; `setup_s` is their median. Boot `i` publishes
/// a fit with seed `derive_seed(seed, i)`, so the median spans fits of
/// several lengths instead of repeating one.
const SETUPS: u64 = 5;
/// Untimed warm-up before the timed window, in seconds.
const WARMUP_S: f64 = 2.0;
/// Sequential requests the probe sends and replays: enough for a p99
/// with ten samples beyond it.
const PROBE_REQUESTS: u64 = 1_000;
/// How often a client polls a fit job: often enough to keep the fit
/// queue busy, rarely enough not to load the server it measures.
const POLL: Duration = Duration::from_millis(5);
/// How often each connection takes a calibration sample between two of
/// its requests during the timed window.
const CALIBRATE_EVERY: Duration = Duration::from_millis(250);
/// Dataset name the workloads upload under.
const DATASET: &str = "train";

// ---------------------------------------------------------------------
// HTTP client
// ---------------------------------------------------------------------

/// One parsed response.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// `X-Proclus-Generation`, when present.
    pub generation: Option<u64>,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// A keep-alive HTTP/1.1 client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

/// Raw bytes of one request with a `Content-Length` body.
fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

impl Client {
    /// Connect to `addr`.
    ///
    /// # Errors
    ///
    /// The socket error.
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Send pre-rendered request bytes and read the reply into `reply`.
    ///
    /// # Errors
    ///
    /// Any socket error or a malformed response.
    fn send(&mut self, raw: &[u8], reply: &mut Reply) -> std::io::Result<()> {
        self.writer.write_all(raw)?;
        self.read_reply(reply)
    }

    /// Send one request and return its reply.
    ///
    /// # Errors
    ///
    /// As [`Client::send`].
    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
        let mut reply = Reply::default();
        self.send(&request_bytes(method, path, body), &mut reply)?;
        Ok(reply)
    }

    fn read_reply(&mut self, reply: &mut Reply) -> std::io::Result<()> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        reply.status = self
            .line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        reply.generation = None;
        let mut len = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad("malformed header"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse().map_err(|_| bad("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("x-proclus-generation") {
                reply.generation = value.parse().ok();
            }
        }
        reply.body.resize(len, 0);
        self.reader.read_exact(&mut reply.body)
    }
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------
// Batches and expected responses
// ---------------------------------------------------------------------

/// A dataset cut into assign requests.
pub struct Batches {
    /// The rows of each request.
    pub points: Vec<Matrix>,
    /// The raw `POST /v1/assign` bytes of each request (PRCL body).
    pub requests: Vec<Vec<u8>>,
}

/// Cut `points` into consecutive requests of `rows` rows each (the last
/// may be shorter).
///
/// # Errors
///
/// A PRCL encoding failure.
pub fn batches(points: &Matrix, rows: usize) -> Result<Batches, String> {
    let d = points.cols();
    let data = points.as_slice();
    let mut out = Batches {
        points: Vec::new(),
        requests: Vec::new(),
    };
    for lo in (0..points.rows()).step_by(rows.max(1)) {
        let hi = (lo + rows).min(points.rows());
        let m = Matrix::from_vec(data[lo * d..hi * d].to_vec(), hi - lo, d);
        let body = binio::encode(&m, None).map_err(|e| format!("encoding a batch: {e}"))?;
        out.requests
            .push(request_bytes("POST", "/v1/assign", &body));
        out.points.push(m);
    }
    Ok(out)
}

/// Expected assign responses: for model `m` and batch `b`,
/// `expected[m][b]` is the body after its `{"generation":G` prefix.
pub struct Verifier {
    /// Expected body tails, indexed `[model][batch]`.
    pub expected: Vec<Vec<Vec<u8>>>,
}

impl Verifier {
    /// Render the expected bodies offline with `assign_batch`.
    ///
    /// # Errors
    ///
    /// An `assign_batch` error.
    pub fn new(models: &[ProclusModel], batches: &Batches) -> Result<Verifier, String> {
        let mut expected = Vec::with_capacity(models.len());
        for model in models {
            let mut tails = Vec::with_capacity(batches.points.len());
            for points in &batches.points {
                let labels = model
                    .assign_batch(points)
                    .map_err(|e| format!("offline assign_batch: {e}"))?;
                let mut tail = format!(",\"count\":{},\"assignment\":[", labels.len());
                for (i, l) in labels.iter().enumerate() {
                    if i > 0 {
                        tail.push(',');
                    }
                    tail.push_str(&l.to_string());
                }
                tail.push_str("]}\n");
                tails.push(tail.into_bytes());
            }
            expected.push(tails);
        }
        Ok(Verifier { expected })
    }

    /// The model index that serves `generation`: fit jobs cycle through
    /// the models in order, one generation each, starting at 1.
    pub fn model_of(&self, generation: u64) -> usize {
        (generation.saturating_sub(1) % self.expected.len().max(1) as u64) as usize
    }

    /// Check one reply to batch `batch`; `last` is the connection's
    /// latest generation, which must never decrease. Returns the model
    /// index that served it.
    ///
    /// # Errors
    ///
    /// What was wrong with the reply.
    pub fn check(&self, reply: &Reply, batch: usize, last: &mut u64) -> Result<usize, String> {
        if reply.status != 200 {
            return Err(format!(
                "assign answered {}: {}",
                reply.status,
                String::from_utf8_lossy(&reply.body).trim()
            ));
        }
        let generation = reply
            .generation
            .ok_or("assign reply without X-Proclus-Generation")?;
        if generation < *last {
            return Err(format!("generation went back from {last} to {generation}"));
        }
        *last = generation;
        let m = self.model_of(generation);
        let prefix = format!("{{\"generation\":{generation}");
        let ok = reply.body.starts_with(prefix.as_bytes())
            && reply.body[prefix.len()..] == self.expected[m][batch][..];
        if ok {
            Ok(m)
        } else {
            Err("assign body differs from offline assign_batch".into())
        }
    }
}

// ---------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------

/// One connection's requests started in one second of the timed window.
#[derive(Default)]
pub struct Slice {
    /// Replies checked.
    pub replies: u64,
    /// Their latencies.
    pub hist: LatencyHist,
    /// Calibration samples the connection took in this second (seconds
    /// per pass).
    pub calibration: Vec<f64>,
}

impl Slice {
    /// Factor to the reference host speed in this second.
    fn scale(&self) -> Option<f64> {
        median(&self.calibration).map(speed::scale)
    }
}

/// What a closed loop observed.
///
/// Latency and throughput are taken per (connection, second) slice, each
/// scaled by the calibration samples of its own second, and averaged
/// over slices: host speed changes within a run then cancel slice by
/// slice instead of shifting the run's result, and a run whose seconds
/// split between two speeds lands between them rather than on either.
#[derive(Default)]
pub struct LoopStats {
    /// Requests sent (warm-up included).
    pub attempted: u64,
    /// Failed requests as `(count, first description)`.
    pub failures: Vec<(u64, String)>,
    /// Timed responses per serving model.
    pub per_model: Vec<u64>,
    /// Distinct generations seen.
    pub generations: BTreeSet<u64>,
    /// One entry per (connection, second) of the timed window.
    pub slices: Vec<Slice>,
    /// Length of one slice, in seconds.
    pub slice_s: f64,
    /// Connections that contributed slices.
    pub connections: usize,
}

impl LoopStats {
    fn fail(&mut self, count: u64, what: String) {
        match self.failures.iter_mut().find(|(_, w)| *w == what) {
            Some((n, _)) => *n += count,
            None => self.failures.push((count, what)),
        }
    }

    fn merge(&mut self, other: LoopStats) {
        self.attempted += other.attempted;
        for (n, what) in other.failures {
            self.fail(n, what);
        }
        if self.per_model.len() < other.per_model.len() {
            self.per_model.resize(other.per_model.len(), 0);
        }
        for (a, b) in self.per_model.iter_mut().zip(&other.per_model) {
            *a += b;
        }
        self.generations.extend(other.generations);
        self.slices.extend(other.slices);
        self.slice_s = other.slice_s;
        self.connections += other.connections;
    }

    /// Timed replies over all slices.
    pub fn replies(&self) -> u64 {
        self.slices.iter().map(|s| s.replies).sum()
    }

    /// `(median latency in ms, scale)` of every slice with replies and
    /// calibration samples.
    pub fn latency_ms(&self) -> Vec<(f64, f64)> {
        self.slices
            .iter()
            .filter_map(|s| Some((s.hist.p50()? / 1e6, s.scale()?)))
            .collect()
    }

    /// `(replies per second over all connections, 1 / scale)` of every
    /// calibrated slice: the connection's rate times the connections.
    pub fn rates(&self) -> Vec<(f64, f64)> {
        self.slices
            .iter()
            .filter_map(|s| {
                let rate = s.replies as f64 / self.slice_s * self.connections as f64;
                Some((rate, 1.0 / s.scale()?))
            })
            .collect()
    }
}

/// The closed-loop traffic of one run: where it goes, what it sends and
/// how replies are checked.
pub struct Traffic<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Requests, sent in turn.
    pub batches: &'a Batches,
    /// Expected replies.
    pub verifier: &'a Verifier,
    /// Calibration sampled between requests during the timed window.
    pub calibrator: &'a Calibrator,
}

/// Run `connections` closed-loop clients until `end`, each sending the
/// next batch as soon as its previous reply arrived and checking every
/// reply. Requests started from `measure_from` on are timed, in
/// one-second slices per connection.
pub fn closed_loop(
    traffic: &Traffic<'_>,
    connections: usize,
    measure_from: Instant,
    end: Instant,
) -> LoopStats {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| s.spawn(move || connection_loop(traffic, c, connections, measure_from, end)))
            .collect();
        let mut total = LoopStats::default();
        for h in handles {
            match h.join() {
                Ok(stats) => total.merge(stats),
                Err(_) => total.fail(1, "a client thread panicked".into()),
            }
        }
        total
    })
}

fn connection_loop(
    traffic: &Traffic<'_>,
    first: usize,
    stride: usize,
    measure_from: Instant,
    end: Instant,
) -> LoopStats {
    let Traffic {
        addr,
        batches,
        verifier,
        calibrator,
    } = *traffic;
    let window = end.saturating_duration_since(measure_from);
    let n_slices = (window.as_secs_f64().floor() as usize).max(1);
    let slice_s = (window / n_slices as u32).as_secs_f64();
    let mut stats = LoopStats {
        per_model: vec![0; verifier.expected.len()],
        slices: (0..n_slices).map(|_| Slice::default()).collect(),
        slice_s,
        connections: 1,
        ..LoopStats::default()
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            stats.attempted += 1;
            stats.fail(1, format!("connecting: {e}"));
            return stats;
        }
    };
    let n = batches.requests.len();
    let mut reply = Reply::default();
    let mut last = 0;
    let mut b = first % n;
    let mut calibrate_at = measure_from;
    loop {
        let mut t0 = Instant::now();
        if t0 >= end {
            break;
        }
        if t0 >= calibrate_at {
            let at = ((t0 - measure_from).as_secs_f64() / slice_s) as usize;
            let pass_s = calibrator.sample();
            if let Some(slice) = stats.slices.get_mut(at) {
                slice.calibration.push(pass_s);
            }
            calibrate_at += CALIBRATE_EVERY;
            t0 = Instant::now();
        }
        stats.attempted += 1;
        if let Err(e) = client.send(&batches.requests[b], &mut reply) {
            stats.fail(1, format!("assign request: {e}"));
            break;
        }
        let ns = t0.elapsed().as_nanos() as u64;
        match verifier.check(&reply, b, &mut last) {
            Ok(m) if t0 >= measure_from => {
                stats.per_model[m] += 1;
                stats.generations.insert(last);
                let at = ((t0 - measure_from).as_secs_f64() / slice_s) as usize;
                if let Some(slice) = stats.slices.get_mut(at) {
                    slice.replies += 1;
                    slice.hist.record(ns);
                }
            }
            Ok(_) => {}
            Err(e) => stats.fail(1, e),
        }
        b = (b + stride) % n;
    }
    stats
}

// ---------------------------------------------------------------------
// Setup and fit jobs
// ---------------------------------------------------------------------

/// Submit a fit job and poll it to completion. Returns the published
/// generation.
///
/// # Errors
///
/// A refused submission, a failed job, or a socket error.
fn fit_job(client: &mut Client, params: &Proclus) -> Result<u64, String> {
    let body = format!(
        "{{\"dataset\":\"{DATASET}\",\"k\":{},\"l\":{},\"seed\":{},\"restarts\":{}}}",
        params.k, params.l, params.rng_seed, params.restarts
    );
    let reply = client
        .call("POST", "/v1/fit", body.as_bytes())
        .map_err(io_err("submitting a fit"))?;
    let text = String::from_utf8_lossy(&reply.body).into_owned();
    if reply.status != 202 {
        return Err(format!("fit answered {}: {}", reply.status, text.trim()));
    }
    let parsed = proclus_obs::json::parse(&text).map_err(|e| format!("fit reply: {e}"))?;
    let id = parsed
        .get("job")
        .and_then(|v| v.as_str())
        .ok_or("fit reply without a job id")?
        .to_string();
    loop {
        std::thread::sleep(POLL);
        let reply = client
            .call("GET", &format!("/v1/jobs/{id}"), b"")
            .map_err(io_err("polling a fit"))?;
        let text = String::from_utf8_lossy(&reply.body);
        let job = proclus_obs::json::parse(&text).map_err(|e| format!("job reply: {e}"))?;
        match job.get("state").and_then(|v| v.as_str()) {
            Some("done") => {
                let generation = job
                    .get("generation")
                    .and_then(|v| v.as_usize())
                    .ok_or("done job without a generation")?;
                return Ok(generation as u64);
            }
            Some("failed") => return Err(format!("fit job failed: {}", text.trim())),
            Some(_) => {}
            None => return Err(format!("job reply without a state: {}", text.trim())),
        }
    }
}

/// A booted server holding one published model.
struct Booted {
    /// The running server.
    server: ServerHandle,
    /// Its recorder, in traced runs.
    recorder: Option<Arc<RingRecorder>>,
    /// Its registry directory.
    dir: PathBuf,
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    Ok(())
}

fn server_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        registry_dir: dir.to_path_buf(),
        queue_capacity: 4,
        threads: 1,
    }
}

/// One setup: generate the data, boot a server on a fresh registry,
/// upload the data, and run the first fit job to publication.
fn boot(
    opts: &Options,
    tracer: &Tracer,
    params: &Proclus,
    dir: PathBuf,
    report: &mut Report,
) -> Result<(Booted, GeneratedScenario), String> {
    let spec = opts.workload.spec(derive_seed(opts.seed, 0), opts.smoke)?;
    fresh_dir(&dir)?;
    tracer.span("setup", None, None, |parent| {
        let data = tracer
            .span("scenario.generate", parent, None, |_| spec.generate())
            .map_err(|e| format!("generating {}: {e}", opts.workload.name()))?;
        let recorder = tracer.enabled().then(|| Arc::new(RingRecorder::new(0)));
        let sink: Arc<dyn Recorder + Send> = match &recorder {
            Some(r) => r.clone(),
            None => Arc::new(NoopRecorder),
        };
        let server = tracer
            .span("serve.start", parent, None, |_| {
                start("127.0.0.1:0", server_config(&dir), sink)
            })
            .map_err(|e| format!("starting the server: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(io_err("connecting"))?;
        let body = binio::encode(&data.points, None).map_err(|e| format!("encoding: {e}"))?;
        let up = tracer
            .span("serve.upload", parent, None, |_| {
                client.call("POST", &format!("/v1/datasets/{DATASET}"), &body)
            })
            .map_err(io_err("uploading"))?;
        report.op((up.status != 201).then(|| format!("upload answered {}", up.status)));
        let generation = tracer.span("serve.first_publish", parent, None, |_| {
            fit_job(&mut client, params)
        })?;
        report.op((generation != 1).then(|| format!("first publish was generation {generation}")));
        Ok((
            Booted {
                server,
                recorder,
                dir,
            },
            data,
        ))
    })
}

/// Keep one fit job in flight until `end`, cycling through `params`
/// (job `j` uses `params[(j - 1) % len]`; job 1 was the setup's).
/// Returns the jobs attempted and the failures.
fn feed(addr: SocketAddr, params: &[Proclus], end: Instant) -> (u64, Vec<(u64, String)>) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return (1, vec![(1, format!("connecting the feeder: {e}"))]),
    };
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut job = 2u64;
    while Instant::now() < end {
        attempted += 1;
        match fit_job(
            &mut client,
            &params[((job - 1) % params.len() as u64) as usize],
        ) {
            Ok(generation) if generation == job => {}
            Ok(generation) => {
                failures.push((1, format!("job {job} published generation {generation}")));
            }
            Err(e) => {
                failures.push((1, e));
                break;
            }
        }
        job += 1;
    }
    (attempted, failures)
}

/// Per-model ARI of the served labels, weighted by responses served.
fn served_ari(
    models: &[ProclusModel],
    served: &[u64],
    data: &GeneratedScenario,
) -> Result<f64, String> {
    let truth: Vec<Option<usize>> = data.labels.iter().map(|l| l.cluster()).collect();
    let mut weighted = 0.0;
    let mut total = 0u64;
    for (model, &n) in models.iter().zip(served) {
        if n == 0 {
            continue;
        }
        let labels: Vec<Option<usize>> = model
            .assign_batch(&data.points)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(Some)
            .collect();
        let ari = proclus_eval::adjusted_rand_index(&labels, &truth).map_err(|e| e.to_string())?;
        weighted += ari * n as f64;
        total += n;
    }
    Ok(if total == 0 {
        0.0
    } else {
        weighted / total as f64
    })
}

/// Run serve-assign or serve-mixed.
///
/// # Errors
///
/// A failure to set up (spec, server start, upload, reference fit);
/// wrong or failed requests and jobs are counted in the report.
pub(crate) fn run(
    opts: &Options,
    tracer: &Tracer,
    calibrator: &Calibrator,
    report: &mut Report,
) -> Result<(), String> {
    let mixed = opts.workload == Workload::ServeMixed;
    let spec = opts.workload.spec(derive_seed(opts.seed, 0), opts.smoke)?;
    let seeds = if mixed { MIXED_SEEDS } else { 1 };
    let params: Vec<Proclus> = (0..seeds)
        .map(|j| fit_params(&spec, derive_seed(opts.seed, j)))
        .collect();

    // The first setup boots the server the timed window runs against;
    // the others run after the window, so the peak memory reported is
    // that of one setup plus serving (every boot leaves allocator arenas
    // behind that would otherwise inflate it by chance).
    let mut setups = Vec::new();
    let mut recorders = Vec::new();
    let mut setup = |i: u64, report: &mut Report| {
        let dir = opts.work_dir.join(format!("registry-{i}"));
        let first = fit_params(&spec, derive_seed(opts.seed, i));
        let (booted, timing) = calibrator.time(|| boot(opts, tracer, &first, dir, report));
        let booted = booted?;
        setups.push((timing.raw_s, timing.scale));
        recorders.extend(booted.0.recorder.clone());
        Ok::<_, String>(booted)
    };
    let (booted, data) = setup(0, report)?;

    // Reference models, fitted in-process with the server's parameters.
    let mut models = Vec::new();
    let mut pairs: Vec<TracedPair> = Vec::new();
    for p in &params {
        let timed = tracer.span("fit.reference", None, None, |_| fit::fit(p, &data))?;
        if tracer.enabled() {
            match fit::fit_traced_pair(p, &data, &timed) {
                Ok(pair) => pairs.push(pair),
                Err(e) => report.op(Some(e)),
            }
        }
        models.push(timed.model);
    }
    report.op(fit::pinned_mismatch(
        opts.workload,
        opts,
        model_digest(&models[0]),
    ));

    let rows = if mixed {
        MIXED_BATCH_ROWS
    } else {
        ASSIGN_BATCH_ROWS
    };
    let batches = batches(&data.points, rows)?;
    let verifier = Verifier::new(&models, &batches)?;
    let connections = if mixed { 1 } else { ASSIGN_CONNECTIONS };
    let warmup = if opts.smoke {
        WARMUP_S / 10.0
    } else {
        WARMUP_S
    };
    let measure_from = Instant::now() + Duration::from_secs_f64(warmup);
    let end = measure_from + Duration::from_secs_f64(opts.seconds);
    let addr = booted.server.addr();
    let (stats, fed) = std::thread::scope(|s| {
        let feeder = mixed.then(|| s.spawn(|| feed(addr, &params, end)));
        let traffic = Traffic {
            addr,
            batches: &batches,
            verifier: &verifier,
            calibrator,
        };
        let stats = closed_loop(&traffic, connections, measure_from, end);
        let fed = match feeder.map(|h| h.join()) {
            Some(Ok(fed)) => fed,
            Some(Err(_)) => (1, vec![(1, "the feeder thread panicked".to_string())]),
            None => (0, Vec::new()),
        };
        (stats, fed)
    });
    booted.server.shutdown();
    fresh_dir(&booted.dir)?;
    report.ops(stats.attempted, stats.failures.iter().cloned());
    report.ops(fed.0, fed.1);
    let peak_rss = crate::report::peak_rss_mb()?;

    for i in 1..SETUPS {
        let (extra, _) = setup(i, report)?;
        extra.server.shutdown();
        fresh_dir(&extra.dir)?;
    }

    if tracer.enabled() {
        fit::layer_metrics(&pairs, report);
        let seen = Seen {
            recorders,
            generations: stats.generations.len() as u64,
        };
        return probe(opts, tracer, report, &data.points, &models[0], rows, seen);
    }
    report.scaled_median("setup_s", &setups, "s");
    report.scaled_mean("op_p50_ms", &stats.latency_ms(), "ms");
    report.scaled_mean("ops_per_s", &stats.rates(), "1/s");
    let ari = served_ari(&models, &stats.per_model, &data)?;
    report.metric("ari", ari, "ratio", stats.replies() as usize);
    report.op(fit::ari_floor_failure(&[ari]));
    report.metric("peak_rss_mb", peak_rss, "MB", 1);
    Ok(())
}

// ---------------------------------------------------------------------
// Per-layer probe
// ---------------------------------------------------------------------

/// Servers a traced run already drove, whose counters the probe folds
/// into the `serve.*` metrics.
#[derive(Default)]
pub(crate) struct Seen {
    /// Recorders handed to `start`.
    pub(crate) recorders: Vec<Arc<RingRecorder>>,
    /// Distinct generations the workload's clients saw.
    pub(crate) generations: u64,
}

/// Time each serving layer in isolation on this workload's model and
/// batch shape: registry publish / load / `CURRENT` check on a scratch
/// registry; [`PROBE_REQUESTS`] sequential requests over one loopback
/// connection (client latency), each followed by the same request bytes
/// replayed in-process through `read_request`, `router::handle`,
/// `write_to`, `binio::decode` and `assign_batch`, one span each.
///
/// # Errors
///
/// A failure to set up the scratch registry or server.
pub(crate) fn probe(
    opts: &Options,
    tracer: &Tracer,
    report: &mut Report,
    points: &Matrix,
    model: &ProclusModel,
    rows: usize,
    mut seen: Seen,
) -> Result<(), String> {
    let dir = opts.work_dir.join("probe-registry");
    fresh_dir(&dir)?;
    let (mut registry, _) =
        ModelRegistry::open(&dir).map_err(|e| format!("probe registry: {e}"))?;
    let mut generation = 0;
    for _ in 0..5 {
        generation = tracer
            .span("registry.publish", None, None, |_| registry.publish(model))
            .map_err(|e| format!("probe publish: {e}"))?;
    }
    let want = model_digest(model);
    for _ in 0..20 {
        let loaded = tracer.span("registry.load", None, None, |_| registry.load(generation));
        report.op(match loaded {
            Ok(m) if model_digest(&m) == want => None,
            Ok(_) => Some("a loaded model differs from the published one".into()),
            Err(e) => Some(format!("probe load: {e}")),
        });
    }
    for _ in 0..1_000 {
        let current = tracer.span("registry.current_check", None, None, |_| {
            registry.current_generation_on_disk()
        });
        let ok = matches!(current, Ok(Some(g)) if g == generation);
        report.op((!ok).then(|| format!("CURRENT check returned {current:?}")));
    }

    let batches = batches(points, rows)?;
    let verifier = Verifier::new(std::slice::from_ref(model), &batches)?;
    let (state, _jobs) = AppState::new(server_config(&dir), Arc::new(NoopRecorder))
        .map_err(|e| format!("probe state: {e}"))?;
    let recorder = Arc::new(RingRecorder::new(0));
    let server = start("127.0.0.1:0", server_config(&dir), recorder.clone())
        .map_err(|e| format!("starting the probe server: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(io_err("probe connect"))?;
    let mut reply = Reply::default();
    let mut last = 0;
    let n = batches.requests.len() as u64;
    // Each request goes over the socket and is then replayed in-process
    // right away, so both see the same host speed and the transport time
    // is a difference taken request by request.
    for r in 0..PROBE_REQUESTS {
        let b = (r % n) as usize;
        let sent = tracer.span("probe.request", None, Some(r), |_| {
            client.send(&batches.requests[b], &mut reply)
        });
        report.op(match sent {
            Ok(()) => verifier.check(&reply, b, &mut last).err(),
            Err(e) => Some(format!("probe request: {e}")),
        });
        let replayed_ok = tracer.span("replay", None, Some(r), |parent| {
            let span = |name, f: &mut dyn FnMut()| tracer.span(name, parent, Some(r), |_| f());
            let mut raw: &[u8] = &batches.requests[b];
            let mut parsed = None;
            span("http.parse", &mut || {
                parsed = read_request(&mut raw, &mut std::io::sink()).ok().flatten();
            });
            let req = parsed?;
            let mut resp = None;
            span("router.handle", &mut || {
                resp = Some(router::handle(&state, &req))
            });
            let resp = resp?;
            let mut wire = Vec::with_capacity(resp.body.len() + 256);
            let mut written = Ok(());
            span("http.write", &mut || {
                written = resp.write_to(&mut wire, true)
            });
            let mut decoded = None;
            span("binio.decode", &mut || {
                decoded = binio::decode(&req.body).ok()
            });
            let (batch, _) = decoded?;
            let mut labels = None;
            span("model.assign_batch", &mut || {
                labels = model.assign_batch(&batch).ok()
            });
            let replayed = Reply {
                status: resp.status,
                generation: Some(generation),
                body: resp.body,
            };
            let ok =
                written.is_ok() && labels.is_some() && verifier.check(&replayed, b, &mut 0).is_ok();
            ok.then_some(())
        });
        report.op(replayed_ok
            .is_none()
            .then(|| "a replayed request went wrong".to_string()));
    }
    drop(client);
    server.shutdown();
    drop(state);
    fresh_dir(&dir)?;

    for (metric, span, unit) in [
        ("http.parse_us", "http.parse", "us"),
        ("http.write_us", "http.write", "us"),
        ("router.handle_us", "router.handle", "us"),
        ("binio.decode_us", "binio.decode", "us"),
        ("model.assign_batch_us", "model.assign_batch", "us"),
        ("registry.current_check_us", "registry.current_check", "us"),
        ("registry.load_ms", "registry.load", "ms"),
        ("registry.publish_ms", "registry.publish", "ms"),
    ] {
        let per_us = if unit == "ms" { 1e-3 } else { 1.0 };
        let values: Vec<f64> = tracer
            .durations_us(span)
            .iter()
            .map(|us| us * per_us)
            .collect();
        report.median(metric, &values, unit);
    }

    let mut client_us = tracer.durations_us("probe.request");
    client_us.sort_by(f64::total_cmp);
    let p50 = median(&client_us).unwrap_or(0.0);
    report.metric("serve.client_p50_us", p50, "us", client_us.len());
    if let Some(rank) = tail_rank(client_us.len() as u64, 99.0) {
        report.metric(
            "serve.client_p99_us",
            client_us[rank as usize - 1],
            "us",
            client_us.len(),
        );
    }
    // What the client waited beyond the three in-process layers (socket
    // I/O, wake-ups, the server's connection loop), request by request.
    let layers = ["http.parse", "router.handle", "http.write"].map(|n| tracer.request_us(n));
    let transport: Vec<f64> = tracer
        .request_us("probe.request")
        .iter()
        .filter_map(|(r, client)| {
            let server: Option<f64> = layers.iter().map(|l| l.get(r)).sum();
            Some(client - server?)
        })
        .collect();
    report.median("serve.transport_us", &transport, "us");

    seen.recorders.push(recorder);
    for name in [
        "serve.requests",
        "serve.protocol_errors",
        "serve.jobs_done",
        "serve.queue_full",
    ] {
        let total: u64 = seen.recorders.iter().map(|r| r.counter_value(name)).sum();
        report.metric(name, total as f64, "count", seen.recorders.len());
    }
    report.metric(
        "serve.generations_seen",
        (seen.generations + 1) as f64,
        "count",
        1,
    );
    Ok(())
}
