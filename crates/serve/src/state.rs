//! Shared server state: registry handle, live-model cache, dataset
//! store, and the bounded fit-job table.
//!
//! Everything is behind `Mutex`/`RwLock` (no unsafe, no lock-free
//! cleverness), and every acquisition goes through the poison-immune
//! helpers below: a panic on some other thread must never take the
//! server down with a poisoned lock, so guards are recovered with
//! [`PoisonError::into_inner`]. The state a panicking handler could
//! leave behind is always internally consistent (each critical section
//! writes one logical value), which is what makes that recovery sound.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use proclus_core::registry::{current_generation_in, ModelRegistry, RecoveryReport, RegistryError};
use proclus_core::{Proclus, ProclusModel};
use proclus_math::{DistanceKind, Matrix};
use proclus_obs::{Event, Recorder};

use crate::error::ServeError;

/// Acquire a mutex, recovering the guard from a poisoned lock.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a read lock, recovering from poison.
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a write lock, recovering from poison.
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Server configuration (the CLI flags, decoupled from parsing).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Registry directory the daemon serves from and publishes to.
    pub registry_dir: std::path::PathBuf,
    /// Fit jobs that may wait in the queue before `fit` returns 429.
    pub queue_capacity: usize,
    /// Worker threads per fit (0 = the fit default).
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            registry_dir: std::path::PathBuf::from("registry"),
            queue_capacity: 4,
            threads: 0,
        }
    }
}

/// Parameters of one queued fit.
#[derive(Clone, Debug, PartialEq)]
pub struct FitParams {
    /// Target cluster count.
    pub k: usize,
    /// Average per-cluster dimensionality.
    pub l: f64,
    /// PRNG seed (fits are pure functions of params + data + seed).
    pub seed: u64,
    /// Independent restarts.
    pub restarts: usize,
}

/// Lifecycle state of one fit job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobState {
    /// Waiting in the bounded queue.
    Queued,
    /// Picked up by the fit worker.
    Running,
    /// Fitted and published as the contained registry generation.
    Done {
        /// The generation the model was published as.
        generation: u64,
        /// The published model's objective.
        objective: f64,
    },
    /// The fit or the publish failed.
    Failed {
        /// Display of the underlying error.
        error: String,
    },
}

impl JobState {
    /// The state's name in the `JOB_STATES` vocabulary.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// One row of the job table.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Deterministic job ID, `job-NNNNNN` (sequence order of accepted
    /// submissions — rejected submissions never consume a number).
    pub id: String,
    /// The dataset the job fits.
    pub dataset: String,
    /// Fit parameters.
    pub params: FitParams,
    /// Current lifecycle state.
    pub state: JobState,
}

/// Deterministic ID of the `seq`-th accepted job (1-based).
pub fn job_id(seq: u64) -> String {
    format!("job-{seq:06}")
}

/// Why a fit submission was not accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — back off and retry (429).
    QueueFull,
    /// The server is draining and accepts no new jobs (503).
    ShuttingDown,
    /// The named dataset was never uploaded (404).
    UnknownDataset(String),
}

/// Shared state of one server instance.
pub struct AppState {
    config: ServeConfig,
    recorder: Arc<dyn Recorder + Send>,
    registry: Mutex<ModelRegistry>,
    /// The registry's directory, so requests can read `CURRENT`
    /// without taking the `registry` mutex.
    registry_dir: std::path::PathBuf,
    recovery: RecoveryReport,
    /// Cache of the serving model keyed by generation; refreshed when
    /// the on-disk `CURRENT` moves (cross-process promotions included).
    live: RwLock<Option<(u64, Arc<ProclusModel>)>>,
    datasets: RwLock<BTreeMap<String, Arc<Matrix>>>,
    jobs: RwLock<Vec<JobRecord>>,
    /// Sender half of the bounded job queue; `None` once draining.
    queue: Mutex<Option<SyncSender<u64>>>,
    draining: AtomicBool,
    /// The bound listener address, once known. `begin_shutdown` uses
    /// it to nudge an accept loop blocked in `accept()` so the drain
    /// flag is observed even when shutdown arrives over the wire
    /// while another thread already sits in `ServerHandle::wait`.
    listen_addr: std::sync::OnceLock<SocketAddr>,
}

impl AppState {
    /// Open the registry (running the PR 7 recovery scan) and build the
    /// state plus the receiving end of the job queue.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] when the registry directory cannot be
    /// opened — note that *corrupt entries and a corrupt `CURRENT` are
    /// not errors*: recovery quarantines/repairs them and the report is
    /// surfaced via [`AppState::recovery_report`].
    pub fn new(
        config: ServeConfig,
        recorder: Arc<dyn Recorder + Send>,
    ) -> Result<(Arc<Self>, Receiver<u64>), ServeError> {
        let (registry, recovery) = ModelRegistry::open(&config.registry_dir)?;
        let (tx, rx) = std::sync::mpsc::sync_channel(config.queue_capacity.max(1));
        let state = AppState {
            config,
            recorder,
            registry_dir: registry.dir().to_path_buf(),
            registry: Mutex::new(registry),
            recovery,
            live: RwLock::new(None),
            datasets: RwLock::new(BTreeMap::new()),
            jobs: RwLock::new(Vec::new()),
            queue: Mutex::new(Some(tx)),
            draining: AtomicBool::new(false),
            listen_addr: std::sync::OnceLock::new(),
        };
        Ok((Arc::new(state), rx))
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// What the startup recovery scan found (PR 7's report).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The recorder requests and jobs report into.
    pub fn recorder(&self) -> &dyn Recorder {
        &*self.recorder
    }

    /// Is the server draining (shutdown requested)?
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    // -- datasets ------------------------------------------------------

    /// Store an uploaded dataset under `name`, replacing any previous
    /// upload of the same name.
    pub fn put_dataset(&self, name: &str, points: Matrix) -> (usize, usize) {
        let shape = (points.rows(), points.cols());
        write(&self.datasets).insert(name.to_string(), Arc::new(points));
        shape
    }

    /// Fetch a dataset by name.
    pub fn dataset(&self, name: &str) -> Option<Arc<Matrix>> {
        read(&self.datasets).get(name).cloned()
    }

    /// Names and shapes of every stored dataset, sorted by name.
    pub fn list_datasets(&self) -> Vec<(String, usize, usize)> {
        read(&self.datasets)
            .iter()
            .map(|(n, m)| (n.clone(), m.rows(), m.cols()))
            .collect()
    }

    // -- jobs ----------------------------------------------------------

    /// Submit a fit job. IDs are deterministic *because* the sequence
    /// number is only consumed after the queue accepts the job: a 429
    /// leaves no gap, so the N-th accepted submission is always
    /// `job-00000N` regardless of how many were rejected in between.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] — queue full, draining, or unknown dataset.
    pub fn submit_fit(&self, dataset: &str, params: FitParams) -> Result<String, SubmitError> {
        if self.dataset(dataset).is_none() {
            return Err(SubmitError::UnknownDataset(dataset.to_string()));
        }
        // Hold the job-table lock across the reservation so the worker
        // (which locks the table to mark Running) cannot observe a
        // sequence number before its record exists.
        let mut jobs = write(&self.jobs);
        let sender = lock(&self.queue);
        let Some(tx) = sender.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        let seq = jobs.len() as u64 + 1;
        match tx.try_send(seq) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.recorder.counter("serve.queue_full", 1);
                return Err(SubmitError::QueueFull);
            }
            Err(TrySendError::Disconnected(_)) => return Err(SubmitError::ShuttingDown),
        }
        let id = job_id(seq);
        jobs.push(JobRecord {
            id: id.clone(),
            dataset: dataset.to_string(),
            params,
            state: JobState::Queued,
        });
        Ok(id)
    }

    /// Snapshot of one job by ID.
    pub fn job(&self, id: &str) -> Option<JobRecord> {
        read(&self.jobs).iter().find(|j| j.id == id).cloned()
    }

    /// Snapshot of the whole job table, submission order.
    pub fn list_jobs(&self) -> Vec<JobRecord> {
        read(&self.jobs).clone()
    }

    fn set_job_state(&self, seq: u64, next: JobState) {
        let mut jobs = write(&self.jobs);
        let Some(job) = jobs.get_mut(seq as usize - 1) else {
            return;
        };
        let from = job.state.name();
        let to = next.name();
        job.state = next;
        self.recorder.event(&Event::ServeJob { job: seq, from, to });
        match to {
            "done" => self.recorder.counter("serve.jobs_done", 1),
            "failed" => self.recorder.counter("serve.jobs_failed", 1),
            _ => {}
        }
    }

    /// Run one queued job to completion: fit the dataset, publish the
    /// model, and record the outcome in the job table. Called only by
    /// the single fit-worker thread.
    pub fn run_job(&self, seq: u64) {
        let Some(job) = read(&self.jobs).get(seq as usize - 1).cloned() else {
            return;
        };
        self.set_job_state(seq, JobState::Running);
        let Some(points) = self.dataset(&job.dataset) else {
            self.set_job_state(
                seq,
                JobState::Failed {
                    error: format!("dataset {:?} vanished before the fit", job.dataset),
                },
            );
            return;
        };
        let fitted = Proclus::new(job.params.k, job.params.l)
            .seed(job.params.seed)
            .restarts(job.params.restarts)
            .threads(self.config.threads)
            .distance(DistanceKind::Manhattan)
            .fit(&points);
        match fitted {
            Ok(model) => {
                let published = lock(&self.registry).publish(&model);
                match published {
                    Ok(generation) => {
                        let objective = model.objective();
                        // Promote in-process immediately (traffic would
                        // also pick it up from CURRENT on disk).
                        *write(&self.live) = Some((generation, Arc::new(model)));
                        self.set_job_state(
                            seq,
                            JobState::Done {
                                generation,
                                objective,
                            },
                        );
                    }
                    Err(e) => self.set_job_state(
                        seq,
                        JobState::Failed {
                            error: e.to_string(),
                        },
                    ),
                }
            }
            Err(e) => self.set_job_state(
                seq,
                JobState::Failed {
                    error: e.to_string(),
                },
            ),
        }
    }

    // -- serving model -------------------------------------------------

    /// The model currently named by `CURRENT`, as an `Arc` snapshot.
    ///
    /// The pointer is re-read from disk on **every** call, so a
    /// promotion by another process (`proclus stream`) is visible to
    /// the next request; the decoded model itself is cached per
    /// generation. Each request works from the returned snapshot alone,
    /// which is what guarantees exactly one generation per response —
    /// a promotion mid-request cannot tear it.
    ///
    /// The pointer read takes no lock ([`current_generation_in`]): a
    /// fit job's publish holds the registry mutex through its fsync'd
    /// writes, and a request for the cached generation must not wait
    /// on them. The mutex is taken only to load a new generation.
    ///
    /// # Errors
    ///
    /// [`RegistryError`] from the pointer read or the fresh load (the
    /// TOCTOU-hardened [`ModelRegistry::load_current_fresh`] path).
    pub fn serving_model(&self) -> Result<Option<(u64, Arc<ProclusModel>)>, RegistryError> {
        let Some(generation) = current_generation_in(&self.registry_dir)? else {
            *write(&self.live) = None;
            return Ok(None);
        };
        if let Some((cached_gen, model)) = read(&self.live).clone() {
            if cached_gen == generation {
                return Ok(Some((cached_gen, model)));
            }
        }
        // Cache miss or stale: reload through the retrying fresh path
        // (the pointer may move again between our read and the open).
        match lock(&self.registry).load_current_fresh()? {
            Some((g, model)) => {
                let model = Arc::new(model);
                *write(&self.live) = Some((g, model.clone()));
                Ok(Some((g, model)))
            }
            None => {
                *write(&self.live) = None;
                Ok(None)
            }
        }
    }

    /// Valid generations and the current pointer, for model listing.
    pub fn registry_view(&self) -> (Vec<u64>, Option<u64>) {
        let reg = lock(&self.registry);
        (reg.generations().to_vec(), reg.current())
    }

    /// Load one generation for inspection.
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::load`].
    pub fn load_generation(&self, generation: u64) -> Result<ProclusModel, RegistryError> {
        lock(&self.registry).load(generation)
    }

    // -- shutdown ------------------------------------------------------

    /// Begin draining: refuse new jobs and drop the queue sender so the
    /// fit worker finishes what is queued and exits. Idempotent.
    pub fn begin_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        *lock(&self.queue) = None;
        // Wake an accept loop blocked in accept(): a throwaway
        // self-connection, sent *after* the flag flip so the loop
        // observes draining when it wakes. Best-effort by design —
        // without a listener (unit tests drive AppState directly)
        // there is nothing to wake.
        if let Some(addr) = self.listen_addr.get() {
            let _ = std::net::TcpStream::connect(addr);
        }
    }

    /// Record the bound listener address (called once by `server::start`).
    pub(crate) fn set_listen_addr(&self, addr: SocketAddr) {
        let _ = self.listen_addr.set(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus_obs::NoopRecorder;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("proclus-serve-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn state(tag: &str, capacity: usize) -> (Arc<AppState>, Receiver<u64>) {
        let config = ServeConfig {
            registry_dir: tmp_dir(tag),
            queue_capacity: capacity,
            threads: 1,
        };
        AppState::new(config, Arc::new(NoopRecorder)).unwrap()
    }

    fn toy_points() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..30 {
            let (a, b) = if i % 2 == 0 {
                (0.0, 50.0)
            } else {
                (9.0, -50.0)
            };
            rows.push([a + (i as f64) * 0.01, b - (i as f64) * 0.01, i as f64]);
        }
        Matrix::from_rows(&rows, 3)
    }

    fn params() -> FitParams {
        FitParams {
            k: 2,
            l: 2.0,
            seed: 7,
            restarts: 1,
        }
    }

    #[test]
    fn job_ids_are_deterministic_and_gapless_across_rejections() {
        let (s, rx) = state("ids", 1);
        s.put_dataset("d", toy_points());
        assert_eq!(s.submit_fit("d", params()).unwrap(), "job-000001");
        // Queue capacity 1 and no worker draining it: the next submit
        // is rejected and must NOT consume a sequence number.
        assert_eq!(s.submit_fit("d", params()), Err(SubmitError::QueueFull));
        assert_eq!(
            s.submit_fit("missing", params()),
            Err(SubmitError::UnknownDataset("missing".into()))
        );
        assert_eq!(rx.recv().unwrap(), 1);
        s.run_job(1);
        assert_eq!(s.submit_fit("d", params()).unwrap(), "job-000002");
        assert_eq!(s.list_jobs().len(), 2);
    }

    #[test]
    fn run_job_fits_publishes_and_promotes() {
        let (s, rx) = state("run", 2);
        s.put_dataset("d", toy_points());
        let id = s.submit_fit("d", params()).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        s.run_job(1);
        match s.job(&id).unwrap().state {
            JobState::Done { generation, .. } => assert_eq!(generation, 1),
            other => panic!("expected Done, got {other:?}"),
        }
        let (g, model) = s.serving_model().unwrap().unwrap();
        assert_eq!(g, 1);
        assert_eq!(model.clusters().len(), 2);
        let (gens, current) = s.registry_view();
        assert_eq!(gens, vec![1]);
        assert_eq!(current, Some(1));
        std::fs::remove_dir_all(&s.config().registry_dir).unwrap();
    }

    #[test]
    fn bad_params_fail_the_job_not_the_server() {
        let (s, _rx) = state("badparams", 2);
        s.put_dataset("d", toy_points());
        let id = s
            .submit_fit(
                "d",
                FitParams {
                    k: 0,
                    l: 2.0,
                    seed: 1,
                    restarts: 1,
                },
            )
            .unwrap();
        s.run_job(1);
        match s.job(&id).unwrap().state {
            JobState::Failed { error } => assert!(!error.is_empty()),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_refuses_new_jobs_and_disconnects_the_worker() {
        let (s, rx) = state("drain", 2);
        s.put_dataset("d", toy_points());
        s.submit_fit("d", params()).unwrap();
        s.begin_shutdown();
        assert!(s.is_draining());
        assert_eq!(s.submit_fit("d", params()), Err(SubmitError::ShuttingDown));
        // The queued job is still deliverable; after it the channel is
        // disconnected — exactly the worker's drain-then-exit loop.
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(rx.recv().is_err());
    }

    /// A publish holds the registry mutex through its fsync'd writes;
    /// requests for the cached generation must not queue behind it.
    #[test]
    fn serving_model_does_not_wait_for_the_registry_lock() {
        let (s, _rx) = state("nolock", 2);
        s.put_dataset("d", toy_points());
        s.submit_fit("d", params()).unwrap();
        s.run_job(1);
        assert_eq!(s.serving_model().unwrap().unwrap().0, 1);

        let held = lock(&s.registry);
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = Arc::clone(&s);
        let t = std::thread::spawn(move || {
            let served = reader.serving_model().map(|m| m.map(|(g, _)| g));
            let _ = tx.send(served);
        });
        let served = rx.recv_timeout(std::time::Duration::from_secs(30));
        drop(held);
        t.join().unwrap();
        assert!(
            matches!(served, Ok(Ok(Some(1)))),
            "serving_model blocked on or failed under the registry lock: {served:?}"
        );
        std::fs::remove_dir_all(&s.config().registry_dir).unwrap();
    }

    #[test]
    fn serving_model_follows_cross_handle_promotions() {
        let (s, _rx) = state("follow", 2);
        assert!(s.serving_model().unwrap().is_none());
        s.put_dataset("d", toy_points());
        s.submit_fit("d", params()).unwrap();
        s.run_job(1);
        let (g1, _) = s.serving_model().unwrap().unwrap();
        assert_eq!(g1, 1);
        // Another process publishes generation 2 directly.
        let (mut other, _) = ModelRegistry::open(&s.config().registry_dir).unwrap();
        let model = s.load_generation(1).unwrap();
        other.publish(&model).unwrap();
        let (g2, _) = s.serving_model().unwrap().unwrap();
        assert_eq!(g2, 2, "promotion by another handle must be visible");
        std::fs::remove_dir_all(&s.config().registry_dir).unwrap();
    }
}
