//! The placement daemon: TCP acceptor, bounded job queue, worker pool,
//! result cache.
//!
//! ```text
//!            ┌────────────┐   bounded sync_channel    ┌──────────┐
//!  TCP ──────► connection │ ──── Job {circuit, ...} ──► worker 0..N
//!  clients   │  handlers  │ ◄─── JobDone {report} ──── │ run_portfolio
//!            └────────────┘     (per-job channel)      └────┬─────┘
//!                 ▲                                         │
//!                 └──────────── LRU result cache ◄──────────┘
//!                                     ▲
//!                    durable job journal (enqueue/complete)
//! ```
//!
//! Determinism contract: a job's report body is
//! [`apls_portfolio::PortfolioReport::to_json_deterministic`] — a pure
//! function of `(circuit, config, seed)` — so responses are byte-identical
//! regardless of worker count, queue depth, arrival order, or whether the
//! cache served them. Jobs without a pinned seed get one from
//! [`SeedStream::seed_for`]`(JOB_SEED_LANE, job_index)` where `job_index`
//! counts accepted jobs from 0, so replaying a job log against a fresh
//! service reproduces every report bit for bit.
//!
//! Fault tolerance (see DESIGN.md §12): the optional [`crate::journal`]
//! extends the replay guarantee across a crash — completed reports are
//! restored into the cache at startup and incomplete jobs are re-solved with
//! their recorded seeds. Worker panics are caught per job
//! (`catch_unwind`), answered as `{"status":"error","kind":"internal"}`,
//! and never poison shared state ([`crate::sync::lock_or_recover`]); a
//! panic that escapes the job boundary respawns the worker loop in place.
//! Per-job deadlines cancel cooperatively between restarts and answer
//! `{"status":"timeout"}`. A deterministic [`FaultPlan`] can inject worker
//! panics, forced-slow solves, journal write failures and connection drops
//! at pinned points for testing.

use crate::cache::LruCache;
use crate::fault::FaultPlan;
use crate::journal::{Journal, JournalConfig, JournalRecord, Recovery};
use crate::json::{quote, Json};
use crate::metrics::ServiceMetrics;
#[cfg(unix)]
use crate::poller::{new_poller, Interest, PollEvent, Poller, WakePipe, WakeSender};
use crate::protocol::{CircuitSource, JobSpec};
use crate::sync::{lock_or_recover, poison_recoveries};
use apls_anneal::rng::SeedStream;
use apls_circuit::benchmarks::{self, BenchmarkCircuit};
use apls_io::{canonical_hash, serialize_circuit};
use apls_portfolio::{
    run_portfolio_observed, CancelToken, CoreBudget, PortfolioConfig, RestartObserver,
    RestartRecord,
};
use apls_telemetry::{FlightRecorder, Telemetry};
use std::collections::VecDeque;
use std::io::Read;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The seed-stream lane job seeds derive from (engines use lanes 1–5 of
/// their per-job streams; this lane lives in the *service's* stream, rooted
/// at [`ServiceConfig::seed`]).
pub const JOB_SEED_LANE: u64 = 0x10B;

/// Wire-protocol version reported by `ping`.
pub const PROTOCOL_VERSION: u32 = 1;

/// How long a connection handler waits for bytes before re-checking the
/// shutdown flag. Bounds shutdown latency for idle connections.
const READ_TICK: Duration = Duration::from_millis(200);

/// Default for [`ServiceConfig::max_request_bytes`]. Inline `.apls` circuits
/// are the big case (~30 bytes per module line); 16 MiB fits circuits three
/// orders of magnitude beyond the largest bundled benchmark while bounding
/// what one peer can make the daemon buffer.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 16 * 1024 * 1024;

/// Default for [`ServiceConfig::max_connections`]; beyond the limit, new
/// connections are refused with an error line so a connection flood cannot
/// exhaust threads.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// How long the (nonblocking) acceptor sleeps between polls when no
/// readiness poller is available (non-Unix, or poller setup failed). With a
/// poller, the acceptor blocks on readiness and a self-pipe wakeup replaces
/// the tick entirely.
const ACCEPT_TICK: Duration = Duration::from_millis(50);

/// How the service maps connections to execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// One reactor thread owns the listener and every connection behind a
    /// readiness poller (epoll on Linux, `poll(2)` elsewhere): nonblocking
    /// reads/writes, per-connection buffers, backpressure via interest
    /// re-registration. Thousands of held-open connections cost buffers, not
    /// threads. The default; platforms without a poller (non-Unix) fall back
    /// to [`ServeMode::LegacyThreads`] transparently.
    #[default]
    EventLoop,
    /// The pre-reactor shape: one blocking handler thread per connection.
    /// Kept as an escape hatch (`apls serve --legacy-threads`) and as the
    /// portable fallback.
    LegacyThreads,
}

impl ServeMode {
    /// The `stats` wire name of the mode.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ServeMode::EventLoop => "event_loop",
            ServeMode::LegacyThreads => "legacy_threads",
        }
    }
}

/// Configuration of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind (`0` = ephemeral, see
    /// [`PlacementService::local_addr`]).
    pub port: u16,
    /// Worker threads executing placement jobs.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue answers `retry`.
    pub queue_capacity: usize,
    /// Result-cache entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Root of the service seed stream for jobs without a pinned seed.
    pub seed: u64,
    /// Test/bench hook: artificial extra latency per computed (non-cached)
    /// job, simulating heavier circuits than the suite can afford to run.
    pub job_delay: Option<Duration>,
    /// Concurrent connections served at once (default
    /// [`DEFAULT_MAX_CONNECTIONS`]).
    pub max_connections: usize,
    /// Largest accepted request line (default
    /// [`DEFAULT_MAX_REQUEST_BYTES`]); an oversized line is answered with
    /// `{"status":"error","kind":"request_too_large"}` and the connection
    /// closed.
    pub max_request_bytes: usize,
    /// Optional durable job journal; see [`crate::journal`]. `None` keeps
    /// the pre-journal in-memory behaviour.
    pub journal: Option<JournalConfig>,
    /// Deterministic fault injection (tests/CI only; the CLI additionally
    /// requires the `APLS_FAULT_INJECTION=1` environment guard).
    pub fault_plan: Option<FaultPlan>,
    /// Connection-handling architecture (default [`ServeMode::EventLoop`];
    /// falls back to [`ServeMode::LegacyThreads`] where no readiness poller
    /// exists).
    pub mode: ServeMode,
    /// Optional HTTP sidecar address (`host:port`) exposing Prometheus
    /// `/metrics`, `/healthz` and `/readyz`. `None` (the default) serves no
    /// HTTP endpoint.
    pub metrics_addr: Option<String>,
    /// Flight-recorder ring capacity in events; `0` disables the recorder.
    /// The default keeps a small always-on ring so every daemon can produce
    /// a postmortem dump.
    pub flight_recorder: usize,
    /// Where flight-recorder dumps land (and, via `<path>.a`/`<path>.b`,
    /// the crash-survivable spill ring). `None` dumps to a per-process file
    /// in the system temp directory and keeps no spill.
    pub flight_recorder_path: Option<PathBuf>,
}

/// Default flight-recorder ring capacity (events).
pub const DEFAULT_FLIGHT_RECORDER_CAPACITY: usize = 2048;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 128,
            seed: 1,
            job_delay: None,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            journal: None,
            fault_plan: None,
            mode: ServeMode::default(),
            metrics_addr: None,
            flight_recorder: DEFAULT_FLIGHT_RECORDER_CAPACITY,
            flight_recorder_path: None,
        }
    }
}

/// The result-cache key: full canonical content, not hashes, so a 64-bit
/// hash collision can never serve one client another circuit's report.
/// (`HashMap` hashes the strings internally; equality compares the bytes.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Canonical `.apls` text of the circuit.
    circuit: String,
    /// Canonical string of every result-relevant config field.
    config: String,
    /// The job's root seed.
    seed: u64,
}

/// One queued placement job.
struct Job {
    /// Arrival-order job index (the envelope's `id`, the journal's `index`).
    index: u64,
    circuit: BenchmarkCircuit,
    /// The resolved, serial-by-default configuration; the worker widens it
    /// to `width` at dispatch.
    config: PortfolioConfig,
    /// Threads the solve may use at once, its own included
    /// ([`JobSpec::core_cap`]).
    width: usize,
    cache_key: CacheKey,
    /// Cooperative deadline; an expired job answers `timeout`.
    deadline: Option<Instant>,
    enqueued: Instant,
    respond: Responder,
    /// Streamed jobs get per-restart `progress` messages; plain jobs only
    /// the final [`JobMsg::Done`].
    streaming: bool,
}

/// Why a job produced no report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobFailure {
    /// The solve panicked; the worker caught it and kept running.
    Panic,
    /// The job expired its deadline before completing.
    Timeout,
}

/// What a worker hands back to the connection handler.
pub(crate) struct JobDone {
    /// The deterministic report (with its cache-hit flag), or why there is
    /// none.
    pub(crate) outcome: Result<(String, bool), JobFailure>,
    pub(crate) queue_ms: f64,
    pub(crate) solve_ms: f64,
}

/// A worker-to-responder message for one job.
pub(crate) enum JobMsg {
    /// One restart of a streamed job completed (plan order).
    Progress {
        /// Engine that ran the restart.
        engine: &'static str,
        /// Restart number within that engine.
        restart: usize,
        /// Restarts completed so far (1-based).
        completed: usize,
        /// Planned total restarts.
        total: usize,
        /// The restart's placement cost.
        cost: f64,
    },
    /// The job finished (report, timeout or panic).
    Done(JobDone),
}

/// Where a worker delivers a job's messages.
pub(crate) enum Responder {
    /// A blocking handler thread waiting on a per-job channel
    /// (legacy-threads mode, and the recovery replay's throwaway channel).
    Sync(mpsc::Sender<JobMsg>),
    /// The reactor's completion queue plus its wakeup pipe (event-loop
    /// mode): workers never touch connection sockets, they hand the message
    /// to the reactor thread that owns them.
    #[cfg(unix)]
    Reactor(Arc<CompletionQueue>),
}

impl Responder {
    /// Delivers one message for job `index`. Best-effort: a vanished
    /// receiver (client hung up, reactor shut down) is not an error.
    pub(crate) fn send(&self, index: u64, msg: JobMsg) {
        match self {
            Responder::Sync(tx) => {
                let _ = index;
                let _ = tx.send(msg);
            }
            #[cfg(unix)]
            Responder::Reactor(completions) => completions.push(index, msg),
        }
    }
}

/// The reactor's inbound queue of job messages, shared with every worker.
/// Pushing wakes the reactor out of its readiness poll via the self-pipe.
#[cfg(unix)]
pub(crate) struct CompletionQueue {
    queue: Mutex<VecDeque<(u64, JobMsg)>>,
    wake: WakeSender,
}

#[cfg(unix)]
impl CompletionQueue {
    pub(crate) fn new(wake: WakeSender) -> CompletionQueue {
        CompletionQueue { queue: Mutex::new(VecDeque::new()), wake }
    }

    fn push(&self, index: u64, msg: JobMsg) {
        lock_or_recover(&self.queue).push_back((index, msg));
        self.wake.wake();
    }

    /// Takes everything queued so far (reactor thread only).
    pub(crate) fn drain(&self) -> Vec<(u64, JobMsg)> {
        lock_or_recover(&self.queue).drain(..).collect()
    }
}

/// The sending half of the job queue plus the arrival-order job counter,
/// behind one mutex so that (index assignment, enqueue, journal append) is
/// atomic: a rejected job never consumes an index and journal records appear
/// in index order, which keeps derived seeds replayable.
struct EnqueueSlot {
    next_index: u64,
    tx: SyncSender<Job>,
}

/// State shared by the acceptor/reactor, handlers and workers.
pub(crate) struct Shared {
    pub(crate) config: ServiceConfig,
    seeds: SeedStream,
    started: Instant,
    pub(crate) shutdown: AtomicBool,
    jobs_completed: AtomicU64,
    cache_hits: AtomicU64,
    cache: Mutex<LruCache<CacheKey, String>>,
    enqueue: Mutex<Option<EnqueueSlot>>,
    journal: Option<Journal>,
    pub(crate) fault: Option<Arc<FaultPlan>>,
    pub(crate) telemetry: Telemetry,
    pub(crate) metrics: ServiceMetrics,
    /// The daemon's cores, one per worker: a solving worker holds one, and
    /// its job's restart lanes borrow the idle ones (DESIGN.md §6.1).
    cores: CoreBudget,
    /// The always-on flight recorder (absent when `flight_recorder == 0`).
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    /// True while the journal-recovery replay thread is still re-enqueueing
    /// pre-crash jobs; `/readyz` answers 503 until this clears.
    pub(crate) recovery_pending: AtomicBool,
    /// Self-pipe sender: wakes the reactor (or poller-backed acceptor) out
    /// of its readiness wait on shutdown and on job completion.
    #[cfg(unix)]
    wake: Option<WakeSender>,
    /// Event-loop mode only: the reactor's completion queue; workers push
    /// job messages here instead of per-job channels.
    #[cfg(unix)]
    completions: Option<Arc<CompletionQueue>>,
}

impl Shared {
    /// The reactor's completion queue (event-loop mode only).
    #[cfg(unix)]
    pub(crate) fn completions(&self) -> Option<Arc<CompletionQueue>> {
        self.completions.clone()
    }

    /// Appends a journal record, degrading to non-durable on failure: the
    /// job is answered either way, the failure is counted and traced, and
    /// the flight recorder captures the moments leading up to it.
    fn journal_append(&self, record: &JournalRecord<'_>) {
        let Some(journal) = &self.journal else { return };
        match journal.append(record) {
            Ok(()) => self.metrics.journal_records_total.inc(),
            Err(e) => {
                self.metrics.journal_write_failures_total.inc();
                apls_telemetry::event!(
                    self.telemetry,
                    "service",
                    "journal_write_failure",
                    error = e.to_string()
                );
                self.dump_flight("journal_write_failure");
            }
        }
    }

    /// Where flight-recorder dumps land: the configured path, or a
    /// per-process file under the system temp directory.
    pub(crate) fn flight_dump_path(&self) -> PathBuf {
        self.config.flight_recorder_path.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("apls-flight-{}.jsonl", std::process::id()))
        })
    }

    /// Best-effort postmortem capture: writes the flight-recorder ring to
    /// disk. Called on worker panics and fault-injection trips; failures are
    /// swallowed (a crash path must not crash harder).
    pub(crate) fn dump_flight(&self, reason: &str) {
        let Some(recorder) = &self.recorder else { return };
        let path = self.flight_dump_path();
        if let Ok(events) = recorder.dump_to(&path) {
            self.metrics.flight_dumps_total.inc();
            apls_telemetry::event!(
                self.telemetry,
                "service",
                "flight_dump",
                reason = reason.to_string(),
                events = events as u64
            );
        }
    }

    /// Readiness for `/readyz`: the journal-recovery replay has finished
    /// re-enqueueing and the job queue sits below its high-water mark
    /// (90% of capacity), i.e. the instance can absorb new work.
    pub(crate) fn is_ready(&self) -> (bool, &'static str) {
        if self.recovery_pending.load(Ordering::SeqCst) {
            return (false, "recovery replay in progress");
        }
        let capacity = self.config.queue_capacity as i64;
        let high_water = (capacity * 9 / 10).max(1);
        if self.metrics.queue_depth.get() >= high_water {
            return (false, "job queue above high-water");
        }
        (true, "ready")
    }

    /// Uptime in whole seconds, refreshing the sampled gauges (uptime and
    /// the core budget) as a side effect so both `stats` snapshots and
    /// `/metrics` scrapes see current values.
    pub(crate) fn refresh_gauges(&self) -> u64 {
        let uptime = self.started.elapsed().as_secs();
        self.metrics.uptime_seconds.set(uptime as i64);
        self.metrics.cores_busy.set(self.cores.busy() as i64);
        self.metrics.cores_lent_total.raise_to(self.cores.lent_total());
        uptime
    }
}

/// A running placement service.
///
/// # Example
///
/// ```
/// use apls_service::{JobSpec, PlacementService, ServiceClient, ServiceConfig};
///
/// let service = PlacementService::start(ServiceConfig::default()).expect("binds");
/// let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
/// let spec = JobSpec::bundled("miller_opamp_fig6").with_seed(7).with_restarts(1).with_fast(true);
/// let response = client.place(&spec).expect("round-trips");
/// assert!(response.is_ok());
/// service.shutdown();
/// service.join();
/// ```
pub struct PlacementService {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    recovery: Option<JoinHandle<()>>,
    metrics_server: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl PlacementService {
    /// Binds the listener and spawns the acceptor and worker threads.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable, or the
    /// journal open/replay error when a configured journal cannot be used.
    ///
    /// # Panics
    ///
    /// Panics when `workers` or `queue_capacity` is zero.
    pub fn start(config: ServiceConfig) -> std::io::Result<PlacementService> {
        PlacementService::start_with_telemetry(config, Telemetry::disabled())
    }

    /// [`PlacementService::start`] with a telemetry handle threaded through
    /// the request lifecycle and into every placement job. Observe-only:
    /// report bodies are byte-identical whatever collector is installed.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable, or the
    /// journal open/replay error when a configured journal cannot be used.
    ///
    /// # Panics
    ///
    /// Panics when `workers` or `queue_capacity` is zero.
    pub fn start_with_telemetry(
        config: ServiceConfig,
        telemetry: Telemetry,
    ) -> std::io::Result<PlacementService> {
        assert!(config.workers >= 1, "service needs at least one worker");
        assert!(config.queue_capacity >= 1, "service needs a queue depth of at least 1");
        let mut config = config;
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let local_addr = listener.local_addr()?;
        // Bind the observability sidecar before spawning anything so a bad
        // --metrics-addr fails the whole start instead of leaking threads.
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr.as_str())?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };

        // The always-on flight recorder: a bounded ring of service/reactor
        // events teed under whatever collector the caller installed, plus an
        // optional crash-survivable disk spill.
        let recorder = if config.flight_recorder > 0 {
            let mut recorder = FlightRecorder::new(config.flight_recorder)
                .with_categories(&["service", "reactor"]);
            if let Some(path) = &config.flight_recorder_path {
                recorder = recorder.with_spill(path)?;
            }
            Some(Arc::new(recorder))
        } else {
            None
        };
        let telemetry = match &recorder {
            Some(recorder) => {
                telemetry.tee(Arc::clone(recorder) as Arc<dyn apls_telemetry::Collector>)
            }
            None => telemetry,
        };

        // Readiness infrastructure: poller + self-pipe. Event-loop mode needs
        // both; legacy mode uses them (when available) only to replace the
        // acceptor's sleep tick with a blocking readiness wait. A platform
        // where either fails degrades to legacy threads transparently.
        #[cfg(unix)]
        let event_infra: Option<(Box<dyn Poller>, WakePipe)> = match (new_poller(), WakePipe::new())
        {
            (Ok(poller), Ok(pipe)) => Some((poller, pipe)),
            _ => None,
        };
        #[cfg(unix)]
        if event_infra.is_none() {
            config.mode = ServeMode::LegacyThreads;
        }
        #[cfg(not(unix))]
        {
            config.mode = ServeMode::LegacyThreads;
        }
        #[cfg(unix)]
        let wake = event_infra.as_ref().map(|(_, pipe)| pipe.sender());
        #[cfg(unix)]
        let completions = match (config.mode, &wake) {
            (ServeMode::EventLoop, Some(wake)) => {
                Some(Arc::new(CompletionQueue::new(wake.clone())))
            }
            _ => None,
        };

        let fault = config.fault_plan.clone().filter(|p| !p.is_empty()).map(Arc::new);
        let (journal, recovered) = match &config.journal {
            Some(journal_config) => {
                let (journal, recovery) = Journal::open(journal_config, fault.clone())?;
                (Some(journal), Some(recovery))
            }
            None => (None, None),
        };

        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_capacity);
        let recovery_tx = tx.clone();
        let next_index = recovered.as_ref().map_or(0, |r| r.next_index);
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(Shared {
            seeds: SeedStream::new(config.seed),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            jobs_completed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            enqueue: Mutex::new(Some(EnqueueSlot { next_index, tx })),
            journal,
            fault,
            telemetry,
            metrics: ServiceMetrics::new(),
            cores: CoreBudget::new(config.workers),
            recorder,
            recovery_pending: AtomicBool::new(false),
            #[cfg(unix)]
            wake,
            #[cfg(unix)]
            completions,
            config,
        });
        #[cfg(unix)]
        let poller_backend = event_infra.as_ref().map_or("none", |(poller, _)| poller.name());
        #[cfg(not(unix))]
        let poller_backend = "none";
        shared.metrics.registry.set_info(
            "build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("git", env!("APLS_GIT_HASH")),
                ("poller", poller_backend),
            ],
        );

        let workers = (0..shared.config.workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    // In-place respawn supervisor: per-job panics are caught
                    // inside worker_loop; if one nonetheless escapes (a bug
                    // in the loop itself), the worker re-enters the loop
                    // instead of dying and silently shrinking the pool.
                    loop {
                        match catch_unwind(AssertUnwindSafe(|| worker_loop(&rx, &shared))) {
                            Ok(()) => break, // queue closed and drained: shutdown
                            Err(_) => {
                                shared.metrics.worker_respawns_total.inc();
                                if shared.shutdown.load(Ordering::SeqCst) {
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let recovery =
            recovered.and_then(|recovery| replay_recovered_jobs(recovery, &shared, recovery_tx));
        let acceptor = {
            let shared = Arc::clone(&shared);
            #[cfg(unix)]
            {
                let infra = event_infra;
                Some(std::thread::spawn(move || match (shared.config.mode, infra) {
                    (ServeMode::EventLoop, Some((poller, pipe))) => {
                        crate::reactor::run(&listener, &shared, poller, pipe);
                    }
                    (_, infra) => accept_loop(&listener, &shared, infra),
                }))
            }
            #[cfg(not(unix))]
            {
                Some(std::thread::spawn(move || accept_loop(&listener, &shared, None)))
            }
        };
        let metrics_server =
            metrics_listener.map(|listener| crate::http::spawn(listener, Arc::clone(&shared)));
        Ok(PlacementService {
            local_addr,
            metrics_addr,
            shared,
            acceptor,
            recovery,
            metrics_server,
            workers,
        })
    }

    /// The bound address (with the actual port when an ephemeral one was
    /// requested).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound HTTP observability address, when
    /// [`ServiceConfig::metrics_addr`] was set.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Initiates a graceful shutdown: stop accepting, drain the queue, let
    /// in-flight responses go out. Idempotent; [`PlacementService::join`]
    /// waits for completion.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared, self.local_addr);
    }

    /// Blocks until the service has shut down (via
    /// [`PlacementService::shutdown`] or a client `shutdown` request) and
    /// every thread has exited.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(recovery) = self.recovery.take() {
            let _ = recovery.join();
        }
        if let Some(metrics_server) = self.metrics_server.take() {
            let _ = metrics_server.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(journal) = &self.shared.journal {
            journal.sync();
        }
    }
}

impl Drop for PlacementService {
    fn drop(&mut self) {
        self.shutdown();
        self.join_threads();
    }
}

/// Restores completed journaled jobs into the cache and re-enqueues
/// incomplete ones (in index order, with their recorded seeds) on a
/// background thread, so startup does not block behind a queue-capacity's
/// worth of replayed solves.
fn replay_recovered_jobs(
    recovery: Recovery,
    shared: &Arc<Shared>,
    tx: SyncSender<Job>,
) -> Option<JoinHandle<()>> {
    if recovery.torn_lines > 0 {
        // a torn tail is expected after a mid-write crash; the partial
        // record's job simply counts as incomplete and is replayed
        apls_telemetry::event!(
            shared.telemetry,
            "service",
            "journal_torn_tail",
            lines = recovery.torn_lines as u64
        );
    }
    let mut pending: Vec<Job> = Vec::new();
    for job in recovery.jobs {
        let Ok(circuit) = resolve_circuit(&job.spec.circuit) else {
            apls_telemetry::event!(shared.telemetry, "service", "recovery_skip", id = job.index);
            continue;
        };
        let circuit_canonical = serialize_circuit(&circuit);
        // Integrity gate: a record whose fingerprints no longer match its
        // spec (bit rot, foreign journal) must not poison the cache.
        if canonical_hash(&circuit_canonical) != job.circuit_hash
            || job.spec.config_fingerprint() != job.config_fp
        {
            apls_telemetry::event!(shared.telemetry, "service", "recovery_skip", id = job.index);
            continue;
        }
        let cache_key = CacheKey {
            circuit: circuit_canonical,
            config: job.spec.config_canonical(),
            seed: job.seed,
        };
        match job.report {
            Some(report) => {
                lock_or_recover(&shared.cache).insert(cache_key, report);
                shared.metrics.jobs_recovered_total.inc();
            }
            None => {
                // The receiving half is dropped immediately: nobody waits
                // for a replayed job's response, its purpose is the journal
                // completion record and the cache entry it leaves behind.
                let (done_tx, _) = mpsc::channel();
                pending.push(Job {
                    index: job.index,
                    config: job.spec.resolved_config(job.seed),
                    width: job.spec.core_cap(shared.config.workers),
                    circuit,
                    cache_key,
                    deadline: None,
                    enqueued: Instant::now(),
                    respond: Responder::Sync(done_tx),
                    streaming: false,
                });
                shared.metrics.jobs_replayed_total.inc();
            }
        }
    }
    if pending.is_empty() {
        return None;
    }
    // `/readyz` answers 503 until the replay has re-enqueued everything.
    shared.recovery_pending.store(true, Ordering::SeqCst);
    let shared = Arc::clone(shared);
    Some(std::thread::spawn(move || {
        for job in pending {
            shared.metrics.queue_depth.add(1);
            if tx.send(job).is_err() {
                // shutdown before the replay drained; the journal still
                // holds the enqueue records, the next start finishes the job
                shared.metrics.queue_depth.sub(1);
                break;
            }
        }
        shared.recovery_pending.store(false, Ordering::SeqCst);
    }))
}

pub(crate) fn initiate_shutdown(shared: &Shared, local_addr: SocketAddr) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Dropping the only SyncSender lets the workers drain the queue and exit.
    lock_or_recover(&shared.enqueue).take();
    // The self-pipe pops the reactor (or the poller-backed acceptor) out of
    // its readiness wait immediately — no loopback round trip needed.
    #[cfg(unix)]
    if let Some(wake) = &shared.wake {
        wake.wake();
        return;
    }
    // Best-effort accelerator: a throwaway connection makes a (blocking)
    // acceptor observe the flag immediately. The nonblocking acceptor's poll
    // tick bounds shutdown latency even when this connect cannot succeed.
    let mut wake = local_addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect(wake);
}

/// The legacy acceptor's optional readiness infrastructure: a poller watching
/// the listener plus the self-pipe that replaces the sleep tick.
#[cfg(unix)]
type AcceptInfra = Option<(Box<dyn Poller>, WakePipe)>;
#[cfg(not(unix))]
type AcceptInfra = Option<()>;

/// The refusal line written when [`ServiceConfig::max_connections`] live
/// connections already exist.
pub(crate) const OVERLOADED_LINE: &[u8] =
    b"{\"status\":\"error\",\"kind\":\"overloaded\",\"error\":\"connection limit reached, retry later\"}\n";

/// The reactor's escape hatch when its own setup fails after spawn: serve
/// with blocking handler threads (and the sleep-tick acceptor) instead of
/// not serving at all.
#[cfg(unix)]
pub(crate) fn accept_loop_fallback(listener: &TcpListener, shared: &Arc<Shared>) {
    accept_loop(listener, shared, None);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, infra: AcceptInfra) {
    // Nonblocking accept so observing the shutdown flag never depends on the
    // wake-up self-connect reaching the listener (it may not, e.g. for
    // 0.0.0.0 binds on platforms that don't route them to loopback). With a
    // poller + self-pipe we block on readiness between bursts; without, we
    // fall back to the ACCEPT_TICK sleep poll.
    let nonblocking = listener.set_nonblocking(true).is_ok();
    #[cfg(unix)]
    let mut infra = infra.and_then(|(mut poller, pipe)| {
        use std::os::unix::io::AsRawFd;
        let listener_ok = nonblocking
            && poller.register(listener.as_raw_fd(), 0, Interest::READ).is_ok()
            && poller.register(pipe.fd(), 1, Interest::READ).is_ok();
        if listener_ok {
            shared.metrics.poller_registered_fds.set(2);
            Some((poller, pipe, Vec::<PollEvent>::new()))
        } else {
            None
        }
    });
    #[cfg(not(unix))]
    let _ = infra;
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut accepted: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                accept_one(stream, shared, &mut accepted, &mut handlers);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                #[cfg(unix)]
                if let Some((poller, pipe, events)) = infra.as_mut() {
                    match poller.poll(events, None) {
                        Ok(n) => {
                            if n > 0 {
                                shared.metrics.readiness_wakeups_total.inc();
                            }
                            pipe.drain();
                            continue;
                        }
                        Err(_) => {
                            // poller went bad mid-run: degrade to sleep ticks
                            shared.metrics.poller_registered_fds.set(0);
                            infra = None;
                        }
                    }
                }
                std::thread::sleep(ACCEPT_TICK);
            }
            Err(_) => {
                if !nonblocking {
                    // a blocking accept that errors repeatedly must not spin
                    std::thread::sleep(ACCEPT_TICK);
                }
            }
        }
    }
    shared.metrics.poller_registered_fds.set(0);
    for handler in handlers {
        let _ = handler.join();
    }
    shared.metrics.handler_threads.set(0);
}

/// Admits (or refuses) one accepted connection in legacy-threads mode.
fn accept_one(
    stream: TcpStream,
    shared: &Arc<Shared>,
    accepted: &mut u64,
    handlers: &mut Vec<JoinHandle<()>>,
) {
    let connection = *accepted;
    *accepted += 1;
    if shared.fault.as_ref().is_some_and(|plan| plan.drop_connection(connection)) {
        shared.metrics.connections_dropped_total.inc();
        return; // dropping the stream closes it mid-handshake
    }
    // reap finished handlers so a long-running daemon holds handles (and
    // memory) only for *live* connections, not every connection ever seen
    handlers.retain(|h| !h.is_finished());
    if handlers.len() >= shared.config.max_connections {
        let mut stream = stream;
        let _ = stream.set_nonblocking(false);
        let _ = stream.write_all(OVERLOADED_LINE);
        shared.metrics.handler_threads.set(handlers.len() as i64);
        return; // dropping the stream closes it
    }
    let handler_shared = Arc::clone(shared);
    handlers.push(std::thread::spawn(move || handle_connection(stream, &handler_shared)));
    shared.metrics.handler_threads.set(handlers.len() as i64);
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, shared: &Shared) {
    loop {
        // Holding the lock while waiting is fine: the holder takes the next
        // job and releases before solving, so dequeueing is serialised but
        // solving is parallel.
        let job = match lock_or_recover(rx).recv() {
            Ok(job) => job,
            Err(_) => break, // queue closed and drained: shutdown
        };
        shared.metrics.queue_depth.sub(1);
        shared.metrics.in_flight.add(1);
        let queue_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
        shared.metrics.queue_ms.observe(queue_ms);
        let solve_start = Instant::now();

        let outcome = execute_job(&job, shared, queue_ms);
        match &outcome {
            Ok((report, _)) => {
                shared.journal_append(&JournalRecord::Complete {
                    index: job.index,
                    report_fp: canonical_hash(report),
                    report,
                });
                shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(JobFailure::Timeout) => shared.metrics.timeouts_total.inc(),
            Err(JobFailure::Panic) => {
                shared.metrics.worker_panics_total.inc();
                // Postmortem capture: persist the events leading up to the
                // panic before the error envelope goes out.
                shared.dump_flight("worker_panic");
            }
        }
        shared.metrics.in_flight.sub(1);
        let solve_ms = solve_start.elapsed().as_secs_f64() * 1e3;
        shared.metrics.solve_ms.observe(solve_ms);
        let done = JobDone { outcome, queue_ms, solve_ms };
        // The handler may have hung up (client gone); nothing to do then.
        job.respond.send(job.index, JobMsg::Done(done));
    }
}

/// Relays per-restart progress of a streamed job to its responder while the
/// solve runs. Observe-only: the report body stays byte-identical.
struct ProgressRelay<'a> {
    respond: &'a Responder,
    index: u64,
}

impl RestartObserver for ProgressRelay<'_> {
    fn restart_complete(&self, record: &RestartRecord, completed: usize, total: usize) {
        self.respond.send(
            self.index,
            JobMsg::Progress {
                engine: record.engine.name(),
                restart: record.restart,
                completed,
                total,
                cost: record.cost,
            },
        );
    }
}

/// Runs one dequeued job to a report, a cache hit, or a failure — never a
/// panic: the solve is wrapped in `catch_unwind` so an engine crash (or an
/// injected one) is confined to this job.
fn execute_job(job: &Job, shared: &Shared, queue_ms: f64) -> Result<(String, bool), JobFailure> {
    // Re-check the cache after dequeue: back-to-back identical misses dedupe.
    let cached = lock_or_recover(&shared.cache).get(&job.cache_key).cloned();
    if let Some(report) = cached {
        shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        return Ok((report, true));
    }
    // A job that expired while queued is not worth starting.
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(JobFailure::Timeout);
    }
    if let Some(ms) = shared.fault.as_ref().and_then(|plan| plan.slow_solve_ms(job.index)) {
        std::thread::sleep(Duration::from_millis(ms));
    }
    if let Some(delay) = shared.config.job_delay {
        std::thread::sleep(delay);
    }
    // This worker's own core, held while it solves (released on unwind
    // too); whatever the budget has left idle, the job's lanes may borrow.
    let _core = shared.cores.hold();
    let solved = catch_unwind(AssertUnwindSafe(|| {
        if shared.fault.as_ref().is_some_and(|plan| plan.panic_on_job(job.index)) {
            panic!("fault injection: worker panic on job {}", job.index);
        }
        let mut span = apls_telemetry::span!(
            shared.telemetry,
            "service",
            "solve",
            circuit = job.circuit.name.as_str(),
            seed = job.config.root_seed
        );
        let cancel = job.deadline.map_or_else(CancelToken::none, CancelToken::with_deadline);
        let relay = ProgressRelay { respond: &job.respond, index: job.index };
        let observer = job.streaming.then_some(&relay as &dyn RestartObserver);
        // Widening never changes the body: restarts are pure functions of
        // their seeds and the runner aggregates in plan order.
        let config = job.config.clone().with_threads(job.width);
        let result = shared.cores.install(|| {
            run_portfolio_observed(&job.circuit, &config, &shared.telemetry, &cancel, observer)
        });
        if span.is_recording() {
            span.arg("queue_ms", queue_ms);
            span.arg("timed_out", result.is_err());
        }
        result
    }));
    match solved {
        Err(_) => Err(JobFailure::Panic),
        Ok(Err(_cancelled)) => Err(JobFailure::Timeout),
        Ok(Ok(report)) => {
            let report = report.to_json_deterministic();
            lock_or_recover(&shared.cache).insert(job.cache_key.clone(), report.clone());
            Ok((report, false))
        }
    }
}

/// Whether the handler keeps serving this connection after a request.
enum Flow {
    Continue,
    Close,
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    shared.metrics.connections_active.add(1);
    apls_telemetry::event!(shared.telemetry, "service", "accept");
    // A handler panic must not leak the active-connections slot.
    let _ = catch_unwind(AssertUnwindSafe(|| handle_connection_inner(stream, shared)));
    shared.metrics.connections_active.sub(1);
}

fn handle_connection_inner(stream: TcpStream, shared: &Arc<Shared>) {
    // accepted sockets can inherit the listener's nonblocking flag on some
    // platforms; the handler wants blocking reads with a timeout
    let _ = stream.set_nonblocking(false);
    // One-line request/response traffic is latency-bound: without NODELAY,
    // Nagle holds the reply until the peer's delayed ACK (~40 ms per turn).
    let _ = stream.set_nodelay(true);
    let Ok(()) = stream.set_read_timeout(Some(READ_TICK)) else { return };
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf: Vec<u8> = Vec::new();
    let max_request = shared.config.max_request_bytes;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // The `Take` adapter enforces the request cap *during* the read, so a
        // peer streaming bytes without newlines can never make the daemon
        // buffer more than max_request_bytes + 1 bytes. Partial data stays in
        // `buf` across read-timeout ticks.
        let limit = (max_request + 1 - buf.len()) as u64;
        match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(0) => break, // EOF
            Ok(_) => {
                if buf.len() > max_request {
                    let _ = writer
                        .write_all(format!("{}\n", oversized_response(max_request)).as_bytes());
                    break;
                }
                // under the cap and no newline means EOF arrived mid-line:
                // process what we have, the next read reports the EOF
                let Ok(text) = std::str::from_utf8(&buf) else {
                    let _ = writer.write_all(
                        format!(
                            "{}\n",
                            error_response("bad_request", "request is not valid UTF-8")
                        )
                        .as_bytes(),
                    );
                    break;
                };
                let request = text.trim();
                let flow = if request.is_empty() {
                    Flow::Continue
                } else {
                    let (mut response, flow) = process_request(request, shared, &writer);
                    response.push('\n');
                    let flush_start = Instant::now();
                    if writer.write_all(response.as_bytes()).and_then(|()| writer.flush()).is_err()
                    {
                        break;
                    }
                    // Legacy mode writes synchronously, so queued→flushed
                    // collapses to the write itself.
                    shared.metrics.flush_ms.observe(flush_start.elapsed().as_secs_f64() * 1e3);
                    flow
                };
                buf.clear();
                if matches!(flow, Flow::Close) {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                continue; // idle tick: re-check the shutdown flag
            }
            Err(_) => break,
        }
    }
}

pub(crate) fn oversized_response(max_request: usize) -> String {
    format!(
        "{{\"status\":\"error\",\"kind\":\"request_too_large\",\"error\":\"request exceeds {max_request} bytes, closing connection\"}}"
    )
}

pub(crate) fn error_response(kind: &str, message: &str) -> String {
    format!("{{\"status\":\"error\",\"kind\":{},\"error\":{}}}", quote(kind), quote(message))
}

pub(crate) fn timeout_response(id: u64, circuit: &str, seed: u64, deadline_ms: u64) -> String {
    format!(
        "{{\"status\":\"timeout\",\"kind\":\"deadline\",\"id\":{id},\"circuit\":{},\"seed\":{seed},\"error\":\"deadline of {deadline_ms} ms exceeded\"}}",
        quote(circuit),
    )
}

pub(crate) fn ping_response() -> String {
    format!("{{\"status\":\"ok\",\"service\":\"apls\",\"protocol\":{PROTOCOL_VERSION}}}")
}

// --- streaming frame builders -------------------------------------------
//
// Every frame is one JSON line tagged `"frame"` plus the client-chosen
// correlation `"id"`; the server job index travels as `"job"` (plain
// envelopes call it `"id"`). Report-frame field order past the tags matches
// the plain envelope exactly, so the report body (and its quoting) is
// byte-identical between the two paths.

pub(crate) fn accepted_frame(cid: u64, job: u64, circuit: &str, seed: u64) -> String {
    format!(
        "{{\"frame\":\"accepted\",\"id\":{cid},\"job\":{job},\"circuit\":{},\"seed\":{seed}}}",
        quote(circuit),
    )
}

pub(crate) fn queued_frame(cid: u64, depth: u64) -> String {
    format!("{{\"frame\":\"queued\",\"id\":{cid},\"depth\":{depth}}}")
}

pub(crate) fn progress_frame(
    cid: u64,
    engine: &str,
    restart: usize,
    completed: usize,
    total: usize,
    cost: f64,
) -> String {
    format!(
        "{{\"frame\":\"progress\",\"id\":{cid},\"engine\":{},\"restart\":{restart},\"completed\":{completed},\"total\":{total},\"cost\":{cost}}}",
        quote(engine),
    )
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn report_frame_ok(
    cid: u64,
    job: u64,
    circuit: &str,
    seed: u64,
    cache_hit: bool,
    queue_ms: f64,
    solve_ms: f64,
    total_ms: f64,
    report: &str,
) -> String {
    format!(
        "{{\"frame\":\"report\",\"id\":{cid},\"job\":{job},{}}}",
        ok_fields(circuit, seed, cache_hit, queue_ms, solve_ms, total_ms, report),
    )
}

pub(crate) fn report_frame_timeout(
    cid: u64,
    job: u64,
    circuit: &str,
    seed: u64,
    deadline_ms: u64,
) -> String {
    format!(
        "{{\"frame\":\"report\",\"id\":{cid},\"job\":{job},\"status\":\"timeout\",\"kind\":\"deadline\",\"circuit\":{},\"seed\":{seed},\"error\":\"deadline of {deadline_ms} ms exceeded\"}}",
        quote(circuit),
    )
}

pub(crate) fn report_frame_error(cid: u64, kind: &str, message: &str) -> String {
    format!(
        "{{\"frame\":\"report\",\"id\":{cid},\"status\":\"error\",\"kind\":{},\"error\":{}}}",
        quote(kind),
        quote(message),
    )
}

pub(crate) fn report_frame_retry(cid: u64) -> String {
    format!(
        "{{\"frame\":\"report\",\"id\":{cid},\"status\":\"retry\",\"error\":\"job queue full, retry later\"}}"
    )
}

/// Counts an error/retry outcome off the response line itself, so the
/// counters cannot drift from the protocol. Handles both plain envelopes and
/// report frames (whose status sits behind the frame tags). Timeouts are
/// counted at the worker, where expiry is detected.
pub(crate) fn count_response_outcome(shared: &Shared, response: &str) {
    let status_at = if response.starts_with("{\"status\":") {
        Some(1)
    } else if response.starts_with("{\"frame\":\"report\",") {
        // the status tags precede the report body, and inside the quoted
        // report every `"` is escaped, so the first match is the frame's own
        response.find("\"status\":")
    } else {
        None
    };
    let Some(at) = status_at else { return };
    let status = &response[at..];
    if status.starts_with("\"status\":\"error\"") {
        shared.metrics.errors_total.inc();
    } else if status.starts_with("\"status\":\"retry\"") {
        shared.metrics.retries_total.inc();
    }
}

fn process_request(line: &str, shared: &Arc<Shared>, writer: &TcpStream) -> (String, Flow) {
    shared.metrics.requests_total.inc();
    let (response, flow) = dispatch_request(line, shared, writer);
    // Centralised outcome accounting: every error/retry path funnels through
    // the envelope status, so the counters cannot drift from the protocol.
    count_response_outcome(shared, &response);
    (response, flow)
}

fn dispatch_request(line: &str, shared: &Arc<Shared>, writer: &TcpStream) -> (String, Flow) {
    let json = match Json::parse(line) {
        Ok(json) => json,
        Err(e) => {
            return (error_response("bad_request", &format!("invalid JSON: {e}")), Flow::Continue)
        }
    };
    let op = json.get("op").and_then(Json::as_str);
    apls_telemetry::event!(
        shared.telemetry,
        "service",
        "request",
        op = op.unwrap_or("(missing)").to_string()
    );
    match op {
        Some("ping") => (ping_response(), Flow::Continue),
        Some("stats") => (stats_response(shared), Flow::Continue),
        Some("dump") => (dump_response(shared), Flow::Continue),
        Some("shutdown") => {
            if let Ok(addr) = writer.local_addr() {
                initiate_shutdown(shared, addr);
            }
            ("{\"status\":\"shutting_down\"}".to_string(), Flow::Close)
        }
        Some("place") => (place(&json, shared, writer), Flow::Continue),
        Some(other) => (
            error_response(
                "bad_request",
                &format!("unknown op '{other}' (place, ping, stats, dump, shutdown)"),
            ),
            Flow::Continue,
        ),
        None => (error_response("bad_request", "request needs an 'op' field"), Flow::Continue),
    }
}

/// Handles the `dump` op: writes the flight-recorder ring to disk and
/// answers with where it landed and how much it held.
pub(crate) fn dump_response(shared: &Shared) -> String {
    let Some(recorder) = &shared.recorder else {
        return error_response("unavailable", "flight recorder is disabled (capacity 0)");
    };
    let path = shared.flight_dump_path();
    match recorder.dump_to(&path) {
        Ok(events) => {
            shared.metrics.flight_dumps_total.inc();
            apls_telemetry::event!(
                shared.telemetry,
                "service",
                "flight_dump",
                reason = "dump_op".to_string(),
                events = events as u64
            );
            format!(
                "{{\"status\":\"ok\",\"events\":{events},\"overwritten\":{},\"capacity\":{},\"path\":{}}}",
                recorder.overwritten(),
                recorder.capacity(),
                quote(&path.display().to_string()),
            )
        }
        Err(e) => error_response("internal", &format!("flight recorder dump failed: {e}")),
    }
}

pub(crate) fn stats_response(shared: &Shared) -> String {
    let (cache_stats, cache_entries) = {
        let cache = lock_or_recover(&shared.cache);
        (cache.stats(), cache.len())
    };
    let uptime_seconds = shared.refresh_gauges();
    let (ready, _) = shared.is_ready();
    format!(
        "{{\"status\":\"ok\",\"mode\":{},\"workers\":{},\"queue_capacity\":{},\"cache_capacity\":{},\"jobs_completed\":{},\"cache_hits\":{},\"cache_entries\":{},\"uptime_ms\":{:.0},\"uptime_seconds\":{},\"ready\":{},\"queue_depth\":{},\"in_flight\":{},\"connections\":{},\"telemetry_enabled\":{},\"journal_enabled\":{},\"poison_recoveries\":{},\"cache\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\"entries\":{},\"capacity\":{}}},\"metrics\":{}}}",
        quote(shared.config.mode.as_str()),
        shared.config.workers,
        shared.config.queue_capacity,
        shared.config.cache_capacity,
        shared.jobs_completed.load(Ordering::Relaxed),
        shared.cache_hits.load(Ordering::Relaxed),
        cache_entries,
        shared.started.elapsed().as_secs_f64() * 1e3,
        uptime_seconds,
        ready,
        shared.metrics.queue_depth.get(),
        shared.metrics.in_flight.get(),
        shared.metrics.connections_active.get(),
        shared.telemetry.is_enabled(),
        shared.journal.is_some(),
        poison_recoveries(),
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.insertions,
        cache_stats.evictions,
        cache_entries,
        shared.config.cache_capacity,
        shared.metrics.registry.snapshot_json(),
    )
}

/// The outcome of admitting a `place` request under the enqueue lock.
pub(crate) enum Admission {
    /// The service is shutting down; nothing was admitted.
    ShuttingDown,
    /// The bounded queue is full; nothing was admitted (no index consumed).
    QueueFull,
    /// A cache hit: the job consumed an index and is already complete
    /// (journaled Enqueue+Complete, counters bumped); no worker involved.
    Cached {
        /// The job's arrival-order index.
        index: u64,
        /// The resolved root seed.
        seed: u64,
        /// The cached deterministic report body.
        report: String,
    },
    /// The job was enqueued; its messages arrive via the responder.
    Enqueued {
        /// The job's arrival-order index.
        index: u64,
        /// The resolved root seed.
        seed: u64,
    },
}

/// Admits one `place` job: assigns the arrival-order index, resolves the
/// seed, probes the cache and journals — all atomically under the enqueue
/// lock, so derived seeds stay replay-stable whatever the outcome. Shared by
/// the legacy blocking handlers and the reactor; timing spans and `total_ms`
/// accounting stay with the caller.
pub(crate) fn admit_place(
    spec: &JobSpec,
    circuit: BenchmarkCircuit,
    shared: &Arc<Shared>,
    respond: Responder,
    streaming: bool,
    accepted: Instant,
) -> Admission {
    let circuit_canonical = serialize_circuit(&circuit);
    let circuit_hash = canonical_hash(&circuit_canonical);
    let config_canonical = spec.config_canonical();
    let deadline_ms = spec.deadline_ms;

    let mut guard = lock_or_recover(&shared.enqueue);
    let Some(slot) = guard.as_mut() else {
        return Admission::ShuttingDown;
    };
    let index = slot.next_index;
    let seed = spec.seed.unwrap_or_else(|| shared.seeds.seed_for(JOB_SEED_LANE, index));
    let config = spec.resolved_config(seed);
    let cache_key = CacheKey { circuit: circuit_canonical, config: config_canonical, seed };
    // The journaled spec is self-contained for replay: seed pinned to the
    // resolved value, deadline stripped (a replayed job deserves its full
    // time budget — the deadline bounded the original request's latency, not
    // the result), stream tags stripped (transport concerns, like the
    // deadline, are not part of what the job computes).
    let journal_spec = shared.journal.as_ref().map(|_| {
        let mut journal_spec = spec.clone();
        journal_spec.seed = Some(seed);
        journal_spec.deadline_ms = None;
        journal_spec.stream = None;
        journal_spec.stream_id = None;
        journal_spec.to_json_line()
    });
    let config_fp = spec.config_fingerprint();
    // Probe the cache here, before spending a queue slot: a hit is answered
    // even when the queue is full of multi-second solves. Hits still consume
    // a job index, exactly as enqueued jobs do, so derived seeds stay
    // replay-stable either way.
    let cached = lock_or_recover(&shared.cache).get(&cache_key).cloned();
    if let Some(report) = cached {
        slot.next_index += 1;
        if let Some(spec_line) = &journal_spec {
            shared.journal_append(&JournalRecord::Enqueue {
                index,
                seed,
                circuit_hash,
                config_fp,
                spec: spec_line,
            });
            shared.journal_append(&JournalRecord::Complete {
                index,
                report_fp: canonical_hash(&report),
                report: &report,
            });
        }
        drop(guard);
        shared.metrics.admit_ms.observe(accepted.elapsed().as_secs_f64() * 1e3);
        shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
        return Admission::Cached { index, seed, report };
    }
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let job = Job {
        index,
        circuit,
        config,
        width: spec.core_cap(shared.config.workers),
        cache_key,
        deadline,
        enqueued: Instant::now(),
        respond,
        streaming,
    };
    match slot.tx.try_send(job) {
        Ok(()) => {
            slot.next_index += 1;
            if let Some(spec_line) = &journal_spec {
                shared.journal_append(&JournalRecord::Enqueue {
                    index,
                    seed,
                    circuit_hash,
                    config_fp,
                    spec: spec_line,
                });
            }
            shared.metrics.queue_depth.add(1);
            shared.metrics.admit_ms.observe(accepted.elapsed().as_secs_f64() * 1e3);
            apls_telemetry::event!(shared.telemetry, "service", "enqueue", id = index, seed = seed);
            Admission::Enqueued { index, seed }
        }
        Err(TrySendError::Full(_)) => Admission::QueueFull,
        Err(TrySendError::Disconnected(_)) => Admission::ShuttingDown,
    }
}

pub(crate) const RETRY_LINE: &str =
    "{\"status\":\"retry\",\"error\":\"job queue full, retry later\"}";
pub(crate) const PANIC_ERROR: &str =
    "placement worker panicked while solving this job; the service is still up";
pub(crate) const WORKER_GONE_ERROR: &str = "worker terminated before completing the job";

/// Writes one intermediate stream frame (plus newline) to the peer.
/// Best-effort: a dead peer surfaces on the final write, not here.
fn write_frame(shared: &Shared, mut writer: &TcpStream, line: &str) {
    if writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .is_ok()
    {
        shared.metrics.frames_sent_total.inc();
        apls_telemetry::event!(shared.telemetry, "service", "frame");
    }
}

fn place(json: &Json, shared: &Arc<Shared>, writer: &TcpStream) -> String {
    let spec = match JobSpec::from_json(json) {
        Ok(spec) => spec,
        Err(e) => return error_response("bad_request", &e),
    };
    // A streamed job answers with tagged frames even on failure, so a client
    // multiplexing several jobs can attribute the failure to its id.
    let stream_id = if spec.stream == Some(true) { spec.stream_id } else { None };
    let fail = |kind: &str, message: &str| match stream_id {
        Some(cid) => count_and_frame(shared, report_frame_error(cid, kind, message)),
        None => error_response(kind, message),
    };
    let circuit = match resolve_circuit(&spec.circuit) {
        Ok(circuit) => circuit,
        Err(e) => return fail("bad_request", &e),
    };
    let circuit_name = circuit.name.clone();
    let deadline_ms = spec.deadline_ms;

    let total_start = Instant::now();
    let mut request_span = apls_telemetry::span!(
        shared.telemetry,
        "service",
        "place",
        circuit = circuit_name.as_str()
    );
    let (done_tx, done_rx) = mpsc::channel();
    let admission = admit_place(
        &spec,
        circuit,
        shared,
        Responder::Sync(done_tx),
        stream_id.is_some(),
        total_start,
    );
    let (id, seed) = match admission {
        Admission::ShuttingDown => return fail("unavailable", "service is shutting down"),
        Admission::QueueFull => {
            return match stream_id {
                Some(cid) => count_and_frame(shared, report_frame_retry(cid)),
                None => RETRY_LINE.to_string(),
            }
        }
        Admission::Cached { index, seed, report } => {
            let elapsed_ms = total_start.elapsed().as_secs_f64() * 1e3;
            shared.metrics.total_ms.observe(elapsed_ms);
            if request_span.is_recording() {
                request_span.arg("id", index);
                request_span.arg("seed", seed);
                request_span.arg("cache_hit", true);
            }
            return match stream_id {
                Some(cid) => {
                    write_frame(shared, writer, &accepted_frame(cid, index, &circuit_name, seed));
                    // a hit never consumed a queue slot: depth 0
                    write_frame(shared, writer, &queued_frame(cid, 0));
                    shared.metrics.frames_sent_total.inc();
                    report_frame_ok(
                        cid,
                        index,
                        &circuit_name,
                        seed,
                        true,
                        0.0,
                        elapsed_ms,
                        elapsed_ms,
                        &report,
                    )
                }
                None => ok_envelope(
                    index,
                    &circuit_name,
                    seed,
                    true,
                    0.0,
                    elapsed_ms,
                    elapsed_ms,
                    &report,
                ),
            };
        }
        Admission::Enqueued { index, seed } => (index, seed),
    };
    if let Some(cid) = stream_id {
        write_frame(shared, writer, &accepted_frame(cid, id, &circuit_name, seed));
        let depth = shared.metrics.queue_depth.get().max(0) as u64;
        write_frame(shared, writer, &queued_frame(cid, depth));
    }

    loop {
        let msg = match done_rx.recv() {
            Ok(msg) => msg,
            Err(_) => return fail("internal", WORKER_GONE_ERROR),
        };
        match msg {
            JobMsg::Progress { engine, restart, completed, total, cost } => {
                if let Some(cid) = stream_id {
                    write_frame(
                        shared,
                        writer,
                        &progress_frame(cid, engine, restart, completed, total, cost),
                    );
                }
            }
            JobMsg::Done(done) => {
                let total_ms = total_start.elapsed().as_secs_f64() * 1e3;
                shared.metrics.total_ms.observe(total_ms);
                return match done.outcome {
                    Ok((report, cache_hit)) => {
                        if request_span.is_recording() {
                            request_span.arg("id", id);
                            request_span.arg("seed", seed);
                            request_span.arg("cache_hit", cache_hit);
                        }
                        match stream_id {
                            Some(cid) => {
                                shared.metrics.frames_sent_total.inc();
                                report_frame_ok(
                                    cid,
                                    id,
                                    &circuit_name,
                                    seed,
                                    cache_hit,
                                    done.queue_ms,
                                    done.solve_ms,
                                    total_ms,
                                    &report,
                                )
                            }
                            None => ok_envelope(
                                id,
                                &circuit_name,
                                seed,
                                cache_hit,
                                done.queue_ms,
                                done.solve_ms,
                                total_ms,
                                &report,
                            ),
                        }
                    }
                    Err(JobFailure::Timeout) => {
                        if request_span.is_recording() {
                            request_span.arg("id", id);
                            request_span.arg("timed_out", true);
                        }
                        match stream_id {
                            Some(cid) => {
                                shared.metrics.frames_sent_total.inc();
                                report_frame_timeout(
                                    cid,
                                    id,
                                    &circuit_name,
                                    seed,
                                    deadline_ms.unwrap_or(0),
                                )
                            }
                            None => {
                                timeout_response(id, &circuit_name, seed, deadline_ms.unwrap_or(0))
                            }
                        }
                    }
                    Err(JobFailure::Panic) => fail("internal", PANIC_ERROR),
                };
            }
        }
    }
}

/// Counts a final report frame in the frame metric and returns the line;
/// its error/retry outcome is counted by [`count_response_outcome`] at the
/// response sink, exactly like plain envelopes.
fn count_and_frame(shared: &Shared, frame: String) -> String {
    shared.metrics.frames_sent_total.inc();
    frame
}

fn ok_fields(
    circuit: &str,
    seed: u64,
    cache_hit: bool,
    queue_ms: f64,
    solve_ms: f64,
    total_ms: f64,
    report: &str,
) -> String {
    format!(
        "\"status\":\"ok\",\"circuit\":{},\"seed\":{seed},\"cache_hit\":{cache_hit},\"queue_ms\":{queue_ms:.3},\"solve_ms\":{solve_ms:.3},\"total_ms\":{total_ms:.3},\"report\":{}",
        quote(circuit),
        quote(report),
    )
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn ok_envelope(
    id: u64,
    circuit: &str,
    seed: u64,
    cache_hit: bool,
    queue_ms: f64,
    solve_ms: f64,
    total_ms: f64,
    report: &str,
) -> String {
    format!(
        "{{\"id\":{id},{}}}",
        ok_fields(circuit, seed, cache_hit, queue_ms, solve_ms, total_ms, report),
    )
}

pub(crate) fn resolve_circuit(source: &CircuitSource) -> Result<BenchmarkCircuit, String> {
    match source {
        CircuitSource::Bundled(name) => benchmarks::by_name(name).ok_or_else(|| {
            format!("unknown circuit '{name}' (available: {})", benchmarks::names().join(", "))
        }),
        CircuitSource::Inline(text) => {
            apls_io::parse_circuit(text).map_err(|e| format!("invalid inline circuit: {e}"))
        }
    }
}
