//! The daemon: listeners, connection threads, the worker, and shutdown.
//!
//! One worker thread owns the shared [`Session`], consuming a bounded
//! queue of per-connection lanes drained round-robin — per-client
//! fairness, and `&mut Session` needs no locking. Each connection gets a
//! reader thread (parses and admits requests) and a writer thread fed
//! through a bounded channel (a slow or dead client can stall only its
//! own writer, never the worker). Requests execute under
//! [`catch_unwind`]; a panicking request is answered with a structured
//! error, the shared caches are checked for lock poisoning, and only a
//! poisoned session is rebuilt — a healthy one keeps its warm caches
//! across the fault. With a `--journal-dir`, journaled requests stream
//! per-cell results to disk as they complete, so a client reconnecting
//! after a daemon crash resumes its finished prefix instead of a cold
//! start.

use crate::error::ServeError;
#[cfg(feature = "fault-injection")]
use crate::fault::FaultPlan;
use crate::queue::{FairQueue, PushError};
use crate::request::{self, Budgets, Op};
use crate::response;
use crate::signal;
use nisq_exp::{fnv64, json, Journal, RunControl, RunOutcome, Session, SweepPlan, TierStats};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    Tcp(String),
    /// A Unix domain socket path (removed and re-created on bind).
    Unix(PathBuf),
}

/// Tunables of a [`Server`]. The defaults suit an interactive deployment;
/// tests shrink them to exercise the rejection paths deterministically.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests the queue admits before `queue-full` backpressure.
    pub queue_capacity: usize,
    /// Default and maximum per-request wall-clock budget (queue wait
    /// included). A request's `timeout_ms` can only shrink it.
    pub request_timeout: Duration,
    /// Largest cell count a request may describe.
    pub max_cells: usize,
    /// Largest trial count per cell.
    pub max_trials: u32,
    /// Largest machine (topology qubit count) a request may target.
    pub max_machine_qubits: usize,
    /// Widest circuit a request may simulate.
    pub max_sim_qubits: usize,
    /// Longest request line accepted, in bytes.
    pub max_request_bytes: usize,
    /// Worker threads of the shared session (0 = the session default).
    pub threads: usize,
    /// Directory for per-request sweep journals. `None` (the default)
    /// rejects journaled requests; `Some` enables crash-safe resume keyed
    /// by the request's `resume_key`.
    pub journal_dir: Option<PathBuf>,
    /// Compact a request's journal after a run leaves at least this many
    /// dead records in it (completed intents, superseded duplicates).
    /// 0 disables auto-compaction.
    pub journal_compact_threshold: usize,
    /// Faults to inject into the worker (present only when the
    /// `fault-injection` feature is enabled; release daemons have no such
    /// field).
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 32,
            request_timeout: Duration::from_secs(30),
            max_cells: 4096,
            max_trials: 65_536,
            max_machine_qubits: 256,
            max_sim_qubits: 24,
            max_request_bytes: 1 << 20,
            threads: 0,
            journal_dir: None,
            journal_compact_threshold: 64,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

impl ServerConfig {
    pub(crate) fn budgets(&self) -> Budgets {
        Budgets {
            max_cells: self.max_cells,
            max_trials: self.max_trials,
            max_machine_qubits: self.max_machine_qubits,
            max_sim_qubits: self.max_sim_qubits,
        }
    }
}

/// One admitted unit of work.
struct Job {
    id: Option<String>,
    plan: SweepPlan,
    /// Journal file for this request, when it asked for one and the
    /// daemon has a journal directory.
    journal: Option<PathBuf>,
    enqueued: Instant,
    deadline: Instant,
    reply: SyncSender<String>,
}

/// Monotonic counters of everything the daemon did.
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    partials: AtomicU64,
    timeouts: AtomicU64,
    compile_errors: AtomicU64,
    panics: AtomicU64,
    session_rebuilds: AtomicU64,
    rejected_invalid: AtomicU64,
    rejected_budget: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_shutting_down: AtomicU64,
    responses_dropped: AtomicU64,
    journal_runs: AtomicU64,
    journal_corrupt: AtomicU64,
    journal_degraded: AtomicU64,
    journal_compactions: AtomicU64,
    #[cfg(feature = "fault-injection")]
    pings_answered: AtomicU64,
}

/// Cumulative session-side totals, published by the worker after every
/// request so `stats` answers without touching the session.
#[derive(Default, Clone, Copy)]
struct SessionTotals {
    compile_requests: u64,
    compile_hits: u64,
    place_hits: u64,
    place_runs: u64,
    tiers: TierStats,
}

struct Shared {
    queue: FairQueue<Job>,
    counters: Counters,
    session_totals: Mutex<SessionTotals>,
    shutdown: AtomicBool,
    request_timeout: Duration,
    max_request_bytes: usize,
    budgets: Budgets,
    journal_dir: Option<PathBuf>,
    journal_compact_threshold: usize,
    #[cfg(feature = "fault-injection")]
    fault_plan: Option<FaultPlan>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::received()
    }
}

/// A bidirectional stream the daemon can split into reader and writer
/// halves — the common face of TCP and Unix sockets.
pub(crate) trait Conn: Read + Write + Send {
    fn split(&self) -> io::Result<Box<dyn Conn>>;
    fn set_timeouts(&self) -> io::Result<()>;
}

impl Conn for std::net::TcpStream {
    fn split(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn set_timeouts(&self) -> io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(100)))?;
        self.set_write_timeout(Some(Duration::from_secs(2)))
    }
}

impl Conn for std::os::unix::net::UnixStream {
    fn split(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn set_timeouts(&self) -> io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(100)))?;
        self.set_write_timeout(Some(Duration::from_secs(2)))
    }
}

pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    pub(crate) fn accept(&self) -> io::Result<Box<dyn Conn>> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
        }
    }
}

/// Binds a non-blocking listener on `endpoint`, returning the bound TCP
/// address when there is one. A Unix endpoint's stale socket file is
/// removed first; the file is removed again when the listener drops.
pub(crate) fn bind_listener(endpoint: &Endpoint) -> io::Result<(Listener, Option<SocketAddr>)> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            let addr = l.local_addr()?;
            Ok((Listener::Tcp(l), Some(addr)))
        }
        Endpoint::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Ok((Listener::Unix(l, path.clone()), None))
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The serve daemon. Bind, then either [`Server::run`] on the current
/// thread (the CLI does this) or [`Server::spawn`] for a joinable handle
/// (tests do this).
pub struct Server {
    listener: Listener,
    local_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    config: ServerConfig,
}

/// A handle onto a spawned server: its address, a shutdown switch, and a
/// join point.
pub struct ServerHandle {
    thread: JoinHandle<io::Result<()>>,
    shared: Arc<Shared>,
    local_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// The bound TCP address, if listening on TCP.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Requests graceful shutdown (same path as SIGINT: drain in-flight
    /// work, refuse new work).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the server to exit.
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O error, or reports a crashed
    /// server thread.
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

impl Server {
    /// Binds the listening socket (without accepting yet).
    ///
    /// # Errors
    ///
    /// Propagates socket creation failures.
    pub fn bind(endpoint: &Endpoint, config: ServerConfig) -> io::Result<Server> {
        let (listener, local_addr) = bind_listener(endpoint)?;
        if let Some(dir) = &config.journal_dir {
            std::fs::create_dir_all(dir)?;
        }
        // Workers supervised across an exec boundary receive their fault
        // plan as environment variables; an explicitly configured plan
        // wins over the environment.
        #[cfg(feature = "fault-injection")]
        let mut config = config;
        #[cfg(feature = "fault-injection")]
        if config.fault_plan.is_none() {
            config.fault_plan = FaultPlan::from_env();
        }
        let shared = Arc::new(Shared {
            queue: FairQueue::new(config.queue_capacity),
            counters: Counters::default(),
            session_totals: Mutex::new(SessionTotals::default()),
            shutdown: AtomicBool::new(false),
            request_timeout: config.request_timeout,
            max_request_bytes: config.max_request_bytes,
            budgets: config.budgets(),
            journal_dir: config.journal_dir.clone(),
            journal_compact_threshold: config.journal_compact_threshold,
            #[cfg(feature = "fault-injection")]
            fault_plan: config.fault_plan.clone(),
        });
        Ok(Server {
            listener,
            local_addr,
            shared,
            config,
        })
    }

    /// The bound TCP address, if listening on TCP (useful after binding
    /// port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Runs the daemon on the current thread until shutdown (SIGINT, a
    /// `shutdown` request, or a [`ServerHandle::shutdown`]), then drains
    /// the queue and exits.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures other than transient ones.
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            shared,
            config,
            ..
        } = self;
        let worker = {
            let shared = shared.clone();
            let threads = config.threads;
            #[cfg(feature = "fault-injection")]
            let fault = config.fault_plan.clone();
            std::thread::spawn(move || {
                worker_loop(
                    &shared,
                    threads,
                    #[cfg(feature = "fault-injection")]
                    fault,
                )
            })
        };
        let mut connections: Vec<JoinHandle<()>> = Vec::new();

        while !shared.shutting_down() {
            match listener.accept() {
                Ok(stream) => {
                    // The connection ordinal doubles as the fairness lane:
                    // every request admitted on this socket shares a lane.
                    let client = shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                    let shared = shared.clone();
                    connections.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared, client)
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // A broken listener cannot serve anyway: drain and
                    // report.
                    shared.shutdown.store(true, Ordering::SeqCst);
                    shared.queue.close();
                    let _ = worker.join();
                    return Err(e);
                }
            }
            // Reap finished connection threads so a long-lived daemon's
            // registry does not grow without bound.
            connections.retain(|handle| !handle.is_finished());
        }

        // Graceful drain: refuse new work, serve everything admitted,
        // then let every connection flush and exit.
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.queue.close();
        let _ = worker.join();
        for handle in connections {
            let _ = handle.join();
        }
        drop(listener);
        Ok(())
    }

    /// Spawns [`Server::run`] on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let shared = self.shared.clone();
        let local_addr = self.local_addr;
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            thread,
            shared,
            local_addr,
        }
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn new_session(threads: usize) -> Session {
    if threads > 0 {
        Session::new().with_threads(threads)
    } else {
        Session::new()
    }
}

/// The on-disk journal file for a `resume_key`: named by FNV-1a hash so
/// arbitrary client-supplied keys cannot traverse outside `dir`.
pub fn journal_path(dir: &Path, resume_key: &str) -> PathBuf {
    dir.join(format!("req-{:016x}.journal", fnv64(resume_key.as_bytes())))
}

/// The single worker: owns the session, serves the queue round-robin
/// across client lanes until the queue closes and drains.
fn worker_loop(
    shared: &Shared,
    threads: usize,
    #[cfg(feature = "fault-injection")] fault: Option<FaultPlan>,
) {
    let mut session = new_session(threads);
    let counters = &shared.counters;
    while let Some(job) = shared.queue.pop() {
        let started = Instant::now();
        let queue_ms = started.duration_since(job.enqueued).as_millis() as u64;

        #[cfg(feature = "fault-injection")]
        if let Some(delay) = fault.as_ref().and_then(|f| f.delay_before_run_ms) {
            std::thread::sleep(Duration::from_millis(delay));
        }

        let control = RunControl::unbounded().with_deadline(job.deadline);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-injection")]
            if let Some(f) = &fault {
                if f.should_panic(job.plan.circuits().iter().map(|c| c.name.as_str())) {
                    panic!("injected fault: panic_on_circuit");
                }
            }
            run_job(
                &mut session,
                &job,
                &control,
                shared.journal_compact_threshold,
            )
        }));

        let line = match outcome {
            Ok(Ok((outcome, effects))) => {
                if job.journal.is_some() {
                    counters.journal_runs.fetch_add(1, Ordering::Relaxed);
                }
                if effects.degraded {
                    counters.journal_degraded.fetch_add(1, Ordering::Relaxed);
                }
                if effects.compacted {
                    counters.journal_compactions.fetch_add(1, Ordering::Relaxed);
                }
                publish_totals(shared, &outcome.report);
                if outcome.completed {
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                } else if outcome.report.cells.is_empty() {
                    counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    let elapsed = job.enqueued.elapsed().as_millis() as u64;
                    let err = ServeError::Timeout {
                        elapsed_ms: elapsed,
                    };
                    let line = response::error_line(job.id.as_deref(), &err);
                    send_reply(shared, &job.reply, line);
                    continue;
                } else {
                    counters.partials.fetch_add(1, Ordering::Relaxed);
                    counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                let run_ms = started.elapsed().as_millis() as u64;
                response::run_line(job.id.as_deref(), &outcome, queue_ms, run_ms)
            }
            Ok(Err(err)) => {
                match err.code() {
                    "journal-corrupt" => counters.journal_corrupt.fetch_add(1, Ordering::Relaxed),
                    _ => counters.compile_errors.fetch_add(1, Ordering::Relaxed),
                };
                response::error_line(job.id.as_deref(), &err)
            }
            Err(payload) => {
                counters.panics.fetch_add(1, Ordering::Relaxed);
                // The cache-owner poison check: a panic that unwound
                // through a lock holder leaves the placement cache
                // unusable, so replace the session. A clean unwind keeps
                // the warm caches.
                if session.placement_cache().is_poisoned() {
                    session = new_session(threads);
                    counters.session_rebuilds.fetch_add(1, Ordering::Relaxed);
                }
                let err = ServeError::Panic {
                    message: panic_message(payload.as_ref()),
                };
                response::error_line(job.id.as_deref(), &err)
            }
        };
        send_reply(shared, &job.reply, line);
    }
}

/// What [`run_job`] observed about a job's journal, besides the outcome.
#[derive(Default)]
struct JournalEffects {
    /// The journal ran out of disk mid-sweep and fell back to in-memory
    /// execution.
    degraded: bool,
    /// The journal was auto-compacted after the run.
    compacted: bool,
}

/// Executes one job on the session, journaled when the job carries a
/// journal path. After a journaled run, auto-compacts the file when the
/// dead-record count (completed intents, superseded duplicates) reaches
/// `compact_threshold` — long-lived resume keys would otherwise grow
/// their journals without bound.
///
/// An unusable journal — not-a-journal file, unreadable, unwritable — is
/// a `journal-corrupt` request error, never a daemon fault. Torn or
/// checksum-corrupt *trailing* records are recovered by truncation inside
/// [`Journal::resume`] and do not error.
fn run_job(
    session: &mut Session,
    job: &Job,
    control: &RunControl,
    compact_threshold: usize,
) -> Result<(RunOutcome, JournalEffects), ServeError> {
    match &job.journal {
        None => Ok((
            session.run_controlled(&job.plan, control)?,
            JournalEffects::default(),
        )),
        Some(path) => {
            let mut journal = Journal::resume(path, job.plan.machine_seed(), job.plan.trials())
                .map_err(|e| ServeError::JournalCorrupt {
                    message: e.to_string(),
                })?;
            let outcome = session.run_journaled(&job.plan, control, &mut journal)?;
            let mut effects = JournalEffects {
                degraded: journal.degraded().is_some(),
                compacted: false,
            };
            if !effects.degraded
                && compact_threshold > 0
                && journal.dead_records() >= compact_threshold as u64
            {
                effects.compacted = journal.compact_in_place();
            }
            Ok((outcome, effects))
        }
    }
}

fn publish_totals(shared: &Shared, report: &nisq_exp::Report) {
    let mut totals = shared
        .session_totals
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    totals.compile_requests += report.cache.compile_requests;
    totals.compile_hits += report.cache.compile_hits;
    totals.place_hits += report.cache.place_hits;
    totals.place_runs += report.cache.place_runs;
    totals.tiers.merge(&report.tiers);
}

/// Hands a response line to the connection's writer without ever blocking
/// the worker: a slow consumer's full channel drops the response (counted)
/// rather than stalling the daemon.
fn send_reply(shared: &Shared, reply: &SyncSender<String>, line: String) {
    if reply.try_send(line).is_err() {
        shared
            .counters
            .responses_dropped
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// The per-connection writer: drains the response channel onto the
/// socket. Exits when every sender is gone or the socket dies.
pub(crate) fn write_loop(mut stream: Box<dyn Conn>, responses: &Receiver<String>) {
    while let Ok(line) = responses.recv() {
        if write_line(&mut stream, &line).is_err() {
            break;
        }
    }
}

/// Sends `line` and its newline in a single write, then flushes. Written
/// separately, the newline would wait behind Nagle's algorithm for the
/// peer's delayed ACK and stall every TCP round trip by tens of
/// milliseconds.
pub(crate) fn write_line(stream: &mut impl Write, line: &str) -> io::Result<()> {
    stream.write_all(format!("{line}\n").as_bytes())?;
    stream.flush()
}

/// The per-connection reader: frames lines (bounded), parses, admits, and
/// answers control operations inline.
fn handle_connection(stream: Box<dyn Conn>, shared: &Shared, client: u64) {
    if stream.set_timeouts().is_err() {
        return;
    }
    let Ok(write_half) = stream.split() else {
        return;
    };
    let (reply, responses) = sync_channel::<String>(16);
    let writer = std::thread::spawn(move || write_loop(write_half, &responses));

    read_requests(stream, shared, &reply, client);

    drop(reply);
    let _ = writer.join();
}

fn read_requests(
    mut stream: Box<dyn Conn>,
    shared: &Shared,
    reply: &SyncSender<String>,
    client: u64,
) {
    let mut buffer: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                buffer.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buffer.iter().position(|&b| b == b'\n') {
                    let line_bytes: Vec<u8> = buffer.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line_bytes[..pos]);
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    handle_line(line, shared, reply, client);
                }
                if buffer.len() > shared.max_request_bytes {
                    shared
                        .counters
                        .rejected_invalid
                        .fetch_add(1, Ordering::Relaxed);
                    let err = ServeError::Protocol {
                        message: format!("request line exceeds {} bytes", shared.max_request_bytes),
                    };
                    let _ = reply.send(response::error_line(None, &err));
                    return;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                // Idle poll tick: exit promptly once the daemon drains.
                if shared.shutting_down() && shared.queue.is_empty() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn handle_line(line: &str, shared: &Shared, reply: &SyncSender<String>, client: u64) {
    let counters = &shared.counters;
    let request = match request::parse_request(line) {
        Ok(request) => request,
        Err(err) => {
            counters.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(response::error_line(None, &err));
            return;
        }
    };
    let id = request.id.as_deref();
    match request.op {
        Op::Ping => {
            #[cfg(feature = "fault-injection")]
            if let Some(plan) = &shared.fault_plan {
                let answered = counters.pings_answered.load(Ordering::Relaxed);
                if plan.should_wedge_ping(answered) {
                    // Injected heartbeat wedge: swallow the ping. The
                    // process stays alive and the socket stays open — only
                    // the supervisor's liveness deadline can tell.
                    return;
                }
            }
            #[cfg(feature = "fault-injection")]
            counters.pings_answered.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(response::ping_line(id));
        }
        Op::Stats => {
            let _ = reply.send(stats_line(id, shared));
        }
        Op::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            let _ = reply.send(response::shutdown_line(id));
        }
        Op::Run {
            plan,
            timeout_ms,
            journal,
        } => {
            if shared.shutting_down() {
                counters
                    .rejected_shutting_down
                    .fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(response::error_line(id, &shutting_down_error(id)));
                return;
            }
            if let Err(err) = request::admit(&plan, &shared.budgets) {
                match err.code() {
                    "budget" => counters.rejected_budget.fetch_add(1, Ordering::Relaxed),
                    _ => counters.rejected_invalid.fetch_add(1, Ordering::Relaxed),
                };
                let _ = reply.send(response::error_line(id, &err));
                return;
            }
            let journal = match journal_file(shared, journal, request.resume_key.as_deref()) {
                Ok(path) => path,
                Err(err) => {
                    counters.rejected_invalid.fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send(response::error_line(id, &err));
                    return;
                }
            };
            let timeout = timeout_ms
                .map(Duration::from_millis)
                .map_or(shared.request_timeout, |t| t.min(shared.request_timeout));
            let now = Instant::now();
            let job = Job {
                id: request.id.clone(),
                plan: *plan,
                journal,
                enqueued: now,
                deadline: now + timeout,
                reply: reply.clone(),
            };
            match shared.queue.try_push(client, job) {
                Ok(()) => {
                    counters.accepted.fetch_add(1, Ordering::Relaxed);
                }
                Err(PushError::Full) => {
                    counters.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                    // Back-off scaled to how much work is already queued,
                    // plus a deterministic per-request jitter so a herd of
                    // rejected clients does not retry in lockstep.
                    let retry_after_ms =
                        100 + 150 * shared.queue.len() as u64 + retry_jitter_ms(id);
                    let _ = reply.send(response::error_line(
                        id,
                        &ServeError::QueueFull { retry_after_ms },
                    ));
                }
                Err(PushError::Closed) => {
                    counters
                        .rejected_shutting_down
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send(response::error_line(id, &shutting_down_error(id)));
                }
            }
        }
    }
}

/// Resolves a run request's journal flag to an on-disk path, or rejects
/// the combination: journaling needs both a client `resume_key` (the
/// stable identity that survives reconnects) and a daemon `--journal-dir`.
fn journal_file(
    shared: &Shared,
    journal: bool,
    resume_key: Option<&str>,
) -> Result<Option<PathBuf>, ServeError> {
    if !journal {
        return Ok(None);
    }
    let Some(dir) = &shared.journal_dir else {
        return Err(ServeError::InvalidPlan {
            message: "journaled run refused: daemon started without --journal-dir".to_string(),
        });
    };
    let Some(key) = resume_key else {
        return Err(ServeError::InvalidPlan {
            message: "journaled run requires a resume_key in the request envelope".to_string(),
        });
    };
    Ok(Some(journal_path(dir, key)))
}

/// Deterministic bounded jitter (0..100 ms) for `retry_after_ms`, derived
/// from the request id so tests can predict it and id-less requests get
/// none.
pub(crate) fn retry_jitter_ms(id: Option<&str>) -> u64 {
    id.map_or(0, |id| fnv64(id.as_bytes()) % 100)
}

/// A `shutting-down` rejection with the same deterministic per-request
/// jitter as queue-full back-off: a herd of clients bounced by a draining
/// daemon should not hammer its replacement in lockstep.
pub(crate) fn shutting_down_error(id: Option<&str>) -> ServeError {
    ServeError::ShuttingDown {
        retry_after_ms: 500 + retry_jitter_ms(id),
    }
}

/// Formats the aggregate stats response.
fn stats_line(id: Option<&str>, shared: &Shared) -> String {
    let c = &shared.counters;
    let totals = *shared
        .session_totals
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let tiers = totals.tiers;
    // Per-client lane depths as a JSON object keyed by connection ordinal.
    let queue_depths = {
        let entries: Vec<String> = shared
            .queue
            .depths()
            .iter()
            .map(|(client, depth)| format!("\"{client}\": {depth}"))
            .collect();
        format!("{{{}}}", entries.join(", "))
    };
    format!(
        "{{\"id\": {}, \"status\": \"ok\", \"op\": \"stats\", \"stats\": {{\
         \"queue_depth\": {}, \"queue_depths\": {}, \"connections\": {}, \"accepted\": {}, \"completed\": {}, \
         \"partials\": {}, \"timeouts\": {}, \"compile_errors\": {}, \"panics\": {}, \
         \"session_rebuilds\": {}, \"responses_dropped\": {}, \
         \"journal\": {{\"runs\": {}, \"corrupt\": {}, \"degraded\": {}, \"compactions\": {}}}, \
         \"rejected\": {{\"invalid\": {}, \"budget\": {}, \"queue_full\": {}, \"shutting_down\": {}}}, \
         \"session\": {{\"compile_requests\": {}, \"compile_hits\": {}, \"place_hits\": {}, \"place_runs\": {}}}, \
         \"tiers\": {{\"error_free\": {}, \"pauli_prop\": {}, \"checkpointed\": {}, \"full_replay\": {}, \
         \"memo_hits\": {}, \"memo_misses\": {}}}}}}}",
        match id {
            Some(id) => json::write_str(id),
            None => "null".to_string(),
        },
        shared.queue.len(),
        queue_depths,
        get(&c.connections),
        get(&c.accepted),
        get(&c.completed),
        get(&c.partials),
        get(&c.timeouts),
        get(&c.compile_errors),
        get(&c.panics),
        get(&c.session_rebuilds),
        get(&c.responses_dropped),
        get(&c.journal_runs),
        get(&c.journal_corrupt),
        get(&c.journal_degraded),
        get(&c.journal_compactions),
        get(&c.rejected_invalid),
        get(&c.rejected_budget),
        get(&c.rejected_queue_full),
        get(&c.rejected_shutting_down),
        totals.compile_requests,
        totals.compile_hits,
        totals.place_hits,
        totals.place_runs,
        tiers.error_free,
        tiers.pauli_prop,
        tiers.checkpointed,
        tiers.full_replay,
        tiers.memo_hits,
        tiers.memo_misses,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared() -> Shared {
        Shared {
            queue: FairQueue::new(4),
            counters: Counters::default(),
            session_totals: Mutex::new(SessionTotals::default()),
            shutdown: AtomicBool::new(false),
            request_timeout: Duration::from_secs(1),
            max_request_bytes: 1024,
            budgets: Budgets {
                max_cells: 16,
                max_trials: 64,
                max_machine_qubits: 16,
                max_sim_qubits: 8,
            },
            journal_dir: None,
            journal_compact_threshold: 0,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }

    #[test]
    fn stats_line_is_valid_json() {
        let shared = test_shared();
        shared.counters.accepted.store(3, Ordering::Relaxed);
        shared.counters.journal_runs.store(2, Ordering::Relaxed);
        let doc = json::parse(&stats_line(Some("s"), &shared)).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        let stats = doc.get("stats").unwrap();
        assert_eq!(stats.get("accepted").unwrap().as_u64(), Some(3));
        assert_eq!(stats.get("queue_depth").unwrap().as_u64(), Some(0));
        assert!(stats.get("queue_depths").is_some());
        let journal = stats.get("journal").unwrap();
        assert_eq!(journal.get("runs").unwrap().as_u64(), Some(2));
        assert_eq!(journal.get("corrupt").unwrap().as_u64(), Some(0));
        assert!(stats
            .get("session")
            .unwrap()
            .get("compile_requests")
            .is_some());
        assert!(stats.get("tiers").unwrap().get("error_free").is_some());
    }

    #[test]
    fn journal_flag_needs_both_dir_and_key() {
        let without_dir = test_shared();
        assert_eq!(journal_file(&without_dir, false, None), Ok(None));
        assert!(matches!(
            journal_file(&without_dir, true, Some("k")),
            Err(ServeError::InvalidPlan { .. })
        ));
        let with_dir = Shared {
            journal_dir: Some(PathBuf::from("/tmp/journals")),
            ..test_shared()
        };
        assert!(matches!(
            journal_file(&with_dir, true, None),
            Err(ServeError::InvalidPlan { .. })
        ));
        let path = journal_file(&with_dir, true, Some("client-7/exp")).unwrap();
        let path = path.unwrap();
        assert_eq!(path.parent(), Some(Path::new("/tmp/journals")));
        let name = path.file_name().unwrap().to_str().unwrap();
        // Content-addressed: no trace of the raw key (which may contain
        // separators) in the filename.
        assert!(name.starts_with("req-") && name.ends_with(".journal"));
        assert_eq!(
            path,
            journal_file(&with_dir, true, Some("client-7/exp"))
                .unwrap()
                .unwrap()
        );
    }

    #[test]
    fn retry_jitter_is_deterministic_and_bounded() {
        assert_eq!(retry_jitter_ms(None), 0);
        let a = retry_jitter_ms(Some("req-1"));
        assert_eq!(a, retry_jitter_ms(Some("req-1")));
        assert!(a < 100);
        assert!(retry_jitter_ms(Some("req-2")) < 100);
    }

    #[test]
    fn panic_messages_survive_extraction() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(payload.as_ref()), "boom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(payload.as_ref()), "kaboom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }
}
