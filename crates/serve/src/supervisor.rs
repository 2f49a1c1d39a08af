//! The multi-worker supervisor: process-isolated shards behind one socket.
//!
//! `nisqc serve --workers N` runs this instead of a single [`Server`]:
//! the supervisor binds the public endpoint, forks `N` worker processes
//! (each an ordinary single-session daemon on a private Unix socket), and
//! routes every run request by **rendezvous hash of its plan
//! fingerprint** — the same plan always lands on the same live shard, so
//! each shard's compile and placement caches stay warm for its slice of
//! the workload.
//!
//! Fault handling is layered:
//!
//! - a **monitor thread per shard** pings its control connection every
//!   heartbeat interval; a worker that misses heartbeats past the
//!   liveness deadline, or whose process exits, is killed, reaped, and
//!   respawned after a capped exponential backoff with deterministic
//!   per-shard jitter (the backoff never exceeds the request deadline
//!   cap, so a restarting fleet is never gone longer than one request);
//! - a request in flight on a dying shard is **re-dispatched** to the
//!   next shard the hash prefers, after the dead process is reaped —
//!   never before, so two processes cannot write one journal. With a
//!   shared `--journal-dir`, the surviving shard resumes the dead one's
//!   journal and replays finished cells bit-identically;
//! - when every candidate is gone the client gets a `worker-lost` error
//!   with a deterministic jittered `retry_after_ms`, mirroring the
//!   `queue-full` contract.
//!
//! Control operations (`ping`, `stats`, `shutdown`) are answered by the
//! supervisor itself; `stats` reports per-shard liveness, restart,
//! routing and in-flight counts plus fleet totals.

use crate::error::ServeError;
use crate::request::{self, Budgets, Op};
use crate::response;
use crate::server::{
    bind_listener, retry_jitter_ms, shutting_down_error, write_loop, Conn, Endpoint, Listener,
    ServerConfig,
};
use crate::signal;
use crate::worker::{WorkerHandle, WorkerSpec};
use nisq_exp::{fnv64, json};
use std::io::{self, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a [`Supervisor`]. `server` carries the admission budgets
/// and request deadline the supervisor enforces at its front door; the
/// worker processes are expected to be launched (via [`WorkerSpec`]) with
/// matching limits so both layers agree.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How many worker processes to run.
    pub workers: usize,
    /// Front-door limits: budgets, request deadline, queue capacity
    /// (applied per shard), request line size.
    pub server: ServerConfig,
    /// Directory for the shards' private Unix sockets.
    pub runtime_dir: PathBuf,
    /// How to launch one worker process.
    pub spec: WorkerSpec,
    /// Interval between heartbeat pings to each shard.
    pub heartbeat_interval: Duration,
    /// A shard whose last successful heartbeat is older than this is
    /// declared wedged: killed, reaped, restarted.
    pub liveness_deadline: Duration,
    /// First restart backoff; doubles per consecutive failed respawn.
    pub restart_backoff_base: Duration,
    /// Upper bound on the restart backoff. Clamped at bind time to the
    /// request deadline cap, so a restarting shard is never out longer
    /// than one request is allowed to run.
    pub restart_backoff_cap: Duration,
    /// Most re-dispatch attempts after a shard dies mid-request before
    /// answering `worker-lost`.
    pub max_redispatch: usize,
}

impl SupervisorConfig {
    /// A supervisor launching `workers` copies of `exe serve --unix
    /// {socket}` with sockets under `runtime_dir`, with default
    /// supervision timings. Callers extend `spec.args` to mirror their
    /// server flags onto the workers.
    pub fn new(workers: usize, server: ServerConfig, runtime_dir: PathBuf, exe: PathBuf) -> Self {
        SupervisorConfig {
            workers,
            server,
            runtime_dir,
            spec: WorkerSpec {
                exe,
                args: vec!["serve".into(), "--unix".into(), "{socket}".into()],
                env: Vec::new(),
                spawn_timeout: Duration::from_secs(10),
            },
            heartbeat_interval: Duration::from_millis(500),
            liveness_deadline: Duration::from_secs(3),
            restart_backoff_base: Duration::from_millis(200),
            restart_backoff_cap: Duration::from_secs(10),
            max_redispatch: 2,
        }
    }
}

/// Everything the accept loop, connection threads and monitors share.
struct SupShared {
    workers: Vec<WorkerHandle>,
    spec: WorkerSpec,
    shutdown: AtomicBool,
    connections: AtomicU64,
    accepted: AtomicU64,
    redispatches: AtomicU64,
    worker_lost: AtomicU64,
    rejected: AtomicU64,
    budgets: Budgets,
    request_timeout: Duration,
    max_request_bytes: usize,
    per_worker_capacity: usize,
    heartbeat_interval: Duration,
    liveness_deadline: Duration,
    restart_backoff_base: Duration,
    restart_backoff_cap: Duration,
    max_redispatch: usize,
}

impl SupShared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::received()
    }
}

/// The supervisor daemon. Bind, then [`Supervisor::run`] on the current
/// thread (the CLI does this) or [`Supervisor::spawn`] for a joinable
/// handle (tests do this).
pub struct Supervisor {
    listener: Listener,
    local_addr: Option<SocketAddr>,
    shared: Arc<SupShared>,
}

/// A handle onto a spawned supervisor: its address, a shutdown switch,
/// and a join point.
pub struct SupervisorHandle {
    thread: JoinHandle<io::Result<()>>,
    shared: Arc<SupShared>,
    local_addr: Option<SocketAddr>,
}

impl SupervisorHandle {
    /// The bound TCP address, if listening on TCP.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Requests graceful shutdown: refuse new work, shut the shards down,
    /// exit.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the supervisor to exit.
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O error, or reports a crashed
    /// supervisor thread.
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("supervisor thread panicked"))?
    }
}

impl Supervisor {
    /// Binds the public endpoint and spawns every worker process. A
    /// worker that fails to come up is a bind error: the fleet starts
    /// whole or not at all (restarts later are the monitors' job).
    ///
    /// # Errors
    ///
    /// Socket creation, runtime-dir creation, or initial worker spawn
    /// failures; every already-spawned worker is killed before returning.
    pub fn bind(endpoint: &Endpoint, config: SupervisorConfig) -> io::Result<Supervisor> {
        if config.workers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a supervisor needs at least one worker",
            ));
        }
        std::fs::create_dir_all(&config.runtime_dir)?;
        let (listener, local_addr) = bind_listener(endpoint)?;
        let workers: Vec<WorkerHandle> = (0..config.workers)
            .map(|index| {
                WorkerHandle::new(
                    index,
                    config.runtime_dir.join(format!("worker-{index}.sock")),
                )
            })
            .collect();
        for worker in &workers {
            if let Err(e) = worker.spawn_process(&config.spec) {
                for spawned in &workers {
                    spawned.kill_and_reap();
                }
                return Err(e);
            }
        }
        let shared = Arc::new(SupShared {
            workers,
            spec: config.spec,
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            redispatches: AtomicU64::new(0),
            worker_lost: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            budgets: config.server.budgets(),
            request_timeout: config.server.request_timeout,
            max_request_bytes: config.server.max_request_bytes,
            per_worker_capacity: config.server.queue_capacity,
            heartbeat_interval: config.heartbeat_interval,
            liveness_deadline: config.liveness_deadline,
            restart_backoff_base: config.restart_backoff_base,
            restart_backoff_cap: config
                .restart_backoff_cap
                .min(config.server.request_timeout),
            max_redispatch: config.max_redispatch,
        });
        Ok(Supervisor {
            listener,
            local_addr,
            shared,
        })
    }

    /// The bound TCP address, if listening on TCP (useful after binding
    /// port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Runs the supervisor on the current thread until shutdown (SIGINT,
    /// a `shutdown` request, or [`SupervisorHandle::shutdown`]), then
    /// shuts the fleet down gracefully.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures other than transient ones.
    pub fn run(self) -> io::Result<()> {
        let Supervisor {
            listener, shared, ..
        } = self;
        let monitors: Vec<JoinHandle<()>> = (0..shared.workers.len())
            .map(|index| {
                let shared = shared.clone();
                std::thread::spawn(move || monitor_loop(&shared, index))
            })
            .collect();
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        let mut accept_error = None;

        while !shared.shutting_down() {
            match listener.accept() {
                Ok(stream) => {
                    let client = shared.connections.fetch_add(1, Ordering::Relaxed);
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
                    accept_error = Some(e);
                    break;
                }
            }
            connections.retain(|handle| !handle.is_finished());
        }

        shared.shutdown.store(true, Ordering::SeqCst);
        for handle in monitors {
            let _ = handle.join();
        }
        for handle in connections {
            let _ = handle.join();
        }
        // Shut the fleet down after the front door closed: ask each
        // worker to drain, give it a grace period, then reap.
        let grace = Instant::now() + Duration::from_millis(500);
        for worker in &shared.workers {
            worker.request_shutdown(grace);
        }
        for worker in &shared.workers {
            worker.shutdown_and_reap(Duration::from_secs(5));
        }
        drop(listener);
        match accept_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Spawns [`Supervisor::run`] on a background thread.
    pub fn spawn(self) -> SupervisorHandle {
        let shared = self.shared.clone();
        let local_addr = self.local_addr;
        let thread = std::thread::spawn(move || self.run());
        SupervisorHandle {
            thread,
            shared,
            local_addr,
        }
    }
}

/// Rendezvous (highest-random-weight) routing: every live shard scores
/// the fingerprint, the highest score wins. Stable — the same fingerprint
/// picks the same shard while it lives — and minimal on failure: a dead
/// shard's plans move to their next-highest choice, nothing else moves.
pub fn route_worker(fingerprint: u64, alive: &[bool]) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for (index, &ok) in alive.iter().enumerate() {
        if !ok {
            continue;
        }
        let mut z = fingerprint ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        if best.is_none_or(|(score, _)| z > score) {
            best = Some((z, index));
        }
    }
    best.map(|(_, index)| index)
}

/// The backoff before respawn attempt `attempt` of shard `worker`:
/// exponential from `base`, plus deterministic jitter (up to a quarter of
/// the exponential term, keyed on shard and attempt so a fleet dying
/// together does not respawn in lockstep), capped at `cap`.
pub fn restart_backoff(attempt: u32, worker: usize, base: Duration, cap: Duration) -> Duration {
    let doublings = attempt.min(16);
    let exp = base.saturating_mul(1u32 << doublings).min(cap);
    let window = exp.as_millis() as u64 / 4 + 1;
    let jitter = fnv64(format!("{worker}:{attempt}").as_bytes()) % window;
    (exp + Duration::from_millis(jitter)).min(cap)
}

/// One shard's keeper: heartbeats while it lives, reaps it when it
/// wedges or exits, respawns it after backoff.
fn monitor_loop(shared: &SupShared, index: usize) {
    let worker = &shared.workers[index];
    let mut last_ok = Instant::now();
    let mut attempt: u32 = 0;
    while !shared.shutting_down() {
        if worker.alive() {
            if worker.child_exited() {
                // The process died on its own (OOM kill, abort, SIGKILL
                // from outside): reap immediately, no heartbeat needed.
                worker.kill_and_reap();
                continue;
            }
            match worker.ping(Instant::now() + shared.heartbeat_interval) {
                Ok(()) => last_ok = Instant::now(),
                Err(_) => {
                    if last_ok.elapsed() >= shared.liveness_deadline {
                        // Alive as a process, dead as a service: wedged.
                        worker.kill_and_reap();
                        continue;
                    }
                }
            }
            sleep_interruptibly(shared, shared.heartbeat_interval);
        } else {
            let backoff = restart_backoff(
                attempt,
                index,
                shared.restart_backoff_base,
                shared.restart_backoff_cap,
            );
            sleep_interruptibly(shared, backoff);
            if shared.shutting_down() {
                return;
            }
            match worker.spawn_process(&shared.spec) {
                Ok(()) => {
                    worker.restarts.fetch_add(1, Ordering::Relaxed);
                    last_ok = Instant::now();
                    attempt = 0;
                }
                Err(_) => attempt = attempt.saturating_add(1),
            }
        }
    }
}

/// Sleeps `total` in small slices, returning early on shutdown.
fn sleep_interruptibly(shared: &SupShared, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !shared.shutting_down() {
        let left = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(left.min(Duration::from_millis(20)));
    }
}

/// The per-connection front door: frames lines, answers control ops
/// itself, forwards runs. A run blocks this connection's reader until
/// its shard answers (one in-flight run per client connection); other
/// connections proceed in parallel on other shards.
fn handle_connection(stream: Box<dyn Conn>, shared: &SupShared, client: u64) {
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
    shared: &SupShared,
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
                if shared.shutting_down() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn handle_line(line: &str, shared: &SupShared, reply: &SyncSender<String>, _client: u64) {
    let request = match request::parse_request(line) {
        Ok(request) => request,
        Err(err) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(response::error_line(None, &err));
            return;
        }
    };
    let id = request.id.as_deref();
    match request.op {
        Op::Ping => {
            let _ = reply.send(response::ping_line(id));
        }
        Op::Stats => {
            let _ = reply.send(stats_line(id, shared));
        }
        Op::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            let _ = reply.send(response::shutdown_line(id));
        }
        Op::Run { plan, .. } => {
            if shared.shutting_down() {
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(response::error_line(id, &shutting_down_error(id)));
                return;
            }
            if let Err(err) = request::admit(&plan, &shared.budgets) {
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(response::error_line(id, &err));
                return;
            }
            shared.accepted.fetch_add(1, Ordering::Relaxed);
            let fingerprint = plan.fingerprint();
            drop(plan);
            let response = dispatch(shared, line, id, fingerprint);
            let _ = reply.send(response);
        }
    }
}

/// Routes one admitted run to its shard and forwards it; on shard death
/// mid-request, reaps the shard and re-dispatches to the next-preferred
/// survivor (bounded by `max_redispatch`). The request line travels
/// verbatim, so the worker parses exactly what the client sent —
/// journal flags, resume keys, timeouts and all.
fn dispatch(shared: &SupShared, line: &str, id: Option<&str>, fingerprint: u64) -> String {
    let deadline = Instant::now() + shared.request_timeout + shared.liveness_deadline;
    let mut excluded = vec![false; shared.workers.len()];
    for attempt in 0..=shared.max_redispatch {
        let candidates: Vec<bool> = shared
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| w.alive() && !excluded[i])
            .collect();
        let Some(index) = route_worker(fingerprint, &candidates) else {
            break;
        };
        let worker = &shared.workers[index];
        if worker.pending.load(Ordering::SeqCst) >= shared.per_worker_capacity as u64 {
            let retry_after_ms =
                100 + 150 * worker.pending.load(Ordering::SeqCst) + retry_jitter_ms(id);
            return response::error_line(id, &ServeError::QueueFull { retry_after_ms });
        }
        if attempt > 0 {
            shared.redispatches.fetch_add(1, Ordering::Relaxed);
        }
        worker.routed.fetch_add(1, Ordering::Relaxed);
        worker.pending.fetch_add(1, Ordering::SeqCst);
        let result = worker.forward(line, deadline);
        worker.pending.fetch_sub(1, Ordering::SeqCst);
        match result {
            Ok(response) => return response,
            Err(_) => {
                // Reap before re-dispatch: the journal the dead shard may
                // have been writing must have no writer before a survivor
                // resumes it.
                worker.kill_and_reap();
                excluded[index] = true;
            }
        }
    }
    shared.worker_lost.fetch_add(1, Ordering::Relaxed);
    response::error_line(
        id,
        &ServeError::WorkerLost {
            message: "every candidate worker died mid-request".to_string(),
            retry_after_ms: 500 + retry_jitter_ms(id),
        },
    )
}

/// The supervisor's `stats` response: one entry per shard plus fleet
/// totals.
fn stats_line(id: Option<&str>, shared: &SupShared) -> String {
    let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let workers: Vec<String> = shared
        .workers
        .iter()
        .map(|w| {
            format!(
                "{{\"index\": {}, \"alive\": {}, \"pid\": {}, \"restarts\": {}, \
                 \"routed\": {}, \"pending\": {}}}",
                w.index,
                w.alive(),
                w.pid(),
                get(&w.restarts),
                get(&w.routed),
                get(&w.pending),
            )
        })
        .collect();
    let restarts: u64 = shared.workers.iter().map(|w| get(&w.restarts)).sum();
    format!(
        "{{\"id\": {}, \"status\": \"ok\", \"op\": \"stats\", \"stats\": {{\
         \"workers\": [{}], \"supervisor\": {{\"restarts\": {}, \"redispatches\": {}, \
         \"worker_lost\": {}, \"connections\": {}, \"accepted\": {}, \"rejected\": {}}}}}}}",
        match id {
            Some(id) => json::write_str(id),
            None => "null".to_string(),
        },
        workers.join(", "),
        restarts,
        get(&shared.redispatches),
        get(&shared.worker_lost),
        get(&shared.connections),
        get(&shared.accepted),
        get(&shared.rejected),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_sticky_and_moves_minimally_on_death() {
        let alive = [true, true, true];
        let picks: Vec<Option<usize>> = (0..64).map(|f| route_worker(f, &alive)).collect();
        // Deterministic.
        for (f, pick) in picks.iter().enumerate() {
            assert_eq!(*pick, route_worker(f as u64, &alive));
        }
        // Non-degenerate: more than one shard gets work.
        let distinct: std::collections::BTreeSet<_> = picks.iter().flatten().collect();
        assert!(distinct.len() > 1, "all 64 fingerprints on one shard");
        // Kill shard 1: only its fingerprints move, others stay put.
        let survivors = [true, false, true];
        for (f, pick) in picks.iter().enumerate() {
            let moved = route_worker(f as u64, &survivors);
            match pick {
                Some(1) => assert!(matches!(moved, Some(0) | Some(2))),
                other => assert_eq!(moved, *other, "fingerprint {f} moved needlessly"),
            }
        }
        // Nobody alive: nobody routed.
        assert_eq!(route_worker(7, &[false, false]), None);
        assert_eq!(route_worker(7, &[]), None);
    }

    #[test]
    fn restart_backoff_is_deterministic_capped_and_grows() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(2);
        let b0 = restart_backoff(0, 0, base, cap);
        assert_eq!(b0, restart_backoff(0, 0, base, cap));
        assert!(b0 >= base && b0 <= cap);
        // Grows (until the cap) and never exceeds it.
        let b3 = restart_backoff(3, 0, base, cap);
        assert!(b3 > b0);
        for attempt in 0..40 {
            assert!(restart_backoff(attempt, 1, base, cap) <= cap);
        }
        // Different shards jitter differently somewhere in the schedule.
        assert!(
            (0..8).any(|a| restart_backoff(a, 0, base, cap) != restart_backoff(a, 1, base, cap))
        );
    }
}
