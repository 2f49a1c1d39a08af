//! Process lifecycle of one supervised worker shard.
//!
//! A worker is a separate OS process running the ordinary single-session
//! daemon ([`Server`](crate::Server)) on a private Unix socket, so a
//! crash — SIGKILL, OOM, abort — takes out one shard's caches and
//! nothing else. The supervisor talks to each worker over two
//! connections:
//!
//! - a **request connection**, held under a mutex for the whole
//!   request/response exchange. The worker drains its queue with a single
//!   session thread anyway, so serializing here costs no throughput and
//!   makes response matching trivial (the next line *is* the answer);
//! - a **control connection** for heartbeat pings, kept separate so a
//!   long-running sweep never starves the liveness check (the worker's
//!   per-connection reader answers pings inline, off the session thread).
//!
//! Connections are opened lazily and dropped on any I/O error, so a
//! restarted worker is re-dialed transparently on the next use.

use crate::server::write_line;
use std::io::{self, Read};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How to launch a worker process: the executable, an argument template,
/// and extra environment. The supervisor substitutes each shard's socket
/// path for the literal `"{socket}"` argument, so any binary that can
/// serve a Unix socket — in practice `nisqc serve --unix {socket}` — can
/// be a worker without the serve crate knowing the CLI.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// The worker executable.
    pub exe: PathBuf,
    /// Arguments, with the literal `"{socket}"` replaced by the shard's
    /// socket path at spawn time.
    pub args: Vec<String>,
    /// Extra environment variables set on the worker process (the rest of
    /// the supervisor's environment is inherited).
    pub env: Vec<(String, String)>,
    /// How long a freshly spawned worker gets to bind its socket before
    /// the spawn is declared failed.
    pub spawn_timeout: Duration,
}

/// One supervised shard: the child process, its socket, and the two
/// connections the supervisor holds onto it.
pub(crate) struct WorkerHandle {
    pub(crate) index: usize,
    pub(crate) socket: PathBuf,
    alive: AtomicBool,
    pid: AtomicU64,
    /// Successful respawns after the initial spawn.
    pub(crate) restarts: AtomicU64,
    /// Requests routed to this shard (stickiness is observable here).
    pub(crate) routed: AtomicU64,
    /// Requests currently forwarded and awaiting a response.
    pub(crate) pending: AtomicU64,
    child: Mutex<Option<Child>>,
    request_conn: Mutex<Option<UnixStream>>,
    control_conn: Mutex<Option<UnixStream>>,
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn dial(socket: &PathBuf) -> io::Result<UnixStream> {
    let stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    Ok(stream)
}

impl WorkerHandle {
    pub(crate) fn new(index: usize, socket: PathBuf) -> WorkerHandle {
        WorkerHandle {
            index,
            socket,
            alive: AtomicBool::new(false),
            pid: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            child: Mutex::new(None),
            request_conn: Mutex::new(None),
            control_conn: Mutex::new(None),
        }
    }

    pub(crate) fn alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    pub(crate) fn pid(&self) -> u64 {
        self.pid.load(Ordering::SeqCst)
    }

    /// Spawns the worker process and waits for its socket to accept (the
    /// readiness probe doubles as the initial control connection).
    pub(crate) fn spawn_process(&self, spec: &WorkerSpec) -> io::Result<()> {
        let _ = std::fs::remove_file(&self.socket);
        let socket = self.socket.to_string_lossy().into_owned();
        let args: Vec<String> = spec
            .args
            .iter()
            .map(|a| {
                if a == "{socket}" {
                    socket.clone()
                } else {
                    a.clone()
                }
            })
            .collect();
        let mut command = Command::new(&spec.exe);
        command
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        for (key, value) in &spec.env {
            command.env(key, value);
        }
        let child = command.spawn()?;
        self.pid.store(u64::from(child.id()), Ordering::SeqCst);
        *lock(&self.child) = Some(child);

        let deadline = Instant::now() + spec.spawn_timeout;
        loop {
            match dial(&self.socket) {
                Ok(stream) => {
                    *lock(&self.control_conn) = Some(stream);
                    break;
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    self.kill_and_reap();
                    return Err(e);
                }
            }
        }
        *lock(&self.request_conn) = None;
        self.alive.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Marks the shard dead, kills the process if it still runs, reaps
    /// the zombie, and drops both connections. Idempotent; called for
    /// every detected failure *before* any re-dispatch, so two processes
    /// never write one journal concurrently.
    pub(crate) fn kill_and_reap(&self) {
        self.alive.store(false, Ordering::SeqCst);
        *lock(&self.request_conn) = None;
        *lock(&self.control_conn) = None;
        if let Some(mut child) = lock(&self.child).take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.pid.store(0, Ordering::SeqCst);
    }

    /// Whether the child process has exited (or was never spawned).
    pub(crate) fn child_exited(&self) -> bool {
        match lock(&self.child).as_mut() {
            Some(child) => !matches!(child.try_wait(), Ok(None)),
            None => true,
        }
    }

    /// Forwards one request line verbatim and returns the worker's
    /// response line. Holds the request connection for the whole
    /// exchange; any failure drops the connection so the next attempt
    /// re-dials.
    pub(crate) fn forward(&self, line: &str, deadline: Instant) -> io::Result<String> {
        let mut guard = lock(&self.request_conn);
        if guard.is_none() {
            *guard = Some(dial(&self.socket)?);
        }
        let stream = guard.as_mut().expect("connection was just dialed");
        let result = exchange(stream, line, deadline);
        if result.is_err() {
            *guard = None;
        }
        result
    }

    /// One heartbeat: sends `ping` on the control connection and waits
    /// for any response line until `deadline`.
    pub(crate) fn ping(&self, deadline: Instant) -> io::Result<()> {
        let mut guard = lock(&self.control_conn);
        if guard.is_none() {
            *guard = Some(dial(&self.socket)?);
        }
        let stream = guard.as_mut().expect("connection was just dialed");
        let result = exchange(stream, "{\"op\": \"ping\"}", deadline);
        if result.is_err() {
            *guard = None;
        }
        result.map(|_| ())
    }

    /// Best-effort graceful shutdown request (the worker drains and
    /// exits); falls back to nothing if the connection is gone.
    pub(crate) fn request_shutdown(&self, deadline: Instant) {
        let mut guard = lock(&self.control_conn);
        if guard.is_none() {
            match dial(&self.socket) {
                Ok(stream) => *guard = Some(stream),
                Err(_) => return,
            }
        }
        let stream = guard.as_mut().expect("connection was just dialed");
        let _ = exchange(stream, "{\"op\": \"shutdown\"}", deadline);
    }

    /// Waits up to `grace` for the child to exit on its own, then kills
    /// and reaps whatever is left.
    pub(crate) fn shutdown_and_reap(&self, grace: Duration) {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline && !self.child_exited() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.kill_and_reap();
    }
}

/// Writes one line and reads one line back, polling the stream's short
/// read timeout until `deadline`.
fn exchange(stream: &mut UnixStream, line: &str, deadline: Instant) -> io::Result<String> {
    write_line(stream, line)?;
    let mut buffer: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "worker closed the connection",
                ))
            }
            Ok(n) => {
                buffer.extend_from_slice(&chunk[..n]);
                if let Some(pos) = buffer.iter().position(|&b| b == b'\n') {
                    return Ok(String::from_utf8_lossy(&buffer[..pos]).into_owned());
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "worker response deadline expired",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
}
