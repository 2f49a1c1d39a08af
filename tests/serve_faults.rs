//! Fault-injection suite for the serve daemon.
//!
//! Uses the `fault-injection` feature of `nisq-serve` to make the worker
//! panic or stall on demand, and drives the daemon through the failures
//! the isolation machinery exists for: malformed wire input, mid-request
//! panics, deadline blowouts, queue overload, and clients that vanish
//! mid-request. The invariant under every fault: the daemon stays live
//! and every surviving request gets a well-formed, correctly-coded
//! response.

use nisq::exp::json::{self, Value};
use nisq::prelude::*;
use nisq::serve::{
    Endpoint, FaultPlan, Server, ServerConfig, ServerHandle, Supervisor, SupervisorConfig,
    SupervisorHandle, ENV_DELAY_BEFORE_RUN_MS, ENV_WEDGE_AFTER_PINGS,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn start(config: ServerConfig) -> (ServerHandle, SocketAddr) {
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), config).unwrap();
    let addr = server.local_addr().unwrap();
    (server.spawn(), addr)
}

struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        self.stream.flush().unwrap();
    }

    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim().to_string()
    }

    fn recv(&mut self) -> Value {
        json::parse(&self.recv_line()).unwrap()
    }

    fn roundtrip(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }
}

fn field<'a>(doc: &'a Value, key: &str) -> &'a Value {
    doc.get(key).unwrap_or_else(|| panic!("missing {key:?}"))
}

fn status(doc: &Value) -> &str {
    field(doc, "status").as_str().unwrap()
}

fn code(doc: &Value) -> &str {
    field(doc, "code").as_str().unwrap()
}

fn embedded_report(line: &str) -> Report {
    let idx = line.find("\"report\": ").expect("response embeds a report");
    Report::from_json(&line[idx + "\"report\": ".len()..line.len() - 1]).unwrap()
}

const VALID_RUN: &str = r#"{"op": "run", "id": "ok", "plan": {"benchmarks": "bv4", "mappers": "qiskit", "trials": 32, "sim_seed": 5}}"#;

/// A run whose plan contains a custom circuit named `boom` — the panic
/// trigger wired into the fault plans below.
const PANIC_RUN: &str = r#"{"op": "run", "id": "boom", "plan": {"circuits": [{"name": "boom", "qasm": "qreg q[2]; cx q[0], q[1];"}], "mappers": "qiskit"}}"#;

#[test]
fn mid_request_panic_is_answered_and_the_daemon_lives_on() {
    let config = ServerConfig {
        fault_plan: Some(FaultPlan {
            panic_on_circuit: Some("boom".to_string()),
            ..FaultPlan::none()
        }),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(addr);

    // Three panicking requests in a row: each gets a structured error.
    for _ in 0..3 {
        let response = client.roundtrip(PANIC_RUN);
        assert_eq!(status(&response), "error");
        assert_eq!(code(&response), "panic");
        assert_eq!(field(&response, "id").as_str(), Some("boom"));
    }

    // The daemon still serves, and the post-panic result is canonically
    // identical to a fresh local session's — faults do not corrupt the
    // science.
    client.send(VALID_RUN);
    let line = client.recv_line();
    let doc = json::parse(&line).unwrap();
    assert_eq!(status(&doc), "ok");
    let plan = SweepPlan::new()
        .benchmark(Benchmark::Bv4)
        .config("qiskit", CompilerConfig::qiskit())
        .with_trials(32)
        .fixed_sim_seed(5);
    let direct = Session::new().run(&plan).unwrap().canonicalized();
    assert_eq!(embedded_report(&line).canonicalized(), direct);

    let stats = client.roundtrip(r#"{"op": "stats"}"#);
    let body = field(&stats, "stats");
    assert_eq!(field(body, "panics").as_u64(), Some(3));
    assert_eq!(field(body, "completed").as_u64(), Some(1));

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn bounded_queue_rejects_excess_load_with_a_retry_hint() {
    let config = ServerConfig {
        queue_capacity: 1,
        fault_plan: Some(FaultPlan {
            delay_before_run_ms: Some(400),
            ..FaultPlan::none()
        }),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(addr);

    // First request is popped by the (stalled) worker, second fills the
    // queue; pump more until backpressure appears, then collect every
    // response and match by id: nothing is lost, nothing malformed.
    let ids = ["q0", "q1", "q2", "q3", "q4"];
    for id in ids {
        client.send(&VALID_RUN.replace("\"ok\"", &format!("{:?}", id)));
        // Space the sends out so admission order is deterministic.
        std::thread::sleep(Duration::from_millis(30));
    }
    let mut responses: HashMap<String, Value> = HashMap::new();
    for _ in ids {
        let doc = client.recv();
        let id = field(&doc, "id").as_str().unwrap().to_string();
        responses.insert(id, doc);
    }
    let rejected = ids
        .iter()
        .filter(|id| status(&responses[**id]) == "error")
        .count();
    assert!(rejected >= 1, "overload must surface as queue-full");
    for id in ids {
        let doc = &responses[id];
        match status(doc) {
            "ok" => {}
            "error" => {
                assert_eq!(code(doc), "queue-full");
                assert!(field(doc, "retry_after_ms").as_u64().unwrap() > 0);
            }
            other => panic!("unexpected status {other}"),
        }
    }

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn deadlines_bound_request_wall_clock() {
    let config = ServerConfig {
        fault_plan: Some(FaultPlan {
            delay_before_run_ms: Some(300),
            ..FaultPlan::none()
        }),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(addr);

    // The injected stall eats the whole 100 ms budget before the first
    // cell can start: a clean timeout, elapsed time reported.
    let response = client
        .roundtrip(r#"{"op": "run", "id": "late", "timeout_ms": 100, "plan": {"benchmarks": "bv4", "mappers": "qiskit"}}"#);
    assert_eq!(status(&response), "error");
    assert_eq!(code(&response), "timeout");
    assert!(field(&response, "message").as_str().unwrap().contains("ms"));

    // A request after the timeout is unaffected.
    let ok = client.roundtrip(VALID_RUN);
    assert_eq!(status(&ok), "ok");

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn expiring_mid_plan_returns_a_partial_report() {
    // No injected delay: the budget expires between cells. The first cell
    // always starts (the deadline is checked before each cell), later
    // days are cut off once 450 ms of stall + compile + simulate pass the
    // 500 ms budget.
    let config = ServerConfig {
        max_trials: 1 << 20,
        fault_plan: Some(FaultPlan {
            delay_before_run_ms: Some(450),
            ..FaultPlan::none()
        }),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(addr);

    client.send(
        r#"{"op": "run", "id": "cut", "timeout_ms": 500, "plan": {"benchmarks": "bv4", "mappers": "qiskit", "days": "0..6", "trials": 300000, "sim_seed": 1}}"#,
    );
    let line = client.recv_line();
    let doc = json::parse(&line).unwrap();
    assert_eq!(status(&doc), "partial");
    assert_eq!(code(&doc), "timeout");
    let done = field(&doc, "cells_done").as_u64().unwrap();
    let total = field(&doc, "cells_total").as_u64().unwrap();
    assert_eq!(total, 6);
    assert!(
        done >= 1 && done < total,
        "partial means a strict prefix, got {done}/{total}"
    );
    let report = embedded_report(&line);
    assert_eq!(report.cells.len() as u64, done);

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn expiring_compile_only_plan_returns_its_compiled_prefix() {
    // A plan without trials spends its whole budget compiling: R-SMT*
    // places BV8 afresh for each of 12 days. Once the budget runs out
    // mid-plan, every cell compiled so far is still reported.
    let config = ServerConfig {
        fault_plan: Some(FaultPlan {
            delay_before_run_ms: Some(450),
            ..FaultPlan::none()
        }),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(addr);

    client.send(
        r#"{"op": "run", "id": "cut", "timeout_ms": 500, "plan": {"benchmarks": "bv8", "mappers": "r-smt-star", "days": "0..12"}}"#,
    );
    let line = client.recv_line();
    let doc = json::parse(&line).unwrap();
    assert_eq!(status(&doc), "partial", "{line}");
    let done = field(&doc, "cells_done").as_u64().unwrap();
    assert!(
        (1..12).contains(&done),
        "partial means a strict prefix, got {done}/12"
    );
    let report = embedded_report(&line);
    assert_eq!(report.cells.len() as u64, done);
    assert_eq!(report.cache.compile_requests, done);

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn vanishing_clients_do_not_wedge_the_worker() {
    let config = ServerConfig {
        fault_plan: Some(FaultPlan {
            delay_before_run_ms: Some(200),
            ..FaultPlan::none()
        }),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);

    // Submit work, then vanish before the response can be written.
    {
        let mut doomed = Client::connect(addr);
        doomed.send(VALID_RUN);
    }

    // The worker finishes the orphaned request and moves on; a live
    // client sees a healthy daemon.
    let mut client = Client::connect(addr);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.roundtrip(r#"{"op": "stats"}"#);
        let done = field(field(&stats, "stats"), "completed").as_u64().unwrap();
        if done >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned request never completed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(status(&client.roundtrip(VALID_RUN)), "ok");

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_inflight_work_and_refuses_new_work() {
    let config = ServerConfig {
        fault_plan: Some(FaultPlan {
            delay_before_run_ms: Some(300),
            ..FaultPlan::none()
        }),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut worker_client = Client::connect(addr);
    worker_client.send(VALID_RUN);
    // Let the request get admitted before pulling the plug.
    std::thread::sleep(Duration::from_millis(100));

    handle.shutdown();

    // The in-flight request still completes and its response arrives.
    let finished = worker_client.recv();
    assert_eq!(status(&finished), "ok");

    handle.join().unwrap();
}

#[test]
fn flooding_client_cannot_starve_a_quiet_one() {
    let config = ServerConfig {
        queue_capacity: 8,
        fault_plan: Some(FaultPlan {
            delay_before_run_ms: Some(400),
            ..FaultPlan::none()
        }),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);

    // Connection 0 floods four requests before connection 1 says a word.
    let mut flooder = Client::connect(addr);
    for i in 0..4 {
        flooder.send(&VALID_RUN.replace("\"ok\"", &format!("\"flood-{i}\"")));
    }
    // Let the flood be admitted (and its first request claimed by the
    // stalled worker) before the quiet client appears.
    std::thread::sleep(Duration::from_millis(150));
    let mut quiet = Client::connect(addr);
    quiet.send(&VALID_RUN.replace("\"ok\"", "\"quiet\""));

    let response = quiet.recv();
    assert_eq!(status(&response), "ok");
    assert_eq!(field(&response, "id").as_str(), Some("quiet"));
    // Round-robin proof: the quiet answer lands while the flood is still
    // queued behind it — under FIFO the whole flood would drain first.
    let stats = quiet.roundtrip(r#"{"op": "stats"}"#);
    let body = field(&stats, "stats");
    let depths = field(body, "queue_depths");
    assert!(
        depths.get("0").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "flooder lane should still hold work when the quiet client is answered: {stats:?}"
    );

    // Nothing is lost: the flood still gets every response.
    for _ in 0..4 {
        assert_eq!(status(&flooder.recv()), "ok");
    }
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn lane_capacity_bounds_the_flooder_with_jittered_backoff_not_the_neighbors() {
    let config = ServerConfig {
        queue_capacity: 1,
        fault_plan: Some(FaultPlan {
            delay_before_run_ms: Some(400),
            ..FaultPlan::none()
        }),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut flooder = Client::connect(addr);

    // flood-0 is claimed by the (stalled) worker, flood-1 fills the lane,
    // flood-2 bounces off the per-lane bound.
    flooder.send(&VALID_RUN.replace("\"ok\"", "\"flood-0\""));
    std::thread::sleep(Duration::from_millis(100));
    flooder.send(&VALID_RUN.replace("\"ok\"", "\"flood-1\""));
    std::thread::sleep(Duration::from_millis(50));
    flooder.send(&VALID_RUN.replace("\"ok\"", "\"flood-2\""));
    let rejection = flooder.recv();
    assert_eq!(status(&rejection), "error");
    assert_eq!(code(&rejection), "queue-full");
    // retry_after_ms = 100 + 150 * queue_len + fnv64(id) % 100: the
    // deterministic per-id jitter de-synchronizes retrying herds.
    let retry = field(&rejection, "retry_after_ms").as_u64().unwrap();
    let jitter = nisq::exp::fnv64(b"flood-2") % 100;
    assert!(retry >= 100 + 150 + jitter, "retry hint too small: {retry}");
    assert_eq!((retry - 100 - jitter) % 150, 0, "jitter missing: {retry}");

    // The full lane is the flooder's problem alone: a fresh client's
    // request is admitted immediately.
    let mut quiet = Client::connect(addr);
    assert_eq!(status(&quiet.roundtrip(VALID_RUN)), "ok");
    for _ in 0..2 {
        assert_eq!(status(&flooder.recv()), "ok");
    }
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn journaled_requests_resume_across_a_daemon_restart() {
    let dir = std::env::temp_dir().join("nisq-serve-journal-test");
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let run = r#"{"op": "run", "id": "j1", "resume_key": "exp-42", "plan": {"benchmarks": "bv4,hs2", "mappers": "qiskit", "trials": 32, "sim_seed": 5, "journal": true}}"#;

    let (handle, addr) = start(config());
    let mut client = Client::connect(addr);
    client.send(run);
    let first_line = client.recv_line();
    let first = json::parse(&first_line).unwrap();
    assert_eq!(status(&first), "ok");
    let first_report = embedded_report(&first_line);
    assert_eq!(first_report.resumed_cells, 0);
    // The journal landed where resume_key says it should.
    let journal = nisq::serve::journal_path(&dir, "exp-42");
    assert!(journal.is_file(), "{journal:?} missing");
    handle.shutdown();
    handle.join().unwrap();

    // "Crash" and restart: a new daemon over the same journal directory
    // serves the re-sent request from the finished prefix, bit-identically.
    let (handle, addr) = start(config());
    let mut client = Client::connect(addr);
    client.send(run);
    let second_line = client.recv_line();
    let second = json::parse(&second_line).unwrap();
    assert_eq!(status(&second), "ok");
    let second_report = embedded_report(&second_line);
    assert_eq!(second_report.resumed_cells, 2);
    assert_eq!(second_report.cache.journal_hits, 2);
    assert_eq!(
        second_report.to_json_line_canonical(),
        first_report.to_json_line_canonical()
    );

    // An unusable journal is a typed request error, not a daemon fault.
    std::fs::write(nisq::serve::journal_path(&dir, "bad"), b"not a journal\n").unwrap();
    let corrupt = client.roundtrip(
        r#"{"op": "run", "id": "j2", "resume_key": "bad", "plan": {"benchmarks": "bv4", "mappers": "qiskit", "journal": true}}"#,
    );
    assert_eq!(status(&corrupt), "error");
    assert_eq!(code(&corrupt), "journal-corrupt");

    // Journaling without a resume_key is refused up front.
    let keyless = client.roundtrip(
        r#"{"op": "run", "id": "j3", "plan": {"benchmarks": "bv4", "mappers": "qiskit", "journal": true}}"#,
    );
    assert_eq!(status(&keyless), "error");
    assert_eq!(code(&keyless), "invalid-plan");

    let stats = client.roundtrip(r#"{"op": "stats"}"#);
    let journal_stats = field(field(&stats, "stats"), "journal");
    assert_eq!(field(journal_stats, "runs").as_u64(), Some(1));
    assert_eq!(field(journal_stats, "corrupt").as_u64(), Some(1));
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn journaled_requests_need_a_journal_dir() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(addr);
    let response = client.roundtrip(
        r#"{"op": "run", "id": "nodir", "resume_key": "k", "plan": {"benchmarks": "bv4", "mappers": "qiskit", "journal": true}}"#,
    );
    assert_eq!(status(&response), "error");
    assert_eq!(code(&response), "invalid-plan");
    assert!(field(&response, "message")
        .as_str()
        .unwrap()
        .contains("--journal-dir"));
    handle.shutdown();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------
// Supervised multi-worker fleet: worker-kill battery.
//
// These tests boot the real `nisqc` binary as worker processes (the
// test build carries the fault-injection hooks via feature unification)
// and drive the supervisor through the deaths it exists for: SIGKILL
// mid-request, a wedged worker that stops answering heartbeats, and the
// total loss of every candidate shard.
// ---------------------------------------------------------------------

/// A supervisor over `workers` copies of the `nisqc` test binary, with a
/// shared journal directory and the given extra worker environment.
fn fleet_config(workers: usize, name: &str, env: &[(&str, &str)]) -> SupervisorConfig {
    let dir = std::env::temp_dir().join(format!("nisq-supervisor-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let journal_dir = dir.join("journals");
    std::fs::create_dir_all(&journal_dir).unwrap();
    let server = ServerConfig {
        journal_dir: Some(journal_dir.clone()),
        ..ServerConfig::default()
    };
    let mut config = SupervisorConfig::new(
        workers,
        server,
        dir.join("run"),
        PathBuf::from(env!("CARGO_BIN_EXE_nisqc")),
    );
    config.spec.args.extend([
        "--journal-dir".to_string(),
        journal_dir.display().to_string(),
    ]);
    config.spec.env = env
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect();
    config
}

fn start_fleet(config: SupervisorConfig) -> (SupervisorHandle, SocketAddr) {
    let supervisor = Supervisor::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), config).unwrap();
    let addr = supervisor.local_addr().unwrap();
    (supervisor.spawn(), addr)
}

fn sigkill(pid: u64) {
    let status = std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("kill -9 {pid}"))
        .status()
        .unwrap();
    assert!(status.success(), "kill -9 {pid} failed");
}

fn workers_field(stats: &Value) -> &[Value] {
    field(field(stats, "stats"), "workers").as_array().unwrap()
}

fn supervisor_counter(stats: &Value, key: &str) -> u64 {
    field(field(field(stats, "stats"), "supervisor"), key)
        .as_u64()
        .unwrap()
}

fn poll_until<T>(mut probe: impl FnMut() -> Option<T>, what: &str) -> T {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(15));
    }
}

/// The pid of the one shard currently holding a forwarded request.
fn routed_shard_pid(observer: &mut Client) -> u64 {
    poll_until(
        || {
            let stats = observer.roundtrip(r#"{"op": "stats"}"#);
            workers_field(&stats).iter().find_map(|w| {
                (field(w, "pending").as_u64() == Some(1)).then(|| field(w, "pid").as_u64().unwrap())
            })
        },
        "the run to be routed to a shard",
    )
}

const FAILOVER_RUN: &str = r#"{"op": "run", "id": "fo", "resume_key": "fo-1", "plan": {"benchmarks": "bv4,hs2", "mappers": "qiskit", "trials": 32, "sim_seed": 5, "journal": true}}"#;

fn failover_reference() -> Report {
    let plan = SweepPlan::new()
        .benchmark(Benchmark::Bv4)
        .benchmark(Benchmark::Hs2)
        .config("qiskit", CompilerConfig::qiskit())
        .with_trials(32)
        .fixed_sim_seed(5);
    Session::new().run(&plan).unwrap().canonicalized()
}

#[test]
fn sigkilled_worker_fails_over_transparently_and_bit_identically() {
    let mut config = fleet_config(2, "failover", &[(ENV_DELAY_BEFORE_RUN_MS, "600")]);
    config.restart_backoff_base = Duration::from_millis(100);
    let (handle, addr) = start_fleet(config);

    let mut runner = Client::connect(addr);
    runner.send(FAILOVER_RUN);

    // SIGKILL the routed shard inside its injected pre-run stall.
    let mut observer = Client::connect(addr);
    sigkill(routed_shard_pid(&mut observer));

    // The client sees one ordinary success: the supervisor reaped the
    // dead shard and re-dispatched to the survivor, whose report is
    // canonically identical to a fresh single-process run.
    let line = runner.recv_line();
    let doc = json::parse(&line).unwrap();
    assert_eq!(status(&doc), "ok", "{line}");
    let direct = failover_reference();
    assert_eq!(embedded_report(&line).canonicalized(), direct);

    let stats = observer.roundtrip(r#"{"op": "stats"}"#);
    assert_eq!(supervisor_counter(&stats, "redispatches"), 1);
    assert_eq!(supervisor_counter(&stats, "worker_lost"), 0);

    // The killed shard is respawned within the (capped) backoff.
    poll_until(
        || {
            let stats = observer.roundtrip(r#"{"op": "stats"}"#);
            (supervisor_counter(&stats, "restarts") == 1
                && workers_field(&stats)
                    .iter()
                    .all(|w| field(w, "alive").as_bool() == Some(true)))
            .then_some(())
        },
        "the killed shard to be restarted",
    );

    // Re-sending the identical request replays the survivor's journal —
    // wherever the hash now routes it — without recomputing a cell.
    runner.send(FAILOVER_RUN);
    let line = runner.recv_line();
    assert_eq!(status(&json::parse(&line).unwrap()), "ok", "{line}");
    let report = embedded_report(&line);
    assert_eq!(report.resumed_cells, 2);
    assert_eq!(report.cache.journal_hits, 2);
    assert_eq!(report.canonicalized(), direct);

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn killing_the_only_worker_is_a_coded_retryable_loss_then_recovery() {
    let config = fleet_config(1, "worker-lost", &[(ENV_DELAY_BEFORE_RUN_MS, "600")]);
    let (handle, addr) = start_fleet(config);
    let run = r#"{"op": "run", "id": "lost-1", "resume_key": "lost", "plan": {"benchmarks": "bv4", "mappers": "qiskit", "trials": 32, "sim_seed": 5, "journal": true}}"#;

    let mut runner = Client::connect(addr);
    runner.send(run);
    let mut observer = Client::connect(addr);
    sigkill(routed_shard_pid(&mut observer));

    // No surviving candidate: the client gets the coded, retryable
    // loss with the same deterministic per-id jitter as queue-full.
    let doc = runner.recv();
    assert_eq!(status(&doc), "error");
    assert_eq!(code(&doc), "worker-lost");
    let retry = field(&doc, "retry_after_ms").as_u64().unwrap();
    assert_eq!(retry, 500 + nisq::exp::fnv64(b"lost-1") % 100);

    // The monitor respawns the shard; the retried request succeeds and
    // matches a fresh single-process run bit-for-bit.
    poll_until(
        || {
            let stats = observer.roundtrip(r#"{"op": "stats"}"#);
            let worker = &workers_field(&stats)[0];
            (field(worker, "alive").as_bool() == Some(true)
                && field(worker, "restarts").as_u64() == Some(1))
            .then_some(())
        },
        "the lone shard to be restarted",
    );
    runner.send(run);
    let line = runner.recv_line();
    assert_eq!(status(&json::parse(&line).unwrap()), "ok", "{line}");
    let plan = SweepPlan::new()
        .benchmark(Benchmark::Bv4)
        .config("qiskit", CompilerConfig::qiskit())
        .with_trials(32)
        .fixed_sim_seed(5);
    let direct = Session::new().run(&plan).unwrap().canonicalized();
    assert_eq!(embedded_report(&line).canonicalized(), direct);

    let stats = observer.roundtrip(r#"{"op": "stats"}"#);
    assert_eq!(supervisor_counter(&stats, "worker_lost"), 1);
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn wedged_worker_misses_heartbeats_and_is_restarted() {
    // The worker answers two heartbeats, then goes silent while its
    // process lives on — the liveness deadline, not process exit, must
    // catch it.
    let mut config = fleet_config(1, "wedge", &[(ENV_WEDGE_AFTER_PINGS, "2")]);
    config.heartbeat_interval = Duration::from_millis(100);
    config.liveness_deadline = Duration::from_millis(400);
    config.restart_backoff_base = Duration::from_millis(50);
    let (handle, addr) = start_fleet(config);

    let mut observer = Client::connect(addr);
    poll_until(
        || {
            let stats = observer.roundtrip(r#"{"op": "stats"}"#);
            let worker = &workers_field(&stats)[0];
            (field(worker, "restarts").as_u64().unwrap() >= 1
                && field(worker, "alive").as_bool() == Some(true))
            .then_some(())
        },
        "the wedged worker to be reaped and respawned",
    );
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn routing_is_sticky_for_one_plan_across_reconnects() {
    let config = fleet_config(3, "sticky", &[]);
    let (handle, addr) = start_fleet(config);

    // The same plan from four fresh connections: rendezvous hashing must
    // land every one on the same shard, keeping its caches warm.
    for i in 0..4 {
        let mut client = Client::connect(addr);
        let doc = client.roundtrip(&VALID_RUN.replace("\"ok\"", &format!("\"sticky-{i}\"")));
        assert_eq!(status(&doc), "ok");
    }
    let mut observer = Client::connect(addr);
    let stats = observer.roundtrip(r#"{"op": "stats"}"#);
    let routed: Vec<u64> = workers_field(&stats)
        .iter()
        .map(|w| field(w, "routed").as_u64().unwrap())
        .collect();
    assert_eq!(routed.iter().sum::<u64>(), 4);
    assert!(
        routed.contains(&4),
        "one plan should always land on one shard: {routed:?}"
    );
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn mixed_hostile_load_yields_one_well_formed_response_per_request() {
    let config = ServerConfig {
        fault_plan: Some(FaultPlan {
            panic_on_circuit: Some("boom".to_string()),
            ..FaultPlan::none()
        }),
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(addr);

    let battery: &[(&str, &str, &str)] = &[
        ("{malformed", "error", "protocol"),
        (r#"{"op": "dance"}"#, "error", "protocol"),
        (
            r#"{"op": "run", "id": "bad-plan", "plan": {"benchmarks": "nope"}}"#,
            "error",
            "invalid-plan",
        ),
        (
            r#"{"op": "run", "id": "deg", "plan": {"benchmarks": "bv4", "topologies": "ring-1"}}"#,
            "error",
            "invalid-plan",
        ),
        (
            r#"{"op": "run", "id": "big", "plan": {"benchmarks": "bv4", "topologies": "grid-1000x1000"}}"#,
            "error",
            "budget",
        ),
        (PANIC_RUN, "error", "panic"),
        (VALID_RUN, "ok", ""),
    ];
    for (line, want_status, want_code) in battery {
        let response = client.roundtrip(line);
        assert_eq!(status(&response), *want_status, "{line}");
        if !want_code.is_empty() {
            assert_eq!(code(&response), *want_code, "{line}");
        }
    }

    handle.shutdown();
    handle.join().unwrap();
}
