//! Protocol round-trip tests against a live daemon on a loopback TCP
//! socket: framing, error-response schema, control operations, and
//! determinism of reports across reconnects.

use nisq_exp::json::{self, Value};
use nisq_exp::{Report, Session, SweepPlan};
use nisq_serve::{Endpoint, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
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

    /// Sends one request line in a single write, so the client side adds
    /// no Nagle/delayed-ACK stall of its own.
    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
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

/// Extracts the embedded report of a `run` response line as a [`Report`].
fn embedded_report(line: &str) -> Report {
    let idx = line.find("\"report\": ").expect("response embeds a report");
    let report_json = &line[idx + "\"report\": ".len()..line.len() - 1];
    Report::from_json(report_json).unwrap()
}

#[test]
fn control_ops_roundtrip_and_shutdown_drains() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(addr);

    let pong = client.roundtrip(r#"{"op": "ping", "id": "p1"}"#);
    assert_eq!(status(&pong), "ok");
    assert_eq!(field(&pong, "id").as_str(), Some("p1"));

    let stats = client.roundtrip(r#"{"op": "stats"}"#);
    assert_eq!(status(&stats), "ok");
    let body = field(&stats, "stats");
    assert_eq!(field(body, "queue_depth").as_u64(), Some(0));
    assert_eq!(field(body, "accepted").as_u64(), Some(0));

    let bye = client.roundtrip(r#"{"op": "shutdown", "id": "s1"}"#);
    assert_eq!(status(&bye), "ok");
    handle.join().unwrap();
}

#[test]
fn tcp_round_trips_do_not_stall_on_a_split_reply() {
    // A reply written as the line and then its newline leaves the newline
    // behind Nagle's algorithm until the client's delayed ACK, ~40 ms.
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(addr);
    let mut pings: Vec<Duration> = (0..20)
        .map(|i| {
            let started = Instant::now();
            let pong = client.roundtrip(&format!(r#"{{"op": "ping", "id": "p{i}"}}"#));
            assert_eq!(status(&pong), "ok");
            started.elapsed()
        })
        .collect();
    pings.sort();
    let median = pings[pings.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median ping {median:?} over {pings:?}"
    );
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn malformed_requests_get_structured_errors_and_the_daemon_survives() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(addr);

    for (line, code) in [
        ("{nope", "protocol"),
        (r#"{"op": "frobnicate"}"#, "protocol"),
        (r#"{"op": "run", "plan": {}, "surprise": 1}"#, "protocol"),
        (
            r#"{"op": "run", "plan": {"benchmarks": "bv99"}}"#,
            "invalid-plan",
        ),
        (
            r#"{"op": "run", "plan": {"benchmarks": "bv4", "topologies": "grid-0x5"}}"#,
            "invalid-plan",
        ),
    ] {
        let response = client.roundtrip(line);
        assert_eq!(status(&response), "error", "{line}");
        assert_eq!(field(&response, "code").as_str(), Some(code), "{line}");
        assert!(field(&response, "message").as_str().is_some(), "{line}");
    }

    // Budget violations carry the dedicated code.
    let response = client
        .roundtrip(r#"{"op": "run", "id": 7, "plan": {"benchmarks": "bv4", "trials": 999999999}}"#);
    assert_eq!(field(&response, "code").as_str(), Some("budget"));
    assert_eq!(
        field(&response, "id").as_str(),
        Some("7"),
        "integer ids echo as strings"
    );

    // After the barrage the daemon still serves.
    assert_eq!(status(&client.roundtrip(r#"{"op": "ping"}"#)), "ok");
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn oversized_request_lines_are_refused() {
    let config = ServerConfig {
        max_request_bytes: 1024,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);
    let mut client = Client::connect(addr);
    let huge = format!("{{\"op\": \"ping\", \"id\": \"{}\"}}", "x".repeat(4096));
    let response = client.roundtrip(&huge);
    assert_eq!(status(&response), "error");
    assert_eq!(field(&response, "code").as_str(), Some("protocol"));
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn reports_are_deterministic_across_reconnects_and_match_a_direct_session() {
    let (handle, addr) = start(ServerConfig::default());
    let request = r#"{"op": "run", "id": "r1", "plan": {"benchmarks": "bv4",
        "mappers": "qiskit", "trials": 64, "sim_seed": 7}}"#
        .replace('\n', " ");

    let mut first = Client::connect(addr);
    first.send(&request);
    let line = first.recv_line();
    let doc = json::parse(&line).unwrap();
    assert_eq!(status(&doc), "ok");
    assert_eq!(field(&doc, "cells_done").as_u64(), Some(1));
    assert_eq!(field(&doc, "cells_total").as_u64(), Some(1));
    let report_a = embedded_report(&line).canonicalized();
    drop(first);

    let mut second = Client::connect(addr);
    second.send(&request);
    let report_b = embedded_report(&second.recv_line()).canonicalized();

    assert_eq!(report_a, report_b, "same plan + seed must be bit-identical");

    // The daemon's report matches a freshly built local session's, so
    // serving through the daemon changes nothing about the science.
    let plan = SweepPlan::new()
        .benchmark(nisq_ir::Benchmark::Bv4)
        .config("qiskit", nisq_core::CompilerConfig::qiskit())
        .with_trials(64)
        .fixed_sim_seed(7);
    let direct = Session::new().run(&plan).unwrap().canonicalized();
    assert_eq!(report_a, direct);

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn noise_specs_run_through_the_daemon_with_per_cell_provenance() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(addr);

    // The acceptance spec: calibration-scaled depolarizing on CNOTs plus
    // amplitude damping on measures. Every cell of the returned v5 report
    // must carry the spec's name as its noise provenance.
    let request = r#"{"op": "run", "id": "n1", "plan": {"benchmarks": "bv4",
        "mappers": "qiskit", "trials": 64, "sim_seed": 7,
        "noise": {"name": "depol-cnot_ad-measure", "bindings": [
            {"on": "cnot", "rate": {"calibration": 2.0},
             "channel": {"kind": "depolarizing-2q"}},
            {"on": "measure", "rate": 0.05,
             "channel": {"kind": "amplitude-damping"}}]}}}"#
        .replace('\n', " ");
    client.send(&request);
    let line = client.recv_line();
    let doc = json::parse(&line).unwrap();
    assert_eq!(status(&doc), "ok");
    let report = embedded_report(&line);
    assert!(!report.cells.is_empty());
    for cell in &report.cells {
        assert_eq!(cell.noise.as_deref(), Some("depol-cnot_ad-measure"));
    }

    // A malformed binding inside the noise object is an invalid-plan
    // error, and the daemon keeps serving afterwards.
    let bad = client.roundtrip(
        r#"{"op": "run", "id": "n2", "plan": {"benchmarks": "bv4",
            "noise": {"name": "x", "bindings": [{"on": "warp"}]}}}"#
            .replace('\n', " ")
            .as_str(),
    );
    assert_eq!(status(&bad), "error");
    assert_eq!(field(&bad, "code").as_str(), Some("invalid-plan"));
    let pong = client.roundtrip(r#"{"op": "ping", "id": "n3"}"#);
    assert_eq!(status(&pong), "ok");

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (handle, addr) = start(ServerConfig::default());
    let mut client = Client::connect(addr);
    client.send(r#"{"op": "ping", "id": "a"}"#);
    client.send(r#"{"op": "ping", "id": "b"}"#);
    client.send("");
    client.send(r#"{"op": "ping", "id": "c"}"#);
    for expected in ["a", "b", "c"] {
        let doc = client.recv();
        assert_eq!(field(&doc, "id").as_str(), Some(expected));
    }
    handle.shutdown();
    handle.join().unwrap();
}
