//! The `serve_mixed` workload: a live `nisqc serve --workers 2 --threads 1`
//! fleet driven over its line-JSON protocol by two closed-loop clients.

use crate::layers::{mismatched_cells, push_layer_metrics, TracedSession, TracedUnit};
use crate::output::{Checks, Metrics};
use crate::stats::{self, median, quantile, ratio};
use crate::trace::{self, Tracer};
use crate::workloads::{Class, ServeMix, ServeRequest, Size};
use nisq_exp::json::{self, Value};
use nisq_exp::{Journal, Report, RunControl, Session, SweepPlan};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Fleet spawns per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Replies after which the fleet's peak memory is read for `peak_rss_mb`.
/// The workers' caches grow with every new day they see and are never
/// evicted, so a reading at the end of the window would grow with
/// throughput; a fixed request count keeps the work it reflects fixed.
const RSS_AT_REQUESTS: usize = 1000;
/// Requests per client re-driven in-process by the traced run.
const REDRIVE_PER_CLIENT: usize = 24;
/// How long any single protocol exchange may take before the run fails.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Pings per endpoint for the printed Unix-versus-TCP comparison.
const PINGS: usize = 20;

/// Where a fleet listens.
enum Endpoint {
    /// A Unix socket: the endpoint the benchmark measures through.
    Unix(PathBuf),
    /// A TCP address, for the one TCP figure the run prints.
    Tcp(String),
}

/// A running supervisor with its worker shards.
struct Fleet {
    child: Child,
    endpoint: Endpoint,
    /// The workers' socket directory, named on each worker's command line.
    runtime: PathBuf,
    stderr: Option<JoinHandle<()>>,
}

impl Fleet {
    /// Starts the fleet and waits for its first `ping` answer; returns the
    /// fleet and the time that took. It listens on a Unix socket in `dir`,
    /// or on a local TCP port when `tcp` is set.
    fn spawn(nisqc: &Path, dir: &Path, tcp: bool) -> Result<(Fleet, f64), String> {
        let runtime = dir.join("rt");
        let journals = dir.join("journal");
        for d in [&runtime, &journals] {
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        // The endpoint is chosen here rather than read from the fleet's
        // log: supervisor and workers share that pipe, and their lines can
        // interleave mid-line.
        let endpoint = if tcp {
            let probe =
                TcpListener::bind("127.0.0.1:0").map_err(|e| format!("no free port: {e}"))?;
            let addr = probe.local_addr().map_err(|e| e.to_string())?;
            Endpoint::Tcp(addr.to_string())
        } else {
            Endpoint::Unix(dir.join("serve.sock"))
        };
        let start = Instant::now();
        let mut command = Command::new(nisqc);
        command.arg("serve");
        match &endpoint {
            Endpoint::Tcp(addr) => command.args(["--listen", addr]),
            Endpoint::Unix(path) => command.arg("--unix").arg(path),
        };
        let mut child = command
            .args(["--workers", "2", "--threads", "1"])
            .arg("--runtime-dir")
            .arg(&runtime)
            .arg("--journal-dir")
            .arg(&journals)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", nisqc.display()))?;
        let mut stderr = child.stderr.take().expect("stderr is piped");
        // Drains the fleet's log for its whole life so it never blocks on a
        // full pipe.
        let reader = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        });
        let mut fleet = Fleet {
            child,
            endpoint,
            runtime,
            stderr: Some(reader),
        };
        loop {
            let outcome = match fleet.exchange(r#"{"op": "ping"}"#) {
                Ok(reply) if reply.contains("\"status\": \"ok\"") => break,
                Ok(reply) => reply,
                Err(e) => e,
            };
            if let Ok(Some(status)) = fleet.child.try_wait() {
                return Err(format!("the fleet in {} exited: {status}", dir.display()));
            }
            if start.elapsed() > IO_TIMEOUT {
                return Err(format!(
                    "the fleet in {} never answered ping: {}",
                    dir.display(),
                    outcome.trim()
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((fleet, start.elapsed().as_secs_f64()))
    }

    /// One request over a fresh connection.
    fn exchange(&self, line: &str) -> Result<String, String> {
        let mut conn = Connection::open(&self.endpoint)?;
        conn.exchange(line)
    }

    /// The supervisor's `stats` document.
    fn stats(&self) -> Result<Value, String> {
        let reply = self.exchange(r#"{"op": "stats"}"#)?;
        let doc = json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
        doc.get("stats")
            .cloned()
            .ok_or_else(|| "stats reply lacks stats".to_string())
    }

    /// Process ids of the supervisor and every worker.
    fn pids(&self) -> Result<Vec<String>, String> {
        let stats = self.stats()?;
        let mut pids = vec![self.child.id().to_string()];
        for w in stats
            .get("workers")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            if let Some(pid) = w.get("pid").and_then(Value::as_u64) {
                pids.push(pid.to_string());
            }
        }
        Ok(pids)
    }

    /// Median round trip of `PINGS` pings over one connection, in ms.
    fn ping_ms(&self) -> Result<f64, String> {
        let mut conn = Connection::open(&self.endpoint)?;
        let mut times = Vec::new();
        for _ in 0..PINGS {
            let start = Instant::now();
            conn.exchange(r#"{"op": "ping"}"#)?;
            times.push(stats::ms(start.elapsed()));
        }
        Ok(median(&times))
    }

    /// Drains the fleet and waits for every process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        let _ = self.exchange(r#"{"op": "shutdown"}"#);
        let deadline = Instant::now() + IO_TIMEOUT;
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        if !clean {
            kill_workers(&self.runtime);
        }
        // Workers share the supervisor's stderr, so after an unclean stop
        // one that outlived its kill could hold the pipe open: the log
        // reader is joined only after a clean shutdown, which stops the
        // workers first.
        if let Some(reader) = self.stderr.take().filter(|_| clean) {
            let _ = reader.join();
        }
        if clean {
            Ok(())
        } else {
            Err("the fleet did not shut down cleanly".into())
        }
    }
}

/// Kills the workers of the fleet whose socket directory is `runtime` and
/// waits, up to a few seconds, until they are gone. A supervisor that did
/// not drain, or was killed, leaves its workers running; they are found by
/// the socket directory on their command lines.
fn kill_workers(runtime: &Path) {
    let needle = runtime.display().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return;
    };
    let pids: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|pid| pid.bytes().all(|b| b.is_ascii_digit()))
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/cmdline"))
                .is_ok_and(|cmd| String::from_utf8_lossy(&cmd).contains(&needle))
        })
        .collect();
    for pid in &pids {
        let _ = Command::new("kill").args(["-KILL", pid]).status();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline
        && pids
            .iter()
            .any(|pid| Path::new(&format!("/proc/{pid}")).exists())
    {
        std::thread::sleep(Duration::from_millis(10));
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            let _ = self.stop();
        }
    }
}

/// One persistent client connection.
struct Connection {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Connection {
    fn open(endpoint: &Endpoint) -> Result<Connection, String> {
        let (reader, writer): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match endpoint {
            Endpoint::Unix(path) => {
                let stream = UnixStream::connect(path)
                    .map_err(|e| format!("connect {}: {e}", path.display()))?;
                stream
                    .set_read_timeout(Some(IO_TIMEOUT))
                    .map_err(|e| e.to_string())?;
                let writer = stream.try_clone().map_err(|e| e.to_string())?;
                (Box::new(stream), Box::new(writer))
            }
            Endpoint::Tcp(addr) => {
                let stream =
                    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                stream.set_nodelay(true).map_err(|e| e.to_string())?;
                stream
                    .set_read_timeout(Some(IO_TIMEOUT))
                    .map_err(|e| e.to_string())?;
                let writer = stream.try_clone().map_err(|e| e.to_string())?;
                (Box::new(stream), Box::new(writer))
            }
        };
        Ok(Connection {
            reader: BufReader::new(reader),
            writer,
        })
    }

    fn exchange(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(n) if n > 0 => Ok(reply),
            Ok(_) => Err("connection closed".into()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One completed round trip.
struct Sample {
    request: ServeRequest,
    client: usize,
    index: usize,
    start_ns: u64,
    rt_ms: f64,
    reply: String,
}

/// A parsed successful reply.
struct Reply {
    cells: u64,
    queue_ms: f64,
    run_ms: f64,
    report: Report,
}

fn parse_reply(reply: &str) -> Result<Reply, String> {
    let doc = json::parse(reply).map_err(|e| format!("malformed reply: {e}"))?;
    let field = |k: &str| doc.get(k).and_then(Value::as_u64);
    if doc.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("request failed: {}", reply.trim()));
    }
    let (Some(done), Some(total)) = (field("cells_done"), field("cells_total")) else {
        return Err("reply lacks cell counts".into());
    };
    if done != total {
        return Err(format!("{done} of {total} cells done"));
    }
    // The report is the reply's last field; cut its text out verbatim.
    let at = reply.find("\"report\": ").ok_or("reply lacks a report")? + "\"report\": ".len();
    let text = reply
        .trim_end()
        .strip_suffix('}')
        .ok_or("reply is not an object")?;
    let report = Report::from_json(&text[at..]).map_err(|e| format!("report: {e}"))?;
    Ok(Reply {
        cells: done,
        queue_ms: field("queue_ms").unwrap_or(0) as f64,
        run_ms: field("run_ms").unwrap_or(0) as f64,
        report,
    })
}

fn plan_of(request: &ServeRequest) -> SweepPlan {
    let doc = json::parse(&request.plan_json).expect("generated plans are JSON");
    nisq_serve::parse_plan_with_journal(&doc)
        .expect("generated plans are valid")
        .0
}

/// Canonical reports of in-process `Session::run`s, one per distinct plan.
struct References {
    session: Session,
    reports: HashMap<u64, Report>,
}

impl References {
    fn get(&mut self, plan: &SweepPlan) -> &Report {
        let session = &mut self.session;
        self.reports.entry(plan.fingerprint()).or_insert_with(|| {
            session
                .run(plan)
                .expect("generated plans compile")
                .canonicalized()
        })
    }
}

/// What one measured window produced.
struct Window {
    samples: Vec<Sample>,
    wall_s: f64,
    /// Summed `VmHWM` of the fleet when the `RSS_AT_REQUESTS`th reply
    /// arrived, if the window got that far.
    rss_at_mb: Option<f64>,
}

/// Peak resident memory (`VmHWM`) of the fleet's processes, summed, in MiB.
fn fleet_rss_mb(pids: &[String]) -> f64 {
    pids.iter().filter_map(|p| stats::peak_rss_mb(p)).sum()
}

fn closed_loop(
    endpoint: &Endpoint,
    pids: &[String],
    seed: u64,
    size: Size,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Window, String> {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let replies = AtomicUsize::new(0);
    let rss_at_mb = OnceLock::new();
    let (replies, rss_at) = (&replies, &rss_at_mb);
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut conn = Connection::open(endpoint)?;
                    let mut mix = ServeMix::new(seed, client, size);
                    let mut samples = Vec::new();
                    while samples.is_empty() || Instant::now() < deadline {
                        let index = samples.len();
                        let request = mix.next_request();
                        let line = request.line(&format!("c{client}-{index}"));
                        let begin_ns = tracer.map(Tracer::now_ns);
                        let start = Instant::now();
                        let reply = conn.exchange(&line)?;
                        let rt_ms = stats::ms(start.elapsed());
                        if replies.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_REQUESTS {
                            let _ = rss_at.set(fleet_rss_mb(pids));
                        }
                        let start_ns = start.duration_since(origin).as_nanos() as u64;
                        if let (Some(tracer), Some(begin_ns)) = (tracer, begin_ns) {
                            let key = (client * 1_000_000 + index) as u64;
                            tracer.record("serve.request", begin_ns, None, key);
                        }
                        samples.push(Sample {
                            request,
                            client,
                            index,
                            start_ns,
                            rt_ms,
                            reply,
                        });
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    for r in results {
        samples.extend(r?);
    }
    samples.sort_by_key(|s| s.start_ns);
    Ok(Window {
        samples,
        wall_s: origin.elapsed().as_secs_f64(),
        rss_at_mb: rss_at_mb.into_inner(),
    })
}

/// Starts `SETUP_REPS` fleets and keeps the last one running; returns it
/// with the median start-up time.
fn setup(nisqc: &Path, dir: &Path) -> Result<(Fleet, f64), String> {
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let (fleet, seconds) = Fleet::spawn(nisqc, &dir.join(format!("fleet{rep}")), false)?;
        times.push(seconds);
        if rep + 1 == SETUP_REPS {
            return Ok((fleet, median(&times)));
        }
        fleet.shutdown()?;
    }
    unreachable!("SETUP_REPS is positive")
}

/// Parses and checks every reply: status, cell counts, and the canonical
/// report against an in-process run of the same plan.
fn check_replies(
    samples: &[Sample],
    references: &mut References,
    checks: &mut Checks,
) -> Vec<Option<Reply>> {
    samples
        .iter()
        .map(|s| {
            checks.attempted += 1;
            let reply = parse_reply(&s.reply).and_then(|reply| {
                let expected = references.get(&plan_of(&s.request));
                if reply.report.canonicalized() == *expected {
                    Ok(reply)
                } else {
                    Err(format!(
                        "request c{}-{} differs from Session::run",
                        s.client, s.index
                    ))
                }
            });
            match reply {
                Ok(reply) => Some(reply),
                Err(message) => {
                    checks.fail(message);
                    None
                }
            }
        })
        .collect()
}

/// A line comparing ping round trips on the measured Unix socket with
/// those of a second fleet on TCP. The supervisor writes a reply and its
/// newline as two writes without `TCP_NODELAY`, so on TCP the newline can
/// wait for the client's delayed ACK; the benchmark measures through the
/// Unix socket so that stall does not mask the serve work.
fn endpoint_note(nisqc: &Path, dir: &Path, fleet: &Fleet) -> Result<String, String> {
    let unix_ms = fleet.ping_ms()?;
    let (tcp, _) = Fleet::spawn(nisqc, &dir.join("tcp"), true)?;
    let tcp_ms = tcp.ping_ms()?;
    tcp.shutdown()?;
    Ok(format!(
        "ping_ms.p50: unix {unix_ms:.3} ms, tcp {tcp_ms:.3} ms (n={PINGS} each, one connection)"
    ))
}

fn work_dir() -> PathBuf {
    PathBuf::from(".bench_out").join(format!("serve-{}", std::process::id()))
}

/// Runs the workload; `tracer` selects the traced run.
pub fn run(
    nisqc: &Path,
    seed: u64,
    seconds: f64,
    size: Size,
    tracer: Option<&Tracer>,
) -> Result<(Metrics, Checks), String> {
    let dir = work_dir();
    let result = run_in(nisqc, &dir, seed, seconds, size, tracer);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    nisqc: &Path,
    dir: &Path,
    seed: u64,
    seconds: f64,
    size: Size,
    tracer: Option<&Tracer>,
) -> Result<(Metrics, Checks), String> {
    let (fleet, setup_s) = setup(nisqc, dir)?;
    // Warm the hot plan's shard, as a long-running fleet would be.
    let hot = ServeMix::new(seed, 0, size).hot_plan();
    for _ in 0..2 {
        parse_reply(&fleet.exchange(&format!("{{\"op\": \"run\", \"plan\": {hot}}}"))?)?;
    }
    let pids = fleet.pids()?;
    let cpu = |pids: &[String]| pids.iter().map(|p| stats::cpu_seconds(p)).sum::<f64>();
    let cpu_before = cpu(&pids);
    let window = closed_loop(&fleet.endpoint, &pids, seed, size, seconds, tracer)?;
    let fleet_cpu_s = cpu(&pids) - cpu_before;
    let stats_doc = fleet.stats()?;
    let rss_end_mb = fleet_rss_mb(&pids);
    let endpoints = match tracer {
        None => Some(endpoint_note(nisqc, dir, &fleet)?),
        Some(_) => None,
    };
    fleet.shutdown()?;

    let mut checks = Checks::default();
    let mut references = References {
        session: Session::new(),
        reports: HashMap::new(),
    };
    let replies = check_replies(&window.samples, &mut references, &mut checks);
    let ok: Vec<(&Sample, &Reply)> = window
        .samples
        .iter()
        .zip(&replies)
        .filter_map(|(s, r)| r.as_ref().map(|r| (s, r)))
        .collect();
    let latencies: Vec<f64> = ok.iter().map(|(s, _)| s.rt_ms).collect();
    let cells: u64 = ok.iter().map(|(_, r)| r.cells).sum();
    let n = latencies.len();

    let mut m = Metrics::default();
    let Some(tracer) = tracer else {
        m.push("setup_s", setup_s, "s", SETUP_REPS);
        m.push("latency_ms.p50", median(&latencies), "ms", n);
        m.push("cells_per_s", cells as f64 / window.wall_s, "1/s", n);
        m.push(
            "peak_rss_mb",
            window.rss_at_mb.unwrap_or(rss_end_mb),
            "MB",
            pids.len(),
        );
        m.note(format!(
            "fleet VmHWM: {:.3} MB after {RSS_AT_REQUESTS} requests (peak_rss_mb), {rss_end_mb:.3} MB after all {} (caches are never evicted)",
            window.rss_at_mb.unwrap_or(f64::NAN),
            window.samples.len()
        ));
        m.note(format!(
            "request_ms.p50 = {:.3} ms, request_ms.p99 = {:.3} ms, requests_per_s = {:.3} (n={n}, {CLIENTS} closed-loop clients)",
            median(&latencies),
            quantile(&latencies, 0.99),
            n as f64 / window.wall_s
        ));
        for class in Class::ALL {
            let rts: Vec<f64> = ok
                .iter()
                .filter(|(s, _)| s.request.class == class)
                .map(|(s, _)| s.rt_ms)
                .collect();
            m.note(format!(
                "  {:<9} request_ms.p50 = {:.3} ms, p99 = {:.3} ms (n={})",
                class.name(),
                median(&rts),
                quantile(&rts, 0.99),
                rts.len()
            ));
        }
        m.note(endpoints.unwrap_or_default());
        return Ok((m, checks));
    };

    // Front-door layers, from the replies and the supervisor's stats.
    let per_class = |class: Class| -> Vec<f64> {
        ok.iter()
            .filter(|(s, _)| s.request.class == class)
            .map(|(_, r)| r.run_ms)
            .collect()
    };
    for class in Class::ALL {
        let runs = per_class(class);
        m.push(
            &format!("serve.run_ms.{}", class.name()),
            median(&runs),
            "ms",
            runs.len(),
        );
    }
    let queue: Vec<f64> = ok.iter().map(|(_, r)| r.queue_ms).collect();
    m.push("serve.queue_ms.p50", median(&queue), "ms", n);
    m.push("serve.queue_ms.p99", quantile(&queue, 0.99), "ms", n);
    let hops: Vec<f64> = ok
        .iter()
        .map(|(s, r)| s.rt_ms - r.queue_ms - r.run_ms)
        .collect();
    m.push("serve.hop_ms.p50", median(&hops), "ms", n);
    let supervisor = stats_doc.get("supervisor");
    let rejected = supervisor
        .and_then(|s| s.get("rejected"))
        .and_then(Value::as_u64)
        .unwrap_or(0)
        + (window.samples.len() - n) as u64;
    m.push(
        "serve.rejected",
        rejected as f64,
        "count",
        window.samples.len(),
    );
    let routed: Vec<f64> = stats_doc
        .get("workers")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("routed").and_then(Value::as_f64))
        .collect();
    let routed_total: f64 = routed.iter().sum();
    m.push(
        "serve.routed_skew",
        ratio(routed.iter().copied().fold(0.0, f64::max), routed_total),
        "ratio",
        routed.len(),
    );
    m.push("serve.routed", routed_total, "count", routed.len());
    let cache = |f: fn(&nisq_exp::CacheStats) -> u64| -> f64 {
        ok.iter().map(|(_, r)| f(&r.report.cache)).sum::<u64>() as f64
    };
    let compile_lookups = cache(|c| c.compile_requests);
    let place_lookups = cache(|c| c.place_hits + c.place_runs);
    m.push(
        "compile.cache_hit_ratio",
        ratio(cache(|c| c.compile_hits), compile_lookups),
        "ratio",
        n,
    );
    m.push("compile.cache_lookups", compile_lookups, "count", n);
    m.push(
        "place.cache_hit_ratio",
        ratio(cache(|c| c.place_hits), place_lookups),
        "ratio",
        n,
    );
    m.push("place.cache_lookups", place_lookups, "count", n);
    m.push(
        "host.cores_busy",
        ratio(fleet_cpu_s, window.wall_s),
        "ratio",
        pids.len(),
    );

    // In-process layers: the first requests of each client, re-driven
    // untraced and then traced through the serial (journaled) path.
    let redrive: Vec<(&Sample, &Reply)> = ok
        .iter()
        .filter(|(s, _)| s.index < REDRIVE_PER_CLIENT)
        .copied()
        .collect();
    let journals = dir.join("redrive");
    std::fs::create_dir_all(&journals).map_err(|e| format!("{}: {e}", journals.display()))?;
    let journal_for = |tag: &str, s: &Sample| -> Result<Option<Journal>, String> {
        if s.request.class != Class::Journaled {
            return Ok(None);
        }
        let path = journals.join(format!("{tag}-c{}-{}.journal", s.client, s.index));
        let plan = plan_of(&s.request);
        Journal::create(&path, plan.machine_seed(), plan.trials())
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    // Each request runs untraced, then traced, on two sessions that see
    // the same request sequence; the untraced runs are the baseline of
    // `trace.overhead_ratio`.
    let mut session = Session::new().with_threads(1);
    let mut traced = TracedSession::new(1);
    // Per re-driven request: its root span, class, counts and traced wall.
    let mut requests = Vec::new();
    let mut untraced_ms = 0.0;
    for (s, reply) in &redrive {
        let plan = plan_of(&s.request);
        let control = RunControl::unbounded();
        let mut journal = journal_for("untraced", s)?;
        let start = Instant::now();
        match journal.as_mut() {
            Some(journal) => session.run_journaled(&plan, &control, journal),
            None => session.run_controlled(&plan, &control),
        }
        .map_err(|e| e.to_string())?;
        untraced_ms += stats::ms(start.elapsed());

        let mut journal = journal_for("traced", s)?;
        let start = Instant::now();
        let root = tracer.open("request", None, (s.client * 1_000_000 + s.index) as u64);
        let report = traced
            .run_serial(tracer, root, &plan, journal.as_mut())
            .map_err(|e| e.to_string())?;
        tracer.close(root);
        let wall_ms = stats::ms(start.elapsed());
        requests.push((root, s.request.class, traced.take_counts(), wall_ms));
        checks.cells(
            report.cells.len() as u64,
            mismatched_cells(&reply.report, &report),
        );
    }

    let by_root = trace::self_ms_by_root(&tracer.spans());
    let units: Vec<TracedUnit> = requests
        .iter()
        .map(|(root, _, counts, wall_ms)| TracedUnit {
            self_ms: by_root.get(root).cloned().unwrap_or_default(),
            counts: *counts,
            wall_ms: *wall_ms,
        })
        .collect();
    push_layer_metrics(&mut m, &units, stats::mean);
    let journaled: Vec<&TracedUnit> = requests
        .iter()
        .zip(&units)
        .filter(|((_, class, _, _), _)| *class == Class::Journaled)
        .map(|(_, unit)| unit)
        .collect();
    let appends_ms = |u: &TracedUnit| {
        ["journal.append_intent", "journal.append_cell"]
            .iter()
            .filter_map(|name| u.self_ms.get(name))
            .sum::<f64>()
    };
    let j = journaled.len();
    m.push(
        "journal.append_ms",
        stats::mean(&journaled.iter().map(|u| appends_ms(u)).collect::<Vec<_>>()),
        "ms",
        j,
    );
    m.push(
        "journal.appends",
        stats::mean(
            &journaled
                .iter()
                .map(|u| u.counts.journal_appends as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
        j,
    );
    let k = units.len();
    let traced_ms: f64 = units.iter().map(|u| u.wall_ms).sum();
    m.push(
        "trace.overhead_ratio",
        ratio(traced_ms, untraced_ms),
        "ratio",
        k,
    );
    m.push("trace.untraced_ms", untraced_ms / k.max(1) as f64, "ms", k);
    Ok((m, checks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_workers_stops_processes_naming_the_socket_directory() {
        let runtime = PathBuf::from(format!("perfbench-test-rt-{}", std::process::id()));
        // A stand-in worker: `sleep` with the directory as its argv[0].
        let mut worker = Command::new("bash")
            .args(["-c", "exec -a \"$0/worker-0.sock\" sleep 60"])
            .arg(&runtime)
            .spawn()
            .unwrap();
        let pid = worker.id();
        let cmdline = || std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        let start = Instant::now();
        while !String::from_utf8_lossy(&cmdline()).contains("worker-0.sock") {
            assert!(start.elapsed() < IO_TIMEOUT, "the stand-in never started");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The child must be reaped for its /proc entry to go.
        let reaper = std::thread::spawn(move || worker.wait().unwrap());
        kill_workers(&runtime);
        assert!(!reaper.join().unwrap().success());
        assert!(start.elapsed() < Duration::from_secs(30));
    }
}
