//! `nisqc` — command-line front end for the noise-adaptive compiler.
//!
//! Reads an OpenQASM 2.0 program, compiles it for a calibrated machine with
//! one of the paper's mapping algorithms, prints a compilation report, and
//! optionally writes the hardware executable and measures its simulated
//! success rate.
//!
//! ```text
//! Usage: nisqc <input.qasm> [options]
//!        nisqc --benchmark BV4 [options]
//!        nisqc sweep [sweep options]
//!        nisqc sweep --validate report.json [--expect-cells N]
//!        nisqc serve [serve options]
//!        nisqc journal inspect|compact <path>
//!
//! Options:
//!   --mapper <name>    qiskit | t-smt | t-smt-star | r-smt-star |
//!                      greedy-v | greedy-e              (default: r-smt-star)
//!   --omega <w>        readout weight for r-smt-star    (default: 0.5)
//!   --day <d>          calibration day index            (default: 0)
//!   --seed <s>         machine calibration seed         (default: 2019)
//!   --trials <n>       simulate n noisy trials          (default: 0 = skip)
//!   --expected <bits>  correct answer, e.g. 1101, for success-rate reporting
//!   --output <path>    write the compiled OpenQASM here
//!
//! Each subcommand prints its own options with `--help`:
//! `nisqc sweep --help`, `nisqc serve --help`, `nisqc journal --help`.
//! ```

use nisq::exp::names::{config_for, parse_benchmarks, parse_days, parse_mappers, parse_topology};
use nisq::prelude::*;
use nisq::serve::{Endpoint, Server, ServerConfig, Supervisor, SupervisorConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const SWEEP_USAGE: &str = "\
usage: nisqc sweep [options]
       nisqc sweep --validate report.json [--expect-cells N]

Executes a declarative plan and emits a JSON report.

Options:
  --benchmarks <l>   comma list of Table-2 names, \"all\", \"representative\"
                     or \"none\" (with --qasm)          (default: representative)
  --qasm <path>      add a custom OpenQASM circuit to the plan (repeatable)
  --mappers <l>      comma list of mapper names or \"table1\"
                                                      (default: r-smt-star)
  --omega <w>        readout weight for r-smt-star    (default: 0.5)
  --days <l>         comma list and/or a..b ranges    (default: 0)
  --topology <t>     ibmq16 | grid-MxN | ring-N | heavy-hex-RxC
                                                      (default: ibmq16)
  --trials <n>       noisy trials per cell            (default: 0 = compile only)
  --noise <path>     add a JSON noise spec as a sweep-axis point
                     (repeatable; cells multiply)     (default: calibration noise only)
  --machine-seed <s> machine calibration seed         (default: 2019)
  --sim-seed <s>     fixed simulation seed            (default: per-cell seeds)
  --threads <n>      worker threads; results do not depend on it
                                                      (default: auto)
  --journal <path>   stream finished cells to a fresh crash-safe journal
  --resume <path>    resume from an existing journal: completed cells load
                     without recomputation, new cells keep appending
  --reuse <path>     absorb completed cells from another run's journal into
                     this run's journal (requires --journal or --resume);
                     matching is purely by cell fingerprint
  --canonicalize <p> print a report's canonical single-line JSON
                     (runtime provenance zeroed) for byte-wise comparison
  --output <path>    write the JSON report here       (default: stdout)
  --validate <path>  parse an emitted report instead of running a sweep
  --expect-cells <n> require exactly n cells (after a sweep or --validate)
";

const SERVE_USAGE: &str = "\
usage: nisqc serve [options]

Runs the persistent compile-and-simulate daemon.

Options:
  --listen <addr>    TCP listen address               (default: 127.0.0.1:7878)
  --unix <path>      listen on a Unix socket instead of TCP
  --queue <n>        per-client work-queue capacity   (default: 32)
  --timeout-ms <n>   per-request wall-clock budget    (default: 30000)
  --max-cells <n>    largest plan a request may send  (default: 4096)
  --max-trials <n>   largest per-cell trial count     (default: 65536)
  --max-qubits <n>   largest machine a request builds (default: 256)
  --threads <n>      session worker threads           (default: auto)
  --journal-dir <d>  accept journaled requests; per-request journals are
                     kept here, keyed by the request's resume_key
  --workers <n>      run n process-isolated worker shards behind a
                     supervisor (0 = single-process)   (default: 0)
  --runtime-dir <d>  directory for the shards' private Unix sockets
                     (default: a per-process tmp dir)
  --compact-threshold <n>  auto-compact a request's journal once it holds
                     n dead records (0 = never)        (default: 64)
";

const JOURNAL_USAGE: &str = "\
usage: nisqc journal inspect <path>
       nisqc journal compact <path>

Inspects and compacts sweep journals.

Verbs:
  inspect <path>     summarize a journal: schema, record and cell counts,
                     orphan intents, dead records, torn tail. Exits nonzero
                     for corrupt or torn journals.
  compact <path>     rewrite the journal keeping only the last write per
                     cell (atomic tmp + rename)
";

struct Options {
    input: Input,
    mapper: String,
    omega: f64,
    day: usize,
    seed: u64,
    trials: u32,
    expected: Option<Vec<bool>>,
    output: Option<String>,
}

enum Input {
    QasmFile(String),
    Benchmark(Benchmark),
}

fn usage() -> String {
    "usage: nisqc <input.qasm> [--mapper NAME] [--omega W] [--day D] [--seed S] \
     [--trials N] [--expected BITS] [--output PATH]\n       nisqc --benchmark NAME [...]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut input: Option<Input> = None;
    let mut options = Options {
        input: Input::Benchmark(Benchmark::Bv4),
        mapper: "r-smt-star".to_string(),
        omega: 0.5,
        day: 0,
        seed: 2019,
        trials: 0,
        expected: None,
        output: None,
    };

    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {arg}"))
        };
        match arg.as_str() {
            "--mapper" => options.mapper = take_value(&mut i)?,
            "--omega" => {
                options.omega = take_value(&mut i)?
                    .parse()
                    .map_err(|_| "omega must be a number".to_string())?
            }
            "--day" => {
                options.day = take_value(&mut i)?
                    .parse()
                    .map_err(|_| "day must be an integer".to_string())?
            }
            "--seed" => {
                options.seed = take_value(&mut i)?
                    .parse()
                    .map_err(|_| "seed must be an integer".to_string())?
            }
            "--trials" => {
                options.trials = take_value(&mut i)?
                    .parse()
                    .map_err(|_| "trials must be an integer".to_string())?
            }
            "--expected" => {
                let bits = take_value(&mut i)?;
                let parsed: Result<Vec<bool>, String> = bits
                    .chars()
                    .map(|c| match c {
                        '0' => Ok(false),
                        '1' => Ok(true),
                        other => Err(format!("invalid bit '{other}' in --expected")),
                    })
                    .collect();
                options.expected = Some(parsed?);
            }
            "--output" => options.output = Some(take_value(&mut i)?),
            "--benchmark" => {
                let name = take_value(&mut i)?;
                let benchmark = Benchmark::all()
                    .into_iter()
                    .find(|b| b.name().eq_ignore_ascii_case(&name))
                    .ok_or_else(|| format!("unknown benchmark {name}"))?;
                input = Some(Input::Benchmark(benchmark));
            }
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with("--") => {
                input = Some(Input::QasmFile(other.to_string()));
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
        i += 1;
    }

    options.input = input.ok_or_else(usage)?;
    Ok(options)
}

fn run(options: &Options) -> Result<(), String> {
    let (circuit, default_expected) = match &options.input {
        Input::QasmFile(path) => {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut circuit =
                nisq::ir::qasm::parse(&source).map_err(|e| format!("cannot parse {path}: {e}"))?;
            circuit.set_name(path.clone());
            (circuit, None)
        }
        Input::Benchmark(benchmark) => (benchmark.circuit(), Some(benchmark.expected_output())),
    };

    let machine = Machine::ibmq16_on_day(options.seed, options.day);
    let config = config_for(&options.mapper, options.omega)?;
    let compiled = Compiler::new(&machine, config)
        .compile(&circuit)
        .map_err(|e| format!("compilation failed: {e}"))?;

    println!("program        : {}", compiled.program_name());
    println!("machine        : {machine}");
    println!("mapper         : {config}");
    println!("placement      : {:?}", compiled.placement().as_slice());
    println!("swaps inserted : {}", compiled.swap_count());
    println!("hardware CNOTs : {}", compiled.hardware_cnot_count());
    println!("duration       : {} timeslots", compiled.duration_slots());
    println!("est. reliability: {:.4}", compiled.estimated_reliability());
    println!("within coherence: {}", compiled.within_coherence());
    println!(
        "compile time   : {:.2} ms",
        compiled.compile_time().as_secs_f64() * 1000.0
    );

    if options.trials > 0 {
        let expected = options.expected.clone().or(default_expected);
        match expected {
            Some(expected) => {
                let simulator =
                    Simulator::new(&machine, SimulatorConfig::with_trials(options.trials, 1));
                let success = simulator.success_rate(&compiled, &expected);
                println!(
                    "success rate   : {success:.4} over {} noisy trials",
                    options.trials
                );
            }
            None => println!(
                "success rate   : skipped (pass --expected BITS to define the correct answer)"
            ),
        }
    }

    match &options.output {
        Some(path) => {
            std::fs::write(path, compiled.qasm())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote executable to {path}");
        }
        None => {
            println!("\n--- compiled OpenQASM ---");
            print!("{}", compiled.qasm());
        }
    }
    Ok(())
}

/// Loads a custom OpenQASM circuit into a plan-ready spec. Malformed
/// files surface the parser's typed diagnosis; nothing panics.
fn load_qasm_circuit(path: &str) -> Result<CircuitSpec, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let circuit =
        nisq::ir::qasm::parse(&source).map_err(|e| format!("cannot parse {path}: {e}"))?;
    Ok(CircuitSpec::new(path.to_string(), circuit))
}

/// Loads and validates a declarative noise spec. Parse and CPTP failures
/// surface the noise crate's typed diagnosis; nothing panics.
fn load_noise_spec(path: &str) -> Result<NoiseSpec, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    NoiseSpec::from_json(&source).map_err(|e| format!("invalid noise spec {path}: {e}"))
}

/// Runs the `sweep` subcommand: execute a plan and emit JSON, or validate
/// an emitted report (`--validate`).
fn run_sweep(args: &[String]) -> Result<(), String> {
    let mut benchmarks = "representative".to_string();
    let mut qasm_files: Vec<String> = Vec::new();
    let mut noise_files: Vec<String> = Vec::new();
    let mut mappers = "r-smt-star".to_string();
    let mut omega = 0.5;
    let mut days = vec![0usize];
    let mut topology = TopologySpec::Ibmq16;
    let mut trials = 0u32;
    let mut machine_seed = nisq::exp::DEFAULT_MACHINE_SEED;
    let mut sim_seed: Option<u64> = None;
    let mut threads = 0usize;
    let mut output: Option<String> = None;
    let mut validate: Option<String> = None;
    let mut canonicalize: Option<String> = None;
    let mut expect_cells: Option<usize> = None;
    let mut journal_new: Option<String> = None;
    let mut journal_resume: Option<String> = None;
    let mut journal_reuse: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {arg}"))
        };
        let parse = |text: String, what: &str| -> Result<u64, String> {
            text.parse()
                .map_err(|_| format!("{what} must be an integer"))
        };
        match arg.as_str() {
            "--benchmarks" => benchmarks = take_value(&mut i)?,
            "--qasm" => qasm_files.push(take_value(&mut i)?),
            "--mappers" => mappers = take_value(&mut i)?,
            "--omega" => {
                omega = take_value(&mut i)?
                    .parse()
                    .map_err(|_| "omega must be a number".to_string())?
            }
            "--days" => days = parse_days(&take_value(&mut i)?)?,
            "--topology" => topology = parse_topology(&take_value(&mut i)?)?,
            "--trials" => {
                trials = u32::try_from(parse(take_value(&mut i)?, "trials")?)
                    .map_err(|_| format!("trials must be at most {}", u32::MAX))?
            }
            "--noise" => noise_files.push(take_value(&mut i)?),
            "--machine-seed" => machine_seed = parse(take_value(&mut i)?, "machine-seed")?,
            "--sim-seed" => sim_seed = Some(parse(take_value(&mut i)?, "sim-seed")?),
            "--threads" => threads = parse(take_value(&mut i)?, "threads")? as usize,
            "--output" => output = Some(take_value(&mut i)?),
            "--validate" => validate = Some(take_value(&mut i)?),
            "--canonicalize" => canonicalize = Some(take_value(&mut i)?),
            "--expect-cells" => {
                expect_cells = Some(parse(take_value(&mut i)?, "expect-cells")? as usize)
            }
            "--journal" => journal_new = Some(take_value(&mut i)?),
            "--resume" => journal_resume = Some(take_value(&mut i)?),
            "--reuse" => journal_reuse = Some(take_value(&mut i)?),
            "--help" | "-h" => {
                print!("{SWEEP_USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown sweep option {other}\n{SWEEP_USAGE}")),
        }
        i += 1;
    }

    if journal_new.is_some() && journal_resume.is_some() {
        return Err(
            "--journal and --resume are mutually exclusive (--journal starts fresh, \
             --resume continues an existing journal)"
                .to_string(),
        );
    }
    if journal_reuse.is_some() && journal_new.is_none() && journal_resume.is_none() {
        return Err(
            "--reuse needs a journal of its own to absorb into (pass --journal or --resume)"
                .to_string(),
        );
    }

    if let Some(path) = canonicalize {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report = Report::from_json(&text).map_err(|e| format!("invalid report: {e}"))?;
        let line = report.to_json_line_canonical();
        match output {
            Some(out) => std::fs::write(&out, format!("{line}\n"))
                .map_err(|e| format!("cannot write {out}: {e}"))?,
            None => println!("{line}"),
        }
        return Ok(());
    }

    if let Some(path) = validate {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report = Report::from_json(&text).map_err(|e| format!("invalid report: {e}"))?;
        if let Some(expected) = expect_cells {
            if report.cells.len() != expected {
                return Err(format!(
                    "expected {expected} cells, report has {}",
                    report.cells.len()
                ));
            }
        }
        // Backend occupancy: how many simulated cells each state backend
        // served (a cell's tag is pure; only run totals can be mixed).
        let simulated = report.cells.iter().filter(|c| c.tiers.total() > 0);
        let (mut dense_cells, mut tableau_cells) = (0usize, 0usize);
        for cell in simulated {
            match cell.tiers.backend {
                nisq_exp::BackendTag::Tableau => tableau_cells += 1,
                _ => dense_cells += 1,
            }
        }
        println!(
            "{path}: valid report ({} cells, {} compiles, {} compile hits, {} placement passes; \
             tiers {} error-free / {} pauli-prop / {} checkpointed / {} full, memo {}/{} hits; \
             backends {} dense / {} tableau cells)",
            report.cells.len(),
            report.cache.compile_requests,
            report.cache.compile_hits,
            report.cache.place_runs,
            report.tiers.error_free,
            report.tiers.pauli_prop,
            report.tiers.checkpointed,
            report.tiers.full_replay,
            report.tiers.memo_hits,
            report.tiers.memo_hits + report.tiers.memo_misses,
            dense_cells,
            tableau_cells,
        );
        return Ok(());
    }

    let mut plan = SweepPlan::new()
        .benchmarks(parse_benchmarks(&benchmarks)?)
        .with_configs(parse_mappers(&mappers, omega)?)
        .days(days)
        .topology(topology)
        .with_machine_seed(machine_seed)
        .with_trials(trials);
    for path in &qasm_files {
        plan = plan.circuit(load_qasm_circuit(path)?);
    }
    for path in &noise_files {
        let spec = load_noise_spec(path)?;
        plan = plan.with_noise(spec.name().to_string(), spec);
    }
    if plan.circuits().is_empty() {
        return Err("the plan selects no circuits (pass --benchmarks or --qasm)".to_string());
    }
    if let Some(seed) = sim_seed {
        plan = plan.fixed_sim_seed(seed);
    }

    let mut session = Session::new();
    if threads > 0 {
        session = session.with_threads(threads);
    }
    let mut journal = match (&journal_new, &journal_resume) {
        (Some(path), None) => Some(
            Journal::create(
                std::path::Path::new(path),
                plan.machine_seed(),
                plan.trials(),
            )
            .map_err(|e| format!("cannot start journal: {e}"))?,
        ),
        (None, Some(path)) => {
            let journal = Journal::resume(
                std::path::Path::new(path),
                plan.machine_seed(),
                plan.trials(),
            )
            .map_err(|e| format!("cannot resume journal: {e}"))?;
            let recovery = journal.recovery();
            if recovery.truncated_bytes > 0 {
                eprintln!(
                    "warning: {path}: truncated {} trailing bytes (torn or corrupt record); \
                     the cells before them were recovered intact",
                    recovery.truncated_bytes
                );
            }
            if recovery.orphan_intents > 0 {
                eprintln!(
                    "note: {path}: {} cell(s) were in flight at the crash and will be re-run",
                    recovery.orphan_intents
                );
            }
            eprintln!(
                "resuming from {path}: {} completed cell(s) on record",
                journal.completed_cells()
            );
            Some(journal)
        }
        _ => None,
    };
    if let (Some(journal), Some(path)) = (journal.as_mut(), &journal_reuse) {
        let absorbed = journal
            .absorb(std::path::Path::new(path))
            .map_err(|e| format!("cannot reuse {path}: {e}"))?;
        eprintln!("reuse: absorbed {absorbed} completed cell(s) from {path}");
    }
    let report = match journal.as_mut() {
        Some(journal) => session
            .run_journaled(&plan, &RunControl::unbounded(), journal)
            .map(|outcome| outcome.report),
        None => session.run(&plan),
    }
    .map_err(|e| format!("sweep failed: {e}"))?;
    if let Some(reason) = journal.as_ref().and_then(|j| j.degraded()) {
        eprintln!(
            "warning: journal degraded ({reason}); the report is complete but later \
             cells were not journaled"
        );
    }
    if report.resumed_cells > 0 {
        eprintln!(
            "journal: {} of {} cell(s) resumed without recomputation",
            report.resumed_cells,
            report.cells.len()
        );
    }
    if let Some(expected) = expect_cells {
        if report.cells.len() != expected {
            return Err(format!(
                "expected {expected} cells, sweep produced {}",
                report.cells.len()
            ));
        }
    }
    let json = report.to_json();
    match output {
        Some(path) => {
            std::fs::write(&path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "wrote {path} ({} cells, {} compile hits, {} placement passes over {} compiles)",
                report.cells.len(),
                report.cache.compile_hits,
                report.cache.place_runs,
                report.cache.compile_requests,
            );
        }
        None => print!("{json}"),
    }
    Ok(())
}

/// Runs the `serve` subcommand: bind the daemon and serve until SIGINT,
/// SIGTERM or a `shutdown` request drains it.
fn run_serve(args: &[String]) -> Result<(), String> {
    let mut endpoint = Endpoint::Tcp("127.0.0.1:7878".to_string());
    let mut config = ServerConfig::default();
    let mut workers = 0usize;
    let mut runtime_dir: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {arg}"))
        };
        let parse = |text: String, what: &str| -> Result<u64, String> {
            text.parse()
                .map_err(|_| format!("{what} must be an integer"))
        };
        match arg.as_str() {
            "--listen" => endpoint = Endpoint::Tcp(take_value(&mut i)?),
            "--unix" => endpoint = Endpoint::Unix(take_value(&mut i)?.into()),
            "--queue" => config.queue_capacity = parse(take_value(&mut i)?, "queue")? as usize,
            "--timeout-ms" => {
                config.request_timeout =
                    Duration::from_millis(parse(take_value(&mut i)?, "timeout-ms")?)
            }
            "--max-cells" => config.max_cells = parse(take_value(&mut i)?, "max-cells")? as usize,
            "--max-trials" => {
                config.max_trials = u32::try_from(parse(take_value(&mut i)?, "max-trials")?)
                    .map_err(|_| format!("max-trials must be at most {}", u32::MAX))?
            }
            "--max-qubits" => {
                config.max_machine_qubits = parse(take_value(&mut i)?, "max-qubits")? as usize
            }
            "--threads" => config.threads = parse(take_value(&mut i)?, "threads")? as usize,
            "--journal-dir" => config.journal_dir = Some(take_value(&mut i)?.into()),
            "--workers" => workers = parse(take_value(&mut i)?, "workers")? as usize,
            "--runtime-dir" => runtime_dir = Some(take_value(&mut i)?.into()),
            "--compact-threshold" => {
                config.journal_compact_threshold =
                    parse(take_value(&mut i)?, "compact-threshold")? as usize
            }
            "--help" | "-h" => {
                print!("{SERVE_USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown serve option {other}\n{SERVE_USAGE}")),
        }
        i += 1;
    }

    nisq::serve::signal::install();
    if workers > 0 {
        return run_supervised(&endpoint, config, workers, runtime_dir);
    }
    let server = Server::bind(&endpoint, config).map_err(|e| format!("cannot bind: {e}"))?;
    match (&endpoint, server.local_addr()) {
        (_, Some(addr)) => eprintln!("nisqc serve: listening on tcp://{addr}"),
        (Endpoint::Unix(path), None) => {
            eprintln!("nisqc serve: listening on unix://{}", path.display())
        }
        _ => {}
    }
    server.run().map_err(|e| format!("serve failed: {e}"))?;
    eprintln!("nisqc serve: drained and shut down");
    Ok(())
}

/// The argument vector a supervised worker is launched with: `serve` on a
/// private socket, with every front-door limit mirrored so supervisor and
/// shard enforce identical admission.
fn worker_serve_args(config: &ServerConfig) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--unix",
        "{socket}",
        "--queue",
        &config.queue_capacity.to_string(),
        "--timeout-ms",
        &config.request_timeout.as_millis().to_string(),
        "--max-cells",
        &config.max_cells.to_string(),
        "--max-trials",
        &config.max_trials.to_string(),
        "--max-qubits",
        &config.max_machine_qubits.to_string(),
        "--threads",
        &config.threads.to_string(),
        "--compact-threshold",
        &config.journal_compact_threshold.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(dir) = &config.journal_dir {
        args.push("--journal-dir".to_string());
        args.push(dir.display().to_string());
    }
    args
}

/// Runs `serve --workers N`: a supervisor routing to N process-isolated
/// worker shards, each a `nisqc serve --unix` child of this process.
fn run_supervised(
    endpoint: &Endpoint,
    config: ServerConfig,
    workers: usize,
    runtime_dir: Option<PathBuf>,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let runtime_dir = runtime_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("nisqc-serve-{}", std::process::id()))
    });
    let mut sup = SupervisorConfig::new(workers, config.clone(), runtime_dir, exe);
    sup.spec.args = worker_serve_args(&config);
    let supervisor =
        Supervisor::bind(endpoint, sup).map_err(|e| format!("cannot start workers: {e}"))?;
    match (endpoint, supervisor.local_addr()) {
        (_, Some(addr)) => {
            eprintln!("nisqc serve: supervising {workers} workers on tcp://{addr}")
        }
        (Endpoint::Unix(path), None) => eprintln!(
            "nisqc serve: supervising {workers} workers on unix://{}",
            path.display()
        ),
        _ => {}
    }
    supervisor.run().map_err(|e| format!("serve failed: {e}"))?;
    eprintln!("nisqc serve: workers stopped, supervisor shut down");
    Ok(())
}

/// Runs the `journal` subcommand: read-only inspection or last-write-wins
/// compaction of a sweep journal.
fn run_journal(args: &[String]) -> Result<(), String> {
    let (verb, path) = match (args.first().map(String::as_str), args.get(1)) {
        (Some("--help" | "-h"), _) => {
            print!("{JOURNAL_USAGE}");
            return Ok(());
        }
        (Some(verb), Some(path)) if args.len() == 2 => (verb, path.as_str()),
        _ => return Err(JOURNAL_USAGE.to_string()),
    };
    match verb {
        "inspect" => {
            let info =
                Journal::inspect(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
            let header = |v: Option<u64>| v.map_or("?".to_string(), |v| v.to_string());
            println!("{path}: nisq sweep journal");
            println!(
                "  header        : machine_seed {}, trials {}",
                header(info.machine_seed),
                header(info.trials)
            );
            println!(
                "  records       : {} ({} cells, {} intents) in {} bytes",
                info.records, info.cell_records, info.intent_records, info.file_bytes
            );
            println!("  unique cells  : {}", info.unique_cells);
            println!(
                "  dead records  : {} (superseded duplicates and completed intents)",
                info.dead_records
            );
            println!("  orphan intents: {}", info.orphan_intents);
            match info.torn_tail_offset {
                None => println!("  tail          : clean"),
                Some(offset) => println!(
                    "  tail          : TORN at byte {offset} ({} trailing bytes would be \
                     truncated on resume)",
                    info.file_bytes - offset
                ),
            }
            if info.torn_tail_offset.is_some() {
                return Err(format!(
                    "{path}: journal has a torn or corrupt tail (resume would recover, \
                     truncating it)"
                ));
            }
            Ok(())
        }
        "compact" => {
            let info =
                Journal::compact(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "{path}: kept {} cell(s), dropped {} dead record(s), {} -> {} bytes",
                info.kept_cells, info.dropped_records, info.bytes_before, info.bytes_after
            );
            Ok(())
        }
        other => Err(format!("unknown journal verb {other:?}\n{JOURNAL_USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = |body: fn(&[String]) -> Result<(), String>, args: &[String]| match body(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    };
    if args.first().map(String::as_str) == Some("sweep") {
        return subcommand(run_sweep, &args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return subcommand(run_serve, &args[1..]);
    }
    if args.first().map(String::as_str) == Some("journal") {
        return subcommand(run_journal, &args[1..]);
    }
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_benchmark_input_with_options() {
        let o = parse_args(&args(&[
            "--benchmark",
            "Toffoli",
            "--mapper",
            "greedy-e",
            "--trials",
            "128",
            "--day",
            "3",
        ]))
        .unwrap();
        assert!(matches!(o.input, Input::Benchmark(Benchmark::Toffoli)));
        assert_eq!(o.mapper, "greedy-e");
        assert_eq!(o.trials, 128);
        assert_eq!(o.day, 3);
    }

    #[test]
    fn parses_expected_bits() {
        let o = parse_args(&args(&["--benchmark", "BV4", "--expected", "1011"])).unwrap();
        assert_eq!(o.expected, Some(vec![true, false, true, true]));
    }

    #[test]
    fn rejects_missing_input() {
        assert!(parse_args(&args(&["--mapper", "qiskit"])).is_err());
    }

    #[test]
    fn rejects_unknown_mapper_and_option() {
        assert!(config_for("magic", 0.5).is_err());
        assert!(parse_args(&args(&["--frobnicate", "x"])).is_err());
    }

    #[test]
    fn every_documented_mapper_name_is_accepted() {
        for name in [
            "qiskit",
            "t-smt",
            "t-smt-star",
            "r-smt-star",
            "greedy-v",
            "greedy-e",
        ] {
            assert!(config_for(name, 0.5).is_ok(), "{name}");
        }
    }

    #[test]
    fn run_compiles_a_builtin_benchmark() {
        let options = parse_args(&args(&["--benchmark", "HS2", "--trials", "64"])).unwrap();
        run(&options).unwrap();
    }

    #[test]
    fn parses_day_lists_and_ranges() {
        assert_eq!(parse_days("0,3,5..8").unwrap(), vec![0, 3, 5, 6, 7]);
        assert_eq!(parse_days("2").unwrap(), vec![2]);
        assert!(parse_days("5..5").is_err());
        assert!(parse_days("x").is_err());
    }

    #[test]
    fn parses_topology_names() {
        assert_eq!(parse_topology("ibmq16").unwrap(), TopologySpec::Ibmq16);
        assert_eq!(
            parse_topology("grid-4x4").unwrap(),
            TopologySpec::Grid { mx: 4, my: 4 }
        );
        assert_eq!(
            parse_topology("ring-12").unwrap(),
            TopologySpec::Ring { n: 12 }
        );
        assert_eq!(
            parse_topology("heavy-hex-2x7").unwrap(),
            TopologySpec::HeavyHex { rows: 2, cols: 7 }
        );
        assert!(parse_topology("torus-3x3").is_err());
    }

    #[test]
    fn parses_benchmark_and_mapper_lists() {
        assert_eq!(parse_benchmarks("all").unwrap().len(), 12);
        assert_eq!(parse_benchmarks("representative").unwrap().len(), 3);
        assert_eq!(
            parse_benchmarks("bv4,toffoli").unwrap(),
            vec![Benchmark::Bv4, Benchmark::Toffoli]
        );
        assert!(parse_benchmarks("bv99").is_err());

        assert_eq!(parse_mappers("table1", 0.5).unwrap().len(), 6);
        let pair = parse_mappers("qiskit,greedy-e", 0.5).unwrap();
        assert_eq!(pair[0].0, "qiskit");
        assert_eq!(pair[1].1, CompilerConfig::greedy_e());
        assert!(parse_mappers("magic", 0.5).is_err());
        assert!(parse_mappers("qiskit,qiskit", 0.5).is_err());
    }

    #[test]
    fn sweep_accepts_custom_qasm_and_rejects_malformed_input() {
        let dir = std::env::temp_dir().join("nisqc-qasm-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.qasm");
        std::fs::write(
            &good,
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\n",
        )
        .unwrap();
        let report_path = dir.join("qasm-report.json");
        run_sweep(&args(&[
            "--benchmarks",
            "none",
            "--qasm",
            good.to_str().unwrap(),
            "--mappers",
            "qiskit",
            "--output",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        run_sweep(&args(&[
            "--validate",
            report_path.to_str().unwrap(),
            "--expect-cells",
            "1",
        ]))
        .unwrap();

        // A malformed file is a typed diagnosis, never a panic.
        let bad = dir.join("bad.qasm");
        std::fs::write(&bad, "OPENQASM 2.0;\nqreg q[;\n").unwrap();
        let err = run_sweep(&args(&[
            "--benchmarks",
            "none",
            "--qasm",
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");

        // So are a missing file and an empty plan.
        assert!(run_sweep(&args(&["--qasm", "/nonexistent/x.qasm"])).is_err());
        assert!(run_sweep(&args(&["--benchmarks", "none"])).is_err());
        // And an oversized register is refused without allocating.
        let huge = dir.join("huge.qasm");
        std::fs::write(&huge, "OPENQASM 2.0;\nqreg q[99999999999];\n").unwrap();
        let err = run_sweep(&args(&[
            "--benchmarks",
            "none",
            "--qasm",
            huge.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
    }

    #[test]
    fn sweep_accepts_noise_specs_and_rejects_malformed_ones() {
        let dir = std::env::temp_dir().join("nisqc-noise-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("depol-ad.json");
        std::fs::write(
            &spec,
            r#"{"name": "depol-cnot_ad-measure", "bindings": [
                {"on": "cnot", "rate": {"calibration": 2.0},
                 "channel": {"kind": "depolarizing-2q"}},
                {"on": "measure", "rate": 0.05,
                 "channel": {"kind": "amplitude-damping"}}]}"#,
        )
        .unwrap();
        let report_path = dir.join("noise-report.json");
        run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--mappers",
            "qiskit",
            "--trials",
            "64",
            "--noise",
            spec.to_str().unwrap(),
            "--output",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        run_sweep(&args(&[
            "--validate",
            report_path.to_str().unwrap(),
            "--expect-cells",
            "1",
        ]))
        .unwrap();
        let report = Report::from_json(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        assert_eq!(
            report.cells[0].noise.as_deref(),
            Some("depol-cnot_ad-measure")
        );

        // A malformed spec and a non-CPTP Kraus set are typed diagnoses.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"name": "x", "bindings": [{"on": "warp"}]}"#).unwrap();
        let err = run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--noise",
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("invalid noise spec"), "{err}");
        let noncptp = dir.join("noncptp.json");
        std::fs::write(
            &noncptp,
            r#"{"name": "x", "bindings": [{"on": "sq", "channel": {"kind": "kraus",
                "ops": [[[2, 0], [0, 0], [0, 0], [2, 0]]]}}]}"#,
        )
        .unwrap();
        let err = run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--noise",
            noncptp.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("invalid noise spec"), "{err}");
        assert!(run_sweep(&args(&["--noise", "/nonexistent/n.json"])).is_err());
    }

    #[test]
    fn every_verb_answers_help_with_its_own_usage() {
        type Verb = fn(&[String]) -> Result<(), String>;
        let verbs: [(Verb, &str); 3] = [
            (run_sweep, SWEEP_USAGE),
            (run_serve, SERVE_USAGE),
            (run_journal, JOURNAL_USAGE),
        ];
        for (run, verb_usage) in verbs {
            assert_eq!(run(&args(&["--help"])), Ok(()), "{verb_usage}");
            assert_eq!(run(&args(&["-h"])), Ok(()), "{verb_usage}");
            // A bad invocation answers with the usage of the verb called,
            // not the single-circuit compile usage.
            let err = run(&args(&["--frobnicate", "x", "y"])).unwrap_err();
            assert!(err.contains(verb_usage), "{err}");
            assert!(!err.contains(&usage()), "{err}");
        }
        assert!(SWEEP_USAGE.contains("--journal <path>"));
        assert!(SERVE_USAGE.contains("--workers <n>"));
        assert!(JOURNAL_USAGE.contains("nisqc journal compact <path>"));
    }

    #[test]
    fn serve_rejects_unknown_options() {
        assert!(run_serve(&args(&["--frobnicate", "1"])).is_err());
        assert!(run_serve(&args(&["--queue"])).is_err());
        assert!(run_serve(&args(&["--timeout-ms", "soon"])).is_err());
        assert!(run_serve(&args(&["--journal-dir"])).is_err());
    }

    #[test]
    fn sweep_journal_and_resume_reports_are_canonically_identical() {
        let dir = std::env::temp_dir().join("nisqc-journal-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("sweep.journal");
        let first = dir.join("first.json");
        let second = dir.join("second.json");
        let plan_args = |journal_flag: &str, journal_path: &str, out: &str| {
            args(&[
                "--benchmarks",
                "bv4",
                "--mappers",
                "qiskit",
                "--trials",
                "32",
                journal_flag,
                journal_path,
                "--output",
                out,
                "--expect-cells",
                "1",
            ])
        };
        run_sweep(&plan_args(
            "--journal",
            journal.to_str().unwrap(),
            first.to_str().unwrap(),
        ))
        .unwrap();
        // Resume the finished journal: every cell loads from disk, and the
        // canonical report matches the uninterrupted run byte for byte.
        run_sweep(&plan_args(
            "--resume",
            journal.to_str().unwrap(),
            second.to_str().unwrap(),
        ))
        .unwrap();
        let a = Report::from_json(&std::fs::read_to_string(&first).unwrap()).unwrap();
        let b = Report::from_json(&std::fs::read_to_string(&second).unwrap()).unwrap();
        assert_eq!(a.resumed_cells, 0);
        assert_eq!(b.resumed_cells, 1);
        assert_eq!(b.cache.journal_hits, 1);
        assert_eq!(a.to_json_line_canonical(), b.to_json_line_canonical());

        // --canonicalize emits the same comparison form for both reports.
        let canon_a = dir.join("a.canon");
        let canon_b = dir.join("b.canon");
        run_sweep(&args(&[
            "--canonicalize",
            first.to_str().unwrap(),
            "--output",
            canon_a.to_str().unwrap(),
        ]))
        .unwrap();
        run_sweep(&args(&[
            "--canonicalize",
            second.to_str().unwrap(),
            "--output",
            canon_b.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&canon_a).unwrap(),
            std::fs::read(&canon_b).unwrap()
        );

        // The flags are mutually exclusive, and --expect-cells now guards
        // executed sweeps too.
        assert!(run_sweep(&args(&["--journal", "a", "--resume", "b"])).is_err());
        let err = run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--mappers",
            "qiskit",
            "--expect-cells",
            "2",
            "--output",
            dir.join("unused.json").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("expected 2 cells"), "{err}");
    }

    #[test]
    fn journal_subcommand_inspects_compacts_and_reuse_absorbs() {
        let dir = std::env::temp_dir().join("nisqc-journal-tools-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("a.journal");
        let first = dir.join("first.json");
        run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--mappers",
            "qiskit",
            "--trials",
            "32",
            "--journal",
            journal.to_str().unwrap(),
            "--output",
            first.to_str().unwrap(),
        ]))
        .unwrap();

        // inspect passes on a clean journal; compact shrinks it (the one
        // completed intent is dead weight); the compacted file still
        // inspects clean.
        run_journal(&args(&["inspect", journal.to_str().unwrap()])).unwrap();
        let before = std::fs::metadata(&journal).unwrap().len();
        run_journal(&args(&["compact", journal.to_str().unwrap()])).unwrap();
        assert!(std::fs::metadata(&journal).unwrap().len() < before);
        run_journal(&args(&["inspect", journal.to_str().unwrap()])).unwrap();

        // --reuse absorbs the compacted journal's cell into a new journal:
        // the second sweep recomputes nothing and reports identically.
        let reused = dir.join("b.journal");
        let second = dir.join("second.json");
        run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--mappers",
            "qiskit",
            "--trials",
            "32",
            "--journal",
            reused.to_str().unwrap(),
            "--reuse",
            journal.to_str().unwrap(),
            "--output",
            second.to_str().unwrap(),
        ]))
        .unwrap();
        let a = Report::from_json(&std::fs::read_to_string(&first).unwrap()).unwrap();
        let b = Report::from_json(&std::fs::read_to_string(&second).unwrap()).unwrap();
        assert_eq!(b.resumed_cells, 1);
        assert_eq!(a.to_json_line_canonical(), b.to_json_line_canonical());

        // --reuse needs a journal to absorb into; the subcommand needs a
        // known verb and exactly one path.
        assert!(run_sweep(&args(&[
            "--benchmarks",
            "bv4",
            "--reuse",
            journal.to_str().unwrap(),
        ]))
        .is_err());
        assert!(run_journal(&args(&["inspect"])).is_err());
        assert!(run_journal(&args(&["defrag", journal.to_str().unwrap()])).is_err());

        // A torn tail is a nonzero inspect exit; a non-journal is refused.
        let torn = dir.join("torn.journal");
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes.extend_from_slice(b"J1 9 0000 {torn");
        std::fs::write(&torn, &bytes).unwrap();
        assert!(run_journal(&args(&["inspect", torn.to_str().unwrap()])).is_err());
        let bogus = dir.join("notes.txt");
        std::fs::write(&bogus, "notes\n").unwrap();
        assert!(run_journal(&args(&["compact", bogus.to_str().unwrap()])).is_err());
    }

    #[test]
    fn sweep_runs_and_validates_a_tiny_plan() {
        let dir = std::env::temp_dir().join("nisqc-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let path_str = path.to_str().unwrap().to_string();
        run_sweep(&args(&[
            "--benchmarks",
            "bv4,hs2",
            "--mappers",
            "qiskit,greedy-e",
            "--days",
            "0..2",
            "--trials",
            "32",
            "--output",
            &path_str,
        ]))
        .unwrap();
        // 2 benchmarks x 2 mappers x 2 days = 8 cells.
        run_sweep(&args(&["--validate", &path_str, "--expect-cells", "8"])).unwrap();
        assert!(run_sweep(&args(&["--validate", &path_str, "--expect-cells", "9"])).is_err());
        let report = Report::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(report.cells.iter().all(|c| c.success_rate.is_some()));

        // The thread budget changes nothing but wall-clock time.
        for threads in ["1", "4"] {
            let path = dir.join(format!("report-{threads}.json"));
            run_sweep(&args(&[
                "--benchmarks",
                "bv4,hs2",
                "--mappers",
                "qiskit,greedy-e",
                "--days",
                "0..2",
                "--trials",
                "32",
                "--threads",
                threads,
                "--output",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            let threaded = Report::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(
                threaded.to_json_line_canonical(),
                report.to_json_line_canonical()
            );
        }
        assert!(run_sweep(&args(&["--threads", "many"])).is_err());
    }
}
