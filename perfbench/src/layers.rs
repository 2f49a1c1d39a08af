//! The traced re-drive: the same cells a [`Session`](nisq_exp::Session)
//! executes, driven call by call through each layer's public functions
//! with a span around every call.
//!
//! [`TracedSession`] keeps the session's three caches (machine snapshots,
//! full compiles, placements) with the session's keys, so cache hits and
//! misses fall where they fall in the untraced run, and it reproduces both
//! execution shapes: the batch shape of `Session::run` (serial compile
//! phase, then cells simulated in parallel on the session's thread
//! budget) and the serial, optionally journaled shape serve workers use.

use crate::output::Metrics;
use crate::stats::ratio;
use crate::trace::{SpanId, Tracer};
use nisq_core::pipeline::CompileContext;
use nisq_core::{CompileError, Pipeline, PlacementCache, PlacementCacheStats};
use nisq_exp::{CacheStats, Cell, CellKey, CellRecord, Journal, Report, SweepPlan, TierStats};
use nisq_ir::Circuit;
use nisq_machine::{Machine, MachineError, TopologySpec};
use nisq_sim::{BackendKind, Simulator, SimulatorConfig, TierCounts};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What one compile produced that later layers and the report need.
#[derive(Debug)]
struct Compiled {
    physical: Circuit,
    swaps: usize,
    makespan: u32,
    hardware_cnots: usize,
    reliability: f64,
}

/// Counts the traced layers add up while they run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Machine snapshots built (machine-cache misses).
    pub machine_builds: u64,
    /// Compile requests (one per executed cell).
    pub compile_requests: u64,
    /// Compile requests answered from the full-compile cache.
    pub compile_hits: u64,
    /// Pipelines actually run.
    pub compile_calls: u64,
    /// Physical gates emitted by those pipelines.
    pub physical_gates: u64,
    /// One-way SWAPs those pipelines inserted.
    pub swaps: u64,
    /// Trials run on the dense state-vector backend.
    pub dense_trials: u64,
    /// Trials run on the stabilizer-tableau backend.
    pub tableau_trials: u64,
    /// Engine tier occupancy, summed.
    pub tiers: TierStats,
    /// Journal records appended (intents plus completed cells).
    pub journal_appends: u64,
    /// Placement-cache lookups answered from the cache.
    pub place_hits: u64,
    /// Placement-cache lookups.
    pub place_lookups: u64,
}

/// A session whose every layer call is recorded as a span.
#[derive(Debug)]
pub struct TracedSession {
    machines: HashMap<(TopologySpec, u64, usize), Arc<Machine>>,
    compiled: HashMap<(u64, u64, u64), Arc<Compiled>>,
    place_cache: Arc<PlacementCache>,
    pipeline: Pipeline,
    threads: usize,
    pool: rayon::ThreadPool,
    counts: LayerCounts,
    /// Placement-cache counters at the last [`TracedSession::take_counts`].
    place_taken: PlacementCacheStats,
}

/// Span name of a standard-pipeline pass.
fn pass_span(pass: &str) -> &'static str {
    match pass {
        "decompose" => "compile.decompose",
        "place" => "compile.place",
        "route" => "compile.route",
        "schedule" => "compile.schedule",
        "emit" => "compile.emit",
        "estimate" => "compile.estimate",
        _ => "compile.other",
    }
}

/// The session's default thread budget (see `Session::new`).
pub fn session_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().min(8))
}

impl TracedSession {
    /// A cold session with `threads` batch-simulation threads.
    pub fn new(threads: usize) -> Self {
        let place_cache = Arc::new(PlacementCache::new());
        TracedSession {
            machines: HashMap::new(),
            compiled: HashMap::new(),
            pipeline: Pipeline::standard_with_placement_cache(place_cache.clone()),
            place_cache,
            threads,
            pool: rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("building the batch thread pool cannot fail"),
            counts: LayerCounts::default(),
            place_taken: PlacementCacheStats::default(),
        }
    }

    /// The counts accumulated since the last call, resetting them.
    pub fn take_counts(&mut self) -> LayerCounts {
        let place = self.place_cache.stats();
        let mut counts = std::mem::take(&mut self.counts);
        counts.place_hits = place.hits - self.place_taken.hits;
        counts.place_lookups = place.lookups() - self.place_taken.lookups();
        self.place_taken = place;
        counts
    }

    fn machine(
        &mut self,
        tracer: &Tracer,
        parent: SpanId,
        key: u64,
        spec: TopologySpec,
        seed: u64,
        day: usize,
    ) -> Result<Arc<Machine>, MachineError> {
        if let Some(hit) = self.machines.get(&(spec, seed, day)) {
            return Ok(hit.clone());
        }
        let start = tracer.now_ns();
        let machine = Arc::new(Machine::try_from_spec(spec, seed, day)?);
        tracer.record("machine.build", start, Some(parent), key);
        self.counts.machine_builds += 1;
        self.machines.insert((spec, seed, day), machine.clone());
        Ok(machine)
    }

    fn compile(
        &mut self,
        tracer: &Tracer,
        parent: SpanId,
        key: u64,
        machine: &Machine,
        plan: &SweepPlan,
        cell: &Cell,
    ) -> Result<(Arc<Compiled>, bool), CompileError> {
        let circuit = &plan.circuits()[cell.circuit].circuit;
        let config = plan.configs()[cell.config].1;
        self.counts.compile_requests += 1;
        let cache_key = (
            circuit.fingerprint(),
            machine.fingerprint(),
            config.fingerprint(),
        );
        if let Some(hit) = self.compiled.get(&cache_key) {
            self.counts.compile_hits += 1;
            return Ok((hit.clone(), true));
        }
        let mut ctx = CompileContext::new(machine, config, circuit.clone());
        for pass in self.pipeline.passes() {
            let start = tracer.now_ns();
            pass.run(&mut ctx)?;
            tracer.record(pass_span(pass.name()), start, Some(parent), key);
        }
        let physical = ctx.require_physical("perfbench")?.clone();
        let schedule = ctx.require_schedule("perfbench")?;
        let compiled = Arc::new(Compiled {
            hardware_cnots: physical.cnot_count_with_swaps(),
            swaps: schedule.swap_count,
            makespan: schedule.makespan,
            reliability: ctx
                .estimate()
                .expect("the standard pipeline ends with the estimate pass")
                .total(),
            physical,
        });
        self.counts.compile_calls += 1;
        self.counts.physical_gates += compiled.physical.len() as u64;
        self.counts.swaps += compiled.swaps as u64;
        self.compiled.insert(cache_key, compiled.clone());
        Ok((compiled, false))
    }

    /// `Session::run` of `plan`, traced: compile phase serially, then the
    /// simulated cells in parallel (one worker thread per cell, or every
    /// thread on the trials of a lone cell), then the report encode.
    ///
    /// # Errors
    ///
    /// Returns the first compile error.
    pub fn run(
        &mut self,
        tracer: &Tracer,
        parent: SpanId,
        plan: &SweepPlan,
    ) -> Result<Report, CompileError> {
        let cells = plan.cells();
        let trials = plan.trials();
        let mut compiled = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let key = i as u64;
            let machine = self
                .machine(
                    tracer,
                    parent,
                    key,
                    cell.topology,
                    plan.machine_seed(),
                    cell.day,
                )
                .map_err(CompileError::Machine)?;
            let (executable, hit) = self.compile(tracer, parent, key, &machine, plan, cell)?;
            compiled.push((machine, executable, hit));
        }

        let work: Vec<(usize, Arc<Machine>, Arc<Compiled>)> = cells
            .iter()
            .enumerate()
            .filter(|(_, cell)| trials > 0 && plan.circuits()[cell.circuit].expected.is_some())
            .map(|(i, _)| (i, compiled[i].0.clone(), compiled[i].1.clone()))
            .collect();
        let mut results: Vec<Option<(f64, TierCounts)>> = vec![None; cells.len()];
        let cells = &cells;
        let sim_cell = |(i, machine, executable): (usize, Arc<Machine>, Arc<Compiled>),
                        threads: usize| {
            let out = simulate(
                tracer,
                parent,
                plan,
                &cells[i],
                i as u64,
                &machine,
                &executable,
                threads,
            );
            (i, out)
        };
        let done: Vec<(usize, (f64, TierCounts))> = if work.len() > 1 {
            self.pool
                .install(|| work.into_par_iter().map(|w| sim_cell(w, 1)).collect())
        } else {
            work.into_iter()
                .map(|w| sim_cell(w, self.threads))
                .collect()
        };
        for (i, out) in done {
            self.count_trials(&out.1);
            results[i] = Some(out);
        }

        let records: Vec<CellRecord> = cells
            .iter()
            .zip(&compiled)
            .zip(results)
            .map(|((cell, (_, executable, hit)), result)| {
                record(plan, cell, executable, *hit, trials, result)
            })
            .collect();
        Ok(self.report(tracer, parent, plan, records, 0))
    }

    /// The serial execution serve workers use (`Session::run_controlled`,
    /// or `Session::run_journaled` when `journal` is given), traced.
    ///
    /// # Errors
    ///
    /// Returns the first compile error.
    pub fn run_serial(
        &mut self,
        tracer: &Tracer,
        parent: SpanId,
        plan: &SweepPlan,
        mut journal: Option<&mut Journal>,
    ) -> Result<Report, CompileError> {
        let trials = plan.trials();
        let mut records = Vec::new();
        let mut resumed = 0;
        for (i, cell) in plan.cells().iter().enumerate() {
            let key = i as u64;
            let machine = self
                .machine(
                    tracer,
                    parent,
                    key,
                    cell.topology,
                    plan.machine_seed(),
                    cell.day,
                )
                .map_err(CompileError::Machine)?;
            let spec = &plan.circuits()[cell.circuit];
            let cell_key = journal.as_ref().map(|_| CellKey {
                circuit_fp: spec.circuit.fingerprint(),
                machine_fp: machine.fingerprint(),
                config_fp: plan.configs()[cell.config].1.fingerprint(),
                day: cell.day,
                noise: cell.noise.map(|n| plan.noise_axis()[n].0.clone()),
                sim_seed: cell.sim_seed,
                trials,
            });
            if let (Some(journal), Some(cell_key)) = (journal.as_deref_mut(), cell_key.as_ref()) {
                if let Some(hit) = journal.lookup(cell_key) {
                    resumed += 1;
                    records.push(hit.clone());
                    continue;
                }
                tracer.time("journal.append_intent", Some(parent), key, || {
                    journal.append_intent(cell_key)
                });
                self.counts.journal_appends += 1;
            }
            let (executable, hit) = self.compile(tracer, parent, key, &machine, plan, cell)?;
            let result = (spec.expected.is_some() && trials > 0).then(|| {
                simulate(
                    tracer,
                    parent,
                    plan,
                    cell,
                    key,
                    &machine,
                    &executable,
                    self.threads,
                )
            });
            if let Some((_, tiers)) = &result {
                self.count_trials(tiers);
            }
            let record = record(plan, cell, &executable, hit, trials, result);
            if let (Some(journal), Some(cell_key)) = (journal.as_deref_mut(), cell_key.as_ref()) {
                tracer.time("journal.append_cell", Some(parent), key, || {
                    journal.append_cell(cell_key, &record)
                });
                self.counts.journal_appends += 1;
            }
            records.push(record);
        }
        Ok(self.report(tracer, parent, plan, records, resumed))
    }

    fn count_trials(&mut self, tiers: &TierCounts) {
        match tiers.backend {
            BackendKind::Dense => self.counts.dense_trials += tiers.total(),
            BackendKind::Tableau => self.counts.tableau_trials += tiers.total(),
        }
        self.counts.tiers.merge(&TierStats::from(*tiers));
    }

    /// Assembles the run's report and encodes it, as `nisqc sweep` and the
    /// serve workers do before writing it out.
    fn report(
        &self,
        tracer: &Tracer,
        parent: SpanId,
        plan: &SweepPlan,
        records: Vec<CellRecord>,
        resumed_cells: u64,
    ) -> Report {
        let mut tiers = TierStats::default();
        for record in &records {
            tiers.merge(&record.tiers);
        }
        let report = Report {
            machine_seed: plan.machine_seed(),
            trials: plan.trials(),
            resumed_cells,
            journal_hash: 0,
            cells: records,
            cache: CacheStats::default(),
            tiers,
        };
        let encoded = tracer.time("report.encode", Some(parent), 0, || report.to_json());
        std::hint::black_box(encoded);
        report
    }
}

/// Lowers and runs one cell's trials: `Simulator::prepare_with_noise`, then
/// `Simulator::run_program_with_stats`, each as its own span.
#[allow(clippy::too_many_arguments)]
fn simulate(
    tracer: &Tracer,
    parent: SpanId,
    plan: &SweepPlan,
    cell: &Cell,
    key: u64,
    machine: &Machine,
    executable: &Compiled,
    threads: usize,
) -> (f64, TierCounts) {
    let mut config = SimulatorConfig::with_trials(plan.trials(), cell.sim_seed);
    config.threads = threads;
    let simulator = Simulator::new(machine, config);
    let noise = cell.noise.map(|n| &plan.noise_axis()[n].1);
    let program = tracer.time("lower", Some(parent), key, || {
        simulator.prepare_with_noise(&executable.physical, noise)
    });
    let start = tracer.now_ns();
    let (result, tiers) = simulator.run_program_with_stats(&program);
    let name = match tiers.backend {
        BackendKind::Dense => "trials.dense",
        BackendKind::Tableau => "trials.tableau",
    };
    tracer.record(name, start, Some(parent), key);
    let expected = plan.circuits()[cell.circuit]
        .expected
        .as_ref()
        .expect("only cells with an expected output are simulated");
    (result.probability_of(expected), tiers)
}

/// The cell's report record; wall-clock fields stay zero, as in a
/// canonicalized report.
fn record(
    plan: &SweepPlan,
    cell: &Cell,
    executable: &Compiled,
    cache_hit: bool,
    trials: u32,
    result: Option<(f64, TierCounts)>,
) -> CellRecord {
    let spec = &plan.circuits()[cell.circuit];
    CellRecord {
        circuit: spec.name.clone(),
        config: plan.configs()[cell.config].0.clone(),
        topology: cell.topology.name(),
        day: cell.day,
        noise: cell.noise.map(|n| plan.noise_axis()[n].0.clone()),
        qubits: spec.circuit.num_qubits(),
        gates: spec.circuit.gate_count(),
        sim_seed: cell.sim_seed,
        trials,
        success_rate: result.map(|(rate, _)| rate),
        estimated_reliability: executable.reliability,
        duration_slots: executable.makespan,
        swap_count: executable.swaps,
        hardware_cnots: executable.hardware_cnots,
        compile_ms: 0.0,
        place_us: 0.0,
        cache_hit,
        tiers: result.map_or_else(TierStats::default, |(_, tiers)| TierStats::from(tiers)),
    }
}

/// Cells of `actual` that differ from `expected` in anything but the
/// wall-clock and cache-provenance fields, plus any cells missing from
/// either side.
pub fn mismatched_cells(expected: &Report, actual: &Report) -> u64 {
    let a = expected.canonicalized();
    let b = actual.canonicalized();
    let differing = a.cells.iter().zip(&b.cells).filter(|(x, y)| x != y).count();
    (differing + a.cells.len().abs_diff(b.cells.len())) as u64
}

/// What the traced layers did for one traced unit: a sweep or a request.
#[derive(Debug, Clone, Default)]
pub struct TracedUnit {
    /// Self time per span name, in milliseconds.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Counts the layers added up.
    pub counts: LayerCounts,
    /// Wall time of the traced unit, in milliseconds.
    pub wall_ms: f64,
}

/// Pushes the per-layer metrics every workload derives from its traced
/// units, each summarized over the units by `summary`, and the self-time
/// table.
pub fn push_layer_metrics(m: &mut Metrics, units: &[TracedUnit], summary: fn(&[f64]) -> f64) {
    let n = units.len();
    let over = |f: &dyn Fn(&TracedUnit) -> f64| summary(&units.iter().map(f).collect::<Vec<_>>());
    let span_ms = |name: &str| over(&|u| u.self_ms.get(name).copied().unwrap_or(0.0));
    for pass in [
        "decompose",
        "place",
        "route",
        "schedule",
        "emit",
        "estimate",
    ] {
        let ms = span_ms(&format!("compile.{pass}"));
        m.push(&format!("compile.{pass}_ms"), ms, "ms", n);
    }
    let count = |f: fn(&LayerCounts) -> u64| over(&|u| f(&u.counts) as f64);
    m.push("compile.calls", count(|c| c.compile_calls), "count", n);
    m.push(
        "compile.physical_gates",
        count(|c| c.physical_gates),
        "count",
        n,
    );
    m.push("compile.swaps", count(|c| c.swaps), "count", n);
    m.push("machine.build_ms", span_ms("machine.build"), "ms", n);
    m.push("machine.builds", count(|c| c.machine_builds), "count", n);
    m.push("lower.ms", span_ms("lower"), "ms", n);
    for (backend, span, trials) in [
        ("dense", "trials.dense", count(|c| c.dense_trials)),
        ("tableau", "trials.tableau", count(|c| c.tableau_trials)),
    ] {
        let busy_ms = span_ms(span);
        m.push(&format!("trials.{backend}_ms"), busy_ms, "ms", n);
        m.push(
            &format!("trials.{backend}_per_s"),
            ratio(trials, busy_ms / 1e3),
            "1/s",
            n,
        );
    }
    m.push("tier.error_free", count(|c| c.tiers.error_free), "count", n);
    m.push("tier.pauli_prop", count(|c| c.tiers.pauli_prop), "count", n);
    m.push(
        "tier.checkpointed",
        count(|c| c.tiers.checkpointed),
        "count",
        n,
    );
    m.push(
        "tier.full_replay",
        count(|c| c.tiers.full_replay),
        "count",
        n,
    );
    let memo_lookups = count(|c| c.tiers.memo_hits + c.tiers.memo_misses);
    let memo_hits = count(|c| c.tiers.memo_hits);
    m.push(
        "tier.memo_hit_ratio",
        ratio(memo_hits, memo_lookups),
        "ratio",
        n,
    );
    m.push("tier.memo_lookups", memo_lookups, "count", n);
    m.push("report.encode_ms", span_ms("report.encode"), "ms", n);
    m.push("trace.wall_ms", over(&|u| u.wall_ms), "ms", n);
    m.push(
        "trace.self_ms",
        over(&|u| u.self_ms.values().sum()),
        "ms",
        n,
    );
    let mean_wall_ms = units.iter().map(|u| u.wall_ms).sum::<f64>() / n.max(1) as f64;
    let per_unit: Vec<BTreeMap<&'static str, f64>> =
        units.iter().map(|u| u.self_ms.clone()).collect();
    m.layer_table(&per_unit, mean_wall_ms);
}
