//! The long-lived experiment executor.

use crate::journal::{CellKey, Journal};
use crate::plan::{Cell, SweepPlan};
use crate::report::{CacheStats, CellRecord, Report, TierStats};
use nisq_core::{
    CompileError, CompiledCircuit, Compiler, CompilerConfig, Pipeline, PlacementCache,
};
use nisq_ir::Circuit;
use nisq_machine::{Machine, MachineError, TopologySpec};
use nisq_sim::{Simulator, SimulatorConfig};
use rayon::prelude::*;
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Key of the full-compile cache: circuit, machine and config fingerprints.
type CompileKey = (u64, u64, u64);

/// External controls for [`Session::run_controlled`]: the knobs a hosting
/// service (the serve daemon) uses to bound a run without forking the
/// execution logic.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunControl {
    /// Stop before starting any cell that would begin after this instant.
    /// `None` runs to completion.
    pub deadline: Option<Instant>,
    /// Stop before starting the `n+1`-th cell (journal hits included).
    /// `None` runs to completion. Unlike the wall-clock deadline this cut
    /// is deterministic, which is what the crash-recovery tests need to
    /// simulate a process dying at an exact cell boundary.
    pub stop_after_cells: Option<usize>,
}

impl RunControl {
    /// A control block with no limits: [`Session::run_controlled`] under it
    /// behaves exactly like [`Session::run`].
    pub fn unbounded() -> Self {
        RunControl::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deterministic cell-count cut.
    pub fn with_stop_after_cells(mut self, cells: usize) -> Self {
        self.stop_after_cells = Some(cells);
        self
    }
}

/// What [`Session::run_controlled`] produced: the (possibly partial)
/// report plus how far through the plan the run got.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Records for every cell that finished, in plan order.
    pub report: Report,
    /// `true` when every plan cell ran; `false` when the deadline cut the
    /// run short (the report then holds a prefix of the plan's cells).
    pub completed: bool,
    /// Total cells the plan describes.
    pub cells_total: usize,
}

/// A long-lived executor for [`SweepPlan`] workloads.
///
/// A session owns three layers of reusable state, so a sequence of plans
/// (or one plan with overlapping cells) never repeats work:
///
/// * **machine snapshots** — `(topology, seed, day)` builds calibration
///   data once and shares the [`Machine`] behind an `Arc`;
/// * **a full-compile cache** — identical `(circuit, machine-day, config)`
///   triples return the same [`CompiledCircuit`], bit for bit;
/// * **a placement cache** (see [`PlacementCache`]) — shared by every
///   compile the session runs, so even compile-cache *misses* skip the
///   expensive placement pass when only the calibration day changed for a
///   calibration-unaware configuration.
///
/// Every runner ([`Session::run`], [`Session::run_controlled`],
/// [`Session::run_journaled`]) shares one execution path: machines are
/// built and journal hits replayed in plan order, then each distinct
/// compile the caches miss runs once on the session's rayon pool, then
/// cells simulate on the pool, each replaying its trials with a
/// deterministic per-cell stream. Compiles are pure functions of their
/// cache key, and one sharing a placement with an earlier compile waits
/// for it, so results and cache counters are independent of thread count
/// and identical to a serial run.
///
/// # Example
///
/// ```
/// use nisq_exp::{Session, SweepPlan};
/// use nisq_core::CompilerConfig;
/// use nisq_ir::Benchmark;
///
/// let mut session = Session::new();
/// let report = session
///     .run(
///         &SweepPlan::new()
///             .benchmark(Benchmark::Bv4)
///             .config("GreedyE*", CompilerConfig::greedy_e())
///             .with_trials(128),
///     )
///     .unwrap();
/// assert_eq!(report.cells.len(), 1);
/// assert!(report.cells[0].success() > 0.0);
/// ```
#[derive(Debug)]
pub struct Session {
    machines: FxHashMap<(TopologySpec, u64, usize), Arc<Machine>>,
    compiled: FxHashMap<CompileKey, Arc<CompiledCircuit>>,
    place_cache: Arc<PlacementCache>,
    pipeline: Arc<Pipeline>,
    compile_requests: u64,
    compile_hits: u64,
    threads: usize,
    /// Worker pool for batch simulation, built once per thread budget (not
    /// per run) so a long-lived session executing many plans does not pay
    /// repeated pool setup.
    pool: rayon::ThreadPool,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// Creates a session with an empty cache and the default thread budget
    /// (the machine's available parallelism, capped at 8 like the
    /// simulator's default).
    pub fn new() -> Self {
        let place_cache = Arc::new(PlacementCache::new());
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
        Session {
            machines: FxHashMap::default(),
            compiled: FxHashMap::default(),
            pipeline: Arc::new(Pipeline::standard_with_placement_cache(place_cache.clone())),
            place_cache,
            compile_requests: 0,
            compile_hits: 0,
            threads,
            pool: Session::build_pool(threads),
        }
    }

    fn build_pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("building the batch thread pool cannot fail")
    }

    /// Sets the worker-thread budget for batch simulation.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.pool = Session::build_pool(self.threads);
        self
    }

    /// The machine snapshot for `(spec, seed, day)`, built on first use and
    /// shared afterwards.
    pub fn machine(&mut self, spec: TopologySpec, seed: u64, day: usize) -> Arc<Machine> {
        self.machines
            .entry((spec, seed, day))
            .or_insert_with(|| Arc::new(Machine::from_spec(spec, seed, day)))
            .clone()
    }

    /// Like [`Session::machine`], but validating the spec first so a
    /// degenerate topology (a `ring-2`, a `grid-0x5`) surfaces as a typed
    /// error instead of a panic — the variant untrusted plans go through.
    /// Only successful builds enter the cache.
    ///
    /// # Errors
    ///
    /// Returns whatever [`Machine::try_from_spec`] reports.
    pub fn try_machine(
        &mut self,
        spec: TopologySpec,
        seed: u64,
        day: usize,
    ) -> Result<Arc<Machine>, MachineError> {
        if let Some(hit) = self.machines.get(&(spec, seed, day)) {
            return Ok(hit.clone());
        }
        let machine = Arc::new(Machine::try_from_spec(spec, seed, day)?);
        self.machines.insert((spec, seed, day), machine.clone());
        Ok(machine)
    }

    /// Compiles `circuit` for `machine` under `config` through the
    /// session's caches. The returned flag is `true` when the result came
    /// from the full-compile cache (bit-identical to the original compile).
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit does not fit on the machine or the
    /// configuration is invalid.
    pub fn compile_cached(
        &mut self,
        machine: &Machine,
        config: &CompilerConfig,
        circuit: &Circuit,
    ) -> Result<(Arc<CompiledCircuit>, bool), CompileError> {
        self.compile_requests += 1;
        let key = compile_key(machine, config, circuit);
        if let Some(hit) = self.compiled.get(&key) {
            self.compile_hits += 1;
            return Ok((hit.clone(), true));
        }
        let compiled = Arc::new(self.compile_uncached(machine, config, circuit)?);
        self.compiled.insert(key, compiled.clone());
        Ok((compiled, false))
    }

    /// One compile through the session's pipeline (and so its placement
    /// cache), bypassing the full-compile cache.
    fn compile_uncached(
        &self,
        machine: &Machine,
        config: &CompilerConfig,
        circuit: &Circuit,
    ) -> Result<CompiledCircuit, CompileError> {
        Compiler::with_pipeline(machine, *config, self.pipeline.clone()).compile(circuit)
    }

    /// Like [`Session::compile_cached`], discarding the hit flag.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit does not fit on the machine or the
    /// configuration is invalid.
    pub fn compile(
        &mut self,
        machine: &Machine,
        config: &CompilerConfig,
        circuit: &Circuit,
    ) -> Result<Arc<CompiledCircuit>, CompileError> {
        self.compile_cached(machine, config, circuit)
            .map(|(compiled, _)| compiled)
    }

    /// The placement cache shared by every compile this session runs.
    pub fn placement_cache(&self) -> &Arc<PlacementCache> {
        &self.place_cache
    }

    /// Cache behaviour accumulated over the session's lifetime.
    pub fn cache_stats(&self) -> CacheStats {
        let place = self.place_cache.stats();
        CacheStats {
            compile_requests: self.compile_requests,
            compile_hits: self.compile_hits,
            place_hits: place.hits,
            place_runs: place.misses,
            // Journal hits are per-run provenance, not session state; runs
            // fill the field in their report deltas.
            journal_hits: 0,
        }
    }

    /// Executes every cell of `plan`: compiles through the caches, then —
    /// when the plan requests trials — simulates the cells in parallel and
    /// scores success rates against each circuit's expected output.
    ///
    /// The report's [`CacheStats`] are the session totals *for this run*
    /// (deltas against the session state before the call).
    ///
    /// # Errors
    ///
    /// Returns the first compile error, or a typed machine error for a
    /// degenerate topology; cells already compiled are discarded.
    pub fn run(&mut self, plan: &SweepPlan) -> Result<Report, CompileError> {
        self.execute(plan, &RunControl::unbounded(), None)
            .map(|outcome| outcome.report)
    }

    /// Like [`Session::run`], under external controls — the variant
    /// hosting services use to cut a run short.
    ///
    /// The deadline and cell-count cut are checked in plan order before
    /// each cell builds its machine. Compiles then start in plan order,
    /// and each checks the deadline as it starts, except the first
    /// pending cell's; the compiled cells form a plan-order prefix, and
    /// only they count as compile requests. The deadline is checked again
    /// when a cell starts simulating, except for the first compiled cell;
    /// cells with nothing to simulate always finish once compiled. The
    /// report holds the longest plan-order prefix of finished cells
    /// (`completed == false` when that is not the whole plan). Its
    /// compile counters in [`CacheStats`] cover the compiled prefix,
    /// including cells cut from the report before they simulate; its
    /// placement counters also cover compiles dropped past the cut.
    /// Per-cell results do not depend on the control block or the thread
    /// budget: the simulator's trial streams are thread-invariant, so a
    /// report produced here matches [`Session::run`] of the same plan bit
    /// for bit (wall-clock fields aside).
    ///
    /// # Errors
    ///
    /// Returns the first compile error, or a typed machine error for a
    /// degenerate topology; cells already compiled are discarded.
    pub fn run_controlled(
        &mut self,
        plan: &SweepPlan,
        control: &RunControl,
    ) -> Result<RunOutcome, CompileError> {
        self.execute(plan, control, None)
    }

    /// Like [`Session::run_controlled`], but streaming every completed
    /// cell into `journal` and serving cells the journal already holds
    /// without recompiling or resimulating them.
    ///
    /// Each cell's key is looked up before it compiles: a hit replays the
    /// journaled record verbatim (counted in `resumed_cells` and the
    /// cache's `journal_hits` when it lands in the reported prefix); a
    /// miss appends a write-ahead intent when the cell starts executing,
    /// then appends and fsyncs the completed record as soon as the cell
    /// finishes. Because journaled records round-trip bit-exactly, a
    /// resumed run's [`Report::canonicalized`] form is byte-identical to
    /// an uninterrupted run of the same plan. A journal that degrades
    /// mid-run (disk full) stops persisting but never fails the sweep —
    /// check [`Journal::degraded`] after the run.
    ///
    /// # Errors
    ///
    /// Returns the first compile error after journaling every cell that
    /// precedes it in plan order, so a retry resumes from there.
    pub fn run_journaled(
        &mut self,
        plan: &SweepPlan,
        control: &RunControl,
        journal: &mut Journal,
    ) -> Result<RunOutcome, CompileError> {
        self.execute(plan, control, Some(journal))
    }

    /// The one execution path behind [`Session::run`],
    /// [`Session::run_controlled`] and [`Session::run_journaled`].
    fn execute(
        &mut self,
        plan: &SweepPlan,
        control: &RunControl,
        journal: Option<&mut Journal>,
    ) -> Result<RunOutcome, CompileError> {
        let before = self.cache_stats();
        let cells = plan.cells();
        let cells_total = cells.len();
        let trials = plan.trials();
        let expired = || control.deadline.is_some_and(|d| Instant::now() >= d);

        // Phase 1a, serial in plan order: apply the cuts, build the
        // machines and replay journal hits.
        let mut finished: Vec<Option<CellRecord>> = Vec::with_capacity(cells_total);
        let mut replayed: Vec<bool> = Vec::with_capacity(cells_total);
        let mut pending: Vec<Pending> = Vec::new();
        let mut error = None;
        for (index, cell) in cells.iter().enumerate() {
            if expired() || control.stop_after_cells.is_some_and(|n| index >= n) {
                break;
            }
            match self.prepare(plan, index, cell, journal.as_deref()) {
                Ok(Prepared::Replayed(record)) => {
                    finished.push(Some(record));
                    replayed.push(true);
                }
                Ok(Prepared::Pending(cell)) => {
                    pending.push(cell);
                    finished.push(None);
                    replayed.push(false);
                }
                // Cells before the failing one are only worth finishing
                // when a journal keeps them for the retry.
                Err(e) if journal.is_none() => return Err(e),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }

        // Phase 1b: compile the pending cells across the pool. A cut or a
        // compile error there comes before any phase-1a error in plan order.
        let pending_cells = pending.len();
        let (jobs, compile_error) = self.compile_pending(plan, &cells, pending, &expired);
        if jobs.len() < pending_cells {
            error = compile_error;
        }
        if journal.is_none() {
            if let Some(e) = error {
                return Err(e);
            }
        }

        // Phase 2: simulate across the pool, one cell per worker — or
        // across trials when only one cell simulates. Worker-local engine
        // scratch (state vectors, checkpoint and event buffers) is reused
        // across the cells a worker processes.
        let journal_hash = journal.as_ref().map_or(0, |j| j.path_hash());
        let journal = journal.map(Mutex::new);
        let simulates =
            |job: &Job| trials > 0 && plan.circuits()[cells[job.index].circuit].expected.is_some();
        // Every job started compiling before the deadline. Only simulating
        // jobs after the first are cut, so a cut run keeps what it compiled.
        let first = jobs.first().map(|job| job.index);
        let finish = |job: &Job, threads: usize| -> Option<CellRecord> {
            if simulates(job) && Some(job.index) != first && expired() {
                return None;
            }
            let journaled = journal.as_ref().zip(job.key.as_ref());
            if let Some((journal, key)) = journaled {
                lock(journal).append_intent(key);
            }
            let cell = &cells[job.index];
            let (success_rate, tiers) = match &plan.circuits()[cell.circuit].expected {
                Some(expected) if trials > 0 => {
                    let mut config = SimulatorConfig::with_trials(trials, cell.sim_seed);
                    config.threads = threads;
                    let simulator = Simulator::new(&job.machine, config);
                    let noise = cell.noise.map(|n| &plan.noise_axis()[n].1);
                    let program =
                        simulator.prepare_with_noise(job.executable.physical_circuit(), noise);
                    let (result, counts) = simulator.run_program_with_stats(&program);
                    (
                        Some(result.probability_of(expected)),
                        TierStats::from(counts),
                    )
                }
                _ => (None, TierStats::default()),
            };
            let record = cell_record(
                plan,
                cell,
                &job.executable,
                job.cache_hit,
                trials,
                success_rate,
                tiers,
            );
            if let Some((journal, key)) = journaled {
                lock(journal).append_cell(key, &record);
            }
            Some(record)
        };
        let simulating = jobs.iter().filter(|job| simulates(job)).count();
        let results: Vec<(usize, Option<CellRecord>)> = if simulating > 1 {
            self.pool.install(|| {
                jobs.into_par_iter()
                    .map(|job| (job.index, finish(&job, 1)))
                    .collect()
            })
        } else {
            jobs.iter()
                .map(|job| (job.index, finish(job, self.threads)))
                .collect()
        };
        for (index, record) in results {
            finished[index] = record;
        }
        if let Some(e) = error {
            return Err(e);
        }

        // The report is the longest plan-order prefix of finished cells.
        let records: Vec<CellRecord> = finished.into_iter().map_while(|r| r).collect();
        let journal_hits = replayed[..records.len()].iter().filter(|&&r| r).count() as u64;
        let mut tier_totals = TierStats::default();
        for record in &records {
            tier_totals.merge(&record.tiers);
        }
        let after = self.cache_stats();
        Ok(RunOutcome {
            completed: records.len() == cells_total,
            cells_total,
            report: Report {
                machine_seed: plan.machine_seed(),
                trials,
                resumed_cells: journal_hits,
                journal_hash,
                cells: records,
                cache: CacheStats {
                    compile_requests: after.compile_requests - before.compile_requests,
                    compile_hits: after.compile_hits - before.compile_hits,
                    place_hits: after.place_hits - before.place_hits,
                    place_runs: after.place_runs - before.place_runs,
                    journal_hits,
                },
                tiers: tier_totals,
            },
        })
    }

    /// Phase 1a for one cell: its machine, then a journal hit or a cell
    /// left for phase 1b to compile.
    fn prepare(
        &mut self,
        plan: &SweepPlan,
        index: usize,
        cell: &Cell,
        journal: Option<&Journal>,
    ) -> Result<Prepared, CompileError> {
        let machine = self.try_machine(cell.topology, plan.machine_seed(), cell.day)?;
        let spec = &plan.circuits()[cell.circuit];
        let config = &plan.configs()[cell.config].1;
        let key = journal.map(|_| CellKey {
            circuit_fp: spec.circuit.fingerprint(),
            machine_fp: machine.fingerprint(),
            config_fp: config.fingerprint(),
            day: cell.day,
            noise: cell.noise.map(|n| plan.noise_axis()[n].0.clone()),
            sim_seed: cell.sim_seed,
            trials: plan.trials(),
        });
        if let (Some(journal), Some(key)) = (journal, &key) {
            if let Some(hit) = journal.lookup(key) {
                return Ok(Prepared::Replayed(hit.clone()));
            }
        }
        Ok(Prepared::Pending(Pending {
            index,
            machine,
            key,
        }))
    }

    /// Phase 1b: resolves the pending cells (in plan order) through the
    /// full-compile cache and compiles each missing key once, across the
    /// pool. Compiles are pure functions of their key, so the results
    /// equal a serial run's.
    ///
    /// Returns the longest plan-order prefix of `pending` that compiled,
    /// and the error that ended it, if one did rather than the deadline.
    /// Only that prefix counts as compile requests and enters the cache.
    fn compile_pending(
        &mut self,
        plan: &SweepPlan,
        cells: &[Cell],
        pending: Vec<Pending>,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> (Vec<Job>, Option<CompileError>) {
        let inputs = |cell: &Pending| {
            let cell = &cells[cell.index];
            (
                &plan.circuits()[cell.circuit].circuit,
                &plan.configs()[cell.config].1,
            )
        };
        // Where each pending cell's executable comes from: `Ok` from the
        // cache, `Err(unit)` from the unit compiling its key (one unit per
        // missing key, in plan order of first use).
        let mut units: Vec<Unit> = Vec::new();
        let mut sources: Vec<Result<Arc<CompiledCircuit>, usize>> = Vec::new();
        let mut unit_of: FxHashMap<CompileKey, usize> = FxHashMap::default();
        let mut placements: FxHashSet<CompileKey> = FxHashSet::default();
        for (position, cell) in pending.iter().enumerate() {
            let (circuit, config) = inputs(cell);
            let key = compile_key(&cell.machine, config, circuit);
            if let Some(hit) = self.compiled.get(&key) {
                sources.push(Ok(hit.clone()));
                continue;
            }
            let unit = *unit_of.entry(key).or_insert_with(|| {
                // The placement cache keys calibration-unaware configs on
                // the topology alone, so several units can share one
                // placement. Its first unit compiles in the first wave and
                // the rest in the second, where they hit the cache: the
                // placement counters then match a serial run's.
                let machine_part = if config.calibration_aware() {
                    cell.machine.fingerprint()
                } else {
                    cell.machine.topology().fingerprint()
                };
                let placement = (circuit.fingerprint(), machine_part, config.fingerprint());
                units.push(Unit {
                    cell: position,
                    key,
                    second_wave: !placements.insert(placement),
                });
                units.len() - 1
            });
            sources.push(Err(unit));
        }

        // Compiles start in plan order within a wave and check the
        // deadline as they start (the first pending cell's excepted), so
        // the ones that ran form a plan-order prefix of the wave. A wave
        // only runs units before the first one that did not compile.
        let compile = |unit: usize| -> Option<Result<CompiledCircuit, CompileError>> {
            let position = units[unit].cell;
            if position != 0 && expired() {
                return None;
            }
            let cell = &pending[position];
            let (circuit, config) = inputs(cell);
            Some(self.compile_uncached(&cell.machine, config, circuit))
        };
        let mut results: Vec<Option<Result<CompiledCircuit, CompileError>>> =
            (0..units.len()).map(|_| None).collect();
        // Position in `pending` of the first cell whose compile did not
        // succeed.
        let mut stop = pending.len();
        for second_wave in [false, true] {
            let wave: Vec<usize> = (0..units.len())
                .filter(|&u| units[u].second_wave == second_wave && units[u].cell < stop)
                .collect();
            let compiled: Vec<_> = self
                .pool
                .install(|| wave.into_par_iter().map(|u| (u, compile(u))).collect());
            for (unit, result) in compiled {
                if !matches!(result, Some(Ok(_))) {
                    stop = stop.min(units[unit].cell);
                }
                results[unit] = result;
            }
        }

        // Keep the prefix before `stop`, caching its compiles and counting
        // its requests; a compile error also counts the request that failed.
        let mut error = None;
        let executables: Vec<Option<Arc<CompiledCircuit>>> = units
            .iter()
            .zip(results)
            .map(|(unit, result)| match result {
                Some(Ok(compiled)) if unit.cell < stop => {
                    let compiled = Arc::new(compiled);
                    self.compiled.insert(unit.key, compiled.clone());
                    Some(compiled)
                }
                Some(Err(e)) if unit.cell == stop => {
                    error = Some(e);
                    None
                }
                _ => None,
            })
            .collect();
        self.compile_requests += u64::from(error.is_some());
        let mut jobs = Vec::with_capacity(stop);
        for (position, (cell, source)) in pending.into_iter().zip(sources).take(stop).enumerate() {
            let (executable, cache_hit) = match source {
                Ok(hit) => (hit, true),
                Err(unit) => (
                    executables[unit]
                        .clone()
                        .expect("units before the stop compiled"),
                    units[unit].cell != position,
                ),
            };
            self.compile_requests += 1;
            self.compile_hits += u64::from(cache_hit);
            jobs.push(Job {
                index: cell.index,
                machine: cell.machine,
                executable,
                cache_hit,
                key: cell.key,
            });
        }
        (jobs, error)
    }
}

/// The full-compile cache key of a compile.
fn compile_key(machine: &Machine, config: &CompilerConfig, circuit: &Circuit) -> CompileKey {
    (
        circuit.fingerprint(),
        machine.fingerprint(),
        config.fingerprint(),
    )
}

/// A cell after phase 1a.
enum Prepared {
    /// Replayed verbatim from the journal.
    Replayed(CellRecord),
    /// Left for phase 1b to compile.
    Pending(Pending),
}

/// A cell waiting for phase 1b to compile it.
struct Pending {
    /// Position of the cell in plan order.
    index: usize,
    machine: Arc<Machine>,
    /// The cell's journal key; `Some` exactly when the run is journaled.
    key: Option<CellKey>,
}

/// One compile of a key the full-compile cache misses.
struct Unit {
    /// Position in the pending cells of the first cell with this key.
    cell: usize,
    key: CompileKey,
    /// Whether a unit earlier in plan order shares this one's placement.
    second_wave: bool,
}

/// A compiled cell waiting for phase 2.
struct Job {
    /// Position of the cell in plan order.
    index: usize,
    machine: Arc<Machine>,
    executable: Arc<CompiledCircuit>,
    cache_hit: bool,
    /// The cell's journal key; `Some` exactly when the run is journaled.
    key: Option<CellKey>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Builds the report record for one executed cell.
fn cell_record(
    plan: &SweepPlan,
    cell: &Cell,
    executable: &CompiledCircuit,
    cache_hit: bool,
    trials: u32,
    success_rate: Option<f64>,
    tiers: TierStats,
) -> CellRecord {
    let spec = &plan.circuits()[cell.circuit];
    // Timings are rounded to the JSON precision (3 decimals) so
    // serializing a report round-trips bit-exactly.
    let round3 = |v: f64| (v * 1e3).round() / 1e3;
    let place_us = executable
        .pass_timings()
        .iter()
        .find(|t| t.pass == "place")
        .map_or(0.0, |t| round3(t.elapsed.as_secs_f64() * 1e6));
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
        success_rate,
        estimated_reliability: executable.estimated_reliability(),
        duration_slots: executable.duration_slots(),
        swap_count: executable.swap_count(),
        hardware_cnots: executable.hardware_cnot_count(),
        compile_ms: round3(executable.compile_time().as_secs_f64() * 1e3),
        place_us,
        cache_hit,
        tiers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CircuitSpec;
    use nisq_ir::Benchmark;

    #[test]
    fn run_scores_success_and_counts_caches() {
        let mut session = Session::new();
        let plan = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Hs2])
            .config("Qiskit", CompilerConfig::qiskit())
            .config("GreedyE*", CompilerConfig::greedy_e())
            .with_trials(128)
            .fixed_sim_seed(7);
        let report = session.run(&plan).unwrap();
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            let rate = cell.success();
            assert!(
                rate > 0.0 && rate <= 1.0,
                "{}/{}: {rate}",
                cell.circuit,
                cell.config
            );
            assert!(!cell.cache_hit);
        }
        assert_eq!(report.cache.compile_requests, 4);
        assert_eq!(report.cache.compile_hits, 0);
        assert_eq!(report.cache.place_runs, 4);

        // The same plan again is answered entirely from the compile cache.
        let again = session.run(&plan).unwrap();
        assert_eq!(again.cache.compile_hits, 4);
        assert!(again.cells.iter().all(|c| c.cache_hit));
        for (a, b) in report.cells.iter().zip(again.cells.iter()) {
            assert_eq!(a.success_rate, b.success_rate, "fixed seeds must reproduce");
            assert_eq!(a.estimated_reliability, b.estimated_reliability);
        }
    }

    #[test]
    fn thread_count_does_not_change_batch_results() {
        let plan = SweepPlan::new()
            .benchmarks(Benchmark::representative())
            .config("GreedyV*", CompilerConfig::greedy_v())
            .days([0, 1])
            .with_trials(96);
        let serial = Session::new().with_threads(1).run(&plan).unwrap();
        let parallel = Session::new().with_threads(7).run(&plan).unwrap();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(parallel.cells.iter()) {
            // Wall-clock fields (compile_ms, place_us) vary run to run;
            // everything observable must not.
            assert_eq!(a.success_rate, b.success_rate, "{}/{}", a.circuit, a.day);
            assert_eq!(a.estimated_reliability, b.estimated_reliability);
            assert_eq!(a.sim_seed, b.sim_seed);
            assert_eq!(
                (a.duration_slots, a.swap_count, a.hardware_cnots),
                (b.duration_slots, b.swap_count, b.hardware_cnots)
            );
        }
    }

    #[test]
    fn compile_only_plans_skip_simulation() {
        let mut session = Session::new();
        let plan = SweepPlan::new()
            .benchmark(Benchmark::Toffoli)
            .table1_configs();
        let report = session.run(&plan).unwrap();
        assert_eq!(report.cells.len(), 6);
        assert!(report.cells.iter().all(|c| c.success_rate.is_none()));
        assert!(report.cells.iter().all(|c| c.duration_slots > 0));
    }

    #[test]
    fn circuits_without_expected_output_are_not_scored() {
        let mut session = Session::new();
        let mut ghz = Circuit::new(3);
        ghz.h(nisq_ir::Qubit(0));
        ghz.cnot(nisq_ir::Qubit(0), nisq_ir::Qubit(1));
        ghz.cnot(nisq_ir::Qubit(1), nisq_ir::Qubit(2));
        ghz.measure_all();
        let plan = SweepPlan::new()
            .circuit(CircuitSpec::new("ghz", ghz))
            .config("GreedyE*", CompilerConfig::greedy_e())
            .with_trials(64);
        let report = session.run(&plan).unwrap();
        assert_eq!(report.cells[0].success_rate, None);
        assert_eq!(report.cells[0].trials, 64);
    }

    #[test]
    fn controlled_run_matches_parallel_run_canonically() {
        let plan = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Hs2])
            .config("Qiskit", CompilerConfig::qiskit())
            .config("GreedyE*", CompilerConfig::greedy_e())
            .days([0, 1])
            .with_trials(64);
        let reference = Session::new().with_threads(1).run(&plan).unwrap();
        for threads in [1, 4] {
            let run = Session::new().with_threads(threads).run(&plan).unwrap();
            assert_eq!(run.canonicalized(), reference.canonicalized());
            let outcome = Session::new()
                .with_threads(threads)
                .run_controlled(&plan, &RunControl::unbounded())
                .unwrap();
            assert!(outcome.completed);
            assert_eq!(outcome.cells_total, reference.cells.len());
            assert_eq!(
                outcome.report.canonicalized(),
                reference.canonicalized(),
                "controlled and plain runs must agree on everything observable"
            );
        }
    }

    #[test]
    fn controlled_run_stops_at_an_expired_deadline() {
        let plan = SweepPlan::new()
            .benchmarks([Benchmark::Bv4, Benchmark::Hs2])
            .config("GreedyE*", CompilerConfig::greedy_e())
            .with_trials(32);
        let control = RunControl::unbounded().with_deadline(Instant::now());
        let outcome = Session::new().run_controlled(&plan, &control).unwrap();
        assert!(!outcome.completed);
        assert_eq!(outcome.report.cells.len(), 0);
        assert_eq!(outcome.cells_total, 2);
    }

    #[test]
    fn try_machine_rejects_degenerate_specs_without_caching() {
        let mut session = Session::new();
        assert!(session
            .try_machine(TopologySpec::Ring { n: 2 }, 1, 0)
            .is_err());
        let ok = session
            .try_machine(TopologySpec::Ring { n: 4 }, 1, 0)
            .unwrap();
        let again = session
            .try_machine(TopologySpec::Ring { n: 4 }, 1, 0)
            .unwrap();
        assert!(Arc::ptr_eq(&ok, &again));
    }

    #[test]
    fn machines_are_shared_snapshots() {
        let mut session = Session::new();
        let a = session.machine(TopologySpec::Ibmq16, 2019, 0);
        let b = session.machine(TopologySpec::Ibmq16, 2019, 0);
        assert!(Arc::ptr_eq(&a, &b));
        let c = session.machine(TopologySpec::Ibmq16, 2019, 1);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
