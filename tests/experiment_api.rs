//! Integration tests of the experiment API's caching contract:
//!
//! * the full-compile cache hits on identical `(circuit, machine-day,
//!   config)` triples and misses when any component changes,
//! * cached compiles are bit-identical to cold compiles — including when
//!   only the *placement* came from the pass-level cache,
//! * a fig6-style day sweep over the Table-1 configurations shows cache
//!   hits and strictly fewer placement-pass invocations than compiles (the
//!   ROADMAP's pass-level-caching item),
//! * a run cut by its deadline mid-compile still reports what it compiled.

use nisq::exp::RunOutcome;
use nisq::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 2019;

fn machine(day: usize) -> Arc<Machine> {
    Arc::new(Machine::ibmq16_on_day(SEED, day))
}

/// Asserts two compiled circuits are bit-identical in every observable
/// artifact (placement, schedule metrics, physical gates, reliability bits,
/// emitted OpenQASM).
fn assert_identical(a: &CompiledCircuit, b: &CompiledCircuit, what: &str) {
    assert_eq!(
        a.placement().as_slice(),
        b.placement().as_slice(),
        "{what}: placement"
    );
    assert_eq!(a.swap_count(), b.swap_count(), "{what}: swaps");
    assert_eq!(a.duration_slots(), b.duration_slots(), "{what}: makespan");
    assert_eq!(
        a.physical_circuit(),
        b.physical_circuit(),
        "{what}: physical circuit"
    );
    assert_eq!(
        a.estimated_reliability().to_bits(),
        b.estimated_reliability().to_bits(),
        "{what}: reliability bits"
    );
    assert_eq!(a.qasm(), b.qasm(), "{what}: OpenQASM");
}

#[test]
fn compile_cache_hits_on_identical_triples() {
    let mut session = Session::new();
    let m = session.machine(TopologySpec::Ibmq16, SEED, 0);
    let config = CompilerConfig::greedy_e();
    let circuit = Benchmark::Toffoli.circuit();

    let first = session.compile(&m, &config, &circuit).unwrap();
    let second = session.compile(&m, &config, &circuit).unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "second compile must be served from cache"
    );
    let stats = session.cache_stats();
    assert_eq!(stats.compile_requests, 2);
    assert_eq!(stats.compile_hits, 1);
}

#[test]
fn compile_cache_misses_across_days_and_configs() {
    let mut session = Session::new();
    let day0 = session.machine(TopologySpec::Ibmq16, SEED, 0);
    let day3 = session.machine(TopologySpec::Ibmq16, SEED, 3);
    let circuit = Benchmark::Bv8.circuit();

    let a = session
        .compile(&day0, &CompilerConfig::greedy_e(), &circuit)
        .unwrap();
    let b = session
        .compile(&day3, &CompilerConfig::greedy_e(), &circuit)
        .unwrap();
    let c = session
        .compile(&day0, &CompilerConfig::greedy_v(), &circuit)
        .unwrap();
    assert!(
        !Arc::ptr_eq(&a, &b),
        "different days must not share a compile"
    );
    assert!(
        !Arc::ptr_eq(&a, &c),
        "different configs must not share a compile"
    );
    assert_eq!(session.cache_stats().compile_hits, 0);

    // Different omegas are different configs too.
    let w5 = session
        .compile(&day0, &CompilerConfig::r_smt_star(0.5), &circuit)
        .unwrap();
    let w9 = session
        .compile(&day0, &CompilerConfig::r_smt_star(0.9), &circuit)
        .unwrap();
    assert!(!Arc::ptr_eq(&w5, &w9));
    assert_eq!(session.cache_stats().compile_hits, 0);
}

#[test]
fn cached_compiles_are_bit_identical_to_cold_compiles() {
    let m = machine(0);
    for config in CompilerConfig::table1() {
        let mut session = Session::new();
        let label = config.algorithm.name();
        for b in [Benchmark::Bv4, Benchmark::Toffoli, Benchmark::Adder] {
            let circuit = b.circuit();
            let cold = Compiler::new(&m, config).compile(&circuit).unwrap();
            let warm1 = session.compile(&m, &config, &circuit).unwrap();
            let warm2 = session.compile(&m, &config, &circuit).unwrap();
            assert_identical(&cold, &warm1, &format!("{label}/{b} cold vs miss"));
            assert_identical(&cold, &warm2, &format!("{label}/{b} cold vs hit"));
        }
    }
}

#[test]
fn placement_cache_reuse_across_days_is_exact_for_unaware_configs() {
    // Calibration-unaware configs key their placement on the topology
    // alone, so a day sweep reuses the day-0 placement. The full compile
    // for the new day must still be bit-identical to a cold compile on
    // that day (schedule and estimate see the new calibration).
    let mut session = Session::new();
    for config in [
        CompilerConfig::qiskit(),
        CompilerConfig::t_smt(RouteSelection::RectangleReservation),
    ] {
        let circuit = Benchmark::Hs6.circuit();
        let day0 = session.machine(TopologySpec::Ibmq16, SEED, 0);
        let day4 = session.machine(TopologySpec::Ibmq16, SEED, 4);
        session.compile(&day0, &config, &circuit).unwrap();
        let place_hits_before = session.cache_stats().place_hits;
        let warm = session.compile(&day4, &config, &circuit).unwrap();
        assert!(
            session.cache_stats().place_hits > place_hits_before,
            "{config}: day-4 compile should reuse the day-0 placement"
        );
        let cold = Compiler::new(&machine(4), config)
            .compile(&circuit)
            .unwrap();
        assert_identical(&cold, &warm, &format!("{config} day-4"));
    }
}

#[test]
fn day_sweep_shows_cache_hits_and_fewer_placement_passes() {
    // The acceptance shape: a fig6-style day sweep over the Table-1
    // configurations. Calibration-unaware placements are computed once,
    // not once per day, so placement passes < compiles and hits > 0.
    // Compiles run in parallel, yet every counter matches a serial run.
    let days = 4usize;
    let plan = SweepPlan::new()
        .benchmarks(Benchmark::representative())
        .table1_configs()
        .days(0..days);
    let report = Session::new().with_threads(1).run(&plan).unwrap();
    let parallel = Session::new().with_threads(4).run(&plan).unwrap();
    assert_eq!(parallel.cache, report.cache);
    assert_eq!(parallel.canonicalized(), report.canonicalized());

    assert_eq!(report.cells.len(), 3 * 6 * days);
    assert_eq!(report.cache.compile_requests as usize, report.cells.len());
    assert!(
        report.cache.total_hits() > 0,
        "a day sweep must produce cache hits, got {:?}",
        report.cache
    );
    assert!(
        report.cache.place_runs < report.cache.compile_requests,
        "placement passes ({}) must be strictly fewer than compiles ({})",
        report.cache.place_runs,
        report.cache.compile_requests
    );
    // Two of six Table-1 configs are calibration-unaware; their placements
    // for days 1.. are all placement-cache hits.
    assert_eq!(report.cache.place_hits as usize, 3 * 2 * (days - 1));
}

#[test]
fn an_unaware_placement_runs_once_across_days_at_any_thread_count() {
    // Every day's compile misses the full-compile cache, and all eight
    // share one topology-keyed placement: only the first may run it, even
    // when four threads start compiling at once.
    let plan = SweepPlan::new()
        .benchmark(Benchmark::Adder)
        .config(
            "T-SMT",
            CompilerConfig::t_smt(RouteSelection::RectangleReservation),
        )
        .days(0..8);
    for threads in [1, 4] {
        let report = Session::new().with_threads(threads).run(&plan).unwrap();
        assert_eq!(
            (report.cache.place_runs, report.cache.place_hits),
            (1, 7),
            "{threads} threads"
        );
    }
}

#[test]
fn a_config_listed_twice_compiles_once_at_any_thread_count() {
    let plan = SweepPlan::new()
        .benchmarks([Benchmark::Bv4, Benchmark::Toffoli])
        .config("GreedyE*", CompilerConfig::greedy_e())
        .config("GreedyE* again", CompilerConfig::greedy_e())
        .days([0, 1]);
    let serial = Session::new().with_threads(1).run(&plan).unwrap();
    let parallel = Session::new().with_threads(4).run(&plan).unwrap();
    assert_eq!(serial.cache.compile_requests, 8);
    assert_eq!(serial.cache.compile_hits, 4);
    assert_eq!(parallel.cache, serial.cache);
    for report in [&serial, &parallel] {
        for cell in &report.cells {
            assert_eq!(cell.cache_hit, cell.config == "GreedyE* again");
        }
    }
}

#[test]
fn executed_reports_round_trip_through_json() {
    let plan = SweepPlan::new()
        .benchmarks([Benchmark::Bv4, Benchmark::Hs2])
        .config("Qiskit", CompilerConfig::qiskit())
        .config("GreedyE*", CompilerConfig::greedy_e())
        .days([0, 2])
        .with_trials(64);
    let report = Session::new().run(&plan).unwrap();
    let parsed = Report::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(parsed.cells.len(), 2 * 2 * 2);
    assert!(parsed.cells.iter().all(|c| c.success_rate.is_some()));
}

#[test]
fn session_sweep_matches_direct_compile_and_simulate() {
    // The declarative path must reproduce exactly what the hand-rolled
    // compile-then-simulate loop measures for the same seeds.
    let b = Benchmark::Peres;
    let config = CompilerConfig::r_smt_star(0.5);
    let m = machine(0);
    let compiled = Compiler::new(&m, config).compile(&b.circuit()).unwrap();
    let direct = Simulator::new(&m, SimulatorConfig::with_trials(512, 99))
        .success_rate(&compiled, &b.expected_output());

    let plan = SweepPlan::new()
        .benchmark(b)
        .config("R-SMT*", config)
        .with_trials(512)
        .fixed_sim_seed(99);
    let report = Session::new().run(&plan).unwrap();
    assert_eq!(report.require("Peres", "R-SMT*", 0).success(), direct);
}

#[test]
fn run_reports_a_degenerate_topology_as_a_typed_error() {
    let plan = SweepPlan::new()
        .benchmark(Benchmark::Bv4)
        .topology(TopologySpec::Ring { n: 2 })
        .config("GreedyE*", CompilerConfig::greedy_e());
    assert!(matches!(
        Session::new().run(&plan),
        Err(nisq::compiler::CompileError::Machine(_))
    ));
}

/// Cells of [`compile_bound_plan`]: one per calibration day.
const COMPILE_BOUND_CELLS: usize = 48;

/// A plan whose compiles dominate: R-SMT* places BV8 afresh for every
/// calibration day, about 25 ms per cell on a release build. On the 4
/// threads of [`run_until`] the compiles need at least 48 / 4 × 25 ms =
/// 300 ms, five times the 60 ms deadline, so a deadline lands mid-compile
/// however many cores the host has free.
fn compile_bound_plan(trials: u32) -> SweepPlan {
    SweepPlan::new()
        .benchmark(Benchmark::Bv8)
        .config("R-SMT*", CompilerConfig::r_smt_star(0.5))
        .days(0..COMPILE_BOUND_CELLS)
        .with_trials(trials)
}

fn run_until(plan: &SweepPlan, budget: Duration) -> RunOutcome {
    let control = RunControl::unbounded().with_deadline(Instant::now() + budget);
    Session::new()
        .with_threads(4)
        .run_controlled(plan, &control)
        .unwrap()
}

#[test]
fn a_deadline_mid_compile_keeps_every_compiled_cell_of_a_compile_only_plan() {
    let outcome = run_until(&compile_bound_plan(0), Duration::from_millis(60));
    assert!(!outcome.completed);
    let reported = outcome.report.cells.len();
    assert!(
        (1..COMPILE_BOUND_CELLS).contains(&reported),
        "{reported}/{COMPILE_BOUND_CELLS}"
    );
    assert_eq!(outcome.report.cache.compile_requests, reported as u64);
}

#[test]
fn a_deadline_mid_compile_still_finishes_the_first_simulated_cell() {
    let plan = compile_bound_plan(64);
    let outcome = run_until(&plan, Duration::from_millis(60));
    assert!(!outcome.completed);
    let reported = outcome.report.cells.len();
    assert!(
        (1..COMPILE_BOUND_CELLS).contains(&reported),
        "{reported}/{COMPILE_BOUND_CELLS}"
    );
    assert!(outcome.report.cells[0].success_rate.is_some());
    let reference = Session::new().run(&plan).unwrap();
    assert_eq!(
        outcome.report.canonicalized().cells,
        reference.canonicalized().cells[..reported]
    );
}
