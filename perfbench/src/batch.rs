//! The batch workloads: whole sweeps through `Session::run`, each on a
//! fresh session as `nisqc sweep` runs them, and their traced re-drive.

use crate::layers::{
    mismatched_cells, push_layer_metrics, session_threads, LayerCounts, TracedSession, TracedUnit,
};
use crate::output::{Checks, Metrics, SERVE_ONLY};
use crate::stats::{self, median, quantile, ratio};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Golden, Size, Workload};
use nisq_exp::{BackendTag, Report, Session, SweepPlan};
use std::time::{Duration, Instant};

/// Time a run spends repeating its set-up after each sweep; `setup_s` is
/// the median of all repetitions. Spreading them over the run matters:
/// medians of blocks taken at one moment swing between ~85 and ~150 us
/// with whatever core and clock the thread happens to get.
const SETUP_SLICE: Duration = Duration::from_millis(10);

/// Trial-stream variants a run cycles through (see
/// [`workloads::trial_streams`]).
const TRIAL_STREAMS: usize = 8;

/// One sweep as its user runs it: a fresh session, every plan, and the
/// encoded report of each.
fn sweep(plans: &[SweepPlan]) -> Vec<Report> {
    let mut session = Session::new();
    plans
        .iter()
        .map(|plan| {
            let report = session.run(plan).expect("benchmark plans compile");
            std::hint::black_box(report.to_json());
            report
        })
        .collect()
}

/// The sweeps of one run: the plans, their trial streams, the first
/// report of each stream (which later sweeps of it must reproduce), and
/// the checks.
struct Sweeps {
    workload: Workload,
    golden: Golden,
    golden_cells: usize,
    plans: Vec<SweepPlan>,
    streams: Vec<u64>,
    references: Vec<Option<Vec<Report>>>,
    next: usize,
    checks: Checks,
}

impl Sweeps {
    /// Builds the inputs.
    fn setup(workload: Workload, seed: u64, size: Size) -> Sweeps {
        let plans = workloads::batch_plans(workload, seed, size);
        let count = if size == Size::Tiny { 2 } else { TRIAL_STREAMS };
        let streams = workloads::trial_streams(workload, seed, count);
        // Counted from the plan's axes, not its labels, so a change of
        // label or name format cannot make the golden check vacuous.
        let golden_cells = match workload {
            Workload::PaperSweep => plans
                .iter()
                .map(|p| {
                    let days = p
                        .day_axis()
                        .iter()
                        .filter(|d| nisq_bench::GOLDEN_DAYS.contains(d))
                        .count();
                    p.circuits().len() * p.configs().len() * days
                })
                .sum(),
            _ => 0,
        };
        Sweeps {
            workload,
            golden: workloads::golden(),
            golden_cells,
            references: vec![None; streams.len()],
            plans,
            streams,
            next: 0,
            checks: Checks::default(),
        }
    }

    /// Repeats the set-up (building the inputs and a fresh session) for
    /// `budget`, at least once, appending each repetition's seconds.
    fn time_setup(&self, seed: u64, size: Size, budget: Duration, times: &mut Vec<f64>) {
        let started = Instant::now();
        loop {
            let start = Instant::now();
            let plans = workloads::batch_plans(self.workload, seed, size);
            std::hint::black_box(workloads::trial_streams(
                self.workload,
                seed,
                self.streams.len(),
            ));
            std::hint::black_box(Session::new());
            std::hint::black_box(plans);
            times.push(start.elapsed().as_secs_f64());
            if started.elapsed() >= budget {
                return;
            }
        }
    }

    /// Runs the plans on the next trial stream, untraced, and checks the
    /// output; returns the plans run, their reports and the sweep's wall
    /// time.
    fn run_next(&mut self) -> (Vec<SweepPlan>, Vec<Report>, Duration) {
        let stream = self.next % self.streams.len();
        self.next += 1;
        let plans = workloads::with_trial_stream(&self.plans, self.streams[stream]);
        let start = Instant::now();
        let reports = sweep(&plans);
        let wall = start.elapsed();
        let reference = self.references[stream].get_or_insert_with(|| reports.clone());
        check(
            self.workload,
            &self.golden,
            self.golden_cells,
            reference,
            &reports,
            &mut self.checks,
        );
        (plans, reports, wall)
    }
}

/// Checks one sweep's reports against the workload's expectations and
/// against the first sweep of the run. `golden_cells` of the sweep's cells
/// must be found in `golden` and match it.
fn check(
    workload: Workload,
    golden: &Golden,
    golden_cells: usize,
    reference: &[Report],
    reports: &[Report],
    checks: &mut Checks,
) {
    for (expected, actual) in reference.iter().zip(reports) {
        checks.cells(
            actual.cells.len() as u64,
            mismatched_cells(expected, actual),
        );
    }
    let mut golden_compared = 0;
    for cell in reports.iter().flat_map(|r| &r.cells) {
        let label = format!(
            "{}/{}/{}/day {}",
            workload.name(),
            cell.circuit,
            cell.config,
            cell.day
        );
        if cell.success_rate.is_some() && cell.tiers.total() != u64::from(cell.trials) {
            checks.fail(format!(
                "{label}: tiers served {} of {} trials",
                cell.tiers.total(),
                cell.trials
            ));
        }
        match workload {
            Workload::PaperSweep => {
                if let Some(want) =
                    golden.get(&(cell.config.clone(), cell.circuit.clone(), cell.day))
                {
                    golden_compared += 1;
                    let got = (
                        cell.swap_count,
                        cell.duration_slots,
                        cell.hardware_cnots,
                        cell.estimated_reliability.to_bits(),
                    );
                    if got != *want {
                        checks.fail(format!("{label}: compiled {got:?}, golden {want:?}"));
                    }
                }
            }
            // Clifford circuits must take the tableau backend.
            Workload::WideDevices
                if cell.success_rate.is_some() && cell.tiers.backend != BackendTag::Tableau =>
            {
                checks.fail(format!(
                    "{label}: ran on {} not tableau",
                    cell.tiers.backend
                ));
            }
            Workload::DenseTrials => {
                if cell.tiers.backend != BackendTag::Dense {
                    checks.fail(format!("{label}: ran on {} not dense", cell.tiers.backend));
                }
                if cell.noise.is_some() && cell.tiers.full_replay != u64::from(cell.trials) {
                    checks.fail(format!(
                        "{label}: amplitude damping did not force full replay"
                    ));
                }
            }
            _ => {}
        }
    }
    if golden_compared < golden_cells {
        checks.fail(format!(
            "{}: only {golden_compared} of {golden_cells} golden cells were compared",
            workload.name()
        ));
    }
}

/// The end-to-end run: sweeps back to back for `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64, size: Size) -> (Metrics, Checks) {
    let mut sweeps = Sweeps::setup(workload, seed, size);
    let mut setup_times = Vec::new();
    // One unmeasured sweep fills the allocator and page cache.
    sweeps.run_next();

    let mut latencies = Vec::new();
    let mut cells = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while latencies.is_empty() || Instant::now() < deadline {
        let (_, reports, wall) = sweeps.run_next();
        latencies.push(stats::ms(wall));
        cells += reports.iter().map(|r| r.cells.len() as u64).sum::<u64>();
        sweeps.time_setup(seed, size, SETUP_SLICE, &mut setup_times);
    }

    let n = latencies.len();
    let sweep_s = latencies.iter().sum::<f64>() / 1e3;
    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_times), "s", setup_times.len());
    m.push("latency_ms.p50", median(&latencies), "ms", n);
    m.push("cells_per_s", cells as f64 / sweep_s, "1/s", n);
    m.push(
        "peak_rss_mb",
        stats::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
        1,
    );
    m.note(format!(
        "sweep_s.p50 = {:.6} s, sweep_s.p99 = {:.6} s (n={n} sweeps)",
        median(&latencies) / 1e3,
        quantile(&latencies, 0.99) / 1e3
    ));
    m.note(format!(
        "sweep_ms quartiles: {:.3} / {:.3} / {:.3}",
        quantile(&latencies, 0.25),
        median(&latencies),
        quantile(&latencies, 0.75)
    ));
    (m, sweeps.checks)
}

/// The traced run: untraced sweeps and traced re-drives of the same plans
/// alternate for `seconds`; per-layer figures are per-sweep medians over
/// the traced sweeps.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    tracer: &Tracer,
) -> (Metrics, Checks) {
    let mut sweeps = Sweeps::setup(workload, seed, size);
    sweeps.run_next();

    let mut untraced = Vec::new();
    let mut cpu_s = 0.0;
    let mut roots = Vec::new();
    let mut units = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while units.len() < 3 || Instant::now() < deadline {
        let cpu_before = stats::cpu_seconds("self");
        let (plans, reports, wall) = sweeps.run_next();
        untraced.push(stats::ms(wall));
        cpu_s += stats::cpu_seconds("self") - cpu_before;

        let root = tracer.open("sweep", None, units.len() as u64);
        let start = Instant::now();
        let mut session = TracedSession::new(session_threads());
        let traced: Vec<Report> = plans
            .iter()
            .map(|plan| {
                session
                    .run(tracer, root, plan)
                    .expect("benchmark plans compile")
            })
            .collect();
        let wall_ms = stats::ms(start.elapsed());
        tracer.close(root);
        // The traced run must compute exactly what the untraced one did.
        for (expected, actual) in reports.iter().zip(&traced) {
            sweeps.checks.cells(
                actual.cells.len() as u64,
                mismatched_cells(expected, actual),
            );
        }
        roots.push(root);
        units.push(TracedUnit {
            counts: session.take_counts(),
            wall_ms,
            ..TracedUnit::default()
        });
    }
    let by_root = trace::self_ms_by_root(&tracer.spans());
    for (unit, root) in units.iter_mut().zip(&roots) {
        unit.self_ms = by_root.get(root).cloned().unwrap_or_default();
    }

    let n = units.len();
    let over = |f: fn(&LayerCounts) -> f64| {
        median(&units.iter().map(|u| f(&u.counts)).collect::<Vec<_>>())
    };
    let mut m = Metrics::default();
    push_layer_metrics(&mut m, &units, median);
    m.push(
        "compile.cache_hit_ratio",
        over(|c| ratio(c.compile_hits as f64, c.compile_requests as f64)),
        "ratio",
        n,
    );
    m.push(
        "compile.cache_lookups",
        over(|c| c.compile_requests as f64),
        "count",
        n,
    );
    m.push(
        "place.cache_hit_ratio",
        over(|c| ratio(c.place_hits as f64, c.place_lookups as f64)),
        "ratio",
        n,
    );
    m.push(
        "place.cache_lookups",
        over(|c| c.place_lookups as f64),
        "count",
        n,
    );
    let untraced_ms = median(&untraced);
    m.push(
        "host.cores_busy",
        ratio(cpu_s, untraced.iter().sum::<f64>() / 1e3),
        "ratio",
        untraced.len(),
    );
    m.push(
        "trace.overhead_ratio",
        ratio(
            median(&units.iter().map(|u| u.wall_ms).collect::<Vec<_>>()),
            untraced_ms,
        ),
        "ratio",
        n,
    );
    m.push("trace.untraced_ms", untraced_ms, "ms", untraced.len());
    m.not_exercised(SERVE_ONLY);
    (m, sweeps.checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_golden_check_fails_when_no_golden_cell_is_found() {
        let mut sweeps = Sweeps::setup(Workload::PaperSweep, 1, Size::Tiny);
        assert_eq!(sweeps.golden_cells, 12);
        let (_, reports, _) = sweeps.run_next();
        assert_eq!(sweeps.checks.failed, 0, "{:?}", sweeps.checks.messages);

        let mut checks = Checks::default();
        check(
            Workload::PaperSweep,
            &Golden::new(),
            sweeps.golden_cells,
            &reports,
            &reports,
            &mut checks,
        );
        assert_eq!(checks.failed, 1);
        assert!(checks.messages[0].contains("only 0 of 12 golden cells"));
    }
}
