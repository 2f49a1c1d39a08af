//! Seeded inputs of the four workloads. Everything a run feeds the
//! program — days, simulation seeds, random circuits, hidden strings, the
//! serve request mix — derives from the workload seed, and the same seed
//! always yields the same inputs.

use nisq_core::CompilerConfig;
use nisq_exp::{CircuitSpec, NoiseSpec, SweepPlan};
use nisq_ir::{bernstein_vazirani, random_circuit, Benchmark, Circuit, Qubit, RandomCircuitConfig};
use std::collections::HashMap;

/// The workloads, by their fixed names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-2 benchmarks × Table-1 configs × calibration days on IBMQ16.
    PaperSweep,
    /// 48–128-qubit circuits on per-circuit grids under the greedy mappers.
    WideDevices,
    /// Non-Clifford circuits whose trials run on the dense engine.
    DenseTrials,
    /// A seeded hot / new-day / journaled request mix against `nisqc serve`.
    ServeMixed,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::WideDevices,
        Workload::DenseTrials,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::WideDevices => "wide_devices",
            Workload::DenseTrials => "dense_trials",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Resolves a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Salt mixed into the seed so two workloads given the same seed draw
    /// unrelated inputs.
    fn salt(self) -> u64 {
        match self {
            Workload::PaperSweep => 0x7061_7065_7200_0001,
            Workload::WideDevices => 0x7769_6465_0000_0002,
            Workload::DenseTrials => 0x6465_6e73_6500_0003,
            Workload::ServeMixed => 0x7365_7276_6500_0004,
        }
    }

    /// The generator for this workload's inputs under `seed`.
    pub fn rng(self, seed: u64) -> SplitMix64 {
        SplitMix64(seed ^ self.salt())
    }
}

/// Input scale: the measured size, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// A seconds-long version of every workload that exercises the same
    /// code paths, for the benchmark's self-test.
    Tiny,
}

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64 + 1) as usize);
        }
    }
}

/// The plans one batch sweep runs, in order, on one fresh session.
pub fn batch_plans(workload: Workload, seed: u64, size: Size) -> Vec<SweepPlan> {
    let mut rng = workload.rng(seed);
    let tiny = size == Size::Tiny;
    match workload {
        Workload::PaperSweep => {
            // Fixed days, two of them the golden days that anchor the output
            // check: R-SMT* solve time swings with the calibration, so
            // seeded days would make the sweep's cost depend on the seed.
            let benchmarks = if tiny {
                vec![Benchmark::Bv4, Benchmark::Toffoli]
            } else {
                Benchmark::all().to_vec()
            };
            vec![SweepPlan::new()
                .benchmarks(benchmarks)
                .table1_configs()
                .days(if tiny { vec![0] } else { PAPER_DAYS.to_vec() })
                .with_trials(if tiny { 64 } else { 4096 })]
        }
        Workload::WideDevices => {
            let (bv, ghz, rand) = if tiny {
                (vec![15], 8, vec![(16, 128)])
            } else {
                (vec![63, 127], 48, vec![(64, 1024), (128, 2048)])
            };
            let mut plan = SweepPlan::new();
            for n in bv {
                // A seeded hidden string with exactly half its bits set, so
                // the CNOT count, and with it the cost, is seed-invariant.
                let mut hidden: Vec<bool> = (0..n).map(|i| i < n / 2).collect();
                rng.shuffle(&mut hidden);
                let mut expected = hidden.clone();
                expected.push(true);
                plan = plan.circuit(
                    CircuitSpec::new(format!("BV{n}"), bernstein_vazirani(&hidden))
                        .with_expected(expected),
                );
            }
            plan = plan.circuit(
                CircuitSpec::new(format!("GHZ{ghz}"), ghz_ladder(ghz))
                    .with_expected(vec![false; ghz]),
            );
            // Compile-only: no expected output, so no trials.
            for (qubits, gates) in rand {
                plan = plan.circuit(CircuitSpec::new(
                    format!("rand{qubits}x{gates}"),
                    random_circuit(RandomCircuitConfig::new(qubits, gates, rng.next_u64())),
                ));
            }
            vec![plan
                .config("GreedyE*", CompilerConfig::greedy_e())
                .config("GreedyV*", CompilerConfig::greedy_v())
                .grid_per_circuit()
                // Fixed days: the day's error rates set how many trials
                // leave the cheap tiers.
                .days(if tiny { vec![0] } else { vec![0, 1] })
                .with_trials(if tiny { 64 } else { 1024 })]
        }
        Workload::DenseTrials => {
            let (benchmarks, rand) = if tiny {
                (vec![Benchmark::Toffoli], vec![(6, 40)])
            } else {
                (
                    vec![
                        Benchmark::Toffoli,
                        Benchmark::Fredkin,
                        Benchmark::Or,
                        Benchmark::Peres,
                        Benchmark::Adder,
                        Benchmark::Qft,
                    ],
                    vec![(12, 126), (14, 160)],
                )
            };
            let mut plan = SweepPlan::new().benchmarks(benchmarks);
            // Fixed random circuits and day: the dense cost of a 14-qubit
            // random circuit swings by a quarter between draws, and the
            // error rates of the day set the tier mix (see the README).
            for (qubits, gates) in rand {
                plan = plan.circuit(
                    CircuitSpec::new(
                        format!("rand{qubits}x{gates}"),
                        random_circuit(RandomCircuitConfig::new(qubits, gates, qubits as u64)),
                    )
                    .with_expected(vec![false; qubits]),
                );
            }
            let plan = plan
                // Greedy mappers only: R-SMT* needs seconds to place the
                // 14-qubit random circuit, which would make this workload
                // compile-bound (see the README).
                .config("GreedyE*", CompilerConfig::greedy_e())
                .config("GreedyV*", CompilerConfig::greedy_v())
                .days([DENSE_DAY])
                .with_trials(if tiny { 64 } else { DENSE_TRIALS });
            // Two noise points: the calibration-derived model alone, then
            // the same cells with amplitude damping on every measurement,
            // which forces dense full replay.
            let damped = plan.clone().with_noise("ad-measure", amplitude_damping());
            vec![plan, damped]
        }
        Workload::ServeMixed => unreachable!("serve_mixed is not a batch workload"),
    }
}

/// `count` trial-stream bases drawn from `seed`. A run cycles through
/// them (see [`with_trial_stream`]), so its median sweep averages over
/// several streams instead of resting on the cost of one.
pub fn trial_streams(workload: Workload, seed: u64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64(workload.rng(seed).next_u64() ^ 0x7472_6961_6c73);
    (0..count).map(|_| rng.next_u64() >> 1).collect()
}

/// `plans` with their per-day simulation seeds based at `stream`.
pub fn with_trial_stream(plans: &[SweepPlan], stream: u64) -> Vec<SweepPlan> {
    plans
        .iter()
        .map(|p| p.clone().per_day_sim_seed(stream))
        .collect()
}

/// Calibration days of `paper_sweep`: the golden days 0 and 3 and the
/// two between them.
pub const PAPER_DAYS: [usize; 4] = [0, 1, 2, 3];

/// Calibration day of `dense_trials`.
pub const DENSE_DAY: usize = 5;

/// Trials per cell of `dense_trials`.
pub const DENSE_TRIALS: u32 = 128;

/// A GHZ ladder: H on qubit 0, then a CNOT chain. All-zeros is one of its
/// two ideal outcomes, so it is the scored answer.
fn ghz_ladder(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.set_name(format!("ghz{n}"));
    c.h(Qubit(0));
    for q in 1..n {
        c.cnot(Qubit(q - 1), Qubit(q));
    }
    c.measure_all();
    c
}

/// Amplitude damping on every measurement: a non-Pauli channel, so every
/// trial of a cell bound to it replays in full on the dense engine.
fn amplitude_damping() -> NoiseSpec {
    NoiseSpec::from_json(
        r#"{"name": "ad-measure", "bindings": [
            {"on": "measure", "rate": 0.05, "channel": {"kind": "amplitude-damping"}}]}"#,
    )
    .expect("the amplitude-damping spec is valid")
}

/// One request class of `serve_mixed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// The fixed hot plan, answered from warm caches.
    Hot,
    /// An R-SMT* plan on a calibration day no request used before.
    NewDay,
    /// The hot plan, journaled under a fresh resume key.
    Journaled,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 3] = [Class::Hot, Class::NewDay, Class::Journaled];

    /// The class name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::NewDay => "new_day",
            Class::Journaled => "journaled",
        }
    }
}

/// One generated serve request.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// The request class.
    pub class: Class,
    /// The plan object, as the wire carries it.
    pub plan_json: String,
    /// The journal key, for journaled requests.
    pub resume_key: Option<String>,
}

impl ServeRequest {
    /// The full request line (without the trailing newline).
    pub fn line(&self, id: &str) -> String {
        let key = self
            .resume_key
            .as_ref()
            .map_or(String::new(), |k| format!(", \"resume_key\": \"{k}\""));
        format!(
            "{{\"op\": \"run\", \"id\": \"{id}\"{key}, \"plan\": {}}}",
            self.plan_json
        )
    }
}

/// The seeded request stream of one `serve_mixed` client. Streams of
/// different clients never share a new day or a resume key.
#[derive(Debug)]
pub struct ServeMix {
    rng: SplitMix64,
    client: usize,
    seed: u64,
    issued: u64,
    sim_seed: u64,
    trials: u32,
    new_day_base: u64,
}

impl ServeMix {
    /// The stream of client `client` under `seed`.
    pub fn new(seed: u64, client: usize, size: Size) -> Self {
        let mut shared = Workload::ServeMixed.rng(seed);
        let sim_seed = shared.next_u64() >> 1;
        let new_day_base = shared.range(1_000, 1_000_000) * 1_000;
        let mut rng = Workload::ServeMixed.rng(seed);
        for _ in 0..=client {
            rng = SplitMix64(rng.next_u64());
        }
        ServeMix {
            rng,
            client,
            seed,
            issued: 0,
            sim_seed,
            trials: if size == Size::Tiny { 32 } else { SERVE_TRIALS },
            new_day_base: new_day_base + client as u64 * 100_000_000,
        }
    }

    /// The hot plan object (shared by every client under one seed).
    pub fn hot_plan(&self) -> String {
        format!(
            "{{\"benchmarks\": \"bv6,hs4,toffoli,adder\", \"mappers\": \"greedy-e,r-smt-star\", \
             \"days\": [{}], \"trials\": {}, \"sim_seed\": {}}}",
            HOT_DAY, self.trials, self.sim_seed
        )
    }

    /// The next request of this client's stream. Each class is drawn with
    /// probability 1/3: no measurement of real serve traffic exists to
    /// weight them, so the shares are an assumption that favours no class,
    /// and the per-class figures stand on their own.
    pub fn next_request(&mut self) -> ServeRequest {
        let i = self.issued;
        self.issued += 1;
        let class = Class::ALL[self.rng.range(0, Class::ALL.len() as u64) as usize];
        let hot = self.hot_plan();
        match class {
            Class::Hot => ServeRequest {
                class,
                plan_json: hot,
                resume_key: None,
            },
            Class::NewDay => ServeRequest {
                class,
                plan_json: format!(
                    "{{\"benchmarks\": \"bv4,toffoli\", \"mappers\": \"r-smt-star\", \
                     \"days\": [{}], \"trials\": {}, \"sim_seed\": {}}}",
                    self.new_day_base + i,
                    self.trials,
                    self.sim_seed
                ),
                resume_key: None,
            },
            Class::Journaled => ServeRequest {
                class,
                plan_json: format!("{}, \"journal\": true}}", hot.trim_end_matches('}')),
                resume_key: Some(format!("perfbench-{}-{}-{i}", self.seed, self.client)),
            },
        }
    }
}

/// Calibration day of the hot plan. Fixed, as the batch workloads' days
/// are: the day's error rates set the tier mix of the hot plan's trials,
/// and with it the cost of every hot and journaled request.
pub const HOT_DAY: u64 = 0;

/// Trials per cell of the `serve_mixed` plans.
pub const SERVE_TRIALS: u32 = 1024;

/// Expected compile results of the golden cells:
/// `(config label, benchmark, day) → (swaps, makespan, hardware CNOTs,
/// estimated-reliability bits)`, from the committed Table-1 snapshot.
pub type Golden = HashMap<(String, String, usize), (usize, u32, usize, u64)>;

/// Parses the committed golden snapshot (see
/// `nisq_bench::golden_snapshot_lines` for the line format).
pub fn golden() -> Golden {
    let text = include_str!("../../tests/golden/table1_ibmq16.txt");
    let mut out = Golden::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let f: Vec<&str> = line.split('|').collect();
        assert_eq!(f.len(), 9, "malformed golden line {line:?}");
        // `table1_configs` labels cells by algorithm name alone.
        let config = f[0].split('/').next().unwrap_or(f[0]).to_string();
        let parse = |s: &str| -> usize { s.parse().expect("golden counts are integers") };
        out.insert(
            (config, f[1].to_string(), parse(f[2])),
            (
                parse(f[4]),
                parse(f[5]) as u32,
                parse(f[7]),
                u64::from_str_radix(f[8], 16).expect("golden reliability bits are hex"),
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for w in [
            Workload::PaperSweep,
            Workload::WideDevices,
            Workload::DenseTrials,
        ] {
            // A run's inputs: the plans on each of its trial streams.
            let inputs = |seed| -> Vec<u64> {
                let plans = batch_plans(w, seed, Size::Full);
                trial_streams(w, seed, 8)
                    .into_iter()
                    .flat_map(|stream| with_trial_stream(&plans, stream))
                    .map(|plan| plan.fingerprint())
                    .collect()
            };
            assert_eq!(inputs(5), inputs(5), "{}", w.name());
            assert_ne!(inputs(5), inputs(6), "{}", w.name());
        }
        let lines = |seed| {
            let mut mix = ServeMix::new(seed, 1, Size::Full);
            (0..50)
                .map(|i| mix.next_request().line(&i.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(3), lines(3));
        assert_ne!(lines(3), lines(4));
    }

    #[test]
    fn serve_requests_parse_and_classes_mix() {
        let mut mix = ServeMix::new(9, 0, Size::Full);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let request = mix.next_request();
            seen.insert(request.class);
            let parsed = nisq_serve::parse_request(&request.line(&i.to_string())).unwrap();
            assert_eq!(
                parsed.resume_key.is_some(),
                request.class == Class::Journaled
            );
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn paper_sweep_covers_the_golden_days() {
        let golden = golden();
        assert_eq!(golden.len(), 144);
        let plan = &batch_plans(Workload::PaperSweep, 1, Size::Full)[0];
        assert_eq!(plan.cells().len(), 12 * 6 * 4);
        for day in nisq_bench::GOLDEN_DAYS {
            assert!(PAPER_DAYS.contains(day));
        }
    }
}
