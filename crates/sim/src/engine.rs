//! The four-tier trial engine.
//!
//! At the paper's calibration-derived error rates, most trials sample *no*
//! error anywhere — yet a naive simulator still pays a full state-vector
//! evolution per trial. The engine classifies every trial by its
//! pre-sampled error pattern ([`TrialProgram::pre_sample`]) before touching
//! any state, then serves it from the cheapest tier:
//!
//! * **Tier 1 — error-free**: the trial's terminal outcome is drawn from a
//!   precomputed CDF over the *ideal* final state (one shared ideal
//!   evolution per program); per trial the cost is the error draws, the
//!   mid-measure Bernoullis against precomputed probabilities, one uniform
//!   draw binary-searched into the CDF, and the readout-flip draws.
//!   Aggregated over a batch this is exactly a multinomial sample of the
//!   ideal outcome distribution, yet it remains bit-identical to replaying
//!   each trial because the CDF is built by the same canonical traversal
//!   the replay's terminal sampler uses.
//! * **Tier 0 — Pauli propagation**: when every unitary from the trial's
//!   first error site to the end of the program is Clifford (always true
//!   for the BV family, the paper's headline benchmarks), the error Pauli
//!   conjugates *symplectically* through the suffix — O(gates) XORs on a
//!   bit-packed tableau, zero state passes — and lands on the ideal
//!   terminal CDF as a basis-index XOR. See *exactness* below: tier 0 is
//!   statistically equivalent to the numeric replay, not bit-identical.
//! * **Tier 2 — checkpointed**: a trial whose first error fires at op `k`
//!   (before the Clifford suffix) resumes from a shared ideal-prefix
//!   snapshot advanced lazily to `k` (trials are processed in first-error
//!   order, so the walker only ever moves forward), replaying just the
//!   suffix. A worker-local **single-error suffix memo** (below) lets
//!   repeated single-error trials share one suffix evolution.
//! * **Tier 3 — full replay**: trials whose first error fires before any
//!   prefix exists (op 0) replay from scratch — the old cost, now paid
//!   only by the trials that need it.
//!
//! # Exactness: what is bit-exact and what is statistical
//!
//! Tiers 1–3 are **bit-identical** to the single-trial reference path
//! ([`TrialProgram::run_trial`]): same draws, same FP operations, same
//! outcomes. Tier 0 is deliberately *not*: it consumes the same number of
//! RNG draws per trial but maps them through the ideal distribution plus a
//! Pauli twist instead of through the numerically-perturbed state, so
//! individual outcomes can differ from the reference at FP decision
//! boundaries while the sampled *distribution* is equal (a Pauli string
//! applied to a pure state permutes basis probabilities by an X-mask and
//! phases — it never changes their values). Disable it via
//! [`EngineOptions::pauli_prop`] to recover bit-exactness everywhere; the
//! test suite pins tier 0 to the numeric reference with a total-variation
//! bound instead.
//!
//! # Mid-circuit measurement: the dominant-outcome path
//!
//! A mid-circuit measurement injects per-trial randomness into the state
//! itself, so no single shared prefix can cross it. The engine walks the
//! *dominant-outcome* path instead: at each measure point it precomputes
//! the outcome probability on the shared path, keeps a fallback checkpoint
//! of the pre-measure state, collapses onto the likelier outcome, and
//! continues. A trial draws its measure outcomes against the precomputed
//! probabilities (the exact draws a replay would make); as long as it
//! stays on the dominant path it keeps riding the shared states, and the
//! moment it diverges it falls back to the checkpoint before that measure
//! and replays the rest. Tier-0 trials cross measure points symplectically:
//! an X component on the measured qubit flips the outcome probability to
//! `1 - p1` and the recorded bit, the Z component degenerates to a global
//! phase at the collapse, and a drawn outcome whose *ideal* counterpart
//! leaves the dominant path falls back to the checkpoint with the
//! propagated Pauli fused on top.
//!
//! # The single-error suffix memo
//!
//! Below an expected error count of ~1 (`survival > e^{-1}`), most error
//! trials sample exactly **one** error, and two trials with the same
//! `(site, event)` share a fully deterministic evolution up to the first
//! post-error measurement. The engine keeps a small per-chunk LRU keyed
//! `(site, event)`: on a miss it advances the suffix once and caches the
//! pre-measure checkpoint (or the terminal CDF when the suffix is
//! measurement-free — then a hit does *zero* state work); on a hit the
//! cached evolution substitutes for the replay. Memoized trials are
//! bit-identical to cold ones: the shared segment consumes no RNG draws,
//! and the cached state is the same state the cold replay would have
//! reached. The memo is cleared at every chunk boundary so its hit/miss
//! counters — and everything else — stay independent of how chunks are
//! scheduled onto worker threads.
//!
//! Determinism: every stochastic draw of a trial comes from its own
//! counter-based [`TrialRng`] stream in a fixed order (error pattern
//! first, then measurement/readout draws in replay order), so outcomes are
//! a pure function of `(program, seed, trial)` — independent of tier
//! assignment, batch partitioning and thread count.

use crate::backend::BackendKind;
use crate::clifford::SymplecticPauli;
use crate::program::{clbit_mask, TrialEvent, TrialOp, TrialProgram, TrialScratch};
use crate::rng::TrialRng;
use rand::Rng;
use rustc_hash::FxHashMap;
use std::cell::RefCell;

/// Tuning knobs of the [`TieredEngine`], carried on
/// [`SimulatorConfig`](crate::SimulatorConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Serve error trials whose suffix is all-Clifford by symplectic Pauli
    /// propagation (tier 0). Statistically equivalent to the numeric
    /// replay but not bit-identical; turn off to make every tier bit-exact
    /// against [`TrialProgram::run_trial`].
    pub pauli_prop: bool,
    /// Memoize single-error suffix evolutions within a chunk (exact; see
    /// the module docs). Self-gates on the program's error rate.
    pub suffix_memo: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            pauli_prop: true,
            suffix_memo: true,
        }
    }
}

impl EngineOptions {
    /// Every tier bit-exact against the reference replay: Pauli
    /// propagation off, memoization on (it is exact).
    pub fn exact() -> Self {
        EngineOptions {
            pauli_prop: false,
            suffix_memo: true,
        }
    }
}

/// How many trials of a batch each tier served, plus the suffix-memo hit
/// counters. The four tier fields partition the batch's trial count;
/// `memo_hits + memo_misses` counts the subset of checkpointed/full-replay
/// trials that went through the single-error memo. Merging counts across
/// batches is plain addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCounts {
    /// Which backend served the batch. Batches are merged per program, and
    /// a program has exactly one backend, so merging keeps the tag as-is.
    pub backend: BackendKind,
    /// Tier-1 trials: no error anywhere and every mid-measure on the
    /// dominant path; outcome drawn from the ideal terminal distribution
    /// with no state work at all.
    pub error_free: u64,
    /// Tier-0 trials: error Pauli conjugated symplectically through an
    /// all-Clifford suffix onto the ideal terminal distribution — no state
    /// work, a few hundred XORs.
    pub pauli_prop: u64,
    /// Tier-2 trials: resumed from a shared checkpoint (first-error prefix,
    /// a mid-measure divergence fallback, or a memoized suffix).
    pub checkpointed: u64,
    /// Tier-3 trials: replayed from the initial state.
    pub full_replay: u64,
    /// Single-error trials served from the suffix memo.
    pub memo_hits: u64,
    /// Single-error trials that built (or rebuilt) a memo entry.
    pub memo_misses: u64,
}

impl TierCounts {
    /// Total trials across every tier (the memo counters overlap the tier
    /// partition and are not added again).
    pub fn total(&self) -> u64 {
        self.error_free + self.pauli_prop + self.checkpointed + self.full_replay
    }

    /// Accumulates another batch's counts. An empty accumulator adopts the
    /// other side's backend tag (batches are merged per program, so every
    /// non-empty operand carries the same tag).
    pub fn merge(&mut self, other: &TierCounts) {
        if self.total() == 0 {
            self.backend = other.backend;
        }
        self.error_free += other.error_free;
        self.pauli_prop += other.pauli_prop;
        self.checkpointed += other.checkpointed;
        self.full_replay += other.full_replay;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }
}

/// One entry of the terminal CDF: cumulative probability up to and
/// including a run of canonical basis states that share a packed clbit key
/// (runs sharing a key necessarily agree on every measured qubit's bit, so
/// `basis` — the first state of the run — stands in for all of them under
/// a tier-0 X-mask XOR).
#[derive(Debug, Clone, Copy)]
struct CdfEntry {
    cum: f64,
    key: u128,
    basis: u32,
}

/// How tier 1 (and tier 0) resolve the terminal op of an on-dominant-path
/// trial.
#[derive(Debug, Clone)]
enum TerminalPlan {
    /// The program ends in one [`TrialOp::TerminalSample`]: sample the
    /// precomputed CDF, then draw the readout flips in measure order.
    Sample {
        cdf: Vec<CdfEntry>,
        /// `(qubit, clbit)` of every folded measure, in program order —
        /// how tier 0 maps an X-shifted basis index back to a clbit key.
        bit_map: Vec<(u8, u8)>,
        /// `(clbit, p_flip)` of every folded measure with a non-zero flip
        /// probability, in program order.
        flips: Vec<(u8, f64)>,
    },
    /// No terminal sample: every classical bit was produced by the measure
    /// ladder (or the program measures nothing).
    None,
}

/// One mid-program measure point on the shared dominant path.
#[derive(Debug, Clone, Copy)]
struct MeasurePoint {
    /// Op index of the [`TrialOp::Measure`].
    op: u32,
    /// Program qubit measured.
    qubit: u8,
    /// Classical bit recorded (`None`: overwritten later, records nothing).
    clbit: Option<u8>,
    /// Readout flip probability.
    p_flip: f64,
    /// Probability of outcome 1 on the dominant path (clamped to `[0, 1]`
    /// exactly as [`crate::StateVector::measure`] does).
    p1: f64,
    /// The dominant outcome the shared path collapses onto.
    dominant: bool,
}

/// Result of drawing a trial's measure outcomes along the dominant path.
struct MeasureWalk {
    /// Clbits recorded by the walked measures (post-flip).
    clbits: u128,
    /// First measure whose outcome left the dominant path, with the drawn
    /// (pre-flip) outcome.
    diverged: Option<(usize, bool)>,
}

/// How a tier-0 propagation resolved.
enum Tier0 {
    /// The trial rode the dominant path to the end; its full clbit key.
    Served(u128),
    /// A measure draw's ideal counterpart left the dominant path: fall
    /// back to the checkpoint before measure `measure_k`, collapsed onto
    /// `ideal_outcome`, with `pauli` fused on top; clbits recorded so far
    /// and the index of the first unconsumed error event come along.
    Diverged {
        measure_k: usize,
        ideal_outcome: bool,
        clbits: u128,
        pauli: SymplecticPauli,
        site_next: usize,
    },
}

/// A [`TrialProgram`] analyzed for tiered execution: the dominant-path
/// measure ladder with fallback checkpoints, the shared terminal plan, the
/// tier-0 eligibility boundary and the noise-site geometry. Build once per
/// program via [`TieredEngine::new`] (or [`TieredEngine::with_options`]),
/// then run batches through [`TieredEngine::run_chunk`].
#[derive(Debug)]
pub struct TieredEngine<'p> {
    program: &'p TrialProgram,
    /// Mid-program measure points, in op order.
    measures: Vec<MeasurePoint>,
    /// The pre-measure state of each measure point (measured qubit
    /// flushed): the fallback checkpoint when a trial's outcome diverges
    /// from the dominant path.
    checkpoints: Vec<TrialScratch>,
    /// Op index of the trailing [`TrialOp::TerminalSample`], or `ops.len()`
    /// when there is none.
    terminal_op: usize,
    terminal: TerminalPlan,
    /// Smallest op index from which error trials are served by tier-0
    /// Pauli propagation; `usize::MAX` when tier 0 is disabled by option.
    pauli_prop_from: usize,
    /// Whether the single-error suffix memo is active for this program
    /// (option on, error mass below the λ≈1 worthwhileness bound, and a
    /// suffix worth caching).
    memo_enabled: bool,
}

impl<'p> TieredEngine<'p> {
    /// Analyzes `program` with default [`EngineOptions`]: walks the shared
    /// dominant path once (collapsing every mid-measure onto its likelier
    /// outcome, snapshotting fallback checkpoints) and precomputes the
    /// shared terminal plan from the path's final state.
    pub fn new(program: &'p TrialProgram) -> Self {
        Self::with_options(program, EngineOptions::default())
    }

    /// Like [`TieredEngine::new`] with explicit engine options.
    pub fn with_options(program: &'p TrialProgram, options: EngineOptions) -> Self {
        let ops = program.ops();
        let terminal_op = match ops.last() {
            Some(TrialOp::TerminalSample { .. }) => ops.len() - 1,
            _ => ops.len(),
        };

        // A program with general Kraus channels has no shared ideal path:
        // every channel application is state-dependent, so there is no
        // dominant-path walk, no checkpoints, no terminal CDF and no
        // tier-0 propagation — every trial replays in full (tier 3).
        if program.has_kraus() {
            return TieredEngine {
                program,
                measures: Vec::new(),
                checkpoints: Vec::new(),
                terminal_op,
                terminal: TerminalPlan::None,
                pauli_prop_from: usize::MAX,
                memo_enabled: false,
            };
        }

        let mut walker = program.make_scratch();
        walker.reset();
        let mut measures = Vec::new();
        let mut checkpoints = Vec::new();
        let mut pos = 0usize;
        for (i, op) in ops[..terminal_op].iter().enumerate() {
            let &TrialOp::Measure {
                qubit,
                clbit,
                p_flip,
            } = op
            else {
                continue;
            };
            program.advance_ideal(&mut walker, pos, i);
            let p1 = walker.flush_and_p1(qubit).clamp(0.0, 1.0);
            // Snapshot before the collapse: the fallback for trials whose
            // drawn outcome leaves the dominant path.
            checkpoints.push(walker.clone());
            let dominant = p1 >= 0.5;
            walker.collapse_measured(qubit, dominant, p1);
            measures.push(MeasurePoint {
                op: i as u32,
                qubit,
                clbit,
                p_flip,
                p1,
                dominant,
            });
            pos = i + 1;
        }
        program.advance_ideal(&mut walker, pos, terminal_op);

        let terminal = match ops.get(terminal_op) {
            Some(TrialOp::TerminalSample { measures }) => {
                // Mirror the replay exactly: flush the measured qubits,
                // then accumulate probabilities in canonical order. Runs of
                // adjacent entries sharing a key merge (the scan outcome is
                // unchanged), which collapses classical-output programs to
                // a single entry.
                let mut scratch = walker;
                scratch.flush_terminal(measures);
                let cdf = build_terminal_cdf(&scratch, measures);
                let bit_map = measures.iter().map(|&(q, c, _)| (q, c)).collect();
                let flips = measures
                    .iter()
                    .filter(|&&(_, _, p_flip)| p_flip > 0.0)
                    .map(|&(_, clbit, p_flip)| (clbit, p_flip))
                    .collect();
                TerminalPlan::Sample {
                    cdf,
                    bit_map,
                    flips,
                }
            }
            _ => TerminalPlan::None,
        };

        // Tier 0 twists the terminal sample by XOR-ing the Pauli's X mask
        // into the sampled basis index. That is sound because lowering
        // leaves every clbit at most one live write, so the clbit key is a
        // function of the measured qubits' bits.
        let pauli_prop_from = if options.pauli_prop {
            program.clifford_suffix_from()
        } else {
            usize::MAX
        };

        // The memo pays while single-error trials dominate error trials —
        // λ below about 1, i.e. survival above e^{-1} — and only when a
        // suffix replay is expensive enough that sharing one beats the
        // per-trial lookup/clone overhead: below ~2^10 amplitudes the
        // replay is already cheaper than the bookkeeping (measured on the
        // tracked small benchmarks), so small-state programs skip it.
        let memo_enabled = options.suffix_memo
            && program.survival_probability() > (-1.0f64).exp()
            && program.num_qubits() >= MEMO_MIN_QUBITS
            && !program.noise_sites().is_empty()
            && (!measures.is_empty() || matches!(terminal, TerminalPlan::Sample { .. }));

        TieredEngine {
            program,
            measures,
            checkpoints,
            terminal_op,
            terminal,
            pauli_prop_from,
            memo_enabled,
        }
    }

    /// Number of noise sites at ops before `op` — the offset into a
    /// trial's event list where a replay starting at `op` begins consuming.
    fn site_index_at(&self, op: usize) -> usize {
        self.program
            .noise_sites()
            .partition_point(|&site| (site as usize) < op)
    }

    /// Draws a trial's outcomes for every measure point before `limit_op`,
    /// exactly as a replay would (Bernoulli on the dominant-path
    /// probability, then the readout flip), stopping at the first outcome
    /// that leaves the dominant path.
    fn walk_measures<R: Rng + ?Sized>(&self, limit_op: usize, rng: &mut R) -> MeasureWalk {
        let mut clbits = 0u128;
        for (k, m) in self.measures.iter().enumerate() {
            if m.op as usize >= limit_op {
                break;
            }
            let outcome = rng.gen_bool(m.p1);
            let mut bit = outcome;
            if m.p_flip > 0.0 && rng.gen_bool(m.p_flip) {
                bit = !bit;
            }
            if bit {
                clbits |= clbit_mask(m.clbit);
            }
            if outcome != m.dominant {
                return MeasureWalk {
                    clbits,
                    diverged: Some((k, outcome)),
                };
            }
        }
        MeasureWalk {
            clbits,
            diverged: None,
        }
    }

    /// Resolves the terminal op for an on-dominant-path, error-free trial,
    /// consuming exactly the draws a full replay's terminal op would.
    fn sample_terminal<R: Rng + ?Sized>(&self, rng: &mut R) -> u128 {
        match &self.terminal {
            TerminalPlan::Sample { cdf, flips, .. } => {
                let mut key = cdf[sample_cdf_index(cdf, rng)].key;
                for &(clbit, p_flip) in flips {
                    if rng.gen_bool(p_flip) {
                        key ^= 1u128 << clbit;
                    }
                }
                key
            }
            TerminalPlan::None => 0,
        }
    }

    /// Conjugates a tier-0 trial's error Pauli through
    /// `ops[resume_op..]`, resolving measure points against the dominant
    /// path and the terminal op against the ideal CDF shifted by the
    /// Pauli's X mask. Consumes the same number of RNG draws a replay
    /// would over the same range. `events` is the trial's full event list;
    /// `first_site` is the index of the event at `resume_op`.
    fn propagate_pauli<R: Rng + ?Sized>(
        &self,
        resume_op: usize,
        first_site: usize,
        events: &[TrialEvent],
        mut clbits: u128,
        rng: &mut R,
    ) -> Tier0 {
        let program = self.program;
        let mut pauli = SymplecticPauli::IDENTITY;
        let mut site = first_site;
        let mut measure_k = self
            .measures
            .partition_point(|m| (m.op as usize) < resume_op);
        for (offset, op) in program.ops()[resume_op..].iter().enumerate() {
            match *op {
                TrialOp::Unitary { qubit, .. } => {
                    let action = program
                        .clifford_action(resume_op + offset)
                        .expect("ops past the suffix boundary are Clifford");
                    pauli.conjugate_1q(qubit, &action);
                }
                TrialOp::Cnot { control, target } => pauli.conjugate_cnot(control, target),
                TrialOp::Swap { a, b, ref noise } => {
                    pauli.conjugate_swap(a, b);
                    if noise.is_some() {
                        if let TrialEvent::Swap(ra, rb) = events[site] {
                            pauli.compose(a, ra);
                            pauli.compose(b, rb);
                        }
                        site += 1;
                    }
                }
                TrialOp::GateNoise { qubit, .. } | TrialOp::ChannelNoise { qubit, .. } => {
                    if let TrialEvent::Gate(p) = events[site] {
                        pauli.compose(qubit, p);
                    }
                    site += 1;
                }
                TrialOp::CnotNoise {
                    control, target, ..
                } => {
                    if let TrialEvent::Cnot(pc, pt) = events[site] {
                        pauli.compose(control, pc);
                        pauli.compose(target, pt);
                    }
                    site += 1;
                }
                TrialOp::ChannelNoise2 { a, b, .. } => {
                    if let TrialEvent::Cnot(pa, pb) = events[site] {
                        pauli.compose(a, pa);
                        pauli.compose(b, pb);
                    }
                    site += 1;
                }
                TrialOp::KrausChannel { .. } => {
                    unreachable!("Kraus programs never reach tier-0 propagation")
                }
                TrialOp::Measure {
                    qubit,
                    clbit,
                    p_flip,
                } => {
                    let m = &self.measures[measure_k];
                    debug_assert_eq!(m.op as usize, resume_op + offset);
                    // An X component on the measured qubit exchanges the
                    // outcome probabilities; the draw below is the trial's
                    // own measurement randomness against the perturbed
                    // distribution.
                    let flipped = pauli.x_bit(qubit);
                    let p_eff = if flipped { 1.0 - m.p1 } else { m.p1 };
                    let outcome = rng.gen_bool(p_eff);
                    let mut bit = outcome;
                    if p_flip > 0.0 && rng.gen_bool(p_flip) {
                        bit = !bit;
                    }
                    if bit {
                        clbits |= clbit_mask(clbit);
                    }
                    // After the collapse a Z on the measured qubit is a
                    // global phase; the X component survives as the
                    // relation between the trial's outcome and the ideal
                    // path's.
                    pauli.clear_z(qubit);
                    let ideal_outcome = outcome ^ flipped;
                    if ideal_outcome != m.dominant {
                        return Tier0::Diverged {
                            measure_k,
                            ideal_outcome,
                            clbits,
                            pauli,
                            site_next: site,
                        };
                    }
                    measure_k += 1;
                }
                TrialOp::TerminalSample { .. } => {
                    let TerminalPlan::Sample {
                        ref cdf,
                        ref bit_map,
                        ref flips,
                    } = self.terminal
                    else {
                        unreachable!("terminal plan built from the terminal op");
                    };
                    // Sample the ideal distribution, then twist by the X
                    // mask: P_perturbed(c) = P_ideal(c ^ xmask), so the
                    // shifted sample has exactly the perturbed
                    // distribution (Z components only touch phases).
                    let basis = cdf[sample_cdf_index(cdf, rng)].basis ^ pauli.x;
                    let mut key = 0u128;
                    for &(qubit, clbit) in bit_map {
                        if basis >> qubit & 1 == 1 {
                            key |= 1u128 << clbit;
                        }
                    }
                    for &(clbit, p_flip) in flips {
                        if rng.gen_bool(p_flip) {
                            key ^= 1u128 << clbit;
                        }
                    }
                    clbits |= key;
                }
            }
        }
        Tier0::Served(clbits)
    }

    /// Restores `trial` to the divergence fallback: the checkpoint before
    /// measure `k`, collapsed onto the drawn off-dominant `outcome`.
    fn restore_diverged(&self, trial: &mut TrialScratch, k: usize, outcome: bool) {
        let m = &self.measures[k];
        trial.copy_from(&self.checkpoints[k]);
        trial.collapse_measured(m.qubit, outcome, m.p1);
    }

    /// Whether site `s` is the trial's only error — the memo key condition
    /// (`events[..s]` is error-free by `pre_sample`'s contract).
    fn single_error(events: &[TrialEvent], s: usize) -> bool {
        events[s + 1..].iter().all(|e| !e.is_error())
    }

    /// Simulates trials `[start, end)` of the stream derived from `seed`,
    /// accumulating bit-packed outcome counts into `counts` and tier
    /// occupancy into `tiers`. `scratch` provides every buffer the batch
    /// needs; it is reused across calls without reallocation.
    ///
    /// With Pauli propagation disabled, outcomes are bit-identical to
    /// running [`TrialProgram::run_trial`] per trial, for any chunking;
    /// with it enabled, tier-0-served trials are statistically equivalent
    /// instead (see the module docs). Either way the outcome of a trial is
    /// a pure function of `(program, seed, trial index)`.
    pub fn run_chunk(
        &self,
        seed: u64,
        start: u32,
        end: u32,
        scratch: &mut EngineScratch,
        counts: &mut FxHashMap<u128, u32>,
        tiers: &mut TierCounts,
    ) {
        let program = self.program;
        let sites = program.noise_sites();
        tiers.backend = BackendKind::Dense;
        scratch.prepare(program);
        let EngineScratch {
            trial,
            prefix,
            draw,
            arena,
            queue,
            memo,
        } = scratch;
        let trial = trial.as_mut().expect("prepared above");
        let prefix = prefix.as_mut().expect("prepared above");

        // Kraus programs have no shared structure to exploit (every
        // channel application depends on the trial's own state), so every
        // trial is a tier-3 full replay: pre-sample the Pauli-channel
        // pattern, then walk the whole program.
        if program.has_kraus() {
            for t in start..end {
                let mut rng = TrialRng::new(seed, t);
                let _ = program.pre_sample(draw, &mut rng);
                trial.reset();
                let key = program.replay_from(trial, 0, draw, &mut rng);
                *counts.entry(key).or_insert(0) += 1;
                tiers.full_replay += 1;
            }
            return;
        }

        // Phase 1: pre-sample every trial's error pattern (no state work).
        // Error-free trials resolve immediately — through the tier-1 plan
        // when their measure draws stay on the dominant path, from a
        // divergence checkpoint otherwise — and Clifford-suffix error
        // trials resolve through tier-0 Pauli propagation. Trials with
        // errors before the suffix boundary queue for checkpointed replay,
        // carrying their events and RNG position.
        for t in start..end {
            let mut rng = TrialRng::new(seed, t);
            match program.pre_sample(draw, &mut rng) {
                None => {
                    let walk = self.walk_measures(self.terminal_op, &mut rng);
                    match walk.diverged {
                        None => {
                            let key = walk.clbits | self.sample_terminal(&mut rng);
                            *counts.entry(key).or_insert(0) += 1;
                            tiers.error_free += 1;
                        }
                        Some((k, outcome)) => {
                            self.restore_diverged(trial, k, outcome);
                            let resume = self.measures[k].op as usize + 1;
                            let key = walk.clbits
                                | program.replay_from(
                                    trial,
                                    resume,
                                    &draw[self.site_index_at(resume)..],
                                    &mut rng,
                                );
                            *counts.entry(key).or_insert(0) += 1;
                            tiers.checkpointed += 1;
                        }
                    }
                }
                Some(s) => {
                    let resume_op = sites[s as usize] as usize;
                    if resume_op >= self.pauli_prop_from {
                        // Tier 0: the whole suffix is Clifford. Walk the
                        // pre-error measures like any other trial, then
                        // push the error through symplectically.
                        let walk = self.walk_measures(resume_op, &mut rng);
                        let key = match walk.diverged {
                            Some((k, outcome)) => {
                                // Diverged before the error even fired:
                                // the ordinary (exact) checkpoint fallback.
                                self.restore_diverged(trial, k, outcome);
                                let resume = self.measures[k].op as usize + 1;
                                tiers.checkpointed += 1;
                                walk.clbits
                                    | program.replay_from(
                                        trial,
                                        resume,
                                        &draw[self.site_index_at(resume)..],
                                        &mut rng,
                                    )
                            }
                            None => match self.propagate_pauli(
                                resume_op,
                                s as usize,
                                draw,
                                walk.clbits,
                                &mut rng,
                            ) {
                                Tier0::Served(key) => {
                                    tiers.pauli_prop += 1;
                                    key
                                }
                                Tier0::Diverged {
                                    measure_k,
                                    ideal_outcome,
                                    clbits,
                                    pauli,
                                    site_next,
                                } => {
                                    // The ideal outcome left the dominant
                                    // path: restore the pre-measure
                                    // checkpoint, collapse onto the ideal
                                    // outcome and materialize the
                                    // propagated Pauli, then replay the
                                    // rest numerically.
                                    let m = &self.measures[measure_k];
                                    trial.copy_from(&self.checkpoints[measure_k]);
                                    trial.collapse_measured(m.qubit, ideal_outcome, m.p1);
                                    trial.fuse_symplectic(&pauli);
                                    tiers.checkpointed += 1;
                                    clbits
                                        | program.replay_from(
                                            trial,
                                            m.op as usize + 1,
                                            &draw[site_next..],
                                            &mut rng,
                                        )
                                }
                            },
                        };
                        *counts.entry(key).or_insert(0) += 1;
                    } else {
                        let events_start = arena.len();
                        arena.extend_from_slice(draw);
                        queue.push(PendingTrial {
                            resume_op: resume_op as u32,
                            events_start: events_start as u32,
                            rng,
                        });
                    }
                }
            }
        }

        // Phase 2: replay the queued trials in first-error order, advancing
        // the shared dominant-path walker monotonically (collapsing each
        // crossed measure onto its dominant outcome) so each program op is
        // evolved at most once per chunk regardless of how many trials
        // resume behind it.
        queue.sort_by_key(|t| t.resume_op);
        prefix.reset();
        let mut prefix_pos = 0usize;
        let mut prefix_measure = 0usize;
        for pending in queue.drain(..) {
            let resume_op = pending.resume_op as usize;
            while prefix_measure < self.measures.len()
                && (self.measures[prefix_measure].op as usize) < resume_op
            {
                let m = &self.measures[prefix_measure];
                program.advance_ideal(prefix, prefix_pos, m.op as usize);
                prefix.flush(m.qubit);
                prefix.collapse_measured(m.qubit, m.dominant, m.p1);
                prefix_pos = m.op as usize + 1;
                prefix_measure += 1;
            }
            if resume_op > prefix_pos {
                program.advance_ideal(prefix, prefix_pos, resume_op);
                prefix_pos = resume_op;
            }

            let mut rng = pending.rng;
            // One full event list per queued trial (one entry per noise
            // site) lives at the trial's arena offset.
            let events_start = pending.events_start as usize;
            let events = &arena[events_start..events_start + sites.len()];
            // The trial's own draws for the measures the walker crossed.
            let walk = self.walk_measures(resume_op, &mut rng);
            let key = match walk.diverged {
                None => {
                    let s = self.site_index_at(resume_op);
                    if self.memo_enabled && Self::single_error(events, s) {
                        walk.clbits
                            | self.run_memoized(
                                s, resume_op, events, trial, prefix, memo, tiers, &mut rng,
                            )
                    } else {
                        trial.copy_from(prefix);
                        walk.clbits | program.replay_from(trial, resume_op, &events[s..], &mut rng)
                    }
                }
                Some((k, outcome)) => {
                    self.restore_diverged(trial, k, outcome);
                    let resume = self.measures[k].op as usize + 1;
                    walk.clbits
                        | program.replay_from(
                            trial,
                            resume,
                            &events[self.site_index_at(resume)..],
                            &mut rng,
                        )
                }
            };
            *counts.entry(key).or_insert(0) += 1;
            if resume_op > 0 || walk.diverged.is_some() {
                tiers.checkpointed += 1;
            } else {
                tiers.full_replay += 1;
            }
        }
        arena.clear();
    }

    /// Serves an on-dominant-path single-error trial through the suffix
    /// memo: the deterministic segment from the error site to the first
    /// post-error measurement (or the terminal CDF when there is none) is
    /// computed once per `(site, event)` and reused. Bit-identical to the
    /// cold replay — the shared segment consumes no RNG draws and the
    /// cached state is exactly the state the replay would have reached.
    #[allow(clippy::too_many_arguments)]
    fn run_memoized<R: Rng + ?Sized>(
        &self,
        s: usize,
        resume_op: usize,
        events: &[TrialEvent],
        trial: &mut TrialScratch,
        prefix: &TrialScratch,
        memo: &mut SuffixMemo,
        tiers: &mut TierCounts,
        rng: &mut R,
    ) -> u128 {
        let program = self.program;
        let event = events[s];
        if let Some(entry) = memo.get(s as u32, event) {
            tiers.memo_hits += 1;
            return match entry {
                MemoEntry::Terminal(cdf) => self.sample_memo_terminal(cdf, rng),
                MemoEntry::Checkpoint {
                    scratch,
                    resume_op: stop,
                } => {
                    let stop = *stop as usize;
                    trial.copy_from(scratch);
                    program.replay_from(trial, stop, &events[self.site_index_at(stop)..], rng)
                }
            };
        }
        tiers.memo_misses += 1;
        // The first post-error measure bounds the deterministic segment.
        let next_measure = self
            .measures
            .partition_point(|m| (m.op as usize) < resume_op);
        trial.copy_from(prefix);
        match (next_measure < self.measures.len(), &self.terminal) {
            (true, _) => {
                let stop = self.measures[next_measure].op as usize;
                program.advance_noisy(trial, resume_op, stop, &events[s..]);
                memo.insert(
                    s as u32,
                    event,
                    MemoEntry::Checkpoint {
                        scratch: trial.clone(),
                        resume_op: stop as u32,
                    },
                );
                program.replay_from(trial, stop, &events[self.site_index_at(stop)..], rng)
            }
            (false, TerminalPlan::Sample { .. }) => {
                program.advance_noisy(trial, resume_op, self.terminal_op, &events[s..]);
                let Some(TrialOp::TerminalSample { measures }) =
                    program.ops().get(self.terminal_op)
                else {
                    unreachable!("terminal plan built from the terminal op");
                };
                trial.flush_terminal(measures);
                let cdf = build_terminal_cdf(trial, measures);
                let key = self.sample_memo_terminal(&cdf, rng);
                memo.insert(s as u32, event, MemoEntry::Terminal(cdf));
                key
            }
            (false, TerminalPlan::None) => {
                // Measurement-free suffix with no terminal sample: nothing
                // left can touch a clbit (memo_enabled guards this arm out,
                // but stay correct regardless).
                0
            }
        }
    }

    /// Samples a memoized perturbed terminal CDF, consuming exactly the
    /// draws the cold replay's terminal op would (one uniform, then the
    /// shared readout-flip gates).
    fn sample_memo_terminal<R: Rng + ?Sized>(&self, cdf: &[CdfEntry], rng: &mut R) -> u128 {
        let mut key = cdf[sample_cdf_index(cdf, rng)].key;
        if let TerminalPlan::Sample { flips, .. } = &self.terminal {
            for &(clbit, p_flip) in flips {
                if rng.gen_bool(p_flip) {
                    key ^= 1u128 << clbit;
                }
            }
        }
        key
    }
}

/// Binary-searches a terminal CDF with one uniform draw — identical to the
/// replay's linear scan, including the trailing-remainder fallback.
fn sample_cdf_index<R: Rng + ?Sized>(cdf: &[CdfEntry], rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    cdf.partition_point(|e| e.cum <= u).min(cdf.len() - 1)
}

/// Accumulates the canonical-order terminal CDF of a scratch whose measured
/// qubits are already flushed — the exact probability sequence the replay's
/// terminal sampler scans, with runs of adjacent states sharing a clbit key
/// merged (the scan outcome is unchanged).
fn build_terminal_cdf(scratch: &TrialScratch, measures: &[(u8, u8, f64)]) -> Vec<CdfEntry> {
    let mut cdf: Vec<CdfEntry> = Vec::new();
    let mut cum = 0.0;
    scratch
        .state()
        .for_each_canonical_probability(scratch.perm(), |c, p| {
            cum += p;
            let mut key = 0u128;
            for &(qubit, clbit, _) in measures {
                if c >> qubit & 1 == 1 {
                    key |= 1u128 << clbit;
                }
            }
            match cdf.last_mut() {
                Some(last) if last.key == key => last.cum = cum,
                _ => cdf.push(CdfEntry {
                    cum,
                    key,
                    basis: c as u32,
                }),
            }
        });
    cdf
}

/// A queued tier-2/3 trial: where its replay resumes, its pre-drawn events
/// (an offset into the chunk's event arena), and its RNG positioned after
/// the pre-sampling draws.
#[derive(Debug)]
struct PendingTrial {
    resume_op: u32,
    events_start: u32,
    rng: TrialRng,
}

/// The single-error suffix memo: a tiny LRU keyed `(site, event)`, cleared
/// at every chunk boundary so hit patterns are a pure function of the
/// chunk's trial range (thread-schedule independent). Entries are either a
/// perturbed terminal CDF (measurement-free suffix — hits do zero state
/// work) or the pre-measure checkpoint of the deterministic suffix prefix.
#[derive(Debug, Default)]
struct SuffixMemo {
    slots: Vec<MemoSlot>,
    tick: u64,
}

/// Bounds the per-worker memory of the memo (a checkpoint entry holds a
/// full state clone; eight 16-qubit entries are ~8 MiB).
const MEMO_CAPACITY: usize = 8;

/// Programs narrower than this skip the memo: their suffix replays cost
/// less than the memo's per-trial bookkeeping.
const MEMO_MIN_QUBITS: usize = 10;

#[derive(Debug)]
struct MemoSlot {
    site: u32,
    event: TrialEvent,
    last_used: u64,
    entry: MemoEntry,
}

#[derive(Debug)]
enum MemoEntry {
    Terminal(Vec<CdfEntry>),
    Checkpoint {
        scratch: TrialScratch,
        resume_op: u32,
    },
}

impl SuffixMemo {
    fn clear(&mut self) {
        self.slots.clear();
        self.tick = 0;
    }

    fn get(&mut self, site: u32, event: TrialEvent) -> Option<&MemoEntry> {
        self.tick += 1;
        let tick = self.tick;
        self.slots
            .iter_mut()
            .find(|slot| slot.site == site && slot.event == event)
            .map(|slot| {
                slot.last_used = tick;
                &slot.entry
            })
    }

    fn insert(&mut self, site: u32, event: TrialEvent, entry: MemoEntry) {
        self.tick += 1;
        let slot = MemoSlot {
            site,
            event,
            last_used: self.tick,
            entry,
        };
        if self.slots.len() < MEMO_CAPACITY {
            self.slots.push(slot);
        } else if let Some(lru) = self.slots.iter_mut().min_by_key(|s| s.last_used) {
            *lru = slot;
        }
    }
}

/// Every reusable buffer a batch needs: the replay scratch, the shared
/// dominant-path walker, the pre-sample draw buffer, the event arena, the
/// pending-trial queue and the suffix memo. Acquired from the worker-local
/// pool via [`with_engine_scratch`], so consecutive chunks — and
/// consecutive programs of any width — reuse one allocation per worker.
#[derive(Debug, Default)]
pub struct EngineScratch {
    trial: Option<TrialScratch>,
    prefix: Option<TrialScratch>,
    draw: Vec<TrialEvent>,
    arena: Vec<TrialEvent>,
    queue: Vec<PendingTrial>,
    memo: SuffixMemo,
}

impl EngineScratch {
    fn prepare(&mut self, program: &TrialProgram) {
        let n = program.num_qubits();
        for slot in [&mut self.trial, &mut self.prefix] {
            match slot {
                Some(s) => s.ensure(n),
                None => *slot = Some(program.make_scratch()),
            }
        }
        self.draw.clear();
        self.arena.clear();
        self.queue.clear();
        self.memo.clear();
    }
}

thread_local! {
    /// Worker-local engine scratch, shared across chunks, runs and
    /// programs: the "reuse scratch and checkpoint buffers instead of
    /// per-chunk reallocation" half of the engine's memory story.
    static ENGINE_SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::default());
}

/// Runs `f` with the calling worker's reusable [`EngineScratch`].
pub fn with_engine_scratch<R>(f: impl FnOnce(&mut EngineScratch) -> R) -> R {
    ENGINE_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}
