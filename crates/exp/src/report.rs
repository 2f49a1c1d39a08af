//! Structured experiment reports with stable JSON serialization.

use crate::json::{self, JsonError, Value};

/// Version tag embedded in every serialized report. `v2` added the
/// simulator tier-occupancy counts (per cell and as run totals); `v3`
/// added the tier-0 `pauli_prop` occupancy and the single-error suffix
/// memo's `memo_hits`/`memo_misses` counters; `v4` added the `backend`
/// tag recording which state backend (`dense` or `tableau`, `mixed` in
/// aggregates) served each cell's trials; `v5` added the per-cell
/// `noise` provenance field naming the declarative noise spec bound for
/// the cell's trials (`null` = built-in noise model alone); `v6` added
/// the journal provenance fields — the report-level `resumed_cells`
/// count and `journal_hash` path hash, and the cache's `journal_hits`
/// counter — all zero for journal-less runs.
pub const REPORT_SCHEMA: &str = "nisq-sweep-report/v6";

/// Which simulator state backend served a set of trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendTag {
    /// The dense state-vector backend (also the tag of never-simulated,
    /// all-zero [`TierStats`]).
    #[default]
    Dense,
    /// The bit-packed stabilizer-tableau backend (fully-Clifford programs).
    Tableau,
    /// An aggregate of cells served by different backends (run totals
    /// only; a single cell is always served by exactly one backend).
    Mixed,
}

impl BackendTag {
    /// The stable serialization name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendTag::Dense => "dense",
            BackendTag::Tableau => "tableau",
            BackendTag::Mixed => "mixed",
        }
    }

    fn parse(name: &str) -> Option<BackendTag> {
        match name {
            "dense" => Some(BackendTag::Dense),
            "tableau" => Some(BackendTag::Tableau),
            "mixed" => Some(BackendTag::Mixed),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How many trials each tier of the simulator's four-tier engine served —
/// error-free shortcut, tier-0 Pauli propagation, checkpointed resume,
/// full replay — plus the single-error suffix memo's hit/miss counters
/// (see `nisq_sim::TierCounts`). Recorded per cell and summed over the
/// run. The four tier fields partition the trial count; the memo counters
/// describe a subset of the checkpointed/full-replay trials and are not
/// part of the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Which state backend served these trials (`Mixed` only in merged
    /// run totals).
    pub backend: BackendTag,
    /// Trials with no sampled error, served from the ideal terminal
    /// distribution without state evolution.
    pub error_free: u64,
    /// Error trials whose suffix was all-Clifford, served by symplectic
    /// Pauli propagation without state evolution.
    pub pauli_prop: u64,
    /// Trials resumed from a shared ideal-prefix (or measure-divergence)
    /// checkpoint.
    pub checkpointed: u64,
    /// Trials replayed from the initial state.
    pub full_replay: u64,
    /// Single-error trials served from the memoized suffix evolution.
    pub memo_hits: u64,
    /// Single-error trials that built a memo entry.
    pub memo_misses: u64,
}

impl TierStats {
    /// Total trials across every tier (memo counters overlap the partition
    /// and are not added).
    pub fn total(&self) -> u64 {
        self.error_free + self.pauli_prop + self.checkpointed + self.full_replay
    }

    /// Accumulates another cell's counts. Empty operands leave the backend
    /// tag alone; merging cells served by different backends degrades the
    /// tag to [`BackendTag::Mixed`].
    pub fn merge(&mut self, other: &TierStats) {
        if other.total() > 0 {
            if self.total() == 0 {
                self.backend = other.backend;
            } else if self.backend != other.backend {
                self.backend = BackendTag::Mixed;
            }
        }
        self.error_free += other.error_free;
        self.pauli_prop += other.pauli_prop;
        self.checkpointed += other.checkpointed;
        self.full_replay += other.full_replay;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }
}

impl From<nisq_sim::TierCounts> for TierStats {
    fn from(counts: nisq_sim::TierCounts) -> Self {
        TierStats {
            backend: match counts.backend {
                nisq_sim::BackendKind::Dense => BackendTag::Dense,
                nisq_sim::BackendKind::Tableau => BackendTag::Tableau,
            },
            error_free: counts.error_free,
            pauli_prop: counts.pauli_prop,
            checkpointed: counts.checkpointed,
            full_replay: counts.full_replay,
            memo_hits: counts.memo_hits,
            memo_misses: counts.memo_misses,
        }
    }
}

/// Aggregate cache behaviour of the [`Session`](crate::Session) run that
/// produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Compilations requested (one per plan cell).
    pub compile_requests: u64,
    /// Requests answered from the full-compile cache.
    pub compile_hits: u64,
    /// Placement-pass lookups answered from the placement cache.
    pub place_hits: u64,
    /// Placement passes actually executed (= placement-cache misses).
    pub place_runs: u64,
    /// Cells served from a sweep journal without recompilation or
    /// resimulation (journaled runs only; always 0 otherwise).
    pub journal_hits: u64,
}

impl CacheStats {
    /// Compilations that actually ran the pipeline.
    pub fn compile_runs(&self) -> u64 {
        self.compile_requests - self.compile_hits
    }

    /// Cache hits at any level (full compile or placement pass).
    pub fn total_hits(&self) -> u64 {
        self.compile_hits + self.place_hits
    }
}

/// The outcome of one plan cell: compile metrics, and simulation metrics
/// when the plan requested trials.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Circuit display name.
    pub circuit: String,
    /// Configuration label.
    pub config: String,
    /// Machine topology name (e.g. `IBMQ16`, `grid-4x4`).
    pub topology: String,
    /// Calibration day index.
    pub day: usize,
    /// Label of the plan's noise-axis entry bound for this cell's trials;
    /// `None` when the cell ran under the built-in noise model alone.
    pub noise: Option<String>,
    /// Logical qubit count of the circuit.
    pub qubits: usize,
    /// Logical gate count of the circuit.
    pub gates: usize,
    /// Seed used for this cell's trials.
    pub sim_seed: u64,
    /// Trials simulated (0 = compile only).
    pub trials: u32,
    /// Fraction of trials returning the correct answer; `None` when the
    /// cell was not simulated or has no known correct answer.
    pub success_rate: Option<f64>,
    /// The compiler's analytic reliability estimate.
    pub estimated_reliability: f64,
    /// Execution duration in hardware timeslots.
    pub duration_slots: u32,
    /// One-way SWAPs inserted by the router.
    pub swap_count: usize,
    /// Hardware CNOTs in the executable (SWAPs count as three).
    pub hardware_cnots: usize,
    /// Wall-clock compile time in milliseconds (of the original compile if
    /// this cell hit the compile cache).
    pub compile_ms: f64,
    /// Wall-clock time of the placement pass in microseconds, as recorded
    /// by the compile that produced this cell's executable: a full-compile
    /// cache hit repeats the original compile's value, and a placement-
    /// cache hit records only the (near-zero) lookup time.
    pub place_us: f64,
    /// Whether the compilation was served from the full-compile cache.
    pub cache_hit: bool,
    /// Simulator tier occupancy of this cell's trials (all zero when the
    /// cell was not simulated).
    pub tiers: TierStats,
}

impl CellRecord {
    /// The measured success rate.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not simulated; check
    /// [`CellRecord::success_rate`] when that is possible.
    pub fn success(&self) -> f64 {
        self.success_rate.unwrap_or_else(|| {
            panic!(
                "cell {}/{}/day {} was not simulated",
                self.circuit, self.config, self.day
            )
        })
    }
}

/// The structured result of executing a [`SweepPlan`](crate::SweepPlan):
/// one record per cell plus the run's cache statistics, serializable to a
/// stable JSON document (and parseable back, so CI can validate emitted
/// reports without external dependencies).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Machine calibration seed of the run.
    pub machine_seed: u64,
    /// Trials per cell requested by the plan (0 = compile only).
    pub trials: u32,
    /// Cells loaded from a sweep journal instead of being recomputed
    /// (journal provenance; 0 for journal-less runs).
    pub resumed_cells: u64,
    /// Stable hash of the journal path the run streamed to (journal
    /// provenance; 0 for journal-less runs).
    pub journal_hash: u64,
    /// One record per plan cell, in plan order.
    pub cells: Vec<CellRecord>,
    /// Cache behaviour over the whole run.
    pub cache: CacheStats,
    /// Simulator tier occupancy summed over every simulated cell.
    pub tiers: TierStats,
}

impl Report {
    /// The first record matching `(circuit, config, day)` (topology is not
    /// discriminated; use [`Report::cells`] directly for multi-topology
    /// plans).
    pub fn cell(&self, circuit: &str, config: &str, day: usize) -> Option<&CellRecord> {
        self.cells
            .iter()
            .find(|c| c.circuit == circuit && c.config == config && c.day == day)
    }

    /// Like [`Report::cell`] but panicking with a descriptive message —
    /// for figure binaries whose plans are static.
    ///
    /// # Panics
    ///
    /// Panics if no such cell exists.
    pub fn require(&self, circuit: &str, config: &str, day: usize) -> &CellRecord {
        self.cell(circuit, config, day)
            .unwrap_or_else(|| panic!("no cell for {circuit}/{config}/day {day} in report"))
    }

    /// Serializes to the stable JSON format (`nisq-sweep-report/v6`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema\": {},\n",
            json::write_str(REPORT_SCHEMA)
        ));
        out.push_str(&format!("  \"machine_seed\": {},\n", self.machine_seed));
        out.push_str(&format!("  \"trials\": {},\n", self.trials));
        out.push_str(&format!("  \"resumed_cells\": {},\n", self.resumed_cells));
        out.push_str(&format!("  \"journal_hash\": {},\n", self.journal_hash));
        out.push_str(&format!(
            "  \"cache\": {{\"compile_requests\": {}, \"compile_hits\": {}, \"place_hits\": {}, \"place_runs\": {}, \"journal_hits\": {}}},\n",
            self.cache.compile_requests,
            self.cache.compile_hits,
            self.cache.place_hits,
            self.cache.place_runs,
            self.cache.journal_hits,
        ));
        out.push_str(&format!("  \"tiers\": {},\n", write_tiers(&self.tiers)));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                write_cell(c),
                if i + 1 == self.cells.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serializes to a single line of JSON — the framing the serve
    /// protocol uses (one response per line). Identical content to
    /// [`Report::to_json`]: the pretty form's newlines are purely
    /// structural (string content newlines are escaped by the writer), so
    /// stripping them cannot change the document.
    pub fn to_json_line(&self) -> String {
        self.to_json()
            .split('\n')
            .map(str::trim)
            .collect::<Vec<_>>()
            .join("")
    }

    /// A copy with every wall-clock and cache-provenance field zeroed
    /// (`compile_ms`, `place_us`, `cache_hit`, the run's [`CacheStats`],
    /// and the journal provenance `resumed_cells` / `journal_hash`),
    /// leaving only fields that are deterministic functions of the plan.
    /// Two canonicalized reports for the same plan and seeds compare equal
    /// bit for bit no matter which session — warm or cold, daemon or
    /// direct, resumed from a journal or run uninterrupted — produced
    /// them.
    pub fn canonicalized(&self) -> Report {
        let mut report = self.clone();
        report.cache = CacheStats::default();
        report.resumed_cells = 0;
        report.journal_hash = 0;
        for cell in &mut report.cells {
            cell.compile_ms = 0.0;
            cell.place_us = 0.0;
            cell.cache_hit = false;
        }
        report
    }

    /// [`Report::canonicalized`] serialized as a single JSON line — the
    /// comparison form used to prove two runs computed the same science
    /// (e.g. the crash-resume smoke test diffs this output byte for byte).
    pub fn to_json_line_canonical(&self) -> String {
        self.canonicalized().to_json_line()
    }

    /// Parses a document produced by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns an error for malformed JSON, an unknown schema tag, or
    /// missing fields.
    pub fn from_json(text: &str) -> Result<Report, JsonError> {
        let doc = json::parse(text)?;
        let schema = req_str(&doc, "schema")?;
        if schema != REPORT_SCHEMA {
            return Err(shape_err(format!(
                "unsupported schema {schema:?} (expected {REPORT_SCHEMA:?})"
            )));
        }
        let cache_doc = req(&doc, "cache")?;
        let cache = CacheStats {
            compile_requests: req_u64(cache_doc, "compile_requests")?,
            compile_hits: req_u64(cache_doc, "compile_hits")?,
            place_hits: req_u64(cache_doc, "place_hits")?,
            place_runs: req_u64(cache_doc, "place_runs")?,
            journal_hits: req_u64(cache_doc, "journal_hits")?,
        };
        let mut cells = Vec::new();
        for cell in req(&doc, "cells")?
            .as_array()
            .ok_or_else(|| shape_err("\"cells\" is not an array".to_string()))?
        {
            cells.push(parse_cell(cell)?);
        }
        Ok(Report {
            machine_seed: req_u64(&doc, "machine_seed")?,
            trials: req_u64(&doc, "trials")? as u32,
            resumed_cells: req_u64(&doc, "resumed_cells")?,
            journal_hash: req_u64(&doc, "journal_hash")?,
            cells,
            cache,
            tiers: parse_tiers(req(&doc, "tiers")?)?,
        })
    }
}

/// Serializes one [`CellRecord`] as its inline (single-line) JSON object —
/// shared by [`Report::to_json`] and the sweep journal so a journaled cell
/// round-trips bit-exactly into the report it resumes into.
pub(crate) fn write_cell(c: &CellRecord) -> String {
    let success = match c.success_rate {
        Some(rate) => format!("{rate}"),
        None => "null".to_string(),
    };
    let noise = match &c.noise {
        Some(label) => json::write_str(label),
        None => "null".to_string(),
    };
    format!(
        "{{\"circuit\": {}, \"config\": {}, \"topology\": {}, \"day\": {}, \
         \"noise\": {}, \
         \"qubits\": {}, \"gates\": {}, \"sim_seed\": {}, \"trials\": {}, \
         \"success_rate\": {}, \"estimated_reliability\": {}, \"duration_slots\": {}, \
         \"swap_count\": {}, \"hardware_cnots\": {}, \"compile_ms\": {:.3}, \
         \"place_us\": {:.3}, \"cache_hit\": {}, \"tiers\": {}}}",
        json::write_str(&c.circuit),
        json::write_str(&c.config),
        json::write_str(&c.topology),
        c.day,
        noise,
        c.qubits,
        c.gates,
        c.sim_seed,
        c.trials,
        success,
        c.estimated_reliability,
        c.duration_slots,
        c.swap_count,
        c.hardware_cnots,
        c.compile_ms,
        c.place_us,
        c.cache_hit,
        write_tiers(&c.tiers),
    )
}

/// Parses one cell object of a report (or journal record) — the inverse
/// of [`write_cell`].
pub(crate) fn parse_cell(cell: &Value) -> Result<CellRecord, JsonError> {
    Ok(CellRecord {
        circuit: req_str(cell, "circuit")?.to_string(),
        config: req_str(cell, "config")?.to_string(),
        topology: req_str(cell, "topology")?.to_string(),
        day: req_u64(cell, "day")? as usize,
        noise: match req(cell, "noise")? {
            Value::Null => None,
            v => Some(
                v.as_str()
                    .ok_or_else(|| shape_err("non-string noise label".to_string()))?
                    .to_string(),
            ),
        },
        qubits: req_u64(cell, "qubits")? as usize,
        gates: req_u64(cell, "gates")? as usize,
        sim_seed: req_u64(cell, "sim_seed")?,
        trials: req_u64(cell, "trials")? as u32,
        success_rate: match req(cell, "success_rate")? {
            Value::Null => None,
            v => Some(
                v.as_f64()
                    .ok_or_else(|| shape_err("non-numeric success_rate".to_string()))?,
            ),
        },
        estimated_reliability: req_f64(cell, "estimated_reliability")?,
        duration_slots: req_u64(cell, "duration_slots")? as u32,
        swap_count: req_u64(cell, "swap_count")? as usize,
        hardware_cnots: req_u64(cell, "hardware_cnots")? as usize,
        compile_ms: req_f64(cell, "compile_ms")?,
        place_us: req_f64(cell, "place_us")?,
        cache_hit: req(cell, "cache_hit")?
            .as_bool()
            .ok_or_else(|| shape_err("non-boolean cache_hit".to_string()))?,
        tiers: parse_tiers(req(cell, "tiers")?)?,
    })
}

/// Serializes a [`TierStats`] as its inline JSON object.
fn write_tiers(tiers: &TierStats) -> String {
    format!(
        "{{\"backend\": \"{}\", \"error_free\": {}, \"pauli_prop\": {}, \"checkpointed\": {}, \
         \"full_replay\": {}, \"memo_hits\": {}, \"memo_misses\": {}}}",
        tiers.backend.name(),
        tiers.error_free,
        tiers.pauli_prop,
        tiers.checkpointed,
        tiers.full_replay,
        tiers.memo_hits,
        tiers.memo_misses,
    )
}

/// Parses a [`TierStats`] from its JSON object.
fn parse_tiers(doc: &Value) -> Result<TierStats, JsonError> {
    let backend_name = req_str(doc, "backend")?;
    Ok(TierStats {
        backend: BackendTag::parse(backend_name)
            .ok_or_else(|| shape_err(format!("unknown backend tag {backend_name:?}")))?,
        error_free: req_u64(doc, "error_free")?,
        pauli_prop: req_u64(doc, "pauli_prop")?,
        checkpointed: req_u64(doc, "checkpointed")?,
        full_replay: req_u64(doc, "full_replay")?,
        memo_hits: req_u64(doc, "memo_hits")?,
        memo_misses: req_u64(doc, "memo_misses")?,
    })
}

fn shape_err(message: String) -> JsonError {
    JsonError { message, offset: 0 }
}

fn req<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, JsonError> {
    doc.get(key)
        .ok_or_else(|| shape_err(format!("missing field {key:?}")))
}

fn req_str<'a>(doc: &'a Value, key: &str) -> Result<&'a str, JsonError> {
    req(doc, key)?
        .as_str()
        .ok_or_else(|| shape_err(format!("field {key:?} is not a string")))
}

fn req_u64(doc: &Value, key: &str) -> Result<u64, JsonError> {
    req(doc, key)?
        .as_u64()
        .ok_or_else(|| shape_err(format!("field {key:?} is not an unsigned integer")))
}

fn req_f64(doc: &Value, key: &str) -> Result<f64, JsonError> {
    req(doc, key)?
        .as_f64()
        .ok_or_else(|| shape_err(format!("field {key:?} is not a number")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            machine_seed: 2019,
            trials: 64,
            resumed_cells: 1,
            journal_hash: 0x8422_2325_cbf2_9ce4,
            cells: vec![
                CellRecord {
                    circuit: "BV4".into(),
                    config: "Qiskit".into(),
                    topology: "IBMQ16".into(),
                    day: 0,
                    noise: Some("ad-measure".into()),
                    qubits: 4,
                    gates: 11,
                    sim_seed: 42,
                    trials: 64,
                    success_rate: Some(0.59375),
                    estimated_reliability: 0.6123456789,
                    duration_slots: 40,
                    swap_count: 1,
                    hardware_cnots: 9,
                    compile_ms: 1.25,
                    place_us: 310.0,
                    cache_hit: false,
                    tiers: TierStats {
                        backend: BackendTag::Tableau,
                        error_free: 40,
                        pauli_prop: 12,
                        checkpointed: 8,
                        full_replay: 4,
                        memo_hits: 3,
                        memo_misses: 2,
                    },
                },
                CellRecord {
                    circuit: "BV4".into(),
                    config: "GreedyE*".into(),
                    topology: "IBMQ16".into(),
                    day: 3,
                    noise: None,
                    qubits: 4,
                    gates: 11,
                    sim_seed: 43,
                    trials: 0,
                    success_rate: None,
                    estimated_reliability: 0.7,
                    duration_slots: 30,
                    swap_count: 0,
                    hardware_cnots: 3,
                    compile_ms: 0.5,
                    place_us: 120.5,
                    cache_hit: true,
                    tiers: TierStats::default(),
                },
            ],
            cache: CacheStats {
                compile_requests: 2,
                compile_hits: 1,
                place_hits: 1,
                place_runs: 1,
                journal_hits: 1,
            },
            tiers: TierStats {
                backend: BackendTag::Tableau,
                error_free: 40,
                pauli_prop: 12,
                checkpointed: 8,
                full_replay: 4,
                memo_hits: 3,
                memo_misses: 2,
            },
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_line_is_single_line_and_equivalent() {
        let report = sample();
        let line = report.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(Report::from_json(&line).unwrap(), report);
        // Content newlines survive framing because the writer escapes them.
        let mut tricky = report;
        tricky.cells[0].circuit = "multi\nline \"name\"".into();
        let line = tricky.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(Report::from_json(&line).unwrap(), tricky);
    }

    #[test]
    fn canonicalized_zeroes_provenance_but_keeps_results() {
        let canon = sample().canonicalized();
        assert_eq!(canon.cache, CacheStats::default());
        assert_eq!(canon.resumed_cells, 0);
        assert_eq!(canon.journal_hash, 0);
        for cell in &canon.cells {
            assert_eq!(cell.compile_ms, 0.0);
            assert_eq!(cell.place_us, 0.0);
            assert!(!cell.cache_hit);
        }
        assert_eq!(canon.cells[0].success_rate, Some(0.59375));
        assert_eq!(canon.tiers, sample().tiers);
        // A warm-cache rerun differs only in provenance fields, so its
        // canonical form is identical.
        let mut warm = sample();
        warm.cells[0].cache_hit = true;
        warm.cells[0].compile_ms = 0.001;
        warm.cache.compile_hits = 2;
        assert_eq!(warm.canonicalized(), sample().canonicalized());
        // So is a journal-resumed rerun: the journal provenance is zeroed
        // with the rest.
        let mut resumed = sample();
        resumed.resumed_cells = 2;
        resumed.journal_hash = 77;
        resumed.cache.journal_hits = 2;
        assert_eq!(resumed.canonicalized(), sample().canonicalized());
    }

    #[test]
    fn canonical_json_line_round_trips_and_matches_canonicalized() {
        // The smoke script's comparison form: a single line that parses
        // back to exactly `canonicalized()`, so v6 documents (journal
        // provenance included) stay parseable after canonicalization.
        let line = sample().to_json_line_canonical();
        assert!(!line.contains('\n'));
        let parsed = Report::from_json(&line).unwrap();
        assert_eq!(parsed, sample().canonicalized());
        assert_eq!(parsed.to_json_line_canonical(), line);
    }

    #[test]
    fn lookup_finds_cells_by_coordinates() {
        let report = sample();
        assert_eq!(report.require("BV4", "Qiskit", 0).swap_count, 1);
        assert!(report.cell("BV4", "Qiskit", 5).is_none());
        assert!((report.require("BV4", "Qiskit", 0).success() - 0.59375).abs() < 1e-12);
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_shapes() {
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json("{\"schema\": \"other/v9\"}").is_err());
        assert!(Report::from_json("not json").is_err());
        // Pre-journal documents carry the v5 tag and are rejected outright
        // rather than silently defaulted.
        let v5 = sample()
            .to_json()
            .replace("nisq-sweep-report/v6", "nisq-sweep-report/v5");
        assert!(Report::from_json(&v5).is_err());
        // A v6-tagged document with an unknown backend name is malformed.
        let bad_backend = sample().to_json().replace("\"tableau\"", "\"sparse\"");
        assert!(Report::from_json(&bad_backend).is_err());
        // ...and one missing the per-cell noise field is malformed too.
        let no_noise = sample()
            .to_json()
            .replace("\"noise\": \"ad-measure\", ", "")
            .replace("\"noise\": null, ", "");
        assert!(Report::from_json(&no_noise).is_err());
        // ...as is one missing the v6 journal provenance.
        let no_journal = sample().to_json().replace("  \"resumed_cells\": 1,\n", "");
        assert!(Report::from_json(&no_journal).is_err());
    }

    #[test]
    fn cache_stats_derive_runs_and_hits() {
        let cache = sample().cache;
        assert_eq!(cache.compile_runs(), 1);
        assert_eq!(cache.total_hits(), 2);
    }

    #[test]
    fn tier_stats_total_and_merge() {
        let mut totals = TierStats::default();
        for cell in &sample().cells {
            totals.merge(&cell.tiers);
        }
        assert_eq!(totals, sample().tiers);
        assert_eq!(totals.total(), 64);
    }

    #[test]
    fn backend_tags_merge_to_mixed_only_across_backends() {
        let dense = TierStats {
            backend: BackendTag::Dense,
            error_free: 10,
            ..TierStats::default()
        };
        let tableau = TierStats {
            backend: BackendTag::Tableau,
            error_free: 5,
            ..TierStats::default()
        };
        // Empty totals adopt the first non-empty operand's tag.
        let mut totals = TierStats::default();
        totals.merge(&tableau);
        assert_eq!(totals.backend, BackendTag::Tableau);
        // Same backend stays pure; a different one degrades to Mixed.
        totals.merge(&tableau);
        assert_eq!(totals.backend, BackendTag::Tableau);
        totals.merge(&dense);
        assert_eq!(totals.backend, BackendTag::Mixed);
        // Merging an empty cell (compile-only) never moves the tag.
        totals = dense;
        totals.merge(&TierStats::default());
        assert_eq!(totals.backend, BackendTag::Dense);
        assert_eq!(totals.total(), 10);
    }

    #[test]
    fn tiers_round_trip_through_json() {
        let report = sample();
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.tiers, report.tiers);
        assert_eq!(parsed.cells[0].tiers.backend, BackendTag::Tableau);
        assert_eq!(parsed.cells[0].tiers.error_free, 40);
        assert_eq!(parsed.cells[0].tiers.pauli_prop, 12);
        assert_eq!(parsed.cells[0].tiers.memo_hits, 3);
        assert_eq!(parsed.cells[1].tiers, TierStats::default());
        // A document missing the tier fields (e.g. a v2-shaped object) is
        // rejected, not defaulted.
        let stripped = report.to_json().replace(
            "\"pauli_prop\": 12, \"checkpointed\": 8, \"full_replay\": 4, \
             \"memo_hits\": 3, \"memo_misses\": 2",
            "\"checkpointed\": 8, \"full_replay\": 4",
        );
        assert!(Report::from_json(&stripped).is_err());
    }
}
