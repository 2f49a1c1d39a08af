//! Crash-recovery suite for the write-ahead sweep journal.
//!
//! Simulates the crash in-process with [`RunControl`]'s deterministic
//! cell-count cut (the CI smoke test delivers a real SIGKILL), then
//! resumes and checks the invariant the journal exists for: a resumed
//! run's report is canonically bit-identical to an uninterrupted one.
//! The battery also covers the hostile-file cases — torn tails,
//! checksum corruption, duplicates, foreign plans, files that are not
//! journals at all — and disk-full degradation mid-sweep.

use nisq::compiler::CompileError;
use nisq::exp::{fnv64, Journal, JournalError};
use nisq::prelude::*;
use std::fs;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nisq-journal-resume-test");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// An 8-cell plan (2 benchmarks x 2 mappers x 2 days) small enough to
/// recompute many times. Per-cell sim seeds stay at their deterministic
/// defaults, so every run of it is bit-identical.
fn plan() -> SweepPlan {
    SweepPlan::new()
        .benchmark(Benchmark::Bv4)
        .benchmark(Benchmark::Hs2)
        .config("Qiskit", CompilerConfig::qiskit())
        .config("R-SMT*", CompilerConfig::r_smt_star(0.5))
        .days(vec![0, 1])
        .with_trials(32)
}

fn reference_canonical(plan: &SweepPlan) -> String {
    Session::new().run(plan).unwrap().to_json_line_canonical()
}

/// Frames a payload the way the journal does — for forging records.
fn frame(payload: &str) -> String {
    format!(
        "J1 {} {:016x} {payload}\n",
        payload.len(),
        fnv64(payload.as_bytes())
    )
}

#[test]
fn resume_is_bit_identical_at_every_kill_point() {
    let plan = plan();
    let reference = reference_canonical(&plan);
    for kill_after in [1usize, 3, 5, 7] {
        let path = temp_path(&format!("kill-{kill_after}.journal"));
        let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
        let control = RunControl::unbounded().with_stop_after_cells(kill_after);
        let cut = Session::new()
            .run_journaled(&plan, &control, &mut journal)
            .unwrap();
        assert!(!cut.completed);
        assert_eq!(cut.report.cells.len(), kill_after);
        drop(journal);

        // A fresh session and journal stand in for the restarted process.
        let mut journal = Journal::resume(&path, plan.machine_seed(), plan.trials()).unwrap();
        assert_eq!(journal.completed_cells(), kill_after);
        assert_eq!(journal.recovery().truncated_bytes, 0);
        let resumed = Session::new()
            .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
            .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.report.resumed_cells, kill_after as u64);
        assert_eq!(resumed.report.cache.journal_hits, kill_after as u64);
        assert_eq!(resumed.report.journal_hash, journal.path_hash());
        assert_eq!(resumed.report.to_json_line_canonical(), reference);
    }
}

#[test]
fn torn_trailing_record_is_truncated_and_recomputed() {
    let plan = plan();
    let reference = reference_canonical(&plan);
    let path = temp_path("torn.journal");
    let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
    let control = RunControl::unbounded().with_stop_after_cells(4);
    Session::new()
        .run_journaled(&plan, &control, &mut journal)
        .unwrap();
    drop(journal);

    // A crash mid-append leaves a half-written record with no terminator.
    let intact = fs::read(&path).unwrap();
    let mut torn = intact.clone();
    torn.extend_from_slice(b"J1 242 0123456789abcdef {\"kind\": \"cell\", \"key\": {");
    fs::write(&path, &torn).unwrap();

    let mut journal = Journal::resume(&path, plan.machine_seed(), plan.trials()).unwrap();
    assert_eq!(
        journal.recovery().truncated_bytes,
        (torn.len() - intact.len()) as u64
    );
    assert_eq!(journal.completed_cells(), 4);
    // Truncation restored the intact prefix byte for byte.
    assert_eq!(fs::read(&path).unwrap(), intact);
    let resumed = Session::new()
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert_eq!(resumed.report.resumed_cells, 4);
    assert_eq!(resumed.report.to_json_line_canonical(), reference);
}

#[test]
fn checksum_corrupt_trailing_record_is_truncated_and_recomputed() {
    let plan = plan();
    let reference = reference_canonical(&plan);
    let path = temp_path("corrupt.journal");
    let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
    let control = RunControl::unbounded().with_stop_after_cells(3);
    Session::new()
        .run_journaled(&plan, &control, &mut journal)
        .unwrap();
    drop(journal);

    // Flip one payload byte of the final (cell) record: framing still
    // reads, the checksum does not.
    let mut bytes = fs::read(&path).unwrap();
    let flip_at = bytes.len() - 3;
    bytes[flip_at] ^= 0x01;
    fs::write(&path, &bytes).unwrap();

    let mut journal = Journal::resume(&path, plan.machine_seed(), plan.trials()).unwrap();
    assert!(journal.recovery().truncated_bytes > 0);
    // The corrupt record was the third cell; its intent now dangles.
    assert_eq!(journal.completed_cells(), 2);
    assert_eq!(journal.recovery().orphan_intents, 1);
    let resumed = Session::new()
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert_eq!(resumed.report.resumed_cells, 2);
    assert_eq!(resumed.report.to_json_line_canonical(), reference);
}

#[test]
fn empty_and_missing_journals_behave_like_fresh_ones() {
    let plan = plan();
    let reference = reference_canonical(&plan);
    for name in ["empty.journal", "missing.journal"] {
        let path = temp_path(name);
        if name.starts_with("empty") {
            fs::write(&path, b"").unwrap();
        } else {
            let _ = fs::remove_file(&path);
        }
        let mut journal = Journal::resume(&path, plan.machine_seed(), plan.trials()).unwrap();
        assert_eq!(journal.completed_cells(), 0);
        assert_eq!(journal.recovery(), Default::default());
        let resumed = Session::new()
            .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
            .unwrap();
        assert_eq!(resumed.report.resumed_cells, 0);
        assert_eq!(resumed.report.to_json_line_canonical(), reference);
    }
}

#[test]
fn journal_from_a_different_plan_misses_every_cell() {
    let journaled_plan = plan();
    let path = temp_path("foreign.journal");
    let mut journal = Journal::create(
        &path,
        journaled_plan.machine_seed(),
        journaled_plan.trials(),
    )
    .unwrap();
    Session::new()
        .run_journaled(&journaled_plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    drop(journal);

    // A different trial count changes every cell key, so nothing matches —
    // the run recomputes everything and still reports correctly.
    let other_plan = plan().with_trials(64);
    let reference = reference_canonical(&other_plan);
    let mut journal =
        Journal::resume(&path, other_plan.machine_seed(), other_plan.trials()).unwrap();
    assert_eq!(journal.completed_cells(), 8);
    let resumed = Session::new()
        .run_journaled(&other_plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert_eq!(resumed.report.resumed_cells, 0);
    assert_eq!(resumed.report.to_json_line_canonical(), reference);
    // The foreign records stay on file alongside the new plan's cells.
    assert_eq!(journal.completed_cells(), 16);
}

#[test]
fn duplicate_cell_records_resolve_last_write_wins() {
    let plan = SweepPlan::new()
        .benchmark(Benchmark::Bv4)
        .config("Qiskit", CompilerConfig::qiskit())
        .with_trials(32);
    let path = temp_path("duplicate.journal");
    let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
    Session::new()
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    drop(journal);

    // Forge a duplicate of the completed cell record with a doctored
    // success rate (correctly framed, so it parses and checksums).
    let text = fs::read_to_string(&path).unwrap();
    let cell_line = text
        .lines()
        .rev()
        .find(|line| line.contains("\"kind\": \"cell\""))
        .unwrap();
    let payload = &cell_line[cell_line.find('{').unwrap()..];
    let marker = "\"success_rate\": ";
    let start = payload.find(marker).unwrap() + marker.len();
    let end = start + payload[start..].find(',').unwrap();
    let doctored = format!("{}0.125{}", &payload[..start], &payload[end..]);
    fs::write(&path, format!("{text}{}", frame(&doctored))).unwrap();

    let mut journal = Journal::resume(&path, plan.machine_seed(), plan.trials()).unwrap();
    assert_eq!(journal.completed_cells(), 1);
    let resumed = Session::new()
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert_eq!(resumed.report.resumed_cells, 1);
    assert_eq!(resumed.report.cells[0].success_rate, Some(0.125));
}

#[test]
fn disk_full_mid_sweep_degrades_without_losing_the_report() {
    let plan = plan();
    let reference = reference_canonical(&plan);
    let path = temp_path("degraded.journal");
    let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
    // Allow header + intent + cell + the second cell's intent, then fail:
    // the second cell's completion is lost, journaling stops, the sweep
    // does not. One thread keeps one cell in flight, so the counts below
    // are exact.
    journal.fail_appends_after(4);
    let outcome = Session::new()
        .with_threads(1)
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert!(outcome.completed);
    assert_eq!(outcome.report.cells.len(), 8);
    assert!(journal.degraded().unwrap().contains("no space left"));
    assert_eq!(outcome.report.to_json_line_canonical(), reference);
    drop(journal);

    // What made it to disk is still a valid journal: one completed cell,
    // one orphan intent, and a clean resume that finishes the plan.
    let mut journal = Journal::resume(&path, plan.machine_seed(), plan.trials()).unwrap();
    assert_eq!(journal.completed_cells(), 1);
    assert_eq!(journal.recovery().orphan_intents, 1);
    assert_eq!(journal.recovery().truncated_bytes, 0);
    let resumed = Session::new()
        .with_threads(1)
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert_eq!(resumed.report.resumed_cells, 1);
    assert_eq!(resumed.report.to_json_line_canonical(), reference);
}

#[test]
fn disk_full_mid_parallel_sweep_keeps_a_consistent_journal() {
    let plan = plan();
    let reference = reference_canonical(&plan);
    let path = temp_path("degraded-parallel.journal");
    let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
    journal.fail_appends_after(4);
    let outcome = Session::new()
        .with_threads(4)
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert!(outcome.completed);
    assert!(journal.degraded().unwrap().contains("no space left"));
    assert_eq!(outcome.report.to_json_line_canonical(), reference);
    drop(journal);

    // Several cells were in flight when appends failed, so which records
    // landed depends on scheduling. Whatever did is the header plus three
    // records, each a completed cell, its intent or an orphan intent.
    assert_eq!(Journal::inspect(&path).unwrap().records, 4);
    let mut journal = Journal::resume(&path, plan.machine_seed(), plan.trials()).unwrap();
    let completed = journal.completed_cells();
    assert_eq!(2 * completed + journal.recovery().orphan_intents, 3);
    assert_eq!(journal.recovery().truncated_bytes, 0);
    let resumed = Session::new()
        .with_threads(4)
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert_eq!(resumed.report.resumed_cells, completed as u64);
    assert_eq!(resumed.report.to_json_line_canonical(), reference);
}

#[test]
fn journaled_runs_are_thread_invariant() {
    let plan = plan();
    let reference = reference_canonical(&plan);
    for threads in [1usize, 4] {
        let run = Session::new().with_threads(threads).run(&plan).unwrap();
        assert_eq!(run.to_json_line_canonical(), reference, "{threads} threads");

        let path = temp_path(&format!("threads-{threads}.journal"));
        let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
        let full = Session::new()
            .with_threads(threads)
            .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
            .unwrap();
        assert_eq!(full.report.to_json_line_canonical(), reference);

        // A cut after three cells reports exactly those three and
        // journals exactly three completed cells.
        let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
        let control = RunControl::unbounded().with_stop_after_cells(3);
        let cut = Session::new()
            .with_threads(threads)
            .run_journaled(&plan, &control, &mut journal)
            .unwrap();
        assert!(!cut.completed);
        assert_eq!(cut.report.cells.len(), 3);
        assert_eq!(journal.completed_cells(), 3);
        drop(journal);
        assert_eq!(Journal::inspect(&path).unwrap().cell_records, 3);

        let mut journal = Journal::resume(&path, plan.machine_seed(), plan.trials()).unwrap();
        let resumed = Session::new()
            .with_threads(threads)
            .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
            .unwrap();
        assert_eq!(resumed.report.resumed_cells, 3);
        assert_eq!(resumed.report.to_json_line_canonical(), reference);
    }
}

#[test]
fn compile_error_still_journals_the_cells_before_it() {
    // The ring-2 cells come after every IBMQ16 cell in plan order, and
    // building a ring-2 machine fails.
    let plan = plan().topologies([TopologySpec::Ibmq16, TopologySpec::Ring { n: 2 }]);
    let path = temp_path("compile-error.journal");
    let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
    let result =
        Session::new()
            .with_threads(4)
            .run_journaled(&plan, &RunControl::unbounded(), &mut journal);
    assert!(matches!(result, Err(CompileError::Machine(_))));
    assert_eq!(journal.completed_cells(), 8);
    drop(journal);

    // A retry of the valid part replays every one of them.
    let valid = plan.topologies([TopologySpec::Ibmq16]);
    let mut journal = Journal::resume(&path, valid.machine_seed(), valid.trials()).unwrap();
    let resumed = Session::new()
        .run_journaled(&valid, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert_eq!(resumed.report.resumed_cells, 8);
    assert_eq!(
        resumed.report.to_json_line_canonical(),
        reference_canonical(&valid)
    );
}

#[test]
fn pipeline_compile_error_journals_exactly_the_cells_before_it() {
    // A 17-qubit circuit cannot be placed on the 16-qubit IBMQ16. As the
    // plan's second circuit, its first cell is the third in plan order;
    // the cells after it compile in parallel but are discarded.
    let mut wide = Circuit::new(17);
    for q in 0..17 {
        wide.x(Qubit(q));
    }
    wide.measure_all();
    let with_wide = SweepPlan::new()
        .benchmark(Benchmark::Bv4)
        .circuit(CircuitSpec::new("wide17", wide).with_expected(vec![true; 17]))
        .benchmark(Benchmark::Hs2)
        .config("Qiskit", CompilerConfig::qiskit())
        .config("R-SMT*", CompilerConfig::r_smt_star(0.5))
        .days(vec![0, 1])
        .with_trials(32);
    let mut session = Session::new().with_threads(4);
    assert!(matches!(
        session.run(&with_wide),
        Err(CompileError::CircuitTooLarge { .. })
    ));
    // Only the two cells before it and the failing request count; later
    // compiles are dropped.
    assert_eq!(session.cache_stats().compile_requests, 3);

    let path = temp_path("pipeline-error.journal");
    let mut journal = Journal::create(&path, with_wide.machine_seed(), with_wide.trials()).unwrap();
    let result = Session::new().with_threads(4).run_journaled(
        &with_wide,
        &RunControl::unbounded(),
        &mut journal,
    );
    assert!(matches!(result, Err(CompileError::CircuitTooLarge { .. })));
    assert_eq!(journal.completed_cells(), 2);
    drop(journal);

    // A retry without the wide circuit replays both cells byte-identically.
    let valid = plan();
    let mut journal = Journal::resume(&path, valid.machine_seed(), valid.trials()).unwrap();
    let resumed = Session::new()
        .with_threads(4)
        .run_journaled(&valid, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert_eq!(resumed.report.resumed_cells, 2);
    assert_eq!(
        resumed.report.to_json_line_canonical(),
        reference_canonical(&valid)
    );
}

#[test]
fn inspect_summarizes_without_touching_the_file() {
    let plan = plan();
    let path = temp_path("inspect.journal");
    let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
    let control = RunControl::unbounded().with_stop_after_cells(4);
    Session::new()
        .run_journaled(&plan, &control, &mut journal)
        .unwrap();
    drop(journal);

    let intact = fs::read(&path).unwrap();
    let info = Journal::inspect(&path).unwrap();
    assert_eq!(info.machine_seed, Some(plan.machine_seed()));
    assert_eq!(info.trials, Some(u64::from(plan.trials())));
    // Header + 4 intents + 4 cells.
    assert_eq!(info.records, 9);
    assert_eq!(info.cell_records, 4);
    assert_eq!(info.intent_records, 4);
    assert_eq!(info.unique_cells, 4);
    assert_eq!(info.orphan_intents, 0);
    // Compaction would drop the 4 completed intents.
    assert_eq!(info.dead_records, 4);
    assert_eq!(info.torn_tail_offset, None);
    assert_eq!(info.file_bytes, intact.len() as u64);
    // Inspection is read-only, even for a torn file.
    fs::write(&path, [&intact[..], b"J1 99 0000 {half"].concat()).unwrap();
    let info = Journal::inspect(&path).unwrap();
    assert_eq!(info.torn_tail_offset, Some(intact.len() as u64));
    assert_eq!(info.unique_cells, 4);
    assert_eq!(
        fs::read(&path).unwrap().len(),
        intact.len() + b"J1 99 0000 {half".len()
    );
    // Not-a-journal files are typed errors here too.
    let bogus = temp_path("inspect-bogus.txt");
    fs::write(&bogus, b"notes\n").unwrap();
    assert!(matches!(
        Journal::inspect(&bogus),
        Err(JournalError::NotAJournal { .. })
    ));
}

#[test]
fn compact_drops_dead_records_and_preserves_resume_identity() {
    let plan = plan();
    let reference = reference_canonical(&plan);
    let path = temp_path("compact.journal");
    let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
    Session::new()
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    // A full 8-cell run leaves 8 completed intents as dead weight.
    assert_eq!(journal.dead_records(), 8);
    drop(journal);

    let before = fs::metadata(&path).unwrap().len();
    let info = Journal::compact(&path).unwrap();
    assert_eq!(info.kept_cells, 8);
    assert_eq!(info.dropped_records, 8);
    assert_eq!(info.bytes_before, before);
    assert!(info.bytes_after < info.bytes_before);
    assert_eq!(fs::metadata(&path).unwrap().len(), info.bytes_after);
    // No leftover temporary file.
    assert!(!path.with_extension("journal.compact-tmp").exists());

    // The compacted journal scans clean and resumes bit-identically.
    let inspected = Journal::inspect(&path).unwrap();
    assert_eq!(inspected.records, 9);
    assert_eq!(inspected.dead_records, 0);
    assert_eq!(inspected.torn_tail_offset, None);
    let mut journal = Journal::resume(&path, plan.machine_seed(), plan.trials()).unwrap();
    assert_eq!(journal.completed_cells(), 8);
    let resumed = Session::new()
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert_eq!(resumed.report.resumed_cells, 8);
    assert_eq!(resumed.report.to_json_line_canonical(), reference);

    // Compacting the already-compact file drops nothing further.
    let again = Journal::compact(&path).unwrap();
    assert_eq!(again.dropped_records, 0);
    assert_eq!(again.kept_cells, 8);
}

#[test]
fn compact_in_place_resets_dead_tracking_mid_session() {
    let plan = plan();
    let reference = reference_canonical(&plan);
    let path = temp_path("compact-in-place.journal");
    let mut journal = Journal::create(&path, plan.machine_seed(), plan.trials()).unwrap();
    let control = RunControl::unbounded().with_stop_after_cells(5);
    Session::new()
        .run_journaled(&plan, &control, &mut journal)
        .unwrap();
    assert_eq!(journal.dead_records(), 5);
    assert!(journal.compact_in_place());
    assert_eq!(journal.dead_records(), 0);
    // The same open journal keeps appending after the in-place rewrite.
    let finished = Session::new()
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert!(finished.completed);
    assert_eq!(finished.report.resumed_cells, 5);
    assert_eq!(finished.report.to_json_line_canonical(), reference);
    drop(journal);
    let mut journal = Journal::resume(&path, plan.machine_seed(), plan.trials()).unwrap();
    assert_eq!(journal.completed_cells(), 8);
    let resumed = Session::new()
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert_eq!(resumed.report.to_json_line_canonical(), reference);
}

#[test]
fn absorb_reuses_completed_cells_across_journals() {
    let plan = plan();
    let reference = reference_canonical(&plan);
    let donor = temp_path("absorb-donor.journal");
    let mut journal = Journal::create(&donor, plan.machine_seed(), plan.trials()).unwrap();
    Session::new()
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    drop(journal);

    // A fresh journal absorbs all eight cells and replays them without
    // recomputation, canonically identical to an undisturbed run.
    let fresh = temp_path("absorb-fresh.journal");
    let _ = fs::remove_file(&fresh);
    let mut journal = Journal::create(&fresh, plan.machine_seed(), plan.trials()).unwrap();
    assert_eq!(journal.absorb(&donor).unwrap(), 8);
    assert_eq!(journal.completed_cells(), 8);
    // Absorbing again is a no-op: every key is already held.
    assert_eq!(journal.absorb(&donor).unwrap(), 0);
    let resumed = Session::new()
        .run_journaled(&plan, &RunControl::unbounded(), &mut journal)
        .unwrap();
    assert_eq!(resumed.report.resumed_cells, 8);
    assert_eq!(resumed.report.to_json_line_canonical(), reference);
    drop(journal);

    // Absorbing from a non-journal is a typed error that leaves the
    // absorbing journal unchanged.
    let bogus = temp_path("absorb-bogus.txt");
    fs::write(&bogus, b"notes\n").unwrap();
    let mut journal = Journal::resume(&fresh, plan.machine_seed(), plan.trials()).unwrap();
    let held = journal.completed_cells();
    assert!(journal.absorb(&bogus).is_err());
    assert_eq!(journal.completed_cells(), held);
}

#[test]
fn files_that_are_not_journals_are_refused_untouched() {
    let path = temp_path("not-a-journal.txt");
    let contents = b"just some notes\nnothing framed\n".to_vec();
    fs::write(&path, &contents).unwrap();
    let err = Journal::resume(&path, 2019, 32).unwrap_err();
    assert!(matches!(err, JournalError::NotAJournal { .. }), "{err}");
    assert!(err.to_string().contains("not a sweep journal"), "{err}");
    // Refusal must not modify the file.
    assert_eq!(fs::read(&path).unwrap(), contents);

    // Same for a journal-magic file carrying a foreign schema tag.
    let foreign = temp_path("foreign-schema.journal");
    let payload = "{\"kind\": \"header\", \"schema\": \"other-journal/v9\"}";
    fs::write(&foreign, frame(payload)).unwrap();
    let err = Journal::resume(&foreign, 2019, 32).unwrap_err();
    assert!(matches!(err, JournalError::NotAJournal { .. }), "{err}");
}
