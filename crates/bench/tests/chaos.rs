//! Fault-injection suite: deterministic chaos plans against the portfolio
//! runner.
//!
//! End to end: a portfolio run with an injected cell panic (and
//! separately, an exhausted budget or a forced cancellation) completes,
//! reports that cell as dead or inconclusive with a machine-readable
//! cause, and every *other* cell is bit-identical to an uninjected run.
//!
//! The chaos registry is process-global, so every test here serializes on
//! one mutex and arms its plan only inside the held section.

use std::sync::{Mutex, OnceLock, PoisonError};

use ssc_bench::chaos;
use ssc_bench::portfolio::{fingerprint, job_seed, run_portfolio, PortfolioReport};
use ssc_pool::Pool;
use upec_ssc::{InconclusiveReport, Verdict};

static SERIAL: Mutex<()> = Mutex::new(());

const SIZES: &[u32] = &[8];

/// The uninjected reference, one fingerprint line per cell: computed once
/// (under the serialization mutex, before the caller arms its plan) and
/// compared against by every injection test.
fn baseline() -> &'static [String] {
    static BASELINE: OnceLock<Vec<String>> = OnceLock::new();
    BASELINE.get_or_init(|| lines(&run_portfolio(&Pool::new(2), SIZES)))
}

fn lines(report: &PortfolioReport) -> Vec<String> {
    fingerprint(report).lines().map(str::to_string).collect()
}

/// Asserts that every cell but the one seeded `target` matches `reference`.
fn assert_survivors_match(report: &PortfolioReport, reference: &[String], target: u64) {
    let lines = lines(report);
    assert_eq!(lines.len(), reference.len(), "every cell keeps its matrix slot");
    for (entry, (line, ref_line)) in report.entries.iter().zip(lines.iter().zip(reference)) {
        if entry.seed != target {
            assert_eq!(
                line, ref_line,
                "surviving cell {}@{} (workers={}) must be bit-identical to the uninjected run",
                entry.scenario, entry.words, report.workers
            );
        }
    }
}

/// The targeted cell's verdict, which must be inconclusive.
fn inconclusive(report: &PortfolioReport, target: u64) -> &InconclusiveReport {
    let entry = report.entries.iter().find(|e| e.seed == target).expect("cell present");
    match &entry.result().verdict {
        Verdict::Inconclusive(r) => r,
        other => panic!("{}@{} must be inconclusive: {other}", entry.scenario, entry.words),
    }
}

#[test]
fn injected_cell_panic_is_isolated_and_survivors_match_uninjected_run() {
    let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    chaos::silence_injected_panics();
    let reference = baseline();
    let target = job_seed("dma_timer/patched", 8);

    // The same plan must hit the same cell on every pool size: injection
    // is keyed by the cell's seed, never by scheduling.
    for workers in [1, 4] {
        let _plan = chaos::arm(chaos::panic_at_cell(target));
        let report = run_portfolio(&Pool::new(workers), SIZES);
        assert!(chaos::fired() >= 1, "the plan must actually have fired");

        let dead: Vec<_> = report.entries.iter().filter(|e| e.outcome.is_err()).collect();
        assert_eq!(dead.len(), 1, "exactly the targeted cell dies (workers={workers})");
        assert_eq!((dead[0].scenario, dead[0].seed), ("dma_timer/patched", target));
        let Err(message) = &dead[0].outcome else { unreachable!() };
        assert!(
            chaos::is_injected_panic(message),
            "panic cause must be machine-readable: {message}"
        );
        assert_survivors_match(&report, reference, target);
    }
}

#[test]
fn exhausted_budget_reports_inconclusive_with_cause() {
    let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    chaos::silence_injected_panics();
    let reference = baseline();
    // A secure cell: proving security needs UNSAT answers, and UNSAT needs
    // conflicts, so a forced zero-conflict budget is guaranteed to bite.
    let target = job_seed("hwpe_memory/patched", 8);
    let _plan = chaos::arm(chaos::exhaust_cell_budget(target));

    let report = run_portfolio(&Pool::new(2), SIZES);
    assert!(chaos::fired() >= 1, "the exhaustion must actually have been injected");
    let r = inconclusive(&report, target);
    assert_eq!(r.cause.code(), "interrupt:conflict-budget");
    assert!(!r.iterations.is_empty(), "the trajectory up to the interrupt must be recorded");
    assert_survivors_match(&report, reference, target);
}

#[test]
fn forced_cancellation_reports_cancelled_without_work() {
    let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    chaos::silence_injected_panics();
    let target = job_seed("dma_timer/leaky", 8);
    let _plan = chaos::arm(chaos::cancel_cell(target));

    let report = run_portfolio(&Pool::new(1), SIZES);
    assert!(chaos::fired() >= 1);
    let r = inconclusive(&report, target);
    assert_eq!(r.cause.code(), "interrupt:cancelled");
    let int = r.cause.interrupt().expect("cause carries the interrupt record");
    assert_eq!(int.stats.conflicts, 0, "a pre-cancelled solve must do no search work");
}

#[test]
fn encode_path_panic_is_confined_by_try_run() {
    let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    chaos::silence_injected_panics();
    let _plan = chaos::arm(chaos::panic_at_encode());

    let out = Pool::new(1).try_run(1, |_| {
        let soc = ssc_soc::Soc::verification_view();
        let an = upec_ssc::UpecAnalysis::new(&soc.netlist, upec_ssc::UpecSpec::soc_fixed())
            .expect("spec matches the SoC");
        an.alg2()
    });
    match &out[0] {
        Err(p) => assert!(
            chaos::is_injected_panic(&p.message),
            "unexpected payload: {}",
            p.message
        ),
        Ok(v) => panic!("encode-path injection must have fired, got verdict {v}"),
    }
    assert_eq!(chaos::fired(), 1);
}
