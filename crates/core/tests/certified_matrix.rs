//! The certified scenario matrix: every scenario configuration at two SoC
//! sizes runs Alg. 2 in sessions forked from one certifying prefix per
//! size (the sharing shape the portfolio uses). An independent RUP checker
//! must accept every conclusive solver answer: each learnt clause and each
//! Unsat core is RUP, each model satisfies the clauses. Verdicts must be
//! the known ones, patched cells must end at the known |S|, and every
//! Vulnerable counterexample must replay on the concrete simulator. The
//! patched cells' firmware-constraint obligations are proved on forks of
//! the same prefix, and their answers are certified too. Every Secure
//! report must add up (its removed atoms and |S| make up `S_not_victim`)
//! and its final set must pass `UpecAnalysis::certify`. The checker must
//! not steer the search: at 8 words a plain run gives the same trajectory,
//! counter for counter.
//!
//! At 16 words the matrix runs on plain sessions, with the same verdict,
//! replay, |S| and certificate checks.
//!
//! The second half pins the resource-governance paths: budget interrupts
//! and the `ExhaustBudget`/`Cancel` chaos faults must still surface as
//! clean `Inconclusive` verdicts while the adaptive-restart/tiered-reduction
//! code is driving the search.

use std::sync::{Arc, Mutex};

use ssc_sat::chaos::{self, ChaosPlan, Fault, Site};
use ssc_sat::SolverStats;
use ssc_soc::{Soc, SocConfig};
use upec_ssc::{
    replay_on_simulator, Budget, InconclusiveCause, InconclusiveReport, ProductArtifact, Session,
    SessionPrefix, UpecAnalysis, UpecSpec, Verdict,
};

/// The formal twin of each simulation scenario: `(name, spec, leaky)` —
/// same matrix as the bench portfolio.
fn scenario_specs() -> Vec<(&'static str, UpecSpec, bool)> {
    let hwpe_memory_patched = {
        let fixed = UpecSpec::soc_fixed();
        let mut spec = UpecSpec::soc_vulnerable_hwpe_memory();
        spec.range_in_device = fixed.range_in_device;
        spec.constraints = fixed.constraints;
        spec
    };
    vec![
        ("dma_timer/leaky", UpecSpec::soc_vulnerable(), true),
        ("hwpe_memory/leaky", UpecSpec::soc_vulnerable_hwpe_memory(), true),
        ("dma_timer/patched", UpecSpec::soc_fixed(), false),
        ("hwpe_memory/patched", hwpe_memory_patched, false),
    ]
}

/// Runs Alg. 2 on every scenario at `words` in forks of one prefix, built
/// certifying or plain. Asserts each verdict kind, replays each
/// Vulnerable counterexample on the simulator, proves each patched cell's
/// firmware constraints inductive in another fork, and certifies each
/// Secure report.
fn run_matrix(words: u32, certifying: bool) -> Vec<(&'static str, Verdict)> {
    let soc = Soc::build(SocConfig::verification_sized(words, words));
    let seed = UpecSpec::soc_vulnerable();
    let art = Arc::new(ProductArtifact::for_spec(&soc.netlist, &seed).expect("spec ok"));
    let prefix = if certifying {
        SessionPrefix::build_certifying(&art, &seed, 1)
    } else {
        SessionPrefix::build(&art, &seed, 1)
    }
    .expect("spec ok");
    let mut cells = Vec::new();
    for (name, spec, leaky) in scenario_specs() {
        let an = UpecAnalysis::bind(art.clone(), spec).expect("scenario binds");
        let v = an.alg2_with_session(Session::with_prefix(&an, prefix.fork()));
        assert_eq!(v.is_vulnerable(), leaky, "unexpected verdict on {name}@{words}: {v}");
        if let Verdict::Vulnerable(r) = &v {
            if let Err(e) = replay_on_simulator(&an, &r.cex) {
                panic!("{name}@{words}: {e}");
            }
        }
        if !leaky {
            // The soundness obligation of the patched cells' firmware
            // constraints, on a fork of the same prefix.
            let mut sess = Session::with_prefix(&an, prefix.fork());
            if let Err(e) = an.prove_constraints_inductive_in_session(&mut sess) {
                panic!("{name}@{words}: constraints not inductive: {e:?}");
            }
            let s = sess.solver_stats();
            assert!(s.solves > 0, "{name}@{words}: no constraint obligation was solved");
            let want = if certifying { s.solves - s.interrupts } else { 0 };
            assert_eq!(s.certified, want, "{name}@{words}: constraint answers certified");
        }
        if let Verdict::Secure(r) = &v {
            assert_eq!(r.final_set_size, r.final_set.len(), "{name}@{words}");
            let removed = &r.removed_atoms;
            let added_up = removed.len() + r.final_set_size == an.s_not_victim().len();
            assert!(added_up, "{name}@{words}: {removed:?} and |S| do not make S_not_victim");
            let certified = an.certify(r).unwrap_or_else(|e| panic!("{name}@{words}: {e}"));
            assert!(certified > 0, "{name}@{words}: nothing certified");
        }
        cells.push((name, v));
    }
    cells
}

/// The certifying matrix at `words`, with every answer certified, tier
/// promotions in every cell, chronological backtracks in the matrix, and
/// patched cells Secure at `final_set` atoms.
fn certified_matrix(words: u32, final_set: usize) -> Vec<(&'static str, Verdict)> {
    let cells = run_matrix(words, true);
    let mut chrono_backtracks = 0;
    for (name, v) in &cells {
        for it in v.iterations() {
            let s = it.solver;
            assert_eq!(
                s.certified,
                s.solves - s.interrupts,
                "{name}@{words}, iteration {}: an answer went uncertified",
                it.iteration
            );
        }
        let sum = |f: fn(&SolverStats) -> u64| -> u64 {
            v.iterations().iter().map(|it| f(&it.solver)).sum()
        };
        // The tiered learnt database is at work in every cell.
        assert!(sum(|s| s.tier_promotions) > 0, "{name}@{words}: no tier promotions");
        chrono_backtracks += sum(|s| s.chrono_backtracks);
        if let Verdict::Secure(r) = v {
            assert_eq!(r.final_set_size, final_set, "{name}@{words}: |S|");
            assert!(sum(|s| s.certified) > 0, "{name}@{words}: nothing certified");
        }
    }
    assert!(chrono_backtracks > 0, "no chronological backtrack in the {words}-word matrix");
    cells
}

/// Everything a run decides and counts, except wall clock and the
/// `certified` counter.
fn trajectory(v: &Verdict) -> Vec<String> {
    let head = match v {
        Verdict::Secure(r) => {
            format!("secure |S|={} removed={:?}", r.final_set_size, r.removed_atoms)
        }
        Verdict::Vulnerable(r) => {
            let diffs: Vec<_> =
                r.cex.diffs.iter().map(|d| (&d.name, d.value_a, d.value_b)).collect();
            format!("vulnerable at={} {diffs:?}", r.cex.at_cycle)
        }
        Verdict::Inconclusive(r) => format!("inconclusive {}", r.cause.code()),
    };
    let iterations = v.iterations().iter().map(|it| {
        let solver = SolverStats { certified: 0, ..it.solver };
        format!(
            "i{} w{} s{} r{} e{} g{} {solver:?}",
            it.iteration, it.window, it.set_size, it.removed, it.encoded_nodes, it.goal_disjuncts
        )
    });
    std::iter::once(head).chain(iterations).collect()
}

#[test]
fn every_answer_is_certified_at_8_words_and_the_search_is_unchanged() {
    let certified = certified_matrix(8, 42);
    let plain = run_matrix(8, false);
    for ((name, c), (_, p)) in certified.iter().zip(&plain) {
        assert!(
            p.iterations().iter().all(|it| it.solver.certified == 0),
            "{name}: plain certified"
        );
        assert_eq!(trajectory(c), trajectory(p), "{name}@8: the checker changed the search");
    }
}

#[test]
fn every_answer_is_certified_at_12_words() {
    certified_matrix(12, 50);
}

/// The largest matrix size, on plain sessions: verdict kinds, replay of
/// both leaky cells (in `run_matrix`), and |S| = 58 on both patched cells.
#[test]
fn plain_matrix_at_16_words() {
    for (name, v) in run_matrix(16, false) {
        if let Verdict::Secure(r) = &v {
            assert_eq!(r.final_set_size, 58, "{name}@16: |S|");
        }
    }
}

/// The chaos registry is a process global; the chaos tests in this binary
/// serialize on this.
static SERIAL: Mutex<()> = Mutex::new(());

/// Chaos key for this file's tagged solves — distinct from the default
/// tag 0 every other solve in this binary carries, so an armed plan here
/// can never hit a concurrently running test.
const CHAOS_TAG: u64 = 0xE13C;

#[test]
fn budget_interrupt_surfaces_as_inconclusive() {
    // A conflict budget far below what the secure fixpoint needs: the run
    // must stop as `Inconclusive(Interrupted)` — never panic, never decide
    // — while the restart/reduction machinery drives the search, and a
    // counter-based budget must stop it at the same point every time.
    let soc = Soc::build(SocConfig::verification_sized(8, 8));
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    let run = || match an.alg2_budgeted(Budget::unlimited().with_conflicts(3)) {
        Verdict::Inconclusive(r) => r,
        other => panic!("a 3-conflict budget cannot complete the secure proof: {other}"),
    };
    let steps = |r: &InconclusiveReport| -> Vec<_> {
        r.iterations
            .iter()
            .map(|it| {
                (it.window, it.set_size, it.removed, it.solver.conflicts, it.solver.propagations)
            })
            .collect()
    };
    let first = run();
    let InconclusiveCause::Interrupted(int) = &first.cause else {
        panic!("expected an interrupt, got {}", first.cause);
    };
    assert!(int.cause.is_deterministic(), "a conflict budget interrupts deterministically");
    assert!(!first.iterations.is_empty(), "the trajectory up to the interrupt must be recorded");
    assert_eq!(steps(&run()), steps(&first), "a second run must stop at the same point");
}

#[test]
fn chaos_exhaust_budget_yields_inconclusive_not_wrong_verdict() {
    let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let soc = Soc::build(SocConfig::verification_sized(8, 8));
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    let _guard = chaos::arm(ChaosPlan {
        site: Site::Solve,
        key: Some(CHAOS_TAG),
        fault: Fault::ExhaustBudget,
    });
    let v = an.alg2_budgeted(Budget::unlimited().with_tag(CHAOS_TAG));
    assert!(chaos::fired() >= 1, "the exhaustion must actually have been injected");
    match v {
        Verdict::Inconclusive(r) => assert_eq!(r.cause.code(), "interrupt:conflict-budget"),
        other => panic!("an exhausted solve must never decide: {other}"),
    }
}

#[test]
fn chaos_cancel_yields_inconclusive_not_wrong_verdict() {
    let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let soc = Soc::build(SocConfig::verification_sized(8, 8));
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    let _guard = chaos::arm(ChaosPlan {
        site: Site::Solve,
        key: Some(CHAOS_TAG),
        fault: Fault::Cancel,
    });
    let v = an.alg2_budgeted(Budget::unlimited().with_tag(CHAOS_TAG));
    assert!(chaos::fired() >= 1, "the cancellation must actually have been injected");
    match v {
        Verdict::Inconclusive(r) => assert_eq!(r.cause.code(), "interrupt:cancelled"),
        other => panic!("a cancelled solve must never decide: {other}"),
    }
}
