//! Budget, cancellation and interrupt behaviour of the solver: exhausting
//! any budget yields `SolveResult::Unknown` (never a panic, never a wrong
//! answer), interrupts are deterministic for the counter-based causes, and
//! an interrupted solver stays fully usable.

use ssc_sat::{Budget, CancelToken, InterruptCause, SolveResult, Solver, Var};
use std::time::{Duration, Instant};

/// PHP(pigeons, holes): unsatisfiable for pigeons > holes, and hard enough
/// to guarantee plenty of conflicts — the canonical budget-exercising load.
fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
    let p: Vec<Vec<Var>> = (0..pigeons).map(|_| s.new_vars(holes)).collect();
    for pigeon in &p {
        s.add_clause(pigeon.iter().map(|v| v.pos()));
    }
    for hole in 0..holes {
        for (i, pi) in p.iter().enumerate() {
            for pj in &p[i + 1..] {
                s.add_clause([pi[hole].neg(), pj[hole].neg()]);
            }
        }
    }
}

fn expect_interrupt(r: SolveResult, cause: InterruptCause) -> ssc_sat::Interrupt {
    match r {
        SolveResult::Unknown(int) => {
            assert_eq!(int.cause, cause);
            int
        }
        other => panic!("expected Unknown({cause:?}), got {other:?}"),
    }
}

#[test]
fn conflict_budget_interrupts_instead_of_panicking() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 7, 6);
    s.set_conflict_budget(Some(10));
    let int = expect_interrupt(s.solve(&[]), InterruptCause::Conflicts);
    assert_eq!(int.stats.conflicts, 11, "interrupts on the first conflict past the budget");
    assert_eq!(int.stats.interrupts, 1);
    assert_eq!(s.stats().interrupts, 1);
    // Removing the limit completes the proof on the same solver instance.
    s.set_conflict_budget(None);
    assert_eq!(s.solve(&[]), SolveResult::Unsat);
}

#[test]
fn propagation_budget_interrupts() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 7, 6);
    s.set_budget(Budget::unlimited().with_propagations(50));
    let int = expect_interrupt(s.solve(&[]), InterruptCause::Propagations);
    assert!(int.stats.propagations >= 50);
    s.set_budget(Budget::unlimited());
    assert_eq!(s.solve(&[]), SolveResult::Unsat);
}

#[test]
fn pre_raised_cancel_token_stops_before_any_work() {
    let token = CancelToken::new();
    token.cancel();
    let mut s = Solver::new();
    pigeonhole(&mut s, 7, 6);
    let int = expect_interrupt(
        {
            s.set_budget(Budget::unlimited().with_cancel(&token));
            s.solve(&[])
        },
        InterruptCause::Cancelled,
    );
    assert_eq!(int.stats.conflicts, 0, "cancelled before searching");
    // A fresh token restores normal operation.
    s.set_budget(Budget::unlimited().with_cancel(&CancelToken::new()));
    assert_eq!(s.solve(&[]), SolveResult::Unsat);
}

#[test]
fn past_deadline_interrupts() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 7, 6);
    s.set_budget(Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1)));
    expect_interrupt(s.solve(&[]), InterruptCause::Deadline);
    s.set_budget(Budget::unlimited());
    assert_eq!(s.solve(&[]), SolveResult::Unsat);
}

#[test]
fn counter_budget_interrupts_are_deterministic() {
    let run = |budget: Budget| {
        let mut s = Solver::new();
        pigeonhole(&mut s, 8, 7);
        s.set_budget(budget);
        s.solve(&[])
    };
    let a = run(Budget::unlimited().with_conflicts(25));
    let b = run(Budget::unlimited().with_conflicts(25));
    assert_eq!(a, b, "same budget + same formula -> bit-identical interrupt");
    let c = run(Budget::unlimited().with_propagations(2000));
    let d = run(Budget::unlimited().with_propagations(2000));
    assert_eq!(c, d);
}

#[test]
fn budget_never_flips_an_easy_answer() {
    // A solve that needs no conflicts completes even under a zero budget.
    let mut s = Solver::new();
    let (a, b) = (s.new_var(), s.new_var());
    s.add_clause([a.pos(), b.pos()]);
    s.add_clause([a.neg()]);
    s.set_conflict_budget(Some(0));
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    assert_eq!(s.model_value(b.pos()), Some(true));
    assert_eq!(s.solve(&[b.neg()]), SolveResult::Unsat);
    assert_eq!(s.stats().interrupts, 0);
}

#[test]
fn interrupted_solver_remains_incrementally_usable() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 7, 6);
    s.set_conflict_budget(Some(5));
    expect_interrupt(s.solve(&[]), InterruptCause::Conflicts);
    // Adding clauses and re-solving after an interrupt is fully supported.
    let extra = s.new_var();
    s.add_clause([extra.pos()]);
    s.set_conflict_budget(None);
    assert_eq!(s.solve(&[extra.pos()]), SolveResult::Unsat);
    let mut unbudgeted = Solver::new();
    pigeonhole(&mut unbudgeted, 7, 6);
    assert_eq!(unbudgeted.solve(&[]), SolveResult::Unsat, "oracle agrees");
}

#[test]
fn cancel_token_is_shared_across_clones() {
    let token = CancelToken::new();
    let clone = token.clone();
    assert!(!clone.is_cancelled());
    token.cancel();
    assert!(clone.is_cancelled());
}

#[test]
fn budget_interrupt_accounting_in_stats_delta() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 7, 6);
    s.set_conflict_budget(Some(3));
    let before = s.stats();
    expect_interrupt(s.solve(&[]), InterruptCause::Conflicts);
    let delta = s.stats().delta_since(&before);
    assert_eq!(delta.interrupts, 1);
    assert_eq!(delta.solves, 1);
    assert_eq!(delta.conflicts, 4);
}

#[test]
fn interrupt_during_level0_propagation_keeps_the_queue() {
    // Unsat: the four (x0 ∨ ±a ∨ ±b) clauses force x0, which forces x1
    // and ¬x2 against (¬x1 ∨ x2). The unit x0 is learnt, so its
    // consequences are propagated at level 0 inside the solve, where a
    // propagation budget can stop them halfway. The literals left in the
    // queue must still be propagated by the next solve: a clause whose two
    // watches both fall among them is never visited otherwise. The solver
    // certifies, so an Unsat answer resting on a dropped queue is rejected
    // as well.
    for budget in 1..=40 {
        let mut s = Solver::certifying();
        let [x0, a, b, x1, x2] = [(); 5].map(|()| s.new_var());
        for (sa, sb) in [(false, false), (false, true), (true, false), (true, true)] {
            s.add_clause([x0.pos(), a.lit(sa), b.lit(sb)]);
        }
        s.add_clause([x0.neg(), x1.pos()]);
        s.add_clause([x0.neg(), x2.neg()]);
        s.add_clause([x1.neg(), x2.pos()]);
        s.set_budget(Budget::unlimited().with_propagations(budget));
        let first = s.solve(&[]);
        assert!(
            matches!(first, SolveResult::Unsat | SolveResult::Unknown(_)),
            "budget {budget}: {first:?}"
        );
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(&[]), SolveResult::Unsat, "budget {budget}");
        let st = s.stats();
        assert_eq!(st.certified, st.solves - st.interrupts, "budget {budget}");
    }
}
