//! Chronological backtracking: a deterministic instance whose first
//! learnt clause would backjump past more than `CHRONO_LEVELS` decision
//! levels. The solver backtracks one level instead and asserts out of
//! trail order. It must still reach the right answer, with a model that
//! satisfies every clause, and an assumption core that is Unsat on its
//! own. Every solver here certifies, so each learnt clause and each answer
//! is also checked by the RUP checker.

use ssc_sat::{Lit, SolveResult, Solver, Var, CHRONO_LEVELS};

/// Unconstrained variables decided between `x` and the contradiction.
const PADDING: usize = CHRONO_LEVELS as usize + 20;

struct Instance {
    solver: Solver,
    clauses: Vec<Vec<Lit>>,
    x: Var,
    g: Var,
}

/// `x` is forced: the four (x ∨ ±y ∨ ±z) clauses are a contradiction
/// under ¬x. The decision order is `g`, `x` (decided negative, the
/// default phase), the padding variables, then `y`, so the first
/// conflict happens above all the padding and its learnt clause (x ∨ y)
/// jumps back to `x`'s level. With `guard`, the clause (¬x ∨ ¬g) makes
/// the assumption `g` imply ¬x, and the formula is Unsat under `g`.
fn instance(guard: bool) -> Instance {
    let mut solver = Solver::certifying();
    let g = solver.new_var();
    let x = solver.new_var();
    let padding = solver.new_vars(PADDING);
    let (y, z) = (solver.new_var(), solver.new_var());
    let mut clauses = Vec::new();
    for (sy, sz) in [(false, false), (false, true), (true, false), (true, true)] {
        clauses.push(vec![x.pos(), y.lit(sy), z.lit(sz)]);
    }
    if guard {
        clauses.push(vec![x.neg(), g.neg()]);
    }
    for c in &clauses {
        assert!(solver.add_clause(c.iter().copied()));
    }
    // Strictly decreasing activities fix the decision order.
    let order: Vec<Var> = [g, x].into_iter().chain(padding).chain([y]).collect();
    for (rank, v) in order.iter().enumerate() {
        solver.bump_activity(std::iter::repeat_n(v.pos(), order.len() - rank));
    }
    Instance { solver, clauses, x, g }
}

fn expect_chrono_and_certified(s: &Solver) {
    let st = s.stats();
    assert!(st.chrono_backtracks >= 1, "no chronological backtrack");
    assert_eq!(st.certified, st.solves, "every answer is certified");
}

#[test]
fn long_backjump_keeps_answer_and_model() {
    let Instance { mut solver, clauses, x, .. } = instance(false);
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    for c in &clauses {
        assert!(c.iter().any(|&l| solver.model_value(l) == Some(true)), "{c:?}");
    }
    assert_eq!(solver.model_var(x), Some(true));
    expect_chrono_and_certified(&solver);
    // The solver stays incrementally usable after the out-of-order trail.
    assert_eq!(solver.solve(&[x.neg()]), SolveResult::Unsat);
    assert_eq!(solver.assumption_core(), &[x.neg()]);
    expect_chrono_and_certified(&solver);
}

#[test]
fn long_backjump_under_assumptions_yields_a_sound_core() {
    let Instance { mut solver, clauses, g, .. } = instance(true);
    // A satisfiable extra assumption that the core must leave out.
    let free = solver.new_var();
    let assumptions = [free.pos(), g.pos()];
    assert_eq!(solver.solve(&assumptions), SolveResult::Unsat);
    expect_chrono_and_certified(&solver);
    let core = solver.assumption_core().to_vec();
    assert!(!core.is_empty(), "the formula alone is satisfiable");
    assert!(core.iter().all(|l| assumptions.contains(l)), "{core:?}");
    // The core is Unsat on its own, checked by a fresh solver.
    let mut check = Solver::certifying();
    check.new_vars(solver.num_vars());
    for c in &clauses {
        check.add_clause(c.iter().copied());
    }
    assert_eq!(check.solve(&core), SolveResult::Unsat, "core {core:?}");
    // Without the assumptions the formula is satisfiable.
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    for c in &clauses {
        assert!(c.iter().any(|&l| solver.model_value(l) == Some(true)), "{c:?}");
    }
    expect_chrono_and_certified(&solver);
}
