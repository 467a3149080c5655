//! Chronological backtracking: a deterministic instance whose first
//! learnt clause would backjump past more than `CHRONO_LEVELS` decision
//! levels. The modern engine backtracks one level instead and asserts out
//! of trail order; the legacy engine backjumps in full. Both must reach
//! the same answer, with a model that satisfies every clause, and an
//! assumption core that is Unsat on its own.

use ssc_sat::{Heuristics, Lit, SolveResult, Solver, Var, CHRONO_LEVELS};

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
fn instance(heur: Heuristics, guard: bool) -> Instance {
    let mut solver = Solver::with_heuristics(heur);
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

fn expect_chrono(s: &Solver, heur: Heuristics) {
    let chrono = s.stats().chrono_backtracks;
    match heur {
        Heuristics::Modern => assert!(chrono >= 1, "no chronological backtrack"),
        Heuristics::Legacy => assert_eq!(chrono, 0, "legacy backtracked chronologically"),
    }
}

#[test]
fn long_backjump_keeps_answer_and_model() {
    for heur in [Heuristics::Modern, Heuristics::Legacy] {
        let Instance { mut solver, clauses, x, .. } = instance(heur, false);
        assert_eq!(solver.solve(&[]), SolveResult::Sat, "{heur:?}");
        for c in &clauses {
            assert!(c.iter().any(|&l| solver.model_value(l) == Some(true)), "{heur:?}: {c:?}");
        }
        assert_eq!(solver.model_var(x), Some(true), "{heur:?}");
        expect_chrono(&solver, heur);
        // The solver stays incrementally usable after the out-of-order trail.
        assert_eq!(solver.solve(&[x.neg()]), SolveResult::Unsat, "{heur:?}");
        assert_eq!(solver.assumption_core(), &[x.neg()], "{heur:?}");
    }
}

#[test]
fn long_backjump_under_assumptions_yields_a_sound_core() {
    for heur in [Heuristics::Modern, Heuristics::Legacy] {
        let Instance { mut solver, clauses, g, .. } = instance(heur, true);
        // A satisfiable extra assumption that the core must leave out.
        let free = solver.new_var();
        let assumptions = [free.pos(), g.pos()];
        assert_eq!(solver.solve(&assumptions), SolveResult::Unsat, "{heur:?}");
        expect_chrono(&solver, heur);
        let core = solver.assumption_core().to_vec();
        assert!(!core.is_empty(), "{heur:?}: the formula alone is satisfiable");
        assert!(core.iter().all(|l| assumptions.contains(l)), "{heur:?}: {core:?}");
        // The core is Unsat on its own, checked by a fresh solver.
        let mut check = Solver::with_heuristics(heur);
        check.new_vars(solver.num_vars());
        for c in &clauses {
            check.add_clause(c.iter().copied());
        }
        assert_eq!(check.solve(&core), SolveResult::Unsat, "{heur:?}: core {core:?}");
        // Without the assumptions the formula is satisfiable.
        assert_eq!(solver.solve(&[]), SolveResult::Sat, "{heur:?}");
        for c in &clauses {
            assert!(c.iter().any(|&l| solver.model_value(l) == Some(true)), "{heur:?}: {c:?}");
        }
    }
}
