//! Property-based solver validation: random CNFs against brute force, on
//! certifying solvers, so the RUP checker also accepts every answer.

use proptest::prelude::*;
use ssc_sat::{Lit, SolveResult, Solver, Var};

fn brute_force_sat(n_vars: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
    'outer: for bits in 0u32..(1 << n_vars) {
        for c in clauses {
            let sat = c.iter().any(|&(v, neg)| (((bits >> v) & 1) == 1) != neg);
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn clause_strategy(n_vars: usize) -> impl Strategy<Value = Vec<(usize, bool)>> {
    proptest::collection::vec((0..n_vars, any::<bool>()), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn solver_agrees_with_brute_force(
        n_vars in 2usize..10,
        clauses in proptest::collection::vec(clause_strategy(9), 1..24),
    ) {
        // Clamp variable indices to the actual count.
        let clauses: Vec<Vec<(usize, bool)>> = clauses
            .into_iter()
            .map(|c| c.into_iter().map(|(v, s)| (v % n_vars, s)).collect())
            .collect();

        let mut solver = Solver::certifying();
        let vars: Vec<Var> = (0..n_vars).map(|_| solver.new_var()).collect();
        for c in &clauses {
            let lits: Vec<Lit> = c.iter().map(|&(v, neg)| vars[v].lit(neg)).collect();
            solver.add_clause(lits);
        }
        // A clause set found Unsat while adding is answered Unsat by
        // `solve`, and certified like any other answer.
        let got = solver.solve(&[]);
        prop_assert_eq!(solver.stats().certified, 1);
        let want = if brute_force_sat(n_vars, &clauses) {
            SolveResult::Sat
        } else {
            SolveResult::Unsat
        };
        prop_assert_eq!(got, want);

        // If satisfiable, the model must satisfy every clause.
        if got == SolveResult::Sat {
            for c in &clauses {
                let ok = c.iter().any(|&(v, neg)| {
                    solver.model_value(vars[v].lit(neg)) == Some(true)
                });
                prop_assert!(ok, "model violates clause {:?}", c);
            }
        }
    }

    #[test]
    fn assumptions_are_respected(
        n_vars in 2usize..8,
        clauses in proptest::collection::vec(clause_strategy(7), 1..12),
        picks in proptest::collection::vec((0usize..7, any::<bool>()), 1..4),
    ) {
        let clauses: Vec<Vec<(usize, bool)>> = clauses
            .into_iter()
            .map(|c| c.into_iter().map(|(v, s)| (v % n_vars, s)).collect())
            .collect();
        let mut solver = Solver::certifying();
        let vars: Vec<Var> = (0..n_vars).map(|_| solver.new_var()).collect();
        let mut ok = true;
        for c in &clauses {
            let lits: Vec<Lit> = c.iter().map(|&(v, neg)| vars[v].lit(neg)).collect();
            ok &= solver.add_clause(lits);
        }
        prop_assume!(ok);
        let assumptions: Vec<Lit> = picks
            .iter()
            .map(|&(v, neg)| vars[v % n_vars].lit(neg))
            .collect();
        let result = solver.solve(&assumptions);
        prop_assert_eq!(solver.stats().certified, 1);
        if result == SolveResult::Sat {
            for a in &assumptions {
                prop_assert_eq!(solver.model_value(*a), Some(true), "assumption {} violated", a);
            }
        } else {
            // Adding the assumptions as units must also be unsatisfiable.
            let mut s2 = Solver::new();
            let vars2: Vec<Var> = (0..n_vars).map(|_| s2.new_var()).collect();
            let mut ok2 = true;
            for c in &clauses {
                let lits: Vec<Lit> = c.iter().map(|&(v, neg)| vars2[v].lit(neg)).collect();
                ok2 &= s2.add_clause(lits);
            }
            for &(v, neg) in &picks {
                ok2 &= s2.add_clause([vars2[v % n_vars].lit(neg)]);
            }
            let r = if ok2 { s2.solve(&[]) } else { SolveResult::Unsat };
            prop_assert_eq!(r, SolveResult::Unsat);
        }
    }

    #[test]
    fn solving_is_deterministic(
        n_vars in 2usize..8,
        clauses in proptest::collection::vec(clause_strategy(7), 1..16),
    ) {
        let run = || {
            let mut solver = Solver::new();
            let vars: Vec<Var> = (0..n_vars).map(|_| solver.new_var()).collect();
            let mut ok = true;
            for c in &clauses {
                let lits: Vec<Lit> =
                    c.iter().map(|&(v, neg)| vars[v % n_vars].lit(neg)).collect();
                ok &= solver.add_clause(lits);
            }
            if ok { solver.solve(&[]) } else { SolveResult::Unsat }
        };
        prop_assert_eq!(run(), run());
    }
}
