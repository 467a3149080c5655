//! Solver-level regression corpus: committed DIMACS instances with known
//! verdicts, solved by a certifying solver. Each answer must match the
//! expected verdict, and the RUP checker must accept it: every learnt
//! clause and every Unsat answer is RUP, every model satisfies the
//! clauses. On SAT instances the returned model is also checked against
//! the parsed clause list, so a bug that merely *preserved
//! satisfiability* while breaking model soundness would be caught here.

use ssc_sat::{dimacs, SolveResult, Solver};

/// `(file name, DIMACS text, expected satisfiable)`. The expectation is
/// encoded in the file name prefix; `include_str!` keeps the harness
/// independent of the test working directory.
const CORPUS: &[(&str, &str, bool)] = &[
    ("sat_chain20.cnf", include_str!("corpus/sat_chain20.cnf"), true),
    ("sat_php33.cnf", include_str!("corpus/sat_php33.cnf"), true),
    ("sat_random3.cnf", include_str!("corpus/sat_random3.cnf"), true),
    ("sat_xor_cycle8.cnf", include_str!("corpus/sat_xor_cycle8.cnf"), true),
    ("unsat_chain10.cnf", include_str!("corpus/unsat_chain10.cnf"), false),
    ("unsat_php43.cnf", include_str!("corpus/unsat_php43.cnf"), false),
    ("unsat_php54.cnf", include_str!("corpus/unsat_php54.cnf"), false),
    ("unsat_random3.cnf", include_str!("corpus/unsat_random3.cnf"), false),
    ("unsat_xor_cycle7.cnf", include_str!("corpus/unsat_xor_cycle7.cnf"), false),
];

fn run(name: &str, src: &str, want_sat: bool) {
    let problem = dimacs::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut solver = Solver::certifying();
    solver.new_vars(problem.num_vars);
    for clause in &problem.clauses {
        solver.add_clause(clause.iter().copied());
    }
    let got = match solver.solve(&[]) {
        SolveResult::Sat => true,
        SolveResult::Unsat => false,
        SolveResult::Unknown(int) => panic!("{name}: unbudgeted solve interrupted: {int:?}"),
    };
    assert_eq!(got, want_sat, "{name}");
    assert_eq!(solver.stats().certified, 1, "{name}: the answer was not certified");
    if got {
        model_satisfies(name, &solver, &problem);
    }
}

fn model_satisfies(name: &str, solver: &Solver, problem: &dimacs::DimacsProblem) {
    for (i, clause) in problem.clauses.iter().enumerate() {
        assert!(
            clause.iter().any(|&l| solver.model_value(l) == Some(true)),
            "{name}: model violates clause {i}: {clause:?}"
        );
    }
}

#[test]
fn corpus_verdicts_are_certified() {
    for &(name, src, want_sat) in CORPUS {
        run(name, src, want_sat);
    }
}

#[test]
fn corpus_roundtrips_through_emit() {
    for &(name, src, _) in CORPUS {
        let p = dimacs::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let p2 = dimacs::parse(&dimacs::emit(&p)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(p, p2, "{name}: emit/parse roundtrip changed the problem");
    }
}
