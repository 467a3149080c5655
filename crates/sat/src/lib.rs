//! # ssc-sat — a CDCL SAT solver
//!
//! A from-scratch conflict-driven clause-learning solver used as the
//! decision procedure behind the interval property checker (`ssc-ipc`) and,
//! transitively, the UPEC-SSC security proofs:
//!
//! - two-watched-literal propagation with blocker literals,
//! - first-UIP conflict analysis with **recursive (deep) clause
//!   minimization** (MiniSat's `ccmin-mode=deep`),
//! - exponential VSIDS branching with phase saving,
//! - **glucose-style adaptive restarts** — fast/slow LBD moving averages
//!   with trail-size blocking,
//! - **tiered (core/mid/local) learnt-database reduction** with LBD-driven
//!   promotion and arena GC,
//! - **chronological backtracking** past [`CHRONO_LEVELS`] levels (Nadel &
//!   Ryvchin, SAT 2018; Möhle & Biere, SAT 2019): a long backjump
//!   backtracks one level and asserts out of trail order, keeping the
//!   trail above the jump target,
//! - incremental solving under assumptions (the workhorse of the iterative
//!   UPEC-SSC procedure, which re-solves with shrinking state sets),
//! - a **certifying mode** whose answers an independent RUP checker
//!   verifies ([`rup`]).
//!
//! # CDCL engine
//!
//! The solver runs one fixed engine with the four refinements above always
//! on; no variable or option selects another.
//!
//! Chronological backtracking leaves the trail out of level order, and the
//! engine keeps three invariants that make that sound:
//!
//! - **assignment levels**: a propagated literal takes the highest level
//!   among its reason's other literals, an asserting literal the level of
//!   its learnt clause's second literal, and a unit learnt level 0;
//! - **backtracking**: backtracking to level `t` unassigns only the
//!   literals above `t` and compacts the kept ones stably, so the trail
//!   stays a topological order (assumption cores walk it backwards), and
//!   re-queues the kept ones for propagation;
//! - **conflicts**: a conflict is handled at the level its clause is
//!   falsified at, with the clause's two highest-level literals watched; a
//!   single literal on that level is a missed lower implication and is
//!   re-implied without learning.
//!
//! # Certifying mode
//!
//! [`Solver::certifying`] builds a solver that feeds every input clause,
//! every learnt clause and every conclusive answer to a [`rup::Checker`].
//! The checker shares nothing with the solver but [`Lit`]: it keeps its
//! own clause store and its own unit propagation, and it panics on
//! anything it cannot verify.
//!
//! - Each learnt clause, units included, must be RUP with respect to the
//!   input clauses and the earlier learnt clauses.
//! - An `Unsat` answer's assumption core must be a subset of that solve's
//!   assumptions, and the clause ¬core must be RUP. A level-0 `Unsat`
//!   needs the empty clause to be RUP.
//! - A `Sat` answer's model must satisfy every input clause.
//!
//! [`SolverStats::certified`] counts the accepted answers. The crosscheck
//! tests run certifying solvers where a second solver engine used to be
//! the oracle. A plain [`Solver::new`] does not certify, and a certifying
//! solver searches step for step like a plain one.
//!
//! # Bounded effort & graceful degradation
//!
//! A solver can be put under a resource [`Budget`]: a per-solve conflict
//! and/or propagation limit, an absolute wall-clock deadline, and a
//! shareable [`CancelToken`] polled on the propagation hot path. A solve
//! whose budget runs out stops at decision level 0 and returns
//! [`SolveResult::Unknown`] carrying an [`Interrupt`] (the
//! [`InterruptCause`] plus the work performed up to the stop) — it
//! **never panics and never degrades into a wrong `Sat`/`Unsat`**, which
//! is what keeps budgeted verification sound: the layers above map
//! `Unknown` to an explicit inconclusive outcome, so "proved" and "gave
//! up" stay distinguishable all the way to the final verdict. The
//! counter-based limits are measured on the solver's own deterministic
//! counters, so a given formula + assumptions + budget always interrupts
//! at the same point with the same cause; interrupting loses no state,
//! and re-solving with a larger budget resumes from everything learnt so
//! far.
//!
//! The [`chaos`] module hosts the (dependency-root) fault-injection
//! registry used by the robustness test harness; its hooks are a single
//! relaxed atomic load when disarmed.
//!
//! # Example
//!
//! ```
//! use ssc_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
//! s.add_clause([a.pos(), b.pos(), c.pos()]);
//! s.add_clause([a.neg(), b.pos()]);
//! s.add_clause([b.neg(), c.pos()]);
//! assert_eq!(s.solve(&[a.pos()]), SolveResult::Sat);
//! assert_eq!(s.model_value(c.pos()), Some(true));
//! assert_eq!(s.solve(&[a.pos(), c.neg()]), SolveResult::Unsat);
//! // The solver is reusable after every solve.
//! assert_eq!(s.solve(&[]), SolveResult::Sat);
//! ```

#![warn(missing_docs)]

mod budget;
pub mod chaos;
pub mod dimacs;
mod heap;
mod lit;
pub mod rup;
mod solver;

pub use budget::{Budget, CancelToken, Interrupt, InterruptCause};
pub use lit::{LBool, Lit, Var};
pub use solver::{Heuristics, SolveResult, Solver, SolverStats, CHRONO_LEVELS};

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // hole/pigeon indices are semantic
mod tests {
    use super::*;

    fn all_clauses_satisfied(s: &Solver, clauses: &[Vec<Lit>]) -> bool {
        clauses.iter().all(|c| c.iter().any(|&l| s.model_value(l) == Some(true)))
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let vars = s.new_vars(10);
        s.add_clause([vars[0].pos()]);
        for w in vars.windows(2) {
            s.add_clause([w[0].neg(), w[1].pos()]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for v in &vars {
            assert_eq!(s.model_var(*v), Some(true));
        }
    }

    #[test]
    fn conflicting_units_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause([a.pos()]));
        assert!(!s.add_clause([a.neg()]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_sat() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, ... forces alternation.
        let mut s = Solver::new();
        let vars = s.new_vars(8);
        for w in vars.windows(2) {
            // a ^ b: (a|b) & (~a|~b)
            s.add_clause([w[0].pos(), w[1].pos()]);
            s.add_clause([w[0].neg(), w[1].neg()]);
        }
        s.add_clause([vars[0].pos()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(s.model_var(*v), Some(i % 2 == 0));
        }
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        // PHP(4,3): 4 pigeons, 3 holes. Classic hard UNSAT instance that
        // exercises learning and backjumping.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..4).map(|_| s.new_vars(3)).collect();
        for pigeon in &p {
            s.add_clause(pigeon.iter().map(|v| v.pos()));
        }
        for hole in 0..3 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    s.add_clause([p[i][hole].neg(), p[j][hole].neg()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn pigeonhole_3_into_3_sat() {
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3).map(|_| s.new_vars(3)).collect();
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for pigeon in &p {
            clauses.push(pigeon.iter().map(|v| v.pos()).collect());
        }
        for hole in 0..3 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    clauses.push(vec![p[i][hole].neg(), p[j][hole].neg()]);
                }
            }
        }
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(all_clauses_satisfied(&s, &clauses));
    }

    #[test]
    fn assumptions_flip_outcome() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.pos(), b.pos()]);
        assert_eq!(s.solve(&[a.neg(), b.neg()]), SolveResult::Unsat);
        assert_eq!(s.solve(&[a.neg()]), SolveResult::Sat);
        assert_eq!(s.model_var(b), Some(true));
        assert_eq!(s.solve(&[a.pos(), b.pos()]), SolveResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.pos(), b.pos()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.add_clause([a.neg()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_var(b), Some(true));
        s.add_clause([b.neg()]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn tautology_and_duplicates_handled() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause([a.pos(), a.neg()])); // tautology: dropped
        assert!(s.add_clause([b.pos(), b.pos(), b.pos()])); // dedup to unit
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_var(b), Some(true));
    }

    #[test]
    fn duplicate_assumptions_ok() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.neg(), b.pos()]);
        assert_eq!(s.solve(&[a.pos(), a.pos(), b.pos()]), SolveResult::Sat);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for round in 0..60 {
            let n = 3 + (round % 8);
            let m = 2 + (round % 20);
            let clauses: Vec<Vec<Lit>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = Var::from_index(rng.random_range(0..n));
                            v.lit(rng.random_bool(0.5))
                        })
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            'outer: for bits in 0u32..(1 << n) {
                for c in &clauses {
                    let ok = c.iter().any(|l| {
                        let val = (bits >> l.var().index()) & 1 == 1;
                        val != l.is_neg()
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            s.new_vars(n);
            let mut trivially_unsat = false;
            for c in &clauses {
                if !s.add_clause(c.iter().copied()) {
                    trivially_unsat = true;
                }
            }
            let got = if trivially_unsat {
                SolveResult::Unsat
            } else {
                s.solve(&[])
            };
            let want = if brute_sat { SolveResult::Sat } else { SolveResult::Unsat };
            assert_eq!(got, want, "round {round}: clauses {clauses:?}");
            if got == SolveResult::Sat {
                assert!(all_clauses_satisfied(&s, &clauses), "model check round {round}");
            }
        }
    }

    #[test]
    fn large_random_instance_model_is_valid() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200;
        let m = 600; // ratio 3.0: almost surely SAT
        let mut s = Solver::new();
        s.new_vars(n);
        let clauses: Vec<Vec<Lit>> = (0..m)
            .map(|_| {
                (0..3)
                    .map(|_| Var::from_index(rng.random_range(0..n)).lit(rng.random_bool(0.5)))
                    .collect()
            })
            .collect();
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        if s.solve(&[]) == SolveResult::Sat {
            assert!(all_clauses_satisfied(&s, &clauses));
        }
    }

    #[test]
    fn collect_garbage_between_incremental_solves() {
        // A sequence of solves under assumptions with interleaved GC calls
        // must keep verdicts consistent: PHP(5,5) is satisfiable, but
        // blocking one hole via assumptions turns it into PHP(5,4).
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..5).map(|_| s.new_vars(5)).collect();
        for pigeon in &p {
            s.add_clause(pigeon.iter().map(|v| v.pos()));
        }
        for hole in 0..5 {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    s.add_clause([p[i][hole].neg(), p[j][hole].neg()]);
                }
            }
        }
        let block_hole4: Vec<Lit> = (0..5).map(|i| p[i][4].neg()).collect();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.collect_garbage();
        assert_eq!(s.solve(&block_hole4), SolveResult::Unsat);
        s.collect_garbage();
        assert_eq!(s.solve(&block_hole4), SolveResult::Unsat);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let st = s.stats();
        assert_eq!(st.solves, 4);
    }

    #[test]
    fn stats_are_populated() {
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..5).map(|_| s.new_vars(4)).collect();
        for pigeon in &p {
            s.add_clause(pigeon.iter().map(|v| v.pos()));
        }
        for hole in 0..4 {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    s.add_clause([p[i][hole].neg(), p[j][hole].neg()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.decisions > 0);
        assert!(st.propagations > 0);
    }

    #[test]
    fn assumption_core_names_the_responsible_assumptions() {
        // a ∧ (a → b) makes ¬b unsat; c is irrelevant and must not appear
        // in the core.
        let mut s = Solver::new();
        let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
        s.add_clause([a.neg(), b.pos()]);
        assert_eq!(s.solve(&[c.pos(), a.pos(), b.neg()]), SolveResult::Unsat);
        let core = s.assumption_core();
        assert!(core.contains(&b.neg()), "the falsified assumption is in the core");
        assert!(core.contains(&a.pos()), "the implying assumption is in the core");
        assert!(!core.contains(&c.pos()), "irrelevant assumptions stay out");
    }

    #[test]
    fn complementary_assumptions_form_a_two_literal_core() {
        let mut s = Solver::new();
        let (a, b) = (s.new_var(), s.new_var());
        let _ = b;
        assert_eq!(s.solve(&[a.pos(), a.neg()]), SolveResult::Unsat);
        let mut core = s.assumption_core().to_vec();
        core.sort_unstable();
        assert_eq!(core, vec![a.pos(), a.neg()]);
    }

    #[test]
    fn unconditionally_unsat_formula_has_empty_core() {
        let mut s = Solver::new();
        let (a, b) = (s.new_var(), s.new_var());
        s.add_clause([a.pos()]);
        s.add_clause([a.neg()]);
        assert_eq!(s.solve(&[b.pos()]), SolveResult::Unsat);
        assert!(s.assumption_core().is_empty(), "no assumption was needed");
    }

    #[test]
    fn core_extraction_survives_learnt_clauses() {
        // Unsat discovered only after conflict-driven learning: the core
        // must still be a subset of the assumptions implying the conflict.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..4).map(|_| s.new_vars(3)).collect();
        for pigeon in &p {
            s.add_clause(pigeon.iter().map(|v| v.pos()));
        }
        for hole in 0..3 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    s.add_clause([p[i][hole].neg(), p[j][hole].neg()]);
                }
            }
        }
        let extra = s.new_var();
        let assumptions = [extra.pos()];
        assert_eq!(s.solve(&assumptions), SolveResult::Unsat);
        for l in s.assumption_core() {
            assert!(
                assumptions.contains(l),
                "core literal {l:?} is not one of the assumptions"
            );
        }
    }
}
