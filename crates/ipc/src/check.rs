//! Property checking over an unrolled design.
//!
//! [`Ipc`] bundles an [`Unroller`], a SAT solver and a CNF encoder into an
//! interval property checker: properties are of the form *assume C₁…Cₙ,
//! prove G* over the unrolled cycles, checked by asking the solver for a
//! model of `C₁ ∧ … ∧ Cₙ ∧ ¬G`. Assumptions are passed as solver
//! assumptions, so repeated checks over the same unrolling share learnt
//! clauses — the workhorse of the iterative UPEC-SSC procedure.
//!
//! # Persistent-session primitives
//!
//! Beyond the simple [`Ipc::check`] entry point, the checker exposes the
//! building blocks of a *persistent* proof session, where one solver
//! outlives an entire fixpoint run while the property changes shape
//! between solves:
//!
//! - [`Ipc::activation_literal`] / [`Ipc::add_clause_under`] /
//!   [`Ipc::retire_activation`] — clauses that only apply while an
//!   activation assumption is made; retiring the activation permanently
//!   deactivates the clause *without* invalidating anything the solver
//!   learned (a retired activation becomes a unit, so its clauses are
//!   vacuously satisfied and the learnt-clause database carries over),
//! - [`Ipc::check_lits`] — a check over pre-encoded solver literals, for
//!   callers that manage assumption sets incrementally,
//! - [`Ipc::add_implied_clause`] — permanent clauses the AIG already
//!   implies (a proof session's difference clauses), derived rather than
//!   trusted by a certifying checker,
//! - [`Ipc::collect_garbage`] — forwards to the solver's between-solve
//!   clause-database reduction hook,
//! - [`Ipc::encoded_nodes`] — the cumulative CNF-encoding counter used to
//!   prove per-window encoding work stays bounded.

use ssc_aig::cnf::{CnfEncoder, ModelError};
use ssc_aig::words::Word;
use ssc_aig::AigRef;
use ssc_netlist::{Bv, Netlist};
use ssc_sat::{Budget, Interrupt, Lit, SolveResult, Solver, Var};

use crate::unroll::Unroller;

/// Outcome of a property check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PropertyResult {
    /// The property holds (the negation is unsatisfiable).
    Holds,
    /// A counterexample exists; query it via [`Ipc::model_word`] /
    /// [`Ipc::model_bv`].
    Violated,
    /// The check was stopped by the checker's [`Budget`] (or a
    /// cancellation) before reaching an answer — neither a proof nor a
    /// counterexample. Callers must treat this as "gave up", never as
    /// either verdict; the session stays valid and the check can be
    /// re-run under a larger budget.
    Interrupted(Interrupt),
}

/// An interval property checker over one design.
pub struct Ipc<'n> {
    unroller: Unroller<'n>,
    solver: Solver,
    enc: CnfEncoder,
    checks: u64,
}

impl<'n> std::fmt::Debug for Ipc<'n> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ipc")
            .field("design", &self.unroller.netlist().name())
            .field("checks", &self.checks)
            .field("encoded_nodes", &self.enc.encoded_nodes())
            .finish()
    }
}

impl<'n> Ipc<'n> {
    /// Creates a checker for `netlist` with cycle 0 unrolled.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::check`].
    pub fn new(netlist: &'n Netlist) -> Self {
        Ipc::with_solver(netlist, Solver::new())
    }

    /// [`Ipc::new`] on a certifying solver (see
    /// [`ssc_sat::Solver::certifying`]): an independent RUP checker checks
    /// every learnt clause and every check's answer, and panics on one it
    /// cannot verify. [`ssc_sat::SolverStats::certified`] counts the
    /// accepted answers. Forks certify too.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::check`].
    pub fn certifying(netlist: &'n Netlist) -> Self {
        Ipc::with_solver(netlist, Solver::certifying())
    }

    fn with_solver(netlist: &'n Netlist, solver: Solver) -> Self {
        Ipc { unroller: Unroller::new(netlist), solver, enc: CnfEncoder::new(), checks: 0 }
    }

    /// Forks the checker into an independent copy-on-write snapshot: the
    /// unrolled AIG, the node→variable table and the whole solver state
    /// (clause arena, learnt database, saved phases, VSIDS activities and,
    /// on a certifying checker, the proof checker) are carried over, and
    /// the two checkers diverge freely from here on.
    ///
    /// This is the portfolio-sharing primitive: encode the prefix every
    /// scenario has in common **once** in a base checker, then fork it per
    /// scenario — each fork pays only for the scenario-specific logic it
    /// adds, never for re-encoding (or re-learning) the shared prefix. All
    /// state lives in flat arenas, so the fork itself is a handful of
    /// memcpys.
    ///
    /// # Panics
    ///
    /// Panics if the solver is mid-solve (see [`ssc_sat::Solver::fork`]);
    /// between checks this cannot happen.
    pub fn fork(&self) -> Ipc<'n> {
        Ipc {
            unroller: self.unroller.clone(),
            solver: self.solver.fork(),
            enc: self.enc.clone(),
            checks: self.checks,
        }
    }

    /// Read access to the unroller.
    pub fn unroller(&self) -> &Unroller<'n> {
        &self.unroller
    }

    /// Mutable access to the unroller (to extend cycles or build constraint
    /// logic in the AIG).
    pub fn unroller_mut(&mut self) -> &mut Unroller<'n> {
        &mut self.unroller
    }

    /// Number of `check`/`check_lits` calls so far.
    pub fn num_checks(&self) -> u64 {
        self.checks
    }

    /// Statistics of the underlying SAT solver.
    pub fn solver_stats(&self) -> ssc_sat::SolverStats {
        self.solver.stats()
    }

    /// Number of AIG nodes that own a solver variable so far (see
    /// [`CnfEncoder::encoded_nodes`]: the ANDs inside an encoded MUX/XOR
    /// gate or AND tree own none and are not counted).
    ///
    /// Growth of this counter between two checks bounds the encoding work
    /// the second check performed — the quantity the incremental UPEC-SSC
    /// engine keeps at *O(new cycle cone)* per window instead of *O(k)*.
    pub fn encoded_nodes(&self) -> usize {
        self.enc.encoded_nodes()
    }

    /// Whether `r`'s node owns a solver variable (see
    /// [`CnfEncoder::owns_var`]). A read-only query: it encodes nothing.
    pub fn owns_var(&self, r: AigRef) -> bool {
        self.enc.owns_var(r)
    }

    /// Reduces the solver's learnt-clause database and compacts its clause
    /// arena. Safe to call between checks of a long-lived session;
    /// core-tier clauses (LBD ≤ 3) and locked clauses survive (see
    /// `ssc_sat::Solver::collect_garbage`).
    pub fn collect_garbage(&mut self) {
        self.solver.collect_garbage();
    }

    /// Adds a *permanent* constraint: `r` is asserted true in all subsequent
    /// checks. Used for reachability invariants that exclude unreachable
    /// symbolic starting states (paper Sec. 3.4).
    pub fn add_constraint(&mut self, r: AigRef) {
        let lit = self.enc.lit_of(&mut self.solver, self.unroller.aig(), r);
        self.solver.add_clause([lit]);
    }

    /// Adds the clause `r₁ ∨ … ∨ rₙ`, which the AIG already implies, as a
    /// permanent clause (see [`ssc_sat::Solver::add_implied_clause`]). On a
    /// certifying checker the proof checker derives it first, by case
    /// splits over the variables of `splits`, and panics if it cannot: the
    /// clause never becomes an input the checker trusts. Both lists are
    /// encoded on demand on every checker, so certifying and plain
    /// checkers keep the same clauses.
    pub fn add_implied_clause(&mut self, refs: &[AigRef], splits: &[AigRef]) {
        let aig = self.unroller.aig();
        let lits: Vec<Lit> =
            refs.iter().map(|&r| self.enc.lit_of(&mut self.solver, aig, r)).collect();
        let vars: Vec<Var> =
            splits.iter().map(|&r| self.enc.lit_of(&mut self.solver, aig, r).var()).collect();
        self.solver.add_implied_clause(lits, &vars);
    }

    /// The solver literal for AIG reference `r`, encoding its cone on
    /// demand. Exposed so persistent sessions can build assumption vectors
    /// of pre-encoded literals and pass them to [`Ipc::check_lits`].
    pub fn lit_of(&mut self, r: AigRef) -> Lit {
        self.enc.lit_of(&mut self.solver, self.unroller.aig(), r)
    }

    /// Allocates a fresh *activation literal*: a solver variable not tied
    /// to any AIG node, used to guard retirable clauses
    /// (see [`Ipc::add_clause_under`]).
    pub fn activation_literal(&mut self) -> Lit {
        self.solver.new_var().pos()
    }

    /// Adds the clause `act → (r₁ ∨ … ∨ rₙ)`, i.e. `¬act ∨ r₁ ∨ … ∨ rₙ`.
    ///
    /// The clause only constrains solves that assume `act`. Combined with
    /// [`Ipc::retire_activation`] this realizes *removable* proof
    /// obligations on top of a purely additive incremental solver: the
    /// UPEC-SSC fixpoint retires the negated-goal clause of an iteration
    /// when its state set shrinks, instead of rebuilding the solver.
    pub fn add_clause_under(&mut self, act: Lit, refs: &[AigRef]) {
        let mut lits = Vec::with_capacity(refs.len() + 1);
        lits.push(!act);
        for &r in refs {
            lits.push(self.enc.lit_of(&mut self.solver, self.unroller.aig(), r));
        }
        // The guarded clause is the proof obligation of the next solve;
        // steer the decision heuristic toward its variables so the search
        // starts where the goal lives rather than where encoding order
        // happened to put the activity.
        self.solver.bump_activity(lits.iter().copied().skip(1));
        self.solver.add_clause(lits);
    }

    /// Permanently deactivates an activation literal: all clauses guarded
    /// by `act` become vacuously satisfied. Learnt clauses are *not*
    /// invalidated — retirement adds the unit `¬act` and removes nothing.
    pub fn retire_activation(&mut self, act: Lit) {
        self.solver.add_clause([!act]);
    }

    /// Checks the property *assume `assumptions`, prove `goal`*.
    ///
    /// Returns [`PropertyResult::Holds`] if no counterexample exists. On
    /// [`PropertyResult::Violated`] the solver model is kept and can be
    /// inspected with [`Ipc::model_word`].
    pub fn check(&mut self, assumptions: &[AigRef], goal: AigRef) -> PropertyResult {
        let aig = self.unroller.aig();
        let mut lits = Vec::with_capacity(assumptions.len() + 1);
        for &a in assumptions {
            lits.push(self.enc.lit_of(&mut self.solver, aig, a));
        }
        lits.push(self.enc.lit_of(&mut self.solver, aig, goal.not()));
        self.check_lits(&lits)
    }

    /// Checks satisfiability under pre-encoded solver literals (the
    /// low-level sibling of [`Ipc::check`]; note the polarity: the caller
    /// passes the *negated* goal among the assumptions, and `Sat` means
    /// [`PropertyResult::Violated`]).
    pub fn check_lits(&mut self, assumptions: &[Lit]) -> PropertyResult {
        self.checks += 1;
        match self.solver.solve(assumptions) {
            SolveResult::Sat => PropertyResult::Violated,
            SolveResult::Unsat => PropertyResult::Holds,
            SolveResult::Unknown(int) => PropertyResult::Interrupted(int),
        }
    }

    /// Installs the resource [`Budget`] governing every subsequent check's
    /// solve (see [`ssc_sat::Solver::set_budget`]). A check whose budget
    /// runs out returns [`PropertyResult::Interrupted`].
    pub fn set_budget(&mut self, budget: Budget) {
        self.solver.set_budget(budget);
    }

    /// The currently installed [`Budget`]. Note that [`Ipc::fork`] clones
    /// it into the child, sharing any attached cancellation token.
    pub fn budget(&self) -> &Budget {
        self.solver.budget()
    }

    /// The assumption core of the most recent [`PropertyResult::Holds`]:
    /// the subset of that check's assumption literals the unsatisfiability
    /// proof rests on (see [`ssc_sat::Solver::assumption_core`]).
    ///
    /// Assumptions absent from the core were not needed — the UPEC-SSC
    /// procedures use this to detect checks whose verdict is independent of
    /// the tracked state-equality assumptions. Only meaningful directly
    /// after a `Holds` result.
    pub fn assumption_core(&self) -> &[Lit] {
        self.solver.assumption_core()
    }

    /// Ensures a word is encoded in the solver so the *next* violated check
    /// can report its model value (encoding after a solve does not reveal
    /// values for the past model — see [`ModelError::NotInModel`]).
    pub fn ensure_encoded(&mut self, word: &Word) {
        let aig = self.unroller.aig();
        let _ = self.enc.lits_of(&mut self.solver, aig, word);
    }

    /// The value of a word (or any slice of AIG bits) in the last
    /// counterexample.
    ///
    /// # Errors
    ///
    /// - [`ModelError::NotEncoded`]: a bit of the word owns no solver
    ///   variable. Either it was not mentioned by any assumption/goal and
    ///   [`Ipc::ensure_encoded`] was not called before the check, or it is
    ///   an AND inside an encoded gate: a mentioned word can read
    ///   `NotEncoded` too (see [`ssc_aig::cnf`] for which nodes own a
    ///   variable; [`Ipc::ensure_encoded`] gives the word's bits their own),
    /// - [`ModelError::NotInModel`]: the word was encoded only *after* the
    ///   violated check, so the stored model predates its variables.
    pub fn model_word(&self, word: &[AigRef]) -> Result<u64, ModelError> {
        self.enc.model_word(&self.solver, word)
    }

    /// [`Ipc::model_word`] as a [`Bv`] of the word's width.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ipc::model_word`].
    pub fn model_bv(&self, word: &[AigRef]) -> Result<Bv, ModelError> {
        let v = self.model_word(word)?;
        Ok(Bv::new(word.len() as u32, v))
    }
}

/// Convenience: builds the conjunction `word_a == word_b` in the AIG.
pub fn words_equal(aig: &mut ssc_aig::Aig, a: &Word, b: &Word) -> AigRef {
    ssc_aig::words::eq(aig, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssc_aig::words;
    use ssc_netlist::StateMeta;

    fn counter() -> Netlist {
        let mut n = Netlist::new("counter");
        let en = n.input("en", 1);
        let count = n.reg("count", 8, Some(Bv::zero(8)), StateMeta::default());
        let one = n.lit(8, 1);
        let inc = n.add(count.wire(), one);
        let next = n.mux(en, inc, count.wire());
        n.connect_reg(count, next);
        n.mark_output("count", count.wire());
        n
    }

    /// The defining IPC property: from a *symbolic* starting state, prove
    /// count@1 == count@0 + en@0 (mod 256). Unbounded validity from a
    /// 1-cycle window.
    #[test]
    fn counter_increment_holds_inductively() {
        let n = counter();
        let mut ipc = Ipc::new(&n);
        ipc.unroller_mut().ensure_cycle(0);
        let count = n.find("count").unwrap();
        let en = n.find("en").unwrap();

        let s0 = ipc.unroller().reg_state(count.id(), 0).clone();
        let s1 = ipc.unroller().reg_state(count.id(), 1).clone();
        let en0 = ipc.unroller().input(en, 0).clone();

        let aig = ipc.unroller_mut().aig_mut();
        let en_ext = words::zext(&en0, 8);
        let expected = words::add(aig, &s0, &en_ext);
        let goal = words::eq(aig, &s1, &expected);
        assert_eq!(ipc.check(&[], goal), PropertyResult::Holds);
    }

    /// A wrong property must produce a counterexample with a readable model.
    #[test]
    fn stuck_counter_property_fails_with_model() {
        let n = counter();
        let mut ipc = Ipc::new(&n);
        let count = n.find("count").unwrap();
        let en = n.find("en").unwrap();

        let s0 = ipc.unroller().reg_state(count.id(), 0).clone();
        let s1 = ipc.unroller().reg_state(count.id(), 1).clone();
        let en0 = ipc.unroller().input(en, 0).clone();

        let aig = ipc.unroller_mut().aig_mut();
        let goal = words::eq(aig, &s1, &s0);
        ipc.ensure_encoded(&en0);
        ipc.ensure_encoded(&s0);
        assert_eq!(ipc.check(&[], goal), PropertyResult::Violated);
        // The counterexample must have en=1 (only way the count changes).
        assert_eq!(ipc.model_word(&en0), Ok(1));
    }

    /// The same property holds under the assumption en == 0.
    #[test]
    fn assumption_restricts_counterexamples() {
        let n = counter();
        let mut ipc = Ipc::new(&n);
        let count = n.find("count").unwrap();
        let en = n.find("en").unwrap();
        let s0 = ipc.unroller().reg_state(count.id(), 0).clone();
        let s1 = ipc.unroller().reg_state(count.id(), 1).clone();
        let en0 = ipc.unroller().input(en, 0).clone();
        let aig = ipc.unroller_mut().aig_mut();
        let goal = words::eq(aig, &s1, &s0);
        let en_is_zero = words::eq_const(aig, &en0, 0);
        assert_eq!(ipc.check(&[en_is_zero], goal), PropertyResult::Holds);
        // Incremental reuse: flipping the assumption flips the verdict.
        let en_is_one = {
            let aig = ipc.unroller_mut().aig_mut();
            words::eq_const(aig, &en0, 1)
        };
        assert_eq!(ipc.check(&[en_is_one], goal), PropertyResult::Violated);
        assert_eq!(ipc.num_checks(), 2);
    }

    /// Invariants (permanent constraints) shrink the symbolic state space:
    /// here we (unsoundly, for the test) pin count@0 == 7 and show a
    /// state-specific property becomes provable.
    #[test]
    fn permanent_constraints_apply_to_all_checks() {
        let n = counter();
        let mut ipc = Ipc::new(&n);
        let count = n.find("count").unwrap();
        let s0 = ipc.unroller().reg_state(count.id(), 0).clone();
        let s1 = ipc.unroller().reg_state(count.id(), 1).clone();
        let aig = ipc.unroller_mut().aig_mut();
        let pinned = words::eq_const(aig, &s0, 7);
        ipc.add_constraint(pinned);
        let aig = ipc.unroller_mut().aig_mut();
        let le8 = {
            let eight = words::constant(aig, Bv::new(8, 9));
            words::ult(aig, &s1, &eight)
        };
        assert_eq!(ipc.check(&[], le8), PropertyResult::Holds);
    }

    /// Multi-cycle: over 3 cycles with en held high, count@3 == count@0 + 3.
    #[test]
    fn multicycle_unrolling() {
        let n = counter();
        let mut ipc = Ipc::new(&n);
        ipc.unroller_mut().ensure_cycle(2);
        let count = n.find("count").unwrap();
        let en = n.find("en").unwrap();
        let s0 = ipc.unroller().reg_state(count.id(), 0).clone();
        let s3 = ipc.unroller().reg_state(count.id(), 3).clone();
        let ens: Vec<Word> =
            (0..3).map(|c| ipc.unroller().input(en, c).clone()).collect();
        let aig = ipc.unroller_mut().aig_mut();
        let en_all: Vec<AigRef> = ens.iter().map(|w| w[0]).collect();
        let all_en = aig.and_all(en_all);
        let three = words::constant(aig, Bv::new(8, 3));
        let expect = words::add(aig, &s0, &three);
        let goal = words::eq(aig, &s3, &expect);
        assert_eq!(ipc.check(&[all_en], goal), PropertyResult::Holds);
        // Without the enable assumption it is violated.
        assert_eq!(ipc.check(&[], goal), PropertyResult::Violated);
    }

    /// Memory state chaining across cycles.
    #[test]
    fn memory_word_state_is_tracked() {
        let mut n = Netlist::new("m");
        let en = n.input("en", 1);
        let addr = n.input("addr", 2);
        let data = n.input("data", 8);
        let mem = n.memory("ram", 4, 8, StateMeta::memory(true));
        n.mem_write(mem, en, addr, data);
        let rd = n.mem_read(mem, addr);
        n.mark_output("rd", rd);

        let mut ipc = Ipc::new(&n);
        let en_w = n.find("en").unwrap();
        let addr_w = n.find("addr").unwrap();
        let data_w = n.find("data").unwrap();
        let w2_0 = ipc.unroller().mem_word_state(mem, 2, 0).clone();
        let w2_1 = ipc.unroller().mem_word_state(mem, 2, 1).clone();
        let en0 = ipc.unroller().input(en_w, 0).clone();
        let addr0 = ipc.unroller().input(addr_w, 0).clone();
        let data0 = ipc.unroller().input(data_w, 0).clone();

        let aig = ipc.unroller_mut().aig_mut();
        // Assume: write enabled to word 2 with data d. Prove: word2@1 == d.
        let addr_is_2 = words::eq_const(aig, &addr0, 2);
        let en_set = words::eq_const(aig, &en0, 1);
        let goal = words::eq(aig, &w2_1, &data0);
        assert_eq!(ipc.check(&[addr_is_2, en_set], goal), PropertyResult::Holds);
        // Prove frame rule: without a write to word 2, it is unchanged.
        let aig = ipc.unroller_mut().aig_mut();
        let no_write = words::eq_const(aig, &en0, 0);
        let unchanged = words::eq(aig, &w2_1, &w2_0);
        assert_eq!(ipc.check(&[no_write], unchanged), PropertyResult::Holds);
    }

    /// A fork inherits the encoded node→var table (same AIG ref, same
    /// literal, no re-encoding) and the two checkers diverge freely.
    #[test]
    fn fork_shares_encoding_and_diverges() {
        let n = counter();
        let mut ipc = Ipc::new(&n);
        let count = n.find("count").unwrap();
        let s0 = ipc.unroller().reg_state(count.id(), 0).clone();
        let aig = ipc.unroller_mut().aig_mut();
        let is_zero = words::eq_const(aig, &s0, 0);
        let l = ipc.lit_of(is_zero);
        let encoded = ipc.encoded_nodes();

        let mut fork = ipc.fork();
        assert_eq!(fork.encoded_nodes(), encoded, "the encoded prefix carries over");
        assert_eq!(fork.lit_of(is_zero), l, "shared refs keep their variables");
        assert_eq!(fork.encoded_nodes(), encoded, "re-query must not re-encode");

        // Diverge: pin count@0 == 0 in the fork only. `¬is_zero` becomes
        // unsatisfiable there (the property Holds) while the original's
        // starting state stays fully symbolic.
        fork.add_constraint(is_zero);
        assert_eq!(fork.check_lits(&[!l]), PropertyResult::Holds);
        assert_eq!(ipc.check_lits(&[!l]), PropertyResult::Violated);
    }

    /// A budgeted check that runs out reports `Interrupted` — and the
    /// session survives: clearing the budget re-runs the same check to its
    /// real verdict.
    #[test]
    fn budgeted_check_interrupts_and_session_survives() {
        let n = counter();
        let mut ipc = Ipc::new(&n);
        let count = n.find("count").unwrap();
        let s0 = ipc.unroller().reg_state(count.id(), 0).clone();
        let s1 = ipc.unroller().reg_state(count.id(), 1).clone();
        let aig = ipc.unroller_mut().aig_mut();
        let goal = words::eq(aig, &s1, &s0);

        let token = ssc_sat::CancelToken::new();
        token.cancel();
        ipc.set_budget(Budget::unlimited().with_cancel(&token));
        match ipc.check(&[], goal) {
            PropertyResult::Interrupted(int) => {
                assert_eq!(int.cause, ssc_sat::InterruptCause::Cancelled);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        ipc.set_budget(Budget::unlimited());
        assert_eq!(ipc.check(&[], goal), PropertyResult::Violated);
        assert_eq!(ipc.num_checks(), 2);
    }

    /// Activation-literal clauses apply only while assumed and can be
    /// retired without invalidating the session.
    #[test]
    fn activation_literals_guard_retirable_clauses() {
        let n = counter();
        let mut ipc = Ipc::new(&n);
        let count = n.find("count").unwrap();
        let s0 = ipc.unroller().reg_state(count.id(), 0).clone();
        let aig = ipc.unroller_mut().aig_mut();
        let is_zero = words::eq_const(aig, &s0, 0);
        let is_one = {
            let aig = ipc.unroller_mut().aig_mut();
            words::eq_const(aig, &s0, 1)
        };

        // Under act: count@0 ∈ {0}. Checking "count@0 == 1" must fail
        // (Holds means the negated assumption is unsat).
        let act = ipc.activation_literal();
        ipc.add_clause_under(act, &[is_zero]);
        let l_one = ipc.lit_of(is_one);
        assert_eq!(ipc.check_lits(&[act, l_one]), PropertyResult::Holds);

        // Without assuming act the clause does not constrain anything.
        assert_eq!(ipc.check_lits(&[l_one]), PropertyResult::Violated);

        // Retire and replace by a new activation with a different range.
        ipc.retire_activation(act);
        let act2 = ipc.activation_literal();
        ipc.add_clause_under(act2, &[is_one]);
        assert_eq!(ipc.check_lits(&[act2, l_one]), PropertyResult::Violated);
        let l_zero = ipc.lit_of(is_zero);
        assert_eq!(ipc.check_lits(&[act2, l_zero]), PropertyResult::Holds);
    }
}
