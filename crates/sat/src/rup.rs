//! An independent RUP (reverse unit propagation) proof checker.
//!
//! A certifying [`crate::Solver`] (see [`crate::Solver::certifying`]) hands
//! a [`Checker`] every input clause, every learnt clause and every
//! conclusive answer. The checker verifies each one against its own clause
//! store with its own two-watched-literal unit propagation, and panics on
//! anything it cannot verify. It shares nothing with the solver but
//! [`Lit`], so a bug in the solver's propagation, conflict analysis,
//! backtracking, core extraction or clause-database reduction shows up as
//! a rejected lemma or answer rather than as a wrong verdict.
//!
//! - A **lemma** (learnt clause) must be RUP: assigning the negation of
//!   every literal and propagating the inputs and the earlier lemmas must
//!   reach a conflict. The proof is checked forward, one lemma at a time.
//! - An **Unsat answer** under assumptions must come with a core that is a
//!   subset of those assumptions, and the clause ¬core must be RUP. An
//!   empty core asks for the empty clause.
//! - A **Sat answer**'s model must satisfy every input clause.
//! - A clause the formula implies but unit propagation does not refute
//!   ([`Checker::derive`]) enters as lemmas too: case splits over given
//!   variables break it into RUP lemmas, each checked like a learnt one,
//!   so an implied clause never becomes an input.
//!
//! The checker never deletes a clause. A lemma the solver later deletes
//! only makes the checker's propagation stronger, and RUP is monotone in
//! the clause set, so every check stays sound.
//!
//! # Example
//!
//! ```
//! use ssc_sat::rup::Checker;
//! use ssc_sat::Var;
//!
//! let (a, b) = (Var::from_index(0), Var::from_index(1));
//! let mut checker = Checker::default();
//! checker.add_input(&[a.pos(), b.pos()]);
//! checker.add_input(&[a.pos(), b.neg()]);
//! assert!(checker.is_rup(&[a.pos()]));
//! assert!(!checker.is_rup(&[b.pos()]));
//! checker.add_lemma(&[a.pos()]);
//! checker.check_unsat(&[a.neg()], &[a.neg(), b.pos()]);
//! ```

use crate::lit::{Lit, Var};

/// Literal values, indexed by [`Lit::index`].
const UNDEF: i8 = 0;
const TRUE: i8 = 1;
const FALSE: i8 = -1;

/// A clause watching one of its two first literals; `blocker` is another
/// literal of it whose truth makes the visit unnecessary. A clause with
/// two open literals at level 0 is [`BINARY`]: its blocker is the other
/// open literal, and propagation never reads the store for it.
#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// [`Watch::clause`] of a clause that is binary at level 0 (its other
/// literals are false there for good, since level 0 is never undone).
const BINARY: u32 = u32::MAX;

/// A forward RUP checker (see the module docs).
#[derive(Clone, Default)]
pub struct Checker {
    /// Clause store: `[len, lit0, lit1, ...]` per clause, literals by
    /// [`Lit::index`]. Holds every input clause and every lemma with more
    /// than two open literals at level 0 when added.
    store: Vec<u32>,
    /// Store offsets of the input clauses, which models are checked against.
    inputs: Vec<u32>,
    /// Per literal: the clauses to visit when it becomes true, i.e. those
    /// watching its negation.
    watches: Vec<Vec<Watch>>,
    /// Per literal: [`TRUE`], [`FALSE`] or [`UNDEF`].
    value: Vec<i8>,
    /// Assigned literals in assignment order. Everything up to the length
    /// between checks is implied at level 0 and never unassigned.
    trail: Vec<Lit>,
    /// Trail literals whose watches have been visited.
    head: usize,
    /// The clauses imply the empty clause by unit propagation: from here
    /// on every clause is RUP and every core is accepted.
    refuted: bool,
    /// Lemmas accepted so far, for rejection messages.
    lemmas: u64,
}

impl Checker {
    /// Adds a clause of the formula as given. It is an axiom: it is not
    /// checked, and every later model must satisfy it.
    pub fn add_input(&mut self, clause: &[Lit]) {
        self.grow(clause);
        let at = self.push(clause);
        self.inputs.push(at);
        self.install(clause, Some(at));
    }

    /// Checks that `clause` is RUP with respect to the inputs and the
    /// earlier lemmas, then adds it as a lemma.
    ///
    /// # Panics
    ///
    /// Panics if the clause is not RUP.
    pub fn add_lemma(&mut self, clause: &[Lit]) {
        self.grow(clause);
        assert!(
            self.is_rup(clause),
            "rup: lemma {} {clause:?} is not implied by unit propagation",
            self.lemmas + 1
        );
        self.accept(clause);
    }

    /// Adds a clause already shown to be RUP as a lemma.
    fn accept(&mut self, clause: &[Lit]) {
        self.lemmas += 1;
        self.install(clause, None);
    }

    /// Derives `clause` from the inputs and the earlier lemmas and adds it
    /// as a lemma. A clause that is not RUP is split on the first variable
    /// of `splits` that propagating its negation leaves unassigned: the
    /// clause extended by that variable in each polarity is derived the
    /// same way, after which the clause itself is RUP. Every lemma on the
    /// way is RUP when it is added, so `derive` accepts only what the
    /// clauses imply.
    ///
    /// # Panics
    ///
    /// Panics if the splits run out before a branch is RUP: always when the
    /// clauses do not imply `clause`, and also when they do but unit
    /// propagation over `splits` cannot show it.
    pub fn derive(&mut self, clause: &[Lit], splits: &[Var]) {
        for v in splits {
            self.grow(&[v.pos()]);
        }
        let mut branch = clause.to_vec();
        assert!(
            self.derive_branch(&mut branch, splits),
            "rup: {clause:?} is not derived by case splits over {splits:?}"
        );
    }

    /// One node of [`Checker::derive`]'s split tree: derives `clause` and
    /// adds it as a lemma, or returns `false` when the splits run out.
    fn derive_branch(&mut self, clause: &mut Vec<Lit>, splits: &[Var]) -> bool {
        self.grow(clause);
        let mut open = None;
        if self.under(clause.iter().map(|&l| !l), |c| {
            open = splits.iter().copied().find(|&v| c.val(v.pos()) == UNDEF);
        }) {
            // RUP, as just shown.
            self.accept(clause);
            return true;
        }
        let Some(v) = open else { return false };
        for l in [v.pos(), v.neg()] {
            clause.push(l);
            let derived = self.derive_branch(clause, splits);
            clause.pop();
            if !derived {
                return false;
            }
        }
        // The two branches are lemmas now, and they resolve to `clause`.
        self.add_lemma(clause);
        true
    }

    /// Checks an Unsat answer under `assumptions`: every literal of `core`
    /// must be one of the assumptions, and the clause ¬core must be RUP (for
    /// an empty core, the empty clause).
    ///
    /// # Panics
    ///
    /// Panics if a core literal is not an assumption or ¬core is not RUP.
    pub fn check_unsat(&mut self, core: &[Lit], assumptions: &[Lit]) {
        if let Some(l) = core.iter().find(|l| !assumptions.contains(l)) {
            panic!("rup: core literal {l} is not among the assumptions {assumptions:?}");
        }
        self.grow(core);
        assert!(
            self.refutes(core.iter().copied()),
            "rup: the clauses do not refute the core {core:?} by unit propagation"
        );
    }

    /// Checks a Sat answer: `holds(l)` must be true for some literal of
    /// every input clause.
    ///
    /// # Panics
    ///
    /// Panics naming the first input clause the model violates.
    pub fn check_model(&self, holds: impl Fn(Lit) -> bool) {
        for &at in &self.inputs {
            let clause = self.lits_at(at);
            if !clause.clone().any(&holds) {
                panic!("rup: the model violates input clause {:?}", clause.collect::<Vec<_>>());
            }
        }
    }

    /// Whether `clause` is RUP: assigning the negation of each literal and
    /// propagating reaches a conflict. Leaves the checker unchanged.
    pub fn is_rup(&mut self, clause: &[Lit]) -> bool {
        self.grow(clause);
        self.refutes(clause.iter().map(|&l| !l))
    }

    /// Appends `clause` to the store and returns its offset.
    fn push(&mut self, clause: &[Lit]) -> u32 {
        let at = self.store.len() as u32;
        self.store.push(clause.len() as u32);
        self.store.extend(clause.iter().map(|l| l.index() as u32));
        at
    }

    /// The literals of the stored clause at offset `at`.
    fn lits_at(&self, at: u32) -> impl Iterator<Item = Lit> + Clone + '_ {
        let at = at as usize;
        let len = self.store[at] as usize;
        self.store[at + 1..at + 1 + len].iter().map(|&l| Lit::from_index(l as usize))
    }

    /// Sizes the per-literal tables for every variable of `lits`.
    fn grow(&mut self, lits: &[Lit]) {
        if let Some(max) = lits.iter().map(|l| l.index() | 1).max() {
            if self.value.len() <= max {
                self.value.resize(max + 1, UNDEF);
                self.watches.resize_with(max + 1, Vec::new);
            }
        }
    }

    #[inline]
    fn val(&self, l: Lit) -> i8 {
        self.value[l.index()]
    }

    fn assign(&mut self, l: Lit) {
        self.value[l.index()] = TRUE;
        self.value[(!l).index()] = FALSE;
        self.trail.push(l);
    }

    /// Assigns `lits` on top of the level-0 trail and propagates. Returns
    /// whether that reaches a conflict, and undoes every assignment it made.
    fn refutes(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        self.under(lits, |_| {})
    }

    /// [`Checker::refutes`], handing the checker to `inspect` with the
    /// propagated assignment in place when it reaches no conflict.
    fn under(&mut self, lits: impl IntoIterator<Item = Lit>, inspect: impl FnOnce(&Self)) -> bool {
        if self.refuted {
            return true;
        }
        let root = self.trail.len();
        let mut conflict = false;
        for l in lits {
            match self.val(l) {
                TRUE => {}
                FALSE => {
                    conflict = true;
                    break;
                }
                _ => self.assign(l),
            }
        }
        let conflict = conflict || self.propagate();
        if !conflict {
            inspect(self);
        }
        for &l in &self.trail[root..] {
            self.value[l.index()] = UNDEF;
            self.value[(!l).index()] = UNDEF;
        }
        self.trail.truncate(root);
        self.head = root;
        conflict
    }

    /// Adds `clause` at level 0: a satisfied clause changes nothing, a
    /// falsified one refutes the formula, a unit one is assigned and
    /// propagated, and any other is watched. `stored` is its offset if it
    /// is already in the store (inputs); a lemma is stored only if it has
    /// more than two open literals.
    fn install(&mut self, clause: &[Lit], stored: Option<u32>) {
        if self.refuted || clause.iter().any(|&l| self.val(l) == TRUE) {
            return;
        }
        let mut open = clause.iter().copied().filter(|&l| self.val(l) == UNDEF);
        let (Some(first), second) = (open.next(), open.next()) else {
            self.refuted = true;
            return;
        };
        let Some(second) = second else {
            self.assign(first);
            self.refuted = self.propagate();
            return;
        };
        if open.next().is_none() {
            self.watches[(!first).index()].push(Watch { clause: BINARY, blocker: second });
            self.watches[(!second).index()].push(Watch { clause: BINARY, blocker: first });
            return;
        }
        let at = match stored {
            Some(at) => at,
            None => self.push(clause),
        };
        // Move the two unassigned literals to the watched positions.
        let base = at as usize + 1;
        for (pos, l) in [first, second].into_iter().enumerate() {
            let k = (pos..clause.len())
                .find(|&k| self.store[base + k] == l.index() as u32)
                .expect("an open literal is in its clause");
            self.store.swap(base + pos, base + k);
        }
        self.watches[(!first).index()].push(Watch { clause: at, blocker: second });
        self.watches[(!second).index()].push(Watch { clause: at, blocker: first });
    }

    /// Unit propagation from `head` to the end of the trail. Returns
    /// whether some clause became falsified.
    fn propagate(&mut self) -> bool {
        while self.head < self.trail.len() {
            let p = self.trail[self.head];
            self.head += 1;
            let false_lit = (!p).index() as u32;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let (mut i, mut j) = (0, 0);
            let mut conflict = false;
            'watches: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.val(w.blocker) == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                if w.clause == BINARY {
                    ws[j] = w;
                    j += 1;
                    if self.val(w.blocker) == FALSE {
                        conflict = true;
                        break;
                    }
                    self.assign(w.blocker);
                    continue;
                }
                let base = w.clause as usize + 1;
                let len = self.store[base - 1] as usize;
                if self.store[base] == false_lit {
                    self.store.swap(base, base + 1);
                }
                let first = Lit::from_index(self.store[base] as usize);
                let kept = Watch { clause: w.clause, blocker: first };
                if first != w.blocker && self.val(first) == TRUE {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                for k in 2..len {
                    let lk = Lit::from_index(self.store[base + k] as usize);
                    if self.val(lk) != FALSE {
                        self.store.swap(base + 1, base + k);
                        self.watches[(!lk).index()].push(kept);
                        continue 'watches;
                    }
                }
                ws[j] = kept;
                j += 1;
                if self.val(first) == FALSE {
                    conflict = true;
                    break;
                }
                self.assign(first);
            }
            // On a conflict, keep the watches not visited yet.
            ws.copy_within(i.., j);
            ws.truncate(j + ws.len() - i);
            self.watches[p.index()] = ws;
            if conflict {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn lits(v: &[i32]) -> Vec<Lit> {
        v.iter().map(|&x| Var::from_index(x.unsigned_abs() as usize - 1).lit(x < 0)).collect()
    }

    /// All eight sign patterns over x1, x2, x3: unsatisfiable, with no
    /// unit for propagation to start from.
    fn inputs() -> Vec<Vec<Lit>> {
        (0..8)
            .map(|m| {
                let signed = |bit: i32, v: i32| if m & bit == 0 { v } else { -v };
                lits(&[signed(1, 1), signed(2, 2), signed(4, 3)])
            })
            .collect()
    }

    /// A refutation of [`inputs`] in which each lemma needs its predecessor:
    /// (x1 ∨ x2), (x1), (x2), then the empty clause.
    fn proof() -> Vec<Vec<Lit>> {
        vec![lits(&[1, 2]), lits(&[1]), lits(&[2])]
    }

    fn checker_with(lemmas: &[Vec<Lit>]) -> Checker {
        let mut c = Checker::default();
        for clause in inputs() {
            c.add_input(&clause);
        }
        for lemma in lemmas {
            c.add_lemma(lemma);
        }
        c
    }

    fn rejects(f: impl FnOnce()) -> bool {
        catch_unwind(AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn accepts_the_full_proof_and_the_empty_core() {
        let mut c = checker_with(&proof());
        assert!(c.is_rup(&[]), "the proof ends in the empty clause");
        c.check_unsat(&[], &[]);
    }

    #[test]
    fn every_lemma_is_needed() {
        // Without the lemmas, neither the empty clause nor the last two
        // lemmas are RUP: the inputs alone have no unit to propagate.
        let mut bare = checker_with(&[]);
        assert!(!bare.is_rup(&[]));
        for lemma in &proof()[1..] {
            assert!(!bare.is_rup(lemma), "{lemma:?} is RUP without the earlier lemmas");
        }
    }

    #[test]
    fn rejects_the_proof_with_any_one_lemma_dropped() {
        let full = proof();
        for dropped in 0..full.len() {
            let mut kept = full.clone();
            kept.remove(dropped);
            let rejected = rejects(|| {
                let mut c = checker_with(&kept);
                c.check_unsat(&[], &[]);
            });
            assert!(rejected, "proof without lemma {dropped} was accepted");
        }
    }

    #[test]
    fn rejects_a_lemma_with_a_flipped_literal() {
        // (x1) flipped to (¬x1): assigning x1 satisfies (x1 ∨ x2) and
        // leaves every input with two open literals.
        let mut mutant = proof();
        mutant[1] = lits(&[-1]);
        let mut c = checker_with(&mutant[..1]);
        assert!(!c.is_rup(&mutant[1]), "the mutant lemma is RUP");
        assert!(rejects(|| {
            checker_with(&mutant);
        }));
    }

    #[test]
    fn rejects_a_core_the_clauses_do_not_imply() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x3): assuming ¬x2 alone is satisfiable.
        let mut c = Checker::default();
        c.add_input(&lits(&[1, 2]));
        c.add_input(&lits(&[-1, 3]));
        let assumptions = lits(&[-2, -3]);
        c.check_unsat(&assumptions, &assumptions);
        assert!(rejects(|| c.clone().check_unsat(&lits(&[-2]), &assumptions)));
        assert!(rejects(|| c.clone().check_unsat(&[], &assumptions)));
    }

    #[test]
    fn rejects_a_core_literal_that_is_not_an_assumption() {
        let mut c = Checker::default();
        c.add_input(&lits(&[1]));
        c.check_unsat(&lits(&[-1]), &lits(&[-1, 2]));
        assert!(rejects(|| c.clone().check_unsat(&lits(&[-1]), &lits(&[2]))));
    }

    #[test]
    fn rejects_a_model_that_violates_an_input_clause() {
        let mut c = Checker::default();
        c.add_input(&lits(&[1, 2]));
        c.add_input(&lits(&[-1, 2]));
        let model = lits(&[-1, 2]);
        c.check_model(|l| model.contains(&l));
        let bad = lits(&[1, -2]);
        assert!(rejects(|| c.check_model(|l| bad.contains(&l))));
    }

    /// The four clauses over x1, x2 with x3 positive: they imply (x3),
    /// but propagating ¬x3 alone finds no unit.
    fn x3_by_cases() -> Checker {
        let mut c = Checker::default();
        for clause in &inputs()[..4] {
            c.add_input(clause);
        }
        c
    }

    #[test]
    fn derive_splits_an_implied_clause_into_rup_lemmas() {
        let var = |i: usize| Var::from_index(i - 1);
        let mut c = x3_by_cases();
        assert!(!c.is_rup(&lits(&[3])));
        // (x3 ∨ x1) and (x3 ∨ ¬x1) are RUP, and then (x3) is.
        c.derive(&lits(&[3]), &[var(1), var(2)]);
        assert_eq!(c.lemmas, 3);
        c.check_unsat(&lits(&[-3]), &lits(&[-3]));
    }

    #[test]
    fn derive_rejects_a_clause_the_inputs_do_not_imply() {
        let var = |i: usize| Var::from_index(i - 1);
        let all = [var(1), var(2), var(3)];
        assert!(rejects(|| x3_by_cases().derive(&lits(&[-3]), &all)));
        assert!(rejects(|| x3_by_cases().derive(&lits(&[1, 2]), &all)));
        // Implied, but no split is left to show it.
        assert!(rejects(|| x3_by_cases().derive(&lits(&[3]), &[])));
    }

    #[test]
    fn level0_units_propagate_into_later_checks() {
        // Units added after a watched clause still propagate through it.
        let mut c = Checker::default();
        c.add_input(&lits(&[-1, -2, 3]));
        assert!(!c.is_rup(&lits(&[3])));
        c.add_input(&lits(&[1]));
        c.add_input(&lits(&[2]));
        assert!(c.is_rup(&lits(&[3])));
        c.add_input(&lits(&[-3]));
        assert!(c.is_rup(&[]), "the units falsify the clause at level 0");
    }
}
