//! The UPEC-SSC proof procedures (paper Alg. 1 and Alg. 2).
//!
//! Both procedures run inside **one persistent [`Session`]**: the unrolled
//! procedure (Alg. 2) grows the property window cycle by cycle in place,
//! and on saturation hands the *same* session to the inductive fixpoint
//! (Alg. 1), so the SAT solver, the CNF encoding of the unrolled prefix
//! and every learnt clause survive from the first check to the last. The
//! session may come from a shared per-size prefix fork
//! ([`UpecAnalysis::alg2_with_session`] — the portfolio entry point) or be
//! built privately ([`UpecAnalysis::alg2`]); both are state-identical.
//!
//! Alg. 1 and the incremental Alg. 2 give each session the difference
//! layer of every cycle they grow it to, before that cycle's first check
//! (see [`crate::difference`] and [`Session::difference_layer`]):
//! implied clauses that let unit propagation prove "equal fan-ins give an
//! equal output" gate by gate, over the gates of the CNF encoding (a MUX
//! also gets "equal select and chosen branch give an equal output"). A
//! layer gives XOR nodes only to pairs that own a solver variable when it
//! is built, so adding it encodes at most about one new node per such
//! pair.
//!
//! A window-k check of the incremental Alg. 2 also assumes `S[c]` equal at
//! every cycle `c < k` (the `proven` argument of [`Session::check_window`]).
//! The window-(k-1) check proved exactly these equalities from
//! `State_Equivalence(S[0])` and a subset of window k's standing
//! assumptions, so every model of the window-k check satisfies them: no
//! verdict, trajectory or counterexample changes, but the solver stops
//! re-deriving them (the carried-depth step of incremental BMC and
//! k-induction; Eén & Sörensson, BMC 2003). They enter as assumption
//! literals, so a certifying session checks every answer that rests on
//! them like any other.
//!
//! [`UpecAnalysis::alg2_fresh_baseline`] keeps the tear-down-per-check
//! variant alive as a cross-check reference and performance baseline, and
//! is layer-free and carries nothing on purpose: it is the reference the
//! layered engine's verdicts are compared against.

use std::time::Instant;

use crate::atoms::AtomSet;
use crate::engine::{Session, UpecAnalysis};
use crate::report::{
    InconclusiveCause, InconclusiveReport, IterationStat, SecureReport, Verdict, VulnReport,
};
use ssc_ipc::PropertyResult;

/// Snapshot of the measurable session state taken around one solver call.
struct IterSnapshot {
    t: Instant,
    encoded: usize,
    stats: ssc_sat::SolverStats,
}

impl IterSnapshot {
    fn take(sess: &Session<'_>) -> Self {
        IterSnapshot {
            t: Instant::now(),
            encoded: sess.encoded_nodes(),
            stats: sess.solver_stats(),
        }
    }

    fn finish(
        self,
        sess: &mut Session<'_>,
        iteration: usize,
        window: usize,
        set_size: usize,
        removed: usize,
    ) -> IterationStat {
        IterationStat {
            iteration,
            window,
            set_size,
            removed,
            runtime: self.t.elapsed(),
            encoded_nodes: sess.encoded_nodes(),
            encoded_delta: sess.encoded_nodes() - self.encoded,
            aig_nodes: sess.ipc().unroller().aig().num_nodes(),
            solver: sess.solver_stats().delta_since(&self.stats),
            atoms_core_dropped: 0,
            atoms_static_pruned: 0,
            goal_disjuncts: sess.take_goal_disjuncts(),
            cube: None,
        }
    }
}

impl UpecAnalysis {
    /// **Algorithm 1** (UPEC-SSC): the 2-cycle iterative fixpoint.
    ///
    /// Starting from `S = S_not_victim`, repeatedly checks the 2-cycle
    /// property *assume `State_Equivalence(S)` at `t`, prove it at `t+1`*.
    /// Counterexamples hitting `S_pers` prove a vulnerability; transient
    /// counterexamples shrink `S`. An `UNSAT` result makes the property
    /// inductive: combined with the trivial induction base (before the
    /// victim's first access nothing is influenced) this yields an
    /// *unbounded* security proof from a two-clock-cycle window.
    pub fn alg1(&self) -> Verdict {
        self.alg1_from(self.s_not_victim())
    }

    /// Algorithm 1 starting from a caller-provided set (used as the
    /// induction step after Alg. 2, with `S = S[k]`).
    pub fn alg1_from(&self, initial: AtomSet) -> Verdict {
        let mut sess = Session::new(self, 1);
        self.alg1_in_session(&mut sess, initial)
    }

    /// Algorithm 1 running inside an **existing** session.
    ///
    /// This is how Alg. 2 finishes: the session that grew the unrolled
    /// window performs the final inductive proof too, so the fixpoint
    /// reuses the 2-cycle prefix encoding and all learnt clauses instead
    /// of rebuilding a solver. The standing assumptions are cached by the
    /// session and passed as a slice — no per-iteration cloning. Before the
    /// first check the session gets the difference layer of its first
    /// cycle ([`Session::difference_layer`]) unless it has it.
    pub fn alg1_in_session(&self, sess: &mut Session<'_>, initial: AtomSet) -> Verdict {
        self.alg1_run(sess, initial, true)
    }

    /// Alg. 1 in `sess`, with the difference layer of the first cycle
    /// added before the first check when `layered`.
    fn alg1_run(&self, sess: &mut Session<'_>, initial: AtomSet, layered: bool) -> Verdict {
        let start = Instant::now();
        if layered {
            sess.ensure_difference_layer(1);
        }
        let mut s = initial;
        let mut iterations: Vec<IterationStat> = Vec::new();
        let mut removed_atoms: Vec<String> = Vec::new();

        loop {
            let snap = IterSnapshot::take(sess);
            let set_size = s.len();
            let result = sess.check_window(1, &s, &[], &[(1, &s)]);

            match result {
                PropertyResult::Holds => {
                    iterations.push(snap.finish(sess, iterations.len() + 1, 1, set_size, 0));
                    debug_assert!(
                        self.s_pers().iter().all(|a| s.contains(a)),
                        "S_pers must be contained in the final inductive set"
                    );
                    // Deterministic report: removal order depends on model
                    // extraction order, the report must not.
                    removed_atoms.sort_unstable();
                    return Verdict::Secure(SecureReport {
                        iterations,
                        final_set_size: s.len(),
                        removed_atoms,
                        total_runtime: start.elapsed(),
                    });
                }
                PropertyResult::Interrupted(int) => {
                    // Bounded effort surfaces as an explicit gave-up verdict
                    // with the partial trajectory — never as Secure/Vulnerable.
                    iterations.push(snap.finish(sess, iterations.len() + 1, 1, set_size, 0));
                    return Verdict::Inconclusive(InconclusiveReport {
                        cause: InconclusiveCause::Interrupted(int),
                        iterations,
                        total_runtime: start.elapsed(),
                    });
                }
                PropertyResult::Violated => {
                    let diffs = sess.extract_diffs(&s, 1);
                    if diffs.is_empty() {
                        iterations.push(snap.finish(sess, iterations.len() + 1, 1, set_size, 0));
                        return Verdict::Inconclusive(InconclusiveReport {
                            cause: InconclusiveCause::NoObservableDifference,
                            iterations,
                            total_runtime: start.elapsed(),
                        });
                    }
                    sess.note_shrunk(&diffs);
                    let hit_pers = diffs.iter().any(|d| d.persistent);
                    let removed = if hit_pers { 0 } else { diffs.len() };
                    iterations.push(snap.finish(
                        sess,
                        iterations.len() + 1,
                        1,
                        set_size,
                        removed,
                    ));
                    if hit_pers {
                        let cex = sess.capture_cex(diffs, 1, 1);
                        return Verdict::Vulnerable(VulnReport {
                            iterations,
                            cex,
                            total_runtime: start.elapsed(),
                        });
                    }
                    for d in &diffs {
                        removed_atoms.push(d.name.clone());
                        s.remove(&d.atom);
                    }
                }
            }
        }
    }

    /// **Algorithm 2** (unrolled UPEC-SSC): grows the property window cycle
    /// by cycle, maintaining one state set per cycle, until either a
    /// persistent divergence is found (vulnerable, with an *explicit*
    /// multi-cycle counterexample) or the influenced sets saturate
    /// (`S[k] == S[k-1]`), after which Algorithm 1 performs the final
    /// inductive proof with `S = S[k]`.
    ///
    /// The whole fixpoint — every window growth, every refinement
    /// iteration and the concluding Alg. 1 — runs in one persistent
    /// [`Session`]: the unroller and CNF encoding grow in place, and the
    /// per-iteration [`IterationStat::encoded_delta`] counter records that
    /// the encoding work per window stays bounded by the newly unrolled
    /// cycle's cone.
    pub fn alg2(&self) -> Verdict {
        self.alg2_impl(Some(Session::new(self, 1)))
    }

    /// Algorithm 2 running inside a caller-provided session — the entry
    /// point of the shared-prefix portfolio: fork a per-size
    /// [`crate::SessionPrefix`], bind it with [`Session::with_prefix`] and
    /// hand it here, and the whole procedure runs on top of the shared
    /// product encoding instead of rebuilding it.
    ///
    /// # Panics
    ///
    /// Panics if `sess` was created for a different analysis — its
    /// scenario assumptions would not match the atom sets and persistence
    /// classification this procedure derives from `self`.
    pub fn alg2_with_session<'s>(&'s self, sess: Session<'s>) -> Verdict {
        assert!(
            std::ptr::eq(sess.analysis(), self),
            "session belongs to a different analysis"
        );
        self.alg2_impl(Some(sess))
    }

    /// [`UpecAnalysis::alg2`] under a resource [`ssc_sat::Budget`]: every
    /// solver call of the run (window growths, refinements, the concluding
    /// induction) is governed by `budget`. A call whose budget runs out
    /// surfaces as [`Verdict::Inconclusive`] with
    /// [`InconclusiveCause::Interrupted`] and the partial iteration
    /// trajectory — the analysis never panics on exhaustion and never maps
    /// an interrupted run to `Secure`/`Vulnerable`.
    pub fn alg2_budgeted(&self, budget: ssc_sat::Budget) -> Verdict {
        let mut sess = Session::new(self, 1);
        sess.set_budget(budget);
        self.alg2_impl(Some(sess))
    }

    /// The fresh-session reference implementation of Alg. 2: a new
    /// [`Session`] (unroller, CNF encoding, solver) is constructed for
    /// **every solver call**, discarding all learnt clauses and re-encoding
    /// the entire prefix each time.
    ///
    /// Exists as (a) the semantic cross-check oracle for the incremental
    /// engine — both must produce identical verdicts — and (b) the
    /// performance baseline the `e6_scaling`/`e7_alg1_vs_alg2` experiments
    /// measure the persistent session against. It adds no difference
    /// layer, its concluding Alg. 1 included, and assumes no equality a
    /// previous window proved, so it stays the lemma-free reference: a
    /// layer clause or a carried equality that changed an answer would
    /// show as a disagreement.
    pub fn alg2_fresh_baseline(&self) -> Verdict {
        self.alg2_impl(None)
    }

    fn alg2_impl<'s>(&'s self, initial_sess: Option<Session<'s>>) -> Verdict {
        let start = Instant::now();
        let incremental = initial_sess.is_some();
        let s_init = self.s_not_victim();
        let mut s: Vec<AtomSet> = vec![s_init.clone(), s_init];
        let mut k = 1usize;
        let mut sess_slot: Option<Session<'_>> = initial_sess;
        let mut iterations: Vec<IterationStat> = Vec::new();

        loop {
            if !incremental {
                // Baseline semantics: tear the whole session down before
                // every check.
                sess_slot = Some(Session::new(self, k));
            }
            let sess = sess_slot.as_mut().expect("session exists in both modes");
            sess.ensure_window(k);
            if incremental {
                sess.ensure_difference_layer(k);
            }
            let snap = IterSnapshot::take(sess);
            let set_size = s[k].len();
            let result = if incremental {
                let goals: Vec<(usize, &AtomSet)> = (1..=k).map(|c| (c, &s[c])).collect();
                // The window-(k-1) check proved the goals below cycle k
                // from `s[0]` and a subset of this window's standing
                // assumptions. No model of this window diverges there, so
                // those sets stay as they are, and this check assumes them
                // instead of re-deriving them.
                sess.check_window(k, &s[0], &goals[..k - 1], &goals)
            } else {
                // Baseline goal construction: one monolithic conjunction,
                // re-encoded from scratch in the fresh session.
                let mut assumptions = sess.base_assumptions(k);
                assumptions.push(sess.state_eq(&s[0], 0));
                let goals: Vec<_> = (1..=k).map(|c| sess.state_eq(&s[c], c)).collect();
                let goal = {
                    let aig = sess.ipc_mut().unroller_mut().aig_mut();
                    aig.and_all(goals)
                };
                sess.ipc_mut().check(&assumptions, goal)
            };

            match result {
                PropertyResult::Holds => {
                    iterations.push(snap.finish(sess, iterations.len() + 1, k, set_size, 0));
                    // Unsat-core fast-path (incremental engine only): when
                    // the proof rested on *no* tracked atom's state-equality
                    // assumption, the window obligation is discharged
                    // independently of the sets — growing the window cannot
                    // refine them further, so the whole-set saturation
                    // comparison is skipped and the fixpoint concludes now.
                    // Soundness is unaffected: the concluding Alg. 1 still
                    // performs the genuine inductive proof on `s[k]`.
                    let core_saturated =
                        incremental && sess.last_core_without_state_eq() == Some(true);
                    if core_saturated || s[k] == s[k - 1] {
                        // Saturated: finish with the inductive step — in the
                        // same session when incremental.
                        let tail = if incremental {
                            self.alg1_in_session(sess, s[k].clone())
                        } else {
                            self.alg1_run(&mut Session::new(self, 1), s[k].clone(), false)
                        };
                        return merge_alg2_result(tail, iterations, start);
                    }
                    if k >= self.spec().max_unroll {
                        return Verdict::Inconclusive(InconclusiveReport {
                            cause: InconclusiveCause::UnrollLimitReached {
                                max_unroll: self.spec().max_unroll,
                            },
                            iterations,
                            total_runtime: start.elapsed(),
                        });
                    }
                    k += 1;
                    let prev = s[k - 1].clone();
                    s.push(prev);
                    if incremental {
                        // Window boundary: shed stale learnt clauses while
                        // keeping glue/locked ones — the long-session GC
                        // hook of the persistent architecture.
                        sess.ipc_mut().collect_garbage();
                    }
                }
                PropertyResult::Violated => {
                    // Find the earliest cycle with a divergence.
                    let mut removed_total = 0;
                    let mut vulnerable = None;
                    #[allow(clippy::needless_range_loop)] // `c` is the cycle index, not just a subscript
                    for c in 1..=k {
                        let diffs = sess.extract_diffs(&s[c], c);
                        if diffs.is_empty() {
                            continue;
                        }
                        if diffs.iter().any(|d| d.persistent) {
                            vulnerable = Some((diffs, c));
                            break;
                        }
                        sess.note_shrunk(&diffs);
                        removed_total += diffs.len();
                        for d in &diffs {
                            s[c].remove(&d.atom);
                        }
                    }
                    iterations.push(snap.finish(
                        sess,
                        iterations.len() + 1,
                        k,
                        set_size,
                        removed_total,
                    ));
                    if let Some((diffs, c)) = vulnerable {
                        let cex = sess.capture_cex(diffs, c, k);
                        return Verdict::Vulnerable(VulnReport {
                            iterations,
                            cex,
                            total_runtime: start.elapsed(),
                        });
                    }
                    if removed_total == 0 {
                        return Verdict::Inconclusive(InconclusiveReport {
                            cause: InconclusiveCause::NoExtractableDivergence,
                            iterations,
                            total_runtime: start.elapsed(),
                        });
                    }
                }
                PropertyResult::Interrupted(int) => {
                    iterations.push(snap.finish(sess, iterations.len() + 1, k, set_size, 0));
                    return Verdict::Inconclusive(InconclusiveReport {
                        cause: InconclusiveCause::Interrupted(int),
                        iterations,
                        total_runtime: start.elapsed(),
                    });
                }
            }
        }
    }

    /// Proves that the spec's `RegOutsideDevice` firmware constraints are
    /// *inductive*: if all constraints hold in a symbolic state and software
    /// obeys the port-write constraints, they hold one cycle later. This
    /// discharges the soundness obligation of assuming them on the symbolic
    /// starting state (paper Sec. 3.4's invariant methodology).
    ///
    /// Runs [`UpecAnalysis::prove_constraints_inductive_in_session`] in a
    /// private one-transition session, built only when the spec has such a
    /// constraint.
    ///
    /// # Errors
    ///
    /// Returns the names of registers whose constraint is not inductive.
    pub fn prove_constraints_inductive(&self) -> Result<(), Vec<String>> {
        use crate::spec::FirmwareConstraint;

        let none = !self
            .spec()
            .constraints
            .iter()
            .any(|c| matches!(c, FirmwareConstraint::RegOutsideDevice { .. }));
        if none {
            return Ok(());
        }
        self.prove_constraints_inductive_in_session(&mut Session::new(self, 1))
    }

    /// [`UpecAnalysis::prove_constraints_inductive`] inside an **existing**
    /// session, such as a fork of a shared or certifying
    /// [`crate::SessionPrefix`] bound with [`Session::with_prefix`]. The
    /// obligations are checked over the session's first transition, under
    /// its window-1 standing assumptions; a session with a window of 0 is
    /// grown to 1.
    ///
    /// # Errors
    ///
    /// Returns the names of registers whose constraint is not inductive.
    ///
    /// # Panics
    ///
    /// Panics if `sess` was created for a different analysis.
    pub fn prove_constraints_inductive_in_session(
        &self,
        sess: &mut Session<'_>,
    ) -> Result<(), Vec<String>> {
        use crate::engine::Instance;
        use crate::spec::FirmwareConstraint;
        use ssc_aig::words;

        assert!(
            std::ptr::eq(sess.analysis(), self),
            "session belongs to a different analysis"
        );
        let regs: Vec<(String, u64, u64)> = self
            .spec()
            .constraints
            .iter()
            .filter_map(|c| match c {
                FirmwareConstraint::RegOutsideDevice { reg, mask, device } => {
                    Some((reg.clone(), *mask, *device))
                }
                _ => None,
            })
            .collect();
        if regs.is_empty() {
            return Ok(());
        }
        let assumptions = sess.base_assumptions(1);
        let mut failing = Vec::new();
        for (reg, mask, device) in regs {
            let w = self.src().find(&reg).expect("validated");
            for inst in [Instance::A, Instance::B] {
                let post = sess.atom_word(inst, crate::atoms::StateAtom::Reg(w.id()), 1);
                let aig = sess.ipc_mut().unroller_mut().aig_mut();
                let m = words::constant(aig, ssc_netlist::Bv::new(32, mask));
                let masked = words::and(aig, &post, &m);
                let hit = words::eq_const(aig, &masked, device);
                let goal = hit.not();
                match sess.ipc_mut().check(&assumptions, goal) {
                    PropertyResult::Holds => {}
                    PropertyResult::Violated => failing.push(format!("{reg} ({inst:?})")),
                    // Fail closed: an interrupted obligation is *not proven*,
                    // so it must count as failing rather than pass silently.
                    PropertyResult::Interrupted(int) => failing
                        .push(format!("{reg} ({inst:?}) [interrupted: {}]", int.cause.code())),
                }
            }
        }
        if failing.is_empty() {
            Ok(())
        } else {
            Err(failing)
        }
    }
}

fn merge_alg2_result(
    tail: Verdict,
    mut iterations: Vec<IterationStat>,
    start: Instant,
) -> Verdict {
    match tail {
        Verdict::Secure(mut r) => {
            iterations.extend(r.iterations);
            r.iterations = iterations;
            r.total_runtime = start.elapsed();
            Verdict::Secure(r)
        }
        Verdict::Vulnerable(mut r) => {
            iterations.extend(r.iterations);
            r.iterations = iterations;
            r.total_runtime = start.elapsed();
            Verdict::Vulnerable(r)
        }
        // An inconclusive tail (e.g. an interrupt inside the concluding
        // Alg. 1) keeps the full trajectory too: the window-growth
        // iterations followed by the partial inductive ones.
        Verdict::Inconclusive(mut r) => {
            iterations.extend(r.iterations);
            r.iterations = iterations;
            r.total_runtime = start.elapsed();
            Verdict::Inconclusive(r)
        }
    }
}
