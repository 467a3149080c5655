//! The assumption-core plumbing behind the Alg. 2 saturation fast-path:
//! `Session::check_window` reports, after a `Holds`, whether the proof
//! rested on any tracked atom's state-equality assumption.

use ssc_ipc::PropertyResult;
use upec_ssc::{AtomSet, Session, UpecAnalysis, UpecSpec};

#[test]
fn vacuous_window_check_is_core_free() {
    let soc = ssc_soc::Soc::verification_view();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    let mut sess = Session::new(&an, 1);
    // No tracked atoms at all: the obligation is vacuous, so it holds with
    // an assumption core free of state-equality terms.
    let empty = AtomSet::new();
    let r = sess.check_window(1, &empty, &[], &[(1, &empty)]);
    assert_eq!(r, PropertyResult::Holds);
    assert_eq!(sess.last_core_without_state_eq(), Some(true));
}

#[test]
fn violated_check_clears_the_core_flag() {
    let soc = ssc_soc::Soc::verification_view();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).expect("spec ok");
    let mut sess = Session::new(&an, 1);
    let mut s = an.s_not_victim();
    // Mirror the Alg. 1 refinement until the first violated check (the
    // vulnerable configuration guarantees one within the fixpoint).
    for _ in 0..64 {
        let r = sess.check_window(1, &s, &[], &[(1, &s)]);
        match r {
            PropertyResult::Violated => {
                assert_eq!(sess.last_core_without_state_eq(), None);
                return;
            }
            PropertyResult::Holds => {
                // A hold before any counterexample would mean the config is
                // not vulnerable at window 1; keep shrinking via diffs.
                let diffs = sess.extract_diffs(&s, 1);
                assert!(!diffs.is_empty(), "hold with nothing to refine");
                for d in &diffs {
                    s.remove(&d.atom);
                }
            }
            PropertyResult::Interrupted(int) => {
                panic!("unbudgeted check interrupted: {:?}", int.cause)
            }
        }
    }
    panic!("no violated check within the iteration bound");
}

#[test]
fn nonvacuous_hold_reports_a_core_verdict() {
    // On the fixed configuration Alg. 1 terminates with a genuine `Holds`
    // whose proof needs the pre-state equalities — the flag must be
    // `Some(false)` there (a `Some(true)` would mean the induction was
    // vacuous, which the secure fixpoint is not).
    let soc = ssc_soc::Soc::verification_view();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    let mut sess = Session::new(&an, 1);
    let mut s = an.s_not_victim();
    for _ in 0..256 {
        match sess.check_window(1, &s, &[], &[(1, &s)]) {
            PropertyResult::Holds => {
                assert_eq!(
                    sess.last_core_without_state_eq(),
                    Some(false),
                    "the inductive proof must rest on state-equality assumptions"
                );
                return;
            }
            PropertyResult::Violated => {
                let diffs = sess.extract_diffs(&s, 1);
                assert!(!diffs.is_empty(), "violated without extractable divergence");
                assert!(
                    diffs.iter().all(|d| !d.persistent),
                    "fixed config must not reach a persistent divergence"
                );
                for d in &diffs {
                    s.remove(&d.atom);
                }
            }
            PropertyResult::Interrupted(int) => {
                panic!("unbudgeted check interrupted: {:?}", int.cause)
            }
        }
    }
    panic!("fixpoint did not converge within the iteration bound");
}

/// The equalities Alg. 2 carries into a window check count as
/// state-equality assumptions for the core flag. With nothing assumed at
/// cycle 0, only the fixed configuration's final set, carried at cycle 1,
/// proves it equal at cycle 2, so the core must name carried literals.
#[test]
fn carried_equalities_count_for_the_core_flag() {
    let soc = ssc_soc::Soc::verification_view();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    let upec_ssc::Verdict::Secure(report) = an.alg1() else {
        panic!("the fixed configuration is secure");
    };
    let fin = report.final_set;
    assert_eq!(fin.len(), 42);

    let empty = AtomSet::new();
    let mut sess = Session::new(&an, 2);
    let r = sess.check_window(2, &empty, &[(1, &fin)], &[(2, &fin)]);
    assert_eq!(r, PropertyResult::Holds);
    assert_eq!(
        sess.last_core_without_state_eq(),
        Some(false),
        "the proof rests on the carried equalities"
    );
    let r = sess.check_window(2, &empty, &[], &[(2, &fin)]);
    assert_eq!(r, PropertyResult::Violated, "without them the set can diverge");
}
