//! End-to-end UPEC-SSC runs on the Pulpissimo-style SoC: the paper's case
//! study as an executable test suite.

use ssc_soc::{Soc, SocConfig};
use upec_ssc::{replay_on_simulator, UpecAnalysis, UpecSpec, Verdict};

fn verification_soc() -> Soc {
    Soc::verification_view()
}

#[test]
fn vulnerable_soc_is_flagged_by_alg1() {
    let soc = verification_soc();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap();
    let verdict = an.alg1();
    assert!(verdict.is_vulnerable(), "expected vulnerable, got {verdict}");
    if let Verdict::Vulnerable(r) = &verdict {
        assert!(
            r.cex.persistent_diffs().next().is_some(),
            "vulnerability must name a persistent diff"
        );
    }
}

#[test]
fn vulnerable_soc_is_flagged_by_alg2_with_explicit_trace() {
    for words in [8, 12, 16] {
        let soc = Soc::build(SocConfig::verification_sized(words, words));
        let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap();
        let verdict = an.alg2();
        let Verdict::Vulnerable(r) = &verdict else {
            panic!("{words} words: expected vulnerable, got {verdict}");
        };
        // The explicit counterexample must show a protected victim access in
        // exactly one instance — the confidential behaviour being spied on.
        let asym = r.cex.trace.iter().any(|c| c.port_a.protected != c.port_b.protected);
        assert!(
            asym,
            "{words} words: explicit trace must contain an asymmetric protected access:\n{}",
            r.cex
        );
        if let Err(e) = replay_on_simulator(&an, &r.cex) {
            panic!("{words} words: {e}\n{}", r.cex);
        }
    }
}

#[test]
fn hwpe_memory_variant_leaks_through_primed_memory_without_timer() {
    // Paper Sec. 4.1: with the DMA quiescent, HWPE registers treated as
    // transient and the timer denied, the only remaining persistent medium
    // is the attacker-primed memory region — and the channel still exists.
    let soc = verification_soc();
    let an =
        UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable_hwpe_memory()).unwrap();
    let verdict = an.alg2();
    assert!(verdict.is_vulnerable(), "expected vulnerable, got {verdict}");
    if let Verdict::Vulnerable(r) = &verdict {
        let pers: Vec<_> = r.cex.persistent_diffs().collect();
        assert!(
            pers.iter().any(|d| d.name.contains("ram[")),
            "the persistent medium must be a memory word, got {pers:?}"
        );
    }
}

#[test]
fn fixed_soc_is_proven_secure_by_alg1() {
    let soc = verification_soc();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).unwrap();
    let verdict = an.alg1();
    assert!(verdict.is_secure(), "expected secure, got {verdict}");
    if let Verdict::Secure(r) = &verdict {
        assert!(
            r.iterations.len() >= 2,
            "the proof should need at least one refinement iteration"
        );
        assert!(r.final_set_size > 0);
    }
}

#[test]
fn fixed_soc_firmware_constraints_are_inductive() {
    let soc = verification_soc();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).unwrap();
    an.prove_constraints_inductive()
        .expect("legal HWPE configurations must stay legal");
}

#[test]
fn counterexample_replays_on_the_concrete_simulator() {
    let soc = verification_soc();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap();
    match an.alg2() {
        Verdict::Vulnerable(r) => {
            let confirmed = replay_on_simulator(&an, &r.cex)
                .expect("formal counterexample must replay concretely");
            assert!(!confirmed.is_empty());
        }
        other => panic!("expected vulnerable, got {other}"),
    }
}

#[test]
fn counterexample_neighbourhood_reports_sensitivity() {
    let soc = verification_soc();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap();
    match an.alg2() {
        Verdict::Vulnerable(r) => {
            let n = upec_ssc::replay_neighborhood(&an, &r.cex)
                .expect("the exact lane must replay like replay_on_simulator");
            // 32-bit wdata + 32-bit addr give >= 63 distinct single-bit
            // perturbations even for a 1-cycle counterexample.
            assert_eq!(n.lanes, 64);
            assert_eq!(n.perturbations.len(), 63);
            let unique: std::collections::BTreeSet<String> =
                n.perturbations.iter().map(|p| format!("{p:?}")).collect();
            assert_eq!(unique.len(), 63, "perturbations must be distinct");
            assert!(n.diverging & 1 == 1, "the exact counterexample lane must diverge");
            assert!(
                (0.0..=1.0).contains(&n.sensitivity()),
                "sensitivity out of range: {}",
                n.sensitivity()
            );
            assert!(n.to_string().contains("sensitivity"));
        }
        other => panic!("expected vulnerable, got {other}"),
    }
}

#[test]
fn s_pers_is_contained_in_s_not_victim() {
    let soc = verification_soc();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap();
    let nv = an.s_not_victim();
    for a in an.s_pers() {
        assert!(nv.contains(&a), "S_pers ⊂ S_not_victim violated");
    }
    assert!(!an.s_pers().is_empty(), "the SoC has persistent state");
}

#[test]
fn spec_validation_rejects_sim_view() {
    // The simulation view's port signals are internal wires, not inputs; the
    // analysis must refuse them.
    let soc = Soc::sim_view();
    let err = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap_err();
    assert!(err.contains("not a free input"), "unexpected error: {err}");
}

#[test]
fn spec_validation_rejects_unknown_signals() {
    let soc = verification_soc();
    let mut spec = UpecSpec::soc_vulnerable();
    spec.port.req = "no.such.signal".into();
    let err = UpecAnalysis::new(&soc.netlist, spec).unwrap_err();
    assert!(err.contains("not found"));
}

#[test]
fn verdicts_scale_with_memory_size() {
    // A larger memory must not change the verdicts, only the work.
    let soc = Soc::build(SocConfig::verification_sized(16, 16));
    let vuln = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap();
    assert!(vuln.alg1().is_vulnerable());
    let fixed = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).unwrap();
    assert!(fixed.alg1().is_secure());
}
