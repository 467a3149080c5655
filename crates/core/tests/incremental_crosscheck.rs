//! Checks of the persistent-session Alg. 2 engine by artifacts: each
//! Secure verdict's final set must pass `UpecAnalysis::certify` and each
//! Vulnerable counterexample must replay on the concrete simulator.
//!
//! One formal configuration per attack scenario of
//! `ssc-attacks/src/scenarios.rs` (`Channel::DmaTimer` and
//! `Channel::HwpeMemory`, each in the leaky `in_public` and the patched
//! `in_private` victim layout): Alg. 1 must agree with the verdict, and
//! the per-window encoding growth must stay bounded by the newly unrolled
//! cycle's cone (i.e. zero full re-encodings across windows).

use std::sync::Arc;

use ssc_soc::{Soc, SocConfig};
use upec_ssc::{
    replay_on_simulator, ProductArtifact, Session, SessionPrefix, UpecAnalysis, UpecSpec, Verdict,
};

/// The formal twin of each simulation scenario: `(name, spec, leaky)`.
/// The patched (`in_private`) layouts map to `soc_fixed`, whose
/// countermeasure moves the victim range into private memory — for the
/// HWPE/memory channel additionally with that scenario's quiescing and
/// transience overrides.
fn scenario_specs() -> Vec<(&'static str, UpecSpec, bool)> {
    let hwpe_memory_patched = {
        // `soc_fixed`'s countermeasure applied to the HWPE+memory scenario
        // spec (same override set as `soc_vulnerable_hwpe_memory`).
        let fixed = UpecSpec::soc_fixed();
        let mut spec = UpecSpec::soc_vulnerable_hwpe_memory();
        spec.range_in_device = fixed.range_in_device;
        spec.constraints = fixed.constraints;
        spec
    };
    vec![
        ("dma_timer/leaky", UpecSpec::soc_vulnerable(), true),
        ("hwpe_memory/leaky", UpecSpec::soc_vulnerable_hwpe_memory(), true),
        ("dma_timer/patched", UpecSpec::soc_fixed(), false),
        ("hwpe_memory/patched", hwpe_memory_patched, false),
    ]
}

/// A verdict's kind, with |S| for a Secure one.
fn outcome(v: &Verdict) -> String {
    match v {
        Verdict::Secure(r) => format!("secure |S| = {}", r.final_set.len()),
        Verdict::Vulnerable(_) => "vulnerable".to_string(),
        Verdict::Inconclusive(r) => format!("inconclusive {}", r.cause.code()),
    }
}

#[test]
fn alg2_verdicts_certify_or_replay_and_match_alg1_on_all_scenarios() {
    let soc = Soc::verification_view();
    for (name, spec, leaky) in scenario_specs() {
        let an = UpecAnalysis::new(&soc.netlist, spec).expect("spec matches the SoC");
        let verdict = an.alg2();
        assert_eq!(verdict.is_vulnerable(), leaky, "unexpected verdict on {name}: {verdict}");
        let checked = match &verdict {
            Verdict::Secure(r) => an.certify(r).map(|n| assert!(n > 0, "{name}: none certified")),
            Verdict::Vulnerable(r) => replay_on_simulator(&an, &r.cex).map(drop),
            Verdict::Inconclusive(_) => Err(format!("unexpected verdict {verdict}")),
        };
        checked.unwrap_or_else(|e| panic!("{name}: {e}"));
        // The 2-cycle procedure must agree with the unrolled one as well.
        assert_eq!(outcome(&an.alg1()), outcome(&verdict), "alg1 disagrees on {name}");

        // Boundedness: the shared prefix (unrolling, macros, state-equality
        // cones) is encoded eagerly at session construction, so no *check*
        // may re-encode it — every iteration's encoding delta must stay far
        // below the cumulative prefix encoding the first iteration reports.
        let iters = verdict.iterations();
        let first = iters.first().expect("procedures always iterate");
        assert!(
            first.encoded_nodes > 0,
            "{name}: the session must have encoded the prefix"
        );
        for it in iters {
            assert!(
                it.encoded_delta * 4 < first.encoded_nodes,
                "{name}: iteration {} (window {}) encoded {} nodes, \
                 suspiciously close to a full prefix re-encoding ({})",
                it.iteration,
                it.window,
                it.encoded_delta,
                first.encoded_nodes
            );
        }
    }
}

/// `certify` checks the set a report carries, not the report's word: a
/// final set without a persistent atom, or with the arbiter state the
/// fixpoint removes, must be rejected.
#[test]
fn certify_rejects_tampered_final_sets() {
    let soc = Soc::verification_view();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    let Verdict::Secure(report) = an.alg1() else {
        panic!("the fixed configuration is secure");
    };

    let pers = *an.s_pers().first().expect("the SoC has persistent state");
    let mut missing = report.clone();
    missing.final_set.remove(&pers);
    let err = an.certify(&missing).expect_err("S_pers is not in the final set");
    assert!(err.contains(&an.atom_name(pers)), "{err}");

    assert_eq!(report.removed_atoms, ["priv_xbar.arb.rr"]);
    let rr = *an.s_not_victim().difference(&report.final_set).next().expect("one is removed");
    let mut kept = report.clone();
    kept.final_set.insert(rr);
    let err = an.certify(&kept).expect_err("the arbiter state diverges in one step");
    assert!(err.contains("can differ"), "{err}");
}

/// The deterministic content of a verdict: kind, counterexample diff atoms
/// / removed-atom lists, and the full refinement trajectory including the
/// encoding counters — everything except wall-clock and solver effort.
fn trajectory(v: &Verdict) -> String {
    use std::fmt::Write as _;

    let mut out = match v {
        Verdict::Secure(r) => {
            format!("secure(set={},removed={:?})", r.final_set_size, r.removed_atoms)
        }
        Verdict::Vulnerable(r) => format!(
            "vulnerable(at={},diffs={:?})",
            r.cex.at_cycle,
            r.cex.diffs.iter().map(|d| d.name.as_str()).collect::<Vec<_>>()
        ),
        Verdict::Inconclusive(r) => format!("inconclusive({})", r.cause.code()),
    };
    for it in v.iterations() {
        let _ = write!(
            out,
            ";i{}w{}s{}r{}e{}d{}a{}",
            it.iteration,
            it.window,
            it.set_size,
            it.removed,
            it.encoded_nodes,
            it.encoded_delta,
            it.aig_nodes
        );
    }
    out
}

/// The acceptance criterion of the shared-artifact refactor: on every
/// scenario configuration and at two SoC sizes, running
/// Alg. 2 in a session **forked from one shared per-size prefix** must be
/// state-identical — verdicts, diff-atom sets, refinement trajectories and
/// even the encoding counters — to an independently built analysis
/// (private artifact, private prefix). `Session::new` routes through the
/// same prefix construction as `SessionPrefix::build`, so any divergence
/// here means the fork leaked scenario state across cells.
#[test]
fn forked_sessions_match_independently_built_analyses() {
    for words in [8u32, 12] {
        let soc = Soc::build(SocConfig::verification_sized(words, words));
        // The shared core (port, devices, range mask, IP ports) is common
        // to all four scenarios; seed the artifact and prefix from the
        // first one.
        let seed = UpecSpec::soc_vulnerable();
        let art =
            Arc::new(ProductArtifact::for_spec(&soc.netlist, &seed).expect("spec ok"));
        let prefix = SessionPrefix::build(&art, &seed, 1).expect("spec ok");
        for (name, spec, leaky) in scenario_specs() {
            let shared = UpecAnalysis::bind(art.clone(), spec.clone())
                .expect("scenario binds to the shared artifact");
            let forked =
                shared.alg2_with_session(Session::with_prefix(&shared, prefix.fork()));
            let independent =
                UpecAnalysis::new(&soc.netlist, spec).expect("spec ok").alg2();
            assert_eq!(
                forked.is_vulnerable(),
                leaky,
                "unexpected verdict on {name}@{words}: {forked}"
            );
            assert_eq!(
                trajectory(&forked),
                trajectory(&independent),
                "forked session diverges from the independent analysis on {name}@{words}"
            );
        }
    }
}

#[test]
fn secure_scenarios_keep_s_pers_in_the_inductive_set() {
    let soc = Soc::verification_view();
    for (name, spec, leaky) in scenario_specs() {
        if leaky {
            continue;
        }
        let an = UpecAnalysis::new(&soc.netlist, spec).expect("spec matches the SoC");
        match an.alg2() {
            Verdict::Secure(r) => assert!(
                r.final_set.is_superset(&an.s_pers()),
                "{name}: the inductive set must contain S_pers"
            ),
            other => panic!("{name}: expected secure, got {other}"),
        }
    }
}

#[test]
fn secure_reports_are_deterministic_across_runs() {
    // Sorted `removed_atoms` and stable iteration accounting: two runs of
    // the same analysis must produce identical report skeletons.
    let soc = Soc::verification_view();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    let (a, b) = (an.alg1(), an.alg1());
    match (a, b) {
        (Verdict::Secure(ra), Verdict::Secure(rb)) => {
            assert_eq!(ra.removed_atoms, rb.removed_atoms);
            assert_eq!(ra.final_set, rb.final_set);
            assert_eq!(ra.iterations.len(), rb.iterations.len());
        }
        (a, b) => panic!("expected secure verdicts, got {a} / {b}"),
    }
}
