//! Soundness crosscheck for the modern CDCL engine (`SSC_SOLVER_MODERN`):
//! on every scenario configuration and at two SoC sizes, running Alg. 2
//! with the legacy MiniSat-lineage engine and with the modern engine
//! (recursive minimization, tiered DB, adaptive restarts, chronological
//! backtracking) must reach the **same verdict**, and on patched cells the
//! same final |S|: the greatest inductive subset is unique. The engine may
//! legitimately change the route — different counterexamples, different
//! refinement orders, different solver effort — but never the
//! destination; a verdict flip here is a solver soundness bug, not noise.
//!
//! The second half pins the resource-governance paths under the new
//! machinery: budget interrupts and the `ExhaustBudget`/`Cancel` chaos
//! faults must still surface as clean `Inconclusive` verdicts while the
//! adaptive-restart/tiered-reduction code is driving the search.

use std::sync::{Arc, Mutex};

use ssc_sat::chaos::{self, ChaosPlan, Fault, Site};
use ssc_sat::Heuristics;
use ssc_soc::{Soc, SocConfig};
use upec_ssc::{
    Budget, InconclusiveCause, ProductArtifact, Session, SessionPrefix, UpecAnalysis, UpecSpec,
    Verdict,
};

/// The formal twin of each simulation scenario: `(name, spec, leaky)` —
/// same matrix as the bench portfolio.
fn scenario_specs() -> Vec<(&'static str, UpecSpec, bool)> {
    let hwpe_memory_patched = {
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

fn verdict_kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::Secure(_) => "secure",
        Verdict::Vulnerable(_) => "vulnerable",
        Verdict::Inconclusive(_) => "inconclusive",
    }
}

/// The chaos registry and the env-derived default engine are process
/// globals; the chaos tests in this binary serialize on this.
static SERIAL: Mutex<()> = Mutex::new(());

/// Chaos key for this file's tagged solves — distinct from the default
/// tag 0 every other solve in this binary carries, so an armed plan here
/// can never hit a concurrently running test.
const CHAOS_TAG: u64 = 0xE13C;

#[test]
fn verdicts_identical_with_modern_heuristics_on_and_off() {
    let mut chrono_backtracks = 0u64;
    for words in [8u32, 12] {
        let soc = Soc::build(SocConfig::verification_sized(words, words));
        let seed = UpecSpec::soc_vulnerable();
        let art = Arc::new(ProductArtifact::for_spec(&soc.netlist, &seed).expect("spec ok"));
        // One prefix per engine, both forked by every scenario cell — the
        // same sharing shape the portfolio uses, so the crosscheck also
        // covers fork-inherited engines.
        let legacy = SessionPrefix::build_with_solver_heuristics(
            &art,
            &seed,
            1,
            Some(Heuristics::Legacy),
        )
        .expect("spec ok");
        let modern = SessionPrefix::build_with_solver_heuristics(
            &art,
            &seed,
            1,
            Some(Heuristics::Modern),
        )
        .expect("spec ok");
        for (name, spec, leaky) in scenario_specs() {
            let an = UpecAnalysis::bind(art.clone(), spec).expect("scenario binds");
            let v_legacy = an.alg2_with_session(Session::with_prefix(&an, legacy.fork()));
            let v_modern = an.alg2_with_session(Session::with_prefix(&an, modern.fork()));
            assert_eq!(
                v_legacy.is_vulnerable(),
                leaky,
                "unexpected legacy verdict on {name}@{words}: {v_legacy}"
            );
            assert_eq!(
                verdict_kind(&v_legacy),
                verdict_kind(&v_modern),
                "heuristics changed the verdict on {name}@{words}: \
                 legacy={v_legacy} modern={v_modern}"
            );
            // The modern engine must actually have been the modern engine:
            // only the tiered reducer promotes learnt clauses, so a modern
            // prefix that silently ran legacy reports zero promotions.
            let promotions: u64 =
                v_modern.iterations().iter().map(|it| it.solver.tier_promotions).sum();
            assert!(
                promotions > 0,
                "{name}@{words}: modern run shows no tier promotions — engine plumbing broken?"
            );
            for it in v_legacy.iterations() {
                assert_eq!(
                    it.solver.tier_promotions
                        + it.solver.restarts_blocked
                        + it.solver.chrono_backtracks,
                    0,
                    "{name}@{words}: legacy run reported modern-only counters"
                );
            }
            chrono_backtracks +=
                v_modern.iterations().iter().map(|it| it.solver.chrono_backtracks).sum::<u64>();
            if !leaky {
                match (&v_legacy, &v_modern) {
                    (Verdict::Secure(l), Verdict::Secure(m)) => assert_eq!(
                        l.final_set_size, m.final_set_size,
                        "{name}@{words}: the engines found different inductive sets"
                    ),
                    _ => panic!("{name}@{words}: legacy={v_legacy} modern={v_modern}"),
                }
            }
        }
    }
    // The legacy-vs-modern oracle covers chronological backtracking only if
    // the modern side actually took some.
    assert!(chrono_backtracks > 0, "no chronological backtrack over the whole matrix");
}

#[test]
fn budget_interrupt_still_surfaces_cleanly_under_modern_heuristics() {
    // A conflict budget far below what the secure fixpoint needs: the run
    // must stop as `Inconclusive(Interrupted)` — never panic, never decide
    // — while the modern restart/reduction machinery drives the search.
    let soc = Soc::build(SocConfig::verification_sized(8, 8));
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    match an.alg2_budgeted(Budget::unlimited().with_conflicts(3)) {
        Verdict::Inconclusive(r) => {
            assert!(
                matches!(r.cause, InconclusiveCause::Interrupted(_)),
                "expected an interrupt, got {}",
                r.cause
            );
        }
        other => panic!("a 3-conflict budget cannot complete the secure proof: {other}"),
    }
}

#[test]
fn chaos_exhaust_budget_yields_inconclusive_not_wrong_verdict() {
    let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let soc = Soc::build(SocConfig::verification_sized(8, 8));
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    let _guard = chaos::arm(ChaosPlan {
        site: Site::Solve,
        key: Some(CHAOS_TAG),
        fault: Fault::ExhaustBudget,
    });
    let v = an.alg2_budgeted(Budget::unlimited().with_tag(CHAOS_TAG));
    assert!(chaos::fired() >= 1, "the exhaustion must actually have been injected");
    match v {
        Verdict::Inconclusive(r) => assert_eq!(r.cause.code(), "interrupt:conflict-budget"),
        other => panic!("an exhausted solve must never decide: {other}"),
    }
}

#[test]
fn chaos_cancel_yields_inconclusive_not_wrong_verdict() {
    let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let soc = Soc::build(SocConfig::verification_sized(8, 8));
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    let _guard = chaos::arm(ChaosPlan {
        site: Site::Solve,
        key: Some(CHAOS_TAG),
        fault: Fault::Cancel,
    });
    let v = an.alg2_budgeted(Budget::unlimited().with_tag(CHAOS_TAG));
    assert!(chaos::fired() >= 1, "the cancellation must actually have been injected");
    match v {
        Verdict::Inconclusive(r) => assert_eq!(r.cause.code(), "interrupt:cancelled"),
        other => panic!("a cancelled solve must never decide: {other}"),
    }
}
