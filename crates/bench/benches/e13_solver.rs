//! E13: legacy MiniSat-lineage CDCL engine versus the modern engine
//! (recursive clause minimization, tiered learnt DB, adaptive restarts,
//! chronological backtracking)
//! on the full portfolio scenario matrix. Each size builds one shared
//! artifact plus **two engine-pinned prefixes** — every cell forks both,
//! so the only variable between a cell's two runs is the solver engine.
//! Emits `BENCH_e13_solver.json` with per-cell and aggregate wall-clock
//! ratios; the headline is the multi-cycle (window ≥ 2) induction-check
//! speedup (gated at ≥ 1.3× in CI), because those solve-dominated checks
//! are where the e9/e10 records say the portfolio spends its time.
//! Verdict-kind agreement between the engines is asserted per cell — the
//! engine picks the route, never the destination.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use ssc_bench::portfolio::{self, Scenario};
use ssc_bench::{compare_solver_cell, SolverCellComparison};
use ssc_sat::Heuristics;
use ssc_soc::{Soc, SocConfig};
use upec_ssc::{ProductArtifact, SessionPrefix};

fn bench(c: &mut Criterion) {
    let smoke = c.is_test_mode();

    // The whole matrix: the modern tier must be sound on leaky cells (the
    // counterexample search) and fast on secure cells (the deep induction
    // windows that dominate wall clock). The smoke slice keeps one of each
    // — the secure cell produces the window ≥ 2 checks the trend gate
    // measures, so a smoke-regenerated record must still clear the floor,
    // which hwpe_memory/patched does at both sizes (2.1x and 3.1x deep in
    // the full record).
    let matrix = portfolio::scenario_matrix();
    let seed_spec = matrix[0].spec.clone();
    let smoke_matrix = [matrix[0].clone(), matrix[3].clone()];
    let scenarios: &[Scenario] = if smoke { &smoke_matrix } else { &matrix[..] };
    let sizes: &[u32] = &[8, 12];

    let mut cells: Vec<SolverCellComparison> = Vec::new();
    for &words in sizes {
        let soc = Soc::build(SocConfig::verification_sized(words, words));
        let art = Arc::new(
            ProductArtifact::for_spec(&soc.netlist, &seed_spec)
                .expect("portfolio spec matches the SoC"),
        );
        let legacy = SessionPrefix::build_with_solver_heuristics(
            &art,
            &seed_spec,
            1,
            Some(Heuristics::Legacy),
        )
        .expect("spec already validated");
        let modern = SessionPrefix::build_with_solver_heuristics(
            &art,
            &seed_spec,
            1,
            Some(Heuristics::Modern),
        )
        .expect("spec already validated");
        for sc in scenarios {
            let cmp = compare_solver_cell(sc, &art, &legacy, &modern, words);
            println!(
                "[e13] {:>22} @ {:>2} words: legacy {:?} vs modern {:?} ({:.2}x cell, \
                 {:.2}x deep), conflicts {} -> {}, minimized {}, promoted {}, \
                 blocked {}, chrono {}, equivalent={}",
                cmp.scenario,
                words,
                cmp.legacy.runtime,
                cmp.modern.runtime,
                cmp.speedup(),
                cmp.deep_speedup(),
                cmp.conflicts.0,
                cmp.conflicts.1,
                cmp.minimized_lits,
                cmp.tier_promotions,
                cmp.restarts_blocked,
                cmp.chrono_backtracks,
                cmp.equivalent,
            );
            assert!(
                cmp.equivalent,
                "{} @ {words} words: heuristics changed the verdict",
                cmp.scenario
            );
            cells.push(cmp);
        }
    }

    let legacy_us: u128 = cells.iter().map(|c| c.legacy.runtime.as_micros()).sum();
    let modern_us: u128 = cells.iter().map(|c| c.modern.runtime.as_micros()).sum();
    let deep_legacy_us: u128 = cells.iter().map(|c| c.deep_legacy.as_micros()).sum();
    let deep_modern_us: u128 = cells.iter().map(|c| c.deep_modern.as_micros()).sum();
    println!(
        "[e13] aggregate: {legacy_us}us -> {modern_us}us ({:.2}x); window>=2 checks: \
         {deep_legacy_us}us -> {deep_modern_us}us ({:.2}x, the gated quantity)",
        legacy_us as f64 / (modern_us as f64).max(1.0),
        deep_legacy_us as f64 / (deep_modern_us as f64).max(1.0),
    );

    ssc_bench::perf::write_record("e13_solver", &ssc_bench::perf::e13(&cells));
}

criterion_group!(benches, bench);
criterion_main!(benches);
