//! The scenario-portfolio runner.
//!
//! The paper evaluates UPEC-SSC across a *portfolio* of SoC configurations
//! (vulnerable DMA/timer, vulnerable HWPE/memory, and the patched layouts)
//! and SoC sizes. All scenarios of one SoC size share the source netlist,
//! the 2-safety product and most of the encoded proof prefix, so
//! [`run_portfolio`] works in two phases:
//!
//! 1. **Per size**: build one shared [`ProductArtifact`] (the product
//!    netlist, built once instead of once per scenario) and one
//!    [`SessionPrefix`] (the scenario-independent proof prefix — unrolled
//!    cycles, input-equality/victim macros, state-equality cones —
//!    encoded into a SAT session exactly once).
//! 2. **Per cell**: fan one job per scenario × size across the pool; each
//!    job forks its size's prefix (see `ssc_ipc::Ipc::fork`), binds the
//!    scenario spec to the shared artifact and runs Alg. 2 on top.
//!
//! Cells are **fault-isolated**: the jobs run through
//! [`ssc_pool::Pool::try_run`], so a cell that panics keeps its matrix slot
//! with the panic message and every other cell completes. The
//! [`crate::chaos`] harness addresses a cell by its seed ([`job_seed`]),
//! both at cell setup and, through the cell's budget tag, at every solve.
//!
//! Determinism:
//!
//! - jobs are enumerated in a fixed matrix order (scenario-major, then
//!   size) and results come back in that order regardless of which worker
//!   ran what (the pool merges by job index);
//! - every job carries a **seed derived from its matrix coordinates** —
//!   never from a worker id — so any seeded component is schedule-
//!   independent.
//!
//! [`fingerprint`] projects a portfolio onto its deterministic content
//! (verdicts, refinement trajectories, encoding sizes — everything except
//! wall-clock). It is the same on every pool size, and `Pool::new(1)` runs
//! the plain sequential loop, which is how the equivalence test pins the
//! parallel run to the sequential one. `BENCH_e9_portfolio.json` records
//! the wall-clock speedup of the parallel run over the sequential one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ssc_netlist::analysis;
use ssc_pool::Pool;
use ssc_sat::chaos;
use ssc_soc::{Soc, SocConfig};
use upec_ssc::{Budget, ProductArtifact, Session, SessionPrefix, UpecAnalysis, UpecSpec, Verdict};

use crate::FormalResult;

/// One scenario column of the portfolio matrix: the formal twin of an
/// attack scenario of `ssc-attacks` (channel × victim layout).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable scenario label (also the merge order key).
    pub name: &'static str,
    /// The UPEC-SSC specification of this scenario.
    pub spec: UpecSpec,
    /// Whether the scenario is expected to be vulnerable.
    pub leaky: bool,
}

/// The paper's four scenario configurations: both channels
/// (`dma_timer`, `hwpe_memory`), each in the leaky public layout and the
/// patched private-memory layout.
pub fn scenario_matrix() -> Vec<Scenario> {
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
        Scenario { name: "dma_timer/leaky", spec: UpecSpec::soc_vulnerable(), leaky: true },
        Scenario {
            name: "hwpe_memory/leaky",
            spec: UpecSpec::soc_vulnerable_hwpe_memory(),
            leaky: true,
        },
        Scenario { name: "dma_timer/patched", spec: UpecSpec::soc_fixed(), leaky: false },
        Scenario { name: "hwpe_memory/patched", spec: hwpe_memory_patched, leaky: false },
    ]
}

/// One cell of the scenario × size matrix.
#[derive(Clone, Debug)]
pub struct PortfolioEntry {
    /// Scenario label.
    pub scenario: &'static str,
    /// Public/private memory words of the analyzed SoC.
    pub words: u32,
    /// The job's deterministic seed (derived from `scenario` and `words`,
    /// not from the worker that ran it).
    pub seed: u64,
    /// The formal result (verdict, wall time, state bits), or the panic
    /// message of a cell whose job panicked.
    pub outcome: Result<FormalResult, String>,
}

impl PortfolioEntry {
    /// The cell's formal result.
    ///
    /// # Panics
    ///
    /// Panics naming the cell, with its panic message, if the cell's job
    /// panicked: a caller that needs every verdict must not skip a dead
    /// cell.
    pub fn result(&self) -> &FormalResult {
        match &self.outcome {
            Ok(result) => result,
            Err(message) => {
                panic!("portfolio cell {}@{} died: {message}", self.scenario, self.words)
            }
        }
    }
}

/// A completed portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioReport {
    /// Workers of the pool that ran it (1 = the sequential loop).
    pub workers: usize,
    /// Entries in matrix order (scenario-major, then size); a dead cell
    /// keeps its slot.
    pub entries: Vec<PortfolioEntry>,
    /// Wall-clock time of the whole portfolio.
    pub wall: Duration,
}

/// The deterministic per-job seed: FNV-1a over the matrix coordinates.
/// Schedule-independent by construction — two runs of the same matrix
/// produce the same seeds no matter how jobs land on workers.
///
/// Public because it doubles as the **chaos key** of a portfolio cell:
/// fault-injection plans ([`crate::chaos`]) address cells by this seed, so
/// tests can target e.g. "the hwpe_memory/leaky cell at 8 words" without
/// caring how jobs land on workers.
pub fn job_seed(scenario: &str, words: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in scenario.bytes().chain(words.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs one matrix cell: fires the cell-setup chaos point keyed by `seed`,
/// binds the scenario spec to the size's artifact, forks the size's prefix
/// and runs Alg. 2 in the fork under an unlimited budget tagged with
/// `seed`, so seed-keyed solve faults reach the cell.
///
/// # Panics
///
/// Panics if a **conclusive** verdict contradicts the scenario's
/// expectation — a portfolio cell silently flipping verdicts must never
/// be merged. An inconclusive verdict (a cell whose solves were
/// interrupted) is recorded as-is: "gave up" is a legitimate,
/// machine-readable outcome, not a flip.
fn run_cell(
    scenario: &Scenario,
    art: &Arc<ProductArtifact>,
    prefix: &SessionPrefix<'_>,
    words: u32,
    seed: u64,
) -> FormalResult {
    chaos::point(chaos::Site::CellSetup, seed);
    let state_bits = analysis::state_bit_count(art.src());
    let t = Instant::now();
    let an = UpecAnalysis::bind(art.clone(), scenario.spec.clone())
        .expect("portfolio spec matches the SoC");
    let mut sess = Session::with_prefix(&an, prefix.fork());
    sess.set_budget(Budget::unlimited().with_tag(seed));
    let verdict = an.alg2_with_session(sess);
    if !matches!(verdict, Verdict::Inconclusive(_)) {
        assert_eq!(
            verdict.is_vulnerable(),
            scenario.leaky,
            "portfolio cell {}@{words} flipped its verdict: {verdict}",
            scenario.name
        );
    }
    FormalResult { verdict, runtime: t.elapsed(), state_bits }
}

/// Runs the scenario × `sizes` matrix on `pool` and merges the cells in
/// matrix order: one shared artifact and prefix per size first, then one
/// fault-isolated job per cell on [`ssc_pool::Pool::try_run`].
///
/// The per-size phase runs on [`ssc_pool::Pool::run`] on purpose: a
/// size's base serves all its cells, so losing it is not confined to one
/// cell, and that failure stops the run.
pub fn run_portfolio(pool: &Pool, sizes: &[u32]) -> PortfolioReport {
    let scenarios = scenario_matrix();
    let seed_spec = scenarios[0].spec.clone();
    let t = Instant::now();
    let artifacts: Vec<Arc<ProductArtifact>> = pool.run(sizes.len(), |i| {
        let soc = Soc::build(SocConfig::verification_sized(sizes[i], sizes[i]));
        Arc::new(
            ProductArtifact::for_spec(&soc.netlist, &seed_spec)
                .expect("portfolio spec matches the SoC"),
        )
    });
    let prefixes: Vec<SessionPrefix<'_>> = pool.run(artifacts.len(), |i| {
        SessionPrefix::build(&artifacts[i], &seed_spec, 1).expect("spec already validated")
    });
    let cells: Vec<(&Scenario, usize, u64)> = scenarios
        .iter()
        .flat_map(|s| (0..sizes.len()).map(move |w| (s, w, job_seed(s.name, sizes[w]))))
        .collect();
    let outcomes = pool.try_run(cells.len(), |i| {
        let (scenario, w, seed) = cells[i];
        run_cell(scenario, &artifacts[w], &prefixes[w], sizes[w], seed)
    });
    let entries = cells
        .iter()
        .zip(outcomes)
        .map(|(&(scenario, w, seed), outcome)| PortfolioEntry {
            scenario: scenario.name,
            words: sizes[w],
            seed,
            outcome: outcome.map_err(|p| p.message),
        })
        .collect();
    PortfolioReport { workers: pool.workers(), entries, wall: t.elapsed() }
}

/// Projects a verdict onto its deterministic content: kind, refinement
/// trajectory and encoding sizes — everything except wall-clock and
/// solver-effort counters. Public so a harness can compare single
/// verdicts, e.g. from one pass of a workload to the next.
pub fn verdict_fingerprint(v: &Verdict, out: &mut String) {
    use std::fmt::Write as _;

    match v {
        Verdict::Secure(r) => {
            let _ = write!(out, "secure(set={},removed={:?})", r.final_set.len(), r.removed_atoms);
        }
        Verdict::Vulnerable(r) => {
            let _ = write!(
                out,
                "vulnerable(at={},diffs={:?})",
                r.cex.at_cycle,
                r.cex.diffs.iter().map(|d| d.name.as_str()).collect::<Vec<_>>()
            );
        }
        Verdict::Inconclusive(r) => {
            let _ = write!(out, "inconclusive({})", r.cause.code());
        }
    }
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
}

/// The deterministic projection of a whole portfolio, one line per cell:
/// coordinates, seed, then state bits and the verdict's fingerprint, or
/// the panic message of a dead cell (deterministic for chaos-injected
/// panics, whose payload names the site and cell key). Wall-clock fields
/// are excluded on purpose, so the projection is bitwise-comparable across
/// pool sizes.
pub fn fingerprint(report: &PortfolioReport) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    for e in &report.entries {
        let _ = write!(out, "{}@{}#seed={:#018x}", e.scenario, e.words, e.seed);
        match &e.outcome {
            Ok(r) => {
                let _ = write!(out, "#bits={}=", r.state_bits);
                verdict_fingerprint(&r.verdict, &mut out);
            }
            Err(message) => {
                let _ = write!(out, "=panicked({message})");
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_depend_on_coordinates_not_schedule() {
        assert_eq!(job_seed("dma_timer/leaky", 8), job_seed("dma_timer/leaky", 8));
        assert_ne!(job_seed("dma_timer/leaky", 8), job_seed("dma_timer/leaky", 16));
        assert_ne!(job_seed("dma_timer/leaky", 8), job_seed("hwpe_memory/leaky", 8));
    }

    #[test]
    fn matrix_order_is_scenario_major() {
        let report = run_portfolio(&Pool::new(1), &[8, 12]);
        let cells: Vec<_> = report.entries.iter().map(|e| (e.scenario, e.words)).collect();
        let names =
            ["dma_timer/leaky", "hwpe_memory/leaky", "dma_timer/patched", "hwpe_memory/patched"];
        let expected: Vec<_> = names.into_iter().flat_map(|s| [(s, 8), (s, 12)]).collect();
        assert_eq!(cells, expected);
        for e in &report.entries {
            assert_eq!(e.seed, job_seed(e.scenario, e.words));
        }
    }
}
