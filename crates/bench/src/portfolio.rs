//! The parallel scenario-portfolio runner.
//!
//! The paper evaluates UPEC-SSC across a *portfolio* of SoC configurations
//! (vulnerable DMA/timer, vulnerable HWPE/memory, and the patched layouts)
//! and SoC sizes. All scenarios of one SoC size share the source netlist,
//! the 2-safety product and most of the encoded proof prefix, so the
//! runner is **two-phase** ([`run_portfolio`]):
//!
//! 1. **Per size**: build one shared [`ProductArtifact`] (the product
//!    netlist, built once instead of once per scenario) and one base
//!    [`SessionPrefix`] (the scenario-independent proof prefix — unrolled
//!    cycles, input-equality/victim macros, state-equality cones —
//!    encoded into a SAT session exactly once).
//! 2. **Per cell**: fan one job per scenario × size across the pool; each
//!    job *forks* its size's base prefix (a copy-on-write session
//!    snapshot, see `ssc_ipc::Ipc::fork`), binds the scenario spec to the
//!    shared artifact and runs the unrolled procedure on top.
//!
//! Determinism is preserved across both phases:
//!
//! - jobs are enumerated in a fixed matrix order (scenario-major, then
//!   size) and results come back in that order regardless of which worker
//!   ran what ([`ssc_pool::Pool::run`] merges by job index);
//! - every job carries a **seed derived from its matrix coordinates** —
//!   never from a worker id — so any seeded component is schedule-
//!   independent;
//! - a forked session is state-identical to a privately built one
//!   (`Session::new` routes through the same prefix construction), so the
//!   shared-artifact portfolio is fingerprint-identical to the
//!   from-scratch loop ([`run_portfolio_from_scratch`]) — asserted by the
//!   equivalence tests and attested in `BENCH_e10_shared.json`.
//!
//! [`fingerprint`] projects a portfolio onto its deterministic content
//! (verdicts, refinement trajectories, encoding sizes — everything except
//! wall-clock), which is how the equivalence tests pin the parallel runner
//! bit-identically to the sequential loop ([`run_portfolio_sequential`]);
//! `BENCH_e9_portfolio.json` records the wall-clock speedup and
//! `BENCH_e10_shared.json` the shared-vs-scratch setup reduction the CI
//! trend gates check.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ssc_netlist::analysis;
use ssc_pool::Pool;
use ssc_sat::chaos;
use ssc_soc::{Soc, SocConfig};
use upec_ssc::{
    Budget, CancelToken, ProductArtifact, Session, SessionPrefix, UpecAnalysis, UpecSpec,
    Verdict,
};

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

/// One analyzed cell of the scenario × size matrix.
#[derive(Clone, Debug)]
pub struct PortfolioEntry {
    /// Scenario label.
    pub scenario: &'static str,
    /// Public/private memory words of the analyzed SoC.
    pub words: u32,
    /// The job's deterministic seed (derived from `scenario` and `words`,
    /// not from the worker that ran it).
    pub seed: u64,
    /// The formal result (verdict, wall time, state bits).
    pub result: FormalResult,
}

/// A completed portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioReport {
    /// Workers of the pool that ran it (1 = the sequential loop).
    pub workers: usize,
    /// Entries in matrix order (scenario-major, then size).
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

/// Builds the shared per-size base: the SoC at `words`, its product
/// artifact and the encoded base prefix all scenarios of this size fork.
fn build_size_base(words: u32, seed_spec: &UpecSpec) -> Arc<ProductArtifact> {
    let soc = Soc::build(SocConfig::verification_sized(words, words));
    Arc::new(
        ProductArtifact::for_spec(&soc.netlist, seed_spec)
            .expect("portfolio spec matches the SoC"),
    )
}

/// Checks a finished cell against its scenario expectation and wraps it.
///
/// # Panics
///
/// Panics if a **conclusive** verdict contradicts the scenario's
/// expectation — a portfolio cell silently flipping verdicts must never
/// be merged. An inconclusive verdict (a budgeted cell that ran out of
/// effort) is recorded as-is: "gave up" is a legitimate, machine-readable
/// outcome, not a flip.
fn seal_cell(
    scenario: &Scenario,
    words: u32,
    state_bits: u64,
    verdict: Verdict,
    runtime: Duration,
) -> PortfolioEntry {
    if !matches!(verdict, Verdict::Inconclusive(_)) {
        assert_eq!(
            verdict.is_vulnerable(),
            scenario.leaky,
            "portfolio cell {}@{words} flipped its verdict: {verdict}",
            scenario.name
        );
    }
    PortfolioEntry {
        scenario: scenario.name,
        words,
        seed: job_seed(scenario.name, words),
        result: FormalResult { verdict, runtime, state_bits },
    }
}

/// Runs one matrix cell on the shared base: binds the scenario spec to the
/// size's artifact, forks the size's base prefix and runs the unrolled
/// procedure in the forked session.
fn run_cell_shared(
    scenario: &Scenario,
    art: &Arc<ProductArtifact>,
    prefix: &SessionPrefix<'_>,
    words: u32,
) -> PortfolioEntry {
    let state_bits = analysis::state_bit_count(art.src());
    let t = Instant::now();
    let an = UpecAnalysis::bind(art.clone(), scenario.spec.clone())
        .expect("portfolio spec matches the SoC");
    let sess = Session::with_prefix(&an, prefix.fork());
    let verdict = an.alg2_with_session(sess);
    seal_cell(scenario, words, state_bits, verdict, t.elapsed())
}

/// Runs one matrix cell from scratch: builds the cell's own product
/// netlist and proof session, sharing nothing (the pre-shared-artifact
/// behaviour, kept as the e10 baseline and equivalence oracle).
fn run_cell_from_scratch(scenario: &Scenario, words: u32) -> PortfolioEntry {
    let soc = Soc::build(SocConfig::verification_sized(words, words));
    let state_bits = analysis::state_bit_count(&soc.netlist);
    let an = UpecAnalysis::new(&soc.netlist, scenario.spec.clone())
        .expect("portfolio spec matches the SoC");
    let t = Instant::now();
    let verdict = an.alg2();
    seal_cell(scenario, words, state_bits, verdict, t.elapsed())
}

/// Fans the scenario × `sizes` matrix across `pool` in two phases — shared
/// per-size artifacts/prefixes first, then one forked-session job per cell
/// — and merges the entries in matrix order.
pub fn run_portfolio(pool: &Pool, sizes: &[u32]) -> PortfolioReport {
    let scenarios = scenario_matrix();
    let seed_spec = scenarios[0].spec.clone();
    let t = Instant::now();
    // Phase 1: one shared artifact + base prefix per size (itself fanned
    // across the pool; sizes are independent).
    let artifacts: Vec<Arc<ProductArtifact>> =
        pool.run(sizes.len(), |i| build_size_base(sizes[i], &seed_spec));
    let prefixes: Vec<SessionPrefix<'_>> = pool.run(artifacts.len(), |i| {
        SessionPrefix::build(&artifacts[i], &seed_spec, 1).expect("spec already validated")
    });
    // Phase 2: scenario-major job matrix; each job forks its size's prefix.
    let jobs: Vec<(usize, usize)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(s, _)| (0..sizes.len()).map(move |w| (s, w)))
        .collect();
    let entries = pool.run(jobs.len(), |i| {
        let (s, w) = jobs[i];
        run_cell_shared(&scenarios[s], &artifacts[w], &prefixes[w], sizes[w])
    });
    PortfolioReport { workers: pool.workers(), entries, wall: t.elapsed() }
}

/// The sequential baseline: the same two-phase plan with plain loops, no
/// pool involved. [`run_portfolio`] must be bit-identical to this under
/// [`fingerprint`] for every pool size.
pub fn run_portfolio_sequential(sizes: &[u32]) -> PortfolioReport {
    let scenarios = scenario_matrix();
    let seed_spec = scenarios[0].spec.clone();
    let t = Instant::now();
    let artifacts: Vec<Arc<ProductArtifact>> =
        sizes.iter().map(|&w| build_size_base(w, &seed_spec)).collect();
    let prefixes: Vec<SessionPrefix<'_>> = artifacts
        .iter()
        .map(|a| SessionPrefix::build(a, &seed_spec, 1).expect("spec already validated"))
        .collect();
    let mut entries = Vec::new();
    for scenario in &scenarios {
        for (w, &words) in sizes.iter().enumerate() {
            entries.push(run_cell_shared(scenario, &artifacts[w], &prefixes[w], words));
        }
    }
    PortfolioReport { workers: 1, entries, wall: t.elapsed() }
}

/// The from-scratch portfolio: every cell builds its own product netlist
/// and proof session (the pre-shared-artifact runner). Kept as the e10
/// wall-clock baseline; its fingerprint must equal the shared runner's
/// (forked sessions are state-identical to private ones).
pub fn run_portfolio_from_scratch(pool: &Pool, sizes: &[u32]) -> PortfolioReport {
    let scenarios = scenario_matrix();
    let jobs: Vec<(usize, u32)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(s, _)| sizes.iter().map(move |&w| (s, w)))
        .collect();
    let t = Instant::now();
    let entries = pool.run(jobs.len(), |i| {
        let (s, words) = jobs[i];
        run_cell_from_scratch(&scenarios[s], words)
    });
    PortfolioReport { workers: pool.workers(), entries, wall: t.elapsed() }
}

/// Head-to-head of the per-cell analysis **setup** cost (product build +
/// base-session encoding) at one SoC size: all four scenarios set up from
/// scratch versus off one shared artifact + forked base prefix.
///
/// The shared side is split into the one-time base (artifact + encoded
/// prefix, paid once per size) and the marginal per-cell cost (bind, fork
/// and scenario binding, paid per scenario) — the marginal cost is what
/// makes every *future* scenario nearly free to add, so the gate metric
/// compares per-cell against per-cell.
#[derive(Clone, Debug)]
pub struct SetupComparison {
    /// Memory words per device of the measured SoC.
    pub words: u32,
    /// Scenario cells set up on each side.
    pub cells: usize,
    /// Total setup time with every cell building its own product + prefix.
    pub scratch: Duration,
    /// One-time shared base: artifact build + prefix encoding.
    pub shared_base: Duration,
    /// Total marginal cost of the shared cells (bind + fork + scenario
    /// binding, summed over all cells).
    pub shared_cells: Duration,
}

impl SetupComparison {
    /// Per-cell setup reduction of the shared path: a from-scratch cell
    /// versus a marginal shared cell (the e10 gate metric).
    pub fn speedup(&self) -> f64 {
        self.scratch.as_secs_f64() / self.shared_cells.as_secs_f64().max(1e-9)
    }

    /// Whole-side comparison including the one-time base (amortizes with
    /// the number of cells; informational).
    pub fn aggregate_speedup(&self) -> f64 {
        let shared = self.shared_base.as_secs_f64() + self.shared_cells.as_secs_f64();
        self.scratch.as_secs_f64() / shared.max(1e-9)
    }
}

/// Measures [`SetupComparison`] at `words`: the scratch side pays product
/// construction + prefix encoding once per scenario, the shared side once
/// per size plus a fork per scenario.
pub fn compare_portfolio_setup(words: u32) -> SetupComparison {
    let scenarios = scenario_matrix();
    let soc = Soc::build(SocConfig::verification_sized(words, words));

    let t = Instant::now();
    for sc in &scenarios {
        let an = UpecAnalysis::new(&soc.netlist, sc.spec.clone())
            .expect("portfolio spec matches the SoC");
        let sess = Session::new(&an, 1);
        assert!(sess.encoded_nodes() > 0, "setup must have encoded the prefix");
    }
    let scratch = t.elapsed();

    let t = Instant::now();
    let seed_spec = &scenarios[0].spec;
    let art = Arc::new(
        ProductArtifact::for_spec(&soc.netlist, seed_spec)
            .expect("portfolio spec matches the SoC"),
    );
    let prefix =
        SessionPrefix::build(&art, seed_spec, 1).expect("spec already validated");
    let shared_base = t.elapsed();
    let t = Instant::now();
    for sc in &scenarios {
        let an = UpecAnalysis::bind(art.clone(), sc.spec.clone())
            .expect("portfolio spec matches the SoC");
        let sess = Session::with_prefix(&an, prefix.fork());
        assert!(sess.encoded_nodes() > 0, "setup must have encoded the prefix");
    }
    let shared_cells = t.elapsed();

    SetupComparison { words, cells: scenarios.len(), scratch, shared_base, shared_cells }
}

/// Projects a verdict onto its deterministic content: kind, refinement
/// trajectory and encoding sizes — everything except wall-clock and
/// solver-effort counters. Public so fault-injection tests can compare a
/// surviving cell's verdict against an uninjected run's cell by cell.
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

/// The deterministic projection of a whole portfolio: bitwise-comparable
/// across pool sizes, against the sequential loop, and against the
/// from-scratch runner. Wall-clock fields are excluded on purpose —
/// everything else (order, seeds, verdicts, iteration trajectories, state
/// bits) must match exactly.
pub fn fingerprint(report: &PortfolioReport) -> String {
    let mut out = String::new();
    for e in &report.entries {
        entry_fingerprint(e, &mut out);
        out.push('\n');
    }
    out
}

/// One entry's deterministic line (shared by [`fingerprint`] and
/// [`fingerprint_fallible`]): coordinates, seed, state bits, verdict.
fn entry_fingerprint(e: &PortfolioEntry, out: &mut String) {
    use std::fmt::Write as _;

    let _ = write!(
        out,
        "{}@{}#seed={:#018x}#bits={}=",
        e.scenario, e.words, e.seed, e.result.state_bits
    );
    verdict_fingerprint(&e.result.verdict, out);
}

/// A per-attempt effort budget of the fallible portfolio runner: the
/// deterministic (counter-based) subset of [`Budget`], expressible as a
/// plain value so retry ladders can be written down, compared and
/// fingerprinted. Wall-clock deadlines and cancellation tokens stay out
/// on purpose — cells retried under them would not be reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellBudget {
    /// Per-solve conflict limit (`None` = unlimited).
    pub conflicts: Option<u64>,
    /// Per-solve propagation limit (`None` = unlimited).
    pub propagations: Option<u64>,
}

impl CellBudget {
    /// No limits — the terminal rung of an escalation ladder that must
    /// always conclude.
    pub const UNLIMITED: CellBudget = CellBudget { conflicts: None, propagations: None };

    /// A conflict-limited budget.
    #[must_use]
    pub const fn conflicts(n: u64) -> Self {
        CellBudget { conflicts: Some(n), propagations: None }
    }

    /// A propagation-limited budget.
    #[must_use]
    pub const fn propagations(n: u64) -> Self {
        CellBudget { conflicts: None, propagations: Some(n) }
    }

    /// The solver [`Budget`] this cell budget denotes, tagged with the
    /// cell's seed so solve-path fault injection can address the cell.
    #[must_use]
    pub fn to_budget(self, tag: u64) -> Budget {
        Budget {
            conflicts: self.conflicts,
            propagations: self.propagations,
            deadline: None,
            cancel: None,
            tag,
        }
    }
}

impl std::fmt::Display for CellBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.conflicts, self.propagations) {
            (None, None) => f.write_str("unlimited"),
            (c, p) => {
                let mut sep = "";
                if let Some(c) = c {
                    write!(f, "conflicts<={c}")?;
                    sep = ",";
                }
                if let Some(p) = p {
                    write!(f, "{sep}props<={p}")?;
                }
                Ok(())
            }
        }
    }
}

/// The per-cell retry ladder of [`run_portfolio_fallible`]: attempt 1 runs
/// under `budgets[0]`, and a cell interrupted by its budget is retried
/// under each successive (typically larger) rung until one concludes or
/// the ladder runs dry — in which case the cell's last inconclusive
/// verdict is recorded, never panicked over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// The budget of each attempt, first to last. Never empty.
    pub budgets: Vec<CellBudget>,
}

impl RetryPolicy {
    /// A single unbudgeted attempt — the fallible runner's equivalent of
    /// [`run_portfolio`]'s effort profile (panic isolation still applies).
    #[must_use]
    pub fn unlimited() -> Self {
        RetryPolicy { budgets: vec![CellBudget::UNLIMITED] }
    }

    /// An escalation ladder over explicit rungs.
    ///
    /// # Panics
    ///
    /// Panics if `budgets` is empty — every cell needs at least one
    /// attempt.
    #[must_use]
    pub fn escalating(budgets: Vec<CellBudget>) -> Self {
        assert!(!budgets.is_empty(), "a retry policy needs at least one budget rung");
        RetryPolicy { budgets }
    }
}

/// How a fault-isolated portfolio cell ended.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The cell produced a verdict (possibly an inconclusive one, if its
    /// ladder ran dry). Boxed: an entry (verdict + solver counters) dwarfs
    /// the panic arm.
    Completed(Box<PortfolioEntry>),
    /// The cell's job panicked; the panic was confined to the cell by
    /// [`ssc_pool::Pool::try_run`] and stringified here.
    Panicked {
        /// The panic payload.
        message: String,
    },
}

/// One cell of a fault-isolated portfolio run: the outcome plus the retry
/// accounting the acceptance criteria ask for (how many attempts, under
/// which final budget).
#[derive(Clone, Debug)]
pub struct FallibleCell {
    /// Scenario label.
    pub scenario: &'static str,
    /// Public/private memory words of the analyzed SoC.
    pub words: u32,
    /// The cell's deterministic seed (also its chaos key).
    pub seed: u64,
    /// Attempts consumed (1 = first budget sufficed). `0` for a panicked
    /// cell: the unwind escaped before attempt accounting could complete,
    /// so no attempt is known to have finished.
    pub attempts: u32,
    /// The budget of the last attempt ([`RetryPolicy::budgets`]'s first
    /// rung for a panicked cell).
    pub final_budget: CellBudget,
    /// What happened.
    pub outcome: CellOutcome,
}

/// A completed fault-isolated portfolio run.
#[derive(Clone, Debug)]
pub struct FalliblePortfolioReport {
    /// Workers of the pool that ran it.
    pub workers: usize,
    /// Cells in matrix order (scenario-major, then size) — panicked cells
    /// keep their slot, so the matrix shape is intact regardless of
    /// failures.
    pub cells: Vec<FallibleCell>,
    /// Wall-clock time of the whole portfolio.
    pub wall: Duration,
}

impl FalliblePortfolioReport {
    /// The cells that panicked.
    pub fn panicked(&self) -> impl Iterator<Item = &FallibleCell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Panicked { .. }))
    }
}

/// Runs one matrix cell under `policy` with full fault accounting: each
/// attempt forks a fresh session off the shared prefix (an interrupted
/// solver is reusable, but a fresh fork keeps every attempt bit-identical
/// to a first try), installs the rung's budget tagged with the cell seed,
/// and runs the unrolled procedure. Interrupted attempts escalate to the
/// next rung; the last rung's verdict — conclusive or not — is final.
///
/// The cell-setup chaos point fires here, keyed by the cell seed:
/// [`chaos::Fault::Panic`] unwinds out (to be caught by
/// [`ssc_pool::Pool::try_run`]), while [`chaos::Fault::ExhaustBudget`] /
/// [`chaos::Fault::Cancel`] force every attempt's budget into the
/// corresponding failure so the whole ladder visibly runs dry.
pub fn run_cell_fallible(
    scenario: &Scenario,
    art: &Arc<ProductArtifact>,
    prefix: &SessionPrefix<'_>,
    words: u32,
    policy: &RetryPolicy,
) -> FallibleCell {
    let seed = job_seed(scenario.name, words);
    let (mut force_exhaust, mut force_cancel) = (false, false);
    match chaos::point(chaos::Site::CellSetup, seed) {
        Some(chaos::Fault::ExhaustBudget) => force_exhaust = true,
        Some(chaos::Fault::Cancel) => force_cancel = true,
        _ => {}
    }
    let state_bits = analysis::state_bit_count(art.src());
    let t = Instant::now();
    let mut attempts = 0u32;
    let mut final_budget = policy.budgets[0];
    let mut entry = None;
    for (rung, &cell_budget) in policy.budgets.iter().enumerate() {
        attempts += 1;
        final_budget = cell_budget;
        let mut budget = cell_budget.to_budget(seed);
        if force_exhaust {
            budget.conflicts = Some(0);
        }
        if force_cancel {
            let token = CancelToken::new();
            token.cancel();
            budget.cancel = Some(token);
        }
        let an = UpecAnalysis::bind(art.clone(), scenario.spec.clone())
            .expect("portfolio spec matches the SoC");
        let mut sess = Session::with_prefix(&an, prefix.fork());
        sess.set_budget(budget);
        let verdict = an.alg2_with_session(sess);
        let interrupted = matches!(
            &verdict,
            Verdict::Inconclusive(r) if r.cause.interrupt().is_some()
        );
        if interrupted && rung + 1 < policy.budgets.len() {
            continue;
        }
        entry = Some(seal_cell(scenario, words, state_bits, verdict, t.elapsed()));
        break;
    }
    let entry = entry.expect("the ladder's last rung always records a verdict");
    FallibleCell {
        scenario: scenario.name,
        words,
        seed,
        attempts,
        final_budget,
        outcome: CellOutcome::Completed(Box::new(entry)),
    }
}

/// The fault-isolated portfolio runner: the same two-phase plan as
/// [`run_portfolio`], but phase 2 fans cells through
/// [`ssc_pool::Pool::try_run`] under a per-cell [`RetryPolicy`]. A cell
/// that panics is recorded as [`CellOutcome::Panicked`] in its matrix slot
/// with the stringified payload; every other cell completes normally (no
/// fail-fast poisoning), and a cell whose budget runs out escalates
/// through the policy's ladder before settling for inconclusive.
///
/// Phase 1 (shared artifacts + prefixes) stays on the infallible
/// [`ssc_pool::Pool::run`] on purpose: a size's base is shared by all its
/// cells, so losing it is not isolable to one cell — that failure should
/// stop the run.
pub fn run_portfolio_fallible(
    pool: &Pool,
    sizes: &[u32],
    policy: &RetryPolicy,
) -> FalliblePortfolioReport {
    let scenarios = scenario_matrix();
    let seed_spec = scenarios[0].spec.clone();
    let t = Instant::now();
    let artifacts: Vec<Arc<ProductArtifact>> =
        pool.run(sizes.len(), |i| build_size_base(sizes[i], &seed_spec));
    let prefixes: Vec<SessionPrefix<'_>> = pool.run(artifacts.len(), |i| {
        SessionPrefix::build(&artifacts[i], &seed_spec, 1).expect("spec already validated")
    });
    let jobs: Vec<(usize, usize)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(s, _)| (0..sizes.len()).map(move |w| (s, w)))
        .collect();
    let cells = pool
        .try_run(jobs.len(), |i| {
            let (s, w) = jobs[i];
            run_cell_fallible(&scenarios[s], &artifacts[w], &prefixes[w], sizes[w], policy)
        })
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(cell) => cell,
            Err(p) => {
                let (s, w) = jobs[i];
                FallibleCell {
                    scenario: scenarios[s].name,
                    words: sizes[w],
                    seed: job_seed(scenarios[s].name, sizes[w]),
                    attempts: 0,
                    final_budget: policy.budgets[0],
                    outcome: CellOutcome::Panicked { message: p.message },
                }
            }
        })
        .collect();
    FalliblePortfolioReport { workers: pool.workers(), cells, wall: t.elapsed() }
}

/// The deterministic projection of a fault-isolated portfolio: entry lines
/// share their format with [`fingerprint`] (so surviving cells can be
/// compared against an uninjected run line by line), extended with the
/// retry accounting; panicked cells record the panic message, which is
/// itself deterministic for chaos-injected panics (the payload embeds the
/// site and cell key, not addresses or timings).
pub fn fingerprint_fallible(report: &FalliblePortfolioReport) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    for c in &report.cells {
        match &c.outcome {
            CellOutcome::Completed(e) => entry_fingerprint(e, &mut out),
            CellOutcome::Panicked { message } => {
                let _ = write!(
                    out,
                    "{}@{}#seed={:#018x}=panicked({message})",
                    c.scenario, c.words, c.seed
                );
            }
        }
        let _ = write!(out, "#attempts={}#budget={}", c.attempts, c.final_budget);
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
        let report = run_portfolio(&Pool::new(1), &[8]);
        let names: Vec<_> = report.entries.iter().map(|e| e.scenario).collect();
        assert_eq!(
            names,
            vec!["dma_timer/leaky", "hwpe_memory/leaky", "dma_timer/patched", "hwpe_memory/patched"]
        );
    }

    #[test]
    fn setup_comparison_measures_both_sides() {
        let cmp = compare_portfolio_setup(8);
        assert_eq!(cmp.cells, 4);
        assert!(cmp.scratch > Duration::ZERO);
        assert!(cmp.shared_base > Duration::ZERO && cmp.shared_cells > Duration::ZERO);
        // The wall-clock floor itself is the trend gate's business; the
        // marginal shared cells beating four from-scratch builds is
        // robustly true at any size (forks versus product builds + prefix
        // encodings).
        assert!(
            cmp.shared_cells < cmp.scratch,
            "marginal shared setup {:?} must undercut scratch {:?}",
            cmp.shared_cells,
            cmp.scratch
        );
    }
}
