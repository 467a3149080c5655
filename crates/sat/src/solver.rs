//! The CDCL solver core.
//!
//! A conflict-driven clause-learning SAT solver: two-watched-literal
//! propagation, first-UIP conflict analysis, exponential VSIDS decision
//! heuristic with phase saving. One fixed engine adds four refinements to
//! the MiniSat-lineage baseline:
//!
//! - **recursive clause minimization** (MiniSat's `ccmin-mode=deep`): a
//!   DFS over reason clauses with an abstraction-level filter;
//! - **tiered learnt-clause database** (glucose/CaDiCaL lineage): core
//!   (LBD ≤ 3, never deleted) / mid / local tiers with LBD-driven
//!   promotion and usage-driven demotion;
//! - **adaptive restarts**: fast/slow LBD moving averages trigger a
//!   restart when recent conflicts degrade, postponed ("blocked") when
//!   the trail has grown far past its average — a SAT-leaning probe is
//!   making assignment progress a restart would throw away;
//! - **chronological backtracking** (Nadel & Ryvchin, SAT 2018; Möhle &
//!   Biere, SAT 2019, CaDiCaL's design): a learnt clause that would
//!   backjump more than [`CHRONO_LEVELS`] levels backtracks only to the
//!   conflict level − 1 and assigns its asserting literal at its true,
//!   lower level, so the long trail above the jump target survives
//!   instead of being re-decided and re-propagated. The trail is then no
//!   longer sorted by level, and three invariants keep the solver sound:
//!   - *assignment levels*: a propagated literal takes the highest level
//!     among its reason's other literals (a reason scan is paid only when
//!     the propagating literal sits below the decision level), and an
//!     asserting literal the level of its learnt clause's second literal;
//!   - *backtracking*: `cancel_until(t)` unassigns only the literals above
//!     level `t`, compacts the kept ones stably (the trail stays a
//!     topological order, which `analyze_final`'s backward walk and every
//!     assumption core rely on) and lowers `qhead` to the first kept
//!     position, so kept literals are propagated again;
//!   - *conflicts*: a conflict is analysed at the level its clause is
//!     falsified at, with its two highest-level literals moved into the
//!     watched positions first; a conflict with a single literal on that
//!     level is a missed lower implication, re-implied without learning.
//!
//! A solver built by [`Solver::certifying`] also hands every input clause,
//! learnt clause and conclusive answer to an independent [`rup::Checker`],
//! which panics on anything it cannot verify.

use crate::budget::{Budget, CancelToken, Interrupt, InterruptCause};
use crate::chaos;
use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};
use crate::rup;
use std::time::Instant;

/// Reference to a clause in the arena (offset of its header word).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct CRef(u32);

const CREF_UNDEF: CRef = CRef(u32::MAX);

/// Learnt-clause tiers of the tiered database (glucose/CaDiCaL lineage).
/// Stored per clause in the arena header, so forks and garbage collection
/// carry them for free. Lower value = more valuable.
const TIER_CORE: u32 = 0;
const TIER_MID: u32 = 1;
const TIER_LOCAL: u32 = 2;

/// LBD ceilings of the core and mid tiers.
const CORE_LBD_MAX: u32 = 3;
const MID_LBD_MAX: u32 = 6;

/// Flat clause arena.
///
/// Layout per clause: `[len_and_flags, lbd, lit0, lit1, ...]` where
/// `len_and_flags = len << 5 | used << 4 | tier << 2 | deleted << 1 |
/// learnt`. `tier` and `used` (touched in conflict analysis since the
/// last reduction) belong to the tiered learnt database; keeping them in
/// the header means [`Solver::fork`] and the GC carry them with the same
/// contiguous memcpys that move the literals.
///
/// The flat layout is also what makes [`Solver::fork`] cheap: snapshotting
/// the arena is one contiguous memcpy, not a clause-by-clause rebuild.
#[derive(Clone)]
struct ClauseDb {
    data: Vec<u32>,
    /// Bytes wasted by deleted clauses (in u32 words), used to trigger GC.
    wasted: usize,
}

impl ClauseDb {
    fn new() -> Self {
        ClauseDb { data: Vec::new(), wasted: 0 }
    }

    fn alloc(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        let at = self.data.len() as u32;
        // Fresh learnts start in the local tier; `record_learnt` promotes
        // them to the tier their first LBD merits.
        let tier = if learnt { TIER_LOCAL } else { 0 };
        self.data.push((lits.len() as u32) << 5 | tier << 2 | u32::from(learnt));
        self.data.push(if learnt { lits.len() as u32 } else { 0 }); // initial LBD
        self.data.extend(lits.iter().map(|l| l.0));
        CRef(at)
    }

    #[inline]
    fn len(&self, c: CRef) -> usize {
        (self.data[c.0 as usize] >> 5) as usize
    }

    #[inline]
    fn is_learnt(&self, c: CRef) -> bool {
        self.data[c.0 as usize] & 1 == 1
    }

    #[inline]
    fn is_deleted(&self, c: CRef) -> bool {
        self.data[c.0 as usize] & 2 == 2
    }

    #[inline]
    fn delete(&mut self, c: CRef) {
        let len = self.len(c);
        self.data[c.0 as usize] |= 2;
        self.wasted += len + 2;
    }

    #[inline]
    fn tier(&self, c: CRef) -> u32 {
        (self.data[c.0 as usize] >> 2) & 0b11
    }

    #[inline]
    fn set_tier(&mut self, c: CRef, tier: u32) {
        debug_assert!(tier <= TIER_LOCAL);
        let h = &mut self.data[c.0 as usize];
        *h = (*h & !(0b11 << 2)) | tier << 2;
    }

    #[inline]
    fn is_used(&self, c: CRef) -> bool {
        self.data[c.0 as usize] & (1 << 4) != 0
    }

    #[inline]
    fn set_used(&mut self, c: CRef) {
        self.data[c.0 as usize] |= 1 << 4;
    }

    #[inline]
    fn clear_used(&mut self, c: CRef) {
        self.data[c.0 as usize] &= !(1 << 4);
    }

    #[inline]
    fn lbd(&self, c: CRef) -> u32 {
        self.data[c.0 as usize + 1]
    }

    #[inline]
    fn set_lbd(&mut self, c: CRef, lbd: u32) {
        self.data[c.0 as usize + 1] = lbd;
    }

    #[inline]
    fn lits(&self, c: CRef) -> &[u32] {
        let start = c.0 as usize + 2;
        &self.data[start..start + self.len(c)]
    }

    #[inline]
    fn lit(&self, c: CRef, i: usize) -> Lit {
        Lit(self.data[c.0 as usize + 2 + i])
    }

    #[inline]
    fn swap_lits(&mut self, c: CRef, i: usize, j: usize) {
        let base = c.0 as usize + 2;
        self.data.swap(base + i, base + j);
    }
}

#[derive(Clone, Copy)]
struct Watcher {
    cref: CRef,
    blocker: Lit,
}

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it via [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The solve was stopped by its [`Budget`] (or a cancellation) before
    /// reaching an answer. The solver is left at decision level 0 with all
    /// state intact — re-solving with a larger budget is always valid.
    /// [`Solver::model_value`] and [`Solver::assumption_core`] hold stale
    /// data from the last conclusive solve.
    Unknown(Interrupt),
}

/// Runtime statistics of a solver instance.
///
/// All counters are cumulative over the solver's lifetime, so an
/// incremental client can compute per-solve deltas by snapshotting before
/// and after a [`Solver::solve`] call (the UPEC-SSC procedures do exactly
/// this per fixpoint iteration).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: u64,
    /// Number of problem clauses added.
    pub clauses: u64,
    /// Number of learnt-database reductions performed.
    pub db_reductions: u64,
    /// Number of clause-arena garbage collections performed.
    pub gcs: u64,
    /// Number of `solve` calls completed.
    pub solves: u64,
    /// Number of variables whose VSIDS activity was re-seeded from the
    /// previous solve's assumption core (the re-solve tuning of long
    /// sessions: consecutive `solve` calls of a proof session differ only
    /// slightly, so the variables the last unsatisfiability proof rested on
    /// are primed to be decided first instead of starting from decayed
    /// activity).
    pub core_seeds: u64,
    /// Number of `solve` calls that returned [`SolveResult::Unknown`]
    /// because their [`Budget`] ran out or they were cancelled.
    pub interrupts: u64,
    /// Number of literals removed from learnt clauses by recursive
    /// conflict-clause minimization.
    pub minimized_lits: u64,
    /// Number of learnt clauses promoted to a better tier of the tiered
    /// database because their recomputed LBD improved.
    pub tier_promotions: u64,
    /// Number of adaptive restarts postponed because the trail had grown
    /// far past its running average (the "blocking" half of glucose-style
    /// restarts).
    pub restarts_blocked: u64,
    /// Number of learnt clauses whose backjump spanned more than
    /// [`CHRONO_LEVELS`] levels and so backtracked chronologically, to the
    /// conflict level − 1.
    pub chrono_backtracks: u64,
    /// Number of `Sat`/`Unsat` answers the proof checker of a
    /// [`Solver::certifying`] solver accepted; 0 on a plain solver.
    pub certified: u64,
    /// Always 0: the solver has no vivification pass. Kept only because
    /// `perfbench/src/metrics.rs` reads it.
    pub vivified_clauses: u64,
    /// Always 0: the solver has no subsumption pass. Kept only because
    /// `perfbench/src/metrics.rs` reads it.
    pub subsumed_clauses: u64,
}

impl SolverStats {
    /// The component-wise difference `self - earlier` for cumulative
    /// counters (gauge-like fields such as `learnts`/`clauses` keep the
    /// current value).
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts - earlier.conflicts,
            decisions: self.decisions - earlier.decisions,
            propagations: self.propagations - earlier.propagations,
            restarts: self.restarts - earlier.restarts,
            learnts: self.learnts,
            clauses: self.clauses,
            db_reductions: self.db_reductions - earlier.db_reductions,
            gcs: self.gcs - earlier.gcs,
            solves: self.solves - earlier.solves,
            core_seeds: self.core_seeds - earlier.core_seeds,
            interrupts: self.interrupts - earlier.interrupts,
            minimized_lits: self.minimized_lits - earlier.minimized_lits,
            tier_promotions: self.tier_promotions - earlier.tier_promotions,
            restarts_blocked: self.restarts_blocked - earlier.restarts_blocked,
            chrono_backtracks: self.chrono_backtracks - earlier.chrono_backtracks,
            certified: self.certified - earlier.certified,
            vivified_clauses: self.vivified_clauses - earlier.vivified_clauses,
            subsumed_clauses: self.subsumed_clauses - earlier.subsumed_clauses,
        }
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} conflicts, {} decisions, {} propagations, {} restarts",
            self.conflicts, self.decisions, self.propagations, self.restarts
        )
    }
}

/// The solver's one engine. Kept only because `perfbench/src/host.rs`
/// reads it; delete with the next benchmark change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Heuristics {
    /// The only engine (see the module docs).
    Modern,
}

impl Heuristics {
    /// Always [`Heuristics::Modern`]: no variable selects the engine.
    pub fn from_env() -> Heuristics {
        Heuristics::Modern
    }
}

/// A CDCL SAT solver.
///
/// # Example
///
/// ```
/// use ssc_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.pos(), b.pos()]);
/// s.add_clause([a.neg()]);
/// assert_eq!(s.solve(&[]), SolveResult::Sat);
/// assert_eq!(s.model_value(b.pos()), Some(true));
/// assert_eq!(s.solve(&[b.neg()]), SolveResult::Unsat);
/// ```
#[derive(Clone)]
pub struct Solver {
    db: ClauseDb,
    /// Problem clause refs (for GC).
    clauses: Vec<CRef>,
    /// Learnt clause refs.
    learnts: Vec<CRef>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<CRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    heap: VarHeap,
    seen: Vec<bool>,
    /// DFS stack of the recursive minimizer (persistent scratch).
    ccmin_stack: Vec<Lit>,
    /// `seen` marks added by the recursive minimizer beyond the learnt
    /// clause itself, cleared at the end of each analysis.
    ccmin_clear: Vec<Lit>,
    /// Scratch: the clause being added (see `add_clause_with`).
    add_buf: Vec<Lit>,
    /// Scratch for LBD computation: level -> stamp.
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,
    var_inc: f64,
    max_learnts: f64,
    ok: bool,
    stats: SolverStats,
    model: Vec<LBool>,
    /// Assumption core of the most recent `Unsat` result.
    core: Vec<Lit>,
    /// Resource governance for `solve` calls (see [`Budget`]).
    budget: Budget,
    /// True while inside `solve` — gates the interrupt machinery so that
    /// between-solve propagation (e.g. from `add_clause`) can never be cut
    /// short by a stale limit or a raised cancellation token.
    solving: bool,
    /// Absolute cumulative-counter ceilings for the current solve
    /// (`u64::MAX` = unlimited); derived from `budget` at solve entry.
    limit_conflicts: u64,
    limit_props: u64,
    /// Interrupt cause tripped mid-solve, consumed by the solve loop.
    interrupt: Option<InterruptCause>,
    /// The proof checker of a [`Solver::certifying`] solver.
    checker: Option<Box<rup::Checker>>,
}

const VAR_DECAY: f64 = 0.95;

/// Longest backjump the solver takes in full: a learnt clause that
/// would jump back more levels backtracks chronologically instead, to the
/// conflict level − 1. 100 is the literature default (Nadel & Ryvchin,
/// SAT 2018; CaDiCaL's `chronolevels`).
pub const CHRONO_LEVELS: u32 = 100;

/// Adaptive-restart tuning (glucose lineage): windows of the fast/slow
/// LBD averages and the conflict-time trail average, the degradation
/// margin that fires a restart, the trail margin that blocks one, and
/// the minimum conflicts between consecutive triggers.
const LBD_FAST_WINDOW: u64 = 32;
const LBD_SLOW_WINDOW: u64 = 8192;
const TRAIL_AVG_WINDOW: u64 = 4096;
const RESTART_MARGIN: f64 = 1.25;
const RESTART_BLOCK_MARGIN: f64 = 1.4;
const RESTART_MIN_INTERVAL: u64 = 32;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            db: ClauseDb::new(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            heap: VarHeap::new(),
            seen: Vec::new(),
            ccmin_stack: Vec::new(),
            ccmin_clear: Vec::new(),
            add_buf: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_counter: 0,
            var_inc: 1.0,
            max_learnts: 4000.0,
            ok: true,
            stats: SolverStats::default(),
            model: Vec::new(),
            core: Vec::new(),
            budget: Budget::default(),
            solving: false,
            limit_conflicts: u64::MAX,
            limit_props: u64::MAX,
            interrupt: None,
            checker: None,
        }
    }

    /// Creates an empty solver that certifies its work: every input clause,
    /// every learnt clause and every `Sat`/`Unsat` answer goes to an
    /// independent [`rup::Checker`], which panics on anything it cannot
    /// verify, and [`SolverStats::certified`] counts the accepted answers.
    /// The search is the plain solver's, step for step; the checker only
    /// costs time and memory. Forks carry a copy of the checker.
    pub fn certifying() -> Self {
        Solver { checker: Some(Box::default()), ..Solver::new() }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.level.push(0);
        self.reason.push(CREF_UNDEF);
        self.seen.push(false);
        self.lbd_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, 0.0);
        v
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Forks the solver into an independent snapshot: the clause arena,
    /// learnt database, node-to-watch indices, saved phases, VSIDS
    /// activities and level-0 trail are all carried over, and the two
    /// solvers diverge freely from here on. A certifying solver's fork
    /// certifies too, against a copy of the parent's checker.
    ///
    /// This is the copy-on-write primitive of shared proof sessions: a base
    /// session encodes the prefix common to a whole scenario portfolio
    /// *once*, and every scenario forks it instead of re-encoding and
    /// re-learning from scratch. Since the arenas are flat `Vec`s, the fork
    /// itself is a handful of memcpys — the work a fork avoids (Tseitin
    /// encoding, propagation, clause learning over the shared prefix) is
    /// what makes it cheap, and each fork pays only for what it adds on top.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level 0 (i.e. from inside a solve;
    /// `solve` always returns at level 0, so any between-solve call is
    /// fine).
    pub fn fork(&self) -> Solver {
        assert_eq!(self.trail_lim.len(), 0, "fork above level 0");
        self.clone()
    }

    /// Solver statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits every subsequent [`Solver::solve`] call to `budget` conflicts
    /// *each*; a solve exceeding it stops and returns
    /// [`SolveResult::Unknown`] with [`InterruptCause::Conflicts`] instead
    /// of an answer — it never panics and never reports a wrong verdict.
    /// Use `None` to remove the limit. Shorthand for setting only the
    /// conflict field of the [`Budget`] installed via [`Solver::set_budget`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.budget.conflicts = budget;
    }

    /// Installs the resource [`Budget`] governing subsequent
    /// [`Solver::solve`] calls (replacing the previous one). See [`Budget`]
    /// for the semantics of each limit.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The currently installed [`Budget`].
    ///
    /// Note that [`Solver::fork`] clones it into the child — including any
    /// attached [`crate::CancelToken`], which the child then *shares* with
    /// the parent. Call [`Solver::set_budget`] on the fork for independent
    /// governance.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].xor(l.is_neg())
    }

    /// Adds a clause. Returns `false` if the solver became trivially
    /// unsatisfiable (empty clause, or conflicting units at level 0).
    ///
    /// Duplicate literals are removed; tautologies are silently accepted.
    /// A certifying solver's checker gets the clause as given, before the
    /// level-0 simplification that may rest on learnt units.
    ///
    /// # Panics
    ///
    /// Panics if called after a solve while not at decision level 0
    /// (incremental use is supported because `solve` always backtracks to
    /// level 0 before returning).
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        self.add_clause_with(lits, |checker, ls| checker.add_input(ls))
    }

    /// Adds a clause the clauses added so far already imply, as a permanent
    /// clause like [`Solver::add_clause`]'s. Implied clauses give unit
    /// propagation facts it would otherwise learn only through conflicts.
    ///
    /// A certifying solver's checker does not take the clause as an input:
    /// it derives it first, as RUP lemmas over case splits on `splits` (see
    /// [`rup::Checker::derive`]). The search is the same as on a plain
    /// solver, which ignores `splits`.
    ///
    /// # Panics
    ///
    /// Like [`Solver::add_clause`]; a certifying solver also panics if its
    /// checker cannot derive the clause, which it never can when the
    /// clause is not implied.
    pub fn add_implied_clause(
        &mut self,
        lits: impl IntoIterator<Item = Lit>,
        splits: &[Var],
    ) -> bool {
        self.add_clause_with(lits, |checker, ls| checker.derive(ls, splits))
    }

    /// Sorts and deduplicates `lits` in the solver's scratch buffer, hands
    /// a non-tautological clause to a certifying solver's checker through
    /// `certify`, and adds it.
    fn add_clause_with(
        &mut self,
        lits: impl IntoIterator<Item = Lit>,
        certify: impl FnOnce(&mut rup::Checker, &[Lit]),
    ) -> bool {
        assert_eq!(self.trail_lim.len(), 0, "add_clause above level 0");
        if !self.ok {
            return false;
        }
        let mut ls = std::mem::take(&mut self.add_buf);
        ls.clear();
        ls.extend(lits);
        ls.sort_unstable();
        ls.dedup();
        // p and ~p are adjacent after the sort.
        let tautology = ls.windows(2).any(|w| w[1] == !w[0]);
        if let Some(checker) = &mut self.checker {
            if !tautology {
                certify(checker, &ls);
            }
        }
        // A tautology, or a clause already satisfied at level 0, adds nothing.
        if !tautology && !ls.iter().any(|&l| self.value_lit(l) == LBool::True) {
            // Level-0 simplification: drop the falsified literals.
            ls.retain(|&l| self.value_lit(l) == LBool::Undef);
            match ls.len() {
                0 => self.ok = false,
                1 => {
                    self.unchecked_enqueue(ls[0], 0, CREF_UNDEF);
                    self.ok = self.propagate().is_none();
                }
                _ => {
                    let cref = self.db.alloc(&ls, false);
                    self.clauses.push(cref);
                    self.stats.clauses += 1;
                    self.attach(cref);
                }
            }
        }
        self.add_buf = ls;
        self.ok
    }

    fn attach(&mut self, cref: CRef) {
        let l0 = self.db.lit(cref, 0);
        let l1 = self.db.lit(cref, 1);
        self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    /// Assigns `l` at `level`, which is below the decision level when the
    /// literal is implied out of trail order (chronological backtracking).
    fn unchecked_enqueue(&mut self, l: Lit, level: u32, reason: CRef) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        debug_assert!(level <= self.decision_level());
        let v = l.var().index();
        self.assigns[v] = LBool::from(!l.is_neg());
        self.level[v] = level;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// The highest level among the literals of `c` after position 0: the
    /// level its position-0 literal is implied at.
    fn reason_level(&self, c: CRef) -> u32 {
        let level = |k| self.level[self.db.lit(c, k).var().index()];
        (1..self.db.len(c)).map(level).max().unwrap_or(0)
    }

    fn propagate(&mut self) -> Option<CRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Budget hot path. The counter limit is a single predictable
            // compare (the ceiling is `u64::MAX` unless a propagation budget
            // is active); wall-clock and cancellation polls are amortized.
            if self.stats.propagations >= self.limit_props {
                self.interrupt = Some(InterruptCause::Propagations);
            } else if self.stats.propagations & 0x3FF == 0 {
                self.poll_interrupt();
            }
            if self.interrupt.is_some() {
                // Stop at a consistent point between trail literals: `p`
                // and the rest of the queue stay queued (a level-0 queue
                // survives the solve's final `cancel_until(0)`, so the next
                // propagation picks it up) and the solve loop converts the
                // pending interrupt into `Unknown`.
                self.qhead -= 1;
                return None;
            }
            // A literal at the decision level implies at the decision
            // level; one below it (kept across a chronological backtrack)
            // implies at its reason's highest level.
            let dl = self.decision_level();
            let in_order = self.level[p.var().index()] == dl;

            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut j = 0;
            let mut i = 0;
            'clauses: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value_lit(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                // Make sure the false literal is at position 1.
                let false_lit = !p;
                if self.db.lit(cref, 0) == false_lit {
                    self.db.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.db.lit(cref, 1), false_lit);
                let first = self.db.lit(cref, 0);
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    ws[j] = Watcher { cref, blocker: first };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.db.len(cref);
                for k in 2..len {
                    let lk = self.db.lit(cref, k);
                    if self.value_lit(lk) != LBool::False {
                        self.db.swap_lits(cref, 1, k);
                        self.watches[(!lk).index()].push(Watcher { cref, blocker: first });
                        continue 'clauses;
                    }
                }
                // Clause is unit or conflicting under the current trail.
                ws[j] = Watcher { cref, blocker: first };
                j += 1;
                if self.value_lit(first) == LBool::False {
                    // Conflict: `qhead` stays put, since the conflict's own
                    // backtrack decides which literals are propagated again.
                    conflict = Some(cref);
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    let level = if in_order { dl } else { self.reason_level(cref) };
                    self.unchecked_enqueue(first, level, cref);
                }
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    /// Amortized poll of the wall-clock-driven interrupt sources
    /// (cancellation token, deadline). Gated on `solving` so a raised token
    /// can never truncate between-solve propagation (e.g. `add_clause`
    /// unit propagation), which must always run to completion for
    /// soundness.
    fn poll_interrupt(&mut self) {
        if !self.solving || self.interrupt.is_some() {
            return;
        }
        if self.budget.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.interrupt = Some(InterruptCause::Cancelled);
        } else if self.budget.deadline.is_some_and(|d| Instant::now() >= d) {
            self.interrupt = Some(InterruptCause::Deadline);
        }
    }

    /// Books an interrupted solve: bumps the counter and builds the
    /// `Unknown` result carrying this solve's work delta.
    fn interrupted(&mut self, cause: InterruptCause, entry: &SolverStats) -> SolveResult {
        self.stats.interrupts += 1;
        SolveResult::Unknown(Interrupt { cause, stats: self.stats.delta_since(entry) })
    }

    /// Backtracks to decision level `target`: unassigns every literal above
    /// it (in reverse trail order) and keeps the ones at or below it that
    /// chronological backtracking left above the level's trail segment,
    /// compacted stably so the trail stays a topological order. `qhead`
    /// drops to the first kept position, so kept literals propagate again.
    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        let mut kept = 0;
        for idx in (lim..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var();
            if self.level[v.index()] <= target {
                kept += 1;
                continue;
            }
            self.assigns[v.index()] = LBool::Undef;
            self.polarity[v.index()] = !l.is_neg();
            self.reason[v.index()] = CREF_UNDEF;
            self.heap.reinsert(v);
        }
        if kept > 0 {
            let mut j = lim;
            for i in lim..self.trail.len() {
                let l = self.trail[i];
                if self.assigns[l.var().index()] != LBool::Undef {
                    debug_assert!(self.level[l.var().index()] <= target);
                    self.trail[j] = l;
                    j += 1;
                }
            }
            debug_assert_eq!(j, lim + kept);
        }
        self.trail.truncate(lim + kept);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.qhead.min(lim);
        debug_assert!(self.qhead <= self.trail.len());
    }

    fn var_bump(&mut self, v: Var) {
        let a = self.heap.activity(v) + self.var_inc;
        self.heap.set_activity(v, a);
        if a > 1e100 {
            self.rescale_activities();
        }
    }

    fn rescale_activities(&mut self) {
        for i in 0..self.num_vars() {
            let v = Var(i as u32);
            let a = self.heap.activity(v);
            self.heap.set_activity(v, a * 1e-100);
        }
        self.var_inc *= 1e-100;
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    ///
    /// Runs at the conflict's own level (the solve loop backtracks there
    /// first), where a chronological backtrack may have left lower-level
    /// literals above that level's first literal on the trail.
    fn analyze(&mut self, mut confl: CRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let dl = self.decision_level();

        loop {
            debug_assert_ne!(confl, CREF_UNDEF);
            // Bump matched learnt clauses (freshness heuristic via LBD); an
            // improved LBD also promotes the clause to the tier it now
            // merits, and participating in analysis at all marks it used
            // (the demotion signal of the next reduce).
            if self.db.is_learnt(confl) {
                self.db.set_used(confl);
                let lbd = self.compute_lbd(confl);
                if lbd < self.db.lbd(confl) {
                    self.db.set_lbd(confl, lbd);
                    let t = Self::tier_for_lbd(lbd);
                    if t < self.db.tier(confl) {
                        self.db.set_tier(confl, t);
                        self.stats.tier_promotions += 1;
                    }
                }
            }
            if let Some(pl) = p {
                self.debug_assert_reason(confl, pl);
            }
            let start = usize::from(p.is_some());
            for k in start..self.db.len(confl) {
                let q = self.db.lit(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.var_bump(v);
                    if self.level[v.index()] >= dl {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next conflict-level literal to expand; seen
            // lower-level literals can sit above it on the trail.
            loop {
                index -= 1;
                let v = self.trail[index].var().index();
                if self.seen[v] && self.level[v] == dl {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var().index()];
        }
        learnt[0] = !p.expect("analysis visits at least the UIP");

        // Clause minimization: drop literals implied by the rest, by the
        // recursive (deep) DFS over reason clauses.
        let mut minimized: Vec<Lit> = vec![learnt[0]];
        debug_assert!(self.ccmin_clear.is_empty());
        let mut abstract_levels = 0u32;
        for &l in &learnt[1..] {
            abstract_levels |= self.abstract_level(l.var());
        }
        for &l in &learnt[1..] {
            if self.reason[l.var().index()] == CREF_UNDEF || !self.lit_redundant(l, abstract_levels)
            {
                minimized.push(l);
            }
        }
        self.stats.minimized_lits += (learnt.len() - minimized.len()) as u64;

        // Compute backtrack level: second-highest level in the clause.
        let bt = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };

        // Clear remaining seen flags — the learnt clause's own, plus any
        // extra marks the recursive minimizer left as memoized
        // "redundant" witnesses.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        for i in 0..self.ccmin_clear.len() {
            self.seen[self.ccmin_clear[i].var().index()] = false;
        }
        self.ccmin_clear.clear();
        (minimized, bt)
    }

    /// Debug check of the reason-clause invariant analysis relies on: the
    /// literal `implied` sits at position 0 of its reason `r`, at the
    /// highest level among the clause's other literals.
    fn debug_assert_reason(&self, r: CRef, implied: Lit) {
        debug_assert_eq!(self.db.lit(r, 0), implied, "implied literal not at position 0");
        debug_assert_eq!(
            self.level[implied.var().index()],
            self.reason_level(r),
            "implied literal not at its reason's highest level"
        );
    }

    /// The level conflict clause `c` is falsified at, which chronological
    /// backtracking can put below the decision level, and whether exactly
    /// one of its literals sits at that level. Moves the clause's two
    /// highest-level literals into the watched positions first, re-watching
    /// any that change: a clause left watched by two lower false literals
    /// would stay unwatched by everything the backtrack unassigns.
    fn conflict_level(&mut self, c: CRef) -> (u32, bool) {
        let len = self.db.len(c);
        let level_at = |s: &Self, k: usize| s.level[s.db.lit(c, k).var().index()];
        let (mut max, mut count) = (0, 0);
        for k in 0..len {
            let l = level_at(self, k);
            if l > max {
                (max, count) = (l, 1);
            } else if l == max {
                count += 1;
            }
        }
        for i in 0..2 {
            if level_at(self, i) == max {
                continue;
            }
            let mut best = i;
            for k in i + 1..len {
                if level_at(self, k) > level_at(self, best) {
                    best = k;
                }
            }
            if best == i {
                continue;
            }
            let old = self.db.lit(c, i);
            self.db.swap_lits(c, i, best);
            if best > 1 {
                self.watches[(!old).index()].retain(|w| w.cref != c);
                let new = self.db.lit(c, i);
                let blocker = self.db.lit(c, 1 - i);
                self.watches[(!new).index()].push(Watcher { cref: c, blocker });
            }
        }
        debug_assert_eq!(level_at(self, 0), max);
        debug_assert!((2..len).all(|k| level_at(self, k) <= level_at(self, 1)));
        (max, count == 1)
    }

    /// One-bit-per-level abstraction of a variable's decision level
    /// (MiniSat's `abstractLevel`), used by the recursive minimizer to
    /// cheaply reject reason literals from levels the learnt clause never
    /// touches.
    #[inline]
    fn abstract_level(&self, v: Var) -> u32 {
        1 << (self.level[v.index()] & 31)
    }

    /// Whether `p` is redundant in the learnt clause under construction:
    /// a DFS over reason clauses (MiniSat's `litRedundant`, the deep
    /// ccmin mode) proving `p` implied by seen literals and level-0
    /// facts alone. Newly proven-redundant literals stay marked in `seen`
    /// (memoization across sibling probes of one analysis) and are logged
    /// in `ccmin_clear` for the caller to unmark; a failed probe unwinds
    /// its own marks before returning.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32) -> bool {
        debug_assert!(self.ccmin_stack.is_empty());
        self.ccmin_stack.push(p);
        let top = self.ccmin_clear.len();
        while let Some(q) = self.ccmin_stack.pop() {
            let r = self.reason[q.var().index()];
            debug_assert_ne!(r, CREF_UNDEF);
            self.debug_assert_reason(r, !q);
            // A reason clause keeps its propagated literal at position 0
            // while locked, so positions 1.. are exactly the antecedents.
            for k in 1..self.db.len(r) {
                let l = self.db.lit(r, k);
                let v = l.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                if self.reason[v.index()] != CREF_UNDEF
                    && self.abstract_level(v) & abstract_levels != 0
                {
                    self.seen[v.index()] = true;
                    self.ccmin_stack.push(l);
                    self.ccmin_clear.push(l);
                } else {
                    // Hit a decision or a level outside the clause: `p`
                    // is not provably redundant. Undo this probe's marks.
                    for i in top..self.ccmin_clear.len() {
                        self.seen[self.ccmin_clear[i].var().index()] = false;
                    }
                    self.ccmin_clear.truncate(top);
                    self.ccmin_stack.clear();
                    return false;
                }
            }
        }
        true
    }

    /// The tier a learnt clause of the given LBD belongs to.
    #[inline]
    fn tier_for_lbd(lbd: u32) -> u32 {
        if lbd <= CORE_LBD_MAX {
            TIER_CORE
        } else if lbd <= MID_LBD_MAX {
            TIER_MID
        } else {
            TIER_LOCAL
        }
    }

    /// Computes the assumption core after an assumption `p` was found
    /// falsified (MiniSat's `analyzeFinal`): walks the implication graph
    /// backwards from `¬p`'s assignment and collects every *decision* it
    /// rests on. While the solver is still placing assumptions, all
    /// decisions on the trail **are** assumptions, so the result is the
    /// subset of the caller's assumption literals that together imply the
    /// conflict — `p` itself included.
    fn analyze_final(&mut self, p: Lit) {
        self.core.clear();
        self.core.push(p);
        if self.decision_level() == 0 {
            return; // ¬p is a level-0 consequence of the formula alone
        }
        self.seen[p.var().index()] = true;
        for idx in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var();
            if !self.seen[v.index()] {
                continue;
            }
            let r = self.reason[v.index()];
            if r == CREF_UNDEF {
                // A decision: one of the already-placed assumptions. The
                // trail holds the literal as assumed, so it can be handed
                // back verbatim (for `v == p.var()` this is the
                // complementary assumption `¬p`).
                self.core.push(l);
            } else {
                for k in 0..self.db.len(r) {
                    let q = self.db.lit(r, k);
                    if q.var() != v && self.level[q.var().index()] > 0 {
                        self.seen[q.var().index()] = true;
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        // `¬p` may have been implied at level 0, in which case its variable
        // never appeared in the walk above.
        self.seen[p.var().index()] = false;
    }

    /// Bumps the VSIDS activity of the given literals' variables, as if
    /// they had appeared in a conflict. Deterministic steering hook for
    /// clients that know where the action is — e.g. a freshly installed
    /// proof-goal clause, whose variables the next solve should decide
    /// early.
    pub fn bump_activity(&mut self, lits: impl IntoIterator<Item = Lit>) {
        for l in lits {
            self.var_bump(l.var());
        }
    }

    /// The assumption core of the most recent [`SolveResult::Unsat`]: a
    /// subset of the `solve` call's assumption literals that is already
    /// sufficient for unsatisfiability. An *empty* core means the formula
    /// is unsatisfiable regardless of any assumption.
    ///
    /// Only meaningful directly after an `Unsat` result; a later `Sat`
    /// result leaves the stale core in place.
    pub fn assumption_core(&self) -> &[Lit] {
        &self.core
    }

    fn compute_lbd(&mut self, c: CRef) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0;
        for k in 0..self.db.len(c) {
            let lvl = self.level[self.db.lit(c, k).var().index()] as usize;
            if self.lbd_stamp.len() <= lvl {
                self.lbd_stamp.resize(lvl + 1, 0);
            }
            if self.lbd_stamp[lvl] != stamp {
                self.lbd_stamp[lvl] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// Installs a learnt clause and enqueues its asserting literal at
    /// `level`, the level of the clause's second literal (0 for a unit).
    /// Returns the clause's LBD (1 for unit learnts), which feeds the
    /// adaptive-restart averages. A certifying solver's checker checks the
    /// clause first.
    fn record_learnt(&mut self, lits: Vec<Lit>, level: u32) -> u32 {
        if let Some(checker) = &mut self.checker {
            checker.add_lemma(&lits);
        }
        if lits.len() == 1 {
            self.unchecked_enqueue(lits[0], 0, CREF_UNDEF);
            return 1;
        }
        let cref = self.db.alloc(&lits, true);
        let lbd = self.compute_lbd(cref);
        self.db.set_lbd(cref, lbd);
        self.db.set_tier(cref, Self::tier_for_lbd(lbd));
        self.learnts.push(cref);
        self.stats.learnts = self.learnts.len() as u64;
        self.attach(cref);
        self.unchecked_enqueue(lits[0], level, cref);
        lbd
    }

    /// A clause is locked while it is the reason of its first literal's
    /// assignment (MiniSat's invariant: the propagated literal is moved to
    /// position 0 when the clause becomes a reason).
    #[inline]
    fn is_locked(&self, c: CRef) -> bool {
        let v = self.db.lit(c, 0).var().index();
        self.reason[v] == c && self.assigns[v] != LBool::Undef
    }

    /// The tiered reducer: the core tier (LBD ≤ 3) is never deleted; mid
    /// clauses untouched since the previous reduction demote to local;
    /// the worse (higher-LBD, older on ties) half of the local tier is
    /// deleted, skipping locked clauses. Promotion back up happens in
    /// conflict analysis, where an improved LBD re-tiers the clause.
    fn reduce_db(&mut self) {
        self.stats.db_reductions += 1;
        let mut local: Vec<(u32, CRef)> = Vec::new();
        for i in 0..self.learnts.len() {
            let c = self.learnts[i];
            match self.db.tier(c) {
                TIER_CORE => {}
                TIER_MID => {
                    if self.db.is_used(c) {
                        self.db.clear_used(c);
                    } else {
                        self.db.set_tier(c, TIER_LOCAL);
                        local.push((self.db.lbd(c), c));
                    }
                }
                _ => {
                    if self.db.is_used(c) {
                        // A local clause that just participated in a
                        // conflict gets one more round before it is a
                        // deletion candidate.
                        self.db.clear_used(c);
                    } else {
                        local.push((self.db.lbd(c), c));
                    }
                }
            }
        }
        // Higher LBD first; on equal LBD the *older* clause (lower arena
        // offset) is deleted first — recency is the cheapest proxy for
        // relevance the arena gives us deterministically.
        local.sort_unstable_by_key(|&(lbd, c)| (std::cmp::Reverse(lbd), c.0));
        let target = local.len() / 2;
        let mut deleted = 0;
        for (_, c) in local {
            if deleted >= target {
                break;
            }
            if self.is_locked(c) {
                continue;
            }
            self.detach(c);
            self.db.delete(c);
            deleted += 1;
        }
        let db = &self.db;
        self.learnts.retain(|&c| !db.is_deleted(c));
        self.stats.learnts = self.learnts.len() as u64;
        if self.db.wasted * 2 > self.db.data.len() {
            self.garbage_collect();
        }
    }

    /// Reduces the learnt database and compacts the clause arena *between*
    /// incremental `solve` calls.
    ///
    /// Long-lived sessions (one solver across an entire UPEC-SSC fixpoint
    /// run) accumulate learnt clauses from hundreds of solves; this hook
    /// lets the owner shed stale learnts at a window boundary without
    /// discarding the solver. It runs one reduction of the tiered database:
    /// core-tier clauses (LBD ≤ 3) and clauses locked as level-0 reasons
    /// always survive, so the call never loses soundness or the most
    /// valuable lemmas.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level 0 (i.e. from inside a solve).
    pub fn collect_garbage(&mut self) {
        assert_eq!(self.trail_lim.len(), 0, "collect_garbage above level 0");
        if !self.ok {
            return;
        }
        self.reduce_db();
        if self.db.wasted > 0 {
            self.garbage_collect();
        }
    }

    fn detach(&mut self, cref: CRef) {
        let l0 = self.db.lit(cref, 0);
        let l1 = self.db.lit(cref, 1);
        self.watches[(!l0).index()].retain(|w| w.cref != cref);
        self.watches[(!l1).index()].retain(|w| w.cref != cref);
    }

    /// Compacts the clause arena, dropping deleted clauses and rebuilding
    /// all watch lists and reason references.
    ///
    /// Relocation is recorded with forwarding pointers written into the old
    /// arena (the moved clause's now-unused LBD slot), so the remap is O(1)
    /// per reference with no side table — the GC survives arbitrarily many
    /// incremental solve/grow cycles without allocation churn.
    fn garbage_collect(&mut self) {
        self.stats.gcs += 1;
        let mut new_db = ClauseDb::new();
        let mut move_clause = |db: &mut ClauseDb, c: CRef| -> CRef {
            let lits: Vec<Lit> = db.lits(c).iter().map(|&l| Lit(l)).collect();
            let n = new_db.alloc(&lits, db.is_learnt(c));
            // Carry the full header (tier/used flags included) minus the
            // deleted bit, then the LBD.
            new_db.data[n.0 as usize] = db.data[c.0 as usize] & !2;
            new_db.set_lbd(n, db.lbd(c));
            // Mark the old copy deleted and store the forwarding pointer in
            // its LBD slot.
            db.data[c.0 as usize] |= 2;
            db.data[c.0 as usize + 1] = n.0;
            n
        };
        for c in &mut self.clauses {
            *c = move_clause(&mut self.db, *c);
        }
        for c in &mut self.learnts {
            *c = move_clause(&mut self.db, *c);
        }
        for r in &mut self.reason {
            if *r != CREF_UNDEF {
                // Reasons only exist for currently-assigned variables, whose
                // clauses are locked and therefore were moved above (a
                // deleted clause is never a live reason).
                debug_assert!(self.db.is_deleted(*r), "live reason was not forwarded");
                *r = CRef(self.db.data[r.0 as usize + 1]);
            }
        }
        self.db = new_db;
        for w in &mut self.watches {
            w.clear();
        }
        let all: Vec<CRef> = self.clauses.iter().chain(self.learnts.iter()).copied().collect();
        for c in all {
            self.attach(c);
        }
    }

    /// Solves the formula under the given assumptions.
    ///
    /// After `Sat`, the model is available via [`Solver::model_value`]. The
    /// solver is left at decision level 0 and can be reused incrementally
    /// (more clauses/vars may be added, different assumptions tried).
    ///
    /// If a [`Budget`] is installed ([`Solver::set_budget`] /
    /// [`Solver::set_conflict_budget`]) and runs out — or an attached
    /// [`CancelToken`] is raised — the solve stops at decision level 0 and
    /// returns [`SolveResult::Unknown`] instead of an answer; it never
    /// panics on exhaustion and never converts a budget limit into a wrong
    /// `Sat`/`Unsat`. A budgeted `Unknown` leaves the solver fully valid:
    /// the same call with a larger budget picks up with everything learnt
    /// so far.
    ///
    /// # Panics
    ///
    /// A [`Solver::certifying`] solver panics if its checker rejects the
    /// answer.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        let entry_stats = self.stats;
        self.stats.solves += 1;
        if !self.ok {
            self.core.clear(); // unsat without any assumption
            self.certify(SolveResult::Unsat, assumptions);
            return SolveResult::Unsat;
        }
        // Fault injection (no-op unless a chaos plan targeting this solve's
        // budget tag is armed): a panic fault unwinds out of `point`, an
        // exhaustion fault shrinks this call's conflict budget to zero so it
        // trips the genuine interrupt path, a cancel fault behaves like a
        // token raised before the solve started.
        let mut conflicts_allowed = self.budget.conflicts;
        match chaos::point(chaos::Site::Solve, self.budget.tag) {
            Some(chaos::Fault::ExhaustBudget) => conflicts_allowed = Some(0),
            Some(chaos::Fault::Cancel) => {
                return self.interrupted(InterruptCause::Cancelled, &entry_stats);
            }
            _ => {}
        }
        self.limit_conflicts = conflicts_allowed.map_or(u64::MAX, |b| self.stats.conflicts + b);
        self.limit_props =
            self.budget.propagations.map_or(u64::MAX, |b| self.stats.propagations + b);
        self.interrupt = None;
        self.solving = true;
        self.poll_interrupt(); // pre-raised token / already-past deadline
        // Re-solve tuning: consecutive solves of a persistent session ask
        // near-identical questions, so prime the decision heuristic with the
        // variables the previous unsatisfiability proof rested on — one
        // activity bump each, lifting them back above the decayed bulk
        // without erasing the accumulated VSIDS ranking. Saved phases and
        // activities already persist across solves; this re-focuses them.
        if !self.core.is_empty() {
            let seeds = std::mem::take(&mut self.core);
            for l in &seeds {
                self.var_bump(l.var());
            }
            self.stats.core_seeds += seeds.len() as u64;
            self.core = seeds;
        }
        let mut conflicts_in_run: u64 = 0;
        // Adaptive-restart state (glucose lineage), all per-solve and
        // purely counter-driven, so schedules are deterministic: a fast
        // LBD average over the recent window versus the slow whole-solve
        // average triggers a restart when recent conflicts degrade; a
        // trail far above its own average blocks (postpones) the restart
        // instead, because the solver is visibly filling in a model that
        // a restart would throw away. During the first `window` conflicts
        // the update rule degenerates to an exact running mean, so the
        // averages need no seed value.
        let mut lbd_fast = 0.0f64;
        let mut lbd_slow = 0.0f64;
        let mut trail_avg = 0.0f64;
        let mut solve_conflicts: u64 = 0;

        let result = loop {
            if let Some(cause) = self.interrupt.take() {
                break self.interrupted(cause, &entry_stats);
            }
            let confl = self.propagate();
            if let Some(cause) = self.interrupt.take() {
                break self.interrupted(cause, &entry_stats);
            }
            if let Some(confl) = confl {
                self.stats.conflicts += 1;
                conflicts_in_run += 1;
                // Under chronological backtracking the conflict may sit
                // below the decision level.
                let (level, single) = self.conflict_level(confl);
                if level == 0 {
                    // A sound answer beats an exhausted budget: level-0
                    // conflicts prove unsatisfiability outright.
                    self.ok = false;
                    self.core.clear(); // unsat without any assumption
                    break SolveResult::Unsat;
                }
                if self.stats.conflicts > self.limit_conflicts {
                    break self.interrupted(InterruptCause::Conflicts, &entry_stats);
                }
                if single {
                    // A missed lower implication: the clause's one literal
                    // on the conflict level is implied by the rest. Re-imply
                    // it one level down, with the clause as its reason.
                    self.cancel_until(level - 1);
                    let implied = self.db.lit(confl, 0);
                    let at = self.level[self.db.lit(confl, 1).var().index()];
                    self.unchecked_enqueue(implied, at, confl);
                    continue;
                }
                self.cancel_until(level);
                let (learnt, bt_level) = self.analyze(confl);
                // Never backtrack past the assumptions that are still valid:
                // cancel_until handles re-enqueueing since decisions are
                // re-derived from `assumptions` in the decision phase. A
                // long backjump only backtracks one level and asserts out
                // of order (units still go to 0).
                let target = if learnt.len() > 1 && level - bt_level > CHRONO_LEVELS {
                    self.stats.chrono_backtracks += 1;
                    level - 1
                } else {
                    bt_level
                };
                self.cancel_until(target);
                let lbd = self.record_learnt(learnt, bt_level);
                solve_conflicts += 1;
                let fast_n = solve_conflicts.min(LBD_FAST_WINDOW) as f64;
                let slow_n = solve_conflicts.min(LBD_SLOW_WINDOW) as f64;
                let trail_n = solve_conflicts.min(TRAIL_AVG_WINDOW) as f64;
                lbd_fast += (f64::from(lbd) - lbd_fast) / fast_n;
                lbd_slow += (f64::from(lbd) - lbd_slow) / slow_n;
                trail_avg += (self.trail.len() as f64 - trail_avg) / trail_n;
                self.var_inc /= VAR_DECAY;
                if self.learnts.len() as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
            } else {
                let restart_due = conflicts_in_run >= RESTART_MIN_INTERVAL
                    && lbd_fast > lbd_slow * RESTART_MARGIN;
                if restart_due && self.trail.len() as f64 > trail_avg * RESTART_BLOCK_MARGIN {
                    // Blocked: the trail is far past its average, i.e. the
                    // search is assignment-heavy (SAT-leaning) and close to
                    // something — postpone, damp the trigger, re-arm only
                    // after another minimum interval of conflicts.
                    self.stats.restarts_blocked += 1;
                    conflicts_in_run = 0;
                    lbd_fast = lbd_slow;
                } else if restart_due {
                    // Restart: keep level-0 trail, redo assumptions.
                    self.stats.restarts += 1;
                    conflicts_in_run = 0;
                    // Like glucose clearing its conflict queue: the trigger
                    // re-arms on fresh degradation only.
                    lbd_fast = lbd_slow;
                    self.cancel_until(0);
                }
                // Extend with assumptions first.
                let mut next_decision: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value_lit(p) {
                        LBool::True => self.new_decision_level(), // dummy level
                        LBool::False => {
                            break;
                        }
                        LBool::Undef => {
                            next_decision = Some(p);
                            break;
                        }
                    }
                }
                if (self.decision_level() as usize) < assumptions.len()
                    && next_decision.is_none()
                {
                    // Some assumption is falsified by level-0/previous units:
                    // record which assumptions that conflict rests on.
                    let p = assumptions[self.decision_level() as usize];
                    self.analyze_final(p);
                    break SolveResult::Unsat;
                }
                let decision = match next_decision {
                    Some(p) => Some(p),
                    None => self.pick_branch(),
                };
                match decision {
                    None => {
                        // All variables assigned: model found.
                        self.model = self.assigns.clone();
                        break SolveResult::Sat;
                    }
                    Some(p) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        self.unchecked_enqueue(p, self.decision_level(), CREF_UNDEF);
                    }
                }
            }
        };
        self.cancel_until(0);
        self.solving = false;
        self.interrupt = None;
        self.limit_conflicts = u64::MAX;
        self.limit_props = u64::MAX;
        self.certify(result, assumptions);
        result
    }

    /// Hands a conclusive answer to a certifying solver's checker (a no-op
    /// on a plain solver): an `Unsat` core must be a subset of
    /// `assumptions` whose negation is RUP, a `Sat` model must satisfy
    /// every input clause. Counts the accepted answer.
    fn certify(&mut self, result: SolveResult, assumptions: &[Lit]) {
        let Some(checker) = &mut self.checker else { return };
        match result {
            SolveResult::Sat => {
                let model = &self.model;
                checker.check_model(|l| model[l.var().index()].xor(l.is_neg()) == LBool::True);
            }
            SolveResult::Unsat => checker.check_unsat(&self.core, assumptions),
            SolveResult::Unknown(_) => return,
        }
        self.stats.certified += 1;
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop_max() {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v.lit(!self.polarity[v.index()]));
            }
        }
        None
    }

    /// The value of `l` in the most recent model (after a `Sat` result).
    /// Returns `None` for variables that were never assigned.
    pub fn model_value(&self, l: Lit) -> Option<bool> {
        self.model
            .get(l.var().index())
            .and_then(|v| v.xor(l.is_neg()).as_bool())
    }

    /// The value of variable `v` in the most recent model.
    pub fn model_var(&self, v: Var) -> Option<bool> {
        self.model.get(v.index()).and_then(|x| x.as_bool())
    }
}
