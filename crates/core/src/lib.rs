//! # upec-ssc — UPEC for System Side Channels
//!
//! The core contribution of *MCU-Wide Timing Side Channels and Their
//! Detection* (DAC 2024), reimplemented on the `ssc-*` stack:
//!
//! - [`atoms`]: state variables (`S_all`, `S_not_victim`) and the
//!   persistence policy compiling `S_pers`,
//! - [`UpecSpec`]: the verification specification — victim port, symbolic
//!   protected address ranges, victim-allocatable devices, firmware
//!   constraints of a countermeasure,
//! - [`ProductArtifact`]: the scenario-independent 2-safety product (two
//!   instances of the design in one netlist), built once per design and
//!   `Arc`-shared across every scenario analysis of that design,
//! - [`UpecAnalysis`]: a thin binding of a spec to a (possibly shared)
//!   artifact, plus the paper's property macros
//!   (`Primary_Input_Constraints`, `Victim_Task_Executing`,
//!   `State_Equivalence(S)`),
//! - [`UpecAnalysis::alg1`]: the 2-cycle iterative fixpoint procedure
//!   (paper Alg. 1) — *bounded property, unbounded proof*,
//! - [`UpecAnalysis::alg2`]: the unrolled procedure (paper Alg. 2)
//!   producing explicit multi-cycle counterexamples,
//! - [`UpecAnalysis::prove_constraints_inductive`]: discharges the
//!   invariant obligations behind countermeasure assumptions,
//! - [`Verdict`]/[`Counterexample`]: machine-checkable reports, including
//!   the full symbolic-start state for concrete replay on `ssc-sim`.
//!
//! # The persistent proof session
//!
//! Both procedures run inside **one incremental SAT session** per analysis
//! ([`Session`]): Alg. 2 grows its [`ssc_ipc::Unroller`] and CNF encoding
//! in place as the property window extends, and on saturation hands the
//! *same* session to the final Alg. 1 induction
//! ([`UpecAnalysis::alg1_in_session`]). Three mechanisms keep the solver
//! valid while the property changes shape:
//!
//! - the standing assumptions are cached per cycle and only *appended*
//!   when the window grows ([`Session::base_assumptions`] copies out of
//!   the cache),
//! - per-atom state-equality terms are cached ([`Session::atom_eq_term`]),
//!   so shrinking a state set between fixpoint iterations reuses every
//!   surviving atom's encoding,
//! - the negated goal (one disjunct per tracked atom and goal cycle) is a
//!   clause guarded by an *activation literal*, solved in one sequential
//!   call ([`Session::check_window`]); retiring the literal removes the
//!   obligation while the learnt-clause database carries over, and
//!   `ssc_ipc::Ipc::collect_garbage` sheds stale learnt clauses at window
//!   boundaries,
//! - each cycle the procedures grow a session to gets a [`difference`]
//!   layer: clauses over `XOR(x_a, x_b)` pairs of the two instances'
//!   CNF gates that let unit propagation prove "equal fan-ins give an
//!   equal output", and for a MUX "equal select and chosen branch give an
//!   equal output", instead of the solver searching for it. The AIG
//!   implies them, and a certifying session derives each one instead of
//!   trusting it.
//!
//! # Shared artifacts and copy-on-write session forks
//!
//! A session splits along the scenario boundary. The **scenario-
//! independent** half — product unrolling, input-equality and victim
//! macros, range-alignment validity, and the state-equality cone of every
//! `S_not_victim` atom — lives in a [`SessionPrefix`], eagerly encoded
//! into the solver at construction. The **scenario** half (device-window
//! validity, firmware constraints, quiescing) is a second assumption
//! ledger [`Session::with_prefix`] adds on top.
//!
//! That split is what makes a portfolio cheap: build one
//! [`ProductArtifact`] and one prefix per SoC size, then
//! [`SessionPrefix::fork`] per scenario — a copy-on-write snapshot of the
//! encoded solver state (`ssc_ipc::Ipc::fork`) that inherits the shared
//! encoding *and* everything the solver learnt on it, instead of paying
//! product construction + prefix encoding once per cell.
//! [`Session::new`] routes through the same prefix construction, so a
//! forked session is state-identical to a privately built one — verdicts,
//! refinement trajectories, even the encoding counters (asserted by
//! `tests/incremental_crosscheck.rs`).
//!
//! Three re-solve tunings keep consecutive checks of one session fast: the
//! solver seeds VSIDS activity from the previous check's assumption core
//! (`ssc_sat::SolverStats::core_seeds` counts it),
//! [`Session::check_window`] orders the pre-state equality assumptions
//! most-recently-shrunk-atoms-first ([`Session::note_shrunk`]), and a
//! window-k check of Alg. 2 assumes the state sets of the cycles below k,
//! which the window-(k-1) check proved, instead of re-deriving them.
//!
//! # Bounded effort & graceful degradation
//!
//! Every procedure can run under a resource [`Budget`] (per-solve conflict
//! / propagation limits, a wall-clock deadline, a shareable [`CancelToken`]):
//! install it with [`Session::set_budget`] or use the
//! [`UpecAnalysis::alg2_budgeted`] entry point. A solver call whose budget
//! runs out is converted into [`Verdict::Inconclusive`] carrying the
//! machine-readable [`InconclusiveCause`] and the **partial iteration
//! trajectory** up to the stop — exhaustion never panics. The soundness
//! argument is simple and structural: `Unknown`/`Interrupted` results are
//! *never* mapped to `Secure` or `Vulnerable` anywhere in the stack (and
//! [`UpecAnalysis::prove_constraints_inductive`] fails closed, counting an
//! interrupted obligation as unproven), so a budgeted run can only ever
//! degrade from an answer to an explicit "gave up", never to a wrong
//! verdict. Counter-based budgets interrupt deterministically: the same
//! scenario under the same budget reproduces the same cause and the same
//! partial trajectory.
//!
//! [`IterationStat`] records the proof of incrementality per iteration:
//! `encoded_delta` (new CNF work, bounded by the newly unrolled cycle's
//! cone), plus solver-statistics deltas (conflicts, propagations,
//! restarts, learnt counts, database reductions, GCs) and wall time. The
//! tear-down-per-check reference engine
//! ([`UpecAnalysis::alg2_fresh_baseline`]) remains available as the
//! semantic cross-check oracle and performance baseline.
//!
//! # Example: detecting the HWPE/memory channel and proving the fix
//!
//! ```no_run
//! use ssc_soc::Soc;
//! use upec_ssc::{UpecAnalysis, UpecSpec};
//!
//! let soc = Soc::verification_view();
//! // Vulnerable configuration: victim data in the shared public memory.
//! let vuln = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap();
//! assert!(vuln.alg1().is_vulnerable());
//!
//! // Countermeasure: victim data in private memory + firmware constraints.
//! let fixed = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).unwrap();
//! fixed.prove_constraints_inductive().unwrap();
//! assert!(fixed.alg1().is_secure());
//! ```

#![warn(missing_docs)]

pub mod atoms;
pub mod difference;
mod engine;
mod extensions;
mod procedure;
mod replay;
mod report;
mod spec;

pub use atoms::{AtomSet, PersistencePolicy, StateAtom};
pub use difference::{DifferenceLayer, ImpliedClause};
pub use engine::{
    static_prune_from_env, CubeConfig, Instance, ProductArtifact, Session, SessionPrefix,
    UpecAnalysis,
};
pub use extensions::ChannelFinding;
pub use replay::{replay_neighborhood, replay_on_simulator, NeighborhoodReport, Perturbation};
pub use report::{
    AtomDiff, CexCycle, Counterexample, CubeReport, InconclusiveCause, InconclusiveReport,
    IterationStat, PortActivity, SecureReport, Verdict, VulnReport,
};
pub use ssc_sat::{Budget, CancelToken, Interrupt, InterruptCause};
pub use spec::{DeviceMap, FirmwareConstraint, IpPort, UpecSpec, VictimPort};
