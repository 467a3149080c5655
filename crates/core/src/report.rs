//! Verdicts, counterexamples and human-readable reports.

use std::fmt;
use std::time::Duration;

use crate::atoms::{AtomSet, StateAtom};

/// The difference of one state atom between the two product instances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomDiff {
    /// The diverging atom.
    pub atom: StateAtom,
    /// Hierarchical name.
    pub name: String,
    /// Value in instance A.
    pub value_a: u64,
    /// Value in instance B.
    pub value_b: u64,
    /// Whether the atom is in `S_pers`.
    pub persistent: bool,
}

/// Port activity of one instance in one counterexample cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortActivity {
    /// Request strobe.
    pub req: bool,
    /// Byte address.
    pub addr: u64,
    /// Write enable.
    pub we: bool,
    /// Write data.
    pub wdata: u64,
    /// Whether the address falls in the protected range.
    pub protected: bool,
}

/// One cycle of a counterexample trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CexCycle {
    /// Cycle index within the property window.
    pub cycle: usize,
    /// Victim port of instance A.
    pub port_a: PortActivity,
    /// Victim port of instance B.
    pub port_b: PortActivity,
    /// Every other primary input by name, with its value in this cycle,
    /// which is the same in both instances. The model may set these too,
    /// so a replay drives them.
    pub inputs: Vec<(String, u64)>,
}

/// A complete counterexample to the UPEC-SSC property.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The cycle (state time) at which the divergence was observed.
    pub at_cycle: usize,
    /// Diverging atoms (with persistence classification).
    pub diffs: Vec<AtomDiff>,
    /// Concrete protected-range base chosen by the solver.
    pub prot_base: u64,
    /// Per-cycle victim port activity.
    pub trace: Vec<CexCycle>,
    /// Initial (cycle 0) values of every tracked atom for both instances —
    /// enables concrete replay of the symbolic starting state.
    pub initial_state: Vec<(StateAtom, String, u64, u64)>,
}

impl Counterexample {
    /// Diffs that are persistent (the exploitable ones).
    pub fn persistent_diffs(&self) -> impl Iterator<Item = &AtomDiff> {
        self.diffs.iter().filter(|d| d.persistent)
    }

    /// A one-line summary of the strongest finding.
    pub fn headline(&self) -> String {
        match self.persistent_diffs().next() {
            Some(d) => format!(
                "persistent state `{}` diverges ({:#x} vs {:#x}) at cycle {}",
                d.name, d.value_a, d.value_b, self.at_cycle
            ),
            None => format!(
                "{} transient state variable(s) diverge at cycle {}",
                self.diffs.len(),
                self.at_cycle
            ),
        }
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample at cycle {} (prot_base = {:#010x})", self.at_cycle, self.prot_base)?;
        for c in &self.trace {
            writeln!(
                f,
                "  cycle {}: A[req={} addr={:#010x} we={} prot={}]  B[req={} addr={:#010x} we={} prot={}]",
                c.cycle,
                u8::from(c.port_a.req),
                c.port_a.addr,
                u8::from(c.port_a.we),
                u8::from(c.port_a.protected),
                u8::from(c.port_b.req),
                c.port_b.addr,
                u8::from(c.port_b.we),
                u8::from(c.port_b.protected),
            )?;
            if !c.inputs.is_empty() {
                let inputs: Vec<String> =
                    c.inputs.iter().map(|(name, v)| format!("{name}={v:#x}")).collect();
                writeln!(f, "    inputs: {}", inputs.join(" "))?;
            }
        }
        for d in &self.diffs {
            writeln!(
                f,
                "  diff{}: {} = {:#x} vs {:#x}",
                if d.persistent { " [PERSISTENT]" } else { "" },
                d.name,
                d.value_a,
                d.value_b
            )?;
        }
        Ok(())
    }
}

/// Statistics of one procedure iteration.
#[derive(Clone, Debug)]
pub struct IterationStat {
    /// Iteration index (1-based).
    pub iteration: usize,
    /// Unrolled window length during this iteration (Alg. 2) or 1 (Alg. 1).
    pub window: usize,
    /// `|S|` before the check.
    pub set_size: usize,
    /// Number of atoms removed by this iteration's counterexample.
    pub removed: usize,
    /// Wall-clock time of the solver call.
    pub runtime: Duration,
    /// AIG nodes that own a solver variable after this iteration's check
    /// (`ssc_aig::cnf::CnfEncoder::encoded_nodes`; the ANDs inside an
    /// encoded MUX/XOR gate or AND tree own none).
    pub encoded_nodes: usize,
    /// Growth of [`IterationStat::encoded_nodes`] *during* this iteration.
    ///
    /// This is the per-window proof obligation of the persistent session:
    /// growth is bounded by the newly unrolled cycle's cone (plus the goal
    /// clause), never by a full re-encoding of the prefix.
    pub encoded_delta: usize,
    /// AIG nodes in the unrolling after this iteration.
    pub aig_nodes: usize,
    /// Solver-statistics delta attributable to this iteration's solve
    /// (cumulative gauges like `learnts` hold the post-solve value).
    pub solver: ssc_sat::SolverStats,
    /// Always 0: the engine has no unsat-core-guided atom dropping. Kept
    /// only because `perfbench/src/{metrics,workloads}.rs` read it; delete
    /// with the next benchmark change.
    pub atoms_core_dropped: usize,
    /// Always 0: the engine has no static goal pruning. Kept only because
    /// `perfbench/src/{metrics,workloads}.rs` read it; delete with the
    /// next benchmark change.
    pub atoms_static_pruned: usize,
    /// Disjuncts installed in this iteration's goal clause: one per
    /// `(cycle, atom)` goal pair.
    pub goal_disjuncts: usize,
    /// Always `None`: the engine has no cube-and-conquer escalation. Kept
    /// only because `perfbench/src/{metrics,workloads}.rs` read it; delete
    /// with the next benchmark change.
    pub cube: Option<CubeReport>,
}

/// Never produced: the engine has no cube-and-conquer escalation. Kept
/// only because `perfbench/src/{metrics,workloads}.rs` read its fields
/// through [`IterationStat::cube`]; delete with the next benchmark change.
#[derive(Clone, Debug)]
pub struct CubeReport {
    /// Number of cubes spawned.
    pub cubes: usize,
    /// Wall-clock µs spent inside cubes whose result was not used.
    pub wasted_us: u64,
    /// Conflicts each cube's solver spent, indexed by cube.
    pub conflicts: Vec<u64>,
    /// Whether the race fell back to a sequential re-solve.
    pub fallback: bool,
}

/// The result of a UPEC-SSC procedure run.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The design is secure w.r.t. the threat model: the final set `S` is
    /// inductive and contains all of `S_pers`.
    Secure(SecureReport),
    /// A vulnerability was found: victim behaviour reaches persistent,
    /// attacker-accessible state.
    Vulnerable(VulnReport),
    /// The procedure gave up without an answer — see
    /// [`InconclusiveReport::cause`]. Soundness of bounded effort rests on
    /// this variant: an interrupted or exhausted run is *never* mapped to
    /// `Secure` or `Vulnerable`.
    Inconclusive(InconclusiveReport),
}

/// Machine-readable cause of an inconclusive verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InconclusiveCause {
    /// The unroll bound was exhausted before the fixpoint saturated.
    UnrollLimitReached {
        /// The bound that was exhausted.
        max_unroll: usize,
    },
    /// A violated check whose model shows no observable state difference
    /// (diagnostic; points at a modelling gap).
    NoObservableDifference,
    /// A violated check without an extractable divergence in any cycle
    /// (diagnostic; points at a modelling gap).
    NoExtractableDivergence,
    /// A solver call was stopped by its resource budget or a cancellation
    /// before reaching an answer.
    Interrupted(ssc_sat::Interrupt),
}

impl InconclusiveCause {
    /// Stable machine-readable code (used in fingerprints and reports).
    /// Interrupts encode their [`ssc_sat::InterruptCause`], e.g.
    /// `"interrupt:conflict-budget"`.
    pub fn code(&self) -> &'static str {
        use ssc_sat::InterruptCause::*;
        match self {
            InconclusiveCause::UnrollLimitReached { .. } => "unroll-limit",
            InconclusiveCause::NoObservableDifference => "no-observable-difference",
            InconclusiveCause::NoExtractableDivergence => "no-extractable-divergence",
            InconclusiveCause::Interrupted(int) => match int.cause {
                Conflicts => "interrupt:conflict-budget",
                Propagations => "interrupt:propagation-budget",
                Deadline => "interrupt:deadline",
                Cancelled => "interrupt:cancelled",
            },
        }
    }

    /// The interrupt record, if this cause is [`InconclusiveCause::Interrupted`].
    pub fn interrupt(&self) -> Option<&ssc_sat::Interrupt> {
        match self {
            InconclusiveCause::Interrupted(int) => Some(int),
            _ => None,
        }
    }
}

impl fmt::Display for InconclusiveCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InconclusiveCause::UnrollLimitReached { max_unroll } => {
                write!(f, "no fixpoint within the unroll bound of {max_unroll} cycles")
            }
            InconclusiveCause::NoObservableDifference => {
                f.write_str("solver produced a model without an observable state difference")
            }
            InconclusiveCause::NoExtractableDivergence => {
                f.write_str("counterexample without an extractable divergence")
            }
            InconclusiveCause::Interrupted(int) => {
                write!(f, "solve interrupted ({})", int.cause.code())
            }
        }
    }
}

/// Report for a run that gave up: why, and the partial iteration
/// trajectory completed before the stop (the interrupted iteration is
/// included last, with the work it performed up to the interrupt).
#[derive(Clone, Debug)]
pub struct InconclusiveReport {
    /// Why the run gave up.
    pub cause: InconclusiveCause,
    /// Per-iteration statistics up to (and including) the aborted one.
    pub iterations: Vec<IterationStat>,
    /// Total wall-clock time until the stop.
    pub total_runtime: Duration,
}

impl Verdict {
    /// `true` for [`Verdict::Secure`].
    pub fn is_secure(&self) -> bool {
        matches!(self, Verdict::Secure(_))
    }

    /// `true` for [`Verdict::Vulnerable`].
    pub fn is_vulnerable(&self) -> bool {
        matches!(self, Verdict::Vulnerable(_))
    }

    /// The iteration statistics of the run (for an inconclusive run, the
    /// partial trajectory up to the stop).
    pub fn iterations(&self) -> &[IterationStat] {
        match self {
            Verdict::Secure(r) => &r.iterations,
            Verdict::Vulnerable(r) => &r.iterations,
            Verdict::Inconclusive(r) => &r.iterations,
        }
    }
}

/// Report for a secure design. It carries its own proof obligation,
/// `final_set`, which [`crate::UpecAnalysis::certify`] checks.
#[derive(Clone, Debug)]
pub struct SecureReport {
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStat>,
    /// The final inductive set `S_final`.
    pub final_set: AtomSet,
    /// `final_set.len()`. Kept only because `perfbench/src/workloads.rs`
    /// reads it; delete with the next benchmark change.
    pub final_set_size: usize,
    /// Sorted names of the atoms of `S_not_victim` outside `final_set`
    /// (influenced but transient).
    pub removed_atoms: Vec<String>,
    /// Total wall-clock time.
    pub total_runtime: Duration,
}

/// Report for a vulnerable design.
#[derive(Clone, Debug)]
pub struct VulnReport {
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStat>,
    /// The exploitable counterexample.
    pub cex: Counterexample,
    /// Total wall-clock time.
    pub total_runtime: Duration,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Secure(r) => write!(
                f,
                "SECURE after {} iteration(s); inductive |S| = {}; {} transient atom(s) excluded; total {:.2?}",
                r.iterations.len(),
                r.final_set.len(),
                r.removed_atoms.len(),
                r.total_runtime
            ),
            Verdict::Vulnerable(r) => write!(
                f,
                "VULNERABLE after {} iteration(s): {} (total {:.2?})",
                r.iterations.len(),
                r.cex.headline(),
                r.total_runtime
            ),
            Verdict::Inconclusive(r) => write!(
                f,
                "INCONCLUSIVE [{}]: {} after {} iteration(s) (total {:.2?})",
                r.cause.code(),
                r.cause,
                r.iterations.len(),
                r.total_runtime
            ),
        }
    }
}
