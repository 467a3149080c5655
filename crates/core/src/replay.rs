//! Counterexample replay: cross-validating formal counterexamples on the
//! concrete simulator.
//!
//! A UPEC-SSC counterexample consists of a (previously symbolic) starting
//! state for both product instances plus per-cycle victim-port inputs and
//! the values of every other primary input. This module pokes that state
//! into two [`ssc_sim::Sim`] instances of the *single* design, drives the
//! recorded port activity and inputs, steps the recorded
//! number of cycles, and confirms that the reported state divergences
//! appear concretely — closing the loop between the SAT-level model and
//! the RTL simulation semantics.
//!
//! [`replay_neighborhood`] extends the exact replay into a **sensitivity
//! analysis**: one [`ssc_sim::BatchSim`] pass replays the counterexample in
//! lane 0 and 63 deterministically perturbed variants (one write-data bit
//! flipped per lane, identically in both instances) in the other lanes, and
//! reports which perturbations still diverge — a cheap per-leak robustness
//! summary for the counterexample report.

use ssc_netlist::Bv;
use ssc_sim::{BatchSim, Sim};

use crate::atoms::StateAtom;
use crate::engine::UpecAnalysis;
use crate::report::{Counterexample, PortActivity};

/// Replays `cex` on two concrete simulations of the design under
/// verification.
///
/// Returns the names of the diff atoms that were confirmed to diverge with
/// exactly the recorded values.
///
/// # Errors
///
/// Returns a message naming the first diff whose concrete values disagree
/// with the counterexample (which would indicate an unsound encoding).
pub fn replay_on_simulator(
    an: &UpecAnalysis,
    cex: &Counterexample,
) -> Result<Vec<String>, String> {
    let src = an.src();
    let mut sim_a = Sim::new(src).map_err(|e| format!("sim A: {e}"))?;
    let mut sim_b = Sim::new(src).map_err(|e| format!("sim B: {e}"))?;

    // Install the recovered symbolic starting state.
    for (atom, _name, va, vb) in &cex.initial_state {
        match *atom {
            StateAtom::Reg(id) => {
                let w = src.wire_of(id);
                sim_a.set_reg(w, Bv::new(w.width(), *va));
                sim_b.set_reg(w, Bv::new(w.width(), *vb));
            }
            StateAtom::MemWord(mem, i) => {
                let width = src.mem(mem).width;
                sim_a.set_mem_word(mem, i, Bv::new(width, *va));
                sim_b.set_mem_word(mem, i, Bv::new(width, *vb));
            }
        }
    }

    // Drive the recorded victim-port activity cycle by cycle.
    let port = &an.spec().port;
    let drive = |sim: &mut Sim, act: &PortActivity| {
        sim.set_input(&port.req, u64::from(act.req));
        sim.set_input(&port.addr, act.addr);
        sim.set_input(&port.we, u64::from(act.we));
        sim.set_input(&port.wdata, act.wdata);
    };
    for c in &cex.trace {
        if c.cycle >= cex.at_cycle {
            break;
        }
        drive(&mut sim_a, &c.port_a);
        drive(&mut sim_b, &c.port_b);
        for (name, value) in &c.inputs {
            sim_a.set_input(name, *value);
            sim_b.set_input(name, *value);
        }
        sim_a.step();
        sim_b.step();
    }

    // Confirm every reported divergence.
    let mut confirmed = Vec::new();
    for d in &cex.diffs {
        let (va, vb) = match d.atom {
            StateAtom::Reg(id) => {
                let w = src.wire_of(id);
                (sim_a.peek(w).val(), sim_b.peek(w).val())
            }
            StateAtom::MemWord(mem, i) => (sim_a.read_mem(mem, i).val(), sim_b.read_mem(mem, i).val()),
        };
        if va != d.value_a || vb != d.value_b {
            return Err(format!(
                "diff `{}` does not replay: simulator has {:#x}/{:#x}, counterexample says {:#x}/{:#x}",
                d.name, va, vb, d.value_a, d.value_b
            ));
        }
        confirmed.push(d.name.clone());
    }
    Ok(confirmed)
}

/// One perturbed stimulus bit of a neighbourhood lane: a single bit of
/// the victim-port drive flipped in one driven cycle, identically in both
/// product instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Perturbation {
    /// Flip bit `bit` of the write data in driven cycle `cycle`.
    Wdata {
        /// Driven cycle index (0-based, before the divergence cycle).
        cycle: usize,
        /// Flipped wdata bit.
        bit: u32,
    },
    /// Flip bit `bit` of the address in driven cycle `cycle`.
    Addr {
        /// Driven cycle index (0-based, before the divergence cycle).
        cycle: usize,
        /// Flipped address bit.
        bit: u32,
    },
}

/// The sensitivity summary of one counterexample neighbourhood (see
/// [`replay_neighborhood`]).
#[derive(Clone, Debug)]
pub struct NeighborhoodReport {
    /// Lanes driven per simulator pass (lane 0 is the exact replay;
    /// `perturbations.len() + 1` — smaller than the full 64 when the
    /// counterexample's stimulus space has fewer distinct single-bit
    /// variants).
    pub lanes: usize,
    /// Bit `l` set = lane `l` still diverges on at least one recorded diff
    /// atom. Bit 0 (the exact counterexample) is always set — an exact
    /// replay that fails is an error, not a report.
    pub diverging: u64,
    /// The perturbation applied in each lane `>= 1` (every entry is a
    /// distinct, in-range stimulus bit — no lane duplicates the exact
    /// replay).
    pub perturbations: Vec<Perturbation>,
}

impl NeighborhoodReport {
    /// How many perturbed lanes still diverge.
    pub fn surviving(&self) -> u32 {
        (self.diverging >> 1).count_ones()
    }

    /// Fraction of perturbations that *kill* the divergence — 0.0 means
    /// the leak is insensitive to the perturbed bits (robust), 1.0 means
    /// every single-bit change destroys it (fragile).
    pub fn sensitivity(&self) -> f64 {
        let n = self.perturbations.len();
        if n == 0 {
            return 0.0;
        }
        1.0 - f64::from(self.surviving()) / n as f64
    }
}

impl std::fmt::Display for NeighborhoodReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cex neighbourhood: {}/{} single-bit stimulus perturbations keep the divergence \
             (sensitivity {:.2})",
            self.surviving(),
            self.perturbations.len(),
            self.sensitivity()
        )
    }
}

/// Replays `cex` plus up to 63 perturbed stimuli in a single [`BatchSim`]
/// pass per product instance and reports which perturbations still
/// diverge.
///
/// Lane 0 drives the exact recorded counterexample (and must reproduce the
/// recorded diff values, like [`replay_on_simulator`]). Every lane
/// `l >= 1` applies one **distinct** [`Perturbation`] — a single bit of
/// the victim-port write data (first) or address (once the wdata bits are
/// exhausted) at one driven cycle, enumerated cycle-major — flipped in
/// **both** instances, so the surviving lanes measure how robust the leak
/// is against the victim driving different data/addresses. Counterexamples
/// whose stimulus space has fewer than 63 distinct single-bit variants use
/// correspondingly fewer lanes; no lane ever duplicates the exact replay,
/// so the sensitivity metric is never diluted by no-op perturbations.
///
/// # Errors
///
/// Returns a message if the design fails simulator construction, the
/// counterexample drives zero cycles, or the exact lane does not reproduce
/// the recorded divergence (which would indicate an unsound encoding).
pub fn replay_neighborhood(
    an: &UpecAnalysis,
    cex: &Counterexample,
) -> Result<NeighborhoodReport, String> {
    const LANES: usize = BatchSim::<1>::LANES;

    let src = an.src();
    let mut sim_a = BatchSim::new(src).map_err(|e| format!("sim A: {e}"))?;
    let mut sim_b = BatchSim::new(src).map_err(|e| format!("sim B: {e}"))?;

    let driven: Vec<&super::report::CexCycle> =
        cex.trace.iter().filter(|c| c.cycle < cex.at_cycle).collect();
    if driven.is_empty() {
        return Err("counterexample drives zero cycles — nothing to perturb".into());
    }

    // Identical starting state in every lane (the perturbation is in the
    // stimuli, not the state).
    for (atom, _name, va, vb) in &cex.initial_state {
        match *atom {
            StateAtom::Reg(id) => {
                let w = src.wire_of(id);
                sim_a.set_reg(w, Bv::new(w.width(), *va));
                sim_b.set_reg(w, Bv::new(w.width(), *vb));
            }
            StateAtom::MemWord(mem, i) => {
                let width = src.mem(mem).width;
                sim_a.set_mem_word(mem, i, Bv::new(width, *va));
                sim_b.set_mem_word(mem, i, Bv::new(width, *vb));
            }
        }
    }

    let port = &an.spec().port;
    let signal_width = |name: &str| {
        src.find(name)
            .map(|w| w.width())
            .ok_or_else(|| format!("port signal `{name}` not found"))
    };
    let wdata_width = signal_width(&port.wdata)?;
    let addr_width = signal_width(&port.addr)?;

    // Enumerate distinct in-range perturbations cycle-major (small
    // neighbourhoods cover every cycle first), wdata bits before addr
    // bits, capped at the available lanes.
    let space = driven.len() * (wdata_width + addr_width) as usize;
    let perturbations: Vec<Perturbation> = (0..space.min(LANES - 1))
        .map(|k| {
            let cycle = k % driven.len();
            let bit = (k / driven.len()) as u32;
            if bit < wdata_width {
                Perturbation::Wdata { cycle, bit }
            } else {
                Perturbation::Addr { cycle, bit: bit - wdata_width }
            }
        })
        .collect();
    let lanes = perturbations.len() + 1;

    for (ci, c) in driven.iter().enumerate() {
        let drive = |sim: &mut BatchSim, act: &PortActivity| {
            sim.set_input(&port.req, u64::from(act.req));
            sim.set_input(&port.we, u64::from(act.we));
            let mut wdata = [act.wdata; LANES];
            let mut addr = [act.addr; LANES];
            for (l, p) in perturbations.iter().enumerate() {
                match *p {
                    Perturbation::Wdata { cycle, bit } if cycle == ci => {
                        wdata[l + 1] ^= 1 << bit;
                    }
                    Perturbation::Addr { cycle, bit } if cycle == ci => {
                        addr[l + 1] ^= 1 << bit;
                    }
                    _ => {}
                }
            }
            sim.set_input_lanes(&port.wdata, &wdata);
            sim.set_input_lanes(&port.addr, &addr);
        };
        drive(&mut sim_a, &c.port_a);
        drive(&mut sim_b, &c.port_b);
        for (name, value) in &c.inputs {
            sim_a.set_input(name, *value);
            sim_b.set_input(name, *value);
        }
        sim_a.step();
        sim_b.step();
    }

    // A lane diverges if any recorded diff atom differs between the
    // instances in that lane.
    let mut diverging = 0u64;
    for d in &cex.diffs {
        for lane in 0..lanes {
            let (va, vb) = match d.atom {
                StateAtom::Reg(id) => {
                    let w = src.wire_of(id);
                    (sim_a.peek_lane(w, lane).val(), sim_b.peek_lane(w, lane).val())
                }
                StateAtom::MemWord(mem, i) => (
                    sim_a.read_mem_lane(mem, i, lane).val(),
                    sim_b.read_mem_lane(mem, i, lane).val(),
                ),
            };
            if lane == 0 && (va != d.value_a || vb != d.value_b) {
                return Err(format!(
                    "diff `{}` does not replay in the exact lane: simulator has \
                     {:#x}/{:#x}, counterexample says {:#x}/{:#x}",
                    d.name, va, vb, d.value_a, d.value_b
                ));
            }
            if va != vb {
                diverging |= 1 << lane;
            }
        }
    }
    debug_assert!(diverging & 1 == 1, "exact lane reproduced its diffs above");
    Ok(NeighborhoodReport { lanes, diverging, perturbations })
}
