//! Dynamic taint simulation over an instrumented netlist.
//!
//! Two front-ends share the instrumented design: [`TaintSim`] runs one
//! seeded trial per netlist walk, [`BatchTaintSim<W>`](BatchTaintSim) runs
//! `64·W` — one trial per bit-sliced simulation lane (64 at the default
//! `W = 1`, 256 at `W = 4`) — which is what makes the dynamic-IFT
//! Monte-Carlo baseline (experiment E8) comparable in throughput to the
//! formal procedure it is benchmarked against.

use ssc_netlist::lanes::Block;
use ssc_netlist::{Bv, MemId, Netlist, Wire};
use ssc_sim::{BatchSim, Sim};

use crate::instrument::Instrumented;

/// A simulator wrapper with taint-aware helpers.
///
/// The instrumented netlist preserves all original names, so ordinary
/// stimulus code keeps working; taint is driven via the `t$<input>` inputs
/// and read back via `t$`-prefixed signals or the shadow memories.
pub struct TaintSim<'n> {
    sim: Sim<'n>,
    netlist: &'n Netlist,
}

impl<'n> TaintSim<'n> {
    /// Creates a simulation of the instrumented design.
    ///
    /// # Panics
    ///
    /// Panics if the instrumented netlist fails validation (it cannot, by
    /// construction).
    pub fn new(inst: &'n Instrumented) -> Self {
        let sim = Sim::new(&inst.netlist).expect("instrumented netlist is checked");
        TaintSim { sim, netlist: &inst.netlist }
    }

    /// Access the underlying simulator.
    pub fn sim(&mut self) -> &mut Sim<'n> {
        &mut self.sim
    }

    /// Drives an original input by name.
    pub fn set_input(&mut self, name: &str, value: u64) {
        self.sim.set_input(name, value);
    }

    /// Drives the taint of a source input. Mask bits beyond the port width
    /// are ignored, so `u64::MAX` means "every bit tainted" for any port.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not declared a taint source.
    pub fn set_taint(&mut self, source: &str, mask: u64) {
        let port = format!("t${source}");
        let w = self
            .netlist
            .find(&port)
            .unwrap_or_else(|| panic!("`{source}` is not a taint source"));
        self.sim.set_input(&port, mask & Bv::mask_for(w.width()));
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        self.sim.step();
    }

    /// Advances `n` cycles.
    pub fn step_n(&mut self, n: u64) {
        self.sim.step_n(n);
    }

    /// The taint word of a named signal.
    ///
    /// # Panics
    ///
    /// Panics if the signal has no taint companion (only named signals of
    /// the original design do).
    pub fn taint_of(&mut self, name: &str) -> Bv {
        self.sim.peek_name(&format!("t${name}"))
    }

    /// The value of a named signal.
    pub fn value_of(&mut self, name: &str) -> Bv {
        self.sim.peek_name(name)
    }

    /// `true` if any word of the shadow memory for `mem_name` is tainted.
    ///
    /// # Panics
    ///
    /// Panics if the memory does not exist.
    pub fn mem_tainted(&mut self, mem_name: &str) -> bool {
        let mid: MemId = self
            .netlist
            .find_mem(&format!("t${mem_name}"))
            .unwrap_or_else(|| panic!("no shadow memory for `{mem_name}`"));
        let words = self.netlist.mem(mid).words;
        (0..words).any(|i| !self.sim.read_mem(mid, i).is_zero())
    }

    /// Count of tainted words in the shadow memory for `mem_name`.
    pub fn tainted_words(&mut self, mem_name: &str) -> u32 {
        let mid: MemId = self
            .netlist
            .find_mem(&format!("t${mem_name}"))
            .unwrap_or_else(|| panic!("no shadow memory for `{mem_name}`"));
        let words = self.netlist.mem(mid).words;
        (0..words).filter(|&i| !self.sim.read_mem(mid, i).is_zero()).count() as u32
    }

    /// `true` if the named register's taint companion is non-zero.
    pub fn reg_tainted(&mut self, reg_name: &str) -> bool {
        !self.taint_of(reg_name).is_zero()
    }
}

/// A `64·W`-lane taint simulator: one independent seeded taint trial per
/// bit-sliced lane.
///
/// The API mirrors [`TaintSim`] with per-lane variants; taint sinks are
/// read back as *lane masks* ([`Block<W>`] — lane `l` set = the flow was
/// observed in trial `l`), so one netlist pass answers `64·W` Monte-Carlo
/// trials of the dynamic IFT baseline. Every shadow wire and memory is
/// resolved once, in [`BatchTaintSim::new`].
pub struct BatchTaintSim<'n, const W: usize = 1> {
    sim: BatchSim<'n, W>,
    /// `(source name, taint input)` of every taint source.
    sources: &'n [(String, Wire)],
    /// `(signal name, taint companion)` of every named signal, sorted by
    /// name.
    shadows: Vec<(&'n str, Wire)>,
    /// `(memory name, shadow memory)` of every memory.
    shadow_mems: Vec<(&'n str, MemId)>,
}

impl<'n, const W: usize> BatchTaintSim<'n, W> {
    /// Number of independent taint trials (simulation lanes) per walk.
    pub const LANES: usize = BatchSim::<'n, W>::LANES;

    /// Creates a `64·W`-lane simulation of the instrumented design.
    ///
    /// # Panics
    ///
    /// Panics if the instrumented netlist fails validation (it cannot, by
    /// construction).
    pub fn new(inst: &'n Instrumented) -> Self {
        let netlist = &inst.netlist;
        let sim = BatchSim::new(netlist).expect("instrumented netlist is checked");
        // The name table is sorted, and every shadow name shares the `t$`
        // prefix, so the stripped names stay sorted.
        let shadows = netlist
            .iter_names()
            .filter_map(|(name, id)| Some((name.strip_prefix("t$")?, netlist.wire_of(id))))
            .collect();
        let shadow_mems = netlist
            .iter_mems()
            .filter_map(|(mid, m)| Some((m.name.strip_prefix("t$")?, mid)))
            .collect();
        BatchTaintSim { sim, sources: &inst.taint_inputs, shadows, shadow_mems }
    }

    /// Access the underlying batch simulator.
    pub fn sim(&mut self) -> &mut BatchSim<'n, W> {
        &mut self.sim
    }

    /// Drives an original input by name, broadcast to all lanes.
    pub fn set_input(&mut self, name: &str, value: u64) {
        self.sim.set_input(name, value);
    }

    /// Drives an original input with one value per lane
    /// (`values.len()` must be [`Self::LANES`]).
    pub fn set_input_lanes(&mut self, name: &str, values: &[u64]) {
        self.sim.set_input_lanes(name, values);
    }

    /// The taint input of a source.
    fn taint_port(&self, source: &str) -> Wire {
        self.sources
            .iter()
            .find(|(name, _)| name == source)
            .map(|&(_, w)| w)
            .unwrap_or_else(|| panic!("`{source}` is not a taint source"))
    }

    /// The taint companion of a named signal.
    fn shadow(&self, name: &str) -> Wire {
        self.shadows
            .binary_search_by_key(&name, |&(n, _)| n)
            .map(|i| self.shadows[i].1)
            .unwrap_or_else(|_| panic!("no taint companion for `{name}`"))
    }

    /// Drives the taint of a source input in all lanes. Mask bits beyond
    /// the port width are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not declared a taint source.
    pub fn set_taint(&mut self, source: &str, mask: u64) {
        let w = self.taint_port(source);
        self.sim.set_input_wire(w, Bv::new(w.width(), mask));
    }

    /// Drives the taint of a source input with one mask per lane. Mask
    /// bits beyond the port width are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not declared a taint source.
    pub fn set_taint_lanes(&mut self, source: &str, masks: &[u64]) {
        let w = self.taint_port(source);
        self.sim.set_input_wire_lanes_truncated(w, masks);
    }

    /// Advances one cycle in every lane.
    pub fn step(&mut self) {
        self.sim.step();
    }

    /// Advances `n` cycles.
    pub fn step_n(&mut self, n: u64) {
        self.sim.step_n(n);
    }

    /// The taint word of a named signal in one lane.
    ///
    /// # Panics
    ///
    /// Panics if the signal has no taint companion.
    pub fn taint_of_lane(&mut self, name: &str, lane: usize) -> Bv {
        let w = self.shadow(name);
        self.sim.peek_lane(w, lane)
    }

    /// The lane mask of trials in which **any** word of the shadow memory
    /// for `mem_name` is tainted.
    ///
    /// # Panics
    ///
    /// Panics if the memory does not exist.
    pub fn mem_tainted_lanes(&mut self, mem_name: &str) -> Block<W> {
        let mid = self
            .shadow_mems
            .iter()
            .find(|(name, _)| *name == mem_name)
            .map(|&(_, mid)| mid)
            .unwrap_or_else(|| panic!("no shadow memory for `{mem_name}`"));
        self.sim.mem_nonzero_lanes(mid)
    }

    /// The lane mask of trials in which the named register's taint
    /// companion is non-zero.
    ///
    /// # Panics
    ///
    /// Panics if the register has no taint companion.
    pub fn reg_tainted_lanes(&mut self, reg_name: &str) -> Block<W> {
        let w = self.shadow(reg_name);
        self.sim.nonzero_lanes(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::instrument;
    use ssc_netlist::StateMeta;

    #[test]
    fn taint_sim_tracks_memory_pollution() {
        let mut n = Netlist::new("t");
        let we = n.input("we", 1);
        let addr = n.input("addr", 2);
        let data = n.input("data", 8);
        let mem = n.memory("ram", 4, 8, StateMeta::memory(true));
        n.mem_write(mem, we, addr, data);
        let rd = n.mem_read(mem, addr);
        n.mark_output("rd", rd);
        let inst = instrument(&n, &["data"]);

        let mut ts = TaintSim::new(&inst);
        assert!(!ts.mem_tainted("ram"));
        ts.set_input("we", 1);
        ts.set_input("addr", 3);
        ts.set_input("data", 9);
        ts.set_taint("data", 0xFF);
        ts.step();
        assert!(ts.mem_tainted("ram"));
        assert_eq!(ts.tainted_words("ram"), 1);
        // Overwrite with clean data clears the taint.
        ts.set_taint("data", 0);
        ts.step();
        assert_eq!(ts.tainted_words("ram"), 0);
    }

    #[test]
    fn batch_taint_sim_isolates_lanes() {
        let mut n = Netlist::new("t");
        let we = n.input("we", 1);
        let addr = n.input("addr", 2);
        let data = n.input("data", 8);
        let mem = n.memory("ram", 4, 8, StateMeta::memory(true));
        n.mem_write(mem, we, addr, data);
        let rd = n.mem_read(mem, addr);
        n.mark_output("rd", rd);
        let inst = instrument(&n, &["data"]);

        let mut ts = BatchTaintSim::<1>::new(&inst);
        ts.set_input("we", 1);
        ts.set_input("addr", 3);
        ts.set_input("data", 9);
        // Taint the data source in odd lanes only.
        let mut masks = [0u64; 64];
        for (l, m) in masks.iter_mut().enumerate() {
            *m = if l % 2 == 1 { u64::MAX } else { 0 };
        }
        ts.set_taint_lanes("data", &masks);
        ts.step();
        let tainted = ts.mem_tainted_lanes("ram");
        assert_eq!(
            tainted,
            Block::from(0xAAAA_AAAA_AAAA_AAAA),
            "odd lanes only: {tainted:?}"
        );
        // Scalar cross-check on two representative lanes.
        let mut scalar = TaintSim::new(&inst);
        scalar.set_input("we", 1);
        scalar.set_input("addr", 3);
        scalar.set_input("data", 9);
        scalar.set_taint("data", u64::MAX);
        scalar.step();
        assert!(scalar.mem_tainted("ram"));
    }

    #[test]
    fn wide_batch_taint_sim_isolates_256_lanes() {
        const LANES: usize = BatchTaintSim::<4>::LANES;
        let mut n = Netlist::new("t");
        let we = n.input("we", 1);
        let addr = n.input("addr", 2);
        let data = n.input("data", 8);
        let mem = n.memory("ram", 4, 8, StateMeta::memory(true));
        n.mem_write(mem, we, addr, data);
        let rd = n.mem_read(mem, addr);
        n.mark_output("rd", rd);
        let inst = instrument(&n, &["data"]);

        let mut ts = BatchTaintSim::<4>::new(&inst);
        ts.set_input("we", 1);
        ts.set_input("addr", 3);
        ts.set_input("data", 9);
        // Taint every third lane — the pattern straddles all block words.
        let masks: Vec<u64> =
            (0..LANES).map(|l| if l % 3 == 0 { u64::MAX } else { 0 }).collect();
        ts.set_taint_lanes("data", &masks);
        ts.step();
        let tainted = ts.mem_tainted_lanes("ram");
        let reg_clean = ts.reg_tainted_lanes("rd");
        for l in 0..LANES {
            assert_eq!(tainted.bit(l), l % 3 == 0, "lane {l}");
        }
        // rd reads the tainted word combinationally in the same lanes.
        for l in 0..LANES {
            assert_eq!(reg_clean.bit(l), l % 3 == 0, "rd taint lane {l}");
        }
    }
}
