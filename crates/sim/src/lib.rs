//! # ssc-sim — cycle-accurate netlist simulator
//!
//! A two-phase (evaluate/commit) interpreter for [`ssc_netlist::Netlist`]
//! designs:
//!
//! 1. **Evaluate**: combinational nodes are computed in topological order
//!    from the current register/memory/input state.
//! 2. **Commit** (on [`Sim::step`]): every register latches its next-state
//!    value and every memory applies its write ports in declaration order.
//!
//! The simulator supports state *poking* ([`Sim::set_reg`],
//! [`Sim::set_mem_word`]) so that formal counterexamples — which start from
//! a symbolic state — can be replayed concretely, and signal *probing* with
//! a trace recorder and VCD export.
//!
//! # Architecture: a scalar reference and a compiled lane simulator
//!
//! Two simulators share the netlist semantics:
//!
//! - [`Sim`] interprets the netlist node by node over one [`Bv`] per
//!   signal — one stimulus per walk. Its operator semantics are the
//!   reference every lane test compares against.
//! - [`BatchSim<W>`](BatchSim) runs `64·W` *independent* stimuli per walk.
//!   A `w`-bit signal becomes `w`
//!   [`ssc_netlist::lanes::Block<W>`](ssc_netlist::lanes::Block)s (each
//!   `W` `u64` words) where block `i` carries bit `i` of every lane (the
//!   [`ssc_netlist::lanes`] layout). `W = 1` is the 64-lane engine; `W = 4`
//!   ([`batch::WIDE_WORDS`]) is the 256-lane wide engine whose word-wise
//!   kernels autovectorize to SIMD registers. [`BatchSim::new`] compiles the
//!   netlist once into a tape of steps over one flat block arena, and
//!   memories are bit-sliced as well (see [`batch`]).
//!
//! ## The width-generic block design
//!
//! Three layers make a lane width:
//!
//! 1. **Block layout** (`ssc_netlist::lanes`): a
//!    [`Block<W>`](ssc_netlist::lanes::Block) is `[u64; W]` — lane `l`
//!    lives in word `l / 64`, bit `l % 64`, so `Block<1>` is
//!    layout-identical to a plain `u64` word. All kernels (ripple-carry
//!    add/sub/mul, borrow-chain compares, mask-blend mux, per-lane dynamic
//!    shifts, address-grouped memory access) are written against the
//!    block's word-wise bit operators, never against `u64` directly.
//! 2. **Transpose boundary** (`pack_block`/`unpack_block`): converting
//!    per-lane scalars to the bit-sliced layout decomposes into `W`
//!    independent 64×64 transposes (lane group `k` lands in word `k` of
//!    every block). Only stimulus injection and observation cross this
//!    boundary; the evaluation loop and the memories never do.
//! 3. **Width-parameterized front-ends**: `BatchSim<W>`, `BatchTrace<W>`,
//!    and (downstream) `BatchSocSim<W>`/`BatchTaintSim<W>` and the batch
//!    attack/IFT entry points are `const W: usize` generic with `W = 1`
//!    defaults; lane-block sharding and the runtime width default live in
//!    `ssc_pool` (`LaneWidth`), which is the single place the width is
//!    selected and partitioned.
//!
//! **Adding a width** (say AVX-512's `W = 8`): no kernel changes — add the
//! new `W` arm to `ssc_pool::LaneWidth` (words/lanes/env parsing) and the
//! monomorphization `match`es that dispatch on it (`ssc-attacks::leak`,
//! `ssc-bench::count_batch_hits`), and extend the equivalence suites'
//! width lists. Everything else is already generic.
//!
//! **When to use which:** `Sim` for single runs, counterexample replay and
//! interactive debugging; `BatchSim` whenever ≥ a handful of *independent*
//! trials of the same design are needed (channel sweeps, Monte-Carlo taint
//! trials) — a batch walk costs a few scalar walks but carries `64·W`
//! lanes, an order-of-magnitude throughput win. Every lane is
//! bit-identical to a scalar run fed the same stimulus, at every width;
//! the property tests in `ssc-aig/tests/proptest_equivalence.rs`, the lane
//! memory test in `ssc-sim/tests/lane_memory.rs` and the attack-scenario
//! cross-checks in `ssc-attacks` enforce this for both `W = 1` and `W = 4`.
//!
//! # Example
//!
//! ```
//! use ssc_netlist::{Netlist, Bv, StateMeta};
//! use ssc_sim::Sim;
//!
//! let mut n = Netlist::new("counter");
//! let en = n.input("en", 1);
//! let count = n.reg("count", 8, Some(Bv::zero(8)), StateMeta::default());
//! let one = n.lit(8, 1);
//! let inc = n.add(count.wire(), one);
//! let next = n.mux(en, inc, count.wire());
//! n.connect_reg(count, next);
//! n.mark_output("count", count.wire());
//!
//! let mut sim = Sim::new(&n).unwrap();
//! sim.set_input("en", 1);
//! sim.step_n(5);
//! assert_eq!(sim.peek_name("count").val(), 5);
//! ```

#![warn(missing_docs)]

pub mod batch;
mod engine;
mod trace;

pub use batch::{BatchSim, WIDE_WORDS};
pub use trace::{BatchTrace, Trace};

/// The 256-lane wide batch simulator (`u64x4` blocks — autovectorizes to
/// AVX2/SVE on capable targets).
pub type WideBatchSim<'n> = BatchSim<'n, WIDE_WORDS>;

use ssc_netlist::{Bv, MemId, Netlist, NetlistError, Node, Wire};

use engine::Engine;

/// A cycle-accurate simulator bound to a netlist.
///
/// See the [crate documentation](self) for an example.
#[derive(Clone)]
pub struct Sim<'n> {
    engine: Engine<'n>,
    trace: Trace,
}

impl<'n> std::fmt::Debug for Sim<'n> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("design", &self.engine.netlist().name())
            .field("cycle", &self.engine.cycle())
            .finish()
    }
}

impl<'n> Sim<'n> {
    /// Creates a simulator for `netlist` and applies [`Sim::reset`].
    ///
    /// # Errors
    ///
    /// Returns the netlist's structural error if it fails [`Netlist::check`].
    pub fn new(netlist: &'n Netlist) -> Result<Self, NetlistError> {
        Ok(Sim { engine: Engine::new(netlist)?, trace: Trace::new() })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'n Netlist {
        self.engine.netlist()
    }

    /// The current cycle count (number of [`Sim::step`]s since reset).
    pub fn cycle(&self) -> u64 {
        self.engine.cycle()
    }

    /// Resets all registers and memories to their declared initial values
    /// (zero when unspecified), clears inputs to zero and restarts the cycle
    /// counter. The trace contents are cleared (probes stay registered).
    pub fn reset(&mut self) {
        self.engine.reset();
        self.trace.clear();
    }

    /// Drives a primary input by name.
    ///
    /// # Panics
    ///
    /// Panics if no input with that name exists, or if `value` does not fit
    /// the port width (the panic message names the signal — a wider value
    /// is a stimulus bug, not something to truncate silently).
    pub fn set_input(&mut self, name: &str, value: u64) {
        let w = self
            .engine
            .netlist()
            .find(name)
            .unwrap_or_else(|| panic!("no signal named `{name}`"));
        assert!(
            value & !Bv::mask_for(w.width()) == 0,
            "value {value:#x} does not fit the {}-bit width of input `{name}`",
            w.width()
        );
        self.set_input_wire(w, Bv::new(w.width(), value));
    }

    /// Drives a primary input by wire handle.
    ///
    /// # Panics
    ///
    /// Panics if the wire is not an input or widths mismatch.
    pub fn set_input_wire(&mut self, wire: Wire, value: Bv) {
        assert!(
            matches!(self.engine.netlist().node(wire.id()), Node::Input { .. }),
            "set_input on non-input signal"
        );
        assert_eq!(wire.width(), value.width(), "input width mismatch");
        self.engine.set_value(wire.id(), value);
    }

    /// Overwrites a register's current state (state poking for
    /// counterexample replay).
    ///
    /// # Panics
    ///
    /// Panics if the wire is not a register output.
    pub fn set_reg(&mut self, wire: Wire, value: Bv) {
        assert!(
            matches!(self.engine.netlist().node(wire.id()), Node::Reg(_)),
            "set_reg on non-register signal"
        );
        assert_eq!(wire.width(), value.width(), "register width mismatch");
        self.engine.set_value(wire.id(), value);
    }

    /// Overwrites one memory word.
    ///
    /// # Panics
    ///
    /// Panics if the word index is out of range or widths mismatch.
    pub fn set_mem_word(&mut self, mem: MemId, index: u32, value: Bv) {
        let m = self.engine.netlist().mem(mem);
        assert!(index < m.words, "word index {index} out of range for `{}`", m.name);
        assert_eq!(value.width(), m.width, "memory word width mismatch");
        self.engine.mem_mut(mem)[index as usize] = value;
    }

    /// Reads one memory word.
    ///
    /// # Panics
    ///
    /// Panics if the word index is out of range.
    pub fn read_mem(&self, mem: MemId, index: u32) -> Bv {
        let m = self.engine.netlist().mem(mem);
        assert!(index < m.words, "word index {index} out of range for `{}`", m.name);
        self.engine.mem(mem)[index as usize]
    }

    /// The current value of a signal (evaluating combinational logic first
    /// if inputs changed since the last evaluation).
    pub fn peek(&mut self, wire: Wire) -> Bv {
        self.engine.eval();
        self.engine.value(wire.id())
    }

    /// [`Sim::peek`] by hierarchical name.
    ///
    /// # Panics
    ///
    /// Panics if no signal with that name exists.
    pub fn peek_name(&mut self, name: &str) -> Bv {
        let w = self
            .engine
            .netlist()
            .find(name)
            .unwrap_or_else(|| panic!("no signal named `{name}`"));
        self.peek(w)
    }

    /// Recomputes combinational values if inputs or state changed.
    pub fn eval(&mut self) {
        self.engine.eval();
    }

    /// Advances the design by one clock edge: evaluates, records probes,
    /// latches registers and applies memory write ports (in declaration
    /// order — later ports override earlier ones within a cycle).
    pub fn step(&mut self) {
        self.engine.eval();
        self.record_probes();
        self.engine.commit();
    }

    /// Runs `n` clock cycles.
    pub fn step_n(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Steps until `signal` becomes 1, up to `max_cycles` steps. Returns the
    /// number of steps taken before the signal was observed high, or `None`
    /// if the signal never rose within the bound.
    pub fn step_until(&mut self, signal: Wire, max_cycles: u64) -> Option<u64> {
        for i in 0..=max_cycles {
            if self.peek(signal).is_true() {
                return Some(i);
            }
            if i < max_cycles {
                self.step();
            }
        }
        None
    }

    /// Registers a named signal to be recorded on every subsequent step.
    ///
    /// # Panics
    ///
    /// Panics if no signal with that name exists.
    pub fn watch(&mut self, name: &str) {
        let w = self
            .engine
            .netlist()
            .find(name)
            .unwrap_or_else(|| panic!("no signal named `{name}`"));
        self.trace.add_probe(name, w);
    }

    fn record_probes(&mut self) {
        if self.trace.is_empty() {
            return;
        }
        let cycle = self.engine.cycle();
        let probes: Vec<Wire> = self.trace.probe_wires().collect();
        let vals: Vec<Bv> = probes.iter().map(|w| self.engine.value(w.id())).collect();
        self.trace.record(cycle, &vals);
    }

    /// The recorded trace of watched signals.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssc_netlist::StateMeta;

    fn counter() -> Netlist {
        let mut n = Netlist::new("counter");
        let en = n.input("en", 1);
        let count = n.reg("count", 8, Some(Bv::zero(8)), StateMeta::default());
        let one = n.lit(8, 1);
        let inc = n.add(count.wire(), one);
        let next = n.mux(en, inc, count.wire());
        n.connect_reg(count, next);
        n.mark_output("count", count.wire());
        n
    }

    #[test]
    fn counter_counts_when_enabled() {
        let n = counter();
        let mut sim = Sim::new(&n).unwrap();
        sim.step_n(3);
        assert_eq!(sim.peek_name("count").val(), 0, "disabled counter must hold");
        sim.set_input("en", 1);
        sim.step_n(5);
        assert_eq!(sim.peek_name("count").val(), 5);
        sim.set_input("en", 0);
        sim.step_n(5);
        assert_eq!(sim.peek_name("count").val(), 5);
    }

    #[test]
    fn counter_wraps() {
        let n = counter();
        let mut sim = Sim::new(&n).unwrap();
        sim.set_input("en", 1);
        sim.step_n(256);
        assert_eq!(sim.peek_name("count").val(), 0);
    }

    #[test]
    fn reset_restores_init() {
        let n = counter();
        let mut sim = Sim::new(&n).unwrap();
        sim.set_input("en", 1);
        sim.step_n(7);
        sim.reset();
        assert_eq!(sim.peek_name("count").val(), 0);
        assert_eq!(sim.cycle(), 0);
    }

    #[test]
    fn memory_write_then_read() {
        let mut n = Netlist::new("mem");
        let en = n.input("we", 1);
        let addr = n.input("addr", 4);
        let data = n.input("data", 32);
        let mem = n.memory("ram", 16, 32, StateMeta::memory(true));
        n.mem_write(mem, en, addr, data);
        let rd = n.mem_read(mem, addr);
        n.mark_output("rd", rd);

        let mut sim = Sim::new(&n).unwrap();
        sim.set_input("we", 1);
        sim.set_input("addr", 5);
        sim.set_input("data", 0xDEAD);
        assert_eq!(sim.peek(rd).val(), 0, "read-before-write sees old value");
        sim.step();
        sim.set_input("we", 0);
        assert_eq!(sim.peek(rd).val(), 0xDEAD);
        assert_eq!(sim.read_mem(mem, 5).val(), 0xDEAD);
    }

    #[test]
    fn later_write_port_wins() {
        let mut n = Netlist::new("mem2");
        let addr = n.input("addr", 2);
        let one = n.lit(1, 1);
        let d1 = n.lit(8, 0x11);
        let d2 = n.lit(8, 0x22);
        let mem = n.memory("ram", 4, 8, StateMeta::memory(false));
        n.mem_write(mem, one, addr, d1);
        n.mem_write(mem, one, addr, d2);
        let rd = n.mem_read(mem, addr);
        n.mark_output("rd", rd);
        let mut sim = Sim::new(&n).unwrap();
        sim.step();
        assert_eq!(sim.read_mem(mem, 0).val(), 0x22);
    }

    #[test]
    fn out_of_range_read_is_zero_and_write_ignored() {
        let mut n = Netlist::new("mem3");
        let addr = n.input("addr", 4); // address space larger than memory
        let one = n.lit(1, 1);
        let d = n.lit(8, 0xAB);
        let mem = n.memory("ram", 4, 8, StateMeta::memory(false));
        n.mem_write(mem, one, addr, d);
        let rd = n.mem_read(mem, addr);
        n.mark_output("rd", rd);
        let mut sim = Sim::new(&n).unwrap();
        sim.set_input("addr", 9);
        assert_eq!(sim.peek(rd).val(), 0);
        sim.step(); // write to 9 silently dropped
        sim.set_input("addr", 1);
        assert_eq!(sim.peek(rd).val(), 0);
    }

    #[test]
    fn poking_state_changes_behavior() {
        let n = counter();
        let mut sim = Sim::new(&n).unwrap();
        let count = n.find("count").unwrap();
        sim.set_reg(count, Bv::new(8, 100));
        sim.set_input("en", 1);
        sim.step();
        assert_eq!(sim.peek_name("count").val(), 101);
    }

    #[test]
    fn step_until_detects_rise() {
        let mut n = counter();
        let count = n.find("count").unwrap();
        let done = n.eq_const(count, 4);
        n.set_name(done, "done");
        let mut sim = Sim::new(&n).unwrap();
        sim.set_input("en", 1);
        assert_eq!(sim.step_until(done, 100), Some(4));
        sim.reset();
        assert_eq!(sim.step_until(done, 2), None);
    }

    #[test]
    fn memory_init_applied_on_reset() {
        let mut n = Netlist::new("mi");
        let addr = n.input("addr", 2);
        let mem = n.memory("rom", 4, 8, StateMeta::memory(false));
        n.set_mem_init(mem, vec![Bv::new(8, 10), Bv::new(8, 20), Bv::new(8, 30), Bv::new(8, 40)]);
        let rd = n.mem_read(mem, addr);
        n.mark_output("rd", rd);
        let mut sim = Sim::new(&n).unwrap();
        sim.set_input("addr", 2);
        assert_eq!(sim.peek(rd).val(), 30);
    }

    #[test]
    fn trace_records_watched_signals() {
        let n = counter();
        let mut sim = Sim::new(&n).unwrap();
        sim.watch("count");
        sim.set_input("en", 1);
        sim.step_n(3);
        let series = sim.trace().series("count").unwrap();
        assert_eq!(
            series.iter().map(|(_, v)| v.val()).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn vcd_export_contains_probes() {
        let n = counter();
        let mut sim = Sim::new(&n).unwrap();
        sim.watch("count");
        sim.set_input("en", 1);
        sim.step_n(2);
        let mut out = Vec::new();
        sim.trace().write_vcd(&mut out, "counter").unwrap();
        let vcd = String::from_utf8(out).unwrap();
        assert!(vcd.contains("$var wire 8"));
        assert!(vcd.contains("count"));
        assert!(vcd.contains("#0"));
    }
}
