//! The compiled bit-sliced lane simulator.
//!
//! [`BatchSim<W>`] evaluates `64·W` independent stimuli per netlist walk. A
//! `w`-bit signal is stored as `w` [`Block<W>`]s where block `i` holds bit
//! `i` of every lane (the layout of [`ssc_netlist::lanes`]); bitwise
//! operators then act on all lanes at once, arithmetic ripples carries
//! across the `w` blocks, and per-lane control flow (muxes, dynamic shifts,
//! memory addressing) is resolved with lane masks instead of branches. The
//! kernels are written word-wise over `[u64; W]`, so `W = 1` is the classic
//! 64-lane `u64` engine and `W = 4` a 256-lane engine whose inner loops
//! autovectorize to SIMD registers.
//!
//! [`BatchSim::new`] compiles the netlist once:
//!
//! - every signal owns `width` blocks at a fixed offset of one flat
//!   *arena*, laid out in topological order, so each result sits above
//!   all of its arguments. A bit slice owns no blocks of its own: its
//!   offset points into its operand's blocks;
//! - every other combinational node becomes one *tape* step: an operator
//!   (or memory read) with its width, its result offset and its argument
//!   offsets. Evaluation runs the tape top to bottom and touches nothing
//!   but the arena and the memories;
//! - memories are bit-sliced too: word `a` of a `w`-bit memory is `w`
//!   blocks, bit `i` of every lane in block `a·w + i`. A read or write
//!   groups the lanes by address. When every lane holds the same address
//!   (the common case in a channel sweep) that is one group, so the access
//!   is a copy or a masked select of `w` blocks; otherwise each distinct
//!   address costs one lane-mask compare and one masked select.
//!
//! Stepping allocates nothing once the simulator is built. Every lane is
//! bit-identical to a scalar [`crate::Sim`] run fed the same stimulus, for
//! every `W`: the lanes share no state, and the test suites compare lanes
//! against the scalar reference (and `W = 4` against `W = 1`).

use ssc_netlist::lanes::{self, Block};
use ssc_netlist::{analysis, Bv, MemId, Netlist, NetlistError, Node, Op, SignalId, Wire};

use crate::trace::BatchTrace;

/// Block width (in `u64` words) of the wide 256-lane instantiation.
pub const WIDE_WORDS: usize = 4;

/// What one tape step computes.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    /// A word-level operator. Never [`Op::Slice`]: a slice is a view.
    Op(Op),
    /// A combinational read of memory `mems[i]`.
    MemRead(usize),
}

/// One pre-decoded tape step: a kernel over fixed arena offsets.
#[derive(Clone, Copy, Debug)]
struct Step {
    kernel: Kernel,
    /// Result width in bits, which is its number of blocks.
    width: u32,
    /// Arena offset of the result. Every argument lies below it.
    out: u32,
    /// Arena offsets of the arguments (unused slots are 0).
    args: [u32; 3],
    /// Width of the argument whose width may differ from the result's: the
    /// operand of a compare, reduction or extension, the low half of a
    /// concatenation, the amount of a dynamic shift, the address of a
    /// memory read.
    arg_width: u32,
}

/// A bit-sliced memory: bit `i` of word `a` is block `base + a·width + i`
/// of the memory store.
#[derive(Clone, Copy, Debug)]
struct MemSlot {
    base: usize,
    words: u32,
    width: u32,
}

impl MemSlot {
    /// The store blocks of every word.
    fn blocks(&self) -> std::ops::Range<usize> {
        self.base..self.base + self.words as usize * self.width as usize
    }

    /// The store blocks of word `addr`, or `None` out of range.
    fn word(&self, addr: u64) -> Option<std::ops::Range<usize>> {
        (addr < u64::from(self.words)).then(|| {
            let start = self.base + addr as usize * self.width as usize;
            start..start + self.width as usize
        })
    }
}

/// A memory write port over arena offsets.
#[derive(Clone, Copy, Debug)]
struct PortSlot {
    mem: usize,
    en: u32,
    addr: u32,
    addr_width: u32,
    data: u32,
}

/// A register: its own arena offset, its next-state offset and its width.
#[derive(Clone, Copy, Debug)]
struct RegSlot {
    cur: u32,
    next: u32,
    width: u32,
}

/// A cycle-accurate simulator evaluating `64·W` independent stimuli per
/// pass (`W = 1`, the default, is the 64-lane engine; `W = 4` the 256-lane
/// wide engine — see [`WIDE_WORDS`]).
///
/// `BatchSim` mirrors [`crate::Sim`]'s API with per-lane variants: inputs,
/// registers and memory words can be driven per lane
/// ([`BatchSim::set_input_lanes`], [`BatchSim::set_mem_word_lane`], …) or
/// broadcast to all lanes at once ([`BatchSim::set_input`], …), and signals
/// are observed per lane ([`BatchSim::peek_lanes`]). Every lane is
/// bit-identical to a scalar `Sim` run fed the same stimulus, for every
/// block width.
///
/// Use `BatchSim` when many *independent* trials of the same design are
/// needed (channel sweeps, Monte-Carlo taint trials); use `Sim` for single
/// runs and interactive debugging — a batch walk costs a few times a scalar
/// walk, so it only pays off when several lanes carry distinct stimuli.
#[derive(Clone)]
pub struct BatchSim<'n, const W: usize = 1> {
    netlist: &'n Netlist,
    /// Arena offset of every signal's first block, by signal index.
    offsets: Vec<u32>,
    /// The combinational nodes' steps, in topological order.
    tape: Vec<Step>,
    /// Every signal's value: `width` blocks at its offset.
    arena: Vec<Block<W>>,
    regs: Vec<RegSlot>,
    /// Every register's next value, back to back: latched before any
    /// register changes, since a next-state cone may read other registers.
    latch: Vec<Block<W>>,
    mems: Vec<MemSlot>,
    /// Every memory's blocks.
    store: Vec<Block<W>>,
    /// Write ports in declaration order, which makes the later port win.
    ports: Vec<PortSlot>,
    cycle: u64,
    /// Whether an input, register or memory changed since the last walk.
    dirty: bool,
    trace: BatchTrace<W>,
}

impl<'n, const W: usize> std::fmt::Debug for BatchSim<'n, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSim")
            .field("design", &self.netlist.name())
            .field("lanes", &Self::LANES)
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl<'n, const W: usize> BatchSim<'n, W> {
    /// Number of lanes evaluated per pass.
    pub const LANES: usize = lanes::block_lanes::<W>();

    /// Compiles `netlist` into a batch simulator and resets it.
    ///
    /// # Errors
    ///
    /// Returns the netlist's structural error if it fails [`Netlist::check`].
    pub fn new(netlist: &'n Netlist) -> Result<Self, NetlistError> {
        netlist.check()?;
        let order = analysis::comb_topo_order(netlist).expect("checked netlist has no comb loops");
        let mut offsets = vec![0u32; netlist.num_nodes()];
        let mut tape = Vec::new();
        let mut len = 0u32;
        for &id in &order {
            let node = netlist.node(id);
            if let Node::Op { op: Op::Slice { lo, .. }, args, .. } = node {
                offsets[id.index()] = offsets[args[0].index()] + lo;
                continue;
            }
            let (out, width) = (len, node.width());
            offsets[id.index()] = out;
            len += width;
            let (kernel, args, arg_of): (_, &[SignalId], _) = match node {
                Node::Op { op, args, .. } => {
                    let odd = match op {
                        Op::Concat | Op::Shl | Op::Shr | Op::Sar => args[1],
                        _ => args[0],
                    };
                    (Kernel::Op(*op), args, odd)
                }
                Node::MemRead { mem, addr, .. } => {
                    (Kernel::MemRead(mem.index()), std::slice::from_ref(addr), *addr)
                }
                Node::Input { .. } | Node::Reg(_) | Node::Const(_) => continue,
            };
            let mut arg_offsets = [0; 3];
            for (slot, a) in arg_offsets.iter_mut().zip(args) {
                *slot = offsets[a.index()];
            }
            let arg_width = netlist.width_of(arg_of);
            tape.push(Step { kernel, width, out, args: arg_offsets, arg_width });
        }

        let mut arena = vec![Block::ZERO; len as usize];
        let mut regs = Vec::new();
        for (id, node) in netlist.iter_nodes() {
            let at = offsets[id.index()];
            match node {
                Node::Const(bv) => {
                    lanes::broadcast_block(
                        &mut arena[at as usize..][..bv.width() as usize],
                        bv.val(),
                    );
                }
                Node::Reg(info) => {
                    let next = offsets[info.next.expect("checked netlist").index()];
                    regs.push(RegSlot { cur: at, next, width: info.width });
                }
                _ => {}
            }
        }
        let latch = vec![Block::ZERO; regs.iter().map(|r| r.width as usize).sum()];

        let mut mems = Vec::new();
        let mut ports = Vec::new();
        let mut base = 0;
        for (mid, m) in netlist.iter_mems() {
            let mem = MemSlot { base, words: m.words, width: m.width };
            base = mem.blocks().end;
            mems.push(mem);
            for wp in &m.write_ports {
                ports.push(PortSlot {
                    mem: mid.index(),
                    en: offsets[wp.en.index()],
                    addr: offsets[wp.addr.index()],
                    addr_width: netlist.width_of(wp.addr),
                    data: offsets[wp.data.index()],
                });
            }
        }

        let mut sim = BatchSim {
            netlist,
            offsets,
            tape,
            arena,
            regs,
            latch,
            mems,
            store: vec![Block::ZERO; base],
            ports,
            cycle: 0,
            dirty: true,
            trace: BatchTrace::new(),
        };
        sim.reset();
        Ok(sim)
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// The current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Resets all lanes to the declared initial state (see
    /// [`crate::Sim::reset`]). Trace contents are cleared, probes stay.
    pub fn reset(&mut self) {
        for (id, node) in self.netlist.iter_nodes() {
            let init = match node {
                Node::Reg(info) => info.init.map_or(0, |bv| bv.val()),
                Node::Input { .. } => 0,
                _ => continue,
            };
            let slot = self.slot(id);
            lanes::broadcast_block(&mut self.arena[slot], init);
        }
        for (mid, m) in self.netlist.iter_mems() {
            let blocks = &mut self.store[self.mems[mid.index()].blocks()];
            match &m.init {
                Some(init) => {
                    for (word, bv) in blocks.chunks_exact_mut(m.width as usize).zip(init) {
                        lanes::broadcast_block(word, bv.val());
                    }
                }
                None => blocks.fill(Block::ZERO),
            }
        }
        self.cycle = 0;
        self.dirty = true;
        self.trace.clear();
    }

    /// The arena blocks of signal `id`.
    fn slot(&self, id: SignalId) -> std::ops::Range<usize> {
        let at = self.offsets[id.index()] as usize;
        at..at + self.netlist.width_of(id) as usize
    }

    /// The store blocks of word `index` of `mem`.
    ///
    /// # Panics
    ///
    /// Panics if the word index is out of range.
    fn mem_word(&self, mem: MemId, index: u32) -> std::ops::Range<usize> {
        self.mems[mem.index()].word(u64::from(index)).unwrap_or_else(|| {
            panic!("word index {index} out of range for `{}`", self.netlist.mem(mem).name)
        })
    }

    fn find(&self, name: &str) -> Wire {
        self.netlist.find(name).unwrap_or_else(|| panic!("no signal named `{name}`"))
    }

    fn assert_fits(wire: Wire, value: u64, what: &str, name: &str) {
        assert!(
            value & !Bv::mask_for(wire.width()) == 0,
            "value {value:#x} does not fit the {}-bit width of {what} `{name}`",
            wire.width()
        );
    }

    fn assert_input(&self, wire: Wire) {
        assert!(
            matches!(self.netlist.node(wire.id()), Node::Input { .. }),
            "set_input on non-input signal"
        );
    }

    fn assert_reg(&self, wire: Wire) {
        assert!(
            matches!(self.netlist.node(wire.id()), Node::Reg(_)),
            "set_reg on non-register signal"
        );
    }

    /// Broadcasts `value` into the blocks of `id` in every lane.
    fn broadcast(&mut self, id: SignalId, value: u64) {
        let slot = self.slot(id);
        lanes::broadcast_block(&mut self.arena[slot], value);
        self.dirty = true;
    }

    /// Packs one value per lane into the blocks of `id`, keeping the low
    /// `width` bits of each.
    ///
    /// # Panics
    ///
    /// Panics if the slice is not exactly one value per lane.
    fn pack(&mut self, id: SignalId, values: &[u64]) {
        let slot = self.slot(id);
        pack_into(&mut self.arena[slot], values);
        self.dirty = true;
    }

    /// Drives a primary input by name, broadcasting `value` to all lanes.
    ///
    /// # Panics
    ///
    /// Panics if no input with that name exists or `value` does not fit the
    /// port width.
    pub fn set_input(&mut self, name: &str, value: u64) {
        let w = self.find(name);
        Self::assert_fits(w, value, "input", name);
        self.assert_input(w);
        self.broadcast(w.id(), value);
    }

    /// Drives a primary input by wire handle, broadcasting `value` to all
    /// lanes.
    ///
    /// # Panics
    ///
    /// Panics if the wire is not an input or widths mismatch.
    pub fn set_input_wire(&mut self, wire: Wire, value: Bv) {
        self.assert_input(wire);
        assert_eq!(wire.width(), value.width(), "input width mismatch");
        self.broadcast(wire.id(), value.val());
    }

    /// Drives a primary input by name with one value per lane
    /// (`values.len()` must be [`BatchSim::LANES`]).
    ///
    /// # Panics
    ///
    /// Panics if no input with that name exists, the slice is not exactly
    /// one value per lane, or any lane's value does not fit the port width.
    pub fn set_input_lanes(&mut self, name: &str, values: &[u64]) {
        let w = self.find(name);
        for &v in values {
            Self::assert_fits(w, v, "input", name);
        }
        self.set_input_wire_lanes(w, values);
    }

    /// Drives a primary input by wire handle with one value per lane.
    ///
    /// # Panics
    ///
    /// Panics if the wire is not an input, the slice is not exactly one
    /// value per lane, or any lane's value does not fit its width.
    pub fn set_input_wire_lanes(&mut self, wire: Wire, values: &[u64]) {
        assert_lanes_fit::<W>(wire.width(), values);
        self.set_input_wire_lanes_truncated(wire, values);
    }

    /// Drives a primary input by wire handle with one value per lane,
    /// keeping the low `wire.width()` bits of each value: for masks whose
    /// high bits mean nothing, such as taint masks.
    ///
    /// # Panics
    ///
    /// Panics if the wire is not an input or the slice is not exactly one
    /// value per lane.
    pub fn set_input_wire_lanes_truncated(&mut self, wire: Wire, values: &[u64]) {
        self.assert_input(wire);
        self.pack(wire.id(), values);
    }

    /// Overwrites a register's current state in every lane.
    ///
    /// # Panics
    ///
    /// Panics if the wire is not a register output or widths mismatch.
    pub fn set_reg(&mut self, wire: Wire, value: Bv) {
        assert_eq!(wire.width(), value.width(), "register width mismatch");
        self.assert_reg(wire);
        self.broadcast(wire.id(), value.val());
    }

    /// Overwrites a register's current state with one value per lane.
    ///
    /// # Panics
    ///
    /// Panics if the wire is not a register output, the slice is not
    /// exactly one value per lane, or any lane's value does not fit the
    /// register width.
    pub fn set_reg_lanes(&mut self, wire: Wire, values: &[u64]) {
        assert_lanes_fit::<W>(wire.width(), values);
        self.assert_reg(wire);
        self.pack(wire.id(), values);
    }

    /// Overwrites one memory word in every lane.
    ///
    /// # Panics
    ///
    /// Panics if the word index is out of range or widths mismatch.
    pub fn set_mem_word(&mut self, mem: MemId, index: u32, value: Bv) {
        let word = self.mem_word(mem, index);
        assert_eq!(value.width(), self.netlist.mem(mem).width, "memory word width mismatch");
        lanes::broadcast_block(&mut self.store[word], value.val());
        self.dirty = true;
    }

    /// Overwrites one memory word with one value per lane.
    ///
    /// # Panics
    ///
    /// Panics if the word index is out of range, the slice is not exactly
    /// one value per lane, or any lane's value does not fit the word width.
    pub fn set_mem_word_lanes(&mut self, mem: MemId, index: u32, values: &[u64]) {
        assert_eq!(values.len(), Self::LANES, "one value per lane required");
        let word = self.mem_word(mem, index);
        let m = self.netlist.mem(mem);
        let mask = Bv::mask_for(m.width);
        for (l, &v) in values.iter().enumerate() {
            assert!(
                v & !mask == 0,
                "lane {l} value {v:#x} does not fit the {}-bit words of `{}`",
                m.width,
                m.name
            );
        }
        pack_into(&mut self.store[word], values);
        self.dirty = true;
    }

    /// Overwrites one memory word in a single lane, leaving other lanes
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if the word index or lane is out of range or widths mismatch.
    pub fn set_mem_word_lane(&mut self, mem: MemId, index: u32, lane: usize, value: Bv) {
        let word = self.mem_word(mem, index);
        assert!(lane < Self::LANES, "lane {lane} out of range");
        assert_eq!(value.width(), self.netlist.mem(mem).width, "memory word width mismatch");
        lanes::set_lane_of(&mut self.store[word], lane, value.val());
        self.dirty = true;
    }

    /// Reads one memory word from one lane.
    ///
    /// # Panics
    ///
    /// Panics if the word index or lane is out of range.
    pub fn read_mem_lane(&self, mem: MemId, index: u32, lane: usize) -> Bv {
        let word = self.mem_word(mem, index);
        assert!(lane < Self::LANES, "lane {lane} out of range");
        Bv::new(self.netlist.mem(mem).width, lanes::lane_of(&self.store[word], lane))
    }

    /// The mask of lanes in which any word of `mem` is non-zero.
    pub fn mem_nonzero_lanes(&self, mem: MemId) -> Block<W> {
        self.store[self.mems[mem.index()].blocks()].iter().fold(Block::ZERO, |acc, &b| acc | b)
    }

    /// The current value of a signal in one lane (evaluating first if
    /// needed).
    pub fn peek_lane(&mut self, wire: Wire, lane: usize) -> Bv {
        assert!(lane < Self::LANES, "lane {lane} out of range");
        self.eval();
        let slot = self.slot(wire.id());
        Bv::new(wire.width(), lanes::lane_of(&self.arena[slot], lane))
    }

    /// The current value of a signal in all lanes (lane-indexed).
    pub fn peek_lanes(&mut self, wire: Wire) -> Vec<u64> {
        self.eval();
        let rows = lanes::unpack_block(&self.arena[self.slot(wire.id())]);
        rows.concat()
    }

    /// [`BatchSim::peek_lanes`] by hierarchical name.
    ///
    /// # Panics
    ///
    /// Panics if no signal with that name exists.
    pub fn peek_name_lanes(&mut self, name: &str) -> Vec<u64> {
        let w = self.find(name);
        self.peek_lanes(w)
    }

    /// The mask of lanes in which a signal is currently non-zero.
    pub fn nonzero_lanes(&mut self, wire: Wire) -> Block<W> {
        self.eval();
        self.arena[self.slot(wire.id())].iter().fold(Block::ZERO, |acc, &b| acc | b)
    }

    /// For a 1-bit signal: the mask of lanes in which it is currently 1.
    ///
    /// # Panics
    ///
    /// Panics if the signal is wider than one bit.
    pub fn lanes_high(&mut self, wire: Wire) -> Block<W> {
        assert_eq!(wire.width(), 1, "lanes_high expects a 1-bit signal");
        self.nonzero_lanes(wire)
    }

    /// Recomputes every combinational value if an input or the state
    /// changed: one run down the tape.
    fn eval(&mut self) {
        if !self.dirty {
            return;
        }
        for step in &self.tape {
            run_step(step, &mut self.arena, &self.store, &self.mems);
        }
        self.dirty = false;
    }

    /// Latches every register and applies the memory write ports in
    /// declaration order, then advances the cycle counter.
    fn commit(&mut self) {
        self.eval();
        let mut at = 0;
        for r in &self.regs {
            let w = r.width as usize;
            self.latch[at..at + w].copy_from_slice(&self.arena[r.next as usize..][..w]);
            at += w;
        }
        // Write ports read combinational values only, so they apply
        // directly.
        for p in &self.ports {
            let en = self.arena[p.en as usize];
            if en.is_zero() {
                continue;
            }
            let mem = self.mems[p.mem];
            let addr = &self.arena[p.addr as usize..][..p.addr_width as usize];
            let data = &self.arena[p.data as usize..][..mem.width as usize];
            let store = &mut self.store;
            for_each_address(addr, en, |a, group| {
                if let Some(word) = mem.word(a) {
                    for (m, &d) in store[word].iter_mut().zip(data) {
                        *m = (*m & !group) | (d & group);
                    }
                }
            });
        }
        let mut at = 0;
        for r in &self.regs {
            let w = r.width as usize;
            self.arena[r.cur as usize..][..w].copy_from_slice(&self.latch[at..at + w]);
            at += w;
        }
        self.cycle += 1;
        self.dirty = true;
    }

    /// Advances all lanes by one clock edge.
    pub fn step(&mut self) {
        self.eval();
        self.record_probes();
        self.commit();
    }

    /// Runs `n` clock cycles.
    pub fn step_n(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Steps until `signal` is 1 in **every** lane, up to `max_cycles`
    /// steps. Returns the number of steps taken before all lanes were
    /// observed high, or `None` if some lane never rose within the bound.
    pub fn step_until_all_high(&mut self, signal: Wire, max_cycles: u64) -> Option<u64> {
        for i in 0..=max_cycles {
            if self.lanes_high(signal) == Block::ONES {
                return Some(i);
            }
            if i < max_cycles {
                self.step();
            }
        }
        None
    }

    /// Registers a named signal to be recorded (per lane) on every
    /// subsequent step.
    ///
    /// # Panics
    ///
    /// Panics if no signal with that name exists.
    pub fn watch(&mut self, name: &str) {
        let w = self.find(name);
        self.trace.add_probe(name, w);
    }

    fn record_probes(&mut self) {
        if self.trace.is_empty() {
            return;
        }
        let vals: Vec<Vec<Block<W>>> =
            self.trace.probe_wires().map(|w| self.arena[self.slot(w.id())].to_vec()).collect();
        self.trace.record(self.cycle, vals);
    }

    /// The recorded per-lane trace of watched signals.
    pub fn trace(&self) -> &BatchTrace<W> {
        &self.trace
    }
}

/// Refuses a slice that is not one value per lane, or a lane value wider
/// than `width` (a wider scalar is a stimulus bug, not something to
/// truncate silently).
fn assert_lanes_fit<const W: usize>(width: u32, values: &[u64]) {
    assert_eq!(values.len(), lanes::block_lanes::<W>(), "one value per lane required");
    let mask = Bv::mask_for(width);
    for (l, &v) in values.iter().enumerate() {
        assert!(v & !mask == 0, "lane {l} value {v:#x} does not fit {width} bits");
    }
}

/// Packs one value per lane into `bits`, keeping the low `bits.len()` bits
/// of each value.
///
/// # Panics
///
/// Panics if the slice is not exactly one value per lane.
fn pack_into<const W: usize>(bits: &mut [Block<W>], values: &[u64]) {
    assert_eq!(values.len(), lanes::block_lanes::<W>(), "one value per lane required");
    let mut rows = [[0u64; lanes::LANES]; W];
    for (row, chunk) in rows.iter_mut().zip(values.chunks_exact(lanes::LANES)) {
        row.copy_from_slice(chunk);
    }
    let packed = lanes::pack_block(&rows);
    bits.copy_from_slice(&packed[..bits.len()]);
}

/// The lowest lane set in `mask`.
fn first_lane<const W: usize>(mask: Block<W>) -> Option<usize> {
    let k = mask.0.iter().position(|&w| w != 0)?;
    Some(k * lanes::LANES + mask.0[k].trailing_zeros() as usize)
}

/// Groups the lanes of `active` by the address they hold in `addr`: calls
/// `f(address, group)` once per distinct address, `group` being the lanes
/// of `active` that hold it. Allocates nothing, so it runs inside a step.
fn for_each_address<const W: usize>(
    addr: &[Block<W>],
    active: Block<W>,
    mut f: impl FnMut(u64, Block<W>),
) {
    let mut todo = active;
    while let Some(l) = first_lane(todo) {
        let a = lanes::lane_of(addr, l);
        let mut group = todo;
        for (i, &b) in addr.iter().enumerate() {
            group &= if a >> i & 1 == 1 { b } else { !b };
        }
        todo &= !group;
        f(a, group);
    }
}

/// Runs one tape step: reads its arguments below `step.out` and writes its
/// `step.width` result blocks.
fn run_step<const W: usize>(
    step: &Step,
    arena: &mut [Block<W>],
    store: &[Block<W>],
    mems: &[MemSlot],
) {
    let (src, rest) = arena.split_at_mut(step.out as usize);
    let w = step.width as usize;
    let aw = step.arg_width as usize;
    let out = &mut rest[..w];
    let arg = |i: usize, len: usize| &src[step.args[i] as usize..][..len];
    let op = match step.kernel {
        Kernel::Op(op) => op,
        Kernel::MemRead(m) => {
            let mem = mems[m];
            out.fill(Block::ZERO);
            let bits = w.min(mem.width as usize);
            for_each_address(arg(0, aw), Block::ONES, |a, group| {
                if let Some(word) = mem.word(a) {
                    for (o, &m) in out[..bits].iter_mut().zip(&store[word]) {
                        *o |= m & group;
                    }
                }
            });
            return;
        }
    };
    match op {
        Op::Not => {
            for (o, &a) in out.iter_mut().zip(arg(0, w)) {
                *o = !a;
            }
        }
        Op::And | Op::Or | Op::Xor => {
            for ((o, &a), &b) in out.iter_mut().zip(arg(0, w)).zip(arg(1, w)) {
                *o = match op {
                    Op::And => a & b,
                    Op::Or => a | b,
                    _ => a ^ b,
                };
            }
        }
        Op::Add => {
            let mut carry = Block::ZERO;
            for ((o, &x), &y) in out.iter_mut().zip(arg(0, w)).zip(arg(1, w)) {
                let xy = x ^ y;
                *o = xy ^ carry;
                carry = (x & y) | (carry & xy);
            }
        }
        Op::Sub => {
            let mut borrow = Block::ZERO;
            for ((o, &x), &y) in out.iter_mut().zip(arg(0, w)).zip(arg(1, w)) {
                *o = x ^ y ^ borrow;
                borrow = (!x & y) | ((!x | y) & borrow);
            }
        }
        Op::Mul => {
            let (a, b) = (arg(0, w), arg(1, w));
            out.fill(Block::ZERO);
            for (j, &sel) in b.iter().enumerate() {
                if sel.is_zero() {
                    continue;
                }
                let mut carry = Block::ZERO;
                for i in j..w {
                    let p = a[i - j] & sel;
                    let o = out[i];
                    let s = o ^ p;
                    out[i] = s ^ carry;
                    carry = (o & p) | (carry & s);
                }
            }
        }
        Op::Eq => {
            out[0] =
                arg(0, aw).iter().zip(arg(1, aw)).fold(Block::ONES, |acc, (&a, &b)| acc & !(a ^ b));
        }
        Op::Ult | Op::Slt => {
            let mut borrow = Block::ZERO;
            for (i, (&a, &b)) in arg(0, aw).iter().zip(arg(1, aw)).enumerate() {
                // Signed comparison = unsigned with both sign bits flipped.
                let flip = Block::splat(op == Op::Slt && i == aw - 1);
                let (x, y) = (a ^ flip, b ^ flip);
                borrow = (!x & y) | ((!x | y) & borrow);
            }
            out[0] = borrow;
        }
        Op::ShlC(s) => {
            let (a, s) = (arg(0, w), s as usize);
            for (i, o) in out.iter_mut().enumerate() {
                *o = if i >= s { a[i - s] } else { Block::ZERO };
            }
        }
        Op::ShrC(s) => {
            let (a, s) = (arg(0, w), s as usize);
            for (i, o) in out.iter_mut().enumerate() {
                *o = if i + s < w { a[i + s] } else { Block::ZERO };
            }
        }
        Op::SarC(s) => {
            let (a, s) = (arg(0, w), (s as usize).min(w - 1));
            for (i, o) in out.iter_mut().enumerate() {
                *o = a[(i + s).min(w - 1)];
            }
        }
        Op::Shl | Op::Shr | Op::Sar => {
            let a = arg(0, w);
            out.copy_from_slice(a);
            let fill = if op == Op::Sar { a[w - 1] } else { Block::ZERO };
            // Lanes whose amount reaches the width shift everything out.
            let mut big = Block::ZERO;
            for (k, &sel) in arg(1, aw).iter().enumerate() {
                if sel.is_zero() {
                    continue;
                }
                let sh = 1usize << k.min(63);
                if sh >= w {
                    big |= sel;
                    continue;
                }
                if op == Op::Shl {
                    for i in (sh..w).rev() {
                        out[i] = (sel & out[i - sh]) | (!sel & out[i]);
                    }
                    for o in &mut out[..sh] {
                        *o &= !sel;
                    }
                } else {
                    for i in 0..w - sh {
                        out[i] = (sel & out[i + sh]) | (!sel & out[i]);
                    }
                    for o in &mut out[w - sh..] {
                        *o = (sel & fill) | (!sel & *o);
                    }
                }
            }
            if !big.is_zero() {
                for o in out.iter_mut() {
                    *o = (big & fill) | (!big & *o);
                }
            }
        }
        Op::Slice { .. } => unreachable!("a slice is a view, not a tape step"),
        Op::Concat => {
            out[..aw].copy_from_slice(arg(1, aw));
            out[aw..].copy_from_slice(arg(0, w - aw));
        }
        Op::Zext | Op::Sext => {
            let a = arg(0, aw);
            out[..aw].copy_from_slice(a);
            let fill = if op == Op::Sext { a[aw - 1] } else { Block::ZERO };
            out[aw..].fill(fill);
        }
        Op::Mux => {
            let sel = src[step.args[0] as usize];
            for ((o, &t), &e) in out.iter_mut().zip(arg(1, w)).zip(arg(2, w)) {
                *o = (sel & t) | (!sel & e);
            }
        }
        Op::ReduceOr => out[0] = arg(0, aw).iter().fold(Block::ZERO, |acc, &b| acc | b),
        Op::ReduceAnd => out[0] = arg(0, aw).iter().fold(Block::ONES, |acc, &b| acc & b),
        Op::ReduceXor => out[0] = arg(0, aw).iter().fold(Block::ZERO, |acc, &b| acc ^ b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssc_netlist::lanes::LANES;
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
    fn lanes_count_independently() {
        let n = counter();
        let mut sim = BatchSim::<1>::new(&n).unwrap();
        // Enable only even lanes.
        let mut en = [0u64; LANES];
        for (l, e) in en.iter_mut().enumerate() {
            *e = (l % 2 == 0) as u64;
        }
        sim.set_input_lanes("en", &en);
        sim.step_n(5);
        let counts = sim.peek_name_lanes("count");
        for (l, &c) in counts.iter().enumerate() {
            assert_eq!(c, if l % 2 == 0 { 5 } else { 0 }, "lane {l}");
        }
    }

    #[test]
    fn wide_lanes_count_independently() {
        const L: usize = BatchSim::<4>::LANES;
        let n = counter();
        let mut sim = BatchSim::<4>::new(&n).unwrap();
        // Lane l counts iff l % 3 == 0 — exercises all four block words.
        let en: Vec<u64> = (0..L).map(|l| (l % 3 == 0) as u64).collect();
        sim.set_input_lanes("en", &en);
        sim.step_n(7);
        let counts = sim.peek_name_lanes("count");
        assert_eq!(counts.len(), 256);
        for (l, &c) in counts.iter().enumerate() {
            assert_eq!(c, if l % 3 == 0 { 7 } else { 0 }, "lane {l}");
        }
    }

    #[test]
    fn per_lane_memory_states() {
        let mut n = Netlist::new("mem");
        let we = n.input("we", 1);
        let addr = n.input("addr", 4);
        let data = n.input("data", 32);
        let mem = n.memory("ram", 16, 32, StateMeta::memory(true));
        n.mem_write(mem, we, addr, data);
        let rd = n.mem_read(mem, addr);
        n.mark_output("rd", rd);

        let mut sim = BatchSim::<1>::new(&n).unwrap();
        // Each lane writes its own value to its own address.
        let mut addrs = [0u64; LANES];
        let mut datas = [0u64; LANES];
        for l in 0..LANES {
            addrs[l] = (l % 16) as u64;
            datas[l] = 0x100 + l as u64;
        }
        sim.set_input("we", 1);
        sim.set_input_lanes("addr", &addrs);
        sim.set_input_lanes("data", &datas);
        sim.step();
        sim.set_input("we", 0);
        let rds = sim.peek_lanes(rd);
        for (l, &v) in rds.iter().enumerate() {
            assert_eq!(v, 0x100 + l as u64, "lane {l}");
        }
        assert_eq!(sim.read_mem_lane(mem, 3, 3).val(), 0x103);
        assert_eq!(sim.read_mem_lane(mem, 3, 19).val(), 0x113);
    }

    #[test]
    fn wide_per_lane_memory_states() {
        const L: usize = BatchSim::<4>::LANES;
        let mut n = Netlist::new("mem");
        let we = n.input("we", 1);
        let addr = n.input("addr", 4);
        let data = n.input("data", 32);
        let mem = n.memory("ram", 16, 32, StateMeta::memory(true));
        n.mem_write(mem, we, addr, data);
        let rd = n.mem_read(mem, addr);
        n.mark_output("rd", rd);

        let mut sim = BatchSim::<4>::new(&n).unwrap();
        let addrs: Vec<u64> = (0..L).map(|l| (l % 16) as u64).collect();
        let datas: Vec<u64> = (0..L).map(|l| 0x1000 + l as u64).collect();
        // Only lanes above 64 write — the write-enable mask must respect
        // block-word boundaries.
        let wes: Vec<u64> = (0..L).map(|l| (l >= 64) as u64).collect();
        sim.set_input_lanes("we", &wes);
        sim.set_input_lanes("addr", &addrs);
        sim.set_input_lanes("data", &datas);
        sim.step();
        sim.set_input("we", 0);
        let rds = sim.peek_lanes(rd);
        for (l, &v) in rds.iter().enumerate() {
            let expect = if l >= 64 { 0x1000 + l as u64 } else { 0 };
            assert_eq!(v, expect, "lane {l}");
        }
        assert_eq!(sim.read_mem_lane(mem, 3, 3 + 128).val(), 0x1000 + 131);
    }

    #[test]
    fn broadcast_set_input_asserts_width() {
        let n = counter();
        let mut sim = BatchSim::<1>::new(&n).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.set_input("en", 2);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("`en`"), "panic must name the signal: {msg}");
    }

    #[test]
    fn lane_count_mismatch_is_rejected() {
        let n = counter();
        let mut sim = BatchSim::<4>::new(&n).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.set_input_lanes("en", &[0u64; 64]); // 64 values, 256 lanes
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic message");
        assert!(msg.contains("one value per lane"), "{msg}");
    }

    #[test]
    fn step_until_all_high_waits_for_slowest_lane() {
        let mut n = counter();
        let count = n.find("count").unwrap();
        let four = n.lit(8, 4);
        let lt = n.ult(count, four);
        let done = n.not(lt);
        n.set_name(done, "done");
        let mut sim = BatchSim::<1>::new(&n).unwrap();
        sim.set_input("en", 1);
        // Lane l starts at count = l (lanes 0..=4 need 4-l more steps).
        let mut starts = [10u64; LANES];
        for (l, s) in starts.iter_mut().enumerate().take(5) {
            *s = l as u64;
        }
        sim.set_reg_lanes(count, &starts);
        assert_eq!(sim.step_until_all_high(done, 100), Some(4));
    }

    #[test]
    fn wide_step_until_all_high_waits_for_the_highest_lane() {
        const L: usize = BatchSim::<4>::LANES;
        let mut n = counter();
        let count = n.find("count").unwrap();
        let four = n.lit(8, 4);
        let lt = n.ult(count, four);
        let done = n.not(lt);
        n.set_name(done, "done");
        let mut sim = BatchSim::<4>::new(&n).unwrap();
        sim.set_input("en", 1);
        // Only lane 200 is behind.
        let mut starts = vec![10u64; L];
        starts[200] = 1;
        sim.set_reg_lanes(count, &starts);
        assert_eq!(sim.step_until_all_high(done, 100), Some(3));
    }

    #[test]
    fn batch_trace_records_per_lane_series() {
        let n = counter();
        let mut sim = BatchSim::<1>::new(&n).unwrap();
        sim.watch("count");
        let mut en = [0u64; LANES];
        en[7] = 1;
        sim.set_input_lanes("en", &en);
        sim.step_n(3);
        let lane7 = sim.trace().lane_view(7);
        assert_eq!(
            lane7.series("count").unwrap().iter().map(|(_, v)| v.val()).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let lane0 = sim.trace().lane_view(0);
        assert_eq!(
            lane0.series("count").unwrap().iter().map(|(_, v)| v.val()).collect::<Vec<_>>(),
            vec![0, 0, 0]
        );
    }

    #[test]
    fn wide_trace_views_high_lanes() {
        const L: usize = BatchSim::<4>::LANES;
        let n = counter();
        let mut sim = BatchSim::<4>::new(&n).unwrap();
        sim.watch("count");
        let mut en = vec![0u64; L];
        en[199] = 1;
        sim.set_input_lanes("en", &en);
        sim.step_n(3);
        let lane = sim.trace().lane_view(199);
        assert_eq!(
            lane.series("count").unwrap().iter().map(|(_, v)| v.val()).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let idle = sim.trace().lane_view(198);
        assert_eq!(
            idle.series("count").unwrap().iter().map(|(_, v)| v.val()).collect::<Vec<_>>(),
            vec![0, 0, 0]
        );
    }

    /// The wide engine is bit-identical to the 64-lane engine on matching
    /// stimuli — the direct W=4 vs W=1 cross-check at the `BatchSim` level.
    #[test]
    fn wide_engine_matches_narrow_engine_lane_for_lane() {
        const L: usize = BatchSim::<4>::LANES;
        let n = counter();
        let mut narrow = BatchSim::<1>::new(&n).unwrap();
        let mut wide = BatchSim::<4>::new(&n).unwrap();
        let en_wide: Vec<u64> = (0..L).map(|l| (l % 5 < 2) as u64).collect();
        narrow.set_input_lanes("en", &en_wide[..64]);
        wide.set_input_lanes("en", &en_wide);
        narrow.step_n(9);
        wide.step_n(9);
        let c_narrow = narrow.peek_name_lanes("count");
        let c_wide = wide.peek_name_lanes("count");
        assert_eq!(c_narrow[..], c_wide[..64], "first block diverges");
    }
}
