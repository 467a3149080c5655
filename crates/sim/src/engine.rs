//! The scalar evaluate/commit core behind [`crate::Sim`].
//!
//! [`Engine`] owns the two-phase interpreter loop over one [`Bv`] per
//! signal:
//!
//! 1. **Evaluate** ([`Engine::eval`]): combinational nodes are computed in
//!    topological order from the current register/memory/input state,
//! 2. **Commit** ([`Engine::commit`]): registers latch their next-state
//!    values and memory write ports apply in declaration order (later
//!    ports override earlier ones within a cycle).
//!
//! Its operator semantics ([`eval_op`]) are the reference every lane of
//! [`crate::BatchSim`] is compared against.

use ssc_netlist::{analysis, Bv, MemId, Netlist, NetlistError, Node, Op, SignalId};

/// The scalar evaluate/commit core of [`crate::Sim`].
#[derive(Clone)]
pub(crate) struct Engine<'n> {
    netlist: &'n Netlist,
    order: Vec<SignalId>,
    values: Vec<Bv>,
    /// One `Bv` per word of every memory.
    mems: Vec<Vec<Bv>>,
    /// `(register, next-state signal)` pairs in declaration order.
    regs: Vec<(SignalId, SignalId)>,
    /// Register scratch table: `reg_next[i]` latches the next value of
    /// `regs[i]` before any register changes (a next-state cone may read
    /// other registers), without a per-cycle allocation.
    reg_next: Vec<Bv>,
    cycle: u64,
    dirty: bool,
}

impl<'n> Engine<'n> {
    /// Creates an engine for `netlist` with all state at its reset values.
    ///
    /// # Errors
    ///
    /// Returns the netlist's structural error if it fails [`Netlist::check`].
    pub(crate) fn new(netlist: &'n Netlist) -> Result<Self, NetlistError> {
        netlist.check()?;
        let order = analysis::comb_topo_order(netlist).expect("checked netlist has no comb loops");
        let values = (0..netlist.num_nodes())
            .map(|i| Bv::zero(netlist.width_of(SignalId::from_index(i))))
            .collect();
        let mems =
            netlist.iter_mems().map(|(_, m)| vec![Bv::zero(m.width); m.words as usize]).collect();
        let regs: Vec<(SignalId, SignalId)> = netlist
            .iter_nodes()
            .filter_map(|(id, node)| match node {
                Node::Reg(info) => Some((id, info.next.expect("checked netlist"))),
                _ => None,
            })
            .collect();
        let reg_next = regs.iter().map(|&(id, _)| Bv::zero(netlist.width_of(id))).collect();
        let mut eng =
            Engine { netlist, order, values, mems, regs, reg_next, cycle: 0, dirty: true };
        eng.reset();
        Ok(eng)
    }

    /// The underlying netlist.
    pub(crate) fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// The current cycle count (number of commits since reset).
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Resets registers and memories to their declared initial values (zero
    /// when unspecified), clears inputs to zero and restarts the cycle
    /// counter.
    pub(crate) fn reset(&mut self) {
        for (id, node) in self.netlist.iter_nodes() {
            match node {
                Node::Reg(info) => {
                    self.values[id.index()] = info.init.unwrap_or(Bv::zero(info.width));
                }
                Node::Input { width, .. } => {
                    self.values[id.index()] = Bv::zero(*width);
                }
                // Constants are fixed for the engine's lifetime; seating
                // them here keeps the per-cycle eval loop from rebuilding
                // them every walk.
                Node::Const(bv) => {
                    self.values[id.index()] = *bv;
                }
                _ => {}
            }
        }
        for (mid, m) in self.netlist.iter_mems() {
            let mem = &mut self.mems[mid.index()];
            match &m.init {
                Some(init) => mem.copy_from_slice(init),
                None => mem.fill(Bv::zero(m.width)),
            }
        }
        self.cycle = 0;
        self.dirty = true;
    }

    /// The current value of a signal. The caller is responsible for
    /// evaluating first ([`Engine::eval`]) if inputs or state changed.
    pub(crate) fn value(&self, id: SignalId) -> Bv {
        self.values[id.index()]
    }

    /// Overwrites a signal's value slot (input driving / state poking) and
    /// marks the combinational values stale.
    pub(crate) fn set_value(&mut self, id: SignalId, v: Bv) {
        self.values[id.index()] = v;
        self.dirty = true;
    }

    /// Read access to a memory's words.
    pub(crate) fn mem(&self, mem: MemId) -> &[Bv] {
        &self.mems[mem.index()]
    }

    /// Mutable access to a memory's words (state poking); marks the
    /// combinational values stale.
    pub(crate) fn mem_mut(&mut self, mem: MemId) -> &mut [Bv] {
        self.dirty = true;
        &mut self.mems[mem.index()]
    }

    /// Recomputes combinational values if inputs or state changed.
    pub(crate) fn eval(&mut self) {
        if !self.dirty {
            return;
        }
        for &id in &self.order {
            self.values[id.index()] = match self.netlist.node(id) {
                // Inputs/registers hold state in `values`; constants were
                // seated by `reset` and never change.
                Node::Input { .. } | Node::Reg(_) | Node::Const(_) => continue,
                Node::Op { op, args, width } => eval_op(*op, *width, &self.values, args),
                Node::MemRead { mem, addr, width } => {
                    let a = self.values[addr.index()].val() as usize;
                    let mem = &self.mems[mem.index()];
                    if a < mem.len() {
                        mem[a]
                    } else {
                        Bv::zero(*width)
                    }
                }
            };
        }
        self.dirty = false;
    }

    /// Latches registers and applies memory write ports (evaluating first
    /// if necessary), then advances the cycle counter.
    pub(crate) fn commit(&mut self) {
        self.eval();
        // Latch every register's next value before overwriting any
        // register (a next-state cone may read other registers).
        for (slot, &(_, next)) in self.reg_next.iter_mut().zip(&self.regs) {
            *slot = self.values[next.index()];
        }
        // Write ports read combinational values only, so they can apply
        // directly; declaration order realizes later-port-wins.
        for (mid, m) in self.netlist.iter_mems() {
            for wp in &m.write_ports {
                if self.values[wp.en.index()].is_true() {
                    let a = self.values[wp.addr.index()].val() as usize;
                    let mem = &mut self.mems[mid.index()];
                    if a < mem.len() {
                        mem[a] = self.values[wp.data.index()];
                    }
                }
            }
        }
        for (&(id, _), &v) in self.regs.iter().zip(&self.reg_next) {
            self.values[id.index()] = v;
        }
        self.cycle += 1;
        self.dirty = true;
    }
}

/// The scalar semantics of `op` over `args` (indices into `values`), with
/// the declared result `width`.
fn eval_op(op: Op, width: u32, values: &[Bv], args: &[SignalId]) -> Bv {
    let v = |i: usize| values[args[i].index()];
    match op {
        Op::Not => v(0).not(),
        Op::And => v(0).and(v(1)),
        Op::Or => v(0).or(v(1)),
        Op::Xor => v(0).xor(v(1)),
        Op::Add => v(0).add(v(1)),
        Op::Sub => v(0).sub(v(1)),
        Op::Mul => v(0).mul(v(1)),
        Op::Eq => v(0).eq_bit(v(1)),
        Op::Ult => v(0).ult(v(1)),
        Op::Slt => v(0).slt(v(1)),
        Op::ShlC(a) => v(0).shl(a),
        Op::ShrC(a) => v(0).shr(a),
        Op::SarC(a) => v(0).sar(a),
        Op::Shl => v(0).shl_dyn(v(1)),
        Op::Shr => v(0).shr_dyn(v(1)),
        Op::Sar => v(0).sar_dyn(v(1)),
        Op::Slice { hi, lo } => v(0).slice(hi, lo),
        Op::Concat => v(0).concat(v(1)),
        Op::Zext => v(0).zext(width),
        Op::Sext => v(0).sext(width),
        Op::Mux => {
            if v(0).is_true() {
                v(1)
            } else {
                v(2)
            }
        }
        Op::ReduceOr => v(0).reduce_or(),
        Op::ReduceAnd => v(0).reduce_and(),
        Op::ReduceXor => v(0).reduce_xor(),
    }
}
