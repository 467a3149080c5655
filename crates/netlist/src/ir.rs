//! The word-level netlist intermediate representation.
//!
//! A [`Netlist`] is a flat graph of [`Node`]s (inputs, constants, word-level
//! operators, register outputs and memory read ports) plus a table of
//! [`Memory`] arrays with synchronous write ports. There is a single implicit
//! clock domain: on every clock edge each register latches its `next` signal
//! and each memory applies its write ports in declaration order.
//!
//! Hierarchy is represented by hierarchical names (`"soc.xbar.arb.grant"`)
//! produced by the builder's scope stack — the netlist itself is always flat,
//! which keeps simulation, bit-blasting and state enumeration simple.
//!
//! # Examples
//!
//! ```
//! use ssc_netlist::{Netlist, Bv, StateMeta};
//!
//! let mut n = Netlist::new("counter");
//! let en = n.input("en", 1);
//! let count = n.reg("count", 8, Some(Bv::zero(8)), StateMeta::default());
//! let one = n.lit(8, 1);
//! let inc = n.add(count.wire(), one);
//! let next = n.mux(en, inc, count.wire());
//! n.connect_reg(count, next);
//! n.mark_output("count", count.wire());
//! n.check().unwrap();
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::bv::Bv;

/// Index of a signal node in a [`Netlist`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a signal id from a raw index obtained via
    /// [`SignalId::index`]. Node ids are dense and 0-based.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        SignalId(i as u32)
    }
}

/// Index of a memory array in a [`Netlist`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MemId(pub(crate) u32);

impl MemId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A typed handle to a signal: its id plus its width.
///
/// `Wire` is a cheap copyable value used by all builder methods so that
/// width errors are caught at construction time rather than at elaboration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Wire {
    pub(crate) id: SignalId,
    pub(crate) width: u32,
}

impl Wire {
    /// The signal id.
    #[inline]
    pub fn id(self) -> SignalId {
        self.id
    }

    /// The signal width in bits.
    #[inline]
    pub fn width(self) -> u32 {
        self.width
    }
}

/// A handle to a register created by [`Netlist::reg`].
///
/// The register's `next` input must be connected exactly once via
/// [`Netlist::connect_reg`] before the netlist passes [`Netlist::check`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RegHandle {
    pub(crate) id: SignalId,
    pub(crate) width: u32,
}

impl RegHandle {
    /// The register's output wire.
    #[inline]
    pub fn wire(self) -> Wire {
        Wire { id: self.id, width: self.width }
    }

    /// The signal id of the register output.
    #[inline]
    pub fn id(self) -> SignalId {
        self.id
    }

    /// The register width in bits.
    #[inline]
    pub fn width(self) -> u32 {
        self.width
    }
}

/// Classification of a state-holding element, used by the UPEC-SSC state-set
/// machinery to compile `S_not_victim` and the persistence policy `S_pers`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub enum StateKind {
    /// State inside the processor core (excluded from `S_not_victim`).
    CpuInternal,
    /// Interconnect buffers that are overwritten by every transaction
    /// (transient: not part of `S_pers`).
    InterconnectBuffer,
    /// Architectural registers of a peripheral IP (DMA, HWPE, ...): persist
    /// across context switches.
    IpRegister,
    /// A word of a memory array: persists across context switches.
    MemoryArray,
    /// Memory-mapped peripheral register (timer counter, UART, ...).
    PeripheralRegister,
    /// Unclassified state.
    #[default]
    Other,
}



impl fmt::Display for StateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StateKind::CpuInternal => "cpu",
            StateKind::InterconnectBuffer => "xbuf",
            StateKind::IpRegister => "ipreg",
            StateKind::MemoryArray => "mem",
            StateKind::PeripheralRegister => "preg",
            StateKind::Other => "other",
        };
        f.write_str(s)
    }
}

impl StateKind {
    /// Parses the short tag produced by [`Display`](fmt::Display).
    pub fn parse_tag(s: &str) -> Option<StateKind> {
        Some(match s {
            "cpu" => StateKind::CpuInternal,
            "xbuf" => StateKind::InterconnectBuffer,
            "ipreg" => StateKind::IpRegister,
            "mem" => StateKind::MemoryArray,
            "preg" => StateKind::PeripheralRegister,
            "other" => StateKind::Other,
            _ => return None,
        })
    }
}

/// Metadata attached to every state-holding element.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct StateMeta {
    /// Structural classification of the element.
    pub kind: StateKind,
    /// Whether the attacker task can read this element after a context
    /// switch (directly via load, or via a memory-mapped register).
    pub attacker_accessible: bool,
}

impl StateMeta {
    /// Metadata for CPU-internal state.
    pub fn cpu() -> Self {
        StateMeta { kind: StateKind::CpuInternal, attacker_accessible: false }
    }

    /// Metadata for transient interconnect buffers.
    pub fn interconnect() -> Self {
        StateMeta { kind: StateKind::InterconnectBuffer, attacker_accessible: false }
    }

    /// Metadata for attacker-readable IP registers.
    pub fn ip_register() -> Self {
        StateMeta { kind: StateKind::IpRegister, attacker_accessible: true }
    }

    /// Metadata for attacker-readable peripheral registers.
    pub fn peripheral() -> Self {
        StateMeta { kind: StateKind::PeripheralRegister, attacker_accessible: true }
    }

    /// Metadata for memory arrays.
    pub fn memory(attacker_accessible: bool) -> Self {
        StateMeta { kind: StateKind::MemoryArray, attacker_accessible }
    }
}

/// Word-level operators.
///
/// Operand count and width rules are documented per variant; they are
/// enforced by the builder methods on [`Netlist`] and re-checked by
/// [`Netlist::check`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Bitwise NOT (1 operand, same width).
    Not,
    /// Bitwise AND (2 operands, equal widths).
    And,
    /// Bitwise OR (2 operands, equal widths).
    Or,
    /// Bitwise XOR (2 operands, equal widths).
    Xor,
    /// Wrapping addition (2 operands, equal widths).
    Add,
    /// Wrapping subtraction (2 operands, equal widths).
    Sub,
    /// Wrapping multiplication (2 operands, equal widths).
    Mul,
    /// Equality, 1-bit result (2 operands, equal widths).
    Eq,
    /// Unsigned less-than, 1-bit result (2 operands, equal widths).
    Ult,
    /// Signed less-than, 1-bit result (2 operands, equal widths).
    Slt,
    /// Logical shift left by a constant (1 operand).
    ShlC(u32),
    /// Logical shift right by a constant (1 operand).
    ShrC(u32),
    /// Arithmetic shift right by a constant (1 operand).
    SarC(u32),
    /// Logical shift left by a dynamic amount (2 operands; amount width free).
    Shl,
    /// Logical shift right by a dynamic amount (2 operands; amount width free).
    Shr,
    /// Arithmetic shift right by a dynamic amount (2 operands).
    Sar,
    /// Bit slice `hi..=lo` (1 operand); result width `hi-lo+1`.
    #[allow(missing_docs)]
    Slice { hi: u32, lo: u32 },
    /// Concatenation; operand 0 is the high part (2 operands).
    Concat,
    /// Zero extension to the node width (1 operand).
    Zext,
    /// Sign extension to the node width (1 operand).
    Sext,
    /// 2:1 multiplexer: operands `(sel, then, else)`; `sel` is 1 bit wide.
    Mux,
    /// OR-reduction, 1-bit result (1 operand).
    ReduceOr,
    /// AND-reduction, 1-bit result (1 operand).
    ReduceAnd,
    /// XOR-reduction (parity), 1-bit result (1 operand).
    ReduceXor,
}

impl Op {
    /// Short mnemonic used by the textual netlist format.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Not => "not",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Eq => "eq",
            Op::Ult => "ult",
            Op::Slt => "slt",
            Op::ShlC(_) => "shlc",
            Op::ShrC(_) => "shrc",
            Op::SarC(_) => "sarc",
            Op::Shl => "shl",
            Op::Shr => "shr",
            Op::Sar => "sar",
            Op::Slice { .. } => "slice",
            Op::Concat => "concat",
            Op::Zext => "zext",
            Op::Sext => "sext",
            Op::Mux => "mux",
            Op::ReduceOr => "ror",
            Op::ReduceAnd => "rand",
            Op::ReduceXor => "rxor",
        }
    }
}

/// A node of the netlist graph.
#[derive(Clone, Debug)]
pub enum Node {
    /// A free primary input.
    #[allow(missing_docs)]
    Input { name: String, width: u32 },
    /// A constant value.
    Const(Bv),
    /// A combinational word-level operation.
    #[allow(missing_docs)]
    Op { op: Op, args: Vec<SignalId>, width: u32 },
    /// The output of a clocked register.
    Reg(RegInfo),
    /// A combinational (asynchronous) read port of a memory. Reads of
    /// out-of-range addresses yield zero.
    #[allow(missing_docs)]
    MemRead { mem: MemId, addr: SignalId, width: u32 },
}

impl Node {
    /// The width of the node's value in bits.
    pub fn width(&self) -> u32 {
        match self {
            Node::Input { width, .. } => *width,
            Node::Const(bv) => bv.width(),
            Node::Op { width, .. } => *width,
            Node::Reg(info) => info.width,
            Node::MemRead { width, .. } => *width,
        }
    }

    /// Iterates over the combinational fan-in signals of this node.
    ///
    /// Register nodes have no combinational fan-in (their `next` is a
    /// sequential dependency); memory reads depend on their address.
    pub fn comb_fanin(&self) -> impl Iterator<Item = SignalId> + '_ {
        let slice: &[SignalId] = match self {
            Node::Op { args, .. } => args,
            Node::MemRead { addr, .. } => std::slice::from_ref(addr),
            _ => &[],
        };
        slice.iter().copied()
    }
}

/// Declaration data of a register.
#[derive(Clone, Debug)]
pub struct RegInfo {
    /// Hierarchical name (unique within the netlist).
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Next-state signal; `None` until connected.
    pub next: Option<SignalId>,
    /// Reset/initial value applied by the simulator's `reset()`. Formal
    /// analyses start from a fully symbolic state and ignore this unless an
    /// analysis opts in.
    pub init: Option<Bv>,
    /// State classification metadata.
    pub meta: StateMeta,
}

/// A synchronous write port of a memory.
#[derive(Clone, Copy, Debug)]
pub struct WritePort {
    /// Write enable (1 bit).
    pub en: SignalId,
    /// Word address.
    pub addr: SignalId,
    /// Write data (memory word width).
    pub data: SignalId,
}

/// A memory array with synchronous write ports and asynchronous read ports.
///
/// Write ports are applied in declaration order on every clock edge; a later
/// port overrides an earlier one writing the same word in the same cycle.
#[derive(Clone, Debug)]
pub struct Memory {
    /// Hierarchical name (unique within the netlist).
    pub name: String,
    /// Number of words.
    pub words: u32,
    /// Word width in bits.
    pub width: u32,
    /// Initial contents applied on simulator reset (`None` = all zeros).
    pub init: Option<Vec<Bv>>,
    /// Synchronous write ports in priority order (later wins).
    pub write_ports: Vec<WritePort>,
    /// State classification metadata (applies to every word).
    pub meta: StateMeta,
}

/// Errors produced by [`Netlist::check`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum NetlistError {
    /// A register's `next` input was never connected.
    UnconnectedReg { name: String },
    /// Two named elements share a name.
    DuplicateName { name: String },
    /// The combinational logic contains a cycle through the given signal.
    CombLoop { through: String },
    /// A width constraint is violated.
    WidthMismatch { detail: String },
    /// A signal id refers outside the node table.
    DanglingSignal { detail: String },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnconnectedReg { name } => {
                write!(f, "register `{name}` has no next-state connection")
            }
            NetlistError::DuplicateName { name } => write!(f, "duplicate name `{name}`"),
            NetlistError::CombLoop { through } => {
                write!(f, "combinational loop through `{through}`")
            }
            NetlistError::WidthMismatch { detail } => write!(f, "width mismatch: {detail}"),
            NetlistError::DanglingSignal { detail } => write!(f, "dangling signal: {detail}"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A flat word-level netlist.
///
/// See the [module documentation](self) for an overview and an example.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    mems: Vec<Memory>,
    /// Named signals: inputs and registers are registered automatically;
    /// arbitrary wires can be named via [`Netlist::set_name`].
    names: BTreeMap<String, SignalId>,
    /// Output markers: roots kept alive by dead-code elimination and exposed
    /// by simulators / formal engines.
    outputs: BTreeMap<String, SignalId>,
    /// Constant dedup table.
    const_cache: std::collections::HashMap<Bv, SignalId>,
    /// Scope stack for hierarchical naming.
    scopes: Vec<String>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist { name: name.into(), ..Default::default() }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of signal nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of memories.
    pub fn num_mems(&self) -> usize {
        self.mems.len()
    }

    /// Access a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: SignalId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Access a memory by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn mem(&self, id: MemId) -> &Memory {
        &self.mems[id.index()]
    }

    pub(crate) fn node_mut(&mut self, id: SignalId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs in creation order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (SignalId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (SignalId(i as u32), n))
    }

    /// Iterates over `(id, memory)` pairs in creation order.
    pub fn iter_mems(&self) -> impl Iterator<Item = (MemId, &Memory)> {
        self.mems.iter().enumerate().map(|(i, m)| (MemId(i as u32), m))
    }

    /// The width of a signal.
    pub fn width_of(&self, id: SignalId) -> u32 {
        self.node(id).width()
    }

    /// Returns the wire handle for an existing signal id.
    pub fn wire_of(&self, id: SignalId) -> Wire {
        Wire { id, width: self.width_of(id) }
    }

    /// Looks up a named signal (input, register, or named wire).
    pub fn find(&self, name: &str) -> Option<Wire> {
        self.names.get(name).map(|&id| self.wire_of(id))
    }

    /// Looks up a named memory.
    pub fn find_mem(&self, name: &str) -> Option<MemId> {
        self.mems
            .iter()
            .position(|m| m.name == name)
            .map(|i| MemId(i as u32))
    }

    /// Iterates over all `(name, id)` bindings.
    pub fn iter_names(&self) -> impl Iterator<Item = (&str, SignalId)> {
        self.names.iter().map(|(n, &id)| (n.as_str(), id))
    }

    /// Iterates over declared outputs.
    pub fn iter_outputs(&self) -> impl Iterator<Item = (&str, SignalId)> {
        self.outputs.iter().map(|(n, &id)| (n.as_str(), id))
    }

    /// Looks up an output by name.
    pub fn output(&self, name: &str) -> Option<Wire> {
        self.outputs.get(name).map(|&id| self.wire_of(id))
    }

    // ------------------------------------------------------------------
    // Scoping
    // ------------------------------------------------------------------

    /// Pushes a hierarchy scope; subsequent names are prefixed `scope.`.
    pub fn push_scope(&mut self, scope: impl Into<String>) {
        self.scopes.push(scope.into());
    }

    /// Pops the innermost hierarchy scope.
    ///
    /// # Panics
    ///
    /// Panics if the scope stack is empty.
    pub fn pop_scope(&mut self) {
        self.scopes.pop().expect("pop_scope on empty scope stack");
    }

    /// Runs `f` inside the scope `name`, restoring the stack afterwards.
    pub fn scoped<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_scope(name);
        let r = f(self);
        self.pop_scope();
        r
    }

    /// The fully qualified name for `name` under the current scope stack.
    pub fn qualify(&self, name: &str) -> String {
        if self.scopes.is_empty() {
            name.to_string()
        } else {
            let mut s = self.scopes.join(".");
            s.push('.');
            s.push_str(name);
            s
        }
    }

    fn bind_name(&mut self, full: String, id: SignalId) {
        let prev = self.names.insert(full.clone(), id);
        assert!(prev.is_none(), "duplicate signal name `{full}`");
    }

    fn push_node(&mut self, node: Node) -> SignalId {
        let id = SignalId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    // ------------------------------------------------------------------
    // Node creation
    // ------------------------------------------------------------------

    /// Creates a primary input. The name is qualified by the current scope.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or invalid width.
    pub fn input(&mut self, name: &str, width: u32) -> Wire {
        assert!((1..=crate::bv::MAX_WIDTH).contains(&width), "invalid input width {width}");
        let full = self.qualify(name);
        let id = self.push_node(Node::Input { name: full.clone(), width });
        self.bind_name(full, id);
        Wire { id, width }
    }

    /// Creates (or reuses) a constant node.
    pub fn constant(&mut self, value: Bv) -> Wire {
        if let Some(&id) = self.const_cache.get(&value) {
            return Wire { id, width: value.width() };
        }
        let id = self.push_node(Node::Const(value));
        self.const_cache.insert(value, id);
        Wire { id, width: value.width() }
    }

    /// Shorthand for a constant of the given width and value.
    pub fn lit(&mut self, width: u32, value: u64) -> Wire {
        self.constant(Bv::new(width, value))
    }

    /// Creates a register with the given qualified name, width, simulator
    /// reset value and metadata. Connect its next-state via
    /// [`Netlist::connect_reg`].
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or invalid width.
    pub fn reg(&mut self, name: &str, width: u32, init: Option<Bv>, meta: StateMeta) -> RegHandle {
        assert!((1..=crate::bv::MAX_WIDTH).contains(&width), "invalid register width {width}");
        if let Some(bv) = init {
            assert_eq!(bv.width(), width, "register `{name}` init width mismatch");
        }
        let full = self.qualify(name);
        let id = self.push_node(Node::Reg(RegInfo {
            name: full.clone(),
            width,
            next: None,
            init,
            meta,
        }));
        self.bind_name(full, id);
        RegHandle { id, width }
    }

    /// Connects a register's next-state input.
    ///
    /// # Panics
    ///
    /// Panics if the register is already connected or widths differ.
    pub fn connect_reg(&mut self, reg: RegHandle, next: Wire) {
        assert_eq!(reg.width, next.width, "register next-state width mismatch");
        match &mut self.nodes[reg.id.index()] {
            Node::Reg(info) => {
                assert!(info.next.is_none(), "register `{}` connected twice", info.name);
                info.next = Some(next.id);
            }
            _ => panic!("connect_reg on a non-register node"),
        }
    }

    /// Convenience: register whose next-state is `mux(en, data, self)`.
    pub fn reg_en(
        &mut self,
        name: &str,
        en: Wire,
        data: Wire,
        init: Option<Bv>,
        meta: StateMeta,
    ) -> Wire {
        let r = self.reg(name, data.width, init, meta);
        let next = self.mux(en, data, r.wire());
        self.connect_reg(r, next);
        r.wire()
    }

    /// Creates a memory array. Write ports are added via [`Netlist::mem_write`].
    ///
    /// # Panics
    ///
    /// Panics on duplicate names, zero words, or invalid width.
    pub fn memory(&mut self, name: &str, words: u32, width: u32, meta: StateMeta) -> MemId {
        assert!(words >= 1, "memory `{name}` must have at least one word");
        assert!((1..=crate::bv::MAX_WIDTH).contains(&width), "invalid memory width {width}");
        let full = self.qualify(name);
        assert!(
            self.mems.iter().all(|m| m.name != full),
            "duplicate memory name `{full}`"
        );
        let id = MemId(self.mems.len() as u32);
        self.mems.push(Memory {
            name: full,
            words,
            width,
            init: None,
            write_ports: Vec::new(),
            meta,
        });
        id
    }

    /// Sets the initial contents of a memory (simulator reset state).
    ///
    /// # Panics
    ///
    /// Panics if the vector length or word widths do not match.
    pub fn set_mem_init(&mut self, mem: MemId, init: Vec<Bv>) {
        let m = &mut self.mems[mem.index()];
        assert_eq!(init.len() as u32, m.words, "memory `{}` init length mismatch", m.name);
        assert!(
            init.iter().all(|bv| bv.width() == m.width),
            "memory `{}` init width mismatch",
            m.name
        );
        m.init = Some(init);
    }

    /// Creates an asynchronous read port. Out-of-range reads return zero.
    pub fn mem_read(&mut self, mem: MemId, addr: Wire) -> Wire {
        let width = self.mems[mem.index()].width;
        let id = self.push_node(Node::MemRead { mem, addr: addr.id, width });
        Wire { id, width }
    }

    /// Adds a synchronous write port: when `en` is 1 at a clock edge, word
    /// `addr` is updated with `data`. Out-of-range writes are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `en` is not 1 bit wide or `data` width differs from the word width.
    pub fn mem_write(&mut self, mem: MemId, en: Wire, addr: Wire, data: Wire) {
        assert_eq!(en.width, 1, "write enable must be 1 bit");
        let m = &self.mems[mem.index()];
        assert_eq!(data.width, m.width, "write data width mismatch for `{}`", m.name);
        self.mems[mem.index()].write_ports.push(WritePort {
            en: en.id,
            addr: addr.id,
            data: data.id,
        });
    }

    /// Creates a raw operator node. Prefer the typed convenience methods
    /// (`and`, `add`, `mux`, ...) — this low-level entry point exists for
    /// netlist-to-netlist transforms that replay existing nodes. Width
    /// rules are checked by [`Netlist::check`].
    pub fn op_node(&mut self, op: Op, args: Vec<SignalId>, width: u32) -> Wire {
        let id = self.push_node(Node::Op { op, args, width });
        Wire { id, width }
    }

    /// Gives `wire` a (qualified) name for later lookup and nicer traces.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn set_name(&mut self, wire: Wire, name: &str) {
        let full = self.qualify(name);
        self.bind_name(full, wire.id);
    }

    /// Declares `wire` as a design output named `name` (qualified by scope).
    /// The name is also registered for [`Netlist::find`] lookup if free.
    ///
    /// # Panics
    ///
    /// Panics on duplicate output names.
    pub fn mark_output(&mut self, name: &str, wire: Wire) {
        let full = self.qualify(name);
        let prev = self.outputs.insert(full.clone(), wire.id);
        assert!(prev.is_none(), "duplicate output `{full}`");
        self.names.entry(full).or_insert(wire.id);
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Validates the netlist: all registers connected, widths consistent,
    /// no combinational loops, no dangling signal references.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`NetlistError`].
    pub fn check(&self) -> Result<(), NetlistError> {
        let n = self.nodes.len() as u32;
        // The detail is formatted only for a dangling id: a checked
        // netlist pays no allocation per reference.
        let check_id = |id: SignalId, what: &dyn Fn() -> String| -> Result<(), NetlistError> {
            if id.0 >= n {
                Err(NetlistError::DanglingSignal { detail: what() })
            } else {
                Ok(())
            }
        };

        for (id, node) in self.iter_nodes() {
            match node {
                Node::Reg(info) => {
                    let next = info.next.ok_or_else(|| NetlistError::UnconnectedReg {
                        name: info.name.clone(),
                    })?;
                    check_id(next, &|| format!("next of reg `{}`", info.name))?;
                    if self.width_of(next) != info.width {
                        return Err(NetlistError::WidthMismatch {
                            detail: format!("reg `{}` next width", info.name),
                        });
                    }
                }
                Node::Op { op, args, width } => {
                    for &a in args {
                        check_id(a, &|| format!("arg of op node {}", id.0))?;
                    }
                    self.check_op(*op, args, *width)?;
                }
                Node::MemRead { mem, addr, .. } => {
                    check_id(*addr, &|| "memread addr".to_string())?;
                    if mem.index() >= self.mems.len() {
                        return Err(NetlistError::DanglingSignal {
                            detail: format!("memread references missing memory {}", mem.0),
                        });
                    }
                }
                _ => {}
            }
        }
        for m in &self.mems {
            for wp in &m.write_ports {
                check_id(wp.en, &|| format!("write en of `{}`", m.name))?;
                check_id(wp.addr, &|| format!("write addr of `{}`", m.name))?;
                check_id(wp.data, &|| format!("write data of `{}`", m.name))?;
                if self.width_of(wp.en) != 1 {
                    return Err(NetlistError::WidthMismatch {
                        detail: format!("write enable of `{}` must be 1 bit", m.name),
                    });
                }
                if self.width_of(wp.data) != m.width {
                    return Err(NetlistError::WidthMismatch {
                        detail: format!("write data of `{}`", m.name),
                    });
                }
            }
        }
        // Combinational loop check: DFS over comb fan-in.
        crate::analysis::comb_topo_order(self)
            .map_err(|name| NetlistError::CombLoop { through: name })?;
        Ok(())
    }

    fn check_op(&self, op: Op, args: &[SignalId], width: u32) -> Result<(), NetlistError> {
        let w = |i: usize| self.width_of(args[i]);
        let fail = |detail: String| Err(NetlistError::WidthMismatch { detail });
        let expect_args = |n: usize| -> Result<(), NetlistError> {
            if args.len() != n {
                Err(NetlistError::WidthMismatch {
                    detail: format!("{} expects {} args, got {}", op.mnemonic(), n, args.len()),
                })
            } else {
                Ok(())
            }
        };
        match op {
            Op::Not => {
                expect_args(1)?;
                if w(0) != width {
                    return fail("not width".into());
                }
            }
            Op::And | Op::Or | Op::Xor | Op::Add | Op::Sub | Op::Mul => {
                expect_args(2)?;
                if w(0) != width || w(1) != width {
                    return fail(format!("{} operand widths", op.mnemonic()));
                }
            }
            Op::Eq | Op::Ult | Op::Slt => {
                expect_args(2)?;
                if w(0) != w(1) || width != 1 {
                    return fail(format!("{} widths", op.mnemonic()));
                }
            }
            Op::ShlC(_) | Op::ShrC(_) | Op::SarC(_) => {
                expect_args(1)?;
                if w(0) != width {
                    return fail("const shift width".into());
                }
            }
            Op::Shl | Op::Shr | Op::Sar => {
                expect_args(2)?;
                if w(0) != width {
                    return fail("dyn shift width".into());
                }
            }
            Op::Slice { hi, lo } => {
                expect_args(1)?;
                if hi < lo || hi >= w(0) || width != hi - lo + 1 {
                    return fail(format!("slice [{hi}:{lo}] of width {}", w(0)));
                }
            }
            Op::Concat => {
                expect_args(2)?;
                if w(0) + w(1) != width {
                    return fail("concat width".into());
                }
            }
            Op::Zext | Op::Sext => {
                expect_args(1)?;
                if w(0) > width {
                    return fail("extension narrows".into());
                }
            }
            Op::Mux => {
                expect_args(3)?;
                if w(0) != 1 || w(1) != width || w(2) != width {
                    return fail("mux widths".into());
                }
            }
            Op::ReduceOr | Op::ReduceAnd | Op::ReduceXor => {
                expect_args(1)?;
                if width != 1 {
                    return fail("reduction result width".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_check_counter() {
        let mut n = Netlist::new("counter");
        let en = n.input("en", 1);
        let count = n.reg("count", 8, Some(Bv::zero(8)), StateMeta::default());
        let one = n.lit(8, 1);
        let inc = n.add(count.wire(), one);
        let next = n.mux(en, inc, count.wire());
        n.connect_reg(count, next);
        n.mark_output("count", count.wire());
        n.check().unwrap();
        assert_eq!(n.find("count").unwrap().width(), 8);
        assert_eq!(n.output("count").unwrap().id(), count.id());
    }

    #[test]
    fn unconnected_register_fails_check() {
        let mut n = Netlist::new("t");
        let _ = n.reg("r", 4, None, StateMeta::default());
        match n.check() {
            Err(NetlistError::UnconnectedReg { name }) => assert_eq!(name, "r"),
            other => panic!("expected UnconnectedReg, got {other:?}"),
        }
    }

    #[test]
    fn scoped_names() {
        let mut n = Netlist::new("t");
        n.push_scope("soc");
        n.push_scope("xbar");
        let w = n.input("req", 1);
        n.pop_scope();
        n.pop_scope();
        assert_eq!(n.find("soc.xbar.req").unwrap().id(), w.id());
        assert!(n.find("req").is_none());
    }

    #[test]
    fn scoped_closure_restores_stack() {
        let mut n = Netlist::new("t");
        n.scoped("a", |n| {
            n.input("x", 1);
        });
        let y = n.input("y", 1);
        assert_eq!(n.find("y").unwrap().id(), y.id());
        assert!(n.find("a.x").is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate signal name")]
    fn duplicate_names_panic() {
        let mut n = Netlist::new("t");
        n.input("x", 1);
        n.input("x", 2);
    }

    #[test]
    fn constants_are_deduplicated() {
        let mut n = Netlist::new("t");
        let a = n.lit(8, 42);
        let b = n.lit(8, 42);
        let c = n.lit(8, 43);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn memory_ports() {
        let mut n = Netlist::new("t");
        let mem = n.memory("ram", 16, 32, StateMeta::memory(true));
        let addr = n.input("addr", 4);
        let data = n.input("data", 32);
        let en = n.input("en", 1);
        let rd = n.mem_read(mem, addr);
        n.mem_write(mem, en, addr, data);
        n.mark_output("rd", rd);
        n.check().unwrap();
        assert_eq!(n.mem(mem).write_ports.len(), 1);
        assert_eq!(rd.width(), 32);
    }

    #[test]
    fn comb_loop_detected() {
        let mut n = Netlist::new("t");
        let a = n.input("a", 1);
        // Build x = a AND x manually by forging the arg list.
        let x = n.op_node(Op::And, vec![a.id(), SignalId(1)], 1);
        assert_eq!(x.id(), SignalId(1));
        match n.check() {
            Err(NetlistError::CombLoop { .. }) => {}
            other => panic!("expected CombLoop, got {other:?}"),
        }
    }

    #[test]
    fn reg_en_holds_without_enable() {
        let mut n = Netlist::new("t");
        let en = n.input("en", 1);
        let d = n.input("d", 8);
        let q = n.reg_en("q", en, d, Some(Bv::zero(8)), StateMeta::default());
        n.mark_output("q", q);
        n.check().unwrap();
    }
}
