//! # ssc-aig — And-Inverter Graphs and bit-blasting
//!
//! The bridge between the word-level netlist IR and the SAT solver:
//!
//! - [`Aig`]: an And-Inverter Graph with structural hashing and local
//!   simplification (two-level rules),
//! - [`words`]: word-level operations on vectors of AIG literals (ripple
//!   adders, comparators, barrel shifters, mux trees),
//! - [`lower`]: one-cycle lowering of a netlist — given AIG literals for
//!   every leaf (inputs, register outputs, memory words) it produces the
//!   values of all combinational signals plus next-state functions,
//! - [`cnf`]: gate-level Tseitin transformation into a
//!   [`ssc_sat::Solver`]. MUX/XOR gates and single-fanout AND trees get
//!   one variable each; a variable is owned by every node asked for, every
//!   input in its cone and every fan-in of an encoded gate, but not by the
//!   ANDs inside a gate (see [`cnf`]). [`Aig`] keeps the fan-out counts
//!   the tree rule reads.
//!
//! # Example
//!
//! ```
//! use ssc_aig::{Aig, cnf::CnfEncoder};
//! use ssc_sat::{Solver, SolveResult};
//!
//! let mut aig = Aig::new();
//! let a = aig.input();
//! let b = aig.input();
//! let both = aig.and(a, b);
//! let mut solver = Solver::new();
//! let mut cnf = CnfEncoder::new();
//! let lit = cnf.lit_of(&mut solver, &aig, both);
//! solver.add_clause([lit]);
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! ```

#![warn(missing_docs)]

pub mod cnf;
pub mod fx;
pub mod lower;
pub mod words;

use fx::FxHashMap;

/// A reference to an AIG node with a complement bit: `node << 1 | compl`.
///
/// [`AigRef::FALSE`] and [`AigRef::TRUE`] are the two polarities of the
/// reserved constant node 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AigRef(u32);

// `not` flips the complement bit by value; `AigRef` deliberately keeps the
// AIG-literature name instead of implementing `std::ops::Not`.
#[allow(clippy::should_implement_trait)]
impl AigRef {
    /// Constant false.
    pub const FALSE: AigRef = AigRef(0);
    /// Constant true.
    pub const TRUE: AigRef = AigRef(1);

    /// The underlying node index.
    #[inline]
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// `true` if the reference is complemented.
    #[inline]
    pub fn is_compl(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented reference.
    #[inline]
    pub fn not(self) -> AigRef {
        AigRef(self.0 ^ 1)
    }

    /// Constructs a reference from node index and complement flag.
    #[inline]
    fn new(node: u32, compl: bool) -> AigRef {
        AigRef(node << 1 | u32::from(compl))
    }

    /// `true` if this is one of the constant references.
    #[inline]
    pub fn is_const(self) -> bool {
        self.node() == 0
    }

    /// Converts a constant reference to its boolean value.
    ///
    /// # Panics
    ///
    /// Panics if the reference is not constant.
    pub fn const_value(self) -> bool {
        assert!(self.is_const(), "const_value on non-constant ref");
        self.is_compl()
    }
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum AigNode {
    /// The reserved constant-false node (index 0).
    Const,
    /// A free input; payload is its position in input order.
    Input(u32),
    /// An AND gate.
    And(AigRef, AigRef),
}

/// An And-Inverter Graph with structural hashing.
///
/// See the [crate documentation](self) for an example.
#[derive(Clone, Debug)]
pub struct Aig {
    nodes: Vec<AigNode>,
    /// Node id → number of AND gates that take it as a fan-in. The CNF
    /// encoder folds single-fanout AND trees into one variable.
    fanout: Vec<u32>,
    inputs: Vec<u32>,
    /// Structural-hash table; Fx-hashed because this lookup dominates gate
    /// construction (one probe per [`Aig::and`]).
    strash: FxHashMap<(u32, u32), u32>,
}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl Aig {
    /// Creates an AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![AigNode::Const],
            fanout: vec![0],
            inputs: Vec::new(),
            strash: FxHashMap::default(),
        }
    }

    /// Total number of nodes (constant + inputs + AND gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.inputs.len()
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Creates a fresh input.
    pub fn input(&mut self) -> AigRef {
        let idx = self.nodes.len() as u32;
        let pos = self.inputs.len() as u32;
        self.nodes.push(AigNode::Input(pos));
        self.fanout.push(0);
        self.inputs.push(idx);
        AigRef::new(idx, false)
    }

    /// A constant reference for `b`.
    #[inline]
    pub fn constant(&self, b: bool) -> AigRef {
        if b {
            AigRef::TRUE
        } else {
            AigRef::FALSE
        }
    }

    /// AND gate with structural hashing and local simplification.
    pub fn and(&mut self, a: AigRef, b: AigRef) -> AigRef {
        // Constant / trivial rules.
        if a == AigRef::FALSE || b == AigRef::FALSE || a == b.not() {
            return AigRef::FALSE;
        }
        if a == AigRef::TRUE {
            return b;
        }
        if b == AigRef::TRUE || a == b {
            return a;
        }
        let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if let Some(&n) = self.strash.get(&(x.0, y.0)) {
            return AigRef::new(n, false);
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(AigNode::And(x, y));
        self.fanout.push(0);
        self.fanout[x.node() as usize] += 1;
        self.fanout[y.node() as usize] += 1;
        self.strash.insert((x.0, y.0), idx);
        AigRef::new(idx, false)
    }

    /// OR gate (via De Morgan).
    pub fn or(&mut self, a: AigRef, b: AigRef) -> AigRef {
        self.and(a.not(), b.not()).not()
    }

    /// XOR gate.
    pub fn xor(&mut self, a: AigRef, b: AigRef) -> AigRef {
        let n1 = self.and(a, b.not());
        let n2 = self.and(a.not(), b);
        self.or(n1, n2)
    }

    /// XNOR gate (equivalence).
    pub fn xnor(&mut self, a: AigRef, b: AigRef) -> AigRef {
        self.xor(a, b).not()
    }

    /// Multiplexer: `sel ? t : e`.
    pub fn mux(&mut self, sel: AigRef, t: AigRef, e: AigRef) -> AigRef {
        if t == e {
            return t;
        }
        let on = self.and(sel, t);
        let off = self.and(sel.not(), e);
        self.or(on, off)
    }

    /// Implication `a -> b`.
    pub fn implies(&mut self, a: AigRef, b: AigRef) -> AigRef {
        self.and(a, b.not()).not()
    }

    /// AND over an iterator (TRUE for empty input), built as a balanced tree.
    pub fn and_all(&mut self, refs: impl IntoIterator<Item = AigRef>) -> AigRef {
        let mut layer: Vec<AigRef> = refs.into_iter().collect();
        if layer.is_empty() {
            return AigRef::TRUE;
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 { self.and(pair[0], pair[1]) } else { pair[0] });
            }
            layer = next;
        }
        layer[0]
    }

    /// OR over an iterator (FALSE for empty input), built as a balanced tree.
    pub fn or_all(&mut self, refs: impl IntoIterator<Item = AigRef>) -> AigRef {
        let negs: Vec<AigRef> = refs.into_iter().map(AigRef::not).collect();
        self.and_all(negs).not()
    }

    /// Evaluates the AIG under an input assignment (`inputs[i]` drives the
    /// i-th created input).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Aig::num_inputs`].
    pub fn eval(&self, inputs: &[bool], refs: &[AigRef]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs(), "input arity mismatch");
        let mut vals = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            vals[i] = match node {
                AigNode::Const => false,
                AigNode::Input(pos) => inputs[*pos as usize],
                AigNode::And(a, b) => {
                    let va = vals[a.node() as usize] ^ a.is_compl();
                    let vb = vals[b.node() as usize] ^ b.is_compl();
                    va && vb
                }
            };
        }
        refs.iter().map(|r| vals[r.node() as usize] ^ r.is_compl()).collect()
    }

    /// The two fan-ins of `r`'s node in their stored order, if it is an
    /// AND gate (the complement bit of `r` itself is ignored); `None` for
    /// an input or the constant. Fan-ins are stored by ascending reference,
    /// so two gates built the same way over leaves created in the same
    /// order list theirs in the same order and pair up by position.
    pub fn fanins(&self, r: AigRef) -> Option<[AigRef; 2]> {
        match *self.node_kind(r.node()) {
            AigNode::And(a, b) => Some([a, b]),
            AigNode::Const | AigNode::Input(_) => None,
        }
    }

    /// `Some((x, t, e))` if `AND(a, b)` is `¬ITE(x, t, e)`: both fan-ins are
    /// complemented ANDs, `a = ¬AND(x, t)` and `b = ¬AND(¬x, e)` (in either
    /// order of `a`, `b` and of each AND's fan-ins). XOR and XNOR are the
    /// case `e = ¬t`. The one MUX matcher of the crate's users: the CNF
    /// encoder's MUX/XOR gates and the difference layer's select clauses.
    pub fn mux_shape(&self, a: AigRef, b: AigRef) -> Option<(AigRef, AigRef, AigRef)> {
        if !a.is_compl() || !b.is_compl() {
            return None;
        }
        let (AigNode::And(a0, a1), AigNode::And(b0, b1)) =
            (*self.node_kind(a.node()), *self.node_kind(b.node()))
        else {
            return None;
        };
        [(a0, a1), (a1, a0)].into_iter().find_map(|(x, t)| {
            if b0 == x.not() {
                Some((x, t, b1))
            } else if b1 == x.not() {
                Some((x, t, b0))
            } else {
                None
            }
        })
    }

    pub(crate) fn node_kind(&self, idx: u32) -> &AigNode {
        &self.nodes[idx as usize]
    }

    /// Number of AND gates that take node `idx` as a fan-in.
    pub(crate) fn fanout(&self, idx: u32) -> u32 {
        self.fanout[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rules() {
        let mut g = Aig::new();
        let a = g.input();
        assert_eq!(g.and(a, AigRef::FALSE), AigRef::FALSE);
        assert_eq!(g.and(a, AigRef::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, a.not()), AigRef::FALSE);
        assert_eq!(g.num_ands(), 0, "no gate should have been created");
    }

    #[test]
    fn structural_hashing_deduplicates() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn eval_basic_gates() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let and = g.and(a, b);
        let or = g.or(a, b);
        let xor = g.xor(a, b);
        let mux = g.mux(a, b, b.not());
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = g.eval(&[va, vb], &[and, or, xor, mux]);
            assert_eq!(out[0], va && vb);
            assert_eq!(out[1], va || vb);
            assert_eq!(out[2], va ^ vb);
            assert_eq!(out[3], if va { vb } else { !vb });
        }
    }

    #[test]
    fn and_or_all_balanced() {
        let mut g = Aig::new();
        let ins: Vec<AigRef> = (0..7).map(|_| g.input()).collect();
        let all = g.and_all(ins.iter().copied());
        let any = g.or_all(ins.iter().copied());
        let out = g.eval(&[true; 7], &[all, any]);
        assert_eq!(out, vec![true, true]);
        let mut partial = vec![true; 7];
        partial[3] = false;
        let out = g.eval(&partial, &[all, any]);
        assert_eq!(out, vec![false, true]);
        let out = g.eval(&[false; 7], &[all, any]);
        assert_eq!(out, vec![false, false]);
    }

    #[test]
    fn empty_reductions() {
        let mut g = Aig::new();
        assert_eq!(g.and_all([]), AigRef::TRUE);
        assert_eq!(g.or_all([]), AigRef::FALSE);
    }

    #[test]
    fn fanins_of_twin_gates_pair_up_by_position() {
        let mut g = Aig::new();
        let [a0, a1, b0, b1] = [(); 4].map(|_| g.input());
        let xa = g.and(a1, a0.not());
        let xb = g.and(b1, b0.not());
        assert_eq!(g.fanins(xa), Some([a0.not(), a1]));
        assert_eq!(g.fanins(xb.not()), Some([b0.not(), b1]));
        assert_eq!(g.fanins(a0), None);
        assert_eq!(g.fanins(AigRef::TRUE), None);
    }

    #[test]
    fn const_value_accessor() {
        assert!(!AigRef::FALSE.const_value());
        assert!(AigRef::TRUE.const_value());
    }
}
