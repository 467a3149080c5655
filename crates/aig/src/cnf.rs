//! Gate-level Tseitin transformation of AIG cones into a SAT solver.
//!
//! Not every AIG node gets a solver variable. [`CnfEncoder`] encodes whole
//! gates, after Eén, Mishchenko & Sörensson ("Applying Logic Synthesis for
//! Speeding Up SAT", SAT 2007), and gives a variable to:
//!
//! - every node asked for by [`CnfEncoder::lit_of`] (the *roots*),
//! - every input reached from a root,
//! - every fan-in of an encoded gate, as the two shapes below define it.
//!
//! An AND node is encoded as one of two gates:
//!
//! - **MUX/XOR.** `AND(¬AND(x, t), ¬AND(¬x, e))` is `¬ITE(x, t, e)`: one
//!   variable and four ternary clauses over `x`, `t` and `e`. XOR and XNOR
//!   are the case `e = ¬t`. The two inner ANDs get no variable.
//! - **AND tree.** Otherwise the node is the AND of the leaves of a tree:
//!   starting at the node, each uncomplemented fan-in that is an AND of
//!   fanout 1 (see [`Aig`]'s fan-out counts), not yet encoded and not
//!   MUX-shaped is expanded into its own fan-ins, up to 8 leaves
//!   (`MAX_TREE_LEAVES`). One variable, one binary clause per leaf and one
//!   long clause. A tree that expands nothing is the plain three-clause
//!   AND.
//!
//! The ANDs inside a gate get no variable, so a model has no value for
//! them: [`CnfEncoder::model_word`] reports them [`ModelError::NotEncoded`]
//! until they are asked for as roots, which encodes them on their own.
//! Everything the model is read for — state and input words — is either a
//! root or a fan-in of an encoded gate.
//!
//! A 2-safety proof session adds a difference layer (see
//! `upec_ssc::difference`) that follows these gates. It pairs each node
//! `x_a` of one product instance with its twin `x_b` in the other, but
//! encodes `XOR(x_a, x_b)` only for a pair where one of the two already
//! owns a variable ([`CnfEncoder::owns_var`]). The ANDs inside a gate stay
//! without one, so a paired node need not own a variable. Where only
//! one node of a pair owns one, the XOR encodes its twin on its own: a
//! tree that stops at fan-ins that own variables already.

use crate::{Aig, AigNode, AigRef};
use ssc_sat::{Lit, Solver, Var};

/// Why a model value could not be produced (see [`CnfEncoder::model_word`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelError {
    /// The node owns no solver variable: it was never encoded, or it is an
    /// AND inside an encoded gate (see the [module docs](self)). Encode it
    /// (e.g. via [`CnfEncoder::lit_of`]) *before* the solve whose model you
    /// want to read.
    NotEncoded,
    /// The node is encoded, but its variable has no value in the most
    /// recent model — it was created *after* that model's solve call.
    /// The past model cannot be extended retroactively; re-solve first.
    NotInModel,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NotEncoded => write!(f, "AIG node owns no solver variable"),
            ModelError::NotInModel => {
                write!(f, "AIG node was encoded after the model-producing solve")
            }
        }
    }
}

/// Sentinel in the node→var table for "not yet encoded".
const NO_VAR: u32 = u32::MAX;

/// The most leaves one AND-tree variable takes. A larger tree stops
/// growing here, and the ANDs left among its leaves become trees of their
/// own; a cap of 2 leaves MUX/XOR gates and plain ANDs only. Median wall
/// time of the 8-word UPEC-SSC scenario matrix over 10 rotating rounds on
/// a 2-core host, by cap: 2: 5.91 s, 8: 5.40 s, 16: 5.76 s, 32: 6.22 s,
/// uncapped: 6.25 s. A cap of 8 was fastest in 9 of 10 rounds against 2
/// and in every round against the others.
const MAX_TREE_LEAVES: usize = 8;

/// The gate an AND node is encoded as (see the [module docs](self)).
#[derive(Clone, Copy)]
enum Gate {
    /// `¬ITE(x, t, e)`, fan-ins `[x, t, e]`.
    Mux,
    /// The AND of the fan-ins.
    Tree,
}

/// Incrementally encodes AIG nodes into solver clauses.
///
/// Nodes are encoded on demand ([`CnfEncoder::lit_of`]) so only the cone of
/// influence of queried references enters the solver, gate by gate (see
/// the [module docs](self) for the two gate shapes and which nodes own a
/// variable). The encoder keeps a node→variable table across calls;
/// already-encoded nodes are reused, which makes repeated property checks
/// over the same unrolling incremental.
///
/// The table is a dense `Vec` indexed by AIG node id (node ids are allocated
/// contiguously), so the per-node lookup on the encoding hot path is one
/// bounds-checked load instead of a hash probe. `Clone` snapshots the whole
/// table (one memcpy), which is how forked proof sessions
/// (`ssc_ipc::Ipc::fork`) share an encoded prefix without re-encoding it.
#[derive(Clone, Debug, Default)]
pub struct CnfEncoder {
    /// Node id → solver variable index, [`NO_VAR`] when unencoded.
    map: Vec<u32>,
    /// Number of nodes that own a variable (entries of `map` that are not
    /// [`NO_VAR`]).
    encoded: usize,
    /// Scratch stack for the iterative cone DFS (kept to avoid reallocation
    /// across the many `lit_of` calls of an incremental session).
    stack: Vec<u32>,
    /// Scratch: the fan-ins of the gate being encoded.
    fanins: Vec<AigRef>,
    /// Scratch: the frontier of an AND-tree walk.
    walk: Vec<AigRef>,
}

impl CnfEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        CnfEncoder::default()
    }

    /// Number of AIG nodes that own a solver variable: the roots asked for
    /// so far and the inputs and gate fan-ins in their cones.
    /// The ANDs inside an encoded gate are not counted (see the
    /// [module docs](self)).
    ///
    /// This is the counter behind the per-iteration `encoded_delta` proof
    /// obligation of the incremental UPEC-SSC engine: snapshotting it before
    /// and after a check bounds how much new encoding work the check cost.
    pub fn encoded_nodes(&self) -> usize {
        self.encoded
    }

    /// Whether `r`'s node owns a solver variable: it was asked for, or it is
    /// an input or a gate fan-in in the cone of a node that was. The ANDs
    /// inside an encoded gate own none (see the [module docs](self)).
    #[inline]
    pub fn owns_var(&self, r: AigRef) -> bool {
        self.lookup(r.node()).is_some()
    }

    #[inline]
    fn lookup(&self, node: u32) -> Option<Var> {
        match self.map.get(node as usize) {
            Some(&v) if v != NO_VAR => Some(Var::from_index(v as usize)),
            _ => None,
        }
    }

    #[inline]
    fn record(&mut self, node: u32, var: Var) {
        let idx = node as usize;
        if self.map.len() <= idx {
            self.map.resize(idx + 1, NO_VAR);
        }
        debug_assert_eq!(self.map[idx], NO_VAR);
        self.map[idx] = var.index() as u32;
        self.encoded += 1;
    }

    /// The literal of an encoded fan-in.
    #[inline]
    fn fanin_lit(&self, r: AigRef) -> Lit {
        self.lookup(r.node()).expect("fan-ins are encoded before their gate").lit(r.is_compl())
    }

    /// The solver literal equivalent to AIG reference `r`, adding Tseitin
    /// clauses to `solver` for any not-yet-encoded gates in its cone.
    pub fn lit_of(&mut self, solver: &mut Solver, aig: &Aig, r: AigRef) -> Lit {
        let var = self.var_of(solver, aig, r.node());
        var.lit(r.is_compl())
    }

    /// Encodes a whole word; returns literals LSB-first.
    pub fn lits_of(&mut self, solver: &mut Solver, aig: &Aig, word: &[AigRef]) -> Vec<Lit> {
        word.iter().map(|&r| self.lit_of(solver, aig, r)).collect()
    }

    fn var_of(&mut self, solver: &mut Solver, aig: &Aig, node: u32) -> Var {
        if let Some(v) = self.lookup(node) {
            return v;
        }
        // Fault-injection point on the cold (not-yet-encoded) path: one
        // relaxed atomic load unless a chaos plan targets the encoder.
        ssc_sat::chaos::point(ssc_sat::chaos::Site::Encode, 0);
        // Iterative DFS: encode a gate's fan-ins before the gate itself.
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.push(node);
        while let Some(&n) = stack.last() {
            if self.lookup(n).is_some() {
                stack.pop();
                continue;
            }
            match *aig.node_kind(n) {
                AigNode::Const => {
                    let v = solver.new_var();
                    // The constant node is FALSE in plain polarity.
                    solver.add_clause([v.neg()]);
                    self.record(n, v);
                    stack.pop();
                }
                AigNode::Input(_) => {
                    let v = solver.new_var();
                    self.record(n, v);
                    stack.pop();
                }
                AigNode::And(a, b) => {
                    // The gate is recomputed when the node is popped again
                    // after its fan-ins, and comes out the same: the MUX
                    // shape is structural, and an AND inside a tree has
                    // fanout 1, so no fan-in's cone contains it and
                    // encoding the fan-ins cannot encode it.
                    let gate = self.gate(aig, a, b);
                    let pending = stack.len();
                    for &f in &self.fanins {
                        if self.lookup(f.node()).is_none() {
                            stack.push(f.node());
                        }
                    }
                    if stack.len() > pending {
                        continue;
                    }
                    stack.pop();
                    let z = solver.new_var();
                    self.emit(solver, gate, z);
                    self.record(n, z);
                }
            }
        }
        self.stack = stack;
        self.lookup(node).expect("cone DFS encodes the root")
    }

    /// Classifies the AND node `AND(a, b)` and fills `self.fanins` with
    /// the fan-ins its gate pushes.
    fn gate(&mut self, aig: &Aig, a: AigRef, b: AigRef) -> Gate {
        self.fanins.clear();
        if let Some((x, t, e)) = aig.mux_shape(a, b) {
            self.fanins.extend([x, t, e]);
            return Gate::Mux;
        }
        self.walk.clear();
        self.walk.extend([b, a]);
        let mut leaves = 2;
        while let Some(r) = self.walk.pop() {
            match *aig.node_kind(r.node()) {
                AigNode::And(c, d)
                    if leaves < MAX_TREE_LEAVES
                        && !r.is_compl()
                        && aig.fanout(r.node()) == 1
                        && self.lookup(r.node()).is_none()
                        && aig.mux_shape(c, d).is_none() =>
                {
                    leaves += 1;
                    self.walk.extend([d, c]);
                }
                _ => self.fanins.push(r),
            }
        }
        Gate::Tree
    }

    /// Adds the clauses defining `z` as `gate` over the encoded
    /// `self.fanins`.
    fn emit(&self, solver: &mut Solver, gate: Gate, z: Var) {
        match gate {
            Gate::Mux => {
                let [x, t, e] = [0, 1, 2].map(|i| self.fanin_lit(self.fanins[i]));
                // z <-> ¬ITE(x, t, e)
                solver.add_clause([!x, !t, z.neg()]);
                solver.add_clause([x, !e, z.neg()]);
                solver.add_clause([!x, t, z.pos()]);
                solver.add_clause([x, e, z.pos()]);
            }
            Gate::Tree => {
                // z <-> AND of the leaves
                for &f in &self.fanins {
                    solver.add_clause([z.neg(), self.fanin_lit(f)]);
                }
                solver.add_clause(
                    std::iter::once(z.pos()).chain(self.fanins.iter().map(|&f| !self.fanin_lit(f))),
                );
            }
        }
    }

    /// Evaluates an already-encoded word in the solver's most recent model.
    ///
    /// # Errors
    ///
    /// - [`ModelError::NotEncoded`] if a node of the word owns no variable
    ///   (encode via [`CnfEncoder::lit_of`]/[`CnfEncoder::lits_of`] *before*
    ///   the solve),
    /// - [`ModelError::NotInModel`] if a node was encoded only after the
    ///   model-producing solve, so the stored model has no value for it.
    pub fn model_word(&self, solver: &Solver, word: &[AigRef]) -> Result<u64, ModelError> {
        let mut out = 0u64;
        for (i, r) in word.iter().enumerate() {
            let v = if r.is_const() {
                r.const_value()
            } else {
                let var = self.lookup(r.node()).ok_or(ModelError::NotEncoded)?;
                solver
                    .model_value(var.lit(r.is_compl()))
                    .ok_or(ModelError::NotInModel)?
            };
            out |= u64::from(v) << i;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words;
    use proptest::prelude::*;
    use ssc_sat::SolveResult;

    #[test]
    fn unsat_for_contradiction() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.and(a, b);
        let y = aig.and(a, b.not());
        let mut solver = Solver::new();
        let mut cnf = CnfEncoder::new();
        let lx = cnf.lit_of(&mut solver, &aig, x);
        let ly = cnf.lit_of(&mut solver, &aig, y);
        solver.add_clause([lx]);
        solver.add_clause([ly]);
        assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn model_matches_aig_semantics() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let f = {
            let ab = aig.xor(a, b);
            aig.mux(c, ab, a)
        };
        let mut solver = Solver::new();
        let mut cnf = CnfEncoder::new();
        let lf = cnf.lit_of(&mut solver, &aig, f);
        solver.add_clause([lf]);
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        let va = cnf.model_word(&solver, &[a]).unwrap() == 1;
        let vb = cnf.model_word(&solver, &[b]).unwrap() == 1;
        let vc = cnf.model_word(&solver, &[c]).unwrap() == 1;
        let expect = if vc { va ^ vb } else { va };
        assert!(expect, "model must satisfy the asserted function");
    }

    #[test]
    fn adder_equivalence_proved_by_sat() {
        // Prove a + b == b + a for 6-bit words: the miter must be UNSAT.
        let mut aig = Aig::new();
        let a = words::inputs(&mut aig, 6);
        let b = words::inputs(&mut aig, 6);
        let ab = words::add(&mut aig, &a, &b);
        let ba = words::add(&mut aig, &b, &a);
        let equal = words::eq(&mut aig, &ab, &ba);
        let mut solver = Solver::new();
        let mut cnf = CnfEncoder::new();
        let miter = cnf.lit_of(&mut solver, &aig, equal.not());
        solver.add_clause([miter]);
        assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn sub_is_not_commutative() {
        let mut aig = Aig::new();
        let a = words::inputs(&mut aig, 6);
        let b = words::inputs(&mut aig, 6);
        let ab = words::sub(&mut aig, &a, &b);
        let ba = words::sub(&mut aig, &b, &a);
        let equal = words::eq(&mut aig, &ab, &ba);
        let mut solver = Solver::new();
        let mut cnf = CnfEncoder::new();
        let miter = cnf.lit_of(&mut solver, &aig, equal.not());
        solver.add_clause([miter]);
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        // The model must witness a != b... specifically 2a != 2b mod 64 is
        // not required; but a - b == b - a mod 64 iff 2(a-b) == 0.
        let va = cnf.model_word(&solver, &a).unwrap();
        let vb = cnf.model_word(&solver, &b).unwrap();
        assert_ne!(va.wrapping_sub(vb).wrapping_mul(2) & 0x3F, 0);
    }

    #[test]
    fn constant_refs_encode_correctly() {
        let mut solver = Solver::new();
        let mut cnf = CnfEncoder::new();
        let aig = Aig::new();
        let t = cnf.lit_of(&mut solver, &aig, AigRef::TRUE);
        solver.add_clause([t]);
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        let f = cnf.lit_of(&mut solver, &aig, AigRef::FALSE);
        assert_eq!(solver.solve(&[f]), SolveResult::Unsat);
    }

    #[test]
    fn incremental_encoding_reuses_nodes() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.and(a, b);
        let mut solver = Solver::new();
        let mut cnf = CnfEncoder::new();
        let _ = cnf.lit_of(&mut solver, &aig, x);
        let n1 = cnf.encoded_nodes();
        let _ = cnf.lit_of(&mut solver, &aig, x.not());
        assert_eq!(cnf.encoded_nodes(), n1, "re-query must not re-encode");
    }

    #[test]
    fn model_errors_distinguish_unencoded_from_stale() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let mut solver = Solver::new();
        let mut cnf = CnfEncoder::new();
        let la = cnf.lit_of(&mut solver, &aig, a);
        solver.add_clause([la]);

        // Before any solve there is no model at all.
        assert_eq!(cnf.model_word(&solver, &[a]), Err(ModelError::NotInModel));
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        assert_eq!(cnf.model_word(&solver, &[a]), Ok(1));

        // `b` was never encoded: NotEncoded.
        assert_eq!(cnf.model_word(&solver, &[b]), Err(ModelError::NotEncoded));

        // Encoding `b` *after* the solve yields NotInModel until re-solved.
        let _ = cnf.lit_of(&mut solver, &aig, b);
        assert_eq!(cnf.model_word(&solver, &[b]), Err(ModelError::NotInModel));
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        assert!(cnf.model_word(&solver, &[b]).is_ok());

        // Constants never need encoding.
        assert_eq!(cnf.model_word(&solver, &[AigRef::TRUE]), Ok(1));
    }

    /// Encodes `roots` into a fresh solver; returns its variable and
    /// clause counts.
    fn sizes(aig: &Aig, roots: &[AigRef]) -> (usize, u64) {
        let mut solver = Solver::new();
        let mut cnf = CnfEncoder::new();
        for &r in roots {
            cnf.lit_of(&mut solver, aig, r);
        }
        assert_eq!(cnf.encoded_nodes(), solver.num_vars(), "one variable per encoded node");
        (cnf.encoded_nodes(), solver.stats().clauses)
    }

    #[test]
    fn xor_and_mux_are_one_variable_and_four_clauses() {
        let mut aig = Aig::new();
        let [x, t, e] = [(); 3].map(|_| aig.input());
        let xnor = aig.xnor(x, t);
        assert_eq!(sizes(&aig, &[xnor]), (3, 4));
        let xor = aig.xor(x, t.not());
        assert_eq!(sizes(&aig, &[xor]), (3, 4));
        let mux = aig.mux(x, t.not(), e);
        assert_eq!(sizes(&aig, &[mux]), (4, 4));
    }

    #[test]
    fn single_fanout_and_tree_is_one_variable() {
        let mut aig = Aig::new();
        let ins: Vec<AigRef> = (0..8).map(|_| aig.input()).collect();
        // 8 leaves: 8 binary clauses and one 9-literal clause.
        let all = aig.and_all(ins.iter().copied());
        assert_eq!(sizes(&aig, &[all]), (9, 9));
        // An OR tree is a complemented AND tree.
        let any = aig.or_all(ins.iter().copied());
        assert_eq!(sizes(&aig, &[any]), (9, 9));
    }

    #[test]
    fn shared_and_keeps_its_own_variable() {
        let mut aig = Aig::new();
        let [a, b, c, d] = [(); 4].map(|_| aig.input());
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        let abd = aig.and(ab, d);
        // `ab` has two fan-outs, so `abc` and `abd` are 2-leaf ANDs over it.
        assert_eq!(sizes(&aig, &[abc, abd]), (7, 9));
    }

    #[test]
    fn word_equality_is_one_xnor_variable_per_bit_under_capped_trees() {
        let mut aig = Aig::new();
        let a = words::inputs(&mut aig, 32);
        let b = words::inputs(&mut aig, 32);
        let eq = words::eq(&mut aig, &a, &b);
        // 64 inputs, 32 XNORs, and the balanced 32-leaf AND as 7 trees of
        // at most 8 leaves (38 leaves in all, counting the 6 inner trees).
        // One AIG node each, as before, would be 64 + 127 variables.
        assert_eq!(MAX_TREE_LEAVES, 8);
        assert_eq!(sizes(&aig, &[eq]), (64 + 32 + 7, 32 * 4 + 38 + 7));
    }

    /// One gate of a random AIG.
    #[derive(Clone, Copy, Debug)]
    enum Pick {
        And,
        Or,
        Xor,
        Mux,
        And3,
    }

    /// `inputs` inputs, then one gate per step over three earlier
    /// references (indices modulo the references so far, complemented by
    /// the low bits of the step's flips). Returns the AIG and the inputs.
    fn random_aig(
        inputs: usize,
        steps: &[(Pick, (usize, usize, usize), u8)],
    ) -> (Aig, Vec<AigRef>) {
        let mut aig = Aig::new();
        let ins: Vec<AigRef> = (0..inputs).map(|_| aig.input()).collect();
        let mut refs = ins.clone();
        for &(pick, (i, j, k), flips) in steps {
            let [a, b, c] = [(0, i), (1, j), (2, k)].map(|(bit, idx)| {
                let r = refs[idx % refs.len()];
                if flips >> bit & 1 == 1 {
                    r.not()
                } else {
                    r
                }
            });
            let r = match pick {
                Pick::And => aig.and(a, b),
                Pick::Or => aig.or(a, b),
                Pick::Xor => aig.xor(a, b),
                Pick::Mux => aig.mux(a, b, c),
                Pick::And3 => {
                    let ab = aig.and(a, b);
                    aig.and(ab, c)
                }
            };
            refs.push(r);
        }
        (aig, ins)
    }

    /// Every AIG node, uncomplemented.
    fn all_nodes(aig: &Aig) -> Vec<AigRef> {
        (0..aig.num_nodes() as u32).map(|n| AigRef::new(n, false)).collect()
    }

    /// Every node that owns a variable has, in the solver's model, the
    /// value `Aig::eval` gives it on the model's inputs. An input without
    /// a variable reads false: no encoded node depends on it.
    fn model_agrees_with_eval(
        aig: &Aig,
        cnf: &CnfEncoder,
        solver: &Solver,
        inputs: &[AigRef],
    ) -> Result<(), TestCaseError> {
        let vals: Vec<bool> =
            inputs.iter().map(|&i| cnf.model_word(solver, &[i]) == Ok(1)).collect();
        let nodes = all_nodes(aig);
        for (&r, want) in nodes.iter().zip(aig.eval(&vals, &nodes)) {
            match cnf.model_word(solver, &[r]) {
                Ok(v) => prop_assert_eq!(v == 1, want, "node {} disagrees with eval", r.node()),
                Err(e) => prop_assert_eq!(e, ModelError::NotEncoded, "node {}", r.node()),
            }
        }
        Ok(())
    }

    fn pick_strategy() -> impl Strategy<Value = Pick> {
        prop_oneof![
            Just(Pick::And),
            Just(Pick::Or),
            Just(Pick::Xor),
            Just(Pick::Mux),
            Just(Pick::And3),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The gate-level encoding against `Aig::eval`, on a certifying
        /// solver: random AIGs mix XOR, MUX, shared and single-fanout AND
        /// shapes (a reference drawn twice is shared).
        #[test]
        fn encoding_agrees_with_eval_on_random_aigs(
            inputs in 2usize..7,
            steps in proptest::collection::vec(
                (pick_strategy(), (0usize..64, 0usize..64, 0usize..64), 0u8..8),
                1..40,
            ),
            root_picks in proptest::collection::vec(0usize..64, 1..5),
            vectors in proptest::collection::vec(0u64..64, 1..4),
        ) {
            let (aig, ins) = random_aig(inputs, &steps);
            let nodes = all_nodes(&aig);
            let roots: Vec<AigRef> = root_picks
                .iter()
                .map(|&p| nodes[aig.num_nodes() - 1 - p % (aig.num_nodes() - 1)])
                .collect();
            let mut solver = Solver::certifying();
            let mut cnf = CnfEncoder::new();
            let lits: Vec<Lit> = roots.iter().map(|&r| cnf.lit_of(&mut solver, &aig, r)).collect();
            let evals: Vec<Vec<bool>> = (0u64..1 << inputs)
                .map(|v| {
                    let bits: Vec<bool> = (0..inputs).map(|i| v >> i & 1 == 1).collect();
                    aig.eval(&bits, &roots)
                })
                .collect();

            // Each root in each polarity is satisfiable iff some input
            // vector evaluates it so.
            for (i, &l) in lits.iter().enumerate() {
                for value in [false, true] {
                    let sat = solver.solve(&[if value { l } else { !l }]) == SolveResult::Sat;
                    prop_assert_eq!(sat, evals.iter().any(|e| e[i] == value), "root {}", i);
                    if sat {
                        model_agrees_with_eval(&aig, &cnf, &solver, &ins)?;
                    }
                }
            }

            // Under a full input vector each root is satisfiable exactly at
            // its evaluated value.
            for &v in &vectors {
                let v = v & ((1 << inputs) - 1);
                let fixed: Vec<Lit> = ins
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &r)| {
                        cnf.lookup(r.node()).map(|var| var.lit(v >> i & 1 == 0))
                    })
                    .collect();
                for (i, &l) in lits.iter().enumerate() {
                    for value in [false, true] {
                        let mut assumptions = fixed.clone();
                        assumptions.push(if value { l } else { !l });
                        let sat = solver.solve(&assumptions) == SolveResult::Sat;
                        prop_assert_eq!(sat, evals[v as usize][i] == value, "root {} at {:b}", i, v);
                        if sat {
                            model_agrees_with_eval(&aig, &cnf, &solver, &ins)?;
                        }
                    }
                }
            }

            // A node encoded after the last solve has no model value until
            // the next one; asking for every node encodes the ANDs inside
            // the gates too.
            for &r in &nodes {
                if cnf.model_word(&solver, &[r]) == Err(ModelError::NotEncoded) {
                    cnf.lit_of(&mut solver, &aig, r);
                    prop_assert_eq!(cnf.model_word(&solver, &[r]), Err(ModelError::NotInModel));
                }
            }
            prop_assert_eq!(cnf.encoded_nodes(), aig.num_nodes() - 1, "all but the constant");
            prop_assert_eq!(solver.solve(&[]), SolveResult::Sat);
            model_agrees_with_eval(&aig, &cnf, &solver, &ins)?;
            let stats = solver.stats();
            prop_assert_eq!(stats.certified, stats.solves - stats.interrupts);
        }
    }
}
