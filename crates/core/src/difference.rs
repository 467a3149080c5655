//! The difference layer of a 2-safety proof session.
//!
//! Every UPEC-SSC check asks whether state atoms that are equal in both
//! product instances stay equal. Instances `a` and `b` are two copies of
//! one netlist, so one cycle of either is the same AND gates over
//! different state and inputs. The solver has no literal for "this signal
//! is equal in both instances", so without help it learns every "equal
//! fan-ins give an equal output" step through case splits.
//!
//! A cycle's layer ([`crate::Session::difference_layer`]) walks the
//! two copies of the cycle in pairs, from next-state bits down to the
//! cycle's state and inputs, pairing the fan-ins of two AND gates by
//! position ([`Aig::fanins`]). The layer follows the gates of the CNF
//! (`ssc_aig::cnf`), not the AIG's AND nodes:
//!
//! - **XOR pairs.** A walked pair `(x_a, x_b)` gets the node
//!   `d_x = XOR(x_a, x_b)`, "x differs", only if one of its two nodes
//!   already owns a solver variable when the layer is built
//!   ([`Ipc::owns_var`]): a gate output or a gate fan-in. Structural
//!   hashing makes `d_x` the complement of the XNOR the equality terms
//!   build, so the pairs at the leaves and roots are the very literals the
//!   standing assumptions and the goal mention.
//! - **Transparent pairs.** All other walked pairs lie inside a MUX/XOR
//!   gate or an AND tree and get no node, no variable and no clause. An
//!   XOR over them would force each inner AND to own a variable and undo
//!   the gate-level encoding.
//! - **Frontier clauses.** The *frontier* of an XOR pair is the set of XOR
//!   pairs reached from its fan-in pairs through transparent pairs. The
//!   pair gets the clause `d_f₁ ∨ … ∨ d_fₙ ∨ ¬d_x`: an equal frontier gives
//!   an equal output, the step gate-level information flow tracking takes
//!   at every gate (GLIFT; Tiwari et al., ASPLOS 2009). The walk down to
//!   the frontier stops without a clause at a transparent pair reached
//!   with opposite complement bits (equal fan-ins would make its two
//!   references differ) and at a transparent leaf pair (nothing below it
//!   can show it equal).
//! - **Select clauses.** An XOR pair shaped `x = ¬ITE(s, t, e)` in both
//!   instances ([`Aig::mux_shape`]), whose `s`, `t` and `e` pairs are XOR
//!   pairs, also gets `d_s ∨ d_t ∨ ¬s_a ∨ ¬d_x` and
//!   `d_s ∨ d_e ∨ s_a ∨ ¬d_x`: an equal select and an equal chosen branch
//!   give an equal output, whatever the other branch does. The frontier
//!   clause covers only equal `s`, `t` and `e`, and the MUX's inner ANDs
//!   are transparent, so without these clauses the solver would find the
//!   select case by search. XOR shapes (`e = ¬t`) skip them: their
//!   frontier is `{s, t}`, and the frontier clause subsumes both.
//!
//! With the clauses in the solver, unit propagation carries equality from
//! the assumed pre-state to every next-state bit whose cone sees no
//! difference. The clauses follow from the AIG, so no check's answer can
//! change; a certifying solver derives each one by case splits over
//! variables its pairs already own.

use ssc_aig::fx::{FxHashMap, FxHashSet};
use ssc_aig::{Aig, AigRef};
use ssc_ipc::Ipc;

/// One clause of a difference layer.
#[derive(Clone, Debug)]
pub struct ImpliedClause {
    /// A frontier clause `d_f₁ ∨ … ∨ d_fₙ ∨ ¬d_x` or a select clause
    /// `d_s ∨ d_t ∨ ¬s_a ∨ ¬d_x` / `d_s ∨ d_e ∨ s_a ∨ ¬d_x`, over the
    /// pairs' XOR nodes (see the [module docs](self)); `¬d_x` comes last. A
    /// frontier pair that is one node in both instances cannot differ and
    /// is left out.
    pub lits: Vec<AigRef>,
    /// The nodes a certifying solver's checker may split on to derive the
    /// clause (see `ssc_sat::rup::Checker::derive`). A frontier clause
    /// splits on `x_a`, the frontier's `a` nodes, `x_b` and the frontier's
    /// `b` nodes; a select clause on `x_a, s_a, t_a, e_a, x_b, s_b, t_b,
    /// e_b`. Each clause's literals encode whatever of them owned no
    /// variable, so the splits encode nothing.
    pub splits: Vec<AigRef>,
}

/// The difference layer of one unrolled cycle (see the
/// [module docs](self)).
#[derive(Clone, Debug)]
pub struct DifferenceLayer {
    /// Node pairs walked, leaf pairs included.
    pub pairs: usize,
    /// Walked pairs that got an XOR node; the rest are transparent.
    pub xor_pairs: usize,
    /// Each XOR pair's frontier clause, then its select clauses, fan-in
    /// pairs' clauses before the clauses of the pairs that read them.
    pub clauses: Vec<ImpliedClause>,
}

/// A walked pair.
#[derive(Clone, Copy)]
struct Pair {
    /// Whether one of the two nodes owned a solver variable when the walk
    /// ran, which makes the pair an XOR pair.
    owned: bool,
    /// The XOR node of an XOR pair, once built.
    d: Option<AigRef>,
    /// Whether the pair is an AND pair whose fan-ins were walked
    /// (otherwise a leaf pair).
    and: bool,
}

type Pairs = FxHashMap<(AigRef, AigRef), Pair>;

/// The walked pairs of a layer, before its XOR nodes exist.
struct Walk {
    pairs: Pairs,
    /// Every walked pair in post-order: fan-in pairs before the pairs that
    /// read them.
    order: Vec<(AigRef, AigRef)>,
}

/// Builds the difference layer over `roots` (next-state bits of instance
/// `a` next to the same bits of instance `b`) in `ipc`'s AIG. The walk
/// stops at inputs, at the nodes in `leaves` (the cycle's state bits of both
/// instances), and wherever the two nodes of a pair are not both AND gates.
/// It reads which nodes own a variable first, then builds the XOR nodes, so
/// the encoder needs no snapshot; nothing enters the solver.
pub(crate) fn layer(
    ipc: &mut Ipc<'_>,
    roots: &[(AigRef, AigRef)],
    leaves: &FxHashSet<u32>,
) -> DifferenceLayer {
    let walk = walk(ipc.unroller().aig(), |r| ipc.owns_var(r), roots, leaves);
    build(ipc.unroller_mut().aig_mut(), walk)
}

/// Walks the pairs below `roots`, noting for each whether `owns_var` holds
/// for one of its nodes.
fn walk(
    aig: &Aig,
    owns_var: impl Fn(AigRef) -> bool,
    roots: &[(AigRef, AigRef)],
    leaves: &FxHashSet<u32>,
) -> Walk {
    let mut pairs = Pairs::default();
    let mut order = Vec::new();
    // Post-order walk: a pair is pushed open, then pushed again closing
    // below its fan-in pairs, and closed once they are. A leaf pair closes
    // when it is opened.
    let mut stack: Vec<((AigRef, AigRef), bool)> = Vec::new();
    for &(ra, rb) in roots {
        if ra.node() != rb.node() {
            stack.push(((plain(ra), plain(rb)), false));
        }
        while let Some(((a, b), closing)) = stack.pop() {
            if !closing {
                if pairs.contains_key(&(a, b)) {
                    continue;
                }
                let walked = !leaves.contains(&a.node()) && !leaves.contains(&b.node());
                if let (Some(fa), Some(fb), true) = (aig.fanins(a), aig.fanins(b), walked) {
                    stack.push(((a, b), true));
                    for (pa, pb) in fa.into_iter().zip(fb) {
                        let key = (plain(pa), plain(pb));
                        if pa.node() != pb.node() && !pairs.contains_key(&key) {
                            stack.push((key, false));
                        }
                    }
                    continue;
                }
            }
            let owned = owns_var(a) || owns_var(b);
            pairs.insert((a, b), Pair { owned, d: None, and: closing });
            order.push((a, b));
        }
    }
    Walk { pairs, order }
}

/// Builds the XOR node of every XOR pair of `walk`, then the layer's
/// clauses.
fn build(aig: &mut Aig, mut walk: Walk) -> DifferenceLayer {
    let mut xor_pairs = 0;
    for &(a, b) in &walk.order {
        let pair = walk.pairs.get_mut(&(a, b)).expect("walked pairs are recorded");
        if pair.owned {
            pair.d = Some(aig.xor(a, b));
            xor_pairs += 1;
        }
    }
    let mut clauses = Vec::new();
    for &(a, b) in &walk.order {
        let pair = walk.pairs[&(a, b)];
        if let (Some(d), true) = (pair.d, pair.and) {
            clauses.extend(frontier_clause(aig, &walk.pairs, a, b, d));
            clauses.extend(select_clauses(aig, &walk.pairs, a, b, d).into_iter().flatten());
        }
    }
    DifferenceLayer { pairs: walk.order.len(), xor_pairs, clauses }
}

/// The frontier clause of the XOR AND pair `(a, b)` with XOR node `d`;
/// `None` if a fan-in pair always differs or the walk to the frontier stops
/// (see the [module docs](self)).
fn frontier_clause(
    aig: &Aig,
    pairs: &Pairs,
    a: AigRef,
    b: AigRef,
    d: AigRef,
) -> Option<ImpliedClause> {
    let mut lits = Vec::new();
    let (mut front_a, mut front_b) = (Vec::new(), Vec::new());
    // On the side where `x` owns a variable, a transparent pair's node lies
    // inside `x`'s gate and has one reader there, so no transparent pair is
    // reached twice. Frontier pairs can be (a MUX's select).
    let mut stack = vec![(a, b)];
    while let Some((xa, xb)) = stack.pop() {
        let [fa, fb] = [xa, xb].map(|x| aig.fanins(x).expect("an AND pair"));
        for (pa, pb) in fa.into_iter().zip(fb) {
            if pa.node() == pb.node() {
                if pa == pb {
                    continue;
                }
                return None;
            }
            let key = (plain(pa), plain(pb));
            let same = pa.is_compl() == pb.is_compl();
            match pairs[&key] {
                Pair { d: Some(dp), .. } => {
                    let lit = if same { dp } else { dp.not() };
                    if lits.contains(&lit.not()) {
                        return None;
                    }
                    if !lits.contains(&lit) {
                        lits.push(lit);
                        front_a.push(pa);
                        front_b.push(pb);
                    }
                }
                Pair { and: true, .. } if same => stack.push((pa, pb)),
                _ => return None,
            }
        }
    }
    lits.push(d.not());
    let mut splits = vec![a];
    splits.extend(front_a);
    splits.push(b);
    splits.extend(front_b);
    Some(ImpliedClause { lits, splits })
}

/// The two select clauses of the XOR AND pair `(a, b)` with XOR node `d`,
/// if both nodes are `¬ITE(s, t, e)`, not XOR-shaped, and the `s`, `t` and
/// `e` pairs are XOR pairs.
fn select_clauses(
    aig: &Aig,
    pairs: &Pairs,
    a: AigRef,
    b: AigRef,
    d: AigRef,
) -> Option<[ImpliedClause; 2]> {
    let [fa, fb] = [a, b].map(|x| aig.fanins(x).expect("an AND pair"));
    let (sa, ta, ea) = aig.mux_shape(fa[0], fa[1])?;
    let (sb, tb, eb) = aig.mux_shape(fb[0], fb[1])?;
    if ea == ta.not() && eb == tb.not() {
        return None;
    }
    let ds = differs(pairs, sa, sb)?;
    let dt = differs(pairs, ta, tb)?;
    let de = differs(pairs, ea, eb)?;
    let splits = vec![a, sa, ta, ea, b, sb, tb, eb];
    Some([
        ImpliedClause { lits: vec![ds, dt, sa.not(), d.not()], splits: splits.clone() },
        ImpliedClause { lits: vec![ds, de, sa, d.not()], splits },
    ])
}

/// "`ra` and `rb` differ": the XOR node of their pair, complemented if
/// exactly one of the references is; `None` unless they are two nodes
/// whose pair is an XOR pair.
fn differs(pairs: &Pairs, ra: AigRef, rb: AigRef) -> Option<AigRef> {
    if ra.node() == rb.node() {
        return None;
    }
    let d = pairs.get(&(plain(ra), plain(rb)))?.d?;
    Some(if ra.is_compl() == rb.is_compl() { d } else { d.not() })
}

/// `r` without its complement bit.
fn plain(r: AigRef) -> AigRef {
    if r.is_compl() {
        r.not()
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssc_aig::cnf::CnfEncoder;
    use ssc_sat::{Lit, SolveResult, Solver, Var};

    /// One MUX pair `x = ITE(s, t, e)` over fresh inputs: the layer gives
    /// its two inner AND pairs no node, and with an equal select that is
    /// true and an equal `t` its select clause leaves `x` no way to differ.
    /// Unit propagation alone refutes that, so the solve has no conflict.
    #[test]
    fn select_clauses_propagate_an_equal_output_from_the_chosen_branch() {
        let mut aig = Aig::new();
        let [sa, ta, ea, sb, tb, eb] = [(); 6].map(|_| aig.input());
        let (xa, xb) = (aig.mux(sa, ta, ea), aig.mux(sb, tb, eb));
        let mut solver = Solver::certifying();
        let mut enc = CnfEncoder::new();
        for x in [xa, xb] {
            enc.lit_of(&mut solver, &aig, x);
        }
        let walked = walk(&aig, |r| enc.owns_var(r), &[(xa, xb)], &FxHashSet::default());
        let layer = build(&mut aig, walked);
        assert_eq!((layer.pairs, layer.xor_pairs), (6, 4), "inner AND pairs stay transparent");
        assert_eq!(layer.clauses.len(), 3, "one frontier clause, two select clauses");
        for c in &layer.clauses {
            let lits: Vec<Lit> = c.lits.iter().map(|&r| enc.lit_of(&mut solver, &aig, r)).collect();
            let splits: Vec<Var> =
                c.splits.iter().map(|&r| enc.lit_of(&mut solver, &aig, r).var()).collect();
            solver.add_implied_clause(lits, &splits);
        }
        // The layer's XOR nodes, found again by structural hashing.
        let nodes = aig.num_nodes();
        let [ds, dt, dx] = [(sa, sb), (ta, tb), (xa, xb)].map(|(a, b)| aig.xor(a, b));
        assert_eq!(aig.num_nodes(), nodes, "no new XOR node");
        let mut lit = |r| enc.lit_of(&mut solver, &aig, r);
        let assumptions = [!lit(ds), !lit(dt), lit(sa), lit(dx)];
        assert_eq!(solver.solve(&assumptions), SolveResult::Unsat);
        let stats = solver.stats();
        assert_eq!(stats.conflicts, 0, "unit propagation alone refutes a differing output");
        assert_eq!(stats.certified, 1);
    }
}
