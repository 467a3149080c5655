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
//! position ([`Aig::fanins`]). Each pair `(x_a, x_b)` gets
//! the node `d_x = XOR(x_a, x_b)`, "x differs". Structural hashing makes
//! it the complement of the XNOR the equality terms build, so the pairs at
//! the leaves and roots are the very literals the standing assumptions and
//! the goal mention. Each AND pair whose fan-ins are paired gets the clause
//! `d_p ∨ d_q ∨ ¬d_x`: equal fan-ins give an equal output, which is the
//! step gate-level information flow tracking takes at every gate (GLIFT;
//! Tiwari et al., ASPLOS 2009). With the clauses in the solver, unit
//! propagation carries equality from the assumed pre-state to every
//! next-state bit whose cone sees no difference. The clauses follow from
//! the AIG, so no check's answer can change.

use ssc_aig::fx::{FxHashMap, FxHashSet};
use ssc_aig::{Aig, AigRef};

/// One clause of a difference layer.
#[derive(Clone, Debug)]
pub struct ImpliedClause {
    /// `d_p ∨ d_q ∨ ¬d_x` over the pairs' XOR nodes; a fan-in pair that is
    /// one node in both instances cannot differ and is left out.
    pub lits: Vec<AigRef>,
    /// The nodes a certifying solver's checker may split on to derive the
    /// clause (see `ssc_sat::rup::Checker::derive`), all of them paired:
    /// `x_a` and its fan-ins, the fan-ins of paired AND fan-ins (instance
    /// `b`'s next to `a`'s), then `x_b` and its fan-ins.
    pub splits: Vec<AigRef>,
}

/// The difference layer of one unrolled cycle (see the
/// [module docs](self)).
#[derive(Clone, Debug)]
pub struct DifferenceLayer {
    /// Node pairs walked, leaf pairs included.
    pub pairs: usize,
    /// One clause per AND pair whose fan-ins are paired, fan-in pairs
    /// before the pairs that read them.
    pub clauses: Vec<ImpliedClause>,
}

/// A walked pair: its XOR node, and whether it is an AND pair whose
/// fan-ins were walked (otherwise a leaf pair).
#[derive(Clone, Copy)]
struct Pair {
    d: AigRef,
    and: bool,
}

type Pairs = FxHashMap<(AigRef, AigRef), Pair>;

/// Builds the difference layer over `roots` (next-state bits of instance
/// `a` next to the same bits of instance `b`) in `aig`. The walk stops at
/// inputs, at the nodes in `leaves` (the cycle's state bits of both
/// instances), and wherever the two nodes of a pair are not both AND gates.
pub(crate) fn layer(
    aig: &mut Aig,
    roots: &[(AigRef, AigRef)],
    leaves: &FxHashSet<u32>,
) -> DifferenceLayer {
    let mut pairs = Pairs::default();
    let mut clauses = Vec::new();
    // Post-order walk: a pair is pushed open, then pushed again closing
    // below its fan-in pairs, and closed once they are.
    let mut stack: Vec<((AigRef, AigRef), bool)> = Vec::new();
    for &(ra, rb) in roots {
        if ra.node() != rb.node() {
            stack.push(((plain(ra), plain(rb)), false));
        }
        while let Some(((a, b), closing)) = stack.pop() {
            if closing {
                let d = aig.xor(a, b);
                pairs.insert((a, b), Pair { d, and: true });
                clauses.extend(clause(aig, &pairs, a, b, d));
                continue;
            }
            if pairs.contains_key(&(a, b)) {
                continue;
            }
            let walked = !leaves.contains(&a.node()) && !leaves.contains(&b.node());
            match (aig.fanins(a), aig.fanins(b)) {
                (Some(fa), Some(fb)) if walked => {
                    stack.push(((a, b), true));
                    for (pa, pb) in fa.into_iter().zip(fb) {
                        let key = (plain(pa), plain(pb));
                        if pa.node() != pb.node() && !pairs.contains_key(&key) {
                            stack.push((key, false));
                        }
                    }
                }
                _ => {
                    let d = aig.xor(a, b);
                    pairs.insert((a, b), Pair { d, and: false });
                }
            }
        }
    }
    DifferenceLayer { pairs: pairs.len(), clauses }
}

/// The clause `d_p ∨ d_q ∨ ¬d_x` of the closed AND pair `(a, b)`, whose
/// fan-in pairs are closed too; `None` if a fan-in pair always differs.
fn clause(aig: &Aig, pairs: &Pairs, a: AigRef, b: AigRef, d: AigRef) -> Option<ImpliedClause> {
    let [fa, fb] = [a, b].map(|x| aig.fanins(x).expect("an AND pair"));
    let mut lits = Vec::with_capacity(3);
    for (pa, pb) in fa.into_iter().zip(fb) {
        match differs(pairs, pa, pb) {
            AigRef::FALSE => {}
            AigRef::TRUE => return None,
            dp => lits.push(dp),
        }
    }
    lits.push(d.not());
    let paired = |(pa, pb): &(AigRef, AigRef)| pa.node() != pb.node();
    let fanin_pairs: Vec<(AigRef, AigRef)> = fa.into_iter().zip(fb).filter(paired).collect();
    let mut splits = vec![a];
    splits.extend(fanin_pairs.iter().map(|&(pa, _)| pa));
    for &(pa, pb) in &fanin_pairs {
        if pairs[&(plain(pa), plain(pb))].and {
            let [ga, gb] = [pa, pb].map(|x| aig.fanins(x).expect("an AND pair"));
            for (gpa, gpb) in ga.into_iter().zip(gb).filter(paired) {
                splits.extend([gpa, gpb]);
            }
        }
    }
    splits.push(b);
    splits.extend(fanin_pairs.iter().map(|&(_, pb)| pb));
    Some(ImpliedClause { lits, splits })
}

/// "`ra` and `rb` differ": FALSE or TRUE for two references to one node,
/// else the closed pair's XOR node, complemented if exactly one of the
/// references is.
fn differs(pairs: &Pairs, ra: AigRef, rb: AigRef) -> AigRef {
    if ra.node() == rb.node() {
        return if ra == rb { AigRef::FALSE } else { AigRef::TRUE };
    }
    let d = pairs[&(plain(ra), plain(rb))].d;
    if ra.is_compl() == rb.is_compl() {
        d
    } else {
        d.not()
    }
}

/// `r` without its complement bit.
fn plain(r: AigRef) -> AigRef {
    if r.is_compl() {
        r.not()
    } else {
        r
    }
}
