//! The difference layer of a proof session (`upec_ssc::difference`) on the
//! 8-word SoC: how much of the two instances' cones it pairs, and that a
//! certifying session derives its clauses but rejects a wrong one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ssc_soc::{Soc, SocConfig};
use upec_ssc::{ProductArtifact, Session, SessionPrefix, UpecAnalysis, UpecSpec};

fn soc_fixed(words: u32) -> (Soc, UpecSpec) {
    (Soc::build(SocConfig::verification_sized(words, words)), UpecSpec::soc_fixed())
}

/// Coverage floor: at 8 words each cycle's layer walks 7,480 node pairs,
/// gives 3,458 of them an XOR node and emits 5,961 clauses (2,437 frontier
/// and 3,524 select clauses). A pairing that stops early (say, fan-ins
/// paired out of order, or the walk halting at the first complemented edge)
/// leaves the solver to find those steps by search again, which cost 6x
/// the `matrix` wall time before the layer. Leaf and transparent pairs get
/// no clause, so a layer has fewer clauses than walked pairs. The layer
/// must also keep to the gate-level CNF: adding it encodes at most one new
/// node per XOR pair.
#[test]
fn layer_pairs_the_next_state_cones_of_the_8_word_soc() {
    let (soc, spec) = soc_fixed(8);
    let an = UpecAnalysis::new(&soc.netlist, spec).expect("spec ok");
    let mut sess = Session::new(&an, 2);
    for cycle in 0..2 {
        let encoded = sess.encoded_nodes();
        let layer = sess.difference_layer(cycle);
        assert!(layer.pairs >= 7_480, "cycle {cycle}: {} pairs", layer.pairs);
        assert!(layer.xor_pairs >= 3_458, "cycle {cycle}: {} XOR pairs", layer.xor_pairs);
        assert!(layer.clauses.len() >= 5_961, "cycle {cycle}: {} clauses", layer.clauses.len());
        assert!(layer.clauses.len() < layer.pairs, "leaf pairs get no clause");
        for c in &layer.clauses {
            sess.ipc_mut().add_implied_clause(&c.lits, &c.splits);
        }
        let new = sess.encoded_nodes() - encoded;
        assert!(new <= layer.xor_pairs, "cycle {cycle}: {new} newly encoded nodes");
    }
}

/// Layer clauses enter a certifying session as derived lemmas, never as
/// inputs: the checker derives the real ones and panics on one with its
/// `¬d_x` literal flipped to `d_x`, which identical instances falsify.
#[test]
fn a_certifying_session_derives_layer_clauses_and_rejects_a_flipped_one() {
    let (soc, spec) = soc_fixed(8);
    let art = Arc::new(ProductArtifact::for_spec(&soc.netlist, &spec).expect("spec ok"));
    let prefix = SessionPrefix::build_certifying(&art, &spec, 1).expect("spec ok");
    let an = UpecAnalysis::bind(art.clone(), spec).expect("spec binds");
    let mut sess = Session::with_prefix(&an, prefix);
    let layer = sess.difference_layer(0);
    for c in &layer.clauses[..500] {
        sess.ipc_mut().add_implied_clause(&c.lits, &c.splits);
    }
    let c = layer.clauses[500..].iter().find(|c| c.lits.len() == 3).expect("a 3-literal clause");
    let mut flipped = c.lits.clone();
    flipped[2] = flipped[2].not();
    let err = catch_unwind(AssertUnwindSafe(|| {
        sess.ipc_mut().add_implied_clause(&flipped, &c.splits);
    }))
    .expect_err("a flipped layer clause was accepted");
    let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or("");
    assert!(msg.starts_with("rup:"), "unexpected panic: {msg}");
}
