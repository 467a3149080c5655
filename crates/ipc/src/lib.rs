//! # ssc-ipc — Interval Property Checking
//!
//! Bounded property checking from a **symbolic initial state**, the proof
//! engine behind UPEC-SSC (paper Sec. 3.2):
//!
//! - [`Unroller`]: lowers a netlist over k cycles into an AIG, with fresh
//!   symbolic variables for the starting state — covering *all possible
//!   histories* of the design, which is what turns bounded checks into
//!   unbounded guarantees,
//! - [`Ipc`]: *assume/prove* property checks discharged by the `ssc-sat`
//!   CDCL solver, incremental across repeated checks,
//! - permanent constraints for reachability invariants, and model
//!   extraction for counterexample construction.
//!
//! # The persistent-session architecture
//!
//! One `Ipc` is designed to outlive an **entire proof campaign** — every
//! window of the unrolled UPEC-SSC procedure (paper Alg. 2) and every
//! iteration of the inductive fixpoint (Alg. 1) run against the same
//! solver. Three mechanisms make that sound and fast:
//!
//! 1. **Monotone growth.** The [`Unroller`] only ever appends cycles, the
//!    AIG only ever appends nodes, and the CNF encoder only ever encodes
//!    *new* cones ([`Ipc::encoded_nodes`] is the proof counter: its growth
//!    per window is bounded by the newly unrolled cycle's logic, not by the
//!    window length).
//! 2. **Assumption-based queries.** Standing constraints and the
//!    state-equality antecedent are passed as solver *assumptions*, so a
//!    query never poisons the clause database and all learnt clauses carry
//!    over to later windows.
//! 3. **Activation literals** ([`Ipc::activation_literal`] /
//!    [`Ipc::add_clause_under`] / [`Ipc::retire_activation`]). The negated
//!    proof goal is a *disjunction* (some tracked state atom diverges) and
//!    must be a clause, but the atom set shrinks between iterations.
//!    Guarding the clause with an activation literal makes it removable on
//!    a purely additive solver: retiring the literal (a unit clause)
//!    deactivates the obligation while every learnt lemma stays valid.
//!
//! Between windows, [`Ipc::collect_garbage`] can shed stale learnt clauses
//! (core-tier clauses with LBD ≤ 3 and locked clauses survive) so an
//! arbitrarily long session does not grow without bound.
//!
//! # Copy-on-write session forks
//!
//! A *portfolio* of related proof campaigns (the same design under several
//! scenario specifications) shares most of its encoded formula: the
//! unrolled cycles, the input-equality macros and the state-equality cones
//! are scenario-independent. [`Ipc::fork`] turns one checker into a base
//! image for all of them: build and encode the shared prefix once, then
//! fork per scenario. A fork snapshots the AIG, the node→variable table and
//! the full solver state (clause arena, learnt clauses, saved phases,
//! VSIDS activities) — all flat arenas, so the snapshot is a handful of
//! memcpys — after which each fork grows independently and pays only for
//! its scenario-specific additions. Everything learnt on the shared prefix
//! before the fork point benefits every fork.
//!
//! # Example: an unbounded proof from a 1-cycle window
//!
//! ```
//! use ssc_netlist::{Netlist, Bv, StateMeta};
//! use ssc_ipc::{Ipc, PropertyResult};
//! use ssc_aig::words;
//!
//! // count' = count + en
//! let mut n = Netlist::new("counter");
//! let en = n.input("en", 1);
//! let count = n.reg("count", 8, Some(Bv::zero(8)), StateMeta::default());
//! let one = n.lit(8, 1);
//! let inc = n.add(count.wire(), one);
//! let next = n.mux(en, inc, count.wire());
//! n.connect_reg(count, next);
//! n.mark_output("count", count.wire());
//!
//! let mut ipc = Ipc::new(&n);
//! let s0 = ipc.unroller().reg_state(count.id(), 0).clone();
//! let s1 = ipc.unroller().reg_state(count.id(), 1).clone();
//! let en0 = ipc.unroller().input(en, 0).clone();
//! let aig = ipc.unroller_mut().aig_mut();
//! let en8 = words::zext(&en0, 8);
//! let expect = words::add(aig, &s0, &en8);
//! let goal = words::eq(aig, &s1, &expect);
//! assert_eq!(ipc.check(&[], goal), PropertyResult::Holds);
//! ```

#![warn(missing_docs)]

mod check;
mod unroll;

pub use check::{words_equal, Ipc, PropertyResult};
pub use ssc_aig::cnf::ModelError;
pub use unroll::Unroller;
