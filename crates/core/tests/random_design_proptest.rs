//! Property-based coverage of the engine on randomly wired register
//! designs: whatever the topology, Alg. 2 on a certifying prefix must have
//! every conclusive solver answer accepted by the RUP checker, and every
//! Vulnerable counterexample must replay on the concrete simulator.
//!
//! Designs are generated from a seeded xorshift stream (the proptest shim
//! supplies the seeds), mixing port-fed, register-fed, mux-arbitrated and
//! isolated state so both reachable and unreachable atoms occur.

use proptest::prelude::*;
use ssc_netlist::{Bv, Netlist, StateMeta};
use upec_ssc::{
    replay_on_simulator, PersistencePolicy, Session, SessionPrefix, UpecAnalysis, UpecSpec,
    Verdict, VictimPort,
};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.0 = s;
        s
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random register design with a victim port: 4–9 registers of mixed
/// classification, each wired to the port, to other registers, through a
/// request-selected mux, or to itself (isolated).
fn random_design(seed: u64) -> Netlist {
    let mut rng = XorShift(seed | 1);
    let mut n = Netlist::new("rand");
    let req = n.input("p.req", 1);
    let addr = n.input("p.addr", 32);
    let _we = n.input("p.we", 1);
    let wdata = n.input("p.wdata", 32);
    let count = 4 + rng.below(6) as usize;
    let regs: Vec<_> = (0..count)
        .map(|i| {
            let meta = match rng.below(4) {
                0 => StateMeta::ip_register(),
                1 => StateMeta::peripheral(),
                2 => StateMeta::interconnect(),
                _ => StateMeta::cpu(),
            };
            let name = format!("r{i}");
            n.reg(&name, 32, Some(Bv::zero(32)), meta)
        })
        .collect();
    for i in 0..count {
        let a = regs[rng.below(count as u64) as usize].wire();
        let b = regs[rng.below(count as u64) as usize].wire();
        let next = match rng.below(6) {
            0 => addr,
            1 => wdata,
            2 => a,
            3 => n.mux(req, a, b),
            4 => n.add(a, b),
            _ => regs[i].wire(), // self-loop: isolated unless fed elsewhere
        };
        n.connect_reg(regs[i], next);
    }
    for (i, r) in regs.iter().enumerate() {
        n.mark_output(&format!("r{i}"), r.wire());
    }
    n.check().expect("generated netlist is well-formed");
    n
}

fn spec() -> UpecSpec {
    UpecSpec {
        port: VictimPort {
            req: "p.req".into(),
            addr: "p.addr".into(),
            we: "p.we".into(),
            wdata: "p.wdata".into(),
        },
        ip_ports: vec![],
        devices: vec![],
        range_mask: 0xFFFF_FFF0,
        range_in_device: None,
        device_mask: 0xFFFF_F000,
        constraints: vec![],
        quiesced_ips: vec![],
        persistence: PersistencePolicy::new(),
        max_unroll: 3,
    }
}

/// Runs Alg. 2 on `seed`'s design off a certifying prefix. Panics if an
/// iteration has an uncertified conclusive answer, or if the verdict is
/// Vulnerable and its counterexample does not replay.
fn certified_run(seed: u64) -> Verdict {
    let n = random_design(seed);
    let an = UpecAnalysis::new(&n, spec()).expect("spec matches the design");
    let prefix = SessionPrefix::build_certifying(an.artifact(), an.spec(), 1)
        .expect("a bound spec was already validated");
    let v = an.alg2_with_session(Session::with_prefix(&an, prefix));
    for it in v.iterations() {
        let s = it.solver;
        assert_eq!(
            s.certified,
            s.solves - s.interrupts,
            "seed {seed:#x}, iteration {}",
            it.iteration
        );
    }
    assert!(v.iterations().iter().any(|it| it.solver.certified > 0), "seed {seed:#x}: {v}");
    if let Verdict::Vulnerable(r) = &v {
        if let Err(e) = replay_on_simulator(&an, &r.cex) {
            panic!("seed {seed:#x}: {e}");
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn answers_are_certified_and_counterexamples_replay_on_random_designs(seed: u64) {
        certified_run(seed);
    }
}

/// Designs whose counterexamples start a register that is only partly in
/// the check's cone (its high bits feed nothing the check reads). The
/// counterexample must still carry that register's encoded bits, or the
/// simulator starts it at its reset value and the divergence does not
/// replay.
#[test]
fn counterexamples_with_partly_encoded_registers_replay() {
    for seed in [0x9e5c77e75ae9e76e, 0x0c9cc190eed84e3b, 0x54c4da9f749b9efe, 0xb1ee01b0f092cab0] {
        assert!(certified_run(seed).is_vulnerable(), "seed {seed:#x}");
    }
}
