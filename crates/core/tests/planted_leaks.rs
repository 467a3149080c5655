//! Failure-injection tests: UPEC-SSC must flag designs with deliberately
//! planted leaks and pass their leak-free twins. This guards against the
//! method silently losing its teeth (a "secure" verdict is only meaningful
//! if the same machinery finds planted bugs).

use ssc_netlist::{Bv, Netlist, StateMeta};
use upec_ssc::{DeviceMap, PersistencePolicy, UpecAnalysis, UpecSpec, VictimPort};

const RAM_BASE: u64 = 0x1C00_0000;

/// A minimal system: a victim port in front of one RAM, with an optional
/// *snoop register* in the interconnect that latches the last address seen
/// on the bus — a textbook SoC-wide leak (an IP spying on victim accesses).
fn tiny_system(with_snoop: bool) -> Netlist {
    let mut n = Netlist::new(if with_snoop { "tiny_leaky" } else { "tiny_clean" });
    let req = n.input("cpu.dport_req", 1);
    let addr = n.input("cpu.dport_addr", 32);
    let we = n.input("cpu.dport_we", 1);
    let wdata = n.input("cpu.dport_wdata", 32);

    let mem = n.memory("bus.ram", 8, 32, StateMeta::memory(true));
    let idx = n.slice(addr, 19, 2);
    let wen = n.and(req, we);
    n.mem_write(mem, wen, idx, wdata);
    let rdata = n.mem_read(mem, idx);
    n.mark_output("cpu_rdata", rdata);
    n.mark_output("cpu_gnt", req);

    if with_snoop {
        // An attacker-readable register that records the last bus address.
        let snoop = n.reg("bus.snoop_addr", 32, Some(Bv::zero(32)), StateMeta::ip_register());
        let next = n.mux(req, addr, snoop.wire());
        n.connect_reg(snoop, next);
        n.mark_output("snoop", snoop.wire());
    } else {
        // Same structure, but the register only records a constant.
        let r = n.reg("bus.heartbeat", 32, Some(Bv::zero(32)), StateMeta::ip_register());
        let one = n.lit(32, 1);
        let next = n.add(r.wire(), one);
        n.connect_reg(r, next);
        n.mark_output("heartbeat", r.wire());
    }
    n.check().unwrap();
    n
}

fn tiny_spec() -> UpecSpec {
    UpecSpec {
        port: VictimPort::soc_default(),
        ip_ports: vec![],
        devices: vec![DeviceMap { mem_name: "bus.ram".into(), base: RAM_BASE }],
        range_mask: 0xFFFF_FFF0,
        range_in_device: Some(RAM_BASE),
        device_mask: 0xFFF0_0000,
        constraints: vec![],
        quiesced_ips: vec![],
        persistence: PersistencePolicy::new(),
        max_unroll: 8,
    }
}

#[test]
fn snoop_register_is_detected() {
    let n = tiny_system(true);
    let an = UpecAnalysis::new(&n, tiny_spec()).unwrap();
    let verdict = an.alg1();
    assert!(verdict.is_vulnerable(), "snoop register must be flagged: {verdict}");
    if let upec_ssc::Verdict::Vulnerable(r) = verdict {
        assert!(
            r.cex.diffs.iter().any(|d| d.name == "bus.snoop_addr"),
            "the snoop register must appear in the counterexample: {:?}",
            r.cex.diffs
        );
    }
}

#[test]
fn clean_twin_is_proven_secure() {
    let n = tiny_system(false);
    let an = UpecAnalysis::new(&n, tiny_spec()).unwrap();
    let verdict = an.alg1();
    assert!(verdict.is_secure(), "leak-free twin must verify: {verdict}");
}

#[test]
fn alg2_finds_snoop_with_explicit_trace() {
    let n = tiny_system(true);
    let an = UpecAnalysis::new(&n, tiny_spec()).unwrap();
    match an.alg2() {
        upec_ssc::Verdict::Vulnerable(r) => {
            assert!(r.cex.trace.iter().any(|c| c.port_a.protected || c.port_b.protected));
        }
        other => panic!("expected vulnerable, got {other}"),
    }
}

#[test]
fn snoop_leak_replays_concretely() {
    let n = tiny_system(true);
    let an = UpecAnalysis::new(&n, tiny_spec()).unwrap();
    match an.alg2() {
        upec_ssc::Verdict::Vulnerable(r) => {
            upec_ssc::replay_on_simulator(&an, &r.cex).expect("replay must confirm the leak");
        }
        other => panic!("expected vulnerable, got {other}"),
    }
}

/// Reclassifying the snoop register as transient (e.g. the engineer claims
/// it is scrubbed on context switch) must flip the verdict — the policy
/// hooks work.
#[test]
fn policy_override_changes_the_verdict() {
    let n = tiny_system(true);
    let mut spec = tiny_spec();
    spec.persistence.force_transient.insert("bus.snoop_addr".into());
    let an = UpecAnalysis::new(&n, spec).unwrap();
    let verdict = an.alg1();
    assert!(
        verdict.is_secure(),
        "with the snoop declared transient nothing persistent remains: {verdict}"
    );
}

/// The victim's own memory words must be exempt from the equivalence
/// obligations: a system whose only "leak" is the victim's data sitting in
/// its own protected range is secure.
#[test]
fn victim_range_words_are_exempt() {
    let mut n = Netlist::new("victim_only");
    let req = n.input("cpu.dport_req", 1);
    let addr = n.input("cpu.dport_addr", 32);
    let we = n.input("cpu.dport_we", 1);
    let wdata = n.input("cpu.dport_wdata", 32);
    let mem = n.memory("bus.ram", 8, 32, StateMeta::memory(true));
    let idx = n.slice(addr, 19, 2);
    let wen = n.and(req, we);
    n.mem_write(mem, wen, idx, wdata);
    let rd = n.mem_read(mem, idx);
    n.mark_output("cpu_rdata", rd);
    n.check().unwrap();

    let an = UpecAnalysis::new(&n, tiny_spec()).unwrap();
    let verdict = an.alg1();
    assert!(
        verdict.is_secure(),
        "writes confined to the protected range must not be flagged: {verdict}"
    );
}

/// A latch the victim port writes only while a non-port input `ext` is
/// high: `r.next = (ext & req) ? wdata : r`. Every counterexample needs
/// `ext = 1`, which `Primary_Input_Constraints` leaves free (it is only
/// equal in both instances), so a replay that drives `ext` at 0 shows no
/// divergence.
#[test]
fn counterexample_needing_a_non_port_input_replays() {
    let mut n = Netlist::new("ext_gated_latch");
    let req = n.input("cpu.dport_req", 1);
    let _addr = n.input("cpu.dport_addr", 32);
    let _we = n.input("cpu.dport_we", 1);
    let wdata = n.input("cpu.dport_wdata", 32);
    let ext = n.input("ext", 1);
    let r = n.reg("r", 32, Some(Bv::zero(32)), StateMeta::ip_register());
    let enable = n.and(ext, req);
    let next = n.mux(enable, wdata, r.wire());
    n.connect_reg(r, next);
    n.mark_output("r", r.wire());
    n.check().unwrap();

    let spec = UpecSpec { devices: vec![], range_in_device: None, ..tiny_spec() };
    let an = UpecAnalysis::new(&n, spec).unwrap();
    let upec_ssc::Verdict::Vulnerable(report) = an.alg2() else {
        panic!("the latch leaks the victim's write data");
    };
    let cex = &report.cex;
    assert!(cex.diffs.iter().any(|d| d.name == "r"), "{cex}");
    let driven = &cex.trace[..cex.at_cycle];
    assert!(
        driven.iter().all(|c| c.inputs == [("ext".to_string(), 1)]),
        "the trace must record `ext` = 1 in every driven cycle: {cex}"
    );
    upec_ssc::replay_on_simulator(&an, cex).expect("replay drives `ext`");
    let lanes = upec_ssc::replay_neighborhood(&an, cex).expect("the exact lane replays");
    assert_eq!(lanes.diverging & 1, 1);
}

/// The victim address enters `bus.t1` and moves one register per cycle
/// through `bus.t1` … `bus.t<depth>`, which the policy declares transient,
/// into the persistent `bus.p`. The first persistent divergence is at cycle
/// `depth + 1`, so Alg. 2 reaches it only by growing its window that far,
/// assuming at each window the sets of the cycles below, which the window
/// before shrank.
fn transient_chain(depth: usize) -> (Netlist, UpecSpec) {
    let mut n = Netlist::new(format!("transient_chain_{depth}"));
    let req = n.input("cpu.dport_req", 1);
    let addr = n.input("cpu.dport_addr", 32);
    let _we = n.input("cpu.dport_we", 1);
    let _wdata = n.input("cpu.dport_wdata", 32);
    let mut spec = UpecSpec { devices: vec![], range_in_device: None, ..tiny_spec() };
    let mut prev: Option<ssc_netlist::Wire> = None;
    for i in 1..=depth {
        let name = format!("bus.t{i}");
        let r = n.reg(&name, 32, Some(Bv::zero(32)), StateMeta::ip_register());
        let next = prev.unwrap_or_else(|| n.mux(req, addr, r.wire()));
        n.connect_reg(r, next);
        spec.persistence.force_transient.insert(name);
        prev = Some(r.wire());
    }
    let p = n.reg("bus.p", 32, Some(Bv::zero(32)), StateMeta::ip_register());
    n.connect_reg(p, prev.expect("depth >= 1"));
    n.mark_output("p", p.wire());
    n.check().unwrap();
    (n, spec)
}

#[test]
fn leaks_through_transient_chains_need_growing_windows() {
    for depth in 1..=3 {
        let (n, spec) = transient_chain(depth);
        let an = UpecAnalysis::new(&n, spec).unwrap();
        let upec_ssc::Verdict::Vulnerable(report) = an.alg2() else {
            panic!("depth {depth}: the chain leaks the victim address into `bus.p`");
        };
        let cex = &report.cex;
        assert_eq!(cex.at_cycle, depth + 1, "depth {depth}: {cex}");
        assert!(
            cex.diffs.iter().any(|d| d.name == "bus.p" && d.persistent),
            "depth {depth}: {cex}"
        );
        // One violated and one holding check per window below the leak's,
        // then the violated check at window `depth + 1`.
        let windows: Vec<usize> = report.iterations.iter().map(|it| it.window).collect();
        let expected: Vec<usize> = (1..=depth).flat_map(|w| [w, w]).chain([depth + 1]).collect();
        assert_eq!(windows, expected, "depth {depth}");

        upec_ssc::replay_on_simulator(&an, cex)
            .unwrap_or_else(|e| panic!("depth {depth}: replay failed: {e}"));
        let lanes = upec_ssc::replay_neighborhood(&an, cex)
            .unwrap_or_else(|e| panic!("depth {depth}: neighbourhood replay failed: {e}"));
        assert_eq!(lanes.diverging & 1, 1, "depth {depth}");
    }
}
