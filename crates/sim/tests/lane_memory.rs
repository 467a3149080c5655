//! Lane memories against the scalar reference: a memory with two write
//! ports, driven per lane at both block widths, must read and hold in every
//! lane exactly what a scalar `Sim` fed that lane's stimulus reads and
//! holds. The stimulus covers the three shapes a bit-sliced memory access
//! takes: one address in every lane, per-lane addresses (some out of range)
//! and both ports writing one word in the same cycle.

use ssc_netlist::{MemId, Netlist, StateMeta, Wire};
use ssc_sim::{BatchSim, Sim};

/// Memory words; the 4-bit addresses reach twice as far.
const WORDS: u32 = 8;
const WIDTH: u32 = 16;

struct Design {
    netlist: Netlist,
    ram: MemId,
    rd: Wire,
}

/// `ram`: 8 words × 16 bits, write port 0 `(en0, addr0, data0)`, then
/// write port 1 `(en1, addr1, data1)`, and a read port at `raddr`.
fn design() -> Design {
    let mut n = Netlist::new("two_ports");
    let ram = n.memory("ram", WORDS, WIDTH, StateMeta::memory(true));
    for p in 0..2 {
        let en = n.input(&format!("en{p}"), 1);
        let addr = n.input(&format!("addr{p}"), 4);
        let data = n.input(&format!("data{p}"), WIDTH);
        n.mem_write(ram, en, addr, data);
    }
    let raddr = n.input("raddr", 4);
    let rd = n.mem_read(ram, raddr);
    n.mark_output("rd", rd);
    Design { netlist: n, ram, rd }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One cycle's inputs, one value per lane for every input: four cycles
/// of each access shape.
fn stimulus(cycle: usize, lanes: usize, rng: &mut u64) -> Vec<(&'static str, Vec<u64>)> {
    let mut draw = |mask: u64| -> Vec<u64> { (0..lanes).map(|_| splitmix(rng) & mask).collect() };
    let (mut en0, mut en1) = (draw(1), draw(1));
    let (addr0, addr1, raddr) = match cycle / 4 {
        // One in-range address in every lane, per port.
        0 => {
            let (a, b) = (draw(0x7)[0], draw(0x7)[0]);
            (vec![a; lanes], vec![b; lanes], vec![a; lanes])
        }
        // Per-lane addresses over 0..16: about half of them out of range.
        1 => (draw(0xF), draw(0xF), draw(0xF)),
        // Both ports enabled on one word in every lane.
        _ => {
            en0.fill(1);
            en1.fill(1);
            let a = draw(0x7);
            (a.clone(), a.clone(), a)
        }
    };
    vec![
        ("en0", en0),
        ("en1", en1),
        ("addr0", addr0),
        ("addr1", addr1),
        ("data0", draw(0xFFFF)),
        ("data1", draw(0xFFFF)),
        ("raddr", raddr),
    ]
}

fn check_lanes_against_scalar<const W: usize>() {
    let lanes = BatchSim::<W>::LANES;
    let d = design();
    let mut batch = BatchSim::<W>::new(&d.netlist).unwrap();
    let mut scalars: Vec<Sim> = (0..lanes).map(|_| Sim::new(&d.netlist).unwrap()).collect();
    let mut rng = 0x5EED ^ W as u64;
    for cycle in 0..12 {
        let inputs = stimulus(cycle, lanes, &mut rng);
        for (name, values) in &inputs {
            batch.set_input_lanes(name, values);
            for (sim, &v) in scalars.iter_mut().zip(values) {
                sim.set_input(name, v);
            }
        }
        let reads = batch.peek_lanes(d.rd);
        for (lane, sim) in scalars.iter_mut().enumerate() {
            assert_eq!(reads[lane], sim.peek(d.rd).val(), "W={W} cycle {cycle} lane {lane}: read");
        }
        batch.step();
        for (lane, sim) in scalars.iter_mut().enumerate() {
            sim.step();
            for word in 0..WORDS {
                assert_eq!(
                    batch.read_mem_lane(d.ram, word, lane),
                    sim.read_mem(d.ram, word),
                    "W={W} after cycle {cycle} lane {lane}: word {word}"
                );
            }
        }
        if cycle / 4 == 2 {
            // Both ports wrote the same word in every lane: port 1 won.
            let input = |name: &str| &inputs.iter().find(|(n, _)| *n == name).unwrap().1;
            for lane in 0..lanes {
                let word = batch.read_mem_lane(d.ram, input("addr1")[lane] as u32, lane);
                assert_eq!(word.val(), input("data1")[lane], "W={W} cycle {cycle} lane {lane}");
            }
        }
    }
}

#[test]
fn lane_memories_match_the_scalar_reference_at_both_widths() {
    check_lanes_against_scalar::<1>();
    check_lanes_against_scalar::<4>();
}
