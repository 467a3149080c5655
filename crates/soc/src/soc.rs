//! Top-level SoC generator.
//!
//! Assembles the Pulpissimo-shaped system of the case study (paper Sec. 4):
//!
//! ```text
//!        ┌─────┐   ┌─────┐   ┌──────┐
//!        │ CPU │   │ DMA │   │ HWPE │           masters
//!        └──┬──┘   └──┬──┘   └──┬─┬─┘
//!     ┌─────┼─────────┴─────────┘ │
//!     │     │  public crossbar    │  private crossbar
//!  ┌──┴──┐ ┌┴────────┐        ┌───┴─────┐
//!  │ APB │ │ pub RAM │        │ priv RAM│        devices
//!  └──┬──┘ └─────────┘        └─────────┘
//!  timer, DMA cfg, HWPE cfg, GPIO, UART
//! ```
//!
//! Two views share all fabric/IP code:
//!
//! * **Simulation view** (`with_cpu: true`): the full SoC including the
//!   RV32I core — used by the attack demonstrations.
//! * **Verification view** (`with_cpu: false`): the CPU is replaced by free
//!   inputs at its data port (same hierarchical names), exactly the cut the
//!   paper's method makes — "the property makes no restrictions regarding
//!   the actual program executed as victim task" (Sec. 3.3).

use ssc_netlist::{MemId, Netlist, StateMeta};

use crate::bus::{sel_apb, sel_priv, sel_pub, ApbBus, MasterPort, MasterResp};
use crate::cpu::{Cpu, CpuBuilder};
use crate::dma::DmaBuilder;
use crate::hwpe::HwpeBuilder;
use crate::peripherals::{gpio, timer, uart};
use crate::xbar::sram_xbar;

/// Stable names of the CPU data-port signals (identical in both views).
pub mod port_names {
    /// Request strobe.
    pub const REQ: &str = "cpu.dport_req";
    /// Byte address.
    pub const ADDR: &str = "cpu.dport_addr";
    /// Write enable.
    pub const WE: &str = "cpu.dport_we";
    /// Write data.
    pub const WDATA: &str = "cpu.dport_wdata";
    /// Grant output (fabric → CPU).
    pub const GNT: &str = "cpu_gnt";
    /// Read data output (fabric → CPU).
    pub const RDATA: &str = "cpu_rdata";
}

/// SoC generation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SocConfig {
    /// Words in the public (shared) RAM.
    pub pub_words: u32,
    /// Words in the private RAM.
    pub priv_words: u32,
    /// Words of CPU instruction memory (simulation view only).
    pub imem_words: u32,
    /// Include the CPU (simulation view) or replace it with free inputs
    /// (verification view).
    pub with_cpu: bool,
}

impl SocConfig {
    /// Defaults for running firmware on the simulator.
    pub fn sim() -> Self {
        SocConfig { pub_words: 256, priv_words: 64, imem_words: 512, with_cpu: true }
    }

    /// Defaults for formal verification: small memories, no CPU.
    pub fn verification() -> Self {
        SocConfig { pub_words: 8, priv_words: 8, imem_words: 8, with_cpu: false }
    }

    /// Verification view with custom memory sizes (scaling experiments).
    pub fn verification_sized(pub_words: u32, priv_words: u32) -> Self {
        SocConfig { pub_words, priv_words, imem_words: 8, with_cpu: false }
    }
}

/// A generated SoC.
#[derive(Debug)]
pub struct Soc {
    /// The flat netlist of the whole system.
    pub netlist: Netlist,
    /// Generation parameters.
    pub cfg: SocConfig,
    /// The public (shared) RAM device.
    pub pub_ram: MemId,
    /// The private RAM device.
    pub priv_ram: MemId,
    /// CPU handles (simulation view only).
    pub cpu: Option<Cpu>,
}

/// Compile-time thread-safety audit: the sharded attack sweeps
/// (`ssc_attacks::leak::sweep_batched_with_pool`) and the portfolio runner
/// share one built [`Soc`] by reference across pool workers, each worker
/// constructing its own simulator on top. That is only sound while `Soc`
/// stays free of interior mutability.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Soc>();
};

impl Soc {
    /// Generates a SoC for the given configuration.
    pub fn build(cfg: SocConfig) -> Soc {
        let mut n = Netlist::new("pulpissimo_like_soc");

        // ---------------- CPU or free port --------------------------------
        let (cpu_builder, cpu_port) = if cfg.with_cpu {
            let b = CpuBuilder::new(&mut n, "cpu", cfg.imem_words);
            let port = b.port;
            (Some(b), port)
        } else {
            let req = n.input(port_names::REQ, 1);
            let addr_w = n.input(port_names::ADDR, 32);
            let we = n.input(port_names::WE, 1);
            let wdata = n.input(port_names::WDATA, 32);
            (None, MasterPort { req, addr: addr_w, we, wdata })
        };

        // ---------------- Address decode for the CPU port -----------------
        let cpu_pub = sel_pub(&mut n, cpu_port.addr);
        let cpu_priv = sel_priv(&mut n, cpu_port.addr);
        let cpu_apb = sel_apb(&mut n, cpu_port.addr);

        // ---------------- IP masters (phase 1) ----------------------------
        let dma_b = DmaBuilder::new(&mut n, "dma");
        let hwpe_b = HwpeBuilder::new(&mut n, "hwpe");

        let dma_pub_sel = sel_pub(&mut n, dma_b.port.addr);
        let hwpe_pub_sel = sel_pub(&mut n, hwpe_b.port.addr);
        let hwpe_priv_sel = sel_priv(&mut n, hwpe_b.port.addr);

        // ---------------- Crossbars ----------------------------------------
        // Every master reaches a RAM only through that RAM's device select:
        // the crossbar decodes the word index alone, so an ungated request
        // outside the window would alias onto a RAM word.
        let cpu_on_pub = cpu_port.gated(&mut n, cpu_pub);
        let dma_on_pub = dma_b.port.gated(&mut n, dma_pub_sel);
        let hwpe_on_pub = hwpe_b.port.gated(&mut n, hwpe_pub_sel);
        let pub_x = sram_xbar(
            &mut n,
            "pub_xbar",
            &[cpu_on_pub, dma_on_pub, hwpe_on_pub],
            cfg.pub_words,
            StateMeta::memory(true),
        );

        let cpu_on_priv = cpu_port.gated(&mut n, cpu_priv);
        let hwpe_on_priv = hwpe_b.port.gated(&mut n, hwpe_priv_sel);
        let priv_x = sram_xbar(
            &mut n,
            "priv_xbar",
            &[cpu_on_priv, hwpe_on_priv],
            cfg.priv_words,
            StateMeta::memory(true),
        );

        // ---------------- APB ----------------------------------------------
        let cpu_we_apb = n.and(cpu_port.we, cpu_apb);
        let apb_wen = n.and(cpu_port.req, cpu_we_apb);
        let apb = ApbBus { wen: apb_wen, addr: cpu_port.addr, wdata: cpu_port.wdata };

        // ---------------- IP engines (phase 2) -----------------------------
        let dma = dma_b.finish(&mut n, "dma", pub_x.resps[1], &apb);

        let hwpe_gnt = n.or(pub_x.resps[2].gnt, priv_x.resps[1].gnt);
        let hwpe_rdata = n.mux(hwpe_priv_sel, priv_x.resps[1].rdata, pub_x.resps[2].rdata);
        let hwpe_resp = MasterResp { gnt: hwpe_gnt, rdata: hwpe_rdata };
        let hwpe = hwpe_b.finish(&mut n, "hwpe", hwpe_resp, &apb);

        let tmr = timer(&mut n, "timer", &apb, dma.done_pulse);
        let gp = gpio(&mut n, "gpio", &apb);
        let ua = uart(&mut n, "uart", &apb);

        // ---------------- CPU response mux ---------------------------------
        // APB and unmapped regions always grant (single master, no waits).
        let one1 = n.lit(1, 1);
        let mut cpu_gnt = one1;
        cpu_gnt = n.mux(cpu_pub, pub_x.resps[0].gnt, cpu_gnt);
        cpu_gnt = n.mux(cpu_priv, priv_x.resps[0].gnt, cpu_gnt);

        let apb_rd0 = n.or(tmr.apb_rdata, dma.apb_rdata);
        let apb_rd1 = n.or(apb_rd0, hwpe.apb_rdata);
        let apb_rd2 = n.or(apb_rd1, gp.apb_rdata);
        let apb_rdata = n.or(apb_rd2, ua.apb_rdata);
        let zero32 = n.lit(32, 0);
        let mut cpu_rdata = n.mux(cpu_apb, apb_rdata, zero32);
        cpu_rdata = n.mux(cpu_priv, priv_x.resps[0].rdata, cpu_rdata);
        cpu_rdata = n.mux(cpu_pub, pub_x.resps[0].rdata, cpu_rdata);

        n.mark_output(port_names::GNT, cpu_gnt);
        n.mark_output(port_names::RDATA, cpu_rdata);

        // ---------------- Observation outputs ------------------------------
        n.mark_output("timer_irq", tmr.irq);
        n.mark_output("gpio_out", gp.out);
        n.mark_output("uart_tx", ua.tx);
        n.mark_output("hwpe_busy", hwpe.busy);
        n.mark_output("hwpe_progress", hwpe.progress);
        n.mark_output("dma_busy", dma.busy);
        n.mark_output("pub_contention", pub_x.contention);
        n.mark_output("priv_contention", priv_x.contention);

        // ---------------- CPU pipeline (phase 2) ---------------------------
        let cpu = cpu_builder.map(|b| {
            let resp = MasterResp { gnt: cpu_gnt, rdata: cpu_rdata };
            let cpu = b.finish(&mut n, "cpu", resp);
            n.mark_output("cpu_halted", cpu.halted);
            n.mark_output("cpu_pc", cpu.pc);
            cpu
        });

        n.check().expect("generated SoC must be structurally valid");

        Soc { netlist: n, cfg, pub_ram: pub_x.mem, priv_ram: priv_x.mem, cpu }
    }

    /// Shorthand: the full simulation view with default sizes.
    pub fn sim_view() -> Soc {
        Soc::build(SocConfig::sim())
    }

    /// Shorthand: the verification view with default sizes.
    pub fn verification_view() -> Soc {
        Soc::build(SocConfig::verification())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr;
    use ssc_netlist::{analysis, Bv};
    use ssc_sim::Sim;

    #[test]
    fn both_views_build_and_check() {
        let sim_view = Soc::sim_view();
        let ver_view = Soc::verification_view();
        assert!(sim_view.cpu.is_some());
        assert!(ver_view.cpu.is_none());
        // The verification view exposes the CPU port as inputs.
        for name in [port_names::REQ, port_names::ADDR, port_names::WE, port_names::WDATA] {
            assert!(ver_view.netlist.find(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn verification_view_has_no_cpu_state() {
        let v = Soc::verification_view();
        for e in analysis::state_elements(&v.netlist) {
            assert_ne!(
                e.meta.kind,
                ssc_netlist::StateKind::CpuInternal,
                "CPU state {} must not exist in the verification view",
                e.name
            );
        }
    }

    #[test]
    fn state_bit_count_scales_with_memory() {
        let small = Soc::build(SocConfig::verification_sized(8, 8));
        let large = Soc::build(SocConfig::verification_sized(64, 64));
        let sb = analysis::state_bit_count(&small.netlist);
        let lb = analysis::state_bit_count(&large.netlist);
        assert!(lb > sb + 100 * 32, "memory growth must dominate: {sb} -> {lb}");
    }

    /// Drive the verification view's free CPU port by hand: a write to
    /// public memory lands; contention with the DMA stalls the grant.
    #[test]
    fn free_port_write_to_pub_ram() {
        let v = Soc::verification_view();
        let mut sim = Sim::new(&v.netlist).unwrap();
        sim.set_input(port_names::REQ, 1);
        sim.set_input(port_names::ADDR, addr::PUB_RAM_BASE + 12);
        sim.set_input(port_names::WE, 1);
        sim.set_input(port_names::WDATA, 0xCAFE);
        assert_eq!(sim.peek_name(port_names::GNT).val(), 1);
        sim.step();
        assert_eq!(sim.read_mem(v.pub_ram, 3).val(), 0xCAFE);
    }

    #[test]
    fn apb_always_grants_and_reads_back() {
        let v = Soc::verification_view();
        let mut sim = Sim::new(&v.netlist).unwrap();
        // Write HWPE_LEN = 5 over the free port.
        sim.set_input(port_names::REQ, 1);
        sim.set_input(port_names::ADDR, addr::HWPE_LEN);
        sim.set_input(port_names::WE, 1);
        sim.set_input(port_names::WDATA, 5);
        assert_eq!(sim.peek_name(port_names::GNT).val(), 1);
        sim.step();
        // Read it back.
        sim.set_input(port_names::WE, 0);
        assert_eq!(sim.peek_name(port_names::RDATA).val(), 5);
    }

    /// Starts a 2-word DMA copy from `src` to public RAM word 4 over the
    /// free port, with public RAM word 1 holding `0xDEAD`, and runs 64
    /// cycles. Returns public RAM words 0..8 and the DMA busy flag.
    fn dma_copy_to_pub_word_4(src: u64) -> (Vec<u64>, u64) {
        let v = Soc::verification_view();
        let mut sim = Sim::new(&v.netlist).unwrap();
        sim.set_mem_word(v.pub_ram, 1, Bv::new(32, 0xDEAD));
        sim.set_input(port_names::REQ, 1);
        sim.set_input(port_names::WE, 1);
        for (reg, value) in [
            (addr::DMA_SRC, src),
            (addr::DMA_DST, addr::PUB_RAM_BASE + 16),
            (addr::DMA_LEN, 2),
            (addr::DMA_CTRL, 1),
        ] {
            sim.set_input(port_names::ADDR, reg);
            sim.set_input(port_names::WDATA, value);
            sim.step();
        }
        sim.set_input(port_names::REQ, 0);
        sim.set_input(port_names::WE, 0);
        for _ in 0..64 {
            sim.step();
        }
        let words = (0..8).map(|i| sim.read_mem(v.pub_ram, i).val()).collect();
        (words, sim.peek_name("dma_busy").val())
    }

    #[test]
    fn dma_with_source_outside_the_public_window_never_writes_public_ram() {
        // Control: a source inside the window copies words 1 and 2.
        let (words, busy) = dma_copy_to_pub_word_4(addr::PUB_RAM_BASE + 4);
        assert_eq!((words[4], busy), (0xDEAD, 0), "in-window copy: {words:x?}");
        // Same word index in the private RAM, an unmapped device and the
        // APB: the read is never granted, so nothing is copied and the DMA
        // stays busy. An ungated port aliased each onto public word 1.
        for src in [addr::PRIV_RAM_BASE + 4, 0x4000_0004, addr::APB_BASE + 4] {
            let (words, busy) = dma_copy_to_pub_word_4(src);
            assert_eq!(words, [0, 0xDEAD, 0, 0, 0, 0, 0, 0], "source {src:#x} reached public RAM");
            assert_eq!(busy, 1, "source {src:#x}: the DMA must stall");
        }
    }

    #[test]
    fn unmapped_addresses_grant_with_zero_data() {
        let v = Soc::verification_view();
        let mut sim = Sim::new(&v.netlist).unwrap();
        sim.set_input(port_names::REQ, 1);
        sim.set_input(port_names::ADDR, 0x4000_0000);
        assert_eq!(sim.peek_name(port_names::GNT).val(), 1);
        assert_eq!(sim.peek_name(port_names::RDATA).val(), 0);
    }
}
