//! DMA engine: a word-copy master with an optional timer chain.
//!
//! The DMA copies `len` words from `src` to `dst`, one read and one write
//! transaction per word. When the `chain` bit is set, completion fires a
//! start pulse to the timer — the building block of the Fig. 1 attack: the
//! attacker primes the DMA, the victim's memory traffic delays it, and the
//! timer's start time (hence its count after the attack window) encodes the
//! victim's access behaviour.
//!
//! Address generators bump within the device window
//! ([`crate::bus::bump_in_device`]), so a DMA configured for a device can
//! never wander into another one mid-transfer.
//!
//! The DMA sits on the public RAM crossbar only, and `Soc::build` gates its
//! port with the public RAM's device select ([`crate::bus::sel_pub`]), as it
//! does the CPU and HWPE ports. A transfer whose source or destination lies
//! outside the public window is never granted: the DMA stays busy at that
//! word and reads or writes no RAM word.

use ssc_netlist::{Bv, Netlist, RegHandle, StateMeta, Wire};

use crate::addr;
use crate::bus::{bump_in_device, ApbBus, MasterPort, MasterResp};

/// Phase-1 handle: registers created, master port derived; next-state logic
/// is connected by [`DmaBuilder::finish`] once the crossbar response exists.
pub struct DmaBuilder {
    src: RegHandle,
    dst: RegHandle,
    len: RegHandle,
    chain: RegHandle,
    busy: RegHandle,
    phase: RegHandle,
    cnt: RegHandle,
    cur_src: RegHandle,
    cur_dst: RegHandle,
    buf: RegHandle,
    /// The bus master port driven by this DMA.
    pub port: MasterPort,
}

/// Finished DMA interface.
#[derive(Clone, Copy, Debug)]
pub struct Dma {
    /// One-cycle pulse on transfer completion (wired to the timer when the
    /// chain bit is set).
    pub done_pulse: Wire,
    /// Busy flag (also readable at [`addr::DMA_STATUS`]).
    pub busy: Wire,
    /// APB read-data contribution (valid when an address in the DMA slot is
    /// read).
    pub apb_rdata: Wire,
}

impl DmaBuilder {
    /// Creates the DMA state and master port under `scope`.
    pub fn new(n: &mut Netlist, scope: &str) -> Self {
        n.push_scope(scope);
        let ip = StateMeta::ip_register();
        let src = n.reg("src", 32, Some(Bv::zero(32)), ip);
        let dst = n.reg("dst", 32, Some(Bv::zero(32)), ip);
        let len = n.reg("len", 8, Some(Bv::zero(8)), ip);
        let chain = n.reg("chain", 1, Some(Bv::zero(1)), ip);
        let busy = n.reg("busy", 1, Some(Bv::zero(1)), ip);
        let phase = n.reg("phase", 1, Some(Bv::zero(1)), ip);
        let cnt = n.reg("cnt", 8, Some(Bv::zero(8)), ip);
        let cur_src = n.reg("cur_src", 32, Some(Bv::zero(32)), ip);
        let cur_dst = n.reg("cur_dst", 32, Some(Bv::zero(32)), ip);
        let buf = n.reg("buf", 32, Some(Bv::zero(32)), ip);

        let req = busy.wire();
        let addr_w = n.mux(phase.wire(), cur_dst.wire(), cur_src.wire());
        let port = MasterPort { req, addr: addr_w, we: phase.wire(), wdata: buf.wire() };
        n.set_name(port.req, "req");
        n.set_name(port.addr, "addr_out");
        n.pop_scope();

        DmaBuilder { src, dst, len, chain, busy, phase, cnt, cur_src, cur_dst, buf, port }
    }

    /// Connects the next-state logic given the crossbar response and the
    /// APB configuration bus. Returns the public interface.
    pub fn finish(self, n: &mut Netlist, scope: &str, resp: MasterResp, apb: &ApbBus) -> Dma {
        n.push_scope(scope);
        let one1 = n.lit(1, 1);

        // --- APB configuration writes -----------------------------------
        let w_src = apb.reg_write(n, addr::DMA_SRC);
        let w_dst = apb.reg_write(n, addr::DMA_DST);
        let w_len = apb.reg_write(n, addr::DMA_LEN);
        let w_ctrl = apb.reg_write(n, addr::DMA_CTRL);
        let wdata_len = n.slice(apb.wdata, 7, 0);
        let src_next = n.mux(w_src, apb.wdata, self.src.wire());
        let dst_next = n.mux(w_dst, apb.wdata, self.dst.wire());
        let len_next = n.mux(w_len, wdata_len, self.len.wire());
        n.connect_reg(self.src, src_next);
        n.connect_reg(self.dst, dst_next);
        n.connect_reg(self.len, len_next);

        let ctrl_start_bit = n.bit(apb.wdata, 0);
        let ctrl_chain_bit = n.bit(apb.wdata, 1);
        let start = n.and(w_ctrl, ctrl_start_bit);
        let chain_next = n.mux(w_ctrl, ctrl_chain_bit, self.chain.wire());
        n.connect_reg(self.chain, chain_next);

        // --- Transfer engine ---------------------------------------------
        let busy_w = self.busy.wire();
        let phase_w = self.phase.wire();
        let gnt = resp.gnt;
        let step = n.and(busy_w, gnt);
        let read_step = {
            let p0 = n.not(phase_w);
            n.and(step, p0)
        };
        let write_step = n.and(step, phase_w);
        let last = n.eq_const(self.cnt.wire(), 1);
        let done = n.and(write_step, last);
        n.set_name(done, "done");

        // buf <- rdata on read step
        let buf_next = n.mux(read_step, resp.rdata, self.buf.wire());
        n.connect_reg(self.buf, buf_next);

        // phase toggles on each granted step
        let zero1 = n.lit(1, 0);
        let phase_mid = n.mux(write_step, zero1, phase_w);
        let phase_after = n.mux(read_step, one1, phase_mid);

        // counters / pointers on write step
        let src_bumped = bump_in_device(n, self.cur_src.wire());
        let dst_bumped = bump_in_device(n, self.cur_dst.wire());
        let cnt_dec = {
            let one8 = n.lit(8, 1);
            n.sub(self.cnt.wire(), one8)
        };
        let cur_src_after = n.mux(write_step, src_bumped, self.cur_src.wire());
        let cur_dst_after = n.mux(write_step, dst_bumped, self.cur_dst.wire());
        let cnt_after = n.mux(write_step, cnt_dec, self.cnt.wire());
        let not_done = n.not(done);
        let busy_after = n.and(busy_w, not_done);

        // Start overrides the engine updates.
        let len_nonzero = {
            let z = n.eq_const(len_next, 0);
            n.not(z)
        };
        let busy_on_start = len_nonzero;
        let busy_next = n.mux(start, busy_on_start, busy_after);
        let cur_src_next = n.mux(start, src_next, cur_src_after);
        let cur_dst_next = n.mux(start, dst_next, cur_dst_after);
        let cnt_next = n.mux(start, len_next, cnt_after);
        let zero1 = n.lit(1, 0);
        let phase_next = n.mux(start, zero1, phase_after);

        n.connect_reg(self.busy, busy_next);
        n.connect_reg(self.cur_src, cur_src_next);
        n.connect_reg(self.cur_dst, cur_dst_next);
        n.connect_reg(self.cnt, cnt_next);
        n.connect_reg(self.phase, phase_next);

        // --- APB readback -------------------------------------------------
        let status = n.zext(busy_w, 32);
        let len32 = n.zext(self.len.wire(), 32);
        let mut rdata = n.lit(32, 0);
        for (reg, val) in [
            (addr::DMA_SRC, self.src.wire()),
            (addr::DMA_DST, self.dst.wire()),
            (addr::DMA_LEN, len32),
            (addr::DMA_STATUS, status),
        ] {
            let hit = n.eq_const(apb.addr, reg);
            rdata = n.mux(hit, val, rdata);
        }
        n.set_name(rdata, "apb_rdata");

        let chained_done = n.and(done, self.chain.wire());
        n.set_name(chained_done, "chained_done");
        n.pop_scope();

        Dma { done_pulse: chained_done, busy: busy_w, apb_rdata: rdata }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xbar::sram_xbar;
    use ssc_netlist::Netlist;
    use ssc_sim::Sim;

    /// DMA alone on a small RAM, configured through input-driven APB.
    fn fixture() -> (Netlist, ssc_netlist::MemId) {
        let mut n = Netlist::new("dma_t");
        let apb_wen = n.input("apb_wen", 1);
        let apb_addr = n.input("apb_addr", 32);
        let apb_wdata = n.input("apb_wdata", 32);
        let apb = ApbBus { wen: apb_wen, addr: apb_addr, wdata: apb_wdata };

        let dma_b = DmaBuilder::new(&mut n, "dma");
        let port = dma_b.port;
        let x = sram_xbar(&mut n, "xbar", &[port], 16, StateMeta::memory(true));
        let dma = dma_b.finish(&mut n, "dma", x.resps[0], &apb);
        n.mark_output("busy", dma.busy);
        n.mark_output("done", dma.done_pulse);
        n.check().unwrap();
        (n, x.mem)
    }

    fn apb_write(sim: &mut Sim, addr: u64, data: u64) {
        sim.set_input("apb_wen", 1);
        sim.set_input("apb_addr", addr);
        sim.set_input("apb_wdata", data);
        sim.step();
        sim.set_input("apb_wen", 0);
    }

    #[test]
    fn copies_words() {
        let (n, mem) = fixture();
        let mut sim = Sim::new(&n).unwrap();
        // Seed source data at words 0..3; dst at words 8..11.
        for i in 0..4 {
            sim.set_mem_word(mem, i, ssc_netlist::Bv::new(32, 0x100 + u64::from(i)));
        }
        apb_write(&mut sim, addr::DMA_SRC, addr::PUB_RAM_BASE);
        apb_write(&mut sim, addr::DMA_DST, addr::PUB_RAM_BASE + 8 * 4);
        apb_write(&mut sim, addr::DMA_LEN, 4);
        apb_write(&mut sim, addr::DMA_CTRL, 1); // start, no chain
        assert_eq!(sim.peek_name("busy").val(), 1);
        // 4 words * 2 cycles each = 8 cycles.
        sim.step_n(8);
        assert_eq!(sim.peek_name("busy").val(), 0);
        for i in 0..4 {
            assert_eq!(sim.read_mem(mem, 8 + i).val(), 0x100 + u64::from(i));
        }
    }

    #[test]
    fn done_pulse_only_when_chained() {
        let (n, _) = fixture();
        let mut sim = Sim::new(&n).unwrap();
        apb_write(&mut sim, addr::DMA_SRC, addr::PUB_RAM_BASE);
        apb_write(&mut sim, addr::DMA_DST, addr::PUB_RAM_BASE + 32);
        apb_write(&mut sim, addr::DMA_LEN, 1);
        apb_write(&mut sim, addr::DMA_CTRL, 1); // no chain bit
        let mut saw_pulse = false;
        for _ in 0..4 {
            saw_pulse |= sim.peek_name("done").is_true();
            sim.step();
        }
        assert!(!saw_pulse, "no chain bit -> no pulse");

        apb_write(&mut sim, addr::DMA_CTRL, 0b11); // start + chain
        let mut pulses = 0;
        for _ in 0..6 {
            pulses += sim.peek_name("done").val();
            sim.step();
        }
        assert_eq!(pulses, 1, "exactly one done pulse");
    }

    #[test]
    fn zero_length_transfer_never_goes_busy() {
        let (n, _) = fixture();
        let mut sim = Sim::new(&n).unwrap();
        apb_write(&mut sim, addr::DMA_LEN, 0);
        apb_write(&mut sim, addr::DMA_CTRL, 1);
        assert_eq!(sim.peek_name("busy").val(), 0);
    }

    #[test]
    fn status_readback_via_mux() {
        let (n, _) = fixture();
        let mut sim = Sim::new(&n).unwrap();
        apb_write(&mut sim, addr::DMA_SRC, 0xDEAD_BEE0);
        sim.set_input("apb_addr", addr::DMA_SRC);
        assert_eq!(sim.peek_name("dma.apb_rdata").val(), 0xDEAD_BEE0);
        sim.set_input("apb_addr", addr::DMA_STATUS);
        assert_eq!(sim.peek_name("dma.apb_rdata").val(), 0);
    }
}
