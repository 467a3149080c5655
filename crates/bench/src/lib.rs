//! # ssc-bench — the experiment harness
//!
//! One function per experiment: the paper's artefacts E1–E8 and the engine
//! studies E9, E10 and E13. Each returns a structured result that the
//! `experiments` binary renders as the paper-style table/series and the
//! Criterion benches time; [`perf`] turns the benches' results into
//! `BENCH_*.json` records.
//!
//! # Parallel architecture
//!
//! Since E9 the harness is **machine-saturating**: the scenario × size
//! matrix of formal analyses fans across a hand-rolled scoped thread pool
//! ([`ssc_pool::Pool`] — see [`portfolio`]) and the simulation layers
//! shard their independent lane blocks (64 or 256 lanes each — the
//! width-generic bit-sliced engines, partitioned by the shared
//! [`ssc_pool::Pool::run_blocks`] at the [`ssc_pool::LaneWidth`] default)
//! across the same pool (`ssc_attacks::leak::sweep_batched` for channel
//! sweeps, the batched dynamic-IFT Monte-Carlo loop here). Since E10 the portfolio is also
//! **work-sharing**: one product artifact + encoded base proof session per
//! SoC size, copy-on-write-forked per scenario cell (two-phase plan in
//! [`portfolio::run_portfolio`]). Parallel results are **bit-identical**
//! to the sequential loops: work is enumerated in a fixed order, merged by
//! job index, and seeded by job coordinates — never by worker identity;
//! forked sessions are state-identical to privately built ones.
//! `SSC_POOL_WORKERS=1` pins everything to the sequential path (CI runs
//! the suite both ways).
//!
//! # Fault tolerance
//!
//! The portfolio also has a **fault-isolated** mode
//! ([`portfolio::run_portfolio_fallible`]): cells run under per-attempt
//! effort budgets with an escalation ladder
//! ([`portfolio::RetryPolicy`]), a panicking cell is confined to its
//! matrix slot (`ssc_pool::Pool::try_run`), and a cell whose ladder runs
//! dry is recorded as an inconclusive verdict with a machine-readable
//! cause — one bad cell never costs the rest of the matrix. The [`chaos`]
//! harness injects deterministic faults (panics, budget exhaustion,
//! forced cancellation) addressed at cells by their seed, which is how
//! the chaos tests pin all of this down.

#![warn(missing_docs)]

pub mod chaos;
pub mod perf;
pub mod portfolio;

use std::time::{Duration, Instant};

use ssc_attacks::leak::{sweep_batched, ChannelReport};
use ssc_attacks::scenarios::{Channel, VictimConfig};
use ssc_netlist::analysis;
use ssc_netlist::lanes::{block_lanes, Block};
use ssc_pool::LaneWidth;
use ssc_soc::{Soc, SocConfig};
use upec_ssc::{UpecAnalysis, UpecSpec, Verdict};

/// E1 — Fig. 1: the DMA+timer channel sweep on the simulated SoC.
///
/// Runs on the bit-sliced batch engine at the process-default lane width:
/// every victim access count is one simulation lane, so the whole sweep is
/// a single scenario run (the batched report is bit-identical to the
/// scalar one at every width — see
/// `ssc-attacks/tests/batch_equivalence.rs`).
pub fn e1_dma_timer_sweep(max_n: u32) -> ChannelReport {
    let soc = Soc::sim_view();
    sweep_batched(&soc, Channel::DmaTimer, VictimConfig::in_public, max_n, false)
}

/// Result of a formal detection/proof run.
#[derive(Clone, Debug)]
pub struct FormalResult {
    /// The verdict reached.
    pub verdict: Verdict,
    /// Wall-clock time of the whole procedure.
    pub runtime: Duration,
    /// State bits of the design under verification (single instance).
    pub state_bits: u64,
}

fn run_formal(spec: UpecSpec, cfg: SocConfig, unrolled: bool) -> FormalResult {
    let soc = Soc::build(cfg);
    let state_bits = analysis::state_bit_count(&soc.netlist);
    let an = UpecAnalysis::new(&soc.netlist, spec).expect("spec matches the SoC");
    let t = Instant::now();
    let verdict = if unrolled { an.alg2() } else { an.alg1() };
    FormalResult { verdict, runtime: t.elapsed(), state_bits }
}

/// E2 — Sec. 4.1: detect the HWPE+memory variant with the unrolled
/// procedure (Alg. 2). The persistent medium is the attacker-primed memory.
pub fn e2_detect_hwpe_memory() -> FormalResult {
    run_formal(
        UpecSpec::soc_vulnerable_hwpe_memory(),
        SocConfig::verification(),
        true,
    )
}

/// E2b — the general vulnerable configuration (first counterexample wins;
/// usually the DMA/timer or accelerator state).
pub fn e2_detect_general() -> FormalResult {
    run_formal(UpecSpec::soc_vulnerable(), SocConfig::verification(), true)
}

/// E3 — Sec. 4.1: the memory channel with the timer denied, in simulation.
///
/// Both sweeps run on the 64-lane batch engine (one lane per access count).
pub fn e3_no_timer_sweeps(max_n: u32) -> (ChannelReport, ChannelReport) {
    let soc = Soc::sim_view();
    let timer_locked =
        sweep_batched(&soc, Channel::DmaTimer, VictimConfig::in_public, max_n, true);
    let memory_locked =
        sweep_batched(&soc, Channel::HwpeMemory, VictimConfig::in_public, max_n, true);
    (timer_locked, memory_locked)
}

/// E4 — Sec. 4.2: prove the countermeasure secure with Alg. 1 and report
/// the per-iteration fixpoint behaviour (paper: 3 iterations, runtimes
/// rising toward the final inductive check).
pub fn e4_secure_fixpoint() -> FormalResult {
    run_formal(UpecSpec::soc_fixed(), SocConfig::verification(), false)
}

/// One point of the window-reduction study (E5).
#[derive(Clone, Copy, Debug)]
pub struct WindowPoint {
    /// Property window length in cycles.
    pub window: usize,
    /// Solver+encoding time for one check at this window.
    pub runtime: Duration,
    /// AIG nodes after unrolling this window.
    pub aig_nodes: usize,
}

/// E5 — Fig. 2: cost of naive whole-attack-window checking versus the
/// 2-cycle UPEC-SSC property. For each window length `k` the full
/// non-interference obligation is checked at cycle `k` (no Obs. 1/2
/// reductions); the 2-cycle point (`k = 1` transition) is the UPEC-SSC
/// baseline.
pub fn e5_window_sweep(windows: &[usize]) -> Vec<WindowPoint> {
    let soc = Soc::verification_view();
    let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed()).expect("spec ok");
    let mut out = Vec::new();
    for &k in windows {
        // Time the whole check including session construction: the standing
        // assumptions are now built inside `Session::new`, so starting the
        // clock afterwards would silently shrink the E5 metric.
        let t = Instant::now();
        let mut sess = upec_ssc::Session::new(&an, k);
        let s = an.s_not_victim();
        let pre = sess.state_eq(&s, 0);
        let goal = sess.state_eq(&s, k);
        let mut assumptions = sess.base_assumptions(k);
        assumptions.push(pre);
        let _ = sess.ipc_mut().check(&assumptions, goal);
        out.push(WindowPoint {
            window: k,
            runtime: t.elapsed(),
            aig_nodes: sess.ipc().unroller().aig().num_nodes(),
        });
    }
    out
}

/// One point of the scaling study (E6).
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Public/private memory words per device.
    pub words: u32,
    /// State bits of the verification view.
    pub state_bits: u64,
    /// Detection time on the vulnerable configuration.
    pub detect: Duration,
    /// Proof time on the fixed configuration.
    pub prove: Duration,
}

/// E6 — scalability: state bits versus runtime for both verdicts.
pub fn e6_scaling(word_sizes: &[u32]) -> Vec<ScalingPoint> {
    let mut out = Vec::new();
    for &w in word_sizes {
        let cfg = SocConfig::verification_sized(w, w);
        let vuln = run_formal(UpecSpec::soc_vulnerable(), cfg, false);
        let fixed = run_formal(UpecSpec::soc_fixed(), cfg, false);
        assert!(vuln.verdict.is_vulnerable(), "verdict must not change with size");
        assert!(fixed.verdict.is_secure(), "verdict must not change with size");
        out.push(ScalingPoint {
            words: w,
            state_bits: vuln.state_bits,
            detect: vuln.runtime,
            prove: fixed.runtime,
        });
    }
    out
}

/// Head-to-head of the persistent-session Alg. 2 against the
/// fresh-session-per-check baseline on one configuration.
#[derive(Clone, Debug)]
pub struct IncrementalComparison {
    /// Label of the configuration.
    pub config: &'static str,
    /// Memory words per device of the measured SoC.
    pub words: u32,
    /// The persistent-session engine ([`upec_ssc::UpecAnalysis::alg2`]).
    pub incremental: FormalResult,
    /// The tear-down baseline
    /// ([`upec_ssc::UpecAnalysis::alg2_fresh_baseline`]).
    pub fresh: FormalResult,
}

impl IncrementalComparison {
    /// Wall-clock speedup of the incremental engine over the baseline.
    pub fn speedup(&self) -> f64 {
        self.fresh.runtime.as_secs_f64() / self.incremental.runtime.as_secs_f64().max(1e-9)
    }

    /// The largest window either engine reached.
    pub fn max_window(&self) -> usize {
        self.incremental
            .verdict
            .iterations()
            .iter()
            .map(|i| i.window)
            .max()
            .unwrap_or(0)
    }
}

/// Runs both Alg. 2 engines on one configuration and size; both verdict
/// kinds must agree (asserted).
pub fn compare_alg2_engines(
    config: &'static str,
    spec: UpecSpec,
    words: u32,
) -> IncrementalComparison {
    let cfg = SocConfig::verification_sized(words, words);
    let incremental = run_formal(spec.clone(), cfg, true);
    let fresh = {
        let soc = Soc::build(cfg);
        let state_bits = analysis::state_bit_count(&soc.netlist);
        let an = UpecAnalysis::new(&soc.netlist, spec).expect("spec matches the SoC");
        let t = Instant::now();
        let verdict = an.alg2_fresh_baseline();
        FormalResult { verdict, runtime: t.elapsed(), state_bits }
    };
    assert_eq!(
        incremental.verdict.is_vulnerable(),
        fresh.verdict.is_vulnerable(),
        "incremental and fresh-session engines must agree ({config})"
    );
    assert_eq!(
        incremental.verdict.is_secure(),
        fresh.verdict.is_secure(),
        "incremental and fresh-session engines must agree ({config})"
    );
    IncrementalComparison { config, words, incremental, fresh }
}

/// E7 — Alg. 1 versus Alg. 2 on both configurations.
#[derive(Clone, Debug)]
pub struct ProcedureComparison {
    /// Label of the configuration.
    pub config: &'static str,
    /// Alg. 1 result.
    pub alg1: FormalResult,
    /// Alg. 2 result.
    pub alg2: FormalResult,
}

/// Runs both procedures on the vulnerable and fixed configurations.
pub fn e7_alg1_vs_alg2() -> Vec<ProcedureComparison> {
    vec![
        ProcedureComparison {
            config: "vulnerable",
            alg1: run_formal(UpecSpec::soc_vulnerable(), SocConfig::verification(), false),
            alg2: run_formal(UpecSpec::soc_vulnerable(), SocConfig::verification(), true),
        },
        ProcedureComparison {
            config: "fixed",
            alg1: run_formal(UpecSpec::soc_fixed(), SocConfig::verification(), false),
            alg2: run_formal(UpecSpec::soc_fixed(), SocConfig::verification(), true),
        },
    ]
}

/// E8 — the IFT baseline measurements.
#[derive(Clone, Debug)]
pub struct IftComparison {
    /// Dynamic IFT: fraction of random victim programs exposing the flow.
    pub dynamic_detection_rate: f64,
    /// Dynamic IFT: total time for all trials.
    pub dynamic_runtime: Duration,
    /// Taint-BMC: depth at which a may-flow is reported.
    pub bmc_flow_at: Option<usize>,
    /// Taint-BMC runtime.
    pub bmc_runtime: Duration,
    /// UPEC-SSC runtime on the vulnerable configuration.
    pub upec_vulnerable: Duration,
    /// UPEC-SSC runtime on the fixed configuration.
    pub upec_fixed: Duration,
}

/// Runs the IFT baseline comparison (see `examples/ift_compare.rs` for the
/// narrated version).
///
/// The dynamic-IFT Monte-Carlo trials run on the bit-sliced batch engine
/// at the process-default lane width ([`dynamic_trial_batch`]): one
/// instrumented-netlist pass evaluates a whole lane block of seeded
/// trials, with per-seed decisions identical to the scalar
/// [`dynamic_trial`].
pub fn e8_ift_baseline(trials: u64) -> IftComparison {
    use ssc_ift::bmc::{taint_bmc, Sink};
    use ssc_soc::port_names;

    let soc = Soc::verification_view();
    let inst = ssc_ift::instrument(
        &soc.netlist,
        &[port_names::REQ, port_names::ADDR, port_names::WE, port_names::WDATA],
    );

    let t = Instant::now();
    let hits = count_batch_hits(&inst, 0, trials, ssc_pool::Pool::global());
    let dynamic_runtime = t.elapsed();

    let t = Instant::now();
    let res = taint_bmc(
        &inst,
        &[
            Sink::Mem("pub_xbar.ram".into()),
            Sink::Reg("hwpe.progress".into()),
            Sink::Reg("timer.count".into()),
        ],
        6,
    );
    let bmc_runtime = t.elapsed();

    let vuln = run_formal(UpecSpec::soc_vulnerable(), SocConfig::verification(), false);
    let fixed = run_formal(UpecSpec::soc_fixed(), SocConfig::verification(), false);

    IftComparison {
        dynamic_detection_rate: hits as f64 / trials as f64,
        dynamic_runtime,
        bmc_flow_at: res.flow_at,
        bmc_runtime,
        upec_vulnerable: vuln.runtime,
        upec_fixed: fixed.runtime,
    }
}

/// The number of stimulus cycles of one dynamic-IFT trial.
const TRIAL_CYCLES: u64 = 40;

/// The HWPE configuration writes every trial starts with.
const TRIAL_CONFIG: [(u64, u64); 4] = [
    (ssc_soc::addr::HWPE_SRC, ssc_soc::addr::PUB_RAM_BASE + 0x100),
    (ssc_soc::addr::HWPE_DST, ssc_soc::addr::PUB_RAM_BASE + 0x40),
    (ssc_soc::addr::HWPE_LEN, 8),
    (ssc_soc::addr::HWPE_CTRL, 1),
];

/// A trial's pre-drawn stimulus schedule: the cycle of the tainted victim
/// access plus the noise-access coin flips, drawn in the exact order the
/// scalar trial consumes randomness — so the batch engine can replay 64
/// schedules in lanes with per-seed decisions identical to
/// [`dynamic_trial`].
fn trial_schedule(seed: u64) -> (u64, Vec<bool>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let secret_cycle = rng.random_range(0..TRIAL_CYCLES);
    let noise: Vec<bool> = (0..TRIAL_CYCLES)
        .map(|cycle| cycle != secret_cycle && rng.random_bool(0.25))
        .collect();
    (secret_cycle, noise)
}

/// One random dynamic-IFT trial (mirrors `examples/ift_compare.rs`).
///
/// This is the scalar reference the batched [`dynamic_trial_batch`] is
/// cross-checked against (and the baseline of the lanes-vs-scalar
/// throughput record, `BENCH_e8_lanes.json`).
pub fn dynamic_trial(inst: &ssc_ift::Instrumented, seed: u64) -> bool {
    use ssc_ift::dynamic::TaintSim;
    use ssc_soc::{addr, port_names};

    let (secret_cycle, noise) = trial_schedule(seed);
    let mut ts = TaintSim::new(inst);
    for (reg, val) in TRIAL_CONFIG {
        ts.set_input(port_names::REQ, 1);
        ts.set_input(port_names::WE, 1);
        ts.set_input(port_names::ADDR, reg);
        ts.set_input(port_names::WDATA, val);
        ts.step();
    }
    ts.set_input(port_names::WE, 0);
    ts.set_input(port_names::REQ, 0);

    let victim_range = addr::PUB_RAM_BASE + 0x20;
    for cycle in 0..TRIAL_CYCLES {
        if cycle == secret_cycle {
            ts.set_input(port_names::REQ, 1);
            ts.set_input(port_names::ADDR, victim_range);
            ts.set_input(port_names::WE, 0);
            ts.set_taint(port_names::REQ, 1);
            ts.set_taint(port_names::ADDR, u64::MAX);
        } else if noise[cycle as usize] {
            ts.set_input(port_names::REQ, 1);
            ts.set_input(port_names::ADDR, addr::PUB_RAM_BASE + 0x3C0);
            ts.set_taint(port_names::REQ, 0);
            ts.set_taint(port_names::ADDR, 0);
        } else {
            ts.set_input(port_names::REQ, 0);
            ts.set_taint(port_names::REQ, 0);
            ts.set_taint(port_names::ADDR, 0);
        }
        ts.step();
    }
    ts.mem_tainted("pub_xbar.ram") || ts.reg_tainted("hwpe.progress")
}

/// `64·W` dynamic-IFT trials in one instrumented-netlist pass: lane `l`
/// runs the trial seeded `base_seed + l` on the width-`W` bit-sliced batch
/// engine (64 trials at `W = 1`, 256 at `W = 4`).
///
/// Returns the detection mask (lane `l` set = trial `base_seed + l`
/// exposed the flow); each lane's decision is identical to
/// `dynamic_trial(inst, base_seed + l)` at every width.
pub fn dynamic_trial_batch<const W: usize>(
    inst: &ssc_ift::Instrumented,
    base_seed: u64,
) -> Block<W> {
    use ssc_ift::dynamic::BatchTaintSim;
    use ssc_soc::{addr, port_names};

    let lanes = block_lanes::<W>();
    let schedules: Vec<(u64, Vec<bool>)> =
        (0..lanes as u64).map(|l| trial_schedule(base_seed + l)).collect();

    let mut ts = BatchTaintSim::<W>::new(inst);
    for (reg, val) in TRIAL_CONFIG {
        ts.set_input(port_names::REQ, 1);
        ts.set_input(port_names::WE, 1);
        ts.set_input(port_names::ADDR, reg);
        ts.set_input(port_names::WDATA, val);
        ts.step();
    }
    ts.set_input(port_names::WE, 0);
    ts.set_input(port_names::REQ, 0);

    let victim_range = addr::PUB_RAM_BASE + 0x20;
    let noise_range = addr::PUB_RAM_BASE + 0x3C0;
    // The scalar trial leaves ADDR untouched on idle cycles; replicate the
    // hold per lane.
    let mut addr_held = vec![TRIAL_CONFIG[3].0; lanes];
    let mut req = vec![0u64; lanes];
    let mut taint_req = vec![0u64; lanes];
    let mut taint_addr = vec![0u64; lanes];
    for cycle in 0..TRIAL_CYCLES {
        req.fill(0);
        taint_req.fill(0);
        taint_addr.fill(0);
        for (l, (secret_cycle, noise)) in schedules.iter().enumerate() {
            if cycle == *secret_cycle {
                req[l] = 1;
                addr_held[l] = victim_range;
                taint_req[l] = 1;
                taint_addr[l] = u64::MAX;
            } else if noise[cycle as usize] {
                req[l] = 1;
                addr_held[l] = noise_range;
            }
        }
        ts.set_input_lanes(port_names::REQ, &req);
        ts.set_input_lanes(port_names::ADDR, &addr_held);
        ts.set_input(port_names::WE, 0);
        ts.set_taint_lanes(port_names::REQ, &taint_req);
        ts.set_taint_lanes(port_names::ADDR, &taint_addr);
        ts.step();
    }
    ts.mem_tainted_lanes("pub_xbar.ram") | ts.reg_tainted_lanes("hwpe.progress")
}

/// Counts dynamic-IFT detections for seeds `base..base + trials` using the
/// batch engine at the process-default lane width (`64·W` seeds per pass;
/// a final partial pass masks the unused lanes).
fn count_batch_hits(
    inst: &ssc_ift::Instrumented,
    base: u64,
    trials: u64,
    pool: &ssc_pool::Pool,
) -> u64 {
    count_batch_hits_width(inst, base, trials, pool, LaneWidth::global())
}

/// [`count_batch_hits`] at an explicit lane width — the monomorphization
/// point of the width-generic Monte-Carlo loop.
fn count_batch_hits_width(
    inst: &ssc_ift::Instrumented,
    base: u64,
    trials: u64,
    pool: &ssc_pool::Pool,
    width: LaneWidth,
) -> u64 {
    match width {
        LaneWidth::X64 => count_hits_impl::<1>(inst, base, trials, pool),
        LaneWidth::X256 => count_hits_impl::<4>(inst, base, trials, pool),
    }
}

/// The width-monomorphic Monte-Carlo body.
///
/// Monte-Carlo passes share no state (each builds its own `BatchTaintSim`
/// over the shared instrumented netlist), so the seed blocks shard across
/// `pool` through the shared [`ssc_pool::Pool::run_blocks`] partitioner;
/// block seeds derive from the block coordinates, so the hit count is
/// identical to the sequential loop for every pool size and width.
fn count_hits_impl<const W: usize>(
    inst: &ssc_ift::Instrumented,
    base: u64,
    trials: u64,
    pool: &ssc_pool::Pool,
) -> u64 {
    pool.run_blocks(trials as usize, block_lanes::<W>(), |blk| {
        let mask = dynamic_trial_batch::<W>(inst, base + blk.start as u64);
        u64::from((mask & Block::low_mask(blk.len)).count_ones())
    })
    .iter()
    .sum()
}

/// The per-width throughput comparison behind `BENCH_e8_lanes.json`: the
/// same `trials` dynamic-IFT trials (same seeds, same decisions) run once
/// on the scalar [`dynamic_trial`] loop, once on the 64-lane
/// (`W = 1`) [`dynamic_trial_batch`] engine, and once on the 256-lane
/// (`W = 4`) wide engine.
///
/// All sides are timed **single-worker** (the batch loops on a 1-worker
/// pool): the recorded speedups isolate the bit-parallel *lane* win so
/// they stay comparable across hosts with different core counts — thread
/// parallelism on top of it is the e9 portfolio record's business.
#[derive(Clone, Debug)]
pub struct E8LanesComparison {
    /// Number of trials each engine ran.
    pub trials: u64,
    /// Wall-clock time of the scalar loop.
    pub scalar_runtime: Duration,
    /// Wall-clock time of the 64-lane batched loop.
    pub batch_runtime: Duration,
    /// Wall-clock time of the 256-lane wide batched loop.
    pub wide_runtime: Duration,
    /// Detections seen by the scalar loop.
    pub scalar_hits: u64,
    /// Detections seen by the 64-lane loop (must equal `scalar_hits`).
    pub batch_hits: u64,
    /// Detections seen by the 256-lane loop (must equal `scalar_hits`).
    pub wide_hits: u64,
    /// Whether the host advertises AVX2 (the wide engine's target ISA —
    /// the CI gate only enforces the wide floor where this is `true`).
    pub avx2: bool,
}

impl E8LanesComparison {
    /// Trial-throughput speedup of the 64-lane engine over the scalar
    /// loop.
    pub fn speedup(&self) -> f64 {
        self.scalar_runtime.as_secs_f64() / self.batch_runtime.as_secs_f64().max(1e-9)
    }

    /// Trial-throughput speedup of the 256-lane engine over the scalar
    /// loop.
    pub fn wide_speedup(&self) -> f64 {
        self.scalar_runtime.as_secs_f64() / self.wide_runtime.as_secs_f64().max(1e-9)
    }

    /// Trial-throughput speedup of the 256-lane engine over the 64-lane
    /// engine — the width knob's marginal win, gated at ≥ 1.5× on
    /// AVX2-capable hosts.
    pub fn wide_vs_batch(&self) -> f64 {
        self.batch_runtime.as_secs_f64() / self.wide_runtime.as_secs_f64().max(1e-9)
    }

    /// Detection rate (identical for all engines).
    pub fn detection_rate(&self) -> f64 {
        self.batch_hits as f64 / self.trials.max(1) as f64
    }
}

/// `true` if the host supports the wide engine's target ISA (AVX2).
pub fn host_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs the per-width lanes-vs-scalar comparison; asserts all engines
/// agree on every seed's detection count.
pub fn e8_lanes_comparison(trials: u64) -> E8LanesComparison {
    use ssc_soc::port_names;

    let soc = Soc::verification_view();
    let inst = ssc_ift::instrument(
        &soc.netlist,
        &[port_names::REQ, port_names::ADDR, port_names::WE, port_names::WDATA],
    );
    let single = ssc_pool::Pool::new(1);

    let t = Instant::now();
    let scalar_hits = (0..trials).filter(|&s| dynamic_trial(&inst, s)).count() as u64;
    let scalar_runtime = t.elapsed();

    let t = Instant::now();
    let batch_hits = count_batch_hits_width(&inst, 0, trials, &single, LaneWidth::X64);
    let batch_runtime = t.elapsed();

    let t = Instant::now();
    let wide_hits = count_batch_hits_width(&inst, 0, trials, &single, LaneWidth::X256);
    let wide_runtime = t.elapsed();

    assert_eq!(
        scalar_hits, batch_hits,
        "64-lane dynamic IFT must reproduce the scalar detections"
    );
    assert_eq!(
        scalar_hits, wide_hits,
        "256-lane dynamic IFT must reproduce the scalar detections"
    );
    E8LanesComparison {
        trials,
        scalar_runtime,
        batch_runtime,
        wide_runtime,
        scalar_hits,
        batch_hits,
        wide_hits,
        avx2: host_has_avx2(),
    }
}

/// E13 — head-to-head of one portfolio cell solved by the legacy
/// MiniSat-lineage CDCL engine versus the modern engine (recursive
/// minimization, tiered DB, adaptive restarts, chronological
/// backtracking). Both runs fork engine-pinned twins of the same prefix,
/// so the *only* variable is the solver engine. The engine may change the
/// search route, so `equivalent` attests verdict agreement, not
/// trajectory identity.
#[derive(Clone, Debug)]
pub struct SolverCellComparison {
    /// Scenario label of the cell.
    pub scenario: &'static str,
    /// Public/private memory words of the analyzed SoC.
    pub words: u32,
    /// The run on the legacy-engine prefix.
    pub legacy: FormalResult,
    /// The run on the modern-engine prefix.
    pub modern: FormalResult,
    /// Solver wall clock of the multi-cycle (window ≥ 2) checks, legacy —
    /// the solve-dominated induction windows the modern tier targets, and
    /// the population the CI trend gate measures.
    pub deep_legacy: Duration,
    /// Solver wall clock of the multi-cycle checks, modern.
    pub deep_modern: Duration,
    /// Conflicts spent across the whole trajectory, legacy / modern.
    pub conflicts: (u64, u64),
    /// Modern-run heuristic activity: literals deleted by recursive
    /// minimization beyond what analysis produced.
    pub minimized_lits: u64,
    /// Modern-run learnt-clause promotions into a better tier.
    pub tier_promotions: u64,
    /// Modern-run adaptive restarts postponed by the trail-size block.
    pub restarts_blocked: u64,
    /// Modern-run backjumps taken chronologically (longer than
    /// [`ssc_sat::CHRONO_LEVELS`] levels).
    pub chrono_backtracks: u64,
    /// Whether both engines reached the same verdict kind. Must be `true`:
    /// heuristics choose the route, never the destination.
    pub equivalent: bool,
}

impl SolverCellComparison {
    /// Legacy-over-modern wall-clock ratio for the cell (> 1 = modern won).
    pub fn speedup(&self) -> f64 {
        self.legacy.runtime.as_secs_f64() / self.modern.runtime.as_secs_f64().max(1e-9)
    }

    /// The ratio on the multi-cycle (window ≥ 2) checks only — the E13
    /// headline quantity, gated ≥ 1.3× in aggregate by `bench_trend`.
    pub fn deep_speedup(&self) -> f64 {
        self.deep_legacy.as_secs_f64() / self.deep_modern.as_secs_f64().max(1e-9)
    }
}

/// Measures [`SolverCellComparison`] for one cell over two engine-pinned
/// prefixes (built via
/// `SessionPrefix::build_with_solver_heuristics(.., legacy/modern)`);
/// forks inherit the pinned heuristics, so each run is wholly one engine.
pub fn compare_solver_cell(
    scenario: &portfolio::Scenario,
    art: &std::sync::Arc<upec_ssc::ProductArtifact>,
    legacy_prefix: &upec_ssc::SessionPrefix<'_>,
    modern_prefix: &upec_ssc::SessionPrefix<'_>,
    words: u32,
) -> SolverCellComparison {
    let legacy = portfolio::run_cell_shared(scenario, art, legacy_prefix, words);
    let modern = portfolio::run_cell_shared(scenario, art, modern_prefix, words);
    let kind = |e: &portfolio::PortfolioEntry| match &e.result.verdict {
        Verdict::Secure(_) => 0u8,
        Verdict::Vulnerable(_) => 1,
        Verdict::Inconclusive(_) => 2,
    };
    let equivalent = kind(&legacy) == kind(&modern)
        && !matches!(legacy.result.verdict, Verdict::Inconclusive(_));
    let deep = |e: &portfolio::PortfolioEntry| {
        e.result
            .verdict
            .iterations()
            .iter()
            .filter(|it| it.window >= 2)
            .map(|it| it.runtime)
            .sum::<Duration>()
    };
    let sum = |e: &portfolio::PortfolioEntry, f: fn(&upec_ssc::IterationStat) -> u64| {
        e.result.verdict.iterations().iter().map(f).sum::<u64>()
    };
    SolverCellComparison {
        scenario: scenario.name,
        words,
        deep_legacy: deep(&legacy),
        deep_modern: deep(&modern),
        conflicts: (sum(&legacy, |it| it.solver.conflicts), sum(&modern, |it| it.solver.conflicts)),
        minimized_lits: sum(&modern, |it| it.solver.minimized_lits),
        tier_promotions: sum(&modern, |it| it.solver.tier_promotions),
        restarts_blocked: sum(&modern, |it| it.solver.restarts_blocked),
        chrono_backtracks: sum(&modern, |it| it.solver.chrono_backtracks),
        legacy: legacy.result,
        modern: modern.result,
        equivalent,
    }
}

/// Derives the linter's threat-model input ([`ssc_netlist::lint::LintSpec`])
/// from a verification spec, so the lint corpus and the proof engine see
/// the *same* scenario configurations:
///
/// * the victim inputs are the spec's [`upec_ssc::VictimPort`] signals;
/// * every [`upec_ssc::IpPort`] becomes an attacker master (named by its
///   signal prefix), `quiesced` when the spec quiesces a busy flag with the
///   same prefix, `constrained` when a `RegOutsideDevice` firmware
///   constraint pins one of its registers off the protected device;
/// * the protected memory is the device whose base the spec's
///   `range_in_device` selects.
pub fn derive_lint_spec(spec: &UpecSpec) -> ssc_netlist::lint::LintSpec {
    use ssc_netlist::lint::{LintMaster, LintSpec};
    use upec_ssc::FirmwareConstraint;

    let prefix = |s: &str| s.split('.').next().unwrap_or(s).to_string();
    let masters = spec
        .ip_ports
        .iter()
        .map(|p| {
            let name = prefix(&p.req);
            let quiesced = spec.quiesced_ips.iter().any(|q| prefix(q) == name);
            let constrained = spec.constraints.iter().any(|c| match c {
                FirmwareConstraint::RegOutsideDevice { reg, device, .. } => {
                    prefix(reg) == name && Some(*device) == spec.range_in_device
                }
                FirmwareConstraint::PortWriteOutsideDevice { .. } => false,
            });
            LintMaster {
                name,
                signals: vec![p.req.clone(), p.addr.clone()],
                quiesced,
                constrained,
            }
        })
        .collect();
    let protected_mem = spec.range_in_device.and_then(|base| {
        spec.devices.iter().find(|d| d.base == base).map(|d| d.mem_name.clone())
    });
    LintSpec {
        victim_inputs: vec![
            spec.port.req.clone(),
            spec.port.addr.clone(),
            spec.port.we.clone(),
            spec.port.wdata.clone(),
        ],
        masters,
        protected_mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_engine_beats_fresh_baseline() {
        // The acceptance gate of the persistent-session refactor, asserted
        // on *deterministic* quantities (the solver is deterministic;
        // wall-clock speedup lives in the BENCH_*.json records where
        // scheduler jitter cannot turn CI red): on the deepest-window
        // configuration the incremental engine must do strictly less
        // total solver and encoding work than the tear-down baseline.
        let cmp = compare_alg2_engines("fixed", UpecSpec::soc_fixed(), 8);
        assert!(cmp.incremental.verdict.is_secure());
        let work = |v: &upec_ssc::Verdict| {
            v.iterations()
                .iter()
                .map(|i| i.solver.propagations + i.solver.conflicts)
                .sum::<u64>()
        };
        let encoded = |v: &upec_ssc::Verdict| {
            v.iterations().iter().map(|i| i.encoded_delta).sum::<usize>()
        };
        assert!(
            work(&cmp.incremental.verdict) < work(&cmp.fresh.verdict),
            "incremental solver work {} must undercut fresh {}",
            work(&cmp.incremental.verdict),
            work(&cmp.fresh.verdict)
        );
        assert!(
            encoded(&cmp.incremental.verdict) < encoded(&cmp.fresh.verdict),
            "incremental encoding {} must undercut fresh {}",
            encoded(&cmp.incremental.verdict),
            encoded(&cmp.fresh.verdict)
        );
        // The shared prefix is encoded at session construction; no window's
        // check may come close to re-encoding it.
        let iters = cmp.incremental.verdict.iterations();
        let first = iters.first().expect("at least one iteration");
        for it in iters {
            assert!(
                it.encoded_delta * 4 < first.encoded_nodes,
                "window {} re-encoded {} nodes (prefix encoding: {})",
                it.window,
                it.encoded_delta,
                first.encoded_nodes
            );
        }
    }

    #[test]
    fn batched_dynamic_trials_match_scalar_decisions() {
        use ssc_soc::port_names;

        let soc = Soc::verification_view();
        let inst = ssc_ift::instrument(
            &soc.netlist,
            &[port_names::REQ, port_names::ADDR, port_names::WE, port_names::WDATA],
        );
        let mask = dynamic_trial_batch::<1>(&inst, 0);
        for lane in 0..block_lanes::<1>() {
            assert_eq!(
                mask.bit(lane),
                dynamic_trial(&inst, lane as u64),
                "lane {lane} diverges from the scalar trial"
            );
        }
        // A detection rate of exactly 0 or 1 would make the equivalence
        // check vacuous; the stimulus distribution keeps it strictly inside.
        assert!(
            !mask.is_zero() && mask != Block::ONES,
            "degenerate trial batch: {mask:?}"
        );
    }

    #[test]
    fn wide_dynamic_trials_match_scalar_decisions_across_all_blocks() {
        use ssc_soc::port_names;

        let soc = Soc::verification_view();
        let inst = ssc_ift::instrument(
            &soc.netlist,
            &[port_names::REQ, port_names::ADDR, port_names::WE, port_names::WDATA],
        );
        let mask = dynamic_trial_batch::<4>(&inst, 0);
        // Every wide lane reproduces the scalar decision for its seed
        // (which also pins the wide engine to the narrow one — the narrow
        // case above covers the same first 64 seeds).
        for lane in 0..block_lanes::<4>() {
            assert_eq!(
                mask.bit(lane),
                dynamic_trial(&inst, lane as u64),
                "wide lane {lane} diverges from the scalar trial"
            );
        }
        assert!(
            !mask.is_zero() && mask != Block::ONES,
            "degenerate trial batch: {mask:?}"
        );
        // The sharded counter agrees across widths and pool sizes,
        // including partial trailing blocks (190 = 2×64 + 62 narrow,
        // 256-lane block + partial wide).
        let trials = 190;
        let reference =
            count_batch_hits_width(&inst, 0, trials, &ssc_pool::Pool::new(1), LaneWidth::X64);
        for width in [LaneWidth::X64, LaneWidth::X256] {
            for workers in [1, 3] {
                let hits = count_batch_hits_width(
                    &inst,
                    0,
                    trials,
                    &ssc_pool::Pool::new(workers),
                    width,
                );
                assert_eq!(hits, reference, "{width:?} at {workers} workers diverges");
            }
        }
    }

    #[test]
    fn e8_lanes_comparison_agrees_and_its_record_is_jsonish() {
        let cmp = e8_lanes_comparison(96);
        assert_eq!(cmp.scalar_hits, cmp.batch_hits);
        assert_eq!(cmp.scalar_hits, cmp.wide_hits);
        let record = perf::e8_lanes(&cmp);
        assert_eq!(perf::Json::parse(&record.to_string()).as_ref(), Ok(&record));
        let num = |k: &str| record.get(k).and_then(perf::Json::num);
        assert_eq!(num("lanes"), Some(64.0));
        assert_eq!(num("wide_lanes"), Some(256.0));
        assert_eq!(num("speedup"), Some(cmp.speedup()));
        assert_eq!(num("wide_vs_batch"), Some(cmp.wide_vs_batch()));
        assert_eq!(record.get("avx2").and_then(perf::Json::bool), Some(cmp.avx2));
        // The wall-clock speedups themselves are asserted by the CI trend
        // gate on the emitted record, not here, where scheduler jitter
        // would flake; a batch pass beating 64 scalar passes is still
        // robustly true, as is the wide pass beating the scalar loop.
        assert!(
            cmp.batch_runtime < cmp.scalar_runtime,
            "batch {:?} must undercut scalar {:?}",
            cmp.batch_runtime,
            cmp.scalar_runtime
        );
        assert!(
            cmp.wide_runtime < cmp.scalar_runtime,
            "wide {:?} must undercut scalar {:?}",
            cmp.wide_runtime,
            cmp.scalar_runtime
        );
    }

    #[test]
    fn e2_detects_memory_medium() {
        let r = e2_detect_hwpe_memory();
        assert!(r.verdict.is_vulnerable());
    }

    #[test]
    fn e4_proves_secure() {
        let r = e4_secure_fixpoint();
        assert!(r.verdict.is_secure());
    }

    #[test]
    fn e5_two_cycle_is_cheapest() {
        let pts = e5_window_sweep(&[1, 4]);
        assert!(pts[0].aig_nodes < pts[1].aig_nodes);
    }
}
