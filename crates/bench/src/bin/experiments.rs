//! Regenerates every experiment of the paper reproduction (E1–E9) and
//! prints their tables and series.
//!
//! ```sh
//! cargo run --release -p ssc-bench --bin experiments
//! ```

use ssc_bench::*;
use upec_ssc::Verdict;

fn hline(title: &str) {
    println!("\n==== {title} {}", "=".repeat(64usize.saturating_sub(title.len())));
}

fn main() {
    hline("E1  Fig. 1 — DMA + timer channel (simulation)");
    let r = e1_dma_timer_sweep(12);
    println!("  n (actual)  observation  recovered");
    for p in &r.points {
        println!("  {:>10}  {:>11}  {:>9}", p.actual, p.observation, p.recovered);
    }
    println!(
        "  exact accuracy {:.0}% | {} distinguishable | {:.1} bits/tick",
        r.exact_accuracy() * 100.0,
        r.distinguishable(),
        r.bits_per_window()
    );

    hline("E2  Sec. 4.1 — formal detection of the HWPE+memory variant");
    let d = e2_detect_hwpe_memory();
    println!("  verdict: {}", d.verdict);
    if let Verdict::Vulnerable(rep) = &d.verdict {
        println!("{}", rep.cex);
        // Sensitivity of the leak: replay the cex + 63 perturbed stimuli in
        // one batch pass (the netlist is rebuilt deterministically, so the
        // counterexample's atom ids transfer).
        let soc = ssc_soc::Soc::build(ssc_soc::SocConfig::verification());
        let an = upec_ssc::UpecAnalysis::new(
            &soc.netlist,
            upec_ssc::UpecSpec::soc_vulnerable_hwpe_memory(),
        )
        .expect("spec ok");
        match upec_ssc::replay_neighborhood(&an, &rep.cex) {
            Ok(n) => println!("  {n}"),
            Err(e) => println!("  neighbourhood replay unavailable: {e}"),
        }
    }
    println!("  runtime {:?} on {} state bits (single instance)", d.runtime, d.state_bits);
    let g = e2_detect_general();
    println!("  general spec verdict: {} in {:?}", g.verdict, g.runtime);

    hline("E3  Sec. 4.1 — timer denial does not close the memory channel");
    let (timer_locked, memory_locked) = e3_no_timer_sweeps(8);
    println!(
        "  timer channel with lock:  {} distinguishable value(s)",
        timer_locked.distinguishable()
    );
    println!(
        "  memory channel with lock: {} distinguishable value(s), ±1 accuracy {:.0}%",
        memory_locked.distinguishable(),
        memory_locked.near_accuracy() * 100.0
    );

    hline("E4  Sec. 4.2 — countermeasure proven secure (Alg. 1 fixpoint)");
    let s = e4_secure_fixpoint();
    println!("  verdict: {}", s.verdict);
    println!("  iteration  |S|   removed   runtime");
    for it in s.verdict.iterations() {
        println!(
            "  {:>9}  {:>4}  {:>7}   {:?}",
            it.iteration, it.set_size, it.removed, it.runtime
        );
    }

    hline("E5  Fig. 2 — property-window reduction");
    println!("  window(cycles)  AIG nodes   check time");
    for p in e5_window_sweep(&[1, 2, 4, 6, 8, 10, 12]) {
        let label = if p.window == 1 { "1 (UPEC-SSC)" } else { "" };
        println!(
            "  {:>14}  {:>9}   {:?}  {}",
            p.window, p.aig_nodes, p.runtime, label
        );
    }

    hline("E6  scalability — state bits vs verdict runtime");
    println!("  words/device  state bits   detect(vuln)   prove(fixed)");
    for p in e6_scaling(&[8, 16, 32, 64]) {
        println!(
            "  {:>12}  {:>10}   {:>12?}   {:>12?}",
            p.words, p.state_bits, p.detect, p.prove
        );
    }

    hline("E7  Alg. 1 vs Alg. 2");
    println!("  config      procedure  verdict      iterations  runtime");
    for c in e7_alg1_vs_alg2() {
        for (name, r) in [("Alg. 1", &c.alg1), ("Alg. 2", &c.alg2)] {
            println!(
                "  {:<10}  {:<9}  {:<11}  {:>10}  {:?}",
                c.config,
                name,
                verdict_kind(&r.verdict),
                r.verdict.iterations().len(),
                r.runtime
            );
        }
        // The window-≥2 checks are where Alg. 2 pays beyond Alg. 1.
        let iterations = c.alg2.verdict.iterations();
        let deep: Vec<_> = iterations.iter().filter(|it| it.window >= 2).collect();
        if !deep.is_empty() {
            println!(
                "  {:<10}  Alg. 2 window >= 2: {} check(s), {} conflicts, {:?} solving",
                c.config,
                deep.len(),
                deep.iter().map(|it| it.solver.conflicts).sum::<u64>(),
                deep.iter().map(|it| it.runtime).sum::<std::time::Duration>()
            );
        }
    }

    hline("E8  Sec. 5 — IFT baseline");
    let i = e8_ift_baseline(40);
    println!(
        "  dynamic IFT:  detection rate {:.0}% over random victims ({:?} total)",
        i.dynamic_detection_rate * 100.0,
        i.dynamic_runtime
    );
    println!(
        "  taint-BMC:    may-flow at depth {:?} ({:?}) — also flags the fixed design",
        i.bmc_flow_at, i.bmc_runtime
    );
    println!(
        "  UPEC-SSC:     vulnerable {:?} / fixed {:?} — exhaustive, value-aware",
        i.upec_vulnerable, i.upec_fixed
    );

    hline("E9  parallel scenario portfolio");
    let sequential = portfolio::run_portfolio(&ssc_pool::Pool::new(1), &[8, 12]);
    let parallel = portfolio::run_portfolio(ssc_pool::Pool::global(), &[8, 12]);
    assert_eq!(
        portfolio::fingerprint(&sequential),
        portfolio::fingerprint(&parallel),
        "parallel portfolio must be bit-identical to the sequential loop"
    );
    println!("  scenario                 words  state bits  verdict      runtime");
    for e in &parallel.entries {
        let r = e.result();
        println!(
            "  {:<24} {:>5}  {:>10}  {:<11}  {:?}",
            e.scenario,
            e.words,
            r.state_bits,
            verdict_kind(&r.verdict),
            r.runtime
        );
    }
    println!(
        "  {} jobs: sequential {:?} vs {} worker(s) {:?} ({:.2}x)",
        parallel.entries.len(),
        sequential.wall,
        parallel.workers,
        parallel.wall,
        sequential.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9)
    );
    println!();
}
