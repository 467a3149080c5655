//! Quickstart: detect an MCU-wide timing side channel formally, then prove
//! the countermeasure secure and check that proof's certificate.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mcu_ssc::netlist::analysis;
use mcu_ssc::soc::Soc;
use mcu_ssc::upec::{UpecAnalysis, UpecSpec, Verdict};

fn main() -> Result<(), String> {
    // 1. Build the SoC's *verification view*: the whole fabric — crossbars,
    //    DMA, HWPE accelerator, timer, peripherals, two memory devices —
    //    with the CPU replaced by a free data port. The free port is what
    //    lets the solver quantify over every possible victim program.
    let soc = Soc::verification_view();
    println!(
        "SoC verification view: {}",
        analysis::stats(&soc.netlist)
    );

    // 2. The vulnerable configuration: the victim's security-critical data
    //    lives in the *public* memory device, shared with the DMA and the
    //    accelerator.
    let spec = UpecSpec::soc_vulnerable();
    let vulnerable = UpecAnalysis::new(&soc.netlist, spec)?;
    println!(
        "\n[1/4] UPEC-SSC (Alg. 2) on the shared-memory configuration ..."
    );
    match vulnerable.alg2() {
        Verdict::Vulnerable(report) => {
            println!("  -> {}", Verdict::Vulnerable(report.clone()));
            println!("{}", report.cex);
        }
        other => return Err(format!("expected a vulnerability, got {other}")),
    }

    // 3. The countermeasure (paper Sec. 4.2): map the security-critical
    //    region into the private memory device and constrain the few IPs
    //    that could reach it. First prove the firmware constraints
    //    inductive, then run the fixpoint procedure.
    let fixed = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_fixed())?;
    println!("[2/4] Proving the countermeasure's firmware constraints inductive ...");
    fixed
        .prove_constraints_inductive()
        .map_err(|bad| format!("constraints not inductive: {bad:?}"))?;
    println!("  -> legal IP configurations stay legal");

    println!("[3/4] UPEC-SSC (Alg. 1) on the fixed configuration ...");
    let verdict = fixed.alg1();
    println!("  -> {verdict}");
    let Verdict::Secure(report) = &verdict else {
        return Err("the countermeasure should verify".into());
    };
    for it in &report.iterations {
        println!(
            "     iteration {}: |S| = {}, removed {}, {:?}",
            it.iteration, it.set_size, it.removed, it.runtime
        );
    }

    // 4. The SECURE report carries its final set. Re-prove it inductive,
    //    with the firmware constraints, on a solver whose every answer an
    //    independent RUP checker verifies.
    println!("[4/4] Certifying the SECURE report ...");
    let certified = fixed.certify(report).map_err(|e| format!("certificate rejected: {e}"))?;
    println!(
        "  -> S_final ({} atoms) is inductive and contains S_pers; {certified} solver answers certified",
        report.final_set.len()
    );
    Ok(())
}
