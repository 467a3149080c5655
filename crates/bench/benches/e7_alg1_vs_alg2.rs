//! E7: the 2-cycle fixpoint (Alg. 1) versus the unrolled procedure
//! (Alg. 2). Emits `BENCH_e7_alg1_vs_alg2.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use ssc_soc::Soc;
use upec_ssc::{UpecAnalysis, UpecSpec};

fn bench(c: &mut Criterion) {
    let soc = Soc::verification_view();
    let mut g = c.benchmark_group("e7_alg1_vs_alg2");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    g.bench_function("alg1_vulnerable", |b| {
        b.iter(|| {
            let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap();
            assert!(an.alg1().is_vulnerable());
        })
    });
    g.bench_function("alg2_vulnerable", |b| {
        b.iter(|| {
            let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap();
            assert!(an.alg2().is_vulnerable());
        })
    });
    g.finish();

    println!("\n[e7] config/procedure -> iterations, runtime:");
    let procedures = ssc_bench::e7_alg1_vs_alg2();
    for cmp in &procedures {
        println!(
            "[e7]   {:<10} alg1: {} iters {:?} | alg2: {} iters {:?}",
            cmp.config,
            cmp.alg1.verdict.iterations().len(),
            cmp.alg1.runtime,
            cmp.alg2.verdict.iterations().len(),
            cmp.alg2.runtime
        );
    }
    ssc_bench::perf::write_record("e7_alg1_vs_alg2", &ssc_bench::perf::e7(&procedures));
}

criterion_group!(benches, bench);
criterion_main!(benches);
