//! E6: scalability — proof effort versus design state bits. Emits
//! `BENCH_e6_scaling.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssc_soc::{Soc, SocConfig};
use upec_ssc::{UpecAnalysis, UpecSpec};

fn bench(c: &mut Criterion) {
    let smoke = c.is_test_mode();
    let mut g = c.benchmark_group("e6_scaling");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for words in [8u32, 16] {
        let soc = Soc::build(SocConfig::verification_sized(words, words));
        g.bench_with_input(BenchmarkId::new("detect_vulnerable", words), &soc, |b, soc| {
            b.iter(|| {
                let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap();
                assert!(an.alg1().is_vulnerable());
            })
        });
        g.bench_with_input(BenchmarkId::new("alg2_incremental", words), &soc, |b, soc| {
            b.iter(|| {
                let an = UpecAnalysis::new(&soc.netlist, UpecSpec::soc_vulnerable()).unwrap();
                assert!(an.alg2().is_vulnerable());
            })
        });
    }
    g.finish();

    // The perf record: the scaling series (smaller sizes in smoke mode to
    // keep CI fast).
    let sizes: &[u32] = if smoke { &[8] } else { &[8, 16, 32] };
    let points = ssc_bench::e6_scaling(sizes);
    println!("\n[e6] words -> (state bits, detect, prove):");
    for p in &points {
        println!(
            "[e6]   {:>3} words: {:>6} bits, detect {:?}, prove {:?}",
            p.words, p.state_bits, p.detect, p.prove
        );
    }
    ssc_bench::perf::write_record("e6_scaling", &ssc_bench::perf::e6(&points));
}

criterion_group!(benches, bench);
criterion_main!(benches);
