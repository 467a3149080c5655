//! E9: the scenario portfolio on the default pool versus the same runner
//! on one worker — the machine-saturation record. Emits
//! `BENCH_e9_portfolio.json` (gated in CI at ≥ 2× on ≥ 4-core hosts).

use criterion::{criterion_group, criterion_main, Criterion};
use ssc_bench::portfolio;
use ssc_pool::Pool;

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn bench(c: &mut Criterion) {
    let smoke = c.is_test_mode();
    let mut g = c.benchmark_group("e9_portfolio");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    g.bench_function("portfolio_4x1_default_pool", |b| {
        b.iter(|| {
            let r = portfolio::run_portfolio(Pool::global(), &[8]);
            assert_eq!(r.entries.len(), 4);
        })
    });
    g.finish();

    // The CI smoke matrix: 4 scenarios × 2 sizes = 8 jobs, enough to keep
    // ≥ 4 workers busy; the full matrix adds a deeper size column.
    let sizes: &[u32] = if smoke { &[8, 12] } else { &[8, 12, 16] };
    let pool = Pool::from_env();

    let sequential = portfolio::run_portfolio(&Pool::new(1), sizes);
    let parallel = portfolio::run_portfolio(&pool, sizes);
    let equivalent =
        portfolio::fingerprint(&sequential) == portfolio::fingerprint(&parallel);
    assert!(
        equivalent,
        "parallel portfolio diverged from the sequential loop:\n--- sequential\n{}\n--- parallel\n{}",
        portfolio::fingerprint(&sequential),
        portfolio::fingerprint(&parallel)
    );

    let speedup = sequential.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
    println!(
        "\n[e9] portfolio ({} jobs, {} workers, {} cores): sequential {:?} vs parallel {:?} ({:.2}x)",
        parallel.entries.len(),
        parallel.workers,
        cores(),
        sequential.wall,
        parallel.wall,
        speedup
    );
    for e in &parallel.entries {
        let r = e.result();
        println!(
            "[e9]   {:>22} @ {:>2} words: {:>6} bits, {:?} ({} iterations)",
            e.scenario,
            e.words,
            r.state_bits,
            r.runtime,
            r.verdict.iterations().len()
        );
    }

    let record = ssc_bench::perf::e9(&parallel, sequential.wall, cores(), equivalent);
    ssc_bench::perf::write_record("e9_portfolio", &record);
}

criterion_group!(benches, bench);
criterion_main!(benches);
