//! Parallel/sequential equivalence of the scenario-portfolio runner: the
//! fanned-out matrix (verdicts, iteration trajectories, merged record
//! order and seeds) must be **bit-identical** to the same runner on one
//! worker — the plain sequential loop — for every pool size, on all four
//! scenario configurations.
//!
//! One test function on purpose: the formal runs are the expensive part,
//! so every assertion (equivalence across pool sizes 1 / 2 / `num_cpus`,
//! per-scenario verdicts, the e9 record shape) shares the same runs.

use ssc_bench::perf::{e9, Json};
use ssc_bench::portfolio::{fingerprint, run_portfolio, scenario_matrix};
use ssc_pool::Pool;

#[test]
fn parallel_portfolio_is_bit_identical_to_the_sequential_loop() {
    let sizes = [8u32];
    let sequential = run_portfolio(&Pool::new(1), &sizes);
    let reference = fingerprint(&sequential);
    assert_eq!(sequential.entries.len(), scenario_matrix().len());

    // Pool sizes 2 and the machine's parallelism, against the one-worker
    // run (deduplicated — on a host with at most 2 cores they are one).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut pool_sizes = vec![2usize, cores.max(2)];
    pool_sizes.dedup();

    let mut two_workers = None;
    for workers in pool_sizes {
        let parallel = run_portfolio(&Pool::new(workers), &sizes);
        assert_eq!(
            fingerprint(&parallel),
            reference,
            "portfolio diverges from the sequential loop at {workers} workers"
        );
        assert_eq!(parallel.workers, workers);
        if workers == 2 {
            two_workers = Some(parallel);
        }
    }
    let parallel = two_workers.expect("pool size 2 is always in the matrix");

    // Per-scenario expectations, carried through the deterministic merge.
    for (entry, scenario) in sequential.entries.iter().zip(scenario_matrix()) {
        assert_eq!(entry.scenario, scenario.name);
        let verdict = &entry.result().verdict;
        assert_eq!(verdict.is_vulnerable(), scenario.leaky, "verdict on {}", entry.scenario);
        assert!(
            !verdict.iterations().is_empty(),
            "{}: iteration stats must be carried into the merged entry",
            entry.scenario
        );
    }

    // The e9 record reads back as written and carries every field the CI
    // gate reads, plus one entry per cell with its seed.
    let record = e9(&parallel, sequential.wall, 4, true);
    assert_eq!(Json::parse(&record.to_string()).as_ref(), Ok(&record));
    assert!(record.get("speedup").and_then(Json::num).is_some());
    assert_eq!(record.get("cores").and_then(Json::num), Some(4.0));
    assert_eq!(record.get("workers").and_then(Json::num), Some(2.0));
    assert_eq!(record.get("equivalent").and_then(Json::bool), Some(true));
    let entries = record.get("entries").and_then(Json::arr).expect("an entries array");
    assert_eq!(entries.len(), parallel.entries.len());
    for (json, entry) in entries.iter().zip(&parallel.entries) {
        assert_eq!(json.get("scenario").and_then(Json::str), Some(entry.scenario));
        let seed = format!("{:#018x}", entry.seed);
        assert_eq!(json.get("seed").and_then(Json::str), Some(seed.as_str()));
    }
}
