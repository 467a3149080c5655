//! The fault-injection harness of the experiment stack: plan constructors
//! addressed at portfolio cells, re-exports of the `ssc-sat` chaos
//! registry, and panic-noise control for chaos tests.
//!
//! The registry itself lives in `ssc_sat::chaos` (the dependency root, so
//! every layer can host an injection point); this module is the
//! bench-level vocabulary on top. Plans are keyed by the portfolio cell
//! seed ([`crate::portfolio::job_seed`]) — a *logical* address that is
//! independent of worker scheduling, so an injected fault hits the same
//! cell on every pool size.
//!
//! Typical test shape:
//!
//! ```no_run
//! use ssc_bench::portfolio::{job_seed, run_portfolio};
//! use ssc_bench::chaos;
//!
//! chaos::silence_injected_panics();
//! let seed = job_seed("dma_timer/patched", 8);
//! let _plan = chaos::arm(chaos::panic_at_cell(seed));
//! let report = run_portfolio(&ssc_pool::Pool::new(4), &[8]);
//! assert_eq!(report.entries.iter().filter(|e| e.outcome.is_err()).count(), 1);
//! ```

pub use ssc_sat::chaos::{
    arm, fired, is_injected_panic, point, ChaosGuard, ChaosPlan, Fault, Site,
};

use std::sync::Once;

/// A plan that panics during the setup of the portfolio cell whose seed is
/// `seed` (see [`crate::portfolio::job_seed`]). The unwind is confined to
/// the cell by `ssc_pool::Pool::try_run`.
#[must_use]
pub fn panic_at_cell(seed: u64) -> ChaosPlan {
    ChaosPlan { site: Site::CellSetup, key: Some(seed), fault: Fault::Panic }
}

/// A plan that forces every solve of the cell whose seed is `seed` to a
/// zero-conflict budget, so the cell ends inconclusive with
/// `interrupt:conflict-budget`.
#[must_use]
pub fn exhaust_cell_budget(seed: u64) -> ChaosPlan {
    ChaosPlan { site: Site::Solve, key: Some(seed), fault: Fault::ExhaustBudget }
}

/// A plan that makes every solve of the cell whose seed is `seed` behave
/// as if its cancellation token was raised before it started.
#[must_use]
pub fn cancel_cell(seed: u64) -> ChaosPlan {
    ChaosPlan { site: Site::Solve, key: Some(seed), fault: Fault::Cancel }
}

/// A plan that panics at the first CNF-encoding of a not-yet-encoded AIG
/// node, anywhere in the process (the encode path is unkeyed).
#[must_use]
pub fn panic_at_encode() -> ChaosPlan {
    ChaosPlan { site: Site::Encode, key: None, fault: Fault::Panic }
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// stderr backtrace for chaos-injected panics and delegates every other
/// panic to the previously installed hook.
///
/// Chaos tests *expect* their injected panics — letting each one dump
/// `thread panicked at ...` noise buries real failures. The hook filters
/// by payload ([`is_injected_panic`]), so genuine panics still report
/// normally.
pub fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if message.is_some_and(is_injected_panic) {
                return;
            }
            previous(info);
        }));
    });
}
