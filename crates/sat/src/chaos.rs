//! Deterministic fault injection for robustness testing.
//!
//! A process-global registry holding at most one armed [`ChaosPlan`].
//! Instrumented code paths call [`point`] with their [`Site`] and a
//! caller-chosen key (e.g. a portfolio cell seed, carried to the solver
//! via [`Budget::tag`](crate::Budget::tag)); when the armed plan matches,
//! the fault fires — a panic, a forced budget exhaustion, or a forced
//! cancellation — through the *genuine* failure machinery of the
//! instrumented layer, never through a separate code path.
//!
//! Keying by logical work unit (rather than by call count) makes
//! injection deterministic under parallel schedules: the same plan hits
//! the same cell no matter how jobs interleave across pool workers.
//!
//! The disarmed fast path is one relaxed atomic load, so the hooks are
//! free in production use. The registry is process-global: tests that arm
//! plans must serialize among themselves and disarm before unrelated
//! work runs (dropping the [`ChaosGuard`] returned by [`arm`] does this).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

/// An instrumented code path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Site {
    /// Entry of [`Solver::solve`](crate::Solver::solve); keyed by the
    /// solver's [`Budget::tag`](crate::Budget::tag).
    Solve,
    /// CNF encoding of a not-yet-encoded AIG node (`ssc-aig`); unkeyed
    /// (callers pass key 0).
    Encode,
    /// Portfolio cell setup (`ssc-bench`); keyed by the cell seed.
    CellSetup,
}

/// The fault an injection point fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Panic with a `"chaos: injected panic..."` message.
    Panic,
    /// Force the budget of the matching solve to zero conflicts, so it
    /// interrupts with [`InterruptCause::Conflicts`](crate::InterruptCause::Conflicts)
    /// at its first conflict (a solve that needs no conflicts still
    /// completes — exhaustion can only be observed where effort is
    /// actually spent). Only [`Site::Solve`] acts on it, so [`arm`]
    /// rejects it at any other site.
    ExhaustBudget,
    /// Behave as if a cancellation token was raised before the matching
    /// solve started: it returns
    /// [`InterruptCause::Cancelled`](crate::InterruptCause::Cancelled)
    /// without doing any work. Only [`Site::Solve`] acts on it, so
    /// [`arm`] rejects it at any other site.
    Cancel,
}

/// A single armed fault: fire `fault` at `site`, but only for calls
/// carrying the matching `key` (`None` matches every key).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChaosPlan {
    /// Which instrumented path to hit.
    pub site: Site,
    /// Restrict to calls carrying this key; `None` matches any call at
    /// the site. Note that an unkeyed [`Site::Solve`] plan hits *every*
    /// solve in the process, including ones in unrelated subsystems.
    pub key: Option<u64>,
    /// What to do when the plan matches.
    pub fault: Fault,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static FIRED: AtomicU64 = AtomicU64::new(0);
static PLAN: RwLock<Option<ChaosPlan>> = RwLock::new(None);

/// Disarms the registry when dropped, so a test cannot leak its plan
/// into subsequent work even if it exits early.
#[must_use = "dropping the guard disarms the plan immediately"]
pub struct ChaosGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arms `plan` and resets the fired counter. Returns a guard that
/// disarms on drop.
///
/// # Panics
///
/// Panics if a plan is already armed: the registry holds one plan at a
/// time, and concurrent arming is almost certainly a test-isolation bug.
/// Also panics, naming the pair, if no caller of `plan.site` acts on
/// `plan.fault` (a budget fault anywhere but [`Site::Solve`]): such a plan
/// would count in [`fired`] without injecting anything.
pub fn arm(plan: ChaosPlan) -> ChaosGuard {
    assert!(
        plan.fault == Fault::Panic || plan.site == Site::Solve,
        "chaos: nothing acts on {:?} at {:?}; only Fault::Panic fires there",
        plan.fault,
        plan.site
    );
    let mut slot = PLAN.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    assert!(slot.is_none(), "a chaos plan is already armed: {:?}", slot.unwrap());
    *slot = Some(plan);
    FIRED.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    ChaosGuard { _not_send: std::marker::PhantomData }
}

fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *PLAN.write().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// How many times the armed plan has fired since [`arm`]. Tests use this
/// to assert the injection actually happened.
pub fn fired() -> u64 {
    FIRED.load(Ordering::SeqCst)
}

/// The injection hook instrumented paths call: returns the matching
/// fault, panicking directly for [`Fault::Panic`]. `None` (the common
/// case — nothing armed, or the plan targets another site/key) costs one
/// relaxed atomic load.
#[inline]
pub fn point(site: Site, key: u64) -> Option<Fault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    point_slow(site, key)
}

#[cold]
fn point_slow(site: Site, key: u64) -> Option<Fault> {
    let plan = (*PLAN.read().unwrap_or_else(std::sync::PoisonError::into_inner))?;
    if plan.site != site || plan.key.is_some_and(|k| k != key) {
        return None;
    }
    FIRED.fetch_add(1, Ordering::SeqCst);
    if plan.fault == Fault::Panic {
        panic!("chaos: injected panic at {site:?} (key {key:#x})");
    }
    Some(plan.fault)
}

/// Whether `message` is the payload of a chaos-injected panic.
pub fn is_injected_panic(message: &str) -> bool {
    message.starts_with("chaos: injected panic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The registry is process-global; serialize the tests touching it.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_points_are_silent() {
        let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(point(Site::Solve, 7), None);
        assert_eq!(point(Site::Encode, 0), None);
    }

    #[test]
    fn keyed_plan_fires_only_on_matching_key_and_site() {
        let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let guard = arm(ChaosPlan { site: Site::Solve, key: Some(42), fault: Fault::ExhaustBudget });
        assert_eq!(point(Site::Solve, 41), None);
        assert_eq!(point(Site::Encode, 42), None);
        assert_eq!(fired(), 0);
        assert_eq!(point(Site::Solve, 42), Some(Fault::ExhaustBudget));
        assert_eq!(fired(), 1);
        drop(guard);
        assert_eq!(point(Site::Solve, 42), None);
    }

    #[test]
    fn arm_rejects_budget_faults_off_the_solve_site() {
        let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for site in [Site::CellSetup, Site::Encode] {
            for fault in [Fault::ExhaustBudget, Fault::Cancel] {
                let err = std::panic::catch_unwind(|| arm(ChaosPlan { site, key: None, fault }))
                    .err()
                    .unwrap_or_else(|| panic!("arm accepted {fault:?} at {site:?}"));
                let msg = err.downcast_ref::<String>().expect("string payload");
                assert!(
                    msg.contains(&format!("{fault:?}")) && msg.contains(&format!("{site:?}")),
                    "the panic must name the pair: {msg}"
                );
                // The rejected plan never reached the registry.
                assert_eq!(point(site, 0), None);
            }
        }
        // A panic plan at the same sites, and a budget fault at a solve,
        // still arm.
        drop(arm(ChaosPlan { site: Site::CellSetup, key: None, fault: Fault::Panic }));
        drop(arm(ChaosPlan { site: Site::Solve, key: None, fault: Fault::Cancel }));
    }

    #[test]
    fn panic_fault_panics_with_recognizable_message() {
        let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _guard = arm(ChaosPlan { site: Site::CellSetup, key: None, fault: Fault::Panic });
        let err = std::panic::catch_unwind(|| point(Site::CellSetup, 3)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(is_injected_panic(msg), "unexpected payload: {msg}");
        assert_eq!(fired(), 1);
    }
}
