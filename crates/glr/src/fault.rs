//! Test-only fault injection: labeled panic sites for chaos testing.
//!
//! Robustness claims ("a panicking parse answers exactly once and the worker
//! pool survives at full strength") are only credible when proven by
//! injecting the panic, not by waiting for one. This module plants cheap
//! [`point`] markers at labeled sites along the request path — `"post-pin"`
//! (right after a request pins a grammar epoch), `"mid-gss"` (inside the GSS
//! run loop), `"forest-grow"` (while the shared forest adds a derivation),
//! `"relex"` (in the incremental re-lex path) — and lets tests arm a
//! [`FaultPlan`] that makes specific sites panic a bounded number of times.
//!
//! The mechanism is compiled in unconditionally but inert by default: the
//! disarmed fast path is a single relaxed atomic load, which keeps the
//! zero-alloc warm path honest — the alloc gates and serving benches run with
//! the same code production runs. Arming is process-global, so tests that
//! arm plans must serialize (the chaos integration tests hold a lock).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Global switch consulted by every [`point`]; relaxed load when disarmed.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Total panics injected since process start (survives disarm; for tests).
static INJECTED: AtomicU64 = AtomicU64::new(0);

/// The armed plan. Only locked on the slow path (armed) and in arm/disarm.
static PLAN: Mutex<Vec<SiteArm>> = Mutex::new(Vec::new());

/// When set, only points hit *on this thread* consult the plan — lets unit
/// tests inject faults without racing parallel test threads through the
/// same sites. `None` (the [`FaultPlan::arm`] default) hits every thread,
/// which chaos tests need to reach worker pools.
static SCOPE: Mutex<Option<std::thread::ThreadId>> = Mutex::new(None);

struct SiteArm {
    site: &'static str,
    /// After this many hits, start panicking.
    skip: u32,
    /// Panics still to fire at this site; 0 means spent.
    remaining: u32,
}

/// A set of labeled sites to fail, each a bounded number of times.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    arms: Vec<(&'static str, u32, u32)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until sites are added).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panic the next `count` hits of `site`.
    pub fn fail(mut self, site: &'static str, count: u32) -> Self {
        self.arms.push((site, 0, count));
        self
    }

    /// Skip the first `skip` hits of `site`, then panic the next `count`.
    pub fn fail_after(mut self, site: &'static str, skip: u32, count: u32) -> Self {
        self.arms.push((site, skip, count));
        self
    }

    /// Installs this plan process-wide, replacing any previous plan.
    pub fn arm(self) {
        self.install(None);
    }

    /// Installs this plan for the **calling thread only**: points hit on
    /// other threads pass through untouched. Use in unit tests that share a
    /// process with unrelated parallel tests.
    pub fn arm_scoped(self) {
        self.install(Some(std::thread::current().id()));
    }

    fn install(self, scope: Option<std::thread::ThreadId>) {
        *lock_scope() = scope;
        let mut plan = lock_plan();
        plan.clear();
        plan.extend(self.arms.into_iter().map(|(site, skip, remaining)| SiteArm {
            site,
            skip,
            remaining,
        }));
        let any = plan.iter().any(|a| a.remaining > 0);
        drop(plan);
        ARMED.store(any, Ordering::SeqCst);
    }
}

/// Clears the armed plan; all points return to the single-load fast path.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    lock_plan().clear();
    *lock_scope() = None;
}

/// Total panics injected since process start.
pub fn injected() -> u64 {
    INJECTED.load(Ordering::SeqCst)
}

/// A labeled fault site. Free when disarmed (one relaxed load); when an
/// armed plan matches `site` with remaining count, panics with a recognizable
/// `"injected fault at <site>"` message.
#[inline(always)]
pub fn point(site: &str) {
    if ARMED.load(Ordering::Relaxed) {
        point_slow(site);
    }
}

#[cold]
fn point_slow(site: &str) {
    if let Some(owner) = *lock_scope() {
        if owner != std::thread::current().id() {
            return;
        }
    }
    let mut plan = lock_plan();
    let mut fire = false;
    for arm in plan.iter_mut() {
        if arm.site == site {
            if arm.skip > 0 {
                arm.skip -= 1;
            } else if arm.remaining > 0 {
                arm.remaining -= 1;
                fire = true;
            }
            break;
        }
    }
    if !plan.iter().any(|a| a.remaining > 0) {
        ARMED.store(false, Ordering::SeqCst);
    }
    // Release the lock before unwinding so the plan mutex is never poisoned.
    drop(plan);
    if fire {
        INJECTED.fetch_add(1, Ordering::SeqCst);
        panic!("injected fault at {site}");
    }
}

/// Locks the plan, recovering from poison (a panic between lock and drop is
/// impossible by construction, but a chaos test aborting mid-arm must not
/// wedge every later test).
fn lock_plan() -> MutexGuard<'static, Vec<SiteArm>> {
    PLAN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn lock_scope() -> MutexGuard<'static, Option<std::thread::ThreadId>> {
    SCOPE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests mutate process-global state; the module keeps them in one
    // test fn so cargo's parallel runner cannot interleave them, and arms
    // scoped to this thread so the GSS tests running in parallel in the
    // same binary neither hit the plan nor consume its counts.
    #[test]
    fn fault_points_fire_and_self_disarm() {
        // Disarmed: free.
        point("mid-gss");

        let before = injected();
        FaultPlan::new().fail("mid-gss", 2).arm_scoped();

        // Non-matching site does not fire.
        point("post-pin");

        let r1 = std::panic::catch_unwind(|| point("mid-gss"));
        assert!(r1.is_err(), "armed site panics");
        let r2 = std::panic::catch_unwind(|| point("mid-gss"));
        assert!(r2.is_err(), "second count fires too");
        // Spent: the plan self-disarms back to the fast path.
        point("mid-gss");
        assert_eq!(injected() - before, 2);

        // fail_after skips the first N hits.
        FaultPlan::new().fail_after("forest-grow", 2, 1).arm_scoped();
        point("forest-grow");
        point("forest-grow");
        let r3 = std::panic::catch_unwind(|| point("forest-grow"));
        assert!(r3.is_err(), "fires after the skip window");
        disarm();
        point("forest-grow");
    }
}
