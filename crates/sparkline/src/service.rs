//! Runtime primitives for the multi-tenant query service: cooperative
//! cancellation tokens and an admission-controlled weighted-fair scheduler.
//!
//! These live in sparkline (not the `service` crate) because the scheduler's
//! task loop must observe cancellation at task boundaries and the block
//! manager must attribute blocks to tenants — both are runtime concerns. The
//! `service` crate layers sessions, the plan cache, and the wire protocol on
//! top.
//!
//! ## Cancellation
//!
//! A [`CancelToken`] is installed on the driver thread with
//! [`crate::Context::scoped_cancel`]; `Context::run_stage` captures
//! it and re-installs it on every worker thread, so nested stages (a shuffle
//! dependency materialized from inside a parent task) inherit it too. Workers
//! check the token *before claiming each task*: in-flight tasks run to
//! completion, no further tasks launch, and the stage unwinds with
//! [`CANCELLED_MSG`] as the panic payload — the same propagation path as a
//! permanently failed task, which is what frees the executor slots. The first
//! worker to observe the cancellation emits one
//! [`crate::events::Event::JobCancelled`].
//!
//! ## Fair scheduling
//!
//! [`FairScheduler`] implements stride scheduling over admission slots: each
//! tenant accrues virtual time proportional to its jobs' wall time divided by
//! its weight, and when a slot frees the waiter with the smallest virtual
//! time is admitted. A noisy neighbor running long jobs back-to-back
//! therefore accrues virtual time quickly and queues behind well-behaved
//! tenants instead of monopolizing the pool.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Panic payload used to unwind a cancelled job out of `run_stage`; how the
/// service recognizes a cancellation (vs. a genuine task failure) when it
/// catches the unwind. Analogous to the injected-failure marker.
pub const CANCELLED_MSG: &str = "sparkline: job cancelled";

/// True if a caught panic payload is a job cancellation.
pub fn panic_is_cancelled(cause: &Box<dyn std::any::Any + Send>) -> bool {
    cause
        .downcast_ref::<&str>()
        .is_some_and(|s| *s == CANCELLED_MSG)
        || cause
            .downcast_ref::<String>()
            .is_some_and(|s| s == CANCELLED_MSG)
}

struct CancelInner {
    cancelled: AtomicBool,
    /// Ensures exactly one `JobCancelled` event per token however many
    /// workers observe the cancellation.
    reported: AtomicBool,
    tenant: String,
    job: u64,
}

/// Cooperative cancellation handle for one service-level job.
///
/// Cloning shares the flag. [`CancelToken::cancel`] is asynchronous: the job
/// observes it at its next task boundary (see the module docs).
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh, uncancelled token for `job` owned by `tenant`.
    pub fn new(tenant: impl Into<String>, job: u64) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                reported: AtomicBool::new(false),
                tenant: tenant.into(),
                job,
            }),
        }
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Tenant that owns the job this token guards.
    pub fn tenant(&self) -> &str {
        &self.inner.tenant
    }

    /// Service-level job id this token guards.
    pub fn job(&self) -> u64 {
        self.inner.job
    }

    /// True exactly once: the first caller after cancellation wins the right
    /// to emit the `JobCancelled` event.
    pub(crate) fn first_report(&self) -> bool {
        !self.inner.reported.swap(true, Ordering::SeqCst)
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("tenant", &self.inner.tenant)
            .field("job", &self.inner.job)
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// Virtual time is tracked in micros scaled by this factor so integer
/// division by a weight keeps sub-microsecond resolution.
const VTIME_SCALE: u64 = 1 << 10;

struct FairState {
    /// Jobs currently holding an admission slot.
    in_flight: usize,
    /// FIFO tiebreak among equal virtual times.
    next_ticket: u64,
    /// `(ticket, tenant, vtime at entry)` for every blocked `admit` call.
    /// Entry vtime is only a lower bound: head selection re-reads the
    /// tenant's *current* virtual time, so charges accrued while a job waits
    /// (e.g. the same tenant's earlier job finishing) push it further back.
    waiters: Vec<(u64, u32, u64)>,
    /// Accrued scaled virtual time per tenant.
    vtime: HashMap<u32, u64>,
    /// Relative shares; absent means weight 1.
    weights: HashMap<u32, u32>,
    /// Monotone floor: a tenant entering after a long absence starts at the
    /// pool's current virtual time instead of its stale (tiny) one, so it
    /// cannot starve everyone by replaying its idle period.
    floor: u64,
}

/// Admission-controlled weighted-fair job scheduler (stride scheduling).
///
/// Layered *above* the executor pool: a slot here is the right to run one
/// job's stages on the shared [`crate::Context`]; the executor threads below
/// stay oblivious. See the module docs for the policy.
pub struct FairScheduler {
    slots: usize,
    state: Mutex<FairState>,
    available: Condvar,
}

impl FairScheduler {
    /// A scheduler admitting at most `slots` concurrent jobs.
    pub fn new(slots: usize) -> Arc<FairScheduler> {
        Arc::new(FairScheduler {
            slots: slots.max(1),
            state: Mutex::new(FairState {
                in_flight: 0,
                next_ticket: 0,
                waiters: Vec::new(),
                vtime: HashMap::new(),
                weights: HashMap::new(),
                floor: 0,
            }),
            available: Condvar::new(),
        })
    }

    /// Maximum concurrently admitted jobs.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Set a tenant's relative share (default 1). A tenant with weight 2
    /// accrues virtual time half as fast, so it gets roughly twice the pool
    /// time of a weight-1 tenant under contention.
    pub fn set_weight(&self, tenant: u32, weight: u32) {
        self.lock().weights.insert(tenant, weight.max(1));
    }

    fn lock(&self) -> MutexGuard<'_, FairState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Block until a slot is free and this tenant has the smallest virtual
    /// time among waiters, then take the slot. The returned guard releases
    /// the slot and charges the tenant's virtual time when dropped.
    pub fn admit(self: &Arc<Self>, tenant: u32) -> AdmissionGuard {
        let queued = Instant::now();
        let mut st = self.lock();
        let entry_vtime = (*st.vtime.get(&tenant).unwrap_or(&0)).max(st.floor);
        st.vtime.insert(tenant, entry_vtime);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiters.push((ticket, tenant, entry_vtime));
        loop {
            let head = st
                .waiters
                .iter()
                .min_by_key(|&&(t, ten, v)| (st.vtime.get(&ten).copied().unwrap_or(0).max(v), t))
                .copied();
            if st.in_flight < self.slots && head.map(|(t, _, _)| t) == Some(ticket) {
                st.waiters.retain(|&(t, _, _)| t != ticket);
                st.in_flight += 1;
                st.floor = st.floor.max(entry_vtime);
                drop(st);
                // Other waiters may now be at the head with free slots left.
                self.available.notify_all();
                return AdmissionGuard {
                    sched: self.clone(),
                    tenant,
                    queue_micros: queued.elapsed().as_micros() as u64,
                    admitted: Instant::now(),
                };
            }
            st = self.available.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// One admitted job's slot. Dropping it frees the slot and charges the
/// tenant's virtual time with the job's wall time over its weight.
pub struct AdmissionGuard {
    sched: Arc<FairScheduler>,
    tenant: u32,
    queue_micros: u64,
    admitted: Instant,
}

impl AdmissionGuard {
    /// Wall micros this job waited in the admission queue.
    pub fn queue_micros(&self) -> u64 {
        self.queue_micros
    }
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        let wall = self.admitted.elapsed().as_micros() as u64;
        let mut st = self.sched.lock();
        st.in_flight -= 1;
        let weight = u64::from(*st.weights.get(&self.tenant).unwrap_or(&1)).max(1);
        // `+1` keeps virtual time strictly monotone even for zero-length
        // jobs, so a tenant spinning on empty jobs still falls behind.
        let charge = wall * VTIME_SCALE / weight + 1;
        *st.vtime.entry(self.tenant).or_insert(0) += charge;
        drop(st);
        self.sched.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn cancel_token_is_sticky_and_reports_once() {
        let t = CancelToken::new("alice", 7);
        assert!(!t.is_cancelled());
        t.cancel();
        t.cancel();
        assert!(t.is_cancelled());
        assert_eq!((t.tenant(), t.job()), ("alice", 7));
        assert!(t.first_report());
        assert!(!t.first_report(), "second observer must not re-report");
        let clone = t.clone();
        assert!(clone.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn scheduler_caps_concurrency_at_slots() {
        let sched = FairScheduler::new(2);
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for i in 0..8u32 {
                let sched = sched.clone();
                let peak = &peak;
                let live = &live;
                scope.spawn(move || {
                    let _slot = sched.admit(i % 3);
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    live.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn heavier_user_accrues_vtime_and_yields_to_light_user() {
        // One slot; the noisy tenant (0) holds it with back-to-back jobs
        // while the light tenant (1) submits. Stride scheduling must admit
        // the light tenant ahead of the noisy tenant's later jobs.
        let sched = FairScheduler::new(1);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            // Seed: noisy job holds the slot so everyone below queues.
            let first = sched.admit(0);
            for _ in 0..3 {
                let sched = sched.clone();
                let order = &order;
                scope.spawn(move || {
                    let _slot = sched.admit(0);
                    order.lock().unwrap().push(0u32);
                    std::thread::sleep(Duration::from_millis(10));
                });
            }
            // Let the noisy waiters register first.
            std::thread::sleep(Duration::from_millis(20));
            let sched2 = sched.clone();
            let order = &order;
            scope.spawn(move || {
                let _slot = sched2.admit(1);
                order.lock().unwrap().push(1u32);
            });
            std::thread::sleep(Duration::from_millis(20));
            // Charge tenant 0 for the seed job and release the slot.
            drop(first);
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 4);
        // The light tenant (vtime 0) must not be last behind three noisy
        // jobs, each of which charges tenant 0 ~10ms of virtual time.
        let light_pos = order.iter().position(|&t| t == 1).unwrap();
        assert!(
            light_pos <= 1,
            "light tenant admitted at position {light_pos} of {order:?}"
        );
    }

    #[test]
    fn weights_bias_admission_order() {
        // One slot, two tenants with equal demand; tenant 2 has weight 4 so
        // its jobs charge a quarter of the virtual time and it should win
        // the head-to-head admissions after both have run once.
        let sched = FairScheduler::new(1);
        sched.set_weight(2, 4);
        sched.set_weight(3, 1);
        // Charge both tenants one identical job's worth of time.
        for t in [2u32, 3] {
            let slot = sched.admit(t);
            std::thread::sleep(Duration::from_millis(4));
            drop(slot);
        }
        let v = {
            let st = sched.lock();
            (st.vtime[&2], st.vtime[&3])
        };
        assert!(v.0 < v.1, "weight-4 tenant must accrue less vtime: {v:?}");
    }
}
