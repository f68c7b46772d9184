//! Multi-tenant query-service integration tests: fault and cancellation
//! isolation between tenants sharing one runtime.
//!
//! Chaos (executor kills, fetch failures, task delays) is a *runtime-global*
//! hazard — any tenant's tasks can be hit. The service-level guarantee under
//! test: recovery repairs the damage invisibly, so one tenant's faults (or
//! explicit cancellations) never fail, cancel, or corrupt another tenant's
//! concurrent job.

use sac_repro::service::{QueryService, ServiceError};
use sac_repro::sparkline::{ChaosPlan, Context, Event};
use sac_repro::tiled::LocalMatrix;

const MATMUL: &str = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- A, kk == k, \
     let v = a*b, group by (i,j) ]";
const ROWSUM: &str = "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]";

/// A service over an explicitly faulty runtime: two executor kills, periodic
/// fetch failures, task delays — early enough to hit small workloads.
fn chaotic_service(chaos: Option<ChaosPlan>) -> QueryService {
    let mut b = Context::builder()
        .workers(4)
        .storage_memory(64 << 20)
        .max_task_attempts(8);
    b = match chaos {
        Some(p) => b.chaos(p),
        None => b.chaos_off(),
    };
    let svc = QueryService::builder().context(b.build()).slots(2).build();
    let a = LocalMatrix::from_fn(12, 12, |i, j| (i * 12 + j) as f64 / 10.0);
    svc.register_shared_matrix("A", &a, 4).unwrap();
    svc.register_shared_int("n", 12).unwrap();
    svc
}

#[test]
fn one_tenants_chaos_never_fails_or_cancels_anothers_job() {
    // Fingerprint oracle from a fault-free run.
    let clean = chaotic_service(None);
    let want_matmul = clean.run("alice", MATMUL).unwrap().fingerprint;
    let want_rowsum = clean.run("alice", ROWSUM).unwrap().fingerprint;

    let chaos = ChaosPlan::new()
        .with_kill_at_task(5, 1)
        .with_kill_at_task(29, 3)
        .with_fetch_failures(7, 2)
        .with_task_delay(11, 40);
    let svc = chaotic_service(Some(chaos));
    svc.context().trace();

    // Two tenants submit concurrently, repeatedly; the chaos schedule hits
    // whichever tenant's tasks are running when its counters trip.
    for _ in 0..3 {
        let a = svc.submit("alice", MATMUL);
        let b = svc.submit("bob", ROWSUM);
        let ra = a.wait().expect("alice must survive runtime faults");
        let rb = b.wait().expect("bob must survive alice-adjacent faults");
        assert_eq!(ra.fingerprint, want_matmul, "recovery must be bit-exact");
        assert_eq!(rb.fingerprint, want_rowsum, "recovery must be bit-exact");
    }

    let events = svc.context().take_events();
    // Faults were actually injected and repaired...
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::ExecutorLost { .. })),
        "the chaos schedule must have killed at least one executor"
    );
    // ...and none of it was ever surfaced as a cancellation: kills and
    // fetch failures resubmit stages, they do not cancel jobs.
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::JobCancelled { .. })),
        "chaos must never masquerade as a tenant cancellation"
    );
}

#[test]
fn cancelling_one_tenant_leaves_a_concurrent_tenants_job_untouched() {
    let svc = chaotic_service(None);
    let want = svc.run("alice", MATMUL).unwrap().fingerprint;

    for _ in 0..3 {
        // mallory cancels her own job immediately; alice's concurrent job
        // must complete with the exact same result as ever.
        let victim = svc.submit("mallory", MATMUL);
        let bystander = svc.submit("alice", MATMUL);
        victim.cancel();
        match victim.wait() {
            // Either the cancel landed at a task boundary...
            Err(ServiceError::Cancelled { tenant, .. }) => assert_eq!(tenant, "mallory"),
            // ...or the job had already finished; both are legal.
            Ok(reply) => assert_eq!(reply.fingerprint, want),
            Err(other) => panic!("cancellation must not become a failure: {other}"),
        }
        let reply = bystander
            .wait()
            .expect("a bystander's job must not observe another tenant's cancellation");
        assert_eq!(reply.fingerprint, want);
    }

    // The shared catalog survived mallory's cancellation cleanup: alice
    // still reads the same blocks.
    assert_eq!(svc.run("alice", MATMUL).unwrap().fingerprint, want);
}
