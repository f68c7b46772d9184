//! The executor threads a context's stages run on.
//!
//! A stage hands each of its worker loops to a parked thread instead of
//! spawning one, the way a Spark executor launches a task on a long-lived
//! thread of its own pool. A loop takes an idle thread if there is one and
//! otherwise spawns a new thread, which parks in the pool when its loop
//! returns. There is no size knob: stages never nest, but concurrent jobs on
//! one context (the query service's tenants) each run their stages' loops
//! at once, so the pool grows to the peak number of stage threads in flight
//! rather than capping them (a fixed set would queue one job's stage behind
//! another's).

use crate::sync::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

type Job = Box<dyn FnOnce() + Send>;

/// Counts a batch's jobs still running and keeps the first panic among them.
/// Shared by `Arc`: a finishing thread signals through its own reference, so
/// it never touches the submitting frame, which may be gone the moment the
/// count reaches zero.
#[derive(Default)]
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

#[derive(Default)]
struct LatchState {
    running: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn finish(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut state = self.state.lock();
        state.running -= 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.running == 0 {
            self.done.notify_all();
        }
    }
}

/// Waits, on drop, for every job of a batch handed out so far: a batch never
/// leaves its frame while a pooled thread still borrows it, not even when
/// handing out a later job panicked.
struct WaitAll(Arc<Latch>);

impl Drop for WaitAll {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        while state.running > 0 {
            state = wait(&self.0.done, state);
        }
    }
}

/// A parked thread's mailbox.
#[derive(Default)]
struct Mailbox {
    slot: Mutex<Slot>,
    wake: Condvar,
}

#[derive(Default)]
enum Slot {
    #[default]
    Empty,
    Run(Job, Arc<Latch>),
    Exit,
}

#[derive(Default)]
pub(crate) struct ThreadPool {
    /// Mailboxes of the parked threads; the most recently parked is last
    /// and is handed the next job.
    idle: Arc<Mutex<Vec<Arc<Mailbox>>>>,
    /// Every thread the pool spawned, joined on drop.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ThreadPool {
    /// Run every job on its own pooled thread and return when all have
    /// finished, re-raising the first job's panic on the calling thread —
    /// what `std::thread::scope` does, without spawning.
    pub(crate) fn run<'a, J>(&self, jobs: impl IntoIterator<Item = J>)
    where
        J: FnOnce() + Send + 'a,
    {
        let latch = Arc::new(Latch::default());
        let wait = WaitAll(latch.clone());
        for job in jobs {
            let job: Box<dyn FnOnce() + Send + 'a> = Box::new(job);
            // SAFETY: only the lifetime changes. The job may borrow data that
            // lives for 'a, which outlasts this call; `wait` blocks, before
            // this frame is left by return or by unwind, until every job
            // handed out has run and been dropped (a pooled thread drops its
            // job before finishing the latch). A job whose hand-out fails is
            // dropped unrun before `hand_out` returns, and uncounted. This is
            // the lifetime erasure `std::thread::scope` makes for the same
            // reason.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Job>(job) };
            latch.state.lock().running += 1;
            if let Err(e) = self.hand_out(job, latch.clone()) {
                latch.finish(None);
                panic!("sparkline: failed to spawn an executor thread: {e}");
            }
        }
        drop(wait);
        let panic = latch.state.lock().panic.take();
        if let Some(cause) = panic {
            resume_unwind(cause);
        }
    }

    /// Give `job` to the most recently parked thread, or to a new one.
    fn hand_out(&self, job: Job, latch: Arc<Latch>) -> std::io::Result<()> {
        let parked = self.idle.lock().pop();
        if let Some(mailbox) = parked {
            *mailbox.slot.lock() = Slot::Run(job, latch);
            mailbox.wake.notify_one();
            return Ok(());
        }
        let idle = self.idle.clone();
        let handle = thread::Builder::new()
            .name("sparkline-executor".to_string())
            .spawn(move || executor_thread(&idle, job, latch))?;
        self.threads.lock().push(handle);
        Ok(())
    }
}

/// A pooled thread: run the job it was spawned for, then park and run
/// whatever job lands in its mailbox, until the pool is dropped.
fn executor_thread(idle: &Mutex<Vec<Arc<Mailbox>>>, mut job: Job, mut latch: Arc<Latch>) {
    let mailbox = Arc::new(Mailbox::default());
    loop {
        let panic = catch_unwind(AssertUnwindSafe(job)).err();
        // Parked before the latch opens, so the stage that returns next finds
        // this thread idle instead of spawning another.
        idle.lock().push(mailbox.clone());
        latch.finish(panic);
        let mut slot = mailbox.slot.lock();
        loop {
            match std::mem::take(&mut *slot) {
                Slot::Empty => slot = wait(&mailbox.wake, slot),
                Slot::Run(next, next_latch) => {
                    (job, latch) = (next, next_latch);
                    break;
                }
                Slot::Exit => return,
            }
        }
    }
}

fn wait<'g, T>(cv: &Condvar, guard: MutexGuard<'g, T>) -> MutexGuard<'g, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Every thread is parked when the context drops: a stage's caller
        // holds the context while the stage runs, a batch waits for its jobs
        // before returning, and a thread parks before it finishes its latch.
        for mailbox in self.idle.lock().drain(..) {
            *mailbox.slot.lock() = Slot::Exit;
            mailbox.wake.notify_one();
        }
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_panic_reaches_the_caller_and_the_pool_stays_usable() {
        let pool = ThreadPool::default();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run([|| panic!("boom")]);
        }))
        .expect_err("the job's panic must be re-raised");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"boom"));
        let out = Mutex::new(Vec::new());
        pool.run((0..3).map(|i| {
            let out = &out;
            move || out.lock().push(i)
        }));
        let mut out = out.into_inner();
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2]);
    }
}
