//! Deterministic chaos harness: seeded fault schedules for the executor pool.
//!
//! A [`ChaosPlan`] is a list of fault events — kill an executor when the
//! context-wide task-launch counter reaches K, delay or fail every Nth task
//! launch, fail every Nth shuffle fetch, drop, stall or garble every Nth
//! remote fetch — that the runtime replays while a job runs. It is the
//! runtime's only fault injector. Schedules are deterministic functions of
//! the plan and the workload's task order, so a failing chaos run
//! reproduces from its seed alone.
//!
//! Plans come from three places, in priority order: an explicit
//! [`ContextBuilder::chaos`](crate::ContextBuilder::chaos) call, the
//! [`CHAOS_ENV`] environment variable (a numeric seed expanded by
//! [`ChaosPlan::seeded`], or `off`), or nothing (no chaos). The controller
//! itself only *decides* faults; the [`Context`](crate::Context) applies them
//! (kills executors, sleeps, fails task attempts and fetches), keeping this
//! module free of scheduler dependencies.

use crate::sync::Mutex;
use std::time::Duration;

/// Environment variable holding a chaos seed for the whole process (or `off`
/// to disable). Lets CI rerun the entire test suite under a fixed fault
/// schedule without touching any test. An explicit
/// [`ContextBuilder::chaos`](crate::ContextBuilder::chaos) /
/// [`ContextBuilder::chaos_off`](crate::ContextBuilder::chaos_off) wins over
/// the variable, mirroring [`STORAGE_BUDGET_ENV`](crate::STORAGE_BUDGET_ENV).
pub const CHAOS_ENV: &str = "SPARKLINE_CHAOS";

/// Task-launch count a seeded plan's first kill or injected task failure
/// waits for. Faults before this point would hit the many tiny fixed-count
/// unit stages that pin exact task and retry counts; real recovery coverage
/// comes from the larger pipelines.
const SEEDED_FIRST_FAULT_AT: u64 = 64;

/// Cap on a seeded plan's injected task failures: below the four attempts a
/// task gets by default, so a seeded schedule never fails a job by itself.
/// A context granting fewer attempts caps it lower still (see
/// [`ChaosPlan::cap_task_failures`]).
const SEEDED_TASK_FAILURES: u32 = 2;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Kill `executor` when the context has launched `at_task` tasks — with
    /// worker processes, a `kill -9` of the process hosting it. One-shot.
    KillExecutorAtTask { at_task: u64, executor: usize },
    /// At the `nth_barrier`-th map→reduce barrier crossed on this context,
    /// kill whichever executor currently owns `map_partition`'s output of the
    /// shuffle at that barrier. One-shot; lets tests lose a *specific* map
    /// output deterministically, independent of thread scheduling.
    KillOwnerAtBarrier {
        nth_barrier: u64,
        map_partition: usize,
    },
    /// Sleep `micros` before every `every`-th task launch: jitters thread
    /// interleavings and manufactures stragglers for speculation.
    DelayTask { every: u64, micros: u64 },
    /// Fail every `every`-th task launch, at most `limit` times: the attempt
    /// ends as an injected failure without running the task body, and the
    /// scheduler retries it. A `limit` below the context's task-attempt
    /// budget can never fail a job.
    FailTask { every: u64, limit: u32 },
    /// Fail every `every`-th shuffle fetch (a reduce task's read of the map
    /// outputs), at most `limit` times. Each failure drops one live map
    /// output, so recovery has real recomputation to do.
    FailFetch { every: u64, limit: u32 },
    /// Wire-level fault on every `every`-th remote shuffle fetch, at most
    /// `limit` times (`limit == 0` means unlimited for delays): drop the
    /// stream, delay it, or garble a payload byte (which the frame CRC must
    /// catch). Only consulted on the multi-process fetch path.
    WireFaultFetch {
        every: u64,
        limit: u32,
        fault: WireFault,
    },
}

/// The wire-level fault kinds applied to a remote shuffle fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The fetch stream dies before a frame arrives (connection reset).
    Drop,
    /// The fetch stalls for this many microseconds before proceeding.
    Delay(u64),
    /// One payload byte is flipped in transit; CRC validation must reject
    /// the frame and the fetch must retry.
    Garble,
}

/// A deterministic fault schedule. Build one explicitly with the
/// `with_*` methods or expand a seed with [`ChaosPlan::seeded`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    pub fn new() -> ChaosPlan {
        ChaosPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule `executor` to die at the `at_task`-th task launch.
    pub fn with_kill_at_task(mut self, at_task: u64, executor: usize) -> ChaosPlan {
        self.events
            .push(ChaosEvent::KillExecutorAtTask { at_task, executor });
        self
    }

    /// Schedule the owner of `map_partition` to die at the `nth_barrier`-th
    /// map→reduce barrier.
    pub fn with_kill_owner_at_barrier(
        mut self,
        nth_barrier: u64,
        map_partition: usize,
    ) -> ChaosPlan {
        self.events.push(ChaosEvent::KillOwnerAtBarrier {
            nth_barrier,
            map_partition,
        });
        self
    }

    /// Delay every `every`-th task launch by `micros`.
    pub fn with_task_delay(mut self, every: u64, micros: u64) -> ChaosPlan {
        self.events.push(ChaosEvent::DelayTask { every, micros });
        self
    }

    /// Fail every `every`-th task launch, at most `limit` times.
    pub fn with_task_failures(mut self, every: u64, limit: u32) -> ChaosPlan {
        self.events.push(ChaosEvent::FailTask { every, limit });
        self
    }

    /// Fail every `every`-th shuffle fetch, at most `limit` times.
    pub fn with_fetch_failures(mut self, every: u64, limit: u32) -> ChaosPlan {
        self.events.push(ChaosEvent::FailFetch { every, limit });
        self
    }

    /// Apply `fault` to every `every`-th remote shuffle fetch, at most
    /// `limit` times (0 = unlimited).
    pub fn with_wire_fault(mut self, every: u64, limit: u32, fault: WireFault) -> ChaosPlan {
        self.events.push(ChaosEvent::WireFaultFetch {
            every,
            limit,
            fault,
        });
        self
    }

    /// Expand a seed into a full schedule for a pool of `executors`: up to
    /// `executors - 1` kills (so at least one executor always survives, per
    /// the recovery contract), spaced far enough apart for recovery to make
    /// progress, plus a task delay, bounded bursts of fetch and wire faults,
    /// and at most two injected task failures — fewer than the default four
    /// attempts a task gets, so a seeded schedule never fails a job.
    pub fn seeded(seed: u64, executors: usize) -> ChaosPlan {
        let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || splitmix64(&mut state);
        let mut plan = ChaosPlan::new();
        let kills = if executors > 1 {
            (1 + next() % 3).min(executors as u64 - 1)
        } else {
            0
        };
        let mut at = SEEDED_FIRST_FAULT_AT + next() % 64;
        for _ in 0..kills {
            let executor = (next() % executors as u64) as usize;
            plan = plan.with_kill_at_task(at, executor);
            at += SEEDED_FIRST_FAULT_AT + next() % 96;
        }
        plan = plan.with_task_delay(5 + next() % 8, 20 + next() % 180);
        plan = plan.with_fetch_failures(6 + next() % 10, 2);
        // Wire-level faults: only consulted on the multi-process fetch path,
        // free in local mode. Garbled frames exercise CRC rejection + retry;
        // drops exercise the reconnect; delays jitter fetch interleavings.
        plan = plan.with_wire_fault(9 + next() % 8, 2, WireFault::Garble);
        plan = plan.with_wire_fault(11 + next() % 8, 2, WireFault::Drop);
        plan = plan.with_wire_fault(7 + next() % 6, 4, WireFault::Delay(30 + next() % 120));
        plan.with_task_failures(SEEDED_FIRST_FAULT_AT + next() % 64, SEEDED_TASK_FAILURES)
    }

    /// Cap every task-failure burst at `cap` failures. A context caps an
    /// inherited [`CHAOS_ENV`] schedule at one below its task-attempt budget,
    /// so the environment alone never fails a job.
    pub(crate) fn cap_task_failures(mut self, cap: u32) -> ChaosPlan {
        for event in &mut self.events {
            if let ChaosEvent::FailTask { limit, .. } = event {
                *limit = (*limit).min(cap);
            }
        }
        self
    }

    /// Parse the [`CHAOS_ENV`] value: `off`/empty disables, a decimal seed
    /// expands via [`ChaosPlan::seeded`]. Anything else is ignored (no chaos)
    /// rather than failing the process.
    pub fn from_env(value: &str, executors: usize) -> Option<ChaosPlan> {
        let v = value.trim();
        if v.is_empty() || v.eq_ignore_ascii_case("off") {
            return None;
        }
        v.parse::<u64>()
            .ok()
            .map(|seed| ChaosPlan::seeded(seed, executors))
    }
}

/// Sebastiano Vigna's splitmix64: the tiny seed-expansion PRNG (public
/// domain algorithm), avoiding any dependency for deterministic schedules.
/// Also used by the shuffle layer's backoff for deterministic retry jitter.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the controller wants done at one task launch.
#[derive(Debug, Default)]
pub(crate) struct TaskFaults {
    /// Executors to kill, in schedule order.
    pub(crate) kill: Vec<usize>,
    /// How long to delay the launch.
    pub(crate) delay: Duration,
    /// Fail this attempt without running the task body.
    pub(crate) fail: bool,
}

/// Replays a [`ChaosPlan`] against the live counters of one context. Pure
/// decision logic: the context owns the side effects.
pub(crate) struct ChaosController {
    plan: ChaosPlan,
    state: Mutex<ChaosState>,
}

#[derive(Default)]
struct ChaosState {
    tasks: u64,
    barriers: u64,
    fetches: u64,
    wire_fetches: u64,
    /// Per-event one-shot latch (kill events) / spent budget (task, fetch
    /// and wire failures), indexed like `plan.events`.
    fired: Vec<u64>,
}

impl ChaosController {
    pub(crate) fn new(plan: ChaosPlan) -> ChaosController {
        let fired = vec![0; plan.events.len()];
        ChaosController {
            plan,
            state: Mutex::new(ChaosState {
                fired,
                ..ChaosState::default()
            }),
        }
    }

    pub(crate) fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Advance the task-launch counter and collect the faults due now.
    pub(crate) fn on_task_start(&self) -> TaskFaults {
        let mut state = self.state.lock();
        state.tasks += 1;
        let now = state.tasks;
        let mut faults = TaskFaults::default();
        for (idx, event) in self.plan.events.iter().enumerate() {
            match event {
                ChaosEvent::KillExecutorAtTask { at_task, executor }
                    if state.fired[idx] == 0 && now >= *at_task =>
                {
                    state.fired[idx] = 1;
                    faults.kill.push(*executor);
                }
                ChaosEvent::DelayTask { every, micros }
                    if *every > 0 && now.is_multiple_of(*every) =>
                {
                    faults.delay += Duration::from_micros(*micros);
                }
                ChaosEvent::FailTask { every, limit }
                    if *every > 0
                        && now.is_multiple_of(*every)
                        && state.fired[idx] < u64::from(*limit) =>
                {
                    state.fired[idx] += 1;
                    faults.fail = true;
                }
                _ => {}
            }
        }
        faults
    }

    /// Advance the barrier counter; returns the map partitions whose owners
    /// die at this barrier.
    pub(crate) fn on_barrier(&self) -> Vec<usize> {
        let mut state = self.state.lock();
        let crossed = state.barriers;
        state.barriers += 1;
        let mut doomed = Vec::new();
        for (idx, event) in self.plan.events.iter().enumerate() {
            if let ChaosEvent::KillOwnerAtBarrier {
                nth_barrier,
                map_partition,
            } = event
            {
                if state.fired[idx] == 0 && crossed >= *nth_barrier {
                    state.fired[idx] = 1;
                    doomed.push(*map_partition);
                }
            }
        }
        doomed
    }

    /// Advance the wire-fetch counter; returns the fault to apply to this
    /// remote fetch, if any. Separate counter from [`Self::on_fetch`]: wire
    /// faults fire per socket transfer, logical fetch failures per reduce
    /// read.
    pub(crate) fn on_wire_fetch(&self) -> Option<WireFault> {
        let mut state = self.state.lock();
        state.wire_fetches += 1;
        let now = state.wire_fetches;
        for (idx, event) in self.plan.events.iter().enumerate() {
            if let ChaosEvent::WireFaultFetch {
                every,
                limit,
                fault,
            } = event
            {
                if *every > 0
                    && now.is_multiple_of(*every)
                    && (*limit == 0 || state.fired[idx] < u64::from(*limit))
                {
                    state.fired[idx] += 1;
                    return Some(*fault);
                }
            }
        }
        None
    }

    /// Advance the fetch counter; true if this fetch should fail.
    pub(crate) fn on_fetch(&self) -> bool {
        let mut state = self.state.lock();
        state.fetches += 1;
        let now = state.fetches;
        for (idx, event) in self.plan.events.iter().enumerate() {
            if let ChaosEvent::FailFetch { every, limit } = event {
                if *every > 0 && now.is_multiple_of(*every) && state.fired[idx] < u64::from(*limit)
                {
                    state.fired[idx] += 1;
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        for seed in 0..50u64 {
            for executors in [1usize, 2, 4, 8] {
                let a = ChaosPlan::seeded(seed, executors);
                let b = ChaosPlan::seeded(seed, executors);
                assert_eq!(a, b, "seed {seed} not deterministic");
                let kills: Vec<_> = a
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        ChaosEvent::KillExecutorAtTask { executor, .. } => Some(*executor),
                        _ => None,
                    })
                    .collect();
                assert!(
                    kills.len() < executors.max(1) || kills.is_empty(),
                    "seed {seed}: {} kills for {executors} executors",
                    kills.len()
                );
                assert!(kills.iter().all(|&e| e < executors));
                if executors == 1 {
                    assert!(kills.is_empty(), "a lone executor must never be killed");
                }
                // One bounded burst of task failures, below the default four
                // attempts a task gets, kept off the early launches.
                let failures: Vec<_> = a
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        ChaosEvent::FailTask { every, limit } => Some((*every, *limit)),
                        _ => None,
                    })
                    .collect();
                assert!(
                    matches!(failures[..], [(every, limit)]
                        if every >= SEEDED_FIRST_FAULT_AT && limit <= 2),
                    "seed {seed}: task failures {failures:?}"
                );
            }
        }
    }

    #[test]
    fn capping_task_failures_touches_nothing_else() {
        let seeded = ChaosPlan::seeded(7, 4);
        for cap in [0, 1, 5] {
            let capped = seeded.clone().cap_task_failures(cap);
            for (before, after) in seeded.events.iter().zip(&capped.events) {
                match (before, after) {
                    (
                        ChaosEvent::FailTask { every, limit },
                        ChaosEvent::FailTask { every: e, limit: l },
                    ) => assert_eq!((*e, *l), (*every, (*limit).min(cap))),
                    _ => assert_eq!(before, after),
                }
            }
        }
    }

    #[test]
    fn env_parsing_accepts_seeds_and_off() {
        assert!(ChaosPlan::from_env("off", 4).is_none());
        assert!(ChaosPlan::from_env("OFF", 4).is_none());
        assert!(ChaosPlan::from_env("", 4).is_none());
        assert!(ChaosPlan::from_env("not a seed", 4).is_none());
        let plan = ChaosPlan::from_env(" 42 ", 4).expect("seed must parse");
        assert_eq!(plan, ChaosPlan::seeded(42, 4));
        assert!(!plan.is_empty());
    }

    #[test]
    fn kill_events_fire_once_at_threshold() {
        let ctl = ChaosController::new(ChaosPlan::new().with_kill_at_task(3, 1));
        assert!(ctl.on_task_start().kill.is_empty());
        assert!(ctl.on_task_start().kill.is_empty());
        assert_eq!(ctl.on_task_start().kill, vec![1]);
        assert!(ctl.on_task_start().kill.is_empty(), "one-shot");
    }

    #[test]
    fn task_failures_share_the_launch_counter_and_respect_the_limit() {
        let ctl = ChaosController::new(
            ChaosPlan::new()
                .with_task_failures(3, 2)
                .with_kill_at_task(4, 1)
                .with_task_delay(2, 50),
        );
        let launches: Vec<TaskFaults> = (0..12).map(|_| ctl.on_task_start()).collect();
        let failed: Vec<usize> = (1..=12).filter(|&n| launches[n - 1].fail).collect();
        assert_eq!(failed, vec![3, 6], "multiples of `every`, `limit` of them");
        let kills: Vec<(usize, usize)> = (1..=12)
            .flat_map(|n| launches[n - 1].kill.iter().map(move |&e| (n, e)))
            .collect();
        assert_eq!(kills, vec![(4, 1)], "the kill still fires once");
        assert_eq!(launches[5].delay, Duration::from_micros(50), "one counter");

        let never = ChaosController::new(ChaosPlan::new().with_task_failures(1, 0));
        assert!((0..10).all(|_| !never.on_task_start().fail), "limit 0");
    }

    #[test]
    fn fetch_failures_respect_the_limit() {
        let ctl = ChaosController::new(ChaosPlan::new().with_fetch_failures(2, 2));
        let outcomes: Vec<bool> = (0..10).map(|_| ctl.on_fetch()).collect();
        assert_eq!(outcomes.iter().filter(|&&b| b).count(), 2);
        assert!(outcomes[1] && outcomes[3]);
    }

    #[test]
    fn barrier_kills_fire_at_their_barrier() {
        let ctl = ChaosController::new(ChaosPlan::new().with_kill_owner_at_barrier(1, 0));
        assert!(ctl.on_barrier().is_empty(), "barrier 0 passes clean");
        assert_eq!(ctl.on_barrier(), vec![0], "barrier 1 kills");
        assert!(ctl.on_barrier().is_empty(), "one-shot");
    }

    #[test]
    fn wire_faults_fire_on_their_own_counter_and_respect_limits() {
        let ctl = ChaosController::new(
            ChaosPlan::new()
                .with_wire_fault(2, 2, WireFault::Garble)
                .with_fetch_failures(2, 1),
        );
        let faults: Vec<_> = (0..10).map(|_| ctl.on_wire_fetch()).collect();
        assert_eq!(faults.iter().filter(|f| f.is_some()).count(), 2);
        assert_eq!(faults[1], Some(WireFault::Garble));
        assert_eq!(faults[3], Some(WireFault::Garble));
        // The logical-fetch counter is untouched by wire fetches.
        assert!(!ctl.on_fetch());
        assert!(ctl.on_fetch());
    }

    #[test]
    fn delays_accumulate_on_matching_tasks() {
        let ctl = ChaosController::new(ChaosPlan::new().with_task_delay(2, 50));
        assert_eq!(ctl.on_task_start().delay, Duration::ZERO);
        assert_eq!(ctl.on_task_start().delay, Duration::from_micros(50));
    }
}
