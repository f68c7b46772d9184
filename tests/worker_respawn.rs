//! Real `sparkline-worker` processes across a respawn: the slot's pooled
//! connections must follow the new process, and a respawn that fails must
//! leave supervision alive to try again.

use sac_repro::sparkline::transport::{WorkerConfig, WorkerGroup, WORKER_BIN_ENV};
use sac_repro::sparkline::wire;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `WorkerGroup::spawn` reads `SPARKLINE_WORKER_BIN`; one test sets it.
static SPAWN_ENV: Mutex<()> = Mutex::new(());

fn frame() -> Vec<u8> {
    wire::encode_frame(&vec![1.5f64; 64])
}

/// Fetch worker 0's frame for shuffle 1, map 0, reduce 0.
fn fetch(group: &WorkerGroup) -> Result<Vec<u8>, String> {
    let mut frame = Vec::new();
    group.fetch(0, 1, 0, 0, &mut frame).map(|()| frame)
}

#[test]
fn kill9_between_two_requests_reconnects_to_the_new_process() {
    let config = WorkerConfig::default();
    let group = {
        let _env = SPAWN_ENV.lock().unwrap();
        WorkerGroup::spawn(1, config).unwrap()
    };
    group.put(0, 1, 0, 0, frame()).unwrap();
    // The slot's client now holds an idle stream to the first process.
    assert_eq!(fetch(&group).unwrap(), frame());
    let first_pid = group.pid(0);
    group.kill9(0).unwrap();
    assert_ne!(group.pid(0), first_pid);
    // Same client, dead stream: an answer from the new, empty process — not
    // a hang, not an error from the old address.
    let started = Instant::now();
    let err = fetch(&group).unwrap_err();
    assert!(err.contains("has no block"), "{err}");
    assert!(started.elapsed() < config.io_timeout);
    group.put(0, 1, 0, 0, frame()).unwrap();
    assert_eq!(fetch(&group).unwrap(), frame());
}

#[test]
fn failed_respawn_leaves_the_slot_down_until_a_heartbeat_sweep_respawns_it() {
    let real = Path::new(env!("CARGO_BIN_EXE_sparkline-worker"));
    // A second name for the worker binary that the test can take away. A hard
    // link, not a copy: nothing ever holds it open for writing, so exec'ing
    // it cannot hit ETXTBSY.
    let bin = real.with_file_name(format!("sparkline-worker.respawn-{}", std::process::id()));
    std::fs::remove_file(&bin).ok();
    std::fs::hard_link(real, &bin).unwrap();
    let config = WorkerConfig {
        heartbeat_interval: Duration::from_millis(10),
        liveness_deadline: Duration::from_millis(50),
        ..WorkerConfig::default()
    };
    let group = {
        let _env = SPAWN_ENV.lock().unwrap();
        std::env::set_var(WORKER_BIN_ENV, &bin);
        let group = WorkerGroup::spawn(1, config);
        std::env::remove_var(WORKER_BIN_ENV);
        group.unwrap()
    };
    let respawns = Arc::new(AtomicUsize::new(0));
    let seen = respawns.clone();
    group.set_on_worker_lost(move |_| {
        seen.fetch_add(1, Ordering::SeqCst);
    });
    group.put(0, 1, 0, 0, frame()).unwrap();

    std::fs::remove_file(&bin).unwrap();
    let err = group.kill9(0).unwrap_err();
    assert!(err.contains("spawn"), "{err}");
    // Down: requests fail at once instead of waiting out a timeout ...
    let started = Instant::now();
    assert!(group.put(0, 1, 0, 0, frame()).is_err());
    assert!(fetch(&group).is_err());
    assert!(started.elapsed() < config.connect_timeout);
    // ... and stay failing through heartbeat sweeps whose respawn fails too
    // (each used to panic the heartbeat thread).
    std::thread::sleep(4 * config.liveness_deadline);
    assert!(group.put(0, 1, 0, 0, frame()).is_err());
    assert_eq!(respawns.load(Ordering::SeqCst), 0);

    // The binary is back: the next sweep fills the slot with no one asking.
    std::fs::hard_link(real, &bin).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while respawns.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "heartbeat never respawned");
        std::thread::sleep(config.heartbeat_interval);
    }
    group.put(0, 1, 0, 0, frame()).unwrap();
    assert_eq!(fetch(&group).unwrap(), frame());
    drop(group);
    std::fs::remove_file(&bin).unwrap();
}
