//! Multi-process shuffle data plane: worker processes, the framed socket
//! protocol between driver and workers, and driver-side worker supervision.
//!
//! Rust task closures cannot cross a process boundary, so sparkline's worker
//! processes host the shuffle *data plane* only: each `sparkline-worker`
//! process is a block store that accepts serialized map-output buckets
//! ([`crate::wire`] frames) over a loopback socket and serves them back to
//! reduce tasks. Computation stays on the driver's executor threads; logical
//! executor `e` stores its map outputs on worker `e % n_workers`. That split
//! keeps the programming model intact while making `kill -9` a *real* fault:
//! the bytes are genuinely gone, and recovery must run through the epoch /
//! `FetchFailed` machinery (or the external shuffle directory) rather than a
//! simulated flag.
//!
//! ## Protocol
//!
//! Every request and response is one wire frame whose payload starts with a
//! 1-byte opcode/status, followed by [`crate::SpillCodec`]-encoded fields:
//!
//! | op | request                                   | response            |
//! |----|-------------------------------------------|---------------------|
//! | 0  | `PUT  shuffle, map, reduce, frame bytes`  | `OK`                |
//! | 1  | `GET  shuffle, map, reduce`               | `OK + bytes` / `NOT_FOUND` |
//! | 2  | `DROP shuffle`                            | `OK`                |
//! | 3  | `PING`                                    | `OK`                |
//!
//! Connections are per-request (loopback connects are ~10µs; a pool would
//! complicate the kill -9 story for no measurable win at this scale) and
//! carry connect/read/write timeouts so a wedged worker turns into a retry,
//! never a hang.
//!
//! ## Supervision
//!
//! [`WorkerGroup`] spawns the children, performs the port handshake over the
//! child's stdout, and runs a heartbeat thread: `PING` every interval, and a
//! worker whose last successful ping is older than the liveness deadline is
//! declared dead, killed (noop if already gone), respawned, and reported via
//! the `on_worker_lost` callback so the scheduler can sweep the executors it
//! hosted. Each child holds a stdin pipe from the driver; on driver death
//! the pipe closes and the worker exits, so no orphan processes outlive a
//! crashed test run.

use crate::storage::SpillCodec;
use crate::sync::Mutex;
use crate::wire;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Env var naming the `sparkline-worker` binary explicitly (otherwise it is
/// discovered next to the current executable).
pub const WORKER_BIN_ENV: &str = "SPARKLINE_WORKER_BIN";

const OP_PUT: u8 = 0;
const OP_GET: u8 = 1;
const OP_DROP: u8 = 2;
const OP_PING: u8 = 3;

const ST_OK: u8 = 0;
const ST_NOT_FOUND: u8 = 1;
const ST_ERR: u8 = 2;

// ---------------------------------------------------------------------------
// Worker side: the block store and its serve loop (used by the
// `sparkline-worker` binary, and in-process by the protocol tests).
// ---------------------------------------------------------------------------

/// In-memory store of shuffle map-output frames, keyed by
/// `(shuffle, map, reduce)`.
#[derive(Default)]
struct WorkerStore {
    blocks: Mutex<HashMap<(u64, u64, u64), Arc<Vec<u8>>>>,
}

impl WorkerStore {
    fn handle(&self, payload: &[u8]) -> Vec<u8> {
        let Some((&op, rest)) = payload.split_first() else {
            return vec![ST_ERR];
        };
        let mut pos = 0;
        match op {
            OP_PUT => {
                let decoded = (|| {
                    let shuffle = u64::decode(rest, &mut pos)?;
                    let map = u64::decode(rest, &mut pos)?;
                    let reduce = u64::decode(rest, &mut pos)?;
                    let data = Vec::<u8>::decode(rest, &mut pos)?;
                    (pos == rest.len()).then_some((shuffle, map, reduce, data))
                })();
                match decoded {
                    Some((shuffle, map, reduce, data)) => {
                        self.blocks
                            .lock()
                            .insert((shuffle, map, reduce), Arc::new(data));
                        vec![ST_OK]
                    }
                    None => vec![ST_ERR],
                }
            }
            OP_GET => {
                let decoded = (|| {
                    let shuffle = u64::decode(rest, &mut pos)?;
                    let map = u64::decode(rest, &mut pos)?;
                    let reduce = u64::decode(rest, &mut pos)?;
                    (pos == rest.len()).then_some((shuffle, map, reduce))
                })();
                match decoded {
                    Some(key) => match self.blocks.lock().get(&key) {
                        Some(data) => {
                            let mut out = vec![ST_OK];
                            data.as_slice().to_vec().encode(&mut out);
                            out
                        }
                        None => vec![ST_NOT_FOUND],
                    },
                    None => vec![ST_ERR],
                }
            }
            OP_DROP => match u64::decode(rest, &mut pos) {
                Some(shuffle) if pos == rest.len() => {
                    self.blocks.lock().retain(|(s, _, _), _| *s != shuffle);
                    vec![ST_OK]
                }
                _ => vec![ST_ERR],
            },
            OP_PING => vec![ST_OK],
            _ => vec![ST_ERR],
        }
    }
}

/// Serve the worker protocol on `listener` forever (one thread per
/// connection). This is the entire body of the `sparkline-worker` binary.
pub fn serve_worker(listener: TcpListener) {
    let store = Arc::new(WorkerStore::default());
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let store = store.clone();
        std::thread::spawn(move || {
            let _ = serve_connection(&store, stream);
        });
    }
}

fn serve_connection(store: &WorkerStore, mut stream: TcpStream) -> Result<(), wire::WireError> {
    stream.set_nodelay(true).ok();
    loop {
        let request = match wire::read_frame_bytes(&mut stream, wire::MAX_PAYLOAD) {
            Ok(r) => r,
            // Clean disconnect between requests is the normal end of a
            // per-request connection.
            Err(_) => return Ok(()),
        };
        let response = store.handle(&request);
        wire::write_frame_bytes(&mut stream, &response)?;
        stream.flush()?;
    }
}

// ---------------------------------------------------------------------------
// Driver side: client.
// ---------------------------------------------------------------------------

/// Blocking client for one worker's socket. Connections are per-request and
/// every socket operation carries a timeout.
#[derive(Clone, Debug)]
pub struct WorkerClient {
    addr: SocketAddr,
    connect_timeout: Duration,
    io_timeout: Duration,
}

impl WorkerClient {
    pub fn new(addr: SocketAddr, connect_timeout: Duration, io_timeout: Duration) -> Self {
        WorkerClient {
            addr,
            connect_timeout,
            io_timeout,
        }
    }

    fn request(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(self.io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.io_timeout)))
            .map_err(|e| format!("set timeouts: {e}"))?;
        stream.set_nodelay(true).ok();
        wire::write_frame_bytes(&mut stream, payload).map_err(|e| format!("send: {e}"))?;
        wire::read_frame_bytes(&mut stream, wire::MAX_PAYLOAD).map_err(|e| format!("recv: {e}"))
    }

    /// Store one map-output frame on the worker.
    pub fn put(&self, shuffle: u64, map: u64, reduce: u64, frame: Vec<u8>) -> Result<(), String> {
        let mut payload = vec![OP_PUT];
        shuffle.encode(&mut payload);
        map.encode(&mut payload);
        reduce.encode(&mut payload);
        frame.encode(&mut payload);
        match self.request(&payload)?.first() {
            Some(&ST_OK) => Ok(()),
            other => Err(format!("put rejected: status {other:?}")),
        }
    }

    /// Fetch one map-output frame; `Ok(None)` when the worker does not have
    /// it (e.g. a respawned worker with an empty store).
    pub fn get(&self, shuffle: u64, map: u64, reduce: u64) -> Result<Option<Vec<u8>>, String> {
        let mut payload = vec![OP_GET];
        shuffle.encode(&mut payload);
        map.encode(&mut payload);
        reduce.encode(&mut payload);
        let response = self.request(&payload)?;
        match response.split_first() {
            Some((&ST_OK, rest)) => {
                let mut pos = 0;
                let data = Vec::<u8>::decode(rest, &mut pos)
                    .filter(|_| pos == rest.len())
                    .ok_or_else(|| "malformed GET response".to_string())?;
                Ok(Some(data))
            }
            Some((&ST_NOT_FOUND, _)) => Ok(None),
            other => Err(format!("get rejected: status {other:?}")),
        }
    }

    /// Drop every frame of `shuffle` on the worker.
    pub fn drop_shuffle(&self, shuffle: u64) -> Result<(), String> {
        let mut payload = vec![OP_DROP];
        shuffle.encode(&mut payload);
        match self.request(&payload)?.first() {
            Some(&ST_OK) => Ok(()),
            other => Err(format!("drop rejected: status {other:?}")),
        }
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), String> {
        match self.request(&[OP_PING])?.first() {
            Some(&ST_OK) => Ok(()),
            other => Err(format!("ping rejected: status {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Driver side: process supervision.
// ---------------------------------------------------------------------------

/// Tunables for [`WorkerGroup::spawn`].
#[derive(Clone, Copy, Debug)]
pub struct WorkerConfig {
    pub connect_timeout: Duration,
    pub io_timeout: Duration,
    /// Heartbeat ping interval.
    pub heartbeat_interval: Duration,
    /// A worker whose last successful ping is older than this is declared
    /// dead and respawned.
    pub liveness_deadline: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(2_000),
            heartbeat_interval: Duration::from_millis(50),
            liveness_deadline: Duration::from_millis(500),
        }
    }
}

struct WorkerSlot {
    child: Child,
    addr: SocketAddr,
    /// Bumped on every respawn; lets racing observers (heartbeat vs. an
    /// explicit kill) tell whether someone else already handled a death.
    incarnation: u64,
}

/// A supervised group of `sparkline-worker` processes.
pub struct WorkerGroup {
    bin: PathBuf,
    config: WorkerConfig,
    slots: Vec<Mutex<WorkerSlot>>,
    stop: AtomicBool,
    heartbeat: Mutex<Option<std::thread::JoinHandle<()>>>,
    on_lost: Mutex<Option<Box<dyn Fn(usize) + Send + Sync>>>,
    /// Wall time of every successful shuffle fetch, for the bench's p50/p99.
    fetch_micros: Mutex<Vec<u64>>,
    fetch_retries: AtomicU64,
}

impl WorkerGroup {
    /// Locate the worker binary: `SPARKLINE_WORKER_BIN`, else next to the
    /// current executable (`target/<profile>/` for bins, one directory up
    /// from `target/<profile>/deps/` for test executables).
    fn find_binary() -> Result<PathBuf, String> {
        if let Ok(path) = std::env::var(WORKER_BIN_ENV) {
            let path = PathBuf::from(path);
            if path.is_file() {
                return Ok(path);
            }
            return Err(format!(
                "{WORKER_BIN_ENV}={} does not exist",
                path.display()
            ));
        }
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut dir = exe.parent();
        while let Some(d) = dir {
            let candidate = d.join("sparkline-worker");
            if candidate.is_file() {
                return Ok(candidate);
            }
            if d.file_name().is_some_and(|n| n == "target") {
                break;
            }
            dir = d.parent();
        }
        Err(format!(
            "sparkline-worker binary not found near {} (set {WORKER_BIN_ENV})",
            exe.display()
        ))
    }

    fn spawn_child(bin: &PathBuf) -> Result<(Child, SocketAddr), String> {
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        // Port handshake: the worker binds 127.0.0.1:0 and prints
        // `PORT\t<port>` as its first stdout line.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("worker handshake: {e}"))?;
        let port: u16 = line
            .trim()
            .strip_prefix("PORT\t")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad worker handshake line {line:?}"))?;
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        Ok((child, addr))
    }

    /// Spawn `n` worker processes and start the heartbeat supervisor.
    pub fn spawn(n: usize, config: WorkerConfig) -> Result<Arc<WorkerGroup>, String> {
        assert!(n > 0, "worker group needs at least one process");
        let bin = Self::find_binary()?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let (child, addr) = Self::spawn_child(&bin)?;
            slots.push(Mutex::new(WorkerSlot {
                child,
                addr,
                incarnation: 0,
            }));
        }
        let group = Arc::new(WorkerGroup {
            bin,
            config,
            slots,
            stop: AtomicBool::new(false),
            heartbeat: Mutex::new(None),
            on_lost: Mutex::new(None),
            fetch_micros: Mutex::new(Vec::new()),
            fetch_retries: AtomicU64::new(0),
        });
        let weak: Weak<WorkerGroup> = Arc::downgrade(&group);
        let handle = std::thread::Builder::new()
            .name("sparkline-heartbeat".into())
            .spawn(move || heartbeat_loop(weak))
            .map_err(|e| format!("spawn heartbeat: {e}"))?;
        *group.heartbeat.lock() = Some(handle);
        Ok(group)
    }

    /// Number of worker processes in the group.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Install the scheduler's worker-loss callback (invoked by the
    /// heartbeat supervisor *after* the worker has been respawned).
    pub fn set_on_worker_lost(&self, f: impl Fn(usize) + Send + Sync + 'static) {
        *self.on_lost.lock() = Some(Box::new(f));
    }

    fn client_for(&self, worker: usize) -> WorkerClient {
        let addr = self.slots[worker].lock().addr;
        WorkerClient::new(addr, self.config.connect_timeout, self.config.io_timeout)
    }

    /// OS process id of one worker (diagnostics / tests).
    pub fn pid(&self, worker: usize) -> u32 {
        self.slots[worker].lock().child.id()
    }

    /// Store one map-output frame on `worker`.
    pub fn put(
        &self,
        worker: usize,
        shuffle: u64,
        map: u64,
        reduce: u64,
        frame: Vec<u8>,
    ) -> Result<(), String> {
        self.client_for(worker).put(shuffle, map, reduce, frame)
    }

    /// Fetch one map-output frame from `worker`, timing the transfer. A
    /// missing block is an error here — the shuffle layer decides whether to
    /// retry, fall back to the external directory, or escalate.
    pub fn fetch(
        &self,
        worker: usize,
        shuffle: u64,
        map: u64,
        reduce: u64,
    ) -> Result<Vec<u8>, String> {
        let start = Instant::now();
        let got = self.client_for(worker).get(shuffle, map, reduce)?;
        match got {
            Some(frame) => {
                self.fetch_micros
                    .lock()
                    .push(start.elapsed().as_micros() as u64);
                Ok(frame)
            }
            None => Err(format!(
                "worker {worker} has no block for shuffle {shuffle} map {map} reduce {reduce}"
            )),
        }
    }

    /// Best-effort drop of a finished shuffle's frames on every worker.
    pub fn drop_shuffle(&self, shuffle: u64) {
        for worker in 0..self.len() {
            let _ = self.client_for(worker).drop_shuffle(shuffle);
        }
    }

    /// Count one shuffle-fetch retry (for `BENCH_shuffle.json`).
    pub fn note_retry(&self) {
        self.fetch_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Successful-fetch latencies (µs, unsorted) and total retries so far.
    pub fn fetch_stats(&self) -> (Vec<u64>, u64) {
        (
            self.fetch_micros.lock().clone(),
            self.fetch_retries.load(Ordering::Relaxed),
        )
    }

    /// `kill -9` one worker process and respawn it (empty store, new port).
    /// Returns the incarnation that was killed. The caller is responsible
    /// for sweeping the executors the dead incarnation hosted.
    pub fn kill9(&self, worker: usize) -> u64 {
        let mut slot = self.slots[worker].lock();
        let killed = slot.incarnation;
        slot.child.kill().ok();
        slot.child.wait().ok();
        match Self::spawn_child(&self.bin) {
            Ok((child, addr)) => {
                slot.child = child;
                slot.addr = addr;
                slot.incarnation += 1;
            }
            Err(e) => panic!("failed to respawn worker {worker}: {e}"),
        }
        killed
    }

    fn incarnation(&self, worker: usize) -> u64 {
        self.slots[worker].lock().incarnation
    }
}

impl Drop for WorkerGroup {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.heartbeat.lock().take() {
            // The heartbeat holds a strong ref for the length of a sweep; if
            // the owner drops meanwhile, this runs *on* the heartbeat thread
            // and joining would be a self-join (EDEADLK panic). No need: the
            // loop exits on its own at its next `upgrade`.
            if handle.thread().id() != std::thread::current().id() {
                handle.join().ok();
            }
        }
        for slot in &self.slots {
            let mut slot = slot.lock();
            slot.child.kill().ok();
            slot.child.wait().ok();
        }
    }
}

/// Heartbeat supervisor: ping every worker each interval; one whose last
/// successful ping is older than the liveness deadline is killed, respawned,
/// and reported to the scheduler. Holds only a `Weak` so dropping the group
/// stops the loop.
fn heartbeat_loop(group: Weak<WorkerGroup>) {
    let mut last_ok: Vec<Instant> = Vec::new();
    loop {
        let interval;
        // The strong ref is scoped to one sweep so dropping the group while
        // we sleep is never blocked on this thread.
        {
            let Some(group) = group.upgrade() else { return };
            if group.stop.load(Ordering::SeqCst) {
                return;
            }
            let config = group.config;
            interval = config.heartbeat_interval;
            if last_ok.is_empty() {
                last_ok = vec![Instant::now(); group.len()];
            }
            for (worker, last) in last_ok.iter_mut().enumerate() {
                let before = group.incarnation(worker);
                if group.client_for(worker).ping().is_ok() {
                    *last = Instant::now();
                    continue;
                }
                if last.elapsed() < config.liveness_deadline {
                    continue;
                }
                // Deadline blown: the worker is dead. Respawn it unless
                // someone (an explicit kill, chaos) already did while we
                // were pinging.
                if group.incarnation(worker) == before {
                    group.kill9(worker);
                    *last = Instant::now();
                    let cb = group.on_lost.lock();
                    if let Some(f) = cb.as_ref() {
                        f(worker);
                    }
                }
            }
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Boot an in-process worker (same serve loop as the binary) and return
    /// a client for it.
    fn local_worker() -> WorkerClient {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || serve_worker(listener));
        WorkerClient::new(addr, Duration::from_millis(500), Duration::from_millis(500))
    }

    #[test]
    fn put_get_round_trip_and_not_found() {
        let client = local_worker();
        client.ping().unwrap();
        let frame = wire::encode_frame(&vec![(1u64, 2.5f64), (3, 4.5)]);
        client.put(7, 0, 1, frame.clone()).unwrap();
        assert_eq!(client.get(7, 0, 1).unwrap(), Some(frame));
        assert_eq!(client.get(7, 0, 2).unwrap(), None);
        assert_eq!(client.get(8, 0, 1).unwrap(), None);
    }

    #[test]
    fn drop_shuffle_clears_only_that_shuffle() {
        let client = local_worker();
        client.put(1, 0, 0, b"one".to_vec()).unwrap();
        client.put(2, 0, 0, b"two".to_vec()).unwrap();
        client.drop_shuffle(1).unwrap();
        assert_eq!(client.get(1, 0, 0).unwrap(), None);
        assert_eq!(client.get(2, 0, 0).unwrap(), Some(b"two".to_vec()));
    }

    #[test]
    fn put_overwrites_on_resubmission() {
        // A resubmitted map task re-PUTs its bucket; the store must keep the
        // newest bytes rather than erroring or duplicating.
        let client = local_worker();
        client.put(3, 1, 1, b"old".to_vec()).unwrap();
        client.put(3, 1, 1, b"new".to_vec()).unwrap();
        assert_eq!(client.get(3, 1, 1).unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn malformed_request_gets_error_status_and_connection_survives() {
        let client = local_worker();
        // Opcode with a garbage body: the worker answers ST_ERR (surfaced as
        // an Err by the typed client) instead of dying.
        let listener_alive = || client.ping().is_ok();
        let mut stream =
            TcpStream::connect_timeout(&client.addr, Duration::from_millis(500)).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        wire::write_frame_bytes(&mut stream, &[OP_PUT, 0xde, 0xad]).unwrap();
        let resp = wire::read_frame_bytes(&mut stream, wire::MAX_PAYLOAD).unwrap();
        assert_eq!(resp, vec![ST_ERR]);
        // Unknown opcode too.
        wire::write_frame_bytes(&mut stream, &[0x7f]).unwrap();
        let resp = wire::read_frame_bytes(&mut stream, wire::MAX_PAYLOAD).unwrap();
        assert_eq!(resp, vec![ST_ERR]);
        assert!(listener_alive());
    }

    #[test]
    fn corrupt_frame_disconnects_without_killing_listener() {
        let client = local_worker();
        let mut stream =
            TcpStream::connect_timeout(&client.addr, Duration::from_millis(500)).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        stream.write_all(b"not a frame at all").unwrap();
        drop(stream);
        // The poisoned connection is closed; fresh connections still work.
        client.ping().unwrap();
    }
}
