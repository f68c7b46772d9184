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
//! A message, either way, is a *head* — one small [`crate::wire`] frame whose
//! 29-byte payload is `code: u8, shuffle: u64, map: u64, reduce: u64,
//! body_len: u32` (little-endian; unused ids are zero) — followed by
//! `body_len` body bytes. The only body is a map-output bucket, and it is the
//! bucket's own SPKL frame *verbatim*: nothing re-encodes or re-frames it, so
//! its CRC is the end-to-end check. A bucket's payload is checksummed three
//! times on its way from map task to reduce task — [`wire::encode_frame`] on
//! the map side, the worker's ingest check on PUT (a garbled frame is refused
//! rather than stored), [`wire::decode_frame`] on the reduce side — and never
//! on GET, which writes the stored bytes straight to the socket. The head's
//! own CRC covers the ids and the body length. Head and body leave in one
//! vectored write, so the head never travels as a segment of its own.
//!
//! | op | request                              | response                      |
//! |----|--------------------------------------|-------------------------------|
//! | 4  | `PUT  shuffle, map, reduce` + frame  | `OK` / `ERR` (frame refused)  |
//! | 5  | `GET  shuffle, map, reduce`          | `OK` + frame / `NOT_FOUND`    |
//! | 6  | `DROP shuffle`                       | `OK`                          |
//! | 7  | `PING`                               | `OK`                          |
//!
//! Ops 0–3 were the same requests in an earlier layout (fields and the frame
//! wrapped in a second frame); they are retired rather than reused so a stale
//! `sparkline-worker` answers `ERR` instead of misparsing.
//!
//! A map task PUTs its frames in reduce-partition order, each acknowledged
//! before the next is sent; the shuffle layer kills a worker that refuses or
//! drops one. The same frames, back to back in the same order, are the map
//! task's one file in the external shuffle directory, written before the
//! first PUT.
//!
//! ## Buffers
//!
//! A frame's bytes land in memory that is already mapped wherever a buffer
//! can be reused. A GET body is received into the caller's buffer
//! ([`WorkerClient::get_into`]), overwriting what it held: the shuffle layer
//! lends each executor thread one frame buffer, which its map tasks encode
//! into and its reduce tasks fetch into. On the worker, a PUT body is
//! received into a buffer the last `DROP` freed, the smallest that holds it;
//! when none does, freed buffers of at least the body's size are released
//! before one is allocated, so reuse never raises what a worker holds at its
//! peak.
//!
//! ## Connections
//!
//! Connections persist. Each [`WorkerClient`] keeps a small pool of idle
//! streams to its worker: a request checks one out (or connects), does its
//! round trip, and checks it back in, so in steady state a driver thread
//! reuses one socket and the worker runs one serve thread per driver thread
//! (a loopback connect + accept + thread spawn costs several round trips).
//! Every request is idempotent, so a pooled stream that fails — its worker
//! was `kill -9`'d and respawned, or hung up — is dropped and the request
//! retried once on a fresh connection to the slot's *current* address; a
//! fresh connection's failure is the answer. A respawn flushes the pool, and
//! a stream is only ever checked in at a message boundary, so a request can
//! never read another's reply. All socket operations carry timeouts: a wedged
//! worker turns into an error, never a hang.
//!
//! ## Supervision
//!
//! [`WorkerGroup`] spawns the children, performs the port handshake over the
//! child's stdout, and runs a heartbeat thread: `PING` every interval, and a
//! worker whose last successful ping is older than the liveness deadline is
//! declared dead, killed (noop if already gone), respawned, and reported via
//! the `on_worker_lost` callback so the scheduler can sweep the executors it
//! hosted. A respawn that fails leaves the slot down — requests to it fail at
//! once, which the shuffle layer already treats as a lost worker — and every
//! later sweep tries the spawn again. Each child holds a stdin pipe from the
//! driver; on driver death the pipe closes and the worker exits, so no orphan
//! processes outlive a crashed test run.

use crate::sync::Mutex;
use crate::wire::{self, WireError};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Env var naming the `sparkline-worker` binary explicitly (otherwise it is
/// discovered next to the current executable).
pub const WORKER_BIN_ENV: &str = "SPARKLINE_WORKER_BIN";

const OP_PUT: u8 = 4;
const OP_GET: u8 = 5;
const OP_DROP: u8 = 6;
const OP_PING: u8 = 7;

const ST_OK: u8 = 0;
const ST_NOT_FOUND: u8 = 1;
const ST_ERR: u8 = 2;

// ---------------------------------------------------------------------------
// Messages: a framed head, then the body verbatim.
// ---------------------------------------------------------------------------

/// Payload bytes of a message head: code, three ids, body length.
const HEAD_LEN: usize = 1 + 3 * 8 + 4;

/// Largest body a head may announce: one whole frame.
const MAX_BODY: usize = wire::HEADER_LEN + wire::MAX_PAYLOAD;

/// A verified message head: what the body length field announced is
/// within [`MAX_BODY`], and no body byte has been read yet.
struct Head {
    /// Opcode of a request, status of a response.
    code: u8,
    /// `shuffle, map, reduce`; zero where the message has no use for one.
    ids: [u64; 3],
    body_len: usize,
}

/// One request or response as received.
struct Message {
    code: u8,
    ids: [u64; 3],
    body: Vec<u8>,
}

/// Write one message: head and body in a single vectored write (with
/// `TCP_NODELAY`, two `write_all`s would send the head as its own segment).
fn send_message<W: Write>(
    w: &mut W,
    code: u8,
    ids: [u64; 3],
    body: &[u8],
) -> Result<(), WireError> {
    if body.len() > MAX_BODY {
        return Err(WireError::Oversized(body.len() as u64));
    }
    let mut head = [0u8; HEAD_LEN];
    head[0] = code;
    for (field, id) in head[1..25].chunks_exact_mut(8).zip(ids) {
        field.copy_from_slice(&id.to_le_bytes());
    }
    head[25..].copy_from_slice(&(body.len() as u32).to_le_bytes());
    let head = wire::frame_bytes(&head);
    let mut parts = [IoSlice::new(&head), IoSlice::new(body)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Read one message head. It is verified (magic, version, CRC, exact
/// length) before its body length is believed, and a body over the cap is
/// refused before anything is allocated for it.
fn recv_head<R: Read>(r: &mut R) -> Result<Head, WireError> {
    let head = wire::read_frame_bytes(r, HEAD_LEN)?;
    let head: &[u8; HEAD_LEN] = head.as_slice().try_into().map_err(|_| WireError::Decode)?;
    let mut ids = [0u64; 3];
    for (id, field) in ids.iter_mut().zip(head[1..25].chunks_exact(8)) {
        *id = u64::from_le_bytes(field.try_into().expect("8-byte chunk"));
    }
    let body_len = u32::from_le_bytes([head[25], head[26], head[27], head[28]]) as usize;
    if body_len > MAX_BODY {
        return Err(WireError::Oversized(body_len as u64));
    }
    Ok(Head {
        code: head[0],
        ids,
        body_len,
    })
}

/// Read a `len`-byte body into `into`, overwriting what it held: a buffer
/// that held a body before is neither reallocated nor zero-filled up to that
/// body's length. The body is taken as it arrived: whoever stores or decodes
/// it checks the frame inside.
fn recv_body<R: Read>(r: &mut R, len: usize, into: &mut Vec<u8>) -> Result<(), WireError> {
    into.resize(len, 0);
    wire::read_exact_or_truncated(r, into)
}

/// Read one message, its body into a buffer of its own.
fn recv_message<R: Read>(r: &mut R) -> Result<Message, WireError> {
    let Head {
        code,
        ids,
        body_len,
    } = recv_head(r)?;
    let mut body = Vec::new();
    recv_body(r, body_len, &mut body)?;
    Ok(Message { code, ids, body })
}

// ---------------------------------------------------------------------------
// Worker side: the block store and its serve loop (used by the
// `sparkline-worker` binary, and in-process by the protocol tests).
// ---------------------------------------------------------------------------

/// In-memory store of shuffle map-output frames, keyed by
/// `(shuffle, map, reduce)`.
#[derive(Default)]
struct WorkerStore {
    blocks: Mutex<HashMap<(u64, u64, u64), Arc<Vec<u8>>>>,
    /// The buffers of the frames the last `DROP` removed, by capacity
    /// ascending: a PUT body is received into one of them rather than into
    /// fresh pages.
    free: Mutex<Vec<Vec<u8>>>,
}

impl WorkerStore {
    /// A buffer for a `len`-byte PUT body: the smallest freed one that
    /// holds it. When none does, freed buffers of at least `len` bytes in
    /// all are released before a new one is allocated, so reuse never adds
    /// to what the worker holds.
    fn buffer(&self, len: usize) -> Vec<u8> {
        let mut free = self.free.lock();
        let fit = free.partition_point(|b| b.capacity() < len);
        if fit < free.len() {
            return free.remove(fit);
        }
        let mut released = 0;
        while released < len {
            let Some(buffer) = free.pop() else { break };
            released += buffer.capacity();
        }
        drop(free);
        Vec::with_capacity(len)
    }

    /// Answer one request: a status and, for a GET hit, the stored frame —
    /// cloned out of the map, so the store is not locked while it is written
    /// to the socket.
    fn handle(&self, request: Message) -> (u8, Option<Arc<Vec<u8>>>) {
        let Message {
            code,
            ids: [shuffle, map, reduce],
            body,
        } = request;
        if code != OP_PUT && !body.is_empty() {
            return (ST_ERR, None);
        }
        match code {
            // Ingest check: the body must be exactly one intact frame. This
            // is the one CRC pass a bucket gets on the worker.
            OP_PUT => match wire::unframe_exact(&body) {
                Ok(_) => {
                    self.blocks
                        .lock()
                        .insert((shuffle, map, reduce), Arc::new(body));
                    (ST_OK, None)
                }
                Err(_) => (ST_ERR, None),
            },
            OP_GET => match self.blocks.lock().get(&(shuffle, map, reduce)).cloned() {
                Some(frame) => (ST_OK, Some(frame)),
                None => (ST_NOT_FOUND, None),
            },
            OP_DROP => {
                // A frame a GET is still writing out is not reused.
                let mut freed: Vec<Vec<u8>> = self
                    .blocks
                    .lock()
                    .extract_if(|(s, _, _), _| *s == shuffle)
                    .filter_map(|(_, frame)| Arc::try_unwrap(frame).ok())
                    .collect();
                freed.sort_unstable_by_key(Vec::capacity);
                *self.free.lock() = freed;
                (ST_OK, None)
            }
            OP_PING => (ST_OK, None),
            _ => (ST_ERR, None),
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

fn serve_connection(store: &WorkerStore, mut stream: TcpStream) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    loop {
        // The driver hanging up between requests is the normal end of a
        // connection; a head that does not verify leaves the stream out of
        // step, so that connection ends too (the listener lives on).
        let Ok(Head {
            code,
            ids,
            body_len,
        }) = recv_head(&mut stream)
        else {
            return Ok(());
        };
        let mut body = if code == OP_PUT {
            store.buffer(body_len)
        } else {
            Vec::new()
        };
        if recv_body(&mut stream, body_len, &mut body).is_err() {
            return Ok(());
        }
        let (status, frame) = store.handle(Message { code, ids, body });
        let body = frame.as_ref().map_or(&[][..], |frame| frame.as_slice());
        send_message(&mut stream, status, [0; 3], body)?;
    }
}

// ---------------------------------------------------------------------------
// Driver side: client.
// ---------------------------------------------------------------------------

/// Idle streams a client keeps; more than the driver's concurrent requests to
/// one worker would never be reused.
const MAX_IDLE: usize = 8;

/// Blocking client for one worker's socket, with a pool of idle connections
/// (see the module docs). Every socket operation carries a timeout.
pub struct WorkerClient {
    connect_timeout: Duration,
    io_timeout: Duration,
    target: Mutex<Target>,
}

/// Where a client's worker listens now — `None` while its slot has no live
/// process — and the idle streams connected there.
struct Target {
    addr: Option<SocketAddr>,
    idle: Vec<TcpStream>,
}

impl WorkerClient {
    pub fn new(addr: SocketAddr, connect_timeout: Duration, io_timeout: Duration) -> Self {
        WorkerClient {
            connect_timeout,
            io_timeout,
            target: Mutex::new(Target {
                addr: Some(addr),
                idle: Vec::new(),
            }),
        }
    }

    /// Point the client at its slot's new process (or at none), dropping the
    /// idle streams to the old one.
    fn retarget(&self, addr: Option<SocketAddr>) {
        *self.target.lock() = Target {
            addr,
            idle: Vec::new(),
        };
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let addr = self.target.lock().addr.ok_or("worker is down")?;
        let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(self.io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.io_timeout)))
            .map_err(|e| format!("set timeouts: {e}"))?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    /// Return a stream that just completed a round trip. One connected to an
    /// address the client has since been pointed away from is dropped.
    fn check_in(&self, stream: TcpStream) {
        let mut target = self.target.lock();
        if target.idle.len() < MAX_IDLE && stream.peer_addr().ok() == target.addr {
            target.idle.push(stream);
        }
    }

    /// Send one request and read its reply with `read_reply`.
    fn request<T>(
        &self,
        code: u8,
        ids: [u64; 3],
        body: &[u8],
        mut read_reply: impl FnMut(&mut TcpStream) -> Result<T, WireError>,
    ) -> Result<T, String> {
        let mut round_trip = |stream: &mut TcpStream| {
            send_message(stream, code, ids, body)?;
            read_reply(stream)
        };
        let pooled = self.target.lock().idle.pop();
        if let Some(mut stream) = pooled {
            if let Ok(reply) = round_trip(&mut stream) {
                self.check_in(stream);
                return Ok(reply);
            }
            // The idle stream had gone stale. Requests are idempotent: once
            // more, on a fresh connection to wherever the worker is now.
        }
        let mut stream = self.connect()?;
        let reply = round_trip(&mut stream).map_err(|e| format!("worker request: {e}"))?;
        self.check_in(stream);
        Ok(reply)
    }

    /// A request whose whole answer is its status.
    fn command(&self, what: &str, code: u8, ids: [u64; 3], body: &[u8]) -> Result<(), String> {
        match self.request(code, ids, body, recv_message)?.code {
            ST_OK => Ok(()),
            status => Err(format!("{what} rejected: status {status}")),
        }
    }

    /// Store one map-output frame on the worker, which refuses anything that
    /// is not exactly one intact frame.
    pub fn put(
        &self,
        shuffle: u64,
        map: u64,
        reduce: u64,
        frame: impl AsRef<[u8]>,
    ) -> Result<(), String> {
        self.command("put", OP_PUT, [shuffle, map, reduce], frame.as_ref())
    }

    /// Fetch one map-output frame into `into`, as stored (the caller's
    /// `decode_frame` verifies it), reusing `into`'s capacity; `Ok(false)`
    /// when the worker does not have it (e.g. a respawned worker with an
    /// empty store).
    pub fn get_into(
        &self,
        shuffle: u64,
        map: u64,
        reduce: u64,
        into: &mut Vec<u8>,
    ) -> Result<bool, String> {
        let status = self.request(OP_GET, [shuffle, map, reduce], &[], |stream| {
            let head = recv_head(stream)?;
            recv_body(stream, head.body_len, into)?;
            Ok(head.code)
        })?;
        match status {
            ST_OK => Ok(true),
            ST_NOT_FOUND => Ok(false),
            status => Err(format!("get rejected: status {status}")),
        }
    }

    /// [`WorkerClient::get_into`] a buffer of the frame's own.
    pub fn get(&self, shuffle: u64, map: u64, reduce: u64) -> Result<Option<Vec<u8>>, String> {
        let mut frame = Vec::new();
        Ok(self
            .get_into(shuffle, map, reduce, &mut frame)?
            .then_some(frame))
    }

    /// Drop every frame of `shuffle` on the worker.
    pub fn drop_shuffle(&self, shuffle: u64) -> Result<(), String> {
        self.command("drop", OP_DROP, [shuffle, 0, 0], &[])
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), String> {
        self.command("ping", OP_PING, [0; 3], &[])
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

/// One worker slot: the process that fills it now, and the long-lived client
/// every request to it goes through.
struct WorkerSlot {
    process: Mutex<WorkerProcess>,
    client: WorkerClient,
}

struct WorkerProcess {
    /// Kept after it is killed and reaped (a slot whose respawn failed), so
    /// `pid` still answers.
    child: Child,
    /// Bumped on every respawn; lets racing observers (heartbeat vs. an
    /// explicit kill) tell whether someone else already handled a death.
    incarnation: u64,
}

/// A supervised group of `sparkline-worker` processes.
pub struct WorkerGroup {
    bin: PathBuf,
    config: WorkerConfig,
    slots: Vec<WorkerSlot>,
    stop: AtomicBool,
    heartbeat: Mutex<Option<std::thread::JoinHandle<()>>>,
    on_lost: Mutex<Option<Box<dyn Fn(usize) + Send + Sync>>>,
    /// Wall time of the successful shuffle fetches the shuffle layer
    /// recorded, for the bench's p50/p99.
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

    fn spawn_child(bin: &Path) -> Result<(Child, SocketAddr), String> {
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        // Port handshake: the worker binds 127.0.0.1:0 and prints
        // `PORT\t<port>` as its first stdout line.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let port = BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("worker handshake: {e}"))
            .and_then(|_| {
                line.trim()
                    .strip_prefix("PORT\t")
                    .and_then(|p| p.parse::<u16>().ok())
                    .ok_or_else(|| format!("bad worker handshake line {line:?}"))
            });
        match port {
            Ok(port) => Ok((child, SocketAddr::from(([127, 0, 0, 1], port)))),
            Err(e) => {
                // Whatever started is not a worker; do not leave it behind.
                child.kill().ok();
                child.wait().ok();
                Err(e)
            }
        }
    }

    /// Spawn `n` worker processes and start the heartbeat supervisor.
    pub fn spawn(n: usize, config: WorkerConfig) -> Result<Arc<WorkerGroup>, String> {
        assert!(n > 0, "worker group needs at least one process");
        let bin = Self::find_binary()?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let (child, addr) = Self::spawn_child(&bin)?;
            slots.push(WorkerSlot {
                process: Mutex::new(WorkerProcess {
                    child,
                    incarnation: 0,
                }),
                client: WorkerClient::new(addr, config.connect_timeout, config.io_timeout),
            });
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

    /// OS process id of one worker (diagnostics / tests).
    pub fn pid(&self, worker: usize) -> u32 {
        self.slots[worker].process.lock().child.id()
    }

    /// Store one map-output frame on `worker`.
    pub fn put(
        &self,
        worker: usize,
        shuffle: u64,
        map: u64,
        reduce: u64,
        frame: impl AsRef<[u8]>,
    ) -> Result<(), String> {
        self.slots[worker].client.put(shuffle, map, reduce, frame)
    }

    /// Fetch one map-output frame from `worker` into `into`. A missing block
    /// is an error here — the shuffle layer decides whether to retry, fall
    /// back to the external directory, or escalate.
    pub fn fetch(
        &self,
        worker: usize,
        shuffle: u64,
        map: u64,
        reduce: u64,
        into: &mut Vec<u8>,
    ) -> Result<(), String> {
        if self.slots[worker]
            .client
            .get_into(shuffle, map, reduce, into)?
        {
            Ok(())
        } else {
            Err(format!(
                "worker {worker} has no block for shuffle {shuffle} map {map} reduce {reduce}"
            ))
        }
    }

    /// Best-effort drop of a finished shuffle's frames on every worker.
    pub fn drop_shuffle(&self, shuffle: u64) {
        for slot in &self.slots {
            let _ = slot.client.drop_shuffle(shuffle);
        }
    }

    /// Record the wall time of one successful shuffle fetch (reported by
    /// [`WorkerGroup::fetch_stats`]).
    pub(crate) fn note_fetch(&self, took: Duration) {
        self.fetch_micros.lock().push(took.as_micros() as u64);
    }

    /// Count one shuffle-fetch retry (reported by [`WorkerGroup::fetch_stats`]).
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
    /// The caller is responsible for sweeping the executors the dead
    /// incarnation hosted. On `Err` the respawn failed and the slot is down:
    /// requests to it fail at once, and the next call (the heartbeat makes
    /// one every sweep) tries the spawn again.
    pub fn kill9(&self, worker: usize) -> Result<(), String> {
        let slot = &self.slots[worker];
        let mut process = slot.process.lock();
        process.child.kill().ok();
        process.child.wait().ok();
        slot.client.retarget(None);
        let (child, addr) = Self::spawn_child(&self.bin)?;
        process.child = child;
        process.incarnation += 1;
        slot.client.retarget(Some(addr));
        Ok(())
    }

    fn incarnation(&self, worker: usize) -> u64 {
        self.slots[worker].process.lock().incarnation
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
            let mut process = slot.process.lock();
            process.child.kill().ok();
            process.child.wait().ok();
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
                if group.slots[worker].client.ping().is_ok() {
                    *last = Instant::now();
                    continue;
                }
                if last.elapsed() < config.liveness_deadline {
                    continue;
                }
                // Deadline blown: the worker is dead. Respawn it unless
                // someone (an explicit kill, chaos) already did while we
                // were pinging. A failed respawn leaves `last` stale, so the
                // next sweep tries again.
                if group.incarnation(worker) == before && group.kill9(worker).is_ok() {
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
    use proptest::prelude::*;

    /// Boot an in-process worker (same serve loop as the binary).
    fn local_worker_addr() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || serve_worker(listener));
        addr
    }

    fn client_for(addr: SocketAddr) -> WorkerClient {
        WorkerClient::new(addr, Duration::from_millis(500), Duration::from_millis(500))
    }

    fn local_worker() -> WorkerClient {
        client_for(local_worker_addr())
    }

    fn frame_of(text: &str) -> Vec<u8> {
        wire::encode_frame(&text.to_string())
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
        client.put(1, 0, 0, frame_of("one")).unwrap();
        client.put(2, 0, 0, frame_of("two")).unwrap();
        client.drop_shuffle(1).unwrap();
        assert_eq!(client.get(1, 0, 0).unwrap(), None);
        assert_eq!(client.get(2, 0, 0).unwrap(), Some(frame_of("two")));
    }

    #[test]
    fn put_overwrites_on_resubmission() {
        // A resubmitted map task re-PUTs its bucket; the store must keep the
        // newest bytes rather than erroring or duplicating.
        let client = local_worker();
        client.put(3, 1, 1, frame_of("old")).unwrap();
        client.put(3, 1, 1, frame_of("new")).unwrap();
        assert_eq!(client.get(3, 1, 1).unwrap(), Some(frame_of("new")));
    }

    /// A client of an in-process worker that counts the connections it
    /// accepts.
    fn counting_worker() -> (WorkerClient, Arc<AtomicU64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = client_for(listener.local_addr().unwrap());
        let accepted = Arc::new(AtomicU64::new(0));
        let counter = accepted.clone();
        std::thread::spawn(move || {
            let store = Arc::new(WorkerStore::default());
            for stream in listener.incoming().flatten() {
                counter.fetch_add(1, Ordering::SeqCst);
                let store = store.clone();
                std::thread::spawn(move || serve_connection(&store, stream));
            }
        });
        (client, accepted)
    }

    #[test]
    fn a_thousand_requests_share_one_connection() {
        // A sequential caller must stay on the connection it opened first.
        let (client, accepted) = counting_worker();
        let frame = wire::encode_frame(&vec![0.5f64; 512]);
        for i in 0..250 {
            client.put(1, i, 0, frame.clone()).unwrap();
            assert_eq!(client.get(1, i, 0).unwrap().as_ref(), Some(&frame));
            assert_eq!(client.get(2, i, 0).unwrap(), None);
            client.ping().unwrap();
        }
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
        assert_eq!(client.target.lock().idle.len(), 1);
    }

    #[test]
    fn a_get_into_a_reused_buffer_returns_exactly_the_frame() {
        // Frames longer and shorter than the one before, tile-sized among
        // them: whatever the buffer held, it ends up holding the frame.
        let (client, accepted) = counting_worker();
        let frames: Vec<Vec<u8>> = [1usize, 16_390, 40, 8_000, 0, 16_390]
            .iter()
            .map(|&n| wire::encode_frame(&vec![n as f64; n]))
            .collect();
        for (r, frame) in (0u64..).zip(&frames) {
            client.put(4, 0, r, frame).unwrap();
        }
        let mut into = Vec::new();
        for (r, frame) in (0u64..).zip(&frames) {
            assert!(client.get_into(4, 0, r, &mut into).unwrap());
            assert_eq!(&into, frame, "reduce {r}");
        }
        assert!(!client.get_into(4, 1, 0, &mut into).unwrap());
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_put_lands_in_a_buffer_the_last_drop_freed() {
        let store = WorkerStore::default();
        let put = |shuffle: u64, reduce: u64, body: Vec<u8>| {
            store.handle(Message {
                code: OP_PUT,
                ids: [shuffle, 0, reduce],
                body,
            })
        };
        let small = frame_of("small");
        let large = wire::encode_frame(&vec![0.25f64; 4_096]);
        put(1, 0, large.clone());
        put(1, 1, small.clone());
        put(2, 0, small.clone());
        store.handle(Message {
            code: OP_DROP,
            ids: [1, 0, 0],
            body: Vec::new(),
        });
        let caps: Vec<usize> = store.free.lock().iter().map(Vec::capacity).collect();
        assert_eq!(caps, [small.capacity(), large.capacity()]);
        // The smallest freed buffer that holds the body.
        let reused = store.buffer(small.len() + 1);
        assert_eq!(reused.capacity(), large.capacity());
        assert_eq!(store.free.lock().len(), 1);
        // No freed buffer holds this one: the rest are released first.
        let fresh = store.buffer(large.len() * 2);
        assert_eq!(fresh.capacity(), large.len() * 2);
        assert!(store.free.lock().is_empty());
        // The next DROP's buffers replace whatever is left.
        put(3, 0, reused);
        put(3, 1, small.clone());
        store.handle(Message {
            code: OP_DROP,
            ids: [3, 0, 0],
            body: Vec::new(),
        });
        assert_eq!(store.free.lock().len(), 2);
        assert_eq!(store.blocks.lock().len(), 1, "shuffle 2 is kept");
    }

    #[test]
    fn retargeted_client_reconnects_and_never_reads_the_old_worker() {
        // What a respawn does to the slot's client: same client, new address.
        // A stream to the old worker — idle in the pool, or checked out across
        // the switch — must not serve the next request: the old worker still
        // has the block, the new one must answer NOT_FOUND.
        let client = local_worker();
        client
            .put(5, 0, 0, frame_of("held by the old worker"))
            .unwrap();
        let in_flight = client.target.lock().idle.pop().unwrap();
        client
            .put(5, 0, 1, frame_of("opens a second stream"))
            .unwrap();
        client.retarget(Some(local_worker_addr()));
        client.check_in(in_flight);
        assert!(client.target.lock().idle.is_empty());
        assert_eq!(client.get(5, 0, 0).unwrap(), None);
        client.retarget(None);
        assert!(client.ping().unwrap_err().contains("down"));
    }

    #[test]
    fn stale_pooled_stream_is_retried_once_on_a_fresh_connection() {
        // The worker hangs up on an idle stream (what a kill -9 looks like
        // from here): the next request must notice at once and reconnect.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = client_for(listener.local_addr().unwrap());
        let store = Arc::new(WorkerStore::default());
        // A connection that never comes fails the test instead of hanging it.
        listener.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let serve_one_request = |store: &Arc<WorkerStore>| {
            let mut stream = loop {
                match listener.accept() {
                    Ok((stream, _)) => break stream,
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("no connection: {e}"),
                }
            };
            stream.set_nonblocking(false).unwrap();
            let request = recv_message(&mut stream).unwrap();
            let (status, _) = store.handle(request);
            send_message(&mut stream, status, [0; 3], &[]).unwrap();
            // Dropping the stream closes it under the client's pool.
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                serve_one_request(&store);
                serve_one_request(&store);
            });
            client.put(9, 0, 0, frame_of("first")).unwrap();
            assert_eq!(client.target.lock().idle.len(), 1);
            let started = Instant::now();
            client.put(9, 0, 1, frame_of("second")).unwrap();
            assert!(started.elapsed() < client.io_timeout);
        });
        assert_eq!(store.blocks.lock().len(), 2);
    }

    #[test]
    fn garbled_frame_is_refused_at_ingest_and_connection_survives() {
        let client = local_worker();
        let good = wire::encode_frame(&vec![1.0f64, 2.0, 3.0]);
        let mut garbled = good.clone();
        *garbled.last_mut().unwrap() ^= 0x40;
        let mut padded = good.clone();
        padded.push(0);
        for bad in [garbled, padded, good[..good.len() - 1].to_vec(), Vec::new()] {
            let err = client.put(4, 0, 0, bad).unwrap_err();
            assert!(err.contains("put rejected"), "{err}");
        }
        assert_eq!(client.get(4, 0, 0).unwrap(), None);
        // Every refusal left its stream in step: still the first connection.
        client.put(4, 0, 0, good.clone()).unwrap();
        assert_eq!(client.get(4, 0, 0).unwrap(), Some(good));
        assert_eq!(client.target.lock().idle.len(), 1);
    }

    #[test]
    fn unknown_and_retired_opcodes_get_error_status_and_connection_survives() {
        let client = local_worker();
        let mut stream = client.connect().unwrap();
        // 0–3 are the retired layout's opcodes; a GET with a body is malformed.
        for (code, body) in [(0u8, &b""[..]), (3, b""), (0x7f, b""), (OP_GET, b"body")] {
            send_message(&mut stream, code, [1, 2, 3], body).unwrap();
            let reply = recv_message(&mut stream).unwrap();
            assert_eq!((reply.code, reply.body.len()), (ST_ERR, 0));
        }
        send_message(&mut stream, OP_PING, [0; 3], &[]).unwrap();
        assert_eq!(recv_message(&mut stream).unwrap().code, ST_OK);
    }

    #[test]
    fn unverifiable_head_disconnects_without_killing_listener() {
        let client = local_worker();
        let send_raw = |bytes: &[u8]| {
            let mut stream = client.connect().unwrap();
            stream.write_all(bytes).unwrap();
            // The worker hangs up rather than answer.
            let mut rest = Vec::new();
            assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0);
        };
        send_raw(b"not a frame at all, but long enough to fill a head");
        // A well-formed frame of the wrong length is not a head either (the
        // retired layout's one-byte PING).
        send_raw(&wire::frame_bytes(&[3]));
        // A head whose CRC does not cover what it says.
        let mut message = Vec::new();
        send_message(&mut message, OP_GET, [1, 2, 3], &[]).unwrap();
        message[wire::HEADER_LEN + 1] ^= 1;
        send_raw(&message);
        // Fresh connections still work.
        client.ping().unwrap();
    }

    #[test]
    fn head_announcing_more_than_follows_or_than_the_cap_is_an_error() {
        let mut message = Vec::new();
        send_message(&mut message, OP_PUT, [1, 2, 3], &frame_of("bucket")).unwrap();
        for cut in 0..message.len() {
            assert_eq!(
                recv_message(&mut &message[..cut]).err(),
                Some(WireError::Truncated),
                "cut at {cut}"
            );
        }
        // Forge a head (valid CRC) announcing a body over the cap: refused
        // before any allocation.
        let mut head = [0u8; HEAD_LEN];
        head[0] = OP_PUT;
        head[25..].copy_from_slice(&u32::MAX.to_le_bytes());
        let forged = wire::frame_bytes(&head);
        assert!(matches!(
            recv_message(&mut forged.as_slice()),
            Err(WireError::Oversized(_))
        ));
    }

    proptest! {
        /// The message parser on arbitrary bytes — raw, behind a valid frame
        /// header, and as a valid head followed by the wrong amount of body:
        /// an error or a message, never a panic.
        #[test]
        fn prop_recv_message_never_panics(
            data in proptest::collection::vec(0u8..=255, 0..128),
            announced in 0u32..4096,
        ) {
            let _ = recv_message(&mut data.as_slice());
            let _ = recv_message(&mut wire::frame_bytes(&data).as_slice());
            let mut head = [0u8; HEAD_LEN];
            for (h, d) in head.iter_mut().zip(&data) {
                *h = *d;
            }
            head[25..].copy_from_slice(&announced.to_le_bytes());
            let mut stream = wire::frame_bytes(&head);
            stream.extend_from_slice(&data);
            match recv_message(&mut stream.as_slice()) {
                Ok(message) => prop_assert_eq!(message.body.len(), announced as usize),
                Err(e) => prop_assert_eq!(e, WireError::Truncated),
            }
        }

        /// `WorkerStore::handle` on arbitrary requests: always a status, a
        /// body only for a GET hit, and only intact frames ever get stored.
        #[test]
        fn prop_store_handle_never_panics(
            requests in proptest::collection::vec(
                (0u8..10, 0u64..3, proptest::collection::vec(0u8..=255, 0..64), 0usize..4),
                1..32,
            ),
        ) {
            let store = WorkerStore::default();
            for (code, id, bytes, shape) in requests {
                let body = match shape {
                    0 => Vec::new(),
                    1 => bytes,
                    2 => wire::frame_bytes(&bytes),
                    _ => {
                        let mut framed = wire::frame_bytes(&bytes);
                        let at = id as usize % framed.len();
                        framed[at] ^= 0x10;
                        framed
                    }
                };
                let (status, frame) = store.handle(Message { code, ids: [id, 0, 0], body });
                prop_assert!(status <= ST_ERR);
                prop_assert_eq!(frame.is_some(), code == OP_GET && status == ST_OK);
            }
            for frame in store.blocks.lock().values() {
                prop_assert!(wire::unframe_bytes(frame).is_ok());
            }
        }
    }
}
