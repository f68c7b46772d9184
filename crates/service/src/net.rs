//! Line-oriented TCP protocol for [`QueryService`].
//!
//! Fields are tab-separated (queries contain spaces); one request and one
//! reply per line:
//!
//! ```text
//! RUN\t<tenant>\t<query>     ->  OK\t<reply json>   |  ERR\t<message>
//! CANCEL\t<tenant>\t<job>    ->  OK\tcancelled      |  ERR\t<message>
//! STATUS                     ->  OK\t<status json>
//! QUIT                       ->  (connection closes)
//! ```
//!
//! Each connection is served by its own thread; a `RUN` blocks its
//! connection until the job finishes, so cancellation is issued from a
//! *different* connection using the job ids visible in `STATUS`.
//!
//! Connections are defensive: request lines are length-capped (an oversized
//! line gets one `ERR` and the connection closes, since the stream is no
//! longer line-synchronized), stalled sockets are hung up after the
//! configured read timeout, and slow readers are abandoned after the write
//! timeout — a misbehaving client can never wedge its server thread, and a
//! mid-`RUN` disconnect only kills that connection's thread, never the
//! accept loop.

use crate::QueryService;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Socket-robustness knobs for [`serve_with`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// How long to wait for the next request line before hanging up the
    /// connection. `None` waits forever (the [`serve`] default).
    pub read_timeout: Option<Duration>,
    /// How long a reply write may block on a slow reader before the
    /// connection is abandoned.
    pub write_timeout: Option<Duration>,
    /// Longest accepted request line in bytes. Longer lines get one
    /// `ERR\tline too long` reply and the connection closes.
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            read_timeout: None,
            write_timeout: None,
            max_line_bytes: 1 << 20,
        }
    }
}

/// A running server; dropping it (or calling [`Server::shutdown`]) stops the
/// accept loop.
pub struct Server {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept loop. Connections
    /// already being served run their current request to completion.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` and serve `service` until shutdown, with the default (fully
/// patient) socket configuration.
pub fn serve(service: QueryService, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
    serve_with(service, addr, ServeConfig::default())
}

/// Bind `addr` and serve `service` until shutdown with explicit socket
/// timeouts and line caps.
pub fn serve_with(
    service: QueryService,
    addr: impl ToSocketAddrs,
    cfg: ServeConfig,
) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    // Nonblocking accept so the loop can observe the shutdown flag.
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let accept_thread = std::thread::spawn(move || {
        while !flag.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let svc = service.clone();
                    std::thread::spawn(move || {
                        let _ = handle_connection(svc, stream, cfg);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    });
    Ok(Server {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// One capped request-line read.
enum LineRead {
    Line(Vec<u8>),
    TooLong,
    Eof,
}

/// Read up to (and consuming) the next `\n`, refusing to buffer more than
/// `cap` bytes of line: the protocol is line-oriented, so an unbounded line
/// is either a broken client or an attack, not a query.
fn read_line_capped<R: BufRead>(r: &mut R, cap: usize) -> std::io::Result<LineRead> {
    let mut line = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(if line.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(line)
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(idx) => {
                let too_long = line.len() + idx > cap;
                if !too_long {
                    line.extend_from_slice(&buf[..idx]);
                }
                r.consume(idx + 1);
                return Ok(if too_long {
                    LineRead::TooLong
                } else {
                    LineRead::Line(line)
                });
            }
            None => {
                let n = buf.len();
                if line.len() + n > cap {
                    r.consume(n);
                    return Ok(LineRead::TooLong);
                }
                line.extend_from_slice(buf);
                r.consume(n);
            }
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn write_reply(writer: &mut TcpStream, reply: &str) -> std::io::Result<()> {
    writer.write_all(reply.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn handle_connection(
    service: QueryService,
    stream: TcpStream,
    cfg: ServeConfig,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(cfg.read_timeout)?;
    stream.set_write_timeout(cfg.write_timeout)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_capped(&mut reader, cfg.max_line_bytes) {
            Ok(LineRead::Line(bytes)) => bytes,
            Ok(LineRead::TooLong) => {
                // The stream is no longer line-synchronized: reply once,
                // then hang up rather than misparse the overflow as the
                // next request.
                let _ = write_reply(&mut writer, "ERR\tline too long");
                return Ok(());
            }
            Ok(LineRead::Eof) => return Ok(()),
            Err(e) if is_timeout(&e) => {
                // Stalled socket: tell the client (best-effort) and free
                // the thread.
                let _ = write_reply(&mut writer, "ERR\tread timed out");
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let reply = match answer(&service, line) {
            Dispatch::Reply(r) => r,
            Dispatch::Quit => break,
        };
        write_reply(&mut writer, &reply)?;
    }
    Ok(())
}

enum Dispatch {
    Reply(String),
    Quit,
}

/// What one request line, as read off the socket, gets.
fn answer(service: &QueryService, line: Vec<u8>) -> Dispatch {
    match String::from_utf8(line) {
        Ok(s) => dispatch(service, s.trim_end_matches('\r')),
        Err(_) => Dispatch::Reply("ERR\trequest is not utf-8".to_string()),
    }
}

/// Error messages must stay one line for the wire format.
fn one_line(msg: String) -> String {
    msg.replace(['\n', '\r'], " ")
}

fn dispatch(service: &QueryService, line: &str) -> Dispatch {
    let mut parts = line.splitn(3, '\t');
    let verb = parts.next().unwrap_or("").trim();
    match verb {
        "RUN" => {
            let (tenant, query) = (parts.next(), parts.next());
            match (tenant, query) {
                (Some(tenant), Some(query)) if !tenant.is_empty() => {
                    match service.run(tenant, query) {
                        Ok(reply) => Dispatch::Reply(format!("OK\t{}", reply.to_json())),
                        Err(e) => Dispatch::Reply(format!("ERR\t{}", one_line(e.to_string()))),
                    }
                }
                _ => Dispatch::Reply("ERR\tusage: RUN\\t<tenant>\\t<query>".to_string()),
            }
        }
        "CANCEL" => {
            let (tenant, job) = (parts.next(), parts.next());
            match (tenant, job.and_then(|j| j.trim().parse::<u64>().ok())) {
                (Some(tenant), Some(job)) if !tenant.is_empty() => {
                    match service.cancel(tenant, job) {
                        Ok(()) => Dispatch::Reply("OK\tcancelled".to_string()),
                        Err(e) => Dispatch::Reply(format!("ERR\t{}", one_line(e.to_string()))),
                    }
                }
                _ => Dispatch::Reply("ERR\tusage: CANCEL\\t<tenant>\\t<job>".to_string()),
            }
        }
        "STATUS" => Dispatch::Reply(format!("OK\t{}", service.status().to_json())),
        "QUIT" => Dispatch::Quit,
        "" => Dispatch::Reply("ERR\tempty request".to_string()),
        other => Dispatch::Reply(format!(
            "ERR\tunknown verb '{}'",
            one_line(other.to_string())
        )),
    }
}

/// Client-side socket timeouts for [`Client::connect_with`]. `None` fields
/// wait forever (the [`Client::connect`] default).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientTimeouts {
    pub connect: Option<Duration>,
    pub read: Option<Duration>,
    pub write: Option<Duration>,
}

/// A tiny blocking client for tests and the load generator.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_with(addr, ClientTimeouts::default())
    }

    /// Connect with explicit connect/read/write timeouts, so a dead or
    /// wedged server surfaces as a timed-out `Err` instead of a hang.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeouts: ClientTimeouts,
    ) -> std::io::Result<Client> {
        let mut last_err = None;
        for a in addr.to_socket_addrs()? {
            let connected = match timeouts.connect {
                Some(t) => TcpStream::connect_timeout(&a, t),
                None => TcpStream::connect(a),
            };
            match connected {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(timeouts.read)?;
                    stream.set_write_timeout(timeouts.write)?;
                    let writer = stream.try_clone()?;
                    return Ok(Client {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no addresses to connect to",
            )
        }))
    }

    /// Send one raw request line; return the raw reply line.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }

    /// `RUN` a query; `Ok(json)` on success, `Err(message)` on an `ERR` reply.
    pub fn run(&mut self, tenant: &str, query: &str) -> std::io::Result<Result<String, String>> {
        let reply = self.request(&format!("RUN\t{tenant}\t{query}"))?;
        Ok(split_reply(&reply))
    }

    pub fn cancel(&mut self, tenant: &str, job: u64) -> std::io::Result<Result<String, String>> {
        let reply = self.request(&format!("CANCEL\t{tenant}\t{job}"))?;
        Ok(split_reply(&reply))
    }

    pub fn status(&mut self) -> std::io::Result<Result<String, String>> {
        let reply = self.request("STATUS")?;
        Ok(split_reply(&reply))
    }
}

fn split_reply(reply: &str) -> Result<String, String> {
    match reply.split_once('\t') {
        Some(("OK", rest)) => Ok(rest.to_string()),
        Some(("ERR", rest)) => Err(rest.to_string()),
        _ => Err(format!("malformed reply: {reply}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tiled::LocalMatrix;

    fn served() -> (QueryService, Server) {
        let ctx = sparkline::Context::builder()
            .workers(4)
            .storage_memory(64 << 20)
            .chaos_off()
            .build();
        let svc = QueryService::builder().context(ctx).slots(2).build();
        let mut rng = StdRng::seed_from_u64(42);
        let a = LocalMatrix::random(8, 8, -1.0, 1.0, &mut rng);
        svc.register_shared_matrix("A", &a, 4).unwrap();
        svc.register_shared_int("n", 8).unwrap();
        let server = serve(svc.clone(), ("127.0.0.1", 0)).unwrap();
        (svc, server)
    }

    #[test]
    fn run_status_and_errors_over_tcp() {
        let (_svc, server) = served();
        let mut c = Client::connect(server.addr()).unwrap();
        let json = c
            .run("alice", "tiled(n,n)[ ((i,j), a*3.0) | ((i,j),a) <- A ]")
            .unwrap()
            .expect("query should succeed");
        // The `RUN` reply's bytes, as the hand-spliced writer emitted them;
        // only the two timings vary from run to run.
        let timeless: Vec<&str> = json
            .split(',')
            .map(|field| {
                if field.contains("_micros\":") {
                    field.trim_end_matches(|c: char| c.is_ascii_digit())
                } else {
                    field
                }
            })
            .collect();
        assert_eq!(
            timeless.join(","),
            "{\"job\":1,\"kind\":\"matrix\",\"rows\":8,\"cols\":8,\
             \"fingerprint\":673785138266017436,\"wall_micros\":,\"queue_micros\":,\
             \"cache_hit\":false}"
        );
        // Same query again: served from the plan cache.
        let json2 = c
            .run("alice", "tiled(n,n)[ ((i,j), a*3.0) | ((i,j),a) <- A ]")
            .unwrap()
            .unwrap();
        assert!(json2.contains("\"cache_hit\":true"), "{json2}");
        let status = c.status().unwrap().unwrap();
        assert!(status.contains("\"tenant\":\"alice\""), "{status}");
        // Errors come back as one-line ERR replies, connection stays usable.
        let err = c.run("alice", "tiled(n,n)[ oops").unwrap().unwrap_err();
        assert!(!err.is_empty());
        let err = c.request("FROB\tx").unwrap();
        assert!(err.starts_with("ERR\t"), "{err}");
        assert!(c.cancel("ghost", 1).unwrap().is_err());
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_get_isolated_tenants() {
        let (_svc, server) = served();
        let addr = server.addr();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let tenant = format!("t{i}");
                    c.run(&tenant, "+/[ a | ((i,j),a) <- A ]")
                        .unwrap()
                        .expect("shared data query should succeed")
                })
            })
            .collect();
        let replies: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All tenants read the same shared matrix: identical fingerprints.
        let fp = |s: &str| {
            s.split("\"fingerprint\":")
                .nth(1)
                .and_then(|r| r.split(',').next())
                .unwrap()
                .to_string()
        };
        assert_eq!(fp(&replies[0]), fp(&replies[1]));
        assert_eq!(fp(&replies[1]), fp(&replies[2]));
        server.shutdown();
    }

    fn service() -> QueryService {
        let ctx = sparkline::Context::builder()
            .workers(2)
            .storage_memory(64 << 20)
            .chaos_off()
            .build();
        let svc = QueryService::builder().context(ctx).slots(2).build();
        let mut rng = StdRng::seed_from_u64(42);
        let a = LocalMatrix::random(8, 8, -1.0, 1.0, &mut rng);
        svc.register_shared_matrix("A", &a, 4).unwrap();
        svc.register_shared_int("n", 8).unwrap();
        svc
    }

    fn served_with(cfg: ServeConfig) -> (QueryService, Server) {
        let svc = service();
        let server = serve_with(svc.clone(), ("127.0.0.1", 0), cfg).unwrap();
        (svc, server)
    }

    /// Every byte stream a client can send is answered line by line with one
    /// `OK\t…` or `ERR\t…` line, or ends the connection (`QUIT`, an
    /// over-long line, end of input), and nothing panics. Drives the
    /// connection's own read and decode path (`read_line_capped`, `answer`,
    /// `dispatch`) over random bytes, every truncation and single-byte flip
    /// of valid requests, embedded `\0`, `\r` and extra tabs, and lines of
    /// `cap - 1`, `cap` and `cap + 1` bytes, each through a 7-byte and a
    /// default-sized read buffer.
    #[test]
    fn request_bytes_never_panic_and_every_reply_is_one_protocol_line() {
        use rand::Rng;
        const CAP: usize = 64;
        let svc = service();
        let valid: [&[u8]; 4] = [
            b"RUN\talice\t+/[ a | ((i,j),a) <- A ]",
            b"CANCEL\talice\t1",
            b"STATUS",
            b"QUIT",
        ];
        let mut streams: Vec<Vec<u8>> = Vec::new();
        for v in valid {
            for cut in 0..=v.len() {
                streams.push(v[..cut].to_vec());
                streams.push([&v[..cut], b"\n"].concat());
            }
            for (i, &byte) in v.iter().enumerate() {
                for flip in [0, b'\t', b'\r', b'\n', b' ', byte ^ 0x20, byte ^ 0x80, 0xFF] {
                    let mut flipped = v.to_vec();
                    flipped[i] = flip;
                    flipped.push(b'\n');
                    streams.push(flipped);
                }
            }
        }
        for line in [
            "RUN\talice\t+/[ a | ((i,j),a) <- A ]\0",
            "RUN\t\0\t+/[ a | ((i,j),a) <- A ]",
            "RUN\tal\rice\t+/[ a | ((i,j),a) <- A ]",
            "RUN\talice\t\t+/[ a | ((i,j),a) <- A ]",
            "CANCEL\t\talice\t1",
            "CANCEL\talice\t1\t",
            "CANCEL\talice\t\r1",
            "STATUS\r\r",
            "\rSTATUS",
            "\t\tSTATUS",
            "ST\0ATUS",
            "\0",
        ] {
            streams.push(format!("{line}\n").into_bytes());
        }
        for len in [CAP - 1, CAP, CAP + 1] {
            let mut line = b"STATUS\t".to_vec();
            line.resize(len, b'x');
            let fits = matches!(
                read_line_capped(&mut [&line[..], b"\n"].concat().as_slice(), CAP).unwrap(),
                LineRead::Line(_)
            );
            assert_eq!(
                fits,
                len <= CAP,
                "a line of {len} bytes against a cap of {CAP}"
            );
            streams.push([&line[..], b"\nSTATUS\n"].concat());
            streams.push(line);
        }
        // Random bytes, half of them from the protocol's own alphabet.
        let alphabet = b"RUNCANCELSTATUSQUIT\t\r\n\0 1+/[]()|<-,aA";
        let mut rng = StdRng::seed_from_u64(2021);
        for _ in 0..300 {
            let len = rng.gen_range(0..2 * CAP);
            let bytes = (0..len).map(|_| {
                if rng.gen_bool(0.5) {
                    alphabet[rng.gen_range(0..alphabet.len())]
                } else {
                    rng.gen_range(0..=255u8)
                }
            });
            streams.push(bytes.collect());
        }
        for stream in &streams {
            for capacity in [7, 8 << 10] {
                let mut reader = BufReader::with_capacity(capacity, stream.as_slice());
                while let LineRead::Line(line) = read_line_capped(&mut reader, CAP).unwrap() {
                    assert!(line.len() <= CAP, "{stream:?}: a line past the cap");
                    match answer(&svc, line) {
                        Dispatch::Reply(reply) => assert!(
                            (reply.starts_with("OK\t") || reply.starts_with("ERR\t"))
                                && !reply.contains(['\n', '\r']),
                            "{stream:?} got {reply:?}"
                        ),
                        Dispatch::Quit => break,
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_command_lines_get_err_replies_without_killing_the_connection() {
        let (_svc, server) = served();
        let mut c = Client::connect(server.addr()).unwrap();
        for bad in [
            "RUN",                  // missing tenant and query
            "RUN\t\tq",             // empty tenant
            "RUN\talice",           // missing query
            "CANCEL\talice\tnope",  // non-numeric job id
            "CANCEL",               // nothing at all
            "\t\t\t",               // no verb
            "",                     // empty line
            "STATUS\textra\tstuff", // trailing fields on a 0-arg verb are ignored or refused, never a crash
        ] {
            let reply = c.request(bad).unwrap();
            assert!(
                reply.starts_with("ERR\t") || reply.starts_with("OK\t"),
                "line {bad:?} must get a protocol reply, got {reply:?}"
            );
        }
        // The connection is still line-synchronized and usable.
        assert!(c.status().unwrap().is_ok());
        server.shutdown();
    }

    #[test]
    fn non_utf8_request_gets_an_err_reply() {
        let (_svc, server) = served();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"RUN\t\xFF\xFE\tq\n").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert!(reply.starts_with("ERR\t"), "{reply:?}");
        server.shutdown();
    }

    #[test]
    fn stalled_socket_is_hung_up_after_the_read_timeout() {
        let (_svc, server) = served_with(ServeConfig {
            read_timeout: Some(Duration::from_millis(80)),
            write_timeout: Some(Duration::from_secs(5)),
            max_line_bytes: 1 << 20,
        });
        // Connect and send nothing: the server must hang up, not leak a
        // blocked thread.
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ERR\tread timed out");
        reply.clear();
        let n = reader.read_line(&mut reply).unwrap();
        assert_eq!(n, 0, "connection must be closed after the timeout");
        // The listener is unaffected: a live client still gets served.
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.status().unwrap().is_ok());
        server.shutdown();
    }

    #[test]
    fn oversized_request_line_is_rejected_and_the_connection_closed() {
        let (_svc, server) = served_with(ServeConfig {
            max_line_bytes: 1024,
            ..ServeConfig::default()
        });
        // Closing with the overflow still unread may surface as a clean EOF
        // or a connection reset; both mean "hung up".
        let hung_up = |e: &std::io::Error| {
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
            )
        };
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let huge = vec![b'x'; 64 << 10];
        // The server may answer and hang up before the whole line is sent:
        // then a write fails, and the reply is still there to read.
        let sent = stream
            .write_all(b"RUN\talice\t")
            .and_then(|()| stream.write_all(&huge))
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush());
        if let Err(e) = sent {
            assert!(hung_up(&e), "unexpected error: {e:?}");
        }
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ERR\tline too long");
        reply.clear();
        match reader.read_line(&mut reply) {
            Ok(0) => {}
            Ok(n) => panic!("connection must be closed, read {n} bytes: {reply:?}"),
            Err(e) => assert!(hung_up(&e), "unexpected error: {e:?}"),
        }
        // Fresh connections keep working.
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.status().unwrap().is_ok());
        server.shutdown();
    }

    #[test]
    fn a_run_nested_ten_thousand_deep_gets_an_err_and_the_next_request_an_answer() {
        let (_svc, server) = served();
        let mut c = Client::connect(server.addr()).unwrap();
        let deep = format!("{}a{}", "(".repeat(10_000), ")".repeat(10_000));
        let query = format!("tiled(n,n)[ ((i,j), {deep}) | ((i,j),a) <- A ]");
        let err = c.run("alice", &query).unwrap().unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        let json = c.run("alice", "+/[ a | ((i,j),a) <- A ]").unwrap();
        assert!(json.is_ok(), "{json:?}");
        server.shutdown();
    }

    #[test]
    fn disconnect_mid_run_does_not_poison_the_listener() {
        let (_svc, server) = served();
        // Fire a RUN and slam the connection shut without reading the reply:
        // the serving thread's write fails and the thread exits; nothing
        // else must notice.
        for _ in 0..3 {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .write_all(b"RUN\tghost\t+/[ a | ((i,j),a) <- A ]\n")
                .unwrap();
            stream.flush().unwrap();
            drop(stream);
        }
        let mut c = Client::connect(server.addr()).unwrap();
        let json = c
            .run("alice", "+/[ a | ((i,j),a) <- A ]")
            .unwrap()
            .expect("service must still run queries after abandoned RUNs");
        assert!(!json.is_empty());
        server.shutdown();
    }

    #[test]
    fn client_read_timeout_surfaces_a_wedged_server_as_an_error() {
        // A listener that accepts and never replies.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut c = Client::connect_with(
            addr,
            ClientTimeouts {
                connect: Some(Duration::from_secs(2)),
                read: Some(Duration::from_millis(80)),
                write: Some(Duration::from_secs(2)),
            },
        )
        .unwrap();
        let err = c.request("STATUS").expect_err("read must time out");
        assert!(is_timeout(&err), "unexpected error kind: {err:?}");
        drop(hold);
    }
}
