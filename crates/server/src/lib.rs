//! # sa-server — a concurrent online-aggregation query service
//!
//! A std-only TCP front-end over [`sa_online::Engine`]: clients speak the
//! one-line-per-message protocol in [`protocol`], each connection gets its
//! own engine [`sa_online::Session`] (its options, seeded per session), a fixed
//! thread pool bounds the connections served at once, and the engine's
//! admission control ([`sa_online::EngineBuilder::max_concurrent`]) sheds
//! query load past the configured bound with `ERR engine busy …` instead
//! of queueing.
//!
//! The serving win is **shared scans**: the engine is built with
//! `shared_scans(true)`, so N concurrent sequential queries over the same
//! table attach to one circular columnar scan and cost ~1 table scan
//! between them — the mid-scan attach is an origin shift the estimator is
//! invariant to (see `docs/estimation-notes.md`).
//!
//! ```no_run
//! use sa_server::{Server, ServerConfig};
//! use sa_storage::Catalog;
//!
//! let catalog = Catalog::new(); // register tables first
//! let server = Server::bind(catalog, &ServerConfig::default()).unwrap();
//! eprintln!("listening on {}", server.local_addr());
//! server.join(); // serve until shutdown() is called from another thread
//! ```

#![warn(missing_docs)]

pub mod protocol;

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use sa_obs::Counter;
use sa_online::{Engine, QueryOptions, Session};
use sa_storage::Catalog;

use protocol::{err_line, final_lines, parse, snap_line, Request};

/// Server-side counters, registered on the engine's metrics registry so
/// they ride along in `STATS` dumps and [`Engine::metrics`] snapshots.
#[derive(Clone, Default)]
struct ServerObs {
    connections: Counter,
    bad_requests: Counter,
    disconnects: Counter,
    read_timeouts: Counter,
}

impl ServerObs {
    fn new(engine: &Engine) -> ServerObs {
        let registry = engine.registry();
        ServerObs {
            connections: registry.counter("sa_server_connections_total"),
            bad_requests: registry.counter("sa_server_bad_requests_total"),
            disconnects: registry.counter("sa_server_disconnects_total"),
            read_timeouts: registry.counter("sa_server_read_timeouts_total"),
        }
    }
}

/// Shared shutdown state: `stop` stops the accept loop and tells idle
/// connections to close after their current exchange; `hard` (set when the
/// drain deadline passes) additionally cancels in-flight queries, which
/// still answer a well-formed `FINAL reason=cancelled` before the
/// connection closes.
struct Ctl {
    stop: AtomicBool,
    hard: AtomicBool,
    addr: OnceLock<SocketAddr>,
}

impl Ctl {
    fn new() -> Ctl {
        Ctl {
            stop: AtomicBool::new(false),
            hard: AtomicBool::new(false),
            addr: OnceLock::new(),
        }
    }

    /// Flip to draining and wake the blocking accept loop (idempotent).
    fn begin_shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            if let Some(addr) = self.addr.get() {
                // Wake the blocking accept with a throwaway connection.
                let _ = TcpStream::connect(addr);
            }
        }
    }

    fn draining(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A cloneable remote control for a running [`Server`]: lets another
/// thread (a SIGTERM monitor, a test) start the graceful drain without
/// owning the server handle.
#[derive(Clone)]
pub struct ServerController {
    ctl: Arc<Ctl>,
}

impl ServerController {
    /// Begin the graceful drain: stop accepting, let in-flight queries
    /// finish (until the drain deadline), then close every connection.
    /// [`Server::join`] returns once the drain completes.
    pub fn begin_shutdown(&self) {
        self.ctl.begin_shutdown();
    }

    /// Whether a drain has started.
    pub fn is_draining(&self) -> bool {
        self.ctl.draining()
    }
}

/// Serving policy for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port — read it back
    /// with [`Server::local_addr`]).
    pub addr: String,
    /// Connection-handling threads: at most this many clients are served
    /// simultaneously; further connections wait in the accept queue.
    pub workers: usize,
    /// Engine admission bound: queries past this many in flight are
    /// rejected with `ERR engine busy …`.
    pub max_concurrent: usize,
    /// Default [`QueryOptions`] (seed, chunk size, …) each connection's
    /// session starts from; its `SEED`/`SHUFFLE`/`DEADLINE` requests set it.
    pub defaults: QueryOptions,
    /// Emit every k-th `SNAP` progress line (the `FINAL` line is always
    /// sent). 0 silences progress entirely.
    pub snapshot_every: u64,
    /// Close a connection that sends no request for this long (the socket
    /// is polled every ~250 ms, so drains are noticed promptly even by
    /// idle clients).
    pub read_timeout: Duration,
    /// How long a graceful drain waits for in-flight queries before
    /// cancelling them (they still answer `FINAL reason=cancelled`).
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            max_concurrent: 64,
            defaults: QueryOptions::default(),
            snapshot_every: 8,
            read_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// A running query service: an accept loop plus a fixed worker pool, all
/// plain std threads. Dropping the handle does **not** stop the server —
/// call [`Server::shutdown`] (or let the process exit).
pub struct Server {
    engine: Engine,
    local_addr: SocketAddr,
    ctl: Arc<Ctl>,
    drain_deadline: Duration,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr`, build the engine (shared scans and metrics on,
    /// admission bound from the config) over `catalog`, and start serving.
    pub fn bind(catalog: Catalog, config: &ServerConfig) -> std::io::Result<Server> {
        let engine = Engine::builder(catalog)
            .defaults(config.defaults.clone())
            .max_concurrent(config.max_concurrent)
            .shared_scans(true)
            .metrics(true)
            .build();
        Server::serve(engine, config)
    }

    /// Like [`Server::bind`] but over a fully configured engine (tests use
    /// this to control shared-scan windows or disable sharing).
    pub fn serve(engine: Engine, config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let ctl = Arc::new(Ctl::new());
        let _ = ctl.addr.set(local_addr);
        let snapshot_every = config.snapshot_every;
        let read_timeout = config.read_timeout;

        // Fixed worker pool: the accept loop feeds connections through a
        // rendezvous channel, so at most `workers` clients are in service
        // and the rest queue in the listener backlog.
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(0);
        let rx = Arc::new(Mutex::new(rx));
        let obs = ServerObs::new(&engine);
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let engine = engine.clone();
                let obs = obs.clone();
                let ctl = Arc::clone(&ctl);
                thread::Builder::new()
                    .name(format!("sa-serve-{i}"))
                    .spawn(move || loop {
                        // Poison recovery: a sibling worker that panicked
                        // while holding the receiver must not wedge the
                        // whole pool — the channel itself is still sound.
                        let conn = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
                            Ok(conn) => conn,
                            Err(_) => return, // accept loop gone
                        };
                        obs.connections.inc();
                        let session = engine.session();
                        if handle_connection(
                            conn,
                            session,
                            snapshot_every,
                            read_timeout,
                            &obs,
                            &ctl,
                        )
                        .is_err()
                        {
                            // The client vanished mid-exchange (or the socket
                            // died); the query path has already cancelled and
                            // reaped any in-flight work.
                            obs.disconnects.inc();
                        }
                    })
                    .expect("spawn server worker")
            })
            .collect();

        let accept = {
            let ctl = Arc::clone(&ctl);
            thread::Builder::new()
                .name("sa-accept".into())
                .spawn(move || accept_loop(listener, &ctl, tx))
                .expect("spawn accept loop")
        };

        Ok(Server {
            engine,
            local_addr,
            ctl,
            drain_deadline: config.drain_deadline,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine behind the service (tests inspect scan stats here).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A remote control that can start the graceful drain from another
    /// thread (e.g. a SIGTERM monitor) or a connection's `SHUTDOWN` verb.
    pub fn controller(&self) -> ServerController {
        ServerController {
            ctl: Arc::clone(&self.ctl),
        }
    }

    /// Begin the graceful drain and block until every thread has joined.
    /// In-flight queries get [`ServerConfig::drain_deadline`] to finish
    /// (and answer `FINAL`); past it they are cancelled — they still
    /// answer `FINAL reason=cancelled` before their connections close.
    pub fn shutdown(mut self) {
        self.ctl.begin_shutdown();
        self.drain();
    }

    /// Block until the server drains (after [`ServerController::begin_shutdown`],
    /// a client `SHUTDOWN`, or a signal monitor flips the drain on — use
    /// from `main` to serve until told to stop).
    pub fn join(mut self) {
        self.drain();
    }

    /// Join the accept loop, give in-flight work the drain deadline, then
    /// hard-cancel whatever is left and join the workers.
    fn drain(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Accept thread gone ⇒ the channel sender is dropped; each worker
        // exits once its current connection closes. Idle connections poll
        // the drain flag every ~250 ms; busy ones finish their query.
        let deadline = Instant::now() + self.drain_deadline;
        while Instant::now() < deadline && self.workers.iter().any(|h| !h.is_finished()) {
            thread::sleep(Duration::from_millis(10));
        }
        // Past the drain deadline: cancel in-flight queries. They still
        // produce a FINAL line (a cancelled run is a valid prefix
        // estimate) and then their connections close.
        self.ctl.hard.store(true, Ordering::SeqCst);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// How often an idle connection re-checks the drain flag. The socket read
/// timeout is the min of this and the configured read timeout, so drains
/// are noticed within a poll tick even by clients that send nothing.
const IDLE_POLL: Duration = Duration::from_millis(250);

/// Hand accepted connections to the worker pool until the drain starts
/// (returning drops `tx`, so the workers finish their clients and exit).
fn accept_loop(listener: TcpListener, ctl: &Ctl, tx: mpsc::SyncSender<TcpStream>) {
    for conn in listener.incoming() {
        if ctl.draining() {
            return;
        }
        let Ok(conn) = conn else { continue };
        // A reply that streams progress flushes each `SNAP` line as its own
        // small segment; under Nagle the second one waits for the client's
        // delayed ACK (≥ 40 ms per query). A socket that refuses the option
        // is broken — drop it.
        if conn.set_nodelay(true).is_err() {
            continue;
        }
        if tx.send(conn).is_err() {
            return;
        }
    }
}

/// Serve one client connection until `QUIT`, EOF, a read timeout, a
/// server drain, or an I/O error.
fn handle_connection(
    conn: TcpStream,
    mut session: Session,
    snapshot_every: u64,
    read_timeout: Duration,
    obs: &ServerObs,
    ctl: &Ctl,
) -> std::io::Result<()> {
    if sa_fault::hit(sa_fault::sites::SERVER_CONN_DROP) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "injected fault: connection dropped",
        ));
    }
    // A short socket timeout turns the blocking read into a poll loop so
    // idle connections notice drains and enforce the read timeout.
    conn.set_read_timeout(Some(IDLE_POLL.min(read_timeout)))?;
    conn.set_write_timeout(Some(read_timeout))?;
    let probe = conn.try_clone()?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut out = BufWriter::new(conn);
    let mut line = String::new();
    let mut idle_since = Instant::now();
    loop {
        line.clear();
        // Poll for a full request line; `read_line` buffers partial reads
        // across timeouts, so a slow sender is reassembled correctly.
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(()), // EOF: client closed cleanly
                Ok(_) if line.ends_with('\n') => break,
                Ok(_) => continue, // partial line, keep reading
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if ctl.draining() && line.is_empty() {
                        return Ok(()); // server drain: close the idle connection
                    }
                    if idle_since.elapsed() >= read_timeout {
                        obs.read_timeouts.inc();
                        return Ok(()); // idle too long: reclaim the worker
                    }
                }
                Err(e) => return Err(e),
            }
        }
        idle_since = Instant::now();
        match parse(&line) {
            Ok(Request::Ping) => writeln!(out, "OK")?,
            Ok(Request::Set(name, value)) => match session.options_mut().set(&name, &value) {
                Ok(()) => writeln!(out, "OK")?,
                Err(e) => {
                    obs.bad_requests.inc();
                    writeln!(out, "{}", err_line(&e.to_string()))?;
                }
            },
            Ok(Request::Shutdown) => {
                writeln!(out, "OK")?;
                out.flush()?;
                ctl.begin_shutdown();
                return Ok(());
            }
            Ok(Request::Quit) => return Ok(()),
            Ok(Request::Stats) => {
                out.write_all(session.engine().render_prometheus().as_bytes())?;
                writeln!(out, "DONE")?;
            }
            Ok(Request::Query(sql)) => {
                run_query(&mut out, &probe, &session, &sql, snapshot_every, ctl)?;
                writeln!(out, "DONE")?;
            }
            Err(msg) => {
                obs.bad_requests.inc();
                writeln!(out, "{}", err_line(&msg))?;
            }
        }
        out.flush()?;
        if ctl.draining() {
            return Ok(()); // drain: close after completing the exchange
        }
    }
}

/// Has the client hung up? A non-blocking `peek` distinguishes "no data
/// yet" (`WouldBlock`) from an orderly EOF or a reset — this is what lets
/// a throttled query notice a disconnect even when it never writes.
fn client_gone(conn: &TcpStream) -> bool {
    let mut buf = [0u8; 1];
    if conn.set_nonblocking(true).is_err() {
        return true;
    }
    let gone = match conn.peek(&mut buf) {
        Ok(0) => true,  // orderly shutdown
        Ok(_) => false, // a pipelined request is waiting — still alive
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true, // reset / aborted
    };
    let _ = conn.set_nonblocking(false);
    gone
}

/// Run one query, streaming throttled `SNAP` lines and the `FINAL` readout.
///
/// Runs through an online [`sa_online::QueryHandle`] so a client that
/// disconnects mid-stream cancels the query instead of letting it run to
/// completion holding an admission slot and (under shared scans) a hub
/// cursor. The first failed `SNAP` write cancels; on throttled ticks that
/// write nothing, the socket is probed directly (`client_gone`) so a
/// client that vanishes between `QUERY` and the first emitted `SNAP` —
/// or under `snapshot_every = 0`, which never writes — still cancels
/// instead of running to completion holding its slot. Either way,
/// `wait()` then reaps the query thread — dropping its admission guard
/// and detaching its cursor — before the I/O error propagates.
fn run_query(
    out: &mut impl Write,
    probe: &TcpStream,
    session: &Session,
    sql: &str,
    snapshot_every: u64,
    ctl: &Ctl,
) -> std::io::Result<()> {
    let handle = match session.query(sql).online() {
        Ok(handle) => handle,
        Err(e) => {
            writeln!(out, "{}", err_line(&e.to_string()))?;
            return Ok(());
        }
    };
    let mut io_err = None;
    let mut hard_cancelled = false;
    for snap in handle.snapshots() {
        if ctl.hard.load(Ordering::SeqCst) && !hard_cancelled {
            // Drain deadline passed: stop the query but keep draining its
            // snapshot channel so `wait()` returns a FINAL to report.
            handle.cancel();
            hard_cancelled = true;
        }
        if snapshot_every == 0 || snap.chunk() % snapshot_every != 0 {
            // Throttled tick: nothing is written, so a vanished client
            // would go unnoticed — probe the socket instead.
            if client_gone(probe) {
                handle.cancel();
                io_err = Some(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "client disconnected mid-query",
                ));
                break;
            }
            continue;
        }
        if sa_fault::hit(sa_fault::sites::SERVER_CONN_SLOW) {
            thread::sleep(Duration::from_millis(1));
        }
        if let Err(e) = writeln!(out, "{}", snap_line(&snap)).and_then(|_| out.flush()) {
            handle.cancel();
            io_err = Some(e);
            break;
        }
    }
    // Always reap the query thread, even on the disconnect path: this is
    // what releases the admission slot and the shared-scan cursor.
    let result = handle.wait();
    if let Some(e) = io_err {
        return Err(e);
    }
    match result {
        Ok(r) => {
            for line in final_lines(&r) {
                writeln!(out, "{line}")?;
            }
        }
        Err(e) => writeln!(out, "{}", err_line(&e.to_string()))?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn catalog(rows: i64) -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..rows {
            b.push_row(&[Value::Int(i % 10), Value::Float(1.0 + (i % 7) as f64)])
                .unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        c
    }

    fn start(rows: i64) -> Server {
        Server::bind(
            catalog(rows),
            &ServerConfig {
                snapshot_every: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback")
    }

    /// Send `requests` and `QUIT`, and read every line until the server
    /// closes. A server that closes with requests still unread (`SHUTDOWN`
    /// drains it) may reset the connection: the lines before the reset are
    /// the reply.
    fn exchange(addr: SocketAddr, requests: &[&str]) -> Vec<String> {
        let conn = TcpStream::connect(addr).unwrap();
        let mut tx = conn.try_clone().unwrap();
        for r in requests {
            writeln!(tx, "{r}").unwrap();
        }
        writeln!(tx, "QUIT").unwrap();
        tx.flush().unwrap();
        BufReader::new(conn).lines().map_while(Result::ok).collect()
    }

    #[test]
    fn accepted_sockets_have_nagle_off() {
        // The socket a worker serves is the one the accept loop hands over:
        // read the option back from exactly that socket.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ctl = Arc::new(Ctl::new());
        let _ = ctl.addr.set(addr);
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(0);
        let accept = {
            let ctl = Arc::clone(&ctl);
            thread::spawn(move || accept_loop(listener, &ctl, tx))
        };
        let client = TcpStream::connect(addr).unwrap();
        assert!(!client.nodelay().unwrap(), "the OS default is Nagle on");
        let accepted = rx.recv().expect("the accept loop hands the socket over");
        assert!(accepted.nodelay().unwrap());
        drop(rx);
        ctl.begin_shutdown();
        accept.join().unwrap();
    }

    #[test]
    fn ping_seed_and_bad_requests() {
        let server = start(100);
        let lines = exchange(
            server.local_addr(),
            &[
                "PING",
                "SEED 9",
                "EXPLAIN",
                "SHUFFLE on",
                "DEADLINE off",
                "SEED x",
                "JOBS 2",
                "CHUNK 5",
                "SHUFFLE maybe",
                "DEADLINE soon",
            ],
        );
        assert_eq!(lines[0], "OK");
        assert_eq!(lines[1], "OK");
        assert!(lines[2].starts_with("ERR unknown request"), "{}", lines[2]);
        assert_eq!(lines[3..5], ["OK", "OK"]);
        assert!(
            lines[5].starts_with("ERR ") && lines[5].contains("seed"),
            "{}",
            lines[5]
        );
        // The table's other rows are the server's to choose, not a client's.
        for line in &lines[6..8] {
            assert!(line.starts_with("ERR unknown request"), "{line}");
        }
        assert!(lines[8].starts_with("ERR ") && lines[8].contains("shuffle"));
        assert!(lines[9].starts_with("ERR ") && lines[9].contains("deadline"));
        let metrics = server.engine().metrics();
        assert_eq!(metrics.counter("sa_server_bad_requests_total"), Some(6));
        assert_eq!(metrics.counter("sa_server_connections_total"), Some(1));
        server.shutdown();
    }

    #[test]
    fn malformed_query_lines_hold_no_admission_slot() {
        let server = start(100);
        let lines = exchange(server.local_addr(), &["QUERY", "QUERY   ", "PING"]);
        assert!(lines[0].starts_with("ERR QUERY needs SQL"), "{}", lines[0]);
        assert!(lines[1].starts_with("ERR QUERY needs SQL"), "{}", lines[1]);
        assert_eq!(lines[2], "OK");
        assert_eq!(server.engine().active_queries(), 0);
        let metrics = server.engine().metrics();
        assert_eq!(metrics.counter("sa_server_bad_requests_total"), Some(2));
        assert_eq!(metrics.counter("sa_queries_started_total"), Some(0));
        server.shutdown();
    }

    #[test]
    fn stats_reports_prometheus_metrics() {
        let server = start(4000);
        let lines = exchange(
            server.local_addr(),
            &[
                "QUERY SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT)",
                "STATS",
            ],
        );
        assert_eq!(lines.last().unwrap(), "DONE");
        let dump = lines.join("\n");
        assert!(
            dump.contains("# TYPE sa_queries_started_total counter"),
            "{dump}"
        );
        assert!(dump.contains("sa_queries_started_total 1"), "{dump}");
        assert!(
            dump.contains("sa_queries_finished_total{reason=\"exhausted\"} 1"),
            "{dump}"
        );
        assert!(
            dump.contains("sa_query_duration_us{quantile=\"0.99\"}"),
            "{dump}"
        );
        assert!(
            dump.contains("sa_shared_scan_rows_gathered_total"),
            "{dump}"
        );
        assert!(dump.contains("sa_server_connections_total 1"), "{dump}");
        server.shutdown();
    }

    #[test]
    fn aborted_clients_release_slots_and_cursors() {
        use std::time::Duration;

        let server = start(400_000);
        let addr = server.local_addr();
        // Hammer: start an exhaustive query, read a couple of progress
        // lines to make sure it is in flight, then slam the socket shut.
        for _ in 0..6 {
            let conn = TcpStream::connect(addr).unwrap();
            let mut tx = conn.try_clone().unwrap();
            writeln!(
                tx,
                "QUERY SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT)"
            )
            .unwrap();
            tx.flush().unwrap();
            let mut reader = BufReader::new(conn);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("SNAP "), "{line}");
            // Dropping both halves aborts the connection mid-stream; the
            // server's next SNAP write fails and cancels the query.
        }
        // The disconnect path must give back both the admission slot and
        // the shared-scan cursor — poll briefly while the server reaps.
        let mut tries = 0;
        loop {
            let attached = server.engine().scan_stats("t").map_or(0, |s| s.attached);
            if server.engine().active_queries() == 0 && attached == 0 {
                break;
            }
            tries += 1;
            assert!(tries < 500, "query slots or cursors never released");
            thread::sleep(Duration::from_millis(10));
        }
        let metrics = server.engine().metrics();
        assert_eq!(metrics.counter("sa_queries_started_total"), Some(6));
        let finished: u64 = [
            "ci-converged",
            "row-budget",
            "time-budget",
            "exhausted",
            "cancelled",
            "deadline",
            "degraded",
        ]
        .iter()
        .filter_map(|r| metrics.counter(&format!("sa_queries_finished_total{{reason=\"{r}\"}}")))
        .sum();
        assert_eq!(finished, 6, "every aborted query must still finish");
        assert!(
            metrics.counter("sa_server_disconnects_total").unwrap_or(0) >= 1,
            "mid-stream aborts should register as disconnects"
        );
        server.shutdown();
    }

    #[test]
    fn deadline_verb_cuts_a_query_short_with_a_valid_final() {
        let server = start(800_000);
        let lines = exchange(
            server.local_addr(),
            &[
                "DEADLINE 1",
                "QUERY SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT)",
            ],
        );
        assert_eq!(lines[0], "OK");
        let final_line = lines.iter().find(|l| l.starts_with("FINAL ")).unwrap();
        assert!(final_line.contains("reason=deadline"), "{final_line}");
        assert!(final_line.contains("estimate="), "{final_line}");
        assert_eq!(lines.last().unwrap(), "DONE");
        // Clearing the deadline restores run-to-exhaustion behaviour.
        let lines = exchange(
            server.local_addr(),
            &[
                "DEADLINE 1",
                "DEADLINE off",
                "QUERY SELECT SUM(v) AS s FROM t TABLESAMPLE (1 PERCENT)",
            ],
        );
        let final_line = lines.iter().find(|l| l.starts_with("FINAL ")).unwrap();
        assert!(final_line.contains("reason=exhausted"), "{final_line}");
        server.shutdown();
    }

    #[test]
    fn disconnect_before_first_snap_releases_the_slot() {
        use std::time::Duration;

        // snapshot_every = 0 never writes SNAP lines, so only the socket
        // probe can notice the client is gone: this is the regression
        // test for the throttled-tick slot leak. The query crosses `t` with
        // a 2 000-row `u`: ≈ 8·10⁸ joined rows, minutes of work in any
        // build, so it cannot run out before the client vanishes.
        let mut c = catalog(800_000);
        let schema = Schema::new(vec![Field::new("w", DataType::Float)]).unwrap();
        let mut b = TableBuilder::new("u", schema);
        for i in 0..2_000 {
            b.push_row(&[Value::Float(i as f64)]).unwrap();
        }
        c.register(b.finish().unwrap()).unwrap();
        let server = Server::bind(
            c,
            &ServerConfig {
                snapshot_every: 0,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        {
            let conn = TcpStream::connect(server.local_addr()).unwrap();
            let mut tx = conn.try_clone().unwrap();
            writeln!(
                tx,
                "QUERY SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT), u"
            )
            .unwrap();
            tx.flush().unwrap();
            // Give the server a moment to start the query, then vanish
            // without ever reading a byte.
            thread::sleep(Duration::from_millis(30));
        }
        let mut tries = 0;
        while server.engine().active_queries() != 0 {
            tries += 1;
            assert!(tries < 500, "silent query leaked its admission slot");
            thread::sleep(Duration::from_millis(10));
        }
        let metrics = server.engine().metrics();
        assert_eq!(metrics.counter("sa_queries_started_total"), Some(1));
        assert_eq!(
            metrics.counter("sa_queries_finished_total{reason=\"cancelled\"}"),
            Some(1),
            "the probed disconnect must cancel, not run to completion"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_verb_drains_the_whole_server() {
        let server = start(4000);
        let addr = server.local_addr();
        let ctl = server.controller();
        assert!(!ctl.is_draining());
        let lines = exchange(addr, &["SHUTDOWN"]);
        assert_eq!(lines[0], "OK");
        assert!(ctl.is_draining());
        // join() must return now that the drain is underway.
        server.join();
        // New connections are either refused outright or (if the kernel
        // backlog takes them) never served: a PING gets no reply.
        let unserved = match TcpStream::connect(addr) {
            Err(_) => true,
            Ok(c) => {
                let mut tx = c.try_clone().unwrap();
                let _ = writeln!(tx, "PING");
                let _ = tx.flush();
                let _ = c.set_read_timeout(Some(std::time::Duration::from_millis(500)));
                let mut line = String::new();
                !matches!(BufReader::new(c).read_line(&mut line), Ok(n) if n > 0)
            }
        };
        assert!(unserved, "a drained server must not serve new connections");
    }

    #[test]
    fn mid_query_drain_still_answers_final_then_done() {
        use std::time::Duration;

        // Short drain deadline: the in-flight query is hard-cancelled and
        // must still produce a FINAL line and DONE before the close.
        let server = Server::bind(
            catalog(800_000),
            &ServerConfig {
                snapshot_every: 1,
                drain_deadline: Duration::from_millis(50),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let conn = TcpStream::connect(addr).unwrap();
        let mut tx = conn.try_clone().unwrap();
        writeln!(
            tx,
            "QUERY SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT)"
        )
        .unwrap();
        tx.flush().unwrap();
        let mut reader = BufReader::new(conn);
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert!(first.starts_with("SNAP "), "{first}");
        let ctl = server.controller();
        let drainer = thread::spawn(move || server.shutdown());
        let lines: Vec<String> = reader.lines().map_while(|l| l.ok()).collect();
        drainer.join().unwrap();
        assert!(ctl.is_draining());
        let final_line = lines.iter().find(|l| l.starts_with("FINAL ")).unwrap();
        assert!(
            final_line.contains("reason=cancelled")
                || final_line.contains("reason=exhausted")
                || final_line.contains("reason=ci-converged"),
            "{final_line}"
        );
        assert!(lines.iter().any(|l| l == "DONE"), "{lines:?}");
    }

    #[test]
    fn scalar_query_streams_snaps_then_final_then_done() {
        let server = start(4000);
        let lines = exchange(
            server.local_addr(),
            &[
                "SEED 7",
                "QUERY SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT)",
            ],
        );
        assert_eq!(lines[0], "OK");
        assert!(lines[1].starts_with("SNAP rows="), "{}", lines[1]);
        let final_line = lines.iter().find(|l| l.starts_with("FINAL ")).unwrap();
        assert!(final_line.contains("reason=exhausted"), "{final_line}");
        assert_eq!(lines.last().unwrap(), "DONE");
        server.shutdown();
    }

    #[test]
    fn grouped_query_reports_groups() {
        let server = start(4000);
        let lines = exchange(
            server.local_addr(),
            &["QUERY SELECT k, SUM(v) AS s FROM t TABLESAMPLE (60 PERCENT) GROUP BY k"],
        );
        assert_eq!(
            lines.iter().filter(|l| l.starts_with("GROUP key=")).count(),
            10
        );
        let final_line = lines.iter().find(|l| l.starts_with("FINAL ")).unwrap();
        assert!(final_line.contains("groups=10"), "{final_line}");
        assert_eq!(lines.last().unwrap(), "DONE");
        server.shutdown();
    }

    #[test]
    fn planning_errors_come_back_as_err_done() {
        let server = start(100);
        let lines = exchange(server.local_addr(), &["QUERY SELECT FROM nowhere"]);
        assert!(lines[0].starts_with("ERR "), "{}", lines[0]);
        assert_eq!(lines[1], "DONE");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_all_converge() {
        let server = start(60_000);
        let addr = server.local_addr();
        let sql = "QUERY SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT) \
                   WITHIN 5 PERCENT CONFIDENCE 95";
        let results: Vec<Vec<String>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| scope.spawn(move || exchange(addr, &[&format!("SEED {i}"), sql])))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for lines in &results {
            let final_line = lines.iter().find(|l| l.starts_with("FINAL ")).unwrap();
            assert!(final_line.contains("reason=ci-converged"), "{final_line}");
            assert_eq!(lines.last().unwrap(), "DONE");
        }
        server.shutdown();
    }

    #[test]
    fn admission_bound_sheds_load_with_err_busy() {
        let server = Server::bind(
            catalog(100),
            &ServerConfig {
                max_concurrent: 0,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let lines = exchange(
            server.local_addr(),
            &["QUERY SELECT SUM(v) AS s FROM t TABLESAMPLE (50 PERCENT)"],
        );
        assert!(lines[0].starts_with("ERR engine busy"), "{}", lines[0]);
        assert_eq!(lines[1], "DONE");
        server.shutdown();
    }
}
