//! The served workload's plumbing: the server child process, a line
//! protocol client that parses replies, and the closed client loop.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sa_server::{Server, ServerConfig};
use sa_storage::open_catalog_dir;

use crate::workloads::derive_seed;

/// `sabench --serve DIR`: the server process the served workload talks to —
/// `sa_server::Server` with its default configuration (shared scans and
/// metrics on) over the mapped catalog in `DIR`. The benchmark is a package
/// of its own and cargo cannot build another package's binary for it, so
/// this re-creates what `sa-server --data DIR --addr 127.0.0.1:0` does
/// from the same library calls.
pub fn serve(dir: &Path) -> Result<(), String> {
    let catalog = open_catalog_dir(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let server =
        Server::bind(catalog, &ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    println!("READY {}", server.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    // The parent holds our stdin open for as long as it lives. If it dies
    // without sending SHUTDOWN, stdin reaches end-of-file and the drain
    // starts, so no server outlives a killed benchmark.
    let ctl = server.controller();
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
        ctl.begin_shutdown();
    });
    server.join();
    Ok(())
}

/// A running server child.
pub struct ServerChild {
    child: Child,
    pub addr: SocketAddr,
    // Kept open: a closed stdout pipe would fail the child's final metrics
    // dump, a closed stdin tells it the parent is gone.
    _stdout: BufReader<ChildStdout>,
    _stdin: ChildStdin,
}

impl ServerChild {
    /// Spawn this executable in `--serve` mode over `data_dir` and wait for
    /// its `READY <addr>` line. The child's stderr goes to `log`.
    pub fn spawn(data_dir: &Path, log: &Path) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(exe)
            .arg("--serve")
            .arg(data_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let ready = stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                line.trim()
                    .strip_prefix("READY ")
                    .and_then(|a| a.parse().ok())
                    .ok_or_else(|| format!("expected `READY <addr>`, got `{}`", line.trim()))
            });
        match ready {
            Ok(addr) => Ok(ServerChild {
                child,
                addr,
                _stdout: stdout,
                _stdin: stdin,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not start: {e} (see {})", log.display()))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a graceful drain, wait up to 5 s, then kill.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.command("SHUTDOWN"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while asked.is_ok() && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err(match asked {
            Err(e) => format!("SHUTDOWN failed ({e}); server killed"),
            Ok(()) => "server did not drain within 5 s of SHUTDOWN; killed".into(),
        })
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // `stop` consumed a clean exit; this is the error path.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The parsed `FINAL` line of a scalar query.
#[derive(Debug, Clone, PartialEq)]
pub struct Final {
    pub reason: String,
    pub rows: u64,
    pub estimate: f64,
    pub ci: Option<(f64, f64)>,
}

/// Parse `FINAL reason=<r> rows=<n> estimate=<e> ci=<lo>..<hi>|na`.
pub fn parse_final(line: &str) -> Result<Final, String> {
    let malformed = || format!("malformed FINAL line `{line}`");
    let mut tokens = line.split_whitespace();
    if tokens.next() != Some("FINAL") {
        return Err(malformed());
    }
    let mut field = |key: &str| {
        tokens
            .next()
            .and_then(|t| t.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(malformed)
    };
    let reason = field("reason")?.to_string();
    let rows = field("rows")?.parse().map_err(|_| malformed())?;
    let estimate = field("estimate")?.parse().map_err(|_| malformed())?;
    let ci = match field("ci")? {
        "na" => None,
        range => {
            let (lo, hi) = range.split_once("..").ok_or_else(malformed)?;
            Some((
                lo.parse().map_err(|_| malformed())?,
                hi.parse().map_err(|_| malformed())?,
            ))
        }
    };
    Ok(Final {
        reason,
        rows,
        estimate,
        ci,
    })
}

/// One `QUERY` exchange as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// `QUERY` line written → first reply line read.
    pub first_line_ms: f64,
    /// `QUERY` line written → `DONE` line read.
    pub total_ms: f64,
    pub lines: u64,
    pub bytes: u64,
    pub fin: Result<Final, String>,
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // A reply that never comes must fail the run, not hang it.
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { reader, writer })
    }

    /// Send one request line in a single write: a line split over several
    /// small writes would have its tail held back by Nagle's algorithm
    /// until the server's delayed ACK (≈ 40 ms) arrives.
    fn send(&mut self, request: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    fn read_line(&mut self, line: &mut String) -> Result<usize, String> {
        line.clear();
        match self.reader.read_line(line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => Ok(n),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Send a request that answers one `OK` line.
    pub fn command(&mut self, request: &str) -> Result<(), String> {
        self.send(request)?;
        let mut line = String::new();
        self.read_line(&mut line)?;
        match line.trim() {
            "OK" => Ok(()),
            other => Err(format!("`{request}` answered `{other}`")),
        }
    }

    /// Run one query and read its reply through `DONE`.
    pub fn query(&mut self, sql: &str) -> Result<Reply, String> {
        let start = Instant::now();
        self.send(&format!("QUERY {sql}"))?;
        let mut reply = Reply {
            first_line_ms: 0.0,
            total_ms: 0.0,
            lines: 0,
            bytes: 0,
            fin: Err("no FINAL line before DONE".into()),
        };
        let mut line = String::new();
        loop {
            reply.bytes += self.read_line(&mut line)? as u64;
            reply.lines += 1;
            if reply.lines == 1 {
                reply.first_line_ms = start.elapsed().as_secs_f64() * 1e3;
            }
            let text = line.trim_end();
            if text == "DONE" {
                reply.total_ms = start.elapsed().as_secs_f64() * 1e3;
                return Ok(reply);
            } else if text.starts_with("FINAL") {
                reply.fin = parse_final(text);
            } else if let Some(msg) = text.strip_prefix("ERR ") {
                reply.fin = Err(format!("server answered ERR {msg}"));
            }
        }
    }

    /// `STATS`: the value of one un-labelled Prometheus sample.
    pub fn stat(&mut self, name: &str) -> Result<f64, String> {
        self.send("STATS")?;
        let mut value = None;
        let mut line = String::new();
        loop {
            self.read_line(&mut line)?;
            let text = line.trim_end();
            if text == "DONE" {
                return value.ok_or_else(|| format!("STATS has no sample `{name}`"));
            }
            if let Some((n, v)) = text.split_once(' ') {
                if n == name {
                    value = v.parse().ok();
                }
            }
        }
    }
}

/// What one client of the closed loop did.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// `(slot of the mix, reply)` per completed exchange.
    pub replies: Vec<(usize, Reply)>,
    /// Exchanges that failed at the transport level.
    pub errors: Vec<String>,
}

/// One client of the closed loop: issue the next query of its seeded draw
/// from `mix` only after the previous reply arrived, until `budget` has
/// elapsed and at least `min_queries` have completed.
pub fn client_loop(
    addr: SocketAddr,
    mix: &[String],
    seed: u64,
    client: u64,
    budget: Duration,
    min_queries: usize,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(e);
            return log;
        }
    };
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < budget || log.replies.len() < min_queries {
        // The slot of the mix and the sampling seed both derive from
        // (run seed, client, ordinal), so a run repeats its request stream.
        let qseed = derive_seed(seed, 100 + client, i);
        let slot = (qseed % mix.len() as u64) as usize;
        i += 1;
        let exchange = conn
            .command(&format!("SEED {qseed}"))
            .and_then(|()| conn.query(&mix[slot]));
        match exchange {
            Ok(reply) => log.replies.push((slot, reply)),
            Err(e) => {
                log.errors.push(e);
                if log.errors.len() > 3 {
                    return log; // the connection is gone; stop hammering it
                }
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_lines_parse_or_are_rejected() {
        let f = parse_final("FINAL reason=ci-converged rows=8192 estimate=1.5e3 ci=1400..1600.5")
            .unwrap();
        assert_eq!(f.reason, "ci-converged");
        assert_eq!(f.rows, 8192);
        assert_eq!(f.estimate, 1500.0);
        assert_eq!(f.ci, Some((1400.0, 1600.5)));
        assert_eq!(
            parse_final("FINAL reason=exhausted rows=1 estimate=2 ci=na")
                .unwrap()
                .ci,
            None
        );
        for bad in [
            "FINAL reason=x rows=many estimate=1 ci=na",
            "FINAL rows=1 reason=x estimate=1 ci=na",
            "FINAL reason=x rows=1 estimate=1 ci=1-2",
            "FINAL reason=exhausted rows=10 groups=3",
            "SNAP rows=1 chunk=1 estimate=1 rel=na",
        ] {
            assert!(parse_final(bad).is_err(), "{bad}");
        }
    }
}
