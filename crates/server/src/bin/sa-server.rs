//! `sa-server` — serve online-aggregation queries over TCP.
//!
//! ```sh
//! sa-server --tpch 0.01 --addr 127.0.0.1:5433 --seed 42
//! sa-server --data ./tpch1 --addr 127.0.0.1:5433   # memory-mapped .sac dir
//! ```
//!
//! Generates TPC-H-style data (or memory-maps a directory of `.sac` files
//! written by `sa --persist`), builds an [`sa_server::Server`] with shared
//! scans enabled, prints `READY <addr>` on stdout once listening, and
//! serves until killed. Drive it with the `sa` client:
//!
//! ```sh
//! sa --connect 127.0.0.1:5433 --query \
//!    "SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (25 PERCENT) \
//!     WITHIN 5 PERCENT CONFIDENCE 95"
//! ```

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

use sa_server::{Server, ServerConfig};
use sa_tpch::{generate, TpchConfig};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Set by the SIGTERM/SIGINT handler; polled by the shutdown monitor. A
/// relaxed store on a static atomic is async-signal-safe.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::Relaxed);
}

/// Route SIGTERM (15) and SIGINT (2) to [`on_term`] so `kill` and Ctrl-C
/// drain the server gracefully instead of dropping in-flight queries.
/// Uses libc's `signal(2)` directly — the std runtime links libc anyway —
/// to stay dependency-free.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_term as *const () as usize); // SIGTERM
        signal(2, on_term as *const () as usize); // SIGINT
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.005f64;
    let mut seed = 42u64;
    let mut data_dir: Option<String> = None;
    let mut fault_spec: Option<String> = None;
    let mut config = ServerConfig {
        addr: "127.0.0.1:5433".into(),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tpch" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--tpch needs a scale factor"));
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--data" => {
                data_dir = Some(
                    it.next()
                        .unwrap_or_else(|| die("--data needs a directory of .sac files"))
                        .clone(),
                );
            }
            "--addr" => {
                config.addr = it
                    .next()
                    .unwrap_or_else(|| die("--addr needs HOST:PORT"))
                    .clone();
            }
            "--workers" => {
                config.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| die("--workers needs a positive count"));
            }
            "--max-concurrent" => {
                config.max_concurrent = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--max-concurrent needs a number"));
            }
            "--drain-ms" => {
                config.drain_deadline = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .map(std::time::Duration::from_millis)
                    .unwrap_or_else(|| die("--drain-ms needs milliseconds"));
            }
            "--fault" => {
                fault_spec = Some(
                    it.next()
                        .unwrap_or_else(|| die("--fault needs `site=spec,…`"))
                        .clone(),
                );
            }
            "-h" | "--help" => {
                eprintln!(
                    "usage: sa-server [--tpch SCALE | --data DIR] [--seed N] \
                     [--addr HOST:PORT] [--workers N] [--max-concurrent N] \
                     [--drain-ms N] [--fault SPEC]"
                );
                return;
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }

    config.defaults.seed = seed;
    if let Some(spec) = &fault_spec {
        sa_fault::install(spec, seed).unwrap_or_else(|e| die(&format!("bad --fault: {e}")));
        eprintln!("fault injection armed: {spec} (seed {seed})");
    }
    let catalog = match &data_dir {
        Some(dir) => {
            eprintln!("opening mapped catalog from {dir} …");
            sa_storage::open_catalog_dir(std::path::Path::new(dir))
                .unwrap_or_else(|e| die(&format!("cannot open --data {dir}: {e}")))
        }
        None => {
            eprintln!("generating TPC-H data at scale {scale} (seed {seed}) …");
            generate(&TpchConfig::scale(scale).with_seed(seed))
        }
    };
    install_signal_handlers();
    let server =
        Server::bind(catalog, &config).unwrap_or_else(|e| die(&format!("cannot bind: {e}")));
    println!("READY {}", server.local_addr());
    let _ = std::io::stdout().flush();

    // Signal monitor: `signal(2)` handlers can't touch the server safely,
    // so the handler just flips a flag and this thread turns it into a
    // graceful drain.
    let ctl = server.controller();
    let engine = server.engine().clone();
    std::thread::spawn(move || loop {
        if TERM.load(Ordering::Relaxed) {
            // Drain first, report second, and never through a panicking
            // write: an orchestrator may have closed our stderr long ago,
            // and the in-flight queries are owed their FINAL regardless.
            ctl.begin_shutdown();
            let _ = writeln!(std::io::stderr(), "signal received: draining …");
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    });

    // Blocks until a SIGTERM/SIGINT, a client SHUTDOWN, or a controller
    // drain completes; then emit the final metrics so an orchestrator's
    // logs capture what the process did before exiting 0.
    server.join();
    let _ = writeln!(std::io::stderr(), "drained; final STATS follow");
    let mut stdout = std::io::stdout();
    let _ = write!(stdout, "{}", engine.render_prometheus());
    let _ = stdout.flush();
}
