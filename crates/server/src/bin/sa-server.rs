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
//! serves until killed. `--seed` seeds the data and is the base of the
//! sessions' seeds (the option table's `seed` row); a client sets the rest
//! of its session by the protocol's verbs. Drive it with the `sa` client:
//!
//! ```sh
//! sa --connect 127.0.0.1:5433 --query \
//!    "SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE (25 PERCENT) \
//!     WITHIN 5 PERCENT CONFIDENCE 95"
//! ```

use std::io::Write;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use sa_online::QueryOptions;
use sa_server::{Server, ServerConfig};
use sa_tpch::{generate, TpchConfig};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The value after `flag`, parsed, or exit 2 saying what `flag` needs.
fn arg<T: std::str::FromStr>(it: &mut std::slice::Iter<String>, flag: &str, what: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
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
    let mut data_dir: Option<String> = None;
    let mut fault_spec: Option<String> = None;
    let mut config = ServerConfig {
        addr: "127.0.0.1:5433".into(),
        defaults: QueryOptions {
            seed: 42,
            ..QueryOptions::default()
        },
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tpch" => scale = arg(&mut it, a, "a scale factor"),
            "--data" => data_dir = Some(arg(&mut it, a, "a directory of .sac files")),
            "--addr" => config.addr = arg(&mut it, a, "HOST:PORT"),
            "--workers" => {
                config.workers = arg::<NonZeroUsize>(&mut it, a, "a positive count").get()
            }
            "--max-concurrent" => config.max_concurrent = arg(&mut it, a, "a number"),
            "--drain-ms" => {
                config.drain_deadline = Duration::from_millis(arg(&mut it, a, "milliseconds"))
            }
            "--fault" => fault_spec = Some(arg(&mut it, a, "`site=spec,…`")),
            "-h" | "--help" => {
                eprintln!(
                    "usage: sa-server [--tpch SCALE | --data DIR] [--seed N] \
                     [--addr HOST:PORT] [--workers N] [--max-concurrent N] \
                     [--drain-ms N] [--fault SPEC]"
                );
                return;
            }
            // `seed` is the one option-table row a server flag sets.
            flag => match flag.strip_prefix("--") {
                Some(name @ "seed") => {
                    let value = it.next().map_or("", String::as_str);
                    if let Err(e) = config.defaults.set(name, value) {
                        die(&format!("--{name}: {e}"));
                    }
                }
                _ => die(&format!("unknown flag `{flag}`")),
            },
        }
    }

    let seed = config.defaults.seed;
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
        std::thread::sleep(Duration::from_millis(100));
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
