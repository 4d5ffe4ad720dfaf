//! The end-to-end run of one workload (`--trace 0`): what a user of the
//! system feels, measured through `Engine` or TCP with tracing off.
//!
//! The two kinds of operation — runs to the accuracy target and runs to
//! exhaustion — run in alternating blocks, two of each, rather than as two
//! phases. The sandbox's CPU speed wanders by 10% and more over seconds;
//! with blocks a slow stretch touches a minority of each metric's samples,
//! which the median then ignores, where a phase that fell inside it would
//! shift one metric wholesale. Finer interleaving is worse: the first
//! converge run after an exhaustion pass takes five times as long (glibc
//! parks the pass's freed accumulator chunks and coalesces them on the next
//! large request), so alternating single operations would measure that
//! instead.

use std::time::{Duration, Instant};

use sa_online::Engine;

use crate::analytic::{
    answer_of, base_rows, check_exhaustion_against_exact, check_hand_driven, converge_once,
    exhaust_once, Answer, ConvergeRun, Runner, STREAM_CONVERGE, STREAM_EXHAUST,
};
use crate::handdriven::hand_driven;
use crate::metrics::Metrics;
use crate::serve::{client_loop, ClientLog, Reply, ServerChild};
use crate::setup::{
    generate_and_persist, open_mapped, peak_rss_mb, reset_peak_rss, setup_analytic, SetupTimes,
    WorkDir,
};
use crate::trace::Tracer;
use crate::workloads::{derive_seed, Access, Form, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of the measuring window spent converging; the rest runs to
/// exhaustion.
const CONVERGE_SHARE: f64 = 0.55;
/// Blocks per kind of operation.
const ROUNDS: usize = 2;
/// Floors under the window, so a slow machine still reports medians.
const MIN_CONVERGE_RUNS: usize = 10;
const MIN_EXHAUST_REPS: usize = 6;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }
}

/// The result of one run: the driver's `correct`/`attempted`/`failed`
/// plus the metrics.
pub struct Outcome {
    pub ops: Ops,
    pub metrics: Metrics,
}

/// The number of CPUs this process may use, and the served workload's
/// client count `C = min(nproc, 4)`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn clients() -> usize {
    nproc().min(4)
}

pub fn run(w: &Workload, cfg: &Config) -> Result<Outcome, String> {
    match w.access {
        Access::Served => run_served(w, cfg),
        _ => run_analytic(w, cfg),
    }
}

/// Time `setup` once.
fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let ready = setup()?;
    Ok((ready, t.elapsed().as_secs_f64()))
}

fn run_analytic(w: &Workload, cfg: &Config) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut metrics = Metrics::default();
    let (ready, first_setup) = timed(|| setup_analytic(w, cfg.seed))?;
    let mut setup_secs = vec![first_setup];
    let runner = Runner {
        engine: &ready.engine,
        query: &w.queries[0],
    };
    let exact = runner.exact()?;
    reset_peak_rss();

    let samples = measure(&runner, cfg, &exact, &mut ops);
    let column = |f: fn(&ConvergeRun) -> f64| samples.converge.iter().map(f).collect::<Vec<_>>();
    metrics.set_median("ttfs_ms", &column(|r| r.ttfs_ms));
    let tte = column(|r| r.tte_ms);
    metrics.set_median("tte_ms", &tte);
    let rows = base_rows(ready.engine.catalog(), runner.query) as f64;
    let throughput: Vec<f64> = samples.exhaust_secs.iter().map(|s| rows / s).collect();
    metrics.set_median("exhaust_rows_per_s", &throughput);
    metrics.set("peak_rss_mb", peak_rss_mb(std::process::id()));
    eprintln!(
        "sabench: {} converge runs stopping at {:.3} of the scan, {} of {} intervals missed; \
         {} exhaustion reps of {rows} rows",
        samples.converge.len(),
        crate::stats::median(&column(|r| r.scan_share_at_stop)),
        samples.converge.iter().map(|r| r.misses).sum::<u64>(),
        samples.converge.iter().map(|r| r.intervals).sum::<u64>(),
        samples.exhaust_secs.len(),
    );

    // The hand-driven pass replays the exhaustion reps' seed.
    ops.record(
        hand_driven(
            ready.engine.catalog(),
            runner.query,
            derive_seed(cfg.seed, STREAM_EXHAUST, 0),
            &mut Tracer::off(),
            false,
        )
        .and_then(|hand| match &samples.exhaust_answer {
            Some(engine) => check_hand_driven(&hand.answer, engine),
            None => Err("no exhaustion rep finished to check the hand-driven pass against".into()),
        }),
    );
    // The remaining set-ups come last, so the measured phases above always
    // ran in a process that had set up exactly once: the allocator's state,
    // and with it `peak_rss_mb`, is then the same from run to run.
    drop(ready);
    for _ in 1..SETUP_REPS {
        setup_secs.push(timed(|| setup_analytic(w, cfg.seed))?.1);
    }
    metrics.set_median("setup_s", &setup_secs);
    Ok(Outcome { ops, metrics })
}

struct Samples {
    converge: Vec<ConvergeRun>,
    exhaust_secs: Vec<f64>,
    /// The first exhaustion rep's readout (every group).
    exhaust_answer: Option<Answer>,
}

/// [`ROUNDS`] rounds of a block of converge runs (distinct query seeds)
/// and a block of exhaustion reps (one seed), sharing the window
/// [`CONVERGE_SHARE`] to the rest. A converge run that fails or stops for
/// any reason other than `ci-converged` is a failed operation; the first
/// exhaustion rep is checked against the exact answer and every later one
/// must reproduce it bit for bit.
fn measure(runner: &Runner, cfg: &Config, exact: &Answer, ops: &mut Ops) -> Samples {
    let block = |share: f64| Duration::from_secs_f64(cfg.seconds * share / ROUNDS as f64);
    let exhaust_seed = derive_seed(cfg.seed, STREAM_EXHAUST, 0);
    let mut samples = Samples {
        converge: Vec::new(),
        exhaust_secs: Vec::new(),
        exhaust_answer: None,
    };
    for round in 1..=ROUNDS {
        let start = Instant::now();
        while start.elapsed() < block(CONVERGE_SHARE)
            || samples.converge.len() < MIN_CONVERGE_RUNS * round / ROUNDS
        {
            let seed = derive_seed(cfg.seed, STREAM_CONVERGE, samples.converge.len() as u64);
            let run = converge_once(runner, seed, exact);
            ops.record(run.failure.clone().map_or(Ok(()), Err));
            samples.converge.push(run);
        }
        let start = Instant::now();
        let mut attempts = 0;
        while start.elapsed() < block(1.0 - CONVERGE_SHARE)
            || (samples.exhaust_secs.len() < MIN_EXHAUST_REPS * round / ROUNDS
                && attempts < MIN_EXHAUST_REPS)
        {
            attempts += 1;
            ops.record(exhaust_once(runner, exhaust_seed, 1).and_then(|(secs, r)| {
                samples.exhaust_secs.push(secs);
                let answer = answer_of(&r.snapshot, false);
                match &samples.exhaust_answer {
                    None => {
                        samples.exhaust_answer = Some(answer);
                        // Judge the groups the rule tracks: a tail group
                        // with a handful of sampled rows has no usable σ.
                        check_exhaustion_against_exact(&answer_of(&r.snapshot, true), exact)
                    }
                    Some(first) if estimate_bits(first) == estimate_bits(&answer) => Ok(()),
                    Some(_) => Err("exhaustion estimate changed between reps on one seed".into()),
                }
            }));
        }
    }
    samples
}

fn estimate_bits(a: &Answer) -> Vec<u64> {
    a.values().map(|e| e.estimate.to_bits()).collect()
}

/// The served workload after set-up.
pub struct Served {
    pub server: ServerChild,
    pub times: SetupTimes,
    pub dir: WorkDir,
}

/// One full set-up of the served workload: generate, persist, spawn the
/// server to `READY`, and one warm-up query over TCP.
pub fn setup_served(w: &Workload, seed: u64) -> Result<Served, String> {
    let dir = WorkDir::create(w.name)?;
    let (_, times) = generate_and_persist(w, seed, dir.path())?;
    let data = dir.path().to_path_buf();
    let server = ServerChild::spawn(&data, &data.join("server.stderr"))?;
    let warm = client_loop(
        server.addr,
        &[w.queries[0].sql(Form::Converge)],
        seed,
        0,
        Duration::ZERO,
        1,
    );
    if let Some(e) = warm.errors.first() {
        return Err(format!("warm-up query: {e}"));
    }
    Ok(Served { server, times, dir })
}

/// The exact answers of the served templates, from an in-process engine
/// over the same mapped files.
pub fn served_exact(w: &Workload, served: &Served) -> Result<(Engine, Vec<Answer>), String> {
    let engine = Engine::new(open_mapped(served.dir.path(), &mut Default::default())?);
    let exact = w
        .queries
        .iter()
        .map(|query| {
            Runner {
                engine: &engine,
                query,
            }
            .exact()
        })
        .collect::<Result<_, _>>()?;
    Ok((engine, exact))
}

/// What a block of the closed loop came to.
#[derive(Default)]
pub struct ServedSamples {
    pub replies: Vec<Reply>,
    pub intervals: u64,
    pub misses: u64,
}

/// The served request mix, as template indices: three cheap full-table
/// queries for each selective and each very selective one, so the median
/// latency sits inside the cheap template's mode and the tail inside the
/// streamed one's, not in the sparse stretch between modes.
pub const SERVED_MIX: [usize; 5] = [0, 0, 0, 1, 2];

/// Run one block of the closed loop: `clients()` connections, one thread
/// each, every client asking again only after its previous reply arrived.
/// A converge block draws by seed from [`SERVED_MIX`]; an exhaustion block
/// runs template 0 alone (the templates differ in what they keep, not in
/// what a full pass reads). Returns the logs and the block's wall seconds.
pub fn closed_loop(
    served: &Served,
    w: &Workload,
    form: Form,
    seed: u64,
    budget: Duration,
    min_queries: usize,
) -> (Vec<ClientLog>, f64) {
    let mix: Vec<String> = match form {
        Form::Converge => SERVED_MIX.iter().map(|&t| w.queries[t].sql(form)).collect(),
        _ => vec![w.queries[0].sql(form)],
    };
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients() as u64)
            .map(|c| {
                let (addr, mix) = (served.server.addr, &mix);
                scope.spawn(move || client_loop(addr, mix, seed, c, budget, min_queries))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// Score a block's replies into `out`: every transport error, `ERR` line,
/// malformed `FINAL` or unexpected stop reason is a failed operation, as
/// is an exhaustion estimate more than 6σ from the exact answer (σ read
/// off the reported 95% interval).
pub fn score_replies(
    logs: Vec<ClientLog>,
    form: Form,
    exact: &[Answer],
    ops: &mut Ops,
    out: &mut ServedSamples,
) {
    let want = match form {
        Form::Converge => "ci-converged",
        _ => "exhausted",
    };
    for log in logs {
        for e in log.errors {
            ops.record(Err(e));
        }
        for (slot, reply) in log.replies {
            let template = match form {
                Form::Converge => SERVED_MIX[slot],
                _ => 0,
            };
            let truth = exact[template][&(String::new(), 0)].estimate;
            ops.record(match &reply.fin {
                Err(e) => Err(e.clone()),
                Ok(f) if f.reason != want => {
                    Err(format!("query stopped with {}, not {want}", f.reason))
                }
                Ok(f) if form == Form::Converge => {
                    if let Some((lo, hi)) = f.ci {
                        out.intervals += 1;
                        out.misses += !(lo <= truth && truth <= hi) as u64;
                    }
                    Ok(())
                }
                Ok(f) => {
                    let sigma = f.ci.map_or(0.0, |(lo, hi)| (hi - lo) / (2.0 * 1.96));
                    if (f.estimate - truth).abs() <= 6.0 * sigma + 1e-9 * truth.abs() {
                        Ok(())
                    } else {
                        Err(format!(
                            "served exhaustion estimate {} is more than 6σ from exact {truth}",
                            f.estimate
                        ))
                    }
                }
            });
            out.replies.push(reply);
        }
    }
}

fn run_served(w: &Workload, cfg: &Config) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut metrics = Metrics::default();
    let mut setup_secs = Vec::new();
    // The throw-away set-ups come first here: each is its own server
    // process, so the measured one starts as fresh as any.
    for _ in 1..SETUP_REPS {
        let (served, secs) = timed(|| setup_served(w, cfg.seed))?;
        setup_secs.push(secs);
        ops.record(served.server.stop());
    }
    let (served, secs) = timed(|| setup_served(w, cfg.seed))?;
    setup_secs.push(secs);
    metrics.set_median("setup_s", &setup_secs);
    let (engine, exact) = served_exact(w, &served)?;

    // Blocks as for the analytic workloads: all clients converge, then all
    // run to exhaustion, twice over.
    let block = |share: f64| Duration::from_secs_f64(cfg.seconds * share / ROUNDS as f64);
    let mut converge = ServedSamples::default();
    let mut exhaust = ServedSamples::default();
    for _ in 0..ROUNDS {
        let (logs, _) = closed_loop(
            &served,
            w,
            Form::Converge,
            cfg.seed,
            block(CONVERGE_SHARE),
            MIN_CONVERGE_RUNS,
        );
        score_replies(logs, Form::Converge, &exact, &mut ops, &mut converge);
        let (logs, _) = closed_loop(
            &served,
            w,
            Form::Exhaust,
            cfg.seed,
            block(1.0 - CONVERGE_SHARE),
            MIN_EXHAUST_REPS / ROUNDS / clients() + 1,
        );
        score_replies(logs, Form::Exhaust, &exact, &mut ops, &mut exhaust);
    }
    let column = |f: fn(&Reply) -> f64| -> Vec<f64> { converge.replies.iter().map(f).collect() };
    metrics.set_median("ttfs_ms", &column(|r| r.first_line_ms));
    metrics.set_median("tte_ms", &column(|r| r.total_ms));
    // `C` clients each complete a pass every median latency.
    let rows = base_rows(engine.catalog(), &w.queries[0]) as f64;
    let throughput: Vec<f64> = exhaust
        .replies
        .iter()
        .map(|r| clients() as f64 * rows / (r.total_ms / 1e3))
        .collect();
    metrics.set_median("exhaust_rows_per_s", &throughput);
    metrics.set("peak_rss_mb", peak_rss_mb(served.server.pid()));
    eprintln!(
        "sabench: {} converge queries, {} of {} intervals missed; {} exhaustive queries",
        converge.replies.len(),
        converge.misses,
        converge.intervals,
        exhaust.replies.len(),
    );
    ops.record(served.server.stop());
    Ok(Outcome { ops, metrics })
}
