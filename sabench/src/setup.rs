//! Set-up: everything between process start and the first measured
//! operation — data generation, `.sac` persist and mapped open, engine
//! build (or server spawn, see `serve.rs`) and one warm-up query.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sa_online::Engine;
use sa_storage::{open_catalog_dir, persist_catalog, Catalog};

use crate::analytic::{converge_once, Runner};
use crate::workloads::{generate, Access, Workload};

/// A scratch directory inside the current directory (the checkout),
/// removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> Result<WorkDir, String> {
        let path = std::env::current_dir()
            .map_err(|e| format!("current dir: {e}"))?
            .join(".sabench_work")
            .join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the shared parent too once the last run has left it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Wall time of each set-up step (zero where the workload skips it).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub persist_s: f64,
    pub open_mapped_ms: f64,
}

/// Generate the workload's data and, unless it runs in RAM, persist it
/// under `dir` as `.sac` files.
pub fn generate_and_persist(
    w: &Workload,
    seed: u64,
    dir: &Path,
) -> Result<(Option<Catalog>, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let catalog = generate(w, seed);
    times.generate_s = t.elapsed().as_secs_f64();
    if w.access == Access::InRam {
        return Ok((Some(catalog), times));
    }
    let t = Instant::now();
    persist_catalog(&catalog, dir).map_err(|e| format!("persist: {e}"))?;
    times.persist_s = t.elapsed().as_secs_f64();
    Ok((None, times))
}

pub fn open_mapped(dir: &Path, times: &mut SetupTimes) -> Result<Catalog, String> {
    let t = Instant::now();
    let catalog = open_catalog_dir(dir).map_err(|e| format!("open mapped: {e}"))?;
    times.open_mapped_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(catalog)
}

/// An analytic workload after set-up.
pub struct Analytic {
    pub engine: Engine,
    pub times: SetupTimes,
    /// Keeps the mapped files alive for as long as the engine.
    _dir: WorkDir,
}

/// One full set-up of an analytic workload, ending with a warm-up query.
pub fn setup_analytic(w: &Workload, seed: u64) -> Result<Analytic, String> {
    let dir = WorkDir::create(w.name)?;
    let (catalog, mut times) = generate_and_persist(w, seed, dir.path())?;
    let catalog = match catalog {
        Some(c) => c,
        None => open_mapped(dir.path(), &mut times)?,
    };
    let engine = Engine::new(catalog);
    let warm = converge_once(
        &Runner {
            engine: &engine,
            query: &w.queries[0],
        },
        seed,
        &Default::default(),
    );
    if let Some(why) = warm.failure {
        return Err(format!("warm-up query: {why}"));
    }
    Ok(Analytic {
        engine,
        times,
        _dir: dir,
    })
}

fn status_kb(pid: u32, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of process `pid` in MB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_kb(pid, "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Reset this process's `VmHWM` so the peak that follows belongs to the
/// measured phases, not to data generation. Best effort: where the kernel
/// refuses, the peak simply includes set-up — on both sides of a compare.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
