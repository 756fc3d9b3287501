//! The repository benchmark: three seeded workloads behind one command.
//!
//! ```text
//! perfbench --workload serve-edits|edit-repaint|route-channels \
//!     --seed N --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
//! ```
//!
//! Every workload checks the program's outputs before it reports a
//! number. On success the last line of standard output is one JSON
//! object — `attempted`, `failed` and the `metrics` measured, by name:
//! the end-to-end ones (`--trace 0`) or the per-layer ones
//! (`--trace 1`). A failed check prints nothing to standard output and
//! exits non-zero. `perfbench/run.py` builds this binary and the
//! `riot-serve` server, runs it, and checks its values against the
//! metrics `BENCHMARK.json` declares.

mod edit_repaint;
mod metrics;
mod route_channels;
mod serve_edits;

use metrics::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase runs, or, where the work is fixed,
    /// the time it is sized for.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// The `riot-serve` binary the served workload starts.
    pub serve_bin: PathBuf,
    /// Scratch directory for WALs and sockets (relative paths keep the
    /// socket path short).
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut serve_bin = PathBuf::from(".bench_build/release/riot-serve");
    let mut work_dir = PathBuf::from(".perfbench_run");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--serve-bin" => serve_bin = PathBuf::from(value()?),
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        serve_bin,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result: Result<Report, String> = match args.workload.as_str() {
        "serve-edits" => serve_edits::run(&args),
        "edit-repaint" => edit_repaint::run(&args),
        "route-channels" => route_channels::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
