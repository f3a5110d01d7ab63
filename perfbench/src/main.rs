//! The repository's layered benchmark.
//!
//! ```text
//! perfbench --workload bulk3d|lpi_sweep|ranks2_socket --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload in this process for about `S` seconds, checks its
//! outputs against the repository's oracles, and prints human-readable
//! lines followed by one JSON result line (the last line of standard
//! output). `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the workload untraced and then traced, reports every per-layer metric
//! plus the tracing overhead, and writes a Chrome trace-event file.
//! Normally launched through `perfbench/run.py`, which builds it first.
//!
//! Everything the run writes lives under `--out` (default `.bench_out`,
//! relative to the working directory): a scratch directory that is
//! removed at exit, the record of the run in `records/` and traces in
//! `traces/`. See `perfbench/README.md` for the metrics and predictions.

mod bulk3d;
mod checks;
mod inputs;
mod lpi_sweep;
mod procfs;
mod ranks2;
mod report;
mod stats;
mod trace;
mod transport;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::{json_str, Outcome};
use trace::Tracer;

/// Repetitions every measured pass makes, however short its budget.
pub const MIN_REPS: usize = 3;

/// What a measured pass reports back for the tracing-overhead figure.
pub struct Pass {
    pub wall_s: f64,
}

const WORKLOADS: [&str; 3] = ["bulk3d", "lpi_sweep", "ranks2_socket"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    rustc: String,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
        rustc: "unknown".into(),
        rev: "unknown".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.chunks(2);
    for pair in &mut it {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let bad = |what: &str| format!("{flag} wants {what}, got {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad("a number of seconds"))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            "--host-rustc" => a.rustc = value.clone(),
            "--host-rev" => a.rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The run's scratch directory: fresh at start, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path) -> Result<Scratch, String> {
        let dir = out.join("tmp").join(format!("r{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Oracle results computed once per process and shared by its passes.
#[derive(Default)]
struct Oracles {
    bulk3d: Option<u32>,
    sweep: Option<lpi_sweep::Oracle>,
    twin: Option<u32>,
}

fn pass(
    a: &Args,
    budget: f64,
    tracer: &Tracer,
    scratch: &Path,
    oracles: &mut Oracles,
    out: &mut Outcome,
) -> Result<Pass, String> {
    match a.workload.as_str() {
        "bulk3d" => bulk3d::run(a.seed, budget, tracer, scratch, &mut oracles.bulk3d, out),
        "lpi_sweep" => lpi_sweep::run(a.seed, budget, tracer, scratch, &mut oracles.sweep, out),
        _ => {
            let p = ranks2::run(a.seed, budget, tracer, scratch, &mut oracles.twin, out)?;
            if tracer.enabled() {
                transport::run(scratch, out)?;
            }
            Ok(p)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(a: &Args) -> Result<(), String> {
    let scratch = Scratch::new(&a.out)?;
    let sampler = procfs::ThreadSampler::start(Duration::from_millis(10));
    let host = procfs::host();
    let claimed = vpic::core::worker_threads();
    let mut out = Outcome::default();
    let mut oracles = Oracles::default();
    let tracer = Tracer::new(a.trace);
    eprintln!(
        "perfbench: {} seed {} for {}s{}",
        a.workload,
        a.seed,
        a.seconds,
        if a.trace { ", traced" } else { "" }
    );
    if a.trace {
        // Untraced and traced halves; their wall-time medians give the
        // tracing overhead.
        let plain = pass(
            a,
            a.seconds / 2.0,
            &Tracer::new(false),
            &scratch.0,
            &mut oracles,
            &mut out,
        )?;
        let traced = pass(
            a,
            a.seconds / 2.0,
            &tracer,
            &scratch.0,
            &mut oracles,
            &mut out,
        )?;
        out.set("trace.overhead", traced.wall_s / plain.wall_s - 1.0);
    } else {
        pass(a, a.seconds, &tracer, &scratch.0, &mut oracles, &mut out)?;
    }
    let os_threads = sampler.finish();
    out.set("threads.os_peak", os_threads as f64);
    out.set("threads.claimed", claimed as f64);
    drop(scratch);

    println!(
        "perfbench {} seed {} seconds {} trace {}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    println!(
        "host: nproc {}, cpu {}, L3 {}, {}, rev {}",
        host.nproc, host.cpu_model, host.l3, a.rustc, a.rev
    );
    println!(
        "threads: {os_threads} OS threads at peak (besides the sampler); \
         vpic_core::worker_threads() claims {claimed}"
    );
    for line in out.lines() {
        println!("{line}");
    }
    println!(
        "failed_fraction = {} ratio ({} of {} operations)",
        out.failed_fraction(),
        out.failed,
        out.attempted
    );
    if a.workload == "lpi_sweep" {
        if let Some(v) = out.get("ops_per_hour") {
            println!("sweep_points_per_hour = {v} 1/h");
        }
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }

    let tag = format!("{}-seed{}-trace{}", a.workload, a.seed, a.trace as u8);
    if a.trace {
        println!("span self time (name: count, total s, self s):");
        for (name, (n, total, own)) in tracer.summary() {
            println!("  {name}: {n}, {total:.6}, {own:.6}");
        }
        let path = a.out.join("traces").join(format!("{tag}.json"));
        write_file(&path, &tracer.chrome_json())?;
        println!("trace: {}", path.display());
    }
    let result = out.result_json(a.trace)?;
    let record = record_json(a, &host, os_threads, claimed, &out, &result);
    let path = a.out.join("records").join(format!("{tag}.json"));
    write_file(&path, &record)?;
    println!("record: {}", path.display());
    println!("{result}");
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The run's record: host fingerprint, true thread count, every metric
/// measured, the checks' verdicts and the result line.
fn record_json(
    a: &Args,
    host: &procfs::Host,
    os_threads: u64,
    claimed: usize,
    out: &Outcome,
    result: &str,
) -> String {
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    let lines: Vec<String> = out.lines().iter().map(|l| json_str(l)).collect();
    let notes: Vec<String> = out
        .record
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\n  \"schema\": \"perfbench/record/v1\",\n  \"workload\": {},\n  \"seed\": {},\n  \
         \"seconds\": {},\n  \"trace\": {},\n  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \
         \"l3\": {}, \"rustc\": {}, \"rev\": {}}},\n  \"threads\": {{\"os_peak\": {os_threads}, \
         \"worker_threads_claimed\": {claimed}}},\n  \"failed_fraction\": {},\n  \
         \"failures\": [{}],\n  \"notes\": {{{}}},\n  \"measured\": [{}],\n  \"result\": {result}\n}}\n",
        json_str(&a.workload),
        a.seed,
        a.seconds,
        a.trace,
        host.nproc,
        json_str(&host.cpu_model),
        json_str(&host.l3),
        json_str(&a.rustc),
        json_str(&a.rev),
        out.failed_fraction(),
        failures.join(", "),
        notes.join(", "),
        lines.join(", "),
    )
}
