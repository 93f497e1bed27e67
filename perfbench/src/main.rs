//! Layer-resolved benchmark of the neurofail workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-mix|fleet-tiny|recertify-store|train-campaign|all> \
//!     [--seed <n|default|held-out>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Each run builds its inputs from the seed, measures for `--seconds`,
//! checks every output against an oracle outside the timed region, and
//! prints its metrics by name with units; the last stdout line is one
//! JSON object. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones from a run with spans recorded around every call
//! into a layer. The exit code is 1 on any oracle mismatch.

mod fleet_tiny;
mod load;
mod probes;
mod recertify;
mod report;
mod serve_mix;
mod trace;
mod train_campaign;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;
use trace::Tracer;

/// The seed a run uses unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of development: a claimed gain is re-checked on it.
pub const HELD_OUT_SEED: u64 = 0x5EED_2017;

const WORKLOADS: [&str; 4] = [
    "serve-mix",
    "fleet-tiny",
    "recertify-store",
    "train-campaign",
];

/// Parsed command line plus the per-run scratch directory.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Fresh per-run directory inside the checkout (store, sockets);
    /// removed when the run ends.
    pub run_dir: PathBuf,
    /// Process start, for `setup_s`.
    pub t0: Instant,
}

impl Args {
    pub fn secs(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

fn parse() -> Result<Args, String> {
    let t0 = Instant::now();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = match value.as_str() {
                    "default" => DEFAULT_SEED,
                    "held-out" => HELD_OUT_SEED,
                    n => n.parse().map_err(|_| format!("bad seed {n}"))?,
                }
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let run_dir = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        run_dir,
        t0,
    })
}

/// `all`: run every workload in its own process, so peak memory and
/// set-up are per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .status()
            .expect("spawn workload run");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Fleet worker processes re-execute this binary with the fleet
    // environment set; divert them before anything else.
    if std::env::var(neurofail_fleet::ENV_ADDR).is_ok() {
        std::process::exit(neurofail_fleet::run_worker_from_env());
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    std::fs::create_dir_all(&args.run_dir).expect("create run directory");
    // Unix sockets go to the temp directory: keep them inside the
    // checkout, under a short relative path (socket paths are limited to
    // ~100 bytes).
    std::env::set_var("TMPDIR", &args.run_dir);

    println!(
        "env workload={} seed={} seconds={} trace={} backend={} cpu_features={} nproc={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        neurofail_tensor::backend::active_kind().name(),
        neurofail_tensor::backend::detected_features().join(","),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        util::commit(),
    );
    let mut tracer = Tracer::new(args.traced, args.t0);
    let mut report = Report::default();
    match args.workload.as_str() {
        "serve-mix" => serve_mix::run(&args, &mut tracer, &mut report),
        "fleet-tiny" => fleet_tiny::run(&args, &mut tracer, &mut report),
        "recertify-store" => recertify::run(&args, &mut tracer, &mut report),
        "train-campaign" => train_campaign::run(&args, &mut tracer, &mut report),
        _ => unreachable!("workload validated in parse"),
    }
    if args.traced {
        summarise_trace(&args, &tracer, &mut report);
    }
    let _ = std::fs::remove_dir_all(&args.run_dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    if report.print(args.traced) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer self time as shares of the traced operations' wall time,
/// the unattributed share, and the tracing overhead; spans are written
/// to `.bench_out/`.
fn summarise_trace(args: &Args, tracer: &Tracer, report: &mut Report) {
    let (self_ns, root_ns) = tracer.self_times();
    let root = root_ns.max(1) as f64;
    for layer in trace::LAYERS {
        let share = self_ns.get(layer).copied().unwrap_or(0) as f64 / root;
        report.layer(&format!("trace.self_share.{layer}"), share);
    }
    let unattributed = self_ns.get("bench").copied().unwrap_or(0) as f64 / root;
    report.layer("bench.unattributed_ratio", unattributed);
    let overhead = tracer.len() as f64 * Tracer::span_cost_ns() / root;
    report.layer("bench.trace_overhead_ratio", overhead);
    report.layer("trace.spans", tracer.len() as f64);
    let path =
        PathBuf::from(".bench_out").join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    match tracer.dump(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}
