//! The repo's benchmark: four workloads, the end-to-end metrics a user of
//! the system waits on, and per-layer attribution measured from outside.
//! See `README.md` beside this crate and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! bolton_benchmark run --workload <name|all> --seed <u64> [--seconds N]
//!                      [--trace [0|1]] [--scale full|smoke] [--out FILE]
//! bolton_benchmark compare A.json B.json
//! bolton_benchmark check [RESULT.json ...]
//! bolton_benchmark declare [--layers]   # BENCHMARK.json / README table from src/registry.rs
//! ```

mod check;
mod compare;
mod env;
mod json;
mod measure;
mod phases;
mod probes;
mod proc;
mod registry;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Focus, Scale};

const USAGE: &str = "usage:
  bolton_benchmark run --workload <train_sql_dense|train_ooc_wide|serve_read|ingest_durable|all>
                       --seed <u64> [--seconds N] [--trace [0|1]] [--scale full|smoke] [--out FILE]
  bolton_benchmark compare A.json B.json
  bolton_benchmark check [RESULT.json ...]
  bolton_benchmark declare [--layers]";

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(value("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s =
                    value("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    trace = false;
                }
                Some("1") => {
                    it.next();
                    trace = true;
                }
                _ => trace = true,
            },
            "--scale" => {
                scale = match value("--scale")?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale: 'full' or 'smoke', got '{other}'")),
                }
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads: Vec<&'static str> = registry::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| workload == "all" || *name == workload)
        .collect();
    if workloads.is_empty() {
        return Err(format!("unknown workload '{workload}'"));
    }
    let default_seconds =
        if scale == Scale::Smoke { 3.0 } else { f64::from(registry::RUN_SECONDS) };
    Ok(RunArgs {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(default_seconds),
        trace,
        scale,
        out,
    })
}

/// Runs the workloads. A run that measured prints its result line and
/// counts as done whatever it found: wrong answers are in `"correct"` and
/// `"failed"`, and the exit code stays 0 as the builder contract wants.
fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let scrubbed = env::scrub_bolton_env();
    let server_exe = proc::build_server()?;
    for name in &args.workloads {
        let scratch =
            env::Scratch::create().map_err(|e| format!("create scratch directory: {e}"))?;
        let cfg = workloads::Config {
            focus: Focus::parse(name).expect("registry names parse"),
            seed: args.seed,
            seconds: args.seconds,
            scale: args.scale,
            server_exe: &server_exe,
            scratch: &scratch,
        };
        let started = std::time::Instant::now();
        let (output, tracer) = workloads::run(&cfg, args.trace)?;
        let run = report::Run {
            workload: name,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.scale == Scale::Smoke,
            wall_s: started.elapsed().as_secs_f64(),
            scrubbed_env: &scrubbed,
            output: &output,
        };
        report::emit(&run, &tracer, &scratch, args.out.as_deref())?;
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("check") => check::main(&args[1..]),
        Some("declare") => {
            let layers = args.get(1).is_some_and(|a| a == "--layers");
            print!("{}", if layers { registry::layer_table() } else { registry::benchmark_json() });
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // `compare` found a regression, or `check` a problem.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
