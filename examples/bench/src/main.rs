//! The placement stack's benchmark: four workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from traced runs.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-file FILE] [--burn N]
//! bench [--seed N] [--seconds S] [--out FILE] [--trace-file FILE] [--burn N]
//! bench compare A.json B.json
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is its result as one JSON object. Without it, every
//! workload runs twice in its own child process of this binary, untraced
//! and then traced, and a summary compares the two. `--out` writes the
//! detailed report `compare` reads; `--trace-file` writes the traced
//! spans as Chrome trace events (one file per workload when all run).
//! `--burn N` spins N extra threads while the repetitions run, to check
//! that `compare` reports a change that adds CPU load. See README.md for
//! the metrics.

mod compare;
mod flow;
mod harness;
mod serve;
mod spec;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ams_netlist::json::Json;

use crate::harness::{run, Outcome};
use crate::serve::ServeMix;
use crate::spec::spec;
use crate::workloads::{BufQuick, ClosureStarved, CorpusPlace};

const DEFAULT_SEED: u64 = 1;
const USAGE: &str = "usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] [--trace-file FILE] [--burn N] | bench compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    trace_file: Option<PathBuf>,
    burn: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec().run_seconds as f64,
        trace: false,
        out: None,
        trace_file: None,
        burn: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--trace-file" => args.trace_file = Some(PathBuf::from(value()?)),
            "--burn" => args.burn = value()?.parse().map_err(|e| format!("--burn: {e}"))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_workload(name, &args),
        None => run_all(&args),
    }
}

/// Runs one workload here and prints its metrics, then its result line.
fn run_workload(name: &str, args: &Args) -> ExitCode {
    let (seed, seconds, traced, burn) = (args.seed, args.seconds, args.trace, args.burn);
    let outcome = match name {
        "buf-quick" => run::<BufQuick>(name, seed, seconds, traced, burn),
        "corpus-place" => run::<CorpusPlace>(name, seed, seconds, traced, burn),
        "closure-starved" => run::<ClosureStarved>(name, seed, seconds, traced, burn),
        "serve-mix" => run::<ServeMix>(name, seed, seconds, traced, burn),
        other => {
            eprintln!("unknown workload {other}; one of {:?}", spec().workloads);
            return ExitCode::from(2);
        }
    };
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    print_metrics(&outcome);
    let written = write_report(args.out.as_deref(), vec![outcome.to_json()]).and_then(|()| {
        let events = trace::chrome_events(&outcome.spans, name);
        write_trace(args.trace_file.as_deref(), events)
    });
    if let Err(e) = written {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    println!("{}", outcome.contract_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_metrics(outcome: &Outcome) {
    for (name, m) in &outcome.metrics {
        println!(
            "{:<16} {:<28} {:>16.6} {:<6} ({} samples)",
            outcome.workload,
            name,
            m.value,
            m.unit,
            m.samples.len()
        );
    }
    for (name, v) in &outcome.detail {
        println!("{:<16} {:<28} {v:>16.6}", outcome.workload, name);
    }
}

fn write_report(path: Option<&Path>, runs: Vec<Json>) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    let doc = Json::obj([("runs", Json::Arr(runs))]);
    std::fs::write(path, doc.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn write_trace(path: Option<&Path>, events: Vec<Json>) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    let doc = Json::obj([("traceEvents", Json::Arr(events))]);
    std::fs::write(path, doc.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload untraced and then traced, each in a child process
/// of this binary, so each has its own peak memory and no run inherits
/// another's caches or heap. `--trace-file` names one file per workload.
fn run_all(args: &Args) -> ExitCode {
    let scratch = PathBuf::from(".bench_tmp");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("{}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let exe = std::env::current_exe().expect("path of this binary");
    let mut runs = Vec::new();
    let mut ok = true;
    for name in &spec().workloads {
        // The untraced and the traced report, by `traced`.
        let mut pair = [None, None];
        for traced in [false, true] {
            let out = scratch.join(format!("{name}-{}.json", u8::from(traced)));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--burn", &args.burn.to_string()])
                .arg("--out")
                .arg(&out);
            if let (true, Some(path)) = (traced, &args.trace_file) {
                cmd.arg("--trace-file").arg(per_workload(path, name));
            }
            eprintln!("running {name} (trace {})", u8::from(traced));
            let status = cmd.stdout(Stdio::null()).status();
            let report = std::fs::read_to_string(&out)
                .ok()
                .and_then(|t| Json::parse(&t).ok())
                .and_then(|d| d.field("runs").and_then(Json::items).map(|r| r[0].clone()));
            let _ = std::fs::remove_file(&out);
            match (status, report) {
                (Ok(status), Some(report)) => {
                    ok &= status.success();
                    pair[usize::from(traced)] = Some(report);
                }
                (status, _) => {
                    eprintln!("{name}: the child run failed ({status:?})");
                    ok = false;
                }
            }
        }
        summarize(name, &pair);
        runs.extend(pair.into_iter().flatten());
    }
    let _ = std::fs::remove_dir(&scratch);
    if let Err(e) = write_report(args.out.as_deref(), runs) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `trace.json` becomes `trace.<workload>.json`: one trace file per
/// workload, each loadable on its own.
fn per_workload(path: &Path, workload: &str) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let name = match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}.{workload}.{ext}"),
        None => format!("{stem}.{workload}"),
    };
    path.with_file_name(name)
}

/// Prints one workload's metrics, its per-layer self times, and the
/// tracing overhead: traced against untraced repetition wall time, both
/// at the reference speed.
fn summarize(name: &str, pair: &[Option<Json>; 2]) {
    let value = |run: &Json, key: &str| {
        run.field("metrics")
            .and_then(|m| m.field(key))
            .and_then(|m| m.field("value"))
            .and_then(Json::as_f64)
    };
    let detail = |run: &Json, key: &str| {
        run.field("detail")
            .and_then(|d| d.field(key))
            .and_then(Json::as_f64)
    };
    println!("== {name}");
    for run in pair.iter().flatten() {
        if let Some(Json::Obj(metrics)) = run.field("metrics") {
            for (metric, m) in metrics {
                let v = m.field("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = m.field("unit").and_then(Json::as_str).unwrap_or("");
                println!("  {metric:<28} {v:>16.6} {unit}");
            }
        }
        let failed = run.field("failed").and_then(Json::as_u64).unwrap_or(0);
        let attempted = run.field("attempted").and_then(Json::as_u64).unwrap_or(0);
        println!("  failed {failed} of {attempted} jobs");
    }
    let [Some(untraced), Some(traced)] = pair else {
        return;
    };
    if let Some(Json::Obj(detail)) = traced.field("detail") {
        println!("  {:<28} {:>12}", "layer self time", "ms/rep");
        let mut sum = 0.0;
        for (key, v) in detail {
            if let (Some(layer), Some(ms)) = (key.strip_prefix("self_ms."), v.as_f64()) {
                println!("  {layer:<28} {ms:>12.1}");
                sum += ms;
            }
        }
        if let Some(rest) = value(traced, "untraced.pct") {
            println!(
                "  {:<28} {sum:>12.1} ms, {:.2} % of traced busy time (wall x client threads)",
                "sum",
                100.0 - rest
            );
        }
    }
    let scaled_rep_ms = value(traced, "trace.rep_ms")
        .zip(detail(traced, "speed.scale"))
        .map(|(ms, k)| ms * k);
    if let (Some(wall_s), Some(rep_ms)) = (value(untraced, "wall_s"), scaled_rep_ms) {
        println!(
            "  tracing overhead             {:>+11.1}% (traced {rep_ms:.1} ms vs untraced {:.1} ms, scaled)",
            100.0 * (rep_ms / (wall_s * 1e3) - 1.0),
            wall_s * 1e3
        );
    }
}
