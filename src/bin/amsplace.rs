//! `amsplace` — command-line front end to the placement stack.
//!
//! ```text
//! amsplace --demo buf demo.json          # write a benchmark netlist
//! amsplace demo.json --svg out.svg       # place it, render the layout
//! amsplace demo.json --no-ams --route    # w/o-constraints arm + routing
//! amsplace close vco --max-iters 5       # place→route→tighten closure loop
//! amsplace route scenario:42             # place, route, report congestion
//! amsplace lint demo.json                # pre-solve constraint linter
//! amsplace lint vco --explain            # + UNSAT explanation if stuck
//! amsplace serve --bind 127.0.0.1:7171   # placement-as-a-service
//! amsplace submit buf --addr 127.0.0.1:7171   # job against a server
//! ```

use finfet_ams_place::netlist::json::Json;
use finfet_ams_place::netlist::{benchmarks, Design};
use finfet_ams_place::place::analysis::{self, UnsatOutcome};
use finfet_ams_place::place::api::{self, ErrorKind, JobOptions, PlaceRequest, PlaceResponse};
use finfet_ams_place::place::closure::probe_windows;
use finfet_ams_place::place::{
    drat, render_svg, scenario, solver_env, PlaceError, PlaceOutcome, Placer, PlacerConfig,
};
use finfet_ams_place::route::{close_placement, route, window_congestion, RouterConfig};
use finfet_ams_place::serve::{client, ResumePolicy, ServeConfig, Server};
use std::process::ExitCode;

const USAGE: &str = "\
usage: amsplace [OPTIONS] <design>
       amsplace close [OPTIONS] [--max-iters <n>] <design>
       amsplace route [OPTIONS] <design>
       amsplace lint [--explain] [--presolve] <design>
       amsplace serve [--bind <addr>] [--workers <n>] [--queue-cap <n>]
                      [--journal-dir <dir> [--resume] [--resume-policy <p>]]
       amsplace submit [OPTIONS] --addr <addr> <design>
       amsplace shutdown --addr <addr>
       amsplace --demo <buf|vco|synthetic> <out.json>

<design> is a JSON netlist path, a benchmark name (buf, vco, synthetic),
or scenario:<i> — entry i of the deterministic closure corpus.

options:
  --out <file>        write the placement (cell rectangles) as JSON
  --svg <file>        render the placed layout as SVG
  --stats-json <file> write run statistics (outcome, workers, ...) as JSON
  --route             also route and report RWL / vias / overflow
  --no-ams            strip the symmetry, array, cluster and extension
                      constraints from the design (the w/o-Cstr. arm)
  --iters <n>         optimization iterations (default 2)
  --budget <n>        conflict budget per optimization round (default 100000)
  --threads <n>       parallel portfolio workers (default: AMSPLACE_THREADS
                      from the environment, else 1 = sequential)
  --deadline-ms <n>   wall-clock deadline for the whole solve; after the
                      first model it degrades to the best placement so far
                      (default: AMSPLACE_DEADLINE_MS, else none)
  --max-relax <n>     relaxation rungs to try on infeasibility (default 4,
                      0 disables the recovery ladder)
  --certify           capture a DRAT proof while solving: infeasible runs
                      emit a machine-checked UNSAT certificate (validated
                      in-process before exiting 2), satisfiable runs
                      re-verify the model against the legality oracle
  --lambda-th <n>     override the pin-density threshold λ_th (Eq. 14);
                      0 is unsatisfiable by construction, handy together
                      with --certify --max-relax 0
  --no-presolve       skip the static presolve analyzer (domain pruning
                      and the zero-conflict infeasibility fast path)
  --quick             small budgets for a fast smoke run

close/route options:
  --close             run the routing-closure loop, as `amsplace close`
                      does; with submit, the server runs it
  --max-iters <n>     routing-closure iteration budget (default 5); each
                      iteration routes the placement, maps window overflow
                      back to the pin-density constraints it came from,
                      tightens λ_th for just those windows, and re-solves
                      incrementally. also valid with submit (runs the loop
                      server-side); `amsplace route` routes a single
                      placement and reports per-window congestion instead

serve options:
  --bind <addr>       listen address (default 127.0.0.1:7171; port 0 picks)
  --workers <n>       solver worker threads (default 2)
  --queue-cap <n>     bounded job queue size; beyond it submissions get
                      HTTP 429 (default 64)
  --journal-dir <dir> journal every job transition to an fsync'd WAL in
                      <dir>; a restart with --resume recovers the queue,
                      results, and caches (default: no journal)
  --resume            allow recovering a journal that already holds
                      records (required then — a non-empty journal
                      without --resume is a startup error)
  --resume-policy <p> what to do with jobs that were mid-solve when the
                      previous process died: rerun (default) solves them
                      again, interrupt marks them terminal `interrupted`

submit/shutdown options:
  --addr <addr>       the server to talk to (default 127.0.0.1:7171)
  --no-wait           print the job id without polling for the result
  --idempotency-key <k>  tag the submission; the server dedups repeats of
                      the same key onto the original job, so retries
                      never double-solve
  --retries <n>       retry submits/polls up to n extra times on connect
                      errors, 429, and 503, with capped exponential
                      backoff honoring Retry-After (default 2; 0 = off)
  --retry-base-ms <n> first backoff pause in milliseconds (default 100)

exit codes: 0 success (incl. anytime/recovered placements), 1 usage or
I/O or internal failure, 2 infeasible, 3 cancelled, 4 deadline expired
before any model, 5 conflict budget exhausted before any model. submit
maps the server-side result through the same table.

lint mode runs the AMS-Exxx pre-solve checks and exits nonzero iff any
error-severity diagnostic fires; --explain additionally asks the solver
which constraint families conflict when the lint is clean but the
instance is unsatisfiable; --presolve additionally runs the static
presolve analyzer (interval domains + capacity proofs) and exits 2 with
the proof's provenance when it derives infeasibility.
";

#[derive(PartialEq)]
enum Command {
    /// Place, or with `--close` run the closure loop.
    Place,
    Route,
    Lint,
    Serve,
    Submit,
    Shutdown,
}

struct Args {
    command: Command,
    design_path: Option<String>,
    demo: Option<(String, String)>,
    explain: bool,
    lint_presolve: bool,
    no_presolve: bool,
    out: Option<String>,
    svg: Option<String>,
    stats_json: Option<String>,
    do_route: bool,
    no_ams: bool,
    iters: usize,
    budget: u64,
    threads: Option<usize>,
    deadline_ms: Option<u64>,
    max_relax: Option<usize>,
    certify: bool,
    lambda_th: Option<u64>,
    quick: bool,
    close: bool,
    max_iters: Option<u64>,
    addr: String,
    bind: String,
    workers: usize,
    queue_cap: usize,
    no_wait: bool,
    journal_dir: Option<String>,
    resume: bool,
    resume_policy: ResumePolicy,
    idempotency_key: Option<String>,
    retries: u32,
    retry_base_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let defaults = JobOptions::default();
    let mut args = Args {
        command: Command::Place,
        design_path: None,
        demo: None,
        explain: false,
        lint_presolve: false,
        no_presolve: false,
        out: None,
        svg: None,
        stats_json: None,
        do_route: false,
        no_ams: false,
        iters: defaults.iters,
        budget: defaults.budget,
        threads: None,
        deadline_ms: None,
        max_relax: None,
        certify: false,
        lambda_th: None,
        quick: false,
        close: false,
        max_iters: None,
        addr: "127.0.0.1:7171".to_string(),
        bind: "127.0.0.1:7171".to_string(),
        workers: 2,
        queue_cap: 64,
        no_wait: false,
        journal_dir: None,
        resume: false,
        resume_policy: ResumePolicy::Rerun,
        idempotency_key: None,
        retries: 2,
        retry_base_ms: 100,
    };
    let mut first_positional = true;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "close" if first_positional => {
                args.close = true;
                first_positional = false;
            }
            "route" if first_positional => {
                args.command = Command::Route;
                first_positional = false;
            }
            "lint" if first_positional => {
                args.command = Command::Lint;
                first_positional = false;
            }
            "serve" if first_positional => {
                args.command = Command::Serve;
                first_positional = false;
            }
            "submit" if first_positional => {
                args.command = Command::Submit;
                first_positional = false;
            }
            "shutdown" if first_positional => {
                args.command = Command::Shutdown;
                first_positional = false;
            }
            "--demo" => {
                let which = value("--demo")?;
                let out = value("--demo")?;
                args.demo = Some((which, out));
            }
            "--explain" => args.explain = true,
            "--presolve" => args.lint_presolve = true,
            "--no-presolve" => args.no_presolve = true,
            "--out" => args.out = Some(value("--out")?),
            "--svg" => args.svg = Some(value("--svg")?),
            "--route" => args.do_route = true,
            "--no-ams" => args.no_ams = true,
            "--quick" => args.quick = true,
            "--iters" => {
                args.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?
            }
            "--budget" => {
                args.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(n);
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                if ms == 0 {
                    return Err("--deadline-ms must be positive".into());
                }
                args.deadline_ms = Some(ms);
            }
            "--max-relax" => {
                args.max_relax = Some(
                    value("--max-relax")?
                        .parse()
                        .map_err(|e| format!("--max-relax: {e}"))?,
                );
            }
            "--certify" => args.certify = true,
            "--close" => args.close = true,
            "--max-iters" => {
                let n: u64 = value("--max-iters")?
                    .parse()
                    .map_err(|e| format!("--max-iters: {e}"))?;
                if n == 0 {
                    return Err("--max-iters must be at least 1".into());
                }
                args.max_iters = Some(n);
            }
            "--lambda-th" => {
                args.lambda_th = Some(
                    value("--lambda-th")?
                        .parse()
                        .map_err(|e| format!("--lambda-th: {e}"))?,
                );
            }
            "--stats-json" => args.stats_json = Some(value("--stats-json")?),
            "--addr" => args.addr = value("--addr")?,
            "--bind" => args.bind = value("--bind")?,
            "--workers" => {
                let n: usize = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".into());
                }
                args.workers = n;
            }
            "--queue-cap" => {
                args.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--no-wait" => args.no_wait = true,
            "--journal-dir" => args.journal_dir = Some(value("--journal-dir")?),
            "--resume" => args.resume = true,
            "--resume-policy" => {
                args.resume_policy = match value("--resume-policy")?.as_str() {
                    "rerun" => ResumePolicy::Rerun,
                    "interrupt" => ResumePolicy::MarkInterrupted,
                    other => {
                        return Err(format!(
                            "--resume-policy must be rerun or interrupt, not {other:?}"
                        ))
                    }
                };
            }
            "--idempotency-key" => {
                let key = value("--idempotency-key")?;
                if key.is_empty() {
                    return Err("--idempotency-key must not be empty".into());
                }
                args.idempotency_key = Some(key);
            }
            "--retries" => {
                args.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--retry-base-ms" => {
                args.retry_base_ms = value("--retry-base-ms")?
                    .parse()
                    .map_err(|e| format!("--retry-base-ms: {e}"))?
            }
            "-h" | "--help" => return Err(String::new()),
            other if !other.starts_with('-') => {
                args.design_path = Some(other.to_string());
                first_positional = false;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if args.explain && args.command != Command::Lint {
        return Err("--explain only applies to the lint subcommand".into());
    }
    if args.lint_presolve && args.command != Command::Lint {
        return Err("--presolve only applies to the lint subcommand".into());
    }
    // The subcommands that solve here take an unset --threads or
    // --deadline-ms from the environment; submit sends only the flags it
    // was given, and the server reads no environment.
    if matches!(args.command, Command::Place | Command::Route) {
        let (threads, deadline_ms) = solver_env();
        args.threads = args.threads.or(threads);
        args.deadline_ms = args.deadline_ms.or(deadline_ms);
    }
    Ok(args)
}

/// The per-job solver knobs these CLI flags describe — shared verbatim
/// with the server wire format, so `amsplace submit` and a local run
/// configure the identical instance. A corpus scenario spec adds its
/// sweep point's die aspect.
fn job_options(args: &Args) -> JobOptions {
    let scenario = args
        .design_path
        .as_deref()
        .and_then(|spec| spec.strip_prefix("scenario:"))
        .and_then(|i| i.parse().ok())
        .filter(|&i| i < scenario::CORPUS_SIZE);
    JobOptions {
        quick: args.quick,
        iters: args.iters,
        budget: args.budget,
        threads: args.threads,
        deadline_ms: args.deadline_ms,
        max_relax: args.max_relax,
        lambda_th: args.lambda_th,
        no_ams: args.no_ams,
        certify: args.certify,
        presolve: !args.no_presolve,
        close: args.close,
        close_iters: args.max_iters,
        aspect: scenario.map(|i| scenario::scenario(i).aspect_ratio),
    }
}

/// Loads a design by benchmark name (`buf`, `vco`, `synthetic`), as a
/// closure-corpus entry (`scenario:<i>`), or from a JSON netlist file.
fn load_design(spec: &str) -> Result<Design, String> {
    if let Some(design) = benchmarks::by_name(spec) {
        return Ok(design);
    }
    if let Some(index) = spec.strip_prefix("scenario:") {
        let index: u32 = index
            .parse()
            .map_err(|e| format!("scenario index {index:?}: {e}"))?;
        if index >= scenario::CORPUS_SIZE {
            return Err(format!(
                "scenario index {index} out of range (corpus holds {})",
                scenario::CORPUS_SIZE
            ));
        }
        return Ok(scenario::scenario(index).design);
    }
    let json = std::fs::read_to_string(spec).map_err(|e| format!("reading {spec}: {e}"))?;
    Design::from_json(&json).map_err(|e| format!("parsing {spec}: {e}"))
}

/// The design and configuration a local place, close, route or lint run
/// works on: the [`PlaceRequest`] these flags describe, resolved by the
/// two calls the server makes ([`PlaceRequest::effective_design`] and
/// [`JobOptions::to_config`]). So `lint` judges the instance the solve
/// sees, and a local run solves the instance `submit` would. Without a
/// loadable design it says why and returns the exit code.
fn local_job(args: &Args) -> Result<(Design, PlacerConfig), ExitCode> {
    let Some(spec) = &args.design_path else {
        eprint!("{USAGE}");
        return Err(ExitCode::FAILURE);
    };
    let request = PlaceRequest {
        design: load_design(spec).map_err(|msg| {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        })?,
        options: job_options(args),
        idempotency_key: None,
    };
    Ok((request.effective_design(), request.options.to_config()))
}

/// The `amsplace lint` subcommand. Exits 2 when `--presolve` proves the
/// instance infeasible, 1 on error-severity diagnostics, 0 otherwise.
fn run_lint(args: &Args) -> ExitCode {
    let (design, config) = match local_job(args) {
        Ok(job) => job,
        Err(code) => return code,
    };
    let report = analysis::lint(&design, &config);
    if report.is_clean() {
        println!("{}: no findings", design.name());
    } else {
        println!("{report}");
    }
    if args.explain {
        if report.has_errors() {
            println!("explain: skipped (fix the errors above first)");
        } else {
            match analysis::explain_unsat(&design, &config) {
                UnsatOutcome::Feasible => println!("explain: satisfiable"),
                UnsatOutcome::Unknown => {
                    println!("explain: undecided within the conflict budget")
                }
                UnsatOutcome::Conflict(families) => {
                    let names: Vec<&str> = families.iter().map(|f| f.name()).collect();
                    println!(
                        "explain: UNSAT; conflicting constraint families: {}",
                        names.join(" + ")
                    );
                }
            }
        }
    }
    let mut presolve_infeasible = false;
    if args.lint_presolve {
        let presolve = analysis::presolve::presolve(&design, &config);
        for p in &presolve.passes {
            println!("presolve {} pass: {} ({})", p.pass, p.verdict, p.detail);
        }
        match presolve.conflict() {
            Some(conflict) => {
                println!("presolve: INFEASIBLE — {}", conflict.message());
                presolve_infeasible = true;
            }
            None => println!(
                "presolve: no infeasibility derived ({} variable bits prunable)",
                presolve.vars_saved_bits
            ),
        }
    }
    if presolve_infeasible {
        ExitCode::from(2)
    } else if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Maps a placement failure to its documented process exit code —
/// the shared table in [`ErrorKind::exit_code`].
fn place_exit_code(e: &PlaceError) -> ExitCode {
    ExitCode::from(ErrorKind::of(e).exit_code())
}

/// `amsplace close` and `amsplace <design> --close`: run the place → route
/// → tighten loop until the routing is overflow-free or the iteration
/// budget expires.
fn run_close(args: &Args) -> ExitCode {
    let (design, config) = match local_job(args) {
        Ok(job) => job,
        Err(code) => return code,
    };
    let opts = job_options(args).closure().unwrap_or_default();
    eprintln!(
        "closing {} ({} cells, {} nets, <= {} iterations)...",
        design.name(),
        design.cells().len(),
        design.nets().len(),
        opts.max_iters
    );
    let (placement, stats) = match close_placement(&design, config, &opts, RouterConfig::default())
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return place_exit_code(&e);
        }
    };
    if let Err(violations) = placement.verify(&design) {
        eprintln!("internal error: closed placement failed the legality oracle:");
        for v in violations.iter().take(5) {
            eprintln!("  {v}");
        }
        return ExitCode::FAILURE;
    }
    let trend: Vec<String> = stats.routed_wl_trend.iter().map(u64::to_string).collect();
    println!(
        "closed: {} iterations, {} hot windows tightened, routed WL [{}] tracks, {}",
        stats.iterations,
        stats.hot_windows.len(),
        trend.join(" -> "),
        if stats.drc_clean {
            "routed clean"
        } else {
            "overflow remains"
        }
    );
    if let Some(stats_path) = &args.stats_json {
        let doc = api::stats_to_json(&design, &placement);
        if let Err(e) = std::fs::write(stats_path, doc.pretty()) {
            eprintln!("error: writing {stats_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("stats written to {stats_path}");
    }
    if let Some(svg_path) = &args.svg {
        if let Err(e) = std::fs::write(svg_path, render_svg(&design, &placement)) {
            eprintln!("error: writing {svg_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("layout rendered to {svg_path}");
    }
    ExitCode::SUCCESS
}

/// The `amsplace route` subcommand: place once, route, and report total
/// and per-window congestion without running the closure loop.
fn run_route(args: &Args) -> ExitCode {
    let (design, config) = match local_job(args) {
        Ok(job) => job,
        Err(code) => return code,
    };
    eprintln!(
        "placing + routing {} ({} cells, {} nets)...",
        design.name(),
        design.cells().len(),
        design.nets().len()
    );
    let placement = match Placer::new(&design, config).and_then(|p| p.place()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return place_exit_code(&e);
        }
    };
    let routed = route(&design, &placement, RouterConfig::default());
    let probe = probe_windows(&placement);
    let per = window_congestion(&routed, &probe.rects);
    println!(
        "routed: {} tracks ({:.2} µm), {} vias, overflow {} after {} iterations",
        routed.wirelength,
        routed.wirelength_um(design.pitch()),
        routed.vias,
        routed.overflow,
        routed.iterations
    );
    for (origin, c) in probe.origins.iter().zip(&per) {
        if c.overflow > 0 {
            println!(
                "  window ({}, {}): overflow {}, {} wire tracks, {} vias",
                origin.0, origin.1, c.overflow, c.routed_wl, c.vias
            );
        }
    }
    if let Some(stats_path) = &args.stats_json {
        let windows: Vec<Json> = probe
            .origins
            .iter()
            .zip(&per)
            .map(|(o, c)| {
                Json::obj([
                    ("x", Json::uint(u64::from(o.0))),
                    ("y", Json::uint(u64::from(o.1))),
                    ("overflow", Json::uint(c.overflow)),
                    ("routed_wl", Json::uint(c.routed_wl)),
                    ("vias", Json::uint(c.vias)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("schema_version", Json::uint(api::SCHEMA_VERSION)),
            ("design", Json::str(design.name())),
            ("routed_wl_tracks", Json::uint(routed.wirelength)),
            (
                "routed_wl_um",
                Json::Num(routed.wirelength_um(design.pitch())),
            ),
            ("vias", Json::uint(routed.vias)),
            ("overflow", Json::uint(routed.overflow as u64)),
            ("iterations", Json::uint(routed.iterations as u64)),
            ("windows", Json::Arr(windows)),
        ]);
        if let Err(e) = std::fs::write(stats_path, doc.pretty()) {
            eprintln!("error: writing {stats_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("stats written to {stats_path}");
    }
    ExitCode::SUCCESS
}

/// The `amsplace serve` subcommand: bind, print the address, and block
/// until a client posts `/v1/shutdown`.
fn run_serve(args: &Args) -> ExitCode {
    let config = ServeConfig {
        bind: args.bind.clone(),
        workers: args.workers,
        queue_cap: args.queue_cap,
        journal_dir: args.journal_dir.clone().map(std::path::PathBuf::from),
        resume: args.resume,
        resume_policy: args.resume_policy,
        ..ServeConfig::default()
    };
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: starting on {}: {e}", args.bind);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "amsplace serving on http://{} ({} workers, queue {}{})",
        server.addr(),
        args.workers,
        args.queue_cap,
        match &args.journal_dir {
            Some(dir) => format!(", journaling to {dir}"),
            None => String::new(),
        },
    );
    if let Some(report) = server.recovery() {
        println!(
            "resumed from journal: {} done, {} requeued, {} re-run, {} interrupted",
            report.completed, report.requeued, report.reran, report.interrupted
        );
    }
    println!(
        "POST /v1/shutdown (or `amsplace shutdown --addr {}`) to stop",
        server.addr()
    );
    // Under CI the banner is how the smoke step learns the picked port;
    // flush so it lands before the (redirected, block-buffered) join.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    server.join();
    println!("amsplace server stopped");
    ExitCode::SUCCESS
}

/// The `amsplace submit` subcommand: send the design + flags as a
/// [`PlaceRequest`], then (unless `--no-wait`) poll until the job is
/// terminal and exit with the job's own code.
fn run_submit(args: &Args) -> ExitCode {
    let Some(spec) = &args.design_path else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let design = match load_design(spec) {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let request = PlaceRequest {
        design,
        options: job_options(args),
        idempotency_key: args.idempotency_key.clone(),
    };
    let retry = retry_policy(args);
    let accepted =
        match client::post_with_retry(&args.addr, "/v1/jobs", Some(&request.to_json()), &retry) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("error: submitting to {}: {e}", args.addr);
                return ExitCode::FAILURE;
            }
        };
    if accepted.status != 202 {
        eprintln!(
            "error: server rejected the job (HTTP {}): {}",
            accepted.status,
            accepted
                .body
                .field("error")
                .and_then(Json::as_str)
                .unwrap_or("?")
        );
        return ExitCode::FAILURE;
    }
    let Some(job_id) = accepted.body.field("job_id").and_then(Json::as_u64) else {
        eprintln!("error: malformed accept reply: {}", accepted.body.pretty());
        return ExitCode::FAILURE;
    };
    let deduplicated = accepted
        .body
        .field("deduplicated")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    if deduplicated {
        println!(
            "job {job_id} deduplicated on {} (idempotency key matched an earlier submit)",
            args.addr
        );
    } else {
        println!("job {job_id} queued on {}", args.addr);
    }
    if args.no_wait {
        return ExitCode::SUCCESS;
    }

    let path = format!("/v1/jobs/{job_id}");
    loop {
        std::thread::sleep(std::time::Duration::from_millis(50));
        let view = match client::get_with_retry(&args.addr, &path, &retry) {
            Ok(reply) if reply.status == 200 => reply.body,
            Ok(reply) => {
                eprintln!("error: polling job {job_id}: HTTP {}", reply.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: polling job {job_id}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let terminal = view
            .field("status")
            .and_then(Json::as_str)
            .and_then(api::JobStatus::parse)
            .is_some_and(api::JobStatus::is_terminal);
        if !terminal {
            continue;
        }
        let Some(doc) = view.field("response").filter(|r| !r.is_null()) else {
            eprintln!("error: terminal job {job_id} carries no response");
            return ExitCode::FAILURE;
        };
        let response = match PlaceResponse::from_json(doc) {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("error: malformed response for job {job_id}: {msg}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(stats_path) = &args.stats_json {
            let stats = response.stats.clone().unwrap_or(Json::Null);
            if let Err(e) = std::fs::write(stats_path, stats.pretty()) {
                eprintln!("error: writing {stats_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("{}", doc.pretty());
        return ExitCode::from(response.exit_code());
    }
}

/// The client pacing the `--retries`/`--retry-base-ms` flags describe.
/// The jitter seed varies per process so a fleet of retrying CLIs
/// decorrelates instead of thundering in lockstep.
fn retry_policy(args: &Args) -> client::RetryPolicy {
    client::RetryPolicy {
        max_attempts: args.retries.saturating_add(1),
        base: std::time::Duration::from_millis(args.retry_base_ms),
        seed: u64::from(std::process::id()),
        ..client::RetryPolicy::default()
    }
}

/// The `amsplace shutdown` subcommand.
fn run_shutdown(args: &Args) -> ExitCode {
    match client::post(&args.addr, "/v1/shutdown", None) {
        Ok(reply) if reply.status == 200 => {
            println!("server at {} stopping", args.addr);
            ExitCode::SUCCESS
        }
        Ok(reply) => {
            eprintln!("error: shutdown got HTTP {}", reply.status);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: contacting {}: {e}", args.addr);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    match args.command {
        Command::Route => return run_route(&args),
        Command::Lint => return run_lint(&args),
        Command::Serve => return run_serve(&args),
        Command::Submit => return run_submit(&args),
        Command::Shutdown => return run_shutdown(&args),
        Command::Place => {}
    }

    if let Some((which, out)) = &args.demo {
        let Some(design) = benchmarks::by_name(which) else {
            eprintln!("error: unknown demo {which:?} (buf|vco|synthetic)");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(out, design.to_json()) {
            eprintln!("error: writing {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {} ({} cells, {} nets, {} regions)",
            out,
            design.cells().len(),
            design.nets().len(),
            design.regions().len()
        );
        return ExitCode::SUCCESS;
    }
    if args.close {
        return run_close(&args);
    }

    let (design, config) = match local_job(&args) {
        Ok(job) => job,
        Err(code) => return code,
    };

    eprintln!(
        "placing {} ({} cells, {} nets)...",
        design.name(),
        design.cells().len(),
        design.nets().len()
    );
    // `Placer::new`, not the builder: the flags, environment included, are
    // already settled in `config`, and the builder would let the
    // environment beat an explicit flag.
    let placement = match Placer::new(&design, config).and_then(|p| p.place()) {
        Ok(p) => p,
        Err(PlaceError::Lint(report)) => {
            eprintln!("error: the design fails the pre-solve lint:");
            eprintln!("{report}");
            let path = args.design_path.as_deref().unwrap_or_default();
            eprintln!("hint: `amsplace lint {path}` re-runs these checks standalone");
            return ExitCode::FAILURE;
        }
        Err(PlaceError::Infeasible {
            conflict,
            provenance,
            certificate,
        }) => {
            eprintln!("error: no legal placement exists for the sized die");
            if conflict.is_empty() {
                eprintln!("(no conflict attribution available)");
            } else {
                let names: Vec<&str> = conflict.iter().map(|f| f.name()).collect();
                eprintln!("conflicting constraint families: {}", names.join(" + "));
                for line in &provenance {
                    eprintln!("  {line}");
                }
            }
            match certificate.as_deref() {
                Some(proof) => match drat::check(proof) {
                    Ok(stats) => eprintln!(
                        "certificate: UNSAT proof checked ({} CNF clauses, {} steps, \
                         {} verified lemmas)",
                        proof.clauses.len(),
                        proof.steps.len(),
                        stats.verified_additions,
                    ),
                    Err(e) => {
                        eprintln!("internal error: UNSAT certificate rejected: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None if args.certify => {
                    eprintln!("certificate: none captured (infeasibility predates solving)");
                }
                None => {}
            }
            return place_exit_code(&PlaceError::Infeasible {
                conflict,
                provenance,
                certificate: None,
            });
        }
        Err(e) => {
            eprintln!("error: {e}");
            return place_exit_code(&e);
        }
    };
    if let Err(violations) = placement.verify(&design) {
        eprintln!("internal error: placement failed the legality oracle:");
        for v in violations.iter().take(5) {
            eprintln!("  {v}");
        }
        return ExitCode::FAILURE;
    }

    println!(
        "placed: die {}x{} grid units ({:.2} µm²), HPWL {:.2} µm, {} iterations in {:?}",
        placement.die.w,
        placement.die.h,
        placement.area_um2(&design),
        placement.hpwl_um(&design),
        placement.stats.iterations,
        placement.stats.runtime
    );
    match &placement.stats.outcome {
        PlaceOutcome::Optimal => {}
        PlaceOutcome::Anytime { .. } => {
            println!("outcome: {}", placement.stats.outcome);
        }
        PlaceOutcome::Recovered { relaxations } => {
            println!("outcome: {}", placement.stats.outcome);
            for r in relaxations {
                println!("  rung: {r}");
            }
        }
    }
    if let Some(c) = &placement.stats.certify {
        println!(
            "certified: {} CNF clauses, {} proof steps, model re-verified \
             ({} violations)",
            c.cnf_clauses, c.proof_steps, c.model_violations
        );
    }
    if placement.stats.threads > 1 {
        let winner = placement
            .stats
            .winner
            .map_or_else(|| "-".to_string(), |w| w.to_string());
        println!(
            "portfolio: {} workers, winner {winner}",
            placement.stats.threads
        );
        for w in &placement.stats.workers {
            println!(
                "  worker {}: {} conflicts, {} decisions, {} restarts, shared {} out / {} in{}",
                w.id,
                w.conflicts,
                w.decisions,
                w.restarts,
                w.exported,
                w.imported,
                if w.panicked { " [panicked]" } else { "" }
            );
        }
    }
    if let Some(stats_path) = &args.stats_json {
        let doc = api::stats_to_json(&design, &placement);
        if let Err(e) = std::fs::write(stats_path, doc.pretty()) {
            eprintln!("error: writing {stats_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("stats written to {stats_path}");
    }

    if args.do_route {
        let routed = route(&design, &placement, RouterConfig::default());
        println!(
            "routed: {:.2} µm wire, {} vias, overflow {}",
            routed.wirelength_um(design.pitch()),
            routed.vias,
            routed.overflow
        );
    }
    if let Some(svg_path) = &args.svg {
        if let Err(e) = std::fs::write(svg_path, render_svg(&design, &placement)) {
            eprintln!("error: writing {svg_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("layout rendered to {svg_path}");
    }
    if let Some(out) = &args.out {
        let doc = Json::obj([
            ("design", Json::str(design.name())),
            (
                "die",
                Json::obj([
                    ("w", Json::uint(u64::from(placement.die.w))),
                    ("h", Json::uint(u64::from(placement.die.h))),
                ]),
            ),
            ("cells", api::cells_to_json(&design, &placement)),
        ]);
        if let Err(e) = std::fs::write(out, doc.pretty()) {
            eprintln!("error: writing {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("placement written to {out}");
    }
    ExitCode::SUCCESS
}
