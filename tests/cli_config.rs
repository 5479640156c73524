//! Every `amsplace` subcommand that solves builds its configuration the
//! way the server does, from `JobOptions::to_config`: `--threads` and
//! `--deadline-ms` reach `close` and `route` as they reach a plain
//! placement, `--close` runs the closure loop as `close` does, the
//! environment fills only what the flags left unset, and `lint` judges
//! the instance the solve sees. A served job reads no environment at all,
//! and solves the instance a local run of the same spec solves.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use finfet_ams_place::netlist::json::Json;

/// `amsplace` with the solver environment variables cleared, so an
/// ambient `AMSPLACE_THREADS` or `AMSPLACE_DEADLINE_MS` cannot decide a
/// test.
fn amsplace(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_amsplace"));
    cmd.args(args)
        .env_remove("AMSPLACE_THREADS")
        .env_remove("AMSPLACE_DEADLINE_MS")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// Runs `cmd` with `--stats-json` into a temp file and returns the document.
fn stats_of(mut cmd: Command, tag: &str) -> Json {
    let path = std::env::temp_dir().join(format!(
        "amsplace_cli_config_{}_{tag}.json",
        std::process::id()
    ));
    let status = cmd
        .arg("--stats-json")
        .arg(&path)
        .status()
        .expect("amsplace runs");
    assert!(status.success(), "{tag}: amsplace failed: {status:?}");
    let text = std::fs::read_to_string(&path).expect("stats file written");
    std::fs::remove_file(&path).ok();
    Json::parse(&text).expect("stats file is valid JSON")
}

fn threads(doc: &Json) -> u64 {
    doc.field("threads")
        .and_then(Json::as_u64)
        .expect("stats carry the thread count")
}

#[test]
fn close_solves_on_the_threads_it_was_given() {
    let doc = stats_of(
        amsplace(&["close", "synthetic", "--quick", "--threads", "2"]),
        "close_threads",
    );
    assert_eq!(threads(&doc), 2);
}

#[test]
fn the_close_flag_runs_the_closure_loop_locally() {
    // `amsplace <design> --close` is `amsplace close <design>`.
    let doc = stats_of(amsplace(&["synthetic", "--quick", "--close"]), "close_flag");
    let ran = doc
        .field("closure")
        .and_then(|c| c.field("ran"))
        .and_then(Json::as_bool);
    assert_eq!(ran, Some(true));
}

#[test]
fn the_environment_fills_an_unset_thread_count() {
    let mut cmd = amsplace(&["close", "synthetic", "--quick"]);
    cmd.env("AMSPLACE_THREADS", "2");
    assert_eq!(threads(&stats_of(cmd, "close_env")), 2);

    // An explicit flag beats the environment.
    let mut cmd = amsplace(&["synthetic", "--quick", "--threads", "1"]);
    cmd.env("AMSPLACE_THREADS", "2");
    assert_eq!(threads(&stats_of(cmd, "place_flag")), 1);
}

#[test]
fn close_and_route_honor_the_deadline() {
    // The quick synthetic design needs thousands of conflicts for its
    // first model, far more than 1 ms: every solving subcommand must
    // stop before it with exit code 4.
    for sub in [&["close"][..], &["route"], &[]] {
        let mut args = sub.to_vec();
        args.extend(["synthetic", "--quick", "--deadline-ms", "1"]);
        let status = amsplace(&args).status().expect("amsplace runs");
        assert_eq!(status.code(), Some(4), "amsplace {args:?}");
    }
}

#[test]
fn lint_prunes_the_bits_the_solve_prunes() {
    let out = amsplace(&["lint", "synthetic", "--quick", "--presolve"])
        .stdout(Stdio::piped())
        .output()
        .expect("amsplace lint runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 lint output");
    let linted: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("presolve: no infeasibility derived ("))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no prunable-bits line in:\n{stdout}"));

    let doc = stats_of(amsplace(&["synthetic", "--quick"]), "lint_bits");
    let solved = doc
        .field("presolve")
        .and_then(|p| p.field("vars_saved_bits"))
        .and_then(Json::as_u64)
        .expect("stats carry the presolve savings");
    assert_eq!(linted, solved);
}

/// A spawned server, killed on drop so a failing test leaks no process.
struct ServerProc(Child);

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `amsplace serve` on an ephemeral port under `env`, with the address it
/// bound and a thread draining its stdout so it never blocks on a full
/// pipe.
struct Server {
    child: ServerProc,
    addr: String,
    drain: std::thread::JoinHandle<()>,
}

impl Server {
    fn start(env: &[(&str, &str)]) -> Server {
        let mut server = Command::new(env!("CARGO_BIN_EXE_amsplace"));
        server
            .args(["serve", "--bind", "127.0.0.1:0", "--workers", "1"])
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = ServerProc(server.spawn().expect("spawn amsplace serve"));
        let mut lines = BufReader::new(child.0.stdout.take().expect("piped stdout")).lines();
        let addr = lines
            .by_ref()
            .map_while(Result::ok)
            .find_map(|line| {
                let rest = line.strip_prefix("amsplace serving on http://")?;
                rest.split_whitespace().next().map(str::to_string)
            })
            .expect("the banner names the bound address");
        let drain = std::thread::spawn(move || lines.for_each(drop));
        Server { child, addr, drain }
    }

    fn shutdown(self) {
        let shutdown = amsplace(&["shutdown", "--addr", &self.addr]).status();
        assert!(matches!(&shutdown, Ok(s) if s.success()), "{shutdown:?}");
        drop(self.child);
        self.drain.join().expect("stdout drain");
    }
}

#[test]
fn served_jobs_ignore_the_environment() {
    // Server and client both run under an environment that would ask for
    // two threads and a deadline no solve can meet. The job must still
    // solve on one thread to completion.
    let env = [("AMSPLACE_THREADS", "2"), ("AMSPLACE_DEADLINE_MS", "1")];
    let server = Server::start(&env);
    let mut submit = amsplace(&["submit", "synthetic", "--quick", "--addr", &server.addr]);
    submit.envs(env);
    let doc = stats_of(submit, "served");
    server.shutdown();
    assert_eq!(threads(&doc), 1);
    assert!(doc.field("outcome").and_then(Json::as_str).is_some());
}

#[test]
fn served_scenarios_keep_their_die_aspect() {
    // Scenario 666's sweep point asks for a 2:1 die. Through `submit` the
    // request must carry it, so both runs solve one instance and agree on
    // its first model. (`--iters 0` stops there: the server keeps its
    // placers reusable, which guards the ζ bounds of later rounds behind
    // a selector, so a later round may take another path.)
    let args = ["scenario:666", "--quick", "--iters", "0"];
    let local = stats_of(amsplace(&args), "scenario_local");
    let server = Server::start(&[]);
    let mut submit = amsplace(&["submit", "--addr", &server.addr]);
    submit.args(args);
    let served = stats_of(submit, "scenario_served");
    server.shutdown();
    let die = |doc: &Json| {
        let die = doc.field("die").expect("stats carry the die");
        (
            die.field("w").and_then(Json::as_u64),
            die.field("h").and_then(Json::as_u64),
        )
    };
    let (w, h) = die(&local);
    assert!(w > h, "scenario 666 places on a wide die: {w:?} x {h:?}");
    assert_eq!(die(&served), (w, h));
    let hpwl = |doc: &Json| doc.field("hpwl_um").and_then(Json::as_f64);
    assert!(hpwl(&local).is_some());
    assert_eq!(hpwl(&served), hpwl(&local));
}
