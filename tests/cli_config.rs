//! Every `amsplace` subcommand that solves builds its configuration the
//! way the server does, from `JobOptions::to_config`: `--threads` and
//! `--deadline-ms` reach `close` and `route` as they reach a plain
//! placement, `--close` runs the closure loop as `close` does, the
//! environment fills only what the flags left unset, and `lint` judges
//! the instance the solve sees. A served job reads no environment at all.

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

#[test]
fn served_jobs_ignore_the_environment() {
    // Server and client both run under an environment that would ask for
    // two threads and a deadline no solve can meet. The job must still
    // solve on one thread to completion.
    let env = [("AMSPLACE_THREADS", "2"), ("AMSPLACE_DEADLINE_MS", "1")];
    let mut server = Command::new(env!("CARGO_BIN_EXE_amsplace"));
    server
        .args(["serve", "--bind", "127.0.0.1:0", "--workers", "1"])
        .envs(env)
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
    // Keep draining stdout so the server never blocks on a full pipe.
    let drain = std::thread::spawn(move || lines.for_each(drop));

    let mut submit = amsplace(&["submit", "synthetic", "--quick", "--addr", &addr]);
    submit.envs(env);
    let doc = stats_of(submit, "served");
    let shutdown = amsplace(&["shutdown", "--addr", &addr]).status();
    assert!(matches!(&shutdown, Ok(s) if s.success()), "{shutdown:?}");
    drop(child);
    drain.join().expect("stdout drain");
    assert_eq!(threads(&doc), 1);
    assert!(doc.field("outcome").and_then(Json::as_str).is_some());
}
