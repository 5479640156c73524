//! Golden-schema test for `amsplace --stats-json`: downstream dashboards
//! parse this document, so the field set is a contract. Adding a field
//! means updating the goldens here *and* the consumers; removing or
//! renaming one is a breaking change this test is meant to catch.

use finfet_ams_place::netlist::json::Json;
use std::collections::BTreeSet;
use std::process::Command;

const TOP_LEVEL_FIELDS: &[&str] = &[
    "area_um2",
    "certify",
    "closure",
    "conflicts",
    "design",
    "die",
    "families",
    "hpwl_trace",
    "hpwl_um",
    "iterations",
    "lowering_ms",
    "outcome",
    "outcome_detail",
    "presolve",
    "rungs",
    "runtime_ms",
    "sat_clauses",
    "sat_vars",
    "schema_version",
    "threads",
    "warm",
    "winner",
    "workers",
];

const WORKER_FIELDS: &[&str] = &[
    "conflicts",
    "decisions",
    "exported",
    "id",
    "imported",
    "panic_message",
    "panicked",
    "restarts",
];

const CERTIFY_FIELDS: &[&str] = &["cnf_clauses", "model_violations", "proof_steps"];

const FAMILY_FIELDS: &[&str] = &["clauses", "constraints", "family"];

const PRESOLVE_FIELDS: &[&str] = &["passes", "ran", "vars_saved_bits", "verdict"];

const PRESOLVE_PASS_FIELDS: &[&str] = &["detail", "pass", "verdict"];

const CLOSURE_FIELDS: &[&str] = &[
    "drc_clean",
    "hot_windows",
    "iterations",
    "ran",
    "routed_wl_trend",
];

const CLOSURE_WINDOW_FIELDS: &[&str] = &["x", "y"];

fn keys(doc: &Json) -> BTreeSet<String> {
    match doc {
        Json::Obj(map) => map.keys().cloned().collect(),
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

fn run_amsplace(extra: &[&str]) -> Json {
    run_amsplace_with(&["synthetic"], extra)
}

fn run_amsplace_with(head: &[&str], extra: &[&str]) -> Json {
    let dir = std::env::temp_dir().join(format!("amsplace_schema_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let stats = dir.join(format!("stats_{}_{}.json", head.len(), extra.len()));
    let status = Command::new(env!("CARGO_BIN_EXE_amsplace"))
        .args(head)
        .arg("--quick")
        .args(["--stats-json", stats.to_str().expect("utf-8 temp path")])
        .args(extra)
        .status()
        .expect("amsplace runs");
    assert!(status.success(), "amsplace failed: {status:?}");
    let text = std::fs::read_to_string(&stats).expect("stats file written");
    std::fs::remove_file(&stats).ok();
    Json::parse(&text).expect("stats file is valid JSON")
}

#[test]
fn stats_json_matches_the_golden_schema() {
    let doc = run_amsplace(&[]);
    let expected: BTreeSet<String> = TOP_LEVEL_FIELDS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        keys(&doc),
        expected,
        "top-level stats-json field set changed — update goldens and consumers"
    );

    let Json::Obj(map) = &doc else { unreachable!() };
    assert_eq!(
        map["schema_version"],
        Json::uint(finfet_ams_place::place::api::SCHEMA_VERSION),
        "schema_version must match the API surface"
    );
    // A cold CLI run never reports warm-solver reuse; the field is a
    // contract for the service, present-but-null locally.
    assert!(matches!(map["warm"], Json::Null));
    assert!(matches!(map["design"], Json::Str(_)));
    assert!(matches!(map["outcome"], Json::Str(_)));
    assert!(matches!(map["iterations"], Json::Num(_)));
    assert!(matches!(map["hpwl_trace"], Json::Arr(_)));
    assert_eq!(
        keys(&map["die"]),
        ["h", "w"].iter().map(|s| s.to_string()).collect()
    );
    // Certify was off, so the field must be present but null.
    assert!(matches!(map["certify"], Json::Null));

    // A feasible run takes no recovery rungs, but the field is a contract.
    let Json::Arr(rungs) = &map["rungs"] else {
        panic!("rungs must be an array");
    };
    assert!(rungs.is_empty(), "feasible run reported recovery rungs");

    let Json::Arr(families) = &map["families"] else {
        panic!("families must be an array");
    };
    assert!(
        !families.is_empty(),
        "per-family constraint stats must be populated"
    );
    let expected_family: BTreeSet<String> = FAMILY_FIELDS.iter().map(|s| s.to_string()).collect();
    for f in families {
        assert_eq!(keys(f), expected_family, "per-family field set changed");
    }

    let Json::Arr(workers) = &map["workers"] else {
        panic!("workers must be an array");
    };
    let expected_worker: BTreeSet<String> = WORKER_FIELDS.iter().map(|s| s.to_string()).collect();
    for w in workers {
        assert_eq!(keys(w), expected_worker, "per-worker field set changed");
    }

    // A plain placement never runs the closure loop: the object keeps its
    // constant shape with `ran: false`, like `presolve` when disabled.
    assert_closure_shape(&map["closure"]);
    let Json::Obj(cl) = &map["closure"] else {
        unreachable!()
    };
    assert_eq!(cl["ran"], Json::Bool(false));
    assert_eq!(cl["iterations"], Json::Num(0.0));
    assert_eq!(cl["drc_clean"], Json::Bool(false));
    assert!(matches!(&cl["hot_windows"], Json::Arr(v) if v.is_empty()));
    assert!(matches!(&cl["routed_wl_trend"], Json::Arr(v) if v.is_empty()));

    // Presolve runs by default: the object is filled, the feasible verdict
    // recorded, and both analyzer passes reported.
    assert_presolve_shape(&map["presolve"]);
    let Json::Obj(ps) = &map["presolve"] else {
        unreachable!()
    };
    assert_eq!(ps["ran"], Json::Bool(true));
    assert_eq!(ps["verdict"], Json::str("feasible"));
    let Json::Arr(passes) = &ps["passes"] else {
        panic!("passes must be an array");
    };
    assert_eq!(passes.len(), 2, "domain + capacity passes expected");
}

fn assert_presolve_shape(ps: &Json) {
    let expected: BTreeSet<String> = PRESOLVE_FIELDS.iter().map(|s| s.to_string()).collect();
    assert_eq!(keys(ps), expected, "presolve field set changed");
    let Json::Obj(map) = ps else { unreachable!() };
    let expected_pass: BTreeSet<String> =
        PRESOLVE_PASS_FIELDS.iter().map(|s| s.to_string()).collect();
    let Json::Arr(passes) = &map["passes"] else {
        panic!("presolve.passes must be an array");
    };
    for p in passes {
        assert_eq!(keys(p), expected_pass, "presolve pass field set changed");
    }
}

fn assert_closure_shape(cl: &Json) {
    let expected: BTreeSet<String> = CLOSURE_FIELDS.iter().map(|s| s.to_string()).collect();
    assert_eq!(keys(cl), expected, "closure field set changed");
    let Json::Obj(map) = cl else { unreachable!() };
    assert!(matches!(map["ran"], Json::Bool(_)));
    assert!(matches!(map["drc_clean"], Json::Bool(_)));
    let Json::Arr(windows) = &map["hot_windows"] else {
        panic!("closure.hot_windows must be an array");
    };
    let expected_window: BTreeSet<String> = CLOSURE_WINDOW_FIELDS
        .iter()
        .map(|s| s.to_string())
        .collect();
    for w in windows {
        assert_eq!(keys(w), expected_window, "closure window field set changed");
    }
    assert!(matches!(&map["routed_wl_trend"], Json::Arr(_)));
}

#[test]
fn closure_runs_fill_the_closure_object() {
    let doc = run_amsplace_with(&["close", "synthetic"], &["--max-iters", "3"]);
    let Json::Obj(map) = &doc else {
        panic!("stats must be an object")
    };
    assert_closure_shape(&map["closure"]);
    let Json::Obj(cl) = &map["closure"] else {
        unreachable!()
    };
    assert_eq!(cl["ran"], Json::Bool(true));
    let Json::Num(iterations) = cl["iterations"] else {
        panic!("closure.iterations must be a number");
    };
    assert!(iterations >= 1.0, "a closure run reports its iterations");
    let Json::Arr(trend) = &cl["routed_wl_trend"] else {
        unreachable!()
    };
    assert_eq!(
        trend.len(),
        iterations as usize,
        "one routed-WL sample per iteration"
    );
}

#[test]
fn disabled_presolve_keeps_the_schema_stable() {
    let doc = run_amsplace(&["--no-presolve"]);
    let Json::Obj(map) = &doc else {
        panic!("stats must be an object")
    };
    assert_presolve_shape(&map["presolve"]);
    let Json::Obj(ps) = &map["presolve"] else {
        unreachable!()
    };
    assert_eq!(ps["ran"], Json::Bool(false));
    assert_eq!(ps["verdict"], Json::str("skipped"));
}

#[test]
fn certified_runs_fill_the_certify_object() {
    let doc = run_amsplace(&["--certify"]);
    let Json::Obj(map) = &doc else {
        panic!("stats must be an object")
    };
    let expected: BTreeSet<String> = CERTIFY_FIELDS.iter().map(|s| s.to_string()).collect();
    assert_eq!(keys(&map["certify"]), expected, "certify field set changed");
    let Json::Obj(c) = &map["certify"] else {
        unreachable!()
    };
    assert_eq!(c["model_violations"], Json::Num(0.0));
}

#[test]
fn portfolio_runs_report_every_worker() {
    let doc = run_amsplace(&["--threads", "2"]);
    let Json::Obj(map) = &doc else {
        panic!("stats must be an object")
    };
    assert_eq!(map["threads"], Json::Num(2.0));
    let Json::Arr(workers) = &map["workers"] else {
        panic!("workers must be an array");
    };
    assert_eq!(workers.len(), 2);
}
