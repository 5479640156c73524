//! End-to-end service tests over a loopback HTTP server: parallel job
//! fan-in, mid-flight cancellation of placements and closure loops,
//! deadline degradation, exact-cache determinism, λ_th-only warm
//! re-solves, and malformed designs.
//!
//! Designs are tiny synthetics and every job runs with explicit
//! single-thread options, so the suite is deterministic and stays in
//! test-suite territory even on one core.

use std::time::{Duration, Instant};

use ams_netlist::benchmarks::{self, SyntheticParams};
use ams_netlist::json::Json;
use ams_place::api::{JobOptions, JobStatus, PlaceRequest};
use ams_serve::{client, ServeConfig, Server};

/// Small two-region synthetic, the same shape the core warm-reuse tests
/// use: big enough to leave learnt clauses, small enough to solve in
/// well under a second per job.
fn small_design() -> ams_netlist::Design {
    benchmarks::synthetic(SyntheticParams {
        regions: 2,
        cells_per_region: 6,
        nets: 10,
        net_degree: 3,
        symmetry_pairs: 1,
        ..Default::default()
    })
}

/// A larger instance whose full-budget solve takes long enough that a
/// cancel reliably lands mid-flight, and a 1 ms deadline expires before
/// its first model.
fn slow_design() -> ams_netlist::Design {
    benchmarks::synthetic(SyntheticParams {
        regions: 2,
        cells_per_region: 10,
        nets: 20,
        net_degree: 3,
        symmetry_pairs: 2,
        ..Default::default()
    })
}

fn quick_options() -> JobOptions {
    JobOptions {
        quick: true,
        ..JobOptions::default()
    }
}

fn start_server(workers: usize) -> Server {
    Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .expect("bind loopback server")
}

fn submit(server: &Server, request: &PlaceRequest) -> u64 {
    let reply = client::post(server.addr(), "/v1/jobs", Some(&request.to_json()))
        .expect("submit over loopback");
    assert_eq!(reply.status, 202, "{}", reply.body.pretty());
    reply
        .body
        .field("job_id")
        .and_then(Json::as_u64)
        .expect("accept reply carries job_id")
}

fn poll(server: &Server, id: u64) -> Json {
    let reply = client::get(server.addr(), &format!("/v1/jobs/{id}")).expect("poll job");
    assert_eq!(reply.status, 200, "{}", reply.body.pretty());
    reply.body
}

fn status_of(view: &Json) -> JobStatus {
    view.field("status")
        .and_then(Json::as_str)
        .and_then(JobStatus::parse)
        .expect("job view carries a status")
}

/// Polls until the job is terminal (or the deadline passes) and returns
/// the embedded response document.
fn wait_terminal(server: &Server, id: u64, deadline: Duration) -> Json {
    let t0 = Instant::now();
    loop {
        let view = poll(server, id);
        if status_of(&view).is_terminal() {
            let response = view.field("response").expect("terminal job has a response");
            assert!(!response.is_null(), "terminal job embeds its response");
            return response.clone();
        }
        assert!(
            t0.elapsed() < deadline,
            "job {id} still {:?} after {deadline:?}",
            status_of(&view)
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn eight_parallel_jobs_all_complete() {
    let server = start_server(4);
    let design = small_design();

    // Eight jobs, each with distinct options (the iteration knob) so
    // none of them short-circuits through the exact cache.
    let ids: Vec<u64> = (1..=8)
        .map(|iters| {
            submit(
                &server,
                &PlaceRequest {
                    design: design.clone(),
                    options: JobOptions {
                        iters,
                        ..quick_options()
                    },
                    idempotency_key: None,
                },
            )
        })
        .collect();
    assert_eq!(ids.len(), 8);

    for &id in &ids {
        let response = wait_terminal(&server, id, Duration::from_secs(300));
        assert_eq!(
            response.field("status").and_then(Json::as_str),
            Some("done"),
            "job {id}: {}",
            response.pretty()
        );
    }

    let stats = client::get(server.addr(), "/v1/stats").expect("stats").body;
    assert_eq!(stats.field("completed").and_then(Json::as_u64), Some(8));
    assert_eq!(stats.field("queue_depth").and_then(Json::as_u64), Some(0));

    server.shutdown();
    server.join();
}

#[test]
fn identical_requests_hit_the_exact_cache_bit_for_bit() {
    let server = start_server(1);
    let request = PlaceRequest {
        design: small_design(),
        options: quick_options(),
        idempotency_key: None,
    };

    let first_id = submit(&server, &request);
    let first = wait_terminal(&server, first_id, Duration::from_secs(120));
    assert_eq!(first.field("status").and_then(Json::as_str), Some("done"));
    assert_eq!(first.field("cached").and_then(Json::as_bool), Some(false));

    let second_id = submit(&server, &request);
    assert_ne!(second_id, first_id);
    let second = wait_terminal(&server, second_id, Duration::from_secs(120));
    assert_eq!(second.field("cached").and_then(Json::as_bool), Some(true));

    // The replay is the stored result verbatim: identical placements,
    // identical stats — only the cache marker differs.
    assert_eq!(
        first.field("cells").map(Json::pretty),
        second.field("cells").map(Json::pretty),
        "cached placement must be bit-identical"
    );
    assert_eq!(
        first.field("stats").map(Json::pretty),
        second.field("stats").map(Json::pretty)
    );

    let stats = client::get(server.addr(), "/v1/stats").expect("stats").body;
    assert_eq!(stats.field("exact_hits").and_then(Json::as_u64), Some(1));

    server.shutdown();
    server.join();
}

#[test]
fn lambda_only_change_resolves_warm_with_pin_density_relowered() {
    let server = start_server(1);
    let design = small_design();
    // λ = 14 is the auto-calibrated threshold for this design and λ = 16
    // still binds some windows, so both configurations emit pin-density
    // records and the IR diff is a pure pin-density delta.
    let job = |lambda: u64| PlaceRequest {
        design: design.clone(),
        options: JobOptions {
            lambda_th: Some(lambda),
            ..quick_options()
        },
        idempotency_key: None,
    };

    let cold_id = submit(&server, &job(14));
    let cold = wait_terminal(&server, cold_id, Duration::from_secs(120));
    assert_eq!(cold.field("status").and_then(Json::as_str), Some("done"));
    let cold_warm = cold.field("stats").and_then(|s| s.field("warm")).unwrap();
    assert!(cold_warm.is_null(), "cold job must not report warm stats");

    let warm_id = submit(&server, &job(16));
    let warm = wait_terminal(&server, warm_id, Duration::from_secs(120));
    assert_eq!(warm.field("status").and_then(Json::as_str), Some("done"));
    let warm_stats = warm.field("stats").and_then(|s| s.field("warm")).unwrap();
    let relowered: Vec<&str> = warm_stats
        .field("relowered")
        .and_then(Json::items)
        .expect("warm job reports relowered families")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(
        relowered,
        ["pin-density"],
        "only the pin-density family re-lowers on a λ_th move"
    );
    let carried = warm_stats
        .field("learnts_carried")
        .and_then(Json::as_u64)
        .expect("warm stats carry the learnt-clause count");
    assert!(carried > 0, "the cold solve must leave clauses to carry");

    let stats = client::get(server.addr(), "/v1/stats").expect("stats").body;
    assert_eq!(
        stats.field("warm_relowered").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(stats.field("cold_builds").and_then(Json::as_u64), Some(1));

    server.shutdown();
    server.join();
}

#[test]
fn cancel_lands_mid_flight() {
    cancel_a_running_job(false);
}

#[test]
fn cancel_lands_mid_flight_in_a_closure_job() {
    cancel_a_running_job(true);
}

/// Cancels a running job, a plain placement or a routing-closure loop,
/// and expects the `cancelled` response.
fn cancel_a_running_job(close: bool) {
    let server = start_server(1);
    // Full default budgets on the larger design: minutes of solving if
    // left alone, with a deadline backstop so a broken cancel path fails
    // the test instead of hanging it.
    let id = submit(
        &server,
        &PlaceRequest {
            design: slow_design(),
            options: JobOptions {
                deadline_ms: Some(300_000),
                close,
                ..JobOptions::default()
            },
            idempotency_key: None,
        },
    );

    // Wait for the worker to pick it up, then cancel mid-solve.
    let t0 = Instant::now();
    loop {
        let view = poll(&server, id);
        match status_of(&view) {
            JobStatus::Running => break,
            JobStatus::Queued => {
                assert!(t0.elapsed() < Duration::from_secs(60), "job never started");
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("job reached {other:?} before the cancel"),
        }
    }
    let reply = client::post(server.addr(), &format!("/v1/jobs/{id}/cancel"), None)
        .expect("cancel over loopback");
    assert_eq!(reply.status, 200);

    let response = wait_terminal(&server, id, Duration::from_secs(120));
    assert_eq!(
        response.field("status").and_then(Json::as_str),
        Some("cancelled")
    );
    let kind = response
        .field("error")
        .and_then(|e| e.field("kind"))
        .and_then(Json::as_str);
    assert_eq!(kind, Some("cancelled"));
    assert_eq!(
        response
            .field("error")
            .and_then(|e| e.field("exit_code"))
            .and_then(Json::as_u64),
        Some(3)
    );

    server.shutdown();
    server.join();
}

#[test]
fn deadline_ladder_expires_then_degrades_to_anytime() {
    let server = start_server(1);
    let design = slow_design();
    // Climb a deadline ladder. The shortest rung expires before any
    // model (a structured deadline-expired failure); some rung then
    // completes — either anytime (a model survived the deadline) or
    // optimal (the solve beat the clock).
    let mut saw_deadline_expired = false;
    let mut final_outcome = None;
    let mut deadline_ms = 1u64;
    while deadline_ms <= 60_000 {
        let id = submit(
            &server,
            &PlaceRequest {
                design: design.clone(),
                options: JobOptions {
                    iters: 6,
                    deadline_ms: Some(deadline_ms),
                    ..quick_options()
                },
                idempotency_key: None,
            },
        );
        let response = wait_terminal(&server, id, Duration::from_secs(180));
        match response.field("status").and_then(Json::as_str) {
            Some("done") => {
                final_outcome = response
                    .field("stats")
                    .and_then(|s| s.field("outcome"))
                    .and_then(Json::as_str)
                    .map(str::to_string);
                break;
            }
            Some("failed") => {
                let kind = response
                    .field("error")
                    .and_then(|e| e.field("kind"))
                    .and_then(Json::as_str);
                assert_eq!(
                    kind,
                    Some("deadline_expired"),
                    "only deadline expiry may fail the ladder: {}",
                    response.pretty()
                );
                saw_deadline_expired = true;
            }
            other => panic!("unexpected terminal status {other:?}"),
        }
        deadline_ms *= 2;
    }

    assert!(
        saw_deadline_expired,
        "the shortest rung must expire before any model"
    );
    let outcome = final_outcome.expect("some rung completes within 60s");
    assert!(
        outcome == "anytime" || outcome == "optimal",
        "degraded completion reports anytime (or beat the clock): {outcome}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn malformed_and_unknown_requests_get_structured_errors() {
    let server = start_server(1);

    let bad =
        client::post(server.addr(), "/v1/jobs", Some(&Json::obj([]))).expect("post empty body");
    assert_eq!(bad.status, 400);
    assert!(bad.body.field("error").is_some());

    let missing = client::get(server.addr(), "/v1/jobs/999").expect("poll unknown");
    assert_eq!(missing.status, 404);

    let health = client::get(server.addr(), "/v1/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body.field("ok").and_then(Json::as_bool), Some(true));

    server.shutdown();
    server.join();
}

#[test]
fn malformed_design_gets_a_400_and_the_worker_keeps_serving() {
    let server = start_server(1);
    let valid = PlaceRequest {
        design: small_design(),
        options: quick_options(),
        idempotency_key: None,
    };

    // A cell in a region that does not exist: the parser rejects it before
    // it can reach the encoders on the only worker.
    let mut broken = valid.to_json();
    let Json::Obj(top) = &mut broken else {
        panic!("a request is an object")
    };
    let Some(Json::Obj(design)) = top.get_mut("design") else {
        panic!("a request carries its design inline")
    };
    let Some(Json::Arr(cells)) = design.get_mut("cells") else {
        panic!("a design has cells")
    };
    let Json::Obj(cell) = &mut cells[0] else {
        panic!("a cell is an object")
    };
    cell.insert("region".into(), Json::uint(99));
    let reply = client::post(server.addr(), "/v1/jobs", Some(&broken)).expect("post");
    assert_eq!(reply.status, 400, "{}", reply.body.pretty());
    let error = reply
        .body
        .field("error")
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(error.contains("dangling region id 99"), "{error}");

    let id = submit(&server, &valid);
    let response = wait_terminal(&server, id, Duration::from_secs(120));
    assert_eq!(
        response.field("status").and_then(Json::as_str),
        Some("done"),
        "{}",
        response.pretty()
    );

    server.shutdown();
    server.join();
}
