//! serve-mix: an in-process server driven over loopback HTTP by two
//! closed-loop clients, each sending its next request only after the
//! previous one finished.
//!
//! The server runs without a journal: every journal append waits for an
//! fsync, and the shared disk's fsync latency changes from minute to
//! minute. Over ten runs on the baseline machine it spread the exact-hit
//! latency by 30 % and the median request by 17 %, against 8 % and 6 %
//! without the journal (see README.md).
//!
//! Each client owns a pool of three small designs and nine designs it
//! sends once. Its 60 requests per repetition are 12 cold (the first
//! sight of a design), 18 warm (a pool design with a new λ_th from a loose
//! ladder, so the pooled solver re-lowers pin density) and 30 exact
//! resubmits of an earlier request, answered from the result cache: a
//! synthetic 20/30/50 % mix, as no observed request mix exists. The seed
//! orders the requests and picks the λ values and the resubmits; the cold
//! designs are fixed, so every seed does the same cold work. Clients never
//! share a design, so every cache path is deterministic.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ams_netlist::json::Json;
use ams_netlist::rng::SplitMix64;
use ams_netlist::Design;
use ams_place::api::{self, JobOptions, JobStatus, PlaceRequest};
use ams_place::scenario::scenario;
use ams_place::Placer;
use ams_route::RouterConfig;
use ams_serve::{client, ServeConfig, Server};

use crate::flow;
use crate::harness::{Rep, Workload};
use crate::stats::percentile;
use crate::trace::span;
use crate::workloads::shuffled;

/// Per client: the pool designs that take warm requests.
const POOLS: [[u32; 3]; 2] = [[3, 324, 325], [20, 326, 329]];
/// Per client: designs sent once, cold. The last two of each are the
/// heaviest, so the solve path carries weight next to the cache path.
const FRESH: [[u32; 9]; 2] = [
    [0, 2, 4, 18, 21, 23, 39, 35, 52],
    [1, 5, 19, 22, 40, 41, 54, 120, 222],
];
/// λ_th values of warm requests: above every pool design's calibrated
/// threshold, so warm re-solves stay cheap and never infeasible.
const LADDER: [u64; 8] = [40, 41, 42, 43, 44, 45, 46, 47];
const WARM_PER_CLIENT: usize = 18;
const EXACT_PER_CLIENT: usize = 30;
/// Sleeps between polls of one job: 0.1 ms, doubling up to 2 ms. A fixed
/// 2 ms sleep rounded exact hits (about 1–3 ms) up to whole sleeps, so the
/// median request, which lands among them, jumped by 2 ms with small
/// timing changes.
const POLL_FIRST: Duration = Duration::from_micros(100);
const POLL_MAX: Duration = Duration::from_millis(2);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Cold,
    Warm,
    Exact,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Warm => "warm",
            Kind::Exact => "exact",
        }
    }
}

/// One distinct request of a client: the design, the request's wire
/// form, and the kind of its first submission.
struct Distinct {
    design: Design,
    request: PlaceRequest,
    wire: Json,
    kind: Kind,
}

/// One client's requests: indices into `distinct`; an index seen before
/// is an exact resubmit.
struct Script {
    distinct: Vec<Distinct>,
    order: Vec<usize>,
}

impl Script {
    fn new(client: usize, seed: u64) -> Script {
        let mut rng = SplitMix64::new(seed ^ (0x5E7E_u64 << (8 * client)));
        let request = |design: &Design, lambda_th: Option<u64>| PlaceRequest {
            design: design.clone(),
            options: JobOptions {
                quick: true,
                threads: Some(1),
                lambda_th,
                ..JobOptions::default()
            },
            idempotency_key: None,
        };
        let mut distinct = Vec::new();
        let mut add = |design: Design, lambda_th: Option<u64>, kind: Kind| {
            let request = request(&design, lambda_th);
            let wire = request.to_json();
            distinct.push(Distinct {
                design,
                request,
                wire,
                kind,
            });
        };
        let pool: Vec<Design> = POOLS[client].iter().map(|&i| scenario(i).design).collect();
        for design in &pool {
            add(design.clone(), None, Kind::Cold);
        }
        for &i in &FRESH[client] {
            add(scenario(i).design, None, Kind::Cold);
        }
        let ladders: Vec<Vec<u64>> = (0..pool.len())
            .map(|_| shuffled(LADDER.to_vec(), rng.next_u64()))
            .collect();
        for k in 0..WARM_PER_CLIENT {
            let d = k % pool.len();
            add(
                pool[d].clone(),
                Some(ladders[d][k / pool.len()]),
                Kind::Warm,
            );
        }

        // The pool designs go first, so every warm request finds its
        // solver pooled; the rest interleave in seeded order.
        let first = pool.len();
        let mut rest: Vec<Option<usize>> = (first..distinct.len()).map(Some).collect();
        rest.extend(std::iter::repeat_n(None, EXACT_PER_CLIENT));
        let mut order: Vec<usize> = (0..first).collect();
        for slot in shuffled(rest, rng.next_u64()) {
            let next = slot.unwrap_or_else(|| order[rng.index(order.len())]);
            order.push(next);
        }
        Script { distinct, order }
    }

    /// Whether request `n` of the order resubmits an earlier one.
    fn is_resubmit(&self, n: usize) -> bool {
        self.order[..n].contains(&self.order[n])
    }

    fn kind(&self, n: usize) -> Kind {
        if self.is_resubmit(n) {
            Kind::Exact
        } else {
            self.distinct[self.order[n]].kind
        }
    }
}

/// What one request saw.
struct Served {
    latency_ms: f64,
    polls: u64,
    /// Lint findings on the request's design (traced runs only).
    findings: u64,
    /// The terminal poll's embedded response.
    response: Json,
}

pub struct ServeMix {
    scripts: Vec<Script>,
    /// Rep 0's responses to cold requests, checked against local solves.
    cold_responses: Vec<Vec<Option<Json>>>,
}

impl Workload for ServeMix {
    const CLIENTS: f64 = 2.0;

    fn prepare(seed: u64) -> ServeMix {
        ServeMix {
            scripts: (0..POOLS.len()).map(|c| Script::new(c, seed)).collect(),
            cold_responses: Vec::new(),
        }
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let t = Instant::now();
        let server = Server::start(ServeConfig {
            workers: 2,
            // Room for every design and every distinct request, so no
            // cache entry is ever refused and every path is deterministic.
            warm_pool_cap: 64,
            exact_cache_cap: 1024,
            ..ServeConfig::default()
        })
        .expect("start the loopback server");
        rep.fixture_s = t.elapsed().as_secs_f64();

        let addr = server.addr();
        let t = Instant::now();
        let served: Vec<Vec<Result<Served, String>>> = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .scripts
                .iter()
                .enumerate()
                .map(|(c, script)| scope.spawn(move || drive(addr, c, script, traced)))
                .collect();
            clients
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        rep.wall_s = t.elapsed().as_secs_f64();

        let stats = client::get(addr, "/v1/stats").map(|r| r.body);
        server.shutdown();
        server.join();

        self.check(&served, &mut rep);
        match stats {
            Ok(stats) => self.check_counters(&stats, &mut rep),
            Err(e) => rep.failures.push(format!("GET /v1/stats: {e}")),
        }
        rep
    }

    fn finish(&mut self, reps: &mut [Rep]) {
        // Each cold response must equal a local cold solve of the same
        // request bit for bit, and that placement must be legal. The
        // local placement is then routed for the quality metrics, which
        // serve-mix reports over its cold jobs: their inputs do not depend
        // on the seeded request order.
        let mut check = Rep::default();
        let mut routes = Vec::new();
        for (script, responses) in self.scripts.iter().zip(&self.cold_responses) {
            for (d, response) in script.distinct.iter().zip(responses) {
                let Some(response) = response else { continue };
                let mut config = d.request.options.to_config();
                config.solver.reusable = true;
                let local = Placer::new(&d.design, config).and_then(|mut p| p.place_mut());
                let Ok(placement) = local else {
                    check
                        .failures
                        .push(format!("{}: the local cold solve failed", d.design.name()));
                    continue;
                };
                if response.field("cells") != Some(&api::cells_to_json(&d.design, &placement)) {
                    check.failures.push(format!(
                        "{}: served cells differ from a local cold solve",
                        d.design.name()
                    ));
                }
                flow::check_placement(&d.design, &placement, 0, &mut check);
                routes.push((
                    &d.design,
                    ams_route::route(&d.design, &placement, RouterConfig::default()),
                ));
            }
        }
        if let Some(first) = reps.first_mut() {
            first.failures.append(&mut check.failures);
        }
        for rep in reps.iter_mut() {
            for (design, routed) in &routes {
                rep.tally.route_work(routed);
                rep.tally.final_route(design, routed);
            }
        }
    }
}

impl ServeMix {
    /// Per-request checks and tallies of one repetition.
    fn check(&mut self, served: &[Vec<Result<Served, String>>], rep: &mut Rep) {
        let keep_cold = self.cold_responses.is_empty();
        let mut latency: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut polls, mut solver_ms, mut total_ms) = (0u64, 0.0, 0.0);
        for (script, results) in self.scripts.iter().zip(served) {
            let mut first: Vec<Option<Json>> = vec![None; script.distinct.len()];
            for (n, result) in results.iter().enumerate() {
                let d = &script.distinct[script.order[n]];
                let kind = script.kind(n);
                let name = d.design.name();
                let s = match result {
                    Ok(s) => s,
                    Err(e) => {
                        rep.failures
                            .push(format!("{name}: {} request failed: {e}", kind.name()));
                        continue;
                    }
                };
                rep.job_ms.push(s.latency_ms);
                latency.entry(kind.name()).or_default().push(s.latency_ms);
                polls += s.polls;
                rep.tally.add("lint.findings", s.findings);
                total_ms += s.latency_ms;
                let status = s.response.field("status").and_then(Json::as_str);
                if status != Some(JobStatus::Done.name()) {
                    rep.failures
                        .push(format!("{name}: {} request ended {status:?}", kind.name()));
                    continue;
                }
                check_geometry(&d.design, &s.response, rep);
                let cached = s.response.field("cached").and_then(Json::as_bool);
                let mut uncached = s.response.clone();
                if let Json::Obj(m) = &mut uncached {
                    m.remove("cached");
                }
                if kind == Kind::Exact {
                    if cached != Some(true) || first[script.order[n]].as_ref() != Some(&uncached) {
                        rep.failures.push(format!(
                            "{name}: an exact resubmit did not replay the first response"
                        ));
                    }
                    continue;
                }
                let stats = s.response.field("stats").cloned().unwrap_or(Json::Null);
                solver_ms += field_u64(&stats, "runtime_ms") as f64;
                count_solve(&stats, rep);
                if kind == Kind::Cold {
                    let rounds = stats
                        .field("outcome_detail")
                        .and_then(|d| d.field("rounds"))
                        .and_then(Json::as_u64)
                        .map(|r| r as usize);
                    let hpwl = stats.field("hpwl_um").and_then(Json::as_f64).unwrap_or(0.0);
                    let k_iter = d.request.options.to_config().optimize.k_iter;
                    rep.tally.placed_job(hpwl, rounds, k_iter);
                }
                first[script.order[n]] = Some(uncached);
            }
            if keep_cold {
                let cold = script
                    .distinct
                    .iter()
                    .zip(first)
                    .map(|(d, r)| r.filter(|_| d.kind == Kind::Cold))
                    .collect();
                self.cold_responses.push(cold);
            }
        }
        let jobs = rep.job_ms.len().max(1) as f64;
        rep.gauges
            .insert("serve.polls_per_job".into(), polls as f64 / jobs);
        rep.gauges.insert(
            "serve.solver_pct".into(),
            100.0 * solver_ms / total_ms.max(1e-9),
        );
        rep.gauge("solve.runtime_s", solver_ms / 1e3);
        for (kind, ms) in latency {
            for (q, name) in [(0.5, "p50"), (0.9, "p90")] {
                rep.gauges.insert(
                    format!("serve.latency_ms.{kind}.{name}"),
                    percentile(&ms, q),
                );
            }
        }
    }

    /// The server's own counters must show every request on the cache
    /// path the script sent it down.
    fn check_counters(&self, stats: &Json, rep: &mut Rep) {
        let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
        for script in &self.scripts {
            for n in 0..script.order.len() {
                let counter = match script.kind(n) {
                    Kind::Cold => "cold_builds",
                    Kind::Warm => "warm_relowered",
                    Kind::Exact => "exact_hits",
                };
                *expected.entry(counter).or_default() += 1;
            }
        }
        expected.insert("warm_identical", 0);
        for (counter, want) in expected {
            let got = field_u64(stats, counter);
            rep.tally.add(&format!("serve.{counter}"), got);
            if got != want {
                rep.failures.push(format!(
                    "/v1/stats {counter} = {got}, the script sent {want}"
                ));
            }
        }
    }
}

fn field_u64(doc: &Json, key: &str) -> u64 {
    doc.field(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Counts the solver work a response reports.
fn count_solve(stats: &Json, rep: &mut Rep) {
    for (metric, key) in [
        ("cnf.vars", "sat_vars"),
        ("cnf.clauses", "sat_clauses"),
        ("solve.conflicts", "conflicts"),
        ("solve.rounds", "iterations"),
    ] {
        rep.tally.add(metric, field_u64(stats, key));
    }
    for f in stats.field("families").and_then(Json::items).unwrap_or(&[]) {
        let family = f.field("family").and_then(Json::as_str).unwrap_or("?");
        rep.tally
            .add(&format!("cnf.clauses.{family}"), field_u64(f, "clauses"));
    }
    if stats.field("outcome").and_then(Json::as_str) == Some("anytime") {
        rep.tally.add("solve.anytime_jobs", 1);
    }
    if let Some(p) = stats.field("presolve") {
        rep.tally
            .add("presolve.vars_saved_bits", field_u64(p, "vars_saved_bits"));
    }
}

/// The legality a response shows without the placer's regions: every
/// cell of the design placed once, inside the die, overlapping no other.
fn check_geometry(design: &Design, response: &Json, rep: &mut Rep) {
    let die = response.field("stats").and_then(|s| s.field("die"));
    let (die_w, die_h) = (
        die.map_or(0, |d| field_u64(d, "w")),
        die.map_or(0, |d| field_u64(d, "h")),
    );
    let cells: Vec<[u64; 4]> = response
        .field("cells")
        .and_then(Json::items)
        .unwrap_or(&[])
        .iter()
        .map(|c| ["x", "y", "w", "h"].map(|k| field_u64(c, k)))
        .collect();
    let overlap = |a: &[u64; 4], b: &[u64; 4]| {
        a[0] < b[0] + b[2] && b[0] < a[0] + a[2] && a[1] < b[1] + b[3] && b[1] < a[1] + a[3]
    };
    let legal = cells.len() == design.cells().len()
        && cells
            .iter()
            .all(|c| c[0] + c[2] <= die_w && c[1] + c[3] <= die_h)
        && cells
            .iter()
            .enumerate()
            .all(|(i, a)| cells[i + 1..].iter().all(|b| !overlap(a, b)));
    if !legal {
        rep.failures
            .push(format!("{}: served placement is not legal", design.name()));
    }
}

/// One client's closed loop: submit, poll until terminal, next request.
/// In traced runs the client also lints and presolves each design before
/// sending it, so those layers show on this workload too.
fn drive(
    addr: std::net::SocketAddr,
    client: usize,
    script: &Script,
    traced: bool,
) -> Vec<Result<Served, String>> {
    script
        .order
        .iter()
        .enumerate()
        .map(|(n, &i)| {
            let job = (client * script.order.len() + n) as u64;
            let t = Instant::now();
            let d = &script.distinct[i];
            span("serve.job", job, || {
                let findings = if traced {
                    flow::analyses(&d.design, &d.request.options.to_config(), job)
                } else {
                    0
                };
                let reply = span("serve.submit", job, || {
                    client::post(addr, "/v1/jobs", Some(&d.wire))
                })
                .map_err(|e| format!("POST /v1/jobs: {e}"))?;
                if reply.status != 202 {
                    return Err(format!("POST /v1/jobs answered {}", reply.status));
                }
                let id = field_u64(&reply.body, "job_id");
                let mut polls = 0;
                let mut wait = POLL_FIRST;
                loop {
                    polls += 1;
                    let view = span("serve.poll", job, || {
                        client::get(addr, &format!("/v1/jobs/{id}"))
                    })
                    .map_err(|e| format!("GET /v1/jobs/{id}: {e}"))?
                    .body;
                    let terminal = view
                        .field("status")
                        .and_then(Json::as_str)
                        .and_then(JobStatus::parse)
                        .is_some_and(JobStatus::is_terminal);
                    if terminal {
                        return Ok(Served {
                            latency_ms: t.elapsed().as_secs_f64() * 1e3,
                            polls,
                            findings,
                            response: view.field("response").cloned().unwrap_or(Json::Null),
                        });
                    }
                    span("serve.sleep", job, || std::thread::sleep(wait));
                    wait = (wait * 2).min(POLL_MAX);
                }
            })
        })
        .collect()
}
