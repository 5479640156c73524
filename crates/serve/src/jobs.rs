//! The job engine: a bounded FIFO queue drained by a worker pool, an
//! exact-result cache, a warm-solver pool — and, when journaling is on,
//! a durable write-ahead log that makes all of it crash-safe.
//!
//! ## The two cache levels
//!
//! 1. **Exact cache** — keyed by `(design_hash, options_hash)` over the
//!    canonical request JSON. A hit returns the stored
//!    [`PlaceResponse`] verbatim (marked `cached: true`) without
//!    touching a solver, so identical requests are bit-identical and
//!    free. Only deadline-free `Done` results are stored: a
//!    deadline-degraded anytime placement depends on wall clock and must
//!    not be replayed as authoritative.
//! 2. **Warm-solver pool** — keyed by `design_hash` alone. Each entry
//!    owns a live [`Placer`] built with `SolverConfig::reusable`. A new
//!    job for the same design goes through [`Placer::rebase`]: the
//!    design is re-encoded under the incoming configuration on the live
//!    solver, its [`ConstraintStore`](ams_place::ir) records are diffed
//!    against the live ones, and when only re-lowerable families differ
//!    (λ_th moves, a window reshapes) just those families' selector
//!    groups are retired and re-lowered — the SAT core keeps its learnt
//!    clauses and saved phases. Structural deltas fall back to a cold
//!    build.
//!
//! ## Durability & overload
//!
//! With a journal attached, every submission, worker pickup, and
//! terminal result is fsync'd to the WAL *before* the in-memory state
//! changes (`journal → state`, always under the state lock so the WAL
//! order matches the id order). [`Engine::recover`] replays a prior
//! process's WAL: done jobs repopulate the exact cache and keep
//! answering polls, queued jobs re-enter the queue, and mid-solve jobs
//! are re-run or marked `interrupted` per [`ResumePolicy`].
//!
//! Admission control degrades before it fails: past the shed
//! high-water mark only *cheap* submissions (exact-cache hits and
//! warm-pool designs) are admitted and cold solves get
//! [`Submitted::Shed`] (HTTP 503 + `Retry-After`); at full queue
//! capacity everything gets [`Submitted::Saturated`] (429). The
//! `degraded` flag in `/v1/stats` and `/v1/healthz` mirrors the
//! high-water condition. A client-supplied idempotency key dedups
//! retried submissions inside a bounded window so a retry storm never
//! double-solves.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use ams_netlist::json::Json;
use ams_netlist::Design;
use ams_place::api::{
    self, ApiError, ErrorKind, JobStatus, PlaceRequest, PlaceResponse, SCHEMA_VERSION,
};
use ams_place::{PlaceError, Placer, WarmReuse};

use crate::fault::{Barrier, FaultPlan};
use crate::journal::{Journal, Record, ReplayJob, ReplayState};

/// One submitted job as the registry tracks it.
struct JobRecord {
    design: String,
    status: JobStatus,
    cancel: Arc<AtomicBool>,
    /// Present while the job waits in the queue; the worker takes it.
    request: Option<Box<PlaceRequest>>,
    /// The request's wire form, retained while the job can still appear
    /// in a compaction snapshot (queued, running, or terminal-and-
    /// cache-rehydratable). `None` once it can never be needed again.
    request_wire: Option<Json>,
    /// Present once the job is terminal.
    response: Option<PlaceResponse>,
}

/// Registry + queue behind one lock (workers and handlers touch both
/// together, a single mutex keeps the ordering trivial).
struct State {
    jobs: HashMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    next_id: u64,
    /// Idempotency window: key → job id, FIFO-evicted at the cap.
    idem: HashMap<String, u64>,
    idem_order: VecDeque<String>,
}

impl State {
    fn remember_key(&mut self, key: &str, id: u64, window: usize) {
        if window == 0 || self.idem.contains_key(key) {
            return;
        }
        while self.idem_order.len() >= window {
            if let Some(evicted) = self.idem_order.pop_front() {
                self.idem.remove(&evicted);
            }
        }
        self.idem.insert(key.to_string(), id);
        self.idem_order.push_back(key.to_string());
    }
}

/// Monotonic service counters, exposed by `GET /v1/stats` and consumed
/// by the throughput bench.
#[derive(Default)]
pub struct Counters {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub rejected: AtomicU64,
    /// Cold submissions refused while degraded (503).
    pub shed: AtomicU64,
    /// Submissions resolved to an existing job by idempotency key.
    pub deduped: AtomicU64,
    pub exact_hits: AtomicU64,
    pub warm_identical: AtomicU64,
    pub warm_relowered: AtomicU64,
    pub cold_builds: AtomicU64,
}

/// Engine tuning; [`crate::ServeConfig`] resolves the CLI/default view
/// of these.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Bounded queue capacity; submissions past it get 429.
    pub queue_cap: usize,
    /// Exact-result cache entries.
    pub exact_cap: usize,
    /// Warm solver pool entries.
    pub warm_cap: usize,
    /// Queue depth at which the engine degrades: cold submissions shed
    /// (503) while cached/warm submissions still queue.
    pub shed_high_water: usize,
    /// Idempotency keys remembered before FIFO eviction.
    pub idem_window: usize,
}

impl EngineConfig {
    /// The engine shape for a queue of `queue_cap`: shedding starts at
    /// 3/4 capacity, modest cache caps — the same defaults
    /// [`crate::ServeConfig::default`] uses.
    pub fn for_queue(queue_cap: usize) -> EngineConfig {
        EngineConfig {
            queue_cap,
            exact_cap: 64,
            warm_cap: 4,
            shed_high_water: (queue_cap.saturating_mul(3) / 4).max(1),
            idem_window: 256,
        }
    }
}

/// What to do on resume with jobs the dead process had mid-solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResumePolicy {
    /// Put them back at the head of the queue and solve again.
    Rerun,
    /// Mark them terminal `interrupted`; the client decides whether to
    /// resubmit.
    MarkInterrupted,
}

/// What [`Engine::recover`] did with a replayed journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Jobs that were terminal on record and now answer polls again.
    pub completed: usize,
    /// Queued jobs put back in the queue.
    pub requeued: usize,
    /// Mid-solve jobs re-run ([`ResumePolicy::Rerun`]).
    pub reran: usize,
    /// Mid-solve jobs marked interrupted
    /// ([`ResumePolicy::MarkInterrupted`]).
    pub interrupted: usize,
    /// Done results re-inserted into the exact cache.
    pub cache_rehydrated: usize,
    /// Journal records that could not be folded (malformed embedded
    /// documents) and were dropped.
    pub unparseable: usize,
}

/// Everything the accept loop, handlers, and workers share.
pub struct Engine {
    state: Mutex<State>,
    work: Condvar,
    exact: Mutex<HashMap<(u64, u64), PlaceResponse>>,
    warm: Mutex<HashMap<u64, Placer>>,
    /// The WAL; `None` runs the engine exactly as the journal-free PR 7
    /// service. Only ever locked while `state` is held (lock order:
    /// state → journal), which also makes WAL order match id order.
    journal: Mutex<Option<Journal>>,
    /// Fault-injection plan; inert by default.
    pub faults: FaultPlan,
    pub counters: Counters,
    pub running: AtomicBool,
    config: EngineConfig,
}

/// What `POST /v1/jobs` hands back.
pub enum Submitted {
    /// Accepted: the job id to poll.
    Queued(u64),
    /// An idempotency key matched a remembered submission: poll that
    /// job instead; nothing was re-solved.
    Deduplicated(u64),
    /// The bounded queue is full — retry later (HTTP 429).
    Saturated,
    /// Degraded mode shed this cold solve to protect cached traffic —
    /// retry later (HTTP 503 + `Retry-After`).
    Shed,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Engine {
        Engine::with_journal(config, None, FaultPlan::default())
    }

    /// An engine with an optional WAL and fault plan attached. Call
    /// [`Engine::recover`] with the journal's replayed records *before*
    /// spawning workers.
    pub fn with_journal(
        config: EngineConfig,
        journal: Option<Journal>,
        faults: FaultPlan,
    ) -> Engine {
        Engine {
            state: Mutex::new(State {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                next_id: 1,
                idem: HashMap::new(),
                idem_order: VecDeque::new(),
            }),
            work: Condvar::new(),
            exact: Mutex::new(HashMap::new()),
            warm: Mutex::new(HashMap::new()),
            journal: Mutex::new(journal),
            faults,
            counters: Counters::default(),
            running: AtomicBool::new(true),
            config,
        }
    }

    /// Appends one record to the WAL (if attached) and fires the
    /// matching fault barrier once the record is durable. Must be called
    /// with the state lock held so WAL order is the lock order. A write
    /// failure disables journaling for the rest of the process rather
    /// than failing jobs: serving degrades to non-durable, loudly.
    fn journal_append(&self, st: &State, record: Record, barrier: Barrier) {
        let mut slot = self.journal.lock().expect("journal lock");
        let Some(journal) = slot.as_mut() else { return };
        if let Err(e) = journal.append(&record) {
            eprintln!("journal: append failed ({e}); continuing WITHOUT durability");
            *slot = None;
            return;
        }
        self.faults.at_barrier(barrier);
        if journal.wants_compaction() {
            let snapshot = snapshot_records(st, self.config.exact_cap);
            if let Err(e) = journal.compact(&snapshot) {
                eprintln!("journal: compaction failed ({e}); continuing WITHOUT durability");
                *slot = None;
            }
        }
    }

    /// Enqueues a request; dedups on idempotency key, sheds cold work
    /// when degraded, rejects when the queue is at capacity.
    pub fn submit(&self, request: PlaceRequest) -> Submitted {
        let mut st = self.state.lock().expect("engine lock");
        if let Some(key) = &request.idempotency_key {
            if let Some(&existing) = st.idem.get(key) {
                self.counters.deduped.fetch_add(1, Ordering::Relaxed);
                return Submitted::Deduplicated(existing);
            }
        }
        let depth = st.queue.len();
        if depth >= self.config.queue_cap {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Submitted::Saturated;
        }
        if depth >= self.config.shed_high_water && !self.is_cheap(&request) {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Submitted::Shed;
        }
        let wire = request.to_json();
        let id = st.next_id;
        st.next_id += 1;
        if let Some(key) = &request.idempotency_key {
            let window = self.config.idem_window;
            st.remember_key(key, id, window);
        }
        st.jobs.insert(
            id,
            JobRecord {
                design: request.design.name().to_string(),
                status: JobStatus::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                request: Some(Box::new(request)),
                request_wire: Some(wire.clone()),
                response: None,
            },
        );
        st.queue.push_back(id);
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.journal_append(
            &st,
            Record::Submitted {
                job_id: id,
                request: wire,
            },
            Barrier::Submit,
        );
        drop(st);
        self.work.notify_one();
        Submitted::Queued(id)
    }

    /// Whether a degraded engine should still admit this request: it
    /// resolves from the exact cache, or its design has a live warm
    /// solver — either way it won't occupy a worker for a cold solve.
    fn is_cheap(&self, request: &PlaceRequest) -> bool {
        let design = request.effective_design();
        let dh = api::design_hash(&design);
        let oh = api::options_hash(&request.options);
        if self
            .exact
            .lock()
            .expect("exact lock")
            .contains_key(&(dh, oh))
        {
            return true;
        }
        self.warm.lock().expect("warm lock").contains_key(&dh)
    }

    /// Whether the engine is past its shed high-water mark.
    pub fn degraded(&self) -> bool {
        let st = self.state.lock().expect("engine lock");
        st.queue.len() >= self.config.shed_high_water
    }

    /// Rebuilds engine state from a replayed journal. Terminal jobs
    /// answer polls again (deadline-free `done` results also re-enter
    /// the exact cache and re-arm their idempotency keys); queued jobs
    /// re-enter the queue; mid-solve jobs follow `policy`. Runs before
    /// any worker starts, so no lock juggling is needed — but it takes
    /// the locks anyway to keep the invariants uniform.
    pub fn recover(&self, replayed: ReplayState, policy: ResumePolicy) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let mut st = self.state.lock().expect("engine lock");
        st.next_id = st.next_id.max(replayed.max_job_id + 1);
        for (id, job) in replayed.jobs {
            match job {
                ReplayJob::Terminal { request, response } => {
                    let Ok(response) = PlaceResponse::from_json(&response) else {
                        report.unparseable += 1;
                        continue;
                    };
                    let parsed = request
                        .as_ref()
                        .and_then(|r| PlaceRequest::from_json(r).ok());
                    let mut keep_wire = false;
                    if response.status == JobStatus::Done {
                        if let Some(req) = &parsed {
                            if req.options.deadline_ms.is_none() {
                                let design = req.effective_design();
                                let key =
                                    (api::design_hash(&design), api::options_hash(&req.options));
                                let mut stored = response.clone();
                                stored.cached = false;
                                let mut exact = self.exact.lock().expect("exact lock");
                                if exact.len() < self.config.exact_cap || exact.contains_key(&key) {
                                    exact.insert(key, stored);
                                    report.cache_rehydrated += 1;
                                    keep_wire = true;
                                }
                            }
                            if let Some(idem) = &req.idempotency_key {
                                let window = self.config.idem_window;
                                st.remember_key(idem, id, window);
                            }
                        }
                    }
                    st.jobs.insert(
                        id,
                        JobRecord {
                            design: response.design.clone(),
                            status: response.status,
                            cancel: Arc::new(AtomicBool::new(false)),
                            request: None,
                            request_wire: if keep_wire { request } else { None },
                            response: Some(response),
                        },
                    );
                    report.completed += 1;
                }
                ReplayJob::Queued { request } => {
                    let Ok(parsed) = PlaceRequest::from_json(&request) else {
                        report.unparseable += 1;
                        continue;
                    };
                    if let Some(idem) = parsed.idempotency_key.clone() {
                        let window = self.config.idem_window;
                        st.remember_key(&idem, id, window);
                    }
                    st.jobs.insert(
                        id,
                        JobRecord {
                            design: parsed.design.name().to_string(),
                            status: JobStatus::Queued,
                            cancel: Arc::new(AtomicBool::new(false)),
                            request: Some(Box::new(parsed)),
                            request_wire: Some(request),
                            response: None,
                        },
                    );
                    st.queue.push_back(id);
                    report.requeued += 1;
                }
                ReplayJob::Running { request } => match policy {
                    ResumePolicy::Rerun => {
                        let Ok(parsed) = PlaceRequest::from_json(&request) else {
                            report.unparseable += 1;
                            continue;
                        };
                        if let Some(idem) = parsed.idempotency_key.clone() {
                            let window = self.config.idem_window;
                            st.remember_key(&idem, id, window);
                        }
                        st.jobs.insert(
                            id,
                            JobRecord {
                                design: parsed.design.name().to_string(),
                                status: JobStatus::Queued,
                                cancel: Arc::new(AtomicBool::new(false)),
                                request: Some(Box::new(parsed)),
                                request_wire: Some(request.clone()),
                                response: None,
                            },
                        );
                        // Re-run jobs jump the line: they were in
                        // flight first. The fresh Submitted record
                        // supersedes the dead process's Started (last
                        // write wins on the next replay).
                        st.queue.push_front(id);
                        self.journal_append(
                            &st,
                            Record::Submitted {
                                job_id: id,
                                request,
                            },
                            Barrier::Submit,
                        );
                        report.reran += 1;
                    }
                    ResumePolicy::MarkInterrupted => {
                        let design = PlaceRequest::from_json(&request)
                            .map(|r| r.design.name().to_string())
                            .unwrap_or_else(|_| "unknown".to_string());
                        let response = interrupted_response(&design);
                        st.jobs.insert(
                            id,
                            JobRecord {
                                design,
                                status: JobStatus::Interrupted,
                                cancel: Arc::new(AtomicBool::new(false)),
                                request: None,
                                request_wire: None,
                                response: Some(response.clone()),
                            },
                        );
                        self.journal_append(
                            &st,
                            Record::Finished {
                                job_id: id,
                                response: response.to_json(),
                            },
                            Barrier::Finish,
                        );
                        report.interrupted += 1;
                    }
                },
            }
        }
        // Start the new process from a compact WAL: one snapshot instead
        // of the dead process's whole history.
        let mut slot = self.journal.lock().expect("journal lock");
        if let Some(journal) = slot.as_mut() {
            let snapshot = snapshot_records(&st, self.config.exact_cap);
            if let Err(e) = journal.compact(&snapshot) {
                eprintln!("journal: post-recovery compaction failed ({e}); continuing");
            }
        }
        drop(slot);
        report
    }

    /// The poll document for `GET /v1/jobs/<id>`; `None` for unknown ids.
    pub fn job_view(&self, id: u64) -> Option<Json> {
        let st = self.state.lock().expect("engine lock");
        let rec = st.jobs.get(&id)?;
        Some(Json::obj([
            ("schema_version", Json::uint(SCHEMA_VERSION)),
            ("job_id", Json::uint(id)),
            ("design", Json::str(&rec.design)),
            ("status", Json::str(rec.status.name())),
            (
                "response",
                rec.response
                    .as_ref()
                    .map(PlaceResponse::to_json)
                    .unwrap_or(Json::Null),
            ),
        ]))
    }

    /// Cancels a job: a queued job terminates immediately, a running job
    /// has its stop flag raised (the solver exits at its next conflict
    /// boundary). Returns the status after the cancel, or `None` for
    /// unknown ids.
    pub fn cancel(&self, id: u64) -> Option<JobStatus> {
        let mut st = self.state.lock().expect("engine lock");
        let rec = st.jobs.get_mut(&id)?;
        match rec.status {
            JobStatus::Queued => {
                rec.status = JobStatus::Cancelled;
                rec.request = None;
                rec.request_wire = None;
                let design = rec.design.clone();
                let response = cancelled_while_queued(&design);
                let wire = response.to_json();
                rec.response = Some(response);
                let status = rec.status;
                self.journal_append(
                    &st,
                    Record::Finished {
                        job_id: id,
                        response: wire,
                    },
                    Barrier::Finish,
                );
                return Some(status);
            }
            JobStatus::Running => rec.cancel.store(true, Ordering::Relaxed),
            _ => {}
        }
        Some(rec.status)
    }

    /// The `GET /v1/stats` document.
    pub fn stats(&self) -> Json {
        let st = self.state.lock().expect("engine lock");
        let queue_depth = st.queue.len() as u64;
        let degraded = st.queue.len() >= self.config.shed_high_water;
        drop(st);
        let warm_pool = self.warm.lock().expect("warm lock").len() as u64;
        let journal = {
            let slot = self.journal.lock().expect("journal lock");
            slot.as_ref().map(|j| j.stats())
        };
        let c = &self.counters;
        let n = |a: &AtomicU64| Json::uint(a.load(Ordering::Relaxed));
        Json::obj([
            ("schema_version", Json::uint(SCHEMA_VERSION)),
            ("submitted", n(&c.submitted)),
            ("completed", n(&c.completed)),
            ("rejected", n(&c.rejected)),
            ("shed", n(&c.shed)),
            ("deduped", n(&c.deduped)),
            ("exact_hits", n(&c.exact_hits)),
            ("warm_identical", n(&c.warm_identical)),
            ("warm_relowered", n(&c.warm_relowered)),
            ("cold_builds", n(&c.cold_builds)),
            ("queue_depth", Json::uint(queue_depth)),
            ("degraded", Json::Bool(degraded)),
            ("warm_pool", Json::uint(warm_pool)),
            (
                "journal",
                journal.map_or(Json::Null, |j| {
                    Json::obj([
                        ("segment", Json::uint(j.segment)),
                        ("segment_bytes", Json::uint(j.segment_bytes)),
                        ("appended", Json::uint(j.appended)),
                        ("replayed", Json::uint(j.replayed)),
                        ("tail_discarded", Json::Bool(j.tail_discarded)),
                    ])
                }),
            ),
        ])
    }

    /// Wakes every worker so they observe `running == false` and exit.
    pub fn stop(&self) {
        self.running.store(false, Ordering::Relaxed);
        self.work.notify_all();
    }

    /// One worker thread: drain the queue until the engine stops.
    pub fn worker_loop(&self) {
        loop {
            let (id, request, cancel) = {
                let mut st = self.state.lock().expect("engine lock");
                loop {
                    if !self.running.load(Ordering::Relaxed) {
                        return;
                    }
                    if let Some(id) = st.queue.pop_front() {
                        let rec = st.jobs.get_mut(&id).expect("queued job is registered");
                        if rec.status != JobStatus::Queued {
                            continue; // cancelled while waiting
                        }
                        rec.status = JobStatus::Running;
                        let request = rec.request.take().expect("queued job holds its request");
                        let cancel = rec.cancel.clone();
                        self.journal_append(&st, Record::Started { job_id: id }, Barrier::Start);
                        break (id, request, cancel);
                    }
                    st = self.work.wait(st).expect("engine lock");
                }
            };

            let response = self.run_one(&request, &cancel);
            let status = response.status;
            let mut st = self.state.lock().expect("engine lock");
            self.journal_append(
                &st,
                Record::Finished {
                    job_id: id,
                    response: response.to_json(),
                },
                Barrier::Finish,
            );
            if let Some(rec) = st.jobs.get_mut(&id) {
                rec.status = status;
                // A deadline-free done result may re-enter the exact
                // cache from a snapshot after a restart; anything else
                // will never need its request again.
                if !(status == JobStatus::Done && request.options.deadline_ms.is_none()) {
                    rec.request_wire = None;
                }
                rec.response = Some(response);
            }
            drop(st);
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Executes one placement job through the cache hierarchy.
    fn run_one(&self, request: &PlaceRequest, cancel: &Arc<AtomicBool>) -> PlaceResponse {
        let design = request.effective_design();
        let dh = api::design_hash(&design);
        let oh = api::options_hash(&request.options);

        if let Some(hit) = self.exact.lock().expect("exact lock").get(&(dh, oh)) {
            self.counters.exact_hits.fetch_add(1, Ordering::Relaxed);
            let mut response = hit.clone();
            response.cached = true;
            return response;
        }

        let mut config = request.options.to_config();
        config.solver.reusable = true;

        // Routing-closure jobs run the place → route → tighten loop on a
        // private solver: the loop rebases per-window λ overrides into its
        // placer, which must not leak back into the shared warm pool. The
        // exact cache still applies (the options hash covers the closure
        // knobs), and a cancel lands at the next conflict boundary of
        // whichever solve the loop is in.
        if let Some(closure) = request.options.closure() {
            self.counters.cold_builds.fetch_add(1, Ordering::Relaxed);
            let closed = Placer::new(&design, config).and_then(|mut placer| {
                placer.set_cancel_flag(Some(cancel.clone()));
                ams_place::closure::close_on(&mut placer, &closure, |d, p, windows| {
                    ams_route::route_feedback(d, p, windows, ams_route::RouterConfig::default())
                })
            });
            let response = match closed {
                Ok((placement, _)) => PlaceResponse::success(&design, &placement),
                Err(e) => PlaceResponse::failure(design.name(), &e),
            };
            if response.status == JobStatus::Done && request.options.deadline_ms.is_none() {
                let mut exact = self.exact.lock().expect("exact lock");
                if exact.len() < self.config.exact_cap {
                    exact.insert((dh, oh), response.clone());
                }
            }
            return response;
        }

        let mut solver = match self.checkout_solver(dh, &design, config) {
            Ok(solver) => solver,
            Err(e) => return PlaceResponse::failure(design.name(), &e),
        };

        solver.set_cancel_flag(Some(cancel.clone()));
        let result = solver.place_mut();
        solver.set_cancel_flag(None);

        let response = match &result {
            Ok(placement) => PlaceResponse::success(&design, placement),
            Err(e) => PlaceResponse::failure(design.name(), e),
        };

        // Return the solver to the pool — it stays consistent even after
        // a cancelled or degraded job (assumption-based solving never
        // poisons the clause database).
        let mut warm = self.warm.lock().expect("warm lock");
        if warm.len() < self.config.warm_cap || warm.contains_key(&dh) {
            warm.insert(dh, solver);
        }
        drop(warm);

        if response.status == JobStatus::Done && request.options.deadline_ms.is_none() {
            let mut exact = self.exact.lock().expect("exact lock");
            if exact.len() < self.config.exact_cap {
                exact.insert((dh, oh), response.clone());
            }
        }
        response
    }

    /// Fetches (and rebases) the pooled solver for this design, or
    /// builds a cold one. The entry is removed from the pool while the
    /// job runs; a concurrent job on the same design builds its own
    /// solver and the last one back wins the pool slot.
    fn checkout_solver(
        &self,
        dh: u64,
        design: &Design,
        config: ams_place::PlacerConfig,
    ) -> Result<Placer, PlaceError> {
        let pooled = self.warm.lock().expect("warm lock").remove(&dh);
        if let Some(mut solver) = pooled {
            match solver.rebase(config.clone()) {
                Ok(WarmReuse::Identical) => {
                    self.counters.warm_identical.fetch_add(1, Ordering::Relaxed);
                    return Ok(solver);
                }
                Ok(WarmReuse::Relowered { .. }) => {
                    self.counters.warm_relowered.fetch_add(1, Ordering::Relaxed);
                    return Ok(solver);
                }
                Ok(WarmReuse::Structural) => {} // fall through to a cold build
                Err(e) => return Err(e),
            }
        }
        self.counters.cold_builds.fetch_add(1, Ordering::Relaxed);
        Placer::new(design, config)
    }
}

/// The live-state snapshot a compaction writes: every queued job's
/// submission, every running job's submission + start, and the most
/// recent `terminal_cap` cache-rehydratable terminal jobs (submission +
/// result). Older terminal jobs age out of the WAL — their results were
/// already bounded by the exact-cache capacity.
fn snapshot_records(st: &State, terminal_cap: usize) -> Vec<Record> {
    let mut ids: Vec<u64> = st.jobs.keys().copied().collect();
    ids.sort_unstable();
    let terminal_total = ids
        .iter()
        .filter(|id| st.jobs[id].status.is_terminal())
        .count();
    let mut skip_terminals = terminal_total.saturating_sub(terminal_cap);
    let mut records = Vec::new();
    for id in ids {
        let rec = &st.jobs[&id];
        match rec.status {
            JobStatus::Queued => {
                if let Some(wire) = &rec.request_wire {
                    records.push(Record::Submitted {
                        job_id: id,
                        request: wire.clone(),
                    });
                }
            }
            JobStatus::Running => {
                if let Some(wire) = &rec.request_wire {
                    records.push(Record::Submitted {
                        job_id: id,
                        request: wire.clone(),
                    });
                    records.push(Record::Started { job_id: id });
                }
            }
            _ => {
                if skip_terminals > 0 {
                    skip_terminals -= 1;
                    continue;
                }
                let Some(response) = &rec.response else {
                    continue;
                };
                if let Some(wire) = &rec.request_wire {
                    records.push(Record::Submitted {
                        job_id: id,
                        request: wire.clone(),
                    });
                }
                records.push(Record::Finished {
                    job_id: id,
                    response: response.to_json(),
                });
            }
        }
    }
    records
}

/// The terminal response for a job cancelled before a worker picked it
/// up: no solver ever ran, so there is no [`PlaceError`] to convert.
fn cancelled_while_queued(design: &str) -> PlaceResponse {
    PlaceResponse {
        schema_version: SCHEMA_VERSION,
        design: design.to_string(),
        status: JobStatus::Cancelled,
        cached: false,
        error: Some(ApiError {
            kind: ErrorKind::Cancelled,
            message: "cancelled while queued".to_string(),
            provenance: Vec::new(),
        }),
        stats: None,
        cells: None,
    }
}

/// The terminal response for a job the dead process had mid-solve when
/// the resume policy is [`ResumePolicy::MarkInterrupted`].
fn interrupted_response(design: &str) -> PlaceResponse {
    PlaceResponse {
        schema_version: SCHEMA_VERSION,
        design: design.to_string(),
        status: JobStatus::Interrupted,
        cached: false,
        error: Some(ApiError {
            kind: ErrorKind::Interrupted,
            message: "interrupted: the serving process died while this job was running; \
                      resubmit to solve again"
                .to_string(),
            provenance: Vec::new(),
        }),
        stats: None,
        cells: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_place::api::JobOptions;

    fn quick_request() -> PlaceRequest {
        PlaceRequest {
            design: ams_netlist::benchmarks::buf(),
            options: JobOptions {
                quick: true,
                ..JobOptions::default()
            },
            idempotency_key: None,
        }
    }

    fn tiny_engine(queue_cap: usize) -> Engine {
        Engine::new(EngineConfig {
            queue_cap,
            exact_cap: 8,
            warm_cap: 2,
            shed_high_water: queue_cap.max(1),
            idem_window: 8,
        })
    }

    #[test]
    fn saturated_queue_rejects_and_counts() {
        let engine = tiny_engine(1);
        assert!(matches!(
            engine.submit(quick_request()),
            Submitted::Queued(_)
        ));
        assert!(matches!(
            engine.submit(quick_request()),
            Submitted::Saturated
        ));
        assert_eq!(engine.counters.rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn idempotency_key_dedups_within_the_window() {
        let engine = tiny_engine(8);
        let mut request = quick_request();
        request.idempotency_key = Some("retry-1".into());
        let Submitted::Queued(first) = engine.submit(request.clone()) else {
            panic!("queue has room");
        };
        let Submitted::Deduplicated(again) = engine.submit(request.clone()) else {
            panic!("same key must deduplicate");
        };
        assert_eq!(first, again);
        assert_eq!(engine.counters.deduped.load(Ordering::Relaxed), 1);
        assert_eq!(engine.counters.submitted.load(Ordering::Relaxed), 1);

        // A different key is a different submission.
        request.idempotency_key = Some("retry-2".into());
        assert!(matches!(engine.submit(request), Submitted::Queued(_)));
    }

    #[test]
    fn idempotency_window_evicts_fifo() {
        let mut config = EngineConfig::for_queue(32);
        config.idem_window = 2;
        let engine = Engine::new(config);
        for key in ["a", "b", "c"] {
            let mut request = quick_request();
            request.idempotency_key = Some(key.to_string());
            assert!(matches!(engine.submit(request), Submitted::Queued(_)));
        }
        // "a" was evicted: the same key now starts a fresh job.
        let mut request = quick_request();
        request.idempotency_key = Some("a".into());
        assert!(matches!(engine.submit(request), Submitted::Queued(_)));
        // "c" is still remembered.
        let mut request = quick_request();
        request.idempotency_key = Some("c".into());
        assert!(matches!(engine.submit(request), Submitted::Deduplicated(_)));
    }

    #[test]
    fn degraded_engine_sheds_cold_submissions() {
        let engine = Engine::new(EngineConfig {
            queue_cap: 8,
            exact_cap: 8,
            warm_cap: 2,
            shed_high_water: 1,
            idem_window: 8,
        });
        assert!(!engine.degraded());
        assert!(matches!(
            engine.submit(quick_request()),
            Submitted::Queued(_)
        ));
        // Past the high-water mark with no cache entry for the design:
        // cold work sheds, and the engine reports degraded.
        assert!(engine.degraded());
        assert!(matches!(engine.submit(quick_request()), Submitted::Shed));
        assert_eq!(engine.counters.shed.load(Ordering::Relaxed), 1);
        let stats = engine.stats();
        assert_eq!(stats.field("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(stats.field("shed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn queued_cancel_terminates_without_a_worker() {
        let engine = tiny_engine(4);
        let Submitted::Queued(id) = engine.submit(quick_request()) else {
            panic!("queue has room");
        };
        assert_eq!(engine.cancel(id), Some(JobStatus::Cancelled));
        let view = engine.job_view(id).unwrap();
        assert_eq!(
            view.field("status").and_then(Json::as_str),
            Some("cancelled")
        );
        let response = view.field("response").unwrap();
        assert_eq!(
            response
                .field("error")
                .and_then(|e| e.field("kind"))
                .and_then(Json::as_str),
            Some("cancelled")
        );
        assert_eq!(engine.cancel(9999), None);
    }
}
