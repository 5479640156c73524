//! The stable typed request/response surface shared by the `amsplace`
//! CLI and the job server (`amsplace serve`).
//!
//! Every document carries an explicit [`SCHEMA_VERSION`] so downstream
//! consumers (dashboards, the bench harness, remote clients) can detect
//! incompatible changes instead of misparsing them. Serialization goes
//! through the workspace's hand-rolled [`Json`] module — the build is
//! fully offline, so there is no serde.
//!
//! The same types drive both transports: `amsplace --stats-json` writes
//! the [`stats_to_json`] document, the CLI process exit code is
//! [`ErrorKind::exit_code`], and the server wraps everything in a
//! [`PlaceResponse`].

use crate::placement::{PlaceOutcome, Placement, PresolveStats};
use crate::placer::PlaceError;
use crate::PlacerConfig;
use ams_netlist::json::Json;
use ams_netlist::{benchmarks, Design};
use std::time::Duration;

/// Version of every JSON document this module emits. Bump on any
/// breaking change to the field sets (the `stats_schema` goldens pin
/// them).
///
/// Version history: 1 = PR 7 service surface; 2 = crash-safe serving
/// (request `idempotency_key`, the `interrupted` job status and error
/// kind, `degraded` in the service health documents); 3 = routing
/// closure (the constant-shape `closure` object in the stats document,
/// `close`/`close_iters` job options); 4 = the `clauses_saved` key of the
/// stats `presolve` object removed, with the shadow unpruned encode that
/// measured it; 5 = lazy pin-density windows (the `active_windows` and
/// `window_resolves` stats keys) and the optional `aspect` job option.
pub const SCHEMA_VERSION: u64 = 5;

/// Lifecycle state of a placement job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is solving it.
    Running,
    /// Finished with a legal placement.
    Done,
    /// Finished with an error ([`PlaceResponse::error`] says which).
    Failed,
    /// Cancelled before completion.
    Cancelled,
    /// The serving process died mid-solve and the resume policy chose
    /// not to re-run the job. Terminal; resubmitting re-solves.
    Interrupted,
}

impl JobStatus {
    /// Wire name of this status.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Interrupted => "interrupted",
        }
    }

    /// Parses a wire name back into a status.
    pub fn parse(name: &str) -> Option<JobStatus> {
        Some(match name {
            "queued" => JobStatus::Queued,
            "running" => JobStatus::Running,
            "done" => JobStatus::Done,
            "failed" => JobStatus::Failed,
            "cancelled" => JobStatus::Cancelled,
            "interrupted" => JobStatus::Interrupted,
            _ => return None,
        })
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled | JobStatus::Interrupted
        )
    }
}

/// Classified placement failure — the API mirror of [`PlaceError`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorKind {
    /// Invalid configuration.
    Config,
    /// The pre-solve linter proved the instance broken.
    Lint,
    /// No legal placement exists.
    Infeasible,
    /// Conflict budget exhausted before a first model.
    BudgetExhausted,
    /// Wall-clock deadline expired before a first model.
    DeadlineExpired,
    /// Cancelled by the caller.
    Cancelled,
    /// The serving process died while the job was running and the
    /// resume policy marked it rather than re-running it.
    Interrupted,
    /// Internal failure (solver infrastructure, I/O, …).
    Internal,
}

impl ErrorKind {
    /// Wire name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Config => "config",
            ErrorKind::Lint => "lint",
            ErrorKind::Infeasible => "infeasible",
            ErrorKind::BudgetExhausted => "budget_exhausted",
            ErrorKind::DeadlineExpired => "deadline_expired",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::Interrupted => "interrupted",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(name: &str) -> Option<ErrorKind> {
        Some(match name {
            "config" => ErrorKind::Config,
            "lint" => ErrorKind::Lint,
            "infeasible" => ErrorKind::Infeasible,
            "budget_exhausted" => ErrorKind::BudgetExhausted,
            "deadline_expired" => ErrorKind::DeadlineExpired,
            "cancelled" => ErrorKind::Cancelled,
            "interrupted" => ErrorKind::Interrupted,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }

    /// The documented `amsplace` process exit code for this failure:
    /// 2 infeasible, 3 cancelled, 4 deadline expired, 5 budget
    /// exhausted, 1 everything else. Success is 0.
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorKind::Infeasible => 2,
            ErrorKind::Cancelled => 3,
            ErrorKind::DeadlineExpired => 4,
            ErrorKind::BudgetExhausted => 5,
            ErrorKind::Config | ErrorKind::Lint | ErrorKind::Interrupted | ErrorKind::Internal => 1,
        }
    }

    /// Classifies a [`PlaceError`].
    pub fn of(e: &PlaceError) -> ErrorKind {
        match e {
            PlaceError::Config(_) => ErrorKind::Config,
            PlaceError::Lint(_) => ErrorKind::Lint,
            PlaceError::Infeasible { .. } => ErrorKind::Infeasible,
            PlaceError::BudgetExhausted => ErrorKind::BudgetExhausted,
            PlaceError::DeadlineExpired => ErrorKind::DeadlineExpired,
            PlaceError::Cancelled => ErrorKind::Cancelled,
            PlaceError::Internal(_) => ErrorKind::Internal,
        }
    }
}

/// A structured placement failure as it appears on the wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ApiError {
    /// What class of failure.
    pub kind: ErrorKind,
    /// The human-readable message ([`PlaceError`]'s `Display`).
    pub message: String,
    /// For infeasibility: one line per blamed constraint family citing
    /// the design objects whose constraints conflict. Empty otherwise.
    pub provenance: Vec<String>,
}

impl ApiError {
    /// Builds the wire error from a [`PlaceError`].
    pub fn from_place_error(e: &PlaceError) -> ApiError {
        let provenance = match e {
            PlaceError::Infeasible { provenance, .. } => provenance.clone(),
            _ => Vec::new(),
        };
        ApiError {
            kind: ErrorKind::of(e),
            message: e.to_string(),
            provenance,
        }
    }

    /// Serializes to the wire shape.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str(self.kind.name())),
            ("message", Json::str(&self.message)),
            ("exit_code", Json::uint(u64::from(self.kind.exit_code()))),
            (
                "provenance",
                Json::Arr(self.provenance.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Parses the wire shape.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<ApiError, String> {
        let kind = doc
            .field("kind")
            .and_then(Json::as_str)
            .and_then(ErrorKind::parse)
            .ok_or("error.kind missing or unknown")?;
        let message = doc
            .field("message")
            .and_then(Json::as_str)
            .ok_or("error.message missing")?
            .to_string();
        let provenance = doc
            .field("provenance")
            .and_then(Json::items)
            .map(|items| {
                items
                    .iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        Ok(ApiError {
            kind,
            message,
            provenance,
        })
    }
}

/// Per-job solver knobs — the API mirror of the `amsplace` CLI flags.
/// [`JobOptions::to_config`] assembles the same [`PlacerConfig`] the CLI
/// would, so a request placed through the server and a local run with
/// the matching flags solve the identical instance.
#[derive(Clone, PartialEq, Debug)]
pub struct JobOptions {
    /// Small budgets for a fast smoke run (`--quick`).
    pub quick: bool,
    /// Optimization iterations `K_iter` (`--iters`).
    pub iters: usize,
    /// Conflict budget per optimization round (`--budget`).
    pub budget: u64,
    /// Portfolio worker threads (`--threads`); `None` solves on one
    /// thread. The server never fills it from the environment.
    pub threads: Option<usize>,
    /// Wall-clock deadline in milliseconds (`--deadline-ms`).
    pub deadline_ms: Option<u64>,
    /// Relaxation rungs on infeasibility (`--max-relax`); 0 disables the
    /// recovery ladder.
    pub max_relax: Option<usize>,
    /// Pin-density threshold λ_th override (`--lambda-th`).
    pub lambda_th: Option<u64>,
    /// Drop the AMS constraint families (`--no-ams`): the paper's
    /// "w/o Cstr." arm. [`PlaceRequest::effective_design`] strips them from
    /// the design; the configuration does not change.
    pub no_ams: bool,
    /// Certified solving (`--certify`).
    pub certify: bool,
    /// Static presolve (`--no-presolve` turns it off).
    pub presolve: bool,
    /// Run the routing-closure loop (`amsplace close` or `--close`, locally
    /// or through `submit`): place, route, tighten hot windows, re-solve.
    pub close: bool,
    /// Closure iteration budget when `close` is set (`--max-iters`);
    /// `None` takes [`crate::ClosureConfig`]'s default.
    pub close_iters: Option<u64>,
    /// Die aspect ratio (width / height); `None` keeps the preset's. The
    /// CLI sets it from a `scenario:<i>` design spec, whose sweep point
    /// fixes the die aspect ([`crate::scenario::Scenario::config`]).
    pub aspect: Option<f64>,
}

impl Default for JobOptions {
    fn default() -> JobOptions {
        JobOptions {
            quick: false,
            iters: 2,
            budget: 100_000,
            threads: None,
            deadline_ms: None,
            max_relax: None,
            lambda_th: None,
            no_ams: false,
            certify: false,
            presolve: true,
            close: false,
            close_iters: None,
            aspect: None,
        }
    }
}

impl JobOptions {
    /// Assembles the [`PlacerConfig`] these options describe: the one
    /// translation of `amsplace` flags or a service request into a
    /// configuration, thread count and deadline included. It reads no
    /// environment, so a request solves the same on every host.
    pub fn to_config(&self) -> PlacerConfig {
        let mut config = if self.quick {
            PlacerConfig::fast()
        } else {
            PlacerConfig::default()
        };
        config.optimize.k_iter = self.iters;
        config.optimize.conflict_budget = Some(self.budget);
        if self.quick {
            config.optimize.k_iter = config.optimize.k_iter.min(1);
            config.optimize.conflict_budget = Some(20_000);
        }
        if let Some(rungs) = self.max_relax {
            config.recovery.max_rungs = rungs;
        }
        if let Some(lambda) = self.lambda_th {
            let mut density = config.pin_density.unwrap_or_default();
            density.lambda = Some(lambda);
            config.pin_density = Some(density);
        }
        if !self.presolve {
            config.presolve.enabled = false;
        }
        config.solver.certify = self.certify;
        if let Some(threads) = self.threads {
            config.solver.threads = threads;
        }
        config.solver.deadline = self.deadline_ms.map(Duration::from_millis);
        if let Some(aspect) = self.aspect {
            config.aspect_ratio = aspect;
        }
        config
    }

    /// The closure-loop knobs these options describe, or `None` when the
    /// job did not ask for routing closure.
    pub fn closure(&self) -> Option<crate::ClosureConfig> {
        self.close.then(|| {
            let mut c = crate::ClosureConfig::default();
            if let Some(n) = self.close_iters {
                c.max_iters = n as usize;
            }
            c
        })
    }

    /// Serializes to the wire shape. Every field is present (unset
    /// optionals are `null`), so the document doubles as the canonical
    /// input to [`options_hash`] — except `aspect`, which appears only
    /// when set, so options without it serialize and hash as they did
    /// before the field existed.
    pub fn to_json(&self) -> Json {
        let opt_uint = |v: Option<u64>| v.map_or(Json::Null, Json::uint);
        let mut doc = Json::obj([
            ("quick", Json::Bool(self.quick)),
            ("iters", Json::uint(self.iters as u64)),
            ("budget", Json::uint(self.budget)),
            ("threads", opt_uint(self.threads.map(|v| v as u64))),
            ("deadline_ms", opt_uint(self.deadline_ms)),
            ("max_relax", opt_uint(self.max_relax.map(|v| v as u64))),
            ("lambda_th", opt_uint(self.lambda_th)),
            ("no_ams", Json::Bool(self.no_ams)),
            ("certify", Json::Bool(self.certify)),
            ("presolve", Json::Bool(self.presolve)),
            ("close", Json::Bool(self.close)),
            ("close_iters", opt_uint(self.close_iters)),
        ]);
        if let (Json::Obj(fields), Some(aspect)) = (&mut doc, self.aspect) {
            fields.insert("aspect".into(), Json::Num(aspect));
        }
        doc
    }

    /// Parses the wire shape; absent fields take their defaults, so a
    /// minimal request can say `"options": {}`.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn from_json(doc: &Json) -> Result<JobOptions, String> {
        let d = JobOptions::default();
        let get_bool = |key: &str, dflt: bool| -> Result<bool, String> {
            match doc.field(key) {
                None | Some(Json::Null) => Ok(dflt),
                Some(v) => v.as_bool().ok_or(format!("options.{key} must be a bool")),
            }
        };
        let get_uint = |key: &str| -> Result<Option<u64>, String> {
            match doc.field(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or(format!("options.{key} must be a non-negative integer")),
            }
        };
        Ok(JobOptions {
            quick: get_bool("quick", d.quick)?,
            iters: get_uint("iters")?.map_or(d.iters, |v| v as usize),
            budget: get_uint("budget")?.unwrap_or(d.budget),
            threads: get_uint("threads")?.map(|v| v as usize),
            deadline_ms: get_uint("deadline_ms")?,
            max_relax: get_uint("max_relax")?.map(|v| v as usize),
            lambda_th: get_uint("lambda_th")?,
            no_ams: get_bool("no_ams", d.no_ams)?,
            certify: get_bool("certify", d.certify)?,
            presolve: get_bool("presolve", d.presolve)?,
            close: get_bool("close", d.close)?,
            close_iters: get_uint("close_iters")?,
            aspect: match doc.field("aspect") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_f64()
                        .filter(|a| a.is_finite() && *a > 0.0)
                        .ok_or("options.aspect must be a positive number")?,
                ),
            },
        })
    }
}

/// A placement job as submitted to the server (`POST /v1/jobs`).
#[derive(Clone, PartialEq, Debug)]
pub struct PlaceRequest {
    /// The design to place.
    pub design: Design,
    /// Per-job solver knobs.
    pub options: JobOptions,
    /// Client-supplied deduplication key. Two submissions carrying the
    /// same key within the server's dedup window resolve to the *same*
    /// job — a client that retries a submit after a dropped reply never
    /// double-solves. The key does not participate in the result-cache
    /// hashes: it names a submission, not a problem instance.
    pub idempotency_key: Option<String>,
}

impl PlaceRequest {
    /// The design the solver actually sees: `no_ams` strips the AMS
    /// constraint annotations, mirroring the CLI's `--no-ams`.
    pub fn effective_design(&self) -> Design {
        if self.options.no_ams {
            self.design.without_constraints()
        } else {
            self.design.clone()
        }
    }

    /// Serializes to the wire shape (the design inline as an object).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::uint(SCHEMA_VERSION)),
            ("design", self.design.to_json_value()),
            ("options", self.options.to_json()),
            (
                "idempotency_key",
                self.idempotency_key.as_ref().map_or(Json::Null, Json::str),
            ),
        ])
    }

    /// Parses the wire shape. The `design` field is either an inline
    /// netlist object or a benchmark name (`"buf"`, `"vco"`,
    /// `"synthetic"`); `options` may be absent.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<PlaceRequest, String> {
        if let Some(v) = doc.field("schema_version").and_then(Json::as_u64) {
            if v != SCHEMA_VERSION {
                return Err(format!(
                    "unsupported schema_version {v} (this build speaks {SCHEMA_VERSION})"
                ));
            }
        }
        let design = match doc.field("design") {
            Some(Json::Str(name)) => benchmarks::by_name(name)
                .ok_or_else(|| format!("unknown benchmark design {name:?}"))?,
            Some(obj @ Json::Obj(_)) => {
                Design::from_json_value(obj).map_err(|e| format!("design: {e}"))?
            }
            Some(_) => return Err("design must be an object or a benchmark name".into()),
            None => return Err("design missing".into()),
        };
        let options = match doc.field("options") {
            None | Some(Json::Null) => JobOptions::default(),
            Some(opts) => JobOptions::from_json(opts)?,
        };
        let idempotency_key = match doc.field("idempotency_key") {
            None | Some(Json::Null) => None,
            Some(Json::Str(key)) if !key.is_empty() => Some(key.clone()),
            Some(_) => return Err("idempotency_key must be a non-empty string".into()),
        };
        Ok(PlaceRequest {
            design,
            options,
            idempotency_key,
        })
    }
}

/// The outcome of a placement job — what `GET /v1/jobs/<id>` embeds once
/// the job is terminal, and what `amsplace --stats-json` + the placement
/// output together encode for a local run.
#[derive(Clone, PartialEq, Debug)]
pub struct PlaceResponse {
    /// Document schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Name of the placed design.
    pub design: String,
    /// Terminal job status: [`JobStatus::Done`], [`JobStatus::Failed`],
    /// or [`JobStatus::Cancelled`].
    pub status: JobStatus,
    /// Whether this result came from the server's exact-result cache
    /// rather than a solve. Always `false` for local CLI runs.
    pub cached: bool,
    /// The failure, when `status` is not `Done`.
    pub error: Option<ApiError>,
    /// The run-statistics document ([`stats_to_json`]); present on
    /// success.
    pub stats: Option<Json>,
    /// Placed cell rectangles ([`cells_to_json`]); present on success.
    pub cells: Option<Json>,
}

impl PlaceResponse {
    /// A successful response carrying the placement.
    pub fn success(design: &Design, placement: &Placement) -> PlaceResponse {
        PlaceResponse {
            schema_version: SCHEMA_VERSION,
            design: design.name().to_string(),
            status: JobStatus::Done,
            cached: false,
            error: None,
            stats: Some(stats_to_json(design, placement)),
            cells: Some(cells_to_json(design, placement)),
        }
    }

    /// A failed response. Cancellation reports status `cancelled`; every
    /// other error reports `failed`.
    pub fn failure(design_name: &str, e: &PlaceError) -> PlaceResponse {
        let status = match e {
            PlaceError::Cancelled => JobStatus::Cancelled,
            _ => JobStatus::Failed,
        };
        PlaceResponse {
            schema_version: SCHEMA_VERSION,
            design: design_name.to_string(),
            status,
            cached: false,
            error: Some(ApiError::from_place_error(e)),
            stats: None,
            cells: None,
        }
    }

    /// The documented process exit code of this outcome: 0 on success,
    /// [`ErrorKind::exit_code`] otherwise.
    pub fn exit_code(&self) -> u8 {
        match (&self.status, &self.error) {
            (JobStatus::Done, _) => 0,
            (_, Some(err)) => err.kind.exit_code(),
            _ => 1,
        }
    }

    /// Serializes to the wire shape. Every field is always present.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::uint(self.schema_version)),
            ("design", Json::str(&self.design)),
            ("status", Json::str(self.status.name())),
            ("cached", Json::Bool(self.cached)),
            (
                "error",
                self.error.as_ref().map_or(Json::Null, ApiError::to_json),
            ),
            ("stats", self.stats.clone().unwrap_or(Json::Null)),
            ("cells", self.cells.clone().unwrap_or(Json::Null)),
        ])
    }

    /// Parses the wire shape.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<PlaceResponse, String> {
        let schema_version = doc
            .field("schema_version")
            .and_then(Json::as_u64)
            .ok_or("schema_version missing")?;
        let design = doc
            .field("design")
            .and_then(Json::as_str)
            .ok_or("design missing")?
            .to_string();
        let status = doc
            .field("status")
            .and_then(Json::as_str)
            .and_then(JobStatus::parse)
            .ok_or("status missing or unknown")?;
        let cached = doc.field("cached").and_then(Json::as_bool).unwrap_or(false);
        let error = match doc.field("error") {
            None | Some(Json::Null) => None,
            Some(e) => Some(ApiError::from_json(e)?),
        };
        let non_null =
            |key: &str| -> Option<Json> { doc.field(key).filter(|v| !v.is_null()).cloned() };
        Ok(PlaceResponse {
            schema_version,
            design,
            status,
            cached,
            error,
            stats: non_null("stats"),
            cells: non_null("cells"),
        })
    }
}

/// Serializes run statistics (outcome, solver counters, per-worker
/// portfolio health, warm-reuse summary) — the `--stats-json` document
/// and the `stats` field of a [`PlaceResponse`]. The field set is a
/// schema contract pinned by the `stats_schema` golden tests.
pub fn stats_to_json(design: &Design, placement: &Placement) -> Json {
    let s = &placement.stats;
    let (kind, detail) = match &s.outcome {
        PlaceOutcome::Optimal => (Json::str("optimal"), Json::Null),
        PlaceOutcome::Anytime { rounds, reason } => (
            Json::str("anytime"),
            Json::obj([
                ("rounds", Json::uint(*rounds as u64)),
                ("reason", Json::str(reason.to_string())),
            ]),
        ),
        PlaceOutcome::Recovered { relaxations } => (
            Json::str("recovered"),
            Json::obj([(
                "relaxations",
                Json::Arr(
                    relaxations
                        .iter()
                        .map(|r| Json::str(r.to_string()))
                        .collect(),
                ),
            )]),
        ),
    };
    let families: Vec<Json> = s
        .families
        .iter()
        .map(|fs| {
            Json::obj([
                ("family", Json::str(fs.family.name())),
                ("constraints", Json::uint(fs.constraints as u64)),
                ("clauses", Json::uint(fs.clauses as u64)),
            ])
        })
        .collect();
    let rungs: Vec<Json> = s
        .rungs
        .iter()
        .map(|r| {
            Json::obj([
                ("relaxation", Json::str(r.relaxation.to_string())),
                ("learnts_carried", Json::uint(r.learnts_carried)),
                ("rebuilt", Json::Bool(r.rebuilt)),
            ])
        })
        .collect();
    let workers: Vec<Json> = s
        .workers
        .iter()
        .map(|w| {
            Json::obj([
                ("id", Json::uint(w.id as u64)),
                ("conflicts", Json::uint(w.conflicts)),
                ("decisions", Json::uint(w.decisions)),
                ("restarts", Json::uint(w.restarts)),
                ("exported", Json::uint(w.exported)),
                ("imported", Json::uint(w.imported)),
                ("panicked", Json::Bool(w.panicked)),
                (
                    "panic_message",
                    w.panic_message.as_ref().map_or(Json::Null, Json::str),
                ),
            ])
        })
        .collect();
    let warm = s.warm.as_ref().map_or(Json::Null, |w| {
        Json::obj([
            (
                "relowered",
                Json::Arr(
                    w.relowered
                        .iter()
                        .map(|fam| Json::str(fam.name()))
                        .collect(),
                ),
            ),
            ("learnts_carried", Json::uint(w.learnts_carried)),
        ])
    });
    Json::obj([
        ("schema_version", Json::uint(SCHEMA_VERSION)),
        ("design", Json::str(design.name())),
        ("outcome", kind),
        ("outcome_detail", detail),
        ("iterations", Json::uint(s.iterations as u64)),
        ("runtime_ms", Json::uint(s.runtime.as_millis() as u64)),
        ("conflicts", Json::uint(s.conflicts)),
        ("sat_vars", Json::uint(s.sat_vars as u64)),
        ("sat_clauses", Json::uint(s.sat_clauses as u64)),
        ("families", Json::Arr(families)),
        ("lowering_ms", Json::uint(s.lowering.as_millis() as u64)),
        ("rungs", Json::Arr(rungs)),
        ("threads", Json::uint(s.threads as u64)),
        (
            "winner",
            s.winner.map_or(Json::Null, |w| Json::uint(w as u64)),
        ),
        ("workers", Json::Arr(workers)),
        (
            "hpwl_trace",
            Json::Arr(s.hpwl_trace.iter().map(|&v| Json::uint(v)).collect()),
        ),
        (
            "active_windows",
            Json::Arr(
                s.active_windows
                    .iter()
                    .map(|&n| Json::uint(n as u64))
                    .collect(),
            ),
        ),
        ("window_resolves", Json::uint(s.window_resolves)),
        (
            "die",
            Json::obj([
                ("w", Json::uint(u64::from(placement.die.w))),
                ("h", Json::uint(u64::from(placement.die.h))),
            ]),
        ),
        ("hpwl_um", Json::Num(placement.hpwl_um(design))),
        ("area_um2", Json::Num(placement.area_um2(design))),
        (
            "certify",
            s.certify.map_or(Json::Null, |c| {
                Json::obj([
                    ("cnf_clauses", Json::uint(c.cnf_clauses as u64)),
                    ("proof_steps", Json::uint(c.proof_steps as u64)),
                    ("model_violations", Json::uint(c.model_violations as u64)),
                ])
            }),
        ),
        ("presolve", presolve_to_json(s.presolve.as_ref())),
        ("warm", warm),
        ("closure", closure_to_json(s.closure.as_ref())),
    ])
}

/// Serializes the routing-closure summary with a constant shape: a run
/// without closure still yields every key (mirroring [`presolve_to_json`]),
/// so the stats schema stays stable.
pub fn closure_to_json(cs: Option<&crate::ClosureStats>) -> Json {
    match cs {
        Some(cs) => Json::obj([
            ("ran", Json::Bool(true)),
            ("iterations", Json::uint(cs.iterations as u64)),
            ("drc_clean", Json::Bool(cs.drc_clean)),
            (
                "hot_windows",
                Json::Arr(
                    cs.hot_windows
                        .iter()
                        .map(|&(x, y)| {
                            Json::obj([
                                ("x", Json::uint(u64::from(x))),
                                ("y", Json::uint(u64::from(y))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "routed_wl_trend",
                Json::Arr(cs.routed_wl_trend.iter().map(|&v| Json::uint(v)).collect()),
            ),
        ]),
        None => Json::obj([
            ("ran", Json::Bool(false)),
            ("iterations", Json::uint(0)),
            ("drc_clean", Json::Bool(false)),
            ("hot_windows", Json::Arr(Vec::new())),
            ("routed_wl_trend", Json::Arr(Vec::new())),
        ]),
    }
}

/// Serializes the presolve summary with a constant shape: a disabled
/// presolve still yields every key, so the stats schema stays stable.
pub fn presolve_to_json(ps: Option<&PresolveStats>) -> Json {
    match ps {
        Some(ps) => Json::obj([
            ("ran", Json::Bool(ps.ran)),
            ("verdict", Json::str(&ps.verdict)),
            ("vars_saved_bits", Json::uint(ps.vars_saved_bits)),
            (
                "passes",
                Json::Arr(
                    ps.passes
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("pass", Json::str(p.pass)),
                                ("verdict", Json::str(&p.verdict)),
                                ("detail", Json::str(&p.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        None => Json::obj([
            ("ran", Json::Bool(false)),
            ("verdict", Json::str("skipped")),
            ("vars_saved_bits", Json::uint(0)),
            ("passes", Json::Arr(Vec::new())),
        ]),
    }
}

/// Serializes the placed cell rectangles (absolute grid coordinates) as
/// an array of `{cell, x, y, w, h}` — bit-identical placements yield
/// byte-identical documents, which is what the cache-determinism tests
/// compare.
pub fn cells_to_json(design: &Design, placement: &Placement) -> Json {
    Json::Arr(
        design
            .cells()
            .iter()
            .zip(&placement.cells)
            .map(|(c, r)| {
                Json::obj([
                    ("cell", Json::str(&c.name)),
                    ("x", Json::uint(u64::from(r.x))),
                    ("y", Json::uint(u64::from(r.y))),
                    ("w", Json::uint(u64::from(r.w))),
                    ("h", Json::uint(u64::from(r.h))),
                ])
            })
            .collect(),
    )
}

/// 64-bit FNV-1a — the workspace's dependency-free content hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Content hash of a design: FNV-1a over its canonical JSON
/// serialization. Two designs hash equal iff their serialized forms are
/// byte-identical — the exact-result and warm-solver cache key half.
pub fn design_hash(design: &Design) -> u64 {
    fnv1a(design.to_json().as_bytes())
}

/// Content hash of a job's options: FNV-1a over the canonical
/// [`JobOptions::to_json`] document — the other cache key half.
pub fn options_hash(options: &JobOptions) -> u64 {
    fnv1a(options.to_json().pretty().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_options_roundtrip_and_default_from_empty() {
        let opts = JobOptions {
            quick: true,
            iters: 7,
            budget: 5_000,
            threads: Some(2),
            deadline_ms: Some(1_500),
            max_relax: Some(0),
            lambda_th: Some(9),
            no_ams: true,
            certify: true,
            presolve: false,
            close: true,
            close_iters: Some(3),
            aspect: Some(2.0),
        };
        let back = JobOptions::from_json(&opts.to_json()).expect("roundtrip");
        assert_eq!(back, opts);
        let empty = JobOptions::from_json(&Json::obj([])).expect("defaults");
        assert_eq!(empty, JobOptions::default());
        let closure = back.closure().expect("close requested");
        assert_eq!(closure.max_iters, 3);
        assert_eq!(JobOptions::default().closure(), None);
        assert_eq!(back.to_config().aspect_ratio, 2.0);
    }

    #[test]
    fn options_without_an_aspect_serialize_as_before_it_existed() {
        // Requests and journal records written without the field parse,
        // and options that leave it unset hash as they always did.
        let doc = JobOptions::default().to_json();
        assert!(doc.field("aspect").is_none());
        assert_eq!(
            JobOptions::from_json(&doc).expect("parses"),
            JobOptions::default()
        );
        for bad in [Json::Num(0.0), Json::Num(-1.0), Json::str("wide")] {
            let doc = Json::obj([("aspect", bad)]);
            assert!(JobOptions::from_json(&doc).is_err());
        }
    }

    #[test]
    fn to_config_carries_threads_and_deadline() {
        let config = JobOptions {
            threads: Some(3),
            deadline_ms: Some(250),
            ..JobOptions::default()
        }
        .to_config();
        assert_eq!(config.solver.threads, 3);
        assert_eq!(config.solver.deadline, Some(Duration::from_millis(250)));
        // Unset values are the configuration's defaults, never the
        // environment's: CI reruns this suite under AMSPLACE_THREADS=4.
        let config = JobOptions::default().to_config();
        assert_eq!(config.solver.threads, 1);
        assert_eq!(config.solver.deadline, None);
    }

    #[test]
    fn place_request_roundtrips_and_accepts_benchmark_names() {
        let req = PlaceRequest {
            design: benchmarks::buf(),
            options: JobOptions {
                quick: true,
                ..JobOptions::default()
            },
            idempotency_key: Some("submit-42".into()),
        };
        let back = PlaceRequest::from_json(&req.to_json()).expect("roundtrip");
        assert_eq!(back.design.to_json(), req.design.to_json());
        assert_eq!(back.options, req.options);
        assert_eq!(back.idempotency_key.as_deref(), Some("submit-42"));

        let named = Json::obj([("design", Json::str("buf"))]);
        let parsed = PlaceRequest::from_json(&named).expect("benchmark name");
        assert_eq!(parsed.design.to_json(), benchmarks::buf().to_json());
        assert_eq!(parsed.options, JobOptions::default());
        assert_eq!(parsed.idempotency_key, None);

        let blank_key = Json::obj([
            ("design", Json::str("buf")),
            ("idempotency_key", Json::str("")),
        ]);
        assert!(PlaceRequest::from_json(&blank_key).is_err());

        let wrong_version = Json::obj([
            ("design", Json::str("buf")),
            ("schema_version", Json::uint(999)),
        ]);
        assert!(PlaceRequest::from_json(&wrong_version).is_err());
    }

    #[test]
    fn error_kinds_map_to_documented_exit_codes() {
        assert_eq!(ErrorKind::Infeasible.exit_code(), 2);
        assert_eq!(ErrorKind::Cancelled.exit_code(), 3);
        assert_eq!(ErrorKind::DeadlineExpired.exit_code(), 4);
        assert_eq!(ErrorKind::BudgetExhausted.exit_code(), 5);
        assert_eq!(ErrorKind::Config.exit_code(), 1);
        assert_eq!(ErrorKind::Lint.exit_code(), 1);
        assert_eq!(ErrorKind::Interrupted.exit_code(), 1);
        assert_eq!(ErrorKind::Internal.exit_code(), 1);
        assert_eq!(ErrorKind::of(&PlaceError::Cancelled), ErrorKind::Cancelled);
    }

    #[test]
    fn interrupted_is_a_terminal_wire_status() {
        assert_eq!(
            JobStatus::parse("interrupted"),
            Some(JobStatus::Interrupted)
        );
        assert_eq!(JobStatus::Interrupted.name(), "interrupted");
        assert!(JobStatus::Interrupted.is_terminal());
        assert_eq!(
            ErrorKind::parse("interrupted"),
            Some(ErrorKind::Interrupted)
        );
    }

    #[test]
    fn failure_response_roundtrips_with_provenance() {
        let e = PlaceError::Infeasible {
            conflict: vec![crate::ConstraintFamily::PinDensity],
            provenance: vec!["pin density: window (0,0) over threshold".into()],
            certificate: None,
        };
        let resp = PlaceResponse::failure("buf", &e);
        assert_eq!(resp.status, JobStatus::Failed);
        assert_eq!(resp.exit_code(), 2);
        let back = PlaceResponse::from_json(&resp.to_json()).expect("roundtrip");
        assert_eq!(back, resp);
        assert_eq!(back.error.expect("error present").provenance.len(), 1,);

        let cancelled = PlaceResponse::failure("buf", &PlaceError::Cancelled);
        assert_eq!(cancelled.status, JobStatus::Cancelled);
        assert_eq!(cancelled.exit_code(), 3);
    }

    #[test]
    fn hashes_separate_content_not_representation() {
        let buf = benchmarks::buf();
        assert_eq!(design_hash(&buf), design_hash(&benchmarks::buf()));
        assert_ne!(design_hash(&buf), design_hash(&benchmarks::vco()));

        let a = JobOptions::default();
        let mut b = JobOptions::default();
        assert_eq!(options_hash(&a), options_hash(&b));
        b.lambda_th = Some(3);
        assert_ne!(options_hash(&a), options_hash(&b));
    }
}
