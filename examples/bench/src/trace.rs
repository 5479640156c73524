//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer of the placement stack, never inside the program. A disabled
//! recorder costs one atomic load per call, so the untraced run measures
//! the program and nothing else.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use ams_netlist::json::Json;

static ON: AtomicBool = AtomicBool::new(false);
static REP: AtomicU32 = AtomicU32::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One finished span. Times are microseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<u64>,
    /// The job this span worked for; spans of one job share it.
    pub job: u64,
    /// The repetition of the job set the span fell in.
    pub rep: u32,
    pub tid: u32,
}

/// A finished span a synthetic child can be attached to.
#[derive(Clone, Copy)]
pub struct Handle {
    id: u64,
    job: u64,
    start_us: f64,
    end_us: f64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Tags the spans recorded from now on with repetition `rep`.
pub fn set_rep(rep: u32) {
    REP.store(rep, Ordering::Relaxed);
}

/// Runs `f` inside a span named after the layer it calls into.
pub fn span<R>(name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
    span_handle(name, job, f).0
}

/// [`span`] that also hands back the finished span, so a child that could
/// not be wrapped can be attached to it with [`child_at_end`].
pub fn span_handle<R>(name: &'static str, job: u64, f: impl FnOnce() -> R) -> (R, Option<Handle>) {
    if !enabled() {
        return (f(), None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start_us = now_us();
    let out = f();
    let end_us = now_us();
    STACK.with(|s| s.borrow_mut().pop());
    push(Span {
        id,
        name,
        start_us,
        end_us,
        parent,
        job,
        rep: REP.load(Ordering::Relaxed),
        tid: TID.with(|t| *t),
    });
    (
        out,
        Some(Handle {
            id,
            job,
            start_us,
            end_us,
        }),
    )
}

/// Records a child span that ran at the end of `parent` for `dur` (capped
/// to the parent): a phase the program times itself but that the
/// benchmark cannot wrap, such as lowering inside `Placer::new`.
pub fn child_at_end(parent: Option<Handle>, name: &'static str, dur: Duration) {
    let Some(parent) = parent else { return };
    let start_us = (parent.end_us - dur.as_secs_f64() * 1e6).max(parent.start_us);
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        name,
        start_us,
        end_us: parent.end_us,
        parent: Some(parent.id),
        job: parent.job,
        rep: REP.load(Ordering::Relaxed),
        tid: TID.with(|t| *t),
    });
}

fn push(span: Span) {
    SPANS.lock().expect("span log lock").push(span);
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span log lock").clone()
}

/// Self time in ms per span name, per repetition: a span's duration minus
/// the part its children cover.
pub fn self_ms_by_rep(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += s.end_us - s.start_us;
        }
    }
    let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for s in spans {
        let own = s.end_us - s.start_us - child_us.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.rep).or_default().entry(s.name).or_default() += own / 1e3;
    }
    out
}

/// The spans as Chrome trace-event JSON (complete events, `ph: "X"`),
/// loadable in `chrome://tracing` or Perfetto, under one process named
/// after the workload.
pub fn chrome_events(spans: &[Span], process_name: &str) -> Vec<Json> {
    let pid = 1;
    let mut events = vec![Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::uint(pid)),
        ("args", Json::obj([("name", Json::str(process_name))])),
    ])];
    events.extend(spans.iter().map(|s| {
        Json::obj([
            ("name", Json::str(s.name)),
            ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
            ("ph", Json::str("X")),
            ("ts", Json::Num(s.start_us)),
            ("dur", Json::Num(s.end_us - s.start_us)),
            ("pid", Json::uint(pid)),
            ("tid", Json::uint(u64::from(s.tid))),
            (
                "args",
                Json::obj([
                    ("job", Json::uint(s.job)),
                    ("rep", Json::uint(u64::from(s.rep))),
                    ("parent", s.parent.map_or(Json::Null, Json::uint)),
                ]),
            ),
        ])
    }));
    events
}
