//! Measures one workload in this process and reduces what it saw to the
//! metrics `BENCHMARK.json` names.
//!
//! A run sets the workload up several times (the median is `setup_s`),
//! then repeats the workload's job set while another repetition still fits
//! in `--seconds`, so every repetition does the same work and timings are
//! medians over repetitions. Outputs are checked as they arrive and once
//! more after the timed part.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use ams_netlist::json::Json;
use ams_netlist::Design;
use ams_place::{ClosureStats, PlaceOutcome, Placement};
use ams_route::RouteResult;

use crate::spec::spec;
use crate::speed;
use crate::stats::{median, percentile};
use crate::trace;

/// What one repetition of a workload's job set measured.
#[derive(Default)]
pub struct Rep {
    /// Seconds to finish the job set once.
    pub wall_s: f64,
    /// Fixture set-up this repetition needed before its timed part (the
    /// server start of serve-mix), counted in `setup_s`, not in `wall_s`.
    pub fixture_s: f64,
    /// Per-job latency.
    pub job_ms: Vec<f64>,
    pub failures: Vec<String>,
    /// Deterministic work counts and quality sums.
    pub tally: Tally,
    /// Measured values that vary from run to run, by name. Names that are
    /// per-layer metrics are reported as such; the rest go to the detailed
    /// report only.
    pub gauges: BTreeMap<String, f64>,
}

impl Rep {
    pub fn gauge(&mut self, name: &str, v: f64) {
        *self.gauges.entry(name.to_string()).or_default() += v;
    }
}

/// Sums of what the program reports about its own work over one job set.
/// Every field repeats exactly for identical code and inputs: solves run
/// on one thread under conflict budgets, and jobs run in a fixed order.
#[derive(Default, Clone, PartialEq, Debug)]
pub struct Tally {
    pub counts: BTreeMap<String, u64>,
    pub hpwl_um: f64,
    pub routed_wl_um: f64,
    placed: u64,
    /// Sum over placed jobs of the share of the Algorithm-1 schedule each
    /// finished.
    schedule: f64,
    routed: u64,
    clean: u64,
}

impl Tally {
    pub fn add(&mut self, name: &str, v: u64) {
        *self.counts.entry(name.to_string()).or_default() += v;
    }

    /// Counts one placement: CNF size, solver work, schedule and HPWL.
    pub fn placement(&mut self, design: &Design, p: &Placement, k_iter: usize) {
        let s = &p.stats;
        self.add("cnf.vars", s.sat_vars as u64);
        self.add("cnf.clauses", s.sat_clauses as u64);
        for f in &s.families {
            self.add(
                &format!("cnf.clauses.{}", f.family.name()),
                f.clauses as u64,
            );
        }
        self.add("solve.conflicts", s.conflicts);
        self.add("solve.rounds", s.iterations as u64);
        if let Some(p) = &s.presolve {
            self.add("presolve.vars_saved_bits", p.vars_saved_bits);
        }
        let rounds = match s.outcome {
            PlaceOutcome::Anytime { rounds, .. } => {
                self.add("solve.anytime_jobs", 1);
                Some(rounds)
            }
            _ => None,
        };
        self.placed_job(p.hpwl_um(design), rounds, k_iter);
    }

    /// Counts a placed job from its HPWL and, when it ended on a budget,
    /// the SAT rounds it finished out of the `k_iter + 1` of its schedule
    /// (the feasibility solve plus `k_iter` tightening rounds).
    pub fn placed_job(&mut self, hpwl_um: f64, anytime_rounds: Option<usize>, k_iter: usize) {
        self.placed += 1;
        self.hpwl_um += hpwl_um;
        self.schedule +=
            anytime_rounds.map_or(1.0, |rounds| (rounds as f64 / (k_iter + 1) as f64).min(1.0));
    }

    /// Counts the router's work on one routing.
    pub fn route_work(&mut self, r: &RouteResult) {
        self.add("route.rip_up_rounds", r.iterations as u64);
        self.add("route.overflow_edges", r.overflow as u64);
        self.add("route.vias", r.vias);
    }

    /// Counts the routing a job ends with: routed wirelength and whether
    /// it is free of overflow.
    pub fn final_route(&mut self, design: &Design, r: &RouteResult) {
        self.routed_wl_um += r.wirelength_um(design.pitch());
        self.routed += 1;
        self.clean += u64::from(r.overflow == 0);
    }

    /// Counts one routing-closure job.
    pub fn closure(&mut self, stats: &ClosureStats) {
        self.add("closure.iterations", stats.iterations as u64);
        self.add("closure.hot_windows", stats.hot_windows.len() as u64);
        if stats.iterations > 1 {
            self.add("closure.multi_iter_jobs", 1);
        }
    }

    fn schedule_share(&self) -> f64 {
        share(self.schedule, self.placed as f64)
    }

    fn drc_clean_share(&self) -> f64 {
        share(self.clean as f64, self.routed as f64)
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// A workload: inputs made from a seed, and a job set run repeatedly.
pub trait Workload {
    /// Client threads issuing the job set concurrently; the traced self
    /// times of a repetition add up to its wall times this many.
    const CLIENTS: f64 = 1.0;
    /// Generates the inputs. Timed as set-up.
    fn prepare(seed: u64) -> Self
    where
        Self: Sized;
    /// Runs the job set once; `traced` runs also call the standalone
    /// analyses (lint, presolve) so their cost shows per layer.
    fn rep(&mut self, traced: bool) -> Rep;
    /// Checks made once after the timed repetitions, untimed. May complete
    /// the repetitions' tallies.
    fn finish(&mut self, _reps: &mut [Rep]) {}
}

/// One metric value, with the per-repetition values behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub samples: Vec<f64>,
    /// End-to-end timings only: the value and samples before scaling to
    /// the reference speed.
    pub raw: Option<(f64, Vec<f64>)>,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: BTreeMap<String, Metric>,
    /// Medians over repetitions of values the contract does not list:
    /// per-span self ms of traced runs, latency per cache path, and such.
    pub detail: BTreeMap<String, f64>,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The detailed report (`--out`): metrics with their samples (and
    /// timings with their raw value and samples), failures and details.
    pub fn to_json(&self) -> Json {
        let numbers = |xs: &[f64]| Json::Arr(xs.iter().map(|&v| Json::Num(v)).collect());
        let metrics = self
            .metrics
            .iter()
            .map(|(k, m)| {
                let mut fields = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(&m.unit)),
                    ("samples", numbers(&m.samples)),
                ];
                if let Some((value, samples)) = &m.raw {
                    let raw =
                        Json::obj([("value", Json::Num(*value)), ("samples", numbers(samples))]);
                    fields.push(("raw", raw));
                }
                (k.clone(), Json::obj(fields))
            })
            .collect();
        let detail = self
            .detail
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v)))
            .collect();
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::uint(self.seed)),
            ("trace", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::uint(self.attempted)),
            ("failed", Json::uint(self.failures.len() as u64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
            ("detail", Json::Obj(detail)),
        ])
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(&m.unit))]),
                )
            })
            .collect();
        one_line(&Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::uint(self.attempted)),
            ("failed", Json::uint(self.failures.len() as u64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

/// A JSON document on one line. Strings never span lines in the
/// workspace's printer, so every line break sits between tokens.
pub fn one_line(doc: &Json) -> String {
    doc.pretty().lines().map(str::trim_start).collect()
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer share metrics and the spans whose self time they report.
const LAYER_PCT: [(&str, &str); 10] = [
    ("encode.pct", "encode"),
    ("lower.pct", "lower"),
    ("solve.pct", "solve"),
    ("verify.pct", "verify"),
    ("route.pct", "route"),
    ("extract.pct", "extract"),
    ("closure.place_pct", "closure"),
    ("serve.submit_pct", "serve.submit"),
    ("serve.poll_pct", "serve.poll"),
    ("serve.sleep_pct", "serve.sleep"),
];

/// Metric name -> (value, per-repetition samples behind it).
type Values = BTreeMap<String, (f64, Vec<f64>)>;

/// Records a metric whose value is the median of its samples.
fn put(values: &mut Values, name: &str, samples: Vec<f64>) {
    values.insert(name.to_string(), (median(&samples), samples));
}

/// Set-up runs at least this often, and for at least this long, so its
/// median is steady even where one set-up takes microseconds.
const SETUP_RUNS: usize = 9;
const SETUP_MIN_S: f64 = 0.25;

/// Set-up times in seconds, raw and scaled to the reference speed by the
/// speed sample taken right before each (see `speed`).
struct Setup {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

/// The timed part of a run: the repetitions, the time window of each, and
/// the peak memory after the first.
struct Timed {
    reps: Vec<Rep>,
    windows: Vec<(Instant, Instant)>,
    rss_mb: f64,
}

/// Runs workload `W` for about `seconds` and reduces it to metrics.
/// `burn` extra threads spin while the repetitions run (see [`burning`]).
pub fn run<W: Workload>(name: &str, seed: u64, seconds: f64, traced: bool, burn: usize) -> Outcome {
    let (setup, mut workload) = set_up::<W>(seed);
    let (timed, samples) =
        speed::probed(|| burning(burn, || repeat(&mut workload, seconds, traced)));
    let Timed {
        mut reps,
        windows,
        rss_mb,
    } = timed;
    workload.finish(&mut reps);

    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.tally != reps[0].tally {
            failures.push(format!(
                "repetition {i} counted different work or quality than repetition 0"
            ));
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.job_ms.len() as u64).sum();

    let mut values = Values::new();
    let mut raw = Values::new();
    let mut detail: BTreeMap<String, f64> = BTreeMap::new();
    let spans = if traced { trace::spans() } else { Vec::new() };
    // A single-client workload runs its jobs on this thread.
    let on_caller = W::CLIENTS == 1.0;
    let scales: Vec<f64> = windows
        .iter()
        .map(|&(from, to)| samples.scale(from, to, on_caller))
        .collect();
    if traced {
        per_layer(
            &reps,
            &setup.raw,
            &spans,
            W::CLIENTS,
            &mut values,
            &mut detail,
        );
    } else {
        end_to_end(
            &reps,
            &scales,
            &setup,
            rss_mb,
            &mut values,
            &mut raw,
            &mut detail,
        );
    }
    // Traced runs keep the scale too, so tracing overhead can be read at
    // the reference speed.
    detail.insert("speed.sample_ms".into(), samples.mean_ms());
    detail.insert("speed.scale".into(), median(&scales));
    // Gauges: per-layer ones become metrics of traced runs, the rest details.
    let gauge_names: BTreeSet<String> =
        reps.iter().flat_map(|r| r.gauges.keys().cloned()).collect();
    for g in gauge_names {
        let samples = per_rep(&reps, |r| r.gauges.get(&g).copied().unwrap_or(0.0));
        if traced && spec().per_layer.iter().any(|m| m.name == g) {
            put(&mut values, &g, samples);
        } else {
            detail.insert(g, median(&samples));
        }
    }

    let wanted = if traced {
        &spec().per_layer
    } else {
        &spec().end_to_end
    };
    let metrics = wanted
        .iter()
        .map(|m| {
            // A per-layer metric a workload never reaches reads zero.
            let (value, samples) = values.remove(&m.name).unwrap_or((0.0, Vec::new()));
            let metric = Metric {
                value,
                unit: m.unit.clone(),
                samples,
                raw: raw.remove(&m.name),
            };
            (m.name.clone(), metric)
        })
        .collect();

    Outcome {
        workload: name.to_string(),
        seed,
        traced,
        attempted,
        failures,
        metrics,
        detail,
        spans,
    }
}

/// Sets the workload up repeatedly, each time right after a speed sample
/// on the same thread, and keeps the last set-up.
fn set_up<W: Workload>(seed: u64) -> (Setup, W) {
    let mut setup = Setup {
        raw: Vec::new(),
        scaled: Vec::new(),
    };
    let mut workload = None;
    let started = Instant::now();
    while setup.raw.len() < SETUP_RUNS || started.elapsed().as_secs_f64() < SETUP_MIN_S {
        let sample_ms = speed::sample_ms();
        let t = Instant::now();
        let prepared = W::prepare(seed);
        let s = t.elapsed().as_secs_f64();
        // Dropping the previous set-up is not part of setting up.
        workload = Some(prepared);
        setup.raw.push(s);
        setup.scaled.push(s * speed::REFERENCE_MS / sample_ms);
    }
    (setup, workload.expect("set-up ran at least once"))
}

/// Repeats the job set while the next repetition, as long as the last one
/// took, still ends inside the measuring window: runs stay near `seconds`
/// however long one repetition is. Peak memory is read after the first
/// repetition; later ones only add allocator noise.
fn repeat<W: Workload>(workload: &mut W, seconds: f64, traced: bool) -> Timed {
    trace::set_enabled(traced);
    let t0 = Instant::now();
    let mut timed = Timed {
        reps: Vec::new(),
        windows: Vec::new(),
        rss_mb: 0.0,
    };
    let mut last_s = 0.0;
    while timed.reps.is_empty() || t0.elapsed().as_secs_f64() + last_s <= seconds {
        let t = Instant::now();
        trace::set_rep(timed.reps.len() as u32);
        timed.reps.push(workload.rep(traced));
        timed.windows.push((t, Instant::now()));
        if timed.reps.len() == 1 {
            timed.rss_mb = peak_rss_mb();
        }
        last_s = t.elapsed().as_secs_f64();
    }
    trace::set_enabled(false);
    timed
}

/// Runs `f` while `threads` extra threads spin. They stand in for a change
/// that adds CPU load of its own, to check that `compare` reports such a
/// change even where the load slows the speed probe too.
fn burning<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut x = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005))
                        .wrapping_add(1);
                }
            });
        }
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// The per-layer metrics of a traced run: layer self times, work counts
/// and the gauges workloads report.
fn per_layer(
    reps: &[Rep],
    setup_s: &[f64],
    spans: &[trace::Span],
    clients: f64,
    values: &mut Values,
    detail: &mut BTreeMap<String, f64>,
) {
    let self_ms = trace::self_ms_by_rep(spans);
    let layer = |rep: usize, span: &str| {
        self_ms
            .get(&(rep as u32))
            .and_then(|m| m.get(span))
            .copied()
            .unwrap_or(0.0)
    };
    let layer_ms = |span: &str| (0..reps.len()).map(|i| layer(i, span)).collect::<Vec<_>>();
    let busy_ms = |rep: usize| reps[rep].wall_s * 1e3 * clients;
    let pct = |span: &str| -> Vec<f64> {
        (0..reps.len())
            .map(|i| 100.0 * layer(i, span) / busy_ms(i))
            .collect()
    };
    put(values, "trace.rep_ms", per_rep(reps, |r| r.wall_s * 1e3));
    put(
        values,
        "netlist.build_ms",
        setup_s.iter().map(|s| s * 1e3).collect(),
    );
    put(values, "lint.ms", layer_ms("lint"));
    put(values, "presolve.ms", layer_ms("presolve"));
    for (metric, span) in LAYER_PCT {
        put(values, metric, pct(span));
    }
    let names: BTreeSet<&str> = self_ms.values().flat_map(|m| m.keys().copied()).collect();
    let covered = |i: usize| names.iter().map(|n| layer(i, n)).sum::<f64>();
    put(
        values,
        "untraced.pct",
        (0..reps.len())
            .map(|i| 100.0 * (1.0 - covered(i) / busy_ms(i)))
            .collect(),
    );
    for n in names {
        detail.insert(format!("self_ms.{n}"), median(&layer_ms(n)));
    }
    put(
        values,
        "solve.conflicts_per_s",
        per_rep(reps, |r| {
            let conflicts = r.tally.counts.get("solve.conflicts").copied().unwrap_or(0);
            let runtime = r.gauges.get("solve.runtime_s").copied().unwrap_or(0.0);
            share(conflicts as f64, runtime)
        }),
    );
    for m in spec().per_layer.iter().filter(|m| m.is_exact()) {
        let v = reps[0].tally.counts.get(&m.name).copied().unwrap_or(0) as f64;
        put(values, &m.name, vec![v]);
    }
}

/// The end-to-end metrics of an untraced run. Timings are reported at
/// the reference speed (see `speed`), and raw beside it in `raw`.
fn end_to_end(
    reps: &[Rep],
    scales: &[f64],
    setup: &Setup,
    rss_mb: f64,
    values: &mut Values,
    raw: &mut Values,
    detail: &mut BTreeMap<String, f64>,
) {
    values.append(&mut timings(reps, scales, &setup.scaled));
    raw.append(&mut timings(reps, &vec![1.0; reps.len()], &setup.raw));
    let walls = per_rep(reps, |r| r.wall_s);
    let all_jobs = reps.iter().map(|r| r.job_ms.len()).sum::<usize>();
    put(values, "peak_rss_mb", vec![rss_mb]);
    let tally = &reps[0].tally;
    // Seeds order the jobs, and sums in another order differ in the last
    // bits; to the picometre they repeat.
    let pm = |um: f64| (um * 1e6).round() / 1e6;
    put(values, "hpwl_um", vec![pm(tally.hpwl_um)]);
    put(values, "routed_wl_um", vec![pm(tally.routed_wl_um)]);
    put(values, "schedule_share", vec![tally.schedule_share()]);
    put(values, "drc_clean_share", vec![tally.drc_clean_share()]);
    detail.insert(
        "raw.wall_min_s".into(),
        walls.iter().copied().fold(f64::MAX, f64::min),
    );
    detail.insert(
        "raw.wall_max_s".into(),
        walls.iter().copied().fold(0.0, f64::max),
    );
    detail.insert("job_samples".into(), all_jobs as f64);
    detail.insert("reps".into(), reps.len() as f64);
}

/// The timing metrics, each repetition's timings multiplied by its scale
/// and each set-up time given with its scale applied already. The fixture
/// part of set-up (the server start of serve-mix) is added unscaled.
fn timings(reps: &[Rep], scales: &[f64], setup_s: &[f64]) -> Values {
    let mut values = Values::new();
    let jobs: Vec<Vec<f64>> = reps
        .iter()
        .zip(scales)
        .map(|(r, k)| r.job_ms.iter().map(|ms| k * ms).collect())
        .collect();
    let all_jobs = jobs.concat();
    put(
        &mut values,
        "wall_s",
        reps.iter().zip(scales).map(|(r, k)| k * r.wall_s).collect(),
    );
    // Job percentiles pool every repetition's jobs, so the 90th has more
    // samples beyond it than one repetition gives; the samples are per
    // repetition.
    for (name, q) in [("job_p50_ms", 0.5), ("job_p90_ms", 0.9)] {
        let samples = jobs.iter().map(|j| percentile(j, q)).collect();
        values.insert(name.to_string(), (percentile(&all_jobs, q), samples));
    }
    put(
        &mut values,
        "jobs_per_s",
        reps.iter()
            .zip(scales)
            .map(|(r, k)| r.job_ms.len() as f64 / (k * r.wall_s))
            .collect(),
    );
    let fixture = median(&per_rep(reps, |r| r.fixture_s));
    put(
        &mut values,
        "setup_s",
        setup_s.iter().map(|s| s + fixture).collect(),
    );
    values
}
