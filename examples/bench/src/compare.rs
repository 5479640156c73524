//! `bench compare A.json B.json`: judges run B against baseline A with the
//! bounds of `BENCHMARK.json`, one row per workload and metric.
//!
//! - Every (workload, traced) run either side has must be on both sides,
//!   and B's runs must be correct with no more failed jobs than A's.
//! - Deterministic metrics (work counts, quality sums, shares of jobs)
//!   must repeat exactly for identical code; any difference is reported,
//!   and an end-to-end one worse than its bound is a regression.
//! - Timings compare medians at the reference speed. Where either side's
//!   spread (the distance between its quartiles, as a share of its median)
//!   exceeds the bound, the row is `unresolved` unless every B sample beats
//!   every A sample. The raw timings are judged the same way, and where
//!   they resolve to another verdict than the scaled ones the row is
//!   `unresolved` too: a change whose own load slows the speed probe
//!   lowers its scaled timings, but not its raw ones.
//! - `setup_s` changes of under 20 ms are `same`, whatever their share.
//!
//! Each side may list several report files (`compare A1 A2 -- B1 B2`);
//! a side with several runs of a workload compares the runs' values,
//! otherwise the per-repetition samples of its one run.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use ams_netlist::json::Json;

use crate::spec::{spec, MetricSpec};
use crate::stats::{median, spread};

/// Changes of `setup_s` smaller than this are never a regression.
const SETUP_FLOOR_S: f64 = 0.020;

/// One run's reading of one metric: its value and per-repetition samples,
/// and for timings the same before scaling.
#[derive(Clone, Debug, Default)]
struct Reading {
    value: f64,
    samples: Vec<f64>,
    raw: Option<(f64, Vec<f64>)>,
}

/// A side's runs of one workload, traced or not.
#[derive(Debug)]
struct Runs {
    /// Every run was correct.
    correct: bool,
    /// The most failed jobs of any run.
    failed: u64,
    metrics: BTreeMap<String, Vec<Reading>>,
}

/// (workload, traced) -> that workload's runs.
type Side = BTreeMap<(String, bool), Runs>;

fn numbers(doc: Option<&Json>) -> Vec<f64> {
    doc.and_then(Json::items)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn load(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let runs = doc
            .field("runs")
            .and_then(Json::items)
            .ok_or(format!("{path}: no runs"))?;
        for run in runs {
            let workload = run.field("workload").and_then(Json::as_str).unwrap_or("?");
            let traced = run.field("trace").and_then(Json::as_bool).unwrap_or(false);
            let entry = side
                .entry((workload.to_string(), traced))
                .or_insert_with(|| Runs {
                    correct: true,
                    failed: 0,
                    metrics: BTreeMap::new(),
                });
            entry.correct &= run.field("correct").and_then(Json::as_bool) == Some(true);
            let failed = run
                .field("failed")
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX);
            entry.failed = entry.failed.max(failed);
            let Some(Json::Obj(metrics)) = run.field("metrics") else {
                continue;
            };
            for (name, m) in metrics {
                let raw = m.field("raw").map(|r| {
                    let value = r.field("value").and_then(Json::as_f64).unwrap_or(0.0);
                    (value, numbers(r.field("samples")))
                });
                entry
                    .metrics
                    .entry(name.clone())
                    .or_default()
                    .push(Reading {
                        value: m.field("value").and_then(Json::as_f64).unwrap_or(0.0),
                        samples: numbers(m.field("samples")),
                        raw,
                    });
            }
        }
    }
    Ok(side)
}

/// The values a side's runs give for one metric: run values when there
/// are several runs, else the one run's per-repetition samples.
fn samples(runs: &[(f64, &[f64])]) -> (f64, Vec<f64>) {
    match runs {
        [(value, samples)] => (*value, samples.to_vec()),
        many => {
            let values: Vec<f64> = many.iter().map(|r| r.0).collect();
            (median(&values), values)
        }
    }
}

fn scaled(runs: &[Reading]) -> (f64, Vec<f64>) {
    let runs: Vec<_> = runs.iter().map(|r| (r.value, &r.samples[..])).collect();
    samples(&runs)
}

/// The raw values, when every run has them.
fn raw(runs: &[Reading]) -> Option<(f64, Vec<f64>)> {
    let runs: Option<Vec<_>> = runs
        .iter()
        .map(|r| r.raw.as_ref().map(|(v, s)| (*v, &s[..])))
        .collect();
    runs.map(|runs| samples(&runs))
}

/// A side's middle value of a metric and the samples behind it.
type Sampled<'a> = (f64, &'a [f64]);

/// How B compares with A on one metric.
fn verdict(m: &MetricSpec, a: Sampled, b: Sampled) -> &'static str {
    let (a_mid, a_samples) = a;
    let (b_mid, b_samples) = b;
    if m.name == "setup_s" && (b_mid - a_mid).abs() < SETUP_FLOOR_S {
        return "same";
    }
    // Positive = B worse than A, as a share of A.
    let worse = if a_mid == 0.0 {
        if b_mid == a_mid {
            0.0
        } else {
            f64::INFINITY
        }
    } else if m.lower_is_better {
        (b_mid - a_mid) / a_mid.abs()
    } else {
        (a_mid - b_mid) / a_mid.abs()
    };
    if m.is_exact() {
        return if worse == 0.0 {
            "same"
        } else if m.bound.is_some_and(|bound| worse > bound) {
            "regressed"
        } else if worse < 0.0 {
            "improved"
        } else {
            "changed"
        };
    }
    let Some(bound) = m.bound else {
        return "-";
    };
    let noisy = [a_samples, b_samples]
        .iter()
        .any(|s| spread(s).is_some_and(|sp| sp > bound));
    let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
    let b_always_better = b_samples
        .iter()
        .all(|&b| a_samples.iter().all(|&a| better(b, a)));
    if noisy {
        if b_always_better && !b_samples.is_empty() && !a_samples.is_empty() {
            "improved"
        } else {
            "unresolved"
        }
    } else if worse > bound {
        "regressed"
    } else if worse < -bound {
        "improved"
    } else {
        "same"
    }
}

/// The verdict on a scaled timing, overruled to `unresolved` when the raw
/// timing resolves to a different one.
fn timing_verdict(
    m: &MetricSpec,
    a: Sampled,
    b: Sampled,
    raw: Option<(Sampled, Sampled)>,
) -> &'static str {
    let v = verdict(m, a, b);
    match raw.map(|(a, b)| verdict(m, a, b)) {
        Some(r @ ("regressed" | "improved")) if r != v => "unresolved",
        _ => v,
    }
}

/// One row of the comparison.
#[derive(Debug)]
struct Row {
    workload: String,
    metric: String,
    a: Option<f64>,
    b: Option<f64>,
    spread_a: Option<f64>,
    spread_b: Option<f64>,
    verdict: &'static str,
    blocking: bool,
}

impl Row {
    fn note(workload: &str, metric: &str, verdict: &'static str, blocking: bool) -> Row {
        Row {
            workload: workload.to_string(),
            metric: metric.to_string(),
            a: None,
            b: None,
            spread_a: None,
            spread_b: None,
            verdict,
            blocking,
        }
    }
}

fn compare(a: &Side, b: &Side) -> Vec<Row> {
    let mut rows = Vec::new();
    let keys: BTreeSet<&(String, bool)> = a.keys().chain(b.keys()).collect();
    for key @ (workload, traced) in keys {
        let run = if *traced { "(traced run)" } else { "(run)" };
        let (a_runs, b_runs) = match (a.get(key), b.get(key)) {
            (Some(a_runs), Some(b_runs)) => (a_runs, b_runs),
            (None, _) => {
                rows.push(Row::note(workload, run, "missing from A", true));
                continue;
            }
            (_, None) => {
                rows.push(Row::note(workload, run, "missing from B", true));
                continue;
            }
        };
        if !b_runs.correct || b_runs.failed > a_runs.failed {
            let mut row = Row::note(workload, &format!("{run} failed jobs"), "failed", true);
            row.a = Some(a_runs.failed as f64);
            row.b = Some(b_runs.failed as f64);
            rows.push(row);
        }
        let listed = if *traced {
            &spec().per_layer
        } else {
            &spec().end_to_end
        };
        for m in listed {
            let bounded = m.bound.is_some();
            let (a_m, b_m) = match (a_runs.metrics.get(&m.name), b_runs.metrics.get(&m.name)) {
                (Some(a_m), Some(b_m)) => (a_m, b_m),
                (None, None) => continue,
                // A baseline from before the metric existed.
                (None, Some(_)) => {
                    rows.push(Row::note(workload, &m.name, "new", false));
                    continue;
                }
                (Some(_), None) => {
                    rows.push(Row::note(workload, &m.name, "missing from B", bounded));
                    continue;
                }
            };
            let (a_mid, a_s) = scaled(a_m);
            let (b_mid, b_s) = scaled(b_m);
            let raws = raw(a_m).zip(raw(b_m));
            let raw_pair = raws
                .as_ref()
                .map(|((av, a), (bv, b))| ((*av, &a[..]), (*bv, &b[..])));
            let v = timing_verdict(m, (a_mid, &a_s), (b_mid, &b_s), raw_pair);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: Some(a_mid),
                b: Some(b_mid),
                spread_a: spread(&a_s),
                spread_b: spread(&b_s),
                verdict: v,
                blocking: bounded && matches!(v, "regressed" | "unresolved"),
            });
        }
    }
    rows
}

pub fn main(args: &[String]) -> ExitCode {
    let (a_paths, b_paths) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if args.len() == 2 => (&args[..1], &args[1..]),
        None => {
            eprintln!("usage: bench compare A.json B.json | bench compare A... -- B...");
            return ExitCode::from(2);
        }
    };
    let (a, b) = match (load(a_paths), load(b_paths)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "sprA", "sprB"
    );
    let rows = compare(&a, &b);
    let dash = || "-".to_string();
    for r in &rows {
        let value = |v: Option<f64>| v.map_or_else(dash, |v| format!("{v:.6}"));
        let change = match (r.a, r.b) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:+.1}%", 100.0 * (b - a) / a.abs()),
            _ => dash(),
        };
        let pct = |s: Option<f64>| s.map_or_else(dash, |sp| format!("{:.1}%", 100.0 * sp));
        println!(
            "{:<16} {:<28} {:>14} {:>14} {change:>8} {:>7} {:>7}  {}",
            r.workload,
            r.metric,
            value(r.a),
            value(r.b),
            pct(r.spread_a),
            pct(r.spread_b),
            r.verdict
        );
    }
    let blocking = rows.iter().filter(|r| r.blocking).count();
    if blocking > 0 {
        println!("{blocking} row(s) regressed, unresolved, failed or missing");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(unit: &str, bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: unit.into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn exact_metrics_must_repeat() {
        let m = metric("count", None);
        assert_eq!(verdict(&m, (5.0, &[]), (5.0, &[])), "same");
        assert_eq!(verdict(&m, (5.0, &[]), (6.0, &[])), "changed");
        assert_eq!(verdict(&m, (5.0, &[]), (4.0, &[])), "improved");
        let bounded = metric("um", Some(0.1));
        assert_eq!(verdict(&bounded, (100.0, &[]), (111.0, &[])), "regressed");
    }

    #[test]
    fn timings_compare_medians_within_the_bound() {
        let m = metric("s", Some(0.1));
        let steady = [1.0, 1.01, 0.99, 1.0];
        assert_eq!(verdict(&m, (1.0, &steady), (1.05, &steady)), "same");
        assert_eq!(
            verdict(&m, (1.0, &steady), (1.2, &[1.2, 1.21, 1.19])),
            "regressed"
        );
        assert_eq!(
            verdict(&m, (1.0, &steady), (0.8, &[0.8, 0.81, 0.79])),
            "improved"
        );
    }

    #[test]
    fn noisy_timings_are_unresolved_unless_b_always_wins() {
        let m = metric("s", Some(0.1));
        let noisy = [0.7, 1.0, 1.3, 1.0];
        assert_eq!(verdict(&m, (1.0, &noisy), (1.05, &noisy)), "unresolved");
        assert_eq!(verdict(&m, (1.0, &noisy), (0.5, &[0.5, 0.6])), "improved");
    }

    #[test]
    fn setup_changes_under_the_floor_are_same() {
        let mut m = metric("s", Some(0.25));
        m.name = "setup_s".into();
        assert_eq!(verdict(&m, (0.001, &[]), (0.01, &[])), "same");
        assert_eq!(verdict(&m, (0.01, &[]), (0.04, &[])), "regressed");
    }

    #[test]
    fn raw_timings_that_resolve_otherwise_make_the_row_unresolved() {
        let m = metric("s", Some(0.1));
        let a = [1.0, 1.01, 0.99, 1.0];
        let slower = [1.3, 1.31, 1.29, 1.3];
        // Scaled: same. Raw: 30 % slower, steadily. The probe absorbed it.
        let raw = Some(((1.0, &a[..]), (1.3, &slower[..])));
        assert_eq!(timing_verdict(&m, (1.0, &a), (1.0, &a), raw), "unresolved");
        // Raw too noisy to resolve: the scaled verdict stands.
        let noisy = [0.7, 1.0, 1.3, 1.0];
        let raw = Some(((1.0, &noisy[..]), (1.05, &noisy[..])));
        assert_eq!(timing_verdict(&m, (1.0, &a), (1.0, &a), raw), "same");
        // Both agree.
        let raw = Some(((1.0, &a[..]), (1.3, &slower[..])));
        assert_eq!(
            timing_verdict(&m, (1.0, &a), (1.3, &slower), raw),
            "regressed"
        );
    }

    fn runs(correct: bool, failed: u64, wall_s: f64) -> Runs {
        let reading = Reading {
            value: wall_s,
            samples: vec![wall_s; 4],
            raw: Some((wall_s, vec![wall_s; 4])),
        };
        Runs {
            correct,
            failed,
            metrics: BTreeMap::from([("wall_s".to_string(), vec![reading])]),
        }
    }

    fn side(entries: Vec<(&str, Runs)>) -> Side {
        entries
            .into_iter()
            .map(|(w, r)| ((w.to_string(), false), r))
            .collect()
    }

    fn blocking(rows: &[Row]) -> Vec<(&str, &str, &str)> {
        rows.iter()
            .filter(|r| r.blocking)
            .map(|r| (r.workload.as_str(), r.metric.as_str(), r.verdict))
            .collect()
    }

    #[test]
    fn identical_sides_do_not_block() {
        let a = side(vec![("w", runs(true, 0, 1.0))]);
        let b = side(vec![("w", runs(true, 0, 1.0))]);
        assert_eq!(blocking(&compare(&a, &b)), []);
    }

    #[test]
    fn a_workload_missing_from_either_side_blocks() {
        let both = || vec![("w", runs(true, 0, 1.0)), ("v", runs(true, 0, 1.0))];
        let one = || vec![("w", runs(true, 0, 1.0))];
        assert_eq!(
            blocking(&compare(&side(both()), &side(one()))),
            [("v", "(run)", "missing from B")]
        );
        assert_eq!(
            blocking(&compare(&side(one()), &side(both()))),
            [("v", "(run)", "missing from A")]
        );
    }

    #[test]
    fn an_incorrect_run_of_b_blocks() {
        let a = side(vec![("w", runs(true, 0, 1.0))]);
        let b = side(vec![("w", runs(false, 1, 1.0))]);
        assert_eq!(
            blocking(&compare(&a, &b)),
            [("w", "(run) failed jobs", "failed")]
        );
    }

    #[test]
    fn more_failed_jobs_in_b_block() {
        // Both incorrect, B with more failures than A.
        let a = side(vec![("w", runs(false, 1, 1.0))]);
        let b = side(vec![("w", runs(false, 2, 1.0))]);
        assert_eq!(
            blocking(&compare(&a, &b)),
            [("w", "(run) failed jobs", "failed")]
        );
    }
}
