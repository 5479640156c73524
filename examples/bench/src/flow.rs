//! The calls a job makes into the placement stack, each inside a span
//! named after the layer it enters, and the checks on what they return.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use ams_netlist::json::Json;
use ams_netlist::Design;
use ams_place::analysis::{self, presolve};
use ams_place::{PlaceError, Placement, Placer, PlacerConfig};
use ams_route::RouterConfig;
use ams_sim::Tech;

use crate::harness::Rep;
use crate::trace::{child_at_end, span, span_handle};

/// Verdicts of the designs that have no legal placement under the
/// workloads' presets, by design name. Every other design must place.
const EXPECTED_VERDICTS: &str = include_str!("../expected_verdicts.json");

fn expected_verdicts() -> &'static BTreeMap<String, String> {
    static VERDICTS: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    VERDICTS.get_or_init(|| {
        let doc = Json::parse(EXPECTED_VERDICTS).expect("expected_verdicts.json is JSON");
        let Json::Obj(map) = doc else {
            panic!("expected_verdicts.json holds one object")
        };
        map.into_iter()
            .map(|(k, v)| (k, v.as_str().expect("verdicts are strings").to_string()))
            .collect()
    })
}

/// The verdict a design is expected to end with, when it cannot place.
pub fn expected_verdict(design: &Design) -> Option<&'static str> {
    expected_verdicts().get(design.name()).map(String::as_str)
}

/// Checks a failed job against its expected verdict; a mismatch is a
/// failure of the run.
pub fn check_error(design: &Design, error: &PlaceError, rep: &mut Rep) {
    let got = error.to_string();
    if expected_verdict(design) != Some(got.as_str()) {
        rep.failures
            .push(format!("{}: unexpected verdict: {got}", design.name()));
    }
}

/// Checks a placement: the design must be expected to place, and the
/// placement must pass the legality oracle.
pub fn check_placement(design: &Design, placement: &Placement, job: u64, rep: &mut Rep) {
    if let Some(verdict) = expected_verdict(design) {
        rep.failures.push(format!(
            "{}: placed, but its expected verdict is: {verdict}",
            design.name()
        ));
    }
    if let Err(violations) = span("verify", job, || placement.verify(design)) {
        rep.failures.push(format!(
            "{}: illegal placement: {}",
            design.name(),
            violations[0].detail
        ));
    }
}

/// Lints and presolves a job's design as standalone calls and returns the
/// lint findings. Traced runs only: their cost is too small to move any
/// end-to-end metric.
pub fn analyses(design: &Design, config: &PlacerConfig, job: u64) -> u64 {
    let report = span("lint", job, || analysis::lint(design, config));
    span("presolve", job, || presolve::presolve(design, config));
    report.diagnostics.len() as u64
}

/// One cold job as a CLI user runs it: encode, solve, verify, route with
/// the default router, extract. Records its latency in `rep`.
pub fn place_job(design: &Design, config: &PlacerConfig, job: u64, traced: bool, rep: &mut Rep) {
    let t = Instant::now();
    if traced {
        rep.tally
            .add("lint.findings", analyses(design, config, job));
    }
    let (placer, encoded) = span_handle("encode", job, || Placer::new(design, config.clone()));
    let placed = placer.and_then(|placer| span("solve", job, || placer.place()));
    match placed {
        Ok(placement) => {
            // Lowering runs at the end of `Placer::new`; the placement
            // reports how long it took.
            child_at_end(encoded, "lower", placement.stats.lowering);
            check_placement(design, &placement, job, rep);
            rep.tally
                .placement(design, &placement, config.optimize.k_iter);
            rep.gauge("solve.runtime_s", placement.stats.runtime.as_secs_f64());
            let routed = span("route", job, || {
                ams_route::route(design, &placement, RouterConfig::default())
            });
            span("extract", job, || {
                ams_sim::extract(design, &placement, &routed, &Tech::default())
            });
            rep.tally.route_work(&routed);
            rep.tally.final_route(design, &routed);
        }
        Err(e) => check_error(design, &e, rep),
    }
    rep.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
}
