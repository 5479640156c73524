//! The benchmark's contract, read from the repository's `BENCHMARK.json`:
//! workload names, run length, and every metric with its unit, direction
//! and regression bound. The file is compiled in, so the binary and the
//! contract it reports against cannot drift apart.

use std::sync::OnceLock;

use ams_netlist::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One metric of the contract.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// End-to-end metrics only: the share of the baseline's median by
    /// which the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// Whether the metric is deterministic: work counts, quality sums and
    /// shares of jobs, which repeat exactly for identical code and inputs
    /// (every solve runs on one thread under a conflict budget).
    pub fn is_exact(&self) -> bool {
        matches!(self.unit.as_str(), "count" | "um" | "ratio")
    }
}

/// The parsed contract.
#[derive(Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// The compiled-in contract.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        let items = doc
            .field(key)
            .and_then(Json::items)
            .ok_or(format!("{key} missing"))?;
        items
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.field(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("{key}: metric without {k}"))
                };
                Ok(MetricSpec {
                    name: text("name")?,
                    unit: text("unit")?,
                    lower_is_better: text("better")? == "lower",
                    bound: m.field("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .field("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("run_seconds missing")?,
        workloads: doc
            .field("workloads")
            .and_then(Json::items)
            .ok_or("workloads missing")?
            .iter()
            .filter_map(|w| w.field("name").and_then(Json::as_str).map(str::to_string))
            .collect(),
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}
