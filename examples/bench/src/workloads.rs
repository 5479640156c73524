//! The local workloads: jobs placed in this process, one after another.
//!
//! Each job set is fixed; the seed only orders it. Runs with different
//! seeds therefore do equal work, and their quality sums are equal.

use std::time::Instant;

use ams_netlist::rng::SplitMix64;
use ams_netlist::{benchmarks, Design};
use ams_place::api::JobOptions;
use ams_place::closure::{close, ClosureConfig, RouteFeedback};
use ams_place::scenario::{scenario, Scenario};
use ams_place::PlacerConfig;
use ams_route::{window_congestion, RouterConfig};

use crate::flow;
use crate::harness::{Rep, Workload};
use crate::trace::span;

/// The CLI's `--quick` preset: one tightening round, 20 k conflicts per
/// round, one solver thread.
pub fn quick_config() -> PlacerConfig {
    let mut config = JobOptions {
        quick: true,
        ..JobOptions::default()
    }
    .to_config();
    config.solver.threads = 1;
    config
}

/// A seeded permutation of `items`.
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
    items
}

/// buf-quick: the paper's BUF placed, verified, routed and extracted once
/// per repetition. The design is fixed, so the seed changes nothing.
pub struct BufQuick {
    design: Design,
    config: PlacerConfig,
}

impl Workload for BufQuick {
    fn prepare(_seed: u64) -> BufQuick {
        BufQuick {
            design: benchmarks::buf(),
            config: quick_config(),
        }
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let t = Instant::now();
        flow::place_job(&self.design, &self.config, 0, traced, &mut rep);
        rep.wall_s = t.elapsed().as_secs_f64();
        rep
    }
}

/// corpus-place: every 37th corpus scenario, skipping those whose quick
/// cold solve takes over half a second, so a 20 s run repeats the set
/// often enough for 100+ job samples. Scenario 74 is infeasible and 296
/// places only after relaxation.
const CORPUS: [u32; 26] = [
    0, 37, 74, 111, 148, 185, 222, 259, 296, 333, 370, 407, 481, 666, 703, 740, 777, 814, 851, 888,
    925, 962, 999, 1036, 1073, 1147,
];

/// Scenarios with their placer configurations, in seeded order.
fn scenarios(indices: &[u32], seed: u64) -> Vec<(Scenario, PlacerConfig)> {
    shuffled(indices.to_vec(), seed)
        .into_iter()
        .map(|i| {
            let s = scenario(i);
            let config = s.config(quick_config());
            (s, config)
        })
        .collect()
}

pub struct CorpusPlace {
    jobs: Vec<(Scenario, PlacerConfig)>,
}

impl Workload for CorpusPlace {
    fn prepare(seed: u64) -> CorpusPlace {
        CorpusPlace {
            jobs: scenarios(&CORPUS, seed),
        }
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let t = Instant::now();
        for (job, (s, config)) in self.jobs.iter().enumerate() {
            flow::place_job(&s.design, config, job as u64, traced, &mut rep);
        }
        rep.wall_s = t.elapsed().as_secs_f64();
        rep
    }
}

/// closure-starved: scenarios whose starved-router closure needs two or
/// more place → route iterations (406 and 651 stay congested after five),
/// three that route clean at once, and infeasible scenario 308.
const CLOSURE: [u32; 26] = [
    0, 7, 21, 28, 49, 77, 91, 98, 112, 217, 238, 245, 308, 357, 392, 406, 595, 651, 672, 784, 847,
    994, 1120, 1155, 1260, 1281,
];

/// The router of the closure loop's tightening test: one track per edge
/// and no rip-up negotiation, so overflow survives to the feedback.
const STARVED: RouterConfig = RouterConfig {
    via_cost: 3,
    congestion_penalty: 16,
    max_iterations: 1,
    capacity: 1,
};

pub struct ClosureStarved {
    jobs: Vec<(Scenario, PlacerConfig)>,
    opts: ClosureConfig,
}

impl Workload for ClosureStarved {
    fn prepare(seed: u64) -> ClosureStarved {
        ClosureStarved {
            jobs: scenarios(&CLOSURE, seed),
            opts: ClosureConfig {
                max_iters: 5,
                ..ClosureConfig::default()
            },
        }
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let t = Instant::now();
        for (job, (s, config)) in self.jobs.iter().enumerate() {
            let job = job as u64;
            let design = &s.design;
            let started = Instant::now();
            if traced {
                rep.tally
                    .add("lint.findings", flow::analyses(design, config, job));
            }
            let mut last = None;
            let closed = span("closure", job, || {
                close(design, config.clone(), &self.opts, |d, p, windows| {
                    let routed = span("route", job, || ams_route::route(d, p, STARVED));
                    rep.tally.route_work(&routed);
                    let feedback = RouteFeedback {
                        routed_wl: routed.wirelength,
                        vias: routed.vias,
                        overflow: routed.overflow as u64,
                        window_overflow: window_congestion(&routed, windows)
                            .iter()
                            .map(|c| c.overflow)
                            .collect(),
                    };
                    last = Some(routed);
                    feedback
                })
            });
            match closed {
                Ok((placement, stats)) => {
                    flow::check_placement(design, &placement, job, &mut rep);
                    rep.tally
                        .placement(design, &placement, config.optimize.k_iter);
                    rep.tally.closure(&stats);
                    rep.gauge("solve.runtime_s", placement.stats.runtime.as_secs_f64());
                    let routed = last.expect("a closed placement was routed");
                    rep.tally.final_route(design, &routed);
                }
                Err(e) => flow::check_error(design, &e, &mut rep),
            }
            rep.job_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        rep.wall_s = t.elapsed().as_secs_f64();
        rep
    }
}
