//! Routing-closure integration tests: the full place → route → tighten →
//! re-solve loop over real designs, plus a differential arm checking the
//! loop never un-legalizes a placement the exhaustive reference can
//! decide.

use ams_netlist::benchmarks::{self, synthetic, SyntheticParams};
use ams_netlist::rng::SplitMix64;
use ams_place::brute::{reference_place, BruteLimits, ReferenceVerdict};
use ams_place::closure::{close, probe_windows, ClosureConfig};
use ams_place::PlacerConfig;
use ams_route::{close_placement, route_feedback, RouterConfig};
use std::collections::BTreeSet;

fn quick_config() -> PlacerConfig {
    let mut config = PlacerConfig::fast();
    config.optimize.k_iter = 1;
    config.optimize.conflict_budget = Some(20_000);
    config
}

#[test]
fn buf_closes_routed_clean_within_five_iterations() {
    let design = benchmarks::buf();
    let opts = ClosureConfig::default();
    assert_eq!(opts.max_iters, 5, "the paper flow budgets five rungs");
    let (placement, stats) =
        close_placement(&design, quick_config(), &opts, RouterConfig::default())
            .expect("buf closure");
    assert!(stats.drc_clean, "buf must close routed-overflow-free");
    assert!(stats.iterations <= 5);
    assert_eq!(stats.routed_wl_trend.len(), stats.iterations);
    placement
        .verify(&design)
        .expect("closed placement stays legal");
    assert_eq!(
        placement.stats.closure.as_ref(),
        Some(&stats),
        "the placement carries its own closure summary"
    );
}

#[test]
#[ignore = "minutes in debug — the release suites run it (CI closure step + nightly)"]
fn vco_closes_routed_clean_within_five_iterations() {
    let design = benchmarks::vco();
    let (placement, stats) = close_placement(
        &design,
        quick_config(),
        &ClosureConfig::default(),
        RouterConfig::default(),
    )
    .expect("vco closure");
    assert!(stats.drc_clean, "vco must close routed-overflow-free");
    assert!(stats.iterations <= 5);
    placement
        .verify(&design)
        .expect("closed placement stays legal");
}

/// Starve the router (capacity 1, no negotiation rounds) so overflow
/// survives to the feedback, then check the loop tightened *only* windows
/// the routing actually reported hot — the provenance mapping from
/// overflow back to pin-density constraints must not touch cold windows.
#[test]
#[ignore = "five full place+rebase rounds — minutes in debug; the release suites run it (CI closure step + nightly)"]
fn tightening_targets_only_routing_hot_windows() {
    let design = benchmarks::buf();
    let starved = RouterConfig {
        capacity: 1,
        max_iterations: 1,
        ..RouterConfig::default()
    };
    let mut observed: BTreeSet<(u32, u32)> = BTreeSet::new();
    let result = close(
        &design,
        quick_config(),
        &ClosureConfig::default(),
        |d, p, windows| {
            let probe = probe_windows(p);
            assert_eq!(
                probe.rects, windows,
                "the loop probes the placement's own window grid"
            );
            let fb = route_feedback(d, p, windows, starved);
            for (o, &over) in probe.origins.iter().zip(&fb.window_overflow) {
                if over > 0 {
                    observed.insert(*o);
                }
            }
            fb
        },
    );
    let Ok((placement, stats)) = result else {
        panic!("starved-router closure must still terminate with a placement");
    };
    placement.verify(&design).expect("placement stays legal");
    assert!(
        !observed.is_empty(),
        "a capacity-1 single-round router must report overflow on buf"
    );
    assert!(
        !stats.hot_windows.is_empty(),
        "observed overflow must tighten at least one window"
    );
    for w in &stats.hot_windows {
        assert!(
            observed.contains(w),
            "window {w:?} was tightened but never reported hot"
        );
    }
}

/// Differential arm: on brute-force-sized designs, a successful closure
/// must agree with the exhaustive reference — the loop only ever tightens
/// pin density, so the underlying geometric feasibility is untouched.
#[test]
fn closure_agrees_with_the_exhaustive_reference_on_mini_designs() {
    let limits = BruteLimits {
        max_leaves: 300_000,
        max_nodes: 4_000_000,
    };
    let mut compared = 0;
    let mut round = 0u64;
    while compared < 4 && round < 32 {
        round += 1;
        let mut rng = SplitMix64::new(0xC105_u64 ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let params = SyntheticParams {
            regions: 1,
            cells_per_region: rng.range_u64(2, 4) as usize,
            nets: rng.range_u64(1, 3) as usize,
            net_degree: 2,
            symmetry_pairs: 0,
            cluster_size: 0,
            seed: rng.next_u64(),
        };
        let design = synthetic(params);
        let mut cfg = quick_config();
        cfg.recovery.max_rungs = 0;

        let closed = close_placement(
            &design,
            cfg.clone(),
            &ClosureConfig::default(),
            RouterConfig::default(),
        );
        let Ok((placement, _)) = closed else {
            continue; // infeasible under this sizing — nothing to compare
        };
        placement
            .verify(&design)
            .expect("closure output passes the legality oracle");

        // The reference enumerator doesn't model pin density; closure only
        // tightens that family, so geometric feasibility must agree.
        let mut brute_cfg = cfg;
        brute_cfg.pin_density = None;
        match reference_place(&design, &brute_cfg, &limits) {
            ReferenceVerdict::Feasible(p) => {
                p.verify(&design).expect("reference model is legal");
                compared += 1;
            }
            ReferenceVerdict::Infeasible => panic!(
                "round {round}: closure placed a design the exhaustive reference proves infeasible"
            ),
            ReferenceVerdict::TooLarge => continue,
            ReferenceVerdict::Unsupported(what) => {
                panic!("round {round}: reference rejected the instance: {what}")
            }
        }
    }
    assert!(
        compared >= 2,
        "differential closure arm compared only {compared} designs"
    );
}
