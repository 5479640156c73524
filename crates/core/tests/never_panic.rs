//! Fuzz-flavored robustness suite: the placement stack must never panic,
//! whatever design and configuration it is handed — every run ends in a
//! verified placement or a structured [`ams_place::PlaceError`].
//!
//! One hundred seeds drive a SplitMix64 generator through randomized
//! synthetic designs (including tiny and degenerate ones: two cells, zero
//! nets, full utilization, λ_th = 0) and randomized configurations
//! (threads, freezing, recovery, extension scaling), under tiny conflict
//! budgets with a wall-clock deadline backstop so the suite stays fast.

use ams_netlist::benchmarks::{self, SyntheticParams};
use ams_place::{PinDensityConfig, Placer, PlacerConfig};
use std::time::Duration;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_params(rng: &mut u64) -> SyntheticParams {
    SyntheticParams {
        regions: 1 + (splitmix64(rng) % 3) as usize,
        cells_per_region: 2 + (splitmix64(rng) % 7) as usize,
        nets: (splitmix64(rng) % 12) as usize,
        net_degree: 2 + (splitmix64(rng) % 3) as usize,
        symmetry_pairs: (splitmix64(rng) % 3) as usize,
        cluster_size: if splitmix64(rng).is_multiple_of(3) {
            3
        } else {
            0
        },
        seed: splitmix64(rng),
    }
}

fn random_config(rng: &mut u64) -> PlacerConfig {
    let mut cfg = PlacerConfig {
        utilization: 0.55 + 0.45 * (splitmix64(rng) % 101) as f64 / 100.0,
        die_slack: 1.0 + 0.05 * (splitmix64(rng) % 8) as f64,
        extension_scale: [1.0, 0.5, 0.0][(splitmix64(rng) % 3) as usize],
        ..PlacerConfig::default()
    };
    cfg.optimize.k_iter = (splitmix64(rng) % 3) as usize;
    // Half the seeds freeze nothing and half take no recovery rung.
    let freeze = splitmix64(rng).is_multiple_of(2);
    let freeze_fraction = 0.1 + 0.4 * (splitmix64(rng) % 101) as f64 / 100.0;
    cfg.optimize.freeze_fraction = if freeze { freeze_fraction } else { 0.0 };
    cfg.optimize.conflict_budget = Some(200 + splitmix64(rng) % 2_000);
    cfg.optimize.first_conflict_budget = Some(1_000 + splitmix64(rng) % 20_000);
    cfg.solver.threads = 1 + (splitmix64(rng) % 3) as usize;
    // Wall-clock backstop: even a pathological instance ends promptly.
    cfg.solver.deadline = Some(Duration::from_millis(400));
    let recover = splitmix64(rng).is_multiple_of(2);
    let max_rungs = (splitmix64(rng) % 3) as usize;
    cfg.recovery.max_rungs = if recover { max_rungs } else { 0 };
    cfg.pin_density = match splitmix64(rng) % 4 {
        0 => None,
        1 => Some(PinDensityConfig {
            lambda: Some(0),
            ..PinDensityConfig::default()
        }),
        2 => Some(PinDensityConfig {
            lambda: Some(1 + splitmix64(rng) % 6),
            ..PinDensityConfig::default()
        }),
        _ => Some(PinDensityConfig::default()),
    };
    cfg
}

#[test]
fn randomized_designs_and_configs_never_panic() {
    let mut rng = 0xA5A5_5A5A_DEAD_BEEFu64;
    let mut placed = 0usize;
    let mut failed = 0usize;
    for round in 0..100 {
        let params = random_params(&mut rng);
        let design = benchmarks::synthetic(params);
        let config = random_config(&mut rng);
        match Placer::builder(&design)
            .config(config.clone())
            .build()
            .and_then(|p| p.place())
        {
            Ok(placement) => {
                placed += 1;
                placement.verify(&design).unwrap_or_else(|v| {
                    panic!(
                        "round {round}: illegal placement ({} violations) for \
                         {params:?} under {config:?}",
                        v.len()
                    )
                });
            }
            // Structured failure is an acceptable outcome for degenerate
            // instances; panicking or hanging is not.
            Err(_) => failed += 1,
        }
    }
    assert_eq!(placed + failed, 100);
    assert!(placed > 0, "at least some random instances must place");
}
