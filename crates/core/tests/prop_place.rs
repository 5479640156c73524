//! Randomized placement testing: any synthetic design the generator
//! produces must either place legally (per the independent oracle) or fail
//! with a structured error — never produce an illegal layout. Parameters
//! are drawn from a seeded deterministic PRNG.

use ams_netlist::benchmarks::{synthetic, SyntheticParams};
use ams_netlist::rng::SplitMix64;
use ams_place::{Placer, PlacerConfig};

fn random_params(rng: &mut SplitMix64) -> SyntheticParams {
    SyntheticParams {
        regions: rng.range_u64(1, 2) as usize,
        cells_per_region: rng.range_u64(4, 10) as usize,
        nets: rng.range_u64(4, 12) as usize,
        net_degree: 3,
        symmetry_pairs: rng.range_u64(0, 2) as usize,
        cluster_size: if rng.bool() {
            0
        } else {
            rng.range_u64(2, 4) as usize
        },
        seed: rng.next_u64(),
    }
}

#[test]
fn placements_always_pass_the_oracle() {
    let mut rng = SplitMix64::new(0x0AC1E);
    for _ in 0..12 {
        let params = random_params(&mut rng);
        let design = synthetic(params);
        let mut cfg = PlacerConfig::fast();
        cfg.optimize.k_iter = 1;
        cfg.optimize.conflict_budget = Some(20_000);
        match Placer::new(&design, cfg)
            .expect("encoding never panics")
            .place()
        {
            Ok(placement) => {
                if let Err(violations) = placement.verify(&design) {
                    panic!(
                        "illegal placement for seed {}: {:?}",
                        params.seed, violations
                    );
                }
                // Stats must be coherent.
                assert!(placement.stats.iterations >= 1);
                assert_eq!(placement.stats.iterations, placement.stats.hpwl_trace.len());
            }
            Err(e) => {
                // Structured failure is acceptable (tight dies exist);
                // panics or illegal results are not.
                assert!(!e.to_string().is_empty());
            }
        }
    }
}

#[test]
fn the_stripped_arm_never_unlocks_an_illegal_core() {
    // A design stripped of its AMS families must still place legally on
    // the critical constraints it keeps.
    let mut rng = SplitMix64::new(0x70661E);
    for _ in 0..12 {
        let params = random_params(&mut rng);
        let design = synthetic(params).without_constraints();
        let mut cfg = PlacerConfig::fast();
        cfg.optimize.k_iter = 0;
        cfg.optimize.conflict_budget = Some(20_000);
        if let Ok(placement) = Placer::new(&design, cfg).expect("encode").place() {
            assert!(placement.verify(&design).is_ok());
        }
    }
}
