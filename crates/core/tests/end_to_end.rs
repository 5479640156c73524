//! End-to-end placement tests: solve, then check against the independent
//! legality oracle.

use ams_netlist::benchmarks::{self, SyntheticParams};
use ams_place::{Placer, PlacerConfig, ViolationKind};

fn fast() -> PlacerConfig {
    PlacerConfig::fast()
}

#[test]
fn tiny_synthetic_places_and_verifies() {
    let d = benchmarks::synthetic(SyntheticParams {
        cells_per_region: 6,
        nets: 6,
        symmetry_pairs: 1,
        ..Default::default()
    });
    let p = Placer::builder(&d)
        .config(fast())
        .build()
        .expect("encode")
        .place()
        .expect("place");
    p.verify(&d).expect("legal placement");
    assert!(p.stats.iterations >= 1);
    assert!(p.hpwl(&d) > 0);
}

#[test]
fn two_region_synthetic_places_and_verifies() {
    let d = benchmarks::synthetic(SyntheticParams {
        regions: 2,
        cells_per_region: 5,
        nets: 8,
        cluster_size: 3,
        ..Default::default()
    });
    let p = Placer::builder(&d)
        .config(fast())
        .build()
        .expect("encode")
        .place()
        .expect("place");
    p.verify(&d).expect("legal placement");
    assert_eq!(p.regions.len(), 2);
    assert!(!p.regions[0].overlaps(p.regions[1]));
}

#[test]
fn optimization_iterations_do_not_increase_hpwl() {
    let d = benchmarks::synthetic(SyntheticParams {
        cells_per_region: 8,
        nets: 10,
        ..Default::default()
    });
    let mut cfg = fast();
    cfg.optimize.k_iter = 4;
    let p = Placer::builder(&d)
        .config(cfg)
        .build()
        .expect("encode")
        .place()
        .expect("place");
    let trace = &p.stats.hpwl_trace;
    assert!(!trace.is_empty());
    for w in trace.windows(2) {
        assert!(w[1] < w[0], "wirelength must strictly decrease: {trace:?}");
    }
}

#[test]
fn without_constraints_arm_still_legal_on_geometry() {
    let d = benchmarks::synthetic(SyntheticParams {
        cells_per_region: 6,
        nets: 6,
        symmetry_pairs: 2,
        ..Default::default()
    });
    let plain = d.without_constraints();
    let p = Placer::builder(&plain)
        .config(fast())
        .build()
        .expect("encode")
        .place()
        .expect("place");
    // The w/o arm must still be geometry-legal on the *stripped* design.
    p.verify(&plain).expect("legal placement");
}

#[test]
fn infeasible_die_is_reported() {
    // A utilization of 1.0 with no slack on a design with ragged cell
    // widths is (almost surely) unpackable perfectly; if the solver does
    // find a perfect packing, the result must still verify.
    let d = benchmarks::synthetic(SyntheticParams {
        cells_per_region: 7,
        nets: 6,
        ..Default::default()
    });
    let mut cfg = fast();
    cfg.utilization = 1.0;
    cfg.die_slack = 1.0;
    match Placer::builder(&d)
        .config(cfg)
        .build()
        .expect("encode")
        .place()
    {
        Ok(p) => p.verify(&d).expect("legal placement"),
        Err(e) => assert!(matches!(
            e,
            ams_place::PlaceError::Infeasible { .. } | ams_place::PlaceError::BudgetExhausted
        )),
    }
}

#[test]
fn dummy_fill_balances_region_area() {
    let d = benchmarks::synthetic(SyntheticParams {
        cells_per_region: 6,
        nets: 6,
        ..Default::default()
    });
    let p = Placer::builder(&d)
        .config(fast())
        .build()
        .expect("encode")
        .place()
        .expect("place");
    for (ri, region) in p.regions.iter().enumerate() {
        let cell_area: u64 = d
            .cell_ids()
            .filter(|&c| d.cell(c).region.index() == ri)
            .map(|c| p.cells[c.index()].area())
            .sum();
        let dummy_area: u64 = p
            .dummy_cells
            .iter()
            .filter(|r| region.contains_rect(**r))
            .map(|r| r.area())
            .sum();
        assert_eq!(region.area(), cell_area + dummy_area);
    }
}

#[test]
fn pin_density_violations_detected_by_oracle() {
    // Place with pin density off, then verify against a harsh threshold:
    // the oracle must flag something on a dense design.
    let d = benchmarks::synthetic(SyntheticParams {
        cells_per_region: 8,
        nets: 12,
        net_degree: 4,
        ..Default::default()
    });
    let mut cfg = fast();
    cfg.pin_density = None;
    let mut p = Placer::builder(&d)
        .config(cfg)
        .build()
        .expect("encode")
        .place()
        .expect("place");
    p.pin_density = Some(ams_place::PinDensityCheck {
        beta_x: 2,
        beta_y: 1,
        lambda: 1,
        stride_x: 1,
        stride_y: 1,
        overrides: Vec::new(),
    });
    let Err(violations) = p.verify(&d) else {
        panic!("λ=1 must be violated by any real placement");
    };
    assert!(violations
        .iter()
        .any(|v| v.kind == ViolationKind::PinDensity));
}
