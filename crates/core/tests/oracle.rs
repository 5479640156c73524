//! Negative tests for the legality oracle: a deliberately corrupted
//! placement must trigger exactly the right violation category. This keeps
//! the oracle honest — it is the reference the SMT encoders are judged by.

use ams_netlist::benchmarks::{synthetic, SyntheticParams};
use ams_place::{Placer, PlacerConfig, ViolationKind};

fn placed() -> (ams_netlist::Design, ams_place::Placement) {
    let design = synthetic(SyntheticParams {
        cells_per_region: 8,
        nets: 8,
        symmetry_pairs: 2,
        seed: 1234,
        ..Default::default()
    });
    let placement = Placer::new(&design, PlacerConfig::fast())
        .expect("encode")
        .place()
        .expect("place");
    placement.verify(&design).expect("starts legal");
    (design, placement)
}

fn has_kind(violations: &[ams_place::Violation], kind: ViolationKind) -> bool {
    violations.iter().any(|v| v.kind == kind)
}

#[test]
fn detects_overlap() {
    let (design, mut p) = placed();
    // Move cell 1 onto cell 0.
    p.cells[1].x = p.cells[0].x;
    p.cells[1].y = p.cells[0].y;
    let violations = p.verify(&design).expect_err("must flag");
    assert!(has_kind(&violations, ViolationKind::Overlap));
}

#[test]
fn detects_containment_escape() {
    let (design, mut p) = placed();
    let (uw, _) = p.units;
    // Teleport a cell far right of its region (grid-aligned so only the
    // containment check fires).
    p.cells[0].x = p.die.right() + 10 * uw;
    let violations = p.verify(&design).expect_err("must flag");
    assert!(has_kind(&violations, ViolationKind::Containment));
}

#[test]
fn detects_grid_misalignment() {
    let (design, mut p) = placed();
    p.cells[0].x += 1; // units are > 1 for the synthetic generator
    let violations = p.verify(&design).expect_err("must flag");
    assert!(has_kind(&violations, ViolationKind::GridAlignment));
}

#[test]
fn detects_symmetry_break() {
    let (design, mut p) = placed();
    let group = &design.constraints().symmetry[0];
    let pair = group.pairs[0];
    let b = pair.b.expect("generator makes mirrored pairs");
    // Shift one mirror partner a full site sideways.
    let (uw, _) = p.units;
    p.cells[b.index()].x += 2 * uw;
    let violations = p.verify(&design).expect_err("must flag");
    assert!(
        has_kind(&violations, ViolationKind::Symmetry)
            || has_kind(&violations, ViolationKind::Overlap),
        "shifting a mirror partner must break symmetry (or collide): {violations:?}"
    );
}

#[test]
fn detects_region_overlap() {
    let (design, mut p) = placed();
    if design.regions().len() < 2 {
        return; // single-region fixture variant
    }
    p.regions[1] = p.regions[0];
    let violations = p.verify(&design).expect_err("must flag");
    assert!(has_kind(&violations, ViolationKind::RegionSeparation));
}

#[test]
fn detects_power_interleave() {
    use ams_netlist::DesignBuilder;
    // Two power groups stacked illegally.
    let mut b = DesignBuilder::new("pwr");
    let r = b.add_region("core", 0.8);
    let vdd = b.add_power_group("VDD");
    let vddl = b.add_power_group("VDDL");
    let n = b.add_net("n", 1);
    let a = b.add_cell("a", r, 4, 2, vdd);
    b.add_pin(a, "p", Some(n), 0, 0);
    let c = b.add_cell("b", r, 4, 2, vddl);
    b.add_pin(c, "p", Some(n), 0, 0);
    let d = b.add_cell("c", r, 4, 2, vdd);
    b.add_pin(d, "p", Some(n), 0, 0);
    let design = b.build().expect("valid");
    let placement = Placer::new(&design, PlacerConfig::fast())
        .expect("encode")
        .place()
        .expect("place");
    placement.verify(&design).expect("legal with bands");

    // Sandwich the VDDL cell between the two VDD cells vertically.
    let mut bad = placement.clone();
    let (_, uh) = bad.units;
    let base = bad.regions[0].y;
    bad.cells[0].y = base;
    bad.cells[1].y = base + uh; // VDDL in the middle
    bad.cells[2].y = base + 2 * uh;
    let x = bad.regions[0].x;
    for r in bad.cells.iter_mut() {
        r.x = x;
    }
    let violations = bad.verify(&design).expect_err("must flag");
    assert!(has_kind(&violations, ViolationKind::PowerAbutment));
}

#[test]
fn detects_pin_density_overflow() {
    let (design, mut p) = placed();
    let pd = p.pin_density.expect("fast config enforces pin density");
    // Keep the (legal) geometry and tighten the recorded threshold to
    // zero: every populated window now overflows, and since nothing moved,
    // pin density is the only check that can fire — a *pure* PinDensity
    // violation.
    p.pin_density = Some(ams_place::PinDensityCheck { lambda: 0, ..pd });
    let violations = p.verify(&design).expect_err("must flag");
    assert!(has_kind(&violations, ViolationKind::PinDensity));
    assert!(
        violations
            .iter()
            .all(|v| v.kind == ViolationKind::PinDensity),
        "only pin density may fire on untouched geometry: {violations:?}"
    );
}

#[test]
fn detects_array_density_break() {
    use ams_netlist::{ArrayConstraint, ArrayPattern, DesignBuilder};
    let mut b = DesignBuilder::new("arr");
    let r = b.add_region("core", 0.6);
    let pg = b.add_power_group("VDD");
    let n = b.add_net("n", 1);
    let cells: Vec<_> = (0..4)
        .map(|i| b.add_cell(format!("c{i}"), r, 2, 2, pg))
        .collect();
    b.add_pin(cells[0], "p", Some(n), 0, 0);
    b.add_pin(cells[3], "p", Some(n), 0, 0);
    b.add_array(ArrayConstraint {
        name: "a".into(),
        cells: cells.clone(),
        pattern: ArrayPattern::Dense,
    });
    let design = b.build().expect("valid");
    let placement = Placer::new(&design, PlacerConfig::fast())
        .expect("encode")
        .place()
        .expect("place");
    placement.verify(&design).expect("legal dense array");

    // Pull members to opposite corners: the bbox area must now exceed the
    // member area.
    let mut bad = placement.clone();
    let region = bad.regions[0];
    bad.cells[0].x = region.x;
    bad.cells[0].y = region.y;
    bad.cells[3].x = region.right() - bad.cells[3].w;
    bad.cells[3].y = region.top() - bad.cells[3].h;
    let bbox = bad.cells[0].union(bad.cells[3]);
    assert!(bbox.area() > 4 * bad.cells[0].area(), "corruption is real");
    let violations = bad.verify(&design).expect_err("must flag");
    assert!(
        has_kind(&violations, ViolationKind::Array)
            || has_kind(&violations, ViolationKind::Overlap)
    );
}

#[test]
fn pin_density_checks_the_last_window_of_an_off_stride_die() {
    use ams_netlist::{DesignBuilder, Rect};
    use ams_place::{PinDensityCheck, PlaceStats, Placement};

    // An 11 × 2 die with 4 × 2 windows at x-stride 2: the stride-stepped
    // origins 0, 2, 4, 6 miss the last column, which only the final origin
    // 7 covers. Two 5-pin cells crowd into that column, over λ = 9.
    let mut b = DesignBuilder::new("off_stride");
    let r = b.add_region("r", 0.5);
    let g = b.add_power_group("vdd");
    let n = b.add_net("n", 1);
    for i in 0..2 {
        let c = b.add_cell(format!("c{i}"), r, 1, 1, g);
        for p in 0..5 {
            b.add_pin(c, format!("p{p}"), Some(n), 0, 0);
        }
    }
    let design = b.build().expect("valid");
    let die = Rect::new(0, 0, 11, 2);
    let placement = Placement {
        cells: (0..2).map(|y| Rect::new(10, y, 1, 1)).collect(),
        regions: vec![die],
        die,
        edge_cells: Vec::new(),
        dummy_cells: Vec::new(),
        units: (1, 1),
        pin_density: Some(PinDensityCheck {
            beta_x: 4,
            beta_y: 2,
            lambda: 9,
            stride_x: 2,
            stride_y: 1,
        }),
        stats: PlaceStats::default(),
    };
    let violations = placement.verify(&design).expect_err("must flag");
    assert!(
        has_kind(&violations, ViolationKind::PinDensity),
        "{violations:?}"
    );
    assert!(
        violations
            .iter()
            .all(|v| v.kind == ViolationKind::PinDensity),
        "only the crowded window may fail: {violations:?}"
    );
}

#[test]
fn cluster_pins_are_not_charged_to_pin_density() {
    use ams_netlist::{ClusterConstraint, DesignBuilder};
    use ams_place::PinDensityConfig;

    // Two one-pin cells in one cluster. The builder gives each a pin on
    // the cluster's virtual net; that pin is bookkeeping, not a terminal,
    // so one die-wide window under λ_th = 2 admits both cells.
    let mut b = DesignBuilder::new("clustered");
    let r = b.add_region("r", 0.5);
    let g = b.add_power_group("vdd");
    let n = b.add_net("n", 1);
    let cells: Vec<_> = (0..2)
        .map(|i| {
            let c = b.add_cell(format!("c{i}"), r, 2, 2, g);
            b.add_pin(c, "p", Some(n), 0, 0);
            c
        })
        .collect();
    b.add_cluster(ClusterConstraint {
        name: "k".into(),
        cells: cells.clone(),
        weight: 4,
    });
    let design = b.build().expect("valid");
    assert!(design.cells().iter().all(|c| c.pins.len() == 2));
    assert!(cells.iter().all(|&c| design.pin_count(c) == 1));

    let mut cfg = PlacerConfig::fast();
    cfg.recovery.max_rungs = 0;
    cfg.pin_density = Some(PinDensityConfig {
        beta_x: 1000,
        beta_y: 1000,
        stride_x: 1,
        stride_y: 1,
        lambda: Some(2),
        ..PinDensityConfig::default()
    });
    let placement = Placer::new(&design, cfg)
        .expect("encode")
        .place()
        .expect("the real pins meet λ_th");
    placement.verify(&design).expect("legal placement");
    let pd = placement.pin_density.expect("pin density enforced");
    assert_eq!(pd.lambda, 2);
}
