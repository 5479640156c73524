//! Pre-solve linter tests: clean benchmarks stay clean (and still place),
//! and a gallery of deliberately broken designs each trigger their
//! intended diagnostic code. Where the broken constraint system is still
//! encodable, the UNSAT explainer must confirm genuine unsatisfiability
//! and attribute it to the right constraint families.

use ams_netlist::benchmarks::{self, SyntheticParams};
use ams_netlist::json::Json;
use ams_netlist::{
    ArrayConstraint, ArrayPattern, CellId, ClusterConstraint, ConstraintSet, Design, DesignBuilder,
    DiagCode, ExtensionConstraint, ExtensionTarget, SymmetryAxis, SymmetryGroup, SymmetryPair,
};
use ams_place::analysis::{explain_unsat, lint, lint_with, ConstraintFamily, UnsatOutcome};
use ams_place::{PinDensityConfig, PlaceError, Placer, PlacerConfig};

// --- clean designs -----------------------------------------------------

#[test]
fn benchmarks_lint_clean() {
    let cfg = PlacerConfig::default();
    for design in [benchmarks::buf(), benchmarks::vco()] {
        let report = lint(&design, &cfg);
        assert!(
            !report.has_errors(),
            "{} should lint clean:\n{report}",
            design.name()
        );
    }
}

#[test]
fn lint_clean_design_places_and_verifies() {
    let design = benchmarks::synthetic(SyntheticParams::default());
    let cfg = PlacerConfig::fast();
    assert!(!lint(&design, &cfg).has_errors());
    let placement = Placer::new(&design, cfg)
        .expect("clean design encodes")
        .place()
        .expect("clean design places");
    assert!(placement.verify(&design).is_ok());
}

#[test]
fn synthetic_designs_lint_without_errors() {
    let cfg = PlacerConfig::fast();
    for seed in 0..8 {
        let design = benchmarks::synthetic(SyntheticParams {
            regions: 1 + (seed as usize % 2),
            cells_per_region: 5 + (seed as usize % 5),
            symmetry_pairs: seed as usize % 3,
            cluster_size: if seed % 2 == 0 { 3 } else { 0 },
            seed,
            ..SyntheticParams::default()
        });
        let report = lint(&design, &cfg);
        assert!(!report.has_errors(), "seed {seed}:\n{report}");
    }
}

// --- fixture helpers ---------------------------------------------------

/// A minimal valid design: `n` cells of 4x2 in one region, pairwise wired.
fn simple_design(n: usize) -> Design {
    let mut b = DesignBuilder::new("lint_fixture");
    let r = b.add_region("core", 0.7);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n0", 1);
    let cells: Vec<CellId> = (0..n)
        .map(|i| b.add_cell(format!("c{i}"), r, 4, 2, pg))
        .collect();
    for (i, &c) in cells.iter().enumerate() {
        b.add_pin(c, format!("p{i}"), Some(net), 0, 0);
    }
    b.build().expect("valid fixture")
}

fn code_of(report: &ams_netlist::LintReport, code: DiagCode) -> bool {
    report.has_code(code)
}

// --- broken-fixture gallery (structural, via lint_with) ----------------

#[test]
fn e001_symmetry_dimension_mismatch() {
    // Hand-build a pair of unequal cells; the builder would reject this
    // set, the linter names the exact cells instead.
    let mut b = DesignBuilder::new("e001");
    let r = b.add_region("core", 0.7);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n0", 1);
    let a = b.add_cell("small", r, 4, 2, pg);
    let c = b.add_cell("large", r, 8, 2, pg);
    b.add_pin(a, "p", Some(net), 0, 0);
    b.add_pin(c, "p", Some(net), 0, 0);
    let design = b.build().expect("valid without constraints");
    let cs = ConstraintSet {
        symmetry: vec![SymmetryGroup {
            name: "sym".into(),
            axis: SymmetryAxis::Vertical,
            pairs: vec![SymmetryPair::mirrored(a, c)],
            share_axis_with: None,
        }],
        ..Default::default()
    };
    let report = lint_with(&design, &cs, &PlacerConfig::fast());
    assert!(
        code_of(&report, DiagCode::SymmetryHeightMismatch),
        "{report}"
    );
    assert!(report.has_errors());
}

#[test]
fn e002_symmetry_dangling_cell() {
    let design = simple_design(2);
    let cs = ConstraintSet {
        symmetry: vec![SymmetryGroup {
            name: "sym".into(),
            axis: SymmetryAxis::Vertical,
            pairs: vec![SymmetryPair::mirrored(
                CellId::from_index(0),
                CellId::from_index(99),
            )],
            share_axis_with: None,
        }],
        ..Default::default()
    };
    let report = lint_with(&design, &cs, &PlacerConfig::fast());
    assert!(code_of(&report, DiagCode::SymmetryDanglingCell), "{report}");
}

#[test]
fn e003_symmetry_cyclic_share() {
    let design = simple_design(4);
    let pair =
        |i: usize, j: usize| SymmetryPair::mirrored(CellId::from_index(i), CellId::from_index(j));
    let cs = ConstraintSet {
        symmetry: vec![
            SymmetryGroup {
                name: "g0".into(),
                axis: SymmetryAxis::Vertical,
                pairs: vec![pair(0, 1)],
                share_axis_with: Some(1), // forward reference: cycle
            },
            SymmetryGroup {
                name: "g1".into(),
                axis: SymmetryAxis::Vertical,
                pairs: vec![pair(2, 3)],
                share_axis_with: Some(0),
            },
        ],
        ..Default::default()
    };
    let report = lint_with(&design, &cs, &PlacerConfig::fast());
    assert!(code_of(&report, DiagCode::SymmetryCyclicShare), "{report}");
}

#[test]
fn e004_symmetry_overconstrained_cell_is_genuinely_unsat() {
    // One cell mirrored against two distinct partners about the same axis:
    // the builder accepts it, the solver cannot — both partners would need
    // the same mirrored position.
    let mut b = DesignBuilder::new("e004");
    let r = b.add_region("core", 0.7);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n0", 1);
    let a = b.add_cell("a", r, 4, 2, pg);
    let b1 = b.add_cell("b1", r, 4, 2, pg);
    let b2 = b.add_cell("b2", r, 4, 2, pg);
    for (c, p) in [(a, "pa"), (b1, "pb1"), (b2, "pb2")] {
        b.add_pin(c, p, Some(net), 0, 0);
    }
    b.add_symmetry(SymmetryGroup {
        name: "sym".into(),
        axis: SymmetryAxis::Vertical,
        pairs: vec![SymmetryPair::mirrored(a, b1), SymmetryPair::mirrored(a, b2)],
        share_axis_with: None,
    });
    let design = b
        .build()
        .expect("builder accepts the overconstrained group");

    let cfg = PlacerConfig::fast();
    let report = lint(&design, &cfg);
    assert!(
        code_of(&report, DiagCode::SymmetryOverconstrained),
        "{report}"
    );

    // The placer refuses via the lint gate...
    match Placer::new(&design, cfg.clone()) {
        Err(PlaceError::Lint(r)) => assert!(r.has_errors()),
        Err(other) => panic!("expected lint rejection, got {other:?}"),
        Ok(_) => panic!("expected lint rejection, got an encoder"),
    }
    // ...and the claim is honest: the instance really is UNSAT, with the
    // symmetry family implicated.
    match explain_unsat(&design, &cfg) {
        UnsatOutcome::Conflict(families) => {
            assert!(
                families.contains(&ConstraintFamily::Symmetry),
                "symmetry should be implicated, got {families:?}"
            );
        }
        other => panic!("expected a conflict, got {other:?}"),
    }
}

#[test]
fn e005_e006_array_dangling_and_ragged() {
    let mut b = DesignBuilder::new("e006");
    let r = b.add_region("core", 0.7);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n0", 1);
    let a = b.add_cell("narrow", r, 4, 2, pg);
    let c = b.add_cell("wide", r, 8, 2, pg);
    b.add_pin(a, "p", Some(net), 0, 0);
    b.add_pin(c, "p", Some(net), 0, 0);
    let design = b.build().expect("valid without constraints");
    let cs = ConstraintSet {
        arrays: vec![
            ArrayConstraint {
                name: "ragged".into(),
                cells: vec![a, c],
                pattern: ArrayPattern::Dense,
            },
            ArrayConstraint {
                name: "dangling".into(),
                cells: vec![a, CellId::from_index(42)],
                pattern: ArrayPattern::Dense,
            },
        ],
        ..Default::default()
    };
    let report = lint_with(&design, &cs, &PlacerConfig::fast());
    assert!(code_of(&report, DiagCode::ArrayRaggedCells), "{report}");
    assert!(code_of(&report, DiagCode::ArrayDanglingCell), "{report}");
}

#[test]
fn e007_array_pattern_cardinality() {
    let design = simple_design(4);
    let ids: Vec<CellId> = (0..4).map(CellId::from_index).collect();
    let cs = ConstraintSet {
        arrays: vec![ArrayConstraint {
            name: "cc".into(),
            cells: ids.clone(),
            pattern: ArrayPattern::CommonCentroid {
                group_a: vec![ids[0], ids[1]],
                group_b: vec![ids[1], ids[2]], // overlap: ids[1] in both
            },
        }],
        ..Default::default()
    };
    let report = lint_with(&design, &cs, &PlacerConfig::fast());
    assert!(code_of(&report, DiagCode::ArrayBadPattern), "{report}");
}

#[test]
fn e013_cell_in_two_arrays() {
    let design = simple_design(4);
    let ids: Vec<CellId> = (0..4).map(CellId::from_index).collect();
    let array = |name: &str, cells: Vec<CellId>| ArrayConstraint {
        name: name.into(),
        cells,
        pattern: ArrayPattern::Dense,
    };
    let cs = ConstraintSet {
        arrays: vec![
            array("bank0", vec![ids[0], ids[1]]),
            array("bank1", vec![ids[1], ids[2]]),
        ],
        ..Default::default()
    };
    let report = lint_with(&design, &cs, &PlacerConfig::fast());
    assert!(
        code_of(&report, DiagCode::ContradictoryConstraint),
        "{report}"
    );
}

#[test]
fn e014_cluster_dangling_reference() {
    let design = simple_design(2);
    let cs = ConstraintSet {
        clusters: vec![ClusterConstraint {
            name: "cl".into(),
            cells: vec![CellId::from_index(0), CellId::from_index(7)],
            weight: 4,
        }],
        ..Default::default()
    };
    let report = lint_with(&design, &cs, &PlacerConfig::fast());
    assert!(code_of(&report, DiagCode::DanglingReference), "{report}");
}

// --- broken-fixture gallery (geometric, via full designs) --------------

/// Two regions of different cell heights so the height GCD stays 1, with
/// an extreme aspect ratio pinning the scaled die height at its floor.
fn flat_die_builder() -> (DesignBuilder, ams_netlist::RegionId) {
    let mut b = DesignBuilder::new("flat");
    let tall = b.add_region("tall", 0.9);
    let short = b.add_region("short", 0.9);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n0", 1);
    let a = b.add_cell("t0", tall, 2, 3, pg);
    let c = b.add_cell("s0", short, 2, 2, pg);
    let d = b.add_cell("s1", short, 2, 2, pg);
    b.add_pin(a, "p", Some(net), 0, 0);
    b.add_pin(c, "p", Some(net), 0, 0);
    b.add_pin(d, "p", Some(net), 0, 0);
    (b, tall)
}

fn flat_config() -> PlacerConfig {
    PlacerConfig {
        aspect_ratio: 60.0,
        die_slack: 1.0,
        utilization: 0.9,
        ..PlacerConfig::default()
    }
}

#[test]
fn e008_region_without_dimension_candidates() {
    let (mut b, tall) = flat_die_builder();
    // A huge edge reservation eats the whole (flat) die height.
    b.set_region_edge(tall, 0, 40);
    let design = b.build().expect("valid design");
    let cfg = flat_config();
    let report = lint(&design, &cfg);
    assert!(code_of(&report, DiagCode::RegionInfeasible), "{report}");
    // The lint gate turns the encoder panic into a structured error.
    match Placer::new(&design, cfg) {
        Err(PlaceError::Lint(r)) => assert!(r.has_code(DiagCode::RegionInfeasible)),
        Err(other) => panic!("expected lint rejection, got {other:?}"),
        Ok(_) => panic!("expected lint rejection, got an encoder"),
    }
}

#[test]
fn e010_power_bands_cannot_stack() {
    // Two 3-tall bands cannot stack inside a die whose scaled height is
    // pinned at max_cell_height + 2 = 5.
    let mut b = DesignBuilder::new("powerflat");
    let mixed = b.add_region("mixed", 0.9);
    let other = b.add_region("other", 0.9);
    let vdd = b.add_power_group("VDD");
    let vss = b.add_power_group("VSS");
    let net = b.add_net("n0", 1);
    for i in 0..2 {
        let c = b.add_cell(format!("a{i}"), mixed, 2, 3, vdd);
        b.add_pin(c, "p", Some(net), 0, 0);
    }
    for i in 0..2 {
        let c = b.add_cell(format!("b{i}"), mixed, 2, 3, vss);
        b.add_pin(c, "p", Some(net), 0, 0);
    }
    let gcd_breaker = b.add_cell("s0", other, 2, 2, vdd);
    b.add_pin(gcd_breaker, "p", Some(net), 0, 0);
    let design = b.build().expect("valid design");
    let cfg = flat_config();
    let report = lint(&design, &cfg);
    assert!(code_of(&report, DiagCode::PowerRowOverflow), "{report}");
}

#[test]
fn e011_pin_density_below_single_cell_is_genuinely_unsat() {
    let mut b = DesignBuilder::new("dense_pins");
    let r = b.add_region("core", 0.7);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n0", 1);
    let dense = b.add_cell("dense", r, 4, 2, pg);
    let mate = b.add_cell("mate", r, 4, 2, pg);
    for (i, (dx, dy)) in [(0, 0), (1, 0), (2, 0)].iter().enumerate() {
        b.add_pin(
            dense,
            format!("p{i}"),
            if i == 0 { Some(net) } else { None },
            *dx,
            *dy,
        );
    }
    b.add_pin(mate, "p", Some(net), 0, 0);
    let design = b.build().expect("valid design");

    let cfg = PlacerConfig {
        pin_density: Some(PinDensityConfig {
            lambda: Some(1), // the 'dense' cell alone has 3 pins
            ..PinDensityConfig::default()
        }),
        ..PlacerConfig::fast()
    };
    let report = lint(&design, &cfg);
    assert!(code_of(&report, DiagCode::PinDensityInfeasible), "{report}");

    // The assumption-based explainer confirms: UNSAT, and the conflict
    // names the pin-density family (with the core geometry that pins the
    // cell inside the window-covered die).
    match explain_unsat(&design, &cfg) {
        UnsatOutcome::Conflict(families) => {
            assert!(
                families.contains(&ConstraintFamily::PinDensity),
                "pin density should be implicated, got {families:?}"
            );
        }
        other => panic!("expected a conflict, got {other:?}"),
    }
}

#[test]
fn e012_net_weight_overflows_scaling() {
    let mut b = DesignBuilder::new("heavy");
    let r = b.add_region("core", 0.7);
    let pg = b.add_power_group("VDD");
    let n1 = b.add_net("n1", u32::MAX);
    let n2 = b.add_net("n2", u32::MAX);
    let a = b.add_cell("a", r, 4, 2, pg);
    let c = b.add_cell("c", r, 4, 2, pg);
    b.add_pin(a, "p1", Some(n1), 0, 0);
    b.add_pin(c, "p1", Some(n1), 0, 0);
    b.add_pin(a, "p2", Some(n2), 1, 0);
    b.add_pin(c, "p2", Some(n2), 1, 0);
    let design = b.build().expect("valid design");
    let report = lint(&design, &PlacerConfig::fast());
    assert!(code_of(&report, DiagCode::BitWidthOverflow), "{report}");
}

// --- warnings and hints ------------------------------------------------

#[test]
fn warnings_do_not_block_placement() {
    let mut b = DesignBuilder::new("warny");
    let r = b.add_region("core", 0.7);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n0", 1);
    let a = b.add_cell("a", r, 4, 2, pg);
    let c = b.add_cell("c", r, 4, 2, pg);
    let floater = b.add_cell("floater", r, 4, 2, pg);
    b.add_pin(a, "p", Some(net), 0, 0);
    b.add_pin(c, "p", Some(net), 0, 0);
    let _ = floater; // no pins, no constraints: AMS-W003
    b.add_cluster(ClusterConstraint {
        name: "weightless".into(),
        cells: vec![a, c],
        weight: 0, // AMS-H002
    });
    let design = b.build().expect("valid design");
    let cfg = PlacerConfig {
        pin_density: Some(PinDensityConfig {
            stride_x: 9, // wider than beta_x = 4: AMS-H001
            ..PinDensityConfig::default()
        }),
        ..PlacerConfig::fast()
    };
    let report = lint(&design, &cfg);
    assert!(code_of(&report, DiagCode::UnreferencedCell), "{report}");
    assert!(code_of(&report, DiagCode::IneffectiveCluster), "{report}");
    assert!(code_of(&report, DiagCode::SparseDensityWindows), "{report}");
    assert!(!report.has_errors(), "warnings/hints only:\n{report}");
    // The placer proceeds despite warnings.
    let placement = Placer::new(&design, cfg)
        .expect("warnings pass the gate")
        .place();
    assert!(placement.is_ok());
}

#[test]
fn w001_w002_duplicate_and_empty_constraints() {
    let design = simple_design(4);
    let pair = SymmetryPair::mirrored(CellId::from_index(0), CellId::from_index(1));
    let cs = ConstraintSet {
        symmetry: vec![
            SymmetryGroup {
                name: "g0".into(),
                axis: SymmetryAxis::Vertical,
                pairs: vec![pair],
                share_axis_with: None,
            },
            SymmetryGroup {
                name: "g1".into(),
                axis: SymmetryAxis::Vertical,
                pairs: vec![pair], // same pair, same axis: AMS-W001
                share_axis_with: None,
            },
            SymmetryGroup {
                name: "empty".into(),
                axis: SymmetryAxis::Horizontal,
                pairs: vec![], // AMS-W002
                share_axis_with: None,
            },
        ],
        ..Default::default()
    };
    let report = lint_with(&design, &cs, &PlacerConfig::fast());
    assert!(code_of(&report, DiagCode::DuplicateConstraint), "{report}");
    assert!(code_of(&report, DiagCode::EmptyConstraint), "{report}");
    assert!(!report.has_errors());
}

// --- the explainer on a feasible design --------------------------------

#[test]
fn explainer_reports_feasible_designs() {
    let design = benchmarks::synthetic(SyntheticParams::default());
    let outcome = explain_unsat(&design, &PlacerConfig::fast());
    assert_eq!(outcome, UnsatOutcome::Feasible);
}

// --- geometric errors are presolve's capacity proofs --------------------

/// A mixed region with two VDD and two VSS 2x3 cells next to a region with
/// one 2x2 cell, so the height GCD stays 1 and each band is 3 rows tall.
fn two_band_design() -> Design {
    let mut b = DesignBuilder::new("two_bands");
    let mixed = b.add_region("mixed", 0.9);
    let other = b.add_region("other", 0.9);
    let vdd = b.add_power_group("VDD");
    let vss = b.add_power_group("VSS");
    let net = b.add_net("n0", 1);
    for (i, pg) in [vdd, vdd, vss, vss].into_iter().enumerate() {
        let c = b.add_cell(format!("m{i}"), mixed, 2, 3, pg);
        b.add_pin(c, "p", Some(net), 0, 0);
    }
    let s = b.add_cell("s0", other, 2, 2, vdd);
    b.add_pin(s, "p", Some(net), 0, 0);
    b.build().expect("valid design")
}

#[test]
fn e010_stays_silent_when_the_bands_fit() {
    // Under the roomy fast() sizing the two 3-tall bands stack inside a
    // region candidate: no E010, and the design really places.
    let design = two_band_design();
    let cfg = PlacerConfig::fast();
    let report = lint(&design, &cfg);
    assert!(!code_of(&report, DiagCode::PowerRowOverflow), "{report}");
    let placement = Placer::new(&design, cfg)
        .expect("no geometric lint error")
        .place()
        .expect("the bands fit");
    placement.verify(&design).expect("placement is legal");
}

#[test]
fn e011_needs_windows_that_cover_the_die() {
    // 1x1 windows strided 3 apart in x leave unchecked columns, so a cell
    // with more pins than λ_th can sit between windows: only the H001
    // hint fires, and the design places with recovery and presolve off.
    let mut b = DesignBuilder::new("strided_windows");
    let r = b.add_region("core", 0.7);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n0", 1);
    let dense = b.add_cell("dense", r, 2, 2, pg);
    let mate = b.add_cell("mate", r, 2, 2, pg);
    for i in 0..3 {
        b.add_pin(
            dense,
            format!("p{i}"),
            (i == 0).then_some(net),
            i % 2,
            i / 2,
        );
    }
    b.add_pin(mate, "p", Some(net), 0, 0);
    let design = b.build().expect("valid design");

    let mut cfg = PlacerConfig {
        pin_density: Some(PinDensityConfig {
            beta_x: 1,
            beta_y: 1,
            stride_x: 3,
            stride_y: 1,
            lambda: Some(1),
            ..PinDensityConfig::default()
        }),
        ..PlacerConfig::fast()
    };
    cfg.recovery.max_rungs = 0;
    cfg.presolve.enabled = false;
    let report = lint(&design, &cfg);
    let codes: Vec<DiagCode> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![DiagCode::SparseDensityWindows], "{report}");
    let placement = Placer::new(&design, cfg)
        .expect("no lint error")
        .place()
        .expect("the dense cell fits between windows");
    placement.verify(&design).expect("placement is legal");
}

#[test]
fn e009_regions_overflow_the_die_inside_their_margins() {
    // Each region fits the die on its own, but both must also keep a
    // 1-grid extension margin from every die edge: their footprints cannot
    // share what is left.
    let mut b = DesignBuilder::new("e009");
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n0", 1);
    for r in 0..2 {
        let region = b.add_region(format!("r{r}"), 0.9);
        for i in 0..6 {
            let c = b.add_cell(format!("c{r}_{i}"), region, 2, 2, pg);
            b.add_pin(c, "p", Some(net), 0, 0);
        }
        b.add_extension(ExtensionConstraint {
            target: ExtensionTarget::Region(region),
            left: 1,
            right: 1,
            bottom: 1,
            top: 1,
        });
    }
    let design = b.build().expect("valid design");
    let cfg = PlacerConfig {
        die_slack: 1.0,
        utilization: 0.9,
        ..PlacerConfig::default()
    };
    let report = lint(&design, &cfg);
    assert!(code_of(&report, DiagCode::DieOverflow), "{report}");
    assert!(!code_of(&report, DiagCode::RegionInfeasible), "{report}");
    match Placer::new(&design, cfg.clone()) {
        Err(PlaceError::Lint(r)) => assert!(r.has_code(DiagCode::DieOverflow)),
        Err(other) => panic!("expected lint rejection, got {other:?}"),
        Ok(_) => panic!("expected lint rejection, got an encoder"),
    }
    // The claim is honest: the solver finds the core geometry UNSAT too.
    match explain_unsat(&design, &cfg) {
        UnsatOutcome::Conflict(families) => {
            assert!(
                families.contains(&ConstraintFamily::CoreGeometry),
                "core geometry should be implicated, got {families:?}"
            );
        }
        other => panic!("expected a conflict, got {other:?}"),
    }
}

// --- designs the builder would refuse, sent as JSON ----------------------

/// Rewrites the symmetry groups of a design's JSON.
type GroupEdit = fn(&mut [Json]);

/// Two groups, one self-symmetric cell each, round-tripped through JSON
/// with `edit` applied to the symmetry groups in between. The parser runs
/// the builder's validation, so a request cannot carry constraints the
/// builder would refuse past it.
fn edited_design(edit: GroupEdit) -> Result<Design, ams_netlist::ParseDesignError> {
    let mut b = DesignBuilder::new("from_json");
    let r = b.add_region("core", 0.7);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n0", 1);
    for i in 0..2 {
        let c = b.add_cell(format!("c{i}"), r, 4, 2, pg);
        b.add_pin(c, "p", Some(net), 0, 0);
        b.add_symmetry(SymmetryGroup {
            name: format!("g{i}"),
            axis: SymmetryAxis::Vertical,
            pairs: vec![SymmetryPair::self_symmetric(c)],
            share_axis_with: None,
        });
    }
    let valid = b.build().expect("valid design");
    let mut json = Json::parse(&valid.to_json()).expect("own output parses");
    let Json::Obj(top) = &mut json else {
        panic!("a design is an object")
    };
    let Some(Json::Obj(constraints)) = top.get_mut("constraints") else {
        panic!("a design has constraints")
    };
    let Some(Json::Arr(groups)) = constraints.get_mut("symmetry") else {
        panic!("constraints have symmetry groups")
    };
    edit(groups);
    Design::from_json(&json.pretty())
}

fn set(group: &mut Json, key: &str, value: u64) {
    let Json::Obj(fields) = group else {
        panic!("a group is an object")
    };
    fields.insert(key.into(), Json::uint(value));
}

#[test]
fn broken_symmetry_from_json_is_a_lint_error_not_a_hang() {
    let cases: [(&str, DiagCode, GroupEdit); 4] = [
        ("cycle", DiagCode::SymmetryCyclicShare, |gs| {
            set(&mut gs[0], "share_axis_with", 1);
            set(&mut gs[1], "share_axis_with", 0);
        }),
        ("self", DiagCode::SymmetryCyclicShare, |gs| {
            set(&mut gs[1], "share_axis_with", 1);
        }),
        ("missing group", DiagCode::SymmetryCyclicShare, |gs| {
            set(&mut gs[1], "share_axis_with", 7);
        }),
        ("dangling cell", DiagCode::SymmetryDanglingCell, |gs| {
            let Json::Obj(g) = &mut gs[0] else {
                panic!("a group is an object")
            };
            let Some(Json::Arr(pairs)) = g.get_mut("pairs") else {
                panic!("a group has pairs")
            };
            set(&mut pairs[0], "a", 99);
        }),
    ];
    for (what, code, edit) in cases {
        let err = edited_design(edit).expect_err(what);
        assert!(err.to_string().contains(code.code()), "{what}: {err}");
    }
}
