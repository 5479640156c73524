//! End-to-end tests of the optional array patterns the paper names in
//! Fig. 2b: interdigitation and central symmetry (common-centroid is
//! exercised by the VCO benchmark).

use ams_netlist::{ArrayConstraint, ArrayPattern, CellId, DesignBuilder, DiagCode};
use ams_place::{ConstraintFamily, PlaceError, Placer, PlacerConfig};

fn array_design(pattern: impl FnOnce(&[CellId]) -> ArrayPattern, n: usize) -> ams_netlist::Design {
    let mut b = DesignBuilder::new("patterned");
    let r = b.add_region("core", 0.6);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n", 1);
    let cells: Vec<CellId> = (0..n)
        .map(|i| b.add_cell(format!("u{i}"), r, 2, 2, pg))
        .collect();
    b.add_pin(cells[0], "p", Some(net), 0, 0);
    b.add_pin(cells[n - 1], "p", Some(net), 0, 0);
    // A couple of bystander cells so the array is not the whole region.
    let x = b.add_cell("bystander0", r, 4, 2, pg);
    b.add_pin(x, "p", Some(net), 0, 0);
    let y = b.add_cell("bystander1", r, 4, 2, pg);
    b.add_pin(y, "p", Some(net), 0, 0);
    b.add_array(ArrayConstraint {
        name: "arr".into(),
        cells: cells.clone(),
        pattern: pattern(&cells),
    });
    b.build().expect("valid design")
}

#[test]
fn interdigitated_array_places_and_verifies() {
    let d = array_design(
        |cells| ArrayPattern::Interdigitated {
            groups: vec![
                cells.iter().step_by(2).copied().collect(),
                cells.iter().skip(1).step_by(2).copied().collect(),
            ],
        },
        8,
    );
    let p = Placer::new(&d, PlacerConfig::fast())
        .expect("encode")
        .place()
        .expect("place");
    p.verify(&d).expect("interdigitation holds");
}

#[test]
fn central_symmetric_array_places_and_verifies() {
    let d = array_design(
        |cells| ArrayPattern::CentralSymmetric {
            pairs: (0..4).map(|k| (cells[k], cells[7 - k])).collect(),
        },
        8,
    );
    let p = Placer::new(&d, PlacerConfig::fast())
        .expect("encode")
        .place()
        .expect("place");
    p.verify(&d).expect("central symmetry holds");
}

#[test]
fn oracle_flags_broken_interdigitation() {
    let d = array_design(
        |cells| ArrayPattern::Interdigitated {
            groups: vec![
                cells.iter().step_by(2).copied().collect(),
                cells.iter().skip(1).step_by(2).copied().collect(),
            ],
        },
        8,
    );
    let p = Placer::new(&d, PlacerConfig::fast())
        .expect("encode")
        .place()
        .expect("place");
    // Swap two adjacent same-row members: A and B exchange columns.
    let mut bad = p.clone();
    let a = d.constraints().arrays[0].cells[0];
    let b = d.constraints().arrays[0].cells[1];
    bad.cells.swap(a.index(), b.index());
    let violations = bad.verify(&d).expect_err("swap breaks the pattern");
    assert!(violations
        .iter()
        .any(|v| v.kind == ams_place::ViolationKind::Array));
}

#[test]
fn validation_rejects_ragged_interdigitation_groups() {
    let mut b = DesignBuilder::new("bad");
    let r = b.add_region("core", 0.6);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n", 1);
    let cells: Vec<CellId> = (0..6)
        .map(|i| b.add_cell(format!("u{i}"), r, 2, 2, pg))
        .collect();
    b.add_pin(cells[0], "p", Some(net), 0, 0);
    b.add_pin(cells[1], "p", Some(net), 0, 0);
    b.add_array(ArrayConstraint {
        name: "bad".into(),
        cells: cells.clone(),
        pattern: ArrayPattern::Interdigitated {
            groups: vec![cells[..4].to_vec(), cells[4..].to_vec()], // 4 vs 2
        },
    });
    match b.build() {
        Err(ams_netlist::ValidateDesignError::Constraints { findings }) => {
            assert!(findings.iter().all(|d| d.code == DiagCode::ArrayBadPattern));
        }
        other => panic!("expected an AMS-E007 rejection, got {other:?}"),
    }
}

#[test]
fn interdigitation_without_a_fitting_shape_is_infeasible() {
    // Four one-cell groups interleave only as one row of four, which is
    // wider than the die; the 1-wide filler keeps the width GCD at 1, so
    // scaling cannot shrink the cells. The array's disjunction of slot
    // shapes is empty, so the solve fails on it instead of panicking.
    for width in 2..=12 {
        let mut b = DesignBuilder::new("unplaceable");
        let r = b.add_region("core", 0.6);
        let pg = b.add_power_group("VDD");
        let net = b.add_net("n", 1);
        let cells: Vec<CellId> = (0..4)
            .map(|i| b.add_cell(format!("u{i}"), r, width, 2, pg))
            .collect();
        b.add_pin(cells[0], "p", Some(net), 0, 0);
        b.add_pin(cells[3], "p", Some(net), 0, 0);
        b.add_cell("filler", r, 1, 2, pg);
        b.add_array(ArrayConstraint {
            name: "arr".into(),
            cells: cells.clone(),
            pattern: ArrayPattern::Interdigitated {
                groups: cells.iter().map(|&c| vec![c]).collect(),
            },
        });
        let d = b.build().expect("valid design");
        match Placer::new(&d, PlacerConfig::fast()).and_then(Placer::place) {
            Err(PlaceError::Infeasible {
                conflict,
                provenance,
                ..
            }) => {
                assert!(
                    conflict.contains(&ConstraintFamily::Arrays),
                    "width {width}: {conflict:?}"
                );
                assert!(
                    provenance.iter().any(|line| line.contains("array #0")),
                    "width {width}: {provenance:?}"
                );
            }
            other => panic!("width {width}: expected Infeasible, got {other:?}"),
        }
    }
}
