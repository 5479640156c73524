//! Mutation testing for the legality oracle: start from a hand-built,
//! provably-legal placement, corrupt exactly one coordinate (or dimension,
//! or recorded threshold) at a time, and demand that [`Placement::verify`]
//! flags *exactly* the right [`ViolationKind`] — no false positives from
//! sibling checks, no masking. Complements `oracle.rs`, which corrupts
//! SMT-produced placements and asserts the kind only loosely.

use ams_netlist::{Design, DesignBuilder, Rect, SymmetryAxis, SymmetryGroup, SymmetryPair};
use ams_place::{
    placement_from_rects, PinDensityCheck, Placement, PlacerConfig, ScaleInfo, ViolationKind,
};

/// The single-kind assertion every mutation test goes through.
fn assert_exactly(p: &Placement, design: &Design, kind: ViolationKind) {
    let violations = p.verify(design).expect_err("mutation must be flagged");
    assert!(
        violations.iter().all(|v| v.kind == kind),
        "expected only {kind:?}, got {violations:?}"
    );
    assert!(!violations.is_empty());
}

/// Two regions, a two-pair vertical symmetry group, a dense 2x2 array,
/// and two pin-heavy cells — every geometric check has something to bite.
/// All cells are 2x2, so the site grid is (2, 2).
fn fixture() -> (Design, Placement) {
    let mut b = DesignBuilder::new("mut8");
    let left = b.add_region("left", 0.5);
    let right = b.add_region("right", 0.5);
    let vdd = b.add_power_group("VDD");
    let n0 = b.add_net("n0", 1);
    let n1 = b.add_net("n1", 1);

    // Cell ids are allocated in insertion order: a=0, bb=1, s1=2, s2=3,
    // s3=4, s4=5, p=6, q=7, m1..m4=8..11.
    let a = b.add_cell("a", left, 2, 2, vdd);
    let bb = b.add_cell("b", left, 2, 2, vdd);
    let s1 = b.add_cell("s1", left, 2, 2, vdd);
    let s2 = b.add_cell("s2", left, 2, 2, vdd);
    let s3 = b.add_cell("s3", left, 2, 2, vdd);
    let s4 = b.add_cell("s4", left, 2, 2, vdd);
    let p = b.add_cell("p", right, 2, 2, vdd);
    let q = b.add_cell("q", right, 2, 2, vdd);
    let m: Vec<_> = (0..4)
        .map(|i| b.add_cell(format!("m{i}"), right, 2, 2, vdd))
        .collect();

    // Three pins each on a and b (one per net endpoint, two floating):
    // enough to overflow a window when the two cells crowd together.
    b.add_pin(a, "a0", Some(n0), 0, 0);
    b.add_pin(a, "a1", None, 1, 0);
    b.add_pin(a, "a2", None, 0, 1);
    b.add_pin(bb, "b0", Some(n0), 0, 0);
    b.add_pin(bb, "b1", None, 1, 0);
    b.add_pin(bb, "b2", None, 0, 1);
    b.add_pin(p, "p0", Some(n1), 0, 0);
    b.add_pin(q, "q0", Some(n1), 0, 0);

    b.add_symmetry(SymmetryGroup {
        name: "sym".into(),
        axis: SymmetryAxis::Vertical,
        pairs: vec![
            SymmetryPair::mirrored(s1, s2),
            SymmetryPair::mirrored(s3, s4),
        ],
        share_axis_with: None,
    });
    b.add_array(ams_netlist::ArrayConstraint {
        name: "arr".into(),
        cells: m.clone(),
        pattern: ams_netlist::ArrayPattern::Dense,
    });
    let design = b.build().expect("fixture design validates");

    let scale = ScaleInfo::compute(&design, &PlacerConfig::fast());
    assert_eq!((scale.unit_w, scale.unit_h), (2, 2), "all cells are 2x2");

    // left region holds a, b and the symmetry pairs (shared axis 2a = 12);
    // right region holds p, q and the dense array block.
    let cells = vec![
        Rect::new(0, 0, 2, 2),  // a
        Rect::new(4, 0, 2, 2),  // b
        Rect::new(2, 4, 2, 2),  // s1   (2 + 2 + 8 = 12)
        Rect::new(8, 4, 2, 2),  // s2
        Rect::new(4, 6, 2, 2),  // s3   (4 + 2 + 6 = 12)
        Rect::new(6, 6, 2, 2),  // s4
        Rect::new(16, 0, 2, 2), // p
        Rect::new(20, 0, 2, 2), // q
        Rect::new(16, 4, 2, 2), // m0
        Rect::new(18, 4, 2, 2), // m1
        Rect::new(16, 6, 2, 2), // m2
        Rect::new(18, 6, 2, 2), // m3
    ];
    let regions = vec![Rect::new(0, 0, 12, 8), Rect::new(16, 0, 8, 8)];
    let die = Rect::new(0, 0, 24, 12);
    let placement = placement_from_rects(cells, regions, die, &scale);
    placement.verify(&design).expect("fixture starts legal");
    (design, placement)
}

#[test]
fn off_grid_x_is_exactly_grid_alignment() {
    let (design, mut p) = fixture();
    p.cells[1].x += 1; // b to (5, 0): off the 2x2 grid, clear of everything
    assert_exactly(&p, &design, ViolationKind::GridAlignment);
}

#[test]
fn off_grid_y_is_exactly_grid_alignment() {
    let (design, mut p) = fixture();
    p.cells[7].y += 1; // q to (20, 1)
    assert_exactly(&p, &design, ViolationKind::GridAlignment);
}

#[test]
fn region_escape_is_exactly_containment() {
    let (design, mut p) = fixture();
    // b to (12, 0): grid-aligned, inside the die, outside region "left",
    // and overlap is only checked between same-region cells.
    p.cells[1].x = 12;
    assert_exactly(&p, &design, ViolationKind::Containment);
}

#[test]
fn corrupted_width_is_exactly_containment() {
    let (design, mut p) = fixture();
    p.cells[1].w = 4; // b no longer matches its library dimensions
    assert_exactly(&p, &design, ViolationKind::Containment);
}

#[test]
fn stacked_cells_are_exactly_overlap() {
    let (design, mut p) = fixture();
    p.cells[1].x = p.cells[0].x; // b onto a
    p.cells[1].y = p.cells[0].y;
    assert_exactly(&p, &design, ViolationKind::Overlap);
}

#[test]
fn colliding_regions_are_exactly_region_separation() {
    let (design, mut p) = fixture();
    // Translate region "right" and everything in it 6 units left: the
    // region rectangles now overlap, but every cell stays inside its own
    // (moved) region and cross-region cells are exempt from overlap.
    p.regions[1].x -= 6;
    for i in 6..12 {
        p.cells[i].x -= 6;
    }
    assert_exactly(&p, &design, ViolationKind::RegionSeparation);
}

#[test]
fn mirror_pair_row_break_is_exactly_symmetry() {
    let (design, mut p) = fixture();
    p.cells[3].y = 6; // s2 leaves s1's row (touches s4 but never overlaps)
    assert_exactly(&p, &design, ViolationKind::Symmetry);
}

#[test]
fn mirror_pair_axis_break_is_exactly_symmetry() {
    let (design, mut p) = fixture();
    p.cells[5].x = 8; // s4: pair axis becomes (4+2+8)/2 != 6
    assert_exactly(&p, &design, ViolationKind::Symmetry);
}

#[test]
fn spread_array_is_exactly_array() {
    let (design, mut p) = fixture();
    p.cells[11].x = 20; // m3 breaks the dense 2x2 block's bbox
    assert_exactly(&p, &design, ViolationKind::Array);
}

#[test]
fn interleaved_power_bands_are_exactly_power_abutment() {
    // Needs two rails; a dedicated three-cell column keeps it pure.
    let mut b = DesignBuilder::new("pwr_mut");
    let r = b.add_region("col", 0.9);
    let vdd = b.add_power_group("VDD");
    let vddl = b.add_power_group("VDDL");
    let n = b.add_net("n", 1);
    let va = b.add_cell("va", r, 2, 2, vdd);
    let vb = b.add_cell("vb", r, 2, 2, vddl);
    let vc = b.add_cell("vc", r, 2, 2, vdd);
    b.add_pin(va, "p", Some(n), 0, 0);
    b.add_pin(vb, "p", Some(n), 0, 0);
    b.add_pin(vc, "p", Some(n), 0, 0);
    let design = b.build().expect("validates");
    let scale = ScaleInfo::compute(&design, &PlacerConfig::fast());

    // Legal: the VDD cells stacked below the VDDL cell.
    let cells = vec![
        Rect::new(0, 0, 2, 2), // va (VDD)
        Rect::new(0, 4, 2, 2), // vb (VDDL)
        Rect::new(0, 2, 2, 2), // vc (VDD)
    ];
    let regions = vec![Rect::new(0, 0, 2, 6)];
    let p = placement_from_rects(cells, regions, Rect::new(0, 0, 4, 8), &scale);
    p.verify(&design).expect("banded column starts legal");

    // Swap vb and vc: VDDL now sits inside the VDD band.
    let mut bad = p.clone();
    bad.cells[1].y = 2;
    bad.cells[2].y = 4;
    assert_exactly(&bad, &design, ViolationKind::PowerAbutment);
}

#[test]
fn crowded_window_is_exactly_pin_density() {
    let (design, mut p) = fixture();
    // Record the enforced check: 2x1-site windows (4x2 grid units) and a
    // threshold of one 3-pin cell per window. The legal fixture keeps a
    // and b two sites apart, so no window sees both.
    p.pin_density = Some(PinDensityCheck {
        beta_x: 2,
        beta_y: 1,
        lambda: 3,
        stride_x: 1,
        stride_y: 1,
        overrides: Vec::new(),
    });
    p.verify(&design).expect("spread-out pins start legal");
    // One site move: b abuts a and the window at (0, 0) now sees 6 pins.
    p.cells[1].x = 2;
    assert_exactly(&p, &design, ViolationKind::PinDensity);
}

#[test]
fn a_closure_tightened_window_is_exactly_pin_density() {
    let (design, mut p) = fixture();
    // a's three pins fill the window at scaled origin (0, 0) up to the
    // global threshold, and no window holds more.
    let check = PinDensityCheck {
        beta_x: 2,
        beta_y: 1,
        lambda: 3,
        stride_x: 1,
        stride_y: 1,
        overrides: Vec::new(),
    };
    p.pin_density = Some(check.clone());
    p.verify(&design)
        .expect("every window is under the global λ");
    // A routing-closure override tightens that one window to two pins:
    // the untouched placement now breaks it, under the global λ still.
    p.pin_density = Some(PinDensityCheck {
        overrides: vec![((0, 0), 2)],
        ..check
    });
    assert_exactly(&p, &design, ViolationKind::PinDensity);
}

/// The sweep: every cell, every one-site and one-unit nudge. A mutated
/// placement may still be legal (moving into free space is fine), but it
/// must never crash, and an off-grid nudge must always be caught.
#[test]
fn single_coordinate_sweep_never_passes_an_off_grid_cell() {
    let (design, base) = fixture();
    sweep(&design, &base);
}

/// The same sweep over a known-good placement of the paper's BUF
/// benchmark — the realistic constraint mix (symmetry hierarchy, power
/// bands, pin density) rather than the surgical fixture. Placing BUF
/// takes minutes in debug, so this runs in the nightly release job.
#[test]
#[ignore = "minutes in debug; nightly release job runs it: cargo test --release -- --ignored"]
fn buf_single_coordinate_sweep_never_passes_an_off_grid_cell() {
    use ams_place::Placer;
    let design = ams_netlist::benchmarks::buf();
    let placement = Placer::builder(&design)
        .config(PlacerConfig::fast())
        .build()
        .expect("encode")
        .place()
        .expect("BUF places");
    placement.verify(&design).expect("starts legal");
    sweep(&design, &placement);
}

fn sweep(design: &Design, base: &Placement) {
    let (uw, uh) = base.units;
    for i in 0..base.cells.len() {
        let r = base.cells[i];
        let mut candidates = vec![
            (r.x + uw, r.y),
            (r.x, r.y + uh),
            (r.x + 1, r.y), // off-grid
            (r.x, r.y + 1), // off-grid
        ];
        if r.x >= uw {
            candidates.push((r.x - uw, r.y));
        }
        if r.y >= uh {
            candidates.push((r.x, r.y - uh));
        }
        for (x, y) in candidates {
            let mut p = base.clone();
            p.cells[i].x = x;
            p.cells[i].y = y;
            let off_grid = !x.is_multiple_of(uw) || !y.is_multiple_of(uh);
            match p.verify(design) {
                Ok(()) => assert!(!off_grid, "off-grid cell {i} at ({x}, {y}) passed"),
                Err(violations) => {
                    assert!(!violations.is_empty());
                    if off_grid {
                        assert!(
                            violations
                                .iter()
                                .any(|v| v.kind == ViolationKind::GridAlignment),
                            "off-grid cell {i} flagged, but not for alignment: {violations:?}"
                        );
                    }
                }
            }
        }
    }
}
