//! Shape checks for the paper's experiments: "who wins, and in which
//! direction" assertions that must hold on every run. These use reduced
//! optimization budgets so they are runnable inside the normal test suite;
//! the `ams-bench` `report` binary regenerates the full tables.

use finfet_ams_place::netlist::benchmarks;
use finfet_ams_place::place::{baseline, Placer, PlacerConfig};
use finfet_ams_place::route::{route, RouterConfig};
use finfet_ams_place::sim::{analyze_buf, extract, Tech, VcoModel};

fn quick_cfg() -> PlacerConfig {
    let mut c = PlacerConfig::default();
    c.optimize.k_iter = 1;
    c.optimize.conflict_budget = Some(20_000);
    c
}

#[test]
fn table2_statistics_match_the_paper() {
    let buf = benchmarks::buf();
    assert_eq!(
        (
            buf.regions().len(),
            buf.cells().len(),
            buf.nets().iter().filter(|n| !n.virtual_net).count()
        ),
        (1, 42, 66)
    );
    let vco = benchmarks::vco();
    assert_eq!(
        (
            vco.regions().len(),
            vco.cells().len(),
            vco.nets().iter().filter(|n| !n.virtual_net).count()
        ),
        (2, 110, 71)
    );
}

#[test]
fn table3_and_table4_shapes_buf() {
    // One pair of quick placements feeds both the Table III geometry checks
    // and the Table IV timing-variability checks.
    let w_design = benchmarks::buf();
    let w = Placer::new(&w_design, quick_cfg())
        .expect("encode")
        .place()
        .expect("place w/");
    w.verify(&w_design).expect("legal w/");

    let wo_design = benchmarks::buf().without_constraints();
    let wo = Placer::new(&wo_design, quick_cfg())
        .expect("encode")
        .place()
        .expect("place w/o");
    wo.verify(&wo_design).expect("legal w/o");

    let manual = baseline::manual_surrogate(
        &w_design,
        baseline::BaselineConfig {
            utilization: 0.40,
            aspect_ratio: 1.0,
        },
    );

    // Table III: both automated arms share the Eq. 2 die; manual is larger.
    assert_eq!(w.area_grid(), wo.area_grid());
    assert!(
        manual.area_grid() > w.area_grid(),
        "manual {} must exceed automated {}",
        manual.area_grid(),
        w.area_grid()
    );

    // Routability: both arms must route without meaningful overflow.
    let rw = route(&w_design, &w, RouterConfig::default());
    let rwo = route(&wo_design, &wo, RouterConfig::default());
    assert_eq!(rw.overflow, 0);
    assert_eq!(rwo.overflow, 0);

    // Table IV: timing must be sane on both arms; variability must not be
    // meaningfully worse with constraints (the mirrored tree equalizes the
    // per-lane wiring).
    let nets_w = extract(&w_design, &w, &rw, &Tech::n5());
    let rep_w = analyze_buf(&w_design, &nets_w, &Tech::n5());
    let nets_wo = extract(&wo_design, &wo, &rwo, &Tech::n5());
    let rep_wo = analyze_buf(&wo_design, &nets_wo, &Tech::n5());

    assert!(rep_w.total_avg_ps > 0.0 && rep_wo.total_avg_ps > 0.0);
    assert!(
        rep_w.total_sd_ps <= rep_wo.total_sd_ps * 1.25,
        "constrained SD {} should not exceed unconstrained {} meaningfully",
        rep_w.total_sd_ps,
        rep_wo.total_sd_ps
    );
    for s in rep_w.stages.iter().chain(rep_wo.stages.iter()) {
        assert!(s.rise_avg_ps > 0.0 && s.fall_avg_ps > 0.0);
    }
}

#[test]
#[ignore = "several minutes: full VCO arms; run with --ignored or use the report binary"]
fn table6_shape_vco() {
    let w_design = benchmarks::vco();
    let w = Placer::new(&w_design, quick_cfg())
        .expect("encode")
        .place()
        .expect("place w/");
    let rw = route(&w_design, &w, RouterConfig::default());
    let nets_w = extract(&w_design, &w, &rw, &Tech::n5());
    let model_w = VcoModel::from_layout(&w_design, &nets_w, Tech::n5());

    let manual = baseline::manual_surrogate(
        &w_design,
        baseline::BaselineConfig {
            utilization: 0.68,
            aspect_ratio: 1.3,
        },
    );
    let rm = route(&w_design, &manual, RouterConfig::default());
    let nets_m = extract(&w_design, &manual, &rm, &Tech::n5());
    let model_m = VcoModel::from_layout(&w_design, &nets_m, Tech::n5());

    for v in [0.65, 0.75, 0.90] {
        let pw = model_w.evaluate(v, 3);
        let pm = model_m.evaluate(v, 3);
        // The automated layout has shorter phase routes → faster.
        assert!(
            pw.frequency_ghz >= pm.frequency_ghz,
            "at {v} V: w/ {} GHz vs manual {} GHz",
            pw.frequency_ghz,
            pm.frequency_ghz
        );
    }
}
