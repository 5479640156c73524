//! Warm solver reuse ([`Placer::rebase`]): a request delta that keeps the
//! variable allocation re-solves on the live solver — learnt clauses carry
//! over — while structural deltas fall back to a cold build. All tests construct placers via [`Placer::new`] with
//! `threads: 1` and no deadline, so they are bit-for-bit deterministic
//! and immune to the `AMSPLACE_*` environment variables.

use ams_netlist::benchmarks::{self, SyntheticParams};
use ams_place::api::JobOptions;
use ams_place::scenario::scenario;
use ams_place::{ConstraintFamily, PinDensityConfig, Placer, PlacerConfig, WarmReuse};

/// Small multi-region synthetic: enough cells and nets that the
/// optimization rounds generate learnt clauses worth carrying, small
/// enough that each solve stays in test-suite territory.
fn design() -> ams_netlist::Design {
    benchmarks::synthetic(SyntheticParams {
        regions: 2,
        cells_per_region: 6,
        nets: 10,
        net_degree: 3,
        symmetry_pairs: 1,
        ..Default::default()
    })
}

/// Deterministic reusable configuration with an explicit λ_th so the
/// follow-up requests can move it, and tight budgets to keep each solve
/// quick.
fn reusable_config(lambda: u64) -> PlacerConfig {
    let mut cfg = PlacerConfig::fast();
    cfg.solver.reusable = true;
    cfg.optimize.k_iter = 1;
    cfg.optimize.conflict_budget = Some(20_000);
    cfg.optimize.first_conflict_budget = Some(200_000);
    cfg.pin_density = Some(PinDensityConfig {
        lambda: Some(lambda),
        ..PinDensityConfig::default()
    });
    cfg
}

#[test]
fn lambda_only_change_relowers_just_pin_density() {
    let d = design();
    let mut placer = Placer::new(&d, reusable_config(14)).expect("encode");
    let first = placer.place_mut().expect("cold solve");
    first.verify(&d).expect("cold placement is legal");
    assert!(first.stats.warm.is_none(), "cold job must not report warm");

    // λ_th-only delta: the pin-density family's at-most bounds change,
    // nothing else does.
    let reuse = placer.rebase(reusable_config(16)).expect("rebase");
    let WarmReuse::Relowered {
        families,
        learnts_carried,
    } = &reuse
    else {
        panic!("expected Relowered, got {reuse:?}");
    };
    assert_eq!(families, &[ConstraintFamily::PinDensity]);
    assert!(
        *learnts_carried > 0,
        "the first job's search must leave learnt clauses to carry"
    );

    let second = placer.place_mut().expect("warm solve");
    second.verify(&d).expect("warm placement is legal");
    let warm = second.stats.warm.as_ref().expect("warm stats attached");
    assert_eq!(warm.relowered, vec![ConstraintFamily::PinDensity]);
    assert_eq!(warm.learnts_carried, *learnts_carried);
}

#[test]
fn lambda_rebase_relowers_only_the_active_windows() {
    let d = design();
    let pin_density_clauses = |p: &ams_place::Placement| {
        p.stats
            .families
            .iter()
            .find(|fs| fs.family == ConstraintFamily::PinDensity)
            .map(|fs| fs.clauses)
    };

    // A generous threshold: no model breaks a window, so nothing is
    // lowered, and a rebase to another threshold lowers nothing either.
    let mut placer = Placer::new(&d, reusable_config(40)).expect("encode");
    placer.place_mut().expect("cold solve");
    assert_eq!(placer.active_windows().count(), 0);
    let reuse = placer.rebase(reusable_config(41)).expect("rebase");
    assert!(matches!(reuse, WarmReuse::Relowered { .. }), "{reuse:?}");
    let warm = placer.place_mut().expect("warm solve");
    assert_eq!(warm.stats.window_resolves, 0);
    assert_eq!(pin_density_clauses(&warm), Some(0));

    // A tight one: the cold solve activates windows, and the rebase keeps
    // exactly that set, re-lowered at the new bound.
    let mut placer = Placer::new(&d, reusable_config(9)).expect("encode");
    let cold = placer.place_mut().expect("cold solve");
    cold.verify(&d).expect("cold placement is legal");
    let active: Vec<(u32, u32)> = placer.active_windows().collect();
    assert!(!active.is_empty(), "λ_th = 9 must break a window");
    placer.rebase(reusable_config(10)).expect("rebase");
    assert_eq!(placer.active_windows().collect::<Vec<_>>(), active);
    let warm = placer.place_mut().expect("warm solve");
    warm.verify(&d).expect("warm placement is legal");
    assert!(warm.stats.active_windows[0] >= active.len());
    assert!(pin_density_clauses(&warm) > Some(0));
}

#[test]
fn identical_rebase_keeps_everything_lowered() {
    let d = design();
    let mut placer = Placer::new(&d, reusable_config(14)).expect("encode");
    placer.place_mut().expect("cold solve");

    let reuse = placer.rebase(reusable_config(14)).expect("rebase");
    assert_eq!(reuse, WarmReuse::Identical);

    let again = placer.place_mut().expect("warm solve");
    again.verify(&d).expect("warm placement is legal");
    let warm = again.stats.warm.as_ref().expect("warm stats attached");
    assert!(warm.relowered.is_empty(), "nothing was re-lowered");
}

#[test]
fn structural_deltas_refuse_warm_reuse() {
    let d = design();
    let mut placer = Placer::new(&d, reusable_config(14)).expect("encode");
    placer.place_mut().expect("cold solve");

    // Die sizing changes the scaled geometry (coordinate bit-widths).
    let mut wider = reusable_config(14);
    wider.die_slack = 2.0;
    assert_eq!(placer.rebase(wider).expect("rebase"), WarmReuse::Structural);

    // A non-reusable placer never rebases, even on an identical config.
    let mut one_shot = Placer::new(&d, PlacerConfig::fast()).expect("encode");
    assert_eq!(
        one_shot.rebase(PlacerConfig::fast()).expect("rebase"),
        WarmReuse::Structural
    );

    // The refused placer is still usable for another solve.
    let placement = placer.place_mut().expect("solve after refusals");
    placement.verify(&d).expect("placement is legal");
}

#[test]
fn softened_array_extensions_relower_the_keepouts() {
    use ams_netlist::{
        ArrayConstraint, ArrayPattern, DesignBuilder, ExtensionConstraint, ExtensionTarget,
    };
    // A dense 4-cell array with a 2-grid extension margin, and one
    // non-member in its region that the keepout holds clear of the box.
    let mut b = DesignBuilder::new("keepout");
    let r = b.add_region("core", 0.5);
    let pg = b.add_power_group("VDD");
    let n = b.add_net("n", 1);
    let cells: Vec<_> = (0..5)
        .map(|i| b.add_cell(format!("c{i}"), r, 2, 2, pg))
        .collect();
    b.add_pin(cells[0], "p", Some(n), 0, 0);
    b.add_pin(cells[4], "p", Some(n), 0, 0);
    let array = b.add_array(ArrayConstraint {
        name: "a".into(),
        cells: cells[..4].to_vec(),
        pattern: ArrayPattern::Dense,
    });
    b.add_extension(ExtensionConstraint {
        target: ExtensionTarget::Array(array),
        left: 2,
        right: 2,
        bottom: 2,
        top: 2,
    });
    let d = b.build().expect("valid");
    let mut placer = Placer::new(&d, reusable_config(14)).expect("encode");

    // The recovery ladder's extension softening shrinks the keepout
    // margins, so the array family re-lowers.
    let mut softened = reusable_config(14);
    softened.extension_scale = 0.0;
    assert_eq!(
        placer.rebase(softened).expect("rebase"),
        WarmReuse::Relowered {
            families: vec![ConstraintFamily::Arrays],
            learnts_carried: 0,
        }
    );
}

#[test]
fn a_warm_job_starts_from_the_previous_best_model() {
    // Corpus scenario 325 under `--quick` breaks no window at these
    // thresholds, so a λ_th change leaves the lowered CNF as it was and
    // the previous job's best placement stays legal. Every warm job's
    // first model is that placement, also after a job whose last round
    // found nothing better and left the solver's phases elsewhere.
    let s = scenario(325);
    let config = |lambda_th| {
        let mut config = JobOptions {
            quick: true,
            threads: Some(1),
            lambda_th,
            ..JobOptions::default()
        }
        .to_config();
        config.solver.reusable = true;
        config
    };
    let last = |p: &ams_place::Placement| *p.stats.hpwl_trace.last().expect("a model");
    let mut placer = Placer::new(&s.design, config(None)).expect("encode");
    let mut best = last(&placer.place_mut().expect("cold solve"));
    let mut unimproved = 0;
    for lambda in [43, 40, 47, 41] {
        placer.rebase(config(Some(lambda))).expect("rebase");
        let p = placer.place_mut().expect("warm solve");
        p.verify(&s.design).expect("warm placement is legal");
        assert_eq!(placer.active_windows().count(), 0);
        assert_eq!(
            p.stats.hpwl_trace[0], best,
            "λ_th = {lambda}: {:?}",
            p.stats.hpwl_trace
        );
        unimproved += usize::from(p.stats.hpwl_trace.len() == 1);
        best = last(&p);
    }
    assert!(unimproved > 0, "some job must end on a round that failed");
}
