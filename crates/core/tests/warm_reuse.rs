//! Warm solver reuse ([`Placer::rebase`]): a request delta that touches
//! only content-relowerable constraint families re-solves on the live
//! solver — learnt clauses carry over — while structural deltas fall back
//! to a cold build. All tests construct placers via [`Placer::new`] with
//! `threads: 1` and no deadline, so they are bit-for-bit deterministic
//! and immune to the `AMSPLACE_*` environment variables.

use ams_netlist::benchmarks::{self, SyntheticParams};
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

    // Dropping the symmetry family is not content-relowerable.
    let mut no_sym = reusable_config(14);
    no_sym.toggles.symmetry = false;
    assert_eq!(
        placer.rebase(no_sym).expect("rebase"),
        WarmReuse::Structural
    );

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
