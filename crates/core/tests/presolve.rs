//! Integration tests for the static presolve analyzer: the zero-conflict
//! infeasibility fast path, domain-pruned encodings, and the lowering
//! well-formedness validator ([`Placer::validate_lowering`]).
//!
//! CI runs this file explicitly (`cargo test -p ams-place --test presolve`)
//! so the validator is exercised as a release-mode check, not only under
//! the `debug_assertions` hooks inside [`Placer`].

use ams_netlist::benchmarks::{self, SyntheticParams};
use ams_place::{
    ConstraintFamily, PinDensityConfig, PlaceError, PlaceOutcome, Placer, PlacerConfig, Relaxation,
};

fn zero_lambda_config() -> PlacerConfig {
    let mut cfg = PlacerConfig::fast();
    cfg.pin_density = Some(PinDensityConfig {
        lambda: Some(0),
        ..PinDensityConfig::default()
    });
    cfg
}

#[test]
fn presolve_rejects_zero_lambda_without_a_cdcl_run() {
    // λ_th = 0 forbids every pin. The capacity pass proves that by
    // counting — the returned Infeasible must carry presolve provenance
    // and *no* DRAT certificate, because no solver ever ran.
    let d = benchmarks::buf();
    let mut cfg = zero_lambda_config();
    cfg.recovery.max_rungs = 0;
    let err = Placer::builder(&d)
        .config(cfg)
        .build()
        .expect("presolve-solvable lint errors must not block encoding")
        .place()
        .expect_err("lambda 0 is infeasible");
    match err {
        PlaceError::Infeasible {
            conflict,
            provenance,
            certificate,
        } => {
            assert_eq!(conflict, vec![ConstraintFamily::PinDensity]);
            assert!(
                provenance
                    .iter()
                    .any(|l| l.contains("presolve capacity pass")),
                "provenance must cite the presolve proof: {provenance:?}"
            );
            assert!(
                certificate.is_none(),
                "the fast path returns before any solve, so no certificate"
            );
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
}

#[test]
fn presolve_verdicts_feed_the_recovery_ladder() {
    // With recovery on, the same counting proof is consumed by the ladder
    // exactly like a solver UNSAT: λ_th is raised and the rung re-lowers
    // on a live core that has solved nothing yet (zero learnt clauses).
    // (The small synthetic fixture keeps the post-raise solve cheap; BUF's
    // λ=0 fast path is pinned by the recovery-off test above.)
    let d = benchmarks::synthetic(SyntheticParams {
        cells_per_region: 6,
        nets: 6,
        symmetry_pairs: 1,
        ..Default::default()
    });
    let cfg = zero_lambda_config();
    let p = Placer::builder(&d)
        .config(cfg)
        .threads(1)
        .build()
        .expect("build succeeds")
        .place()
        .expect("the ladder recovers a zero-lambda design");
    p.verify(&d).expect("recovered placement is legal");
    match &p.stats.outcome {
        PlaceOutcome::Recovered { relaxations } => assert!(
            relaxations
                .iter()
                .any(|r| matches!(r, Relaxation::RaisePinDensity { from: 0, to } if *to > 0)),
            "the ladder must raise λ_th from 0: {relaxations:?}"
        ),
        other => panic!("expected a recovered outcome, got {other:?}"),
    }
    let pd_rung = p
        .stats
        .rungs
        .iter()
        .find(|r| matches!(r.relaxation, Relaxation::RaisePinDensity { .. }))
        .expect("a λ_th rung was recorded");
    assert_eq!(
        pd_rung.learnts_carried, 0,
        "the infeasibility was proved statically — no CDCL conflicts ran"
    );
    let ps = p.stats.presolve.as_ref().expect("presolve ran");
    assert!(ps.ran);
    assert_eq!(ps.verdict, "infeasible");
}

#[test]
fn domain_pruning_shrinks_the_encoding() {
    for design in [benchmarks::buf(), benchmarks::vco()] {
        let pruned = Placer::new(&design, PlacerConfig::default()).expect("pruned build");
        let mut cfg = PlacerConfig::default();
        cfg.presolve.enabled = false;
        let full = Placer::new(&design, cfg).expect("unpruned build");
        assert!(
            pruned.sat_vars() < full.sat_vars(),
            "{}: pruning must drop CNF variables ({} vs {})",
            design.name(),
            pruned.sat_vars(),
            full.sat_vars()
        );
        let ps = pruned.presolve_stats().expect("presolve ran");
        assert!(ps.vars_saved_bits > 0);
    }
}

fn assert_pruning_agrees(design: &ams_netlist::Design, mut cfg: PlacerConfig) {
    // Soundness, end to end: with presolve (and so domain pruning) on and
    // off, the placer must reach the same verdict and produce verify-clean
    // placements.
    for pruning in [true, false] {
        cfg.presolve.enabled = pruning;
        let p = Placer::builder(design)
            .config(cfg.clone())
            .threads(1)
            .build()
            .expect("build succeeds")
            .place()
            .unwrap_or_else(|e| panic!("{} pruning={pruning}: {e:?}", design.name()));
        p.verify(design).expect("placement is legal");
    }
}

#[test]
fn pruned_and_unpruned_paths_agree() {
    for seed in [3, 7] {
        let design = benchmarks::synthetic(SyntheticParams {
            cells_per_region: 8,
            nets: 10,
            symmetry_pairs: 1,
            seed,
            ..Default::default()
        });
        assert_pruning_agrees(&design, PlacerConfig::fast());
    }
}

#[test]
#[ignore = "minutes in debug; nightly release job runs it: cargo test --release -- --ignored"]
fn pruned_and_unpruned_benchmarks_agree() {
    let mut quick = PlacerConfig::default();
    quick.optimize.k_iter = 1;
    quick.optimize.conflict_budget = Some(20_000);
    for design in [benchmarks::buf(), benchmarks::vco()] {
        assert_pruning_agrees(&design, quick.clone());
    }
}

#[test]
fn validate_lowering_accepts_a_fresh_encoding() {
    for design in [benchmarks::buf(), benchmarks::vco()] {
        let p = Placer::new(&design, PlacerConfig::default()).expect("build succeeds");
        assert_eq!(p.validate_lowering(), Ok(()));
    }
}

#[test]
fn validate_lowering_accepts_certified_and_presolve_off_encodings() {
    let design = benchmarks::buf();
    let mut certify = PlacerConfig::default();
    certify.solver.certify = true;
    let p = Placer::new(&design, certify).expect("certify build");
    assert_eq!(p.validate_lowering(), Ok(()));

    let mut off = PlacerConfig::default();
    off.presolve.enabled = false;
    let p = Placer::new(&design, off).expect("presolve-off build");
    assert_eq!(p.validate_lowering(), Ok(()));
}
