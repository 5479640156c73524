//! End-to-end certified solving: infeasible runs yield DRAT certificates
//! the in-repo checker validates, and satisfiable certify-mode runs
//! re-verify their model against the legality oracle.

use ams_netlist::benchmarks::{synthetic, SyntheticParams};
use ams_place::{drat, PinDensityConfig, PlaceError, Placer, PlacerConfig};

fn mini() -> ams_netlist::Design {
    synthetic(SyntheticParams {
        regions: 1,
        cells_per_region: 3,
        nets: 3,
        net_degree: 2,
        symmetry_pairs: 1,
        cluster_size: 0,
        seed: 1,
    })
}

/// λ_th = 0 forbids every pin everywhere — unsatisfiable by construction.
fn impossible_density_config() -> PlacerConfig {
    let mut cfg = PlacerConfig::fast();
    cfg.pin_density = Some(PinDensityConfig {
        lambda: Some(0),
        ..PinDensityConfig::default()
    });
    cfg.recovery.max_rungs = 0;
    cfg.optimize.k_iter = 1;
    cfg
}

#[test]
fn infeasible_run_produces_a_checkable_unsat_certificate() {
    let design = mini();
    let placer = Placer::builder(&design)
        .config(impossible_density_config())
        .certify(true)
        .build()
        .expect("certify mode lets the density-infeasible lint through");
    match placer.place() {
        Err(PlaceError::Infeasible { certificate, .. }) => {
            let proof = certificate.expect("certify mode captures a proof");
            let stats = drat::check(&proof).expect("certificate must be RUP-checkable");
            assert!(!proof.clauses.is_empty());
            assert!(stats.verified_additions > 0 || stats.core_clauses > 0);
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
}

#[test]
fn portfolio_infeasible_run_is_also_certified() {
    let design = mini();
    let placer = Placer::builder(&design)
        .config(impossible_density_config())
        .certify(true)
        .threads(4)
        .build()
        .expect("valid config");
    match placer.place() {
        Err(PlaceError::Infeasible { certificate, .. }) => {
            let proof = certificate.expect("portfolio certify mode captures a proof");
            drat::check(&proof).expect("interleaved portfolio proof must check");
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
}

#[test]
fn feasible_certify_run_reports_a_clean_reverification() {
    let design = mini();
    let mut cfg = PlacerConfig::fast();
    cfg.pin_density = None;
    cfg.optimize.k_iter = 1;
    let placement = Placer::builder(&design)
        .config(cfg)
        .certify(true)
        .build()
        .expect("valid config")
        .place()
        .expect("mini design places under roomy sizing");
    let report = placement.stats.certify.expect("certify fills the report");
    assert_eq!(report.model_violations, 0);
    assert!(report.cnf_clauses > 0);
}

#[test]
fn certify_off_leaves_no_trace() {
    let design = mini();
    let mut cfg = PlacerConfig::fast();
    cfg.pin_density = None;
    cfg.optimize.k_iter = 1;
    let placement = Placer::builder(&design)
        .config(cfg)
        .build()
        .expect("valid config")
        .place()
        .expect("places");
    assert!(placement.stats.certify.is_none());
    let infeasible = Placer::builder(&design)
        .config(impossible_density_config())
        .build();
    // Without certify, the lint rejects λ_th = 0 before solving (or the
    // disabled ladder fails) — either way, no certificate appears.
    if let Err(PlaceError::Infeasible { certificate, .. }) = infeasible.and_then(|p| p.place()) {
        assert!(certificate.is_none());
    }
}
