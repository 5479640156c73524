//! Differential fuzzing: three independent deciders must agree.
//!
//! Each seeded round draws a random mini-design (one region, 2–4 cells)
//! and a random sizing, then decides feasibility three ways:
//!
//! 1. the SMT placer, sequential (`threads = 1`),
//! 2. the SMT placer over the parallel portfolio (`threads = 4`),
//! 3. [`ams_place::brute::reference_place`] — exhaustive enumeration of
//!    the same discrete space with [`Placement::verify`] as the only
//!    legality arbiter.
//!
//! Every SAT model must pass the oracle, every UNSAT verdict must come
//! with a DRAT certificate the in-repo checker accepts, and the three
//! verdicts must never disagree. A fourth arm checks presolve soundness:
//! the static analyzer must never declare a reference-placeable design
//! infeasible, and presolve's domain pruning must never change the plain
//! placer's verdict or the legality of its models. A fifth arm turns pin
//! density on with λ_th at or just above the largest per-cell pin count,
//! so windows bind and the placer's lazy window loop runs; the reference
//! then judges every window through the same `Placement::verify`.
//! `differential_mini_designs_agree` is the
//! always-on subset; the fifty-design acceptance run is `#[ignore]`d into
//! the release-mode scheduled job (see `.github/workflows/nightly.yml`)
//! and the release step of CI.

use ams_netlist::benchmarks::{synthetic, SyntheticParams};
use ams_netlist::rng::SplitMix64;
use ams_place::analysis::presolve;
use ams_place::brute::{reference_place, BruteLimits, ReferenceVerdict};
use ams_place::{drat, PinDensityConfig, PlaceError, Placer, PlacerConfig};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Sat,
    Unsat,
}

/// Decides one instance with the SMT placer in certify mode, enforcing
/// the per-verdict obligations (oracle-legal model / checkable proof).
fn smt_verdict(
    design: &ams_netlist::Design,
    cfg: &PlacerConfig,
    threads: usize,
    label: &str,
) -> Verdict {
    smt_run(design, cfg, threads, label).0
}

/// [`smt_verdict`], plus the pin-density windows a feasible run lowered
/// (0 for an infeasible one).
fn smt_run(
    design: &ams_netlist::Design,
    cfg: &PlacerConfig,
    threads: usize,
    label: &str,
) -> (Verdict, usize) {
    let mut builder = Placer::builder(design).config(cfg.clone()).certify(true);
    if threads > 1 {
        builder = builder.threads(threads);
    }
    let placer = builder
        .build()
        .unwrap_or_else(|e| panic!("{label}: config rejected: {e}"));
    match placer.place() {
        Ok(placement) => {
            if let Err(violations) = placement.verify(design) {
                panic!("{label}: illegal model: {violations:?}");
            }
            let report = placement
                .stats
                .certify
                .expect("certify mode re-verifies the model");
            assert_eq!(report.model_violations, 0, "{label}: certify disagrees");
            let windows = placement.stats.active_windows.last().copied();
            (Verdict::Sat, windows.unwrap_or(0))
        }
        Err(PlaceError::Infeasible { certificate, .. }) => {
            let proof = certificate.unwrap_or_else(|| panic!("{label}: UNSAT without proof"));
            let stats = drat::check(&proof)
                .unwrap_or_else(|e| panic!("{label}: certificate rejected: {e}"));
            assert!(stats.additions > 0 || !proof.clauses.is_empty());
            (Verdict::Unsat, 0)
        }
        // The pre-solve linter only rejects provably-broken inputs, so it
        // counts as an (uncertified) UNSAT verdict; the reference placer
        // cross-checks it below like any other disagreement.
        Err(PlaceError::Lint(_)) => (Verdict::Unsat, 0),
        Err(e) => panic!("{label}: unexpected failure: {e}"),
    }
}

/// Decides one instance on the plain (non-certify) path with presolve,
/// and so domain pruning, forced on or off, for the presolve-soundness
/// arm: pruning may only remove values outside the feasible set, so the
/// verdict must match the unpruned run and the certified deciders exactly.
fn plain_verdict(
    design: &ams_netlist::Design,
    cfg: &PlacerConfig,
    pruning: bool,
    label: &str,
) -> Verdict {
    let mut cfg = cfg.clone();
    cfg.presolve.enabled = pruning;
    let placer = Placer::builder(design)
        .config(cfg)
        .build()
        .unwrap_or_else(|e| panic!("{label}: config rejected: {e}"));
    match placer.place() {
        Ok(placement) => {
            if let Err(violations) = placement.verify(design) {
                panic!("{label}: illegal model: {violations:?}");
            }
            Verdict::Sat
        }
        Err(PlaceError::Infeasible { .. }) | Err(PlaceError::Lint(_)) => Verdict::Unsat,
        Err(e) => panic!("{label}: unexpected failure: {e}"),
    }
}

struct FuzzStats {
    compared: usize,
    sat: usize,
    unsat: usize,
    skipped_too_large: usize,
    /// Designs the pin-density arm compared.
    density_compared: usize,
    /// Pin-density runs (either thread count) that lowered a window.
    density_activated: usize,
}

/// Runs seeded rounds until `target` designs received all three verdicts.
fn run_rounds(target: usize, base_seed: u64) -> FuzzStats {
    let mut stats = FuzzStats {
        compared: 0,
        sat: 0,
        unsat: 0,
        skipped_too_large: 0,
        density_compared: 0,
        density_activated: 0,
    };
    let limits = BruteLimits {
        max_leaves: 300_000,
        max_nodes: 4_000_000,
    };
    let mut round = 0u64;
    while stats.compared < target {
        round += 1;
        assert!(
            round < 4 * target as u64 + 64,
            "too many rounds skipped as TooLarge ({} of {round})",
            stats.skipped_too_large
        );
        let mut rng = SplitMix64::new(base_seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let params = SyntheticParams {
            regions: 1,
            cells_per_region: rng.range_u64(2, 4) as usize,
            nets: rng.range_u64(1, 4) as usize,
            net_degree: 2,
            symmetry_pairs: rng.range_u64(0, 1) as usize,
            cluster_size: 0,
            seed: rng.next_u64(),
        };
        let design = synthetic(params);

        let mut cfg = PlacerConfig::fast();
        cfg.pin_density = None;
        cfg.recovery.max_rungs = 0;
        cfg.optimize.k_iter = 1;
        cfg.optimize.conflict_budget = Some(50_000);
        if round.is_multiple_of(3) {
            // Harsh sizing profile: most of these are infeasible, which
            // exercises the UNSAT-certificate path of all three deciders.
            cfg.utilization = 0.95 + 0.05 * rng.next_f64();
            cfg.die_slack = 1.0;
            cfg.aspect_ratio = 2.0 + 2.0 * rng.next_f64();
        } else {
            cfg.utilization = 0.55 + 0.4 * rng.next_f64();
            cfg.die_slack = 1.0 + 0.25 * rng.next_f64();
            cfg.aspect_ratio = [0.5, 1.0, 2.0][rng.index(3)];
        }

        let reference = match reference_place(&design, &cfg, &limits) {
            ReferenceVerdict::Feasible(p) => {
                assert!(p.verify(&design).is_ok(), "round {round}: bad reference");
                Verdict::Sat
            }
            ReferenceVerdict::Infeasible => Verdict::Unsat,
            ReferenceVerdict::TooLarge => {
                stats.skipped_too_large += 1;
                continue;
            }
            ReferenceVerdict::Unsupported(what) => {
                panic!("round {round}: generator produced unsupported feature: {what}")
            }
        };

        // Presolve soundness, arm one: an infeasibility verdict from the
        // static analyzer is a *proof* — it must never fire on a design
        // the exhaustive reference can place.
        let report = presolve::presolve(&design, &cfg);
        if report.is_infeasible() {
            assert_eq!(
                reference,
                Verdict::Unsat,
                "round {round} ({}): presolve declared a placeable design infeasible: {}",
                design.name(),
                report.conflict().map(|c| c.message()).unwrap_or_default()
            );
        }

        let seq = smt_verdict(&design, &cfg, 1, &format!("round {round} threads=1"));
        let par = smt_verdict(&design, &cfg, 4, &format!("round {round} threads=4"));

        // Arm two: domain pruning must not flip the verdict of the plain
        // (non-certify) path in either direction, and pruned models must
        // still pass the legality oracle.
        let pruned = plain_verdict(&design, &cfg, true, &format!("round {round} pruned"));
        let unpruned = plain_verdict(&design, &cfg, false, &format!("round {round} unpruned"));
        assert_eq!(
            pruned,
            unpruned,
            "round {round} ({}): domain pruning changed the verdict",
            design.name()
        );
        assert_eq!(
            pruned,
            reference,
            "round {round} ({}): pruned placer vs exhaustive reference disagree",
            design.name()
        );

        assert_eq!(
            seq,
            par,
            "round {round} ({}): sequential vs portfolio disagree",
            design.name()
        );
        assert_eq!(
            seq,
            reference,
            "round {round} ({}): SMT placer vs exhaustive reference disagree",
            design.name()
        );
        stats.compared += 1;
        match seq {
            Verdict::Sat => stats.sat += 1,
            Verdict::Unsat => stats.unsat += 1,
        }

        // Arm five: pin density with windows that bind. One cell's pins
        // always fit; two pin-carrying cells in one window may not.
        let max_pins = design
            .cell_ids()
            .map(|c| design.pin_count(c) as u64)
            .max()
            .unwrap_or(0);
        let mut density = cfg.clone();
        density.pin_density = Some(PinDensityConfig {
            lambda: Some(max_pins + rng.range_u64(0, 1)),
            ..PinDensityConfig::default()
        });
        let reference = match reference_place(&design, &density, &limits) {
            ReferenceVerdict::Feasible(p) => {
                assert!(p.verify(&design).is_ok(), "round {round}: bad reference");
                Verdict::Sat
            }
            ReferenceVerdict::Infeasible => Verdict::Unsat,
            ReferenceVerdict::TooLarge => continue,
            ReferenceVerdict::Unsupported(what) => {
                panic!("round {round}: generator produced unsupported feature: {what}")
            }
        };
        for threads in [1, 4] {
            let label = format!("round {round} pin density threads={threads}");
            let (verdict, windows) = smt_run(&design, &density, threads, &label);
            assert_eq!(
                verdict,
                reference,
                "{label} ({}): SMT placer vs exhaustive reference disagree",
                design.name()
            );
            stats.density_activated += usize::from(windows > 0);
        }
        stats.density_compared += 1;
    }
    stats
}

/// Always-on subset: quick enough for every `cargo test` run.
#[test]
fn differential_mini_designs_agree() {
    let stats = run_rounds(10, 0xD1FF);
    assert!(stats.sat > 0, "subset never exercised the SAT path");
    assert!(stats.density_compared > 0, "no pin-density comparison ran");
    assert!(
        stats.density_activated > 0,
        "no pin-density run lowered a window: the lazy loop went untested"
    );
}

/// The acceptance run: fifty mini-designs, three deciders, zero
/// disagreements, every UNSAT certified. Release-mode only (scheduled
/// job + CI release step) — too slow for the debug-mode suite.
#[test]
#[ignore = "release-mode scheduled/CI job: cargo test --release -- --ignored"]
fn differential_fifty_designs_agree() {
    let stats = run_rounds(50, 0xF0221);
    assert!(
        stats.sat >= 5,
        "only {} of 50 designs were feasible — generator drifted",
        stats.sat
    );
    assert!(
        stats.unsat >= 5,
        "only {} of 50 designs were infeasible — UNSAT path under-tested",
        stats.unsat
    );
    assert!(
        stats.density_activated > 0,
        "no pin-density run lowered a window: the lazy loop went untested"
    );
}
