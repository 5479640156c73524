//! Resilient-orchestration tests: wall-clock deadlines with anytime
//! degradation, the infeasibility-recovery relaxation ladder, and the
//! determinism contract of deadline-free sequential runs.
//!
//! Tests that touch `AMSPLACE_DEADLINE_MS` or depend on its absence share
//! a file-local lock: environment variables are process-global and the
//! harness runs tests of one binary concurrently.

use ams_netlist::benchmarks::{self, SyntheticParams};
use ams_place::{
    DegradeReason, PinDensityConfig, PlaceError, PlaceOutcome, Placer, PlacerConfig, Relaxation,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_guard() -> std::sync::MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A mid-size multi-region design in the spirit of the paper's VCO: big
/// enough that the full optimization schedule below takes much longer
/// than its first feasible model.
fn vco_class() -> ams_netlist::Design {
    benchmarks::synthetic(SyntheticParams {
        regions: 2,
        cells_per_region: 10,
        nets: 20,
        net_degree: 3,
        symmetry_pairs: 2,
        ..Default::default()
    })
}

/// A schedule that keeps improving for many rounds: slow ζ decay and no
/// freezing, so the only exits are UNSAT-proven optimality or the clock.
fn long_schedule() -> PlacerConfig {
    let mut cfg = PlacerConfig::fast();
    cfg.optimize.k_iter = 50;
    cfg.optimize.zeta_start = 0.98;
    cfg.optimize.zeta_step = 0.0;
    cfg.optimize.freeze_fraction = 0.0;
    cfg.optimize.conflict_budget = None;
    cfg.optimize.first_conflict_budget = None;
    cfg
}

#[test]
fn deadline_degrades_to_anytime_placement() {
    let _g = env_guard();
    let d = vco_class();
    // Adaptive deadline ladder: machines differ by orders of magnitude,
    // so walk 50 ms upward until the first model fits inside the window.
    // Every pre-model expiry must be a prompt DeadlineExpired; the first
    // success is verified and its outcome inspected.
    let mut deadline = Duration::from_millis(50);
    let mut placed = None;
    while deadline <= Duration::from_secs(30) {
        let t0 = Instant::now();
        match Placer::builder(&d)
            .config(long_schedule())
            .deadline(deadline)
            .build()
            .expect("encode")
            .place()
        {
            Ok(p) => {
                placed = Some(p);
                break;
            }
            Err(PlaceError::DeadlineExpired) => {
                assert!(
                    t0.elapsed() < deadline + Duration::from_secs(10),
                    "expiry must be prompt (deadline {deadline:?}, took {:?})",
                    t0.elapsed()
                );
                deadline *= 2;
            }
            Err(e) => panic!("unexpected error under deadline {deadline:?}: {e}"),
        }
    }
    let p = placed.expect("some deadline up to 30s admits a first model");
    p.verify(&d).expect("anytime placement is legal");
    match &p.stats.outcome {
        PlaceOutcome::Anytime { rounds, reason } => {
            assert!(*rounds >= 1, "a model was found");
            assert_eq!(*reason, DegradeReason::Deadline);
            assert_eq!(p.stats.iterations, *rounds);
        }
        // A very fast machine may finish the whole 50-round schedule
        // inside the winning window; that is not a failure of degradation.
        PlaceOutcome::Optimal => {}
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn zero_lambda_design_is_recovered_by_the_ladder() {
    let _g = env_guard();
    // λ_th = 0 forbids any pin anywhere: provably infeasible (AMS-E011).
    // With recovery enabled the placer must raise λ_th and succeed.
    let d = benchmarks::synthetic(SyntheticParams {
        cells_per_region: 6,
        nets: 6,
        symmetry_pairs: 1,
        ..Default::default()
    });
    let mut cfg = PlacerConfig::fast();
    cfg.pin_density = Some(PinDensityConfig {
        lambda: Some(0),
        ..PinDensityConfig::default()
    });
    // Presolve would prove λ_th = 0 infeasible before any CDCL run (its
    // own tests cover that fast path); this test pins the *solver-driven*
    // ladder — UNSAT proof, learnt carryover, live re-lowering — so it
    // runs with presolve off.
    cfg.presolve.enabled = false;
    // Sequential solving pins the learnt-carryover assertion below: in
    // portfolio mode the winning worker replaces the SAT core, and a
    // diversified worker may prove UNSAT with an empty learnt database.
    let mut placer = Placer::builder(&d)
        .config(cfg.clone())
        .threads(1)
        .build()
        .expect("recoverable lint errors must not block encoding");
    let p = placer
        .place_mut()
        .expect("the ladder recovers a zero-lambda design");
    p.verify(&d).expect("recovered placement is legal");
    match &p.stats.outcome {
        PlaceOutcome::Recovered { relaxations } => {
            assert!(!relaxations.is_empty());
            assert!(
                relaxations
                    .iter()
                    .any(|r| matches!(r, Relaxation::RaisePinDensity { from: 0, to } if *to > 0)),
                "the ladder must raise λ_th from 0: {relaxations:?}"
            );
        }
        other => panic!("expected a recovered outcome, got {other:?}"),
    }
    // λ_th raises re-lower the pin-density family on the live solver: the
    // rung must not rebuild, and the clauses learnt while proving the
    // original threshold infeasible must carry into the relaxed solve.
    let pd_rung = p
        .stats
        .rungs
        .iter()
        .find(|r| matches!(r.relaxation, Relaxation::RaisePinDensity { .. }))
        .expect("a λ_th rung was recorded in the stats");
    assert!(
        !pd_rung.rebuilt,
        "raising λ_th must reuse the live solver, not rebuild"
    );
    assert!(
        pd_rung.learnts_carried > 0,
        "the UNSAT proof's learnt clauses must survive into the rung"
    );
    // The windows λ_th = 0 activated on the way to its UNSAT verdict stay
    // active through the rung, re-lowered at the raised threshold: more
    // than a cold solve at that threshold ever lowers.
    let Relaxation::RaisePinDensity { to, .. } = pd_rung.relaxation else {
        unreachable!()
    };
    let mut raised = cfg.clone();
    raised.pin_density = Some(PinDensityConfig {
        lambda: Some(to),
        ..PinDensityConfig::default()
    });
    let mut cold = Placer::builder(&d)
        .config(raised)
        .threads(1)
        .build()
        .expect("encode");
    cold.place_mut().expect("the raised threshold is feasible");
    let kept = placer.active_windows().count();
    assert!(
        kept > cold.active_windows().count(),
        "the rung kept {kept} active windows"
    );
    assert_eq!(p.stats.active_windows.first(), Some(&kept));

    // With recovery disabled the same design is rejected by the linter.
    cfg.recovery.max_rungs = 0;
    match Placer::builder(&d).config(cfg).build() {
        Err(PlaceError::Lint(report)) => assert!(report.has_errors()),
        other => panic!("expected a lint rejection, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn env_deadline_applies_and_explicit_deadline_wins() {
    let _g = env_guard();
    let d = vco_class();
    std::env::set_var("AMSPLACE_DEADLINE_MS", "1");
    // Explicit deadline takes precedence over the environment.
    let generous = Placer::builder(&d)
        .config(PlacerConfig::fast())
        .deadline(Duration::from_secs(120))
        .build()
        .expect("encode")
        .place();
    // Without an explicit deadline the 1 ms environment default applies;
    // no first model fits in a millisecond on this design.
    let strict = Placer::builder(&d)
        .config(PlacerConfig::fast())
        .build()
        .expect("encode")
        .place();
    std::env::remove_var("AMSPLACE_DEADLINE_MS");
    let p = generous.expect("120 s is ample for the fast preset");
    p.verify(&d).expect("legal placement");
    assert!(
        matches!(strict, Err(PlaceError::DeadlineExpired)),
        "1 ms must expire before a first model, got {strict:?}"
    );
}

#[test]
fn deadline_free_sequential_runs_stay_deterministic() {
    let _g = env_guard();
    let d = vco_class();
    let place = || {
        Placer::builder(&d)
            .config(PlacerConfig::fast())
            .threads(1)
            .build()
            .expect("encode")
            .place()
            .expect("place")
    };
    let a = place();
    let b = place();
    assert_eq!(a.cells, b.cells);
    assert_eq!(a.regions, b.regions);
    assert_eq!(a.stats.hpwl_trace, b.stats.hpwl_trace);
    assert_eq!(a.stats.conflicts, b.stats.conflicts);
    assert_eq!(a.stats.outcome, b.stats.outcome);
}

#[test]
fn rungs_that_change_no_constraint_skip_their_re_solve() {
    // Corpus scenario 296 needs a wider die, but the ladder first softens
    // extension margins twice. The design has no extension constraints,
    // so neither rung changes a record: the placer moves on without
    // re-solving, and both rungs carry the same learnt clauses.
    let s = ams_place::scenario::scenario(296);
    let options = ams_place::api::JobOptions {
        quick: true,
        threads: Some(1),
        ..Default::default()
    };
    let p = Placer::new(&s.design, s.config(options.to_config()))
        .expect("encode")
        .place()
        .expect("the ladder recovers scenario 296");
    p.verify(&s.design).expect("recovered placement is legal");
    let rungs = &p.stats.rungs;
    let [soften, soften_more, widen, ..] = rungs.as_slice() else {
        panic!("expected two softening rungs and a widening one: {rungs:?}");
    };
    assert_eq!(
        soften.relaxation,
        Relaxation::RelaxExtensions { scale: 0.5 },
        "{rungs:?}"
    );
    assert_eq!(
        soften_more.relaxation,
        Relaxation::RelaxExtensions { scale: 0.0 },
        "{rungs:?}"
    );
    assert!(!soften.rebuilt && !soften_more.rebuilt, "{rungs:?}");
    assert!(soften.learnts_carried > 0, "{rungs:?}");
    assert_eq!(
        soften.learnts_carried, soften_more.learnts_carried,
        "no solve may run between rungs that change nothing: {rungs:?}"
    );
    assert!(
        matches!(widen.relaxation, Relaxation::WidenDie { .. }) && widen.rebuilt,
        "{rungs:?}"
    );
}
