//! Lazy pin-density windows: a window's record is lowered only once a
//! model breaks it (or a routing-closure override tightens it), and no
//! model that breaks a window is ever accepted. Every test here runs on
//! one thread without a deadline, so it is deterministic.

use ams_place::api::JobOptions;
use ams_place::closure::{close_on, ClosureConfig, RouteFeedback};
use ams_place::scenario::scenario;
use ams_place::{ConstraintFamily, Placement, Placer, PlacerConfig};

fn quick(aspect_of: u32) -> PlacerConfig {
    JobOptions {
        quick: true,
        threads: Some(1),
        aspect: Some(scenario(aspect_of).aspect_ratio),
        ..JobOptions::default()
    }
    .to_config()
}

fn pin_density(p: &Placement) -> ams_place::FamilyStats {
    *p.stats
        .families
        .iter()
        .find(|fs| fs.family == ConstraintFamily::PinDensity)
        .expect("pin density is configured")
}

#[test]
fn a_broken_window_is_lowered_and_the_round_re_solved() {
    // Corpus scenario 20 under `--quick`: the model solved without any
    // window breaks two of them, so both are lowered and the feasibility
    // solve runs again.
    let s = scenario(20);
    let mut placer = Placer::new(&s.design, quick(20)).expect("encode");
    let p = placer.place_mut().expect("place");
    p.verify(&s.design)
        .expect("an accepted model breaks no window");
    assert!(p.stats.window_resolves >= 1, "{:?}", p.stats);
    assert_eq!(p.stats.active_windows.len(), p.stats.hpwl_trace.len());
    let active = placer.active_windows().count();
    assert!(
        p.stats.active_windows[0] > 0,
        "{:?}",
        p.stats.active_windows
    );
    assert_eq!(p.stats.active_windows.last(), Some(&active));
    // The family keeps one record per window, lowered or not, and only
    // the active ones cost clauses.
    let pd = pin_density(&p);
    assert!(pd.constraints > active, "{pd:?}");
    assert!(pd.clauses > 0, "{pd:?}");
}

#[test]
fn a_tightened_window_is_active_from_the_next_solve_on() {
    // Corpus scenario 0 breaks no window on its own. The fake router
    // flags the window at the die origin once; the closure loop tightens
    // it, and the warm re-solve lowers it before its first model.
    let s = scenario(0);
    let mut config = quick(0);
    config.solver.reusable = true;
    let mut placer = Placer::new(&s.design, config).expect("encode");
    let mut first_active = None;
    let (placement, stats) = close_on(&mut placer, &ClosureConfig::default(), |_, p, windows| {
        let mut window_overflow = vec![0; windows.len()];
        if first_active.is_none() {
            first_active = Some(p.stats.active_windows.clone());
            window_overflow[0] = 1;
        }
        RouteFeedback {
            overflow: window_overflow.iter().sum(),
            window_overflow,
            ..RouteFeedback::default()
        }
    })
    .expect("close");
    assert_eq!(stats.hot_windows, vec![(0, 0)]);
    let first = first_active.expect("the router ran");
    assert!(first.iter().all(|&n| n == 0), "{first:?}");
    assert!(
        placement.stats.active_windows[0] >= 1,
        "{:?}",
        placement.stats
    );
    assert!(placer.active_windows().any(|w| w == (0, 0)));
    placement
        .verify(&s.design)
        .expect("the tightened window holds");
}
