//! The concrete place → route → feedback closure driver.
//!
//! `ams_place::closure::close` owns the loop but is router-agnostic — it
//! only sees a feedback callback. This module plugs in *this* crate's
//! router: route the candidate placement, fold the result onto the
//! placement's probe windows ([`crate::window_congestion`]), and hand the
//! per-window overflow back so the loop can tighten the pin-density λ of
//! exactly the hot windows (via their constraint provenance) and re-solve
//! incrementally.

use crate::congestion;
use crate::router::{route, RouterConfig};
use ams_netlist::Design;
use ams_place::closure::{close, ClosureConfig, ClosureStats, RouteFeedback, WindowRect};
use ams_place::{PlaceError, Placement, PlacerConfig};

/// Routes `placement` and extracts the per-window feedback document the
/// closure loop consumes.
pub fn route_feedback(
    design: &Design,
    placement: &Placement,
    windows: &[WindowRect],
    router: RouterConfig,
) -> RouteFeedback {
    let result = route(design, placement, router);
    congestion::route_feedback(&result, windows)
}

/// Runs the full routing-closure loop: place, route, tighten the
/// pin-density bound of routing-hot windows, re-solve incrementally, until
/// the routing is overflow-free or the iteration budget expires.
///
/// The returned placement carries the loop summary in
/// `stats.closure`; `stats.drc_clean` reports whether the *final* routing
/// pass was overflow-free.
pub fn close_placement(
    design: &Design,
    config: PlacerConfig,
    opts: &ClosureConfig,
    router: RouterConfig,
) -> Result<(Placement, ClosureStats), PlaceError> {
    close(design, config, opts, |design, placement, windows| {
        route_feedback(design, placement, windows, router)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_place::closure::probe_windows;

    #[test]
    fn feedback_windows_parallel_the_probe_windows() {
        // Corpus scenario 0 under the `--quick` budgets: small, with
        // pin-density windows.
        let mut config = PlacerConfig::fast();
        config.optimize.k_iter = 1;
        config.optimize.conflict_budget = Some(20_000);
        let s = ams_place::scenario::scenario(0);
        let placement = ams_place::Placer::builder(&s.design)
            .config(s.config(config))
            .build()
            .unwrap()
            .place()
            .unwrap();
        let design = s.design;
        let probe = probe_windows(&placement);
        assert!(!probe.rects.is_empty());
        let fb = route_feedback(&design, &placement, &probe.rects, RouterConfig::default());
        assert_eq!(fb.window_overflow.len(), probe.rects.len());
    }
}
