//! Routing-closure loop: place → route → tighten hot windows → re-solve.
//!
//! The paper optimizes HPWL under a *static* pin-density threshold λ_th
//! (Eq. 13–14) and measures routed wirelength afterwards; this module
//! closes that loop. A placement is handed to a router, the router reports
//! congestion per pin-density window, and the windows that actually
//! overflowed get their λ_th tightened — *only* those windows, because the
//! provenance-carrying IR stamps every window constraint with its scaled
//! origin (`Provenance::Window{x, y}`), which is exactly the key
//! [`crate::PinDensityConfig::lambda_overrides`] uses. The tightened
//! configuration is re-solved incrementally through [`Placer::rebase`]:
//! the pin-density family's selector is retired, the bounds of the active
//! windows (the tightened ones now among them) re-lowered behind a fresh
//! guard generation, and every learnt clause that does not depend on a
//! retired selector survives on the live solver.
//! The loop ends when the router reports zero overflow (`drc_clean`) or
//! the iteration budget expires.
//!
//! The module is deliberately router-agnostic: `ams-route` depends on this
//! crate, not the other way around, so the router enters as a callback.
//! `ams_route::close_placement` binds the in-tree maze router; tests can
//! bind a scripted fake to exercise the loop logic alone.

use crate::config::PlacerConfig;
use crate::encode::pin_density::window_origins;
use crate::placement::Placement;
use crate::placer::{PlaceError, Placer};
use ams_netlist::Design;

/// A congestion-probe window in *unscaled* grid units — the coordinate
/// space placements and routers share. Probe windows are the pin-density
/// check windows mapped through the scale units, so window `i` of a probe
/// corresponds one-to-one to an encoded pin-density constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowRect {
    /// Lower-left x in grid units.
    pub x: u32,
    /// Lower-left y in grid units.
    pub y: u32,
    /// Width in grid units.
    pub w: u32,
    /// Height in grid units.
    pub h: u32,
}

impl WindowRect {
    /// Whether the half-open window contains the grid point `(x, y)`.
    pub fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.x && x < self.x + self.w && y >= self.y && y < self.y + self.h
    }
}

/// What one routing pass reports back to the closure loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteFeedback {
    /// Total routed wirelength in tracks.
    pub routed_wl: u64,
    /// Total via count.
    pub vias: u64,
    /// Edges still over capacity after the router's own negotiation — the
    /// DRC-clean criterion is `overflow == 0`.
    pub overflow: u64,
    /// Over-capacity edge count per probe window, parallel to the
    /// `windows` slice the router callback received.
    pub window_overflow: Vec<u64>,
}

/// Tuning knobs of [`close`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClosureConfig {
    /// Maximum place → route iterations (the rung budget); the first
    /// placement always happens, so `1` means "route once, never tighten".
    pub max_iters: usize,
    /// Percentage of the current per-window bound the tightening step
    /// keeps (e.g. 75 ⇒ λ_w ← ⌊0.75·λ_w⌋); always at least one below the
    /// current bound.
    pub tighten_percent: u64,
    /// Floor under per-window tightening; a window at the floor is left
    /// alone even when still hot.
    pub min_lambda: u64,
}

impl Default for ClosureConfig {
    fn default() -> ClosureConfig {
        ClosureConfig {
            max_iters: 5,
            tighten_percent: 75,
            min_lambda: 1,
        }
    }
}

/// Outcome summary of a [`close`] run, also carried in
/// [`crate::PlaceStats::closure`] of the returned placement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClosureStats {
    /// Place → route iterations performed (≥ 1).
    pub iterations: usize,
    /// Scaled window origins that were ever tightened, sorted; each one
    /// maps to a `Provenance::Window` the router proved congested.
    pub hot_windows: Vec<(u32, u32)>,
    /// Routed wirelength (tracks) after each iteration.
    pub routed_wl_trend: Vec<u64>,
    /// Whether the final routing pass reported zero overflow.
    pub drc_clean: bool,
}

/// The probe geometry of one placement: pin-density windows in both the
/// router's grid units and the encoder's scaled origins.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProbeWindows {
    /// Windows in unscaled grid units, for the router.
    pub rects: Vec<WindowRect>,
    /// Scaled window origins, parallel to `rects` — the
    /// `Provenance::Window` / `lambda_overrides` keys.
    pub origins: Vec<(u32, u32)>,
}

/// The pin-density check windows of a placement, in router coordinates.
///
/// Reconstructs exactly the window set the encoder enumerated: the die is
/// `scaled_w·unit_w × scaled_h·unit_h` by construction, so dividing by the
/// units recovers the scaled extents, and the same stride-stepped
/// `window_origins` walk yields the same origins the constraints carry.
/// Empty when the placement was produced without pin-density constraints.
pub fn probe_windows(placement: &Placement) -> ProbeWindows {
    let Some(pd) = &placement.pin_density else {
        return ProbeWindows::default();
    };
    let (uw, uh) = placement.units;
    if uw == 0 || uh == 0 {
        return ProbeWindows::default();
    }
    let scaled_w = placement.die.w / uw;
    let scaled_h = placement.die.h / uh;
    let beta_x = pd.beta_x.min(scaled_w);
    let beta_y = pd.beta_y.min(scaled_h);
    if beta_x == 0 || beta_y == 0 {
        return ProbeWindows::default();
    }
    let xs = window_origins(scaled_w, beta_x, pd.stride_x);
    let ys = window_origins(scaled_h, beta_y, pd.stride_y);
    let mut out = ProbeWindows::default();
    for &ym in &ys {
        for &xm in &xs {
            out.origins.push((xm, ym));
            out.rects.push(WindowRect {
                x: xm * uw,
                y: ym * uh,
                w: beta_x * uw,
                h: beta_y * uh,
            });
        }
    }
    out
}

/// Runs the place → route → tighten loop until the router reports a clean
/// placement or `opts.max_iters` placements have been tried.
///
/// `route` is called once per iteration with the current placement and its
/// probe windows and must return per-window overflow parallel to them.
/// Hot windows (nonzero overflow) get their λ_th tightened via
/// [`crate::PinDensityConfig::tighten_window`] and the instance is
/// re-solved warm through [`Placer::rebase`]. The loop also stops early
/// when no hot window can tighten further (all at `min_lambda`, or the
/// design has no pin-density constraints to tighten).
///
/// The returned placement always passes the same legality guarantees as a
/// plain [`Placer::place`] run — tightening only ever *shrinks* the
/// feasible space per window, never relaxes a constraint family.
///
/// # Errors
///
/// [`PlaceError::Config`] when `opts` or `config` are out of range or
/// certify mode is requested (a warm rebase cannot extend a DRAT proof),
/// plus anything [`Placer::new`] / [`Placer::place_mut`] can raise — an
/// over-tightened iteration that turns infeasible surfaces as
/// [`PlaceError::Infeasible`] unless the recovery ladder absorbs it.
pub fn close<F>(
    design: &Design,
    mut config: PlacerConfig,
    opts: &ClosureConfig,
    route: F,
) -> Result<(Placement, ClosureStats), PlaceError>
where
    F: FnMut(&Design, &Placement, &[WindowRect]) -> RouteFeedback,
{
    // Refuse bad options before paying for an encoding.
    check(opts, &config)?;
    // The whole point is warm re-solving; force reusable mode so rebase
    // re-lowers instead of reporting Structural.
    config.solver.reusable = true;
    close_on(&mut Placer::new(design, config)?, opts, route)
}

/// The [`close`] loop on a placer the caller built, for example one that
/// carries a cancel flag ([`Placer::set_cancel_flag`]): every solve of the
/// loop then stops at the flag's next conflict boundary. The placer must
/// be reusable ([`crate::SolverConfig::reusable`]), so each tightening
/// re-solves warm on it.
///
/// # Errors
///
/// As [`close`], and [`PlaceError::Config`] when the placer is not
/// reusable.
pub fn close_on<F>(
    placer: &mut Placer,
    opts: &ClosureConfig,
    mut route: F,
) -> Result<(Placement, ClosureStats), PlaceError>
where
    F: FnMut(&Design, &Placement, &[WindowRect]) -> RouteFeedback,
{
    let mut config = placer.config().clone();
    check(opts, &config)?;
    if !config.solver.reusable {
        return Err(PlaceError::Config(
            "closure tightens windows on a live solver; build the placer with \
             SolverConfig::reusable"
                .into(),
        ));
    }
    let mut stats = ClosureStats::default();
    loop {
        let mut placement = placer.place_mut()?;
        let probe = probe_windows(&placement);
        let feedback = route(placer.design(), &placement, &probe.rects);
        stats.iterations += 1;
        stats.routed_wl_trend.push(feedback.routed_wl);

        let hot: Vec<usize> = feedback
            .window_overflow
            .iter()
            .take(probe.origins.len())
            .enumerate()
            .filter(|&(_, &o)| o > 0)
            .map(|(i, _)| i)
            .collect();
        if feedback.overflow == 0 {
            stats.drc_clean = true;
            placement.stats.closure = Some(stats.clone());
            return Ok((placement, stats));
        }
        if stats.iterations >= opts.max_iters {
            placement.stats.closure = Some(stats.clone());
            return Ok((placement, stats));
        }

        // Tighten exactly the provenance-identified hot windows.
        let mut tightened = false;
        if let (Some(pd_check), Some(pd)) = (&placement.pin_density, config.pin_density.as_mut()) {
            for &i in &hot {
                let (sx, sy) = probe.origins[i];
                let current = pd_check.bound(sx, sy);
                if current <= opts.min_lambda {
                    continue;
                }
                let next = (current * opts.tighten_percent / 100)
                    .min(current - 1)
                    .max(opts.min_lambda);
                if pd.tighten_window(sx, sy, next) {
                    tightened = true;
                    if let Err(pos) = stats.hot_windows.binary_search(&(sx, sy)) {
                        stats.hot_windows.insert(pos, (sx, sy));
                    }
                }
            }
        }
        if !tightened {
            // Congested but nothing left to tighten: either no pin-density
            // family, every hot window is at the floor, or the overflow
            // falls outside every probe window. Report honestly.
            placement.stats.closure = Some(stats.clone());
            return Ok((placement, stats));
        }
        placer.rebase(config.clone())?;
    }
}

/// The range checks of [`close`] on `opts`, and its refusal of certify
/// mode.
fn check(opts: &ClosureConfig, config: &PlacerConfig) -> Result<(), PlaceError> {
    if opts.max_iters == 0 {
        return Err(PlaceError::Config(
            "closure needs max_iters >= 1 (the first placement always runs)".into(),
        ));
    }
    if opts.tighten_percent >= 100 {
        return Err(PlaceError::Config(format!(
            "closure tighten_percent {} must be < 100 to make progress",
            opts.tighten_percent
        )));
    }
    if opts.min_lambda == 0 {
        return Err(PlaceError::Config(
            "closure min_lambda must be >= 1 (a 0-pin window is unsatisfiable)".into(),
        ));
    }
    if config.solver.certify {
        return Err(PlaceError::Config(
            "closure re-solves on a live solver (Placer::rebase), which cannot \
             extend a certify-mode proof; drop --certify to close the loop"
                .into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Corpus scenario 0 under the CLI `--quick` budgets: a small design
    /// with pin-density windows, so the loop logic runs in a fraction of
    /// a second even in debug builds.
    fn small() -> (Design, PlacerConfig) {
        let mut config = PlacerConfig::fast();
        config.optimize.k_iter = 1;
        config.optimize.conflict_budget = Some(20_000);
        let s = crate::scenario::scenario(0);
        let config = s.config(config);
        (s.design, config)
    }

    #[test]
    fn clean_first_route_ends_after_one_iteration() {
        let (design, config) = small();
        let calls = std::cell::Cell::new(0usize);
        let (placement, stats) = close(
            &design,
            config,
            &ClosureConfig::default(),
            |_, _, windows| {
                calls.set(calls.get() + 1);
                RouteFeedback {
                    routed_wl: 100,
                    vias: 4,
                    overflow: 0,
                    window_overflow: vec![0; windows.len()],
                }
            },
        )
        .expect("close");
        assert_eq!(calls.get(), 1);
        assert_eq!(stats.iterations, 1);
        assert!(stats.drc_clean);
        assert!(stats.hot_windows.is_empty());
        assert_eq!(stats.routed_wl_trend, vec![100]);
        assert_eq!(placement.stats.closure.as_ref(), Some(&stats));
        assert_eq!(placement.verify(&design), Ok(()));
    }

    #[test]
    fn hot_windows_are_tightened_and_only_those() {
        let (design, config) = small();
        let rounds = std::cell::Cell::new(0usize);
        let (placement, stats) = close(
            &design,
            config,
            &ClosureConfig::default(),
            |_, _, windows| {
                let round = rounds.get();
                rounds.set(round + 1);
                // First route: window 0 overflows; afterwards: clean.
                let mut window_overflow = vec![0u64; windows.len()];
                let overflow = if round == 0 { 3 } else { 0 };
                if round == 0 {
                    window_overflow[0] = 3;
                }
                RouteFeedback {
                    routed_wl: 100 - round as u64,
                    vias: 4,
                    overflow,
                    window_overflow,
                }
            },
        )
        .expect("close");
        assert_eq!(stats.iterations, 2);
        assert!(stats.drc_clean);
        assert_eq!(stats.hot_windows.len(), 1, "exactly the one hot window");
        assert_eq!(stats.routed_wl_trend, vec![100, 99]);
        assert_eq!(placement.verify(&design), Ok(()));
        // The warm path (not a from-scratch re-encode) carried the re-solve.
        assert!(placement.stats.warm.is_some(), "second solve must be warm");
    }

    #[test]
    fn budget_expiry_reports_not_clean() {
        let (design, config) = small();
        let opts = ClosureConfig {
            max_iters: 2,
            ..ClosureConfig::default()
        };
        let (_, stats) = close(&design, config, &opts, |_, _, windows| RouteFeedback {
            routed_wl: 100,
            vias: 0,
            overflow: 7,
            window_overflow: vec![1; windows.len()],
        })
        .expect("close");
        assert_eq!(stats.iterations, 2);
        assert!(!stats.drc_clean);
        assert!(!stats.hot_windows.is_empty());
    }

    #[test]
    fn overflow_outside_probe_windows_stops_without_tightening() {
        let (design, config) = small();
        let (_, stats) = close(
            &design,
            config,
            &ClosureConfig::default(),
            |_, _, windows| RouteFeedback {
                routed_wl: 50,
                vias: 0,
                overflow: 2,
                window_overflow: vec![0; windows.len()],
            },
        )
        .expect("close");
        assert_eq!(stats.iterations, 1);
        assert!(!stats.drc_clean);
        assert!(stats.hot_windows.is_empty());
    }

    #[test]
    fn certify_mode_is_rejected() {
        let (design, mut config) = small();
        config.solver.certify = true;
        let err = close(&design, config, &ClosureConfig::default(), |_, _, w| {
            RouteFeedback {
                window_overflow: vec![0; w.len()],
                ..RouteFeedback::default()
            }
        })
        .unwrap_err();
        assert!(matches!(err, PlaceError::Config(_)));
    }

    #[test]
    fn probe_windows_match_the_encoded_origin_grid() {
        let (design, config) = small();
        let placement = Placer::new(&design, config)
            .expect("encode")
            .place()
            .expect("place");
        let probe = probe_windows(&placement);
        assert_eq!(probe.rects.len(), probe.origins.len());
        assert!(
            !probe.rects.is_empty(),
            "the scenario places with pin density on"
        );
        let (uw, uh) = placement.units;
        for (rect, &(sx, sy)) in probe.rects.iter().zip(&probe.origins) {
            assert_eq!(rect.x, sx * uw);
            assert_eq!(rect.y, sy * uh);
            assert!(rect.x + rect.w <= placement.die.w);
            assert!(rect.y + rect.h <= placement.die.h);
        }
    }
}
