//! Window-based pin-density constraints (Eq. 13–14, Fig. 5).
//!
//! A sliding `β_x × β_y` check window is swept over the scaled floorplan;
//! each window emits one at-most record bounding `Σ |P(v_i)|·[overlap_i] ≤
//! λ_th` over the Eq. 13 overlap conditions of the cells with pins.
//! Lowering gives each condition a one-directional indicator
//! `overlap → b_{i,j}` ([`crate::ir`]), so over-approximation is
//! conservative: every model satisfies the true density bound.
//!
//! Windows are lowered lazily. A model solved without a window's record
//! rarely breaks it, so the records of an *active set* of windows are
//! lowered and the rest stay in the store: [`solve_refined`] checks every
//! model with the one window checker ([`window_loads`]), lowers the
//! windows it breaks under the family's live selector, and solves again.
//! The lowered CNF is always a subset of the full one, so an UNSAT verdict
//! (and its DRAT certificate) holds for the full encoding too.

use crate::config::PinDensityConfig;
use crate::ir::{ConstraintFamily, ConstraintStore, Payload, Provenance};
use crate::placement::PinDensityCheck;
use crate::scale::ScaleInfo;
use crate::vars::VarMap;
use ams_netlist::{Design, Rect};
use ams_smt::{Smt, SmtResult, Term};
use std::collections::BTreeSet;
use std::time::Duration;

/// The margin an unset `λ_th` keeps over the reference packing's densest
/// window.
const AUTO_MARGIN: f64 = 1.15;

/// Resolves `λ_th`: the configured value, or [`AUTO_MARGIN`] times the
/// densest window of a *reference packing* — a tight greedy row layout of
/// the same cells. Because Eq. 13 counts every pin of every overlapping
/// cell, a threshold derived from average density would be unsatisfiable
/// whenever cells are larger than the window; calibrating against an
/// actual dense packing keeps the constraint satisfiable while still
/// forbidding pathological pin pile-ups.
pub(crate) fn resolve_lambda(design: &Design, scale: &ScaleInfo, cfg: &PinDensityConfig) -> u64 {
    if let Some(l) = cfg.lambda {
        return l;
    }
    let reference = reference_window_load(design, scale, cfg.beta_x, cfg.beta_y);
    let max_cell_pins = design
        .cell_ids()
        .map(|c| design.pin_count(c) as u64)
        .max()
        .unwrap_or(0);
    ((reference as f64 * AUTO_MARGIN).ceil() as u64).max(max_cell_pins + 1)
}

/// Max window pin load of a tight greedy row packing of the design's cells
/// (scaled units, per region stacked side by side).
fn reference_window_load(design: &Design, scale: &ScaleInfo, beta_x: u32, beta_y: u32) -> u64 {
    // Pack every region tightly at ~unity utilization.
    let mut rects: Vec<(u32, u32, u32, u32, u64)> = Vec::new(); // x,y,w,h,pins
    let mut region_x0 = 0u32;
    for r in design.region_ids() {
        let mut cells: Vec<_> = design.cells_in_region(r).collect();
        cells.sort_by(|&a, &b| scale.width_of(b).cmp(&scale.width_of(a)).then(a.cmp(&b)));
        let area: u64 = cells
            .iter()
            .map(|&c| u64::from(scale.width_of(c)) * u64::from(scale.height_of(c)))
            .sum();
        let row_w = ((area as f64).sqrt().ceil() as u32)
            .max(cells.iter().map(|&c| scale.width_of(c)).max().unwrap_or(1));
        let (mut x, mut y, mut row_h) = (0u32, 0u32, 0u32);
        let mut max_x = 0u32;
        for &c in &cells {
            let (w, h) = (scale.width_of(c), scale.height_of(c));
            if x + w > row_w {
                x = 0;
                y += row_h.max(1);
                row_h = 0;
            }
            rects.push((region_x0 + x, y, w, h, design.pin_count(c) as u64));
            x += w;
            row_h = row_h.max(h);
            max_x = max_x.max(region_x0 + x);
        }
        region_x0 = max_x + 1;
    }
    // Slide the window over the packing's bounding box.
    let span_x = rects
        .iter()
        .map(|&(x, _, w, _, _)| x + w)
        .max()
        .unwrap_or(1);
    let span_y = rects
        .iter()
        .map(|&(_, y, _, h, _)| y + h)
        .max()
        .unwrap_or(1);
    let mut worst = 0u64;
    for wy in 0..=span_y.saturating_sub(beta_y) {
        for wx in 0..=span_x.saturating_sub(beta_x) {
            let load: u64 = rects
                .iter()
                .filter(|&&(x, y, w, h, _)| {
                    x < wx + beta_x && wx < x + w && y < wy + beta_y && wy < y + h
                })
                .map(|&(_, _, _, _, p)| p)
                .sum();
            worst = worst.max(load);
        }
    }
    worst
}

/// The window grid and bounds a configuration gives the scaled design:
/// the resolved `λ_th`, the window clamped to the die, and the closure
/// overrides clamped to `λ_th`, so a per-window bound never exceeds the
/// global one. The placer encodes against it and the brute-force
/// reference verifies against it.
pub(crate) fn check_for(
    design: &Design,
    scale: &ScaleInfo,
    cfg: &PinDensityConfig,
) -> PinDensityCheck {
    let lambda = resolve_lambda(design, scale, cfg);
    PinDensityCheck {
        beta_x: cfg.beta_x.min(scale.scaled_w),
        beta_y: cfg.beta_y.min(scale.scaled_h),
        lambda,
        stride_x: cfg.stride_x,
        stride_y: cfg.stride_y,
        overrides: cfg
            .lambda_overrides
            .iter()
            .map(|&(origin, l)| (origin, l.min(lambda)))
            .collect(),
    }
}

/// Emits one at-most record per window of `check`, at the window's own
/// bound.
pub(crate) fn assert_pin_density(
    smt: &mut Smt,
    store: &mut ConstraintStore,
    design: &Design,
    scale: &ScaleInfo,
    vars: &VarMap,
    check: &PinDensityCheck,
) {
    store.family(ConstraintFamily::PinDensity);
    let (beta_x, beta_y) = (check.beta_x, check.beta_y);

    // Window origins: stride-stepped, always including the last position.
    let xs = window_origins(scale.scaled_w, beta_x, check.stride_x);
    let ys = window_origins(scale.scaled_h, beta_y, check.stride_y);

    let pinful: Vec<_> = design
        .cell_ids()
        .filter(|&c| design.pin_count(c) > 0)
        .collect();

    for &ym in &ys {
        for &xm in &xs {
            let items: Vec<(Term, u64)> = pinful
                .iter()
                .filter_map(|&c| {
                    let pins = design.pin_count(c) as u64;
                    overlap_condition(smt, scale, vars, c, (xm, ym), (beta_x, beta_y))
                        .map(|cond| (cond, pins))
                })
                .collect();
            let total: u64 = items.iter().map(|&(_, w)| w).sum();
            let bound = check.bound(xm, ym);
            // A window whose items all hold unconditionally and fit lowers
            // to nothing, so it emits no record.
            let conditional = items.iter().any(|&(t, _)| smt.pool().as_const(t).is_none());
            if conditional || total > bound {
                store.at(Provenance::Window { x: xm, y: ym });
                store.assert_at_most(items, bound);
            }
        }
    }
}

/// The pin load of every check window of `check` over a die of `die`
/// scaled units, row by row over [`window_origins`]: the pins of the cells
/// whose rectangle (`cells`, indexed by cell id) overlaps the window. The
/// rectangles are in grid units of `units` per scaled unit, so the placer
/// passes scaled rectangles with units `(1, 1)` and
/// [`crate::Placement::verify`] its grid rectangles with the placement's
/// units; both see the same loads. Windows are keyed by scaled origin.
pub(crate) fn window_loads(
    design: &Design,
    check: &PinDensityCheck,
    die: (u32, u32),
    (uw, uh): (u32, u32),
    cells: &[Rect],
) -> Vec<((u32, u32), u64)> {
    if die.0 < check.beta_x || die.1 < check.beta_y {
        return Vec::new();
    }
    let pinful: Vec<(Rect, u64)> = design
        .cell_ids()
        .map(|c| (cells[c.index()], design.pin_count(c) as u64))
        .filter(|&(_, pins)| pins > 0)
        .collect();
    let xs = window_origins(die.0, check.beta_x, check.stride_x);
    let ys = window_origins(die.1, check.beta_y, check.stride_y);
    let mut loads = Vec::with_capacity(xs.len() * ys.len());
    for &y in &ys {
        for &x in &xs {
            let window = Rect::new(x * uw, y * uh, check.beta_x * uw, check.beta_y * uh);
            let pins = pinful
                .iter()
                .filter(|&&(r, _)| r.overlaps(window))
                .map(|&(_, p)| p)
                .sum();
            loads.push(((x, y), pins));
        }
    }
    loads
}

/// The windows lowered before the first solve: those a closure override
/// tightened, and those whose bound one cell's pins exceed on their own.
/// The second kind are exclusion zones for that cell (λ_th below a cell's
/// pin count). Lowered together they refute such an instance one cell at
/// a time; discovered a few at a time, they would turn that into a
/// packing proof over the windows still open.
pub(crate) fn seed_windows(
    store: &ConstraintStore,
    check: Option<&PinDensityCheck>,
) -> BTreeSet<(u32, u32)> {
    let Some(check) = check else {
        return BTreeSet::new();
    };
    store
        .records()
        .iter()
        .filter_map(|c| match (c.provenance, &c.payload) {
            (Provenance::Window { x, y }, Payload::AtMost { items, bound })
                if c.family == ConstraintFamily::PinDensity =>
            {
                let seeded = *bound < check.lambda || items.iter().any(|&(_, w)| w > *bound);
                seeded.then_some((x, y))
            }
            _ => None,
        })
        .collect()
}

/// What [`solve_refined`] reads a model against and lowers from.
pub(crate) struct LazyWindows<'a> {
    pub design: &'a Design,
    pub scale: &'a ScaleInfo,
    pub vars: &'a VarMap,
    pub store: &'a ConstraintStore,
    /// The window grid and bounds; `None` when pin density is off.
    pub check: Option<&'a PinDensityCheck>,
    /// The pin-density family's live selector; `None` when it has no
    /// records.
    pub selector: Option<Term>,
}

/// The verdict of [`solve_refined`] and what its refinement cost.
pub(crate) struct Refined {
    /// The verdict of the last solve. `Sat` only for a model that breaks
    /// no window.
    pub result: SmtResult,
    /// Solves re-run because a model broke a window.
    pub resolves: u64,
    /// Clauses the lowered windows added.
    pub clauses: usize,
    /// Time spent lowering them.
    pub elapsed: Duration,
}

/// Solves under `assumptions` with lazy windows. After every model, the
/// window checker scans every window; the ones the model breaks join
/// `active`, their records are lowered under the family's live selector,
/// and the solve re-runs on what is left of `budget` (conflicts, counted
/// from the first solve). The active set only grows, so the loop ends: on
/// the first model that breaks no window, or on any other verdict.
pub(crate) fn solve_refined(
    smt: &mut Smt,
    lazy: &LazyWindows<'_>,
    active: &mut BTreeSet<(u32, u32)>,
    assumptions: &[Term],
    budget: Option<u64>,
) -> Refined {
    let start = smt.sat_stats().conflicts;
    let mut refined = Refined {
        result: SmtResult::Unknown,
        resolves: 0,
        clauses: 0,
        elapsed: Duration::ZERO,
    };
    loop {
        let spent = smt.sat_stats().conflicts.saturating_sub(start);
        smt.set_conflict_budget(budget.map(|b| b.saturating_sub(spent)));
        refined.result = smt.solve_with(assumptions);
        let (SmtResult::Sat, Some(check), Some(selector)) =
            (refined.result, lazy.check, lazy.selector)
        else {
            return refined;
        };
        let broken = broken_windows(smt, lazy, check);
        let fresh: Vec<(u32, u32)> = broken
            .iter()
            .copied()
            .filter(|origin| !active.contains(origin))
            .collect();
        if fresh.is_empty() {
            // Every broken window was lowered already: the encoding of an
            // active window let a model through.
            debug_assert!(
                broken.is_empty(),
                "an accepted model breaks lowered windows {broken:?}"
            );
            return refined;
        }
        let (clauses, elapsed) = lazy.store.lower_windows(smt, selector, &fresh);
        refined.clauses += clauses;
        refined.elapsed += elapsed;
        active.extend(fresh);
        refined.resolves += 1;
    }
}

/// The windows the current model breaks, each judged against its own
/// bound.
fn broken_windows(smt: &Smt, lazy: &LazyWindows<'_>, check: &PinDensityCheck) -> Vec<(u32, u32)> {
    let cells: Vec<Rect> = lazy
        .design
        .cell_ids()
        .map(|c| {
            Rect::new(
                smt.bv_value(lazy.vars.cell_x[c.index()]) as u32,
                smt.bv_value(lazy.vars.cell_y[c.index()]) as u32,
                lazy.scale.width_of(c),
                lazy.scale.height_of(c),
            )
        })
        .collect();
    let die = (lazy.scale.scaled_w, lazy.scale.scaled_h);
    window_loads(lazy.design, check, die, (1, 1), &cells)
        .into_iter()
        .filter(|&((x, y), pins)| pins > check.bound(x, y))
        .map(|(origin, _)| origin)
        .collect()
}

/// Window origins covering `0..=extent-beta` at the given stride, with the
/// final origin always included.
pub(crate) fn window_origins(extent: u32, beta: u32, stride: u32) -> Vec<u32> {
    let last = extent.saturating_sub(beta);
    let mut out: Vec<u32> = (0..=last).step_by(stride.max(1) as usize).collect();
    if *out.last().expect("at least origin 0") != last {
        out.push(last);
    }
    out
}

/// The Eq. 13 overlap condition between cell `c` and the window at
/// `(xm, ym)`, folded against constants:
/// `x_v < xm + β_x  ∧  x_v + w_v > xm  ∧  y_v < ym + β_y  ∧  y_v + h_v > ym`.
/// `None` when the cell can never overlap the window; constant true when
/// it always does.
fn overlap_condition(
    smt: &mut Smt,
    scale: &ScaleInfo,
    vars: &VarMap,
    c: ams_netlist::CellId,
    (xm, ym): (u32, u32),
    (beta_x, beta_y): (u32, u32),
) -> Option<Term> {
    let (w, h) = (scale.width_of(c), scale.height_of(c));
    let x = vars.cell_x[c.index()];
    let y = vars.cell_y[c.index()];
    let mut conds: Vec<Term> = Vec::with_capacity(4);

    // x_v <= xm + beta_x - 1 (may be vacuous if the bound covers the die).
    let hi_x = u64::from(xm + beta_x - 1);
    if hi_x < u64::from(scale.scaled_w) {
        let cst = smt.bv_const(scale.lx, hi_x);
        conds.push(smt.ule(x, cst));
    }
    // x_v >= xm + 1 - w  (vacuous when xm < w).
    if xm + 1 > w {
        let lo_x = u64::from(xm + 1 - w);
        let cst = smt.bv_const(scale.lx, lo_x);
        conds.push(smt.uge(x, cst));
    }
    let hi_y = u64::from(ym + beta_y - 1);
    if hi_y < u64::from(scale.scaled_h) {
        let cst = smt.bv_const(scale.ly, hi_y);
        conds.push(smt.ule(y, cst));
    }
    if ym + 1 > h {
        let lo_y = u64::from(ym + 1 - h);
        let cst = smt.bv_const(scale.ly, lo_y);
        conds.push(smt.uge(y, cst));
    }

    let cond = smt.and(&conds);
    (smt.pool().as_const(cond) != Some(0)).then_some(cond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origins_cover_final_window() {
        assert_eq!(window_origins(10, 4, 2), vec![0, 2, 4, 6]);
        assert_eq!(window_origins(11, 4, 2), vec![0, 2, 4, 6, 7]);
        assert_eq!(window_origins(4, 4, 3), vec![0]);
    }
}
