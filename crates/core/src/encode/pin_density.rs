//! Window-based pin-density constraints (Eq. 13–14, Fig. 5).
//!
//! A sliding `β_x × β_y` check window is swept over the scaled floorplan;
//! each window emits one at-most record bounding `Σ |P(v_i)|·[overlap_i] ≤
//! λ_th` over the Eq. 13 overlap conditions of the cells with pins.
//! Lowering gives each condition a one-directional indicator
//! `overlap → b_{i,j}` ([`crate::ir`]), so over-approximation is
//! conservative: every model satisfies the true density bound.

use crate::config::PinDensityConfig;
use crate::ir::{ConstraintFamily, ConstraintStore, Provenance};
use crate::scale::ScaleInfo;
use crate::vars::VarMap;
use ams_netlist::Design;
use ams_smt::{Smt, Term};

/// Effective pin-density parameters after threshold resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PinDensityInfo {
    /// Scaled window width `β_x`.
    pub beta_x: u32,
    /// Scaled window height `β_y`.
    pub beta_y: u32,
    /// Resolved pin-count threshold `λ_th`.
    pub lambda: u64,
    /// Number of windows encoded.
    pub windows: usize,
}

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

/// Encodes all windows; returns the effective parameters.
pub(crate) fn assert_pin_density(
    smt: &mut Smt,
    store: &mut ConstraintStore,
    design: &Design,
    scale: &ScaleInfo,
    vars: &VarMap,
    cfg: &PinDensityConfig,
) -> PinDensityInfo {
    store.family(ConstraintFamily::PinDensity);
    let lambda = resolve_lambda(design, scale, cfg);
    let beta_x = cfg.beta_x.min(scale.scaled_w);
    let beta_y = cfg.beta_y.min(scale.scaled_h);

    // Window origins: stride-stepped, always including the last position.
    let xs = window_origins(scale.scaled_w, beta_x, cfg.stride_x);
    let ys = window_origins(scale.scaled_h, beta_y, cfg.stride_y);

    let pinful: Vec<_> = design
        .cell_ids()
        .filter(|&c| design.pin_count(c) > 0)
        .collect();

    let mut windows = 0usize;
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
            // A routing-closure override tightens this one window below the
            // global threshold; clamping to `lambda` keeps the per-window
            // bound sound w.r.t. the global legality check.
            let bound = cfg.override_for(xm, ym).map_or(lambda, |l| l.min(lambda));
            // A window whose items all hold unconditionally and fit lowers
            // to nothing, so it emits no record.
            let conditional = items.iter().any(|&(t, _)| smt.pool().as_const(t).is_none());
            if conditional || total > bound {
                store.at(Provenance::Window { x: xm, y: ym });
                store.assert_at_most(items, bound);
            }
            windows += 1;
        }
    }
    PinDensityInfo {
        beta_x,
        beta_y,
        lambda,
        windows,
    }
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
