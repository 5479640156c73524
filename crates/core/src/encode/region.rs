//! Region constraints (Eq. 4–7) and cell non-overlap with extension margins
//! (Eq. 11).

use super::{lifted, off_const, off_var};
use crate::config::PlacerConfig;
use crate::ir::{ConstraintFamily, ConstraintStore, Provenance};
use crate::scale::ScaleInfo;
use crate::vars::VarMap;
use ams_netlist::{CellId, Design, ExtensionTarget, RegionId};
use ams_smt::{Smt, Term};

/// Per-cell extension margins in scaled units, derived from cell-target
/// extension constraints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Margins {
    pub left: u32,
    pub right: u32,
    pub bottom: u32,
    pub top: u32,
}

/// Collects the scaled per-cell margins.
pub(crate) fn cell_margins(
    design: &Design,
    scale: &ScaleInfo,
    config: &PlacerConfig,
) -> Vec<Margins> {
    let mut m = vec![Margins::default(); design.cells().len()];
    for e in &design.constraints().extensions {
        if let ExtensionTarget::Cell(c) = e.target {
            let mm = &mut m[c.index()];
            mm.left = mm.left.max(rescale(scale.scale_x_ceil(e.left), config));
            mm.right = mm.right.max(rescale(scale.scale_x_ceil(e.right), config));
            mm.bottom = mm.bottom.max(rescale(scale.scale_y_ceil(e.bottom), config));
            mm.top = mm.top.max(rescale(scale.scale_y_ceil(e.top), config));
        }
    }
    m
}

/// Applies the recovery ladder's extension-margin scale factor
/// ([`PlacerConfig::extension_scale`], 1.0 outside recovery) to a cell,
/// region or array margin.
pub(crate) fn rescale(margin: u32, config: &PlacerConfig) -> u32 {
    if config.extension_scale >= 1.0 {
        return margin;
    }
    (f64::from(margin) * config.extension_scale).floor() as u32
}

/// Scaled extra margins around a region from region-target extensions.
pub(crate) fn region_margins(
    design: &Design,
    scale: &ScaleInfo,
    config: &PlacerConfig,
    r: RegionId,
) -> Margins {
    let mut m = Margins::default();
    for e in &design.constraints().extensions {
        if e.target == ExtensionTarget::Region(r) {
            m.left = m.left.max(rescale(scale.scale_x_ceil(e.left), config));
            m.right = m.right.max(rescale(scale.scale_x_ceil(e.right), config));
            m.bottom = m.bottom.max(rescale(scale.scale_y_ceil(e.bottom), config));
            m.top = m.top.max(rescale(scale.scale_y_ceil(e.top), config));
        }
    }
    m
}

/// A region's Eq. 4–5 bounds: the margin it keeps from each die edge and
/// the dimensions that fit inside them.
#[derive(Debug)]
pub(crate) struct RegionBounds {
    /// Edge reservation plus extension margin per side, scaled.
    pub margins: Margins,
    /// Eq. 4–5 candidates `(w, h)` in scaled units; empty when the target
    /// area fits none.
    pub candidates: Vec<(u32, u32)>,
}

/// The Eq. 4–5 bounds of region `r` under extension margins `ext`: every
/// candidate is at least as wide and tall as the region's widest and
/// tallest cell and leaves the edge reservation plus `ext` free on each
/// side of the die. The encoder, the capacity proofs and the explainer
/// pass [`region_margins`]; the domain pass passes zero margins so its
/// bounds hold on every recovery rung.
pub(crate) fn region_bounds(
    design: &Design,
    scale: &ScaleInfo,
    r: RegionId,
    ext: Margins,
) -> RegionBounds {
    let ri = r.index();
    let (ex, ey) = scale.region_edge[ri];
    let margins = Margins {
        left: ex + ext.left,
        right: ex + ext.right,
        bottom: ey + ext.bottom,
        top: ey + ext.top,
    };
    // Minimum side lengths: widest/tallest member cell.
    let min_w = design
        .cells_in_region(r)
        .map(|c| scale.width_of(c))
        .max()
        .unwrap_or(1);
    let min_h = design
        .cells_in_region(r)
        .map(|c| scale.height_of(c))
        .max()
        .unwrap_or(1);
    let max_w = u64::from(scale.scaled_w)
        .saturating_sub(u64::from(margins.left) + u64::from(margins.right)) as u32;
    let max_h = u64::from(scale.scaled_h)
        .saturating_sub(u64::from(margins.bottom) + u64::from(margins.top)) as u32;
    RegionBounds {
        margins,
        candidates: dimension_candidates(scale.region_target[ri], min_w, min_h, max_w, max_h),
    }
}

/// The Eq. 4–5 candidate dimensions for a region of target area `target`.
///
/// Every returned `(w, h)` is a minimal rectangle: it covers the target
/// area, but shrinking either side by one no longer does.
pub(crate) fn dimension_candidates(
    target: u64,
    min_w: u32,
    min_h: u32,
    max_w: u32,
    max_h: u32,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for h in min_h.max(1)..=max_h {
        let w = target.div_ceil(u64::from(h)).max(u64::from(min_w));
        if w > u64::from(max_w) {
            continue;
        }
        let w = w as u32;
        let area = u64::from(w) * u64::from(h);
        // Eq. 4: minimality in both directions (allowing the clamped min
        // width to pass even when slightly non-minimal).
        let min_in_h = u64::from(w) * u64::from(h - 1) < target || h == min_h;
        let min_in_w = u64::from(w - 1) * u64::from(h) < target || w == min_w;
        if area >= target && min_in_h && min_in_w && !out.contains(&(w, h)) {
            out.push((w, h));
        }
    }
    out
}

/// Emits region dimension choice (Eq. 5), region placement bounds, and
/// pairwise region separation (Eq. 6).
pub(crate) fn assert_regions(
    smt: &mut Smt,
    store: &mut ConstraintStore,
    design: &Design,
    scale: &ScaleInfo,
    vars: &VarMap,
    config: &PlacerConfig,
) {
    store.family(ConstraintFamily::CoreGeometry);
    let (lwx, lwy) = lifted(scale);
    let die_w = u64::from(scale.scaled_w);
    let die_h = u64::from(scale.scaled_h);

    for rid in design.region_ids() {
        let ri = rid.index();
        store.at(Provenance::Region(rid));
        let ext = region_margins(design, scale, config, rid);
        let RegionBounds {
            margins,
            candidates,
        } = region_bounds(design, scale, rid, ext);
        let (ml, mr_, mb, mt) = (
            u64::from(margins.left),
            u64::from(margins.right),
            u64::from(margins.bottom),
            u64::from(margins.top),
        );

        // Eq. 5: disjunction over the candidate dimensions.
        assert!(
            !candidates.is_empty(),
            "region {ri} has no feasible dimensions; increase die slack"
        );
        let options: Vec<Term> = candidates
            .iter()
            .map(|&(w, h)| {
                let ew = smt.eq_const(vars.region_w[ri], u64::from(w));
                let eh = smt.eq_const(vars.region_h[ri], u64::from(h));
                smt.and2(ew, eh)
            })
            .collect();
        let dim = smt.or(&options);
        store.assert(dim);

        // Placement bounds with edge reservations: the region rectangle plus
        // its edge strip must fit in the die.
        let xmin = smt.bv_const(scale.lx, ml);
        let ge_x = smt.uge(vars.region_x[ri], xmin);
        store.assert(ge_x);
        let ymin = smt.bv_const(scale.ly, mb);
        let ge_y = smt.uge(vars.region_y[ri], ymin);
        store.assert(ge_y);
        let xw = off_var(smt, vars.region_x[ri], vars.region_w[ri], lwx);
        let xw_edge = off_const(smt, xw, mr_, lwx + 1);
        let die_x = smt.bv_const(lwx + 1, die_w);
        let in_x = smt.ule(xw_edge, die_x);
        store.assert(in_x);
        let yh = off_var(smt, vars.region_y[ri], vars.region_h[ri], lwy);
        let yh_edge = off_const(smt, yh, mt, lwy + 1);
        let die_y = smt.bv_const(lwy + 1, die_h);
        let in_y = smt.ule(yh_edge, die_y);
        store.assert(in_y);
    }

    // Eq. 6: pairwise non-overlap with edge reservations between regions.
    for i in 0..design.regions().len() {
        for j in (i + 1)..design.regions().len() {
            store.at(Provenance::RegionPair(
                RegionId::from_index(i),
                RegionId::from_index(j),
            ));
            let (exi, eyi) = scale.region_edge[i];
            let (exj, eyj) = scale.region_edge[j];
            let gap_x = u64::from(exi + exj);
            let gap_y = u64::from(eyi + eyj);

            let i_right = off_var(smt, vars.region_x[i], vars.region_w[i], lwx);
            let i_right = off_const(smt, i_right, gap_x, lwx + 1);
            let xj = smt.zext(vars.region_x[j], lwx + 1);
            let left_of = smt.ule(i_right, xj);

            let j_right = off_var(smt, vars.region_x[j], vars.region_w[j], lwx);
            let j_right = off_const(smt, j_right, gap_x, lwx + 1);
            let xi = smt.zext(vars.region_x[i], lwx + 1);
            let right_of = smt.ule(j_right, xi);

            let i_top = off_var(smt, vars.region_y[i], vars.region_h[i], lwy);
            let i_top = off_const(smt, i_top, gap_y, lwy + 1);
            let yj = smt.zext(vars.region_y[j], lwy + 1);
            let below = smt.ule(i_top, yj);

            let j_top = off_var(smt, vars.region_y[j], vars.region_h[j], lwy);
            let j_top = off_const(smt, j_top, gap_y, lwy + 1);
            let yi = smt.zext(vars.region_y[i], lwy + 1);
            let above = smt.ule(j_top, yi);

            let sep = smt.or(&[left_of, right_of, below, above]);
            store.assert(sep);
        }
    }
}

/// Emits cell-in-region containment (Eq. 7).
pub(crate) fn assert_containment(
    smt: &mut Smt,
    store: &mut ConstraintStore,
    design: &Design,
    scale: &ScaleInfo,
    vars: &VarMap,
) {
    store.family(ConstraintFamily::CoreGeometry);
    let (lwx, lwy) = lifted(scale);
    for c in design.cell_ids() {
        store.at(Provenance::Cell(c));
        let ri = design.cell(c).region.index();
        let (w, h) = (scale.width_of(c), scale.height_of(c));

        let low_x = smt.ule(vars.region_x[ri], vars.cell_x[c.index()]);
        store.assert(low_x);
        let cell_right = off_const(smt, vars.cell_x[c.index()], u64::from(w), lwx);
        let region_right = off_var(smt, vars.region_x[ri], vars.region_w[ri], lwx);
        let hi_x = smt.ule(cell_right, region_right);
        store.assert(hi_x);

        let low_y = smt.ule(vars.region_y[ri], vars.cell_y[c.index()]);
        store.assert(low_y);
        let cell_top = off_const(smt, vars.cell_y[c.index()], u64::from(h), lwy);
        let region_top = off_var(smt, vars.region_y[ri], vars.region_h[ri], lwy);
        let hi_y = smt.ule(cell_top, region_top);
        store.assert(hi_y);
    }
}

/// Emits pairwise cell non-overlap within each region, honoring extension
/// margins (Eq. 6 with zero reservation, adjusted per Eq. 11).
///
/// Pairs whose relative positions are already fixed by slot-mode array
/// encoding are skipped.
pub(crate) fn assert_cell_non_overlap(
    smt: &mut Smt,
    store: &mut ConstraintStore,
    design: &Design,
    scale: &ScaleInfo,
    vars: &VarMap,
    margins: &[Margins],
) {
    store.family(ConstraintFamily::CoreGeometry);
    // Cells covered by a slot-encoded array: pairs inside the same such
    // array need no explicit disjointness.
    let mut slotted_array_of: Vec<Option<usize>> = vec![None; design.cells().len()];
    for (ai, arr) in design.constraints().arrays.iter().enumerate() {
        if super::array::slots_cover_pairs(design, scale, ai) {
            for &c in &arr.cells {
                slotted_array_of[c.index()] = Some(ai);
            }
        }
    }

    let (lwx, lwy) = lifted(scale);
    let cells: Vec<CellId> = design.cell_ids().collect();
    for (idx, &a) in cells.iter().enumerate() {
        for &b in &cells[idx + 1..] {
            if design.cell(a).region != design.cell(b).region {
                continue; // region separation already prevents overlap
            }
            if let (Some(x), Some(y)) = (slotted_array_of[a.index()], slotted_array_of[b.index()]) {
                if x == y {
                    continue; // distinct slots of the same array
                }
            }
            store.at(Provenance::CellPair(a, b));
            let (wa, ha) = (scale.width_of(a), scale.height_of(a));
            let (wb, hb) = (scale.width_of(b), scale.height_of(b));
            let (ma, mb) = (margins[a.index()], margins[b.index()]);

            // Unit-site cells (common for capacitor/dummy primitives after
            // scaling) cannot partially overlap: non-overlap is just
            // position disequality, far cheaper than four comparators.
            if wa == 1
                && ha == 1
                && wb == 1
                && hb == 1
                && ma == Margins::default()
                && mb == Margins::default()
            {
                let nx = smt.ne(vars.cell_x[a.index()], vars.cell_x[b.index()]);
                let ny = smt.ne(vars.cell_y[a.index()], vars.cell_y[b.index()]);
                let distinct = smt.or2(nx, ny);
                store.assert(distinct);
                continue;
            }

            let a_right = off_const(
                smt,
                vars.cell_x[a.index()],
                u64::from(wa + ma.right + mb.left),
                lwx,
            );
            let xb = smt.zext(vars.cell_x[b.index()], lwx);
            let a_left_of_b = smt.ule(a_right, xb);

            let b_right = off_const(
                smt,
                vars.cell_x[b.index()],
                u64::from(wb + mb.right + ma.left),
                lwx,
            );
            let xa = smt.zext(vars.cell_x[a.index()], lwx);
            let b_left_of_a = smt.ule(b_right, xa);

            let a_top = off_const(
                smt,
                vars.cell_y[a.index()],
                u64::from(ha + ma.top + mb.bottom),
                lwy,
            );
            let yb = smt.zext(vars.cell_y[b.index()], lwy);
            let a_below_b = smt.ule(a_top, yb);

            let b_top = off_const(
                smt,
                vars.cell_y[b.index()],
                u64::from(hb + mb.top + ma.bottom),
                lwy,
            );
            let ya = smt.zext(vars.cell_y[a.index()], lwy);
            let b_below_a = smt.ule(b_top, ya);

            let disjoint = smt.or(&[a_left_of_b, b_left_of_a, a_below_b, b_below_a]);
            store.assert(disjoint);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_are_minimal_covers() {
        // Target 14, unconstrained sides.
        let cands = dimension_candidates(14, 1, 1, 100, 100);
        for &(w, h) in &cands {
            let area = u64::from(w) * u64::from(h);
            assert!(area >= 14);
            assert!(u64::from(w) * u64::from(h - 1) < 14 || h == 1);
            assert!(u64::from(w - 1) * u64::from(h) < 14 || w == 1);
        }
        // The classic factor ladder must be present.
        assert!(cands.contains(&(14, 1)));
        assert!(cands.contains(&(7, 2)));
        assert!(cands.contains(&(2, 7)));
        assert!(cands.contains(&(1, 14)));
    }

    #[test]
    fn candidates_respect_bounds() {
        let cands = dimension_candidates(20, 4, 2, 10, 6);
        assert!(!cands.is_empty());
        for &(w, h) in &cands {
            assert!((4..=10).contains(&w));
            assert!((2..=6).contains(&h));
        }
    }

    #[test]
    fn impossible_bounds_give_no_candidates() {
        assert!(dimension_candidates(100, 1, 1, 5, 5).is_empty());
    }
}
