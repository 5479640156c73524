//! Net bounding boxes and the weighted total-wirelength expression `Φ`
//! (Algorithm 1, lines 1–3).
//!
//! Bounding boxes are encoded in *relaxed* form by default: `xl_n` is only
//! constrained to lie at-or-below every member and `xh_n` at-or-above, so
//! `xh_n − xl_n` over-approximates the true span. Minimization pressure from
//! `Φ < ζ·Φ'` keeps the slack tight, and the measured wirelength is always
//! recomputed from actual cell positions, so reported numbers are exact.

use crate::ir::{ConstraintFamily, ConstraintStore, Provenance};
use crate::scale::ScaleInfo;
use crate::vars::VarMap;
use ams_netlist::{CellId, Design, NetId};
use ams_smt::{Smt, Term};

/// Asserts the bounding-box constraints and returns the `Φ` expression plus
/// its bit width.
pub(crate) fn assert_wirelength(
    smt: &mut Smt,
    store: &mut ConstraintStore,
    design: &Design,
    scale: &ScaleInfo,
    vars: &VarMap,
) -> (Term, u32) {
    store.family(ConstraintFamily::Wirelength);
    let span_w = scale.lx.max(scale.ly);
    // Width of Φ: the worst case is every net spanning the die with its
    // full weight.
    let total_weight: u64 = design
        .net_ids()
        .filter(|&n| vars.net_box[n.index()].is_some())
        .map(|n| u64::from(design.net(n).weight.max(1)))
        .sum();
    let phi_w = span_w + crate::scale::bits_for(total_weight.max(1) as u32) + 2;

    let mut spans: Vec<Term> = Vec::new();
    for n in design.net_ids() {
        let Some(bx) = vars.net_box[n.index()] else {
            continue;
        };
        store.at(Provenance::Net(n));
        for c in net_cells(design, n) {
            let x = vars.cell_x[c.index()];
            let y = vars.cell_y[c.index()];
            let lo_x = smt.ule(bx.xl, x);
            store.assert(lo_x);
            let hi_x = smt.ule(x, bx.xh);
            store.assert(hi_x);
            let lo_y = smt.ule(bx.yl, y);
            store.assert(lo_y);
            let hi_y = smt.ule(y, bx.yh);
            store.assert(hi_y);
        }

        // Weighted span contribution: η_n · ((xh−xl) + (yh−yl)).
        let dx = smt.sub(bx.xh, bx.xl);
        let dy = smt.sub(bx.yh, bx.yl);
        let dx_w = smt.zext(dx, phi_w);
        let dy_w = smt.zext(dy, phi_w);
        let span = smt.add(dx_w, dy_w);
        let weight = u64::from(design.net(n).weight.max(1));
        let term = if weight == 1 {
            span
        } else {
            let wc = smt.bv_const(phi_w, weight);
            smt.mul(span, wc)
        };
        spans.push(term);
    }

    let phi = if spans.is_empty() {
        smt.bv_const(phi_w, 0)
    } else {
        smt.sum(&spans, phi_w)
    };
    (phi, phi_w)
}

/// Distinct cells on a net, in first-seen order.
pub(crate) fn net_cells(design: &Design, n: NetId) -> Vec<CellId> {
    let mut out: Vec<CellId> = Vec::new();
    for &(c, _) in design.net_connections(n) {
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// Measures the true weighted HPWL (in scaled units, cell-origin based) of
/// a model, matching what `Φ` bounds.
pub(crate) fn measure_weighted_hpwl(design: &Design, vars: &VarMap, xs: &[u64], ys: &[u64]) -> u64 {
    let mut total = 0u64;
    for n in design.net_ids() {
        if vars.net_box[n.index()].is_none() {
            continue;
        }
        let members = net_cells(design, n);
        if members.len() < 2 {
            continue;
        }
        let (mut xl, mut xh, mut yl, mut yh) = (u64::MAX, 0u64, u64::MAX, 0u64);
        for &c in &members {
            xl = xl.min(xs[c.index()]);
            xh = xh.max(xs[c.index()]);
            yl = yl.min(ys[c.index()]);
            yh = yh.max(ys[c.index()]);
        }
        let weight = u64::from(design.net(n).weight.max(1));
        total += weight * ((xh - xl) + (yh - yl));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacerConfig;
    use crate::power::PowerPlan;
    use ams_netlist::benchmarks::{self, SyntheticParams};
    use ams_netlist::rng::SplitMix64;

    /// Straight-line reference: re-derives net inclusion from the design
    /// (degree ≥ 2) and spans from raw connection lists, sharing no code
    /// with the measured path.
    fn straight_line_hpwl(design: &Design, xs: &[u64], ys: &[u64]) -> u64 {
        let mut total = 0u64;
        for n in design.net_ids() {
            if design.net_degree(n) < 2 {
                continue;
            }
            let mut cx: Vec<u64> = design
                .net_connections(n)
                .iter()
                .map(|&(c, _)| xs[c.index()])
                .collect();
            let mut cy: Vec<u64> = design
                .net_connections(n)
                .iter()
                .map(|&(c, _)| ys[c.index()])
                .collect();
            cx.sort_unstable();
            cy.sort_unstable();
            let span = (cx[cx.len() - 1] - cx[0]) + (cy[cy.len() - 1] - cy[0]);
            total += u64::from(design.net(n).weight.max(1)) * span;
        }
        total
    }

    #[test]
    fn measured_hpwl_agrees_with_straight_line_recomputation() {
        for seed in 0..8u64 {
            let design = benchmarks::synthetic(SyntheticParams {
                regions: 2,
                cells_per_region: 6,
                nets: 14,
                net_degree: 3,
                symmetry_pairs: 1,
                cluster_size: 3,
                seed,
            });
            let config = PlacerConfig::fast();
            let scale = crate::scale::ScaleInfo::compute(&design, &config);
            let plan = PowerPlan::default();
            let mut smt = Smt::new();
            let vars = VarMap::create(&mut smt, &design, &scale, &plan, None);

            // Arbitrary (not necessarily legal) positions: the measurement
            // is a pure function of coordinates, not of placement legality.
            let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00);
            let n = design.cells().len();
            let xs: Vec<u64> = (0..n).map(|_| rng.below(64)).collect();
            let ys: Vec<u64> = (0..n).map(|_| rng.below(64)).collect();

            assert_eq!(
                measure_weighted_hpwl(&design, &vars, &xs, &ys),
                straight_line_hpwl(&design, &xs, &ys),
                "HPWL measurement diverged on seed {seed}"
            );
        }
    }
}
