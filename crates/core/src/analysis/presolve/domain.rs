//! Interval domain analysis: sound coordinate/dimension bounds propagated
//! to a fixpoint through the core-geometry, symmetry, array, and
//! power-abutment constraint families.
//!
//! Every rule is an *over-approximation* of the corresponding encoded
//! constraint: an interval only ever shrinks by intersection with a bound
//! that every model of the constraint system satisfies. Two consequences:
//!
//! * an empty interval is a proof of infeasibility (reported with the
//!   family and provenance site of the rule that emptied it), and
//! * feeding the narrowed upper bounds into [`crate::vars`] (allocating
//!   fewer bit-vector bits per variable, zero-extended back to the full
//!   width) removes only models *outside* the feasible set — the SAT/UNSAT
//!   verdict and the legal-model set are unchanged.
//!
//! Relaxation invariance: all bounds are computed with extension margins at
//! zero (`extension_scale = 0`), which the recovery ladder's
//! `RaisePinDensity` and `RelaxExtensions` rungs can only approach from
//! above — so domains computed here stay sound across every content-only
//! re-lowering. Die widening rebuilds the placer (and re-runs this
//! analysis) from scratch. Edge reservations are never relaxed and are
//! therefore kept.

use super::PresolveConflict;
use crate::encode::region::{region_bounds, Margins, RegionBounds};
use crate::ir::{ConstraintFamily, Provenance};
use crate::power::PowerPlan;
use crate::scale::ScaleInfo;
use ams_netlist::{Design, RegionId, SymmetryAxis};

/// Inclusive bounds `[lo, hi]` on one scaled coordinate or dimension.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Smallest value any model may assign.
    pub lo: u64,
    /// Largest value any model may assign.
    pub hi: u64,
}

impl Interval {
    /// The whole range `[0, hi]`.
    fn upto(hi: u64) -> Interval {
        Interval { lo: 0, hi }
    }

    /// True when no value is admitted.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }
}

/// Bounding-box intervals of one array constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct BoxIntervals {
    pub xl: Interval,
    pub xh: Interval,
    pub yl: Interval,
    pub yh: Interval,
}

/// Narrowed variable domains of one instance, aligned index-for-index with
/// the crate-internal variable map. Opaque outside the crate: consumers go
/// through [`super::presolve`] / the placer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Domains {
    pub(crate) cell_x: Vec<Interval>,
    pub(crate) cell_y: Vec<Interval>,
    pub(crate) region_x: Vec<Interval>,
    pub(crate) region_y: Vec<Interval>,
    pub(crate) region_w: Vec<Interval>,
    pub(crate) region_h: Vec<Interval>,
    /// Doubled axis position per symmetry group; children carry a copy of
    /// their root's interval (the variables alias the root's term).
    pub(crate) sym_axis2: Vec<Interval>,
    pub(crate) array_box: Vec<BoxIntervals>,
    /// Band boundaries per mixed region, aligned with
    /// [`PowerPlan::regions`]: `bands.len() - 1` intervals each.
    pub(crate) power_bounds: Vec<Vec<Interval>>,
}

/// Intersects `iv` with `[lo, hi]`; flags `changed` and reports emptiness.
fn meet(iv: &mut Interval, lo: u64, hi: u64, changed: &mut bool) -> bool {
    let nlo = iv.lo.max(lo);
    let nhi = iv.hi.min(hi);
    if nlo != iv.lo || nhi != iv.hi {
        iv.lo = nlo;
        iv.hi = nhi;
        *changed = true;
    }
    nlo <= nhi
}

/// Resolves a shared symmetry group to its axis root.
fn resolve_root(groups: &[ams_netlist::SymmetryGroup], mut gi: usize) -> usize {
    while let Some(parent) = groups[gi].share_axis_with {
        gi = parent;
    }
    gi
}

/// `[min, max]` of a projection over a nonempty candidate list.
fn interval_over(cands: &[(u32, u32)], f: impl Fn(&(u32, u32)) -> u64) -> Interval {
    let lo = cands.iter().map(&f).min().expect("nonempty candidates");
    let hi = cands.iter().map(&f).max().expect("nonempty candidates");
    Interval { lo, hi }
}

/// Runs the interval analysis to a fixpoint.
///
/// # Errors
///
/// A [`PresolveConflict`] naming the family and provenance site whose rule
/// emptied an interval — a static proof of infeasibility.
pub(crate) fn analyze(
    design: &Design,
    scale: &ScaleInfo,
    plan: &PowerPlan,
) -> Result<Domains, PresolveConflict> {
    let die_w = u64::from(scale.scaled_w);
    let die_h = u64::from(scale.scaled_h);
    let nr = design.regions().len();

    // Eq. 4–5 bounds at zero extension margins: a superset of the
    // candidate set under any recovery-ladder margin scale (module docs).
    let mut facts: Vec<RegionBounds> = Vec::with_capacity(nr);
    for rid in design.region_ids() {
        let bounds = region_bounds(design, scale, rid, Margins::default());
        if bounds.candidates.is_empty() {
            return Err(PresolveConflict::new(
                ConstraintFamily::CoreGeometry,
                Provenance::Region(rid),
                format!(
                    "no feasible dimension candidates for target area {} even at zero \
                     extension margins",
                    scale.region_target[rid.index()]
                ),
            ));
        }
        facts.push(bounds);
    }

    let mut d = Domains {
        cell_x: design
            .cell_ids()
            .map(|c| Interval::upto(die_w.saturating_sub(u64::from(scale.width_of(c)))))
            .collect(),
        cell_y: design
            .cell_ids()
            .map(|c| Interval::upto(die_h.saturating_sub(u64::from(scale.height_of(c)))))
            .collect(),
        region_x: (0..nr).map(|_| Interval::upto(die_w)).collect(),
        region_y: (0..nr).map(|_| Interval::upto(die_h)).collect(),
        region_w: facts
            .iter()
            .map(|f| interval_over(&f.candidates, |&(w, _)| u64::from(w)))
            .collect(),
        region_h: facts
            .iter()
            .map(|f| interval_over(&f.candidates, |&(_, h)| u64::from(h)))
            .collect(),
        sym_axis2: design
            .constraints()
            .symmetry
            .iter()
            .map(|g| match g.axis {
                SymmetryAxis::Vertical => Interval::upto(2 * die_w),
                SymmetryAxis::Horizontal => Interval::upto(2 * die_h),
            })
            .collect(),
        array_box: design
            .constraints()
            .arrays
            .iter()
            .map(|_| BoxIntervals {
                xl: Interval::upto(die_w),
                xh: Interval::upto(die_w),
                yl: Interval::upto(die_h),
                yh: Interval::upto(die_h),
            })
            .collect(),
        power_bounds: plan
            .regions
            .iter()
            .map(|p| vec![Interval::upto(die_h); p.bands.len().saturating_sub(1)])
            .collect(),
    };

    // Rules only intersect, so the loop is monotone and terminates; the cap
    // is a safety net against pathological slow convergence.
    let mut changed = true;
    let mut iters = 0u32;
    while changed && iters < 64 {
        changed = false;
        iters += 1;
        propagate_regions(design, scale, &facts, &mut d, &mut changed)?;
        propagate_containment(design, scale, &mut d, &mut changed)?;
        propagate_symmetry(design, scale, &mut d, &mut changed)?;
        propagate_arrays(design, scale, &mut d, &mut changed)?;
        propagate_power(design, scale, plan, &mut d, &mut changed)?;
    }
    Ok(d)
}

/// Region dimension-candidate filtering (Eq. 4–5) and the edge-reserved
/// in-die placement window: `x_r >= D_x` and `x_r + w_r + D_x <= W̃`.
fn propagate_regions(
    _design: &Design,
    scale: &ScaleInfo,
    facts: &[RegionBounds],
    d: &mut Domains,
    changed: &mut bool,
) -> Result<(), PresolveConflict> {
    let die_w = u64::from(scale.scaled_w);
    let die_h = u64::from(scale.scaled_h);
    for (ri, f) in facts.iter().enumerate() {
        let site = Provenance::Region(RegionId::from_index(ri));
        let conflict = |what: &str| {
            PresolveConflict::new(
                ConstraintFamily::CoreGeometry,
                site,
                format!("{what} interval is empty"),
            )
        };
        // Filter the candidate pairs by the current width/height intervals;
        // the disjunction (Eq. 5) forces the model onto one of them.
        let live: Vec<(u32, u32)> = f
            .candidates
            .iter()
            .copied()
            .filter(|&(w, h)| {
                let (w, h) = (u64::from(w), u64::from(h));
                w >= d.region_w[ri].lo
                    && w <= d.region_w[ri].hi
                    && h >= d.region_h[ri].lo
                    && h <= d.region_h[ri].hi
            })
            .collect();
        if live.is_empty() {
            return Err(conflict("region dimension-candidate"));
        }
        let wb = interval_over(&live, |&(w, _)| u64::from(w));
        let hb = interval_over(&live, |&(_, h)| u64::from(h));
        if !meet(&mut d.region_w[ri], wb.lo, wb.hi, changed) {
            return Err(conflict("region width"));
        }
        if !meet(&mut d.region_h[ri], hb.lo, hb.hi, changed) {
            return Err(conflict("region height"));
        }
        // Placement window with edge reservations (never relaxed).
        let m = f.margins;
        let x_hi = die_w.saturating_sub(u64::from(m.right) + d.region_w[ri].lo);
        if !meet(&mut d.region_x[ri], u64::from(m.left), x_hi, changed) {
            return Err(conflict("region x"));
        }
        let y_hi = die_h.saturating_sub(u64::from(m.top) + d.region_h[ri].lo);
        if !meet(&mut d.region_y[ri], u64::from(m.bottom), y_hi, changed) {
            return Err(conflict("region y"));
        }
    }
    Ok(())
}

/// Cell-in-region containment (Eq. 7), forward and backward.
fn propagate_containment(
    design: &Design,
    scale: &ScaleInfo,
    d: &mut Domains,
    changed: &mut bool,
) -> Result<(), PresolveConflict> {
    for c in design.cell_ids() {
        let ci = c.index();
        let ri = design.cell(c).region.index();
        let w = u64::from(scale.width_of(c));
        let h = u64::from(scale.height_of(c));
        let site = Provenance::Cell(c);
        let conflict = |what: &str| {
            PresolveConflict::new(
                ConstraintFamily::CoreGeometry,
                site,
                format!("{what} interval is empty under region containment"),
            )
        };

        // Forward: x_r <= x_v and x_v + w_v <= x_r + w_r.
        let x_hi = (d.region_x[ri].hi + d.region_w[ri].hi).saturating_sub(w);
        if !meet(&mut d.cell_x[ci], d.region_x[ri].lo, x_hi, changed) {
            return Err(conflict("cell x"));
        }
        let y_hi = (d.region_y[ri].hi + d.region_h[ri].hi).saturating_sub(h);
        if !meet(&mut d.cell_y[ci], d.region_y[ri].lo, y_hi, changed) {
            return Err(conflict("cell y"));
        }

        // Backward: the region must reach the cell.
        let rx_lo = (d.cell_x[ci].lo + w).saturating_sub(d.region_w[ri].hi);
        if !meet(&mut d.region_x[ri], rx_lo, d.cell_x[ci].hi, changed) {
            return Err(conflict("region x"));
        }
        let ry_lo = (d.cell_y[ci].lo + h).saturating_sub(d.region_h[ri].hi);
        if !meet(&mut d.region_y[ri], ry_lo, d.cell_y[ci].hi, changed) {
            return Err(conflict("region y"));
        }
        let rw_lo = (d.cell_x[ci].lo + w).saturating_sub(d.region_x[ri].hi);
        if !meet(&mut d.region_w[ri], rw_lo, u64::MAX, changed) {
            return Err(conflict("region width"));
        }
        let rh_lo = (d.cell_y[ci].lo + h).saturating_sub(d.region_y[ri].hi);
        if !meet(&mut d.region_h[ri], rh_lo, u64::MAX, changed) {
            return Err(conflict("region height"));
        }
    }
    Ok(())
}

/// Hierarchical symmetry (Eq. 8): self pairs `2x + w = axis2`, mirror pairs
/// `x_a + x_b + w_a = axis2` with the cross coordinate equal.
fn propagate_symmetry(
    design: &Design,
    scale: &ScaleInfo,
    d: &mut Domains,
    changed: &mut bool,
) -> Result<(), PresolveConflict> {
    let groups = &design.constraints().symmetry;
    for (gi, g) in groups.iter().enumerate() {
        let root = resolve_root(groups, gi);
        let site = Provenance::SymmetryGroup(gi);
        let conflict = |what: &str| {
            PresolveConflict::new(
                ConstraintFamily::Symmetry,
                site,
                format!("{what} interval is empty under the symmetry axis"),
            )
        };
        for p in &g.pairs {
            let a = p.a.index();
            // Coordinates along the symmetry direction and across it.
            let vertical = g.axis == SymmetryAxis::Vertical;
            let (wa, main_a) = if vertical {
                (u64::from(scale.width_of(p.a)), a)
            } else {
                (u64::from(scale.height_of(p.a)), a)
            };
            // Split borrows: the main-axis cell intervals and the axis.
            macro_rules! main {
                ($i:expr) => {
                    if vertical {
                        &mut d.cell_x[$i]
                    } else {
                        &mut d.cell_y[$i]
                    }
                };
            }
            macro_rules! main_ro {
                ($i:expr) => {
                    if vertical {
                        d.cell_x[$i]
                    } else {
                        d.cell_y[$i]
                    }
                };
            }
            match p.b {
                None => {
                    // 2x + w = axis2.
                    let xa = main_ro!(main_a);
                    let ax = &mut d.sym_axis2[root];
                    if !meet(ax, 2 * xa.lo + wa, 2 * xa.hi + wa, changed) {
                        return Err(conflict("axis"));
                    }
                    let ax = d.sym_axis2[root];
                    if ax.hi < wa {
                        return Err(conflict("self-symmetric cell"));
                    }
                    let lo = ax.lo.saturating_sub(wa).div_ceil(2);
                    let hi = (ax.hi - wa) / 2;
                    if !meet(main!(main_a), lo, hi, changed) {
                        return Err(conflict("self-symmetric cell"));
                    }
                }
                Some(b) => {
                    let bi = b.index();
                    // x_a + x_b + w_a = axis2.
                    let (xa, xb) = (main_ro!(main_a), main_ro!(bi));
                    let ax = &mut d.sym_axis2[root];
                    if !meet(ax, xa.lo + xb.lo + wa, xa.hi + xb.hi + wa, changed) {
                        return Err(conflict("axis"));
                    }
                    let ax = d.sym_axis2[root];
                    let a_lo = ax.lo.saturating_sub(wa + xb.hi);
                    let a_hi = ax.hi.saturating_sub(wa + xb.lo);
                    if !meet(main!(main_a), a_lo, a_hi, changed) {
                        return Err(conflict("mirror cell"));
                    }
                    let xa = main_ro!(main_a);
                    let b_lo = ax.lo.saturating_sub(wa + xa.hi);
                    let b_hi = ax.hi.saturating_sub(wa + xa.lo);
                    if !meet(main!(bi), b_lo, b_hi, changed) {
                        return Err(conflict("mirror cell"));
                    }
                    // Across the axis the pair shares a coordinate.
                    let (ca, cb) = if vertical {
                        (d.cell_y[a], d.cell_y[bi])
                    } else {
                        (d.cell_x[a], d.cell_x[bi])
                    };
                    let (lo, hi) = (ca.lo.max(cb.lo), ca.hi.min(cb.hi));
                    fn cross(dd: &mut Domains, vertical: bool, i: usize) -> &mut Interval {
                        if vertical {
                            &mut dd.cell_y[i]
                        } else {
                            &mut dd.cell_x[i]
                        }
                    }
                    if !meet(cross(d, vertical, a), lo, hi, changed)
                        || !meet(cross(d, vertical, bi), lo, hi, changed)
                    {
                        return Err(conflict("mirror-pair row/column"));
                    }
                }
            }
        }
    }
    // Children alias their root's axis variable: keep their recorded
    // interval in sync so width narrowing (done at the root) stays exact.
    for gi in 0..groups.len() {
        let root = resolve_root(groups, gi);
        if root != gi && d.sym_axis2[gi] != d.sym_axis2[root] {
            d.sym_axis2[gi] = d.sym_axis2[root];
        }
    }
    Ok(())
}

/// Array bounding boxes (Eq. 9–10): members sit inside the box and touch
/// every edge, in both the slot-based and the literal encoding.
fn propagate_arrays(
    design: &Design,
    scale: &ScaleInfo,
    d: &mut Domains,
    changed: &mut bool,
) -> Result<(), PresolveConflict> {
    for (ai, arr) in design.constraints().arrays.iter().enumerate() {
        if arr.cells.is_empty() {
            continue;
        }
        let site = Provenance::Array(ai);
        let conflict = |what: &str| {
            PresolveConflict::new(
                ConstraintFamily::Arrays,
                site,
                format!("array {what} interval is empty"),
            )
        };
        let (mut xl_lo, mut xl_hi) = (u64::MAX, u64::MAX);
        let (mut xh_lo, mut xh_hi) = (0u64, 0u64);
        let (mut yl_lo, mut yl_hi) = (u64::MAX, u64::MAX);
        let (mut yh_lo, mut yh_hi) = (0u64, 0u64);
        for &c in &arr.cells {
            let ci = c.index();
            let w = u64::from(scale.width_of(c));
            let h = u64::from(scale.height_of(c));
            // xl = min x, xh = max (x + w) over members (touch-edge rules).
            xl_lo = xl_lo.min(d.cell_x[ci].lo);
            xl_hi = xl_hi.min(d.cell_x[ci].hi);
            xh_lo = xh_lo.max(d.cell_x[ci].lo + w);
            xh_hi = xh_hi.max(d.cell_x[ci].hi + w);
            yl_lo = yl_lo.min(d.cell_y[ci].lo);
            yl_hi = yl_hi.min(d.cell_y[ci].hi);
            yh_lo = yh_lo.max(d.cell_y[ci].lo + h);
            yh_hi = yh_hi.max(d.cell_y[ci].hi + h);
        }
        let b = &mut d.array_box[ai];
        if !meet(&mut b.xl, xl_lo, xl_hi, changed) {
            return Err(conflict("left-edge"));
        }
        if !meet(&mut b.xh, xh_lo, xh_hi, changed) {
            return Err(conflict("right-edge"));
        }
        if !meet(&mut b.yl, yl_lo, yl_hi, changed) {
            return Err(conflict("bottom-edge"));
        }
        if !meet(&mut b.yh, yh_lo, yh_hi, changed) {
            return Err(conflict("top-edge"));
        }
        // Feedback: every member stays inside the box.
        let (bxl, bxh, byl, byh) = (b.xl, b.xh, b.yl, b.yh);
        for &c in &arr.cells {
            let ci = c.index();
            let w = u64::from(scale.width_of(c));
            let h = u64::from(scale.height_of(c));
            if !meet(&mut d.cell_x[ci], bxl.lo, bxh.hi.saturating_sub(w), changed) {
                return Err(conflict("member x"));
            }
            if !meet(&mut d.cell_y[ci], byl.lo, byh.hi.saturating_sub(h), changed) {
                return Err(conflict("member y"));
            }
        }
    }
    Ok(())
}

/// Power-abutment band stacking (Eq. 12): bands are ordered slabs of the
/// region, each at least as tall as its tallest member cell.
fn propagate_power(
    design: &Design,
    scale: &ScaleInfo,
    plan: &PowerPlan,
    d: &mut Domains,
    changed: &mut bool,
) -> Result<(), PresolveConflict> {
    for (pi, p) in plan.regions.iter().enumerate() {
        let ri = p.region.index();
        let site = Provenance::PowerRegion(p.region);
        let conflict = |what: &str| {
            PresolveConflict::new(
                ConstraintFamily::PowerAbutment,
                site,
                format!("{what} interval is empty under power-band stacking"),
            )
        };
        // Tallest member per band; PowerPlan only lists present groups.
        let maxh: Vec<u64> = p
            .bands
            .iter()
            .map(|&g| {
                design
                    .cells_in_region(p.region)
                    .filter(|&c| design.cell(c).power_group == g)
                    .map(|c| u64::from(scale.height_of(c)))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let total: u64 = maxh.iter().sum();
        if !meet(&mut d.region_h[ri], total, u64::MAX, changed) {
            return Err(conflict("region height"));
        }
        let region_top_hi = d.region_y[ri].hi + d.region_h[ri].hi;
        let last = p.bands.len() - 1;
        // Band boundaries: bounds[k] separates band k from band k + 1.
        for k in 0..last {
            let prefix: u64 = maxh[..=k].iter().sum();
            let suffix: u64 = maxh[k + 1..].iter().sum();
            let lo = d.region_y[ri].lo + prefix;
            let hi = region_top_hi.saturating_sub(suffix);
            if !meet(&mut d.power_bounds[pi][k], lo, hi, changed) {
                return Err(conflict("band boundary"));
            }
            if k > 0 {
                let below = d.power_bounds[pi][k - 1];
                let lo = below.lo + maxh[k];
                if !meet(&mut d.power_bounds[pi][k], lo, u64::MAX, changed) {
                    return Err(conflict("band boundary"));
                }
                let above_hi = d.power_bounds[pi][k].hi.saturating_sub(maxh[k]);
                if !meet(&mut d.power_bounds[pi][k - 1], 0, above_hi, changed) {
                    return Err(conflict("band boundary"));
                }
            }
        }
        // Member cells live in their band's slab.
        for c in design.cells_in_region(p.region) {
            let Some(band) = p
                .bands
                .iter()
                .position(|&g| g == design.cell(c).power_group)
            else {
                continue;
            };
            let ci = c.index();
            let h = u64::from(scale.height_of(c));
            let lo = if band == 0 {
                d.region_y[ri].lo
            } else {
                d.power_bounds[pi][band - 1].lo
            };
            let hi = if band == last {
                region_top_hi
            } else {
                d.power_bounds[pi][band].hi
            };
            if !meet(&mut d.cell_y[ci], lo, hi.saturating_sub(h), changed) {
                return Err(conflict("band-member y"));
            }
            // Backward: the boundaries must clear the member.
            if band > 0 {
                let y_hi = d.cell_y[ci].hi;
                if !meet(&mut d.power_bounds[pi][band - 1], 0, y_hi, changed) {
                    return Err(conflict("band boundary"));
                }
            }
            if band < last {
                let y_top = d.cell_y[ci].lo + h;
                if !meet(&mut d.power_bounds[pi][band], y_top, u64::MAX, changed) {
                    return Err(conflict("band boundary"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacerConfig;
    use ams_netlist::benchmarks;

    fn domains_for(design: &Design, config: &PlacerConfig) -> Domains {
        let scale = ScaleInfo::compute(design, config);
        let plan = PowerPlan::analyze(design);
        analyze(design, &scale, &plan).expect("feasible fixture")
    }

    #[test]
    fn buf_domains_are_nonempty_and_inside_the_die() {
        let design = benchmarks::buf();
        let config = PlacerConfig::default();
        let scale = ScaleInfo::compute(&design, &config);
        let d = domains_for(&design, &config);
        for (i, iv) in d.cell_x.iter().enumerate() {
            assert!(!iv.is_empty(), "cell {i} x empty");
            assert!(iv.hi <= u64::from(scale.scaled_w));
        }
        for iv in &d.region_x {
            assert!(!iv.is_empty());
            // Edge reservations push regions off the die boundary.
            assert!(iv.lo >= 1, "BUF reserves edge sites");
        }
        // The analysis must actually narrow something relative to the die.
        assert!(
            d.cell_x.iter().any(|iv| iv.hi < u64::from(scale.scaled_w)),
            "no cell x-interval narrowed"
        );
    }

    #[test]
    fn vco_power_bands_stack_inside_the_core() {
        let design = benchmarks::vco();
        let config = PlacerConfig::default();
        let d = domains_for(&design, &config);
        // The VCO core mixes two power groups: one boundary variable whose
        // interval sits strictly inside the die height.
        assert_eq!(d.power_bounds.len(), 1);
        assert_eq!(d.power_bounds[0].len(), 1);
        let b = d.power_bounds[0][0];
        assert!(!b.is_empty());
        assert!(b.lo > 0, "boundary cleared the bottom band: {b:?}");
    }

    #[test]
    fn an_oversized_region_is_proved_infeasible() {
        // Shrink the die far below the cell area by cranking utilization
        // and removing slack headroom: candidate generation must fail.
        let design = benchmarks::buf();
        let config = PlacerConfig {
            utilization: 1.0,
            die_slack: 1.0,
            aspect_ratio: 40.0, // pathologically wide: height < tallest cell
            ..Default::default()
        };
        let scale = ScaleInfo::compute(&design, &config);
        let plan = PowerPlan::analyze(&design);
        match analyze(&design, &scale, &plan) {
            Ok(_) => {
                // Extreme aspect ratios are clamped by die sizing; accept a
                // feasible verdict only if the die really admits the region.
                assert!(scale.scaled_h >= 3, "die too short yet presolve passed");
            }
            Err(c) => {
                assert_eq!(c.family, ConstraintFamily::CoreGeometry);
            }
        }
    }
}
