//! SMT variable allocation (Table I of the paper).
//!
//! With presolve domains available, coordinate variables are allocated at
//! the narrowed width `⌈log2(hi + 1)⌉` instead of the full Eq. 3 width and
//! zero-extended back — every encoder sees a full-width term, but the
//! bit-blaster only spends bits (and downstream clauses) on values the
//! interval analysis could not rule out. Sound because the domains
//! over-approximate the feasible set: a zero-extended narrow variable can
//! take every value in `[0, 2^narrow − 1] ⊇ [lo, hi]`, so no legal model
//! is lost; comparisons against larger constants fold to false on the
//! constant high bits.

use crate::analysis::presolve::{Domains, Interval};
use crate::power::PowerPlan;
use crate::scale::ScaleInfo;
use ams_netlist::{Design, SymmetryAxis};
use ams_smt::{Smt, Term};

/// Bounding-box variables of an array constraint.
#[derive(Clone, Copy, Debug)]
pub struct BoxVars {
    /// Left edge `x^l`.
    pub xl: Term,
    /// Right edge `x^h`.
    pub xh: Term,
    /// Bottom edge `y^l`.
    pub yl: Term,
    /// Top edge `y^h`.
    pub yh: Term,
}

/// All bit-vector variables of one placement instance.
#[derive(Clone, Debug)]
pub struct VarMap {
    /// `x_v` per cell (width `L_x`).
    pub cell_x: Vec<Term>,
    /// `y_v` per cell (width `L_y`).
    pub cell_y: Vec<Term>,
    /// `x_r` per region.
    pub region_x: Vec<Term>,
    /// `y_r` per region.
    pub region_y: Vec<Term>,
    /// `w_r` per region (decided among the Eq. 5 candidates).
    pub region_w: Vec<Term>,
    /// `h_r` per region.
    pub region_h: Vec<Term>,
    /// Net bounding boxes (`None` for nets with fewer than two
    /// connections, e.g. the cleared virtual nets of a stripped design).
    pub net_box: Vec<Option<BoxVars>>,
    /// Doubled symmetry-axis position per symmetry group (`2·x_sym`;
    /// shared groups alias their parent's term).
    pub sym_axis2: Vec<Term>,
    /// Array bounding boxes, one per array constraint.
    pub array_box: Vec<BoxVars>,
    /// Power-band boundaries per mixed region, aligned with
    /// [`PowerPlan::regions`]: `bands.len() - 1` variables each.
    pub power_bounds: Vec<Vec<Term>>,
    /// Bit-vector bits saved by domain narrowing versus full Eq. 3 widths
    /// (0 without domains).
    pub saved_bits: u64,
}

/// Allocates a variable at the width its domain needs, zero-extended to
/// the full width the encoders expect.
fn narrow(smt: &mut Smt, full: u32, iv: Option<Interval>, name: String, saved: &mut u64) -> Term {
    let need = match iv {
        Some(iv) => (64 - iv.hi.leading_zeros()).max(1).min(full),
        None => full,
    };
    if need >= full {
        smt.bv_var(full, name)
    } else {
        *saved += u64::from(full - need);
        let raw = smt.bv_var(need, name);
        smt.zext(raw, full)
    }
}

impl VarMap {
    /// Allocates every variable of the instance, narrowing against
    /// `domains` when provided.
    pub fn create(
        smt: &mut Smt,
        design: &Design,
        scale: &ScaleInfo,
        plan: &PowerPlan,
        domains: Option<&Domains>,
    ) -> VarMap {
        let (lx, ly) = (scale.lx, scale.ly);
        let mut saved = 0u64;
        let dom = |f: fn(&Domains) -> &Vec<Interval>, i: usize| -> Option<Interval> {
            domains.map(|d| f(d)[i])
        };

        let cell_x = design
            .cells()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let iv = dom(|d| &d.cell_x, i);
                narrow(smt, lx, iv, format!("x_{}{i}", c.name), &mut saved)
            })
            .collect();
        let cell_y = design
            .cells()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let iv = dom(|d| &d.cell_y, i);
                narrow(smt, ly, iv, format!("y_{}{i}", c.name), &mut saved)
            })
            .collect();

        let mut region_x = Vec::new();
        let mut region_y = Vec::new();
        let mut region_w = Vec::new();
        let mut region_h = Vec::new();
        for (i, r) in design.regions().iter().enumerate() {
            let iv = dom(|d| &d.region_x, i);
            region_x.push(narrow(smt, lx, iv, format!("xr_{}{i}", r.name), &mut saved));
            let iv = dom(|d| &d.region_y, i);
            region_y.push(narrow(smt, ly, iv, format!("yr_{}{i}", r.name), &mut saved));
            let iv = dom(|d| &d.region_w, i);
            region_w.push(narrow(smt, lx, iv, format!("wr_{}{i}", r.name), &mut saved));
            let iv = dom(|d| &d.region_h, i);
            region_h.push(narrow(smt, ly, iv, format!("hr_{}{i}", r.name), &mut saved));
        }

        // Net boxes span whole-die ranges by construction (their edges chase
        // cell min/max), so they keep full width.
        let mut net_box = Vec::new();
        for n in design.net_ids() {
            if design.net_degree(n) >= 2 {
                net_box.push(Some(BoxVars {
                    xl: smt.bv_var(lx, format!("xl_n{}", n.index())),
                    xh: smt.bv_var(lx, format!("xh_n{}", n.index())),
                    yl: smt.bv_var(ly, format!("yl_n{}", n.index())),
                    yh: smt.bv_var(ly, format!("yh_n{}", n.index())),
                }));
            } else {
                net_box.push(None);
            }
        }

        // Symmetry axes: shared groups alias their root's variable. The
        // builder guarantees parents precede children, and the domain
        // analysis keeps child intervals in sync with their root's.
        let mut sym_axis2: Vec<Term> = Vec::new();
        for (gi, g) in design.constraints().symmetry.iter().enumerate() {
            let term = match g.share_axis_with {
                Some(parent) => sym_axis2[parent],
                None => {
                    let width = match g.axis {
                        SymmetryAxis::Vertical => lx + 2,
                        SymmetryAxis::Horizontal => ly + 2,
                    };
                    let iv = dom(|d| &d.sym_axis2, gi);
                    narrow(smt, width, iv, format!("axis2_g{gi}"), &mut saved)
                }
            };
            sym_axis2.push(term);
        }

        let array_box = design
            .constraints()
            .arrays
            .iter()
            .enumerate()
            .map(|(ai, _)| {
                let b = domains.map(|d| d.array_box[ai]);
                BoxVars {
                    xl: narrow(smt, lx, b.map(|b| b.xl), format!("xl_a{ai}"), &mut saved),
                    xh: narrow(smt, lx, b.map(|b| b.xh), format!("xh_a{ai}"), &mut saved),
                    yl: narrow(smt, ly, b.map(|b| b.yl), format!("yl_a{ai}"), &mut saved),
                    yh: narrow(smt, ly, b.map(|b| b.yh), format!("yh_a{ai}"), &mut saved),
                }
            })
            .collect();

        let power_bounds = plan
            .regions
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                (1..p.bands.len())
                    .map(|b| {
                        let iv = domains.map(|d| d.power_bounds[pi][b - 1]);
                        narrow(smt, ly, iv, format!("ypow_{pi}_{b}"), &mut saved)
                    })
                    .collect()
            })
            .collect();

        VarMap {
            cell_x,
            cell_y,
            region_x,
            region_y,
            region_w,
            region_h,
            net_box,
            sym_axis2,
            array_box,
            power_bounds,
            saved_bits: saved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::presolve;
    use crate::config::PlacerConfig;
    use ams_netlist::benchmarks;

    #[test]
    fn domain_narrowing_saves_bits_on_buf() {
        let design = benchmarks::buf();
        let config = PlacerConfig::default();
        let scale = ScaleInfo::compute(&design, &config);
        let plan = PowerPlan::analyze(&design);

        let mut smt = Smt::new();
        let full = VarMap::create(&mut smt, &design, &scale, &plan, None);
        assert_eq!(full.saved_bits, 0);

        let report = presolve::presolve(&design, &config);
        assert!(
            report.vars_saved_bits > 0,
            "presolve found nothing to narrow"
        );
    }
}
