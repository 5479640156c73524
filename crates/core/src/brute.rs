//! Exhaustive brute-force reference placer over tiny scaled grids.
//!
//! The differential fuzzing harness needs a second, independent opinion on
//! feasibility: if the SMT placer says UNSAT, is there *really* no legal
//! placement? This module answers by exhaustive enumeration of the same
//! discrete search space the encoder reasons over — scaled grid positions,
//! Eq. 4–5 region dimension candidates, Eq. 5–7 placement bounds — while
//! deciding legality with the independent [`Placement::verify`] oracle
//! rather than any clause encoding. The shared pieces are deliberately
//! limited to *search-space derivation* ([`ScaleInfo`], the candidate
//! enumeration) and the pin-density window grid and bounds the placer
//! checks its placements against; every *constraint decision* comes from
//! the oracle, so an encoder bug and a reference bug would have to
//! coincide to slip through.
//!
//! Only viable for mini-designs (a handful of cells, single-digit scaled
//! dies): the search is exponential by design, and [`BruteLimits`] caps it.

use crate::config::PlacerConfig;
use crate::encode::pin_density::check_for;
use crate::encode::region::{dimension_candidates, region_margins};
use crate::placement::{placement_from_rects, PinDensityCheck, Placement};
use crate::scale::ScaleInfo;
use ams_netlist::{CellId, Design, Rect, RegionId};

/// Verdict of [`reference_place`].
#[derive(Debug)]
pub enum ReferenceVerdict {
    /// A legal placement exists; here is one (verified by
    /// [`Placement::verify`]).
    Feasible(Box<Placement>),
    /// The entire search space was enumerated and no candidate passes the
    /// legality oracle.
    Infeasible,
    /// The search space exceeds the limits; no verdict.
    TooLarge,
    /// The design uses a constraint family the reference does not model
    /// (extensions, arrays, multi-rail power); a comparison against the
    /// SMT placer would not be apples-to-apples.
    Unsupported(&'static str),
}

/// Exhaustion caps for [`reference_place`].
#[derive(Clone, Copy, Debug)]
pub struct BruteLimits {
    /// Maximum complete assignments submitted to the legality oracle.
    pub max_leaves: u64,
    /// Maximum search-tree node expansions.
    pub max_nodes: u64,
}

impl Default for BruteLimits {
    fn default() -> BruteLimits {
        BruteLimits {
            max_leaves: 500_000,
            max_nodes: 10_000_000,
        }
    }
}

/// Exhaustively searches for a [`Placement::verify`]-legal placement of
/// `design` in the discrete space the SMT encoding ranges over.
pub fn reference_place(
    design: &Design,
    config: &PlacerConfig,
    limits: &BruteLimits,
) -> ReferenceVerdict {
    if !design.constraints().extensions.is_empty() {
        return ReferenceVerdict::Unsupported("extension margins");
    }
    if !design.constraints().arrays.is_empty() {
        return ReferenceVerdict::Unsupported("array constraints");
    }
    if design.power_groups().len() > 1 {
        return ReferenceVerdict::Unsupported("multi-rail power abutment");
    }

    let scale = ScaleInfo::compute(design, config);
    let mut search = Search {
        design,
        config,
        scale: &scale,
        pin_density: config
            .pin_density
            .as_ref()
            .map(|pd| check_for(design, &scale, pd)),
        limits,
        region_rects: vec![Rect::new(0, 0, 0, 0); design.regions().len()],
        cell_rects: vec![Rect::new(0, 0, 0, 0); design.cells().len()],
        leaves: 0,
        nodes: 0,
        exhausted: false,
    };
    match search.place_region(0) {
        Some(placement) => ReferenceVerdict::Feasible(Box::new(placement)),
        None if search.exhausted => ReferenceVerdict::TooLarge,
        None => ReferenceVerdict::Infeasible,
    }
}

/// Scaled-unit rectangles during the search; converted to grid units only
/// at the leaves.
struct Search<'a> {
    design: &'a Design,
    config: &'a PlacerConfig,
    scale: &'a ScaleInfo,
    /// The windows a placement is verified against, built as the placer
    /// builds them.
    pin_density: Option<PinDensityCheck>,
    limits: &'a BruteLimits,
    region_rects: Vec<Rect>,
    cell_rects: Vec<Rect>,
    leaves: u64,
    nodes: u64,
    exhausted: bool,
}

impl Search<'_> {
    /// Enumerates dimension candidates and positions of region `ri` (and,
    /// recursively, all later regions, then the cells).
    fn place_region(&mut self, ri: usize) -> Option<Placement> {
        if ri == self.design.regions().len() {
            let order: Vec<CellId> = self.design.cell_ids().collect();
            return self.place_cell(&order, 0);
        }
        let rid = RegionId::from_index(ri);
        let (ex, ey) = self.scale.region_edge[ri];
        let rm = region_margins(self.design, self.scale, self.config, rid);
        let (ml, mr, mb, mt) = (ex + rm.left, ex + rm.right, ey + rm.bottom, ey + rm.top);
        let die_w = self.scale.scaled_w;
        let die_h = self.scale.scaled_h;
        let min_w = self
            .design
            .cells_in_region(rid)
            .map(|c| self.scale.width_of(c))
            .max()
            .unwrap_or(1);
        let min_h = self
            .design
            .cells_in_region(rid)
            .map(|c| self.scale.height_of(c))
            .max()
            .unwrap_or(1);
        let max_w = die_w.saturating_sub(ml + mr);
        let max_h = die_h.saturating_sub(mb + mt);
        let candidates =
            dimension_candidates(self.scale.region_target[ri], min_w, min_h, max_w, max_h);
        for (w, h) in candidates {
            for x in ml..=die_w.saturating_sub(w + mr) {
                for y in mb..=die_h.saturating_sub(h + mt) {
                    if self.bump_node() {
                        return None;
                    }
                    let rect = Rect::new(x, y, w, h);
                    // Eq. 6 pruning: pairwise separation with edge gaps.
                    let separated = (0..ri).all(|rj| {
                        let (exj, eyj) = self.scale.region_edge[rj];
                        let other = self.region_rects[rj];
                        let gx = ex + exj;
                        let gy = ey + eyj;
                        x >= other.x + other.w + gx
                            || other.x >= x + w + gx
                            || y >= other.y + other.h + gy
                            || other.y >= y + h + gy
                    });
                    if !separated {
                        continue;
                    }
                    self.region_rects[ri] = rect;
                    if let Some(p) = self.place_region(ri + 1) {
                        return Some(p);
                    }
                    if self.exhausted {
                        return None;
                    }
                }
            }
        }
        None
    }

    /// Enumerates positions of cell `order[k]` inside its region rectangle,
    /// pruning overlaps with already-placed same-region cells.
    fn place_cell(&mut self, order: &[CellId], k: usize) -> Option<Placement> {
        if k == order.len() {
            return self.check_leaf();
        }
        let c = order[k];
        let ri = self.design.cell(c).region.index();
        let region = self.region_rects[ri];
        let (w, h) = (self.scale.width_of(c), self.scale.height_of(c));
        if w > region.w || h > region.h {
            return None;
        }
        for x in region.x..=(region.x + region.w - w) {
            for y in region.y..=(region.y + region.h - h) {
                if self.bump_node() {
                    return None;
                }
                let overlaps = order[..k].iter().any(|&o| {
                    if self.design.cell(o).region.index() != ri {
                        return false;
                    }
                    let r = self.cell_rects[o.index()];
                    x < r.x + r.w && r.x < x + w && y < r.y + r.h && r.y < y + h
                });
                if overlaps {
                    continue;
                }
                self.cell_rects[c.index()] = Rect::new(x, y, w, h);
                if let Some(p) = self.place_cell(order, k + 1) {
                    return Some(p);
                }
                if self.exhausted {
                    return None;
                }
            }
        }
        None
    }

    /// Converts the scaled assignment to grid units and asks the oracle.
    fn check_leaf(&mut self) -> Option<Placement> {
        self.leaves += 1;
        if self.leaves > self.limits.max_leaves {
            self.exhausted = true;
            return None;
        }
        let (uw, uh) = (self.scale.unit_w, self.scale.unit_h);
        let cells: Vec<Rect> = self
            .design
            .cell_ids()
            .map(|c| {
                let r = self.cell_rects[c.index()];
                Rect::new(
                    r.x * uw,
                    r.y * uh,
                    self.design.cell(c).width,
                    self.design.cell(c).height,
                )
            })
            .collect();
        let regions: Vec<Rect> = self
            .region_rects
            .iter()
            .map(|r| Rect::new(r.x * uw, r.y * uh, r.w * uw, r.h * uh))
            .collect();
        let die = Rect::new(0, 0, self.scale.scaled_w * uw, self.scale.scaled_h * uh);
        let mut placement = placement_from_rects(cells, regions, die, self.scale);
        placement.pin_density = self.pin_density.clone();
        if placement.verify(self.design).is_ok() {
            return Some(placement);
        }
        None
    }

    fn bump_node(&mut self) -> bool {
        self.nodes += 1;
        if self.nodes > self.limits.max_nodes {
            self.exhausted = true;
        }
        self.exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacerConfig;
    use ams_netlist::benchmarks::{synthetic, SyntheticParams};

    fn mini(seed: u64) -> Design {
        synthetic(SyntheticParams {
            regions: 1,
            cells_per_region: 3,
            nets: 3,
            net_degree: 2,
            symmetry_pairs: 1,
            cluster_size: 0,
            seed,
        })
    }

    fn config() -> PlacerConfig {
        let mut c = PlacerConfig::fast();
        c.pin_density = None;
        c
    }

    #[test]
    fn finds_a_verified_placement_on_a_mini_design() {
        let design = mini(1);
        match reference_place(&design, &config(), &BruteLimits::default()) {
            ReferenceVerdict::Feasible(p) => assert!(p.verify(&design).is_ok()),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn impossibly_tight_die_is_infeasible() {
        let design = mini(2);
        let mut cfg = config();
        // No slack at all: the die formula floors at max cell + 2, which
        // cannot host three cells plus a feasible region candidate.
        cfg.utilization = 1.0;
        cfg.die_slack = 1.0;
        cfg.aspect_ratio = 4.0;
        match reference_place(&design, &cfg, &BruteLimits::default()) {
            ReferenceVerdict::Infeasible | ReferenceVerdict::Feasible(_) => {}
            other => panic!("expected a verdict, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_families_are_flagged() {
        let mut b = ams_netlist::DesignBuilder::new("two_rails");
        let r = b.add_region("r", 0.5);
        let vdd = b.add_power_group("VDD");
        let vddl = b.add_power_group("VDDL");
        b.add_cell("a", r, 2, 2, vdd);
        b.add_cell("b", r, 2, 2, vddl);
        let design = b.build().expect("valid");
        assert!(matches!(
            reference_place(&design, &config(), &BruteLimits::default()),
            ReferenceVerdict::Unsupported("multi-rail power abutment")
        ));
    }

    #[test]
    fn pin_density_windows_decide_legality() {
        let design = mini(1);
        let density = |lambda| {
            let mut cfg = config();
            cfg.pin_density = Some(crate::config::PinDensityConfig {
                lambda: Some(lambda),
                ..crate::config::PinDensityConfig::default()
            });
            reference_place(&design, &cfg, &BruteLimits::default())
        };
        // No window may hold a pin, yet every cell with a pin lies in one.
        assert!(matches!(density(0), ReferenceVerdict::Infeasible));
        match density(1_000) {
            ReferenceVerdict::Feasible(p) => {
                assert!(p.pin_density.is_some(), "the windows were checked");
                assert!(p.verify(&design).is_ok());
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn node_limit_yields_too_large() {
        let design = mini(4);
        let limits = BruteLimits {
            max_leaves: 1,
            max_nodes: 1,
        };
        assert!(matches!(
            reference_place(&design, &config(), &limits),
            ReferenceVerdict::TooLarge
        ));
    }
}
