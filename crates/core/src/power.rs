//! Power analysis (Section IV.A, Fig. 4).
//!
//! Before encoding, the netlist-dependent power-abutment constraints are
//! derived: within each region, cells of different power groups must occupy
//! disjoint row bands, otherwise abutting rows would short their power
//! rails. This phase decides, per region, which power groups are present
//! and in which vertical order their bands are stacked.

use ams_netlist::{Design, PowerGroupId, RegionId};

/// Power-abutment plan for one region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionPowerPlan {
    /// The region.
    pub region: RegionId,
    /// Power groups present, bottom band first. Deterministic order:
    /// descending total cell area (the dominant group sits at the bottom,
    /// minimizing rail discontinuities).
    pub bands: Vec<PowerGroupId>,
}

/// The outcome of power analysis for a whole design.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PowerPlan {
    /// Per-region plans, only for regions that mix power groups.
    pub regions: Vec<RegionPowerPlan>,
}

impl PowerPlan {
    /// Runs power analysis on a design.
    pub fn analyze(design: &Design) -> PowerPlan {
        let mut regions = Vec::new();
        for r in design.region_ids() {
            let mut area_by_group: Vec<(PowerGroupId, u64)> = Vec::new();
            for c in design.cells_in_region(r) {
                let cell = design.cell(c);
                match area_by_group
                    .iter_mut()
                    .find(|(g, _)| *g == cell.power_group)
                {
                    Some((_, a)) => *a += cell.area(),
                    None => area_by_group.push((cell.power_group, cell.area())),
                }
            }
            if area_by_group.len() > 1 {
                // Largest band at the bottom; ties broken by id for
                // determinism.
                area_by_group.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                regions.push(RegionPowerPlan {
                    region: r,
                    bands: area_by_group.into_iter().map(|(g, _)| g).collect(),
                });
            }
        }
        PowerPlan { regions }
    }

    /// Plan for one region, if it mixes power groups.
    pub fn for_region(&self, r: RegionId) -> Option<&RegionPowerPlan> {
        self.regions.iter().find(|p| p.region == r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::benchmarks;

    #[test]
    fn buf_needs_no_power_bands() {
        let plan = PowerPlan::analyze(&benchmarks::buf());
        assert!(plan.regions.is_empty());
    }

    #[test]
    fn vco_core_mixes_two_groups() {
        let d = benchmarks::vco();
        let plan = PowerPlan::analyze(&d);
        assert_eq!(plan.regions.len(), 1, "only the core region mixes groups");
        let p = &plan.regions[0];
        assert_eq!(p.bands.len(), 2);
        // The analog group dominates the core area and sits at the bottom.
        let analog = d
            .power_groups()
            .iter()
            .position(|g| g.name == "VDD_A")
            .expect("VDD_A exists");
        assert_eq!(p.bands[0].index(), analog);
        assert!(plan.for_region(p.region).is_some());
    }
}
