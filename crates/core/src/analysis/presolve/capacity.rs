//! Capacity/counting proofs: the one geometric prover.
//!
//! Each check derives a counting bound every model must satisfy, so a
//! violation is a proof of infeasibility, attributed to the constraint
//! family and provenance site it was derived from. The linter renders
//! these proofs as its `AMS-E008`–`AMS-E011` diagnostics; the placer's
//! presolve fast path returns the first one as an infeasibility verdict.
//!
//! Region bounds are taken at the configuration's own extension margins,
//! so every proof reasons about exactly the bounds the encoder asserts.
//! Recovery rungs change the margins and λ_th, so the placer reruns the
//! proofs whenever its configuration changes.

use super::PresolveConflict;
use crate::config::PlacerConfig;
use crate::encode::pin_density::{resolve_lambda, window_origins};
use crate::encode::region::{region_bounds, region_margins, RegionBounds};
use crate::ir::{ConstraintFamily, Provenance};
use crate::power::PowerPlan;
use crate::scale::ScaleInfo;
use ams_netlist::{Design, RegionId, SymmetryAxis};
use std::cmp::Reverse;

/// Runs every counting proof and returns each failure, in a fixed order:
/// region candidates, die area, pin density (per cell, then aggregate),
/// symmetry parity, power stacking.
pub(crate) fn proofs(
    design: &Design,
    config: &PlacerConfig,
    scale: &ScaleInfo,
    plan: &PowerPlan,
) -> Vec<PresolveConflict> {
    let regions: Vec<RegionBounds> = design
        .region_ids()
        .map(|r| region_bounds(design, scale, r, region_margins(design, scale, config, r)))
        .collect();
    let mut proofs = region_candidates(scale, &regions);
    proofs.extend(die_area(scale, &regions));
    proofs.extend(pin_density(design, config, scale));
    proofs.extend(symmetry_parity(design, scale));
    proofs.extend(power_stacking(design, scale, plan, &regions));
    proofs
}

/// Eq. 4–5: a region whose target area fits no dimension candidate
/// empties the Eq. 5 disjunction.
fn region_candidates(scale: &ScaleInfo, regions: &[RegionBounds]) -> Vec<PresolveConflict> {
    (0..regions.len())
        .filter(|&ri| regions[ri].candidates.is_empty())
        .map(|ri| {
            PresolveConflict::capacity(
                ConstraintFamily::CoreGeometry,
                Provenance::Region(RegionId::from_index(ri)),
                format!(
                    "no feasible dimensions: target area {} (scaled) cannot fit between \
                     its widest/tallest cell and the {}x{} die minus its margins",
                    scale.region_target[ri], scale.scaled_w, scale.scaled_h
                ),
            )
        })
        .collect()
}

/// Area pigeonhole: regions inflated by their edge reservations are
/// pairwise disjoint (Eq. 6 separates regions by the *sum* of both
/// reservations). Extension margins keep a region off the die edge, not
/// off other regions, so every inflated region lies inside the die less
/// the smallest extension margin on each side, and the sum of their
/// minimal footprints must fit there. Moot (`None`) while some region has
/// no candidates at all.
fn die_area(scale: &ScaleInfo, regions: &[RegionBounds]) -> Option<PresolveConflict> {
    let mut need = 0u64;
    let mut shared = [u32::MAX; 4];
    for (b, &(ex, ey)) in regions.iter().zip(&scale.region_edge) {
        let m = b.margins;
        let ext = [m.left - ex, m.right - ex, m.bottom - ey, m.top - ey];
        for (s, e) in shared.iter_mut().zip(ext) {
            *s = (*s).min(e);
        }
        let (ex, ey) = (u64::from(ex), u64::from(ey));
        need += b
            .candidates
            .iter()
            .map(|&(w, h)| (u64::from(w) + 2 * ex) * (u64::from(h) + 2 * ey))
            .min()?;
    }
    let [left, right, bottom, top] = shared.map(u64::from);
    let room = u64::from(scale.scaled_w).saturating_sub(left + right)
        * u64::from(scale.scaled_h).saturating_sub(bottom + top);
    (need > room).then(|| {
        PresolveConflict::capacity(
            ConstraintFamily::CoreGeometry,
            Provenance::Design,
            format!(
                "region footprints need at least {need} scaled sites but the {}x{} die \
                 offers {room} inside the margins every region keeps",
                scale.scaled_w, scale.scaled_h
            ),
        )
    })
}

/// Window-counting proofs (Eq. 13–14). Both need *coverage* — a nonempty
/// window and a stride no larger than it, so every cell overlaps at least
/// one check window; [`window_origins`] always includes the final origin.
///
/// * Per cell: a cell contributes every pin to each window it overlaps, so
///   `|P(v)| > λ_th` dooms whichever window ends up over it. The cell with
///   the most pins is cited.
/// * Globally: summing the per-window bound over all windows gives
///   `Σ |P(v)| ≤ λ_th · #windows` — total pins beyond that cannot fit.
fn pin_density(design: &Design, config: &PlacerConfig, scale: &ScaleInfo) -> Vec<PresolveConflict> {
    let mut proofs = Vec::new();
    let Some(pd) = &config.pin_density else {
        return proofs;
    };
    let beta_x = pd.beta_x.min(scale.scaled_w);
    let beta_y = pd.beta_y.min(scale.scaled_h);
    if beta_x == 0 || beta_y == 0 || pd.stride_x > beta_x || pd.stride_y > beta_y {
        // An empty window, or a stride past the window, leaves gaps: a
        // cell could sit between windows, so neither argument applies.
        return proofs;
    }
    let lambda = resolve_lambda(design, scale, pd);
    let pins = |c| design.pin_count(c) as u64;
    let densest = design.cell_ids().max_by_key(|&c| (pins(c), Reverse(c)));
    if let Some(c) = densest.filter(|&c| pins(c) > lambda) {
        proofs.push(PresolveConflict::capacity(
            ConstraintFamily::PinDensity,
            Provenance::Cell(c),
            format!(
                "cell carries {} pins but every {beta_x}x{beta_y} window admits at most \
                 λ_th = {lambda}",
                pins(c)
            ),
        ));
    }
    let windows = window_origins(scale.scaled_w, beta_x, pd.stride_x).len() as u64
        * window_origins(scale.scaled_h, beta_y, pd.stride_y).len() as u64;
    let total: u64 = design.cell_ids().map(pins).sum();
    if total > lambda.saturating_mul(windows) {
        proofs.push(PresolveConflict::capacity(
            ConstraintFamily::PinDensity,
            Provenance::Design,
            format!(
                "{total} pins exceed the aggregate window capacity λ_th · #windows = \
                 {lambda} · {windows}"
            ),
        ));
    }
    proofs
}

/// Symmetry parity: a self-symmetric cell pins its axis parity via
/// `2·x + w = axis2`, so two self-symmetric cells on the same (shared)
/// axis with different width parities contradict (Eq. 8). Horizontal
/// groups constrain heights instead.
fn symmetry_parity(design: &Design, scale: &ScaleInfo) -> Option<PresolveConflict> {
    let groups = &design.constraints().symmetry;
    // Per resolved axis root: the parity pinned so far and who pinned it.
    let mut pinned: Vec<Option<(u64, usize)>> = vec![None; groups.len()];
    for (gi, g) in groups.iter().enumerate() {
        let mut root = gi;
        // Validation orders every parent before its children.
        while let Some(parent) = groups[root].share_axis_with {
            root = parent;
        }
        for p in &g.pairs {
            if p.b.is_some() {
                continue;
            }
            let dim = match g.axis {
                SymmetryAxis::Vertical => u64::from(scale.width_of(p.a)),
                SymmetryAxis::Horizontal => u64::from(scale.height_of(p.a)),
            };
            match pinned[root] {
                None => pinned[root] = Some((dim % 2, gi)),
                Some((parity, by)) if parity != dim % 2 => {
                    return Some(PresolveConflict::capacity(
                        ConstraintFamily::Symmetry,
                        Provenance::SymmetryGroup(gi),
                        format!(
                            "self-symmetric cell #{} needs axis parity {} but group #{by} \
                             already pinned the shared axis to parity {parity}",
                            p.a.index(),
                            dim % 2,
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
    }
    None
}

/// Power-band stacking: a mixed region must be at least as tall as the sum
/// of its bands' tallest cells (Eq. 12 stacks disjoint full-height bands),
/// but no Eq. 5 candidate may be that tall. Regions without candidates
/// are already refuted by [`region_candidates`].
fn power_stacking(
    design: &Design,
    scale: &ScaleInfo,
    plan: &PowerPlan,
    regions: &[RegionBounds],
) -> Vec<PresolveConflict> {
    plan.regions
        .iter()
        .filter_map(|p| {
            let tallest = regions[p.region.index()]
                .candidates
                .iter()
                .map(|&(_, h)| u64::from(h))
                .max()?;
            let need: u64 = p
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
                .sum();
            (need > tallest).then(|| {
                let names: Vec<&str> = p
                    .bands
                    .iter()
                    .map(|&g| design.power_groups()[g.index()].name.as_str())
                    .collect();
                PresolveConflict::capacity(
                    ConstraintFamily::PowerAbutment,
                    Provenance::PowerRegion(p.region),
                    format!(
                        "stacking {} power bands ({}) needs height {need} but the tallest \
                         region candidate is {tallest}",
                        p.bands.len(),
                        names.join(", ")
                    ),
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::benchmarks;

    /// The first failed proof, if any.
    fn check(
        design: &Design,
        config: &PlacerConfig,
        scale: &ScaleInfo,
        plan: &PowerPlan,
    ) -> Result<(), PresolveConflict> {
        match proofs(design, config, scale, plan).into_iter().next() {
            Some(c) => Err(c),
            None => Ok(()),
        }
    }

    fn ctx(design: &Design, config: &PlacerConfig) -> (ScaleInfo, PowerPlan) {
        (
            ScaleInfo::compute(design, config),
            PowerPlan::analyze(design),
        )
    }

    #[test]
    fn default_fixtures_pass_every_proof() {
        for design in [benchmarks::buf(), benchmarks::vco()] {
            let config = PlacerConfig::default();
            let (scale, plan) = ctx(&design, &config);
            assert_eq!(check(&design, &config, &scale, &plan), Ok(()));
        }
    }

    #[test]
    fn lambda_zero_fails_the_per_cell_count() {
        let design = benchmarks::buf();
        let mut config = PlacerConfig::default();
        config.pin_density.as_mut().expect("default has pd").lambda = Some(0);
        let (scale, plan) = ctx(&design, &config);
        let c = check(&design, &config, &scale, &plan).expect_err("λ_th = 0");
        assert_eq!(c.family, ConstraintFamily::PinDensity);
        assert!(matches!(c.site, Provenance::Cell(_)));
    }

    #[test]
    fn aggregate_window_capacity_catches_low_lambda() {
        // λ_th = 1 passes no per-cell check only if every cell has ≤ 1 pin;
        // BUF cells have several, so the per-cell proof fires first — use a
        // wide stride-uncovered config to show the guard disables proofs.
        let design = benchmarks::buf();
        let mut config = PlacerConfig::default();
        {
            let pd = config.pin_density.as_mut().expect("default has pd");
            pd.lambda = Some(0);
            pd.stride_x = 1000; // beyond β_x: no coverage, proofs must not fire
        }
        let (scale, plan) = ctx(&design, &config);
        assert_eq!(check(&design, &config, &scale, &plan), Ok(()));
    }

    #[test]
    fn mismatched_self_symmetry_parity_is_caught() {
        use ams_netlist::{DesignBuilder, SymmetryGroup, SymmetryPair};
        let mut b = DesignBuilder::new("parity");
        let vdd = b.add_power_group("VDD");
        let r = b.add_region("top", 0.9);
        // Widths 2 and 3 share unit GCD 1 → scaled parities differ.
        let a = b.add_cell("a", r, 2, 1, vdd);
        let c = b.add_cell("c", r, 3, 1, vdd);
        b.add_symmetry(SymmetryGroup {
            name: "s".into(),
            axis: SymmetryAxis::Vertical,
            pairs: vec![
                SymmetryPair::self_symmetric(a),
                SymmetryPair::self_symmetric(c),
            ],
            share_axis_with: None,
        });
        let design = b.build().expect("valid design");
        let config = PlacerConfig::default();
        let (scale, plan) = ctx(&design, &config);
        let err = check(&design, &config, &scale, &plan).expect_err("parity conflict");
        assert_eq!(err.family, ConstraintFamily::Symmetry);
    }
}
