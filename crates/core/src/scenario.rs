//! Deterministic parametric scenario generation for the closure corpus.
//!
//! The paper evaluates two hand-built designs (BUF, VCO); regression
//! coverage needs orders of magnitude more. This module sweeps the
//! structural dimensions those designs exercise — array matching patterns,
//! power-domain counts, symmetry-group mixes, asymmetric region loads, die
//! aspect — through a mixed-radix index decode, so scenario `i` is the same
//! design on every machine and every run. `scripts/corpus.sh` drives the
//! routing-closure loop over the whole corpus and records routed-WL /
//! iteration / DRC-clean trends in `BENCH_closure.json`; a 25-scenario
//! smoke slice runs on every CI push.
//!
//! Scenarios are sized for the quick solver profile: a handful of cells
//! per region, single-digit scaled dies, so one scenario places and routes
//! in well under a second even in debug builds.

use crate::config::PlacerConfig;
use ams_netlist::rng::SplitMix64;
use ams_netlist::{
    ArrayConstraint, ArrayPattern, CellId, Design, DesignBuilder, NetId, SymmetryAxis,
    SymmetryGroup, SymmetryPair,
};

/// Number of scenarios in the corpus: the full cross product of the sweep
/// dimensions times `SEEDS_PER_POINT` netlist seeds.
pub const CORPUS_SIZE: u32 =
    (TEMPLATES * REGIONS * DOMAINS * SYMMETRY * ARRAYS * MIX * ASPECT) * SEEDS_PER_POINT;

const TEMPLATES: u32 = 2; // buf-like, vco-like
const REGIONS: u32 = 3; // 1..=3 placement regions
const DOMAINS: u32 = 2; // 1..=2 power domains
const SYMMETRY: u32 = 3; // 0..=2 symmetry pairs per region
const ARRAYS: u32 = 3; // none, dense, common-centroid
const MIX: u32 = 2; // uniform vs asymmetric region loads
const ASPECT: u32 = 2; // square vs wide die
const SEEDS_PER_POINT: u32 = 3;

/// The decoded sweep point of one scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioParams {
    /// Corpus index this point was decoded from.
    pub index: u32,
    /// 0 = buf-like (few wide cells, chain nets), 1 = vco-like (matched
    /// pairs plus a capacitor bank).
    pub template: u32,
    /// Placement regions (1..=3).
    pub regions: u32,
    /// Power domains (1..=2), assigned per region like the VCO.
    pub domains: u32,
    /// Mirrored symmetry pairs per region (0..=2).
    pub symmetry_pairs: u32,
    /// 0 = no array, 1 = dense array, 2 = common-centroid array.
    pub array: u32,
    /// 0 = uniform region utilization, 1 = asymmetric (one dense region,
    /// one sparse with wider cells).
    pub mix: u32,
    /// 0 = square die, 1 = wide (2:1) die.
    pub aspect: u32,
    /// Netlist randomization seed for this point.
    pub seed: u64,
}

/// A corpus entry: the generated design plus the placement knobs the sweep
/// point implies (currently the die aspect ratio).
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Stable name, `scenario_<index>`.
    pub name: String,
    /// The decoded sweep point.
    pub params: ScenarioParams,
    /// The generated design.
    pub design: Design,
    /// Die aspect ratio the sweep point asks for; fold into
    /// [`PlacerConfig::aspect_ratio`] (see [`Scenario::config`]).
    pub aspect_ratio: f64,
}

impl Scenario {
    /// The base placement configuration for this scenario: `config` with
    /// the sweep point's die aspect applied.
    pub fn config(&self, mut config: PlacerConfig) -> PlacerConfig {
        config.aspect_ratio = self.aspect_ratio;
        config
    }
}

/// Decodes corpus index `index` into its sweep point.
///
/// # Panics
///
/// Panics if `index >= CORPUS_SIZE`.
pub fn params(index: u32) -> ScenarioParams {
    assert!(
        index < CORPUS_SIZE,
        "scenario index {index} out of range (corpus holds {CORPUS_SIZE})"
    );
    let mut rest = index;
    let mut take = |radix: u32| {
        let digit = rest % radix;
        rest /= radix;
        digit
    };
    let seed_slot = take(SEEDS_PER_POINT);
    let template = take(TEMPLATES);
    let regions = 1 + take(REGIONS);
    let domains = 1 + take(DOMAINS);
    let symmetry_pairs = take(SYMMETRY);
    let array = take(ARRAYS);
    let mix = take(MIX);
    let aspect = take(ASPECT);
    ScenarioParams {
        index,
        template,
        regions,
        domains,
        symmetry_pairs,
        array,
        mix,
        aspect,
        // Decorrelate the netlist RNG from the index arithmetic.
        seed: SplitMix64::new(u64::from(index) * 3 + u64::from(seed_slot)).next_u64(),
    }
}

/// Generates corpus scenario `index` (deterministic: same index, same
/// design, everywhere).
///
/// # Panics
///
/// Panics if `index >= CORPUS_SIZE`.
pub fn scenario(index: u32) -> Scenario {
    let p = params(index);
    let mut rng = SplitMix64::new(p.seed);
    let mut b = DesignBuilder::new(format!("scenario_{index}"));

    let groups: Vec<_> = (0..p.domains)
        .map(|g| b.add_power_group(format!("VDD{g}")))
        .collect();

    let mut all_cells: Vec<CellId> = Vec::new();
    let mut region_cells: Vec<Vec<CellId>> = Vec::new();
    for r in 0..p.regions {
        let utilization = match (p.mix, r) {
            (0, _) => 0.6 + 0.15 * rng.next_f64(),
            (_, 0) => 0.8, // the dense region of the asymmetric mix
            _ => 0.5,
        };
        let region = b.add_region(format!("r{r}"), utilization);
        // Each region lives on one power domain, VCO-style.
        let pg = groups[(r as usize) % groups.len()];
        let cells_here = match p.template {
            0 => 4 + rng.index(3),
            _ => 5 + rng.index(3),
        };
        let mut cells = Vec::new();
        for c in 0..cells_here {
            // buf-like scenarios lean on wide drivers; the sparse regions
            // of an asymmetric mix get extra-wide cells to stress aspect.
            let base_w = if p.template == 0 { 2 } else { 1 };
            let wide = u32::from(p.mix == 1 && r > 0);
            let width = 2 * (base_w + wide + rng.range_u64(0, 2) as u32);
            let cell = b.add_cell(format!("c{r}_{c}"), region, width, 2, pg);
            cells.push(cell);
            all_cells.push(cell);
        }
        region_cells.push(cells);
    }

    // Matched-array bank in region 0, vco-capbank-style: equal-dimension
    // cells added on top of the random ones.
    if p.array > 0 {
        let region0 = ams_netlist::RegionId::from_index(0);
        let pg = groups[0];
        let bank: Vec<CellId> = (0..4)
            .map(|k| {
                let cell = b.add_cell(format!("cap{k}"), region0, 2, 2, pg);
                all_cells.push(cell);
                cell
            })
            .collect();
        let pattern = if p.array == 1 {
            ArrayPattern::Dense
        } else {
            ArrayPattern::CommonCentroid {
                group_a: vec![bank[0], bank[3]],
                group_b: vec![bank[1], bank[2]],
            }
        };
        b.add_array(ArrayConstraint {
            name: "bank0".into(),
            cells: bank.clone(),
            pattern,
        });
        region_cells[0].extend(bank);
    }

    // Signal nets: a connectivity backbone chaining every cell (so routed
    // wirelength always means something), plus random fanout nets.
    let mut pin_count = vec![0u32; all_cells.len()];
    let wire = |b: &mut DesignBuilder,
                pin_count: &mut Vec<u32>,
                net: NetId,
                ends: &[CellId],
                tag: usize| {
        for (i, &c) in ends.iter().enumerate() {
            let k = &mut pin_count[c.index()];
            let w = b.cell_width(c);
            let (dx, dy) = (*k % w, (*k / w) % 2);
            *k += 1;
            b.add_pin(c, format!("p{tag}_{i}"), Some(net), dx, dy);
        }
    };
    for w in 0..all_cells.len().saturating_sub(1) {
        let net = b.add_net(format!("chain{w}"), 2);
        let ends = [all_cells[w], all_cells[w + 1]];
        wire(&mut b, &mut pin_count, net, &ends, w);
    }
    let fanout_nets = 2 + rng.index(4);
    for n in 0..fanout_nets {
        let degree = (2 + rng.index(3)).min(all_cells.len());
        let mut ends: Vec<CellId> = Vec::new();
        while ends.len() < degree {
            let c = all_cells[rng.index(all_cells.len())];
            if !ends.contains(&c) {
                ends.push(c);
            }
        }
        let net = b.add_net(format!("fan{n}"), 1 + rng.range_u64(0, 1) as u32);
        wire(&mut b, &mut pin_count, net, &ends, 1000 + n);
    }

    // Mirrored pairs among equal-width cells of each region.
    for (r, cells) in region_cells.iter().enumerate() {
        let mut pairs = Vec::new();
        let mut used = vec![false; cells.len()];
        'outer: for _ in 0..p.symmetry_pairs {
            for ai in 0..cells.len() {
                for bi in (ai + 1)..cells.len() {
                    if used[ai] || used[bi] || b.cell_width(cells[ai]) != b.cell_width(cells[bi]) {
                        continue;
                    }
                    pairs.push(SymmetryPair::mirrored(cells[ai], cells[bi]));
                    used[ai] = true;
                    used[bi] = true;
                    continue 'outer;
                }
            }
            break;
        }
        if !pairs.is_empty() {
            b.add_symmetry(SymmetryGroup {
                name: format!("sym_r{r}"),
                axis: SymmetryAxis::Vertical,
                pairs,
                share_axis_with: None,
            });
        }
    }

    Scenario {
        name: format!("scenario_{index}"),
        params: p,
        design: b
            .build()
            .expect("scenario generator produces valid designs"),
        aspect_ratio: if p.aspect == 0 { 1.0 } else { 2.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_at_least_a_thousand_scenarios() {
        // Recomputed from the radices so the assertion isn't a constant
        // expression: the corpus contract is ≥ 1000 scenarios.
        let radices = [TEMPLATES, REGIONS, DOMAINS, SYMMETRY, ARRAYS, MIX, ASPECT];
        let n: u32 = radices.iter().product::<u32>() * SEEDS_PER_POINT;
        assert_eq!(n, CORPUS_SIZE);
        assert!(n >= 1000, "corpus holds {n}");
    }

    #[test]
    fn scenarios_are_deterministic() {
        for index in [0, 1, 17, 431, CORPUS_SIZE - 1] {
            let a = scenario(index);
            let b = scenario(index);
            assert_eq!(a, b, "scenario {index} must be reproducible");
        }
    }

    #[test]
    fn neighboring_indices_differ() {
        assert_ne!(scenario(0).design, scenario(1).design);
        assert_ne!(scenario(0).design, scenario(SEEDS_PER_POINT).design);
    }

    #[test]
    fn sweep_dimensions_are_exercised() {
        let all: Vec<ScenarioParams> = (0..CORPUS_SIZE).map(params).collect();
        assert!(all.iter().any(|p| p.domains == 2));
        assert!(all.iter().any(|p| p.array == 2));
        assert!(all.iter().any(|p| p.regions == 3));
        assert!(all.iter().any(|p| p.symmetry_pairs == 2));
        assert!(all.iter().any(|p| p.mix == 1));
        assert!(all.iter().any(|p| p.aspect == 1));
        // Every index decodes to a unique point.
        let mut seen = std::collections::HashSet::new();
        for p in &all {
            assert!(seen.insert((
                p.template,
                p.regions,
                p.domains,
                p.symmetry_pairs,
                p.array,
                p.mix,
                p.aspect,
                p.seed
            )));
        }
    }

    #[test]
    fn generated_scenarios_build_and_describe_their_point() {
        for index in (0..CORPUS_SIZE).step_by((CORPUS_SIZE / 40) as usize) {
            let s = scenario(index);
            assert!(!s.design.cells().is_empty());
            assert_eq!(s.design.regions().len(), s.params.regions as usize);
            assert_eq!(s.design.power_groups().len() as u32, s.params.domains);
            let has_array = !s.design.constraints().arrays.is_empty();
            assert_eq!(has_array, s.params.array > 0, "scenario {index}");
        }
    }

    #[test]
    fn smoke_slice_designs_parse_back_to_themselves() {
        // The 25 evenly strided indices `scripts/corpus.sh smoke` places.
        let stride = CORPUS_SIZE / 25;
        for index in (0..25).map(|k| k * stride) {
            let design = scenario(index).design;
            let back = Design::from_json(&design.to_json()).expect("own output parses");
            assert_eq!(back, design, "scenario {index}");
        }
    }

    #[test]
    fn out_of_range_index_panics() {
        assert!(std::panic::catch_unwind(|| params(CORPUS_SIZE)).is_err());
    }
}
