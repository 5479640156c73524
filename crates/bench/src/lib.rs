//! # ams-bench
//!
//! The experiment harness: the `report` binary runs each benchmark's
//! evaluation arms once and prints every table and figure of the paper,
//! paper-reported values next to the values measured on this
//! reproduction.
//!
//! The full pipeline per evaluation arm is: generate benchmark → place
//! (SMT w/ or w/o AMS constraints, or the manual-surrogate packer) → route
//! → extract → analyze.

use ams_netlist::Design;
use ams_place::{baseline, Placement, Placer, PlacerConfig};
use ams_route::{route, RouteResult, RouterConfig};
use ams_sim::{extract, ExtractedNet, Tech};
use std::time::Duration;

/// A fully analyzed evaluation arm.
pub struct Arm {
    /// Label ("Manual*", "w/o Cstr.", "w/ Cstr.").
    pub name: &'static str,
    /// The design variant the arm placed.
    pub design: Design,
    /// Placement result.
    pub placement: Placement,
    /// Routing result.
    pub route: RouteResult,
    /// Extracted parasitics per net.
    pub nets: Vec<Option<ExtractedNet>>,
    /// Placement wall-clock (zero for the manual surrogate).
    pub runtime: Duration,
}

impl Arm {
    /// Die area in µm².
    pub fn area_um2(&self) -> f64 {
        self.placement.area_um2(&self.design)
    }

    /// Pin-based HPWL in µm.
    pub fn hpwl_um(&self) -> f64 {
        self.placement.hpwl_um(&self.design)
    }

    /// Routed wirelength in µm.
    pub fn rwl_um(&self) -> f64 {
        self.route.wirelength_um(self.design.pitch())
    }

    /// Routed via count.
    pub fn vias(&self) -> u64 {
        self.route.vias
    }
}

/// Paper-matched presets for the two benchmarks.
pub mod presets {
    use ams_place::PlacerConfig;

    /// BUF preset: the paper's optimization loop terminates after five
    /// iterations.
    pub fn buf() -> PlacerConfig {
        let mut c = PlacerConfig::default();
        c.optimize.k_iter = 5;
        c.optimize.conflict_budget = Some(150_000);
        c
    }

    /// VCO preset: four iterations.
    pub fn vco() -> PlacerConfig {
        let mut c = PlacerConfig::default();
        c.optimize.k_iter = 4;
        c.optimize.conflict_budget = Some(150_000);
        c
    }

    /// Smaller budgets for smoke runs (`--quick`).
    pub fn quick(mut c: PlacerConfig) -> PlacerConfig {
        c.optimize.k_iter = 1;
        c.optimize.conflict_budget = Some(30_000);
        c
    }

    /// Manual-surrogate packing calibrated so the BUF area ratio lands near
    /// the paper's 1.49× (lands at ~1.39× after row quantization; the area is an input by design —
    /// only its downstream wire/parasitic effects are measured results).
    pub fn baseline_buf() -> ams_place::baseline::BaselineConfig {
        ams_place::baseline::BaselineConfig {
            utilization: 0.44,
            aspect_ratio: 1.0,
        }
    }

    /// Manual-surrogate packing for the VCO (paper ratio 1.23×; row
    /// quantization lands this reproduction at ~1.15×).
    pub fn baseline_vco() -> ams_place::baseline::BaselineConfig {
        ams_place::baseline::BaselineConfig {
            utilization: 0.68,
            aspect_ratio: 1.3,
        }
    }
}

/// Places with the SMT engine and runs the rest of the pipeline.
///
/// # Panics
///
/// Panics if placement fails or the result flunks the legality oracle
/// (the harness treats either as a broken setup).
pub fn run_smt_arm(name: &'static str, design: Design, config: PlacerConfig) -> Arm {
    let placer = Placer::new(&design, config).expect("encoding succeeds");
    let placement = placer.place().expect("placement succeeds");
    placement
        .verify(&design)
        .expect("SMT placement passes the legality oracle");
    finish_arm(name, design, placement)
}

/// Runs the manual-surrogate arm with the given packing calibration.
pub fn run_manual_arm(design: Design, config: baseline::BaselineConfig) -> Arm {
    let placement = baseline::manual_surrogate(&design, config);
    finish_arm("Manual*", design, placement)
}

fn finish_arm(name: &'static str, design: Design, placement: Placement) -> Arm {
    let runtime = placement.stats.runtime;
    let route = route(&design, &placement, RouterConfig::default());
    let nets = extract(&design, &placement, &route, &Tech::n5());
    Arm {
        name,
        design,
        placement,
        route,
        nets,
        runtime,
    }
}

/// Whether `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Prints one metric row: absolute values with ratios to the final
/// ("w/ Cstr.") column, mirroring the paper's `value (ratio)` format.
pub fn print_ratio_row(metric: &str, values: &[Option<f64>], unit: &str) {
    let base = values.last().copied().flatten().filter(|v| *v != 0.0);
    print!("| {metric:<12} |");
    for v in values {
        match (v, base) {
            (Some(v), Some(b)) => print!(" {v:>10.2} ({:>4.2}) |", v / b),
            (Some(v), None) => print!(" {v:>10.2} (  - ) |"),
            (None, _) => print!(" {:>17} |", "N/A"),
        }
    }
    println!(" {unit}");
}

/// Prints a table header for the standard three-arm comparison.
pub fn print_arm_header(title: &str) {
    println!("\n### {title}");
    println!("| metric       | Manual*           | w/o Cstr.         | w/ Cstr.          | unit");
    println!("|--------------|-------------------|-------------------|-------------------|------");
}

/// The paper's reported numbers, for side-by-side printing.
pub mod paper {
    /// Table III (BUF) rows: area µm², HPWL µm, RWL µm, vias, runtime s;
    /// columns [Manual, w/o, w/], `None` where the paper prints N/A.
    pub const TABLE3: [[Option<f64>; 3]; 5] = [
        [Some(56.64), Some(38.09), Some(38.09)],
        [None, Some(95.07), Some(70.22)],
        [None, Some(134.33), Some(82.90)],
        [None, Some(326.0), Some(300.0)],
        [None, Some(798.54), Some(116.18)],
    ];

    /// Table V (VCO) rows, same layout.
    pub const TABLE5: [[Option<f64>; 3]; 5] = [
        [Some(68.89), Some(56.14), Some(56.14)],
        [None, Some(231.82), Some(147.90)],
        [None, Some(292.32), Some(155.45)],
        [None, Some(576.0), Some(361.0)],
        [None, Some(205.90), Some(110.26)],
    ];

    /// Table VI: supply mV → (power µW, frequency GHz) per arm
    /// [Manual, w/o, w/].
    pub const TABLE6: [(u32, [(f64, f64); 3]); 6] = [
        (650, [(304.4, 3.02), (302.2, 2.76), (300.2, 3.08)]),
        (700, [(398.8, 3.28), (395.1, 2.97), (392.7, 3.34)]),
        (750, [(507.5, 3.49), (501.2, 3.15), (499.6, 3.55)]),
        (800, [(632.4, 3.67), (622.2, 3.28), (621.6, 3.73)]),
        (850, [(774.6, 3.83), (759.7, 3.39), (758.5, 3.88)]),
        (900, [(936.0, 3.96), (912.6, 3.48), (914.4, 4.00)]),
    ];

    /// Table IV: per-stage insertion-delay averages, ps; rows stages 1–4,
    /// OUT, Total; columns [Manual, w/o, w/].
    pub const TABLE4_DELAY_AVG: [[f64; 3]; 6] = [
        [12.3, 10.3, 9.5],
        [12.0, 11.9, 10.5],
        [12.4, 12.3, 11.8],
        [9.4, 11.0, 10.1],
        [35.8, 35.8, 35.2],
        [82.0, 81.4, 77.2],
    ];
}
