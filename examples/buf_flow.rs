//! The full BUF evaluation flow: place with and without the hierarchical
//! symmetry constraints, route both, extract, and compare timing — a
//! single-binary rendition of the paper's Tables III and IV.
//!
//! ```text
//! cargo run --release --example buf_flow
//! ```

use finfet_ams_place::prelude::*;
use finfet_ams_place::route::{route, RouterConfig};
use finfet_ams_place::sim::{analyze_buf, extract, Tech};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = PlacerConfig::default();
    cfg.optimize.k_iter = 2;
    cfg.optimize.conflict_budget = Some(60_000);

    for (label, design, arm_cfg) in [
        ("w/ constraints", benchmarks::buf(), cfg.clone()),
        (
            "w/o constraints",
            benchmarks::buf().without_constraints(),
            cfg.clone(),
        ),
    ] {
        println!("=== BUF {label} ===");
        let placement = Placer::builder(&design).config(arm_cfg).build()?.place()?;
        placement.verify(&design).expect("legal placement");
        let routed = route(&design, &placement, RouterConfig::default());
        let nets = extract(&design, &placement, &routed, &Tech::n5());
        let report = analyze_buf(&design, &nets, &Tech::n5());

        println!("  area   {:.2} µm²", placement.area_um2(&design));
        println!("  HPWL   {:.2} µm", placement.hpwl_um(&design));
        println!(
            "  RWL    {:.2} µm, {} vias, overflow {}",
            routed.wirelength_um(design.pitch()),
            routed.vias,
            routed.overflow
        );
        println!(
            "  delay  {:.1} ps total (σ = {:.2} ps across the 16 paths)",
            report.total_avg_ps, report.total_sd_ps
        );
        println!("  placed in {:?}\n", placement.stats.runtime);
    }
    Ok(())
}
