//! Demonstrates every AMS constraint family on a hand-built design, renders
//! the placement as ASCII art, and shows what each family does by toggling
//! it off.
//!
//! ```text
//! cargo run --release --example custom_constraints
//! ```

use finfet_ams_place::netlist::{
    ArrayConstraint, ArrayPattern, ClusterConstraint, ExtensionConstraint, ExtensionTarget,
    SymmetryAxis, SymmetryGroup, SymmetryPair,
};
use finfet_ams_place::prelude::*;

fn build() -> Result<Design, Box<dyn std::error::Error>> {
    let mut b = DesignBuilder::new("showcase");
    let core = b.add_region("core", 0.5);
    let vdd = b.add_power_group("VDD");
    let vddl = b.add_power_group("VDDL");

    let n1 = b.add_net("n1", 1);
    let n2 = b.add_net("n2", 1);

    // A mirrored pair.
    let a = b.add_cell("amp_p", core, 4, 2, vdd);
    b.add_pin(a, "d", Some(n1), 1, 1);
    let c = b.add_cell("amp_n", core, 4, 2, vdd);
    b.add_pin(c, "d", Some(n1), 1, 1);
    b.add_symmetry(SymmetryGroup {
        name: "amp".into(),
        axis: SymmetryAxis::Vertical,
        pairs: vec![SymmetryPair::mirrored(a, c)],
        share_axis_with: None,
    });

    // A 2x2 common-centroid capacitor array.
    let caps: Vec<_> = (0..4)
        .map(|i| b.add_cell(format!("cap{i}"), core, 2, 2, vdd))
        .collect();
    b.add_pin(caps[0], "t", Some(n2), 0, 0);
    b.add_pin(caps[3], "t", Some(n2), 0, 0);
    let arr = b.add_array(ArrayConstraint {
        name: "bank".into(),
        cells: caps.clone(),
        pattern: ArrayPattern::CommonCentroid {
            group_a: vec![caps[0], caps[3]],
            group_b: vec![caps[1], caps[2]],
        },
    });

    // A clustered bias pair on the low-voltage supply.
    let b0 = b.add_cell("bias0", core, 4, 2, vddl);
    b.add_pin(b0, "d", Some(n2), 1, 1);
    let b1 = b.add_cell("bias1", core, 4, 2, vddl);
    b.add_pin(b1, "d", Some(n1), 1, 1);
    b.add_cluster(ClusterConstraint {
        name: "bias".into(),
        cells: vec![b0, b1],
        weight: 8,
    });

    // Breathing room around the capacitor bank.
    b.add_extension(ExtensionConstraint {
        target: ExtensionTarget::Array(arr),
        left: 1,
        right: 1,
        bottom: 0,
        top: 0,
    });

    Ok(b.build()?)
}

fn ascii(design: &Design, placement: &Placement) {
    let die = placement.die;
    let mut canvas = vec![vec!['.'; (die.w / 2) as usize]; (die.h / 2) as usize];
    for (i, rect) in placement.cells.iter().enumerate() {
        let tag = design.cells()[i]
            .name
            .chars()
            .next()
            .unwrap_or('?')
            .to_ascii_uppercase();
        for y in (rect.y / 2)..(rect.top() / 2) {
            for x in (rect.x / 2)..(rect.right() / 2) {
                canvas[y as usize][x as usize] = tag;
            }
        }
    }
    for row in canvas.iter().rev() {
        println!("  {}", row.iter().collect::<String>());
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = build()?;

    println!("=== all constraint families on ===");
    let mut config = PlacerConfig::fast();
    config.die_slack = 1.6; // generous sizing for a toy-scale die
    let full = Placer::builder(&design)
        .config(config.clone())
        .build()?
        .place()?;
    full.verify(&design).expect("legal");
    ascii(&design, &full);
    println!(
        "A/C mirror about one axis, caps form a dense bank, bias cells sit in\n\
         their own power rows. HPWL = {}\n",
        full.hpwl(&design)
    );

    println!("=== AMS families off (critical constraints only) ===");
    let plain_design = design.without_constraints();
    let plain = Placer::builder(&plain_design)
        .config(config)
        .build()?
        .place()?;
    plain.verify(&plain_design).expect("legal");
    ascii(&plain_design, &plain);
    println!(
        "still overlap-free and power-legal, but no matching structure.\n\
         HPWL = {}",
        plain.hpwl(&plain_design)
    );
    Ok(())
}
