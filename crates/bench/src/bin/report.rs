//! One-pass evaluation report: runs each benchmark's three arms once and
//! prints every table/figure that depends on them (Tables III+IV from the
//! BUF arms; Tables V+VI and Fig. 7 from the VCO arms), plus Table II.
//! Each SMT arm's outcome and conflict count print next to its runtime, so
//! a row cut short by its budget is visible as such.
//!
//! This is what `results/` is generated from (`--quick` for smoke runs).

use ams_bench::{
    paper, presets, print_arm_header, print_ratio_row, quick_mode, run_manual_arm, run_smt_arm, Arm,
};
use ams_netlist::benchmarks;
use ams_sim::{analyze_buf, Tech, VcoModel};

const NOMINAL_CODE: u32 = 3;

fn main() {
    // ---- Table II ----------------------------------------------------
    println!("### Table II: Statistics of the circuit benchmarks");
    println!("| Benchmark | #Regions | #Cells | #Nets | Tech             |");
    for design in [benchmarks::buf(), benchmarks::vco()] {
        let nets = design.nets().iter().filter(|n| !n.virtual_net).count();
        println!(
            "| {:<9} | {:>8} | {:>6} | {:>5} | 5nm FinFET (sim) |",
            design.name().to_uppercase(),
            design.regions().len(),
            design.cells().len(),
            nets
        );
    }
    println!("Paper: BUF 1/42/66, VCO 2/110/71.");

    // ---- BUF arms ----------------------------------------------------
    let buf_cfg = if quick_mode() {
        presets::quick(presets::buf())
    } else {
        presets::buf()
    };
    eprintln!("[report] BUF manual surrogate...");
    let bm = run_manual_arm(benchmarks::buf(), presets::baseline_buf());
    eprintln!("[report] BUF w/o constraints...");
    let bwo = run_smt_arm(
        "w/o Cstr.",
        benchmarks::buf().without_constraints(),
        buf_cfg.clone(),
    );
    eprintln!("[report] BUF w/ constraints...");
    let bw = run_smt_arm("w/ Cstr.", benchmarks::buf(), buf_cfg);

    print_table3_like(
        "Table III (measured): BUF placement metrics",
        &bm,
        &bwo,
        &bw,
    );
    print_paper_table(&paper::TABLE3, "Table III (paper)");

    // ---- Table IV ------------------------------------------------------
    let tech = Tech::n5();
    let (rm, rwo, rw) = (
        analyze_buf(&bm.design, &bm.nets, &tech),
        analyze_buf(&bwo.design, &bwo.nets, &tech),
        analyze_buf(&bw.design, &bw.nets, &tech),
    );
    println!("\n### Table IV (measured): BUF insertion delay (avg / sd, ps)");
    println!("| Stage | Manual*          | w/o Cstr.        | w/ Cstr.         |");
    for s in 0..4 {
        println!(
            "| {}     | {:>7.2} / {:<6.3} | {:>7.2} / {:<6.3} | {:>7.2} / {:<6.3} |",
            s + 1,
            rm.stages[s].delay_avg_ps,
            rm.stages[s].delay_sd_ps,
            rwo.stages[s].delay_avg_ps,
            rwo.stages[s].delay_sd_ps,
            rw.stages[s].delay_avg_ps,
            rw.stages[s].delay_sd_ps,
        );
    }
    println!(
        "| OUT   | {:>7.2} / {:<6.3} | {:>7.2} / {:<6.3} | {:>7.2} / {:<6.3} |",
        rm.out.delay_avg_ps,
        rm.out.delay_sd_ps,
        rwo.out.delay_avg_ps,
        rwo.out.delay_sd_ps,
        rw.out.delay_avg_ps,
        rw.out.delay_sd_ps,
    );
    println!(
        "| Total | {:>7.2} / {:<6.3} | {:>7.2} / {:<6.3} | {:>7.2} / {:<6.3} |",
        rm.total_avg_ps,
        rm.total_sd_ps,
        rwo.total_avg_ps,
        rwo.total_sd_ps,
        rw.total_avg_ps,
        rw.total_sd_ps,
    );
    println!("\n### Table IV (paper, delay averages ps)");
    println!("| Stage | Manual | w/o  | w/   |");
    for (row, label) in ["1", "2", "3", "4", "OUT", "Total"].iter().enumerate() {
        let [m, wo_, w_] = paper::TABLE4_DELAY_AVG[row];
        println!("| {label:<5} | {m:>6.1} | {wo_:>4.1} | {w_:>4.1} |");
    }

    // ---- VCO arms ------------------------------------------------------
    let vco_cfg = if quick_mode() {
        presets::quick(presets::vco())
    } else {
        presets::vco()
    };
    eprintln!("[report] VCO manual surrogate...");
    let vm = run_manual_arm(benchmarks::vco(), presets::baseline_vco());
    eprintln!("[report] VCO w/o constraints...");
    let vwo = run_smt_arm(
        "w/o Cstr.",
        benchmarks::vco().without_constraints(),
        vco_cfg.clone(),
    );
    eprintln!("[report] VCO w/ constraints...");
    let vw = run_smt_arm("w/ Cstr.", benchmarks::vco(), vco_cfg);

    print_table3_like("Table V (measured): VCO placement metrics", &vm, &vwo, &vw);
    print_paper_table(&paper::TABLE5, "Table V (paper)");

    // ---- Table VI -------------------------------------------------------
    let (mm, mwo, mw) = (
        VcoModel::from_layout(&vm.design, &vm.nets, tech),
        VcoModel::from_layout(&vwo.design, &vwo.nets, tech),
        VcoModel::from_layout(&vw.design, &vw.nets, tech),
    );
    println!("\n### Table VI (measured): VCO power (µW) / frequency (GHz) vs supply");
    println!("| Supply (mV) | Manual*          | w/o Cstr.        | w/ Cstr.         |");
    let mut norms = [[0.0f64; 2]; 3];
    for &(mv, _) in &paper::TABLE6 {
        let v = f64::from(mv) / 1000.0;
        let pts = [
            mm.evaluate(v, NOMINAL_CODE),
            mwo.evaluate(v, NOMINAL_CODE),
            mw.evaluate(v, NOMINAL_CODE),
        ];
        println!(
            "| {mv:>11} | {:>7.1} / {:<5.2}  | {:>7.1} / {:<5.2}  | {:>7.1} / {:<5.2}  |",
            pts[0].power_uw,
            pts[0].frequency_ghz,
            pts[1].power_uw,
            pts[1].frequency_ghz,
            pts[2].power_uw,
            pts[2].frequency_ghz,
        );
        for (i, p) in pts.iter().enumerate() {
            norms[i][0] += p.power_uw;
            norms[i][1] += p.frequency_ghz;
        }
    }
    let base = norms[2];
    print!("| Norm.       |");
    for n in norms {
        print!(" {:>7.2} / {:<5.2}  |", n[0] / base[0], n[1] / base[1]);
    }
    println!();
    println!("\n### Table VI (paper)");
    for &(mv, cols) in &paper::TABLE6 {
        println!(
            "| {mv:>11} | {:>7.1} / {:<5.2}  | {:>7.1} / {:<5.2}  | {:>7.1} / {:<5.2}  |",
            cols[0].0, cols[0].1, cols[1].0, cols[1].1, cols[2].0, cols[2].1,
        );
    }
    println!("| Norm.       | 1.02 / 0.98      | 1.00 / 0.88      | 1.00 / 1.00      |");

    // ---- Fig. 7 ----------------------------------------------------------
    println!("\n### Fig. 7 (measured): frequency (GHz) vs supply per trim code");
    println!("| code | layout   |  650mV |  700mV |  750mV |  800mV |  850mV |  900mV |");
    for code in 0..=7u32 {
        for (label, m) in [("Manual*", &mm), ("w/ Cstr.", &mw)] {
            print!("| {code:>4} | {label:<8} |");
            for p in m.supply_sweep(code) {
                print!(" {:>6.3} |", p.frequency_ghz);
            }
            println!();
        }
    }
    println!(
        "\nphase parasitics (fF/stage): manual {:.2}, w/o {:.2}, w/ {:.2}",
        mm.c_parasitic_per_stage * 1e15,
        mwo.c_parasitic_per_stage * 1e15,
        mw.c_parasitic_per_stage * 1e15
    );
}

fn print_table3_like(title: &str, manual: &Arm, wo: &Arm, w: &Arm) {
    print_arm_header(title);
    print_ratio_row(
        "Area",
        &[
            Some(manual.area_um2()),
            Some(wo.area_um2()),
            Some(w.area_um2()),
        ],
        "µm²",
    );
    print_ratio_row("HPWL", &[None, Some(wo.hpwl_um()), Some(w.hpwl_um())], "µm");
    print_ratio_row("RWL", &[None, Some(wo.rwl_um()), Some(w.rwl_um())], "µm");
    print_ratio_row(
        "VIA",
        &[None, Some(wo.vias() as f64), Some(w.vias() as f64)],
        "",
    );
    print_ratio_row(
        "Runtime",
        &[
            None,
            Some(wo.runtime.as_secs_f64()),
            Some(w.runtime.as_secs_f64()),
        ],
        "s",
    );
    for arm in [wo, w] {
        println!(
            "{}: {} after {} conflicts",
            arm.name, arm.placement.stats.outcome, arm.placement.stats.conflicts
        );
    }
    println!(
        "overflow: w/o = {}, w/ = {} (0 = routable)",
        wo.route.overflow, w.route.overflow
    );
}

fn print_paper_table(rows: &[[Option<f64>; 3]; 5], title: &str) {
    print_arm_header(title);
    let units = ["µm²", "µm", "µm", "", "s"];
    for (row, metric) in ["Area", "HPWL", "RWL", "VIA", "Runtime"].iter().enumerate() {
        print_ratio_row(metric, &rows[row], units[row]);
    }
}
