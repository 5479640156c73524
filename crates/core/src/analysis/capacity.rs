//! Geometric diagnostics: the capacity proofs of
//! [`super::presolve`] rendered as `AMS-E008`–`AMS-E011`, plus the QF_BV
//! bit-width overflow check (E012) and the utilization warning (W004).
//! Every error here is a *necessary* condition — a flagged design is
//! provably unsatisfiable, never merely suspicious.

use super::presolve::PresolveConflict;
use crate::ir::{ConstraintFamily, Provenance};
use crate::scale::{bits_for, ScaleInfo};
use ams_netlist::{Design, DiagCode, Diagnostic, LintReport, RegionId};

pub(crate) fn check(
    design: &Design,
    scale: &ScaleInfo,
    proofs: &[PresolveConflict],
    report: &mut LintReport,
) {
    for proof in proofs {
        if let Some(d) = render(design, proof) {
            report.push(d);
        }
    }
    check_bit_widths(design, scale, report);
    check_utilization(design, report);
}

/// Renders one capacity proof under its lint code: region candidates
/// (E008), die area (E009), power-band stacking (E010), and per-cell or
/// aggregate-window pin counts (E011). Symmetry parity has no lint code;
/// the placer's presolve fast path reports it.
fn render(design: &Design, proof: &PresolveConflict) -> Option<Diagnostic> {
    use ConstraintFamily::{CoreGeometry, PinDensity, PowerAbutment};
    let at = |code, kind: &str, name: &str| {
        Diagnostic::new(code, format!("{} ({kind} '{name}')", proof.detail)).entity(name)
    };
    let region = |r: RegionId| design.region(r).name.as_str();
    let diagnostic = match (proof.family, proof.site) {
        (CoreGeometry, Provenance::Region(r)) => {
            at(DiagCode::RegionInfeasible, "region", region(r)).suggest(
                "raise die_slack, lower the region or global utilization, or shrink the \
                 region's edge reservation",
            )
        }
        (CoreGeometry, _) => Diagnostic::new(DiagCode::DieOverflow, proof.detail.clone())
            .entities(design.regions().iter().map(|r| r.name.clone()))
            .suggest("raise die_slack or lower utilization to grow the die"),
        (PowerAbutment, Provenance::PowerRegion(r)) => at(
            DiagCode::PowerRowOverflow,
            "power bands of region",
            region(r),
        )
        .suggest(
            "lower the region utilization (taller candidates) or reduce the number of \
             power groups in the region",
        ),
        (PinDensity, Provenance::Cell(c)) => {
            at(DiagCode::PinDensityInfeasible, "cell", &design.cell(c).name).suggest(
                "raise lambda to at least the cell's pin count, or use the auto threshold \
                 (lambda = None)",
            )
        }
        (PinDensity, _) => Diagnostic::new(DiagCode::PinDensityInfeasible, proof.detail.clone())
            .suggest("raise lambda, or use the auto threshold (lambda = None)"),
        _ => return None,
    };
    Some(diagnostic)
}

/// `AMS-E012`: the QF_BV encoding caps terms at 64 bits; oversized die
/// dimensions or net-weight sums would silently truncate (Eq. 3).
fn check_bit_widths(design: &Design, scale: &ScaleInfo, report: &mut LintReport) {
    // Mirrors encode::wirelength: Φ is span + log2(total weight) + 2 wide.
    let total_weight: u64 = design
        .net_ids()
        .filter(|&n| design.net_degree(n) >= 2)
        .map(|n| u64::from(design.net(n).weight.max(1)))
        .sum();
    if total_weight > u64::from(u32::MAX) {
        report.push(
            Diagnostic::new(
                DiagCode::BitWidthOverflow,
                format!(
                    "total net weight {total_weight} exceeds the 32-bit range of the \
                     wirelength scaling; Φ's bit width would truncate",
                ),
            )
            .suggest("reduce net weights; only their ratios matter to the optimizer"),
        );
        return;
    }
    let span_w = scale.lx.max(scale.ly);
    let phi_w = span_w + bits_for(total_weight.max(1) as u32) + 2;
    // The widest auxiliary terms: Φ itself and the doubled symmetry axes.
    let widest = phi_w.max(scale.lx + 2).max(scale.ly + 2);
    if widest > 64 {
        report.push(
            Diagnostic::new(
                DiagCode::BitWidthOverflow,
                format!(
                    "the encoding needs {widest}-bit terms (die {}x{} scaled, total net \
                     weight {total_weight}) but QF_BV terms are capped at 64 bits",
                    scale.scaled_w, scale.scaled_h
                ),
            )
            .suggest("shrink the die (coarser grid pitch) or reduce net weights"),
        );
    }
}

/// `AMS-W004`: a region at utilization 1.0 admits only perfect packings.
fn check_utilization(design: &Design, report: &mut LintReport) {
    for rid in design.region_ids() {
        let r = design.region(rid);
        if r.utilization >= 1.0 && design.cells_in_region(rid).next().is_some() {
            report.push(
                Diagnostic::new(
                    DiagCode::TightUtilization,
                    format!(
                        "region '{}' is at utilization 1.0; only perfect rectangle \
                         packings of its cells are legal",
                        r.name
                    ),
                )
                .entity(&r.name)
                .suggest("allow some headroom, e.g. utilization 0.9"),
            );
        }
    }
}
