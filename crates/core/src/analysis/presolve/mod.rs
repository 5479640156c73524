//! Static presolve: decide or tighten an instance before the solver runs.
//!
//! Three cooperating passes over the design and [`crate::ir`] constraint
//! families:
//!
//! 1. **Interval domain analysis** (`domain`) — abstract interpretation
//!    of the core-geometry, symmetry, array, and power-abutment constraint
//!    families over coordinate intervals, run to a fixpoint. The narrowed
//!    upper bounds feed the variable allocator, which hands out fewer
//!    bit-vector bits per variable so the lowered CNF shrinks.
//! 2. **Capacity/counting proofs** (`capacity`) — region candidates and
//!    area pigeonhole (Eq. 4–6), pin-density window counting (Eq. 13–14),
//!    symmetry parity, and power-band stacking. Each is a *necessary*
//!    condition: a violation is a proof of infeasibility, reported with
//!    family + provenance so the placer can fail fast (or climb the
//!    recovery ladder) without a CDCL run. This pass is the repo's only
//!    geometric prover: the linter renders its proofs as diagnostics
//!    ([`crate::analysis::lint`]).
//! 3. **Lowering well-formedness** (`validate_lowering`) — selector
//!    discipline after every lower/retire/re-lower, run under
//!    `debug_assertions` in the placer and as an explicit CI check.
//!
//! Soundness: every domain rule and capacity proof over-approximates the
//! feasible set, so presolve can never declare UNSAT on a satisfiable
//! instance, and pruning can never remove a legal placement.

mod capacity;
mod domain;
mod validate;

pub use domain::{Domains, Interval};

pub(crate) use capacity::proofs as capacity_proofs;
pub(crate) use validate::validate_lowering;

use crate::config::PlacerConfig;
use crate::ir::{ConstraintFamily, Provenance};
use crate::placement::PresolvePassStats;
use crate::power::PowerPlan;
use crate::scale::ScaleInfo;
use crate::vars::VarMap;
use ams_netlist::Design;
use ams_smt::Smt;

/// A static infeasibility proof: which constraint family is violated, at
/// which design site, and by which presolve pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PresolveConflict {
    /// The violated constraint family (blame unit, as in UNSAT cores).
    pub family: ConstraintFamily,
    /// The design object the violated constraint was derived from.
    pub site: Provenance,
    /// The pass that found the proof: `"domain"` or `"capacity"`.
    pub pass: &'static str,
    /// Human-readable proof sketch.
    pub detail: String,
}

impl PresolveConflict {
    /// A domain-pass conflict (an interval ran empty).
    pub(crate) fn new(
        family: ConstraintFamily,
        site: Provenance,
        detail: impl Into<String>,
    ) -> PresolveConflict {
        PresolveConflict {
            family,
            site,
            pass: "domain",
            detail: detail.into(),
        }
    }

    /// A capacity-pass conflict (a counting argument failed).
    pub(crate) fn capacity(
        family: ConstraintFamily,
        site: Provenance,
        detail: impl Into<String>,
    ) -> PresolveConflict {
        PresolveConflict {
            pass: "capacity",
            ..PresolveConflict::new(family, site, detail)
        }
    }

    /// The provenance line cited in [`crate::PlaceError::Infeasible`].
    pub fn message(&self) -> String {
        format!(
            "presolve {} pass: {} ({}, family {})",
            self.pass, self.detail, self.site, self.family
        )
    }
}

/// Presolve's overall answer for an instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PresolveVerdict {
    /// No pass found a proof of infeasibility (the instance may still be
    /// UNSAT — presolve is sound, not complete).
    Feasible,
    /// A static proof of infeasibility.
    Infeasible(PresolveConflict),
}

/// The result of running presolve on one instance.
#[derive(Clone, Debug)]
pub struct PresolveReport {
    /// Feasible-so-far or a static infeasibility proof.
    pub verdict: PresolveVerdict,
    /// Bit-vector bits the narrowed domains save versus Eq. 3 full-width
    /// allocation (0 when pruning is disabled or nothing narrowed).
    pub vars_saved_bits: u64,
    /// One entry per pass that ran, in order.
    pub passes: Vec<PresolvePassStats>,
    /// The fixpoint domains, for pruning (absent when the domain pass
    /// itself proved infeasibility).
    pub(crate) domains: Option<Domains>,
}

impl PresolveReport {
    /// True when some pass proved the instance infeasible.
    pub fn is_infeasible(&self) -> bool {
        matches!(self.verdict, PresolveVerdict::Infeasible(_))
    }

    /// The infeasibility proof, if any.
    pub fn conflict(&self) -> Option<&PresolveConflict> {
        match &self.verdict {
            PresolveVerdict::Infeasible(c) => Some(c),
            PresolveVerdict::Feasible => None,
        }
    }
}

/// Runs presolve standalone (the `amsplace lint --presolve` entry point).
///
/// Computes scaling and the power plan exactly as [`crate::Placer::new`]
/// would, runs the passes, and — when the domain pass succeeded and
/// pruning is enabled — measures the bit savings on a scratch solver
/// without bit-blasting any constraint.
pub fn presolve(design: &Design, config: &PlacerConfig) -> PresolveReport {
    let scale = ScaleInfo::compute(design, config);
    let plan = PowerPlan::for_config(design, config);
    let proofs = capacity::proofs(design, config, &scale, &plan);
    let mut report = presolve_with(design, config, &scale, &plan, &proofs);
    if config.presolve.domain_pruning {
        if let Some(domains) = &report.domains {
            let mut scratch = Smt::new();
            let vars = VarMap::create(&mut scratch, design, &scale, &plan, config, Some(domains));
            report.vars_saved_bits = vars.saved_bits;
        }
    }
    report
}

/// Runs the domain pass and reports the capacity `proofs` against
/// precomputed scaling — the placer-internal entry, which reuses its own
/// `scale`, `plan` and the proofs its lint gate already rendered.
pub(crate) fn presolve_with(
    design: &Design,
    config: &PlacerConfig,
    scale: &ScaleInfo,
    plan: &PowerPlan,
    proofs: &[PresolveConflict],
) -> PresolveReport {
    let mut passes = Vec::new();
    let domains = match domain::analyze(design, config, scale, plan) {
        Ok(d) => {
            passes.push(PresolvePassStats {
                pass: "domain",
                verdict: "feasible".into(),
                detail: format!(
                    "{} of {} coordinate intervals narrowed",
                    narrowed_count(design, scale, &d),
                    2 * design.cells().len()
                ),
            });
            Some(d)
        }
        Err(c) => {
            passes.push(PresolvePassStats {
                pass: "domain",
                verdict: "infeasible".into(),
                detail: format!("{} ({})", c.detail, c.site),
            });
            return PresolveReport {
                verdict: PresolveVerdict::Infeasible(c),
                vars_saved_bits: 0,
                passes,
                domains: None,
            };
        }
    };
    match proofs.first() {
        None => passes.push(PresolvePassStats {
            pass: "capacity",
            verdict: "feasible".into(),
            detail: "area, pin-density, symmetry-parity, and power-stacking proofs passed".into(),
        }),
        Some(c) => {
            passes.push(PresolvePassStats {
                pass: "capacity",
                verdict: "infeasible".into(),
                detail: format!("{} ({})", c.detail, c.site),
            });
            return PresolveReport {
                verdict: PresolveVerdict::Infeasible(c.clone()),
                vars_saved_bits: 0,
                passes,
                domains,
            };
        }
    }
    PresolveReport {
        verdict: PresolveVerdict::Feasible,
        vars_saved_bits: 0,
        passes,
        domains,
    }
}

/// How many cell-coordinate intervals the fixpoint narrowed past their
/// trivial die bounds (a cheap progress metric for the stats report).
fn narrowed_count(design: &Design, scale: &ScaleInfo, d: &Domains) -> usize {
    let die_w = u64::from(scale.scaled_w);
    let die_h = u64::from(scale.scaled_h);
    design
        .cell_ids()
        .map(|c| {
            let ci = c.index();
            let x0 = die_w.saturating_sub(u64::from(scale.width_of(c)));
            let y0 = die_h.saturating_sub(u64::from(scale.height_of(c)));
            usize::from(d.cell_x[ci].lo > 0 || d.cell_x[ci].hi < x0)
                + usize::from(d.cell_y[ci].lo > 0 || d.cell_y[ci].hi < y0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::benchmarks;

    #[test]
    fn buf_and_vco_presolve_feasible_by_default() {
        for design in [benchmarks::buf(), benchmarks::vco()] {
            let report = presolve(&design, &PlacerConfig::default());
            assert_eq!(report.verdict, PresolveVerdict::Feasible);
            assert_eq!(report.passes.len(), 2);
            assert!(
                report.vars_saved_bits > 0,
                "domain pruning found nothing to narrow on {}",
                design.name()
            );
        }
    }

    #[test]
    fn lambda_zero_is_proved_infeasible_by_counting() {
        let design = benchmarks::buf();
        let mut config = PlacerConfig::default();
        config.pin_density.as_mut().expect("default has pd").lambda = Some(0);
        let report = presolve(&design, &config);
        let c = report.conflict().expect("λ_th = 0 must be infeasible");
        assert_eq!(c.family, ConstraintFamily::PinDensity);
        assert_eq!(c.pass, "capacity");
        assert!(c.message().contains("presolve capacity pass"), "{c:?}");
    }

    #[test]
    fn disabling_pruning_reports_zero_savings() {
        let design = benchmarks::buf();
        let mut config = PlacerConfig::default();
        config.presolve.domain_pruning = false;
        let report = presolve(&design, &config);
        assert_eq!(report.vars_saved_bits, 0);
        assert_eq!(report.verdict, PresolveVerdict::Feasible);
    }
}
