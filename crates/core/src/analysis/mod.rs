//! Pre-solve constraint analysis: a static linter over a design, its
//! constraint set, and a placer configuration, plus an assumption-based
//! UNSAT explainer.
//!
//! The linter ([`lint`]) runs *before* any SMT encoding and emits
//! structured diagnostics ([`ams_netlist::LintReport`]) with stable
//! `AMS-Exxx`/`AMS-Wxxx`/`AMS-Hxxx` codes. Error-severity findings are
//! provable unsatisfiability or broken references — [`crate::Placer`]
//! refuses to encode such designs ([`crate::PlaceError::Lint`]), turning
//! late solver UNSATs and encode panics into early, actionable reports.
//! The linter proves nothing geometric itself: it renders the capacity
//! proofs of [`presolve`] as `AMS-E008`–`AMS-E011`.
//!
//! When the linter is clean but the solver still answers UNSAT, the
//! second stage ([`explain_unsat`]) solves the shared constraint IR
//! encoding under per-family selector assumptions and names the
//! conflicting constraint-family combination.

mod capacity;
pub(crate) mod configcheck;
mod explain;
pub mod presolve;

pub use crate::ir::ConstraintFamily;
pub use explain::{explain_unsat, UnsatOutcome};

use crate::config::PlacerConfig;
use crate::power::PowerPlan;
use crate::scale::ScaleInfo;
use ams_netlist::{ConstraintSet, Design, LintReport};
use presolve::PresolveConflict;

/// Lints a design's own constraint set under a configuration.
///
/// # Examples
///
/// ```
/// use ams_netlist::benchmarks;
/// use ams_place::{analysis, PlacerConfig};
///
/// let report = analysis::lint(&benchmarks::buf(), &PlacerConfig::default());
/// assert!(!report.has_errors());
/// ```
pub fn lint(design: &Design, config: &PlacerConfig) -> LintReport {
    lint_with(design, design.constraints(), config)
}

/// Lints a design against an explicit constraint set.
///
/// The structural checks ([`ams_netlist::structure::check`]) run on
/// `constraints` — which may differ from the design's own set, e.g. a
/// candidate set the [`ams_netlist::DesignBuilder`] would reject — while
/// the geometric capacity proofs use the design as built.
pub fn lint_with(
    design: &Design,
    constraints: &ConstraintSet,
    config: &PlacerConfig,
) -> LintReport {
    let scale = ScaleInfo::compute(design, config);
    let plan = PowerPlan::for_config(design, config);
    let proofs = presolve::capacity_proofs(design, config, &scale, &plan);
    lint_report(design, constraints, config, &scale, &proofs)
}

/// The linter over precomputed scaling and capacity proofs — the placer's
/// entry, which computes both once for its lint gate and presolve.
pub(crate) fn lint_report(
    design: &Design,
    constraints: &ConstraintSet,
    config: &PlacerConfig,
    scale: &ScaleInfo,
    proofs: &[PresolveConflict],
) -> LintReport {
    let mut report = LintReport::new();
    configcheck::check(config, &mut report);
    ams_netlist::structure::check(design, constraints, &mut report);
    capacity::check(design, config, scale, proofs, &mut report);
    report
}
