//! Second-stage UNSAT explanation over the shared constraint IR.
//!
//! When the linter finds nothing wrong but the solver still reports UNSAT,
//! the conflict spans constraint *families* rather than a single broken
//! constraint. This module builds the one encoding every consumer shares
//! ([`crate::ir`]: the encoders emit into a `ConstraintStore`, one
//! lowering pass guards each family with a selector literal) and solves
//! under the selectors as assumptions; the SAT core's failed assumptions
//! then name exactly the families whose combination is contradictory.
//!
//! A placement attempt that ends UNSAT gets the same attribution for free
//! from its own first solve ([`crate::PlaceError::Infeasible`]); this
//! standalone entry exists for `--explain`-style diagnosis without
//! running the optimization loop.

use crate::config::PlacerConfig;
use crate::encode;
use crate::encode::region::{region_bounds, region_margins};
use crate::ir::{conflict_families, ConstraintFamily};
use crate::power::PowerPlan;
use crate::scale::ScaleInfo;
use crate::vars::VarMap;
use ams_netlist::Design;
use ams_smt::{Smt, SmtResult, Term};

/// Outcome of [`explain_unsat`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UnsatOutcome {
    /// The instance is satisfiable — nothing to explain.
    Feasible,
    /// The conflict budget expired before a verdict.
    Unknown,
    /// Unsatisfiable; the listed family combination suffices for the
    /// conflict (sorted, deduplicated, non-empty).
    Conflict(Vec<ConstraintFamily>),
}

/// Encodes the design once through the shared IR path, lowers it with
/// per-family selectors, and attributes an UNSAT verdict to the smallest
/// family set the SAT core reports.
///
/// The wirelength family never constrains feasibility and is excluded
/// from attribution. The first-solve conflict budget of `config.optimize`
/// applies.
pub fn explain_unsat(design: &Design, config: &PlacerConfig) -> UnsatOutcome {
    let plan = PowerPlan::for_config(design, config);
    let scale = ScaleInfo::compute(design, config);

    // The region encoder panics on an empty Eq. 5 candidate set; that case
    // is a pure core-geometry conflict, already reportable without solving.
    let no_candidates = design.region_ids().any(|r| {
        let ext = region_margins(design, &scale, config, r);
        region_bounds(design, &scale, r, ext).candidates.is_empty()
    });
    if no_candidates {
        return UnsatOutcome::Conflict(vec![ConstraintFamily::CoreGeometry]);
    }

    let mut smt = Smt::new();
    let vars = VarMap::create(&mut smt, design, &scale, &plan, config, None);
    let encoding = encode::encode_design(&mut smt, design, &scale, &plan, &vars, config);
    let lowering = encoding.store.lower(&mut smt, 0, &ConstraintFamily::ALL);

    smt.set_conflict_budget(config.optimize.first_conflict_budget);
    let assumptions: Vec<Term> = lowering.selectors.iter().map(|&(_, s)| s).collect();
    match smt.solve_with(&assumptions) {
        SmtResult::Sat => UnsatOutcome::Feasible,
        SmtResult::Unknown | SmtResult::Cancelled => UnsatOutcome::Unknown,
        SmtResult::Unsat => UnsatOutcome::Conflict(conflict_families(
            &lowering.selectors,
            smt.failed_assumptions(),
        )),
    }
}
