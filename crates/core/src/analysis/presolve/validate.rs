//! Lowering well-formedness: selector-literal discipline between the
//! constraint store and the live solver.
//!
//! The invariants checked here are exactly what solving and recovery rely
//! on: every family with records in the store is guarded by exactly one
//! *live* selector (so assumptions enable the whole family and UNSAT cores
//! attribute to it), no retired selector is still passed live (a retired
//! guard is permanently false — assuming it would poison every solve), and
//! no record carries a degenerate payload the blaster would mis-lower.
//! The placer runs this after every lower/retire/re-lower under
//! `debug_assertions`; CI runs the `validate_lowering` test filter
//! explicitly.

use crate::ir::{ConstraintFamily, ConstraintStore, Payload};
use ams_smt::Term;

/// Checks selector discipline for a store plus the live selector list and
/// retired-selector history.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub(crate) fn validate_lowering(
    store: &ConstraintStore,
    selectors: &[(ConstraintFamily, Term)],
    retired: &[Term],
) -> Result<(), String> {
    // No duplicate live selector terms (two families sharing a guard would
    // make attribution ambiguous; one family guarded twice would split it).
    for (i, &(fa, sa)) in selectors.iter().enumerate() {
        for &(fb, sb) in &selectors[i + 1..] {
            if sa == sb {
                return Err(format!("families {fa} and {fb} share one selector literal"));
            }
            if fa == fb {
                return Err(format!("family {fa} is guarded by two live selectors"));
            }
        }
    }

    // Retired selectors must not be passed as live assumptions.
    if let Some(&(family, _)) = selectors.iter().find(|&&(_, s)| retired.contains(&s)) {
        return Err(format!(
            "family {family} still lists a retired selector as live"
        ));
    }

    // Exactly the families with records are guarded.
    for family in ConstraintFamily::ALL {
        let has_records = store.records().iter().any(|c| c.family == family);
        let live = selectors.iter().filter(|&&(f, _)| f == family).count();
        if has_records && live == 0 {
            return Err(format!(
                "family {family} has store records but no live selector — its \
                 constraints are unreachable"
            ));
        }
        if !has_records && live > 0 {
            return Err(format!(
                "family {family} has a live selector but no store records — an \
                 orphan guard from a stale generation"
            ));
        }
    }

    // Degenerate payloads: an empty at-most sum lowers to nothing, so the
    // recorded constraint would silently vanish from the encoding.
    for c in store.records() {
        if let Payload::AtMost { items, .. } = &c.payload {
            if items.is_empty() {
                return Err(format!(
                    "family {} records an at-most bound over zero items at {}",
                    c.family, c.provenance
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Provenance;
    use ams_smt::Smt;

    fn store_with(families: &[ConstraintFamily]) -> (Smt, ConstraintStore) {
        let mut smt = Smt::new();
        let mut store = ConstraintStore::new();
        for &f in families {
            store.family(f);
            let t = smt.tru();
            store.assert(t);
        }
        (smt, store)
    }

    #[test]
    fn a_clean_lowering_validates() {
        let (mut smt, store) =
            store_with(&[ConstraintFamily::CoreGeometry, ConstraintFamily::Symmetry]);
        let lowering = store.lower(&mut smt, 0, &ConstraintFamily::ALL);
        assert_eq!(validate_lowering(&store, &lowering.selectors, &[]), Ok(()));
    }

    #[test]
    fn missing_and_orphan_selectors_are_flagged() {
        let (mut smt, store) = store_with(&[ConstraintFamily::CoreGeometry]);
        let lowering = store.lower(&mut smt, 0, &ConstraintFamily::ALL);

        // Records but no live selector.
        let err = validate_lowering(&store, &[], &[]).expect_err("unguarded records");
        assert!(err.contains("no live selector"), "{err}");

        // A selector for a family with no records.
        let stray = smt.bool_var("stray");
        let mut sels = lowering.selectors.clone();
        sels.push((ConstraintFamily::PinDensity, stray));
        let err = validate_lowering(&store, &sels, &[]).expect_err("orphan guard");
        assert!(err.contains("orphan guard"), "{err}");
    }

    #[test]
    fn retired_selectors_must_leave_the_live_set() {
        let (mut smt, store) = store_with(&[ConstraintFamily::PinDensity]);
        let lowering = store.lower(&mut smt, 0, &ConstraintFamily::ALL);
        let sel = lowering.selectors[0].1;
        let err =
            validate_lowering(&store, &lowering.selectors, &[sel]).expect_err("retired yet live");
        assert!(err.contains("retired selector"), "{err}");
    }

    #[test]
    fn duplicate_guards_are_flagged() {
        let (mut smt, store) =
            store_with(&[ConstraintFamily::CoreGeometry, ConstraintFamily::Symmetry]);
        let lowering = store.lower(&mut smt, 0, &ConstraintFamily::ALL);
        let shared = lowering.selectors[0].1;
        let sels = vec![
            (ConstraintFamily::CoreGeometry, shared),
            (ConstraintFamily::Symmetry, shared),
        ];
        let err = validate_lowering(&store, &sels, &[]).expect_err("shared literal");
        assert!(err.contains("share one selector"), "{err}");
    }

    #[test]
    fn empty_at_most_payloads_are_flagged() {
        let mut smt = Smt::new();
        let mut store = ConstraintStore::new();
        store.family(ConstraintFamily::PinDensity);
        store.at(Provenance::Window { x: 0, y: 0 });
        store.assert_at_most(Vec::new(), 3);
        let lowering = store.lower(&mut smt, 0, &ConstraintFamily::ALL);
        let err = validate_lowering(&store, &lowering.selectors, &[]).expect_err("empty sum");
        assert!(err.contains("zero items"), "{err}");
    }
}
